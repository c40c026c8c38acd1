//! Correctness anchor of the streaming-mutation subsystem, which has one
//! path: a core [`MutableGraph`] delta log whose materialized snapshot is
//! uploaded like any other graph.
//!
//! * For random R-MAT bases and three random insert/delete batches
//!   applied to a `MutableGraph`, a measured job on the materialized
//!   snapshot completes with validation on for every algorithm each
//!   engine supports — all six engines unsharded, Pregel and push–pull
//!   at two shards — at pool widths 1/2/4/8. Its work counters, and
//!   every engine's output on the snapshot, are bit-identical to a cold
//!   `Csr::from_graph` of the merged edge list, and the same at every
//!   width.
//! * Compaction round-trip: folding the delta log equals building a
//!   fresh CSR from the merged edge list.

use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::core::datasets::dataset;
use graphalytics::core::{random_batch, AlgorithmOutput, Csr, DeltaConfig, MutableGraph};
use graphalytics::engines::upload_with_shards;
use graphalytics::graph500::RmatConfig;
use graphalytics::harness::JobStatus;
use graphalytics::prelude::*;

fn rmat(scale: u32, seed: u64, directed: bool) -> Graph {
    RmatConfig {
        scale,
        edge_factor: 6,
        a: 0.55,
        b: 0.2,
        c: 0.2,
        seed,
        directed,
        weighted: true,
        keep_isolated: false,
    }
    .generate()
}

/// The (engine, shard count) cells a job on a mutated graph must
/// complete on.
fn mutation_cells() -> Vec<(&'static str, u32)> {
    let mut cells: Vec<_> = all_platforms().iter().map(|p| (p.name(), 1)).collect();
    cells.extend([("pregel", 2), ("pushpull", 2)]);
    cells
}

/// One upload → run → delete of `algorithm` on `csr` at `shards`.
fn output_on(
    platform: &dyn Platform,
    csr: &Arc<Csr>,
    shards: u32,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    pool: &WorkerPool,
) -> AlgorithmOutput {
    let loaded = upload_with_shards(platform, csr.clone(), shards, SHARD_SEED, pool).unwrap();
    let mut ctx = RunContext::new(pool);
    let output = platform.run(loaded.as_ref(), algorithm, params, &mut ctx).unwrap().output;
    platform.delete(loaded);
    output
}

/// Three batches of `m` insertions and `m` deletions, each drawn against
/// `base`, applied on `pool` through one delta log (the default policy).
fn mutated(base: &Arc<Csr>, m: usize, seed: u64, pool: &WorkerPool) -> MutableGraph {
    let mut mg = MutableGraph::new(base.clone());
    for i in 0..3 {
        let batch_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        mg.apply(&random_batch(base, m, m, batch_seed), pool).unwrap();
    }
    mg
}

/// Placement seed of the direct sharded uploads.
const SHARD_SEED: u64 = 0x5EED;

fn pool_of(threads: u32) -> WorkerPool {
    if threads == 1 {
        WorkerPool::inline()
    } else {
        WorkerPool::new(threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A measured job on the snapshot of three random batches completes
    /// with validation on, for every algorithm each cell supports, at
    /// pool widths 1/2/4/8 — and answers exactly as a cold build of the
    /// merged edge list does.
    #[test]
    fn mutation_script_jobs_complete_with_validation_across_widths(
        scale in 6u32..9,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let inline = WorkerPool::inline();
        let csr = Arc::new(rmat(scale, seed, directed).to_csr_with(&inline).unwrap());
        let m = (csr.num_edges() / 20).max(4);

        // A cold build of the merged edge list; each width applies the
        // same batches and materializes its own snapshot on its pool.
        let cold = Arc::new(Csr::from_graph(&mutated(&csr, m, seed, &inline).to_graph()).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&cold).unwrap();
        let params = AlgorithmParams::with_source(root);

        let mut width1: Vec<AlgorithmOutput> = Vec::new();
        for threads in [1u32, 2, 4, 8] {
            let pool = Arc::new(pool_of(threads));
            let snapshot = Arc::new(mutated(&csr, m, seed, &pool).materialize(&pool).unwrap());
            let driver = Driver { pool: pool.clone(), monitor: false, ..Driver::default() };
            let mut cell = 0;
            for (name, shards) in mutation_cells() {
                let platform = platform_by_name(name).unwrap();
                for algorithm in Algorithm::ALL {
                    if !platform.supports(algorithm) {
                        continue;
                    }
                    let spec = JobSpec::new(
                        dataset("G22").unwrap(),
                        algorithm,
                        ClusterSpec::single_machine(),
                    )
                    .with_shards(shards);
                    let plain = driver.run(platform.as_ref(), &spec, RunMode::Measured { csr: &cold });
                    let r =
                        driver.run(platform.as_ref(), &spec, RunMode::Measured { csr: &snapshot });
                    prop_assert_eq!(
                        &r.status, &JobStatus::Completed,
                        "scale {} seed {} directed {} width {}: {} x{} {}",
                        scale, seed, directed, threads, name, shards, algorithm
                    );
                    prop_assert_eq!(
                        (r.vertices, r.edges, r.counters), (plain.vertices, plain.edges, plain.counters),
                        "{} x{} {} width {}: job on the snapshot vs job on the cold build",
                        name, shards, algorithm, threads
                    );

                    let on_snapshot =
                        output_on(platform.as_ref(), &snapshot, shards, algorithm, &params, &pool);
                    let on_cold =
                        output_on(platform.as_ref(), &cold, shards, algorithm, &params, &pool);
                    prop_assert_eq!(
                        &on_snapshot, &on_cold,
                        "{} x{} {} width {}: snapshot vs cold build",
                        name, shards, algorithm, threads
                    );
                    if threads == 1 {
                        width1.push(on_snapshot);
                    } else {
                        prop_assert_eq!(
                            &width1[cell], &on_snapshot,
                            "{} x{} {}: output depends on width {}",
                            name, shards, algorithm, threads
                        );
                    }
                    cell += 1;
                }
            }
        }
    }

    /// Compaction round-trip: folding the log into a fresh base CSR is
    /// exactly `Csr::from_graph` on the merged edge list — row for row,
    /// weight for weight.
    #[test]
    fn compaction_equals_csr_from_merged_edge_list(
        scale in 5u32..8,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let inline = WorkerPool::inline();
        let csr = Arc::new(rmat(scale, seed, directed).to_csr_with(&inline).unwrap());
        let m = (csr.num_edges() / 10).max(4);
        let batch = random_batch(&csr, m, m, seed ^ 0xC0FFEE);
        let mut mg = MutableGraph::with_config(
            csr,
            DeltaConfig { auto_compact: false, ..DeltaConfig::default() },
        );
        mg.apply(&batch, &inline).unwrap();
        let reference = Csr::from_graph(&mg.to_graph()).unwrap();
        mg.compact(&inline).unwrap();
        let compacted = mg.base();
        prop_assert_eq!(compacted.vertex_ids(), reference.vertex_ids());
        prop_assert_eq!(compacted.num_arcs(), reference.num_arcs());
        for u in 0..reference.num_vertices() as u32 {
            prop_assert_eq!(compacted.out_neighbors(u), reference.out_neighbors(u));
            prop_assert_eq!(compacted.out_weights(u), reference.out_weights(u));
            if reference.is_directed() {
                prop_assert_eq!(compacted.in_neighbors(u), reference.in_neighbors(u));
            }
        }
        prop_assert_eq!(mg.delta_arcs(), 0, "compaction resets the log");
    }
}
