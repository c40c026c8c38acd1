//! The sharded-execution contract (CI gate): for every engine with a
//! sharded run path, N-shard output is **bit-identical** to single-shard
//! output — for every supported algorithm, every shard count, every
//! placement seed, every caller pool width — and repeated sharded runs
//! are deterministic. The logical work counters are shard-invariant
//! everywhere: a sharded run follows the monolithic kernel's schedule.

use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::cluster::partition::PartitionStrategy;
use graphalytics::engines::{Execution, ShardPlan};
use graphalytics::prelude::*;

/// The engines that advertise a sharded execution path.
fn sharded_platforms() -> Vec<Box<dyn Platform>> {
    let platforms: Vec<_> = all_platforms().into_iter().filter(|p| p.supports_sharded()).collect();
    assert_eq!(
        platforms.iter().map(|p| p.name().to_string()).collect::<Vec<_>>(),
        vec!["pregel", "pushpull"],
        "pregel and pushpull carry the sharded contract"
    );
    platforms
}

#[test]
fn n_shard_output_bit_identical_on_proxy_graphs() {
    // The acceptance gate: a registry proxy dataset (G22, unweighted)
    // and a weighted Graph500 instance, all supported algorithms, shard
    // counts 1/2/4 on caller pools 1, 2 and 4 wide against the
    // monolithic upload on the 4-wide pool.
    let spec = graphalytics::core::datasets::dataset("G22").unwrap();
    let proxy = graphalytics::harness::proxy::materialize(spec, 1 << 14, 21);
    let weighted = Graph500Config::new(9).with_seed(21).with_weights(true).generate();
    let pool = WorkerPool::new(4);
    let callers = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)];
    for (name, graph) in [("G22-proxy", &proxy), ("graph500-9w", &weighted)] {
        let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
        let params = AlgorithmParams::with_source(root);
        for platform in sharded_platforms() {
            let mono = platform.upload(csr.clone(), &pool).unwrap();
            for algorithm in Algorithm::ALL {
                if !platform.supports(algorithm)
                    || (algorithm.needs_weights() && !csr.is_weighted())
                {
                    continue;
                }
                let mut ctx = RunContext::new(&pool);
                let baseline = platform.run(mono.as_ref(), algorithm, &params, &mut ctx).unwrap();
                for caller in &callers {
                    let width = caller.threads();
                    for shards in [1u32, 2, 4] {
                        let plan = ShardPlan::new(shards);
                        let loaded = platform.upload_sharded(csr.clone(), &plan, caller).unwrap();
                        let mut ctx = RunContext::new(caller);
                        let run =
                            platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                        platform.delete(loaded);
                        let what = format!(
                            "{} {algorithm} on {name}, {shards} shards on a {width}-wide pool",
                            platform.name()
                        );
                        assert_eq!(baseline.output, run.output, "{what}: changed the output");
                        if shards > 1 {
                            assert!(
                                run.counters.inter_shard_messages <= run.counters.messages,
                                "{what}: cut traffic exceeds total messages"
                            );
                        }
                    }
                }
            }
            platform.delete(mono);
        }
    }
}

#[test]
fn repeated_sharded_runs_are_deterministic() {
    // Fixed shard count, repeated execution: same outputs *and* same
    // work counters, both on one shared sharded upload and across fresh
    // sharded uploads (the partition itself is seeded, not ambient).
    let graph = Graph500Config::new(9).with_seed(31).with_weights(true).generate();
    let pool = WorkerPool::new(4);
    let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams::with_source(root);
    let plan = ShardPlan::new(3);
    for platform in sharded_platforms() {
        let shared = platform.upload_sharded(csr.clone(), &plan, &pool).unwrap();
        for algorithm in Algorithm::ALL {
            if !platform.supports(algorithm) {
                continue;
            }
            let mut ctx = RunContext::new(&pool);
            let first = platform.run(shared.as_ref(), algorithm, &params, &mut ctx).unwrap();
            for rep in 1..3u64 {
                let mut ctx = RunContext::new(&pool);
                let again = platform.run(shared.as_ref(), algorithm, &params, &mut ctx).unwrap();
                assert_eq!(first.output, again.output, "{} rep {rep}", platform.name());
                assert_eq!(
                    first.counters.inter_shard_messages,
                    again.counters.inter_shard_messages,
                    "{} {algorithm} rep {rep}: cut traffic must be deterministic",
                    platform.name()
                );
            }
            let fresh_loaded = platform.upload_sharded(csr.clone(), &plan, &pool).unwrap();
            let mut ctx = RunContext::new(&pool);
            let fresh = platform.run(fresh_loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            platform.delete(fresh_loaded);
            assert_eq!(first.output, fresh.output, "{} {algorithm}", platform.name());
            assert_eq!(
                first.counters.inter_shard_messages,
                fresh.counters.inter_shard_messages,
                "{} {algorithm}: re-partitioning with one seed must be stable",
                platform.name()
            );
        }
        platform.delete(shared);
    }
}

#[test]
fn logical_work_counters_shard_invariant() {
    // `supersteps`, `edges_scanned` and `messages` equal the monolithic
    // run's for every algorithm on both engines: every sharded kernel
    // follows the monolithic schedule (push–pull WCC and SSSP run the
    // monolithic kernel itself).
    let logical = |run: &Execution| {
        (run.counters.supersteps, run.counters.edges_scanned, run.counters.messages)
    };
    let graph = Graph500Config::new(10).with_seed(41).with_weights(true).generate();
    let pool = WorkerPool::new(4);
    let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams::with_source(root);
    for platform in sharded_platforms() {
        let mono = platform.upload(csr.clone(), &pool).unwrap();
        let two = platform.upload_sharded(csr.clone(), &ShardPlan::new(2), &pool).unwrap();
        let four = platform.upload_sharded(csr.clone(), &ShardPlan::new(4), &pool).unwrap();
        for algorithm in Algorithm::ALL {
            if !platform.supports(algorithm) {
                continue;
            }
            let run = |loaded: &dyn LoadedGraph| {
                let mut ctx = RunContext::new(&pool);
                platform.run(loaded, algorithm, &params, &mut ctx).unwrap()
            };
            let (base, at2, at4) = (run(mono.as_ref()), run(two.as_ref()), run(four.as_ref()));
            let what = format!("{} {algorithm}", platform.name());
            assert_eq!(logical(&base), logical(&at2), "{what} at 2 shards");
            assert_eq!(logical(&base), logical(&at4), "{what} at 4 shards");
        }
        for loaded in [mono, two, four] {
            platform.delete(loaded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_matches_single_shard_on_random_graphs(
        scale in 6u32..9,
        graph_seed in 0u64..1000,
        directed in proptest::bool::ANY,
        shards in 2u32..6,
        placement_seed in 0u64..1000,
        range_cut in proptest::bool::ANY,
    ) {
        let graph = graphalytics::graph500::RmatConfig {
            scale,
            edge_factor: 6,
            a: 0.55,
            b: 0.2,
            c: 0.2,
            seed: graph_seed,
            directed,
            weighted: true,
            keep_isolated: false,
        }
        .generate();
        let pool = WorkerPool::new(4);
        let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
        let params = AlgorithmParams::with_source(root);
        let plan = ShardPlan {
            shards,
            strategy: if range_cut {
                PartitionStrategy::RangeEdgeCut
            } else {
                PartitionStrategy::HashEdgeCut
            },
            seed: placement_seed,
        };
        for platform in sharded_platforms() {
            let mono = platform.upload(csr.clone(), &pool).unwrap();
            let sharded = platform.upload_sharded(csr.clone(), &plan, &pool).unwrap();
            for algorithm in Algorithm::ALL {
                if !platform.supports(algorithm) {
                    continue;
                }
                let mut ctx = RunContext::new(&pool);
                let baseline =
                    platform.run(mono.as_ref(), algorithm, &params, &mut ctx).unwrap();
                let mut ctx = RunContext::new(&pool);
                let run =
                    platform.run(sharded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                prop_assert_eq!(
                    &baseline.output,
                    &run.output,
                    "{} {} at {} shards (seed {})",
                    platform.name(),
                    algorithm,
                    shards,
                    placement_seed
                );
            }
            platform.delete(sharded);
            platform.delete(mono);
        }
    }
}
