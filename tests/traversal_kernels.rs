//! Determinism contract of the push–pull traversal kernels
//! (direction-optimizing BFS with α/β switching on the pool,
//! label-correcting SSSP on the caller thread): bit-identical outputs
//! *and* work counters across pool widths.

use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::graph500::RmatConfig;
use graphalytics::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole determinism contract on the traversal pair: for
    /// random weighted R-MAT graphs (directed and undirected), the
    /// push–pull engine's BFS and SSSP must produce bit-identical
    /// outputs AND identical work counters at pool widths 1 (inline),
    /// 2, 4 and 8 — parallelism may only change wall time.
    #[test]
    fn traversal_outputs_and_counters_invariant_across_widths(
        scale in 6u32..10,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let graph = RmatConfig {
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
        .generate();
        let baseline_pool = WorkerPool::inline();
        let csr = Arc::new(graph.to_csr_with(&baseline_pool).unwrap());
        let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
        let params = AlgorithmParams::with_source(root);
        let platform = platform_by_name("PGX.D").unwrap();
        for algorithm in [Algorithm::Bfs, Algorithm::Sssp] {
            let loaded = platform.upload(csr.clone(), &baseline_pool).unwrap();
            let mut ctx = RunContext::new(&baseline_pool);
            let base = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            platform.delete(loaded);
            for threads in [2u32, 4, 8] {
                let pool = WorkerPool::new(threads);
                let loaded = platform.upload(csr.clone(), &pool).unwrap();
                let mut ctx = RunContext::new(&pool);
                let run = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
                platform.delete(loaded);
                prop_assert_eq!(
                    &base.output, &run.output,
                    "{} scale {} seed {} width {}: output changed",
                    algorithm, scale, seed, threads
                );
                prop_assert_eq!(base.counters.supersteps, run.counters.supersteps);
                prop_assert_eq!(base.counters.edges_scanned, run.counters.edges_scanned);
                prop_assert_eq!(base.counters.messages, run.counters.messages);
                prop_assert_eq!(base.counters.message_bytes, run.counters.message_bytes);
            }
        }
    }
}
