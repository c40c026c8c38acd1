//! The `Graph` ordering invariant — edges strictly ascending by
//! `(src, dst)`, undirected edges stored `src < dst` — holds out of every
//! constructor: `GraphBuilder::build_with` at any pool width with or
//! without deduplication (sorted, shuffled or already ordered input),
//! `Graph::as_undirected`, and `MutableGraph::to_graph` after arbitrary
//! apply/compact sequences. `Graph::validate` is the judge, and the CSR
//! build (which rejects any other order) must accept the result.

use std::sync::Arc;

use graphalytics::core::graph::{random_batch, DeltaConfig, MutableGraph};
use graphalytics::core::pool::WorkerPool;
use graphalytics::prelude::*;
use proptest::prelude::*;

fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 33
}

fn builder(directed: bool, weighted: bool, n: u64, stride: u64) -> GraphBuilder {
    let mut b = GraphBuilder::new(directed);
    b.set_weighted(weighted);
    for v in 0..n {
        b.add_vertex(v * stride);
    }
    b
}

fn assert_ordered(g: &Graph, what: &str) {
    g.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
    let keys: Vec<(u64, u64)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: edges not strictly ascending");
    assert!(g.is_directed() || keys.iter().all(|(s, d)| s < d), "{what}: not canonical");
    g.try_to_csr().unwrap_or_else(|e| panic!("{what}: {e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn every_constructor_yields_an_ordered_edge_list(
        seed in 0u64..u64::MAX,
        n in 2u64..120,
        directed in proptest::bool::ANY,
        weighted in proptest::bool::ANY,
        stride_pick in 0u32..3,
    ) {
        let stride = [1, 3, 0x4000_0000_0000][stride_pick as usize];
        let mut x = seed | 1;
        let mut raw = Vec::new();
        for _ in 0..n * 4 {
            let (s, d) = (next(&mut x) % n, next(&mut x) % n);
            if s != d {
                let w = if weighted { (next(&mut x) % 100) as f64 / 4.0 } else { 1.0 };
                raw.push((s * stride, d * stride, w));
            }
        }

        // Random insertion order with duplicates, deduplicating build.
        let mut first: Option<Graph> = None;
        for threads in [1u32, 2, 4] {
            let mut b = builder(directed, weighted, n, stride);
            b.dedup_edges(true);
            for &(s, d, w) in &raw {
                b.add_weighted_edge(s, d, w);
            }
            let g = b.build_with(&WorkerPool::new(threads)).unwrap();
            assert_ordered(&g, &format!("dedup build, width {threads}"));
            let first = first.get_or_insert_with(|| g.clone());
            prop_assert_eq!(first.edges(), g.edges(), "width {}", threads);
        }
        let g = first.unwrap();

        // The same edges, now unique, through the strict build: shuffled
        // (sorted by the builder) and in order (the sort is skipped).
        let mut shuffled: Vec<_> = g.edges().to_vec();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
        }
        for (order, edges) in [("shuffled", shuffled.as_slice()), ("ordered", g.edges())] {
            for threads in [1u32, 2, 4] {
                let mut b = builder(directed, weighted, n, stride);
                for e in edges {
                    b.add_weighted_edge(e.src, e.dst, e.weight);
                }
                let strict = b.build_with(&WorkerPool::new(threads)).unwrap();
                assert_ordered(&strict, &format!("strict build of {order} edges, width {threads}"));
                prop_assert_eq!(strict.edges(), g.edges(), "{} width {}", order, threads);
            }
        }

        assert_ordered(&g.as_undirected(), "as_undirected");

        // Random apply / compact interleavings over the delta log.
        let pool = WorkerPool::new(2);
        let config = DeltaConfig { auto_compact: false, ..DeltaConfig::default() };
        let mut mg = MutableGraph::with_config(Arc::new(g.to_csr()), config);
        for round in 0..6u64 {
            let batch = random_batch(mg.base(), (n / 2) as usize, (n / 3) as usize, seed ^ round);
            mg.apply(&batch, &pool).unwrap();
            assert_ordered(&mg.to_graph(), &format!("to_graph after batch {round}"));
            if next(&mut x).is_multiple_of(3) {
                mg.compact(&pool).unwrap();
                assert_ordered(&mg.to_graph(), &format!("to_graph after compaction {round}"));
            }
        }
    }
}
