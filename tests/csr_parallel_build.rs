//! Property test: the parallel CSR build is *equal* to the sequential
//! one — same offsets (observed through degrees), same targets, same
//! weights — for arbitrary graphs, directed and undirected, across
//! sparse-id regimes that exercise every remap strategy (contiguous,
//! dense table, binary search).

use graphalytics::core::pool::WorkerPool;
use graphalytics::prelude::*;
use proptest::prelude::*;

/// Deterministically grows a pseudo-random graph from a seed.
fn arbitrary_graph(seed: u64, n: u64, directed: bool, weighted: bool, id_stride: u64) -> Graph {
    let mut b = GraphBuilder::new(directed);
    b.set_weighted(weighted);
    b.dedup_edges(true);
    // id_stride picks the sparse-id regime: 1 = contiguous ids,
    // small = dense-table remap, huge = binary-search remap.
    for v in 0..n {
        b.add_vertex(v * id_stride);
    }
    let mut x = seed | 1;
    let edges = n * 4;
    for _ in 0..edges {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let s = (x >> 33) % n;
        let d = (x >> 11) % n;
        if s != d {
            let w = if weighted { ((x >> 3) % 1000) as f64 / 8.0 } else { 1.0 };
            b.add_weighted_edge(s * id_stride, d * id_stride, w);
        }
    }
    b.build().unwrap()
}

fn assert_same_csr(seq: &Csr, par: &Csr) {
    assert_eq!(seq.num_vertices(), par.num_vertices());
    assert_eq!(seq.num_arcs(), par.num_arcs());
    assert_eq!(seq.vertex_ids(), par.vertex_ids());
    for u in 0..seq.num_vertices() as u32 {
        assert_eq!(seq.out_neighbors(u), par.out_neighbors(u), "out row {u}");
        assert_eq!(seq.out_weights(u), par.out_weights(u), "out weights {u}");
        assert_eq!(seq.in_neighbors(u), par.in_neighbors(u), "in row {u}");
        assert_eq!(seq.in_weights(u), par.in_weights(u), "in weights {u}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn parallel_csr_build_equals_sequential(
        seed in 0u64..u64::MAX,
        n in 2u64..200,
        directed in proptest::bool::ANY,
        weighted in proptest::bool::ANY,
        stride_pick in 0u32..3,
        threads in 2u32..9,
    ) {
        let id_stride = match stride_pick {
            0 => 1,                 // contiguous: offset remap
            1 => 3,                 // clustered: dense-table remap
            _ => 0x4000_0000_0000,  // wide span: binary-search remap
        };
        let g = arbitrary_graph(seed, n, directed, weighted, id_stride);
        let seq = g.try_to_csr().unwrap();
        let pool = WorkerPool::new(threads);
        let par = g.to_csr_with(&pool).unwrap();
        assert_same_csr(&seq, &par);
    }
}
