//! Contracts of the two shared heavy kernels: `cdlp::mode_label` (the
//! sort + run-length label tally every CDLP site uses) and the
//! degree-ordered triangle kernel behind `lcc` (the reference and the
//! native / SpMV / GAS engines).
//!
//! Both replaced slower formulations — a `HashMap` tally and a
//! per-vertex neighbourhood merge — so each is checked against that
//! formulation written out naively here, bit for bit, and the engine
//! paths are checked for identical outputs *and* work counters at pool
//! widths 1/2/4/8.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::core::algorithms::cdlp::mode_label;
use graphalytics::core::algorithms::lcc::lcc;
use graphalytics::core::VertexId;
use graphalytics::graph500::RmatConfig;
use graphalytics::prelude::*;

/// The tally `mode_label` replaced: count per label, then the highest
/// count, the smallest label among equals.
fn hashmap_mode(votes: &[VertexId]) -> Option<VertexId> {
    let mut freq: HashMap<VertexId, u32> = HashMap::new();
    for &label in votes {
        *freq.entry(label).or_insert(0) += 1;
    }
    freq.into_iter().max_by_key(|&(label, count)| (count, std::cmp::Reverse(label))).map(|(l, _)| l)
}

/// The LCC definition evaluated directly: for every ordered pair of
/// distinct neighbours, one arc lookup.
fn naive_lcc(csr: &Csr) -> Vec<f64> {
    (0..csr.num_vertices() as u32)
        .map(|v| {
            let neigh = csr.neighborhood_union(v);
            let d = neigh.len();
            if d < 2 {
                return 0.0;
            }
            let links = neigh
                .iter()
                .flat_map(|&u| neigh.iter().map(move |&w| (u, w)))
                .filter(|&(u, w)| u != w && csr.has_out_edge(u, w))
                .count();
            links as f64 / (d as f64 * (d as f64 - 1.0))
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A random R-MAT graph; when directed, every third arc also gets its
/// reverse so reciprocal pairs (multiplicity 2) are common, not rare.
fn rmat(scale: u32, seed: u64, directed: bool) -> Graph {
    let base = RmatConfig {
        scale,
        edge_factor: 8,
        a: 0.55,
        b: 0.2,
        c: 0.2,
        seed,
        directed,
        weighted: false,
        keep_isolated: true,
    }
    .generate();
    if !directed {
        return base;
    }
    let mut b = GraphBuilder::new(true);
    b.dedup_edges(true);
    for &v in base.vertices() {
        b.add_vertex(v);
    }
    for (i, e) in base.edges().iter().enumerate() {
        b.add_edge(e.src, e.dst);
        if i % 3 == 0 {
            b.add_edge(e.dst, e.src);
        }
    }
    b.build().unwrap()
}

fn undirected(n: u64, edges: &[(u64, u64)]) -> Csr {
    let mut b = GraphBuilder::new(false);
    b.add_vertex_range(n);
    for &(s, d) in edges {
        b.add_edge(s, d);
    }
    b.build().unwrap().to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multisets over a small alphabet (so counts tie often),
    /// then the same multiset topped up until every label ties.
    #[test]
    fn mode_label_equals_hashmap_tally(
        len in 0usize..40,
        alphabet in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut x = seed;
        let mut votes: Vec<VertexId> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Sparse ids, as datasets have them.
                ((x >> 33) % alphabet) * 1_000_003 + 7
            })
            .collect();
        prop_assert_eq!(mode_label(&mut votes.clone()), hashmap_mode(&votes));

        // Level the counts of every label: all tie, the smallest wins.
        let mut labels = votes.clone();
        labels.sort_unstable();
        labels.dedup();
        let top = labels.iter().map(|l| votes.iter().filter(|v| *v == l).count()).max().unwrap_or(0);
        for l in &labels {
            let have = votes.iter().filter(|v| *v == l).count();
            votes.extend(std::iter::repeat_n(*l, top - have));
        }
        prop_assert_eq!(mode_label(&mut votes.clone()), labels.first().copied());
        prop_assert_eq!(mode_label(&mut votes.clone()), hashmap_mode(&votes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The triangle kernel is bitwise equal to the definition on random
    /// directed R-MAT graphs with reciprocal arcs and on undirected
    /// Kronecker-style graphs.
    #[test]
    fn lcc_equals_the_definition_bitwise(
        scale in 4u32..9,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let csr = rmat(scale, seed, directed).to_csr();
        if directed {
            let reciprocal = (0..csr.num_vertices() as u32)
                .any(|u| csr.out_neighbors(u).iter().any(|&v| csr.has_out_edge(v, u)));
            prop_assert!(reciprocal, "scale {} seed {}: no reciprocal pair", scale, seed);
        }
        prop_assert_eq!(
            bits(&lcc(&csr)), bits(&naive_lcc(&csr)),
            "scale {} seed {} directed {}", scale, seed, directed
        );
    }

    /// native / SpMV / GAS run the same kernel over pool ranges: outputs
    /// equal the reference bitwise, and outputs and every work counter
    /// are the same at widths 1, 2, 4 and 8.
    #[test]
    fn engine_lcc_invariant_across_widths(
        scale in 5u32..9,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let csr = Arc::new(rmat(scale, seed, directed).to_csr());
        let params = AlgorithmParams::default();
        let reference = run_reference(&csr, Algorithm::Lcc, &params).unwrap();
        let mut scanned = Vec::new();
        for engine in ["native", "spmv", "gas"] {
            let platform = platform_by_name(engine).unwrap();
            let inline = WorkerPool::inline();
            let loaded = platform.upload(csr.clone(), &inline).unwrap();
            let base = platform
                .run(loaded.as_ref(), Algorithm::Lcc, &params, &mut RunContext::new(&inline))
                .unwrap();
            prop_assert_eq!(&base.output, &reference, "{} differs from the reference", engine);
            for threads in [2u32, 4, 8] {
                let pool = WorkerPool::new(threads);
                let run = platform
                    .run(loaded.as_ref(), Algorithm::Lcc, &params, &mut RunContext::new(&pool))
                    .unwrap();
                prop_assert_eq!(&base.output, &run.output, "{} width {}", engine, threads);
                prop_assert_eq!(&base.counters, &run.counters, "{} width {}", engine, threads);
            }
            platform.delete(loaded);
            scanned.push(base.counters.edges_scanned);
        }
        // One kernel, one meaning of `edges_scanned`.
        prop_assert!(scanned.iter().all(|&s| s == scanned[0]), "{:?}", scanned);
    }
}

#[test]
fn lcc_edge_cases_match_the_definition() {
    let star: Vec<(u64, u64)> = (1..8).map(|i| (0, i)).collect();
    let clique: Vec<(u64, u64)> = (0..6).flat_map(|i| (i + 1..6).map(move |j| (i, j))).collect();
    let path: Vec<(u64, u64)> = (0..6).map(|i| (i, i + 1)).collect();
    for (name, csr, expect) in [
        ("star", undirected(8, &star), vec![0.0; 8]),
        ("clique", undirected(6, &clique), vec![1.0; 6]),
        ("path", undirected(7, &path), vec![0.0; 7]),
        // Degrees 0 and 1 only: no vertex has a defined coefficient.
        ("degree<2", undirected(5, &[(0, 1), (2, 3)]), vec![0.0; 5]),
        ("empty", undirected(0, &[]), vec![]),
    ] {
        assert_eq!(lcc(&csr), expect, "{name}");
        assert_eq!(bits(&lcc(&csr)), bits(&naive_lcc(&csr)), "{name}");
    }
    // One directed triangle holding a reciprocal pair and two one-way
    // arcs: each corner is credited with a different multiplicity.
    let mut b = GraphBuilder::new(true);
    b.add_vertex_range(3);
    for (s, d) in [(0, 1), (1, 0), (1, 2), (2, 0)] {
        b.add_edge(s, d);
    }
    let csr = b.build().unwrap().to_csr();
    assert_eq!(lcc(&csr), vec![0.5, 0.5, 1.0]);
    assert_eq!(bits(&lcc(&csr)), bits(&naive_lcc(&csr)));
}
