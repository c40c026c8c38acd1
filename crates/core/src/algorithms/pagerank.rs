//! PageRank reference implementation [Page et al., 1999].
//!
//! Runs a *fixed* number of synchronous iterations (the iteration count is a
//! benchmark parameter, Section 2.5 "algorithm parameters for each graph").
//! The rank of dangling vertices (out-degree 0) is redistributed uniformly
//! over all vertices each iteration, so total rank mass is conserved:
//!
//! ```text
//! PR(v) = (1-d)/|V| + d * ( Σ_{u -> v} PR(u)/outdeg(u)  +  dangling/|V| )
//! ```
//!
//! Undirected graphs treat each edge as two directed edges (so `outdeg` is
//! the full degree and ranks flow both ways).
//!
//! Each iteration divides once per vertex, not once per arc: one ascending
//! pass ([`into_shares`]) adds every dangling vertex's rank to `dangling`
//! and overwrites every other `rank[u]` in place with its share
//! `PR(u)/outdeg(u)`; the pull loop then sums the shares over each
//! in-row. A share is the very f64 quotient the per-arc form computes for
//! each of `u`'s arcs, and the sums add the same terms in the same (CSR)
//! order, so every output bit equals the per-arc form's. A dangling
//! vertex keeps its rank: it is no vertex's in-neighbour, so the pull
//! loop never reads it. The reference stays sequential; push–pull, native
//! and SpMV run the same share pass and parallelize only the pull loop.

use crate::graph::Csr;

/// Computes `iterations` rounds of PageRank with damping factor `damping`.
///
/// Vertices start at `1/|V|`. Output sums to 1 (within float error).
pub fn pagerank(csr: &Csr, iterations: u32, damping: f64) -> Vec<f64> {
    let n = csr.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        let dangling = into_shares(&mut rank, (0..n as u32).map(|u| csr.out_degree(u)));
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        for v in 0..n as u32 {
            let mut sum = 0.0f64;
            for &u in csr.in_neighbors(v) {
                sum += rank[u as usize];
            }
            next[v as usize] = base + damping * sum;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// The pass that opens every PageRank iteration: adds each dangling
/// vertex's rank to the returned dangling mass, in ascending vertex
/// order, and overwrites every other `rank[u]` in place with its share
/// `rank[u] / outdeg(u)`. `out_degrees` yields `outdeg(u)` for ascending
/// `u`. Engines that divide per vertex call this too, so their shares and
/// dangling sums are the reference's bit for bit.
pub fn into_shares(rank: &mut [f64], out_degrees: impl IntoIterator<Item = usize>) -> f64 {
    let mut dangling = 0.0f64;
    for (r, d) in rank.iter_mut().zip(out_degrees) {
        match d {
            0 => dangling += *r,
            d => *r /= d as f64,
        }
    }
    dangling
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn total(ranks: &[f64]) -> f64 {
        ranks.iter().sum()
    }

    #[test]
    fn mass_conservation_with_dangling() {
        // 0 -> 1, 1 has no out edges (dangling).
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        b.add_edge(0, 1);
        let csr = b.build().unwrap().to_csr();
        let r = pagerank(&csr, 20, 0.85);
        assert!((total(&r) - 1.0).abs() < 1e-12);
        assert!(r[1] > r[0], "sink should accumulate rank");
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        for i in 0..4u64 {
            b.add_edge(i, (i + 1) % 4);
        }
        let csr = b.build().unwrap().to_csr();
        let r = pagerank(&csr, 30, 0.85);
        for &x in &r {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn star_hub_has_highest_rank() {
        // Spokes all point at the hub.
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(5);
        for i in 1..5u64 {
            b.add_edge(i, 0);
        }
        let csr = b.build().unwrap().to_csr();
        let r = pagerank(&csr, 15, 0.85);
        for i in 1..5 {
            assert!(r[0] > r[i]);
        }
        assert!((total(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_iterations_returns_uniform() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(pagerank(&csr, 0, 0.85), vec![0.25; 4]);
    }

    #[test]
    fn undirected_degree_weighted() {
        // Path 0 - 1 - 2: middle vertex has degree 2.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let csr = b.build().unwrap().to_csr();
        let r = pagerank(&csr, 50, 0.85);
        assert!((total(&r) - 1.0).abs() < 1e-12);
        assert!(r[1] > r[0]);
        assert!((r[0] - r[2]).abs() < 1e-12, "ends are symmetric");
    }
}
