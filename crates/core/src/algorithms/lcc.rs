//! Local clustering coefficient (LCC) reference implementation.
//!
//! For each vertex `v`, the ratio between the number of edges among `v`'s
//! neighbours and the maximum possible number of such edges:
//!
//! ```text
//! N(v)   = { u : (v,u) ∈ E or (u,v) ∈ E }          (self excluded)
//! lcc(v) = |{(u,w) : u,w ∈ N(v), u≠w, (u,w) ∈ E}| / (|N(v)|·(|N(v)|-1))
//! ```
//!
//! Directed edges in the numerator are counted per direction; an undirected
//! graph behaves as if each edge were a reciprocal directed pair, which
//! yields the familiar `triangles / (d choose 2)` form. Vertices with fewer
//! than two neighbours have LCC 0.
//!
//! # Method
//!
//! The numerator is a sum over triangles of the *union* graph (`u ~ w`
//! when an arc runs either way): every triangle `{v, u, w}` adds to
//! `v`'s count the number of arcs between `u` and `w` — 1, or 2 for a
//! reciprocal pair or an undirected edge. So instead of intersecting
//! `N(v)` with every neighbour's row (`Σ d²` comparisons, which a few hubs
//! dominate on skewed graphs), [`ForwardView`] orients each union edge
//! from its lower to its higher `(|N|, index)` endpoint and
//! [`ForwardView::count_links`] lists each triangle once, at its
//! lowest-ranked corner `a`, by intersecting the forward rows of `a` and
//! of each forward neighbour `b`. A match `c` credits `a` with the arcs
//! of `{b, c}`, `b` with those of `{a, c}` and `c` with those of
//! `{a, b}`. Forward rows hold at most `O(√|E|)` entries, so hubs cost
//! no more than anyone else. The counts are integers and feed the same
//! `links / (d·(d−1))` expression as the definition, so the output is
//! bit-identical to evaluating the definition directly, which is what
//! the oracle in `tests/label_triangle_kernels.rs` does.
//!
//! The paper calls LCC "by far the most demanding" algorithm (Section
//! 4.2); the engines that model *why* — Pregel and dataflow shipping
//! whole neighbour lists — keep that structure and share only
//! [`intersect_count`] with this module.

use std::ops::Range;

use crate::graph::Csr;

/// Computes the local clustering coefficient of every vertex.
pub fn lcc(csr: &Csr) -> Vec<f64> {
    let view = ForwardView::new(csr);
    let n = view.num_vertices();
    let mut links = vec![0u64; n];
    view.count_links(0..n, &mut links);
    view.coefficients(&links)
}

/// Count of elements common to two sorted, duplicate-free slices.
pub fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Less => i += 1,
            Greater => j += 1,
            Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// The union graph oriented by degree: per vertex, the neighbours of
/// higher `(|N|, index)` rank in ascending index order, each with the
/// number of arcs (1 or 2) the union edge stands for. Built once per LCC
/// run in `O(|V| + |E|)`; never larger than the CSR it is cut from.
pub struct ForwardView {
    /// `|N(v)|`, the denominator's `d`.
    degree: Vec<u32>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Arc multiplicity parallel to `targets`.
    arcs: Vec<u8>,
}

impl ForwardView {
    pub fn new(csr: &Csr) -> ForwardView {
        let n = csr.num_vertices();
        let degree: Vec<u32> = (0..n as u32).map(|v| csr.union_degree(v) as u32).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(csr.num_edges());
        let mut arcs = Vec::with_capacity(csr.num_edges());
        offsets.push(0);
        for a in 0..n as u32 {
            let rank = (degree[a as usize], a);
            csr.for_each_union_neighbor(a, |b, multiplicity| {
                if (degree[b as usize], b) > rank {
                    targets.push(b);
                    arcs.push(multiplicity);
                }
            });
            offsets.push(targets.len());
        }
        ForwardView { degree, offsets, targets, arcs }
    }

    pub fn num_vertices(&self) -> usize {
        self.degree.len()
    }

    #[inline]
    fn row(&self, v: usize) -> (&[u32], &[u8]) {
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        (&self.targets[lo..hi], &self.arcs[lo..hi])
    }

    /// Lists every triangle whose lowest-ranked corner lies in `corners`
    /// and adds each corner's share to `links` (one slot per vertex; the
    /// other two corners usually lie outside `corners`). Disjoint ranges
    /// list disjoint triangles, so per-range accumulators add up to the
    /// whole. Returns the number of adjacency elements compared.
    pub fn count_links(&self, corners: Range<usize>, links: &mut [u64]) -> u64 {
        let mut compared = 0u64;
        for a in corners {
            let (row_a, arcs_a) = self.row(a);
            let mut links_a = 0u64;
            for (&b, &arcs_ab) in row_a.iter().zip(arcs_a) {
                let (row_b, arcs_b) = self.row(b as usize);
                let mut links_b = 0u64;
                let (mut i, mut j) = (0usize, 0usize);
                while i < row_a.len() && j < row_b.len() {
                    let (x, y) = (row_a[i], row_b[j]);
                    if x == y {
                        links_a += arcs_b[j] as u64;
                        links_b += arcs_a[i] as u64;
                        links[x as usize] += arcs_ab as u64;
                    }
                    i += (x <= y) as usize;
                    j += (y <= x) as usize;
                }
                links[b as usize] += links_b;
                compared += (i + j) as u64;
            }
            links[a] += links_a;
        }
        compared
    }

    /// Turns link counts into coefficients: `links / (d·(d−1))`, 0 below
    /// two neighbours.
    pub fn coefficients(&self, links: &[u64]) -> Vec<f64> {
        links
            .iter()
            .zip(&self.degree)
            .map(|(&links, &d)| {
                if d < 2 {
                    return 0.0;
                }
                links as f64 / (d as f64 * (d as f64 - 1.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn intersect_count_counts_common_elements() {
        assert_eq!(intersect_count(&[1, 3, 5, 9], &[0, 3, 4, 5, 10]), 2);
        assert_eq!(intersect_count(&[], &[1, 2]), 0);
        assert_eq!(intersect_count(&[7], &[7]), 1);
    }

    #[test]
    fn undirected_triangle_is_one() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(lcc(&csr), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn undirected_path_is_zero() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(lcc(&csr), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn half_open_square() {
        // Square 0-1-2-3 plus diagonal 0-2.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        b.add_edge(0, 2);
        let csr = b.build().unwrap().to_csr();
        let v = lcc(&csr);
        // Vertices 1 and 3 have neighbours {0,2} which are connected: 1.0.
        assert_eq!(v[1], 1.0);
        assert_eq!(v[3], 1.0);
        // Vertices 0 and 2 have 3 neighbours with 2 undirected edges among
        // them (1-2 and 2-3 for vertex 0): 4 directed links / (3·2) = 2/3.
        assert!((v[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((v[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn directed_counts_per_direction() {
        // v=0 with neighbours 1, 2; only 1 -> 2 exists (not 2 -> 1).
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let csr = b.build().unwrap().to_csr();
        let v = lcc(&csr);
        // d(0)=2, one directed link among neighbours: 1/(2·1) = 0.5.
        assert!((v[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reciprocal_directed_pair_counts_twice() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        let csr = b.build().unwrap().to_csr();
        let v = lcc(&csr);
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_below_two_is_zero() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(2);
        b.add_edge(0, 1);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(lcc(&csr), vec![0.0, 0.0]);
    }
}
