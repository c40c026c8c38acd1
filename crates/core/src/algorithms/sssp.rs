//! Single-source shortest paths (SSSP) reference implementation.
//!
//! Dijkstra's algorithm over non-negative double-precision edge weights,
//! following outgoing edges. Unreachable vertices get `f64::INFINITY`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::Csr;

/// Distance assigned to unreachable vertices.
pub const UNREACHABLE: f64 = f64::INFINITY;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; ties broken by vertex for determinism.
        other.dist.total_cmp(&self.dist).then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes shortest-path distances from dense index `root`.
pub fn sssp(csr: &Csr, root: u32) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut heap = BinaryHeap::new();
    dist[root as usize] = 0.0;
    heap.push(HeapEntry { dist: 0.0, vertex: root });
    while let Some(HeapEntry { dist: d, vertex: u }) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        let targets = csr.out_neighbors(u);
        let weights = csr.out_weights(u);
        for (&v, &w) in targets.iter().zip(weights) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(HeapEntry { dist: nd, vertex: v });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn prefers_cheaper_longer_path() {
        // 0 ->(5) 2 and 0 ->(1) 1 ->(1) 2.
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(3);
        b.add_weighted_edge(0, 2, 5.0);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 1.0);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(sssp(&csr, 0), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn unreachable_is_infinity() {
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(3);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 0, 1.0);
        let csr = b.build().unwrap().to_csr();
        let d = sssp(&csr, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn undirected_weights_flow_both_ways() {
        let mut b = GraphBuilder::new(false);
        b.set_weighted(true);
        b.add_vertex_range(3);
        b.add_weighted_edge(2, 1, 0.5);
        b.add_weighted_edge(1, 0, 0.25);
        let csr = b.build().unwrap().to_csr();
        let d = sssp(&csr, 2);
        assert_eq!(d, vec![0.75, 0.5, 0.0]);
    }

    #[test]
    fn zero_weight_edges_allowed() {
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(2);
        b.add_weighted_edge(0, 1, 0.0);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(sssp(&csr, 0), vec![0.0, 0.0]);
    }

    #[test]
    fn dense_random_graph_matches_bellman_ford() {
        // Cross-check Dijkstra against a naive Bellman–Ford on a small
        // deterministic graph.
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(8);
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed
        };
        let mut edges = std::collections::HashSet::new();
        for _ in 0..24 {
            let s = next() % 8;
            let d = next() % 8;
            if s != d && edges.insert((s, d)) {
                b.add_weighted_edge(s, d, (next() % 100) as f64 / 10.0);
            }
        }
        let g = b.build().unwrap();
        let csr = g.to_csr();
        let dij = sssp(&csr, 0);

        let mut bf = [UNREACHABLE; 8];
        bf[0] = 0.0;
        for _ in 0..8 {
            for e in g.edges() {
                let (s, d) = (e.src as usize, e.dst as usize);
                if bf[s] + e.weight < bf[d] {
                    bf[d] = bf[s] + e.weight;
                }
            }
        }
        for i in 0..8 {
            if bf[i].is_infinite() {
                assert!(dij[i].is_infinite());
            } else {
                assert!((dij[i] - bf[i]).abs() < 1e-9);
            }
        }
    }
}
