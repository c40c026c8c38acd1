//! Community detection using label propagation (CDLP), reference
//! implementation.
//!
//! This is the algorithm of Raghavan et al. \[34\] modified to be parallel and
//! deterministic \[24\], exactly as prescribed by the benchmark:
//!
//! * labels are initialized to the vertex's own (sparse) id;
//! * updates are *synchronous* — iteration `i+1` sees only iteration `i`'s
//!   labels, making the algorithm order-independent and parallelizable;
//! * each vertex adopts the most frequent label among its neighbours, ties
//!   broken by the *smallest* label, which makes the result deterministic;
//! * a fixed number of iterations is performed (a benchmark parameter).
//!
//! On directed graphs each in-edge and each out-edge contributes one vote,
//! so a reciprocal pair (u,v),(v,u) counts twice, per the LDBC specification.

use crate::graph::{Csr, VertexId};

/// Runs `iterations` rounds of deterministic synchronous label propagation.
pub fn cdlp(csr: &Csr, iterations: u32) -> Vec<VertexId> {
    let n = csr.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut next = vec![0 as VertexId; n];
    let mut votes: Vec<VertexId> = Vec::new();
    for _ in 0..iterations {
        for u in 0..n as u32 {
            gather_labels(csr, u, &labels, &mut votes);
            next[u as usize] = mode_label(&mut votes).unwrap_or(labels[u as usize]);
        }
        std::mem::swap(&mut labels, &mut next);
    }
    labels
}

/// Refills `votes` with the label of every neighbour of `u`: one vote per
/// out-edge and, on directed graphs, one per in-edge. Returns the number
/// of adjacency entries read. `votes` is a reusable scratch buffer; its
/// previous contents are discarded.
#[inline]
pub fn gather_labels(csr: &Csr, u: u32, labels: &[VertexId], votes: &mut Vec<VertexId>) -> u64 {
    votes.clear();
    votes.extend(csr.out_neighbors(u).iter().map(|&v| labels[v as usize]));
    if csr.is_directed() {
        votes.extend(csr.in_neighbors(u).iter().map(|&v| labels[v as usize]));
    }
    votes.len() as u64
}

/// The most frequent label in `votes`, ties broken towards the smallest
/// label; `None` when there are no votes (the vertex keeps its own label).
/// Sorts `votes` in place and scans the runs, so no hash map is involved
/// and the result does not depend on the order the votes arrived in.
pub fn mode_label(votes: &mut [VertexId]) -> Option<VertexId> {
    votes.sort_unstable();
    let mut best: Option<(usize, VertexId)> = None;
    for run in votes.chunk_by(|a, b| a == b) {
        // Runs arrive in ascending label order: only a strictly longer
        // run displaces the current best, so ties keep the smallest.
        if best.is_none_or(|(len, _)| run.len() > len) {
            best = Some((run.len(), run[0]));
        }
    }
    best.map(|(_, label)| label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn two_cliques_converge_to_two_communities() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(8);
        // Clique {0..3}, clique {4..7}, single bridge 3-4.
        for i in 0..4u64 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
                b.add_edge(i + 4, j + 4);
            }
        }
        b.add_edge(3, 4);
        let csr = b.build().unwrap().to_csr();
        let labels = cdlp(&csr, 10);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn synchronous_single_iteration() {
        // Path 0-1-2. After one synchronous round each vertex takes the
        // smallest most-frequent *initial* neighbour label.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(cdlp(&csr, 1), vec![1, 0, 1]);
    }

    #[test]
    fn isolated_vertex_keeps_own_label() {
        let mut b = GraphBuilder::new(true);
        for v in [7u64, 9, 11] {
            b.add_vertex(v);
        }
        b.add_edge(7, 9);
        let csr = b.build().unwrap().to_csr();
        // 7 and 9 see only each other, so they swap labels every
        // synchronous round (three swaps here); 11 has no edges and
        // keeps its own label throughout.
        assert_eq!(cdlp(&csr, 3), vec![9, 7, 11]);
        assert_eq!(cdlp(&csr, 4), vec![7, 9, 11]);
    }

    #[test]
    fn tie_breaks_to_smallest_label() {
        assert_eq!(mode_label(&mut [5, 3, 9, 3, 5]), Some(3));
        // A strictly larger count beats a smaller label.
        assert_eq!(mode_label(&mut [7, 5, 7, 1]), Some(7));
        assert_eq!(mode_label(&mut [4, 4, 4]), Some(4));
        assert_eq!(mode_label(&mut []), None);
    }

    #[test]
    fn directed_counts_both_directions() {
        // 0 <-> 1 reciprocal, 2 -> 1 single. Labels init 0,1,2.
        // Vertex 1 sees: out {0}, in {0, 2} => label 0 twice, 2 once -> 0.
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 1);
        let csr = b.build().unwrap().to_csr();
        let labels = cdlp(&csr, 1);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[0], 1); // 0 sees only 1 (twice)
        assert_eq!(labels[2], 1); // 2 sees only 1
    }
}
