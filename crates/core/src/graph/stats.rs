//! Structural graph statistics.
//!
//! These drive three things: the dataset registry's *traits* (degree skew,
//! diameter estimates) used by the analytic performance model, the Datagen
//! evaluation of Figure 2 (average clustering coefficient), and the
//! memory/replication model of the stress-test experiment (Section 4.6).

use super::Csr;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub vertices: u64,
    pub edges: u64,
    pub max_degree: u64,
    pub mean_degree: f64,
    /// Degree skewness proxy: max degree / mean degree. Power-law graphs
    /// (Graph500) score orders of magnitude higher than Datagen graphs of
    /// the same scale — the property behind the paper's Table 10 finding.
    pub degree_skew: f64,
    /// Average local clustering coefficient over all vertices.
    pub avg_clustering_coefficient: f64,
    /// Number of weakly connected components.
    pub components: u64,
    /// Eccentricity of a BFS from the highest-degree vertex — a cheap
    /// diameter lower bound ("pseudo-diameter").
    pub pseudo_diameter: u64,
    /// Fraction of vertices reachable from the highest-degree vertex.
    pub reachable_fraction: f64,
}

impl GraphStats {
    /// Computes statistics for `csr`. Cost is `O(|V| + |E|)` plus the LCC
    /// triangle counting, so intended for generator-scale graphs, not for
    /// the billion-edge paper datasets (those use registry traits instead).
    pub fn compute(csr: &Csr) -> GraphStats {
        let n = csr.num_vertices();
        let m = csr.num_edges();
        let mut max_degree = 0u64;
        let mut hub = 0u32;
        for u in 0..n as u32 {
            let d = csr.union_degree(u) as u64;
            if d > max_degree {
                max_degree = d;
                hub = u;
            }
        }
        let mean_degree = if n == 0 { 0.0 } else { csr.num_arcs() as f64 / n as f64 };
        let degree_skew = if mean_degree > 0.0 { max_degree as f64 / mean_degree } else { 0.0 };

        let lcc = crate::algorithms::lcc::lcc(csr);
        let avg_cc = if n == 0 { 0.0 } else { lcc.iter().sum::<f64>() / n as f64 };

        let components = count_components(csr);
        let (pseudo_diameter, reached) = undirected_bfs_ecc(csr, hub);
        let reachable_fraction = if n == 0 { 0.0 } else { reached as f64 / n as f64 };

        GraphStats {
            vertices: n as u64,
            edges: m as u64,
            max_degree,
            mean_degree,
            degree_skew,
            avg_clustering_coefficient: avg_cc,
            components,
            pseudo_diameter,
            reachable_fraction,
        }
    }
}

/// Counts weakly connected components by repeated BFS over the union
/// neighbourhood.
fn count_components(csr: &Csr) -> u64 {
    let n = csr.num_vertices();
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut components = 0u64;
    for s in 0..n as u32 {
        if visited[s as usize] {
            continue;
        }
        components += 1;
        visited[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in neighbors_both(csr, u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    components
}

/// BFS eccentricity from `src` over the undirected view; returns
/// `(eccentricity, reached_count)`.
fn undirected_bfs_ecc(csr: &Csr, src: u32) -> (u64, u64) {
    let n = csr.num_vertices();
    if n == 0 {
        return (0, 0);
    }
    let mut dist = vec![u64::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    let mut ecc = 0u64;
    let mut reached = 1u64;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in neighbors_both(csr, u) {
            if dist[v as usize] == u64::MAX {
                dist[v as usize] = du + 1;
                ecc = ecc.max(du + 1);
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    (ecc, reached)
}

fn neighbors_both<'a>(csr: &'a Csr, u: u32) -> impl Iterator<Item = u32> + 'a {
    let inn: &[u32] = if csr.is_directed() { csr.in_neighbors(u) } else { &[] };
    csr.out_neighbors(u).iter().chain(inn.iter()).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn triangle_plus_isolated() -> Csr {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(4); // vertex 3 isolated
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build().unwrap().to_csr()
    }

    #[test]
    fn triangle_stats() {
        let s = GraphStats::compute(&triangle_plus_isolated());
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.components, 2);
        assert_eq!(s.pseudo_diameter, 1);
        assert!((s.avg_clustering_coefficient - 0.75).abs() < 1e-12); // 3×1.0 + 1×0.0 over 4
        assert!((s.reachable_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn directed_chain_counts_one_weak_component() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let s = GraphStats::compute(&b.build().unwrap().to_csr());
        assert_eq!(s.components, 1);
        // Hub is vertex 1; everything reachable within 1 hop in the
        // undirected view.
        assert_eq!(s.pseudo_diameter, 1);
        assert!((s.reachable_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_reflects_hubs() {
        // Star graph: hub degree n-1, mean degree ~2.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(50);
        for i in 1..50u64 {
            b.add_edge(0, i);
        }
        let s = GraphStats::compute(&b.build().unwrap().to_csr());
        assert!(s.degree_skew > 10.0);
    }
}
