//! Louvain community detection.
//!
//! Not part of the benchmark workload: the paper uses the Louvain method to
//! *illustrate* the community structure of Datagen graphs generated with
//! different target clustering coefficients (Figure 2). We reproduce that
//! analysis, so we need the algorithm.
//!
//! This is the classic two-phase method (Blondel et al.): greedy local
//! moving to maximize modularity, then graph aggregation, repeated until
//! modularity stops improving. Directed graphs are treated as undirected
//! (reciprocal pairs accumulate weight 2).

use std::collections::HashMap;

use crate::graph::Csr;

/// Result of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community index (0-based, compacted) per dense vertex.
    pub community: Vec<u32>,
    /// Number of communities found.
    pub community_count: u32,
    /// Modularity of the final partition.
    pub modularity: f64,
    /// Number of aggregation levels performed.
    pub levels: u32,
}

/// Internal weighted undirected multigraph used across aggregation levels.
struct WGraph {
    /// Adjacency: for each node, (neighbor, weight); no self entries —
    /// self-loop weight kept separately.
    adj: Vec<Vec<(u32, f64)>>,
    self_loops: Vec<f64>,
    total_weight: f64, // m = sum of edge weights (each undirected edge once)
}

impl WGraph {
    fn from_csr(csr: &Csr) -> WGraph {
        let n = csr.num_vertices();
        let mut maps: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n];
        for u in 0..n as u32 {
            for &v in csr.out_neighbors(u) {
                if u == v {
                    continue;
                }
                *maps[u as usize].entry(v).or_insert(0.0) += 1.0;
                if csr.is_directed() {
                    *maps[v as usize].entry(u).or_insert(0.0) += 1.0;
                }
            }
        }
        let mut adj = Vec::with_capacity(n);
        let mut total = 0.0;
        for map in maps {
            let mut row: Vec<(u32, f64)> = map.into_iter().collect();
            row.sort_unstable_by_key(|&(v, _)| v);
            total += row.iter().map(|&(_, w)| w).sum::<f64>();
            adj.push(row);
        }
        WGraph { adj, self_loops: vec![0.0; n], total_weight: total / 2.0 }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.self_loops[u]
    }
}

/// One pass of greedy local moving. Returns (assignment, improved?).
fn local_moving(g: &WGraph) -> (Vec<u32>, bool) {
    let n = g.n();
    let m2 = 2.0 * g.total_weight;
    let mut community: Vec<u32> = (0..n as u32).collect();
    let degree: Vec<f64> = (0..n).map(|u| g.weighted_degree(u)).collect();
    // Sum of weighted degrees per community.
    let mut comm_tot: Vec<f64> = degree.clone();
    let mut improved_any = false;
    if m2 <= 0.0 {
        return (community, false);
    }
    let mut neigh_weights: HashMap<u32, f64> = HashMap::new();
    loop {
        let mut moves = 0usize;
        for u in 0..n {
            let cu = community[u];
            neigh_weights.clear();
            for &(v, w) in &g.adj[u] {
                *neigh_weights.entry(community[v as usize]).or_insert(0.0) += w;
            }
            // Remove u from its community.
            comm_tot[cu as usize] -= degree[u];
            let w_cu = neigh_weights.get(&cu).copied().unwrap_or(0.0);
            // Best gain; staying put has gain from w_cu.
            let mut best_c = cu;
            let mut best_gain = w_cu - comm_tot[cu as usize] * degree[u] / m2;
            // Deterministic iteration: sort candidate communities.
            let mut cands: Vec<(u32, f64)> = neigh_weights.iter().map(|(&c, &w)| (c, w)).collect();
            cands.sort_unstable_by_key(|&(c, _)| c);
            for (c, w) in cands {
                if c == cu {
                    continue;
                }
                let gain = w - comm_tot[c as usize] * degree[u] / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = c;
                }
            }
            comm_tot[best_c as usize] += degree[u];
            if best_c != cu {
                community[u] = best_c;
                moves += 1;
                improved_any = true;
            }
        }
        if moves == 0 {
            break;
        }
    }
    (community, improved_any)
}

/// Compacts community ids to `0..k` and returns `k`.
fn compact(community: &mut [u32]) -> u32 {
    let mut remap: HashMap<u32, u32> = HashMap::new();
    for c in community.iter_mut() {
        let next = remap.len() as u32;
        let id = *remap.entry(*c).or_insert(next);
        *c = id;
    }
    remap.len() as u32
}

/// Aggregates `g` by communities.
fn aggregate(g: &WGraph, community: &[u32], k: u32) -> WGraph {
    let mut maps: Vec<HashMap<u32, f64>> = vec![HashMap::new(); k as usize];
    let mut self_loops = vec![0.0f64; k as usize];
    for u in 0..g.n() {
        let cu = community[u];
        self_loops[cu as usize] += g.self_loops[u];
        for &(v, w) in &g.adj[u] {
            let cv = community[v as usize];
            if cu == cv {
                // Each intra-community edge visited twice (u->v and v->u).
                self_loops[cu as usize] += w / 2.0;
            } else {
                *maps[cu as usize].entry(cv).or_insert(0.0) += w;
            }
        }
    }
    let mut adj = Vec::with_capacity(k as usize);
    for map in maps {
        let mut row: Vec<(u32, f64)> = map.into_iter().collect();
        row.sort_unstable_by_key(|&(v, _)| v);
        adj.push(row);
    }
    WGraph { adj, self_loops, total_weight: g.total_weight }
}

/// Modularity of a partition of `g`.
fn modularity(g: &WGraph, community: &[u32], k: u32) -> f64 {
    let m = g.total_weight;
    if m <= 0.0 {
        return 0.0;
    }
    let mut intra = vec![0.0f64; k as usize];
    let mut tot = vec![0.0f64; k as usize];
    for u in 0..g.n() {
        let cu = community[u];
        tot[cu as usize] += g.weighted_degree(u);
        intra[cu as usize] += 2.0 * g.self_loops[u];
        for &(v, w) in &g.adj[u] {
            if community[v as usize] == cu {
                intra[cu as usize] += w;
            }
        }
    }
    (0..k as usize).map(|c| intra[c] / (2.0 * m) - (tot[c] / (2.0 * m)).powi(2)).sum()
}

/// Runs Louvain to convergence on the undirected view of `csr`.
pub fn louvain(csr: &Csr) -> LouvainResult {
    let n = csr.num_vertices();
    let mut g = WGraph::from_csr(csr);
    // membership[v] = current community of original vertex v.
    let mut membership: Vec<u32> = (0..n as u32).collect();
    let mut levels = 0u32;
    loop {
        let (mut community, improved) = local_moving(&g);
        let k = compact(&mut community);
        if !improved || k as usize == g.n() {
            let q = modularity(&g, &community, k);
            // Fold the last (identity-ish) level in.
            for m in membership.iter_mut() {
                *m = community[*m as usize];
            }
            let mut final_m = membership.clone();
            let kk = compact(&mut final_m);
            return LouvainResult {
                community: final_m,
                community_count: kk,
                modularity: q,
                levels,
            };
        }
        levels += 1;
        for m in membership.iter_mut() {
            *m = community[*m as usize];
        }
        g = aggregate(&g, &community, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn two_cliques(bridge: bool) -> Csr {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(10);
        for i in 0..5u64 {
            for j in (i + 1)..5 {
                b.add_edge(i, j);
                b.add_edge(i + 5, j + 5);
            }
        }
        if bridge {
            b.add_edge(4, 5);
        }
        b.build().unwrap().to_csr()
    }

    #[test]
    fn separates_two_cliques() {
        let r = louvain(&two_cliques(true));
        assert_eq!(r.community_count, 2);
        for i in 0..5 {
            assert_eq!(r.community[i], r.community[0]);
            assert_eq!(r.community[i + 5], r.community[5]);
        }
        assert_ne!(r.community[0], r.community[5]);
        assert!(r.modularity > 0.3, "modularity {} too low", r.modularity);
    }

    #[test]
    fn disconnected_cliques_high_modularity() {
        let r = louvain(&two_cliques(false));
        assert_eq!(r.community_count, 2);
        assert!(r.modularity > 0.45);
    }

    #[test]
    fn singleton_graph() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(3);
        let r = louvain(&b.build().unwrap().to_csr());
        assert_eq!(r.community_count, 3);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn ring_of_cliques_matches_clique_count() {
        // 4 cliques of 4 vertices, ring-connected: Louvain should find 4.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(16);
        for c in 0..4u64 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j);
                }
            }
            b.add_edge(base + 3, (base + 4) % 16);
        }
        let r = louvain(&b.build().unwrap().to_csr());
        assert_eq!(r.community_count, 4);
        assert!(r.modularity > 0.5);
    }

    #[test]
    fn directed_graph_treated_as_undirected() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 3);
        let r = louvain(&b.build().unwrap().to_csr());
        assert_eq!(r.community_count, 2);
    }
}
