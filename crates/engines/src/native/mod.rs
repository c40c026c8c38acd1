//! The native engine: hand-optimized kernels (OpenG-like).
//!
//! "OpenG consists of handwritten implementations for many graph
//! algorithms" (Section 3.1). This engine has no framework at all — each
//! algorithm is a dedicated kernel over the CSR:
//!
//! * **BFS** — level-synchronous *queue-based* traversal: work is
//!   proportional to the vertices/edges actually reached, which is why
//!   OpenG wins BFS on R2 where only ~10% of the graph is reachable
//!   (Section 4.1) while iterative platforms pay for every vertex every
//!   superstep;
//! * **PageRank** — pull-based double-buffered iterations;
//! * **WCC** — union–find with path compression (single pass over edges);
//! * **CDLP** — synchronous propagation with per-thread vote buffers;
//! * **LCC** — degree-ordered adjacency intersections, no materialization
//!   (one of the two platforms that survive LCC in Figure 6);
//! * **SSSP** — binary-heap Dijkstra.
//!
//! Counters reflect the touched-work-only behaviour: `vertices_processed`
//! counts actual visits, `messages` stays 0 (shared memory).

use std::sync::Arc;

use graphalytics_core::algorithms::{cdlp, pagerank::into_shares, Request};
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::{Csr, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::common::pool::{SharedSlice, WorkerPool};
use crate::platform::{downcast_graph, LoadedGraph, Platform};
use crate::trace::IterTimer;

/// The uploaded representation: the bare CSR. OpenG's kernels operate on
/// the compressed adjacency directly — the upload phase is exactly the
/// in-memory CSR construction, with no framework state on top (which is
/// why OpenG posts the shortest load times in the paper's Table 8).
pub struct NativeGraph {
    csr: Arc<Csr>,
}

impl LoadedGraph for NativeGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The OpenG-like platform.
pub struct NativeEngine;

impl Platform for NativeEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn upload(&self, csr: Arc<Csr>, _pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        Ok(Box::new(NativeGraph { csr }))
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        counters: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let csr = downcast_graph::<NativeGraph>(self.name(), graph)?.csr();
        Ok(match request {
            Request::Bfs { root } => OutputValues::I64(queue_bfs(csr, root, counters)),
            Request::PageRank { iterations, damping } => {
                OutputValues::F64(pull_pagerank(csr, iterations, damping, pool, counters))
            }
            Request::Wcc => OutputValues::Id(union_find_wcc(csr, counters)),
            Request::Cdlp { iterations } => {
                OutputValues::Id(sync_cdlp(csr, iterations, pool, counters))
            }
            Request::Lcc => OutputValues::F64(intersect_lcc(csr, pool, counters)),
            Request::Sssp { root } => OutputValues::F64(dijkstra(csr, root, counters)),
        })
    }
}

/// Level-synchronous queue BFS: touches only reached vertices.
fn queue_bfs(csr: &Csr, root: u32, c: &mut WorkCounters) -> Vec<i64> {
    let n = csr.num_vertices();
    let mut depth = vec![i64::MAX; n];
    depth[root as usize] = 0;
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut level = 0i64;
    let mut it = IterTimer::new("Iteration", c);
    while !frontier.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active = frontier.len();
        c.supersteps += 1;
        c.vertices_processed += frontier.len() as u64;
        level += 1;
        for &u in &frontier {
            let out = csr.out_neighbors(u);
            c.edges_scanned += out.len() as u64;
            for &v in out {
                if depth[v as usize] == i64::MAX {
                    depth[v as usize] = level;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        it.lap(c, |s| s.with_info("active", active));
    }
    depth
}

/// Pull-based PageRank; bit-identical to the reference (same share pass,
/// same traversal order), parallel over vertex ranges on the shared pool
/// with allocation-free double buffering.
fn pull_pagerank(csr: &Csr, iterations: u32, damping: f64, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        // The reference's sequential share pass: per-range partials would
        // make the dangling sum depend on the pool width.
        let dangling = into_shares(&mut rank, (0..n as u32).map(|u| csr.out_degree(u)));
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let rank_ref = &rank;
        let edges: u64 = {
            let out = SharedSlice::new(next.as_mut_ptr());
            pool.run(n, |_, r| {
                let mut edges = 0u64;
                for v in r {
                    let mut sum = 0.0f64;
                    for &u in csr.in_neighbors(v as u32) {
                        sum += rank_ref[u as usize];
                    }
                    edges += csr.in_degree(v as u32) as u64;
                    // SAFETY: vertex ranges are disjoint.
                    unsafe { *out.at(v) = base + damping * sum };
                }
                edges
            })
            .into_iter()
            .sum()
        };
        c.edges_scanned += edges;
        std::mem::swap(&mut rank, &mut next);
        it.lap(c, |s| s.with_info("active", n));
    }
    rank
}

/// Union–find WCC with path compression; labels = min id per component.
fn union_find_wcc(csr: &Csr, c: &mut WorkCounters) -> Vec<VertexId> {
    let n = csr.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    fault::tick(FaultSite::Superstep);
    c.supersteps = 1;
    c.vertices_processed += n as u64;
    for u in 0..n as u32 {
        let out = csr.out_neighbors(u);
        c.edges_scanned += out.len() as u64;
        for &v in out {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                // Attach the larger dense index under the smaller: the
                // root stays the minimum index, hence the minimum id.
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|u| csr.id_of(find(&mut parent, u))).collect()
}

/// Synchronous CDLP identical to the reference semantics, parallel over
/// vertices with a per-worker vote buffer.
fn sync_cdlp(csr: &Csr, iterations: u32, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<VertexId> {
    type Tally = (u64, Vec<VertexId>);
    let n = csr.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let labels_ref = &labels;
        let (next, tallies) = crate::common::map_vertices(pool, n, |u, tally: &mut Tally| {
            let (edges, votes) = tally;
            *edges += cdlp::gather_labels(csr, u, labels_ref, votes);
            cdlp::mode_label(votes).unwrap_or(labels_ref[u as usize])
        });
        for (edges, _) in tallies {
            c.edges_scanned += edges;
            c.random_accesses += edges;
        }
        labels = next;
        it.lap(c, |s| s.with_info("active", n));
    }
    labels
}

/// LCC via forward-row intersections (streams; no materialization).
fn intersect_lcc(csr: &Csr, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    fault::tick(FaultSite::Superstep);
    c.supersteps = 1;
    c.vertices_processed += csr.num_vertices() as u64;
    let (values, compared) = crate::common::triangle_lcc(csr, pool);
    c.edges_scanned += compared;
    values
}

/// Binary-heap Dijkstra (the reference implementation's algorithm, with
/// work counting).
fn dijkstra(csr: &Csr, root: u32, c: &mut WorkCounters) -> Vec<f64> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct E(f64, u32);
    impl Eq for E {}
    impl Ord for E {
        fn cmp(&self, o: &Self) -> Ordering {
            o.0.total_cmp(&self.0).then_with(|| o.1.cmp(&self.1))
        }
    }
    impl PartialOrd for E {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    let n = csr.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[root as usize] = 0.0;
    heap.push(E(0.0, root));
    fault::tick(FaultSite::Superstep);
    c.supersteps = 1;
    while let Some(E(d, u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        c.vertices_processed += 1;
        let out = csr.out_neighbors(u);
        let weights = csr.out_weights(u);
        c.edges_scanned += out.len() as u64;
        for (&v, &w) in out.iter().zip(weights) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(E(nd, v));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::RunContext;
    use graphalytics_core::params::AlgorithmParams;
    use graphalytics_core::{Algorithm, GraphBuilder};

    fn sample() -> Csr {
        let mut b = GraphBuilder::new(false);
        b.set_weighted(true);
        b.add_vertex_range(6);
        for (s, d, w) in
            [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 3.0), (2, 3, 1.0), (4, 5, 2.0)]
        {
            b.add_weighted_edge(s, d, w);
        }
        b.build().unwrap().to_csr()
    }

    #[test]
    fn all_kernels_match_reference() {
        let csr = Arc::new(sample());
        let engine = NativeEngine;
        let params = AlgorithmParams::with_source(0);
        let pool = WorkerPool::new(2);
        let loaded = engine.upload(csr.clone(), &pool).unwrap();
        for alg in Algorithm::ALL {
            let mut ctx = RunContext::new(&pool);
            let run = engine.run(loaded.as_ref(), alg, &params, &mut ctx).unwrap();
            let expected =
                graphalytics_core::algorithms::run_reference(&csr, alg, &params).unwrap();
            graphalytics_core::validation::validate(&expected, &run.output)
                .unwrap()
                .into_result()
                .unwrap();
        }
        engine.delete(loaded);
    }

    #[test]
    fn bfs_touches_only_reachable_region() {
        // Component {0,1,2,3} reachable; {4,5} not.
        let csr = sample();
        let mut c = WorkCounters::new();
        let depths = queue_bfs(&csr, 0, &mut c);
        assert_eq!(depths[4], i64::MAX);
        assert_eq!(c.vertices_processed, 4, "only reached vertices processed");
        assert_eq!(c.messages, 0, "shared memory: no messages");
    }

    #[test]
    fn pagerank_deterministic_across_threads() {
        let csr = sample();
        let mut c1 = WorkCounters::new();
        let mut c2 = WorkCounters::new();
        let a = pull_pagerank(&csr, 10, 0.85, &WorkerPool::inline(), &mut c1);
        let b = pull_pagerank(&csr, 10, 0.85, &WorkerPool::new(4), &mut c2);
        assert_eq!(a, b, "pull PR is bit-identical across thread counts");
        assert_eq!(c1.edges_scanned, c2.edges_scanned);
    }

    #[test]
    fn pagerank_dangling_mass_is_width_invariant() {
        // A directed graph where every third vertex is dangling: the
        // redistributed mass must not depend on how the pool splits it.
        let n = 3000u64;
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(n);
        for v in (0..n).filter(|v| v % 3 != 0) {
            b.add_edge(v, (v * 7 + 1) % n);
            b.add_edge(v, (v * 13 + 5) % n);
        }
        let csr = b.build().unwrap().to_csr();
        let mut c = WorkCounters::new();
        let a = pull_pagerank(&csr, 10, 0.85, &WorkerPool::inline(), &mut c);
        for threads in [2, 3, 8] {
            let b = pull_pagerank(&csr, 10, 0.85, &WorkerPool::new(threads), &mut c);
            assert_eq!(a, b, "width {threads}");
        }
    }

    #[test]
    fn wcc_labels_are_minimum_ids() {
        let csr = sample();
        let mut c = WorkCounters::new();
        let labels = union_find_wcc(&csr, &mut c);
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 4]);
    }
}
