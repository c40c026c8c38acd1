//! The SpMV engine: graph algorithms as generalized sparse matrix–vector
//! products (GraphMat-like).
//!
//! "GraphMat maps Pregel-like vertex programs to high-performance sparse
//! matrix operations" (Section 3.1). A vertex program becomes
//! `y = Aᵀ ⊗ x` over a user-defined *semiring*: `multiply` runs per edge
//! (non-zero), `add` combines partial products, `apply` folds the combined
//! value into the vertex state. Iterations alternate between **dense**
//! passes (pull over every row — PageRank) and **sparse** passes (push
//! from the active vector — BFS/SSSP frontiers), exactly GraphMat's
//! SPMV/SPMSPV split.
//!
//! Flat-array kernels with sequential access make this the fastest
//! single-machine engine, matching GraphMat's position in Figures 4–6.
//! Like all vector-iteration platforms it still processes the dense
//! vertex vector every iteration (`vertices_processed += |V|`), which is
//! why queue-based OpenG beats it on the barely-reachable R2 BFS.

use std::sync::Arc;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::{Csr, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::common::frontier::Frontier;
use crate::common::pool::WorkerPool;
use crate::platform::{downcast_graph, LoadedGraph, Platform};
use crate::trace::IterTimer;

/// A semiring-style kernel for one sparse iteration.
///
/// `multiply` produces a partial product from an edge and the source
/// value; `add` combines partials (must be commutative and associative so
/// sparse and dense schedules agree); `apply` integrates the combined
/// product into the vertex state, returning whether the vertex becomes
/// active.
pub trait SpmvKernel: Sync {
    type Partial: Copy + Send;
    fn multiply(&self, src_value: f64, weight: f64, src_out_degree: usize) -> Self::Partial;
    fn add(&self, a: Self::Partial, b: Self::Partial) -> Self::Partial;
    fn identity(&self) -> Self::Partial;
}

/// Min-plus semiring over `f64` (BFS hop counts, SSSP distances).
pub struct MinPlus;

impl SpmvKernel for MinPlus {
    type Partial = f64;
    fn multiply(&self, src_value: f64, weight: f64, _d: usize) -> f64 {
        src_value + weight
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
}

/// Plus-times semiring weighted by out-degree (PageRank).
pub struct RankSpread;

impl SpmvKernel for RankSpread {
    type Partial = f64;
    fn multiply(&self, src_value: f64, _weight: f64, d: usize) -> f64 {
        src_value / d as f64
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn identity(&self) -> f64 {
        0.0
    }
}

/// One *sparse* push iteration (SPMSPV): propagate from active vertices
/// along out-edges. Returns combined partial products per target.
/// Sequential by construction — sparse frontiers don't amortize thread
/// fan-out; GraphMat does the same below a density threshold.
pub fn spmspv<K: SpmvKernel>(
    csr: &Csr,
    kernel: &K,
    x: &[f64],
    frontier: &Frontier,
    c: &mut WorkCounters,
) -> Vec<(u32, K::Partial)> {
    let mut combined: std::collections::HashMap<u32, K::Partial> = std::collections::HashMap::new();
    for &u in frontier.members() {
        let out = csr.out_neighbors(u);
        let weights = csr.out_weights(u);
        c.edges_scanned += out.len() as u64;
        c.add_messages(out.len() as u64, 8);
        let d = out.len();
        for (&v, &w) in out.iter().zip(weights) {
            let p = kernel.multiply(x[u as usize], w, d);
            combined
                .entry(v)
                .and_modify(|acc| *acc = kernel.add(*acc, p))
                .or_insert(p);
        }
    }
    let mut result: Vec<(u32, K::Partial)> = combined.into_iter().collect();
    result.sort_unstable_by_key(|&(v, _)| v); // deterministic apply order
    result
}

/// One *dense* pull iteration (SPMV): for every vertex, combine over all
/// in-edges. Parallel over rows on the shared pool; deterministic because
/// each row folds its in-neighbours in CSR order. `out_degrees` is the
/// cached column-population vector the upload phase builds (see
/// [`SpmvGraph`]).
pub fn spmv_dense<K: SpmvKernel>(
    csr: &Csr,
    kernel: &K,
    x: &[f64],
    out_degrees: &[u32],
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Vec<K::Partial>
where
    K::Partial: Copy,
{
    let n = csr.num_vertices();
    c.vertices_processed += n as u64;
    let (result, tallies) = crate::common::map_vertices(pool, n, |v, edges: &mut u64| {
        let inn = csr.in_neighbors(v);
        let weights = csr.in_weights(v);
        *edges += inn.len() as u64;
        let mut acc = kernel.identity();
        for (&u, &w) in inn.iter().zip(weights) {
            acc = kernel
                .add(acc, kernel.multiply(x[u as usize], w, out_degrees[u as usize] as usize));
        }
        acc
    });
    for edges in tallies {
        c.edges_scanned += edges;
        c.add_messages(edges, 8);
    }
    result
}

/// The uploaded representation: GraphMat's preprocessed matrix view. The
/// upload phase pins the dual-direction CSR (the matrix and its
/// transpose) and derives the per-column out-degree vector once — the
/// column scaling GraphMat folds into `A` during its graph-ingestion
/// step — so dense pull iterations stop re-deriving row extents from the
/// offset array on every edge.
pub struct SpmvGraph {
    csr: Arc<Csr>,
    /// Per-vertex out-degree (matrix column population), built once.
    out_degrees: Box<[u32]>,
}

impl SpmvGraph {
    /// The cached out-degree (column population) of vertex `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        self.out_degrees[u as usize] as usize
    }

    /// The full cached degree vector.
    #[inline]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
}

impl LoadedGraph for SpmvGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        self.csr.resident_bytes() + 4 * self.out_degrees.len() as u64
    }
}

/// The GraphMat-like platform.
pub struct SpmvEngine;

impl Platform for SpmvEngine {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        let n = csr.num_vertices();
        let csr_ref = &csr;
        let degrees: Vec<u32> = pool
            .run(n, |_, range| {
                range.map(|u| csr_ref.out_degree(u as u32) as u32).collect::<Vec<u32>>()
            })
            .into_iter()
            .flatten()
            .collect();
        Ok(Box::new(SpmvGraph { csr, out_degrees: degrees.into() }))
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let loaded = downcast_graph::<SpmvGraph>(self.name(), graph)?;
        let csr = loaded.csr();
        Ok(match request {
            Request::Bfs { root } => OutputValues::I64(bfs(csr, root, c)),
            Request::PageRank { iterations, damping } => {
                OutputValues::F64(pagerank(loaded, iterations, damping, pool, c))
            }
            Request::Wcc => OutputValues::Id(wcc(csr, c)),
            Request::Cdlp { iterations } => OutputValues::Id(cdlp(csr, iterations, pool, c)),
            Request::Lcc => OutputValues::F64(lcc(csr, pool, c)),
            Request::Sssp { root } => OutputValues::F64(sssp(csr, root, c)),
        })
    }
}

/// BFS as iterated sparse min-plus products over a hop counter.
fn bfs(csr: &Csr, root: u32, c: &mut WorkCounters) -> Vec<i64> {
    let n = csr.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut frontier = Frontier::singleton(n, root);
    let kernel = MinPlus;
    let mut it = IterTimer::new("Iteration", c);
    while !frontier.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active = frontier.len();
        c.supersteps += 1;
        c.vertices_processed += n as u64; // dense vector pass per iteration
        // Hop counting: weight 1 per edge regardless of stored weights.
        let mut products: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &u in frontier.members() {
            let out = csr.out_neighbors(u);
            c.edges_scanned += out.len() as u64;
            c.add_messages(out.len() as u64, 8);
            for &v in out {
                let p = kernel.multiply(dist[u as usize], 1.0, out.len());
                products.entry(v).and_modify(|a| *a = kernel.add(*a, p)).or_insert(p);
            }
        }
        let mut sorted: Vec<(u32, f64)> = products.into_iter().collect();
        sorted.sort_unstable_by_key(|&(v, _)| v);
        let mut next = Frontier::new(n);
        for (v, p) in sorted {
            if p < dist[v as usize] {
                dist[v as usize] = p;
                next.insert(v);
            }
        }
        frontier = next;
        it.lap(c, |s| s.with_info("active", active));
    }
    dist.into_iter().map(|d| if d.is_finite() { d as i64 } else { i64::MAX }).collect()
}

/// PageRank as dense plus-times SPMV iterations with dangling mass,
/// reading the uploaded matrix view (cached column degrees).
fn pagerank(
    graph: &SpmvGraph,
    iterations: u32,
    damping: f64,
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Vec<f64> {
    let csr = graph.csr();
    let degrees = graph.out_degrees();
    let n = csr.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        let dangling: f64 =
            (0..n).filter(|&u| degrees[u] == 0).map(|u| rank[u]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let sums = spmv_dense(csr, &RankSpread, &rank, degrees, pool, c);
        rank = sums.into_iter().map(|s| base + damping * s).collect();
        it.lap(c, |s| s.with_info("active", n));
    }
    rank
}

/// WCC as iterated min-label SPMV until fixpoint.
fn wcc(csr: &Csr, c: &mut WorkCounters) -> Vec<VertexId> {
    let n = csr.num_vertices();
    // Work over dense indices; convert to min-id labels at the end.
    let mut label: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut it = IterTimer::new("Iteration", c);
    loop {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let mut changed = false;
        // Min over in- and out-neighbours (weak connectivity).
        let mut next = label.clone();
        for v in 0..n as u32 {
            let mut best = label[v as usize];
            let inn = csr.in_neighbors(v);
            let out = csr.out_neighbors(v);
            c.edges_scanned += (inn.len() + if csr.is_directed() { out.len() } else { 0 }) as u64;
            c.add_messages(inn.len() as u64, 8);
            for &u in inn {
                best = best.min(label[u as usize]);
            }
            if csr.is_directed() {
                for &u in out {
                    best = best.min(label[u as usize]);
                }
            }
            if best < next[v as usize] {
                next[v as usize] = best;
                changed = true;
            }
        }
        label = next;
        it.lap(c, |s| s.with_info("active", n));
        if !changed {
            break;
        }
    }
    label.into_iter().map(|l| csr.id_of(l as u32)).collect()
}

/// CDLP: generalized reduce (multiset mode) per row — GraphMat-style
/// "vertex program mapped onto a matrix pass". The per-worker tally
/// carries a reusable vote buffer so rows never reallocate.
fn cdlp(csr: &Csr, iterations: u32, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<VertexId> {
    use graphalytics_core::algorithms::cdlp::{gather_labels, mode_label};
    type Tally = (u64, Vec<VertexId>);
    let n = csr.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let labels_ref = &labels;
        let (next, tallies) = crate::common::map_vertices(pool, n, |v, tally: &mut Tally| {
            let (edges, votes) = tally;
            *edges += gather_labels(csr, v, labels_ref, votes);
            mode_label(votes).unwrap_or(labels_ref[v as usize])
        });
        for (edges, _) in tallies {
            c.edges_scanned += edges;
            c.random_accesses += edges; // sparse-accumulator probes
            c.add_messages(edges, 8);
        }
        labels = next;
        it.lap(c, |s| s.with_info("active", n));
    }
    labels
}

/// LCC as masked sparse-matrix products (triangle counting). The masked
/// product is the shared triangle kernel; its SpGEMM non-zeros are
/// modelled per (row, neighbour) pair as the shorter of the two operands.
fn lcc(csr: &Csr, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut it = IterTimer::new("Iteration", c);
    fault::tick(FaultSite::Superstep);
    c.supersteps += 1;
    c.vertices_processed += n as u64;
    let (values, compared) = crate::common::triangle_lcc(csr, pool);
    c.edges_scanned += compared;
    let (_, products) = crate::common::map_vertices(pool, n, |v, products: &mut u64| {
        let d = csr.union_degree(v);
        if d >= 2 {
            csr.for_each_union_neighbor(v, |u, _| *products += csr.out_degree(u).min(d) as u64);
        }
    });
    c.add_messages(products.into_iter().sum(), 12);
    it.lap(c, |s| s.with_info("active", n));
    values
}

/// SSSP as sparse min-plus relaxation (Bellman–Ford with an active set).
fn sssp(csr: &Csr, root: u32, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut frontier = Frontier::singleton(n, root);
    let mut it = IterTimer::new("Iteration", c);
    while !frontier.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active = frontier.len();
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let products = spmspv(csr, &MinPlus, &dist, &frontier, c);
        let mut next = Frontier::new(n);
        for (v, p) in products {
            if p < dist[v as usize] {
                dist[v as usize] = p;
                next.insert(v);
            }
        }
        frontier = next;
        it.lap(c, |s| s.with_info("active", active));
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
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(5);
        for (s, d, w) in [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 3.0), (2, 3, 1.0), (3, 1, 1.0)] {
            b.add_weighted_edge(s, d, w);
        }
        b.build().unwrap().to_csr()
    }

    #[test]
    fn all_algorithms_match_reference() {
        // One upload serves every algorithm (the lifecycle contract).
        let csr = Arc::new(sample());
        let engine = SpmvEngine;
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
    fn dense_passes_touch_all_vertices() {
        let csr = sample();
        let mut c = WorkCounters::new();
        let _ = bfs(&csr, 0, &mut c);
        // Every BFS iteration pays the dense vector pass.
        assert_eq!(c.vertices_processed, 5 * c.supersteps);
        assert!(c.messages > 0);
    }

    #[test]
    fn semiring_properties() {
        let k = MinPlus;
        assert_eq!(k.add(3.0, 5.0), 3.0);
        assert_eq!(k.add(k.identity(), 2.0), 2.0);
        let r = RankSpread;
        assert_eq!(r.multiply(1.0, 0.0, 4), 0.25);
        assert_eq!(r.add(r.identity(), 2.0), 2.0);
    }
}
