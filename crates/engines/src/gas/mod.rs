//! The GAS engine: Gather–Apply–Scatter with vertex cuts
//! (PowerGraph-like).
//!
//! "PowerGraph is designed for real-world graphs which have a skewed
//! power-law degree distribution \[and\] uses a programming model known as
//! Gather-Apply-Scatter" (Section 3.1). A [`GasProgram`] defines:
//!
//! * **gather** — a commutative/associative fold over a vertex's
//!   gather-direction edges, reading neighbour state (edge-parallel, so
//!   hub vertices split across machines under a vertex cut);
//! * **apply** — integrate the gathered total into the vertex value;
//! * **scatter** — activate scatter-direction neighbours when the value
//!   changed.
//!
//! Iterations are synchronous (gather reads the previous iteration's
//! values), matching the deterministic benchmark semantics. Gather
//! contributions are counted as messages: in distributed mode they are
//! exactly the mirror→master synchronizations whose volume the vertex-cut
//! replication factor governs.
//!
//! LCC is the model's showcase: gather streams neighbour-set
//! intersections without ever materializing message lists, which is why
//! PowerGraph (with OpenG) is one of only two platforms that complete LCC
//! in the paper's Figure 6.

use std::sync::Arc;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::Csr;

use graphalytics_cluster::WorkCounters;

use crate::common::frontier::Frontier;
use crate::common::pool::WorkerPool;
use crate::platform::{downcast_graph, LoadedGraph, Platform};
use crate::trace::IterTimer;

/// Which incident edges a stage visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSet {
    In,
    Out,
    /// In and out (undirected graphs use the single adjacency once).
    Both,
    None,
}

/// A synchronous GAS vertex program.
pub trait GasProgram: Sync {
    type Value: Clone + Send + Sync;
    type Gather: Clone + Send;

    fn init(&self, u: u32, csr: &Csr) -> Self::Value;

    /// Vertices active in the first iteration (`None` = all).
    fn initial_active(&self, csr: &Csr) -> Option<Vec<u32>>;

    fn gather_edges(&self) -> EdgeSet;

    /// Identity of the gather monoid.
    fn gather_identity(&self) -> Self::Gather;

    /// Folds the contribution of neighbour `nbr` (with `weight` on the
    /// connecting edge) into `u`'s running gather `total`. The fold must
    /// be commutative + associative (a monoid with
    /// [`GasProgram::gather_identity`]); folding in place keeps
    /// multiset-valued gathers (CDLP) allocation-free per edge.
    fn gather(
        &self,
        total: &mut Self::Gather,
        u: u32,
        nbr: u32,
        weight: f64,
        nbr_value: &Self::Value,
        csr: &Csr,
    );

    /// Integrates the gather total; `aux` is the engine-computed global
    /// auxiliary (PageRank's dangling mass). Returns true when the value
    /// changed (triggering scatter). `total` is the worker's accumulator,
    /// reset to the identity before the next vertex; apply may consume or
    /// reorder it.
    fn apply(
        &self,
        u: u32,
        value: &Self::Value,
        total: &mut Self::Gather,
        aux: f64,
    ) -> (Self::Value, bool);

    fn scatter_edges(&self) -> EdgeSet;

    /// Run exactly this many iterations with all vertices active
    /// (PageRank/CDLP); `None` = run until the active set drains.
    fn fixed_iterations(&self) -> Option<u32> {
        None
    }

    /// Global auxiliary computed before each iteration from all values.
    fn compute_aux(&self, _values: &[Self::Value], _csr: &Csr) -> f64 {
        0.0
    }

    /// Serialized gather-contribution size (mirror sync bytes).
    fn gather_bytes(&self) -> u64 {
        8
    }

    /// Random memory accesses per gather contribution (hash-probe style);
    /// CDLP's multiset merging pays one per edge.
    fn random_accesses_per_contribution(&self) -> u64 {
        0
    }
}

/// Runs a [`GasProgram`] to completion on the shared pool.
pub fn run_gas<P: GasProgram>(
    csr: &Csr,
    program: &P,
    pool: &WorkerPool,
    counters: &mut WorkCounters,
) -> Vec<P::Value> {
    let n = csr.num_vertices();
    let mut values: Vec<P::Value> = (0..n as u32).map(|u| program.init(u, csr)).collect();
    let mut active = Frontier::new(n);
    match program.initial_active(csr) {
        Some(list) => {
            for v in list {
                active.insert(v);
            }
        }
        None => {
            for v in 0..n as u32 {
                active.insert(v);
            }
        }
    }
    let fixed = program.fixed_iterations();
    let mut iteration = 0u32;
    let mut it = IterTimer::new("Superstep", counters);
    loop {
        fault::tick(FaultSite::Superstep);
        if let Some(k) = fixed {
            if iteration >= k {
                break;
            }
            // Fixed-iteration programs keep everything active.
            active.clear();
            for v in 0..n as u32 {
                active.insert(v);
            }
        } else if active.is_empty() {
            break;
        }
        let active_count = active.len();
        counters.supersteps += 1;
        counters.vertices_processed += active.len() as u64;
        let aux = program.compute_aux(&values, csr);

        active.sort();
        let members = active.members();
        let values_ref = &values;
        // Gather + apply in parallel over the active set (synchronous:
        // gathers read `values_ref`, the previous iteration's state).
        let parts = pool.run(members.len(), |_, range| {
            let mut updates: Vec<(u32, P::Value, bool)> = Vec::with_capacity(range.len());
            let mut edges = 0u64;
            let mut contributions = 0u64;
            // One accumulator per worker: `clone_from` keeps a
            // multiset-valued gather's buffer across vertices.
            let identity = program.gather_identity();
            let mut total = identity.clone();
            for i in range {
                let u = members[i];
                total.clone_from(&identity);
                let fold = |nbr: u32, w: f64, total: &mut P::Gather| {
                    program.gather(total, u, nbr, w, &values_ref[nbr as usize], csr);
                };
                match program.gather_edges() {
                    EdgeSet::In => {
                        let inn = csr.in_neighbors(u);
                        let ws = csr.in_weights(u);
                        edges += inn.len() as u64;
                        contributions += inn.len() as u64;
                        for (&nbr, &w) in inn.iter().zip(ws) {
                            fold(nbr, w, &mut total);
                        }
                    }
                    EdgeSet::Out => {
                        let out = csr.out_neighbors(u);
                        let ws = csr.out_weights(u);
                        edges += out.len() as u64;
                        contributions += out.len() as u64;
                        for (&nbr, &w) in out.iter().zip(ws) {
                            fold(nbr, w, &mut total);
                        }
                    }
                    EdgeSet::Both => {
                        let out = csr.out_neighbors(u);
                        let ws = csr.out_weights(u);
                        edges += out.len() as u64;
                        contributions += out.len() as u64;
                        for (&nbr, &w) in out.iter().zip(ws) {
                            fold(nbr, w, &mut total);
                        }
                        if csr.is_directed() {
                            let inn = csr.in_neighbors(u);
                            let ws = csr.in_weights(u);
                            edges += inn.len() as u64;
                            contributions += inn.len() as u64;
                            for (&nbr, &w) in inn.iter().zip(ws) {
                                fold(nbr, w, &mut total);
                            }
                        }
                    }
                    EdgeSet::None => {}
                }
                let (new_value, changed) =
                    program.apply(u, &values_ref[u as usize], &mut total, aux);
                updates.push((u, new_value, changed));
            }
            (updates, edges, contributions)
        });

        // Apply updates and scatter activations (sequential barrier).
        let mut next_active = Frontier::new(n);
        for (updates, edges, contributions) in parts {
            counters.edges_scanned += edges;
            counters.random_accesses += contributions * program.random_accesses_per_contribution();
            counters.add_messages(contributions, program.gather_bytes());
            for (u, new_value, changed) in updates {
                values[u as usize] = new_value;
                if changed && fixed.is_none() {
                    match program.scatter_edges() {
                        EdgeSet::Out => {
                            counters.edges_scanned += csr.out_degree(u) as u64;
                            for &v in csr.out_neighbors(u) {
                                next_active.insert(v);
                            }
                        }
                        EdgeSet::In => {
                            counters.edges_scanned += csr.in_degree(u) as u64;
                            for &v in csr.in_neighbors(u) {
                                next_active.insert(v);
                            }
                        }
                        EdgeSet::Both => {
                            counters.edges_scanned += csr.out_degree(u) as u64;
                            for &v in csr.out_neighbors(u) {
                                next_active.insert(v);
                            }
                            if csr.is_directed() {
                                counters.edges_scanned += csr.in_degree(u) as u64;
                                for &v in csr.in_neighbors(u) {
                                    next_active.insert(v);
                                }
                            }
                        }
                        EdgeSet::None => {}
                    }
                }
            }
        }
        active = next_active;
        iteration += 1;
        it.lap(counters, |s| s.with_info("active", active_count));
    }
    values
}

mod programs;
pub use programs::{BfsGas, CdlpGas, PageRankGas, SsspGas, WccGas};

/// The uploaded representation: PowerGraph's finalized graph. The upload
/// phase (PowerGraph's "finalize" step) pins the adjacency both ways —
/// gather and scatter each visit a configurable edge direction — and the
/// vertex-cut mirror/master structure is *simulated*: its replication
/// factor enters through the cost model, not through real per-machine
/// state, so the loaded graph carries no extra derived data.
pub struct GasGraph {
    csr: Arc<Csr>,
}

impl LoadedGraph for GasGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The PowerGraph-like platform.
pub struct GasEngine;

impl Platform for GasEngine {
    fn name(&self) -> &'static str {
        "gas"
    }

    fn upload(&self, csr: Arc<Csr>, _pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        Ok(Box::new(GasGraph { csr }))
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let csr = downcast_graph::<GasGraph>(self.name(), graph)?.csr();
        Ok(match request {
            Request::Bfs { root } => OutputValues::I64(run_gas(csr, &BfsGas { root }, pool, c)),
            Request::PageRank { iterations, damping } => OutputValues::F64(run_gas(
                csr,
                &PageRankGas { iterations, damping, n: csr.num_vertices() as f64 },
                pool,
                c,
            )),
            Request::Wcc => OutputValues::Id(run_gas(csr, &WccGas, pool, c)),
            Request::Cdlp { iterations } => {
                OutputValues::Id(run_gas(csr, &CdlpGas { iterations }, pool, c))
            }
            Request::Lcc => OutputValues::F64(streamed_lcc(csr, pool, c)),
            Request::Sssp { root } => OutputValues::F64(run_gas(csr, &SsspGas { root }, pool, c)),
        })
    }
}

/// LCC as a streaming gather: fold neighbour-set intersections (the
/// shared triangle kernel) without materializing lists. Every vertex
/// with a defined coefficient gathers one contribution per neighbour.
fn streamed_lcc(csr: &Csr, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut it = IterTimer::new("Superstep", c);
    fault::tick(FaultSite::Superstep);
    c.supersteps += 1;
    c.vertices_processed += n as u64;
    let (values, compared) = crate::common::triangle_lcc(csr, pool);
    c.edges_scanned += compared;
    let contributions: u64 =
        (0..n as u32).map(|v| csr.union_degree(v) as u64).filter(|&d| d >= 2).sum();
    c.add_messages(contributions, 8);
    it.lap(c, |s| s.with_info("active", n));
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::RunContext;
    use graphalytics_core::params::AlgorithmParams;
    use graphalytics_core::{Algorithm, GraphBuilder};

    fn sample(directed: bool) -> Csr {
        let mut b = GraphBuilder::new(directed);
        b.set_weighted(true);
        b.add_vertex_range(6);
        for (s, d, w) in
            [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 3.0), (2, 3, 1.0), (3, 4, 2.0), (1, 4, 9.0)]
        {
            b.add_weighted_edge(s, d, w);
        }
        b.build().unwrap().to_csr()
    }

    #[test]
    fn all_algorithms_match_reference_directed_and_undirected() {
        for directed in [true, false] {
            let csr = Arc::new(sample(directed));
            let engine = GasEngine;
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
    }


    #[test]
    fn active_set_drains_for_traversals() {
        let csr = sample(true);
        let mut c = WorkCounters::new();
        let _ = run_gas(&csr, &BfsGas { root: 0 }, &WorkerPool::inline(), &mut c);
        // Active-set processing: far fewer vertex activations than
        // |V| × supersteps.
        assert!(c.vertices_processed < 6 * c.supersteps);
        assert!(c.messages > 0, "gather contributions are counted");
    }
}
