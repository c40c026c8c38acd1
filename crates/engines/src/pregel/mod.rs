//! The Pregel engine: BSP vertex-centric message passing (Giraph-like).
//!
//! "Apache Giraph uses an iterative vertex-centric programming model
//! similarly to Google's Pregel" (Section 3.1). The framework here is a
//! faithful BSP core:
//!
//! * a **vertex program** ([`VertexProgram`]) computes per vertex, reads
//!   the messages addressed to it in the previous superstep, mutates its
//!   value, and sends messages for the next superstep;
//! * **supersteps** are global synchronous barriers;
//! * a vertex *votes to halt* by returning `false`; it is re-activated by
//!   incoming messages; execution ends when no vertex is active and no
//!   messages are in flight (or the program's superstep cap is reached);
//! * a global **sum aggregator** is available with Pregel semantics (values
//!   contributed in superstep `s` are visible in `s+1`) — PageRank uses it
//!   for dangling-vertex mass.
//!
//! Authentic cost behaviour: the worker loop *iterates every vertex each
//! superstep* to test activity (as Giraph's partition store does), so
//! `vertices_processed` grows by `|V|` per superstep even when the frontier
//! is tiny — one of the structural reasons queue-based native code beats
//! Pregel systems on low-coverage BFS (the paper's R2 observation).

mod programs;
mod sharded;

use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::{AlgorithmOutput, OutputValues};
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::{Algorithm, Csr};

use graphalytics_cluster::WorkCounters;

use crate::common::pool::{SharedSlice, WorkerPool};
use crate::platform::{Execution, LoadedGraph, Platform, RunContext};
use crate::profile::PerfProfile;
use crate::sharded::{ShardPlan, ShardSet};
use crate::trace::IterTimer;

pub use programs::{BfsProgram, CdlpProgram, LccMessage, LccProgram, PageRankProgram, SsspProgram, WccProgram};
pub use sharded::{run_pregel_sharded, PregelShardedGraph};

/// Per-compute-call context: outgoing messages, counters, aggregation.
pub struct ComputeCtx<M> {
    outbox: Vec<(u32, M)>,
    /// Per-message payload sizes parallel to `outbox`; only tracked by
    /// the sharded runtime (which needs per-message bytes to account
    /// inter-shard traffic). `None` keeps the single-shard send path
    /// allocation-free.
    sizes: Option<Vec<u64>>,
    /// Reusable buffer a program may sort or fold incoming messages in
    /// (the inbox itself is read-only); lives as long as the worker's
    /// context, so it is not reallocated per vertex.
    scratch: Vec<M>,
    edges_scanned: u64,
    random_accesses: u64,
    message_bytes: u64,
    aggregate: f64,
    default_msg_bytes: u64,
}

impl<M> ComputeCtx<M> {
    fn new(default_msg_bytes: u64) -> Self {
        ComputeCtx {
            outbox: Vec::new(),
            sizes: None,
            scratch: Vec::new(),
            edges_scanned: 0,
            random_accesses: 0,
            message_bytes: 0,
            aggregate: 0.0,
            default_msg_bytes,
        }
    }

    /// A context that records each message's payload size (the sharded
    /// runtime's inter-shard byte accounting).
    fn with_size_tracking(default_msg_bytes: u64) -> Self {
        ComputeCtx { sizes: Some(Vec::new()), ..ComputeCtx::new(default_msg_bytes) }
    }

    /// Sends `msg` to vertex `target` for delivery next superstep.
    #[inline]
    pub fn send(&mut self, target: u32, msg: M) {
        self.message_bytes += self.default_msg_bytes;
        if let Some(sizes) = &mut self.sizes {
            sizes.push(self.default_msg_bytes);
        }
        self.outbox.push((target, msg));
    }

    /// Sends a variable-size message (LCC neighbour lists).
    #[inline]
    pub fn send_sized(&mut self, target: u32, msg: M, bytes: u64) {
        self.message_bytes += bytes;
        if let Some(sizes) = &mut self.sizes {
            sizes.push(bytes);
        }
        self.outbox.push((target, msg));
    }

    /// The worker's reusable message scratch buffer (contents are
    /// whatever the previous vertex left there).
    #[inline]
    pub fn scratch(&mut self) -> &mut Vec<M> {
        &mut self.scratch
    }

    /// Records `n` adjacency entries scanned by the program.
    #[inline]
    pub fn scan_edges(&mut self, n: u64) {
        self.edges_scanned += n;
    }

    /// Records `n` random (hash-probe style) memory accesses.
    #[inline]
    pub fn random_access(&mut self, n: u64) {
        self.random_accesses += n;
    }

    /// Contributes to the global sum aggregator (visible next superstep).
    #[inline]
    pub fn aggregate(&mut self, x: f64) {
        self.aggregate += x;
    }
}

/// A Pregel vertex program.
pub trait VertexProgram: Sync {
    type Message: Clone + Send + Sync;
    type Value: Clone + Send;

    /// Initial vertex value.
    fn init(&self, u: u32, csr: &Csr) -> Self::Value;

    /// One superstep of computation for vertex `u`. All vertices are
    /// active in superstep 0. Returns `true` to remain active next
    /// superstep even without incoming messages.
    #[allow(clippy::too_many_arguments)] // the Pregel compute signature
    fn compute(
        &self,
        superstep: u64,
        u: u32,
        csr: &Csr,
        value: &mut Self::Value,
        messages: &[Self::Message],
        prev_aggregate: f64,
        ctx: &mut ComputeCtx<Self::Message>,
    ) -> bool;

    /// Serialized payload size of a fixed-size message.
    fn message_bytes(&self) -> u64 {
        8
    }

    /// Upper bound on supersteps (fixed-iteration algorithms).
    fn max_supersteps(&self) -> u64 {
        10_000
    }
}

/// Runs `program` to completion; returns final vertex values and populates
/// `counters`. Supersteps execute on the shared pool: parked workers own
/// disjoint vertex ranges (mutated through [`SharedSlice`]) and their
/// contexts merge at the barrier in worker order.
///
/// The global sum aggregator is *canonical*: each vertex's contribution
/// lands in a per-vertex slot and the barrier sums the slots in
/// ascending vertex order — so the aggregate (and hence every value
/// derived from it) is bit-identical for every pool width **and** every
/// shard layout ([`run_pregel_sharded`] sums the same slots the same
/// way).
pub fn run_pregel<P: VertexProgram>(
    csr: &Csr,
    program: &P,
    pool: &WorkerPool,
    counters: &mut WorkCounters,
) -> Vec<P::Value> {
    let n = csr.num_vertices();
    let mut values: Vec<P::Value> = (0..n as u32).map(|u| program.init(u, csr)).collect();
    let mut inboxes: Vec<Vec<P::Message>> = (0..n).map(|_| Vec::new()).collect();
    let mut active = vec![true; n];
    let mut agg_contrib = vec![0.0f64; n];
    let mut aggregate = 0.0f64;
    let msg_bytes = program.message_bytes();

    let mut superstep = 0u64;
    let mut it = IterTimer::new("Superstep", counters);
    loop {
        fault::tick(FaultSite::Superstep);
        let active_count =
            if it.is_enabled() { active.iter().filter(|&&a| a).count() } else { 0 };
        counters.supersteps += 1;
        // The partition store iterates every vertex to test activity.
        counters.vertices_processed += n as u64;

        let values_ptr = SharedSlice::new(values.as_mut_ptr());
        let active_ptr = SharedSlice::new(active.as_mut_ptr());
        let agg_ptr = SharedSlice::new(agg_contrib.as_mut_ptr());
        let inbox_ref: &Vec<Vec<P::Message>> = &inboxes;
        let results = pool.run(n, |_, range| {
            let mut ctx = ComputeCtx::new(msg_bytes);
            for u in range {
                let has_messages = !inbox_ref[u].is_empty();
                // SAFETY: ranges are disjoint; only this worker touches u.
                let (value, act) = unsafe { (values_ptr.at(u), active_ptr.at(u)) };
                unsafe { *agg_ptr.at(u) = 0.0 };
                if !(*act || has_messages) {
                    continue;
                }
                ctx.aggregate = 0.0;
                let still_active = program.compute(
                    superstep,
                    u as u32,
                    csr,
                    value,
                    &inbox_ref[u],
                    aggregate,
                    &mut ctx,
                );
                unsafe { *agg_ptr.at(u) = ctx.aggregate };
                *act = still_active;
            }
            ctx
        });

        // Barrier: merge worker contexts in deterministic worker order.
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        let mut any_messages = false;
        for ctx in results {
            counters.edges_scanned += ctx.edges_scanned;
            counters.random_accesses += ctx.random_accesses;
            counters.messages += ctx.outbox.len() as u64;
            counters.message_bytes += ctx.message_bytes;
            for (target, msg) in ctx.outbox {
                inboxes[target as usize].push(msg);
                any_messages = true;
            }
        }
        // Canonical aggregate: ascending vertex order, every slot.
        aggregate = agg_contrib.iter().sum();

        superstep += 1;
        it.lap(counters, |s| s.with_info("active", active_count));
        let any_active = active.iter().any(|&a| a);
        if (!any_active && !any_messages) || superstep >= program.max_supersteps() {
            break;
        }
    }
    values
}

/// The uploaded representation: the partition store. Giraph's load phase
/// reads the edge list into per-worker partitions; here the load product
/// is the owned CSR plus the per-vertex out-degree table the partition
/// store serves to every superstep (PageRank's rank spread, activity
/// scans) without re-deriving row extents from the offsets.
pub struct PregelGraph {
    csr: Arc<Csr>,
    /// Cached out-degrees (partition-store vertex metadata).
    out_degrees: Box<[u32]>,
}

impl PregelGraph {
    /// The cached out-degree of vertex `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> u32 {
        self.out_degrees[u as usize]
    }
}

impl LoadedGraph for PregelGraph {
    fn csr(&self) -> &Csr {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        self.csr.resident_bytes() + 4 * self.out_degrees.len() as u64
    }
}

/// Which runtime a run dispatches to: the monolithic BSP loop on the
/// shared pool, or the sharded loop over a [`ShardSet`]. Both produce
/// bit-identical values for every program.
enum Exec<'a> {
    Single { csr: &'a Csr, pool: &'a WorkerPool },
    Sharded(&'a ShardSet),
}

impl<'a> Exec<'a> {
    fn csr(&self) -> &'a Csr {
        match self {
            Exec::Single { csr, .. } => csr,
            Exec::Sharded(set) => set.csr(),
        }
    }

    fn run<P: VertexProgram>(&self, program: &P, counters: &mut WorkCounters) -> Vec<P::Value> {
        match self {
            Exec::Single { csr, pool } => run_pregel(csr, program, pool, counters),
            Exec::Sharded(set) => run_pregel_sharded(set, program, counters),
        }
    }
}

/// The Giraph-like platform.
pub struct PregelEngine {
    profile: PerfProfile,
}

impl PregelEngine {
    pub fn new() -> Self {
        PregelEngine { profile: PerfProfile::pregel() }
    }
}

impl Default for PregelEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for PregelEngine {
    fn name(&self) -> &'static str {
        "pregel"
    }

    fn profile(&self) -> &PerfProfile {
        &self.profile
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
        Ok(Box::new(PregelGraph { csr, out_degrees: degrees.into() }))
    }

    fn supports_sharded(&self) -> bool {
        true
    }

    fn upload_sharded(
        &self,
        csr: Arc<Csr>,
        plan: &ShardPlan,
        pool: &WorkerPool,
    ) -> Result<Box<dyn LoadedGraph>> {
        if plan.shards <= 1 {
            return self.upload(csr, pool);
        }
        let set = ShardSet::build(csr, plan, pool)?;
        Ok(Box::new(PregelShardedGraph::new(set)))
    }

    fn run(
        &self,
        graph: &dyn LoadedGraph,
        algorithm: Algorithm,
        params: &AlgorithmParams,
        ctx: &mut RunContext<'_>,
    ) -> Result<Execution> {
        let exec = if let Some(g) = graph.as_any().downcast_ref::<PregelGraph>() {
            Exec::Single { csr: g.csr(), pool: ctx.pool }
        } else if let Some(g) = graph.as_any().downcast_ref::<PregelShardedGraph>() {
            Exec::Sharded(g.set())
        } else {
            return Err(graphalytics_core::Error::InvalidParameters(format!(
                "graph was not uploaded through platform {}",
                self.name()
            )));
        };
        let csr = exec.csr();
        let start = Instant::now();
        let mut counters = WorkCounters::new();
        ctx.check_cancelled()?;
        ctx.begin_trace();
        let values = fault::catch_abort(|| -> Result<OutputValues> {
            Ok(match algorithm {
                Algorithm::Bfs => {
                    let root = graphalytics_core::algorithms::resolve_root(csr, params)?;
                    OutputValues::I64(exec.run(&BfsProgram { root }, &mut counters))
                }
                Algorithm::PageRank => OutputValues::F64(exec.run(
                    &PageRankProgram {
                        iterations: params.pagerank_iterations,
                        damping: params.damping_factor,
                        n: csr.num_vertices() as f64,
                    },
                    &mut counters,
                )),
                Algorithm::Wcc => OutputValues::Id(exec.run(&WccProgram, &mut counters)),
                Algorithm::Cdlp => OutputValues::Id(exec.run(
                    &CdlpProgram { iterations: params.cdlp_iterations },
                    &mut counters,
                )),
                Algorithm::Lcc => OutputValues::F64(exec.run(&LccProgram, &mut counters)),
                Algorithm::Sssp => {
                    if !csr.is_weighted() {
                        return Err(graphalytics_core::Error::InvalidParameters(
                            "SSSP requires a weighted graph".into(),
                        ));
                    }
                    let root = graphalytics_core::algorithms::resolve_root(csr, params)?;
                    OutputValues::F64(exec.run(&SsspProgram { root }, &mut counters))
                }
            })
        });
        ctx.absorb_trace();
        let values = values?;
        let wall_seconds = start.elapsed().as_secs_f64();
        ctx.record_phase("ProcessGraph", wall_seconds);
        Ok(Execution {
            output: AlgorithmOutput::from_dense(algorithm, csr, values),
            counters,
            wall_seconds,
        })
    }

    fn estimate(
        &self,
        vertices: u64,
        edges: u64,
        traits_: &graphalytics_core::datasets::GraphTraits,
        directed: bool,
        algorithm: Algorithm,
        params: &AlgorithmParams,
    ) -> WorkCounters {
        let s = crate::estimate::workload_shape(vertices, edges, traits_, directed, algorithm, params);
        let mut c = WorkCounters::new();
        c.supersteps = s.supersteps;
        c.vertices_processed = vertices * s.supersteps; // all vertices, every superstep
        match algorithm {
            Algorithm::Lcc => {
                c.edges_scanned = s.sum_deg2 as u64;
                c.messages = 2 * s.arcs as u64; // list + count-reply per arc
                c.message_bytes = (4.0 * s.sum_deg2) as u64 + 8 * s.arcs as u64;
            }
            Algorithm::Cdlp => {
                c.edges_scanned = s.edge_traversals as u64;
                c.messages = s.edge_traversals as u64;
                // No combiner exists for the mode: full label volume.
                c.message_bytes = 8 * c.messages;
                c.random_accesses = s.edge_traversals as u64;
            }
            _ => {
                c.edges_scanned = s.edge_traversals as u64;
                c.messages = s.edge_traversals as u64;
                // Min/sum combiners collapse wire volume towards the
                // vertex count per superstep.
                let combined = (2.0 * vertices as f64 * s.supersteps as f64)
                    .min(s.edge_traversals);
                c.message_bytes = 8 * combined as u64;
            }
        }
        c
    }
}
