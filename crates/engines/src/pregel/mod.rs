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
//!   messages are in flight (or a fixed-iteration program's cap is hit);
//! * a global **sum aggregator** is available with Pregel semantics (values
//!   contributed in superstep `s` are visible in `s+1`) — PageRank uses it
//!   for dangling-vertex mass.
//!
//! Authentic cost behaviour: the worker loop *iterates every vertex each
//! superstep* to test activity (as Giraph's partition store does), so
//! `vertices_processed` grows by `|V|` per superstep even when the frontier
//! is tiny — one of the structural reasons queue-based native code beats
//! Pregel systems on low-coverage BFS (the paper's R2 observation).
//!
//! One superstep loop ([`run_pregel`]) serves every upload. A sharded
//! upload only changes the *lane assignment* ([`crate::sharded`]): which
//! pool computes which ascending list of vertices, and which owner map
//! prices a message as cut traffic when it is sent. The inbox is one
//! [`Grouped`] of the superstep's messages by target — the dataflow
//! shuffle's grouping — regrouped every superstep, on the pool once the
//! stream holds enough messages per vertex. Its stream is in
//! ascending-sender order under every layout: one group's outboxes in
//! lane order, or a `k`-way merge of per-sender run slices for `k`
//! shards (`deliver`). So every vertex reads bit-identical
//! inputs at every pool width, and nothing is sorted.
//!
//! A run owns its round buffers: the inbox, one [`ComputeCtx`] per lane
//! (outbox, run list, scratch) and the merge order are allocated once
//! per run, cleared at each barrier and refilled, so a warm superstep
//! regrows no buffer.

mod programs;
#[cfg(test)]
mod sharded;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::Csr;

use graphalytics_cluster::WorkCounters;

use crate::common::pool::{SharedSlice, WorkerPool};
use crate::common::Grouped;
use crate::platform::{downcast_graph, LoadedGraph, Platform};
use crate::sharded::{shard_span, Lanes, ShardLayout, ShardPlan, ShardSet};
use crate::trace::{IterTimer, SpanRecord};

pub use programs::{
    BfsProgram, CdlpProgram, LccMessage, LccProgram, PageRankProgram, SsspProgram, WccProgram,
};

/// Per-lane compute context: outgoing messages, counters, aggregation.
/// A run keeps one per lane across supersteps.
#[derive(Default)]
pub struct ComputeCtx<'a, M> {
    outbox: Vec<(u32, M)>,
    /// `(sender, outbox range)` per sending vertex, in the order the
    /// lane walked them — what the barrier merges on. Recorded only on
    /// a sharded upload.
    runs: Vec<(u32, Range<usize>)>,
    /// The owner map and this worker's shard; `None` when monolithic.
    cut: Option<(&'a [u32], u32)>,
    /// Reusable buffer a program may sort or fold incoming messages in
    /// (the inbox itself is read-only); lives as long as the lane's
    /// context, so it is not reallocated per vertex or superstep.
    scratch: Vec<M>,
    edges_scanned: u64,
    random_accesses: u64,
    message_bytes: u64,
    inter_shard_messages: u64,
    inter_shard_bytes: u64,
    aggregate: f64,
}

/// Serialized payload size of a fixed-size message.
const MESSAGE_BYTES: u64 = 8;

impl<'a, M> ComputeCtx<'a, M> {
    /// Sends `msg` to vertex `target` for delivery next superstep.
    #[inline]
    pub fn send(&mut self, target: u32, msg: M) {
        self.send_sized(target, msg, MESSAGE_BYTES);
    }

    /// Sends a variable-size message (LCC neighbour lists).
    #[inline]
    pub fn send_sized(&mut self, target: u32, msg: M, bytes: u64) {
        self.message_bytes += bytes;
        if let Some((owner, shard)) = self.cut {
            if owner[target as usize] != shard {
                self.inter_shard_messages += 1;
                self.inter_shard_bytes += bytes;
            }
        }
        self.outbox.push((target, msg));
    }

    /// Readies the context for the next superstep: counters zeroed,
    /// buffers emptied but kept.
    fn clear(&mut self) {
        self.outbox.clear();
        self.runs.clear();
        (self.edges_scanned, self.random_accesses, self.message_bytes) = (0, 0, 0);
        (self.inter_shard_messages, self.inter_shard_bytes, self.aggregate) = (0, 0, 0.0);
    }

    /// Closes vertex `sender`'s run: everything sent since `mark`.
    #[inline]
    fn end_run(&mut self, sender: u32, mark: usize) {
        if self.cut.is_some() && self.outbox.len() > mark {
            self.runs.push((sender, mark..self.outbox.len()));
        }
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
    type Message: Clone + Default + Send + Sync;
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
        ctx: &mut ComputeCtx<'_, Self::Message>,
    ) -> bool;

    /// Upper bound on supersteps, for fixed-iteration programs; none by
    /// default: BFS, WCC and SSSP halt by vote within `n + 1` supersteps.
    fn max_supersteps(&self) -> u64 {
        u64::MAX
    }
}

/// Runs `program` to completion; returns final vertex values and populates
/// `counters`. The one superstep loop, for every lane assignment: each
/// worker computes the vertices of its [`Lane`](crate::sharded::Lane)
/// (mutated through [`SharedSlice`] — lanes are disjoint) into the
/// lane's own context, and the barrier folds the lane contexts,
/// regroups the inbox from their outboxes (`deliver`) and clears them.
///
/// The global sum aggregator is *canonical*: each vertex's contribution
/// lands in a per-vertex slot and the barrier sums the slots in
/// ascending vertex order — so the aggregate (and hence every value
/// derived from it) is bit-identical for every pool width **and** every
/// shard layout.
pub fn run_pregel<P: VertexProgram>(
    csr: &Csr,
    program: &P,
    lanes: &Lanes<'_>,
    counters: &mut WorkCounters,
) -> Vec<P::Value> {
    let n = csr.num_vertices();
    let mut values: Vec<P::Value> = (0..n as u32).map(|u| program.init(u, csr)).collect();
    let mut inbox = Grouped::default();
    inbox.regroup(n, lanes.pool(), 0, |_| &[]);
    let mut active = vec![true; n];
    let mut agg_contrib = vec![0.0f64; n];
    let mut aggregate = 0.0f64;
    let owner = lanes.owner();
    // One context per lane, kept across supersteps, and the sharded
    // barrier's merge order: the run's round buffers.
    let mut ctxs: Vec<ComputeCtx<'_, P::Message>> = Vec::new();
    let mut order = Vec::new();

    let mut superstep = 0u64;
    let mut it = IterTimer::new("Superstep", counters);
    let tracing = it.is_enabled();
    loop {
        fault::tick(FaultSite::Superstep);
        let active_count = if tracing { active.iter().filter(|&&a| a).count() } else { 0 };
        counters.supersteps += 1;
        // The partition store iterates every vertex to test activity.
        counters.vertices_processed += n as u64;

        let values_ptr = SharedSlice::new(values.as_mut_ptr());
        let active_ptr = SharedSlice::new(active.as_mut_ptr());
        let agg_ptr = SharedSlice::new(agg_contrib.as_mut_ptr());
        let groups = lanes.run_with(tracing, &mut ctxs, |lane, ctx| {
            ctx.cut = owner.map(|o| (o, lane.shard()));
            lane.for_each(|u| {
                let i = u as usize;
                let messages = inbox.group(u);
                // SAFETY: lanes are disjoint; only this worker touches u.
                let (value, act) = unsafe { (values_ptr.at(i), active_ptr.at(i)) };
                unsafe { *agg_ptr.at(i) = 0.0 };
                if !*act && messages.is_empty() {
                    return;
                }
                ctx.aggregate = 0.0;
                let mark = ctx.outbox.len();
                let still_active =
                    program.compute(superstep, u, csr, value, messages, aggregate, ctx);
                ctx.end_run(u, mark);
                unsafe { *agg_ptr.at(i) = ctx.aggregate };
                *act = still_active;
            });
        });

        // Barrier: fold the lane contexts, deliver, clear.
        let mut sent = 0u64;
        let mut shard_spans: Vec<SpanRecord> = Vec::new();
        for (s, (secs, lane_ctxs)) in groups.iter().enumerate() {
            let (mut group_messages, mut group_edges) = (0u64, 0u64);
            for ctx in &ctxs[lane_ctxs.clone()] {
                counters.edges_scanned += ctx.edges_scanned;
                counters.random_accesses += ctx.random_accesses;
                counters.message_bytes += ctx.message_bytes;
                counters.inter_shard_messages += ctx.inter_shard_messages;
                counters.inter_shard_bytes += ctx.inter_shard_bytes;
                group_messages += ctx.outbox.len() as u64;
                group_edges += ctx.edges_scanned;
            }
            counters.messages += group_messages;
            sent += group_messages;
            if tracing && lanes.is_sharded() {
                shard_spans.push(
                    shard_span(s, *secs)
                        .with_info("messages", group_messages)
                        .with_info("edges_scanned", group_edges),
                );
            }
        }
        let drain_t = (tracing && lanes.is_sharded()).then(Instant::now);
        deliver(&groups, &ctxs, n, lanes.pool(), &mut inbox, &mut order);
        ctxs.iter_mut().for_each(ComputeCtx::clear);
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        // Canonical aggregate: ascending vertex order, every slot.
        aggregate = agg_contrib.iter().sum();

        superstep += 1;
        it.lap(counters, |span| {
            let span = span.with_info("active", active_count);
            lanes.annotate(span, shard_spans, sent as usize, drain_secs)
        });
        let any_active = active.iter().any(|&a| a);
        if (!any_active && sent == 0) || superstep >= program.max_supersteps() {
            break;
        }
    }
    values
}

/// Regroups `inbox` from every outbox so that each vertex's messages
/// come in ascending-sender order with per-sender send order kept — the
/// one delivery order, whatever the lanes (see [`crate::sharded`]).
/// `groups` gives each group's lanes as a range of `ctxs`. One group's
/// outboxes in lane order *are* sender order; `k` groups' runs are each
/// ascending and every sender has one owner, so a `k`-way merge of the
/// run slices on the sender id restores the same order. The merge writes
/// `(lane, run)` pairs into `order`, which the caller keeps.
fn deliver<M: Clone + Default + Send + Sync>(
    groups: &[(f64, Range<usize>)],
    ctxs: &[ComputeCtx<'_, M>],
    n: usize,
    pool: &WorkerPool,
    inbox: &mut Grouped<M>,
    order: &mut Vec<(usize, Range<usize>)>,
) {
    if let [_] = groups {
        inbox.regroup(n, pool, ctxs.len(), |lane| &ctxs[lane].outbox);
        return;
    }
    let mut streams: Vec<_> = (groups.iter())
        .map(|(_, lanes)| {
            (lanes.clone())
                .flat_map(|lane| {
                    ctxs[lane].runs.iter().map(move |(sender, run)| (*sender, lane, run))
                })
                .peekable()
        })
        .collect();
    let mut heads: BinaryHeap<Reverse<(u32, usize)>> = (streams.iter_mut().enumerate())
        .filter_map(|(g, runs)| Some(Reverse((runs.peek()?.0, g))))
        .collect();
    order.clear();
    while let Some(Reverse((_, g))) = heads.pop() {
        order.extend(streams[g].next().map(|(_, lane, run)| (lane, run.clone())));
        if let Some(&(sender, _, _)) = streams[g].peek() {
            heads.push(Reverse((sender, g)));
        }
    }
    inbox.regroup(n, pool, order.len(), |i| {
        let (lane, run) = &order[i];
        &ctxs[*lane].outbox[run.clone()]
    });
}

/// The uploaded representation: the partition store. Giraph's load phase
/// reads the edge list into per-worker partitions; here the load product
/// is the pinned CSR plus, for a sharded upload, the [`ShardSet`] that
/// assigns its vertices to per-shard lanes.
pub struct PregelGraph {
    csr: Arc<Csr>,
    shards: Option<ShardSet>,
}

impl LoadedGraph for PregelGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        self.shards.as_ref().map_or(self.csr.resident_bytes(), ShardSet::resident_bytes)
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        self.shards.as_ref().map(ShardSet::layout)
    }
}

/// The Giraph-like platform.
pub struct PregelEngine;

impl Platform for PregelEngine {
    fn name(&self) -> &'static str {
        "pregel"
    }

    fn upload(&self, csr: Arc<Csr>, _pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        Ok(Box::new(PregelGraph { csr, shards: None }))
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
        let shards = Some(ShardSet::build(csr.clone(), plan)?);
        Ok(Box::new(PregelGraph { csr, shards }))
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        counters: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let graph = downcast_graph::<PregelGraph>(self.name(), graph)?;
        let csr = graph.csr();
        let lanes = Lanes::new(csr.num_vertices(), pool, graph.shards.as_ref());
        Ok(match request {
            Request::Bfs { root } => {
                OutputValues::I64(run_pregel(csr, &BfsProgram { root }, &lanes, counters))
            }
            Request::PageRank { iterations, damping } => OutputValues::F64(run_pregel(
                csr,
                &PageRankProgram { iterations, damping, n: csr.num_vertices() as f64 },
                &lanes,
                counters,
            )),
            Request::Wcc => OutputValues::Id(run_pregel(csr, &WccProgram, &lanes, counters)),
            Request::Cdlp { iterations } => {
                OutputValues::Id(run_pregel(csr, &CdlpProgram { iterations }, &lanes, counters))
            }
            Request::Lcc => OutputValues::F64(run_pregel(csr, &LccProgram, &lanes, counters)),
            Request::Sssp { root } => {
                OutputValues::F64(run_pregel(csr, &SsspProgram { root }, &lanes, counters))
            }
        })
    }
}
