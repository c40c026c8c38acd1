//! The push–pull engine (PGX.D-like).
//!
//! "PGX.D enables vertices to *pull* (read) data from neighbors, as
//! opposed to conventional graph analysis systems which only allow
//! vertices to *push* (write) data" (Section 3.1). The engine implements
//! the hybrid: every iteration chooses **push** (scatter from the active
//! frontier, producing messages) or **pull** (scan the in-edges of
//! undecided vertices, no messages) — the generalization of
//! direction-optimizing BFS, driven by Beamer-style α/β scanned-edge
//! estimates rather than a fixed density threshold.
//!
//! The traversal kernels (BFS, SSSP) run on the shared [`WorkerPool`]:
//! workers scan contiguous chunks of the frontier (or vertex range) and
//! stage sparse candidate buffers; the caller merges them in range
//! order, which reproduces the exact discovery/relaxation order of a
//! sequential sweep — so outputs *and* work counters are bit-identical
//! at every pool width. SSSP is a sequential label-correcting sweep that
//! relaxes in place over a double-buffered [`Frontier`]; it needs nothing
//! beyond the uploaded CSR.
//!
//! BFS, PageRank and CDLP are written once against
//! [`Lanes`](crate::sharded::Lanes), so a sharded upload runs the same
//! kernels on per-shard lanes; only WCC and SSSP, whose monolithic
//! kernels relax in place, have sharded counterparts (`sharded.rs` says
//! why).
//!
//! Profile-wise this engine mirrors PGX.D: near-linear thread scaling
//! (cooperative context switching ⇒ tiny serial fraction), a compact wire
//! format on InfiniBand, but a large memory footprint ("optimized for
//! machines with large amounts of cores and memory", Section 4.6) and —
//! like the real system — **no LCC implementation** (Figure 6 marks it
//! `NA`).

mod delta;
mod sharded;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::{Algorithm, Csr, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::common::frontier::Frontier;
use crate::common::pool::{SharedSlice, WorkerPool};
use crate::platform::{
    downcast_graph, execute_phase, unsupported, Execution, LoadedGraph, Platform, RunContext,
};
use crate::profile::PerfProfile;
use crate::sharded::{shard_span, GroupOut, Lanes, ShardLayout, ShardPlan, ShardSet};
use crate::trace::{IterTimer, SpanRecord};

/// Beamer α: a push level switches to pull when the frontier's
/// out-degree sum exceeds `m_unexplored / α` — the point where scanning
/// undecided vertices' in-edges (with early exit) beats scattering the
/// whole frontier.
pub const BFS_ALPHA: u64 = 14;

/// Beamer β: a pull level switches back to push once the frontier
/// shrinks below `n / β`.
pub const BFS_BETA: u64 = 24;

/// Estimated scanned-edge work under which a traversal round runs inline
/// instead of dispatching to the pool — a condvar wake costs more than a
/// few thousand edge scans. The estimate is a property of the active
/// *set*, so the inline/parallel decision is identical at every width
/// (and both paths merge chunk results in the same order anyway).
const PAR_WORK_CUTOFF: u64 = 4096;

/// Cached `available_parallelism`: the pool deliberately does not clamp
/// its width to the host (partitioning must depend only on `(threads,
/// n)`), so the kernels check the host themselves before paying for a
/// dispatch that pure time-slicing cannot win back.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// True when a traversal round is worth dispatching to the pool: enough
/// estimated edge work to amortize the wake-up, more than one item, and
/// a host that can actually run workers concurrently. Every input is
/// set-level or host-constant — never pool-width-dependent — so the
/// decision is identical at every width; and since the inline and
/// chunked paths produce identical outputs *and* counters by
/// construction, the choice is unobservable in results either way.
fn parallel_worth(len: usize, work: u64) -> bool {
    work >= PAR_WORK_CUTOFF && len > 1 && host_cores() > 1
}

/// Direction-optimizing switch state of the BFS kernel. All inputs are
/// set-level quantities (frontier out-degree sum, frontier cardinality,
/// undiscovered-edge estimate), so the push/pull schedule is identical
/// at every pool width and shard count.
struct DirectionState {
    pulling: bool,
    /// Out-degree sum of still-undiscovered vertices (Beamer's `m_u`).
    unexplored: u64,
}

impl DirectionState {
    fn new(total_out_degree: u64, root_degree: u64) -> Self {
        DirectionState { pulling: false, unexplored: total_out_degree.saturating_sub(root_degree) }
    }

    /// Picks this level's direction from the frontier's out-degree sum
    /// and cardinality.
    fn choose(&mut self, frontier_degree: u64, frontier_len: usize, n: usize) -> bool {
        if self.pulling {
            if (frontier_len as u64).saturating_mul(BFS_BETA) < n as u64 {
                self.pulling = false;
            }
        } else if frontier_degree.saturating_mul(BFS_ALPHA) > self.unexplored {
            self.pulling = true;
        }
        self.pulling
    }

    /// Subtracts newly discovered vertices' out-degrees from `m_u`.
    fn discovered(&mut self, degree_sum: u64) {
        self.unexplored = self.unexplored.saturating_sub(degree_sum);
    }
}

/// One worker's staged push traffic: `(target, payload)` candidates plus
/// its scanned-edge and cut-crossing tallies.
#[derive(Default)]
struct PushOut<T> {
    msgs: Vec<(u32, T)>,
    edges: u64,
    inter: u64,
}

/// Barrier-side bookkeeping of one round, for its trace span: the
/// groups' compute seconds, how many candidates were queued, and how
/// long the barrier took to drain them.
#[derive(Default)]
struct Barrier {
    group_secs: Vec<f64>,
    queue_depth: usize,
    drain_secs: f64,
}

impl Barrier {
    /// Folds every worker's result through `fold`, in group then worker
    /// order; `fold` returns how many candidates that worker queued.
    /// Seconds are kept only for a traced sharded round — the one case
    /// [`Barrier::annotate`] reports them.
    fn drain<R>(
        &mut self,
        lanes: &Lanes<'_>,
        tracing: bool,
        groups: Vec<GroupOut<R>>,
        mut fold: impl FnMut(usize, &R) -> usize,
    ) {
        let timing = tracing && lanes.is_sharded();
        let t = timing.then(Instant::now);
        for (s, (secs, workers)) in groups.iter().enumerate() {
            if timing {
                self.group_secs.push(*secs);
            }
            for out in workers {
                self.queue_depth += fold(s, out);
            }
        }
        self.drain_secs = t.map_or(0.0, |t| t.elapsed().as_secs_f64());
    }

    /// The round's span: on sharded lanes, `Shard` children plus queue
    /// depth and drain time.
    fn annotate(&self, lanes: &Lanes<'_>, span: SpanRecord) -> SpanRecord {
        let shards = self.group_secs.iter().enumerate().map(|(s, &secs)| shard_span(s, secs));
        lanes.annotate(span, shards, self.queue_depth, self.drain_secs)
    }

    /// As [`Barrier::annotate`] for a kernel that only ever pulls: a
    /// sharded round names its mode like every other sharded round.
    fn annotate_pull(&self, lanes: &Lanes<'_>, span: SpanRecord) -> SpanRecord {
        let span = if lanes.is_sharded() { span.with_info("mode", "pull") } else { span };
        self.annotate(lanes, span)
    }
}

/// The uploaded representation: PGX.D's dual-direction adjacency. The
/// upload phase pins both CSR directions (push walks out-edges, pull
/// walks in-edges — the engine needs both resident, which is part of
/// PGX.D's large-memory profile) and caches the out-degree table that
/// the pull direction and the α/β switch consult. The table is global
/// on a sharded upload too — pull iterations divide by the degrees of
/// *remote* vertices (PGX.D's replicated vertex metadata).
pub struct PushPullGraph {
    csr: Arc<Csr>,
    /// Cached out-degrees for the pull direction and the α/β estimates.
    out_degrees: Box<[u32]>,
    /// Σ out-degrees — the BFS `m_u` starting point.
    total_out_degree: u64,
    /// Streaming-mutation state; `None` until the first
    /// [`Platform::apply_mutations`] batch arrives.
    delta: delta::DeltaSlot,
    /// The lane assignment of a sharded upload.
    shards: Option<ShardSet>,
}

impl PushPullGraph {
    /// The full cached degree vector.
    #[inline]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// Σ out-degrees over all vertices.
    #[inline]
    pub fn total_out_degree(&self) -> u64 {
        self.total_out_degree
    }

    /// The lanes a run on `pool` walks this upload with.
    fn lanes<'a>(&'a self, pool: &'a WorkerPool) -> Lanes<'a> {
        Lanes::new(self.csr.num_vertices(), pool, self.shards.as_ref())
    }
}

impl LoadedGraph for PushPullGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        let graph = self.shards.as_ref().map_or(self.csr.resident_bytes(), ShardSet::resident_bytes);
        graph + 4 * self.out_degrees.len() as u64
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        self.shards.as_ref().map(ShardSet::layout)
    }
}

/// Builds the dual-direction representation with its cached degree
/// table — the upload phase, also reused for mutated-graph snapshots.
fn build_graph(csr: Arc<Csr>, pool: &WorkerPool, shards: Option<ShardSet>) -> PushPullGraph {
    let n = csr.num_vertices();
    let csr_ref = &csr;
    let degrees: Vec<u32> = pool
        .run(n, |_, range| {
            range.map(|u| csr_ref.out_degree(u as u32) as u32).collect::<Vec<u32>>()
        })
        .into_iter()
        .flatten()
        .collect();
    let total_out_degree = degrees.iter().map(|&d| d as u64).sum();
    PushPullGraph {
        csr,
        out_degrees: degrees.into(),
        total_out_degree,
        delta: delta::empty_slot(),
        shards,
    }
}

/// The PGX.D-like platform.
pub struct PushPullEngine;

impl Platform for PushPullEngine {
    fn name(&self) -> &'static str {
        "pushpull"
    }

    fn profile(&self) -> &'static PerfProfile {
        &PerfProfile::PUSHPULL
    }

    fn supports(&self, algorithm: Algorithm) -> bool {
        algorithm != Algorithm::Lcc
    }

    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        Ok(Box::new(build_graph(csr, pool, None)))
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
        let shards = ShardSet::build(csr.clone(), plan)?;
        Ok(Box::new(build_graph(csr, pool, Some(shards))))
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn apply_mutations(
        &self,
        graph: &dyn LoadedGraph,
        batch: &graphalytics_core::MutationBatch,
        ctx: &mut RunContext<'_>,
    ) -> Result<crate::platform::Mutation> {
        let g = downcast_graph::<PushPullGraph>(self.name(), graph)?;
        if g.shards.is_some() {
            return Err(graphalytics_core::Error::InvalidParameters(
                "sharded pushpull graphs do not take mutations; mutate an unsharded upload"
                    .into(),
            ));
        }
        delta::apply(g, batch, ctx)
    }

    /// Mutated resident graphs route through the delta view: WCC and
    /// PageRank serve incrementally maintained state (a branch of
    /// [`execute`](Platform::execute)); the other supported algorithms
    /// run on a lazily materialized snapshot of the merged graph, built
    /// once per mutation epoch and recorded as `Materialize`.
    fn run(
        &self,
        graph: &dyn LoadedGraph,
        algorithm: Algorithm,
        params: &AlgorithmParams,
        ctx: &mut RunContext<'_>,
    ) -> Result<Execution> {
        let g = downcast_graph::<PushPullGraph>(self.name(), graph)?;
        let incremental = matches!(algorithm, Algorithm::Wcc | Algorithm::PageRank);
        if g.has_mutations() && !incremental && self.supports(algorithm) {
            let (snapshot, built) = g.mutated_snapshot(ctx.pool)?;
            if let Some(secs) = built {
                ctx.record_phase("Materialize", secs);
            }
            return execute_phase(self, &*snapshot, algorithm, params, ctx);
        }
        execute_phase(self, graph, algorithm, params, ctx)
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let g = downcast_graph::<PushPullGraph>(self.name(), graph)?;
        if g.has_mutations() {
            return delta::execute_incremental(g, request, pool, c);
        }
        let csr = g.csr();
        let lanes = g.lanes(pool);
        Ok(match request {
            Request::Bfs { root } => {
                OutputValues::I64(direction_optimizing_bfs(g, &lanes, root, c))
            }
            Request::PageRank { iterations, damping } => {
                OutputValues::F64(pull_pagerank(g, &lanes, iterations, damping, c))
            }
            Request::Wcc => OutputValues::Id(if lanes.is_sharded() {
                sharded::sharded_wcc(csr, &lanes, c)
            } else {
                pushpull_wcc(csr, c)
            }),
            Request::Cdlp { iterations } => OutputValues::Id(pull_cdlp(csr, &lanes, iterations, c)),
            Request::Lcc => return Err(unsupported(self.name(), Algorithm::Lcc)),
            Request::Sssp { root } => OutputValues::F64(if lanes.is_sharded() {
                sharded::sharded_sssp(csr, &lanes, root, c)
            } else {
                label_correcting_sssp(csr, root, c)
            }),
        })
    }
}

/// Direction-optimizing BFS: push while the frontier is sparse, pull
/// (scan undecided vertices' in-edges) once the α/β estimates say the
/// pull scan is cheaper.
///
/// Like [`pushpull_wcc`], dispatches on the tracing state outside the
/// kernel: this is the hottest loop in the suite, and trace hooks in
/// the body cost ~35% even when disabled.
fn direction_optimizing_bfs(
    g: &PushPullGraph,
    lanes: &Lanes<'_>,
    root: u32,
    c: &mut WorkCounters,
) -> Vec<i64> {
    if crate::trace::active() {
        bfs_kernel::<true>(g, lanes, root, c)
    } else {
        bfs_kernel::<false>(g, lanes, root, c)
    }
}

/// A vertex's depth is its BFS level — a property of the level *sets*,
/// which no lane assignment can change — and the direction comes from
/// set-level α/β estimates, so every lane assignment runs the same
/// rounds. Push rounds stage discoveries per lane and the barrier
/// applies them in group/worker order; pull rounds write only the depth
/// slots their lane owns.
#[inline(never)]
fn bfs_kernel<const TRACED: bool>(
    g: &PushPullGraph,
    lanes: &Lanes<'_>,
    root: u32,
    c: &mut WorkCounters,
) -> Vec<i64> {
    let csr = g.csr();
    let degrees = g.out_degrees();
    let n = csr.num_vertices();
    let mut depth = vec![i64::MAX; n];
    depth[root as usize] = 0;
    let mut frontier = Frontier::singleton(n, root);
    let mut next = Frontier::new(n);
    let mut frontier_degree = degrees[root as usize] as u64;
    let mut dir = DirectionState::new(g.total_out_degree(), frontier_degree);
    let mut level = 0i64;
    let mut it = TRACED.then(|| IterTimer::new("Iteration", c));
    // Sharded rounds always go through the lanes: every shard's lanes do
    // its share and it reports a `Shard` span. Monolithic rounds below the
    // dispatch cutoff run inline on the caller.
    let dispatch = |len: usize, work: u64| lanes.is_sharded() || parallel_worth(len, work);
    while !frontier.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active = frontier.len();
        let pulling = dir.choose(frontier_degree, active, n);
        c.supersteps += 1;
        level += 1;
        let mut next_degree = 0u64;
        let mut barrier = Barrier::default();
        if !pulling {
            // Push: workers scan contiguous chunks of the frontier and
            // stage undiscovered targets; the merge applies them in chunk
            // order — the discovery order of a sequential sweep, so
            // `next`'s member order is width-invariant. Inline rounds
            // apply discoveries directly (same first-encounter order, no
            // staging buffers).
            c.vertices_processed += active as u64;
            if !dispatch(frontier.len(), frontier_degree) {
                let mut edges = 0u64;
                for &u in frontier.members() {
                    let out = csr.out_neighbors(u);
                    edges += out.len() as u64;
                    for &v in out {
                        if depth[v as usize] == i64::MAX {
                            depth[v as usize] = level;
                            next.insert(v);
                            next_degree += degrees[v as usize] as u64;
                        }
                    }
                }
                c.edges_scanned += edges;
                c.add_messages(edges, 8);
            } else {
                let depth_ref: &[i64] = &depth;
                let groups = lanes.run_over(TRACED, frontier.members(), |lane| {
                    let mut out = PushOut::default();
                    lane.for_each(|u| {
                        let targets = csr.out_neighbors(u);
                        out.edges += targets.len() as u64;
                        out.inter += lane.crossing(targets);
                        for &v in targets {
                            if depth_ref[v as usize] == i64::MAX {
                                out.msgs.push((v, ()));
                            }
                        }
                    });
                    out
                });
                barrier.drain(lanes, TRACED, groups, |_, out| {
                    c.edges_scanned += out.edges;
                    c.add_messages(out.edges, 8);
                    c.inter_shard_messages += out.inter;
                    c.inter_shard_bytes += 8 * out.inter;
                    for &(v, ()) in &out.msgs {
                        if depth[v as usize] == i64::MAX {
                            depth[v as usize] = level;
                            next.insert(v);
                            next_degree += degrees[v as usize] as u64;
                        }
                    }
                    out.msgs.len()
                });
            }
        } else {
            // Pull: every undecided vertex reads its in-neighbours until
            // it finds one in the frontier (early exit — the pull win).
            // Workers write only the depth slots of their own lane; newly
            // found vertices merge in group/worker order. Inline rounds
            // run the same ascending sweep directly. Pull reads remotely:
            // no messages, nothing queued.
            c.vertices_processed += n as u64;
            if !dispatch(n, dir.unexplored + n as u64) {
                let mut edges = 0u64;
                for v in 0..n {
                    if depth[v] != i64::MAX {
                        continue;
                    }
                    for &u in csr.in_neighbors(v as u32) {
                        edges += 1;
                        if frontier.contains(u) {
                            depth[v] = level;
                            next.insert(v as u32);
                            next_degree += degrees[v] as u64;
                            break;
                        }
                    }
                }
                c.edges_scanned += edges;
                c.random_accesses += edges;
            } else {
                let frontier_ref = &frontier;
                let depth_ptr = SharedSlice::new(depth.as_mut_ptr());
                let groups = lanes.run(TRACED, |lane| {
                    let mut found = Vec::new();
                    let mut edges = 0u64;
                    lane.for_each(|v| {
                        // SAFETY: lanes are disjoint; only this worker
                        // touches index v.
                        let dv = unsafe { depth_ptr.at(v as usize) };
                        if *dv != i64::MAX {
                            return;
                        }
                        for &u in csr.in_neighbors(v) {
                            edges += 1;
                            if frontier_ref.contains(u) {
                                *dv = level;
                                found.push(v);
                                break;
                            }
                        }
                    });
                    (found, edges)
                });
                barrier.drain(lanes, TRACED, groups, |_, (found, edges)| {
                    c.edges_scanned += edges;
                    c.random_accesses += edges;
                    for &v in found {
                        next.insert(v);
                        next_degree += degrees[v as usize] as u64;
                    }
                    0
                });
            }
        }
        dir.discovered(next_degree);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        frontier_degree = next_degree;
        if TRACED {
            if let Some(it) = it.as_mut() {
                let mode = if pulling { "pull" } else { "push" };
                it.lap(c, |s| {
                    barrier.annotate(lanes, s.with_info("active", active).with_info("mode", mode))
                });
            }
        }
    }
    depth
}

/// Pull PageRank (PGX.D's home turf: pure reads, no message buffers),
/// dividing by the uploaded representation's cached out-degrees. The
/// dangling-mass scan is one canonical ascending loop and each vertex's
/// rank sum walks its own in-row, so term order — and f64 rounding — is
/// the same on every lane assignment.
fn pull_pagerank(
    graph: &PushPullGraph,
    lanes: &Lanes<'_>,
    iterations: u32,
    damping: f64,
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
    let mut next = vec![0.0f64; n];
    let mut it = IterTimer::new("Iteration", c);
    let tracing = it.is_enabled();
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let rank_ref = &rank;
        let dangling: f64 =
            (0..n).filter(|&u| degrees[u] == 0).map(|u| rank_ref[u]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let next_ptr = SharedSlice::new(next.as_mut_ptr());
        let groups = lanes.run(tracing, |lane| {
            let mut edges = 0u64;
            lane.for_each(|v| {
                let inn = csr.in_neighbors(v);
                edges += inn.len() as u64;
                let mut sum = 0.0f64;
                for &u in inn {
                    sum += rank_ref[u as usize] / degrees[u as usize] as f64;
                }
                // SAFETY: lanes are disjoint; only this worker writes v.
                unsafe { *next_ptr.at(v as usize) = base + damping * sum };
            });
            edges
        });
        let mut barrier = Barrier::default();
        barrier.drain(lanes, tracing, groups, |_, edges| {
            c.edges_scanned += edges;
            0
        });
        std::mem::swap(&mut rank, &mut next);
        it.lap(c, |s| barrier.annotate_pull(lanes, s.with_info("active", n)));
    }
    rank
}

/// WCC: push rounds on the shrinking active set, with messages.
///
/// Dispatches on the tracing state *outside* the kernel: the per-edge
/// loop is sensitive enough that merely having the trace hooks in the
/// function body deoptimizes it ~2x even when they never run, so the
/// untraced instantiation must contain no trace code at all.
fn pushpull_wcc(csr: &Csr, c: &mut WorkCounters) -> Vec<VertexId> {
    if crate::trace::active() {
        wcc_kernel::<true>(csr, c)
    } else {
        wcc_kernel::<false>(csr, c)
    }
}

fn wcc_kernel<const TRACED: bool>(csr: &Csr, c: &mut WorkCounters) -> Vec<VertexId> {
    let n = csr.num_vertices();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut active = Frontier::new(n);
    for v in 0..n as u32 {
        active.insert(v);
    }
    let mut next = Frontier::new(n);
    let mut it = TRACED.then(|| IterTimer::new("Iteration", c));
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += active.len() as u64;
        // Accumulate the per-edge tallies in a register and flush once
        // per superstep: three counter read-modify-writes per traversed
        // edge would dominate this loop (every push is exactly one
        // 8-byte message, so one count covers all three counters).
        let mut edges = 0u64;
        for &u in active.members() {
            let lu = label[u as usize];
            let push = |v: u32, label: &mut Vec<u32>, next: &mut Frontier| {
                if lu < label[v as usize] {
                    label[v as usize] = lu;
                    next.insert(v);
                }
            };
            let out = csr.out_neighbors(u);
            edges += out.len() as u64;
            for &v in out {
                push(v, &mut label, &mut next);
            }
            if csr.is_directed() {
                let inn = csr.in_neighbors(u);
                edges += inn.len() as u64;
                for &v in inn {
                    push(v, &mut label, &mut next);
                }
            }
        }
        c.edges_scanned += edges;
        c.add_messages(edges, 8);
        let active_count = active.len();
        std::mem::swap(&mut active, &mut next);
        next.clear();
        if TRACED {
            if let Some(it) = it.as_mut() {
                it.lap(c, |s| s.with_info("active", active_count));
            }
        }
    }
    label.into_iter().map(|l| csr.id_of(l)).collect()
}

/// CDLP: pull mode — each vertex reads neighbour labels directly. Fully
/// synchronous: every label is a function of the previous iteration's
/// labels and the vertex's own rows, whatever lane computes it.
fn pull_cdlp(
    csr: &Csr,
    lanes: &Lanes<'_>,
    iterations: u32,
    c: &mut WorkCounters,
) -> Vec<VertexId> {
    use graphalytics_core::algorithms::cdlp::{gather_labels, mode_label};
    let n = csr.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut next: Vec<VertexId> = vec![0; n];
    let mut it = IterTimer::new("Iteration", c);
    let tracing = it.is_enabled();
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let labels_ref = &labels;
        let next_ptr = SharedSlice::new(next.as_mut_ptr());
        let groups = lanes.run(tracing, |lane| {
            let mut votes: Vec<VertexId> = Vec::new();
            let mut edges = 0u64;
            lane.for_each(|v| {
                edges += gather_labels(csr, v, labels_ref, &mut votes);
                let label = mode_label(&mut votes).unwrap_or(labels_ref[v as usize]);
                // SAFETY: lanes are disjoint; only this worker writes v.
                unsafe { *next_ptr.at(v as usize) = label };
            });
            edges
        });
        let mut barrier = Barrier::default();
        barrier.drain(lanes, tracing, groups, |_, edges| {
            c.edges_scanned += edges;
            c.random_accesses += edges;
            0
        });
        std::mem::swap(&mut labels, &mut next);
        it.lap(c, |s| barrier.annotate_pull(lanes, s.with_info("active", n)));
    }
    labels
}

/// SSSP: label-correcting push relaxation over the active frontier.
/// Distances are relaxed *in place* — a vertex improved early in a sweep
/// already propagates its new distance later in the same sweep — over a
/// double-buffered [`Frontier`] pair, sequentially on the caller thread.
/// The min-plus fixpoint does not depend on the relaxation schedule, so
/// the output is bitwise what any other schedule reaches. Messages count
/// only *successful* relaxations (12 bytes each: target + f64 distance).
fn label_correcting_sssp(csr: &Csr, root: u32, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut active = Frontier::singleton(n, root);
    let mut next = Frontier::new(n);
    let mut it = IterTimer::new("Iteration", c);
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active_count = active.len();
        c.supersteps += 1;
        c.vertices_processed += active_count as u64;
        let mut edges = 0u64;
        let mut relaxed = 0u64;
        for &u in active.members() {
            let du = dist[u as usize];
            let out = csr.out_neighbors(u);
            let weights = csr.out_weights(u);
            edges += out.len() as u64;
            for (&v, &w) in out.iter().zip(weights) {
                let nd = du + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    relaxed += 1;
                    next.insert(v);
                }
            }
        }
        c.edges_scanned += edges;
        c.add_messages(relaxed, 12);
        std::mem::swap(&mut active, &mut next);
        next.clear();
        it.lap(c, |s| s.with_info("active", active_count));
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::output::AlgorithmOutput;
    use graphalytics_core::GraphBuilder;

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

    /// 60k vertices with two out-edges each: SSSP sweeps with frontiers
    /// in the thousands and many re-relaxations, which `sample` is too
    /// small to produce.
    fn mid_weighted_csr() -> Arc<Csr> {
        const MID_N: u64 = 60_000;
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(MID_N);
        for v in 0..MID_N {
            b.add_weighted_edge(v, (v * 7 + 1) % MID_N, ((v % 13) + 1) as f64);
            b.add_weighted_edge(v, (v * 31 + 5) % MID_N, (((v % 3) + 1) as f64) * 2.5);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    fn upload(csr: Arc<Csr>, pool: &WorkerPool) -> Box<dyn LoadedGraph> {
        PushPullEngine.upload(csr, pool).unwrap()
    }

    #[test]
    fn supported_algorithms_match_reference() {
        for csr in [Arc::new(sample(true)), Arc::new(sample(false)), mid_weighted_csr()] {
            let engine = PushPullEngine;
            let params = AlgorithmParams::with_source(0);
            let pool = WorkerPool::new(2);
            let loaded = engine.upload(csr.clone(), &pool).unwrap();
            for alg in Algorithm::ALL {
                let mut ctx = RunContext::new(&pool);
                if alg == Algorithm::Lcc {
                    assert!(engine.run(loaded.as_ref(), alg, &params, &mut ctx).is_err());
                    continue;
                }
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
    fn bfs_switches_to_pull_on_dense_frontier() {
        // A star: after one push step the frontier's out-degree sum (99)
        // exceeds m_u/α, so the next level runs in pull mode.
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(100);
        for i in 1..100u64 {
            b.add_edge(0, i);
        }
        let pool = WorkerPool::inline();
        let loaded = upload(Arc::new(b.build().unwrap().to_csr()), &pool);
        let g = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
        let mut c = WorkCounters::new();
        let depths = direction_optimizing_bfs(g, &g.lanes(&pool), 0, &mut c);
        assert!(depths.iter().all(|&d| d <= 2));
        // Pull iterations process all vertices; push processes frontier
        // only. The dense level must have been pull.
        assert!(c.vertices_processed > 100);
    }

    #[test]
    fn pull_pagerank_no_messages() {
        let csr = Arc::new(sample(true));
        let engine = PushPullEngine;
        let pool = WorkerPool::new(2);
        let loaded = engine.upload(csr, &pool).unwrap();
        let graph = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
        let mut c = WorkCounters::new();
        let _ = pull_pagerank(graph, &graph.lanes(&pool), 5, 0.85, &mut c);
        assert_eq!(c.messages, 0, "pull mode reads, never sends");
        assert!(c.edges_scanned > 0);
    }

    #[test]
    fn sssp_messages_count_only_successful_relaxations() {
        // 0→1 (w=1), 0→2 (w=5), 1→2 (w=1), 2→1 (w=10). The 2→1 edge is
        // scanned twice and never relaxes: 5 scans, 3 successes.
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(3);
        for (s, d, w) in [(0, 1, 1.0), (0, 2, 5.0), (1, 2, 1.0), (2, 1, 10.0)] {
            b.add_weighted_edge(s, d, w);
        }
        let csr = b.build().unwrap().to_csr();
        let mut c = WorkCounters::new();
        let dist = label_correcting_sssp(&csr, 0, &mut c);
        assert_eq!(dist, vec![0.0, 1.0, 2.0]);
        assert_eq!(c.edges_scanned, 5);
        assert_eq!(c.messages, 3, "only successful relaxations are messages");
        assert_eq!(c.message_bytes, 36);
    }

    /// Cold-run an algorithm on the materialized post-mutation graph —
    /// the correctness anchor for every incremental path.
    fn cold_on_materialized(
        g: &PushPullGraph,
        alg: Algorithm,
        params: &AlgorithmParams,
        pool: &WorkerPool,
    ) -> AlgorithmOutput {
        let guard = g.delta.lock().unwrap();
        let merged = Arc::new(guard.as_ref().unwrap().graph.materialize(pool).unwrap());
        drop(guard);
        let engine = PushPullEngine;
        let loaded = engine.upload(merged, pool).unwrap();
        let mut ctx = RunContext::new(pool);
        engine.run(loaded.as_ref(), alg, params, &mut ctx).unwrap().output
    }

    #[test]
    fn mutated_wcc_is_bit_identical_to_cold_recompute() {
        for directed in [true, false] {
            let csr = Arc::new(sample(directed));
            let engine = PushPullEngine;
            let pool = WorkerPool::new(2);
            let loaded = engine.upload(csr.clone(), &pool).unwrap();
            let g = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
            let params = AlgorithmParams::default();

            // Batch 1 (no cached labels yet → full merged compute),
            // splitting 3–4 off and bridging 5 in.
            let mut batch = graphalytics_core::MutationBatch::new();
            batch.delete(2, 3).insert(4, 5);
            let mut ctx = RunContext::new(&pool);
            let m = engine.apply_mutations(loaded.as_ref(), &batch, &mut ctx).unwrap();
            assert_eq!((m.inserted, m.deleted), (1, 1));
            assert!(ctx.phases().iter().any(|p| p.name == "Mutate"), "Mutate phase recorded");
            let mut ctx = RunContext::new(&pool);
            let warm = engine.run(loaded.as_ref(), Algorithm::Wcc, &params, &mut ctx).unwrap();
            let cold = cold_on_materialized(g, Algorithm::Wcc, &params, &pool);
            assert_eq!(warm.output.values, cold.values, "directed={directed} batch 1");

            // Batch 2 exercises the incremental maintenance proper
            // (cached labels now exist): another split + a merge.
            let mut batch = graphalytics_core::MutationBatch::new();
            batch.delete(0, 1).insert(3, 5);
            engine
                .apply_mutations(loaded.as_ref(), &batch, &mut RunContext::new(&pool))
                .unwrap();
            let mut ctx = RunContext::new(&pool);
            let warm = engine.run(loaded.as_ref(), Algorithm::Wcc, &params, &mut ctx).unwrap();
            let cold = cold_on_materialized(g, Algorithm::Wcc, &params, &pool);
            assert_eq!(warm.output.values, cold.values, "directed={directed} batch 2");
            engine.delete(loaded);
        }
    }

    #[test]
    fn mutated_pagerank_matches_cold_recompute_within_epsilon() {
        let csr = Arc::new(sample(false));
        let engine = PushPullEngine;
        let pool = WorkerPool::new(2);
        let loaded = engine.upload(csr, &pool).unwrap();
        let g = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
        // 120 iterations: converged for n=6, so the warm path engages
        // on the second run.
        let params = AlgorithmParams { pagerank_iterations: 120, ..AlgorithmParams::default() };

        let mut batch = graphalytics_core::MutationBatch::new();
        batch.insert(0, 4).delete(2, 3);
        engine.apply_mutations(loaded.as_ref(), &batch, &mut RunContext::new(&pool)).unwrap();
        // First post-mutation run: cold replay over the merged view —
        // bit-identical to the materialized cold run.
        let mut ctx = RunContext::new(&pool);
        let first = engine.run(loaded.as_ref(), Algorithm::PageRank, &params, &mut ctx).unwrap();
        let cold = cold_on_materialized(g, Algorithm::PageRank, &params, &pool);
        assert_eq!(first.output.values, cold.values, "full replay is bitwise");

        // Second mutation: the cached ranks warm-start the solve, which
        // must stay within the validator's epsilon of a cold run.
        let mut batch = graphalytics_core::MutationBatch::new();
        batch.insert(1, 5).insert(3, 5);
        engine.apply_mutations(loaded.as_ref(), &batch, &mut RunContext::new(&pool)).unwrap();
        let mut ctx = RunContext::new(&pool);
        let warm = engine.run(loaded.as_ref(), Algorithm::PageRank, &params, &mut ctx).unwrap();
        let cold = cold_on_materialized(g, Algorithm::PageRank, &params, &pool);
        assert!(
            warm.counters.supersteps < 120,
            "warm start converges early, took {} supersteps",
            warm.counters.supersteps
        );
        graphalytics_core::validation::validate(&cold, &warm.output)
            .unwrap()
            .into_result()
            .unwrap();
        engine.delete(loaded);
    }

    #[test]
    fn mutated_snapshot_serves_traversals_and_is_cached() {
        let csr = Arc::new(sample(true));
        let engine = PushPullEngine;
        let pool = WorkerPool::new(2);
        let loaded = engine.upload(csr, &pool).unwrap();
        let g = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
        let params = AlgorithmParams::with_source(0);

        let mut batch = graphalytics_core::MutationBatch::new();
        batch.insert_weighted(4, 5, 1.5).delete(0, 2);
        engine.apply_mutations(loaded.as_ref(), &batch, &mut RunContext::new(&pool)).unwrap();

        let mut ctx = RunContext::new(&pool);
        let bfs = engine.run(loaded.as_ref(), Algorithm::Bfs, &params, &mut ctx).unwrap();
        assert!(
            ctx.phases().iter().any(|p| p.name == "Materialize"),
            "first non-incremental run builds the snapshot"
        );
        let cold = cold_on_materialized(g, Algorithm::Bfs, &params, &pool);
        assert_eq!(bfs.output.values, cold.values);

        // The snapshot is cached within the mutation epoch.
        let mut ctx = RunContext::new(&pool);
        let sssp = engine.run(loaded.as_ref(), Algorithm::Sssp, &params, &mut ctx).unwrap();
        assert!(
            ctx.phases().iter().all(|p| p.name != "Materialize"),
            "second run reuses the snapshot"
        );
        let cold = cold_on_materialized(g, Algorithm::Sssp, &params, &pool);
        assert_eq!(sssp.output.values, cold.values);
        engine.delete(loaded);
    }

    #[test]
    fn mutation_rejections_and_defaults() {
        let csr = Arc::new(sample(false));
        let engine = PushPullEngine;
        let pool = WorkerPool::new(2);
        assert!(engine.supports_mutation());

        // Undeclared endpoints reject before anything applies.
        let loaded = engine.upload(csr.clone(), &pool).unwrap();
        let mut bad = graphalytics_core::MutationBatch::new();
        bad.insert(0, 999);
        let err = engine
            .apply_mutations(loaded.as_ref(), &bad, &mut RunContext::new(&pool))
            .unwrap_err();
        assert!(err.to_string().contains("undeclared vertex"), "{err}");
        let g = loaded.as_any().downcast_ref::<PushPullGraph>().unwrap();
        assert!(!g.has_mutations(), "rejected batch left no log");

        // Sharded uploads refuse mutations.
        let plan = ShardPlan::new(2);
        let sharded = engine.upload_sharded(csr, &plan, &pool).unwrap();
        let mut ok = graphalytics_core::MutationBatch::new();
        ok.insert(0, 3);
        let err = engine
            .apply_mutations(sharded.as_ref(), &ok, &mut RunContext::new(&pool))
            .unwrap_err();
        assert!(err.to_string().contains("sharded"), "{err}");

        // Engines without a delta path keep the trait default.
        let gas = crate::gas::GasEngine;
        assert!(!gas.supports_mutation());
        let gas_loaded = gas.upload(Arc::new(sample(false)), &pool).unwrap();
        let err = gas
            .apply_mutations(gas_loaded.as_ref(), &ok, &mut RunContext::new(&pool))
            .unwrap_err();
        assert!(err.to_string().contains("no mutation path"), "{err}");
    }
}
