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
//! BFS runs on the shared [`WorkerPool`]: workers scan contiguous chunks
//! of the frontier (or vertex range) and stage sparse candidate buffers;
//! the caller merges them in range order, which reproduces the exact
//! discovery order of a sequential sweep — so outputs *and* work
//! counters are bit-identical at every pool width.
//!
//! BFS, PageRank and CDLP are written once against
//! [`Lanes`], so a sharded upload runs the same
//! kernels on per-shard lanes. WCC and SSSP relax **in place**, which is
//! sequential, so each runs one caller-thread kernel on every upload and
//! reads a sharded upload's owner map only to price the cut: SSSP per
//! successful relaxation, WCC in a pass over the active rows outside its
//! sensitive per-edge loop (`pushpull_wcc`). Like every engine's, an
//! upload is immutable: a mutated graph arrives as its materialized
//! snapshot, uploaded like any other.
//!
//! Profile-wise this engine mirrors PGX.D: near-linear thread scaling
//! (cooperative context switching ⇒ tiny serial fraction), a compact wire
//! format on InfiniBand, but a large memory footprint ("optimized for
//! machines with large amounts of cores and memory", Section 4.6) and —
//! like the real system — **no LCC implementation** (Figure 6 marks it
//! `NA`).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use graphalytics_core::algorithms::{pagerank::into_shares, Request};
use graphalytics_core::error::Result;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::{Algorithm, Csr, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::common::frontier::Frontier;
use crate::common::pool::{SharedSlice, WorkerPool};
use crate::platform::{downcast_graph, unsupported, LoadedGraph, Platform};
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

/// One worker's staged BFS push traffic: the undiscovered targets it
/// found plus its scanned-edge and cut-crossing tallies.
#[derive(Default)]
struct PushOut {
    msgs: Vec<u32>,
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
        mut fold: impl FnMut(&R) -> usize,
    ) {
        let timing = tracing && lanes.is_sharded();
        let t = timing.then(Instant::now);
        for (secs, workers) in &groups {
            if timing {
                self.group_secs.push(*secs);
            }
            for out in workers {
                self.queue_depth += fold(out);
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
/// table — the upload phase, monolithic or sharded.
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
        shards,
    }
}

/// The PGX.D-like platform.
pub struct PushPullEngine;

impl Platform for PushPullEngine {
    fn name(&self) -> &'static str {
        "pushpull"
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

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let g = downcast_graph::<PushPullGraph>(self.name(), graph)?;
        let csr = g.csr();
        let lanes = g.lanes(pool);
        Ok(match request {
            Request::Bfs { root } => {
                OutputValues::I64(direction_optimizing_bfs(g, &lanes, root, c))
            }
            Request::PageRank { iterations, damping } => {
                OutputValues::F64(pull_pagerank(g, &lanes, iterations, damping, c))
            }
            Request::Wcc => OutputValues::Id(pushpull_wcc(csr, lanes.owner(), c)),
            Request::Cdlp { iterations } => OutputValues::Id(pull_cdlp(csr, &lanes, iterations, c)),
            Request::Lcc => return Err(unsupported(self.name(), Algorithm::Lcc)),
            Request::Sssp { root } => {
                OutputValues::F64(label_correcting_sssp(csr, lanes.owner(), root, c))
            }
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
                                out.msgs.push(v);
                            }
                        }
                    });
                    out
                });
                barrier.drain(lanes, TRACED, groups, |out| {
                    c.edges_scanned += out.edges;
                    c.add_messages(out.edges, 8);
                    c.inter_shard_messages += out.inter;
                    c.inter_shard_bytes += 8 * out.inter;
                    for &v in &out.msgs {
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
                barrier.drain(lanes, TRACED, groups, |(found, edges)| {
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

/// Pull PageRank (PGX.D's home turf: pure reads, no message buffers).
/// Each iteration opens with one sequential ascending pass that sums the
/// dangling mass and turns every other rank, in place, into its share
/// `rank / outdeg` (one division per vertex, by the upload's cached
/// out-degrees); the lanes then sum shares along each vertex's own
/// in-row. Term order, and so f64 rounding, is the reference's on every
/// lane assignment.
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
        let dangling = into_shares(&mut rank, degrees.iter().map(|&d| d as usize));
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let rank_ref = &rank;
        let next_ptr = SharedSlice::new(next.as_mut_ptr());
        let groups = lanes.run(tracing, |lane| {
            let mut edges = 0u64;
            lane.for_each(|v| {
                let inn = csr.in_neighbors(v);
                edges += inn.len() as u64;
                let mut sum = 0.0f64;
                for &u in inn {
                    sum += rank_ref[u as usize];
                }
                // SAFETY: lanes are disjoint; only this worker writes v.
                unsafe { *next_ptr.at(v as usize) = base + damping * sum };
            });
            edges
        });
        let mut barrier = Barrier::default();
        barrier.drain(lanes, tracing, groups, |edges| {
            c.edges_scanned += edges;
            0
        });
        std::mem::swap(&mut rank, &mut next);
        it.lap(c, |s| barrier.annotate_pull(lanes, s.with_info("active", n)));
    }
    rank
}

/// WCC: in-place push rounds on the shrinking active set, with messages.
///
/// Dispatches on the tracing state *outside* the kernel: the per-edge
/// loop is sensitive enough that merely having the trace hooks in the
/// function body deoptimizes it ~2x even when they never run, so the
/// untraced instantiation must contain no trace code at all. For the
/// same reason a sharded upload's cut is priced by [`cut_edges`], once
/// per superstep, and never inside that loop.
fn pushpull_wcc(csr: &Csr, owner: Option<&[u32]>, c: &mut WorkCounters) -> Vec<VertexId> {
    if crate::trace::active() {
        wcc_kernel::<true>(csr, owner, c)
    } else {
        wcc_kernel::<false>(csr, owner, c)
    }
}

fn wcc_kernel<const TRACED: bool>(
    csr: &Csr,
    owner: Option<&[u32]>,
    c: &mut WorkCounters,
) -> Vec<VertexId> {
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
        if let Some(owner) = owner {
            let cut = cut_edges(csr, active.members(), owner);
            c.inter_shard_messages += cut;
            c.inter_shard_bytes += 8 * cut;
        }
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

/// How many of the edges a WCC superstep scans from `members` (out-rows,
/// plus in-rows on a directed graph) end at a vertex another shard owns:
/// every scanned edge is one message, so this is the superstep's exact
/// cut traffic.
#[inline(never)]
fn cut_edges(csr: &Csr, members: &[u32], owner: &[u32]) -> u64 {
    let crossing = |u: u32, row: &[u32]| {
        row.iter().filter(|&&v| owner[v as usize] != owner[u as usize]).count() as u64
    };
    (members.iter())
        .map(|&u| {
            let inn = if csr.is_directed() { crossing(u, csr.in_neighbors(u)) } else { 0 };
            crossing(u, csr.out_neighbors(u)) + inn
        })
        .sum()
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
        barrier.drain(lanes, tracing, groups, |edges| {
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
/// only *successful* relaxations (12 bytes each: target + f64 distance),
/// and on a sharded upload those whose endpoints `owner` places on
/// different shards are also inter-shard messages.
fn label_correcting_sssp(
    csr: &Csr,
    owner: Option<&[u32]>,
    root: u32,
    c: &mut WorkCounters,
) -> Vec<f64> {
    // One out-of-line instantiation per case: the monolithic relaxation
    // loop carries no owner lookup and no code from `execute`'s other arms.
    match owner {
        Some(o) => sssp_kernel(csr, root, c, |u, v| o[u as usize] != o[v as usize]),
        None => sssp_kernel(csr, root, c, |_, _| false),
    }
}

#[inline(never)]
fn sssp_kernel(
    csr: &Csr,
    root: u32,
    c: &mut WorkCounters,
    crosses: impl Fn(u32, u32) -> bool,
) -> Vec<f64> {
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
        let mut cut = 0u64;
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
                    cut += crosses(u, v) as u64;
                    next.insert(v);
                }
            }
        }
        c.edges_scanned += edges;
        c.add_messages(relaxed, 12);
        c.inter_shard_messages += cut;
        c.inter_shard_bytes += 12 * cut;
        std::mem::swap(&mut active, &mut next);
        next.clear();
        it.lap(c, |s| s.with_info("active", active_count));
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::RunContext;
    use graphalytics_core::params::AlgorithmParams;
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

    /// 150 vertices on a ring plus a stride-53 chord each, weighted: big
    /// enough that hash placement cuts both WCC's and SSSP's traffic.
    fn ring(directed: bool) -> Arc<Csr> {
        let mut b = GraphBuilder::new(directed);
        b.set_weighted(true);
        b.add_vertex_range(150);
        for v in 0..150u64 {
            b.add_weighted_edge(v, (v + 1) % 150, ((v % 7) + 1) as f64);
            b.add_weighted_edge(v, (v + 53) % 150, ((v % 5) + 1) as f64);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    fn upload(csr: Arc<Csr>, pool: &WorkerPool) -> Box<dyn LoadedGraph> {
        PushPullEngine.upload(csr, pool).unwrap()
    }

    fn counters(
        loaded: &dyn LoadedGraph,
        alg: Algorithm,
        params: &AlgorithmParams,
        pool: &WorkerPool,
    ) -> WorkCounters {
        let mut ctx = RunContext::new(pool);
        PushPullEngine.run(loaded, alg, params, &mut ctx).unwrap().counters
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
        let dist = label_correcting_sssp(&csr, None, 0, &mut c);
        assert_eq!(dist, vec![0.0, 1.0, 2.0]);
        assert_eq!(c.edges_scanned, 5);
        assert_eq!(c.messages, 3, "only successful relaxations are messages");
        assert_eq!(c.message_bytes, 36);
    }

    #[test]
    fn all_supported_algorithms_bit_identical_across_shard_counts() {
        let csr = ring(true);
        let engine = PushPullEngine;
        let pool = WorkerPool::new(4);
        let params = AlgorithmParams::with_source(0);
        let single = engine.upload(csr.clone(), &pool).unwrap();
        for shards in [2u32, 3] {
            let plan = ShardPlan::new(shards);
            let multi = engine.upload_sharded(csr.clone(), &plan, &pool).unwrap();
            assert_eq!(multi.shard_layout().unwrap().shards, shards);
            for alg in Algorithm::ALL {
                if alg == Algorithm::Lcc {
                    continue;
                }
                let mut c1 = RunContext::new(&pool);
                let mut c2 = RunContext::new(&pool);
                let base = engine.run(single.as_ref(), alg, &params, &mut c1).unwrap();
                let run = engine.run(multi.as_ref(), alg, &params, &mut c2).unwrap();
                assert_eq!(base.output, run.output, "{alg:?} at {shards} shards");
                assert!(
                    run.counters.inter_shard_messages <= run.counters.messages,
                    "{alg:?}: inter-shard messages are a subset of messages"
                );
            }
        }
    }

    #[test]
    fn large_graph_sssp_bit_identical_across_shard_counts() {
        let csr = mid_weighted_csr();
        let engine = PushPullEngine;
        let pool = WorkerPool::new(4);
        let params = AlgorithmParams::with_source(0);
        let single = engine.upload(csr.clone(), &pool).unwrap();
        for shards in [2u32, 4] {
            let multi =
                engine.upload_sharded(csr.clone(), &ShardPlan::new(shards), &pool).unwrap();
            let mut c1 = RunContext::new(&pool);
            let mut c2 = RunContext::new(&pool);
            let base = engine.run(single.as_ref(), Algorithm::Sssp, &params, &mut c1).unwrap();
            let run = engine.run(multi.as_ref(), Algorithm::Sssp, &params, &mut c2).unwrap();
            assert_eq!(base.output, run.output, "SSSP at {shards} shards");
            assert!(run.counters.inter_shard_messages <= run.counters.messages);
        }
    }

    #[test]
    fn sharded_push_rounds_report_inter_shard_traffic() {
        // WCC sends 8 bytes along every scanned edge, SSSP 12 per
        // successful relaxation; only sends between shards are cut
        // traffic, and a monolithic upload has none.
        let pool = WorkerPool::new(2);
        let params = AlgorithmParams::with_source(0);
        for directed in [true, false] {
            let csr = ring(directed);
            let mono = upload(csr.clone(), &pool);
            let two = PushPullEngine.upload_sharded(csr, &ShardPlan::new(2), &pool).unwrap();
            for (alg, bytes) in [(Algorithm::Wcc, 8), (Algorithm::Sssp, 12)] {
                let what = format!("{alg:?}, directed: {directed}");
                let m = counters(mono.as_ref(), alg, &params, &pool);
                assert_eq!((m.inter_shard_messages, m.inter_shard_bytes), (0, 0), "{what}");
                let c = counters(two.as_ref(), alg, &params, &pool);
                assert!(c.inter_shard_messages > 0, "{what}: hash placement cuts the ring");
                assert!(c.inter_shard_messages <= c.messages, "{what}");
                assert_eq!(c.inter_shard_bytes, bytes * c.inter_shard_messages, "{what}");
                assert_eq!(c, counters(two.as_ref(), alg, &params, &pool), "{what}: repeated");
            }
        }
    }
}
