//! Streaming mutation support for the push–pull engine: the engine-side
//! half of `graphalytics_core::graph::delta`.
//!
//! An uploaded [`PushPullGraph`] can take [`MutationBatch`]es in place
//! (the `Mutate` lifecycle phase). The first batch attaches a
//! [`DeltaState`]: the core [`MutableGraph`] delta log plus cached
//! per-vertex algorithm state that is *maintained incrementally* instead
//! of recomputed:
//!
//! * **WCC** — labels are the minimum dense index of each component, the
//!   exact fixpoint `wcc_kernel` computes. Insertions merge components
//!   by min-label union-find; deletions run a bounded connectivity probe
//!   between the endpoints and recompute only the affected components
//!   (on the post-deletion adjacency, *before* the batch's insertions
//!   apply, so old components are still closed under the probe). Served
//!   labels are bit-identical to a cold run on the materialized graph.
//! * **PageRank** — the last converged rank vector seeds a warm
//!   restart: the exact pull update iterates from the cached ranks and
//!   stops once the contraction bound puts the iterate within a small
//!   fraction of the validator's tolerance of the fixpoint. The warm
//!   path only engages when the requested iteration count is itself
//!   large enough to be converged (otherwise a cold run is *not* near
//!   the fixpoint and "converged" would be the wrong answer) — below
//!   that threshold the engine replays the full pull schedule over the
//!   merged view, bit-identical to a cold run.
//!
//! Algorithms without incremental maintenance (BFS, SSSP, CDLP) run on a
//! lazily materialized snapshot of the merged view, built once per
//! mutation epoch and recorded as a `Materialize` phase.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use graphalytics_core::algorithms::Request;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::output::OutputValues;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::validation::DEFAULT_EPSILON;
use graphalytics_core::{Error, MutableGraph, MutationBatch, Result, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::platform::{Mutation, RunContext};

use super::PushPullGraph;

/// Edge-scan budget of the per-deletion connectivity probe. A probe that
/// exhausts the budget is treated as "possibly disconnected" and the
/// component is recomputed — correct either way, the cap only bounds the
/// probe's work on huge components.
const RECONNECT_EDGE_CAP: u64 = 4096;

/// Per-graph mutation state attached to an uploaded [`PushPullGraph`]
/// by its first batch.
pub(super) struct DeltaState {
    /// The delta log over the resident base CSR (auto-compaction is
    /// driven here, under the engine's `Mutate` phase clock).
    pub(super) graph: MutableGraph,
    /// Cached WCC labels (min dense index per component), current with
    /// respect to `graph`; `None` until the first post-mutation WCC run.
    wcc: Option<Vec<u32>>,
    /// Cached PageRank fixpoint approximation from the last run.
    pr: Option<PrCache>,
    /// Materialized merged view for non-incremental algorithms;
    /// invalidated by every batch.
    snapshot: Option<Arc<PushPullGraph>>,
}

struct PrCache {
    ranks: Vec<f64>,
    iterations: u32,
    damping: f64,
}

/// The engine-side mutation slot: `None` until the first batch.
pub(super) type DeltaSlot = Mutex<Option<DeltaState>>;

pub(super) fn empty_slot() -> DeltaSlot {
    Mutex::new(None)
}

impl PushPullGraph {
    /// Whether this uploaded graph has taken mutations (and therefore
    /// runs must route through the delta view).
    pub fn has_mutations(&self) -> bool {
        self.delta.lock().unwrap().is_some()
    }

    /// The materialized merged view for algorithms without incremental
    /// maintenance. Returns the cached snapshot, or builds one and
    /// reports its build time (the caller records it as `Materialize`).
    pub(super) fn mutated_snapshot(
        &self,
        pool: &WorkerPool,
    ) -> Result<(Arc<PushPullGraph>, Option<f64>)> {
        let mut guard = self.delta.lock().unwrap();
        let state = guard.as_mut().expect("snapshot only requested for mutated graphs");
        if let Some(snap) = &state.snapshot {
            return Ok((snap.clone(), None));
        }
        let start = Instant::now();
        let csr = Arc::new(state.graph.materialize(pool)?);
        let snap = Arc::new(super::build_graph(csr, pool, None));
        state.snapshot = Some(snap.clone());
        Ok((snap, Some(start.elapsed().as_secs_f64())))
    }
}

/// Applies `batch` to an uploaded push–pull graph: validate
/// (all-or-nothing), apply deletions, maintain cached WCC labels,
/// apply insertions, merge components, auto-compact past the fill
/// ratio. Records the whole apply as a measured `Mutate` phase.
pub(super) fn apply(
    g: &PushPullGraph,
    batch: &MutationBatch,
    ctx: &mut RunContext<'_>,
) -> Result<Mutation> {
    // Before any state change: an aborted apply must leave the delta log
    // exactly as it was.
    fault::checkpoint(FaultSite::Mutate)?;
    ctx.check_cancelled()?;
    let pool = ctx.pool;
    let start = Instant::now();
    let mut guard = g.delta.lock().unwrap();
    // Validated before a first batch attaches its log, so a rejected
    // batch leaves the upload unmutated.
    let state = match guard.as_mut() {
        Some(state) => {
            state.graph.validate_batch(batch)?;
            state
        }
        None => {
            let graph = MutableGraph::new(g.csr.clone());
            graph.validate_batch(batch)?;
            guard.insert(DeltaState { graph, wcc: None, pr: None, snapshot: None })
        }
    };

    // Dense endpoint pairs of deletions that name a live edge — the
    // only ones whose removal can split a component.
    let base = state.graph.base().clone();
    let live_deletions: Vec<(u32, u32)> = batch
        .deletions
        .iter()
        .filter_map(|&(a, b)| {
            let u = base.index_of(a)?;
            let v = base.index_of(b)?;
            state.graph.has_out_edge(u, v).then_some((u, v))
        })
        .collect();

    let deleted = state.graph.apply_deletions(&batch.deletions);
    if state.wcc.is_some() && deleted > 0 {
        let DeltaState { graph, wcc, .. } = state;
        maintain_wcc_deletions(graph, wcc.as_mut().unwrap(), &live_deletions);
    }
    let (inserted, updated) = state.graph.apply_insertions(&batch.insertions);
    if state.wcc.is_some() && inserted > 0 {
        let DeltaState { graph, wcc, .. } = state;
        maintain_wcc_insertions(graph, wcc.as_mut().unwrap(), &batch.insertions);
    }
    state.graph.note_batch_applied();
    state.snapshot = None;

    let mut compacted = false;
    if state.graph.needs_compaction() {
        state.graph.compact(pool)?;
        compacted = true;
    }
    let delta_arcs = state.graph.delta_arcs();
    let fill_ratio = state.graph.fill_ratio();
    drop(guard);
    let wall_seconds = start.elapsed().as_secs_f64();
    ctx.record_phase("Mutate", wall_seconds);
    Ok(Mutation { inserted, deleted, updated, compacted, delta_arcs, fill_ratio, wall_seconds })
}

/// WCC and PageRank on a mutated graph — the branch of
/// `PushPullEngine::execute` for graphs that took mutations: serve and
/// maintain the incremental state instead of dispatching a cold kernel.
/// `run` sends every other algorithm to the materialized snapshot.
pub(super) fn execute_incremental(
    g: &PushPullGraph,
    request: Request,
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Result<OutputValues> {
    let mut guard = g.delta.lock().unwrap();
    let state = guard.as_mut().expect("incremental run requires mutation state");
    Ok(match request {
        Request::Wcc => {
            let DeltaState { graph, wcc, .. } = state;
            if wcc.is_none() {
                *wcc = Some(full_wcc(graph, c));
            }
            let labels = wcc.as_ref().unwrap();
            c.supersteps += 1;
            c.vertices_processed += labels.len() as u64;
            let out: Vec<VertexId> = labels.iter().map(|&l| graph.base().id_of(l)).collect();
            OutputValues::Id(out)
        }
        Request::PageRank { iterations, damping } => {
            OutputValues::F64(incremental_pagerank(state, iterations, damping, pool, c))
        }
        other => {
            return Err(Error::InvalidParameters(format!("no incremental path for {other:?}")))
        }
    })
}

/// Undirected-view neighbors of `u` in the merged graph (WCC ignores
/// direction; for directed graphs that is out ∪ in, with a possible
/// duplicate when both arcs exist — harmless for reachability).
fn for_each_neighbor(mg: &MutableGraph, u: u32, mut f: impl FnMut(u32)) -> u64 {
    let mut scanned = 0u64;
    for (v, _) in mg.out_edges(u) {
        scanned += 1;
        f(v);
    }
    if mg.is_directed() {
        for (v, _) in mg.in_edges(u) {
            scanned += 1;
            f(v);
        }
    }
    scanned
}

/// Full WCC over the merged view: BFS from every unlabeled vertex in
/// ascending dense order, labeling each component with its minimum
/// index — the exact fixpoint of the cold `wcc_kernel`.
fn full_wcc(mg: &MutableGraph, c: &mut WorkCounters) -> Vec<u32> {
    let n = mg.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut edges = 0u64;
    for s in 0..n as u32 {
        if labels[s as usize] != u32::MAX {
            continue;
        }
        labels[s as usize] = s;
        stack.push(s);
        while let Some(u) = stack.pop() {
            edges += for_each_neighbor(mg, u, |v| {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = s;
                    stack.push(v);
                }
            });
        }
    }
    c.supersteps += 1;
    c.vertices_processed += n as u64;
    c.edges_scanned += edges;
    labels
}

/// Bounded connectivity probe on the post-deletion merged view: can `u`
/// still reach `v`? `false` means "disconnected or probe budget
/// exhausted" — either way the caller recomputes the component.
fn reconnects(mg: &MutableGraph, u: u32, v: u32, c: &mut WorkCounters) -> bool {
    let mut visited = std::collections::HashSet::new();
    visited.insert(u);
    let mut frontier = vec![u];
    let mut scanned = 0u64;
    let mut found = false;
    while !frontier.is_empty() && !found && scanned < RECONNECT_EDGE_CAP {
        let mut next = Vec::new();
        'outer: for &x in &frontier {
            scanned += for_each_neighbor(mg, x, |y| {
                if y == v {
                    found = true;
                }
                if visited.insert(y) {
                    next.push(y);
                }
            });
            if found || scanned >= RECONNECT_EDGE_CAP {
                break 'outer;
            }
        }
        frontier = next;
    }
    c.edges_scanned += scanned;
    found
}

/// Deletion half of WCC maintenance, run on the post-deletion /
/// pre-insertion view (old components are closed under it): probe each
/// severed endpoint pair, and recompute only the components that may
/// have split — members reset and relabeled by ascending-index BFS,
/// which reproduces the min-index fixpoint exactly.
fn maintain_wcc_deletions(mg: &MutableGraph, labels: &mut [u32], deleted: &[(u32, u32)]) {
    let mut probes = WorkCounters::new();
    let mut dirty: Vec<u32> = Vec::new();
    for &(u, v) in deleted {
        let l = labels[u as usize];
        debug_assert_eq!(l, labels[v as usize], "endpoints of a live edge share a component");
        if dirty.contains(&l) {
            continue; // component already scheduled for recompute
        }
        if !reconnects(mg, u, v, &mut probes) {
            dirty.push(l);
        }
    }
    if dirty.is_empty() {
        return;
    }
    dirty.sort_unstable();
    for l in labels.iter_mut() {
        if dirty.binary_search(l).is_ok() {
            *l = u32::MAX;
        }
    }
    let mut stack = Vec::new();
    for s in 0..labels.len() as u32 {
        if labels[s as usize] != u32::MAX {
            continue;
        }
        labels[s as usize] = s;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for_each_neighbor(mg, u, |v| {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = s;
                    stack.push(v);
                }
            });
        }
    }
}

/// Insertion half of WCC maintenance: union-find over label values with
/// the minimum label as representative, then one sweep to rewrite
/// merged labels. Weight updates and re-inserts union two equal labels
/// — a no-op.
fn maintain_wcc_insertions(
    mg: &MutableGraph,
    labels: &mut [u32],
    insertions: &[graphalytics_core::Edge],
) {
    use std::collections::HashMap;
    let mut parent: HashMap<u32, u32> = HashMap::new();
    fn find(parent: &mut HashMap<u32, u32>, mut x: u32) -> u32 {
        while let Some(&p) = parent.get(&x) {
            if p == x {
                break;
            }
            let gp = parent.get(&p).copied().unwrap_or(p);
            parent.insert(x, gp);
            x = gp;
        }
        x
    }
    let base = mg.base();
    let mut merged = false;
    for e in insertions {
        let (Some(u), Some(v)) = (base.index_of(e.src), base.index_of(e.dst)) else {
            continue;
        };
        let (lu, lv) = (
            find(&mut parent, labels[u as usize]),
            find(&mut parent, labels[v as usize]),
        );
        if lu != lv {
            let (lo, hi) = (lu.min(lv), lu.max(lv));
            parent.insert(hi, lo);
            merged = true;
        }
    }
    if merged {
        for l in labels.iter_mut() {
            *l = find(&mut parent, *l);
        }
    }
}

/// Incremental PageRank over the merged view.
///
/// Cold path (no cache, changed parameters, or an iteration count too
/// small to be converged): replay the exact `pull_pagerank` schedule —
/// same initialization, same dangling handling, same in-row summation
/// order — bit-identical to a cold run on the materialized graph.
///
/// Warm path: start from the cached ranks and run the same update until
/// the L1 contraction bound `‖Δ‖₁ · d/(1−d)` drops below a quarter of
/// the validator's per-vertex tolerance at the minimum rank
/// (`ε·(1−d)/n`). Engaged only when `d^K` puts a cold K-iteration run
/// within the same slack of the fixpoint, so warm and cold land within
/// half the validation tolerance of each other.
fn incremental_pagerank(
    state: &mut DeltaState,
    iterations: u32,
    damping: f64,
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Vec<f64> {
    let mg = &state.graph;
    let n = mg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let abs_tol = DEFAULT_EPSILON * (1.0 - damping) / n as f64;
    let cold_converged = 2.0 * damping.powi(iterations as i32) <= 0.25 * abs_tol;
    let warm = cold_converged
        && state
            .pr
            .as_ref()
            .is_some_and(|p| p.iterations == iterations && p.damping == damping);

    let inv_n = 1.0 / n as f64;
    let degrees = mg.degrees();
    let mut rank = if warm {
        state.pr.as_ref().unwrap().ranks.clone()
    } else {
        vec![inv_n; n]
    };
    for _ in 0..iterations {
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let rank_ref = &rank;
        let dangling: f64 = (0..n).filter(|&u| degrees[u] == 0).map(|u| rank_ref[u]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let (next, tallies) = crate::common::map_vertices(pool, n, |v, edges: &mut u64| {
            let mut sum = 0.0f64;
            for (u, _) in mg.in_edges(v) {
                *edges += 1;
                sum += rank_ref[u as usize] / degrees[u as usize] as f64;
            }
            base + damping * sum
        });
        for edges in tallies {
            c.edges_scanned += edges;
        }
        if warm {
            let l1: f64 = next.iter().zip(rank.iter()).map(|(a, b)| (a - b).abs()).sum();
            rank = next;
            if l1 * damping / (1.0 - damping) <= 0.25 * abs_tol {
                break;
            }
        } else {
            rank = next;
        }
    }
    state.pr = Some(PrCache { ranks: rank.clone(), iterations, damping });
    rank
}
