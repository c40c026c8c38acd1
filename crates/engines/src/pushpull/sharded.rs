//! Sharded push–pull kernels: the five supported algorithms over a
//! [`ShardSet`], bit-identical in output to the single-shard kernels in
//! the parent module.
//!
//! Why bit-identity holds per kernel:
//!
//! * **BFS** — level-synchronous: a vertex's depth is its BFS level, a
//!   property of the level *sets*, which no schedule can change. The
//!   push/pull choice comes from the same set-level α/β estimates as the
//!   single-shard kernel. Push rounds stage discoveries in per-shard
//!   queues applied at the barrier in deterministic shard/worker order;
//!   pull rounds scan each undecided vertex's in-row (a verbatim copy of
//!   the global row, so the early-exit point is identical) and write
//!   only owned slots.
//! * **PageRank** — the dangling-mass scan is the same canonical
//!   ascending loop as the single-shard kernel, and each vertex's rank
//!   sum walks its shard in-row, a verbatim copy of the global in-row:
//!   identical term order ⇒ identical f64 rounding.
//! * **WCC / SSSP** — min-label and min-plus relaxation are monotone
//!   fixpoints: the final value at each vertex is the minimum over
//!   (path-ordered) candidate values, independent of relaxation
//!   schedule, so the sharded rounds — synchronous sweeps against a
//!   frozen snapshot, merged at the barrier — land on bitwise the same
//!   fixpoint as the single-shard kernels, which relax in place
//!   (superstep and scanned-edge *counts* legitimately differ; outputs
//!   cannot).
//! * **CDLP** — fully synchronous: every label is a function of the
//!   previous iteration's labels and the vertex's own (verbatim-copied)
//!   adjacency rows.
//!
//! Inter-shard accounting follows the engine's semantics: only *push*
//! traffic is messages (pull is remote reads and stays message-free, as
//! in the single-shard kernels), so `inter_shard_messages` remains a
//! subset of `messages`. For SSSP both counters tally only *successful*
//! relaxations, matching the single-shard kernels' rule.

use std::time::Instant;

use graphalytics_cluster::WorkCounters;
use graphalytics_core::{Csr, VertexId};
use graphalytics_core::fault::{self, FaultSite};

use crate::common::frontier::Frontier;
use crate::common::pool::SharedSlice;
use crate::platform::LoadedGraph;
use crate::sharded::{ShardLayout, ShardSet};
use crate::trace::{self, IterTimer, SpanRecord};

use super::DirectionState;

/// Closes one sharded superstep span: per-shard compute children plus the
/// inter-shard queue depth and barrier drain time.
#[allow(clippy::too_many_arguments)]
fn lap_sharded(
    it: &mut IterTimer,
    c: &WorkCounters,
    active: usize,
    shard_secs: Vec<f64>,
    queue_depth: usize,
    drain_secs: f64,
    mode: &'static str,
) {
    it.lap(c, |mut span| {
        for (s, secs) in shard_secs.into_iter().enumerate() {
            span = span.with_child(SpanRecord::new("Shard", secs).with_info("shard", s));
        }
        span.with_info("active", active)
            .with_info("mode", mode)
            .with_info("queue_depth", queue_depth)
            .with_info("drain_secs", format!("{drain_secs:.9}"))
    });
}

/// The sharded uploaded representation: per-shard dual-direction
/// adjacency plus the global cached out-degree table (pull iterations
/// divide by degrees of *remote* vertices, so the table stays global —
/// PGX.D's replicated vertex metadata).
pub struct PushPullShardedGraph {
    set: ShardSet,
    out_degrees: Box<[u32]>,
    total_out_degree: u64,
}

impl PushPullShardedGraph {
    pub(crate) fn new(set: ShardSet) -> Self {
        let csr = set.csr();
        let out_degrees: Box<[u32]> =
            (0..csr.num_vertices() as u32).map(|u| csr.out_degree(u) as u32).collect();
        let total_out_degree = out_degrees.iter().map(|&d| d as u64).sum();
        PushPullShardedGraph { set, out_degrees, total_out_degree }
    }

    /// The underlying shard set.
    #[inline]
    pub fn set(&self) -> &ShardSet {
        &self.set
    }

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
}

impl LoadedGraph for PushPullShardedGraph {
    fn csr(&self) -> &Csr {
        self.set.csr()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        self.set.resident_bytes() + 4 * self.out_degrees.len() as u64
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        Some(self.set.layout())
    }
}

/// Splits a vertex list into per-shard lists by owner, preserving order.
fn route(members: &[u32], owner: &[u32], shards: usize) -> Vec<Vec<u32>> {
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for &u in members {
        owned[owner[u as usize] as usize].push(u);
    }
    owned
}

/// One worker's staged push traffic: `(target, payload)` messages plus
/// edge/cross-shard tallies.
struct PushOut<T> {
    msgs: Vec<(u32, T)>,
    edges: u64,
    inter: u64,
}

/// Sharded direction-optimizing BFS (see module docs for the identity
/// argument). Uses the same α/β switch state as the single-shard kernel
/// and a double-buffered frontier pair.
pub(super) fn sharded_bfs(g: &PushPullShardedGraph, root: u32, c: &mut WorkCounters) -> Vec<i64> {
    let set = g.set();
    let sharded = set.sharded();
    let owner = sharded.owner();
    let shards = sharded.num_shards() as usize;
    let n = set.csr().num_vertices();
    let degrees = g.out_degrees();

    let mut depth = vec![i64::MAX; n];
    depth[root as usize] = 0;
    let mut frontier = Frontier::singleton(n, root);
    let mut next = Frontier::new(n);
    let mut frontier_degree = degrees[root as usize] as u64;
    let mut dir = DirectionState::new(g.total_out_degree(), frontier_degree);
    let mut level = 0i64;
    let tracing = trace::active();
    let mut it = IterTimer::new("Iteration", c);
    while !frontier.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active = frontier.len();
        let pulling = dir.choose(frontier_degree, active, n);
        c.supersteps += 1;
        level += 1;
        let mut next_degree = 0u64;
        if !pulling {
            // Push: owned frontier vertices scatter through the shard
            // queues; the barrier applies discoveries in shard order.
            c.vertices_processed += active as u64;
            let owned = route(frontier.members(), owner, shards);
            let depth_ref = &depth;
            let outputs = set.run_shards(tracing, |s, shard, pool| {
                let mine = owned[s].as_slice();
                pool.run(mine.len(), |_, range| {
                    let mut out =
                        PushOut { msgs: Vec::new(), edges: 0, inter: 0 };
                    for &u in &mine[range] {
                        let li = sharded.local_index_of(u) as usize;
                        let (targets, _) = shard.out_row(li);
                        out.edges += targets.len() as u64;
                        for &v in targets {
                            if owner[v as usize] != s as u32 {
                                out.inter += 1;
                            }
                            if depth_ref[v as usize] == i64::MAX {
                                out.msgs.push((v, ()));
                            }
                        }
                    }
                    out
                })
            });
            let mut shard_secs = Vec::with_capacity(shards);
            let mut queue_depth = 0usize;
            let drain_t = tracing.then(Instant::now);
            for (secs, outs) in outputs {
                shard_secs.push(secs);
                for out in outs {
                    queue_depth += out.msgs.len();
                    c.edges_scanned += out.edges;
                    c.add_messages(out.edges, 8);
                    c.inter_shard_messages += out.inter;
                    c.inter_shard_bytes += 8 * out.inter;
                    for (v, ()) in out.msgs {
                        if depth[v as usize] == i64::MAX {
                            depth[v as usize] = level;
                            next.insert(v);
                            next_degree += degrees[v as usize] as u64;
                        }
                    }
                }
            }
            let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
            lap_sharded(&mut it, c, active, shard_secs, queue_depth, drain_secs, "push");
        } else {
            // Pull: each shard scans its own undecided vertices' in-rows
            // (early exit) and writes only owned depth slots.
            c.vertices_processed += n as u64;
            let depth_ptr = SharedSlice::new(depth.as_mut_ptr());
            let frontier_ref = &frontier;
            let outputs = set.run_shards(tracing, |_, shard, pool| {
                pool.run(shard.len(), |_, lrange| {
                    let mut found = Vec::new();
                    let mut edges = 0u64;
                    for li in lrange {
                        let v = shard.global(li);
                        // SAFETY: shards own disjoint vertex
                        // sets; only this worker touches v.
                        let dv = unsafe { depth_ptr.at(v as usize) };
                        if *dv != i64::MAX {
                            continue;
                        }
                        let (inn, _) = shard.in_row(li);
                        for &u in inn {
                            edges += 1;
                            if frontier_ref.contains(u) {
                                *dv = level;
                                found.push(v);
                                break;
                            }
                        }
                    }
                    (found, edges)
                })
            });
            let mut shard_secs = Vec::with_capacity(shards);
            let drain_t = tracing.then(Instant::now);
            for (secs, outs) in outputs {
                shard_secs.push(secs);
                for (found, edges) in outs {
                    c.edges_scanned += edges;
                    c.random_accesses += edges;
                    for v in found {
                        next.insert(v);
                        next_degree += degrees[v as usize] as u64;
                    }
                }
            }
            let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
            // Pull rounds read remotely instead of queueing messages.
            lap_sharded(&mut it, c, active, shard_secs, 0, drain_secs, "pull");
        }
        dir.discovered(next_degree);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        frontier_degree = next_degree;
    }
    depth
}

/// Sharded pull PageRank: canonical ascending dangling scan + per-owned
/// vertex in-row sums over verbatim row copies.
pub(super) fn sharded_pagerank(
    g: &PushPullShardedGraph,
    iterations: u32,
    damping: f64,
    c: &mut WorkCounters,
) -> Vec<f64> {
    let set = g.set();
    let sharded = set.sharded();
    let shards = sharded.num_shards() as usize;
    let degrees = g.out_degrees();
    let n = set.csr().num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    let tracing = trace::active();
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let rank_ref = &rank;
        let dangling: f64 = (0..n).filter(|&u| degrees[u] == 0).map(|u| rank_ref[u]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        let next_ptr = SharedSlice::new(next.as_mut_ptr());
        let edge_counts = set.run_shards(tracing, |_, shard, pool| {
            pool.run(shard.len(), |_, lrange| {
                let mut edges = 0u64;
                for li in lrange {
                    let v = shard.global(li) as usize;
                    let (inn, _) = shard.in_row(li);
                    edges += inn.len() as u64;
                    let mut sum = 0.0f64;
                    for &u in inn {
                        sum += rank_ref[u as usize] / degrees[u as usize] as f64;
                    }
                    // SAFETY: v is owned by this shard; local
                    // ranges are disjoint within it.
                    unsafe { *next_ptr.at(v) = base + damping * sum };
                }
                edges
            })
        });
        let mut shard_secs = Vec::with_capacity(shards);
        let drain_t = tracing.then(Instant::now);
        for (secs, counts) in edge_counts {
            shard_secs.push(secs);
            for edges in counts {
                c.edges_scanned += edges;
            }
        }
        std::mem::swap(&mut rank, &mut next);
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        lap_sharded(&mut it, c, n, shard_secs, 0, drain_secs, "pull");
    }
    rank
}

/// Sharded WCC: synchronous min-label rounds through the shard queues,
/// over a double-buffered frontier pair.
pub(super) fn sharded_wcc(g: &PushPullShardedGraph, c: &mut WorkCounters) -> Vec<VertexId> {
    let set = g.set();
    let csr = set.csr();
    let sharded = set.sharded();
    let owner = sharded.owner();
    let shards = sharded.num_shards() as usize;
    let n = csr.num_vertices();
    let directed = csr.is_directed();

    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut active = Frontier::new(n);
    for v in 0..n as u32 {
        active.insert(v);
    }
    let mut next = Frontier::new(n);
    let tracing = trace::active();
    let mut it = IterTimer::new("Iteration", c);
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active_count = active.len();
        c.supersteps += 1;
        c.vertices_processed += active_count as u64;
        let owned = route(active.members(), owner, shards);
        let label_ref = &label;
        let outputs = set.run_shards(tracing, |s, shard, pool| {
            let mine = owned[s].as_slice();
            pool.run(mine.len(), |_, range| {
                let mut out = PushOut { msgs: Vec::new(), edges: 0, inter: 0 };
                for &u in &mine[range] {
                    let lu = label_ref[u as usize];
                    let li = sharded.local_index_of(u) as usize;
                    let push = |targets: &[u32], out: &mut PushOut<u32>| {
                        out.edges += targets.len() as u64;
                        for &v in targets {
                            if owner[v as usize] != s as u32 {
                                out.inter += 1;
                            }
                            if lu < label_ref[v as usize] {
                                out.msgs.push((v, lu));
                            }
                        }
                    };
                    push(shard.out_row(li).0, &mut out);
                    if directed {
                        push(shard.in_row(li).0, &mut out);
                    }
                }
                out
            })
        });
        let mut shard_secs = Vec::with_capacity(shards);
        let mut queue_depth = 0usize;
        let drain_t = tracing.then(Instant::now);
        for (secs, outs) in outputs {
            shard_secs.push(secs);
            for out in outs {
                queue_depth += out.msgs.len();
                c.edges_scanned += out.edges;
                c.add_messages(out.edges, 8);
                c.inter_shard_messages += out.inter;
                c.inter_shard_bytes += 8 * out.inter;
                for (v, l) in out.msgs {
                    if l < label[v as usize] {
                        label[v as usize] = l;
                        next.insert(v);
                    }
                }
            }
        }
        std::mem::swap(&mut active, &mut next);
        next.clear();
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        lap_sharded(&mut it, c, active_count, shard_secs, queue_depth, drain_secs, "push");
    }
    label.into_iter().map(|l| csr.id_of(l)).collect()
}

/// Sharded CDLP: synchronous pull over owned vertices' verbatim rows.
pub(super) fn sharded_cdlp(
    g: &PushPullShardedGraph,
    iterations: u32,
    c: &mut WorkCounters,
) -> Vec<VertexId> {
    let set = g.set();
    let csr = set.csr();
    let sharded = set.sharded();
    let shards = sharded.num_shards() as usize;
    let n = csr.num_vertices();
    let directed = csr.is_directed();

    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut next: Vec<VertexId> = vec![0; n];
    let tracing = trace::active();
    let mut it = IterTimer::new("Iteration", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.vertices_processed += n as u64;
        let labels_ref = &labels;
        let next_ptr = SharedSlice::new(next.as_mut_ptr());
        let edge_counts = set.run_shards(tracing, |_, shard, pool| {
            pool.run(shard.len(), |_, lrange| {
                let mut votes: Vec<VertexId> = Vec::new();
                let mut edges = 0u64;
                for li in lrange {
                    let v = shard.global(li) as usize;
                    votes.clear();
                    votes.extend(shard.out_row(li).0.iter().map(|&u| labels_ref[u as usize]));
                    if directed {
                        votes.extend(shard.in_row(li).0.iter().map(|&u| labels_ref[u as usize]));
                    }
                    edges += votes.len() as u64;
                    let l = graphalytics_core::algorithms::cdlp::mode_label(&mut votes)
                        .unwrap_or(labels_ref[v]);
                    // SAFETY: v is owned by this shard; local
                    // ranges are disjoint within it.
                    unsafe { *next_ptr.at(v) = l };
                }
                edges
            })
        });
        let mut shard_secs = Vec::with_capacity(shards);
        let drain_t = tracing.then(Instant::now);
        for (secs, counts) in edge_counts {
            shard_secs.push(secs);
            for edges in counts {
                c.edges_scanned += edges;
                c.random_accesses += edges;
            }
        }
        std::mem::swap(&mut labels, &mut next);
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        lap_sharded(&mut it, c, n, shard_secs, 0, drain_secs, "pull");
    }
    labels
}

/// Sharded SSSP: synchronous label-correcting rounds. Each shard's owned
/// frontier vertices stage improving candidates against the round's
/// frozen distance snapshot; the barrier merge applies them in
/// shard/worker order, counting one 12-byte message per successful
/// relaxation (and one inter-shard message when the producing shard does
/// not own the target).
pub(super) fn sharded_sssp(g: &PushPullShardedGraph, root: u32, c: &mut WorkCounters) -> Vec<f64> {
    let set = g.set();
    let sharded = set.sharded();
    let owner = sharded.owner();
    let shards = sharded.num_shards() as usize;
    let n = set.csr().num_vertices();

    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut active = Frontier::singleton(n, root);
    let mut next = Frontier::new(n);
    let tracing = trace::active();
    let mut it = IterTimer::new("Iteration", c);
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active_count = active.len();
        c.supersteps += 1;
        c.vertices_processed += active_count as u64;
        let owned = route(active.members(), owner, shards);
        let dist_ref = &dist;
        let outputs = set.run_shards(tracing, |s, shard, pool| {
            let mine = owned[s].as_slice();
            pool.run(mine.len(), |_, range| {
                let mut out = PushOut { msgs: Vec::new(), edges: 0, inter: 0 };
                for &u in &mine[range] {
                    let du = dist_ref[u as usize];
                    let li = sharded.local_index_of(u) as usize;
                    let (targets, weights) = shard.out_row(li);
                    out.edges += targets.len() as u64;
                    for (&v, &w) in targets.iter().zip(weights) {
                        let nd = du + w;
                        if nd < dist_ref[v as usize] {
                            out.msgs.push((v, nd));
                        }
                    }
                }
                out
            })
        });
        let mut relaxed = 0u64;
        let mut inter = 0u64;
        let mut shard_secs = Vec::with_capacity(shards);
        let mut queue_depth = 0usize;
        let drain_t = tracing.then(Instant::now);
        for (s, (secs, outs)) in outputs.into_iter().enumerate() {
            shard_secs.push(secs);
            for out in outs {
                queue_depth += out.msgs.len();
                c.edges_scanned += out.edges;
                for (v, nd) in out.msgs {
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        relaxed += 1;
                        next.insert(v);
                        if owner[v as usize] != s as u32 {
                            inter += 1;
                        }
                    }
                }
            }
        }
        c.add_messages(relaxed, 12);
        c.inter_shard_messages += inter;
        c.inter_shard_bytes += 12 * inter;
        std::mem::swap(&mut active, &mut next);
        next.clear();
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        lap_sharded(&mut it, c, active_count, shard_secs, queue_depth, drain_secs, "push");
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::sharded::ShardPlan;
    use graphalytics_core::GraphBuilder;

    fn csr() -> Arc<Csr> {
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(150);
        for v in 0..150u64 {
            b.add_weighted_edge(v, (v + 1) % 150, ((v % 7) + 1) as f64);
            b.add_weighted_edge(v, (v + 53) % 150, ((v % 5) + 1) as f64);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    /// Two out-edges per vertex, 120k arcs: SSSP rounds big enough to go
    /// through threaded `run_shards` with multi-chunk `pool.run`.
    fn big_csr() -> Arc<Csr> {
        const N: u64 = 60_000;
        let mut b = GraphBuilder::new(true);
        b.set_weighted(true);
        b.add_vertex_range(N);
        for v in 0..N {
            b.add_weighted_edge(v, (v * 3 + 1) % N, ((v % 11) + 1) as f64);
            b.add_weighted_edge(v, (v + 158) % N, (((v % 4) + 1) as f64) * 1.75);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    #[test]
    fn all_supported_algorithms_bit_identical_across_shard_counts() {
        let csr = csr();
        let engine = PushPullEngine::new();
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
    fn sharded_sssp_matches_single_shard_on_a_large_graph() {
        let csr = big_csr();
        let engine = PushPullEngine::new();
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
        let csr = csr();
        let engine = PushPullEngine::new();
        let pool = WorkerPool::new(2);
        let params = AlgorithmParams::with_source(0);
        let multi = engine
            .upload_sharded(csr, &ShardPlan::new(2), &pool)
            .unwrap();
        let mut ctx = RunContext::new(&pool);
        let run = engine.run(multi.as_ref(), Algorithm::Wcc, &params, &mut ctx).unwrap();
        assert!(run.counters.inter_shard_messages > 0);
        assert!(run.counters.inter_shard_bytes > 0);
    }
}
