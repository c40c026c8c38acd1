//! The two push–pull kernels that exist only for sharded uploads: WCC
//! and SSSP.
//!
//! BFS, PageRank and CDLP are written once against
//! [`Lanes`](crate::sharded::Lanes) in the parent module — their
//! schedule is the same on every lane assignment (level sets,
//! synchronous pulls), so the monolithic kernel *is* the sharded kernel
//! and `tests/shard_lanes.rs` holds every work counter equal. WCC and
//! SSSP are different: the monolithic kernels relax **in place** on the
//! caller thread — a vertex improved early in a sweep already propagates
//! its new value later in the same sweep — and that is inherently
//! sequential. Shards cannot share one in-place sweep, so here each
//! round is a **synchronous sweep against a frozen snapshot**: every
//! lane stages improving candidates against the values the round started
//! with, and the barrier applies them. A different schedule with
//! different superstep and scanned-edge counts
//! (`logical_work_counters_shard_invariant_where_schedules_agree` says
//! which counts still agree across shard counts) — so these stay
//! separate functions instead of a branch inside the in-place loops.
//!
//! Outputs are still bitwise those of the monolithic kernels: min-label
//! and min-plus relaxation are monotone fixpoints, the final value at a
//! vertex is the minimum over path-ordered candidates, and a minimum
//! does not depend on the order its candidates arrive in. That is also
//! the whole delivery-order argument here (see [`crate::sharded`]): the
//! barrier applies candidates in group/worker order and needs no other.
//!
//! Only *push* traffic is messages, so `inter_shard_messages` stays a
//! subset of `messages`. WCC pushes along every scanned edge; for SSSP
//! both counters tally only *successful* relaxations, the monolithic
//! kernel's rule.

use graphalytics_cluster::WorkCounters;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::{Csr, VertexId};

use crate::common::frontier::Frontier;
use crate::sharded::Lanes;
use crate::trace::IterTimer;

use super::{Barrier, PushOut};

/// Sharded WCC: synchronous min-label rounds over a double-buffered
/// frontier pair.
pub(super) fn sharded_wcc(csr: &Csr, lanes: &Lanes<'_>, c: &mut WorkCounters) -> Vec<VertexId> {
    let n = csr.num_vertices();
    let directed = csr.is_directed();

    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut active = Frontier::new(n);
    for v in 0..n as u32 {
        active.insert(v);
    }
    let mut next = Frontier::new(n);
    let mut it = IterTimer::new("Iteration", c);
    let tracing = it.is_enabled();
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active_count = active.len();
        c.supersteps += 1;
        c.vertices_processed += active_count as u64;
        let label_ref = &label;
        let groups = lanes.run_over(tracing, active.members(), |lane| {
            let mut out = PushOut::default();
            lane.for_each(|u| {
                let lu = label_ref[u as usize];
                let mut push = |targets: &[u32]| {
                    out.edges += targets.len() as u64;
                    out.inter += lane.crossing(targets);
                    for &v in targets {
                        if lu < label_ref[v as usize] {
                            out.msgs.push((v, lu));
                        }
                    }
                };
                push(csr.out_neighbors(u));
                if directed {
                    push(csr.in_neighbors(u));
                }
            });
            out
        });
        let mut barrier = Barrier::default();
        barrier.drain(lanes, tracing, groups, |_, out| {
            c.edges_scanned += out.edges;
            c.add_messages(out.edges, 8);
            c.inter_shard_messages += out.inter;
            c.inter_shard_bytes += 8 * out.inter;
            for &(v, l) in &out.msgs {
                if l < label[v as usize] {
                    label[v as usize] = l;
                    next.insert(v);
                }
            }
            out.msgs.len()
        });
        std::mem::swap(&mut active, &mut next);
        next.clear();
        it.lap(c, |s| {
            barrier.annotate(lanes, s.with_info("active", active_count).with_info("mode", "push"))
        });
    }
    label.into_iter().map(|l| csr.id_of(l)).collect()
}

/// Sharded SSSP: synchronous label-correcting rounds. Each lane stages
/// improving candidates against the round's frozen distance snapshot;
/// the barrier applies them, counting one 12-byte message per successful
/// relaxation (and one inter-shard message when the producing shard does
/// not own the target).
pub(super) fn sharded_sssp(
    csr: &Csr,
    lanes: &Lanes<'_>,
    root: u32,
    c: &mut WorkCounters,
) -> Vec<f64> {
    let owner = lanes.owner().expect("sharded_sssp runs on sharded lanes");
    let n = csr.num_vertices();

    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut active = Frontier::singleton(n, root);
    let mut next = Frontier::new(n);
    let mut it = IterTimer::new("Iteration", c);
    let tracing = it.is_enabled();
    while !active.is_empty() {
        fault::tick(FaultSite::Superstep);
        let active_count = active.len();
        c.supersteps += 1;
        c.vertices_processed += active_count as u64;
        let dist_ref = &dist;
        let groups = lanes.run_over(tracing, active.members(), |lane| {
            let mut out = PushOut::default();
            lane.for_each(|u| {
                let du = dist_ref[u as usize];
                let targets = csr.out_neighbors(u);
                out.edges += targets.len() as u64;
                for (&v, &w) in targets.iter().zip(csr.out_weights(u)) {
                    let nd = du + w;
                    if nd < dist_ref[v as usize] {
                        out.msgs.push((v, nd));
                    }
                }
            });
            out
        });
        let mut relaxed = 0u64;
        let mut inter = 0u64;
        let mut barrier = Barrier::default();
        barrier.drain(lanes, tracing, groups, |s, out| {
            c.edges_scanned += out.edges;
            for &(v, nd) in &out.msgs {
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    relaxed += 1;
                    next.insert(v);
                    if owner[v as usize] != s as u32 {
                        inter += 1;
                    }
                }
            }
            out.msgs.len()
        });
        c.add_messages(relaxed, 12);
        c.inter_shard_messages += inter;
        c.inter_shard_bytes += 12 * inter;
        std::mem::swap(&mut active, &mut next);
        next.clear();
        it.lap(c, |s| {
            barrier.annotate(lanes, s.with_info("active", active_count).with_info("mode", "push"))
        });
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::platform::RunContext;
    use crate::sharded::ShardPlan;
    use graphalytics_core::params::AlgorithmParams;
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
    /// through threaded `Lanes::run_over` with multi-chunk `pool.run`.
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
    fn sharded_sssp_matches_single_shard_on_a_large_graph() {
        let csr = big_csr();
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
        let csr = csr();
        let engine = PushPullEngine;
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
