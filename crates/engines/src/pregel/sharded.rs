//! The sharded BSP runtime: N shards, one [`WorkerPool`] each, explicit
//! inter-shard message queues — bit-identical to [`run_pregel`].
//!
//! Each superstep, one driver thread per shard runs the shard's owned
//! vertices on the shard's own pool. Messages are tagged with their
//! sender and staged per shard; the barrier drains the queues in a
//! deterministic order and rebuilds every inbox *sorted by sender*
//! (stable), which reproduces exactly the order a single-shard run
//! delivers (workers merge in order over ascending contiguous ranges, so
//! single-shard inboxes are ascending-sender too). Together with the
//! canonical per-vertex aggregator shared with [`run_pregel`], every
//! vertex observes bit-identical inputs in every superstep, for every
//! owner map — which is what makes N-shard output equal single-shard
//! output down to the last bit.
//!
//! Messages whose sender and receiver live on different shards are the
//! traffic a real deployment would put on the wire; they land in
//! [`WorkCounters::inter_shard_messages`]/`inter_shard_bytes` while all
//! base counters keep their single-shard values.

use std::time::Instant;

use graphalytics_cluster::WorkCounters;
use graphalytics_core::Csr;

use crate::common::pool::SharedSlice;
use crate::platform::LoadedGraph;
use crate::sharded::{ShardLayout, ShardSet};
use crate::trace::{self, IterTimer, SpanRecord};

use super::{run_pregel, ComputeCtx, VertexProgram};

/// The sharded uploaded representation of the Pregel engine: the shard
/// set (per-shard CSRs + pools) standing in for Giraph's per-worker
/// partition stores.
pub struct PregelShardedGraph {
    set: ShardSet,
}

impl PregelShardedGraph {
    pub(crate) fn new(set: ShardSet) -> Self {
        PregelShardedGraph { set }
    }

    /// The underlying shard set.
    #[inline]
    pub fn set(&self) -> &ShardSet {
        &self.set
    }
}

impl LoadedGraph for PregelShardedGraph {
    fn csr(&self) -> &Csr {
        self.set.csr()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        self.set.resident_bytes()
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        Some(self.set.layout())
    }
}

/// What one shard worker hands to the barrier: sender-tagged messages
/// (with per-message payload bytes) plus its side counters.
struct WorkerOut<M> {
    tagged: Vec<(u32, u32, M, u64)>,
    edges_scanned: u64,
    random_accesses: u64,
    message_bytes: u64,
}

/// Runs `program` across the shard set; same contract as [`run_pregel`]
/// (final values in dense vertex order, counters populated) plus
/// inter-shard traffic accounting. Falls back to the single-shard loop
/// for one shard.
pub fn run_pregel_sharded<P: VertexProgram>(
    set: &ShardSet,
    program: &P,
    counters: &mut WorkCounters,
) -> Vec<P::Value> {
    let sharded = set.sharded();
    let csr: &Csr = set.csr();
    if sharded.num_shards() <= 1 {
        return run_pregel(csr, program, &set.pools()[0], counters);
    }
    let owner = sharded.owner();
    let n = csr.num_vertices();

    let mut values: Vec<P::Value> = (0..n as u32).map(|u| program.init(u, csr)).collect();
    let mut inboxes: Vec<Vec<P::Message>> = (0..n).map(|_| Vec::new()).collect();
    let mut active = vec![true; n];
    let mut agg_contrib = vec![0.0f64; n];
    let mut aggregate = 0.0f64;
    let msg_bytes = program.message_bytes();

    let mut superstep = 0u64;
    // Captured once on the caller thread: the superstep loop runs here,
    // so shard drivers time themselves and report back instead of
    // touching the (thread-local) collector.
    let tracing = trace::active();
    let mut it = IterTimer::new("Superstep", counters);
    loop {
        graphalytics_core::fault::tick(graphalytics_core::fault::FaultSite::Superstep);
        let active_count =
            if tracing { active.iter().filter(|&&a| a).count() } else { 0 };
        counters.supersteps += 1;
        // Every shard's partition store scans all its owned vertices:
        // collectively |V| per superstep, as in the single-shard loop.
        counters.vertices_processed += n as u64;

        let values_ptr = SharedSlice::new(values.as_mut_ptr());
        let active_ptr = SharedSlice::new(active.as_mut_ptr());
        let agg_ptr = SharedSlice::new(agg_contrib.as_mut_ptr());
        let inbox_ref: &Vec<Vec<P::Message>> = &inboxes;

        // Compute phase: every shard runs its owned vertices on its own
        // pool, concurrently (`ShardSet::run_shards`). Shards touch
        // disjoint vertex sets, so the SharedSlice writes are race-free
        // across shards exactly as across pool workers.
        let shard_outputs = set.run_shards(tracing, |_, shard, pool| {
            pool.run(shard.len(), |_, lrange| {
                let mut ctx = ComputeCtx::with_size_tracking(msg_bytes);
                let mut tagged = Vec::new();
                for li in lrange {
                    let u = shard.global(li) as usize;
                    let has_messages = !inbox_ref[u].is_empty();
                    // SAFETY: shards own disjoint vertex sets and
                    // local ranges are disjoint within a shard;
                    // only this worker touches u.
                    let (value, act) =
                        unsafe { (values_ptr.at(u), active_ptr.at(u)) };
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
                    let sizes =
                        ctx.sizes.as_mut().expect("size tracking enabled");
                    for ((target, msg), bytes) in
                        ctx.outbox.drain(..).zip(sizes.drain(..))
                    {
                        tagged.push((u as u32, target, msg, bytes));
                    }
                }
                WorkerOut {
                    tagged,
                    edges_scanned: ctx.edges_scanned,
                    random_accesses: ctx.random_accesses,
                    message_bytes: ctx.message_bytes,
                }
            })
        });

        // Barrier: drain the shard queues in deterministic order (shard
        // major, then worker order), accounting inter-shard traffic.
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        let mut in_flight: Vec<(u32, u32, P::Message, u64)> = Vec::new();
        let mut shard_spans: Vec<SpanRecord> = Vec::new();
        for (s, (compute_secs, workers)) in shard_outputs.into_iter().enumerate() {
            let mut shard_messages = 0u64;
            let mut shard_edges = 0u64;
            for out in workers {
                counters.edges_scanned += out.edges_scanned;
                counters.random_accesses += out.random_accesses;
                counters.messages += out.tagged.len() as u64;
                counters.message_bytes += out.message_bytes;
                shard_edges += out.edges_scanned;
                shard_messages += out.tagged.len() as u64;
                for (sender, target, msg, bytes) in out.tagged {
                    if owner[target as usize] != s as u32 {
                        counters.inter_shard_messages += 1;
                        counters.inter_shard_bytes += bytes;
                    }
                    in_flight.push((sender, target, msg, bytes));
                }
            }
            if tracing {
                shard_spans.push(
                    SpanRecord::new("Shard", compute_secs)
                        .with_info("shard", s)
                        .with_info("messages", shard_messages)
                        .with_info("edges_scanned", shard_edges),
                );
            }
        }
        let any_messages = !in_flight.is_empty();
        let queue_depth = in_flight.len();
        let drain_t = tracing.then(Instant::now);
        // Deliver sorted by (target, sender), stable: each inbox ends up
        // in ascending-sender order with per-sender send order preserved
        // — exactly the single-shard delivery order.
        in_flight.sort_by_key(|m| (m.1, m.0));
        for (_, target, msg, _) in in_flight {
            inboxes[target as usize].push(msg);
        }
        let drain_secs = drain_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        // Canonical aggregate, identical to run_pregel's barrier.
        aggregate = agg_contrib.iter().sum();

        superstep += 1;
        it.lap(counters, |mut span| {
            for child in shard_spans {
                span = span.with_child(child);
            }
            span.with_info("active", active_count)
                .with_info("queue_depth", queue_depth)
                .with_info("drain_secs", format!("{drain_secs:.9}"))
        });
        let any_active = active.iter().any(|&a| a);
        if (!any_active && !any_messages) || superstep >= program.max_supersteps() {
            break;
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::pool::WorkerPool;
    use crate::sharded::ShardPlan;
    use graphalytics_core::GraphBuilder;
    use std::sync::Arc;

    fn csr() -> Arc<Csr> {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(200);
        for v in 0..200u64 {
            b.add_edge(v, (v + 1) % 200);
            b.add_edge(v, (v + 103) % 200);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    #[test]
    fn sharded_bfs_bit_identical_with_inter_shard_traffic() {
        let csr = csr();
        let pool = WorkerPool::new(4);
        let program = super::super::BfsProgram { root: 0 };
        let mut base = WorkCounters::new();
        let baseline = run_pregel(&csr, &program, &pool, &mut base);
        for shards in [2u32, 3, 4] {
            let set = ShardSet::build(csr.clone(), &ShardPlan::new(shards), &pool).unwrap();
            let mut c = WorkCounters::new();
            let values = run_pregel_sharded(&set, &program, &mut c);
            assert_eq!(values, baseline, "{shards} shards");
            assert_eq!(c.supersteps, base.supersteps);
            assert_eq!(c.messages, base.messages);
            assert_eq!(c.edges_scanned, base.edges_scanned);
            assert!(c.inter_shard_messages > 0, "hash cut must cross shards");
            assert!(c.inter_shard_messages <= c.messages);
            assert!(c.inter_shard_bytes > 0);
        }
    }

    #[test]
    fn sharded_supersteps_carry_per_shard_spans() {
        let csr = csr();
        let pool = WorkerPool::new(2);
        let set = ShardSet::build(csr, &ShardPlan::new(2), &pool).unwrap();
        let program = super::super::BfsProgram { root: 0 };
        trace::install(true);
        let mut c = WorkCounters::new();
        let _ = run_pregel_sharded(&set, &program, &mut c);
        let spans = crate::trace::drain();
        assert_eq!(spans.len() as u64, c.supersteps);
        for span in &spans {
            assert_eq!(span.name, "Superstep");
            assert_eq!(span.children.len(), 2, "one child per shard");
            assert!(span.children.iter().all(|ch| ch.name == "Shard"));
            let keys: Vec<&str> = span.infos.iter().map(|(k, _)| k.as_str()).collect();
            for key in ["index", "messages", "edges_scanned", "active", "queue_depth", "drain_secs"] {
                assert!(keys.contains(&key), "missing info {key}");
            }
        }
        // Some superstep moved messages between shards.
        assert!(spans.iter().any(|s| {
            s.infos.iter().any(|(k, v)| k == "queue_depth" && v != "0")
        }));
    }

    #[test]
    fn one_shard_set_matches_plain_run() {
        let csr = csr();
        let pool = WorkerPool::new(2);
        let program = super::super::WccProgram;
        let mut base = WorkCounters::new();
        let baseline = run_pregel(&csr, &program, &pool, &mut base);
        let set = ShardSet::build(csr, &ShardPlan::new(1), &pool).unwrap();
        let mut c = WorkCounters::new();
        let values = run_pregel_sharded(&set, &program, &mut c);
        assert_eq!(values, baseline);
        assert_eq!(c.inter_shard_messages, 0);
    }
}
