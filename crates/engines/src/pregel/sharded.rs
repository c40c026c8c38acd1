//! The one BSP loop on sharded lanes: bit-identical to the monolithic
//! run, cut traffic accounted, per-shard spans under every superstep.
//! (Tests only — there is no sharded Pregel runtime; see
//! [`run_pregel`](super::run_pregel) and [`crate::sharded`].)

mod tests {
    use super::super::{run_pregel, BfsProgram, WccProgram};
    use crate::common::pool::WorkerPool;
    use crate::sharded::{Lanes, ShardPlan, ShardSet};
    use crate::trace;
    use graphalytics_cluster::WorkCounters;
    use graphalytics_core::Csr;
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
        let program = BfsProgram { root: 0 };
        let mut base = WorkCounters::new();
        let baseline = run_pregel(&csr, &program, &Lanes::new(200, &pool, None), &mut base);
        for shards in [2u32, 3, 4] {
            let set = ShardSet::build(csr.clone(), &ShardPlan::new(shards)).unwrap();
            let mut c = WorkCounters::new();
            let values = run_pregel(set.csr(), &program, &Lanes::new(200, &pool, Some(&set)), &mut c);
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
        let set = ShardSet::build(csr, &ShardPlan::new(2)).unwrap();
        let program = BfsProgram { root: 0 };
        trace::install(true);
        let mut c = WorkCounters::new();
        let _ = run_pregel(set.csr(), &program, &Lanes::new(200, &pool, Some(&set)), &mut c);
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
        let program = WccProgram;
        let mut base = WorkCounters::new();
        let baseline = run_pregel(&csr, &program, &Lanes::new(200, &pool, None), &mut base);
        let set = ShardSet::build(csr, &ShardPlan::new(1)).unwrap();
        let mut c = WorkCounters::new();
        let values = run_pregel(set.csr(), &program, &Lanes::new(200, &pool, Some(&set)), &mut c);
        assert_eq!(values, baseline);
        assert_eq!(c.inter_shard_messages, 0);
    }
}
