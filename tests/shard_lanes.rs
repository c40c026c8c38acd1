//! The lane contract (CI gate): a shard is a lane assignment — which
//! vertices each worker walks, on which pool, and which owner map prices
//! the cut — so everything a run *counts* must not depend on it.
//!
//! `sharded_equivalence` pins outputs and three logical counters. This
//! suite pins the rest, for pregel and pushpull at shards 2/3/4 × hash /
//! range placement:
//!
//! * every base `WorkCounters` field equals the monolithic run's, for
//!   every algorithm on both engines: a sharded run follows the
//!   monolithic schedule;
//! * `inter_shard_messages` / `inter_shard_bytes` equal a recomputation
//!   from the owner map and the CSR alone, for Pregel PageRank (fixed
//!   8-byte messages) and Pregel LCC (variable-size neighbour lists);
//! * the span tree a run leaves behind: sharded supersteps carry one
//!   `Shard` child per shard plus the barrier infos, monolithic ones
//!   carry exactly what they always did. Push–pull WCC and SSSP are
//!   caller-thread kernels on every upload, so their sharded spans keep
//!   the monolithic shape.

use std::sync::Arc;

use graphalytics::cluster::partition::{edge_cut_seeded, PartitionStrategy};
use graphalytics::engines::{Execution, ShardPlan, SpanRecord, WorkCounters};
use graphalytics::prelude::*;

const SHARDS: [u32; 3] = [2, 3, 4];
const STRATEGIES: [PartitionStrategy; 2] =
    [PartitionStrategy::HashEdgeCut, PartitionStrategy::RangeEdgeCut];
const SEED: u64 = 7;

fn plan(shards: u32, strategy: PartitionStrategy) -> ShardPlan {
    ShardPlan { shards, strategy, seed: SEED }
}

fn weighted_csr(pool: &WorkerPool) -> Arc<Csr> {
    let graph = Graph500Config::new(9).with_seed(53).with_weights(true).generate();
    Arc::new(graph.to_csr_with(pool).unwrap())
}

fn params(csr: &Csr) -> AlgorithmParams {
    AlgorithmParams::with_source(SourceSelection::MaxOutDegree.resolve(csr).unwrap())
}

/// Runs `algorithm` with tracing on; returns the execution and its spans.
fn traced(
    platform: &dyn Platform,
    loaded: &dyn LoadedGraph,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    pool: &WorkerPool,
) -> (Execution, Vec<SpanRecord>) {
    let mut ctx = RunContext::new(pool);
    let run = platform.run(loaded, algorithm, params, &mut ctx).unwrap();
    (run, ctx.take_spans())
}

/// The counters with the cut traffic blanked: what must equal the
/// monolithic run.
fn base(c: &WorkCounters) -> WorkCounters {
    WorkCounters { inter_shard_messages: 0, inter_shard_bytes: 0, ..*c }
}

#[test]
fn every_base_counter_is_lane_invariant() {
    let pool = WorkerPool::new(4);
    let csr = weighted_csr(&pool);
    let params = params(&csr);
    for name in ["pregel", "pushpull"] {
        let platform = platform_by_name(name).unwrap();
        let mono = platform.upload(csr.clone(), &pool).unwrap();
        let algorithms: Vec<Algorithm> =
            Algorithm::ALL.into_iter().filter(|&a| platform.supports(a)).collect();
        let baselines: Vec<Execution> = algorithms
            .iter()
            .map(|&a| traced(&*platform, mono.as_ref(), a, &params, &pool).0)
            .collect();
        platform.delete(mono);
        for strategy in STRATEGIES {
            for shards in SHARDS {
                let loaded =
                    platform.upload_sharded(csr.clone(), &plan(shards, strategy), &pool).unwrap();
                for (&algorithm, expect) in algorithms.iter().zip(&baselines) {
                    let what = format!("{name} {algorithm} at {shards} shards, {strategy:?}");
                    let (run, _) = traced(&*platform, loaded.as_ref(), algorithm, &params, &pool);
                    assert_eq!(expect.output, run.output, "{what}");
                    assert_eq!(expect.counters.inter_shard_messages, 0, "{what}: monolithic");
                    assert_eq!(expect.counters.inter_shard_bytes, 0, "{what}: monolithic");
                    assert_eq!(expect.counters, base(&run.counters), "{what}");
                    let c = &run.counters;
                    assert!(c.inter_shard_messages <= c.messages, "{what}");
                    assert!(c.inter_shard_bytes <= c.message_bytes, "{what}");
                }
                platform.delete(loaded);
            }
        }
    }
}

#[test]
fn pregel_cut_traffic_equals_recomputation_from_the_owner_map() {
    let pool = WorkerPool::new(4);
    let csr = weighted_csr(&pool);
    let params = params(&csr);
    let n = csr.num_vertices() as u32;
    let platform = platform_by_name("pregel").unwrap();
    for strategy in STRATEGIES {
        for shards in SHARDS {
            let owner = edge_cut_seeded(&csr, shards, strategy, SEED).owner;
            let crosses = |u: u32, v: u32| owner[u as usize] != owner[v as usize];
            let loaded =
                platform.upload_sharded(csr.clone(), &plan(shards, strategy), &pool).unwrap();
            let what = format!("{shards} shards, {strategy:?}");

            // PageRank: every non-dangling vertex sends one 8-byte share
            // along every out-arc in each of the `iterations` supersteps.
            let cut_arcs: u64 = (0..n)
                .map(|u| csr.out_neighbors(u).iter().filter(|&&v| crosses(u, v)).count() as u64)
                .sum();
            assert!(cut_arcs > 0, "{what}: the placement must cut something");
            let (pr, _) = traced(&*platform, loaded.as_ref(), Algorithm::PageRank, &params, &pool);
            let sent = params.pagerank_iterations as u64 * cut_arcs;
            assert_eq!(pr.counters.inter_shard_messages, sent, "PageRank, {what}");
            assert_eq!(pr.counters.inter_shard_bytes, 8 * sent, "PageRank, {what}");

            // LCC: a vertex with >= 2 neighbours ships its neighbour list
            // (8 + 4·|list| bytes) to each of them; each recipient replies
            // one 8-byte count along the same pair.
            let mut lists = 0u64;
            let mut list_bytes = 0u64;
            for u in 0..n {
                let neigh = csr.neighborhood_union(u);
                if neigh.len() < 2 {
                    continue;
                }
                let crossing = neigh.iter().filter(|&&v| crosses(u, v)).count() as u64;
                lists += crossing;
                list_bytes += crossing * (8 + 4 * neigh.len() as u64);
            }
            let (lcc, _) = traced(&*platform, loaded.as_ref(), Algorithm::Lcc, &params, &pool);
            assert_eq!(lcc.counters.inter_shard_messages, 2 * lists, "LCC, {what}");
            assert_eq!(lcc.counters.inter_shard_bytes, list_bytes + 8 * lists, "LCC, {what}");
            platform.delete(loaded);
        }
    }
}

fn keys(infos: &[(String, String)]) -> Vec<&str> {
    infos.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn span_trees_keep_their_shape() {
    let pool = WorkerPool::new(4);
    let csr = weighted_csr(&pool);
    let params = params(&csr);
    for (name, kind) in [("pregel", "Superstep"), ("pushpull", "Iteration")] {
        let platform = platform_by_name(name).unwrap();
        let mono = platform.upload(csr.clone(), &pool).unwrap();
        let two = platform.upload_sharded(csr.clone(), &ShardPlan::new(2), &pool).unwrap();
        let three = platform.upload_sharded(csr.clone(), &ShardPlan::new(3), &pool).unwrap();
        for algorithm in Algorithm::ALL {
            if !platform.supports(algorithm) {
                continue;
            }
            let what = format!("{name} {algorithm}");
            // Push–pull WCC and SSSP relax in place on the caller thread
            // on every upload: no lanes, so no sharded shape.
            let caller_thread =
                name == "pushpull" && matches!(algorithm, Algorithm::Wcc | Algorithm::Sssp);
            // Only push–pull BFS chooses a direction per iteration on the
            // monolithic upload; every sharded push–pull round names one.
            let mono_mode = name == "pushpull" && algorithm == Algorithm::Bfs;
            let mut mono_keys = vec!["index", "messages", "edges_scanned", "active"];
            mono_keys.extend(mono_mode.then_some("mode"));
            let mut sharded_keys = vec!["index", "messages", "edges_scanned", "active"];
            sharded_keys.extend((name == "pushpull").then_some("mode"));
            sharded_keys.extend(["queue_depth", "drain_secs"]);
            let child_keys: &[&str] =
                if name == "pregel" { &["shard", "messages", "edges_scanned"] } else { &["shard"] };

            let monolithic_shape = |spans: &[SpanRecord]| {
                for span in spans {
                    assert_eq!(span.name, kind, "{what}");
                    assert_eq!(keys(&span.infos), mono_keys, "{what}: monolithic infos");
                    assert!(span.children.is_empty(), "{what}: monolithic spans have no children");
                }
            };
            let (run, spans) = traced(&*platform, mono.as_ref(), algorithm, &params, &pool);
            assert_eq!(spans.len() as u64, run.counters.supersteps, "{what}");
            monolithic_shape(&spans);

            for (shards, loaded) in [(2usize, &two), (3, &three)] {
                let (run, spans) = traced(&*platform, loaded.as_ref(), algorithm, &params, &pool);
                assert_eq!(spans.len() as u64, run.counters.supersteps, "{what}");
                if caller_thread {
                    monolithic_shape(&spans);
                    continue;
                }
                let mut span_messages = 0u64;
                for span in &spans {
                    assert_eq!(span.name, kind, "{what}");
                    assert_eq!(keys(&span.infos), sharded_keys, "{what}: sharded infos");
                    assert_eq!(span.children.len(), shards, "{what}: one child per shard");
                    for (s, child) in span.children.iter().enumerate() {
                        assert_eq!(child.name, "Shard", "{what}");
                        assert_eq!(keys(&child.infos), child_keys, "{what}: shard infos");
                        assert_eq!(child.infos[0].1, s.to_string(), "{what}: shard order");
                        assert!(child.children.is_empty(), "{what}");
                    }
                    let info = |k: &str| {
                        let (_, v) = span.infos.iter().find(|(key, _)| key == k).unwrap();
                        v.clone()
                    };
                    span_messages += info("messages").parse::<u64>().unwrap();
                    assert!(info("drain_secs").parse::<f64>().unwrap() >= 0.0, "{what}");
                    info("queue_depth").parse::<u64>().unwrap();
                    if name == "pushpull" {
                        assert!(matches!(info("mode").as_str(), "push" | "pull"), "{what}");
                    }
                }
                assert_eq!(span_messages, run.counters.messages, "{what}: deltas sum up");
            }
        }
        for loaded in [mono, two, three] {
            platform.delete(loaded);
        }
    }
}
