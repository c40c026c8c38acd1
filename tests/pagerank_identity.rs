//! PageRank outputs and work counters, pinned bit for bit.
//!
//! Inputs: the R4, R1 (directed, with dangling vertices) and G22 proxies
//! at divisor 1024, seed 1, plus one hand-built directed graph with an
//! isolated vertex, dangling vertices, and vertices on both sides of a
//! dangling one. A dangling vertex has no out-arcs, so it is nobody's
//! in-neighbour; the hand-built graph puts a vertex whose only
//! out-neighbour is dangling next to a vertex whose only in-neighbour
//! feeds a dangling sink. Every run uses `AlgorithmParams::default()`
//! (10 iterations, d = 0.85).
//!
//! * (a) The reference output hashes to a pinned FNV-1a-64 value: each
//!   value's `to_bits()`, little-endian, in dense order.
//! * (b) Push–pull, native, SpMV and dataflow PageRank equal the
//!   reference bit for bit at pool widths 1 and 2, and push–pull also at
//!   two shards. Pregel and GAS are left out: they spread the dangling
//!   mass with a formula of their own, so on the directed graphs with
//!   dangling vertices (R1 and the hand-built one) their last bits differ
//!   from the reference. They still pass the epsilon match that
//!   `cross_engine_equivalence` applies.
//! * (c) All eight `WorkCounters` fields of every engine's PageRank equal
//!   pinned values, monolithic and, for the engines that shard, at two
//!   shards. Pool width 2 must give the width-1 counters.
//!
//! A speed-up of any PageRank kernel must leave all three unchanged. On a
//! mismatch the test prints every computed row in source form.

use std::sync::Arc;

use graphalytics::cluster::WorkCounters;
use graphalytics::core::datasets::dataset;
use graphalytics::core::output::OutputValues;
use graphalytics::engines::ShardPlan;
use graphalytics::harness::proxy::materialize_with;
use graphalytics::prelude::*;

/// Engines whose PageRank equals the reference bit for bit.
const BIT_IDENTICAL: [&str; 4] = ["pushpull", "native", "spmv", "dataflow"];

/// `(graph, reference hash)`.
const REFERENCE: [(&str, u64); 4] = [
    ("R4", 0xd95c39e1fa911148),
    ("R1", 0x1431df63d31c3b07),
    ("G22", 0x37a05438962158ea),
    ("hand", 0xf9c4b84b08e059f6),
];

/// `(graph, engine, shards, [vertices_processed, edges_scanned, messages,
/// message_bytes, supersteps, random_accesses, inter_shard_messages,
/// inter_shard_bytes])`.
type CounterRow = (&'static str, &'static str, u32, [u64; 8]);

#[rustfmt::skip]
const COUNTERS: [CounterRow; 32] = [
    ("R4", "pregel", 1, [11264, 909820, 909820, 7278560, 11, 0, 0, 0]),
    ("R4", "pregel", 2, [11264, 909820, 909820, 7278560, 11, 0, 454320, 3634560]),
    ("R4", "dataflow", 1, [20480, 909820, 20480, 245760, 10, 0, 0, 0]),
    ("R4", "gas", 1, [10240, 909820, 909820, 7278560, 10, 0, 0, 0]),
    ("R4", "spmv", 1, [10240, 909820, 909820, 7278560, 10, 0, 0, 0]),
    ("R4", "native", 1, [10240, 909820, 0, 0, 10, 0, 0, 0]),
    ("R4", "pushpull", 1, [10240, 909820, 0, 0, 10, 0, 0, 0]),
    ("R4", "pushpull", 2, [10240, 909820, 0, 0, 10, 0, 0, 0]),
    ("R1", "pregel", 1, [12507, 36820, 36820, 294560, 11, 0, 0, 0]),
    ("R1", "pregel", 2, [12507, 36820, 36820, 294560, 11, 0, 19480, 155840]),
    ("R1", "dataflow", 1, [22740, 36820, 19600, 235200, 10, 0, 0, 0]),
    ("R1", "gas", 1, [11370, 36820, 36820, 294560, 10, 0, 0, 0]),
    ("R1", "spmv", 1, [11370, 36820, 36820, 294560, 10, 0, 0, 0]),
    ("R1", "native", 1, [11370, 36820, 0, 0, 10, 0, 0, 0]),
    ("R1", "pushpull", 1, [11370, 36820, 0, 0, 10, 0, 0, 0]),
    ("R1", "pushpull", 2, [11370, 36820, 0, 0, 10, 0, 0, 0]),
    ("G22", "pregel", 1, [36652, 964800, 964800, 7718400, 11, 0, 0, 0]),
    ("G22", "pregel", 2, [36652, 964800, 964800, 7718400, 11, 0, 484620, 3876960]),
    ("G22", "dataflow", 1, [66640, 964800, 66640, 799680, 10, 0, 0, 0]),
    ("G22", "gas", 1, [33320, 964800, 964800, 7718400, 10, 0, 0, 0]),
    ("G22", "spmv", 1, [33320, 964800, 964800, 7718400, 10, 0, 0, 0]),
    ("G22", "native", 1, [33320, 964800, 0, 0, 10, 0, 0, 0]),
    ("G22", "pushpull", 1, [33320, 964800, 0, 0, 10, 0, 0, 0]),
    ("G22", "pushpull", 2, [33320, 964800, 0, 0, 10, 0, 0, 0]),
    ("hand", "pregel", 1, [77, 70, 70, 560, 11, 0, 0, 0]),
    ("hand", "pregel", 2, [77, 70, 70, 560, 11, 0, 20, 160]),
    ("hand", "dataflow", 1, [140, 70, 130, 1560, 10, 0, 0, 0]),
    ("hand", "gas", 1, [70, 70, 70, 560, 10, 0, 0, 0]),
    ("hand", "spmv", 1, [70, 70, 70, 560, 10, 0, 0, 0]),
    ("hand", "native", 1, [70, 70, 0, 0, 10, 0, 0, 0]),
    ("hand", "pushpull", 1, [70, 70, 0, 0, 10, 0, 0, 0]),
    ("hand", "pushpull", 2, [70, 70, 0, 0, 10, 0, 0, 0]),
];

fn fnv1a(values: &[f64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Ids are sparse and out of order on purpose: 70 is isolated, 40 and
/// 60 are dangling, 30's only out-neighbour is dangling 40, and 50's
/// only in-neighbour is 20, which also feeds 40.
fn hand_built() -> Csr {
    let mut b = GraphBuilder::new(true);
    for v in [10u64, 20, 30, 40, 50, 60, 70] {
        b.add_vertex(v);
    }
    for (s, d) in [
        (10, 20),
        (10, 30),
        (20, 40),
        (20, 50),
        (30, 40),
        (50, 10),
        (50, 60),
    ] {
        b.add_edge(s, d);
    }
    b.build().unwrap().to_csr()
}

fn graphs(pool: &WorkerPool) -> Vec<(&'static str, Arc<Csr>)> {
    let mut graphs: Vec<(&'static str, Arc<Csr>)> = ["R4", "R1", "G22"]
        .into_iter()
        .map(|id| {
            let spec = dataset(id).unwrap();
            (
                id,
                Arc::new(
                    materialize_with(spec, 1024, 1, pool)
                        .to_csr_with(pool)
                        .unwrap(),
                ),
            )
        })
        .collect();
    graphs.push(("hand", Arc::new(hand_built())));
    graphs
}

fn ranks(output: &OutputValues) -> &[f64] {
    match output {
        OutputValues::F64(values) => values,
        other => panic!("PageRank produced {} values", other.type_tag()),
    }
}

fn fields(c: &WorkCounters) -> [u64; 8] {
    [
        c.vertices_processed,
        c.edges_scanned,
        c.messages,
        c.message_bytes,
        c.supersteps,
        c.random_accesses,
        c.inter_shard_messages,
        c.inter_shard_bytes,
    ]
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn pagerank_outputs_and_counters_are_pinned() {
    let params = AlgorithmParams::default();
    let widths = [WorkerPool::inline(), WorkerPool::new(2)];
    let mut hashes = Vec::new();
    let mut counters: Vec<CounterRow> = Vec::new();
    let mut mismatches = Vec::new();
    for (name, csr) in graphs(&widths[1]) {
        let reference = run_reference(&csr, Algorithm::PageRank, &params).unwrap();
        let expected = ranks(&reference.values);
        hashes.push((name, fnv1a(expected)));
        for platform in all_platforms() {
            let shard_counts: &[u32] = if platform.supports_sharded() {
                &[1, 2]
            } else {
                &[1]
            };
            for &shards in shard_counts {
                let mut pinned = None;
                for pool in &widths {
                    let loaded = platform
                        .upload_sharded(csr.clone(), &ShardPlan::new(shards), pool)
                        .unwrap();
                    let mut ctx = RunContext::new(pool);
                    let run = platform
                        .run(loaded.as_ref(), Algorithm::PageRank, &params, &mut ctx)
                        .unwrap();
                    platform.delete(loaded);
                    let cell = format!(
                        "{} on {name} at {shards} shard(s), width {}",
                        platform.name(),
                        pool.threads()
                    );
                    let c = fields(&run.counters);
                    match pinned {
                        None => pinned = Some(c),
                        Some(p) if p != c => {
                            mismatches.push(format!("{cell}: counters {c:?} != {p:?}"))
                        }
                        Some(_) => {}
                    }
                    if BIT_IDENTICAL.contains(&platform.name())
                        && !same_bits(ranks(&run.output.values), expected)
                    {
                        mismatches.push(format!("{cell}: output differs from the reference"));
                    }
                }
                counters.push((name, platform.name(), shards, pinned.unwrap()));
            }
        }
    }
    if hashes != REFERENCE || counters != COUNTERS {
        for (name, h) in &hashes {
            println!("    ({name:?}, {h:#018x}),");
        }
        for (name, engine, shards, c) in &counters {
            println!("    ({name:?}, {engine:?}, {shards}, {c:?}),");
        }
        mismatches.push("pinned reference hashes or counters differ".to_string());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
