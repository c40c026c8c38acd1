//! The benchmark algorithms on the dataflow engine.
//!
//! Everything goes through dataset operations: vertex-view shipping, full
//! edge scans, message shuffles, and per-iteration re-materialization of
//! the vertex dataset — the GraphX execution pattern.

use graphalytics_core::algorithms::cdlp::mode_label;
use graphalytics_core::fault::{self, FaultSite};
use graphalytics_core::{Csr, VertexId};

use graphalytics_cluster::WorkCounters;

use crate::common::pool::WorkerPool;
use crate::common::Grouped;
use crate::platform::LoadedGraph;
use crate::trace::IterTimer;

use super::{reduce_by_key, regroup_by_key, scan, DataflowGraph, Dataset, Slots};

/// Builds the edge dataset `(src, dst, weight)` partitioned by source:
/// [`Dataset::from_exact`]'s partitions of the arc list that walks the
/// vertices in order, each one's out-row then (with `both_directions`,
/// on a directed CSR) its in-row. For undirected CSR the out-rows
/// already contain both orientations. Called once per direction by the
/// upload phase (see [`DataflowGraph`]); iterations reuse the cached
/// datasets. The partitions fill on `pool` straight from the CSR rows,
/// no flat arc list between: each finds its first vertex by a binary
/// search over the cumulative row lengths.
pub fn edge_dataset(
    csr: &Csr,
    parts: usize,
    both_directions: bool,
    pool: &WorkerPool,
) -> Dataset<(u32, u32, f64)> {
    let reverse = both_directions && csr.is_directed();
    let n = csr.num_vertices() as u32;
    // Arcs in the list before vertex `u`'s.
    let before = |u: u32| csr.out_offset(u) + if reverse { csr.in_offset(u) } else { 0 };
    let rows = |u: u32| {
        let out = (csr.out_neighbors(u), csr.out_weights(u));
        [out, if reverse { (csr.in_neighbors(u), csr.in_weights(u)) } else { (&[][..], &[][..]) }]
    };
    Dataset::fill_on(before(n), parts, pool, |records, part| {
        // The first vertex whose arcs reach past the partition's start.
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid + 1) <= records.start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut skip = records.start - before(lo);
        for u in lo..n {
            for (targets, weights) in rows(u) {
                let from = skip.min(targets.len());
                let to = targets.len().min(from + records.len() - part.len());
                let row = targets[from..to].iter().zip(&weights[from..to]);
                part.extend(row.map(|(&v, &w)| (u, v, w)));
                skip -= from;
            }
            if part.len() == records.len() {
                break;
            }
        }
    })
}

/// The generic Pregel-on-joins loop for algorithms with a message
/// combiner (BFS, SSSP, WCC), over a pre-partitioned (uploaded) edge
/// dataset.
///
/// Per iteration: ship active vertex values to edge partitions, scan the
/// *entire* edge dataset producing messages from active sources, shuffle-
/// reduce messages by target, then join them back, materializing the
/// next vertex dataset as a full copy of the current one. The run keeps
/// its scan chunks, slot table and both vertex datasets across rounds.
#[allow(clippy::too_many_arguments)]
pub fn pregel_loop<V, M>(
    csr: &Csr,
    edges: &Dataset<(u32, u32, f64)>,
    pool: &WorkerPool,
    c: &mut WorkCounters,
    init: impl Fn(u32) -> V,
    initially_active: Vec<u32>,
    send: impl Fn(u32, u32, f64, &V) -> Option<M> + Sync,
    combine: impl Fn(M, M) -> M,
    apply: impl Fn(&V, M) -> (V, bool),
    message_bytes: u64,
) -> Vec<V>
where
    V: Clone + Sync,
    M: Send,
{
    let n = csr.num_vertices();
    let total_arcs = edges.count() as u64;
    let mut values: Vec<V> = (0..n as u32).map(&init).collect();
    let mut next_values = values.clone();
    let (mut active, mut next_active) = (vec![false; n], vec![false; n]);
    let mut active_count = 0u64;
    for v in initially_active {
        if !active[v as usize] {
            active[v as usize] = true;
            active_count += 1;
        }
    }
    let (mut chunks, mut slots) = (Vec::new(), Slots::default());
    let mut it = IterTimer::new("Round", c);
    while active_count > 0 {
        fault::tick(FaultSite::Superstep);
        let round_active = active_count;
        c.supersteps += 1;
        // Ship active vertex views to edge partitions (replication).
        c.add_messages(active_count, message_bytes + 4);
        // Scan the edge partitions on the pool (task-parallel partition
        // scans, like Spark executors). Only active sources emit.
        c.edges_scanned += total_arcs;
        let (active_ref, values_ref) = (&active, &values);
        scan(pool, edges.partitions(), &mut chunks, |&(s, d, w), out| {
            if active_ref[s as usize] {
                if let Some(m) = send(s, d, w, &values_ref[s as usize]) {
                    out.push((d, m));
                }
            }
        });
        slots.reduce(&mut chunks, n, message_bytes, c, &combine);
        // Join messages into the next vertex dataset.
        c.vertices_processed += n as u64; // full copy materialized
        next_values.clone_from_slice(&values);
        next_active.fill(false);
        let mut next_count = 0u64;
        for (v, m) in slots.drain() {
            let (nv, becomes_active) = apply(&values[v as usize], m);
            next_values[v as usize] = nv;
            if becomes_active && !next_active[v as usize] {
                next_active[v as usize] = true;
                next_count += 1;
            }
        }
        std::mem::swap(&mut values, &mut next_values);
        std::mem::swap(&mut active, &mut next_active);
        active_count = next_count;
        it.lap(c, |s| s.with_info("active", round_active));
    }
    values
}

/// BFS with a min combiner.
pub fn bfs(g: &DataflowGraph, root: u32, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<i64> {
    pregel_loop(
        g.csr(),
        g.edges_out(),
        pool,
        c,
        |u| if u == root { 0i64 } else { i64::MAX },
        vec![root],
        |_s, _d, _w, v| if *v == i64::MAX { None } else { Some(*v + 1) },
        |a: i64, b: i64| a.min(b),
        |old, m| if m < *old { (m, true) } else { (*old, false) },
        8,
    )
}

/// SSSP with a min combiner over weighted relaxations.
pub fn sssp(g: &DataflowGraph, root: u32, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    pregel_loop(
        g.csr(),
        g.edges_out(),
        pool,
        c,
        |u| if u == root { 0.0f64 } else { f64::INFINITY },
        vec![root],
        |_s, _d, w, v| if v.is_finite() { Some(*v + w) } else { None },
        |a: f64, b: f64| a.min(b),
        |old, m| if m < *old { (m, true) } else { (*old, false) },
        12,
    )
}

/// WCC: min-label diffusion over both directions.
pub fn wcc(g: &DataflowGraph, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<VertexId> {
    let csr = g.csr();
    let n = csr.num_vertices();
    pregel_loop(
        csr,
        g.edges_both(),
        pool,
        c,
        |u| csr.id_of(u),
        (0..n as u32).collect(),
        |_s, _d, _w, v| Some(*v),
        |a: VertexId, b: VertexId| a.min(b),
        |old, m| if m < *old { (m, true) } else { (*old, false) },
        8,
    )
}

/// PageRank: full dense iterations with shipped views and a sum combiner.
pub fn pagerank(
    g: &DataflowGraph,
    iterations: u32,
    damping: f64,
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Vec<f64> {
    let csr = g.csr();
    let n = csr.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let inv_n = 1.0 / n as f64;
    let edges = g.edges_out();
    let total_arcs = edges.count() as u64;
    let (mut rank, mut next) = (vec![inv_n; n], vec![0.0; n]);
    let (mut chunks, mut slots) = (Vec::new(), Slots::default());
    let mut it = IterTimer::new("Round", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        // Dangling aggregate: a narrow scan over the vertex dataset.
        c.vertices_processed += n as u64;
        let dangling: f64 =
            (0..n as u32).filter(|&u| csr.out_degree(u) == 0).map(|u| rank[u as usize]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        // Ship every vertex view; scan every edge.
        c.add_messages(n as u64, 12);
        c.edges_scanned += total_arcs;
        let rank_ref = &rank;
        scan(pool, edges.partitions(), &mut chunks, |&(s, d, _w), out| {
            out.push((d, rank_ref[s as usize] / csr.out_degree(s) as f64));
        });
        slots.reduce(&mut chunks, n, 12, c, |a, b| a + b);
        // Materialize the next vertex dataset.
        c.vertices_processed += n as u64;
        next.fill(base);
        for (v, s) in slots.drain() {
            next[v as usize] = base + damping * s;
        }
        std::mem::swap(&mut rank, &mut next);
        it.lap(c, |s| s.with_info("active", n));
    }
    rank
}

/// CDLP: label multisets via `groupByKey` — no combiner exists for the
/// mode, so every label record crosses the shuffle and whole multisets
/// materialize per vertex. Each vertex's mode is taken on the pool over
/// disjoint vertex ranges.
pub fn cdlp(
    g: &DataflowGraph,
    iterations: u32,
    pool: &WorkerPool,
    c: &mut WorkCounters,
) -> Vec<VertexId> {
    let csr = g.csr();
    let n = csr.num_vertices();
    let edges = g.edges_both();
    let total_arcs = edges.count() as u64;
    let mut labels: Vec<VertexId> = (0..n as u32).map(|u| csr.id_of(u)).collect();
    let mut next = vec![0; n];
    let (mut chunks, mut grouped) = (Vec::new(), Grouped::default());
    let mut it = IterTimer::new("Round", c);
    for _ in 0..iterations {
        fault::tick(FaultSite::Superstep);
        c.supersteps += 1;
        c.add_messages(n as u64, 12); // vertex views
        c.edges_scanned += total_arcs;
        let labels_ref = &labels;
        // Both orientations are present, so each arc delivers the source
        // label to the target.
        scan(pool, edges.partitions(), &mut chunks, |&(s, d, _w), out| {
            out.push((d, labels_ref[s as usize]));
        });
        regroup_by_key(&mut grouped, &chunks, n, 8, c, pool);
        c.random_accesses += total_arcs;
        // The next vertex dataset: every vertex's mode, or its label
        // when it heard no vote.
        c.vertices_processed += n as u64;
        grouped.for_each_group_mut(pool, &mut next, |v, votes, label| {
            *label = mode_label(votes).unwrap_or(labels_ref[v as usize]);
        });
        std::mem::swap(&mut labels, &mut next);
        it.lap(c, |s| s.with_info("active", n));
    }
    labels
}

/// LCC: collect neighbour sets, ship each vertex's set to its neighbours,
/// count intersections, reduce. The shipped sets are the `Σ d(v)²`-scale
/// shuffle that breaks JVM dataflow engines on dense graphs.
pub fn lcc(csr: &Csr, pool: &WorkerPool, c: &mut WorkCounters) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut it = IterTimer::new("Round", c);
    // Stage 1: neighbour sets (group arcs by source over both directions).
    fault::tick(FaultSite::Superstep);
    c.supersteps += 1;
    let mut arcs: Vec<(u32, u32)> = Vec::with_capacity(csr.num_arcs());
    for u in 0..n as u32 {
        for &v in csr.out_neighbors(u) {
            arcs.push((u, v));
            if csr.is_directed() {
                arcs.push((v, u));
            }
        }
    }
    c.edges_scanned += arcs.len() as u64;
    let mut neighborhoods = Grouped::default();
    regroup_by_key(&mut neighborhoods, &[arcs], n, 8, c, pool);
    neighborhoods.sort_dedup();
    c.vertices_processed += n as u64;
    it.lap(c, |s| s.with_info("active", n));

    // Stage 2: ship N(v) to every member of N(v); intersect with out(u).
    // A request `(u, v)` stands for the shipped copy of N(v) arriving at u.
    fault::tick(FaultSite::Superstep);
    c.supersteps += 1;
    let mut requests: Vec<(u32, u32)> = Vec::new();
    let mut shipped_bytes = 0u64;
    for v in 0..n as u32 {
        let set = neighborhoods.group(v);
        if set.len() < 2 {
            continue;
        }
        requests.extend(set.iter().map(|&u| (u, v)));
        shipped_bytes += set.len() as u64 * (8 + 4 * set.len() as u64);
    }
    c.messages += requests.len() as u64;
    c.message_bytes += shipped_bytes;

    // Intersections run task-parallel over request chunks.
    let (scanned, counts): (Vec<u64>, Vec<Vec<(u32, f64)>>) = pool
        .run(requests.len(), |_, rrange| {
            let mut scanned = 0u64;
            let mut local: Vec<(u32, f64)> = Vec::with_capacity(rrange.len());
            for &(u, v) in &requests[rrange] {
                let (ou, set) = (csr.out_neighbors(u), neighborhoods.group(v));
                scanned += ou.len().min(set.len()) as u64;
                let links = graphalytics_core::algorithms::lcc::intersect_count(ou, set);
                local.push((v, links as f64));
            }
            (scanned, local)
        })
        .into_iter()
        .unzip();
    c.edges_scanned += scanned.iter().sum::<u64>();
    let sums = reduce_by_key(counts, n, 12, c, |a, b| a + b);
    c.vertices_processed += n as u64;
    let mut out = vec![0.0f64; n];
    for (v, links) in sums {
        let d = neighborhoods.group(v).len() as f64;
        if d >= 2.0 {
            out[v as usize] = links / (d * (d - 1.0));
        }
    }
    it.lap(c, |s| s.with_info("active", n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, RunContext};
    use graphalytics_core::params::AlgorithmParams;
    use graphalytics_core::{Algorithm, GraphBuilder};
    use std::sync::Arc;

    fn sample(directed: bool) -> Arc<Csr> {
        let mut b = GraphBuilder::new(directed);
        b.set_weighted(true);
        b.add_vertex_range(6);
        for (s, d, w) in
            [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 3.0), (2, 3, 1.0), (3, 4, 2.0), (1, 4, 9.0)]
        {
            b.add_weighted_edge(s, d, w);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    fn uploaded(csr: &Arc<Csr>, pool: &WorkerPool) -> Box<dyn crate::platform::LoadedGraph> {
        crate::dataflow::DataflowEngine.upload(csr.clone(), pool).unwrap()
    }

    #[test]
    fn all_algorithms_match_reference() {
        for directed in [true, false] {
            let csr = sample(directed);
            let engine = crate::dataflow::DataflowEngine;
            let params = AlgorithmParams::with_source(0);
            let pool = WorkerPool::new(2);
            let loaded = engine.upload(csr.clone(), &pool).unwrap();
            for alg in Algorithm::ALL {
                let mut ctx = RunContext::new(&pool);
                let run = engine.run(loaded.as_ref(), alg, &params, &mut ctx).unwrap();
                let expected =
                    graphalytics_core::algorithms::run_reference(&csr, alg, &params).unwrap();
                graphalytics_core::validation::validate(&expected, &run.output)
                    .unwrap()
                    .into_result()
                    .unwrap();
                // One `Round` span (and one fault checkpoint) per superstep.
                let spans = ctx.take_spans();
                assert!(spans.iter().all(|s| s.name == "Round"), "{alg}");
                assert_eq!(spans.len() as u64, run.counters.supersteps, "{alg}");
            }
            engine.delete(loaded);
        }
    }

    #[test]
    fn full_edge_scan_every_iteration() {
        let csr = sample(true);
        let pool = WorkerPool::new(2);
        let loaded = uploaded(&csr, &pool);
        let g = loaded.as_any().downcast_ref::<DataflowGraph>().unwrap();
        let mut c = WorkCounters::new();
        let _ = bfs(g, 0, &pool, &mut c);
        // 6 arcs scanned per superstep regardless of frontier size.
        assert_eq!(c.edges_scanned, 6 * c.supersteps);
    }

    #[test]
    fn cdlp_shuffles_without_combiner() {
        let csr = sample(false);
        let pool = WorkerPool::new(2);
        let loaded = uploaded(&csr, &pool);
        let g = loaded.as_any().downcast_ref::<DataflowGraph>().unwrap();
        let mut c = WorkCounters::new();
        let _ = cdlp(g, 2, &pool, &mut c);
        // Each iteration ships one vote per arc (12 arcs undirected)
        // plus n vertex views.
        assert!(c.messages >= 2 * (12 + 6));
    }

    #[test]
    fn edge_dataset_partitions_equal_from_vec_of_the_flat_arc_list() {
        let pool = WorkerPool::new(3);
        let from_vec = |arcs: Vec<(u32, u32, f64)>, parts| {
            Dataset::from_exact(arcs.len(), arcs.into_iter(), parts)
        };
        for directed in [true, false] {
            let csr = sample(directed);
            for both in [false, true] {
                let mut arcs = Vec::new();
                for u in 0..csr.num_vertices() as u32 {
                    let out = csr.out_neighbors(u).iter().zip(csr.out_weights(u));
                    arcs.extend(out.map(|(&v, &w)| (u, v, w)));
                    if both && directed {
                        let inn = csr.in_neighbors(u).iter().zip(csr.in_weights(u));
                        arcs.extend(inn.map(|(&v, &w)| (u, v, w)));
                    }
                }
                for parts in [0, 1, 3, 4, arcs.len(), arcs.len() + 1] {
                    let expected = from_vec(arcs.clone(), parts);
                    let built = edge_dataset(&csr, parts, both, &pool);
                    assert_eq!(
                        built.partitions(),
                        expected.partitions(),
                        "directed={directed} both={both} parts={parts}"
                    );
                }
            }
        }
        // No arcs at all: `parts` empty partitions.
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        let empty = b.build().unwrap().to_csr();
        assert_eq!(edge_dataset(&empty, 4, true, &pool).partitions(), vec![Vec::new(); 4]);
    }

    #[test]
    fn upload_caches_both_edge_datasets() {
        let directed = sample(true);
        let pool = WorkerPool::new(2);
        let loaded = uploaded(&directed, &pool);
        let g = loaded.as_any().downcast_ref::<DataflowGraph>().unwrap();
        assert_eq!(g.edges_out().count(), 6);
        assert_eq!(g.edges_both().count(), 12, "reverse orientation added");
        assert_eq!(g.edges_out().partitions().len(), 4, "threads × 2 over-partitioning");
        assert!(g.resident_bytes() > directed.resident_bytes());

        // Undirected graphs alias the out dataset instead of caching a
        // byte-identical copy.
        let undirected = sample(false);
        let loaded = uploaded(&undirected, &pool);
        let g = loaded.as_any().downcast_ref::<DataflowGraph>().unwrap();
        assert_eq!(g.edges_out().count(), 12, "both orientations stored once");
        assert_eq!(g.edges_both().count(), g.edges_out().count());
        assert_eq!(
            g.resident_bytes(),
            undirected.resident_bytes() + 16 * 12,
            "no duplicate arc cache for undirected graphs"
        );
    }
}
