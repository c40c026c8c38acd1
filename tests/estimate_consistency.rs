//! Estimate-vs-measurement consistency: the analytic counter estimators
//! that paper-scale experiments rely on must agree with what the engines
//! actually count when executing a graph with the same traits.
//!
//! Agreement is checked within generous factors — the estimators use
//! coarse structural traits (diameter, reachability), not the exact
//! instance — but the *order of magnitude and shape* must hold or the
//! simulated figures would be fiction.

use std::sync::Arc;

use graphalytics::core::datasets::{DegreeDistribution, GraphTraits};
use graphalytics::core::graph::GraphStats;
use graphalytics::prelude::*;

fn within_factor(measured: u64, estimated: u64, factor: f64, what: &str) {
    if measured == 0 && estimated == 0 {
        return;
    }
    let (m, e) = (measured.max(1) as f64, estimated.max(1) as f64);
    let ratio = if m > e { m / e } else { e / m };
    assert!(
        ratio <= factor,
        "{what}: measured {measured} vs estimated {estimated} (ratio {ratio:.1} > {factor})"
    );
}

#[test]
fn estimates_track_measured_counters() {
    // Generate a Kronecker graph, measure its traits, then compare each
    // engine's estimate against its actual execution counters.
    let graph = Graph500Config::new(11).with_seed(17).with_weights(true).generate();
    let csr = Arc::new(graph.to_csr());
    let stats = GraphStats::compute(&csr);
    let traits_ = GraphTraits {
        degree_distribution: DegreeDistribution::PowerLaw,
        pseudo_diameter: stats.pseudo_diameter.max(1) as u32,
        reachable_fraction: stats.reachable_fraction,
        component_fraction: stats.components as f64 / stats.vertices as f64,
        avg_clustering: stats.avg_clustering_coefficient,
        degree_skew: stats.degree_skew,
    };
    let root = SourceSelection::MaxOutDegree.resolve(&csr).unwrap();
    let params = AlgorithmParams {
        source_vertex: Some(root),
        pagerank_iterations: 10,
        damping_factor: 0.85,
        cdlp_iterations: 10,
    };

    let pool = WorkerPool::new(2);
    for platform in all_platforms() {
        let loaded = platform.upload(csr.clone(), &pool).unwrap();
        for algorithm in [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Cdlp] {
            if !platform.supports(algorithm) {
                continue;
            }
            let mut ctx = RunContext::new(&pool);
            let run = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            let est = (platform.profile().estimate)(
                stats.vertices,
                stats.edges,
                &traits_,
                csr.is_directed(),
                algorithm,
                &params,
            );
            let tag = format!("{} {algorithm}", platform.name());
            within_factor(run.counters.edges_scanned, est.edges_scanned, 8.0, &format!("{tag} edges"));
            within_factor(
                run.counters.vertices_processed,
                est.vertices_processed,
                6.0,
                &format!("{tag} vertices"),
            );
            within_factor(run.counters.supersteps, est.supersteps, 4.0, &format!("{tag} supersteps"));
            if run.counters.messages > 0 || est.messages > 0 {
                within_factor(run.counters.messages, est.messages, 8.0, &format!("{tag} messages"));
            }
        }
        platform.delete(loaded);
    }
}

#[test]
fn estimated_cost_ordering_matches_measured_walltime_ordering() {
    // The headline comparison (GraphMat/native fast, dataflow slow) must
    // hold for *measured wall time* of the real executions, not only for
    // the simulated numbers.
    let graph = Graph500Config::new(11).with_seed(23).generate();
    let csr = Arc::new(graph.to_csr());
    let params = AlgorithmParams::with_source(csr.id_of(0));
    let pool = WorkerPool::new(2);
    let wall = |name: &str| {
        let p = platform_by_name(name).unwrap();
        // One upload, then best-of-3 runs to de-noise (upload time is
        // excluded — the processing-phase comparison per the lifecycle).
        let loaded = p.upload(csr.clone(), &pool).unwrap();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut ctx = RunContext::new(&pool);
            let run = p.run(loaded.as_ref(), Algorithm::PageRank, &params, &mut ctx).unwrap();
            best = best.min(run.wall_seconds);
        }
        p.delete(loaded);
        best
    };
    let native = wall("native");
    let dataflow = wall("dataflow");
    assert!(
        dataflow > 2.0 * native,
        "dataflow must be measurably slower than native: {dataflow:.4}s vs {native:.4}s"
    );
}
