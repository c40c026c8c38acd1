//! Analytic workload-shape estimation for paper-scale datasets.
//!
//! The paper's datasets reach 1.97B edges — too large to materialize here.
//! For those, experiments run in *analytic mode*: instead of executing,
//! the harness estimates the `WorkCounters` a run would produce from the
//! dataset's published size and structural traits (degree skew, diameter,
//! BFS reachability — `graphalytics_core::datasets::GraphTraits`).
//!
//! [`workload_shape`] computes the engine-independent quantities (how many
//! rounds, how many edge relaxations the *algorithm* needs); one
//! [`Estimator`] per engine ([`pregel`] … [`pushpull`]) then maps the
//! shape onto the counter pattern that engine's kernels produce. Each is
//! reached through its engine's [`PerfProfile`](crate::PerfProfile) —
//! the analytic model is not part of the `Platform` lifecycle —
//! and `tests/estimate_consistency.rs` checks estimate-vs-measured
//! agreement on generated graphs.

use graphalytics_cluster::WorkCounters;
use graphalytics_core::datasets::GraphTraits;
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::Algorithm;

/// An engine's counter estimator: `(vertices, edges, traits, directed,
/// algorithm, params)` of a graph that is never built → the counters a
/// run would produce.
pub type Estimator =
    fn(u64, u64, &GraphTraits, bool, Algorithm, &AlgorithmParams) -> WorkCounters;

/// Engine-independent workload shape of one algorithm on one graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadShape {
    /// Global iterations / supersteps the algorithm needs.
    pub supersteps: u64,
    /// Σ over supersteps of the number of *active* vertices.
    pub active_vertex_rounds: f64,
    /// Total adjacency entries the algorithm itself must relax.
    pub edge_traversals: f64,
    /// Σ_v d(v)² — the LCC intersection work and neighbour-list message
    /// volume.
    pub sum_deg2: f64,
    /// Stored arcs (2·|E| for undirected graphs).
    pub arcs: f64,
}

/// Estimates Σ_v d(v)² from mean degree and skew.
///
/// For near-regular graphs Σd² ≈ |V|·mean²; degree skew amplifies it
/// (hubs dominate the sum). The amplification factor `1 + skew/20`
/// (capped) is a two-point fit: social graphs (skew ≈ 20) get ≈ 2×,
/// Kronecker graphs (skew ≥ 10⁴) saturate at the cap.
pub fn estimate_sum_deg2(vertices: u64, arcs: f64, skew: f64) -> f64 {
    let mean = arcs / vertices.max(1) as f64;
    let amp = (1.0 + skew / 20.0).min(500.0);
    vertices as f64 * mean * mean * amp
}

/// Computes the workload shape for `algorithm` on a graph of
/// `vertices`/`edges` with the given traits.
pub fn workload_shape(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkloadShape {
    let v = vertices as f64;
    let arcs = if directed { edges as f64 } else { 2.0 * edges as f64 };
    let diameter = traits_.pseudo_diameter.max(1) as f64;
    let reach = traits_.reachable_fraction.clamp(0.0, 1.0);
    let sum_deg2 = estimate_sum_deg2(vertices, arcs, traits_.degree_skew);
    match algorithm {
        Algorithm::Bfs => WorkloadShape {
            supersteps: diameter as u64 + 1,
            active_vertex_rounds: reach * v,
            edge_traversals: reach * arcs,
            sum_deg2,
            arcs,
        },
        Algorithm::PageRank => {
            let iters = params.pagerank_iterations.max(1) as f64;
            WorkloadShape {
                supersteps: iters as u64 + 1,
                active_vertex_rounds: iters * v,
                edge_traversals: iters * arcs,
                sum_deg2,
                arcs,
            }
        }
        Algorithm::Wcc => {
            // Min-label propagation converges in ~diameter rounds with
            // decaying activity; union-find engines override via their own
            // counter mapping.
            let rounds = (diameter + 2.0).min(25.0);
            WorkloadShape {
                supersteps: rounds as u64,
                active_vertex_rounds: 0.5 * rounds * v,
                edge_traversals: 0.6 * rounds * arcs,
                sum_deg2,
                arcs,
            }
        }
        Algorithm::Cdlp => {
            let iters = params.cdlp_iterations.max(1) as f64;
            WorkloadShape {
                supersteps: iters as u64 + 1,
                active_vertex_rounds: iters * v,
                // Both edge directions vote on directed graphs.
                edge_traversals: iters * arcs * if directed { 2.0 } else { 1.0 },
                sum_deg2,
                arcs,
            }
        }
        Algorithm::Lcc => WorkloadShape {
            supersteps: 2,
            active_vertex_rounds: 2.0 * v,
            edge_traversals: sum_deg2,
            sum_deg2,
            arcs,
        },
        Algorithm::Sssp => {
            // Sparse Bellman–Ford-style relaxation: ~1.5× diameter rounds,
            // activity decaying after the wave passes.
            let rounds = (1.5 * diameter).max(2.0);
            WorkloadShape {
                supersteps: rounds as u64,
                active_vertex_rounds: 0.5 * rounds * reach * v,
                edge_traversals: 0.5 * rounds * reach * arcs,
                sum_deg2,
                arcs,
            }
        }
    }
}

/// Pregel (Giraph): every vertex is visited every superstep.
pub fn pregel(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    c.supersteps = s.supersteps;
    c.vertices_processed = vertices * s.supersteps; // all vertices, every superstep
    match algorithm {
        Algorithm::Lcc => {
            c.edges_scanned = s.sum_deg2 as u64;
            c.messages = 2 * s.arcs as u64; // list + count-reply per arc
            c.message_bytes = (4.0 * s.sum_deg2) as u64 + 8 * s.arcs as u64;
        }
        Algorithm::Cdlp => {
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            // No combiner exists for the mode: full label volume.
            c.message_bytes = 8 * c.messages;
            c.random_accesses = s.edge_traversals as u64;
        }
        _ => {
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            // Min/sum combiners collapse wire volume towards the
            // vertex count per superstep.
            let combined = (2.0 * vertices as f64 * s.supersteps as f64)
                .min(s.edge_traversals);
            c.message_bytes = 8 * combined as u64;
        }
    }
    c
}

/// Dataflow (GraphX): the full edge dataset every iteration.
pub fn dataflow(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    c.supersteps = s.supersteps;
    // New vertex dataset materialized every iteration, plus the
    // vertex-view shipping copy.
    c.vertices_processed = 3 * vertices * s.supersteps;
    match algorithm {
        Algorithm::Lcc => {
            c.edges_scanned = (s.sum_deg2 + 2.0 * s.arcs) as u64;
            c.messages = (s.sum_deg2 / 4.0) as u64 + s.arcs as u64;
            c.message_bytes = 12 * c.messages;
        }
        Algorithm::Cdlp => {
            c.edges_scanned = s.arcs as u64 * s.supersteps;
            c.messages = s.edge_traversals as u64 + vertices * s.supersteps;
            // Boxed Scala shuffle records are heavy on the wire.
            c.message_bytes = 48 * c.messages;
            c.random_accesses = s.edge_traversals as u64;
        }
        _ => {
            // The full edge dataset is scanned every iteration no
            // matter how sparse the frontier is.
            c.edges_scanned = s.arcs as u64 * s.supersteps;
            // Map-side combining collapses shuffle records towards the
            // per-iteration vertex count; shipped vertex views add the
            // active rounds.
            let combined = (0.5 * s.edge_traversals)
                .min(2.0 * vertices as f64 * s.supersteps as f64);
            c.messages = combined as u64 + s.active_vertex_rounds as u64;
            // Boxed Scala shuffle records are heavy on the wire.
            c.message_bytes = 48 * c.messages;
        }
    }
    c
}

/// GAS (PowerGraph): gather and scatter both touch edges.
pub fn gas(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    c.supersteps = s.supersteps;
    match algorithm {
        Algorithm::Lcc => {
            c.vertices_processed = vertices;
            c.edges_scanned = s.sum_deg2 as u64;
            c.messages = s.arcs as u64;
            c.message_bytes = 8 * c.messages;
        }
        Algorithm::Cdlp => {
            c.vertices_processed = s.active_vertex_rounds as u64;
            c.edges_scanned = 2 * s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            c.message_bytes = 12 * c.messages;
            c.random_accesses = s.edge_traversals as u64;
        }
        _ => {
            c.vertices_processed = s.active_vertex_rounds as u64;
            // Gather + scatter both touch edges.
            c.edges_scanned = 2 * s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            // Mirror->master syncs are bounded by replicas per round,
            // not by edges.
            let combined =
                (4.0 * vertices as f64 * s.supersteps as f64).min(s.edge_traversals);
            c.message_bytes = 8 * combined as u64;
        }
    }
    c
}

/// SpMV (GraphMat): a dense vector pass every iteration.
pub fn spmv(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    c.supersteps = s.supersteps;
    // Dense vector maintenance every iteration.
    c.vertices_processed = vertices * s.supersteps;
    match algorithm {
        Algorithm::Lcc => {
            c.edges_scanned = s.sum_deg2 as u64;
            c.messages = s.sum_deg2 as u64;
            c.message_bytes = 12 * c.messages;
        }
        Algorithm::Cdlp => {
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            c.message_bytes = 8 * c.messages;
            c.random_accesses = s.edge_traversals as u64;
        }
        _ => {
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
            // MPI ranks exchange boundary vector segments once per
            // iteration, not per-edge products.
            let combined =
                (vertices as f64 * s.supersteps as f64).min(s.edge_traversals);
            c.message_bytes = 8 * combined as u64;
        }
    }
    c
}

/// Native (OpenG): touched work only, no messages.
pub fn native(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    match algorithm {
        // Queue-based: only the reached region is touched; one logical
        // pass, no messages.
        Algorithm::Bfs => {
            c.supersteps = s.supersteps;
            c.vertices_processed = s.active_vertex_rounds as u64;
            c.edges_scanned = s.edge_traversals as u64;
        }
        Algorithm::Wcc => {
            c.supersteps = 1;
            c.vertices_processed = vertices;
            c.edges_scanned = s.arcs as u64;
        }
        Algorithm::Sssp => {
            c.supersteps = 1;
            c.vertices_processed = s.active_vertex_rounds as u64;
            // Heap-based: ~|E| + |V| log |V| comparisons.
            let logv = (vertices.max(2) as f64).log2();
            c.edges_scanned =
                (traits_.reachable_fraction * (s.arcs + vertices as f64 * logv)) as u64;
        }
        Algorithm::Lcc => {
            c.supersteps = 1;
            c.vertices_processed = vertices;
            c.edges_scanned = s.sum_deg2 as u64;
        }
        Algorithm::Cdlp => {
            c.supersteps = s.supersteps;
            c.vertices_processed = s.active_vertex_rounds as u64;
            c.edges_scanned = s.edge_traversals as u64;
            c.random_accesses = s.edge_traversals as u64;
        }
        _ => {
            c.supersteps = s.supersteps;
            c.vertices_processed = s.active_vertex_rounds as u64;
            c.edges_scanned = s.edge_traversals as u64;
        }
    }
    c
}

/// Push–pull (PGX.D): direction-optimizing traversals, pure-pull
/// PageRank.
pub fn pushpull(
    vertices: u64,
    edges: u64,
    traits_: &GraphTraits,
    directed: bool,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> WorkCounters {
    let s = workload_shape(vertices, edges, traits_, directed, algorithm, params);
    let mut c = WorkCounters::new();
    c.supersteps = s.supersteps;
    match algorithm {
        Algorithm::Bfs => {
            // Direction optimization: sparse push phases plus
            // early-exit pull phases examine a small fraction of the
            // arcs (~20% is the classic direction-optimizing figure),
            // but every pulled edge is a pointer-chasing random read.
            c.vertices_processed = 2 * vertices;
            c.edges_scanned = (0.2 * s.arcs).min(2.0 * s.edge_traversals) as u64;
            c.random_accesses = c.edges_scanned;
            // Only the sparse push phases emit messages; their volume
            // is bounded by a couple of frontier sweeps.
            c.messages = (0.2 * s.edge_traversals).min(2.0 * vertices as f64) as u64;
        }
        Algorithm::PageRank => {
            // Pure pull: streaming reads, no message buffers.
            c.vertices_processed = s.active_vertex_rounds as u64 + vertices;
            c.edges_scanned = s.edge_traversals as u64;
        }
        Algorithm::Cdlp => {
            // Pull mode with multiset counting.
            c.vertices_processed = s.active_vertex_rounds as u64 + vertices;
            c.edges_scanned = s.edge_traversals as u64;
            c.random_accesses = s.edge_traversals as u64;
        }
        Algorithm::Sssp => {
            // The modelled platform's counts (PGX.D), not this
            // kernel's: scans stay near one pass over the arcs and
            // only successful relaxations become messages (roughly
            // one per vertex plus a correction tail). The
            // label-correcting kernel re-scans more.
            c.vertices_processed = s.active_vertex_rounds as u64 + vertices;
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = (2.0 * vertices as f64).min(s.edge_traversals) as u64;
        }
        _ => {
            // WCC: push relaxations emit one message per scanned
            // edge.
            c.vertices_processed = s.active_vertex_rounds as u64 + vertices;
            c.edges_scanned = s.edge_traversals as u64;
            c.messages = s.edge_traversals as u64;
        }
    }
    c.message_bytes = 8 * c.messages;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::datasets::dataset;

    fn shape_for(id: &str, alg: Algorithm) -> WorkloadShape {
        let d = dataset(id).unwrap();
        let params = AlgorithmParams::default();
        workload_shape(d.vertices, d.edges, &d.traits_, d.directed, alg, &params)
    }

    #[test]
    fn bfs_reachability_limits_work() {
        // R2's BFS covers ~10% of the graph (Section 4.1).
        let s = shape_for("R2", Algorithm::Bfs);
        let d = dataset("R2").unwrap();
        let arcs = 2.0 * d.edges as f64;
        assert!(s.edge_traversals < 0.15 * arcs);
        assert!(s.edge_traversals > 0.05 * arcs);
    }

    #[test]
    fn pagerank_scales_with_iterations() {
        let d = dataset("D300").unwrap();
        let p5 = AlgorithmParams { pagerank_iterations: 5, ..Default::default() };
        let p20 = AlgorithmParams { pagerank_iterations: 20, ..Default::default() };
        let s5 = workload_shape(d.vertices, d.edges, &d.traits_, d.directed, Algorithm::PageRank, &p5);
        let s20 =
            workload_shape(d.vertices, d.edges, &d.traits_, d.directed, Algorithm::PageRank, &p20);
        assert!((s20.edge_traversals / s5.edge_traversals - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lcc_work_explodes_on_skewed_graphs() {
        let social = shape_for("D300", Algorithm::Lcc);
        let kron = shape_for("G24", Algorithm::Lcc);
        // G24 has fewer edges than D300 but far more LCC work per edge.
        let social_per_arc = social.edge_traversals / social.arcs;
        let kron_per_arc = kron.edge_traversals / kron.arcs;
        assert!(kron_per_arc > 10.0 * social_per_arc);
    }

    #[test]
    fn sum_deg2_amplification_caps() {
        let low = estimate_sum_deg2(1000, 10_000.0, 5.0);
        let high = estimate_sum_deg2(1000, 10_000.0, 1.0e6);
        assert!(high > low);
        assert!(high <= 1000.0 * 100.0 * 500.0 + 1.0);
    }

    #[test]
    fn directed_cdlp_doubles_votes() {
        let r1 = shape_for("R1", Algorithm::Cdlp); // directed
        let d = dataset("R1").unwrap();
        let expected = 10.0 * d.edges as f64 * 2.0;
        assert!((r1.edge_traversals - expected).abs() / expected < 1e-9);
    }
}
