//! # graphalytics-core
//!
//! The benchmark *specification* layer of the LDBC Graphalytics reproduction:
//! everything Section 2.2 of the paper defines.
//!
//! This crate provides:
//!
//! * the [graph data model](graph) — sparse-id directed/undirected graphs with
//!   optional edge weights, an edge-list [`graph::Graph`] and a
//!   compressed-sparse-row [`graph::Csr`] form, plus EVL file I/O;
//! * the six core [`algorithms`] (BFS, PageRank, WCC, CDLP, LCC, SSSP) as
//!   sequential *reference implementations* whose outputs define correctness,
//!   plus Louvain community detection used by the Datagen evaluation (Fig. 2);
//! * [`output`] and [`validation`] — typed per-vertex outputs and the
//!   exact/epsilon equivalence rules used to validate platform results;
//! * [`scale`] — the `s = log10(|V|+|E|)` scale function and the "T-shirt"
//!   size classes of Table 2;
//! * [`datasets`] — the registry of the paper's real (Table 3) and synthetic
//!   (Table 4) datasets together with structural traits used by proxies and
//!   by the analytic performance model;
//! * [`params`] — per-dataset algorithm parameters (BFS/SSSP roots, PageRank
//!   and CDLP iteration counts) as prescribed by the benchmark description;
//! * [`pool`] — the shared execution runtime: a persistent, deterministic
//!   worker pool used by the parallel CSR build, the edge-file loader, and
//!   (through `graphalytics-engines`) all six platform engines.
//!
//! Everything downstream (generators, engines, harness) builds on this crate.

pub mod algorithms;
pub mod datasets;
pub mod error;
pub mod fault;
pub mod graph;
pub mod output;
pub mod params;
pub mod pool;
pub mod scale;
pub mod validation;

pub use error::{Error, Result};
pub use fault::{CancelToken, FaultKind, FaultPlan, FaultScript, FaultSite, Injection};
pub use graph::{
    random_batch, ApplyOutcome, Csr, DeltaConfig, DeltaStats, Edge, Graph, GraphBuilder,
    MutableGraph, MutationBatch, ShardedCsr, VertexId,
};
pub use pool::WorkerPool;
pub use output::{AlgorithmOutput, OutputValues};
pub use scale::{scale_of, SizeClass};

/// The algorithms of the Graphalytics workload (Section 2.2.3).
///
/// Five core algorithms operate on unweighted graphs and one (SSSP) on
/// weighted graphs. The set was chosen by the paper's two-stage,
/// survey-driven selection process (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// Breadth-first search: minimum hop count from a source vertex.
    Bfs,
    /// PageRank: vertex "popularity" by influence propagation.
    PageRank,
    /// Weakly connected components: component membership ignoring direction.
    Wcc,
    /// Community detection using (deterministic, parallel) label propagation.
    Cdlp,
    /// Local clustering coefficient: per-vertex neighbourhood density.
    Lcc,
    /// Single-source shortest paths over `f64` edge weights.
    Sssp,
}

impl Algorithm {
    /// All six algorithms in the canonical order used by the paper's figures.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Bfs,
        Algorithm::PageRank,
        Algorithm::Wcc,
        Algorithm::Cdlp,
        Algorithm::Lcc,
        Algorithm::Sssp,
    ];

    /// Lower-case acronym as used throughout the paper (`bfs`, `pr`, ...).
    pub fn acronym(self) -> &'static str {
        match self {
            Algorithm::Bfs => "bfs",
            Algorithm::PageRank => "pr",
            Algorithm::Wcc => "wcc",
            Algorithm::Cdlp => "cdlp",
            Algorithm::Lcc => "lcc",
            Algorithm::Sssp => "sssp",
        }
    }

    /// Parses an acronym (case-insensitive) back into an [`Algorithm`].
    pub fn from_acronym(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "bfs" => Some(Algorithm::Bfs),
            "pr" | "pagerank" => Some(Algorithm::PageRank),
            "wcc" => Some(Algorithm::Wcc),
            "cdlp" => Some(Algorithm::Cdlp),
            "lcc" => Some(Algorithm::Lcc),
            "sssp" => Some(Algorithm::Sssp),
            _ => None,
        }
    }

    /// Whether the algorithm consumes edge weights (only SSSP does).
    pub fn needs_weights(self) -> bool {
        matches!(self, Algorithm::Sssp)
    }

    /// Whether the algorithm needs a source vertex parameter.
    pub fn needs_root(self) -> bool {
        matches!(self, Algorithm::Bfs | Algorithm::Sssp)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.acronym())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acronym_round_trip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_acronym(alg.acronym()), Some(alg));
        }
        assert_eq!(Algorithm::from_acronym("PageRank"), Some(Algorithm::PageRank));
        assert_eq!(Algorithm::from_acronym("nope"), None);
    }

    #[test]
    fn weight_and_root_requirements() {
        assert!(Algorithm::Sssp.needs_weights());
        assert!(!Algorithm::Bfs.needs_weights());
        assert!(Algorithm::Bfs.needs_root());
        assert!(Algorithm::Sssp.needs_root());
        assert!(!Algorithm::PageRank.needs_root());
    }

    #[test]
    fn display_matches_acronym() {
        assert_eq!(Algorithm::Cdlp.to_string(), "cdlp");
    }
}
