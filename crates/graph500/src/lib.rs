//! # graphalytics-graph500
//!
//! The Graph500 synthetic graph generator used by Graphalytics (Table 4:
//! `graph500-22` … `graph500-26`), implemented from scratch.
//!
//! Graph500 graphs are *Kronecker* graphs: each edge is sampled by
//! recursively descending `scale` levels of a 2×2 probability matrix
//! `[[A, B], [C, D]]` (the reference parameters are `A = 0.57`, `B = C =
//! 0.19`, `D = 0.05`), which yields a heavily skewed power-law degree
//! distribution — the property that makes several platforms fail on
//! Graph500 graphs while succeeding on Datagen graphs of the same scale
//! (the paper's Table 10 finding).
//!
//! The same machinery doubles as a general R-MAT generator
//! ([`RmatConfig`]) used by the harness to build structure-matched proxies
//! of the paper's real-world datasets (see `DESIGN.md`, substitution table).
//!
//! ```
//! use graphalytics_graph500::Graph500Config;
//! let g = Graph500Config::new(10).generate();
//! assert!(g.vertex_count() > 0);
//! assert!(!g.is_directed()); // Graph500 graphs are undirected
//! ```

mod kronecker;
mod permute;

pub use kronecker::{KroneckerSampler, RmatConfig};
pub use permute::VertexPermutation;

use graphalytics_core::Graph;

/// Standard Graph500 generator configuration.
///
/// `scale` is the log2 of the *initial* vertex count; the benchmark's
/// `edgefactor` (edges per vertex before deduplication) defaults to 16.
/// Like the real Graph500 construction kernel, isolated vertices are not
/// part of the final graph — which is why Table 4 lists `graph500-22` with
/// 2.40M vertices rather than 2^22 = 4.19M.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Graph500Config {
    pub scale: u32,
    pub edge_factor: u32,
    pub seed: u64,
    /// Attach uniform `[0, 1)` edge weights (for SSSP-capable instances).
    pub weighted: bool,
}

impl Graph500Config {
    /// Reference Graph500 parameters at the given scale.
    pub fn new(scale: u32) -> Self {
        Graph500Config { scale, edge_factor: 16, seed: 0x5EED_6500, weighted: false }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style edge factor override.
    pub fn with_edge_factor(mut self, edge_factor: u32) -> Self {
        self.edge_factor = edge_factor;
        self
    }

    /// Builder-style weighted toggle.
    pub fn with_weights(mut self, weighted: bool) -> Self {
        self.weighted = weighted;
        self
    }

    /// The R-MAT configuration equivalent to this Graph500 configuration.
    pub fn rmat(self) -> RmatConfig {
        RmatConfig {
            scale: self.scale,
            edge_factor: self.edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: self.seed,
            directed: false,
            weighted: self.weighted,
            keep_isolated: false,
        }
    }

    /// Generates the graph.
    pub fn generate(self) -> Graph {
        self.rmat().generate()
    }

    /// Generates the graph on `pool`: unweighted edges are sampled on
    /// the pool, weighted ones sequentially, and the finalize runs on the
    /// pool (see [`RmatConfig::generate_with`]). The output is identical
    /// to [`Graph500Config::generate`] for every pool width.
    pub fn generate_with(self, pool: &graphalytics_core::pool::WorkerPool) -> Graph {
        self.rmat().generate_with(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_undirected_graph() {
        let g = Graph500Config::new(8).generate();
        g.validate().unwrap();
        assert!(!g.is_directed());
        // Dedup + self-loop removal shrink the edge set below ef · 2^s.
        assert!(g.edge_count() <= 16 << 8);
        assert!(g.edge_count() > (16 << 8) / 4);
        // Isolated vertices are excluded.
        assert!(g.vertex_count() <= 1 << 8);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = Graph500Config::new(7).with_seed(42).generate();
        let b = Graph500Config::new(7).with_seed(42).generate();
        assert_eq!(a.edges().len(), b.edges().len());
        assert_eq!(a.vertices(), b.vertices());
        let c = Graph500Config::new(7).with_seed(43).generate();
        assert_ne!(
            a.edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
            c.edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn weighted_instances_have_unit_interval_weights() {
        let g = Graph500Config::new(7).with_weights(true).generate();
        assert!(g.is_weighted());
        for e in g.edges() {
            assert!(e.weight >= 0.0 && e.weight < 1.0);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = Graph500Config::new(10).generate();
        let csr = g.to_csr();
        let n = csr.num_vertices();
        let max_deg = (0..n as u32).map(|u| csr.out_degree(u)).max().unwrap();
        let mean = csr.num_arcs() as f64 / n as f64;
        assert!(
            max_deg as f64 / mean > 10.0,
            "kronecker graphs must have hubs (max {max_deg}, mean {mean:.1})"
        );
    }
}
