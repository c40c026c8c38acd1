//! Proxy graph materialization.
//!
//! The real-world datasets of Table 3 cannot be redistributed and the
//! paper-scale synthetic graphs do not fit a laptop, so measured runs use
//! *structure-matched proxies*: each registry dataset carries a
//! [`graphalytics_core::datasets::ProxyRecipe`] and this
//! module turns it into a concrete [`Graph`] at `published size /
//! scale_divisor`, preserving directedness, weightedness and
//! degree-distribution family (see DESIGN.md, substitution table).

use graphalytics_core::datasets::{DatasetSpec, ProxyRecipe};
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::Graph;
use graphalytics_datagen::DatagenConfig;
use graphalytics_graph500::{Graph500Config, RmatConfig};

/// Materializes a proxy instance of `spec` scaled down by `divisor`
/// (1 = the published size — only sensible for the smallest datasets).
pub fn materialize(spec: &DatasetSpec, divisor: u64, seed: u64) -> Graph {
    materialize_with(spec, divisor, seed, &WorkerPool::inline())
}

/// Materializes a proxy instance on `pool` (the service graph store and
/// the measured experiments pass their shared execution runtime).
/// Unweighted Graph500 and R-MAT proxies sample their edges on the pool;
/// weighted ones sample sequentially, because a weight draw follows only
/// the edges that are not self loops (see [`RmatConfig::generate_with`]).
/// The edge-list finalization (ordering, dedup, validation) runs on the
/// pool for every recipe. Output is identical to [`materialize`] for
/// every pool width.
pub fn materialize_with(spec: &DatasetSpec, divisor: u64, seed: u64, pool: &WorkerPool) -> Graph {
    let divisor = divisor.max(1);
    let target_vertices = (spec.vertices / divisor).max(64);
    let target_edges = (spec.edges / divisor).max(128);
    match spec.recipe {
        ProxyRecipe::Graph500 { scale, edge_factor } => {
            // Halving per power of two of the divisor.
            let shrink = (divisor.max(1) as f64).log2().round() as u32;
            let scale = scale.saturating_sub(shrink).max(6);
            Graph500Config::new(scale)
                .with_edge_factor(edge_factor)
                .with_seed(seed)
                .with_weights(spec.weighted)
                .generate_with(pool)
        }
        ProxyRecipe::Rmat { a, b, c } => {
            let scale = (target_vertices as f64).log2().ceil().max(6.0) as u32;
            // Edge factor relative to the *initial* 2^scale vertices so the
            // generated |E| tracks the scaled-down target.
            let edge_factor =
                ((target_edges as f64 / (1u64 << scale) as f64).round() as u32).max(1);
            RmatConfig {
                scale,
                edge_factor,
                a,
                b,
                c,
                seed,
                directed: spec.directed,
                weighted: spec.weighted,
                keep_isolated: false,
            }
            .generate_with(pool)
        }
        ProxyRecipe::Datagen { target_cc } => {
            let mut cfg = DatagenConfig::with_persons(target_vertices).with_seed(seed);
            cfg.weighted = spec.weighted;
            if let Some(cc) = target_cc {
                cfg = cfg.with_target_cc(cc);
            }
            cfg.generate_with(pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::datasets::dataset;

    #[test]
    fn graph500_proxy_scales_down() {
        let spec = dataset("G22").unwrap();
        let g = materialize(spec, 4096, 1);
        assert!(!g.is_directed());
        assert!(!g.is_weighted());
        // scale 22 - 12 = 10 → ≤ 1024 vertices.
        assert!(g.vertex_count() <= 1024);
        assert!(g.edge_count() > 1000, "edge factor preserved");
        g.validate().unwrap();
    }

    #[test]
    fn rmat_proxy_matches_shape() {
        let spec = dataset("R1").unwrap(); // directed knowledge graph
        let g = materialize(spec, 1000, 2);
        assert!(g.is_directed());
        assert!(!g.is_weighted());
        let ratio = g.edge_count() as f64 / g.vertex_count() as f64;
        let paper_ratio = spec.mean_degree();
        assert!(
            ratio > paper_ratio * 0.3 && ratio < paper_ratio * 3.5,
            "density {ratio:.2} vs paper {paper_ratio:.2}"
        );
    }

    #[test]
    fn weighted_proxy_for_sssp_datasets() {
        let spec = dataset("R4").unwrap();
        let g = materialize(spec, 2000, 3);
        assert!(g.is_weighted());
        assert!(g.edges().iter().all(|e| e.weight >= 0.0));
    }

    #[test]
    fn datagen_proxy_has_requested_cc_variant() {
        let spec = dataset("D100'").unwrap(); // cc target 0.05
        let g = materialize(spec, 4000, 4);
        assert!(!g.is_directed());
        assert!(g.vertex_count() >= 64);
        g.validate().unwrap();
    }

    #[test]
    fn dense_cc_datagen_proxy_materializes_at_service_divisors() {
        // D100″ (cc target 0.15) sizes some communities at three persons,
        // so a block can end on a shorter tail.
        let spec = dataset("D100\"").unwrap();
        for (divisor, seed) in [(256, 1), (256, 7), (1024, 1)] {
            materialize(spec, divisor, seed).validate().unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = dataset("G23").unwrap();
        let a = materialize(spec, 8192, 9);
        let b = materialize(spec, 8192, 9);
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn pool_materialization_matches_sequential() {
        // Every recipe family: the pooled edge-list finalization must
        // not change the graph.
        let pool = WorkerPool::new(3);
        for id in ["G22", "R1", "D100'"] {
            let spec = dataset(id).unwrap();
            let seq = materialize(spec, 8192, 11);
            let par = materialize_with(spec, 8192, 11, &pool);
            assert_eq!(seq.vertices(), par.vertices(), "{id}");
            assert_eq!(seq.edges(), par.edges(), "{id}");
        }
    }
}
