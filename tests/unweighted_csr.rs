//! An unweighted CSR reads unit weights and holds none.
//!
//! Only SSSP reads edge weights, and an unweighted dataset has none, so
//! every weight row of an unweighted [`Csr`] must read 1.0 bit for bit
//! and be exactly as long as its neighbour row, while the CSR keeps no
//! per-arc weight: its `resident_bytes()` is the vertex ids and row
//! offsets (8 bytes each), 4 bytes per stored arc, and one shared row of
//! 1.0 as long as the longest row (8 bytes an entry). A weighted CSR
//! keeps its 12 bytes per stored arc.
//!
//! Covered: every unweighted registry proxy that `generator_identity`
//! pins (divisors 256, 1024 and 8192 up to 200 k target vertices, seeds
//! 1 and 7), built at pool widths 1, 2 and 4; a snapshot and a
//! compacted base of a mutated unweighted R1 at the same widths; and
//! the weighted registry proxies at divisor 1024.

use std::sync::Arc;

use graphalytics::core::datasets::{all_datasets, ProxyRecipe};
use graphalytics::core::{random_batch, DeltaConfig, MutableGraph};
use graphalytics::harness::proxy::materialize_with;
use graphalytics::prelude::*;

const DIVISORS: [u64; 3] = [256, 1024, 8192];
const SEEDS: [u64; 2] = [1, 7];
const MAX_TARGET_VERTICES: u64 = 200_000;
const WIDTHS: [u32; 3] = [1, 2, 4];

/// Stored arcs: both directions' rows of a directed graph, the one
/// (symmetric) out-structure of an undirected graph.
fn stored_arcs(csr: &Csr) -> u64 {
    csr.num_arcs() as u64 * if csr.is_directed() { 2 } else { 1 }
}

/// Vertex ids plus the row offsets of each stored direction.
fn ids_and_offsets(csr: &Csr) -> u64 {
    let n = csr.num_vertices() as u64;
    let directions = if csr.is_directed() { 2 } else { 1 };
    8 * n + 8 * directions * (n + 1)
}

/// Every weight row is its neighbour row's length and reads 1.0 by
/// bits; the CSR holds ids, offsets, 4 bytes an arc and the unit row.
fn check_unweighted(what: &str, csr: &Csr) {
    assert!(!csr.is_weighted(), "{what}: weighted");
    let mut longest = 0;
    for u in 0..csr.num_vertices() as u32 {
        let (out, inn) = (csr.out_weights(u), csr.in_weights(u));
        assert_eq!(out.len(), csr.out_neighbors(u).len(), "{what}: out row {u}");
        assert_eq!(inn.len(), csr.in_neighbors(u).len(), "{what}: in row {u}");
        assert!(
            out.iter().chain(inn).all(|w| w.to_bits() == 1f64.to_bits()),
            "{what}: row {u} reads a weight other than 1.0"
        );
        longest = longest.max(out.len()).max(inn.len());
    }
    let want = ids_and_offsets(csr) + 4 * stored_arcs(csr) + 8 * longest as u64;
    assert_eq!(csr.resident_bytes(), want, "{what}: resident bytes");
}

/// The unweighted registry proxies of one recipe family at every pinned
/// divisor and seed, each generated once and built at every width.
fn check_family(family: fn(&ProxyRecipe) -> bool) {
    let generate_pool = WorkerPool::new(2);
    let pools: Vec<WorkerPool> = WIDTHS.iter().map(|&w| WorkerPool::new(w)).collect();
    let mut checked = 0;
    for spec in all_datasets().into_iter().filter(|s| family(&s.recipe) && !s.weighted) {
        for divisor in DIVISORS {
            if spec.vertices / divisor > MAX_TARGET_VERTICES {
                continue;
            }
            for seed in SEEDS {
                let graph = materialize_with(spec, divisor, seed, &generate_pool);
                for (pool, width) in pools.iter().zip(WIDTHS) {
                    let csr = graph.to_csr_with(pool).unwrap();
                    check_unweighted(
                        &format!("{}/{divisor}/{seed} at width {width}", spec.id),
                        &csr,
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no unweighted proxy in the family");
}

#[test]
fn unweighted_rmat_proxies() {
    check_family(|r| matches!(r, ProxyRecipe::Rmat { .. }));
}

#[test]
fn unweighted_graph500_proxies() {
    check_family(|r| matches!(r, ProxyRecipe::Graph500 { .. }));
}

#[test]
fn unweighted_datagen_proxies() {
    check_family(|r| matches!(r, ProxyRecipe::Datagen { .. }));
}

#[test]
fn mutated_unweighted_r1_snapshot_and_compacted_base() {
    let spec = graphalytics::core::datasets::dataset("R1").unwrap();
    assert!(!spec.weighted && spec.directed);
    let base = materialize_with(spec, 1024, 1, &WorkerPool::new(2)).to_csr();
    let base = Arc::new(base);
    for width in WIDTHS {
        let pool = WorkerPool::new(width);
        let config = DeltaConfig { auto_compact: false, ..DeltaConfig::default() };
        let mut graph = MutableGraph::with_config(base.clone(), config);
        for seed in 0..3 {
            let batch = random_batch(graph.base(), 200, 50, seed);
            graph.apply(&batch, &pool).unwrap();
        }
        assert!(graph.delta_arcs() > 0);
        check_unweighted(
            &format!("R1 snapshot at width {width}"),
            &graph.materialize(&pool).unwrap(),
        );
        graph.compact(&pool).unwrap();
        check_unweighted(&format!("R1 compacted base at width {width}"), graph.base());
        // A batch on the compacted base, and its snapshot.
        graph.apply(&random_batch(graph.base(), 100, 100, 9), &pool).unwrap();
        check_unweighted(
            &format!("R1 second snapshot at width {width}"),
            &graph.materialize(&pool).unwrap(),
        );
    }
}

#[test]
fn weighted_proxies_keep_twelve_bytes_an_arc() {
    let pool = WorkerPool::new(2);
    let mut checked = 0;
    for spec in all_datasets().into_iter().filter(|s| s.weighted) {
        if spec.vertices / 1024 > MAX_TARGET_VERTICES {
            continue;
        }
        let csr = materialize_with(spec, 1024, 1, &pool).to_csr_with(&pool).unwrap();
        let want = ids_and_offsets(&csr) + 12 * stored_arcs(&csr);
        assert_eq!(csr.resident_bytes(), want, "{}/1024/1: resident bytes", spec.id);
        checked += 1;
    }
    assert!(checked > 0, "no weighted proxy");
}
