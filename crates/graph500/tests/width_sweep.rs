//! R-MAT sampling runs on the caller's pool; the graph must not depend on
//! the pool's width.
//!
//! Every config is generated at pool widths 1, 2, 3, 4 and 8 and compared
//! with width 1, and width 1 with a model: the one sequential stream,
//! pushed edge by edge through a `GraphBuilder`. The configs cover
//! directed, undirected and weighted graphs, `keep_isolated`, `scale` = 1,
//! an edge count below the pool width, and a config whose self loops fall
//! on the first and the last edge of pool ranges.

use graphalytics_core::pool::{split_ranges, WorkerPool};
use graphalytics_core::{Graph, GraphBuilder};
use graphalytics_graph500::{Graph500Config, KroneckerSampler, RmatConfig, VertexPermutation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [u32; 5] = [1, 2, 3, 4, 8];

fn rmat(scale: u32, edge_factor: u32, seed: u64, directed: bool, weighted: bool) -> RmatConfig {
    RmatConfig {
        scale,
        edge_factor,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed,
        directed,
        weighted,
        keep_isolated: false,
    }
}

/// The generator as one sequential loop over one stream.
fn model(cfg: RmatConfig) -> Graph {
    let n = 1u64 << cfg.scale;
    let sampler = KroneckerSampler::new(cfg.a, cfg.b, cfg.c);
    let perm = VertexPermutation::new(n, cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::new(cfg.directed);
    builder.set_weighted(cfg.weighted);
    builder.dedup_edges(true);
    let mut touched = vec![false; n as usize];
    for _ in 0..cfg.edge_factor as u64 * n {
        let (u, v) = sampler.sample_edge(cfg.scale, &mut rng);
        if u == v {
            continue;
        }
        let (pu, pv) = (perm.apply(u), perm.apply(v));
        touched[pu as usize] = true;
        touched[pv as usize] = true;
        let w = if cfg.weighted { rng.random::<f64>() } else { 1.0 };
        builder.add_weighted_edge(pu, pv, w);
    }
    if cfg.keep_isolated {
        builder.add_vertex_range(n);
    } else {
        for v in (0..n).filter(|&v| touched[v as usize]) {
            builder.add_vertex(v);
        }
    }
    builder.build().expect("model output satisfies the data model")
}

/// Indices of the sampled self loops among the config's `m` edges
/// (unweighted: every edge takes the same number of draws).
fn self_loops(cfg: RmatConfig) -> Vec<usize> {
    let sampler = KroneckerSampler::new(cfg.a, cfg.b, cfg.c);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let m = (cfg.edge_factor as usize) << cfg.scale;
    (0..m)
        .filter(|_| {
            let (u, v) = sampler.sample_edge(cfg.scale, &mut rng);
            u == v
        })
        .collect()
}

fn assert_width_invariant(name: &str, cfg: RmatConfig, pools: &[WorkerPool]) {
    let expected = model(cfg);
    for pool in pools {
        let g = cfg.generate_with(pool);
        let width = pool.threads();
        assert_eq!(g.is_directed(), expected.is_directed(), "{name}: width {width}");
        assert_eq!(g.is_weighted(), expected.is_weighted(), "{name}: width {width}");
        assert_eq!(g.vertices(), expected.vertices(), "{name}: width {width}");
        assert_eq!(g.edges(), expected.edges(), "{name}: width {width}");
    }
}

#[test]
fn every_pool_width_generates_the_sequential_graph() {
    let pools: Vec<WorkerPool> = WIDTHS.iter().map(|&w| WorkerPool::new(w)).collect();
    let keep_isolated = RmatConfig { keep_isolated: true, ..rmat(8, 4, 5, true, false) };
    let configs = [
        ("directed", rmat(10, 8, 1, true, false)),
        ("undirected (Graph500)", Graph500Config::new(10).with_seed(2).rmat()),
        ("weighted directed", rmat(9, 8, 3, true, true)),
        ("weighted undirected (Graph500)", Graph500Config::new(9).with_weights(true).rmat()),
        ("keep isolated", keep_isolated),
        ("scale 1", rmat(1, 16, 6, true, false)),
        ("scale 1, weighted", rmat(1, 16, 6, false, true)),
        ("m below the width", rmat(1, 1, 7, true, false)),
        ("m below the width, undirected", rmat(2, 1, 8, false, false)),
    ];
    for (name, cfg) in configs {
        assert_width_invariant(name, cfg, &pools);
    }
}

#[test]
fn self_loops_on_range_boundaries() {
    // The first seed whose self loops open and close pool ranges at
    // some width of the sweep.
    let cfg = (0..)
        .map(|seed| rmat(3, 4, seed, false, false))
        .find(|&cfg| {
            let loops = self_loops(cfg);
            let m = (cfg.edge_factor as usize) << cfg.scale;
            let ranges: Vec<_> =
                WIDTHS.iter().flat_map(|&w| split_ranges(w, m)).filter(|r| r.start > 0).collect();
            let opens = ranges.iter().any(|r| loops.contains(&r.start));
            let closes = ranges.iter().any(|r| r.end < m && loops.contains(&(r.end - 1)));
            opens && closes
        })
        .expect("some seed puts self loops on range boundaries");
    let pools: Vec<WorkerPool> = WIDTHS.iter().map(|&w| WorkerPool::new(w)).collect();
    assert_width_invariant("self loops on range boundaries", cfg, &pools);
}
