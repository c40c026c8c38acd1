//! `MutableGraph` against a naive edge-set model.
//!
//! The model is a `BTreeMap<(u32, u32), f64>` keyed by dense endpoints
//! (an undirected edge once, as `(min, max)`), and it is the whole
//! specification of the delta log:
//!
//! * a batch applies its deletions first, then its insertions, each in
//!   list order;
//! * a deletion makes the edge absent;
//! * an insertion makes the edge present with the given weight, except
//!   that a present edge whose weight compares equal (`==`, so `-0.0`
//!   equals `0.0`) keeps the weight it has;
//! * an unweighted graph stores 1.0 whatever the batch says.
//!
//! Random interleavings of `apply`, `compact` and `materialize` on
//! directed and undirected, weighted and unweighted R-MAT bases run at
//! pool widths 1, 2 and 4. The batches re-insert deleted base edges with
//! their old weight and with a new one, update weights, delete overlay
//! edges and draw `0.0` / `-0.0` often. After every step `degrees`,
//! `num_arcs` and `has_out_edge` equal the model's; every `materialize`
//! and every compacted base equals `Csr::from_graph` of the model's edge
//! list row for row, in both directions, weights compared by bits.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::core::{Csr, DeltaConfig, Edge, GraphBuilder, MutableGraph, MutationBatch};
use graphalytics::graph500::RmatConfig;
use graphalytics::prelude::*;

/// SplitMix64: the step stream of one interleaving.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The edge-set model over dense indices.
struct Model {
    directed: bool,
    weighted: bool,
    n: u32,
    edges: BTreeMap<(u32, u32), f64>,
}

impl Model {
    fn of(csr: &Csr) -> Model {
        let mut edges = BTreeMap::new();
        for u in 0..csr.num_vertices() as u32 {
            for (&v, &w) in csr.out_neighbors(u).iter().zip(csr.out_weights(u)) {
                if csr.is_directed() || u < v {
                    edges.insert((u, v), w);
                }
            }
        }
        Model {
            directed: csr.is_directed(),
            weighted: csr.is_weighted(),
            n: csr.num_vertices() as u32,
            edges,
        }
    }

    fn key(&self, u: u32, v: u32) -> (u32, u32) {
        if self.directed { (u, v) } else { (u.min(v), u.max(v)) }
    }

    fn delete(&mut self, u: u32, v: u32) {
        let key = self.key(u, v);
        self.edges.remove(&key);
    }

    fn insert(&mut self, u: u32, v: u32, w: f64) {
        let w = if self.weighted { w } else { 1.0 };
        let key = self.key(u, v);
        match self.edges.get(&key) {
            Some(&old) if old == w => {}
            _ => {
                self.edges.insert(key, w);
            }
        }
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        self.edges.contains_key(&self.key(u, v))
    }

    fn degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.n as usize];
        for &(u, v) in self.edges.keys() {
            d[u as usize] += 1;
            if !self.directed {
                d[v as usize] += 1;
            }
        }
        d
    }

    /// `Csr::from_graph` of the model's edge list, on `ids` (the dense
    /// order of sparse ids the base graph fixed).
    fn cold_build(&self, ids: &[u64]) -> Csr {
        let mut b = GraphBuilder::new(self.directed);
        b.set_weighted(self.weighted);
        for &id in ids {
            b.add_vertex(id);
        }
        for (&(u, v), &w) in &self.edges {
            b.add_weighted_edge(ids[u as usize], ids[v as usize], w);
        }
        Csr::from_graph(&b.build().unwrap()).unwrap()
    }
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|w| w.to_bits()).collect()
}

/// `got` equals `want` row for row, in both directions, weights by bits.
fn assert_same_csr(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(got.vertex_ids(), want.vertex_ids(), "{what}: vertex ids");
    assert_eq!(got.is_directed(), want.is_directed(), "{what}: directed");
    assert_eq!(got.is_weighted(), want.is_weighted(), "{what}: weighted");
    assert_eq!(got.num_arcs(), want.num_arcs(), "{what}: arcs");
    for u in 0..want.num_vertices() as u32 {
        assert_eq!(got.out_neighbors(u), want.out_neighbors(u), "{what}: out row {u}");
        assert_eq!(bits(got.out_weights(u)), bits(want.out_weights(u)), "{what}: out weights {u}");
        assert_eq!(got.in_neighbors(u), want.in_neighbors(u), "{what}: in row {u}");
        assert_eq!(bits(got.in_weights(u)), bits(want.in_weights(u)), "{what}: in weights {u}");
    }
}

/// Weights that collide often: both zeros, small repeats, and fresh
/// values.
fn weight(rng: &mut Rng) -> f64 {
    match rng.below(6) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => 2.5,
        _ => (rng.below(1000) as f64) / 64.0,
    }
}

/// Draws one batch against the model. `removed` remembers edges that
/// left the graph (with their weight then), `added` edges a batch put
/// in, so later batches re-insert deleted edges and delete overlay ones.
fn draw_batch(
    rng: &mut Rng,
    model: &Model,
    ids: &[u64],
    removed: &mut Vec<(u32, u32, f64)>,
    added: &mut Vec<(u32, u32)>,
) -> MutationBatch {
    let n = model.n as usize;
    let present: Vec<((u32, u32), f64)> = model.edges.iter().map(|(&k, &w)| (k, w)).collect();
    let mut batch = MutationBatch::new();
    let pair = |rng: &mut Rng| loop {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            return (u, v);
        }
    };
    // Undirected batches name an edge in either orientation.
    let orient = |rng: &mut Rng, u: u32, v: u32| {
        if !model.directed && rng.below(2) == 0 { (v, u) } else { (u, v) }
    };
    for _ in 0..rng.below(12) {
        let (u, v) = match rng.below(3) {
            0 if !present.is_empty() => present[rng.below(present.len())].0,
            1 if !added.is_empty() => added[rng.below(added.len())],
            _ => pair(rng),
        };
        if let Some(&w) = model.edges.get(&model.key(u, v)) {
            removed.push((u, v, w));
        }
        let (a, b) = orient(rng, u, v);
        batch.delete(ids[a as usize], ids[b as usize]);
    }
    for _ in 0..rng.below(16) {
        let (u, v, w) = match rng.below(5) {
            // A deleted edge back with its old weight, the other zero
            // (equal to the old weight, not the same bits), or a new one.
            0 if !removed.is_empty() => {
                let (u, v, old) = removed[rng.below(removed.len())];
                let w = match rng.below(3) {
                    0 => old,
                    1 if old == 0.0 => -old,
                    _ => weight(rng),
                };
                (u, v, w)
            }
            // A present edge with the same weight, or an update.
            1 if !present.is_empty() => {
                let ((u, v), old) = present[rng.below(present.len())];
                (u, v, if rng.below(3) == 0 { old } else { weight(rng) })
            }
            _ => {
                let (u, v) = pair(rng);
                (u, v, weight(rng))
            }
        };
        added.push((u, v));
        let (a, b) = orient(rng, u, v);
        batch.insert_weighted(ids[a as usize], ids[b as usize], w);
    }
    batch
}

/// The model's view of `batch`: deletions first, then insertions.
fn apply_to_model(model: &mut Model, batch: &MutationBatch, index: impl Fn(u64) -> u32) {
    for &(a, b) in &batch.deletions {
        model.delete(index(a), index(b));
    }
    for e in &batch.insertions {
        model.insert(index(e.src), index(e.dst), e.weight);
    }
}

/// `degrees`, `num_arcs` and `has_out_edge` agree with the model: on
/// every model edge (both orientations when undirected), on every pair
/// `probe` names, and on a few random pairs.
fn assert_view_matches(mg: &MutableGraph, model: &Model, probe: &[(u32, u32)], rng: &mut Rng, what: &str) {
    let degrees = model.degrees();
    assert_eq!(mg.degrees(), &degrees[..], "{what}: degrees");
    assert_eq!(mg.num_arcs(), degrees.iter().map(|&d| d as u64).sum::<u64>(), "{what}: num_arcs");
    for &(u, v) in model.edges.keys() {
        assert!(mg.has_out_edge(u, v), "{what}: missing {u} -> {v}");
        if !model.directed {
            assert!(mg.has_out_edge(v, u), "{what}: missing {v} -> {u}");
        }
    }
    let n = model.n as usize;
    let random: Vec<(u32, u32)> =
        (0..32).map(|_| (rng.below(n) as u32, rng.below(n) as u32)).collect();
    for &(u, v) in probe.iter().chain(&random) {
        for (a, b) in [(u, v), (v, u)] {
            assert_eq!(mg.has_out_edge(a, b), model.contains(a, b), "{what}: has_out_edge({a}, {b})");
        }
    }
}

fn pool_of(threads: u32) -> WorkerPool {
    if threads == 1 {
        WorkerPool::inline()
    } else {
        WorkerPool::new(threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random interleaving per case, replayed at pool widths 1, 2
    /// and 4 against the model.
    #[test]
    fn mutable_graph_matches_edge_set_model(
        scale in 4u32..9,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
        weighted in proptest::bool::ANY,
        auto_compact in proptest::bool::ANY,
    ) {
        let base = RmatConfig {
            scale,
            edge_factor: 6,
            a: 0.55,
            b: 0.2,
            c: 0.2,
            seed,
            directed,
            weighted,
            keep_isolated: false,
        }
        .generate();
        let base = Arc::new(base.to_csr());
        let ids = base.vertex_ids().to_vec();
        for threads in [1u32, 2, 4] {
            let pool = pool_of(threads);
            let config = DeltaConfig { compact_fill: 0.1, auto_compact };
            let mut mg = MutableGraph::with_config(base.clone(), config);
            let mut model = Model::of(&base);
            let mut rng = Rng(seed ^ 0xDE17A);
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            for step in 0..24 {
                let what = format!(
                    "scale {scale} seed {seed} directed {directed} weighted {weighted} \
                     auto {auto_compact} width {threads} step {step}"
                );
                let mut probe = Vec::new();
                match rng.below(8) {
                    0 => {
                        mg.compact(&pool).unwrap();
                        prop_assert_eq!(mg.delta_arcs(), 0, "{}: compaction resets the log", what);
                        assert_same_csr(mg.base(), &model.cold_build(&ids), &format!("{what} compact"));
                    }
                    1 | 2 => {
                        let snapshot = mg.materialize(&pool).unwrap();
                        assert_same_csr(&snapshot, &model.cold_build(&ids), &format!("{what} materialize"));
                    }
                    _ => {
                        let batch = draw_batch(&mut rng, &model, &ids, &mut removed, &mut added);
                        let index = |id: u64| ids.binary_search(&id).unwrap() as u32;
                        apply_to_model(&mut model, &batch, index);
                        let outcome = mg.apply(&batch, &pool).unwrap();
                        if outcome.compacted {
                            assert_same_csr(mg.base(), &model.cold_build(&ids), &format!("{what} auto-compact"));
                        }
                        probe.extend(batch.deletions.iter().map(|&(a, b)| (index(a), index(b))));
                        probe.extend(batch.insertions.iter().map(|e: &Edge| (index(e.src), index(e.dst))));
                    }
                }
                assert_view_matches(&mg, &model, &probe, &mut rng, &what);
            }
            let snapshot = mg.materialize(&pool).unwrap();
            assert_same_csr(&snapshot, &model.cold_build(&ids), "final materialize");
        }
    }
}
