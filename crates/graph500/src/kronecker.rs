//! Kronecker / R-MAT edge sampling.

use std::sync::atomic::{AtomicBool, Ordering};

use graphalytics_core::pool::{SharedSlice, WorkerPool};
use graphalytics_core::{Edge, Graph, GraphBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::permute::VertexPermutation;

/// General R-MAT configuration: recursive quadrant probabilities `a`, `b`,
/// `c` (with `d = 1 - a - b - c`), `2^scale` initial vertices and
/// `edge_factor · 2^scale` sampled edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    pub scale: u32,
    pub edge_factor: u32,
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub seed: u64,
    pub directed: bool,
    pub weighted: bool,
    /// Keep vertices that end up with no incident edge. Graph500 drops
    /// them; proxies for real graphs may keep them.
    pub keep_isolated: bool,
}

impl RmatConfig {
    /// `d = 1 - a - b - c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Checks that the probabilities form a distribution.
    fn validate(&self) {
        assert!(self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0, "invalid R-MAT probabilities");
        assert!(self.d() >= 0.0, "a + b + c must be <= 1");
        assert!(self.scale >= 1 && self.scale < 40, "scale out of range");
    }

    /// Generates the graph: samples edges, permutes vertex labels, removes
    /// self loops, deduplicates, and (optionally) drops isolated vertices.
    pub fn generate(self) -> Graph {
        self.generate_with(&WorkerPool::inline())
    }

    /// Generates the graph on `pool`; the output is identical to
    /// [`RmatConfig::generate`] at every pool width.
    ///
    /// Unweighted edges are sampled on the pool. Edge `k` always takes
    /// `5 · scale` draws, so each range of edge indices runs its own copy
    /// of the seed's one stream, advanced to draw `5 · scale · start`
    /// ([`SmallRng::advance`]), and writes its non-self-loop edges —
    /// permuted, canonicalized, endpoints marked — into its own slots of
    /// one `m`-slot buffer. A compaction then closes the holes the self
    /// loops leave, in edge order. A weighted edge draws its weight only
    /// once it is known not to be a self loop, so where an edge's draws
    /// start depends on the edges before it: weighted sampling stays
    /// sequential, and only its permute/canonicalize/mark pass runs on
    /// the pool. Every buffer is allocated before dispatch; pool workers
    /// allocate nothing. The finalize (ordering, dedup, validation) is
    /// [`GraphBuilder::build_with`] on `pool`.
    pub fn generate_with(self, pool: &WorkerPool) -> Graph {
        self.validate();
        let n = 1u64 << self.scale;
        let m = self.edge_factor as usize * n as usize;
        let sampler = KroneckerSampler::new(self.a, self.b, self.c);
        // Label permutation destroys the locality structure the recursive
        // construction would otherwise leave in the id space, exactly like
        // the Graph500 reference implementation.
        let perm = VertexPermutation::new(n, self.seed ^ 0x9E37_79B9_7F4A_7C15);

        let mut edges: Vec<Edge> = Vec::with_capacity(m);
        let touched: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        // One sampled edge that is not a self loop (those are outside the
        // data model), permuted and canonicalized, its endpoints marked.
        let place = |u: u64, v: u64, w: f64| {
            let (pu, pv) = (perm.apply(u), perm.apply(v));
            touched[pu as usize].store(true, Ordering::Relaxed);
            touched[pv as usize].store(true, Ordering::Relaxed);
            if self.directed || pu < pv {
                Edge::weighted(pu, pv, w)
            } else {
                Edge::weighted(pv, pu, w)
            }
        };
        if self.weighted {
            let mut rng = SmallRng::seed_from_u64(self.seed);
            for _ in 0..m {
                let (u, v) = sampler.sample_edge(self.scale, &mut rng);
                if u != v {
                    edges.push(Edge::weighted(u, v, rng.random::<f64>()));
                }
            }
            let slots = SharedSlice::new(edges.as_mut_ptr());
            pool.run(edges.len(), |_, range| {
                // SAFETY: the pool's ranges are disjoint and lie within
                // `0..edges.len()`, every slot of which is initialized.
                let chunk = unsafe { slots.slice_mut(range.start, range.len()) };
                for e in chunk {
                    *e = place(e.src, e.dst, e.weight);
                }
            });
        } else {
            let draws_per_edge = 5 * self.scale as u128;
            let slots = SharedSlice::new(edges.spare_capacity_mut().as_mut_ptr());
            let written = pool.run(m, |_, range| {
                let mut rng = SmallRng::seed_from_u64(self.seed);
                rng.advance(draws_per_edge * range.start as u128);
                // SAFETY: the pool's ranges are disjoint and lie within
                // `0..m`, the buffer's capacity; the slots are
                // `MaybeUninit`, so writing them needs no initialized value.
                let chunk = unsafe { slots.slice_mut(range.start, range.len()) };
                let (start, mut kept) = (range.start, 0);
                for _ in range {
                    let (u, v) = sampler.sample_edge(self.scale, &mut rng);
                    if u != v {
                        chunk[kept].write(place(u, v, 1.0));
                        kept += 1;
                    }
                }
                (start, kept)
            });
            let spare = edges.spare_capacity_mut();
            let mut len = 0;
            for (start, kept) in written {
                spare.copy_within(start..start + kept, len);
                len += kept;
            }
            // SAFETY: the compaction moved every range's `kept` written
            // edges to the front, so slots `0..len` are initialized.
            unsafe { edges.set_len(len) };
        }
        let mut builder = GraphBuilder::from_canonical_edges(self.directed, edges);
        builder.set_weighted(self.weighted);
        builder.dedup_edges(true);
        if self.keep_isolated {
            builder.add_vertex_range(n);
        } else {
            for (v, t) in touched.iter().enumerate() {
                if t.load(Ordering::Relaxed) {
                    builder.add_vertex(v as u64);
                }
            }
        }
        builder.build_with(pool).expect("generator output satisfies the data model")
    }
}

/// Samples edges from the recursive Kronecker quadrant distribution.
///
/// At every one of the `scale` levels the sampler picks one of the four
/// quadrants of the adjacency matrix with probabilities `(a, b, c, d)` and
/// recurses into it; the leaf determines the `(row, column) = (src, dst)`
/// pair. A small amount of multiplicative noise is applied per level (as in
/// the Graph500 reference) so the distribution does not collapse into exact
/// self-similarity.
#[derive(Debug, Clone, Copy)]
pub struct KroneckerSampler {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl KroneckerSampler {
    /// Creates a sampler with quadrant probabilities `a`, `b`, `c`
    /// (`d` implied).
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        KroneckerSampler { a, b, c, d: 1.0 - a - b - c }
    }

    /// Samples one `(src, dst)` pair among `2^scale` vertices.
    ///
    /// Each level draws four noise factors and one uniform `x`, then sets
    /// its bits from comparisons against the cumulative sums instead of
    /// branching on the quadrant: the quadrant is a coin flip the branch
    /// predictor loses about every other level. Quadrants are `a` (no
    /// bit), `b` (dst), `c` (src), `d` (both).
    pub fn sample_edge(&self, scale: u32, rng: &mut SmallRng) -> (u64, u64) {
        // ±5% multiplicative noise per level, renormalized.
        let noise = |p: f64, r: &mut SmallRng| p * (0.95 + 0.1 * r.random::<f64>());
        let (mut src, mut dst) = (0u64, 0u64);
        for _ in 0..scale {
            let (na, nb, nc) = (noise(self.a, rng), noise(self.b, rng), noise(self.c, rng));
            let nd = noise(self.d, rng);
            let ab = na + nb;
            let abc = ab + nc;
            let x = rng.random::<f64>() * (abc + nd);
            src = (src << 1) | (x >= ab) as u64;
            dst = (dst << 1) | ((x >= na) & (x < ab) | (x >= abc)) as u64;
        }
        (src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scale: u32) -> RmatConfig {
        RmatConfig {
            scale,
            edge_factor: 8,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 7,
            directed: true,
            weighted: false,
            keep_isolated: false,
        }
    }

    /// The quadrant if-chain `sample_edge` replaced, kept as its model.
    fn reference_sample_edge(a: f64, b: f64, c: f64, scale: u32, rng: &mut SmallRng) -> (u64, u64) {
        let (mut src, mut dst) = (0u64, 0u64);
        for _ in 0..scale {
            src <<= 1;
            dst <<= 1;
            let noise = |p: f64, r: &mut SmallRng| p * (0.95 + 0.1 * r.random::<f64>());
            let (na, nb, nc) = (noise(a, rng), noise(b, rng), noise(c, rng));
            let nd = noise(1.0 - a - b - c, rng);
            let total = na + nb + nc + nd;
            let x = rng.random::<f64>() * total;
            if x < na {
                // top-left: no bits set
            } else if x < na + nb {
                dst |= 1;
            } else if x < na + nb + nc {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        (src, dst)
    }

    #[test]
    fn branch_free_sampler_matches_reference_edge_by_edge() {
        let mut params = vec![(0.57, 0.19, 0.19), (0.6, 0.0, 0.3), (0.6, 0.3, 0.0)];
        params.extend(graphalytics_core::datasets::all_datasets().iter().filter_map(|s| {
            match s.recipe {
                graphalytics_core::datasets::ProxyRecipe::Rmat { a, b, c } => Some((a, b, c)),
                _ => None,
            }
        }));
        // a + b + c as close to 1 as `validate` allows: d computes to 0.
        let (a, b) = (0.57, 0.19);
        params.push((a, b, 1.0 - a - b));
        for (i, &(a, b, c)) in params.iter().enumerate() {
            let cfg = RmatConfig { a, b, c, ..cfg(8) };
            cfg.validate();
            let sampler = KroneckerSampler::new(a, b, c);
            let mut fast = SmallRng::seed_from_u64(i as u64);
            let mut reference = SmallRng::seed_from_u64(i as u64);
            for k in 0..1_000_000u32 {
                let scale = 1 + k % 8;
                assert_eq!(
                    sampler.sample_edge(scale, &mut fast),
                    reference_sample_edge(a, b, c, scale, &mut reference),
                    "(a, b, c) = ({a}, {b}, {c}), sample {k}"
                );
            }
            assert_eq!(fast.random::<u64>(), reference.random::<u64>(), "same draws consumed");
        }
    }

    #[test]
    fn sample_edge_in_range() {
        let sampler = KroneckerSampler::new(0.57, 0.19, 0.19);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let (u, v) = sampler.sample_edge(6, &mut rng);
            assert!(u < 64 && v < 64);
        }
    }

    #[test]
    fn directed_generation_valid() {
        let g = cfg(8).generate();
        g.validate().unwrap();
        assert!(g.is_directed());
    }

    #[test]
    fn pool_generation_is_bit_identical_to_sequential() {
        let sequential = cfg(9).generate();
        for threads in [2u32, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = cfg(9).generate_with(&pool);
            assert_eq!(sequential.vertices(), pooled.vertices(), "threads={threads}");
            assert_eq!(sequential.edges(), pooled.edges(), "threads={threads}");
        }
    }

    #[test]
    fn keep_isolated_retains_full_vertex_range() {
        let mut c = cfg(8);
        c.keep_isolated = true;
        let g = c.generate();
        assert_eq!(g.vertex_count(), 256);
    }

    #[test]
    fn skew_increases_with_a() {
        let max_over_mean = |a: f64| {
            let mut c = cfg(9);
            c.a = a;
            c.b = (1.0 - a) / 3.0;
            c.c = (1.0 - a) / 3.0;
            let csr = c.generate().to_csr();
            let n = csr.num_vertices();
            let max = (0..n as u32).map(|u| csr.out_degree(u)).max().unwrap() as f64;
            max / (csr.num_arcs() as f64 / n as f64)
        };
        assert!(max_over_mean(0.7) > max_over_mean(0.3));
    }

    #[test]
    #[should_panic(expected = "a + b + c")]
    fn invalid_probabilities_panic() {
        let mut c = cfg(5);
        c.a = 0.9;
        c.b = 0.2;
        c.generate();
    }
}
