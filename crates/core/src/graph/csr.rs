//! Compressed-sparse-row adjacency, the compute representation shared by the
//! reference implementations and all six platform engines.
//!
//! The build (the benchmark's "upload" phase) runs on a [`WorkerPool`]:
//! per-worker degree counting over contiguous edge chunks, a prefix
//! merge that turns the per-worker counts into exclusive row cursors,
//! and a race-free parallel scatter. Rows are born sorted: a [`Graph`]'s
//! edge list is strictly ascending by `(src, dst)` (verified while the
//! counting pass reads it), chunk `w` holds earlier edges than chunk
//! `w + 1` and its cursors reserve earlier slots, so every out-row fills
//! in ascending `dst` and every in-row in ascending `src`. An undirected
//! row `v` first receives its smaller neighbours (edges `(s, v)`, `s < v`,
//! sorted before any edge with source `v`) and then its larger ones
//! (edges `(v, d)`) — which is why the canonical `src < dst` orientation
//! is verified too. The result is therefore bit-identical for every
//! thread count, including the sequential build ([`Csr::from_graph`]
//! uses the inline pool), with no per-row sort.
//!
//! Sparse-to-dense remapping is hashmap-free: the sorted vertex-id list
//! is classified once into contiguous / dense-table / binary-search
//! (`Remap`), so the common generator case (ids `0..n`) remaps each
//! endpoint with a subtraction instead of an `O(log n)` search.
//!
//! Only SSSP reads edge weights, and an unweighted graph has none: its
//! CSR stores a 4-byte target per arc and no weight, and every weight
//! row reads a prefix of one shared row of 1.0 (`ones`) as long as the
//! longest row. A weighted CSR stores an 8-byte `f64` beside each
//! target, 12 bytes an arc.

use super::{Edge, Graph, Remap, VertexId};
use crate::error::{Error, Result};
use crate::pool::{SharedSlice, WorkerPool};

/// CSR adjacency in both directions with dense `u32` vertex indices.
///
/// Sparse dataset identifiers are mapped to dense indices `0..n` in sorted
/// order; [`Csr::id_of`] and [`Csr::index_of`] convert between the two.
/// For undirected graphs every edge is materialized in both rows of the
/// *out* structure and the *in* structure aliases it, so algorithms can be
/// written uniformly against `out_*`/`in_*`.
///
/// Adjacency rows are sorted by target index, enabling `O(log d)` edge
/// membership tests ([`Csr::has_out_edge`]) and the linear-merge row
/// intersections LCC is built on.
///
/// A stored arc costs 12 bytes when the graph is weighted (a `u32`
/// target and an `f64` weight) and 4 bytes when it is not: an unweighted
/// CSR keeps no weight array, and [`Csr::out_weights`] /
/// [`Csr::in_weights`] return a row-long prefix of `ones`, one row of
/// 1.0 as long as the longest row.
#[derive(Debug, Clone)]
pub struct Csr {
    directed: bool,
    weighted: bool,
    vertex_ids: Box<[VertexId]>,
    out_offsets: Box<[u64]>,
    // `Vec`s, not boxed slices: a delta-log snapshot keeps the capacity
    // it reserved (`delta::patch_rows`). The weights are empty when the
    // graph is unweighted.
    out_targets: Vec<u32>,
    out_weights: Vec<f64>,
    // Empty (aliased to out) for undirected graphs.
    in_offsets: Box<[u64]>,
    in_targets: Vec<u32>,
    in_weights: Vec<f64>,
    // Unweighted: 1.0 as long as the longest row. Empty when weighted.
    ones: Box<[f64]>,
}

/// One direction of a CSR's adjacency as finished arrays: `offsets` has
/// `n + 1` ascending entries ending at `targets.len()`, each row's
/// targets ascend and lie below `n`, and `weights` parallels `targets`
/// when the graph is weighted and is empty when it is not.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    pub(crate) offsets: Vec<u64>,
    pub(crate) targets: Vec<u32>,
    pub(crate) weights: Vec<f64>,
}

/// Rewrites `counts[w][v]` (per-worker degree contributions) into each
/// worker's exclusive prefix within row `v` and returns the global row
/// offsets. Parallel over vertex ranges: each task owns a disjoint set
/// of columns across all worker rows.
fn exclusive_offsets(pool: &WorkerPool, n: usize, counts: &mut [Vec<u32>]) -> Vec<u64> {
    let mut offsets = vec![0u64; n + 1];
    {
        let off = SharedSlice::new(offsets.as_mut_ptr());
        let rows: Vec<SharedSlice<u32>> =
            counts.iter_mut().map(|c| SharedSlice::new(c.as_mut_ptr())).collect();
        pool.run(n, |_, vrange| {
            for v in vrange {
                let mut acc = 0u64;
                for row in &rows {
                    // SAFETY: vertex ranges are disjoint; only this task
                    // touches column v of any row.
                    let cell = unsafe { row.at(v) };
                    let c = *cell;
                    *cell = acc as u32;
                    acc += c as u64;
                }
                debug_assert!(acc <= u32::MAX as u64, "row degree overflows u32 cursor");
                unsafe { *off.at(v + 1) = acc };
            }
        });
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    offsets
}

/// Dense endpoints of an edge-list chunk in order. Sources ascend
/// through the list, so a run of edges from one source looks it up once;
/// both build passes remap this way, and no endpoint copy is kept
/// between them.
struct Endpoints<'a> {
    remap: &'a Remap<'a>,
    src: Option<(VertexId, u32)>,
}

impl<'a> Endpoints<'a> {
    fn new(remap: &'a Remap<'a>) -> Self {
        Endpoints { remap, src: None }
    }

    // Left to `#[inline]`, it was a call per edge: a build of 450 k
    // edges over table-remapped ids at pool width 2 (2 vCPUs) took
    // 10–14 ms instead of 6.4–7.8 ms.
    #[inline(always)]
    fn of(&mut self, e: &Edge) -> Option<(u32, u32)> {
        let s = match self.src {
            Some((id, s)) if id == e.src => s,
            _ => {
                let s = self.remap.index_of(e.src)?;
                self.src = Some((e.src, s));
                s
            }
        };
        Some((s, self.remap.index_of(e.dst)?))
    }
}

impl Csr {
    /// Builds the CSR form of `g` sequentially (the inline pool).
    ///
    /// Fails with [`Error::InvalidGraph`] when an edge endpoint is not a
    /// declared vertex or the edge list is not in the [`Graph`] order —
    /// possible only for graphs that bypassed
    /// [`GraphBuilder`](super::GraphBuilder) validation.
    pub fn from_graph(g: &Graph) -> Result<Csr> {
        Csr::from_graph_with(g, &WorkerPool::inline())
    }

    /// Builds the CSR form of `g` on `pool`. Bit-identical to
    /// [`Csr::from_graph`] for every pool width (see the module docs).
    pub fn from_graph_with(g: &Graph, pool: &WorkerPool) -> Result<Csr> {
        crate::fault::checkpoint(crate::fault::FaultSite::Build)?;
        let n = g.vertex_count();
        let vertex_ids: Box<[VertexId]> = g.vertices().into();
        let remap = Remap::new(&vertex_ids);
        let directed = g.is_directed();
        let weighted = g.is_weighted();
        let edges = g.edges();
        let m = edges.len();

        // Pass 1 — count per-worker degrees over contiguous edge chunks,
        // and verify the endpoints and the edge order the scatter relies
        // on (each chunk also looks at the edge before its first).
        let counted = pool.run(m, |_, chunk| -> Result<(Vec<u32>, Vec<u32>)> {
            let mut endpoints = Endpoints::new(&remap);
            let mut out_cnt = vec![0u32; n];
            let mut in_cnt = vec![0u32; if directed { n } else { 0 }];
            for i in chunk {
                let e = &edges[i];
                let ordered = i == 0 || (edges[i - 1].src, edges[i - 1].dst) < (e.src, e.dst);
                if !ordered || (!directed && e.src >= e.dst) {
                    return Err(Error::InvalidGraph(format!(
                        "edge ({}, {}) is not in edge order (strictly ascending \
                             (src, dst); src < dst when undirected)",
                        e.src, e.dst
                    )));
                }
                let Some((s, d)) = endpoints.of(e) else {
                    return Err(Error::InvalidGraph(format!(
                        "edge ({}, {}) references undeclared vertex",
                        e.src, e.dst
                    )));
                };
                out_cnt[s as usize] += 1;
                if directed {
                    in_cnt[d as usize] += 1;
                } else {
                    out_cnt[d as usize] += 1;
                }
            }
            Ok((out_cnt, in_cnt))
        });
        let mut out_counts = Vec::with_capacity(counted.len());
        let mut in_counts = Vec::with_capacity(counted.len());
        for worker in counted {
            let (o, i) = worker?;
            out_counts.push(o);
            in_counts.push(i);
        }

        // Pass 2 — per-worker counts → global offsets + exclusive cursors.
        crate::fault::checkpoint(crate::fault::FaultSite::Build)?;
        let out_offsets = exclusive_offsets(pool, n, &mut out_counts);
        let in_offsets =
            if directed { exclusive_offsets(pool, n, &mut in_counts) } else { Vec::new() };

        // Pass 3 — scatter: worker w fills the slots its exclusive
        // cursors reserve, so no two workers ever write the same index,
        // and edges land in every row in edge-list order — sorted. The
        // cursors reserve every slot, so the arrays start unwritten. An
        // unweighted graph writes no weights.
        let stored_out = out_offsets[n] as usize;
        let stored_in = if directed { *in_offsets.last().unwrap() as usize } else { 0 };
        let weights_of = |stored: usize| if weighted { stored } else { 0 };
        let mut out_targets = Vec::<u32>::with_capacity(stored_out);
        let mut out_weights = Vec::<f64>::with_capacity(weights_of(stored_out));
        let mut in_targets = Vec::<u32>::with_capacity(stored_in);
        let mut in_weights = Vec::<f64>::with_capacity(weights_of(stored_in));
        {
            let tgt = SharedSlice::new(out_targets.spare_capacity_mut().as_mut_ptr());
            let wts = SharedSlice::new(out_weights.spare_capacity_mut().as_mut_ptr());
            let itgt = SharedSlice::new(in_targets.spare_capacity_mut().as_mut_ptr());
            let iwts = SharedSlice::new(in_weights.spare_capacity_mut().as_mut_ptr());
            let out_cursors: Vec<SharedSlice<u32>> =
                out_counts.iter_mut().map(|c| SharedSlice::new(c.as_mut_ptr())).collect();
            let in_cursors: Vec<SharedSlice<u32>> =
                in_counts.iter_mut().map(|c| SharedSlice::new(c.as_mut_ptr())).collect();
            pool.run(m, |w, chunk| {
                // SAFETY (whole loop): cursor row w belongs to worker w
                // alone; slot indices derived from exclusive cursors are
                // globally unique.
                let mut endpoints = Endpoints::new(&remap);
                for e in &edges[chunk] {
                    let (s, d) = endpoints.of(e).expect("endpoints checked by the counting pass");
                    unsafe {
                        let c = out_cursors[w].at(s as usize);
                        let pos = out_offsets[s as usize] as usize + *c as usize;
                        *c += 1;
                        tgt.at(pos).write(d);
                        if weighted {
                            wts.at(pos).write(e.weight);
                        }
                        if directed {
                            let c = in_cursors[w].at(d as usize);
                            let pos = in_offsets[d as usize] as usize + *c as usize;
                            *c += 1;
                            itgt.at(pos).write(s);
                            if weighted {
                                iwts.at(pos).write(e.weight);
                            }
                        } else {
                            let c = out_cursors[w].at(d as usize);
                            let pos = out_offsets[d as usize] as usize + *c as usize;
                            *c += 1;
                            tgt.at(pos).write(s);
                            if weighted {
                                wts.at(pos).write(e.weight);
                            }
                        }
                    }
                }
            });
        }
        // SAFETY: the scatter wrote every slot its cursors reserved, and
        // they reserve each row's degree: all of `0..stored` (no slot
        // when unweighted).
        unsafe {
            out_targets.set_len(stored_out);
            out_weights.set_len(weights_of(stored_out));
            in_targets.set_len(stored_in);
            in_weights.set_len(weights_of(stored_in));
        }

        let out = Rows { offsets: out_offsets, targets: out_targets, weights: out_weights };
        let inn = Rows { offsets: in_offsets, targets: in_targets, weights: in_weights };
        Ok(Csr::from_rows(directed, weighted, vertex_ids, out, inn))
    }

    /// Assembles a CSR from rows laid out by the caller (the scatter of
    /// [`Csr::from_graph_with`], and the delta log's snapshot,
    /// [`MutableGraph::materialize`](super::MutableGraph::materialize),
    /// which checks every row it merges). `inn` is empty for undirected
    /// graphs, whose in-structure aliases the out-structure; the weights
    /// are empty for unweighted graphs, whose rows read `ones`.
    pub(crate) fn from_rows(
        directed: bool,
        weighted: bool,
        vertex_ids: Box<[VertexId]>,
        out: Rows,
        inn: Rows,
    ) -> Csr {
        debug_assert_eq!(out.offsets.len(), vertex_ids.len() + 1);
        debug_assert_eq!(out.offsets.last().copied(), Some(out.targets.len() as u64));
        debug_assert_eq!(inn.offsets.len(), if directed { vertex_ids.len() + 1 } else { 0 });
        for rows in [&out, &inn] {
            debug_assert_eq!(rows.weights.len(), if weighted { rows.targets.len() } else { 0 });
        }
        let longest_row =
            |offsets: &[u64]| offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        let ones = if weighted {
            Box::default()
        } else {
            vec![1.0; longest_row(&out.offsets).max(longest_row(&inn.offsets))].into()
        };
        Csr {
            directed,
            weighted,
            vertex_ids,
            out_offsets: out.offsets.into(),
            out_targets: out.targets,
            out_weights: out.weights,
            in_offsets: inn.offsets.into(),
            in_targets: inn.targets,
            in_weights: inn.weights,
            ones,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_ids.len()
    }

    /// Number of *logical* edges (undirected edges counted once), matching
    /// the dataset's `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        let stored = self.out_targets.len();
        if self.directed {
            stored
        } else {
            stored / 2
        }
    }

    /// Number of stored arcs (2·|E| for undirected graphs). This is the unit
    /// the engines' work counters use for "edges scanned".
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_targets.len()
    }

    /// True for directed graphs.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// True when edge weights are meaningful.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Sparse id of dense index `u`.
    #[inline]
    pub fn id_of(&self, u: u32) -> VertexId {
        self.vertex_ids[u as usize]
    }

    /// All sparse ids, sorted (dense order).
    #[inline]
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.vertex_ids
    }

    /// Dense index of a sparse id, if present.
    #[inline]
    pub fn index_of(&self, v: VertexId) -> Option<u32> {
        self.vertex_ids.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Out-neighbour row of `u` (sorted). For undirected graphs this is the
    /// full neighbourhood.
    #[inline]
    pub fn out_neighbors(&self, u: u32) -> &[u32] {
        let (lo, hi) = self.out_range(u);
        &self.out_targets[lo..hi]
    }

    /// Weights parallel to [`Csr::out_neighbors`]; all 1.0 when the
    /// graph is unweighted.
    #[inline]
    pub fn out_weights(&self, u: u32) -> &[f64] {
        self.row_weights(&self.out_weights, self.out_range(u))
    }

    /// In-neighbour row of `u` (sorted); aliases the out row for undirected
    /// graphs.
    #[inline]
    pub fn in_neighbors(&self, u: u32) -> &[u32] {
        if self.directed {
            let (lo, hi) = self.in_range(u);
            &self.in_targets[lo..hi]
        } else {
            self.out_neighbors(u)
        }
    }

    /// Weights parallel to [`Csr::in_neighbors`]; all 1.0 when the
    /// graph is unweighted.
    #[inline]
    pub fn in_weights(&self, u: u32) -> &[f64] {
        if self.directed {
            self.row_weights(&self.in_weights, self.in_range(u))
        } else {
            self.out_weights(u)
        }
    }

    /// The weights of the row stored at `lo..hi`: `stored[lo..hi]` when
    /// weighted, otherwise as many of the shared 1.0.
    #[inline]
    fn row_weights<'a>(&'a self, stored: &'a [f64], (lo, hi): (usize, usize)) -> &'a [f64] {
        if self.weighted {
            &stored[lo..hi]
        } else {
            &self.ones[..hi - lo]
        }
    }

    /// Arcs stored in the out-rows before row `u` (`u` up to
    /// [`num_vertices`](Csr::num_vertices), whose value is
    /// [`num_arcs`](Csr::num_arcs)).
    #[inline]
    pub fn out_offset(&self, u: u32) -> usize {
        self.out_offsets[u as usize] as usize
    }

    /// [`Csr::out_offset`] for the in-rows; aliases it for undirected
    /// graphs.
    #[inline]
    pub fn in_offset(&self, u: u32) -> usize {
        if self.directed {
            self.in_offsets[u as usize] as usize
        } else {
            self.out_offset(u)
        }
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        let (lo, hi) = self.out_range(u);
        hi - lo
    }

    /// In-degree of `u` (== out-degree for undirected graphs).
    #[inline]
    pub fn in_degree(&self, u: u32) -> usize {
        if self.directed {
            let (lo, hi) = self.in_range(u);
            hi - lo
        } else {
            self.out_degree(u)
        }
    }

    /// True if the arc `u -> v` exists (`O(log d)`).
    #[inline]
    pub fn has_out_edge(&self, u: u32, v: u32) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Visits the *union* neighbourhood of `u` — distinct vertices adjacent
    /// via an in- or out-edge, `N(u)` in the LCC definition — in ascending
    /// order, passing each neighbour with the number of arcs between the
    /// two (1, or 2 for a reciprocal pair). An undirected edge stands for
    /// a reciprocal pair, so its multiplicity is always 2. Self loops are
    /// excluded by the data model.
    #[inline]
    pub fn for_each_union_neighbor(&self, u: u32, mut visit: impl FnMut(u32, u8)) {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let out = self.out_neighbors(u);
        if !self.directed {
            out.iter().for_each(|&v| visit(v, 2));
            return;
        }
        let inn = self.in_neighbors(u);
        let (mut i, mut j) = (0, 0);
        while i < out.len() && j < inn.len() {
            match out[i].cmp(&inn[j]) {
                Less => {
                    visit(out[i], 1);
                    i += 1;
                }
                Greater => {
                    visit(inn[j], 1);
                    j += 1;
                }
                Equal => {
                    visit(out[i], 2);
                    i += 1;
                    j += 1;
                }
            }
        }
        out[i..].iter().chain(&inn[j..]).for_each(|&v| visit(v, 1));
    }

    /// The union neighbourhood of `u` as a sorted list (see
    /// [`Csr::for_each_union_neighbor`]).
    pub fn neighborhood_union(&self, u: u32) -> Vec<u32> {
        let mut merged = Vec::with_capacity(self.out_degree(u));
        self.for_each_union_neighbor(u, |v, _| merged.push(v));
        merged
    }

    /// `|N(u)|`, the size of the union neighbourhood, without
    /// materializing it.
    pub fn union_degree(&self, u: u32) -> usize {
        if !self.directed {
            return self.out_degree(u);
        }
        let mut d = 0;
        self.for_each_union_neighbor(u, |_, _| d += 1);
        d
    }

    /// Resident size in bytes of what the CSR holds: ids, offsets,
    /// targets, and the weights or the shared row of 1.0. Used by
    /// upload-phase accounting and the service's store.
    pub fn resident_bytes(&self) -> u64 {
        (self.vertex_ids.len() * 8
            + (self.out_offsets.len() + self.in_offsets.len()) * 8
            + (self.out_targets.len() + self.in_targets.len()) * 4
            + (self.out_weights.len() + self.in_weights.len() + self.ones.len()) * 8) as u64
    }

    #[inline]
    fn out_range(&self, u: u32) -> (usize, usize) {
        (self.out_offsets[u as usize] as usize, self.out_offsets[u as usize + 1] as usize)
    }

    #[inline]
    fn in_range(&self, u: u32) -> (usize, usize) {
        (self.in_offsets[u as usize] as usize, self.in_offsets[u as usize + 1] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn directed_graph() -> Graph {
        // 10 -> 20, 10 -> 30, 20 -> 30, 30 -> 10
        let mut b = GraphBuilder::new(true);
        for v in [10u64, 20, 30] {
            b.add_vertex(v);
        }
        b.add_edge(10, 20);
        b.add_edge(10, 30);
        b.add_edge(20, 30);
        b.add_edge(30, 10);
        b.build().unwrap()
    }

    #[test]
    fn dense_mapping_is_sorted_order() {
        let csr = directed_graph().to_csr();
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.id_of(0), 10);
        assert_eq!(csr.id_of(2), 30);
        assert_eq!(csr.index_of(20), Some(1));
        assert_eq!(csr.index_of(99), None);
    }

    #[test]
    fn directed_adjacency() {
        let csr = directed_graph().to_csr();
        assert_eq!(csr.out_neighbors(0), &[1, 2]); // 10 -> {20, 30}
        assert_eq!(csr.out_neighbors(2), &[0]); // 30 -> {10}
        assert_eq!(csr.in_neighbors(2), &[0, 1]); // 30 <- {10, 20}
        assert_eq!(csr.in_degree(0), 1);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.num_arcs(), 4);
        assert!(csr.has_out_edge(0, 1));
        assert!(!csr.has_out_edge(1, 0));
    }

    #[test]
    fn undirected_adjacency_symmetric() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 3);
        let g = b.build().unwrap();
        let csr = g.to_csr();
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.num_arcs(), 6);
        assert_eq!(csr.out_neighbors(1), &[0, 2]);
        assert_eq!(csr.in_neighbors(1), &[0, 2]);
        assert_eq!(csr.out_degree(0), 2);
        assert!(csr.has_out_edge(3, 0));
    }

    #[test]
    fn weights_follow_sorted_targets() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.set_weighted(true);
        b.add_weighted_edge(0, 2, 2.5);
        b.add_weighted_edge(0, 1, 1.5);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(csr.out_neighbors(0), &[1, 2]);
        assert_eq!(csr.out_weights(0), &[1.5, 2.5]);
        assert_eq!(csr.in_weights(2), &[2.5]);
    }

    #[test]
    fn neighborhood_union_directed() {
        // 0 -> 1, 1 -> 0 (reciprocal), 0 -> 2, 3 -> 0
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 2);
        b.add_edge(3, 0);
        let csr = b.build().unwrap().to_csr();
        assert_eq!(csr.neighborhood_union(0), vec![1, 2, 3]);
        assert_eq!(csr.neighborhood_union(2), vec![0]);
        assert_eq!(csr.union_degree(0), 3);
        assert_eq!(csr.union_degree(2), 1);
        let mut seen = Vec::new();
        csr.for_each_union_neighbor(0, |v, arcs| seen.push((v, arcs)));
        assert_eq!(seen, vec![(1, 2), (2, 1), (3, 1)], "reciprocal pair counts two arcs");
    }

    #[test]
    fn undeclared_endpoint_is_invalid_graph_not_panic() {
        use crate::graph::Edge;
        // `from_parts` bypasses builder validation, the only way an edge
        // can reference a vertex that was never declared.
        let g = Graph::from_parts(true, false, vec![1, 2], vec![Edge::new(1, 3)]);
        let err = Csr::from_graph(&g).unwrap_err();
        assert!(matches!(err, crate::error::Error::InvalidGraph(_)), "{err}");
        assert!(err.to_string().contains("undeclared vertex"), "{err}");
        // The parallel build reports the same error.
        let pool = crate::pool::WorkerPool::new(3);
        assert!(Csr::from_graph_with(&g, &pool).is_err());
        assert!(g.try_to_csr().is_err());
    }

    #[test]
    fn unordered_edge_list_is_invalid_graph_not_unsorted_rows() {
        use crate::graph::Edge;
        // Rows are born sorted only from an ordered list, so a list that
        // bypassed the builder out of order must not become a CSR.
        let swapped = vec![Edge::new(1, 3), Edge::new(1, 2), Edge::new(2, 3)];
        let repeated = vec![Edge::new(1, 2), Edge::new(1, 2)];
        let reversed = vec![Edge::new(2, 1)];
        for (directed, edges) in [(true, swapped), (true, repeated), (false, reversed)] {
            let g = Graph::from_parts(directed, false, vec![1, 2, 3], edges);
            for threads in [1u32, 3] {
                let err = Csr::from_graph_with(&g, &WorkerPool::new(threads)).unwrap_err();
                assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
                assert!(err.to_string().contains("edge order"), "{err}");
            }
        }
        // The same non-canonical pair is a legal directed edge list.
        let g = Graph::from_parts(true, false, vec![1, 2, 3], vec![Edge::new(2, 1)]);
        assert_eq!(Csr::from_graph(&g).unwrap().out_neighbors(1), &[0]);
    }

    #[test]
    fn remap_strategies_agree() {
        // Contiguous ids (offset), clustered ids (table), and sparse ids
        // spanning a wide range (binary search) must all produce the
        // same adjacency as the sorted-order dense mapping promises.
        for ids in [
            vec![0u64, 1, 2, 3],
            vec![100, 101, 102, 103],
            vec![10, 12, 13, 19],
            vec![5, 1 << 20, 1 << 40, 1 << 60],
            // Full-range span: `hi - lo + 1` overflows u64 and must fall
            // back to binary search instead of panicking.
            vec![0, 1, u64::MAX - 1, u64::MAX],
        ] {
            let mut b = GraphBuilder::new(true);
            for &v in &ids {
                b.add_vertex(v);
            }
            b.add_edge(ids[0], ids[2]);
            b.add_edge(ids[3], ids[1]);
            let csr = b.build().unwrap().to_csr();
            assert_eq!(csr.out_neighbors(0), &[2], "ids={ids:?}");
            assert_eq!(csr.out_neighbors(3), &[1], "ids={ids:?}");
            assert_eq!(csr.in_degree(2), 1);
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // A mid-sized pseudo-random graph, built inline and on pools of
        // several widths: offsets, targets and weights must be identical.
        for directed in [true, false] {
            let mut b = GraphBuilder::new(directed);
            b.set_weighted(true);
            b.dedup_edges(true);
            let n = 257u64;
            for v in 0..n {
                b.add_vertex(v);
            }
            let mut x = 0x5EEDu64;
            for _ in 0..2048 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let s = (x >> 33) % n;
                let d = (x >> 13) % n;
                if s != d {
                    b.add_weighted_edge(s, d, ((x >> 3) % 97) as f64 / 7.0);
                }
            }
            let g = b.build().unwrap();
            let seq = g.to_csr();
            for threads in [2u32, 3, 8] {
                let pool = crate::pool::WorkerPool::new(threads);
                let par = g.to_csr_with(&pool).unwrap();
                assert_eq!(par.num_vertices(), seq.num_vertices());
                assert_eq!(par.num_arcs(), seq.num_arcs());
                for u in 0..seq.num_vertices() as u32 {
                    assert_eq!(par.out_neighbors(u), seq.out_neighbors(u), "u={u}");
                    assert_eq!(par.out_weights(u), seq.out_weights(u), "u={u}");
                    assert_eq!(par.in_neighbors(u), seq.in_neighbors(u), "u={u}");
                    assert_eq!(par.in_weights(u), seq.in_weights(u), "u={u}");
                }
            }
        }
    }

    #[test]
    fn resident_bytes_positive_and_monotone() {
        let small = directed_graph().to_csr();
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(100);
        for i in 0..99u64 {
            b.add_edge(i, i + 1);
        }
        let big = b.build().unwrap().to_csr();
        assert!(big.resident_bytes() > small.resident_bytes());
    }
}
