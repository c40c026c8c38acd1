//! Streaming graph mutation: a batched delta log layered over the
//! immutable [`Csr`].
//!
//! Graphalytics freezes every dataset at upload; its successor spec names
//! evolving-graph workloads as the missing scenario class. This module
//! supplies the storage half of that workload: a [`MutableGraph`] wraps a
//! base CSR with per-vertex *overlay* adjacency (inserted edges) and
//! *tombstones* (deleted base edges), so a [`MutationBatch`] applies in
//! time proportional to the batch — no CSR rebuild. Readers see the
//! merged view through [`MutableGraph::out_edges`]/[`in_edges`], which
//! interleave the (sorted) base row with the (sorted) overlay in exactly
//! the order a freshly built CSR would store — kernels that sum or scan
//! in row order therefore produce *bit-identical* results on the delta
//! view and on the materialized graph.
//!
//! A snapshot ([`MutableGraph::materialize`]) is written straight from
//! the base and the log, without an edge list: the offsets are prefix
//! sums of the merged degrees, a row the log never touched is copied
//! from the base, and a touched row is written from its merged view.
//! Rows are filled pool-parallel over disjoint vertex ranges, so the
//! snapshot is bit-identical at every pool width and to a cold
//! `Csr::from_graph` of [`MutableGraph::to_graph`].
//!
//! The log is bounded: once [`MutableGraph::fill_ratio`] crosses
//! [`DeltaConfig::compact_fill`], [`MutableGraph::compact`] makes that
//! snapshot the new base and resets the log. Compaction preserves the
//! vertex set and its dense index order.
//!
//! Mutations are edge-only by design: a batch referencing a vertex that
//! is not declared in the base graph is rejected *before anything is
//! applied* (the service maps this to a structured 4xx). Semantics are
//! set-like and total: an insertion ensures the edge is present with the
//! given weight (updating the weight if it differs), a deletion ensures
//! it is absent; re-inserting an existing edge or deleting a missing one
//! is a counted no-op, never an error. Deletions of a batch apply before
//! its insertions.

use std::sync::Arc;
use std::time::Instant;

use crate::error::{Error, Result};
use crate::graph::csr::Rows;
use crate::graph::{valid_weight, Csr, Edge, Graph, VertexId};
use crate::pool::{SharedSlice, WorkerPool};

/// A batch of edge insertions and deletions against a resident graph.
///
/// Endpoints are sparse [`VertexId`]s, exactly as they appear in dataset
/// files and API requests. For undirected graphs the orientation of both
/// insertions and deletions is irrelevant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBatch {
    /// Edges to ensure present (deduplicated by endpoint pair on apply).
    pub insertions: Vec<Edge>,
    /// Edge endpoint pairs to ensure absent.
    pub deletions: Vec<(VertexId, VertexId)>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an unweighted insertion (weight 1.0).
    pub fn insert(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.insertions.push(Edge::new(src, dst));
        self
    }

    /// Queues a weighted insertion.
    pub fn insert_weighted(&mut self, src: VertexId, dst: VertexId, weight: f64) -> &mut Self {
        self.insertions.push(Edge::weighted(src, dst, weight));
        self
    }

    /// Queues a deletion.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.deletions.push((src, dst));
        self
    }

    /// Total queued mutations.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

/// SplitMix64 step — the deterministic stream behind [`random_batch`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random mutation batch against `csr`: `deletions`
/// existing edges picked by (vertex, slot) draws and `insertions` fresh
/// endpoint pairs not present in the base graph. The same `(csr, counts,
/// seed)` always yields the same batch — mutation scripts replayed by the
/// harness and mirrored by validators rely on this.
pub fn random_batch(csr: &Csr, insertions: usize, deletions: usize, seed: u64) -> MutationBatch {
    let n = csr.num_vertices() as u64;
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let mut batch = MutationBatch::new();
    if n < 2 {
        return batch;
    }
    let mut chosen = std::collections::HashSet::new();
    let canon =
        |a: VertexId, b: VertexId| if csr.is_directed() { (a, b) } else { (a.min(b), a.max(b)) };

    let mut attempts = 0usize;
    while batch.deletions.len() < deletions && attempts < deletions * 16 + 64 {
        attempts += 1;
        let u = (splitmix64(&mut rng) % n) as u32;
        let row = csr.out_neighbors(u);
        if row.is_empty() {
            continue;
        }
        let v = row[(splitmix64(&mut rng) % row.len() as u64) as usize];
        let (a, b) = (csr.id_of(u), csr.id_of(v));
        if chosen.insert(canon(a, b)) {
            batch.delete(a, b);
        }
    }
    let mut attempts = 0usize;
    while batch.insertions.len() < insertions && attempts < insertions * 16 + 64 {
        attempts += 1;
        let u = (splitmix64(&mut rng) % n) as u32;
        let v = (splitmix64(&mut rng) % n) as u32;
        if u == v || csr.has_out_edge(u, v) {
            continue;
        }
        let (a, b) = (csr.id_of(u), csr.id_of(v));
        if !chosen.insert(canon(a, b)) {
            continue;
        }
        if csr.is_weighted() {
            let w = 1.0 + (splitmix64(&mut rng) % 8) as f64 * 0.5;
            batch.insert_weighted(a, b, w);
        } else {
            batch.insert(a, b);
        }
    }
    batch
}

/// Delta-log policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaConfig {
    /// Compaction trigger: when `delta_arcs / base_arcs` reaches this
    /// ratio, the next [`MutableGraph::apply`] folds the log into a
    /// fresh CSR. 0.25 by default — the overlay's binary-searched rows
    /// stay a small fraction of every scan, and compaction cost (one
    /// pool-parallel snapshot, [`MutableGraph::materialize`]) amortizes
    /// over at least a quarter-graph of mutations.
    pub compact_fill: f64,
    /// When true (default), [`MutableGraph::apply`] compacts
    /// automatically once the fill ratio crosses `compact_fill`.
    pub auto_compact: bool,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig { compact_fill: 0.25, auto_compact: true }
    }
}

/// Lifetime counters of one [`MutableGraph`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaStats {
    /// Batches applied.
    pub applied_batches: u64,
    /// Edges actually added (absent before, present after).
    pub inserted_edges: u64,
    /// Edges actually removed.
    pub deleted_edges: u64,
    /// Existing edges whose weight changed.
    pub updated_edges: u64,
    /// Times the log was folded back into a fresh CSR.
    pub compactions: u64,
    /// Total wall seconds spent compacting.
    pub compact_secs: f64,
}

/// What one [`MutableGraph::apply`] call actually changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Edges added (weight updates not included).
    pub inserted: u64,
    /// Edges removed.
    pub deleted: u64,
    /// Existing edges whose weight changed.
    pub updated: u64,
    /// Whether this apply crossed the fill ratio and compacted the log.
    pub compacted: bool,
}

/// How one directed arc insertion changed the view.
#[derive(PartialEq, Eq, Clone, Copy)]
enum ArcChange {
    Added,
    Updated,
    Unchanged,
}

/// A batched delta log (overlay adjacency + tombstones) over an
/// immutable base [`Csr`]. See the module docs for the design.
pub struct MutableGraph {
    base: Arc<Csr>,
    /// Per-vertex inserted out-edges, sorted by target. An overlay
    /// target never coexists with a live (non-tombstoned) base target.
    out_add: Vec<Vec<(u32, f64)>>,
    /// Per-vertex deleted base out-targets, sorted.
    out_del: Vec<Vec<u32>>,
    /// In-direction mirrors (directed graphs only; undirected graphs
    /// mirror through `out_*`, matching the CSR's aliasing).
    in_add: Vec<Vec<(u32, f64)>>,
    in_del: Vec<Vec<u32>>,
    /// Merged out-degrees, maintained incrementally.
    degrees: Vec<u32>,
    /// Log size: overlay entries + tombstones, in stored-arc units
    /// (undirected edges count twice, like `Csr::num_arcs`).
    delta_arcs: u64,
    config: DeltaConfig,
    stats: DeltaStats,
}

impl MutableGraph {
    /// Wraps `base` with an empty delta log and default policy.
    pub fn new(base: Arc<Csr>) -> Self {
        Self::with_config(base, DeltaConfig::default())
    }

    /// Wraps `base` with an explicit policy.
    pub fn with_config(base: Arc<Csr>, config: DeltaConfig) -> Self {
        let n = base.num_vertices();
        let directed = base.is_directed();
        let degrees = (0..n).map(|u| base.out_degree(u as u32) as u32).collect();
        MutableGraph {
            base,
            out_add: vec![Vec::new(); n],
            out_del: vec![Vec::new(); n],
            in_add: if directed { vec![Vec::new(); n] } else { Vec::new() },
            in_del: if directed { vec![Vec::new(); n] } else { Vec::new() },
            degrees,
            delta_arcs: 0,
            config,
            stats: DeltaStats::default(),
        }
    }

    /// The current base CSR (replaced by compaction).
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    /// Number of vertices (immutable: mutations are edge-only).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Sorted sparse vertex ids, identical to the base CSR's.
    pub fn vertex_ids(&self) -> &[VertexId] {
        self.base.vertex_ids()
    }

    /// True for directed graphs.
    pub fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    /// True when edges carry meaningful weights.
    pub fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    /// Merged out-degree of dense vertex `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> u32 {
        self.degrees[u as usize]
    }

    /// The full merged out-degree table.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Current stored arcs in the merged view (`Csr::num_arcs`
    /// convention: undirected edges count twice).
    pub fn num_arcs(&self) -> u64 {
        self.degrees.iter().map(|&d| d as u64).sum()
    }

    /// Current logical edge count (undirected edges counted once).
    pub fn num_edges(&self) -> u64 {
        let arcs = self.num_arcs();
        if self.is_directed() {
            arcs
        } else {
            arcs / 2
        }
    }

    /// Outstanding log entries (overlay + tombstones) in stored-arc units.
    pub fn delta_arcs(&self) -> u64 {
        self.delta_arcs
    }

    /// Log size relative to the base graph.
    pub fn fill_ratio(&self) -> f64 {
        self.delta_arcs as f64 / (self.base.num_arcs().max(1)) as f64
    }

    /// True when the fill ratio has crossed the compaction trigger.
    pub fn needs_compaction(&self) -> bool {
        self.delta_arcs > 0 && self.fill_ratio() >= self.config.compact_fill
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// The active policy.
    pub fn config(&self) -> &DeltaConfig {
        &self.config
    }

    /// Merged out-edges of dense vertex `u`, sorted by target — exactly
    /// the row a freshly built CSR of the merged graph would hold.
    pub fn out_edges(&self, u: u32) -> MergedEdges<'_> {
        MergedEdges {
            base_t: self.base.out_neighbors(u),
            base_w: self.base.out_weights(u),
            del: &self.out_del[u as usize],
            add: &self.out_add[u as usize],
            bi: 0,
            di: 0,
            ai: 0,
        }
    }

    /// Merged in-edges of dense vertex `u` (aliases the out direction
    /// for undirected graphs, like the CSR).
    pub fn in_edges(&self, u: u32) -> MergedEdges<'_> {
        if !self.is_directed() {
            return self.out_edges(u);
        }
        MergedEdges {
            base_t: self.base.in_neighbors(u),
            base_w: self.base.in_weights(u),
            del: &self.in_del[u as usize],
            add: &self.in_add[u as usize],
            bi: 0,
            di: 0,
            ai: 0,
        }
    }

    /// True when the merged view contains the arc `u → v`.
    pub fn has_out_edge(&self, u: u32, v: u32) -> bool {
        if self.out_add[u as usize].binary_search_by_key(&v, |e| e.0).is_ok() {
            return true;
        }
        self.base.has_out_edge(u, v) && self.out_del[u as usize].binary_search(&v).is_err()
    }

    /// Checks every endpoint of `batch` against the declared vertex set
    /// and every insertion against the data-model invariants, *without
    /// applying anything*. [`MutableGraph::apply`] calls this first, so
    /// a rejected batch leaves the graph untouched.
    fn validate_batch(&self, batch: &MutationBatch) -> Result<()> {
        let check = |a: VertexId, b: VertexId| -> Result<(u32, u32)> {
            let u = self.base.index_of(a).ok_or_else(|| {
                Error::InvalidGraph(format!("mutation references undeclared vertex {a}"))
            })?;
            let v = self.base.index_of(b).ok_or_else(|| {
                Error::InvalidGraph(format!("mutation references undeclared vertex {b}"))
            })?;
            if u == v {
                return Err(Error::InvalidGraph(format!("mutation would create self loop at {a}")));
            }
            Ok((u, v))
        };
        for e in &batch.insertions {
            check(e.src, e.dst)?;
            if !valid_weight(e.weight) {
                return Err(Error::InvalidGraph(format!(
                    "inserted edge ({}, {}) has invalid weight {}",
                    e.src, e.dst, e.weight
                )));
            }
        }
        for &(a, b) in &batch.deletions {
            check(a, b)?;
        }
        Ok(())
    }

    /// Applies a batch: validation first (all-or-nothing), then
    /// deletions, then insertions; finally auto-compacts when the log
    /// crosses the fill ratio (if the policy says so).
    pub fn apply(&mut self, batch: &MutationBatch, pool: &WorkerPool) -> Result<ApplyOutcome> {
        // The checkpoint precedes any state change: a fault or cancel at
        // this site skips the batch atomically, leaving the delta log
        // exactly as it was (the chaos suite's invariant).
        crate::fault::checkpoint(crate::fault::FaultSite::Mutate)?;
        self.validate_batch(batch)?;
        let deleted = self.apply_deletions(&batch.deletions);
        let (inserted, updated) = self.apply_insertions(&batch.insertions);
        self.stats.applied_batches += 1;
        let mut outcome = ApplyOutcome { inserted, deleted, updated, compacted: false };
        if self.config.auto_compact && self.needs_compaction() {
            self.compact(pool)?;
            outcome.compacted = true;
        }
        Ok(outcome)
    }

    /// Applies pre-validated deletions; returns how many edges existed.
    fn apply_deletions(&mut self, deletions: &[(VertexId, VertexId)]) -> u64 {
        let mut deleted = 0u64;
        for &(a, b) in deletions {
            let (u, v) = (self.index(a), self.index(b));
            if self.delete_out(u, v) {
                deleted += 1;
                if self.is_directed() {
                    self.delete_in(v, u);
                } else {
                    self.delete_out(v, u);
                }
            }
        }
        self.stats.deleted_edges += deleted;
        deleted
    }

    /// Applies pre-validated insertions; returns `(added, updated)`.
    fn apply_insertions(&mut self, insertions: &[Edge]) -> (u64, u64) {
        let (mut added, mut updated) = (0u64, 0u64);
        for e in insertions {
            let (u, v) = (self.index(e.src), self.index(e.dst));
            let w = if self.is_weighted() { e.weight } else { 1.0 };
            match self.insert_out(u, v, w) {
                ArcChange::Unchanged => {}
                change => {
                    if change == ArcChange::Added {
                        added += 1;
                    } else {
                        updated += 1;
                    }
                    if self.is_directed() {
                        self.insert_in(v, u, w);
                    } else {
                        self.insert_out(v, u, w);
                    }
                }
            }
        }
        self.stats.inserted_edges += added;
        self.stats.updated_edges += updated;
        (added, updated)
    }

    fn index(&self, v: VertexId) -> u32 {
        self.base.index_of(v).expect("batch endpoints validated before apply")
    }

    fn base_out_weight(&self, u: u32, v: u32) -> Option<f64> {
        let i = self.base.out_neighbors(u).binary_search(&v).ok()?;
        Some(self.base.out_weights(u)[i])
    }

    /// Removes arc `u → v` from the merged out view; true if it existed.
    fn delete_out(&mut self, u: u32, v: u32) -> bool {
        if let Ok(i) = self.out_add[u as usize].binary_search_by_key(&v, |e| e.0) {
            self.out_add[u as usize].remove(i);
            self.delta_arcs -= 1;
            self.degrees[u as usize] -= 1;
            return true;
        }
        if self.base.has_out_edge(u, v) {
            if let Err(i) = self.out_del[u as usize].binary_search(&v) {
                self.out_del[u as usize].insert(i, v);
                self.delta_arcs += 1;
                self.degrees[u as usize] -= 1;
                return true;
            }
        }
        false
    }

    /// In-direction mirror of a successful out deletion (directed only).
    fn delete_in(&mut self, u: u32, v: u32) {
        if let Ok(i) = self.in_add[u as usize].binary_search_by_key(&v, |e| e.0) {
            self.in_add[u as usize].remove(i);
        } else if let Err(i) = self.in_del[u as usize].binary_search(&v) {
            self.in_del[u as usize].insert(i, v);
        }
    }

    /// Ensures arc `u → v` present with weight `w` in the out view.
    fn insert_out(&mut self, u: u32, v: u32, w: f64) -> ArcChange {
        if let Ok(i) = self.out_add[u as usize].binary_search_by_key(&v, |e| e.0) {
            if self.out_add[u as usize][i].1 == w {
                return ArcChange::Unchanged;
            }
            self.out_add[u as usize][i].1 = w;
            return ArcChange::Updated;
        }
        match self.base_out_weight(u, v) {
            Some(bw) => {
                let tombstoned = self.out_del[u as usize].binary_search(&v);
                match tombstoned {
                    Ok(i) => {
                        // Deleted base edge coming back: clear the
                        // tombstone when the weight matches bit for bit
                        // (`-0.0 == 0.0`, yet an absent edge takes the
                        // weight it is given), otherwise keep it and
                        // overlay the new weight.
                        if bw.to_bits() == w.to_bits() {
                            self.out_del[u as usize].remove(i);
                            self.delta_arcs -= 1;
                        } else {
                            let pos = self.out_add[u as usize]
                                .binary_search_by_key(&v, |e| e.0)
                                .unwrap_err();
                            self.out_add[u as usize].insert(pos, (v, w));
                            self.delta_arcs += 1;
                        }
                        self.degrees[u as usize] += 1;
                        ArcChange::Added
                    }
                    Err(del_pos) => {
                        if bw == w {
                            return ArcChange::Unchanged;
                        }
                        // Weight update of a live base edge: tombstone
                        // the old arc, overlay the new one.
                        self.out_del[u as usize].insert(del_pos, v);
                        let pos =
                            self.out_add[u as usize].binary_search_by_key(&v, |e| e.0).unwrap_err();
                        self.out_add[u as usize].insert(pos, (v, w));
                        self.delta_arcs += 2;
                        ArcChange::Updated
                    }
                }
            }
            None => {
                let pos = self.out_add[u as usize].binary_search_by_key(&v, |e| e.0).unwrap_err();
                self.out_add[u as usize].insert(pos, (v, w));
                self.delta_arcs += 1;
                self.degrees[u as usize] += 1;
                ArcChange::Added
            }
        }
    }

    /// In-direction mirror of a successful out insertion/update
    /// (directed only).
    fn insert_in(&mut self, u: u32, v: u32, w: f64) {
        if let Ok(i) = self.in_add[u as usize].binary_search_by_key(&v, |e| e.0) {
            self.in_add[u as usize][i].1 = w;
            return;
        }
        let in_base = self.base.in_neighbors(u).binary_search(&v);
        match in_base {
            Ok(bi) => {
                let bw = self.base.in_weights(u)[bi];
                match self.in_del[u as usize].binary_search(&v) {
                    Ok(i) => {
                        if bw.to_bits() == w.to_bits() {
                            self.in_del[u as usize].remove(i);
                        } else {
                            let pos = self.in_add[u as usize]
                                .binary_search_by_key(&v, |e| e.0)
                                .unwrap_err();
                            self.in_add[u as usize].insert(pos, (v, w));
                        }
                    }
                    Err(del_pos) => {
                        if bw != w {
                            self.in_del[u as usize].insert(del_pos, v);
                            let pos = self.in_add[u as usize]
                                .binary_search_by_key(&v, |e| e.0)
                                .unwrap_err();
                            self.in_add[u as usize].insert(pos, (v, w));
                        }
                    }
                }
            }
            Err(_) => {
                let pos = self.in_add[u as usize].binary_search_by_key(&v, |e| e.0).unwrap_err();
                self.in_add[u as usize].insert(pos, (v, w));
            }
        }
    }

    /// The merged graph as an edge list — the exact input
    /// [`Csr::from_graph`] would receive for the post-mutation graph.
    /// This is the cold-build oracle: `Csr::from_graph(&mg.to_graph())`
    /// is what [`MutableGraph::materialize`] must equal bit for bit.
    pub fn to_graph(&self) -> Graph {
        let n = self.num_vertices();
        let directed = self.is_directed();
        let mut edges = Vec::with_capacity(self.num_edges() as usize);
        for u in 0..n as u32 {
            for (v, w) in self.out_edges(u) {
                // Undirected rows materialize each edge twice; keep the
                // canonical orientation (ids ascend with dense index).
                if directed || u < v {
                    edges.push(Edge::weighted(self.base.id_of(u), self.base.id_of(v), w));
                }
            }
        }
        Graph::from_parts(directed, self.is_weighted(), self.vertex_ids().to_vec(), edges)
    }

    /// Builds a fresh CSR of the merged view on `pool` without touching
    /// the log, by patching the base rows (see the module docs). The
    /// result is bit-identical at every pool width and to the cold build
    /// of [`MutableGraph::to_graph`].
    ///
    /// Fails with [`Error::InvalidGraph`] when a touched row does not
    /// merge into a strictly ascending row of exactly its degree with
    /// targets below `n` — possible only if the log's invariants broke.
    pub fn materialize(&self, pool: &WorkerPool) -> Result<Csr> {
        crate::fault::checkpoint(crate::fault::FaultSite::Build)?;
        let n = self.num_vertices();
        let out_degree = |u: u32| self.degrees[u as usize] as usize;
        let weighted = self.is_weighted();
        let out = patch_rows(pool, n, weighted, out_degree, |u| self.out_edges(u))?;
        let inn = if self.is_directed() {
            // Every tombstone names a base arc and no overlay target
            // coexists with a live base target, so this is exact. (A log
            // that broke this fails the row check instead of underflowing.)
            let in_degree = |u: u32| {
                (self.base.in_degree(u) + self.in_add[u as usize].len())
                    .saturating_sub(self.in_del[u as usize].len())
            };
            patch_rows(pool, n, weighted, in_degree, |u| self.in_edges(u))?
        } else {
            Rows::default()
        };
        let ids = self.vertex_ids().into();
        Ok(Csr::from_rows(self.is_directed(), weighted, ids, out, inn))
    }

    /// Folds the delta log into a fresh base CSR on `pool` and resets
    /// the log. Vertex set and dense index order are preserved, so
    /// per-vertex state cached against the old base stays valid.
    pub fn compact(&mut self, pool: &WorkerPool) -> Result<f64> {
        // Fail before building the replacement base: an aborted
        // compaction leaves both the base and the log untouched.
        crate::fault::checkpoint(crate::fault::FaultSite::Compact)?;
        let start = Instant::now();
        let fresh = self.materialize(pool)?;
        self.base = Arc::new(fresh);
        for row in self.out_add.iter_mut().chain(self.in_add.iter_mut()) {
            row.clear();
        }
        for row in self.out_del.iter_mut().chain(self.in_del.iter_mut()) {
            row.clear();
        }
        self.delta_arcs = 0;
        let secs = start.elapsed().as_secs_f64();
        self.stats.compactions += 1;
        self.stats.compact_secs += secs;
        Ok(secs)
    }
}

/// One direction of a snapshot: offsets are the prefix sum of `degree`,
/// and each pool task writes the rows of one vertex range into their
/// own, disjoint slots. An unweighted snapshot writes no weights.
fn patch_rows<'a>(
    pool: &WorkerPool,
    n: usize,
    weighted: bool,
    degree: impl Fn(u32) -> usize,
    row: impl Fn(u32) -> MergedEdges<'a> + Sync,
) -> Result<Rows> {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut end = 0u64;
    offsets.push(end);
    for u in 0..n as u32 {
        end += degree(u) as u64;
        offsets.push(end);
    }
    // Zeroed, so every slot is initialized even if a row fails midway.
    // Reserved a little past the length: see `reserved_len`.
    let len = end as usize;
    let mut targets = Vec::with_capacity(reserved_len(len));
    targets.resize(len, 0u32);
    let mut weights = Vec::new();
    if weighted {
        weights.reserve_exact(reserved_len(len));
        weights.resize(len, 0.0f64);
    }
    {
        let tgt = SharedSlice::new(targets.as_mut_ptr());
        let wts = SharedSlice::new(weights.as_mut_ptr());
        let offsets = &offsets;
        pool.run(n, |_, vrange| -> Result<()> {
            for u in vrange {
                let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
                // SAFETY: offsets ascend from 0 to the arrays' length, so
                // `lo..hi` is in bounds and the slots of disjoint vertex
                // ranges are disjoint; only this task writes `lo..hi`.
                let t = unsafe { tgt.slice_mut(lo, hi - lo) };
                let w = weighted.then(|| unsafe { wts.slice_mut(lo, hi - lo) });
                row(u as u32).write_row(u as u32, n, t, w)?;
            }
            Ok(())
        })
        .into_iter()
        .collect::<Result<()>>()?;
    }
    Ok(Rows { offsets, targets, weights })
}

/// Capacity of a snapshot array of `len` entries: `len` rounded up to a
/// multiple of `len.next_power_of_two() / 16`, less than 1/8 more. A
/// graph under mutation changes by a few arcs a batch, so successive
/// snapshots and compacted bases ask the allocator for equal sizes and
/// can reuse the blocks their predecessors freed; exact lengths, a little
/// longer each batch, stop fitting those blocks and the heap grows.
fn reserved_len(len: usize) -> usize {
    let step = (len.next_power_of_two() / 16).max(1);
    len.div_ceil(step) * step
}

/// Sorted merge of a base CSR row (minus tombstones) with its overlay.
pub struct MergedEdges<'a> {
    base_t: &'a [u32],
    base_w: &'a [f64],
    del: &'a [u32],
    add: &'a [(u32, f64)],
    bi: usize,
    di: usize,
    ai: usize,
}

impl MergedEdges<'_> {
    /// Writes the row of vertex `u` into `t` / `w`, which hold exactly its
    /// slots (`w` is `None` for an unweighted graph, which stores no
    /// weights). A row the log never touched is a copy of the base row;
    /// any other is merged, then checked.
    fn write_row(self, u: u32, n: usize, t: &mut [u32], mut w: Option<&mut [f64]>) -> Result<()> {
        if self.del.is_empty() && self.add.is_empty() && self.base_t.len() == t.len() {
            t.copy_from_slice(self.base_t);
            if let Some(w) = w {
                w.copy_from_slice(self.base_w);
            }
            return Ok(());
        }
        // Entries past the row's end are counted, not written: `k` ends
        // at the merged length, which the check compares.
        let mut k = 0;
        for (v, weight) in self {
            if k < t.len() {
                t[k] = v;
                if let Some(w) = w.as_deref_mut() {
                    w[k] = weight;
                }
            }
            k += 1;
        }
        let ascending = t.windows(2).all(|p| p[0] < p[1]);
        if k != t.len() || !ascending || t.last().is_some_and(|&v| v as usize >= n) {
            return Err(Error::InvalidGraph(format!(
                "delta log row {u} does not merge into {} strictly ascending in-range targets",
                t.len()
            )));
        }
        Ok(())
    }
}

impl Iterator for MergedEdges<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        // Skip tombstoned base entries (both cursors only move forward).
        while self.bi < self.base_t.len() {
            let t = self.base_t[self.bi];
            while self.di < self.del.len() && self.del[self.di] < t {
                self.di += 1;
            }
            if self.di < self.del.len() && self.del[self.di] == t {
                self.bi += 1;
            } else {
                break;
            }
        }
        let base = self.base_t.get(self.bi).copied();
        let add = self.add.get(self.ai).copied();
        match (base, add) {
            (None, None) => None,
            (Some(t), None) => {
                self.bi += 1;
                Some((t, self.base_w[self.bi - 1]))
            }
            (None, Some(e)) => {
                self.ai += 1;
                Some(e)
            }
            (Some(t), Some(e)) => {
                // An overlay target never coexists with a live base
                // target, so strict interleave is total.
                if t < e.0 {
                    self.bi += 1;
                    Some((t, self.base_w[self.bi - 1]))
                } else {
                    self.ai += 1;
                    Some(e)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn diamond(directed: bool, weighted: bool) -> Arc<Csr> {
        let mut b = GraphBuilder::new(directed);
        b.set_weighted(weighted);
        b.add_vertex_range(5);
        for (s, d, w) in [(0u64, 1u64, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 4.0)] {
            if weighted {
                b.add_weighted_edge(s, d, w);
            } else {
                b.add_edge(s, d);
            }
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    fn rows(csr: &Csr, u: u32) -> Vec<(u32, f64)> {
        csr.out_neighbors(u).iter().copied().zip(csr.out_weights(u).iter().copied()).collect()
    }

    /// The central contract: the merged view equals a freshly built CSR
    /// of the merged edge list, row by row.
    fn assert_view_matches_materialized(mg: &MutableGraph) {
        let pool = WorkerPool::inline();
        let csr = mg.materialize(&pool).unwrap();
        assert_eq!(csr.num_vertices(), mg.num_vertices());
        assert_eq!(csr.num_arcs() as u64, mg.num_arcs());
        for u in 0..mg.num_vertices() as u32 {
            let merged: Vec<(u32, f64)> = mg.out_edges(u).collect();
            assert_eq!(merged, rows(&csr, u), "out row {u}");
            assert_eq!(merged.len() as u32, mg.out_degree(u), "degree {u}");
            if mg.is_directed() {
                let merged_in: Vec<(u32, f64)> = mg.in_edges(u).collect();
                let csr_in: Vec<(u32, f64)> = csr
                    .in_neighbors(u)
                    .iter()
                    .copied()
                    .zip(csr.in_weights(u).iter().copied())
                    .collect();
                assert_eq!(merged_in, csr_in, "in row {u}");
            }
        }
    }

    #[test]
    fn insert_delete_update_roundtrip() {
        for directed in [true, false] {
            let base = diamond(directed, true);
            let pool = WorkerPool::inline();
            let mut mg = MutableGraph::new(base);
            let mut batch = MutationBatch::new();
            batch.delete(0, 1).insert_weighted(1, 4, 2.5).insert_weighted(0, 3, 9.0);
            let out = mg.apply(&batch, &pool).unwrap();
            assert_eq!(out.deleted, 1);
            assert_eq!(out.inserted, 1, "1→4 is new");
            assert_eq!(out.updated, 1, "0→3 weight changed");
            assert!(!mg.has_out_edge(0, 1));
            assert!(mg.has_out_edge(1, 4));
            assert_view_matches_materialized(&mg);
            if !directed {
                assert!(mg.has_out_edge(4, 1), "undirected symmetry");
            }

            // Set semantics: re-applying the same batch is all no-ops.
            let again = mg.apply(&batch, &pool).unwrap();
            assert_eq!(
                again,
                ApplyOutcome { inserted: 0, deleted: 0, updated: 0, compacted: false }
            );

            // Deleting an overlay edge removes it outright; re-inserting
            // a deleted base edge with its old weight clears the tombstone.
            let mut back = MutationBatch::new();
            back.delete(1, 4).insert_weighted(0, 1, 1.0);
            let out = mg.apply(&back, &pool).unwrap();
            assert_eq!((out.inserted, out.deleted), (1, 1));
            assert!(mg.has_out_edge(0, 1));
            assert_view_matches_materialized(&mg);
        }
    }

    #[test]
    fn undeclared_vertices_and_self_loops_reject_atomically() {
        let base = diamond(false, false);
        let pool = WorkerPool::inline();
        let mut mg = MutableGraph::new(base);
        let mut bad = MutationBatch::new();
        bad.insert(0, 2).insert(1, 99);
        let err = mg.apply(&bad, &pool).unwrap_err();
        assert!(err.to_string().contains("undeclared vertex 99"), "{err}");
        assert_eq!(mg.delta_arcs(), 0, "nothing applied");
        assert!(!mg.has_out_edge(0, 2));

        let mut loopy = MutationBatch::new();
        loopy.delete(3, 3);
        assert!(mg.apply(&loopy, &pool).unwrap_err().to_string().contains("self loop"));

        let mut nan = MutationBatch::new();
        nan.insert_weighted(0, 2, f64::NAN);
        assert!(mg.apply(&nan, &pool).unwrap_err().to_string().contains("invalid weight"));
    }

    #[test]
    fn non_finite_weight_rejects_the_whole_batch() {
        let pool = WorkerPool::inline();
        let mut mg = MutableGraph::new(diamond(true, true));
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
            let mut batch = MutationBatch::new();
            batch.insert_weighted(0, 2, 1.0).insert_weighted(1, 3, bad).delete(0, 1);
            assert!(mg.validate_batch(&batch).is_err(), "{bad}");
            let err = mg.apply(&batch, &pool).unwrap_err();
            assert!(err.to_string().contains("invalid weight"), "{err}");
            assert_eq!(mg.delta_arcs(), 0, "delta log untouched by weight {bad}");
            assert!(!mg.has_out_edge(0, 2) && mg.has_out_edge(0, 1));
        }
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 2, -0.0);
        assert_eq!(mg.apply(&batch, &pool).unwrap().inserted, 1, "-0.0 is zero");
    }

    #[test]
    fn unweighted_graphs_force_unit_weights() {
        let base = diamond(true, false);
        let pool = WorkerPool::inline();
        let mut mg = MutableGraph::new(base);
        let mut batch = MutationBatch::new();
        batch.insert_weighted(3, 4, 7.0);
        mg.apply(&batch, &pool).unwrap();
        assert_eq!(mg.out_edges(3).collect::<Vec<_>>(), vec![(4, 1.0)]);
        assert_view_matches_materialized(&mg);
    }

    #[test]
    fn fill_ratio_triggers_auto_compaction() {
        let base = diamond(false, true); // 4 edges = 8 arcs
        let pool = WorkerPool::inline();
        let mut mg =
            MutableGraph::with_config(base, DeltaConfig { compact_fill: 0.25, auto_compact: true });
        let mut batch = MutationBatch::new();
        batch.insert(1, 3); // 2 overlay arcs / 8 base arcs = 0.25
        let out = mg.apply(&batch, &pool).unwrap();
        assert!(out.compacted);
        assert_eq!(mg.delta_arcs(), 0, "log folded");
        assert_eq!(mg.stats().compactions, 1);
        assert!(mg.base().has_out_edge(1, 3), "compacted base holds the insert");
        assert_view_matches_materialized(&mg);

        // With auto-compaction off the log just grows.
        let mut manual = MutableGraph::with_config(
            diamond(false, true),
            DeltaConfig { compact_fill: 0.25, auto_compact: false },
        );
        manual.apply(&batch, &pool).unwrap();
        assert!(manual.needs_compaction());
        assert_eq!(manual.stats().compactions, 0);
        manual.compact(&pool).unwrap();
        assert_eq!(manual.delta_arcs(), 0);
    }

    #[test]
    fn compaction_preserves_vertex_order_and_view() {
        let base = diamond(true, true);
        let pool = WorkerPool::new(2);
        let mut mg = MutableGraph::with_config(
            base.clone(),
            DeltaConfig { auto_compact: false, ..DeltaConfig::default() },
        );
        let mut batch = MutationBatch::new();
        batch.delete(1, 2).insert_weighted(4, 0, 3.0).insert_weighted(2, 4, 1.0);
        mg.apply(&batch, &pool).unwrap();
        let before: Vec<Vec<(u32, f64)>> = (0..5).map(|u| mg.out_edges(u).collect()).collect();
        mg.compact(&pool).unwrap();
        assert_eq!(mg.vertex_ids(), base.vertex_ids());
        let after: Vec<Vec<(u32, f64)>> = (0..5).map(|u| mg.out_edges(u).collect()).collect();
        assert_eq!(before, after, "compaction must not change the view");
        assert_view_matches_materialized(&mg);
    }

    #[test]
    fn random_batches_are_deterministic_and_valid() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(64);
        for v in 0..64u64 {
            b.add_edge(v, (v + 1) % 64);
            let far = (v + 7) % 64;
            if far != v {
                let _ = b.try_add_edge(Edge::new(v, far));
            }
        }
        let csr = Arc::new(b.build().unwrap().to_csr());
        let a = random_batch(&csr, 10, 10, 42);
        let b2 = random_batch(&csr, 10, 10, 42);
        assert_eq!(a, b2, "same seed, same batch");
        let c = random_batch(&csr, 10, 10, 43);
        assert_ne!(a, c, "different seed, different batch");
        assert_eq!(a.deletions.len(), 10);
        assert_eq!(a.insertions.len(), 10);

        let pool = WorkerPool::inline();
        let mut mg = MutableGraph::new(csr);
        let out = mg.apply(&a, &pool).unwrap();
        assert_eq!(out.deleted, 10, "random deletions name existing edges");
        assert_eq!(out.inserted, 10, "random insertions name absent edges");
        assert_view_matches_materialized(&mg);
    }
}

#[cfg(test)]
mod materialize_tests {
    use super::*;
    use crate::fault::{self, CancelToken, FaultKind, FaultScript, FaultSite, Injection};
    use crate::graph::GraphBuilder;

    /// A weighted pseudo-random graph with a few random batches applied
    /// (auto-compaction off, so the log keeps them).
    fn mutated(directed: bool) -> MutableGraph {
        let mut b = GraphBuilder::new(directed);
        b.set_weighted(true);
        b.dedup_edges(true);
        let n = 300u64;
        b.add_vertex_range(n);
        let mut x = 0xBA5Eu64;
        for _ in 0..2400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (s, d) = ((x >> 33) % n, (x >> 13) % n);
            if s != d {
                b.add_weighted_edge(s, d, ((x >> 3) % 13) as f64 / 4.0);
            }
        }
        let base = Arc::new(b.build().unwrap().to_csr());
        let config = DeltaConfig { auto_compact: false, ..DeltaConfig::default() };
        let mut mg = MutableGraph::with_config(base.clone(), config);
        let pool = WorkerPool::inline();
        for seed in 0..3 {
            mg.apply(&random_batch(mg.base(), 150, 150, seed), &pool).unwrap();
        }
        // A weight update of a live base edge: tombstone plus overlay.
        let u = (0..n as u32).find(|&u| base.out_degree(u) > 0).unwrap();
        let (v, w) = (base.out_neighbors(u)[0], base.out_weights(u)[0]);
        let mut update = MutationBatch::new();
        update.insert_weighted(base.id_of(u), base.id_of(v), w + 1.0);
        mg.apply(&update, &pool).unwrap();
        mg
    }

    /// Same rows in both directions, weights by bits (equal rows and an
    /// equal arc count mean equal offsets).
    fn assert_bit_identical(got: &Csr, want: &Csr) {
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.vertex_ids(), want.vertex_ids());
        assert_eq!((got.num_arcs(), got.is_directed()), (want.num_arcs(), want.is_directed()));
        assert_eq!(got.resident_bytes(), want.resident_bytes());
        for u in 0..want.num_vertices() as u32 {
            assert_eq!(got.out_neighbors(u), want.out_neighbors(u), "out row {u}");
            assert_eq!(bits(got.out_weights(u)), bits(want.out_weights(u)), "out weights {u}");
            assert_eq!(got.in_neighbors(u), want.in_neighbors(u), "in row {u}");
            assert_eq!(bits(got.in_weights(u)), bits(want.in_weights(u)), "in weights {u}");
        }
    }

    #[test]
    fn snapshot_reservations_are_coarse_and_close() {
        for len in [0usize, 1, 31, 32, 1000, 1 << 20, (1 << 20) + 1, 1_591_862] {
            let cap = reserved_len(len);
            assert!(cap >= len && cap - len <= len / 8, "len {len}: capacity {cap}");
        }
        // A batch's worth of arcs more keeps the same reservation.
        assert_eq!(reserved_len(1_591_862), reserved_len(1_591_862 + 1_800));
    }

    #[test]
    fn patched_snapshot_equals_cold_build_at_every_width() {
        for directed in [true, false] {
            let mg = mutated(directed);
            assert!(mg.delta_arcs() > 0);
            let cold = Csr::from_graph(&mg.to_graph()).unwrap();
            for threads in [1u32, 2, 4, 8] {
                let snapshot = mg.materialize(&WorkerPool::new(threads)).unwrap();
                assert_bit_identical(&snapshot, &cold);
            }
        }
    }

    #[test]
    fn broken_log_row_is_invalid_graph_not_panic() {
        type Corrupt = fn(&mut MutableGraph, usize, u32);
        let corruptions: [(&str, Corrupt); 4] = [
            ("degree too large", |mg, u, _| mg.degrees[u] += 1),
            ("degree too small", |mg, u, _| mg.degrees[u] -= 1),
            ("overlay out of range", |mg, u, n| {
                mg.out_add[u].push((n + 7, 1.0));
                mg.degrees[u] += 1;
            }),
            ("overlay out of order", |mg, u, _| {
                let first = mg.out_edges(u as u32).next().unwrap().0;
                mg.out_add[u].push((first, 1.0));
                mg.degrees[u] += 1;
            }),
        ];
        for directed in [true, false] {
            for (what, corrupt) in corruptions {
                let mut mg = mutated(directed);
                let n = mg.num_vertices() as u32;
                let u = (0..n).find(|&u| mg.out_degree(u) > 0).unwrap() as usize;
                corrupt(&mut mg, u, n);
                for threads in [1u32, 3] {
                    let err = mg.materialize(&WorkerPool::new(threads)).unwrap_err();
                    assert!(matches!(err, Error::InvalidGraph(_)), "{what}: {err}");
                    assert!(err.to_string().contains(&format!("row {u} ")), "{what}: {err}");
                }
            }
        }
    }

    #[test]
    fn build_checkpoint_fails_the_snapshot() {
        let mg = mutated(true);
        let script = FaultScript::new(vec![Injection::new(FaultSite::Build, 0, FaultKind::Alloc)]);
        let guard = fault::install(CancelToken::new(), script);
        let err = mg.materialize(&WorkerPool::new(2)).unwrap_err();
        assert!(matches!(err, Error::Injected { site: "build", transient: false }), "{err}");
        assert!(mg.materialize(&WorkerPool::new(2)).is_ok(), "one injection, one failure");
        drop(guard);
    }
}
