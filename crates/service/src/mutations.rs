//! The resident mutation store.
//!
//! Each dataset in the graph store can accumulate streaming mutations:
//! the first `POST /graphs/:id/mutations` wraps the store's resident CSR
//! in a core [`MutableGraph`] delta log, and later batches apply against
//! it with the default compaction policy (fold the log into a fresh CSR
//! once the fill ratio crosses 0.25), which the store applies itself
//! after each batch. Measured jobs that target a
//! mutated dataset run on the materialized post-mutation snapshot (cached
//! until the next batch invalidates it), and `GET /metrics` exposes the
//! aggregate delta-log counters.
//!
//! Validation is all-or-nothing: a batch referencing an undeclared
//! vertex, creating a self loop, or carrying a non-finite weight is
//! rejected whole (the API maps the failure to a structured 400) and the
//! log is untouched.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{
    random_batch, Csr, DeltaConfig, DeltaStats, Error, MutableGraph, MutationBatch,
};

/// One batch's outcome, echoed by the API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Edges added / removed / weight-updated by this batch.
    pub inserted: u64,
    pub deleted: u64,
    pub updated: u64,
    /// Whether this batch crossed the fill ratio and compacted the log.
    pub compacted: bool,
    /// Delta-log arcs and fill ratio left after the batch.
    pub delta_arcs: u64,
    pub fill_ratio: f64,
    /// Wall seconds spent applying (compaction included).
    pub apply_secs: f64,
}

/// Aggregate counters over every mutated dataset, for `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MutationMetrics {
    /// Datasets with a live delta log.
    pub mutated_graphs: u64,
    pub applied_batches: u64,
    pub inserted_edges: u64,
    pub deleted_edges: u64,
    pub updated_edges: u64,
    /// Delta-log compactions and their total cost.
    pub compactions: u64,
    pub compact_secs: f64,
    /// Outstanding (un-compacted) delta arcs across all logs.
    pub delta_arcs: u64,
    /// Post-mutation snapshots materialized for jobs.
    pub snapshot_builds: u64,
}

/// Per-dataset delta-log status, for the `GET /graphs` listing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphDeltaStatus {
    pub stats: DeltaStats,
    pub delta_arcs: u64,
    pub fill_ratio: f64,
}

struct Entry {
    graph: MutableGraph,
    /// The last materialized post-mutation CSR; `None` until a job needs
    /// it. Served only while `fresh`, which the next applied batch ends.
    snapshot: Option<Arc<Csr>>,
    fresh: bool,
}

// A stale snapshot is dropped right before the CSR that replaces it is
// allocated, by the next build or the next compaction, and not when the
// batch arrives. Snapshots reserve their arrays in coarse steps
// (`MutableGraph::materialize`), so the replacement asks for the block
// just freed and takes it whole; freed earlier, the block is split by
// the allocations that other threads make in between, and the heap grows.
impl Entry {
    fn new(base: &Arc<Csr>) -> Entry {
        let config = DeltaConfig { auto_compact: false, ..DeltaConfig::default() };
        Entry {
            graph: MutableGraph::with_config(base.clone(), config),
            snapshot: None,
            fresh: false,
        }
    }
}

#[derive(Default)]
struct State {
    entries: BTreeMap<String, Entry>,
    snapshot_builds: u64,
}

/// The shared, thread-safe mutation store.
pub struct MutationStore {
    /// The daemon's shared execution runtime (compactions and snapshot
    /// materializations run pool-parallel).
    pool: Arc<WorkerPool>,
    inner: Mutex<State>,
}

impl MutationStore {
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        MutationStore { pool, inner: Mutex::new(State::default()) }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies one batch to `dataset`'s delta log, wrapping `base` on
    /// first use. `Err` is a validation failure (undeclared vertex, self
    /// loop, bad weight), and nothing was applied, or a failed
    /// compaction, and the batch is in the log.
    pub fn apply(
        &self,
        dataset: &str,
        base: &Arc<Csr>,
        batch: &MutationBatch,
    ) -> Result<BatchReport, String> {
        let mut inner = self.lock();
        let entry = inner.entries.entry(dataset.to_string()).or_insert_with(|| Entry::new(base));
        Self::apply_to(entry, batch, &self.pool)
    }

    /// Generates a deterministic batch (`insertions` + `deletions` drawn
    /// from the log's current base with `seed`) and applies it. Returns
    /// the batch size alongside the report.
    pub fn apply_generated(
        &self,
        dataset: &str,
        base: &Arc<Csr>,
        insertions: usize,
        deletions: usize,
        seed: u64,
    ) -> Result<(usize, BatchReport), String> {
        let mut inner = self.lock();
        let entry = inner.entries.entry(dataset.to_string()).or_insert_with(|| Entry::new(base));
        let batch = random_batch(entry.graph.base(), insertions, deletions, seed);
        let report = Self::apply_to(entry, &batch, &self.pool)?;
        Ok((batch.len(), report))
    }

    fn apply_to(
        entry: &mut Entry,
        batch: &MutationBatch,
        pool: &WorkerPool,
    ) -> Result<BatchReport, String> {
        let started = Instant::now();
        let mut outcome = entry.graph.apply(batch, pool).map_err(|e| e.to_string())?;
        entry.fresh = false;
        if entry.graph.needs_compaction() {
            entry.snapshot = None;
            entry.graph.compact(pool).map_err(|e| e.to_string())?;
            outcome.compacted = true;
        }
        Ok(BatchReport {
            inserted: outcome.inserted,
            deleted: outcome.deleted,
            updated: outcome.updated,
            compacted: outcome.compacted,
            delta_arcs: entry.graph.delta_arcs(),
            fill_ratio: entry.graph.fill_ratio(),
            apply_secs: started.elapsed().as_secs_f64(),
        })
    }

    /// The materialized post-mutation graph of `dataset`, if it has ever
    /// been mutated; `Ok(None)` routes the caller to the unmutated store
    /// graph. Cached until the next batch. `Err` is a failed
    /// materialize (a log whose invariants broke, or an injected build
    /// fault); nothing is cached and the next call tries again.
    pub fn snapshot(&self, dataset: &str) -> Result<Option<Arc<Csr>>, Error> {
        let mut inner = self.lock();
        let state = &mut *inner;
        let Some(entry) = state.entries.get_mut(dataset) else { return Ok(None) };
        if !entry.fresh {
            entry.snapshot = None;
            let csr = entry.graph.materialize(&self.pool)?;
            entry.snapshot = Some(Arc::new(csr));
            entry.fresh = true;
            state.snapshot_builds += 1;
        }
        Ok(entry.snapshot.clone())
    }

    /// Per-dataset delta-log status, if `dataset` has ever been mutated.
    pub fn status(&self, dataset: &str) -> Option<GraphDeltaStatus> {
        let inner = self.lock();
        inner.entries.get(dataset).map(|entry| GraphDeltaStatus {
            stats: *entry.graph.stats(),
            delta_arcs: entry.graph.delta_arcs(),
            fill_ratio: entry.graph.fill_ratio(),
        })
    }

    /// Aggregate counter snapshot across all mutated datasets.
    pub fn metrics(&self) -> MutationMetrics {
        let inner = self.lock();
        let mut m = MutationMetrics {
            mutated_graphs: inner.entries.len() as u64,
            snapshot_builds: inner.snapshot_builds,
            ..MutationMetrics::default()
        };
        for entry in inner.entries.values() {
            let stats = entry.graph.stats();
            m.applied_batches += stats.applied_batches;
            m.inserted_edges += stats.inserted_edges;
            m.deleted_edges += stats.deleted_edges;
            m.updated_edges += stats.updated_edges;
            m.compactions += stats.compactions;
            m.compact_secs += stats.compact_secs;
            m.delta_arcs += entry.graph.delta_arcs();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::GraphBuilder;

    fn base() -> Arc<Csr> {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
            b.add_edge(u, v);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    #[test]
    fn apply_snapshot_and_metrics_roundtrip() {
        let store = MutationStore::new(Arc::new(WorkerPool::inline()));
        let csr = base();
        assert!(store.snapshot("G22").unwrap().is_none(), "untouched dataset has no snapshot");
        let mut batch = MutationBatch::new();
        batch.insert(0, 5).delete(2, 3);
        let report = store.apply("G22", &csr, &batch).unwrap();
        assert_eq!((report.inserted, report.deleted, report.updated), (1, 1, 0));
        // On a 5-edge base this one batch crosses the 0.25 fill ratio:
        // the default policy compacts immediately and empties the log.
        assert!(report.compacted);
        assert_eq!(report.delta_arcs, 0);

        let snap = store.snapshot("G22").unwrap().unwrap();
        assert_eq!(snap.num_edges(), csr.num_edges(), "one insert, one delete");
        let again = store.snapshot("G22").unwrap().unwrap();
        assert!(Arc::ptr_eq(&snap, &again), "snapshot cached until the next batch");

        let m = store.metrics();
        assert_eq!(m.mutated_graphs, 1);
        assert_eq!(m.applied_batches, 1);
        assert_eq!((m.inserted_edges, m.deleted_edges), (1, 1));
        assert_eq!(m.snapshot_builds, 1);
        assert_eq!(m.compactions, 1);
        assert_eq!(store.status("G22").unwrap().stats.applied_batches, 1);
        assert!(store.status("R1").is_none());

        // The next batch invalidates the cached snapshot.
        let mut second = MutationBatch::new();
        second.delete(0, 1);
        store.apply("G22", &csr, &second).unwrap();
        let rebuilt = store.snapshot("G22").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&snap, &rebuilt));
        assert_eq!(rebuilt.num_edges(), csr.num_edges() - 1);
        assert_eq!(store.metrics().snapshot_builds, 2);
    }

    #[test]
    fn invalid_batches_reject_without_applying() {
        let store = MutationStore::new(Arc::new(WorkerPool::inline()));
        let csr = base();
        let mut batch = MutationBatch::new();
        batch.insert(0, 99);
        let err = store.apply("G22", &csr, &batch).unwrap_err();
        assert!(err.contains("undeclared vertex"), "{err}");
        assert_eq!(store.status("G22").unwrap().stats.applied_batches, 0);
        assert_eq!(store.snapshot("G22").unwrap().unwrap().num_edges(), csr.num_edges());
    }

    #[test]
    fn only_an_applied_batch_ends_the_cached_snapshot() {
        use graphalytics_core::fault::{
            self, CancelToken, FaultKind, FaultScript, FaultSite, Injection,
        };
        let store = MutationStore::new(Arc::new(WorkerPool::inline()));
        let csr = base();
        let mut first = MutationBatch::new();
        first.insert(0, 5).delete(2, 3);
        assert!(store.apply("G22", &csr, &first).unwrap().compacted);
        let before = store.snapshot("G22").unwrap().unwrap();
        let mut rejected = MutationBatch::new();
        rejected.insert(0, 99);
        assert!(store.apply("G22", &csr, &rejected).is_err());
        assert!(Arc::ptr_eq(&before, &store.snapshot("G22").unwrap().unwrap()));

        // Crosses the fill ratio again; the compaction fails after the
        // batch went into the log.
        let mut second = MutationBatch::new();
        second.insert(1, 3).delete(4, 5);
        let script =
            FaultScript::new(vec![Injection::new(FaultSite::Compact, 0, FaultKind::Alloc)]);
        {
            let _scope = fault::install(CancelToken::new(), script);
            assert!(store.apply("G22", &csr, &second).is_err());
        }
        assert_eq!(store.status("G22").unwrap().stats.applied_batches, 2);
        let after = store.snapshot("G22").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(after.has_out_edge(1, 3) && !after.has_out_edge(4, 5));
    }

    #[test]
    fn generated_batches_are_deterministic() {
        let a = MutationStore::new(Arc::new(WorkerPool::inline()));
        let b = MutationStore::new(Arc::new(WorkerPool::inline()));
        let csr = base();
        let (len_a, report_a) = a.apply_generated("G22", &csr, 3, 2, 42).unwrap();
        let (len_b, report_b) = b.apply_generated("G22", &csr, 3, 2, 42).unwrap();
        assert_eq!(len_a, len_b);
        assert_eq!(report_a.inserted, report_b.inserted);
        assert_eq!(report_a.deleted, report_b.deleted);
        let (snap_a, snap_b) =
            (a.snapshot("G22").unwrap().unwrap(), b.snapshot("G22").unwrap().unwrap());
        assert_eq!(snap_a.num_edges(), snap_b.num_edges());
    }
}
