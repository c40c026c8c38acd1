//! The cached graph store: one owner for each dataset's graph.
//!
//! Materializing a proxy graph is the most expensive step of a measured
//! job, and the batch harness repeats it for every run. The service
//! instead keeps generated graphs resident, keyed by dataset, so repeated
//! jobs share one instance:
//!
//! * **exactly-once generation** — concurrent requests for the same
//!   dataset block on a per-entry slot while the first request generates;
//! * **streaming mutation** — the first `POST /graphs/:id/mutations`
//!   wraps the entry's CSR in a core [`MutableGraph`] delta log, which
//!   then holds the dataset's only base. After each batch the store
//!   compacts the log once its fill ratio crosses 0.25, and the
//!   compacted base replaces the old one. A job runs on the base when
//!   the log is empty (the entry is unmutated, or its last batch
//!   compacted); otherwise on a snapshot materialized at most once per
//!   batch and cached until the next one. A batch that references an
//!   undeclared vertex, creates a self loop or carries a non-finite
//!   weight is rejected whole and leaves the log untouched;
//! * **LRU eviction** — entries are evicted least-recently-used first when
//!   the resident footprint (each entry's base, plus its snapshot) exceeds
//!   the configured capacity. An entry with a delta log is never a
//!   victim: its graph cannot be regenerated from the seed;
//! * **observable** — hit/miss/generation/eviction and delta-log counters
//!   feed the `GET /metrics` and `GET /graphs` endpoints.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use graphalytics_core::datasets::DatasetSpec;
use graphalytics_core::fault::{self, CancelToken, FaultScript};
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Csr, DeltaConfig, DeltaStats, Error, MutableGraph, MutationBatch};
use graphalytics_harness::proxy;

/// Graph store sizing and generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStoreConfig {
    /// Evict least-recently-used graphs once the estimated resident
    /// footprint exceeds this many bytes.
    pub capacity_bytes: u64,
    /// Divide published dataset sizes by this factor when materializing
    /// (see `graphalytics_harness::proxy`).
    pub scale_divisor: u64,
    /// Generation seed (graphs are deterministic per seed).
    pub seed: u64,
}

impl Default for GraphStoreConfig {
    fn default() -> Self {
        GraphStoreConfig { capacity_bytes: 256 << 20, scale_divisor: 8192, seed: 0xB5ED }
    }
}

/// Counter snapshot for the metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Requests that found an existing entry (including ones that waited
    /// for an in-flight generation).
    pub hits: u64,
    /// Requests that had to create a new entry.
    pub misses: u64,
    /// Graphs actually generated (equals `misses`: one per new entry).
    pub generations: u64,
    /// Entries dropped by LRU capacity eviction.
    pub evictions: u64,
    /// Bytes of the CSRs all entries hold.
    pub resident_bytes: u64,
    /// Number of entries (resident or mid-generation).
    pub entries: u64,
}

/// One batch's outcome, echoed by the API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Mutations in the batch as drawn or sent.
    pub batch_len: u64,
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

/// One row of the `GET /graphs` listing: the graph jobs on the dataset
/// run on, and the bytes its entry holds.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInfo {
    pub dataset: String,
    pub vertices: u64,
    pub edges: u64,
    pub bytes: u64,
    /// `Some` once a batch has reached the dataset.
    pub delta: Option<GraphDeltaStatus>,
}

/// What a slot holds once its graph is generated.
enum Resident {
    /// The generated CSR, until the first batch.
    Generated(Arc<Csr>),
    /// From the first batch on.
    Mutated(Box<Log>),
}

/// A mutated dataset: its delta log, whose base replaced the generated
/// CSR, and the last snapshot built for a job. The snapshot is served
/// only while `fresh`, which the next applied batch ends.
///
/// A stale snapshot is dropped right before the CSR that replaces it is
/// allocated, by the next build or the next compaction, and not when
/// the batch arrives. Snapshots reserve their arrays in coarse steps
/// (`MutableGraph::materialize`), so the replacement asks for the block
/// just freed and takes it whole; freed earlier, the block is split by
/// the allocations that other threads make in between, and the heap
/// grows.
struct Log {
    graph: MutableGraph,
    snapshot: Option<Arc<Csr>>,
    fresh: bool,
}

impl Resident {
    /// The delta log, wrapping the generated CSR on first use.
    fn log(&mut self) -> &mut Log {
        if let Resident::Generated(csr) = self {
            let config = DeltaConfig { auto_compact: false, ..DeltaConfig::default() };
            let graph = MutableGraph::with_config(csr.clone(), config);
            *self = Resident::Mutated(Box::new(Log { graph, snapshot: None, fresh: false }));
        }
        match self {
            Resident::Mutated(log) => log,
            Resident::Generated(_) => unreachable!("wrapped above"),
        }
    }

    fn base(&self) -> &Arc<Csr> {
        match self {
            Resident::Generated(csr) => csr,
            Resident::Mutated(log) => log.graph.base(),
        }
    }

    fn info(&self, dataset: &str) -> GraphInfo {
        let base = self.base();
        let mut info = GraphInfo {
            dataset: dataset.to_string(),
            vertices: base.num_vertices() as u64,
            edges: base.num_edges() as u64,
            bytes: base.resident_bytes(),
            delta: None,
        };
        if let Resident::Mutated(log) = self {
            info.edges = log.graph.num_edges();
            info.bytes += log.snapshot.as_ref().map_or(0, |s| s.resident_bytes());
            info.delta = Some(GraphDeltaStatus {
                stats: *log.graph.stats(),
                delta_arcs: log.graph.delta_arcs(),
                fill_ratio: log.graph.fill_ratio(),
            });
        }
        info
    }
}

impl Log {
    /// Applies `batch`, then compacts if the fill ratio crossed the
    /// trigger. `Err` is a validation failure, and nothing was applied,
    /// or a failed compaction, and the batch is in the log.
    fn apply(&mut self, batch: &MutationBatch, pool: &WorkerPool) -> Result<BatchReport, String> {
        let started = Instant::now();
        let mut outcome = self.graph.apply(batch, pool).map_err(|e| e.to_string())?;
        self.fresh = false;
        if self.graph.needs_compaction() {
            self.snapshot = None;
            self.graph.compact(pool).map_err(|e| e.to_string())?;
            outcome.compacted = true;
        }
        Ok(BatchReport {
            batch_len: batch.len() as u64,
            inserted: outcome.inserted,
            deleted: outcome.deleted,
            updated: outcome.updated,
            compacted: outcome.compacted,
            delta_arcs: self.graph.delta_arcs(),
            fill_ratio: self.graph.fill_ratio(),
            apply_secs: started.elapsed().as_secs_f64(),
        })
    }
}

/// Per-dataset slot. The outer store lock is never held while a graph is
/// generated, mutated or materialized; the slot mutex serializes those
/// per dataset instead, so requests for *different* datasets proceed in
/// parallel while requests for the *same* dataset wait for each other.
/// `None` until the first request has generated the graph.
#[derive(Default)]
struct Slot {
    resident: Mutex<Option<Resident>>,
}

struct Entry {
    slot: Arc<Slot>,
    /// What the slot holds, published under the store lock after every
    /// change; `None` while generation is in flight.
    info: Option<GraphInfo>,
    /// Logical clock of the last request (drives LRU).
    last_used: u64,
    /// A batch has reached the slot: never evicted.
    pinned: bool,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<&'static str, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    generations: u64,
    evictions: u64,
    snapshot_builds: u64,
}

impl Inner {
    fn resident_bytes(&self) -> u64 {
        self.entries.values().filter_map(|e| e.info.as_ref()).map(|i| i.bytes).sum()
    }
}

/// The shared, thread-safe graph store.
pub struct GraphStore {
    config: GraphStoreConfig,
    /// The daemon's shared execution runtime; edge-list → CSR uploads,
    /// snapshots and compactions run on it instead of single-threaded.
    pool: Arc<WorkerPool>,
    inner: Mutex<Inner>,
}

impl GraphStore {
    pub fn new(config: GraphStoreConfig, pool: Arc<WorkerPool>) -> Self {
        GraphStore { config, pool, inner: Mutex::new(Inner::default()) }
    }

    /// The store's configuration.
    pub fn config(&self) -> &GraphStoreConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The base graph of `spec`, generating it first if needed: the
    /// generated CSR, or a mutated dataset's current base. Jobs run on
    /// [`GraphStore::job_graph`].
    pub fn get(&self, spec: &'static DatasetSpec) -> Arc<Csr> {
        self.with_resident(spec, false, |resident| resident.base().clone())
    }

    /// The graph a job on `spec` runs on: the base while the delta log is
    /// empty, otherwise the cached post-mutation snapshot, built if the
    /// last batch ended it. The build runs under `faults`, and nothing
    /// else the store does. `Err` is a failed build (a log whose
    /// invariants broke, or an injected fault); nothing is cached and the
    /// next call tries again.
    pub fn job_graph(
        &self,
        spec: &'static DatasetSpec,
        faults: FaultScript,
    ) -> Result<Arc<Csr>, Error> {
        self.with_resident(spec, false, |resident| {
            let Resident::Mutated(log) = resident else { return Ok(resident.base().clone()) };
            if log.graph.delta_arcs() == 0 {
                return Ok(log.graph.base().clone());
            }
            if let (true, Some(snapshot)) = (log.fresh, &log.snapshot) {
                return Ok(snapshot.clone());
            }
            log.snapshot = None;
            let built = {
                let _scope = fault::install(CancelToken::new(), faults);
                log.graph.materialize(&self.pool).map(Arc::new)
            };
            if let Ok(csr) = &built {
                log.snapshot = Some(csr.clone());
                log.fresh = true;
            }
            self.publish(spec.id, resident).snapshot_builds += u64::from(built.is_ok());
            built
        })
    }

    /// Applies the batch that `batch` draws from the delta log's current
    /// base to `spec`'s log, wrapping the dataset's graph on first use.
    /// `Err` is a validation failure (undeclared vertex, self loop, bad
    /// weight), and nothing was applied, or a failed compaction, and the
    /// batch is in the log.
    pub fn apply(
        &self,
        spec: &'static DatasetSpec,
        batch: impl FnOnce(&Csr) -> MutationBatch,
    ) -> Result<BatchReport, String> {
        self.with_resident(spec, true, |resident| {
            let log = resident.log();
            let batch = batch(log.graph.base());
            let report = log.apply(&batch, &self.pool);
            drop(self.publish(spec.id, resident));
            report
        })
    }

    /// Runs `f` on `spec`'s resident graph under its slot lock, generating
    /// the graph first if it is not resident. `pin` exempts the entry
    /// from eviction from this request on.
    fn with_resident<R>(
        &self,
        spec: &'static DatasetSpec,
        pin: bool,
        f: impl FnOnce(&mut Resident) -> R,
    ) -> R {
        let slot = {
            let mut inner = self.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let hit = inner.entries.contains_key(spec.id);
            if hit {
                inner.hits += 1;
            } else {
                inner.misses += 1;
            }
            let entry = inner.entries.entry(spec.id).or_insert_with(|| Entry {
                slot: Arc::default(),
                info: None,
                last_used: clock,
                pinned: false,
            });
            entry.last_used = clock;
            entry.pinned |= pin;
            entry.slot.clone()
        };

        let mut resident = slot.resident.lock().unwrap_or_else(|e| e.into_inner());
        if resident.is_none() {
            // First request for this entry: generate while holding the
            // slot lock so concurrent same-dataset requests wait instead
            // of duplicating the work.
            let csr = proxy::materialize_with(
                spec,
                self.config.scale_divisor,
                self.config.seed,
                &self.pool,
            )
            .to_csr_with(&self.pool)
            .expect("generated proxy graph is valid");
            let generated = Resident::Generated(Arc::new(csr));
            self.publish(spec.id, &generated).generations += 1;
            *resident = Some(generated);
        }
        f(resident.as_mut().expect("generated above"))
    }

    /// Records what `id`'s slot now holds and evicts over capacity. Called
    /// under the slot lock, so an entry's rows are published in the order
    /// its slot changed. Returns the store lock for the caller's counter.
    fn publish(&self, id: &'static str, resident: &Resident) -> MutexGuard<'_, Inner> {
        let mut inner = self.lock();
        if let Some(entry) = inner.entries.get_mut(id) {
            entry.info = Some(resident.info(id));
        }
        Self::evict_to(&mut inner, self.config.capacity_bytes, id);
        inner
    }

    /// Evicts LRU entries until the resident footprint fits
    /// `capacity_bytes`. The entry that triggered the check, entries
    /// still generating and entries with a delta log are exempt:
    /// evicting a graph someone is producing or about to use would only
    /// force an immediate regeneration, and a mutated graph cannot be
    /// regenerated at all.
    fn evict_to(inner: &mut Inner, capacity_bytes: u64, keep: &str) {
        loop {
            if inner.resident_bytes() <= capacity_bytes {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(id, e)| **id != keep && e.info.is_some() && !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    inner.entries.remove(id);
                    inner.evictions += 1;
                }
                None => return,
            }
        }
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        let inner = self.lock();
        StoreMetrics {
            hits: inner.hits,
            misses: inner.misses,
            generations: inner.generations,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes(),
            entries: inner.entries.len() as u64,
        }
    }

    /// Aggregate delta-log counters across all mutated datasets.
    pub fn mutation_metrics(&self) -> MutationMetrics {
        let inner = self.lock();
        let mut m = MutationMetrics {
            snapshot_builds: inner.snapshot_builds,
            ..MutationMetrics::default()
        };
        for delta in inner.entries.values().filter_map(|e| e.info.as_ref()?.delta) {
            m.mutated_graphs += 1;
            m.applied_batches += delta.stats.applied_batches;
            m.inserted_edges += delta.stats.inserted_edges;
            m.deleted_edges += delta.stats.deleted_edges;
            m.updated_edges += delta.stats.updated_edges;
            m.compactions += delta.stats.compactions;
            m.compact_secs += delta.stats.compact_secs;
            m.delta_arcs += delta.delta_arcs;
        }
        m
    }

    /// The resident graphs, most recently used first. Entries whose
    /// generation is still in flight are omitted: a listing never waits
    /// behind a slot lock.
    pub fn list(&self) -> Vec<GraphInfo> {
        let inner = self.lock();
        let mut rows: Vec<(u64, GraphInfo)> =
            inner.entries.values().filter_map(|e| Some((e.last_used, e.info.clone()?))).collect();
        rows.sort_by_key(|(last_used, _)| std::cmp::Reverse(*last_used));
        rows.into_iter().map(|(_, info)| info).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::datasets::dataset;
    use graphalytics_core::{random_batch, GraphBuilder};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn small_store(capacity_bytes: u64) -> GraphStore {
        GraphStore::new(
            GraphStoreConfig { capacity_bytes, scale_divisor: 16384, seed: 7 },
            Arc::new(WorkerPool::new(2)),
        )
    }

    #[test]
    fn generates_once_and_serves_hits() {
        let store = small_store(u64::MAX);
        let spec = dataset("G22").unwrap();
        let a = store.get(spec);
        let b = store.get(spec);
        assert!(Arc::ptr_eq(&a, &b), "same resident instance");
        let m = store.metrics();
        assert_eq!((m.misses, m.generations, m.hits), (1, 1, 1));
        assert_eq!(m.entries, 1);
        assert!(m.resident_bytes > 0);
    }

    #[test]
    fn concurrent_requests_generate_exactly_once() {
        let store = small_store(u64::MAX);
        let spec = dataset("G22").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    let csr = store.get(spec);
                    assert!(csr.num_vertices() > 0);
                });
            }
        });
        let m = store.metrics();
        assert_eq!(m.generations, 1, "{m:?}");
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits, 7);
    }

    #[test]
    fn lru_evicts_oldest_when_over_capacity() {
        // Capacity of one byte: every insertion evicts everything else.
        let store = small_store(1);
        let g22 = dataset("G22").unwrap();
        let r1 = dataset("R1").unwrap();
        store.get(g22);
        assert_eq!(store.metrics().evictions, 0, "sole entry is exempt");
        store.get(r1);
        let m = store.metrics();
        assert_eq!(m.evictions, 1, "{m:?}");
        assert_eq!(m.entries, 1);
        assert_eq!(store.list()[0].dataset, "R1");
        // The evicted dataset regenerates on the next request.
        store.get(g22);
        let m = store.metrics();
        assert_eq!(m.generations, 3);
        assert_eq!(m.hits, 0);
    }

    #[test]
    fn lru_order_follows_use_not_insertion() {
        let store = small_store(u64::MAX);
        let g22 = dataset("G22").unwrap();
        let r1 = dataset("R1").unwrap();
        let r2 = dataset("R2").unwrap();
        store.get(g22);
        store.get(r1);
        store.get(r2);
        store.get(g22); // refresh G22: R1 is now least recently used
        let listing = store.list();
        assert_eq!(listing[0].dataset, "G22");
        // Force eviction down to one entry while keeping G22: victims must
        // go in LRU order (R1 before R2), and the kept entry survives even
        // though the store is still over the target.
        {
            let mut inner = store.lock();
            GraphStore::evict_to(&mut inner, 1, "G22");
            assert!(inner.entries.contains_key("G22"));
            assert_eq!(inner.entries.len(), 1);
            assert_eq!(inner.evictions, 2);
        }
        assert_eq!(store.metrics().entries, 1);
    }

    #[test]
    fn listing_reports_graph_shape() {
        let store = small_store(u64::MAX);
        let spec = dataset("R1").unwrap();
        let csr = store.get(spec);
        let listing = store.list();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].vertices, csr.num_vertices() as u64);
        assert_eq!(listing[0].edges, csr.num_edges() as u64);
        assert_eq!(listing[0].bytes, csr.resident_bytes());
    }

    fn job_graph(store: &GraphStore, spec: &'static DatasetSpec) -> Arc<Csr> {
        store.job_graph(spec, FaultScript::empty()).unwrap()
    }

    /// The delta-log status the listing reports for `id`.
    fn delta(store: &GraphStore, id: &str) -> Option<GraphDeltaStatus> {
        store.list().into_iter().find(|g| g.dataset == id)?.delta
    }

    /// A store whose G22 entry holds a six-vertex undirected path
    /// instead of the proxy, and that path.
    fn path_store() -> (GraphStore, &'static DatasetSpec, Arc<Csr>) {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
            b.add_edge(u, v);
        }
        let csr = Arc::new(b.build().unwrap().to_csr());
        let config = GraphStoreConfig { scale_divisor: 16384, ..GraphStoreConfig::default() };
        let store = GraphStore::new(config, Arc::new(WorkerPool::inline()));
        let g22 = dataset("G22").unwrap();
        store.with_resident(g22, false, |resident| {
            *resident = Resident::Generated(csr.clone());
            drop(store.publish(g22.id, resident));
        });
        (store, g22, csr)
    }

    /// A batch of explicit insertions and deletions, by vertex id.
    fn explicit(
        insert: &[(u64, u64)],
        delete: &[(u64, u64)],
    ) -> impl FnOnce(&Csr) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for &(u, v) in insert {
            batch.insert(u, v);
        }
        for &(u, v) in delete {
            batch.delete(u, v);
        }
        move |_| batch
    }

    #[test]
    fn apply_snapshot_and_metrics_roundtrip() {
        let (store, g22, csr) = path_store();
        assert!(
            Arc::ptr_eq(&job_graph(&store, g22), &csr),
            "an untouched dataset runs on its base"
        );
        let report = store.apply(g22, explicit(&[(0, 5)], &[(2, 3)])).unwrap();
        assert_eq!((report.inserted, report.deleted, report.updated), (1, 1, 0));
        // On a 5-edge base this one batch crosses the 0.25 fill ratio:
        // the store compacts immediately and empties the log.
        assert!(report.compacted);
        assert_eq!(report.delta_arcs, 0);

        let snap = job_graph(&store, g22);
        assert_eq!(snap.num_edges(), csr.num_edges(), "one insert, one delete");
        let again = job_graph(&store, g22);
        assert!(Arc::ptr_eq(&snap, &again), "the job graph is kept until the next batch");

        let m = store.mutation_metrics();
        assert_eq!(m.mutated_graphs, 1);
        assert_eq!(m.applied_batches, 1);
        assert_eq!((m.inserted_edges, m.deleted_edges), (1, 1));
        // A compacted base is the job graph: no snapshot is built.
        assert_eq!(m.snapshot_builds, 0);
        assert_eq!(m.compactions, 1);
        assert_eq!(delta(&store, "G22").unwrap().stats.applied_batches, 1);
        store.get(dataset("R1").unwrap());
        assert!(delta(&store, "R1").is_none());

        // The next batch ends the cached job graph.
        store.apply(g22, explicit(&[], &[(0, 1)])).unwrap();
        let rebuilt = job_graph(&store, g22);
        assert!(!Arc::ptr_eq(&snap, &rebuilt));
        assert_eq!(rebuilt.num_edges(), csr.num_edges() - 1);
        assert_eq!(store.mutation_metrics().snapshot_builds, 1);
    }

    #[test]
    fn invalid_batches_reject_without_applying() {
        let (store, g22, csr) = path_store();
        let err = store.apply(g22, explicit(&[(0, 99)], &[])).unwrap_err();
        assert!(err.contains("undeclared vertex"), "{err}");
        assert_eq!(delta(&store, "G22").unwrap().stats.applied_batches, 0);
        assert_eq!(job_graph(&store, g22).num_edges(), csr.num_edges());
    }

    #[test]
    fn only_an_applied_batch_ends_the_cached_snapshot() {
        use graphalytics_core::fault::{FaultKind, FaultSite, Injection};
        let (store, g22, _) = path_store();
        let first = explicit(&[(0, 5)], &[(2, 3)]);
        assert!(store.apply(g22, first).unwrap().compacted);
        let before = job_graph(&store, g22);
        assert!(store.apply(g22, explicit(&[(0, 99)], &[])).is_err());
        assert!(Arc::ptr_eq(&before, &job_graph(&store, g22)));

        // Crosses the fill ratio again; the compaction fails after the
        // batch went into the log.
        let script =
            FaultScript::new(vec![Injection::new(FaultSite::Compact, 0, FaultKind::Alloc)]);
        {
            let _scope = fault::install(CancelToken::new(), script);
            let second = explicit(&[(1, 3)], &[(4, 5)]);
            assert!(store.apply(g22, second).is_err());
        }
        assert_eq!(delta(&store, "G22").unwrap().stats.applied_batches, 2);
        let after = job_graph(&store, g22);
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(after.has_out_edge(1, 3) && !after.has_out_edge(4, 5));
    }

    #[test]
    fn generated_batches_are_deterministic() {
        let (a, g22, _) = path_store();
        let (b, _, _) = path_store();
        let report_a = a.apply(g22, |base| random_batch(base, 3, 2, 42)).unwrap();
        let report_b = b.apply(g22, |base| random_batch(base, 3, 2, 42)).unwrap();
        assert_eq!(report_a.batch_len, report_b.batch_len);
        assert_eq!(report_a.inserted, report_b.inserted);
        assert_eq!(report_a.deleted, report_b.deleted);
        assert_eq!(job_graph(&a, g22).num_edges(), job_graph(&b, g22).num_edges());
    }

    #[test]
    fn a_mutated_entry_is_never_evicted() {
        // Capacity of one byte: every insertion evicts every other
        // unmutated graph.
        let store = small_store(1);
        let (r1, g22) = (dataset("R1").unwrap(), dataset("G22").unwrap());
        let generated = store.get(r1);
        let mut absent = (0..generated.num_vertices() as u32)
            .flat_map(|u| (0..generated.num_vertices() as u32).map(move |v| (u, v)))
            .filter(|&(u, v)| u != v && !generated.has_out_edge(u, v))
            .map(|(u, v)| (generated.id_of(u), generated.id_of(v)));
        let (first, second) = (absent.next().unwrap(), absent.next().unwrap());
        store.apply(r1, explicit(&[first], &[])).unwrap();
        store.get(g22);
        store.apply(r1, explicit(&[second], &[])).unwrap();
        let graph = job_graph(&store, r1);
        let m = store.metrics();
        // The second batch's capacity check evicted G22, not R1.
        assert_eq!((m.generations, m.evictions), (2, 1), "{m:?}");
        assert_eq!(store.list().len(), 1);
        assert_eq!(graph.num_edges(), generated.num_edges() + 2);
        for (src, dst) in [first, second] {
            let (u, v) = (graph.index_of(src).unwrap(), graph.index_of(dst).unwrap());
            assert!(graph.has_out_edge(u, v), "{src} -> {dst}");
        }
    }

    #[test]
    fn a_compacted_base_is_the_job_graph() {
        let store = small_store(u64::MAX);
        let r1 = dataset("R1").unwrap();
        let generated = Arc::downgrade(&store.get(r1));
        let edges = generated.upgrade().unwrap().num_arcs() as usize;
        let report = store.apply(r1, |base| random_batch(base, edges, edges / 4, 1)).unwrap();
        assert!(report.compacted, "{report:?}");
        assert!(generated.upgrade().is_none(), "the generated CSR is dropped by the compaction");

        let graph = job_graph(&store, r1);
        assert!(Arc::ptr_eq(&graph, &store.get(r1)), "the compacted base is the job graph");
        assert_eq!(store.mutation_metrics().snapshot_builds, 0);
        let info = store.list().remove(0);
        assert_eq!((info.edges, info.bytes), (graph.num_edges() as u64, graph.resident_bytes()));

        // A batch below the fill ratio: the job graph is a snapshot, and
        // the entry holds it beside the base.
        store.apply(r1, |base| random_batch(base, 4, 1, 2)).unwrap();
        let snapshot = job_graph(&store, r1);
        assert!(!Arc::ptr_eq(&snapshot, &graph));
        assert!(Arc::ptr_eq(&snapshot, &job_graph(&store, r1)));
        assert_eq!(store.mutation_metrics().snapshot_builds, 1);
        let info = store.list().remove(0);
        assert_eq!(info.edges, snapshot.num_edges() as u64);
        assert_eq!(info.bytes, graph.resident_bytes() + snapshot.resident_bytes());
        assert_eq!(store.metrics().resident_bytes, info.bytes);
    }

    #[test]
    fn concurrent_batches_and_jobs_see_whole_batches() {
        const BATCHES: u64 = 12;
        let r1 = dataset("R1").unwrap();
        let draw = |seed: u64| move |base: &Csr| random_batch(base, 12, 4, seed);

        // The sequential model: |E| after each batch, applied in order.
        let model = small_store(u64::MAX);
        let mut sequence = vec![job_graph(&model, r1).num_edges()];
        for seed in 0..BATCHES {
            model.apply(r1, draw(seed)).unwrap();
            sequence.push(job_graph(&model, r1).num_edges());
        }
        assert!(model.mutation_metrics().compactions > 0, "the run crosses a compaction");

        let store = small_store(u64::MAX);
        // Two appliers share the next seed, so batches apply in seed order.
        let next = Mutex::new(0u64);
        let done = AtomicBool::new(false);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let appliers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| loop {
                        let mut next = next.lock().unwrap();
                        if *next == BATCHES {
                            return;
                        }
                        store.apply(r1, draw(*next)).unwrap();
                        *next += 1;
                    })
                })
                .collect();
            let readers: Vec<_> = (0..6)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            seen.push(job_graph(&store, r1).num_edges());
                        }
                        seen
                    })
                })
                .collect();
            appliers.into_iter().for_each(|a| a.join().unwrap());
            done.store(true, Ordering::Release);
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for edges in seen.iter().flatten() {
            assert!(sequence.contains(edges), "|E| {edges} is not in {sequence:?}");
        }
        assert_eq!(job_graph(&store, r1).num_edges(), *sequence.last().unwrap());
        let m = store.mutation_metrics();
        assert_eq!(m.applied_batches, BATCHES);
        assert!(m.snapshot_builds <= m.applied_batches, "{m:?}");
    }
}
