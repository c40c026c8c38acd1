//! The driver: running one benchmark job against a platform.
//!
//! A job is platform × dataset × algorithm × cluster configuration. The
//! driver performs what Figure 1's platform driver + harness services do,
//! phased exactly like the benchmark process of §3:
//!
//! 1. **admission** — does the platform support the algorithm? does the
//!    working set fit in memory?
//! 2. **upload** — hand the graph to the engine once
//!    ([`Platform::upload`]); the measured wall time of this phase is
//!    reported separately from processing time.
//! 3. **execute × N** — run the algorithm [`JobSpec::repetitions`] times
//!    on the uploaded representation; only these executions contribute to
//!    `T_proc` (and therefore EPS/EVPS). Each repetition draws its own
//!    deterministic noise sample (keyed by `run_index + repetition`).
//! 4. **validate** — outputs are checked against the reference
//!    implementation's output for the graph, computed once per (graph,
//!    request) and kept resident in the driver's [`ReferenceCache`] (a
//!    reference-side failure is a [`JobStatus::ValidationFailed`], never
//!    a panic).
//! 5. **delete** — release the engine-owned representation.
//!
//! Analytic jobs (paper-scale datasets) skip upload/delete and estimate
//! counters instead, but still produce one [`RunMeasurement`] per
//! repetition so mean/min/max and CV work identically in both modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use graphalytics_cluster::cost::{noise_factor, processing_time};
use graphalytics_cluster::memory::MemoryOutcome;
use graphalytics_cluster::partition::{estimate_replication, PartitionStrategy};
use graphalytics_cluster::{ClusterSpec, NetworkSpec, WorkCounters};
use graphalytics_core::algorithms::{run_reference, Request};
use graphalytics_core::datasets::DatasetSpec;
use graphalytics_core::fault::{self, CancelToken, FaultScript, FaultSite};
use graphalytics_core::output::AlgorithmOutput;
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{random_batch, Algorithm, Csr, MutableGraph, MutationBatch};
use graphalytics_engines::profile::NetworkKind;
use graphalytics_engines::{LoadedGraph, PhaseRecord, Platform, RunContext, SpanRecord};
use graphalytics_granula::monitor::ResourceSample;
use graphalytics_granula::{Archiver, MonitorConfig, OperationRecord, PerformanceArchive, Sampler};

use crate::description::JobDescription;
use crate::SLA_MAKESPAN_SECS;

/// How the job obtains its work counters.
pub enum RunMode<'a> {
    /// Execute for real on a materialized graph (usually a scaled-down
    /// proxy): upload once, execute `repetitions` times, validate, delete.
    Measured { csr: &'a Arc<Csr> },
    /// Estimate counters analytically at the dataset's published size.
    Analytic,
}

/// One benchmark job request. Dataset specs come from the static
/// registry in `graphalytics_core::datasets`.
pub struct JobSpec {
    pub dataset: &'static DatasetSpec,
    pub algorithm: Algorithm,
    pub cluster: ClusterSpec,
    /// Base repetition index (drives the deterministic noise stream);
    /// repetition `k` of this job uses `run_index + k`.
    pub run_index: u64,
    /// How many times the execute phase repeats on the uploaded graph
    /// (`benchmark.repetitions`; clamped to at least 1).
    pub repetitions: u32,
    /// Execution shards for measured runs (`benchmark.shards`; clamped to
    /// at least 1). Values above 1 route the upload through
    /// [`Platform::upload_sharded`] and are rejected as `Unsupported` on
    /// platforms without a sharded run path.
    pub shards: u32,
    /// Optional mutation script (measured mode only): the driver applies
    /// these deterministic batches to a core [`MutableGraph`] delta log
    /// over the job's graph, and the job then runs — upload, execute,
    /// validate — on the materialized post-mutation snapshot, on any
    /// platform and at any shard count.
    pub mutations: Option<MutationScript>,
    /// Optional wall-clock deadline for the whole job. The driver arms
    /// it on its [`CancelToken`](graphalytics_core::fault::CancelToken)
    /// before the first phase; the first checkpoint past the deadline
    /// aborts the run with [`JobStatus::TimedOut`].
    pub timeout_secs: Option<f64>,
}

impl JobSpec {
    /// A single-repetition, single-shard spec starting at noise index 0.
    pub fn new(dataset: &'static DatasetSpec, algorithm: Algorithm, cluster: ClusterSpec) -> Self {
        JobSpec {
            dataset,
            algorithm,
            cluster,
            run_index: 0,
            repetitions: 1,
            shards: 1,
            mutations: None,
            timeout_secs: None,
        }
    }

    /// Builder-style repetition count.
    pub fn with_repetitions(mut self, repetitions: u32) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Builder-style shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style mutation script.
    pub fn with_mutations(mut self, script: MutationScript) -> Self {
        self.mutations = Some(script);
        self
    }

    /// Builder-style job deadline.
    pub fn with_timeout_secs(mut self, timeout_secs: f64) -> Self {
        self.timeout_secs = Some(timeout_secs);
        self
    }
}

/// A deterministic stream of mutation batches a measured job replays
/// into a delta log over its graph before uploading. The batches derive
/// entirely from (base graph, script), so the same spec replays
/// identically across pool widths and sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationScript {
    /// How many batches to generate and apply, in order.
    pub batches: u32,
    /// Edge insertions per batch.
    pub insertions: usize,
    /// Edge deletions per batch.
    pub deletions: usize,
    /// Seed of the batch stream; batch `i` draws its own sub-seed.
    pub seed: u64,
}

impl MutationScript {
    pub fn new(batches: u32, insertions: usize, deletions: usize, seed: u64) -> Self {
        MutationScript { batches, insertions, deletions, seed }
    }

    /// The concrete batches for a base graph, in application order.
    /// Every batch draws against the *base* CSR; overlaps across batches
    /// resolve through the delta log's set semantics (re-insert becomes a
    /// weight refresh, re-delete a no-op), so the stream stays valid for
    /// any batch count.
    pub fn batches_for(&self, csr: &Csr) -> Vec<MutationBatch> {
        (0..self.batches as u64)
            .map(|i| {
                let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
                random_batch(csr, self.insertions, self.deletions, seed)
            })
            .collect()
    }
}

/// Aggregate outcome of a job's mutation replay, reported on the
/// [`JobResult`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MutationSummary {
    /// Batches applied.
    pub batches: u32,
    /// Edges inserted / deleted / weight-updated across all batches.
    pub inserted: u64,
    pub deleted: u64,
    pub updated: u64,
    /// Delta-log compactions triggered while applying.
    pub compactions: u64,
    /// Total measured wall seconds of the apply phase (all batches).
    pub apply_secs: f64,
    /// Delta-log arcs and fill ratio left after the final batch.
    pub delta_arcs: u64,
    pub fill_ratio: f64,
}

/// Job outcome classification. Everything except `Completed` breaks the
/// SLA or produces no result at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    Completed,
    /// The platform does not implement the algorithm (rendered `NA`).
    Unsupported,
    /// Crash from memory exhaustion (rendered `F`).
    OutOfMemory,
    /// Makespan exceeded the one-hour SLA (rendered `F`).
    SlaViolation,
    /// Output did not match the reference implementation — or the
    /// reference/engine itself failed, in which case the benchmark run
    /// records the failure instead of dying.
    ValidationFailed(String),
    /// The run observed cooperative cancellation at a checkpoint and
    /// aborted cleanly (rendered `F`).
    Cancelled,
    /// The run's armed deadline passed before completion (rendered `F`).
    TimedOut,
    /// The fault plane injected a fault that terminated the run. The
    /// service retries `transient` faults with bounded backoff; permanent
    /// ones are terminal.
    Faulted { transient: bool, message: String },
}

impl JobStatus {
    /// True when the job produced a valid, in-SLA result.
    pub fn is_success(&self) -> bool {
        *self == JobStatus::Completed
    }

    /// True for injected-transient faults — the only status the service
    /// retries.
    pub fn is_transient_fault(&self) -> bool {
        matches!(self, JobStatus::Faulted { transient: true, .. })
    }

    /// The paper's figure annotation: `F` for failures, `NA` for
    /// unimplemented algorithms.
    pub fn figure_mark(&self) -> &'static str {
        match self {
            JobStatus::Completed => "",
            JobStatus::Unsupported => "NA",
            JobStatus::OutOfMemory
            | JobStatus::SlaViolation
            | JobStatus::ValidationFailed(_)
            | JobStatus::Cancelled
            | JobStatus::TimedOut
            | JobStatus::Faulted { .. } => "F",
        }
    }

    /// Structured status for a phase-level error: cancellation, deadline,
    /// and injected faults keep their identity; anything else degrades to
    /// the legacy classification.
    pub fn from_error(e: &graphalytics_core::Error) -> JobStatus {
        use graphalytics_core::Error;
        match e {
            Error::Cancelled => JobStatus::Cancelled,
            Error::DeadlineExceeded { .. } => JobStatus::TimedOut,
            Error::Injected { transient, .. } => {
                JobStatus::Faulted { transient: *transient, message: e.to_string() }
            }
            Error::OutOfMemory { .. } => JobStatus::OutOfMemory,
            Error::Unsupported { .. } => JobStatus::Unsupported,
            other => JobStatus::ValidationFailed(other.to_string()),
        }
    }
}

/// One repetition of the execute phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeasurement {
    /// The repetition's noise-stream index (`spec.run_index + k`).
    pub run_index: u64,
    /// Simulated processing seconds (`T_proc`) for this repetition.
    pub processing_secs: f64,
    /// Simulated makespan for this repetition (upload + `T_proc` +
    /// offload).
    pub makespan_secs: f64,
    /// Wall-clock of the real execution (measured mode only).
    pub measured_wall_secs: Option<f64>,
}

/// The result of one job (all repetitions aggregated; per-repetition
/// detail in [`JobResult::runs`]).
#[derive(Debug, Clone)]
pub struct JobResult {
    pub platform: String,
    pub paper_analog: String,
    pub dataset: String,
    pub algorithm: Algorithm,
    pub machines: u32,
    pub threads: u32,
    /// Execution shards the job ran with (1 = monolithic).
    pub shards: u32,
    /// Fraction of arcs crossing shard boundaries (sharded measured runs
    /// only).
    pub cut_fraction: Option<f64>,
    pub status: JobStatus,
    /// Graph size the timing refers to (published for analytic runs,
    /// actual proxy size for measured runs).
    pub vertices: u64,
    pub edges: u64,
    /// Simulated upload seconds (startup + load).
    pub upload_secs: f64,
    /// Mean simulated processing seconds over all repetitions. EPS/EVPS
    /// derive from this — processing time only, never upload (§2.3).
    pub processing_secs: f64,
    /// Fastest / slowest repetition (simulated `T_proc`).
    pub processing_min_secs: f64,
    pub processing_max_secs: f64,
    /// Simulated makespan: upload + mean processing + offload.
    pub makespan_secs: f64,
    /// Mean wall-clock of the real executions (measured mode only).
    pub measured_wall_secs: Option<f64>,
    /// Measured wall-clock of the real upload phase (measured mode only):
    /// the engine building its preprocessed representation, once.
    pub measured_upload_secs: Option<f64>,
    /// Per-repetition measurements, in repetition order.
    pub runs: Vec<RunMeasurement>,
    pub counters: WorkCounters,
    pub archive: Option<PerformanceArchive>,
    /// Mutation-replay outcome (jobs with a [`MutationScript`] only).
    pub mutation: Option<MutationSummary>,
}

impl JobResult {
    /// Edges per second (paper metric, from mean `T_proc`).
    pub fn eps(&self) -> f64 {
        crate::metrics::eps(self.edges, self.processing_secs)
    }

    /// Edges and vertices per second (paper metric, from mean `T_proc`).
    pub fn evps(&self) -> f64 {
        crate::metrics::evps(self.vertices, self.edges, self.processing_secs)
    }

    /// Upload-phase throughput (edges per measured upload second);
    /// measured mode only. Reported separately from EPS/EVPS so load and
    /// process costs are never conflated.
    pub fn measured_upload_eps(&self) -> Option<f64> {
        self.measured_upload_secs.map(|s| crate::metrics::eps(self.edges, s))
    }

    /// Number of executed repetitions.
    pub fn repetitions(&self) -> u32 {
        self.runs.len() as u32
    }

    /// Coefficient of variation of the simulated per-repetition
    /// processing times (the Table 11 metric).
    pub fn processing_cv(&self) -> f64 {
        let samples: Vec<f64> = self.runs.iter().map(|r| r.processing_secs).collect();
        crate::metrics::coefficient_of_variation(&samples)
    }
}

/// Validation references as resident data: one reference output per
/// (graph, request), reused by every job validated on that graph — the
/// way Graphalytics ships reference outputs with each dataset instead of
/// recomputing them per run.
///
/// The key is the graph's identity (`Arc::as_ptr`) plus the resolved
/// [`Request`]. Each entry holds a [`Weak`] to its graph, which keeps the
/// allocation's address from being reused while the entry exists, so a
/// pointer match against a live `Arc` is that very graph. Invalidation is
/// therefore by construction: a mutation batch yields a new snapshot
/// `Arc` (a new key), and a graph nobody holds can never be looked up
/// again; its entry is dropped at the next insert. A job that holds an
/// older snapshot still validates against that snapshot's reference.
/// Reference-side errors are never cached.
#[derive(Default)]
pub struct ReferenceCache {
    entries: Mutex<Vec<ReferenceEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One resident reference: its graph (held weakly), the resolved request
/// and the output.
type ReferenceEntry = (Weak<Csr>, Request, Arc<AlgorithmOutput>);

/// Counter snapshot of a [`ReferenceCache`].
#[derive(Debug, Clone, Copy)]
pub struct ReferenceStats {
    /// Lookups answered by a resident reference.
    pub hits: u64,
    /// Lookups that ran the reference implementation.
    pub misses: u64,
    /// Resident entries (an entry whose graph died goes at the next
    /// insert).
    pub entries: u64,
    /// Bytes of the resident reference outputs.
    pub resident_bytes: u64,
}

impl ReferenceCache {
    fn lock(&self) -> MutexGuard<'_, Vec<ReferenceEntry>> {
        // Every update (a `retain`, a `push`) leaves the list valid, so
        // recovering a poisoned lock is safe.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The reference output of `algorithm` with `params` on `graph`: the
    /// resident one if an earlier lookup on this graph resolved to the
    /// same request, otherwise computed (outside the lock) and kept. An
    /// input the reference rejects is an `Err` and is not counted.
    pub fn get(
        &self,
        graph: &Arc<Csr>,
        algorithm: Algorithm,
        params: &AlgorithmParams,
    ) -> graphalytics_core::Result<Arc<AlgorithmOutput>> {
        let request = Request::resolve(graph, algorithm, params)?;
        let find = |entries: &[ReferenceEntry]| {
            entries
                .iter()
                .find(|(g, r, _)| g.as_ptr() == Arc::as_ptr(graph) && *r == request)
                .map(|(_, _, output)| Arc::clone(output))
        };
        if let Some(resident) = find(&self.lock()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(resident);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let output = Arc::new(run_reference(graph, algorithm, params)?);
        let mut entries = self.lock();
        entries.retain(|(g, ..)| g.strong_count() > 0);
        // A concurrent miss on the same key may have inserted first.
        if let Some(resident) = find(&entries) {
            return Ok(resident);
        }
        entries.push((Arc::downgrade(graph), request, Arc::clone(&output)));
        Ok(output)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReferenceStats {
        let entries = self.lock();
        ReferenceStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.len() as u64,
            resident_bytes: entries.iter().map(|(_, _, output)| output.resident_bytes()).sum(),
        }
    }
}

/// The job driver.
pub struct Driver {
    /// Validate measured outputs against the reference implementation.
    pub validate: bool,
    /// Apply the deterministic variability noise to simulated times.
    pub noise: bool,
    /// Base seed for the noise stream.
    pub seed: u64,
    /// The execution runtime measured runs execute on. Owned by whoever
    /// owns the driver (one per benchmark run in the [`Runner`],
    /// one per daemon in the service); the default is the process-wide
    /// shared pool, so ad-hoc drivers never spawn private thread sets.
    ///
    /// [`Runner`]: crate::runner::Runner
    pub pool: Arc<WorkerPool>,
    /// The validation references measured jobs compare against. Owned
    /// like `pool`: one per benchmark run in the [`Runner`] (so each
    /// (dataset, algorithm) reference is computed once, not once per
    /// platform), one per daemon in the service; the default is a cache
    /// private to this driver.
    ///
    /// [`Runner`]: crate::runner::Runner
    pub references: Arc<ReferenceCache>,
    /// Granula-monitor gate: when enabled (the default), measured runs
    /// trace per-superstep spans into the archive and a background
    /// sampler attaches resource samples ([`MonitorConfig::disabled`]
    /// restores the pre-monitor behaviour). Strictly data-plane passive:
    /// outputs are bit-identical either way.
    pub monitor: MonitorConfig,
    /// Cooperative cancellation handle for jobs this driver runs. The
    /// owner (e.g. the service's `DELETE /jobs/:id`) cancels it; running
    /// kernels observe it at the next superstep boundary. Also carries
    /// any per-job deadline from [`JobSpec::timeout_secs`].
    pub cancel: CancelToken,
    /// Injection schedule for this driver's jobs (empty by default —
    /// the fault plane is a thread-local no-op then). The service derives
    /// one per (job, attempt) from its configured
    /// [`FaultPlan`](graphalytics_core::fault::FaultPlan).
    pub faults: FaultScript,
}

impl Default for Driver {
    fn default() -> Self {
        Driver {
            validate: true,
            noise: true,
            seed: 0xB5ED,
            pool: WorkerPool::shared(),
            references: Arc::new(ReferenceCache::default()),
            monitor: MonitorConfig::default(),
            cancel: CancelToken::new(),
            faults: FaultScript::empty(),
        }
    }
}

/// What a mutation replay hands to the execute phase: the aggregate
/// summary and the measured `Mutate`/`Materialize` phases for the
/// archive. The snapshot itself is the uploaded graph.
struct MutationReplay {
    summary: MutationSummary,
    phases: Vec<PhaseRecord>,
}

/// Measured-mode extras for `execute_repetitions`: the timed upload
/// phase and any replayed mutation script.
#[derive(Default)]
struct MeasuredPhases {
    upload_secs: Option<f64>,
    replay: Option<MutationReplay>,
}

/// Everything admission resolves before any phase runs.
struct Admission {
    cluster: ClusterSpec,
    vertices: u64,
    edges: u64,
    swap_slowdown: f64,
    cut_fraction: f64,
}

impl Driver {
    /// Arms the job deadline (if any) and installs the thread-local
    /// fault/cancellation scope for one job's lifecycle. Kernels observe
    /// the token and injection schedule at their checkpoints; dropping
    /// the guard restores any outer scope.
    fn fault_scope(&self, spec: &JobSpec) -> fault::FaultGuard {
        if let Some(timeout) = spec.timeout_secs {
            self.cancel.arm_deadline(std::time::Duration::from_secs_f64(timeout.max(0.0)));
        }
        fault::install(self.cancel.clone(), self.faults.clone())
    }

    /// Runs one job through the full lifecycle. Measured mode performs
    /// upload (timed) → execute×N → validate → delete; use
    /// [`Driver::run_uploaded`] directly to share one upload across
    /// several jobs (the [`Runner`](crate::runner::Runner) shares per
    /// (platform, dataset)).
    pub fn run(&self, platform: &dyn Platform, spec: &JobSpec, mode: RunMode<'_>) -> JobResult {
        let _scope = self.fault_scope(spec);
        match mode {
            RunMode::Analytic => self.run_analytic(platform, spec),
            RunMode::Measured { csr } => {
                let mut result = self.blank_result(platform, spec);
                // A mutation script replays into one delta log; the job
                // then answers for its snapshot, from admission on.
                let (csr, replay) = match spec.mutations {
                    Some(script) => match self.replay_mutations(csr, &script) {
                        Ok((snapshot, replay)) => (snapshot, Some(replay)),
                        Err(e) => {
                            result.status = JobStatus::from_error(&e);
                            return result;
                        }
                    },
                    None => (csr.clone(), None),
                };
                if let Some(admission) = self.admit(platform, spec, Some(&csr), &mut result) {
                    if let Err(e) = fault::checkpoint(FaultSite::Upload) {
                        result.status = JobStatus::from_error(&e);
                        return result;
                    }
                    let upload_start = Instant::now();
                    match graphalytics_engines::upload_with_shards(
                        platform,
                        csr,
                        spec.shards,
                        self.seed,
                        &self.pool,
                    ) {
                        Ok(loaded) => {
                            let upload_secs = upload_start.elapsed().as_secs_f64();
                            result = self.execute_repetitions(
                                platform,
                                loaded.as_ref(),
                                spec,
                                admission,
                                result,
                                MeasuredPhases { upload_secs: Some(upload_secs), replay },
                            );
                            platform.delete(loaded);
                        }
                        Err(e) => {
                            result.status = if e.is_fault_control() {
                                JobStatus::from_error(&e)
                            } else {
                                JobStatus::ValidationFailed(format!("upload failed: {e}"))
                            };
                        }
                    }
                }
                result
            }
        }
    }

    /// Runs the execute×N / validate phases of one measured job on a
    /// graph some caller already uploaded to `platform` (upload-once,
    /// execute-many across algorithms and repetitions). Pass the measured
    /// upload wall time so it is reported on every job that shares it.
    pub fn run_uploaded(
        &self,
        platform: &dyn Platform,
        loaded: &dyn LoadedGraph,
        spec: &JobSpec,
        measured_upload_secs: Option<f64>,
    ) -> JobResult {
        let _scope = self.fault_scope(spec);
        let mut result = self.blank_result(platform, spec);
        let csr = loaded.csr();
        match self.admit_sized(
            platform,
            spec,
            csr.num_vertices() as u64,
            csr.num_edges() as u64,
            &mut result,
        ) {
            Some(admission) => self.execute_repetitions(
                platform,
                loaded,
                spec,
                admission,
                result,
                MeasuredPhases { upload_secs: measured_upload_secs, ..MeasuredPhases::default() },
            ),
            None => result,
        }
    }

    /// Replays a mutation script into one core delta log over `csr` (the
    /// daemon's default compaction policy) and materializes the
    /// post-mutation snapshot the job then uploads. Each apply is a
    /// measured `Mutate` phase, the materialization a `Materialize`
    /// phase. Any apply-side failure comes back as the job's failure.
    fn replay_mutations(
        &self,
        csr: &Arc<Csr>,
        script: &MutationScript,
    ) -> Result<(Arc<Csr>, MutationReplay), graphalytics_core::Error> {
        let batches = script.batches_for(csr);
        let mut log = MutableGraph::new(csr.clone());
        let mut phases: Vec<PhaseRecord> = Vec::new();
        let mut apply_secs = 0.0;
        for batch in &batches {
            let start = Instant::now();
            log.apply(batch, &self.pool).map_err(|e| stage_error("mutation apply failed", e))?;
            let secs = start.elapsed().as_secs_f64();
            apply_secs += secs;
            phases.push(PhaseRecord { name: "Mutate", secs });
        }
        let start = Instant::now();
        let snapshot = log
            .materialize(&self.pool)
            .map_err(|e| stage_error("mutation materialize failed", e))?;
        phases.push(PhaseRecord { name: "Materialize", secs: start.elapsed().as_secs_f64() });
        let stats = log.stats();
        let summary = MutationSummary {
            batches: batches.len() as u32,
            inserted: stats.inserted_edges,
            deleted: stats.deleted_edges,
            updated: stats.updated_edges,
            compactions: stats.compactions,
            apply_secs,
            delta_arcs: log.delta_arcs(),
            fill_ratio: log.fill_ratio(),
        };
        Ok((Arc::new(snapshot), MutationReplay { summary, phases }))
    }

    /// Admission without execution: returns the rejection row
    /// (Unsupported / OutOfMemory) for a measured job that would not be
    /// admitted, or `None` when the job may run. The
    /// [`Runner`](crate::runner::Runner) uses this to skip the upload
    /// phase entirely for (platform, dataset) groups whose every job is
    /// rejected.
    pub(crate) fn preflight(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
        csr: &Csr,
    ) -> Option<JobResult> {
        let mut result = self.blank_result(platform, spec);
        match self.admit_sized(
            platform,
            spec,
            csr.num_vertices() as u64,
            csr.num_edges() as u64,
            &mut result,
        ) {
            Some(_) => None,
            None => Some(result),
        }
    }

    /// A result row for a measured job whose upload phase failed: the
    /// graph sizes are recorded, nothing executed.
    pub(crate) fn upload_failed_result(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
        csr: &Csr,
        message: String,
    ) -> JobResult {
        let mut result = self.blank_result(platform, spec);
        result.vertices = csr.num_vertices() as u64;
        result.edges = csr.num_edges() as u64;
        result.status = JobStatus::ValidationFailed(message);
        result
    }

    /// One analytic job: counters estimated at the published size, one
    /// simulated measurement per repetition.
    fn run_analytic(&self, platform: &dyn Platform, spec: &JobSpec) -> JobResult {
        let mut result = self.blank_result(platform, spec);
        let Some(admission) = self.admit(platform, spec, None, &mut result) else {
            return result;
        };
        let desc = JobDescription { dataset: spec.dataset, algorithm: spec.algorithm };
        let counters = (platform.profile().estimate)(
            admission.vertices,
            admission.edges,
            &spec.dataset.traits_,
            spec.dataset.directed,
            spec.algorithm,
            &desc.params_analytic(),
        );
        result.counters = counters;
        let archiver = Archiver::new(platform.name(), job_name(spec));
        self.finish_with_cost_model(platform, spec, admission, result, archiver, &[])
    }

    /// The execute×N + validate phases, shared by `run` and
    /// `run_uploaded`.
    fn execute_repetitions(
        &self,
        platform: &dyn Platform,
        loaded: &dyn LoadedGraph,
        spec: &JobSpec,
        admission: Admission,
        mut result: JobResult,
        measured: MeasuredPhases,
    ) -> JobResult {
        let MeasuredPhases { upload_secs: measured_upload_secs, replay } = measured;
        let csr = loaded.csr();
        if let Some(layout) = loaded.shard_layout() {
            result.shards = layout.shards;
            result.cut_fraction = Some(layout.cut_fraction);
        }
        let desc = JobDescription { dataset: spec.dataset, algorithm: spec.algorithm };
        let params = desc.params_for(csr);
        let mut archiver = Archiver::new(platform.name(), job_name(spec));
        if let Some(upload) = measured_upload_secs {
            result.measured_upload_secs = Some(upload);
            archiver.record_measured(
                "UploadGraph",
                upload,
                &[("edges", &csr.num_edges().to_string())],
            );
        }
        if let Some(replay) = &replay {
            result.mutation = Some(replay.summary);
            for phase in &replay.phases {
                archiver.record_measured(
                    phase.name,
                    phase.secs,
                    &[("batches", &replay.summary.batches.to_string())],
                );
            }
        }

        // The reference output belongs to the uploaded graph — after a
        // mutation script, the materialized snapshot (a fresh `Arc`, so a
        // fresh key). A reference-side failure is recorded as a
        // validation failure instead of panicking the benchmark mid-run.
        let reference = if self.validate {
            match self.references.get(csr, spec.algorithm, &params) {
                Ok(reference) => Some(reference),
                Err(e) => {
                    result.status =
                        JobStatus::ValidationFailed(format!("reference implementation: {e}"));
                    return result;
                }
            }
        } else {
            None
        };

        // The Granula monitor rides along while repetitions execute: a
        // background sampler polls /proc/self + pool utilization, and the
        // samples land under a `Monitor` operation in the archive.
        let sampler = self.monitor.enabled.then(|| {
            let pool = Arc::clone(&self.pool);
            pool.enable_telemetry();
            Sampler::start(
                self.monitor.sample_interval,
                Some(Box::new(move || {
                    let u = pool.utilization();
                    vec![
                        ("pool_busy_fraction".to_string(), format!("{:.6}", u.busy_fraction())),
                        ("pool_busy_secs".to_string(), format!("{:.6}", u.busy_secs)),
                        ("pool_dispatch_wakeups".to_string(), u.dispatch_wakeups.to_string()),
                    ]
                })),
            )
        });

        let repetitions = spec.repetitions.max(1);
        let mut walls: Vec<f64> = Vec::with_capacity(repetitions as usize);
        for rep in 0..repetitions as u64 {
            // Even engines whose kernels converge in one superstep hit a
            // boundary here, so cancellation/deadline is observed at
            // least once per repetition.
            if let Err(e) = fault::checkpoint(FaultSite::Repetition) {
                result.status = JobStatus::from_error(&e);
                return result;
            }
            let mut ctx = RunContext::with_run_index(&self.pool, spec.run_index + rep);
            ctx.set_cancel(self.cancel.clone());
            ctx.set_tracing(self.monitor.enabled);
            archiver.begin("ExecuteReal");
            let execution = platform.run(loaded, spec.algorithm, &params, &mut ctx);
            let supersteps = execution
                .as_ref()
                .map(|exec| exec.counters.supersteps)
                .unwrap_or(0)
                .to_string();
            let mut spans = Some(ctx.take_spans());
            for phase in ctx.take_phases() {
                let start = (archiver.elapsed_secs() - phase.secs).max(0.0);
                let mut op = OperationRecord {
                    name: phase.name.to_string(),
                    start_secs: start,
                    duration_secs: phase.secs,
                    simulated: false,
                    infos: vec![
                        ("repetition".to_string(), rep.to_string()),
                        ("supersteps".to_string(), supersteps.clone()),
                    ],
                    children: Vec::new(),
                };
                // The engine's superstep spans nest under the kernel
                // phase; the remaining phases (if any) stay leaves.
                if phase.name == "ProcessGraph" {
                    let mut cursor = start;
                    for span in spans.take().unwrap_or_default() {
                        let secs = span.secs;
                        op.children.push(span_to_op(span, cursor));
                        cursor += secs;
                    }
                }
                archiver.record_op(op);
            }
            archiver.end();
            match execution {
                Ok(exec) => {
                    if rep == 0 {
                        if let Some(reference) = &reference {
                            match graphalytics_core::validation::validate(reference, &exec.output)
                            {
                                Ok(report) if report.is_valid() => {}
                                Ok(report) => {
                                    result.status = JobStatus::ValidationFailed(format!(
                                        "{} mismatches",
                                        report.mismatches
                                    ));
                                    return result;
                                }
                                Err(e) => {
                                    result.status = JobStatus::ValidationFailed(e.to_string());
                                    return result;
                                }
                            }
                        }
                        result.counters = exec.counters;
                    }
                    walls.push(exec.wall_seconds);
                }
                Err(e) => {
                    result.status = JobStatus::from_error(&e);
                    return result;
                }
            }
        }
        result.measured_wall_secs =
            Some(walls.iter().sum::<f64>() / walls.len().max(1) as f64);
        if let Some(sampler) = sampler {
            let duration = sampler.elapsed_secs();
            archiver.record_op(monitor_op(sampler.stop(), duration));
        }
        self.finish_with_cost_model(platform, spec, admission, result, archiver, &walls)
    }

    /// Counters → simulated per-repetition times through the shared cost
    /// model, aggregation, archive records, SLA verdict.
    fn finish_with_cost_model(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
        admission: Admission,
        mut result: JobResult,
        mut archiver: Archiver,
        walls: &[f64],
    ) -> JobResult {
        let profile = platform.profile();
        let Admission { cluster, vertices: v, edges: e, swap_slowdown, cut_fraction } = admission;
        let breakdown = processing_time(&profile.cost, &result.counters, &cluster, cut_fraction);
        let m = cluster.machines;
        let cv = if m > 1 { profile.cv_distributed } else { profile.cv_single };
        let upload = profile.startup_secs + profile.load_secs_per_edge * e as f64 / m as f64;
        let offload = v as f64 * 5.0e-9;

        let repetitions = spec.repetitions.max(1) as u64;
        let mut runs = Vec::with_capacity(repetitions as usize);
        for rep in 0..repetitions {
            let run_index = spec.run_index + rep;
            let noise = if self.noise {
                noise_factor(cv, self.seed ^ job_seed(&result), run_index)
            } else {
                1.0
            };
            let tproc = breakdown.total() * swap_slowdown * noise;
            runs.push(RunMeasurement {
                run_index,
                processing_secs: tproc,
                makespan_secs: upload + tproc + offload,
                measured_wall_secs: walls.get(rep as usize).copied(),
            });
        }
        let mean = runs.iter().map(|r| r.processing_secs).sum::<f64>() / runs.len() as f64;
        result.upload_secs = upload;
        result.processing_secs = mean;
        result.processing_min_secs =
            runs.iter().map(|r| r.processing_secs).fold(f64::INFINITY, f64::min);
        result.processing_max_secs =
            runs.iter().map(|r| r.processing_secs).fold(0.0, f64::max);
        result.makespan_secs = upload + mean + offload;

        archiver.record_simulated("Startup", profile.startup_secs, &[]);
        archiver.record_simulated(
            "LoadGraph",
            upload - profile.startup_secs,
            &[("edges", &e.to_string())],
        );
        let counters = &result.counters;
        for run in &runs {
            archiver.record_simulated(
                "ProcessGraph",
                run.processing_secs,
                &[
                    ("run_index", &run.run_index.to_string()),
                    ("supersteps", &counters.supersteps.to_string()),
                    ("messages", &counters.messages.to_string()),
                    ("compute_secs", &format!("{:.3e}", breakdown.compute_secs)),
                    ("network_secs", &format!("{:.3e}", breakdown.network_secs)),
                    ("barrier_secs", &format!("{:.3e}", breakdown.barrier_secs)),
                ],
            );
        }
        archiver.record_simulated("Offload", offload, &[]);
        archiver.record_simulated("DeleteGraph", 0.0, &[]);
        result.runs = runs;
        result.archive = Some(archiver.finish());

        if result.makespan_secs > SLA_MAKESPAN_SECS {
            result.status = JobStatus::SlaViolation;
        }
        result
    }

    /// An empty result shell for `spec` (sizes default to the published
    /// ones; admission overwrites for measured runs).
    fn blank_result(&self, platform: &dyn Platform, spec: &JobSpec) -> JobResult {
        let profile = platform.profile();
        JobResult {
            platform: platform.name().to_string(),
            paper_analog: profile.paper_analog.to_string(),
            dataset: spec.dataset.id.to_string(),
            algorithm: spec.algorithm,
            machines: spec.cluster.machines,
            threads: spec.cluster.threads_per_machine,
            shards: spec.shards.max(1),
            cut_fraction: None,
            status: JobStatus::Completed,
            vertices: spec.dataset.vertices,
            edges: spec.dataset.edges,
            upload_secs: 0.0,
            processing_secs: 0.0,
            processing_min_secs: 0.0,
            processing_max_secs: 0.0,
            makespan_secs: 0.0,
            measured_wall_secs: None,
            measured_upload_secs: None,
            runs: Vec::new(),
            counters: WorkCounters::new(),
            archive: None,
            mutation: None,
        }
    }

    /// Admission for `spec`, sized from `csr` when measured.
    fn admit(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
        csr: Option<&Arc<Csr>>,
        result: &mut JobResult,
    ) -> Option<Admission> {
        let (v, e) = match csr {
            Some(csr) => (csr.num_vertices() as u64, csr.num_edges() as u64),
            None => (spec.dataset.vertices, spec.dataset.edges),
        };
        self.admit_sized(platform, spec, v, e, result)
    }

    /// Admission: algorithm support, deployment mode, memory. `None`
    /// means the job was rejected (status already set on `result`).
    fn admit_sized(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
        v: u64,
        e: u64,
        result: &mut JobResult,
    ) -> Option<Admission> {
        let profile = platform.profile().clone();
        let mut cluster = spec.cluster;
        cluster.network = match profile.network {
            NetworkKind::Ethernet1G => NetworkSpec::ethernet_1g(),
            NetworkKind::InfinibandFdr => NetworkSpec::infiniband_fdr(),
        };
        result.machines = cluster.machines;
        result.threads = cluster.threads_per_machine;
        result.vertices = v;
        result.edges = e;

        if !platform.supports(spec.algorithm)
            || (cluster.is_distributed() && !profile.supports_distributed)
            || (spec.shards > 1 && !platform.supports_sharded())
        {
            result.status = JobStatus::Unsupported;
            return None;
        }

        let traits_ = spec.dataset.traits_;
        let directed = spec.dataset.directed;
        let arcs = if directed { e } else { 2 * e };
        let mean_degree = arcs as f64 / v.max(1) as f64;
        let sum_deg2 =
            graphalytics_engines::estimate::estimate_sum_deg2(v, arcs as f64, traits_.degree_skew);

        // Partitioning characteristics drive replication and cut fraction.
        let m = cluster.machines;
        let replication = if m > 1 && profile.partition == PartitionStrategy::GreedyVertexCut {
            estimate_replication(m, mean_degree, traits_.degree_skew)
        } else {
            1.0
        };
        let cut_fraction = if m <= 1 {
            0.0
        } else {
            match profile.partition {
                PartitionStrategy::HashEdgeCut => 1.0 - 1.0 / m as f64,
                PartitionStrategy::RangeEdgeCut => 0.9 * (1.0 - 1.0 / m as f64),
                PartitionStrategy::GreedyVertexCut => 1.0 - 1.0 / replication.max(1.0),
            }
        };

        // Memory admission (the stress-test mechanism).
        let footprint = profile.memory.footprint_per_machine(v, e, traits_.degree_skew, m, replication)
            + (profile.peak_extra_bytes(spec.algorithm, arcs, sum_deg2) / m as f64) as u64;
        let swap_slowdown = match profile.memory.check(footprint, cluster.machine.memory_bytes) {
            MemoryOutcome::Fits { .. } => 1.0,
            MemoryOutcome::Swapping { slowdown, .. } => slowdown,
            MemoryOutcome::OutOfMemory { .. } => {
                result.status = JobStatus::OutOfMemory;
                return None;
            }
        };
        Some(Admission { cluster, vertices: v, edges: e, swap_slowdown, cut_fraction })
    }
}

/// Wraps a stage failure in its stage prefix — except fault-plane errors
/// (cancel/deadline/injection), which keep their identity so
/// [`JobStatus::from_error`] classifies them structurally.
fn stage_error(stage: &str, e: graphalytics_core::Error) -> graphalytics_core::Error {
    if e.is_fault_control() {
        e
    } else {
        graphalytics_core::Error::Other(format!("{stage}: {e}"))
    }
}

fn job_name(spec: &JobSpec) -> String {
    format!("{}@{}", spec.algorithm, spec.dataset.id)
}

/// Converts one engine trace span (and its subtree) into an archive
/// operation. Top-level siblings are laid out sequentially by the caller;
/// nested children (per-shard spans) ran concurrently, so they inherit
/// their parent's start offset.
fn span_to_op(span: SpanRecord, start_secs: f64) -> OperationRecord {
    OperationRecord {
        name: span.name,
        start_secs,
        duration_secs: span.secs,
        simulated: false,
        infos: span.infos,
        children: span.children.into_iter().map(|c| span_to_op(c, start_secs)).collect(),
    }
}

/// The monitor's resource samples as an archive subtree: one zero-width
/// `ResourceSample` child per poll, offset on the sampler's clock (which
/// starts within microseconds of the archiver's).
fn monitor_op(samples: Vec<ResourceSample>, duration_secs: f64) -> OperationRecord {
    let children = samples
        .into_iter()
        .map(|s| {
            let mut infos = Vec::new();
            if let Some(rss) = s.usage.rss_bytes {
                infos.push(("rss_bytes".to_string(), rss.to_string()));
            }
            if let Some(t) = s.usage.utime_secs {
                infos.push(("utime_secs".to_string(), format!("{t:.2}")));
            }
            if let Some(t) = s.usage.stime_secs {
                infos.push(("stime_secs".to_string(), format!("{t:.2}")));
            }
            infos.extend(s.extra);
            OperationRecord {
                name: "ResourceSample".to_string(),
                start_secs: s.elapsed_secs,
                duration_secs: 0.0,
                simulated: false,
                infos,
                children: Vec::new(),
            }
        })
        .collect::<Vec<_>>();
    OperationRecord {
        name: "Monitor".to_string(),
        start_secs: 0.0,
        duration_secs,
        simulated: false,
        infos: vec![("samples".to_string(), children.len().to_string())],
        children,
    }
}

/// Stable per-job seed component so noise streams differ across jobs but
/// are reproducible.
fn job_seed(r: &JobResult) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in r
        .platform
        .bytes()
        .chain(r.dataset.bytes())
        .chain(r.algorithm.acronym().bytes())
        .chain([r.machines as u8, r.threads as u8])
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::datasets::dataset;
    use graphalytics_core::error::Result;
    use graphalytics_engines::{platform_by_name, Execution};

    fn spec(ds: &'static str, alg: Algorithm, machines: u32) -> JobSpec {
        JobSpec {
            dataset: dataset(ds).unwrap(),
            algorithm: alg,
            cluster: if machines <= 1 {
                ClusterSpec::single_machine()
            } else {
                ClusterSpec::das5(machines)
            },
            run_index: 0,
            repetitions: 1,
            shards: 1,
            mutations: None,
            timeout_secs: None,
        }
    }

    fn proxy_csr(ds: &'static str) -> Arc<Csr> {
        let spec = dataset(ds).unwrap();
        let graph = crate::proxy::materialize(spec, 1 << 14, 5);
        Arc::new(graph.to_csr())
    }

    #[test]
    fn analytic_run_produces_times() {
        let platform = platform_by_name("spmv").unwrap();
        let driver = Driver { noise: false, ..Driver::default() };
        let r = driver.run(platform.as_ref(), &spec("D300", Algorithm::Bfs, 1), RunMode::Analytic);
        assert!(r.status.is_success(), "{:?}", r.status);
        assert!(r.processing_secs > 0.0);
        assert!(r.makespan_secs > r.processing_secs);
        assert!(r.eps() > 0.0);
        assert!(r.archive.is_some());
        assert_eq!(r.repetitions(), 1);
        assert_eq!(r.runs[0].processing_secs, r.processing_secs);
    }

    #[test]
    fn measured_run_validates_output() {
        let platform = platform_by_name("native").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        let r = driver.run(
            platform.as_ref(),
            &spec("G22", Algorithm::Bfs, 1),
            RunMode::Measured { csr: &csr },
        );
        assert!(r.status.is_success(), "{:?}", r.status);
        assert!(r.measured_wall_secs.is_some());
        assert!(r.measured_upload_secs.is_some(), "upload phase is timed");
        assert!(r.measured_upload_eps().unwrap() > 0.0);
        assert!(r.counters.edges_scanned > 0);
        assert_eq!(r.vertices, csr.num_vertices() as u64);
        // The archive carries the measured phases.
        let archive = r.archive.as_ref().unwrap();
        assert!(archive.duration_of("UploadGraph").is_some());
        assert!(archive.duration_of("ProcessGraph").is_some());
    }

    #[test]
    fn mutation_script_replays_and_validates_on_post_mutation_graph() {
        let platform = platform_by_name("pushpull").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        let script = MutationScript::new(2, 24, 24, 0xFEED);
        for alg in [Algorithm::Wcc, Algorithm::PageRank, Algorithm::Bfs] {
            let job = spec("G22", alg, 1).with_mutations(script);
            let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
            assert!(r.status.is_success(), "{alg:?}: {:?}", r.status);
            let summary = r.mutation.expect("mutation summary recorded");
            assert_eq!(summary.batches, 2);
            assert!(summary.inserted + summary.updated > 0, "{alg:?}: batches mutated nothing");
            assert!(summary.deleted > 0, "{alg:?}: no deletions landed");
            let archive = r.archive.as_ref().unwrap();
            assert!(archive.duration_of("Mutate").is_some(), "{alg:?}: Mutate phase archived");
        }
    }

    #[test]
    fn mutation_script_runs_on_any_platform_and_shard_count() {
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        // Batches large enough to cross the default fill ratio.
        let script = MutationScript::new(3, 400, 400, 7);
        // The summary reports exactly what one delta log over the same
        // batches counts.
        let mut log = MutableGraph::new(csr.clone());
        for batch in script.batches_for(&csr) {
            log.apply(&batch, &driver.pool).unwrap();
        }
        let stats = log.stats();
        assert!(stats.compactions > 0, "the script must compact at least once");
        for (name, shards) in [("gas", 1), ("pregel", 2)] {
            let platform = platform_by_name(name).unwrap();
            let job = spec("G22", Algorithm::Wcc, 1).with_shards(shards).with_mutations(script);
            let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
            assert_eq!(r.status, JobStatus::Completed, "{name} x{shards}");
            assert_eq!(r.shards, shards);
            let summary = r.mutation.expect("mutation summary recorded");
            assert_eq!(summary.batches, 3);
            assert_eq!(
                (summary.inserted, summary.deleted, summary.updated, summary.compactions),
                (stats.inserted_edges, stats.deleted_edges, stats.updated_edges, stats.compactions),
                "{name} x{shards}"
            );
            let archive = r.archive.as_ref().unwrap();
            assert!(archive.duration_of("Materialize").is_some(), "{name}: Materialize archived");
        }
    }

    #[test]
    fn repetitions_share_one_upload_and_vary_by_noise() {
        let platform = platform_by_name("native").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        let job = spec("G22", Algorithm::Bfs, 1).with_repetitions(5);
        let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(r.repetitions(), 5);
        // Distinct noise samples per repetition...
        let mut samples: Vec<f64> = r.runs.iter().map(|m| m.processing_secs).collect();
        samples.dedup();
        assert_eq!(samples.len(), 5, "noise stream must differ per repetition");
        assert!(r.processing_min_secs < r.processing_max_secs);
        assert!(r.processing_min_secs <= r.processing_secs);
        assert!(r.processing_secs <= r.processing_max_secs);
        // ...and a deterministic mean for a fixed seed.
        let again = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert_eq!(r.processing_secs, again.processing_secs);
        assert_eq!(r.runs.len(), again.runs.len());
        for (a, b) in r.runs.iter().zip(&again.runs) {
            assert_eq!(a.processing_secs, b.processing_secs);
        }
        // Every repetition was actually executed (wall times recorded).
        assert!(r.runs.iter().all(|m| m.measured_wall_secs.is_some()));
    }

    #[test]
    fn analytic_repetitions_have_distinct_samples_and_deterministic_mean() {
        let platform = platform_by_name("pregel").unwrap();
        let driver = Driver::default();
        let job = spec("G22", Algorithm::PageRank, 1).with_repetitions(10);
        let a = driver.run(platform.as_ref(), &job, RunMode::Analytic);
        let b = driver.run(platform.as_ref(), &job, RunMode::Analytic);
        assert_eq!(a.processing_secs, b.processing_secs, "deterministic mean");
        assert!(a.processing_cv() > 0.0, "repetitions sample distinct noise");
        let unique: std::collections::BTreeSet<u64> =
            a.runs.iter().map(|r| r.processing_secs.to_bits()).collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn reference_failure_is_validation_failed_not_panic() {
        // A platform that claims SSSP works on unweighted graphs produces
        // output the reference cannot check (the reference errors on the
        // missing weights); the driver must record ValidationFailed.
        struct LyingGraph(Arc<Csr>);
        impl LoadedGraph for LyingGraph {
            fn csr(&self) -> &Arc<Csr> {
                &self.0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        struct LyingPlatform;
        impl Platform for LyingPlatform {
            fn name(&self) -> &'static str {
                "lying"
            }
            fn profile(&self) -> &'static graphalytics_engines::PerfProfile {
                &graphalytics_engines::PerfProfile::NATIVE
            }
            fn upload(
                &self,
                csr: Arc<Csr>,
                _pool: &WorkerPool,
            ) -> Result<Box<dyn LoadedGraph>> {
                Ok(Box::new(LyingGraph(csr)))
            }
            fn execute(
                &self,
                _graph: &dyn LoadedGraph,
                _request: graphalytics_core::algorithms::Request,
                _pool: &WorkerPool,
                _counters: &mut WorkCounters,
            ) -> Result<graphalytics_core::output::OutputValues> {
                unreachable!("`run` skips the input rules")
            }
            // Skips the scaffold's input rules on purpose.
            fn run(
                &self,
                graph: &dyn LoadedGraph,
                algorithm: Algorithm,
                _params: &AlgorithmParams,
                _ctx: &mut RunContext<'_>,
            ) -> Result<Execution> {
                let csr = graph.csr();
                let values = graphalytics_core::output::OutputValues::F64(vec![
                    0.0;
                    csr.num_vertices()
                ]);
                Ok(Execution {
                    output: AlgorithmOutput::from_dense(algorithm, csr, values),
                    counters: WorkCounters::new(),
                    wall_seconds: 0.0,
                })
            }
        }
        let platform = LyingPlatform;
        let csr = proxy_csr("G22"); // unweighted: the reference rejects SSSP
        let driver = Driver::default();
        let r = driver.run(
            &platform,
            &spec("G22", Algorithm::Sssp, 1),
            RunMode::Measured { csr: &csr },
        );
        match &r.status {
            JobStatus::ValidationFailed(message) => {
                assert!(message.contains("reference implementation"), "{message}");
            }
            other => panic!("expected ValidationFailed, got {other:?}"),
        }
    }

    #[test]
    fn references_are_keyed_by_graph_identity_and_request() {
        let cache = ReferenceCache::default();
        let csr = proxy_csr("G22");
        let root = csr.vertex_ids()[0];
        let params = AlgorithmParams::with_source(root);
        let first = cache.get(&csr, Algorithm::Bfs, &params).unwrap();
        let again = cache.get(&csr, Algorithm::Bfs, &params).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same graph, same request: resident");
        assert_eq!(*first, run_reference(&csr, Algorithm::Bfs, &params).unwrap());
        // Another request on the same graph, and an equal graph in
        // another allocation, are other keys.
        let other_root = AlgorithmParams::with_source(csr.vertex_ids()[1]);
        cache.get(&csr, Algorithm::Bfs, &other_root).unwrap();
        let twin = Arc::new((*csr).clone());
        let on_twin = cache.get(&twin, Algorithm::Bfs, &params).unwrap();
        assert!(!Arc::ptr_eq(&first, &on_twin));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
        assert_eq!(stats.resident_bytes, 3 * first.resident_bytes());
        // Inputs the reference rejects are errors, neither counted nor kept.
        assert!(cache.get(&csr, Algorithm::Sssp, &params).is_err());
        assert_eq!(cache.stats().misses, 3);
        // A graph nobody holds leaves at the next insert.
        drop(twin);
        cache.get(&csr, Algorithm::Wcc, &params).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (4, 3));
    }

    #[test]
    fn run_uploaded_matches_full_lifecycle() {
        let platform = platform_by_name("spmv").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        let job = spec("G22", Algorithm::PageRank, 1).with_repetitions(3);
        let full = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        let loaded = platform.upload(csr.clone(), &driver.pool).unwrap();
        let shared = driver.run_uploaded(platform.as_ref(), loaded.as_ref(), &job, Some(0.5));
        platform.delete(loaded);
        assert_eq!(full.status, shared.status);
        assert_eq!(full.processing_secs, shared.processing_secs);
        assert_eq!(full.counters.edges_scanned, shared.counters.edges_scanned);
        assert_eq!(shared.measured_upload_secs, Some(0.5));
    }

    #[test]
    fn lcc_on_pushpull_is_unsupported() {
        let platform = platform_by_name("pushpull").unwrap();
        let driver = Driver::default();
        let r = driver.run(platform.as_ref(), &spec("R4", Algorithm::Lcc, 1), RunMode::Analytic);
        assert_eq!(r.status, JobStatus::Unsupported);
        assert_eq!(r.status.figure_mark(), "NA");
    }

    #[test]
    fn native_is_single_node_only() {
        let platform = platform_by_name("native").unwrap();
        let driver = Driver::default();
        let r = driver.run(platform.as_ref(), &spec("D300", Algorithm::Bfs, 4), RunMode::Analytic);
        assert_eq!(r.status, JobStatus::Unsupported);
    }

    #[test]
    fn oversized_dataset_goes_oom() {
        // R5 (1.81B edges) cannot fit PowerGraph on one machine (Table 10).
        let platform = platform_by_name("gas").unwrap();
        let driver = Driver::default();
        let r = driver.run(platform.as_ref(), &spec("R5", Algorithm::Bfs, 1), RunMode::Analytic);
        assert_eq!(r.status, JobStatus::OutOfMemory);
        assert_eq!(r.status.figure_mark(), "F");
    }

    #[test]
    fn sharded_measured_run_reports_layout_and_gates_support() {
        let platform = platform_by_name("pregel").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        let base = driver.run(
            platform.as_ref(),
            &spec("G22", Algorithm::Bfs, 1),
            RunMode::Measured { csr: &csr },
        );
        let job = spec("G22", Algorithm::Bfs, 1).with_shards(4);
        let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(r.shards, 4);
        assert!(r.cut_fraction.unwrap() > 0.0);
        assert!(r.counters.inter_shard_messages > 0);
        assert_eq!(
            r.counters.messages, base.counters.messages,
            "sharded pregel preserves single-shard message counts"
        );
        // Platforms without a sharded run path reject sharded jobs.
        let spmv = platform_by_name("spmv").unwrap();
        let rejected = driver.run(spmv.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert_eq!(rejected.status, JobStatus::Unsupported);
        // A single-shard job on those platforms still runs.
        let ok = driver.run(
            spmv.as_ref(),
            &spec("G22", Algorithm::Bfs, 1),
            RunMode::Measured { csr: &csr },
        );
        assert!(ok.status.is_success(), "{:?}", ok.status);
        assert_eq!(ok.shards, 1);
        assert_eq!(ok.cut_fraction, None);
    }

    #[test]
    fn monitored_run_archives_spans_and_samples() {
        let platform = platform_by_name("pregel").unwrap();
        let csr = proxy_csr("G22");
        let driver = Driver::default();
        assert!(driver.monitor.enabled, "monitoring defaults on");
        let job = spec("G22", Algorithm::Bfs, 1).with_shards(2);
        let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert!(r.status.is_success(), "{:?}", r.status);
        let archive = r.archive.as_ref().unwrap();

        // Job → ExecuteReal → ProcessGraph → Superstep → Shard.
        let execute = archive.root.find("ExecuteReal").expect("ExecuteReal archived");
        let process = execute.find("ProcessGraph").expect("ProcessGraph under ExecuteReal");
        assert!(!process.children.is_empty(), "supersteps nested under ProcessGraph");
        for (i, step) in process.children.iter().enumerate() {
            assert_eq!(step.name, "Superstep");
            let info = |k: &str| step.infos.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            assert_eq!(info("index").as_deref(), Some(i.to_string().as_str()));
            assert!(info("messages").is_some());
            assert!(info("edges_scanned").is_some());
            assert!(info("queue_depth").is_some());
            assert_eq!(step.children.iter().filter(|c| c.name == "Shard").count(), 2);
        }

        // The monitor attached at least the start + stop resource samples.
        let monitor = archive.root.find("Monitor").expect("Monitor op archived");
        assert!(monitor.children.len() >= 2, "{}", monitor.children.len());
        assert!(monitor.children.iter().all(|s| s.name == "ResourceSample"));
        let sample = &monitor.children[0];
        assert!(sample.infos.iter().any(|(k, _)| k == "pool_busy_fraction"));

        // Disabling the monitor drops the telemetry but never the result.
        let quiet = Driver { monitor: MonitorConfig::disabled(), ..Driver::default() };
        let q = quiet.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert!(q.status.is_success(), "{:?}", q.status);
        assert_eq!(q.processing_secs, r.processing_secs, "telemetry is data-plane passive");
        assert_eq!(q.counters, r.counters);
        let quiet_archive = q.archive.as_ref().unwrap();
        assert!(quiet_archive.root.find("Monitor").is_none());
        let quiet_process =
            quiet_archive.root.find("ExecuteReal").unwrap().find("ProcessGraph").unwrap();
        assert!(quiet_process.children.is_empty(), "no spans when disabled");
    }

    #[test]
    fn noise_is_reproducible() {
        let platform = platform_by_name("pregel").unwrap();
        let driver = Driver::default();
        let a =
            driver.run(platform.as_ref(), &spec("G22", Algorithm::Bfs, 1), RunMode::Analytic);
        let b =
            driver.run(platform.as_ref(), &spec("G22", Algorithm::Bfs, 1), RunMode::Analytic);
        assert_eq!(a.processing_secs, b.processing_secs);
        let c = driver.run(
            platform.as_ref(),
            &JobSpec { run_index: 1, ..spec("G22", Algorithm::Bfs, 1) },
            RunMode::Analytic,
        );
        assert_ne!(a.processing_secs, c.processing_secs);
    }
}
