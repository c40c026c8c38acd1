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
//! A measured job runs the graph it is handed. The driver has no mutation
//! path of its own: a mutated graph reaches it as the materialized
//! snapshot of a core `MutableGraph` delta log, like any other graph.
//!
//! Analytic jobs (paper-scale datasets) skip upload/delete and estimate
//! counters instead, but still produce one [`RunMeasurement`] per
//! repetition so mean/min/max and CV work identically in both modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use graphalytics_cluster::{Admission, ClusterSpec, PerfProfile, WorkCounters};
use graphalytics_core::algorithms::{run_reference, Request};
use graphalytics_core::datasets::DatasetSpec;
use graphalytics_core::fault::{self, CancelToken, FaultScript, FaultSite};
use graphalytics_core::output::AlgorithmOutput;
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Algorithm, Csr};
use graphalytics_engines::{LoadedGraph, Platform, RunContext, SpanRecord};
use graphalytics_granula::monitor::{ResourceSample, SAMPLE_INTERVAL};
use graphalytics_granula::{Archiver, OperationRecord, PerformanceArchive, Sampler};

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
    /// (`"repetitions"` on a service job; clamped to at least 1).
    pub repetitions: u32,
    /// Execution shards for measured runs (`"shards"` on a service job;
    /// clamped to at least 1). Values above 1 route the upload through
    /// [`Platform::upload_sharded`] and are rejected as `Unsupported` on
    /// platforms without a sharded run path.
    pub shards: u32,
    /// Optional wall-clock deadline for the whole job. The driver arms
    /// it on its [`CancelToken`] before the first phase; the first
    /// checkpoint past the deadline aborts the run with
    /// [`JobStatus::TimedOut`].
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

    /// Builder-style job deadline.
    pub fn with_timeout_secs(mut self, timeout_secs: f64) -> Self {
        self.timeout_secs = Some(timeout_secs);
        self
    }
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
    Faulted {
        transient: bool,
        message: String,
    },
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
    /// Apply the deterministic variability noise to simulated times.
    pub noise: bool,
    /// Base seed for the noise stream.
    pub seed: u64,
    /// The execution runtime measured runs execute on. The service
    /// daemon owns one per process and hands it to every job's driver;
    /// the default, which the experiment suite and ad-hoc drivers use, is
    /// the process-wide shared pool, so they never spawn private thread
    /// sets.
    pub pool: Arc<WorkerPool>,
    /// The validation references measured jobs compare against. The
    /// service daemon owns one per process (so each (graph, request)
    /// reference is computed once, not once per platform or job); the
    /// default, which the experiment suite and ad-hoc drivers use, is a
    /// cache private to this driver.
    pub references: Arc<ReferenceCache>,
    /// Granula-monitor gate: when on (the default), measured runs trace
    /// per-superstep spans into the archive and a background sampler
    /// attaches a resource sample every [`SAMPLE_INTERVAL`]; `false`
    /// restores the pre-monitor behaviour. Strictly data-plane passive:
    /// outputs are bit-identical either way.
    pub monitor: bool,
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
            noise: true,
            seed: 0xB5ED,
            pool: WorkerPool::shared(),
            references: Arc::new(ReferenceCache::default()),
            monitor: true,
            cancel: CancelToken::new(),
            faults: FaultScript::empty(),
        }
    }
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

    /// Runs one job through the full lifecycle: admission, then either
    /// measured upload (timed) → execute×N → validate → delete on `csr`,
    /// or analytic counter estimation at the published size. This is the
    /// harness's one entry point; every measured job uploads the graph it
    /// is handed (for a mutated graph, its materialized snapshot).
    pub fn run(&self, platform: &dyn Platform, spec: &JobSpec, mode: RunMode<'_>) -> JobResult {
        let _scope = self.fault_scope(spec);
        let (profile, mut result) = self.blank_result(platform, spec);
        match mode {
            // Counters estimated at the published size, one simulated
            // measurement per repetition.
            RunMode::Analytic => {
                let published = (spec.dataset.vertices, spec.dataset.edges);
                let Some(admission) = self.admit(platform, profile, spec, published, &mut result)
                else {
                    return result;
                };
                let desc = JobDescription { dataset: spec.dataset, algorithm: spec.algorithm };
                result.counters = (admission.profile.estimate)(
                    admission.vertices,
                    admission.edges,
                    &spec.dataset.traits_,
                    spec.dataset.directed,
                    spec.algorithm,
                    &desc.params_analytic(),
                );
                let archiver = Archiver::new(platform.name(), job_name(spec));
                self.finish_with_cost_model(spec, admission, result, archiver, &[])
            }
            RunMode::Measured { csr } => {
                let admitted = self.admit(platform, profile, spec, size(csr), &mut result);
                if let Some(admission) = admitted {
                    if let Err(e) = fault::checkpoint(FaultSite::Upload) {
                        result.status = JobStatus::from_error(&e);
                        return result;
                    }
                    let upload_start = Instant::now();
                    match graphalytics_engines::upload_with_shards(
                        platform,
                        csr.clone(),
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
                                upload_secs,
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

    /// The execute×N + validate phases of a measured job.
    fn execute_repetitions(
        &self,
        platform: &dyn Platform,
        loaded: &dyn LoadedGraph,
        spec: &JobSpec,
        admission: Admission,
        mut result: JobResult,
        upload_secs: f64,
    ) -> JobResult {
        let csr = loaded.csr();
        if let Some(layout) = loaded.shard_layout() {
            result.shards = layout.shards;
            result.cut_fraction = Some(layout.cut_fraction);
        }
        let desc = JobDescription { dataset: spec.dataset, algorithm: spec.algorithm };
        let params = desc.params_for(csr);
        let mut archiver = Archiver::new(platform.name(), job_name(spec));
        result.measured_upload_secs = Some(upload_secs);
        archiver.record_measured(
            "UploadGraph",
            upload_secs,
            &[("edges", &csr.num_edges().to_string())],
        );

        // The reference output belongs to the uploaded graph — for a
        // mutated graph, its materialized snapshot (a fresh `Arc`, so a
        // fresh key). A reference-side failure is recorded as a
        // validation failure instead of panicking the benchmark mid-run.
        let reference = match self.references.get(csr, spec.algorithm, &params) {
            Ok(reference) => reference,
            Err(e) => {
                result.status =
                    JobStatus::ValidationFailed(format!("reference implementation: {e}"));
                return result;
            }
        };

        // The Granula monitor rides along while repetitions execute: a
        // background sampler polls /proc/self + pool utilization, and the
        // samples land under a `Monitor` operation in the archive.
        let sampler = self.monitor.then(|| {
            let pool = Arc::clone(&self.pool);
            pool.enable_telemetry();
            Sampler::start(
                SAMPLE_INTERVAL,
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
            let mut ctx = RunContext::new(&self.pool);
            ctx.set_cancel(self.cancel.clone());
            ctx.set_tracing(self.monitor);
            archiver.begin("ExecuteReal");
            let execution = platform.run(loaded, spec.algorithm, &params, &mut ctx);
            // A completed run is the measured `ProcessGraph` phase, with
            // the engine's superstep spans nested under it.
            if let Ok(exec) = &execution {
                let start = (archiver.elapsed_secs() - exec.wall_seconds).max(0.0);
                let mut cursor = start;
                let children = ctx
                    .take_spans()
                    .into_iter()
                    .map(|span| {
                        let op = span_to_op(span, cursor);
                        cursor += op.duration_secs;
                        op
                    })
                    .collect();
                archiver.record_op(OperationRecord {
                    name: "ProcessGraph".to_string(),
                    start_secs: start,
                    duration_secs: exec.wall_seconds,
                    simulated: false,
                    infos: vec![
                        ("repetition".to_string(), rep.to_string()),
                        ("supersteps".to_string(), exec.counters.supersteps.to_string()),
                    ],
                    children,
                });
            }
            archiver.end();
            match execution {
                Ok(exec) => {
                    if rep == 0 {
                        match graphalytics_core::validation::validate(&reference, &exec.output) {
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
        result.measured_wall_secs = Some(walls.iter().sum::<f64>() / walls.len().max(1) as f64);
        if let Some(sampler) = sampler {
            let duration = sampler.elapsed_secs();
            archiver.record_op(monitor_op(sampler.stop(), duration));
        }
        self.finish_with_cost_model(spec, admission, result, archiver, &walls)
    }

    /// Counters → simulated per-repetition times through the model's
    /// pricing, aggregation, archive records, SLA verdict.
    fn finish_with_cost_model(
        &self,
        spec: &JobSpec,
        admission: Admission,
        mut result: JobResult,
        mut archiver: Archiver,
        walls: &[f64],
    ) -> JobResult {
        let noise_seed = self.noise.then(|| self.seed ^ job_seed(&result));
        let run_indices = spec.run_index..spec.run_index + spec.repetitions.max(1) as u64;
        let price = admission.price(&result.counters, noise_seed, run_indices.clone());
        let (upload, offload, breakdown) = (price.upload_secs, price.offload_secs, price.breakdown);
        let runs: Vec<RunMeasurement> = run_indices
            .zip(&price.processing_secs)
            .enumerate()
            .map(|(rep, (run_index, &tproc))| RunMeasurement {
                run_index,
                processing_secs: tproc,
                makespan_secs: upload + tproc + offload,
                measured_wall_secs: walls.get(rep).copied(),
            })
            .collect();
        let mean = runs.iter().map(|r| r.processing_secs).sum::<f64>() / runs.len() as f64;
        result.upload_secs = upload;
        result.processing_secs = mean;
        result.processing_min_secs =
            runs.iter().map(|r| r.processing_secs).fold(f64::INFINITY, f64::min);
        result.processing_max_secs = runs.iter().map(|r| r.processing_secs).fold(0.0, f64::max);
        result.makespan_secs = upload + mean + offload;

        let startup = admission.profile.startup_secs;
        archiver.record_simulated("Startup", startup, &[]);
        let edges = admission.edges.to_string();
        archiver.record_simulated("LoadGraph", upload - startup, &[("edges", &edges)]);
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

    /// The platform's profile, looked up once per job, and an empty result
    /// shell for `spec` (sizes default to the published ones; admission
    /// overwrites for measured runs). A platform the model has no profile
    /// for has no paper analogue.
    fn blank_result(
        &self,
        platform: &dyn Platform,
        spec: &JobSpec,
    ) -> (Option<&'static PerfProfile>, JobResult) {
        let profile = PerfProfile::of(platform.name());
        let result = JobResult {
            platform: platform.name().to_string(),
            paper_analog: profile.map_or("", |p| p.paper_analog).to_string(),
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
        };
        (profile, result)
    }

    /// Admission of `spec` on a graph of `(vertices, edges)`: a profile
    /// for the platform, algorithm and shard support (the lifecycle's
    /// checks), then the model's deployment and memory sizing
    /// ([`PerfProfile::admit`]). `None` means the job was rejected (status
    /// already set on `result`).
    fn admit(
        &self,
        platform: &dyn Platform,
        profile: Option<&'static PerfProfile>,
        spec: &JobSpec,
        (v, e): (u64, u64),
        result: &mut JobResult,
    ) -> Option<Admission> {
        (result.vertices, result.edges) = (v, e);
        let supported =
            platform.supports(spec.algorithm) && (spec.shards <= 1 || platform.supports_sharded());
        let admission = match profile {
            Some(profile) if supported => {
                profile.admit(spec.cluster, spec.algorithm, spec.dataset, (v, e))
            }
            _ => {
                result.status = JobStatus::Unsupported;
                return None;
            }
        };
        admission.map_err(|e| result.status = JobStatus::from_error(&e)).ok()
    }
}

/// A graph's `(vertices, edges)`, the size a measured job is admitted at.
fn size(csr: &Csr) -> (u64, u64) {
    (csr.num_vertices() as u64, csr.num_edges() as u64)
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
                "native"
            }
            fn upload(&self, csr: Arc<Csr>, _pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
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
                let values =
                    graphalytics_core::output::OutputValues::F64(vec![0.0; csr.num_vertices()]);
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
    fn platform_without_profile_is_unsupported_in_both_modes() {
        // The analytic model has no profile for this name: admission turns
        // the job away in either mode, never a panic.
        struct Unprofiled(Box<dyn Platform>);
        impl Platform for Unprofiled {
            fn name(&self) -> &'static str {
                "unprofiled"
            }
            fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
                self.0.upload(csr, pool)
            }
            fn execute(
                &self,
                graph: &dyn LoadedGraph,
                request: Request,
                pool: &WorkerPool,
                counters: &mut WorkCounters,
            ) -> Result<graphalytics_core::output::OutputValues> {
                self.0.execute(graph, request, pool, counters)
            }
        }
        let platform = Unprofiled(platform_by_name("native").unwrap());
        let driver = Driver::default();
        let job = spec("G22", Algorithm::Bfs, 1);
        let analytic = driver.run(&platform, &job, RunMode::Analytic);
        assert_eq!(analytic.status, JobStatus::Unsupported);
        assert!(analytic.archive.is_none());
        let csr = proxy_csr("G22");
        let measured = driver.run(&platform, &job, RunMode::Measured { csr: &csr });
        assert_eq!(measured.status, JobStatus::Unsupported);
        assert_eq!(measured.vertices, csr.num_vertices() as u64);
        assert!(measured.measured_upload_secs.is_none(), "rejected before upload");
        // Nor can a sharded upload be placed without a profile.
        let sharded = graphalytics_engines::upload_with_shards(&platform, csr, 2, 0, &driver.pool);
        assert!(sharded.is_err());
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
        assert!(driver.monitor, "monitoring defaults on");
        let job = spec("G22", Algorithm::Bfs, 1).with_shards(2);
        let r = driver.run(platform.as_ref(), &job, RunMode::Measured { csr: &csr });
        assert!(r.status.is_success(), "{:?}", r.status);
        let archive = r.archive.as_ref().unwrap();

        // Job → ExecuteReal → ProcessGraph → Superstep → Shard. Each
        // execution has exactly one ProcessGraph, timed by the run's own
        // clock (one repetition, so its seconds are the mean wall).
        let executions: Vec<_> =
            archive.root.children.iter().filter(|op| op.name == "ExecuteReal").collect();
        assert_eq!(executions.len(), 1, "one ExecuteReal per repetition");
        for execute in &executions {
            let names: Vec<_> = execute.children.iter().map(|op| op.name.as_str()).collect();
            assert_eq!(names, ["ProcessGraph"]);
        }
        let process = &executions[0].children[0];
        assert_eq!(Some(process.duration_secs), r.measured_wall_secs);
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
        let quiet = Driver { monitor: false, ..Driver::default() };
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
        let a = driver.run(platform.as_ref(), &spec("G22", Algorithm::Bfs, 1), RunMode::Analytic);
        let b = driver.run(platform.as_ref(), &spec("G22", Algorithm::Bfs, 1), RunMode::Analytic);
        assert_eq!(a.processing_secs, b.processing_secs);
        let c = driver.run(
            platform.as_ref(),
            &JobSpec { run_index: 1, ..spec("G22", Algorithm::Bfs, 1) },
            RunMode::Analytic,
        );
        assert_ne!(a.processing_secs, c.processing_secs);
    }
}
