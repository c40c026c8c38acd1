//! The `Platform` abstraction: what the harness drives.
//!
//! A platform is an engine (programming model + runtime) that can execute
//! the Graphalytics workload. The benchmark process is a phased
//! *lifecycle*, not a single call (paper §3; the Graphalytics driver API
//! codifies the same phases):
//!
//! 1. **upload** — [`Platform::upload`] hands the engine the generic
//!    [`Csr`] once; the engine builds its own preprocessed representation
//!    (a [`LoadedGraph`]): partitioned adjacency, cached degree/transpose
//!    views, pre-built edge datasets. Built once, reused across runs *and*
//!    algorithms.
//! 2. **execute × N** — [`Platform::run`] executes one algorithm on the
//!    uploaded graph. The harness repeats this `benchmark.repetitions`
//!    times; only this phase counts towards the paper's `T_proc`
//!    (EPS/EVPS are derived from processing time, never from upload).
//! 3. **delete** — [`Platform::delete`] releases the engine-owned
//!    representation.
//!
//! The execute phase is written once, in [`execute_phase`] (what the
//! provided [`Platform::run`] calls): the `T_proc` clock, the cancel
//! check, the `supports` and input rules, span tracing, the fault
//! boundary, the `ProcessGraph` phase record and the [`Execution`]. An
//! engine supplies only [`Platform::execute`] — its algorithm dispatch.
//!
//! [`RunContext`] carries the shared execution runtime (the
//! [`WorkerPool`]), the repetition index, and phase-timing hooks whose
//! records the harness folds into the Granula archive; the returned
//! [`Execution`] carries the output (validated by the harness against the
//! reference implementation), measured wall time, and the
//! [`WorkCounters`] the run accumulated — which the harness feeds through
//! the engine's [`PerfProfile`] to obtain simulated cluster time.

use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::{Error, Result};
use graphalytics_core::fault;
use graphalytics_core::output::{AlgorithmOutput, OutputValues};
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Algorithm, Csr};

use graphalytics_cluster::WorkCounters;

use crate::profile::PerfProfile;

/// The result of one real execution (one repetition of the execute phase).
#[derive(Debug, Clone)]
pub struct Execution {
    pub output: AlgorithmOutput,
    pub counters: WorkCounters,
    /// Wall-clock seconds of the real local execution — the processing
    /// phase only; upload time is measured separately by the caller.
    pub wall_seconds: f64,
}

/// An engine-owned, preprocessed graph representation produced by
/// [`Platform::upload`].
///
/// Immutable once uploaded: a job on a mutated graph uploads the
/// materialized post-mutation snapshot like any other graph. Engines
/// downcast ([`downcast_graph`]) to their own concrete type inside
/// [`Platform::execute`]; handing a graph uploaded by one engine
/// to another is an error, exactly like pointing a Giraph job at a
/// GraphMat heap.
pub trait LoadedGraph: Send + Sync {
    /// The generic CSR this representation was built from: the very
    /// allocation handed to [`Platform::upload`], so its identity names
    /// the graph the engine answers for.
    fn csr(&self) -> &Arc<Csr>;

    /// Downcast hook for the owning engine.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Estimated resident bytes of the engine-owned representation
    /// (defaults to the CSR footprint; engines with extra derived state
    /// add it on top).
    fn resident_bytes(&self) -> u64 {
        self.csr().resident_bytes()
    }

    /// Partition summary when this representation came through
    /// [`Platform::upload_sharded`] with more than one shard; `None` for
    /// monolithic uploads.
    fn shard_layout(&self) -> Option<crate::sharded::ShardLayout> {
        None
    }
}

/// One timed phase recorded by an engine during [`Platform::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    pub name: &'static str,
    pub secs: f64,
}

/// Per-run context: the execution runtime, the repetition index (drives
/// deterministic noise streams downstream), and phase-timer hooks whose
/// records the harness archives.
pub struct RunContext<'a> {
    /// The shared execution runtime. Owned by whoever owns the benchmark
    /// run (one per run in the harness, one per daemon in the service);
    /// every upload, monolithic or sharded, runs on it alone and spawns
    /// nothing ([`crate::sharded::Lanes`]). Outputs are bit-identical
    /// for every pool width.
    pub pool: &'a WorkerPool,
    /// Repetition index of this execution within the job (0-based).
    pub run_index: u64,
    phases: Vec<PhaseRecord>,
    /// Granula-monitor gate: when true, engines collect per-superstep
    /// [`SpanRecord`]s during [`Platform::run`]. On by default; the
    /// harness turns it off when its `MonitorConfig` is disabled.
    tracing: bool,
    spans: Vec<crate::trace::SpanRecord>,
    /// Cooperative cancellation handle for this run. Defaults to a fresh
    /// (never-cancelled) token; the harness driver threads its job-level
    /// token through so the service can abort running jobs at the next
    /// superstep boundary.
    cancel: graphalytics_core::fault::CancelToken,
}

impl<'a> RunContext<'a> {
    /// A context for the first (or only) repetition.
    pub fn new(pool: &'a WorkerPool) -> Self {
        Self::with_run_index(pool, 0)
    }

    /// A context for repetition `run_index`.
    pub fn with_run_index(pool: &'a WorkerPool, run_index: u64) -> Self {
        RunContext {
            pool,
            run_index,
            phases: Vec::new(),
            tracing: true,
            spans: Vec::new(),
            cancel: graphalytics_core::fault::CancelToken::new(),
        }
    }

    /// Attaches the job-level cancellation token to this context.
    pub fn set_cancel(&mut self, token: graphalytics_core::fault::CancelToken) {
        self.cancel = token;
    }

    /// Structured cancellation/deadline verdict for this run.
    pub fn check_cancelled(&self) -> Result<()> {
        self.cancel.check()
    }

    /// Enables or disables per-superstep span tracing for runs through
    /// this context.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Whether span tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs this thread's span collector for one engine execution
    /// (a no-op collector when tracing is disabled). Pair with
    /// [`RunContext::absorb_trace`] after the algorithm dispatch; see
    /// [`crate::trace`].
    ///
    /// Deliberately *not* a closure-taking `trace_scope` method: routing
    /// the dispatch (which holds `&mut WorkCounters`) through a generic
    /// method on `&mut self` measurably deoptimized the tight sequential
    /// kernels — pushpull WCC lost ~25% throughput even with tracing
    /// disabled. Two plain calls around the dispatch keep the optimizer
    /// out of trouble.
    pub fn begin_trace(&mut self) {
        crate::trace::install(self.tracing);
    }

    /// Uninstalls the span collector and keeps everything the kernels
    /// recorded since [`RunContext::begin_trace`]. Runs on error paths
    /// too, so a failed repetition never leaks a live collector.
    pub fn absorb_trace(&mut self) {
        self.spans.extend(crate::trace::drain());
    }

    /// Spans recorded so far, in recording order.
    pub fn spans(&self) -> &[crate::trace::SpanRecord] {
        &self.spans
    }

    /// Drains the recorded spans (the harness folds them into the
    /// Granula archive after each repetition).
    pub fn take_spans(&mut self) -> Vec<crate::trace::SpanRecord> {
        std::mem::take(&mut self.spans)
    }

    /// Records an already-measured phase duration.
    pub fn record_phase(&mut self, name: &'static str, secs: f64) {
        self.phases.push(PhaseRecord { name, secs });
    }

    /// Phases recorded so far, in recording order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Drains the recorded phases (the harness moves them into the
    /// Granula archive after each repetition).
    pub fn take_phases(&mut self) -> Vec<PhaseRecord> {
        std::mem::take(&mut self.phases)
    }
}

/// A graph-analysis platform engine, driven through the benchmark-run
/// lifecycle: [`upload`](Platform::upload) once, [`run`](Platform::run)
/// `N` times (across repetitions and algorithms), then
/// [`delete`](Platform::delete).
pub trait Platform: Send + Sync {
    /// Short model name: `pregel`, `dataflow`, `gas`, `spmv`, `native`,
    /// `pushpull`.
    fn name(&self) -> &'static str;

    /// The engine's analytic model: counter estimator, cost/memory
    /// constants, overheads.
    fn profile(&self) -> &'static PerfProfile;

    /// Whether the engine implements `algorithm`. Defaults to yes; the
    /// push–pull engine declines LCC like PGX.D in the paper.
    fn supports(&self, _algorithm: Algorithm) -> bool {
        true
    }

    /// The upload phase: builds this engine's preprocessed representation
    /// of `csr` on `pool`. Called once per (platform, dataset); the
    /// result is reused by every subsequent [`run`](Platform::run).
    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>>;

    /// Whether the engine has a sharded execution path.
    /// Engines that do guarantee N-shard output bit-identical to
    /// single-shard for every supported algorithm.
    fn supports_sharded(&self) -> bool {
        false
    }

    /// The sharded upload variant: partitions `csr` per `plan` and
    /// builds a representation whose runs execute the same kernels on
    /// per-shard lanes of the caller's pool ([`crate::sharded::Lanes`]),
    /// counting the traffic that crosses the cut. The default
    /// accepts `plan.shards <= 1` (a plain [`upload`](Platform::upload))
    /// and rejects more for engines without a sharded path.
    fn upload_sharded(
        &self,
        csr: Arc<Csr>,
        plan: &crate::sharded::ShardPlan,
        pool: &WorkerPool,
    ) -> Result<Box<dyn LoadedGraph>> {
        if plan.shards <= 1 {
            return self.upload(csr, pool);
        }
        Err(Error::InvalidParameters(format!(
            "platform {} has no sharded execution path",
            self.name()
        )))
    }

    /// The engine's algorithm dispatch: runs the already checked
    /// `request` on `graph`, on `pool`, into `counters`. Everything
    /// around it — timing, cancellation, input rules, tracing, the fault
    /// boundary — is [`execute_phase`]'s.
    ///
    /// `graph` must come from this platform's own
    /// [`upload`](Platform::upload): the engine [`downcast_graph`]s it
    /// and errors on a foreign graph. Outputs are bit-identical for
    /// every pool width and every repetition.
    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        counters: &mut WorkCounters,
    ) -> Result<OutputValues>;

    /// One execution of `algorithm` on a previously uploaded graph —
    /// the [`execute_phase`] scaffold around [`Platform::execute`].
    fn run(
        &self,
        graph: &dyn LoadedGraph,
        algorithm: Algorithm,
        params: &AlgorithmParams,
        ctx: &mut RunContext<'_>,
    ) -> Result<Execution> {
        execute_phase(self, graph, algorithm, params, ctx)
    }

    /// The delete phase: releases the engine-owned representation. The
    /// default simply drops it; engines with external state can override.
    fn delete(&self, graph: Box<dyn LoadedGraph>) {
        drop(graph);
    }
}

/// The execute phase, once for every engine: starts the `T_proc` clock,
/// honours cancellation, rejects algorithms the platform does not
/// support, applies the reference's input rules ([`Request::resolve`]),
/// runs [`Platform::execute`] inside span tracing and the
/// [`fault::catch_abort`] boundary, and records the one `ProcessGraph`
/// phase whose seconds the returned [`Execution`] carries.
pub fn execute_phase<P: Platform + ?Sized>(
    platform: &P,
    graph: &dyn LoadedGraph,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    ctx: &mut RunContext<'_>,
) -> Result<Execution> {
    let csr = graph.csr();
    let pool = ctx.pool;
    let start = Instant::now();
    let mut counters = WorkCounters::new();
    ctx.check_cancelled()?;
    if !platform.supports(algorithm) {
        return Err(unsupported(platform.name(), algorithm));
    }
    let request = Request::resolve(csr, algorithm, params)?;
    ctx.begin_trace();
    let values = fault::catch_abort(|| platform.execute(graph, request, pool, &mut counters));
    ctx.absorb_trace();
    let values = values?;
    let wall_seconds = start.elapsed().as_secs_f64();
    ctx.record_phase("ProcessGraph", wall_seconds);
    Ok(Execution {
        output: AlgorithmOutput::from_dense(algorithm, csr, values),
        counters,
        wall_seconds,
    })
}

/// Helper: the standard unsupported-algorithm error.
pub fn unsupported(platform: &str, algorithm: Algorithm) -> Error {
    Error::Unsupported { platform: platform.to_string(), algorithm: algorithm.to_string() }
}

/// Downcasts a [`LoadedGraph`] to the engine's concrete representation,
/// rejecting graphs uploaded by a different platform.
pub fn downcast_graph<'a, T: 'static>(
    platform: &str,
    graph: &'a dyn LoadedGraph,
) -> Result<&'a T> {
    graph.as_any().downcast_ref::<T>().ok_or_else(|| {
        Error::InvalidParameters(format!(
            "graph was not uploaded through platform {platform}"
        ))
    })
}

/// Convenience for one-shot callers (examples, micro-benchmarks): a full
/// upload → run → delete lifecycle for a single `(algorithm, params)`.
/// The returned [`Execution::wall_seconds`] covers the run phase only.
/// Benchmark code that repeats runs should drive the phases itself so the
/// upload is paid once.
pub fn run_once(
    platform: &dyn Platform,
    csr: &Arc<Csr>,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    pool: &WorkerPool,
) -> Result<Execution> {
    let loaded = platform.upload(csr.clone(), pool)?;
    let mut ctx = RunContext::new(pool);
    let result = platform.run(loaded.as_ref(), algorithm, params, &mut ctx);
    platform.delete(loaded);
    result
}

/// All six engines, in the paper's table order (community then industry):
/// Giraph-like, GraphX-like, PowerGraph-like, GraphMat-like, OpenG-like,
/// PGX.D-like.
pub fn all_platforms() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(crate::pregel::PregelEngine),
        Box::new(crate::dataflow::DataflowEngine),
        Box::new(crate::gas::GasEngine),
        Box::new(crate::spmv::SpmvEngine),
        Box::new(crate::native::NativeEngine),
        Box::new(crate::pushpull::PushPullEngine),
    ]
}

/// Looks an engine up by model name or by its paper analogue
/// (case-insensitive): `"pregel"` or `"giraph"`, `"spmv"` or `"graphmat"`.
pub fn platform_by_name(name: &str) -> Option<Box<dyn Platform>> {
    let lower = name.to_ascii_lowercase();
    all_platforms().into_iter().find(|p| {
        p.name() == lower || p.profile().paper_analog.to_ascii_lowercase() == lower
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::GraphBuilder;

    fn sample_csr() -> Arc<Csr> {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        Arc::new(b.build().unwrap().to_csr())
    }

    #[test]
    fn six_engines_registered() {
        let all = all_platforms();
        assert_eq!(all.len(), 6);
        let names: Vec<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["pregel", "dataflow", "gas", "spmv", "native", "pushpull"]);
    }

    #[test]
    fn lookup_by_both_names() {
        assert!(platform_by_name("pregel").is_some());
        assert!(platform_by_name("Giraph").is_some());
        assert!(platform_by_name("GraphMat").is_some());
        assert!(platform_by_name("PGX.D").is_some());
        assert!(platform_by_name("nope").is_none());
    }

    #[test]
    fn pushpull_declines_lcc_like_pgxd() {
        let p = platform_by_name("pgx.d").unwrap();
        assert!(!p.supports(Algorithm::Lcc));
        assert!(p.supports(Algorithm::Bfs));
        let g = platform_by_name("giraph").unwrap();
        assert!(g.supports(Algorithm::Lcc));
    }

    #[test]
    fn foreign_loaded_graph_is_rejected() {
        // A graph uploaded through one engine must not run on another.
        let csr = sample_csr();
        let pool = WorkerPool::inline();
        let spmv = platform_by_name("spmv").unwrap();
        let pregel = platform_by_name("pregel").unwrap();
        let loaded = spmv.upload(csr.clone(), &pool).unwrap();
        let mut ctx = RunContext::new(&pool);
        let err = pregel
            .run(loaded.as_ref(), Algorithm::Bfs, &AlgorithmParams::with_source(0), &mut ctx)
            .unwrap_err();
        assert!(err.to_string().contains("not uploaded"), "{err}");
        spmv.delete(loaded);
    }

    #[test]
    fn loaded_graph_exposes_csr_and_bytes() {
        let csr = sample_csr();
        let pool = WorkerPool::inline();
        for platform in all_platforms() {
            let loaded = platform.upload(csr.clone(), &pool).unwrap();
            assert_eq!(loaded.csr().num_vertices(), 4, "{}", platform.name());
            assert!(
                loaded.resident_bytes() >= csr.resident_bytes(),
                "{}: engine representation at least pins the CSR",
                platform.name()
            );
            platform.delete(loaded);
        }
    }

    #[test]
    fn sharded_upload_default_and_overrides() {
        let csr = sample_csr();
        let pool = WorkerPool::inline();
        let plan = crate::sharded::ShardPlan::new(2);
        for platform in all_platforms() {
            // shards <= 1 always works (falls back to the plain upload).
            let single = platform
                .upload_sharded(csr.clone(), &crate::sharded::ShardPlan::new(1), &pool)
                .unwrap();
            assert!(single.shard_layout().is_none(), "{}", platform.name());
            platform.delete(single);
            let result = platform.upload_sharded(csr.clone(), &plan, &pool);
            if platform.supports_sharded() {
                let loaded = result.unwrap();
                let layout = loaded.shard_layout().expect("sharded upload reports layout");
                assert_eq!(layout.shards, 2, "{}", platform.name());
                platform.delete(loaded);
            } else {
                assert!(result.is_err(), "{} must reject multi-shard uploads", platform.name());
            }
        }
        // Pregel and pushpull are the sharded engines.
        assert!(platform_by_name("pregel").unwrap().supports_sharded());
        assert!(platform_by_name("pushpull").unwrap().supports_sharded());
        assert!(!platform_by_name("spmv").unwrap().supports_sharded());
    }

    #[test]
    fn run_context_records_phases() {
        let pool = WorkerPool::inline();
        let mut ctx = RunContext::with_run_index(&pool, 3);
        assert_eq!(ctx.run_index, 3);
        ctx.record_phase("ProcessGraph", 0.25);
        ctx.record_phase("Offload", 0.5);
        let phases = ctx.take_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "ProcessGraph");
        assert_eq!(phases[1], PhaseRecord { name: "Offload", secs: 0.5 });
        assert!(ctx.phases().is_empty(), "take_phases drains");
    }

    #[test]
    fn run_collects_spans_when_tracing_enabled() {
        let csr = sample_csr();
        let pool = WorkerPool::inline();
        let platform = platform_by_name("pregel").unwrap();
        let loaded = platform.upload(csr, &pool).unwrap();
        let params = AlgorithmParams::with_source(0);

        let mut ctx = RunContext::new(&pool);
        assert!(ctx.tracing(), "tracing defaults on");
        platform.run(loaded.as_ref(), Algorithm::Bfs, &params, &mut ctx).unwrap();
        let spans = ctx.take_spans();
        assert!(!spans.is_empty(), "traced run records superstep spans");
        for span in &spans {
            assert_eq!(span.name, "Superstep");
            assert!(span.infos.iter().any(|(k, _)| k == "index"));
            assert!(span.infos.iter().any(|(k, _)| k == "active"));
            assert!(span.infos.iter().any(|(k, _)| k == "messages"));
        }

        let mut quiet = RunContext::new(&pool);
        quiet.set_tracing(false);
        platform.run(loaded.as_ref(), Algorithm::Bfs, &params, &mut quiet).unwrap();
        assert!(quiet.spans().is_empty(), "disabled tracing collects nothing");
        platform.delete(loaded);
    }

    #[test]
    fn run_once_matches_explicit_lifecycle() {
        let csr = sample_csr();
        let pool = WorkerPool::inline();
        let platform = platform_by_name("native").unwrap();
        let params = AlgorithmParams::with_source(0);
        let one_shot = run_once(platform.as_ref(), &csr, Algorithm::Bfs, &params, &pool).unwrap();
        let loaded = platform.upload(csr.clone(), &pool).unwrap();
        let mut ctx = RunContext::new(&pool);
        let explicit =
            platform.run(loaded.as_ref(), Algorithm::Bfs, &params, &mut ctx).unwrap();
        platform.delete(loaded);
        assert_eq!(one_shot.output, explicit.output);
    }
}
