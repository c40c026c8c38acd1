//! The daemon: TCP accept loop, worker pool, shared state.
//!
//! [`Service::start`] binds a `TcpListener` (port 0 gives an ephemeral
//! port), spawns the accept loop and a configurable pool of job workers,
//! and returns the running [`Service`] for address discovery and graceful
//! shutdown. The architecture mirrors GRAL's single-process, RAM-only
//! server: all state — cached graphs with their delta logs, and the job
//! table, which is also the results database — lives in one
//! [`ServiceState`] shared across threads.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::fault::{Backoff, CancelToken, FaultPlan, FaultScript};
use graphalytics_core::pool::WorkerPool;
use graphalytics_engines::platform_by_name;
use graphalytics_granula::MetricsRegistry;
use graphalytics_harness::{Driver, JobResult, JobSpec, JobStatus, ReferenceCache, RunMode};

use crate::api;
use crate::http::{Request, Response};
use crate::jobs::{JobMode, JobQueue, JobRequest, JobState};
use crate::store::{GraphStore, GraphStoreConfig};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 selects an ephemeral port.
    pub addr: String,
    /// Job worker threads (concurrent benchmark executions).
    pub workers: usize,
    pub store: GraphStoreConfig,
    /// Driver seed (noise streams and proxy generation).
    pub seed: u64,
    /// Width of the **single** execution pool all job workers share for
    /// real engine execution and proxy CSR builds (`0` = host default).
    /// Sharing one pool keeps `workers` concurrent jobs from each
    /// spawning their own thread set and oversubscribing the host; the
    /// pool serializes their parallel sections instead.
    pub pool_threads: u32,
    /// Maximum open (queued + running) jobs. A full queue rejects new
    /// submissions with a structured 429 rather than buffering without
    /// bound — multi-tenant backpressure instead of OOM-by-queue.
    pub queue_capacity: usize,
    /// Optional fault-injection plan applied to every executed job
    /// (chaos testing). `None` — the default — compiles the fault plane
    /// down to a no-op checkpoint per superstep.
    pub fault_plan: Option<FaultPlan>,
    /// Total execution attempts for a job that fails on an *injected
    /// transient* fault (first run + retries). `1` disables retries.
    pub retry_attempts: u32,
    /// Base delay of the jittered exponential backoff between retries.
    pub retry_base_millis: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            store: GraphStoreConfig::default(),
            seed: 0xB5ED,
            pool_threads: 0,
            queue_capacity: 256,
            fault_plan: None,
            retry_attempts: 3,
            retry_base_millis: 50,
        }
    }
}

/// Everything the API and the workers share.
pub struct ServiceState {
    /// The resident graphs, one entry per dataset: its generated CSR, or
    /// from the first `POST /graphs/:id/mutations` on, its delta log and
    /// cached snapshot. Measured jobs fetch their graph here.
    pub store: GraphStore,
    /// The job table: every job's request, state and result (with its
    /// Granula archive), kept once.
    pub queue: JobQueue,
    /// The daemon-wide execution runtime: one pool, shared by every job
    /// worker (and the store's CSR builds) for the process lifetime.
    pub pool: Arc<WorkerPool>,
    /// The daemon-wide validation references, handed to every job's
    /// driver: each (graph snapshot, request) reference is computed once
    /// and reused by every later job on that snapshot. Keyed by graph
    /// identity, so a mutation batch or a store eviction invalidates by
    /// construction (see [`ReferenceCache`]).
    pub references: Arc<ReferenceCache>,
    /// The Granula monitor's metrics registry: job-latency histograms and
    /// run counters, exported by `GET /metrics` (JSON or Prometheus).
    pub metrics: MetricsRegistry,
    pub seed: u64,
    /// Fault-injection plan for chaos runs; `None` keeps the plane off.
    fault_plan: Option<FaultPlan>,
    retry_attempts: u32,
    retry_base_millis: u64,
    started: Instant,
}

impl ServiceState {
    pub fn new(config: &ServiceConfig) -> Self {
        let width = if config.pool_threads == 0 {
            graphalytics_core::pool::default_threads()
        } else {
            config.pool_threads
        };
        let pool = Arc::new(WorkerPool::new(width));
        // The daemon's pool always reports live utilization through
        // GET /metrics; the clock sampling it needs is opt-in.
        pool.enable_telemetry();
        ServiceState {
            store: GraphStore::new(config.store, pool.clone()),
            queue: JobQueue::bounded(config.queue_capacity),
            pool,
            references: Arc::new(ReferenceCache::default()),
            metrics: MetricsRegistry::new(),
            seed: config.seed,
            fault_plan: config.fault_plan.clone(),
            retry_attempts: config.retry_attempts.max(1),
            retry_base_millis: config.retry_base_millis,
            started: Instant::now(),
        }
    }

    /// Seconds since the daemon started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Executes one validated job request through the harness driver's
    /// phased lifecycle (measured mode: upload → execute×repetitions →
    /// validate → delete, with the cached store graph). `Err` is a
    /// request-level failure (the driver never ran: for example a
    /// post-mutation snapshot that failed to build); benchmark verdicts
    /// (oom, unsupported, cancelled, timed-out, faulted, …) come back
    /// inside the `JobResult`. The `token` wires `DELETE /jobs/:id` into
    /// the run: cancelling it aborts the driver at the next superstep
    /// boundary. `attempt` seeds the fault plan so retries of a
    /// transient-faulted job draw a fresh (but still deterministic)
    /// injection script.
    pub fn execute(
        &self,
        id: u64,
        request: &JobRequest,
        token: &CancelToken,
        attempt: u32,
    ) -> Result<JobResult, String> {
        let dataset = graphalytics_core::datasets::dataset(&request.dataset)
            .ok_or_else(|| format!("unknown dataset {}", request.dataset))?;
        let platform = platform_by_name(&request.platform)
            .ok_or_else(|| format!("unknown platform {}", request.platform))?;
        let faults = self
            .fault_plan
            .as_ref()
            .map(|plan| plan.script_for(id, attempt))
            .unwrap_or_else(FaultScript::empty);
        let driver = Driver {
            seed: self.seed,
            pool: self.pool.clone(),
            references: self.references.clone(),
            cancel: token.clone(),
            faults,
            ..Driver::default()
        };
        let spec = JobSpec {
            dataset,
            algorithm: request.algorithm,
            cluster: ClusterSpec::single_machine(),
            run_index: 0,
            repetitions: request.repetitions.max(1),
            shards: request.shards.max(1),
            timeout_secs: request.timeout_millis.map(|ms| ms as f64 / 1000.0),
        };
        let result = match request.mode {
            JobMode::Analytic => driver.run(platform.as_ref(), &spec, RunMode::Analytic),
            JobMode::Measured => {
                // A mutated dataset serves its current graph: jobs answer
                // for the graph as mutated, and validation references
                // match it. A snapshot build runs under the job's fault
                // script, not its token: a cancel is the driver's to
                // observe.
                let csr = self
                    .store
                    .job_graph(dataset, driver.faults.clone())
                    .map_err(|e| format!("snapshot of {} failed: {e}", dataset.id))?;
                driver.run(platform.as_ref(), &spec, RunMode::Measured { csr: &csr })
            }
        };
        Ok(result)
    }
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct Service {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServiceState::new(&config));
        let stop = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        for _ in 0..config.workers.max(1) {
            let state = state.clone();
            threads.push(std::thread::spawn(move || worker_loop(&state)));
        }
        {
            let state = state.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || accept_loop(listener, &state, &stop)));
        }
        Ok(Service { addr, state, stop, threads })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Stops accepting connections, drains workers, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.queue.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn worker_loop(state: &ServiceState) {
    while let Some((id, request, token)) = state.queue.next_job() {
        let started = Instant::now();
        let backoff = Backoff::new(
            Duration::from_millis(state.retry_base_millis),
            Duration::from_secs(2),
            state.seed ^ id,
        );
        let mut attempt: u32 = 0;
        let outcome = loop {
            // A panicking engine must cost one job, not a pool thread:
            // an unwinding worker would leave the job `running` forever
            // and silently shrink the pool until the daemon stops
            // executing. Panics are terminal — never retried.
            // Failures without a driver result are counted here: each
            // ends the job, so each counts once.
            let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.execute(id, &request, &token, attempt)
            })) {
                Ok(Ok(result)) => Ok(result),
                Ok(Err(message)) => {
                    state.metrics.counter("jobs_unrunnable_total").inc();
                    Err(message)
                }
                Err(panic) => {
                    state.metrics.counter("jobs_panicked_total").inc();
                    Err(panic_message(&panic))
                }
            };
            match run {
                // Only *injected transient* faults are retried, with
                // jittered exponential backoff and a bounded attempt
                // budget; a cancelled token ends the job immediately.
                Ok(ref result)
                    if result.status.is_transient_fault()
                        && attempt + 1 < state.retry_attempts
                        && !token.is_cancelled() =>
                {
                    state.metrics.counter("jobs_retried_total").inc();
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                }
                other => break other,
            }
        };
        let wall = started.elapsed().as_secs_f64();
        state.metrics.histogram("job_seconds").observe_secs(wall);
        state.metrics.histogram(&format!("job_seconds_{}", request.platform)).observe_secs(wall);
        match outcome {
            Ok(result) => match result.status {
                JobStatus::Cancelled => {
                    state.metrics.counter("jobs_cancelled_running_total").inc();
                    state.queue.finish(id, JobState::Cancelled, Some(result));
                }
                JobStatus::TimedOut => {
                    state.metrics.counter("jobs_timed_out_total").inc();
                    state.queue.finish(id, JobState::TimedOut, Some(result));
                }
                JobStatus::Faulted { transient, ref message } => {
                    // Structured terminal failure: retries exhausted (or
                    // the fault was permanent). The record keeps the
                    // result so clients can see which injection fired.
                    state.metrics.counter("jobs_faulted_total").inc();
                    let class = if transient { "transient" } else { "permanent" };
                    let detail = format!("injected {class} fault: {message}");
                    state.queue.finish(id, JobState::Failed(detail), Some(result));
                }
                _ => {
                    // Completed and benchmark verdicts (oom, unsupported,
                    // sla-violation, validation-failed) all land in the
                    // results served by `GET /results`; only `completed`
                    // is a success.
                    state.metrics.counter("jobs_executed_total").inc();
                    state.queue.finish(id, JobState::Completed, Some(result));
                }
            },
            // A panic, or a request the driver never ran (such as a
            // snapshot that failed to build).
            Err(message) => state.queue.finish(id, JobState::Failed(message), None),
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let detail = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)");
    format!("job panicked: {detail}")
}

/// Read and write timeout of one connection's socket.
const CONNECTION_TIMEOUT: Duration = Duration::from_secs(30);

fn accept_loop(listener: TcpListener, state: &Arc<ServiceState>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let state = state.clone();
        // Connections are short-lived (one request, `Connection: close`),
        // so thread-per-connection keeps the daemon dependency-free
        // without an accept backlog.
        std::thread::spawn(move || handle_connection(&state, stream));
    }
}

fn handle_connection(state: &ServiceState, stream: TcpStream) {
    // A client that stops sending, or stops reading its response, costs
    // this thread at most the timeout.
    let _ = stream.set_read_timeout(Some(CONNECTION_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONNECTION_TIMEOUT));
    let mut reader = BufReader::new(&stream);
    let response = match Request::read(&mut reader) {
        Ok(Some(request)) => api::handle(state, &request),
        Ok(None) => return,
        Err(e) => Response::error(400, e.to_string()),
    };
    let mut writer = BufWriter::new(&stream);
    // The client may already be gone; nothing useful to do about it.
    let _ = response.write(&mut writer);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon started and stopped at once, over and over, always joins
    /// its threads: workers still entering the queue when it shuts down
    /// are woken. A watchdog fails the test instead of hanging the suite.
    #[test]
    fn start_then_shutdown_always_joins() {
        const ROUNDS: usize = 100;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let config =
                    ServiceConfig { workers: 2, pool_threads: 1, ..ServiceConfig::default() };
                Service::start(config).unwrap().shutdown();
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a daemon's shutdown hung joining its threads");
    }
}
