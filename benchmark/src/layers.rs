//! The only module that calls into the repository's crates.
//!
//! Every layer is measured from outside, through these wrappers around its
//! public functions; the service workloads otherwise speak only HTTP
//! through [`Client`]. When an API of the repository changes, this file is
//! what a benchmark PR has to touch.
//!
//! Nothing here reads a cost-model field: `JobResult::{processing_secs,
//! makespan_secs, upload_secs, eps, evps}` are simulations. Times come
//! from `Execution::wall_seconds`, `measured_wall_secs`,
//! `measured_upload_secs` and the benchmark's own clocks.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::datasets::ProxyRecipe;
use graphalytics_core::graph as graph_io;
use graphalytics_core::output::OutputValues;
use graphalytics_core::params::SourceSelection;
use graphalytics_core::{random_batch, Graph, MutableGraph};
use graphalytics_engines::RunContext;
use graphalytics_graph500::{Graph500Config, RmatConfig};
use graphalytics_harness::description::JobDescription;
use graphalytics_harness::{Driver, JobSpec, RunMode};
use graphalytics_service::ServiceConfig;

pub use graphalytics_core::datasets::DatasetSpec;
pub use graphalytics_core::output::AlgorithmOutput;
pub use graphalytics_core::params::AlgorithmParams;
pub use graphalytics_core::pool::WorkerPool;
pub use graphalytics_core::{Algorithm, Csr};
pub use graphalytics_engines::{LoadedGraph, Platform};
pub use graphalytics_granula::json::Json;
pub use graphalytics_service::{Client, GraphStore, GraphStoreConfig, RetryPolicy, Service};

/// Engine names in the paper's table order.
pub const ENGINES: [&str; 6] = ["pregel", "dataflow", "gas", "spmv", "native", "pushpull"];
/// The engines with a sharded run path.
pub const SHARDED_ENGINES: [&str; 2] = ["pregel", "pushpull"];
/// Algorithms in the order the metric names list them.
pub const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Bfs,
    Algorithm::PageRank,
    Algorithm::Wcc,
    Algorithm::Cdlp,
    Algorithm::Sssp,
    Algorithm::Lcc,
];
/// Width of every pool the benchmark creates and of the daemon's pool:
/// the host has two cores.
pub const POOL_THREADS: u32 = 2;

pub fn pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(POOL_THREADS))
}

/// The sequential twin of [`pool`], for the pool-vs-sequential pairs.
pub fn inline_pool() -> WorkerPool {
    WorkerPool::inline()
}

/// Cumulative `core::pool` telemetry (zeros until switched on).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolSnapshot {
    pub busy_secs: f64,
    pub dispatch_wait_secs: f64,
    pub dispatch_wakeups: f64,
}

/// Switches the pool's clock sampling on (it cannot be switched off, so
/// only the traced run, which comes last, does this) and reads it.
pub fn pool_snapshot(pool: &WorkerPool) -> PoolSnapshot {
    pool.enable_telemetry();
    let u = pool.utilization();
    PoolSnapshot {
        busy_secs: u.busy_secs,
        dispatch_wait_secs: u.dispatch_wait_secs,
        dispatch_wakeups: u.dispatch_wakeups as f64,
    }
}

// --- generators ----------------------------------------------------------

/// Graph500 Kronecker graph, undirected, edge factor 16.
pub fn generate_graph500(scale: u32, seed: u64, weighted: bool, pool: &WorkerPool) -> Graph {
    Graph500Config::new(scale)
        .with_edge_factor(16)
        .with_seed(seed)
        .with_weights(weighted)
        .generate_with(pool)
}

/// R-MAT graph, directed and unweighted, edge factor 16.
pub fn generate_rmat_directed(scale: u32, seed: u64, pool: &WorkerPool) -> Graph {
    RmatConfig {
        scale,
        edge_factor: 16,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed,
        directed: true,
        weighted: false,
        keep_isolated: false,
    }
    .generate_with(pool)
}

pub fn dataset(id: &str) -> &'static DatasetSpec {
    graphalytics_core::datasets::dataset(id).unwrap_or_else(|| panic!("dataset {id} in registry"))
}

/// The generator family behind a dataset's proxy.
pub fn recipe_name(spec: &DatasetSpec) -> &'static str {
    match spec.recipe {
        ProxyRecipe::Graph500 { .. } => "graph500",
        ProxyRecipe::Rmat { .. } => "rmat",
        ProxyRecipe::Datagen { .. } => "datagen",
    }
}

/// `harness::proxy::materialize_with`: what the daemon's graph store runs
/// on a miss.
pub fn materialize(spec: &DatasetSpec, divisor: u64, seed: u64, pool: &WorkerPool) -> Graph {
    graphalytics_harness::proxy::materialize_with(spec, divisor, seed, pool)
}

// --- core::graph::io and csr ---------------------------------------------

/// A graph written as a Graphalytics `.v`/`.e` file pair.
pub struct GraphFiles {
    pub vertex_path: PathBuf,
    pub edge_path: PathBuf,
    pub directed: bool,
    pub weighted: bool,
    pub bytes: u64,
}

pub fn write_graph_files(graph: &Graph, dir: &Path, stem: &str) -> std::io::Result<GraphFiles> {
    std::fs::create_dir_all(dir)?;
    let vertex_path = dir.join(format!("{stem}.v"));
    let edge_path = dir.join(format!("{stem}.e"));
    let io_err = |e: graphalytics_core::Error| std::io::Error::other(e.to_string());
    graph_io::write_vertex_file(graph, &vertex_path).map_err(io_err)?;
    graph_io::write_edge_file(graph, &edge_path).map_err(io_err)?;
    let bytes = std::fs::metadata(&vertex_path)?.len() + std::fs::metadata(&edge_path)?.len();
    Ok(GraphFiles {
        vertex_path,
        edge_path,
        directed: graph.is_directed(),
        weighted: graph.is_weighted(),
        bytes,
    })
}

/// `read_graph_with`: vertex file, pool-parallel edge parse, pool build.
pub fn read_graph(files: &GraphFiles, pool: &WorkerPool) -> Result<Graph, String> {
    graph_io::read_graph_with(
        &files.vertex_path,
        &files.edge_path,
        files.directed,
        files.weighted,
        pool,
    )
    .map_err(|e| e.to_string())
}

/// `read_vertex_file` alone; returns the vertex count.
pub fn read_vertices(files: &GraphFiles) -> Result<usize, String> {
    graph_io::read_vertex_file(&files.vertex_path)
        .map(|v| v.len())
        .map_err(|e| e.to_string())
}

/// `Graph::to_csr_with`.
pub fn build_csr(graph: &Graph, pool: &WorkerPool) -> Result<Arc<Csr>, String> {
    graph
        .to_csr_with(pool)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

pub fn edge_count(graph: &Graph) -> u64 {
    graph.edge_count() as u64
}

/// `|V| + |E|`, the numerator of the paper's EVPS.
pub fn vertices_plus_edges(csr: &Csr) -> u64 {
    (csr.num_vertices() + csr.num_edges()) as u64
}

// --- engines --------------------------------------------------------------

pub fn platform(name: &str) -> Box<dyn Platform> {
    graphalytics_engines::platform_by_name(name).unwrap_or_else(|| panic!("engine {name} exists"))
}

/// Default parameters with the max-out-degree root the registry's
/// datasets prescribe.
pub fn params_for(csr: &Csr) -> AlgorithmParams {
    AlgorithmParams {
        source_vertex: SourceSelection::MaxOutDegree.resolve(csr),
        ..Default::default()
    }
}

/// The parameters the harness driver derives for a registry dataset.
pub fn dataset_params(
    spec: &'static DatasetSpec,
    algorithm: Algorithm,
    csr: &Csr,
) -> AlgorithmParams {
    JobDescription {
        dataset: spec,
        algorithm,
    }
    .params_for(csr)
}

/// `upload_with_shards`: the plain upload for one shard, the sharded path
/// otherwise.
pub fn upload(
    platform: &dyn Platform,
    csr: &Arc<Csr>,
    shards: u32,
    seed: u64,
    pool: &WorkerPool,
) -> Result<Box<dyn LoadedGraph>, String> {
    graphalytics_engines::upload_with_shards(platform, csr.clone(), shards, seed, pool)
        .map_err(|e| e.to_string())
}

/// One `Platform::run`.
pub struct KernelRun {
    pub output: AlgorithmOutput,
    /// `Execution::wall_seconds`: measured `T_proc`.
    pub tproc_secs: f64,
    pub edges_scanned: u64,
    pub messages: u64,
    pub supersteps: u64,
}

pub fn run(
    platform: &dyn Platform,
    loaded: &dyn LoadedGraph,
    algorithm: Algorithm,
    params: &AlgorithmParams,
    pool: &WorkerPool,
) -> Result<KernelRun, String> {
    let mut ctx = RunContext::new(pool);
    let exec = platform
        .run(loaded, algorithm, params, &mut ctx)
        .map_err(|e| e.to_string())?;
    Ok(KernelRun {
        output: exec.output,
        tproc_secs: exec.wall_seconds,
        edges_scanned: exec.counters.edges_scanned,
        messages: exec.counters.messages,
        supersteps: exec.counters.supersteps,
    })
}

// --- core::algorithms and core::validation --------------------------------

pub fn reference(
    csr: &Csr,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> Result<AlgorithmOutput, String> {
    graphalytics_core::algorithms::run_reference(csr, algorithm, params).map_err(|e| e.to_string())
}

/// `validation::validate` under the algorithm's Graphalytics rule.
pub fn validate(reference: &AlgorithmOutput, actual: &AlgorithmOutput) -> Result<(), String> {
    match graphalytics_core::validation::validate(reference, actual) {
        Ok(report) if report.is_valid() => Ok(()),
        Ok(report) => Err(format!(
            "{} of {} vertices mismatch",
            report.mismatches, report.vertices_checked
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// FNV-1a over the output's value bits: equal across repetitions of a cell.
pub fn checksum(output: &AlgorithmOutput) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    match &output.values {
        OutputValues::I64(v) => v.iter().for_each(|x| eat(*x as u64)),
        OutputValues::Id(v) => v.iter().for_each(|x| eat(*x)),
        OutputValues::F64(v) => v.iter().for_each(|x| eat(x.to_bits())),
    }
    hash
}

// --- service daemon --------------------------------------------------------

/// An in-process `Service::start` daemon on an ephemeral loopback port:
/// two job workers, a two-thread pool, fault plane and retries off. The
/// store's seed is also the driver's.
pub fn start_daemon(config: &GraphStoreConfig) -> std::io::Result<Service> {
    Service::start(ServiceConfig {
        workers: 2,
        pool_threads: POOL_THREADS,
        store: *config,
        seed: config.seed,
        fault_plan: None,
        retry_attempts: 1,
        ..ServiceConfig::default()
    })
}

/// A client that never retries: a transport failure is a failed job.
pub fn client(service: &Service) -> Client {
    Client::new(service.addr().to_string()).with_retry(RetryPolicy::none())
}

/// What a service job's result reports from real clocks and real
/// execution. The simulated fields of the same JSON object are never read.
pub struct Measured {
    pub vertices: u64,
    pub edges: u64,
    /// `measured_upload_secs`: the engine upload inside the job.
    pub upload_secs: f64,
    /// `measured_wall_secs`: mean wall of the job's `Platform::run`s.
    pub tproc_secs: f64,
    pub repetitions: u64,
    pub edges_scanned: u64,
    pub messages: u64,
    pub supersteps: u64,
}

/// Checks a terminal `GET /jobs/:id` record — `state == completed` and
/// `result.status == completed`, measured fields present — and extracts
/// the measured values.
pub fn measured_result(record: &Json) -> Result<Measured, String> {
    let state = record
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("(none)");
    if state != "completed" {
        let error = record.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("job state {state} {error}"));
    }
    let result = record
        .get("result")
        .ok_or("completed job carries no result")?;
    let status = result
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("(none)");
    if status != "completed" {
        return Err(format!("result status {status}"));
    }
    let num = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result field {key} missing"))
    };
    let count = |key: &str| num(key).map(|x| x as u64);
    Ok(Measured {
        vertices: count("vertices")?,
        edges: count("edges")?,
        upload_secs: num("measured_upload_secs")?,
        tproc_secs: num("measured_wall_secs")?,
        repetitions: count("repetitions")?,
        edges_scanned: count("edges_scanned")?,
        messages: count("messages")?,
        supersteps: count("supersteps")?,
    })
}

/// `http::Request::read` + `api::handle` + `Response::write` on the
/// daemon's live state without a socket; returns the seconds it took.
pub fn handle_in_process(service: &Service, method: &str, path: &str) -> Result<f64, String> {
    let raw = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
    let started = Instant::now();
    let request = graphalytics_service::http::Request::read(&mut BufReader::new(raw.as_bytes()))
        .map_err(|e| e.to_string())?
        .ok_or("empty request")?;
    let response = graphalytics_service::api::handle(service.state(), &request);
    let mut sink = Vec::with_capacity(response.body.len() + 128);
    response.write(&mut sink).map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    if response.status >= 400 {
        return Err(format!(
            "in-process {method} {path} answered {}",
            response.status
        ));
    }
    Ok(secs)
}

/// A private `GraphStore` with the daemon's configuration, for timing
/// `GraphStore::get` without disturbing the daemon's own LRU state.
pub fn private_store(config: &GraphStoreConfig, pool: &Arc<WorkerPool>) -> GraphStore {
    GraphStore::new(*config, pool.clone())
}

pub fn store_get(store: &GraphStore, spec: &'static DatasetSpec) -> Arc<Csr> {
    store.get(spec)
}

/// One job replayed in-process through `harness::Driver::run`, as the
/// daemon's worker runs it.
pub struct DriverReplay {
    pub job_secs: f64,
    pub upload_secs: f64,
    /// Sum over repetitions of the measured run wall.
    pub run_secs: f64,
    /// `results::result_json` of the replayed job: seconds and the value.
    pub result_json_secs: f64,
    pub result_json: Json,
    /// The archive as the daemon would serve it.
    pub archive_json: Option<Json>,
}

pub fn driver_replay(
    engine: &str,
    spec: &'static DatasetSpec,
    algorithm: Algorithm,
    csr: &Arc<Csr>,
    seed: u64,
    pool: &Arc<WorkerPool>,
) -> Result<DriverReplay, String> {
    let platform = platform(engine);
    let driver = Driver {
        seed,
        pool: pool.clone(),
        ..Driver::default()
    };
    let job = JobSpec::new(spec, algorithm, ClusterSpec::single_machine());
    let started = Instant::now();
    let result = driver.run(platform.as_ref(), &job, RunMode::Measured { csr });
    let job_secs = started.elapsed().as_secs_f64();
    if !result.status.is_success() {
        return Err(format!("replayed job ended {:?}", result.status));
    }
    let run_secs = result
        .measured_wall_secs
        .ok_or("replay carries no measured wall")?
        * result.runs.len() as f64;
    let started = Instant::now();
    let result_json = graphalytics_harness::results::result_json(&result);
    let result_json_secs = started.elapsed().as_secs_f64();
    Ok(DriverReplay {
        job_secs,
        upload_secs: result
            .measured_upload_secs
            .ok_or("replay carries no measured upload")?,
        run_secs,
        result_json_secs,
        result_json,
        archive_json: result.archive.as_ref().map(|a| a.to_json_value()),
    })
}

// --- core::graph::delta ------------------------------------------------------

/// An in-process mirror of the daemon's delta log for one dataset: the
/// same base graph, the same generated batches, the same default policy.
pub struct DeltaMirror {
    graph: MutableGraph,
}

impl DeltaMirror {
    pub fn new(base: Arc<Csr>) -> DeltaMirror {
        DeltaMirror {
            graph: MutableGraph::new(base),
        }
    }

    /// `random_batch` against the current base + `MutableGraph::apply`,
    /// as `POST /graphs/:id/mutations {generate}` does. Returns whether
    /// the apply compacted the log.
    pub fn apply_generated(
        &mut self,
        insertions: u64,
        deletions: u64,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<bool, String> {
        let batch = random_batch(
            self.graph.base(),
            insertions as usize,
            deletions as usize,
            seed,
        );
        self.graph
            .apply(&batch, pool)
            .map(|outcome| outcome.compacted)
            .map_err(|e| e.to_string())
    }

    /// `MutableGraph::materialize`: the snapshot every job after a batch
    /// pays for.
    pub fn materialize(&self, pool: &WorkerPool) -> Result<Csr, String> {
        self.graph.materialize(pool).map_err(|e| e.to_string())
    }

    pub fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }
}
