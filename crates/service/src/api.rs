//! The HTTP/JSON API surface.
//!
//! | method & path        | purpose                                        |
//! |----------------------|------------------------------------------------|
//! | `GET /`              | endpoint index                                 |
//! | `GET /health`        | liveness probe                                 |
//! | `POST /jobs`         | submit a job (202 + id; optional               |
//! |                      | `timeout_secs` deadline; 429 when the bounded  |
//! |                      | queue is full)                                 |
//! | `GET /jobs`          | list all jobs                                  |
//! | `GET /jobs/:id`      | one job, with its result when finished         |
//! | `GET /jobs/:id/archive` | a finished job's full Granula archive       |
//! | `DELETE /jobs/:id`   | cancel a queued (200) or running (202) job —   |
//! |                      | a running job aborts at the next superstep     |
//! |                      | boundary via its cancellation token            |
//! | `GET /results`       | the full results database (JSON export)        |
//! | `GET /graphs`        | resident graph store entries + configuration   |
//! | `POST /graphs/:id/mutations` | apply a streaming mutation batch to a  |
//! |                      | resident graph's delta log (explicit           |
//! |                      | insert/delete rows or a `generate` shorthand)  |
//! | `GET /metrics`       | job/store/mutation counters, measured EPS /    |
//! |                      | EVPS aggregates, and monitor telemetry         |
//! |                      | (`?format=prometheus` for the text format)     |
//!
//! Requests are validated before they reach the queue: unknown platforms,
//! datasets and algorithms are 400s, not worker crashes — backed by the
//! `Result`-based selection paths in the harness.

use graphalytics_core::Algorithm;
use graphalytics_granula::json::Json;
use graphalytics_harness::metrics::{eps, evps};
use graphalytics_harness::results::result_json;

use crate::http::{Request, Response};
use crate::jobs::{CancelError, JobMode, JobRecord, JobRequest, JobState, SubmitError};
use crate::server::ServiceState;

/// Routes one request.
pub fn handle(state: &ServiceState, request: &Request) -> Response {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) => index(),
        ("GET", ["health"]) => Response::json(200, &Json::obj(vec![("status", Json::str("ok"))])),
        ("POST", ["jobs"]) => submit(state, request),
        ("GET", ["jobs"]) => list_jobs(state),
        ("GET", ["jobs", id]) => get_job(state, id),
        ("GET", ["jobs", id, "archive"]) => get_archive(state, id),
        ("DELETE", ["jobs", id]) => cancel_job(state, id),
        ("GET", ["results"]) => Response::raw_json(200, state.results.to_json()),
        ("GET", ["graphs"]) => graphs(state),
        ("POST", ["graphs", id, "mutations"]) => mutate_graph(state, id, request),
        ("GET", ["metrics"]) => metrics(state, request),
        ("GET" | "POST" | "DELETE", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, format!("method {} not allowed", request.method)),
    }
}

fn index() -> Response {
    Response::json(
        200,
        &Json::obj(vec![
            ("service", Json::str("graphalytics-service")),
            (
                "endpoints",
                Json::Arr(
                    [
                        "GET /health",
                        "POST /jobs",
                        "GET /jobs",
                        "GET /jobs/:id",
                        "GET /jobs/:id/archive",
                        "DELETE /jobs/:id",
                        "GET /results",
                        "GET /graphs",
                        "POST /graphs/:id/mutations",
                        "GET /metrics",
                        "GET /metrics?format=prometheus",
                    ]
                    .iter()
                    .map(|e| Json::str(*e))
                    .collect(),
                ),
            ),
        ]),
    )
}

/// Parses and validates a submission body into a [`JobRequest`].
fn parse_submission(body: &str) -> Result<JobRequest, String> {
    let json = Json::parse(body).map_err(|e| e.to_string())?;
    let field = |name: &str| -> Result<&str, String> {
        json.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{name}`"))
    };
    let platform = field("platform")?;
    if graphalytics_engines::platform_by_name(platform).is_none() {
        return Err(format!("unknown platform {platform}"));
    }
    let dataset_key = field("dataset")?;
    let dataset = graphalytics_core::datasets::dataset(dataset_key)
        .ok_or_else(|| format!("unknown dataset {dataset_key}"))?;
    let acronym = field("algorithm")?;
    let algorithm = Algorithm::from_acronym(acronym)
        .ok_or_else(|| format!("unknown algorithm {acronym}"))?;
    if algorithm.needs_weights() && !dataset.weighted {
        return Err(format!(
            "algorithm {acronym} needs edge weights but dataset {} is unweighted",
            dataset.id
        ));
    }
    let mode = match json.get("mode") {
        None => JobMode::default(),
        Some(value) => value
            .as_str()
            .and_then(JobMode::from_str_opt)
            .ok_or_else(|| "field `mode` must be \"measured\" or \"analytic\"".to_string())?,
    };
    let repetitions = match json.get("repetitions") {
        None => 1,
        Some(value) => {
            let n = value
                .as_u64()
                .ok_or_else(|| "field `repetitions` must be a positive integer".to_string())?;
            if n == 0 || n > crate::jobs::MAX_REPETITIONS as u64 {
                return Err(format!(
                    "field `repetitions` must be in 1..={}",
                    crate::jobs::MAX_REPETITIONS
                ));
            }
            n as u32
        }
    };
    let shards = match json.get("shards") {
        None => 1,
        Some(value) => {
            let n = value
                .as_u64()
                .ok_or_else(|| "field `shards` must be a positive integer".to_string())?;
            if n == 0 || n > crate::jobs::MAX_SHARDS as u64 {
                return Err(format!(
                    "field `shards` must be in 1..={}",
                    crate::jobs::MAX_SHARDS
                ));
            }
            n as u32
        }
    };
    let timeout_millis = match json.get("timeout_secs") {
        None => None,
        Some(value) => {
            let secs = value
                .as_f64()
                .ok_or_else(|| "field `timeout_secs` must be a number".to_string())?;
            if !secs.is_finite() || secs <= 0.0 || secs > 86_400.0 {
                return Err(
                    "field `timeout_secs` must be a positive number of seconds (≤ 86400)"
                        .to_string(),
                );
            }
            Some((secs * 1000.0).ceil() as u64)
        }
    };
    Ok(JobRequest {
        platform: platform.to_string(),
        dataset: dataset.id.to_string(),
        algorithm,
        mode,
        repetitions,
        shards,
        timeout_millis,
    })
}

fn submit(state: &ServiceState, request: &Request) -> Response {
    let Some(body) = request.body_utf8() else {
        return Response::error(400, "request body is not UTF-8");
    };
    match parse_submission(body) {
        Ok(job) => match state.queue.submit(job) {
            Ok(id) => Response::json(
                202,
                &Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("state", Json::str("queued")),
                ]),
            ),
            // Bounded-queue backpressure: a full queue is a structured
            // 429, not an unbounded buffer — the client retries later.
            Err(SubmitError::QueueFull { capacity }) => {
                state.metrics.counter("jobs_rejected_total").inc();
                Response::error(
                    429,
                    format!("job queue is full ({capacity} open jobs); retry later"),
                )
            }
        },
        Err(message) => Response::error(400, message),
    }
}

/// One job as JSON: identity, request, state, and the benchmark result
/// once the driver has run.
pub fn job_json(record: &JobRecord) -> Json {
    let mut fields = vec![
        ("id".to_string(), Json::Num(record.id as f64)),
        ("platform".to_string(), Json::str(&record.request.platform)),
        ("dataset".to_string(), Json::str(&record.request.dataset)),
        ("algorithm".to_string(), Json::str(record.request.algorithm.acronym())),
        ("mode".to_string(), Json::str(record.request.mode.as_str())),
        ("repetitions".to_string(), Json::Num(record.request.repetitions as f64)),
        ("shards".to_string(), Json::Num(record.request.shards as f64)),
        ("state".to_string(), Json::str(record.state.as_str())),
    ];
    if let Some(millis) = record.request.timeout_millis {
        fields.push(("timeout_secs".to_string(), Json::Num(millis as f64 / 1000.0)));
    }
    if record.cancel_requested {
        fields.push(("cancel_requested".to_string(), Json::Bool(true)));
    }
    if let JobState::Failed(message) = &record.state {
        fields.push(("error".to_string(), Json::str(message)));
    }
    if let Some(result) = &record.result {
        fields.push(("result".to_string(), result_json(result)));
    }
    Json::Obj(fields)
}

fn list_jobs(state: &ServiceState) -> Response {
    let jobs: Vec<Json> = state.queue.list().iter().map(job_json).collect();
    Response::json(200, &Json::obj(vec![("jobs", Json::Arr(jobs))]))
}

fn parse_id(raw: &str) -> Result<u64, Response> {
    raw.parse::<u64>().map_err(|_| Response::error(400, format!("malformed job id {raw:?}")))
}

fn get_job(state: &ServiceState, raw_id: &str) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match state.queue.get(id) {
        Some(record) => Response::json(200, &job_json(&record)),
        None => Response::error(404, format!("no job {id}")),
    }
}

fn cancel_job(state: &ServiceState, raw_id: &str) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match state.queue.cancel(id) {
        // A queued job cancels immediately (200). A running job gets its
        // token signalled and aborts at the next superstep boundary — the
        // 202 acknowledges the request; poll `GET /jobs/:id` for the
        // `cancelled` terminal state.
        Ok(record) if record.state == JobState::Running => {
            Response::json(202, &job_json(&record))
        }
        Ok(record) => Response::json(200, &job_json(&record)),
        Err(CancelError::NotFound) => Response::error(404, format!("no job {id}")),
        Err(CancelError::NotCancellable(job_state)) => {
            Response::error(409, format!("job {id} is {job_state}, already terminal"))
        }
    }
}

fn graphs(state: &ServiceState) -> Response {
    let config = state.store.config();
    let rows: Vec<Json> = state
        .store
        .list()
        .iter()
        .map(|info| {
            let mut fields = vec![
                ("dataset", Json::str(&info.dataset)),
                ("vertices", Json::Num(info.vertices as f64)),
                ("edges", Json::Num(info.edges as f64)),
                ("bytes", Json::Num(info.bytes as f64)),
            ];
            if let Some(delta) = state.mutations.status(&info.dataset) {
                fields.push(("mutated", Json::Bool(true)));
                fields.push(("applied_batches", Json::Num(delta.stats.applied_batches as f64)));
                fields.push(("delta_arcs", Json::Num(delta.delta_arcs as f64)));
                fields.push(("fill_ratio", Json::Num(delta.fill_ratio)));
            }
            Json::obj(fields)
        })
        .collect();
    Response::json(
        200,
        &Json::obj(vec![
            ("graphs", Json::Arr(rows)),
            ("capacity_bytes", Json::Num(config.capacity_bytes as f64)),
            ("scale_divisor", Json::Num(config.scale_divisor as f64)),
        ]),
    )
}

/// Parses an explicit mutation body: `insert` rows of `[src, dst]` or
/// `[src, dst, weight]`, `delete` rows of `[src, dst]`.
fn parse_mutation_batch(json: &Json) -> Result<graphalytics_core::MutationBatch, String> {
    let mut batch = graphalytics_core::MutationBatch::new();
    let vertex = |cell: &Json, field: &str| -> Result<u64, String> {
        cell.as_u64()
            .ok_or_else(|| format!("field `{field}` rows must hold non-negative vertex ids"))
    };
    if let Some(rows) = json.get("insert") {
        let rows = rows
            .as_arr()
            .ok_or_else(|| "field `insert` must be an array of edge rows".to_string())?;
        for row in rows {
            let cells = row
                .as_arr()
                .ok_or_else(|| "field `insert` rows must be arrays".to_string())?;
            match cells {
                [src, dst] => {
                    batch.insert(vertex(src, "insert")?, vertex(dst, "insert")?);
                }
                [src, dst, weight] => {
                    let w = weight
                        .as_f64()
                        .ok_or_else(|| "field `insert` weights must be numbers".to_string())?;
                    batch.insert_weighted(vertex(src, "insert")?, vertex(dst, "insert")?, w);
                }
                _ => {
                    return Err(
                        "field `insert` rows must be [src, dst] or [src, dst, weight]".to_string()
                    )
                }
            }
        }
    }
    if let Some(rows) = json.get("delete") {
        let rows = rows
            .as_arr()
            .ok_or_else(|| "field `delete` must be an array of [src, dst] rows".to_string())?;
        for row in rows {
            match row.as_arr() {
                Some([src, dst]) => {
                    batch.delete(vertex(src, "delete")?, vertex(dst, "delete")?);
                }
                _ => return Err("field `delete` rows must be [src, dst]".to_string()),
            }
        }
    }
    Ok(batch)
}

/// `POST /graphs/:id/mutations`: applies one batch (explicit rows or the
/// `generate: {insert, delete, seed}` shorthand) to the dataset's delta
/// log. Validation failures — undeclared vertices, self loops, bad
/// weights, malformed rows — are structured 400s and leave the log
/// untouched; the graph is generated into the store first if it was not
/// yet resident.
fn mutate_graph(state: &ServiceState, raw_id: &str, request: &Request) -> Response {
    let Some(dataset) = graphalytics_core::datasets::dataset(raw_id) else {
        return Response::error(404, format!("unknown dataset {raw_id}"));
    };
    let Some(body) = request.body_utf8() else {
        return Response::error(400, "request body is not UTF-8");
    };
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(e) => return Response::error(400, e.to_string()),
    };
    let base = state.store.get(dataset);
    let applied = if let Some(generate) = json.get("generate") {
        if json.get("insert").is_some() || json.get("delete").is_some() {
            return Response::error(
                400,
                "`generate` excludes explicit `insert`/`delete` arrays",
            );
        }
        let count = |name: &str| -> Result<u64, Response> {
            match generate.get(name) {
                None => Ok(0),
                Some(value) => value.as_u64().ok_or_else(|| {
                    Response::error(
                        400,
                        format!("field `generate.{name}` must be a non-negative integer"),
                    )
                }),
            }
        };
        let (insertions, deletions) = match (count("insert"), count("delete")) {
            (Ok(i), Ok(d)) => (i as usize, d as usize),
            (Err(resp), _) | (_, Err(resp)) => return resp,
        };
        let seed = generate.get("seed").and_then(Json::as_u64).unwrap_or(0);
        state.mutations.apply_generated(dataset.id, &base, insertions, deletions, seed)
    } else {
        match parse_mutation_batch(&json) {
            Ok(batch) if batch.is_empty() => {
                return Response::error(
                    400,
                    "mutation batch is empty (no `insert`, `delete`, or `generate`)",
                )
            }
            Ok(batch) => {
                let len = batch.len();
                state.mutations.apply(dataset.id, &base, &batch).map(|report| (len, report))
            }
            Err(message) => return Response::error(400, message),
        }
    };
    match applied {
        Ok((batch_len, report)) => Response::json(
            200,
            &Json::obj(vec![
                ("dataset", Json::str(dataset.id)),
                ("batch_len", Json::Num(batch_len as f64)),
                ("inserted", Json::Num(report.inserted as f64)),
                ("deleted", Json::Num(report.deleted as f64)),
                ("updated", Json::Num(report.updated as f64)),
                ("compacted", Json::Bool(report.compacted)),
                ("delta_arcs", Json::Num(report.delta_arcs as f64)),
                ("fill_ratio", Json::Num(report.fill_ratio)),
                ("apply_secs", Json::Num(report.apply_secs)),
            ]),
        ),
        Err(message) => Response::error(400, message),
    }
}

fn get_archive(state: &ServiceState, raw_id: &str) -> Response {
    let id = match parse_id(raw_id) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match state.archive(id) {
        Some(archive) => Response::json(200, &archive.to_json_value()),
        None => match state.queue.get(id) {
            Some(record) => Response::error(
                404,
                format!("job {id} is {}, no archive recorded", record.state.as_str()),
            ),
            None => Response::error(404, format!("no job {id}")),
        },
    }
}

/// Copies the worker pool's live utilization (and daemon uptime) into the
/// monitor registry, so both exposition formats serve current values.
fn refresh_pool_gauges(state: &ServiceState) {
    let u = state.pool.utilization();
    state.metrics.gauge("pool_busy_fraction").set(u.busy_fraction());
    state.metrics.gauge("pool_busy_secs").set(u.busy_secs);
    state.metrics.gauge("pool_uptime_secs").set(u.uptime_secs);
    state.metrics.gauge("pool_dispatch_wait_secs").set(u.dispatch_wait_secs);
    state.metrics.gauge("pool_dispatch_wakeups").set(u.dispatch_wakeups as f64);
    for (i, busy) in u.per_worker_busy_secs.iter().enumerate() {
        state.metrics.gauge(&format!("pool_worker_{i}_busy_secs")).set(*busy);
    }
    state.metrics.gauge("service_uptime_secs").set(state.uptime_secs());
}

/// The Granula-monitor section of `GET /metrics`: live pool utilization
/// plus the registry's counters and latency histograms (with estimated
/// p50/p95/p99).
fn monitor_json(state: &ServiceState) -> Json {
    let u = state.pool.utilization();
    let snapshot = state.metrics.snapshot();
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    let counters: Vec<Json> = snapshot
        .counters
        .iter()
        .map(|(name, v)| {
            Json::obj(vec![("name", Json::str(name)), ("value", Json::Num(*v as f64))])
        })
        .collect();
    let histograms: Vec<Json> = snapshot
        .histograms
        .iter()
        .map(|(name, h)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::Num(h.count as f64)),
                ("sum_secs", Json::Num(h.sum_secs)),
                ("mean_secs", opt(h.mean_secs())),
                ("p50_secs", opt(h.p50())),
                ("p95_secs", opt(h.p95())),
                ("p99_secs", opt(h.p99())),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "utilization",
            Json::obj(vec![
                ("busy_fraction", Json::Num(u.busy_fraction())),
                ("busy_secs", Json::Num(u.busy_secs)),
                ("uptime_secs", Json::Num(u.uptime_secs)),
                ("dispatch_wait_secs", Json::Num(u.dispatch_wait_secs)),
                ("dispatch_wakeups", Json::Num(u.dispatch_wakeups as f64)),
                ("mean_dispatch_wait_secs", opt(u.mean_dispatch_wait_secs())),
                (
                    "per_worker_busy_secs",
                    Json::Arr(u.per_worker_busy_secs.iter().map(|&b| Json::Num(b)).collect()),
                ),
            ]),
        ),
        ("counters", Json::Arr(counters)),
        ("histograms", Json::Arr(histograms)),
    ])
}

/// The delta-log section of `GET /metrics`: aggregate mutation counters
/// over every resident graph with a live delta log.
fn mutations_json(state: &ServiceState) -> Json {
    let m = state.mutations.metrics();
    Json::obj(vec![
        ("mutated_graphs", Json::Num(m.mutated_graphs as f64)),
        ("applied_batches", Json::Num(m.applied_batches as f64)),
        ("inserted_edges", Json::Num(m.inserted_edges as f64)),
        ("deleted_edges", Json::Num(m.deleted_edges as f64)),
        ("updated_edges", Json::Num(m.updated_edges as f64)),
        ("compactions", Json::Num(m.compactions as f64)),
        ("compact_secs", Json::Num(m.compact_secs)),
        ("delta_arcs", Json::Num(m.delta_arcs as f64)),
        ("snapshot_builds", Json::Num(m.snapshot_builds as f64)),
    ])
}

/// Copies the mutation-store counters into the monitor registry so the
/// Prometheus exposition carries the delta-log gauges too.
fn refresh_mutation_gauges(state: &ServiceState) {
    let m = state.mutations.metrics();
    state.metrics.gauge("mutation_applied_batches").set(m.applied_batches as f64);
    state.metrics.gauge("mutation_inserted_edges").set(m.inserted_edges as f64);
    state.metrics.gauge("mutation_deleted_edges").set(m.deleted_edges as f64);
    state.metrics.gauge("mutation_compactions").set(m.compactions as f64);
    state.metrics.gauge("mutation_delta_arcs").set(m.delta_arcs as f64);
}

/// The validation-reference section of `GET /metrics`: how often a job
/// reused a resident reference, and what the resident ones hold.
fn references_json(state: &ServiceState) -> Json {
    let r = state.references.stats();
    Json::obj(vec![
        ("hits", Json::Num(r.hits as f64)),
        ("misses", Json::Num(r.misses as f64)),
        ("entries", Json::Num(r.entries as f64)),
        ("resident_bytes", Json::Num(r.resident_bytes as f64)),
    ])
}

/// The same numbers as gauges, for the Prometheus exposition.
fn refresh_reference_gauges(state: &ServiceState) {
    let r = state.references.stats();
    state.metrics.gauge("reference_hits").set(r.hits as f64);
    state.metrics.gauge("reference_misses").set(r.misses as f64);
    state.metrics.gauge("reference_entries").set(r.entries as f64);
    state.metrics.gauge("reference_resident_bytes").set(r.resident_bytes as f64);
}

fn metrics(state: &ServiceState, request: &Request) -> Response {
    match request.query_param("format") {
        Some("prometheus") => {
            refresh_pool_gauges(state);
            refresh_mutation_gauges(state);
            refresh_reference_gauges(state);
            return Response::text(200, state.metrics.snapshot().to_prometheus());
        }
        Some(other) => {
            return Response::error(400, format!("unknown metrics format {other:?}"));
        }
        None => {}
    }
    let counts = state.queue.counts();
    let store = state.store.metrics();
    let pool = state.pool.stats();
    Response::json(
        200,
        &Json::obj(vec![
            ("uptime_secs", Json::Num(state.uptime_secs())),
            (
                "pool",
                Json::obj(vec![
                    ("threads", Json::Num(state.pool.threads() as f64)),
                    ("runs", Json::Num(pool.runs as f64)),
                    ("dispatches", Json::Num(pool.dispatches as f64)),
                ]),
            ),
            ("monitor", monitor_json(state)),
            (
                "jobs",
                Json::obj(vec![
                    ("submitted", Json::Num(counts.submitted() as f64)),
                    ("queued", Json::Num(counts.queued as f64)),
                    ("running", Json::Num(counts.running as f64)),
                    ("completed", Json::Num(counts.completed as f64)),
                    ("failed", Json::Num(counts.failed as f64)),
                    ("cancelled", Json::Num(counts.cancelled as f64)),
                    ("timed_out", Json::Num(counts.timed_out as f64)),
                    ("queue_capacity", Json::Num(state.queue.capacity() as f64)),
                    (
                        "queue_open",
                        Json::Num((counts.queued + counts.running) as f64),
                    ),
                ]),
            ),
            (
                "store",
                Json::obj(vec![
                    ("hits", Json::Num(store.hits as f64)),
                    ("misses", Json::Num(store.misses as f64)),
                    ("generations", Json::Num(store.generations as f64)),
                    ("evictions", Json::Num(store.evictions as f64)),
                    ("resident_bytes", Json::Num(store.resident_bytes as f64)),
                    ("entries", Json::Num(store.entries as f64)),
                ]),
            ),
            ("mutations", mutations_json(state)),
            ("references", references_json(state)),
            ("results", results_aggregates(state)),
        ]),
    )
}

/// Sums of *measured* EPS / EVPS — `harness::metrics` over each executed
/// job's mean wall-clock processing time — and how many jobs they cover.
#[derive(Default)]
struct Throughput {
    jobs: u64,
    eps_sum: f64,
    evps_sum: f64,
}

impl Throughput {
    fn add(&mut self, r: &graphalytics_harness::JobResult) {
        if let Some(secs) = r.measured_wall_secs {
            self.jobs += 1;
            self.eps_sum += eps(r.edges, secs);
            self.evps_sum += evps(r.vertices, r.edges, secs);
        }
    }

    /// `(mean_eps, mean_evps)`; `null` when no job executed (analytic
    /// jobs have nothing measured to average).
    fn means(&self) -> [(&'static str, Json); 2] {
        let mean = |sum: f64| {
            if self.jobs == 0 {
                Json::Null
            } else {
                Json::Num(sum / self.jobs as f64)
            }
        };
        [("mean_eps", mean(self.eps_sum)), ("mean_evps", mean(self.evps_sum))]
    }
}

/// Job counts and measured EPS / EVPS over successful results, overall
/// and per platform (the paper's throughput metrics, served live).
/// Computed with a no-clone fold: `/metrics` is the polled endpoint and
/// must not copy every stored result (and its archive) per call.
fn results_aggregates(state: &ServiceState) -> Json {
    #[derive(Default)]
    struct Agg {
        count: u64,
        successful: u64,
        measured: Throughput,
        /// Sharded-execution traffic over successful runs.
        sharded_jobs: u64,
        inter_shard_messages: u64,
        inter_shard_bytes: u64,
        /// platform → (successful jobs, measured throughput); BTreeMap
        /// for sorted output.
        per_platform: std::collections::BTreeMap<String, (u64, Throughput)>,
    }
    let agg = state.results.fold(Agg::default(), |mut agg, r| {
        agg.count += 1;
        if r.status.is_success() {
            agg.successful += 1;
            agg.measured.add(r);
            if r.shards > 1 {
                agg.sharded_jobs += 1;
            }
            agg.inter_shard_messages += r.counters.inter_shard_messages;
            agg.inter_shard_bytes += r.counters.inter_shard_bytes;
            let row = agg.per_platform.entry(r.platform.clone()).or_default();
            row.0 += 1;
            row.1.add(r);
        }
        agg
    });
    let per_platform: Vec<Json> = agg
        .per_platform
        .iter()
        .map(|(name, (jobs, measured))| {
            let mut fields =
                vec![("platform", Json::str(name)), ("jobs", Json::Num(*jobs as f64))];
            fields.extend(measured.means());
            Json::obj(fields)
        })
        .collect();
    let success_rate =
        if agg.count == 0 { 1.0 } else { agg.successful as f64 / agg.count as f64 };
    let [mean_eps, mean_evps] = agg.measured.means();
    Json::obj(vec![
        ("count", Json::Num(agg.count as f64)),
        ("successful", Json::Num(agg.successful as f64)),
        ("success_rate", Json::Num(success_rate)),
        mean_eps,
        mean_evps,
        (
            "sharded",
            Json::obj(vec![
                ("jobs", Json::Num(agg.sharded_jobs as f64)),
                ("inter_shard_messages", Json::Num(agg.inter_shard_messages as f64)),
                ("inter_shard_bytes", Json::Num(agg.inter_shard_bytes as f64)),
            ]),
        ),
        ("per_platform", Json::Arr(per_platform)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServiceConfig, ServiceState};

    fn state() -> ServiceState {
        ServiceState::new(&ServiceConfig::default())
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: vec![], body: vec![] }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn index_and_health() {
        let state = state();
        let resp = handle(&state, &get("/"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("POST /jobs"));
        let resp = handle(&state, &get("/health"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn submission_validation() {
        let state = state();
        let cases = [
            ("not json at all", "JSON parse error"),
            (r#"{"dataset":"G22","algorithm":"bfs"}"#, "missing or non-string field `platform`"),
            (r#"{"platform":"quantum","dataset":"G22","algorithm":"bfs"}"#, "unknown platform"),
            (r#"{"platform":"native","dataset":"R99","algorithm":"bfs"}"#, "unknown dataset"),
            (r#"{"platform":"native","dataset":"G22","algorithm":"dfs"}"#, "unknown algorithm"),
            (r#"{"platform":"native","dataset":"G22","algorithm":"sssp"}"#, "needs edge weights"),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","mode":"warp"}"#,
                "field `mode` must be",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","repetitions":0}"#,
                "field `repetitions` must be in 1..=",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","repetitions":"x"}"#,
                "field `repetitions` must be a positive integer",
            ),
            (
                r#"{"platform":"pregel","dataset":"G22","algorithm":"bfs","shards":0}"#,
                "field `shards` must be in 1..=",
            ),
            (
                r#"{"platform":"pregel","dataset":"G22","algorithm":"bfs","shards":65}"#,
                "field `shards` must be in 1..=",
            ),
            (
                r#"{"platform":"pregel","dataset":"G22","algorithm":"bfs","shards":"two"}"#,
                "field `shards` must be a positive integer",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","timeout_secs":"soon"}"#,
                "field `timeout_secs` must be a number",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","timeout_secs":0}"#,
                "field `timeout_secs` must be a positive number",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","timeout_secs":-2.5}"#,
                "field `timeout_secs` must be a positive number",
            ),
            (
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","timeout_secs":90000}"#,
                "field `timeout_secs` must be a positive number",
            ),
        ];
        for (body, expected) in cases {
            let resp = handle(&state, &post("/jobs", body));
            assert_eq!(resp.status, 400, "{body}");
            assert!(resp.body.contains(expected), "{body} → {}", resp.body);
        }
        assert_eq!(state.queue.counts().submitted(), 0, "nothing reached the queue");
    }

    #[test]
    fn accepted_submission_is_queued() {
        let state = state();
        let resp = handle(
            &state,
            &post("/jobs", r#"{"platform":"GraphMat","dataset":"graph500-22","algorithm":"pr"}"#),
        );
        assert_eq!(resp.status, 202);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("id").and_then(Json::as_u64), Some(1));
        // Paper analogue and dataset name normalize to model name and id.
        let record = state.queue.get(1).unwrap();
        assert_eq!(record.request.dataset, "G22");
        assert_eq!(record.request.mode, JobMode::Measured);
        assert_eq!(record.request.repetitions, 1, "defaulted");
        let listed = handle(&state, &get("/jobs"));
        assert!(listed.body.contains("\"pr\""));
        // Explicit repetitions are carried through.
        let resp = handle(
            &state,
            &post(
                "/jobs",
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","repetitions":5}"#,
            ),
        );
        assert_eq!(resp.status, 202);
        assert_eq!(state.queue.get(2).unwrap().request.repetitions, 5);
        assert_eq!(state.queue.get(2).unwrap().request.shards, 1, "defaulted");
        // Explicit shards are carried through and echoed in the job view.
        let resp = handle(
            &state,
            &post(
                "/jobs",
                r#"{"platform":"pregel","dataset":"G22","algorithm":"bfs","shards":4}"#,
            ),
        );
        assert_eq!(resp.status, 202);
        assert_eq!(state.queue.get(3).unwrap().request.shards, 4);
        let view = handle(&state, &get("/jobs/3"));
        let body = Json::parse(&view.body).unwrap();
        assert_eq!(body.get("shards").and_then(Json::as_u64), Some(4));
        // A deadline is parsed to millisecond precision and echoed back.
        let resp = handle(
            &state,
            &post(
                "/jobs",
                r#"{"platform":"native","dataset":"G22","algorithm":"bfs","timeout_secs":1.5}"#,
            ),
        );
        assert_eq!(resp.status, 202);
        assert_eq!(state.queue.get(4).unwrap().request.timeout_millis, Some(1500));
        let view = handle(&state, &get("/jobs/4"));
        let body = Json::parse(&view.body).unwrap();
        assert_eq!(body.get("timeout_secs").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn full_queue_rejects_with_429() {
        let config = ServiceConfig { queue_capacity: 1, ..ServiceConfig::default() };
        let state = ServiceState::new(&config);
        let body = r#"{"platform":"native","dataset":"G22","algorithm":"bfs"}"#;
        assert_eq!(handle(&state, &post("/jobs", body)).status, 202);
        let resp = handle(&state, &post("/jobs", body));
        assert_eq!(resp.status, 429);
        assert!(resp.body.contains("queue is full"), "{}", resp.body);
        let metrics = handle(&state, &get("/metrics"));
        let json = Json::parse(&metrics.body).unwrap();
        let jobs = json.get("jobs").unwrap();
        assert_eq!(jobs.get("queue_capacity").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("queue_open").and_then(Json::as_u64), Some(1));
        // Cancelling the queued job frees the slot for the next submit.
        let del = Request {
            method: "DELETE".into(),
            path: "/jobs/1".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(handle(&state, &del).status, 200);
        assert_eq!(handle(&state, &post("/jobs", body)).status, 202);
    }

    #[test]
    fn job_lookup_and_cancel_errors() {
        let state = state();
        assert_eq!(handle(&state, &get("/jobs/1")).status, 404);
        assert_eq!(handle(&state, &get("/jobs/one")).status, 400);
        let del =
            Request { method: "DELETE".into(), path: "/jobs/9".into(), headers: vec![], body: vec![] };
        assert_eq!(handle(&state, &del).status, 404);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        let patch =
            Request { method: "PATCH".into(), path: "/jobs".into(), headers: vec![], body: vec![] };
        assert_eq!(handle(&state, &patch).status, 405);
    }

    #[test]
    fn metrics_shape_when_empty() {
        let state = state();
        let resp = handle(&state, &get("/metrics"));
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("jobs").and_then(|j| j.get("submitted")), Some(&Json::Num(0.0)));
        assert_eq!(body.get("store").and_then(|s| s.get("generations")), Some(&Json::Num(0.0)));
        let results = body.get("results").unwrap();
        assert_eq!(results.get("mean_eps"), Some(&Json::Null));
        assert_eq!(results.get("success_rate"), Some(&Json::Num(1.0)));
        let sharded = results.get("sharded").unwrap();
        assert_eq!(sharded.get("jobs"), Some(&Json::Num(0.0)));
        assert_eq!(sharded.get("inter_shard_messages"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn metrics_aggregate_inter_shard_traffic() {
        // A sharded job executed in-process shows up in the /metrics
        // inter-shard aggregates.
        let state = state();
        let request = crate::jobs::JobRequest {
            platform: "pregel".into(),
            dataset: "G22".into(),
            algorithm: Algorithm::Bfs,
            mode: crate::jobs::JobMode::Measured,
            repetitions: 1,
            shards: 2,
            timeout_millis: None,
        };
        let token = graphalytics_core::fault::CancelToken::new();
        let result = state.execute(1, &request, &token, 0).unwrap();
        assert!(result.status.is_success(), "{:?}", result.status);
        state.results.insert(result);
        let resp = handle(&state, &get("/metrics"));
        let body = Json::parse(&resp.body).unwrap();
        let sharded = body.get("results").and_then(|r| r.get("sharded")).unwrap();
        assert_eq!(sharded.get("jobs"), Some(&Json::Num(1.0)));
        assert!(sharded.get("inter_shard_messages").and_then(Json::as_u64).unwrap() > 0);
        assert!(sharded.get("inter_shard_bytes").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn metrics_throughput_is_measured_not_simulated() {
        let state = state();
        let request = |mode| crate::jobs::JobRequest {
            platform: "native".into(),
            dataset: "G22".into(),
            algorithm: Algorithm::Bfs,
            mode,
            repetitions: 1,
            shards: 1,
            timeout_millis: None,
        };
        let results = |state: &ServiceState| {
            let body = Json::parse(&handle(state, &get("/metrics")).body).unwrap();
            body.get("results").unwrap().clone()
        };
        let token = graphalytics_core::fault::CancelToken::new();

        // An analytic job counts, but has no measured time to average.
        let analytic = state.execute(1, &request(JobMode::Analytic), &token, 0).unwrap();
        assert!(analytic.status.is_success(), "{:?}", analytic.status);
        state.results.insert(analytic);
        let aggregates = results(&state);
        assert_eq!(aggregates.get("successful"), Some(&Json::Num(1.0)));
        assert_eq!(aggregates.get("mean_eps"), Some(&Json::Null));
        assert_eq!(aggregates.get("mean_evps"), Some(&Json::Null));

        let measured = state.execute(2, &request(JobMode::Measured), &token, 0).unwrap();
        assert!(measured.status.is_success(), "{:?}", measured.status);
        let eps = measured.edges as f64 / measured.measured_wall_secs.unwrap();
        assert_ne!(eps, measured.eps(), "the cost model's figure is not the measured one");
        state.results.insert(measured);
        let aggregates = results(&state);
        assert_eq!(aggregates.get("successful"), Some(&Json::Num(2.0)));
        assert_eq!(aggregates.get("mean_eps").and_then(Json::as_f64), Some(eps));
        let per_platform = aggregates.get("per_platform").and_then(Json::as_arr).unwrap();
        assert_eq!(per_platform[0].get("jobs"), Some(&Json::Num(2.0)));
        assert_eq!(per_platform[0].get("mean_eps").and_then(Json::as_f64), Some(eps));
    }

    #[test]
    fn metrics_monitor_section_and_prometheus_format() {
        let state = state();
        state.metrics.histogram("job_seconds").observe_secs(0.25);
        state.metrics.counter("jobs_executed_total").inc();
        let resp = handle(&state, &get("/metrics"));
        let body = Json::parse(&resp.body).unwrap();
        let monitor = body.get("monitor").expect("monitor section");
        let utilization = monitor.get("utilization").unwrap();
        assert!(utilization.get("busy_fraction").is_some());
        assert!(utilization.get("per_worker_busy_secs").is_some());
        let histograms = monitor.get("histograms").unwrap();
        let Json::Arr(rows) = histograms else { panic!("histograms is an array") };
        let job_seconds = rows
            .iter()
            .find(|h| h.get("name").and_then(Json::as_str) == Some("job_seconds"))
            .expect("job_seconds histogram");
        assert_eq!(job_seconds.get("count"), Some(&Json::Num(1.0)));
        assert!(job_seconds.get("p95_secs").and_then(Json::as_f64).unwrap() > 0.0);

        let resp = handle(&state, &get("/metrics?format=prometheus"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        assert!(resp.body.contains("# TYPE jobs_executed_total counter"), "{}", resp.body);
        assert!(resp.body.contains("# TYPE job_seconds histogram"));
        assert!(resp.body.contains("job_seconds_count 1"));
        assert!(resp.body.contains("# TYPE pool_busy_fraction gauge"));
        assert!(resp.body.contains("pool_worker_0_busy_secs"));

        let resp = handle(&state, &get("/metrics?format=xml"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn archive_endpoint_serves_stored_archives() {
        let state = state();
        assert_eq!(handle(&state, &get("/jobs/1/archive")).status, 404);
        assert_eq!(handle(&state, &get("/jobs/one/archive")).status, 400);
        // A queued job exists but has no archive yet: 404 with the state.
        handle(
            &state,
            &post("/jobs", r#"{"platform":"native","dataset":"G22","algorithm":"bfs"}"#),
        );
        let resp = handle(&state, &get("/jobs/1/archive"));
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("queued"), "{}", resp.body);
        // Once an archive is filed under the id, it is served whole.
        let mut archiver = graphalytics_granula::Archiver::new("native", "bfs@G22");
        archiver.begin("ProcessGraph");
        archiver.end();
        state.store_archive(1, archiver.finish());
        let resp = handle(&state, &get("/jobs/1/archive"));
        assert_eq!(resp.status, 200);
        let archive =
            graphalytics_granula::PerformanceArchive::parse(&resp.body).expect("parses back");
        assert_eq!(archive.platform, "native");
        assert!(archive.root.find("ProcessGraph").is_some());
    }

    #[test]
    fn graphs_listing_shape() {
        let state = state();
        let resp = handle(&state, &get("/graphs"));
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("graphs"), Some(&Json::Arr(vec![])));
        assert!(body.get("scale_divisor").and_then(Json::as_u64).unwrap() > 0);
    }
}
