//! Loopback integration tests: a real daemon on an ephemeral port,
//! hammered through the client library.
//!
//! The acceptance scenario: ≥ 8 concurrent submissions across ≥ 2
//! platforms and ≥ 3 algorithms, every dataset generated exactly once
//! (observed through the `GET /metrics` cache counters), and every job
//! completing with a validated result.
//!
//! Run with `--test-threads=1`: each test owns a daemon, and serial
//! execution keeps graph generation times (and therefore poll timeouts)
//! predictable on small CI machines.

use std::time::Duration;

use graphalytics_granula::json::Json;
use graphalytics_service::{Client, GraphStoreConfig, JobMode, Service, ServiceConfig};

fn start_service(workers: usize) -> (Service, Client) {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        store: GraphStoreConfig { scale_divisor: 8192, ..GraphStoreConfig::default() },
        seed: 0xB5ED,
        pool_threads: 2,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(service.addr().to_string());
    (service, client)
}

#[test]
fn concurrent_jobs_share_generated_graphs() {
    let (service, client) = start_service(4);

    // 2 datasets × 2 platforms × 3 algorithms = 12 measured jobs, all
    // submitted up front from parallel client threads.
    let datasets = ["G22", "R1"];
    let platforms = ["native", "spmv"];
    let algorithms = ["bfs", "pr", "wcc"];
    let mut ids = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for dataset in datasets {
            for platform in platforms {
                for algorithm in algorithms {
                    let client = &client;
                    handles.push(scope.spawn(move || {
                        client
                            .submit(platform, dataset, algorithm, JobMode::Measured)
                            .expect("submission accepted")
                    }));
                }
            }
        }
        for handle in handles {
            ids.push(handle.join().unwrap());
        }
    });
    assert_eq!(ids.len(), 12);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 12, "every submission got a distinct id");

    // Every job finishes and carries a validated (completed) result.
    for id in &ids {
        let record = client.wait(*id, Duration::from_secs(120)).expect("job finishes");
        assert_eq!(
            record.get("state").and_then(Json::as_str),
            Some("completed"),
            "job {id}: {record:?}"
        );
        let result = record.get("result").expect("completed job carries a result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("completed"),
            "job {id} validated: {result:?}"
        );
        assert!(result.get("eps").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(result.get("measured_wall_secs").and_then(Json::as_f64).is_some());
    }

    // The cache generated each dataset exactly once: 2 misses, 10 hits.
    let metrics = client.metrics().expect("metrics");
    let store = metrics.get("store").unwrap();
    assert_eq!(store.get("generations").and_then(Json::as_u64), Some(2), "{metrics:?}");
    assert_eq!(store.get("misses").and_then(Json::as_u64), Some(2));
    assert_eq!(store.get("hits").and_then(Json::as_u64), Some(10));
    assert_eq!(store.get("evictions").and_then(Json::as_u64), Some(0));
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(12));
    assert_eq!(jobs.get("failed").and_then(Json::as_u64), Some(0));

    // The shared-pool gate: every measured execution (and both CSR
    // uploads) must have run on the daemon's single worker pool — if the
    // pool were bypassed (or per-job pools spawned), `runs` would be 0.
    // Sharded jobs are covered too, by
    // `sharded_job_serves_granula_archive_with_telemetry`.
    let pool = metrics.get("pool").expect("pool metrics present");
    assert_eq!(pool.get("threads").and_then(Json::as_u64), Some(2));
    assert!(
        pool.get("runs").and_then(Json::as_u64).unwrap() > 0,
        "measured jobs must execute on the shared pool: {metrics:?}"
    );
    assert!(
        pool.get("dispatches").and_then(Json::as_u64).unwrap() > 0,
        "a 2-wide pool must actually dispatch to its worker: {metrics:?}"
    );
    // The HTTP-reported counters and the in-process pool agree.
    let in_process = service.state().pool.stats();
    assert!(in_process.runs >= pool.get("runs").and_then(Json::as_u64).unwrap());

    // EPS/EVPS aggregates cover both platforms.
    let results = metrics.get("results").unwrap();
    assert_eq!(results.get("successful").and_then(Json::as_u64), Some(12));
    assert!(results.get("mean_eps").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(results.get("mean_evps").and_then(Json::as_f64).unwrap() > 0.0);
    let per_platform = results.get("per_platform").and_then(Json::as_arr).unwrap();
    let names: Vec<_> =
        per_platform.iter().map(|p| p.get("platform").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(names, vec!["native", "spmv"]);

    // Both graphs are resident and listed.
    let graphs = client.graphs().expect("graphs");
    let rows = graphs.get("graphs").and_then(Json::as_arr).unwrap();
    let mut resident: Vec<_> =
        rows.iter().map(|g| g.get("dataset").and_then(Json::as_str).unwrap()).collect();
    resident.sort_unstable();
    assert_eq!(resident, vec!["G22", "R1"]);

    // The results database export holds all twelve records.
    let results = client.results().expect("results export");
    assert_eq!(results.as_arr().map(<[Json]>::len), Some(12));

    service.shutdown();
}

#[test]
fn analytic_jobs_skip_the_graph_store() {
    let (service, client) = start_service(2);
    let id = client.submit("pregel", "D300", "pr", JobMode::Analytic).unwrap();
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"));
    let result = record.get("result").unwrap();
    assert_eq!(result.get("status").and_then(Json::as_str), Some("completed"));
    // Analytic runs report the paper-published size and no wall clock.
    assert_eq!(result.get("vertices").and_then(Json::as_u64), Some(4_350_000));
    assert_eq!(result.get("measured_wall_secs"), Some(&Json::Null));
    let store = client.metrics().unwrap().get("store").cloned().unwrap();
    assert_eq!(store.get("generations").and_then(Json::as_u64), Some(0));
    service.shutdown();
}

#[test]
fn benchmark_verdicts_surface_in_job_results() {
    let (service, client) = start_service(2);
    // LCC on the PGX.D-like engine is NA in the paper; the job completes
    // with an `unsupported` verdict rather than failing the request.
    let id = client.submit("pushpull", "R2", "lcc", JobMode::Analytic).unwrap();
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"));
    let result = record.get("result").unwrap();
    assert_eq!(result.get("status").and_then(Json::as_str), Some("unsupported"));
    service.shutdown();
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let (service, client) = start_service(1);
    for (platform, dataset, algorithm) in [
        ("quantum", "G22", "bfs"),
        ("native", "R99", "bfs"),
        ("native", "G22", "dfs"),
        ("native", "G22", "sssp"), // unweighted dataset
    ] {
        match client.submit(platform, dataset, algorithm, JobMode::Analytic) {
            Err(graphalytics_service::ClientError::Api { status: 400, .. }) => {}
            other => panic!("{platform}/{dataset}/{algorithm}: expected 400, got {other:?}"),
        }
    }
    // Unknown job id and malformed id.
    match client.job(999) {
        Err(graphalytics_service::ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    match client.request("GET", "/jobs/abc", None) {
        Err(graphalytics_service::ClientError::Api { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    // The daemon survived all of it.
    assert_eq!(client.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));
    service.shutdown();
}

#[test]
fn sharded_job_serves_granula_archive_with_telemetry() {
    let (service, client) = start_service(2);
    let pool_stat = |metrics: &Json, key: &str| {
        metrics.get("pool").and_then(|p| p.get(key)).and_then(Json::as_u64).unwrap()
    };
    let before = client.metrics().expect("metrics");
    // A sharded (shards=2) measured pregel BFS, submitted raw so the
    // shards field reaches the API.
    let body = Json::obj(vec![
        ("platform", Json::str("pregel")),
        ("dataset", Json::str("G22")),
        ("algorithm", Json::str("bfs")),
        ("mode", Json::str("measured")),
        ("shards", Json::Num(2.0)),
    ]);
    let id = client
        .request("POST", "/jobs", Some(&body))
        .expect("submission accepted")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let record = client.wait(id, Duration::from_secs(120)).expect("job finishes");
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"));

    // GET /jobs/:id/archive returns the full Granula archive: Job →
    // ExecuteReal → ProcessGraph → Superstep → Shard with counters, plus
    // the monitor's resource samples.
    let archive = client.archive(id).expect("archive served");
    assert_eq!(archive.platform, "pregel");
    assert_eq!(archive.root.name, "Job");
    let process = archive
        .root
        .find("ExecuteReal")
        .expect("ExecuteReal op")
        .find("ProcessGraph")
        .expect("ProcessGraph under ExecuteReal");
    assert!(!process.children.is_empty(), "per-superstep spans archived");
    for step in &process.children {
        assert_eq!(step.name, "Superstep");
        assert!(step.infos.iter().any(|(k, _)| k == "messages"));
        assert!(step.infos.iter().any(|(k, _)| k == "edges_scanned"));
        assert_eq!(step.children.iter().filter(|c| c.name == "Shard").count(), 2);
    }
    let monitor = archive.root.find("Monitor").expect("Monitor op");
    assert!(!monitor.children.is_empty(), "≥1 resource sample attached");
    assert!(monitor.children.iter().any(|s| {
        s.name == "ResourceSample" && s.infos.iter().any(|(k, _)| k == "pool_busy_fraction")
    }));

    // The visualizer renders the served archive.
    let rendered = graphalytics_granula::visualize::render(&archive);
    assert!(rendered.contains("Superstep"), "{rendered}");
    assert!(rendered.contains("Shard"));

    // Jobs without archives (still queued / unknown) 404.
    match client.archive(id + 100) {
        Err(graphalytics_service::ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    // The monitor registry surfaces the run through both formats.
    let metrics = client.metrics().expect("metrics");
    // The shared-pool gate, sharded: both shards' lanes ran on the
    // daemon's one pool, at least one pool run per superstep.
    let supersteps = process.children.len() as u64;
    assert!(
        pool_stat(&metrics, "runs") - pool_stat(&before, "runs") >= supersteps,
        "every sharded superstep runs on the shared pool: {metrics:?}"
    );
    assert!(
        pool_stat(&metrics, "dispatches") > pool_stat(&before, "dispatches"),
        "a sharded job must dispatch to the shared pool's worker: {metrics:?}"
    );
    let monitor = metrics.get("monitor").expect("monitor section");
    let histograms = monitor.get("histograms").and_then(Json::as_arr).unwrap();
    let job_seconds = histograms
        .iter()
        .find(|h| h.get("name").and_then(Json::as_str) == Some("job_seconds"))
        .expect("job_seconds histogram");
    assert_eq!(job_seconds.get("count").and_then(Json::as_u64), Some(1));
    assert!(job_seconds.get("p99_secs").and_then(Json::as_f64).unwrap() > 0.0);
    let utilization = monitor.get("utilization").unwrap();
    assert!(utilization.get("busy_secs").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(
        utilization.get("per_worker_busy_secs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(2),
        "one entry per pool worker"
    );
    let text = client.metrics_prometheus().expect("prometheus exposition");
    assert!(text.contains("# TYPE job_seconds histogram"), "{text}");
    assert!(text.contains("job_seconds_count 1"));
    assert!(text.contains("# TYPE pool_busy_fraction gauge"));
    assert!(text.contains("jobs_executed_total 1"));

    service.shutdown();
}

#[test]
fn mutations_reject_undeclared_vertices_and_jobs_run_on_mutated_graphs() {
    let (service, client) = start_service(2);

    // Make G22 resident and establish a pre-mutation baseline.
    let id = client.submit("pushpull", "G22", "wcc", JobMode::Measured).unwrap();
    let record = client.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"));
    let baseline_edges = record
        .get("result")
        .and_then(|r| r.get("edges"))
        .and_then(Json::as_u64)
        .expect("baseline edge count");

    // Satellite: a batch referencing an undeclared vertex is a structured
    // 400 with the offending id in the message — not a worker crash — and
    // leaves the delta log untouched.
    let body = Json::obj(vec![(
        "insert",
        Json::Arr(vec![Json::Arr(vec![Json::Num(1.0e12), Json::Num(0.0)])]),
    )]);
    match client.mutate("G22", &body) {
        Err(graphalytics_service::ClientError::Api { status: 400, message }) => {
            assert!(message.contains("undeclared vertex"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    // Unknown dataset: 404. Malformed rows: 400.
    match client.mutate_generated("R99", 1, 0, 0) {
        Err(graphalytics_service::ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    let bad = Json::obj(vec![("insert", Json::Arr(vec![Json::Num(3.0)]))]);
    match client.mutate("G22", &bad) {
        Err(graphalytics_service::ClientError::Api { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    let metrics = client.metrics().unwrap();
    let mutations = metrics.get("mutations").expect("mutations section");
    assert_eq!(mutations.get("applied_batches").and_then(Json::as_u64), Some(0));

    // A server-generated batch applies: net edge growth, counters move.
    let report = client.mutate_generated("G22", 64, 16, 7).expect("batch applies");
    assert_eq!(report.get("inserted").and_then(Json::as_u64), Some(64), "{report:?}");
    assert!(report.get("deleted").and_then(Json::as_u64).unwrap() > 0);
    assert!(report.get("fill_ratio").and_then(Json::as_f64).is_some());

    // Jobs targeting the dataset now run on the materialized
    // post-mutation snapshot — on every platform, with validation against
    // the mutated graph — and report its edge count.
    for platform in ["pushpull", "native"] {
        let id = client.submit(platform, "G22", "wcc", JobMode::Measured).unwrap();
        let record = client.wait(id, Duration::from_secs(120)).unwrap();
        let result = record.get("result").expect("result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("completed"),
            "{platform}: {result:?}"
        );
        let edges = result.get("edges").and_then(Json::as_u64).unwrap();
        let deleted = report.get("deleted").and_then(Json::as_u64).unwrap();
        assert_eq!(edges, baseline_edges + 64 - deleted, "{platform}: mutated edge count");
    }

    // The delta-log counters surface through GET /metrics (JSON and
    // Prometheus) and the graph listing flags the mutated entry.
    let metrics = client.metrics().unwrap();
    let mutations = metrics.get("mutations").expect("mutations section");
    assert_eq!(mutations.get("mutated_graphs").and_then(Json::as_u64), Some(1));
    assert_eq!(mutations.get("applied_batches").and_then(Json::as_u64), Some(1));
    assert_eq!(mutations.get("inserted_edges").and_then(Json::as_u64), Some(64));
    assert!(mutations.get("snapshot_builds").and_then(Json::as_u64).unwrap() >= 1);
    let text = client.metrics_prometheus().unwrap();
    assert!(text.contains("mutation_applied_batches 1"), "{text}");
    let graphs = client.graphs().unwrap();
    let rows = graphs.get("graphs").and_then(Json::as_arr).unwrap();
    let g22 = rows
        .iter()
        .find(|g| g.get("dataset").and_then(Json::as_str) == Some("G22"))
        .expect("G22 resident");
    assert_eq!(g22.get("mutated"), Some(&Json::Bool(true)));
    // The listing reports the graph the jobs above ran on.
    assert_eq!(
        g22.get("edges").and_then(Json::as_u64),
        Some(baseline_edges + 64 - report.get("deleted").and_then(Json::as_u64).unwrap()),
        "listed edges of G22 vs the jobs' result edges"
    );

    // The daemon survived everything.
    assert_eq!(client.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));
    service.shutdown();
}

#[test]
fn validation_references_are_resident_per_graph_snapshot() {
    // A one-byte store: every newly generated graph evicts the others.
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        store: GraphStoreConfig {
            capacity_bytes: 1,
            scale_divisor: 8192,
            ..GraphStoreConfig::default()
        },
        seed: 0xB5ED,
        pool_threads: 2,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(service.addr().to_string());
    let run = |platform: &str, dataset: &str| {
        let id = client.submit(platform, dataset, "pr", JobMode::Measured).unwrap();
        let record = client.wait(id, Duration::from_secs(120)).unwrap();
        let status = record.get("result").and_then(|r| r.get("status")).and_then(Json::as_str);
        assert_eq!(status, Some("completed"), "{platform} pr on {dataset}: {record:?}");
        let metrics = client.metrics().unwrap();
        let references = metrics.get("references").expect("references section").clone();
        let field = |key: &str| references.get(key).and_then(Json::as_u64).unwrap();
        (field("hits"), field("misses"), field("entries"), field("resident_bytes"))
    };

    // The same cell twice on one graph: the second job reuses the first
    // job's reference, and so does another engine on that graph.
    let (hits, misses, entries, _) = run("native", "G22");
    assert_eq!((hits, misses, entries), (0, 1, 1));
    let (hits, misses, entries, bytes) = run("native", "G22");
    assert_eq!((hits, misses, entries), (1, 1, 1));
    assert!(bytes > 0);
    assert_eq!(run("spmv", "G22").0, 2);

    // R1 evicts G22 from the store; inserting R1's reference drops the
    // entry of the graph nobody holds any more.
    let (hits, misses, entries, _) = run("native", "R1");
    assert_eq!((hits, misses, entries), (2, 2, 1));

    // A mutation batch makes a new snapshot: the next job is a miss.
    client.mutate_generated("R1", 16, 4, 7).expect("batch applies");
    let (hits, misses, entries, _) = run("native", "R1");
    assert_eq!((hits, misses, entries), (2, 3, 2), "the pre-batch graph is still resident");
    let (hits, misses, _, _) = run("native", "R1");
    assert_eq!((hits, misses), (3, 3), "the snapshot's reference is resident in turn");

    // The Prometheus exposition carries the same numbers as gauges.
    let text = client.metrics_prometheus().unwrap();
    assert!(text.contains("reference_hits 3"), "{text}");
    assert!(text.contains("reference_misses 3"), "{text}");
    assert!(text.contains("# TYPE reference_resident_bytes gauge"), "{text}");
    service.shutdown();
}

#[test]
fn queued_jobs_can_be_cancelled() {
    // Single worker: two heavy head-of-line jobs occupy it while we
    // cancel a job that is still safely queued behind them.
    let (service, client) = start_service(1);
    let first = client.submit("native", "G25", "lcc", JobMode::Measured).unwrap();
    let second = client.submit("native", "G24", "lcc", JobMode::Measured).unwrap();
    let victim = client.submit("native", "G23", "pr", JobMode::Measured).unwrap();
    let cancelled = client.cancel(victim).expect("queued job cancels");
    assert_eq!(cancelled.get("state").and_then(Json::as_str), Some("cancelled"));
    // Cancelling again conflicts.
    match client.cancel(victim) {
        Err(graphalytics_service::ClientError::Api { status: 409, .. }) => {}
        other => panic!("expected 409, got {other:?}"),
    }
    // The blockers still complete, the cancelled one never runs.
    for id in [first, second] {
        let record = client.wait(id, Duration::from_secs(120)).unwrap();
        assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"));
    }
    let jobs = client.metrics().unwrap().get("jobs").cloned().unwrap();
    assert_eq!(jobs.get("cancelled").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(2));
    service.shutdown();
}

/// A daemon whose fault plan injects into every executed job.
fn start_faulty_service(
    workers: usize,
    plan: graphalytics_core::fault::FaultPlan,
) -> (Service, Client) {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        store: GraphStoreConfig { scale_divisor: 8192, ..GraphStoreConfig::default() },
        seed: 0xB5ED,
        pool_threads: 2,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(service.addr().to_string());
    (service, client)
}

/// One monitor counter out of the `GET /metrics` JSON.
fn monitor_counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("monitor")
        .and_then(|m| m.get("counters"))
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|c| c.get("value").and_then(Json::as_u64))
        })
        .unwrap_or(0)
}

#[test]
fn running_jobs_cancel_at_superstep_boundaries() {
    use graphalytics_core::fault::{FaultKind, FaultPlan, FaultSite, Injection};
    use std::time::Instant;
    // Every job stalls 5 s at its first superstep — a wide window to
    // catch the job mid-run and cancel it.
    let plan = FaultPlan::scripted(vec![Injection::new(
        FaultSite::Superstep,
        0,
        FaultKind::Stall { millis: 5_000 },
    )]);
    let (service, client) = start_faulty_service(1, plan);
    let id = client.submit("native", "G22", "bfs", JobMode::Measured).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let record = client.job(id).unwrap();
        if record.get("state").and_then(Json::as_str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let cancelled_at = Instant::now();
    // Running-cancel is acknowledged (202) with the record still running
    // and the cancellation flagged; the driver aborts at the next
    // superstep boundary.
    let ack = client.cancel(id).expect("running job accepts cancellation");
    assert_eq!(ack.get("state").and_then(Json::as_str), Some("running"));
    assert_eq!(ack.get("cancel_requested"), Some(&Json::Bool(true)));
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("cancelled"), "{record:?}");
    let result = record.get("result").expect("cancelled job keeps its structured result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("cancelled"));
    // Prompt abort: nowhere near the 5 s the stall would have burned.
    assert!(cancelled_at.elapsed() < Duration::from_secs(4), "abort was not prompt");
    let metrics = client.metrics().unwrap();
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("cancelled").and_then(Json::as_u64), Some(1));
    assert_eq!(monitor_counter(&metrics, "jobs_cancelled_running_total"), 1);
    // The daemon survived and keeps serving.
    assert_eq!(client.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));
    service.shutdown();
}

#[test]
fn deadline_expiry_times_out_the_job() {
    use graphalytics_core::fault::{FaultKind, FaultPlan, FaultSite, Injection};
    // The stall guarantees the run outlives its 400 ms deadline.
    let plan = FaultPlan::scripted(vec![Injection::new(
        FaultSite::Superstep,
        0,
        FaultKind::Stall { millis: 5_000 },
    )]);
    let (service, client) = start_faulty_service(1, plan);
    let id = client
        .submit_with_timeout("native", "G22", "bfs", JobMode::Measured, 1, Some(0.4))
        .unwrap();
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("timed-out"), "{record:?}");
    assert_eq!(record.get("timeout_secs").and_then(Json::as_f64), Some(0.4));
    let result = record.get("result").expect("timed-out job keeps its structured result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("timed-out"));
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("jobs").and_then(|j| j.get("timed_out")), Some(&Json::Num(1.0)));
    assert_eq!(monitor_counter(&metrics, "jobs_timed_out_total"), 1);
    assert_eq!(client.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));
    service.shutdown();
}

#[test]
fn transient_faults_retry_to_completion() {
    use graphalytics_core::fault::{FaultKind, FaultPlan, FaultSite, Injection};
    // `once` = first attempt only: the retry runs fault-free and the job
    // completes as if nothing happened.
    let plan =
        FaultPlan::scripted(vec![Injection::once(FaultSite::Superstep, 0, FaultKind::Transient)]);
    let (service, client) = start_faulty_service(1, plan);
    let id = client.submit("native", "G22", "bfs", JobMode::Measured).unwrap();
    let record = client.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"), "{record:?}");
    let result = record.get("result").expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("completed"));
    let metrics = client.metrics().unwrap();
    assert_eq!(monitor_counter(&metrics, "jobs_retried_total"), 1);
    assert_eq!(metrics.get("jobs").and_then(|j| j.get("failed")), Some(&Json::Num(0.0)));
    service.shutdown();
}

#[test]
fn failed_snapshot_build_fails_the_job_and_the_daemon_keeps_serving() {
    use graphalytics_core::fault::{FaultKind, FaultPlan, FaultSite, Injection};
    // Every job's first CSR build fails: for a job on a mutated dataset
    // that is its snapshot's materialize.
    let plan = FaultPlan::scripted(vec![Injection::new(FaultSite::Build, 0, FaultKind::Alloc)]);
    let (service, client) = start_faulty_service(1, plan);
    client.mutate_generated("G22", 64, 16, 7).expect("batch applies");
    let id = client.submit("native", "G22", "bfs", JobMode::Measured).unwrap();
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("failed"), "{record:?}");
    let error = record.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("snapshot of G22 failed"), "{record:?}");
    // An unmutated dataset has no snapshot to build: its job completes.
    let id = client.submit("native", "R1", "bfs", JobMode::Measured).unwrap();
    let record = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(record.get("state").and_then(Json::as_str), Some("completed"), "{record:?}");
    let metrics = client.metrics().unwrap();
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(monitor_counter(&metrics, "jobs_unrunnable_total"), 1);
    assert_eq!(monitor_counter(&metrics, "jobs_panicked_total"), 0);
    let mutations = metrics.get("mutations").expect("mutations section");
    assert_eq!(mutations.get("snapshot_builds").and_then(Json::as_u64), Some(0));
    assert_eq!(client.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));
    service.shutdown();
}
