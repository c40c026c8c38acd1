//! Golden transcript of the daemon's read endpoints.
//!
//! A one-worker daemon runs a fixed sequence of jobs — analytic jobs on
//! three platforms × three algorithms, a push-pull LCC job (an
//! `unsupported` verdict), a rejected submission and one measured job —
//! each submitted only after the previous one is terminal. The test
//! records every job's `GET /jobs/:id`, then `GET /jobs`, `GET /results`,
//! one analytic job's `GET /jobs/:id/archive`, and the `jobs` and
//! `results` sections of `GET /metrics`, and compares the recording with
//! `tests/transcript.golden` byte for byte.
//!
//! Wall-clock values are masked as `common::mask` describes. On a
//! mismatch the recording is written next to the test binaries
//! (`transcript.actual` under Cargo's target tmpdir) for diffing.

mod common;

use std::time::Duration;

use common::{submission, Transcript};
use graphalytics_granula::json::Json;
use graphalytics_service::{Client, GraphStoreConfig, JobMode, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/transcript.golden");

#[test]
fn read_endpoints_match_the_golden_transcript() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        store: GraphStoreConfig { scale_divisor: 8192, ..GraphStoreConfig::default() },
        seed: 0xB5ED,
        pool_threads: 2,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(service.addr().to_string());
    let mut transcript = Transcript::new(client.clone());

    let mut submissions = Vec::new();
    for platform in ["native", "spmv", "pregel"] {
        for algorithm in ["bfs", "pr", "wcc"] {
            submissions.push(submission(platform, "G22", algorithm, JobMode::Analytic));
        }
    }
    submissions.push(submission("pushpull", "G22", "lcc", JobMode::Analytic));
    submissions.push(submission("quantum", "G22", "bfs", JobMode::Analytic));
    submissions.push(submission("native", "R1", "bfs", JobMode::Measured));

    let mut ids = Vec::new();
    for body in &submissions {
        let ack = transcript.record("POST", "/jobs", Some(body));
        let Some(id) = ack.get("id").and_then(Json::as_u64) else { continue };
        client.wait(id, Duration::from_secs(120)).expect("job reaches a terminal state");
        ids.push(id);
    }
    for id in &ids {
        transcript.record("GET", &format!("/jobs/{id}"), None);
    }
    transcript.record("GET", "/jobs", None);
    transcript.record("GET", "/results", None);
    transcript.record("GET", &format!("/jobs/{}/archive", ids[0]), None);
    transcript.record_metrics(&["jobs", "results"]);
    service.shutdown();

    transcript.check(GOLDEN, "transcript.actual");
}
