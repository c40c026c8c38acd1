//! Golden transcript of the daemon's mutation path.
//!
//! A one-worker daemon runs a fixed sequence on R1, each step submitted
//! only after the previous one is terminal:
//!
//! 1. a measured job;
//! 2. a batch naming an undeclared vertex (a 400);
//! 3. a generated batch below the fill ratio;
//! 4. `pushpull` and `native` jobs;
//! 5. a generated batch that compacts the log, then a job;
//! 6. one more generated batch, then a job.
//!
//! After each step the test records `GET /graphs` and the `store` and
//! `mutations` sections of `GET /metrics`; it records every mutation
//! response and every job's `GET /jobs/:id`, and compares the recording
//! with `tests/mutation_transcript.golden` byte for byte. Wall-clock
//! values are masked as `common::mask` describes. On a mismatch the
//! recording is written to `mutation_transcript.actual` under Cargo's
//! target tmpdir.

mod common;

use std::time::Duration;

use common::{submission, Transcript};
use graphalytics_granula::json::Json;
use graphalytics_service::{Client, GraphStoreConfig, JobMode, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/mutation_transcript.golden");

fn generate(insert: u64, delete: u64, seed: u64) -> Json {
    Json::obj(vec![(
        "generate",
        Json::obj(vec![
            ("insert", Json::Num(insert as f64)),
            ("delete", Json::Num(delete as f64)),
            ("seed", Json::Num(seed as f64)),
        ]),
    )])
}

impl Transcript {
    /// Submits one measured job on R1, waits for it and records its
    /// acknowledgement and its terminal record.
    fn job(&mut self, platform: &str, algorithm: &str) {
        let ack = self.record(
            "POST",
            "/jobs",
            Some(&submission(platform, "R1", algorithm, JobMode::Measured)),
        );
        let id = ack.get("id").and_then(Json::as_u64).expect("job accepted");
        self.client.wait(id, Duration::from_secs(120)).expect("job reaches a terminal state");
        self.record("GET", &format!("/jobs/{id}"), None);
    }

    fn mutate(&mut self, body: &Json) -> Json {
        self.record("POST", "/graphs/R1/mutations", Some(body))
    }

    /// The state every step ends with: the listing and the store and
    /// delta-log counters.
    fn state(&mut self) {
        self.record("GET", "/graphs", None);
        self.record_metrics(&["store", "mutations"]);
    }
}

#[test]
fn mutation_path_matches_the_golden_transcript() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        store: GraphStoreConfig { scale_divisor: 8192, ..GraphStoreConfig::default() },
        seed: 0xB5ED,
        pool_threads: 2,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let mut transcript = Transcript::new(Client::new(service.addr().to_string()));

    transcript.job("native", "bfs");
    transcript.state();

    let undeclared = Json::obj(vec![(
        "insert",
        Json::Arr(vec![Json::Arr(vec![Json::Num(1.0e12), Json::Num(0.0)])]),
    )]);
    transcript.mutate(&undeclared);
    transcript.state();

    let report = transcript.mutate(&generate(8, 2, 1));
    assert_eq!(report.get("compacted"), Some(&Json::Bool(false)), "{report:?}");
    transcript.state();

    transcript.job("pushpull", "wcc");
    transcript.job("native", "wcc");
    transcript.state();

    let report = transcript.mutate(&generate(400, 100, 2));
    assert_eq!(report.get("compacted"), Some(&Json::Bool(true)), "{report:?}");
    transcript.job("native", "wcc");
    transcript.state();

    let report = transcript.mutate(&generate(8, 2, 3));
    assert_eq!(report.get("compacted"), Some(&Json::Bool(false)), "{report:?}");
    transcript.job("native", "wcc");
    transcript.state();
    service.shutdown();

    transcript.check(GOLDEN, "mutation_transcript.actual");
}
