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
//! Only wall-clock-derived values are masked: every `measured_*` field,
//! the measured `mean_eps` / `mean_evps`, and the start and duration of
//! the archive root and of every non-simulated archive operation.
//!
//! On a mismatch the recording is written next to the test binaries
//! (`transcript.actual` under Cargo's target tmpdir) for diffing.

use std::time::Duration;

use graphalytics_granula::json::Json;
use graphalytics_service::{Client, GraphStoreConfig, JobMode, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/transcript.golden");
const MASK: &str = "<wall-clock>";

/// Replaces wall-clock-derived values with [`MASK`].
fn mask(value: &mut Json) {
    match value {
        Json::Obj(fields) => {
            // An archive operation timed by a wall clock, not the model.
            let wall_timed = fields
                .iter()
                .any(|(k, v)| k == "simulated" && *v == Json::Bool(false));
            for (key, field) in fields.iter_mut() {
                let masked = match key.as_str() {
                    k if k.starts_with("measured_") => *field != Json::Null,
                    "mean_eps" | "mean_evps" => *field != Json::Null,
                    "start_secs" | "duration_secs" => wall_timed,
                    _ => false,
                };
                if masked {
                    *field = Json::str(MASK);
                } else {
                    mask(field);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

struct Transcript {
    client: Client,
    text: String,
}

impl Transcript {
    /// Records one round trip: the request line, the status and the
    /// masked body.
    fn record(&mut self, method: &str, path: &str, body: Option<&Json>) -> Json {
        let (status, text) = self.client.request_raw(method, path, body).expect("round trip");
        let mut json = Json::parse(&text).expect("JSON body");
        let response = json.clone();
        mask(&mut json);
        self.text.push_str(&format!("{method} {path} -> {status}\n"));
        if let Some(body) = body {
            self.text.push_str(&format!("> {}\n", body.to_string_compact()));
        }
        self.text.push_str(&json.to_string_pretty());
        self.text.push_str("\n\n");
        response
    }

    /// Records the named sections of one `GET /metrics`.
    fn record_metrics(&mut self, sections: &[&str]) {
        let (status, text) = self.client.request_raw("GET", "/metrics", None).expect("metrics");
        let metrics = Json::parse(&text).expect("JSON body");
        for section in sections {
            let mut json = metrics.get(section).expect("metrics section").clone();
            mask(&mut json);
            self.text.push_str(&format!("GET /metrics [{section}] -> {status}\n"));
            self.text.push_str(&json.to_string_pretty());
            self.text.push_str("\n\n");
        }
    }
}

fn submission(platform: &str, dataset: &str, algorithm: &str, mode: JobMode) -> Json {
    Json::obj(vec![
        ("platform", Json::str(platform)),
        ("dataset", Json::str(dataset)),
        ("algorithm", Json::str(algorithm)),
        ("mode", Json::str(mode.as_str())),
    ])
}

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
    let mut transcript = Transcript { client: client.clone(), text: String::new() };

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

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if transcript.text != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("transcript.actual");
        std::fs::write(&actual, &transcript.text).expect("write the recording");
        let line = golden
            .lines()
            .zip(transcript.text.lines())
            .position(|(g, a)| g != a)
            .map_or("past the shorter one".to_string(), |i| (i + 1).to_string());
        panic!(
            "transcript differs from {GOLDEN} at line {line}; the recording is in {}",
            actual.display()
        );
    }
}
