//! Recording and comparing golden transcripts of the daemon's HTTP
//! endpoints, shared by `transcript.rs` and `mutation_transcript.rs`.
//!
//! Only wall-clock-derived values are masked: every `measured_*` field,
//! the measured `mean_eps` / `mean_evps`, a mutation batch's
//! `apply_secs`, the delta logs' `compact_secs`, and the start and
//! duration of the archive root and of every non-simulated archive
//! operation.

use graphalytics_granula::json::Json;
use graphalytics_service::{Client, JobMode};

const MASK: &str = "<wall-clock>";

/// Replaces wall-clock-derived values with [`MASK`].
pub fn mask(value: &mut Json) {
    match value {
        Json::Obj(fields) => {
            // An archive operation timed by a wall clock, not the model.
            let wall_timed =
                fields.iter().any(|(k, v)| k == "simulated" && *v == Json::Bool(false));
            for (key, field) in fields.iter_mut() {
                let masked = match key.as_str() {
                    k if k.starts_with("measured_") => *field != Json::Null,
                    "mean_eps" | "mean_evps" | "apply_secs" | "compact_secs" => {
                        *field != Json::Null
                    }
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

pub struct Transcript {
    pub client: Client,
    pub text: String,
}

impl Transcript {
    pub fn new(client: Client) -> Transcript {
        Transcript { client, text: String::new() }
    }

    /// Records one round trip: the request line, the status and the
    /// masked body.
    pub fn record(&mut self, method: &str, path: &str, body: Option<&Json>) -> Json {
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
    pub fn record_metrics(&mut self, sections: &[&str]) {
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

    /// Compares the recording with the golden file at `golden`. On a
    /// mismatch the recording is written next to the test binaries, as
    /// `actual` under Cargo's target tmpdir, for diffing.
    pub fn check(&self, golden: &str, actual: &str) {
        let expected = std::fs::read_to_string(golden).unwrap_or_default();
        if self.text != expected {
            let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(actual);
            std::fs::write(&actual, &self.text).expect("write the recording");
            let line = expected
                .lines()
                .zip(self.text.lines())
                .position(|(g, a)| g != a)
                .map_or("past the shorter one".to_string(), |i| (i + 1).to_string());
            panic!(
                "transcript differs from {golden} at line {line}; the recording is in {}",
                actual.display()
            );
        }
    }
}

pub fn submission(platform: &str, dataset: &str, algorithm: &str, mode: JobMode) -> Json {
    Json::obj(vec![
        ("platform", Json::str(platform)),
        ("dataset", Json::str(dataset)),
        ("algorithm", Json::str(algorithm)),
        ("mode", Json::str(mode.as_str())),
    ])
}
