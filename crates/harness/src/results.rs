//! The one serialization of a result (components 9 and 12 of Figure 1).
//!
//! [`result_json`] is the shape every consumer of a [`JobResult`] reads:
//! the service daemon's `GET /jobs/:id` and `GET /results`, whose job
//! table is the results database, and the benchmark's replayed jobs.

use graphalytics_granula::json::Json;

use crate::driver::{JobResult, JobStatus};

/// Serializes a single result to a JSON object.
pub fn result_json(r: &JobResult) -> Json {
    Json::obj(vec![
        ("platform", Json::str(&r.platform)),
        ("paper_analog", Json::str(&r.paper_analog)),
        ("dataset", Json::str(&r.dataset)),
        ("algorithm", Json::str(r.algorithm.acronym())),
        ("machines", Json::Num(r.machines as f64)),
        ("threads", Json::Num(r.threads as f64)),
        ("shards", Json::Num(r.shards as f64)),
        ("cut_fraction", r.cut_fraction.map(Json::Num).unwrap_or(Json::Null)),
        (
            "status",
            Json::str(match &r.status {
                JobStatus::Completed => "completed".to_string(),
                JobStatus::Unsupported => "unsupported".to_string(),
                JobStatus::OutOfMemory => "oom".to_string(),
                JobStatus::SlaViolation => "sla-violation".to_string(),
                JobStatus::ValidationFailed(m) => format!("validation-failed: {m}"),
                JobStatus::Cancelled => "cancelled".to_string(),
                JobStatus::TimedOut => "timed-out".to_string(),
                JobStatus::Faulted { transient, message } => {
                    let class = if *transient { "transient" } else { "permanent" };
                    format!("faulted ({class}): {message}")
                }
            }),
        ),
        ("vertices", Json::Num(r.vertices as f64)),
        ("edges", Json::Num(r.edges as f64)),
        ("upload_secs", Json::Num(r.upload_secs)),
        ("processing_secs", Json::Num(r.processing_secs)),
        ("processing_min_secs", Json::Num(r.processing_min_secs)),
        ("processing_max_secs", Json::Num(r.processing_max_secs)),
        ("makespan_secs", Json::Num(r.makespan_secs)),
        (
            "measured_wall_secs",
            r.measured_wall_secs.map(Json::Num).unwrap_or(Json::Null),
        ),
        (
            "measured_upload_secs",
            r.measured_upload_secs.map(Json::Num).unwrap_or(Json::Null),
        ),
        ("repetitions", Json::Num(r.repetitions() as f64)),
        (
            "runs",
            Json::Arr(
                r.runs
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("run_index", Json::Num(m.run_index as f64)),
                            ("processing_secs", Json::Num(m.processing_secs)),
                            ("makespan_secs", Json::Num(m.makespan_secs)),
                            (
                                "measured_wall_secs",
                                m.measured_wall_secs.map(Json::Num).unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("eps", Json::Num(r.eps())),
        ("evps", Json::Num(r.evps())),
        ("supersteps", Json::Num(r.counters.supersteps as f64)),
        ("messages", Json::Num(r.counters.messages as f64)),
        ("edges_scanned", Json::Num(r.counters.edges_scanned as f64)),
        ("inter_shard_messages", Json::Num(r.counters.inter_shard_messages as f64)),
        ("inter_shard_bytes", Json::Num(r.counters.inter_shard_bytes as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_cluster::{ClusterSpec, WorkCounters};
    use graphalytics_core::Algorithm;

    fn fake(platform: &str, dataset: &str, secs: f64, ok: bool) -> JobResult {
        let _ = ClusterSpec::single_machine();
        JobResult {
            platform: platform.into(),
            paper_analog: platform.to_uppercase(),
            dataset: dataset.into(),
            algorithm: Algorithm::Bfs,
            machines: 1,
            threads: 16,
            shards: 1,
            cut_fraction: None,
            status: if ok { JobStatus::Completed } else { JobStatus::OutOfMemory },
            vertices: 100,
            edges: 1000,
            upload_secs: 1.0,
            processing_secs: secs,
            processing_min_secs: secs,
            processing_max_secs: secs,
            makespan_secs: secs + 1.0,
            measured_wall_secs: None,
            measured_upload_secs: None,
            runs: vec![crate::driver::RunMeasurement {
                run_index: 0,
                processing_secs: secs,
                makespan_secs: secs + 1.0,
                measured_wall_secs: None,
            }],
            counters: WorkCounters::new(),
            archive: None,
            mutation: None,
        }
    }

    #[test]
    fn json_export_contains_fields() {
        let json = result_json(&fake("native", "R1", 0.25, true)).to_string_pretty();
        assert!(json.contains("\"platform\": \"native\""));
        assert!(json.contains("\"eps\""));
        assert!(json.contains("\"status\": \"completed\""));
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"inter_shard_messages\""));
    }
}
