//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two in step). End-to-end metrics are the ones every
//! workload can measure; the workload-scoped paper metrics (`load_eps`,
//! `mutations_per_s`, per-engine EVPS) sit with the per-layer metrics
//! because the acceptance contract wants every end-to-end metric from
//! every workload.

use crate::layers::{ALGORITHMS, ENGINES, SHARDED_ENGINES};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Unit of the paper's EVPS: vertices plus edges per second of `T_proc`.
const EVPS: &str = "EV/s";

pub const WORKLOADS: [&str; 5] = [
    "load_cold",
    "kernels_warm",
    "service_warm",
    "service_cold",
    "service_mutate",
];

pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("makespan_geomean_ms", "ms", "lower"),
        def("jobs_per_s", "1/s", "higher"),
        def("evps_geomean", EVPS, "higher"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// The sharded cells run BFS, PageRank and WCC.
pub const SHARDED_ALGORITHMS: [&str; 3] = ["bfs", "pr", "wcc"];

pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // Workload-scoped paper metrics.
        def("load_eps", "edges/s", "higher"),
        def("mutations_per_s", "edge-mut/s", "higher"),
        // core::graph::io
        def("io.parse_s", "s", "lower"),
        def("io.parse_eps", "edges/s", "higher"),
        def("io.parse_mbps", "MB/s", "higher"),
        def("io.parse_seq_eps", "edges/s", "higher"),
        def("io.vertex_parse_s", "s", "lower"),
        // core::graph::{builder,csr}
        def("csr.build_s", "s", "lower"),
        def("csr.build_eps", "edges/s", "higher"),
        def("csr.build_seq_eps", "edges/s", "higher"),
        def("csr.resident_bytes", "B", "lower"),
        // harness::proxy + graph500 + datagen
        def("proxy.materialize_s", "s", "lower"),
        def("proxy.materialize_eps", "edges/s", "higher"),
        def("proxy.rmat_eps", "edges/s", "higher"),
        def("proxy.datagen_eps", "edges/s", "higher"),
    ];
    // engines::*
    for engine in ENGINES {
        m.push(def(format!("engines.{engine}.upload_s"), "s", "lower"));
    }
    for engine in ENGINES {
        for algorithm in ALGORITHMS {
            // The push-pull engine declines LCC, as PGX.D does in the paper.
            if engine == "pushpull" && algorithm.acronym() == "lcc" {
                continue;
            }
            m.push(def(
                format!("engines.{engine}.{algorithm}.evps"),
                EVPS,
                "higher",
            ));
        }
    }
    for engine in SHARDED_ENGINES {
        for algorithm in SHARDED_ALGORITHMS {
            m.push(def(
                format!("engines.{engine}-s2.{algorithm}.evps"),
                EVPS,
                "higher",
            ));
        }
    }
    for algorithm in ALGORITHMS {
        for counter in ["edges_scanned", "messages", "supersteps"] {
            m.push(def(
                format!("engines.{algorithm}.{counter}"),
                "count",
                "lower",
            ));
        }
    }
    // core::algorithms + core::validation
    for algorithm in ALGORITHMS {
        m.push(def(format!("reference.{algorithm}.s"), "s", "lower"));
    }
    m.extend([
        def("validation.compare_s", "s", "lower"),
        // harness::driver
        def("driver.job_s", "s", "lower"),
        def("driver.self_s", "s", "lower"),
        def("driver.archive_ops", "count", "lower"),
        // core::pool
        def("pool.busy_fraction", "ratio", "higher"),
        def("pool.dispatch_wait_s", "s", "lower"),
        def("pool.dispatch_wakeups", "count", "lower"),
        // core::graph::delta + service::mutations
        def("delta.apply_s", "s", "lower"),
        def("delta.apply_mutations_per_s", "edge-mut/s", "higher"),
        def("delta.materialize_s", "s", "lower"),
        def("delta.compact_s", "s", "lower"),
        def("delta.compactions", "count", "lower"),
        def("delta.snapshot_builds", "count", "lower"),
        // service::{http,api,jobs,server,store,client}
        def("service.http.roundtrip_ms", "ms", "lower"),
        def("service.http.handle_us", "us", "lower"),
        def("service.http.requests", "count", "lower"),
        def("service.submit_ms", "ms", "lower"),
        def("service.queue_wait_ms", "ms", "lower"),
        def("service.worker_job_ms", "ms", "lower"),
        def("service.upload_ms", "ms", "lower"),
        def("service.run_ms", "ms", "lower"),
        def("service.validate_ms", "ms", "lower"),
        def("service.poll_lag_ms", "ms", "lower"),
        def("service.result_fetch_ms", "ms", "lower"),
        def("service.result_bytes", "B", "lower"),
        def("service.archive_fetch_ms", "ms", "lower"),
        def("service.archive_bytes", "B", "lower"),
        def("service.store.hits", "count", "higher"),
        def("service.store.misses", "count", "lower"),
        def("service.store.generations", "count", "lower"),
        def("service.store.evictions", "count", "lower"),
        def("service.store.get_cold_ms", "ms", "lower"),
        def("service.store.get_warm_us", "us", "lower"),
        def("service.jobs.rejected", "count", "lower"),
        def("service.jobs.retried", "count", "lower"),
        // granula::json
        def("json.serialize_mbps", "MB/s", "higher"),
        def("json.parse_mbps", "MB/s", "higher"),
        // the ledger itself
        def("ledger.residual_fraction", "ratio", "lower"),
        def("trace.overhead_fraction", "ratio", "lower"),
        def("trace.spans", "count", "lower"),
        def("makespan_p90_ms", "ms", "lower"),
        def("client.slowdown_p90", "ratio", "lower"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogued(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn per_layer_names_fit_the_contract() {
        let defs = per_layer();
        assert_eq!(defs.len(), 128);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 128, "names are used once");
        assert!(defs
            .iter()
            .all(|d| d.name.len() <= 64 && d.unit.len() <= 16));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let manifest = manifest();
        assert_eq!(listed(&manifest, "end_to_end"), catalogued(end_to_end()));
        assert_eq!(listed(&manifest, "per_layer"), catalogued(per_layer()));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
