//! End-to-end harness runs: proxy materialization → phased lifecycle
//! through `Driver::run` (admission / upload / execute×N / validate /
//! delete) → collected results → JSON export → Granula archives.

use std::sync::Arc;

use graphalytics::cluster::ClusterSpec;
use graphalytics::granula::json::Json;
use graphalytics::harness::results::result_json;
use graphalytics::harness::{proxy, Driver, JobResult, JobSpec, RunMode};
use graphalytics::prelude::*;

#[test]
fn measured_benchmark_run_end_to_end() {
    let (divisor, seed) = (4096, 99);
    let driver = Driver { seed, ..Driver::default() };
    let mut results: Vec<JobResult> = Vec::new();
    for dataset_id in ["R1", "G22"] {
        let dataset = graphalytics::core::datasets::dataset(dataset_id).unwrap();
        let graph = proxy::materialize(dataset, divisor, seed);
        let csr = Arc::new(graph.to_csr());
        for platform_name in ["native", "spmv", "gas"] {
            let platform = platform_by_name(platform_name).unwrap();
            for algorithm in [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Wcc] {
                let spec = JobSpec::new(dataset, algorithm, ClusterSpec::single_machine())
                    .with_repetitions(2);
                let result = driver.run(platform.as_ref(), &spec, RunMode::Measured { csr: &csr });
                assert!(
                    result.status.is_success(),
                    "{platform_name} {algorithm} on {dataset_id}: {:?}",
                    result.status
                );
                assert!(result.measured_wall_secs.is_some());
                assert!(result.processing_secs > 0.0);
                assert_eq!(result.repetitions(), 2);
                assert!(result.measured_upload_secs.is_some_and(|s| s > 0.0));
                let archive = result.archive.as_ref().expect("granula archive attached");
                assert!(archive.duration_of("ProcessGraph").is_some());
                assert!(archive.info("ProcessGraph", "supersteps").is_some());
                assert!(archive.duration_of("UploadGraph").is_some());
                results.push(result);
            }
        }
    }
    assert_eq!(results.len(), 3 * 3 * 2); // 3 platforms × 3 algorithms × 2 datasets
    assert!(results.iter().all(|r| r.status.is_success()));
    let json = Json::Arr(results.iter().map(result_json).collect()).to_string_pretty();
    assert!(json.contains("\"dataset\": \"R1\""));
    assert!(json.contains("\"algorithm\": \"wcc\""));
    assert!(json.contains("\"measured_upload_secs\""));
    assert!(json.contains("\"run_index\""));
    // Granula visualizer renders archives from this run.
    let rendered = graphalytics::granula::visualize::render(results[0].archive.as_ref().unwrap());
    assert!(rendered.contains("ProcessGraph"));
}

#[test]
fn validation_catches_broken_outputs() {
    // A platform returning wrong results must be flagged — simulate by
    // comparing reference outputs of different algorithms.
    let graph = Graph500Config::new(8).with_seed(5).generate();
    let csr = graph.to_csr();
    let params = AlgorithmParams::with_source(csr.id_of(0));
    let bfs = run_reference(&csr, Algorithm::Bfs, &params).unwrap();
    let wcc = run_reference(&csr, Algorithm::Wcc, &params).unwrap();
    assert!(graphalytics::core::validation::validate(&bfs, &wcc).is_err());
}

#[test]
fn sla_and_failure_semantics() {
    // OOM counts as an SLA break per Section 2.3; an unsupported
    // algorithm does not produce a result at all.
    let driver = Driver::default();
    let gas = platform_by_name("PowerGraph").unwrap();
    let r5 = graphalytics::core::datasets::dataset("R5").unwrap();
    let result = driver.run(
        gas.as_ref(),
        &JobSpec::new(r5, Algorithm::Bfs, ClusterSpec::single_machine()),
        RunMode::Analytic,
    );
    assert!(!result.status.is_success());
    assert_eq!(result.status.figure_mark(), "F");

    let pushpull = platform_by_name("PGX.D").unwrap();
    let r4 = graphalytics::core::datasets::dataset("R4").unwrap();
    let result = driver.run(
        pushpull.as_ref(),
        &JobSpec::new(r4, Algorithm::Lcc, ClusterSpec::single_machine()),
        RunMode::Analytic,
    );
    assert_eq!(result.status.figure_mark(), "NA");
}
