//! Validation references are reused, never stale.
//!
//! A job is valid when its output is equivalent to the reference
//! implementation's on the graph the engine answers for (§2.2.3). These
//! tests pin what that means when a `Driver` validates many jobs on one
//! graph:
//!
//! * a cell run twice through one driver on one graph ends with the same
//!   `JobStatus` and all eight `WorkCounters` fields both times, for all
//!   six engines and every algorithm they support, on a directed-weighted
//!   and an undirected-unweighted proxy;
//! * a platform that lies fails validation on every job of a cell, not
//!   only the first;
//! * after a mutation batch, a job on the new snapshot is checked against
//!   the new snapshot's reference: a platform that returns the
//!   pre-mutation answer fails;
//! * a reference-side failure (SSSP on an unweighted graph) is reported
//!   with the same message every time.
//!
//! Throughout, the driver's `ReferenceCache` runs the reference once per
//! (graph, request) and answers every later lookup from memory.

use std::sync::Arc;

use graphalytics::cluster::WorkCounters;
use graphalytics::core::algorithms::Request;
use graphalytics::core::datasets::{dataset, DatasetSpec};
use graphalytics::core::fault::CancelToken;
use graphalytics::core::output::{AlgorithmOutput, OutputValues};
use graphalytics::core::Result;
use graphalytics::engines::Execution;
use graphalytics::harness::description::JobDescription;
use graphalytics::harness::JobStatus;
use graphalytics::prelude::*;
use graphalytics::service::{GraphStoreConfig, JobMode, JobRequest, ServiceConfig, ServiceState};

fn proxy(id: &'static str) -> (&'static DatasetSpec, Arc<Csr>) {
    let spec = dataset(id).unwrap();
    let graph = graphalytics::harness::proxy::materialize(spec, 1 << 14, 5);
    (spec, Arc::new(graph.to_csr()))
}

fn job(spec: &'static DatasetSpec, algorithm: Algorithm) -> JobSpec {
    JobSpec::new(spec, algorithm, ClusterSpec::single_machine())
}

/// Uploads through a real engine, then answers every run with `answer`
/// (or, without one, with all-zero values) instead of computing anything.
struct CannedPlatform {
    inner: Box<dyn Platform>,
    answer: Option<AlgorithmOutput>,
}

impl CannedPlatform {
    fn new(answer: Option<AlgorithmOutput>) -> CannedPlatform {
        CannedPlatform { inner: platform_by_name("native").unwrap(), answer }
    }
}

impl Platform for CannedPlatform {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        self.inner.upload(csr, pool)
    }

    fn execute(
        &self,
        _graph: &dyn LoadedGraph,
        _request: Request,
        _pool: &WorkerPool,
        _counters: &mut WorkCounters,
    ) -> Result<OutputValues> {
        unreachable!("`run` answers without executing")
    }

    fn run(
        &self,
        graph: &dyn LoadedGraph,
        algorithm: Algorithm,
        _params: &AlgorithmParams,
        _ctx: &mut RunContext<'_>,
    ) -> Result<Execution> {
        let output = self.answer.clone().unwrap_or_else(|| {
            let zeros = OutputValues::F64(vec![0.0; graph.csr().num_vertices()]);
            AlgorithmOutput::from_dense(algorithm, graph.csr(), zeros)
        });
        Ok(Execution { output, counters: WorkCounters::new(), wall_seconds: 0.0 })
    }
}

#[test]
fn every_cell_run_twice_on_one_graph_is_identical() {
    let driver = Driver::default();
    let (mut lookups, mut computed) = (0, 0);
    for id in ["G22", "R4"] {
        let (spec, csr) = proxy(id);
        for platform in all_platforms() {
            for algorithm in Algorithm::ALL {
                let cell = job(spec, algorithm);
                let first = driver.run(platform.as_ref(), &cell, RunMode::Measured { csr: &csr });
                let second =
                    driver.run(platform.as_ref(), &cell, RunMode::Measured { csr: &csr });
                let name = format!("{} {algorithm} on {id}", platform.name());
                let expected = if !platform.supports(algorithm) {
                    Some(JobStatus::Unsupported)
                } else if algorithm.needs_weights() && !csr.is_weighted() {
                    None // a reference-side failure: checked below
                } else {
                    Some(JobStatus::Completed)
                };
                if expected == Some(JobStatus::Completed) {
                    lookups += 2;
                    // The first engine to run an algorithm on a graph
                    // computes its reference; every later job reuses it.
                    computed += u64::from(platform.name() == "pregel");
                }
                match expected {
                    Some(status) => assert_eq!(first.status, status, "{name}"),
                    None => assert!(
                        matches!(&first.status, JobStatus::ValidationFailed(m)
                            if m.starts_with("reference implementation: ")),
                        "{name}: {:?}",
                        first.status
                    ),
                }
                assert_eq!(first.status, second.status, "{name}: status moved");
                let (a, b) = (first.counters, second.counters);
                assert_eq!(a.vertices_processed, b.vertices_processed, "{name}");
                assert_eq!(a.edges_scanned, b.edges_scanned, "{name}");
                assert_eq!(a.messages, b.messages, "{name}");
                assert_eq!(a.message_bytes, b.message_bytes, "{name}");
                assert_eq!(a.supersteps, b.supersteps, "{name}");
                assert_eq!(a.random_accesses, b.random_accesses, "{name}");
                assert_eq!(a.inter_shard_messages, b.inter_shard_messages, "{name}");
                assert_eq!(a.inter_shard_bytes, b.inter_shard_bytes, "{name}");
            }
        }
    }
    let stats = driver.references.stats();
    assert_eq!(stats.misses, computed, "one reference per (graph, algorithm)");
    assert_eq!(stats.hits, lookups - computed);
}

#[test]
fn a_lying_platform_fails_every_job_of_a_cell() {
    let driver = Driver::default();
    let (spec, csr) = proxy("G22");
    let liar = CannedPlatform::new(None);
    for attempt in ["1st", "2nd"] {
        let r = driver.run(&liar, &job(spec, Algorithm::PageRank), RunMode::Measured { csr: &csr });
        assert!(
            matches!(&r.status, JobStatus::ValidationFailed(m) if m.ends_with("mismatches")),
            "{attempt} job: {:?}",
            r.status
        );
    }
    let stats = driver.references.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the 2nd job failed on the resident reference");
}

#[test]
fn a_mutated_snapshot_is_validated_against_its_own_reference() {
    let state = ServiceState::new(&ServiceConfig {
        store: GraphStoreConfig { scale_divisor: 1 << 14, ..GraphStoreConfig::default() },
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let spec = dataset("R4").unwrap();
    let request = JobRequest {
        platform: "native".to_string(),
        dataset: "R4".to_string(),
        algorithm: Algorithm::PageRank,
        mode: JobMode::Measured,
        repetitions: 1,
        shards: 1,
        timeout_millis: None,
    };
    let token = CancelToken::new();

    // The pre-mutation answer, and a job that validates against it.
    let base = state.store.get(spec);
    let params = JobDescription { dataset: spec, algorithm: Algorithm::PageRank }.params_for(&base);
    let stale = run_reference(&base, Algorithm::PageRank, &params).unwrap();
    let before = state.execute(1, &request, &token, 0).unwrap();
    assert_eq!(before.status, JobStatus::Completed);
    assert_eq!(state.references.stats().misses, 1);
    let driver = Driver {
        seed: state.seed,
        pool: state.pool.clone(),
        references: state.references.clone(),
        ..Driver::default()
    };
    let canned = CannedPlatform::new(Some(stale));
    let on_base =
        driver.run(&canned, &job(spec, Algorithm::PageRank), RunMode::Measured { csr: &base });
    assert_eq!(on_base.status, JobStatus::Completed, "the canned answer is right before the batch");
    assert_eq!(state.references.stats().hits, 1);

    // One batch: the dataset now answers for a new snapshot.
    state.mutations.apply_generated(spec.id, &base, 64, 16, 7).unwrap();
    let snapshot = state.mutations.snapshot(spec.id).unwrap();
    assert!(!Arc::ptr_eq(&base, &snapshot));
    let after = state.execute(2, &request, &token, 0).unwrap();
    assert_eq!(after.status, JobStatus::Completed, "a correct engine passes on the new snapshot");
    assert_eq!(after.edges, snapshot.num_edges() as u64);
    assert_eq!(state.references.stats().misses, 2, "a new snapshot is a new key");

    // The pre-mutation answer is wrong for the new snapshot.
    let stale_run =
        driver.run(&canned, &job(spec, Algorithm::PageRank), RunMode::Measured { csr: &snapshot });
    assert!(
        matches!(&stale_run.status, JobStatus::ValidationFailed(m) if m.ends_with("mismatches")),
        "{:?}",
        stale_run.status
    );
    let stats = state.references.stats();
    assert_eq!((stats.misses, stats.hits), (2, 2), "checked against the snapshot's own reference");
}

#[test]
fn a_reference_failure_reports_the_same_message_every_time() {
    let driver = Driver::default();
    let (spec, csr) = proxy("G22");
    assert!(!csr.is_weighted());
    let native = platform_by_name("native").unwrap();
    let messages: Vec<String> = (0..2)
        .map(|_| {
            let r = driver.run(native.as_ref(), &job(spec, Algorithm::Sssp), RunMode::Measured {
                csr: &csr,
            });
            match r.status {
                JobStatus::ValidationFailed(m) => m,
                other => panic!("expected a reference failure, got {other:?}"),
            }
        })
        .collect();
    assert!(messages[0].starts_with("reference implementation: "), "{}", messages[0]);
    assert!(messages[0].contains("weighted"), "{}", messages[0]);
    assert_eq!(messages[0], messages[1]);
    let stats = driver.references.stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (0, 0, 0), "errors are never cached");
}
