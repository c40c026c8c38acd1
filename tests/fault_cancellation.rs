//! Fault-plane and cooperative-cancellation invariants at the harness
//! layer, without a daemon in the loop:
//!
//! * a worker pool that lived through an injected engine panic keeps
//!   producing bit-identical results (no poisoned state);
//! * cancellation and deadlines abort a stalled run in bounded time with
//!   the structured terminal status;
//! * (proptest) injecting a fault or cancelling at an arbitrary superstep
//!   leaves the graph store and the mutation delta log untouched, and an
//!   immediate re-run of the same `JobSpec` is bit-identical to a run
//!   that never saw a fault.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use graphalytics::cluster::{ClusterSpec, WorkCounters};
use graphalytics::core::fault::{FaultKind, FaultScript, FaultSite, Injection};
use graphalytics::harness::{proxy, Driver, JobResult, JobSpec, JobStatus, RunMode};
use graphalytics::prelude::*;
use graphalytics::service::MutationStore;

/// The deterministic slice of a [`JobResult`]: status, sizes, work
/// counters, and the *simulated* timing fields bit-for-bit. Real
/// wall-clock measurements (`measured_wall_secs`) are excluded — they
/// are the only fields allowed to differ between identical runs.
fn fingerprint(r: &JobResult) -> (JobStatus, u64, u64, WorkCounters, Vec<u64>) {
    let mut bits = vec![
        r.upload_secs.to_bits(),
        r.processing_secs.to_bits(),
        r.processing_min_secs.to_bits(),
        r.processing_max_secs.to_bits(),
        r.makespan_secs.to_bits(),
    ];
    for run in &r.runs {
        bits.push(run.processing_secs.to_bits());
        bits.push(run.makespan_secs.to_bits());
    }
    (r.status.clone(), r.vertices, r.edges, r.counters, bits)
}

fn proxy_csr(
    pool: &Arc<WorkerPool>,
) -> (&'static graphalytics::core::datasets::DatasetSpec, Arc<Csr>) {
    let dataset = graphalytics::core::datasets::dataset("G22").unwrap();
    let csr = Arc::new(proxy::materialize_with(dataset, 8192, 7, pool).to_csr());
    (dataset, csr)
}

fn run_with(
    pool: &Arc<WorkerPool>,
    platform_name: &str,
    spec: &JobSpec,
    csr: &Arc<Csr>,
    faults: FaultScript,
) -> JobResult {
    let platform = platform_by_name(platform_name).unwrap();
    let driver = Driver { seed: 11, pool: pool.clone(), faults, ..Driver::default() };
    driver.run(platform.as_ref(), spec, RunMode::Measured { csr })
}

#[test]
fn worker_pool_survives_injected_panic_bit_identically() {
    let pool = Arc::new(WorkerPool::new(2));
    let (dataset, csr) = proxy_csr(&pool);
    let spec = JobSpec::new(dataset, Algorithm::PageRank, ClusterSpec::single_machine());

    let baseline = run_with(&pool, "pregel", &spec, &csr, FaultScript::empty());
    assert!(baseline.status.is_success(), "{:?}", baseline.status);

    // A WorkerPanic injection is a *real* panic from inside the engine's
    // superstep loop; it must propagate to the caller...
    let script =
        FaultScript::new(vec![Injection::new(FaultSite::Superstep, 1, FaultKind::WorkerPanic)]);
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_with(&pool, "pregel", &spec, &csr, script)
    }));
    assert!(outcome.is_err(), "injected worker panic propagates");

    // ...and the SAME pool instance — not a fresh one — must keep
    // producing bit-identical results afterwards: no poisoned locks, no
    // lost workers, no skewed counters.
    let after = run_with(&pool, "pregel", &spec, &csr, FaultScript::empty());
    assert_eq!(fingerprint(&baseline), fingerprint(&after));
}

#[test]
fn deadline_aborts_stalled_run_in_bounded_time() {
    let pool = Arc::new(WorkerPool::new(2));
    let (dataset, csr) = proxy_csr(&pool);
    // The stall would burn 30 s; the armed 300 ms deadline must cut it
    // off at the superstep boundary instead.
    let spec =
        JobSpec::new(dataset, Algorithm::Bfs, ClusterSpec::single_machine()).with_timeout_secs(0.3);
    let script = FaultScript::new(vec![Injection::new(
        FaultSite::Superstep,
        0,
        FaultKind::Stall { millis: 30_000 },
    )]);
    let started = Instant::now();
    let result = run_with(&pool, "native", &spec, &csr, script);
    assert_eq!(result.status, JobStatus::TimedOut, "{:?}", result.status);
    assert!(started.elapsed() < Duration::from_secs(10), "abort was not bounded");
}

#[test]
fn external_cancel_aborts_stalled_run_in_bounded_time() {
    let pool = Arc::new(WorkerPool::new(2));
    let (dataset, csr) = proxy_csr(&pool);
    let spec = JobSpec::new(dataset, Algorithm::Bfs, ClusterSpec::single_machine());
    let script = FaultScript::new(vec![Injection::new(
        FaultSite::Superstep,
        0,
        FaultKind::Stall { millis: 30_000 },
    )]);
    let platform = platform_by_name("native").unwrap();
    let driver = Driver { seed: 11, pool: pool.clone(), faults: script, ..Driver::default() };
    // Cancel from the outside mid-stall, as DELETE /jobs/:id would.
    let token = driver.cancel.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        token.cancel();
    });
    let started = Instant::now();
    let result = driver.run(platform.as_ref(), &spec, RunMode::Measured { csr: &csr });
    canceller.join().unwrap();
    assert_eq!(result.status, JobStatus::Cancelled, "{:?}", result.status);
    assert!(started.elapsed() < Duration::from_secs(10), "abort was not bounded");
}

#[test]
fn every_cell_reaches_a_superstep_checkpoint() {
    // A kernel that never ticks `FaultSite::Superstep` cannot be stopped
    // by DELETE /jobs/:id, `timeout_secs` or the chaos plane once started.
    // Injection 0 must therefore land in every engine × algorithm cell.
    let pool = Arc::new(WorkerPool::new(2));
    let dataset = graphalytics::core::datasets::dataset("R4").unwrap();
    assert!(dataset.weighted, "SSSP cells need weights");
    let csr = Arc::new(proxy::materialize_with(dataset, 4096, 7, &pool).to_csr());
    let mut unstoppable = Vec::new();
    for platform in all_platforms() {
        for algorithm in Algorithm::ALL.into_iter().filter(|&a| platform.supports(a)) {
            let spec = JobSpec::new(dataset, algorithm, ClusterSpec::single_machine());
            let script =
                FaultScript::new(vec![Injection::new(FaultSite::Superstep, 0, FaultKind::Alloc)]);
            let result = run_with(&pool, platform.name(), &spec, &csr, script);
            if !matches!(result.status, JobStatus::Faulted { transient: false, .. }) {
                unstoppable.push(format!("{} {algorithm}: {:?}", platform.name(), result.status));
            }
        }
    }
    assert!(unstoppable.is_empty(), "cells that never observed injection 0: {unstoppable:#?}");
}

/// One proptest scenario: fault (or cancel) at superstep `k`, then prove
/// the store, the delta log, and a re-run are untouched by the wreck.
fn fault_leaves_no_trace(
    platform_name: &str,
    algorithm: Algorithm,
    k: u64,
    kind: FaultKind,
    seed: u64,
) {
    let pool = Arc::new(WorkerPool::new(2));
    let (dataset, base) = proxy_csr(&pool);

    // A live delta log over the resident graph, as the service keeps it.
    let store = MutationStore::new(pool.clone());
    store.apply_generated("G22", &base, 24, 6, seed).unwrap();
    let before = store.status("G22").unwrap();
    let snapshot = store.snapshot("G22").unwrap().unwrap();

    // The job runs on the store's materialized snapshot, so the delta
    // path (apply → materialize → upload of the snapshot) is in the
    // blast radius too.
    let spec = JobSpec::new(dataset, algorithm, ClusterSpec::single_machine());

    let baseline = run_with(&pool, platform_name, &spec, &snapshot, FaultScript::empty());
    prop_assert!(baseline.status.is_success(), "{:?}", baseline.status);

    let script = FaultScript::new(vec![Injection::new(FaultSite::Superstep, k, kind)]);
    let faulted = run_with(&pool, platform_name, &spec, &snapshot, script);
    // `k` beyond the run's superstep count never fires — the run then
    // completes; otherwise the terminal status is the structured one for
    // the injected kind, never a crash or a mangled result.
    match kind {
        FaultKind::Cancel => prop_assert!(
            matches!(faulted.status, JobStatus::Cancelled | JobStatus::Completed),
            "{:?}",
            faulted.status
        ),
        FaultKind::Transient => prop_assert!(
            matches!(
                faulted.status,
                JobStatus::Faulted { transient: true, .. } | JobStatus::Completed
            ),
            "{:?}",
            faulted.status
        ),
        FaultKind::Alloc => prop_assert!(
            matches!(
                faulted.status,
                JobStatus::Faulted { transient: false, .. } | JobStatus::Completed
            ),
            "{:?}",
            faulted.status
        ),
        _ => unreachable!("scenario only injects Cancel/Transient/Alloc"),
    }

    // The shared store and its delta log are exactly as before the wreck.
    let after = store.status("G22").unwrap();
    prop_assert_eq!(after.stats.applied_batches, before.stats.applied_batches);
    prop_assert_eq!(after.delta_arcs, before.delta_arcs);
    let snapshot_after = store.snapshot("G22").unwrap().unwrap();
    prop_assert_eq!(snapshot_after.num_vertices(), snapshot.num_vertices());
    prop_assert_eq!(snapshot_after.num_arcs(), snapshot.num_arcs());

    // An immediate re-run of the same JobSpec (fresh driver, same pool —
    // the service's retry path) is bit-identical to the fault-free twin.
    let rerun = run_with(&pool, platform_name, &spec, &snapshot, FaultScript::empty());
    prop_assert_eq!(fingerprint(&baseline), fingerprint(&rerun));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn faults_at_arbitrary_supersteps_leave_no_trace(
        k in 0u64..12,
        kind_sel in 0usize..3,
        seed in 1u64..500,
    ) {
        let kind = [FaultKind::Cancel, FaultKind::Transient, FaultKind::Alloc][kind_sel];
        // Every engine, each on one algorithm.
        for (platform_name, algorithm) in [
            ("native", Algorithm::Bfs),
            ("pregel", Algorithm::PageRank),
            ("pushpull", Algorithm::Wcc),
            ("gas", Algorithm::Cdlp),
            ("dataflow", Algorithm::Wcc),
            ("spmv", Algorithm::Lcc),
        ] {
            fault_leaves_no_trace(platform_name, algorithm, k, kind, seed);
        }
    }
}
