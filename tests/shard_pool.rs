//! A shard owns no threads (CI gate): a sharded upload runs every lane
//! on the caller's one [`WorkerPool`] — no private per-shard pools, no
//! driver thread spawned per superstep — so the pool's own stats (what
//! the service's `GET /metrics` reports) see every superstep.
//!
//! For pregel and pushpull, at 2 and 4 shards, on a caller pool 2 and 4
//! wide:
//!
//! * (a) every run grows `pool.stats().runs` by at least its supersteps,
//!   and `dispatches` grows too (every width here is ≥ 2) — except
//!   push–pull WCC and SSSP, which relax in place on the caller thread
//!   on every upload and make exactly 0 pool runs;
//! * (b) on Linux, the process's `Threads:` count is the same before the
//!   upload, while the upload is resident and running, and after
//!   `delete`.
//!
//! One `#[test]` on purpose: the harness runs tests of one binary on
//! parallel threads, which would move the thread count under (b).

use std::sync::Arc;

use graphalytics::engines::ShardPlan;
use graphalytics::prelude::*;

/// The process's OS thread count, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Sets its flag when dropped, so a failing assertion still stops the
/// sampler thread instead of leaving its scope waiting forever.
#[cfg(target_os = "linux")]
struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

#[cfg(target_os = "linux")]
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Uploads `csr` sharded, runs every supported algorithm once, deletes;
/// checks (a) per run and returns the OS thread counts taken after the
/// upload and after the last run.
fn upload_run_delete(
    name: &str,
    csr: &Arc<Csr>,
    shards: u32,
    pool: &WorkerPool,
    params: &AlgorithmParams,
) -> Vec<usize> {
    let platform = platform_by_name(name).unwrap();
    let loaded = platform.upload_sharded(csr.clone(), &ShardPlan::new(shards), pool).unwrap();
    let mut counts = Vec::new();
    #[cfg(target_os = "linux")]
    counts.push(os_threads());
    for algorithm in Algorithm::ALL.into_iter().filter(|&a| platform.supports(a)) {
        let what = format!("{name} {algorithm}, {shards} shards on a {}-wide pool", pool.threads());
        let before = pool.stats();
        let mut ctx = RunContext::new(pool);
        let run = platform.run(loaded.as_ref(), algorithm, params, &mut ctx).unwrap();
        let after = pool.stats();
        assert!(run.counters.supersteps > 0, "{what}");
        if name == "pushpull" && matches!(algorithm, Algorithm::Wcc | Algorithm::Sssp) {
            assert_eq!(after.runs, before.runs, "{what}: a caller-thread kernel");
            continue;
        }
        assert!(
            after.runs - before.runs >= run.counters.supersteps,
            "{what}: {} pool runs for {} supersteps",
            after.runs - before.runs,
            run.counters.supersteps
        );
        assert!(after.dispatches > before.dispatches, "{what}: nothing reached the pool's workers");
    }
    #[cfg(target_os = "linux")]
    counts.push(os_threads());
    platform.delete(loaded);
    counts
}

#[test]
fn sharded_runs_stay_on_the_callers_pool() {
    let setup = WorkerPool::new(2);
    let graph = Graph500Config::new(9).with_seed(53).with_weights(true).generate();
    let csr = Arc::new(graph.to_csr_with(&setup).unwrap());
    let params =
        AlgorithmParams::with_source(SourceSelection::MaxOutDegree.resolve(&csr).unwrap());
    drop(setup);
    for width in [2u32, 4] {
        let pool = WorkerPool::new(width);
        for name in ["pregel", "pushpull"] {
            for shards in [2u32, 4] {
                #[cfg(not(target_os = "linux"))]
                upload_run_delete(name, &csr, shards, &pool, &params);
                #[cfg(target_os = "linux")]
                {
                    use std::sync::atomic::{AtomicBool, Ordering};
                    // A sampler thread of its own, counted in `before`,
                    // watches the count while the upload is resident.
                    let what = format!("{name}, {shards} shards on a {width}-wide pool");
                    let stop = AtomicBool::new(false);
                    std::thread::scope(|scope| {
                        let sampler = scope.spawn(|| {
                            let mut seen = Vec::new();
                            while !stop.load(Ordering::Relaxed) {
                                seen.push(os_threads());
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            }
                            seen
                        });
                        let stopper = StopOnDrop(&stop);
                        let before = os_threads();
                        let mut counts = upload_run_delete(name, &csr, shards, &pool, &params);
                        counts.push(os_threads());
                        drop(stopper);
                        let sampled = sampler.join().unwrap();
                        assert!(counts.iter().all(|&c| c == before), "{what}: {before} then {counts:?}");
                        assert!(
                            sampled.iter().all(|&c| c == before),
                            "{what}: {before} threads before the upload, up to {:?} while resident",
                            sampled.iter().max()
                        );
                    });
                }
            }
        }
    }
}
