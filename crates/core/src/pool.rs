//! The shared execution runtime: a persistent, deterministic worker pool.
//!
//! Everything parallel in the workspace — the CSR build, edge-file
//! parsing, and all six platform engines — runs through a [`WorkerPool`].
//! The pool spawns its OS threads **once** and parks them between calls,
//! so a superstep costs a condvar wake-up instead of `threads` fresh
//! `clone(2)` syscalls. Both "Experimental Analysis of Distributed Graph
//! Systems" (Ammar & Özsu) and "Revisiting Graph Analytics Benchmark"
//! call out per-iteration runtime overhead as a distortion in
//! cross-platform comparisons; a persistent pool removes it here.
//!
//! Determinism contract:
//!
//! * work over `0..n` is split by [`split_ranges`] into **contiguous
//!   static ranges** — no work stealing, no racy chunk hand-out;
//! * task results are returned **in range order**, so callers that merge
//!   worker outputs sequentially observe a thread-count-independent
//!   order;
//! * the partitioning depends only on `(threads, n)`, never on timing.
//!
//! Combined with per-vertex aggregation in the algorithms this makes
//! engine outputs bit-identical across thread counts (asserted by the
//! cross-engine equivalence tests).
//!
//! Two backends share the same `run` semantics:
//!
//! * **inline** (`threads == 1`): the task runs on the caller, no
//!   synchronization at all;
//! * **persistent** (`threads > 1`): parked workers, woken per call;
//!   the caller executes range 0 itself.
//!
//! Nested `run` calls (a pool task calling back into the same or another
//! pool) execute inline on the calling worker instead of deadlocking on
//! the dispatch lock; the ranges are identical, so results are too.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Splits `0..n` into contiguous ranges for `threads` workers, never
/// more workers than elements (but at least one range, possibly empty).
pub fn split_ranges(threads: u32, n: usize) -> Vec<Range<usize>> {
    let workers = (threads.max(1) as usize).min(n.max(1));
    let chunk = n.div_ceil(workers);
    (0..workers).map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n)).collect()
}

/// Shared mutable pointer for disjoint-range parallel access.
///
/// Pool tasks own non-overlapping index ranges, so per-index mutation
/// through this wrapper is race-free. Used by the parallel CSR build and
/// the Pregel engine's per-vertex state updates.
pub struct SharedSlice<T>(*mut T);

unsafe impl<T: Send> Sync for SharedSlice<T> {}
unsafe impl<T: Send> Send for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wraps a base pointer (typically `vec.as_mut_ptr()`).
    pub fn new(ptr: *mut T) -> Self {
        SharedSlice(ptr)
    }

    /// # Safety
    /// Caller guarantees index `i` is in bounds and accessed by at most
    /// one thread at a time (disjoint ranges), which is what makes
    /// handing out `&mut` through a shared reference sound here.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn at(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0.add(i) }
    }

    /// # Safety
    /// As [`SharedSlice::at`], for the whole subslice
    /// `offset..offset + len`.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }
}

/// Usage counters, exposed through the service `/metrics` endpoint so
/// the shared-pool path is observable (and testable) end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `run` calls (including inline ones).
    pub runs: u64,
    /// `run` calls that dispatched work to parked workers.
    pub dispatches: u64,
}

/// Utilization telemetry for the Granula monitor: how busy each worker
/// has been since the pool started and how long parked workers took to
/// wake after a dispatch. Collected with relaxed atomics on the
/// coarse per-`run` path (two clock reads per worker per call), and
/// only after [`WorkerPool::enable_telemetry`] — clock reads on every
/// `run` measurably tax upload-style workloads that issue many short
/// pool calls, so the default is a single relaxed flag load and no
/// timing. Strictly data-plane passive either way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolUtilization {
    /// Busy seconds per worker slot; slot 0 is the calling thread (it
    /// executes range 0 of every dispatch and all inline runs).
    pub per_worker_busy_secs: Vec<f64>,
    /// Sum of `per_worker_busy_secs`.
    pub busy_secs: f64,
    /// Total time parked workers spent between a job being posted and
    /// picking it up.
    pub dispatch_wait_secs: f64,
    /// Worker wake-ups contributing to `dispatch_wait_secs`.
    pub dispatch_wakeups: u64,
    /// Seconds since the pool was constructed.
    pub uptime_secs: f64,
}

impl PoolUtilization {
    /// Mean busy fraction across all worker slots over the pool's
    /// lifetime, in `[0, 1]`.
    pub fn busy_fraction(&self) -> f64 {
        let capacity = self.uptime_secs * self.per_worker_busy_secs.len() as f64;
        if capacity > 0.0 {
            (self.busy_secs / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Mean wake latency per dispatch wake-up, if any happened.
    pub fn mean_dispatch_wait_secs(&self) -> Option<f64> {
        if self.dispatch_wakeups == 0 {
            None
        } else {
            Some(self.dispatch_wait_secs / self.dispatch_wakeups as f64)
        }
    }
}

/// Shared telemetry accumulators (see [`PoolUtilization`]).
#[derive(Debug)]
struct PoolTelemetry {
    enabled: AtomicBool,
    busy_nanos: Vec<AtomicU64>,
    dispatch_wait_nanos: AtomicU64,
    dispatch_wakeups: AtomicU64,
}

impl PoolTelemetry {
    fn new(threads: u32) -> Arc<PoolTelemetry> {
        Arc::new(PoolTelemetry {
            enabled: AtomicBool::new(false),
            busy_nanos: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            dispatch_wait_nanos: AtomicU64::new(0),
            dispatch_wakeups: AtomicU64::new(0),
        })
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start of a busy interval, if timing is on.
    #[inline]
    fn begin(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    fn add_busy(&self, worker: usize, started: Option<Instant>) {
        if let Some(t) = started {
            self.busy_nanos[worker].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// Set while this thread is executing a pool task; makes nested
    /// `run` calls execute inline instead of deadlocking.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// One dispatched job: a lifetime-erased task plus the number of
/// participating workers this round.
struct Job {
    /// Erased `&call` from `Persistent::dispatch`; valid until the
    /// dispatcher observes `remaining == 0` and clears the job.
    task: &'static (dyn Fn(usize) + Sync),
    workers: usize,
    /// When the job was posted (telemetry on only); workers measure
    /// their wake latency against this for
    /// [`PoolUtilization::dispatch_wait_secs`].
    posted_at: Option<Instant>,
}

struct State {
    job: Option<Job>,
    /// Incremented per dispatched job; workers use it to detect new work.
    epoch: u64,
    /// Participating workers (excluding the caller) still running.
    remaining: usize,
    /// First worker panic of the current job, rethrown by the caller.
    panicked: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Persistent {
    shared: Arc<Shared>,
    /// Serializes whole `run` calls: concurrent callers (e.g. service
    /// jobs sharing one pool) queue here instead of oversubscribing.
    dispatch: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

enum Backend {
    Inline,
    Persistent(Persistent),
}

/// A deterministic worker pool (see the module docs for the contract).
pub struct WorkerPool {
    threads: u32,
    backend: Backend,
    runs: AtomicU64,
    dispatches: AtomicU64,
    telemetry: Arc<PoolTelemetry>,
    started: Instant,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match self.backend {
            Backend::Inline => "inline",
            Backend::Persistent(_) => "persistent",
        };
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("backend", &backend)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers. `threads <= 1` builds the inline
    /// (sequential) pool; otherwise `threads - 1` OS threads are spawned
    /// and parked — the calling thread itself executes range 0 of every
    /// dispatch.
    pub fn new(threads: u32) -> WorkerPool {
        let threads = threads.max(1);
        if threads == 1 {
            return WorkerPool::inline();
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let telemetry = PoolTelemetry::new(threads);
        let handles = (1..threads as usize)
            .map(|w| {
                let shared = shared.clone();
                let telemetry = telemetry.clone();
                std::thread::Builder::new()
                    .name(format!("galy-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w, &telemetry))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            threads,
            backend: Backend::Persistent(Persistent { shared, dispatch: Mutex::new(()), handles }),
            runs: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            telemetry,
            started: Instant::now(),
        }
    }

    /// The sequential pool: every `run` executes inline with a single
    /// range. Spawns nothing; construction is free.
    pub fn inline() -> WorkerPool {
        WorkerPool {
            threads: 1,
            backend: Backend::Inline,
            runs: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            telemetry: PoolTelemetry::new(1),
            started: Instant::now(),
        }
    }

    /// The process-wide shared pool, sized from available parallelism
    /// (capped at 8). [`Default`]-constructed harness drivers use this so
    /// ad-hoc drivers never spawn private pools.
    pub fn shared() -> Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(WorkerPool::new(default_threads()))).clone()
    }

    /// Worker count (including the calling thread).
    #[inline]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The contiguous static partition of `0..n` this pool uses; exposed
    /// so multi-pass builders can pre-compute per-chunk state.
    pub fn split(&self, n: usize) -> Vec<Range<usize>> {
        split_ranges(self.threads, n)
    }

    /// Usage counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            runs: self.runs.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
        }
    }

    /// Turns on per-`run` clock sampling for [`WorkerPool::utilization`].
    /// Off by default: the service daemon and monitored harness runs
    /// enable it; pure benchmarking pools skip the clock reads entirely.
    pub fn enable_telemetry(&self) {
        self.telemetry.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether [`WorkerPool::enable_telemetry`] has been called.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Utilization telemetry since construction (per-worker busy time,
    /// dispatch wake latency). Zeros unless
    /// [`WorkerPool::enable_telemetry`] was called; see
    /// [`PoolUtilization`].
    pub fn utilization(&self) -> PoolUtilization {
        let per_worker_busy_secs: Vec<f64> = self
            .telemetry
            .busy_nanos
            .iter()
            .map(|n| n.load(Ordering::Relaxed) as f64 / 1e9)
            .collect();
        let busy_secs = per_worker_busy_secs.iter().sum();
        PoolUtilization {
            per_worker_busy_secs,
            busy_secs,
            dispatch_wait_secs: self.telemetry.dispatch_wait_nanos.load(Ordering::Relaxed) as f64
                / 1e9,
            dispatch_wakeups: self.telemetry.dispatch_wakeups.load(Ordering::Relaxed),
            uptime_secs: self.started.elapsed().as_secs_f64(),
        }
    }

    /// Splits `0..n` into up to `threads` contiguous ranges and runs
    /// `task` on each concurrently; returns results in range order.
    ///
    /// `task` receives `(worker_index, range)`. With one range (one
    /// thread or tiny `n`) — or when called from within a pool task —
    /// everything runs inline on the caller.
    ///
    /// A panicking task poisons nothing: remaining workers finish their
    /// ranges, then the first panic is resumed on the caller.
    pub fn run<R, F>(&self, n: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.runs.fetch_add(1, Ordering::Relaxed);
        let ranges = split_ranges(self.threads, n);
        let nested = IN_POOL_TASK.with(|f| f.get());
        match &self.backend {
            Backend::Persistent(p) if ranges.len() > 1 && !nested => {
                self.dispatches.fetch_add(1, Ordering::Relaxed);
                p.dispatch(ranges, &task, &self.telemetry)
            }
            _ => {
                let t = self.telemetry.begin();
                let out = ranges.into_iter().enumerate().map(|(w, r)| task(w, r)).collect();
                self.telemetry.add_busy(0, t);
                out
            }
        }
    }
}

/// Default pool width: available parallelism, capped at 8 (benchmark
/// kernels stop scaling well before wide SMT counts).
pub fn default_threads() -> u32 {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8) as u32)
}

impl Persistent {
    fn dispatch<R, F>(
        &self,
        ranges: Vec<Range<usize>>,
        task: &F,
        telemetry: &PoolTelemetry,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let workers = ranges.len();
        let mut slots: Vec<Option<R>> = (0..workers).map(|_| None).collect();
        let slot_base = SharedSlice::new(slots.as_mut_ptr());
        let ranges_ref = &ranges;
        let call = move |w: usize| {
            let value = task(w, ranges_ref[w].clone());
            // SAFETY: worker w is the only writer of slot w.
            unsafe { *slot_base.at(w) = Some(value) };
        };

        let guard = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut state = self.shared.lock();
            // SAFETY: the erased borrow of `call` is only dereferenced by
            // workers counted in `remaining`; we wait for `remaining == 0`
            // and clear the job before `call` goes out of scope.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    &call,
                )
            };
            state.job = Some(Job { task: erased, workers, posted_at: telemetry.begin() });
            state.epoch += 1;
            state.remaining = workers - 1; // caller runs range 0 itself
            state.panicked = None;
        }
        self.shared.work_ready.notify_all();

        IN_POOL_TASK.with(|f| f.set(true));
        let caller_t = telemetry.begin();
        let caller_result = catch_unwind(AssertUnwindSafe(|| call(0)));
        telemetry.add_busy(0, caller_t);
        IN_POOL_TASK.with(|f| f.set(false));

        let worker_panic = {
            let mut state = self.shared.lock();
            while state.remaining > 0 {
                state = self.shared.work_done.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.job = None;
            state.panicked.take()
        };
        drop(guard);

        if let Err(panic) = caller_result {
            resume_unwind(panic);
        }
        if let Some(panic) = worker_panic {
            resume_unwind(panic);
        }
        slots.into_iter().map(|s| s.expect("every worker ran")).collect()
    }
}

fn worker_loop(shared: &Shared, w: usize, telemetry: &PoolTelemetry) {
    IN_POOL_TASK.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    match &state.job {
                        // Participate only when this round has a range
                        // for us; narrower jobs use the low indices.
                        Some(job) if w < job.workers => {
                            if let Some(posted) = job.posted_at {
                                let wait = posted.elapsed().as_nanos() as u64;
                                telemetry.dispatch_wait_nanos.fetch_add(wait, Ordering::Relaxed);
                                telemetry.dispatch_wakeups.fetch_add(1, Ordering::Relaxed);
                            }
                            break job.task;
                        }
                        _ => {}
                    }
                }
                state = shared.work_ready.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let busy_t = telemetry.begin();
        let result = catch_unwind(AssertUnwindSafe(|| task(w)));
        telemetry.add_busy(w, busy_t);
        let mut state = shared.lock();
        if let Err(panic) = result {
            state.panicked.get_or_insert(panic);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.work_done.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Backend::Persistent(p) = &mut self.backend {
            p.shared.lock().shutdown = true;
            p.shared.work_ready.notify_all();
            for handle in p.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// Sorts `data` in place by a total key on the pool: selections split it
/// at the pool's range boundaries, so that no element of a range sorts
/// after an element of the next, then the ranges sort in parallel. It
/// allocates no second buffer, so sorting an edge list needs no room for
/// a copy of it. Identical output for every thread count as long as `key`
/// is a total order.
pub fn par_sort_by_key<T, K, F>(pool: &WorkerPool, data: &mut [T], key: F)
where
    T: Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    let ranges = pool.split(n);
    if ranges.len() <= 1 {
        data.sort_unstable_by_key(|a| key(a));
        return;
    }
    let bounds: Vec<usize> = ranges[1..].iter().map(|r| r.start).collect();
    partition_at(data, 0, &bounds, &key);
    let base = SharedSlice::new(data.as_mut_ptr());
    pool.run(n, |_, range| {
        // SAFETY: chunk ranges are disjoint and lie within `0..n`.
        let chunk = unsafe { base.slice_mut(range.start, range.len()) };
        chunk.sort_unstable_by_key(|a| key(a));
    });
}

/// Reorders `data` (which starts at `offset` of the whole slice) so that
/// each of `bounds` splits it into elements that sort no later than every
/// element after the bound: a selection at the middle bound, then each
/// side's bounds on that side.
fn partition_at<T, K: Ord>(
    data: &mut [T],
    offset: usize,
    bounds: &[usize],
    key: &impl Fn(&T) -> K,
) {
    if bounds.is_empty() {
        return;
    }
    let mid = bounds.len() / 2;
    let at = bounds[mid] - offset;
    if at < data.len() {
        data.select_nth_unstable_by_key(at, |a| key(a));
    }
    let (left, right) = data.split_at_mut(at);
    partition_at(left, offset, &bounds[..mid], key);
    partition_at(right, offset + at, &bounds[mid + 1..], key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_range_exactly_once() {
        for threads in [1u32, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let parts = pool.run(100, |_, r| r);
            let mut covered = [0u8; 100];
            for r in parts {
                for i in r {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "threads={threads}");
        }
    }

    #[test]
    fn results_in_worker_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run(40, |w, _| w), vec![0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_sums_across_thread_counts() {
        let data: Vec<u64> = (0..1000).map(|i| i * 7 % 31).collect();
        let sum = |pool: &WorkerPool| -> u64 {
            pool.run(data.len(), |_, r| r.map(|i| data[i]).sum::<u64>()).into_iter().sum()
        };
        let expected = sum(&WorkerPool::inline());
        for threads in [2u32, 4, 7] {
            assert_eq!(sum(&WorkerPool::new(threads)), expected);
        }
    }

    #[test]
    fn pool_is_reused_across_runs() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let parts = pool.run(300, |_, r| r.len());
            assert_eq!(parts.iter().sum::<usize>(), 300);
        }
        let stats = pool.stats();
        assert_eq!(stats.runs, 50);
        assert_eq!(stats.dispatches, 50);
    }

    #[test]
    fn empty_and_tiny_inputs_run_inline() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.run(0, |_, r| r.len()), vec![0]);
        assert_eq!(pool.run(1, |_, r| r.len()), vec![1]);
        assert_eq!(pool.stats().dispatches, 0, "single-range runs never dispatch");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, |w, r| {
                if w == 2 {
                    panic!("worker boom");
                }
                r.len()
            })
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps working.
        let parts = pool.run(100, |_, r| r.len());
        assert_eq!(parts.iter().sum::<usize>(), 100);
    }

    #[test]
    fn caller_range_panic_propagates() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, |w, r| {
                if w == 0 {
                    panic!("caller boom");
                }
                r.len()
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.run(10, |_, r| r.len()), vec![3, 3, 3, 1]);
    }

    #[test]
    fn nested_runs_execute_inline() {
        let pool = WorkerPool::new(4);
        let outer = pool.run(4, |_, r| {
            // A nested dispatch would deadlock on the dispatch lock;
            // inline execution must kick in instead.
            let inner: usize = pool.run(100, |_, ir| ir.len()).into_iter().sum();
            (r.len(), inner)
        });
        for (_, inner) in outer {
            assert_eq!(inner, 100);
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        let total: usize = pool.run(997, |_, r| r.len()).into_iter().sum();
                        assert_eq!(total, 997);
                    }
                });
            }
        });
        assert_eq!(pool.stats().runs, 80);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        let mk = |seed: u64| -> Vec<u64> {
            let mut x = seed;
            (0..4097)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    x >> 33
                })
                .collect()
        };
        for threads in [1u32, 2, 5, 8] {
            let pool = WorkerPool::new(threads);
            let mut data = mk(42);
            par_sort_by_key(&pool, &mut data, |&x| x);
            let mut expected = mk(42);
            expected.sort_unstable();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_sort_sorts_in_place_with_ties_and_short_inputs() {
        for threads in [1u32, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 2, 5, 7, 1000] {
                // Few distinct keys: every bound falls inside a run of ties.
                let mut data: Vec<(u8, u32)> =
                    (0..n as u32).map(|i| ((i.wrapping_mul(2654435761) >> 29) as u8, i)).collect();
                let mut expected = data.clone();
                expected.sort_unstable_by_key(|&(k, i)| (k, i));
                let ptr = data.as_ptr();
                par_sort_by_key(&pool, &mut data, |&(k, i)| (k, i));
                assert_eq!(data, expected, "threads={threads} n={n}");
                assert_eq!(data.as_ptr(), ptr, "sorted in the caller's buffer");
            }
        }
    }

    #[test]
    fn utilization_tracks_busy_workers_and_wakeups() {
        let pool = WorkerPool::new(3);
        assert!(!pool.telemetry_enabled(), "clock sampling is opt-in");
        pool.enable_telemetry();
        for _ in 0..10 {
            pool.run(3000, |_, r| {
                let mut acc = 0u64;
                for i in r {
                    acc = acc.wrapping_add((i as u64).wrapping_mul(2654435761));
                }
                std::hint::black_box(acc);
            });
        }
        let u = pool.utilization();
        assert_eq!(u.per_worker_busy_secs.len(), 3);
        // The caller slot and both parked workers all executed ranges.
        assert!(u.per_worker_busy_secs.iter().all(|&b| b > 0.0), "{u:?}");
        assert!((u.busy_secs - u.per_worker_busy_secs.iter().sum::<f64>()).abs() < 1e-12);
        // 10 dispatches × 2 parked workers woke up.
        assert_eq!(u.dispatch_wakeups, 20);
        assert!(u.mean_dispatch_wait_secs().unwrap() >= 0.0);
        assert!(u.uptime_secs > 0.0);
        let f = u.busy_fraction();
        assert!((0.0..=1.0).contains(&f), "{f}");
    }

    #[test]
    fn inline_pool_attributes_busy_time_to_the_caller() {
        let pool = WorkerPool::inline();
        pool.run(100, |_, r| r.map(|i| i * 2).sum::<usize>());
        assert_eq!(pool.utilization().busy_secs, 0.0, "no sampling until enabled");
        pool.enable_telemetry();
        pool.run(100, |_, r| r.map(|i| i * 2).sum::<usize>());
        let u = pool.utilization();
        assert_eq!(u.per_worker_busy_secs.len(), 1);
        assert!(u.busy_secs > 0.0);
        assert_eq!(u.dispatch_wakeups, 0);
        assert_eq!(u.mean_dispatch_wait_secs(), None);
    }

    #[test]
    fn split_ranges_shape() {
        assert_eq!(split_ranges(4, 10), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(split_ranges(8, 3).len(), 3);
        assert_eq!(split_ranges(1, 0), vec![0..0]);
    }
}
