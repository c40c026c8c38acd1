//! The asynchronous job queue.
//!
//! A job is one `(platform, dataset, algorithm, mode)` benchmark request.
//! Submission is non-blocking: the queue assigns an id and a worker pool
//! (see `server`) executes jobs through the existing harness
//! [`Driver`](graphalytics_harness::Driver) and records each outcome in
//! the job's [`JobRecord`]: the job table is the daemon's results
//! database. Clients poll job state and can cancel while queued.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use graphalytics_core::fault::CancelToken;
use graphalytics_core::Algorithm;
use graphalytics_harness::JobResult;

/// How the driver obtains counters for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobMode {
    /// Materialize (or reuse from the store) a proxy graph and execute
    /// for real, with output validation.
    #[default]
    Measured,
    /// Analytic counter estimation at the published dataset size.
    Analytic,
}

impl JobMode {
    pub fn as_str(self) -> &'static str {
        match self {
            JobMode::Measured => "measured",
            JobMode::Analytic => "analytic",
        }
    }

    pub fn from_str_opt(s: &str) -> Option<JobMode> {
        match s {
            "measured" => Some(JobMode::Measured),
            "analytic" => Some(JobMode::Analytic),
            _ => None,
        }
    }
}

/// A validated job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Engine model name or paper analogue (`"spmv"`, `"GraphMat"`).
    pub platform: String,
    /// Registry dataset id or name (`"G22"`, `"graph500-22"`).
    pub dataset: String,
    pub algorithm: Algorithm,
    pub mode: JobMode,
    /// Execute-phase repetitions on the uploaded graph (the benchmark's
    /// mean-of-N; validated to `1..=MAX_REPETITIONS` at the API).
    pub repetitions: u32,
    /// Execution shards for measured runs (validated to
    /// `1..=MAX_SHARDS` at the API; platforms without a sharded run path
    /// report such jobs as unsupported).
    pub shards: u32,
    /// Optional per-job deadline in milliseconds (from the submission's
    /// `"timeout_secs"`). The worker arms it on the job's cancel token;
    /// a run past the deadline terminates as `timed-out`.
    pub timeout_millis: Option<u64>,
}

/// Upper bound the API accepts for per-job repetitions.
pub const MAX_REPETITIONS: u32 = 100;

/// Upper bound the API accepts for per-job execution shards.
pub const MAX_SHARDS: u32 = 64;

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    /// The driver ran to completion; the benchmark-level verdict
    /// (completed / unsupported / oom / …) lives in the attached result.
    Completed,
    /// The request could not be executed at all.
    Failed(String),
    /// Cancelled: either while still queued, or — via the job's
    /// [`CancelToken`] — while running, in which case the driver aborted
    /// at the next superstep boundary.
    Cancelled,
    /// The job's deadline passed while running; the driver aborted at
    /// the next superstep boundary.
    TimedOut,
}

impl JobState {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
        }
    }

    /// True once the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job as tracked by the queue: the only per-job state the daemon
/// keeps. Clones share the result.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub request: JobRequest,
    pub state: JobState,
    /// The driver's result with its Granula archive, once the driver ran.
    pub result: Option<Arc<JobResult>>,
    /// A cancel arrived while the job was running; the token is signalled
    /// and the job will terminate at its next checkpoint.
    pub cancel_requested: bool,
    /// The running job's cancel token, so `cancel` can signal the worker
    /// mid-run. Set by `next_job`, cleared by `finish`.
    token: Option<CancelToken>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — structured backpressure; the
    /// API maps this to `429 Too Many Requests`.
    QueueFull { capacity: usize },
}

/// Why a cancellation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    NotFound,
    /// The job already left the queue; carries the state it was in.
    NotCancellable(&'static str),
}

/// Job counts by state, for the metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounts {
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub timed_out: u64,
}

impl JobCounts {
    /// The tally a job in `state` counts toward.
    fn tally(&mut self, state: &JobState) -> &mut u64 {
        match state {
            JobState::Queued => &mut self.queued,
            JobState::Running => &mut self.running,
            JobState::Completed => &mut self.completed,
            JobState::Failed(_) => &mut self.failed,
            JobState::Cancelled => &mut self.cancelled,
            JobState::TimedOut => &mut self.timed_out,
        }
    }

    /// Moves `record` to `state`, keeping the tallies in step.
    fn transition(&mut self, record: &mut JobRecord, state: JobState) {
        *self.tally(&record.state) -= 1;
        *self.tally(&state) += 1;
        record.state = state;
    }

    pub fn submitted(&self) -> u64 {
        self.queued + self.running + self.completed + self.failed + self.cancelled + self.timed_out
    }
}

#[derive(Default)]
struct QueueInner {
    next_id: u64,
    pending: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    /// The jobs by state, kept by every transition so that admission and
    /// `counts` cost O(1), not a scan of the whole history.
    counts: JobCounts,
}

/// The thread-safe job queue, bounded to `capacity` open
/// (queued + running) jobs.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    stopping: AtomicBool,
    capacity: usize,
}

impl JobQueue {
    /// A queue refusing submissions beyond `capacity` open jobs.
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::default(),
            ready: Condvar::new(),
            stopping: AtomicBool::new(false),
            capacity: capacity.max(1),
        }
    }

    /// The configured admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a request and returns its job id, or structured
    /// backpressure when the bounded queue is full (open = queued +
    /// running; terminal jobs never count against the bound).
    pub fn submit(&self, request: JobRequest) -> Result<u64, SubmitError> {
        let mut inner = self.lock();
        let open = inner.counts.queued + inner.counts.running;
        if open >= self.capacity as u64 {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        inner.counts.queued += 1;
        inner.next_id += 1;
        let id = inner.next_id;
        inner.jobs.insert(
            id,
            JobRecord {
                id,
                request,
                state: JobState::Queued,
                result: None,
                cancel_requested: false,
                token: None,
            },
        );
        inner.pending.push_back(id);
        drop(inner);
        self.ready.notify_one();
        Ok(id)
    }

    /// A snapshot of one job.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshots of all jobs, in submission order.
    pub fn list(&self) -> Vec<JobRecord> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Folds over the results of the jobs in state `Completed`, in id
    /// order, under the lock and without cloning them: keep `f` short, it
    /// holds up submissions and polls.
    pub(crate) fn fold_completed<T>(
        &self,
        init: T,
        mut f: impl FnMut(T, &Arc<JobResult>) -> T,
    ) -> T {
        self.lock().jobs.values().fold(init, |acc, job| match &job.result {
            Some(result) if job.state == JobState::Completed => f(acc, result),
            _ => acc,
        })
    }

    /// Cancels a queued or running job. Queued jobs flip to `Cancelled`
    /// immediately (they never dispatch). Running jobs have their
    /// [`CancelToken`] signalled — the worker observes it at the next
    /// superstep boundary and finishes the job as `Cancelled`; until then
    /// the returned record reports `running` with `cancel_requested`.
    /// Terminal jobs are [`CancelError::NotCancellable`].
    pub fn cancel(&self, id: u64) -> Result<JobRecord, CancelError> {
        let mut inner = self.lock();
        let QueueInner { jobs, counts, .. } = &mut *inner;
        let record = jobs.get_mut(&id).ok_or(CancelError::NotFound)?;
        match record.state {
            JobState::Queued => {
                counts.transition(record, JobState::Cancelled);
                // The id stays in `pending`; `next_job` skips cancelled
                // entries.
                Ok(record.clone())
            }
            JobState::Running => {
                record.cancel_requested = true;
                if let Some(token) = &record.token {
                    token.cancel();
                }
                Ok(record.clone())
            }
            _ => Err(CancelError::NotCancellable(record.state.as_str())),
        }
    }

    /// Job counts by state.
    pub fn counts(&self) -> JobCounts {
        self.lock().counts
    }

    /// Blocks until a job is available (marking it `Running`) or the queue
    /// shuts down (`None`). Worker-pool entry point. After `shutdown` the
    /// backlog is *abandoned*, not drained: a daemon being stopped must
    /// not first execute hours of queued benchmarks.
    pub fn next_job(&self) -> Option<(u64, JobRequest, CancelToken)> {
        let mut inner = self.lock();
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            let QueueInner { pending, jobs, counts, .. } = &mut *inner;
            while let Some(id) = pending.pop_front() {
                if let Some(record) = jobs.get_mut(&id) {
                    if record.state == JobState::Queued {
                        counts.transition(record, JobState::Running);
                        let request = record.request.clone();
                        let token = CancelToken::new();
                        record.token = Some(token.clone());
                        return Some((id, request, token));
                    }
                    // Cancelled while queued: skip.
                }
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records the outcome of a running job; the record becomes the one
    /// owner of its result.
    pub fn finish(&self, id: u64, state: JobState, result: Option<JobResult>) {
        debug_assert!(state.is_terminal());
        let mut inner = self.lock();
        let QueueInner { jobs, counts, .. } = &mut *inner;
        if let Some(record) = jobs.get_mut(&id) {
            counts.transition(record, state);
            record.result = result.map(Arc::new);
            record.token = None;
        }
    }

    /// Wakes all workers and makes every subsequent `next_job` return
    /// `None`; still-queued jobs are never dispatched.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(alg: Algorithm) -> JobRequest {
        JobRequest {
            platform: "native".into(),
            dataset: "G22".into(),
            algorithm: alg,
            mode: JobMode::Measured,
            repetitions: 1,
            shards: 1,
            timeout_millis: None,
        }
    }

    #[test]
    fn submit_assigns_sequential_ids() {
        let q = JobQueue::bounded(8);
        assert_eq!(q.submit(request(Algorithm::Bfs)), Ok(1));
        assert_eq!(q.submit(request(Algorithm::Wcc)), Ok(2));
        assert_eq!(q.counts().queued, 2);
        assert_eq!(q.list().len(), 2);
        assert_eq!(q.get(1).unwrap().state, JobState::Queued);
        assert!(q.get(99).is_none());
    }

    #[test]
    fn fifo_dispatch_and_finish() {
        let q = JobQueue::bounded(8);
        let a = q.submit(request(Algorithm::Bfs)).unwrap();
        let b = q.submit(request(Algorithm::Wcc)).unwrap();
        let (id1, req1, _) = q.next_job().unwrap();
        assert_eq!((id1, req1.algorithm), (a, Algorithm::Bfs));
        assert_eq!(q.get(a).unwrap().state, JobState::Running);
        q.finish(a, JobState::Completed, None);
        assert_eq!(q.get(a).unwrap().state, JobState::Completed);
        let (id2, _, _) = q.next_job().unwrap();
        assert_eq!(id2, b);
        q.finish(b, JobState::Failed("boom".into()), None);
        let counts = q.counts();
        assert_eq!((counts.completed, counts.failed, counts.submitted()), (1, 1, 2));
    }

    #[test]
    fn cancel_queued_and_running() {
        let q = JobQueue::bounded(8);
        let a = q.submit(request(Algorithm::Bfs)).unwrap();
        let b = q.submit(request(Algorithm::Wcc)).unwrap();
        // Cancel a queued job: it never dispatches.
        assert_eq!(q.cancel(b).map(|r| r.state).ok(), Some(JobState::Cancelled));
        assert_eq!(q.cancel(b).err(), Some(CancelError::NotCancellable("cancelled")));
        assert_eq!(q.cancel(42).err(), Some(CancelError::NotFound));
        let (id, _, token) = q.next_job().unwrap();
        assert_eq!(id, a);
        // Cancelling a running job signals its token; the record stays
        // `running` (with cancel_requested) until the worker observes it.
        assert!(!token.is_cancelled());
        let record = q.cancel(a).unwrap();
        assert_eq!(record.state, JobState::Running);
        assert!(record.cancel_requested);
        assert!(token.is_cancelled(), "running cancel must signal the token");
        // The worker observes the token and reports the terminal state.
        q.finish(a, JobState::Cancelled, None);
        assert_eq!(q.cancel(a).err(), Some(CancelError::NotCancellable("cancelled")));
        // The queued-cancelled job is skipped: the next dispatch is a
        // later one.
        let c = q.submit(request(Algorithm::PageRank)).unwrap();
        let (id, _, _) = q.next_job().unwrap();
        assert_eq!(id, c, "cancelled job is never dispatched");
    }

    #[test]
    fn bounded_queue_backpressure() {
        let q = JobQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.submit(request(Algorithm::Bfs)).unwrap();
        q.submit(request(Algorithm::Wcc)).unwrap();
        assert_eq!(
            q.submit(request(Algorithm::PageRank)),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        // Dispatching does not free a slot (running still counts)...
        let (id, _, _) = q.next_job().unwrap();
        assert!(q.submit(request(Algorithm::PageRank)).is_err());
        // ...finishing does.
        q.finish(id, JobState::Completed, None);
        assert!(q.submit(request(Algorithm::PageRank)).is_ok());
    }

    #[test]
    fn workers_block_until_submission() {
        let q = JobQueue::bounded(8);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.next_job());
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.submit(request(Algorithm::PageRank)).unwrap();
            let (id, req, _) = consumer.join().unwrap().unwrap();
            assert_eq!(id, 1);
            assert_eq!(req.algorithm, Algorithm::PageRank);
        });
    }

    #[test]
    fn shutdown_abandons_queued_backlog() {
        let q = JobQueue::bounded(8);
        q.submit(request(Algorithm::Bfs)).unwrap();
        q.submit(request(Algorithm::Wcc)).unwrap();
        q.shutdown();
        assert!(q.next_job().is_none(), "backlog must not be drained after shutdown");
        assert_eq!(q.counts().queued, 2, "abandoned jobs stay queued");
    }

    #[test]
    fn shutdown_releases_blocked_workers() {
        let q = JobQueue::bounded(8);
        std::thread::scope(|scope| {
            let w1 = scope.spawn(|| q.next_job());
            let w2 = scope.spawn(|| q.next_job());
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.shutdown();
            assert!(w1.join().unwrap().is_none());
            assert!(w2.join().unwrap().is_none());
        });
    }

    #[test]
    fn mode_and_state_strings() {
        assert_eq!(JobMode::Measured.as_str(), "measured");
        assert_eq!(JobMode::from_str_opt("analytic"), Some(JobMode::Analytic));
        assert_eq!(JobMode::from_str_opt("nope"), None);
        assert!(JobState::Failed("x".into()).is_terminal());
        assert!(JobState::TimedOut.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert_eq!(JobState::Queued.as_str(), "queued");
        assert_eq!(JobState::TimedOut.as_str(), "timed-out");
    }
}
