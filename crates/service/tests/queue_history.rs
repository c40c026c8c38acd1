//! A long-lived queue: more than 200 k seeded submit, dispatch, finish
//! and cancel operations (analytic requests, no engine), with `counts()`
//! checked against a model's running sums at checkpoints.
//!
//! The queue's history only grows (every terminal job stays in the table),
//! so this also pins that admission and `counts()` do not scan it: at the
//! end the table holds tens of thousands of finished jobs, and a scan per
//! submission would take minutes in a debug build.

use graphalytics_core::Algorithm;
use graphalytics_service::jobs::{CancelError, JobCounts};
use graphalytics_service::{JobMode, JobQueue, JobRequest, JobState, SubmitError};

const OPERATIONS: u64 = 200_000;
const CHECKPOINT_EVERY: u64 = 10_000;
const CAPACITY: usize = 16;

/// SplitMix64: a seeded, dependency-free stream of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn analytic(algorithm: Algorithm) -> JobRequest {
    JobRequest {
        platform: "native".into(),
        dataset: "G22".into(),
        algorithm,
        mode: JobMode::Analytic,
        repetitions: 1,
        shards: 1,
        timeout_millis: None,
    }
}

/// The model: every job's state by id (ids are 1-based and dense) and
/// the running sums `counts()` must equal.
#[derive(Default)]
struct Model {
    states: Vec<JobState>,
    counts: JobCounts,
}

impl Model {
    fn tally(&mut self, state: &JobState) -> &mut u64 {
        let c = &mut self.counts;
        match state {
            JobState::Queued => &mut c.queued,
            JobState::Running => &mut c.running,
            JobState::Completed => &mut c.completed,
            JobState::Failed(_) => &mut c.failed,
            JobState::Cancelled => &mut c.cancelled,
            JobState::TimedOut => &mut c.timed_out,
        }
    }

    fn set(&mut self, id: u64, state: JobState) {
        let old = std::mem::replace(&mut self.states[id as usize - 1], state.clone());
        *self.tally(&old) -= 1;
        *self.tally(&state) += 1;
    }
}

#[test]
fn counts_track_a_model_over_200k_operations() {
    let queue = JobQueue::bounded(CAPACITY);
    let mut model = Model::default();
    // Queued jobs in submission order (`next_job` hands out the oldest)
    // and running jobs.
    let (mut queued, mut running): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut rng = Rng(41);
    let mut refused = 0u64;
    for op in 0..OPERATIONS {
        if op % CHECKPOINT_EVERY == 0 {
            assert_eq!(queue.counts(), model.counts, "op {op}");
        }
        match rng.below(8) {
            // Submit.
            0..=2 => {
                let request = analytic([Algorithm::Bfs, Algorithm::Wcc][rng.below(2) as usize]);
                let full = model.counts.queued + model.counts.running >= CAPACITY as u64;
                match queue.submit(request) {
                    Ok(id) => {
                        assert!(!full, "op {op}: admitted past capacity");
                        assert_eq!(id, model.states.len() as u64 + 1, "op {op}");
                        model.states.push(JobState::Queued);
                        model.counts.queued += 1;
                        queued.push(id);
                    }
                    Err(SubmitError::QueueFull { .. }) => {
                        assert!(full, "op {op}: refused below capacity");
                        refused += 1;
                    }
                }
            }
            // Dispatch, only when a job is queued (`next_job` blocks).
            3 | 4 => {
                if queued.is_empty() {
                    continue;
                }
                let id = queued.remove(0);
                let (got, _, _) = queue.next_job().expect("queue is not shut down");
                assert_eq!(got, id, "op {op}: FIFO dispatch");
                model.set(id, JobState::Running);
                running.push(id);
            }
            // Finish a running job with a random terminal state.
            5 | 6 => {
                if running.is_empty() {
                    continue;
                }
                let id = running.swap_remove(rng.below(running.len() as u64) as usize);
                let state = match rng.below(4) {
                    0 => JobState::Completed,
                    1 => JobState::Failed("model".into()),
                    2 => JobState::Cancelled,
                    _ => JobState::TimedOut,
                };
                queue.finish(id, state.clone(), None);
                model.set(id, state);
            }
            // Cancel any id, including finished and unknown ones.
            _ => {
                let id = 1 + rng.below(model.states.len() as u64 + 2);
                let result = queue.cancel(id);
                match model.states.get(id as usize - 1).cloned() {
                    None => assert_eq!(result.err(), Some(CancelError::NotFound), "op {op}"),
                    Some(JobState::Queued) => {
                        assert_eq!(result.map(|r| r.state).ok(), Some(JobState::Cancelled));
                        model.set(id, JobState::Cancelled);
                        queued.retain(|&q| q != id);
                    }
                    // Signals the token; the job stays running.
                    Some(JobState::Running) => {
                        assert_eq!(result.map(|r| r.state).ok(), Some(JobState::Running));
                    }
                    Some(state) => assert_eq!(
                        result.err(),
                        Some(CancelError::NotCancellable(state.as_str())),
                        "op {op}"
                    ),
                }
            }
        }
    }
    // At the end the table is recounted from its records as well.
    assert_eq!(queue.counts(), model.counts);
    assert_eq!(queue.counts().submitted(), model.states.len() as u64);
    let listed = queue.list();
    assert_eq!(listed.len(), model.states.len());
    for record in &listed {
        assert_eq!(record.state, model.states[record.id as usize - 1], "job {}", record.id);
    }
    let terminal = model.states.len() as u64 - model.counts.queued - model.counts.running;
    assert!(terminal > 40_000, "history of {terminal} finished jobs");
    assert!(refused > 0, "the bound was exercised");
}
