//! Model test of the job lifecycle: seeded random sequences of submit,
//! dispatch, cancel, finish, get, list and counts against a bounded
//! [`JobQueue`], checked step by step against a plain in-test model.
//!
//! The model asserts that only legal transitions happen (queued →
//! running | cancelled, running → terminal, terminal never moves), that
//! dispatch is FIFO and skips cancelled jobs, that `QueueFull` comes back
//! exactly when open == capacity, that submitted = Σ terminal + in flight,
//! that `get` and `list` agree with the model, and that a dispatched job's
//! cancel token is signalled if and only if the job was cancelled while
//! running.
//!
//! `next_job` blocks on an empty queue, so the test dispatches only when
//! the model holds a queued job.

use std::collections::BTreeMap;

use graphalytics_core::fault::CancelToken;
use graphalytics_core::Algorithm;
use graphalytics_service::jobs::CancelError;
use graphalytics_service::{JobMode, JobQueue, JobRecord, JobRequest, JobState, SubmitError};

/// SplitMix64: a seeded, dependency-free stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct ModelJob {
    request: JobRequest,
    state: JobState,
    cancel_requested: bool,
    /// The token `next_job` handed out, once dispatched.
    token: Option<CancelToken>,
}

struct Model {
    capacity: usize,
    jobs: BTreeMap<u64, ModelJob>,
    rejected: u64,
}

impl Model {
    fn open(&self) -> usize {
        self.jobs.values().filter(|j| !j.state.is_terminal()).count()
    }

    /// The job `next_job` must hand out: the oldest one still queued.
    fn next_queued(&self) -> Option<u64> {
        self.jobs.iter().find(|(_, j)| j.state == JobState::Queued).map(|(&id, _)| id)
    }

    fn running(&self) -> Vec<u64> {
        self.jobs.iter().filter(|(_, j)| j.state == JobState::Running).map(|(&id, _)| id).collect()
    }
}

fn request(rng: &mut Rng) -> JobRequest {
    let algorithms = [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Wcc, Algorithm::Lcc];
    JobRequest {
        platform: ["native", "spmv", "pregel"][rng.below(3) as usize].to_string(),
        dataset: ["G22", "R1"][rng.below(2) as usize].to_string(),
        algorithm: algorithms[rng.below(algorithms.len() as u64) as usize],
        mode: if rng.below(2) == 0 { JobMode::Measured } else { JobMode::Analytic },
        repetitions: 1 + rng.below(3) as u32,
        shards: 1,
        timeout_millis: None,
    }
}

fn terminal_state(rng: &mut Rng) -> JobState {
    match rng.below(4) {
        0 => JobState::Completed,
        1 => JobState::Failed("injected by the model".to_string()),
        2 => JobState::Cancelled,
        _ => JobState::TimedOut,
    }
}

fn assert_record(record: &JobRecord, id: u64, job: &ModelJob, context: &str) {
    assert_eq!(record.id, id, "{context}: id");
    assert_eq!(record.request, job.request, "{context}: request of job {id}");
    assert_eq!(record.state, job.state, "{context}: state of job {id}");
    assert_eq!(
        record.cancel_requested, job.cancel_requested,
        "{context}: cancel_requested of job {id}"
    );
    assert!(record.result.is_none(), "{context}: the model never attaches a result");
}

fn legal(from: &JobState, to: &JobState) -> bool {
    match from {
        JobState::Queued => {
            matches!(to, JobState::Queued | JobState::Running | JobState::Cancelled)
        }
        JobState::Running => true,
        terminal => terminal == to,
    }
}

/// Compares the whole queue with the model and checks the transitions
/// since the previous snapshot.
fn check(queue: &JobQueue, model: &Model, previous: &mut BTreeMap<u64, JobState>, context: &str) {
    let listed = queue.list();
    assert_eq!(listed.len(), model.jobs.len(), "{context}: list length");
    for (record, (&id, job)) in listed.iter().zip(&model.jobs) {
        assert_record(record, id, job, context);
    }
    for record in &listed {
        if let Some(before) = previous.get(&record.id) {
            assert!(
                legal(before, &record.state),
                "{context}: illegal transition of job {}: {before:?} -> {:?}",
                record.id,
                record.state
            );
        }
    }
    *previous = listed.iter().map(|r| (r.id, r.state.clone())).collect();

    let counts = queue.counts();
    let count =
        |pred: fn(&JobState) -> bool| model.jobs.values().filter(|j| pred(&j.state)).count() as u64;
    assert_eq!(counts.queued, count(|s| *s == JobState::Queued), "{context}: queued");
    assert_eq!(counts.running, count(|s| *s == JobState::Running), "{context}: running");
    assert_eq!(counts.completed, count(|s| *s == JobState::Completed), "{context}: completed");
    assert_eq!(counts.failed, count(|s| matches!(s, JobState::Failed(_))), "{context}: failed");
    assert_eq!(counts.cancelled, count(|s| *s == JobState::Cancelled), "{context}: cancelled");
    assert_eq!(counts.timed_out, count(|s| *s == JobState::TimedOut), "{context}: timed out");
    let terminal = counts.completed + counts.failed + counts.cancelled + counts.timed_out;
    let in_flight = counts.queued + counts.running;
    assert_eq!(counts.submitted(), terminal + in_flight, "{context}: submitted");
    assert_eq!(counts.submitted(), model.jobs.len() as u64, "{context}: accepted submissions");
    assert!(model.open() <= model.capacity, "{context}: open jobs exceed the capacity");

    for (id, job) in &model.jobs {
        // `cancel_requested` is set by a cancel that found the job running
        // and by nothing else.
        if let Some(token) = &job.token {
            assert_eq!(
                token.is_cancelled(),
                job.cancel_requested,
                "{context}: token of job {id} signalled iff cancelled while running"
            );
        }
    }
}

fn run(seed: u64, capacity: usize, steps: usize) {
    let mut rng = Rng(seed.wrapping_mul(31).wrapping_add(capacity as u64));
    let queue = JobQueue::bounded(capacity);
    assert_eq!(queue.capacity(), capacity);
    let mut model = Model { capacity, jobs: BTreeMap::new(), rejected: 0 };
    let mut previous = BTreeMap::new();
    for step in 0..steps {
        let context = format!("seed {seed}, capacity {capacity}, step {step}");
        // Ids in play: every accepted one plus one that was never issued.
        let any_id = |rng: &mut Rng, model: &Model| 1 + rng.below(model.jobs.len() as u64 + 1);
        match rng.below(7) {
            0 => {
                let request = request(&mut rng);
                let outcome = queue.submit(request.clone());
                if model.open() == capacity {
                    assert_eq!(outcome, Err(SubmitError::QueueFull { capacity }), "{context}");
                    model.rejected += 1;
                } else {
                    let id = model.jobs.len() as u64 + 1;
                    assert_eq!(outcome, Ok(id), "{context}: ids are sequential");
                    model.jobs.insert(
                        id,
                        ModelJob {
                            request,
                            state: JobState::Queued,
                            cancel_requested: false,
                            token: None,
                        },
                    );
                }
            }
            1 => {
                let Some(expected) = model.next_queued() else { continue };
                let (id, request, token) = queue.next_job().expect("a queued job dispatches");
                assert_eq!(id, expected, "{context}: FIFO dispatch skipping cancelled jobs");
                let job = model.jobs.get_mut(&id).unwrap();
                assert_eq!(request, job.request, "{context}: dispatched request");
                assert!(!token.is_cancelled(), "{context}: a fresh token is not signalled");
                job.state = JobState::Running;
                job.token = Some(token);
            }
            2 => {
                let id = any_id(&mut rng, &model);
                let outcome = queue.cancel(id);
                match model.jobs.get_mut(&id) {
                    None => assert_eq!(outcome.err(), Some(CancelError::NotFound), "{context}"),
                    Some(job) => match job.state {
                        JobState::Queued => {
                            job.state = JobState::Cancelled;
                            assert_record(&outcome.expect("queued cancel"), id, job, &context);
                        }
                        JobState::Running => {
                            job.cancel_requested = true;
                            assert_record(&outcome.expect("running cancel"), id, job, &context);
                        }
                        ref terminal => assert_eq!(
                            outcome.err(),
                            Some(CancelError::NotCancellable(terminal.as_str())),
                            "{context}"
                        ),
                    },
                }
            }
            3 => {
                let running = model.running();
                if running.is_empty() {
                    continue;
                }
                let id = running[rng.below(running.len() as u64) as usize];
                let state = terminal_state(&mut rng);
                queue.finish(id, state.clone(), None);
                model.jobs.get_mut(&id).unwrap().state = state;
            }
            4 => {
                let id = any_id(&mut rng, &model);
                match (queue.get(id), model.jobs.get(&id)) {
                    (Some(record), Some(job)) => assert_record(&record, id, job, &context),
                    (None, None) => {}
                    (got, _) => panic!("{context}: get({id}) = {got:?}"),
                }
            }
            5 => {
                let listed: Vec<u64> = queue.list().iter().map(|r| r.id).collect();
                let expected: Vec<u64> = model.jobs.keys().copied().collect();
                assert_eq!(listed, expected, "{context}: list is in id order");
            }
            _ => {
                let counts = queue.counts();
                assert_eq!(
                    counts.queued + counts.running,
                    model.open() as u64,
                    "{context}: open jobs"
                );
            }
        }
        check(&queue, &model, &mut previous, &context);
    }
    // Every sequence exercises the bound at least once at small capacities.
    if capacity == 1 {
        assert!(model.rejected > 0, "seed {seed}: the bound was never reached");
    }
}

#[test]
fn job_queue_matches_the_lifecycle_model() {
    for capacity in 1..=4 {
        for seed in 0..64 {
            run(seed, capacity, 300);
        }
    }
}
