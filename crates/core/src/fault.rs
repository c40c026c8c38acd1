//! The fault-injection and cooperative-cancellation plane.
//!
//! Robustness is a first-class benchmark dimension in Graphalytics
//! (stress and variability runs, §2.3): platforms must degrade
//! gracefully, not just score EVPS. This module gives the whole stack a
//! *deterministic* way to exercise that:
//!
//! * [`CancelToken`] — a lock-free cancellation handle with optional
//!   deadline. Owners (the harness driver, the service) arm it; kernels
//!   observe it at superstep boundaries through [`checkpoint`]/[`tick`]
//!   and abort in bounded time with a structured
//!   [`Error::Cancelled`]/[`Error::DeadlineExceeded`].
//! * [`FaultPlan`] — a seeded plan of scripted and probabilistic
//!   injections (worker panics at superstep `k`, slow-worker stalls,
//!   transient and allocation errors). [`FaultPlan::script_for`] derives
//!   a per-(scope, attempt) [`FaultScript`] deterministically, so a
//!   chaos run replays bit-identically for a fixed seed.
//! * a **thread-local scope** ([`install`]) that carries the token and
//!   script through every layer without threading parameters into kernel
//!   signatures — the same pattern as the engines' span tracer. With no
//!   scope installed, [`checkpoint`] is one thread-local read and the
//!   hot kernels stay monomorphized and fast (CI gates the overhead the
//!   same way as the monitor's).
//!
//! Kernels whose signatures do not return `Result` use [`tick`], which
//! aborts by unwinding with a private payload; [`catch_abort`] at the
//! engine boundary converts that unwind back into the structured error.
//! Injected [`FaultKind::WorkerPanic`] faults are *real* panics — they
//! deliberately exercise the worker pool's panic propagation and the
//! service's `catch_unwind` containment.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// A lock-free, cloneable cancellation handle with deadline support.
///
/// Clones share state: cancelling (or arming a deadline on) any clone is
/// observed by all. Checks are two relaxed-ish atomic loads — cheap
/// enough for superstep boundaries at any width.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deadline as nanoseconds since `epoch`; 0 = no deadline armed.
    deadline_nanos: AtomicU64,
    /// The armed timeout in nanoseconds (reporting only).
    timeout_nanos: AtomicU64,
    epoch: Instant,
}

impl Default for TokenInner {
    fn default() -> Self {
        TokenInner {
            cancelled: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(0),
            timeout_nanos: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; observed by every clone at its
    /// next [`CancelToken::check`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Arms (or re-arms) a deadline `timeout` from now. A run holding
    /// this token fails with [`Error::DeadlineExceeded`] at the first
    /// checkpoint past the deadline.
    pub fn arm_deadline(&self, timeout: Duration) {
        let now = self.inner.epoch.elapsed().as_nanos() as u64;
        let deadline = now.saturating_add(timeout.as_nanos() as u64).max(1);
        self.inner.timeout_nanos.store(timeout.as_nanos() as u64, Ordering::SeqCst);
        self.inner.deadline_nanos.store(deadline, Ordering::SeqCst);
    }

    /// Removes any armed deadline.
    pub fn clear_deadline(&self) {
        self.inner.deadline_nanos.store(0, Ordering::SeqCst);
        self.inner.timeout_nanos.store(0, Ordering::SeqCst);
    }

    /// Whether an armed deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        let deadline = self.inner.deadline_nanos.load(Ordering::SeqCst);
        deadline != 0 && self.inner.epoch.elapsed().as_nanos() as u64 >= deadline
    }

    /// The structured verdict: `Err(Cancelled)` once cancelled,
    /// `Err(DeadlineExceeded)` past an armed deadline, `Ok` otherwise.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        if self.deadline_exceeded() {
            let timeout = self.inner.timeout_nanos.load(Ordering::SeqCst);
            return Err(Error::DeadlineExceeded { timeout_secs: timeout as f64 / 1e9 });
        }
        Ok(())
    }
}

/// Where in the lifecycle a checkpoint sits. Each site keeps its own
/// occurrence counter within a scope, so a script can target "superstep
/// 3" independently of "upload".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A kernel iteration / superstep boundary inside an engine.
    Superstep,
    /// Between execute-phase repetitions in the driver.
    Repetition,
    /// Before the engine upload phase.
    Upload,
    /// Inside the parallel CSR build pipeline.
    Build,
    /// Inside the edge-file parser.
    Parse,
    /// Inside delta-log compaction / materialization.
    Compact,
    /// Inside a mutation-batch apply.
    Mutate,
}

impl FaultSite {
    pub const COUNT: usize = 7;

    fn index(self) -> usize {
        match self {
            FaultSite::Superstep => 0,
            FaultSite::Repetition => 1,
            FaultSite::Upload => 2,
            FaultSite::Build => 3,
            FaultSite::Parse => 4,
            FaultSite::Compact => 5,
            FaultSite::Mutate => 6,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::Superstep => "superstep",
            FaultSite::Repetition => "repetition",
            FaultSite::Upload => "upload",
            FaultSite::Build => "build",
            FaultSite::Parse => "parse",
            FaultSite::Compact => "compact",
            FaultSite::Mutate => "mutate",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an injection does when its checkpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A real `panic!` — exercises pool panic propagation and the
    /// service's `catch_unwind` containment.
    WorkerPanic,
    /// A slow-worker stall: sleeps `millis` (in small slices, so an
    /// armed deadline or cancellation still aborts promptly).
    Stall { millis: u64 },
    /// A structured transient error ([`Error::Injected`] with
    /// `transient: true`) — the service retries these with backoff.
    Transient,
    /// A structured permanent allocation-style error
    /// ([`Error::Injected`] with `transient: false`).
    Alloc,
    /// Cancels the scope's own token and returns [`Error::Cancelled`] —
    /// models an operator cancelling at exactly this boundary.
    Cancel,
}

/// One scripted injection: fire `kind` at the `at`-th occurrence of
/// `site` within a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub site: FaultSite,
    /// 0-based occurrence index of `site` within the scope.
    pub at: u64,
    pub kind: FaultKind,
    /// Restrict to the first execution attempt — retried attempts run
    /// clean. This is how tests script "fails once, then succeeds".
    pub first_attempt_only: bool,
}

impl Injection {
    pub fn new(site: FaultSite, at: u64, kind: FaultKind) -> Self {
        Injection { site, at, kind, first_attempt_only: false }
    }

    pub fn once(site: FaultSite, at: u64, kind: FaultKind) -> Self {
        Injection { site, at, kind, first_attempt_only: true }
    }
}

/// A seeded fault plan: scripted injections plus an optional
/// probabilistic layer that makes `rate` of scopes draw one fault,
/// deterministically from `(seed, scope, attempt)`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability in `[0, 1]` that a scope draws one probabilistic
    /// injection (independent per attempt, so retries usually clear).
    pub rate: f64,
    pub scripted: Vec<Injection>,
}

impl FaultPlan {
    /// A purely probabilistic chaos plan.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultPlan { seed, rate: rate.clamp(0.0, 1.0), scripted: Vec::new() }
    }

    /// A purely scripted plan.
    pub fn scripted(injections: Vec<Injection>) -> Self {
        FaultPlan { seed: 0, rate: 0.0, scripted: injections }
    }

    /// The concrete script for one scope (e.g. a job id) and attempt.
    /// Deterministic: the same `(plan, scope, attempt)` always yields the
    /// same script, so chaos runs replay bit-identically.
    pub fn script_for(&self, scope: u64, attempt: u32) -> FaultScript {
        let mut injections: Vec<Injection> = self
            .scripted
            .iter()
            .filter(|i| !i.first_attempt_only || attempt == 0)
            .copied()
            .collect();
        if self.rate > 0.0 {
            let draw = splitmix64(
                self.seed ^ scope.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (attempt as u64) << 56,
            );
            if unit_fraction(draw) < self.rate {
                let detail = splitmix64(draw);
                // Early superstep occurrences so small proxy graphs still
                // reach the injection point.
                let at = detail % 3;
                let kind = match (detail >> 8) % 4 {
                    0 => FaultKind::WorkerPanic,
                    1 => FaultKind::Stall { millis: 15 },
                    2 => FaultKind::Transient,
                    _ => FaultKind::Alloc,
                };
                injections.push(Injection::new(FaultSite::Superstep, at, kind));
            }
        }
        FaultScript { injections }
    }
}

/// The per-scope injection schedule derived from a [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    injections: Vec<Injection>,
}

impl FaultScript {
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn new(injections: Vec<Injection>) -> Self {
        FaultScript { injections }
    }

    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    fn injection_at(&self, site: FaultSite, occurrence: u64) -> Option<FaultKind> {
        self.injections
            .iter()
            .find(|i| i.site == site && i.at == occurrence)
            .map(|i| i.kind)
    }
}

struct Scope {
    token: CancelToken,
    script: FaultScript,
    counts: [u64; FaultSite::COUNT],
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Uninstalls the scope (restoring any outer one) when dropped.
pub struct FaultGuard {
    prev: Option<Scope>,
    restored: bool,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        if self.restored {
            return;
        }
        self.restored = true;
        let prev = self.prev.take();
        SCOPE.with(|s| *s.borrow_mut() = prev);
    }
}

/// Installs a fault/cancellation scope on this thread for the lifetime
/// of the returned guard. Nested installs stack: dropping the guard
/// restores the outer scope.
pub fn install(token: CancelToken, script: FaultScript) -> FaultGuard {
    let prev = SCOPE.with(|s| {
        s.borrow_mut()
            .replace(Scope { token, script, counts: [0; FaultSite::COUNT] })
    });
    FaultGuard { prev, restored: false }
}

/// Whether a scope is installed on this thread.
pub fn installed() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// What [`checkpoint`] decided to do, resolved while the thread-local
/// borrow is held; acted on after it is released (stalls sleep, panics
/// unwind — neither may hold the `RefCell`).
enum Decision {
    Pass,
    Fail(Error),
    Panic(String),
    Stall { millis: u64, token: CancelToken },
}

/// The cooperative checkpoint: observes cancellation/deadline and fires
/// any scheduled injection for `site`. With no scope installed this is a
/// single thread-local read — the disabled fault plane costs nothing
/// measurable at superstep granularity.
pub fn checkpoint(site: FaultSite) -> Result<()> {
    if !installed() {
        return Ok(());
    }
    checkpoint_slow(site)
}

#[cold]
fn checkpoint_slow(site: FaultSite) -> Result<()> {
    let decision = SCOPE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(scope) = borrow.as_mut() else { return Decision::Pass };
        if let Err(e) = scope.token.check() {
            return Decision::Fail(e);
        }
        let occurrence = scope.counts[site.index()];
        scope.counts[site.index()] += 1;
        match scope.script.injection_at(site, occurrence) {
            None => Decision::Pass,
            Some(FaultKind::WorkerPanic) => Decision::Panic(format!(
                "injected fault: worker panic at {site} #{occurrence}"
            )),
            Some(FaultKind::Stall { millis }) => {
                Decision::Stall { millis, token: scope.token.clone() }
            }
            Some(FaultKind::Transient) => {
                Decision::Fail(Error::Injected { site: site.as_str(), transient: true })
            }
            Some(FaultKind::Alloc) => {
                Decision::Fail(Error::Injected { site: site.as_str(), transient: false })
            }
            Some(FaultKind::Cancel) => {
                scope.token.cancel();
                Decision::Fail(Error::Cancelled)
            }
        }
    });
    match decision {
        Decision::Pass => Ok(()),
        Decision::Fail(e) => Err(e),
        Decision::Panic(message) => panic!("{message}"),
        Decision::Stall { millis, token } => {
            // Sleep in slices so an armed deadline or a cancel landing
            // mid-stall still aborts within ~one slice.
            let deadline = Instant::now() + Duration::from_millis(millis);
            loop {
                token.check()?;
                let now = Instant::now();
                if now >= deadline {
                    return token.check();
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
            }
        }
    }
}

/// The abort payload [`tick`] unwinds with; private to this mechanism —
/// [`catch_abort`] converts it back into the structured error.
struct FaultAbort(Error);

/// Checkpoint for kernels that do not return `Result`: aborts by
/// unwinding. Must run under a [`catch_abort`] boundary (the engines'
/// execute-phase scaffold, `engines::platform::execute_phase`, is one).
pub fn tick(site: FaultSite) {
    if let Err(e) = checkpoint(site) {
        std::panic::panic_any(FaultAbort(e));
    }
}

/// Runs `f`, converting a [`tick`] abort back into its structured error.
/// Genuine panics (including injected [`FaultKind::WorkerPanic`] faults)
/// resume unwinding untouched.
pub fn catch_abort<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => match payload.downcast::<FaultAbort>() {
            Ok(abort) => Err(abort.0),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Deterministic jittered exponential backoff: delay for attempt `k` is
/// `base * 2^k` (capped), scaled by a jitter in `[0.5, 1.5)` drawn from
/// `(seed, k)` — bounded, seeded, and reproducible in tests.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    pub base: Duration,
    pub cap: Duration,
    pub seed: u64,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff { base, cap, seed }
    }

    /// The delay before retry attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.cap);
        let jitter = 0.5 + unit_fraction(splitmix64(self.seed ^ (attempt as u64 + 1)));
        capped.mul_f64(jitter)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancel_and_deadline() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones share state");
        assert!(matches!(token.check(), Err(Error::Cancelled)));

        let token = CancelToken::new();
        token.arm_deadline(Duration::from_secs(3600));
        assert!(token.check().is_ok());
        token.arm_deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(1));
        assert!(token.deadline_exceeded());
        assert!(matches!(token.check(), Err(Error::DeadlineExceeded { .. })));
        token.clear_deadline();
        assert!(token.check().is_ok());
    }

    #[test]
    fn checkpoint_without_scope_is_free_pass() {
        assert!(!installed());
        for _ in 0..1000 {
            checkpoint(FaultSite::Superstep).unwrap();
        }
        tick(FaultSite::Superstep); // must not panic without a scope
    }

    #[test]
    fn scripted_injection_fires_at_exact_occurrence() {
        let script = FaultScript::new(vec![Injection::new(
            FaultSite::Superstep,
            2,
            FaultKind::Transient,
        )]);
        let guard = install(CancelToken::new(), script);
        checkpoint(FaultSite::Superstep).unwrap(); // #0
        checkpoint(FaultSite::Upload).unwrap(); // other sites count apart
        checkpoint(FaultSite::Superstep).unwrap(); // #1
        let err = checkpoint(FaultSite::Superstep).unwrap_err(); // #2
        assert!(matches!(err, Error::Injected { transient: true, .. }), "{err}");
        assert!(err.is_transient());
        checkpoint(FaultSite::Superstep).unwrap(); // #3: one-shot
        drop(guard);
        assert!(!installed());
    }

    #[test]
    fn cancel_injection_cancels_the_token() {
        let token = CancelToken::new();
        let script =
            FaultScript::new(vec![Injection::new(FaultSite::Superstep, 0, FaultKind::Cancel)]);
        let _guard = install(token.clone(), script);
        assert!(matches!(
            checkpoint(FaultSite::Superstep),
            Err(Error::Cancelled)
        ));
        assert!(token.is_cancelled());
        // Every later checkpoint keeps failing with Cancelled.
        assert!(matches!(checkpoint(FaultSite::Repetition), Err(Error::Cancelled)));
    }

    #[test]
    fn tick_unwinds_and_catch_abort_restores_the_error() {
        let script =
            FaultScript::new(vec![Injection::new(FaultSite::Superstep, 0, FaultKind::Transient)]);
        let _guard = install(CancelToken::new(), script);
        let result: Result<u32> = catch_abort(|| {
            tick(FaultSite::Superstep);
            Ok(42)
        });
        assert!(matches!(result, Err(Error::Injected { transient: true, .. })));
        // A clean pass returns the value.
        let result: Result<u32> = catch_abort(|| {
            tick(FaultSite::Superstep);
            Ok(42)
        });
        assert_eq!(result.unwrap(), 42);
    }

    #[test]
    fn catch_abort_resumes_real_panics() {
        let caught = std::panic::catch_unwind(|| {
            let _: Result<()> = catch_abort(|| panic!("genuine bug"));
        });
        assert!(caught.is_err(), "real panics must not become structured errors");
    }

    #[test]
    fn injected_worker_panic_is_a_real_panic() {
        let script = FaultScript::new(vec![Injection::new(
            FaultSite::Superstep,
            0,
            FaultKind::WorkerPanic,
        )]);
        let guard = install(CancelToken::new(), script);
        let caught = std::panic::catch_unwind(|| {
            let _: Result<()> = catch_abort(|| {
                tick(FaultSite::Superstep);
                Ok(())
            });
        });
        drop(guard);
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().expect("string panic payload");
        assert!(message.contains("injected fault: worker panic"), "{message}");
    }

    #[test]
    fn stall_respects_deadline() {
        let token = CancelToken::new();
        token.arm_deadline(Duration::from_millis(5));
        let script = FaultScript::new(vec![Injection::new(
            FaultSite::Superstep,
            0,
            FaultKind::Stall { millis: 10_000 },
        )]);
        let _guard = install(token, script);
        let start = Instant::now();
        let err = checkpoint(FaultSite::Superstep).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "stall must abort near the deadline, not sleep it out"
        );
    }

    #[test]
    fn nested_installs_stack() {
        let outer_script =
            FaultScript::new(vec![Injection::new(FaultSite::Upload, 0, FaultKind::Transient)]);
        let outer = install(CancelToken::new(), outer_script);
        {
            let _inner = install(CancelToken::new(), FaultScript::empty());
            checkpoint(FaultSite::Upload).unwrap(); // inner scope: clean
        }
        // Outer scope restored: its script fires.
        assert!(checkpoint(FaultSite::Upload).is_err());
        drop(outer);
        assert!(!installed());
    }

    #[test]
    fn plan_scripts_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::chaos(0xC4A5, 0.25);
        let mut faulted = 0;
        for scope in 0..400u64 {
            let a = plan.script_for(scope, 0);
            let b = plan.script_for(scope, 0);
            assert_eq!(a.injections, b.injections, "deterministic per (scope, attempt)");
            if !a.is_empty() {
                faulted += 1;
            }
        }
        // ~25% of scopes draw a fault; allow generous slack.
        assert!((60..=140).contains(&faulted), "{faulted} of 400 scopes faulted");
        // Attempts draw independently: some faulted scope clears on retry.
        let cleared = (0..400u64).any(|scope| {
            !plan.script_for(scope, 0).is_empty() && plan.script_for(scope, 1).is_empty()
        });
        assert!(cleared, "retries must usually clear probabilistic faults");
    }

    #[test]
    fn first_attempt_only_injections_clear_on_retry() {
        let plan = FaultPlan::scripted(vec![Injection::once(
            FaultSite::Superstep,
            0,
            FaultKind::Transient,
        )]);
        assert!(!plan.script_for(7, 0).is_empty());
        assert!(plan.script_for(7, 1).is_empty());
    }

    #[test]
    fn backoff_is_bounded_exponential_with_seeded_jitter() {
        let backoff = Backoff::new(
            Duration::from_millis(10),
            Duration::from_millis(200),
            0xFACE,
        );
        let d0 = backoff.delay(0);
        let d1 = backoff.delay(1);
        let d5 = backoff.delay(5);
        assert_eq!(d0, backoff.delay(0), "deterministic for a fixed seed");
        assert!(d0 >= Duration::from_millis(5) && d0 < Duration::from_millis(15), "{d0:?}");
        assert!(d1 >= Duration::from_millis(10) && d1 < Duration::from_millis(30), "{d1:?}");
        assert!(d5 <= Duration::from_millis(300), "cap holds: {d5:?}");
        // A huge attempt index must not overflow.
        assert!(backoff.delay(40) <= Duration::from_millis(300));
    }
}
