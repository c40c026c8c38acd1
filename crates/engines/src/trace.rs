//! Per-superstep/per-iteration span tracing — the engine half of the
//! Granula monitor.
//!
//! Engines record one [`SpanRecord`] per superstep (duration, active
//! vertices, message/edge deltas) while an algorithm runs; the harness
//! folds the spans into the Granula archive under the run's
//! `ProcessGraph` operation. Runs on sharded pregel/pushpull uploads
//! nest per-shard child spans (compute time) under each superstep and
//! add the inter-shard queue depth and barrier drain time to it.
//!
//! Collection is **thread-local**: the execute-phase scaffold
//! ([`execute_phase`]) installs a collector for the duration of one
//! execution (via
//! [`RunContext::begin_trace`] / [`RunContext::absorb_trace`]), and the
//! iteration loops deep inside the
//! kernels report laps through [`IterTimer`] without any signature
//! changes along the way — the same shape the `tracing` ecosystem uses
//! for its subscriber. When tracing is disabled (or outside a
//! collecting scope, e.g. direct kernel calls in tests) every hook
//! reduces to one thread-local read, and nothing the tracer does feeds
//! back into algorithm state: monitoring is strictly data-plane
//! passive, so outputs stay bit-identical with tracing on or off.
//!
//! [`execute_phase`]: crate::platform::execute_phase
//! [`RunContext::begin_trace`]: crate::platform::RunContext::begin_trace
//! [`RunContext::absorb_trace`]: crate::platform::RunContext::absorb_trace

use std::cell::RefCell;
use std::time::Instant;

use graphalytics_cluster::WorkCounters;

/// One traced span: a superstep, an iteration, or a per-shard slice of a
/// superstep. `secs` is a measured duration; start offsets are
/// synthesized when the harness archives the spans (spans within one run
/// are laid out back-to-back).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanRecord {
    pub name: String,
    pub secs: f64,
    pub infos: Vec<(String, String)>,
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    pub fn new(name: impl Into<String>, secs: f64) -> SpanRecord {
        SpanRecord { name: name.into(), secs, infos: Vec::new(), children: Vec::new() }
    }

    /// Builder-style info attachment.
    pub fn with_info(mut self, key: impl Into<String>, value: impl ToString) -> SpanRecord {
        self.infos.push((key.into(), value.to_string()));
        self
    }

    /// Builder-style child attachment.
    pub fn with_child(mut self, child: SpanRecord) -> SpanRecord {
        self.children.push(child);
        self
    }
}

thread_local! {
    /// The collector for the engine run executing on this thread, if any.
    static COLLECTOR: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// Installs (or clears, when `enabled` is false) this thread's collector.
/// Called by [`RunContext::begin_trace`]; kernels never call this.
///
/// [`RunContext::begin_trace`]: crate::platform::RunContext::begin_trace
pub(crate) fn install(enabled: bool) {
    COLLECTOR.with(|c| *c.borrow_mut() = if enabled { Some(Vec::new()) } else { None });
}

/// Takes everything collected since [`install`] and uninstalls the
/// collector.
pub(crate) fn drain() -> Vec<SpanRecord> {
    COLLECTOR.with(|c| c.borrow_mut().take()).unwrap_or_default()
}

/// Whether a collector is installed on this thread.
#[inline]
pub fn active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Records a completed span, if a collector is installed.
pub fn push(span: SpanRecord) {
    COLLECTOR.with(|c| {
        if let Some(spans) = c.borrow_mut().as_mut() {
            spans.push(span);
        }
    });
}

/// Work-counter values captured when the previous lap closed, so the
/// next lap can report per-iteration deltas of the run-cumulative
/// counters. Kept inside [`IterTimer`] — call sites never hold marks.
#[derive(Debug, Clone, Copy, Default)]
struct CounterMarks {
    messages: u64,
    edges_scanned: u64,
}

impl CounterMarks {
    fn capture(c: &WorkCounters) -> CounterMarks {
        CounterMarks { messages: c.messages, edges_scanned: c.edges_scanned }
    }
}

/// The per-loop tracing handle: created once before an iteration loop,
/// lapped once per iteration. All methods are no-ops (one branch) when
/// no collector is installed on this thread.
///
/// ```ignore
/// let mut it = IterTimer::new("Superstep", c);
/// loop {
///     /* superstep body */
///     it.lap(c, |span| span.with_info("active", active_count));
/// }
/// ```
///
/// The timer owns all its loop-carried state (lap start, counter marks,
/// iteration index), so a call site adds one `lap` call after the loop
/// body and no locals alive across it. For most kernels that is cheap
/// enough; the hottest sequential per-edge loops are touchier — merely
/// having the hook code in the function body can deoptimize them even
/// when tracing is off (pushpull WCC lost ~2x). Those kernels
/// monomorphize on the tracing state instead, so the untraced
/// instantiation contains no trace code at all (see `wcc_kernel` in
/// `pushpull`).
pub struct IterTimer {
    kind: &'static str,
    index: u64,
    marks: CounterMarks,
    lap: Option<Instant>,
}

impl IterTimer {
    /// Starts timing iterations of the given kind (`"Superstep"`,
    /// `"Iteration"`, `"Round"`), marking the current counter values.
    /// Enabled iff this thread is collecting.
    pub fn new(kind: &'static str, c: &WorkCounters) -> IterTimer {
        let lap = active().then(Instant::now);
        let marks = if lap.is_some() { CounterMarks::capture(c) } else { CounterMarks::default() };
        IterTimer { kind, index: 0, marks, lap }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.lap.is_some()
    }

    /// Closes one iteration: records a span with the lap duration,
    /// counter deltas since the previous lap (or since [`IterTimer::new`]
    /// for the first), and whatever `decorate` adds (active-vertex
    /// counts, per-shard children). `decorate` only runs when tracing is
    /// enabled.
    /// The counter reference is consumed *here*, in the inlined fast
    /// path: only two scalar field reads cross into the cold call, so
    /// `c`'s pointer never escapes into opaque code and the enclosing
    /// kernel loop keeps its counters register-promoted.
    #[inline]
    pub fn lap(&mut self, c: &WorkCounters, decorate: impl FnOnce(SpanRecord) -> SpanRecord) {
        if self.lap.is_some() {
            self.lap_slow(
                CounterMarks { messages: c.messages, edges_scanned: c.edges_scanned },
                decorate,
            );
        }
    }

    #[cold]
    #[inline(never)]
    fn lap_slow(&mut self, now: CounterMarks, decorate: impl FnOnce(SpanRecord) -> SpanRecord) {
        let Some(t) = self.lap else { return };
        let span = SpanRecord::new(self.kind, t.elapsed().as_secs_f64())
            .with_info("index", self.index)
            .with_info("messages", now.messages - self.marks.messages)
            .with_info("edges_scanned", now.edges_scanned - self.marks.edges_scanned);
        push(decorate(span));
        self.index += 1;
        self.marks = now;
        self.lap = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_means_no_spans_and_no_work() {
        install(false);
        assert!(!active());
        let c = WorkCounters::new();
        let mut it = IterTimer::new("Iteration", &c);
        assert!(!it.is_enabled());
        it.lap(&c, |s| {
            panic!("decorate must not run when disabled: {s:?}");
        });
        assert!(drain().is_empty());
    }

    #[test]
    fn laps_record_deltas_and_indices() {
        install(true);
        let mut c = WorkCounters::new();
        let mut it = IterTimer::new("Superstep", &c);
        for step in 0..3u64 {
            c.messages += 10 * (step + 1);
            c.edges_scanned += 5;
            it.lap(&c, |s| s.with_info("active", 7));
        }
        let spans = drain();
        assert!(!active(), "drain uninstalls");
        assert_eq!(spans.len(), 3);
        for (step, span) in spans.iter().enumerate() {
            assert_eq!(span.name, "Superstep");
            assert!(span.secs >= 0.0);
            let info = |k: &str| {
                span.infos.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
            };
            assert_eq!(info("index"), Some(step.to_string()));
            assert_eq!(info("messages"), Some((10 * (step as u64 + 1)).to_string()));
            assert_eq!(info("edges_scanned"), Some("5".to_string()));
            assert_eq!(info("active"), Some("7".to_string()));
        }
    }

    #[test]
    fn nested_spans_compose() {
        install(true);
        let shard = SpanRecord::new("Shard", 0.01).with_info("shard", 0);
        push(SpanRecord::new("Superstep", 0.02).with_info("queue_depth", 4).with_child(shard));
        let spans = drain();
        assert_eq!(spans[0].children.len(), 1);
        assert_eq!(spans[0].children[0].name, "Shard");
    }
}
