//! The Granula **monitor** — the fourth Granula component (Section
//! 2.5.2): runtime telemetry collected *while* a job executes, feeding
//! the archiver with resource samples the post-hoc phases cannot see.
//!
//! Three pieces, all dependency-free and low-overhead:
//!
//! * a [`MetricsRegistry`] of named atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`DurationHistogram`]s (p50/p95/p99) — the service
//!   exports these through `GET /metrics` (JSON or Prometheus text);
//! * a background [`Sampler`] thread that polls `/proc/self` (RSS,
//!   user/sys CPU time) plus any caller-supplied gauges (worker-pool
//!   utilization) every [`SAMPLE_INTERVAL`] and hands the samples back
//!   on [`Sampler::stop`] so the harness can attach them to the open
//!   archive operation;
//! * one gate, the harness driver's `monitor` switch: monitoring is
//!   strictly data-plane passive — it observes durations and counters,
//!   never the algorithm state — so enabling it cannot change benchmark
//!   outputs, and disabling it reduces every hook to a branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The harness's resource-sampler poll interval. Samples are also taken
/// at sampler start and stop, so even sub-interval jobs record at least
/// two samples.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed log-scale duration buckets, 100µs .. ~28m. An observation lands
/// in the first bucket whose upper bound is ≥ the value; beyond the last
/// bound it lands in the implicit `+Inf` bucket.
pub const DURATION_BUCKET_BOUNDS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Fixed-bucket duration histogram with lock-free observation.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; DURATION_BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    /// Sum in nanoseconds (u64 overflows after ~584 years of observed time).
    sum_nanos: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl DurationHistogram {
    pub fn observe_secs(&self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 { secs } else { 0.0 };
        let idx = DURATION_BUCKET_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(DURATION_BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = self.count.load(Ordering::Relaxed);
        let sum_secs = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        HistogramSnapshot { buckets, count, sum_secs }
    }
}

/// A point-in-time copy of one histogram, with quantile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum_secs: f64,
}

impl HistogramSnapshot {
    /// Estimates quantile `q` in `[0, 1]` by linear interpolation within
    /// the containing bucket. Returns `None` when no observations exist.
    /// Values from the `+Inf` bucket clamp to the last finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let next = cumulative + n;
            if (next as f64) >= rank && n > 0 {
                let hi = DURATION_BUCKET_BOUNDS
                    .get(i)
                    .copied()
                    .unwrap_or(DURATION_BUCKET_BOUNDS[DURATION_BUCKET_BOUNDS.len() - 1]);
                let lo = if i == 0 { 0.0 } else { DURATION_BUCKET_BOUNDS[i - 1] };
                let within = (rank - cumulative as f64) / n as f64;
                return Some(lo + (hi - lo) * within);
            }
            cumulative = next;
        }
        Some(DURATION_BUCKET_BOUNDS[DURATION_BUCKET_BOUNDS.len() - 1])
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    pub fn mean_secs(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_secs / self.count as f64)
        }
    }
}

/// Named metrics, created on first use and shared via `Arc`. Lookup
/// takes a short mutex; the hot path (observing through a held `Arc`)
/// is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<DurationHistogram>)>>,
}

fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut list = list.lock().unwrap();
    if let Some((_, v)) = list.iter().find(|(k, _)| k == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    list.push((name.to_string(), Arc::clone(&v)));
    Arc::clone(&v)
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    pub fn histogram(&self, name: &str) -> Arc<DurationHistogram> {
        get_or_insert(&self.histograms, name)
    }

    /// All metrics at one instant, sorted by name for stable output.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> =
            self.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut gauges: Vec<(String, f64)> =
            self.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// Point-in-time view of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Sanitizes a metric name into the Prometheus charset
/// (`[a-zA-Z0-9_]`, no leading digit).
fn prom_name(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters, gauges, and histograms with
    /// cumulative `_bucket{le=...}` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prom_name(name);
            let value = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cumulative += n;
                let le = match DURATION_BUCKET_BOUNDS.get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum_secs));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// /proc/self reader
// ---------------------------------------------------------------------------

/// One reading of this process's resource usage. Fields are `None` when
/// the platform offers no `/proc` (the sampler still records timing and
/// caller-supplied gauges).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcUsage {
    pub rss_bytes: Option<u64>,
    pub utime_secs: Option<f64>,
    pub stime_secs: Option<f64>,
}

/// Linux `/proc/self/statm` page size; `sysconf` is unreachable without
/// libc bindings, and every platform this runs on uses 4 KiB pages.
const PAGE_BYTES: u64 = 4096;
/// Linux `USER_HZ` for the utime/stime fields of `/proc/self/stat`.
const TICKS_PER_SEC: f64 = 100.0;

/// Reads RSS and user/system CPU time from `/proc/self`. Degrades to
/// `None` fields anywhere the files are absent or unparsable.
pub fn read_proc_usage() -> ProcUsage {
    let mut usage = ProcUsage::default();
    if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
        usage.rss_bytes = statm
            .split_whitespace()
            .nth(1)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|pages| pages * PAGE_BYTES);
    }
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // The comm field (2) may contain spaces; fields are positional
        // only after the closing paren.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            // rest starts at field 3 (state), so utime/stime (fields
            // 14/15 in stat(5) numbering) are at index 11/12.
            usage.utime_secs = fields
                .get(11)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / TICKS_PER_SEC);
            usage.stime_secs = fields
                .get(12)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / TICKS_PER_SEC);
        }
    }
    usage
}

// ---------------------------------------------------------------------------
// Background sampler
// ---------------------------------------------------------------------------

/// One sample taken by the [`Sampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSample {
    /// Seconds since the sampler started.
    pub elapsed_secs: f64,
    pub usage: ProcUsage,
    /// Caller-supplied readings (e.g. worker-pool utilization), as
    /// info-style key/value pairs ready for the archiver.
    pub extra: Vec<(String, String)>,
}

/// Supplies extra per-sample readings; called on the sampler thread.
pub type SampleSource = Box<dyn Fn() -> Vec<(String, String)> + Send>;

struct SamplerShared {
    samples: Mutex<Vec<ResourceSample>>,
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Background thread polling [`read_proc_usage`] (plus an optional
/// [`SampleSource`]) at a fixed interval. One sample is taken
/// immediately on start and one more on stop, so even jobs shorter than
/// the interval record at least two samples.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl Sampler {
    pub fn start(interval: Duration, source: Option<SampleSource>) -> Sampler {
        let shared = Arc::new(SamplerShared {
            samples: Mutex::new(Vec::new()),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let started = Instant::now();
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("granula-monitor".to_string())
            .spawn(move || {
                let take = |t0: Instant| {
                    let sample = ResourceSample {
                        elapsed_secs: t0.elapsed().as_secs_f64(),
                        usage: read_proc_usage(),
                        extra: source.as_ref().map(|s| s()).unwrap_or_default(),
                    };
                    thread_shared.samples.lock().unwrap().push(sample);
                };
                take(started);
                let mut stopped = thread_shared.stop.lock().unwrap();
                // Samples are taken with the lock released, so a `stop()`
                // can set the flag and notify while nobody waits: check
                // the flag before every wait or that wakeup is lost and
                // `stop()` blocks for a whole interval.
                while !*stopped {
                    let (guard, timeout) =
                        thread_shared.wake.wait_timeout(stopped, interval).unwrap();
                    stopped = guard;
                    if !*stopped && timeout.timed_out() {
                        drop(stopped);
                        take(started);
                        stopped = thread_shared.stop.lock().unwrap();
                    }
                }
                drop(stopped);
                take(started);
            })
            .expect("spawn monitor sampler");
        Sampler { shared, handle: Some(handle), started }
    }

    /// Seconds since the sampler started.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stops the thread (taking one final sample) and returns everything
    /// collected, in chronological order.
    pub fn stop(mut self) -> Vec<ResourceSample> {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            handle.join().expect("monitor sampler panicked");
        }
        std::mem::take(&mut *self.shared.samples.lock().unwrap())
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            *self.shared.stop.lock().unwrap() = true;
            self.shared.wake.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs_total").add(3);
        registry.counter("jobs_total").inc();
        assert_eq!(registry.counter("jobs_total").get(), 4);
        registry.gauge("pool_utilization").set(0.75);
        assert_eq!(registry.gauge("pool_utilization").get(), 0.75);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("jobs_total".to_string(), 4)]);
        assert_eq!(snap.gauges, vec![("pool_utilization".to_string(), 0.75)]);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = DurationHistogram::default();
        for _ in 0..90 {
            h.observe_secs(0.002); // bucket (0.001, 0.0025]
        }
        for _ in 0..10 {
            h.observe_secs(0.2); // bucket (0.1, 0.25]
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        let p50 = snap.p50().unwrap();
        assert!(p50 > 0.001 && p50 <= 0.0025, "{p50}");
        let p99 = snap.p99().unwrap();
        assert!(p99 > 0.1 && p99 <= 0.25, "{p99}");
        assert!(snap.mean_secs().unwrap() > 0.0);
    }

    #[test]
    fn histogram_empty_and_overflow() {
        let h = DurationHistogram::default();
        assert_eq!(h.snapshot().p50(), None);
        h.observe_secs(1e6); // +Inf bucket
        h.observe_secs(f64::NAN); // clamped to 0, first bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
        // +Inf observations clamp to the last finite bound.
        assert!(snap.p99().unwrap() <= 10.0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs_completed").add(7);
        registry.gauge("uptime_secs").set(12.5);
        registry.histogram("job_seconds").observe_secs(0.3);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE jobs_completed counter\njobs_completed 7\n"));
        assert!(text.contains("# TYPE uptime_secs gauge\nuptime_secs 12.5\n"));
        assert!(text.contains("# TYPE job_seconds histogram\n"));
        assert!(text.contains("job_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("job_seconds_count 1\n"));
        // Bucket series are cumulative: the 0.5 bucket already holds the
        // 0.3s observation.
        assert!(text.contains("job_seconds_bucket{le=\"0.5\"} 1\n"));
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("pool.worker-0/busy"), "pool_worker_0_busy");
        assert_eq!(prom_name("0leading"), "_0leading");
    }

    #[test]
    fn proc_usage_reads_on_linux() {
        let usage = read_proc_usage();
        if cfg!(target_os = "linux") {
            assert!(usage.rss_bytes.unwrap() > 0);
            assert!(usage.utime_secs.is_some());
            assert!(usage.stime_secs.is_some());
        }
    }

    #[test]
    fn sampler_records_start_and_stop_samples() {
        let sampler = Sampler::start(
            Duration::from_millis(5),
            Some(Box::new(|| vec![("pool_busy".to_string(), "1".to_string())])),
        );
        std::thread::sleep(Duration::from_millis(20));
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "start + stop samples at minimum: {samples:?}");
        assert!(samples.windows(2).all(|w| w[0].elapsed_secs <= w[1].elapsed_secs));
        assert!(samples.iter().all(|s| s.extra[0].0 == "pool_busy"));
    }

    #[test]
    fn short_lived_sampler_still_samples() {
        // On a helper thread so a lost stop wakeup (which would block for
        // the whole hour-long interval) is a red test, not a stuck suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sampler = Sampler::start(Duration::from_secs(3600), None);
            tx.send(sampler.stop()).ok();
        });
        let samples = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stop() must not wait out the sample interval");
        assert!(!samples.is_empty());
    }
}
