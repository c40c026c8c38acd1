//! Spans recorded by the benchmark around the calls into each layer.
//!
//! A span is `{name, start, end, parent, job}`; spans of one job share its
//! identifier. They are kept in memory and written out once, when the
//! traced run ends. A layer's *self time* is its span minus its children.
//! [`Tracer::scope`] always times the call — the untraced run needs the
//! same durations for its end-to-end metrics — and records a span only
//! when tracing is on, so both runs execute the same code.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::layers::Json;

/// Job identifier of spans that belong to no job (probes between jobs).
pub const NO_JOB: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open scopes, innermost last.
    stack: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: NO_JOB,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Sets the job identifier that following spans carry.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f`, returns its result and wall seconds, and — when tracing —
    /// records a span under the innermost open scope.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = self.now();
        let index = self.enabled.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end: start,
                parent,
                job: self.job,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let end = self.now();
        if let Some(index) = index {
            self.spans[index].end = end;
            self.stack.pop();
        }
        (result, end - start)
    }

    /// Records a span whose times were taken elsewhere (client-side clocks
    /// read around HTTP calls, durations the daemon reports). No-op when
    /// tracing is off. Returns the span's index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or(self.stack.last().copied());
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            job: self.job,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's,
/// floored at zero (children placed from a second clock can overshoot).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.secs();
        }
    }
    own.iter().map(|s| s.max(0.0)).collect()
}

/// Durations grouped by span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&str, Vec<f64>> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name.entry(&span.name).or_default().push(span.secs());
    }
    by_name
}

/// Share of job time no layer span accounts for: the self time of the
/// container spans (`job`, `daemon`) over the total duration of the `job`
/// spans. Reported, not hidden.
pub fn residual_fraction(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let is_container = |s: &Span| s.name == "job" || s.name == "daemon";
    let unaccounted: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_container(s))
        .map(|(_, o)| *o)
        .sum();
    let total: f64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(Span::secs)
        .sum();
    if total > 0.0 {
        unaccounted / total
    } else {
        0.0
    }
}

pub fn to_json(workload: &str, host: &Json, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .map(|(s, own)| {
            Json::obj(vec![
                ("name", Json::str(&s.name)),
                ("start", Json::Num(s.start)),
                ("end", Json::Num(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                (
                    "job",
                    if s.job == NO_JOB {
                        Json::Null
                    } else {
                        Json::Num(s.job as f64)
                    },
                ),
                ("self", Json::Num(*own)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("host", host.clone()),
        ("unit", Json::str("s")),
        ("spans", Json::Arr(rows)),
    ])
}

/// Writes `<dir>/<workload>.trace.json`.
pub fn write(
    dir: &Path,
    workload: &str,
    host: &Json,
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, to_json(workload, host, spans).to_string_compact())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn scope_nests_and_times_even_when_disabled() {
        let mut off = Tracer::new(false);
        let (value, secs) = off.scope("job", |t| t.scope("io.parse", |_| 7).0);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.record("x", 0.0, 1.0, None), None);

        let mut on = Tracer::new(true);
        on.set_job(3);
        on.scope("job", |t| {
            t.scope("io.parse", |_| ());
            t.scope("csr.build", |t| {
                t.record("engines.native.upload", 0.0, 0.0, None);
            });
        });
        let names: Vec<_> = on
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("job", None),
                ("io.parse", Some(0)),
                ("csr.build", Some(0)),
                ("engines.native.upload", Some(2))
            ]
        );
        assert!(on.spans().iter().all(|s| s.job == 3 && s.end >= s.start));
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 4.0, 9.0, Some(0)),
            span("b.inner", 5.0, 6.0, Some(2)),
            span("overshoot", 0.0, 2.0, Some(3)),
        ];
        assert_eq!(self_times(&spans), [2.0, 3.0, 4.0, 0.0, 2.0]);
        assert!((residual_fraction(&spans) - 0.2).abs() < 1e-12);
        assert_eq!(durations_by_name(&spans)["b"], [5.0]);
    }

    #[test]
    fn trace_file_round_trips_through_the_json_parser() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/unit-{}", std::process::id()));
        let spans = [
            span("job", 0.0, 2.0, None),
            span("io.parse", 0.5, 1.5, Some(0)),
        ];
        let path = write(&dir, "unit", &Json::Null, &spans).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let rows = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("name").and_then(Json::as_str), Some("io.parse"));
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[0].get("self").and_then(Json::as_f64), Some(1.0));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
    }
}
