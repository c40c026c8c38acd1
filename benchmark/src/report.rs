//! Turns what a run recorded into the named metrics.
//!
//! End-to-end metrics come from the untraced run's samples only. Per-layer
//! metrics come from the traced run's spans, counts and samples; a layer
//! the workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::catalog;
use crate::layers::{ALGORITHMS, POOL_THREADS};
use crate::stats::{geomean, geomean_of_cell_medians, median, percentile};
use crate::trace::{durations_by_name, residual_fraction, self_times};
use crate::workloads::{Recorder, Sample};

pub type Metrics = BTreeMap<String, f64>;

fn ok_samples(rec: &Recorder) -> impl Iterator<Item = &Sample> {
    rec.samples.iter().filter(|s| s.failure.is_none())
}

/// Geometric mean over the cells `keep` selects of `(|V|+|E|) / median
/// measured T_proc` — the paper's EVPS, per cell, from real clocks.
fn evps(rec: &Recorder, keep: impl Fn(&Sample) -> bool) -> Option<f64> {
    let mut cells: BTreeMap<String, (u64, Vec<f64>)> = BTreeMap::new();
    for s in ok_samples(rec).filter(|s| keep(s)) {
        if let Some(tproc) = s.tproc_secs {
            cells
                .entry(s.cell())
                .or_insert((s.vertices_plus_edges, Vec::new()))
                .1
                .push(tproc);
        }
    }
    geomean(
        cells
            .values()
            .map(|(size, t)| *size as f64 / median(t).expect("non-empty cell")),
    )
}

fn makespan_geomean_ms(rec: &Recorder) -> Option<f64> {
    let cells: Vec<(String, f64)> = ok_samples(rec)
        .map(|s| (s.cell(), s.makespan_secs))
        .collect();
    geomean_of_cell_medians(cells.iter().map(|(c, m)| (c.as_str(), *m))).map(|s| s * 1e3)
}

/// p90 of all job makespans of the run. On this shared two-core host the
/// raw tail spreads 10–28 % between identical runs, so it is reported, not
/// gated: printed with the end-to-end metrics and listed per layer.
pub fn makespan_p90_ms(rec: &Recorder) -> f64 {
    let makespans: Vec<f64> = ok_samples(rec).map(|s| s.makespan_secs).collect();
    percentile(&makespans, 0.9).unwrap_or(0.0) * 1e3
}

/// Work over time, for the samples that carry the pair `pick` extracts.
fn rate(rec: &Recorder, pick: impl Fn(&Sample) -> Option<(u64, f64)>) -> Option<f64> {
    let (work, secs) = ok_samples(rec)
        .filter_map(pick)
        .fold((0.0, 0.0), |(w, s), (work, secs)| {
            (w + work as f64, s + secs)
        });
    (secs > 0.0).then(|| work / secs)
}

/// Completed, validated jobs per second of the median pass. Every pass
/// runs the same jobs, so the median pass is the run's typical second;
/// a burst from another tenant of the host slows one pass, not the median.
fn jobs_per_s(rec: &Recorder) -> f64 {
    let per_pass = ok_samples(rec).count() as f64 / rec.passes.max(1) as f64;
    median(&rec.pass_secs).map_or(0.0, |secs| per_pass / secs)
}

/// The end-to-end metrics of `catalog::end_to_end`, in its order.
pub fn end_to_end(rec: &Recorder, setup_secs: f64) -> Metrics {
    Metrics::from([
        ("setup_s".to_string(), setup_secs),
        (
            "makespan_geomean_ms".to_string(),
            makespan_geomean_ms(rec).unwrap_or(0.0),
        ),
        ("jobs_per_s".to_string(), jobs_per_s(rec)),
        (
            "evps_geomean".to_string(),
            evps(rec, |_| true).unwrap_or(0.0),
        ),
        ("peak_rss_mb".to_string(), rec.peak_rss_mb),
    ])
}

/// The paper metrics only some workloads can measure, from the same
/// (untraced) samples: `load_eps`, `evps_<alg>`, `mutations_per_s`,
/// `makespan_p90_ms`, `failed_fraction`. Printed for people; `evps_<alg>` is the geometric
/// mean of the per-layer `engines.<e>.<alg>.evps`.
pub fn workload_scoped(rec: &Recorder) -> Vec<(String, &'static str, f64)> {
    let mut rows = vec![("makespan_p90_ms".to_string(), "ms", makespan_p90_ms(rec))];
    if let Some(v) = rate(rec, |s| s.load) {
        rows.push(("load_eps".to_string(), "edges/s", v));
    }
    for algorithm in ALGORITHMS {
        if let Some(v) = evps(rec, |s| s.algorithm == Some(algorithm)) {
            rows.push((format!("evps_{algorithm}"), "EV/s", v));
        }
    }
    if let Some(v) = rate(rec, |s| s.mutations) {
        rows.push(("mutations_per_s".to_string(), "edge-mut/s", v));
    }
    rows.push((
        "failed_fraction".to_string(),
        "ratio",
        rec.failed() as f64 / rec.samples.len().max(1) as f64,
    ));
    rows
}

/// Every metric of `catalog::per_layer`, from the traced run (and the
/// untraced one for the tracing overhead).
pub fn per_layer(untraced: &Recorder, traced: &Recorder, working_set_bytes: u64) -> Metrics {
    let spans = traced.tracer.spans();
    let by_name = durations_by_name(spans);
    let own = self_times(spans);
    let durations = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let median_secs = |name: &str| median(durations(name)).unwrap_or(0.0);
    let total_secs = |name: &str| durations(name).iter().sum::<f64>();
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0);
    let observed = |name: &str| {
        traced
            .series
            .get(name)
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    };
    let per_sec = |work: f64, secs: f64| if secs > 0.0 { work / secs } else { 0.0 };
    let median_self = |name: &str| {
        let picked: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| *o)
            .collect();
        median(&picked).unwrap_or(0.0)
    };

    let mut m = Metrics::new();
    let mut set = |name: &str, value: f64| {
        m.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    };

    set("load_eps", rate(traced, |s| s.load).unwrap_or(0.0));
    set(
        "mutations_per_s",
        rate(traced, |s| s.mutations).unwrap_or(0.0),
    );

    set("io.parse_s", median_secs("io.parse"));
    set(
        "io.parse_eps",
        per_sec(count("io.parse.edges"), total_secs("io.parse")),
    );
    set(
        "io.parse_mbps",
        per_sec(count("io.parse.bytes"), total_secs("io.parse")) / 1e6,
    );
    set(
        "io.parse_seq_eps",
        per_sec(count("io.parse_seq.edges"), total_secs("io.parse_seq")),
    );
    set("io.vertex_parse_s", median_secs("io.vertex_parse"));

    set("csr.build_s", median_secs("csr.build"));
    set(
        "csr.build_eps",
        per_sec(count("csr.build.edges"), total_secs("csr.build")),
    );
    set(
        "csr.build_seq_eps",
        per_sec(count("csr.build_seq.edges"), total_secs("csr.build_seq")),
    );
    set("csr.resident_bytes", working_set_bytes as f64);

    let recipes = ["graph500", "rmat", "datagen"].map(|r| format!("proxy.materialize.{r}"));
    let materialize: Vec<f64> = recipes
        .iter()
        .flat_map(|r| durations(r).iter().copied())
        .collect();
    let recipe_eps = |r: &String| per_sec(count(&format!("{r}.edges")), total_secs(r));
    set("proxy.materialize_s", median(&materialize).unwrap_or(0.0));
    set(
        "proxy.materialize_eps",
        per_sec(
            recipes.iter().map(|r| count(&format!("{r}.edges"))).sum(),
            materialize.iter().sum(),
        ),
    );
    set("proxy.rmat_eps", recipe_eps(&recipes[1]));
    set("proxy.datagen_eps", recipe_eps(&recipes[2]));

    for def in catalog::per_layer() {
        let Some(rest) = def.name.strip_prefix("engines.") else {
            continue;
        };
        let parts: Vec<&str> = rest.split('.').collect();
        match parts[..] {
            [engine, "upload_s"] => {
                set(&def.name, median_secs(&format!("engines.{engine}.upload")))
            }
            [engine, algorithm, "evps"] => set(
                &def.name,
                evps(traced, |s| {
                    s.engine == engine && s.algorithm.is_some_and(|a| a.acronym() == algorithm)
                })
                .unwrap_or(0.0),
            ),
            // engines.<alg>.<counter>: exact work counts, summed over cells.
            _ => set(&def.name, count(&def.name)),
        }
    }

    for algorithm in ALGORITHMS {
        set(
            &format!("reference.{algorithm}.s"),
            median_secs(&format!("reference.{algorithm}")),
        );
    }
    set("validation.compare_s", median_secs("validation.compare"));

    set("driver.job_s", median_secs("driver.job"));
    set("driver.self_s", median_secs("driver.self"));
    set("driver.archive_ops", observed("driver.archive_ops"));

    let pool_capacity_secs = traced.elapsed_secs * POOL_THREADS as f64;
    set(
        "pool.busy_fraction",
        per_sec(count("pool.busy_secs"), pool_capacity_secs).min(1.0),
    );
    set("pool.dispatch_wait_s", count("pool.dispatch_wait_secs"));
    set("pool.dispatch_wakeups", count("pool.dispatch_wakeups"));

    let apply_secs: f64 = traced
        .series
        .get("delta.apply_s")
        .map_or(0.0, |v| v.iter().sum());
    set("delta.apply_s", observed("delta.apply_s"));
    set(
        "delta.apply_mutations_per_s",
        per_sec(count("delta.apply.mutations"), apply_secs),
    );
    set("delta.materialize_s", median_secs("delta.materialize"));
    set(
        "delta.compact_s",
        per_sec(count("delta.compact_secs"), count("delta.compactions")),
    );
    set("delta.compactions", count("delta.compactions"));
    set("delta.snapshot_builds", count("delta.snapshot_builds"));

    set(
        "service.http.roundtrip_ms",
        observed("service.http.roundtrip_ms"),
    );
    set(
        "service.http.handle_us",
        median_secs("service.http.handle") * 1e6,
    );
    set("service.http.requests", count("service.http.requests"));
    set("service.submit_ms", median_secs("service.submit") * 1e3);
    set(
        "service.queue_wait_ms",
        median_secs("service.queue_wait") * 1e3,
    );
    set("service.worker_job_ms", observed("service.worker_job_ms"));
    set("service.upload_ms", observed("service.upload_ms"));
    set("service.run_ms", observed("service.run_ms"));
    set("service.validate_ms", observed("service.validate_ms"));
    // What the client waited beyond the queue and the daemon's own clock.
    set("service.poll_lag_ms", median_self("service.wait") * 1e3);
    set(
        "service.result_fetch_ms",
        median_secs("service.result_fetch") * 1e3,
    );
    set("service.result_bytes", observed("service.result_bytes"));
    set(
        "service.archive_fetch_ms",
        median_secs("service.archive_fetch") * 1e3,
    );
    set("service.archive_bytes", observed("service.archive_bytes"));
    for key in ["hits", "misses", "generations", "evictions"] {
        set(
            &format!("service.store.{key}"),
            count(&format!("service.store.{key}")),
        );
    }
    set(
        "service.store.get_cold_ms",
        median_secs("service.store.get_cold") * 1e3,
    );
    set(
        "service.store.get_warm_us",
        median_secs("service.store.get_warm") * 1e6,
    );
    set("service.jobs.rejected", count("service.jobs.rejected"));
    set("service.jobs.retried", count("service.jobs.retried"));

    set(
        "json.serialize_mbps",
        per_sec(count("json.serialize.bytes"), count("json.serialize.secs")) / 1e6,
    );
    set(
        "json.parse_mbps",
        per_sec(count("json.parse.bytes"), count("json.parse.secs")) / 1e6,
    );

    set("ledger.residual_fraction", residual_fraction(spans));
    let overhead = match (makespan_geomean_ms(untraced), makespan_geomean_ms(traced)) {
        (Some(off), Some(on)) if off > 0.0 => on / off - 1.0,
        _ => 0.0,
    };
    set("trace.overhead_fraction", overhead);
    set("trace.spans", spans.len() as f64);
    set("makespan_p90_ms", makespan_p90_ms(traced));
    let slowdowns: Vec<f64> = ok_samples(traced)
        .filter_map(|s| {
            s.tproc_secs
                .filter(|t| *t > 0.0)
                .map(|t| s.makespan_secs / t)
        })
        .collect();
    set(
        "client.slowdown_p90",
        percentile(&slowdowns, 0.9).unwrap_or(0.0),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Algorithm;

    fn sample(engine: &str, algorithm: Algorithm, makespan: f64, tproc: f64) -> Sample {
        Sample {
            engine: engine.into(),
            graph: "g".into(),
            algorithm: Some(algorithm),
            makespan_secs: makespan,
            tproc_secs: Some(tproc),
            vertices_plus_edges: 1000,
            ..Sample::default()
        }
    }

    fn recorder(traced: bool) -> Recorder {
        let mut rec = Recorder::new(traced);
        rec.samples = vec![
            sample("native", Algorithm::Bfs, 0.002, 0.001),
            sample("native", Algorithm::Bfs, 0.004, 0.001),
            sample("native", Algorithm::Bfs, 0.003, 0.002),
            sample("spmv", Algorithm::PageRank, 0.030, 0.010),
            Sample {
                failure: Some("refused".into()),
                ..sample("spmv", Algorithm::PageRank, 9.0, 9.0)
            },
        ];
        rec.elapsed_secs = 2.0;
        rec.passes = 2;
        rec.pass_secs = vec![0.5, 1.5];
        rec
    }

    #[test]
    fn end_to_end_uses_cell_medians_and_skips_failed_jobs() {
        let e2e = end_to_end(&recorder(false), 1.5);
        // Cell medians 3 ms and 30 ms.
        assert!((e2e["makespan_geomean_ms"] - (3.0f64 * 30.0).sqrt()).abs() < 1e-9);
        // Four completed jobs in two passes, the median pass takes 1 s.
        assert!((e2e["jobs_per_s"] - 2.0).abs() < 1e-12);
        // 1000 / 1 ms and 1000 / 10 ms.
        assert!((e2e["evps_geomean"] - (1e6f64 * 1e5).sqrt()).abs() < 1e-3);
        assert_eq!(e2e["setup_s"], 1.5);
        let names: Vec<String> = catalog::end_to_end().into_iter().map(|d| d.name).collect();
        assert!(names.iter().all(|n| e2e.contains_key(n)) && e2e.len() == names.len());
        let scoped = workload_scoped(&recorder(false));
        let get = |name: &str| scoped.iter().find(|r| r.0 == name).map(|r| r.2);
        assert!((get("evps_bfs").unwrap() - 1e6).abs() < 1e-6);
        assert_eq!(get("failed_fraction"), Some(0.2));
        assert_eq!(get("load_eps"), None);
    }

    #[test]
    fn per_layer_reports_every_catalogued_name() {
        let mut traced = recorder(true);
        traced.tracer.scope("job", |t| {
            t.scope("io.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        traced.count("io.parse.edges", 1000.0);
        traced.count("engines.bfs.edges_scanned", 77.0);
        let metrics = per_layer(&recorder(false), &traced, 4096);
        let names: Vec<String> = catalog::per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(metrics.len(), names.len());
        assert!(names.iter().all(|n| metrics[n].is_finite()));
        assert!(metrics["io.parse_s"] >= 0.002);
        assert!(metrics["io.parse_eps"] > 0.0 && metrics["io.parse_eps"] <= 500_000.0);
        assert_eq!(metrics["engines.bfs.edges_scanned"], 77.0);
        assert!((metrics["engines.native.bfs.evps"] - 1e6).abs() < 1e-3);
        assert_eq!(
            metrics["engines.pregel.bfs.evps"], 0.0,
            "not exercised reads 0"
        );
        assert_eq!(metrics["csr.resident_bytes"], 4096.0);
        assert_eq!(metrics["trace.spans"], 2.0);
        assert!(metrics["ledger.residual_fraction"] < 0.5);
    }
}
