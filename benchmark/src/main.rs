//! The request's-eye benchmark of the Graphalytics reproduction.
//!
//! ```text
//! graphalytics-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>]
//!                        [--trace <0|1>] [--smoke]
//! graphalytics-benchmark aa [--sets <n>] [--seed <u64>] [--seconds <n>] [--smoke]
//! ```
//!
//! Without `--workload` it runs all five. The last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `benchmark/README.md`.

mod aa;
mod catalog;
mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use layers::Json;
use report::Metrics;
use workloads::{Sizes, Workload};

/// Where the benchmark writes: graph files while it runs, traces when it
/// ends. Relative to the checkout root it is run from.
const OUT_DIR: &str = "benchmark/out";
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPETITIONS: usize = 3;

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
}

fn parse_args(args: &[String]) -> Result<(bool, Options), String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 5,
    };
    let aa = args.first().is_some_and(|a| a == "aa");
    let mut rest = args[usize::from(aa)..].iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if catalog::WORKLOADS.contains(&value.as_str()) => {
                options.workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => options.seed = value.parse().ok().ok_or_else(bad)?,
            "--seconds" => options.seconds = Some(value.parse().ok().ok_or_else(bad)?),
            "--sets" => options.sets = value.parse().ok().ok_or_else(bad)?,
            "--trace" => options.trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((aa, options))
}

/// One workload's run: what the last line reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    units: Vec<catalog::MetricDef>,
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .units
            .iter()
            .map(|def| {
                let value = outcome.metrics.get(&def.name).copied().unwrap_or(0.0);
                (
                    def.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_rows<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) {
    for (name, unit, value) in rows {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
}

fn run_workload(name: &str, options: &Options) -> Result<Outcome, String> {
    let sizes = if options.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let seconds = options
        .seconds
        .unwrap_or(if options.smoke { 1.0 } else { DEFAULT_SECONDS });
    let out_dir = Path::new(OUT_DIR);

    // Set-up, repeated: its median is `setup_s`. A traced invocation
    // reports no end-to-end metric and sets up once.
    let repetitions = if options.trace || options.smoke {
        1
    } else {
        SETUP_REPETITIONS
    };
    let mut setup_secs = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..repetitions {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workloads::set_up(
            name,
            &sizes,
            options.seed,
            out_dir,
            options.trace,
        )?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let setup_secs = stats::median(&setup_secs).expect("at least one set-up");

    // End-to-end metrics always come from the untraced run. A traced
    // invocation splits its time between an untraced and a traced run;
    // the difference between the two is the tracing overhead.
    let share = if options.trace {
        seconds / 2.0
    } else {
        seconds
    };
    let untraced = workloads::timed_run(workload.as_mut(), share, options.seed, false);
    let traced = options
        .trace
        .then(|| workloads::timed_run(workload.as_mut(), share, options.seed ^ 0x7ACE, true));
    let working_set = workload.working_set();
    drop(workload);

    let e2e = report::end_to_end(&untraced, setup_secs);
    let scoped = report::workload_scoped(&untraced);
    let host = host::facts(&working_set);
    println!(
        "{name}: seed {} · {} jobs in {:.2} s ({} passes) · 1 closed-loop client",
        options.seed,
        untraced.samples.len(),
        untraced.elapsed_secs,
        untraced.passes
    );
    println!("  host {}", host.to_string_compact());
    let e2e_defs = catalog::end_to_end();
    print_rows(
        e2e_defs
            .iter()
            .map(|d| (d.name.as_str(), d.unit, e2e[&d.name])),
    );
    print_rows(scoped.iter().map(|(n, u, v)| (n.as_str(), *u, *v)));
    for failure in untraced
        .samples
        .iter()
        .filter_map(|s| s.failure.as_ref())
        .take(5)
    {
        println!("  FAILED: {failure}");
    }

    let mut outcome = Outcome {
        correct: untraced.failed() == 0,
        attempted: untraced.samples.len(),
        failed: untraced.failed(),
        metrics: e2e,
        units: e2e_defs,
    };
    if let Some(traced) = traced {
        let bytes = working_set.iter().map(|(_, b)| b).sum();
        let layers = report::per_layer(&untraced, &traced, bytes);
        let defs = catalog::per_layer();
        println!(
            "  traced: {} jobs, {} spans",
            traced.samples.len(),
            traced.tracer.spans().len()
        );
        let verdict = host::parallel_verdict();
        for def in &defs {
            let pair = matches!(
                def.name.as_str(),
                "io.parse_eps" | "io.parse_seq_eps" | "csr.build_eps" | "csr.build_seq_eps"
            );
            let note = if pair && verdict == "inconclusive" {
                "  (pool vs sequential: inconclusive, nproc < 4)"
            } else {
                ""
            };
            println!(
                "  {:<34} {:>18.6} {}{note}",
                def.name, layers[&def.name], def.unit
            );
        }
        for failure in traced
            .samples
            .iter()
            .filter_map(|s| s.failure.as_ref())
            .take(5)
        {
            println!("  FAILED (traced): {failure}");
        }
        let path =
            trace::write(out_dir, name, &host, traced.tracer.spans()).map_err(|e| e.to_string())?;
        println!("  spans written to {}", path.display());
        outcome.correct &= traced.failed() == 0;
        outcome.attempted += traced.samples.len();
        outcome.failed += traced.failed();
        outcome.metrics = layers;
        outcome.units = defs;
    }
    Ok(outcome)
}

/// glibc gives threads their own malloc arenas, up to 8 × cores of them,
/// and the daemon spawns a thread per connection: which arena a job's
/// allocations land in decides how much memory stays resident. With the
/// default, `peak_rss_mb` of `service_mutate` read 311–400 MB across seeds;
/// with one arena 165–171 MB. The benchmark therefore replaces itself with
/// a copy that has `MALLOC_ARENA_MAX=1` set, unless the caller set it.
fn pin_malloc_arenas() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        let error = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", "1")
            .exec();
        eprintln!("graphalytics-benchmark: keeping the default malloc arenas: {error}");
    }
}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (aa, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("graphalytics-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if aa {
        return aa::run(&options);
    }
    let names: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => catalog::WORKLOADS.to_vec(),
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        match run_workload(name, &options) {
            Ok(outcome) => {
                correct &= outcome.correct;
                attempted += outcome.attempted;
                failed += outcome.failed;
                match metrics_json(&outcome) {
                    // One workload: the metrics by their own names. All
                    // five: prefixed with the workload.
                    Json::Obj(rows) if names.len() > 1 => {
                        metrics.extend(rows.into_iter().map(|(k, v)| (format!("{name}.{k}"), v)))
                    }
                    Json::Obj(rows) => metrics.extend(rows),
                    _ => unreachable!("metrics_json builds an object"),
                }
            }
            Err(e) => {
                eprintln!("graphalytics-benchmark: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
