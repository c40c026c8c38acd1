//! `aa`: N sets of the same build against itself.
//!
//! Each run is a child process (peak memory is per process), each set uses
//! another seed. For every (workload, end-to-end metric) it prints the
//! median, the quartiles and the inter-quartile spread as a share of the
//! median next to the bound `BENCHMARK.json` fixes, the drift between the
//! first and the second half of the sets, and the bound the rule gives:
//! max(5 %, 3 × spread). A metric that cannot hold 10 % belongs with the
//! per-layer metrics, not behind a regression gate.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::catalog;
use crate::host;
use crate::layers::Json;
use crate::stats::{iqr_spread, median, quartiles};
use crate::Options;

/// `name → (bound, better)` of the manifest's end-to-end metrics.
fn bounds() -> Result<BTreeMap<String, (f64, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| e.to_string())?;
    let rows = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let text = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
            match (
                text("name"),
                row.get("bound").and_then(Json::as_f64),
                text("better"),
            ) {
                (Some(name), Some(bound), Some(better)) => Ok((name, (bound, better))),
                _ => Err("malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// Runs one workload in a child process and returns its metric values.
fn child_run(
    workload: &str,
    seed: u64,
    options: &Options,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    if let Some(seconds) = options.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(line).map_err(|e| e.to_string())?;
    let Some(Json::Obj(rows)) = result.get("metrics") else {
        return Err("child result carries no metrics".into());
    };
    Ok(rows
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

pub fn run(options: &Options) -> ExitCode {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("graphalytics-benchmark aa: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => catalog::WORKLOADS.to_vec(),
    };
    println!(
        "A/A: {} sets · host {}",
        options.sets,
        host::facts(&[]).to_string_compact()
    );
    // (workload, metric) → one value per set, in set order.
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..options.sets {
        for workload in &workloads {
            match child_run(workload, options.seed + set as u64, options) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        values
                            .entry((workload.to_string(), name))
                            .or_default()
                            .push(value);
                    }
                }
                Err(e) => {
                    eprintln!("graphalytics-benchmark aa: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!("set {} of {} done", set + 1, options.sets);
    }
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "drift", "bound", "rule"
    );
    let mut all_within = true;
    for ((workload, metric), v) in &values {
        let (bound, better) = bounds.get(metric).cloned().unwrap_or((0.0, "lower".into()));
        let (Some([q1, q2, q3]), Some(spread)) = (quartiles(v), iqr_spread(v)) else {
            println!("{workload:<15} {metric:<20} needs at least two sets");
            continue;
        };
        // How much worse the second half's median reads than the first's.
        let (first, second) = v.split_at(v.len() / 2);
        let drift = match (median(first), median(second)) {
            (Some(a), Some(b)) if a != 0.0 => {
                let change = (b - a) / a;
                if better == "higher" {
                    -change
                } else {
                    change
                }
            }
            _ => 0.0,
        };
        let rule = (3.0 * spread).max(0.05);
        // The set-up time's spread is not gated, its drift is.
        let gated_spread = if metric == "setup_s" { 0.0 } else { spread };
        let verdict = if gated_spread > bound || drift > bound {
            all_within = false;
            "OUTSIDE BOUND"
        } else if rule > 0.10 && metric != "setup_s" {
            "within bound; rule says demote (cannot hold 10 %)"
        } else if gated_spread * 3.0 > bound {
            "within bound, not yet steady (spread > bound/3)"
        } else {
            "steady"
        };
        println!(
            "{workload:<15} {metric:<20} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>7.2}% {:>6.1}% {:>7.1}%  {verdict}",
            spread * 100.0,
            drift * 100.0,
            bound * 100.0,
            rule * 100.0
        );
        // Every run made, in set order.
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("{:<15} {:<20} runs: {}", "", "", runs.join(" "));
    }
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
