//! # graphalytics-bench
//!
//! Reproduction targets for every table and figure in the paper's
//! evaluation.
//!
//! One binary, `repro`, takes the artefact's name (`cargo run --release
//! -p graphalytics-bench --bin repro -- <name>`):
//!
//! | name | reproduces |
//! |---|---|
//! | `table1`  | Table 1 — algorithm-class surveys + 2-stage selection |
//! | `table2`  | Tables 2–4 — scale classes and the dataset registry |
//! | `fig2`    | Figure 2 — Datagen clustering-coefficient tuning (runs real generation + Louvain) |
//! | `fig4`    | Figure 4 — dataset variety, T_proc |
//! | `fig5`    | Figure 5 — EPS / EVPS |
//! | `table8`  | Table 8 — makespan vs T_proc breakdown |
//! | `fig6`    | Figure 6 — algorithm variety |
//! | `fig7`    | Figure 7 — vertical scalability |
//! | `table9`  | Table 9 — vertical speedups |
//! | `fig8`    | Figure 8 — strong horizontal scalability |
//! | `fig9`    | Figure 9 — weak horizontal scalability |
//! | `table10` | Table 10 — stress-test failure points |
//! | `table11` | Table 11 — variability (mean, CV) |
//! | `fig10`   | Figure 10 — Datagen flows and cluster scaling |
//! | `all`     | the Section 4 evaluation: `fig4` … `fig10` above, in order |
//!
//! Two more binaries ride along: `graphctl`, the command-line client of
//! the service daemon, and `overhead_gate`, the CI gate asserting that
//! per-superstep tracing and the armed-but-idle fault plane each cost
//! under 3% EVPS with bit-identical outputs. This repository's own
//! performance is measured by the standalone `benchmark/` package (see
//! `benchmark/README.md`), not from this crate.

use graphalytics_harness::experiments::ExperimentSuite;

/// The suite used by all reproductions: deterministic noise on
/// (variability needs it; other figures tolerate the ±CV jitter exactly
/// like the paper's measurements do).
pub fn suite() -> ExperimentSuite {
    ExperimentSuite::new()
}

/// Noise-free suite for speedup tables (pure model output).
pub fn quiet_suite() -> ExperimentSuite {
    ExperimentSuite::without_noise()
}

/// Prints a standard header for one reproduced artefact.
pub fn banner(what: &str, source: &str) {
    println!("================================================================");
    println!("Reproducing {what}");
    println!("Paper reference: {source}");
    println!("Mode: analytic (published dataset sizes, simulated DAS-5)");
    println!("================================================================\n");
}
