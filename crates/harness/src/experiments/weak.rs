//! Weak horizontal scalability (Section 4.5, Figure 9).
//!
//! BFS and PageRank on the Graph500 series G22(S)–G26(XL) with 1–16
//! machines: each doubling of machines doubles the graph, so per-machine
//! work is constant and ideal T_proc is flat. Paper findings: nobody is
//! ideal; Giraph dips at 2 machines then scales well; GraphMat and
//! PowerGraph scale reasonably; GraphX poorly; PGX.D hits memory limits.

use std::sync::Arc;

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::Algorithm;

use crate::driver::{JobResult, JobSpec, RunMode};
use crate::proxy;
use crate::report::{tproc_cell, TextTable};

use super::ExperimentSuite;

/// The (machines, dataset) ladder: G22 on 1 machine up to G26 on 16.
pub const LADDER: [(u32, &str); 5] = [(1, "G22"), (2, "G23"), (4, "G24"), (8, "G25"), (16, "G26")];

/// Shard counts of the measured ladder.
pub const SHARD_LADDER: [u32; 3] = [1, 2, 4];

/// Results per algorithm per platform along the ladder.
pub struct WeakScalability {
    pub platforms: Vec<String>,
    pub curves: Vec<(Algorithm, Vec<Vec<JobResult>>)>,
}

/// Runs the ladder.
pub fn run(suite: &ExperimentSuite) -> WeakScalability {
    let mut curves = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let mut per_platform = Vec::new();
        for p in &suite.platforms {
            let results: Vec<JobResult> = LADDER
                .iter()
                .map(|&(m, ds)| {
                    let dataset = graphalytics_core::datasets::dataset(ds).unwrap();
                    suite.run_analytic(p.as_ref(), dataset, algorithm, ClusterSpec::das5(m), 0)
                })
                .collect();
            per_platform.push(results);
        }
        curves.push((algorithm, per_platform));
    }
    WeakScalability { platforms: suite.platform_labels(), curves }
}

impl WeakScalability {
    /// Figure 9: T_proc along the weak-scaling ladder.
    pub fn render_fig9(&self) -> String {
        let mut out = String::new();
        for (algorithm, per_platform) in &self.curves {
            let mut headers = vec!["platform".to_string()];
            headers.extend(LADDER.iter().map(|(m, ds)| format!("{ds}@{m}m")));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!("Figure 9 ({algorithm}): Tproc, weak scaling G22-G26"),
                &headers_ref,
            );
            for (label, results) in self.platforms.iter().zip(per_platform) {
                let mut cells = vec![label.clone()];
                cells.extend(results.iter().map(tproc_cell));
                table.add_row(cells);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Maximum slowdown relative to the single-machine start of the
    /// ladder (the paper's metric).
    pub fn max_slowdown(&self, algorithm: Algorithm, platform_label: &str) -> Option<f64> {
        let idx = self.platforms.iter().position(|p| p == platform_label)?;
        let results = &self.curves.iter().find(|(a, _)| *a == algorithm)?.1[idx];
        if !results[0].status.is_success() {
            return None;
        }
        let base = results[0].processing_secs;
        results
            .iter()
            .filter(|r| r.status.is_success())
            .map(|r| crate::metrics::slowdown(base, r.processing_secs))
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }
}

/// *Measured* weak scaling over execution shards: each doubling of the
/// shard count doubles the G22 proxy (the scale divisor halves), so
/// per-shard work stays constant — the measured analogue of the G22–G26
/// machine ladder, executed for real through the sharded upload path.
pub struct MeasuredWeak {
    pub platforms: Vec<String>,
    pub curves: Vec<(Algorithm, Vec<Vec<JobResult>>)>,
}

/// Runs the measured ladder. The rung at `shards = s` uses a G22 proxy
/// scaled down by `base_divisor / s`. Platforms without a sharded run
/// path report the multi-shard rungs as unsupported.
pub fn run_measured(suite: &ExperimentSuite, base_divisor: u64) -> MeasuredWeak {
    let dataset = graphalytics_core::datasets::dataset("G22").unwrap();
    let pool = &suite.driver.pool;
    let rungs: Vec<(u32, Arc<graphalytics_core::Csr>)> = SHARD_LADDER
        .iter()
        .map(|&shards| {
            let divisor = (base_divisor / shards as u64).max(1);
            let graph = proxy::materialize_with(dataset, divisor, suite.driver.seed, pool);
            (shards, Arc::new(graph.to_csr_with(pool).expect("proxy CSR build")))
        })
        .collect();
    let mut curves = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let mut per_platform = Vec::new();
        for p in &suite.platforms {
            let results: Vec<JobResult> = rungs
                .iter()
                .map(|(shards, csr)| {
                    let spec = JobSpec {
                        dataset,
                        algorithm,
                        cluster: ClusterSpec::single_machine(),
                        run_index: 0,
                        repetitions: 1,
                        shards: *shards,
                        timeout_secs: None,
                    };
                    suite.driver.run(p.as_ref(), &spec, RunMode::Measured { csr })
                })
                .collect();
            per_platform.push(results);
        }
        curves.push((algorithm, per_platform));
    }
    MeasuredWeak { platforms: suite.platform_labels(), curves }
}

impl MeasuredWeak {
    /// Figure 9 (measured): T_proc and inter-shard message volume along
    /// the shard ladder, rendered alongside the cost-model table.
    pub fn render_fig9_measured(&self) -> String {
        let mut out = String::new();
        for (algorithm, per_platform) in &self.curves {
            let mut headers = vec!["platform".to_string()];
            headers.extend(SHARD_LADDER.iter().map(|s| format!("{s}sh Tproc")));
            headers.extend(SHARD_LADDER.iter().map(|s| format!("{s}sh ism")));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "Figure 9 ({algorithm}, measured): Tproc and inter-shard messages, \
                     weak scaling over shards, G22 proxy series"
                ),
                &headers_ref,
            );
            for (label, results) in self.platforms.iter().zip(per_platform) {
                let mut cells = vec![label.clone()];
                cells.extend(results.iter().map(tproc_cell));
                cells.extend(results.iter().map(|r| {
                    if r.status.is_success() {
                        r.counters.inter_shard_messages.to_string()
                    } else {
                        r.status.figure_mark().to_string()
                    }
                }));
                table.add_row(cells);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Results for one platform/algorithm.
    pub fn curve(&self, algorithm: Algorithm, platform_label: &str) -> &Vec<JobResult> {
        let idx = self.platforms.iter().position(|p| p == platform_label).unwrap();
        &self.curves.iter().find(|(a, _)| *a == algorithm).unwrap().1[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nobody_achieves_ideal_weak_scaling() {
        let suite = ExperimentSuite::without_noise();
        let w = run(&suite);
        for label in ["Giraph", "GraphX", "PowerGraph", "GraphMat"] {
            let slow = w.max_slowdown(Algorithm::PageRank, label).unwrap();
            assert!(slow > 1.05, "{label}: slowdown {slow:.2} suspiciously ideal");
        }
    }

    #[test]
    fn graphx_scales_worst_of_the_edge_cut_engines() {
        let suite = ExperimentSuite::without_noise();
        let w = run(&suite);
        let gx = w.max_slowdown(Algorithm::PageRank, "GraphX").unwrap();
        let gm = w.max_slowdown(Algorithm::PageRank, "GraphMat").unwrap();
        assert!(gx > gm, "GraphX {gx:.1} should exceed GraphMat {gm:.1}");
    }

    #[test]
    fn measured_weak_ladder_grows_graph_with_shards() {
        let suite = ExperimentSuite::without_noise();
        let m = run_measured(&suite, 1 << 16);
        let giraph = m.curve(Algorithm::Bfs, "Giraph");
        for (r, &s) in giraph.iter().zip(SHARD_LADDER.iter()) {
            assert!(r.status.is_success(), "{s} shards: {:?}", r.status);
            assert_eq!(r.shards, s);
        }
        // Each rung doubles the proxy: per-shard work stays constant.
        assert!(giraph[1].vertices > giraph[0].vertices);
        assert!(giraph[2].vertices > giraph[1].vertices);
        assert!(giraph[1].counters.inter_shard_messages > 0);
        assert!(giraph[2].counters.inter_shard_messages > 0);
        let text = m.render_fig9_measured();
        assert!(text.contains("weak scaling over shards"), "{text}");
        assert!(text.contains("4sh ism"), "{text}");
    }

    #[test]
    fn renders_with_failures_annotated() {
        let suite = ExperimentSuite::without_noise();
        let w = run(&suite);
        let text = w.render_fig9();
        assert!(text.contains("G26@16m"));
        // OpenG is single-node: distributed rungs are NA.
        assert!(text.contains("NA"));
    }
}
