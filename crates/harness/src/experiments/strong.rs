//! Strong horizontal scalability (Section 4.4, Figure 8).
//!
//! BFS and PageRank on D1000(XL) with 1–16 machines (constant workload).
//! Paper findings reproduced here: PGX.D and GraphMat show reasonable
//! speedups; Giraph collapses when going from one machine to two, then
//! recovers; GraphX and PowerGraph scale poorly; PGX.D cannot run on a
//! single machine (memory); GraphMat's single-machine PR is a swapping
//! outlier; OpenG has no distributed mode.

use std::sync::Arc;

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::Algorithm;

use crate::driver::{JobResult, JobSpec, RunMode};
use crate::proxy;
use crate::report::{tproc_cell, TextTable};

use super::ExperimentSuite;

/// Machine counts of the sweep.
pub const MACHINES: [u32; 5] = [1, 2, 4, 8, 16];

/// Shard counts of the measured sweep.
pub const SHARDS: [u32; 3] = [1, 2, 4];

/// Results per algorithm per platform per machine count.
pub struct StrongScalability {
    pub platforms: Vec<String>,
    pub curves: Vec<(Algorithm, Vec<Vec<JobResult>>)>,
}

/// Runs the sweep.
pub fn run(suite: &ExperimentSuite) -> StrongScalability {
    let dataset = graphalytics_core::datasets::dataset("D1000").unwrap();
    let mut curves = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let mut per_platform = Vec::new();
        for p in &suite.platforms {
            let results: Vec<JobResult> = MACHINES
                .iter()
                .map(|&m| {
                    suite.run_analytic(p.as_ref(), dataset, algorithm, ClusterSpec::das5(m), 0)
                })
                .collect();
            per_platform.push(results);
        }
        curves.push((algorithm, per_platform));
    }
    StrongScalability { platforms: suite.platform_labels(), curves }
}

impl StrongScalability {
    /// Figure 8: T_proc vs machines.
    pub fn render_fig8(&self) -> String {
        let mut out = String::new();
        for (algorithm, per_platform) in &self.curves {
            let mut headers = vec!["platform".to_string()];
            headers.extend(MACHINES.iter().map(|m| format!("{m}m")));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!("Figure 8 ({algorithm}): Tproc vs machines, D1000(XL)"),
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

    /// Results for one platform/algorithm.
    pub fn curve(&self, algorithm: Algorithm, platform_label: &str) -> &Vec<JobResult> {
        let idx = self.platforms.iter().position(|p| p == platform_label).unwrap();
        &self.curves.iter().find(|(a, _)| *a == algorithm).unwrap().1[idx]
    }
}

/// *Measured* strong scaling over execution shards: the same D1000 proxy
/// at shards = 1/2/4 (constant workload), executed for real through the
/// sharded upload path. The measured companion to the cost-model curves
/// of [`StrongScalability`] — same figure, real inter-shard traffic.
pub struct MeasuredSharded {
    pub platforms: Vec<String>,
    pub curves: Vec<(Algorithm, Vec<Vec<JobResult>>)>,
}

/// Runs the measured sweep on a D1000 proxy scaled down by
/// `scale_divisor`. Platforms without a sharded run path report the
/// multi-shard rungs as unsupported — the measured analogue of the
/// paper's NA entries for missing distributed modes.
pub fn run_measured(suite: &ExperimentSuite, scale_divisor: u64) -> MeasuredSharded {
    let dataset = graphalytics_core::datasets::dataset("D1000").unwrap();
    let pool = &suite.driver.pool;
    let graph = proxy::materialize_with(dataset, scale_divisor, suite.driver.seed, pool);
    let csr = Arc::new(graph.to_csr_with(pool).expect("proxy CSR build"));
    let mut curves = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        let mut per_platform = Vec::new();
        for p in &suite.platforms {
            let results: Vec<JobResult> = SHARDS
                .iter()
                .map(|&shards| {
                    let spec = JobSpec {
                        dataset,
                        algorithm,
                        cluster: ClusterSpec::single_machine(),
                        run_index: 0,
                        repetitions: 1,
                        shards,
                        timeout_secs: None,
                    };
                    suite.driver.run(p.as_ref(), &spec, RunMode::Measured { csr: &csr })
                })
                .collect();
            per_platform.push(results);
        }
        curves.push((algorithm, per_platform));
    }
    MeasuredSharded { platforms: suite.platform_labels(), curves }
}

impl MeasuredSharded {
    /// Figure 8 (measured): T_proc and inter-shard message volume per
    /// shard count, rendered alongside the cost-model table.
    pub fn render_fig8_measured(&self) -> String {
        let mut out = String::new();
        for (algorithm, per_platform) in &self.curves {
            let mut headers = vec!["platform".to_string()];
            headers.extend(SHARDS.iter().map(|s| format!("{s}sh Tproc")));
            headers.extend(SHARDS.iter().map(|s| format!("{s}sh ism")));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(
                format!(
                    "Figure 8 ({algorithm}, measured): Tproc and inter-shard messages \
                     vs shards, D1000 proxy"
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
    use crate::driver::JobStatus;

    #[test]
    fn giraph_has_the_two_machine_cliff() {
        let suite = ExperimentSuite::without_noise();
        let s = run(&suite);
        let giraph = s.curve(Algorithm::Bfs, "Giraph");
        assert!(giraph[0].status.is_success());
        assert!(giraph[1].status.is_success());
        // 2 machines slower than 1, then recovery with more machines.
        assert!(
            giraph[1].processing_secs > giraph[0].processing_secs,
            "cliff: {} -> {}",
            giraph[0].processing_secs,
            giraph[1].processing_secs
        );
        assert!(giraph[4].processing_secs < giraph[1].processing_secs);
    }

    #[test]
    fn pgxd_fails_on_one_machine_but_scales() {
        let suite = ExperimentSuite::without_noise();
        let s = run(&suite);
        let pgxd = s.curve(Algorithm::Bfs, "PGX.D");
        assert_eq!(pgxd[0].status, JobStatus::OutOfMemory, "D1000 exceeds one machine");
        assert!(pgxd[1].status.is_success());
        // Sub-second processing from 4 machines (paper's observation).
        assert!(pgxd[2].processing_secs < 1.5, "got {}", pgxd[2].processing_secs);
    }

    #[test]
    fn graphmat_single_machine_pr_is_swap_outlier() {
        let suite = ExperimentSuite::without_noise();
        let s = run(&suite);
        let gm = s.curve(Algorithm::PageRank, "GraphMat");
        assert!(gm[0].status.is_success(), "swapping completes, slowly");
        assert!(
            gm[0].processing_secs > 10.0 * gm[1].processing_secs,
            "swap outlier: 1m {} vs 2m {}",
            gm[0].processing_secs,
            gm[1].processing_secs
        );
    }

    #[test]
    fn openg_has_no_distributed_results() {
        let suite = ExperimentSuite::without_noise();
        let s = run(&suite);
        let openg = s.curve(Algorithm::Bfs, "OpenG");
        assert!(openg[0].status.is_success());
        for r in &openg[1..] {
            assert_eq!(r.status, JobStatus::Unsupported);
        }
        assert!(s.render_fig8().contains("Figure 8"));
    }

    #[test]
    fn measured_sharded_curves_report_traffic() {
        let suite = ExperimentSuite::without_noise();
        let m = run_measured(&suite, 1 << 14);
        // Giraph (pregel) has a sharded run path: every rung succeeds,
        // the logical message count is shard-invariant (bit-identical
        // execution), and multi-shard rungs carry real cut traffic.
        let giraph = m.curve(Algorithm::Bfs, "Giraph");
        for (r, &s) in giraph.iter().zip(SHARDS.iter()) {
            assert!(r.status.is_success(), "{s} shards: {:?}", r.status);
            assert_eq!(r.shards, s);
        }
        assert_eq!(giraph[0].counters.messages, giraph[1].counters.messages);
        assert_eq!(giraph[0].counters.messages, giraph[2].counters.messages);
        assert!(giraph[1].counters.inter_shard_messages > 0);
        assert!(giraph[2].counters.inter_shard_messages > 0);
        // GraphMat (spmv) has none: multi-shard rungs are NA.
        let gm = m.curve(Algorithm::PageRank, "GraphMat");
        assert!(gm[0].status.is_success());
        assert_eq!(gm[1].status, JobStatus::Unsupported);
        assert_eq!(gm[2].status, JobStatus::Unsupported);
        let text = m.render_fig8_measured();
        assert!(text.contains("measured"), "{text}");
        assert!(text.contains("4sh ism"), "{text}");
    }

    #[test]
    fn graphx_scales_worse_than_graphmat() {
        let suite = ExperimentSuite::without_noise();
        let s = run(&suite);
        let gx = s.curve(Algorithm::Bfs, "GraphX");
        let gm = s.curve(Algorithm::Bfs, "GraphMat");
        // At 16 machines GraphMat remains far faster.
        assert!(gx[4].processing_secs > 10.0 * gm[4].processing_secs);
    }
}
