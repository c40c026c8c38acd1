//! Performance variability (Section 4.7, Table 11).
//!
//! BFS repeated 10 times: on D300(L) with one machine for all platforms,
//! and on D1000(XL) with 16 machines for the distributed platforms.
//! Reports mean T_proc and the coefficient of variation. Paper findings:
//! every platform stays within CV ≤ 10%; GraphMat and PGX.D have the
//! highest relative variability but tiny absolute deviations.

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::Algorithm;

use crate::metrics::{coefficient_of_variation, mean};
use crate::report::{fmt_secs, TextTable};

use super::ExperimentSuite;

/// Repetitions (n = 10 in the paper).
pub const REPETITIONS: u64 = 10;

/// Mean/CV per platform for one configuration.
pub struct VariabilityRow {
    pub platform: String,
    pub mean_secs: Option<f64>,
    pub cv: Option<f64>,
}

/// Results for the single-machine (S) and distributed (D) configurations.
pub struct Variability {
    pub single: Vec<VariabilityRow>,
    pub distributed: Vec<VariabilityRow>,
}

/// Runs the experiment (noise must be enabled on the suite's driver —
/// variability is exactly what is being measured).
pub fn run(suite: &ExperimentSuite) -> Variability {
    let measure = |dataset_id: &str, cluster: ClusterSpec| -> Vec<VariabilityRow> {
        let dataset = graphalytics_core::datasets::dataset(dataset_id).unwrap();
        suite
            .platforms
            .iter()
            .zip(suite.platform_labels())
            .map(|(p, platform)| {
                let samples: Vec<f64> = (0..REPETITIONS)
                    .map(|i| suite.run_analytic(p.as_ref(), dataset, Algorithm::Bfs, cluster, i))
                    .filter(|r| r.status.is_success())
                    .map(|r| r.processing_secs)
                    .collect();
                if samples.len() == REPETITIONS as usize {
                    VariabilityRow {
                        platform,
                        mean_secs: Some(mean(&samples)),
                        cv: Some(coefficient_of_variation(&samples)),
                    }
                } else {
                    VariabilityRow { platform, mean_secs: None, cv: None }
                }
            })
            .collect()
    };
    Variability {
        single: measure("D300", ClusterSpec::single_machine()),
        distributed: measure("D1000", ClusterSpec::das5(16)),
    }
}

/// Table 11 rendering.
pub fn render_table11(v: &Variability) -> String {
    let mut table = TextTable::new(
        "Table 11: Tproc mean and CV, BFS, n = 10 (S: D300 on 1 node; D: D1000 on 16 nodes)",
        &["config", "metric", "Giraph", "GraphX", "P'graph", "GraphMat", "OpenG", "PGX.D"],
    );
    for (config, rows) in [("S", &v.single), ("D", &v.distributed)] {
        let mut means = vec![config.to_string(), "Mean".to_string()];
        let mut cvs = vec![config.to_string(), "CV".to_string()];
        for row in rows.iter() {
            means.push(row.mean_secs.map(fmt_secs).unwrap_or_else(|| "-".into()));
            cvs.push(row.cv.map(|c| format!("{:.1}%", 100.0 * c)).unwrap_or_else(|| "-".into()));
        }
        table.add_row(means);
        table.add_row(cvs);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cvs_within_ten_percent() {
        let suite = ExperimentSuite::new(); // noise on
        let v = run(&suite);
        for row in v.single.iter().chain(&v.distributed) {
            if let Some(cv) = row.cv {
                assert!(cv <= 0.14, "{}: CV {:.3} too high", row.platform, cv);
            }
        }
    }

    #[test]
    fn graphmat_most_variable_single_machine() {
        // Paper Table 11: GraphMat 9.7% and PGX.D 8.2% lead the S column.
        let suite = ExperimentSuite::new();
        let v = run(&suite);
        let cv_of = |platform: &str| {
            v.single.iter().find(|r| r.platform == platform).unwrap().cv.unwrap()
        };
        assert!(cv_of("GraphMat") > cv_of("PowerGraph"));
        assert!(cv_of("PGX.D") > cv_of("GraphX"));
    }

    #[test]
    fn openg_has_no_distributed_column() {
        let suite = ExperimentSuite::new();
        let v = run(&suite);
        let openg = v.distributed.iter().find(|r| r.platform == "OpenG").unwrap();
        assert!(openg.cv.is_none());
        assert!(render_table11(&v).contains('-'));
    }

    #[test]
    fn absolute_deviation_small_for_fast_engines() {
        // "due to their much smaller mean, the absolute variability is
        // small": GraphMat's σ in seconds stays below Giraph's.
        let suite = ExperimentSuite::new();
        let v = run(&suite);
        let sigma = |platform: &str| {
            let r = v.single.iter().find(|r| r.platform == platform).unwrap();
            r.mean_secs.unwrap() * r.cv.unwrap()
        };
        assert!(sigma("GraphMat") < sigma("Giraph"));
    }
}
