//! Stress test (Section 4.6, Table 10).
//!
//! BFS on every dataset, single machine; reports the *smallest* dataset
//! (by scale) each platform fails to process. Key paper findings:
//! GraphX and PGX.D fail already at G25 (class L); Giraph and GraphMat
//! handle D1000 (scale 9.0) but fail G26 of the *same scale* — graph
//! structure, not just size, drives failures; PowerGraph and OpenG last
//! until the scale-9.3 Friendster graph.

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::datasets::{all_datasets, DatasetSpec};
use graphalytics_core::Algorithm;

use crate::report::TextTable;

use super::ExperimentSuite;

/// Per-platform stress outcome.
pub struct StressOutcome {
    pub platform: String,
    /// Smallest failing dataset (by scale), if any fails.
    pub smallest_failure: Option<&'static DatasetSpec>,
}

/// Runs the stress test.
pub fn run(suite: &ExperimentSuite) -> Vec<StressOutcome> {
    let mut datasets: Vec<&'static DatasetSpec> = all_datasets();
    datasets.sort_by(|a, b| a.scale().total_cmp(&b.scale()));
    suite
        .platforms
        .iter()
        .zip(suite.platform_labels())
        .map(|(p, platform)| {
            let smallest_failure = datasets
                .iter()
                .find(|d| {
                    !suite
                        .run_analytic(
                            p.as_ref(),
                            d,
                            Algorithm::Bfs,
                            ClusterSpec::single_machine(),
                            0,
                        )
                        .status
                        .is_success()
                })
                .copied();
            StressOutcome { platform, smallest_failure }
        })
        .collect()
}

/// Table 10 rendering.
pub fn render_table10(outcomes: &[StressOutcome]) -> String {
    let mut table = TextTable::new(
        "Table 10: smallest dataset failing BFS on one machine",
        &["platform", "dataset", "scale"],
    );
    for o in outcomes {
        match o.smallest_failure {
            Some(d) => table.add_row(vec![
                o.platform.clone(),
                d.name.to_string(),
                format!("{:.1}", d.scale()),
            ]),
            None => table.add_row(vec![o.platform.clone(), "-none-".into(), "-".into()]),
        };
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_of<'a>(outcomes: &'a [StressOutcome], platform: &str) -> &'a DatasetSpec {
        outcomes
            .iter()
            .find(|o| o.platform == platform)
            .unwrap()
            .smallest_failure
            .unwrap_or_else(|| panic!("{platform} never fails"))
    }

    #[test]
    fn failure_points_match_table10() {
        let suite = ExperimentSuite::without_noise();
        let outcomes = run(&suite);
        // Table 10 exactly: Giraph G26, GraphX G25, PowerGraph R5,
        // GraphMat G26, OpenG R5, PGX.D G25.
        assert_eq!(failure_of(&outcomes, "Giraph").id, "G26");
        assert_eq!(failure_of(&outcomes, "GraphX").id, "G25");
        assert_eq!(failure_of(&outcomes, "PowerGraph").id, "R5");
        assert_eq!(failure_of(&outcomes, "GraphMat").id, "G26");
        assert_eq!(failure_of(&outcomes, "OpenG").id, "R5");
        assert_eq!(failure_of(&outcomes, "PGX.D").id, "G25");
        assert!(render_table10(&outcomes).contains("graph500-25"));
    }

    #[test]
    fn structure_sensitivity_finding() {
        // Giraph and GraphMat succeed on D1000 (scale 9.0) but fail G26
        // (also 9.0): failure depends on graph characteristics, not only
        // size — the paper's headline stress-test insight.
        let suite = ExperimentSuite::without_noise();
        for platform in ["pregel", "spmv"] {
            let p = graphalytics_engines::platform_by_name(platform).unwrap();
            let d1000 = suite.run_analytic(
                p.as_ref(),
                graphalytics_core::datasets::dataset("D1000").unwrap(),
                Algorithm::Bfs,
                ClusterSpec::single_machine(),
                0,
            );
            assert!(d1000.status.is_success(), "{platform} must survive D1000");
            let g26 = suite.run_analytic(
                p.as_ref(),
                graphalytics_core::datasets::dataset("G26").unwrap(),
                Algorithm::Bfs,
                ClusterSpec::single_machine(),
                0,
            );
            assert!(!g26.status.is_success(), "{platform} must fail G26");
        }
    }
}
