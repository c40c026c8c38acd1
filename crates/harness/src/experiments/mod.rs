//! The experiment suite of Table 6.
//!
//! Four categories: **baseline** (dataset variety §4.1 + algorithm
//! variety §4.2), **scalability** (vertical §4.3, strong §4.4, weak
//! §4.5), **robustness** (stress test §4.6, variability §4.7), and the
//! **self-test** (data generation §4.8). Each module reproduces one
//! experiment and renders the corresponding paper table/figure.
//!
//! Experiments run in *analytic* mode by default: the engines' counter
//! estimators at the paper-published dataset sizes, costed through the
//! per-engine profiles on the simulated DAS-5 cluster. Measured-mode
//! variants (real execution on scaled-down proxies) are exercised by the
//! integration tests and examples.

pub mod algorithm_variety;
pub mod baseline;
pub mod datagen_selftest;
pub mod stress;
pub mod strong;
pub mod variability;
pub mod vertical;
pub mod weak;

use graphalytics_cluster::{ClusterSpec, PerfProfile};
use graphalytics_core::datasets::DatasetSpec;
use graphalytics_core::Algorithm;
use graphalytics_engines::{all_platforms, Platform};

use crate::driver::{Driver, JobResult, JobSpec, RunMode};

/// Shared context: the platforms under test and the driver.
pub struct ExperimentSuite {
    pub platforms: Vec<Box<dyn Platform>>,
    pub driver: Driver,
}

impl Default for ExperimentSuite {
    fn default() -> Self {
        ExperimentSuite { platforms: all_platforms(), driver: Driver::default() }
    }
}

impl ExperimentSuite {
    /// A suite over all six platforms with deterministic noise.
    pub fn new() -> Self {
        Self::default()
    }

    /// A suite without simulated noise (used where exact reproducibility
    /// of derived numbers matters more than realism).
    pub fn without_noise() -> Self {
        ExperimentSuite {
            platforms: all_platforms(),
            driver: Driver { noise: false, ..Driver::default() },
        }
    }

    /// Runs one analytic job.
    pub fn run_analytic(
        &self,
        platform: &dyn Platform,
        dataset: &'static DatasetSpec,
        algorithm: Algorithm,
        cluster: ClusterSpec,
        run_index: u64,
    ) -> JobResult {
        let spec = JobSpec {
            dataset,
            algorithm,
            cluster,
            run_index,
            repetitions: 1,
            shards: 1,
            timeout_secs: None,
        };
        self.driver.run(platform, &spec, RunMode::Analytic)
    }

    /// Paper-facing platform labels, in Table 5 order.
    pub fn platform_labels(&self) -> Vec<String> {
        // Empty for a platform the model has no profile for.
        let label = |p: &dyn Platform| PerfProfile::of(p.name()).map_or("", |p| p.paper_analog);
        self.platforms.iter().map(|p| label(p.as_ref()).to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::datasets::dataset;

    #[test]
    fn suite_runs_an_analytic_job_per_platform() {
        let suite = ExperimentSuite::without_noise();
        for p in &suite.platforms {
            let r = suite.run_analytic(
                p.as_ref(),
                dataset("G22").unwrap(),
                Algorithm::Bfs,
                ClusterSpec::single_machine(),
                0,
            );
            assert!(r.status.is_success(), "{} failed: {:?}", p.name(), r.status);
        }
    }

    #[test]
    fn labels_in_table5_order() {
        let suite = ExperimentSuite::new();
        assert_eq!(
            suite.platform_labels(),
            vec!["Giraph", "GraphX", "PowerGraph", "GraphMat", "OpenG", "PGX.D"]
        );
    }
}
