//! The benchmark runner: configuration-driven orchestration.
//!
//! This is the harness's outermost loop (Figure 1, components 2→5→9):
//! take a [`BenchmarkConfig`], resolve the platform and workload
//! selections, run every job through the [`Driver`], and collect a
//! [`ResultsDatabase`] plus per-job Granula archives. Measured mode
//! follows the benchmark lifecycle: each dataset's proxy is materialized
//! once (on the run's pool), each platform *uploads* it exactly once —
//! the measured upload time is shared by every job on that (platform,
//! dataset) pair — and every algorithm then executes
//! `benchmark.repetitions` times on the uploaded representation before
//! the engine deletes it.

use std::sync::Arc;

use graphalytics_cluster::ClusterSpec;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Csr, Error, Result};
use graphalytics_engines::{all_platforms, platform_by_name, Platform};

use crate::config::BenchmarkConfig;
use crate::description::{BenchmarkDescription, JobDescription};
use crate::driver::{Driver, JobSpec, RunMode};
use crate::proxy;
use crate::results::ResultsDatabase;

/// How the runner obtains counters for each job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerMode {
    /// Materialize scaled-down proxies and execute for real (validated).
    Measured,
    /// Analytic estimation at published dataset sizes.
    Analytic,
}

/// Orchestrates a full benchmark run.
pub struct Runner {
    pub config: BenchmarkConfig,
    pub mode: RunnerMode,
    pub cluster: ClusterSpec,
}

impl Runner {
    /// A runner for `config` in the given mode on a single machine.
    pub fn new(config: BenchmarkConfig, mode: RunnerMode) -> Self {
        Runner { config, mode, cluster: ClusterSpec::single_machine() }
    }

    /// Resolves the platform selection (empty = all six). Unknown names
    /// are rejected with [`Error::UnknownPlatform`].
    pub fn platforms(&self) -> Result<Vec<Box<dyn Platform>>> {
        if self.config.platforms.is_empty() {
            return Ok(all_platforms());
        }
        self.config
            .platforms
            .iter()
            .map(|name| {
                platform_by_name(name).ok_or_else(|| Error::UnknownPlatform(name.clone()))
            })
            .collect()
    }

    /// Resolves the workload selection (empty datasets/algorithms = the
    /// full benchmark description).
    pub fn description(&self) -> Result<BenchmarkDescription> {
        match (self.config.datasets.is_empty(), self.config.algorithms.is_empty()) {
            (true, true) => Ok(BenchmarkDescription::full()),
            _ => {
                let ids: Vec<&str> = if self.config.datasets.is_empty() {
                    graphalytics_core::datasets::all_datasets().iter().map(|d| d.id).collect()
                } else {
                    self.config.datasets.iter().map(String::as_str).collect()
                };
                let algorithms = if self.config.algorithms.is_empty() {
                    graphalytics_core::Algorithm::ALL.to_vec()
                } else {
                    self.config.algorithms.clone()
                };
                BenchmarkDescription::selection(&ids, &algorithms)
            }
        }
    }

    /// Runs every job and returns the populated results database. Fails
    /// up front (before any job runs) on unknown platforms or datasets.
    ///
    /// One [`WorkerPool`] is created per run — width from
    /// `benchmark.threads` — and shared by proxy generation, every CSR
    /// build, every engine upload and every measured execution; no job
    /// spawns threads of its own. Measured mode uploads once per
    /// (platform, dataset) and executes `benchmark.repetitions` times
    /// per job. Every job validates through the run's one driver, whose
    /// reference cache computes each (dataset, algorithm) reference once
    /// for all platforms.
    pub fn run(&self) -> Result<ResultsDatabase> {
        let pool = Arc::new(WorkerPool::new(self.config.pool_threads()));
        let driver = Driver { seed: self.config.seed, pool: pool.clone(), ..Driver::default() };
        let platforms = self.platforms()?;
        let description = self.description()?;
        let db = ResultsDatabase::new();
        let repetitions = self.config.repetitions.max(1);

        // Process dataset-by-dataset so the expensive artifacts — the
        // materialized proxy and each platform's uploaded representation
        // — are built once and dropped before the next dataset.
        for group in group_by_dataset(&description) {
            let dataset = group[0].dataset;
            let csr: Option<Arc<Csr>> = if self.mode == RunnerMode::Measured {
                let graph = proxy::materialize_with(
                    dataset,
                    self.config.scale_divisor,
                    self.config.seed,
                    &pool,
                );
                Some(Arc::new(graph.to_csr_with(&pool)?))
            } else {
                None
            };
            for platform in &platforms {
                let spec = |job: &JobDescription| JobSpec {
                    dataset: job.dataset,
                    algorithm: job.algorithm,
                    cluster: self.cluster,
                    run_index: 0,
                    repetitions,
                    shards: self.config.shards,
                    mutations: None,
                    timeout_secs: None,
                };
                match &csr {
                    Some(csr) => {
                        // Admission first: jobs the platform rejects
                        // (unsupported algorithm, memory) are recorded
                        // without paying an upload no job would use.
                        let mut admitted = Vec::new();
                        for job in &group {
                            match driver.preflight(platform.as_ref(), &spec(job), csr) {
                                Some(rejected) => db.insert(rejected),
                                None => admitted.push(job),
                            }
                        }
                        if admitted.is_empty() {
                            continue;
                        }
                        // Upload phase: once per (platform, dataset),
                        // through the sharded path when configured.
                        let upload_start = std::time::Instant::now();
                        match graphalytics_engines::upload_with_shards(
                            platform.as_ref(),
                            csr.clone(),
                            self.config.shards,
                            self.config.seed,
                            &pool,
                        ) {
                            Ok(loaded) => {
                                let upload_secs = upload_start.elapsed().as_secs_f64();
                                for job in admitted {
                                    db.insert(driver.run_uploaded(
                                        platform.as_ref(),
                                        loaded.as_ref(),
                                        &spec(job),
                                        Some(upload_secs),
                                    ));
                                }
                                platform.delete(loaded);
                            }
                            Err(e) => {
                                // A failed upload fails every job that
                                // would have shared it.
                                for job in admitted {
                                    db.insert(driver.upload_failed_result(
                                        platform.as_ref(),
                                        &spec(job),
                                        csr,
                                        format!("upload failed: {e}"),
                                    ));
                                }
                            }
                        }
                    }
                    None => {
                        for job in &group {
                            db.insert(driver.run(
                                platform.as_ref(),
                                &spec(job),
                                RunMode::Analytic,
                            ));
                        }
                    }
                }
            }
        }
        Ok(db)
    }
}

/// Splits the description's job list into per-dataset groups, preserving
/// order (the description is already dataset-major).
fn group_by_dataset(description: &BenchmarkDescription) -> Vec<Vec<JobDescription>> {
    let mut groups: Vec<Vec<JobDescription>> = Vec::new();
    for job in &description.jobs {
        match groups.last_mut() {
            Some(group) if group[0].dataset.id == job.dataset.id => group.push(job.clone()),
            _ => groups.push(vec![job.clone()]),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_driven_measured_run() {
        let config = BenchmarkConfig::parse(
            "benchmark.platforms = native, pushpull\n\
             benchmark.datasets = G22\n\
             benchmark.algorithms = bfs, wcc, lcc\n\
             benchmark.scale-divisor = 16384\n\
             benchmark.repetitions = 3\n",
        )
        .unwrap();
        let runner = Runner::new(config, RunnerMode::Measured);
        let db = runner.run().unwrap();
        // 2 platforms × 3 algorithms; LCC on pushpull is NA but recorded.
        assert_eq!(db.len(), 6);
        let ok = db.all().iter().filter(|r| r.status.is_success()).count();
        assert_eq!(ok, 5);
        assert!(db
            .all()
            .iter()
            .any(|r| r.platform == "pushpull" && r.status.figure_mark() == "NA"));
        for r in db.all() {
            if r.status.is_success() {
                // benchmark.repetitions honored, every repetition executed.
                assert_eq!(r.repetitions(), 3, "{} {}", r.platform, r.algorithm);
                assert!(r.runs.iter().all(|m| m.measured_wall_secs.is_some()));
                assert!(r.measured_upload_secs.is_some());
            }
        }
        // Upload once per (platform, dataset): every job of a platform on
        // the shared dataset reports the *same* measured upload time.
        for platform in ["native", "pushpull"] {
            let uploads: Vec<f64> = db
                .all()
                .iter()
                .filter(|r| r.platform == platform && r.status.is_success())
                .map(|r| r.measured_upload_secs.unwrap())
                .collect();
            assert!(!uploads.is_empty());
            assert!(
                uploads.iter().all(|&u| u == uploads[0]),
                "{platform}: jobs must share one upload, got {uploads:?}"
            );
        }
    }

    #[test]
    fn config_driven_sharded_run() {
        use crate::driver::JobStatus;
        let config = BenchmarkConfig::parse(
            "benchmark.platforms = pregel, pushpull, spmv\n\
             benchmark.datasets = G22\n\
             benchmark.algorithms = bfs\n\
             benchmark.scale-divisor = 16384\n\
             benchmark.shards = 2\n",
        )
        .unwrap();
        let runner = Runner::new(config, RunnerMode::Measured);
        let db = runner.run().unwrap();
        assert_eq!(db.len(), 3);
        for r in db.all() {
            if r.platform == "spmv" {
                // No sharded run path → rejected at admission.
                assert_eq!(r.status, JobStatus::Unsupported);
                continue;
            }
            assert!(r.status.is_success(), "{} {:?}", r.platform, r.status);
            assert_eq!(r.shards, 2);
            assert!(r.cut_fraction.unwrap() > 0.0);
            assert!(r.counters.inter_shard_messages > 0, "{}", r.platform);
        }
    }

    #[test]
    fn empty_selections_resolve_to_full_suite() {
        let runner = Runner::new(BenchmarkConfig::default(), RunnerMode::Analytic);
        assert_eq!(runner.platforms().unwrap().len(), 6);
        assert_eq!(runner.description().unwrap().len(), BenchmarkDescription::full().len());
    }

    #[test]
    fn analytic_run_over_selection() {
        let config = BenchmarkConfig::parse(
            "benchmark.datasets = R4\nbenchmark.algorithms = sssp\n",
        )
        .unwrap();
        let runner = Runner::new(config, RunnerMode::Analytic);
        let db = runner.run().unwrap();
        assert_eq!(db.len(), 6, "one job per platform");
        assert!(db.success_rate() > 0.5);
    }

    #[test]
    fn unknown_platform_is_rejected() {
        let config =
            BenchmarkConfig::parse("benchmark.platforms = quantum\n").unwrap();
        let runner = Runner::new(config, RunnerMode::Analytic);
        let err = runner.platforms().err().unwrap();
        assert!(matches!(err, Error::UnknownPlatform(ref n) if n == "quantum"), "{err}");
        // run() surfaces the same error instead of panicking mid-benchmark.
        assert!(runner.run().is_err());
    }

    #[test]
    fn unknown_dataset_fails_run_up_front() {
        let config = BenchmarkConfig::parse("benchmark.datasets = R99\n").unwrap();
        let runner = Runner::new(config, RunnerMode::Analytic);
        let err = runner.run().err().unwrap();
        assert!(matches!(err, Error::UnknownDataset(ref id) if id == "R99"), "{err}");
    }
}
