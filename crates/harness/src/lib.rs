//! # graphalytics-harness
//!
//! The Graphalytics test harness (Figure 1 of the paper): it runs jobs
//! through one driver over the system under test, enforces the SLA,
//! validates outputs against the reference implementations, collects
//! Granula archives, serializes results, and renders the paper's tables and
//! figures. [`Driver::run`] is the one entry point; the service daemon's
//! job queue and the [`experiments`] suite are its callers.
//!
//! * [`description`] — the per-job parameter rules: the BFS/SSSP root,
//!   PageRank and CDLP iterations each dataset prescribes (component 1
//!   in Figure 1);
//! * [`proxy`] — materializes structure-matched stand-in graphs for the
//!   registry datasets at a configurable fraction of the published size;
//! * [`driver`] — runs one job (platform × dataset × algorithm × cluster)
//!   on the graph it is handed (a mutated graph arrives as its
//!   materialized snapshot): memory admission, execution or analytic
//!   estimation, cost-model timing, SLA verdict, Granula archive;
//! * [`metrics`] — EPS/EVPS/speedup/slowdown/coefficient-of-variation;
//! * [`survey`] — the two-stage workload selection process and the
//!   Table 1 survey data behind it;
//! * [`experiments`] — the eight-experiment suite of Table 6;
//! * [`results`] — the one serialization of a result;
//! * [`report`] — text renderers for every table and figure.

pub mod description;
pub mod driver;
pub mod experiments;
pub mod metrics;
pub mod proxy;
pub mod report;
pub mod results;
pub mod survey;

pub use driver::{
    Driver, JobResult, JobSpec, JobStatus, ReferenceCache, ReferenceStats, RunMeasurement, RunMode,
};

/// The benchmark SLA: a job must complete with a makespan of at most one
/// hour (Section 2.3).
pub const SLA_MAKESPAN_SECS: f64 = 3600.0;
