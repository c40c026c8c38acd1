//! # graphalytics-granula
//!
//! Granula, the fine-grained performance evaluation framework of
//! Graphalytics (Section 2.5.2), reimplemented in Rust. Four modules
//! mirror the paper's four components:
//!
//! * **[`model`] (the Modeler)** — lets platform experts define, once, the
//!   hierarchical phase structure of a job on their platform ("graph
//!   loading includes reading and partitioning"), so evaluation is
//!   automated thereafter;
//! * **[`monitor`] (the Monitor)** — collects runtime telemetry *while* a
//!   job executes: an atomic metrics registry (counters, gauges,
//!   p50/p95/p99 duration histograms) plus a background sampler polling
//!   `/proc/self` and worker-pool utilization, all gated by one switch
//!   on the harness driver and strictly data-plane passive;
//! * **[`archiver`] (the Archiver)** — collects timed phase records while a
//!   job runs (wall-clock or simulated durations) and produces a
//!   [`archive::PerformanceArchive`] that is *complete* (all observations
//!   included), *descriptive* (phases carry their mission text), and
//!   *examinable* (every derived value traces to records);
//! * **[`visualize`] (the Visualizer)** — renders archives for humans. The
//!   original is an interactive web UI; ours renders an ASCII tree with
//!   durations and percentages, which serves the same inspection purpose
//!   in a terminal (see DESIGN.md substitution notes).
//!
//! Archives serialize to JSON through the dependency-free writer in
//! [`json`].
//!
//! ```
//! use graphalytics_granula::archiver::Archiver;
//! let mut arch = Archiver::new("demo-platform", "job-1");
//! arch.begin("ProcessGraph");
//! arch.record_simulated("Superstep0", 0.25, &[("messages", "120")]);
//! arch.end();
//! let archive = arch.finish();
//! assert!(archive.duration_of("Superstep0").unwrap() > 0.2);
//! ```

pub mod archive;
pub mod archiver;
pub mod json;
pub mod model;
pub mod monitor;
pub mod visualize;

pub use archive::{OperationRecord, PerformanceArchive};
pub use archiver::Archiver;
pub use model::{OperationDef, PerformanceModel};
pub use monitor::{MetricsRegistry, ResourceSample, Sampler};
