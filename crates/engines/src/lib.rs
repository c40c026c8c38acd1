//! # graphalytics-engines
//!
//! Six graph-analysis platform engines, one per programming model the
//! paper evaluates (Table 5):
//!
//! | module       | programming model              | paper analogue       |
//! |--------------|--------------------------------|----------------------|
//! | [`pregel`]   | BSP vertex-centric messaging   | Apache Giraph        |
//! | [`dataflow`] | RDD-style partitioned dataflow | Apache GraphX/Spark  |
//! | [`gas`]      | Gather–Apply–Scatter, vertex cuts | PowerGraph (CMU)  |
//! | [`spmv`]     | generalized sparse matrix–vector over semirings | GraphMat (Intel) |
//! | [`native`]   | hand-optimized native kernels  | OpenG (Georgia Tech) |
//! | [`pushpull`] | hybrid push–pull with message buffers | PGX.D (Oracle)|
//!
//! Every engine implements all six benchmark algorithms through its own
//! model's abstractions (except LCC on [`pushpull`], mirroring PGX.D in
//! the paper), *really executes them*, and its outputs are validated
//! against the reference implementations in `graphalytics-core`. An
//! engine supplies its upload and its algorithm dispatch
//! ([`Platform::execute`]); the execute phase around the dispatch —
//! timing, cancellation, input rules, tracing, the fault boundary — is
//! written once ([`platform::execute_phase`]). During execution each
//! engine populates [`WorkCounters`] (vertices, edges, messages, bytes,
//! supersteps).
//!
//! This crate holds no analytic model. The counter estimators for graphs
//! too large to execute, and the per-engine constants that turn counters
//! into simulated cluster time, memory footprints, startup/upload
//! overheads and run-to-run variability, live in `graphalytics-cluster`
//! (`PerfProfile::of(engine_name)`). Engines read only two things from
//! it: the paper analogue [`platform_by_name`] resolves, and the
//! placement [`upload_with_shards`] partitions by.
//!
//! The fundamental asymmetries the paper reports emerge structurally here:
//! the dataflow engine re-materializes datasets every iteration (GraphX's
//! two-orders-of-magnitude gap), the Pregel engine iterates all vertices
//! every superstep while the native engine's queue-based BFS touches only
//! the reachable fraction (OpenG's win on R2), the SpMV and push–pull
//! engines stream flat arrays (GraphMat/PGX.D leading most charts), and
//! the GAS engine pays mirror-synchronization costs under vertex cuts.

pub mod common;
pub mod dataflow;
pub mod gas;
pub mod native;
pub mod platform;
pub mod pregel;
pub mod pushpull;
pub mod sharded;
pub mod spmv;
pub mod trace;

pub use platform::{
    all_platforms, platform_by_name, run_once, Execution, LoadedGraph, Platform, RunContext,
};
pub use sharded::{upload_with_shards, ShardLayout, ShardPlan, ShardSet};
pub use trace::SpanRecord;

pub use graphalytics_cluster::WorkCounters;
pub use graphalytics_core::fault;
