//! # graphalytics-cluster
//!
//! The simulated parallel/distributed execution substrate.
//!
//! The paper evaluates six platforms on DAS-5 — clusters of dual-8-core,
//! 64 GiB machines on 1 Gbit/s Ethernet (Table 7). This reproduction runs
//! on a single host, so the *cluster* is simulated: engines execute the
//! real algorithms (on real threads for single-machine runs) while this
//! crate accounts what those executions would cost on a configurable
//! cluster:
//!
//! * [`machine`] — machine specifications (cores, Hyper-Threading yield,
//!   memory) with the DAS-5 node as the default;
//! * [`topology`] — cluster + network models (1 GbE / FDR InfiniBand);
//! * [`partition`] — real graph partitioners (hash/range edge cuts, greedy
//!   vertex cut) whose measured cut fractions and replication factors feed
//!   the models;
//! * [`counters`] — the work counters every engine populates while
//!   executing (vertices, edges, messages, bytes, supersteps);
//! * [`cost`] — the counters → simulated-seconds conversion, parameterized
//!   by per-engine [`cost::CostCoefficients`];
//! * [`memory`] — the footprint model behind the stress-test experiment
//!   (out-of-memory crashes, Section 4.6) and GraphMat's single-machine
//!   swapping outlier (Section 4.4);
//! * [`estimate`] — counter estimators for datasets too large to execute;
//! * [`profile`] — the per-engine constants ([`PerfProfile`]), admission
//!   and pricing.
//!
//! This crate is the whole analytic model; `graphalytics-engines` only
//! executes and counts. Keeping the *formulas* and the per-engine
//! *constants* together means every engine is costed through the same
//! physics, so cross-engine comparisons (who wins, where crossovers fall)
//! emerge from counters and coefficients rather than per-figure tuning.

pub mod cost;
pub mod counters;
pub mod estimate;
pub mod machine;
pub mod memory;
pub mod partition;
pub mod profile;
pub mod topology;

pub use cost::CostCoefficients;
pub use counters::WorkCounters;
pub use machine::MachineSpec;
pub use memory::MemoryModel;
pub use partition::{EdgeCutPartition, PartitionStrategy, VertexCutStats};
pub use profile::{Admission, PerfProfile, Pricing};
pub use topology::{ClusterSpec, NetworkSpec};
