//! Per-engine performance profiles: the analytic model, kept apart from
//! the measured `Platform` lifecycle.
//!
//! A [`PerfProfile`] holds everything that distinguishes an engine in
//! the simulation: its counter [`Estimator`] for datasets too large to
//! execute, cost coefficients (counters → seconds), the memory model,
//! startup/upload overheads, variability, partitioning strategy and
//! preferred network. Each engine's profile is one associated constant
//! (`PerfProfile::PREGEL` …), which `Platform::profile` returns. The
//! constants are calibrated **once** against the paper's published
//! single-machine measurements and reused unchanged for every experiment:
//!
//! * Table 8 — `T_proc` and makespan of BFS on D300(L) fix the compute
//!   coefficients and the startup/load overheads;
//! * Table 9 — vertical speedups fix the Amdahl serial fractions;
//! * Table 10 — stress-test failure points fix bytes/edge and skew
//!   sensitivity;
//! * Table 11 — coefficients of variation fix the noise model;
//! * Sections 4.4–4.5 — the Giraph two-machine cliff fixes the distributed
//!   message penalty; GraphMat's single-machine PR outlier fixes the swap
//!   behaviour.
//!
//! Figures 4–9 are then *predictions* from counters (measured, or
//! estimated at paper scale) plus these profiles.

use graphalytics_cluster::cost::CostCoefficients;
use graphalytics_cluster::memory::{MemoryModel, OomBehavior};
use graphalytics_cluster::partition::PartitionStrategy;
use graphalytics_core::Algorithm;

use crate::estimate::{self, Estimator};

/// Which interconnect an engine is deployed on (Table 7 lists both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    Ethernet1G,
    InfinibandFdr,
}

/// All simulation constants for one engine.
#[derive(Debug, Clone)]
pub struct PerfProfile {
    /// Model name (`pregel`, ...).
    pub model_name: &'static str,
    /// The platform of the paper this engine reproduces (`Giraph`, ...).
    pub paper_analog: &'static str,
    /// Vendor/community origin, as in Table 5 (`C` community / `I` industry).
    pub industry: bool,
    /// Whether the engine has a distributed deployment mode (OpenG does
    /// not: Table 5 classifies it `S`).
    pub supports_distributed: bool,
    pub cost: CostCoefficients,
    /// Estimates the counters a run would produce from a published graph
    /// size and traits, without executing — analytic mode, for
    /// paper-scale datasets that cannot be materialized
    /// ([`crate::estimate`]).
    pub estimate: Estimator,
    pub memory: MemoryModel,
    /// Fixed job startup (JVM boot, container allocation...), seconds.
    pub startup_secs: f64,
    /// Upload/convert cost per edge, seconds (graph loading into the
    /// platform's internal format).
    pub load_secs_per_edge: f64,
    /// Coefficient of variation of repeated runs, single machine.
    pub cv_single: f64,
    /// Coefficient of variation, distributed (16 machines).
    pub cv_distributed: f64,
    /// Partitioning strategy in distributed mode.
    pub partition: PartitionStrategy,
    pub network: NetworkKind,
    /// Per-message bytes a CDLP label shuffle materializes simultaneously
    /// (0 when the engine streams/combines). Drives GraphX's CDLP failures.
    pub cdlp_peak_bytes_per_message: f64,
    /// Bytes per entry of materialized neighbour-list messages in LCC
    /// (0 when the engine streams intersections). Drives the "LCC fails
    /// everywhere but OpenG and PowerGraph" finding.
    pub lcc_peak_bytes_per_entry: f64,
}

impl PerfProfile {
    /// Extra peak memory an algorithm materializes beyond the resident
    /// graph, bytes. `sum_deg2` is Σ_v d(v)² (the LCC message volume),
    /// `arcs` the stored arc count.
    pub fn peak_extra_bytes(&self, algorithm: Algorithm, arcs: u64, sum_deg2: f64) -> f64 {
        match algorithm {
            Algorithm::Cdlp => 2.0 * arcs as f64 * self.cdlp_peak_bytes_per_message,
            Algorithm::Lcc => sum_deg2 * self.lcc_peak_bytes_per_entry,
            _ => 0.0,
        }
    }

    /// Giraph-like BSP vertex-centric engine (community, distributed,
    /// JVM-based). Slow per-message object churn, heavyweight startup,
    /// high distributed serialization penalty (the 1→2 machine cliff).
    pub const PREGEL: PerfProfile = PerfProfile {
        model_name: "pregel",
        paper_analog: "Giraph",
        industry: false,
        supports_distributed: true,
        cost: CostCoefficients {
            secs_per_edge: 50.0e-9,
            secs_per_vertex: 150.0e-9,
            secs_per_message: 140.0e-9,
            secs_per_random_access: 30.0e-9,
            wire_overhead_factor: 3.0, // Java object serialization
            barrier_secs: 0.10,
            serial_fraction: 0.12,
            distributed_msg_penalty: 4.0,
            network_efficiency: 0.80,
            barrier_machine_overhead: 0.06,
        },
        estimate: estimate::pregel,
        memory: MemoryModel {
            base_bytes: 4.0e9, // JVM heaps + Hadoop daemons
            bytes_per_vertex: 120.0,
            bytes_per_edge: 50.0,
            skew_sensitivity: 0.07,
            oom: OomBehavior::Crash,
        },
        startup_secs: 40.0,
        load_secs_per_edge: 0.70e-6,
        cv_single: 0.050,
        cv_distributed: 0.098,
        partition: PartitionStrategy::HashEdgeCut,
        network: NetworkKind::Ethernet1G,
        cdlp_peak_bytes_per_message: 24.0,
        lcc_peak_bytes_per_entry: 8.0,
    };

    /// GraphX-like RDD dataflow engine (community, distributed, JVM).
    /// Materializes datasets per iteration — the two-orders-of-magnitude
    /// engine of Figure 4 — and cannot stream CDLP multisets.
    pub const DATAFLOW: PerfProfile = PerfProfile {
        model_name: "dataflow",
        paper_analog: "GraphX",
        industry: false,
        supports_distributed: true,
        cost: CostCoefficients {
            secs_per_edge: 55.0e-9,
            secs_per_vertex: 270.0e-9,
            secs_per_message: 23.0e-9,
            secs_per_random_access: 40.0e-9,
            wire_overhead_factor: 3.0,
            barrier_secs: 0.45, // per-iteration stage scheduling
            serial_fraction: 0.18,
            distributed_msg_penalty: 1.6,
            network_efficiency: 0.65,
            barrier_machine_overhead: 1.2, // stage scheduling grows with the cluster
        },
        estimate: estimate::dataflow,
        memory: MemoryModel {
            base_bytes: 5.0e9,
            bytes_per_vertex: 150.0,
            bytes_per_edge: 105.0,
            skew_sensitivity: 0.07,
            oom: OomBehavior::Crash,
        },
        startup_secs: 25.0,
        load_secs_per_edge: 0.565e-6,
        cv_single: 0.026,
        cv_distributed: 0.045,
        partition: PartitionStrategy::HashEdgeCut,
        network: NetworkKind::Ethernet1G,
        cdlp_peak_bytes_per_message: 300.0, // groupByKey, boxed records
        lcc_peak_bytes_per_entry: 16.0,
    };

    /// PowerGraph-like GAS engine (community, distributed, C++).
    /// Vertex cuts for skewed graphs; streams gather contributions, so it
    /// is one of the two engines that survive LCC.
    pub const GAS: PerfProfile = PerfProfile {
        model_name: "gas",
        paper_analog: "PowerGraph",
        industry: false,
        supports_distributed: true,
        cost: CostCoefficients {
            secs_per_edge: 15.0e-9,
            secs_per_vertex: 50.0e-9,
            secs_per_message: 5.0e-9,
            secs_per_random_access: 18.0e-9,
            wire_overhead_factor: 1.5,
            barrier_secs: 0.02,
            serial_fraction: 0.032,
            distributed_msg_penalty: 2.0,
            network_efficiency: 0.70,
            barrier_machine_overhead: 0.08,
        },
        estimate: estimate::gas,
        memory: MemoryModel {
            base_bytes: 1.0e9,
            bytes_per_vertex: 100.0, // replicas + gather state
            bytes_per_edge: 40.0,
            skew_sensitivity: 0.07,
            oom: OomBehavior::Crash,
        },
        startup_secs: 5.0,
        load_secs_per_edge: 0.68e-6, // greedy vertex-cut ingestion
        cv_single: 0.015,
        cv_distributed: 0.045,
        partition: PartitionStrategy::GreedyVertexCut,
        network: NetworkKind::Ethernet1G,
        cdlp_peak_bytes_per_message: 0.0,
        lcc_peak_bytes_per_entry: 0.0,
    };

    /// GraphMat-like SpMV engine (industry/Intel, single-node + MPI).
    /// Flat-array semiring kernels — the fastest single-machine engine —
    /// but swaps rather than crashing when slightly over memory
    /// (the Section 4.4 single-machine PR outlier).
    pub const SPMV: PerfProfile = PerfProfile {
        model_name: "spmv",
        paper_analog: "GraphMat",
        industry: true,
        supports_distributed: true,
        cost: CostCoefficients {
            secs_per_edge: 2.0e-9,
            secs_per_vertex: 8.0e-9,
            secs_per_message: 2.0e-9,
            secs_per_random_access: 26.0e-9, // hash accumulator, no SIMD
            wire_overhead_factor: 1.5,
            barrier_secs: 0.005,
            serial_fraction: 0.050,
            distributed_msg_penalty: 1.8,
            network_efficiency: 0.80,
            barrier_machine_overhead: 0.05,
        },
        estimate: estimate::spmv,
        memory: MemoryModel {
            base_bytes: 0.5e9,
            bytes_per_vertex: 64.0,
            bytes_per_edge: 64.0, // CSR + CSC copies
            skew_sensitivity: 0.07,
            oom: OomBehavior::Swap { limit_factor: 1.25, slowdown: 25.0 },
        },
        startup_secs: 2.0,
        load_secs_per_edge: 0.0674e-6,
        cv_single: 0.097,
        cv_distributed: 0.057,
        partition: PartitionStrategy::RangeEdgeCut,
        network: NetworkKind::Ethernet1G,
        cdlp_peak_bytes_per_message: 0.0,
        lcc_peak_bytes_per_entry: 12.0, // SpGEMM intermediates
    };

    /// OpenG-like native engine (industry/IBM-GaTech, single node only).
    /// Handwritten kernels; queue-based BFS touches only the reachable
    /// region (the R2 anomaly of Section 4.1).
    pub const NATIVE: PerfProfile = PerfProfile {
        model_name: "native",
        paper_analog: "OpenG",
        industry: true,
        supports_distributed: false,
        cost: CostCoefficients {
            secs_per_edge: 16.0e-9,
            secs_per_vertex: 30.0e-9,
            secs_per_message: 10.0e-9,
            secs_per_random_access: 2.0e-9, // array-based counting
            wire_overhead_factor: 1.0,
            barrier_secs: 0.002,
            serial_fraction: 0.11,
            distributed_msg_penalty: 1.0,
            network_efficiency: 1.0,
            barrier_machine_overhead: 0.0,
        },
        estimate: estimate::native,
        memory: MemoryModel {
            base_bytes: 0.2e9,
            bytes_per_vertex: 64.0,
            bytes_per_edge: 36.0,
            skew_sensitivity: 0.07,
            oom: OomBehavior::Crash,
        },
        startup_secs: 0.5,
        load_secs_per_edge: 10.2e-9,
        cv_single: 0.048,
        cv_distributed: 0.048, // unused: single-node platform
        partition: PartitionStrategy::RangeEdgeCut,
        network: NetworkKind::Ethernet1G,
        cdlp_peak_bytes_per_message: 0.0,
        lcc_peak_bytes_per_entry: 0.0,
    };

    /// PGX.D-like push–pull engine (industry/Oracle, distributed).
    /// Near-linear thread scaling (cooperative context switching),
    /// bandwidth-efficient messaging over InfiniBand, but memory-hungry
    /// ("optimized for machines with large amounts of cores and memory").
    /// Does not implement LCC.
    pub const PUSHPULL: PerfProfile = PerfProfile {
        model_name: "pushpull",
        paper_analog: "PGX.D",
        industry: true,
        supports_distributed: true,
        cost: CostCoefficients {
            secs_per_edge: 7.0e-9,
            secs_per_vertex: 20.0e-9,
            secs_per_message: 10.0e-9,
            secs_per_random_access: 34.0e-9,
            wire_overhead_factor: 1.1, // bandwidth-efficient wire format
            barrier_secs: 0.003,
            serial_fraction: 0.018,
            distributed_msg_penalty: 1.3,
            network_efficiency: 0.85,
            barrier_machine_overhead: 0.04,
        },
        estimate: estimate::pushpull,
        memory: MemoryModel {
            base_bytes: 2.0e9,
            bytes_per_vertex: 150.0,
            bytes_per_edge: 110.0, // both directions + message buffers
            skew_sensitivity: 0.07,
            oom: OomBehavior::Crash,
        },
        startup_secs: 30.0,
        load_secs_per_edge: 0.78e-6,
        cv_single: 0.082,
        cv_distributed: 0.071,
        partition: PartitionStrategy::HashEdgeCut,
        network: NetworkKind::InfinibandFdr,
        cdlp_peak_bytes_per_message: 0.0,
        lcc_peak_bytes_per_entry: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<PerfProfile> {
        vec![
            PerfProfile::PREGEL,
            PerfProfile::DATAFLOW,
            PerfProfile::GAS,
            PerfProfile::SPMV,
            PerfProfile::NATIVE,
            PerfProfile::PUSHPULL,
        ]
    }

    #[test]
    fn analogs_match_table5() {
        let analogs: Vec<_> = all().iter().map(|p| p.paper_analog).collect();
        assert_eq!(
            analogs,
            vec!["Giraph", "GraphX", "PowerGraph", "GraphMat", "OpenG", "PGX.D"]
        );
        // Three community, three industry.
        assert_eq!(all().iter().filter(|p| p.industry).count(), 3);
        // OpenG is the only non-distributed platform.
        let nd: Vec<_> =
            all().iter().filter(|p| !p.supports_distributed).map(|p| p.paper_analog).collect();
        assert_eq!(nd, vec!["OpenG"]);
    }

    #[test]
    fn fast_engines_have_cheapest_edges() {
        let spe = |name: &str| {
            all().into_iter().find(|p| p.model_name == name).unwrap().cost.secs_per_edge
        };
        assert!(spe("spmv") < spe("pushpull"));
        assert!(spe("pushpull") < spe("gas"));
        assert!(spe("native") < spe("pregel"));
        assert!(spe("pregel") > 2.0 * spe("gas"));
    }

    #[test]
    fn peak_memory_terms() {
        let pregel = PerfProfile::PREGEL;
        assert!(pregel.peak_extra_bytes(Algorithm::Lcc, 1000, 1.0e9) > 1.0e9);
        assert_eq!(pregel.peak_extra_bytes(Algorithm::Bfs, 1000, 1.0e9), 0.0);
        let dataflow = PerfProfile::DATAFLOW;
        assert!(
            dataflow.peak_extra_bytes(Algorithm::Cdlp, 100_000_000, 0.0)
                > pregel.peak_extra_bytes(Algorithm::Cdlp, 100_000_000, 0.0)
        );
        let gas = PerfProfile::GAS;
        assert_eq!(gas.peak_extra_bytes(Algorithm::Lcc, 1000, 1.0e12), 0.0);
    }

    #[test]
    fn variability_matches_table11_order() {
        // GraphMat and PGX.D show the highest single-machine CVs.
        let cvs: Vec<(f64, &str)> = all().iter().map(|p| (p.cv_single, p.paper_analog)).collect();
        let max = cvs.iter().cloned().fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
        assert_eq!(max.1, "GraphMat");
        let pg = all().into_iter().find(|p| p.paper_analog == "PowerGraph").unwrap();
        assert!(cvs.iter().all(|&(cv, _)| cv >= pg.cv_single), "PowerGraph has least variability");
    }
}
