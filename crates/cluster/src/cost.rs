//! The counters → simulated-seconds cost model.
//!
//! Processing time of a run is modeled as
//!
//! ```text
//! T_proc = compute + network + barrier
//!
//! compute = (serial_work / machines) · (σ + (1-σ) / eff_threads)
//!           serial_work = edges·c_e + vertices·c_v + rand·c_r
//!                       + messages·c_m·π
//!           π = distributed message-handling penalty when machines > 1
//!               (serialization paths replace in-memory hand-off — the
//!               mechanism behind Giraph's 1→2 machine cliff, Section 4.4)
//! network = message_bytes · ω · cut_fraction / (bandwidth · η · machines)
//!           + supersteps · latency · ceil(log2(machines))
//! barrier = supersteps · β · (1 + κ·(machines-1))
//! ```
//!
//! All Greek letters are per-engine constants ([`CostCoefficients`],
//! instantiated in [`crate::profile`]); everything else comes
//! from measured [`WorkCounters`] and the [`ClusterSpec`]. The barrier term
//! does not shrink with threads, which is what bounds vertical speedups
//! (Table 9); the σ term is classic Amdahl.

use serde::Serialize;

use crate::counters::WorkCounters;
use crate::topology::ClusterSpec;

/// Per-engine cost constants. See the module docs for the formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCoefficients {
    /// Seconds per scanned edge (single-threaded).
    pub secs_per_edge: f64,
    /// Seconds per processed vertex (single-threaded).
    pub secs_per_vertex: f64,
    /// Seconds per message handled locally (single-threaded).
    pub secs_per_message: f64,
    /// Seconds per random (cache-hostile) memory access — hash-table
    /// probes in multiset reductions (CDLP) and the like. Hand-written
    /// array-based kernels have near-zero values here; generic hash-based
    /// reductions pay heavily, which is why OpenG wins CDLP (Section 4.2).
    pub secs_per_random_access: f64,
    /// Wire-volume multiplier ω over the logical payload bytes
    /// (serialization framing; ≈1 for compact binary formats, ≈3 for
    /// Java object serialization).
    pub wire_overhead_factor: f64,
    /// Fixed coordination cost per superstep (σ-independent, does not
    /// parallelize).
    pub barrier_secs: f64,
    /// Amdahl serial fraction σ of the compute work.
    pub serial_fraction: f64,
    /// Multiplier π on message-handling cost in distributed mode.
    pub distributed_msg_penalty: f64,
    /// Fraction η of nominal network bandwidth the engine achieves.
    pub network_efficiency: f64,
    /// Per-extra-machine growth κ of the barrier cost.
    pub barrier_machine_overhead: f64,
}

impl CostCoefficients {
    /// A neutral set of coefficients (useful in tests).
    pub fn uniform(secs_per_edge: f64) -> Self {
        CostCoefficients {
            secs_per_edge,
            secs_per_vertex: secs_per_edge,
            secs_per_message: secs_per_edge,
            secs_per_random_access: secs_per_edge,
            wire_overhead_factor: 2.0,
            barrier_secs: 1.0e-3,
            serial_fraction: 0.05,
            distributed_msg_penalty: 1.5,
            network_efficiency: 0.7,
            barrier_machine_overhead: 0.05,
        }
    }
}

/// The components of a simulated processing time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostBreakdown {
    pub compute_secs: f64,
    pub network_secs: f64,
    pub barrier_secs: f64,
}

impl CostBreakdown {
    /// Total simulated processing time.
    pub fn total(&self) -> f64 {
        self.compute_secs + self.network_secs + self.barrier_secs
    }
}

/// Converts measured counters into simulated processing time on `cluster`.
///
/// `cut_fraction` is the fraction of message traffic that crosses machine
/// boundaries (0 on a single machine; measured by the partitioner or
/// estimated analytically for paper-scale graphs).
pub fn processing_time(
    c: &CostCoefficients,
    w: &WorkCounters,
    cluster: &ClusterSpec,
    cut_fraction: f64,
) -> CostBreakdown {
    let machines = cluster.machines.max(1) as f64;
    let distributed = cluster.is_distributed();

    let msg_penalty = if distributed { c.distributed_msg_penalty } else { 1.0 };
    let serial_work = w.edges_scanned as f64 * c.secs_per_edge
        + w.vertices_processed as f64 * c.secs_per_vertex
        + w.random_accesses as f64 * c.secs_per_random_access
        + w.messages as f64 * c.secs_per_message * msg_penalty;
    let eff = cluster.machine.effective_parallelism(cluster.threads_per_machine).max(1.0);
    // Work divides across machines (each machine owns a partition); the
    // Amdahl serial fraction σ applies within a machine.
    let compute = (serial_work / machines)
        * (c.serial_fraction + (1.0 - c.serial_fraction) / eff);

    let network = if distributed {
        let wire_bytes =
            w.message_bytes as f64 * c.wire_overhead_factor * cut_fraction.clamp(0.0, 1.0);
        let bw = cluster.network.bandwidth_bytes_per_s * c.network_efficiency * machines;
        let hops = machines.log2().ceil().max(1.0);
        wire_bytes / bw + w.supersteps as f64 * cluster.network.latency_s * hops
    } else {
        0.0
    };

    let barrier = w.supersteps as f64
        * c.barrier_secs
        * (1.0 + c.barrier_machine_overhead * (machines - 1.0));

    CostBreakdown { compute_secs: compute, network_secs: network, barrier_secs: barrier }
}

/// Deterministic run-to-run performance noise.
///
/// The paper's variability experiment (Section 4.7, Table 11) measures the
/// coefficient of variation of repeated runs. Real runs on this host have
/// their own (host-specific) noise; for *simulated* clusters we synthesize
/// noise with the engine's calibrated CV: a truncated Gaussian factor
/// `max(0.2, 1 + cv·z)` with `z ~ N(0,1)` drawn from a splitmix-seeded
/// Box–Muller pair, keyed by `(seed, run_index)` so sequences are
/// reproducible.
pub fn noise_factor(cv: f64, seed: u64, run_index: u64) -> f64 {
    let u1 = unit(splitmix(seed ^ run_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let u2 = unit(splitmix(seed.wrapping_add(run_index).wrapping_add(0xABCD_EF01)));
    let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (1.0 + cv * z).max(0.2)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> WorkCounters {
        WorkCounters {
            vertices_processed: 1_000_000,
            edges_scanned: 50_000_000,
            messages: 10_000_000,
            message_bytes: 80_000_000,
            supersteps: 10,
            random_accesses: 0,
            inter_shard_messages: 0,
            inter_shard_bytes: 0,
        }
    }

    #[test]
    fn more_threads_is_faster_until_saturation() {
        let c = CostCoefficients::uniform(50.0e-9);
        let w = counters();
        let t1 = processing_time(&c, &w, &ClusterSpec::single_machine_threads(1), 0.0).total();
        let t16 = processing_time(&c, &w, &ClusterSpec::single_machine_threads(16), 0.0).total();
        let t32 = processing_time(&c, &w, &ClusterSpec::single_machine_threads(32), 0.0).total();
        assert!(t16 < t1 / 4.0);
        assert!(t32 <= t16);
        assert!(t32 > t16 * 0.8, "HT must not give large gains");
    }

    #[test]
    fn single_machine_has_no_network_cost() {
        let c = CostCoefficients::uniform(10.0e-9);
        let b = processing_time(&c, &counters(), &ClusterSpec::single_machine(), 0.9);
        assert_eq!(b.network_secs, 0.0);
        assert!(b.compute_secs > 0.0);
    }

    #[test]
    fn distributed_penalty_can_beat_parallel_gain() {
        // With a high message penalty and cut fraction, two machines can be
        // slower than one — Giraph's cliff.
        let mut c = CostCoefficients::uniform(10.0e-9);
        c.distributed_msg_penalty = 12.0;
        c.secs_per_message = 200.0e-9;
        let w = counters();
        let one = processing_time(&c, &w, &ClusterSpec::das5(1), 0.0).total();
        let two = processing_time(&c, &w, &ClusterSpec::das5(2), 0.5).total();
        assert!(two > one, "expected cliff: 1m {one:.3}s vs 2m {two:.3}s");
        // But 16 machines eventually beat 2.
        let sixteen = processing_time(&c, &w, &ClusterSpec::das5(16), 0.9).total();
        assert!(sixteen < two);
    }

    #[test]
    fn barrier_does_not_parallelize() {
        let mut c = CostCoefficients::uniform(1.0e-12);
        c.barrier_secs = 0.1;
        let w = counters();
        let t1 = processing_time(&c, &w, &ClusterSpec::single_machine_threads(1), 0.0);
        let t32 = processing_time(&c, &w, &ClusterSpec::single_machine_threads(32), 0.0);
        assert!((t1.barrier_secs - t32.barrier_secs).abs() < 1e-12);
        assert!((t1.barrier_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_and_centered() {
        let a = noise_factor(0.05, 42, 3);
        let b = noise_factor(0.05, 42, 3);
        assert_eq!(a, b);
        let samples: Vec<f64> = (0..2000).map(|i| noise_factor(0.05, 7, i)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 0.05).abs() < 0.01, "cv {cv}");
        assert!(samples.iter().all(|&x| x >= 0.2));
    }
}
