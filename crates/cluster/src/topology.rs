//! Cluster and network models.

use crate::machine::MachineSpec;

/// Interconnect characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Per-machine sustainable bandwidth, bytes/second.
    pub bandwidth_bytes_per_s: f64,
    /// One-way message latency, seconds.
    pub latency_s: f64,
}

impl NetworkSpec {
    /// 1 Gbit/s Ethernet (Table 7) — what the community platforms use.
    pub const fn ethernet_1g() -> Self {
        NetworkSpec { bandwidth_bytes_per_s: 117.0e6, latency_s: 100.0e-6 }
    }

    /// FDR InfiniBand (Table 7) — available on DAS-5; PGX.D-class engines
    /// exploit it.
    pub const fn infiniband_fdr() -> Self {
        NetworkSpec { bandwidth_bytes_per_s: 6.8e9, latency_s: 1.5e-6 }
    }
}

/// A cluster configuration: how many machines, how many threads each run
/// uses, what hardware, what network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    pub machines: u32,
    /// Software threads per machine used by the run (the vertical-
    /// scalability experiment varies this from 1 to 32).
    pub threads_per_machine: u32,
    pub machine: MachineSpec,
    pub network: NetworkSpec,
}

impl ClusterSpec {
    /// A single DAS-5 machine using all physical cores.
    pub fn single_machine() -> Self {
        ClusterSpec {
            machines: 1,
            threads_per_machine: 16,
            machine: MachineSpec::das5(),
            network: NetworkSpec::ethernet_1g(),
        }
    }

    /// A single machine with an explicit thread count (vertical
    /// scalability, Section 4.3).
    pub fn single_machine_threads(threads: u32) -> Self {
        ClusterSpec { threads_per_machine: threads, ..Self::single_machine() }
    }

    /// `n` DAS-5 machines on 1 GbE (horizontal scalability, Sections
    /// 4.4–4.5).
    pub fn das5(machines: u32) -> Self {
        ClusterSpec { machines, ..Self::single_machine() }
    }

    /// Total effective parallelism across the cluster.
    pub fn total_parallelism(&self) -> f64 {
        self.machines as f64 * self.machine.effective_parallelism(self.threads_per_machine)
    }

    /// True for distributed configurations.
    pub fn is_distributed(&self) -> bool {
        self.machines > 1
    }

    /// Total memory available across machines.
    pub fn total_memory_bytes(&self) -> u64 {
        self.machines as u64 * self.machine.memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_presets_ordered() {
        assert!(
            NetworkSpec::infiniband_fdr().bandwidth_bytes_per_s
                > 10.0 * NetworkSpec::ethernet_1g().bandwidth_bytes_per_s
        );
        assert!(NetworkSpec::infiniband_fdr().latency_s < NetworkSpec::ethernet_1g().latency_s);
    }

    #[test]
    fn cluster_parallelism_scales() {
        let one = ClusterSpec::single_machine();
        let four = ClusterSpec::das5(4);
        assert_eq!(one.total_parallelism() * 4.0, four.total_parallelism());
        assert!(!one.is_distributed());
        assert!(four.is_distributed());
        assert_eq!(four.total_memory_bytes(), 4 * 64 * (1 << 30));
    }

    #[test]
    fn thread_variants() {
        let t1 = ClusterSpec::single_machine_threads(1);
        let t32 = ClusterSpec::single_machine_threads(32);
        assert_eq!(t1.total_parallelism(), 1.0);
        assert!(t32.total_parallelism() > 16.0);
    }
}
