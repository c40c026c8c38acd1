//! Sharded (multi-pool) execution plumbing shared by the engines.
//!
//! A [`ShardSet`] is the sharded counterpart of an engine's uploaded
//! representation: the graph partitioned into `N` shards by one of the
//! `cluster` crate's edge-cut strategies, plus one [`WorkerPool`] per
//! shard. Engines with a sharded run path (pregel, pushpull) build one
//! in [`Platform::upload_sharded`] and drive all shard pools per
//! superstep, exchanging updates through explicit inter-shard message
//! queues — the execution-side realization of the partition models the
//! cost model has used analytically since the seed.
//!
//! The contract every sharded run path upholds: output bit-identical to
//! single-shard execution for every algorithm and every shard count
//! (enforced by `tests/sharded_equivalence.rs`).

use std::sync::Arc;
use std::time::Instant;

use graphalytics_cluster::partition::{edge_cut_seeded, PartitionStrategy};
use graphalytics_core::error::Result;
use graphalytics_core::pool::WorkerPool;
use graphalytics_core::{Csr, ShardCsr, ShardedCsr};

use crate::platform::{LoadedGraph, Platform};

/// How to shard an upload: shard count, per-shard pool width, placement.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Number of shards (1 = monolithic upload).
    pub shards: u32,
    /// Worker threads per shard pool; 0 divides the caller's pool width
    /// evenly across shards (at least one thread each).
    pub threads_per_shard: u32,
    /// Vertex-placement strategy (vertex cuts fall back to hashing —
    /// sharded execution owns vertices, not edges).
    pub strategy: PartitionStrategy,
    /// Placement seed for the hash strategy (see
    /// [`edge_cut_seeded`]).
    pub seed: u64,
}

impl ShardPlan {
    /// A plan with hash placement, seed 0 and automatic pool widths.
    pub fn new(shards: u32) -> Self {
        ShardPlan {
            shards,
            threads_per_shard: 0,
            strategy: PartitionStrategy::HashEdgeCut,
            seed: 0,
        }
    }
}

/// What a sharded [`LoadedGraph`] reports about its partition — the
/// quantities the harness surfaces in results (shard count, cut
/// fraction feeding the network-volume model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLayout {
    pub shards: u32,
    /// Fraction of arcs crossing shard boundaries.
    pub cut_fraction: f64,
}

/// The sharded uploaded representation: per-shard CSRs + per-shard
/// pools + the partition statistics of the cut that produced them.
pub struct ShardSet {
    sharded: Arc<ShardedCsr>,
    pools: Vec<WorkerPool>,
    cut_arcs: u64,
    total_arcs: u64,
    strategy: PartitionStrategy,
}

/// Times `f` when tracing is on; `0.0` seconds otherwise.
fn timed<T>(tracing: bool, f: impl FnOnce() -> T) -> (f64, T) {
    let t = tracing.then(Instant::now);
    let out = f();
    (t.map_or(0.0, |t| t.elapsed().as_secs_f64()), out)
}

impl ShardSet {
    /// Partitions `csr` per `plan` and spins up one pool per shard. The
    /// shard extraction itself runs on the caller's `pool`.
    pub fn build(csr: Arc<Csr>, plan: &ShardPlan, pool: &WorkerPool) -> Result<ShardSet> {
        let parts = plan.shards.max(1);
        let partition = edge_cut_seeded(&csr, parts, plan.strategy, plan.seed);
        let sharded = ShardedCsr::partition_with(csr, &partition.owner, parts, pool)?;
        let per_shard = if plan.threads_per_shard == 0 {
            (pool.threads() / parts).max(1)
        } else {
            plan.threads_per_shard
        };
        let pools = (0..parts).map(|_| WorkerPool::new(per_shard)).collect();
        Ok(ShardSet {
            sharded: Arc::new(sharded),
            pools,
            cut_arcs: partition.cut_arcs,
            total_arcs: partition.total_arcs,
            strategy: plan.strategy,
        })
    }

    /// The partitioned CSR.
    #[inline]
    pub fn sharded(&self) -> &ShardedCsr {
        &self.sharded
    }

    /// The parent (global) CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        self.sharded.csr().as_ref()
    }

    /// The per-shard pools, in shard order.
    #[inline]
    pub fn pools(&self) -> &[WorkerPool] {
        &self.pools
    }

    /// One superstep's compute phase: a scoped driver thread per shard
    /// runs `f(shard_index, shard, shard_pool)` — typically one
    /// `pool.run` over the shard's owned vertices — and the call returns
    /// once every shard is done. Results come back in shard order, each
    /// with the shard's wall seconds (measured only when `tracing`; the
    /// drivers report back rather than touch the caller's thread-local
    /// trace collector).
    pub fn run_shards<R, F>(&self, tracing: bool, f: F) -> Vec<(f64, R)>
    where
        R: Send,
        F: Fn(usize, &ShardCsr, &WorkerPool) -> R + Sync,
    {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .pools
                .iter()
                .enumerate()
                .map(|(s, pool)| {
                    let shard = self.sharded.shard(s);
                    scope.spawn(move || timed(tracing, || f(s, shard, pool)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard driver panicked")).collect()
        })
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.sharded.num_shards()
    }

    /// Fraction of arcs whose endpoints live on different shards.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_arcs == 0 {
            0.0
        } else {
            self.cut_arcs as f64 / self.total_arcs as f64
        }
    }

    /// The placement strategy actually used.
    #[inline]
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The layout summary reported through [`LoadedGraph::shard_layout`].
    pub fn layout(&self) -> ShardLayout {
        ShardLayout { shards: self.num_shards(), cut_fraction: self.cut_fraction() }
    }

    /// Resident bytes: the pinned parent CSR plus the shard copies.
    pub fn resident_bytes(&self) -> u64 {
        self.csr().resident_bytes() + self.sharded.resident_bytes()
    }
}

/// Upload through the sharded path when `shards > 1` (placement from the
/// engine's profile), through the plain path otherwise — the harness's
/// single entry point for shard-aware uploads.
pub fn upload_with_shards(
    platform: &dyn Platform,
    csr: Arc<Csr>,
    shards: u32,
    seed: u64,
    pool: &WorkerPool,
) -> Result<Box<dyn LoadedGraph>> {
    if shards <= 1 {
        return platform.upload(csr, pool);
    }
    let plan = ShardPlan {
        shards,
        threads_per_shard: 0,
        strategy: platform.profile().partition,
        seed,
    };
    platform.upload_sharded(csr, &plan, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::GraphBuilder;

    fn csr() -> Arc<Csr> {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(64);
        for v in 0..64u64 {
            b.add_edge(v, (v + 1) % 64);
            b.add_edge(v, (v + 7) % 64);
        }
        Arc::new(b.build().unwrap().to_csr())
    }

    #[test]
    fn build_splits_pools_and_reports_cut() {
        let pool = WorkerPool::new(4);
        let set = ShardSet::build(csr(), &ShardPlan::new(2), &pool).unwrap();
        assert_eq!(set.num_shards(), 2);
        assert_eq!(set.pools().len(), 2);
        assert_eq!(set.pools()[0].threads(), 2, "4 caller threads over 2 shards");
        let f = set.cut_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.0, "hash placement must cut something on a ring");
        assert_eq!(set.layout(), ShardLayout { shards: 2, cut_fraction: f });
        assert!(set.resident_bytes() > set.csr().resident_bytes());
        // The fan-out hands each driver its own shard and pool and
        // returns in shard order; untraced runs report zero seconds.
        let seen = set.run_shards(false, |s, shard, pool| (s, shard.len(), pool.threads()));
        let lens: Vec<usize> = set.sharded().shards().iter().map(|sh| sh.len()).collect();
        assert_eq!(seen, vec![(0.0, (0, lens[0], 2)), (0.0, (1, lens[1], 2))]);
    }

    #[test]
    fn greedy_strategy_shards_with_real_placement() {
        let pool = WorkerPool::inline();
        let plan = ShardPlan {
            strategy: PartitionStrategy::GreedyVertexCut,
            ..ShardPlan::new(2)
        };
        let set = ShardSet::build(csr(), &plan, &pool).unwrap();
        // No hash fallback anymore: the greedy placement shards directly.
        assert_eq!(set.strategy(), PartitionStrategy::GreedyVertexCut);
        assert_eq!(set.num_shards(), 2);
    }

    #[test]
    fn single_shard_pool_keeps_at_least_one_thread() {
        let pool = WorkerPool::new(2);
        let set = ShardSet::build(csr(), &ShardPlan::new(4), &pool).unwrap();
        assert!(set.pools().iter().all(|p| p.threads() == 1));
    }
}
