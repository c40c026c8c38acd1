//! Sharded execution: a shard is a *lane assignment*, not a runtime.
//!
//! An engine's kernels do not know whether an upload is sharded. They
//! are written once against [`Lanes`] — which ascending list of owned
//! vertices each worker walks, and which owner map prices the cut — and
//! the monolithic upload is the one-group instance: contiguous ranges of
//! `0..n`, no owner map. A [`ShardSet`] (built by
//! [`Platform::upload_sharded`] from one of the `cluster` crate's
//! edge-cut placements) supplies the `N`-group instance: the ascending
//! list of vertices each shard owns, all reading adjacency from the one
//! parent CSR by global id. Either way every lane runs on the caller's
//! one [`WorkerPool`]: a shard owns no threads.
//!
//! The contract: output bit-identical to the monolithic upload for every
//! algorithm and every shard count (`tests/sharded_equivalence.rs`), and
//! every base work counter too (`tests/shard_lanes.rs`). Push–pull WCC
//! and SSSP relax in place, so they run no lanes: one caller-thread
//! kernel on every upload, reading only the owner map. Everything else
//! holds because of one **delivery-order argument**: every lane walks
//! its vertices in ascending global id, and a group's workers take
//! contiguous slices of the group's ascending list (any contiguous split
//! of an ascending list keeps it ascending), so whatever a group
//! produces comes out ascending in the producing vertex. With one group
//! that is already the global order. With `k` groups the barrier either
//! needs no order at all (a pull kernel writes only slots its lane owns;
//! a min-reduction is order-free) or recovers the global order by a
//! `k`-way merge of the groups' streams on the producing vertex — each
//! vertex has exactly one owner, so the merge has no ties and never
//! compares anything else. Pregel merges per-sender run slices, not
//! messages. Nothing is sorted.
//!
//! Messages whose sender and target have different owners are the
//! traffic a real deployment would put on the wire; a lane counts them
//! as they are produced ([`Lane::crossing`]) into
//! `WorkCounters::inter_shard_messages` / `inter_shard_bytes`, while the
//! base counters keep their monolithic values.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use graphalytics_cluster::partition::{edge_cut_seeded, PartitionStrategy};
use graphalytics_cluster::PerfProfile;
use graphalytics_core::error::{Error, Result};
use graphalytics_core::pool::{split_ranges, SharedSlice, WorkerPool};
use graphalytics_core::{Csr, ShardedCsr};

use crate::platform::{LoadedGraph, Platform};
use crate::trace::SpanRecord;

/// How to shard an upload: shard count and placement. Each shard's
/// lanes are an even share of the caller's pool width (at least one).
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Number of shards (1 = monolithic upload).
    pub shards: u32,
    /// Vertex-placement strategy (vertex cuts fall back to hashing —
    /// sharded execution owns vertices, not edges).
    pub strategy: PartitionStrategy,
    /// Placement seed for the hash strategy (see
    /// [`edge_cut_seeded`]).
    pub seed: u64,
}

impl ShardPlan {
    /// A plan with hash placement and seed 0.
    pub fn new(shards: u32) -> Self {
        ShardPlan { shards, strategy: PartitionStrategy::HashEdgeCut, seed: 0 }
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

/// The sharded half of an uploaded representation: the owner map and
/// per-shard vertex lists over the parent CSR, and the partition
/// statistics of the cut that produced them.
pub struct ShardSet {
    sharded: ShardedCsr,
    cut_arcs: u64,
    total_arcs: u64,
    strategy: PartitionStrategy,
}

impl ShardSet {
    /// Partitions `csr` per `plan`.
    pub fn build(csr: Arc<Csr>, plan: &ShardPlan) -> Result<ShardSet> {
        let parts = plan.shards.max(1);
        let partition = edge_cut_seeded(&csr, parts, plan.strategy, plan.seed);
        let sharded = ShardedCsr::partition(csr, &partition.owner, parts)?;
        Ok(ShardSet {
            sharded,
            cut_arcs: partition.cut_arcs,
            total_arcs: partition.total_arcs,
            strategy: plan.strategy,
        })
    }

    /// The owner map and shard lists.
    #[inline]
    pub fn sharded(&self) -> &ShardedCsr {
        &self.sharded
    }

    /// The parent (global) CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        self.sharded.csr().as_ref()
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

    /// Resident bytes: the pinned parent CSR plus the owner map and
    /// shard lists.
    pub fn resident_bytes(&self) -> u64 {
        self.csr().resident_bytes() + self.sharded.resident_bytes()
    }
}

/// The vertices one lane (or one whole group) walks, ascending.
enum Walk<'a> {
    Range(Range<usize>),
    List(&'a [u32]),
}

impl<'a> Walk<'a> {
    fn len(&self) -> usize {
        match self {
            Walk::Range(r) => r.len(),
            Walk::List(l) => l.len(),
        }
    }

    fn slice(&self, part: Range<usize>) -> Walk<'a> {
        match self {
            Walk::Range(r) => Walk::Range(r.start + part.start..r.start + part.end),
            Walk::List(l) => Walk::List(&l[part]),
        }
    }
}

/// One worker's share of a superstep: the ascending vertices it walks
/// and, on a sharded upload, the owner map that prices what it sends.
pub struct Lane<'a> {
    walk: Walk<'a>,
    shard: u32,
    owner: Option<&'a [u32]>,
}

impl<'a> Lane<'a> {
    /// Calls `f` for every vertex of the lane, in ascending order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        match &self.walk {
            Walk::Range(r) => r.clone().for_each(|v| f(v as u32)),
            Walk::List(l) => l.iter().for_each(|&v| f(v)),
        }
    }

    /// The shard this lane's vertices belong to (0 on a monolithic
    /// upload).
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// How many of `targets` another shard owns.
    #[inline]
    pub fn crossing(&self, targets: &[u32]) -> u64 {
        self.owner.map_or(0, |owner| {
            targets.iter().filter(|&&v| owner[v as usize] != self.shard).count() as u64
        })
    }
}

/// What one group hands back from [`Lanes::run`]: its compute seconds
/// (the sum of its lanes' seconds, measured only when tracing a sharded
/// upload) and its lanes' results in lane order.
pub type GroupOut<R> = (f64, Vec<R>);

/// The lane assignment of one run: groups of lanes, each group an
/// ascending vertex list its lanes split between them, all on one pool.
/// See the module docs.
pub struct Lanes<'a> {
    pool: &'a WorkerPool,
    /// Owned vertices per group.
    groups: Vec<Walk<'a>>,
    owner: Option<&'a [u32]>,
}

impl<'a> Lanes<'a> {
    /// The lanes of an upload of `n` vertices on the caller's `pool`:
    /// one group per shard of its shard set when it has one, else one
    /// group — all of `0..n`.
    pub fn new(n: usize, pool: &'a WorkerPool, shards: Option<&'a ShardSet>) -> Lanes<'a> {
        match shards {
            None => Lanes { pool, groups: vec![Walk::Range(0..n)], owner: None },
            Some(set) => Lanes {
                pool,
                groups: (0..set.num_shards() as usize)
                    .map(|s| Walk::List(set.sharded.shard(s)))
                    .collect(),
                owner: Some(set.sharded.owner()),
            },
        }
    }

    /// The owner map that prices the cut; `None` on a monolithic upload,
    /// where nothing crosses.
    #[inline]
    pub fn owner(&self) -> Option<&'a [u32]> {
        self.owner
    }

    /// The caller's pool every lane runs on.
    #[inline]
    pub fn pool(&self) -> &'a WorkerPool {
        self.pool
    }

    /// Whether the upload is sharded (supersteps then report per-shard
    /// spans).
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.owner.is_some()
    }

    /// One superstep's compute phase over every vertex: `f` runs on
    /// contiguous slices of each group's ascending vertex list, all
    /// groups in one pool run. Returns once every lane is done, results
    /// in group order.
    pub fn run<R, F>(&self, tracing: bool, f: F) -> Vec<GroupOut<R>>
    where
        R: Send,
        F: Fn(&Lane<'_>) -> R + Sync,
    {
        self.run_walks(tracing, f, &self.groups)
    }

    /// As [`Lanes::run`], handing every lane its own state: lane `i` (in
    /// group order) gets `states[i]`, made on first use. A caller that
    /// keeps `states` across supersteps keeps each lane's buffers. Returns
    /// each group's seconds and its lanes' range in `states`.
    pub fn run_with<S, F>(
        &self,
        tracing: bool,
        states: &mut Vec<S>,
        f: F,
    ) -> Vec<(f64, Range<usize>)>
    where
        S: Default + Send,
        F: Fn(&Lane<'_>, &mut S) + Sync,
    {
        self.run_states(tracing, &self.groups, states, f)
    }

    /// As [`Lanes::run`], over `members` only: each group walks the
    /// members it owns, in `members` order.
    pub fn run_over<R, F>(&self, tracing: bool, members: &[u32], f: F) -> Vec<GroupOut<R>>
    where
        R: Send,
        F: Fn(&Lane<'_>) -> R + Sync,
    {
        let Some(owner) = self.owner else {
            return self.run_walks(tracing, f, &[Walk::List(members)]);
        };
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.groups.len()];
        for &u in members {
            routed[owner[u as usize] as usize].push(u);
        }
        let walks: Vec<Walk<'_>> = routed.iter().map(|r| Walk::List(r)).collect();
        self.run_walks(tracing, f, &walks)
    }

    /// [`Lanes::run_states`] with each lane's result as its state,
    /// handed back per group.
    fn run_walks<R, F>(&self, tracing: bool, f: F, walks: &[Walk<'_>]) -> Vec<GroupOut<R>>
    where
        R: Send,
        F: Fn(&Lane<'_>) -> R + Sync,
    {
        let mut outs: Vec<Option<R>> = Vec::new();
        let groups = self.run_states(tracing, walks, &mut outs, |lane, out| *out = Some(f(lane)));
        let mut outs = outs.into_iter().map(|out| out.expect("every lane ran"));
        (groups.into_iter())
            .map(|(secs, lanes)| (secs, outs.by_ref().take(lanes.len()).collect()))
            .collect()
    }

    /// Splits each walk into `max(1, threads / walks)` contiguous lanes
    /// — on one walk exactly `pool.split(n)` — and runs the
    /// `(group, lane)` items, flattened in group order, in one pool run:
    /// with more items than threads a worker walks several in turn. Lane
    /// `i` works on `states[i]`, made on first use. Lanes report their
    /// seconds back rather than touch the caller's thread-local trace
    /// collector. Returns each group's seconds and its lanes' range in
    /// `states`.
    fn run_states<S, F>(
        &self,
        tracing: bool,
        walks: &[Walk<'_>],
        states: &mut Vec<S>,
        f: F,
    ) -> Vec<(f64, Range<usize>)>
    where
        S: Default + Send,
        F: Fn(&Lane<'_>, &mut S) + Sync,
    {
        let timing = tracing && self.is_sharded();
        let per_group = (self.pool.threads() / walks.len() as u32).max(1);
        let mut groups = Vec::with_capacity(walks.len());
        let mut items = Vec::new();
        for (s, walk) in walks.iter().enumerate() {
            let parts = split_ranges(per_group, walk.len());
            groups.push((0.0, items.len()..items.len() + parts.len()));
            items.extend(parts.into_iter().map(|part| Lane {
                walk: walk.slice(part),
                shard: s as u32,
                owner: self.owner,
            }));
        }
        states.resize_with(items.len(), S::default);
        let at = SharedSlice::new(states.as_mut_ptr());
        let secs = self.pool.run(items.len(), |_, range| {
            (range.clone().zip(&items[range]))
                .map(|(i, lane)| {
                    // SAFETY: each lane index is walked by exactly one
                    // worker.
                    let slot = unsafe { at.at(i) };
                    // The lane works on a local copy: neighbouring states
                    // share cache lines, and lanes write theirs all the
                    // time.
                    let mut state = std::mem::take(slot);
                    let t = timing.then(Instant::now);
                    f(lane, &mut state);
                    *slot = state;
                    t.map_or(0.0, |t| t.elapsed().as_secs_f64())
                })
                .collect::<Vec<_>>()
        });
        for (lane, secs) in items.iter().zip(secs.into_iter().flatten()) {
            groups[lane.shard as usize].0 += secs;
        }
        groups
    }

    /// What a sharded barrier adds to a superstep span: the groups'
    /// [`shard_span`]s as children plus the in-flight message count and
    /// the barrier's drain time. Monolithic spans pass through untouched
    /// (and `shards` is never evaluated).
    pub fn annotate(
        &self,
        mut span: SpanRecord,
        shards: impl IntoIterator<Item = SpanRecord>,
        queue_depth: usize,
        drain_secs: f64,
    ) -> SpanRecord {
        if !self.is_sharded() {
            return span;
        }
        for child in shards {
            span = span.with_child(child);
        }
        span.with_info("queue_depth", queue_depth)
            .with_info("drain_secs", format!("{drain_secs:.9}"))
    }
}

/// The `Shard` child span of group `s`: its lanes' summed compute
/// seconds this superstep.
pub fn shard_span(s: usize, secs: f64) -> SpanRecord {
    SpanRecord::new("Shard", secs).with_info("shard", s)
}

/// Upload through the sharded path when `shards > 1` (placement from the
/// engine's [`PerfProfile`]; an engine without one cannot be placed),
/// through the plain path otherwise — the harness's single entry point
/// for shard-aware uploads.
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
    let profile = PerfProfile::of(platform.name()).ok_or_else(|| {
        Error::InvalidParameters(format!("platform {} has no placement profile", platform.name()))
    })?;
    let plan = ShardPlan { shards, strategy: profile.partition, seed };
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
    fn build_splits_lanes_and_reports_cut() {
        let pool = WorkerPool::new(4);
        let set = ShardSet::build(csr(), &ShardPlan::new(2)).unwrap();
        assert_eq!(set.num_shards(), 2);
        let groups = Lanes::new(64, &pool, Some(&set)).run(false, |_| ());
        let lanes: Vec<usize> = groups.iter().map(|(_, workers)| workers.len()).collect();
        assert_eq!(lanes, [2, 2], "4 caller threads over 2 shards");
        let f = set.cut_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.0, "hash placement must cut something on a ring");
        assert_eq!(set.layout(), ShardLayout { shards: 2, cut_fraction: f });
        assert!(set.resident_bytes() > set.csr().resident_bytes());
    }

    /// What every lane walked, per group then per worker.
    fn walked(groups: Vec<GroupOut<(u32, Vec<u32>)>>) -> Vec<Vec<(u32, Vec<u32>)>> {
        groups.into_iter().map(|(_, workers)| workers).collect()
    }

    fn walk(lane: &Lane<'_>) -> (u32, Vec<u32>) {
        let mut seen = Vec::new();
        lane.for_each(|v| seen.push(v));
        (lane.shard(), seen)
    }

    #[test]
    fn monolithic_lanes_are_one_group_of_contiguous_ranges() {
        let pool = WorkerPool::new(4);
        let lanes = Lanes::new(64, &pool, None);
        assert!(!lanes.is_sharded());
        let groups = walked(lanes.run(true, walk));
        assert_eq!(groups.len(), 1);
        let expect: Vec<_> = pool
            .split(64)
            .into_iter()
            .map(|r| (0, (r.start as u32..r.end as u32).collect()))
            .collect();
        assert_eq!(groups[0], expect, "the pool's own contiguous ranges");
        // A member list is walked as given, and nothing crosses.
        let members = [9u32, 3, 40, 41];
        let groups =
            lanes.run_over(false, &members, |lane| (walk(lane).1, lane.crossing(&[1, 2, 3])));
        let (seen, crossing): (Vec<_>, Vec<_>) = groups.into_iter().flat_map(|(_, w)| w).unzip();
        assert_eq!(seen.concat(), members);
        assert_eq!(crossing.iter().sum::<u64>(), 0);
    }

    #[test]
    fn sharded_lanes_walk_owned_vertices_ascending_on_the_callers_pool() {
        let pool = WorkerPool::new(4);
        let set = ShardSet::build(csr(), &ShardPlan::new(2)).unwrap();
        let lanes = Lanes::new(64, &pool, Some(&set));
        let owner = lanes.owner().expect("sharded lanes carry the owner map");
        // Untraced runs report zero seconds; groups come back in shard
        // order, each group's lanes splitting its ascending list — all
        // in one run of the caller's pool.
        let before = pool.stats();
        let groups = lanes.run(false, walk);
        assert_eq!(pool.stats().runs, before.runs + 1);
        assert_eq!(pool.stats().dispatches, before.dispatches + 1);
        assert!(groups.iter().all(|(secs, _)| *secs == 0.0));
        for (s, workers) in walked(groups).into_iter().enumerate() {
            assert_eq!(workers.len(), 2, "two lanes per shard on a 4-wide pool");
            assert!(workers.iter().all(|(shard, _)| *shard == s as u32));
            let all: Vec<u32> = workers.into_iter().flat_map(|(_, seen)| seen).collect();
            assert_eq!(all, set.sharded().shard(s));
        }
        // Members are routed to their owners, order kept; a lane prices
        // the targets other shards own.
        let members = [9u32, 3, 40, 41, 2];
        let groups = lanes.run_over(true, &members, |lane| (walk(lane), lane.crossing(&members)));
        for (s, (_, workers)) in groups.into_iter().enumerate() {
            let routed: Vec<u32> =
                members.iter().copied().filter(|&v| owner[v as usize] == s as u32).collect();
            let seen: Vec<u32> = workers.iter().flat_map(|((_, seen), _)| seen.clone()).collect();
            assert_eq!(seen, routed);
            let elsewhere = (members.len() - routed.len()) as u64;
            assert!(workers.iter().all(|(_, crossing)| *crossing == elsewhere));
        }
    }

    #[test]
    fn greedy_strategy_shards_with_real_placement() {
        let plan = ShardPlan { strategy: PartitionStrategy::GreedyVertexCut, ..ShardPlan::new(2) };
        let set = ShardSet::build(csr(), &plan).unwrap();
        // No hash fallback anymore: the greedy placement shards directly.
        assert_eq!(set.strategy(), PartitionStrategy::GreedyVertexCut);
        assert_eq!(set.num_shards(), 2);
    }

    #[test]
    fn every_shard_keeps_at_least_one_lane() {
        let pool = WorkerPool::new(2);
        let set = ShardSet::build(csr(), &ShardPlan::new(4)).unwrap();
        // Four shards on two threads: one lane each, all four in one
        // pool run (each worker walks two in turn).
        let groups = walked(Lanes::new(64, &pool, Some(&set)).run(false, walk));
        assert_eq!(pool.stats().runs, 1);
        for (s, workers) in groups.into_iter().enumerate() {
            assert_eq!(workers, [(s as u32, set.sharded().shard(s).to_vec())]);
        }
    }

    #[test]
    fn a_lane_panic_reaches_the_caller_with_its_payload() {
        let pool = WorkerPool::new(2);
        let set = ShardSet::build(csr(), &ShardPlan::new(2)).unwrap();
        let lanes = Lanes::new(64, &pool, Some(&set));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lanes.run(false, |lane| {
                if lane.shard() == 1 {
                    panic!("lane of shard 1 failed");
                }
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"lane of shard 1 failed"));
    }
}
