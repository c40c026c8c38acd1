//! A warm Pregel run allocates per superstep, not per vertex (CI gate).
//!
//! Pregel delivery groups each superstep's messages by target into one
//! `offsets`/`values` layout that the next superstep refills, so the heap
//! traffic of a run on a resident upload scales with supersteps and
//! lanes, not with `|V|`. This binary wraps the system allocator in a
//! counter (every `alloc`, `alloc_zeroed` and `realloc`) and, for Pregel
//! BFS / PageRank / WCC / CDLP / SSSP on a warm upload of a Graph500
//! proxy with `n >= 12 000` (monolithic and two shards, pool width 2,
//! tracing off), asserts
//!
//! ```text
//! allocations per run <= 128 · supersteps · lanes
//! ```
//!
//! LCC is exempt: its superstep 0 ships every vertex's neighbour list as
//! one shared allocation per sender. That list is the §4.2 payload the
//! paper's message-buffering platforms fail on, and what
//! `cluster::estimate` models, so its count grows with `|V|` by design.
//!
//! The file holds one `#[test]`: libtest runs tests on parallel threads,
//! and they would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphalytics::engines::ShardPlan;
use graphalytics::prelude::*;

/// `System`, counting every request that can hand out a new block.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a run may make per superstep per lane.
const PER_SUPERSTEP_LANE: u64 = 128;

#[test]
fn a_warm_pregel_run_allocates_per_superstep_not_per_vertex() {
    let pool = WorkerPool::new(2);
    let graph = Graph500Config::new(14).with_weights(true).generate_with(&pool);
    let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
    let n = csr.num_vertices();
    assert!(n >= 12_000, "the proxy must be large enough to tell per-vertex costs: n = {n}");
    let params =
        AlgorithmParams::with_source(SourceSelection::MaxOutDegree.resolve(&csr).unwrap());
    let platform = platform_by_name("pregel").unwrap();
    // Both layouts run one lane per pool thread: the monolithic upload
    // splits 0..n two ways, each of two shards takes one thread.
    let lanes = pool.threads() as u64;
    let algorithms =
        [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Wcc, Algorithm::Cdlp, Algorithm::Sssp];
    let mut over_budget = Vec::new();
    for shards in [1u32, 2] {
        let loaded = platform.upload_sharded(csr.clone(), &ShardPlan::new(shards), &pool).unwrap();
        for algorithm in algorithms {
            let mut ctx = RunContext::new(&pool);
            ctx.set_tracing(false);
            platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let run = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let supersteps = run.counters.supersteps;
            let budget = PER_SUPERSTEP_LANE * supersteps * lanes;
            let cell = format!(
                "pregel {algorithm} at {shards} shard(s): {allocations} allocations over \
                 {supersteps} supersteps x {lanes} lanes ({:.1} per superstep-lane, \
                 {:.2} per vertex), budget {budget}",
                allocations as f64 / (supersteps * lanes) as f64,
                allocations as f64 / n as f64,
            );
            println!("{cell}");
            if allocations > budget {
                over_budget.push(cell);
            }
        }
        platform.delete(loaded);
    }
    assert!(over_budget.is_empty(), "over budget:\n{}", over_budget.join("\n"));
}
