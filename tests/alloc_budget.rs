//! A warm run allocates per run, not per superstep (CI gate).
//!
//! Pregel delivery groups each superstep's messages by target into one
//! `offsets`/`values` layout that the next superstep refills, a Pregel
//! run keeps one compute context per lane across supersteps, dataflow
//! keeps its scan buffers, slot table, grouping and vertex datasets
//! across rounds, and the pull PageRanks of push–pull and native turn
//! ranks into per-vertex shares in place. So the heap traffic of a run
//! on a resident upload scales with supersteps and lanes in count, and
//! with one run's buffers, not with supersteps, in bytes. This binary
//! wraps the system allocator in a counter (every `alloc`, `alloc_zeroed`
//! and `realloc`, and the bytes each one asks for: the layout's size, or
//! `realloc`'s new size) and, on one warm upload of a Graph500 proxy
//! with `n >= 12 000` (pool width 2, tracing off), for
//!
//! * Pregel BFS / PageRank / WCC / CDLP / SSSP, monolithic and at two
//!   shards,
//! * dataflow BFS / PageRank / WCC / CDLP / SSSP,
//! * push–pull PageRank, monolithic and at two shards,
//! * native PageRank, monolithic,
//!
//! asserts
//!
//! ```text
//! allocations per run <= 128 · supersteps · lanes
//! bytes per run       <= 8 · csr.resident_bytes()
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

/// `System`, counting every request that can hand out a new block and
/// the bytes it asks for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a run may make per superstep per lane.
const PER_SUPERSTEP_LANE: u64 = 128;

/// Bytes a run may ask for, in units of the CSR's resident bytes.
const PER_RESIDENT_BYTE: u64 = 8;

#[test]
fn a_warm_pregel_run_allocates_per_superstep_not_per_vertex() {
    let pool = WorkerPool::new(2);
    let graph = Graph500Config::new(14).with_weights(true).generate_with(&pool);
    let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
    let n = csr.num_vertices();
    assert!(n >= 12_000, "the proxy must be large enough to tell per-vertex costs: n = {n}");
    let resident = csr.resident_bytes();
    let byte_budget = PER_RESIDENT_BYTE * resident;
    let params = AlgorithmParams::with_source(SourceSelection::MaxOutDegree.resolve(&csr).unwrap());
    // Every layout runs one lane per pool thread: a monolithic upload
    // splits 0..n two ways, each of two shards takes one thread, and a
    // dataflow round scans its partitions two ways.
    let lanes = pool.threads() as u64;
    let five: &[Algorithm] =
        &[Algorithm::Bfs, Algorithm::PageRank, Algorithm::Wcc, Algorithm::Cdlp, Algorithm::Sssp];
    let pagerank: &[Algorithm] = &[Algorithm::PageRank];
    let cells = [
        ("pregel", 1u32, five),
        ("pregel", 2, five),
        ("dataflow", 1, five),
        ("pushpull", 1, pagerank),
        ("pushpull", 2, pagerank),
        ("native", 1, pagerank),
    ];
    let mut over_budget = Vec::new();
    for (engine, shards, algorithms) in cells {
        let platform = platform_by_name(engine).unwrap();
        let loaded = platform.upload_sharded(csr.clone(), &ShardPlan::new(shards), &pool).unwrap();
        for &algorithm in algorithms {
            let mut ctx = RunContext::new(&pool);
            ctx.set_tracing(false);
            platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            let (before, bytes_before) =
                (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            let run = platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
            let supersteps = run.counters.supersteps;
            let budget = PER_SUPERSTEP_LANE * supersteps * lanes;
            let cell = format!(
                "{engine} {algorithm} at {shards} shard(s): {allocations} allocations over \
                 {supersteps} supersteps x {lanes} lanes ({:.1} per superstep-lane, \
                 {:.2} per vertex), budget {budget}; {bytes} bytes ({:.2} x the CSR's \
                 {resident} resident bytes), budget {byte_budget}",
                allocations as f64 / (supersteps * lanes) as f64,
                allocations as f64 / n as f64,
                bytes as f64 / resident as f64,
            );
            println!("{cell}");
            if allocations > budget || bytes > byte_budget {
                over_budget.push(cell);
            }
        }
        platform.delete(loaded);
    }
    assert!(over_budget.is_empty(), "over budget:\n{}", over_budget.join("\n"));
}
