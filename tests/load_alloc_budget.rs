//! A cold load allocates what it keeps (CI gate).
//!
//! The upload path — `read_graph_with`, `Graph::to_csr_with` and the
//! dataflow engine's upload (the one engine whose upload copies the
//! arcs) — streams each file through one block buffer, writes parsed
//! edges straight into the builder's edge list, scatters the CSR from
//! the edge list without an endpoint copy, and fills the edge datasets
//! in place. This binary wraps the system allocator in a counter (every
//! `alloc`, `alloc_zeroed` and `realloc`, and the bytes each asks for:
//! the layout's size, or `realloc`'s new size) and, for a weighted
//! undirected Graph500 file and a directed unweighted R-MAT file
//! (scale 15, edge factor 16, as the benchmark's `load_cold` reads
//! them), on a pool two wide, asserts
//!
//! ```text
//! bytes asked for <= kept + n · 8 · threads + edge list / 6 + 8 · 256 KiB
//! ```
//!
//! where *kept* is what the results hold: the graph's vertex and edge
//! lists (8 bytes a vertex, 24 an edge), the CSR's `resident_bytes` and
//! 16 bytes per cached dataset arc. The rest is the load's own:
//!
//! * the CSR build's per-worker degree cursors, 4 bytes a vertex per
//!   direction;
//! * the edge list's unused capacity: after the first block the reader
//!   reserves the rest of the file at the edges kept per byte so far,
//!   and ids ascend through these files, so the first block's lines are
//!   the shortest and the list is 7 % (Graph500) and 13 % (R-MAT)
//!   larger than its edges;
//! * the first block's own slots, reserved before any density is
//!   known: 24 bytes a line, 0.2 MB (Graph500) and 0.6 MB (R-MAT);
//! * one 256 KiB read buffer per file.
//!
//! The parse's temporaries before — the whole edge file as a `String`,
//! a `Vec<Edge>` per chunk and the CSR build's 16-byte endpoint copy of
//! every edge — were about 31 MB on the Graph500 file.
//!
//! The file holds one `#[test]`: libtest runs tests on parallel threads,
//! and they would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphalytics::core::graph::{read_graph_with, write_edge_file, write_vertex_file};
use graphalytics::graph500::RmatConfig;
use graphalytics::prelude::*;

/// `System`, counting the bytes of every request that can hand out a
/// new block.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes beyond what the results keep that do not grow with the graph:
/// eight 256 KiB blocks (the read buffers and the first block's slots).
const CONSTANT: u64 = 8 << 18;

#[test]
fn a_cold_load_allocates_what_it_keeps() {
    let pool = WorkerPool::new(2);
    let dir = std::env::temp_dir().join(format!("galy-loadalloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g500 = Graph500Config::new(15).with_edge_factor(16).with_weights(true).generate_with(&pool);
    let rmat = RmatConfig {
        scale: 15,
        edge_factor: 16,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed: 1,
        directed: true,
        weighted: false,
        keep_isolated: false,
    }
    .generate_with(&pool);
    let dataflow = platform_by_name("dataflow").unwrap();
    let mut over_budget = Vec::new();
    for (name, written) in [("g500-15w", g500), ("rmat-15d", rmat)] {
        let (vp, ep) = (dir.join(format!("{name}.v")), dir.join(format!("{name}.e")));
        write_vertex_file(&written, &vp).unwrap();
        write_edge_file(&written, &ep).unwrap();
        let (directed, weighted) = (written.is_directed(), written.is_weighted());
        drop(written);

        let before = BYTES.load(Ordering::Relaxed);
        let graph = read_graph_with(&vp, &ep, directed, weighted, &pool).unwrap();
        let csr = Arc::new(graph.to_csr_with(&pool).unwrap());
        let loaded = dataflow.upload(csr.clone(), &pool).unwrap();
        let bytes = BYTES.load(Ordering::Relaxed) - before;

        let graph_bytes = (8 * graph.vertex_count() + 24 * graph.edge_count()) as u64;
        let kept = graph_bytes + loaded.resident_bytes();
        let cursors = 8 * csr.num_vertices() as u64 * u64::from(pool.threads());
        let budget = kept + cursors + 24 * graph.edge_count() as u64 / 6 + CONSTANT;
        let cell = format!(
            "{name}: {bytes} bytes asked for, {kept} kept (graph {graph_bytes}, CSR {}, \
             datasets {}), {} over; budget {budget}",
            csr.resident_bytes(),
            loaded.resident_bytes() - csr.resident_bytes(),
            bytes as i64 - kept as i64,
        );
        println!("{cell}");
        if bytes > budget {
            over_budget.push(cell);
        }
        dataflow.delete(loaded);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(over_budget.is_empty(), "over budget:\n{}", over_budget.join("\n"));
}
