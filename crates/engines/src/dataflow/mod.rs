//! The dataflow engine: RDD-style partitioned datasets (GraphX-like).
//!
//! "Apache GraphX is an extension of Apache Spark ... with graphs based on
//! Spark's Resilient Distributed Datasets" (Section 3.1). The engine
//! reproduces the GraphX execution style:
//!
//! * a graph is a pair of immutable partitioned datasets —
//!   vertices `(id, value)` and edges `(src, dst, weight)`;
//! * each iteration of the Pregel-on-joins loop ([`pregel_loop`]) *ships*
//!   vertex values to edge partitions, *scans the entire edge dataset* to
//!   produce messages, *shuffles* messages by target, and *materializes a
//!   brand-new vertex dataset* via a join;
//! * nothing is updated in place — every iteration allocates fresh
//!   datasets, the record-at-a-time overhead and dataset churn that make
//!   GraphX two orders of magnitude slower than GraphMat/PGX.D in
//!   Figure 4.
//!
//! Messages reduce through a combiner when the algorithm has one
//! (BFS/WCC/SSSP: min; PR: sum). CDLP has no combiner — its label
//! multisets are materialized per vertex by a grouping shuffle, the memory
//! spike that makes GraphX the only platform unable to finish CDLP even on
//! R4(S) in the paper's Figure 6.
//!
//! # The shuffle is a stable grouping
//!
//! Every keyed operator consumes a *record stream*: the per-worker scan
//! chunks as `pool.run` returns them, chunks in order, each chunk in
//! order. Workers scan contiguous runs of partitions and partitions are
//! contiguous runs of the CSR-ordered arc list, so the stream is that
//! arc list's order whatever the partition count or pool width.
//!
//! A Spark-style shuffle of the stream — stable-sort by key and combine
//! map-side, hash-partition, stable-sort and reduce each partition, sort
//! the result by key — moves records only by stable sorts and by an
//! order-preserving split in which no key straddles two partitions. Each
//! key's records therefore meet the combiner in stream order and the
//! result leaves ascending by key: bit for bit, that is a *stable
//! grouping of the stream by key*, and the partition count can reach
//! neither an output nor a counter. Keys are dense vertex indices
//! `0..n`, so the grouping needs no sort and no hash:
//! [`reduce_by_key`] folds each key's records, in stream order, into a
//! direct-addressed slot table as they pass (the group is consumed as it
//! forms and never stored); [`group_by_key`], the one place a grouping is
//! materialised, calls [`Grouped::regroup`], the same counting pass and
//! stable fill that builds the Pregel inbox. What the model charges is
//! untouched: one shuffled record per distinct key where a combiner
//! exists, every record where none does.

mod algorithms;

use std::sync::Arc;

use graphalytics_core::algorithms::Request;
use graphalytics_core::error::Result;
use graphalytics_core::output::OutputValues;
use graphalytics_core::Csr;

use graphalytics_cluster::WorkCounters;

use crate::common::pool::WorkerPool;
use crate::common::Grouped;
use crate::platform::{downcast_graph, LoadedGraph, Platform};

pub use algorithms::{edge_dataset, pregel_loop};

/// A partitioned, immutable dataset (mini-RDD).
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Dataset<T> {
    /// Partitions the exactly `len` records `data` yields into `parts`
    /// contiguous chunks; only the partition vectors are allocated.
    pub fn from_exact(len: usize, mut data: impl Iterator<Item = T>, parts: usize) -> Self {
        let parts = parts.max(1);
        let chunk = len.div_ceil(parts).max(1);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut part = Vec::with_capacity(chunk.min(len.saturating_sub(p * chunk)));
            part.extend(data.by_ref().take(chunk));
            out.push(part);
        }
        assert!(data.next().is_none(), "more than the announced {len} records");
        Dataset { parts: out }
    }

    /// Total record count.
    pub fn count(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Iterates over partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.parts
    }
}

/// Shuffles and reduces by key with a combiner (map-side combine first,
/// like Spark's `reduceByKey`, so one record per distinct key crosses the
/// shuffle and is charged to `counters`). `chunks` is the record stream
/// over keys `0..n` (see the module doc): each key's records fold left to
/// right in stream order. Returns `(key, reduced)` ascending by key.
pub fn reduce_by_key<V>(
    chunks: Vec<Vec<(u32, V)>>,
    n: usize,
    bytes_per_record: u64,
    counters: &mut WorkCounters,
    combine: impl Fn(V, V) -> V,
) -> Vec<(u32, V)> {
    let mut slots: Vec<Option<V>> = (0..n).map(|_| None).collect();
    for (k, v) in chunks.into_iter().flatten() {
        let slot = &mut slots[k as usize];
        *slot = Some(match slot.take() {
            Some(acc) => combine(acc, v),
            None => v,
        });
    }
    let reduced: Vec<(u32, V)> =
        slots.into_iter().enumerate().filter_map(|(k, slot)| Some((k as u32, slot?))).collect();
    counters.add_messages(reduced.len() as u64, bytes_per_record);
    reduced
}

/// Groups values by key **without a combiner** (Spark's `groupByKey`):
/// every record of the stream `chunks` over keys `0..n` crosses the
/// shuffle, is charged to `counters`, and the full multiset is
/// materialized per key ([`Grouped::regroup`]). This is the CDLP path.
pub fn group_by_key<V: Clone + Default>(
    chunks: Vec<Vec<(u32, V)>>,
    n: usize,
    bytes_per_record: u64,
    counters: &mut WorkCounters,
) -> Grouped<V> {
    counters.add_messages(chunks.iter().map(Vec::len).sum::<usize>() as u64, bytes_per_record);
    let mut grouped = Grouped::default();
    grouped.regroup(n, chunks.iter().map(Vec::as_slice));
    grouped
}

/// The uploaded representation: the GraphX property-graph pair. The
/// upload phase materializes the *immutable, partitioned edge datasets*
/// once — the out-direction dataset (BFS/SSSP/PageRank) and the
/// both-direction dataset (WCC/CDLP) — so iterations ship vertex views
/// against pre-partitioned edge RDDs instead of rebuilding them per
/// algorithm call, exactly like GraphX caching its `EdgeRDD`.
pub struct DataflowGraph {
    csr: Arc<Csr>,
    /// `(src, dst, weight)` arcs partitioned by source, out-direction.
    edges_out: Dataset<(u32, u32, f64)>,
    /// Same arcs with the reverse orientation added, for algorithms that
    /// diffuse over both directions. `None` for undirected graphs, whose
    /// out-rows already contain both orientations — the out dataset is
    /// served instead of storing a byte-identical copy.
    edges_both: Option<Dataset<(u32, u32, f64)>>,
}

impl DataflowGraph {
    /// The cached out-direction edge dataset.
    pub fn edges_out(&self) -> &Dataset<(u32, u32, f64)> {
        &self.edges_out
    }

    /// The cached both-direction edge dataset (aliases the out dataset
    /// for undirected graphs).
    pub fn edges_both(&self) -> &Dataset<(u32, u32, f64)> {
        self.edges_both.as_ref().unwrap_or(&self.edges_out)
    }
}

impl LoadedGraph for DataflowGraph {
    fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> u64 {
        // Each cached arc record is (u32, u32, f64) = 16 bytes.
        let cached_arcs =
            self.edges_out.count() + self.edges_both.as_ref().map_or(0, Dataset::count);
        self.csr.resident_bytes() + 16 * cached_arcs as u64
    }
}

/// The GraphX-like platform.
pub struct DataflowEngine;

impl Platform for DataflowEngine {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        let parts = (pool.threads() as usize) * 2; // Spark-style over-partitioning
        let edges_out = edge_dataset(&csr, parts, false);
        // Undirected out-rows already carry both orientations; only
        // directed graphs need the reverse-augmented dataset.
        let edges_both =
            csr.is_directed().then(|| edge_dataset(&csr, parts, true));
        Ok(Box::new(DataflowGraph { csr, edges_out, edges_both }))
    }

    fn execute(
        &self,
        graph: &dyn LoadedGraph,
        request: Request,
        pool: &WorkerPool,
        c: &mut WorkCounters,
    ) -> Result<OutputValues> {
        let g = downcast_graph::<DataflowGraph>(self.name(), graph)?;
        Ok(match request {
            Request::Bfs { root } => OutputValues::I64(algorithms::bfs(g, root, pool, c)),
            Request::PageRank { iterations, damping } => {
                OutputValues::F64(algorithms::pagerank(g, iterations, damping, pool, c))
            }
            Request::Wcc => OutputValues::Id(algorithms::wcc(g, pool, c)),
            Request::Cdlp { iterations } => {
                OutputValues::Id(algorithms::cdlp(g, iterations, pool, c))
            }
            Request::Lcc => OutputValues::F64(algorithms::lcc(g.csr(), pool, c)),
            Request::Sssp { root } => OutputValues::F64(algorithms::sssp(g, root, pool, c)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_partitioning() {
        let d = Dataset::from_exact(10, 0..10, 3);
        assert_eq!(d.partitions().len(), 3);
        assert_eq!(d.count(), 10);
        assert_eq!(d.partitions().concat(), (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn reduce_by_key_combines() {
        let mut c = WorkCounters::new();
        let chunks = vec![vec![(1u32, 5i64), (2, 1)], vec![(1, 3), (2, 2)]];
        let reduced = reduce_by_key(chunks, 4, 8, &mut c, |a, b| a.min(b));
        assert_eq!(reduced, vec![(1, 3), (2, 1)]);
        // Map-side combine: only 2 records cross the shuffle.
        assert_eq!(c.messages, 2);
    }

    #[test]
    fn group_by_key_ships_everything() {
        let mut c = WorkCounters::new();
        let chunks = vec![vec![(1u32, 5u64), (2, 1), (1, 3)], vec![(1, 5)]];
        let mut grouped = group_by_key(chunks, 3, 8, &mut c);
        assert_eq!(c.messages, 4, "no combiner: every record shuffles");
        assert_eq!(grouped.group(1), [5, 3, 5], "stream order");
        assert_eq!((grouped.group(0), grouped.group(2)), (&[][..], &[1][..]));
        grouped.sort_dedup();
        assert_eq!((grouped.group(0), grouped.group(2)), (&[][..], &[1][..]));
        assert_eq!(grouped.group(1), [3, 5], "a sorted set, compacted in place");
    }
}
