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

mod algorithms;

use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::error::Result;
use graphalytics_core::output::{AlgorithmOutput, OutputValues};
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::{Algorithm, Csr};

use graphalytics_cluster::WorkCounters;

use crate::common::pool::WorkerPool;
use crate::platform::{downcast_graph, Execution, LoadedGraph, Platform, RunContext};
use crate::profile::PerfProfile;

pub use algorithms::{edge_dataset, pregel_loop};

/// A partitioned, immutable dataset (mini-RDD).
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Dataset<T> {
    /// Partitions `data` into `parts` chunks (contiguous split).
    pub fn from_vec(data: Vec<T>, parts: usize) -> Self {
        Dataset::from_exact(data.len(), data.into_iter(), parts)
    }

    /// [`Dataset::from_vec`] for the exactly `len` records `data` yields,
    /// without the flat vector: only the partition vectors are allocated.
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

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total record count.
    pub fn count(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Narrow transformation: per-record map, no shuffle.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Dataset<U> {
        Dataset { parts: self.parts.iter().map(|p| p.iter().map(&f).collect()).collect() }
    }

    /// Narrow transformation: per-record flat map.
    pub fn flat_map<U>(&self, f: impl Fn(&T) -> Vec<U>) -> Dataset<U> {
        Dataset {
            parts: self.parts.iter().map(|p| p.iter().flat_map(&f).collect()).collect(),
        }
    }

    /// Collects all records (partition order).
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.parts.iter().flatten().cloned().collect()
    }

    /// Iterates over partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.parts
    }
}

/// Hash-shuffles keyed records into `parts` partitions, charging the
/// shuffle to `counters` (`bytes_per_record` payload + wire overhead is
/// applied by the cost model later).
pub fn shuffle_by_key<K: Copy + Into<u64>, V>(
    records: Vec<(K, V)>,
    parts: usize,
    bytes_per_record: u64,
    counters: &mut WorkCounters,
) -> Dataset<(K, V)> {
    let parts = parts.max(1);
    counters.add_messages(records.len() as u64, bytes_per_record);
    let mut out: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
    for (k, v) in records {
        let h = splitmix(k.into());
        out[(h % parts as u64) as usize].push((k, v));
    }
    Dataset { parts: out }
}

/// Shuffles and reduces by key with a combiner (map-side combine first,
/// like Spark's `reduceByKey`). Returns `(key, reduced)` pairs sorted by
/// key for determinism.
pub fn reduce_by_key<K: Copy + Into<u64> + Ord, V: Clone>(
    records: Vec<(K, V)>,
    parts: usize,
    bytes_per_record: u64,
    counters: &mut WorkCounters,
    combine: impl Fn(V, V) -> V,
) -> Vec<(K, V)> {
    // Map-side combine (sort-based for determinism).
    let mut records = records;
    records.sort_by_key(|(k, _)| *k);
    let mut combined: Vec<(K, V)> = Vec::new();
    for (k, v) in records {
        match combined.last_mut() {
            Some((lk, lv)) if *lk == k => {
                *lv = combine(lv.clone(), v);
            }
            _ => combined.push((k, v)),
        }
    }
    // Shuffle the combined stream, then final reduce per partition.
    let shuffled = shuffle_by_key(combined, parts, bytes_per_record, counters);
    let mut out: Vec<(K, V)> = Vec::new();
    for part in shuffled.parts {
        let mut part = part;
        part.sort_by_key(|(k, _)| *k);
        for (k, v) in part {
            match out.last_mut() {
                Some((lk, lv)) if *lk == k => {
                    *lv = combine(lv.clone(), v);
                }
                _ => out.push((k, v)),
            }
        }
    }
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Groups values by key **without a combiner** (Spark's `groupByKey`):
/// every record crosses the shuffle and the full multiset is materialized
/// per key. This is the CDLP path.
pub fn group_by_key<K: Copy + Into<u64> + Ord, V: Clone>(
    records: Vec<(K, V)>,
    parts: usize,
    bytes_per_record: u64,
    counters: &mut WorkCounters,
) -> Vec<(K, Vec<V>)> {
    let shuffled = shuffle_by_key(records, parts, bytes_per_record, counters);
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for part in shuffled.parts {
        let mut part = part;
        part.sort_by_key(|(k, _)| *k);
        for (k, v) in part {
            match out.last_mut() {
                Some((lk, lv)) if *lk == k => lv.push(v),
                _ => out.push((k, vec![v])),
            }
        }
    }
    out.sort_by_key(|(k, _)| *k);
    out
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The uploaded representation: the GraphX property-graph pair. The
/// upload phase materializes the *immutable, partitioned edge datasets*
/// once — the out-direction dataset (BFS/SSSP/PageRank) and the
/// both-direction dataset (WCC/CDLP) — so iterations ship vertex views
/// against pre-partitioned edge RDDs instead of rebuilding them per
/// algorithm call, exactly like GraphX caching its `EdgeRDD`.
pub struct DataflowGraph {
    csr: Arc<Csr>,
    /// Partition count fixed at upload (Spark-style over-partitioning of
    /// the uploading pool).
    parts: usize,
    /// `(src, dst, weight)` arcs partitioned by source, out-direction.
    edges_out: Dataset<(u32, u32, f64)>,
    /// Same arcs with the reverse orientation added, for algorithms that
    /// diffuse over both directions. `None` for undirected graphs, whose
    /// out-rows already contain both orientations — the out dataset is
    /// served instead of storing a byte-identical copy.
    edges_both: Option<Dataset<(u32, u32, f64)>>,
}

impl DataflowGraph {
    /// Partition count of the cached edge datasets.
    pub fn parts(&self) -> usize {
        self.parts
    }

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
    fn csr(&self) -> &Csr {
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
pub struct DataflowEngine {
    profile: PerfProfile,
}

impl DataflowEngine {
    pub fn new() -> Self {
        DataflowEngine { profile: PerfProfile::dataflow() }
    }
}

impl Default for DataflowEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for DataflowEngine {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn profile(&self) -> &PerfProfile {
        &self.profile
    }

    fn upload(&self, csr: Arc<Csr>, pool: &WorkerPool) -> Result<Box<dyn LoadedGraph>> {
        let parts = (pool.threads() as usize) * 2; // Spark-style over-partitioning
        let edges_out = edge_dataset(&csr, parts, false);
        // Undirected out-rows already carry both orientations; only
        // directed graphs need the reverse-augmented dataset.
        let edges_both =
            csr.is_directed().then(|| edge_dataset(&csr, parts, true));
        Ok(Box::new(DataflowGraph { csr, parts, edges_out, edges_both }))
    }

    fn run(
        &self,
        graph: &dyn LoadedGraph,
        algorithm: Algorithm,
        params: &AlgorithmParams,
        ctx: &mut RunContext<'_>,
    ) -> Result<Execution> {
        let g = downcast_graph::<DataflowGraph>(self.name(), graph)?;
        let csr = g.csr();
        let pool = ctx.pool;
        let start = Instant::now();
        let mut c = WorkCounters::new();
        ctx.check_cancelled()?;
        ctx.begin_trace();
        let values = graphalytics_core::fault::catch_abort(|| -> Result<OutputValues> {
            Ok(match algorithm {
                Algorithm::Bfs => {
                    let root = graphalytics_core::algorithms::resolve_root(csr, params)?;
                    OutputValues::I64(algorithms::bfs(g, root, pool, &mut c))
                }
                Algorithm::PageRank => OutputValues::F64(algorithms::pagerank(
                    g,
                    params.pagerank_iterations,
                    params.damping_factor,
                    pool,
                    &mut c,
                )),
                Algorithm::Wcc => OutputValues::Id(algorithms::wcc(g, pool, &mut c)),
                Algorithm::Cdlp => {
                    OutputValues::Id(algorithms::cdlp(g, params.cdlp_iterations, pool, &mut c))
                }
                Algorithm::Lcc => {
                    OutputValues::F64(algorithms::lcc(csr, g.parts(), pool, &mut c))
                }
                Algorithm::Sssp => {
                    if !csr.is_weighted() {
                        return Err(graphalytics_core::Error::InvalidParameters(
                            "SSSP requires a weighted graph".into(),
                        ));
                    }
                    let root = graphalytics_core::algorithms::resolve_root(csr, params)?;
                    OutputValues::F64(algorithms::sssp(g, root, pool, &mut c))
                }
            })
        });
        ctx.absorb_trace();
        let values = values?;
        let wall_seconds = start.elapsed().as_secs_f64();
        ctx.record_phase("ProcessGraph", wall_seconds);
        Ok(Execution {
            output: AlgorithmOutput::from_dense(algorithm, csr, values),
            counters: c,
            wall_seconds,
        })
    }

    fn estimate(
        &self,
        vertices: u64,
        edges: u64,
        traits_: &graphalytics_core::datasets::GraphTraits,
        directed: bool,
        algorithm: Algorithm,
        params: &AlgorithmParams,
    ) -> WorkCounters {
        let s = crate::estimate::workload_shape(vertices, edges, traits_, directed, algorithm, params);
        let mut c = WorkCounters::new();
        c.supersteps = s.supersteps;
        // New vertex dataset materialized every iteration, plus the
        // vertex-view shipping copy.
        c.vertices_processed = 3 * vertices * s.supersteps;
        match algorithm {
            Algorithm::Lcc => {
                c.edges_scanned = (s.sum_deg2 + 2.0 * s.arcs) as u64;
                c.messages = (s.sum_deg2 / 4.0) as u64 + s.arcs as u64;
                c.message_bytes = 12 * c.messages;
            }
            Algorithm::Cdlp => {
                c.edges_scanned = s.arcs as u64 * s.supersteps;
                c.messages = s.edge_traversals as u64 + vertices * s.supersteps;
                // Boxed Scala shuffle records are heavy on the wire.
                c.message_bytes = 48 * c.messages;
                c.random_accesses = s.edge_traversals as u64;
            }
            _ => {
                // The full edge dataset is scanned every iteration no
                // matter how sparse the frontier is.
                c.edges_scanned = s.arcs as u64 * s.supersteps;
                // Map-side combining collapses shuffle records towards the
                // per-iteration vertex count; shipped vertex views add the
                // active rounds.
                let combined = (0.5 * s.edge_traversals)
                    .min(2.0 * vertices as f64 * s.supersteps as f64);
                c.messages = combined as u64 + s.active_vertex_rounds as u64;
                // Boxed Scala shuffle records are heavy on the wire.
                c.message_bytes = 48 * c.messages;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_partitioning() {
        let d = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(d.num_partitions(), 3);
        assert_eq!(d.count(), 10);
        assert_eq!(d.collect(), (0..10).collect::<Vec<i32>>());
        let doubled = d.map(|x| x * 2);
        assert_eq!(doubled.collect()[3], 6);
    }

    #[test]
    fn reduce_by_key_combines() {
        let mut c = WorkCounters::new();
        let records = vec![(1u32, 5i64), (2, 1), (1, 3), (2, 2)];
        let reduced = reduce_by_key(records, 2, 8, &mut c, |a, b| a.min(b));
        assert_eq!(reduced, vec![(1, 3), (2, 1)]);
        // Map-side combine: only 2 records cross the shuffle.
        assert_eq!(c.messages, 2);
    }

    #[test]
    fn group_by_key_ships_everything() {
        let mut c = WorkCounters::new();
        let records = vec![(1u32, 5u64), (2, 1), (1, 3), (1, 5)];
        let grouped = group_by_key(records, 2, 8, &mut c);
        assert_eq!(c.messages, 4, "no combiner: every record shuffles");
        let g1 = grouped.iter().find(|(k, _)| *k == 1).unwrap();
        assert_eq!(g1.1.len(), 3);
    }
}
