//! The shuffle contract (CI gate): dataflow's shuffle is a stable grouping
//! of `(vertex index, value)` records over the dense key space `0..n`, each
//! key's records in stream order — so nothing a run outputs or counts may
//! depend on how the edge dataset is partitioned or how the scan is
//! chunked across workers.
//!
//! * every output and all eight `WorkCounters` fields are identical at
//!   pool widths 1/2/3/4/8 (the partition count is `2 × width`);
//! * `messages`, `message_bytes`, `vertices_processed` and
//!   `random_accesses` equal a recomputation from the CSR alone — the
//!   GraphX cost model written down as a test: one shipped view per
//!   vertex, one shuffled record per distinct key where a combiner
//!   exists, one per record where none does, a fresh vertex dataset per
//!   round;
//! * (proptest) `reduce_by_key` is a left fold per key in stream order and
//!   `group_by_key` the per-key subsequence in stream order, for any
//!   chunking of the same stream, against a naive `BTreeMap` model.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use graphalytics::core::output::OutputValues;
use graphalytics::engines::dataflow::{group_by_key, reduce_by_key};
use graphalytics::engines::{Execution, WorkCounters};
use graphalytics::prelude::*;

const PAGERANK_ITERATIONS: u32 = 7;
const CDLP_ITERATIONS: u32 = 4;

/// One directed and one undirected weighted R-MAT proxy.
fn proxies(pool: &WorkerPool) -> Vec<(&'static str, Arc<Csr>)> {
    let mut rmat = graphalytics::graph500::RmatConfig {
        scale: 9,
        edge_factor: 8,
        a: 0.5,
        b: 0.2,
        c: 0.2,
        seed: 23,
        directed: true,
        weighted: true,
        keep_isolated: false,
    };
    let directed = rmat.generate();
    rmat.directed = false;
    rmat.seed = 29;
    let undirected = rmat.generate();
    [("directed", directed), ("undirected", undirected)]
        .into_iter()
        .map(|(name, graph)| (name, Arc::new(graph.to_csr_with(pool).unwrap())))
        .collect()
}

fn params(csr: &Csr) -> AlgorithmParams {
    AlgorithmParams {
        source_vertex: Some(SourceSelection::MaxOutDegree.resolve(csr).unwrap()),
        pagerank_iterations: PAGERANK_ITERATIONS,
        damping_factor: 0.85,
        cdlp_iterations: CDLP_ITERATIONS,
    }
}

/// Uploads on a `width`-wide pool (so `2 × width` partitions) and runs
/// every algorithm.
fn run_all(csr: &Arc<Csr>, width: u32) -> Vec<Execution> {
    let pool = WorkerPool::new(width);
    let platform = platform_by_name("dataflow").unwrap();
    let params = params(csr);
    let loaded = platform.upload(csr.clone(), &pool).unwrap();
    let runs = Algorithm::ALL
        .into_iter()
        .map(|algorithm| {
            let mut ctx = RunContext::new(&pool);
            platform.run(loaded.as_ref(), algorithm, &params, &mut ctx).unwrap()
        })
        .collect();
    platform.delete(loaded);
    runs
}

/// Output values as raw bits: `-0.0 != 0.0` and NaNs compare.
fn bits(values: &OutputValues) -> Vec<u64> {
    match values {
        OutputValues::I64(v) => v.iter().map(|&x| x as u64).collect(),
        OutputValues::Id(v) => v.clone(),
        OutputValues::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

#[test]
fn outputs_and_all_eight_counters_do_not_depend_on_the_partitioning() {
    let build_pool = WorkerPool::new(2);
    for (name, csr) in proxies(&build_pool) {
        let narrow = run_all(&csr, 1);
        for width in [2, 3, 4, 8] {
            for (expect, run) in narrow.iter().zip(run_all(&csr, width)) {
                let what = format!("{name} {} at width {width}", run.output.algorithm);
                assert_eq!(bits(&expect.output.values), bits(&run.output.values), "{what}");
                // `WorkCounters` equality covers all eight fields.
                assert_eq!(expect.counters, run.counters, "{what}");
            }
        }
    }
}

/// The four fields the recomputation pins; the other base fields
/// (`edges_scanned`, `supersteps`) are `cross_engine_equivalence`'s.
#[derive(Debug, Default, PartialEq)]
struct Charged {
    messages: u64,
    message_bytes: u64,
    vertices_processed: u64,
    random_accesses: u64,
}

impl Charged {
    fn of(c: &WorkCounters) -> Charged {
        Charged {
            messages: c.messages,
            message_bytes: c.message_bytes,
            vertices_processed: c.vertices_processed,
            random_accesses: c.random_accesses,
        }
    }

    fn ship(&mut self, records: u64, bytes_each: u64) {
        self.messages += records;
        self.message_bytes += records * bytes_each;
    }
}

#[test]
fn charged_records_equal_a_recomputation_from_the_csr() {
    let pool = WorkerPool::new(2);
    for (name, csr) in proxies(&pool) {
        let n = csr.num_vertices() as u64;
        let vertices = 0..n as u32;
        // Arcs of the both-direction edge dataset.
        let both_arcs = csr.num_arcs() as u64 * if csr.is_directed() { 2 } else { 1 };
        let runs = run_all(&csr, 2);
        let charged = |algorithm: Algorithm| {
            let run = runs.iter().find(|r| r.output.algorithm == algorithm).unwrap();
            Charged::of(&run.counters)
        };

        // PageRank: every iteration ships n views, shuffles one combined
        // contribution per vertex that has an in-arc, and touches the
        // vertex dataset twice (dangling scan + the fresh dataset).
        let mut has_in_arc = vec![false; n as usize];
        for u in vertices.clone() {
            csr.out_neighbors(u).iter().for_each(|&v| has_in_arc[v as usize] = true);
        }
        let targets = has_in_arc.iter().filter(|&&t| t).count() as u64;
        let mut expect = Charged::default();
        for _ in 0..PAGERANK_ITERATIONS {
            expect.ship(n, 12);
            expect.ship(targets, 12);
            expect.vertices_processed += 2 * n;
        }
        assert_eq!(charged(Algorithm::PageRank), expect, "{name} PageRank");

        // CDLP: no combiner — every vote crosses the shuffle.
        let mut expect = Charged::default();
        for _ in 0..CDLP_ITERATIONS {
            expect.ship(n, 12);
            expect.ship(both_arcs, 8);
            expect.vertices_processed += n;
            expect.random_accesses += both_arcs;
        }
        assert_eq!(charged(Algorithm::Cdlp), expect, "{name} CDLP");

        // BFS: round r ships the depth-r frontier's views and shuffles one
        // min-combined message per distinct out-neighbour of it; the last
        // frontier still sends (and improves nothing).
        let reference = run_reference(&csr, Algorithm::Bfs, &params(&csr)).unwrap();
        let OutputValues::I64(depths) = &reference.values else { panic!("BFS depths") };
        let rounds = depths.iter().filter(|&&d| d != i64::MAX).max().unwrap() + 1;
        let mut expect = Charged::default();
        for round in 0..rounds {
            let frontier: Vec<u32> =
                vertices.clone().filter(|&u| depths[u as usize] == round).collect();
            let mut reached = vec![false; n as usize];
            for &u in &frontier {
                csr.out_neighbors(u).iter().for_each(|&v| reached[v as usize] = true);
            }
            expect.ship(frontier.len() as u64, 12);
            expect.ship(reached.iter().filter(|&&r| r).count() as u64, 8);
            expect.vertices_processed += n;
        }
        assert_eq!(charged(Algorithm::Bfs), expect, "{name} BFS");

        // LCC: the arcs grouped into neighbour sets, then each set N(v)
        // with at least two members shipped whole to every member, then
        // one combined count per such v; two vertex datasets.
        let mut expect = Charged::default();
        expect.ship(both_arcs, 8);
        for v in vertices.clone() {
            let d = csr.union_degree(v) as u64;
            if d >= 2 {
                expect.ship(d, 8 + 4 * d);
                expect.ship(1, 12);
            }
        }
        expect.vertices_processed += 2 * n;
        assert_eq!(charged(Algorithm::Lcc), expect, "{name} LCC");
    }
}

/// A seeded record stream over keys `0..n`.
fn stream(seed: u64, n: u32, len: usize) -> Vec<(u32, u64)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len).map(|_| ((next() % n as u64) as u32, next() % 1000)).collect()
}

/// Cuts `records` into chunks at seeded positions (empty chunks included).
fn chunked<V: Clone>(records: &[(u32, V)], seed: u64, chunks: usize) -> Vec<Vec<(u32, V)>> {
    let positions = records.len() as u64 + 1;
    let mut cuts: Vec<usize> = (0..chunks.saturating_sub(1) as u64)
        .map(|i| (seed.wrapping_mul(i + 3).wrapping_add(i * i) % positions) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.push(records.len());
    let mut lo = 0;
    cuts.into_iter()
        .map(|hi| {
            let chunk = records[lo..hi].to_vec();
            lo = hi;
            chunk
        })
        .collect()
}

/// The model: each key's values in stream order.
fn model<V: Clone>(records: &[(u32, V)]) -> BTreeMap<u32, Vec<V>> {
    let mut groups: BTreeMap<u32, Vec<V>> = BTreeMap::new();
    for (k, v) in records {
        groups.entry(*k).or_default().push(v.clone());
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn operators_equal_the_naive_model_for_any_chunking(
        seed in 0u64..u64::MAX,
        n in 1u32..48,
        len in 0usize..300,
        chunks in 1usize..7,
    ) {
        let records = stream(seed, n, len);
        let groups = model(&records);
        for chunking in [chunked(&records, seed, chunks), vec![records.clone()]] {
            // A combiner that is neither commutative nor associative: any
            // order but a left fold in stream order changes the result.
            let ordered = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
            let mut c = WorkCounters::new();
            let reduced = reduce_by_key(chunking.clone(), n as usize, 12, &mut c, ordered);
            let expect: Vec<(u32, u64)> = groups
                .iter()
                .map(|(&k, vs)| (k, vs.iter().copied().reduce(ordered).unwrap()))
                .collect();
            prop_assert_eq!(&reduced, &expect);
            // Map-side combine: one shuffled record per distinct key.
            let distinct = expect.len() as u64;
            prop_assert_eq!((c.messages, c.message_bytes), (distinct, 12 * distinct));

            // f64 sums, compared by bits.
            let floats: Vec<Vec<(u32, f64)>> = chunking
                .iter()
                .map(|chunk| chunk.iter().map(|&(k, v)| (k, v as f64 / 7.0)).collect())
                .collect();
            let mut c = WorkCounters::new();
            let sums = reduce_by_key(floats, n as usize, 12, &mut c, |a, b| a + b);
            let expect: Vec<(u32, u64)> = groups
                .iter()
                .map(|(&k, vs)| {
                    (k, vs.iter().map(|&v| v as f64 / 7.0).reduce(|a, b| a + b).unwrap().to_bits())
                })
                .collect();
            let sums: Vec<(u32, u64)> = sums.into_iter().map(|(k, s)| (k, s.to_bits())).collect();
            prop_assert_eq!(&sums, &expect);

            // No combiner: every record is charged, every group is the
            // key's subsequence of the stream.
            let mut c = WorkCounters::new();
            let grouped = group_by_key(chunking, n as usize, 8, &mut c);
            prop_assert_eq!((c.messages, c.message_bytes), (len as u64, 8 * len as u64));
            for k in 0..n {
                let expect = groups.get(&k).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(grouped.group(k), expect, "key {}", k);
            }
        }
    }
}
