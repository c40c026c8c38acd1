//! Property test: `GraphBuilder::build_with` is a sort, a dedup and a
//! validation. The model sorts the canonicalized edges by `(src, dst,
//! weight)`, keeps the first (smallest-weight) copy of each pair when
//! deduplicating, and reports the first edge that is a self loop, has an
//! undeclared endpoint or repeats its predecessor. The builder must return
//! the same edges bit for bit, or the same error text, at every pool width
//! and in every id regime (dense, gapped and sparse over a wide span,
//! which `validate` checks through its offset, table and binary-search
//! remaps).

use graphalytics::core::pool::WorkerPool;
use graphalytics::core::Error;
use graphalytics::prelude::*;
use proptest::prelude::*;

/// Small weight alphabet so duplicates often differ only in weight;
/// `-0.0` sorts below `0.0`.
const WEIGHTS: [f64; 5] = [2.5, 0.0, -0.0, 1.0, 0.5];

struct Input {
    directed: bool,
    weighted: bool,
    dedup: bool,
    vertices: Vec<u64>,
    edges: Vec<(u64, u64, f64)>,
}

fn arbitrary_input(
    seed: u64,
    n: u64,
    regime: u32,
    faults: u32,
    directed: bool,
    dedup: bool,
) -> Input {
    let stride = [1, 3, 1 << 40][regime as usize];
    let id = |v: u64| v * stride;
    // Not a declared id: past the end of a dense range, inside a gap
    // otherwise.
    let hole = |v: u64| if stride == 1 { n + v } else { v * stride + 1 };
    let mut x = seed | 1;
    let mut next = |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let weighted = next(2) == 1;
    // Declared in a scrambled order, some twice.
    let vertices = (0..n + n / 4).map(|i| id((i * 7 + 3) % n)).collect();
    let mut edges = Vec::new();
    for _ in 0..next(4 * n) {
        let (s, d) = (next(n), next(n));
        let w = if weighted {
            WEIGHTS[next(WEIGHTS.len() as u64) as usize]
        } else {
            1.0
        };
        // faults: 0 none, 1 self loops, 2 undeclared endpoints, 3 both.
        let (s, d) = match (faults, next(16)) {
            (1 | 3, 0) => (id(s), id(s)),
            (2 | 3, 1) => (hole(s), id(d)),
            (2 | 3, 2) => (id(s), hole(d)),
            _ if s == d => continue,
            _ => (id(s), id(d)),
        };
        edges.push((s, d, w));
    }
    Input {
        directed,
        weighted,
        dedup,
        vertices,
        edges,
    }
}

fn build(input: &Input, pool: &WorkerPool) -> Result<Vec<(u64, u64, u64)>, String> {
    let mut b = GraphBuilder::new(input.directed);
    b.set_weighted(input.weighted);
    b.dedup_edges(input.dedup);
    for &v in &input.vertices {
        b.add_vertex(v);
    }
    for &(s, d, w) in &input.edges {
        b.add_weighted_edge(s, d, w);
    }
    match b.build_with(pool) {
        Ok(g) => Ok(g
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, e.weight.to_bits()))
            .collect()),
        Err(Error::InvalidGraph(msg)) => Err(msg),
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

fn model(input: &Input) -> Result<Vec<(u64, u64, u64)>, String> {
    let mut edges: Vec<(u64, u64, f64)> = input
        .edges
        .iter()
        .map(|&(s, d, w)| {
            if input.directed || s < d {
                (s, d, w)
            } else {
                (d, s, w)
            }
        })
        .collect();
    edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    if input.dedup {
        edges.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
    }
    let declared = |v: u64| input.vertices.contains(&v);
    for (i, &(s, d, _)) in edges.iter().enumerate() {
        if s == d {
            return Err(format!("self loop at vertex {s}"));
        }
        if !declared(s) || !declared(d) {
            return Err(format!("edge ({s}, {d}) references undeclared vertex"));
        }
        if i > 0 && (edges[i - 1].0, edges[i - 1].1) == (s, d) {
            return Err(format!("duplicate edge ({s}, {d})"));
        }
    }
    Ok(edges
        .into_iter()
        .map(|(s, d, w)| (s, d, w.to_bits()))
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn build_with_equals_sort_dedup_validate_model(
        seed in 0u64..u64::MAX,
        n in 1u64..120,
        regime in 0u32..3,
        faults in 0u32..4,
        directed in proptest::bool::ANY,
        dedup in proptest::bool::ANY,
    ) {
        let input = arbitrary_input(seed, n, regime, faults, directed, dedup);
        let expected = model(&input);
        for threads in [1u32, 2, 4] {
            prop_assert_eq!(&build(&input, &WorkerPool::new(threads)), &expected, "threads={}", threads);
        }
    }
}

#[test]
fn model_cases_cover_success_and_every_error_class() {
    let mut seen = [false; 4];
    for seed in 0..400u64 {
        let input = arbitrary_input(
            seed,
            1 + seed % 60,
            (seed % 3) as u32,
            (seed % 4) as u32,
            seed % 2 == 0,
            seed % 5 < 2,
        );
        let class = match model(&input) {
            Ok(_) => 0,
            Err(msg) if msg.starts_with("self loop") => 1,
            Err(msg) if msg.contains("undeclared") => 2,
            Err(_) => 3,
        };
        seen[class] = true;
    }
    assert_eq!(seen, [true; 4], "[ok, self loop, undeclared, duplicate]");
}
