//! The upload path's outputs, pinned before its allocations change:
//! `read_graph_with` (vertex file, edge file, `build_with`),
//! `Graph::to_csr_with` and the dataflow engine's `edge_dataset`.
//!
//! * Two proxies written by `write_edge_file` — a weighted undirected
//!   Graph500 graph and a directed unweighted R-MAT graph — read back at
//!   pool widths 1, 2 and 5 as the graph that was written: the same
//!   vertices and edges, weights compared by bits. Their CSR at each
//!   width equals a row model pushed in edge-list order, and each edge
//!   dataset equals `Dataset::from_exact` over the flat arc list at
//!   0, 1, 3, 4, `arcs` and `arcs + 1` partitions.
//! * Hand-made files several read blocks long put each awkward kind of
//!   line — blank, `#` comment, CRLF, tabs, `+5`, 20-digit ids,
//!   non-UTF-8 bytes, a line longer than a block, a last line without a
//!   newline — just before, on and just after a block boundary. Each
//!   reads as a line-by-line reference parser (`str::lines`,
//!   `split_ascii_whitespace`, `str::parse`) says: the same graph, or the
//!   same `file:line` error.
//! * A first block of blank and comment lines, or of short lines, reads
//!   right before lines several times as long.
//! * `read_edge_file` appends reversed edges to a non-empty undirected
//!   builder, canonicalizing each as `add_weighted_edge` does.
//!
//! `BLOCK` is the edge and vertex reader's block size; a boundary is
//! every multiple of it in the file.

use std::path::{Path, PathBuf};

use graphalytics::core::graph::{read_edge_file, read_graph, read_graph_with, write_edge_file};
use graphalytics::core::graph::{write_vertex_file, Edge};
use graphalytics::engines::dataflow::{edge_dataset, Dataset};
use graphalytics::graph500::RmatConfig;
use graphalytics::prelude::*;

/// The block size of `graph::io`'s file reader.
const BLOCK: usize = 1 << 18;

const WIDTHS: [u32; 3] = [1, 2, 5];

/// A scratch directory private to one test (tests run on parallel threads).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("galy-loadid-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

type RawEdge = (u64, u64, f64);

/// What the edge-file format means, one line at a time: the edges, or
/// the 1-based line and message of the first bad line.
fn reference_edges(bytes: &[u8], weighted: bool) -> Result<Vec<RawEdge>, (u64, String)> {
    let mut edges = Vec::new();
    for (i, line) in String::from_utf8_lossy(bytes).lines().enumerate() {
        let fail = |message: String| (i as u64 + 1, message);
        let mut cols = line.split('#').next().unwrap().split_ascii_whitespace();
        let Some(src) = cols.next() else { continue };
        let src: u64 = src.parse().map_err(|e| fail(format!("bad source: {e}")))?;
        let dst = cols.next().ok_or_else(|| fail("missing target column".into()))?;
        let dst: u64 = dst.parse().map_err(|e| fail(format!("bad target: {e}")))?;
        let weight = match (weighted, cols.next()) {
            (false, None) => 1.0,
            (false, Some(_)) => {
                return Err(fail("unexpected third column in unweighted edge file".into()))
            }
            (true, None) => return Err(fail("missing weight column".into())),
            (true, Some(w)) => {
                let w: f64 = w.parse().map_err(|e| fail(format!("bad weight: {e}")))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(fail(format!("weight {w} is not a finite non-negative number")));
                }
                w
            }
        };
        edges.push((src, dst, weight));
    }
    Ok(edges)
}

/// What the vertex-file format means, one line at a time.
fn reference_vertices(bytes: &[u8]) -> Result<Vec<u64>, (u64, String)> {
    let mut vertices = Vec::new();
    for (i, line) in String::from_utf8_lossy(bytes).lines().enumerate() {
        let content = line.split('#').next().unwrap().trim_ascii();
        if content.is_empty() {
            continue;
        }
        let v: u64 = content
            .parse()
            .map_err(|e| (i as u64 + 1, format!("bad vertex id {content:?}: {e}")))?;
        vertices.push(v);
    }
    Ok(vertices)
}

/// The graph (or the error text) `read_graph_with` must return for two
/// files, by the reference parsers and a plain `GraphBuilder`.
fn expected(
    vertex_file: (&Path, &[u8]),
    edge_file: (&Path, &[u8]),
    directed: bool,
    weighted: bool,
) -> Result<Graph, String> {
    let parse_error = |path: &Path, (line, message): (u64, String)| {
        format!("parse error in {}:{line}: {message}", path.display())
    };
    let vertices = reference_vertices(vertex_file.1).map_err(|e| parse_error(vertex_file.0, e))?;
    let edges = reference_edges(edge_file.1, weighted).map_err(|e| parse_error(edge_file.0, e))?;
    let mut b = GraphBuilder::new(directed);
    b.set_weighted(weighted);
    for v in vertices {
        b.add_vertex(v);
    }
    for (s, d, w) in edges {
        b.add_weighted_edge(s, d, w);
    }
    b.build().map_err(|e| e.to_string())
}

/// Vertices, and edges with their weights' bits.
fn same_graph(a: &Graph, b: &Graph) -> Result<(), String> {
    let bits = |g: &Graph| -> Vec<(u64, u64, u64)> {
        g.edges().iter().map(|e| (e.src, e.dst, e.weight.to_bits())).collect()
    };
    let shape = |g: &Graph| (g.is_directed(), g.is_weighted(), g.vertex_count(), g.edge_count());
    if shape(a) != shape(b) {
        return Err(format!("shape {:?} vs {:?}", shape(a), shape(b)));
    }
    if a.vertices() != b.vertices() {
        return Err("vertex lists differ".into());
    }
    match bits(a).iter().zip(bits(b)).position(|(x, y)| *x != y) {
        Some(i) => Err(format!("edge {i}: {:?} vs {:?}", a.edges()[i], b.edges()[i])),
        None => Ok(()),
    }
}

/// `read_graph_with` at every width, and `read_graph`, against `expected`.
fn assert_reads_as(
    vertex_path: &Path,
    edge_path: &Path,
    directed: bool,
    weighted: bool,
    expected: &Result<Graph, String>,
    what: &str,
) {
    let mut runs: Vec<(String, graphalytics::core::Result<Graph>)> = WIDTHS
        .iter()
        .map(|&t| {
            let pool = WorkerPool::new(t);
            (
                format!("width {t}"),
                read_graph_with(vertex_path, edge_path, directed, weighted, &pool),
            )
        })
        .collect();
    runs.push(("read_graph".into(), read_graph(vertex_path, edge_path, directed, weighted)));
    for (how, outcome) in runs {
        match (expected, outcome) {
            (Ok(want), Ok(got)) => {
                if let Err(diff) = same_graph(&got, want) {
                    panic!("{what}, {how}: {diff}");
                }
            }
            (Err(want), Err(got)) => assert_eq!(&got.to_string(), want, "{what}, {how}"),
            (want, got) => panic!("{what}, {how}: expected {want:?}, got {got:?}"),
        }
    }
}

// --- the proxies, the CSR and the edge datasets -------------------------------

/// Out- and in-rows pushed in edge-list order (an undirected edge into
/// both endpoints' out-rows), as `(target, weight bits)`.
type Rows = Vec<Vec<(u32, u64)>>;

fn row_model(g: &Graph) -> (Rows, Rows) {
    let index = |v: u64| g.vertices().binary_search(&v).unwrap() as u32;
    let n = g.vertex_count();
    let (mut out, mut inn) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for e in g.edges() {
        let (s, d, w) = (index(e.src), index(e.dst), e.weight.to_bits());
        out[s as usize].push((d, w));
        if g.is_directed() {
            inn[d as usize].push((s, w));
        } else {
            out[d as usize].push((s, w));
        }
    }
    if !g.is_directed() {
        inn = out.clone();
    }
    (out, inn)
}

fn csr_rows(csr: &Csr) -> (Rows, Rows) {
    let row = |targets: &[u32], weights: &[f64]| -> Vec<(u32, u64)> {
        targets.iter().zip(weights).map(|(&t, w)| (t, w.to_bits())).collect()
    };
    let n = csr.num_vertices() as u32;
    (
        (0..n).map(|u| row(csr.out_neighbors(u), csr.out_weights(u))).collect(),
        (0..n).map(|u| row(csr.in_neighbors(u), csr.in_weights(u))).collect(),
    )
}

type Arc3 = (u32, u32, f64);

fn bits(parts: &[Vec<Arc3>]) -> Vec<Vec<(u32, u32, u64)>> {
    parts.iter().map(|p| p.iter().map(|&(s, d, w)| (s, d, w.to_bits())).collect()).collect()
}

fn assert_csr_and_datasets(g: &Graph, what: &str) {
    let (out, inn) = row_model(g);
    for rows in out.iter().chain(&inn) {
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{what}: the model's rows ascend");
    }
    for t in WIDTHS {
        let pool = WorkerPool::new(t);
        let csr = g.to_csr_with(&pool).unwrap();
        assert_eq!(csr.vertex_ids(), g.vertices(), "{what}, width {t}");
        assert_eq!((csr.is_directed(), csr.is_weighted()), (g.is_directed(), g.is_weighted()));
        let (got_out, got_in) = csr_rows(&csr);
        assert!(got_out == out, "{what}, width {t}: out-rows differ from the model");
        assert!(got_in == inn, "{what}, width {t}: in-rows differ from the model");

        for both in [false, true] {
            let mut arcs = Vec::new();
            for u in 0..csr.num_vertices() as u32 {
                let row = csr.out_neighbors(u).iter().zip(csr.out_weights(u));
                arcs.extend(row.map(|(&v, &w)| (u, v, w)));
                if both && g.is_directed() {
                    let row = csr.in_neighbors(u).iter().zip(csr.in_weights(u));
                    arcs.extend(row.map(|(&v, &w)| (u, v, w)));
                }
            }
            for parts in [0, 1, 3, 4, arcs.len(), arcs.len() + 1] {
                let want = Dataset::from_exact(arcs.len(), arcs.iter().copied(), parts);
                let got = edge_dataset(&csr, parts, both, &pool);
                assert!(
                    bits(got.partitions()) == bits(want.partitions()),
                    "{what}, width {t}: edge_dataset(both = {both}, parts = {parts}) differs"
                );
            }
        }
    }
}

#[test]
fn proxies_read_back_as_written_with_equal_csr_and_datasets() {
    let scratch = Scratch::new("proxies");
    let pool = WorkerPool::new(2);
    let g500 = Graph500Config::new(12).with_weights(true).generate_with(&pool);
    let rmat = RmatConfig {
        scale: 13,
        edge_factor: 16,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed: 7,
        directed: true,
        weighted: false,
        keep_isolated: false,
    }
    .generate_with(&pool);
    for (name, g) in [("g500-12w", g500), ("rmat-13d", rmat)] {
        let (vp, ep) = (scratch.0.join(format!("{name}.v")), scratch.0.join(format!("{name}.e")));
        write_vertex_file(&g, &vp).unwrap();
        write_edge_file(&g, &ep).unwrap();
        let size = std::fs::metadata(&ep).unwrap().len() as usize;
        assert!(size > 3 * BLOCK, "{name}: {size} bytes is not several blocks");
        assert_reads_as(&vp, &ep, g.is_directed(), g.is_weighted(), &Ok(g.clone()), name);
        assert_csr_and_datasets(&g, name);
    }
}

#[test]
fn empty_graphs_have_empty_csr_and_datasets() {
    let mut b = GraphBuilder::new(true);
    b.add_vertex_range(3);
    assert_csr_and_datasets(&b.build().unwrap(), "no edges");
    assert_csr_and_datasets(&GraphBuilder::new(false).build().unwrap(), "no vertices");
}

// --- hand-made files across block boundaries ----------------------------------

/// Appends valid, distinct filler edges `s d [w]` (`s < 1000 <= d`)
/// until `out` is exactly `target` bytes long (at least 48 more). Near
/// the target the source is zero-padded so the last two lines land the
/// length exactly.
fn fill_to(out: &mut Vec<u8>, target: usize, weighted: bool, next: &mut u64) {
    while out.len() < target {
        let (s, d) = (*next / 1000, 1000 + *next % 1000);
        *next += 1;
        let tail = if weighted { format!(" {d} {}.5\n", s % 10) } else { format!(" {d}\n") };
        let rest = target - out.len();
        assert!(rest >= 17, "{rest} bytes are too few to fill");
        let len = if rest >= 48 {
            0
        } else if rest >= 34 {
            rest / 2
        } else {
            rest
        };
        let width = len.saturating_sub(tail.len());
        out.extend(format!("{s:0width$}{tail}").as_bytes());
    }
    assert_eq!(out.len(), target);
}

/// A vertex file declaring `0..n`.
fn vertex_file(n: u64) -> Vec<u8> {
    (0..n).map(|v| format!("{v}\n")).collect::<String>().into_bytes()
}

/// Start offsets of a `len`-byte line (with its newline) relative to a
/// boundary: newline two bytes before, on the last byte before, on the
/// first byte after the boundary; line starting one byte before, on and
/// one byte after it.
fn placements(len: usize) -> [isize; 6] {
    let len = len as isize;
    [-len - 1, -len, -len + 1, -1, 0, 1]
}

/// An edge file with `line(k)` (newline added) starting at each of
/// [`placements`] around consecutive block boundaries, filler between,
/// and `tail` (no newline added) ending it.
fn edge_file_around_boundaries(
    line: &dyn Fn(usize) -> Vec<u8>,
    weighted: bool,
    tail: &[u8],
) -> Vec<u8> {
    let (mut out, mut next, mut boundary) = (Vec::new(), 0u64, BLOCK);
    for (k, offset) in placements(line(0).len() + 1).into_iter().enumerate() {
        let bytes = line(k);
        while (boundary as isize + offset) < out.len() as isize + 64 {
            boundary += BLOCK;
        }
        fill_to(&mut out, (boundary as isize + offset) as usize, weighted, &mut next);
        out.extend(&bytes);
        out.push(b'\n');
    }
    let end = out.len() + BLOCK / 2;
    fill_to(&mut out, end, weighted, &mut next);
    out.extend(tail);
    out
}

/// The `k`-th line of a kind, without its newline.
type Line = Box<dyn Fn(usize) -> Vec<u8>>;

/// Awkward lines that the format accepts, each declaring a fresh edge
/// `(5000 + k, 7000 + k)` from its `k`.
fn accepted_kinds(weighted: bool) -> Vec<(&'static str, Line)> {
    let w = move |k: usize| if weighted { format!(" {}", k as f64 / 4.0) } else { String::new() };
    let edge = move |k: usize| (5000 + k, 7000 + k);
    vec![
        ("blank", Box::new(|_| Vec::new())),
        ("comment", Box::new(move |k| format!("# {} {}", edge(k).0, edge(k).1).into_bytes())),
        ("crlf", Box::new(move |k| format!("{} {}{}\r", edge(k).0, edge(k).1, w(k)).into_bytes())),
        (
            "tabs",
            Box::new(move |k| {
                let t = if weighted { format!("\t{}", k as f64 / 4.0) } else { String::new() };
                format!("\t{}\t{}{t}\t", edge(k).0, edge(k).1).into_bytes()
            }),
        ),
        ("plus", Box::new(move |k| format!("+{} {}{}", edge(k).0, edge(k).1, w(k)).into_bytes())),
        (
            "20-digit ids",
            Box::new(move |k| format!("{:020} {:020}{}", edge(k).0, edge(k).1, w(k)).into_bytes()),
        ),
        (
            "non-UTF-8 comment",
            Box::new(move |k| {
                [format!("{} {}{} # ", edge(k).0, edge(k).1, w(k)).as_bytes(), b"\xFF\xC3"].concat()
            }),
        ),
        (
            "reversed",
            Box::new(move |k| format!("{} {}{}", edge(k).1 + 1000, edge(k).0, w(k)).into_bytes()),
        ),
        (
            "longer than a block",
            Box::new(move |k| {
                let comment = "x".repeat(BLOCK + 3);
                format!("{} {}{} #{comment}", edge(k).0, edge(k).1, w(k)).into_bytes()
            }),
        ),
    ]
}

/// Lines that fail, each with the error the parent reports.
fn rejected_kinds(weighted: bool) -> Vec<(&'static str, Vec<u8>)> {
    let w = if weighted { " 1.5" } else { "" };
    let mut kinds = vec![
        ("non-UTF-8 token", [b"5000 ".as_slice(), b"\xC3\x28", w.as_bytes()].concat()),
        ("20-digit overflow", format!("99999999999999999999 7000{w}").into_bytes()),
        ("token longer than a block", format!("5000 {}{w}", "9".repeat(BLOCK + 5)).into_bytes()),
        ("missing target", b"5000".to_vec()),
        ("minus", format!("-5000 7000{w}").into_bytes()),
    ];
    if weighted {
        kinds.push(("negative weight", b"5000 7000 -0.5".to_vec()));
        kinds.push(("missing weight", b"5000 7000".to_vec()));
        kinds.push(("bad weight", b"5000 7000 1.5x".to_vec()));
    } else {
        kinds.push(("third column", b"5000 7000 1".to_vec()));
    }
    kinds
}

#[test]
fn awkward_lines_at_block_boundaries_read_as_the_line_reference() {
    let scratch = Scratch::new("accepted");
    let vertices = vertex_file(10_000);
    let vp = scratch.write("g.v", &vertices);
    for weighted in [false, true] {
        let w = if weighted { " 0.5" } else { "" };
        for (kind, line) in accepted_kinds(weighted) {
            for directed in [true, false] {
                // "reversed" lines are edges only an undirected graph
                // canonicalizes; in a directed one they are new edges.
                let tail = format!("9000 9500{w}");
                let bytes = edge_file_around_boundaries(line.as_ref(), weighted, tail.as_bytes());
                let ep = scratch.write("g.e", &bytes);
                let want = expected((&vp, &vertices), (&ep, &bytes), directed, weighted);
                let what = format!("{kind} (weighted {weighted}, directed {directed})");
                assert!(want.is_ok(), "{what}: the reference rejects the file: {want:?}");
                assert_reads_as(&vp, &ep, directed, weighted, &want, &what);
            }
        }
    }
}

#[test]
fn rejected_lines_at_block_boundaries_name_their_line() {
    let scratch = Scratch::new("rejected");
    let vertices = vertex_file(10_000);
    let vp = scratch.write("g.v", &vertices);
    for weighted in [false, true] {
        for (kind, line) in rejected_kinds(weighted) {
            for offset in placements(line.len() + 1) {
                let (mut bytes, mut next) = (Vec::new(), 0);
                let start = (2 * BLOCK as isize + offset) as usize;
                fill_to(&mut bytes, start, weighted, &mut next);
                bytes.extend(&line);
                bytes.push(b'\n');
                let end = bytes.len() + BLOCK;
                fill_to(&mut bytes, end, weighted, &mut next);
                let ep = scratch.write("g.e", &bytes);
                let want = expected((&vp, &vertices), (&ep, &bytes), true, weighted);
                let what = format!("{kind} at {offset:+} (weighted {weighted})");
                assert!(want.as_ref().is_err_and(|e| e.contains("parse error")), "{what}");
                assert_reads_as(&vp, &ep, true, weighted, &want, &what);
            }
        }
    }
}

#[test]
fn a_last_line_without_newline_at_a_block_boundary() {
    let scratch = Scratch::new("last-line");
    let vertices = vertex_file(10_000);
    let vp = scratch.write("g.v", &vertices);
    for weighted in [false, true] {
        let w = if weighted { " 2.25" } else { "" };
        for last in [format!("5000 7000{w}"), "# comment".into(), "  ".into(), "5000".into()] {
            for offset in [-1isize, 0, 1] {
                let end = (2 * BLOCK as isize + offset) as usize;
                let mut bytes = Vec::new();
                fill_to(&mut bytes, end - last.len(), weighted, &mut 0);
                bytes.extend(last.as_bytes());
                let ep = scratch.write("g.e", &bytes);
                let want = expected((&vp, &vertices), (&ep, &bytes), true, weighted);
                let what = format!("last line {last:?} ending at {offset:+} (weighted {weighted})");
                assert_reads_as(&vp, &ep, true, weighted, &want, &what);
            }
        }
    }
}

#[test]
fn a_first_block_of_blank_or_short_lines_then_long_lines() {
    let scratch = Scratch::new("dense-head");
    let vertices = vertex_file(10_000);
    let vp = scratch.write("g.v", &vertices);
    // Over a block of blank and comment lines, or a block of 10-byte
    // lines, then lines four times as long: the first block's density
    // says little about the rest of the file.
    let blanks = "\n# header\n".repeat(BLOCK / 8);
    let short: String =
        (0..BLOCK / 10).map(|i| format!("{} {} 1\n", 100 + i / 800, 200 + i % 800)).collect();
    let long: String = (0..3 * BLOCK / 44)
        .map(|i| format!("{:019} {:019} 0.5\n", 1000 + i / 1000, 2000 + i % 1000))
        .collect();
    for (kind, head) in [("blank and comment", blanks), ("short", short)] {
        let bytes = (head + &long).into_bytes();
        let ep = scratch.write("g.e", &bytes);
        for directed in [true, false] {
            let want = expected((&vp, &vertices), (&ep, &bytes), directed, true);
            let what = format!("{kind} lines first (directed {directed})");
            assert!(want.is_ok(), "{what}: the reference rejects the file: {want:?}");
            assert_reads_as(&vp, &ep, directed, true, &want, &what);
        }
    }
}

#[test]
fn vertex_files_across_block_boundaries() {
    let scratch = Scratch::new("vertices");
    let edges = b"1 2\n".to_vec();
    let ep = scratch.write("g.e", &edges);
    let kinds: [(&str, &[u8]); 9] = [
        ("blank", b""),
        ("comment", b"# 123456"),
        ("crlf", b"123456\r"),
        ("tabs", b"\t123456\t"),
        ("plus", b"+123456"),
        ("20 digits", b"00000000000000123456"),
        ("non-UTF-8 comment", b"123456 # \xFF"),
        ("non-UTF-8 id", b"12\xC3\x28"),
        ("overflow", b"99999999999999999999"),
    ];
    for (kind, line) in kinds {
        for offset in placements(line.len() + 1) {
            for terminated in [true, false] {
                let mut bytes = Vec::new();
                let start = (2 * BLOCK as isize + offset) as usize;
                let mut v = 0u64;
                while bytes.len() + 16 < start {
                    bytes.extend(format!("{v}\n").as_bytes());
                    v += 1;
                }
                let pad = start - bytes.len() - 1;
                bytes.extend(format!("{:0pad$}\n", v).as_bytes());
                bytes.extend(line);
                if terminated {
                    bytes.push(b'\n');
                    bytes.extend(format!("{}\n", v + 1).as_bytes());
                }
                let vp = scratch.write("g.v", &bytes);
                let want = expected((&vp, &bytes), (&ep, &edges), true, false);
                let what = format!("{kind} at {offset:+} (terminated {terminated})");
                assert_reads_as(&vp, &ep, true, false, &want, &what);
            }
        }
    }
}

#[test]
fn appending_reversed_edges_to_an_undirected_builder_canonicalizes_them() {
    let scratch = Scratch::new("append");
    let mut text = String::new();
    for i in 0..(3 * BLOCK / 12) as u64 {
        let (s, d) = (i % 1000, 1000 + i / 1000);
        text.push_str(&format!("{d} {s} {}\n", (i % 8) as f64 / 2.0));
    }
    let ep = scratch.write("g.e", text.as_bytes());
    let seeded = || {
        let mut b = GraphBuilder::new(false);
        b.set_weighted(true);
        b.add_vertex_range(2000);
        b.add_weighted_edge(1999, 1998, 0.25).add_weighted_edge(1500, 1600, 0.5);
        b
    };
    let mut want = seeded();
    for (s, d, w) in reference_edges(text.as_bytes(), true).unwrap() {
        want.add_weighted_edge(s, d, w);
    }
    let want = want.build().unwrap();
    assert!(want.edges().iter().all(|e| e.src < e.dst));
    assert_eq!(want.edges()[0], Edge::weighted(0, 1000, 0.0));
    let mut b = seeded();
    read_edge_file(&ep, &mut b, true).unwrap();
    assert_eq!(b.pending_edges(), want.edge_count());
    same_graph(&b.build().unwrap(), &want).unwrap();
}
