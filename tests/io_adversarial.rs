//! `graph::io` against hostile bytes: the edge-file scanner must agree
//! with a line-by-line reference built from `str::lines` +
//! `split_ascii_whitespace` + `str::parse` at every pool width (same
//! edges, or the same `file:line` error), must never panic on arbitrary
//! bytes, and must name the exact line of a failure wherever it falls
//! relative to the chunk boundaries.

use std::path::PathBuf;

use graphalytics::core::graph::{read_edge_file, read_edge_file_with, read_vertex_file};
use graphalytics::core::pool::WorkerPool;
use graphalytics::core::Error;
use graphalytics::prelude::*;
use proptest::prelude::*;

const WIDTHS: [u32; 3] = [1, 2, 5];

/// A scratch file private to one test (tests run on parallel threads).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        Scratch(std::env::temp_dir().join(format!("galy-ioadv-{}-{test}", std::process::id())))
    }

    fn write(&self, bytes: &[u8]) -> &PathBuf {
        std::fs::write(&self.0, bytes).unwrap();
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

type RawEdge = (u64, u64, f64);

/// What the edge-file format means, one line at a time: the edges, or
/// the 1-based line and message of the first bad line.
fn reference(text: &str, weighted: bool) -> Result<Vec<RawEdge>, (u64, String)> {
    let mut edges = Vec::new();
    for (i, line) in text.lines().enumerate() {
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

/// Declares every endpoint and builds with deduplication, so two edge
/// multisets compare through the public `Graph` surface.
fn finish(mut b: GraphBuilder, edges: &[RawEdge]) -> Graph {
    b.set_weighted(true).dedup_edges(true);
    for &(s, d, _) in edges {
        b.add_vertex(s).add_vertex(d);
    }
    b.build().unwrap()
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn pick<'a, T>(rng: &mut Lcg, from: &'a [T]) -> &'a T {
    &from[rng.below(from.len() as u64) as usize]
}

/// One random line without its terminator; `hostile` permits the kinds
/// that must be rejected (or are accepted only by `str::parse`'s rules).
fn random_line(rng: &mut Lcg, weighted: bool, hostile: bool) -> String {
    let (s, d) = (rng.below(50), rng.below(50));
    if s == d {
        return String::new();
    }
    let w = if weighted { format!(" {}", rng.below(64) as f64 / 8.0) } else { String::new() };
    match rng.below(if hostile { 25 } else { 8 }) {
        0 => format!("# {s} {d}"),
        1 => "   \t ".into(),
        2 => format!("\t{s}\t\t{d}{w}\t"),
        3 => format!("  {s}   {d}{w} # tail"),
        4 => format!("{s} {d}{w}#tail"),
        5 => format!("+{s} 000{d}{w}"),
        6 | 7 => format!("{s} {d}{w}"),
        8 => format!("{s} {d} 1.5 extra columns"),
        9 => format!("{s} {d} 2"),
        10 => format!("{s} {d}"),
        11 => format!("{s}"),
        12 => format!("99999999999999999999 {d}{w}"),
        13 => format!("{s} 18446744073709551616{w}"),
        14 => format!("{s} 18446744073709551615{w}"),
        15 => format!("-{s} {d}{w}"),
        16 => format!("{s} {d}x{w}"),
        17 => format!("{s} {d} -1"),
        18 => format!("{s} {d} inf"),
        19 => format!("{s} {d} NaN"),
        20 => format!("{s} {d} 1e400"),
        21 => format!("{s} {d} 0x10"),
        22 => format!("{s},{d}{w}"),
        // Whitespace that is not ASCII whitespace is part of its token.
        23 => format!("\u{a0}{s} {d}{w}\u{b}"),
        24 => format!("{s}\u{a0}{d}{w}"),
        _ => format!("é {d}{w}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) The scanner equals the reference on random mixes of valid and
    /// invalid lines, CRLF or LF, with or without a final newline.
    fn scanner_matches_line_reference(
        seed in 0u64..u64::MAX,
        lines in 0usize..300,
        weighted in proptest::bool::ANY,
        crlf in proptest::bool::ANY,
        final_newline in proptest::bool::ANY,
        hostile_every in 1u64..400,
    ) {
        let mut rng = Lcg(seed);
        let mut text = String::new();
        for i in 0..lines {
            let hostile = rng.below(hostile_every) == 0;
            text.push_str(&random_line(&mut rng, weighted, hostile));
            if i + 1 < lines || final_newline {
                text.push_str(if crlf { "\r\n" } else { "\n" });
            }
        }
        let scratch = Scratch::new("differential");
        let path = scratch.write(text.as_bytes());
        let expected = reference(&text, weighted);
        let mut runs: Vec<(String, GraphBuilder, graphalytics::core::Result<()>)> = Vec::new();
        for threads in WIDTHS {
            let mut b = GraphBuilder::new(true);
            let outcome = read_edge_file_with(path, &mut b, weighted, &WorkerPool::new(threads));
            runs.push((format!("width {threads}"), b, outcome));
        }
        let mut b = GraphBuilder::new(true);
        let outcome = read_edge_file(path, &mut b, weighted);
        runs.push(("read_edge_file".into(), b, outcome));
        for (how, b, outcome) in runs {
            match (&expected, outcome) {
                (Ok(edges), Ok(())) => {
                    prop_assert_eq!(b.pending_edges(), edges.len(), "{}", how);
                    let mut twin = GraphBuilder::new(true);
                    for &(s, d, w) in edges {
                        twin.add_weighted_edge(s, d, w);
                    }
                    let (built, expected) = (finish(b, edges), finish(twin, edges));
                    prop_assert_eq!(built.edges(), expected.edges(), "{}", how);
                }
                (Err((line, message)), Err(e)) => prop_assert_eq!(
                    e.to_string(),
                    format!("parse error in {}:{line}: {message}", path.display()),
                    "{}", how
                ),
                (expected, outcome) => panic!("{how}: expected {expected:?}, got {outcome:?}"),
            }
        }
    }

    /// (b) Arbitrary bytes never panic, and an error names a line the
    /// input has.
    fn arbitrary_bytes_never_panic(
        seed in 0u64..u64::MAX,
        len in 0usize..2000,
        alphabet in 0u32..3,
        weighted in proptest::bool::ANY,
    ) {
        let mut rng = Lcg(seed);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match alphabet {
                0 => rng.below(256) as u8,
                1 => *pick(&mut rng, b"0123456789 \n\n\t#+-.e\r\0\xFF\xC3"),
                _ => *pick(&mut rng, b"01 \n"),
            })
            .collect();
        assert_error_names_a_line(&bytes, weighted, "arbitrary");
    }
}

fn assert_error_names_a_line(bytes: &[u8], weighted: bool, test: &str) {
    let scratch = Scratch::new(test);
    let path = scratch.write(bytes);
    let line_count = bytes.iter().filter(|&&b| b == b'\n').count() as u64 + 1;
    let mut first: Option<String> = None;
    for threads in WIDTHS {
        let mut b = GraphBuilder::new(false);
        let outcome = read_edge_file_with(path, &mut b, weighted, &WorkerPool::new(threads));
        let shown = match outcome {
            Ok(()) => format!("ok, {} edges", b.pending_edges()),
            Err(Error::Parse { line, message, .. }) => {
                assert!((1..=line_count).contains(&line), "line {line} of {line_count}");
                format!("{line}: {message}")
            }
            Err(other) => panic!("not a parse error: {other}"),
        };
        assert_eq!(first.get_or_insert(shown.clone()), &shown, "width {threads}");
    }
    match read_vertex_file(path) {
        Ok(_) => {}
        Err(Error::Parse { line, .. }) => assert!((1..=line_count).contains(&line)),
        Err(other) => panic!("not a parse error: {other}"),
    }
}

#[test]
fn megabyte_lines_are_just_lines() {
    // An id of a million digits overflows; a million junk bytes are one
    // bad token; a million-byte comment is skipped. None has a newline
    // for the chunker to find until the very end.
    let digits = [b"1 ".as_slice(), &vec![b'9'; 1 << 20], b"\n3 4\n"].concat();
    let junk = [b"5 6\n".as_slice(), &vec![0xFFu8; 1 << 20]].concat();
    let comment = [b"5 6 #".as_slice(), &vec![0u8; 1 << 20], b"\n7 8"].concat();
    for (bytes, line) in [(digits, Some(1)), (junk, Some(2)), (comment, None)] {
        assert_error_names_a_line(&bytes, false, "megabyte");
        let scratch = Scratch::new("megabyte-line");
        let mut b = GraphBuilder::new(true);
        let path = scratch.write(&bytes);
        let outcome = read_edge_file_with(path, &mut b, false, &WorkerPool::new(2));
        match (outcome, line) {
            (Ok(()), None) => assert_eq!(b.pending_edges(), 2),
            (Err(Error::Parse { line, .. }), Some(expected)) => assert_eq!(line, expected),
            (outcome, _) => panic!("{outcome:?}"),
        }
    }
}

/// (c) The bad line at every position of a file of equal-length lines:
/// first and last line of every chunk at every width, the last line of
/// the last chunk with and without its newline.
#[test]
fn failure_on_every_line_names_that_line() {
    const LINES: usize = 40;
    let scratch = Scratch::new("boundary");
    for bad in 0..LINES {
        for final_newline in [true, false] {
            let mut text = String::new();
            for i in 0..LINES {
                // 8 bytes a line: 40 lines split evenly at widths 1, 2, 4, 5.
                let good = format!("{i:03} {:03}\n", i + 1);
                text.push_str(if i == bad { "xxx yyy\n" } else { &good });
            }
            if !final_newline {
                text.pop();
            }
            let path = scratch.write(text.as_bytes());
            for threads in 1..=5 {
                let mut b = GraphBuilder::new(true);
                let err = read_edge_file_with(path, &mut b, false, &WorkerPool::new(threads))
                    .unwrap_err();
                let expected = format!(":{}: bad source: invalid digit found in string", bad + 1);
                assert!(err.to_string().ends_with(&expected), "width {threads}: {err}");
            }
        }
    }
}
