//! EVL graph file I/O — the exchange format of the Graphalytics benchmark.
//!
//! A dataset is a pair of text files:
//!
//! * a **vertex file** (`.v`): one vertex id per line;
//! * an **edge file** (`.e`): `source target` per line, plus a third
//!   whitespace-separated column with the `f64` weight for weighted graphs.
//!
//! Lines are `\n`-terminated; blank lines and `#` comments are permitted.

use std::io::{BufWriter, Write};
use std::path::Path;

use super::{valid_weight, Edge, Graph, GraphBuilder, VertexId};
use crate::error::{Error, Result};
use crate::pool::WorkerPool;

/// Reads a vertex file into sorted, deduplicated ids.
pub fn read_vertex_file(path: &Path) -> Result<Vec<VertexId>> {
    parse_vertices(&read_text(path)?, &path.display().to_string())
}

/// Reads an edge file, appending edges to `builder`.
///
/// `weighted` selects whether a third column is required (`true`) or
/// forbidden (`false`).
pub fn read_edge_file(path: &Path, builder: &mut GraphBuilder, weighted: bool) -> Result<()> {
    read_edge_file_with(path, builder, weighted, &WorkerPool::inline())
}

/// Reads an edge file on a worker pool: the file is read into memory,
/// split into newline-aligned chunks, parsed in parallel, and appended
/// to `builder` in chunk order — the same edges (and the same
/// first-error line number) at every pool width.
pub fn read_edge_file_with(
    path: &Path,
    builder: &mut GraphBuilder,
    weighted: bool,
    pool: &WorkerPool,
) -> Result<()> {
    parse_edges(&read_text(path)?, &path.display().to_string(), builder, weighted, pool)
}

/// Loads a full graph from a vertex file and an edge file.
pub fn read_graph(vertex_path: &Path, edge_path: &Path, directed: bool, weighted: bool) -> Result<Graph> {
    read_graph_with(vertex_path, edge_path, directed, weighted, &WorkerPool::inline())
}

/// Loads a full graph with parallel edge parsing and a parallel build —
/// the upload path the harness and service use.
pub fn read_graph_with(
    vertex_path: &Path,
    edge_path: &Path,
    directed: bool,
    weighted: bool,
    pool: &WorkerPool,
) -> Result<Graph> {
    let mut builder = GraphBuilder::new(directed);
    builder.set_weighted(weighted);
    for v in read_vertex_file(vertex_path)? {
        builder.add_vertex(v);
    }
    read_edge_file_with(edge_path, &mut builder, weighted, pool)?;
    builder.build_with(pool)
}

/// Writes the vertex file for `g`.
pub fn write_vertex_file(g: &Graph, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for v in g.vertices() {
        writeln!(out, "{v}")?;
    }
    out.flush()?;
    Ok(())
}

/// Writes the edge file for `g` (three columns when the graph is weighted).
pub fn write_edge_file(g: &Graph, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let weighted = g.is_weighted();
    for e in g.edges() {
        if weighted {
            writeln!(out, "{} {} {}", e.src, e.dst, e.weight)?;
        } else {
            writeln!(out, "{} {}", e.src, e.dst)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a file as text. Bytes that are not UTF-8 become U+FFFD, which
/// no id or weight parses from: outside a comment they are the
/// `Error::Parse` of their line (a newline is never part of an invalid
/// sequence, so line numbers hold), not an `io::Error` of the whole file.
fn read_text(path: &Path) -> Result<String> {
    Ok(String::from_utf8(std::fs::read(path)?)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// The lines of `text` with `str::lines`' numbering (a final newline
/// opens no further line), each cut at its `#` comment. Plain byte
/// searches: the lines are too short for a `str::split` searcher to pay.
fn content_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text.strip_suffix('\n').unwrap_or(text));
    std::iter::from_fn(move || {
        let text = rest?;
        let (line, tail) = match text.bytes().position(|b| b == b'\n') {
            Some(end) => (&text[..end], Some(&text[end + 1..])),
            None => (text, None),
        };
        rest = tail;
        Some(&line[..line.bytes().position(|b| b == b'#').unwrap_or(line.len())])
    })
}

/// Vertex ids are almost always plain decimals: those that cannot
/// overflow accumulate inline, everything else (`+5`, 20 digits, junk)
/// takes `str::parse`, whose accept set and error text are the contract.
fn parse_id(token: &str) -> std::result::Result<VertexId, std::num::ParseIntError> {
    if token.len() <= 19 && token.bytes().all(|b| b.is_ascii_digit()) {
        return Ok(token.bytes().fold(0, |id, b| id * 10 + VertexId::from(b - b'0')));
    }
    token.parse()
}

fn parse_vertices(text: &str, file: &str) -> Result<Vec<VertexId>> {
    let mut vertices = Vec::new();
    for (lineno, line) in content_lines(text).enumerate() {
        let content = line.trim_ascii();
        if content.is_empty() {
            continue;
        }
        let v = parse_id(content).map_err(|e| Error::Parse {
            file: file.to_string(),
            line: lineno as u64 + 1,
            message: format!("bad vertex id {content:?}: {e}"),
        })?;
        vertices.push(v);
    }
    vertices.sort_unstable();
    vertices.dedup();
    Ok(vertices)
}

/// Parses one comment-free edge line; `None` for a blank one. The error
/// string carries no line number — the chunk driver attaches it.
fn parse_edge_line(content: &str, weighted: bool) -> std::result::Result<Option<Edge>, String> {
    let mut cols = content.split_ascii_whitespace();
    let Some(src) = cols.next() else {
        return Ok(None);
    };
    let src = parse_id(src).map_err(|e| format!("bad source: {e}"))?;
    let dst = parse_id(cols.next().ok_or("missing target column")?)
        .map_err(|e| format!("bad target: {e}"))?;
    let weight = if weighted {
        let w = cols.next().ok_or("missing weight column")?;
        let w: f64 = w.parse().map_err(|e| format!("bad weight: {e}"))?;
        if !valid_weight(w) {
            return Err(format!("weight {w} is not a finite non-negative number"));
        }
        w
    } else {
        if cols.next().is_some() {
            return Err("unexpected third column in unweighted edge file".to_string());
        }
        1.0
    };
    Ok(Some(Edge::weighted(src, dst, weight)))
}

/// One worker's share of a chunked parse.
struct ChunkParse {
    edges: Vec<Edge>,
    /// Lines consumed (complete only when `error` is `None`).
    lines: usize,
    /// First failure: (line offset within the chunk, message).
    error: Option<(usize, String)>,
}

fn parse_edges(
    text: &str,
    file: &str,
    builder: &mut GraphBuilder,
    weighted: bool,
    pool: &WorkerPool,
) -> Result<()> {
    // Newline-aligned chunk boundaries over the raw bytes.
    let bytes = text.as_bytes();
    let mut bounds = vec![0usize];
    for range in pool.split(bytes.len()) {
        let mut end = range.end;
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        if end > *bounds.last().unwrap() {
            bounds.push(end);
        }
    }
    let chunks: Vec<&str> = bounds.windows(2).map(|w| &text[w[0]..w[1]]).collect();

    // One chunk per pool worker: parse in parallel, splice in order.
    let parsed: Vec<ChunkParse> = pool
        .run(chunks.len(), |_, crange| {
            crange.map(|ci| {
                // At most one edge per line: sized once, never regrown.
                // `u8` lanes vectorize, and 255 bytes cannot overflow one.
                let newlines = |part: &[u8]| part.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>();
                let most: usize =
                    chunks[ci].as_bytes().chunks(255).map(|part| usize::from(newlines(part))).sum();
                let mut chunk =
                    ChunkParse { edges: Vec::with_capacity(most + 1), lines: 0, error: None };
                for (rel, line) in content_lines(chunks[ci]).enumerate() {
                    match parse_edge_line(line, weighted) {
                        Ok(Some(edge)) => chunk.edges.push(edge),
                        Ok(None) => {}
                        Err(message) => {
                            chunk.error = Some((rel, message));
                            break;
                        }
                    }
                    chunk.lines = rel + 1;
                }
                chunk
            }).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    builder.reserve(0, parsed.iter().map(|chunk| chunk.edges.len()).sum());
    let mut base_line = 0usize;
    for chunk in parsed {
        crate::fault::checkpoint(crate::fault::FaultSite::Parse)?;
        if let Some((rel, message)) = chunk.error {
            // Chunks before the first failing one parsed fully, so their
            // line tallies give the exact absolute line number.
            return Err(Error::Parse {
                file: file.to_string(),
                line: (base_line + rel) as u64 + 1,
                message,
            });
        }
        for e in chunk.edges {
            builder.add_weighted_edge(e.src, e.dst, e.weight);
        }
        base_line += chunk.lines;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one scanner on the inline pool, as `read_edge_file` runs it.
    fn parse_inline(text: &str, b: &mut GraphBuilder, weighted: bool) -> Result<()> {
        parse_edges(text, "mem", b, weighted, &WorkerPool::inline())
    }

    #[test]
    fn parse_vertices_handles_comments_and_blanks() {
        let data = "1\n\n# comment\n3\n2\n3\n";
        let v = parse_vertices(data, "mem").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn parse_rejects_garbage() {
        let data = "1\nfoo\n";
        let e = parse_vertices(data, "mem").unwrap_err();
        assert!(e.to_string().contains("mem:2"));
    }

    #[test]
    fn parse_edges_weighted_and_unweighted() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        parse_inline("0 1\n2 3 # tail comment\n", &mut b, false).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);

        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        b.set_weighted(true);
        parse_inline("0 1 2.5\n", &mut b, true).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edges()[0].weight, 2.5);
    }

    #[test]
    fn parse_edges_rejects_bad_columns() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        assert!(parse_inline("0\n", &mut b, false).is_err());
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        assert!(parse_inline("0 1 9.0\n", &mut b, false).is_err());
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        assert!(parse_inline("0 1\n", &mut b, true).is_err());
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        assert!(parse_inline("0 1 -4\n", &mut b, true).is_err());
    }

    #[test]
    fn weights_follow_the_one_rule() {
        for (text, ok) in [
            ("0 1 -0.0\n", true),
            ("0 1 1e308\n", true),
            ("0 1 inf\n", false),
            ("0 1 +infinity\n", false),
            ("0 1 1e999\n", false),
            ("0 1 NaN\n", false),
            ("0 1 -1e-9\n", false),
        ] {
            let mut b = GraphBuilder::new(true);
            b.add_vertex_range(2);
            b.set_weighted(true);
            match parse_inline(text, &mut b, true) {
                Ok(()) => assert!(ok && b.build().is_ok(), "{text:?} accepted"),
                Err(e) => assert!(!ok && e.to_string().contains("mem:1"), "{text:?}: {e}"),
            }
        }
    }

    #[test]
    fn ids_keep_the_accept_set_of_str_parse() {
        let mut b = GraphBuilder::new(true);
        let text = "+5 18446744073709551615\n0007 9999999999999999999\n";
        parse_inline(text, &mut b, false).unwrap();
        b.add_vertex(5).add_vertex(7).add_vertex(u64::MAX).add_vertex(9_999_999_999_999_999_999);
        let g = b.build().unwrap();
        assert_eq!(g.edges()[0], Edge::new(5, u64::MAX));
        assert_eq!(g.edges()[1], Edge::new(7, 9_999_999_999_999_999_999));
        for (text, message) in [
            ("1 18446744073709551616\n", "bad target: number too large to fit in target type"),
            ("-1 2\n", "bad source: invalid digit found in string"),
            ("1 2x\n", "bad target: invalid digit found in string"),
            ("1\n", "missing target column"),
        ] {
            let err = parse_inline(text, &mut GraphBuilder::new(true), false).unwrap_err();
            assert!(err.to_string().ends_with(message), "{text:?}: {err}");
        }
    }

    #[test]
    fn non_utf8_token_is_a_parse_error_with_its_line() {
        let path = std::env::temp_dir().join(format!("galy-io-utf8-{}", std::process::id()));
        // Invalid bytes inside a comment are skipped like any comment.
        std::fs::write(&path, b"0 1 # \xFF\n2 \xC3\x28\n").unwrap();
        let err = read_edge_file(&path, &mut GraphBuilder::new(true), false).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("bad target: invalid digit found in string"), "{err}");
        std::fs::write(&path, b"1\n\n\xFF\xFE\n").unwrap();
        let err = read_vertex_file(&path).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 3, .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_parse_matches_sequential() {
        // Enough lines that every pool width actually splits the text.
        let mut text = String::from("# header comment\n");
        for i in 0..500u64 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 501));
            if i % 97 == 0 {
                text.push('\n'); // blank lines survive chunking
            }
        }
        let sequential = {
            let mut b = GraphBuilder::new(true);
            b.add_vertex_range(501);
            parse_inline(&text, &mut b, false).unwrap();
            b.build().unwrap()
        };
        for threads in [1u32, 2, 5] {
            let pool = WorkerPool::new(threads);
            let mut b = GraphBuilder::new(true);
            b.add_vertex_range(501);
            parse_edges(&text, "mem", &mut b, false, &pool).unwrap();
            let g = b.build_with(&pool).unwrap();
            assert_eq!(g.edges(), sequential.edges(), "threads={threads}");
        }
    }

    #[test]
    fn chunked_parse_reports_exact_error_line() {
        let mut text = String::new();
        for i in 0..300u64 {
            text.push_str(&format!("{} {}\n", i, i + 1));
        }
        text.push_str("not an edge\n"); // line 301
        for i in 0..300u64 {
            text.push_str(&format!("{} {}\n", i + 400, i + 401));
        }
        for threads in [1u32, 4] {
            let pool = WorkerPool::new(threads);
            let mut b = GraphBuilder::new(true);
            let err = parse_edges(&text, "mem", &mut b, false, &pool).unwrap_err();
            assert!(err.to_string().contains("mem:301"), "threads={threads}: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("galy-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = GraphBuilder::new(false);
        b.set_weighted(true);
        for v in [7u64, 3, 9] {
            b.add_vertex(v);
        }
        b.add_weighted_edge(7, 3, 0.5);
        b.add_weighted_edge(9, 7, 1.25);
        let g = b.build().unwrap();

        let vp = dir.join("g.v");
        let ep = dir.join("g.e");
        write_vertex_file(&g, &vp).unwrap();
        write_edge_file(&g, &ep).unwrap();
        let g2 = read_graph(&vp, &ep, false, true).unwrap();
        assert_eq!(g2.vertices(), g.vertices());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.edges()[0].weight, g.edges()[0].weight);
        std::fs::remove_dir_all(&dir).ok();
    }
}
