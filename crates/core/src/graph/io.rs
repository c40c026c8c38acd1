//! EVL graph file I/O — the exchange format of the Graphalytics benchmark.
//!
//! A dataset is a pair of text files:
//!
//! * a **vertex file** (`.v`): one vertex id per line;
//! * an **edge file** (`.e`): `source target` per line, plus a third
//!   whitespace-separated column with the `f64` weight for weighted graphs.
//!
//! Lines are `\n`-terminated; blank lines and `#` comments are permitted.
//!
//! Both files stream through one reused buffer ([`Blocks`]): each read
//! takes the next [`BLOCK`] bytes of the file and hands on the whole
//! lines so far, so a load holds one block of text at a time, never the
//! file. An edge block is split into newline-aligned pieces parsed on
//! the pool, each worker writing its edges straight into the builder's
//! edge list at an offset taken from the pieces' newline counts.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::mem::MaybeUninit;
use std::path::Path;

use super::{valid_weight, Edge, Graph, GraphBuilder, VertexId};
use crate::error::{Error, Result};
use crate::fault::{checkpoint, FaultSite};
use crate::pool::{SharedSlice, WorkerPool};

/// Bytes of file text per read.
const BLOCK: usize = 1 << 18;

/// Room for the partial line a block carries into the next read.
const LINE: usize = 1 << 12;

/// Reads a vertex file into sorted, deduplicated ids.
pub fn read_vertex_file(path: &Path) -> Result<Vec<VertexId>> {
    let mut vertices = Vec::new();
    read_vertices_into(path, &mut vertices)?;
    vertices.sort_unstable();
    vertices.dedup();
    Ok(vertices)
}

/// Reads an edge file, appending edges to `builder`.
///
/// `weighted` selects whether a third column is required (`true`) or
/// forbidden (`false`).
pub fn read_edge_file(path: &Path, builder: &mut GraphBuilder, weighted: bool) -> Result<()> {
    read_edge_file_with(path, builder, weighted, &WorkerPool::inline())
}

/// Reads an edge file on a worker pool: each block's newline-aligned
/// pieces are parsed in parallel into the builder's edge list in file
/// order — the same edges (and the same first-error line number) at
/// every pool width.
pub fn read_edge_file_with(
    path: &Path,
    builder: &mut GraphBuilder,
    weighted: bool,
    pool: &WorkerPool,
) -> Result<()> {
    let directed = builder.is_directed();
    let edges = builder.edges_mut();
    let mut parser = EdgeParser::new(path.display().to_string(), directed, weighted, edges.len());
    let mut blocks = Blocks::open(path)?;
    let file_len = blocks.file_len;
    while let Some(block) = blocks.next()? {
        parser.block(block, file_len, edges, pool)?;
    }
    // Lines much shorter at the start of the file than later leave the
    // estimate high: a list more than a quarter unused is cut to size.
    if edges.capacity() - edges.len() > edges.len() / 4 {
        edges.shrink_to_fit();
    }
    Ok(())
}

/// Loads a full graph from a vertex file and an edge file.
pub fn read_graph(
    vertex_path: &Path,
    edge_path: &Path,
    directed: bool,
    weighted: bool,
) -> Result<Graph> {
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
    read_vertices_into(vertex_path, builder.vertices_mut())?;
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

/// A file read `BLOCK` bytes at a time through one buffer. Each
/// [`next`](Blocks::next) is the whole lines read so far: up to the last
/// newline of the latest block (a line longer than a block waits for
/// the block that ends it, growing the buffer), and at the end of the
/// file whatever remains, final newline or not.
struct Blocks {
    file: File,
    file_len: u64,
    buf: Vec<u8>,
    /// Bytes of `buf` read but not yet handed on (a partial line).
    carry: usize,
    /// The start of the carry, handed on by the last `next`.
    done: usize,
    eof: bool,
}

impl Blocks {
    fn open(path: &Path) -> Result<Blocks> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        // A block and the partial line before it; a longer line grows it.
        let buf = vec![0; BLOCK + LINE];
        Ok(Blocks { file, file_len, buf, carry: 0, done: 0, eof: false })
    }

    fn next(&mut self) -> Result<Option<&[u8]>> {
        self.buf.copy_within(self.done..self.done + self.carry, 0);
        self.done = 0;
        while !self.eof {
            let start = self.carry;
            if self.buf.len() < start + BLOCK {
                self.buf.resize(start + BLOCK, 0);
            }
            let read = self.fill(start)?;
            self.carry += read;
            self.eof = read < BLOCK;
            // The carry holds no newline, so only the new bytes can end it.
            if let Some(last) = self.buf[start..self.carry].iter().rposition(|&b| b == b'\n') {
                self.done = start + last + 1;
                self.carry -= self.done;
                return Ok(Some(&self.buf[..self.done]));
            }
        }
        (self.done, self.carry) = (self.carry, 0);
        Ok((self.done > 0).then(|| &self.buf[..self.done]))
    }

    /// Reads up to one block into `buf[start..]`; short only at the end
    /// of the file.
    fn fill(&mut self, start: usize) -> Result<usize> {
        let block = &mut self.buf[start..start + BLOCK];
        let mut read = 0;
        while read < BLOCK {
            match self.file.read(&mut block[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(read)
    }
}

/// Makes room in `list` for a block of `lines` lines, each of which may
/// add one entry, of a `file_len`-byte file whose first `read` bytes
/// added `kept` entries. A block that does not fit reserves the rest of
/// the file at the entries kept per byte so far, plus a sixteenth of
/// those kept, and at least its own lines: the first block reserves
/// just its lines, and blank and comment lines, which keep nothing, do
/// not raise the estimate. The list never regrows by doubling.
fn reserve_lines<T>(list: &mut Vec<T>, lines: usize, file_len: u64, (read, kept): (u64, usize)) {
    if list.capacity() - list.len() >= lines {
        return;
    }
    let rest = file_len.saturating_sub(read);
    let rest = (kept as u128 * u128::from(rest) / u128::from(read.max(1))) as usize;
    list.reserve_exact((rest + kept / 16).max(lines));
}

/// Lines in whole lines of text, the last one possibly unterminated:
/// its newlines, counted in `u8` lanes that vectorize (255 bytes cannot
/// overflow one).
fn line_count(text: &[u8]) -> usize {
    let count = |part: &[u8]| part.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>();
    let newlines: usize = text.chunks(255).map(|part| usize::from(count(part))).sum();
    newlines + usize::from(text.last().is_some_and(|&b| b != b'\n'))
}

/// A line cut at its `#` comment and decoded lossily: a byte that is
/// not UTF-8 becomes U+FFFD, which no id or weight parses from, so
/// outside a comment it is the `Error::Parse` of its line, not an
/// `io::Error` of the file. A newline or `#` is never part of an
/// invalid sequence, so a line decodes as it would in the whole file.
fn content_line(line: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(&line[..line.iter().position(|&b| b == b'#').unwrap_or(line.len())])
}

/// The lines of `block` with `str::lines`' numbering: a final newline
/// opens no further line.
fn lines(block: &[u8]) -> impl Iterator<Item = &[u8]> {
    block.strip_suffix(b"\n").unwrap_or(block).split(|&b| b == b'\n')
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

/// Appends the ids of a vertex file to `vertices`, in file order.
fn read_vertices_into(path: &Path, vertices: &mut Vec<VertexId>) -> Result<()> {
    let file = path.display().to_string();
    let mut blocks = Blocks::open(path)?;
    let file_len = blocks.file_len;
    let (first, mut read, mut line) = (vertices.len(), 0, 0);
    while let Some(block) = blocks.next()? {
        reserve_lines(vertices, line_count(block), file_len, (read, vertices.len() - first));
        read += block.len() as u64;
        parse_vertices(block, &file, &mut line, vertices)?;
    }
    Ok(())
}

/// Parses the whole lines `block`, the first numbered `*line + 1`.
fn parse_vertices(block: &[u8], file: &str, line: &mut u64, out: &mut Vec<VertexId>) -> Result<()> {
    for raw in lines(block) {
        *line += 1;
        let content = content_line(raw);
        let content = content.trim_ascii();
        if content.is_empty() {
            continue;
        }
        let v = parse_id(content).map_err(|e| Error::Parse {
            file: file.to_string(),
            line: *line,
            message: format!("bad vertex id {content:?}: {e}"),
        })?;
        out.push(v);
    }
    Ok(())
}

/// Parses one comment-free edge line; `None` for a blank one. The error
/// string carries no line number — `EdgeParser::block` attaches it.
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

/// A decimal of 1 to 19 digits at `bytes[*at..]` (19 cannot overflow),
/// advancing `at` past it.
#[inline]
fn fast_id(bytes: &[u8], at: &mut usize) -> Option<VertexId> {
    let start = *at;
    let mut id: VertexId = 0;
    while let Some(digit) = bytes.get(*at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        if *at - start == 19 {
            return None;
        }
        id = id * 10 + VertexId::from(digit);
        *at += 1;
    }
    (*at > start).then_some(id)
}

/// The one fast path: a line `digits SP digits [SP token] LF` at
/// `bytes[at..]`, ids of at most 19 digits, the token an ASCII run
/// without whitespace or `#` that `f64::from_str` parses to a
/// [`valid_weight`]. On exactly those lines [`parse_edge_line`] reads
/// the same three tokens the same way; every other line is `None` and
/// goes to it. Returns the edge and the start of the next line.
#[inline]
fn fast_edge(bytes: &[u8], mut at: usize, weighted: bool) -> Option<(Edge, usize)> {
    let src = fast_id(bytes, &mut at)?;
    (bytes.get(at) == Some(&b' ')).then_some(())?;
    at += 1;
    let dst = fast_id(bytes, &mut at)?;
    let mut weight = 1.0;
    if weighted {
        (bytes.get(at) == Some(&b' ')).then_some(())?;
        at += 1;
        let start = at;
        while bytes.get(at).is_some_and(|&b| b > b' ' && b < 0x80 && b != b'#') {
            at += 1;
        }
        // ASCII, so this is the token's text.
        weight = std::str::from_utf8(&bytes[start..at]).ok()?.parse().ok()?;
        valid_weight(weight).then_some(())?;
    }
    (bytes.get(at) == Some(&b'\n')).then_some((Edge::weighted(src, dst, weight), at + 1))
}

/// One newline-aligned piece of a block and what its worker made of it.
#[derive(Default)]
struct Piece {
    start: usize,
    end: usize,
    /// Lines before this piece in its block, and in it. Line `i` of the
    /// block may fill slot `i` of the edge list's spare capacity.
    first_line: usize,
    lines: usize,
    written: usize,
    /// First failure: (line offset within the piece, message).
    error: Option<(usize, String)>,
}

/// An edge file's scan state across blocks.
struct EdgeParser {
    file: String,
    directed: bool,
    weighted: bool,
    /// Edges in the list before this file's.
    first: usize,
    /// Bytes and lines in the blocks already parsed.
    bytes: u64,
    lines: usize,
    pieces: Vec<Piece>,
}

impl EdgeParser {
    fn new(file: String, directed: bool, weighted: bool, first: usize) -> EdgeParser {
        EdgeParser { file, directed, weighted, first, bytes: 0, lines: 0, pieces: Vec::new() }
    }

    /// Parses the whole lines `block` of a `file_len`-byte file into
    /// `edges` on `pool`.
    fn block(
        &mut self,
        block: &[u8],
        file_len: u64,
        edges: &mut Vec<Edge>,
        pool: &WorkerPool,
    ) -> Result<()> {
        // Newline-aligned pieces, one per pool worker, with their line
        // counts (an unterminated last line counts too).
        self.pieces.clear();
        let (mut start, mut first_line) = (0, 0);
        for range in pool.split(block.len()) {
            let mut end = range.end.max(start);
            while end < block.len() && block[end - 1] != b'\n' {
                end += 1;
            }
            if end > start {
                let lines = line_count(&block[start..end]);
                self.pieces.push(Piece { start, end, first_line, lines, ..Piece::default() });
                (start, first_line) = (end, first_line + lines);
            }
        }
        let lines = first_line;
        reserve_lines(edges, lines, file_len, (self.bytes, edges.len() - self.first));
        self.bytes += block.len() as u64;

        let spare = SharedSlice::new(edges.spare_capacity_mut().as_mut_ptr());
        let pieces = SharedSlice::new(self.pieces.as_mut_ptr());
        let (directed, weighted) = (self.directed, self.weighted);
        pool.run(self.pieces.len(), |_, range| {
            for p in range {
                // SAFETY: piece p and its slots belong to this task alone.
                let piece = unsafe { pieces.at(p) };
                let slots = unsafe { spare.slice_mut(piece.first_line, piece.lines) };
                parse_piece(&block[piece.start..piece.end], slots, directed, weighted, piece);
            }
        });

        // In file order: a checkpoint per piece, the first error, and
        // each piece's edges moved down over the slots of the blank and
        // comment lines before it.
        let mut len = edges.len();
        let outcome = self.pieces.iter().try_for_each(|piece| {
            checkpoint(FaultSite::Parse)?;
            if let Some((rel, message)) = &piece.error {
                return Err(Error::Parse {
                    file: self.file.clone(),
                    line: (self.lines + piece.first_line + rel) as u64 + 1,
                    message: message.clone(),
                });
            }
            let from = edges.len() + piece.first_line;
            if from > len {
                // SAFETY: slots `from..from + written` were written by the
                // piece's task; `len < from`, as each piece before wrote
                // at most one edge per line.
                unsafe {
                    let base = edges.as_mut_ptr();
                    std::ptr::copy(base.add(from), base.add(len), piece.written);
                }
            }
            len += piece.written;
            Ok(())
        });
        // SAFETY: `..len` holds the old edges and the pieces' before the
        // first failure, packed.
        unsafe { edges.set_len(len) };
        self.lines += lines;
        outcome
    }
}

/// Parses one piece (whole lines) into `slots`, one edge per line at
/// most, recording what it wrote or the first bad line in `piece`.
fn parse_piece(
    bytes: &[u8],
    slots: &mut [MaybeUninit<Edge>],
    directed: bool,
    weighted: bool,
    piece: &mut Piece,
) {
    let (mut at, mut line, mut written) = (0, 0, 0);
    while at < bytes.len() {
        let (edge, next) = match fast_edge(bytes, at, weighted) {
            Some((edge, next)) => (Some(edge), next),
            None => {
                let end =
                    bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| at + i);
                match parse_edge_line(&content_line(&bytes[at..end]), weighted) {
                    Ok(edge) => (edge, end + 1),
                    Err(message) => {
                        piece.error = Some((line, message));
                        break;
                    }
                }
            }
        };
        if let Some(e) = edge {
            slots[written].write(GraphBuilder::canonical(directed, e.src, e.dst, e.weight));
            written += 1;
        }
        (at, line) = (next, line + 1);
    }
    piece.written = written;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `text` as the one block of a file on `pool`.
    fn parse_edges(
        text: &str,
        b: &mut GraphBuilder,
        weighted: bool,
        pool: &WorkerPool,
    ) -> Result<()> {
        let mut parser = EdgeParser::new("mem".into(), b.is_directed(), weighted, 0);
        parser.block(text.as_bytes(), text.len() as u64, b.edges_mut(), pool)
    }

    /// The one scanner on the inline pool, as `read_edge_file` runs it.
    fn parse_inline(text: &str, b: &mut GraphBuilder, weighted: bool) -> Result<()> {
        parse_edges(text, b, weighted, &WorkerPool::inline())
    }

    fn vertices_of(text: &str) -> Result<Vec<VertexId>> {
        let mut vertices = Vec::new();
        parse_vertices(text.as_bytes(), "mem", &mut 0, &mut vertices)?;
        vertices.sort_unstable();
        vertices.dedup();
        Ok(vertices)
    }

    #[test]
    fn parse_vertices_handles_comments_and_blanks() {
        let data = "1\n\n# comment\n3\n2\n3\n";
        assert_eq!(vertices_of(data).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn parse_rejects_garbage() {
        let data = "1\nfoo\n";
        let e = vertices_of(data).unwrap_err();
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
        for (text, weighted) in
            [("0\n", false), ("0 1 9.0\n", false), ("0 1\n", true), ("0 1 -4\n", true)]
        {
            let mut b = GraphBuilder::new(true);
            b.add_vertex_range(2);
            assert!(parse_inline(text, &mut b, weighted).is_err(), "{text:?}");
        }
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
    fn the_fast_path_takes_only_its_own_lines() {
        let fast = |line: &str, weighted| fast_edge(line.as_bytes(), 0, weighted).map(|(e, _)| e);
        assert_eq!(fast("12 34\n", false), Some(Edge::new(12, 34)));
        assert_eq!(fast("12 34 0.5\n", true), Some(Edge::weighted(12, 34, 0.5)));
        assert_eq!(
            fast("9999999999999999999 0\n", false),
            Some(Edge::new(9_999_999_999_999_999_999, 0))
        );
        for (line, weighted) in [
            ("12 34", false),
            ("12 34\r\n", false),
            ("12  34\n", false),
            ("12\t34\n", false),
            ("+1 2\n", false),
            ("12 34 5\n", false),
            ("10000000000000000000 1\n", false),
            ("12 34\n", true),
            ("12 34 0.5 \n", true),
            ("12 34 0.5#\n", true),
            ("12 34 -1\n", true),
            ("12 34 inf\n", true),
            ("12 34 x\n", true),
        ] {
            assert_eq!(fast(line, weighted), None, "{line:?}");
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
    fn lines_that_keep_nothing_reserve_nothing_ahead() {
        // The first block reserves its lines, whatever the file's length.
        let mut list: Vec<Edge> = Vec::new();
        reserve_lines(&mut list, 100, 1 << 40, (0, 0));
        assert!(list.capacity() < 200, "{}", list.capacity());
        // A block of blank and comment lines kept nothing: the next block
        // gets its own lines, not the file's at their density.
        list.clear();
        reserve_lines(&mut list, 300, 1 << 40, (BLOCK as u64, 0));
        assert!(list.capacity() < 600, "{}", list.capacity());
        // 1000 entries kept in the first 10 000 of 100 000 bytes: 9000
        // more expected, and a sixteenth of the 1000.
        let mut list = vec![Edge::new(0, 1); 1000];
        reserve_lines(&mut list, 500, 100_000, (10_000, 1000));
        assert!((10_062..10_100).contains(&list.capacity()), "{}", list.capacity());
    }

    #[test]
    fn a_file_that_starts_dense_keeps_little_spare_capacity() {
        let path = std::env::temp_dir().join(format!("galy-io-dense-{}", std::process::id()));
        let long: String = (0..4 * BLOCK / 52)
            .map(|i| format!("{:019} {:019} 0.123456789\n", 2 * i, 2 * i + 1))
            .collect();
        // A first block of blank and comment lines, or of the shortest
        // edge lines, then lines eight times as long.
        let blanks = "\n# header\n".repeat(BLOCK / 5);
        let short = "1 2 3\n".repeat(BLOCK / 6);
        for head in [blanks, short] {
            std::fs::write(&path, head.clone() + &long).unwrap();
            let mut b = GraphBuilder::new(true);
            read_edge_file_with(&path, &mut b, true, &WorkerPool::new(2)).unwrap();
            let edges = b.edges_mut();
            let head_edges = head.lines().filter(|l| l.starts_with('1')).count();
            assert_eq!(edges.len(), head_edges + long.lines().count());
            assert!(edges.capacity() - edges.len() <= edges.len() / 4, "{}", edges.capacity());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_parse_matches_sequential() {
        // Enough lines that every pool width actually splits the text.
        let mut text = String::from("# header comment\n");
        for i in 0..500u64 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 501));
            if i % 97 == 0 {
                text.push('\n'); // blank lines survive the split
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
            parse_edges(&text, &mut b, false, &pool).unwrap();
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
            let err = parse_edges(&text, &mut b, false, &pool).unwrap_err();
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
