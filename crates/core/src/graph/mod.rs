//! The Graphalytics graph data model (Section 2.2.1).
//!
//! A graph is a set of vertices, each identified by a unique (sparse) integer,
//! and a set of edges between distinct vertices. Graphs are directed or
//! undirected; every edge is unique (for undirected graphs, unique up to
//! orientation); vertices and edges may carry properties — the benchmark
//! itself only uses `f64` edge weights (for SSSP).
//!
//! Two representations are provided:
//!
//! * [`Graph`] — vertex list + edge list, the exchange format produced by
//!   generators and file loaders and consumed by platform "upload" phases;
//! * [`Csr`] — compressed sparse row adjacency (both directions), the format
//!   the reference implementations and the engines compute on.

mod builder;
mod csr;
mod delta;
mod io;
mod sharded;
mod stats;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use delta::{
    random_batch, ApplyOutcome, DeltaConfig, DeltaStats, MergedEdges, MutableGraph, MutationBatch,
};
pub use sharded::ShardedCsr;
pub use io::{
    read_edge_file, read_edge_file_with, read_graph, read_graph_with, read_vertex_file,
    write_edge_file, write_vertex_file,
};
pub use stats::GraphStats;

use crate::error::{Error, Result};

/// Sparse vertex identifier as it appears in datasets (unique integer).
pub type VertexId = u64;

/// A directed or undirected edge with an optional weight.
///
/// For undirected graphs the stored orientation is canonical
/// (`src < dst`); [`GraphBuilder`] enforces this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    /// Edge weight, finite and non-negative. Unweighted graphs use 1.0.
    pub weight: f64,
}

impl Edge {
    /// An unweighted edge (weight 1.0).
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst, weight: 1.0 }
    }

    /// A weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: f64) -> Self {
        Edge { src, dst, weight }
    }
}

/// The one weight rule of the data model, shared by the file parser,
/// [`Graph::validate`] and [`MutableGraph::apply`]'s batch check: finite and
/// non-negative (`-0.0` is zero). An infinite weight would make SSSP's
/// "reachable at ∞" indistinguishable from unreachable.
pub(crate) fn valid_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// The hashmap-free sparse-id → dense-index map, classified once from a
/// sorted, duplicate-free vertex-id list; [`Graph::validate`] tests
/// endpoint membership with it and the CSR build remaps endpoints.
pub(crate) enum Remap<'a> {
    /// Ids are exactly `lo..lo + n`: remap is a subtraction.
    Offset { lo: u64, n: u64 },
    /// Small id span: direct lookup table (`u32::MAX` = absent).
    Table { lo: u64, table: Vec<u32> },
    /// Sparse ids over a wide span: binary search.
    Search(&'a [VertexId]),
}

impl<'a> Remap<'a> {
    pub(crate) fn new(ids: &'a [VertexId]) -> Remap<'a> {
        let n = ids.len();
        if n == 0 {
            return Remap::Offset { lo: 0, n: 0 };
        }
        let (lo, hi) = (ids[0], ids[n - 1]);
        // Ids spanning (nearly) the whole u64 range overflow the span
        // computation; they can only ever be the binary-search case.
        let Some(span) = (hi - lo).checked_add(1) else {
            return Remap::Search(ids);
        };
        if span == n as u64 {
            return Remap::Offset { lo, n: n as u64 };
        }
        // A table costs 4 bytes per id in the span; accept a modest
        // blow-up over the (4 bytes × n) ideal before falling back.
        if span <= (4 * n as u64).max(1 << 16) {
            let mut table = vec![u32::MAX; span as usize];
            for (i, &v) in ids.iter().enumerate() {
                table[(v - lo) as usize] = i as u32;
            }
            return Remap::Table { lo, table };
        }
        Remap::Search(ids)
    }

    #[inline]
    pub(crate) fn index_of(&self, v: VertexId) -> Option<u32> {
        match self {
            Remap::Offset { lo, n } => {
                v.checked_sub(*lo).filter(|d| d < n).map(|d| d as u32)
            }
            Remap::Table { lo, table } => {
                let d = v.checked_sub(*lo)?;
                table.get(d as usize).copied().filter(|&i| i != u32::MAX)
            }
            Remap::Search(ids) => ids.binary_search(&v).ok().map(|i| i as u32),
        }
    }
}

/// An in-memory property graph in vertex-list/edge-list form.
///
/// Invariants (enforced by [`GraphBuilder`] and checked by
/// [`Graph::validate`]):
///
/// * `vertices` is sorted and duplicate-free;
/// * every edge endpoint is a declared vertex;
/// * no self loops;
/// * `edges` is strictly ascending by `(src, dst)` — hence unique — and
///   undirected edges are stored with `src < dst`. Every constructor
///   produces this order ([`GraphBuilder`] sorts, [`MutableGraph::to_graph`]
///   walks sorted rows), and the upload path relies on it instead of
///   re-deriving it: [`Csr::from_graph_with`] scatters rows that are born
///   sorted and rejects a list that is not in this order.
#[derive(Debug, Clone)]
pub struct Graph {
    directed: bool,
    weighted: bool,
    vertices: Vec<VertexId>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Starts an empty builder.
    pub fn builder(directed: bool) -> GraphBuilder {
        GraphBuilder::new(directed)
    }

    pub(crate) fn from_parts(
        directed: bool,
        weighted: bool,
        vertices: Vec<VertexId>,
        edges: Vec<Edge>,
    ) -> Self {
        Graph { directed, weighted, vertices, edges }
    }

    /// True for directed graphs (ordered edge pairs).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// True when the graph carries meaningful edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Number of vertices, `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges, `|E|` (undirected edges counted once).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Sorted slice of vertex identifiers.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Edge list (canonical orientation for undirected graphs).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The benchmark scale of this graph, `log10(|V|+|E|)` rounded to one
    /// decimal (Section 2.2.4).
    pub fn scale(&self) -> f64 {
        crate::scale::scale_of(self.vertex_count() as u64, self.edge_count() as u64)
    }

    /// True if `v` is a vertex of this graph.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Re-checks all data-model invariants; used by tests and by the harness
    /// when it ingests user-provided graphs. One linear pass: order and
    /// uniqueness are one comparison with the previous edge, endpoint
    /// membership goes through the CSR build's `Remap`. Per edge, the
    /// first of: self loop, undeclared endpoint, duplicate, non-canonical
    /// undirected orientation, invalid weight, out of order.
    pub fn validate(&self) -> Result<()> {
        let fail = |what: String| Err(Error::InvalidGraph(what));
        if self.vertices.windows(2).any(|w| w[0] >= w[1]) {
            return fail("vertex list not sorted/unique".into());
        }
        let remap = Remap::new(&self.vertices);
        for (i, e) in self.edges.iter().enumerate() {
            let (s, d) = (e.src, e.dst);
            if s == d {
                return fail(format!("self loop at vertex {s}"));
            }
            if remap.index_of(s).is_none() || remap.index_of(d).is_none() {
                return fail(format!("edge ({s}, {d}) references undeclared vertex"));
            }
            let before = &self.edges[..i];
            let prev = before.last().map(|p| (p.src, p.dst));
            let in_order = prev.is_none_or(|p| p < (s, d));
            let canonical = self.directed || s < d;
            if !(in_order && canonical) {
                // Error path only: the prefix checked so far is ordered, so
                // an earlier copy of this edge (or of its canonical twin) is
                // a binary search away.
                let twin = if canonical { (s, d) } else { (d, s) };
                if before.binary_search_by(|p| (p.src, p.dst).cmp(&twin)).is_ok() {
                    return fail(format!("duplicate edge ({s}, {d})"));
                }
                if !canonical {
                    return fail(format!("undirected edge ({s}, {d}) not in canonical orientation"));
                }
            }
            if !valid_weight(e.weight) {
                return fail(format!("edge ({s}, {d}) has invalid weight {}", e.weight));
            }
            // Ranked last: every class above faults the edge itself, this
            // one its place in the list.
            if let Some((ps, pd)) = prev.filter(|_| !in_order) {
                return fail(format!("edge ({s}, {d}) out of order after ({ps}, {pd})"));
            }
        }
        Ok(())
    }

    /// Builds the CSR form used by algorithms and engines.
    ///
    /// Convenience wrapper for graphs produced by [`GraphBuilder`] (whose
    /// invariants guarantee success); graphs of unvalidated provenance
    /// should go through [`Graph::try_to_csr`] or [`Graph::to_csr_with`],
    /// which surface [`Error::InvalidGraph`] instead.
    pub fn to_csr(&self) -> Csr {
        Csr::from_graph(self).expect("builder-validated graph converts to CSR")
    }

    /// Fallible CSR conversion (sequential).
    pub fn try_to_csr(&self) -> Result<Csr> {
        Csr::from_graph(self)
    }

    /// Fallible CSR conversion on a worker pool — the parallel upload
    /// path. Bit-identical output for every pool width.
    pub fn to_csr_with(&self, pool: &crate::pool::WorkerPool) -> Result<Csr> {
        Csr::from_graph_with(self, pool)
    }

    /// Returns a copy of this graph with direction dropped (used by the
    /// harness for algorithms defined on the underlying undirected graph).
    pub fn as_undirected(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut b = GraphBuilder::new(false);
        b.set_weighted(self.weighted);
        for &v in &self.vertices {
            b.add_vertex(v);
        }
        for e in &self.edges {
            // Ignore duplicate-after-canonicalization errors: a directed
            // graph may contain both (u,v) and (v,u).
            let _ = b.try_add_edge(Edge::weighted(e.src, e.dst, e.weight));
        }
        b.build().expect("the undirected view of a valid graph is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = Graph::builder(true);
        for v in [1u64, 2, 3, 5] {
            b.add_vertex(v);
        }
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 1);
        b.add_edge(5, 1);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.contains_vertex(5));
        assert!(!g.contains_vertex(4));
        assert!(g.is_directed());
        assert!(!g.is_weighted());
    }

    #[test]
    fn validate_detects_violations() {
        let g = Graph::from_parts(true, false, vec![1, 2], vec![Edge::new(1, 1)]);
        assert!(g.validate().is_err());
        let g = Graph::from_parts(true, false, vec![1, 2], vec![Edge::new(1, 3)]);
        assert!(g.validate().is_err());
        let g = Graph::from_parts(
            true,
            false,
            vec![1, 2],
            vec![Edge::new(1, 2), Edge::new(1, 2)],
        );
        assert!(g.validate().is_err());
        let g = Graph::from_parts(false, false, vec![1, 2], vec![Edge::new(2, 1)]);
        assert!(g.validate().is_err(), "non-canonical undirected edge");
        assert!(tiny().validate().is_ok());
    }

    /// One case per error class, in `validate`'s precedence: each edge
    /// list's *last* edge carries the named violation plus every
    /// lower-ranked one that can coexist with it.
    #[test]
    fn validate_reports_each_error_class_in_precedence() {
        let w = Edge::weighted;
        let cases: [(bool, Vec<Edge>, &str); 10] = [
            // A self loop on an undeclared vertex with a NaN weight.
            (true, vec![w(9, 9, f64::NAN)], "self loop at vertex 9"),
            // Undeclared endpoint, out of order, bad weight.
            (true, vec![w(2, 3, 1.0), w(1, 7, -1.0)], "edge (1, 7) references undeclared vertex"),
            // Adjacent duplicate with a bad weight.
            (true, vec![w(1, 2, 1.0), w(1, 2, -1.0)], "duplicate edge (1, 2)"),
            // A non-adjacent duplicate is out of order too, and still a duplicate.
            (true, vec![w(1, 2, 1.0), w(1, 3, 1.0), w(1, 2, 1.0)], "duplicate edge (1, 2)"),
            // Undirected: the reversed twin of an earlier edge is a duplicate …
            (false, vec![w(1, 2, 1.0), w(1, 3, 1.0), w(2, 1, 1.0)], "duplicate edge (2, 1)"),
            // … and without a twin it is non-canonical (before its weight
            // and its place in the list).
            (false, vec![w(2, 3, 1.0), w(2, 1, -1.0)], "edge (2, 1) not in canonical orientation"),
            (true, vec![w(1, 2, 1.0), w(1, 3, f64::INFINITY)], "(1, 3) has invalid weight inf"),
            (true, vec![w(1, 3, 1.0), w(1, 2, -0.5)], "edge (1, 2) has invalid weight -0.5"),
            // New with the ordering invariant, ranked last: an edge with no
            // other fault that sorts before its predecessor.
            (true, vec![w(2, 3, 1.0), w(1, 2, 1.0)], "edge (1, 2) out of order after (2, 3)"),
            (false, vec![w(1, 3, 1.0), w(1, 2, 1.0)], "edge (1, 2) out of order after (1, 3)"),
        ];
        for (directed, edges, expected) in cases {
            let g = Graph::from_parts(directed, true, vec![1, 2, 3], edges);
            let err = g.validate().unwrap_err();
            assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
            assert!(err.to_string().contains(expected), "{err} (expected {expected})");
        }
        // Sparse ids (binary-search membership) and `-0.0` pass.
        let ids = vec![5, 1 << 40, 1 << 60];
        let g = Graph::from_parts(true, true, ids, vec![w(5, 1 << 60, -0.0), w(1 << 40, 5, 2.0)]);
        g.validate().unwrap();
    }

    #[test]
    fn one_weight_rule() {
        for ok in [0.0, -0.0, 1.5, f64::MAX] {
            assert!(valid_weight(ok), "{ok}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-300] {
            assert!(!valid_weight(bad), "{bad}");
        }
    }

    #[test]
    fn undirected_view_merges_reciprocal_edges() {
        let mut b = Graph::builder(true);
        for v in [1u64, 2, 3] {
            b.add_vertex(v);
        }
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        let u = g.as_undirected();
        assert!(!u.is_directed());
        assert_eq!(u.edge_count(), 2);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn scale_matches_formula() {
        let g = tiny();
        let s = (8f64).log10();
        assert!((g.scale() - (s * 10.0).round() / 10.0).abs() < 1e-9);
    }
}
