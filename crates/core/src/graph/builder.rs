//! Incremental construction of [`Graph`]s with invariant enforcement.

use super::{Edge, Graph, VertexId};
use crate::error::{Error, Result};

/// Builds a [`Graph`] while enforcing the Graphalytics data-model rules:
/// unique vertices, unique edges between distinct declared vertices.
///
/// Generators call [`add_vertex`](GraphBuilder::add_vertex) /
/// [`add_edge`](GraphBuilder::add_edge) freely; [`build`](GraphBuilder::build)
/// sorts, deduplicates where permitted, and verifies the result.
///
/// ```
/// use graphalytics_core::graph::{Graph, GraphBuilder};
/// let mut b = Graph::builder(false);
/// b.add_vertex(10);
/// b.add_vertex(20);
/// b.add_edge(20, 10); // canonicalized to (10, 20)
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.edges()[0].src, 10);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    directed: bool,
    weighted: bool,
    vertices: Vec<VertexId>,
    edges: Vec<Edge>,
    /// When true, duplicate edges are silently dropped on `build` instead of
    /// being reported as errors (generators use this; file loaders do not).
    dedup: bool,
}

impl GraphBuilder {
    /// Creates an empty builder for a directed or undirected graph.
    pub fn new(directed: bool) -> Self {
        GraphBuilder { directed, weighted: false, vertices: Vec::new(), edges: Vec::new(), dedup: false }
    }

    /// A builder whose edge list is `edges`, already canonical
    /// (undirected: `src < dst`), as a generator that fills its own
    /// buffer writes them; the buffer is adopted, not copied.
    pub fn from_canonical_edges(directed: bool, edges: Vec<Edge>) -> Self {
        GraphBuilder { edges, ..GraphBuilder::new(directed) }
    }

    /// Marks the graph as weighted (edges carry meaningful weights).
    pub fn set_weighted(&mut self, weighted: bool) -> &mut Self {
        self.weighted = weighted;
        self
    }

    /// Enables silent deduplication of repeated edges at `build` time.
    pub fn dedup_edges(&mut self, dedup: bool) -> &mut Self {
        self.dedup = dedup;
        self
    }

    /// Pre-allocates space for `v` vertices and `e` edges.
    pub fn reserve(&mut self, v: usize, e: usize) -> &mut Self {
        self.vertices.reserve(v);
        self.edges.reserve(e);
        self
    }

    /// Declares a vertex. Duplicates are tolerated and removed at build time.
    pub fn add_vertex(&mut self, v: VertexId) -> &mut Self {
        self.vertices.push(v);
        self
    }

    /// Declares the contiguous vertex range `0..n`.
    pub fn add_vertex_range(&mut self, n: u64) -> &mut Self {
        self.vertices.extend(0..n);
        self
    }

    /// Adds an unweighted edge (weight 1.0). Undirected edges are
    /// canonicalized to `src < dst`.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.add_weighted_edge(src, dst, 1.0)
    }

    /// Adds a weighted edge.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: f64) -> &mut Self {
        self.edges.push(GraphBuilder::canonical(self.directed, src, dst, weight));
        self
    }

    /// The edge as a builder of a `directed` graph stores it: undirected
    /// edges `src < dst`.
    #[inline]
    pub(crate) fn canonical(directed: bool, src: VertexId, dst: VertexId, weight: f64) -> Edge {
        if directed || src < dst {
            Edge::weighted(src, dst, weight)
        } else {
            Edge::weighted(dst, src, weight)
        }
    }

    pub(crate) fn is_directed(&self) -> bool {
        self.directed
    }

    /// The vertex list, for a file reader to fill in place.
    pub(crate) fn vertices_mut(&mut self) -> &mut Vec<VertexId> {
        &mut self.vertices
    }

    /// The edge list, for a file reader to fill in place with edges
    /// made [`canonical`](Self::canonical).
    pub(crate) fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.edges
    }

    /// Adds an edge, failing immediately on a self loop. Used by
    /// [`Graph::as_undirected`] where duplicates are expected and dropped.
    pub fn try_add_edge(&mut self, e: Edge) -> Result<()> {
        if e.src == e.dst {
            return Err(Error::InvalidGraph(format!("self loop at {}", e.src)));
        }
        self.dedup = true;
        self.add_weighted_edge(e.src, e.dst, e.weight);
        Ok(())
    }

    /// Number of edges added so far (before deduplication).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph, checking all invariants.
    pub fn build(self) -> Result<Graph> {
        self.build_with(&crate::pool::WorkerPool::inline())
    }

    /// Finalizes the graph on a worker pool: the edge sort — the dominant
    /// cost for generator-sized graphs — runs as parallel chunk sorts plus
    /// a k-way merge, and is skipped when the edges arrived in order (a
    /// file written from a [`Graph`]). The total `(src, dst, weight)` sort
    /// key makes the result identical for every pool width (including
    /// [`build`](Self::build)).
    pub fn build_with(mut self, pool: &crate::pool::WorkerPool) -> Result<Graph> {
        self.vertices.sort_unstable();
        self.vertices.dedup();
        // Sort edges by the *total* key (src, dst, weight) for a
        // deterministic layout independent of insertion order and pool
        // width, and for cheap dedup (which keeps the smallest weight).
        // The weight component uses the sign-flipped bit encoding whose
        // integer order matches `f64::total_cmp`, so negative weights
        // (rejected later by `validate`, but representable here) still
        // sort numerically.
        fn weight_key(w: f64) -> u64 {
            let bits = w.to_bits();
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            }
        }
        // Equal total keys are identical edges, so a list already
        // non-descending by it is exactly what the sort would return.
        let key = |e: &Edge| (e.src, e.dst, weight_key(e.weight));
        if !self.edges.is_sorted_by_key(key) {
            crate::pool::par_sort_by_key(pool, &mut self.edges, key);
        }
        if self.dedup {
            self.edges.dedup_by(|a, b| a.src == b.src && a.dst == b.dst);
        }
        let g = Graph::from_parts(self.directed, self.weighted, self.vertices, self.edges);
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_drops_duplicates() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.dedup_edges(true);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn duplicate_without_dedup_is_error() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn undirected_canonicalization_dedups_reciprocal() {
        let mut b = GraphBuilder::new(false);
        b.add_vertex_range(2);
        b.dedup_edges(true);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn vertices_sorted_and_unique() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex(5);
        b.add_vertex(1);
        b.add_vertex(5);
        let g = b.build().unwrap();
        assert_eq!(g.vertices(), &[1, 5]);
    }

    #[test]
    fn build_with_matches_sequential_build() {
        let pool = crate::pool::WorkerPool::new(4);
        let make = || {
            let mut b = GraphBuilder::new(true);
            b.add_vertex_range(64);
            b.set_weighted(true);
            b.dedup_edges(true);
            let mut x = 9u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (s, d) = ((x >> 33) % 64, (x >> 10) % 64);
                if s != d {
                    b.add_weighted_edge(s, d, ((x >> 3) % 11) as f64);
                }
            }
            b
        };
        let seq = make().build().unwrap();
        let par = make().build_with(&pool).unwrap();
        assert_eq!(seq.edges(), par.edges());
        assert_eq!(seq.vertices(), par.vertices());
    }

    #[test]
    fn edges_sorted_deterministically() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(4);
        b.add_edge(3, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let pairs: Vec<_> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 1)]);
    }
}
