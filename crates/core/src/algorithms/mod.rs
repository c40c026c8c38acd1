//! Reference implementations of the Graphalytics core algorithms
//! (Section 2.2.3).
//!
//! These are deliberately simple, sequential, and obviously correct — the
//! benchmark defines platform correctness as *output equivalence with these
//! implementations*. The platform engines in `graphalytics-engines` are
//! validated against them.
//!
//! [`louvain()`] is not part of the workload; it reproduces the community
//! detection used to illustrate the Datagen clustering-coefficient feature
//! (Figure 2 of the paper).

pub mod bfs;
pub mod cdlp;
pub mod lcc;
pub mod louvain;
pub mod pagerank;
pub mod sssp;
pub mod wcc;

pub use bfs::bfs;
pub use cdlp::cdlp;
pub use lcc::lcc;
pub use louvain::{louvain, LouvainResult};
pub use pagerank::pagerank;
pub use sssp::sssp;
pub use wcc::wcc;

use crate::error::{Error, Result};
use crate::graph::Csr;
use crate::output::{AlgorithmOutput, OutputValues};
use crate::params::AlgorithmParams;
use crate::Algorithm;

/// One algorithm invocation with its inputs checked against the graph:
/// what the reference and every engine execute. [`Request::resolve`] is
/// the one place the input rules live — SSSP needs edge weights, BFS and
/// SSSP need a declared source vertex (resolved to its dense index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    Bfs { root: u32 },
    PageRank { iterations: u32, damping: f64 },
    Wcc,
    Cdlp { iterations: u32 },
    Lcc,
    Sssp { root: u32 },
}

impl Request {
    /// Checks `params` against `csr` for `algorithm`.
    pub fn resolve(csr: &Csr, algorithm: Algorithm, params: &AlgorithmParams) -> Result<Request> {
        Ok(match algorithm {
            Algorithm::Bfs => Request::Bfs { root: resolve_root(csr, params)? },
            Algorithm::PageRank => Request::PageRank {
                iterations: params.pagerank_iterations,
                damping: params.damping_factor,
            },
            Algorithm::Wcc => Request::Wcc,
            Algorithm::Cdlp => Request::Cdlp { iterations: params.cdlp_iterations },
            Algorithm::Lcc => Request::Lcc,
            Algorithm::Sssp => {
                if !csr.is_weighted() {
                    return Err(Error::InvalidParameters("SSSP requires a weighted graph".into()));
                }
                Request::Sssp { root: resolve_root(csr, params)? }
            }
        })
    }
}

/// Runs any core algorithm by its [`Algorithm`] tag with the given
/// parameters, producing an [`AlgorithmOutput`] suitable for validation.
///
/// This is exactly the entry point the harness uses to produce reference
/// outputs.
pub fn run_reference(
    csr: &Csr,
    algorithm: Algorithm,
    params: &AlgorithmParams,
) -> Result<AlgorithmOutput> {
    let values = match Request::resolve(csr, algorithm, params)? {
        Request::Bfs { root } => OutputValues::I64(bfs(csr, root)),
        Request::PageRank { iterations, damping } => {
            OutputValues::F64(pagerank(csr, iterations, damping))
        }
        Request::Wcc => OutputValues::Id(wcc(csr)),
        Request::Cdlp { iterations } => OutputValues::Id(cdlp(csr, iterations)),
        Request::Lcc => OutputValues::F64(lcc(csr)),
        Request::Sssp { root } => OutputValues::F64(sssp(csr, root)),
    };
    Ok(AlgorithmOutput::from_dense(algorithm, csr, values))
}

/// Resolves the sparse root id from the parameters into a dense index.
fn resolve_root(csr: &Csr, params: &AlgorithmParams) -> Result<u32> {
    let root = params
        .source_vertex
        .ok_or_else(|| Error::InvalidParameters("missing source vertex".into()))?;
    csr.index_of(root)
        .ok_or_else(|| Error::InvalidParameters(format!("source vertex {root} not in graph")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::params::AlgorithmParams;

    fn weighted_csr() -> Csr {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.set_weighted(true);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 2.0);
        b.build().unwrap().to_csr()
    }

    #[test]
    fn run_reference_dispatches_all() {
        let csr = weighted_csr();
        let params = AlgorithmParams { source_vertex: Some(0), ..AlgorithmParams::default() };
        for alg in Algorithm::ALL {
            let out = run_reference(&csr, alg, &params).unwrap();
            assert_eq!(out.algorithm, alg);
            assert_eq!(out.values.len(), 3);
        }
    }

    #[test]
    fn missing_root_is_parameter_error() {
        let csr = weighted_csr();
        let params = AlgorithmParams::default();
        assert!(run_reference(&csr, Algorithm::Bfs, &params).is_err());
        let bad = AlgorithmParams { source_vertex: Some(77), ..AlgorithmParams::default() };
        assert!(run_reference(&csr, Algorithm::Bfs, &bad).is_err());
    }

    #[test]
    fn sssp_requires_weights() {
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(2);
        b.add_edge(0, 1);
        let csr = b.build().unwrap().to_csr();
        let params = AlgorithmParams { source_vertex: Some(0), ..AlgorithmParams::default() };
        assert!(run_reference(&csr, Algorithm::Sssp, &params).is_err());
    }
}
