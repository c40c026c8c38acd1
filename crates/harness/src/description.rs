//! The per-job parameter rules of the benchmark description.
//!
//! "The Graphalytics team provides a benchmark description ... definitions
//! of the algorithms, the datasets, and the algorithm parameters for each
//! graph (e.g., the root for BFS or number of iterations for PR)"
//! (Section 2.5, component 1 of Figure 1). The datasets and algorithms
//! live in `graphalytics_core`; this module resolves the parameters one
//! job runs with.

use graphalytics_core::datasets::DatasetSpec;
use graphalytics_core::params::AlgorithmParams;
use graphalytics_core::{Algorithm, Csr};

/// One benchmark job blueprint: an algorithm on a dataset.
#[derive(Debug, Clone)]
pub struct JobDescription {
    pub dataset: &'static DatasetSpec,
    pub algorithm: Algorithm,
}

impl JobDescription {
    /// Resolves the per-dataset algorithm parameters against a
    /// materialized graph (roots are structural selections, so they need
    /// the concrete instance).
    pub fn params_for(&self, csr: &Csr) -> AlgorithmParams {
        AlgorithmParams {
            source_vertex: self.dataset.source.resolve(csr),
            pagerank_iterations: self.dataset.pagerank_iterations,
            damping_factor: 0.85,
            cdlp_iterations: self.dataset.cdlp_iterations,
        }
    }

    /// Parameters for analytic-mode runs (no materialized graph; the root
    /// is irrelevant to counter estimation).
    pub fn params_analytic(&self) -> AlgorithmParams {
        AlgorithmParams {
            source_vertex: None,
            pagerank_iterations: self.dataset.pagerank_iterations,
            damping_factor: 0.85,
            cdlp_iterations: self.dataset.cdlp_iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_resolve_root() {
        use graphalytics_core::GraphBuilder;
        let mut b = GraphBuilder::new(true);
        b.add_vertex_range(3);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let csr = b.build().unwrap().to_csr();
        let job = JobDescription {
            dataset: graphalytics_core::datasets::dataset("R1").unwrap(),
            algorithm: Algorithm::Bfs,
        };
        let params = job.params_for(&csr);
        assert_eq!(params.source_vertex, Some(1), "max out-degree root");
        assert_eq!(params.pagerank_iterations, 10);
    }
}
