//! Algorithm outputs: one value per vertex, keyed by sparse vertex id.
//!
//! The harness moves outputs between platforms and the validator in this
//! form; it mirrors the reference-output files of the real benchmark
//! (`vertex_id value` per line).

use crate::graph::{Csr, VertexId};
use crate::Algorithm;

/// The per-vertex values produced by an algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputValues {
    /// BFS depths (`i64::MAX` = unreachable).
    I64(Vec<i64>),
    /// WCC / CDLP labels (vertex ids).
    Id(Vec<VertexId>),
    /// PageRank / LCC / SSSP values (`f64::INFINITY` = unreachable for SSSP).
    F64(Vec<f64>),
}

impl OutputValues {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        match self {
            OutputValues::I64(v) => v.len(),
            OutputValues::Id(v) => v.len(),
            OutputValues::F64(v) => v.len(),
        }
    }

    /// True when no values are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short type tag used in archives and error messages.
    pub fn type_tag(&self) -> &'static str {
        match self {
            OutputValues::I64(_) => "i64",
            OutputValues::Id(_) => "id",
            OutputValues::F64(_) => "f64",
        }
    }
}

/// A complete algorithm output: which algorithm ran and the value for each
/// vertex, in dense (sorted-id) order, together with the id mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmOutput {
    pub algorithm: Algorithm,
    /// Sorted sparse vertex ids; `values[i]` belongs to `vertex_ids[i]`.
    pub vertex_ids: Vec<VertexId>,
    pub values: OutputValues,
}

impl AlgorithmOutput {
    /// Wraps dense values produced against `csr`.
    pub fn from_dense(algorithm: Algorithm, csr: &Csr, values: OutputValues) -> Self {
        debug_assert_eq!(values.len(), csr.num_vertices());
        AlgorithmOutput { algorithm, vertex_ids: csr.vertex_ids().to_vec(), values }
    }

    /// Heap bytes held: the id column plus the value column (every value
    /// type is eight bytes wide).
    pub fn resident_bytes(&self) -> u64 {
        ((self.vertex_ids.len() + self.values.len()) * 8) as u64
    }

    /// The value for a sparse vertex id, rendered as a string (for report
    /// files and debugging).
    pub fn value_string(&self, v: VertexId) -> Option<String> {
        let i = self.vertex_ids.binary_search(&v).ok()?;
        Some(match &self.values {
            OutputValues::I64(vals) => vals[i].to_string(),
            OutputValues::Id(vals) => vals[i].to_string(),
            OutputValues::F64(vals) => format!("{:e}", vals[i]),
        })
    }

    /// Serializes in the reference-output file format: `vertex value` lines.
    pub fn to_reference_format(&self) -> String {
        let mut s = String::with_capacity(self.vertex_ids.len() * 12);
        for (i, v) in self.vertex_ids.iter().enumerate() {
            s.push_str(&v.to_string());
            s.push(' ');
            match &self.values {
                OutputValues::I64(vals) => s.push_str(&vals[i].to_string()),
                OutputValues::Id(vals) => s.push_str(&vals[i].to_string()),
                OutputValues::F64(vals) => s.push_str(&format!("{:e}", vals[i])),
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn csr() -> Csr {
        let mut b = GraphBuilder::new(true);
        for v in [10u64, 20, 30] {
            b.add_vertex(v);
        }
        b.add_edge(10, 20);
        b.add_edge(20, 30);
        b.build().unwrap().to_csr()
    }

    #[test]
    fn value_lookup_by_sparse_id() {
        let out = AlgorithmOutput::from_dense(
            Algorithm::Bfs,
            &csr(),
            OutputValues::I64(vec![0, 1, 2]),
        );
        assert_eq!(out.value_string(10).unwrap(), "0");
        assert_eq!(out.value_string(30).unwrap(), "2");
        assert!(out.value_string(99).is_none());
    }

    #[test]
    fn reference_format_lines() {
        let out = AlgorithmOutput::from_dense(
            Algorithm::Wcc,
            &csr(),
            OutputValues::Id(vec![10, 10, 10]),
        );
        let text = out.to_reference_format();
        assert_eq!(text, "10 10\n20 10\n30 10\n");
    }

    #[test]
    fn float_values_use_scientific_notation() {
        let out = AlgorithmOutput::from_dense(
            Algorithm::PageRank,
            &csr(),
            OutputValues::F64(vec![0.25, 0.5, 0.25]),
        );
        assert!(out.to_reference_format().contains("2.5e-1"));
        assert_eq!(out.values.type_tag(), "f64");
        assert_eq!(out.values.len(), 3);
        assert!(!out.values.is_empty());
    }
}
