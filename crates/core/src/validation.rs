//! Output validation (requirement R3).
//!
//! Correctness of a platform implementation is defined as *output
//! equivalence* with the reference implementation (Section 2.2.3). The
//! equivalence rule depends on the algorithm:
//!
//! * **BFS, CDLP** — exact per-vertex match;
//! * **WCC** — the reference labels components by their minimum vertex id,
//!   but the spec only requires a consistent partition, so validation
//!   accepts any bijective relabeling that induces the same partition;
//! * **PageRank, LCC, SSSP** — match within a relative epsilon
//!   ([`DEFAULT_EPSILON`]), with infinities required to match exactly.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::output::{AlgorithmOutput, OutputValues};
use crate::Algorithm;

/// Default relative tolerance for floating-point outputs.
pub const DEFAULT_EPSILON: f64 = 1e-4;

/// The result of validating a platform output against the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    pub algorithm: Algorithm,
    pub vertices_checked: usize,
    pub mismatches: usize,
    /// Up to eight example mismatches, `(vertex, expected, actual)`.
    pub examples: Vec<(u64, String, String)>,
}

impl ValidationReport {
    /// True when the output is equivalent to the reference.
    pub fn is_valid(&self) -> bool {
        self.mismatches == 0
    }

    /// Converts a failed report into an [`Error::ValidationFailed`].
    pub fn into_result(self) -> Result<ValidationReport> {
        if self.is_valid() {
            Ok(self)
        } else {
            let mut msg = format!(
                "{}: {}/{} vertices mismatch",
                self.algorithm, self.mismatches, self.vertices_checked
            );
            for (v, e, a) in &self.examples {
                msg.push_str(&format!("; v{v}: expected {e}, got {a}"));
            }
            Err(Error::ValidationFailed(msg))
        }
    }
}

/// Validates `actual` against `reference` using the algorithm's rule.
pub fn validate(reference: &AlgorithmOutput, actual: &AlgorithmOutput) -> Result<ValidationReport> {
    validate_with_epsilon(reference, actual, DEFAULT_EPSILON)
}

/// Like [`validate`] but with an explicit tolerance for float outputs.
pub fn validate_with_epsilon(
    reference: &AlgorithmOutput,
    actual: &AlgorithmOutput,
    epsilon: f64,
) -> Result<ValidationReport> {
    if reference.algorithm != actual.algorithm {
        return Err(Error::ValidationFailed(format!(
            "algorithm mismatch: reference {} vs actual {}",
            reference.algorithm, actual.algorithm
        )));
    }
    if reference.vertex_ids != actual.vertex_ids {
        return Err(Error::ValidationFailed(format!(
            "{}: vertex sets differ ({} vs {} vertices)",
            reference.algorithm,
            reference.vertex_ids.len(),
            actual.vertex_ids.len()
        )));
    }
    // The comparisons below index both sides by the reference's vertex
    // positions: a value vector of any other length is malformed output.
    for output in [reference, actual] {
        let (k, n) = (output.values.len(), output.vertex_ids.len());
        if k != n {
            return Err(Error::ValidationFailed(format!(
                "{}: {k} values for {n} vertices",
                output.algorithm
            )));
        }
    }

    let mut report = ValidationReport {
        algorithm: reference.algorithm,
        vertices_checked: reference.vertex_ids.len(),
        mismatches: 0,
        examples: Vec::new(),
    };
    let mut record =
        |i: usize, expected: String, actual_s: String, report: &mut ValidationReport| {
            report.mismatches += 1;
            if report.examples.len() < 8 {
                report.examples.push((reference.vertex_ids[i], expected, actual_s));
            }
        };

    match (&reference.values, &actual.values) {
        (OutputValues::I64(r), OutputValues::I64(a)) => {
            for i in 0..r.len() {
                if r[i] != a[i] {
                    record(i, r[i].to_string(), a[i].to_string(), &mut report);
                }
            }
        }
        (OutputValues::Id(r), OutputValues::Id(a)) => {
            if reference.algorithm == Algorithm::Wcc {
                validate_partition(r, a, &mut report, &mut record);
            } else {
                for i in 0..r.len() {
                    if r[i] != a[i] {
                        record(i, r[i].to_string(), a[i].to_string(), &mut report);
                    }
                }
            }
        }
        (OutputValues::F64(r), OutputValues::F64(a)) => {
            for i in 0..r.len() {
                if !float_matches(r[i], a[i], epsilon) {
                    record(i, format!("{:e}", r[i]), format!("{:e}", a[i]), &mut report);
                }
            }
        }
        (r, a) => {
            return Err(Error::ValidationFailed(format!(
                "{}: output type mismatch ({} vs {})",
                reference.algorithm,
                r.type_tag(),
                a.type_tag()
            )));
        }
    }
    Ok(report)
}

/// WCC partition equivalence: the label maps must be mutually consistent
/// bijections (same label ⇔ same label).
fn validate_partition(
    r: &[u64],
    a: &[u64],
    report: &mut ValidationReport,
    record: &mut impl FnMut(usize, String, String, &mut ValidationReport),
) {
    let mut fwd: HashMap<u64, u64> = HashMap::new();
    let mut bwd: HashMap<u64, u64> = HashMap::new();
    for i in 0..r.len() {
        let consistent = match (fwd.get(&r[i]), bwd.get(&a[i])) {
            (Some(&mapped), _) if mapped != a[i] => false,
            (_, Some(&mapped)) if mapped != r[i] => false,
            _ => {
                fwd.insert(r[i], a[i]);
                bwd.insert(a[i], r[i]);
                true
            }
        };
        if !consistent {
            record(i, format!("component {}", r[i]), format!("component {}", a[i]), report);
        }
    }
}

/// Absolute floor below which values are considered equal regardless of
/// relative error (guards the `expected == 0.0` case).
const ABSOLUTE_FLOOR: f64 = 1e-12;

/// Relative-epsilon float comparison with exact infinity handling.
fn float_matches(expected: f64, actual: f64, epsilon: f64) -> bool {
    if expected.is_infinite() || actual.is_infinite() {
        return expected == actual;
    }
    if expected.is_nan() || actual.is_nan() {
        return false;
    }
    let diff = (expected - actual).abs();
    diff <= ABSOLUTE_FLOOR || diff <= epsilon * expected.abs().max(actual.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(alg: Algorithm, values: OutputValues) -> AlgorithmOutput {
        let n = values.len() as u64;
        AlgorithmOutput { algorithm: alg, vertex_ids: (0..n).collect(), values }
    }

    #[test]
    fn exact_match_bfs() {
        let r = out(Algorithm::Bfs, OutputValues::I64(vec![0, 1, i64::MAX]));
        let a = out(Algorithm::Bfs, OutputValues::I64(vec![0, 1, i64::MAX]));
        assert!(validate(&r, &a).unwrap().is_valid());
        let bad = out(Algorithm::Bfs, OutputValues::I64(vec![0, 2, i64::MAX]));
        let rep = validate(&r, &bad).unwrap();
        assert_eq!(rep.mismatches, 1);
        assert!(rep.into_result().is_err());
    }

    #[test]
    fn wcc_accepts_relabeling() {
        let r = out(Algorithm::Wcc, OutputValues::Id(vec![0, 0, 2, 2]));
        let a = out(Algorithm::Wcc, OutputValues::Id(vec![7, 7, 9, 9]));
        assert!(validate(&r, &a).unwrap().is_valid());
        // Merging two components is invalid.
        let merged = out(Algorithm::Wcc, OutputValues::Id(vec![7, 7, 7, 7]));
        assert!(!validate(&r, &merged).unwrap().is_valid());
        // Splitting a component is invalid.
        let split = out(Algorithm::Wcc, OutputValues::Id(vec![7, 8, 9, 9]));
        assert!(!validate(&r, &split).unwrap().is_valid());
    }

    #[test]
    fn cdlp_requires_exact_labels() {
        let r = out(Algorithm::Cdlp, OutputValues::Id(vec![1, 1, 2]));
        let relabeled = out(Algorithm::Cdlp, OutputValues::Id(vec![5, 5, 6]));
        assert!(!validate(&r, &relabeled).unwrap().is_valid());
    }

    #[test]
    fn float_epsilon_and_infinity() {
        let r = out(Algorithm::Sssp, OutputValues::F64(vec![1.0, 2.0, f64::INFINITY]));
        let a =
            out(Algorithm::Sssp, OutputValues::F64(vec![1.0 + 5e-5, 2.0 - 1e-4, f64::INFINITY]));
        assert!(validate(&r, &a).unwrap().is_valid());
        let bad = out(Algorithm::Sssp, OutputValues::F64(vec![1.0, 2.0, 1e30]));
        assert!(!validate(&r, &bad).unwrap().is_valid());
        let worse = out(Algorithm::Sssp, OutputValues::F64(vec![1.01, 2.0, f64::INFINITY]));
        assert!(!validate(&r, &worse).unwrap().is_valid());
    }

    #[test]
    fn structural_mismatches_are_errors() {
        let r = out(Algorithm::Bfs, OutputValues::I64(vec![0, 1]));
        let wrong_alg = out(Algorithm::Sssp, OutputValues::F64(vec![0.0, 1.0]));
        assert!(validate(&r, &wrong_alg).is_err());
        let wrong_type = out(Algorithm::Bfs, OutputValues::F64(vec![0.0, 1.0]));
        assert!(validate(&r, &wrong_type).is_err());
        let mut wrong_ids = out(Algorithm::Bfs, OutputValues::I64(vec![0, 1]));
        wrong_ids.vertex_ids = vec![5, 6];
        assert!(validate(&r, &wrong_ids).is_err());
    }

    #[test]
    fn value_vectors_of_the_wrong_length_are_errors() {
        let with_len = |alg, values: OutputValues| AlgorithmOutput {
            algorithm: alg,
            vertex_ids: vec![0, 1, 2],
            values,
        };
        let cases = [
            (Algorithm::Bfs, OutputValues::I64(vec![0, 1, 1]), OutputValues::I64(vec![0, 1]), 2),
            (
                Algorithm::PageRank,
                OutputValues::F64(vec![0.2, 0.3, 0.5]),
                OutputValues::F64(vec![0.2, 0.3, 0.5, 0.0]),
                4,
            ),
            (Algorithm::Wcc, OutputValues::Id(vec![0, 0, 2]), OutputValues::Id(vec![0, 0]), 2),
            (
                Algorithm::Wcc,
                OutputValues::Id(vec![0, 0, 2]),
                OutputValues::Id(vec![0, 0, 2, 2]),
                4,
            ),
        ];
        for (alg, good, bad, k) in cases {
            let want = format!("{alg}: {k} values for 3 vertices");
            for (r, a) in [(&good, &bad), (&bad, &good)] {
                let err = validate(&with_len(alg, r.clone()), &with_len(alg, a.clone()))
                    .expect_err("a short or long value vector must not validate");
                assert!(matches!(err, Error::ValidationFailed(ref m) if *m == want), "{err}");
            }
        }
    }

    #[test]
    fn near_zero_values_compare_absolutely() {
        assert!(float_matches(0.0, 1e-13, 1e-4));
        assert!(!float_matches(0.0, 1e-3, 1e-4));
    }
}
