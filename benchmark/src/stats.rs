//! Order statistics and aggregates the report is built from.

use std::collections::BTreeMap;

/// The `p`-quantile (0..=1) by linear interpolation between closest ranks.
/// `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Geometric mean of the positive values; `None` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values.into_iter().filter(|v| *v > 0.0 && v.is_finite()) {
        sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64).exp())
}

/// Median per cell of `(cell, value)` pairs. A heterogeneous mix is
/// summarised per cell first: the raw median of the mix sits on the cliff
/// between two cell classes and moves with the mix, the per-cell medians
/// do not.
pub fn cell_medians<'a>(
    samples: impl IntoIterator<Item = (&'a str, f64)>,
) -> BTreeMap<&'a str, f64> {
    let mut cells: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (cell, value) in samples {
        cells.entry(cell).or_default().push(value);
    }
    cells
        .into_iter()
        .map(|(cell, values)| (cell, median(&values).expect("non-empty")))
        .collect()
}

/// Geometric mean over cells of the per-cell median.
pub fn geomean_of_cell_medians<'a>(
    samples: impl IntoIterator<Item = (&'a str, f64)>,
) -> Option<f64> {
    geomean(cell_medians(samples).into_values())
}

/// First quartile, median, third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A small deterministic generator (splitmix64) for job order and
/// mutation seeds, so a `--seed` fixes the whole run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn geomean_skips_non_positive_values() {
        assert!((geomean([1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((geomean([0.0, 4.0, 9.0]).unwrap() - 6.0).abs() < 1e-9);
        assert_eq!(geomean([0.0]), None);
    }

    #[test]
    fn geomean_of_cell_medians_ignores_how_often_a_cell_ran() {
        // Cell `a` ran three times, `b` once: each still counts once.
        let samples = [("a", 1.0), ("a", 2.0), ("a", 90.0), ("b", 8.0)];
        let medians = cell_medians(samples);
        assert_eq!(medians["a"], 2.0);
        assert_eq!(medians["b"], 8.0);
        assert!((geomean_of_cell_medians(samples).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert!((iqr_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn rng_is_deterministic_and_shuffle_permutes() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..50).collect();
        a.shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }
}
