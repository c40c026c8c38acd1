//! Graph scale and "T-shirt" size classes (Section 2.2.4, Table 2).
//!
//! The scale of a graph is `s(V, E) = log10(|V| + |E|)`, rounded to one
//! decimal place. Scales are grouped into classes spanning 0.5 scale units
//! and labelled with familiar T-shirt sizes; class `L` is the calibration
//! reference (the largest class a state-of-the-art single machine completes
//! BFS on within an hour).

use std::fmt;

/// T-shirt size classes of Table 2.
///
/// The `XXS`/`XXL` variants render as `2XS`/`2XL` like in the paper; the
/// open-ended renewal process (Section 2.4) allows `3XL` and beyond, which
/// this enum represents via [`SizeClass::beyond`] ordering helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeClass {
    /// scale < 7.0
    Xxs,
    /// 7.0 ≤ scale < 7.5
    Xs,
    /// 7.5 ≤ scale < 8.0
    S,
    /// 8.0 ≤ scale < 8.5
    M,
    /// 8.5 ≤ scale < 9.0
    L,
    /// 9.0 ≤ scale < 9.5
    Xl,
    /// scale ≥ 9.5
    Xxl,
}

impl SizeClass {
    /// All classes in ascending order.
    pub const ALL: [SizeClass; 7] = [
        SizeClass::Xxs,
        SizeClass::Xs,
        SizeClass::S,
        SizeClass::M,
        SizeClass::L,
        SizeClass::Xl,
        SizeClass::Xxl,
    ];

    /// Class of a given (rounded or unrounded) scale value.
    pub fn of_scale(scale: f64) -> SizeClass {
        if scale < 7.0 {
            SizeClass::Xxs
        } else if scale < 7.5 {
            SizeClass::Xs
        } else if scale < 8.0 {
            SizeClass::S
        } else if scale < 8.5 {
            SizeClass::M
        } else if scale < 9.0 {
            SizeClass::L
        } else if scale < 9.5 {
            SizeClass::Xl
        } else {
            SizeClass::Xxl
        }
    }

    /// The paper's label (`2XS`, `XS`, ..., `2XL`).
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Xxs => "2XS",
            SizeClass::Xs => "XS",
            SizeClass::S => "S",
            SizeClass::M => "M",
            SizeClass::L => "L",
            SizeClass::Xl => "XL",
            SizeClass::Xxl => "2XL",
        }
    }

    /// True if `self` is strictly larger than `other`.
    pub fn beyond(self, other: SizeClass) -> bool {
        self > other
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// `s(V, E) = log10(|V| + |E|)`, rounded to one decimal place.
///
/// Defined as 0 for the degenerate empty graph.
pub fn scale_of(vertices: u64, edges: u64) -> f64 {
    let total = vertices + edges;
    if total == 0 {
        return 0.0;
    }
    let s = (total as f64).log10();
    (s * 10.0).round() / 10.0
}

/// Convenience: class of a graph given `|V|` and `|E|`.
pub fn class_of(vertices: u64, edges: u64) -> SizeClass {
    SizeClass::of_scale(scale_of(vertices, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_scales() {
        // Values from Tables 3 and 4 of the paper.
        assert_eq!(scale_of(2_390_000, 5_020_000), 6.9); // R1 wiki-talk
        assert_eq!(scale_of(830_000, 17_900_000), 7.3); // R2 kgs
        assert_eq!(scale_of(610_000, 50_900_000), 7.7); // R4 dota-league
        assert_eq!(scale_of(1_670_000, 102_000_000), 8.0); // D100
        assert_eq!(scale_of(4_350_000, 304_000_000), 8.5); // D300
        assert_eq!(scale_of(12_800_000, 1_010_000_000), 9.0); // D1000
        assert_eq!(scale_of(65_600_000, 1_810_000_000), 9.3); // R5 friendster
        assert_eq!(scale_of(2_400_000, 64_200_000), 7.8); // G22
        assert_eq!(scale_of(17_100_000, 524_000_000), 8.7); // G25
    }

    #[test]
    fn class_boundaries_match_table2() {
        assert_eq!(SizeClass::of_scale(6.9), SizeClass::Xxs);
        assert_eq!(SizeClass::of_scale(7.0), SizeClass::Xs);
        assert_eq!(SizeClass::of_scale(7.4), SizeClass::Xs);
        assert_eq!(SizeClass::of_scale(7.5), SizeClass::S);
        assert_eq!(SizeClass::of_scale(8.0), SizeClass::M);
        assert_eq!(SizeClass::of_scale(8.5), SizeClass::L);
        assert_eq!(SizeClass::of_scale(9.0), SizeClass::Xl);
        assert_eq!(SizeClass::of_scale(9.5), SizeClass::Xxl);
        assert_eq!(SizeClass::of_scale(12.0), SizeClass::Xxl);
    }

    #[test]
    fn labels_and_ordering() {
        assert_eq!(SizeClass::Xxs.label(), "2XS");
        assert_eq!(SizeClass::Xxl.label(), "2XL");
        assert!(SizeClass::Xl.beyond(SizeClass::L));
        assert!(!SizeClass::S.beyond(SizeClass::S));
        let mut sorted = SizeClass::ALL;
        sorted.sort();
        assert_eq!(sorted, SizeClass::ALL);
    }

    #[test]
    fn empty_graph_scale() {
        assert_eq!(scale_of(0, 0), 0.0);
        assert_eq!(class_of(0, 0), SizeClass::Xxs);
    }
}
