//! The one grouping of `(key, value)` records by dense key, stable in
//! stream order: the Pregel inbox and the dataflow `group_by_key` shuffle.

/// Records grouped by key: key `k`'s values are
/// `values[offsets[k]..offsets[k + 1]]`, in stream order.
#[derive(Debug, Default)]
pub struct Grouped<V> {
    offsets: Vec<usize>,
    values: Vec<V>,
}

impl<V> Grouped<V> {
    /// The values grouped under `key` (empty if it had no record).
    pub fn group(&self, key: u32) -> &[V] {
        &self.values[self.offsets[key as usize]..self.offsets[key as usize + 1]]
    }

    /// [`Grouped::group`], mutably (`cdlp::mode_label` sorts its votes).
    pub fn group_mut(&mut self, key: u32) -> &mut [V] {
        &mut self.values[self.offsets[key as usize]..self.offsets[key as usize + 1]]
    }

    /// Turns every group into a set, in place: sorted, duplicates dropped,
    /// the survivors compacted to the front of `values`.
    pub fn sort_dedup(&mut self)
    where
        V: Ord + Copy,
    {
        let (mut kept, mut lo) = (0, 0);
        for k in 0..self.offsets.len() - 1 {
            let hi = self.offsets[k + 1];
            self.values[lo..hi].sort_unstable();
            self.offsets[k] = kept;
            for i in lo..hi {
                if kept == self.offsets[k] || self.values[kept - 1] != self.values[i] {
                    self.values[kept] = self.values[i];
                    kept += 1;
                }
            }
            lo = hi;
        }
        *self.offsets.last_mut().expect("offsets hold n + 1 entries") = kept;
        self.values.truncate(kept);
    }

    /// Replaces the grouping with that of `stream` — record slices in
    /// stream order, cut anywhere — over keys `0..n`, refilling this
    /// grouping's buffers: a counting pass over the keys, then a stable
    /// fill in stream order.
    pub fn regroup<'a>(&mut self, n: usize, stream: impl Iterator<Item = &'a [(u32, V)]> + Clone)
    where
        V: Clone + Default + 'a,
    {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(k, _) in stream.clone().flatten() {
            self.offsets[k as usize + 1] += 1;
        }
        // Exclusive prefix sums one slot up: `offsets[k + 1]` starts as
        // key `k`'s first slot, is the fill's write cursor for `k`, and
        // ends as its group's end. The fill writes every value slot.
        let mut start = 0;
        for slot in &mut self.offsets[1..] {
            (*slot, start) = (start, start + *slot);
        }
        self.values.resize(start, V::default());
        for (k, v) in stream.flatten() {
            let cursor = &mut self.offsets[*k as usize + 1];
            self.values[*cursor] = v.clone();
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The stream `slices` grouped over `0..n`.
    fn grouped<V: Clone + Default>(n: usize, slices: &[&[(u32, V)]]) -> Grouped<V> {
        let mut g = Grouped::default();
        g.regroup(n, slices.iter().copied());
        g
    }

    #[test]
    fn groups_non_copy_values_in_stream_order() {
        let s = |x: &str| Arc::<str>::from(x);
        let first = [(2, s("a")), (0, s("b")), (2, s("c"))];
        let second = [(2, s("d")), (0, s("e"))];
        let g = grouped(4, &[&first, &second]);
        assert_eq!(g.group(0), [s("b"), s("e")]);
        assert_eq!(g.group(1), [] as [Arc<str>; 0], "a key with no record");
        assert_eq!(g.group(2), [s("a"), s("c"), s("d")]);
        assert_eq!(g.group(3), [] as [Arc<str>; 0], "the last key, empty");
    }

    #[test]
    fn no_keys_and_no_records() {
        let g = grouped::<u64>(0, &[]);
        assert_eq!((g.offsets, g.values), (vec![0], vec![]));
        let g = grouped::<u64>(3, &[&[], &[]]);
        assert_eq!((g.offsets, g.values), (vec![0; 4], vec![]));
    }

    #[test]
    fn any_cut_of_the_stream_groups_alike() {
        let records: Vec<(u32, u64)> = (0..40u64).map(|i| ((i * 7 % 5) as u32, i)).collect();
        let whole = grouped(6, &[&records]);
        for cut in 0..=records.len() {
            for second in cut..=records.len() {
                let (a, rest) = records.split_at(cut);
                let (b, c) = rest.split_at(second - cut);
                let g = grouped(6, &[a, &[], b, c]);
                assert_eq!((&g.offsets, &g.values), (&whole.offsets, &whole.values));
            }
        }
    }

    #[test]
    fn a_refilled_grouping_equals_a_fresh_one() {
        let small: Vec<(u32, u64)> = vec![(1, 10), (0, 20), (1, 30)];
        let large: Vec<(u32, u64)> = (0..50u64).map(|i| ((i % 9) as u32, i)).collect();
        let mut used = grouped(3, &[&small]);
        for (n, records) in [(9, &large), (3, &small), (2, &vec![(1, 5)]), (9, &large)] {
            used.regroup(n, [records.as_slice()].into_iter());
            let fresh = grouped(n, &[records]);
            assert_eq!((&used.offsets, &used.values), (&fresh.offsets, &fresh.values));
        }
    }
}
