//! The one grouping of `(key, value)` records by dense key, stable in
//! stream order: the Pregel inbox and the dataflow `group_by_key` shuffle.
//!
//! [`Grouped::regroup`] runs on the pool. The record stream is cut into
//! contiguous pieces, at most one per worker and no more than leave
//! each piece `RECORDS_PER_KEY` records per key; each worker counts the
//! keys of its piece, exclusive prefix sums over `(key, piece)` then give every piece
//! its own run of slots inside each key's group, and each worker fills
//! its piece's slots in stream order. A key's group is therefore its
//! records in piece order, each piece in stream order: the stream order,
//! whatever the pool width. Width 1 is the one-piece case of the same
//! code.

use std::ops::Range;

use super::pool::{SharedSlice, WorkerPool};

/// The fewest records per key a piece of [`Grouped::regroup`] must hold:
/// a stream with fewer is cut into fewer pieces, down to one on the
/// caller. Where two pieces' slots of one key meet, both workers write
/// one cache line. At pool width 2, two pieces beat one from about 20
/// records per key on 4 096 keys, 13 on 16 384 and 4 on 65 536 (see the
/// README's engine notes).
const RECORDS_PER_KEY: usize = 10;

/// Records grouped by key: key `k`'s values are
/// `values[offsets[k]..offsets[k + 1]]`, in stream order.
#[derive(Debug, Default)]
pub struct Grouped<V> {
    /// Also the last piece's count row and then its write cursors, one
    /// slot up: each key's cursor ends where its group ends.
    offsets: Vec<usize>,
    values: Vec<V>,
    /// Where each stream slice starts in the stream and where it lies
    /// in memory, then the stream's length.
    starts: Vec<(usize, usize)>,
    /// The count rows, then write cursors, of every piece but the last:
    /// `n` per piece. There are any only for a stream of at least
    /// `RECORDS_PER_KEY` records per key and piece, so they never
    /// outgrow the stream.
    cursors: Vec<usize>,
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

    /// Calls `f(key, group, &mut out[key])` for every key, on `pool`
    /// over disjoint key ranges. `out` holds one slot per key.
    pub fn for_each_group_mut<T, F>(&mut self, pool: &WorkerPool, out: &mut [T], f: F)
    where
        V: Send,
        T: Send,
        F: Fn(u32, &mut [V], &mut T) + Sync,
    {
        let offsets = &self.offsets;
        assert_eq!(out.len() + 1, offsets.len(), "one output slot per key");
        let (values, out) =
            (SharedSlice::new(self.values.as_mut_ptr()), SharedSlice::new(out.as_mut_ptr()));
        pool.run(offsets.len() - 1, |_, keys| {
            let base = offsets[keys.start];
            // SAFETY: key ranges are disjoint, so are their value runs
            // and output slots.
            let (groups, slots) = unsafe {
                (
                    values.slice_mut(base, offsets[keys.end] - base),
                    out.slice_mut(keys.start, keys.len()),
                )
            };
            for (k, slot) in keys.zip(slots) {
                f(k as u32, &mut groups[offsets[k] - base..offsets[k + 1] - base], slot);
            }
        });
    }

    /// Replaces the grouping with that of a record stream over keys
    /// `0..n`, refilling this grouping's buffers on `pool` (see the
    /// module docs). The stream is `slice(0)`, …, `slice(slices - 1)` in
    /// order, each slice cut anywhere (empty ones included). It is cut
    /// into at most one piece per worker, and into fewer when a piece
    /// would hold under `RECORDS_PER_KEY` records per key; one piece
    /// runs on the caller.
    pub fn regroup<'s, F>(&mut self, n: usize, pool: &WorkerPool, slices: usize, slice: F)
    where
        V: Clone + Default + Send + Sync + 's,
        F: Fn(usize) -> &'s [(u32, V)] + Sync,
    {
        let len = self.cut(slices, &slice);
        let pieces = (len / (RECORDS_PER_KEY * n).max(1)).clamp(1, pool.threads() as usize);
        self.fill(n, pool, pieces, &slice);
    }

    /// Records where each slice starts in the stream and in memory;
    /// returns the stream's length.
    fn cut<'s>(&mut self, slices: usize, slice: &impl Fn(usize) -> &'s [(u32, V)]) -> usize
    where
        V: 's,
    {
        self.starts.clear();
        let mut len = 0;
        for i in 0..slices {
            let records = slice(i);
            self.starts.push((len, records.as_ptr() as usize));
            len += records.len();
        }
        self.starts.push((len, 0));
        len
    }

    /// Groups the [`Grouped::cut`] stream, cut into `pieces` contiguous
    /// pieces.
    fn fill<'s, F>(&mut self, n: usize, pool: &WorkerPool, pieces: usize, slice: &F)
    where
        V: Clone + Default + Send + Sync + 's,
        F: Fn(usize) -> &'s [(u32, V)] + Sync,
    {
        let len = self.starts.last().expect("starts end with the stream's length").0;
        self.cursors.resize((pieces - 1) * n, 0);
        self.offsets.resize(n + 1, 0);
        self.offsets[0] = 0;
        self.values.resize(len, V::default());
        let starts = &self.starts;
        let values = SharedSlice::new(self.values.as_mut_ptr());
        let (rows, last) = (
            SharedSlice::new(self.cursors.as_mut_ptr()),
            SharedSlice::new(self.offsets.as_mut_ptr()),
        );
        // Piece `p`'s count row, then its write cursors.
        // SAFETY (callers): a row is used by one worker at a time.
        let row = |p: usize| unsafe {
            if p + 1 < pieces {
                rows.slice_mut(p * n, n)
            } else {
                last.slice_mut(1, n)
            }
        };
        pool.run(pieces, |_, mine| {
            for p in mine {
                let counts = row(p);
                counts.fill(0);
                for_each_record(starts, slice, piece(p, pieces, len), |k, _| {
                    counts[k as usize] += 1
                });
            }
        });

        // Exclusive prefix sums in (key, piece) order: piece `p`'s slots
        // for key `k` follow every earlier piece's records of `k`.
        let mut next = 0;
        for k in 0..n {
            // SAFETY: in bounds, and no worker is running.
            for p in 0..pieces - 1 {
                let slot = unsafe { rows.at(p * n + k) };
                (*slot, next) = (next, next + *slot);
            }
            let slot = unsafe { last.at(k + 1) };
            (*slot, next) = (next, next + *slot);
        }

        // The fill reads the very records the count read (the same
        // memory, borrowed for `'s`), so each piece writes exactly the
        // slots it counted: every value slot once, each by one worker.
        // The last piece's cursors end as the offsets of the keys' ends.
        pool.run(pieces, |_, mine| {
            for p in mine {
                let cursors = row(p);
                for_each_record(starts, slice, piece(p, pieces, len), |k, v| {
                    let cursor = &mut cursors[k as usize];
                    // SAFETY: see above; `cursor` is below `len`.
                    unsafe { *values.at(*cursor) = v.clone() };
                    *cursor += 1;
                });
            }
        });
    }
}

/// Piece `p` of a stream of `len` records cut into `pieces` contiguous
/// pieces of near-equal length.
fn piece(p: usize, pieces: usize, len: usize) -> Range<usize> {
    let chunk = len.div_ceil(pieces);
    (p * chunk).min(len)..((p + 1) * chunk).min(len)
}

/// Calls `f` on the records at stream positions `piece`, in stream
/// order; slice `i` holds positions `starts[i].0..starts[i + 1].0`.
/// Panics if a slice it reads from is not where [`Grouped::cut`] found
/// it: a closure that hands out other records the second time.
fn for_each_record<'s, V: 's>(
    starts: &[(usize, usize)],
    slice: &impl Fn(usize) -> &'s [(u32, V)],
    piece: Range<usize>,
    mut f: impl FnMut(u32, &'s V),
) {
    // The last slice starting at or before the piece: it holds the
    // piece's first record (or the piece is empty).
    let mut i = starts.partition_point(|&(s, _)| s <= piece.start) - 1;
    while i + 1 < starts.len() && starts[i].0 < piece.end {
        let ((start, at), end) = (starts[i], starts[i + 1].0);
        let (lo, hi) = (start.max(piece.start), end.min(piece.end));
        if lo < hi {
            let records = slice(i);
            assert_eq!(records.as_ptr() as usize, at, "the stream changed during the regroup");
            for (k, v) in &records[lo - start..hi - start] {
                f(*k, v);
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The stream `slices` grouped over `0..n` at pool width 1.
    fn grouped<V: Clone + Default + Send + Sync>(n: usize, slices: &[&[(u32, V)]]) -> Grouped<V> {
        let mut g = Grouped::default();
        g.regroup(n, &WorkerPool::inline(), slices.len(), |i| slices[i]);
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
        let one: Vec<(u32, u64)> = vec![(1, 5)];
        for width in [1, 2, 3] {
            let pool = WorkerPool::new(width);
            let mut used = grouped(3, &[&small]);
            for (n, records) in [(9, &large), (3, &small), (2, &one), (0, &vec![]), (9, &large)] {
                used.regroup(n, &pool, 1, |_| records.as_slice());
                let fresh = grouped(n, &[records]);
                assert_eq!((&used.offsets, &used.values), (&fresh.offsets, &fresh.values));
            }
        }
    }

    /// A seeded stream over keys `0..n` cut into slices at seeded
    /// positions, empty slices included.
    fn sliced(seed: u64, n: u32, len: usize, slices: usize) -> Vec<Vec<(u32, u64)>> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let records: Vec<(u32, u64)> =
            (0..len).map(|_| ((next() % n.max(1) as u64) as u32, next() % 1000)).collect();
        let mut cuts: Vec<usize> = (1..slices).map(|_| next() as usize % (len + 1)).collect();
        cuts.sort_unstable();
        cuts.push(len);
        let mut lo = 0;
        cuts.into_iter()
            .map(|hi| {
                let part = records[lo..hi].to_vec();
                lo = hi;
                part
            })
            .collect()
    }

    #[test]
    fn every_pool_width_gives_the_width_one_grouping() {
        let pools: Vec<WorkerPool> = [1, 2, 3, 4, 8].into_iter().map(WorkerPool::new).collect();
        // (n, records, slices): more pieces than records, piece
        // boundaries inside slices and between them, empty streams.
        let shapes = [(0, 0, 1), (0, 0, 3), (5, 0, 2), (5, 1, 1), (5, 3, 4), (7, 7, 2), (3, 40, 1)];
        let shapes = shapes.into_iter().chain([(16, 300, 9), (64, 1000, 5), (1, 50, 6)]);
        for (seed, (n, len, slices)) in shapes.enumerate() {
            let stream = sliced(seed as u64 + 1, n as u32, len, slices);
            let parts: Vec<&[(u32, u64)]> = stream.iter().map(Vec::as_slice).collect();
            let narrow = grouped(n, &parts);
            for pool in &pools {
                let mut wide = Grouped::default();
                wide.regroup(n, pool, parts.len(), |i| parts[i]);
                let what = format!("n={n} len={len} slices={slices} width={}", pool.threads());
                assert_eq!(
                    (&wide.offsets, &wide.values),
                    (&narrow.offsets, &narrow.values),
                    "{what}"
                );
                // Every cut into pieces, refilling the used grouping
                // (more pieces than workers: a worker fills several).
                for pieces in 1..=9 {
                    wide.cut(parts.len(), &|i| parts[i]);
                    wide.fill(n, pool, pieces, &|i| parts[i]);
                    assert_eq!(
                        (&wide.offsets, &wide.values),
                        (&narrow.offsets, &narrow.values),
                        "{what} pieces={pieces}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_short_stream_regroups_on_the_caller() {
        let pool = WorkerPool::new(2);
        let n = 100;
        let records: Vec<(u32, u64)> = (0..2 * RECORDS_PER_KEY as u64 * n as u64)
            .map(|i| ((i * 37 % n as u64) as u32, i))
            .collect();
        let mut g = Grouped::default();
        let before = pool.stats().dispatches;
        g.regroup(n, &pool, 1, |_| &records[..records.len() - 1]);
        assert_eq!(pool.stats().dispatches, before, "under two pieces' worth: one piece");
        g.regroup(n, &pool, 1, |_| &records);
        assert_eq!(pool.stats().dispatches, before + 2, "count and fill on both workers");
        let whole = grouped(n, &[&records]);
        assert_eq!((&g.offsets, &g.values), (&whole.offsets, &whole.values));
    }

    #[test]
    #[should_panic(expected = "the stream changed during the regroup")]
    fn a_stream_that_changes_between_count_and_fill_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (before, after) = ([(0, 1u64), (0, 2)], [(1, 1u64), (1, 2)]);
        let calls = AtomicUsize::new(0);
        // The cut and the count see `before`, the fill sees `after`:
        // filled by the count's cursors, key 1 would overrun its group.
        Grouped::default().regroup(2, &WorkerPool::inline(), 1, |_| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                &before[..]
            } else {
                &after[..]
            }
        });
    }

    #[test]
    fn groups_map_on_the_pool_over_key_ranges() {
        let stream = sliced(7, 20, 500, 3);
        let parts: Vec<&[(u32, u64)]> = stream.iter().map(Vec::as_slice).collect();
        let mut expect = grouped(20, &parts);
        let sums: Vec<u64> = (0..20).map(|k| expect.group(k).iter().sum()).collect();
        expect.sort_dedup();
        for width in [1, 2, 3, 8] {
            let mut g = grouped(20, &parts);
            let mut out = vec![0u64; 20];
            g.for_each_group_mut(&WorkerPool::new(width), &mut out, |_, group, slot| {
                group.sort_unstable();
                *slot = group.iter().sum();
            });
            assert_eq!(out, sums, "width {width}");
            g.sort_dedup();
            assert_eq!(
                (&g.offsets, &g.values),
                (&expect.offsets, &expect.values),
                "groups sorted in place"
            );
        }
    }
}
