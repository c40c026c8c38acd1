//! Frontier (active vertex set) used by traversal-style engines.
//!
//! Supports the two representations whose trade-off drives push–pull
//! engines: a sparse list of active vertices (cheap when few are active)
//! and a dense **bit-packed** bitmap over `Vec<u64>` words (cheap
//! membership tests, 8x denser than the old `Vec<bool>`, so a pull
//! phase's random `contains` probes hit cache far more often).
//! [`Frontier::density`] is what the push–pull engine's
//! direction-optimizing heuristic inspects.
//!
//! The structure is built for **double-buffered reuse**: traversal
//! kernels allocate a `current`/`next` pair once, then
//! `std::mem::swap` + [`Frontier::clear`] per superstep instead of
//! re-allocating `n`-sized buffers every level. `clear` is sparse (it
//! erases only the set bits of the members list) unless the set is so
//! dense that a word-fill is cheaper.
//!
//! Parallel producers never mutate a shared `Frontier`: workers collect
//! sparse per-worker candidate buffers and the caller merges them in
//! range order through [`Frontier::extend`], which preserves the exact
//! insertion sequence a sequential sweep would have produced — the
//! basis of the kernels' bit-identity across pool widths.

/// An active-vertex set over dense indices `0..n`.
#[derive(Debug, Clone)]
pub struct Frontier {
    n: usize,
    members: Vec<u32>,
    /// Bit-packed membership: bit `v % 64` of word `v / 64`.
    words: Vec<u64>,
}

impl Frontier {
    /// An empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        Frontier { n, members: Vec::new(), words: vec![0u64; n.div_ceil(64)] }
    }

    /// A frontier containing a single vertex.
    pub fn singleton(n: usize, v: u32) -> Self {
        let mut f = Frontier::new(n);
        f.insert(v);
        f
    }

    /// Adds `v` if absent; returns true when newly inserted.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.members.push(v);
        true
    }

    /// Merges sparse candidate buffers in the order given (deduping via
    /// the bitmap) — the sequential-equivalent merge for per-worker
    /// buffers produced over contiguous ranges.
    pub fn extend<I: IntoIterator<Item = u32>>(&mut self, candidates: I) {
        for v in candidates {
            self.insert(v);
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.words[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// Number of active vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no vertex is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Active fraction `|F| / n`.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.members.len() as f64 / self.n as f64
        }
    }

    /// Active vertices in insertion order (deterministic).
    #[inline]
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Sorts members ascending — used before parallel range splits so
    /// behaviour does not depend on discovery order.
    pub fn sort(&mut self) {
        self.members.sort_unstable();
    }

    /// Clears to empty, retaining both buffers' capacity. Sparse sets
    /// erase member bits individually; dense ones fill the word array.
    pub fn clear(&mut self) {
        if self.members.len() >= self.words.len() {
            self.words.fill(0);
        } else {
            for &v in &self.members {
                self.words[v as usize / 64] = 0;
            }
        }
        self.members.clear();
    }

    /// Resident bytes of both representations (bitmap words + sparse
    /// member capacity): |V|/8 for the bitmap, against the |V| bytes of
    /// a dense `Vec<bool>`.
    pub fn resident_bytes(&self) -> u64 {
        8 * self.words.len() as u64 + 4 * self.members.capacity() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups() {
        let mut f = Frontier::new(10);
        assert!(f.insert(3));
        assert!(!f.insert(3));
        assert!(f.insert(7));
        assert_eq!(f.len(), 2);
        assert!(f.contains(3));
        assert!(!f.contains(4));
        assert_eq!(f.density(), 0.2);
    }

    #[test]
    fn clear_resets_bitmap() {
        let mut f = Frontier::singleton(5, 2);
        f.clear();
        assert!(f.is_empty());
        assert!(!f.contains(2));
        assert!(f.insert(2));
    }

    #[test]
    fn dense_clear_resets_every_word() {
        let mut f = Frontier::new(200);
        for v in 0..200u32 {
            f.insert(v);
        }
        f.clear();
        assert!(f.is_empty());
        for v in 0..200u32 {
            assert!(!f.contains(v), "{v}");
        }
    }

    #[test]
    fn sort_orders_members() {
        let mut f = Frontier::new(10);
        for v in [9, 1, 5] {
            f.insert(v);
        }
        f.sort();
        assert_eq!(f.members(), &[1, 5, 9]);
    }

    #[test]
    fn bit_packing_spans_word_boundaries() {
        let mut f = Frontier::new(130);
        for v in [0u32, 63, 64, 127, 128, 129] {
            assert!(f.insert(v));
        }
        for v in [0u32, 63, 64, 127, 128, 129] {
            assert!(f.contains(v), "{v}");
        }
        assert!(!f.contains(1));
        assert!(!f.contains(65));
    }

    #[test]
    fn extend_preserves_sequential_insertion_order() {
        // Two "worker" buffers with a cross-buffer duplicate: merging in
        // range order must equal sequential insertion of the
        // concatenation.
        let mut merged = Frontier::new(32);
        merged.extend([5u32, 9, 7].into_iter().chain([9u32, 2, 5, 11]));
        let mut seq = Frontier::new(32);
        for v in [5u32, 9, 7, 9, 2, 5, 11] {
            seq.insert(v);
        }
        assert_eq!(merged.members(), seq.members());
    }

    #[test]
    fn resident_bytes_tracks_words_not_n() {
        let f = Frontier::new(1 << 16);
        // 65536 bits = 1024 words = 8 KiB, vs 64 KiB for Vec<bool>.
        assert_eq!(f.resident_bytes(), 8 * 1024);
    }
}
