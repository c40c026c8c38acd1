//! Minimal, dependency-free stand-in for the `rand` crate (0.9 API
//! subset), used because the build environment has no crates.io access.
//!
//! Provides what the workspace consumes — [`rngs::SmallRng`],
//! [`SeedableRng::seed_from_u64`], and [`Rng::random`] for the primitive
//! types the generators draw — plus the adjacent conveniences
//! [`Rng::random_bool`] and [`Rng::random_range`]. `SmallRng` is
//! xoshiro256++ seeded through
//! SplitMix64 — the same construction the real `rand` crate uses on
//! 64-bit targets, so statistical quality is comparable (determinism per
//! seed is all the workspace actually relies on).

/// A random number generator that can be seeded from a `u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from an RNG.
pub trait Distribution: Sized {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Core RNG trait: a 64-bit word source plus typed draws.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value.
    ///
    /// For floats the result is in `[0, 1)` with 53 bits of precision,
    /// matching `rand`'s `StandardUniform` behaviour.
    fn random<T: Distribution>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Draws a `bool` that is `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }

    /// Draws uniformly from `[low, high)` (u64 domain).
    fn random_range(&mut self, range: core::ops::Range<u64>) -> u64
    where
        Self: Sized,
    {
        let span = range
            .end
            .checked_sub(range.start)
            .filter(|&s| s > 0)
            .expect("empty range");
        range.start + self.next_u64() % span
    }
}

macro_rules! impl_int_distribution {
    ($($t:ty),*) => {$(
        impl Distribution for $t {
            fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_distribution!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution for f64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution for f32 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Distribution for bool {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ — small, fast, and good enough for synthetic graph
    /// generation; seeded via SplitMix64 as the algorithm's authors
    /// recommend.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0
                .wrapping_add(s3)
                .rotate_left(23)
                .wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn deterministic_per_seed() {
            let mut a = SmallRng::seed_from_u64(42);
            let mut b = SmallRng::seed_from_u64(42);
            for _ in 0..64 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }

        #[test]
        fn different_seeds_diverge() {
            let mut a = SmallRng::seed_from_u64(1);
            let mut b = SmallRng::seed_from_u64(2);
            assert_ne!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn f64_in_unit_interval() {
            let mut r = SmallRng::seed_from_u64(7);
            for _ in 0..1000 {
                let x: f64 = r.random();
                assert!((0.0..1.0).contains(&x));
            }
        }
    }
}
