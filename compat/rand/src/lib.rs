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
//!
//! [`rngs::SmallRng::advance`] goes beyond the `rand` 0.9 subset: it
//! jumps the stream forward by any number of draws in O(log draws)
//! time, so pool workers can each start at their own edge of a seeded
//! generator's one sequence and still reproduce it exactly.

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
            let [s0, _, _, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            self.step();
            result
        }
    }

    /// The characteristic polynomial `p(x)` of xoshiro256's state
    /// transition `T`, a linear map on GF(2)^256, without its leading
    /// `x^256` term: bit `i % 64` of word `i / 64` is the coefficient of
    /// `x^i`. The tests re-derive it by Berlekamp–Massey.
    const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `a · x mod p(x)`.
    fn times_x(a: [u64; 4]) -> [u64; 4] {
        let mut r =
            [a[0] << 1, a[1] << 1 | a[0] >> 63, a[2] << 1 | a[1] >> 63, a[3] << 1 | a[2] >> 63];
        if a[3] >> 63 == 1 {
            for (r, p) in r.iter_mut().zip(CHAR_POLY) {
                *r ^= p;
            }
        }
        r
    }

    /// `a · b mod p(x)`, shift-and-add.
    fn mul_mod(a: [u64; 4], mut b: [u64; 4]) -> [u64; 4] {
        let mut r = [0u64; 4];
        for i in 0..256 {
            if a[i / 64] >> (i % 64) & 1 == 1 {
                for (r, b) in r.iter_mut().zip(b) {
                    *r ^= b;
                }
            }
            b = times_x(b);
        }
        r
    }

    /// `x^d mod p(x)`, square-and-multiply from the top bit of `d`.
    fn x_pow_mod(d: u128) -> [u64; 4] {
        let mut r = [1, 0, 0, 0];
        for bit in (0..u128::BITS - d.leading_zeros()).rev() {
            r = mul_mod(r, r);
            if d >> bit & 1 == 1 {
                r = times_x(r);
            }
        }
        r
    }

    impl SmallRng {
        /// The state transition one draw applies (the output function
        /// is not part of it).
        #[inline(always)]
        fn step(&mut self) {
            let s = &mut self.s;
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
        }

        /// Advances the generator as if `next_u64` had been called
        /// `draws` times, in O(log draws) polynomial steps plus 256
        /// transitions.
        ///
        /// `T` satisfies its characteristic polynomial (Cayley–Hamilton),
        /// so `T^d = (x^d mod p)(T) = Σ cᵢ·Tⁱ`; the sum is accumulated
        /// over 256 transitions like the xoshiro reference `jump()`,
        /// whose constants are the `cᵢ` of `d = 2^128`.
        pub fn advance(&mut self, draws: u128) {
            let c = x_pow_mod(draws);
            let mut acc = [0u64; 4];
            for i in 0..256 {
                if c[i / 64] >> (i % 64) & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.step();
            }
            self.s = acc;
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
        fn advance_equals_repeated_draws() {
            for d in [0u64, 1, 2, 70, 255, 256, 257, 1 << 20] {
                let mut jumped = SmallRng::seed_from_u64(d ^ 0x5EED);
                jumped.advance(d as u128);
                let mut walked = SmallRng::seed_from_u64(d ^ 0x5EED);
                for _ in 0..d {
                    walked.next_u64();
                }
                assert_eq!(jumped.s, walked.s, "d = {d}");
                assert_eq!(jumped.next_u64(), walked.next_u64(), "d = {d}");
            }
        }

        #[test]
        fn advances_compose_past_u64() {
            // d = 2^64 + 2^20 - 3, too far to walk: two advances whose
            // sum it is, in either order, agree with one.
            let (a, b) = ((1u128 << 64) - 5, (1u128 << 20) + 2);
            let mut once = SmallRng::seed_from_u64(9);
            once.advance(a + b);
            for (first, second) in [(a, b), (b, a)] {
                let mut twice = SmallRng::seed_from_u64(9);
                twice.advance(first);
                twice.advance(second);
                assert_eq!(once.s, twice.s);
            }
            assert!(a + b > u64::MAX as u128);
        }

        #[test]
        fn advance_by_2_pow_128_is_the_reference_jump() {
            // `jump()` of the xoshiro256++ reference implementation, with
            // its published constants (the coefficients of x^(2^128) mod p).
            const JUMP: [u64; 4] = [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c,
            ];
            let mut reference = SmallRng::seed_from_u64(3);
            let mut acc = [0u64; 4];
            for word in JUMP {
                for b in 0..64 {
                    if word >> b & 1 == 1 {
                        for (a, s) in acc.iter_mut().zip(reference.s) {
                            *a ^= s;
                        }
                    }
                    reference.next_u64();
                }
            }
            // 2^128 draws: the largest advance, then one more.
            let mut jumped = SmallRng::seed_from_u64(3);
            jumped.advance(u128::MAX);
            jumped.next_u64();
            assert_eq!(jumped.s, acc);
        }

        /// Berlekamp–Massey over GF(2): the shortest linear recurrence
        /// `s[n] = Σ cᵢ s[n-i]` of `bits`, as its connection polynomial
        /// `1 + c₁x + … + c_L x^L` (index = power).
        fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
            let n = bits.len();
            let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
            c[0] = 1;
            b[0] = 1;
            let (mut l, mut shift) = (0usize, 1usize);
            for i in 0..n {
                let d = (1..=l).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
                if d == 0 {
                    shift += 1;
                    continue;
                }
                let previous = c.clone();
                for j in 0..=n - shift {
                    c[j + shift] ^= b[j];
                }
                if 2 * l <= i {
                    l = i + 1 - l;
                    b = previous;
                    shift = 1;
                } else {
                    shift += 1;
                }
            }
            c.truncate(l + 1);
            c
        }

        #[test]
        fn char_poly_is_rederived_by_berlekamp_massey() {
            // The lowest state bit over 512 transitions has the minimal
            // polynomial of T, which is p itself (degree 256: xoshiro256
            // has full period, so p is primitive).
            let mut r = SmallRng::seed_from_u64(11);
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = (r.s[0] & 1) as u8;
                    r.step();
                    bit
                })
                .collect();
            let connection = berlekamp_massey(&bits);
            let degree = connection.len() - 1;
            assert_eq!(degree, 256);
            // The characteristic polynomial is the connection polynomial
            // reversed: the coefficient of x^j is c_{L-j}.
            let mut derived = [0u64; 4];
            for j in 0..degree {
                derived[j / 64] |= (connection[degree - j] as u64) << (j % 64);
            }
            assert_eq!(derived, CHAR_POLY);
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
