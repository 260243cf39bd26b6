//! A small, self-contained pseudo-random number generator.
//!
//! The workspace deliberately has **zero external dependencies** so that
//! `cargo build && cargo test` work offline and deterministically. All
//! randomized generators, Spoilers, and property tests draw from this
//! splitmix64 generator instead of the `rand` crate. Everything takes an
//! explicit `u64` seed; the same seed always produces the same stream, on
//! every platform and in every build profile.
//!
//! splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014) passes BigCrush, has a full 2^64 period over
//! its state increment, and needs six lines of code — exactly the right
//! tool for seeding reproducible test fixtures.

use std::ops::Range;

/// A splitmix64 generator. Cheap to create, copy, and fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Named after the `rand` method it
    /// replaces so call sites read the same.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// A uniform value in `range` (half-open, like `rand::gen_range`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range<T: RangeInt>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// A fuzz input for a parser that must reject bad text, never panic:
    /// one draw in four is up to 64 random bytes, the rest are one of
    /// `valid` with one to four byte edits (overwrite, delete, insert a
    /// random byte, or copy in up to 16 bytes of a valid input). Bytes
    /// that do not form UTF-8 become U+FFFD.
    ///
    /// # Panics
    /// Panics if `valid` is empty.
    pub fn fuzz_text(&mut self, valid: &[&str]) -> String {
        let pick = |rng: &mut Self| valid[rng.gen_range(0..valid.len())].as_bytes();
        let bytes: Vec<u8> = if self.gen_range(0..4u32) == 0 {
            let len = self.gen_range(0..65usize);
            (0..len).map(|_| self.next_u64() as u8).collect()
        } else {
            let mut bytes = pick(self).to_vec();
            for _ in 0..self.gen_range(1..5u32) {
                let at = self.gen_range(0..bytes.len() + 1);
                match self.gen_range(0..4u32) {
                    0 if at < bytes.len() => bytes[at] = self.next_u64() as u8,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 => bytes.insert(at, self.next_u64() as u8),
                    _ => {
                        let donor = pick(self);
                        let start = self.gen_range(0..donor.len() + 1);
                        let len = self.gen_range(0..donor.len() - start + 1).min(16);
                        bytes.splice(at..at, donor[start..start + len].iter().copied());
                    }
                }
            }
            bytes
        };
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Integer types [`SplitMix64::gen_range`] can sample.
pub trait RangeInt: Copy {
    /// Draws a uniform value in `range` from `rng`.
    fn sample(rng: &mut SplitMix64, range: Range<Self>) -> Self;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn sample(rng: &mut SplitMix64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as u64) - (range.start as u64);
                // Multiply-shift bounded sampling (Lemire): unbiased enough
                // for fixtures, and avoids modulo's worst-case bias.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                range.start + hi as Self
            }
        }
    )*};
}

impl_range_int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        let mut c = SplitMix64::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..5);
            assert!(y < 5);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::seed_from_u64(1);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = SplitMix64::seed_from_u64(99);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }
}
