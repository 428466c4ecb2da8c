//! A tiny, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace must build and test **offline**, so the workload generator
//! and randomized tests cannot pull in the `rand` crate. This crate provides
//! the small slice of the `rand` API surface they actually use — seeded
//! construction, `gen_range`, `gen_bool`, and slice choosing — backed by
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014's `java.util.SplittableRandom`
//! finalizer). SplitMix64 passes BigCrush, needs eight lines of code, and is
//! fully reproducible across platforms, which is all a seeded benchmark
//! generator needs.
//!
//! ```
//! use lbr_prng::{SliceChoose, SplitMix64};
//!
//! let mut rng = SplitMix64::seed_from_u64(42);
//! let d6 = rng.gen_range(1..=6);
//! assert!((1..=6).contains(&d6));
//! let coin = rng.gen_bool(0.5);
//! let _ = coin;
//! let pick = [10, 20, 30].choose(&mut rng).copied();
//! assert!(pick.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// A SplitMix64 generator: 64 bits of state, one add and three xor-shifts
/// per output. Identical seeds yield identical streams on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed (mirrors
    /// `rand::SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 raw bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `range` (`a..b` or `a..=b`). Panics on an empty
    /// range, like `rand`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 high bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// A uniform `u64` in `[0, bound)` via Lemire's multiply-shift with a
    /// rejection step, so every value is exactly equally likely.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection zone: the lowest `2^64 mod bound` raw values would make
        // some outputs one count more likely than others; redraw on them.
        let zone = bound.wrapping_neg() % bound;
        loop {
            let raw = self.next_u64();
            let (hi, lo) = {
                let wide = raw as u128 * bound as u128;
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= zone {
                return hi;
            }
        }
    }
}

/// A range that [`SplitMix64::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform value.
    fn sample(self, rng: &mut SplitMix64) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded(span) as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SplitMix64) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.bounded(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceChoose {
    /// The element type.
    type Item;

    /// A uniformly random element, or `None` if the slice is empty.
    fn choose<'a>(&'a self, rng: &mut SplitMix64) -> Option<&'a Self::Item>;

    /// Up to `amount` distinct elements, in selection order (partial
    /// Fisher–Yates over indices — each subset is equally likely).
    fn choose_multiple<'a>(&'a self, rng: &mut SplitMix64, amount: usize) -> Vec<&'a Self::Item>;

    /// Shuffles indices `0..len` and maps them back — used by tests that
    /// want a random permutation of the slice.
    fn shuffled<'a>(&'a self, rng: &mut SplitMix64) -> Vec<&'a Self::Item>;
}

impl<T> SliceChoose for [T] {
    type Item = T;

    fn choose<'a>(&'a self, rng: &mut SplitMix64) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn choose_multiple<'a>(&'a self, rng: &mut SplitMix64, amount: usize) -> Vec<&'a T> {
        let amount = amount.min(self.len());
        let mut idx: Vec<usize> = (0..self.len()).collect();
        for i in 0..amount {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..amount].iter().map(|&i| &self[i]).collect()
    }

    fn shuffled<'a>(&'a self, rng: &mut SplitMix64) -> Vec<&'a T> {
        self.choose_multiple(rng, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(9);
        let mut b = SplitMix64::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(10);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_range(5..17);
            assert!((5..17).contains(&x));
            let y = rng.gen_range(0..=2u32);
            assert!(y <= 2);
            let z = rng.gen_range(-4i32..=4);
            assert!((-4..=4).contains(&z));
            let u = rng.gen_range(7..8usize);
            assert_eq!(u, 7);
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_edges_and_rate() {
        let mut rng = SplitMix64::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits: {hits}");
    }

    #[test]
    fn choose_and_choose_multiple() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1, 2, 3, 4, 5];
        for _ in 0..50 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let picked = items.choose_multiple(&mut rng, 3);
        assert_eq!(picked.len(), 3);
        let mut vals: Vec<i32> = picked.into_iter().copied().collect();
        vals.dedup();
        assert_eq!(vals.len(), 3, "choose_multiple must not repeat");
        // Over-asking caps at the slice length.
        assert_eq!(items.choose_multiple(&mut rng, 99).len(), items.len());
        // Every element is reachable in first position.
        let mut seen = [false; 5];
        for _ in 0..300 {
            seen[(*items.choose(&mut rng).unwrap() - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let mut rng = SplitMix64::seed_from_u64(6);
        let items = [10, 20, 30, 40];
        let mut out: Vec<i32> = items.shuffled(&mut rng).into_iter().copied().collect();
        out.sort();
        assert_eq!(out, vec![10, 20, 30, 40]);
    }
}
