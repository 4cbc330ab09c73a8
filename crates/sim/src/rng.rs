//! Deterministic random numbers for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seedable random-number source.
///
/// Every stochastic workload in the reproduction (GUPS tables, load-test
/// destinations, SPEC phase jitter) draws from a `DetRng` constructed from an
/// explicit seed, so experiment output is reproducible bit-for-bit.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::DetRng;
/// let mut a = DetRng::seeded(42);
/// let mut b = DetRng::seeded(42);
/// assert_eq!(a.index(1000), b.index(1000));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// A generator with the given seed.
    pub fn seeded(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Split off an independent child stream; `salt` distinguishes siblings.
    ///
    /// Used to give each simulated CPU its own stream so that adding CPUs
    /// does not perturb the draws of existing ones.
    pub fn split(&self, salt: u64) -> Self {
        // Derive the child seed from fresh draws of a clone so `self` is
        // unperturbed and children with different salts differ.
        let mut probe = self.clone();
        let base = probe.inner.next_u64();
        DetRng::seeded(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniformly random index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        self.inner.gen_range(0..n)
    }

    /// A uniformly random index in `0..n`, excluding `excluded`.
    ///
    /// Used by the paper's load test, where each CPU sends read requests to a
    /// randomly selected *other* CPU.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `excluded >= n`.
    #[inline]
    pub fn index_excluding(&mut self, n: usize, excluded: usize) -> usize {
        assert!(n >= 2, "need at least two choices");
        assert!(excluded < n, "excluded index out of range");
        let draw = self.inner.gen_range(0..n - 1);
        if draw >= excluded {
            draw + 1
        } else {
            draw
        }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniformly random 64-bit value.
    pub fn bits(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.inner.gen::<f64>() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(7);
        let mut b = DetRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..64).filter(|_| a.bits() == b.bits()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_children_are_independent_and_deterministic() {
        let parent = DetRng::seeded(99);
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        let mut c1_again = parent.split(0);
        assert_eq!(c1.bits(), c1_again.bits());
        assert_ne!(c1.bits(), c2.bits());
    }

    #[test]
    fn index_excluding_never_returns_excluded() {
        let mut rng = DetRng::seeded(3);
        for _ in 0..10_000 {
            let got = rng.index_excluding(16, 5);
            assert_ne!(got, 5);
            assert!(got < 16);
        }
    }

    #[test]
    fn index_excluding_covers_all_other_values() {
        let mut rng = DetRng::seeded(4);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.index_excluding(8, 3)] = true;
        }
        for (i, &s) in seen.iter().enumerate() {
            assert_eq!(s, i != 3, "index {i}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seeded(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seeded(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }
}
