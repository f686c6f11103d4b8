//! Deterministic randomness.
//!
//! Every stochastic process in the reproduction — link jitter, loss, bit
//! errors, VBR frame sizes, clock skews — draws from a [`DetRng`] created
//! from an explicit seed, so that every test and experiment is exactly
//! repeatable. Sub-streams are forked by label so adding a new consumer of
//! randomness does not perturb existing ones.

use crate::hash::{fnv1a64_from, FNV1A64_OFFSET};
use crate::qos::ErrorRate;
use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Create a stream from a 64-bit seed.
    #[inline]
    pub fn from_seed(seed: u64) -> DetRng {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Fork an independent sub-stream identified by `label`.
    ///
    /// The child seed mixes the label into fresh output of this stream via
    /// FNV-1a, so distinct labels produce uncorrelated streams and the
    /// *order* in which other children are forked does not matter as long as
    /// the sequence of `fork` calls on `self` is stable.
    #[inline]
    pub fn fork(&mut self, label: &str) -> DetRng {
        let base: u64 = self.inner.gen();
        DetRng::from_seed(fnv1a64_from(FNV1A64_OFFSET ^ base, label.as_bytes()))
    }

    /// A uniform value in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli trial with probability given as an [`ErrorRate`].
    #[inline]
    pub fn chance(&mut self, p: ErrorRate) -> bool {
        if p == ErrorRate::ZERO {
            return false;
        }
        if p == ErrorRate::ONE {
            return true;
        }
        self.inner.gen_range(0u64..1_000_000_000) < p.as_ppb()
    }

    /// Uniform jitter in `[0, max]`.
    #[inline]
    pub fn jitter_uniform(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.range_inclusive(0, max.as_micros()))
    }

    /// Exponentially distributed jitter with the given mean, truncated at
    /// `10 × mean` so a single tail sample cannot wreck a schedule.
    #[inline]
    pub fn jitter_exponential(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-transform sampling; unit() < 1 so ln is finite.
        let x = -(1.0 - self.unit()).ln();
        let us = (x * mean.as_micros() as f64).round() as u64;
        SimDuration::from_micros(us.min(mean.as_micros().saturating_mul(10)))
    }

    /// A sample from a truncated normal via the central-limit of 12
    /// uniforms, clamped to `[lo, hi]`. Used for VBR frame-size models.
    #[inline]
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        let s: f64 = (0..12).map(|_| self.unit()).sum::<f64>() - 6.0;
        (mean + s * std_dev).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[inline]
    fn same_seed_same_stream() {
        let mut a = DetRng::from_seed(42);
        let mut b = DetRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(
                a.range_inclusive(0, 1_000_000),
                b.range_inclusive(0, 1_000_000)
            );
        }
    }

    #[test]
    #[inline]
    fn forked_labels_differ() {
        let mut root = DetRng::from_seed(7);
        // Forks must be taken from independent clones to test label mixing
        // alone (each fork also advances the parent stream).
        let mut a = root.clone().fork("link0");
        let mut b = root.fork("link1");
        let va: Vec<u64> = (0..10)
            .map(|_| a.range_inclusive(0, u64::MAX - 1))
            .collect();
        let vb: Vec<u64> = (0..10)
            .map(|_| b.range_inclusive(0, u64::MAX - 1))
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    #[inline]
    fn chance_extremes() {
        let mut r = DetRng::from_seed(1);
        for _ in 0..100 {
            assert!(!r.chance(ErrorRate::ZERO));
            assert!(r.chance(ErrorRate::ONE));
        }
    }

    #[test]
    #[inline]
    fn chance_roughly_matches_probability() {
        let mut r = DetRng::from_seed(99);
        let p = ErrorRate::from_prob(0.25);
        let hits = (0..40_000).filter(|_| r.chance(p)).count();
        let frac = hits as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    #[inline]
    fn uniform_jitter_bounded() {
        let mut r = DetRng::from_seed(3);
        let max = SimDuration::from_millis(5);
        for _ in 0..1000 {
            assert!(r.jitter_uniform(max) <= max);
        }
        assert_eq!(r.jitter_uniform(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    #[inline]
    fn exponential_jitter_mean_and_truncation() {
        let mut r = DetRng::from_seed(4);
        let mean = SimDuration::from_millis(2);
        let n = 20_000u64;
        let mut total = 0u64;
        for _ in 0..n {
            let j = r.jitter_exponential(mean);
            assert!(j <= mean * 10);
            total += j.as_micros();
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 2000.0).abs() < 100.0, "mean {avg}");
    }

    #[test]
    #[inline]
    fn normal_clamped_respects_bounds() {
        let mut r = DetRng::from_seed(5);
        for _ in 0..1000 {
            let x = r.normal_clamped(100.0, 50.0, 10.0, 150.0);
            assert!((10.0..=150.0).contains(&x));
        }
    }
}
