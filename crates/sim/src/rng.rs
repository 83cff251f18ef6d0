//! Deterministic random number generation for workload synthesis.
//!
//! All randomness in the workspace flows through [`SimRng`] so that every
//! experiment is reproducible from a single `u64` seed. The generator is a
//! self-contained xoshiro256++ (seeded through SplitMix64, so any `u64`
//! seed — including zero — yields a well-mixed state) with the
//! distributions the workload generators need (Bernoulli draws, bounded
//! uniforms, geometric burst lengths, and a Zipf sampler for spatial
//! locality). No external crates are involved, which keeps the workspace
//! buildable offline and the bit-streams stable across toolchains.

/// A seeded, deterministic random source.
///
/// # Example
///
/// ```
/// use mn_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)` via the multiply-shift reduction; the
    /// bias is `bound / 2^64`, far below anything the simulations resolve.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// A Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit() < p
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A geometric draw: the number of successes (each with probability
    /// `1 - p_stop`) before the first stop. Used for burst-length modelling.
    /// Capped at `max` to bound simulation work.
    pub fn geometric(&mut self, p_stop: f64, max: u64) -> u64 {
        let p_stop = p_stop.clamp(1e-9, 1.0);
        let mut n = 0;
        while n < max && !self.chance(p_stop) {
            n += 1;
        }
        n
    }

    /// A Zipf-like draw over `[0, n)` with exponent `s`: rank 0 is the most
    /// popular. Implemented by inverse-transform over the harmonic CDF;
    /// `O(log n)` per draw via binary search over precomputed weights is
    /// avoided by using the standard approximation for s != 1 which is exact
    /// enough for locality modelling.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0, "zipf over empty domain");
        if n == 1 {
            return 0;
        }
        // Inverse CDF of the continuous Zipf approximation:
        // F(x) ∝ x^(1-s) for s != 1, log(x) for s == 1, over [1, n+1).
        let u = self.unit();
        let nf = n as f64;
        let x = if (s - 1.0).abs() < 1e-9 {
            ((nf + 1.0).ln() * u).exp()
        } else {
            let a = 1.0 - s;
            (u * ((nf + 1.0).powf(a) - 1.0) + 1.0).powf(1.0 / a)
        };
        ((x.floor() as u64).saturating_sub(1)).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_in_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }

    #[test]
    fn range_in_bounds() {
        let mut r = SimRng::seed_from(4);
        for _ in 0..1000 {
            let v = r.range(5, 15);
            assert!((5..15).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::seed_from(6);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn geometric_respects_cap() {
        let mut r = SimRng::seed_from(8);
        for _ in 0..100 {
            assert!(r.geometric(0.01, 16) <= 16);
        }
    }

    #[test]
    fn zipf_in_domain_and_skewed() {
        let mut r = SimRng::seed_from(9);
        let n = 64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..20_000 {
            counts[r.zipf(n, 1.0) as usize] += 1;
        }
        // Rank 0 must dominate the tail under a Zipf law.
        assert!(counts[0] > counts[32] * 3, "{:?}", &counts[..4]);
        assert_eq!(counts.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn zipf_singleton() {
        assert_eq!(SimRng::seed_from(0).zipf(1, 1.0), 0);
    }
}
