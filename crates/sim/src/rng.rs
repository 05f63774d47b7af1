//! Deterministic PRNG.
//!
//! PCG32 (Melissa O'Neill's `pcg32_random_r`) with a SplitMix64 seeder. The
//! stream is fixed by this file, so experiment results never shift under us
//! when an external RNG crate revs its algorithm.

/// A probability knob was configured outside `[0, 1]` (or was not a finite
/// number). [`Pcg32::chance`] only `debug_assert!`s its argument, so release
/// builds would silently misdraw; fault-injection constructors validate with
/// [`check_probability`] and surface this typed error instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfigError {
    /// Name of the offending knob (e.g. `"drop_p"`).
    pub knob: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault probability {} = {} is outside [0, 1]",
            self.knob, self.value
        )
    }
}

impl std::error::Error for FaultConfigError {}

/// Check that one probability knob is a finite value in `[0, 1]`.
pub fn check_probability(knob: &'static str, value: f64) -> Result<(), FaultConfigError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultConfigError { knob, value })
    }
}

/// A PCG-XSH-RR 64/32 generator.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// SplitMix64's Weyl-sequence increment.
const SPLITMIX_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's output mix: a bijection on `u64`.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(SPLITMIX_GAMMA);
    splitmix64_mix(*x)
}

/// Output `n` (0-based) of the SplitMix64 stream seeded with `seed`.
///
/// Random access into the stream: any word is computable on its own, so a
/// keyed payload can be generated or checked from any offset. The mix is a
/// bijection and the Weyl state steps by an odd constant, so within one key
/// the first 2^64 outputs are pairwise distinct.
pub fn splitmix64_at(seed: u64, n: u64) -> u64 {
    splitmix64_mix(seed.wrapping_add(n.wrapping_add(1).wrapping_mul(SPLITMIX_GAMMA)))
}

impl Pcg32 {
    /// Create a generator from a 64-bit seed. Distinct seeds give distinct,
    /// well-mixed streams (the stream selector is derived from the seed too).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let init_state = splitmix64(&mut s);
        let init_inc = splitmix64(&mut s) | 1; // must be odd
        let mut rng = Pcg32 {
            state: 0,
            inc: init_inc,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(init_state);
        rng.next_u32();
        rng
    }

    /// Derive an independent child generator (for giving each component its
    /// own stream without coupling their consumption patterns).
    pub fn fork(&mut self) -> Pcg32 {
        let seed = ((self.next_u32() as u64) << 32) | self.next_u32() as u64;
        Pcg32::new(seed)
    }

    /// The next 32 random bits (PCG-XSH-RR output function).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 random bits (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform in `[0, bound)` using Lemire-style rejection to avoid modulo
    /// bias.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below(0) is meaningless");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = (r as u64) * (bound as u64);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit_f64() < p
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(4);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::new(12345);
        let mut b = Pcg32::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let sa: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let sb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Pcg32::new(7);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expect 10_000 per bucket; allow generous slack.
            assert!((8_500..11_500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Pcg32::new(99);
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::new(4);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn splitmix64_at_is_random_access_into_the_stream() {
        let mut x = 0xfeed_u64;
        for n in 0..100 {
            assert_eq!(splitmix64_at(0xfeed, n), splitmix64(&mut x), "output {n}");
        }
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = Pcg32::new(5);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        // Practically impossible for 7 random bytes to all be zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::new(11);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn fork_decouples_streams() {
        let mut a = Pcg32::new(123);
        let mut child = a.fork();
        let parent_next = a.next_u32();
        let child_next = child.next_u32();
        assert_ne!(parent_next, child_next);
    }
}
