//! Small numeric helpers: order statistics over pass times, the tail
//! percentile rule, a per-event time histogram, a seeded shuffle, and the
//! output digest.

/// Candidate tail percentiles in permille, highest first (p99.9 .. p50).
/// The reported tail is the highest of these that leaves at least
/// [`TAIL_BEYOND`] samples above it. The grid is coarse on purpose: pass
/// counts move with host speed, and the reported percentile should change
/// only when they move a lot (at 40, 100, 1000 and 10000 passes).
const TAIL_GRID: [usize; 5] = [999, 990, 900, 750, 500];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `permille` quantile among `n` samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest grid percentile (permille) with at least [`TAIL_BEYOND`] of
/// `n` samples strictly beyond its nearest rank, or `None` when `n` is too
/// small for any (fewer than 20 samples).
fn tail_permille(n: usize) -> Option<usize> {
    TAIL_GRID
        .iter()
        .copied()
        .find(|&pm| n > 0 && n - rank(pm, n) >= TAIL_BEYOND)
}

/// The tail sample of `xs` under [`tail_permille`], with the percentile
/// used; falls back to the maximum (reported as percentile 100) when there
/// are too few samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    match tail_permille(s.len()) {
        Some(pm) => (s[rank(pm, s.len()) - 1], pm as f64 / 10.0),
        None => (s.last().copied().unwrap_or(0.0), 100.0),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Exact-nanosecond histogram of per-event times up to [`Hist::SPAN`] ns,
/// with one overflow bucket (events that long are reported as `SPAN`).
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Hist {
    /// Resolution limit of the histogram, ns.
    pub const SPAN: usize = 1 << 16;

    /// Count one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let i = (ns as usize).min(Hist::SPAN);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, ns (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let want = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return ns as u64;
            }
        }
        Hist::SPAN as u64
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; Hist::SPAN + 1],
            total: 0,
        }
    }
}

/// splitmix64: the benchmark's only source of randomness (pass order).
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` mixed with a stream id.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over a sequence of byte strings (each followed by a separator so
/// boundaries count).
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in p.as_bytes().iter().chain([0xffu8].iter()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_grid_percentile_with_ten_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 20..30_000 {
            let pm = tail_permille(n).expect("grid covers n >= 20");
            assert!(n - rank(pm, n) >= TAIL_BEYOND, "n={n} permille={pm}");
            // No higher grid point would also leave ten beyond.
            if let Some(&higher) = TAIL_GRID.iter().rev().find(|&&g| g > pm) {
                assert!(n - rank(higher, n) < TAIL_BEYOND, "n={n} skipped {higher}");
            }
        }
    }

    #[test]
    fn tail_picks_the_nearest_rank_sample() {
        // 1..=100: p90 by nearest rank is the 90th value, with 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hist_quantiles_are_exact_below_the_span() {
        let mut h = Hist::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 51);
        assert_eq!(h.quantile(1.0), Hist::SPAN as u64);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(7, 1).shuffle(&mut a);
        SplitMix::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn digest_separates_boundaries() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
    }
}
