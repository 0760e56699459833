//! Seeded randomness and the order statistics every metric is built from.

/// SplitMix64: a tiny, portable, seedable generator, so a seed names the
/// same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency: the highest percentile that still has at least ten
/// samples beyond it, with the percentile and sample count it stands on.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

/// The value with exactly ten samples above it; `None` below 11 samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let v = sorted(values);
    Some(Tail {
        value: v[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    })
}

/// A tail that host stalls cannot swing: the samples, in the order they
/// were taken, are cut into windows of at least [`WINDOW`], each window's
/// tail is its highest percentile with ten samples beyond it, and the
/// result is the median of those. Returns the tail, the window
/// percentile and the window count.
pub fn windowed_tail(lat_ms: &[f64]) -> Option<(f64, f64, usize)> {
    let windows = (lat_ms.len() / WINDOW).max(1);
    let tails: Vec<_> = lat_ms
        .chunks(lat_ms.len() / windows)
        .take(windows)
        .filter_map(tail)
        .collect();
    let v: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some((median(&v), tails.first()?.pct, tails.len()))
}

/// Fewest samples in one tail window (a p90 or higher).
pub const WINDOW: usize = 100;

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rng_streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::fork(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(8, 1).next_u64());
    }
}
