//! Order statistics over latency samples.
//!
//! Timings are reported as a median plus a tail: the highest of the
//! candidate percentiles that still has at least [`TAIL_BEYOND`] samples
//! above it. With 1 000 or more samples that is the p99; a smaller run
//! falls back to a lower percentile instead of reporting a p99 that rests
//! on one or two samples. The sample count travels with the value.

/// Samples that must lie above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile read from a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile that was read (99.0 for a full p99).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// The median (mean of the two middle samples for even counts). `None`
/// for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest candidate percentile with at least [`TAIL_BEYOND`] samples
/// beyond it. `None` when even the median lacks that many.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let i = rank(pct, n);
        (n - 1 - i >= TAIL_BEYOND).then(|| Tail { pct, value: v[i], n })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
        // Exactly ten samples (991..=1000) lie beyond it.
        assert_eq!(ramp(1000).iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        // 999 samples: p99 leaves only 9 beyond, p95 leaves 49.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.n, 999);
        // 100 samples: p95 leaves 5, p90 leaves exactly 10.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 20 samples: only the median has ten beyond.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(2000);
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 1980.0);
    }
}
