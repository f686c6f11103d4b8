//! The aggregator: how samples become the numbers that are printed.

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the ones the PR driver computes. One value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The percentiles a metric name may carry.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// of `n` samples beyond it; `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| percentile_supported(n, p))
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // In parts per 10_000 so 99.9 and 99.99 stay exact.
    let beyond_parts = 10_000 - (p * 100.0).round() as u64;
    n as u64 * beyond_parts >= 10 * 10_000
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A ratio printed with its base, as `0.00125 (5/4000)`.
pub fn ratio_with_base(num: u64, den: u64) -> String {
    let r = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    format!("{r} ({num}/{den})")
}

/// Metric and workload names: `[A-Za-z0-9_.-]`, starting with a letter or
/// digit, at most 64 bytes (the `BENCHMARK.json` contract).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]),
            (2.0, 4.0, 6.0)
        );
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.5]), (3.5, 3.5, 3.5));
        // The median of an even count is the mean of the middle two.
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        // 120 faults: p90 leaves 12 beyond it, p99 only 1.2.
        assert!(percentile_supported(120, 90.0));
        assert!(!percentile_supported(120, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn ratios_carry_their_base() {
        assert_eq!(ratio_with_base(5, 4000), "0.00125 (5/4000)");
        assert_eq!(ratio_with_base(0, 0), "0 (0/0)");
    }

    #[test]
    fn name_charset() {
        for ok in ["wall_s", "cm-obs.seg.credit_stall.share", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
