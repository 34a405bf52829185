//! Order statistics: the percentile rule, medians, and spreads.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, interpolating linearly
/// between the two nearest ranks. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    sorted[lo] + (sorted[(lo + 1).min(last)] - sorted[lo]) * frac
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The median of what is left of `values` once the `drop` worst of them are
/// gone. The trim is one-sided because the noise is: another tenant of the
/// host, or two scan workers left on one CPU, only ever make a round worse.
pub fn trimmed_median(values: &[f64], better: Better, drop: usize) -> f64 {
    let mut best_first = sorted(values);
    if better == Better::Higher {
        best_first.reverse();
    }
    best_first.truncate(values.len().saturating_sub(drop).max(1));
    median(&best_first)
}

/// `(max - min) / median`, in percent; 0 when the median is 0.
pub fn spread_pct(values: &[f64]) -> f64 {
    let s = sorted(values);
    match (s.first(), s.last(), quantile(&s, 0.5)) {
        (Some(lo), Some(hi), m) if m != 0.0 => (hi - lo) / m * 100.0,
        _ => 0.0,
    }
}

/// Percentiles a report may quote, lowest first, in tenths of a percent.
const PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest of p50, p75, p90, p95, p99 and p99.9 that still has at least
/// ten of `n` samples beyond it; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    let highest = PERMILLE.iter().rev().find(|&&p| n * (1000 - p) / 1000 >= 10);
    highest.map(|&p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_of_rounds_ignores_the_worst_rounds() {
        assert_eq!(median(&[82.0, 150.0, 81.0]), 82.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        // Five rounds, two of them disturbed: the two worst go, whichever
        // way the metric improves, and the median of the other three stays.
        let latency = [41.0, 78.0, 40.0, 42.0, 77.0];
        assert_eq!(trimmed_median(&latency, Better::Lower, 2), 41.0);
        let jobs_per_s = [24.0, 12.5, 25.0, 24.5, 13.0];
        assert_eq!(trimmed_median(&jobs_per_s, Better::Higher, 2), 24.5);
        assert_eq!(trimmed_median(&latency, Better::Lower, 0), median(&latency));
        assert_eq!(trimmed_median(&[7.0], Better::Lower, 2), 7.0);
        assert_eq!(spread_pct(&[90.0, 100.0, 120.0]), 30.0);
        assert_eq!(spread_pct(&[]), 0.0);
    }
}
