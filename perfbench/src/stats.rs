//! Order statistics and the histogram-delta re-quantile helper.

use qsdnn_serve::protocol::HistogramMsg;

/// Linearly interpolated `q`-quantile (`0 <= q <= 1`) of `values`, or 0
/// for an empty slice. Sorts a copy; callers pass raw samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// The samples a histogram gained between two snapshots of it: per-bucket
/// count differences as `(bucket upper bound, count)` in ascending bucket
/// order, so a timed phase can be quantiled without the samples recorded
/// before it.
pub fn histogram_delta(before: &HistogramMsg, after: &HistogramMsg) -> Vec<(u64, u64)> {
    after
        .buckets
        .iter()
        .filter_map(|&(index, upper, n)| {
            let earlier = before
                .buckets
                .iter()
                .find(|&&(i, _, _)| i == index)
                .map_or(0, |&(_, _, m)| m);
            let gained = n.saturating_sub(earlier);
            (gained > 0).then_some((upper, gained))
        })
        .collect()
}

/// `q`-quantile of a bucketed delta, with the same rank rule as the
/// server's histograms: the upper bound of the bucket holding the
/// `ceil(q * count)`-th sample, or 0 when the delta is empty.
pub fn delta_quantile(delta: &[(u64, u64)], q: f64) -> u64 {
    let count: u64 = delta.iter().map(|&(_, n)| n).sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for &(upper, n) in delta {
        seen += n;
        if seen >= rank {
            return upper;
        }
    }
    delta.last().map_or(0, |&(upper, _)| upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_obs::Histogram;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    /// Re-quantiling the delta between two snapshots must give exactly
    /// what a histogram fed only the later samples reports directly.
    #[test]
    fn delta_requantile_matches_direct_quantile() {
        let cumulative = Histogram::new();
        for v in [3, 9, 40, 40, 700, 12_000] {
            cumulative.record(v);
        }
        let before = HistogramMsg::from_snapshot(&cumulative.snapshot());
        let phase = Histogram::new();
        for v in [1, 5, 17, 17, 250, 251, 4_000, 90_000, 90_001, 1_000_000] {
            cumulative.record(v);
            phase.record(v);
        }
        let after = HistogramMsg::from_snapshot(&cumulative.snapshot());
        let delta = histogram_delta(&before, &after);
        let direct = phase.snapshot();
        assert_eq!(delta.iter().map(|&(_, n)| n).sum::<u64>(), direct.count());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(delta_quantile(&delta, q), direct.quantile(q), "q={q}");
        }
    }

    #[test]
    fn empty_delta_quantiles_to_zero() {
        let h = Histogram::new();
        h.record(10);
        let snap = HistogramMsg::from_snapshot(&h.snapshot());
        assert!(histogram_delta(&snap, &snap).is_empty());
        assert_eq!(delta_quantile(&[], 0.5), 0);
    }
}
