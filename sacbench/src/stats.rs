//! Order statistics and the report's name rules.

/// The median of `values` (the mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The geometric mean of strictly positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Unsorted input is sorted first.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 40.0), 2.0);
    }

    #[test]
    fn geometric_mean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        // One slow instance moves it by its root, not by its size.
        let base = geomean(&[10.0, 10.0, 10.0, 10.0]);
        let one_slow = geomean(&[10.0, 10.0, 10.0, 10_000.0]);
        assert!(one_slow / base < 6.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        assert!(valid_metric_name("setup_s"));
        assert!(valid_metric_name("serve.match_sets_us"));
        assert!(valid_metric_name("9lives-x"));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("µs_metric"));
        assert!(!valid_metric_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("MiB"));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(""));
    }
}
