//! Order statistics and the metric-name grammar.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`: the `i`-th cut point sits at rank
/// `i·(n+1)/4`, interpolating linearly between order statistics.
///
/// # Panics
///
/// Panics with fewer than two samples or on a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    assert!(s.len() >= 2, "quartiles need at least two samples");
    let n = s.len();
    let cut = |i: usize| {
        let m = (n + 1) as f64;
        let j = ((i * (n + 1)) / 4).clamp(1, n - 1);
        let delta = i as f64 * m - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The tail latency: the highest whole percentile `p` from 50 up that
/// still has at least ten samples strictly above its value, as
/// `(p, value)`. With fewer than twenty samples no such percentile exists,
/// and the maximum is reported as `p = 100`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let s = sorted(xs);
    let n = s.len();
    for p in (50..=99u32).rev() {
        let v = nearest_rank(&s, p);
        if s.iter().filter(|&&x| x > v).count() >= 10 {
            return (p, v);
        }
    }
    (100, s[n - 1])
}

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `p`% of the samples at or below it.
fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    let n = sorted.len();
    let rank = (u64::from(p) * n as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistics of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), (1.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is 90 with exactly ten samples (91..=100) above it.
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (50, 10.0));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (100, 9.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), (100, 10.0));
        // p16 of 12 samples has ten above it, but is no tail.
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&twelve), (100, 12.0));
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        let mut xs = vec![1.0; 15];
        xs.extend([2.0; 5]);
        // Only five samples exceed 1.0, so no percentile qualifies.
        assert_eq!(tail(&xs), (100, 2.0));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "campaign.shards_s",
            "a",
            "9x",
            "tvla.pair_push_ns",
            "x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "ms/s", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
