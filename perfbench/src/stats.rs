//! The benchmark's own arithmetic: medians, quartiles, guarded ratios and
//! metric-name validation. Everything the report prints goes through here.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// First and third quartiles, by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` (linear interpolation at
/// `p·(n+1)`), so a reader can check the figures with that call.
///
/// # Panics
///
/// Panics with fewer than two samples or on a NaN sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// `(q3 − q1) / median`: the spread a set of repeats shows.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(values);
    ratio(q3 - q1, median(values)).value()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// A ratio that keeps its base: a zero base is "n/a", never NaN or ∞.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

/// Builds `num / base`.
pub fn ratio(num: f64, base: f64) -> Ratio {
    Ratio { num, base }
}

impl Ratio {
    /// The quotient, or `None` when the base is zero (or not finite).
    pub fn value(self) -> Option<f64> {
        (self.base != 0.0 && self.base.is_finite() && self.num.is_finite())
            .then(|| self.num / self.base)
    }

    /// The quotient, with 0 standing for "n/a" where a plain number is
    /// required (the result line); the printed table still says n/a and
    /// its base metric is reported beside it.
    pub fn or_zero(self) -> f64 {
        self.value().unwrap_or(0.0)
    }

    /// Human rendering with the base: `0.7500 (base 4)` or `n/a (base 0)`.
    pub fn display(self) -> String {
        match self.value() {
            Some(v) => format!("{v:.4} (base {})", self.base),
            None => format!("n/a (base {})", self.base),
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
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
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two samples extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn relative_iqr_of_constant_is_zero() {
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(relative_iqr(&[1.0]), None);
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn ratio_with_zero_base_is_na_not_nan() {
        let r = ratio(0.0, 0.0);
        assert_eq!(r.value(), None);
        assert_eq!(r.or_zero(), 0.0);
        assert_eq!(r.display(), "n/a (base 0)");
        assert_eq!(ratio(5.0, 0.0).value(), None);
        assert_eq!(ratio(3.0, 4.0).value(), Some(0.75));
        assert_eq!(ratio(3.0, 4.0).display(), "0.7500 (base 4)");
        assert_eq!(ratio(f64::NAN, 1.0).value(), None);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "run_s",
            "core.repairs_per_pick",
            "paper-6000",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
