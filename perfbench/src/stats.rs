//! Order statistics over repeated samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples behind the figures.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; quartiles use the "exclusive" method of
    /// Python's `statistics.quantiles(n=4)` so figures compare one to one
    /// with the spread check applied to whole runs.
    ///
    /// # Panics
    ///
    /// On an empty sample set or a NaN sample (both are bugs in the
    /// caller: every timed phase yields at least one finite sample).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        if n < 2 {
            return Summary {
                n,
                q1: s[0],
                median,
                q3: s[0],
            };
        }
        let m = n as i64 + 1;
        let cut = |i: i64| {
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            // Signed on purpose: after clamping, tiny sample sets
            // extrapolate exactly as Python does.
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            n,
            q1: cut(1),
            median,
            q3: cut(3),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(Summary::of(&[3.0]).spread(), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
