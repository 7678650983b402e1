//! Order statistics over latency samples and run-to-run spreads.

/// Samples of one quantity, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by linear interpolation between order statistics;
    /// 0 when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(last) = self.0.len().checked_sub(1) else {
            return 0.0;
        };
        let pos = q.clamp(0.0, 1.0) * last as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(last);
        self.0[lo] + (self.0[hi] - self.0[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// The highest percentile not above `wanted` that still has ten
    /// samples beyond it (the median when even that is unsupported), and
    /// its value.
    pub fn tail(&self, wanted: f64) -> (f64, f64) {
        let n = self.0.len() as f64;
        let supported = if n > 20.0 { 1.0 - 10.0 / n } else { 0.5 };
        let q = wanted.min(supported);
        (q, self.quantile(q))
    }
}

pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method) — the estimator the driver
/// uses for run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = Samples::new(values.to_vec()).0;
    let ld = data.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples::new((0..100).map(f64::from).collect());
        assert_eq!(s.tail(0.95).0, 0.9);
        let s = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(s.tail(0.95).0, 0.95);
        let s = Samples::new((0..5).map(f64::from).collect());
        assert_eq!(s.tail(0.95).0, 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
