//! Incremental Ordinary Least Squares for the `RD = m·VTD + b` relation.
//!
//! The paper observes (Fig. 4a) that unique reuse distance is very nearly a
//! linear function of the cheap-to-measure VTD, and fits the relation by
//! OLS over a few hundred thousand sampled pairs on a host thread. The fit
//! here is streaming — constant memory, samples can keep arriving — which
//! is what lets the pipeline refine `m`/`b` every batch (§2.1.3 step 1).

/// A fitted linear relation `y = m·x + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope `m`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
}

impl LinearFit {
    /// The identity fit (`RD = VTD`) — the conservative default before any
    /// samples arrive, since VTD upper-bounds RD.
    pub fn identity() -> LinearFit {
        LinearFit {
            slope: 1.0,
            intercept: 0.0,
        }
    }

    /// Evaluates the fit, clamping negative predictions to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_reuse::LinearFit;
    /// let f = LinearFit { slope: 0.5, intercept: -10.0 };
    /// assert_eq!(f.predict(100.0), 40.0);
    /// assert_eq!(f.predict(0.0), 0.0);
    /// ```
    pub fn predict(&self, x: f64) -> f64 {
        (self.slope * x + self.intercept).max(0.0)
    }
}

/// Streaming OLS accumulator.
///
/// # Examples
///
/// ```
/// use gmt_reuse::Ols;
/// let mut ols = Ols::new();
/// for x in 0..100u64 {
///     ols.add(x as f64, (2 * x + 3) as f64);
/// }
/// let fit = ols.fit().expect("enough samples");
/// assert!((fit.slope - 2.0).abs() < 1e-9);
/// assert!((fit.intercept - 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ols {
    n: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl Ols {
    /// Creates an empty accumulator.
    pub fn new() -> Ols {
        Ols::default()
    }

    /// Adds one `(x, y)` sample.
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    /// Number of samples accumulated.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Fits the line, or `None` with fewer than 2 samples or a degenerate
    /// (zero-variance) `x`.
    pub fn fit(&self) -> Option<LinearFit> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let denom = n * self.sum_xx - self.sum_x * self.sum_x;
        if denom.abs() < f64::EPSILON * n * self.sum_xx.max(1.0) {
            return None;
        }
        let slope = (n * self.sum_xy - self.sum_x * self.sum_y) / denom;
        let intercept = (self.sum_y - slope * self.sum_x) / n;
        Some(LinearFit { slope, intercept })
    }

    /// Merges another accumulator (e.g. a batch fitted on another thread).
    pub fn merge(&mut self, other: &Ols) {
        self.n += other.n;
        self.sum_x += other.sum_x;
        self.sum_y += other.sum_y;
        self.sum_xx += other.sum_xx;
        self.sum_xy += other.sum_xy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn exact_line_recovered() {
        let mut ols = Ols::new();
        for x in [1.0, 2.0, 5.0, 9.0] {
            ols.add(x, 3.0 * x - 1.0);
        }
        let f = ols.fit().unwrap();
        assert!((f.slope - 3.0).abs() < 1e-9);
        assert!((f.intercept + 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_recovered_approximately() {
        let mut rng = gmt_sim::rng::seeded(5);
        let mut ols = Ols::new();
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(0.0..1e6);
            let noise: f64 = rng.gen_range(-500.0..500.0);
            ols.add(x, 0.4 * x + 1000.0 + noise);
        }
        let f = ols.fit().unwrap();
        assert!((f.slope - 0.4).abs() < 0.01, "slope {}", f.slope);
        assert!(
            (f.intercept - 1000.0).abs() < 100.0,
            "intercept {}",
            f.intercept
        );
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        let mut ols = Ols::new();
        assert!(ols.fit().is_none());
        ols.add(5.0, 1.0);
        assert!(ols.fit().is_none());
        ols.add(5.0, 9.0); // zero x-variance
        assert!(ols.fit().is_none());
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Ols::new();
        let mut b = Ols::new();
        let mut all = Ols::new();
        for i in 0..100u64 {
            let (x, y) = (i as f64, (7 * i + 2) as f64);
            if i % 2 == 0 {
                a.add(x, y)
            } else {
                b.add(x, y)
            }
            all.add(x, y);
        }
        a.merge(&b);
        assert_eq!(a.fit(), all.fit());
        assert_eq!(a.samples(), 100);
    }

    #[test]
    fn predict_clamps_negative() {
        let f = LinearFit {
            slope: 1.0,
            intercept: -100.0,
        };
        assert_eq!(f.predict(10.0), 0.0);
    }

    #[test]
    fn identity_fit_is_conservative() {
        let f = LinearFit::identity();
        assert_eq!(f.predict(1234.0), 1234.0);
    }
}
