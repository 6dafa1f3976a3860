//! Throughput estimation (§5.1): harmonic mean over a sliding window of
//! recent chunk downloads, the estimator the MPC controller feeds on.

use std::collections::VecDeque;

/// Harmonic-mean throughput estimator over a sliding window.
///
/// The harmonic mean is conservative: it is dominated by the slowest recent
/// samples, which protects the MPC controller against over-fetching right
/// after a bandwidth dip.
#[derive(Debug, Clone)]
pub struct HarmonicMeanEstimator {
    window: usize,
    samples: VecDeque<f64>,
}

impl HarmonicMeanEstimator {
    /// Creates an estimator with the given window size (in samples).
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        Self {
            window,
            samples: VecDeque::with_capacity(window),
        }
    }

    /// Records an observed throughput sample (Mbps); non-positive or
    /// non-finite samples are ignored.
    pub fn observe(&mut self, mbps: f64) {
        if mbps <= 0.0 || !mbps.is_finite() {
            return;
        }
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(mbps);
    }

    /// The current estimate (Mbps), or `None` before any sample arrives.
    pub fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let denom: f64 = self.samples.iter().map(|s| 1.0 / s).sum();
        Some(self.samples.len() as f64 / denom)
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_is_conservative() {
        let mut est = HarmonicMeanEstimator::new(5);
        assert!(est.is_empty());
        assert!(est.estimate().is_none());
        for s in [100.0, 100.0, 100.0, 10.0] {
            est.observe(s);
        }
        let hm = est.estimate().unwrap();
        let arithmetic = (100.0 + 100.0 + 100.0 + 10.0) / 4.0;
        assert!(hm < arithmetic);
        assert!(hm > 10.0 && hm < 40.0, "got {hm}");
        assert_eq!(est.len(), 4);
    }

    #[test]
    fn window_slides() {
        let mut est = HarmonicMeanEstimator::new(2);
        est.observe(10.0);
        est.observe(10.0);
        est.observe(1000.0);
        est.observe(1000.0);
        assert!((est.estimate().unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_samples_are_ignored() {
        let mut est = HarmonicMeanEstimator::new(3);
        est.observe(-5.0);
        est.observe(0.0);
        est.observe(f64::NAN);
        assert!(est.estimate().is_none());
        est.observe(50.0);
        assert_eq!(est.estimate(), Some(50.0));
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let _ = HarmonicMeanEstimator::new(0);
    }
}
