//! Bandwidth traces.
//!
//! The paper evaluates under (1) stable wired bandwidth of 50–100 Mbps with
//! ~10 ms RTT and (2) real LTE traces with average throughput 32.5–176.5
//! Mbps and standard deviation 13.5–26.8 Mbps. Real traces are not
//! redistributable, so [`NetworkTrace::synthetic_lte`] generates a bounded
//! AR(1) process matched to a requested mean/standard deviation, which
//! preserves the first/second moments and the temporal burstiness the ABR
//! reacts to: the ABR comparisons depend on those, not on the traces
//! themselves.

use crate::error::Error;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A piecewise-constant bandwidth trace sampled at 1-second intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTrace {
    /// Human-readable name (e.g. "stable-50", "lte-32.5").
    pub name: String,
    /// Bandwidth samples in Mbps, one per second.
    samples: Vec<f64>,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
}

impl NetworkTrace {
    /// A perfectly stable trace at `mbps` for `duration_s` seconds with the
    /// paper's wired RTT of 10 ms.
    pub fn stable(mbps: f64, duration_s: f64) -> Self {
        let n = duration_s.ceil().max(1.0) as usize;
        Self {
            name: format!("stable-{mbps:.0}"),
            samples: vec![mbps.max(0.1); n],
            rtt_s: 0.010,
        }
    }

    /// A synthetic LTE trace: a mean-reverting AR(1) process with the
    /// requested mean and standard deviation, clamped to stay positive,
    /// with a 50 ms RTT typical of LTE.
    pub fn synthetic_lte(mean_mbps: f64, std_mbps: f64, duration_s: f64, seed: u64) -> Self {
        let n = duration_s.ceil().max(1.0) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let phi = 0.85f64; // temporal correlation
        let noise_std = std_mbps * (1.0 - phi * phi).sqrt();
        let mut samples = Vec::with_capacity(n);
        let mut current = mean_mbps;
        for _ in 0..n {
            let z = gaussian(&mut rng);
            current = mean_mbps + phi * (current - mean_mbps) + z * noise_std;
            samples.push(current.max(1.0));
        }
        Self {
            name: format!("lte-{mean_mbps:.1}"),
            samples,
            rtt_s: 0.050,
        }
    }

    /// The set of LTE traces used in the evaluation, spanning the paper's
    /// published range (32.5–176.5 Mbps average).
    pub fn lte_evaluation_set(duration_s: f64) -> Vec<NetworkTrace> {
        vec![
            Self::synthetic_lte(32.5, 13.5, duration_s, 101),
            Self::synthetic_lte(75.0, 20.0, duration_s, 102),
            Self::synthetic_lte(120.0, 24.0, duration_s, 103),
            Self::synthetic_lte(176.5, 26.8, duration_s, 104),
        ]
    }

    /// Builds a trace from explicit 1-second samples.
    ///
    /// # Errors
    /// Returns [`Error::Trace`] when `samples` is empty or contains
    /// non-positive values.
    pub fn from_samples(name: &str, samples: Vec<f64>, rtt_s: f64) -> Result<Self> {
        if samples.is_empty() {
            return Err(Error::Trace("trace has no samples".into()));
        }
        if samples.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err(Error::Trace(
                "trace samples must be positive and finite".into(),
            ));
        }
        Ok(Self {
            name: name.to_string(),
            samples,
            rtt_s,
        })
    }

    /// Trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64
    }

    /// Bandwidth in Mbps at absolute time `t` (seconds). Times beyond the
    /// end of the trace wrap around, so traces can be shorter than sessions.
    pub fn bandwidth_at(&self, t: f64) -> f64 {
        let idx = (t.max(0.0) as usize) % self.samples.len();
        self.samples[idx]
    }

    /// Mean bandwidth over the whole trace.
    pub fn mean_mbps(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation of the bandwidth samples.
    pub fn std_mbps(&self) -> f64 {
        let mean = self.mean_mbps();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_trace_is_constant() {
        let t = NetworkTrace::stable(50.0, 60.0);
        assert_eq!(t.duration_s(), 60.0);
        assert_eq!(t.bandwidth_at(0.0), 50.0);
        assert_eq!(t.bandwidth_at(59.9), 50.0);
        assert_eq!(t.bandwidth_at(1000.0), 50.0); // wraps
        assert!(t.std_mbps() < 1e-9);
        assert!((t.rtt_s - 0.01).abs() < 1e-9);
    }

    #[test]
    fn synthetic_lte_matches_requested_moments() {
        let t = NetworkTrace::synthetic_lte(32.5, 13.5, 600.0, 7);
        assert!((t.mean_mbps() - 32.5).abs() < 6.0, "mean {}", t.mean_mbps());
        assert!(
            t.std_mbps() > 5.0 && t.std_mbps() < 25.0,
            "std {}",
            t.std_mbps()
        );
        assert!(t.samples.iter().all(|&s| s >= 1.0));
        assert!((t.rtt_s - 0.05).abs() < 1e-9);
    }

    #[test]
    fn lte_set_spans_paper_range() {
        let set = NetworkTrace::lte_evaluation_set(300.0);
        assert_eq!(set.len(), 4);
        assert!(set[0].mean_mbps() < set[3].mean_mbps());
    }

    #[test]
    fn from_samples_validation() {
        assert!(NetworkTrace::from_samples("x", vec![], 0.01).is_err());
        assert!(NetworkTrace::from_samples("x", vec![10.0, -1.0], 0.01).is_err());
        assert!(NetworkTrace::from_samples("x", vec![10.0, f64::NAN], 0.01).is_err());
        let t = NetworkTrace::from_samples("x", vec![10.0, 20.0], 0.01).unwrap();
        assert_eq!(t.mean_mbps(), 15.0);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = NetworkTrace::synthetic_lte(50.0, 10.0, 100.0, 1);
        let b = NetworkTrace::synthetic_lte(50.0, 10.0, 100.0, 1);
        assert_eq!(a, b);
        let c = NetworkTrace::synthetic_lte(50.0, 10.0, 100.0, 2);
        assert_ne!(a, c);
    }
}
