//! Sampling operators: random downsampling (the paper's server-side
//! operator, §5.2) and farthest point sampling (the expensive alternative
//! the paper rejects in §4.1).

use crate::cloud::PointCloud;
use crate::error::Error;
use crate::point::Point3;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Randomly keeps each point with probability `ratio` (paper Eq. in §5.2:
/// `P_select(p_i) = r`). The result therefore contains *approximately*
/// `ratio * n` points; use [`random_downsample_exact`] when an exact count
/// is required.
///
/// # Errors
/// Returns [`Error::InvalidArgument`] unless `0 < ratio <= 1`.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{synthetic, sampling};
/// let cloud = synthetic::sphere(2_000, 1.0, 1);
/// let low = sampling::random_downsample(&cloud, 0.25, 7).unwrap();
/// assert!(low.len() > 300 && low.len() < 700);
/// ```
pub fn random_downsample(cloud: &PointCloud, ratio: f64, seed: u64) -> Result<PointCloud> {
    validate_ratio(ratio)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let indices: Vec<usize> = (0..cloud.len())
        .filter(|_| rng.random::<f64>() < ratio)
        .collect();
    Ok(cloud.select(&indices))
}

/// Randomly selects exactly `target` points (without replacement, uniform).
///
/// # Errors
/// Returns [`Error::InvalidArgument`] when `target > cloud.len()`.
pub fn random_downsample_exact(cloud: &PointCloud, target: usize, seed: u64) -> Result<PointCloud> {
    if target > cloud.len() {
        return Err(Error::InvalidArgument(format!(
            "target {target} exceeds cloud size {}",
            cloud.len()
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..cloud.len()).collect();
    indices.shuffle(&mut rng);
    indices.truncate(target);
    indices.sort_unstable();
    Ok(cloud.select(&indices))
}

/// Selects the `target` points whose positions are closest to a set of
/// jittered anchors, producing a *non-uniform* density pattern. Used by
/// tests and benchmarks to exercise the dilated interpolation's robustness
/// to uneven densities.
pub fn biased_downsample(cloud: &PointCloud, ratio: f64, seed: u64) -> Result<PointCloud> {
    validate_ratio(ratio)?;
    if cloud.is_empty() {
        return Ok(PointCloud::new());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = cloud.bounds().expect("non-empty cloud has bounds");
    let anchor = Point3::new(
        rng.random_range(bounds.min.x..=bounds.max.x.max(bounds.min.x + f32::EPSILON)),
        rng.random_range(bounds.min.y..=bounds.max.y.max(bounds.min.y + f32::EPSILON)),
        rng.random_range(bounds.min.z..=bounds.max.z.max(bounds.min.z + f32::EPSILON)),
    );
    let diag = bounds.extent().norm().max(1e-6);
    let indices: Vec<usize> = (0..cloud.len())
        .filter(|&i| {
            let d = cloud.position(i).distance(anchor) / diag;
            // Keep probability decays with distance from the anchor but never
            // below 20% of the requested ratio so coverage is preserved.
            let p = ratio * (1.6 * (1.0 - f64::from(d))).clamp(0.2, 1.6);
            rng.random::<f64>() < p
        })
        .collect();
    Ok(cloud.select(&indices))
}

fn validate_ratio(ratio: f64) -> Result<()> {
    if !(ratio > 0.0 && ratio <= 1.0) {
        return Err(Error::InvalidArgument(format!(
            "sampling ratio must be in (0, 1], got {ratio}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    #[test]
    fn random_downsample_ratio_respected() {
        let cloud = synthetic::sphere(4000, 1.0, 3);
        let low = random_downsample(&cloud, 0.5, 11).unwrap();
        let frac = low.len() as f64 / cloud.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "got fraction {frac}");
        assert!(low.has_colors());
    }

    #[test]
    fn random_downsample_rejects_bad_ratio() {
        let cloud = synthetic::sphere(10, 1.0, 3);
        assert!(random_downsample(&cloud, 0.0, 1).is_err());
        assert!(random_downsample(&cloud, 1.5, 1).is_err());
        assert!(random_downsample(&cloud, -0.1, 1).is_err());
    }

    #[test]
    fn random_downsample_is_deterministic_per_seed() {
        let cloud = synthetic::sphere(500, 1.0, 5);
        let a = random_downsample(&cloud, 0.3, 42).unwrap();
        let b = random_downsample(&cloud, 0.3, 42).unwrap();
        assert_eq!(a, b);
        let c = random_downsample(&cloud, 0.3, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn exact_downsample_hits_target() {
        let cloud = synthetic::sphere(1000, 1.0, 7);
        let low = random_downsample_exact(&cloud, 137, 1).unwrap();
        assert_eq!(low.len(), 137);
        assert!(random_downsample_exact(&cloud, 2000, 1).is_err());
    }

    #[test]
    fn biased_downsample_valid_and_nonuniform() {
        let cloud = synthetic::sphere(3000, 1.0, 23);
        let b = biased_downsample(&cloud, 0.4, 5).unwrap();
        assert!(!b.is_empty());
        assert!(b.len() < cloud.len());
        assert!(biased_downsample(&cloud, 0.0, 5).is_err());
    }
}
