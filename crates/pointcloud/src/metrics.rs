//! Quality metrics used in the paper's evaluation (§7.1): point-to-point
//! Chamfer distance, geometric PSNR, color PSNR and Hausdorff distance.

use crate::cloud::PointCloud;
use crate::kdtree::KdTree;
use crate::knn::NeighborSearch;

/// Mean squared distance from every point of `from` to its nearest neighbor
/// in `to`. Returns 0 when `from` is empty and `f32::INFINITY` when only
/// `to` is empty.
pub fn one_sided_chamfer(from: &PointCloud, to: &PointCloud) -> f64 {
    if from.is_empty() {
        return 0.0;
    }
    if to.is_empty() {
        return f64::INFINITY;
    }
    let tree = KdTree::build(to.positions());
    let mut total = 0.0f64;
    for &p in from.positions() {
        let nn = tree.knn(p, 1);
        total += f64::from(nn[0].distance_squared);
    }
    total / from.len() as f64
}

/// Symmetric point-to-point (P2P) Chamfer distance:
/// `CD(A, B) = mean_a min_b ||a-b||² + mean_b min_a ||a-b||²`.
///
/// This is the geometric-accuracy metric of Figures 8 and 10.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{synthetic, metrics};
/// let a = synthetic::sphere(500, 1.0, 1);
/// assert_eq!(metrics::chamfer_distance(&a, &a), 0.0);
/// ```
pub fn chamfer_distance(a: &PointCloud, b: &PointCloud) -> f64 {
    one_sided_chamfer(a, b) + one_sided_chamfer(b, a)
}

/// Hausdorff distance: the maximum over both directions of the distance from
/// a point to its nearest neighbor in the other cloud.
pub fn hausdorff_distance(a: &PointCloud, b: &PointCloud) -> f64 {
    fn one_side(from: &PointCloud, to: &PointCloud) -> f64 {
        if from.is_empty() {
            return 0.0;
        }
        if to.is_empty() {
            return f64::INFINITY;
        }
        let tree = KdTree::build(to.positions());
        from.positions()
            .iter()
            .map(|&p| f64::from(tree.knn(p, 1)[0].distance_squared).sqrt())
            .fold(0.0, f64::max)
    }
    one_side(a, b).max(one_side(b, a))
}

/// Geometric PSNR between a reconstructed cloud and its ground truth, the
/// visual-quality proxy of Figures 7 and 9.
///
/// Defined (following the MPEG PCC convention) as
/// `10 * log10(peak² / MSE)` where `peak` is the ground-truth bounding-box
/// diagonal and `MSE` is the symmetric Chamfer distance divided by two.
/// Returns `f64::INFINITY` for identical clouds.
pub fn geometric_psnr(reconstructed: &PointCloud, ground_truth: &PointCloud) -> f64 {
    let mse = chamfer_distance(reconstructed, ground_truth) / 2.0;
    if mse <= 0.0 {
        return f64::INFINITY;
    }
    let peak = ground_truth
        .bounds()
        .map(|b| f64::from(b.extent().norm()))
        .unwrap_or(1.0)
        .max(f64::EPSILON);
    10.0 * ((peak * peak) / mse).log10()
}

/// Color PSNR: for every reconstructed point, compares its color against the
/// color of the nearest ground-truth point (per-channel MSE over `[0,1]`).
/// Returns `None` when either cloud lacks colors or is empty.
pub fn color_psnr(reconstructed: &PointCloud, ground_truth: &PointCloud) -> Option<f64> {
    let rc = reconstructed.colors()?;
    let gc = ground_truth.colors()?;
    if reconstructed.is_empty() || ground_truth.is_empty() {
        return None;
    }
    let tree = KdTree::build(ground_truth.positions());
    let mut mse = 0.0f64;
    for (i, &p) in reconstructed.positions().iter().enumerate() {
        let nn = tree.knn(p, 1)[0];
        let a = rc[i].to_f32();
        let b = gc[nn.index].to_f32();
        for c in 0..3 {
            let d = f64::from(a[c] - b[c]);
            mse += d * d;
        }
    }
    mse /= (reconstructed.len() * 3) as f64;
    if mse <= 0.0 {
        Some(f64::INFINITY)
    } else {
        Some(10.0 * (1.0 / mse).log10())
    }
}

/// A bundle of the per-frame quality metrics reported in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Symmetric Chamfer distance (lower is better).
    pub chamfer: f64,
    /// Geometric PSNR in dB (higher is better).
    pub psnr_db: f64,
    /// Color PSNR in dB, when both clouds carry colors.
    pub color_psnr_db: Option<f64>,
    /// Hausdorff distance (lower is better).
    pub hausdorff: f64,
}

/// Computes the full [`QualityReport`] for a reconstruction.
pub fn quality_report(reconstructed: &PointCloud, ground_truth: &PointCloud) -> QualityReport {
    QualityReport {
        chamfer: chamfer_distance(reconstructed, ground_truth),
        psnr_db: geometric_psnr(reconstructed, ground_truth),
        color_psnr_db: color_psnr(reconstructed, ground_truth),
        hausdorff: hausdorff_distance(reconstructed, ground_truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use crate::synthetic;

    #[test]
    fn chamfer_zero_on_identical() {
        let c = synthetic::sphere(400, 1.0, 1);
        assert_eq!(chamfer_distance(&c, &c), 0.0);
        assert_eq!(hausdorff_distance(&c, &c), 0.0);
    }

    #[test]
    fn chamfer_symmetric() {
        let a = synthetic::sphere(300, 1.0, 2);
        let b = synthetic::torus(300, 1.0, 0.3, 3);
        let ab = chamfer_distance(&a, &b);
        let ba = chamfer_distance(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab > 0.0);
    }

    #[test]
    fn chamfer_increases_with_downsampling() {
        let full = synthetic::sphere(2000, 1.0, 4);
        let half = sampling::random_downsample(&full, 0.5, 1).unwrap();
        let tenth = sampling::random_downsample(&full, 0.1, 1).unwrap();
        let cd_half = chamfer_distance(&half, &full);
        let cd_tenth = chamfer_distance(&tenth, &full);
        assert!(cd_tenth > cd_half);
    }

    #[test]
    fn psnr_decreases_with_more_aggressive_downsampling() {
        let full = synthetic::sphere(2000, 1.0, 5);
        let half = sampling::random_downsample(&full, 0.5, 1).unwrap();
        let tenth = sampling::random_downsample(&full, 0.05, 1).unwrap();
        let p_half = geometric_psnr(&half, &full);
        let p_tenth = geometric_psnr(&tenth, &full);
        assert!(p_half > p_tenth);
        assert!(geometric_psnr(&full, &full).is_infinite());
    }

    #[test]
    fn empty_cloud_behaviour() {
        let c = synthetic::sphere(100, 1.0, 6);
        let empty = PointCloud::new();
        assert_eq!(one_sided_chamfer(&empty, &c), 0.0);
        assert!(one_sided_chamfer(&c, &empty).is_infinite());
    }

    #[test]
    fn color_psnr_identical_is_infinite() {
        let c = synthetic::sphere(200, 1.0, 7);
        assert!(color_psnr(&c, &c).unwrap().is_infinite());
        let no_colors = PointCloud::from_positions(c.positions().to_vec());
        assert!(color_psnr(&no_colors, &c).is_none());
    }

    #[test]
    fn quality_report_contains_consistent_values() {
        let gt = synthetic::torus(800, 1.0, 0.3, 10);
        let low = sampling::random_downsample(&gt, 0.5, 3).unwrap();
        let r = quality_report(&low, &gt);
        assert!(r.chamfer > 0.0);
        assert!(r.psnr_db > 0.0);
        assert!(r.hausdorff >= r.chamfer.sqrt() / 2.0);
        assert!(r.color_psnr_db.is_some());
    }
}
