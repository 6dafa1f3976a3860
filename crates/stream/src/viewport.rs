//! Viewport visibility, used by the ViVo baseline.
//!
//! ViVo streams only the content predicted to fall inside the user's future
//! viewport. Its bandwidth savings therefore depend on the visible fraction
//! of the scene, and its quality degrades when the viewer moves faster than
//! the prediction horizon can track (prediction misses).

use crate::motion::{MotionTrace, Pose};
use volut_pointcloud::{Point3, PointCloud};

/// A simple symmetric viewing frustum described by its half field-of-view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    /// Half field-of-view angle in radians (both axes).
    pub half_fov_rad: f32,
}

impl Default for Viewport {
    fn default() -> Self {
        // ~90° full FoV, typical for VR headsets.
        Self {
            half_fov_rad: std::f32::consts::FRAC_PI_4,
        }
    }
}

impl Viewport {
    /// Returns `true` when `point` is inside the frustum of `pose`.
    pub fn contains(&self, pose: &Pose, point: Point3) -> bool {
        let to_point = point - pose.position;
        let dist = to_point.norm();
        if dist <= f32::EPSILON {
            return true;
        }
        let cos = to_point.dot(pose.direction) / dist;
        cos >= self.half_fov_rad.cos()
    }

    /// Fraction of `cloud`'s points visible from `pose` (sampled on up to
    /// `samples` points for large clouds). Returns 0 for empty clouds.
    pub fn visible_fraction(&self, pose: &Pose, cloud: &PointCloud, samples: usize) -> f64 {
        if cloud.is_empty() {
            return 0.0;
        }
        let stride = (cloud.len() / samples.max(1)).max(1);
        let mut total = 0usize;
        let mut visible = 0usize;
        for i in (0..cloud.len()).step_by(stride) {
            total += 1;
            if self.contains(pose, cloud.position(i)) {
                visible += 1;
            }
        }
        visible as f64 / total as f64
    }
}

/// Model of ViVo's viewport prediction behaviour over a chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityModel {
    /// Fraction of the scene inside a static viewport (bandwidth saving).
    pub visible_fraction: f64,
    /// Probability that the predicted viewport still covers the actual one
    /// after the prediction horizon (decreases with angular speed).
    pub prediction_hit_rate: f64,
}

impl VisibilityModel {
    /// Derives a visibility model for a motion trace: faster angular motion
    /// means lower prediction hit rate, per ViVo's own evaluation.
    pub fn for_motion(motion: &MotionTrace, prediction_horizon_s: f64) -> Self {
        let angular = motion.mean_angular_speed(20.0, Point3::ZERO);
        // Hit rate decays with how far the view can rotate within the horizon
        // relative to the viewport half-angle (45°).
        let rotation = angular * prediction_horizon_s;
        let hit = (1.0 - rotation / std::f64::consts::FRAC_PI_2).clamp(0.35, 1.0);
        Self {
            visible_fraction: 0.55,
            prediction_hit_rate: hit,
        }
    }

    /// Effective displayed quality for ViVo when it fetches the visible
    /// region at `density`: missed predictions show holes (zero quality for
    /// the missed fraction).
    pub fn effective_quality(&self, density: f64) -> f64 {
        (density.clamp(0.0, 1.0) * self.prediction_hit_rate).clamp(0.0, 1.0)
    }

    /// Bytes multiplier relative to fetching the full scene at the same
    /// density: ViVo only fetches the visible fraction.
    pub fn bytes_fraction(&self) -> f64 {
        self.visible_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::synthetic;

    fn look_at_origin() -> Pose {
        Pose {
            position: Point3::new(0.0, 0.0, 5.0),
            direction: Point3::new(0.0, 0.0, -1.0),
        }
    }

    #[test]
    fn frustum_containment() {
        let vp = Viewport::default();
        let pose = look_at_origin();
        assert!(vp.contains(&pose, Point3::ZERO));
        assert!(vp.contains(&pose, Point3::new(0.5, 0.5, 0.0)));
        // Behind the viewer.
        assert!(!vp.contains(&pose, Point3::new(0.0, 0.0, 10.0)));
        // Far off to the side.
        assert!(!vp.contains(&pose, Point3::new(50.0, 0.0, 4.0)));
        // Coincident with the viewer.
        assert!(vp.contains(&pose, pose.position));
    }

    #[test]
    fn visible_fraction_agrees_with_contains() {
        let cloud = synthetic::sphere(2000, 1.0, 3);
        let vp = Viewport::default();
        let pose = look_at_origin();
        let frac = vp.visible_fraction(&pose, &cloud, 2000);
        let inside = cloud
            .positions()
            .iter()
            .filter(|&&p| vp.contains(&pose, p))
            .count();
        assert!((frac - inside as f64 / cloud.len() as f64).abs() < 0.05);
        assert!(
            frac > 0.5,
            "a sphere in front of the camera should be mostly visible"
        );
        assert_eq!(vp.visible_fraction(&pose, &PointCloud::new(), 10), 0.0);
    }

    use volut_pointcloud::PointCloud;

    #[test]
    fn faster_motion_lowers_hit_rate() {
        let slow = VisibilityModel::for_motion(&MotionTrace::inspect(), 1.0);
        let fast = VisibilityModel::for_motion(&MotionTrace::walk_by(), 1.0);
        assert!(fast.prediction_hit_rate <= slow.prediction_hit_rate);
        assert!(slow.prediction_hit_rate <= 1.0);
        assert!(fast.prediction_hit_rate >= 0.35);
    }

    #[test]
    fn effective_quality_and_bytes() {
        let model = VisibilityModel {
            visible_fraction: 0.55,
            prediction_hit_rate: 0.8,
        };
        assert!((model.effective_quality(1.0) - 0.8).abs() < 1e-12);
        assert!((model.effective_quality(0.5) - 0.4).abs() < 1e-12);
        assert!((model.bytes_fraction() - 0.55).abs() < 1e-12);
    }
}
