//! Synthetic 6DoF user-motion traces.
//!
//! The paper replays multi-user 6DoF motion traces during playback; real
//! traces are not available, so this module generates representative viewer
//! behaviours (orbiting the content, standing still and inspecting, walking
//! past). The ViVo baseline's visibility adaptation consumes these poses.

use volut_pointcloud::Point3;

/// A viewer pose: position plus view direction (unit vector).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Viewer position in world coordinates.
    pub position: Point3,
    /// Unit view direction.
    pub direction: Point3,
}

/// The behaviour pattern of a synthetic viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MotionKind {
    /// Slow orbit around the content at constant radius.
    Orbit,
    /// Mostly stationary, small head movements.
    Inspect,
    /// Walks past the content, producing fast viewport changes.
    WalkBy,
}

/// A deterministic 6DoF motion trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionTrace {
    /// The behaviour pattern.
    pub kind: MotionKind,
    /// Orbit/walk radius in meters.
    pub radius: f32,
    /// Angular or linear speed parameter (radians per second or m/s).
    pub speed: f32,
}

impl MotionTrace {
    /// A slow orbit: the paper's "typical" viewer.
    pub fn orbit() -> Self {
        Self {
            kind: MotionKind::Orbit,
            radius: 2.5,
            speed: 0.25,
        }
    }

    /// A nearly stationary inspection viewer.
    pub fn inspect() -> Self {
        Self {
            kind: MotionKind::Inspect,
            radius: 1.8,
            speed: 0.05,
        }
    }

    /// A fast walk-by viewer (stressful for viewport prediction).
    pub fn walk_by() -> Self {
        Self {
            kind: MotionKind::WalkBy,
            radius: 3.0,
            speed: 1.2,
        }
    }

    /// Pose at time `t` seconds, looking at the content centered at `target`.
    pub fn pose_at(&self, t: f64, target: Point3) -> Pose {
        let t = t as f32;
        let position = match self.kind {
            MotionKind::Orbit => {
                let angle = self.speed * t;
                target + Point3::new(self.radius * angle.cos(), self.radius * angle.sin(), 1.6)
            }
            MotionKind::Inspect => {
                let wobble = (self.speed * t * 6.0).sin() * 0.15;
                target + Point3::new(self.radius, wobble, 1.6)
            }
            MotionKind::WalkBy => {
                let x = -6.0 + self.speed * t;
                target + Point3::new(x, self.radius, 1.6)
            }
        };
        let direction = (target + Point3::new(0.0, 0.0, 1.0) - position)
            .normalized()
            .unwrap_or(Point3::new(0.0, 0.0, -1.0));
        Pose {
            position,
            direction,
        }
    }

    /// Mean angular speed of the view direction (radians per second),
    /// estimated over `duration_s`. ViVo's prediction accuracy degrades as
    /// this increases.
    pub fn mean_angular_speed(&self, duration_s: f64, target: Point3) -> f64 {
        let steps = (duration_s.ceil() as usize * 4).max(2);
        let dt = duration_s / steps as f64;
        let mut total = 0.0f64;
        for i in 1..steps {
            let a = self.pose_at((i - 1) as f64 * dt, target).direction;
            let b = self.pose_at(i as f64 * dt, target).direction;
            let cos = a.dot(b).clamp(-1.0, 1.0);
            total += f64::from(cos.acos()) / dt;
        }
        total / (steps - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poses_have_unit_directions() {
        for trace in [
            MotionTrace::orbit(),
            MotionTrace::inspect(),
            MotionTrace::walk_by(),
        ] {
            for i in 0..20 {
                let pose = trace.pose_at(i as f64 * 0.5, Point3::ZERO);
                assert!((pose.direction.norm() - 1.0).abs() < 1e-4);
                assert!(pose.position.is_finite());
            }
        }
    }

    #[test]
    fn orbit_moves_and_inspect_stays_close() {
        let orbit = MotionTrace::orbit();
        let inspect = MotionTrace::inspect();
        let d_orbit = orbit
            .pose_at(0.0, Point3::ZERO)
            .position
            .distance(orbit.pose_at(5.0, Point3::ZERO).position);
        let d_inspect = inspect
            .pose_at(0.0, Point3::ZERO)
            .position
            .distance(inspect.pose_at(5.0, Point3::ZERO).position);
        assert!(d_orbit > d_inspect);
    }

    #[test]
    fn walkby_has_highest_angular_speed() {
        let target = Point3::ZERO;
        let w = MotionTrace::walk_by().mean_angular_speed(10.0, target);
        let i = MotionTrace::inspect().mean_angular_speed(10.0, target);
        assert!(w > i, "walk-by {w} should exceed inspect {i}");
    }

    #[test]
    fn traces_are_deterministic() {
        let a = MotionTrace::orbit().pose_at(3.3, Point3::ZERO);
        let b = MotionTrace::orbit().pose_at(3.3, Point3::ZERO);
        assert_eq!(a, b);
    }
}
