//! Axis-aligned bounding boxes.

use crate::point::Point3;

/// An axis-aligned bounding box in 3D.
///
/// Used by the k-d tree (tight leaf and node boxes) and by the position
/// encoding stage of the LUT pipeline to normalize neighborhoods.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{Aabb, Point3};
/// let b = Aabb::from_points([Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 4.0, 6.0)]).unwrap();
/// assert_eq!(b.center(), Point3::new(1.0, 2.0, 3.0));
/// assert_eq!(b.extent(), Point3::new(2.0, 4.0, 6.0));
/// assert!(b.contains(Point3::new(1.0, 1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// Creates a bounding box from two corners; the corners are swapped
    /// component-wise if necessary so that `min <= max` holds.
    pub fn new(a: Point3, b: Point3) -> Self {
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Computes the bounding box of an iterator of points, or `None` when the
    /// iterator is empty.
    pub fn from_points<I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = Point3>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut min = first;
        let mut max = first;
        for p in iter {
            min = min.min(p);
            max = max.max(p);
        }
        Some(Self { min, max })
    }

    /// The geometric center of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// The edge lengths of the box.
    #[inline]
    pub fn extent(&self) -> Point3 {
        self.max - self.min
    }

    /// Half the diagonal length; a convenient "radius" for normalization.
    #[inline]
    pub fn half_diagonal(&self) -> f32 {
        self.extent().norm() * 0.5
    }

    /// Length of the longest edge.
    #[inline]
    pub fn longest_edge(&self) -> f32 {
        self.extent().max_element()
    }

    /// Returns `true` when `p` lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Squared distance from `p` to the closest point of the box
    /// (zero when `p` is inside). Used for k-d tree pruning.
    #[inline]
    pub fn distance_squared_to(&self, p: Point3) -> f32 {
        let mut d2 = 0.0f32;
        for axis in 0..3 {
            let v = p[axis];
            if v < self.min[axis] {
                let d = self.min[axis] - v;
                d2 += d * d;
            } else if v > self.max[axis] {
                let d = v - self.max[axis];
                d2 += d * d;
            }
        }
        d2
    }

    /// Squared distance between the closest points of two boxes (zero when
    /// they touch or overlap). This is the node-pair rejection test of the
    /// dual-tree all-kNN traversal: a (query-node, reference-node) pair whose
    /// boxes are farther apart than the query group's pruning bound cannot
    /// contribute any neighbor, so whole subtree pairs are discarded with
    /// three axis gap computations.
    #[inline]
    pub fn distance_squared_to_aabb(&self, other: &Aabb) -> f32 {
        let mut d2 = 0.0f32;
        for axis in 0..3 {
            // The per-axis gap between the two intervals; at most one of the
            // two differences is positive (they overlap otherwise).
            let gap = (self.min[axis] - other.max[axis]).max(other.min[axis] - self.max[axis]);
            if gap > 0.0 {
                d2 += gap * gap;
            }
        }
        d2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_swaps_corners() {
        let b = Aabb::new(Point3::new(1.0, -1.0, 5.0), Point3::new(0.0, 2.0, 3.0));
        assert_eq!(b.min, Point3::new(0.0, -1.0, 3.0));
        assert_eq!(b.max, Point3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn contains() {
        let b = Aabb::new(Point3::ZERO, Point3::ONE);
        assert!(b.contains(Point3::splat(0.5)));
        assert!(!b.contains(Point3::splat(1.5)));
    }

    #[test]
    fn distance_squared_inside_is_zero() {
        let b = Aabb::new(Point3::ZERO, Point3::ONE);
        assert_eq!(b.distance_squared_to(Point3::splat(0.5)), 0.0);
        assert!((b.distance_squared_to(Point3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn aabb_to_aabb_distance() {
        let a = Aabb::new(Point3::ZERO, Point3::ONE);
        // Overlapping and touching boxes are at distance zero.
        assert_eq!(a.distance_squared_to_aabb(&a), 0.0);
        let touching = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert_eq!(a.distance_squared_to_aabb(&touching), 0.0);
        // Separated along one axis: gap of 1 on x.
        let b = Aabb::new(Point3::new(2.0, 0.0, 0.0), Point3::new(3.0, 1.0, 1.0));
        assert!((a.distance_squared_to_aabb(&b) - 1.0).abs() < 1e-6);
        assert_eq!(
            a.distance_squared_to_aabb(&b),
            b.distance_squared_to_aabb(&a)
        );
        // Diagonal separation sums the per-axis gaps.
        let c = Aabb::new(Point3::splat(3.0), Point3::splat(4.0));
        assert!((a.distance_squared_to_aabb(&c) - 12.0).abs() < 1e-6);
        // Consistency with the point distance: a degenerate box is a point.
        let p = Point3::new(-2.0, 0.5, 0.5);
        let degenerate = Aabb::new(p, p);
        assert_eq!(
            a.distance_squared_to_aabb(&degenerate),
            a.distance_squared_to(p)
        );
    }

    #[test]
    fn half_diagonal_and_longest_edge() {
        let b = Aabb::new(Point3::ZERO, Point3::new(3.0, 4.0, 0.0));
        assert!((b.half_diagonal() - 2.5).abs() < 1e-6);
        assert_eq!(b.longest_edge(), 4.0);
    }
}
