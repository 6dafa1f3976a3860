//! Geometric primitives: 3D points/vectors and RGB colors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in 3D Euclidean space with `f32` coordinates.
///
/// `Point3` is deliberately a plain `Copy` value type: the hot loops of the
/// super-resolution pipeline move millions of these per frame.
///
/// # Example
///
/// ```
/// use volut_pointcloud::Point3;
/// let a = Point3::new(1.0, 2.0, 3.0);
/// let b = Point3::new(1.0, 0.0, 3.0);
/// assert_eq!(a.distance(b), 2.0);
/// assert_eq!(a.midpoint(b), Point3::new(1.0, 1.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// X coordinate.
    pub x: f32,
    /// Y coordinate.
    pub y: f32,
    /// Z coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin `(0, 0, 0)`.
    pub const ZERO: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// The point `(1, 1, 1)`.
    pub const ONE: Point3 = Point3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };

    /// Creates a new point from its three coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a point with all coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Creates a point from a `[x, y, z]` array.
    #[inline]
    pub const fn from_array(a: [f32; 3]) -> Self {
        Self {
            x: a[0],
            y: a[1],
            z: a[2],
        }
    }

    /// Returns the coordinates as a `[x, y, z]` array.
    #[inline]
    pub const fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn distance_squared(self, other: Point3) -> f32 {
        (self - other).norm_squared()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f32 {
        self.distance_squared(other).sqrt()
    }

    /// Midpoint between `self` and `other` (the paper's interpolation primitive).
    #[inline]
    pub fn midpoint(self, other: Point3) -> Point3 {
        Point3::new(
            0.5 * (self.x + other.x),
            0.5 * (self.y + other.y),
            0.5 * (self.z + other.z),
        )
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Point3) -> f32 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Returns the unit-length vector pointing in the same direction, or
    /// `None` when the norm is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Option<Point3> {
        let n = self.norm();
        if n <= f32::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Largest coordinate value.
    #[inline]
    pub fn max_element(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Smallest coordinate value.
    #[inline]
    pub fn min_element(self) -> f32 {
        self.x.min(self.y).min(self.z)
    }

    /// Returns `true` when all coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<[f32; 3]> for Point3 {
    fn from(a: [f32; 3]) -> Self {
        Point3::from_array(a)
    }
}

impl From<Point3> for [f32; 3] {
    fn from(p: Point3) -> Self {
        p.to_array()
    }
}

impl From<(f32, f32, f32)> for Point3 {
    fn from(t: (f32, f32, f32)) -> Self {
        Point3::new(t.0, t.1, t.2)
    }
}

impl Index<usize> for Point3 {
    type Output = f32;

    /// # Panics
    /// Panics when `index >= 3`.
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Point3 index out of range: {index}"),
        }
    }
}

impl IndexMut<usize> for Point3 {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        match index {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Point3 index out of range: {index}"),
        }
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Point3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f32) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f32) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

/// An 8-bit RGB color attached to a point.
///
/// # Example
///
/// ```
/// use volut_pointcloud::Color;
/// let red = Color::new(255, 0, 0);
/// assert_eq!(red.to_f32(), [1.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Pure white.
    pub const WHITE: Color = Color {
        r: 255,
        g: 255,
        b: 255,
    };
    /// Pure black.
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };

    /// Creates a color from its channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Returns the channels as floats in `[0, 1]`.
    #[inline]
    pub fn to_f32(self) -> [f32; 3] {
        [
            f32::from(self.r) / 255.0,
            f32::from(self.g) / 255.0,
            f32::from(self.b) / 255.0,
        ]
    }

    /// Builds a color from floats in `[0, 1]`, clamping out-of-range values.
    #[inline]
    pub fn from_f32(rgb: [f32; 3]) -> Self {
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        Self::new(q(rgb[0]), q(rgb[1]), q(rgb[2]))
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

impl From<[u8; 3]> for Color {
    fn from(a: [u8; 3]) -> Self {
        Color::new(a[0], a[1], a[2])
    }
}

impl From<Color> for [u8; 3] {
    fn from(c: Color) -> Self {
        [c.r, c.g, c.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Point3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn point_distance_and_midpoint() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(a.midpoint(b), Point3::new(1.5, 2.0, 0.0));
    }

    #[test]
    fn point_dot() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.dot(x), 1.0);
    }

    #[test]
    fn point_normalized() {
        let v = Point3::new(0.0, 3.0, 4.0);
        let n = v.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-6);
        assert!(Point3::ZERO.normalized().is_none());
    }

    #[test]
    fn point_min_max() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Point3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Point3::new(3.0, 5.0, 0.0));
        assert_eq!(a.max_element(), 5.0);
        assert_eq!(a.min_element(), -2.0);
    }

    #[test]
    fn point_indexing() {
        let mut p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[2], 3.0);
        p[1] = 9.0;
        assert_eq!(p.y, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_index_out_of_range_panics() {
        let p = Point3::ZERO;
        let _ = p[3];
    }

    #[test]
    fn point_conversions() {
        let p: Point3 = [1.0, 2.0, 3.0].into();
        let a: [f32; 3] = p.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
        let q: Point3 = (4.0, 5.0, 6.0).into();
        assert_eq!(q, Point3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn color_roundtrip() {
        let c = Color::new(10, 128, 250);
        let f = c.to_f32();
        let back = Color::from_f32(f);
        assert_eq!(c, back);
        let arr: [u8; 3] = c.into();
        assert_eq!(Color::from(arr), c);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", Point3::ZERO).is_empty());
        assert!(!format!("{}", Color::WHITE).is_empty());
    }
}
