//! The [`PointCloud`] container: a structure-of-arrays point set with
//! optional per-point colors.

use crate::aabb::Aabb;
use crate::error::Error;
use crate::kernels::{scan_ids, Tier};
use crate::knn::{key_d2, BestK};
use crate::point::{Color, Point3};
use crate::soa::SoaPositions;
use crate::Result;

/// A point cloud stored as a structure of arrays.
///
/// Positions are mandatory; colors are optional but, when present, must have
/// exactly one entry per position. This is the unit of data that flows
/// through the entire VoLUT pipeline: the server downsamples a `PointCloud`,
/// the client interpolates and refines one.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{PointCloud, Point3, Color};
///
/// let mut cloud = PointCloud::new();
/// cloud.push(Point3::new(0.0, 0.0, 0.0), Some(Color::new(255, 0, 0)));
/// cloud.push(Point3::new(1.0, 0.0, 0.0), Some(Color::new(0, 255, 0)));
/// assert_eq!(cloud.len(), 2);
/// assert!(cloud.has_colors());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointCloud {
    positions: Vec<Point3>,
    colors: Option<Vec<Color>>,
    /// Memoized [`geometry_digest`] of `positions`; reset by every mutating
    /// accessor so a stale digest can never be observed. Ignored by
    /// equality.
    digest: std::sync::OnceLock<u64>,
}

impl PartialEq for PointCloud {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions && self.colors == other.colors
    }
}

/// 64-bit multiply-rotate digest of a position array's bit patterns.
///
/// One streaming pass, a few instructions per point — cheaper than the
/// element-wise slice compare it short-circuits in the index cache, and
/// sensitive to order, length and every coordinate bit (`-0.0` differs from
/// `+0.0`, matching [`crate::delta::FrameDelta::diff`]'s bitwise notion of
/// "same stored point"). Not cryptographic; collisions are guarded by a full
/// compare wherever a false "equal" would change results.
pub fn geometry_digest(points: &[Point3]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (points.len() as u64);
    for p in points {
        let xy = (u64::from(p.x.to_bits()) << 32) | u64::from(p.y.to_bits());
        h = (h.rotate_left(25) ^ xy).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h.rotate_left(25) ^ u64::from(p.z.to_bits())).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h ^ (h >> 31)
}

impl PointCloud {
    /// Creates an empty cloud without colors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cloud with capacity reserved for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            positions: Vec::with_capacity(n),
            colors: None,
            digest: std::sync::OnceLock::new(),
        }
    }

    /// Creates a cloud from positions only.
    pub fn from_positions(positions: Vec<Point3>) -> Self {
        Self {
            positions,
            colors: None,
            digest: std::sync::OnceLock::new(),
        }
    }

    /// Creates a cloud from positions and matching colors.
    ///
    /// # Errors
    /// Returns [`Error::AttributeMismatch`] when the two vectors differ in length.
    pub fn from_positions_and_colors(positions: Vec<Point3>, colors: Vec<Color>) -> Result<Self> {
        if positions.len() != colors.len() {
            return Err(Error::AttributeMismatch {
                positions: positions.len(),
                attributes: colors.len(),
            });
        }
        Ok(Self {
            positions,
            colors: Some(colors),
            digest: std::sync::OnceLock::new(),
        })
    }

    /// Number of points in the cloud.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Returns `true` when the cloud carries per-point colors.
    #[inline]
    pub fn has_colors(&self) -> bool {
        self.colors.is_some()
    }

    /// Borrow of the position array.
    #[inline]
    pub fn positions(&self) -> &[Point3] {
        &self.positions
    }

    /// Mutable borrow of the position array. Invalidates the memoized
    /// geometry digest (the caller may change any coordinate).
    #[inline]
    pub fn positions_mut(&mut self) -> &mut [Point3] {
        self.digest = std::sync::OnceLock::new();
        &mut self.positions
    }

    /// Borrow of the color array, if present.
    #[inline]
    pub fn colors(&self) -> Option<&[Color]> {
        self.colors.as_deref()
    }

    /// Removes and returns the color array, leaving the cloud uncolored.
    /// Paired with [`Self::set_colors`] so per-frame stages can mutate the
    /// color storage in place instead of rebuilding the cloud.
    pub fn take_colors(&mut self) -> Option<Vec<Color>> {
        self.colors.take()
    }

    /// Takes the cloud apart into its position and color arrays.
    pub fn into_parts(self) -> (Vec<Point3>, Option<Vec<Color>>) {
        (self.positions, self.colors)
    }

    /// Installs a complete color array.
    ///
    /// # Errors
    /// Returns [`Error::AttributeMismatch`] when the length differs from the
    /// point count.
    pub fn set_colors(&mut self, colors: Vec<Color>) -> Result<()> {
        if colors.len() != self.positions.len() {
            return Err(Error::AttributeMismatch {
                positions: self.positions.len(),
                attributes: colors.len(),
            });
        }
        self.colors = Some(colors);
        Ok(())
    }

    /// Position of point `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn position(&self, i: usize) -> Point3 {
        self.positions[i]
    }

    /// Color of point `i`, if the cloud has colors.
    #[inline]
    pub fn color(&self, i: usize) -> Option<Color> {
        self.colors.as_ref().map(|c| c[i])
    }

    /// Appends a point. The first push decides whether the cloud is colored;
    /// later pushes must be consistent (a colored cloud rejects `None` by
    /// substituting black, an uncolored cloud ignores a provided color).
    pub fn push(&mut self, position: Point3, color: Option<Color>) {
        self.digest = std::sync::OnceLock::new();
        if self.positions.is_empty() {
            if let Some(c) = color {
                self.colors = Some(vec![c]);
                self.positions.push(position);
                return;
            }
        }
        self.positions.push(position);
        if let Some(colors) = &mut self.colors {
            colors.push(color.unwrap_or(Color::BLACK));
        }
    }

    /// Bulk tail append of positions without colors — the batched equivalent
    /// of repeated `push(p, None)`. A colored cloud pads the new points with
    /// black (exactly as `push` would); the memoized geometry digest is
    /// invalidated once for the whole batch.
    pub fn extend_positions(&mut self, positions: &[Point3]) {
        if positions.is_empty() {
            return;
        }
        self.digest = std::sync::OnceLock::new();
        self.positions.extend_from_slice(positions);
        if let Some(colors) = &mut self.colors {
            colors.extend(std::iter::repeat_n(Color::BLACK, positions.len()));
        }
    }

    /// Iterator over `(position, optional color)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Point3, Option<Color>)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(move |(i, &p)| (p, self.colors.as_ref().map(|c| c[i])))
    }

    /// Extracts the subset of points at `indices`, preserving colors.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointCloud {
        let positions = indices.iter().map(|&i| self.positions[i]).collect();
        let colors = self
            .colors
            .as_ref()
            .map(|c| indices.iter().map(|&i| c[i]).collect());
        PointCloud {
            positions,
            colors,
            digest: std::sync::OnceLock::new(),
        }
    }

    /// Appends all points of `other` to `self`. If exactly one of the clouds
    /// is colored, missing colors are filled with black so the result stays
    /// consistent.
    pub fn merge(&mut self, other: &PointCloud) {
        self.digest = std::sync::OnceLock::new();
        match (&mut self.colors, &other.colors) {
            (Some(mine), Some(theirs)) => mine.extend_from_slice(theirs),
            (Some(mine), None) => mine.extend(std::iter::repeat_n(Color::BLACK, other.len())),
            (None, Some(theirs)) => {
                let mut c = vec![Color::BLACK; self.len()];
                c.extend_from_slice(theirs);
                self.colors = Some(c);
            }
            (None, None) => {}
        }
        self.positions.extend_from_slice(&other.positions);
    }

    /// Bounding box of the cloud, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        Aabb::from_points(self.positions.iter().copied())
    }

    /// Translates every point by `offset`.
    pub fn translate(&mut self, offset: Point3) {
        self.digest = std::sync::OnceLock::new();
        for p in &mut self.positions {
            *p += offset;
        }
    }

    /// Normalizes the cloud into the unit cube `[-1, 1]^3` centered at the
    /// origin, returning the applied `(center, scale)` so the transform can be
    /// inverted. Returns an error for empty clouds.
    ///
    /// # Errors
    /// Returns [`Error::EmptyCloud`] when the cloud has no points.
    pub fn normalize_unit_cube(&mut self) -> Result<(Point3, f32)> {
        let bounds = self
            .bounds()
            .ok_or_else(|| Error::EmptyCloud("normalize_unit_cube".into()))?;
        self.digest = std::sync::OnceLock::new();
        let center = bounds.center();
        let half = bounds.longest_edge() * 0.5;
        let scale = if half <= f32::EPSILON {
            1.0
        } else {
            1.0 / half
        };
        for p in &mut self.positions {
            *p = (*p - center) * scale;
        }
        Ok((center, scale))
    }

    /// The cloud's 64-bit geometry digest (see [`geometry_digest`]),
    /// memoized after the first call and invalidated by every
    /// position-mutating method. Streaming consumers use it as a cheap
    /// first-pass identity check: the engine's index cache compares digests
    /// before paying an element-wise position compare, so mismatched frames
    /// short-circuit without scanning the cloud.
    pub fn geometry_digest(&self) -> u64 {
        *self.digest.get_or_init(|| geometry_digest(&self.positions))
    }

    /// Raw size in bytes of this cloud's attributes: 12 bytes per position
    /// plus 3 per color, the payload of a keyframe before its framing.
    pub fn byte_size(&self) -> usize {
        let pos = self.positions.len() * 12;
        let col = self.colors.as_ref().map_or(0, |c| c.len() * 3);
        pos + col
    }

    /// Average nearest-neighbor spacing: the mean, over every
    /// `max(⌊len / samples⌋, 1)`-th point (points 0, stride, 2·stride, …, so
    /// up to `samples + 1` of them — 65 on a 50k cloud at `samples = 64`),
    /// of the distance to the nearest *other* point, summed in `f64`. Points
    /// with NaN coordinates never count as a nearest point; a sample with no
    /// finite neighbor contributes `+inf`. Returns `None` for clouds with
    /// fewer than two points. Session admission and client calibration use
    /// it as a density scale.
    pub fn mean_spacing(&self, samples: usize) -> Option<f32> {
        let n = self.len();
        if n < 2 {
            return None;
        }
        // Each sample is one full scan of the shared SoA kernel, the
        // brute-force kNN oracle's pass, into a two-key row: at most one of
        // the two closest keys is the sample itself, so the first other one
        // is the nearest other point. NaN distances never enter a row (the
        // scan's `<=` filter drops them, as a plain `if d < best` loop
        // does), and a sentinel key reads `+inf`.
        let mut soa = SoaPositions::default();
        soa.fill(&self.positions);
        let ids: Vec<u32> = (0..n as u32).collect();
        let tier = Tier::detect();
        let mut keys = [0u64; 2];
        let stride = (n / samples.max(1)).max(1);
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in (0..n).step_by(stride) {
            let mut row = BestK::new(&mut keys);
            scan_ids(tier, &soa, &ids, 0, n, self.positions[i], &mut row);
            let other = if keys[0] as u32 as usize == i {
                keys[1]
            } else {
                keys[0]
            };
            total += f64::from(key_d2(other).sqrt());
            count += 1;
        }
        Some((total / count as f64) as f32)
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<T: IntoIterator<Item = Point3>>(iter: T) -> Self {
        PointCloud::from_positions(iter.into_iter().collect())
    }
}

impl Extend<Point3> for PointCloud {
    fn extend<T: IntoIterator<Item = Point3>>(&mut self, iter: T) {
        for p in iter {
            self.push(p, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colored_cloud() -> PointCloud {
        PointCloud::from_positions_and_colors(
            vec![
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 2.0, 0.0),
                Point3::new(0.0, 0.0, 4.0),
            ],
            vec![
                Color::new(255, 0, 0),
                Color::new(0, 255, 0),
                Color::new(0, 0, 255),
                Color::new(9, 9, 9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mismatched_colors_rejected() {
        let err = PointCloud::from_positions_and_colors(
            vec![Point3::ZERO],
            vec![Color::BLACK, Color::WHITE],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::AttributeMismatch {
                positions: 1,
                attributes: 2
            }
        ));
    }

    #[test]
    fn push_and_iter() {
        let mut c = PointCloud::new();
        c.push(Point3::ZERO, Some(Color::WHITE));
        c.push(Point3::ONE, None);
        assert_eq!(c.len(), 2);
        assert!(c.has_colors());
        let collected: Vec<_> = c.iter().collect();
        assert_eq!(collected[0].1, Some(Color::WHITE));
        assert_eq!(collected[1].1, Some(Color::BLACK));
    }

    #[test]
    fn select_preserves_colors() {
        let c = colored_cloud();
        let sub = c.select(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.position(0), Point3::new(0.0, 2.0, 0.0));
        assert_eq!(sub.color(1), Some(Color::new(255, 0, 0)));
    }

    #[test]
    fn merge_mixed_colorness() {
        let mut a = PointCloud::from_positions(vec![Point3::ZERO]);
        let b = colored_cloud();
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert!(a.has_colors());
        assert_eq!(a.color(0), Some(Color::BLACK));
        assert_eq!(a.color(1), Some(Color::new(255, 0, 0)));
    }

    #[test]
    fn bounds() {
        let c = colored_cloud();
        let b = c.bounds().unwrap();
        assert_eq!(b.min, Point3::ZERO);
        assert_eq!(b.max, Point3::new(1.0, 2.0, 4.0));
        assert!(PointCloud::new().bounds().is_none());
    }

    #[test]
    fn normalize_unit_cube_bounds() {
        let mut c = colored_cloud();
        c.normalize_unit_cube().unwrap();
        let b = c.bounds().unwrap();
        assert!(b.min.min_element() >= -1.0 - 1e-5);
        assert!(b.max.max_element() <= 1.0 + 1e-5);
        assert!(PointCloud::new().normalize_unit_cube().is_err());
    }

    #[test]
    fn translate() {
        let mut c = PointCloud::from_positions(vec![Point3::ONE]);
        c.translate(Point3::new(1.0, 0.0, 0.0));
        assert_eq!(c.position(0), Point3::new(2.0, 1.0, 1.0));
    }

    #[test]
    fn byte_size_model() {
        let c = colored_cloud();
        assert_eq!(c.byte_size(), 4 * 12 + 4 * 3);
        let plain = PointCloud::from_positions(vec![Point3::ZERO; 10]);
        assert_eq!(plain.byte_size(), 120);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut c: PointCloud = (0..5).map(|i| Point3::splat(i as f32)).collect();
        assert_eq!(c.len(), 5);
        c.extend(vec![Point3::ZERO]);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn geometry_digest_tracks_positions_only() {
        let mut a = colored_cloud();
        let d0 = a.geometry_digest();
        // Memoized: repeated calls agree; equal content hashes equal.
        assert_eq!(a.geometry_digest(), d0);
        assert_eq!(colored_cloud().geometry_digest(), d0);
        assert_eq!(geometry_digest(a.positions()), d0);
        // Color-only mutation does not change the geometry digest.
        let colors = a.take_colors().unwrap();
        a.set_colors(colors).unwrap();
        assert_eq!(a.geometry_digest(), d0);
        // Every position mutator invalidates.
        a.translate(Point3::new(1.0, 0.0, 0.0));
        let d1 = a.geometry_digest();
        assert_ne!(d1, d0);
        a.push(Point3::ZERO, None);
        assert_ne!(a.geometry_digest(), d1);
        let d2 = a.geometry_digest();
        a.positions_mut()[0].x += 1.0;
        assert_ne!(a.geometry_digest(), d2);
        // Order and sign-of-zero sensitivity.
        let fwd = PointCloud::from_positions(vec![Point3::ZERO, Point3::ONE]);
        let rev = PointCloud::from_positions(vec![Point3::ONE, Point3::ZERO]);
        assert_ne!(fwd.geometry_digest(), rev.geometry_digest());
        let neg = PointCloud::from_positions(vec![Point3::new(-0.0, 0.0, 0.0), Point3::ONE]);
        assert_ne!(fwd.geometry_digest(), neg.geometry_digest());
    }

    /// Invalidation audit: every position-mutating method must reset the
    /// memoized digest, or the engine's index cache would keep serving a
    /// stale spatial index for the mutated cloud. Any new mutator belongs in
    /// this list.
    #[test]
    fn every_position_mutator_invalidates_the_digest() {
        type Mutator = (&'static str, fn(&mut PointCloud));
        let mutators: Vec<Mutator> = vec![
            ("push", |c| c.push(Point3::splat(9.0), None)),
            ("extend_positions", |c| {
                c.extend_positions(&[Point3::splat(7.0), Point3::splat(8.0)]);
            }),
            ("Extend::extend", |c| c.extend(vec![Point3::splat(6.0)])),
            ("merge", |c| {
                c.merge(&PointCloud::from_positions(vec![Point3::splat(5.0)]));
            }),
            ("translate", |c| c.translate(Point3::new(0.5, 0.0, 0.0))),
            ("normalize_unit_cube", |c| {
                c.normalize_unit_cube().unwrap();
            }),
            ("positions_mut", |c| c.positions_mut()[0].y = -2.0),
        ];
        for (name, mutate) in mutators {
            let mut cloud = colored_cloud();
            let before = cloud.geometry_digest();
            mutate(&mut cloud);
            // The digest must both change and match a fresh recomputation.
            assert_ne!(cloud.geometry_digest(), before, "{name} left digest stale");
            assert_eq!(
                cloud.geometry_digest(),
                geometry_digest(cloud.positions()),
                "{name} digest does not match recomputation"
            );
        }
        // `select` builds a fresh cloud: its digest must reflect the subset.
        let c = colored_cloud();
        let sub = c.select(&[1, 3]);
        assert_eq!(sub.geometry_digest(), geometry_digest(sub.positions()));
        assert_ne!(sub.geometry_digest(), c.geometry_digest());
    }

    #[test]
    fn extend_positions_matches_repeated_push() {
        let tail = [Point3::splat(4.0), Point3::splat(5.0)];
        // Colored cloud: new points are padded with black, like `push`.
        let mut bulk = colored_cloud();
        let mut pushed = colored_cloud();
        bulk.extend_positions(&tail);
        for &p in &tail {
            pushed.push(p, None);
        }
        assert_eq!(bulk, pushed);
        // Uncolored cloud stays uncolored.
        let mut plain = PointCloud::from_positions(vec![Point3::ZERO]);
        plain.extend_positions(&tail);
        assert_eq!(plain.len(), 3);
        assert!(!plain.has_colors());
        // Empty batch is a no-op that keeps the memoized digest.
        let d = plain.geometry_digest();
        plain.extend_positions(&[]);
        assert_eq!(plain.geometry_digest(), d);
    }

    #[test]
    fn mean_spacing_reasonable() {
        let c =
            PointCloud::from_positions((0..10).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect());
        let s = c.mean_spacing(10).unwrap();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(PointCloud::from_positions(vec![Point3::ZERO])
            .mean_spacing(4)
            .is_none());
    }
}
