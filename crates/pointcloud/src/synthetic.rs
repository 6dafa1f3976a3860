//! Procedural synthetic point clouds.
//!
//! The paper evaluates on four captured volumetric videos (Long Dress, Loot,
//! Haggle, Lab) that are not redistributable; this module generates
//! procedural stand-ins with comparable characteristics: surface-like
//! distributions, local density variation, curvature, fine detail and smooth
//! per-point color fields — the properties the interpolation, refinement and
//! quality metrics respond to.

use crate::cloud::PointCloud;
use crate::delta::FrameDelta;
use crate::point::{Color, Point3};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::f32::consts::PI;
use std::sync::Arc;

/// Uniformly samples `n` points on a sphere of radius `radius`, colored by a
/// smooth angular color field.
pub fn sphere(n: usize, radius: f32, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for _ in 0..n {
        let z: f32 = rng.random_range(-1.0..1.0);
        let theta: f32 = rng.random_range(0.0..2.0 * PI);
        let r_xy = (1.0 - z * z).sqrt();
        let p = Point3::new(r_xy * theta.cos(), r_xy * theta.sin(), z) * radius;
        positions.push(p);
        colors.push(angular_color(p));
    }
    PointCloud::from_positions_and_colors(positions, colors).expect("lengths match")
}

/// Samples `n` points on a torus with major radius `major` and minor radius
/// `minor`, colored by position.
pub fn torus(n: usize, major: f32, minor: f32, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f32 = rng.random_range(0.0..2.0 * PI);
        let v: f32 = rng.random_range(0.0..2.0 * PI);
        let p = Point3::new(
            (major + minor * v.cos()) * u.cos(),
            (major + minor * v.cos()) * u.sin(),
            minor * v.sin(),
        );
        positions.push(p);
        colors.push(angular_color(p));
    }
    PointCloud::from_positions_and_colors(positions, colors).expect("lengths match")
}

/// Samples `n` points on an axis-aligned rectangle in the XY plane with a
/// checker color pattern. `noise` adds Gaussian-ish jitter along Z to mimic
/// capture noise.
pub fn plane(n: usize, width: f32, height: f32, noise: f32, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for _ in 0..n {
        let x: f32 = rng.random_range(-0.5f32..0.5) * width;
        let y: f32 = rng.random_range(-0.5f32..0.5) * height;
        let z = gaussian(&mut rng) * noise;
        positions.push(Point3::new(x, y, z));
        let checker = (((x * 4.0 / width).floor() + (y * 4.0 / height).floor()) as i32) % 2 == 0;
        colors.push(if checker {
            Color::new(220, 220, 220)
        } else {
            Color::new(40, 40, 40)
        });
    }
    PointCloud::from_positions_and_colors(positions, colors).expect("lengths match")
}

/// A crude articulated humanoid built from ellipsoid and cylinder parts.
///
/// `pose_phase` (radians) swings the arms/legs so that a sequence of
/// increasing phases yields an animated "walking" figure — the stand-in for
/// the paper's Long Dress / Loot human captures.
pub fn humanoid(n: usize, pose_phase: f32, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed);
    // Body parts: (center, radii, weight, base color)
    let swing = pose_phase.sin() * 0.3;
    let parts: Vec<(Point3, Point3, f32, Color)> = vec![
        // torso
        (
            Point3::new(0.0, 0.0, 1.2),
            Point3::new(0.28, 0.18, 0.42),
            3.0,
            Color::new(180, 40, 60),
        ),
        // head
        (
            Point3::new(0.0, 0.0, 1.85),
            Point3::new(0.14, 0.15, 0.16),
            1.0,
            Color::new(230, 190, 160),
        ),
        // left arm
        (
            Point3::new(-0.38, swing * 0.4, 1.3),
            Point3::new(0.08, 0.08, 0.35),
            1.0,
            Color::new(230, 190, 160),
        ),
        // right arm
        (
            Point3::new(0.38, -swing * 0.4, 1.3),
            Point3::new(0.08, 0.08, 0.35),
            1.0,
            Color::new(230, 190, 160),
        ),
        // left leg
        (
            Point3::new(-0.15, swing * 0.5, 0.45),
            Point3::new(0.1, 0.1, 0.45),
            1.6,
            Color::new(40, 40, 120),
        ),
        // right leg
        (
            Point3::new(0.15, -swing * 0.5, 0.45),
            Point3::new(0.1, 0.1, 0.45),
            1.6,
            Color::new(40, 40, 120),
        ),
        // skirt / dress flare
        (
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(0.35, 0.3, 0.2),
            2.0,
            Color::new(200, 60, 90),
        ),
    ];
    let total_weight: f32 = parts.iter().map(|p| p.2).sum();
    let mut positions = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick = rng.random_range(0.0..total_weight);
        let mut chosen = &parts[0];
        for part in &parts {
            if pick < part.2 {
                chosen = part;
                break;
            }
            pick -= part.2;
        }
        let (center, radii, _, base) = chosen;
        // Sample on the ellipsoid surface.
        let z: f32 = rng.random_range(-1.0..1.0);
        let theta: f32 = rng.random_range(0.0..2.0 * PI);
        let r_xy = (1.0 - z * z).sqrt();
        let unit = Point3::new(r_xy * theta.cos(), r_xy * theta.sin(), z);
        let p = Point3::new(
            center.x + unit.x * radii.x,
            center.y + unit.y * radii.y,
            center.z + unit.z * radii.z,
        );
        // Cloth-like high frequency detail on colors.
        let stripe = ((p.z * 40.0).sin() * 0.5 + 0.5) * 0.3 + 0.7;
        let c = Color::from_f32([
            base.to_f32()[0] * stripe,
            base.to_f32()[1] * stripe,
            base.to_f32()[2] * stripe,
        ]);
        positions.push(p);
        colors.push(c);
    }
    PointCloud::from_positions_and_colors(positions, colors).expect("lengths match")
}

/// Several Gaussian blobs: a highly non-uniform density cloud used to stress
/// the dilated interpolation (dense cores, sparse fringes).
pub fn gaussian_blobs(n: usize, blobs: usize, spread: f32, seed: u64) -> PointCloud {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let blobs = blobs.max(1);
    let centers: Vec<Point3> = (0..blobs)
        .map(|_| {
            Point3::new(
                rng.random_range(-spread..spread),
                rng.random_range(-spread..spread),
                rng.random_range(-spread..spread),
            )
        })
        .collect();
    let mut positions = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for i in 0..n {
        let b = i % blobs;
        let sigma = 0.1 + 0.2 * (b as f32 / blobs as f32);
        let p = centers[b]
            + Point3::new(
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
            );
        positions.push(p);
        colors.push(Color::from_f32([
            b as f32 / blobs as f32,
            1.0 - b as f32 / blobs as f32,
            0.5,
        ]));
    }
    PointCloud::from_positions_and_colors(positions, colors).expect("lengths match")
}

/// A room-like scene: floor plane, two walls and two humanoids — the stand-in
/// for the multi-person "Haggle" / "Lab" captures.
pub fn room_scene(n: usize, phase: f32, seed: u64) -> PointCloud {
    let quarter = n / 4;
    let mut scene = plane(quarter, 4.0, 4.0, 0.01, seed);
    let mut wall = plane(quarter, 4.0, 2.5, 0.01, seed.wrapping_add(1));
    // Stand the wall up along X-Z and push it to the back of the room.
    for p in wall.positions_mut() {
        let y = p.y;
        p.y = -2.0 + p.z;
        p.z = y + 1.25;
    }
    scene.merge(&wall);
    let mut person_a = humanoid(quarter, phase, seed.wrapping_add(2));
    person_a.translate(Point3::new(-0.8, 0.3, 0.0));
    let mut person_b = humanoid(n - 3 * quarter, phase + PI / 2.0, seed.wrapping_add(3));
    person_b.translate(Point3::new(0.8, -0.3, 0.0));
    scene.merge(&person_a);
    scene.merge(&person_b);
    scene
}

/// Configuration of a [`DeltaStream`] — the synthetic stand-in for a
/// chunked volumetric stream's frame-to-frame churn.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStreamConfig {
    /// Fraction of points replaced per frame (`0.0..=1.0`). The churned set
    /// is a *spatially coherent* cluster (the nearest points around a random
    /// anchor), matching how chunked delivery and moving subjects change a
    /// real volumetric frame — scattered random churn would invalidate far
    /// more cached neighborhoods than streaming workloads actually do.
    pub churn: f64,
    /// Distance the replacement cluster drifts from the removed cluster's
    /// centroid each frame (world units; pick relative to the cloud extent).
    pub drift: f32,
    /// Per-point Gaussian jitter of the reinserted points. Keep nonzero so
    /// reinsertions are bitwise-fresh points rather than exact duplicates of
    /// the removed ones.
    pub jitter: f32,
    /// Seed of the stream's RNG (frame sequences are deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for DeltaStreamConfig {
    fn default() -> Self {
        Self {
            churn: 0.1,
            drift: 0.05,
            jitter: 0.01,
            seed: 0,
        }
    }
}

/// A deterministic delta-frame sequence: each [`DeltaStream::advance`] call
/// removes a spatially coherent cluster of points and reinserts a drifted,
/// jittered copy of it (appended after the survivors), returning the exact
/// [`FrameDelta`] describing the step. Survivors keep their relative order
/// and bitwise positions, so the deltas uphold the order invariant the
/// incremental kNN consumers rely on (see [`crate::delta`]).
///
/// The current frame is an `Arc`: every frame is built whole by
/// [`DeltaStream::advance`] and never mutated after, so a consumer that
/// keeps it (a streaming origin's head) shares it through
/// [`DeltaStream::shared_frame`] instead of copying it.
///
/// # Example
///
/// ```
/// use volut_pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
/// let base = synthetic::humanoid(2_000, 0.5, 1);
/// let mut stream = DeltaStream::new(base, DeltaStreamConfig::default());
/// let before = stream.frame().clone();
/// let delta = stream.advance();
/// assert!(delta.verify(before.positions(), stream.frame().positions()).is_ok());
/// assert_eq!(stream.frame().len(), 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaStream {
    frame: Arc<PointCloud>,
    cfg: DeltaStreamConfig,
    rng: StdRng,
}

impl DeltaStream {
    /// Starts a stream at `base` (frame 0).
    pub fn new(base: PointCloud, cfg: DeltaStreamConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD3_17A5),
            frame: Arc::new(base),
            cfg,
        }
    }

    /// The current frame.
    pub fn frame(&self) -> &PointCloud {
        &self.frame
    }

    /// The current frame as a shared handle: the stream's own allocation,
    /// not a copy. The next [`Self::advance`] replaces the stream's handle
    /// and leaves this one as it was.
    pub fn shared_frame(&self) -> Arc<PointCloud> {
        Arc::clone(&self.frame)
    }

    /// Advances to the next frame and returns the delta that produced it.
    pub fn advance(&mut self) -> FrameDelta {
        self.advance_with(nearest_indices)
    }

    /// [`Self::advance`] with the churned-set selection passed in, so tests
    /// can run a stream against a reference selection.
    fn advance_with(&mut self, nearest: fn(&[Point3], Point3, usize) -> Vec<u32>) -> FrameDelta {
        let n = self.frame.len();
        let m = ((n as f64 * self.cfg.churn).round() as usize).min(n);
        if m == 0 {
            return FrameDelta::from_parts(n, n, Vec::new(), Vec::new())
                .expect("identity delta is always consistent");
        }
        let positions = self.frame.positions();
        // The churned set: the m nearest points around a random anchor.
        let anchor = positions[self.rng.random_range(0..n)];
        let removed = nearest(positions, anchor, m);

        // Replacement cluster: the removed points shifted to a drifted
        // center, with per-point jitter.
        let centroid = removed
            .iter()
            .fold(Point3::ZERO, |acc, &i| acc + positions[i as usize])
            / m as f32;
        let z: f32 = self.rng.random_range(-1.0..1.0);
        let theta: f32 = self.rng.random_range(0.0..2.0 * PI);
        let r_xy = (1.0 - z * z).sqrt();
        let dir = Point3::new(r_xy * theta.cos(), r_xy * theta.sin(), z);
        let target = centroid + dir * self.cfg.drift;
        let colors = self.frame.colors();
        let mut new_positions = Vec::with_capacity(n);
        let mut new_colors = colors.map(|_| Vec::with_capacity(n));
        let mut removed_mark = vec![false; n];
        for &i in &removed {
            removed_mark[i as usize] = true;
        }
        for (i, &p) in positions.iter().enumerate() {
            if !removed_mark[i] {
                new_positions.push(p);
                if let (Some(out), Some(c)) = (new_colors.as_mut(), colors) {
                    out.push(c[i]);
                }
            }
        }
        for &i in &removed {
            let p = positions[i as usize] - centroid
                + target
                + Point3::new(
                    gaussian(&mut self.rng),
                    gaussian(&mut self.rng),
                    gaussian(&mut self.rng),
                ) * self.cfg.jitter;
            new_positions.push(p);
            if let (Some(out), Some(c)) = (new_colors.as_mut(), colors) {
                out.push(c[i as usize]);
            }
        }
        let inserted: Vec<u32> = ((n - m) as u32..n as u32).collect();
        let delta = FrameDelta::from_parts(n, n, removed, inserted)
            .expect("constructed counts are consistent");
        self.frame = Arc::new(match new_colors {
            Some(c) => PointCloud::from_positions_and_colors(new_positions, c)
                .expect("lengths match by construction"),
            None => PointCloud::from_positions(new_positions),
        });
        delta
    }
}

/// Indices of the `m` points nearest `anchor`, ascending. Ties are
/// index-broken through the packed `(distance, index)` key; keys are unique,
/// so selecting the `m` smallest picks exactly the set a full sort's first
/// `m` would, in `O(n)`.
fn nearest_indices(positions: &[Point3], anchor: Point3, m: usize) -> Vec<u32> {
    let mut keyed: Vec<u64> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| (u64::from(p.distance_squared(anchor).to_bits()) << 32) | i as u64)
        .collect();
    if m < keyed.len() {
        keyed.select_nth_unstable(m);
    }
    let mut nearest: Vec<u32> = keyed[..m].iter().map(|&key| key as u32).collect();
    nearest.sort_unstable();
    nearest
}

/// Materializes `frames` frames of a [`DeltaStream`] over `base` (frame 0 is
/// `base` itself) — the convenience form for benches and tests that want the
/// whole churned sequence up front.
pub fn delta_frame_sequence(
    base: &PointCloud,
    frames: usize,
    cfg: DeltaStreamConfig,
) -> Vec<PointCloud> {
    let mut stream = DeltaStream::new(base.clone(), cfg);
    let mut out = Vec::with_capacity(frames);
    if frames > 0 {
        out.push(base.clone());
    }
    for _ in 1..frames {
        stream.advance();
        out.push(stream.frame().clone());
    }
    out
}

/// Smooth color field used by several generators so that colorization has a
/// meaningful signal to reconstruct.
fn angular_color(p: Point3) -> Color {
    let n = p.normalized().unwrap_or(Point3::new(1.0, 0.0, 0.0));
    Color::from_f32([0.5 + 0.5 * n.x, 0.5 + 0.5 * n.y, 0.5 + 0.5 * n.z])
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;

    /// The churned-set selection as it was before it became a select: a
    /// full sort of the packed keys.
    fn nearest_indices_by_sort(positions: &[Point3], anchor: Point3, m: usize) -> Vec<u32> {
        let mut keyed: Vec<(u64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    (u64::from(p.distance_squared(anchor).to_bits()) << 32) | i as u64,
                    i as u32,
                )
            })
            .collect();
        keyed.sort_unstable();
        let mut removed: Vec<u32> = keyed[..m].iter().map(|&(_, i)| i).collect();
        removed.sort_unstable();
        removed
    }

    #[test]
    fn selected_churn_matches_the_sort_based_stream() {
        for n in [1usize, 2, 512, 4096] {
            for churn in [0.01, 0.1, 0.5, 1.0] {
                for seed in 0..3u64 {
                    let cfg = DeltaStreamConfig {
                        churn,
                        drift: 0.05,
                        jitter: 0.01,
                        seed,
                    };
                    let base = humanoid(n, 0.2, seed + 40);
                    let mut fast = DeltaStream::new(base.clone(), cfg);
                    let mut reference = DeltaStream::new(base, cfg);
                    for frame in 0..4 {
                        let what = format!("n {n} churn {churn} seed {seed} frame {frame}");
                        assert_eq!(
                            fast.advance(),
                            reference.advance_with(nearest_indices_by_sort),
                            "{what}: delta"
                        );
                        assert_eq!(fast.frame(), reference.frame(), "{what}: frame");
                    }
                }
            }
        }
    }

    #[test]
    fn generators_produce_requested_counts() {
        assert_eq!(sphere(100, 1.0, 1).len(), 100);
        assert_eq!(torus(200, 1.0, 0.3, 1).len(), 200);
        assert_eq!(plane(50, 2.0, 2.0, 0.0, 1).len(), 50);
        assert_eq!(humanoid(300, 0.0, 1).len(), 300);
        assert_eq!(gaussian_blobs(120, 4, 1.0, 1).len(), 120);
        assert_eq!(room_scene(400, 0.0, 1).len(), 400);
    }

    #[test]
    fn all_generators_are_colored_and_finite() {
        let clouds = vec![
            sphere(100, 1.0, 2),
            torus(100, 1.0, 0.3, 2),
            plane(100, 1.0, 1.0, 0.05, 2),
            humanoid(100, 0.3, 2),
            gaussian_blobs(100, 3, 1.0, 2),
            room_scene(100, 0.3, 2),
        ];
        for c in clouds {
            assert!(c.has_colors());
            assert!(c.positions().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn sphere_points_lie_on_sphere() {
        let c = sphere(500, 2.0, 3);
        for &p in c.positions() {
            assert!((p.norm() - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn torus_points_lie_on_torus() {
        let c = torus(500, 1.0, 0.25, 3);
        for &p in c.positions() {
            let ring = (p.x * p.x + p.y * p.y).sqrt() - 1.0;
            let d = (ring * ring + p.z * p.z).sqrt();
            assert!((d - 0.25).abs() < 1e-4);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(humanoid(100, 0.5, 7), humanoid(100, 0.5, 7));
        assert_ne!(humanoid(100, 0.5, 7), humanoid(100, 0.5, 8));
    }

    #[test]
    fn humanoid_animation_changes_geometry() {
        let a = humanoid(500, 0.0, 9);
        let b = humanoid(500, PI / 2.0, 9);
        assert_ne!(a, b);
    }

    #[test]
    fn delta_stream_produces_verified_deltas() {
        let base = humanoid(2_000, 0.4, 3);
        let mut stream = DeltaStream::new(
            base,
            DeltaStreamConfig {
                churn: 0.1,
                drift: 0.08,
                jitter: 0.01,
                seed: 5,
            },
        );
        for _ in 0..5 {
            let before = stream.frame().clone();
            let delta = stream.advance();
            let after = stream.frame();
            assert_eq!(after.len(), 2_000, "point count is conserved");
            assert!(after.has_colors());
            assert_eq!(delta.removed().len(), 200);
            assert_eq!(delta.inserted().len(), 200);
            assert!(delta.verify(before.positions(), after.positions()).is_ok());
            // The diff recovers a delta at most as churned as the truth
            // (bitwise-identical survivors must all match).
            let diffed = FrameDelta::diff(before.positions(), after.positions());
            assert!(diffed.verify(before.positions(), after.positions()).is_ok());
            assert!(diffed.survivors() >= delta.survivors());
        }
    }

    #[test]
    fn delta_stream_is_deterministic_and_coherent() {
        let base = sphere(1_000, 1.0, 9);
        let cfg = DeltaStreamConfig {
            churn: 0.2,
            ..DeltaStreamConfig::default()
        };
        let a = delta_frame_sequence(&base, 4, cfg);
        let b = delta_frame_sequence(&base, 4, cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], base);
        assert_ne!(a[0], a[1]);
        // Spatial coherence: the removed set is a cluster, so its bounding
        // box is much smaller than the cloud's.
        let mut stream = DeltaStream::new(base.clone(), cfg);
        let before = stream.frame().clone();
        let delta = stream.advance();
        let cluster = Aabb::from_points(
            delta
                .removed()
                .iter()
                .map(|&i| before.positions()[i as usize]),
        )
        .unwrap();
        let whole = before.bounds().unwrap();
        assert!(cluster.half_diagonal() < whole.half_diagonal() * 0.8);
    }

    #[test]
    fn delta_stream_edge_churns() {
        let base = sphere(300, 1.0, 11);
        // churn 0: identity deltas, frame untouched.
        let mut stream = DeltaStream::new(
            base.clone(),
            DeltaStreamConfig {
                churn: 0.0,
                ..DeltaStreamConfig::default()
            },
        );
        let d = stream.advance();
        assert!(d.is_identity());
        assert_eq!(stream.frame(), &base);
        // churn 1: everything replaced, still verified.
        let mut stream = DeltaStream::new(
            base.clone(),
            DeltaStreamConfig {
                churn: 1.0,
                ..DeltaStreamConfig::default()
            },
        );
        let before = stream.frame().clone();
        let d = stream.advance();
        assert_eq!(d.survivors(), 0);
        assert!(d
            .verify(before.positions(), stream.frame().positions())
            .is_ok());
    }

    #[test]
    fn blobs_are_nonuniform() {
        let c = gaussian_blobs(1000, 5, 2.0, 11);
        // Spacing near a dense core should be much smaller than the extremes.
        let spacing = c.mean_spacing(50).unwrap();
        let bounds = c.bounds().unwrap();
        assert!(spacing < bounds.extent().norm() / 10.0);
    }
}
