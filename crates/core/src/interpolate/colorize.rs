//! Colorization of interpolated points (§4.1).
//!
//! New points inherit the color of the nearest *original* point, reusing the
//! spatial relationships already computed during geometric interpolation so
//! that no additional neighbor searches are required. The per-point color
//! assignment is embarrassingly parallel and runs in chunks across the
//! worker pool.
//!
//! [`colorize_new_points`] colors a finished interpolation, as the naive
//! baseline produces one. The frame path applies the same head-color rule
//! inside its one frame pass ([`super::dilated`]), where every
//! neighborhood is non-empty.

use volut_pointcloud::{runtime, Color, NeighborhoodsView, Point3, PointCloud};

/// Points per colorization task.
const COLOR_CHUNK: usize = 8_192;

/// The color of new point `original_len + i` at `pos`: its neighborhood
/// head's (rows are distance-ordered), else the closer of its two parents',
/// else black.
fn source_color(
    i: usize,
    pos: Point3,
    low: &PointCloud,
    source_colors: &[Color],
    neighborhoods: NeighborhoodsView<'_>,
    parents: &[(usize, usize)],
) -> Color {
    let head = if i < neighborhoods.len() {
        neighborhoods.row(i).first().map(|&j| j as usize)
    } else {
        None
    };
    let source = head.or_else(|| {
        parents.get(i).map(|&(a, b)| {
            let da = low.position(a).distance_squared(pos);
            let db = low.position(b).distance_squared(pos);
            if da <= db {
                a
            } else {
                b
            }
        })
    });
    source
        .and_then(|s| source_colors.get(s).copied())
        .unwrap_or(Color::BLACK)
}

/// Assigns colors to the newly generated points of `cloud`.
///
/// * `cloud` — the upsampled cloud (original points at `0..original_len`,
///   new points after that); modified in place.
/// * `low` — the original low-resolution cloud that carries source colors.
/// * `neighborhoods.row(i)` — nearest original-point indices (closest first)
///   of new point `original_len + i`.
/// * `parents[i]` — the two parent indices of new point `original_len + i`,
///   used as a fallback when the neighborhood row is empty.
///
/// When `low` has no colors this is a no-op.
pub fn colorize_new_points(
    cloud: &mut PointCloud,
    low: &PointCloud,
    original_len: usize,
    neighborhoods: NeighborhoodsView<'_>,
    parents: &[(usize, usize)],
) {
    let Some(source_colors) = low.colors() else {
        return;
    };
    // Mutate the cloud's existing color storage in place: no position clone,
    // and when the cloud is already colored (the usual case — `low.clone()`
    // seeds it) the allocation is reused rather than rebuilt per frame.
    let mut colors = cloud.take_colors().unwrap_or_else(|| {
        let mut seeded: Vec<Color> = Vec::with_capacity(cloud.len());
        seeded.extend_from_slice(&source_colors[..original_len.min(source_colors.len())]);
        seeded.resize(original_len, Color::BLACK);
        seeded
    });
    colors.truncate(original_len);
    colors.resize(cloud.len(), Color::BLACK);
    {
        let positions = cloud.positions();
        let new_colors = &mut colors[original_len..];
        runtime::for_each_chunk_mut(new_colors, COLOR_CHUNK, |_, start, chunk| {
            for (offset, color) in chunk.iter_mut().enumerate() {
                let i = start + offset;
                let pos = positions[original_len + i];
                *color = source_color(i, pos, low, source_colors, neighborhoods, parents);
            }
        });
    }
    cloud
        .set_colors(colors)
        .expect("color array sized to the point count by construction");
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::Neighborhoods;

    /// One neighborhood row per generated point.
    fn hoods(rows: usize, indices: &[u32]) -> Neighborhoods {
        let mut out = Neighborhoods::new();
        out.push_rows(rows, indices.len() / rows)
            .copy_from_slice(indices);
        out
    }

    fn two_point_cloud() -> PointCloud {
        PointCloud::from_positions_and_colors(
            vec![Point3::ZERO, Point3::new(2.0, 0.0, 0.0)],
            vec![Color::new(255, 0, 0), Color::new(0, 0, 255)],
        )
        .unwrap()
    }

    #[test]
    fn nearest_source_color_is_used() {
        let low = two_point_cloud();
        let mut up = low.clone();
        // New point close to the first original point.
        up.push(Point3::new(0.4, 0.0, 0.0), None);
        let hoods = hoods(1, &[0, 1]);
        colorize_new_points(&mut up, &low, 2, hoods.view(), &[(0, 1)]);
        assert_eq!(up.color(2), Some(Color::new(255, 0, 0)));
    }

    #[test]
    fn falls_back_to_closest_parent() {
        let low = two_point_cloud();
        let mut up = low.clone();
        up.push(Point3::new(1.8, 0.0, 0.0), None);
        // Empty neighborhood forces the parent fallback; parent 1 is closer.
        let hoods = hoods(1, &[]);
        colorize_new_points(&mut up, &low, 2, hoods.view(), &[(0, 1)]);
        assert_eq!(up.color(2), Some(Color::new(0, 0, 255)));
    }

    #[test]
    fn uncolored_source_is_a_noop() {
        let low = PointCloud::from_positions(vec![Point3::ZERO, Point3::ONE]);
        let mut up = low.clone();
        up.push(Point3::splat(0.5), None);
        let hoods = hoods(1, &[0]);
        colorize_new_points(&mut up, &low, 2, hoods.view(), &[(0, 1)]);
        assert!(!up.has_colors());
    }

    #[test]
    fn original_colors_are_preserved() {
        let low = two_point_cloud();
        let mut up = low.clone();
        up.push(Point3::splat(0.1), None);
        let hoods = hoods(1, &[1]);
        colorize_new_points(&mut up, &low, 2, hoods.view(), &[(0, 1)]);
        assert_eq!(up.color(0), Some(Color::new(255, 0, 0)));
        assert_eq!(up.color(1), Some(Color::new(0, 0, 255)));
    }

    #[test]
    fn large_batch_is_colored_consistently() {
        // Exercise the parallel fill path with enough points for chunking.
        let n = 1000;
        let low = PointCloud::from_positions_and_colors(
            (0..n).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect(),
            (0..n).map(|i| Color::new((i % 256) as u8, 0, 0)).collect(),
        )
        .unwrap();
        let mut up = low.clone();
        let mut parents = Vec::new();
        for i in 0..n {
            up.push(Point3::new(i as f32 + 0.1, 0.0, 0.0), None);
            parents.push((i, (i + 1) % n));
        }
        let hoods = hoods(n, &(0..n as u32).collect::<Vec<_>>());
        colorize_new_points(&mut up, &low, n, hoods.view(), &parents);
        for i in 0..n {
            assert_eq!(up.color(n + i), Some(Color::new((i % 256) as u8, 0, 0)));
        }
    }
}
