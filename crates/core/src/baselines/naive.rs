//! Vanilla kNN midpoint interpolation — the paper's `K4d1` baseline (§4.1,
//! Figures 7–11).
//!
//! Every generated point costs a fresh kNN query: there is no dilation (the
//! partner candidates are exactly the `k` closest neighbors) and no neighbor
//! reuse. This reproduces both the quality artifacts (density patterns are
//! reinforced, Figure 4) and the cost profile (≥70% of frame time, §4.1)
//! that motivate VoLUT's enhanced interpolation: one query per source point
//! *plus* one per generated point, roughly twice the dilated path's query
//! budget.
//!
//! It is a one-shot baseline, kept off the frame path: each call builds its
//! own k-d tree and buffers and keeps nothing for a next frame. The paper
//! figures, [`super::YuzuUpsampler`] and [`super::GradPuUpsampler`] call it.
//! Partner draws use the frame path's per-row seed (from the source point's
//! position bits) and midpoints are [`Point3::midpoint`], as on the frame
//! path. Both kNN passes return exact rows with
//! ties broken by index, so the output does not depend on which traversal
//! the tree picks (dual-tree self-join or single-tree sweep) or on the
//! worker count.

use crate::config::SrConfig;
use crate::error::Error;
use crate::interpolate::{row_seed, InterpolationResult, PointSplit};
use crate::pipeline::StageTimings;
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::NeighborSearch;
use volut_pointcloud::{Neighborhoods, Point3, PointCloud};

/// Upsamples `low` to roughly `ratio ×` its point count using vanilla kNN
/// midpoint interpolation.
///
/// # Errors
/// Returns an error when the configuration or ratio is invalid, or when the
/// input has fewer than two points.
///
/// # Example
///
/// ```
/// use volut_core::{baselines::naive::naive_interpolate, config::SrConfig};
/// use volut_pointcloud::synthetic;
///
/// # fn main() -> Result<(), volut_core::Error> {
/// let low = synthetic::sphere(500, 1.0, 1);
/// let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0)?;
/// assert_eq!(out.cloud.len(), 1000);
/// # Ok(())
/// # }
/// ```
pub fn naive_interpolate(
    low: &PointCloud,
    config: &SrConfig,
    ratio: f64,
) -> Result<InterpolationResult> {
    config.validate()?;
    config.validate_ratio(ratio)?;
    if low.len() < 2 {
        return Err(Error::InsufficientPoints {
            required: 2,
            available: low.len(),
        });
    }
    let mut timings = StageTimings::default();
    let positions = low.positions();
    let split = PointSplit::new(low.len(), ratio);
    // Counts are distributed round-robin with the remainder on the earliest
    // points, so the sources that generate anything form a prefix.
    let active = (0..low.len())
        .rposition(|r| split.count(r) > 0)
        .map_or(0, |i| i + 1);

    // --- Source queries: one batched (k+1)-NN pass over the active prefix
    // (the whole cloud, so a self-join, from ratio 2 up).
    let t0 = Instant::now();
    let tree = KdTree::build(positions);
    timings.index_build = t0.elapsed();
    let t1 = Instant::now();
    let mut source_hoods = Neighborhoods::new();
    tree.knn_batch(&positions[..active], config.k + 1, &mut source_hoods);
    timings.knn = t1.elapsed();

    let t2 = Instant::now();
    let (points, parents) = midpoints(positions, &source_hoods, config, split);
    timings.interpolation = t2.elapsed();

    // --- New-point queries: every generated point re-derives its own
    // neighborhood.
    let t3 = Instant::now();
    let mut hoods = Neighborhoods::new();
    tree.knn_batch(&points, config.k, &mut hoods);
    timings.knn += t3.elapsed();

    let t4 = Instant::now();
    let mut cloud = low.clone();
    cloud.extend_positions(&points);
    timings.interpolation += t4.elapsed();
    // A generated point takes its neighborhood head's color, as on the frame
    // path: rows are distance-ordered and `min(k, n) ≥ 1` wide.
    let t5 = Instant::now();
    if let (Some(source), Some(mut colors)) = (low.colors(), cloud.take_colors()) {
        for (c, row) in colors[low.len()..].iter_mut().zip(hoods.iter()) {
            *c = source[row[0] as usize];
        }
        cloud
            .set_colors(colors)
            .expect("colors sized to the points");
    }
    timings.colorization = t5.elapsed();

    Ok(InterpolationResult {
        cloud,
        original_len: low.len(),
        parents,
        neighborhoods: hoods,
        timings,
    })
}

/// Draws `split.count(i)` partners for every source row `i` of
/// `source_hoods` (the `(k+1)`-NN row of source point `i`, self-match
/// included and stripped here) and returns the midpoints and parent pairs,
/// in row order.
fn midpoints(
    positions: &[Point3],
    source_hoods: &Neighborhoods,
    config: &SrConfig,
    split: PointSplit,
) -> (Vec<Point3>, Vec<(usize, usize)>) {
    let mut parents = Vec::new();
    let mut partners = Vec::new();
    for (i, row) in source_hoods.iter().enumerate() {
        let count = split.count(i);
        if count == 0 {
            continue;
        }
        partners.clear();
        partners.extend(row.iter().copied().filter(|&j| j as usize != i));
        debug_assert!(!partners.is_empty(), "stripped kNN row {i} is empty");
        if partners.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(row_seed(config.seed, positions[i]));
        for _ in 0..count {
            parents.push((i, partners[rng.random_range(0..partners.len())] as usize));
        }
    }
    let points = parents
        .iter()
        .map(|&(a, b)| positions[a].midpoint(positions[b]))
        .collect();
    (points, parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::{metrics, sampling, synthetic};

    /// FNV-1a over a byte stream.
    fn checksum(bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn output_is_pinned() {
        // The K4d1 column of Figures 7–11: geometry digest and checksums of
        // the colors, neighborhoods and parent pairs, recorded when the
        // baseline still ran on the streaming frame path. The sphere case
        // generates from a partial prefix of its rows (ratio below 2).
        let cases = [
            (
                synthetic::humanoid(3_000, 0.4, 3),
                2.0,
                [
                    6_000,
                    13_329_657_906_110_931_048,
                    9_454_610_294_054_774_158,
                    945_379_422_814_137_253,
                    12_338_809_855_434_234_451,
                ],
            ),
            (
                synthetic::torus(2_000, 1.0, 0.3, 5),
                4.0,
                [
                    8_000,
                    971_956_078_923_252_760,
                    3_669_336_314_243_873_233,
                    7_290_639_550_008_485_878,
                    7_304_917_973_263_536_583,
                ],
            ),
            (
                synthetic::sphere(500, 1.0, 12),
                1.7,
                [
                    850,
                    15_503_184_639_711_340_146,
                    2_255_109_690_665_998_972,
                    6_517_386_633_216_677_722,
                    18_417_501_471_912_195_911,
                ],
            ),
        ];
        for (low, ratio, want) in cases {
            let out = naive_interpolate(&low, &SrConfig::k4d1(), ratio).unwrap();
            let colors = out.cloud.colors().unwrap().iter();
            let got = [
                out.cloud.len() as u64,
                out.cloud.geometry_digest(),
                checksum(colors.flat_map(|c| [c.r, c.g, c.b])),
                checksum(
                    out.neighborhoods
                        .indices()
                        .iter()
                        .flat_map(|i| i.to_le_bytes()),
                ),
                checksum(
                    out.parents
                        .iter()
                        .flat_map(|&(a, b)| [a as u32, b as u32])
                        .flat_map(u32::to_le_bytes),
                ),
            ];
            assert_eq!(got, want, "ratio {ratio}");
        }
    }

    #[test]
    fn generated_points_take_their_head_color() {
        // Every generated point takes the color of its neighborhood head,
        // which is a nearest source point.
        let low = synthetic::humanoid(400, 0.4, 3);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        let (source, colors) = (low.colors().unwrap(), out.cloud.colors().unwrap());
        let generated = &out.cloud.positions()[low.len()..];
        for ((p, c), row) in generated
            .iter()
            .zip(&colors[low.len()..])
            .zip(out.neighborhoods.iter())
        {
            let head = row[0] as usize;
            let nearest = low.positions().iter().map(|q| p.distance_squared(*q));
            assert_eq!(
                nearest.fold(f32::INFINITY, f32::min),
                p.distance_squared(low.positions()[head])
            );
            assert_eq!(*c, source[head]);
        }
    }

    #[test]
    fn original_colors_are_preserved() {
        let low = synthetic::humanoid(500, 0.4, 8);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 3.0).unwrap();
        assert_eq!(&out.cloud.positions()[..low.len()], low.positions());
        assert_eq!(
            &out.cloud.colors().unwrap()[..low.len()],
            low.colors().unwrap()
        );
    }

    #[test]
    fn large_batch_is_colored_consistently() {
        // 9000 generated points: each takes its head's color, and a second
        // run colors them identically.
        let low = synthetic::humanoid(3_000, 0.4, 3);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 4.0).unwrap();
        assert_eq!(out.new_points(), 9_000);
        let (source, colors) = (low.colors().unwrap(), out.cloud.colors().unwrap());
        for (c, row) in colors[low.len()..].iter().zip(out.neighborhoods.iter()) {
            assert_eq!(*c, source[row[0] as usize]);
        }
        let again = naive_interpolate(&low, &SrConfig::k4d1(), 4.0).unwrap();
        assert_eq!(again.cloud.colors().unwrap(), colors);
    }

    #[test]
    fn uncolored_input_stays_uncolored() {
        let low = PointCloud::from_positions(synthetic::sphere(200, 1.0, 4).positions().to_vec());
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        assert_eq!(out.cloud.len(), 400);
        assert!(!out.cloud.has_colors());
    }

    #[test]
    fn reaches_requested_ratio() {
        let low = synthetic::sphere(400, 1.0, 1);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 2.0).unwrap();
        assert_eq!(out.cloud.len(), 800);
        assert!((out.achieved_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(out.new_points(), 400);
        assert_eq!(out.parents.len(), 400);
        assert_eq!(out.neighborhoods.len(), 400);
    }

    #[test]
    fn supports_fractional_ratios() {
        let low = synthetic::sphere(300, 1.0, 2);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 1.7).unwrap();
        assert_eq!(out.cloud.len(), (300.0f64 * 1.7).round() as usize);
    }

    #[test]
    fn improves_coverage_of_ground_truth() {
        // The low cloud is an exact subset of the ground truth, so the
        // symmetric Chamfer distance is dominated by the coverage term
        // (ground truth -> reconstruction); interpolation must improve it.
        let gt = synthetic::torus(3000, 1.0, 0.3, 3);
        let low = sampling::random_downsample_exact(&gt, 1000, 1).unwrap();
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 3.0).unwrap();
        let before = metrics::one_sided_chamfer(&gt, &low);
        let after = metrics::one_sided_chamfer(&gt, &out.cloud);
        assert!(after < before, "after {after} should be < before {before}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let low = synthetic::sphere(10, 1.0, 5);
        assert!(naive_interpolate(&low, &SrConfig::k4d1(), 0.5).is_err());
        let tiny = PointCloud::from_positions(vec![Point3::ZERO]);
        assert!(naive_interpolate(&tiny, &SrConfig::k4d1(), 2.0).is_err());
        let bad_cfg = SrConfig {
            k: 0,
            ..SrConfig::default()
        };
        assert!(naive_interpolate(&low, &bad_cfg, 2.0).is_err());
    }

    #[test]
    fn ratio_one_is_identity_size() {
        let low = synthetic::sphere(100, 1.0, 6);
        let out = naive_interpolate(&low, &SrConfig::k4d1(), 1.0).unwrap();
        assert_eq!(out.cloud.len(), 100);
        assert_eq!(out.new_points(), 0);
    }

    #[test]
    fn rows_into_over_full_set_matches_whole_frame_batch() {
        // Midpoints drawn from a self-join over the complete row set must
        // reproduce the whole-frame output bit for bit.
        let low = synthetic::humanoid(700, 0.35, 23);
        let cfg = SrConfig::k4d1();
        let ratio = 2.0;
        let full = naive_interpolate(&low, &cfg, ratio).unwrap();

        let positions = low.positions();
        let mut source_hoods = Neighborhoods::new();
        KdTree::build(positions).knn_batch(positions, cfg.k + 1, &mut source_hoods);
        let split = PointSplit::new(low.len(), ratio);
        let (points, parents) = midpoints(positions, &source_hoods, &cfg, split);
        assert_eq!(points.as_slice(), &full.cloud.positions()[low.len()..]);
        assert_eq!(parents, full.parents);
    }
}
