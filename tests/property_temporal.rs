//! Property tests for the temporal-coherence layer: the incremental
//! (delta-frame) kNN path must be **bit-identical** to a full recompute for
//! any churn level, frame shape and interpolator config — including
//! tie-heavy quantized clouds, duplicate points and clouds smaller than the
//! neighborhood size — and the kd-tree patch must agree with a fresh build.
//! The CI feature matrix runs this file under both the scalar and SIMD
//! kernels (the `simd` feature is bit-transparent, so one suite covers
//! both).

use proptest::prelude::*;
use volut::core::config::SrConfig;
use volut::core::interpolate::dilated::dilated_interpolate_with;
use volut::core::interpolate::FrameScratch;
use volut::pointcloud::delta::FrameDelta;
use volut::pointcloud::kdtree::KdTree;
use volut::pointcloud::knn::NeighborSearch;
use volut::pointcloud::synthetic::{self, DeltaStreamConfig};
use volut::pointcloud::{Point3, PointCloud};

/// Quantizes positions to a coarse grid: exact duplicates and massive
/// distance ties.
fn quantize(cloud: &PointCloud, steps: f32) -> PointCloud {
    PointCloud::from_positions(
        cloud
            .positions()
            .iter()
            .map(|p| {
                Point3::new(
                    (p.x * steps).round() / steps,
                    (p.y * steps).round() / steps,
                    (p.z * steps).round() / steps,
                )
            })
            .collect(),
    )
}

/// One session of three delta frames against its cold oracle (the same
/// frames, the session flushed before each): clouds, rows and parents must
/// be bit-identical.
fn check_incremental_matches_full_recompute(
    n: usize,
    churn_sel: usize,
    seed: u64,
    quantized_sel: usize,
    dilation_one_sel: usize,
    ratio: f64,
) {
    let churn = [0.0, 0.01, 0.1, 0.5, 1.0][churn_sel];
    let quantized = quantized_sel == 1;
    let dilation_one = dilation_one_sel == 1;
    let mut base = synthetic::humanoid(n, 0.4, seed);
    if quantized {
        base = quantize(&base, 6.0);
    }
    let frames = synthetic::delta_frame_sequence(
        &base,
        3,
        DeltaStreamConfig {
            churn,
            drift: 0.04,
            jitter: 0.006,
            seed,
        },
    );
    // Dilation 1 (`k4d1`) joins a narrower row than the default config.
    let cfg = if dilation_one {
        SrConfig::k4d1()
    } else {
        SrConfig::default()
    };
    // The cold oracle: a session flushed before every frame.
    let mut on = FrameScratch::new();
    let mut off = FrameScratch::new();
    for (frame_no, frame) in frames.iter().enumerate() {
        let a = dilated_interpolate_with(frame, &cfg, ratio, &mut on);
        off.flush_temporal();
        let b = dilated_interpolate_with(frame, &cfg, ratio, &mut off);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(&a.cloud, &b.cloud, "frame {} clouds diverge", frame_no);
                assert_eq!(
                    &a.neighborhoods, &b.neighborhoods,
                    "frame {} neighborhoods diverge",
                    frame_no
                );
                assert_eq!(&a.parents, &b.parents);
                on.recycle_neighborhoods(a.neighborhoods);
                off.recycle_neighborhoods(b.neighborhoods);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "one path errored: incremental ok={} full ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_interpolation_matches_full_recompute(
        n in 8usize..700,
        churn_sel in 0usize..5,
        seed in 0u64..300,
        quantized_sel in 0usize..2,
        dilation_one_sel in 0usize..2,
        ratio in 1.2f64..3.0,
    ) {
        check_incremental_matches_full_recompute(
            n, churn_sel, seed, quantized_sel, dilation_one_sel, ratio,
        );
    }

    #[test]
    fn diffed_deltas_always_verify(
        n in 0usize..400,
        churn in 0.0f64..1.0,
        seed in 0u64..300,
    ) {
        let base = synthetic::sphere(n.max(1), 1.0, seed);
        let mut stream = synthetic::DeltaStream::new(base, DeltaStreamConfig {
            churn,
            drift: 0.05,
            jitter: 0.01,
            seed,
        });
        let before = stream.frame().clone();
        let truth = stream.advance();
        let after = stream.frame();
        prop_assert!(truth.verify(before.positions(), after.positions()).is_ok());
        let diffed = FrameDelta::diff(before.positions(), after.positions());
        prop_assert!(diffed.verify(before.positions(), after.positions()).is_ok());
        // The diff can only churn *more* than the generating truth (bitwise
        // identical survivors must all be recovered or conservatively
        // churned, never mismatched).
        prop_assert!(diffed.survivors() >= truth.survivors() || diffed.survivors() == 0);
    }

    #[test]
    fn patched_kdtree_matches_fresh_build(
        n in 20usize..500,
        churn in 0.0f64..0.6,
        seed in 0u64..300,
        k in 1usize..12,
    ) {
        let base = synthetic::gaussian_blobs(n, 4, 1.0, seed);
        let mut stream = synthetic::DeltaStream::new(base, DeltaStreamConfig {
            churn,
            drift: 0.1,
            jitter: 0.02,
            seed: seed ^ 0xABCD,
        });
        let mut tree = KdTree::build(stream.frame().positions());
        for _ in 0..2 {
            let delta = stream.advance();
            let new_points = stream.frame().positions();
            tree.patch(&delta, new_points);
            let fresh = KdTree::build(new_points);
            prop_assert_eq!(tree.points(), fresh.points());
            for (qi, &q) in new_points.iter().step_by((n / 12).max(1)).enumerate() {
                let a: Vec<usize> = tree.knn(q, k).iter().map(|x| x.index).collect();
                let b: Vec<usize> = fresh.knn(q, k).iter().map(|x| x.index).collect();
                prop_assert_eq!(a, b, "query {} diverged after patch", qi);
            }
        }
    }
}

/// The same property on clouds of 1 024..12 000 points: past
/// `FrameDelta::diff_bounded`'s 1 024-point sampled survivor ceiling and,
/// from 8 192 points at two or more workers, past classify's chunk grain,
/// so the incremental rows are also assembled from several classify chunks.
/// Six cases take about 5 s in a debug build on a 2-vCPU host.
mod large_clouds {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn incremental_interpolation_matches_full_recompute_on_large_clouds(
            n in 1_024usize..12_000,
            churn_sel in 0usize..5,
            seed in 0u64..300,
            quantized_sel in 0usize..2,
            dilation_one_sel in 0usize..2,
            ratio in 1.2f64..3.0,
        ) {
            check_incremental_matches_full_recompute(
                n, churn_sel, seed, quantized_sel, dilation_one_sel, ratio,
            );
        }
    }
}
