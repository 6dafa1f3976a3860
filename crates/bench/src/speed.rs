//! Runtime figures: interpolation FPS (Figure 11), the end-to-end SR runtime
//! breakdown (Figure 16), SR runtime on the commodity GPU (Figure 17) and SR
//! FPS across upsampling ratios on the Orange Pi (Figure 18).
//!
//! Host wall-clock measurements from the actual Rust pipelines are converted
//! to per-device numbers with the [`DeviceProfile`] cost models: the paper's
//! hardware is not available, and the figures compare ratios between
//! methods, which the models preserve.

use crate::report::Report;
use crate::setup::TrainedArtifacts;
use std::time::Duration;
use volut_core::baselines::naive::naive_interpolate;
use volut_core::device::{DeviceProfile, StageKind};
use volut_core::pipeline::StageTimings;
use volut_core::SrConfig;
use volut_pointcloud::{sampling, synthetic};

/// Converts host stage timings into per-stage device times, in the order
/// kNN (index build included), interpolation, colorization, refinement.
/// `nn_refinement` selects whether the refinement stage scales like NN
/// inference or like a table lookup.
fn device_stages(
    timings: &StageTimings,
    device: &DeviceProfile,
    nn_refinement: bool,
) -> [Duration; 4] {
    let refine_kind = if nn_refinement {
        StageKind::NnInference
    } else {
        StageKind::LutLookup
    };
    [
        device.scale_duration(StageKind::Knn, timings.index_build + timings.knn),
        device.scale_duration(StageKind::Interpolation, timings.interpolation),
        device.scale_duration(StageKind::Colorization, timings.colorization),
        device.scale_duration(refine_kind, timings.refinement),
    ]
}

/// Converts host stage timings into a device total: the sum of the
/// per-stage device times Figure 16 breaks down.
pub fn device_total(
    timings: &StageTimings,
    device: &DeviceProfile,
    nn_refinement: bool,
) -> Duration {
    device_stages(timings, device, nn_refinement).iter().sum()
}

/// Figure 11: interpolation FPS, vanilla vs VoLUT, on the Orange Pi and the
/// RTX 3080Ti desktop, for ×2 / ×4 / ×8 upsampling.
pub fn fig11_interpolation_fps(artifacts: &TrainedArtifacts, points: usize) -> Report {
    let mut report = Report::new(
        "fig11",
        "Interpolation FPS (vanilla kNN vs VoLUT dilated+octree+reuse)",
        &["Device", "Ratio", "Vanilla FPS", "VoLUT FPS", "Speedup"],
    );
    let gt = synthetic::humanoid(points, 0.4, 3);
    let devices = [DeviceProfile::orange_pi(), DeviceProfile::desktop_3080ti()];
    for device in &devices {
        for ratio in [2.0, 4.0, 8.0] {
            let low = sampling::random_downsample(&gt, 1.0 / ratio, 5).expect("ratio");
            let naive = naive_interpolate(&low, &SrConfig::k4d1(), ratio).expect("naive");
            let dilated = artifacts
                .pipeline_k4d2()
                .upsample(&low, ratio)
                .expect("dilated");
            let naive_t = device_total(&naive.timings, device, false);
            let volut_t = device_total(&dilated.timings, device, false);
            let naive_fps = DeviceProfile::fps(naive_t);
            let volut_fps = DeviceProfile::fps(volut_t);
            report.add_row(vec![
                device.name.clone(),
                format!("x{ratio:.0}"),
                format!("{naive_fps:.1}"),
                format!("{volut_fps:.1}"),
                format!("{:.1}x", volut_fps / naive_fps.max(1e-9)),
            ]);
        }
    }
    report.push_note("paper: 3.7-3.9x speedup on Orange Pi, 7.5-8.1x on the 3080Ti");
    report
}

/// Figure 16: end-to-end SR runtime breakdown per stage on desktop and
/// Orange Pi.
pub fn fig16_runtime_breakdown(artifacts: &TrainedArtifacts, points: usize) -> Report {
    let mut report = Report::new(
        "fig16",
        "End-to-end SR runtime breakdown (fraction of frame time per stage)",
        &[
            "Device",
            "kNN",
            "Interpolation",
            "Colorization",
            "LUT refinement",
        ],
    );
    let gt = synthetic::humanoid(points, 0.8, 5);
    let low = sampling::random_downsample(&gt, 0.25, 9).expect("ratio");
    let result = artifacts
        .pipeline_k4d2_lut()
        .upsample(&low, 4.0)
        .expect("sr");
    for device in [DeviceProfile::desktop_3080ti(), DeviceProfile::orange_pi()] {
        let stages = device_stages(&result.timings, &device, false);
        let total = stages.iter().sum::<Duration>().as_secs_f64().max(1e-12);
        let mut row = vec![device.name.clone()];
        row.extend(
            stages
                .iter()
                .map(|d| format!("{:.1}%", d.as_secs_f64() / total * 100.0)),
        );
        report.add_row(row);
    }
    report.push_note("paper: kNN search dominates, LUT refinement consumes the least time");
    report
}

/// Figure 17: single-frame SR runtime on the commodity GPU (desktop) for
/// VoLUT, Yuzu and GradPU, plus the implied speedups.
///
/// The reproduction ranks them VoLUT < GradPU < Yuzu, and that ranking is
/// set by the network sizes, not by the methods: GradPU runs the small
/// trained refinement network for 3 steps per point, while Yuzu runs one
/// pass of an untrained `[12, 512, 512, 3]` network. The paper has GradPU
/// slowest by orders of magnitude (its published time includes unoptimized
/// PyTorch inference). ROADMAP.md lists this as a named gap of the paper
/// record.
pub fn fig17_sr_runtime_desktop(artifacts: &TrainedArtifacts, points: usize) -> Report {
    let mut report = Report::new(
        "fig17",
        "SR runtime on commodity GPU (per frame)",
        &["Method", "Frame time (ms)", "FPS", "Slowdown vs VoLUT"],
    );
    let gt = synthetic::humanoid(points, 1.1, 7);
    let low = sampling::random_downsample(&gt, 0.5, 11).expect("ratio");
    let device = DeviceProfile::desktop_3080ti();

    let volut = artifacts
        .pipeline_k4d2_lut()
        .upsample(&low, 2.0)
        .expect("volut");
    let yuzu = artifacts.yuzu().upsample(&low, 2.0).expect("yuzu");
    let gradpu = artifacts.gradpu().upsample(&low, 2.0).expect("gradpu");

    let volut_t = device_total(&volut.timings, &device, false).as_secs_f64();
    let yuzu_t = device_total(&yuzu.timings, &device, true).as_secs_f64();
    let gradpu_t = device_total(&gradpu.timings, &device, true).as_secs_f64();

    for (name, t) in [
        ("VoLUT (LUT)", volut_t),
        ("Yuzu-SR (neural)", yuzu_t),
        ("GradPU (neural)", gradpu_t),
    ] {
        report.add_row(vec![
            name.to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:.1}", 1.0 / t.max(1e-12)),
            format!("{:.1}x", t / volut_t.max(1e-12)),
        ]);
    }
    report.push_note("paper: VoLUT outperforms Yuzu by 8.4x and GradPU by 46400x on the 3080Ti");
    report.push_note(
        "GradPU's published slowdown includes unoptimized PyTorch inference; the Rust \
         re-implementation narrows the absolute gap but preserves the ordering",
    );
    report
}

/// Figure 18: SR runtime (FPS) on the Orange Pi across upsampling ratios —
/// the paper's point is that it stays roughly stable because kNN on the
/// input points dominates.
pub fn fig18_sr_fps_orange_pi(artifacts: &TrainedArtifacts, points: usize) -> Report {
    let mut report = Report::new(
        "fig18",
        "SR FPS on Orange Pi across upsampling ratios",
        &["Ratio", "Input points", "Output points", "FPS"],
    );
    let device = DeviceProfile::orange_pi();
    let gt = synthetic::humanoid(points, 0.2, 13);
    for ratio in [2.0, 4.0, 6.0, 8.0] {
        let low = sampling::random_downsample(&gt, 1.0 / ratio, 17).expect("ratio");
        let result = artifacts
            .pipeline_k4d2_lut()
            .upsample(&low, ratio)
            .expect("sr");
        let t = device_total(&result.timings, &device, false);
        report.add_row(vec![
            format!("x{ratio:.0}"),
            low.len().to_string(),
            result.cloud.len().to_string(),
            format!("{:.1}", DeviceProfile::fps(t)),
        ]);
    }
    report.push_note("paper: FPS stays relatively stable as the ratio increases (kNN-bound)");
    report
}

/// Runs all runtime figures.
pub fn run_all(artifacts: &TrainedArtifacts, points: usize) -> Vec<Report> {
    vec![
        fig11_interpolation_fps(artifacts, points),
        fig16_runtime_breakdown(artifacts, points),
        fig17_sr_runtime_desktop(artifacts, points),
        fig18_sr_fps_orange_pi(artifacts, points),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::test_artifacts;

    #[test]
    fn runtime_reports_have_expected_shape() {
        let artifacts = test_artifacts();
        let fig11 = fig11_interpolation_fps(artifacts, 6_000);
        assert_eq!(fig11.rows.len(), 6);
        // At the small cloud sizes used by unit tests (and in unoptimized
        // builds) the end-to-end FPS of the two methods is comparable; the
        // figure-level speedup shows up at experiment scale in release mode.
        for row in fig11.rows.iter().filter(|r| r[1] == "x8") {
            let vanilla: f64 = row[2].parse().unwrap();
            let volut: f64 = row[3].parse().unwrap();
            assert!(volut >= vanilla * 0.5, "row {row:?}");
        }
        // The stage the optimization actually targets — neighbor search — must
        // be cheaper for the dilated pipeline at a high upsampling ratio.
        {
            use volut_core::interpolate::dilated::dilated_interpolate;
            use volut_pointcloud::{sampling, synthetic};
            let gt = synthetic::humanoid(6_000, 0.4, 3);
            let low = sampling::random_downsample(&gt, 1.0 / 8.0, 5).unwrap();
            let naive = naive_interpolate(&low, &SrConfig::k4d1(), 8.0).unwrap();
            let dilated = dilated_interpolate(&low, &SrConfig::k4d2(), 8.0).unwrap();
            assert!(
                dilated.timings.knn < naive.timings.knn,
                "dilated knn {:?} should be below naive knn {:?}",
                dilated.timings.knn,
                naive.timings.knn
            );
        }
        let fig17 = fig17_sr_runtime_desktop(artifacts, 2_000);
        assert_eq!(fig17.rows.len(), 3);
        let volut_ms: f64 = fig17.rows[0][1].parse().unwrap();
        let gradpu_ms: f64 = fig17.rows[2][1].parse().unwrap();
        assert!(
            gradpu_ms > volut_ms,
            "gradpu {gradpu_ms} should be slower than volut {volut_ms}"
        );
        let fig18 = fig18_sr_fps_orange_pi(artifacts, 2_000);
        assert_eq!(fig18.rows.len(), 4);
        let fig16 = fig16_runtime_breakdown(artifacts, 2_000);
        assert_eq!(fig16.rows.len(), 2);
    }
}
