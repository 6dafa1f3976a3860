//! Figures 7–10: SR quality (PSNR and Chamfer distance) for ×2 and ×4
//! upsampling across the four evaluation videos and four methods
//! (K4d1, K4d2, K4d2-lut, GradPU).

use crate::report::Report;
use crate::setup::{evaluation_frames, TrainedArtifacts};
use volut_core::baselines::naive::naive_interpolate;
use volut_core::SrConfig;
use volut_pointcloud::{metrics, sampling, PointCloud};

/// Quality of one method on one video at one ratio.
#[derive(Debug, Clone)]
pub struct QualityPoint {
    /// Video name.
    pub video: String,
    /// Method label (K4d1 / K4d2 / K4d2-lut / GradPU).
    pub method: String,
    /// Geometric PSNR in dB.
    pub psnr_db: f64,
    /// Symmetric Chamfer distance.
    pub chamfer: f64,
}

/// Runs the quality sweep for a single upsampling ratio and returns the
/// per-(video, method) results.
pub fn quality_sweep(artifacts: &TrainedArtifacts, points: usize, ratio: f64) -> Vec<QualityPoint> {
    let mut out = Vec::new();
    for (video, gt) in evaluation_frames(points) {
        let keep = 1.0 / ratio;
        let low = sampling::random_downsample(&gt, keep, 7).expect("valid ratio");
        let evaluate = |name: &str, cloud: &PointCloud, out: &mut Vec<QualityPoint>| {
            out.push(QualityPoint {
                video: video.to_string(),
                method: name.to_string(),
                psnr_db: metrics::geometric_psnr(cloud, &gt),
                chamfer: metrics::chamfer_distance(cloud, &gt),
            });
        };
        let k4d1 = naive_interpolate(&low, &SrConfig::k4d1(), ratio).expect("k4d1");
        evaluate("K4d1", &k4d1.cloud, &mut out);
        let k4d2 = artifacts
            .pipeline_k4d2()
            .upsample(&low, ratio)
            .expect("k4d2");
        evaluate("K4d2", &k4d2.cloud, &mut out);
        let lut = artifacts
            .pipeline_k4d2_lut()
            .upsample(&low, ratio)
            .expect("k4d2-lut");
        evaluate("K4d2-lut", &lut.cloud, &mut out);
        let gradpu = artifacts.gradpu().upsample(&low, ratio).expect("gradpu");
        evaluate("GradPU", &gradpu.cloud, &mut out);
    }
    out
}

/// Builds the PSNR report (Figure 7 for ×2, Figure 9 for ×4).
pub fn psnr_report(id: &str, ratio: f64, points: &[QualityPoint]) -> Report {
    let mut report = Report::new(
        id,
        &format!("PSNR (dB) for x{ratio:.0} super-resolution"),
        &["Video", "K4d1", "K4d2", "K4d2-lut", "GradPU"],
    );
    fill_rows(&mut report, points, |p| format!("{:.2}", p.psnr_db));
    report.push_note("paper reports >30 dB across settings; higher is better");
    report
}

/// Builds the Chamfer-distance report (Figure 8 for ×2, Figure 10 for ×4).
pub fn chamfer_report(id: &str, ratio: f64, points: &[QualityPoint]) -> Report {
    let mut report = Report::new(
        id,
        &format!("Chamfer distance for x{ratio:.0} super-resolution"),
        &["Video", "K4d1", "K4d2", "K4d2-lut", "GradPU"],
    );
    fill_rows(&mut report, points, |p| format!("{:.6}", p.chamfer));
    report.push_note("lower is better; K4d2-lut should match or beat K4d1");
    report
}

fn fill_rows(report: &mut Report, points: &[QualityPoint], fmt: impl Fn(&QualityPoint) -> String) {
    let videos: Vec<String> = {
        let mut v: Vec<String> = points.iter().map(|p| p.video.clone()).collect();
        v.dedup();
        v
    };
    for video in videos {
        let mut row = vec![video.clone()];
        for method in ["K4d1", "K4d2", "K4d2-lut", "GradPU"] {
            let cell = points
                .iter()
                .find(|p| p.video == video && p.method == method)
                .map(&fmt)
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        report.add_row(row);
    }
}

/// Runs Figures 7–10 end to end.
pub fn run_all(artifacts: &TrainedArtifacts, points: usize) -> Vec<Report> {
    let x2 = quality_sweep(artifacts, points, 2.0);
    let x4 = quality_sweep(artifacts, points, 4.0);
    vec![
        psnr_report("fig7", 2.0, &x2),
        chamfer_report("fig8", 2.0, &x2),
        psnr_report("fig9", 4.0, &x4),
        chamfer_report("fig10", 4.0, &x4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::TrainedArtifacts;

    #[test]
    fn quality_sweep_produces_expected_shape() {
        let artifacts = TrainedArtifacts::train(2_000, 2);
        let points = quality_sweep(&artifacts, 2_000, 2.0);
        // 4 videos x 4 methods.
        assert_eq!(points.len(), 16);
        assert!(points.iter().all(|p| p.psnr_db > 0.0 && p.chamfer >= 0.0));
        // Dilated interpolation should not be worse than naive on average.
        let mean = |method: &str| {
            let sel: Vec<f64> = points
                .iter()
                .filter(|p| p.method == method)
                .map(|p| p.chamfer)
                .collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        assert!(mean("K4d2") <= mean("K4d1") * 1.15);
        let reports = vec![
            psnr_report("fig7", 2.0, &points),
            chamfer_report("fig8", 2.0, &points),
        ];
        for r in reports {
            assert_eq!(r.rows.len(), 4);
            assert_eq!(r.headers.len(), 5);
        }
    }
}
