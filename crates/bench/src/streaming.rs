//! Streaming figures: normalized QoE (Figure 12), data usage (Figure 13) and
//! the QoE-vs-data ablation over LTE traces (Figure 14 / Table 2).

use crate::report::Report;
use volut_stream::chunk::chunk_video;
use volut_stream::simulator::{SessionConfig, StreamingSimulator};
use volut_stream::systems::SystemKind;
use volut_stream::trace::NetworkTrace;
use volut_stream::video::VideoMeta;

/// Evaluation videos trimmed to `seconds` of content so the harness finishes
/// quickly while keeping the paper's per-frame density.
fn evaluation_videos(seconds: f64) -> Vec<VideoMeta> {
    VideoMeta::evaluation_set()
        .into_iter()
        .map(|mut v| {
            v.frame_count = (v.fps * seconds) as usize;
            v
        })
        .collect()
}

/// The network conditions of §7.4: one stable wired trace and one LTE trace.
fn evaluation_traces(seconds: f64) -> Vec<NetworkTrace> {
    vec![
        NetworkTrace::stable(50.0, seconds),
        NetworkTrace::synthetic_lte(32.5, 13.5, seconds, 101),
    ]
}

/// Mean session results per (trace, system), averaged over the videos.
#[derive(Debug, Clone)]
pub struct StreamingPoint {
    /// Trace name.
    pub trace: String,
    /// System label.
    pub system: SystemKind,
    /// Mean normalized QoE.
    pub normalized_qoe: f64,
    /// Mean data usage as a fraction of full-density streaming.
    pub data_fraction: f64,
    /// Mean stall seconds per session.
    pub stall_s: f64,
}

/// Runs the streaming sweep for the given systems.
pub fn streaming_sweep(systems: &[SystemKind], session_seconds: f64) -> Vec<StreamingPoint> {
    let sim = StreamingSimulator::new(SessionConfig::default());
    let videos = evaluation_videos(session_seconds);
    let mut out = Vec::new();
    for trace in evaluation_traces(session_seconds) {
        for &system in systems {
            let mut qoe = 0.0;
            let mut data = 0.0;
            let mut stall = 0.0;
            for video in &videos {
                let r = sim.run(video, &trace, system).expect("session runs");
                qoe += r.qoe.normalized;
                data += r.data_fraction_of_full(video, sim.config().chunk_duration_s);
                stall += r.stall_s;
            }
            let n = videos.len() as f64;
            out.push(StreamingPoint {
                trace: trace.name.clone(),
                system,
                normalized_qoe: qoe / n,
                data_fraction: data / n,
                stall_s: stall / n,
            });
        }
    }
    out
}

/// Figure 12: normalized QoE per system under stable and LTE conditions.
pub fn fig12_qoe(points: &[StreamingPoint]) -> Report {
    let mut report = Report::new(
        "fig12",
        "Normalized QoE under stable (50 Mbps) and LTE bandwidth",
        &["Trace", "System", "Normalized QoE", "Stall (s)"],
    );
    for p in points {
        report.add_row(vec![
            p.trace.clone(),
            p.system.label().to_string(),
            format!("{:.1}", p.normalized_qoe),
            format!("{:.1}", p.stall_s),
        ]);
    }
    report.push_note("paper (stable 50 Mbps): VoLUT 100, Yuzu-SR 75.8, ViVo 43.2");
    report
}

/// Figure 13: data usage per system (fraction of full-density streaming).
pub fn fig13_data_usage(points: &[StreamingPoint]) -> Report {
    let mut report = Report::new(
        "fig13",
        "Data usage (fraction of full-density streaming)",
        &["Trace", "System", "Data fraction"],
    );
    for p in points {
        report.add_row(vec![
            p.trace.clone(),
            p.system.label().to_string(),
            format!("{:.3}", p.data_fraction),
        ]);
    }
    report.push_note("paper: VoLUT reduces data by 23% vs Yuzu-SR and 31% vs ViVo (stable); 17% vs 31% of data under LTE");
    report
}

/// Figure 14 / Table 2: QoE vs data usage for the H1/H2/H3 ablation under
/// fluctuating (LTE) bandwidth.
pub fn fig14_ablation(session_seconds: f64) -> Report {
    let sim = StreamingSimulator::new(SessionConfig::default());
    let videos = evaluation_videos(session_seconds);
    let traces = NetworkTrace::lte_evaluation_set(session_seconds);
    let mut report = Report::new(
        "fig14",
        "Ablation (Table 2 variants) over LTE traces: QoE vs data usage",
        &["Variant", "Normalized QoE", "Data fraction", "Stall (s)"],
    );
    for system in SystemKind::ablation_variants() {
        let mut qoe = 0.0;
        let mut data = 0.0;
        let mut stall = 0.0;
        let mut sessions = 0.0;
        for trace in &traces {
            for video in &videos {
                let r = sim.run(video, trace, system).expect("session runs");
                qoe += r.qoe.normalized;
                data += r.data_fraction_of_full(video, sim.config().chunk_duration_s);
                stall += r.stall_s;
                sessions += 1.0;
            }
        }
        report.add_row(vec![
            system.label().to_string(),
            format!("{:.1}", qoe / sessions),
            format!("{:.3}", data / sessions),
            format!("{:.1}", stall / sessions),
        ]);
    }
    report.push_note(
        "paper: H1 QoE 98 at 31% data; H2 -15.3% QoE / +14% data; H3 -36.7% QoE at 48% data",
    );
    report
}

/// Runs Figures 12, 13 and 14.
pub fn run_all(session_seconds: f64) -> Vec<Report> {
    let systems = [
        SystemKind::VolutContinuous,
        SystemKind::YuzuSr,
        SystemKind::Vivo,
    ];
    let points = streaming_sweep(&systems, session_seconds);
    vec![
        fig12_qoe(&points),
        fig13_data_usage(&points),
        fig14_ablation(session_seconds),
    ]
}

/// Convenience: the bandwidth-saving headline number (VoLUT data fraction vs
/// raw full-density streaming under the stable trace).
pub fn bandwidth_saving(points: &[StreamingPoint]) -> Option<f64> {
    points
        .iter()
        .find(|p| p.system == SystemKind::VolutContinuous && p.trace.starts_with("stable"))
        .map(|p| 1.0 - p.data_fraction)
}

/// Raw full-density bytes of a video, used by callers that want absolute numbers.
pub fn full_density_bytes(video: &VideoMeta, chunk_duration_s: f64) -> u64 {
    chunk_video(video, chunk_duration_s)
        .iter()
        .map(|c| c.encoded_bytes(1.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_sweep_reproduces_paper_ordering() {
        let systems = [
            SystemKind::VolutContinuous,
            SystemKind::YuzuSr,
            SystemKind::Vivo,
        ];
        let points = streaming_sweep(&systems, 30.0);
        assert_eq!(points.len(), 6);
        for trace in ["stable-50", "lte-32.5"] {
            let get = |s: SystemKind| {
                points
                    .iter()
                    .find(|p| p.system == s && p.trace == trace)
                    .expect("point exists")
            };
            let volut = get(SystemKind::VolutContinuous);
            let yuzu = get(SystemKind::YuzuSr);
            let vivo = get(SystemKind::Vivo);
            assert!(
                volut.normalized_qoe > yuzu.normalized_qoe,
                "{trace}: volut vs yuzu"
            );
            assert!(
                yuzu.normalized_qoe > vivo.normalized_qoe,
                "{trace}: yuzu vs vivo"
            );
            assert!(
                volut.data_fraction < yuzu.data_fraction,
                "{trace}: volut data < yuzu data"
            );
        }
        // Headline: >= 50% bandwidth saving vs raw streaming on the stable trace.
        let saving = bandwidth_saving(&points).unwrap();
        assert!(saving > 0.5, "saving {saving}");
        let reports = [fig12_qoe(&points), fig13_data_usage(&points)];
        assert!(reports.iter().all(|r| r.rows.len() == 6));
    }

    #[test]
    fn ablation_report_has_three_variants() {
        let r = fig14_ablation(20.0);
        assert_eq!(r.rows.len(), 3);
        let qoe: Vec<f64> = r.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        // H1 >= H2 > H3 (allowing a small tolerance between H1 and H2).
        assert!(qoe[0] >= qoe[1] - 3.0, "H1 {} vs H2 {}", qoe[0], qoe[1]);
        assert!(qoe[1] > qoe[2], "H2 {} vs H3 {}", qoe[1], qoe[2]);
    }
}
