//! Property tests for the runtime's determinism contract: the pipeline's
//! output must be **bit-identical at every worker count** (and therefore
//! under every chunk schedule). Worker counts {1, 2, 4,
//! 8} are pinned via `runtime::with_workers` regardless of the host's core
//! count — on a single-core machine the pool still runs real concurrent
//! threads, so the parallel code paths (chunked interpolation,
//! colorization, refinement, and the sharded dual-tree traversal) are
//! genuinely exercised. The CI feature matrix runs this file under both the
//! scalar and SIMD kernels and under `VOLUT_WORKERS` overrides.
//!
//! Sizes straddle the dual-tree auto threshold (4096 queries), so cases
//! cover both multi-worker routes of the engine's kNN driver: the
//! pre-chunked single-tree sweep below it and the internally-sharded
//! dual-tree traversal above it. One session is large enough (24k points)
//! that the temporal layer's copy-forward passes — classify, plan, assembly
//! and the tail scatters — cut every delta frame into several chunks.

use proptest::prelude::*;
use volut::core::config::SrConfig;
use volut::core::interpolate::dilated::dilated_interpolate_with;
use volut::core::interpolate::FrameScratch;
use volut::pointcloud::runtime;
use volut::pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
use volut::pointcloud::{Color, FrameDelta, Neighborhoods, Point3, PointCloud};

/// Worker counts every invariance test pins. 1 is the sequential baseline;
/// 8 oversubscribes any CI host, maximizing interleave variety.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Everything interpolation emits that the determinism contract covers.
type FrameOutput = (PointCloud, Neighborhoods, Vec<(usize, usize)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The interpolator at the default config and at dilation 1 (`k4d1`, a
    /// narrower self-join row), streamed over churned delta-frames (the
    /// temporal-reuse path: later frames recompute only invalidated rows),
    /// must produce byte-for-byte identical clouds, neighborhoods and
    /// parent tables at every worker count.
    #[test]
    fn interpolation_is_bit_identical_across_worker_counts(
        n in 3_400usize..5_200,
        churn_sel in 0usize..4,
        seed in 0u64..200,
        dilation_one_sel in 0usize..2,
        ratio in 1.5f64..2.5,
    ) {
        let churn = [0.0, 0.05, 0.3, 1.0][churn_sel];
        let dilation_one = dilation_one_sel == 1;
        let base = synthetic::humanoid(n, 0.4, seed);
        let frames = synthetic::delta_frame_sequence(&base, 2, DeltaStreamConfig {
            churn,
            drift: 0.04,
            jitter: 0.006,
            seed,
        });
        let cfg = if dilation_one { SrConfig::k4d1() } else { SrConfig::default() };
        let run = |workers: usize| -> Vec<FrameOutput> {
            runtime::with_workers(workers, || {
                let mut scratch = FrameScratch::new();
                frames
                    .iter()
                    .map(|frame| {
                        let r = dilated_interpolate_with(frame, &cfg, ratio, &mut scratch)
                            .expect("interpolation succeeds");
                        (r.cloud, r.neighborhoods, r.parents)
                    })
                    .collect()
            })
        };
        let baseline = run(WORKER_COUNTS[0]);
        for &workers in &WORKER_COUNTS[1..] {
            let got = run(workers);
            for (frame_no, (got, want)) in got.iter().zip(&baseline).enumerate() {
                prop_assert_eq!(&got.0, &want.0, "frame {} cloud diverged at {} workers", frame_no, workers);
                prop_assert_eq!(&got.1, &want.1, "frame {} neighborhoods diverged at {} workers", frame_no, workers);
                prop_assert_eq!(&got.2, &want.2, "frame {} parents diverged at {} workers", frame_no, workers);
            }
        }
    }
}

/// The full streaming session — interpolation, colorization, refinement,
/// temporal reuse and the cached spatial index — replayed over the same
/// churned sequence at each worker count, must emit identical frames.
#[test]
fn full_session_is_bit_identical_across_worker_counts() {
    use volut::core::{refine::IdentityRefiner, SrConfig, SrPipeline};
    use volut::stream::client::SrSession;
    let n = 4_600; // above the dual-tree threshold: sharded traversal runs
    let base = synthetic::humanoid(n, 0.5, 11);
    let frames = synthetic::delta_frame_sequence(
        &base,
        3,
        DeltaStreamConfig {
            churn: 0.1,
            drift: 0.05,
            jitter: 0.01,
            seed: 23,
        },
    );
    let run = |workers: usize| {
        runtime::with_workers(workers, || {
            let mut session = SrSession::new(SrPipeline::new(
                SrConfig::default(),
                Box::new(IdentityRefiner),
            ));
            frames
                .iter()
                .map(|f| {
                    session
                        .upsample_frame(f, 2.0)
                        .expect("frame upsamples")
                        .cloud
                })
                .collect::<Vec<_>>()
        })
    };
    let baseline = run(WORKER_COUNTS[0]);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            run(workers),
            baseline,
            "session diverged at {workers} workers"
        );
    }
}

/// `frames` frames of `n` colored humanoid points at 10 % churn, each with
/// the delta that produced it from the one before (`None` for the first).
/// The stream appends its replacement points; they are spread evenly through
/// the frame instead, so the inserted rows fall inside every chunk of the
/// copy-forward passes rather than only the last one. Frame 2 also recolors
/// every 97th point, survivors included, so cached tail colors must not be
/// copied forward there.
fn spread_churn_frames(n: usize, frames: usize) -> Vec<(PointCloud, Option<FrameDelta>)> {
    let mut frame = synthetic::humanoid(n, 0.5, 31);
    assert!(frame.has_colors());
    let mut out = vec![(frame.clone(), None)];
    for step in 1..frames {
        let mut stream = DeltaStream::new(
            frame.clone(),
            DeltaStreamConfig {
                churn: 0.1,
                drift: 0.05,
                jitter: 0.01,
                seed: step as u64,
            },
        );
        let appended = stream.advance();
        let next = stream.frame();
        let inserted_count = appended.inserted().len();
        let survivors = next.len() - inserted_count;
        let stride = next.len() / inserted_count.max(1);
        let inserted: Vec<u32> = (0..inserted_count).map(|j| (j * stride) as u32).collect();
        let (positions, colors) = (next.positions(), next.colors().expect("colored"));
        let mut order: Vec<usize> = Vec::with_capacity(next.len());
        let (mut s, mut q) = (0, 0);
        for new_i in 0..next.len() {
            if q < inserted.len() && inserted[q] as usize == new_i {
                order.push(survivors + q);
                q += 1;
            } else {
                order.push(s);
                s += 1;
            }
        }
        let recolor = |new_i: usize, c: Color| {
            if step == 2 && new_i.is_multiple_of(97) {
                Color::new(255 - c.r, c.g, c.b)
            } else {
                c
            }
        };
        frame = PointCloud::from_positions_and_colors(
            order.iter().map(|&i| positions[i]).collect::<Vec<Point3>>(),
            order
                .iter()
                .enumerate()
                .map(|(new_i, &i)| recolor(new_i, colors[i]))
                .collect(),
        )
        .expect("lengths match");
        let delta = FrameDelta::from_parts(
            appended.old_len(),
            frame.len(),
            appended.removed().to_vec(),
            inserted,
        )
        .expect("consistent delta");
        out.push((frame.clone(), Some(delta)));
    }
    out
}

/// A 24k-point colored session at 10 % churn, with declared and with diffed
/// deltas, at the default config and at dilation 1, through a neural
/// refiner: every frame must equal the one-worker run at 1, 2, 4 and 8
/// workers, and the one-worker run must equal a cold recompute. At 24k rows
/// the copy-forward passes split into two or three chunks, so this pins
/// their chunk seams.
#[test]
fn large_delta_session_is_bit_identical_across_workers_and_to_cold() {
    use volut::core::nn::mlp::Mlp;
    use volut::core::refine::NnRefiner;
    use volut::core::SrPipeline;
    use volut::stream::client::SrSession;
    let frames = spread_churn_frames(24_000, 4);
    for config in [SrConfig::default(), SrConfig::k4d1()] {
        for declared in [true, false] {
            // `incremental: false` is the cold oracle: the session is
            // flushed before every frame, and every frame is undeclared.
            let run = |workers: usize, incremental: bool| {
                runtime::with_workers(workers, || {
                    let refiner = NnRefiner::from_config(&config, Mlp::new(&[12, 16, 3], 41))
                        .expect("valid config");
                    let mut session = SrSession::new(SrPipeline::new(config, Box::new(refiner)));
                    let clouds: Vec<PointCloud> = frames
                        .iter()
                        .map(|(frame, delta)| {
                            if !incremental {
                                session.flush_caches();
                            }
                            match (declared && incremental, delta) {
                                (true, Some(d)) => {
                                    session.upsample_frame_delta(frame, 2.0, d.clone())
                                }
                                _ => session.upsample_frame(frame, 2.0),
                            }
                            .expect("frame upsamples")
                            .cloud
                        })
                        .collect();
                    assert_eq!(session.last_delta_error(), None);
                    (clouds, session.temporal_stats())
                })
            };
            let label = format!("dilation {}, declared deltas: {declared}", config.dilation);
            let (baseline, stats) = run(1, true);
            assert_eq!(
                stats.incremental_frames,
                frames.len() as u64 - 1,
                "{label}: {stats:?}"
            );
            assert!(
                stats.gen_points_reused > stats.gen_points_recomputed
                    && stats.refined_points_reused > 0,
                "{label}: the delta frames must copy most outputs forward: {stats:?}"
            );
            let (cold, cold_stats) = run(1, false);
            assert_eq!(cold_stats.incremental_frames, 0, "{label}");
            assert!(
                cold == baseline,
                "{label}: incremental output differs from a cold recompute"
            );
            for &workers in &WORKER_COUNTS[1..] {
                let (got, _) = run(workers, true);
                assert!(
                    got == baseline,
                    "{label}: session diverged at {workers} workers"
                );
            }
        }
    }
}
