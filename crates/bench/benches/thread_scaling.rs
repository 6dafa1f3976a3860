//! Criterion bench: thread scaling of the work-stealing runtime, grouped by
//! worker count.
//!
//! Three workloads per worker count (pinned via `runtime::with_workers`, so
//! the numbers are comparable on any host and `VOLUT_WORKERS` is not
//! needed):
//!
//! * `self_join/chunked_single_tree` — the engine's pre-chunked single-tree
//!   sweep (each chunk a bichromatic `knn_batch` over a query sub-slice),
//!   the multi-worker route the engine used for *all* batches before the
//!   dual tree learned to shard;
//! * `self_join/dual_tree` — the dual-tree leaf-pair traversal, sharding
//!   its query-leaf set across the pool internally (at one worker this is
//!   the classic sequential traversal);
//! * `sr_frame_recompute` — a whole SR frame (interpolation, colorization,
//!   refinement) with temporal reuse off: every pool-routed stage of the
//!   pipeline at once.
//!
//! The `self_join` pair is the multi-worker half of the measurement behind
//! `BatchStrategy::Auto`: `chunked_single_tree` vs `dual_tree` at each
//! worker count (the size sweep is recorded on
//! `dualtree::DUAL_MIN_QUERIES_MONO`; `BENCH_knn.json`'s `thread_scaling`
//! section holds the 1-core host's numbers). Runs in CI's `--test` smoke
//! mode with a downscaled workload.

use criterion::{criterion_group, criterion_main, is_quick_mode, BenchmarkId, Criterion};
use std::hint::black_box;
use volut_core::interpolate::FrameScratch;
use volut_core::refine::IdentityRefiner;
use volut_core::{SrConfig, SrPipeline};
use volut_pointcloud::dualtree::{BatchStrategy, DualTreeScratch};
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::{par, runtime, synthetic, Neighborhoods};

/// Worker counts the scaling sweep pins. The build host may have fewer
/// cores than the top entry — the numbers still bound scheduling overhead
/// (oversubscribed pools must not collapse), and they become real scaling
/// curves when the host grows.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn bench_self_join_scaling(c: &mut Criterion) {
    volut_bench::setup::log_runtime_once();
    let n = if is_quick_mode() { 4_000 } else { 100_000 };
    let k = 5;
    let cloud = synthetic::humanoid(n, 0.5, 3);
    let queries = cloud.positions();
    let tree = KdTree::build(queries);
    for workers in WORKER_COUNTS {
        let mut group = c.benchmark_group(format!("thread_scaling_self_join_{n}_k{k}"));
        group.sample_size(10);
        let mut out = Neighborhoods::with_capacity(n, n * k);
        let mut scratch = DualTreeScratch::new();
        group.bench_function(BenchmarkId::new("chunked_single_tree", workers), |b| {
            runtime::with_workers(workers, || {
                b.iter(|| {
                    out.clear();
                    // The engine's pre-chunk route: one single-tree sweep
                    // per chunk, partials appended in order. Forced, because
                    // at one worker the only chunk is the whole cloud — a
                    // self-join `Auto` would hand to the dual tree.
                    let chunk = queries.len().div_ceil(workers).max(1);
                    let partials = par::map_chunks(queries.len(), chunk, |_, range| {
                        let mut local = Neighborhoods::with_capacity(range.len(), range.len() * k);
                        tree.knn_batch_with(
                            &queries[range],
                            k,
                            &mut local,
                            BatchStrategy::SingleTree,
                            &mut DualTreeScratch::new(),
                        );
                        local
                    });
                    for part in &partials {
                        out.append(part);
                    }
                    black_box(out.total_indices())
                })
            });
        });
        group.bench_function(BenchmarkId::new("dual_tree", workers), |b| {
            runtime::with_workers(workers, || {
                b.iter(|| {
                    out.clear();
                    tree.knn_batch_with(
                        queries,
                        k,
                        &mut out,
                        BatchStrategy::DualTree,
                        &mut scratch,
                    );
                    black_box(out.total_indices())
                })
            });
        });
        group.finish();
    }
}

fn bench_frame_scaling(c: &mut Criterion) {
    let n = if is_quick_mode() { 4_000 } else { 50_000 };
    let cloud = synthetic::humanoid(n, 0.5, 7);
    let pipeline = SrPipeline::new(SrConfig::default(), Box::new(IdentityRefiner));
    let mut group = c.benchmark_group(format!("thread_scaling_sr_frame_{n}"));
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_function(BenchmarkId::new("sr_frame_recompute", workers), |b| {
            runtime::with_workers(workers, || {
                let mut scratch = FrameScratch::new();
                scratch.set_incremental(false);
                b.iter(|| {
                    let r = pipeline.upsample_with(&cloud, 2.0, &mut scratch).unwrap();
                    black_box(r.cloud.len())
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_self_join_scaling, bench_frame_scaling);
criterion_main!(benches);
