//! A steady-state delta frame allocates for its output cloud and, inside
//! the kNN sweep kernel, a handful of batch-local lists — nothing in the
//! interpolator or the pipeline: every working buffer of theirs comes from
//! the frame arena (grown by earlier frames) or the session state. Counted
//! with a per-thread counting allocator, on one worker so the whole frame
//! runs on the counting thread. The LUT refiner adds nothing to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use volut::core::encoding::{KeyScheme, PositionEncoder};
use volut::core::lut::{DenseLut, Lut};
use volut::core::refine::{IdentityRefiner, LutRefiner};
use volut::core::{SrConfig, SrPipeline};
use volut::pointcloud::runtime;
use volut::pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
use volut::stream::client::SrSession;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down. The cell is const-initialized and has no destructor, so reading
    // it here never allocates.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of each measured steady-state delta frame of `pipeline` over
/// the test's 10 %-churn stream, on one worker so the whole frame runs on
/// the counting thread.
fn steady_state_allocations(pipeline: SrPipeline) -> Vec<u64> {
    runtime::with_workers(1, || {
        let mut session = SrSession::new(pipeline);
        let mut stream = DeltaStream::new(
            synthetic::humanoid(2_000, 0.2, 29),
            DeltaStreamConfig {
                churn: 0.1,
                drift: 0.04,
                jitter: 0.01,
                seed: 13,
            },
        );
        session.upsample_frame(stream.frame(), 2.0).unwrap();
        // Warm up past the first patch-budget rebuild so every buffer has
        // reached its high-water mark.
        let mut per_frame = Vec::new();
        for frame_no in 0..16 {
            let delta = stream.advance();
            let frame = stream.frame().clone();
            let before = ALLOCATIONS.with(Cell::get);
            let result = session.upsample_frame_delta(&frame, 2.0, delta).unwrap();
            let after = ALLOCATIONS.with(Cell::get);
            assert_eq!(result.cloud.len(), 2 * frame.len());
            if frame_no >= 8 {
                per_frame.push(after - before);
            }
        }
        per_frame
    })
}

#[test]
fn steady_state_delta_frames_allocate_only_their_output() {
    let per_frame = steady_state_allocations(SrPipeline::new(
        SrConfig::default(),
        Box::new(IdentityRefiner),
    ));
    // Ten, none of them in the interpolator or the pipeline: five for
    // the output (the input cloned — positions, colors — one growth step
    // for each when the generated tail is appended, and the result's
    // refiner-name string) and five batch-local lists inside the
    // single-tree kNN sweep that recomputes the invalidated rows
    // (`KdTree::knn_batch_with`: traversal stack, descent path, best-k
    // accumulator). Before the frame arena the fresh point/parent/hood
    // lists, the pair lists and the parent table were allocated — and
    // grown push by push — on top of those, on every frame.
    let worst = per_frame.iter().max().unwrap();
    assert!(
        *worst <= 10,
        "steady-state frames allocated {per_frame:?} times"
    );
}

#[test]
fn steady_state_lut_refinement_allocates_nothing_more() {
    // The same stream refined through a dense Compact table: the refiner's
    // key lanes, keys, radii and probe results are fixed arrays on its
    // stack, so the LUT path holds the identity path's bound.
    let config = SrConfig {
        bins: 32,
        ..SrConfig::default()
    };
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
    let mut table = DenseLut::new(encoder.key_space()).unwrap();
    for key in 0..encoder.key_space() {
        let tiny = (key % 17) as f32 * 1e-3;
        table.set(key, [tiny, -tiny, 0.5 * tiny]).unwrap();
    }
    let refiner = LutRefiner::new(encoder, Box::new(table));
    let per_frame = steady_state_allocations(SrPipeline::new(config, Box::new(refiner)));
    let worst = per_frame.iter().max().unwrap();
    assert!(
        *worst <= 10,
        "steady-state LUT-refined frames allocated {per_frame:?} times"
    );
}
