//! The per-worker frame arena: every buffer a frame clears, fills and
//! forgets.
//!
//! A frame needs two kinds of memory. *Session state* — the spatial index,
//! the cached self-join rows, the previous frame's outputs — is read by the
//! next frame and lives on the session's [`FrameScratch`](super::FrameScratch).
//! Everything else is *transient*: raw kNN rows, the dilated lists, the
//! join's row verdicts and old→new map, the dual-tree slab, the k-d build
//! and patch buffers, and the result containers handed back for reuse. The
//! frame pass that generates, colours and refines the output writes
//! straight into the output cloud and those containers, so it needs no
//! buffer of its own here. A frame clears each buffer before writing it and
//! nothing reads them afterwards, so `workers` copies serve a process as
//! well as `tenants` copies would. They live here.
//!
//! # Checkout and the re-entrancy rule
//!
//! Each thread keeps a short free-list of idle arenas. A frame *takes* one
//! out of the list for its whole duration (creating one when the list is
//! empty) and parks it again when it ends — the arena is moved, never
//! borrowed from the thread-local. The runtime never interleaves two frames
//! on one thread: a nested parallel job runs inline, so a server worker
//! runs one tenant's frame start to finish before it claims the next. But
//! caller code can still start a frame from inside another on the same
//! thread, and such a frame finds the outer frame's arena gone from the
//! list and takes, or creates, another; the two can never alias. The list
//! keeps at most [`KEPT_PER_THREAD`] arenas and drops any further one
//! handed back, so however deep such a nest goes, at most that many stay
//! pinned to a thread.
//!
//! Nothing in an arena may be trusted across a checkout: it last served an
//! arbitrary frame of an arbitrary session. Every buffer is cleared before
//! use, and no flag lives here: the self-join returns its verdict, and the
//! plan reads the join's buffers only on that verdict, in the same frame.

use super::temporal::JoinScratch;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use volut_pointcloud::dualtree::DualTreeScratch;
use volut_pointcloud::kdtree::IndexScratch;
use volut_pointcloud::Neighborhoods;

/// Idle arenas a thread keeps between frames; further ones are dropped when
/// handed back. A server worker runs one frame at a time and needs one; the
/// second covers a caller that nests one frame inside another, which would
/// otherwise allocate a fresh arena on every nested frame. Deeper nests pay
/// their allocations.
pub const KEPT_PER_THREAD: usize = 2;

/// This thread's idle arenas, most recently parked last. Boxed on purpose:
/// an arena is ~1 KB of buffer headers, and checkout/park then move a
/// pointer between this list and the frame's lease instead of the struct.
#[allow(clippy::vec_box)]
struct IdleList(RefCell<Vec<Box<FrameArena>>>);

impl Drop for IdleList {
    fn drop(&mut self) {
        let bytes: usize = self.0.get_mut().iter().map(|a| a.parked_bytes).sum();
        IDLE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

thread_local! {
    static IDLE: IdleList = const { IdleList(RefCell::new(Vec::new())) };
}

/// Bytes reserved by the idle arenas of every thread (a statistic: relaxed
/// updates, no data is published through it).
static IDLE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The transient buffers of one frame (see the module docs). Frames check
/// one out themselves; the type is public only for its byte accounting.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Handed out as `InterpolationResult::neighborhoods`, handed back by
    /// the pipeline (or `FrameScratch::recycle_neighborhoods`); `None`
    /// while it is out.
    pub(crate) neighborhoods: Option<Neighborhoods>,
    /// Handed out as `InterpolationResult::parents`, likewise.
    pub(crate) parents: Vec<(usize, usize)>,
    /// Raw (self-match-included) kNN rows of the source points — what the
    /// frame's self-join produced.
    pub(crate) raw_hoods: Neighborhoods,
    /// Self-match-stripped dilated lists, one row per source point.
    pub(crate) dilated: Neighborhoods,
    /// Row slab and pruning bounds of the frame's dual-tree self-join.
    pub(crate) knn: DualTreeScratch,
    /// Record, key and traversal buffers of the session index's builds and
    /// patches (`KdTree::build_in`, `KdTree::patch_with`) and of the delta
    /// frame's inserted-point tree.
    pub(crate) index_scratch: IndexScratch,
    /// What the frame's self-join left for its plan.
    pub(crate) join: JoinScratch,
    /// `reserved_bytes()` when this arena was last parked (what
    /// `IDLE_BYTES` holds on its behalf).
    parked_bytes: usize,
}

impl FrameArena {
    /// Takes an arena out of this thread's free-list for one frame, or
    /// creates one when the list is empty (first frame on the thread, or
    /// every idle arena is held by an enclosing frame).
    pub(crate) fn checkout() -> ArenaLease {
        let idle = IDLE
            .try_with(|list| list.0.borrow_mut().pop())
            .ok()
            .flatten();
        let mut arena = idle.unwrap_or_default();
        IDLE_BYTES.fetch_sub(arena.parked_bytes, Ordering::Relaxed);
        arena.parked_bytes = 0;
        ArenaLease(Some(arena))
    }

    /// Parks an arena on this thread's free-list, or drops it when the list
    /// is full (or the thread is exiting).
    fn park(mut arena: Box<FrameArena>) {
        let _ = IDLE.try_with(|list| {
            let mut idle = list.0.borrow_mut();
            if idle.len() < KEPT_PER_THREAD {
                arena.parked_bytes = arena.reserved_bytes();
                IDLE_BYTES.fetch_add(arena.parked_bytes, Ordering::Relaxed);
                idle.push(arena);
            }
        });
    }

    /// Hands a neighborhood container to the arena this thread will take
    /// next, if that one's is out (a bare `interpolate` call parks its arena
    /// before the caller is done with the result); otherwise, or with no
    /// idle arena, the container is dropped.
    pub(crate) fn adopt_neighborhoods(neighborhoods: Neighborhoods) {
        let _ = IDLE.try_with(|list| {
            if let Some(arena) = list.0.borrow_mut().last_mut() {
                if arena.neighborhoods.is_none() {
                    let bytes = neighborhoods.reserved_bytes();
                    arena.neighborhoods = Some(neighborhoods);
                    arena.parked_bytes += bytes;
                    IDLE_BYTES.fetch_add(bytes, Ordering::Relaxed);
                }
            }
        });
    }

    /// The recycled result container, cleared (a new one when it was never
    /// handed back).
    pub(crate) fn take_neighborhoods(&mut self) -> Neighborhoods {
        let mut n = self.neighborhoods.take().unwrap_or_default();
        n.clear();
        n
    }

    /// The recycled parent-pair list, cleared.
    pub(crate) fn take_parents(&mut self) -> Vec<(usize, usize)> {
        let mut p = std::mem::take(&mut self.parents);
        p.clear();
        p
    }

    /// Takes back the containers a frame handed out in its
    /// `InterpolationResult`.
    pub(crate) fn recycle(&mut self, neighborhoods: Neighborhoods, parents: Vec<(usize, usize)>) {
        self.neighborhoods = Some(neighborhoods);
        self.parents = parents;
    }

    /// Capacity (bytes) currently reserved by every buffer of this arena.
    pub fn reserved_bytes(&self) -> usize {
        self.neighborhoods
            .as_ref()
            .map_or(0, Neighborhoods::reserved_bytes)
            + self.parents.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.dilated.reserved_bytes()
            + self.raw_hoods.reserved_bytes()
            + self.knn.reserved_bytes()
            + self.index_scratch.reserved_bytes()
            + self.join.reserved_bytes()
    }

    /// Bytes reserved by the idle arenas of **every** thread — what the
    /// process holds for frame scratch between frames, however many
    /// sessions it serves. Arenas checked out by a frame in flight are not
    /// counted until they are parked again.
    pub fn idle_bytes() -> usize {
        IDLE_BYTES.load(Ordering::Relaxed)
    }

    /// Bytes reserved by the calling thread's idle arenas.
    pub fn thread_idle_bytes() -> usize {
        IDLE.try_with(|list| list.0.borrow().iter().map(|a| a.parked_bytes).sum())
            .unwrap_or(0)
    }

    /// Number of idle arenas on the calling thread's free-list.
    #[cfg(test)]
    fn thread_idle_count() -> usize {
        IDLE.try_with(|list| list.0.borrow().len()).unwrap_or(0)
    }
}

/// An arena checked out for one frame; parks it again on drop, so early
/// returns and unwinding hand it back too.
#[derive(Debug)]
pub(crate) struct ArenaLease(Option<Box<FrameArena>>);

impl Deref for ArenaLease {
    type Target = FrameArena;
    fn deref(&self) -> &FrameArena {
        self.0.as_deref().expect("held until drop")
    }
}

impl DerefMut for ArenaLease {
    fn deref_mut(&mut self) -> &mut FrameArena {
        self.0.as_deref_mut().expect("held until drop")
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        if let Some(arena) = self.0.take() {
            FrameArena::park(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SrConfig;
    use crate::interpolate::FrameScratch;
    use crate::lut::LookupStats;
    use crate::nn::mlp::Mlp;
    use crate::pipeline::SrPipeline;
    use crate::refine::{IdentityRefiner, NnRefiner, Refiner};
    use std::sync::{Arc, Mutex};
    use volut_pointcloud::synthetic::{self, DeltaStreamConfig};
    use volut_pointcloud::{NeighborhoodsView, Point3, PointCloud};

    /// An identity refiner that, on its first batch, upsamples a whole other
    /// frame: caller code starting a frame from inside the refinement stage
    /// of one in flight on the same thread.
    struct Nesting {
        nested: SrPipeline,
        cloud: PointCloud,
        out: Arc<Mutex<Option<PointCloud>>>,
    }

    impl Refiner for Nesting {
        fn name(&self) -> &str {
            "nesting"
        }

        fn refine_batch(
            &self,
            _points: &mut [Point3],
            _neighborhoods: NeighborhoodsView<'_>,
            _source: &[Point3],
        ) -> LookupStats {
            let mut nested_out = self.out.lock().unwrap();
            if nested_out.is_none() {
                let r = self
                    .nested
                    .upsample_with(&self.cloud, 2.0, &mut FrameScratch::new())
                    .unwrap();
                *nested_out = Some(r.cloud);
            }
            LookupStats::default()
        }

        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_frame_nested_in_another_gets_its_own_arena() {
        let config = SrConfig::default();
        let outer_cloud = synthetic::humanoid(900, 0.3, 5);
        let inner_cloud = synthetic::sphere(300, 1.0, 6);
        let nested_out = Arc::new(Mutex::new(None));
        let outer = SrPipeline::new(
            config,
            Box::new(Nesting {
                nested: SrPipeline::new(config, Box::new(IdentityRefiner)),
                cloud: inner_cloud.clone(),
                out: Arc::clone(&nested_out),
            }),
        );

        let idle_before = FrameArena::thread_idle_count();
        let outer_out = outer
            .upsample_with(&outer_cloud, 2.0, &mut FrameScratch::new())
            .unwrap();
        let inner_out = nested_out.lock().unwrap().take().unwrap();

        // The nested frame could not take the arena the outer frame held,
        // so it created a second one; both are parked afterwards (none was
        // idle before: a test thread starts with an empty list).
        assert_eq!(idle_before, 0);
        assert_eq!(FrameArena::thread_idle_count(), 2);

        let reference = SrPipeline::new(config, Box::new(IdentityRefiner));
        assert_eq!(
            outer_out.cloud,
            reference.upsample(&outer_cloud, 2.0).unwrap().cloud
        );
        assert_eq!(
            inner_out,
            reference.upsample(&inner_cloud, 2.0).unwrap().cloud
        );
    }

    #[test]
    fn free_list_keeps_a_fixed_number_of_arenas() {
        let leases: Vec<ArenaLease> = (0..KEPT_PER_THREAD + 3)
            .map(|_| FrameArena::checkout())
            .collect();
        assert_eq!(FrameArena::thread_idle_count(), 0);
        drop(leases);
        assert_eq!(FrameArena::thread_idle_count(), KEPT_PER_THREAD);
    }

    /// One churned session per entry of `sessions`, every frame's output
    /// collected. `interleaved` runs them round-robin on one thread (one
    /// shared arena free-list); otherwise each session runs start to finish
    /// on a thread of its own, where no other session ever touches its
    /// arena.
    fn run_sessions(
        sessions: &[(usize, SrConfig, f64)],
        interleaved: bool,
    ) -> Vec<Vec<PointCloud>> {
        const FRAMES: usize = 5;
        let make = |&(points, config, churn): &(usize, SrConfig, f64)| {
            let refiner = NnRefiner::from_config(&config, Mlp::new(&[12, 16, 3], 41)).unwrap();
            let frames = synthetic::delta_frame_sequence(
                &synthetic::humanoid(points, 0.3, points as u64),
                FRAMES,
                DeltaStreamConfig {
                    churn,
                    drift: 0.05,
                    jitter: 0.008,
                    seed: 7,
                },
            );
            (
                SrPipeline::new(config, Box::new(refiner)),
                FrameScratch::new(),
                frames,
            )
        };
        if interleaved {
            let mut live: Vec<_> = sessions.iter().map(make).collect();
            let mut outs = vec![Vec::new(); sessions.len()];
            for f in 0..FRAMES {
                for (s, (pipeline, scratch, frames)) in live.iter_mut().enumerate() {
                    let out = pipeline.upsample_with(&frames[f], 2.0, scratch).unwrap();
                    outs[s].push(out.cloud);
                }
            }
            outs
        } else {
            sessions
                .iter()
                .map(|session| {
                    std::thread::scope(|scope| {
                        scope
                            .spawn(|| {
                                let (pipeline, mut scratch, frames) = make(session);
                                frames
                                    .iter()
                                    .map(|frame| {
                                        pipeline
                                            .upsample_with(frame, 2.0, &mut scratch)
                                            .unwrap()
                                            .cloud
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .join()
                            .expect("private session thread")
                    })
                })
                .collect()
        }
    }

    #[test]
    fn interleaved_sessions_of_different_sizes_match_private_runs() {
        // Large, small, medium — a session at dilation 1, which keeps rows of
        // a different stride in the same arena buffers — and a static one,
        // whose frames after the first generate nothing fresh and so leave
        // most of the arena as the previous session filled it. Whatever a
        // bigger or differently shaped frame left in the arena must never
        // reach another session's output.
        let sessions = [
            (1_500, SrConfig::default(), 0.1),
            (300, SrConfig::default(), 0.1),
            (700, SrConfig::k4d1(), 0.1),
            (400, SrConfig::default(), 0.0),
            (520, SrConfig::default(), 0.3),
        ];
        let private = run_sessions(&sessions, false);
        let shared = run_sessions(&sessions, true);
        for (s, (a, b)) in private.iter().zip(&shared).enumerate() {
            for (f, (a, b)) in a.iter().zip(b).enumerate() {
                assert_eq!(a, b, "session {s} frame {f} diverged on a shared arena");
            }
        }
    }
}
