//! The engine's thread pool: flat data-parallel jobs over one job slot.
//!
//! Every parallel write in the engine goes through [`for_each_chunk_mut`],
//! which hands each chunk a disjoint `&mut` sub-slice; callers size their
//! cut with [`workers_for`]. The global pool has `VOLUT_WORKERS` executors
//! (else the machine's parallelism; `VOLUT_WORKERS=1` runs on one thread),
//! and [`with_workers`] routes a thread to another pool for a scope. Every
//! parallel site writes disjoint output slots whose values depend only on
//! the slot, so results are bit-identical under any schedule.
//!
//! **The nesting rule.** A [`for_each_chunk_mut`] called from inside a
//! running chunk runs inline on the calling thread, and inside a chunk
//! [`current_workers`] reports 1. A nested site therefore takes exactly the
//! path `VOLUT_WORKERS=1` tests, and no thread runs another job's chunks
//! while it waits: a server tenant's frame runs start to finish on the
//! thread that claimed it, so its step clock times that frame alone.
//!
//! **The pool.** `W` executors are `W - 1` spawned workers plus the thread
//! that submits a job. The submitter pins its job on its stack, posts a
//! type-erased pointer to it into the pool's one slot and bumps a generation
//! counter that parked workers wait on. Executors claim chunk indices from
//! one atomic cursor, so chunks start in index order and at most `W` run at
//! once; the submitter claims chunks too, then waits for the ones still in
//! flight. A top-level submitter that finds the slot taken runs its job
//! inline. A panicking chunk exhausts the cursor and keeps its payload
//! (first panic wins) for the submitter to re-raise once the job has
//! quiesced. Dropping a pool joins its workers.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// What one [`for_each_chunk_mut`] call shares with the threads running its
/// chunks, pinned on the submitter's stack for the whole job.
struct Cut<'f, T, F> {
    base: *mut T,
    len: usize,
    chunk_len: usize,
    f: &'f F,
}

/// A type-erased job: the address of a live [`Cut`] beside the trampoline
/// that re-types it, and its chunk count. Only [`for_each_chunk_mut`] builds
/// one, and its `Cut` outlives every run of the job.
#[derive(Clone, Copy)]
struct Job {
    cut: usize,
    run: fn(usize, usize),
    chunks: usize,
}

/// Runs chunk `c` of the [`Cut`] at address `cut`.
fn run_chunk<T, F: Fn(usize, usize, &mut [T])>(cut: usize, c: usize) {
    // SAFETY: `cut` is the address of the `Cut<T, F>` that
    // `for_each_chunk_mut` pins on its stack and keeps alive, with the
    // `&mut [T]` it points into, until every chunk has finished (`Pool::run`
    // waits for `in_flight` to drain). The cursor or the inline loop hands
    // out each `c < chunks` once, chunks are disjoint, so no two live slices
    // alias; `T: Send` and `F: Sync` let chunk and closure cross threads.
    let (f, start, chunk) = unsafe {
        let cut = &*(cut as *const Cut<'_, T, F>);
        let start = c * cut.chunk_len;
        let len = cut.chunk_len.min(cut.len - start);
        (
            cut.f,
            start,
            std::slice::from_raw_parts_mut(cut.base.add(start), len),
        )
    };
    f(c, start, chunk);
}

/// The pool's job slot and the bookkeeping of the job in it.
#[derive(Default)]
struct Slot {
    job: Option<Job>,
    /// Bumped by every post; a parked worker waits for it to move.
    generation: u64,
    /// Workers that joined `job` and have not left it yet.
    in_flight: usize,
    /// First panic payload of `job`, re-raised by its submitter.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// State shared by a pool's handle and its workers.
#[derive(Default)]
struct Shared {
    slot: Mutex<Slot>,
    /// Signalled when a job is posted or the pool shuts down.
    posted: Condvar,
    /// Signalled when the last in-flight worker leaves a job.
    drained: Condvar,
    /// Next unclaimed chunk. `Relaxed`: it is reset before a post and workers
    /// join under the slot lock, which orders the reset before every claim.
    cursor: AtomicUsize,
    /// Seeded schedule perturbation (see [`Shared::perturb`]).
    #[cfg(test)]
    chaos: Option<std::sync::atomic::AtomicU64>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect("pool lock")
    }

    /// Claims and runs chunks of `job` until the cursor is exhausted. The
    /// thread is inside a chunk meanwhile, so nested jobs run inline.
    fn claim(&self, job: Job) {
        let outer = IN_CHUNK.replace(true);
        loop {
            self.perturb();
            let c = self.cursor.fetch_add(1, Relaxed);
            if c >= job.chunks {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.run)(job.cut, c))) {
                self.cursor.fetch_max(job.chunks, Relaxed);
                self.lock().panic.get_or_insert(payload);
            }
        }
        IN_CHUNK.set(outer);
    }

    /// A schedule perturbation point (claim, park, wake): under test, a
    /// chaotic pool yields or sleeps a few microseconds here as its seeded
    /// stream says; otherwise nothing.
    #[inline(always)]
    fn perturb(&self) {
        #[cfg(test)]
        if let Some(state) = &self.chaos {
            // A Weyl sequence through a multiplicative hash; the top bits pick.
            let z = state.fetch_add(0x9E37_79B9_7F4A_7C15, Relaxed);
            let z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            match z >> 58 {
                0..=15 => std::thread::yield_now(),
                16 => std::thread::sleep(std::time::Duration::from_micros(z & 15)),
                _ => {}
            }
        }
    }
}

/// A pool of `workers` executors: `workers - 1` spawned threads plus the
/// thread submitting each job.
struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Pool {
    /// Wakes every worker with the shutdown flag and joins it. A submitter
    /// holds the pool for its whole job, so no job is in flight here.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.posted.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Pool {
    /// Creates a pool of `workers` executors (clamped to ≥ 1) around
    /// `shared`; `workers == 1` spawns no threads.
    fn new(workers: usize, shared: Shared) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(shared);
        Pool {
            handles: (0..workers - 1)
                .map(|ix| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("volut-worker-{ix}"))
                        .spawn(move || worker_main(&shared))
                        .expect("spawn pool worker")
                })
                .collect(),
            shared,
            workers,
        }
    }

    /// Runs `job` to completion: posts it and claims chunks beside the
    /// workers, or runs it inline on one worker or when the slot is taken.
    /// Re-raises the first chunk panic.
    fn run(&self, job: Job) {
        let shared = &*self.shared;
        let mut slot = shared.lock();
        if self.workers == 1 || slot.job.is_some() {
            drop(slot);
            return (0..job.chunks).for_each(|c| (job.run)(job.cut, c));
        }
        shared.cursor.store(0, Relaxed);
        slot.job = Some(job);
        slot.generation += 1;
        drop(slot);
        // Wake only the workers the job has chunks for.
        for _ in 1..job.chunks.min(self.workers) {
            shared.posted.notify_one();
        }
        shared.perturb();
        shared.claim(job);
        let mut slot = (shared.drained)
            .wait_while(shared.lock(), |s| s.in_flight > 0)
            .expect("pool lock");
        slot.job = None;
        let panic = slot.panic.take();
        drop(slot);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Routes the calling thread to this pool for the duration of `f`,
    /// restoring its previous pool afterwards (also when `f` panics).
    fn install<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let outer = SCOPED.replace(Some(Arc::clone(self)));
        let out = catch_unwind(AssertUnwindSafe(f));
        SCOPED.set(outer);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// Main loop of a spawned worker: park until a job is posted, join it and
/// claim chunks until its cursor is exhausted, leave, park again.
fn worker_main(shared: &Shared) {
    let mut seen = 0;
    loop {
        shared.perturb();
        let idle = |s: &mut Slot| !s.shutdown && (s.job.is_none() || s.generation == seen);
        let mut slot = shared
            .posted
            .wait_while(shared.lock(), idle)
            .expect("pool lock");
        let Some(job) = slot.job.filter(|_| !slot.shutdown) else {
            return;
        };
        seen = slot.generation;
        slot.in_flight += 1;
        drop(slot);
        shared.perturb();
        shared.claim(job);
        let mut slot = shared.lock();
        slot.in_flight -= 1;
        if slot.in_flight == 0 {
            shared.drained.notify_all();
        }
    }
}

thread_local! {
    /// The pool [`with_workers`] routed this thread to; `None` means the
    /// global pool.
    static SCOPED: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
    /// Whether this thread is running a chunk of a posted job.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// The global pool's worker count and the source that decided it, so
/// [`describe`] never credits an unparseable or zero `VOLUT_WORKERS`.
fn resolve_workers() -> (usize, &'static str) {
    let env = std::env::var("VOLUT_WORKERS").ok();
    if let Some(n) = env.and_then(|v| v.trim().parse().ok()).filter(|&n| n >= 1) {
        return (n, "VOLUT_WORKERS");
    }
    match std::thread::available_parallelism() {
        Ok(n) => (n.get(), "available_parallelism"),
        Err(_) => (1, "fallback"),
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The lazily created global pool, sized by [`resolve_workers`] at first use.
fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(resolve_workers().0, Shared::default()))
}

/// Runs `f` on this thread's pool: its [`with_workers`] scope's, else the
/// global one.
fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    let scoped = SCOPED.with_borrow(Option::clone);
    f(scoped.as_deref().unwrap_or_else(|| global()))
}

/// Executor count of the current pool, or 1 inside a chunk (the nesting
/// rule).
pub fn current_workers() -> usize {
    if IN_CHUNK.get() {
        1
    } else {
        with_current(|pool| pool.workers)
    }
}

/// Runs `f` over consecutive sub-ranges of `0..len`, `grain` indices each
/// (the last may be shorter), on the current pool: [`for_each_chunk_mut`]
/// over a slice of `()`, which costs no memory. `f` must tolerate its ranges
/// running in any interleaving.
pub fn run_range<F>(len: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    for_each_chunk_mut(&mut vec![(); len], grain, |_, start, units| {
        f(start..start + units.len());
    });
}

/// Runs `f` over consecutive windows of `order`, `grain` items each, on the
/// current pool. The priority dispatch primitive: the cursor hands windows in
/// `order`'s order, so a caller that sorts `order` longest-job-first gets an
/// LPT schedule (heavy items start first, light ones backfill) with no
/// priority queue. Only the start order is fixed.
pub fn run_order<F>(order: &[u32], grain: usize, f: F)
where
    F: Fn(&[u32]) + Sync,
{
    run_range(order.len(), grain, |r| f(&order[r]));
}

/// How many workers a workload of `items` elements is cut for:
/// `min(current_workers(), items / min_items_per_worker + 1)`, at least 1 —
/// a full pool for a few thousand points costs more than it saves. The
/// minimum is where cutting *starts*, not a floor on the share: 3000 items
/// at 1000 per worker are cut for four workers of 750.
pub fn workers_for(items: usize, min_items_per_worker: usize) -> usize {
    current_workers()
        .min(items / min_items_per_worker.max(1) + 1)
        .max(1)
}

/// Runs `f(chunk_index, start, chunk)` over contiguous mutable chunks of
/// `data`, `chunk_len` elements each (the last may be shorter), on the
/// current pool; `start` is the chunk's element offset inside `data`. A
/// caller with several outputs per chunk pre-splits them into one element
/// per chunk and passes chunks of 1. Chunks start in index order, at most
/// pool-size at once. One chunk, a one-worker pool, a pool busy with another
/// thread's job, or a call from inside a running chunk (the nesting rule)
/// runs every chunk inline on the caller, in order.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let cut = Cut {
        base: data.as_mut_ptr(),
        len: data.len(),
        chunk_len,
        f: &f,
    };
    let job = Job {
        cut: std::ptr::from_ref(&cut) as usize,
        run: run_chunk::<T, F>,
        chunks: data.len().div_ceil(chunk_len),
    };
    if job.chunks > 1 && !IN_CHUNK.get() {
        with_current(|pool| pool.run(job));
    } else {
        (0..job.chunks).for_each(|c| (job.run)(job.cut, c));
    }
}

/// Runs `f` with the current thread routed to a pool of exactly `workers`
/// executors (tests and benches pin worker counts with it). Pools are cached
/// per worker count, so repeated scopes reuse their threads.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Pool>>>> = OnceLock::new();
    let workers = workers.max(1);
    let pool = Arc::clone(
        CACHE
            .get_or_init(Mutex::default)
            .lock()
            .expect("scoped pool cache")
            .entry(workers)
            .or_insert_with(|| Arc::new(Pool::new(workers, Shared::default()))),
    );
    pool.install(f)
}

/// One-line description of the resolved runtime configuration, logged once
/// by the bench setup path so every recorded number names its worker count.
pub fn describe() -> String {
    let (workers, source) = resolve_workers();
    let state = GLOBAL
        .get()
        .map_or("not yet initialized", |_| "initialized");
    format!("runtime: {workers} worker(s) (resolved from {source}), global pool {state}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64, Ordering::SeqCst};

    /// A private pool routed to the calling thread for `f`. Tests that pin
    /// the pool's own behavior use one rather than the shared
    /// [`with_workers`] cache, whose pools other tests submit to
    /// concurrently.
    fn on_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        Arc::new(Pool::new(workers, Shared::default())).install(f)
    }

    #[test]
    fn run_range_covers_every_index_exactly_once() {
        let hits: Vec<AtomicU32> = (0..10_000).map(|_| AtomicU32::new(0)).collect();
        on_pool(4, || {
            run_range(hits.len(), 64, |r| {
                assert!(r.len() <= 64);
                for i in r {
                    hits[i].fetch_add(1, SeqCst);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    }

    #[test]
    fn empty_and_tiny_jobs() {
        on_pool(4, || {
            run_range(0, 16, |_| panic!("empty jobs never run the closure"));
            let ran = AtomicU32::new(0);
            run_range(1, 16, |r| {
                assert_eq!(r, 0..1);
                ran.fetch_add(1, SeqCst);
            });
            assert_eq!(ran.load(SeqCst), 1);
        });
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let tid = std::thread::current().id();
        let hits = AtomicU32::new(0);
        on_pool(1, || {
            run_range(100, 10, |r| {
                assert_eq!(std::thread::current().id(), tid);
                hits.fetch_add(r.len() as u32, SeqCst);
            });
        });
        assert_eq!(hits.load(SeqCst), 100);
    }

    #[test]
    fn panic_in_task_propagates_to_submitter() {
        on_pool(3, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_range(1000, 1, |r| {
                    if r.contains(&517) {
                        panic!("boom at 517");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(msg.contains("boom"), "unexpected payload: {msg}");
            // The pool survives the poisoned job and runs the next one.
            let hits = AtomicU32::new(0);
            run_range(256, 8, |r| {
                hits.fetch_add(r.len() as u32, SeqCst);
            });
            assert_eq!(hits.load(SeqCst), 256);
        });
    }

    #[test]
    fn nested_spawns_complete() {
        let total = AtomicU32::new(0);
        on_pool(4, || {
            run_range(8, 1, |outer| {
                for _ in outer {
                    // A nested job from inside a chunk runs inline, cut
                    // for one worker.
                    assert_eq!(current_workers(), 1);
                    let tid = std::thread::current().id();
                    run_range(100, 10, |inner| {
                        assert_eq!(std::thread::current().id(), tid);
                        total.fetch_add(inner.len() as u32, SeqCst);
                    });
                }
            });
        });
        assert_eq!(total.load(SeqCst), 800);
    }

    #[test]
    fn with_workers_scopes_the_pool_and_restores() {
        let outside = current_workers();
        with_workers(3, || {
            assert_eq!(current_workers(), 3);
            with_workers(2, || assert_eq!(current_workers(), 2));
            assert_eq!(current_workers(), 3);
        });
        assert_eq!(current_workers(), outside);
    }

    /// The oversubscription regression: a 1000-chunk job, cut through
    /// `run_range` or `for_each_chunk_mut`, must never run more than pool
    /// size chunks at once (the scoped helpers this runtime replaced spawned
    /// one thread per chunk).
    #[test]
    fn thousand_chunk_job_never_exceeds_pool_size() {
        let workers = 4;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let enter = || {
            let now = live.fetch_add(1, SeqCst) + 1;
            peak.fetch_max(now, SeqCst);
            // Make overlap likely so the bound is actually exercised.
            std::thread::sleep(std::time::Duration::from_micros(20));
            live.fetch_sub(1, SeqCst);
        };
        let mut data = vec![0u8; 1000];
        on_pool(workers, || {
            run_range(1000, 1, |_| enter());
            for_each_chunk_mut(&mut data, 1, |_, _, chunk| {
                enter();
                chunk[0] = 1;
            });
        });
        assert!(data.iter().all(|&b| b == 1), "every chunk ran");
        let peak = peak.load(SeqCst);
        assert!(
            (1..=workers as isize).contains(&peak),
            "peak concurrency {peak}, pool size {workers}"
        );
    }

    #[test]
    fn stress_many_small_jobs() {
        on_pool(4, || {
            for round in 0..50 {
                let sum = AtomicUsize::new(0);
                let n = 1 + (round * 37) % 500;
                run_range(n, 3, |r| {
                    sum.fetch_add(r.sum::<usize>(), SeqCst);
                });
                assert_eq!(sum.load(SeqCst), n * (n - 1) / 2, "round {round}");
            }
        });
    }

    #[test]
    fn resolved_workers_is_at_least_one() {
        assert!(resolve_workers().0 >= 1);
    }

    #[test]
    fn run_order_visits_every_item_exactly_once() {
        // A permutation with gaps and duplicates-free reordering: reversed
        // even indices followed by odd ones.
        let order: Vec<u32> = (0..5_000u32)
            .rev()
            .filter(|i| i % 2 == 0)
            .chain((0..5_000).filter(|i| i % 2 == 1))
            .collect();
        let hits: Vec<AtomicU32> = (0..5_000).map(|_| AtomicU32::new(0)).collect();
        on_pool(4, || {
            run_order(&order, 64, |items| {
                for &i in items {
                    hits[i as usize].fetch_add(1, SeqCst);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    }

    #[test]
    fn run_order_chunks_are_contiguous_order_slices() {
        // Every callback slice is a `grain`-long window of `order` starting
        // at a multiple of `grain`: that is what makes the cursor's index
        // order a priority order over the caller's sort.
        let order: Vec<u32> = (0..1_000u32).map(|i| i.wrapping_mul(7) % 1_000).collect();
        on_pool(4, || {
            run_order(&order, 32, |items| {
                let off = (items.as_ptr() as usize - order.as_ptr() as usize) / 4;
                assert_eq!(off % 32, 0);
                assert_eq!(items.len(), 32.min(order.len() - off));
            });
        });
    }

    #[test]
    fn run_order_free_fn_empty_and_single() {
        run_order(&[], 16, |_| panic!("empty order never runs"));
        let ran = AtomicU32::new(0);
        run_order(&[7], 16, |items| {
            assert_eq!(items, &[7]);
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 1);
    }

    #[test]
    fn run_order_front_bias_on_single_worker() {
        // With one executor the cursor's order is the execution order:
        // items run exactly in `order` order.
        let order: Vec<u32> = [9, 3, 7, 1, 8, 0, 2, 6, 4, 5].into();
        let seen = Mutex::new(Vec::new());
        on_pool(1, || {
            run_order(&order, 2, |items| {
                seen.lock().unwrap().extend_from_slice(items);
            });
        });
        assert_eq!(seen.into_inner().unwrap(), order);
    }

    #[test]
    fn workers_for_scales_with_items_and_is_capped_by_the_pool() {
        assert_eq!(workers_for(0, 1000), 1);
        assert!(workers_for(1_000_000, 1000) >= 1);
        with_workers(2, || assert_eq!(workers_for(1_000_000, 1000), 2));
        with_workers(8, || {
            assert_eq!(workers_for(1_000_000, 1000), 8);
            // Still scales down with the workload, and the `+ 1` cuts 3000
            // items for four workers of 750.
            assert_eq!(workers_for(3000, 1000), 4);
        });
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element() {
        for workers in [1, 4] {
            let mut data = vec![0usize; 1003];
            with_workers(workers, || {
                for_each_chunk_mut(&mut data, 100, |c, start, chunk| {
                    assert_eq!(start, c * 100);
                    for (offset, v) in chunk.iter_mut().enumerate() {
                        *v = start + offset;
                    }
                });
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i), "{workers}");
        }
    }

    #[test]
    fn for_each_chunk_mut_fills_every_slot_by_index() {
        for workers in [1, 4] {
            let mut data = vec![0u64; 4097];
            with_workers(workers, || {
                for_each_chunk_mut(&mut data, 256, |_, start, chunk| {
                    for (offset, v) in chunk.iter_mut().enumerate() {
                        *v = (start + offset) as u64 * 3;
                    }
                });
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        }
    }

    /// Dropping a pool joins its workers: each holds the shared state, so
    /// its strong count is the live workers plus the handle, and it must
    /// read zero once `drop` returns.
    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(4, Shared::default());
        let shared = Arc::downgrade(&pool.shared);
        assert_eq!(shared.strong_count(), 4);
        drop(pool);
        assert_eq!(shared.strong_count(), 0);
    }

    /// Every pool-level guarantee under seeded perturbations at claim, park
    /// and wake, at 2, 4 and 8 workers, on a fresh pool per seed: each chunk
    /// runs exactly once; a panicking chunk re-raises at the submitter and
    /// the pool runs the next job; a nested call makes progress; two
    /// top-level submitters sharing the pool both finish; and dropping the
    /// pool joins every worker. The cases' seeds derive from `CHAOS_SEED`
    /// (0 when unset); replay a failure with the printed value.
    #[test]
    fn schedule_exploration_keeps_every_pool_guarantee() {
        let chaos = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        println!("schedule exploration: CHAOS_SEED={chaos}");
        for workers in [2usize, 4, 8] {
            for case in 0..2_000u64 {
                let seed = chaos.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let what = format!("workers {workers} case {case} seed {seed}");
                let pool = Arc::new(Pool::new(
                    workers,
                    Shared {
                        chaos: Some(AtomicU64::new(seed)),
                        ..Shared::default()
                    },
                ));
                let chunks = 1 + (seed % 97) as usize;
                let exactly_once = || {
                    let hits: Vec<AtomicU32> = (0..chunks).map(|_| AtomicU32::new(0)).collect();
                    let mut data = vec![0usize; chunks];
                    for_each_chunk_mut(&mut data, 1, |c, start, chunk| {
                        assert_eq!(c, start);
                        chunk[0] = c;
                        hits[c].fetch_add(1, SeqCst);
                    });
                    assert!(hits.iter().all(|h| h.load(SeqCst) == 1), "{what}");
                    assert!(data.iter().enumerate().all(|(i, &v)| v == i), "{what}");
                };
                pool.install(|| {
                    exactly_once();
                    let bad = (seed >> 8) as usize % chunks;
                    let raised = catch_unwind(AssertUnwindSafe(|| {
                        run_range(chunks, 1, |r| {
                            if r.start == bad {
                                // Unwinds without the panic hook's message.
                                resume_unwind(Box::new(bad));
                            }
                        });
                    }));
                    let payload = raised.expect_err(&what);
                    assert_eq!(payload.downcast_ref::<usize>(), Some(&bad), "{what}");
                    exactly_once();
                    let nested = AtomicUsize::new(0);
                    run_range(chunks, 1, |_| {
                        // One chunk runs inline and is no pool chunk.
                        assert!(chunks == 1 || current_workers() == 1, "{what}");
                        run_range(5, 2, |r| {
                            nested.fetch_add(r.len(), SeqCst);
                        });
                    });
                    assert_eq!(nested.load(SeqCst), 5 * chunks, "{what}");
                });
                std::thread::scope(|s| {
                    let other = s.spawn(|| pool.install(exactly_once));
                    pool.install(exactly_once);
                    other.join().expect("second submitter");
                });
                let weak = Arc::downgrade(&Arc::into_inner(pool).expect("sole handle").shared);
                assert_eq!(weak.strong_count(), 0, "{what}: workers outlived drop");
            }
        }
    }
}
