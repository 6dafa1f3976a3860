//! Work-stealing task runtime — the engine's thread pool.
//!
//! The engine's data-parallel stages used to fan chunks out over
//! `std::thread::scope`, spawning one OS thread *per chunk*: a 1000-chunk
//! job oversubscribed the machine a hundredfold, and every parallel stage
//! paid thread spawn/join latency. This module replaces that with a real
//! pool, hand-rolled in the style of rayon's registry (the workspace
//! depends on no crates.io crates). Every parallel
//! write in the engine goes through one safe primitive on top of it,
//! [`for_each_chunk_mut`], which hands each task a disjoint `&mut`
//! sub-slice; callers size their cut with [`workers_for`]. Running
//! sequentially is a pool of one: `VOLUT_WORKERS=1`.
//!
//! * **Per-worker deques, Chase–Lev discipline.** Each worker owns a
//!   fixed-capacity lock-free deque (`Deque`): the owner pushes and pops
//!   at the *bottom* (LIFO — the task it just split stays cache-hot), while
//!   thieves steal from the *top* (FIFO — a thief grabs the oldest, i.e.
//!   largest, outstanding split). All deque words are `SeqCst` atomics; the
//!   owner/thief race on the last element is resolved by a compare-exchange
//!   on `top` exactly as in Chase & Lev's algorithm.
//! * **Global injector.** Threads that are not pool workers (the session
//!   thread submitting a frame, tests) inject jobs through a mutex-guarded
//!   FIFO; workers fall back to it between steals. Deque overflow (bounded
//!   buffers never grow) also lands here, so no task is ever dropped.
//! * **Recursively splittable range tasks.** The one job shape is
//!   [`Pool::run_range`]: `f` is called over disjoint sub-ranges of
//!   `0..len`. An executing task halves itself until it is at most `grain`
//!   long, pushing the far half onto the worker's deque where idle workers
//!   steal it — so load balancing is dynamic without the caller choosing a
//!   chunk layout, and the *task* count never exceeds what splitting
//!   produces while the *executor* count never exceeds the pool size.
//! * **Parked idle workers.** A worker that finds no work anywhere parks on
//!   a condvar; pushes notify only when sleepers exist, so a saturated pool
//!   never touches the wake lock. Parks use a bounded timeout as a
//!   lost-wakeup backstop.
//! * **Panic propagation.** A panicking task poisons its job (first panic
//!   payload wins), remaining tasks of that job are drained without running
//!   the closure, and the submitting thread re-raises the payload after the
//!   job quiesces — the pool itself never dies.
//! * **Worker-count resolution.** The lazily-created global pool sizes
//!   itself from the `VOLUT_WORKERS` environment variable when set (any
//!   value ≥ 1), else from [`std::thread::available_parallelism`], else 1 —
//!   never a hard-coded guess. [`with_workers`] overrides the pool for the
//!   current thread's scope (tests, benches, and the worker-count matrix in
//!   CI use it); pool workers inherit their pool, so nested parallel stages
//!   inside a scoped job stay on the scoped pool.
//!
//! # Determinism
//!
//! The runtime never changes results: every parallel site in the engine
//! partitions its output into disjoint slots whose values depend only on
//! the slot (seed-per-point RNG, row-independent kernels), so any
//! scheduling — including work stealing — produces bit-identical output.
//! The property suite pins this across worker counts {1, 2, 4, 8}.
//!
//! A submitting thread *participates* while it waits: it executes injector
//! tasks and steals from workers until its own job completes. This is what
//! makes nested `run_range` calls from inside a task deadlock-free (the
//! nesting worker keeps executing its own splits LIFO off its deque), and
//! it bounds a job's executor count at `pool size` (the pool spawns
//! `workers - 1` threads; the submitter is the final executor).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{
    AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst,
};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Capacity of each worker's deque (power of two). Splitting pushes at most
/// `log2(len / grain)` tasks per executing task, so depth stays far below
/// this; overflow (nested jobs stacking up) falls back to the injector.
const DEQUE_CAP: usize = 256;

/// One schedulable unit: a sub-range of a job's index space. `job` points
/// at the submitting thread's stack-pinned [`JobCore`], which outlives every
/// task of the job (the submitter blocks until the job's pending count
/// reaches zero).
#[derive(Clone, Copy)]
struct Task {
    job: *const JobCore<'static>,
    lo: usize,
    hi: usize,
}

// SAFETY: a `Task` is a plain (pointer, range) triple; the pointed-to
// `JobCore` is `Sync` (all shared state atomic or mutex-guarded) and is kept
// alive by the submitting thread until the job quiesces.
unsafe impl Send for Task {}

/// Fixed-capacity Chase–Lev work-stealing deque.
///
/// The owner pushes/pops at `bottom` (LIFO); thieves compare-exchange `top`
/// upward (FIFO). Every word — indices *and* slot contents — is a `SeqCst`
/// atomic, so slot reads are never torn at word granularity and the
/// correctness argument is the classic one: a thief only *uses* a slot it
/// read after its successful CAS on `top`, and while `top == t` the owner's
/// capacity check (`bottom - top < CAP - 1`) makes it impossible for a push
/// to overwrite physical slot `t mod CAP`; a failed CAS discards the read.
struct Deque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    /// Slot storage: one pointer word plus the packed range per task.
    jobs: Box<[AtomicUsize]>,
    ranges: Box<[(AtomicU64, AtomicU64)]>,
}

impl Deque {
    fn new() -> Self {
        Self {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            jobs: (0..DEQUE_CAP).map(|_| AtomicUsize::new(0)).collect(),
            ranges: (0..DEQUE_CAP)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn write_slot(&self, at: isize, task: Task) {
        let i = (at as usize) & (DEQUE_CAP - 1);
        self.jobs[i].store(task.job as usize, SeqCst);
        self.ranges[i].0.store(task.lo as u64, SeqCst);
        self.ranges[i].1.store(task.hi as u64, SeqCst);
    }

    #[inline]
    fn read_slot(&self, at: isize) -> Task {
        let i = (at as usize) & (DEQUE_CAP - 1);
        Task {
            job: self.jobs[i].load(SeqCst) as *const JobCore<'static>,
            lo: self.ranges[i].0.load(SeqCst) as usize,
            hi: self.ranges[i].1.load(SeqCst) as usize,
        }
    }

    /// Owner-only bottom push. Returns the task back when the deque is full
    /// (caller redirects it to the injector).
    fn push(&self, task: Task) -> Result<(), Task> {
        let b = self.bottom.load(SeqCst);
        let t = self.top.load(SeqCst);
        if b - t >= DEQUE_CAP as isize - 1 {
            return Err(task);
        }
        self.write_slot(b, task);
        self.bottom.store(b + 1, SeqCst);
        Ok(())
    }

    /// Owner-only bottom (LIFO) pop.
    fn pop(&self) -> Option<Task> {
        let b = self.bottom.load(SeqCst) - 1;
        self.bottom.store(b, SeqCst);
        let t = self.top.load(SeqCst);
        if t > b {
            // Empty: restore and bail.
            self.bottom.store(b + 1, SeqCst);
            return None;
        }
        let task = self.read_slot(b);
        if b > t {
            return Some(task);
        }
        // Last element: race the thieves for it via `top`.
        let won = self.top.compare_exchange(t, t + 1, SeqCst, SeqCst).is_ok();
        self.bottom.store(b + 1, SeqCst);
        won.then_some(task)
    }

    /// Thief-side top (FIFO) steal. A lost CAS returns `None` — the thief
    /// moves on to its next victim rather than spinning here.
    fn steal(&self) -> Option<Task> {
        let t = self.top.load(SeqCst);
        let b = self.bottom.load(SeqCst);
        if t >= b {
            return None;
        }
        let task = self.read_slot(t);
        self.top
            .compare_exchange(t, t + 1, SeqCst, SeqCst)
            .is_ok()
            .then_some(task)
    }
}

/// Per-job shared state, pinned on the submitting thread's stack for the
/// duration of [`Pool::run_range`].
struct JobCore<'scope> {
    /// The user's range closure (borrowed — the job cannot outlive it).
    func: &'scope (dyn Fn(Range<usize>) + Sync),
    /// Split tasks at or below this length execute directly.
    grain: usize,
    /// Outstanding tasks. Guarded by `lock` so the submitter's "done"
    /// observation is ordered after the last worker's final access to this
    /// struct (no use-after-free on the stack pin).
    pending: Mutex<usize>,
    /// Signalled (under `lock`) when `pending` reaches zero.
    done: Condvar,
    /// Set once any task of this job panics; remaining tasks short-circuit.
    poisoned: AtomicBool,
    /// First panic payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JobCore<'_> {
    /// Accounts `n` newly created tasks.
    fn add_pending(&self, n: usize) {
        *self.pending.lock().expect("job lock") += n;
    }

    /// Accounts one finished task; wakes the submitter on the last one.
    fn finish_one(&self) {
        let mut p = self.pending.lock().expect("job lock");
        *p -= 1;
        if *p == 0 {
            self.done.notify_all();
        }
    }
}

// SAFETY: every field is either `Sync` itself (atomics, mutexes, condvar) or
// an immutable shared borrow of a `Sync` closure.
unsafe impl Sync for JobCore<'_> {}

/// State shared by every worker of one pool.
struct Shared {
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<Task>>,
    /// Count of parked workers; pushes skip the wake lock when it is zero.
    sleepers: AtomicUsize,
    wake_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Queues `task` on `deque_ix`'s deque (injector on overflow or for
    /// threads without a deque) and wakes a sleeper if any worker is parked.
    fn submit(&self, deque_ix: Option<usize>, task: Task) {
        let overflow = match deque_ix {
            Some(ix) => self.deques[ix].push(task).err(),
            None => Some(task),
        };
        if let Some(task) = overflow {
            self.injector.lock().expect("injector").push_back(task);
        }
        if self.sleepers.load(SeqCst) > 0 {
            let _g = self.wake_lock.lock().expect("wake lock");
            self.wake.notify_all();
        }
    }

    /// One attempt to find work: own deque (LIFO) when the caller is a
    /// worker, then the injector (FIFO), then a steal sweep over every
    /// other worker's deque (FIFO per victim).
    fn find_task(&self, own: Option<usize>) -> Option<Task> {
        if let Some(ix) = own {
            if let Some(task) = self.deques[ix].pop() {
                return Some(task);
            }
        }
        if let Some(task) = self.injector.lock().expect("injector").pop_front() {
            return Some(task);
        }
        // Start each sweep at a victim derived from the caller's identity so
        // concurrent thieves fan out instead of convoying on worker 0.
        let n = self.deques.len();
        let start = own.map_or(0, |ix| ix + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(task) = self.deques[victim].steal() {
                return Some(task);
            }
        }
        None
    }
}

/// Executes `task`: splits it down to `grain`, re-queuing far halves, then
/// runs the job closure on the final range (skipped when the job is already
/// poisoned). Catches panics and routes them to the job.
fn execute(shared: &Shared, own: Option<usize>, task: Task) {
    // SAFETY: tasks never outlive their job (the submitter blocks until
    // `pending == 0`, and `pending` counts this task until `finish_one`).
    let job = unsafe { &*task.job };
    let (lo, mut hi) = (task.lo, task.hi);
    while hi - lo > job.grain && !job.poisoned.load(SeqCst) {
        let mid = lo + (hi - lo) / 2;
        job.add_pending(1);
        shared.submit(
            own,
            Task {
                job: task.job,
                lo: mid,
                hi,
            },
        );
        hi = mid;
    }
    if !job.poisoned.load(SeqCst) {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.func)(lo..hi)));
        if let Err(payload) = run {
            job.poisoned.store(true, SeqCst);
            let mut slot = job.panic.lock().expect("panic slot");
            slot.get_or_insert(payload);
        }
    }
    job.finish_one();
}

/// Thread-local identity of a pool worker (its pool and deque index), also
/// the channel through which [`with_workers`] overrides the current pool.
struct ThreadPool {
    pool: Arc<PoolInner>,
    /// Deque index when this thread is a spawned worker of `pool`.
    deque: Option<usize>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<ThreadPool>> = const { std::cell::RefCell::new(None) };
}

struct PoolInner {
    shared: Arc<Shared>,
    workers: usize,
}

impl PoolInner {
    /// Runs one job to completion from the submitting thread, participating
    /// in execution while waiting.
    fn run_range(&self, len: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        if self.workers <= 1 || len <= grain {
            f(0..len);
            return;
        }
        let job = JobCore {
            func: f,
            grain,
            pending: Mutex::new(1),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        // Erase the scope lifetime for storage in `Task` (a plain pointer).
        // SAFETY: this function does not return until `pending == 0`, i.e.
        // until no task referencing `job` exists anywhere in the pool.
        let job_ptr: *const JobCore<'static> = std::ptr::from_ref(&job).cast();
        let own = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .filter(|tp| Arc::ptr_eq(&tp.pool.shared, &self.shared))
                .and_then(|tp| tp.deque)
        });
        self.shared.submit(
            own,
            Task {
                job: job_ptr,
                lo: 0,
                hi: len,
            },
        );
        // Participate until the job quiesces. Finding no task does NOT mean
        // the job is done (workers may still be executing), so fall back to
        // a bounded condvar wait on the job's pending count.
        loop {
            if let Some(task) = self.shared.find_task(own) {
                execute(&self.shared, own, task);
                continue;
            }
            let mut pending = job.pending.lock().expect("job lock");
            if *pending == 0 {
                break;
            }
            let (p, _) = job
                .done
                .wait_timeout(pending, std::time::Duration::from_micros(200))
                .expect("job lock");
            pending = p;
            if *pending == 0 {
                break;
            }
            drop(pending);
        }
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A work-stealing pool of `workers` executors: `workers - 1` spawned
/// threads plus the thread submitting each job. See the module docs for the
/// design; most code reaches the pool implicitly through [`run_range`] /
/// [`with_workers`] rather than owning one.
///
/// Dropping the `Pool` handle shuts its workers down (they notice the flag
/// within one park timeout and exit). Shutdown cannot live on `PoolInner`'s
/// `Drop`: each worker keeps an `Arc<PoolInner>` alive for its lifetime, so
/// that destructor would never run and every dropped pool would leak its
/// threads. A job already in flight still completes after the handle drops —
/// deques and the injector live in `Shared`, and the submitting thread
/// participates until its job quiesces, draining any task the exiting
/// workers left behind.
pub struct Pool {
    inner: Arc<PoolInner>,
}

impl Drop for Pool {
    fn drop(&mut self) {
        let shared = &self.inner.shared;
        shared.shutdown.store(true, SeqCst);
        let _g = shared.wake_lock.lock().expect("wake lock");
        shared.wake.notify_all();
    }
}

impl Pool {
    /// Creates a pool with `workers` total executors (clamped to ≥ 1).
    /// `workers == 1` spawns no threads — every job runs inline on the
    /// submitter.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            deques: (0..workers.saturating_sub(1))
                .map(|_| Deque::new())
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            sleepers: AtomicUsize::new(0),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let inner = Arc::new(PoolInner {
            shared: Arc::clone(&shared),
            workers,
        });
        for ix in 0..workers.saturating_sub(1) {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("volut-worker-{ix}"))
                .spawn(move || worker_main(inner, ix))
                .expect("spawn pool worker");
        }
        Pool { inner }
    }

    /// Total executor count of this pool (spawned workers + submitter).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Runs `f` over disjoint sub-ranges covering `0..len`, splitting
    /// recursively down to at most `grain` elements per call. Blocks until
    /// every sub-range has executed; re-raises the first task panic.
    ///
    /// `f` must tolerate any partition of `0..len` into sub-ranges and any
    /// execution order/interleaving — in this codebase every caller writes
    /// disjoint output slots whose values depend only on the slot, which is
    /// the determinism contract the engine's bit-identity tests pin.
    pub fn run_range<F>(&self, len: usize, grain: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.inner.run_range(len, grain, &f);
    }

    /// Runs `f` over disjoint sub-slices of `order`, splitting recursively
    /// down to at most `grain` elements per call — [`Pool::run_range`] over
    /// an explicit item permutation instead of `0..len`.
    ///
    /// This is the fairness/priority dispatch primitive for schedulers: the
    /// splitter keeps the *near* half and pushes the far half, so earlier
    /// positions in `order` are biased toward executing first (and, under
    /// work-stealing, toward being stolen last). A caller that sorts
    /// `order` longest-job-first therefore gets an LPT-style schedule —
    /// heavy items start early, light items backfill — without any
    /// per-item queue or priority heap. The bias is best-effort, never a
    /// guarantee: `f` must still tolerate any partition and any execution
    /// order, exactly as with `run_range`.
    pub fn run_order<F>(&self, order: &[u32], grain: usize, f: F)
    where
        F: Fn(&[u32]) + Sync,
    {
        self.inner
            .run_range(order.len(), grain, &|r: Range<usize>| {
                f(&order[r]);
            });
    }

    /// Installs this pool as the current pool of the calling thread for the
    /// duration of `f` (restoring the previous pool afterwards), then runs
    /// `f`. Parallel helpers called inside `f` route to this pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(ThreadPool {
                pool: Arc::clone(&self.inner),
                deque: None,
            })
        });
        let guard = RestoreCurrent(prev);
        let out = f();
        drop(guard);
        out
    }
}

/// Restores the previous thread-local pool even if `f` panics.
struct RestoreCurrent(Option<ThreadPool>);

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Main loop of a spawned worker: execute own splits LIFO, drain the
/// injector, steal FIFO; park when the pool is idle.
fn worker_main(inner: Arc<PoolInner>, ix: usize) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(ThreadPool {
            pool: Arc::clone(&inner),
            deque: Some(ix),
        });
    });
    let shared = &inner.shared;
    loop {
        if shared.shutdown.load(SeqCst) {
            return;
        }
        if let Some(task) = shared.find_task(Some(ix)) {
            execute(shared, Some(ix), task);
            continue;
        }
        // Park. The sleeper count is raised before the final re-check so a
        // concurrent `submit` either sees it (and notifies) or enqueued
        // before the re-check (and is found); the timeout backstops the
        // remaining benign race at a bounded latency. The re-check is
        // destructive (pop/steal/injector-pop all *remove* the task), so a
        // found task must be executed here — discarding it would strand the
        // job's pending count above zero and hang the submitter.
        shared.sleepers.fetch_add(1, SeqCst);
        let g = shared.wake_lock.lock().expect("wake lock");
        match shared.find_task(Some(ix)) {
            Some(task) => {
                drop(g);
                shared.sleepers.fetch_sub(1, SeqCst);
                execute(shared, Some(ix), task);
            }
            None if !shared.shutdown.load(SeqCst) => {
                let _ = shared
                    .wake
                    .wait_timeout(g, std::time::Duration::from_millis(5))
                    .expect("wake lock");
                shared.sleepers.fetch_sub(1, SeqCst);
            }
            None => {
                drop(g);
                shared.sleepers.fetch_sub(1, SeqCst);
            }
        }
    }
}

/// Resolves the worker count for the global pool alongside which source
/// decided it, so [`describe`] never attributes the count to `VOLUT_WORKERS`
/// when the variable was set but unparseable (or 0) and the machine
/// detection actually won.
fn resolve_workers() -> (usize, &'static str) {
    if let Ok(v) = std::env::var("VOLUT_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return (n, "VOLUT_WORKERS");
            }
        }
    }
    match std::thread::available_parallelism() {
        Ok(n) => (n.get(), "available_parallelism"),
        Err(_) => (1, "fallback"),
    }
}

/// Resolves the worker count for the global pool: `VOLUT_WORKERS` when set
/// to anything ≥ 1, else the machine's [`std::thread::available_parallelism`],
/// else 1 (never a hard-coded guess — the old helpers defaulted to 4 when
/// detection failed, oversubscribing small hosts).
pub fn resolved_workers() -> usize {
    resolve_workers().0
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The lazily-initialized global pool (sized by [`resolved_workers`] at
/// first use).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(resolved_workers()))
}

/// Executor count of the current pool: the [`with_workers`] scope's pool if
/// one is installed on this thread (or the thread is a pool worker), else
/// the global pool's.
pub fn current_workers() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|tp| tp.pool.workers))
        .unwrap_or_else(|| global().workers())
}

/// Runs `f` over `0..len` on the current pool (see [`Pool::run_range`]).
pub fn run_range<F>(len: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let installed = CURRENT.with(|c| c.borrow().as_ref().map(|tp| Arc::clone(&tp.pool)));
    match installed {
        Some(pool) => pool.run_range(len, grain, &f),
        None => global().run_range(len, grain, f),
    }
}

/// Runs `f` over the items of `order` on the current pool (see
/// [`Pool::run_order`] for the priority-bias contract).
pub fn run_order<F>(order: &[u32], grain: usize, f: F)
where
    F: Fn(&[u32]) + Sync,
{
    let installed = CURRENT.with(|c| c.borrow().as_ref().map(|tp| Arc::clone(&tp.pool)));
    match installed {
        Some(pool) => pool.run_range(order.len(), grain, &|r: Range<usize>| f(&order[r])),
        None => global().run_range(order.len(), grain, |r| f(&order[r])),
    }
}

/// How many workers a workload of `items` elements is cut for:
/// `min(current_workers(), items / min_items_per_worker + 1)`, at least 1.
///
/// The count scales with the workload because a full pool for a few
/// thousand points costs more than it saves, and it is capped by the current
/// pool ([`current_workers`], which honors `VOLUT_WORKERS` and scoped
/// [`with_workers`] overrides). The `+ 1` means a worker's share can fall
/// below `min_items_per_worker`: 3000 items at 1000 per worker are cut for
/// four workers, 750 items each. The minimum is where cutting *starts*, not
/// a floor on the share.
pub fn workers_for(items: usize, min_items_per_worker: usize) -> usize {
    current_workers()
        .min(items / min_items_per_worker.max(1) + 1)
        .max(1)
}

/// Runs `f(chunk_index, start, chunk)` over contiguous mutable chunks of
/// `data`, `chunk_len` elements each (the last may be shorter), on the
/// current pool; `start` is the chunk's element offset inside `data`.
///
/// This is the engine's one way to write in parallel: each task gets a
/// disjoint `&mut` sub-slice, so callers hold no raw pointers — a caller with
/// several outputs per task pre-splits them into one element per task and
/// passes chunks of 1. At most pool-size chunks run at once however many
/// the job has; one chunk, or a one-worker pool, runs inline on the caller.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = data.len();
    let chunks = len.div_ceil(chunk_len);
    if chunks <= 1 || current_workers() <= 1 {
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c, c * chunk_len, chunk);
        }
        return;
    }
    // `AtomicPtr` is `Send + Sync`, so the range closure can carry the base
    // pointer to whichever worker runs a chunk.
    let base = AtomicPtr::new(data.as_mut_ptr());
    run_range(chunks, 1, |r| {
        for c in r {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: `run_range` hands out each chunk index exactly once,
            // chunks span disjoint elements of `data`, and `data` stays
            // mutably borrowed until the blocking `run_range` returns, so no
            // two live slices alias; `T: Send` lets a chunk cross threads.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.load(SeqCst).add(start), end - start)
            };
            f(c, start, chunk);
        }
    });
}

/// Runs `f` with the current thread routed to a pool of exactly `workers`
/// executors — the scoped override used by tests, benches and the CI
/// worker-count matrix. Pools are cached per worker count, so repeated
/// scopes reuse threads instead of respawning them.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    static SCOPED: OnceLock<Mutex<std::collections::HashMap<usize, Arc<Pool>>>> = OnceLock::new();
    let workers = workers.max(1);
    let pool = {
        let cache = SCOPED.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
        let mut cache = cache.lock().expect("scoped pool cache");
        Arc::clone(
            cache
                .entry(workers)
                .or_insert_with(|| Arc::new(Pool::new(workers))),
        )
    };
    pool.install(f)
}

/// One-line description of the resolved runtime configuration, logged once
/// by the bench setup path so every recorded number names its worker count.
pub fn describe() -> String {
    let (workers, source) = resolve_workers();
    format!(
        "runtime: {workers} worker(s) (resolved from {source}), global pool {}",
        if GLOBAL.get().is_some() {
            "initialized"
        } else {
            "not yet initialized"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_range_covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..10_000).map(|_| AtomicU32::new(0)).collect();
        pool.run_range(hits.len(), 64, |r| {
            for i in r {
                hits[i].fetch_add(1, SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    }

    #[test]
    fn empty_and_tiny_jobs() {
        let pool = Pool::new(4);
        pool.run_range(0, 16, |_| panic!("empty jobs never run the closure"));
        let ran = AtomicU32::new(0);
        pool.run_range(1, 16, |r| {
            assert_eq!(r, 0..1);
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 1);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let hits = AtomicU32::new(0);
        pool.run_range(100, 10, |r| {
            assert_eq!(std::thread::current().id(), tid);
            hits.fetch_add(r.len() as u32, SeqCst);
        });
        assert_eq!(hits.load(SeqCst), 100);
    }

    #[test]
    fn panic_in_task_propagates_to_submitter() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_range(1000, 1, |r| {
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
        pool.run_range(256, 8, |r| {
            hits.fetch_add(r.len() as u32, SeqCst);
        });
        assert_eq!(hits.load(SeqCst), 256);
    }

    #[test]
    fn nested_spawns_complete() {
        let pool = Pool::new(4);
        let total = AtomicU32::new(0);
        pool.install(|| {
            run_range(8, 1, |outer| {
                for _ in outer {
                    // Nested job from inside a task (or the submitter).
                    run_range(100, 10, |inner| {
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

    #[test]
    fn concurrent_executors_never_exceed_pool_size() {
        // The oversubscription regression: a 1000-chunk job on a small pool
        // must never run more than `workers` chunks at once (the scoped
        // helpers this runtime replaced spawned one thread per chunk).
        //
        // Private pool, NOT `with_workers`: the scoped cache is shared
        // process-wide, and under the multithreaded test harness another
        // test waiting on its own job participates via `find_task` and can
        // execute this job's tasks too — a legal `workers + 1`st executor
        // that would trip the `peak <= workers` bound being pinned here.
        let workers = 4;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let pool = Pool::new(workers);
        pool.install(|| {
            run_range(1000, 1, |r| {
                let now = live.fetch_add(1, SeqCst) + 1;
                peak.fetch_max(now, SeqCst);
                // Make overlap likely so the bound is actually exercised.
                for i in r {
                    std::hint::black_box(i);
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
                live.fetch_sub(1, SeqCst);
            });
        });
        assert!(
            peak.load(SeqCst) <= workers as isize,
            "peak {} > pool size {workers}",
            peak.load(SeqCst)
        );
        assert!(peak.load(SeqCst) >= 1);
    }

    #[test]
    fn deque_lifo_fifo_discipline() {
        let d = Deque::new();
        let mk = |lo| Task {
            job: std::ptr::null(),
            lo,
            hi: lo + 1,
        };
        assert!(d.push(mk(1)).is_ok());
        assert!(d.push(mk(2)).is_ok());
        assert!(d.push(mk(3)).is_ok());
        // Thief takes the oldest, owner the newest.
        assert_eq!(d.steal().unwrap().lo, 1);
        assert_eq!(d.pop().unwrap().lo, 3);
        assert_eq!(d.pop().unwrap().lo, 2);
        assert!(d.pop().is_none());
        assert!(d.steal().is_none());
    }

    #[test]
    fn deque_overflow_is_reported() {
        let d = Deque::new();
        let mk = |lo| Task {
            job: std::ptr::null(),
            lo,
            hi: lo + 1,
        };
        for i in 0..DEQUE_CAP - 1 {
            assert!(d.push(mk(i)).is_ok());
        }
        assert!(d.push(mk(9999)).is_err());
    }

    #[test]
    fn stress_many_small_jobs() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            let n = 1 + (round * 37) % 500;
            pool.run_range(n, 3, |r| {
                sum.fetch_add(r.sum::<usize>(), SeqCst);
            });
            assert_eq!(sum.load(SeqCst), n * (n - 1) / 2, "round {round}");
        }
    }

    #[test]
    fn resolved_workers_is_at_least_one() {
        assert!(resolved_workers() >= 1);
    }

    #[test]
    fn run_order_visits_every_item_exactly_once() {
        let pool = Pool::new(4);
        // A permutation with gaps and duplicates-free reordering: reversed
        // even indices followed by odd ones.
        let order: Vec<u32> = (0..5_000u32)
            .rev()
            .filter(|i| i % 2 == 0)
            .chain((0..5_000).filter(|i| i % 2 == 1))
            .collect();
        let hits: Vec<AtomicU32> = (0..5_000).map(|_| AtomicU32::new(0)).collect();
        pool.run_order(&order, 64, |items| {
            for &i in items {
                hits[i as usize].fetch_add(1, SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    }

    #[test]
    fn run_order_chunks_are_contiguous_order_slices() {
        // Every callback slice must be a contiguous window of `order` —
        // that's what makes the near-half bias a priority bias over the
        // caller's sort.
        let pool = Pool::new(4);
        let order: Vec<u32> = (0..1_000u32).map(|i| i.wrapping_mul(7) % 1_000).collect();
        let ok = std::sync::atomic::AtomicBool::new(true);
        pool.run_order(&order, 32, |items| {
            assert!(!items.is_empty() && items.len() <= 32);
            // Locate the slice inside `order` by pointer arithmetic.
            let base = order.as_ptr() as usize;
            let off = items.as_ptr() as usize - base;
            if !off.is_multiple_of(std::mem::size_of::<u32>()) {
                ok.store(false, SeqCst);
            }
        });
        assert!(ok.load(SeqCst));
    }

    #[test]
    fn run_order_free_fn_empty_and_single() {
        super::run_order(&[], 16, |_| panic!("empty order never runs"));
        let ran = AtomicU32::new(0);
        super::run_order(&[7], 16, |items| {
            assert_eq!(items, &[7]);
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 1);
    }

    #[test]
    fn run_order_front_bias_on_single_worker() {
        // With one executor the near-half-first split is fully
        // deterministic: items must execute exactly in `order` order.
        let pool = Pool::new(1);
        let order: Vec<u32> = [9, 3, 7, 1, 8, 0, 2, 6, 4, 5].into();
        let seen = Mutex::new(Vec::new());
        pool.run_order(&order, 2, |items| {
            seen.lock().unwrap().extend_from_slice(items);
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

    /// A 1000-chunk job must never run more than pool-size chunks at once,
    /// however many chunks it is cut into.
    #[test]
    fn thousand_chunk_job_never_exceeds_pool_size() {
        // Private pool, not the shared `with_workers` cache: a concurrent
        // test waiting on that cached pool participates via work stealing
        // and would be a legal extra executor, breaking the bound under test.
        let workers = 4;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let mut data = vec![0u8; 1000];
        let pool = Pool::new(workers);
        pool.install(|| {
            for_each_chunk_mut(&mut data, 1, |_, _, chunk| {
                let now = live.fetch_add(1, SeqCst) + 1;
                peak.fetch_max(now, SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(20));
                chunk[0] = 1;
                live.fetch_sub(1, SeqCst);
            });
        });
        assert!(data.iter().all(|&b| b == 1), "every chunk ran");
        assert!(
            peak.load(SeqCst) <= workers as isize,
            "peak concurrency {} exceeded pool size {workers}",
            peak.load(SeqCst)
        );
    }
}
