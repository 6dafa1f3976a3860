//! Data-parallel helpers: thin adapters over [`crate::runtime`], and the one
//! place the disjoint-slot `unsafe` of chunked writes lives.
//!
//! Each helper submits recursively-splittable range tasks to the
//! work-stealing pool: the number of concurrent executors is bounded by the
//! pool size regardless of chunk count, and idle workers steal from busy
//! ones. Every caller writes disjoint slots whose values depend only on the
//! slot index, so results are bit-identical at every worker count. The worker
//! count is resolved by the runtime: a [`crate::runtime::with_workers`]
//! scope if one is active on this thread, else the global pool sized from
//! `VOLUT_WORKERS` / [`std::thread::available_parallelism`].
//!
//! With the `parallel` feature disabled (it is on by default) every helper
//! degrades to its sequential equivalent, which keeps the engine
//! single-threaded for deterministic profiling and for targets where
//! spawning threads is undesirable.

/// Raw-pointer wrapper that lets range tasks write disjoint slots of one
/// buffer from multiple workers. Safety rests on the callers: every index is
/// written by exactly one task.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps a base pointer whose disjoint-slot discipline the caller
    /// guarantees.
    #[inline]
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    /// Accessor (rather than direct field use) so closures capture the
    /// `Send + Sync` wrapper, not the raw pointer field (2021 edition
    /// closures capture disjoint fields).
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Upper bound on concurrent workers for a workload of `items` elements.
///
/// Running a full pool for a few thousand points costs more than it saves,
/// so the count scales with the workload and is capped by the current
/// pool's executor count ([`crate::runtime::current_workers`], which honors
/// `VOLUT_WORKERS` and scoped [`crate::runtime::with_workers`] overrides —
/// never a hard-coded guess).
pub fn worker_count(items: usize, min_items_per_worker: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        crate::runtime::current_workers()
            .min(items / min_items_per_worker.max(1) + 1)
            .max(1)
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = (items, min_items_per_worker);
        1
    }
}

/// Runs `f(chunk_index, start, chunk)` over contiguous mutable chunks of
/// `data`, in parallel when the `parallel` feature is enabled. `start` is
/// the element offset of the chunk inside `data`. At most pool-size chunks
/// execute concurrently, however many chunks the job has.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    #[cfg(feature = "parallel")]
    {
        let chunks = data.len().div_ceil(chunk_len);
        if chunks > 1 && crate::runtime::current_workers() > 1 {
            let len = data.len();
            let base = SendPtr(data.as_mut_ptr());
            crate::runtime::run_range(chunks, 1, |r| {
                for c in r.clone() {
                    let start = c * chunk_len;
                    let end = (start + chunk_len).min(len);
                    // SAFETY: chunk index ranges from the runtime are
                    // disjoint and each chunk spans distinct elements, so no
                    // two tasks alias; `data` outlives the blocking
                    // `run_range` call.
                    let chunk = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(start), end - start)
                    };
                    f(c, start, chunk);
                }
            });
            return;
        }
    }
    for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
        f(c, c * chunk_len, chunk);
    }
}

/// Fills `out[i] = f(i)` for every element, split across the pool with
/// roughly `min_items_per_worker` elements per task.
pub fn fill_with<T, F>(out: &mut [T], min_items_per_worker: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    #[cfg(not(feature = "parallel"))]
    let _ = min_items_per_worker;
    #[cfg(feature = "parallel")]
    {
        if out.len() > min_items_per_worker.max(1) && crate::runtime::current_workers() > 1 {
            let base = SendPtr(out.as_mut_ptr());
            crate::runtime::run_range(out.len(), min_items_per_worker.max(1), |r| {
                for i in r {
                    // SAFETY: element ranges from the runtime are disjoint
                    // and `out` outlives the blocking `run_range` call.
                    unsafe { *base.get().add(i) = f(i) };
                }
            });
            return;
        }
    }
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = f(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_scales_with_items() {
        assert_eq!(worker_count(0, 1000), 1);
        assert!(worker_count(1_000_000, 1000) >= 1);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn worker_count_is_capped_by_scoped_pool() {
        crate::runtime::with_workers(2, || {
            assert_eq!(worker_count(1_000_000, 1000), 2);
        });
        crate::runtime::with_workers(8, || {
            assert_eq!(worker_count(1_000_000, 1000), 8);
            // Still scales down with the workload.
            assert_eq!(worker_count(3000, 1000), 4);
        });
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element() {
        let mut data = vec![0usize; 1003];
        for_each_chunk_mut(&mut data, 100, |_, start, chunk| {
            for (offset, v) in chunk.iter_mut().enumerate() {
                *v = start + offset;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn fill_with_computes_every_slot() {
        let mut data = vec![0u64; 4097];
        fill_with(&mut data, 256, |i| (i as u64) * 3);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    /// The oversubscription regression: the old scoped-thread helpers
    /// spawned one OS thread per chunk, so a 1000-chunk job ran 1000
    /// threads. Routed through the pool, peak concurrency must never exceed
    /// the pool size no matter how many chunks the job is cut into.
    #[cfg(feature = "parallel")]
    #[test]
    fn thousand_chunk_job_never_exceeds_pool_size() {
        use std::sync::atomic::{AtomicIsize, Ordering::SeqCst};
        // Private pool, not the shared `with_workers` cache: a concurrent
        // test waiting on that cached pool participates via work stealing
        // and would be a legal extra executor, breaking the bound under test.
        let workers = 4;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let mut data = vec![0u8; 1000];
        let pool = crate::runtime::Pool::new(workers);
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
