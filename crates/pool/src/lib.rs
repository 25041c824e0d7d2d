//! # concord-pool
//!
//! A zero-dependency scoped host-thread fan-out for the simulators.
//!
//! Both device simulators chunk their iteration spaces deterministically
//! (CPU chunks ↔ simulated cores, GPU warps ↔ SIMD groups) and then walk
//! the chunks serially. This crate fans those already-independent chunks
//! out across OS threads via [`std::thread::scope`], while keeping the
//! *observable* result order fixed: results land in a `Vec` indexed by chunk
//! id, so callers can merge them in chunk order and stay byte-identical
//! for any host thread count.
//!
//! The pool is not a persistent worker pool: scoped threads let workers
//! borrow the launch's state without `Arc`, and every `map` pays a thread
//! spawn and join. That cost is noise only for coarse launches (whole
//! kernel chunks under an interpreter). It is not for small ones: the
//! repo benchmark measures `pool.map_dispatch_us` at 89 µs against
//! `runtime.worklist_round_us` 99.5 µs, so a small frontier round is
//! mostly the spawn — see ROADMAP item 2.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Name of the environment variable controlling host parallelism.
pub const HOST_THREADS_ENV: &str = "CONCORD_HOST_THREADS";

/// Number of host threads to use, from `CONCORD_HOST_THREADS` if set (and
/// parseable, clamped to ≥ 1), else the machine's available parallelism.
pub fn host_threads() -> usize {
    if let Ok(v) = std::env::var(HOST_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f(0..n)` across at most `threads` OS threads and return the
/// results in index order.
///
/// Work is dealt round-robin: worker `t` runs indices `t, t+threads, …`.
/// The mapping from index to thread is fixed, but determinism does not
/// rely on it — results are placed by index, so any schedule yields the
/// same `Vec`. With `threads <= 1` or `n <= 1` the closure runs inline on
/// the caller's thread.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for chunk in round_robin_views(&mut slots, workers) {
            let f = &f;
            handles.push(scope.spawn(move || {
                for (slot, idx) in chunk {
                    *slot = Some(f(idx));
                }
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
    });
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    slots.into_iter().map(|s| s.expect("worker filled every slot")).collect()
}

/// Split `slots` into `workers` disjoint views, worker `t` owning the
/// mutable slots at indices `t, t+workers, …` (paired with their index).
fn round_robin_views<R>(
    slots: &mut [Option<R>],
    workers: usize,
) -> Vec<Vec<(&mut Option<R>, usize)>> {
    let mut views: Vec<Vec<(&mut Option<R>, usize)>> = (0..workers).map(|_| Vec::new()).collect();
    for (idx, slot) in slots.iter_mut().enumerate() {
        views[idx % workers].push((slot, idx));
    }
    views
}

/// Like [`map`], but workers pull the next unclaimed index from a shared
/// counter instead of a fixed deal — better when per-index cost is skewed
/// (e.g. divergent warps). Results are still placed by index, so the
/// output is identical to [`map`]'s for the same `f`.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn map_dynamic<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::with_capacity(n));
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (f, next, results) = (&f, &next, &results);
            handles.push(scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let r = f(idx);
                results.lock().unwrap().push((idx, r));
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
    });
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    let mut pairs = results.into_inner().unwrap();
    pairs.sort_by_key(|(idx, _)| *idx);
    assert_eq!(pairs.len(), n, "every index produced exactly one result");
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Why [`TaskPool::try_submit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure; retry later or
    /// surface an explicit "overloaded" to the caller.
    Full,
    /// The pool is draining or drained; no new work is admitted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => f.write_str("task queue is full"),
            SubmitError::Closed => f.write_str("task pool is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or the pool closes.
    work: Condvar,
    capacity: usize,
}

/// A persistent worker pool with a **bounded** admission queue — the
/// serving-side counterpart to the scoped [`map`]/[`map_dynamic`] helpers.
///
/// Unlike the scoped helpers, jobs are `'static` closures and workers live
/// until [`TaskPool::close_and_drain`]. The queue bound is the backpressure
/// mechanism: [`TaskPool::try_submit`] never blocks, returning
/// [`SubmitError::Full`] when the queue is at capacity so callers can
/// reply "overloaded" instead of hanging. Closing stops admission but
/// *drains* everything already queued before the workers exit, which is
/// what makes graceful shutdown lossless.
pub struct TaskPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TaskPool {
    /// Spawn `workers` worker threads sharing one bounded queue of
    /// `capacity` jobs. Both are clamped to ≥ 1.
    pub fn new(workers: usize, capacity: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), closed: false }),
            work: Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("concord-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// Admit a job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] once the pool is draining.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError::Full);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in the queue (not counting running ones).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Stop admitting new jobs, let the workers finish everything already
    /// queued, and join them. Every admitted job is guaranteed to run.
    pub fn close_and_drain(mut self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // Mirrors close_and_drain for pools dropped without an explicit
        // close (e.g. on a panic path) — queued jobs still run.
        self.shared.state.lock().unwrap().closed = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = map(threads, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_dynamic_matches_map() {
        for threads in [1, 2, 5, 8] {
            let a = map(threads, 33, |i| i as u64 * 3 + 1);
            let b = map_dynamic(threads, 33, |i| i as u64 * 3 + 1);
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(map(8, 0, |i| i).is_empty());
        assert_eq!(map(8, 1, |i| i + 1), vec![1]);
        assert!(map_dynamic(8, 0, |i| i).is_empty());
        assert_eq!(map_dynamic(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            map(4, 16, |i| {
                if i == 9 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn threads_are_actually_used() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        map(4, 64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
        });
        // With 4 workers over 64 items at least 2 distinct threads must
        // have participated (scheduling can merge but not to 1: the deal
        // is fixed round-robin, every worker owns 16 items).
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn host_threads_is_at_least_one() {
        assert!(host_threads() >= 1);
    }

    #[test]
    fn task_pool_runs_every_admitted_job() {
        use std::sync::atomic::AtomicU64;
        let ran = Arc::new(AtomicU64::new(0));
        let pool = TaskPool::new(4, 64);
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.close_and_drain();
        assert_eq!(ran.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn task_pool_full_queue_rejects_without_blocking() {
        // One worker parked on a gate; capacity 2. Deterministically: the
        // gate job occupies the worker, two jobs fill the queue, the next
        // submission must bounce with Full.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let pool = TaskPool::new(1, 2);
        pool.try_submit(move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        entered_rx.recv().unwrap(); // worker is now inside the gate job
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        assert_eq!(pool.queued(), 2);
        assert_eq!(pool.try_submit(|| {}).unwrap_err(), SubmitError::Full);
        gate_tx.send(()).unwrap();
        pool.close_and_drain();
    }

    #[test]
    fn task_pool_close_drains_queued_jobs() {
        use std::sync::atomic::AtomicU64;
        let ran = Arc::new(AtomicU64::new(0));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let pool = TaskPool::new(1, 16);
        pool.try_submit(move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        entered_rx.recv().unwrap();
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Jobs queued behind the gate must still run during the drain.
        gate_tx.send(()).unwrap();
        pool.close_and_drain();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn task_pool_rejects_after_close() {
        let pool = TaskPool::new(1, 4);
        let shared = Arc::clone(&pool.shared);
        pool.close_and_drain();
        // Re-create a handle view over the closed state to probe admission.
        let mut state = shared.state.lock().unwrap();
        assert!(state.closed);
        assert!(state.queue.pop_front().is_none());
    }
}
