//! # concord-pool
//!
//! Host threads for the whole workspace: two contracts and nothing else.
//!
//! [`map`] is the **launch fan-out**: the simulators' chunks and warps, the
//! native executor's chunks and the two halves of a pair/hybrid wave all
//! go through it. It runs on lazily-spawned, process-wide workers that
//! stay parked between calls and accept *borrowed* closures, so a launch
//! creates no thread: a dispatch is a queue push and a condvar wake-up,
//! not a spawn and a join. Results land in a `Vec` by index, so callers
//! stay byte-identical for any host thread count and any schedule. Five
//! rules make that safe and keep it cheap:
//!
//! 1. **The caller claims indices itself** and only then waits, so a `map`
//!    nested in another `map`'s index (gpusim's warps inside a pair wave's
//!    GPU half, a serve worker's launch while another session's holds the
//!    helpers) finishes with no free worker, and sessions share helpers.
//! 2. **Nobody spins**: workers and callers park on a condvar at once
//!    (what a spin costs here: EXPERIMENTS.md, "Launch fan-out").
//! 3. **A helper takes a ticket before helping**, and a call issues
//!    `min(threads, n) - 1`, so it never runs on more than `threads` OS
//!    threads however large an earlier caller grew the pool.
//! 4. **Every index runs under `catch_unwind`** and counts as done either
//!    way; the first payload is re-raised on the caller, the worker lives.
//! 5. **The borrowed closure is dereferenced only for a claimed index
//!    `< n`, and the caller returns only when all `n` are done** — the
//!    soundness argument of the `unsafe` code below.
//!
//! [`TaskPool`] is the other contract and stays separate on purpose: a
//! bounded queue of `'static` jobs, a lossless drain, a lifetime tied to
//! one `Server`. Its workers are *callers* of [`map`] under rule 1.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Run `f(0..n)` on the calling thread plus at most `threads - 1` parked
/// pool workers and return the results in index order.
///
/// Indices are claimed one at a time, so skewed per-index cost (divergent
/// warps) balances itself; results are placed by index, so any schedule
/// yields the same `Vec`. With `threads <= 1` or `n <= 1`, `f` runs inline.
///
/// # Panics
///
/// Re-raises the first panic of `f` on the caller, after every index ran.
pub fn map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let helpers = threads.min(n).saturating_sub(1);
    if helpers == 0 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    fan_out(helpers, n, &|idx| *lock(&slots[idx]) = Some(f(idx)));
    slots.iter().map(|slot| lock(slot).take().expect("fan_out ran every index")).collect()
}

/// Lock a mutex whose every critical section is one push, pop, store or
/// increment: poisoned data is still valid, and `fan_out` must not unwind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight [`map`]: all a helper touches once the last index is done.
struct FanOut {
    /// The caller's closure, lifetime erased (see `fan_out`).
    run: *const (dyn Fn(usize) + Sync),
    n: usize,
    /// Next unclaimed index; results and the done-count go through mutexes.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when `progress.done` reaches `n`; the caller parks here.
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `run` points at a `Sync` closure, so calling it from several
// threads is what its type allows, and `fan_out` argues it is alive whenever
// dereferenced. Every other field is `Send + Sync` on its own.
unsafe impl Send for FanOut {}
// SAFETY: as above.
unsafe impl Sync for FanOut {}

impl FanOut {
    /// Claim and run indices until none is left (rules 4 and 5).
    fn work(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.n {
                return;
            }
            // SAFETY: rule 5. `idx < n` is claimed and not yet counted done,
            // so `done < n` until the increment below and `fan_out`, which
            // borrows the closure, has not returned. The pointer reached
            // this thread through the `WORKERS` mutex or is the caller's own.
            let run = unsafe { &*self.run };
            let outcome = catch_unwind(AssertUnwindSafe(|| run(idx)));
            let mut progress = lock(&self.progress);
            if let Err(payload) = outcome {
                progress.panic.get_or_insert(payload);
            }
            progress.done += 1;
            if progress.done == self.n {
                self.finished.notify_one();
            }
        }
    }
}

/// The process-wide fan-out workers: in-flight fan-outs, oldest first,
/// each with the helper tickets it has left, and how many workers exist.
struct Workers {
    queue: VecDeque<(Arc<FanOut>, usize)>,
    spawned: usize,
}

static WORKERS: Mutex<Workers> = Mutex::new(Workers { queue: VecDeque::new(), spawned: 0 });
/// Where idle workers park; signalled once per ticket issued.
static WORK: Condvar = Condvar::new();

/// Run `run(0..n)` on this thread and up to `helpers` pool workers;
/// returns once every index is done, re-raising the first panic.
fn fan_out(helpers: usize, n: usize, run: &(dyn Fn(usize) + Sync)) {
    // SAFETY: rule 5; only the lifetime is erased. `FanOut::work` dereferences
    // the pointer for a claimed index `< n` only, this function returns only
    // after all `n` are counted done, and nothing from here to that wait can
    // unwind (`lock` ignores poison, `work` catches the closure's panics, a
    // failed spawn is an `Err`): the closure outlives every dereference. What
    // a helper touches afterwards (counters, condvar) lives in the `Arc`.
    let run: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
    };
    let (next, progress, finished) = (AtomicUsize::new(0), Mutex::default(), Condvar::new());
    let job = Arc::new(FanOut { run, n, next, progress, finished });
    let mut state = lock(&WORKERS);
    state.queue.push_back((Arc::clone(&job), helpers));
    // Grow to the largest `threads - 1` asked for so far. Workers are
    // detached: they park for the life of the process, so there is no point
    // to join them at. A failed spawn only means fewer helpers.
    while state.spawned < helpers {
        let name = format!("concord-fanout-{}", state.spawned);
        if std::thread::Builder::new().name(name).spawn(helper_loop).is_err() {
            break;
        }
        state.spawned += 1;
    }
    drop(state);
    (0..helpers).for_each(|_| WORK.notify_one());
    job.work();
    // Every index is claimed: take back the tickets nobody used.
    lock(&WORKERS).queue.retain(|(queued, _)| !Arc::ptr_eq(queued, &job));
    let unfinished = |progress: &mut Progress| progress.done < n;
    let waited = job.finished.wait_while(lock(&job.progress), unfinished);
    let mut progress = waited.unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = progress.panic.take() {
        resume_unwind(payload);
    }
}

/// A fan-out worker: take a ticket of the oldest queued fan-out, help it
/// until its indices run out, park when the queue is empty (rules 2, 3).
fn helper_loop() {
    let mut state = lock(&WORKERS);
    loop {
        let Some((job, tickets)) = state.queue.front_mut() else {
            state = WORK.wait(state).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let job = Arc::clone(job);
        *tickets -= 1;
        if *tickets == 0 {
            state.queue.pop_front();
        }
        drop(state);
        job.work();
        state = lock(&WORKERS);
    }
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

/// A worker pool with a **bounded** admission queue — the serving-side
/// counterpart to [`map`].
///
/// Unlike a fan-out, jobs are `'static` closures nobody waits for, and
/// workers live until [`TaskPool::close_and_drain`]. The queue bound is the
/// backpressure mechanism: [`TaskPool::try_submit`] never blocks, returning
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
    fn empty_and_single_inputs() {
        assert!(map(8, 0, |i| i).is_empty());
        assert_eq!(map(8, 1, |i| i + 1), vec![1]);
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
        // With 3 helpers woken over 64 yielding items at least 2 distinct
        // threads must have participated: every yield hands the core to a
        // woken helper, which then claims indices of its own.
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
