//! Offline std-only stand-in for `rayon`.
//!
//! The build environment has no registry access, so this shim provides the
//! subset of data-parallel machinery the workspace needs on top of
//! `std::thread::scope`: a **scoped work-stealing pool** plus ordered
//! (deterministic) fan-out primitives.
//!
//! # Scheduling model
//!
//! Every parallel call creates one scoped pool: `n` workers, each seeded
//! with a contiguous block of the task list in its own deque. A worker
//! drains its own deque front-to-back (preserving cache locality over the
//! task order) and, when empty, **steals from the back** of the other
//! workers' deques round-robin. The calling thread doubles as worker 0, so
//! `threads == 1` never spawns. Workers run under a thread-local
//! "inside pool" flag; nested parallel calls from inside a task execute
//! inline, which bounds the total thread count at `threads` regardless of
//! how deep parallel code composes.
//!
//! # Determinism contract
//!
//! Scheduling decides only *which worker* runs a task, never *what the
//! task computes* — tasks receive their index and an owned/disjoint piece
//! of input, and results are returned **in task order** (not completion
//! order). As long as the caller keeps task boundaries independent of the
//! thread count (fixed chunk sizes, per-item tasks), any reduction folded
//! over the returned `Vec` in order is bitwise identical at every thread
//! count, including the inline `threads == 1` path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[cfg(feature = "schedule-harness")]
pub mod schedule;

#[cfg(feature = "schedule-harness")]
use schedule::Hooks;

/// Release-build scheduling hooks: fixed round-robin victim order, no
/// injected yields. Zero-sized and fully inlined — the worker loop
/// compiles to exactly what it was before the hooks existed. The
/// `schedule-harness` feature swaps in [`schedule::Hooks`], which derives
/// both decisions from a seeded per-worker stream.
#[cfg(not(feature = "schedule-harness"))]
struct Hooks;

#[cfg(not(feature = "schedule-harness"))]
impl Hooks {
    #[inline(always)]
    fn new(_w: usize) -> Self {
        Hooks
    }

    #[inline(always)]
    fn yield_point(&mut self, _site: u32) {}

    #[inline(always)]
    fn victim(&mut self, w: usize, off: usize, n: usize) -> usize {
        (w + off) % n
    }
}

// ---- pool telemetry -------------------------------------------------------
//
// Passive counters for observability: when enabled, workers accumulate
// tasks/steals locally and flush once at exit, so the hot loop sees no
// extra synchronization beyond what scheduling already does. When disabled
// (the default) every parallel call pays a single relaxed load. Stats
// never influence scheduling or task boundaries, so enabling them cannot
// perturb results.

/// Number of per-worker busy-time slots tracked; workers past this fold
/// into the last slot (far above any sane thread count for this shim).
pub const MAX_TRACKED_WORKERS: usize = 64;

static STATS_ENABLED: AtomicBool = AtomicBool::new(false);
static POOL_CALLS: AtomicU64 = AtomicU64::new(0);
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
static POOL_STEALS: AtomicU64 = AtomicU64::new(0);
static POOL_MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);
static BUSY_NS: [AtomicU64; MAX_TRACKED_WORKERS] =
    [const { AtomicU64::new(0) }; MAX_TRACKED_WORKERS];

/// Turn pool telemetry collection on or off process-wide.
pub fn set_stats_enabled(on: bool) {
    STATS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether pool telemetry is currently being collected.
#[inline]
pub fn stats_enabled() -> bool {
    STATS_ENABLED.load(Ordering::Relaxed)
}

/// Snapshot of pool activity since the last [`reset_pool_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Top-level parallel invocations (inline fast paths included; nested
    /// inline calls are part of an outer task and are not re-counted).
    pub calls: u64,
    /// Tasks executed across all workers.
    pub tasks: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Per-worker busy time in nanoseconds, indexed by worker id; length
    /// equals the highest worker count seen (capped at
    /// [`MAX_TRACKED_WORKERS`]).
    pub busy_ns: Vec<u64>,
}

/// Read the accumulated pool telemetry.
pub fn pool_stats() -> PoolStats {
    let workers = POOL_MAX_WORKERS
        .load(Ordering::Relaxed)
        .min(MAX_TRACKED_WORKERS);
    PoolStats {
        calls: POOL_CALLS.load(Ordering::Relaxed),
        tasks: POOL_TASKS.load(Ordering::Relaxed),
        steals: POOL_STEALS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS[..workers]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Zero all pool telemetry counters.
pub fn reset_pool_stats() {
    POOL_CALLS.store(0, Ordering::Relaxed);
    POOL_TASKS.store(0, Ordering::Relaxed);
    POOL_STEALS.store(0, Ordering::Relaxed);
    POOL_MAX_WORKERS.store(0, Ordering::Relaxed);
    for b in &BUSY_NS {
        b.store(0, Ordering::Relaxed);
    }
}

/// Flush one worker's locally-accumulated counters into the globals.
fn flush_worker_stats(w: usize, tasks: u64, steals: u64, busy_ns: u64) {
    POOL_TASKS.fetch_add(tasks, Ordering::Relaxed);
    POOL_STEALS.fetch_add(steals, Ordering::Relaxed);
    BUSY_NS[w.min(MAX_TRACKED_WORKERS - 1)].fetch_add(busy_ns, Ordering::Relaxed);
}

fn note_pool_call(workers: usize) {
    POOL_CALLS.fetch_add(1, Ordering::Relaxed);
    POOL_MAX_WORKERS.fetch_max(workers, Ordering::Relaxed);
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Lock a mutex, recovering the data from a poisoned lock.
///
/// A pool mutex only guards a deque/slot push or pop — never a multi-step
/// invariant — so the contents stay valid even if a worker panicked while
/// holding the lock; the panic itself still propagates via the scope join.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already executing inside a pool worker.
///
/// Nested parallel calls short-circuit to inline execution when this is
/// set, so callers never need to guard against oversubscription.
pub fn in_parallel_region() -> bool {
    IN_POOL.with(Cell::get)
}

/// Restores the thread-local pool flag on drop (panic-safe).
struct PoolGuard(bool);

impl PoolGuard {
    fn enter() -> Self {
        let prev = IN_POOL.with(|f| f.replace(true));
        PoolGuard(prev)
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.0;
        IN_POOL.with(|f| f.set(prev));
    }
}

/// Run `f` over every task on up to `threads` workers, returning results
/// **in task order**.
///
/// This is the core primitive: tasks are moved into per-worker deques
/// (contiguous blocks), idle workers steal from the back of busy ones, and
/// each result lands in the slot of its task index. Runs inline — same
/// code path, no spawning — when `threads <= 1`, when there are fewer than
/// two tasks, or when already inside a pool worker.
///
/// # Example
///
/// ```
/// let squares = rayon::par_indexed(4, (0u64..100).collect(), |i, v| {
///     assert_eq!(i as u64, v);
///     v * v
/// });
/// assert_eq!(squares[7], 49);
/// ```
pub fn par_indexed<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 || tasks.len() <= 1 || in_parallel_region() {
        // Nested inline calls run inside an outer task whose stats are
        // already being accumulated by its worker; only top-level inline
        // calls are recorded.
        let record = stats_enabled() && !in_parallel_region();
        // Telemetry only: the timestamp feeds pool stats, never results.
        // lint: allow(nondet-order)
        let t0 = record.then(|| (tasks.len() as u64, Instant::now()));
        let out = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
        if let Some((n_tasks, t0)) = t0 {
            note_pool_call(1);
            flush_worker_stats(0, n_tasks, 0, elapsed_ns(t0));
        }
        return out;
    }
    let n_tasks = tasks.len();
    let n = threads.min(n_tasks);
    let record = stats_enabled();
    if record {
        note_pool_call(n);
    }

    // Per-worker deques seeded with contiguous blocks of the task list.
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(n);
    let mut it = tasks.into_iter().enumerate();
    for w in 0..n {
        // Block [w*n_tasks/n, (w+1)*n_tasks/n) — same split at any n.
        let end = (w + 1) * n_tasks / n;
        let start = w * n_tasks / n;
        let block: VecDeque<(usize, T)> = it.by_ref().take(end - start).collect();
        queues.push(Mutex::new(block));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();

    let worker = |w: usize| {
        let _guard = PoolGuard::enter();
        // Telemetry only: the timestamp feeds pool stats, never results.
        // lint: allow(nondet-order)
        let t0 = record.then(Instant::now);
        let mut hooks = Hooks::new(w);
        let mut local_tasks = 0u64;
        let mut local_steals = 0u64;
        loop {
            // Own work first (front — task order), then steal (back).
            hooks.yield_point(0);
            let mut job = lock_recover(&queues[w]).pop_front();
            if job.is_none() {
                for off in 1..n {
                    let v = hooks.victim(w, off, n);
                    hooks.yield_point(1);
                    job = lock_recover(&queues[v]).pop_back();
                    if job.is_some() {
                        local_steals += 1;
                        break;
                    }
                }
            }
            let Some((idx, task)) = job else { break };
            local_tasks += 1;
            let out = f(idx, task);
            hooks.yield_point(2);
            let prev = lock_recover(&slots[idx]).replace(out);
            assert!(prev.is_none(), "task {idx} ran twice");
        }
        if let Some(t0) = t0 {
            flush_worker_stats(w, local_tasks, local_steals, elapsed_ns(t0));
        }
    };

    std::thread::scope(|s| {
        for w in 1..n {
            s.spawn(move || worker(w));
        }
        worker(0);
    });

    slots
        .into_iter()
        .map(|slot| {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(r) => r,
                // Unreachable: the scope above joins every worker, and
                // workers only exit once all deques are empty — so each
                // task index was executed and filled its slot.
                None => unreachable!("worker exited with tasks pending"),
            }
        })
        .collect()
}

/// Parallel indexed map over a slice; results in item order.
///
/// One task per item — use [`par_chunks`] when per-item work is too small
/// to amortize a queue operation.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_indexed(threads, items.iter().collect(), f)
}

/// Parallel map over fixed-size chunks of a slice; results in chunk order.
///
/// `f` receives `(chunk_index, chunk)`; the element offset of a chunk is
/// `chunk_index * chunk_size`. Keep `chunk_size` independent of the thread
/// count and any reduction over the returned parts is deterministic.
pub fn par_chunks<T, R, F>(threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    par_indexed(threads, items.chunks(chunk_size).collect(), f)
}

/// Parallel map over disjoint mutable chunks; results in chunk order.
///
/// The chunks partition `items`, so workers write concurrently without
/// synchronization and without aliasing.
pub fn par_chunks_mut<T, R, F>(threads: usize, items: &mut [T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    par_indexed(threads, items.chunks_mut(chunk_size).collect(), |i, c| {
        f(i, c)
    })
}

/// Fold `parts` into `init` **in iteration order**.
///
/// The deliberate counterpart to the parallel primitives above: partials
/// are produced in parallel, but the combining step is sequential and
/// ordered, so floating-point reductions associate identically at every
/// thread count.
pub fn reduce_ordered<R, A, F>(parts: impl IntoIterator<Item = R>, init: A, f: F) -> A
where
    F: FnMut(A, R) -> A,
{
    parts.into_iter().fold(init, f)
}

/// Run two closures, potentially in parallel, returning both results.
///
/// `b` runs on a scoped helper thread while `a` runs on the caller; inside
/// a pool worker both run inline.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if in_parallel_region() {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        match hb.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Pool stats are process-global and the test harness runs tests on
    /// parallel threads, so every test that enters the pool holds this
    /// lock: `pool_stats_count_tasks_and_workers` then counts only its own
    /// calls.
    fn pool_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn results_come_back_in_task_order() {
        let _pool = pool_lock();
        for threads in [1, 2, 4, 8] {
            let out = par_indexed(threads, (0..257u32).collect(), |i, v| {
                assert_eq!(i as u32, v);
                v * 2
            });
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 2 * i as u32);
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once_under_stealing() {
        let _pool = pool_lock();
        let counter = AtomicUsize::new(0);
        // Skewed task costs force stealing: worker 0's block is heavy.
        let out = par_indexed(4, (0..64usize).collect(), |_, v| {
            if v < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            counter.fetch_add(1, Ordering::Relaxed);
            v
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_partitions_without_aliasing() {
        let _pool = pool_lock();
        let mut data = vec![0u32; 1000];
        let sums = par_chunks_mut(4, &mut data, 33, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 33 + j) as u32;
            }
            chunk.iter().sum::<u32>()
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
        assert_eq!(
            sums.iter().sum::<u32>(),
            (0..1000u32).sum::<u32>(),
            "chunk partials cover every element exactly once"
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        let _pool = pool_lock();
        let out = par_indexed(4, (0..8usize).collect(), |_, v| {
            assert!(in_parallel_region());
            // The nested call must not spawn (it would deadlock nothing,
            // but it must still produce ordered results inline).
            let inner = par_indexed(4, (0..4usize).collect(), |i, w| i + w);
            inner.iter().sum::<usize>() + v
        });
        assert!(!in_parallel_region());
        // inner = sum of (i + w) over the 4 nested tasks, plus v = 0.
        assert_eq!(out[0], 2 + 4 + 6);
    }

    #[test]
    fn reduce_ordered_matches_sequential_fold() {
        let _pool = pool_lock();
        let parts = par_chunks(8, &(0..1003u64).collect::<Vec<_>>(), 17, |_, c| {
            c.iter().sum::<u64>()
        });
        let total = reduce_ordered(parts, 0u64, |a, b| a + b);
        assert_eq!(total, (0..1003).sum::<u64>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn pool_stats_count_tasks_and_workers() {
        let _pool = pool_lock();
        // Stats are process-global; run disabled+enabled checks in one
        // test so no other test observes the toggled flag.
        reset_pool_stats();
        set_stats_enabled(false);
        let _ = par_indexed(4, (0..32usize).collect(), |_, v| v);
        assert_eq!(
            pool_stats(),
            PoolStats::default(),
            "disabled collects nothing"
        );

        set_stats_enabled(true);
        let out = par_indexed(4, (0..32usize).collect(), |_, v| {
            if v < 8 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            v
        });
        let _ = par_indexed(1, (0..5usize).collect(), |_, v| v); // inline path
        set_stats_enabled(false);
        let stats = pool_stats();
        reset_pool_stats();
        assert_eq!(out.len(), 32);
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.tasks, 32 + 5);
        assert_eq!(stats.busy_ns.len(), 4);
        assert!(stats.busy_ns.iter().any(|&b| b > 0));
    }

    #[test]
    fn panics_propagate() {
        let _pool = pool_lock();
        let r = std::panic::catch_unwind(|| {
            par_indexed(2, (0..8usize).collect(), |_, v| {
                assert!(v != 5, "boom");
                v
            })
        });
        assert!(r.is_err());
        // the pool flag must be restored even after a panic
        assert!(!in_parallel_region());
    }
}
