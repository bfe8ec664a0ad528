//! Hierarchical span tracing with wall and CPU timing.
//!
//! A span is opened with [`SpanGuard::enter`] (usually via the
//! [`crate::span!`] macro) and closed when the guard drops. Parentage is
//! tracked through a thread-local stack, so spans opened on the same
//! thread nest naturally; spans opened on pool worker threads become
//! roots of their own subtrees (the pool publishes aggregate metrics
//! instead of per-task spans — see `dco_parallel::pool_stats`).
//!
//! Completed spans are pushed into a global, mutex-protected record list.
//! Instrumentation sites pay one relaxed atomic load when tracing is
//! disabled; the lock is only taken at span *exit* when enabled, and spans
//! are stage/iteration-grained, so contention is negligible.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static ENTERS: AtomicU64 = AtomicU64::new(0);
static EXITS: AtomicU64 = AtomicU64::new(0);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Open span ids on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for this thread (0 = first thread to trace).
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Monotonic origin all span start times are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether span tracing and metrics collection are on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn observability on or off process-wide.
///
/// Enabling pins the trace epoch, so span start offsets are measured from
/// (at latest) the first `set_enabled(true)` call.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, never reused).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Dotted span name, e.g. `"flow.route"` or `"route.rrr"`.
    pub name: &'static str,
    /// Key/value attributes captured at entry (e.g. `iter = 3`).
    pub attrs: Vec<(String, String)>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Monotonic wall-clock duration, nanoseconds.
    pub wall_ns: u64,
    /// CPU time consumed by the opening thread, nanoseconds (0 when the
    /// platform offers no cheap per-thread clock; see [`thread_cpu_ns`]).
    pub cpu_ns: u64,
    /// Dense id of the thread the span ran on.
    pub thread: u64,
}

/// Per-thread CPU time in nanoseconds.
///
/// On Linux this reads `/proc/thread-self/schedstat`, whose first field is
/// the thread's cumulative on-CPU time in nanoseconds; elsewhere it
/// returns 0 (spans then carry wall time only). Reading procfs is a plain
/// `std::fs` read, keeping the crate std-only.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(text) = std::fs::read_to_string("/proc/thread-self/schedstat") {
            if let Some(first) = text.split_whitespace().next() {
                if let Ok(ns) = first.parse::<u64>() {
                    return ns;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// State carried by a live (enabled) span guard.
#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    attrs: Vec<(String, String)>,
    start: Instant,
    start_ns: u64,
    cpu0: u64,
}

/// RAII guard for one span: created by [`SpanGuard::enter`], records the
/// span into the global collector when dropped. Inert (zero work on drop)
/// when tracing was disabled at entry.
#[derive(Debug)]
#[must_use = "a span guard must be bound (`let _g = span!(..)`) or it closes immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Open a span. Costs one branch and returns an inert guard when
    /// tracing is disabled.
    pub fn enter(name: &'static str, attrs: Vec<(String, String)>) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let parent = st.last().copied();
            st.push(id);
            parent
        });
        ENTERS.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let start_ns = u64::try_from(start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        SpanGuard(Some(ActiveSpan {
            id,
            parent,
            name,
            attrs,
            start,
            start_ns,
            cpu0: thread_cpu_ns(),
        }))
    }

    /// An inert guard (used by the [`crate::span!`] macro's disabled arm so
    /// both arms have the same type).
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let wall_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu_ns = thread_cpu_ns().saturating_sub(a.cpu0);
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if st.last() == Some(&a.id) {
                st.pop();
            } else {
                // Out-of-order drop (e.g. guards bound in an unusual order
                // inside one scope): remove just this id.
                st.retain(|&x| x != a.id);
            }
        });
        EXITS.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            attrs: a.attrs,
            start_ns: a.start_ns,
            wall_ns,
            cpu_ns,
            thread: thread_id(),
        };
        RECORDS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// Open a span tied to the enclosing scope.
///
/// `span!("name")` opens an attribute-free span; `span!("name", k = v, ..)`
/// captures attributes (formatted with `Display`, and only when tracing is
/// enabled — disabled call sites never run the formatting).
///
/// ```
/// dco_obs::set_enabled(true);
/// {
///     let _g = dco_obs::span!("dco.iter", iter = 7usize);
/// }
/// assert!(dco_obs::span::snapshot().iter().any(|s| s.name == "dco.iter"));
/// dco_obs::set_enabled(false);
/// dco_obs::reset();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span::SpanGuard::enter(
                $name,
                ::std::vec![$((
                    ::std::string::String::from(::std::stringify!($key)),
                    ::std::format!("{}", $value),
                )),+],
            )
        } else {
            $crate::span::SpanGuard::disabled()
        }
    };
}

/// (enters, exits) since the last [`reset`]. Balanced traces have equal
/// counts once every guard has dropped.
pub fn balance() -> (u64, u64) {
    (
        ENTERS.load(Ordering::Relaxed),
        EXITS.load(Ordering::Relaxed),
    )
}

/// Clone the completed span records collected so far.
pub fn snapshot() -> Vec<SpanRecord> {
    RECORDS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Drop all collected records and zero the enter/exit counters.
pub fn reset() {
    RECORDS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    ENTERS.store(0, Ordering::Relaxed);
    EXITS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_tracing(f: impl FnOnce()) {
        let _lock = crate::test_lock();
        reset();
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let _lock = crate::test_lock();
        reset();
        set_enabled(false);
        {
            let _g = crate::span!("never", x = 1);
            let _h = crate::span!("never.either");
        }
        assert_eq!(balance(), (0, 0));
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nesting_links_parent_ids() {
        with_tracing(|| {
            {
                let _outer = crate::span!("outer");
                {
                    let _inner = crate::span!("inner", iter = 3);
                }
            }
            let spans = snapshot();
            assert_eq!(spans.len(), 2);
            // inner exits first, so it is recorded first
            let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
            let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(outer.parent, None);
            assert_eq!(inner.attrs, vec![("iter".to_string(), "3".to_string())]);
            assert!(outer.wall_ns >= inner.wall_ns);
            assert_eq!(balance(), (2, 2));
        });
    }

    #[test]
    fn spans_on_other_threads_root_independently() {
        with_tracing(|| {
            let _main = crate::span!("main.scope");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = crate::span!("worker.scope");
                });
            });
            let spans = snapshot();
            let w = spans
                .iter()
                .find(|s| s.name == "worker.scope")
                .expect("worker span");
            // The worker thread has its own (empty) stack: no parent.
            assert_eq!(w.parent, None);
        });
    }

    #[test]
    fn guards_survive_unwinding() {
        with_tracing(|| {
            let r = std::panic::catch_unwind(|| {
                let _g = crate::span!("panics.inside");
                panic!("boom");
            });
            assert!(r.is_err());
            let (enters, exits) = balance();
            assert_eq!(enters, exits, "drop during unwind must close the span");
            assert!(snapshot().iter().any(|s| s.name == "panics.inside"));
        });
    }
}
