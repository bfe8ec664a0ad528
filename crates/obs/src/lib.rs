//! Observability for the DCO-3D flow: span tracing, metrics, profiling.
//!
//! This crate is the std-only telemetry substrate every other crate in the
//! workspace publishes into. It has three parts:
//!
//! - [`mod@span`] — a hierarchical span tracer. Stages and hot loops open RAII
//!   guards via the [`span!`] macro (`span!("route.rrr", iter = i)`); each
//!   guard records monotonic wall time plus per-thread CPU time and links
//!   to its parent through a thread-local stack, so the collected records
//!   reassemble into a tree that mirrors the flow's stage graph.
//! - [`metrics`] — a typed metrics registry: monotone counters, gauges,
//!   histograms with **fixed bucket bounds** (so bucket layout is
//!   deterministic across runs and machines), and append-only series.
//!   Per-worker [`metrics::Shard`]s merge into the global registry
//!   order-independently.
//! - [`report`] — the `OBS_dco3d.json` artifact: span tree, per-name
//!   aggregates, metric snapshot, and a peak-RSS estimate, plus a parser,
//!   a schema validator, and a human-readable table renderer for
//!   `--obs-report`.
//!
//! # Zero-perturbation contract
//!
//! Observability may **never change results**. Everything in this crate is
//! passive: instrumentation reads clocks and already-computed values, and
//! publishes them; it never touches RNG state, task boundaries, or
//! iteration order. With observability disabled (the default) every
//! instrumentation site costs exactly one relaxed atomic load and branch;
//! with it enabled, outputs remain bitwise identical to an uninstrumented
//! run — only wall-clock changes.
//!
//! # Example
//!
//! ```
//! dco_obs::set_enabled(true);
//! {
//!     let _flow = dco_obs::span!("flow.route");
//!     for iter in 0..3usize {
//!         let _wave = dco_obs::span!("route.rrr", iter = iter);
//!         dco_obs::counter_add("route.rrr_iterations", 1);
//!     }
//!     dco_obs::gauge_set("route.overflow_total", 12.5);
//! }
//! let artifact = dco_obs::report::collect();
//! assert!(dco_obs::report::validate(&artifact).is_ok());
//! dco_obs::set_enabled(false);
//! dco_obs::reset();
//! ```

pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{
    counter_add, gauge_set, histogram_observe, series_push, Histogram, Metric, Registry, Shard,
    DEFAULT_BOUNDS,
};
pub use span::{enabled, set_enabled, SpanGuard, SpanRecord};

/// Clear all collected spans and metrics (the enabled flag is left as-is).
///
/// Used by tests and by the CLI when starting a fresh instrumented run.
pub fn reset() {
    span::reset();
    metrics::global().reset();
}

/// The crate's one test lock. The trace state (`set_enabled`, `reset`, the
/// span log and the global registry) is process-wide and unit tests of
/// different modules run in parallel, so every test that touches it holds
/// this guard for its whole body.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
