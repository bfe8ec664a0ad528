//! Typed metrics registry: counters, gauges, histograms, series.
//!
//! Metric names are dotted paths (`route.overflow_total`,
//! `unet.train.loss`); the registry stores them in a `BTreeMap` so every
//! snapshot and every serialized artifact lists metrics in the same
//! (lexicographic) order regardless of publication order.
//!
//! Determinism rules baked into the types:
//!
//! - **Counters** are monotone `u64` accumulators — only [`Registry::counter_add`].
//! - **Gauges** carry a global sequence number so "last write wins" is
//!   well-defined even when per-worker [`Shard`]s are merged in arbitrary
//!   order (highest sequence wins; merging is commutative).
//! - **Histograms** use *fixed, caller-supplied bucket bounds*
//!   ([`DEFAULT_BOUNDS`] unless overridden), so bucket layout never depends
//!   on the data. Merging adds bucket counts element-wise — commutative.
//! - **Series** are append-only `f64` vectors owned by a single producer
//!   (the sequential flow thread); shards intentionally do not carry them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::span;

/// Default histogram bucket upper bounds (seconds-scale latencies and
/// unitless losses both fit this log-ish ladder). The implicit final
/// bucket is `+inf`.
pub const DEFAULT_BOUNDS: [f64; 10] = [0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0];

/// Global sequence for gauge writes: makes shard merges order-independent.
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Fixed-bound histogram. `counts.len() == bounds.len() + 1`: bucket `i`
/// counts observations `<= bounds[i]`, the last bucket is the overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sorted upper bounds, fixed at creation.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (one longer than `bounds`).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// New empty histogram over the given bounds (must be sorted ascending).
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation. NaN and +inf land in the overflow bucket.
    pub fn observe(&mut self, value: f64) {
        let idx = if value.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|b| *b < value)
        };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Add another histogram's buckets into this one (commutative when
    /// bounds agree; mismatched bounds fall back to re-observing nothing
    /// and only folding count/sum, which keeps totals consistent).
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds.len() == other.bounds.len() {
            for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
                *c += *o;
            }
        } else {
            // Shouldn't happen for same-named metrics; preserve the count
            // invariant by dumping everything into the overflow bucket.
            if let Some(last) = self.counts.last_mut() {
                *last += other.count;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone accumulator.
    Counter(u64),
    /// Point-in-time value; `seq` orders writes across shards.
    Gauge {
        /// Most recent value.
        value: f64,
        /// Global write sequence (higher = later).
        seq: u64,
    },
    /// Fixed-bucket histogram.
    Histogram(Histogram),
    /// Append-only value series (single producer).
    Series(Vec<f64>),
}

/// Thread-safe metrics registry keyed by dotted name.
#[derive(Debug)]
pub struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry (const: usable in statics).
    pub const fn new() -> Registry {
        Registry {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut map = self.lock();
        match map.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            Some(_) => {}
            None => {
                map.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set the named gauge, stamping it with the next global sequence.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock();
        match map.get_mut(name) {
            Some(Metric::Gauge { value: v, seq: s }) => {
                if seq > *s {
                    *v = value;
                    *s = seq;
                }
            }
            Some(_) => {}
            None => {
                map.insert(name.to_string(), Metric::Gauge { value, seq });
            }
        }
    }

    /// Observe `value` into the named histogram with [`DEFAULT_BOUNDS`].
    pub fn histogram_observe(&self, name: &str, value: f64) {
        self.histogram_observe_with(name, value, &DEFAULT_BOUNDS);
    }

    /// Observe `value` into the named histogram, creating it with `bounds`
    /// if absent (an existing histogram keeps its original bounds).
    pub fn histogram_observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        let mut map = self.lock();
        match map.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            Some(_) => {}
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(value);
                map.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Append `value` to the named series.
    pub fn series_push(&self, name: &str, value: f64) {
        let mut map = self.lock();
        match map.get_mut(name) {
            Some(Metric::Series(v)) => v.push(value),
            Some(_) => {}
            None => {
                map.insert(name.to_string(), Metric::Series(vec![value]));
            }
        }
    }

    /// Merge a per-worker shard into this registry. Commutative: merging
    /// shards in any order yields the same registry state.
    pub fn merge_shard(&self, shard: &Shard) {
        let mut map = self.lock();
        for (name, metric) in &shard.map {
            match (map.get_mut(name.as_str()), metric) {
                (Some(Metric::Counter(v)), Metric::Counter(d)) => *v += *d,
                (Some(Metric::Gauge { value, seq }), Metric::Gauge { value: ov, seq: os }) => {
                    if *os > *seq {
                        *value = *ov;
                        *seq = *os;
                    }
                }
                (Some(Metric::Histogram(h)), Metric::Histogram(oh)) => h.merge(oh),
                (Some(_), _) => {}
                (None, m) => {
                    map.insert(name.clone(), m.clone());
                }
            }
        }
    }

    /// Snapshot all metrics in name order.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Drop every metric.
    pub fn reset(&self) {
        self.lock().clear();
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// The process-wide registry all gated helper functions publish into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Thread-local (unsynchronized) metric shard for pool workers: workers
/// accumulate locally with zero contention and the pool merges shards into
/// the global registry once at region exit. Carries counters, gauges, and
/// histograms — not series, which are single-producer by contract.
#[derive(Debug, Default, Clone)]
pub struct Shard {
    map: BTreeMap<String, Metric>,
}

impl Shard {
    /// New empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Add `delta` to the shard-local counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.map.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            Some(_) => {}
            None => {
                self.map.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set the shard-local gauge (stamped from the same global sequence as
    /// direct registry writes, so cross-shard merge order is irrelevant).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
        self.map
            .insert(name.to_string(), Metric::Gauge { value, seq });
    }

    /// Observe into the shard-local histogram ([`DEFAULT_BOUNDS`]).
    pub fn histogram_observe(&mut self, name: &str, value: f64) {
        self.histogram_observe_with(name, value, &DEFAULT_BOUNDS);
    }

    /// Observe into the shard-local histogram with explicit bounds.
    pub fn histogram_observe_with(&mut self, name: &str, value: f64, bounds: &[f64]) {
        match self.map.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            Some(_) => {}
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(value);
                self.map.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// True when the shard holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Add to a counter in the global registry — no-op unless observability is
/// enabled (one branch when disabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if span::enabled() {
        global().counter_add(name, delta);
    }
}

/// Set a gauge in the global registry — no-op unless enabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if span::enabled() {
        global().gauge_set(name, value);
    }
}

/// Observe into a default-bounds histogram in the global registry — no-op
/// unless enabled.
#[inline]
pub fn histogram_observe(name: &str, value: f64) {
    if span::enabled() {
        global().histogram_observe(name, value);
    }
}

/// Append to a series in the global registry — no-op unless enabled.
#[inline]
pub fn series_push(name: &str, value: f64) {
    if span::enabled() {
        global().series_push(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        let snap = r.snapshot();
        assert_eq!(snap, vec![("a".to_string(), Metric::Counter(5))]);
    }

    #[test]
    fn gauge_latest_seq_wins() {
        let r = Registry::new();
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.0);
        match &r.snapshot()[0].1 {
            Metric::Gauge { value, .. } => assert!((value - 2.0).abs() < 1e-12),
            m => panic!("unexpected metric {m:?}"),
        }
    }

    #[test]
    fn histogram_buckets_partition() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket 0 (<= 1.0)
        h.observe(1.0); // bucket 0 (le semantics)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // overflow
        h.observe(f64::NAN); // overflow
        assert_eq!(h.counts, vec![2, 1, 2]);
        assert_eq!(h.count, 5);
        let bucket_sum: u64 = h.counts.iter().sum();
        assert_eq!(bucket_sum, h.count);
    }

    #[test]
    fn shard_merge_is_order_independent() {
        let mut a = Shard::new();
        a.counter_add("pool.tasks", 4);
        a.histogram_observe_with("lat", 0.3, &[1.0]);
        let mut b = Shard::new();
        b.counter_add("pool.tasks", 6);
        b.histogram_observe_with("lat", 2.0, &[1.0]);
        b.gauge_set("last", 9.0); // later seq than anything in `a`

        let ab = Registry::new();
        ab.merge_shard(&a);
        ab.merge_shard(&b);
        let ba = Registry::new();
        ba.merge_shard(&b);
        ba.merge_shard(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        match ab
            .snapshot()
            .iter()
            .find(|(k, _)| k == "pool.tasks")
            .map(|(_, m)| m.clone())
        {
            Some(Metric::Counter(v)) => assert_eq!(v, 10),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn gated_helpers_are_inert_when_disabled() {
        // The lock keeps the trace tests from enabling tracing between the
        // check and the add; the metric name is used nowhere else.
        let _lock = crate::test_lock();
        if !span::enabled() {
            counter_add("tests.inert", 1);
            let present = global().snapshot().iter().any(|(k, _)| k == "tests.inert");
            assert!(!present);
        }
    }

    #[test]
    fn series_appends_in_order() {
        let r = Registry::new();
        r.series_push("loss", 3.0);
        r.series_push("loss", 2.0);
        r.series_push("loss", 1.5);
        match &r.snapshot()[0].1 {
            Metric::Series(v) => assert_eq!(v.len(), 3),
            m => panic!("unexpected metric {m:?}"),
        }
    }
}
