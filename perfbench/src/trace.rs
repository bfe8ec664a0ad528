//! The traced run: the benchmark's own spans around each public call, the
//! program's existing `dco_obs` spans, and the per-layer metric table.
//!
//! Spans stay in memory until the run ends. Nothing here adds a span or a
//! counter inside the program; `dco_obs` is only switched on and read.

use std::collections::BTreeMap;
use std::time::Instant;

use dco_obs::SpanRecord;

use crate::stats::median;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_ms", "ms"),
    ("flow.dataset_ms", "ms"),
    ("unet.train_ms", "ms"),
    ("unet.train_epoch_ms", "ms"),
    ("place.global_ms", "ms"),
    ("place.tier_assign_ms", "ms"),
    ("dco.stage_ms", "ms"),
    ("dco.iter_ms", "ms"),
    ("dco.iters", "count"),
    ("route.stage_ms", "ms"),
    ("route.pattern_ms", "ms"),
    ("route.rrr_ms", "ms"),
    ("route.maze_ms", "ms"),
    ("route.rrr_iterations", "count"),
    ("route.overflow_cut", "fraction"),
    ("timing.cts_ms", "ms"),
    ("timing.sta_ms", "ms"),
    ("timing.eco_cells", "count"),
    ("serve.exec_ms", "ms"),
    ("serve.exec_predict_ms", "ms"),
    ("serve.exec_delta_ms", "ms"),
    ("serve.exec_spread_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.batch_forward_ms", "ms"),
    ("features.extract_ms", "ms"),
    ("tensor.arena_hit_ratio", "fraction"),
    ("incremental.route_ms", "ms"),
    ("incremental.sta_ms", "ms"),
    ("incremental.unet_ms", "ms"),
    ("incremental.nets_ripped_frac", "fraction"),
    ("incremental.fallback_frac", "fraction"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.stage_coverage", "fraction"),
];

/// One span recorded by the benchmark around a public call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `route.stage`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to (0 = set-up).
    pub job: u64,
    /// The program's own `dco_obs` spans recorded during a
    /// [`Tracer::time`] call (empty for spans opened with [`Tracer::enter`]).
    pub obs: Vec<SpanRecord>,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for the benchmark's own calls. When off, every method is
/// a plain call-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    open: Vec<usize>,
    /// Every closed span, in close order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off (the program's `dco_obs` tracing follows).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        dco_obs::set_enabled(on);
    }

    /// Attribute later spans to `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            job: self.job,
            obs: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`. When recording, the span keeps
    /// the `dco_obs` spans the program recorded during `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let _ = take_obs();
        self.enter(name);
        let i = self.spans.len() - 1;
        let out = f();
        self.exit();
        self.spans[i].obs = take_obs();
        out
    }
}

/// Take (and clear) everything `dco_obs` recorded so far.
pub fn take_obs() -> Vec<SpanRecord> {
    let spans = dco_obs::span::snapshot();
    dco_obs::reset();
    spans
}

/// Wall times in ms of the `dco_obs` spans named `name`.
pub fn obs_walls(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns as f64 / 1e6)
        .collect()
}

/// Summed self time in ms of the `dco_obs` spans named `name`: each span's
/// wall time minus the wall time of its direct children.
pub fn obs_self_ms(spans: &[SpanRecord], name: &str) -> f64 {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.wall_ns;
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.wall_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64
                / 1e6
        })
        .sum()
}

/// Per-layer samples gathered over a traced run; each metric reports the
/// median of its samples.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Add one sample of `name` (must be listed in [`PER_LAYER`]).
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// Add many samples of `name`.
    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.push(name, v);
        }
    }

    /// Every [`PER_LAYER`] metric as (name, median, unit, sample count).
    pub fn table(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let s = self.samples.get(name).map_or(&[][..], Vec::as_slice);
                (name, median(s), unit, s.len())
            })
            .collect()
    }
}
