//! The `OBS_dco3d.json` profiling artifact: collection, parsing,
//! validation, and the `--obs-report` table.
//!
//! The artifact is a single JSON document:
//!
//! ```json
//! {
//!   "version": 1,
//!   "span_stats": { "enters": 9, "exits": 9, "balanced": true },
//!   "spans": [ { "id": 1, "parent": null, "name": "flow.route",
//!                "attrs": {}, "start_ns": 0, "wall_ns": 1200,
//!                "cpu_ns": 900, "thread": 0 } ],
//!   "aggregates": [ { "name": "flow.route", "count": 1,
//!                     "total_wall_ns": 1200, "total_cpu_ns": 900,
//!                     "max_wall_ns": 1200 } ],
//!   "metrics": { "route.overflow_total": { "type": "gauge", "value": 0 } },
//!   "peak_rss_bytes": 48234496
//! }
//! ```
//!
//! [`validate`] is the schema check CI runs against the emitted file: it
//! re-parses the tree, verifies span-tree integrity (balanced enter/exit,
//! parent ids resolve), and checks metric invariants (histogram bucket
//! counts sum to the observation count).

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::metrics::{self, Histogram, Metric};
use crate::span;

/// Artifact schema version.
pub const ARTIFACT_VERSION: u64 = 1;

/// Default artifact file name.
pub const ARTIFACT_FILE: &str = "OBS_dco3d.json";

/// Per-span-name aggregate computed by [`collect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Sum of wall-clock durations, nanoseconds.
    pub total_wall_ns: u64,
    /// Sum of per-thread CPU durations, nanoseconds.
    pub total_cpu_ns: u64,
    /// Largest single wall-clock duration, nanoseconds.
    pub max_wall_ns: u64,
}

/// Parsed form of the artifact, produced by [`parse_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObsArtifact {
    /// Schema version (must equal [`ARTIFACT_VERSION`]).
    pub version: u64,
    /// Total span enters.
    pub enters: u64,
    /// Total span exits.
    pub exits: u64,
    /// Whether enters == exits at collection time.
    pub balanced: bool,
    /// Every completed span.
    pub spans: Vec<span::SpanRecord>,
    /// Per-name aggregates.
    pub aggregates: Vec<Aggregate>,
    /// Metric snapshot in name order.
    pub metrics: Vec<(String, Metric)>,
    /// Peak resident set size, bytes (absent off-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// Process peak resident set size in bytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux; `None` elsewhere.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb = rest
                    .split_whitespace()
                    .next()
                    .and_then(|t| t.parse::<u64>().ok())?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Record the current peak RSS as the gauge `rss.<stage>.peak_bytes`.
///
/// VmHWM is a high-water mark, so the per-stage series is monotone: the
/// stage that first pushes it up is the stage that owns the memory peak.
/// No-op when observability is disabled or RSS is unavailable.
pub fn record_stage_rss(stage: &str) {
    if !span::enabled() {
        return;
    }
    if let Some(rss) = peak_rss_bytes() {
        // Values comfortably below 2^53 survive the f64 gauge exactly.
        metrics::global().gauge_set(&format!("rss.{stage}.peak_bytes"), rss as f64);
    }
}

fn num(v: u64) -> Value {
    Value::Number(v as f64)
}

fn aggregate(spans: &[span::SpanRecord]) -> Vec<Aggregate> {
    let mut by_name: BTreeMap<&str, Aggregate> = BTreeMap::new();
    for s in spans {
        let a = by_name.entry(s.name).or_insert_with(|| Aggregate {
            name: s.name.to_string(),
            count: 0,
            total_wall_ns: 0,
            total_cpu_ns: 0,
            max_wall_ns: 0,
        });
        a.count += 1;
        a.total_wall_ns += s.wall_ns;
        a.total_cpu_ns += s.cpu_ns;
        a.max_wall_ns = a.max_wall_ns.max(s.wall_ns);
    }
    by_name.into_values().collect()
}

fn metric_value(m: &Metric) -> Value {
    match m {
        Metric::Counter(v) => Value::Object(vec![
            ("type".to_string(), Value::String("counter".to_string())),
            ("value".to_string(), num(*v)),
        ]),
        Metric::Gauge { value, .. } => Value::Object(vec![
            ("type".to_string(), Value::String("gauge".to_string())),
            ("value".to_string(), Value::Number(*value)),
        ]),
        Metric::Histogram(h) => Value::Object(vec![
            ("type".to_string(), Value::String("histogram".to_string())),
            (
                "bounds".to_string(),
                Value::Array(h.bounds.iter().map(|b| Value::Number(*b)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Array(h.counts.iter().map(|c| num(*c)).collect()),
            ),
            ("count".to_string(), num(h.count)),
            ("sum".to_string(), Value::Number(h.sum)),
        ]),
        Metric::Series(vs) => Value::Object(vec![
            ("type".to_string(), Value::String("series".to_string())),
            (
                "values".to_string(),
                Value::Array(vs.iter().map(|v| Value::Number(*v)).collect()),
            ),
        ]),
    }
}

/// Assemble the artifact from everything collected so far.
pub fn collect() -> Value {
    let (enters, exits) = span::balance();
    let spans = span::snapshot();
    let span_values: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".to_string(), num(s.id)),
                ("parent".to_string(), s.parent.map_or(Value::Null, num)),
                ("name".to_string(), Value::String(s.name.to_string())),
                (
                    "attrs".to_string(),
                    Value::Object(
                        s.attrs
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                            .collect(),
                    ),
                ),
                ("start_ns".to_string(), num(s.start_ns)),
                ("wall_ns".to_string(), num(s.wall_ns)),
                ("cpu_ns".to_string(), num(s.cpu_ns)),
                ("thread".to_string(), num(s.thread)),
            ])
        })
        .collect();
    let aggregates: Vec<Value> = aggregate(&spans)
        .iter()
        .map(|a| {
            Value::Object(vec![
                ("name".to_string(), Value::String(a.name.clone())),
                ("count".to_string(), num(a.count)),
                ("total_wall_ns".to_string(), num(a.total_wall_ns)),
                ("total_cpu_ns".to_string(), num(a.total_cpu_ns)),
                ("max_wall_ns".to_string(), num(a.max_wall_ns)),
            ])
        })
        .collect();
    let metric_entries: Vec<(String, Value)> = metrics::global()
        .snapshot()
        .iter()
        .map(|(name, m)| (name.clone(), metric_value(m)))
        .collect();
    Value::Object(vec![
        ("version".to_string(), num(ARTIFACT_VERSION)),
        (
            "span_stats".to_string(),
            Value::Object(vec![
                ("enters".to_string(), num(enters)),
                ("exits".to_string(), num(exits)),
                ("balanced".to_string(), Value::Bool(enters == exits)),
            ]),
        ),
        ("spans".to_string(), Value::Array(span_values)),
        ("aggregates".to_string(), Value::Array(aggregates)),
        ("metrics".to_string(), Value::Object(metric_entries)),
        (
            "peak_rss_bytes".to_string(),
            peak_rss_bytes().map_or(Value::Null, num),
        ),
    ])
}

/// Collect and write the artifact to `path`, returning the written tree.
///
/// # Errors
/// Propagates filesystem errors from the final write.
pub fn write_report(path: &Path) -> std::io::Result<Value> {
    let artifact = collect();
    let text = serde_json::to_string(&artifact)
        .map_err(|e| std::io::Error::other(format!("serialize OBS artifact: {e}")))?;
    std::fs::write(path, text)?;
    Ok(artifact)
}

fn get<'v>(obj: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn as_u64(v: &Value, ctx: &str) -> Result<u64, String> {
    match v {
        Value::Number(n) if *n >= 0.0 && n.is_finite() => {
            let u = *n as u64;
            if (u as f64 - *n).abs() < 0.5 {
                Ok(u)
            } else {
                Err(format!("{ctx}: expected integer, got {n}"))
            }
        }
        other => Err(format!(
            "{ctx}: expected non-negative number, got {other:?}"
        )),
    }
}

fn as_f64(v: &Value, ctx: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(*n),
        Value::Null => Ok(f64::NAN), // serializer writes non-finite as null
        other => Err(format!("{ctx}: expected number, got {other:?}")),
    }
}

fn as_str<'v>(v: &'v Value, ctx: &str) -> Result<&'v str, String> {
    match v {
        Value::String(s) => Ok(s),
        other => Err(format!("{ctx}: expected string, got {other:?}")),
    }
}

fn as_array<'v>(v: &'v Value, ctx: &str) -> Result<&'v [Value], String> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(format!("{ctx}: expected array, got {other:?}")),
    }
}

fn as_object<'v>(v: &'v Value, ctx: &str) -> Result<&'v [(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(format!("{ctx}: expected object, got {other:?}")),
    }
}

/// Leak-free interner is overkill here: span names in a *parsed* artifact
/// are plain strings, but [`span::SpanRecord`] holds `&'static str` names.
/// We intern via a leaked box only for names the process hasn't seen —
/// bounded by the fixed span taxonomy, not by artifact size.
fn intern(name: &str) -> &'static str {
    use std::sync::{Mutex, PoisonError};
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = pool.iter().find(|s| **s == name) {
        existing
    } else {
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        pool.push(leaked);
        leaked
    }
}

fn parse_metric(name: &str, v: &Value) -> Result<Metric, String> {
    let ctx = format!("metrics.{name}");
    let kind = as_str(get(v, "type", &ctx)?, &ctx)?;
    match kind {
        "counter" => Ok(Metric::Counter(as_u64(get(v, "value", &ctx)?, &ctx)?)),
        "gauge" => Ok(Metric::Gauge {
            value: as_f64(get(v, "value", &ctx)?, &ctx)?,
            seq: 0,
        }),
        "histogram" => {
            let bounds = as_array(get(v, "bounds", &ctx)?, &ctx)?
                .iter()
                .map(|b| as_f64(b, &ctx))
                .collect::<Result<Vec<f64>, String>>()?;
            let counts = as_array(get(v, "counts", &ctx)?, &ctx)?
                .iter()
                .map(|c| as_u64(c, &ctx))
                .collect::<Result<Vec<u64>, String>>()?;
            let count = as_u64(get(v, "count", &ctx)?, &ctx)?;
            let sum = as_f64(get(v, "sum", &ctx)?, &ctx)?;
            if counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "{ctx}: counts/bounds length mismatch ({} vs {})",
                    counts.len(),
                    bounds.len()
                ));
            }
            let bucket_sum: u64 = counts.iter().sum();
            if bucket_sum != count {
                return Err(format!(
                    "{ctx}: bucket counts sum to {bucket_sum}, count says {count}"
                ));
            }
            Ok(Metric::Histogram(Histogram {
                bounds,
                counts,
                count,
                sum,
            }))
        }
        "series" => Ok(Metric::Series(
            as_array(get(v, "values", &ctx)?, &ctx)?
                .iter()
                .map(|x| as_f64(x, &ctx))
                .collect::<Result<Vec<f64>, String>>()?,
        )),
        other => Err(format!("{ctx}: unknown metric type `{other}`")),
    }
}

/// Parse an artifact [`Value`] tree back into typed form.
///
/// # Errors
/// Returns a description of the first schema violation encountered.
pub fn parse_report(artifact: &Value) -> Result<ObsArtifact, String> {
    let version = as_u64(get(artifact, "version", "artifact")?, "version")?;
    if version != ARTIFACT_VERSION {
        return Err(format!(
            "artifact version {version} != supported {ARTIFACT_VERSION}"
        ));
    }
    let stats = get(artifact, "span_stats", "artifact")?;
    let enters = as_u64(get(stats, "enters", "span_stats")?, "span_stats.enters")?;
    let exits = as_u64(get(stats, "exits", "span_stats")?, "span_stats.exits")?;
    let balanced = match get(stats, "balanced", "span_stats")? {
        Value::Bool(b) => *b,
        other => return Err(format!("span_stats.balanced: expected bool, got {other:?}")),
    };

    let mut spans = Vec::new();
    for (i, sv) in as_array(get(artifact, "spans", "artifact")?, "spans")?
        .iter()
        .enumerate()
    {
        let ctx = format!("spans[{i}]");
        let parent = match get(sv, "parent", &ctx)? {
            Value::Null => None,
            v => Some(as_u64(v, &ctx)?),
        };
        let attrs = as_object(get(sv, "attrs", &ctx)?, &ctx)?
            .iter()
            .map(|(k, v)| Ok((k.clone(), as_str(v, &ctx)?.to_string())))
            .collect::<Result<Vec<(String, String)>, String>>()?;
        spans.push(span::SpanRecord {
            id: as_u64(get(sv, "id", &ctx)?, &ctx)?,
            parent,
            name: intern(as_str(get(sv, "name", &ctx)?, &ctx)?),
            attrs,
            start_ns: as_u64(get(sv, "start_ns", &ctx)?, &ctx)?,
            wall_ns: as_u64(get(sv, "wall_ns", &ctx)?, &ctx)?,
            cpu_ns: as_u64(get(sv, "cpu_ns", &ctx)?, &ctx)?,
            thread: as_u64(get(sv, "thread", &ctx)?, &ctx)?,
        });
    }

    let mut aggregates = Vec::new();
    for (i, av) in as_array(get(artifact, "aggregates", "artifact")?, "aggregates")?
        .iter()
        .enumerate()
    {
        let ctx = format!("aggregates[{i}]");
        aggregates.push(Aggregate {
            name: as_str(get(av, "name", &ctx)?, &ctx)?.to_string(),
            count: as_u64(get(av, "count", &ctx)?, &ctx)?,
            total_wall_ns: as_u64(get(av, "total_wall_ns", &ctx)?, &ctx)?,
            total_cpu_ns: as_u64(get(av, "total_cpu_ns", &ctx)?, &ctx)?,
            max_wall_ns: as_u64(get(av, "max_wall_ns", &ctx)?, &ctx)?,
        });
    }

    let mut metrics_out = Vec::new();
    for (name, mv) in as_object(get(artifact, "metrics", "artifact")?, "metrics")? {
        metrics_out.push((name.clone(), parse_metric(name, mv)?));
    }

    let peak_rss_bytes = match get(artifact, "peak_rss_bytes", "artifact")? {
        Value::Null => None,
        v => Some(as_u64(v, "peak_rss_bytes")?),
    };

    Ok(ObsArtifact {
        version,
        enters,
        exits,
        balanced,
        spans,
        aggregates,
        metrics: metrics_out,
        peak_rss_bytes,
    })
}

/// Schema-check an artifact tree: parse it and verify cross-cutting
/// invariants (span-tree integrity, balance consistency, monotone ids).
///
/// # Errors
/// Returns a description of the first violation.
pub fn validate(artifact: &Value) -> Result<(), String> {
    let parsed = parse_report(artifact)?;
    if parsed.balanced != (parsed.enters == parsed.exits) {
        return Err(format!(
            "span_stats.balanced={} inconsistent with enters={} exits={}",
            parsed.balanced, parsed.enters, parsed.exits
        ));
    }
    if (parsed.spans.len() as u64) > parsed.exits {
        return Err(format!(
            "{} spans recorded but only {} exits counted",
            parsed.spans.len(),
            parsed.exits
        ));
    }
    let ids: std::collections::BTreeSet<u64> = parsed.spans.iter().map(|s| s.id).collect();
    if ids.len() != parsed.spans.len() {
        return Err("duplicate span ids".to_string());
    }
    for s in &parsed.spans {
        if s.name.is_empty() {
            return Err(format!("span {} has an empty name", s.id));
        }
        if let Some(p) = s.parent {
            if !ids.contains(&p) {
                return Err(format!("span {} references missing parent {p}", s.id));
            }
            if p == s.id {
                return Err(format!("span {} is its own parent", s.id));
            }
        }
    }
    // Aggregates must cover exactly the span names present.
    let span_names: std::collections::BTreeSet<&str> =
        parsed.spans.iter().map(|s| s.name).collect();
    let agg_names: std::collections::BTreeSet<&str> =
        parsed.aggregates.iter().map(|a| a.name.as_str()).collect();
    if span_names != agg_names {
        return Err(format!(
            "aggregate names {agg_names:?} do not match span names {span_names:?}"
        ));
    }
    for a in &parsed.aggregates {
        if a.count == 0 {
            return Err(format!("aggregate `{}` has zero count", a.name));
        }
        if a.max_wall_ns > a.total_wall_ns {
            return Err(format!("aggregate `{}`: max exceeds total", a.name));
        }
    }
    Ok(())
}

/// Name of the span the daemon opens per served job; [`job_rollup`] keys
/// attribution off these roots.
pub const JOB_SPAN: &str = "serve.job";

/// Per-served-job attribution computed by [`job_rollup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRollup {
    /// Job id (the `job` attr on the `serve.job` span).
    pub job: String,
    /// Job kind (`predict`, `spread`, `flow`, ...).
    pub kind: String,
    /// Spans in the job's subtree, including the root.
    pub spans: u64,
    /// Wall-clock time of the job root span, nanoseconds.
    pub wall_ns: u64,
    /// CPU time summed over the job's subtree, nanoseconds.
    pub cpu_ns: u64,
}

fn attr<'s>(s: &'s span::SpanRecord, key: &str) -> Option<&'s str> {
    s.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Group spans under their [`JOB_SPAN`] roots and attribute subtree work to
/// each served job.
///
/// Wall time is the root span's own duration (children nest inside it, so
/// summing the subtree would double-count); CPU time is summed across the
/// subtree because child spans may run on other threads. Jobs are returned
/// in ascending order of their `job` attr (numeric when both ids parse).
pub fn job_rollup(a: &ObsArtifact) -> Vec<JobRollup> {
    // Map every span id to the serve.job root it lives under, if any.
    let by_id: BTreeMap<u64, &span::SpanRecord> = a.spans.iter().map(|s| (s.id, s)).collect();
    let mut root_of: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &a.spans {
        let mut cur = Some(s);
        while let Some(node) = cur {
            if node.name == JOB_SPAN {
                root_of.insert(s.id, node.id);
                break;
            }
            cur = node.parent.and_then(|p| by_id.get(&p).copied());
        }
    }
    let mut rollups: BTreeMap<u64, JobRollup> = BTreeMap::new();
    for s in &a.spans {
        let Some(&root_id) = root_of.get(&s.id) else {
            continue;
        };
        let entry = rollups.entry(root_id).or_insert_with(|| {
            let root = by_id[&root_id];
            JobRollup {
                job: attr(root, "job").unwrap_or("?").to_string(),
                kind: attr(root, "kind").unwrap_or("?").to_string(),
                spans: 0,
                wall_ns: root.wall_ns,
                cpu_ns: 0,
            }
        });
        entry.spans += 1;
        entry.cpu_ns += s.cpu_ns;
    }
    let mut out: Vec<JobRollup> = rollups.into_values().collect();
    out.sort_by(|a, b| match (a.job.parse::<u64>(), b.job.parse::<u64>()) {
        (Ok(x), Ok(y)) => x.cmp(&y),
        _ => a.job.cmp(&b.job),
    });
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the human-readable `--obs-report` table from a parsed artifact.
pub fn render_table(a: &ObsArtifact) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== observability report ==");
    let _ = writeln!(
        out,
        "spans: {} recorded, {} enters / {} exits ({})",
        a.spans.len(),
        a.enters,
        a.exits,
        if a.balanced { "balanced" } else { "UNBALANCED" }
    );
    if let Some(rss) = a.peak_rss_bytes {
        let _ = writeln!(out, "peak rss: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    let _ = writeln!(out);
    let name_w = a
        .aggregates
        .iter()
        .map(|x| x.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>6}  {:>12}  {:>12}  {:>12}",
        "span", "count", "total wall", "total cpu", "max wall"
    );
    for agg in &a.aggregates {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  {:>12}  {:>12}  {:>12}",
            agg.name,
            agg.count,
            fmt_ns(agg.total_wall_ns),
            fmt_ns(agg.total_cpu_ns),
            fmt_ns(agg.max_wall_ns)
        );
    }
    let jobs = job_rollup(a);
    if !jobs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8}  {:<8}  {:>6}  {:>12}  {:>12}",
            "job", "kind", "spans", "wall", "cpu"
        );
        for j in &jobs {
            let _ = writeln!(
                out,
                "{:<8}  {:<8}  {:>6}  {:>12}  {:>12}",
                j.job,
                j.kind,
                j.spans,
                fmt_ns(j.wall_ns),
                fmt_ns(j.cpu_ns)
            );
        }
    }
    if !a.metrics.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<32}  value", "metric");
        for (name, m) in &a.metrics {
            let rendered = match m {
                Metric::Counter(v) => format!("{v}"),
                Metric::Gauge { value, .. } => format!("{value}"),
                Metric::Histogram(h) => {
                    format!("count={} sum={:.4} buckets={:?}", h.count, h.sum, h.counts)
                }
                Metric::Series(vs) => match (vs.first(), vs.last()) {
                    (Some(first), Some(last)) => {
                        format!("n={} first={first:.4} last={last:.4}", vs.len())
                    }
                    _ => "n=0".to_string(),
                },
            };
            let _ = writeln!(out, "{name:<32}  {rendered}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_and_validates() {
        let _lock = crate::test_lock();
        crate::reset();
        span::set_enabled(true);
        {
            let _a = crate::span!("flow.route");
            {
                let _b = crate::span!("route.rrr", iter = 0);
            }
            metrics::counter_add("route.calls", 1);
            metrics::gauge_set("route.overflow_total", 7.0);
            metrics::histogram_observe("route.wave_seconds", 0.02);
            metrics::series_push("dco.loss", 1.25);
        }
        let artifact = collect();
        span::set_enabled(false);

        validate(&artifact).expect("fresh artifact validates");
        let text = serde_json::to_string(&artifact).expect("serialize");
        let reparsed: Value = serde_json::from_str(&text).expect("parse json");
        validate(&reparsed).expect("round-tripped artifact validates");
        let a = parse_report(&reparsed).expect("parse_report");
        assert_eq!(a.spans.len(), 2);
        assert!(a.balanced);
        let rrr = a
            .spans
            .iter()
            .find(|s| s.name == "route.rrr")
            .expect("rrr span");
        let route = a
            .spans
            .iter()
            .find(|s| s.name == "flow.route")
            .expect("route span");
        assert_eq!(rrr.parent, Some(route.id));
        assert_eq!(a.metrics.len(), 4);
        crate::reset();
    }

    #[test]
    fn validate_rejects_broken_artifacts() {
        let _lock = crate::test_lock();
        crate::reset();
        span::set_enabled(true);
        {
            let _a = crate::span!("flow.sta");
        }
        let good = collect();
        span::set_enabled(false);
        crate::reset();

        // Corrupt the version.
        let mut bad = good.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "version" {
                    *v = Value::Number(99.0);
                }
            }
        }
        assert!(validate(&bad).is_err());

        // Break a parent reference.
        let mut bad = good.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, v) in entries.iter_mut() {
                if k == "spans" {
                    if let Value::Array(spans) = v {
                        if let Some(Value::Object(span)) = spans.first_mut() {
                            for (sk, sv) in span.iter_mut() {
                                if sk == "parent" {
                                    *sv = Value::Number(424242.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(validate(&bad).is_err());

        // Non-object artifact.
        assert!(validate(&Value::Array(vec![])).is_err());
    }

    #[test]
    fn table_renders_all_sections() {
        let _lock = crate::test_lock();
        crate::reset();
        span::set_enabled(true);
        {
            let _a = crate::span!("flow.place");
        }
        metrics::counter_add("dco.rollbacks", 2);
        let artifact = collect();
        span::set_enabled(false);
        crate::reset();

        let parsed = parse_report(&artifact).expect("parse");
        let table = render_table(&parsed);
        assert!(table.contains("flow.place"), "{table}");
        assert!(table.contains("dco.rollbacks"), "{table}");
        assert!(table.contains("balanced"), "{table}");
    }

    #[test]
    fn job_rollup_attributes_subtrees_to_job_roots() {
        let _lock = crate::test_lock();
        crate::reset();
        span::set_enabled(true);
        {
            let _batch = crate::span!("serve.batch", size = 2);
            {
                let _job = crate::span!("serve.job", job = 7, kind = "predict");
                let _inner = crate::span!("serve.features");
            }
            {
                let _job = crate::span!("serve.job", job = 2, kind = "spread");
            }
        }
        {
            let _orphan = crate::span!("flow.place");
        }
        let artifact = collect();
        span::set_enabled(false);
        crate::reset();

        let parsed = parse_report(&artifact).expect("parse");
        let jobs = job_rollup(&parsed);
        assert_eq!(jobs.len(), 2, "{jobs:?}");
        // Numeric ordering: job 2 before job 7.
        assert_eq!(jobs[0].job, "2");
        assert_eq!(jobs[0].kind, "spread");
        assert_eq!(jobs[0].spans, 1);
        assert_eq!(jobs[1].job, "7");
        assert_eq!(jobs[1].kind, "predict");
        assert_eq!(jobs[1].spans, 2, "root + serve.features child");
        let root = parsed
            .spans
            .iter()
            .find(|s| s.name == "serve.job" && s.attrs.iter().any(|(_, v)| v == "7"))
            .expect("job 7 root");
        assert_eq!(jobs[1].wall_ns, root.wall_ns, "wall is the root's own");
        assert!(jobs[1].cpu_ns >= root.cpu_ns, "cpu sums the subtree");

        let table = render_table(&parsed);
        assert!(table.contains("predict"), "{table}");
        assert!(table.contains("spread"), "{table}");
    }

    #[test]
    fn rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM present on Linux");
            assert!(rss > 0);
        }
    }
}
