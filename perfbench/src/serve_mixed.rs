//! The `serve_mixed` workload: the `dco3d serve` daemon in its default
//! configuration, in process on a unix socket, under two closed-loop
//! connections sending a seeded mix of `predict`, `delta` and `spread`
//! requests.
//!
//! Every reply is checked after the measured window against an in-process
//! [`WarmState`] built from the same design and an identically seeded
//! predictor: a served `predict` or `delta` must carry the checksum of
//! `WarmState::predict` on the same placement, and every repeat of a
//! `spread` request must return the same placement.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dco_flow::serve::{prediction_checksum, serve, Bind, ServeOptions, ServerHandle, WarmState};
use dco_flow::{train_predictor, FlowConfig};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::{CellId, Design, Placement3};
use serde_json::Value;

use crate::flows::setup_layers;
use crate::stats::{median, ms_since, peak_rss_mb, quantile, Rng};
use crate::trace::{obs_walls, take_obs, Tracer};
use crate::{Args, Outcome, DESIGN_SEED};

/// Set-ups per run before and after the measured window; `setup_s` is the
/// median of all of them. Training takes seconds and a single sample varies
/// ±15–25 % with the host, so it repeats, on both sides of the window to
/// meet more host phases.
const SETUP_REPS: (usize, usize) = (3, 2);
/// Distinct placements per request class.
const POOL: usize = 8;
/// Quality metrics are medians over the first this-many `delta` replies of each
/// connection (a fixed, seed-determined set of placements).
const QUALITY_DELTAS: usize = 8;
/// Scratch directory for the socket, relative to the working directory.
const SCRATCH: &str = ".perfbench_tmp";
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Requests of each class in every block of 20 a connection sends.
const MIX: [(Class, usize); 3] = [(Class::Predict, 10), (Class::Delta, 7), (Class::Spread, 3)];

/// Holds both clients while the host probe reads. The main thread raises
/// `held`; each client parks before its next request; the probe runs once
/// every client has parked or finished. No request is then in flight, so
/// the daemon is idle and the reading shows the host alone.
#[derive(Debug, Default)]
struct Pause {
    held: AtomicBool,
    /// Clients parked now, plus clients that have finished.
    parked: AtomicUsize,
}

impl Pause {
    /// Client side: park while the clients are held.
    fn wait(&self) {
        if self.held.load(Ordering::Acquire) {
            self.parked.fetch_add(1, Ordering::AcqRel);
            while self.held.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.parked.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Main side: hold the clients, run `f` once all have parked, release.
    fn hold<T>(&self, f: impl FnOnce() -> T) -> T {
        self.held.store(true, Ordering::Release);
        while self.parked.load(Ordering::Acquire) < CLIENTS {
            std::thread::sleep(Duration::from_micros(200));
        }
        let out = f();
        self.held.store(false, Ordering::Release);
        out
    }
}

/// Counts a client as parked for good once it returns, errs or panics.
struct Finished<'a>(&'a Pause);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.parked.fetch_add(1, Ordering::AcqRel);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Predict,
    Delta,
    Spread,
}

impl Class {
    fn job(self) -> &'static str {
        match self {
            Class::Predict => "predict",
            Class::Delta => "delta",
            Class::Spread => "spread",
        }
    }
}

/// Pre-generated request placements, serialized once before timing.
struct Pools {
    predict: Vec<(Placement3, String)>,
    delta: Vec<(Placement3, String)>,
    spread: Vec<String>,
}

impl Pools {
    fn build(design: &Design, base: &Placement3, seed: u64) -> Self {
        let grid = design.floorplan.grid;
        let die = design.floorplan.die;
        let json = |p: &Placement3| serde_json::to_string(p).unwrap_or_default();
        let mut rng = Rng::new(seed, 0x9001);
        // predict: every cell jittered by up to half a GCell.
        let predict: Vec<(Placement3, String)> = (0..POOL)
            .map(|_| {
                let mut p = base.clone();
                for i in 0..p.len() {
                    let c = CellId(i as u32);
                    let x = p.x(c) + (rng.unit() - 0.5) * grid.dx;
                    let y = p.y(c) + (rng.unit() - 0.5) * grid.dy;
                    let (x, y) = die.clamp(x, y);
                    p.set_xy(c, x, y);
                }
                let s = json(&p);
                (p, s)
            })
            .collect();
        // delta: the ~1% of cells nearest a random centre cell, moved one or
        // two GCells together. Each request moves a fresh cluster from the
        // same base, so consecutive requests differ by at most two clusters
        // whichever connection sent them.
        let n = base.len();
        let k = (n / 100).max(1);
        let delta: Vec<(Placement3, String)> = (0..POOL)
            .map(|_| {
                let centre = CellId(rng.below(n) as u32);
                let (cx, cy) = (base.x(centre), base.y(centre));
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    let d = |i: usize| {
                        let c = CellId(i as u32);
                        (base.x(c) - cx).powi(2) + (base.y(c) - cy).powi(2)
                    };
                    d(a).total_cmp(&d(b)).then(a.cmp(&b))
                });
                let dx = (1.0 + rng.unit()) * grid.dx * if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                let dy = (1.0 + rng.unit()) * grid.dy * if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                let mut p = base.clone();
                for &i in &order[..k] {
                    let c = CellId(i as u32);
                    let (x, y) = die.clamp(p.x(c) + dx, p.y(c) + dy);
                    p.set_xy(c, x, y);
                }
                let s = json(&p);
                (p, s)
            })
            .collect();
        let spread = vec![json(base), predict[0].1.clone()];
        Pools {
            predict,
            delta,
            spread,
        }
    }

    fn request(&self, class: Class, pool: usize, id: u64, seed: u64) -> String {
        let placement = match class {
            Class::Predict => &self.predict[pool].1,
            Class::Delta => &self.delta[pool].1,
            Class::Spread => &self.spread[pool],
        };
        let extra = if class == Class::Spread {
            format!(",\"iters\":2,\"seed\":{seed}")
        } else {
            String::new()
        };
        format!(
            "{{\"id\":{id},\"job\":\"{}\"{extra},\"placement\":{placement}}}\n",
            class.job()
        )
    }
}

/// One connection to the daemon: a line writer and a line reader.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(path: &Path) -> Result<Self, String> {
        let writer = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { writer, reader })
    }

    /// Send one request line and wait for its reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Record {
    id: u64,
    class: Class,
    pool: usize,
    rtt_ms: f64,
    ok: bool,
    checksum: String,
    /// (overflow, wirelength_um, tns_ps) of a `delta` reply.
    quality: Option<(f64, f64, f64)>,
    nets_ripped: f64,
    fallback: bool,
    /// Whether `dco_obs` was on for the round trip. It toggles only while
    /// the clients are held, so never mid-request.
    traced: bool,
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    match cur {
        Value::Number(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn parse_reply(reply: &str) -> Value {
    serde_json::from_str(reply).unwrap_or(Value::Null)
}

fn record(id: u64, class: Class, pool: usize, rtt_ms: f64, traced: bool, reply: &str) -> Record {
    let v = parse_reply(reply);
    let ok = matches!(v.get("ok"), Some(Value::Bool(true)));
    let checksum = match v.get("result").and_then(|r| r.get("checksum")) {
        Some(Value::String(s)) => s.clone(),
        _ => String::new(),
    };
    let quality = (class == Class::Delta && ok).then(|| {
        (
            num(&v, &["result", "overflow"]).unwrap_or(f64::NAN),
            num(&v, &["result", "wirelength_um"]).unwrap_or(f64::NAN),
            num(&v, &["result", "tns_ps"]).unwrap_or(f64::NAN),
        )
    });
    Record {
        id,
        class,
        pool,
        rtt_ms,
        ok,
        checksum,
        quality,
        nets_ripped: num(&v, &["result", "work", "nets_ripped"]).unwrap_or(0.0),
        fallback: num(&v, &["result", "work", "unet_full_fallback"]) == Some(1.0),
        traced,
    }
}

/// The next 20 request classes of a connection: 10 `predict`, 7 `delta` and
/// 3 `spread` in seeded order. Whole blocks keep the class shares the same
/// in every run, so the seed moves only the order and the placements.
fn mix_block(rng: &mut Rng) -> Vec<Class> {
    let mut block: Vec<Class> = MIX
        .into_iter()
        .flat_map(|(class, n)| std::iter::repeat_n(class, n))
        .collect();
    for i in (1..block.len()).rev() {
        block.swap(i, rng.below(i + 1));
    }
    block
}

/// The closed loop of one connection: send, wait, repeat until the
/// deadline (and until it has its quality `delta` replies). Between
/// requests it parks whenever `pause` holds the clients.
fn client(
    mut conn: Conn,
    index: u64,
    pools: &Pools,
    seed: u64,
    deadline: Instant,
    pause: &Pause,
) -> Result<Vec<Record>, String> {
    let _finished = Finished(pause);
    let mut rng = Rng::new(seed, 0x5E00 + index);
    let mut out: Vec<Record> = Vec::new();
    let mut deltas = 0usize;
    let mut block: Vec<Class> = Vec::new();
    for n in 0u64.. {
        pause.wait();
        if Instant::now() >= deadline && deltas >= QUALITY_DELTAS {
            break;
        }
        if block.is_empty() {
            block = mix_block(&mut rng);
        }
        let class = block.pop().unwrap_or(Class::Predict);
        let pool = rng.below(if class == Class::Spread {
            pools.spread.len()
        } else {
            POOL
        });
        let id = (index + 1) * 1_000_000 + n;
        let line = pools.request(class, pool, id, seed);
        let traced = dco_obs::enabled();
        let t = Instant::now();
        let reply = conn.call(&line)?;
        let rtt_ms = ms_since(t);
        deltas += usize::from(class == Class::Delta);
        out.push(record(id, class, pool, rtt_ms, traced, &reply));
    }
    Ok(out)
}

/// A generated design and a seeded predictor for it, as a daemon holds.
fn warm_state(seed: u64, tracer: &mut Tracer) -> Result<WarmState, String> {
    let design = tracer.time("netlist.generate", || {
        GeneratorConfig::for_profile(DesignProfile::Aes)
            .with_scale(0.03)
            .generate(seed)
    });
    let design = design.map_err(|e| format!("design generation failed: {e}"))?;
    let cfg = FlowConfig::default();
    let predictor = tracer.time("flow.train_predictor", || {
        train_predictor(&design, &cfg, seed)
    });
    Ok(WarmState::new(design, cfg, predictor))
}

/// Ask the daemon to drain and exit, then join it.
fn shut_down(conn: &mut Conn, handle: ServerHandle) -> Result<dco_flow::serve::ServeStats, String> {
    conn.call("{\"id\":1,\"job\":\"shutdown\"}\n")?;
    handle.join().map_err(|e| format!("daemon join: {e}"))
}

/// A daemon under test, its socket and both client connections.
struct Live {
    conns: [Conn; 2],
    handle: ServerHandle,
    path: PathBuf,
}

/// One timed set-up, its wall time pushed onto `secs`: generate the design,
/// train the default predictor, build `WarmState`, bind the daemon and
/// connect both clients.
fn set_up(
    dir: &Path,
    rep: usize,
    tracer: &mut Tracer,
    o: &mut Outcome,
    secs: &mut Vec<f64>,
) -> Result<Live, String> {
    let path = dir.join(format!("serve-{}-{rep}.sock", std::process::id()));
    o.probe.sample();
    let t = Instant::now();
    let state = warm_state(DESIGN_SEED, tracer)?;
    let handle = serve(state, Bind::Unix(path.clone()), ServeOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let conns = [Conn::open(&path)?, Conn::open(&path)?];
    secs.push(t.elapsed().as_secs_f64());
    Ok(Live {
        conns,
        handle,
        path,
    })
}

/// Run the `serve_mixed` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    dco_obs::set_enabled(args.trace);

    // --- set-up, repeated; the last daemon before the window is kept -----
    // Each earlier daemon shuts down before the next set-up starts, so one
    // daemon at a time counts towards the peak RSS.
    let (before, after) = SETUP_REPS;
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for rep in 0..before {
        if let Some(mut old) = live.take() {
            shut_down(&mut old.conns[0], old.handle)?;
        }
        live = Some(set_up(dir, rep, &mut tracer, &mut o, &mut setup_s)?);
    }
    let Some(Live {
        conns,
        handle,
        path,
    }) = live
    else {
        return Err("no set-up ran".into());
    };

    // The in-process reference: same design, identically seeded predictor.
    // Every request perturbs one fixed base placement; the workload seed
    // picks the perturbations and the request sequence.
    let checker = warm_state(DESIGN_SEED, &mut Tracer::new(false))?;
    let base = checker.baseline_placement(DESIGN_SEED);
    let pools = Pools::build(checker.design(), &base, args.seed);
    if args.trace {
        for (p, _) in pools.predict.iter().chain(&pools.delta) {
            let t = Instant::now();
            std::hint::black_box(checker.features_for(p));
            o.layers.push("features.extract_ms", ms_since(t));
        }
    }
    let expected: BTreeMap<(Class, usize), String> = [Class::Predict, Class::Delta]
        .into_iter()
        .flat_map(|class| (0..POOL).map(move |i| (class, i)))
        .map(|(class, i)| {
            let p = if class == Class::Predict {
                &pools.predict[i].0
            } else {
                &pools.delta[i].0
            };
            let sum = prediction_checksum(&checker.predict(p));
            ((class, i), format!("{sum:016x}"))
        })
        .collect();
    let [mut c0, mut c1] = conns;

    // Warm-up: one request of each class per connection, checked, untimed.
    let mut warm = Vec::new();
    for (k, conn) in [&mut c0, &mut c1].into_iter().enumerate() {
        for (j, class) in [Class::Predict, Class::Delta, Class::Spread]
            .into_iter()
            .enumerate()
        {
            let id = 100 + 10 * k as u64 + j as u64;
            let reply = conn.call(&pools.request(class, 0, id, args.seed))?;
            warm.push(record(id, class, 0, 0.0, false, &reply));
        }
    }
    let _ = take_obs();

    // --- measured window ---------------------------------------------------
    o.probe.sample();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let pools_ref = &pools;
    let seed = args.seed;
    let pause = Pause::default();
    let pause_ref = &pause;
    let (r0, r1) = std::thread::scope(|s| {
        let h0 = s.spawn(move || client(c0, 0, pools_ref, seed, deadline, pause_ref));
        let h1 = s.spawn(move || client(c1, 1, pools_ref, seed, deadline, pause_ref));
        // Once a second the probe reads the host while both clients are
        // held; a traced run also flips `dco_obs` then, so traced and
        // untraced requests interleave and none straddles a flip.
        let mut next = start + Duration::from_secs(1);
        let mut on = args.trace;
        while !(h0.is_finished() && h1.is_finished()) {
            if Instant::now() >= next {
                pause.hold(|| {
                    o.probe.sample();
                    if args.trace {
                        on = !on;
                        dco_obs::set_enabled(on);
                    }
                });
                next += Duration::from_secs(1);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (h0.join(), h1.join())
    });
    o.probe.sample();
    dco_obs::set_enabled(args.trace);
    let r0 = r0.map_err(|_| "client 0 panicked".to_string())??;
    let r1 = r1.map_err(|_| "client 1 panicked".to_string())??;
    let obs = take_obs();

    // Status, then shut the daemon down.
    let mut c2 = Conn::open(&path)?;
    let status = parse_reply(&c2.call("{\"id\":2,\"job\":\"status\"}\n")?);
    let stats = shut_down(&mut c2, handle)?;
    for rep in before..before + after {
        let mut l = set_up(dir, rep, &mut tracer, &mut o, &mut setup_s)?;
        shut_down(&mut l.conns[0], l.handle)?;
    }
    if args.trace {
        setup_layers(&mut o, &tracer);
    }

    // --- checks (outside the window) -------------------------------------
    let mut spread_first: BTreeMap<usize, String> = BTreeMap::new();
    for r in warm.iter().chain(&r0).chain(&r1) {
        o.attempted += 1;
        if !r.ok || r.checksum.is_empty() {
            o.fail(&format!(
                "request {} ({}) was not answered ok",
                r.id,
                r.class.job()
            ));
            continue;
        }
        match r.class {
            Class::Spread => {
                let first = spread_first
                    .entry(r.pool)
                    .or_insert_with(|| r.checksum.clone());
                if *first != r.checksum {
                    o.fail(&format!(
                        "spread {}: placement differs from an earlier identical request",
                        r.id
                    ));
                }
            }
            class => {
                if expected.get(&(class, r.pool)) != Some(&r.checksum) {
                    o.fail(&format!(
                        "{} {}: served checksum {} differs from in-process WarmState::predict",
                        class.job(),
                        r.id,
                        r.checksum
                    ));
                }
            }
        }
    }
    if stats.errors + stats.shed + stats.deadline_exceeded > 0 {
        o.fail(&format!("daemon reported failures: {stats:?}"));
    }

    // --- metrics -----------------------------------------------------------
    let all: Vec<&Record> = r0.iter().chain(&r1).collect();
    let rtts = |class: Class| -> Vec<f64> {
        all.iter()
            .filter(|r| r.class == class)
            .map(|r| r.rtt_ms)
            .collect()
    };
    // Each class's median round trip, weighted by the class's share of the
    // mix. (The median of all round trips sits where the predict and delta
    // clusters meet, so it jumps between them from run to run.) Closed-loop
    // clients with no think time complete clients / that many requests
    // per second.
    let block: usize = MIX.iter().map(|&(_, n)| n).sum();
    let mix_ms: f64 = MIX
        .iter()
        .map(|&(class, n)| n as f64 / block as f64 * median(&rtts(class)))
        .sum();
    let job_ms = o.probe.at_ref(mix_ms);
    let quality: Vec<(f64, f64, f64)> = [&r0, &r1]
        .iter()
        .flat_map(|rs| rs.iter().filter_map(|r| r.quality).take(QUALITY_DELTAS))
        .collect();
    let q = |f: fn(&(f64, f64, f64)) -> f64| median(&quality.iter().map(f).collect::<Vec<_>>());
    o.metrics = vec![
        ("setup_s", o.probe.at_ref(median(&setup_s))),
        ("job_norm_ms", job_ms),
        ("jobs_per_s", CLIENTS as f64 * 1e3 / job_ms),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_frac", 1.0 - o.failed as f64 / o.attempted.max(1) as f64),
        ("overflow", q(|t| t.0)),
        ("wirelength_um", q(|t| t.1)),
        ("tns_ps", q(|t| -t.2)),
    ];
    for (class, _) in MIX {
        let xs = rtts(class);
        let name = class.job();
        o.extra.push((format!("{name}_p50_ms"), median(&xs), "ms"));
    }
    o.extra.push(("mix_p50_ms".into(), mix_ms, "ms"));
    o.extra.push(("setup_raw_s".into(), median(&setup_s), "s"));
    let all_ms: Vec<f64> = all.iter().map(|r| r.rtt_ms).collect();
    o.extra.push(("job_p50_ms".into(), median(&all_ms), "ms"));
    o.extra
        .push(("job_p90_ms".into(), quantile(&all_ms, 0.9), "ms"));
    o.extra.push(("jobs".into(), all.len() as f64, "count"));

    if args.trace {
        serve_layers(&mut o, &obs, &all, &status);
    }
    Ok(o)
}

/// Per-layer samples of a traced serve run, from the daemon's own
/// `dco_obs` spans, the `status` reply and the `delta` replies.
fn serve_layers(o: &mut Outcome, obs: &[dco_obs::SpanRecord], all: &[&Record], status: &Value) {
    let attr = |s: &dco_obs::SpanRecord, key: &str| {
        s.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    // Forward-pass time per batch span, so a predict's execution time
    // includes the batched forward that answered it.
    let forward: BTreeMap<Option<u64>, f64> = obs
        .iter()
        .filter(|s| s.name == "serve.batch.forward")
        .map(|s| (s.parent, s.wall_ns as f64 / 1e6))
        .collect();
    let mut exec: BTreeMap<u64, f64> = BTreeMap::new();
    for s in obs.iter().filter(|s| s.name == "serve.job") {
        let kind = attr(s, "kind");
        let mut ms = s.wall_ns as f64 / 1e6;
        let metric = match kind.as_str() {
            "predict" => {
                ms += forward.get(&s.parent).copied().unwrap_or(0.0);
                "serve.exec_predict_ms"
            }
            "delta" => "serve.exec_delta_ms",
            "spread" => "serve.exec_spread_ms",
            _ => continue,
        };
        o.layers.push(metric, ms);
        o.layers.push("serve.exec_ms", ms);
        if let Ok(id) = attr(s, "job").parse::<u64>() {
            exec.insert(id, ms);
        }
    }
    for r in all.iter().filter(|r| r.traced) {
        if let Some(ms) = exec.get(&r.id) {
            o.layers.push("serve.wait_ms", r.rtt_ms - ms);
        }
    }
    o.layers
        .extend("serve.batch_forward_ms", forward.values().copied());
    o.layers
        .extend("incremental.route_ms", obs_walls(obs, "route.incremental"));
    o.layers
        .extend("incremental.sta_ms", obs_walls(obs, "sta.incremental"));
    o.layers
        .extend("incremental.unet_ms", obs_walls(obs, "unet.patch"));
    let iters = obs_walls(obs, "dco.iter");
    let spread_jobs = obs
        .iter()
        .filter(|s| s.name == "serve.job" && attr(s, "kind") == "spread")
        .count();
    if spread_jobs > 0 {
        o.layers
            .push("dco.iters", iters.len() as f64 / spread_jobs as f64);
    }
    o.layers.extend("dco.iter_ms", iters);

    let predicts = num(status, &["result", "jobs", "predict"]).unwrap_or(0.0);
    let batches = num(status, &["result", "jobs", "batches"]).unwrap_or(0.0);
    o.layers
        .push("serve.batch_size", predicts / batches.max(1.0));
    let hits = num(status, &["result", "arena", "hits"]).unwrap_or(0.0);
    let misses = num(status, &["result", "arena", "misses"]).unwrap_or(0.0);
    o.layers
        .push("tensor.arena_hit_ratio", hits / (hits + misses).max(1.0));
    let nets = num(status, &["result", "nets"]).unwrap_or(1.0).max(1.0);
    let deltas: Vec<&&Record> = all.iter().filter(|r| r.class == Class::Delta).collect();
    o.layers.extend(
        "incremental.nets_ripped_frac",
        deltas.iter().map(|r| r.nets_ripped / nets),
    );
    let fallbacks = deltas.iter().filter(|r| r.fallback).count();
    o.layers.push(
        "incremental.fallback_frac",
        fallbacks as f64 / deltas.len().max(1) as f64,
    );
    let by = |t: bool| -> Vec<f64> {
        all.iter()
            .filter(|r| r.traced == t)
            .map(|r| r.rtt_ms)
            .collect()
    };
    let (on, off) = (by(true), by(false));
    if !on.is_empty() && !off.is_empty() {
        o.layers
            .push("trace.overhead_ratio", median(&on) / median(&off));
    }
}
