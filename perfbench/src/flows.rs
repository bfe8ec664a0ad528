//! The two whole-flow workloads: `dco224` (the DCO-3D flow at the paper's
//! 224×224 map resolution) and `pin3d` (the Pin-3D baseline flow).
//!
//! A job runs the flow's stages through the public `FlowRunner::stage_*`
//! calls. Flow seeds cycle through a fixed list derived from the workload
//! seed; every run goes past the end of the list, and each repeat of a seed
//! must reproduce its first result bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use dco_flow::{train_predictor, FlowConfig, FlowKind, FlowRunner, Predictor};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::Design;

use crate::stats::{mean, median, ms_since, peak_rss_mb, quantile, Rng};
use crate::trace::{obs_self_ms, obs_walls, Span, Tracer};
use crate::{Args, Outcome, DESIGN_SEED};

/// Which flow workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DCO-3D on AES at scale 0.03, 224×224 maps, three DCO iterations.
    Dco224,
    /// Pin-3D on Rocket at scale 0.1.
    Pin3d,
}

/// Flow seeds per cycle. Quality metrics are means over one cycle. Single
/// seeds' TNS range from 4.3 ns to 6.7 ns on `dco224`, so the cycle is as
/// long as a run's jobs allow on a slow host.
const CYCLE: usize = 14;

/// Jobs every run measures past one cycle. They repeat the cycle's first
/// seeds, so those are checked against a repeat of themselves.
const REPEATS: usize = 2;

/// A traced job fails when its finest per-layer figures explain less than
/// this share of its wall time (see [`job_layers`]).
const MIN_COVERAGE: f64 = 0.95;

/// The program spans a route stage's per-layer figures come from.
const ROUTE_SPANS: [(&str, &str); 3] = [
    ("route.pattern", "route.pattern_ms"),
    ("route.rrr", "route.rrr_ms"),
    ("route.maze", "route.maze_ms"),
];

impl Workload {
    fn design(self, seed: u64) -> Result<Design, String> {
        let (profile, scale) = match self {
            Workload::Dco224 => (DesignProfile::Aes, 0.03),
            Workload::Pin3d => (DesignProfile::Rocket, 0.1),
        };
        GeneratorConfig::for_profile(profile)
            .with_scale(scale)
            .generate(seed)
            .map_err(|e| format!("design generation failed: {e}"))
    }

    /// Set-ups per run before and after the measured window; `setup_s` is
    /// the median of all of them. Split around the window, they meet more
    /// host phases than back-to-back ones would. Generating the Pin-3D
    /// design alone takes milliseconds, so it repeats more often.
    fn setup_reps(self) -> (usize, usize) {
        match self {
            Workload::Dco224 => (2, 2),
            Workload::Pin3d => (4, 3),
        }
    }

    fn config(self) -> FlowConfig {
        let mut cfg = FlowConfig::default();
        if self == Workload::Dco224 {
            cfg.map_size = 224;
            cfg.train_layouts = 4;
            cfg.train_epochs = 2;
            cfg.dco.max_iter = 3;
        }
        cfg
    }
}

/// Push the set-up layer samples a traced run collected. Training is one
/// call to `dco_flow::train_predictor`; its `unet.train.epoch` spans give
/// `unet.train_ms`, and the rest of the call (building the dataset, fitting
/// the normalization, the final test-set evaluation) gives
/// `flow.dataset_ms`.
pub fn setup_layers(o: &mut Outcome, tracer: &Tracer) {
    for s in &tracer.spans {
        match s.name {
            "netlist.generate" => o.layers.push("netlist.generate_ms", s.ms()),
            "flow.train_predictor" => {
                let epochs = obs_walls(&s.obs, "unet.train.epoch");
                let train_ms: f64 = epochs.iter().sum();
                o.layers.push("flow.dataset_ms", s.ms() - train_ms);
                o.layers.push("unet.train_ms", train_ms);
                o.layers.extend("unet.train_epoch_ms", epochs);
            }
            _ => {}
        }
    }
}

/// The set-ups of one run: their wall times and the first training curve,
/// which every later set-up must reproduce.
#[derive(Debug, Default)]
struct SetUps {
    secs: Vec<f64>,
    first_losses: Option<Vec<u32>>,
}

impl SetUps {
    /// One timed set-up: generate the design and, for DCO-3D, train the
    /// predictor. Training is seeded, so every set-up must train the same
    /// weights.
    fn run(
        &mut self,
        w: Workload,
        cfg: &FlowConfig,
        tracer: &mut Tracer,
        o: &mut Outcome,
    ) -> Result<(Design, Option<Predictor>), String> {
        o.probe.sample();
        let t = Instant::now();
        let design = tracer.time("netlist.generate", || w.design(DESIGN_SEED))?;
        let predictor = (w == Workload::Dco224).then(|| {
            tracer.time("flow.train_predictor", || {
                train_predictor(&design, cfg, DESIGN_SEED)
            })
        });
        self.secs.push(t.elapsed().as_secs_f64());
        if let Some(p) = &predictor {
            let losses: Vec<u32> = p
                .train_result
                .train_loss
                .iter()
                .map(|l| l.to_bits())
                .collect();
            match &self.first_losses {
                Some(f) if *f != losses => o.fail("predictor training is not reproducible"),
                Some(_) => {}
                None => self.first_losses = Some(losses),
            }
        }
        Ok((design, predictor))
    }
}

/// What one flow job produced, as compared across repeats of its seed.
#[derive(Debug, Clone, PartialEq)]
struct JobResult {
    placement_checksum: u64,
    overflow: f64,
    initial_overflow: f64,
    wirelength_um: f64,
    tns_ps: f64,
    rrr_iterations: usize,
    eco_cells: usize,
}

/// Run one flow job: every stage through the public library API.
fn run_job(
    runner: &FlowRunner<'_>,
    kind: FlowKind,
    predictor: Option<&Predictor>,
    seed: u64,
    tracer: &mut Tracer,
) -> JobResult {
    tracer.enter("flow.job");
    let place = tracer.time("place.global", || runner.stage_place(kind, seed));
    let spread = match predictor {
        Some(p) => {
            let dco = tracer.time("dco.stage", || runner.stage_dco(p, &place, seed, None));
            dco.placement
        }
        None => place.placement.clone(),
    };
    let tier = tracer.time("place.tier_assign", || {
        runner.stage_tier_assign(&spread, &place.params)
    });
    let cts = tracer.time("timing.cts", || runner.stage_cts(&tier.placement));
    let route = tracer.time("route.stage", || runner.stage_route(&tier.placement, false));
    let sta = tracer.time("timing.sta", || {
        runner.stage_sta(&tier.placement, &cts, &route)
    });
    tracer.exit();
    JobResult {
        placement_checksum: dco_flow::serve::placement_checksum(&tier.placement),
        overflow: route.overflow_total,
        initial_overflow: route.initial_overflow,
        wirelength_um: sta.signoff.wirelength_um,
        tns_ps: sta.signoff.tns_ps,
        rrr_iterations: route.rrr_iterations,
        eco_cells: sta.signoff.eco_cells,
    }
}

/// Push one traced job's per-layer samples and check how much of the job
/// they explain.
///
/// Coverage is the share of the job's wall time that its finest per-layer
/// figures account for: the program's `dco.iter` spans inside the DCO
/// stage, the self times of its `route.pattern`, `route.rrr` and
/// `route.maze` spans inside the route stage, and the whole span of every
/// stage that has no finer layer. Work the program does outside those
/// spans, or the benchmark between stages, lowers it.
fn job_layers(o: &mut Outcome, tracer: &Tracer, job: u64, r: &JobResult) {
    let Some(root) = tracer
        .spans
        .iter()
        .rposition(|s| s.name == "flow.job" && s.job == job)
    else {
        return;
    };
    let stages: Vec<&Span> = tracer
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .collect();
    let mut explained = 0.0;
    for s in stages {
        let metric = match s.name {
            "place.global" => "place.global_ms",
            "dco.stage" => "dco.stage_ms",
            "place.tier_assign" => "place.tier_assign_ms",
            "timing.cts" => "timing.cts_ms",
            "route.stage" => "route.stage_ms",
            "timing.sta" => "timing.sta_ms",
            _ => continue,
        };
        o.layers.push(metric, s.ms());
        explained += match s.name {
            "dco.stage" => {
                let iters = obs_walls(&s.obs, "dco.iter");
                let sum: f64 = iters.iter().sum();
                o.layers.push("dco.iters", iters.len() as f64);
                o.layers.extend("dco.iter_ms", iters);
                sum
            }
            "route.stage" => {
                let mut sum = 0.0;
                for (span, metric) in ROUTE_SPANS {
                    let ms = obs_self_ms(&s.obs, span);
                    o.layers.push(metric, ms);
                    sum += ms;
                }
                sum
            }
            _ => s.ms(),
        };
    }
    let coverage = explained / tracer.spans[root].ms().max(1e-9);
    o.layers.push("trace.stage_coverage", coverage);
    if coverage < MIN_COVERAGE {
        o.fail(&format!(
            "job {job}: per-layer figures explain {:.1}% of its wall time (< {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    o.layers
        .push("route.rrr_iterations", r.rrr_iterations as f64);
    let cut = if r.initial_overflow > 0.0 {
        1.0 - r.overflow / r.initial_overflow
    } else {
        0.0
    };
    o.layers.push("route.overflow_cut", cut);
    o.layers.push("timing.eco_cells", r.eco_cells as f64);
}

/// Check a job's numbers are sane and match the first run of its seed.
fn check(o: &mut Outcome, first: &mut BTreeMap<u64, JobResult>, seed: u64, r: &JobResult) {
    let plausible = r.overflow.is_finite()
        && r.overflow >= 0.0
        && r.wirelength_um.is_finite()
        && r.wirelength_um > 0.0
        && r.tns_ps.is_finite()
        && r.tns_ps <= 0.0;
    if !plausible {
        o.fail(&format!("flow seed {seed}: implausible result {r:?}"));
    }
    match first.get(&seed) {
        Some(f) if f != r => o.fail(&format!(
            "flow seed {seed}: repeat differs from first run ({f:?} vs {r:?})"
        )),
        Some(_) => {}
        None => {
            first.insert(seed, r.clone());
        }
    }
}

/// Run one flow workload.
pub fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    dco_obs::set_enabled(args.trace);
    let cfg = w.config();
    let kind = if w == Workload::Dco224 {
        FlowKind::Dco3d
    } else {
        FlowKind::Pin3d
    };

    // --- set-up, repeated; the last one before the window is kept ------
    let (before, after) = w.setup_reps();
    let mut setups = SetUps::default();
    let mut state = None;
    for _ in 0..before {
        state = Some(setups.run(w, &cfg, &mut tracer, &mut o)?);
    }
    let Some((design, predictor)) = state else {
        return Err("no set-up ran".into());
    };
    let runner = FlowRunner::new(&design, cfg.clone());

    let mut rng = Rng::new(args.seed, 0xF10);
    let seeds: Vec<u64> = (0..CYCLE).map(|_| rng.next_u64() % 1_000_000 + 1).collect();

    // --- measured window -------------------------------------------------
    // Untraced: one job per step. Traced: each step runs its seed twice,
    // untraced then traced, so the pair gives the tracing overhead and the
    // traced job must reproduce the untraced one bit for bit.
    // The probe reads the host before every job and after the last one.
    let mut all_ms: Vec<f64> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut first: BTreeMap<u64, JobResult> = BTreeMap::new();
    let start = Instant::now();
    let mut step = 0usize;
    while step < CYCLE + REPEATS || start.elapsed().as_secs_f64() < args.seconds {
        o.probe.sample();
        let seed = seeds[step % CYCLE];
        let job = step as u64 + 1;
        tracer.set_job(job);
        if args.trace {
            tracer.set_on(false);
            let t = Instant::now();
            let plain = run_job(&runner, kind, predictor.as_ref(), seed, &mut tracer);
            all_ms.push(ms_since(t));
            tracer.set_on(true);
            let t = Instant::now();
            let traced = run_job(&runner, kind, predictor.as_ref(), seed, &mut tracer);
            traced_ms.push(ms_since(t));
            o.attempted += 2;
            job_layers(&mut o, &tracer, job, &traced);
            check(&mut o, &mut first, seed, &plain);
            check(&mut o, &mut first, seed, &traced);
        } else {
            let t = Instant::now();
            let r = run_job(&runner, kind, predictor.as_ref(), seed, &mut tracer);
            all_ms.push(ms_since(t));
            o.attempted += 1;
            check(&mut o, &mut first, seed, &r);
        }
        step += 1;
    }
    for _ in 0..after {
        setups.run(w, &cfg, &mut tracer, &mut o)?;
    }
    o.probe.sample();
    if args.trace {
        setup_layers(&mut o, &tracer);
        let arena = dco_tensor::arena::scratch_stats();
        let takes = (arena.hits + arena.misses).max(1);
        o.layers
            .push("tensor.arena_hit_ratio", arena.hits as f64 / takes as f64);
        o.layers
            .push("trace.overhead_ratio", median(&traced_ms) / median(&all_ms));
    }

    // --- metrics -----------------------------------------------------------
    let cycle: Vec<&JobResult> = seeds.iter().filter_map(|s| first.get(s)).collect();
    let q = |f: fn(&JobResult) -> f64| mean(&cycle.iter().map(|r| f(r)).collect::<Vec<_>>());
    // One closed-loop client: throughput is the inverse of the job time.
    let job_ms = o.probe.at_ref(median(&all_ms));
    o.metrics = vec![
        ("setup_s", o.probe.at_ref(median(&setups.secs))),
        ("job_norm_ms", job_ms),
        ("jobs_per_s", 1e3 / job_ms),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_frac", 1.0 - o.failed as f64 / o.attempted.max(1) as f64),
        ("overflow", q(|r| r.overflow)),
        ("wirelength_um", q(|r| r.wirelength_um)),
        ("tns_ps", q(|r| -r.tns_ps)),
    ];
    o.extra
        .push(("setup_raw_s".into(), median(&setups.secs), "s"));
    o.extra.push(("job_p50_ms".into(), median(&all_ms), "ms"));
    o.extra
        .push(("job_min_ms".into(), quantile(&all_ms, 0.0), "ms"));
    o.extra
        .push(("job_p90_ms".into(), quantile(&all_ms, 0.9), "ms"));
    o.extra.push(("jobs".into(), o.attempted as f64, "count"));
    o.extra
        .push(("cells".into(), design.netlist.num_cells() as f64, "count"));
    Ok(o)
}
