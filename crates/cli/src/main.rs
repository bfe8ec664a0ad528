//! `dco3d` — the unified CLI for the DCO-3D reproduction.
//!
//! ```text
//! dco3d generate --design LDPC --scale 0.05 --out ldpc      # emit Bookshelf files
//! dco3d place    --design LDPC --scale 0.05 --cong          # place + legalize, report HPWL/cut
//! dco3d route    --design LDPC --scale 0.05                 # route, report overflow
//! dco3d sta      --design LDPC --scale 0.05                 # timing + power report
//! dco3d train    --design LDPC --scale 0.05 --out pred.json # train + save the predictor
//! dco3d dco      --design LDPC --scale 0.05 --predictor pred.json   # run Algorithm 2
//! dco3d flow     --design LDPC --scale 0.05                 # all four Table-III flows
//! dco3d predict  --design LDPC --scale 0.05 --out pred.json # one-shot congestion prediction
//! dco3d serve    --design LDPC --socket /tmp/dco3d.sock     # warm-weights daemon
//! dco3d client   --socket /tmp/dco3d.sock --file jobs.ndjson # drive a running daemon
//! ```
//!
//! All subcommands share `--design <name>`, `--scale <f>`, `--seed <n>`.
//!
//! Exit codes (distinct so CI can assert on the failure class):
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 2 | usage error (unknown subcommand/design, bad `--inject` spec) |
//! | 3 | input / parse / IO failure |
//! | 4 | flow completed but degraded (best-so-far results) |
//! | 5 | a stage panicked on every retry |
//! | 6 | checkpoint directory belongs to a different design/seed |
//! | 7 | flow cancelled before completion (deadline exceeded) |

mod args;

use args::Args;
use dco3d::{DcoConfig, DcoOptimizer};
use dco_flow::serve::{
    predict_result, prediction_checksum, Bind, ServeOptions, WarmState, DEFAULT_MAX_LINE_BYTES,
};
use dco_flow::{
    format_design_block, train_predictor, train_predictor_resilient, CheckpointError, FaultSpec,
    FlowConfig, FlowError, FlowKind, FlowRunner, Predictor, ResilienceOptions,
};
use dco_gnn::{build_node_features, Gcn, GcnConfig};
use dco_netlist::bookshelf;
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::Design;
use dco_place::{legalize, GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_timing::{synthesize_clock_tree, PowerAnalyzer, Sta};
use dco_unet::{load_predictor, save_predictor};
use std::path::{Path, PathBuf};

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    // Worker-count policy for every parallel hot path: `--threads N` wins,
    // then the DCO3D_THREADS env var, then the hardware default (both
    // fallbacks are resolved inside dco-parallel on first use).
    let threads = args.get("threads", 0usize);
    if threads > 0 {
        dco_parallel::set_threads(threads);
    }
    // Observability is opt-in; when off, the instrumented code paths cost a
    // single relaxed atomic load each and record nothing.
    let obs_on = args.flag("obs") || args.flag("obs-report");
    if obs_on {
        dco_obs::set_enabled(true);
        dco_parallel::set_stats_enabled(true);
    }
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "place" => cmd_place(&args),
        "route" => cmd_route(&args),
        "sta" => cmd_sta(&args),
        "train" => cmd_train(&args),
        "dco" => cmd_dco(&args),
        "flow" => cmd_flow(&args),
        "predict" => cmd_predict(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "obs-validate" => cmd_obs_validate(&args),
        "" | "help" | "-h" => {
            print_help();
            Ok(0)
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n");
            print_help();
            std::process::exit(2);
        }
    };
    let result = match (result, obs_on) {
        (Ok(code), true) => finish_obs(&args).map(|()| code),
        (r, _) => r,
    };
    match result {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {}", e.message);
            for cause in &e.chain {
                eprintln!("  caused by: {cause}");
            }
            std::process::exit(e.code);
        }
    }
}

/// A CLI failure: an exit code plus the error's full context chain
/// (collected by walking [`std::error::Error::source`]).
struct CliError {
    code: i32,
    message: String,
    chain: Vec<String>,
}

impl CliError {
    fn with_code(code: i32, err: &dyn std::error::Error) -> Self {
        let mut chain = Vec::new();
        let mut src = err.source();
        while let Some(s) = src {
            chain.push(s.to_string());
            src = s.source();
        }
        Self {
            code,
            message: err.to_string(),
            chain,
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        Self {
            code: 2,
            message: message.into(),
            chain: Vec::new(),
        }
    }
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        Self::with_code(3, &e)
    }
}

/// Map flow errors onto the exit-code taxonomy.
fn flow_error(e: FlowError) -> CliError {
    let code = match &e {
        FlowError::StagePanic { .. } => 5,
        FlowError::Checkpoint(CheckpointError::Mismatch(_)) => 6,
        FlowError::Checkpoint(_) => 3,
        FlowError::MissingPredictor => 2,
        FlowError::Cancelled => 7,
    };
    CliError::with_code(code, &e)
}

type CliResult = Result<i32, CliError>;

/// Publish pool telemetry into the metrics registry, write the
/// `OBS_dco3d.json` artifact, and (with `--obs-report`) print the
/// human-readable span/metric table. Runs once, after the subcommand
/// succeeded, so the artifact reflects the whole process.
fn finish_obs(args: &Args) -> Result<(), CliError> {
    let stats = dco_parallel::pool_stats();
    dco_obs::counter_add("pool.calls", stats.calls);
    dco_obs::counter_add("pool.tasks", stats.tasks);
    dco_obs::counter_add("pool.steals", stats.steals);
    for (worker, busy) in stats.busy_ns.iter().enumerate() {
        dco_obs::gauge_set(&format!("pool.worker.{worker}.busy_ns"), *busy as f64);
    }
    let out = args.get_str("obs-out", dco_obs::report::ARTIFACT_FILE);
    let artifact = dco_obs::report::write_report(Path::new(&out))?;
    dco_obs::report::validate(&artifact).map_err(|msg| CliError {
        code: 3,
        message: format!("observability artifact failed self-validation: {msg}"),
        chain: Vec::new(),
    })?;
    if args.flag("obs-report") {
        let parsed = dco_obs::report::parse_report(&artifact).map_err(|msg| CliError {
            code: 3,
            message: format!("observability artifact failed to parse: {msg}"),
            chain: Vec::new(),
        })?;
        print!("{}", dco_obs::report::render_table(&parsed));
    }
    eprintln!("wrote observability artifact to {out}");
    Ok(())
}

/// `dco3d obs-validate --file OBS_dco3d.json` — parse and structurally
/// validate a previously written observability artifact (for CI gates).
fn cmd_obs_validate(args: &Args) -> CliResult {
    let path = args.get_str("file", dco_obs::report::ARTIFACT_FILE);
    let text = std::fs::read_to_string(&path)?;
    let value: serde_json::Value = serde_json::from_str(&text)?;
    match dco_obs::report::validate(&value) {
        Ok(()) => {
            let parsed = dco_obs::report::parse_report(&value).map_err(|msg| CliError {
                code: 3,
                message: format!("{path}: {msg}"),
                chain: Vec::new(),
            })?;
            let jobs = dco_obs::report::job_rollup(&parsed);
            println!(
                "{path}: valid (version {}, {} spans, {} metrics, {} served jobs)",
                dco_obs::report::ARTIFACT_VERSION,
                parsed.spans.len(),
                parsed.metrics.len(),
                jobs.len()
            );
            if args.flag("jobs") {
                for j in &jobs {
                    println!(
                        "job {} kind={} spans={} wall_ns={} cpu_ns={}",
                        j.job, j.kind, j.spans, j.wall_ns, j.cpu_ns
                    );
                }
            }
            Ok(0)
        }
        Err(msg) => Err(CliError {
            code: 3,
            message: format!("{path}: {msg}"),
            chain: Vec::new(),
        }),
    }
}

fn print_help() {
    println!(
        "dco3d — DCO-3D reproduction CLI\n\n\
         subcommands:\n\
         \x20 generate   emit a synthetic benchmark as Bookshelf files (--out <prefix>)\n\
         \x20 place      3D global placement + legalization (--cong for congestion-driven)\n\
         \x20 route      global routing and overflow report\n\
         \x20 sta        timing and power analysis of the placed+routed design\n\
         \x20 train      train the congestion predictor (--out <file.json>)\n\
         \x20 dco        run differentiable congestion optimization (--predictor <file>,\n\
         \x20            --validate to statically check the autograd tape)\n\
         \x20 flow       run the Table-III flows and print the comparison block\n\
         \x20            --kind <pin3d|pin3d-cong|pin3d-bo|dco3d|all>\n\
         \x20            --resume <dir>    checkpoint each stage; resume from the last good one\n\
         \x20            --inject <spec>   deterministic fault: panic@<stage>, nan@dco,\n\
         \x20                              nan@train, corrupt@<stage>, route-stall\n\
         \x20            --retries <n>     per-stage panic retries (default 1)\n\
         \x20            --map-size/--channels/--layouts/--epochs/--dco-iters  speed knobs\n\
         \x20 predict    one-shot congestion prediction for the baseline placement\n\
         \x20            (--out <file> writes the served-identical result payload)\n\
         \x20 serve      warm-weights daemon: --socket <path> or --listen <addr>\n\
         \x20            accepts predict/delta/spread/flow/status/shutdown jobs as NDJSON\n\
         \x20            (--predictor <file> to skip training; --max-batch <n> coalescing cap)\n\
         \x20            --cheap-cap/--expensive-cap <n>   per-class admission caps (64/8)\n\
         \x20            --max-deadline-ms <ms>  clamp for client deadline_ms (300000)\n\
         \x20            --read-timeout-ms/--write-timeout-ms <ms>  socket timeouts (30000)\n\
         \x20            --idle-strikes <n>      reap after n consecutive read timeouts (10)\n\
         \x20            --max-conns <n>         concurrent connection cap (64)\n\
         \x20            --serve-inject <class:seed[:rate_pct]>  socket chaos (partial-write,\n\
         \x20                                    stall-read, disconnect, delay, mix); also\n\
         \x20                                    honored from DCO3D_SERVE_INJECT\n\
         \x20 client     lockstep NDJSON client: --socket/--connect, --file <requests>,\n\
         \x20            --check exits 4 if any response is ok:false\n\
         \x20            --retries <n> retry overloaded rejections with jittered backoff\n\
         \x20            (--backoff-ms <base>, default 50; honors server retry_after_ms)\n\
         \x20 obs-validate  structurally validate an observability artifact (--file <path>,\n\
         \x20            --jobs to print per-served-job span/wall/cpu attribution)\n\n\
         common options: --design <DMA|AES|ECG|LDPC|VGA|Rocket> --scale <f> --seed <n>\n\
         \x20               --threads <n>  worker threads for parallel hot paths\n\
         \x20               (default: DCO3D_THREADS env var, then all hardware threads;\n\
         \x20               results are bitwise identical at any thread count)\n\
         \x20               --obs          collect spans/metrics, write OBS_dco3d.json\n\
         \x20               --obs-report   same, plus print a human-readable table\n\
         \x20               --obs-out <p>  artifact path (default OBS_dco3d.json)\n\
         exit codes: 0 ok, 2 usage, 3 input/io, 4 degraded, 5 stage panic,\n\
         \x20           6 checkpoint mismatch, 7 deadline exceeded (flow cancelled)"
    );
}

fn load_design(args: &Args) -> Result<Design, CliError> {
    let name = args.get_str("design", "DMA").to_uppercase();
    let profile = DesignProfile::ALL
        .into_iter()
        .find(|p| p.name().to_uppercase() == name)
        .ok_or_else(|| {
            CliError::usage(format!(
                "unknown design `{name}` (try DMA/AES/ECG/LDPC/VGA/Rocket)"
            ))
        })?;
    let scale = args.get("scale", 0.03f64);
    let seed = args.get("seed", 1u64);
    Ok(GeneratorConfig::for_profile(profile)
        .with_scale(scale)
        .generate(seed)?)
}

fn placed(args: &Args, design: &Design) -> dco_netlist::Placement3 {
    let params = if args.flag("cong") {
        PlacementParams::congestion_focused()
    } else {
        PlacementParams::pin3d_baseline()
    };
    let seed = args.get("seed", 1u64);
    let mut p = GlobalPlacer::new(design).place(&params, seed);
    legalize(design, &mut p, params.displacement_threshold);
    p
}

fn cmd_generate(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let prefix = args.get_str("out", "design");
    std::fs::write(
        format!("{prefix}.nodes"),
        bookshelf::to_nodes(&design.netlist),
    )?;
    std::fs::write(
        format!("{prefix}.nets"),
        bookshelf::to_nets(&design.netlist),
    )?;
    std::fs::write(
        format!("{prefix}.pl"),
        bookshelf::to_pl(&design.netlist, &design.placement),
    )?;
    println!(
        "{}: {} cells, {} nets, {} pins -> {prefix}.nodes/.nets/.pl",
        design.name,
        design.netlist.num_cells(),
        design.netlist.num_nets(),
        design.netlist.num_pins()
    );
    Ok(0)
}

fn cmd_place(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let p = placed(args, &design);
    println!(
        "{}: HPWL {:.1} um, cut {}, die {:.1}x{:.1} um",
        design.name,
        p.total_hpwl(&design.netlist),
        p.cut_size(&design.netlist),
        design.floorplan.die.width,
        design.floorplan.die.height
    );
    if let Some(out) = args.options.get("out") {
        std::fs::write(out, bookshelf::to_pl(&design.netlist, &p))?;
        println!("wrote placement to {out}");
    }
    Ok(0)
}

fn cmd_route(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let p = placed(args, &design);
    let cfg = RouterConfig {
        rrr_iterations: args.get("rrr", 6usize),
        maze_margin: args.get("maze", 8usize),
        ..RouterConfig::default()
    };
    let r = Router::new(&design, cfg).route(&p);
    println!(
        "{}: overflow {:.0} (H {:.0} / V {:.0}), {:.2}% GCells, WL {:.0} um, {} bonds",
        design.name,
        r.report.total,
        r.report.h_overflow,
        r.report.v_overflow,
        r.report.overflow_gcell_pct,
        r.wirelength,
        r.bond_count
    );
    if args.flag("map") {
        println!("bottom-die congestion:\n{}", r.congestion[0].to_ascii());
    }
    Ok(0)
}

fn cmd_sta(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let p = placed(args, &design);
    let r = Router::new(&design, RouterConfig::default()).route(&p);
    let cts = synthesize_clock_tree(&design, &p);
    let mut sta = Sta::new(&design);
    sta.setup_ps += cts.skew_ps;
    let t = sta.analyze(&p, Some(&r.net_lengths), Some(&r.net_bonds));
    let pw = PowerAnalyzer::new(&design).analyze(&p, Some(&r.net_lengths));
    println!(
        "{}: WNS {:.1} ps, TNS {:.0} ps ({} violations), clock skew {:.2} ps",
        design.name, t.wns_ps, t.tns_ps, t.violations, cts.skew_ps
    );
    println!(
        "power {:.3} mW (switching {:.3} + internal {:.3} + leakage {:.3})",
        pw.total_mw(),
        pw.switching_mw,
        pw.internal_mw,
        pw.leakage_mw
    );
    Ok(0)
}

fn cmd_train(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let seed = args.get("seed", 1u64);
    let mut cfg = FlowConfig::default();
    cfg.train_layouts = args.get("layouts", cfg.train_layouts);
    cfg.train_epochs = args.get("epochs", cfg.train_epochs);
    let predictor = train_predictor(&design, &cfg, seed);
    let m = &predictor.train_result;
    let mean_nrmse =
        m.test_metrics.iter().map(|x| x.nrmse).sum::<f32>() / m.test_metrics.len().max(1) as f32;
    println!(
        "trained on {} layouts for {} epochs: final train loss {:.4}, test NRMSE {:.3}",
        cfg.train_layouts,
        cfg.train_epochs,
        m.train_loss.last().copied().unwrap_or(f32::NAN),
        mean_nrmse
    );
    let out = args.get_str("out", "predictor.json");
    save_predictor(&out, &predictor.unet, &predictor.normalization)?;
    println!("saved predictor to {out}");
    Ok(0)
}

fn cmd_dco(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let seed = args.get("seed", 1u64);
    let predictor_path = args.get_str("predictor", "predictor.json");
    let (unet, norm) = load_predictor(&predictor_path)?;
    let params = PlacementParams::pin3d_baseline();
    let before = GlobalPlacer::new(&design).place(&params, seed);
    let timing = Sta::new(&design).analyze(&before, None, None);
    let features = build_node_features(&design, &before, &timing);
    let cfg = DcoConfig {
        max_iter: args.get("iters", DcoConfig::default().max_iter),
        enable_z: !args.flag("no-z"),
        validate_graph: args.flag("validate"),
        ..DcoConfig::default()
    };
    let mut dco = DcoOptimizer::new(
        &design,
        &unet,
        &norm,
        features,
        Gcn::new(GcnConfig::default(), seed),
        cfg,
    );
    let result = dco.run(&before);
    if args.flag("validate") {
        println!(
            "graph validation: {} diagnostic(s)",
            result.diagnostics.len()
        );
        for d in &result.diagnostics {
            println!("  {d}");
        }
    }
    let mut after = result.placement.clone();
    legalize(&design, &mut after, params.displacement_threshold);
    let mut base = before.clone();
    legalize(&design, &mut base, params.displacement_threshold);
    let router = Router::new(&design, RouterConfig::default());
    let (rb, ra) = (router.route(&base), router.route(&after));
    println!(
        "DCO ({} iterations, converged: {}): overflow {:.0} -> {:.0} ({:+.1}%)",
        result.iterations,
        result.converged,
        rb.report.total,
        ra.report.total,
        100.0 * (ra.report.total - rb.report.total) / rb.report.total.max(1.0)
    );
    if let Some(out) = args.options.get("out") {
        std::fs::write(out, bookshelf::to_pl(&design.netlist, &after))?;
        println!("wrote optimized placement to {out}");
    }
    Ok(0)
}

/// Assemble the warm state shared by `predict` and `serve`: the generated
/// design, the flow configuration, and a trained predictor (loaded from
/// `--predictor <file>` when given, trained in-process otherwise).
fn warm_state(args: &Args) -> Result<WarmState, CliError> {
    let design = load_design(args)?;
    let seed = args.get("seed", 1u64);
    let cfg = flow_config(args);
    let predictor = if let Some(path) = args.options.get("predictor") {
        let (unet, normalization) = load_predictor(path)?;
        Predictor::from_weights(unet, normalization)
    } else {
        eprintln!("training predictor ...");
        train_predictor(&design, &cfg, seed)
    };
    Ok(WarmState::new(design, cfg, predictor))
}

/// `dco3d predict` — the one-shot counterpart of the served `predict`
/// job: baseline placement at `--seed`, one forward pass, the same result
/// payload. `--out <file>` writes the payload so CI and tests can diff it
/// bitwise against a daemon response.
fn cmd_predict(args: &Args) -> CliResult {
    let state = warm_state(args)?;
    let seed = args.get("seed", 1u64);
    let placement = state.baseline_placement(seed);
    let maps = state.predict(&placement);
    println!(
        "{}: predicted congestion {}x{} per die, checksum {:016x}, max {:.3}/{:.3}",
        state.design().name,
        maps[0].nx(),
        maps[0].ny(),
        prediction_checksum(&maps),
        maps[0].max(),
        maps[1].max()
    );
    if let Some(out) = args.options.get("out") {
        std::fs::write(out, serde_json::to_string(&predict_result(&maps))?)?;
        println!("wrote prediction to {out}");
    }
    Ok(0)
}

/// Resolve the listener spec: `--socket <path>` (unix) or `--listen
/// <addr>` (TCP; port 0 picks a free port).
fn bind_from_args(args: &Args) -> Result<Bind, CliError> {
    match (args.options.get("socket"), args.options.get("listen")) {
        (Some(path), None) => Ok(Bind::Unix(PathBuf::from(path))),
        (None, Some(addr)) => Ok(Bind::Tcp(addr.clone())),
        (Some(_), Some(_)) => Err(CliError::usage(
            "--socket and --listen are mutually exclusive",
        )),
        (None, None) => Err(CliError::usage(
            "serve needs --socket <path> or --listen <addr>",
        )),
    }
}

/// `dco3d serve` — hold the design and trained predictor warm and answer
/// predict/spread/flow/status jobs over newline-delimited JSON until a
/// client sends `shutdown`.
fn cmd_serve(args: &Args) -> CliResult {
    use std::io::Write as _;
    let state = warm_state(args)?;
    let bind = bind_from_args(args)?;
    let defaults = ServeOptions::default();
    let inject = match args.options.get("serve-inject") {
        Some(spec) => Some(
            spec.parse::<dco_flow::serve::ServeInjectSpec>()
                .map_err(|e| CliError::usage(e.to_string()))?,
        ),
        None => None,
    };
    let opts = ServeOptions {
        max_line_bytes: args.get("max-line-bytes", DEFAULT_MAX_LINE_BYTES),
        max_batch: args.get("max-batch", defaults.max_batch),
        default_spread_iters: args.get("spread-iters", defaults.default_spread_iters),
        queue_caps: dco_flow::serve::QueueCaps {
            cheap: args.get("cheap-cap", defaults.queue_caps.cheap),
            expensive: args.get("expensive-cap", defaults.queue_caps.expensive),
        },
        max_deadline_ms: args.get("max-deadline-ms", defaults.max_deadline_ms),
        read_timeout_ms: args.get("read-timeout-ms", defaults.read_timeout_ms),
        write_timeout_ms: args.get("write-timeout-ms", defaults.write_timeout_ms),
        idle_strikes: args.get("idle-strikes", defaults.idle_strikes),
        max_conns: args.get("max-conns", defaults.max_conns),
        inject,
    };
    let handle = dco_flow::serve::serve(state, bind, opts)?;
    // Scripted clients block on this exact line to know the socket is live.
    println!("listening on {}", handle.addr());
    std::io::stdout().flush()?;
    let stats = handle.join()?;
    println!(
        "served {} predict ({} batches, max batch {}), {} delta, {} spread, {} flow, {} status, {} errors",
        stats.predict,
        stats.batches,
        stats.max_batch_observed,
        stats.delta,
        stats.spread,
        stats.flow,
        stats.status,
        stats.errors
    );
    println!(
        "overload: {} shed, {} deadline-exceeded, {} conns rejected, {} conns reaped",
        stats.shed, stats.deadline_exceeded, stats.conns_rejected, stats.conns_reaped
    );
    Ok(0)
}

/// Is this response line an `overloaded` rejection, and if so what
/// backoff did the server suggest?
fn overloaded_hint(resp: &str) -> Option<u64> {
    let v: serde_json::Value = serde_json::from_str(resp).ok()?;
    let err = v.get("error")?;
    match err.get("kind")? {
        serde_json::Value::String(kind) if kind == "overloaded" => {}
        _ => return None,
    }
    Some(match err.get("retry_after_ms") {
        Some(serde_json::Value::Number(ms)) if *ms >= 0.0 => *ms as u64,
        _ => 0,
    })
}

/// Deterministic jitter for retry `attempt` of request line `line_idx`:
/// a hash-derived 0..base spread, so concurrent scripted clients don't
/// retry in lockstep yet every run replays identically.
fn retry_jitter_ms(base_ms: u64, line_idx: u64, attempt: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let mut z = line_idx
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % base_ms
}

/// `dco3d client` — drive a running daemon in lockstep: send one request
/// line, print the response line, repeat. Requests come from `--file
/// <path>` or stdin. With `--check`, any `"ok":false` response makes the
/// exit code 4. With `--retries <n>`, `overloaded` rejections are retried
/// with jittered exponential backoff (base `--backoff-ms`, default 50),
/// always waiting at least the server's `retry_after_ms` hint.
fn cmd_client(args: &Args) -> CliResult {
    use std::io::{BufRead as _, BufReader, Read, Write};
    let (read_half, mut write_half): (Box<dyn Read>, Box<dyn Write>) =
        match (args.options.get("socket"), args.options.get("connect")) {
            (Some(path), None) => {
                let s = std::os::unix::net::UnixStream::connect(path)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            (None, Some(addr)) => {
                let s = std::net::TcpStream::connect(addr.as_str())?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            _ => {
                return Err(CliError::usage(
                    "client needs exactly one of --socket <path> or --connect <addr>",
                ))
            }
        };
    let retries = args.get("retries", 0u64);
    let backoff_ms = args.get("backoff-ms", 50u64);
    let mut responses = BufReader::new(read_half);
    let input: Box<dyn std::io::BufRead> = match args.options.get("file") {
        Some(f) => Box::new(BufReader::new(std::fs::File::open(f)?)),
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let mut failures = 0usize;
    for (line_idx, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut attempt = 0u64;
        loop {
            write_half.write_all(line.as_bytes())?;
            write_half.write_all(b"\n")?;
            write_half.flush()?;
            let mut resp = String::new();
            if responses.read_line(&mut resp)? == 0 {
                return Err(CliError {
                    code: 3,
                    message: "server closed the connection mid-session".to_string(),
                    chain: Vec::new(),
                });
            }
            // A rejected job never started executing, so resending the
            // same id cannot double-execute it.
            if let Some(hint_ms) = overloaded_hint(&resp) {
                if attempt < retries {
                    let backoff = backoff_ms.saturating_mul(1 << attempt.min(10))
                        + retry_jitter_ms(backoff_ms, line_idx as u64, attempt);
                    let wait = hint_ms.max(backoff);
                    eprintln!("overloaded; retry {}/{retries} in {wait} ms", attempt + 1);
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                    attempt += 1;
                    continue;
                }
            }
            print!("{resp}");
            if resp.contains("\"ok\":false") {
                failures += 1;
            }
            break;
        }
    }
    if args.flag("check") && failures > 0 {
        eprintln!("{failures} request(s) failed");
        return Ok(4);
    }
    Ok(0)
}

/// Flow-level knobs shared by `flow` runs; small values make CI fast.
fn flow_config(args: &Args) -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.map_size = args.get("map-size", cfg.map_size);
    cfg.unet_channels = args.get("channels", cfg.unet_channels);
    cfg.train_layouts = args.get("layouts", cfg.train_layouts);
    cfg.train_epochs = args.get("epochs", cfg.train_epochs);
    cfg.dco.max_iter = args.get("dco-iters", cfg.dco.max_iter);
    cfg
}

/// Resilience knobs shared by `flow` runs: `--resume <dir>` enables
/// checkpoint/resume, `--inject <spec>` arms one deterministic fault,
/// `--retries <n>` bounds per-stage panic retries.
fn resilience_options(args: &Args) -> Result<ResilienceOptions, CliError> {
    let inject = match args.options.get("inject") {
        Some(spec) => Some(
            spec.parse::<FaultSpec>()
                .map_err(|e| CliError::usage(e.to_string()))?,
        ),
        None => None,
    };
    Ok(ResilienceOptions {
        checkpoint_dir: args.options.get("resume").map(PathBuf::from),
        isolate_panics: true,
        max_stage_retries: args.get("retries", 1usize),
        inject,
        cancel: dco_parallel::CancelToken::never(),
    })
}

fn cmd_flow(args: &Args) -> CliResult {
    let design = load_design(args)?;
    let seed = args.get("seed", 1u64);
    let cfg = flow_config(args);
    let opts = resilience_options(args)?;
    let kinds: Vec<FlowKind> = match args.get_str("kind", "all").as_str() {
        "all" => FlowKind::ALL.to_vec(),
        one => vec![FlowKind::ALL
            .into_iter()
            .find(|k| k.slug() == one)
            .ok_or_else(|| {
                CliError::usage(format!(
                    "unknown flow kind `{one}` (try pin3d/pin3d-cong/pin3d-bo/dco3d/all)"
                ))
            })?],
    };
    let mut degraded = false;

    let predictor: Option<Predictor> = if !kinds.contains(&FlowKind::Dco3d) {
        None
    } else if let Some(path) = args.options.get("predictor") {
        let (unet, normalization) = load_predictor(path)?;
        Some(Predictor::from_weights(unet, normalization))
    } else {
        eprintln!("training predictor ...");
        let (p, report) =
            train_predictor_resilient(&design, &cfg, seed, &opts).map_err(flow_error)?;
        for event in &report.events {
            eprintln!("  recovery[train]: {event}");
        }
        degraded |= report.degraded;
        Some(p)
    };

    let runner = FlowRunner::new(&design, cfg);
    let mut outcomes = Vec::new();
    for kind in kinds {
        eprintln!("running {} ...", kind.label());
        let p = if kind == FlowKind::Dco3d {
            predictor.as_ref()
        } else {
            None
        };
        let resilient = runner
            .run_resilient(kind, seed, p, &opts)
            .map_err(flow_error)?;
        for event in &resilient.report.events {
            eprintln!("  recovery[{}]: {event}", kind.slug());
        }
        degraded |= resilient.report.degraded;
        outcomes.push(resilient.outcome);
    }
    println!("{}", format_design_block(&design, &outcomes));
    if degraded {
        eprintln!("warning: flow finished with best-so-far (degraded) results");
        return Ok(4);
    }
    Ok(0)
}
