//! `bench_suite` — the reproducible parallel-scaling benchmark suite.
//!
//! Times every `dco-parallel` hot path (conv2d forward/backward, matmul,
//! placement, routing, STA, and optionally a full Pin-3D flow) across a
//! sweep of thread counts, and emits `BENCH_dco3d.json` with wall times,
//! speedups vs `--threads 1`, and FNV-1a output checksums.
//!
//! The exit code gates two things:
//!
//! - **determinism** — the process fails when any benchmark's output
//!   checksum differs between thread counts;
//! - **single-core overhead** — on a machine with one hardware thread
//!   (`dco_parallel::hardware_parallelism() == 1`, this repo's CI), wall
//!   time at `--threads > 1` must stay within 1.25x of `--threads 1`
//!   (plus a small absolute epsilon for timer noise). The adaptive
//!   sequential fallback in dco-parallel is what makes this hold: with no
//!   real parallelism available, spawning workers is pure overhead, so
//!   the helpers collapse to the sequential path.
//!
//! Speedups on multi-core machines are recorded but never gated —
//! container CPU quotas make wall-clock ratios unreliable there, while
//! bitwise output equality is machine-independent. See BENCHMARKS.md for
//! the reporting convention.
//!
//! `--paper` switches to the **paper-scale tier**: 224×224 congestion
//! maps (the size DCO-3D trains and optimizes at), a UNet `predict`, one
//! DCO iteration, and a matmul/conv sweep at UNet-shaped operands. Paper
//! runs additionally
//!
//! - benchmark the packed conv2d kernel against the retained pre-blocking
//!   reference in the same process and gate on the machine-independent
//!   ratio (`speedup_vs_reference`), and
//! - append a wall-time **trajectory** entry to the report so speed can
//!   be tracked across PRs, gating single-thread regressions against the
//!   previous entry when the machine fingerprint matches.
//!
//! ```sh
//! cargo run --release -p dco-bench --bin bench_suite -- --quick
//! cargo run --release -p dco-bench --bin bench_suite -- --threads 1,2,4 --reps 5
//! cargo run --release -p dco-bench --bin bench_suite -- --paper
//! ```

use dco3d::{DcoConfig, DcoOptimizer, SmoothDensity, SoftRasterizer};
use dco_features::{DieFeatures, FeatureExtractor, SoftAssignment};
use dco_flow::{FlowConfig, FlowKind, FlowRunner, IncrementalEval, Predictor};
use dco_gnn::{build_adjacency, build_node_features, Gcn};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::{Design, GcellGrid};
use dco_place::{fm_bipartition, legalize, GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_tensor::conv::{
    bias_chan_backward, conv2d_backward_input, conv2d_backward_weight, conv2d_forward,
    conv2d_forward_reference, conv_transpose2d_forward,
};
use dco_tensor::{CustomOp, Graph, Tensor};
use dco_timing::{PowerAnalyzer, Sta};
use dco_unet::{Normalization, SiameseUNet, UNetConfig};
use serde_json::{json, Value};
use std::rc::Rc;
use std::time::Instant;

/// One benchmark at one thread count.
struct Run {
    threads: usize,
    wall_ms: f64,
    checksum: u64,
}

/// One benchmark across the whole thread sweep.
struct Entry {
    name: &'static str,
    runs: Vec<Run>,
    deterministic: bool,
}

/// Time `run` at every thread count: one warmup, then `reps` timed runs
/// keeping the best (min) wall time. `check` reduces the run's output to an
/// FNV checksum *outside* the timed window, so serial checksum folding never
/// pollutes the parallel-scaling numbers. Run-to-run checksum drift at a
/// fixed thread count is a hard error (non-determinism that not even a
/// serial run would excuse).
fn sweep<O>(
    name: &'static str,
    threads: &[usize],
    reps: usize,
    run: impl Fn() -> O,
    check: impl Fn(&O) -> u64,
) -> Entry {
    let mut runs = Vec::new();
    for &n in threads {
        dco_parallel::set_threads(n);
        let mut best = f64::INFINITY;
        let mut checksum = check(&run()); // warmup (also seeds the checksum)
        for _ in 0..reps {
            // bench-timed: sweep
            let t0 = Instant::now();
            let o = run();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            // bench-timed: end
            let c = check(&o);
            assert_eq!(
                c, checksum,
                "{name}: output drifted between runs at --threads {n}"
            );
            checksum = c;
        }
        runs.push(Run {
            threads: n,
            wall_ms: best,
            checksum,
        });
        eprintln!("  {name:<24} threads={n:<2} {best:>10.3} ms  checksum {checksum:#018x}");
    }
    let deterministic = runs.windows(2).all(|w| w[0].checksum == w[1].checksum);
    Entry {
        name,
        runs,
        deterministic,
    }
}

/// All three conv2d gradients `(grad_x, grad_w, grad_b)`, as training
/// computes them.
fn conv2d_grads(x: &Tensor, w: &Tensor, gy: &Tensor) -> (Tensor, Tensor, Tensor) {
    (
        conv2d_backward_input(x.shape(), w, 1, 1, gy),
        conv2d_backward_weight(x, w.shape(), 1, 1, gy),
        bias_chan_backward(gy),
    )
}

fn checksum_grads((gx, gw, gb): &(Tensor, Tensor, Tensor)) -> u64 {
    let mut c = dco_parallel::checksum_f32(gx.data());
    c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(gw.data()));
    dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(gb.data()))
}

fn bench_design(scale: f64) -> Design {
    GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(scale)
        .generate(11)
        .expect("design generation is infallible for the DMA profile")
}

fn checksum_placement(p: &dco_netlist::Placement3) -> u64 {
    let x = dco_parallel::checksum_f64(p.xs());
    dco_parallel::checksum_combine(x, dco_parallel::checksum_f64(p.ys()))
}

/// A 1%-of-cells placement delta for the incremental-speedup gate: a
/// spatially local cluster of cells, each nudged by a half GCell pitch.
///
/// Incremental engines exist for local edits — a DCO step nudging one
/// neighborhood — so the benchmarked delta has to be one, or the
/// invalidated region (every moved cell's footprint plus the pin bbox of
/// every incident net) degenerates to the whole die and the measurement
/// says nothing. Selection is deterministic: for each die corner, take the
/// cells whose whole dirty rect fits in a window at that corner, grow the
/// set greedily to 1% of cells minimizing the UNet crop the union implies
/// (dirty bbox plus the receptive-field margin, clamped at the die edges —
/// corner clusters pay the margin once per axis instead of twice), and
/// keep the corner with the smallest final crop.
fn incremental_delta(design: &Design, placed: &dco_netlist::Placement3) -> dco_netlist::Placement3 {
    let nl = &design.netlist;
    let grid = design.floorplan.grid;
    let num_cells = nl.num_cells();
    type Rect = (f64, f64, f64, f64);
    let mut rects: Vec<Rect> = Vec::with_capacity(num_cells);
    for id in nl.cell_ids() {
        let c = nl.cell(id);
        let (x, y) = (placed.x(id), placed.y(id));
        let (mut xl, mut yl, mut xh, mut yh) = (x, y, x + c.width, y + c.height);
        for &pid in nl.cell_pins(id) {
            let net = nl.pin(pid).net;
            for &p2 in &nl.net(net).pins {
                let q = nl.pin(p2);
                let (px, py) = (placed.x(q.cell) + q.offset.0, placed.y(q.cell) + q.offset.1);
                xl = xl.min(px);
                yl = yl.min(py);
                xh = xh.max(px);
                yh = yh.max(py);
            }
        }
        rects.push((xl, yl, xh, yh));
    }
    let union = |a: Rect, b: Rect| (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3));
    let k = (num_cells / 100).max(1);
    let (die_w, die_h) = (grid.nx as f64 * grid.dx, grid.ny as f64 * grid.dy);
    let model = 224.0;
    let margin_x = 2.0 * dco_unet::RF_RADIUS as f64 / model * die_w;
    let margin_y = 2.0 * dco_unet::RF_RADIUS as f64 / model * die_h;
    let clamped_crop = |r: Rect| {
        let w = ((r.2 + margin_x).min(die_w) - (r.0 - margin_x).max(0.0)).max(0.0);
        let h = ((r.3 + margin_y).min(die_h) - (r.1 - margin_y).max(0.0)).max(0.0);
        w * h
    };
    let mut best_set: Vec<usize> = Vec::new();
    let mut best_crop = f64::INFINITY;
    for (cx, cy) in [(0.0, 0.0), (die_w, 0.0), (0.0, die_h), (die_w, die_h)] {
        let mut cand: Vec<usize> = Vec::new();
        for wfrac in [0.2, 0.3, 0.45, 0.7, 1.0] {
            let (ww, wh) = (die_w * wfrac, die_h * wfrac);
            cand = (0..num_cells)
                .filter(|&i| {
                    let r = rects[i];
                    (r.0 - cx).abs().max((r.2 - cx).abs()) <= ww
                        && (r.1 - cy).abs().max((r.3 - cy).abs()) <= wh
                })
                .collect();
            if cand.len() >= k + 8 {
                break;
            }
        }
        if cand.len() < k {
            continue;
        }
        let mut seed_order = cand.clone();
        seed_order.sort_by(|&a, &b| {
            clamped_crop(rects[a])
                .total_cmp(&clamped_crop(rects[b]))
                .then(a.cmp(&b))
        });
        for &seed in seed_order.iter().take(32) {
            let mut set = vec![seed];
            let mut cur = rects[seed];
            let mut used = vec![false; num_cells];
            used[seed] = true;
            while set.len() < k {
                let mut pick = None;
                let mut pick_area = f64::INFINITY;
                for &i in &cand {
                    if used[i] {
                        continue;
                    }
                    let a = clamped_crop(union(cur, rects[i]));
                    if a < pick_area {
                        pick_area = a;
                        pick = Some(i);
                    }
                }
                let Some(i) = pick else { break };
                used[i] = true;
                cur = union(cur, rects[i]);
                set.push(i);
            }
            if set.len() < k {
                continue;
            }
            let c = clamped_crop(cur);
            if c < best_crop {
                best_crop = c;
                best_set = set;
            }
        }
    }
    assert!(
        best_set.len() == k,
        "incremental gate: no corner cluster of {k} cells found"
    );
    let mut moved = placed.clone();
    for &i in &best_set {
        let id = dco_netlist::CellId(i as u32);
        let (x, y) = (moved.x(id), moved.y(id));
        moved.set_xy(id, x + grid.dx * 0.5, y + grid.dy * 0.25);
    }
    moved
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut paper = false;
    let mut threads: Vec<usize> = Vec::new();
    let mut reps = 3usize;
    let mut out = String::from("BENCH_dco3d.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--paper" => paper = true,
            "--threads" => {
                let v = it.next().expect("--threads needs a comma-separated list");
                threads = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--threads entries must be integers")
                    })
                    .collect();
            }
            "--reps" => {
                reps = it
                    .next()
                    .expect("--reps needs a count")
                    .parse()
                    .expect("--reps must be an integer");
            }
            "--out" => out = it.next().expect("--out needs a path").clone(),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_suite [--quick | --paper] [--threads 1,2,4] [--reps N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    if threads.is_empty() {
        // The paper tier pins the thread-invariance contract at 1/2/8.
        threads = if paper { vec![1, 2, 8] } else { vec![1, 2, 4] };
    }
    assert!(
        threads.contains(&1),
        "the sweep must include --threads 1 (the speedup baseline)"
    );
    assert!(
        !(quick && paper),
        "--quick and --paper are mutually exclusive tiers"
    );

    eprintln!(
        "bench_suite: threads {threads:?}, reps {reps}, {} sizes",
        if paper {
            "paper"
        } else if quick {
            "quick"
        } else {
            "full"
        }
    );

    let mut entries = Vec::new();
    let mut incremental_speedup: Option<f64> = None;
    if paper {
        // --- paper-scale tier: 224×224 maps, the size DCO-3D runs at ------
        // conv shapes mirror the UNet encoder: enc1 is 7→8 channels at
        // 224×224 (im2col GEMM of [8, 63] × [63, 50176]), enc2 is 8→16 at
        // 112×112 after pooling.
        let x224 = Tensor::from_vec(
            (0..7 * 224 * 224)
                .map(|i| ((i as f32) * 0.731).sin())
                .collect(),
            &[1, 7, 224, 224],
        );
        let w224 = Tensor::from_vec(
            (0..8 * 7 * 9).map(|i| ((i as f32) * 0.17).cos()).collect(),
            &[8, 7, 3, 3],
        );
        let b224 = Tensor::from_vec((0..8).map(|i| i as f32 * 0.01).collect(), &[8]);
        let y224 = conv2d_forward(&x224, &w224, Some(&b224), 1, 1);
        let gy224 = y224.map(|v| (v * 0.3).tanh());
        let x112 = Tensor::from_vec(
            (0..8 * 112 * 112)
                .map(|i| ((i as f32) * 0.417).sin())
                .collect(),
            &[1, 8, 112, 112],
        );
        let w112 = Tensor::from_vec(
            (0..16 * 8 * 9).map(|i| ((i as f32) * 0.23).cos()).collect(),
            &[16, 8, 3, 3],
        );
        // The two speedup-gate benches get extra reps: the min-wall ratio
        // is the gated quantity, so both sides need a quiet-minimum sample
        // even on noisy shared CI machines.
        let gate_reps = reps.max(7);
        entries.push(sweep(
            "conv2d_forward_224",
            &threads,
            gate_reps,
            || conv2d_forward(&x224, &w224, Some(&b224), 1, 1),
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        entries.push(sweep(
            "conv2d_forward_224_reference",
            &threads,
            gate_reps,
            || conv2d_forward_reference(&x224, &w224, Some(&b224), 1, 1),
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        entries.push(sweep(
            "conv2d_forward_112_c16",
            &threads,
            reps,
            || conv2d_forward(&x112, &w112, None, 1, 1),
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        entries.push(sweep(
            "conv2d_backward_224",
            &threads,
            reps,
            || conv2d_grads(&x224, &w224, &gy224),
            checksum_grads,
        ));
        // What a frozen-weight backward (a DCO iteration) runs: the input
        // gradient alone.
        entries.push(sweep(
            "conv2d_backward_input_224",
            &threads,
            reps,
            || conv2d_backward_input(x224.shape(), &w224, 1, 1, &gy224),
            |gx| dco_parallel::checksum_f32(gx.data()),
        ));
        // The heaviest op of that backward in the flow: the decoder's last
        // 3×3 conv (`dec2`, 12 → 6 channels at the flow's UNet width 6).
        let w_dec = Tensor::from_vec(
            (0..6 * 12 * 9).map(|i| ((i as f32) * 0.41).cos()).collect(),
            &[6, 12, 3, 3],
        );
        let gy_dec = Tensor::from_vec(
            (0..6 * 224 * 224)
                .map(|i| ((i as f32) * 0.263).sin())
                .collect(),
            &[1, 6, 224, 224],
        );
        entries.push(sweep(
            "conv2d_backward_input_224_dec",
            &threads,
            reps,
            || conv2d_backward_input(&[1, 12, 224, 224], &w_dec, 1, 1, &gy_dec),
            |gx| dco_parallel::checksum_f32(gx.data()),
        ));
        // The decoder's last up-sampling (up2): 2×2 stride-2 transposed
        // conv, 16 → 8 channels, 112×112 → 224×224.
        let xt = Tensor::from_vec(
            (0..16 * 112 * 112)
                .map(|i| ((i as f32) * 0.379).sin())
                .collect(),
            &[1, 16, 112, 112],
        );
        let wt = Tensor::from_vec(
            (0..16 * 8 * 4).map(|i| ((i as f32) * 0.29).cos()).collect(),
            &[16, 8, 2, 2],
        );
        let bt = Tensor::from_vec((0..8).map(|i| i as f32 * 0.02).collect(), &[8]);
        entries.push(sweep(
            "conv_transpose2d_forward_224",
            &threads,
            reps,
            || conv_transpose2d_forward(&xt, &wt, Some(&bt), 2, 0),
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        let a512 = Tensor::from_vec(
            (0..512 * 512).map(|i| ((i as f32) * 0.013).sin()).collect(),
            &[512, 512],
        );
        entries.push(sweep(
            "matmul_512",
            &threads,
            reps,
            || a512.matmul(&a512),
            |m| dco_parallel::checksum_f32(m.data()),
        ));
        // The bottleneck-level GEMM shape: [C_out, C_in·KH·KW] × [·, OH·OW].
        let au = Tensor::from_vec(
            (0..64 * 576).map(|i| ((i as f32) * 0.019).sin()).collect(),
            &[64, 576],
        );
        let bu = Tensor::from_vec(
            (0..576 * 3136)
                .map(|i| ((i as f32) * 0.007).cos())
                .collect(),
            &[576, 3136],
        );
        entries.push(sweep(
            "matmul_unet_shape",
            &threads,
            reps,
            || au.matmul(&bu),
            |m| dco_parallel::checksum_f32(m.data()),
        ));
        // Full-model inference at paper size: Siamese UNet predict on a
        // 224×224 feature pair — the served `predict` hot path.
        let unet = SiameseUNet::new(
            UNetConfig {
                size: 224,
                ..UNetConfig::default()
            },
            3,
        );
        let f1 = x224.map(|v| (v * 0.7).cos());
        entries.push(sweep(
            "unet_predict_224",
            &threads,
            reps,
            || unet.predict(&x224, &f1),
            |(c0, c1)| {
                let c = dco_parallel::checksum_f32(c0.data());
                dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(c1.data()))
            },
        ));
        // One DCO iteration at paper scale: rasterize → UNet forward →
        // four-term loss → backward through the frozen UNet to the GCN.
        let design = bench_design(0.04);
        let params = PlacementParams::default();
        let placed = GlobalPlacer::new(&design).place(&params, 11);
        let timing = Sta::new(&design).analyze(&placed, None, None);
        let features = build_node_features(&design, &placed, &timing);
        let norm = Normalization {
            channel_scale: [1.0; 7],
            label_scale: 1.0,
        };
        let dco_cfg = DcoConfig {
            max_iter: 1,
            ..DcoConfig::default()
        };
        entries.push(sweep(
            "dco_iter_224",
            &threads,
            reps.min(2),
            || {
                let mut dco = DcoOptimizer::new(
                    &design,
                    &unet,
                    &norm,
                    features.clone(),
                    Gcn::new(11),
                    dco_cfg.clone(),
                );
                dco.run(&placed)
            },
            |r| checksum_placement(&r.placement),
        ));

        // The two custom ops of that iteration, forward plus backward, on
        // its design and placement with a fixed soft z and upstream
        // gradient: the soft rasterizer (Eq. 6 backward) and the smooth
        // density (Eq. 8-10).
        let nl = Rc::new(design.netlist.clone());
        let n = nl.num_cells();
        let to_tensor = |v: &[f64]| Tensor::from_vec(v.iter().map(|&c| c as f32).collect(), &[n]);
        let (px, py) = (to_tensor(placed.xs()), to_tensor(placed.ys()));
        let pz = Tensor::from_vec(
            (0..n)
                .map(|i| 0.5 + 0.45 * ((i as f32) * 0.37).sin())
                .collect(),
            &[n],
        );
        let grid224 = GcellGrid {
            nx: 224,
            ny: 224,
            dx: design.floorplan.die.width / 224.0,
            dy: design.floorplan.die.height / 224.0,
        };
        let op_sweep = |name: &'static str, op: &dyn CustomOp| {
            let inputs = [&px, &py, &pz];
            let out = op.forward(&inputs);
            let upstream = Tensor::from_vec(
                (0..out.len()).map(|i| ((i as f32) * 0.61).sin()).collect(),
                out.shape(),
            );
            sweep(
                name,
                &threads,
                reps,
                || {
                    let out = op.forward(&inputs);
                    let grads = op.backward(&inputs, &out, &upstream);
                    (out, grads)
                },
                |(out, grads)| {
                    grads
                        .iter()
                        .flatten()
                        .fold(dco_parallel::checksum_f32(out.data()), |c, g| {
                            dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(g.data()))
                        })
                },
            )
        };
        entries.push(op_sweep(
            "soft_rasterizer_224",
            &SoftRasterizer::new(Rc::clone(&nl), grid224),
        ));
        entries.push(op_sweep(
            "smooth_density_224",
            &SmoothDensity::new(Rc::clone(&nl), grid224),
        ));

        // --- incremental re-evaluation ratio (paper tier) -----------------
        // A 1%-of-cells delta through the incremental engines (router
        // rip-up, STA cone, UNet patch) versus a from-scratch evaluation of
        // the same placement. Both sides run single-threaded in this
        // process, so the ratio is machine-independent like
        // `speedup_vs_reference`. The incremental side alternates between
        // two placements so every timed call really re-evaluates a 1%
        // delta (re-evaluating the current placement would be a no-op).
        dco_parallel::set_threads(1);
        let predictor = Predictor::from_weights(unet, norm);
        let incr_design = bench_design(0.03);
        let incr_placed = GlobalPlacer::new(&incr_design).place(&params, 11);
        let moved = incremental_delta(&incr_design, &incr_placed);
        let mut session = IncrementalEval::new(&incr_design, &predictor, 224);
        let _ = session.eval(&incr_placed); // warm the caches
        let mut incr_ms = f64::INFINITY;
        for target in [&moved, &incr_placed, &moved, &incr_placed] {
            // bench-timed: incremental-delta
            let t0 = Instant::now();
            let r = session.eval(target);
            incr_ms = incr_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            // bench-timed: end
            assert!(r.incremental, "session must take the incremental path");
        }
        let mut fresh = IncrementalEval::new(&incr_design, &predictor, 224);
        let mut full_ms = f64::INFINITY;
        for _ in 0..2 {
            // bench-timed: full-reeval
            let t0 = Instant::now();
            let r = fresh.full(&moved);
            full_ms = full_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            // bench-timed: end
            assert!(
                !r.incremental,
                "full() must never take the incremental path"
            );
        }
        let s = full_ms / incr_ms;
        incremental_speedup = Some(s);
        eprintln!(
            "paper tier: incremental 1%-delta re-eval {incr_ms:.3} ms vs {full_ms:.3} ms from scratch = {s:.2}x"
        );
    } else {
        // Problem sizes: --quick keeps the CI smoke job under a minute.
        let (bsz, cin, cout, hw, scale) = if quick {
            (2, 4, 6, 24, 0.02)
        } else {
            (4, 6, 8, 48, 0.04)
        };
        let mm = if quick { 128 } else { 256 };

        // --- fixture setup (timed work only inside the closures) -----------
        let x = Tensor::from_vec(
            (0..bsz * cin * hw * hw)
                .map(|i| ((i as f32) * 0.731).sin())
                .collect(),
            &[bsz, cin, hw, hw],
        );
        let w = Tensor::from_vec(
            (0..cout * cin * 9)
                .map(|i| ((i as f32) * 0.17).cos())
                .collect(),
            &[cout, cin, 3, 3],
        );
        let b = Tensor::from_vec((0..cout).map(|i| i as f32 * 0.01).collect(), &[cout]);
        let y = conv2d_forward(&x, &w, Some(&b), 1, 1);
        let gy = y.map(|v| (v * 0.3).tanh());

        let a = Tensor::from_vec(
            (0..mm * mm).map(|i| ((i as f32) * 0.013).sin()).collect(),
            &[mm, mm],
        );
        let design = bench_design(scale);
        let params = PlacementParams::default();
        let placed = GlobalPlacer::new(&design).place(&params, 11);
        let router = Router::new(&design, RouterConfig::default());
        let routed = router.route(&placed);
        let sta = Sta::new(&design);

        // --- the sweep ------------------------------------------------------
        entries.push(sweep(
            "conv2d_forward",
            &threads,
            reps,
            || conv2d_forward(&x, &w, Some(&b), 1, 1),
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        entries.push(sweep(
            "conv2d_backward",
            &threads,
            reps,
            || conv2d_grads(&x, &w, &gy),
            checksum_grads,
        ));
        entries.push(sweep(
            "matmul",
            &threads,
            reps,
            || a.matmul(&a),
            |m| dco_parallel::checksum_f32(m.data()),
        ));
        entries.push(sweep(
            "place",
            &threads,
            reps,
            || GlobalPlacer::new(&design).place(&params, 11),
            checksum_placement,
        ));
        entries.push(sweep(
            "route_rrr",
            &threads,
            reps,
            || router.route(&placed),
            |r| {
                let mut c = dco_parallel::checksum_f32(r.h_usage[0].data());
                for m in [&r.h_usage[1], &r.v_usage[0], &r.v_usage[1]] {
                    c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(m.data()));
                }
                dco_parallel::checksum_combine(c, r.report.total.to_bits())
            },
        ));
        entries.push(sweep(
            "sta_levelized",
            &threads,
            reps,
            || sta.analyze(&placed, Some(&routed.net_lengths), Some(&routed.net_bonds)),
            |t| {
                let c = dco_parallel::checksum_f64(&t.pin_arrival);
                dco_parallel::checksum_combine(c, t.wns_ps.to_bits())
            },
        ));
        // The remaining engines of the flow, each on the same design and
        // placement: generation, FM tier partitioning, legalization, power,
        // hard and soft (z = 0.5, the DCO hot path) feature extraction, and
        // a GCN forward pass over the netlist graph.
        entries.push(sweep(
            "netlist_generate",
            &threads,
            reps,
            || bench_design(scale),
            |d| {
                let pins: Vec<u8> = d
                    .netlist
                    .nets()
                    .flat_map(|n| n.pins.iter().flat_map(|p| p.0.to_le_bytes()))
                    .collect();
                let c = checksum_placement(&d.placement);
                dco_parallel::checksum_combine(c, dco_parallel::checksum_bytes(&pins))
            },
        ));
        entries.push(sweep(
            "fm_bipartition",
            &threads,
            reps,
            || fm_bipartition(&design.netlist, placed.tiers(), 0.1, 2),
            |tiers| {
                let z: Vec<f64> = tiers.iter().map(|t| t.as_z()).collect();
                dco_parallel::checksum_f64(&z)
            },
        ));
        entries.push(sweep(
            "legalize",
            &threads,
            reps,
            || {
                let mut p = placed.clone();
                legalize(&design, &mut p, 5);
                p
            },
            checksum_placement,
        ));
        let power = PowerAnalyzer::new(&design);
        entries.push(sweep(
            "power",
            &threads,
            reps,
            || power.analyze(&placed, Some(&routed.net_lengths)),
            |r| dco_parallel::checksum_f64(&[r.switching_mw, r.internal_mw, r.leakage_mw]),
        ));
        let fx = FeatureExtractor::new(design.floorplan.grid);
        let checksum_features = |dies: &[DieFeatures; 2]| {
            dies.iter().fold(0, |c, d| {
                dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(&d.stacked()))
            })
        };
        entries.push(sweep(
            "features_hard",
            &threads,
            reps,
            || fx.extract(&design.netlist, &placed),
            checksum_features,
        ));
        let soft = SoftAssignment {
            x: placed.xs().to_vec(),
            y: placed.ys().to_vec(),
            z: vec![0.5; design.netlist.num_cells()],
        };
        entries.push(sweep(
            "features_soft",
            &threads,
            reps,
            || fx.extract_soft(&design.netlist, &soft),
            checksum_features,
        ));
        let timing = sta.analyze(&placed, Some(&routed.net_lengths), Some(&routed.net_bonds));
        let node_features = build_node_features(&design, &placed, &timing);
        let adj = Rc::new(build_adjacency(&design));
        entries.push(sweep(
            "gcn_forward",
            &threads,
            reps,
            || {
                // `forward` binds the weights into the tape, so each run
                // takes a fresh (small) model.
                let mut gcn = Gcn::new(11);
                let mut g = Graph::new();
                let x = g.input(node_features.clone());
                let out = gcn.forward(&mut g, Rc::clone(&adj), x);
                g.value(out).clone()
            },
            |y| dco_parallel::checksum_f32(y.data()),
        ));
        if !quick {
            // One end-to-end flow (placement -> route -> STA under one roof);
            // slow, so full mode only.
            let cfg = FlowConfig {
                map_size: 16,
                unet_channels: 4,
                train_layouts: 2,
                train_epochs: 2,
                ..FlowConfig::default()
            };
            let runner = FlowRunner::new(&design, cfg);
            entries.push(sweep(
                "flow_pin3d",
                &threads,
                reps.min(2),
                || runner.run(FlowKind::Pin3d, 11, None),
                |o| {
                    let c = checksum_placement(&o.placement);
                    dco_parallel::checksum_combine(c, o.signoff.wirelength_um.to_bits())
                },
            ));
        }
    }

    // --- single-core overhead gate ------------------------------------------
    // Only meaningful when there is no real parallelism to buy back the
    // pool's coordination cost; multi-core wall ratios stay ungated (the
    // speedup-reporting convention in BENCHMARKS.md).
    const OVERHEAD_RATIO: f64 = 1.25;
    const OVERHEAD_EPS_MS: f64 = 0.5;
    let gate_overhead = dco_parallel::hardware_parallelism() == 1;
    let mut overhead_violations: Vec<String> = Vec::new();
    if gate_overhead {
        for e in &entries {
            let Some(base) = e.runs.iter().find(|r| r.threads == 1).map(|r| r.wall_ms) else {
                continue;
            };
            for r in e.runs.iter().filter(|r| r.threads > 1) {
                if r.wall_ms > base * OVERHEAD_RATIO + OVERHEAD_EPS_MS {
                    overhead_violations.push(format!(
                        "{}: threads={} took {:.3} ms vs {:.3} ms at threads=1 ({:.2}x > {OVERHEAD_RATIO}x)",
                        e.name,
                        r.threads,
                        r.wall_ms,
                        base,
                        r.wall_ms / base
                    ));
                }
            }
        }
    }

    // --- paper gates & trajectory -------------------------------------------
    let wall1 = |name: &str| -> Option<f64> {
        entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.runs.iter().find(|r| r.threads == 1))
            .map(|r| r.wall_ms)
    };
    // Machine-independent gate: both kernels run in this process, so their
    // single-thread ratio is meaningful on any machine (unlike wall times).
    const SPEEDUP_GATE: f64 = 1.2;
    // Machine-independent like SPEEDUP_GATE: both sides of the ratio are
    // measured in this process. `DCO_BENCH_NO_INCREMENTAL_GATE` disables it
    // (e.g. when bisecting an unrelated regression).
    const INCREMENTAL_GATE: f64 = 5.0;
    let mut speedup_vs_reference = None;
    if paper {
        let new = wall1("conv2d_forward_224").expect("paper tier benches conv2d_forward_224");
        let reference =
            wall1("conv2d_forward_224_reference").expect("paper tier benches the reference");
        let s = reference / new;
        speedup_vs_reference = Some(s);
        eprintln!("paper tier: conv2d forward speedup vs pre-blocking reference = {s:.2}x");
    }

    let machine = json!({
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "available_parallelism": std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    });

    // Trajectory: carry previously recorded entries through every rewrite of
    // the report; paper runs append one entry and gate single-thread
    // regressions against the previous entry — but only when the machine
    // fingerprint matches (cross-machine wall comparisons are meaningless;
    // see BENCHMARKS.md).
    let mut trajectory: Vec<Value> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|v| v.get("trajectory").cloned())
        .map(|t| match t {
            Value::Array(items) => items,
            _ => Vec::new(),
        })
        .unwrap_or_default();
    let mut trajectory_violations: Vec<String> = Vec::new();
    if paper {
        const TRAJECTORY_RATIO: f64 = 2.0;
        const TRAJECTORY_EPS_MS: f64 = 0.5;
        let gate_on = std::env::var("DCO_BENCH_NO_TRAJECTORY_GATE").is_err();
        if let Some(prev) = trajectory.last() {
            if gate_on && prev.get("machine") == Some(&machine) {
                if let Some(Value::Object(prev_walls)) = prev.get("threads1_wall_ms") {
                    for (name, v) in prev_walls {
                        let Value::Number(old) = v else { continue };
                        let Some(new) = wall1(name) else { continue };
                        if new > old * TRAJECTORY_RATIO + TRAJECTORY_EPS_MS {
                            trajectory_violations.push(format!(
                                "{name}: {new:.3} ms vs {old:.3} ms recorded ({:.2}x > {TRAJECTORY_RATIO}x)",
                                new / old
                            ));
                        }
                    }
                }
            }
        }
        let walls: Vec<(String, Value)> = entries
            .iter()
            .filter_map(|e| {
                e.runs
                    .iter()
                    .find(|r| r.threads == 1)
                    .map(|r| (e.name.to_string(), Value::Number(r.wall_ms)))
            })
            .collect();
        let label = std::env::var("DCO_BENCH_LABEL").unwrap_or_else(|_| String::from("local"));
        trajectory.push(json!({
            "label": label,
            "machine": machine.clone(),
            "speedup_vs_reference": speedup_vs_reference.unwrap_or(0.0),
            "threads1_wall_ms": Value::Object(walls),
        }));
    }

    // --- report -------------------------------------------------------------
    let all_deterministic = entries.iter().all(|e| e.deterministic);
    let benches: Vec<serde_json::Value> = entries
        .iter()
        .map(|e| {
            let base = e
                .runs
                .iter()
                .find(|r| r.threads == 1)
                .map(|r| r.wall_ms)
                .unwrap_or(f64::NAN);
            let runs: Vec<serde_json::Value> = e
                .runs
                .iter()
                .map(|r| {
                    json!({
                        "threads": r.threads,
                        "wall_ms": r.wall_ms,
                        "speedup_vs_1": base / r.wall_ms,
                        "checksum": format!("{:#018x}", r.checksum),
                    })
                })
                .collect();
            json!({
                "name": e.name,
                "deterministic": e.deterministic,
                "runs": runs,
            })
        })
        .collect();
    let tier = if paper {
        "paper"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    let mut report = json!({
        "suite": "dco3d-parallel",
        "tier": tier,
        "quick": quick,
        "reps": reps,
        "thread_counts": threads,
        "machine": machine,
        "all_deterministic": all_deterministic,
        "overhead_gated": gate_overhead,
        "overhead_violations": overhead_violations,
        "benches": benches,
    });
    if let Value::Object(fields) = &mut report {
        if let Some(s) = speedup_vs_reference {
            fields.push((
                String::from("paper"),
                json!({
                    "speedup_vs_reference": s,
                    "speedup_gate_min": SPEEDUP_GATE,
                    "incremental_speedup": incremental_speedup.unwrap_or(0.0),
                    "incremental_gate_min": INCREMENTAL_GATE,
                    "trajectory_violations": trajectory_violations.clone(),
                }),
            ));
        }
        fields.push((String::from("trajectory"), Value::Array(trajectory)));
    }
    let body = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &body).expect("write benchmark report");
    println!("wrote {out}");

    if !all_deterministic {
        for e in entries.iter().filter(|e| !e.deterministic) {
            eprintln!(
                "DIVERGENCE: `{}` checksums differ across thread counts",
                e.name
            );
        }
        std::process::exit(1);
    }
    if !overhead_violations.is_empty() {
        for v in &overhead_violations {
            eprintln!("OVERHEAD: {v}");
        }
        std::process::exit(1);
    }
    if let Some(s) = speedup_vs_reference {
        if std::env::var("DCO_BENCH_NO_SPEEDUP_GATE").is_err() && s < SPEEDUP_GATE {
            eprintln!(
                "SPEEDUP: conv2d_forward_224 only {s:.2}x vs the pre-blocking reference (gate: {SPEEDUP_GATE}x)"
            );
            std::process::exit(1);
        }
    }
    if let Some(s) = incremental_speedup {
        if std::env::var("DCO_BENCH_NO_INCREMENTAL_GATE").is_err() && s < INCREMENTAL_GATE {
            eprintln!(
                "INCREMENTAL: 1%-delta re-eval only {s:.2}x faster than from-scratch (gate: {INCREMENTAL_GATE}x)"
            );
            std::process::exit(1);
        }
    }
    if !trajectory_violations.is_empty() {
        for v in &trajectory_violations {
            eprintln!("TRAJECTORY: {v}");
        }
        std::process::exit(1);
    }
    println!(
        "all {} benchmarks bitwise-identical across threads {threads:?}{}",
        entries.len(),
        if gate_overhead {
            "; single-core overhead within 1.25x"
        } else {
            ""
        }
    );
}
