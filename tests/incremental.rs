//! Differential equivalence harness for the incremental engines.
//!
//! The contract under test (DESIGN.md, "Incremental Engines"): for any
//! placement delta, the incremental engines — rip-up/re-route global
//! routing, event-driven STA, and patch-based UNet re-inference — produce
//! results **bitwise identical** to evaluating the new placement from
//! scratch. The harness drives that contract with a seeded delta
//! generator instead of hand-picked cases:
//!
//! - deltas move `k` pseudo-random cells by half-GCell multiples (so
//!   moves routinely straddle tile boundaries) and tier-flip every third
//!   moved cell (so deltas cross the die/level boundary too);
//! - `k` sweeps the interesting sizes: empty (0), single cell, ~1% of
//!   cells, and every cell;
//! - worker counts 1, 2 and 8 are exercised with the adaptive fallback
//!   disabled, pinning thread-count independence;
//! - deltas are *chained*: each one diffs against the previous perturbed
//!   placement, so cached state is re-patched many times per session.
//!
//! The sweep width comes from `INCR_SEEDS` (default 3 locally; CI runs
//! 200), and `INCR_ARTIFACT=<path>` appends a per-case JSON record so a
//! failing seed can be replayed alone by setting `INCR_SEEDS` and reading
//! off the seed from the artifact.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use dco_flow::{train_predictor, FlowConfig, FlowRunner, Predictor};
use dco_incremental::DeltaSet;
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::{CellId, Design, Placement3};
use dco_route::{IncrementalRouter, RouteResult, RouterConfig};
use dco_timing::{IncrementalSta, TimingReport};
use dco_unet::{load_predictor, save_predictor};
use rand::{Rng, SeedableRng};

/// Worker counts are process-global; serialize tests.
static SERIAL: Mutex<()> = Mutex::new(());

const FIXTURE_SEED: u64 = 7;
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn sweep_seeds() -> u64 {
    std::env::var("INCR_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn fixture_design() -> Design {
    GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(0.02)
        .generate(FIXTURE_SEED)
        .expect("generate design")
}

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        map_size: 16,
        unet_channels: 4,
        train_layouts: 2,
        train_epochs: 1,
        ..FlowConfig::default()
    }
}

/// One trained predictor bundle shared by every test in this binary.
fn predictor_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let design = fixture_design();
        let predictor = train_predictor(&design, &quick_cfg(), FIXTURE_SEED);
        let path = std::env::temp_dir().join(format!("dco_incr_{}.json", std::process::id()));
        save_predictor(&path, &predictor.unet, &predictor.normalization).expect("save predictor");
        path
    })
}

fn load_fixture_predictor() -> Predictor {
    let (unet, normalization) = load_predictor(predictor_path()).expect("load predictor");
    Predictor::from_weights(unet, normalization)
}

/// The delta sizes the acceptance contract names: empty, one cell, ~1% of
/// cells, every cell.
fn delta_sizes(num_cells: usize) -> [usize; 4] {
    [0, 1, (num_cells / 100).max(2), num_cells]
}

/// Seeded delta generator: move `k` pseudo-random cells by multiples of
/// half a GCell pitch (±1.5 pitches), clamped to the die, tier-flipping
/// every third moved cell. Half-pitch steps guarantee a steady supply of
/// tile-boundary-straddling moves; tier flips cross the 3D level boundary.
fn perturb(design: &Design, base: &Placement3, seed: u64, k: usize) -> Placement3 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = design.floorplan.grid;
    let (w, h) = (g.nx as f64 * g.dx, g.ny as f64 * g.dy);
    let n = base.len() as u32;
    let mut p = base.clone();
    for i in 0..k {
        let id = CellId(if k >= n as usize {
            i as u32 // "all cells": touch each one exactly once
        } else {
            rng.gen_range(0..n)
        });
        let dx = rng.gen_range(-3i64..=3) as f64 * 0.5 * g.dx;
        let dy = rng.gen_range(-3i64..=3) as f64 * 0.5 * g.dy;
        p.set_xy(
            id,
            (p.x(id) + dx).clamp(0.0, w),
            (p.y(id) + dy).clamp(0.0, h),
        );
        if i % 3 == 2 {
            p.set_tier(id, p.tier(id).flipped());
        }
    }
    p
}

/// Append one JSON record to the `INCR_ARTIFACT` file, when configured.
fn artifact(line: &str) {
    if let Ok(path) = std::env::var("INCR_ARTIFACT") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Bitwise fingerprint of a routing solution: every demand grid plus the
/// wirelength, via the same FNV fold the daemon uses for predictions.
fn route_checksum(r: &RouteResult) -> u64 {
    let mut c = dco_parallel::checksum_f32(r.h_usage[0].data());
    for m in [&r.h_usage[1], &r.v_usage[0], &r.v_usage[1], &r.bond_usage] {
        c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(m.data()));
    }
    dco_parallel::checksum_combine(c, r.wirelength.to_bits())
}

/// Bitwise equality of two timing reports (f64 compared as bits, so a
/// negative-zero/NaN drift would fail rather than slip through `==`).
fn timing_bits_equal(a: &TimingReport, b: &TimingReport) -> bool {
    let vecs = |r: &TimingReport| {
        [
            r.cell_slack.clone(),
            r.cell_output_slew.clone(),
            r.cell_input_slew.clone(),
            r.pin_arrival.clone(),
        ]
    };
    a.wns_ps.to_bits() == b.wns_ps.to_bits()
        && a.tns_ps.to_bits() == b.tns_ps.to_bits()
        && a.hold_wns_ps.to_bits() == b.hold_wns_ps.to_bits()
        && a.hold_tns_ps.to_bits() == b.hold_tns_ps.to_bits()
        && a.violations == b.violations
        && a.hold_violations == b.hold_violations
        && a.worst_pred == b.worst_pred
        && vecs(a).iter().zip(vecs(b).iter()).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

// --- engine-level differential sweep ---------------------------------------

/// Router + STA: warm incremental sessions chained across seeded deltas
/// must stay bitwise equal to from-scratch engines at every step, for
/// every delta size, at worker counts 1/2/8.
#[test]
fn router_and_sta_match_from_scratch_across_seeded_deltas() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    dco_parallel::set_adaptive(false);
    let d = fixture_design();
    let g = d.floorplan.grid;
    let sizes = delta_sizes(d.netlist.num_cells());
    let seeds = sweep_seeds();

    for &threads in &THREAD_SWEEP {
        dco_parallel::set_threads(threads);
        for seed in 0..seeds {
            let mut router = IncrementalRouter::new(&d, RouterConfig::default());
            let mut sta = IncrementalSta::new(&d);
            let mut cur = d.placement.clone();
            let r0 = router.full(&cur);
            sta.full(&cur, &r0.net_lengths, &r0.net_bonds);

            for (si, &k) in sizes.iter().enumerate() {
                let moved = perturb(&d, &cur, seed * 31 + si as u64, k);
                let delta = DeltaSet::diff(&d.netlist, g, &cur, &moved);
                if k == 0 {
                    assert!(delta.is_empty(), "no move must produce no delta");
                }
                let route_inc = router.apply(&moved, &delta);
                let sta_inc =
                    sta.apply(&moved, &route_inc.net_lengths, &route_inc.net_bonds, &delta);

                let mut fresh_router = IncrementalRouter::new(&d, RouterConfig::default());
                let route_full = fresh_router.full(&moved);
                let sta_full = IncrementalSta::new(&d).full(
                    &moved,
                    &route_full.net_lengths,
                    &route_full.net_bonds,
                );

                assert_eq!(
                    route_checksum(&route_inc),
                    route_checksum(&route_full),
                    "route diverged: threads={threads} seed={seed} k={k}"
                );
                assert_eq!(route_inc.net_lengths, route_full.net_lengths);
                assert_eq!(route_inc.report, route_full.report);
                assert!(
                    timing_bits_equal(&sta_inc, &sta_full),
                    "sta diverged: threads={threads} seed={seed} k={k}"
                );

                let ds = delta.stats();
                artifact(&format!(
                    "{{\"suite\":\"engine\",\"threads\":{threads},\"seed\":{seed},\"k\":{k},\
                     \"moved_cells\":{},\"tiles_dirtied\":{},\"nets_ripped\":{},\
                     \"cone_pins\":{},\"ok\":true}}",
                    ds.moved_cells,
                    ds.tiles_dirtied,
                    router.stats().nets_ripped,
                    sta.stats().cone_pins,
                ));
                cur = moved;
            }
        }
    }
    dco_parallel::set_threads(1);
    dco_parallel::set_adaptive(true);
}

// --- end-to-end differential sweep -----------------------------------------

/// The composed [`dco_flow::IncrementalEval`] session (router + STA +
/// feature patch + UNet patch) must stay bitwise equal to a fresh
/// from-scratch session across chained seeded deltas. Worker counts
/// rotate 1→2→8 across seeds so every count is covered at any sweep width
/// ≥ 3 without tripling the run.
#[test]
fn end_to_end_incremental_eval_matches_fresh_session_across_seeded_deltas() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    dco_parallel::set_adaptive(false);
    let d = fixture_design();
    let predictor = load_fixture_predictor();
    let runner = FlowRunner::new(&d, quick_cfg());
    let sizes = delta_sizes(d.netlist.num_cells());
    let seeds = sweep_seeds();

    for seed in 0..seeds {
        let threads = THREAD_SWEEP[(seed % THREAD_SWEEP.len() as u64) as usize];
        dco_parallel::set_threads(threads);
        let mut session = runner.incremental_eval(&predictor);
        // Give each seed its own starting placement so the cached state
        // the deltas patch differs across the sweep.
        let base = perturb(&d, &d.placement, seed.wrapping_mul(977) + 1, 5);
        session.eval(&base);
        let mut cur = base;

        for (si, &k) in sizes.iter().enumerate() {
            let moved = perturb(&d, &cur, seed * 131 + si as u64, k);
            let inc = session.eval(&moved);
            assert!(inc.incremental, "warm session must patch, not rebuild");
            let ds = inc.delta.expect("incremental pass reports its delta");
            if k == 0 {
                assert_eq!(ds.moved_cells, 0, "no move must produce no delta");
            }

            let mut fresh = runner.incremental_eval(&predictor);
            let full = fresh.eval(&moved);
            assert!(!full.incremental);

            assert!(
                timing_bits_equal(&inc.timing, &full.timing),
                "timing diverged: threads={threads} seed={seed} k={k}"
            );
            assert_eq!(
                inc.wirelength.to_bits(),
                full.wirelength.to_bits(),
                "wirelength diverged: threads={threads} seed={seed} k={k}"
            );
            assert_eq!(
                inc.overflow.to_bits(),
                full.overflow.to_bits(),
                "overflow diverged: threads={threads} seed={seed} k={k}"
            );
            for die in 0..2 {
                let a: Vec<u32> = inc.congestion[die]
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let b: Vec<u32> = full.congestion[die]
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(
                    a, b,
                    "die {die} congestion diverged: threads={threads} seed={seed} k={k}"
                );
            }

            artifact(&format!(
                "{{\"suite\":\"e2e\",\"threads\":{threads},\"seed\":{seed},\"k\":{k},\
                 \"moved_cells\":{},\"tiles_dirtied\":{},\"nets_ripped\":{},\"cone_pins\":{},\
                 \"unet_dirty_pixels\":{},\"unet_full_fallback\":{},\"ok\":true}}",
                ds.moved_cells,
                ds.tiles_dirtied,
                inc.route_stats.nets_ripped,
                inc.sta_stats.cone_pins,
                inc.unet_stats.dirty_pixels,
                inc.unet_stats.full_fallback,
            ));
            cur = moved;
        }
    }
    dco_parallel::set_threads(1);
    dco_parallel::set_adaptive(true);
}
