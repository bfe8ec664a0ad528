//! Post-route timing ECO: iterative gate upsizing on violating paths.
//!
//! The paper's motivation is that congestion left unresolved until the end
//! of the flow forces "excessive use of end-of-flow ECO resources for
//! routability correction that severely degrades full-chip PPA". This pass
//! models the timing half of that story: after routing, drivers on
//! violating paths are upsized (lower drive resistance, higher internal
//! and leakage power) round by round until timing converges or the budget
//! runs out. Flows that enter signoff with worse timing burn more ECO
//! moves and more power — exactly the effect Table III's end-of-flow
//! columns capture.

use crate::incremental::IncrementalSta;
use crate::{Sta, TimingReport};
use dco_netlist::{Design, Placement3};

/// Drive-resistance multiplier per upsizing step (< 1.0).
const UPSIZE_FACTOR: f64 = 0.7;
/// Strongest allowed cumulative scale (drive_res floor as a fraction).
const MIN_SCALE: f64 = 0.35;
/// Cells with slack below this (ps) are sizing candidates.
const SLACK_THRESHOLD: f64 = 0.0;
/// Power penalty per upsizing step, as a fraction of the cell's
/// internal + leakage power (each step adds this much).
const POWER_PENALTY_FRAC: f64 = 0.3;

/// Outcome of the ECO pass.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// Timing before any sizing.
    pub before: TimingReport,
    /// Timing after the final round.
    pub after: TimingReport,
    /// Number of distinct cells upsized (the "ECO resources" metric).
    pub resized_cells: usize,
    /// Total upsizing steps applied (a cell can be upsized repeatedly).
    pub total_upsizes: usize,
    /// Extra power burned by the sizing, in mW.
    pub power_penalty_mw: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// Final per-cell drive scale (1.0 = untouched).
    pub drive_scale: Vec<f64>,
}

/// Run the timing ECO on a routed design, for at most `max_rounds` sizing
/// rounds.
///
/// Analyses use `sta`'s margins. The pin graph depends only on the
/// netlist, so one engine is built and re-run from scratch for each
/// sizing round.
pub fn run_timing_eco(
    design: &Design,
    placement: &Placement3,
    net_lengths: Option<&[f64]>,
    net_bonds: Option<&[u32]>,
    sta: &Sta<'_>,
    max_rounds: usize,
) -> EcoReport {
    let netlist = &design.netlist;
    let n = netlist.num_cells();
    let mut scale = vec![1.0f64; n];
    let lengths = net_lengths.unwrap_or_default();
    let bonds = net_bonds.unwrap_or_default();
    let mut engine = IncrementalSta::for_sta(sta);
    let before = engine.full(placement, lengths, bonds);
    let mut current = before.clone();
    let mut total_upsizes = 0usize;
    let mut rounds = 0usize;

    for _ in 0..max_rounds {
        if current.tns_ps >= 0.0 {
            break; // timing met
        }
        rounds += 1;
        let mut changed = 0usize;
        for id in netlist.cell_ids() {
            let i = id.index();
            let cell = netlist.cell(id);
            if !cell.movable() {
                continue; // macros/IOs are not resizable
            }
            if current.cell_slack[i] < SLACK_THRESHOLD && scale[i] > MIN_SCALE {
                scale[i] = (scale[i] * UPSIZE_FACTOR).max(MIN_SCALE);
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
        total_upsizes += changed;
        engine.set_drive_scale(&scale);
        let next = engine.full(placement, lengths, bonds);
        // Stop when sizing stops helping (loads dominate, not drive).
        if next.tns_ps <= current.tns_ps {
            current = next;
            break;
        }
        current = next;
    }

    let resized_cells = scale.iter().filter(|&&s| s < 1.0).count();
    // Power penalty: each halving of drive roughly doubles the cell's
    // dynamic/leakage contribution; modeled linearly per step.
    let mut power_penalty_w = 0.0f64;
    let f_hz = 1e12 / design.technology.clock_period_ps; // 1/ps -> Hz
    for id in netlist.cell_ids() {
        let i = id.index();
        if scale[i] >= 1.0 {
            continue;
        }
        let steps = (scale[i].ln() / UPSIZE_FACTOR.ln()).round().max(1.0);
        let cell = netlist.cell(id);
        let cell_power_w = 0.15 * f_hz * cell.internal_energy * 1e-15 + cell.leakage * 1e-9;
        power_penalty_w += steps * POWER_PENALTY_FRAC * cell_power_w;
    }

    EcoReport {
        before,
        after: current,
        resized_cells,
        total_upsizes,
        power_penalty_mw: power_penalty_w * 1e3,
        rounds,
        drive_scale: scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    fn violating_design() -> dco_netlist::Design {
        let mut d = GeneratorConfig::for_profile(DesignProfile::Rocket)
            .with_scale(0.02)
            .generate(4)
            .expect("gen");
        // tighten the clock so the ECO has work to do
        d.technology.clock_period_ps = 300.0;
        d
    }

    #[test]
    fn eco_improves_tns_at_a_power_cost() {
        let d = violating_design();
        let sta = Sta::new(&d);
        let rep = run_timing_eco(&d, &d.placement, None, None, &sta, 4);
        assert!(rep.before.tns_ps < 0.0, "test design should violate timing");
        assert!(
            rep.after.tns_ps > rep.before.tns_ps,
            "ECO should improve TNS: {} -> {}",
            rep.before.tns_ps,
            rep.after.tns_ps
        );
        assert!(rep.resized_cells > 0);
        assert!(rep.power_penalty_mw > 0.0);
        assert!(rep.total_upsizes >= rep.resized_cells);
    }

    #[test]
    fn eco_is_a_noop_when_timing_is_met() {
        let mut d = violating_design();
        d.technology.clock_period_ps = 1e6; // absurdly slow clock
        let sta = Sta::new(&d);
        let rep = run_timing_eco(&d, &d.placement, None, None, &sta, 4);
        assert_eq!(rep.resized_cells, 0);
        assert_eq!(rep.power_penalty_mw, 0.0);
        assert_eq!(rep.rounds, 0);
    }

    #[test]
    fn worse_timing_needs_more_eco_resources() {
        let d = violating_design();
        let sta = Sta::new(&d);
        let cheap = run_timing_eco(&d, &d.placement, None, None, &sta, 4);
        // inflate every net 3x: much worse timing
        let lens: Vec<f64> = d
            .netlist
            .net_ids()
            .map(|nid| d.placement.net_hpwl(&d.netlist, nid) * 3.0 + 1.0)
            .collect();
        let costly = run_timing_eco(&d, &d.placement, Some(&lens), None, &sta, 4);
        assert!(
            costly.total_upsizes >= cheap.total_upsizes,
            "longer wires should need at least as much ECO: {} vs {}",
            costly.total_upsizes,
            cheap.total_upsizes
        );
    }

    #[test]
    fn drive_scale_is_bounded() {
        let d = violating_design();
        let sta = Sta::new(&d);
        let rep = run_timing_eco(&d, &d.placement, None, None, &sta, 20);
        for &s in &rep.drive_scale {
            assert!((MIN_SCALE - 1e-12..=1.0).contains(&s));
        }
    }
}
