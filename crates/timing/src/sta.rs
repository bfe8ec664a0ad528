//! The static timing analyzer's configuration and report.
//!
//! [`Sta`] holds the margins of an analysis; every analysis runs the
//! frozen-graph engine of [`IncrementalSta`], whose module documents the
//! propagation contract and the threading model.

use crate::incremental::IncrementalSta;
use dco_netlist::{CellClass, Design, PinDirection, PinId, Placement3};

/// A per-design STA report.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst negative slack in ps (0.0 when all paths meet timing).
    pub wns_ps: f64,
    /// Total negative slack in ps (sum over violating endpoints).
    pub tns_ps: f64,
    /// Number of violating endpoints.
    pub violations: usize,
    /// Worst slack seen by each cell (min over its pins), ps. Positive =
    /// slack available. This is the `wst slack` GNN feature of Table II.
    pub cell_slack: Vec<f64>,
    /// Worst (largest) output-pin transition per cell, ps.
    pub cell_output_slew: Vec<f64>,
    /// Worst (largest) input-pin transition per cell, ps.
    pub cell_input_slew: Vec<f64>,
    /// Number of combinational-cycle edges that had to be broken.
    pub broken_cycle_edges: usize,
    /// Hold worst negative slack in ps (0.0 when no hold violations).
    pub hold_wns_ps: f64,
    /// Hold total negative slack in ps.
    pub hold_tns_ps: f64,
    /// Number of hold-violating endpoints.
    pub hold_violations: usize,
    /// Arrival time per pin (ps), for path extraction.
    pub pin_arrival: Vec<f64>,
    /// Worst-arrival predecessor pin per pin (`u32::MAX` = start point).
    pub worst_pred: Vec<u32>,
}

/// Static timing analyzer.
///
/// Delay model:
/// - cell arc (input → output pin): `intrinsic + drive_res * load_cap`,
/// - net arc (driver → sink): lumped Elmore `0.69 * R_wire * (C_wire/2 +
///   C_sinks)` over the net's routed length (HPWL when unrouted), the same
///   for every sink of the net,
/// - every hybrid bond on a net adds the technology's bond delay,
/// - slew: `2.2 * drive_res * load_cap` propagated max per pin.
///
/// Start points are sequential outputs and input pads; endpoints are
/// sequential inputs (checked against the clock period minus setup) and
/// output pads.
#[derive(Debug)]
pub struct Sta<'a> {
    pub(crate) design: &'a Design,
    /// Setup margin at sequential endpoints, ps.
    pub setup_ps: f64,
    /// Hold requirement at sequential endpoints, ps: the fast-corner
    /// arrival must exceed this.
    pub hold_ps: f64,
    /// Fast-corner derate applied to every delay for the hold (min-path)
    /// analysis.
    pub fast_corner: f64,
}

impl<'a> Sta<'a> {
    /// An analyzer for `design` with a 5 ps setup margin, 2 ps hold
    /// requirement, and a 0.5x fast corner.
    pub fn new(design: &'a Design) -> Self {
        Self {
            design,
            setup_ps: 5.0,
            hold_ps: 2.0,
            fast_corner: 0.5,
        }
    }

    /// Analyze `placement`, using per-net routed lengths when available
    /// (falling back to HPWL otherwise). `net_bonds` adds bond delay per
    /// inter-die crossing. `None` is the same as an empty slice.
    pub fn analyze(
        &self,
        placement: &Placement3,
        net_lengths: Option<&[f64]>,
        net_bonds: Option<&[u32]>,
    ) -> TimingReport {
        self.analyze_with_drive_scale(placement, net_lengths, net_bonds, None)
    }

    /// Like [`Sta::analyze`], with an optional per-cell drive-resistance
    /// scale (values < 1.0 model upsized/stronger drivers). Used by the
    /// post-route timing-ECO pass.
    pub fn analyze_with_drive_scale(
        &self,
        placement: &Placement3,
        net_lengths: Option<&[f64]>,
        net_bonds: Option<&[u32]>,
        drive_scale: Option<&[f64]>,
    ) -> TimingReport {
        let mut engine = IncrementalSta::for_sta(self);
        if let Some(scale) = drive_scale {
            engine.set_drive_scale(scale);
        }
        engine.full(
            placement,
            net_lengths.unwrap_or_default(),
            net_bonds.unwrap_or_default(),
        )
    }

    /// Extract the `k` worst setup paths from a [`TimingReport`] this
    /// analyzer produced.
    ///
    /// Each path is traced from a violating (or worst-slack) endpoint back
    /// through the worst-arrival predecessors to its launch point. Paths are
    /// returned worst-first, each as `(endpoint slack, points start → end)`;
    /// the slack is the report's, `period - setup_ps - arrival`.
    pub fn worst_paths(&self, report: &TimingReport, k: usize) -> Vec<(f64, Vec<PathPoint>)> {
        let netlist = &self.design.netlist;
        let period = self.design.technology.clock_period_ps;
        // endpoints ranked by slack
        let mut endpoints: Vec<(f64, usize)> = (0..netlist.num_pins())
            .filter(|&pi| {
                let pin = netlist.pin(PinId(pi as u32));
                pin.direction == PinDirection::Input
                    && matches!(
                        netlist.cell(pin.cell).class,
                        CellClass::Sequential | CellClass::Io
                    )
            })
            .map(|pi| (period - self.setup_ps - report.pin_arrival[pi], pi))
            .collect();
        endpoints.sort_by(|a, b| a.0.total_cmp(&b.0));
        endpoints
            .into_iter()
            .take(k)
            .map(|(slack, end)| {
                let mut points = Vec::new();
                let mut cur = end as u32;
                let mut hops = 0;
                while cur != u32::MAX && hops < netlist.num_pins() {
                    let pin = netlist.pin(PinId(cur));
                    points.push(PathPoint {
                        pin: PinId(cur),
                        cell_name: netlist.cell(pin.cell).name.clone(),
                        arrival_ps: report.pin_arrival[cur as usize],
                    });
                    let pred = report.worst_pred[cur as usize];
                    // Broken combinational cycles can leave a stale predecessor
                    // whose arrival exceeds ours; truncate the trace there.
                    if pred != u32::MAX
                        && report.pin_arrival[pred as usize]
                            > report.pin_arrival[cur as usize] + 1e-9
                    {
                        break;
                    }
                    cur = pred;
                    hops += 1;
                }
                points.reverse();
                (slack, points)
            })
            .collect()
    }
}

/// Convenience: worst slack including positive values (not clipped at 0).
pub fn raw_wns(report: &TimingReport) -> f64 {
    report
        .cell_slack
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// One hop of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPoint {
    /// Pin on the path.
    pub pin: PinId,
    /// Instance name of the pin's cell.
    pub cell_name: String,
    /// Arrival time at this pin, ps.
    pub arrival_ps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::STA_LEVEL_PAR_MIN;
    use crate::run_timing_eco;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{CellClass, NetlistBuilder, PinDirection};
    use dco_route::{Router, RouterConfig};

    /// The monolithic analysis the engine replaced, kept as the reference
    /// it is checked against: it builds the pin graph with precomputed arc
    /// delays, levels it, and sweeps every level once.
    impl Sta<'_> {
        fn reference_analyze(
            &self,
            placement: &Placement3,
            net_lengths: Option<&[f64]>,
            net_bonds: Option<&[u32]>,
            drive_scale: Option<&[f64]>,
        ) -> TimingReport {
            let netlist = &self.design.netlist;
            let drive = |cell_idx: usize, base: f64| -> f64 {
                base * drive_scale.map(|s| s[cell_idx]).unwrap_or(1.0)
            };
            let tech = &self.design.technology;
            let n_pins = netlist.num_pins();
            let n_cells = netlist.num_cells();

            // --- net loads and delays -------------------------------------------
            let mut net_load = vec![0.0f64; netlist.num_nets()]; // fF
            let mut net_wire_delay = vec![0.0f64; netlist.num_nets()]; // ps
            for net_id in netlist.net_ids() {
                let net = netlist.net(net_id);
                let len = net_lengths
                    .and_then(|l| l.get(net_id.index()).copied())
                    .filter(|&l| l > 0.0)
                    .unwrap_or_else(|| placement.net_hpwl(netlist, net_id));
                let c_wire = tech.wire_cap_per_um * len;
                let c_sinks: f64 = net
                    .pins
                    .iter()
                    .map(|&p| {
                        let pin = netlist.pin(p);
                        if pin.direction == PinDirection::Input {
                            netlist.cell(pin.cell).input_cap
                        } else {
                            0.0
                        }
                    })
                    .sum();
                net_load[net_id.index()] = c_wire + c_sinks;
                // Elmore with lumped RC: R in kohm * C in fF gives ps.
                let r_wire = tech.wire_res_per_um * len / 1000.0;
                let bonds = net_bonds.map(|b| b[net_id.index()]).unwrap_or(0) as f64;
                net_wire_delay[net_id.index()] =
                    0.69 * r_wire * (c_wire / 2.0 + c_sinks) + bonds * tech.bond_delay_ps;
            }

            // --- pin graph edges --------------------------------------------------
            // edge (from_pin -> to_pin, delay)
            let mut succ: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_pins];
            let mut indeg = vec![0u32; n_pins];
            let add_edge = |succ: &mut Vec<Vec<(u32, f64)>>,
                            indeg: &mut Vec<u32>,
                            a: PinId,
                            b: PinId,
                            d: f64| {
                succ[a.index()].push((b.0, d));
                indeg[b.index()] += 1;
            };
            // net arcs: driver output pin -> every input pin
            for net_id in netlist.net_ids() {
                if netlist.net(net_id).is_clock {
                    continue; // ideal clock
                }
                let Some(driver) = netlist.net_driver(net_id) else {
                    continue;
                };
                let d = net_wire_delay[net_id.index()];
                for &p in &netlist.net(net_id).pins {
                    if netlist.pin(p).direction == PinDirection::Input {
                        add_edge(&mut succ, &mut indeg, driver, p, d);
                    }
                }
            }
            // cell arcs: combinational input pin -> output pins of same cell
            for cell_id in netlist.cell_ids() {
                let cell = netlist.cell(cell_id);
                if cell.class != CellClass::Combinational && cell.class != CellClass::Macro {
                    continue; // sequential and IO cells cut timing paths
                }
                let pins = netlist.cell_pins(cell_id);
                for &pi in pins {
                    if netlist.pin(pi).direction != PinDirection::Input {
                        continue;
                    }
                    for &po in pins {
                        if netlist.pin(po).direction != PinDirection::Output {
                            continue;
                        }
                        let load = net_load[netlist.pin(po).net.index()];
                        let d =
                            cell.intrinsic_delay + drive(cell_id.index(), cell.drive_res) * load;
                        add_edge(&mut succ, &mut indeg, pi, po, d);
                    }
                }
            }

            // --- start points ------------------------------------------------------
            let mut arrival = vec![0.0f64; n_pins];
            let mut min_arrival = vec![f64::INFINITY; n_pins];
            let mut worst_pred: Vec<u32> = vec![u32::MAX; n_pins];
            let mut slew = vec![5.0f64; n_pins];
            for cell_id in netlist.cell_ids() {
                let cell = netlist.cell(cell_id);
                let launches = matches!(cell.class, CellClass::Sequential | CellClass::Io);
                if !launches {
                    continue;
                }
                for &p in netlist.cell_pins(cell_id) {
                    if netlist.pin(p).direction == PinDirection::Output {
                        // clk-to-q (or pad) delay
                        let load = net_load[netlist.pin(p).net.index()];
                        let r = drive(cell_id.index(), cell.drive_res);
                        arrival[p.index()] = cell.intrinsic_delay + r * load;
                        min_arrival[p.index()] = self.fast_corner * arrival[p.index()];
                        slew[p.index()] = 2.2 * r * load;
                    }
                }
            }

            // --- levelized propagation with cycle breaking -------------------------
            // Kahn leveling: a pin's level is ready once all its predecessors
            // are processed; a drained frontier with pins remaining means a
            // combinational cycle, broken by forcing the lowest-id stuck pin.
            let mut levels: Vec<Vec<u32>> = Vec::new();
            let mut queued = vec![false; n_pins];
            let mut frontier: Vec<u32> = (0..n_pins as u32)
                .filter(|&p| indeg[p as usize] == 0)
                .collect();
            for &p in &frontier {
                queued[p as usize] = true;
            }
            let mut n_done = 0usize;
            let mut broken = 0usize;
            loop {
                if frontier.is_empty() {
                    if n_done >= n_pins {
                        break;
                    }
                    // Combinational cycle: force the lowest-id stuck pin. Its
                    // cycle edges pull the predecessors' *initial* values (the
                    // preds sit in later levels), which is the cycle-breaking
                    // approximation.
                    match queued.iter().position(|&q| !q) {
                        Some(i) => {
                            broken += 1;
                            indeg[i] = 0;
                            queued[i] = true;
                            frontier.push(i as u32);
                        }
                        None => break,
                    }
                }
                n_done += frontier.len();
                let mut next: Vec<u32> = Vec::new();
                for &p in &frontier {
                    for &(q, _) in &succ[p as usize] {
                        let qi = q as usize;
                        indeg[qi] = indeg[qi].saturating_sub(1);
                        if indeg[qi] == 0 && !queued[qi] {
                            queued[qi] = true;
                            next.push(q);
                        }
                    }
                }
                levels.push(std::mem::replace(&mut frontier, next));
            }

            // Pull-based sweep: every pin of a level reads only values written
            // by earlier levels (plus initial values across broken cycle
            // edges), so a level's pins are independent and fan out in
            // parallel; results are written back in pin order.
            let mut pred: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_pins];
            for (p, outs) in succ.iter().enumerate() {
                for &(q, d) in outs {
                    pred[q as usize].push((p as u32, d));
                }
            }
            let fc = self.fast_corner;
            for level in &levels {
                // hot-path: sta-pull
                let pull = |&p: &u32| {
                    let pi = p as usize;
                    let mut a = arrival[pi];
                    let mut ma = min_arrival[pi];
                    let mut sl = slew[pi];
                    let mut wp = worst_pred[pi];
                    for &(q, d) in &pred[pi] {
                        let qi = q as usize;
                        if arrival[qi] + d > a {
                            a = arrival[qi] + d;
                            wp = q;
                        }
                        let fast = min_arrival[qi] + fc * d;
                        if fast < ma {
                            ma = fast;
                        }
                        // slew degrades along wires, regenerates at cell outputs
                        sl = sl.max(slew[qi] * 0.5 + d * 0.4);
                    }
                    (a, ma, sl, wp)
                };
                // hot-path: end
                let updates: Vec<(f64, f64, f64, u32)> = if level.len() >= STA_LEVEL_PAR_MIN {
                    dco_parallel::par_map(level, |_, p| pull(p))
                } else {
                    level.iter().map(pull).collect()
                };
                for (&p, (a, ma, sl, wp)) in level.iter().zip(updates) {
                    let pi = p as usize;
                    arrival[pi] = a;
                    min_arrival[pi] = ma;
                    slew[pi] = sl;
                    worst_pred[pi] = wp;
                }
            }

            // --- endpoints and slacks -----------------------------------------------
            let period = tech.clock_period_ps;
            let mut wns = f64::INFINITY;
            let mut tns = 0.0f64;
            let mut violations = 0usize;
            let mut hold_wns = f64::INFINITY;
            let mut hold_tns = 0.0f64;
            let mut hold_violations = 0usize;
            let mut cell_slack = vec![period; n_cells];
            let mut cell_out_slew = vec![0.0f64; n_cells];
            let mut cell_in_slew = vec![0.0f64; n_cells];
            for pin_id in 0..n_pins {
                let pin = netlist.pin(PinId(pin_id as u32));
                let cell = netlist.cell(pin.cell);
                match pin.direction {
                    PinDirection::Output => {
                        let ci = pin.cell.index();
                        cell_out_slew[ci] = cell_out_slew[ci].max(slew[pin_id]);
                    }
                    PinDirection::Input => {
                        let ci = pin.cell.index();
                        cell_in_slew[ci] = cell_in_slew[ci].max(slew[pin_id]);
                    }
                }
                let is_endpoint = pin.direction == PinDirection::Input
                    && matches!(cell.class, CellClass::Sequential | CellClass::Io);
                if is_endpoint {
                    let slack = period - self.setup_ps - arrival[pin_id];
                    if slack < wns {
                        wns = slack;
                    }
                    if slack < 0.0 {
                        tns += slack;
                        violations += 1;
                    }
                    // hold: the fastest arrival must not race past the capture
                    // edge (ideal clock, so the requirement is `hold_ps`).
                    if min_arrival[pin_id].is_finite() {
                        let hold_slack = min_arrival[pin_id] - self.hold_ps;
                        if hold_slack < hold_wns {
                            hold_wns = hold_slack;
                        }
                        if hold_slack < 0.0 {
                            hold_tns += hold_slack;
                            hold_violations += 1;
                        }
                    }
                }
            }
            if !wns.is_finite() {
                wns = period;
            }
            if !hold_wns.is_finite() {
                hold_wns = 0.0;
            }
            // back-annotate worst slack onto every cell on the path (approximate:
            // a cell's slack is the worst endpoint slack reachable, here we use
            // arrival-based estimate: slack_i = period - setup - arrival_worst_i).
            for (pin_id, &arr) in arrival.iter().enumerate().take(n_pins) {
                let ci = netlist.pin(PinId(pin_id as u32)).cell.index();
                let s = period - self.setup_ps - arr;
                if s < cell_slack[ci] {
                    cell_slack[ci] = s;
                }
            }

            TimingReport {
                wns_ps: wns.min(0.0).min(period),
                tns_ps: tns,
                violations,
                cell_slack,
                cell_output_slew: cell_out_slew,
                cell_input_slew: cell_in_slew,
                broken_cycle_edges: broken,
                hold_wns_ps: hold_wns.min(0.0),
                hold_tns_ps: hold_tns,
                hold_violations,
                pin_arrival: arrival,
                worst_pred,
            }
        }
    }

    /// Every field of `r`, floats as bits.
    fn report_bits(r: &TimingReport) -> (Vec<u64>, [usize; 3], Vec<Vec<u64>>, Vec<u32>) {
        let TimingReport {
            wns_ps,
            tns_ps,
            violations,
            cell_slack,
            cell_output_slew,
            cell_input_slew,
            broken_cycle_edges,
            hold_wns_ps,
            hold_tns_ps,
            hold_violations,
            pin_arrival,
            worst_pred,
        } = r;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (
            bits(&[*wns_ps, *tns_ps, *hold_wns_ps, *hold_tns_ps]),
            [*violations, *broken_cycle_edges, *hold_violations],
            vec![
                bits(cell_slack),
                bits(cell_output_slew),
                bits(cell_input_slew),
                bits(pin_arrival),
            ],
            worst_pred.clone(),
        )
    }

    fn assert_bitwise_eq(a: &TimingReport, b: &TimingReport, what: &str) {
        assert!(
            report_bits(a) == report_bits(b),
            "{what}: wns {} vs {}, tns {} vs {}",
            a.wns_ps,
            b.wns_ps,
            a.tns_ps,
            b.tns_ps
        );
    }

    /// A deterministic per-cell drive scale in `[0.35, 1.0]`.
    fn uneven_scale(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.35 + 0.65 * ((i * 7919) % 101) as f64 / 100.0)
            .collect()
    }

    #[test]
    fn analyze_matches_reference_bitwise() {
        for profile in [
            DesignProfile::Dma,
            DesignProfile::Ecg,
            DesignProfile::Aes,
            DesignProfile::Rocket,
        ] {
            let d = GeneratorConfig::for_profile(profile)
                .with_scale(0.03)
                .generate(3)
                .expect("gen");
            let routed = Router::new(&d, RouterConfig::default()).route(&d.placement);
            let (lens, bonds) = (Some(&routed.net_lengths[..]), Some(&routed.net_bonds[..]));
            let scale = uneven_scale(d.netlist.num_cells());
            let mut sta = Sta::new(&d);
            sta.setup_ps += 13.25;
            sta.hold_ps = 3.5;
            sta.fast_corner = 0.6;
            for (what, lens, bonds, scale) in [
                ("pre-route", None, None, None),
                ("routed", lens, bonds, None),
                ("routed, scaled drive", lens, bonds, Some(&scale[..])),
            ] {
                let got = sta.analyze_with_drive_scale(&d.placement, lens, bonds, scale);
                let want = sta.reference_analyze(&d.placement, lens, bonds, scale);
                assert!(want.broken_cycle_edges > 0, "{profile:?} has no cycles");
                assert_bitwise_eq(&got, &want, &format!("{profile:?} {what}"));
            }
        }
    }

    #[test]
    fn eco_rounds_match_reference_bitwise() {
        let mut d = GeneratorConfig::for_profile(DesignProfile::Rocket)
            .with_scale(0.02)
            .generate(4)
            .expect("gen");
        d.technology.clock_period_ps = 300.0;
        let routed = Router::new(&d, RouterConfig::default()).route(&d.placement);
        let (lens, bonds) = (Some(&routed.net_lengths[..]), Some(&routed.net_bonds[..]));
        let mut sta = Sta::new(&d);
        sta.setup_ps += 9.5; // a CTS skew, as the signoff stage adds
        let eco = run_timing_eco(&d, &d.placement, lens, bonds, &sta, 4);
        assert!(eco.rounds >= 2, "only {} sizing rounds", eco.rounds);
        let unit = vec![1.0; d.netlist.num_cells()];
        let before = sta.reference_analyze(&d.placement, lens, bonds, Some(&unit));
        assert_bitwise_eq(&eco.before, &before, "before");
        let after = sta.reference_analyze(&d.placement, lens, bonds, Some(&eco.drive_scale));
        assert_bitwise_eq(&eco.after, &after, "after");
    }

    #[test]
    fn worst_path_slack_matches_wns() {
        let mut d = GeneratorConfig::for_profile(DesignProfile::Rocket)
            .with_scale(0.02)
            .generate(4)
            .expect("gen");
        d.technology.clock_period_ps = 300.0;
        let mut sta = Sta::new(&d);
        sta.setup_ps += 9.5;
        let rep = sta.analyze(&d.placement, None, None);
        assert!(rep.wns_ps < 0.0, "test design should violate timing");
        let paths = sta.worst_paths(&rep, 1);
        assert_eq!(paths[0].0.to_bits(), rep.wns_ps.to_bits());
    }

    #[test]
    fn longer_wires_mean_worse_slack() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(5)
            .expect("gen");
        let sta = Sta::new(&d);
        let short = sta.analyze(&d.placement, None, None);
        // Pretend every net is 10x longer.
        let lens: Vec<f64> = d
            .netlist
            .net_ids()
            .map(|n| d.placement.net_hpwl(&d.netlist, n) * 10.0 + 1.0)
            .collect();
        let long = sta.analyze(&d.placement, Some(&lens), None);
        assert!(
            long.tns_ps <= short.tns_ps,
            "longer wires should not improve TNS: {} vs {}",
            long.tns_ps,
            short.tns_ps
        );
        assert!(raw_wns(&long) < raw_wns(&short));
    }

    #[test]
    fn bond_crossings_add_delay() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(5)
            .expect("gen");
        let sta = Sta::new(&d);
        let no_bonds = sta.analyze(&d.placement, None, None);
        let bonds: Vec<u32> = vec![3; d.netlist.num_nets()];
        let with_bonds = sta.analyze(&d.placement, None, Some(&bonds));
        assert!(raw_wns(&with_bonds) < raw_wns(&no_bonds));
    }

    #[test]
    fn single_stage_pipeline_meets_timing() {
        // ff -> small combinational cloud -> ff with tiny wires must meet a
        // 500ps clock easily.
        let mut b = NetlistBuilder::new("pipe");
        let ff1 = b.add_cell_simple("ff1", CellClass::Sequential);
        let g1 = b.add_cell_simple("g1", CellClass::Combinational);
        let ff2 = b.add_cell_simple("ff2", CellClass::Sequential);
        b.add_net(
            "a",
            &[(ff1, PinDirection::Output), (g1, PinDirection::Input)],
        );
        b.add_net(
            "b",
            &[(g1, PinDirection::Output), (ff2, PinDirection::Input)],
        );
        let nl = b.finish().expect("valid");
        let d = wrap_design(nl);
        let rep = Sta::new(&d).analyze(&d.placement, None, None);
        assert_eq!(rep.violations, 0);
        assert_eq!(rep.wns_ps, 0.0);
        assert_eq!(rep.tns_ps, 0.0);
    }

    #[test]
    fn combinational_cycles_are_broken_not_hung() {
        let mut b = NetlistBuilder::new("loop");
        let g1 = b.add_cell_simple("g1", CellClass::Combinational);
        let g2 = b.add_cell_simple("g2", CellClass::Combinational);
        b.add_net(
            "a",
            &[(g1, PinDirection::Output), (g2, PinDirection::Input)],
        );
        b.add_net(
            "b",
            &[(g2, PinDirection::Output), (g1, PinDirection::Input)],
        );
        let nl = b.finish().expect("valid");
        let d = wrap_design(nl);
        let rep = Sta::new(&d).analyze(&d.placement, None, None);
        assert!(rep.broken_cycle_edges > 0);
    }

    #[test]
    fn hold_analysis_flags_short_paths() {
        // ff -> ff direct connection with near-zero wire: fast-corner
        // arrival ~ clk-to-q * 0.5, which beats a large hold requirement.
        let mut b = NetlistBuilder::new("hold");
        let ff1 = b.add_cell_simple("ff1", CellClass::Sequential);
        let ff2 = b.add_cell_simple("ff2", CellClass::Sequential);
        b.add_net(
            "q",
            &[(ff1, PinDirection::Output), (ff2, PinDirection::Input)],
        );
        let nl = b.finish().expect("valid");
        let d = wrap_design(nl);
        let mut sta = Sta::new(&d);
        sta.hold_ps = 50.0; // exaggerated requirement
        let rep = sta.analyze(&d.placement, None, None);
        assert!(rep.hold_violations > 0, "short path should violate hold");
        assert!(rep.hold_wns_ps < 0.0);
        // relaxing the requirement clears it
        sta.hold_ps = 0.0;
        let ok = sta.analyze(&d.placement, None, None);
        assert_eq!(ok.hold_violations, 0);
        assert_eq!(ok.hold_wns_ps, 0.0);
    }

    #[test]
    fn hold_and_setup_move_oppositely_with_wire_length() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(7)
            .expect("gen");
        let mut sta = Sta::new(&d);
        sta.hold_ps = 8.0;
        let base: Vec<f64> = d
            .netlist
            .net_ids()
            .map(|n| d.placement.net_hpwl(&d.netlist, n).max(0.1))
            .collect();
        let long: Vec<f64> = base.iter().map(|&l| l * 5.0).collect();
        let t0 = sta.analyze(&d.placement, Some(&base), None);
        let t1 = sta.analyze(&d.placement, Some(&long), None);
        // longer wires: setup worse, hold no worse
        assert!(t1.tns_ps <= t0.tns_ps);
        assert!(t1.hold_tns_ps >= t0.hold_tns_ps - 1e-9);
    }

    #[test]
    fn worst_paths_trace_back_to_launch_points() {
        let d = GeneratorConfig::for_profile(DesignProfile::Ecg)
            .with_scale(0.02)
            .generate(9)
            .expect("gen");
        let sta = Sta::new(&d);
        let rep = sta.analyze(&d.placement, None, None);
        let paths = sta.worst_paths(&rep, 3);
        assert_eq!(paths.len(), 3);
        // worst-first ordering
        assert!(paths[0].0 <= paths[1].0 && paths[1].0 <= paths[2].0);
        for (_slack, pts) in &paths {
            assert!(pts.len() >= 2, "path too short: {pts:?}");
            // arrivals are non-decreasing along the path
            for w in pts.windows(2) {
                assert!(w[0].arrival_ps <= w[1].arrival_ps + 1e-9);
            }
            // with no broken cycles the launch point is a sequential/IO
            // output; cycle-broken designs may truncate mid-path
            if rep.broken_cycle_edges == 0 {
                let first = d.netlist.pin(pts[0].pin);
                assert!(matches!(
                    d.netlist.cell(first.cell).class,
                    CellClass::Sequential | CellClass::Io
                ));
            }
        }
    }

    #[test]
    fn slews_are_populated() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(3)
            .expect("gen");
        let rep = Sta::new(&d).analyze(&d.placement, None, None);
        assert!(rep.cell_output_slew.iter().any(|&s| s > 0.0));
        assert!(rep.cell_input_slew.iter().any(|&s| s > 0.0));
        assert_eq!(rep.cell_slack.len(), d.netlist.num_cells());
    }

    fn wrap_design(netlist: dco_netlist::Netlist) -> Design {
        let tech = dco_netlist::Technology::sim_3nm();
        let area: f64 = netlist.cells().map(|c| c.area()).sum();
        let fp = dco_netlist::Floorplan::for_area(area.max(1.0), 0.6, &tech);
        let n = netlist.num_cells();
        Design {
            netlist,
            floorplan: fp,
            placement: Placement3::zeroed(n),
            technology: tech,
            name: "test".into(),
        }
    }
}
