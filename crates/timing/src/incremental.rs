//! The static-timing engine behind every analysis in this crate.
//!
//! [`Sta::analyze`] builds an engine and runs its from-scratch pass;
//! [`IncrementalSta`] keeps one engine warm across placements, and the
//! timing ECO keeps one across sizing rounds.
//!
//! # Contract
//!
//! - **The graph is frozen.** Edges (net arcs in net-id order, then cell
//!   arcs in cell-id order), topological levels and cycle breaks depend
//!   only on the netlist and are built once per engine. Kahn's algorithm
//!   levels the pins; when the frontier drains with pins left, a
//!   combinational cycle is broken by forcing the lowest-id stuck pin into
//!   the next level. Between calls the engine keeps the per-pin `arrival`
//!   / `min_arrival` / `slew` / `worst_pred` arrays live.
//! - **A cycle predecessor reads the constant initial values.** A pin pulls
//!   the live values of its predecessors at a *strictly lower* level. A
//!   same-or-higher-level predecessor, which only a broken cycle produces,
//!   contributes the initial values `(0.0, +inf, 5.0)` instead. They are
//!   placement-independent constants, so the value a pin pulls never
//!   depends on which pass wrote its predecessors last.
//! - **Propagation stops where a recomputed value is bitwise unchanged.**
//!   The from-scratch pass pulls every pin once, level by level. An apply
//!   re-derives the electricals of the changed nets, seeds the pins whose
//!   incoming arc delays changed, and pulls dirty pins level by level; a
//!   pin's successors become dirty only when its values changed. Because
//!   every pull is a pure function of final lower-level values, `full` and
//!   any chain of `apply`s land on bitwise-identical reports.
//!
//! # Threading model
//!
//! The dirty pins of one level pull from earlier levels only, so they are
//! independent: a level of at least [`STA_LEVEL_PAR_MIN`] pins fans out
//! over `dco_parallel`, and results are written back in pin order before
//! the next level starts. Each pin folds its predecessor list in a fixed
//! order, so the analysis is bitwise identical at any thread count.

use crate::sta::{Sta, TimingReport};
use dco_incremental::DeltaSet;
use dco_netlist::{CellClass, CellId, Design, NetId, PinDirection, PinId, Placement3};

/// Dirty pins below this count in a topological level are pulled inline —
/// fan-out overhead would dominate the work on small levels. A fixed
/// constant (not thread-count-derived); it only chooses *whether* to fan
/// out, never how results are ordered, so it cannot affect output bits.
pub(crate) const STA_LEVEL_PAR_MIN: usize = 64;

/// Initial (pre-propagation) per-pin values for pins with predecessors;
/// a pin reads these across a broken cycle edge.
const INIT_ARRIVAL: f64 = 0.0;
const INIT_SLEW: f64 = 5.0;

/// Per-apply statistics from the incremental STA engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStaStats {
    /// Nets whose electricals were re-derived.
    pub nets_changed: usize,
    /// Pins re-pulled by the levelized worklist (the cone size).
    pub cone_pins: usize,
}

/// How a timing arc's delay is derived from the live electrical state.
#[derive(Debug, Clone, Copy)]
enum EdgeKind {
    /// Driver → sink wire arc of a net: delay = `net_wire_delay[net]`.
    Net(u32),
    /// Input → output arc through a cell: delay =
    /// `intrinsic + drive[cell] * net_load[out_net]`.
    Cell { cell: u32, out_net: u32 },
}

/// The STA engine: a frozen pin graph plus the live per-pin state that
/// [`IncrementalSta::apply`] re-propagates event by event.
#[derive(Debug)]
pub struct IncrementalSta<'a> {
    design: &'a Design,
    setup_ps: f64,
    hold_ps: f64,
    fast_corner: f64,
    /// Effective drive resistance per cell: `drive_res * scale`.
    drive: Vec<f64>,
    // --- frozen topology (netlist-only) ---------------------------------
    succ: Vec<Vec<(u32, EdgeKind)>>,
    pred: Vec<Vec<(u32, EdgeKind)>>,
    levels: Vec<Vec<u32>>,
    level_of: Vec<u32>,
    broken: usize,
    /// Per-net sink input capacitance (topology-constant).
    c_sinks: Vec<f64>,
    /// Launch (Sequential / Io) output pins, in pin order.
    launch_pins: Vec<u32>,
    // --- live state -----------------------------------------------------
    net_load: Vec<f64>,
    net_wire_delay: Vec<f64>,
    arrival: Vec<f64>,
    min_arrival: Vec<f64>,
    slew: Vec<f64>,
    worst_pred: Vec<u32>,
    last_stats: IncrStaStats,
}

impl<'a> IncrementalSta<'a> {
    /// Build the frozen pin graph for `design` with [`Sta::new`]'s default
    /// margins (5 ps setup, 2 ps hold, 0.5x fast corner).
    pub fn new(design: &'a Design) -> Self {
        Self::for_sta(&Sta::new(design))
    }

    /// Build the frozen pin graph for `sta`'s design, with `sta`'s margins
    /// and every cell at its unscaled drive resistance.
    pub(crate) fn for_sta(sta: &Sta<'a>) -> Self {
        let design = sta.design;
        let netlist = &design.netlist;
        let n_pins = netlist.num_pins();

        // Pin graph: a wire arc from each signal net's driver to every
        // sink (the clock is ideal), then an arc from every input to every
        // output of each combinational cell or macro (sequential and IO
        // cells cut timing paths). This order fixes each pin's
        // predecessor fold.
        let mut succ: Vec<Vec<(u32, EdgeKind)>> = vec![Vec::new(); n_pins];
        let mut indeg = vec![0u32; n_pins];
        for net_id in netlist.net_ids() {
            if netlist.net(net_id).is_clock {
                continue;
            }
            let Some(driver) = netlist.net_driver(net_id) else {
                continue;
            };
            for &p in &netlist.net(net_id).pins {
                if netlist.pin(p).direction == PinDirection::Input {
                    succ[driver.index()].push((p.0, EdgeKind::Net(net_id.0)));
                    indeg[p.index()] += 1;
                }
            }
        }
        for cell_id in netlist.cell_ids() {
            let cell = netlist.cell(cell_id);
            if cell.class != CellClass::Combinational && cell.class != CellClass::Macro {
                continue;
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
                    succ[pi.index()].push((
                        po.0,
                        EdgeKind::Cell {
                            cell: cell_id.0,
                            out_net: netlist.pin(po).net.0,
                        },
                    ));
                    indeg[po.index()] += 1;
                }
            }
        }

        // Kahn levelization: a pin's level is ready once all its
        // predecessors are placed; a drained frontier with pins remaining
        // means a combinational cycle, broken by forcing the lowest-id
        // stuck pin. A pin is never unqueued, so each search for that pin
        // resumes at the last one forced (`stuck`).
        let mut levels: Vec<Vec<u32>> = Vec::new();
        let mut queued = vec![false; n_pins];
        let mut stuck = 0usize;
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
                match queued[stuck..].iter().position(|&q| !q) {
                    Some(offset) => {
                        stuck += offset;
                        broken += 1;
                        indeg[stuck] = 0;
                        queued[stuck] = true;
                        frontier.push(stuck as u32);
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
        let mut level_of = vec![0u32; n_pins];
        for (li, level) in levels.iter().enumerate() {
            for &p in level {
                level_of[p as usize] = li as u32;
            }
        }
        let mut pred: Vec<Vec<(u32, EdgeKind)>> = vec![Vec::new(); n_pins];
        for (p, outs) in succ.iter().enumerate() {
            for &(q, kind) in outs {
                pred[q as usize].push((p as u32, kind));
            }
        }

        // Topology-constant sink capacitance per net, folded in pin order.
        let c_sinks: Vec<f64> = netlist
            .net_ids()
            .map(|net_id| {
                netlist
                    .net(net_id)
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
                    .sum()
            })
            .collect();

        let mut launch_pins = Vec::new();
        for cell_id in netlist.cell_ids() {
            let cell = netlist.cell(cell_id);
            if matches!(cell.class, CellClass::Sequential | CellClass::Io) {
                for &p in netlist.cell_pins(cell_id) {
                    if netlist.pin(p).direction == PinDirection::Output {
                        launch_pins.push(p.0);
                    }
                }
            }
        }

        let n_nets = netlist.num_nets();
        Self {
            design,
            setup_ps: sta.setup_ps,
            hold_ps: sta.hold_ps,
            fast_corner: sta.fast_corner,
            drive: netlist.cells().map(|c| c.drive_res).collect(),
            succ,
            pred,
            levels,
            level_of,
            broken,
            c_sinks,
            launch_pins,
            net_load: vec![0.0; n_nets],
            net_wire_delay: vec![0.0; n_nets],
            arrival: vec![INIT_ARRIVAL; n_pins],
            min_arrival: vec![f64::INFINITY; n_pins],
            slew: vec![INIT_SLEW; n_pins],
            worst_pred: vec![u32::MAX; n_pins],
            last_stats: IncrStaStats::default(),
        }
    }

    /// Scale each cell's drive resistance: cell `i` drives with
    /// `drive_res * scale[i]` (values < 1.0 model upsized drivers). Takes
    /// effect at the next [`IncrementalSta::full`].
    pub(crate) fn set_drive_scale(&mut self, scale: &[f64]) {
        let netlist = &self.design.netlist;
        for id in netlist.cell_ids() {
            self.drive[id.index()] = netlist.cell(id).drive_res * scale[id.index()];
        }
    }

    /// Analyze `placement` from scratch, replacing all cached state.
    ///
    /// A net routes `net_lengths[net]` microns, or its HPWL when that entry
    /// is missing or not positive; it crosses `net_bonds[net]` hybrid bonds,
    /// or none when that entry is missing. Empty slices therefore give the
    /// pre-route analysis.
    pub fn full(
        &mut self,
        placement: &Placement3,
        net_lengths: &[f64],
        net_bonds: &[u32],
    ) -> TimingReport {
        let n_pins = self.design.netlist.num_pins();
        self.arrival = vec![INIT_ARRIVAL; n_pins];
        self.min_arrival = vec![f64::INFINITY; n_pins];
        self.slew = vec![INIT_SLEW; n_pins];
        self.worst_pred = vec![u32::MAX; n_pins];
        for net_id in self.design.netlist.net_ids() {
            let (load, wd) = self.net_electricals(net_id, placement, net_lengths, net_bonds);
            self.net_load[net_id.index()] = load;
            self.net_wire_delay[net_id.index()] = wd;
        }
        let mut dirty = vec![true; n_pins];
        for &p in &self.launch_pins.clone() {
            self.recompute_launch(p);
            dirty[p as usize] = false;
        }
        let cone = self.propagate(&mut dirty);
        self.last_stats = IncrStaStats {
            nets_changed: self.design.netlist.num_nets(),
            cone_pins: cone,
        };
        self.report()
    }

    /// Refresh the electricals of the nets named by `delta`, re-propagate
    /// the downstream cones of every changed arc, and return the new
    /// report. Exact: bitwise-equal to a fresh [`IncrementalSta::full`] at
    /// the same placement / lengths / bonds.
    pub fn apply(
        &mut self,
        placement: &Placement3,
        net_lengths: &[f64],
        net_bonds: &[u32],
        delta: &DeltaSet,
    ) -> TimingReport {
        let _span = dco_obs::span!("sta.incremental");
        let netlist = &self.design.netlist;
        // Changed nets: union of STA-incident and re-routed nets, id order.
        let mut changed = vec![false; netlist.num_nets()];
        for &n in delta.sta_nets() {
            changed[n.index()] = true;
        }
        for &n in delta.router_nets() {
            changed[n.index()] = true;
        }

        let mut dirty = vec![false; netlist.num_pins()];
        let mut nets_changed = 0usize;
        for net_id in netlist.net_ids() {
            if !changed[net_id.index()] {
                continue;
            }
            let i = net_id.index();
            let (load, wd) = self.net_electricals(net_id, placement, net_lengths, net_bonds);
            let load_changed = load.to_bits() != self.net_load[i].to_bits();
            let delay_changed = wd.to_bits() != self.net_wire_delay[i].to_bits();
            if !load_changed && !delay_changed {
                continue;
            }
            nets_changed += 1;
            self.net_load[i] = load;
            self.net_wire_delay[i] = wd;
            for &p in &netlist.net(net_id).pins {
                let pin = netlist.pin(p);
                match pin.direction {
                    // Wire-arc delay into every sink changed.
                    PinDirection::Input if delay_changed => dirty[p.index()] = true,
                    // Cell-arc delay into (or launch arrival of) every
                    // output pin driving this net changed with the load.
                    PinDirection::Output if load_changed => {
                        let class = netlist.cell(pin.cell).class;
                        if matches!(class, CellClass::Sequential | CellClass::Io) {
                            if self.recompute_launch(p.0) {
                                self.mark_downstream(p.0, &mut dirty);
                            }
                        } else {
                            dirty[p.index()] = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        let cone = self.propagate(&mut dirty);
        self.last_stats = IncrStaStats {
            nets_changed,
            cone_pins: cone,
        };
        dco_obs::counter_add("sta.incremental.cone_pins", cone as u64);
        dco_obs::counter_add("sta.incremental.nets_changed", nets_changed as u64);
        self.report()
    }

    /// Statistics of the most recent `full` / `apply` call.
    pub fn stats(&self) -> IncrStaStats {
        self.last_stats
    }

    /// Load (fF) and lumped-Elmore wire delay plus bond delay (ps) of one
    /// net, with the length and bond fallbacks documented on
    /// [`IncrementalSta::full`].
    fn net_electricals(
        &self,
        net_id: NetId,
        placement: &Placement3,
        net_lengths: &[f64],
        net_bonds: &[u32],
    ) -> (f64, f64) {
        let tech = &self.design.technology;
        let netlist = &self.design.netlist;
        let i = net_id.index();
        let len = net_lengths
            .get(i)
            .copied()
            .filter(|&l| l > 0.0)
            .unwrap_or_else(|| placement.net_hpwl(netlist, net_id));
        let c_wire = tech.wire_cap_per_um * len;
        let c_sinks = self.c_sinks[i];
        let load = c_wire + c_sinks;
        let r_wire = tech.wire_res_per_um * len / 1000.0;
        let bonds = net_bonds.get(i).copied().unwrap_or(0) as f64;
        let wd = 0.69 * r_wire * (c_wire / 2.0 + c_sinks) + bonds * tech.bond_delay_ps;
        (load, wd)
    }

    /// Delay of one arc from the live electrical state.
    #[inline]
    fn edge_delay(&self, kind: EdgeKind) -> f64 {
        match kind {
            EdgeKind::Net(n) => self.net_wire_delay[n as usize],
            EdgeKind::Cell { cell, out_net } => {
                let c = self.design.netlist.cell(CellId(cell));
                c.intrinsic_delay + self.drive[cell as usize] * self.net_load[out_net as usize]
            }
        }
    }

    /// Set a launch pin's clk-to-q values; returns whether they changed.
    fn recompute_launch(&mut self, p: u32) -> bool {
        let netlist = &self.design.netlist;
        let pin = netlist.pin(PinId(p));
        let cell = netlist.cell(pin.cell);
        let load = self.net_load[pin.net.index()];
        let r = self.drive[pin.cell.index()];
        let a = cell.intrinsic_delay + r * load;
        let ma = self.fast_corner * a;
        let sl = 2.2 * r * load;
        let pi = p as usize;
        let changed = a.to_bits() != self.arrival[pi].to_bits()
            || ma.to_bits() != self.min_arrival[pi].to_bits()
            || sl.to_bits() != self.slew[pi].to_bits();
        self.arrival[pi] = a;
        self.min_arrival[pi] = ma;
        self.slew[pi] = sl;
        changed
    }

    /// Mark every strictly-higher-level successor of `p` dirty. (A same-or-
    /// lower-level successor is a broken cycle edge; it reads constant
    /// initial values from `p`, so it cannot be affected.)
    fn mark_downstream(&self, p: u32, dirty: &mut [bool]) {
        let lp = self.level_of[p as usize];
        for &(q, _) in &self.succ[p as usize] {
            if self.level_of[q as usize] > lp {
                dirty[q as usize] = true;
            }
        }
    }

    /// Levelized worklist propagation; returns the number of pins pulled.
    /// A dirty pin re-folds its predecessor list; its strictly-higher-level
    /// successors become dirty only if a value changed bitwise.
    fn propagate(&mut self, dirty: &mut [bool]) -> usize {
        let fc = self.fast_corner;
        let mut cone = 0usize;
        for li in 0..self.levels.len() {
            let todo: Vec<u32> = self.levels[li]
                .iter()
                .copied()
                .filter(|&p| dirty[p as usize])
                .collect();
            if todo.is_empty() {
                continue;
            }
            cone += todo.len();
            // hot-path: sta-pull
            let pull = |&p: &u32| {
                let pi = p as usize;
                let lp = self.level_of[pi];
                let mut a = INIT_ARRIVAL;
                let mut ma = f64::INFINITY;
                let mut sl = INIT_SLEW;
                let mut wp = u32::MAX;
                for &(q, kind) in &self.pred[pi] {
                    let qi = q as usize;
                    let d = self.edge_delay(kind);
                    // Strictly-lower-level predecessors are final; a cycle
                    // predecessor contributes its constant initial values.
                    let (aq, maq, slq) = if self.level_of[qi] < lp {
                        (self.arrival[qi], self.min_arrival[qi], self.slew[qi])
                    } else {
                        (INIT_ARRIVAL, f64::INFINITY, INIT_SLEW)
                    };
                    if aq + d > a {
                        a = aq + d;
                        wp = q;
                    }
                    let fast = maq + fc * d;
                    if fast < ma {
                        ma = fast;
                    }
                    sl = sl.max(slq * 0.5 + d * 0.4);
                }
                (a, ma, sl, wp)
            };
            // hot-path: end
            let updates: Vec<(f64, f64, f64, u32)> = if todo.len() >= STA_LEVEL_PAR_MIN {
                dco_parallel::par_map(&todo, |_, p| pull(p))
            } else {
                todo.iter().map(pull).collect()
            };
            for (&p, (a, ma, sl, wp)) in todo.iter().zip(updates) {
                let pi = p as usize;
                dirty[pi] = false;
                let changed = a.to_bits() != self.arrival[pi].to_bits()
                    || ma.to_bits() != self.min_arrival[pi].to_bits()
                    || sl.to_bits() != self.slew[pi].to_bits();
                self.arrival[pi] = a;
                self.min_arrival[pi] = ma;
                self.slew[pi] = sl;
                self.worst_pred[pi] = wp;
                if changed {
                    self.mark_downstream(p, dirty);
                }
            }
        }
        cone
    }

    /// Fold the live per-pin state into a [`TimingReport`]: setup and hold
    /// slack at the endpoints (sequential and IO inputs), per-cell worst
    /// slew, and per-cell worst slack.
    fn report(&self) -> TimingReport {
        let netlist = &self.design.netlist;
        let n_pins = netlist.num_pins();
        let n_cells = netlist.num_cells();
        let period = self.design.technology.clock_period_ps;
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
                    cell_out_slew[ci] = cell_out_slew[ci].max(self.slew[pin_id]);
                }
                PinDirection::Input => {
                    let ci = pin.cell.index();
                    cell_in_slew[ci] = cell_in_slew[ci].max(self.slew[pin_id]);
                }
            }
            let is_endpoint = pin.direction == PinDirection::Input
                && matches!(cell.class, CellClass::Sequential | CellClass::Io);
            if is_endpoint {
                let slack = period - self.setup_ps - self.arrival[pin_id];
                if slack < wns {
                    wns = slack;
                }
                if slack < 0.0 {
                    tns += slack;
                    violations += 1;
                }
                if self.min_arrival[pin_id].is_finite() {
                    let hold_slack = self.min_arrival[pin_id] - self.hold_ps;
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
        for (pin_id, &arr) in self.arrival.iter().enumerate().take(n_pins) {
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
            broken_cycle_edges: self.broken,
            hold_wns_ps: hold_wns.min(0.0),
            hold_tns_ps: hold_tns,
            hold_violations,
            pin_arrival: self.arrival.clone(),
            worst_pred: self.worst_pred.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::CellId;
    use dco_route::IncrementalRouter;

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(5)
            .expect("gen")
    }

    fn reports_bitwise_equal(a: &TimingReport, b: &TimingReport) -> bool {
        let f = |x: f64| x.to_bits();
        f(a.wns_ps) == f(b.wns_ps)
            && f(a.tns_ps) == f(b.tns_ps)
            && a.violations == b.violations
            && a.hold_violations == b.hold_violations
            && f(a.hold_wns_ps) == f(b.hold_wns_ps)
            && f(a.hold_tns_ps) == f(b.hold_tns_ps)
            && a.cell_slack
                .iter()
                .zip(&b.cell_slack)
                .all(|(x, y)| f(*x) == f(*y))
            && a.pin_arrival
                .iter()
                .zip(&b.pin_arrival)
                .all(|(x, y)| f(*x) == f(*y))
            && a.worst_pred == b.worst_pred
            && a.cell_output_slew
                .iter()
                .zip(&b.cell_output_slew)
                .all(|(x, y)| f(*x) == f(*y))
            && a.cell_input_slew
                .iter()
                .zip(&b.cell_input_slew)
                .all(|(x, y)| f(*x) == f(*y))
    }

    #[test]
    fn incremental_apply_matches_fresh_full_bitwise() {
        let d = design();
        let g = d.floorplan.grid;
        let mut moved = d.placement.clone();
        let id = CellId(7);
        moved.set_xy(id, moved.x(id) + 3.0 * g.dx, moved.y(id) - 1.0 * g.dy);

        let mut rt = IncrementalRouter::new(&d);
        let r0 = rt.full(&d.placement);
        let mut eng = IncrementalSta::new(&d);
        eng.full(&d.placement, &r0.net_lengths, &r0.net_bonds);
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        let routed = rt.apply(&moved, &delta);
        let incr = eng.apply(&moved, &routed.net_lengths, &routed.net_bonds, &delta);
        assert!(
            eng.stats().cone_pins < d.netlist.num_pins(),
            "cone should be partial"
        );

        let mut fresh = IncrementalSta::new(&d);
        let scratch = fresh.full(&moved, &routed.net_lengths, &routed.net_bonds);
        assert!(reports_bitwise_equal(&incr, &scratch));
    }

    #[test]
    fn empty_delta_pulls_nothing() {
        let d = design();
        let mut rt = IncrementalRouter::new(&d);
        let routed = rt.full(&d.placement);
        let mut eng = IncrementalSta::new(&d);
        let a = eng.full(&d.placement, &routed.net_lengths, &routed.net_bonds);
        let delta = DeltaSet::empty(d.floorplan.grid);
        let b = eng.apply(&d.placement, &routed.net_lengths, &routed.net_bonds, &delta);
        assert_eq!(eng.stats().cone_pins, 0);
        assert!(reports_bitwise_equal(&a, &b));
    }

    #[test]
    fn everything_delta_matches_full() {
        let d = design();
        let mut rt = IncrementalRouter::new(&d);
        let routed = rt.full(&d.placement);
        let mut eng = IncrementalSta::new(&d);
        eng.full(&d.placement, &routed.net_lengths, &routed.net_bonds);
        let delta = DeltaSet::everything(&d.netlist, d.floorplan.grid);
        let a = eng.apply(&d.placement, &routed.net_lengths, &routed.net_bonds, &delta);
        let mut fresh = IncrementalSta::new(&d);
        let b = fresh.full(&d.placement, &routed.net_lengths, &routed.net_bonds);
        assert!(reports_bitwise_equal(&a, &b));
    }
}
