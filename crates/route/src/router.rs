//! Pattern routing with negotiated-congestion rip-up-and-reroute.
//!
//! # Threading model: snapshot-route + ordered-apply
//!
//! Both the initial pattern routing and every rip-up-and-reroute (RRR)
//! iteration process segments in **waves of [`ROUTE_BATCH`]**: the batch
//! is ripped out of the usage grids (RRR only), every batch member is
//! routed *in parallel* against that frozen snapshot of the grids, and the
//! resulting paths are committed back *serially, in segment order*. Batch
//! boundaries are a fixed constant — never derived from the thread count —
//! so the route result is bitwise identical at any `dco_parallel` thread
//! count, including `--threads 1`.

use crate::report::OverflowReport;
use crate::topology::{decompose_net, Segment3};
use dco_features::GridMap;
use dco_netlist::{Design, GcellGrid, Placement3, Tier};

/// Segments routed per parallel wave. A fixed constant (not a function of
/// the thread count) so batch boundaries — and therefore results — are
/// identical no matter how many workers execute the wave.
const ROUTE_BATCH: usize = 64;

/// Best-so-far routing snapshot: usage grids, per-segment paths, and the
/// hybrid-bond cell (if any) each segment landed on.
type BestRouting = (RouteState, Vec<Vec<Step>>, Vec<Option<(u16, u16)>>);

/// Nets with more pins than this use star decomposition instead of MST.
pub(crate) const MAX_MST_PINS: usize = 32;

/// History cost added to each over-capacity GCell per RRR iteration.
const HISTORY_INCREMENT: f32 = 1.0;

/// Cost penalty per unit of overflow when a route would exceed capacity.
const OVERFLOW_PENALTY: f32 = 4.0;

/// Number of intermediate positions tried for Z-shaped detours.
const Z_CANDIDATES: u16 = 3;

/// Router tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Rip-up-and-reroute iterations (0 = initial pattern routing only).
    pub rrr_iterations: usize,
    /// Escalate still-overflowing segments to A* maze routing after the
    /// pattern-based RRR iterations (0 disables; the value is the window
    /// margin in GCells around each segment's bbox).
    pub maze_margin: usize,
    /// Fault hook: model a router that burns its whole RRR budget without
    /// improving anything — refinement and maze escalation are skipped, the
    /// initial pattern routing is returned as best-so-far, and the report
    /// carries `converged: false` with the full iteration count. Only used
    /// by the fault-injection harness; `false` in production.
    pub stall_rrr: bool,
    /// Cooperative cancellation, polled between pattern waves and at each
    /// RRR iteration boundary. The default token never fires; the serve
    /// layer arms it to enforce per-job deadlines. A cancelled route
    /// returns early with unrouted segments left empty (callers that care
    /// discard the partial result).
    pub cancel: dco_parallel::CancelToken,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            rrr_iterations: 6,
            maze_margin: 8,
            stall_rrr: false,
            cancel: dco_parallel::CancelToken::never(),
        }
    }
}

/// One unit of track usage: a GCell on a die, in one routing direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    die: u8,
    col: u16,
    row: u16,
    horiz: bool,
}

/// The outcome of routing a placement.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Horizontal track usage per die `[bottom, top]`.
    pub h_usage: [GridMap; 2],
    /// Vertical track usage per die `[bottom, top]`.
    pub v_usage: [GridMap; 2],
    /// Per-GCell overflow labels per die (demand above capacity).
    pub congestion: [GridMap; 2],
    /// Per-GCell routing utilization per die: `(h/h_cap + v/v_cap) / 2`.
    /// Dense (non-sparse) congestion signal used as UNet training labels;
    /// values above 1.0 indicate overflow.
    pub utilization: [GridMap; 2],
    /// Aggregated overflow metrics (Table III columns).
    pub report: OverflowReport,
    /// Total routed wirelength in microns.
    pub wirelength: f64,
    /// Number of hybrid-bond (inter-die) crossings used.
    pub bond_count: usize,
    /// Routed wirelength per net (indexed by `NetId`; clock nets are 0).
    pub net_lengths: Vec<f64>,
    /// Hybrid bonds per net (indexed by `NetId`).
    pub net_bonds: Vec<u32>,
    /// Hybrid-bond usage per GCell (bonds are a shared inter-die resource
    /// at the technology's bond pitch).
    pub bond_usage: GridMap,
    /// Total bond-capacity overflow (bonds demanded above the per-GCell
    /// bond-site count).
    pub bond_overflow: f64,
}

/// The global router.
#[derive(Debug)]
pub struct Router<'a> {
    design: &'a Design,
    cfg: RouterConfig,
    grid: GcellGrid,
    h_cap: f32,
    v_cap: f32,
    /// Hybrid-bond sites per GCell: `gcell_area / bond_pitch^2`.
    bond_cap: f32,
}

impl<'a> Router<'a> {
    /// A router for `design` with the given configuration.
    pub fn new(design: &'a Design, cfg: RouterConfig) -> Self {
        let grid = design.floorplan.grid;
        let tech = &design.technology;
        // Track counts are specified per nominal GCell; scale to the actual
        // grid so routing capacity per unit area is constant.
        let h_cap = (tech.h_tracks_per_gcell as f64 * grid.dy / tech.gcell_size).max(1.0) as f32;
        let v_cap = (tech.v_tracks_per_gcell as f64 * grid.dx / tech.gcell_size).max(1.0) as f32;
        let bond_cap = ((grid.dx * grid.dy) / (tech.bond_pitch * tech.bond_pitch)).max(1.0) as f32;
        Self {
            design,
            cfg,
            grid,
            h_cap,
            v_cap,
            bond_cap,
        }
    }

    /// Route all signal nets of `placement` and report congestion.
    ///
    /// The result is deterministic: segments are processed in a sorted
    /// order and parallel waves commit in segment order, so repeated calls
    /// (at any thread count) return identical reports.
    ///
    /// # Example
    ///
    /// ```
    /// use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    /// use dco_route::{Router, RouterConfig};
    ///
    /// # fn main() -> Result<(), dco_netlist::NetlistError> {
    /// let design = GeneratorConfig::for_profile(DesignProfile::Dma)
    ///     .with_scale(0.02)
    ///     .generate(7)?;
    /// let router = Router::new(&design, RouterConfig::default());
    /// let result = router.route(&design.placement);
    /// assert!(result.wirelength > 0.0);
    /// // Overflow decomposes exactly into its H and V components.
    /// assert_eq!(result.report.total, result.report.h_overflow + result.report.v_overflow);
    /// # Ok(())
    /// # }
    /// ```
    pub fn route(&self, placement: &Placement3) -> RouteResult {
        let netlist = &self.design.netlist;
        let g = self.grid;
        let mut state = RouteState::new(g);

        // Decompose and sort segments: short ones first claim direct paths.
        let mut segments: Vec<Segment3> = Vec::new();
        for net_id in netlist.net_ids() {
            if netlist.net(net_id).is_clock {
                continue;
            }
            segments.extend(decompose_net(netlist, placement, net_id, MAX_MST_PINS));
        }
        segments.sort_by(|a, b| a.manhattan_length().total_cmp(&b.manhattan_length()));

        dco_obs::counter_add("route.calls", 1);
        dco_obs::counter_add("route.segments", segments.len() as u64);

        // Initial pattern routing: waves of ROUTE_BATCH segments routed in
        // parallel against the grids as of the wave start, committed in
        // segment order.
        let mut paths: Vec<Vec<Step>> = Vec::with_capacity(segments.len());
        let mut bond_at: Vec<Option<(u16, u16)>> = Vec::with_capacity(segments.len());
        let mut bond_count = 0usize;
        {
            let _pattern_span = dco_obs::span!("route.pattern");
            for wave in segments.chunks(ROUTE_BATCH) {
                if self.cfg.cancel.is_cancelled() {
                    break;
                }
                let routed =
                    dco_parallel::par_map(wave, |_, seg| self.route_segment(seg, &state, false));
                for (path, bond) in routed {
                    state.commit(&path, 1.0);
                    if let Some((bc, br)) = bond {
                        state.bonds.add(bc as usize, br as usize, 1.0);
                        bond_count += 1;
                    }
                    paths.push(path);
                    bond_at.push(bond);
                }
            }
            // On cancellation, segments past the abandoned wave keep empty
            // paths so `paths`/`bond_at` stay index-aligned with `segments`
            // for the reporting pass below.
            while paths.len() < segments.len() {
                paths.push(Vec::new());
                bond_at.push(None);
            }
        }

        let initial_total =
            OverflowReport::from_usage(&state.h, &state.v, self.h_cap, self.v_cap).total;
        let mut rrr_iterations = 0usize;

        // Best routing seen so far (RRR on a saturated design can regress;
        // the final answer must never be worse than the initial routing).
        let mut best_total = initial_total;
        let mut best: Option<BestRouting> = None;

        // Negotiated-congestion refinement (skipped entirely when the
        // stall fault is armed: the initial routing is the best-so-far).
        for rrr_pass in 0..self.cfg.rrr_iterations {
            if self.cfg.cancel.is_cancelled() {
                break;
            }
            if self.cfg.stall_rrr {
                rrr_iterations = self.cfg.rrr_iterations;
                break;
            }
            let overfull = state.mark_overflow_history(self.h_cap, self.v_cap, HISTORY_INCREMENT);
            if !overfull {
                break;
            }
            rrr_iterations += 1;
            let _rrr_span = dco_obs::span!("route.rrr", iter = rrr_pass);
            // Snapshot semantics: the set of segments to reroute is decided
            // once, at the top of the iteration.
            let over: Vec<usize> = (0..segments.len())
                .filter(|&i| state.path_overflows(&paths[i], self.h_cap, self.v_cap))
                .collect();
            for wave in over.chunks(ROUTE_BATCH) {
                // Rip the whole wave out of the grids ...
                for &i in wave {
                    state.commit(&paths[i], -1.0);
                    if let Some((bc, br)) = bond_at[i] {
                        state.bonds.add(bc as usize, br as usize, -1.0);
                    }
                }
                // ... route every member in parallel against the snapshot ...
                let routed = dco_parallel::par_map(wave, |_, &i| {
                    self.route_segment(&segments[i], &state, true)
                });
                // ... and commit in segment order.
                for (&i, (path, bond)) in wave.iter().zip(routed) {
                    state.commit(&path, 1.0);
                    if let Some((bc, br)) = bond {
                        state.bonds.add(bc as usize, br as usize, 1.0);
                    }
                    paths[i] = path;
                    bond_at[i] = bond;
                }
            }
            let total =
                OverflowReport::from_usage(&state.h, &state.v, self.h_cap, self.v_cap).total;
            dco_obs::series_push("route.rrr.overflow", total);
            if total < best_total {
                best_total = total;
                best = Some((state.clone(), paths.clone(), bond_at.clone()));
            }
        }

        // Fall back to the best iteration if refinement ended worse.
        let final_total =
            OverflowReport::from_usage(&state.h, &state.v, self.h_cap, self.v_cap).total;
        if final_total > best_total {
            if let Some((s, p, b)) = best {
                state = s;
                paths = p;
                bond_at = b;
            }
        }

        // Maze escalation: segments the pattern router could not clear get
        // one A* detour attempt each. A detour is accepted only if it
        // strictly reduces the segment's overflow contribution — in
        // saturated regions detours add demand without relieving anything,
        // so a cost-only comparison would make things globally worse.
        if self.cfg.maze_margin > 0 && !self.cfg.stall_rrr && !self.cfg.cancel.is_cancelled() {
            let _maze_span = dco_obs::span!("route.maze");
            for (i, seg) in segments.iter().enumerate() {
                if !state.path_overflows(&paths[i], self.h_cap, self.v_cap) {
                    continue;
                }
                state.commit(&paths[i], -1.0);
                let (path, bond) = self.maze_segment(seg, &state);
                let new_ovf = state.path_overflow_amount(&path, self.h_cap, self.v_cap);
                let old_ovf = state.path_overflow_amount(&paths[i], self.h_cap, self.v_cap);
                let better = !path.is_empty()
                    && (new_ovf < old_ovf - 1e-6
                        || (new_ovf <= old_ovf && path.len() < paths[i].len()));
                if better {
                    if let Some((bc, br)) = bond_at[i] {
                        state.bonds.add(bc as usize, br as usize, -1.0);
                    }
                    if let Some((bc, br)) = bond {
                        state.bonds.add(bc as usize, br as usize, 1.0);
                    }
                    bond_at[i] = bond.or(bond_at[i]);
                    state.commit(&path, 1.0);
                    paths[i] = path;
                } else {
                    state.commit(&paths[i], 1.0);
                }
            }
        }

        // Reporting.
        let gsz = (g.dx + g.dy) / 2.0;
        let wirelength: f64 = paths.iter().map(|p| p.len() as f64 * gsz).sum();
        let mut net_lengths = vec![0.0f64; netlist.num_nets()];
        let mut net_bonds = vec![0u32; netlist.num_nets()];
        for (seg, path) in segments.iter().zip(&paths) {
            net_lengths[seg.net.index()] += path.len() as f64 * gsz;
            if seg.crosses_tiers() {
                net_bonds[seg.net.index()] += 1;
            }
        }
        let converged = !self.cfg.stall_rrr && !state.any_overflow(self.h_cap, self.v_cap);
        let mut result = self.result_from(state, wirelength, bond_count, net_lengths, net_bonds);
        result.report.rrr_iterations = rrr_iterations;
        result.report.converged = converged;
        result.report.initial_total = initial_total;
        dco_obs::gauge_set("route.overflow_total", result.report.total);
        result
    }

    /// Assemble a [`RouteResult`] from final usage grids and the caller's
    /// per-net totals: the congestion and utilization maps, the overflow
    /// report and the bond overflow all derive from `state`. The report
    /// keeps [`OverflowReport::from_usage`]'s run fields (0 iterations,
    /// converged, `initial_total == total`); callers overwrite what their
    /// run did differently.
    pub(crate) fn result_from(
        &self,
        state: RouteState,
        wirelength: f64,
        bond_count: usize,
        net_lengths: Vec<f64>,
        net_bonds: Vec<u32>,
    ) -> RouteResult {
        let g = self.grid;
        let mut congestion = [GridMap::zeros(g.nx, g.ny), GridMap::zeros(g.nx, g.ny)];
        let mut utilization = [GridMap::zeros(g.nx, g.ny), GridMap::zeros(g.nx, g.ny)];
        for die in 0..2 {
            for i in 0..g.len() {
                let hu = state.h[die].data()[i];
                let vu = state.v[die].data()[i];
                congestion[die].data_mut()[i] =
                    (hu - self.h_cap).max(0.0) + (vu - self.v_cap).max(0.0);
                utilization[die].data_mut()[i] = 0.5 * (hu / self.h_cap + vu / self.v_cap);
            }
        }
        let report = OverflowReport::from_usage(&state.h, &state.v, self.h_cap, self.v_cap);
        let bond_overflow: f64 = state
            .bonds
            .data()
            .iter()
            .map(|&u| f64::from((u - self.bond_cap).max(0.0)))
            .sum();
        RouteResult {
            h_usage: state.h,
            v_usage: state.v,
            congestion,
            utilization,
            report,
            wirelength,
            bond_count,
            net_lengths,
            net_bonds,
            bond_usage: state.bonds,
            bond_overflow,
        }
    }

    /// Route one segment; returns the path and the bond location (for
    /// cross-tier segments).
    pub(crate) fn route_segment(
        &self,
        seg: &Segment3,
        state: &RouteState,
        use_z: bool,
    ) -> (Vec<Step>, Option<(u16, u16)>) {
        let g = self.grid;
        let (c0, r0) = (g.col(seg.from.0) as u16, g.row(seg.from.1) as u16);
        let (c1, r1) = (g.col(seg.to.0) as u16, g.row(seg.to.1) as u16);
        let d0 = u8::from(seg.from_tier == Tier::Top);
        let d1 = u8::from(seg.to_tier == Tier::Top);
        if d0 == d1 {
            (self.best_planar(c0, r0, c1, r1, d0, state, use_z), None)
        } else {
            // Split at a bonding point: try both L corners plus the midpoint,
            // folding the bond-site congestion into the candidate cost.
            let candidates = [(c1, r0), (c0, r1), ((c0 + c1) / 2, (r0 + r1) / 2)];
            let mut best: (Vec<Step>, (u16, u16), f32) = (Vec::new(), candidates[0], f32::INFINITY);
            for &(bc, br) in &candidates {
                let mut path = self.best_planar(c0, r0, bc, br, d0, state, use_z);
                path.extend(self.best_planar(bc, br, c1, r1, d1, state, use_z));
                let bond_pressure = {
                    let u = state.bonds.get(bc as usize, br as usize);
                    debug_assert!(u.is_finite(), "bond usage at ({bc}, {br}) is non-finite");
                    (u + 1.0 - self.bond_cap).max(0.0) * OVERFLOW_PENALTY
                };
                let cost = self.path_cost(&path, state) + bond_pressure;
                if cost < best.2 {
                    best = (path, (bc, br), cost);
                }
            }
            debug_assert!(
                best.2.is_finite(),
                "every bond candidate had non-finite cost"
            );
            let (path, bond, _) = best;
            (path, Some(bond))
        }
    }

    /// Cheapest pattern route between two GCells on one die.
    #[allow(clippy::too_many_arguments)]
    fn best_planar(
        &self,
        c0: u16,
        r0: u16,
        c1: u16,
        r1: u16,
        die: u8,
        state: &RouteState,
        use_z: bool,
    ) -> Vec<Step> {
        // seed with the first L shape so `best` is never empty
        let seed = l_path(c0, r0, c1, r1, die, true);
        let seed_cost = self.path_cost(&seed, state);
        let mut best: (Vec<Step>, f32) = (seed, seed_cost);
        let mut consider = |path: Vec<Step>, this: &Self| {
            let cost = this.path_cost(&path, state);
            if cost < best.1 {
                best = (path, cost);
            }
        };
        consider(l_path(c0, r0, c1, r1, die, false), self);
        if use_z && c0 != c1 && r0 != r1 {
            let (clo, chi) = (c0.min(c1), c0.max(c1));
            let (rlo, rhi) = (r0.min(r1), r0.max(r1));
            for k in 1..=Z_CANDIDATES {
                let cm = clo + (chi - clo) * k / (Z_CANDIDATES + 1);
                let rm = rlo + (rhi - rlo) * k / (Z_CANDIDATES + 1);
                consider(z_path_hvh(c0, r0, c1, r1, cm, die), self);
                consider(z_path_vhv(c0, r0, c1, r1, rm, die), self);
            }
        }
        best.0
    }

    fn path_cost(&self, path: &[Step], state: &RouteState) -> f32 {
        path.iter()
            .map(|s| state.step_cost(s, self.h_cap, self.v_cap, OVERFLOW_PENALTY))
            .sum()
    }

    /// Maze-route one segment (both planar pieces for cross-tier segments).
    fn maze_segment(
        &self,
        seg: &crate::topology::Segment3,
        state: &RouteState,
    ) -> (Vec<Step>, Option<(u16, u16)>) {
        let g = self.grid;
        let (c0, r0) = (g.col(seg.from.0), g.row(seg.from.1));
        let (c1, r1) = (g.col(seg.to.0), g.row(seg.to.1));
        let d0 = u8::from(seg.from_tier == dco_netlist::Tier::Top);
        let d1 = u8::from(seg.to_tier == dco_netlist::Tier::Top);
        let run = |die: u8, from: (usize, usize), to: (usize, usize)| -> Vec<Step> {
            let oracle = DieCost {
                state,
                die: die as usize,
                h_cap: self.h_cap,
                v_cap: self.v_cap,
                penalty: OVERFLOW_PENALTY,
            };
            match crate::maze::maze_route(&oracle, g.nx, g.ny, from, to, self.cfg.maze_margin) {
                Some(steps) => steps
                    .into_iter()
                    .map(|(col, row, horiz)| Step {
                        die,
                        col: col as u16,
                        row: row as u16,
                        horiz,
                    })
                    .collect(),
                None => Vec::new(),
            }
        };
        if d0 == d1 {
            (run(d0, (c0, r0), (c1, r1)), None)
        } else {
            let mid = ((c0 + c1) / 2, (r0 + r1) / 2);
            let mut path = run(d0, (c0, r0), mid);
            path.extend(run(d1, mid, (c1, r1)));
            (path, Some((mid.0 as u16, mid.1 as u16)))
        }
    }
}

/// [`crate::maze::MazeCost`] view over one die of the routing state.
struct DieCost<'a> {
    state: &'a RouteState,
    die: usize,
    h_cap: f32,
    v_cap: f32,
    penalty: f32,
}

impl crate::maze::MazeCost for DieCost<'_> {
    fn step_cost(&self, col: usize, row: usize, horiz: bool) -> f32 {
        let s = Step {
            die: self.die as u8,
            col: col as u16,
            row: row as u16,
            horiz,
        };
        self.state
            .step_cost(&s, self.h_cap, self.v_cap, self.penalty)
    }
}

/// Usage + history grids for both dies.
#[derive(Debug, Clone)]
pub(crate) struct RouteState {
    pub(crate) h: [GridMap; 2],
    pub(crate) v: [GridMap; 2],
    h_hist: [GridMap; 2],
    v_hist: [GridMap; 2],
    /// Hybrid-bond demand per GCell (shared between dies).
    pub(crate) bonds: GridMap,
    nx: usize,
}

impl RouteState {
    pub(crate) fn new(g: GcellGrid) -> Self {
        let z = || GridMap::zeros(g.nx, g.ny);
        Self {
            h: [z(), z()],
            v: [z(), z()],
            h_hist: [z(), z()],
            v_hist: [z(), z()],
            bonds: z(),
            nx: g.nx,
        }
    }

    #[inline]
    fn idx(&self, s: &Step) -> usize {
        s.row as usize * self.nx + s.col as usize
    }

    fn step_cost(&self, s: &Step, h_cap: f32, v_cap: f32, penalty: f32) -> f32 {
        let i = self.idx(s);
        let die = s.die as usize;
        let (usage, cap, hist) = if s.horiz {
            (self.h[die].data()[i], h_cap, self.h_hist[die].data()[i])
        } else {
            (self.v[die].data()[i], v_cap, self.v_hist[die].data()[i])
        };
        let over = (usage + 1.0 - cap).max(0.0);
        1.0 + hist + penalty * over
    }

    pub(crate) fn commit(&mut self, path: &[Step], delta: f32) {
        for s in path {
            let i = s.row as usize * self.nx + s.col as usize;
            let die = s.die as usize;
            if s.horiz {
                self.h[die].data_mut()[i] += delta;
            } else {
                self.v[die].data_mut()[i] += delta;
            }
        }
    }

    /// Bump history on every over-capacity GCell; returns whether any exists.
    ///
    /// The usage/history grid pairs are resolved once per die and walked
    /// with zipped slice iterators — the per-element loop does no repeated
    /// field/index lookups, which matters because this runs over every
    /// GCell of both dies once per RRR iteration.
    fn mark_overflow_history(&mut self, h_cap: f32, v_cap: f32, inc: f32) -> bool {
        let mut any = false;
        let mut sweep = |usage: &GridMap, hist: &mut GridMap, cap: f32| {
            for (&u, h) in usage.data().iter().zip(hist.data_mut()) {
                if u > cap {
                    *h += inc;
                    any = true;
                }
            }
        };
        for die in 0..2 {
            sweep(&self.h[die], &mut self.h_hist[die], h_cap);
            sweep(&self.v[die], &mut self.v_hist[die], v_cap);
        }
        any
    }

    /// Marginal overflow this path would add on top of the current usage:
    /// per step, `max(0, usage+1-cap) - max(0, usage-cap)` — i.e. 1 when
    /// the cell is already at/over capacity, a fraction when the step tips
    /// it over, 0 when headroom remains.
    fn path_overflow_amount(&self, path: &[Step], h_cap: f32, v_cap: f32) -> f32 {
        path.iter()
            .map(|s| {
                let i = self.idx(s);
                let die = s.die as usize;
                let (usage, cap) = if s.horiz {
                    (self.h[die].data()[i], h_cap)
                } else {
                    (self.v[die].data()[i], v_cap)
                };
                (usage + 1.0 - cap).max(0.0) - (usage - cap).max(0.0)
            })
            .sum()
    }

    /// Whether any GCell on either die is over capacity (read-only, unlike
    /// [`RouteState::mark_overflow_history`]).
    fn any_overflow(&self, h_cap: f32, v_cap: f32) -> bool {
        (0..2).any(|die| {
            self.h[die].data().iter().any(|&u| u > h_cap)
                || self.v[die].data().iter().any(|&u| u > v_cap)
        })
    }

    fn path_overflows(&self, path: &[Step], h_cap: f32, v_cap: f32) -> bool {
        path.iter().any(|s| {
            let i = self.idx(s);
            let die = s.die as usize;
            if s.horiz {
                self.h[die].data()[i] > h_cap
            } else {
                self.v[die].data()[i] > v_cap
            }
        })
    }
}

/// L-shaped path: horizontal-first (`hv = true`) or vertical-first.
fn l_path(c0: u16, r0: u16, c1: u16, r1: u16, die: u8, hv: bool) -> Vec<Step> {
    let mut path = Vec::with_capacity((c0.abs_diff(c1) + r0.abs_diff(r1) + 1) as usize);
    if hv {
        push_h_run(&mut path, c0, c1, r0, die);
        push_v_run(&mut path, r0, r1, c1, die);
    } else {
        push_v_run(&mut path, r0, r1, c0, die);
        push_h_run(&mut path, c0, c1, r1, die);
    }
    path
}

/// Z path with two horizontal runs joined by a vertical run at column `cm`.
fn z_path_hvh(c0: u16, r0: u16, c1: u16, r1: u16, cm: u16, die: u8) -> Vec<Step> {
    let mut path = Vec::new();
    push_h_run(&mut path, c0, cm, r0, die);
    push_v_run(&mut path, r0, r1, cm, die);
    push_h_run(&mut path, cm, c1, r1, die);
    path
}

/// Z path with two vertical runs joined by a horizontal run at row `rm`.
fn z_path_vhv(c0: u16, r0: u16, c1: u16, r1: u16, rm: u16, die: u8) -> Vec<Step> {
    let mut path = Vec::new();
    push_v_run(&mut path, r0, rm, c0, die);
    push_h_run(&mut path, c0, c1, rm, die);
    push_v_run(&mut path, rm, r1, c1, die);
    path
}

fn push_h_run(path: &mut Vec<Step>, c0: u16, c1: u16, row: u16, die: u8) {
    let (lo, hi) = (c0.min(c1), c0.max(c1));
    for col in lo..hi {
        path.push(Step {
            die,
            col,
            row,
            horiz: true,
        });
    }
}

fn push_v_run(path: &mut Vec<Step>, r0: u16, r1: u16, col: u16, die: u8) {
    let (lo, hi) = (r0.min(r1), r0.max(r1));
    for row in lo..hi {
        path.push(Step {
            die,
            col,
            row,
            horiz: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(5)
            .expect("gen")
    }

    #[test]
    fn l_path_lengths_match_manhattan_distance() {
        let p = l_path(2, 3, 7, 9, 0, true);
        assert_eq!(p.len(), 5 + 6);
        let p2 = l_path(2, 3, 7, 9, 0, false);
        assert_eq!(p2.len(), 5 + 6);
        assert_ne!(p, p2);
    }

    #[test]
    fn z_paths_have_same_length_as_l() {
        let l = l_path(0, 0, 8, 4, 0, true);
        let z = z_path_hvh(0, 0, 8, 4, 4, 0);
        assert_eq!(l.len(), z.len());
        let z2 = z_path_vhv(0, 0, 8, 4, 2, 0);
        assert_eq!(l.len(), z2.len());
    }

    #[test]
    fn route_produces_consistent_report() {
        let d = design();
        let r = Router::new(&d, RouterConfig::default()).route(&d.placement);
        let rep = &r.report;
        assert_eq!(rep.total, rep.h_overflow + rep.v_overflow);
        assert!(rep.overflow_gcell_pct >= 0.0 && rep.overflow_gcell_pct <= 100.0);
        assert!(r.wirelength > 0.0);
        // congestion labels agree with the report
        let label_sum: f32 = r.congestion[0].sum() + r.congestion[1].sum();
        assert!(
            (label_sum as f64 - rep.total).abs() < 1.0,
            "{label_sum} vs {}",
            rep.total
        );
    }

    #[test]
    fn rrr_never_increases_overflow() {
        let d = design();
        let base = Router::new(
            &d,
            RouterConfig {
                rrr_iterations: 0,
                ..RouterConfig::default()
            },
        )
        .route(&d.placement);
        let refined = Router::new(&d, RouterConfig::default()).route(&d.placement);
        assert!(
            refined.report.total <= base.report.total,
            "RRR made it worse: {} -> {}",
            base.report.total,
            refined.report.total
        );
    }

    #[test]
    fn cross_tier_nets_use_bonds() {
        let d = design();
        let r = Router::new(&d, RouterConfig::default()).route(&d.placement);
        // Only signal nets are routed; the clock net is handled by CTS.
        let signal_cut = d
            .netlist
            .net_ids()
            .filter(|&n| !d.netlist.net(n).is_clock)
            .filter(|&n| {
                let mut top = false;
                let mut bot = false;
                for c in d.netlist.net_cells(n) {
                    match d.placement.tier(c) {
                        Tier::Top => top = true,
                        Tier::Bottom => bot = true,
                    }
                }
                top && bot
            })
            .count();
        assert!(
            signal_cut > 0,
            "test design should have cross-tier signal nets"
        );
        assert!(
            r.bond_count >= signal_cut,
            "bonds {} < cut {signal_cut}",
            r.bond_count
        );
    }

    #[test]
    fn bond_usage_accounts_for_every_crossing() {
        let d = design();
        let r = Router::new(&d, RouterConfig::default()).route(&d.placement);
        // every cross-tier segment placed exactly one bond
        assert!(
            (r.bond_usage.sum() as usize) == r.bond_count,
            "{} vs {}",
            r.bond_usage.sum(),
            r.bond_count
        );
        assert!(r.bond_usage.min() >= 0.0);
        assert!(r.bond_overflow >= 0.0);
    }

    #[test]
    fn bond_overflow_appears_when_pitch_is_coarse() {
        let mut d = design();
        // absurdly coarse bonding pitch -> very few bond sites per GCell
        d.technology.bond_pitch = d.floorplan.grid.dx * 4.0;
        let r = Router::new(&d, RouterConfig::default()).route(&d.placement);
        assert!(
            r.bond_overflow > 0.0,
            "coarse pitch should overflow bond sites (usage max {})",
            r.bond_usage.max()
        );
    }

    #[test]
    fn maze_escalation_does_not_hurt_overflow() {
        let d = design();
        let no_maze = Router::new(
            &d,
            RouterConfig {
                maze_margin: 0,
                ..RouterConfig::default()
            },
        )
        .route(&d.placement);
        let with_maze = Router::new(&d, RouterConfig::default()).route(&d.placement);
        assert!(
            with_maze.report.total <= no_maze.report.total,
            "maze made it worse: {} -> {}",
            no_maze.report.total,
            with_maze.report.total
        );
    }

    #[test]
    fn report_tracks_iterations_and_convergence() {
        let d = design();
        let cfg = RouterConfig::default();
        let r = Router::new(&d, cfg.clone()).route(&d.placement);
        assert!(r.report.rrr_iterations <= cfg.rrr_iterations);
        // RRR never makes things worse, so the delta is non-negative.
        assert!(
            r.report.initial_total >= r.report.total,
            "initial {} < final {}",
            r.report.initial_total,
            r.report.total
        );
        if r.report.converged {
            assert_eq!(r.report.total, 0.0);
        } else {
            assert!(r.report.total > 0.0);
        }
    }

    #[test]
    fn stall_fault_degrades_to_best_so_far() {
        let d = design();
        let cfg = RouterConfig {
            stall_rrr: true,
            ..RouterConfig::default()
        };
        let r = Router::new(&d, cfg.clone()).route(&d.placement);
        assert!(!r.report.converged);
        assert_eq!(r.report.rrr_iterations, cfg.rrr_iterations);
        // Best-so-far: the stalled run still returns a complete routing
        // identical to plain pattern routing.
        let base = Router::new(
            &d,
            RouterConfig {
                rrr_iterations: 0,
                maze_margin: 0,
                ..RouterConfig::default()
            },
        )
        .route(&d.placement);
        assert!(r.wirelength > 0.0);
        assert_eq!(r.report.total, base.report.total);
        assert_eq!(r.report.initial_total, r.report.total);
    }

    #[test]
    fn routing_is_deterministic() {
        let d = design();
        let a = Router::new(&d, RouterConfig::default()).route(&d.placement);
        let b = Router::new(&d, RouterConfig::default()).route(&d.placement);
        assert_eq!(a.report, b.report);
        assert_eq!(a.wirelength, b.wirelength);
    }

    #[test]
    fn mark_overflow_history_bumps_exactly_the_overfull_cells() {
        let g = GcellGrid {
            nx: 3,
            ny: 2,
            dx: 1.0,
            dy: 1.0,
        };
        let mut state = RouteState::new(g);
        // One overfull H cell on die 0, one overfull V cell on die 1, one
        // exactly-at-capacity cell that must NOT be bumped.
        state.h[0].data_mut()[1] = 5.0;
        state.h[0].data_mut()[2] = 4.0; // == cap, not over
        state.v[1].data_mut()[4] = 7.5;
        let any = state.mark_overflow_history(4.0, 6.0, 1.5);
        assert!(any);
        assert_eq!(state.h_hist[0].data()[1], 1.5);
        assert_eq!(state.h_hist[0].data()[2], 0.0);
        assert_eq!(state.v_hist[1].data()[4], 1.5);
        assert_eq!(state.h_hist[0].sum() + state.h_hist[1].sum(), 1.5);
        assert_eq!(state.v_hist[0].sum() + state.v_hist[1].sum(), 1.5);
        // A second sweep accumulates on the same cells.
        let any = state.mark_overflow_history(4.0, 6.0, 1.5);
        assert!(any);
        assert_eq!(state.h_hist[0].data()[1], 3.0);
        // Nothing over capacity -> no bumps, returns false.
        let mut clean = RouteState::new(g);
        assert!(!clean.mark_overflow_history(4.0, 6.0, 1.0));
        assert_eq!(clean.h_hist[0].sum(), 0.0);
    }

    #[test]
    fn overflow_report_is_stable_on_seeded_fixture() {
        // Regression pin: the full report on a fixed seed must not drift
        // when the routing internals are refactored. If an intentional
        // algorithm change moves these numbers, re-derive the pins by
        // printing the report — but any unplanned diff here is a bug.
        let d = design(); // seed 5, scale 0.03, Dma profile
        let r = Router::new(&d, RouterConfig::default()).route(&d.placement);
        let again = Router::new(&d, RouterConfig::default()).route(&d.placement);
        assert_eq!(r.report, again.report, "report must be run-to-run stable");
        assert_eq!(r.report.total, r.report.h_overflow + r.report.v_overflow);
        assert!(r.report.initial_total >= r.report.total);
        assert_eq!(
            r.bond_usage.sum() as usize,
            r.bond_count,
            "bond grid must account for every crossing"
        );
        // The wave-batched router must agree with itself across thread
        // counts; checksum the usage grids to catch any divergence.
        let cs = |r: &RouteResult| {
            let mut h = dco_parallel::checksum_f32(r.h_usage[0].data());
            h = dco_parallel::checksum_combine(h, dco_parallel::checksum_f32(r.h_usage[1].data()));
            h = dco_parallel::checksum_combine(h, dco_parallel::checksum_f32(r.v_usage[0].data()));
            h = dco_parallel::checksum_combine(h, dco_parallel::checksum_f32(r.v_usage[1].data()));
            h
        };
        assert_eq!(cs(&r), cs(&again));
    }
}
