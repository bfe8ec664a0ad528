//! Incremental global routing: rip up and re-route only invalidated nets,
//! restoring the demand map by subtraction rather than rebuild.
//!
//! # Congestion-blind route semantics
//!
//! The full router negotiates congestion, which makes every net's route
//! depend on the order and history of every other net — a single moved
//! cell could legally perturb the entire solution, destroying any O(delta)
//! bound. The incremental engine therefore defines its own semantics:
//! every segment is routed by the same L-pattern candidate search
//! ([`Router::route_segment`]) but against a **frozen empty cost oracle**,
//! so each net's route is a pure function of its own pin locations. That
//! buys three exactness properties the differential harness leans on:
//!
//! - **per-net independence** — re-routing a net whose pins did not move
//!   is an exact no-op, so superset invalidation is always bitwise safe;
//! - **exact rip-out** — demand grids hold integer-valued f32 counts
//!   (sums of ±1.0, far below 2^24), so subtracting a cached path restores
//!   the grid bitwise;
//! - **thread independence** — routes are pure, so the parallel wave can
//!   be any size and results are committed in net-id order.
//!
//! The price is fidelity: demand is pattern-route demand without
//! negotiation (comparable to the full router's *initial* routing pass).
//! That is the right trade for the interactive ECO loop this engine
//! serves; the full [`Router`] remains the label generator.

use crate::router::{RouteResult, RouteState, Router, RouterConfig, Step, MAX_MST_PINS};
use crate::topology::decompose_net;
use dco_incremental::DeltaSet;
use dco_netlist::{Design, NetId, Placement3};

/// Per-apply statistics from the incremental router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrRouteStats {
    /// Nets ripped up and re-routed by this apply.
    pub nets_ripped: usize,
    /// Two-pin segments routed by this apply.
    pub segments_routed: usize,
}

/// One net's cached routing: per-segment paths and bond sites.
#[derive(Debug, Clone, Default)]
struct NetRoute {
    paths: Vec<Vec<Step>>,
    bonds: Vec<Option<(u16, u16)>>,
    length: f64,
    crossings: u32,
}

/// Incremental global router with a persistent demand map.
#[derive(Debug)]
pub struct IncrementalRouter<'a> {
    design: &'a Design,
    router: Router<'a>,
    /// Frozen all-zero cost oracle: keeps per-segment routing pure.
    oracle: RouteState,
    /// Accumulated demand (h/v per die + bonds), maintained by ±1 commits.
    state: RouteState,
    cached: Vec<NetRoute>,
    /// Statistics of the most recent `full` / `apply` call.
    last_stats: IncrRouteStats,
}

impl<'a> IncrementalRouter<'a> {
    /// An incremental router for `design`. It takes no [`RouterConfig`]:
    /// under the blind-cost semantics no negotiation knob shapes a route.
    pub fn new(design: &'a Design) -> Self {
        let grid = design.floorplan.grid;
        Self {
            design,
            router: Router::new(design, RouterConfig::default()),
            oracle: RouteState::new(grid),
            state: RouteState::new(grid),
            cached: vec![NetRoute::default(); design.netlist.num_nets()],
            last_stats: IncrRouteStats::default(),
        }
    }

    /// Route every signal net of `placement` from scratch, replacing any
    /// cached state.
    pub fn full(&mut self, placement: &Placement3) -> RouteResult {
        let all: Vec<NetId> = self
            .design
            .netlist
            .net_ids()
            .filter(|&n| !self.design.netlist.net(n).is_clock)
            .collect();
        self.state = RouteState::new(self.design.floorplan.grid);
        self.cached = vec![NetRoute::default(); self.design.netlist.num_nets()];
        self.reroute(&all, placement);
        self.result()
    }

    /// Rip up the nets invalidated by `delta`, re-route them under the new
    /// `placement`, and return the refreshed result. The demand grids are
    /// restored by subtracting the cached paths — never rebuilt.
    pub fn apply(&mut self, placement: &Placement3, delta: &DeltaSet) -> RouteResult {
        let _span = dco_obs::span!("route.incremental");
        for &net in delta.router_nets() {
            let cached = std::mem::take(&mut self.cached[net.index()]);
            for path in &cached.paths {
                self.state.commit(path, -1.0);
            }
            for bond in cached.bonds.iter().flatten() {
                self.state.bonds.add(bond.0 as usize, bond.1 as usize, -1.0);
            }
        }
        self.reroute(delta.router_nets(), placement);
        dco_obs::counter_add(
            "route.incremental.nets_ripped",
            self.last_stats.nets_ripped as u64,
        );
        dco_obs::counter_add(
            "route.incremental.segments",
            self.last_stats.segments_routed as u64,
        );
        self.result()
    }

    /// Statistics of the most recent `full` / `apply` call.
    pub fn stats(&self) -> IncrRouteStats {
        self.last_stats
    }

    /// Route `nets` (pure, parallel) and commit them in net-id order.
    fn reroute(&mut self, nets: &[NetId], placement: &Placement3) {
        let routed = dco_parallel::par_map(nets, |_, &net| self.route_net(net, placement));
        let mut segments = 0usize;
        for (&net, nr) in nets.iter().zip(routed) {
            segments += nr.paths.len();
            for path in &nr.paths {
                self.state.commit(path, 1.0);
            }
            for bond in nr.bonds.iter().flatten() {
                self.state.bonds.add(bond.0 as usize, bond.1 as usize, 1.0);
            }
            self.cached[net.index()] = nr;
        }
        self.last_stats = IncrRouteStats {
            nets_ripped: nets.len(),
            segments_routed: segments,
        };
    }

    /// Route one net against the frozen empty oracle — a pure function of
    /// the net's own pin locations.
    fn route_net(&self, net: NetId, placement: &Placement3) -> NetRoute {
        let g = self.design.floorplan.grid;
        let gsz = (g.dx + g.dy) / 2.0;
        let segments = decompose_net(&self.design.netlist, placement, net, MAX_MST_PINS);
        let mut nr = NetRoute {
            paths: Vec::with_capacity(segments.len()),
            bonds: Vec::with_capacity(segments.len()),
            length: 0.0,
            crossings: 0,
        };
        for seg in &segments {
            let (path, bond) = self.router.route_segment(seg, &self.oracle, false);
            nr.length += path.len() as f64 * gsz;
            if seg.crosses_tiers() {
                nr.crossings += 1;
            }
            nr.paths.push(path);
            nr.bonds.push(bond);
        }
        nr
    }

    /// Snapshot the demand state into a [`RouteResult`]. Aggregates are
    /// recomputed by full deterministic folds (net-id order for the f64
    /// wirelength sum), never carried incrementally, so a result after N
    /// applies is bitwise the result after one fresh `full`.
    fn result(&self) -> RouteResult {
        let netlist = &self.design.netlist;
        let mut net_lengths = vec![0.0f64; netlist.num_nets()];
        let mut net_bonds = vec![0u32; netlist.num_nets()];
        let mut wirelength = 0.0f64;
        let mut bond_count = 0usize;
        for (i, nr) in self.cached.iter().enumerate() {
            net_lengths[i] = nr.length;
            net_bonds[i] = nr.crossings;
            wirelength += nr.length;
            bond_count += nr.crossings as usize;
        }
        let mut result = self.router.result_from(
            self.state.clone(),
            wirelength,
            bond_count,
            net_lengths,
            net_bonds,
        );
        // A pattern-only route has converged iff nothing overflows.
        result.report.converged = result.report.total == 0.0;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::CellId;

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(5)
            .expect("gen")
    }

    fn checksum(r: &RouteResult) -> u64 {
        let mut c = dco_parallel::checksum_f32(r.h_usage[0].data());
        for m in [&r.h_usage[1], &r.v_usage[0], &r.v_usage[1], &r.bond_usage] {
            c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(m.data()));
        }
        c = dco_parallel::checksum_combine(c, r.wirelength.to_bits());
        c
    }

    #[test]
    fn empty_delta_is_a_bitwise_noop() {
        let d = design();
        let mut eng = IncrementalRouter::new(&d);
        let a = eng.full(&d.placement);
        let delta = DeltaSet::diff(&d.netlist, d.floorplan.grid, &d.placement, &d.placement);
        let b = eng.apply(&d.placement, &delta);
        assert_eq!(checksum(&a), checksum(&b));
        assert_eq!(eng.stats().nets_ripped, 0);
    }

    #[test]
    fn single_move_matches_from_scratch_bitwise() {
        let d = design();
        let g = d.floorplan.grid;
        let mut moved = d.placement.clone();
        let id = CellId(2);
        moved.set_xy(id, moved.x(id) + 2.5 * g.dx, moved.y(id) + 1.5 * g.dy);

        let mut eng = IncrementalRouter::new(&d);
        eng.full(&d.placement);
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        assert!(!delta.is_empty());
        let incr = eng.apply(&moved, &delta);
        assert!(eng.stats().nets_ripped < d.netlist.num_nets());

        let mut fresh = IncrementalRouter::new(&d);
        let scratch = fresh.full(&moved);
        assert_eq!(checksum(&incr), checksum(&scratch));
        assert_eq!(incr.net_lengths, scratch.net_lengths);
        assert_eq!(incr.report, scratch.report);
    }

    #[test]
    fn everything_delta_matches_full() {
        let d = design();
        let mut eng = IncrementalRouter::new(&d);
        eng.full(&d.placement);
        let delta = DeltaSet::everything(&d.netlist, d.floorplan.grid);
        let a = eng.apply(&d.placement, &delta);
        let mut fresh = IncrementalRouter::new(&d);
        let b = fresh.full(&d.placement);
        assert_eq!(checksum(&a), checksum(&b));
    }

    #[test]
    fn demand_subtraction_leaves_no_residue() {
        // Moving a cell there and back must restore the original grids
        // bitwise: rip-out is exact subtraction of integer-valued floats.
        let d = design();
        let g = d.floorplan.grid;
        let mut eng = IncrementalRouter::new(&d);
        let before = eng.full(&d.placement);
        let mut moved = d.placement.clone();
        let id = CellId(4);
        let (ox, oy) = (moved.x(id), moved.y(id));
        moved.set_xy(id, ox + 4.0 * g.dx, oy);
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        eng.apply(&moved, &delta);
        let back = DeltaSet::diff(&d.netlist, g, &moved, &d.placement);
        let after = eng.apply(&d.placement, &back);
        assert_eq!(checksum(&before), checksum(&after));
    }
}
