//! Shared delta abstraction for the incremental re-evaluation engines.
//!
//! A [`DeltaSet`] is the contract between a placement edit and the three
//! O(delta) engines (incremental routing in `dco-route`, event-driven STA
//! in `dco-timing`, patch-based UNet re-inference in `dco-unet`): it maps
//! **moved cells** to
//!
//! - **dirtied GCell tiles** — every tile whose feature-map pixels can
//!   change (old + new cell footprints, old + new bounding boxes of every
//!   incident signal net, including the degenerate-bbox expansion the RUDY
//!   estimator applies),
//! - **invalidated nets** for the router — every non-clock net whose pin
//!   bounding box intersects a dirtied tile (a superset of the nets whose
//!   routes actually change; re-routing an untouched net is an exact
//!   no-op under the congestion-blind incremental route semantics),
//! - **touched nets** for STA — every net incident to a moved cell
//!   (including clock nets, whose HPWL feeds the ideal-clock electricals).
//!
//! The contract is *conservative and exact*: an engine may re-evaluate
//! anything in the delta (superset re-evaluation is always bitwise safe),
//! but nothing outside it is allowed to change. The differential harness
//! in `tests/incremental.rs` enforces the bitwise half of that contract.

use dco_netlist::{CellId, GcellGrid, NetId, Netlist, Placement3};

/// Per-apply delta statistics, surfaced through `dco-obs` counters and the
/// serve `delta` job reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Cells whose position (x, y, or tier) changed bitwise.
    pub moved_cells: usize,
    /// GCell tiles marked dirty (shared across both dies).
    pub tiles_dirtied: usize,
    /// Non-clock nets the router must rip up and re-route.
    pub router_nets: usize,
    /// Nets whose electrical parasitics STA must refresh.
    pub sta_nets: usize,
}

/// The set of tiles, nets, and cells invalidated by a placement edit.
#[derive(Debug, Clone)]
pub struct DeltaSet {
    nx: usize,
    ny: usize,
    /// Row-major dirty-tile mask (`row * nx + col`), shared by both dies.
    dirty: Vec<bool>,
    /// Per-row `(min, max)` dirty column, for fast bbox-intersection tests.
    row_span: Vec<Option<(u32, u32)>>,
    n_dirty: usize,
    moved: Vec<CellId>,
    router_nets: Vec<NetId>,
    sta_nets: Vec<NetId>,
}

impl DeltaSet {
    /// The empty delta: nothing moved, nothing dirty.
    pub fn empty(grid: GcellGrid) -> Self {
        Self {
            nx: grid.nx,
            ny: grid.ny,
            dirty: vec![false; grid.len()],
            row_span: vec![None; grid.ny],
            n_dirty: 0,
            moved: Vec::new(),
            router_nets: Vec::new(),
            sta_nets: Vec::new(),
        }
    }

    /// The everything-dirty delta: all tiles dirty, every net invalidated,
    /// every cell considered moved. Used by the differential harness and
    /// as the safe fallback when no cached state exists.
    pub fn everything(netlist: &Netlist, grid: GcellGrid) -> Self {
        let mut d = Self::empty(grid);
        d.dirty.iter_mut().for_each(|t| *t = true);
        d.n_dirty = d.dirty.len();
        d.row_span = vec![Some((0, grid.nx.saturating_sub(1) as u32)); grid.ny];
        d.moved = netlist.cell_ids().collect();
        d.router_nets = netlist
            .net_ids()
            .filter(|&n| !netlist.net(n).is_clock)
            .collect();
        d.sta_nets = netlist.net_ids().collect();
        d
    }

    /// Diff two placements over `grid` and derive the invalidation sets.
    ///
    /// Cells are compared bitwise (`f64::to_bits` on x/y plus the tier), so
    /// a cell written back with an identical position is *not* moved and
    /// incremental re-evaluation of an unchanged placement is a no-op.
    pub fn diff(netlist: &Netlist, grid: GcellGrid, old: &Placement3, new: &Placement3) -> Self {
        let mut d = Self::empty(grid);
        for id in netlist.cell_ids() {
            let i = id.index();
            let same = old.xs()[i].to_bits() == new.xs()[i].to_bits()
                && old.ys()[i].to_bits() == new.ys()[i].to_bits()
                && old.tiers()[i] == new.tiers()[i];
            if !same {
                d.moved.push(id);
            }
        }
        if d.moved.is_empty() {
            return d;
        }

        // Dirty tiles: old + new footprint of each moved cell, plus the
        // exact old + new tile of each of its pins (pin density counts all
        // pins — clock pins included — and offsets may poke outside the
        // footprint rect).
        let moved = std::mem::take(&mut d.moved);
        for &id in &moved {
            let cell = netlist.cell(id);
            let i = id.index();
            for p in [old, new] {
                let (x, y) = (p.xs()[i], p.ys()[i]);
                d.mark_rect(&grid, x, y, x + cell.width, y + cell.height);
                for &pid in netlist.cell_pins(id) {
                    let pin = netlist.pin(pid);
                    let (px, py) = (x + pin.offset.0, y + pin.offset.1);
                    d.mark_rect(&grid, px, py, px, py);
                }
            }
        }

        // Nets incident to moved cells; their old + new RUDY supports (the
        // pin bbox with the degenerate expansion) dirty every pixel their
        // RUDY / PinRUDY contribution can touch.
        let mut incident = vec![false; netlist.num_nets()];
        for &id in &moved {
            for &p in netlist.cell_pins(id) {
                incident[netlist.pin(p).net.index()] = true;
            }
        }
        d.moved = moved;
        for net_id in netlist.net_ids() {
            if !incident[net_id.index()] {
                continue;
            }
            d.sta_nets.push(net_id);
            if netlist.net(net_id).is_clock {
                continue; // clocks carry no feature / routing demand
            }
            for p in [old, new] {
                if let Some((xl, yl, xh, yh)) = net_pin_bbox(netlist, p, net_id) {
                    let (xl, yl, xh, yh) = grid.rudy_support(xl, yl, xh, yh);
                    d.mark_rect(&grid, xl, yl, xh, yh);
                }
            }
        }
        d.rebuild_row_span();

        // Router invalidation rule (the ISSUE contract): every non-clock
        // net whose bbox intersects a dirtied tile. Incident nets' bboxes
        // are dirty by construction, so this is a superset of them.
        for net_id in netlist.net_ids() {
            if netlist.net(net_id).is_clock {
                continue;
            }
            let Some((xl, yl, xh, yh)) = net_pin_bbox(netlist, new, net_id) else {
                continue;
            };
            let (xl, yl, xh, yh) = grid.rudy_support(xl, yl, xh, yh);
            let (c0, c1) = (grid.col(xl), grid.col(xh));
            let (r0, r1) = (grid.row(yl), grid.row(yh));
            if d.intersects_range(c0, c1, r0, r1) {
                d.router_nets.push(net_id);
            }
        }
        d
    }

    fn mark_rect(&mut self, grid: &GcellGrid, xl: f64, yl: f64, xh: f64, yh: f64) {
        let (c0, c1) = (grid.col(xl), grid.col(xh));
        let (r0, r1) = (grid.row(yl), grid.row(yh));
        for row in r0..=r1 {
            for col in c0..=c1 {
                let i = row * self.nx + col;
                if !self.dirty[i] {
                    self.dirty[i] = true;
                    self.n_dirty += 1;
                }
            }
        }
    }

    fn rebuild_row_span(&mut self) {
        for row in 0..self.ny {
            let base = row * self.nx;
            let mut span = None;
            for col in 0..self.nx {
                if self.dirty[base + col] {
                    span = Some(match span {
                        None => (col as u32, col as u32),
                        Some((lo, _)) => (lo, col as u32),
                    });
                }
            }
            self.row_span[row] = span;
        }
    }

    /// Whether nothing moved (every engine treats this as an exact no-op).
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty()
    }

    /// Number of dirty tiles.
    pub fn tiles_dirtied(&self) -> usize {
        self.n_dirty
    }

    /// Whether tile `(col, row)` is dirty.
    #[inline]
    pub fn is_dirty(&self, col: usize, row: usize) -> bool {
        self.dirty[row * self.nx + col]
    }

    /// The row-major dirty mask (`row * nx + col`).
    pub fn mask(&self) -> &[bool] {
        &self.dirty
    }

    /// Whether the inclusive tile range `[c0..=c1] x [r0..=r1]` contains a
    /// dirty tile.
    pub fn intersects_range(&self, c0: usize, c1: usize, r0: usize, r1: usize) -> bool {
        for row in r0..=r1.min(self.ny.saturating_sub(1)) {
            if let Some((lo, hi)) = self.row_span[row] {
                if lo as usize <= c1 && c0 <= hi as usize {
                    return true;
                }
            }
        }
        false
    }

    /// Tight bounding box of the dirty tiles, `(c0, r0, c1, r1)` inclusive.
    pub fn dirty_bbox(&self) -> Option<(usize, usize, usize, usize)> {
        let mut out: Option<(usize, usize, usize, usize)> = None;
        for (row, span) in self.row_span.iter().enumerate() {
            if let Some((lo, hi)) = *span {
                out = Some(match out {
                    None => (lo as usize, row, hi as usize, row),
                    Some((c0, r0, c1, _)) => (c0.min(lo as usize), r0, c1.max(hi as usize), row),
                });
            }
        }
        out
    }

    /// Cells that moved, in id order.
    pub fn moved_cells(&self) -> &[CellId] {
        &self.moved
    }

    /// Non-clock nets the router must rip up, in id order.
    pub fn router_nets(&self) -> &[NetId] {
        &self.router_nets
    }

    /// Nets whose electricals STA must refresh (incident to moved cells,
    /// clock nets included), in id order.
    pub fn sta_nets(&self) -> &[NetId] {
        &self.sta_nets
    }

    /// Summary statistics for observability.
    pub fn stats(&self) -> DeltaStats {
        DeltaStats {
            moved_cells: self.moved.len(),
            tiles_dirtied: self.n_dirty,
            router_nets: self.router_nets.len(),
            sta_nets: self.sta_nets.len(),
        }
    }
}

/// Pin bounding box of a net under `placement` (offsets included), matching
/// the point set `dco-features` builds its RUDY bbox from.
fn net_pin_bbox(
    netlist: &Netlist,
    placement: &Placement3,
    net: NetId,
) -> Option<(f64, f64, f64, f64)> {
    let pins = &netlist.net(net).pins;
    let mut it = pins.iter().map(|&p| {
        let pin = netlist.pin(p);
        let i = pin.cell.index();
        (
            placement.xs()[i] + pin.offset.0,
            placement.ys()[i] + pin.offset.1,
        )
    });
    let (x0, y0) = it.next()?;
    let (mut xl, mut yl, mut xh, mut yh) = (x0, y0, x0, y0);
    for (x, y) in it {
        xl = xl.min(x);
        xh = xh.max(x);
        yl = yl.min(y);
        yh = yh.max(y);
    }
    Some((xl, yl, xh, yh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::Tier;

    fn design() -> dco_netlist::Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(11)
            .expect("gen")
    }

    #[test]
    fn identical_placements_yield_empty_delta() {
        let d = design();
        let delta = DeltaSet::diff(&d.netlist, d.floorplan.grid, &d.placement, &d.placement);
        assert!(delta.is_empty());
        assert_eq!(delta.stats(), DeltaStats::default());
        assert!(delta.dirty_bbox().is_none());
    }

    #[test]
    fn single_move_dirties_both_footprints_and_incident_nets() {
        let d = design();
        let g = d.floorplan.grid;
        let mut moved = d.placement.clone();
        let id = dco_netlist::CellId(0);
        let (ox, oy) = (moved.x(id), moved.y(id));
        moved.set_xy(id, ox + 3.0 * g.dx, oy + 2.0 * g.dy);
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        assert_eq!(delta.moved_cells(), &[id]);
        assert!(delta.is_dirty(g.col(ox), g.row(oy)), "old footprint dirty");
        assert!(
            delta.is_dirty(g.col(ox + 3.0 * g.dx), g.row(oy + 2.0 * g.dy)),
            "new footprint dirty"
        );
        // every net incident to the cell is in both invalidation sets
        for &p in d.netlist.cell_pins(id) {
            let n = d.netlist.pin(p).net;
            assert!(delta.sta_nets().contains(&n));
            if !d.netlist.net(n).is_clock {
                assert!(delta.router_nets().contains(&n));
            }
        }
        assert!(delta.tiles_dirtied() > 0);
        assert!(delta.dirty_bbox().is_some());
    }

    #[test]
    fn tier_flip_is_a_move() {
        let d = design();
        let mut moved = d.placement.clone();
        let id = dco_netlist::CellId(1);
        let flipped = match moved.tier(id) {
            Tier::Top => Tier::Bottom,
            Tier::Bottom => Tier::Top,
        };
        moved.set_tier(id, flipped);
        let delta = DeltaSet::diff(&d.netlist, d.floorplan.grid, &d.placement, &moved);
        assert_eq!(delta.moved_cells(), &[id]);
    }

    #[test]
    fn everything_delta_covers_the_whole_design() {
        let d = design();
        let g = d.floorplan.grid;
        let delta = DeltaSet::everything(&d.netlist, g);
        assert_eq!(delta.tiles_dirtied(), g.len());
        assert_eq!(delta.moved_cells().len(), d.netlist.num_cells());
        assert_eq!(delta.sta_nets().len(), d.netlist.num_nets());
        assert!(delta.intersects_range(0, 0, 0, 0));
    }

    #[test]
    fn row_span_intersection_agrees_with_mask() {
        let d = design();
        let g = d.floorplan.grid;
        let mut moved = d.placement.clone();
        let id = dco_netlist::CellId(3);
        moved.set_xy(id, moved.x(id) + g.dx, moved.y(id));
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        for row in 0..g.ny {
            for col in 0..g.nx {
                assert_eq!(
                    delta.intersects_range(col, col, row, row),
                    delta.is_dirty(col, row),
                    "mismatch at ({col}, {row})"
                );
            }
        }
    }
}
