//! Patch-based feature re-extraction: repaint only the dirty pixels of a
//! cached `[DieFeatures; 2]` after a placement delta.
//!
//! # Equivalence contract
//!
//! Every feature pixel is a sum of independent contributions (cells in id
//! order, then pins in pin order, then non-clock nets in id order, with a
//! fixed per-net inner order). The patch zeroes the dirty pixels and
//! replays exactly the contributors whose support can intersect the dirty
//! mask, adding *only* into dirty pixels with the same arithmetic in the
//! same global order as [`FeatureExtractor::extract_soft`]. A skipped
//! contributor adds nothing to any dirty pixel — its support is disjoint
//! from the mask — so each dirty pixel accumulates the identical f32
//! sequence as a from-scratch extraction, and the patched maps are bitwise
//! equal to it (the [`DeltaSet`] mask is a superset of every pixel whose
//! value can change, by construction).
//!
//! For the four RUDY and two PinRUDY channels this holds by sharing rather
//! than by mirroring: the patch runs the extraction's own net pass, one
//! [`RudyFootprint`](crate::rudy::RudyFootprint) walk per net, with the
//! dirty mask passed in. The net is skipped when its footprint's support
//! range misses the mask, and otherwise each tile value is computed as in
//! the unmasked pass and added only where the mask is set. The support
//! comes from the same degenerate-bbox expansion
//! ([`GcellGrid::rudy_support`](dco_netlist::GcellGrid::rudy_support)) that
//! [`DeltaSet::diff`] marks dirty.

use crate::maps::{rasterize_rect, DieFeatures, SoftAssignment};
use crate::FeatureExtractor;
use dco_incremental::DeltaSet;
use dco_netlist::{CellClass, Netlist};

/// Work done by one [`FeatureExtractor::patch_soft`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Dirty pixels repainted (per die; both dies share the mask).
    pub pixels: usize,
    /// Cells whose footprint was re-rasterized.
    pub cells: usize,
    /// Non-clock nets whose RUDY / PinRUDY was re-accumulated.
    pub nets: usize,
}

impl FeatureExtractor {
    /// Repaint the dirty pixels of `features` (as produced by
    /// [`FeatureExtractor::extract_soft`]) for the new assignment `soft`.
    ///
    /// `delta` must cover every cell whose `(x, y, z)` changed since the
    /// cached extraction — [`DeltaSet::diff`] of the two placements does —
    /// and the result is bitwise identical to a from-scratch
    /// `extract_soft(netlist, soft)`.
    pub fn patch_soft(
        &self,
        netlist: &Netlist,
        soft: &SoftAssignment,
        delta: &DeltaSet,
        features: &mut [DieFeatures; 2],
    ) -> PatchStats {
        if delta.is_empty() {
            return PatchStats::default();
        }
        let g = *self.grid();
        let inv_area = 1.0 / g.cell_area();
        let mut stats = PatchStats {
            pixels: delta.tiles_dirtied(),
            ..PatchStats::default()
        };

        // Zero every dirty pixel in all channels of both dies.
        for row in 0..g.ny {
            for col in 0..g.nx {
                if !delta.is_dirty(col, row) {
                    continue;
                }
                for die in features.iter_mut() {
                    die.cell_density.set(col, row, 0.0);
                    die.pin_density.set(col, row, 0.0);
                    die.rudy_2d.set(col, row, 0.0);
                    die.rudy_3d.set(col, row, 0.0);
                    die.pin_rudy_2d.set(col, row, 0.0);
                    die.pin_rudy_3d.set(col, row, 0.0);
                    die.macro_blockage.set(col, row, 0.0);
                }
            }
        }
        let [bottom, top] = features;

        // --- cell density, pin density, macro blockage ---------------------
        // Same cell-id order and pixel arithmetic as `extract_soft`, with
        // adds masked to dirty pixels.
        for id in netlist.cell_ids() {
            let cell = netlist.cell(id);
            let i = id.index();
            let (zx, zy) = (soft.x[i], soft.y[i]);
            let (xh, yh) = (zx + cell.width, zy + cell.height);
            if xh <= zx || yh <= zy {
                continue;
            }
            if !delta.intersects_range(g.col(zx), g.col(xh), g.row(zy), g.row(yh)) {
                continue;
            }
            stats.cells += 1;
            let zt = soft.z[i].clamp(0.0, 1.0);
            let is_macro = cell.class == CellClass::Macro;
            rasterize_rect(&g, (zx, zy, xh, yh), |col, row, area| {
                if !delta.is_dirty(col, row) {
                    return;
                }
                let frac = (area * inv_area) as f32;
                if is_macro {
                    if zt >= 0.5 {
                        top.macro_blockage.add(col, row, frac);
                    } else {
                        bottom.macro_blockage.add(col, row, frac);
                    }
                } else {
                    top.cell_density.add(col, row, frac * zt as f32);
                    bottom.cell_density.add(col, row, frac * (1.0 - zt) as f32);
                }
            });
        }
        for pin in netlist.pins() {
            let i = pin.cell.index();
            let (px, py) = (soft.x[i] + pin.offset.0, soft.y[i] + pin.offset.1);
            let col = g.col(px);
            let row = g.row(py);
            if !delta.is_dirty(col, row) {
                continue;
            }
            let zt = soft.z[i].clamp(0.0, 1.0) as f32;
            top.pin_density.add(col, row, zt * inv_area as f32);
            bottom
                .pin_density
                .add(col, row, (1.0 - zt) * inv_area as f32);
        }

        // --- RUDY / PinRUDY ------------------------------------------------
        // The extraction's own net pass, restricted to the dirty mask.
        stats.nets = self.accumulate_nets(netlist, soft, [bottom, top], Some(delta));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{CellId, Design, Tier};

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(17)
            .expect("gen")
    }

    fn die_bits_equal(a: &DieFeatures, b: &DieFeatures) -> bool {
        a.channels().iter().zip(b.channels().iter()).all(|(x, y)| {
            x.data()
                .iter()
                .zip(y.data())
                .all(|(u, v)| u.to_bits() == v.to_bits())
        })
    }

    #[test]
    fn empty_delta_patch_is_a_noop() {
        let d = design();
        let fx = FeatureExtractor::new(d.floorplan.grid);
        let soft = SoftAssignment::from_placement(&d.placement);
        let mut cached = fx.extract_soft(&d.netlist, &soft);
        let before = cached.clone();
        let delta = DeltaSet::empty(d.floorplan.grid);
        let stats = fx.patch_soft(&d.netlist, &soft, &delta, &mut cached);
        assert_eq!(stats, PatchStats::default());
        assert!(die_bits_equal(&cached[0], &before[0]));
        assert!(die_bits_equal(&cached[1], &before[1]));
    }

    #[test]
    fn single_move_patch_matches_fresh_extraction_bitwise() {
        let d = design();
        let g = d.floorplan.grid;
        let fx = FeatureExtractor::new(g);
        let mut cached = fx.extract(&d.netlist, &d.placement);

        let mut moved = d.placement.clone();
        let id = CellId(4);
        // Straddle a tile boundary and flip the tier.
        moved.set_xy(id, moved.x(id) + 2.5 * g.dx, moved.y(id) + 0.5 * g.dy);
        moved.set_tier(
            id,
            match moved.tier(id) {
                Tier::Top => Tier::Bottom,
                Tier::Bottom => Tier::Top,
            },
        );
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        let soft = SoftAssignment::from_placement(&moved);
        let stats = fx.patch_soft(&d.netlist, &soft, &delta, &mut cached);
        assert!(stats.pixels > 0 && stats.pixels < g.len(), "partial patch");
        assert!(stats.nets < d.netlist.num_nets(), "skipped far nets");

        let fresh = fx.extract(&d.netlist, &moved);
        assert!(die_bits_equal(&cached[0], &fresh[0]), "bottom die differs");
        assert!(die_bits_equal(&cached[1], &fresh[1]), "top die differs");
    }

    #[test]
    fn everything_delta_patch_matches_fresh_extraction() {
        let d = design();
        let fx = FeatureExtractor::new(d.floorplan.grid);
        let soft = SoftAssignment::from_placement(&d.placement);
        // Start from garbage: the all-dirty patch must fully rebuild.
        let mut cached = [
            DieFeatures::zeros(d.floorplan.grid.nx, d.floorplan.grid.ny),
            DieFeatures::zeros(d.floorplan.grid.nx, d.floorplan.grid.ny),
        ];
        cached[0].rudy_2d.add(0, 0, 123.0);
        let delta = DeltaSet::everything(&d.netlist, d.floorplan.grid);
        fx.patch_soft(&d.netlist, &soft, &delta, &mut cached);
        let fresh = fx.extract_soft(&d.netlist, &soft);
        assert!(die_bits_equal(&cached[0], &fresh[0]));
        assert!(die_bits_equal(&cached[1], &fresh[1]));
    }

    #[test]
    fn there_and_back_restores_original_features() {
        let d = design();
        let g = d.floorplan.grid;
        let fx = FeatureExtractor::new(g);
        let original = fx.extract(&d.netlist, &d.placement);
        let mut cached = original.clone();

        let mut moved = d.placement.clone();
        let id = CellId(0);
        let (ox, oy) = (moved.x(id), moved.y(id));
        moved.set_xy(id, ox + 4.0 * g.dx, oy);
        let fwd = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        fx.patch_soft(
            &d.netlist,
            &SoftAssignment::from_placement(&moved),
            &fwd,
            &mut cached,
        );
        let back = DeltaSet::diff(&d.netlist, g, &moved, &d.placement);
        fx.patch_soft(
            &d.netlist,
            &SoftAssignment::from_placement(&d.placement),
            &back,
            &mut cached,
        );
        assert!(die_bits_equal(&cached[0], &original[0]));
        assert!(die_bits_equal(&cached[1], &original[1]));
    }
}
