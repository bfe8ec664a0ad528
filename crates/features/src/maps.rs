//! Extraction of the seven per-die input feature maps (paper Sec. III-B1)
//! from a hard or soft (probabilistic-z) 3D placement.

use crate::rudy::{Bbox, RudyFootprint};
use crate::GridMap;
use dco_incremental::DeltaSet;
use dco_netlist::{CellClass, GcellGrid, Netlist, Placement3};

/// Number of feature channels per die.
pub const NUM_CHANNELS: usize = 7;

/// Canonical channel names, in the order of [`DieFeatures::channels`].
pub const CHANNEL_NAMES: [&str; NUM_CHANNELS] = [
    "cell_density",
    "pin_density",
    "rudy_2d",
    "rudy_3d",
    "pin_rudy_2d",
    "pin_rudy_3d",
    "macro_blockage",
];

/// Scale applied to 3D-net RUDY, accounting for the extra routing resources
/// available to inter-die nets (paper Sec. III-B1).
pub const RUDY_3D_SCALE: f32 = 0.5;

/// The seven input feature maps of one die.
#[derive(Debug, Clone, PartialEq)]
pub struct DieFeatures {
    /// Ratio of cell area within a bin to the bin's area.
    pub cell_density: GridMap,
    /// Pins per unit area.
    pub pin_density: GridMap,
    /// RUDY of 2D nets (all pins on this die).
    pub rudy_2d: GridMap,
    /// RUDY of 3D nets (pins on both dies), scaled by [`RUDY_3D_SCALE`].
    pub rudy_3d: GridMap,
    /// PinRUDY of 2D nets.
    pub pin_rudy_2d: GridMap,
    /// PinRUDY of 3D nets.
    pub pin_rudy_3d: GridMap,
    /// Fraction of the bin covered by macros.
    pub macro_blockage: GridMap,
}

impl DieFeatures {
    /// All-zero features over an `nx` × `ny` grid.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Self {
            cell_density: GridMap::zeros(nx, ny),
            pin_density: GridMap::zeros(nx, ny),
            rudy_2d: GridMap::zeros(nx, ny),
            rudy_3d: GridMap::zeros(nx, ny),
            pin_rudy_2d: GridMap::zeros(nx, ny),
            pin_rudy_3d: GridMap::zeros(nx, ny),
            macro_blockage: GridMap::zeros(nx, ny),
        }
    }

    /// The channels in canonical order (see [`CHANNEL_NAMES`]).
    pub fn channels(&self) -> [&GridMap; NUM_CHANNELS] {
        [
            &self.cell_density,
            &self.pin_density,
            &self.rudy_2d,
            &self.rudy_3d,
            &self.pin_rudy_2d,
            &self.pin_rudy_3d,
            &self.macro_blockage,
        ]
    }

    /// Flatten to `[NUM_CHANNELS * ny * nx]` row-major (channel outermost),
    /// ready to feed a `[C, H, W]` tensor.
    pub fn stacked(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(NUM_CHANNELS * self.cell_density.len());
        for ch in self.channels() {
            out.extend_from_slice(ch.data());
        }
        out
    }
}

/// Per-cell soft tier assignment: probability of sitting on the top die.
///
/// A hard placement is the special case of z ∈ {0, 1}.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftAssignment {
    /// `z[i]` = probability cell `i` is on the top die.
    pub z: Vec<f64>,
    /// Cell x coordinates (origin), microns.
    pub x: Vec<f64>,
    /// Cell y coordinates (origin), microns.
    pub y: Vec<f64>,
}

impl SoftAssignment {
    /// Lift a hard placement into the soft representation.
    pub fn from_placement(p: &Placement3) -> Self {
        Self {
            z: p.tiers().iter().map(|t| t.as_z()).collect(),
            x: p.xs().to_vec(),
            y: p.ys().to_vec(),
        }
    }
}

/// Extracts feature (and soft feature) maps over a fixed GCell grid.
///
/// # Example
///
/// ```
/// use dco_features::FeatureExtractor;
/// use dco_netlist::generate::{DesignProfile, GeneratorConfig};
///
/// # fn main() -> Result<(), dco_netlist::NetlistError> {
/// let d = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.02).generate(1)?;
/// let fx = FeatureExtractor::new(d.floorplan.grid);
/// let [bottom, top] = fx.extract(&d.netlist, &d.placement);
/// assert!(bottom.cell_density.sum() + top.cell_density.sum() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FeatureExtractor {
    grid: GcellGrid,
}

impl FeatureExtractor {
    /// Extractor over the given grid.
    pub fn new(grid: GcellGrid) -> Self {
        Self { grid }
    }

    /// The grid used for extraction.
    pub fn grid(&self) -> &GcellGrid {
        &self.grid
    }

    /// Extract hard-placement features for `[bottom, top]` dies.
    pub fn extract(&self, netlist: &Netlist, placement: &Placement3) -> [DieFeatures; 2] {
        self.extract_soft(netlist, &SoftAssignment::from_placement(placement))
    }

    /// Extract features from a soft (probabilistic-z) assignment.
    ///
    /// 2D-net contributions are weighted `Π z_p` (top) / `Π (1 − z_p)`
    /// (bottom) and the 3D contribution by the remainder, exactly as in the
    /// paper's Sec. IV-A. With a hard placement the weights collapse to
    /// 0/1 and this reduces to classic per-die extraction.
    pub fn extract_soft(&self, netlist: &Netlist, soft: &SoftAssignment) -> [DieFeatures; 2] {
        let g = self.grid;
        let mut bottom = DieFeatures::zeros(g.nx, g.ny);
        let mut top = DieFeatures::zeros(g.nx, g.ny);
        let inv_area = 1.0 / g.cell_area();

        // --- cell density, pin density, macro blockage ---------------------
        for id in netlist.cell_ids() {
            let cell = netlist.cell(id);
            let i = id.index();
            let (zx, zy) = (soft.x[i], soft.y[i]);
            let zt = soft.z[i].clamp(0.0, 1.0);
            let is_macro = cell.class == CellClass::Macro;
            rasterize_rect(
                &g,
                (zx, zy, zx + cell.width, zy + cell.height),
                |col, row, area| {
                    let frac = (area * inv_area) as f32;
                    if is_macro {
                        // Macros sit hard on a tier; z is 0 or 1 for them.
                        if zt >= 0.5 {
                            top.macro_blockage.add(col, row, frac);
                        } else {
                            bottom.macro_blockage.add(col, row, frac);
                        }
                    } else {
                        top.cell_density.add(col, row, frac * zt as f32);
                        bottom.cell_density.add(col, row, frac * (1.0 - zt) as f32);
                    }
                },
            );
        }
        for pin in netlist.pins() {
            let i = pin.cell.index();
            let (px, py) = (soft.x[i] + pin.offset.0, soft.y[i] + pin.offset.1);
            let zt = soft.z[i].clamp(0.0, 1.0) as f32;
            let col = g.col(px);
            let row = g.row(py);
            top.pin_density.add(col, row, zt * inv_area as f32);
            bottom
                .pin_density
                .add(col, row, (1.0 - zt) * inv_area as f32);
        }

        self.accumulate_nets(netlist, soft, [&mut bottom, &mut top], None);
        [bottom, top]
    }

    /// Accumulate every non-clock net's RUDY and PinRUDY into both dies,
    /// in net-id order, with one [`RudyFootprint`] walk per net for all
    /// four RUDY channels. With `delta`, nets whose support misses the
    /// dirty mask are skipped and only dirty pixels are written (see the
    /// patch module's equivalence contract). Returns the nets accumulated.
    pub(crate) fn accumulate_nets(
        &self,
        netlist: &Netlist,
        soft: &SoftAssignment,
        [bottom, top]: [&mut DieFeatures; 2],
        delta: Option<&DeltaSet>,
    ) -> usize {
        let g = self.grid;
        let mask = delta.map(DeltaSet::mask);
        let mut fp = RudyFootprint::new(g);
        let mut pts = Vec::new();
        let mut nets = 0;
        for net_id in netlist.net_ids() {
            let net = netlist.net(net_id);
            if net.is_clock {
                continue;
            }
            pts.clear();
            let mut p_top = 1.0f64;
            let mut p_bot = 1.0f64;
            for &pid in &net.pins {
                let pin = netlist.pin(pid);
                let i = pin.cell.index();
                pts.push((soft.x[i] + pin.offset.0, soft.y[i] + pin.offset.1));
                let z = soft.z[i].clamp(0.0, 1.0);
                p_top *= z;
                p_bot *= 1.0 - z;
            }
            let Some(bbox) = Bbox::of_points(pts.iter().copied()) else {
                continue;
            };
            fp.fill(&bbox);
            if let Some(delta) = delta {
                // The support holds every tile the net writes, pin tiles
                // included, so one test covers all six demand channels.
                let (c0, c1, r0, r1) = fp.support();
                if !delta.intersects_range(c0, c1, r0, r1) {
                    continue;
                }
            }
            nets += 1;
            let w = net.weight as f32;
            let w_top2d = (p_top as f32) * w;
            let w_bot2d = (p_bot as f32) * w;
            let w_3d = ((1.0 - p_top - p_bot).max(0.0) as f32) * w;
            // 3D nets demand routing on both dies, at reduced density.
            fp.splat(
                [
                    &mut top.rudy_2d,
                    &mut bottom.rudy_2d,
                    &mut top.rudy_3d,
                    &mut bottom.rudy_3d,
                ],
                [w_top2d, w_bot2d, w_3d * RUDY_3D_SCALE, w_3d * RUDY_3D_SCALE],
                mask,
            );
            // PinRUDY (Eq. 3): each pin's tile gets `weight · factor`.
            let factor = fp.factor() as f32;
            for (&pid, &(px, py)) in net.pins.iter().zip(&pts) {
                let (col, row) = (g.col(px), g.row(py));
                if mask.is_some_and(|m| !m[row * g.nx + col]) {
                    continue;
                }
                let z = soft.z[netlist.pin(pid).cell.index()].clamp(0.0, 1.0) as f32;
                // 2D part: pin is on die d AND the whole net is on die d.
                // 3D part: weighted by the pin's own tier probability.
                for (map, weight) in [
                    (&mut top.pin_rudy_2d, w_top2d),
                    (&mut bottom.pin_rudy_2d, w_bot2d),
                    (&mut top.pin_rudy_3d, w_3d * z),
                    (&mut bottom.pin_rudy_3d, w_3d * (1.0 - z)),
                ] {
                    if weight != 0.0 {
                        map.add(col, row, weight * factor);
                    }
                }
            }
        }
        nets
    }
}

/// Visit every GCell overlapping `rect = (xl, yl, xh, yh)` with the overlap
/// area.
pub(crate) fn rasterize_rect(
    g: &GcellGrid,
    rect: (f64, f64, f64, f64),
    mut visit: impl FnMut(usize, usize, f64),
) {
    let (xl, yl, xh, yh) = rect;
    if xh <= xl || yh <= yl {
        return;
    }
    let c0 = g.col(xl);
    let c1 = g.col(xh);
    let r0 = g.row(yl);
    let r1 = g.row(yh);
    for row in r0..=r1 {
        for col in c0..=c1 {
            let (tx0, ty0, tx1, ty1) = g.bounds(col, row);
            let ow = (xh.min(tx1) - xl.max(tx0)).max(0.0);
            let oh = (yh.min(ty1) - yl.max(ty0)).max(0.0);
            if ow > 0.0 && oh > 0.0 {
                visit(col, row, ow * oh);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::{CellClass, CellId, Die, NetlistBuilder, PinDirection, Tier};

    fn two_cell_design() -> (Netlist, GcellGrid, Placement3) {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_cell_simple("a", CellClass::Combinational);
        let c = b.add_cell_simple("c", CellClass::Combinational);
        b.add_net("w", &[(a, PinDirection::Output), (c, PinDirection::Input)]);
        let n = b.finish().expect("valid");
        let g = GcellGrid::cover(
            Die {
                width: 8.0,
                height: 8.0,
            },
            1.0,
        );
        let mut p = Placement3::zeroed(2);
        p.set_xy(CellId(0), 1.0, 1.0);
        p.set_xy(CellId(1), 5.0, 5.0);
        (n, g, p)
    }

    #[test]
    fn same_tier_net_is_2d() {
        let (n, g, p) = two_cell_design();
        let fx = FeatureExtractor::new(g);
        let [bottom, top] = fx.extract(&n, &p);
        assert!(bottom.rudy_2d.sum() > 0.0);
        assert_eq!(bottom.rudy_3d.sum(), 0.0);
        assert_eq!(top.rudy_2d.sum(), 0.0);
        assert_eq!(top.rudy_3d.sum(), 0.0);
    }

    #[test]
    fn cross_tier_net_is_3d_on_both_dies() {
        let (n, g, mut p) = two_cell_design();
        p.set_tier(CellId(1), Tier::Top);
        let fx = FeatureExtractor::new(g);
        let [bottom, top] = fx.extract(&n, &p);
        assert_eq!(bottom.rudy_2d.sum(), 0.0);
        assert!(bottom.rudy_3d.sum() > 0.0);
        assert!((bottom.rudy_3d.sum() - top.rudy_3d.sum()).abs() < 1e-6);
        // pin rudy 3d: one pin on each die
        assert!(bottom.pin_rudy_3d.sum() > 0.0);
        assert!(top.pin_rudy_3d.sum() > 0.0);
    }

    #[test]
    fn soft_half_z_splits_everything() {
        let (n, g, p) = two_cell_design();
        let mut soft = SoftAssignment::from_placement(&p);
        soft.z = vec![0.5, 0.5];
        let fx = FeatureExtractor::new(g);
        let [bottom, top] = fx.extract_soft(&n, &soft);
        // cell density splits evenly
        assert!((bottom.cell_density.sum() - top.cell_density.sum()).abs() < 1e-6);
        // 2D weights are 0.25 each; 3D weight is 0.5
        assert!((bottom.rudy_2d.sum() - top.rudy_2d.sum()).abs() < 1e-6);
        assert!(bottom.rudy_3d.sum() > 0.0);
    }

    #[test]
    fn density_integrates_to_cell_area() {
        let (n, g, p) = two_cell_design();
        let fx = FeatureExtractor::new(g);
        let [bottom, _top] = fx.extract(&n, &p);
        let total_area: f64 = n.cells().map(|c| c.area()).sum();
        // sum(density * cell_area_of_bin) == total cell area
        let got = bottom.cell_density.sum() as f64 * g.cell_area();
        assert!((got - total_area).abs() < 1e-6, "{got} vs {total_area}");
    }

    #[test]
    fn stacked_layout_is_channel_major() {
        let f = DieFeatures::zeros(3, 2);
        let v = f.stacked();
        assert_eq!(v.len(), NUM_CHANNELS * 6);
    }

    #[test]
    fn clock_nets_are_excluded_from_demand() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_cell_simple("a", CellClass::Combinational);
        let c = b.add_cell_simple("c", CellClass::Sequential);
        b.add_weighted_net(
            "clk",
            &[(a, PinDirection::Output), (c, PinDirection::Input)],
            1.0,
            true,
        );
        b.add_net(
            "sig",
            &[(a, PinDirection::Output), (c, PinDirection::Input)],
        );
        let n = b.finish().expect("valid");
        let g = GcellGrid::cover(
            Die {
                width: 4.0,
                height: 4.0,
            },
            1.0,
        );
        let p = Placement3::zeroed(2);
        let fx = FeatureExtractor::new(g);
        let [bottom, _] = fx.extract(&n, &p);
        // only the signal net contributes; removing the clock halves nothing,
        // but demand must be > 0 and pin rudy counts only signal pins.
        assert!(bottom.rudy_2d.sum() > 0.0);
        let per_pin = bottom.pin_rudy_2d.sum() / 2.0;
        assert!(per_pin > 0.0);
    }
}
