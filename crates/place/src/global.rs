//! Force-directed analytical 3D global placement.
//!
//! This stands in for ICC2's `place_opt` stage in the Pin-3D flow: it takes
//! the generator's initial layout and produces a wirelength-driven,
//! density-spread, optionally congestion-aware (x, y) placement, then
//! assigns tiers via FM partitioning. Every Table-I knob in
//! [`PlacementParams`] changes a concrete behaviour here, which is what
//! makes the dataset of Sec. III-A diverse.

use crate::{fm_bipartition, PlacementParams};
use dco_features::{FeatureExtractor, GridMap, SoftAssignment};
use dco_netlist::{CellClass, CellId, Design, Placement3, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cells (or pins) accumulated per parallel chunk when building the
/// per-tier density/demand maps. Fixed — never derived from the thread
/// count — so chunk boundaries and the ordered partial-map merge are
/// identical at any worker count, keeping the maps bitwise stable.
const ACCUM_CHUNK: usize = 2048;

/// Merge per-chunk `[bottom, top]` partial maps in chunk order.
fn merge_tier_maps(
    parts: impl IntoIterator<Item = [GridMap; 2]>,
    nx: usize,
    ny: usize,
) -> [GridMap; 2] {
    dco_parallel::reduce_ordered(
        parts,
        [GridMap::zeros(nx, ny), GridMap::zeros(nx, ny)],
        |mut acc, part| {
            acc[0].add_assign(&part[0]);
            acc[1].add_assign(&part[1]);
            acc
        },
    )
}

/// The global placement engine.
///
/// # Example
///
/// ```
/// use dco_netlist::generate::{DesignProfile, GeneratorConfig};
/// use dco_place::{GlobalPlacer, PlacementParams};
///
/// # fn main() -> Result<(), dco_netlist::NetlistError> {
/// let design = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.02).generate(1)?;
/// let placed = GlobalPlacer::new(&design).place(&PlacementParams::default(), 42);
/// assert!(placed.total_hpwl(&design.netlist) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GlobalPlacer<'a> {
    design: &'a Design,
}

impl<'a> GlobalPlacer<'a> {
    /// A placer for `design`.
    pub fn new(design: &'a Design) -> Self {
        Self { design }
    }

    /// Run global placement with the given parameters and seed, returning a
    /// legalization-ready 3D placement (tiers assigned, cells inside the
    /// die, density spread to the requested `max_density`).
    pub fn place(&self, params: &PlacementParams, seed: u64) -> Placement3 {
        let _place_span = dco_obs::span!("place.global");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x97ACE);
        let netlist = &self.design.netlist;
        let fp = &self.design.floorplan;
        let mut p = self.design.placement.clone();

        let adj = self.weighted_adjacency(params);
        let passes = if params.two_pass { 2 } else { 1 };
        for pass in 0..passes {
            let iters = 12
                + 8 * params.initial_place_effort as usize
                + if pass + 1 == passes {
                    8 * params.final_place_effort as usize
                } else {
                    0
                };
            for it in 0..iters {
                let alpha = 0.6 * (1.0 - it as f64 / iters as f64) + 0.1;
                self.wirelength_step(&mut p, &adj, alpha);
                self.density_step(&mut p, params, &mut rng);
                if params.enable_irap && it % 4 == 3 {
                    self.congestion_step(&mut p, params, 0.5, &mut rng);
                }
            }
        }

        // Tier assignment by FM min-cut on the placed netlist.
        let tiers = fm_bipartition(netlist, p.tiers(), 0.1, 4);
        for id in netlist.cell_ids() {
            if netlist.cell(id).movable() {
                p.set_tier(id, tiers[id.index()]);
            }
        }

        // Post-pass congestion restructuring. Density is re-checked once at
        // the end rather than every sweep: interleaving the spreading force
        // with every congestion sweep churns cells and inflates wirelength.
        let strength = params.cong_restruct_effort as f64 / 4.0;
        if strength > 0.0 {
            for _ in 0..params.cong_restruct_iterations {
                self.congestion_step(&mut p, params, strength, &mut rng);
            }
            self.density_step(&mut p, params, &mut rng);
        }

        // Final clamp.
        for id in netlist.cell_ids() {
            if !netlist.cell(id).movable() {
                continue;
            }
            let cell = netlist.cell(id);
            let x = p.x(id).clamp(0.0, fp.die.width - cell.width);
            let y = p.y(id).clamp(0.0, fp.die.height - cell.height);
            p.set_xy(id, x, y);
        }
        p
    }

    /// Star adjacency with Table-I-dependent net weighting.
    fn weighted_adjacency(&self, params: &PlacementParams) -> Vec<Vec<(CellId, f64)>> {
        let netlist = &self.design.netlist;
        let mut adj = netlist.star_adjacency();
        if params.low_power_placement || params.enable_ccd {
            let power_boost = 1.0 + 0.15 * params.enhanced_low_power_effort as f64;
            for (i, edges) in adj.iter_mut().enumerate() {
                let cell = netlist.cell(CellId(i as u32));
                let boost = if params.low_power_placement && cell.internal_energy > 0.8 {
                    power_boost
                } else if params.enable_ccd && cell.class == CellClass::Sequential {
                    1.2
                } else {
                    1.0
                };
                for e in edges.iter_mut() {
                    e.1 *= boost;
                }
            }
        }
        adj
    }

    /// Pull every movable cell toward the weighted centroid of its
    /// neighbours (bound-to-bound style quadratic relaxation).
    fn wirelength_step(&self, p: &mut Placement3, adj: &[Vec<(CellId, f64)>], alpha: f64) {
        let netlist = &self.design.netlist;
        for id in netlist.cell_ids() {
            if !netlist.cell(id).movable() {
                continue;
            }
            let edges = &adj[id.index()];
            if edges.is_empty() {
                continue;
            }
            let (mut sx, mut sy, mut sw) = (0.0, 0.0, 0.0);
            for &(peer, w) in edges {
                sx += p.x(peer) * w;
                sy += p.y(peer) * w;
                sw += w;
            }
            if sw <= 0.0 {
                continue;
            }
            let (tx, ty) = (sx / sw, sy / sw);
            let nx = p.x(id) + alpha * (tx - p.x(id));
            let ny = p.y(id) + alpha * (ty - p.y(id));
            let (nx, ny) = self.design.floorplan.die.clamp(nx, ny);
            p.set_xy(id, nx, ny);
        }
    }

    /// Push cells out of bins denser than `max_density`, toward the least
    /// dense neighbouring bin.
    fn density_step(&self, p: &mut Placement3, params: &PlacementParams, rng: &mut StdRng) {
        let netlist = &self.design.netlist;
        let g = self.design.floorplan.grid;
        let inv_area = 1.0 / g.cell_area();
        // Per-chunk partial bin grids, merged in fixed chunk order.
        let pview: &Placement3 = p;
        let ids: Vec<CellId> = netlist.cell_ids().collect();
        let parts = dco_parallel::par_chunks(&ids, ACCUM_CHUNK, |_, chunk| {
            let mut part = [GridMap::zeros(g.nx, g.ny), GridMap::zeros(g.nx, g.ny)];
            // hot-path: density-accumulate
            for &id in chunk {
                let cell = netlist.cell(id);
                if cell.class == CellClass::Io {
                    continue;
                }
                let t = usize::from(pview.tier(id) == Tier::Top);
                let col = g.col(pview.x(id) + cell.width / 2.0);
                let row = g.row(pview.y(id) + cell.height / 2.0);
                let mut amount = (cell.area() * inv_area) as f32;
                if params.pin_density_aware {
                    amount += 0.003 * netlist.cell_pins(id).len() as f32;
                }
                part[t].add(col, row, amount);
            }
            // hot-path: end
            part
        });
        let density = merge_tier_maps(parts, g.nx, g.ny);
        // Passive telemetry: the merged density grid is already computed;
        // reading its peak cannot perturb the spreading step.
        if dco_obs::enabled() {
            let max_bin = density
                .iter()
                .flat_map(|m| m.data().iter())
                .fold(0.0f32, |a, &b| a.max(b));
            dco_obs::gauge_set("place.max_bin_density", f64::from(max_bin));
        }
        let target = params
            .max_density
            .min(params.congestion_driven_max_util.max(0.3)) as f32;
        for id in netlist.cell_ids() {
            if !netlist.cell(id).movable() {
                continue;
            }
            let cell = netlist.cell(id);
            let t = usize::from(p.tier(id) == Tier::Top);
            let col = g.col(p.x(id) + cell.width / 2.0);
            let row = g.row(p.y(id) + cell.height / 2.0);
            let d = density[t].get(col, row);
            if d <= target {
                continue;
            }
            // Move toward the least dense of the 4-neighbours, with jitter so
            // co-located cells fan out instead of marching in lockstep.
            let mut best = (col, row, d);
            for (dc, dr) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                let nc = col as i64 + dc;
                let nr = row as i64 + dr;
                if nc < 0 || nr < 0 || nc >= g.nx as i64 || nr >= g.ny as i64 {
                    continue;
                }
                let nd = density[t].get(nc as usize, nr as usize);
                if nd < best.2 {
                    best = (nc as usize, nr as usize, nd);
                }
            }
            if best.2 >= d {
                continue;
            }
            let overflow = ((d - target) / target.max(0.05)).min(1.0) as f64;
            let (bx0, by0, bx1, by1) = g.bounds(best.0, best.1);
            let tx = rng.gen_range(bx0..bx1);
            let ty = rng.gen_range(by0..by1);
            let step = 0.5 * overflow;
            let nx = p.x(id) + step * (tx - p.x(id));
            let ny = p.y(id) + step * (ty - p.y(id));
            let (nx, ny) = self.design.floorplan.die.clamp(nx, ny);
            p.set_xy(id, nx, ny);
        }
    }

    /// RUDY-driven congestion relief. For each cell sitting in a hot GCell
    /// the step blends two moves:
    ///
    /// 1. pull toward the weighted centroid of its neighbours — shrinking
    ///    net bounding boxes reduces routing *demand* (the dominant term),
    /// 2. a downhill nudge off the demand peak — redistributing whatever
    ///    demand remains.
    ///
    /// Pure repulsion (spreading only) lengthens nets and can increase total
    /// demand; the demand-shrinking pull is what makes congestion-driven
    /// placement effective.
    fn congestion_step(
        &self,
        p: &mut Placement3,
        params: &PlacementParams,
        strength: f64,
        rng: &mut StdRng,
    ) {
        let netlist = &self.design.netlist;
        let g = self.design.floorplan.grid;
        let adj = netlist.star_adjacency();
        let demand: [GridMap; 2] = if params.global_route_based {
            let fx = FeatureExtractor::new(g);
            let soft = SoftAssignment::from_placement(p);
            let [bottom, top] = fx.extract_soft(netlist, &soft);
            let mut b = bottom.rudy_2d;
            b.add_assign(&bottom.rudy_3d);
            let mut t = top.rudy_2d;
            t.add_assign(&top.rudy_3d);
            [b, t]
        } else {
            // pin-density proxy, accumulated per chunk and merged in order
            let pview: &Placement3 = p;
            let pins: Vec<&dco_netlist::Pin> = netlist.pins().collect();
            let parts = dco_parallel::par_chunks(&pins, ACCUM_CHUNK, |_, chunk| {
                let mut part = [GridMap::zeros(g.nx, g.ny), GridMap::zeros(g.nx, g.ny)];
                for pin in chunk {
                    let c = pin.cell;
                    let t = usize::from(pview.tier(c) == Tier::Top);
                    let col = g.col(pview.x(c) + pin.offset.0);
                    let row = g.row(pview.y(c) + pin.offset.1);
                    part[t].add(col, row, 1.0);
                }
                part
            });
            merge_tier_maps(parts, g.nx, g.ny)
        };
        for (t, m) in demand.iter().enumerate() {
            let mx = m.max();
            if mx <= 0.0 {
                continue;
            }
            // Demand above this fraction of the peak counts as hot; lower
            // target_routing_density widens the hot set.
            let aggressiveness =
                (params.target_routing_density * params.adv_node_cong_max_util.max(0.3)) as f32;
            let threshold = mx * (0.55 + 0.40 * aggressiveness.clamp(0.0, 1.0));
            let tier = if t == 1 { Tier::Top } else { Tier::Bottom };
            for id in netlist.cell_ids() {
                if !netlist.cell(id).movable() || p.tier(id) != tier {
                    continue;
                }
                let col = g.col(p.x(id));
                let row = g.row(p.y(id));
                let d = m.get(col, row);
                if d <= threshold {
                    continue;
                }
                let heat = strength * ((d - threshold) / mx.max(1e-6)) as f64;
                // (1) demand-shrinking pull toward the connectivity centroid
                let edges = &adj[id.index()];
                if !edges.is_empty() {
                    let (mut sx, mut sy, mut sw) = (0.0, 0.0, 0.0);
                    for &(peer, w) in edges {
                        sx += p.x(peer) * w;
                        sy += p.y(peer) * w;
                        sw += w;
                    }
                    if sw > 0.0 {
                        let step = (1.2 * heat).min(0.9);
                        let nx = p.x(id) + step * (sx / sw - p.x(id));
                        let ny = p.y(id) + step * (sy / sw - p.y(id));
                        let (nx, ny) = self.design.floorplan.die.clamp(nx, ny);
                        p.set_xy(id, nx, ny);
                    }
                }
                // (2) small downhill nudge off the peak
                let mut best = (col, row, d);
                for (dc, dr) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                    let nc = col as i64 + dc;
                    let nr = row as i64 + dr;
                    if nc < 0 || nr < 0 || nc >= g.nx as i64 || nr >= g.ny as i64 {
                        continue;
                    }
                    let nd = m.get(nc as usize, nr as usize);
                    if nd < best.2 {
                        best = (nc as usize, nr as usize, nd);
                    }
                }
                if best.2 < d {
                    let (bx0, by0, bx1, by1) = g.bounds(best.0, best.1);
                    let tx = rng.gen_range(bx0..bx1);
                    let ty = rng.gen_range(by0..by1);
                    let step = 0.15 * heat;
                    let nx = p.x(id) + step * (tx - p.x(id));
                    let ny = p.y(id) + step * (ty - p.y(id));
                    let (nx, ny) = self.design.floorplan.die.clamp(nx, ny);
                    p.set_xy(id, nx, ny);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    fn small_design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(7)
            .expect("generation succeeds")
    }

    #[test]
    fn placement_reduces_wirelength() {
        let d = small_design();
        let before = d.placement.total_hpwl(&d.netlist);
        let placed = GlobalPlacer::new(&d).place(&PlacementParams::default(), 1);
        let after = placed.total_hpwl(&d.netlist);
        assert!(after < before, "HPWL should drop: {before} -> {after}");
    }

    #[test]
    fn placement_is_deterministic() {
        let d = small_design();
        let a = GlobalPlacer::new(&d).place(&PlacementParams::default(), 5);
        let b = GlobalPlacer::new(&d).place(&PlacementParams::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_params_give_different_layouts() {
        let d = small_design();
        let a = GlobalPlacer::new(&d).place(&PlacementParams::default(), 5);
        let b = GlobalPlacer::new(&d).place(&PlacementParams::congestion_focused(), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn cells_stay_inside_die() {
        let d = small_design();
        let p = GlobalPlacer::new(&d).place(&PlacementParams::congestion_focused(), 2);
        for id in d.netlist.cell_ids() {
            let c = d.netlist.cell(id);
            assert!(p.x(id) >= -1e-9 && p.x(id) + c.width <= d.floorplan.die.width + 1e-6);
            assert!(p.y(id) >= -1e-9 && p.y(id) + c.height <= d.floorplan.die.height + 1e-6);
        }
    }

    #[test]
    fn fixed_cells_do_not_move() {
        let d = small_design();
        let p = GlobalPlacer::new(&d).place(&PlacementParams::default(), 3);
        for id in d.netlist.cell_ids() {
            if !d.netlist.cell(id).movable() {
                assert_eq!(p.x(id), d.placement.x(id));
                assert_eq!(p.y(id), d.placement.y(id));
            }
        }
    }

    #[test]
    fn both_tiers_are_used() {
        let d = small_design();
        let p = GlobalPlacer::new(&d).place(&PlacementParams::default(), 3);
        let top = p.tiers().iter().filter(|&&t| t == Tier::Top).count();
        let bottom = p.tiers().len() - top;
        assert!(top > 0 && bottom > 0, "top {top} bottom {bottom}");
    }
}
