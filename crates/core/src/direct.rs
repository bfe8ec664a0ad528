//! The alternative DCO-3D explicitly rejects: optimizing an independent
//! (Δx, Δy, z) per cell instead of driving movement through a shared-weight
//! GNN ("we avoid learning independent (x, y, z) coordinates per cell,
//! which would scale poorly for large netlists with millions of
//! parameters", paper Sec. IV-A).
//!
//! Implementing it makes the design choice measurable: the direct spreader
//! owns `3 × #cells` parameters (vs the GNN's constant few thousand) and
//! gets no connectivity-aware coupling between cells (`repro_ablation`,
//! ablation 4).

use crate::optimizer::Spreader;
use crate::{CutsizeLoss, DcoConfig, DcoOptimizer};
use dco_netlist::Design;
use dco_tensor::{Initializer, ParamStore, Tensor};
use dco_unet::{Normalization, SiameseUNet};

impl<'a> DcoOptimizer<'a> {
    /// The per-cell baseline (the paper's rejected alternative): the same
    /// Algorithm-2 loop, losses and decode as [`DcoOptimizer::new`], but the
    /// spreader is raw `[n, 1]` tensors for Δx, Δy and the z logit instead
    /// of a GNN, starting from near-zero displacements.
    pub fn direct(
        design: &'a Design,
        unet: &'a SiameseUNet,
        normalization: &'a Normalization,
        cfg: DcoConfig,
        seed: u64,
    ) -> Self {
        let n = design.netlist.num_cells();
        let mut init = Initializer::new(seed ^ 0xD1);
        let mut store = ParamStore::new();
        store.insert("dx", init.uniform(&[n, 1], -0.01, 0.01));
        store.insert("dy", init.uniform(&[n, 1], -0.01, 0.01));
        store.insert("zl", Tensor::zeros(&[n, 1]));
        let cutsize = CutsizeLoss::new(&design.netlist);
        Self::with_spreader(
            design,
            unet,
            normalization,
            Spreader::Direct(store),
            cutsize,
            cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses::{congestion_loss, overlap_loss};
    use crate::optimizer::{
        CONGESTION_THRESHOLD, CONVERGENCE_TOL, LEARNING_RATE, MAX_DISPLACEMENT_FRAC, TARGET_DENSITY,
    };
    use crate::{DcoResult, LossBreakdown, SmoothDensity, SoftRasterizer};
    use dco_features::NUM_CHANNELS;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{GcellGrid, Netlist, Placement3, Tier};
    use dco_tensor::{Adam, Graph, Var};
    use dco_unet::UNetConfig;
    use std::rc::Rc;

    // The per-cell optimizer as it stood before it became a spreader of
    // `DcoOptimizer`, kept verbatim as the reference `DcoOptimizer::direct`
    // is checked against.

    /// Per-cell direct-coordinate optimizer (the paper's rejected baseline).
    ///
    /// Shares every loss and decode convention with [`crate::DcoOptimizer`];
    /// the only difference is the parameterization: raw `[n, 1]` tensors for
    /// Δx, Δy and the z logit instead of a GNN.
    pub struct DirectOptimizer<'a> {
        design: &'a Design,
        netlist: Rc<Netlist>,
        unet: &'a SiameseUNet,
        normalization: &'a Normalization,
        cfg: DcoConfig,
        store: ParamStore,
        cutsize: CutsizeLoss,
        raster_grid: GcellGrid,
    }

    impl<'a> DirectOptimizer<'a> {
        /// Create a direct optimizer with near-zero initial displacements.
        pub fn new(
            design: &'a Design,
            unet: &'a SiameseUNet,
            normalization: &'a Normalization,
            cfg: DcoConfig,
            seed: u64,
        ) -> Self {
            let n = design.netlist.num_cells();
            let mut init = Initializer::new(seed ^ 0xD1);
            let mut store = ParamStore::new();
            store.insert("dx", init.uniform(&[n, 1], -0.01, 0.01));
            store.insert("dy", init.uniform(&[n, 1], -0.01, 0.01));
            store.insert("zl", Tensor::zeros(&[n, 1]));
            let size = unet.config().size;
            let raster_grid = GcellGrid {
                nx: size,
                ny: size,
                dx: design.floorplan.die.width / size as f64,
                dy: design.floorplan.die.height / size as f64,
            };
            Self {
                design,
                netlist: Rc::new(design.netlist.clone()),
                unet,
                normalization,
                cfg,
                store,
                cutsize: CutsizeLoss::new(&design.netlist),
                raster_grid,
            }
        }

        /// Run the same Algorithm-2 loop with the per-cell parameterization.
        pub fn run(&mut self, initial: &Placement3) -> DcoResult {
            let n = self.netlist.num_cells();
            let die = self.design.floorplan.die;
            let max_disp = (die.width.min(die.height) * MAX_DISPLACEMENT_FRAC) as f32;
            let x0 = Tensor::from_vec(initial.xs().iter().map(|&v| v as f32).collect(), &[n, 1]);
            let y0 = Tensor::from_vec(initial.ys().iter().map(|&v| v as f32).collect(), &[n, 1]);
            let z_bias = Tensor::from_vec(
                initial
                    .tiers()
                    .iter()
                    .map(|t| if t.as_z() > 0.5 { 2.0 } else { -2.0 })
                    .collect(),
                &[n, 1],
            );
            let movable = Tensor::from_vec(
                self.netlist
                    .cells()
                    .map(|c| f32::from(u8::from(c.movable())))
                    .collect(),
                &[n, 1],
            );
            let rasterizer = Rc::new(SoftRasterizer::new(
                Rc::clone(&self.netlist),
                self.raster_grid,
            ));
            let density_op = Rc::new(SmoothDensity::new(
                Rc::clone(&self.netlist),
                self.raster_grid,
            ));
            let inv_scale = self.channel_inverse_scale();

            let mut opt = Adam::new(LEARNING_RATE);
            let mut history = Vec::with_capacity(self.cfg.max_iter);
            let mut calm = 0usize;
            let mut converged = false;
            let mut iterations = 0usize;

            for iter in 0..self.cfg.max_iter {
                iterations = iter + 1;
                let mut g = Graph::new();
                let raw_dx = self.store.bind(&mut g, "dx");
                let raw_dy = self.store.bind(&mut g, "dy");
                let raw_z = self.store.bind(&mut g, "zl");
                let mv = g.input(movable.clone());
                let tdx = g.tanh(raw_dx);
                let tdx = g.mul(tdx, mv);
                let dx = g.mul_scalar(tdx, max_disp);
                let tdy = g.tanh(raw_dy);
                let tdy = g.mul(tdy, mv);
                let dy = g.mul_scalar(tdy, max_disp);
                let x0v = g.input(x0.clone());
                let y0v = g.input(y0.clone());
                let x = g.add(x0v, dx);
                let y = g.add(y0v, dy);
                let zb = g.input(z_bias.clone());
                let z = if self.cfg.enable_z {
                    let zr = g.mul(raw_z, mv);
                    let logits = g.add(zr, zb);
                    g.sigmoid(logits)
                } else {
                    g.sigmoid(zb)
                };

                let zero_x = g.input(Tensor::zeros(&[n, 1]));
                let zero_y = g.input(Tensor::zeros(&[n, 1]));
                let l_disp = displacement_loss(&mut g, dx, zero_x, dy, zero_y, max_disp);
                let feats = g.custom(
                    Rc::clone(&rasterizer) as Rc<dyn dco_tensor::CustomOp>,
                    &[x, y, z],
                );
                let scale = g.input(inv_scale.clone());
                let feats = g.mul(feats, scale);
                let f0 = g.slice_chan(feats, 0, NUM_CHANNELS);
                let f1 = g.slice_chan(feats, NUM_CHANNELS, NUM_CHANNELS);
                let (c0, c1) = self.unet.forward_frozen(&mut g, f0, f1);
                let label_scale = self.normalization.label_scale.max(1e-9);
                let c0 = g.mul_scalar(c0, label_scale);
                let c1 = g.mul_scalar(c1, label_scale);
                let l_cong = congestion_loss(&mut g, c0, c1, CONGESTION_THRESHOLD);
                let l_cut = self.cutsize.loss(&mut g, z);
                let dens = g.custom(
                    Rc::clone(&density_op) as Rc<dyn dco_tensor::CustomOp>,
                    &[x, y, z],
                );
                let l_ovlp = overlap_loss(&mut g, dens, TARGET_DENSITY);

                let wa = g.mul_scalar(l_disp, self.cfg.alpha);
                let wb = g.mul_scalar(l_ovlp, self.cfg.beta);
                let wc = g.mul_scalar(l_cut, self.cfg.gamma);
                let wd = g.mul_scalar(l_cong, self.cfg.delta);
                let s1 = g.add(wa, wb);
                let s2 = g.add(wc, wd);
                let total = g.add(s1, s2);

                let breakdown = LossBreakdown {
                    total: g.value(total).data()[0],
                    displacement: g.value(l_disp).data()[0],
                    overlap: g.value(l_ovlp).data()[0],
                    cutsize: g.value(l_cut).data()[0],
                    congestion: g.value(l_cong).data()[0],
                };
                g.backward(total);
                self.store.apply_grads(&g);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);

                if let Some(prev) = history.last() {
                    let p: &LossBreakdown = prev;
                    let rel = (p.total - breakdown.total).abs() / p.total.abs().max(1e-9);
                    calm = if rel < CONVERGENCE_TOL { calm + 1 } else { 0 };
                }
                history.push(breakdown);
                if calm >= 3 {
                    converged = true;
                    break;
                }
            }

            // final decode
            let mut placement = initial.clone();
            let mut soft_z = Vec::with_capacity(n);
            let dx = self.store.get("dx").clone();
            let dy = self.store.get("dy").clone();
            let zl = self.store.get("zl").clone();
            for id in self.netlist.cell_ids() {
                let i = id.index();
                let cell = self.netlist.cell(id);
                if cell.movable() {
                    let nx = (initial.x(id) + (dx.data()[i].tanh() * max_disp) as f64)
                        .clamp(0.0, die.width - cell.width);
                    let ny = (initial.y(id) + (dy.data()[i].tanh() * max_disp) as f64)
                        .clamp(0.0, die.height - cell.height);
                    placement.set_xy(id, nx, ny);
                    let zb = if initial.tier(id) == Tier::Top {
                        2.0
                    } else {
                        -2.0
                    };
                    let z = 1.0 / (1.0 + (-(zl.data()[i] + zb) as f64).exp());
                    if self.cfg.enable_z {
                        placement.set_tier(id, Tier::from_z(z));
                    }
                    soft_z.push(z);
                } else {
                    soft_z.push(initial.tier(id).as_z());
                }
            }
            DcoResult {
                placement,
                soft_z,
                history,
                iterations,
                converged,
                diagnostics: Vec::new(),
                divergence_events: 0,
                degraded: false,
            }
        }

        fn channel_inverse_scale(&self) -> Tensor {
            let plane = self.raster_grid.len();
            let mut data = Vec::with_capacity(2 * NUM_CHANNELS * plane);
            for _die in 0..2 {
                for c in 0..NUM_CHANNELS {
                    let s = 1.0 / self.normalization.channel_scale[c].max(1e-9);
                    data.extend(std::iter::repeat_n(s, plane));
                }
            }
            Tensor::from_vec(
                data,
                &[
                    1,
                    2 * NUM_CHANNELS,
                    self.raster_grid.ny,
                    self.raster_grid.nx,
                ],
            )
        }
    }

    /// The unweighted displacement loss (Eq. 11) the reference records:
    /// `mean((x − x0)² + (y − y0)²) / scale²`.
    fn displacement_loss(g: &mut Graph, x: Var, x0: Var, y: Var, y0: Var, scale: f32) -> Var {
        let dx = g.sub(x, x0);
        let dy = g.sub(y, y0);
        let dx2 = g.square(dx);
        let dy2 = g.square(dy);
        let s = g.add(dx2, dy2);
        let m = g.mean_all(s);
        g.mul_scalar(m, 1.0 / (scale * scale).max(1e-12))
    }

    fn setup() -> (Design, SiameseUNet, Normalization) {
        let design = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.01)
            .generate(3)
            .expect("gen");
        let unet = SiameseUNet::new(
            UNetConfig {
                size: 8,
                base_channels: 2,
                ..UNetConfig::default()
            },
            1,
        );
        let norm = Normalization {
            channel_scale: [1.0; 7],
            label_scale: 1.0,
        };
        (design, unet, norm)
    }

    #[test]
    fn direct_optimizer_runs_and_moves_cells() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 5,
            ..DcoConfig::default()
        };
        let mut opt = DcoOptimizer::direct(&design, &unet, &norm, cfg, 7);
        let result = opt.run(&design.placement);
        assert_eq!(result.history.len(), result.iterations);
        let moved = design
            .netlist
            .cell_ids()
            .any(|id| (result.placement.x(id) - design.placement.x(id)).abs() > 1e-6);
        assert!(moved, "direct optimizer should move something");
    }

    #[test]
    fn parameter_count_scales_with_cells() {
        let (design, unet, norm) = setup();
        let opt = DcoOptimizer::direct(&design, &unet, &norm, DcoConfig::default(), 1);
        assert_eq!(opt.num_parameters(), 3 * design.netlist.num_cells());
    }

    #[test]
    fn fixed_cells_stay_put() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 3,
            ..DcoConfig::default()
        };
        let mut opt = DcoOptimizer::direct(&design, &unet, &norm, cfg, 2);
        let result = opt.run(&design.placement);
        for id in design.netlist.cell_ids() {
            if !design.netlist.cell(id).movable() {
                assert_eq!(result.placement.x(id), design.placement.x(id));
                assert_eq!(result.placement.y(id), design.placement.y(id));
                assert_eq!(result.placement.tier(id), design.placement.tier(id));
            }
        }
    }

    /// The direct spreader runs the reference's arithmetic: loss histories
    /// are bit-identical, and cells land where the reference puts them up
    /// to the f32 rounding of the shared decode. The one deliberate change
    /// is the final clamp: a cell whose initial position overhangs the die
    /// now stays within the displacement budget of where it started (the
    /// GNN path's window) instead of being clamped straight into the die.
    #[test]
    fn direct_spreader_matches_reference() {
        let (design, unet, norm) = setup();
        let die = design.floorplan.die;
        let side = die.width.min(die.height);
        for enable_z in [true, false] {
            let cfg = DcoConfig {
                max_iter: 6,
                enable_z,
                ..DcoConfig::default()
            };
            let want =
                DirectOptimizer::new(&design, &unet, &norm, cfg.clone(), 7).run(&design.placement);
            let got =
                DcoOptimizer::direct(&design, &unet, &norm, cfg.clone(), 7).run(&design.placement);
            assert_eq!(got.iterations, want.iterations, "z {enable_z}");
            assert_eq!(got.history.len(), want.history.len(), "z {enable_z}");
            for (k, (a, b)) in got.history.iter().zip(&want.history).enumerate() {
                for (term, x, y) in [
                    ("total", a.total, b.total),
                    ("displacement", a.displacement, b.displacement),
                    ("overlap", a.overlap, b.overlap),
                    ("cutsize", a.cutsize, b.cutsize),
                    ("congestion", a.congestion, b.congestion),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "z {enable_z}, iter {k}, {term}: {x} vs {y}"
                    );
                }
            }

            let md = f64::from((side * MAX_DISPLACEMENT_FRAC) as f32);
            let initial = &design.placement;
            for id in design.netlist.cell_ids() {
                let cell = design.netlist.cell(id);
                let (ix, iy) = (initial.x(id), initial.y(id));
                let (x, y) = (got.placement.x(id), got.placement.y(id));
                let (x_max, y_max) = (die.width - cell.width, die.height - cell.height);
                if !cell.movable() {
                    assert_eq!((x, y), (ix, iy), "fixed cell {id:?} moved");
                } else if (0.0..=x_max).contains(&ix) && (0.0..=y_max).contains(&iy) {
                    let (rx, ry) = (want.placement.x(id), want.placement.y(id));
                    assert!(
                        (x - rx).abs() <= 1e-6 * side && (y - ry).abs() <= 1e-6 * side,
                        "z {enable_z}, cell {id:?}: ({x}, {y}) vs reference ({rx}, {ry})"
                    );
                } else {
                    let lo_x = (ix - md).max(0.0);
                    let hi_x = (ix + md).min(x_max.max(0.0)).max(lo_x);
                    let lo_y = (iy - md).max(0.0);
                    let hi_y = (iy + md).min(y_max.max(0.0)).max(lo_y);
                    assert!(
                        (lo_x..=hi_x).contains(&x) && (lo_y..=hi_y).contains(&y),
                        "z {enable_z}, overhanging cell {id:?}: ({x}, {y}) outside \
                         [{lo_x}, {hi_x}] x [{lo_y}, {hi_y}]"
                    );
                }
                assert_eq!(
                    got.placement.tier(id),
                    want.placement.tier(id),
                    "z {enable_z}, cell {id:?}"
                );
            }
        }
    }
}
