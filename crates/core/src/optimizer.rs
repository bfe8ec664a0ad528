//! Algorithm 2: the differentiable congestion optimization loop.

use crate::losses::{congestion_loss, overlap_loss, weighted_displacement_loss, CutsizeLoss};
use crate::{SmoothDensity, SoftRasterizer};
use dco_features::NUM_CHANNELS;
use dco_gnn::Gcn;
use dco_netlist::{Design, GcellGrid, Netlist, Placement3, Tier};
use dco_tensor::{Adam, Csr, Graph, ParamStore, Tensor, Var};
use dco_unet::{Normalization, SiameseUNet};
use std::rc::Rc;

/// DCO hyperparameters (the α, β, γ, δ of Algorithm 2 plus machinery).
#[derive(Debug, Clone, PartialEq)]
pub struct DcoConfig {
    /// Maximum optimization iterations.
    pub max_iter: usize,
    /// Adam learning rate for the GNN parameters.
    pub learning_rate: f32,
    /// α: displacement-loss weight.
    pub alpha: f32,
    /// β: overlap-loss weight.
    pub beta: f32,
    /// γ: cutsize-loss weight.
    pub gamma: f32,
    /// δ: congestion-loss weight.
    pub delta: f32,
    /// Maximum (x, y) displacement as a fraction of the die side.
    pub max_displacement_frac: f64,
    /// Target bin density for the overlap loss.
    pub target_density: f32,
    /// Utilization above which predicted congestion is penalized.
    pub congestion_threshold: f32,
    /// Relative loss-change threshold for convergence (3 consecutive hits).
    pub convergence_tol: f32,
    /// Allow cross-tier movement (z optimization). Disabling reduces DCO to
    /// a 2D spreader — the paper's motivating ablation.
    pub enable_z: bool,
    /// Run [`Graph::validate`] on the first iteration's tape: panic on
    /// error-severity diagnostics (shape mismatches, non-finite values) and
    /// collect warnings into [`DcoResult::diagnostics`]. Off by default; a
    /// debugging aid with a one-iteration analysis cost.
    pub validate_graph: bool,
    /// Divergence guard: how many non-finite loss/gradient events to absorb
    /// (rollback to the last good parameters and retry with a backed-off
    /// learning rate) before degrading to the best-so-far placement.
    pub max_divergence_retries: usize,
    /// Learning-rate multiplier applied on each divergence rollback.
    pub lr_backoff: f32,
    /// Fault injection: force the loss non-finite at this attempt index
    /// (testing hook for the divergence guard; `None` in production).
    pub inject_nan_loss_at: Option<usize>,
    /// Cooperative cancellation, polled at each iteration boundary. The
    /// default token never fires; the serve layer arms it to enforce
    /// per-job deadlines. A cancelled run stops early and returns the
    /// current (partial) placement — callers that care discard it.
    pub cancel: dco_parallel::CancelToken,
}

impl Default for DcoConfig {
    fn default() -> Self {
        Self {
            max_iter: 40,
            learning_rate: 2e-2,
            alpha: 1.5,
            beta: 10.0,
            gamma: 2.0,
            delta: 8.0,
            max_displacement_frac: 0.10,
            target_density: 0.8,
            congestion_threshold: 0.85,
            convergence_tol: 1e-5,
            enable_z: true,
            validate_graph: false,
            max_divergence_retries: 3,
            lr_backoff: 0.5,
            inject_nan_loss_at: None,
            cancel: dco_parallel::CancelToken::never(),
        }
    }
}

/// Loss breakdown at one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBreakdown {
    /// Weighted total.
    pub total: f32,
    /// Displacement term (unweighted).
    pub displacement: f32,
    /// Overlap term (unweighted).
    pub overlap: f32,
    /// Cutsize term (unweighted).
    pub cutsize: f32,
    /// Congestion term (unweighted).
    pub congestion: f32,
}

/// Result of a DCO run.
#[derive(Debug, Clone)]
pub struct DcoResult {
    /// The optimized placement (hard tier assignment via z ≥ 0.5).
    pub placement: Placement3,
    /// Final soft tier probabilities.
    pub soft_z: Vec<f64>,
    /// Loss trajectory.
    pub history: Vec<LossBreakdown>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the loop converged before `max_iter`.
    pub converged: bool,
    /// Warning-severity diagnostics from the first iteration's tape when
    /// [`DcoConfig::validate_graph`] is set (empty otherwise).
    pub diagnostics: Vec<dco_tensor::Diagnostic>,
    /// Number of non-finite loss/gradient events absorbed by the divergence
    /// guard (each one rolled back to the last good parameters).
    pub divergence_events: usize,
    /// True when the divergence guard exhausted its retries and returned the
    /// best-so-far placement instead of a fully optimized one.
    pub degraded: bool,
}

/// What Algorithm 2 descends: the source of each cell's raw Δx, Δy and
/// z logit.
pub(crate) enum Spreader {
    /// The paper's shared-weight GCN over the `[n, F]` Table-II node
    /// features and the netlist adjacency.
    Gnn {
        gcn: Gcn,
        node_features: Tensor,
        adj: Rc<Csr>,
    },
    /// Independent `[n, 1]` parameters `dx`, `dy` and `zl` (the z logit):
    /// the per-cell baseline of Sec. IV-A (see [`DcoOptimizer::direct`]).
    Direct(ParamStore),
}

impl Spreader {
    fn store_mut(&mut self) -> &mut ParamStore {
        match self {
            Self::Gnn { gcn, .. } => gcn.store_mut(),
            Self::Direct(store) => store,
        }
    }

    /// Record the raw `[n, 1]` Δx, Δy and z-logit columns.
    fn raw(&mut self, g: &mut Graph) -> (Var, Var, Var) {
        match self {
            Self::Gnn {
                gcn,
                node_features,
                adj,
            } => {
                let feats = g.input(node_features.clone());
                let raw = gcn.forward(g, Rc::clone(adj), feats);
                (
                    g.slice_cols(raw, 0, 1),
                    g.slice_cols(raw, 1, 1),
                    g.slice_cols(raw, 2, 1),
                )
            }
            Self::Direct(store) => (
                store.bind(g, "dx"),
                store.bind(g, "dy"),
                store.bind(g, "zl"),
            ),
        }
    }
}

/// The DCO-3D optimizer (paper Sec. IV, Algorithm 2).
///
/// Couples a cell spreader — a [`Gcn`] ([`DcoOptimizer::new`]) or the
/// rejected per-cell baseline ([`DcoOptimizer::direct`]) — to a frozen
/// [`SiameseUNet`] congestion predictor through the differentiable
/// [`SoftRasterizer`], and descends the four-term objective
/// `α·L_disp + β·L_ovlp + γ·L_cut + δ·L_cong`.
pub struct DcoOptimizer<'a> {
    design: &'a Design,
    netlist: Rc<Netlist>,
    unet: &'a SiameseUNet,
    normalization: &'a Normalization,
    cfg: DcoConfig,
    spreader: Spreader,
    cutsize: CutsizeLoss,
    raster_grid: GcellGrid,
    disp_weights: Tensor,
}

impl<'a> DcoOptimizer<'a> {
    /// Create an optimizer.
    ///
    /// - `unet`/`normalization`: the trained congestion predictor and the
    ///   dataset normalization it was trained with,
    /// - `node_features`: the `[n, F]` Table-II feature matrix (see
    ///   [`dco_gnn::build_node_features`]),
    /// - `gcn`: a (typically freshly initialized) GNN; DCO trains it
    ///   in-place as its optimization vehicle.
    pub fn new(
        design: &'a Design,
        unet: &'a SiameseUNet,
        normalization: &'a Normalization,
        node_features: Tensor,
        gcn: Gcn,
        cfg: DcoConfig,
    ) -> Self {
        let adj = Rc::new(dco_gnn::build_adjacency(design, 48));
        let spreader = Spreader::Gnn {
            gcn,
            node_features,
            adj,
        };
        Self::with_spreader(design, unet, normalization, spreader, cfg)
    }

    /// The shared constructor behind [`DcoOptimizer::new`] and
    /// [`DcoOptimizer::direct`].
    pub(crate) fn with_spreader(
        design: &'a Design,
        unet: &'a SiameseUNet,
        normalization: &'a Normalization,
        spreader: Spreader,
        cfg: DcoConfig,
    ) -> Self {
        let size = unet.config().size;
        let raster_grid = GcellGrid {
            nx: size,
            ny: size,
            dx: design.floorplan.die.width / size as f64,
            dy: design.floorplan.die.height / size as f64,
        };
        let n = design.netlist.num_cells();
        Self {
            design,
            netlist: Rc::new(design.netlist.clone()),
            unet,
            normalization,
            cfg,
            spreader,
            cutsize: CutsizeLoss::new(&design.netlist, 48),
            raster_grid,
            disp_weights: Tensor::ones(&[n, 1]),
        }
    }

    /// Number of trainable scalars: the GCN's constant few thousand, or
    /// `3 × #cells` for the per-cell baseline.
    pub fn num_parameters(&self) -> usize {
        match &self.spreader {
            Spreader::Gnn { gcn, .. } => gcn.num_parameters(),
            Spreader::Direct(store) => store.num_scalars(),
        }
    }

    /// Anchor timing-critical cells harder: per-cell displacement weight
    /// `1 + boost · criticality`, with criticality = `clamp(-slack /
    /// clock_period, 0, 1)`. Cells with healthy slack keep weight 1.
    pub fn set_timing_criticality(&mut self, cell_slack_ps: &[f64], boost: f32) {
        let period = self.design.technology.clock_period_ps.max(1e-9);
        let n = self.netlist.num_cells();
        assert_eq!(cell_slack_ps.len(), n, "slack vector length mismatch");
        let w: Vec<f32> = cell_slack_ps
            .iter()
            .map(|&s| 1.0 + boost * ((-s / period).clamp(0.0, 1.0) as f32))
            .collect();
        self.disp_weights = Tensor::from_vec(w, &[n, 1]);
    }

    /// Run Algorithm 2 starting from `initial` and return the optimized
    /// placement.
    pub fn run(&mut self, initial: &Placement3) -> DcoResult {
        let n = self.netlist.num_cells();
        let die = self.design.floorplan.die;
        let max_disp = (die.width.min(die.height) * self.cfg.max_displacement_frac) as f32;

        let x0 = Tensor::from_vec(initial.xs().iter().map(|&v| v as f32).collect(), &[n, 1]);
        let y0 = Tensor::from_vec(initial.ys().iter().map(|&v| v as f32).collect(), &[n, 1]);
        // bias so sigmoid(z) starts near the initial tier (0.88 / 0.12)
        let z_bias = Tensor::from_vec(
            initial
                .tiers()
                .iter()
                .map(|t| if t.as_z() > 0.5 { 2.0 } else { -2.0 })
                .collect(),
            &[n, 1],
        );
        // mask: 1 for movable cells, 0 for fixed (macros / IOs stay put)
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
        // per-channel inverse scales applied to the rasterizer output so it
        // matches the UNet's training normalization
        let inv_scale = self.channel_inverse_scale();

        let mut lr = self.cfg.learning_rate;
        let mut opt = Adam::new(lr);
        let mut history: Vec<LossBreakdown> = Vec::with_capacity(self.cfg.max_iter);
        let mut calm_iters = 0usize;
        let mut converged = false;
        let mut diagnostics: Vec<dco_tensor::Diagnostic> = Vec::new();
        // Divergence guard state: parameters known to have produced a finite
        // loss, so a poisoned update can be rolled back instead of cascading.
        let mut last_good = self.spreader.store_mut().snapshot();
        let mut divergence_events = 0usize;
        let mut degraded = false;

        for iter in 0..self.cfg.max_iter {
            if self.cfg.cancel.is_cancelled() {
                break;
            }
            let _iter_span = dco_obs::span!("dco.iter", iter = iter);
            let mut g = Graph::new();
            let (x, y, z, dx, dy) = self.decode(&mut g, &x0, &y0, &z_bias, &movable, max_disp);

            // losses (dx/dy are displacements; critical cells weighted)
            let wts = g.input(self.disp_weights.clone());
            let l_disp = weighted_displacement_loss(&mut g, dx, dy, wts, max_disp);
            let feats = g.custom(
                Rc::clone(&rasterizer) as Rc<dyn dco_tensor::CustomOp>,
                &[x, y, z],
            );
            let scale = g.input(inv_scale.clone());
            let feats = g.mul(feats, scale);
            let f0 = g.slice_chan(feats, 0, NUM_CHANNELS);
            let f1 = g.slice_chan(feats, NUM_CHANNELS, NUM_CHANNELS);
            let (c0, c1) = self.unet.forward_frozen(&mut g, f0, f1);
            // Predictions live in normalized label space; rescale to raw
            // utilization so the congestion threshold has physical units.
            let label_scale = self.normalization.label_scale.max(1e-9);
            let c0 = g.mul_scalar(c0, label_scale);
            let c1 = g.mul_scalar(c1, label_scale);
            let l_cong = congestion_loss(&mut g, c0, c1, self.cfg.congestion_threshold);
            let l_cut = self.cutsize.loss(&mut g, z);
            let dens = g.custom(
                Rc::clone(&density_op) as Rc<dyn dco_tensor::CustomOp>,
                &[x, y, z],
            );
            let l_ovlp = overlap_loss(&mut g, dens, self.cfg.target_density);

            let wa = g.mul_scalar(l_disp, self.cfg.alpha);
            let wb = g.mul_scalar(l_ovlp, self.cfg.beta);
            let wc = g.mul_scalar(l_cut, self.cfg.gamma);
            let wd = g.mul_scalar(l_cong, self.cfg.delta);
            let s1 = g.add(wa, wb);
            let s2 = g.add(wc, wd);
            let total = g.add(s1, s2);

            if self.cfg.validate_graph && iter == 0 {
                let diags = g.validate(total);
                let errors: Vec<String> = diags
                    .iter()
                    .filter(|d| d.severity == dco_tensor::Severity::Error)
                    .map(std::string::ToString::to_string)
                    .collect();
                assert!(
                    errors.is_empty(),
                    "DCO graph failed validation:\n{}",
                    errors.join("\n")
                );
                diagnostics = diags;
            }

            let mut breakdown = LossBreakdown {
                total: g.value(total).data()[0],
                displacement: g.value(l_disp).data()[0],
                overlap: g.value(l_ovlp).data()[0],
                cutsize: g.value(l_cut).data()[0],
                congestion: g.value(l_cong).data()[0],
            };
            if self.cfg.inject_nan_loss_at == Some(iter) {
                breakdown.total = f32::NAN;
            }

            g.backward(total);
            let store = self.spreader.store_mut();
            store.apply_grads(&g);

            let finite = breakdown.total.is_finite() && store.grad_norm().is_finite();
            if !finite {
                divergence_events += 1;
                dco_obs::counter_add("dco.rollbacks", 1);
                store.restore(&last_good);
                lr *= self.cfg.lr_backoff;
                opt = Adam::new(lr);
                calm_iters = 0;
                if divergence_events > self.cfg.max_divergence_retries {
                    degraded = true;
                    break;
                }
                continue;
            }

            // Parameter values at this point are pre-step (apply_grads only
            // accumulates gradients), i.e. the ones that produced this
            // finite loss — snapshot them before the optimizer mutates.
            last_good = store.snapshot();
            store.clip_grad_norm(5.0);
            opt.step(store);

            if let Some(prev) = history.last() {
                let rel = (prev.total - breakdown.total).abs() / prev.total.abs().max(1e-9);
                if rel < self.cfg.convergence_tol {
                    calm_iters += 1;
                } else {
                    calm_iters = 0;
                }
            }
            dco_obs::series_push("dco.loss", f64::from(breakdown.total));
            history.push(breakdown);
            if calm_iters >= 3 {
                converged = true;
                break;
            }
        }

        // Final decode with the trained spreader -> hard placement.
        let mut g = Graph::new();
        let (x, y, z, _, _) = self.decode(&mut g, &x0, &y0, &z_bias, &movable, max_disp);
        let xs = g.value(x).data().to_vec();
        let ys = g.value(y).data().to_vec();
        let zs = g.value(z).data().to_vec();
        let mut placement = initial.clone();
        let mut soft_z = Vec::with_capacity(n);
        for id in self.netlist.cell_ids() {
            let i = id.index();
            let cell = self.netlist.cell(id);
            if cell.movable() {
                // Keep the cell inside the die without exceeding the
                // displacement budget: when the initial position already
                // overhangs the die edge the budget wins (the overhang is a
                // pre-existing condition legalization resolves later).
                let md = f64::from(max_disp);
                let (ix, iy) = (initial.x(id), initial.y(id));
                let lo_x = (ix - md).max(0.0);
                let hi_x = (ix + md).min((die.width - cell.width).max(0.0)).max(lo_x);
                let lo_y = (iy - md).max(0.0);
                let hi_y = (iy + md).min((die.height - cell.height).max(0.0)).max(lo_y);
                let nx = (xs[i] as f64).clamp(lo_x, hi_x);
                let ny = (ys[i] as f64).clamp(lo_y, hi_y);
                placement.set_xy(id, nx, ny);
                if self.cfg.enable_z {
                    placement.set_tier(id, Tier::from_z(zs[i] as f64));
                }
                soft_z.push(zs[i] as f64);
            } else {
                soft_z.push(initial.tier(id).as_z());
            }
        }
        let iterations = history.len();
        dco_obs::gauge_set("dco.iterations", iterations as f64);
        DcoResult {
            placement,
            soft_z,
            history,
            iterations,
            converged,
            diagnostics,
            divergence_events,
            degraded,
        }
    }

    /// Decode the spreader into `(x, y, z, dx, dy)` graph vars: tanh-bounded
    /// displacements of movable cells from `(x0, y0)` and the sigmoid tier
    /// probability around `z_bias`.
    fn decode(
        &mut self,
        g: &mut Graph,
        x0: &Tensor,
        y0: &Tensor,
        z_bias: &Tensor,
        movable: &Tensor,
        max_disp: f32,
    ) -> (Var, Var, Var, Var, Var) {
        let (raw_dx, raw_dy, raw_z) = self.spreader.raw(g);
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
        (x, y, z, dx, dy)
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

#[cfg(test)]
mod tests {
    use super::*;
    use dco_gnn::{build_node_features, Gcn, GcnConfig};
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_unet::{Normalization, SiameseUNet, UNetConfig};

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

    fn optimizer<'a>(
        design: &'a Design,
        unet: &'a SiameseUNet,
        norm: &'a Normalization,
        cfg: DcoConfig,
    ) -> DcoOptimizer<'a> {
        let timing = dco_timing::Sta::new(design).analyze(&design.placement, None, None);
        let features = build_node_features(design, &design.placement, &timing);
        DcoOptimizer::new(
            design,
            unet,
            norm,
            features,
            Gcn::new(GcnConfig::default(), 5),
            cfg,
        )
    }

    /// [`optimizer`] and the per-cell baseline over the same inputs.
    fn both_spreaders<'a>(
        design: &'a Design,
        unet: &'a SiameseUNet,
        norm: &'a Normalization,
        cfg: DcoConfig,
    ) -> [DcoOptimizer<'a>; 2] {
        [
            optimizer(design, unet, norm, cfg.clone()),
            DcoOptimizer::direct(design, unet, norm, cfg, 5),
        ]
    }

    #[test]
    fn dco_runs_and_tracks_losses() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 4,
            ..DcoConfig::default()
        };
        let mut dco = optimizer(&design, &unet, &norm, cfg);
        let result = dco.run(&design.placement);
        assert_eq!(result.history.len(), result.iterations);
        assert!(result.iterations >= 1);
        for lb in &result.history {
            assert!(lb.total.is_finite());
            assert!(lb.congestion >= 0.0);
            assert!(lb.overlap >= 0.0);
        }
        assert_eq!(result.soft_z.len(), design.netlist.num_cells());
    }

    #[test]
    fn fixed_cells_never_move() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 3,
            ..DcoConfig::default()
        };
        for mut dco in both_spreaders(&design, &unet, &norm, cfg) {
            let result = dco.run(&design.placement);
            for id in design.netlist.cell_ids() {
                if !design.netlist.cell(id).movable() {
                    assert_eq!(result.placement.x(id), design.placement.x(id));
                    assert_eq!(result.placement.tier(id), design.placement.tier(id));
                }
            }
        }
    }

    #[test]
    fn displacement_stays_bounded() {
        let (design, unet, norm) = setup();
        let frac = 0.1;
        let cfg = DcoConfig {
            max_iter: 5,
            max_displacement_frac: frac,
            ..DcoConfig::default()
        };
        let max_d = design.floorplan.die.width.min(design.floorplan.die.height) * frac;
        for mut dco in both_spreaders(&design, &unet, &norm, cfg) {
            let result = dco.run(&design.placement);
            for id in design.netlist.cell_ids() {
                let dx = (result.placement.x(id) - design.placement.x(id)).abs();
                let dy = (result.placement.y(id) - design.placement.y(id)).abs();
                assert!(dx <= max_d + 1e-3, "dx {dx} > {max_d}");
                assert!(dy <= max_d + 1e-3, "dy {dy} > {max_d}");
            }
        }
    }

    #[test]
    fn disabling_z_keeps_tiers() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 3,
            enable_z: false,
            ..DcoConfig::default()
        };
        for mut dco in both_spreaders(&design, &unet, &norm, cfg) {
            let result = dco.run(&design.placement);
            for id in design.netlist.cell_ids() {
                assert_eq!(result.placement.tier(id), design.placement.tier(id));
            }
        }
    }

    #[test]
    fn validate_flag_checks_the_training_tape() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 2,
            validate_graph: true,
            ..DcoConfig::default()
        };
        let mut dco = optimizer(&design, &unet, &norm, cfg);
        // A well-formed DCO tape must pass validation (no panic) and any
        // collected diagnostics are warnings, never errors.
        let result = dco.run(&design.placement);
        for d in &result.diagnostics {
            assert_eq!(
                d.severity,
                dco_tensor::Severity::Warning,
                "unexpected error: {d}"
            );
        }
        // With the flag off, nothing is collected.
        let cfg = DcoConfig {
            max_iter: 1,
            ..DcoConfig::default()
        };
        let result = optimizer(&design, &unet, &norm, cfg).run(&design.placement);
        assert!(result.diagnostics.is_empty());
    }

    #[test]
    fn divergence_guard_recovers_from_injected_nan() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 5,
            inject_nan_loss_at: Some(1),
            ..DcoConfig::default()
        };
        for mut dco in both_spreaders(&design, &unet, &norm, cfg) {
            let result = dco.run(&design.placement);
            assert_eq!(result.divergence_events, 1);
            assert!(!result.degraded);
            // The poisoned attempt is rolled back and excluded from history.
            assert_eq!(result.history.len(), result.iterations);
            assert_eq!(result.iterations, 4);
            for lb in &result.history {
                assert!(lb.total.is_finite());
            }
        }
    }

    #[test]
    fn divergence_guard_degrades_when_retries_exhausted() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 5,
            max_divergence_retries: 0,
            inject_nan_loss_at: Some(0),
            ..DcoConfig::default()
        };
        let mut dco = optimizer(&design, &unet, &norm, cfg);
        let result = dco.run(&design.placement);
        assert!(result.degraded);
        assert_eq!(result.divergence_events, 1);
        // Best-so-far: the rolled-back (initial) parameters still decode to
        // a usable, budget-respecting placement.
        assert_eq!(result.soft_z.len(), design.netlist.num_cells());
        for id in design.netlist.cell_ids() {
            assert!(result.placement.x(id).is_finite());
            assert!(result.placement.y(id).is_finite());
        }
    }

    #[test]
    fn dco_is_deterministic() {
        let (design, unet, norm) = setup();
        let cfg = DcoConfig {
            max_iter: 3,
            ..DcoConfig::default()
        };
        let runs = || both_spreaders(&design, &unet, &norm, cfg.clone());
        for (mut a, mut b) in runs().into_iter().zip(runs()) {
            let a = a.run(&design.placement);
            let b = b.run(&design.placement);
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.history.len(), b.history.len());
        }
    }
}
