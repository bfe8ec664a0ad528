//! The differentiable soft feature-map rasterizer.
//!
//! Forward: cell positions (x, y) and tier probabilities z are rendered into
//! the 14 feature channels (7 per die) the Siamese UNet consumes, using the
//! probabilistic weighting of Sec. IV-A: a net's 2D contribution lands on
//! the top die with weight `Π z_p`, on the bottom with `Π (1 − z_p)`, and
//! its 3D contribution with the remainder.
//!
//! Backward: rasterization is not differentiable at grid boundaries, so —
//! exactly like the paper's custom PyTorch backward — we hand-derive the
//! gradients. RUDY gradients follow Eq. 6 (bbox-edge sensitivities routed
//! to the cells holding the extreme pins via the Kronecker deltas); density
//! gradients use the exact rect-overlap differential; tier-probability
//! gradients differentiate the `Π z` / `Π (1 − z)` weights.

use dco_features::rudy::{edge_grad, rudy_tile, Bbox, RudyFootprint};
use dco_features::{FeatureExtractor, SoftAssignment, NUM_CHANNELS, RUDY_3D_SCALE};
use dco_netlist::{CellClass, GcellGrid, Netlist};
use dco_tensor::{CustomOp, Tensor};
use std::rc::Rc;

/// Channel indices within one die's 7-channel block.
const CH_CELL_DENSITY: usize = 0;
const CH_PIN_DENSITY: usize = 1;
const CH_RUDY_2D: usize = 2;
const CH_RUDY_3D: usize = 3;
const CH_PIN_RUDY_2D: usize = 4;
const CH_PIN_RUDY_3D: usize = 5;

/// Differentiable rasterizer op: inputs `[x[n], y[n], z[n]]`, output
/// `[1, 14, H, W]` (channels 0..7 = bottom die, 7..14 = top die).
#[derive(Debug)]
pub struct SoftRasterizer {
    netlist: Rc<Netlist>,
    grid: GcellGrid,
}

impl SoftRasterizer {
    /// A rasterizer rendering onto `grid` (which should match the UNet's
    /// input size: `grid.nx == W`, `grid.ny == H`).
    pub fn new(netlist: Rc<Netlist>, grid: GcellGrid) -> Self {
        Self { netlist, grid }
    }

    /// The rendering grid.
    pub fn grid(&self) -> &GcellGrid {
        &self.grid
    }
}

impl CustomOp for SoftRasterizer {
    fn name(&self) -> &str {
        "soft_rasterizer"
    }

    fn forward(&self, inputs: &[&Tensor]) -> Tensor {
        let &[x, y, z] = inputs else {
            panic!("rasterizer takes (x, y, z), got {} inputs", inputs.len());
        };
        let n = self.netlist.num_cells();
        assert_eq!(x.len(), n, "x length mismatch");
        assert_eq!(y.len(), n, "y length mismatch");
        assert_eq!(z.len(), n, "z length mismatch");
        let soft = SoftAssignment {
            x: x.data().iter().map(|&v| v as f64).collect(),
            y: y.data().iter().map(|&v| v as f64).collect(),
            z: z.data()
                .iter()
                .map(|&v| (v as f64).clamp(0.0, 1.0))
                .collect(),
        };
        let fx = FeatureExtractor::new(self.grid);
        let [bottom, top] = fx.extract_soft(&self.netlist, &soft);
        let mut data = Vec::with_capacity(2 * NUM_CHANNELS * self.grid.len());
        data.extend(bottom.stacked());
        data.extend(top.stacked());
        Tensor::from_vec(data, &[1, 2 * NUM_CHANNELS, self.grid.ny, self.grid.nx])
    }

    fn backward(
        &self,
        inputs: &[&Tensor],
        _output: &Tensor,
        grad_output: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let &[x, y, z] = inputs else {
            panic!("rasterizer takes (x, y, z), got {} inputs", inputs.len());
        };
        let grads = self.input_grads(x, y, z, grad_output);
        debug_assert!(
            grads.iter().flatten().all(|v| v.is_finite()),
            "Eq. 6 backward produced a non-finite gradient"
        );
        grads
            .iter()
            .zip([x, y, z])
            .map(|(g, t)| {
                Some(Tensor::from_vec(
                    g.iter().map(|&v| v as f32).collect(),
                    t.shape(),
                ))
            })
            .collect()
    }
}

impl SoftRasterizer {
    /// The gradients w.r.t. `(x, y, z)` in f64, before the cast to the
    /// op's f32 outputs.
    fn input_grads(
        &self,
        x: &Tensor,
        y: &Tensor,
        z: &Tensor,
        grad_output: &Tensor,
    ) -> [Vec<f64>; 3] {
        let n = self.netlist.num_cells();
        let g = self.grid;
        let plane = g.len();
        let inv_area = 1.0 / g.cell_area();
        let min_size = g.rudy_min_size();
        let netlist = &self.netlist;

        let mut gx = vec![0.0f64; n];
        let mut gy = vec![0.0f64; n];
        let mut gz = vec![0.0f64; n];

        // grad_output channel accessor: die in {0 bottom, 1 top}.
        let go = |die: usize, ch: usize, col: usize, row: usize| -> f64 {
            grad_output.data()[(die * NUM_CHANNELS + ch) * plane + row * g.nx + col] as f64
        };

        let zs: Vec<f64> = z
            .data()
            .iter()
            .map(|&v| (v as f64).clamp(0.0, 1.0))
            .collect();

        // ---- cell density + pin density ------------------------------------
        for id in netlist.cell_ids() {
            let i = id.index();
            let cell = netlist.cell(id);
            if cell.class == CellClass::Macro || cell.class == CellClass::Io {
                continue;
            }
            let (x0, y0) = (x.data()[i] as f64, y.data()[i] as f64);
            let (x1, y1) = (x0 + cell.width, y0 + cell.height);
            let zt = zs[i];
            // Exact rect-overlap differential per covered tile.
            let c0 = g.col(x0);
            let c1 = g.col(x1);
            let r0 = g.row(y0);
            let r1 = g.row(y1);
            debug_assert!(
                c0 <= c1 && r0 <= r1 && c1 < g.nx && r1 < g.ny,
                "cell {i} covers an inverted/out-of-grid tile range ({c0}..={c1}, {r0}..={r1})"
            );
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let (tx0, ty0, tx1, ty1) = g.bounds(col, row);
                    let ow = (x1.min(tx1) - x0.max(tx0)).max(0.0);
                    let oh = (y1.min(ty1) - y0.max(ty0)).max(0.0);
                    if ow <= 0.0 || oh <= 0.0 {
                        continue;
                    }
                    let gt = go(1, CH_CELL_DENSITY, col, row);
                    let gb = go(0, CH_CELL_DENSITY, col, row);
                    // d(ow)/dx0: left edge active (-1 if x0 inside tile),
                    // right edge active (+1 if x1 inside tile). Both move
                    // together with the cell origin.
                    let dow = f64::from(u8::from(x1 < tx1)) - f64::from(u8::from(x0 > tx0));
                    let doh = f64::from(u8::from(y1 < ty1)) - f64::from(u8::from(y0 > ty0));
                    let common = gt * zt + gb * (1.0 - zt);
                    gx[i] += common * dow * oh * inv_area;
                    gy[i] += common * ow * doh * inv_area;
                    gz[i] += (gt - gb) * ow * oh * inv_area;
                }
            }
            // pin density: z gradient only (position gradient is a Dirac).
            for &pid in netlist.cell_pins(id) {
                let pin = netlist.pin(pid);
                let (px, py) = (x0 + pin.offset.0, y0 + pin.offset.1);
                let (col, row) = (g.col(px), g.row(py));
                let gt = go(1, CH_PIN_DENSITY, col, row);
                let gb = go(0, CH_PIN_DENSITY, col, row);
                gz[i] += (gt - gb) * inv_area;
            }
        }

        // ---- RUDY / PinRUDY ---------------------------------------------------
        // One footprint and its Eq. 6 factors per net; the buffers live for
        // the whole pass.
        let mut fp = RudyFootprint::new(g);
        let mut edge_cols = Vec::new();
        let mut edge_rows = Vec::new();
        let mut pts = Vec::new();
        let gd = grad_output.data();
        for net_id in netlist.net_ids() {
            let net = netlist.net(net_id);
            if net.is_clock {
                continue;
            }
            // pin positions and extreme-pin owners
            pts.clear();
            let mut p_top = 1.0f64;
            let mut p_bot = 1.0f64;
            for &pid in &net.pins {
                let pin = netlist.pin(pid);
                let i = pin.cell.index();
                pts.push((
                    x.data()[i] as f64 + pin.offset.0,
                    y.data()[i] as f64 + pin.offset.1,
                    i,
                ));
                p_top *= zs[i];
                p_bot *= 1.0 - zs[i];
            }
            let Some(bbox) = Bbox::of_points(pts.iter().map(|&(px, py, _)| (px, py))) else {
                continue;
            };
            debug_assert!(
                (0.0..=1.0).contains(&p_top) && (0.0..=1.0).contains(&p_bot),
                "tier probabilities escaped [0, 1]: p_top = {p_top}, p_bot = {p_bot}"
            );
            // Kronecker deltas of Eq. 6: which cells own the extreme pins.
            let arg = |f: &dyn Fn(&(f64, f64, usize)) -> f64, max: bool| -> usize {
                let mut best = 0usize;
                for (k, p) in pts.iter().enumerate() {
                    let better = if max {
                        f(p) > f(&pts[best])
                    } else {
                        f(p) < f(&pts[best])
                    };
                    if better {
                        best = k;
                    }
                }
                pts[best].2
            };
            let i_xl = arg(&|p| p.0, false);
            let i_xh = arg(&|p| p.0, true);
            let i_yl = arg(&|p| p.1, false);
            let i_yh = arg(&|p| p.1, true);

            let w = net.weight;
            let w_top2d = p_top * w;
            let w_bot2d = p_bot * w;
            let w_3d = (1.0 - p_top - p_bot).max(0.0) * w;
            let w3_scaled = w_3d * RUDY_3D_SCALE as f64;

            // Per-channel upstream sums for the z gradient. Each is the
            // partial derivative of the loss w.r.t. the corresponding net
            // weight (w_top2d / w_bot2d / w_3d).
            let mut sum_top2d = 0.0f64; // Σ grad * d(channel)/d(w_top2d)
            let mut sum_bot2d = 0.0f64;
            let mut sum_3d = 0.0f64;
            // position gradient accumulators per edge
            let mut e_xl = 0.0f64;
            let mut e_xh = 0.0f64;
            let mut e_yl = 0.0f64;
            let mut e_yh = 0.0f64;
            // Covered tiles in row-major order: the RUDY value and the Eq. 6
            // edge gradients come from per-column and per-row factors, and
            // the four RUDY gradient channels are read a row slice at a time.
            fp.fill(&bbox);
            fp.edge_factors(&mut edge_cols, &mut edge_rows);
            let (col0, row0) = fp.origin();
            let fow = fp.fow();
            let ncols = fow.len();
            let edge_cols = &edge_cols[..ncols];
            // hot-path: rasterizer-rudy-backward
            for ((j, &oh), er) in fp.oh().iter().enumerate().zip(&edge_rows) {
                let start = (row0 + j) * g.nx + col0;
                let chan = |die: usize, ch: usize| {
                    let at = (die * NUM_CHANNELS + ch) * plane + start;
                    &gd[at..at + ncols]
                };
                let (t2, b2) = (chan(1, CH_RUDY_2D), chan(0, CH_RUDY_2D));
                let (t3, b3) = (chan(1, CH_RUDY_3D), chan(0, CH_RUDY_3D));
                for k in 0..ncols {
                    let tile = rudy_tile(fow[k], oh, inv_area);
                    let g_t2 = t2[k] as f64;
                    let g_b2 = b2[k] as f64;
                    let g_t3 = t3[k] as f64;
                    let g_b3 = b3[k] as f64;
                    sum_top2d += g_t2 * tile;
                    sum_bot2d += g_b2 * tile;
                    // rudy_3d channel = w_3d * RUDY_3D_SCALE * tile
                    sum_3d += (g_t3 + g_b3) * tile * RUDY_3D_SCALE as f64;
                    // Eq. 6: edge gradients weighted by the channel weights.
                    let eg = edge_grad(&edge_cols[k], er, oh, inv_area);
                    let up = w_top2d * g_t2 + w_bot2d * g_b2 + w3_scaled * (g_t3 + g_b3);
                    e_xl += up * eg.d_xl;
                    e_xh += up * eg.d_xh;
                    e_yl += up * eg.d_yl;
                    e_yh += up * eg.d_yh;
                }
            }
            // hot-path: end
            // PinRUDY: the factor (1/w + 1/h) also depends on the extreme
            // pins; its tile value sits at each pin's location.
            let factor = fp.factor();
            let wd = bbox.width(min_size);
            let hd = bbox.height(min_size);
            let dfac_dxh = if bbox.xh - bbox.xl >= min_size {
                -1.0 / (wd * wd)
            } else {
                0.0
            };
            let dfac_dyh = if bbox.yh - bbox.yl >= min_size {
                -1.0 / (hd * hd)
            } else {
                0.0
            };
            let mut pin_up = 0.0f64; // Σ over pins of upstream grad at the pin tile
            for &(px, py, ci) in &pts {
                let (col, row) = (g.col(px), g.row(py));
                let zt = zs[ci];
                let g_t2 = go(1, CH_PIN_RUDY_2D, col, row);
                let g_b2 = go(0, CH_PIN_RUDY_2D, col, row);
                let g_t3 = go(1, CH_PIN_RUDY_3D, col, row);
                let g_b3 = go(0, CH_PIN_RUDY_3D, col, row);
                pin_up += w_top2d * g_t2 + w_bot2d * g_b2 + w_3d * (zt * g_t3 + (1.0 - zt) * g_b3);
                // z gradients from the channel weights at this pin's tile:
                // pin_rudy_2d channel = w_{top,bot}2d * factor
                sum_top2d += g_t2 * factor;
                sum_bot2d += g_b2 * factor;
                // pin_rudy_3d channel = w_3d * z_pin * factor (top) and
                // w_3d * (1 - z_pin) * factor (bottom). Direct z_pin term:
                gz[ci] += w_3d * factor * (g_t3 - g_b3);
                // ... and the w_3d product term:
                sum_3d += (zt * g_t3 + (1.0 - zt) * g_b3) * factor;
            }
            e_xh += pin_up * dfac_dxh;
            e_xl -= pin_up * dfac_dxh;
            e_yh += pin_up * dfac_dyh;
            e_yl -= pin_up * dfac_dyh;

            // route edge gradients to the extreme-pin cells (δ_ih − δ_il)
            gx[i_xl] += e_xl;
            gx[i_xh] += e_xh;
            gy[i_yl] += e_yl;
            gy[i_yh] += e_yh;

            // z gradients through the product weights:
            // d(Πz)/dz_p = Πz / z_p (stable form below), etc.
            for &(_, _, ci) in &pts {
                let d_top = prod_excluding(&pts, &zs, ci, true);
                let d_bot = prod_excluding(&pts, &zs, ci, false);
                // w_top2d = w Π z: d/dz_p = w * Π_{q≠p} z_q
                // w_bot2d = w Π (1-z): d/dz_p = -w * Π_{q≠p} (1-z_q)
                // w_3d = w - w_top2d - w_bot2d
                let dw_top = w * d_top;
                let dw_bot = -w * d_bot;
                let dw_3d = -(dw_top + dw_bot);
                gz[ci] += dw_top * sum_top2d + dw_bot * sum_bot2d + dw_3d * sum_3d;
            }
        }

        [gx, gy, gz]
    }
}

/// `Π_{q != p} z_q` (or `Π (1 - z_q)`), recomputed stably without division.
fn prod_excluding(pts: &[(f64, f64, usize)], zs: &[f64], exclude: usize, top: bool) -> f64 {
    let mut prod = 1.0;
    let mut skipped = false;
    for &(_, _, ci) in pts {
        if ci == exclude && !skipped {
            skipped = true;
            continue;
        }
        prod *= if top { zs[ci] } else { 1.0 - zs[ci] };
    }
    prod
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use dco_features::rudy::{accumulate_pin_rudy, accumulate_rudy, rudy_edge_grad};
    use dco_features::DieFeatures;
    use dco_netlist::{CellClass, NetlistBuilder, PinDirection};
    use dco_netlist::{Die, GcellGrid};

    /// The per-tile Eq. 6 backward as it stood before the separable
    /// rewrite, kept verbatim as the bitwise reference (up to the cast of
    /// its f64 gradients to the op's f32 outputs).
    fn reference_input_grads(
        op: &SoftRasterizer,
        x: &Tensor,
        y: &Tensor,
        z: &Tensor,
        grad_output: &Tensor,
    ) -> [Vec<f64>; 3] {
        let n = op.netlist.num_cells();
        let g = op.grid;
        let plane = g.len();
        let inv_area = 1.0 / g.cell_area();
        let min_size = g.dx.min(g.dy) * 0.5;
        let netlist = &op.netlist;

        let mut gx = vec![0.0f64; n];
        let mut gy = vec![0.0f64; n];
        let mut gz = vec![0.0f64; n];

        // grad_output channel accessor: die in {0 bottom, 1 top}.
        let go = |die: usize, ch: usize, col: usize, row: usize| -> f64 {
            grad_output.data()[(die * NUM_CHANNELS + ch) * plane + row * g.nx + col] as f64
        };

        let zs: Vec<f64> = z
            .data()
            .iter()
            .map(|&v| (v as f64).clamp(0.0, 1.0))
            .collect();

        // ---- cell density + pin density ------------------------------------
        for id in netlist.cell_ids() {
            let i = id.index();
            let cell = netlist.cell(id);
            if cell.class == CellClass::Macro || cell.class == CellClass::Io {
                continue;
            }
            let (x0, y0) = (x.data()[i] as f64, y.data()[i] as f64);
            let (x1, y1) = (x0 + cell.width, y0 + cell.height);
            let zt = zs[i];
            // Exact rect-overlap differential per covered tile.
            let c0 = g.col(x0);
            let c1 = g.col(x1);
            let r0 = g.row(y0);
            let r1 = g.row(y1);
            debug_assert!(
                c0 <= c1 && r0 <= r1 && c1 < g.nx && r1 < g.ny,
                "cell {i} covers an inverted/out-of-grid tile range ({c0}..={c1}, {r0}..={r1})"
            );
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let (tx0, ty0, tx1, ty1) = g.bounds(col, row);
                    let ow = (x1.min(tx1) - x0.max(tx0)).max(0.0);
                    let oh = (y1.min(ty1) - y0.max(ty0)).max(0.0);
                    if ow <= 0.0 || oh <= 0.0 {
                        continue;
                    }
                    let gt = go(1, CH_CELL_DENSITY, col, row);
                    let gb = go(0, CH_CELL_DENSITY, col, row);
                    // d(ow)/dx0: left edge active (-1 if x0 inside tile),
                    // right edge active (+1 if x1 inside tile). Both move
                    // together with the cell origin.
                    let dow = f64::from(u8::from(x1 < tx1)) - f64::from(u8::from(x0 > tx0));
                    let doh = f64::from(u8::from(y1 < ty1)) - f64::from(u8::from(y0 > ty0));
                    let common = gt * zt + gb * (1.0 - zt);
                    gx[i] += common * dow * oh * inv_area;
                    gy[i] += common * ow * doh * inv_area;
                    gz[i] += (gt - gb) * ow * oh * inv_area;
                }
            }
            // pin density: z gradient only (position gradient is a Dirac).
            for &pid in netlist.cell_pins(id) {
                let pin = netlist.pin(pid);
                let (px, py) = (x0 + pin.offset.0, y0 + pin.offset.1);
                let (col, row) = (g.col(px), g.row(py));
                let gt = go(1, CH_PIN_DENSITY, col, row);
                let gb = go(0, CH_PIN_DENSITY, col, row);
                gz[i] += (gt - gb) * inv_area;
            }
        }

        // ---- RUDY / PinRUDY ---------------------------------------------------
        for net_id in netlist.net_ids() {
            let net = netlist.net(net_id);
            if net.is_clock {
                continue;
            }
            // pin positions and extreme-pin owners
            let mut pts = Vec::with_capacity(net.degree());
            let mut p_top = 1.0f64;
            let mut p_bot = 1.0f64;
            for &pid in &net.pins {
                let pin = netlist.pin(pid);
                let i = pin.cell.index();
                pts.push((
                    x.data()[i] as f64 + pin.offset.0,
                    y.data()[i] as f64 + pin.offset.1,
                    i,
                ));
                p_top *= zs[i];
                p_bot *= 1.0 - zs[i];
            }
            let Some(bbox) = Bbox::of_points(pts.iter().map(|&(px, py, _)| (px, py))) else {
                continue;
            };
            debug_assert!(
                (0.0..=1.0).contains(&p_top) && (0.0..=1.0).contains(&p_bot),
                "tier probabilities escaped [0, 1]: p_top = {p_top}, p_bot = {p_bot}"
            );
            // Kronecker deltas of Eq. 6: which cells own the extreme pins.
            let arg = |f: &dyn Fn(&(f64, f64, usize)) -> f64, max: bool| -> usize {
                let mut best = 0usize;
                for (k, p) in pts.iter().enumerate() {
                    let better = if max {
                        f(p) > f(&pts[best])
                    } else {
                        f(p) < f(&pts[best])
                    };
                    if better {
                        best = k;
                    }
                }
                pts[best].2
            };
            let i_xl = arg(&|p| p.0, false);
            let i_xh = arg(&|p| p.0, true);
            let i_yl = arg(&|p| p.1, false);
            let i_yh = arg(&|p| p.1, true);

            let w = net.weight;
            let w_top2d = p_top * w;
            let w_bot2d = p_bot * w;
            let w_3d = (1.0 - p_top - p_bot).max(0.0) * w;
            let w3_scaled = w_3d * RUDY_3D_SCALE as f64;

            // Accumulated upstream gradient for each weighting channel:
            // sum over covered tiles of grad_out * dRUDY/d(edge).
            let (xl, xh) = if bbox.xh > bbox.xl {
                (bbox.xl, bbox.xh)
            } else {
                (bbox.xl - min_size / 2.0, bbox.xl + min_size / 2.0)
            };
            let (yl, yh) = if bbox.yh > bbox.yl {
                (bbox.yl, bbox.yh)
            } else {
                (bbox.yl - min_size / 2.0, bbox.yl + min_size / 2.0)
            };
            let c0 = g.col(xl);
            let c1 = g.col(xh);
            let r0 = g.row(yl);
            let r1 = g.row(yh);
            // Per-channel upstream sums for the z gradient. Each is the
            // partial derivative of the loss w.r.t. the corresponding net
            // weight (w_top2d / w_bot2d / w_3d).
            let mut sum_top2d = 0.0f64; // Σ grad * d(channel)/d(w_top2d)
            let mut sum_bot2d = 0.0f64;
            let mut sum_3d = 0.0f64;
            // position gradient accumulators per edge
            let mut e_xl = 0.0f64;
            let mut e_xh = 0.0f64;
            let mut e_yl = 0.0f64;
            let mut e_yh = 0.0f64;
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let tile = g.bounds(col, row);
                    let ow = (xh.min(tile.2) - xl.max(tile.0)).max(0.0);
                    let oh = (yh.min(tile.3) - yl.max(tile.1)).max(0.0);
                    if ow <= 0.0 || oh <= 0.0 {
                        continue;
                    }
                    let rudy_tile = bbox.rudy_factor(min_size) * ow * oh * inv_area;
                    let g_t2 = go(1, CH_RUDY_2D, col, row);
                    let g_b2 = go(0, CH_RUDY_2D, col, row);
                    let g_t3 = go(1, CH_RUDY_3D, col, row);
                    let g_b3 = go(0, CH_RUDY_3D, col, row);
                    sum_top2d += g_t2 * rudy_tile;
                    sum_bot2d += g_b2 * rudy_tile;
                    // rudy_3d channel = w_3d * RUDY_3D_SCALE * rudy_tile
                    sum_3d += (g_t3 + g_b3) * rudy_tile * RUDY_3D_SCALE as f64;
                    // Eq. 6: edge gradients weighted by the channel weights.
                    let eg = rudy_edge_grad(&bbox, tile, g.cell_area(), min_size);
                    let up = w_top2d * g_t2 + w_bot2d * g_b2 + w3_scaled * (g_t3 + g_b3);
                    e_xl += up * eg.d_xl;
                    e_xh += up * eg.d_xh;
                    e_yl += up * eg.d_yl;
                    e_yh += up * eg.d_yh;
                }
            }
            // PinRUDY: the factor (1/w + 1/h) also depends on the extreme
            // pins; its tile value sits at each pin's location.
            let factor = bbox.rudy_factor(min_size);
            let wd = bbox.width(min_size);
            let hd = bbox.height(min_size);
            let dfac_dxh = if bbox.xh - bbox.xl >= min_size {
                -1.0 / (wd * wd)
            } else {
                0.0
            };
            let dfac_dyh = if bbox.yh - bbox.yl >= min_size {
                -1.0 / (hd * hd)
            } else {
                0.0
            };
            let mut pin_up = 0.0f64; // Σ over pins of upstream grad at the pin tile
            for &(px, py, ci) in &pts {
                let (col, row) = (g.col(px), g.row(py));
                let zt = zs[ci];
                let g_t2 = go(1, CH_PIN_RUDY_2D, col, row);
                let g_b2 = go(0, CH_PIN_RUDY_2D, col, row);
                let g_t3 = go(1, CH_PIN_RUDY_3D, col, row);
                let g_b3 = go(0, CH_PIN_RUDY_3D, col, row);
                pin_up += w_top2d * g_t2 + w_bot2d * g_b2 + w_3d * (zt * g_t3 + (1.0 - zt) * g_b3);
                // z gradients from the channel weights at this pin's tile:
                // pin_rudy_2d channel = w_{top,bot}2d * factor
                sum_top2d += g_t2 * factor;
                sum_bot2d += g_b2 * factor;
                // pin_rudy_3d channel = w_3d * z_pin * factor (top) and
                // w_3d * (1 - z_pin) * factor (bottom). Direct z_pin term:
                gz[ci] += w_3d * factor * (g_t3 - g_b3);
                // ... and the w_3d product term:
                sum_3d += (zt * g_t3 + (1.0 - zt) * g_b3) * factor;
            }
            e_xh += pin_up * dfac_dxh;
            e_xl -= pin_up * dfac_dxh;
            e_yh += pin_up * dfac_dyh;
            e_yl -= pin_up * dfac_dyh;

            // route edge gradients to the extreme-pin cells (δ_ih − δ_il)
            gx[i_xl] += e_xl;
            gx[i_xh] += e_xh;
            gy[i_yl] += e_yl;
            gy[i_yh] += e_yh;

            // z gradients through the product weights:
            // d(Πz)/dz_p = Πz / z_p (stable form below), etc.
            for &(_, _, ci) in &pts {
                let d_top = prod_excluding(&pts, &zs, ci, true);
                let d_bot = prod_excluding(&pts, &zs, ci, false);
                // w_top2d = w Π z: d/dz_p = w * Π_{q≠p} z_q
                // w_bot2d = w Π (1-z): d/dz_p = -w * Π_{q≠p} (1-z_q)
                // w_3d = w - w_top2d - w_bot2d
                let dw_top = w * d_top;
                let dw_bot = -w * d_bot;
                let dw_3d = -(dw_top + dw_bot);
                gz[ci] += dw_top * sum_top2d + dw_bot * sum_bot2d + dw_3d * sum_3d;
            }
        }

        [gx, gy, gz]
    }

    /// The RUDY and PinRUDY channels of both dies from the per-tile
    /// definitions, net by net as the extraction accumulates them.
    fn reference_demand(nl: &Netlist, g: &GcellGrid, soft: &SoftAssignment) -> [DieFeatures; 2] {
        let mut bottom = DieFeatures::zeros(g.nx, g.ny);
        let mut top = DieFeatures::zeros(g.nx, g.ny);
        for net_id in nl.net_ids() {
            let net = nl.net(net_id);
            if net.is_clock {
                continue;
            }
            let mut pts = Vec::with_capacity(net.degree());
            let mut p_top = 1.0f64;
            let mut p_bot = 1.0f64;
            for &pid in &net.pins {
                let pin = nl.pin(pid);
                let i = pin.cell.index();
                pts.push((soft.x[i] + pin.offset.0, soft.y[i] + pin.offset.1));
                let z = soft.z[i].clamp(0.0, 1.0);
                p_top *= z;
                p_bot *= 1.0 - z;
            }
            let Some(bbox) = Bbox::of_points(pts.iter().copied()) else {
                continue;
            };
            let w = net.weight as f32;
            let w_top2d = (p_top as f32) * w;
            let w_bot2d = (p_bot as f32) * w;
            let w_3d = ((1.0 - p_top - p_bot).max(0.0) as f32) * w;
            accumulate_rudy(&mut top.rudy_2d, g, &bbox, w_top2d);
            accumulate_rudy(&mut bottom.rudy_2d, g, &bbox, w_bot2d);
            accumulate_rudy(&mut top.rudy_3d, g, &bbox, w_3d * RUDY_3D_SCALE);
            accumulate_rudy(&mut bottom.rudy_3d, g, &bbox, w_3d * RUDY_3D_SCALE);
            for (&pid, &pt) in net.pins.iter().zip(&pts) {
                let pin = nl.pin(pid);
                let z = soft.z[pin.cell.index()].clamp(0.0, 1.0) as f32;
                accumulate_pin_rudy(&mut top.pin_rudy_2d, g, pt, &bbox, w_top2d);
                accumulate_pin_rudy(&mut bottom.pin_rudy_2d, g, pt, &bbox, w_bot2d);
                accumulate_pin_rudy(&mut top.pin_rudy_3d, g, pt, &bbox, w_3d * z);
                accumulate_pin_rudy(&mut bottom.pin_rudy_3d, g, pt, &bbox, w_3d * (1.0 - z));
            }
        }
        [bottom, top]
    }

    /// The separable forward and Eq. 6 backward equal their per-tile
    /// references bit for bit, for soft z drawn from `seed`.
    fn assert_matches_reference(
        nl: &Rc<Netlist>,
        grid: GcellGrid,
        x: &Tensor,
        y: &Tensor,
        seed: u64,
    ) {
        let op = SoftRasterizer::new(Rc::clone(nl), grid);
        let z = fixtures::soft_z(seed, x.len());
        let out = op.forward(&[x, y, &z]);
        let soft = SoftAssignment {
            x: x.data().iter().map(|&v| v as f64).collect(),
            y: y.data().iter().map(|&v| v as f64).collect(),
            z: z.data()
                .iter()
                .map(|&v| (v as f64).clamp(0.0, 1.0))
                .collect(),
        };
        let plane = grid.len();
        for (die, want) in reference_demand(nl, &grid, &soft).iter().enumerate() {
            for ch in CH_RUDY_2D..=CH_PIN_RUDY_3D {
                let at = (die * NUM_CHANNELS + ch) * plane;
                let got = Tensor::from_vec(out.data()[at..at + plane].to_vec(), &[plane]);
                let want = Tensor::from_vec(want.channels()[ch].data().to_vec(), &[plane]);
                fixtures::assert_bits_eq(&format!("die {die} channel {ch}"), &got, &want);
            }
        }
        let gy = fixtures::upstream(seed ^ 0x5eed, &out);
        let got = op.input_grads(x, y, &z, &gy);
        let want = reference_input_grads(&op, x, y, &z, &gy);
        for (name, (g, w)) in ["gx", "gy", "gz"].iter().zip(got.iter().zip(&want)) {
            fixtures::assert_f64_bits_eq(name, g, w);
        }
    }

    #[test]
    fn separable_rasterizer_is_bitwise_equal_to_per_tile_reference_on_aes_224() {
        let d = fixtures::aes();
        let (x, y) = fixtures::positions(&d);
        let nl = Rc::new(d.netlist.clone());
        assert_matches_reference(&nl, fixtures::raster_grid(&d, 224), &x, &y, 1);
    }

    #[test]
    fn separable_rasterizer_is_bitwise_equal_to_per_tile_reference_on_aes_32() {
        let d = fixtures::aes();
        let (x, y) = fixtures::positions(&d);
        let nl = Rc::new(d.netlist.clone());
        assert_matches_reference(&nl, fixtures::raster_grid(&d, 32), &x, &y, 2);
    }

    #[test]
    fn separable_rasterizer_is_bitwise_equal_to_per_tile_reference_on_edge_cases() {
        let (nl, grid, x, y) = fixtures::edge_case_netlist();
        for seed in 0..8 {
            assert_matches_reference(&nl, grid, &x, &y, seed);
        }
    }

    fn tiny() -> (Rc<Netlist>, GcellGrid) {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_cell_simple("a", CellClass::Combinational);
        let c = b.add_cell_simple("c", CellClass::Combinational);
        let d = b.add_cell_simple("d", CellClass::Sequential);
        b.add_net("w", &[(a, PinDirection::Output), (c, PinDirection::Input)]);
        b.add_net(
            "v",
            &[
                (c, PinDirection::Output),
                (d, PinDirection::Input),
                (a, PinDirection::Input),
            ],
        );
        let nl = Rc::new(b.finish().expect("valid"));
        let grid = GcellGrid::cover(
            Die {
                width: 8.0,
                height: 8.0,
            },
            1.0,
        );
        (nl, grid)
    }

    fn base_inputs() -> (Tensor, Tensor, Tensor) {
        (
            Tensor::from_vec(vec![1.3, 5.2, 3.7], &[3]),
            Tensor::from_vec(vec![2.1, 4.8, 6.3], &[3]),
            Tensor::from_vec(vec![0.3, 0.7, 0.5], &[3]),
        )
    }

    #[test]
    fn forward_matches_feature_extractor() {
        let (nl, grid) = tiny();
        let op = SoftRasterizer::new(Rc::clone(&nl), grid);
        let (x, y, z) = base_inputs();
        let out = op.forward(&[&x, &y, &z]);
        assert_eq!(out.shape(), &[1, 14, grid.ny, grid.nx]);
        // spot-check against direct extraction
        let soft = SoftAssignment {
            x: x.data().iter().map(|&v| v as f64).collect(),
            y: y.data().iter().map(|&v| v as f64).collect(),
            z: z.data().iter().map(|&v| v as f64).collect(),
        };
        let [bottom, _top] = FeatureExtractor::new(grid).extract_soft(&nl, &soft);
        let plane = grid.len();
        for (i, &v) in bottom.cell_density.data().iter().enumerate() {
            assert!(
                (out.data()[i] - v).abs() < 1e-6,
                "cell density mismatch at {i}"
            );
        }
        assert!(
            (out.data()[2 * plane..3 * plane].iter().sum::<f32>() - bottom.rudy_2d.sum()).abs()
                < 1e-4
        );
    }

    /// Finite-difference check of the full custom backward: perturb every
    /// input coordinate and compare <grad_out, Δout>/Δu with the analytic
    /// gradient, using a smooth random upstream gradient.
    #[test]
    fn backward_matches_finite_differences() {
        let (nl, grid) = tiny();
        let op = SoftRasterizer::new(Rc::clone(&nl), grid);
        let (x, y, z) = base_inputs();
        let out = op.forward(&[&x, &y, &z]);
        // deterministic pseudo-random upstream gradient
        let gy = Tensor::from_vec(
            (0..out.len())
                .map(|i| ((i * 2654435761usize) % 1000) as f32 / 1000.0 - 0.3)
                .collect(),
            out.shape(),
        );
        let grads = op.backward(&[&x, &y, &z], &out, &gy);
        // scalar objective for finite differences: <grad_out, forward(...)>
        let f = |x: &Tensor, y: &Tensor, z: &Tensor| -> f64 {
            op.forward(&[x, y, z])
                .data()
                .iter()
                .zip(gy.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-3;
        for k in 0..3 {
            let (name, base, grad) = match k {
                0 => ("x", &x, grads[0].as_ref().expect("gx")),
                1 => ("y", &y, grads[1].as_ref().expect("gy")),
                _ => ("z", &z, grads[2].as_ref().expect("gz")),
            };
            for i in 0..base.len() {
                let mut up = base.clone();
                up.data_mut()[i] += eps as f32;
                let mut dn = base.clone();
                dn.data_mut()[i] -= eps as f32;
                let (fu, fd) = match k {
                    0 => (f(&up, &y, &z), f(&dn, &y, &z)),
                    1 => (f(&x, &up, &z), f(&x, &dn, &z)),
                    _ => (f(&x, &y, &up), f(&x, &y, &dn)),
                };
                let num = (fu - fd) / (2.0 * eps);
                let ana = grad.data()[i] as f64;
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                    "{name}[{i}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn fixed_macro_gets_no_density_gradient() {
        let mut b = NetlistBuilder::new("m");
        let m = b.add_cell_simple("m", CellClass::Macro);
        let a = b.add_cell_simple("a", CellClass::Combinational);
        b.add_net("w", &[(m, PinDirection::Output), (a, PinDirection::Input)]);
        let nl = Rc::new(b.finish().expect("valid"));
        let grid = GcellGrid::cover(
            Die {
                width: 16.0,
                height: 16.0,
            },
            2.0,
        );
        let op = SoftRasterizer::new(nl, grid);
        let x = Tensor::from_vec(vec![2.0, 9.0], &[2]);
        let y = Tensor::from_vec(vec![2.0, 9.0], &[2]);
        let z = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let out = op.forward(&[&x, &y, &z]);
        // Die-asymmetric upstream gradient: only the TOP die's channels
        // carry gradient (a uniform one cancels the z terms exactly).
        let plane = grid.len();
        let mut gy = Tensor::zeros(out.shape());
        for v in &mut gy.data_mut()[7 * plane..14 * plane] {
            *v = 1.0;
        }
        let grads = op.backward(&[&x, &y, &z], &out, &gy);
        // the macro still gets RUDY gradients through its net pin, but no
        // density contribution; the movable cell must have some gradient
        let gz = grads[2].as_ref().expect("gz");
        assert!(gz.data()[1].abs() > 0.0);
    }
}
