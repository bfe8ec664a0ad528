//! Smooth density potential for the overlap loss (paper Eq. 8–10).
//!
//! The hard bin-density function is non-differentiable; following the paper
//! (and NTUplace's bell-shaped potential), each cell contributes to nearby
//! bins through a piecewise-quadratic C¹ potential in each axis. The
//! product `p_x · p_y`, scaled so the cell's total contribution equals its
//! area, yields a differentiable density field per die (soft z-weighted).

use dco_netlist::{CellClass, GcellGrid, Netlist};
use dco_tensor::{CustomOp, Tensor};
use std::ops::RangeInclusive;
use std::rc::Rc;

/// The bell-shaped potential of Eq. 8 with the smoothing parameters of
/// Eq. 9, as a function of the center-to-center distance `d`.
///
/// `w_b` is the block (cell) width along the axis, `w_v` the bin width.
/// The function is 1 at d = 0, falls to 0 at `w_v/2 + 2 w_b`, and is C¹.
#[inline]
pub fn bell(d: f64, w_b: f64, w_v: f64) -> f64 {
    let d = d.abs();
    let r1 = w_v / 2.0 + w_b;
    let r2 = w_v / 2.0 + 2.0 * w_b;
    if d <= r1 {
        let a = 4.0 / ((w_v + 2.0 * w_b) * (w_v + 4.0 * w_b));
        1.0 - a * d * d
    } else if d <= r2 {
        let b = 2.0 / (w_b * (w_v + 4.0 * w_b));
        b * (d - r2) * (d - r2)
    } else {
        0.0
    }
}

/// Derivative of [`bell`] w.r.t. signed `d`.
#[inline]
pub fn bell_dd(d: f64, w_b: f64, w_v: f64) -> f64 {
    let s = if d >= 0.0 { 1.0 } else { -1.0 };
    let ad = d.abs();
    let r1 = w_v / 2.0 + w_b;
    let r2 = w_v / 2.0 + 2.0 * w_b;
    if ad <= r1 {
        let a = 4.0 / ((w_v + 2.0 * w_b) * (w_v + 4.0 * w_b));
        s * (-2.0 * a * ad)
    } else if ad <= r2 {
        let b = 2.0 / (w_b * (w_v + 4.0 * w_b));
        s * (2.0 * b * (ad - r2))
    } else {
        0.0
    }
}

/// Differentiable smooth-density op: inputs `[x[n], y[n], z[n]]`, output
/// `[2, H, W]` smoothed density per die (in cell-area-per-bin-area units).
#[derive(Debug)]
pub struct SmoothDensity {
    netlist: Rc<Netlist>,
    grid: GcellGrid,
}

impl SmoothDensity {
    /// A density op over `grid`.
    pub fn new(netlist: Rc<Netlist>, grid: GcellGrid) -> Self {
        Self { netlist, grid }
    }
}

/// One cell's bell potential, factored per axis. Eq. 8–9 are separable:
/// the potential in bin `(col, row)` is `p_x(col) · p_y(row)`, so `(p, dp)`
/// is evaluated once per covered column and row instead of once per bin.
/// The buffers are reused by every [`CellPotential::fill`].
#[derive(Debug, Default)]
struct CellPotential {
    /// First covered column.
    c0: usize,
    /// First covered row.
    r0: usize,
    /// `(p_x, dp_x/dcx)` per covered column.
    x: Vec<(f64, f64)>,
    /// `(p_y, dp_y/dcy)` per covered row.
    y: Vec<(f64, f64)>,
}

impl CellPotential {
    /// Recompute for a `w × h` cell centred at `(cx, cy)`.
    fn fill(&mut self, g: &GcellGrid, cx: f64, cy: f64, w: f64, h: f64) {
        let rx = g.dx / 2.0 + 2.0 * w.max(1e-9);
        let ry = g.dy / 2.0 + 2.0 * h.max(1e-9);
        self.c0 = g.col(cx - rx);
        self.r0 = g.row(cy - ry);
        axis_potential(&mut self.x, self.c0..=g.col(cx + rx), cx, w, g.dx);
        axis_potential(&mut self.y, self.r0..=g.row(cy + ry), cy, h, g.dy);
    }

    /// `Σ p_x · p_y` over the bins the cell reaches (`p_x > 0 || p_y > 0`),
    /// row-major: the normalizer behind `c_v`.
    fn mass(&self) -> f64 {
        let mut mass = 0.0;
        // hot-path: density-mass
        for &(py, _) in &self.y {
            for &(px, _) in &self.x {
                if px > 0.0 || py > 0.0 {
                    mass += px * py;
                }
            }
        }
        // hot-path: end
        mass
    }
}

/// `(bell, bell_dd)` of the center-to-bin distance for each tile of
/// `tiles` along one axis (bin pitch `pitch`, cell extent `w`).
fn axis_potential(
    out: &mut Vec<(f64, f64)>,
    tiles: RangeInclusive<usize>,
    c: f64,
    w: f64,
    pitch: f64,
) {
    out.clear();
    out.extend(tiles.map(|t| {
        let d = c - (t as f64 * pitch + (t + 1) as f64 * pitch) / 2.0;
        (bell(d, w, pitch), bell_dd(d, w, pitch))
    }));
}

impl CustomOp for SmoothDensity {
    fn name(&self) -> &str {
        "smooth_density"
    }

    fn forward(&self, inputs: &[&Tensor]) -> Tensor {
        let &[x, y, z] = inputs else {
            panic!("density takes (x, y, z), got {} inputs", inputs.len());
        };
        let g = self.grid;
        let plane = g.len();
        let mut out = vec![0.0f32; 2 * plane];
        let inv_area = 1.0 / g.cell_area();
        let mut pot = CellPotential::default();
        for id in self.netlist.cell_ids() {
            let i = id.index();
            let cell = self.netlist.cell(id);
            if cell.class == CellClass::Io {
                continue;
            }
            let cx = x.data()[i] as f64 + cell.width / 2.0;
            let cy = y.data()[i] as f64 + cell.height / 2.0;
            let zt = (z.data()[i] as f64).clamp(0.0, 1.0);
            pot.fill(&g, cx, cy, cell.width, cell.height);
            // c_v normalizes the potential mass to the cell's area.
            let mass = pot.mass();
            if mass <= 1e-12 {
                continue;
            }
            let c_v = cell.area() / mass * inv_area;
            // hot-path: density-forward
            for (j, &(py, _)) in pot.y.iter().enumerate() {
                let at = (pot.r0 + j) * g.nx + pot.c0;
                let (bot, top) = out.split_at_mut(plane);
                let bot = &mut bot[at..at + pot.x.len()];
                let top = &mut top[at..at + pot.x.len()];
                for ((&(px, _), b), t) in pot.x.iter().zip(bot).zip(top) {
                    if px > 0.0 || py > 0.0 {
                        let v = (c_v * px * py) as f32;
                        *b += v * (1.0 - zt) as f32;
                        *t += v * zt as f32;
                    }
                }
            }
            // hot-path: end
        }
        Tensor::from_vec(out, &[2, g.ny, g.nx])
    }

    fn backward(
        &self,
        inputs: &[&Tensor],
        _output: &Tensor,
        grad_output: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let &[x, y, z] = inputs else {
            panic!("density takes (x, y, z), got {} inputs", inputs.len());
        };
        self.input_grads(x, y, z, grad_output)
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

impl SmoothDensity {
    /// The gradients w.r.t. `(x, y, z)` in f64, before the cast to the
    /// op's f32 outputs.
    fn input_grads(
        &self,
        x: &Tensor,
        y: &Tensor,
        z: &Tensor,
        grad_output: &Tensor,
    ) -> [Vec<f64>; 3] {
        let g = self.grid;
        let plane = g.len();
        let n = x.len();
        let inv_area = 1.0 / g.cell_area();
        let mut gx = vec![0.0f64; n];
        let mut gy = vec![0.0f64; n];
        let mut gz = vec![0.0f64; n];
        let (g_bot, g_top) = grad_output.data().split_at(plane);
        let mut pot = CellPotential::default();
        for id in self.netlist.cell_ids() {
            let i = id.index();
            let cell = self.netlist.cell(id);
            if cell.class == CellClass::Io || !cell.movable() {
                continue;
            }
            let cx = x.data()[i] as f64 + cell.width / 2.0;
            let cy = y.data()[i] as f64 + cell.height / 2.0;
            let zt = (z.data()[i] as f64).clamp(0.0, 1.0);
            pot.fill(&g, cx, cy, cell.width, cell.height);
            let mass = pot.mass();
            if mass <= 1e-12 {
                continue;
            }
            // Treat the normalizer c_v as locally constant (standard
            // approximation; its derivative is second-order).
            let c_v = cell.area() / mass * inv_area;
            // hot-path: density-backward
            for (j, &(py, dpy)) in pot.y.iter().enumerate() {
                let at = (pot.r0 + j) * g.nx + pot.c0;
                let bot = &g_bot[at..at + pot.x.len()];
                let top = &g_top[at..at + pot.x.len()];
                for ((&(px, dpx), &gb), &gt) in pot.x.iter().zip(bot).zip(top) {
                    if px > 0.0 || py > 0.0 {
                        let (gb, gt) = (gb as f64, gt as f64);
                        let up = gb * (1.0 - zt) + gt * zt;
                        gx[i] += up * c_v * dpx * py;
                        gy[i] += up * c_v * px * dpy;
                        gz[i] += (gt - gb) * c_v * px * py;
                    }
                }
            }
            // hot-path: end
        }
        [gx, gy, gz]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    impl SmoothDensity {
        /// For each covered bin, visit (col, row, px, py, dpx, dpy) — potential
        /// values and their derivatives w.r.t. the cell center coordinates.
        fn visit_bins(
            &self,
            cx: f64,
            cy: f64,
            w: f64,
            h: f64,
            mut f: impl FnMut(usize, usize, f64, f64, f64, f64),
        ) {
            let g = self.grid;
            let rx = g.dx / 2.0 + 2.0 * w.max(1e-9);
            let ry = g.dy / 2.0 + 2.0 * h.max(1e-9);
            let c0 = g.col(cx - rx);
            let c1 = g.col(cx + rx);
            let r0 = g.row(cy - ry);
            let r1 = g.row(cy + ry);
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let (bx0, by0, bx1, by1) = g.bounds(col, row);
                    let (bx, by) = ((bx0 + bx1) / 2.0, (by0 + by1) / 2.0);
                    let dx = cx - bx;
                    let dy = cy - by;
                    let px = bell(dx, w, g.dx);
                    let py = bell(dy, h, g.dy);
                    if px > 0.0 || py > 0.0 {
                        f(col, row, px, py, bell_dd(dx, w, g.dx), bell_dd(dy, h, g.dy));
                    }
                }
            }
        }
    }

    /// The per-bin forward as it stood before the per-axis rewrite, kept
    /// verbatim as the bitwise reference.
    fn reference_forward(op: &SmoothDensity, inputs: &[&Tensor]) -> Tensor {
        let &[x, y, z] = inputs else {
            panic!("density takes (x, y, z), got {} inputs", inputs.len());
        };
        let g = op.grid;
        let plane = g.len();
        let mut out = vec![0.0f32; 2 * plane];
        let inv_area = 1.0 / g.cell_area();
        for id in op.netlist.cell_ids() {
            let i = id.index();
            let cell = op.netlist.cell(id);
            if cell.class == CellClass::Io {
                continue;
            }
            let cx = x.data()[i] as f64 + cell.width / 2.0;
            let cy = y.data()[i] as f64 + cell.height / 2.0;
            let zt = (z.data()[i] as f64).clamp(0.0, 1.0);
            // c_v normalizes the potential mass to the cell's area.
            let mut mass = 0.0;
            op.visit_bins(cx, cy, cell.width, cell.height, |_, _, px, py, _, _| {
                mass += px * py;
            });
            if mass <= 1e-12 {
                continue;
            }
            let c_v = cell.area() / mass * inv_area;
            op.visit_bins(cx, cy, cell.width, cell.height, |col, row, px, py, _, _| {
                let v = (c_v * px * py) as f32;
                out[row * g.nx + col] += v * (1.0 - zt) as f32;
                out[plane + row * g.nx + col] += v * zt as f32;
            });
        }
        Tensor::from_vec(out, &[2, g.ny, g.nx])
    }

    /// The per-bin backward, kept verbatim as the bitwise reference (up to
    /// the cast of its f64 gradients to the op's f32 outputs).
    fn reference_input_grads(
        op: &SmoothDensity,
        x: &Tensor,
        y: &Tensor,
        z: &Tensor,
        grad_output: &Tensor,
    ) -> [Vec<f64>; 3] {
        let g = op.grid;
        let plane = g.len();
        let n = x.len();
        let inv_area = 1.0 / g.cell_area();
        let mut gx = vec![0.0f64; n];
        let mut gy = vec![0.0f64; n];
        let mut gz = vec![0.0f64; n];
        for id in op.netlist.cell_ids() {
            let i = id.index();
            let cell = op.netlist.cell(id);
            if cell.class == CellClass::Io || !cell.movable() {
                continue;
            }
            let cx = x.data()[i] as f64 + cell.width / 2.0;
            let cy = y.data()[i] as f64 + cell.height / 2.0;
            let zt = (z.data()[i] as f64).clamp(0.0, 1.0);
            let mut mass = 0.0;
            op.visit_bins(cx, cy, cell.width, cell.height, |_, _, px, py, _, _| {
                mass += px * py;
            });
            if mass <= 1e-12 {
                continue;
            }
            // Treat the normalizer c_v as locally constant (standard
            // approximation; its derivative is second-order).
            let c_v = cell.area() / mass * inv_area;
            op.visit_bins(
                cx,
                cy,
                cell.width,
                cell.height,
                |col, row, px, py, dpx, dpy| {
                    let gb = grad_output.data()[row * g.nx + col] as f64;
                    let gt = grad_output.data()[plane + row * g.nx + col] as f64;
                    let up = gb * (1.0 - zt) + gt * zt;
                    gx[i] += up * c_v * dpx * py;
                    gy[i] += up * c_v * px * dpy;
                    gz[i] += (gt - gb) * c_v * px * py;
                },
            );
        }
        [gx, gy, gz]
    }

    /// The per-axis forward and backward equal their per-bin references
    /// bit for bit, for soft z drawn from `seed`.
    fn assert_matches_reference(
        nl: &Rc<Netlist>,
        grid: GcellGrid,
        x: &Tensor,
        y: &Tensor,
        seed: u64,
    ) {
        let op = SmoothDensity::new(Rc::clone(nl), grid);
        let z = fixtures::soft_z(seed, x.len());
        let out = op.forward(&[x, y, &z]);
        fixtures::assert_bits_eq("density", &out, &reference_forward(&op, &[x, y, &z]));
        let gy = fixtures::upstream(seed ^ 0xd0d0, &out);
        let got = op.input_grads(x, y, &z, &gy);
        let want = reference_input_grads(&op, x, y, &z, &gy);
        for (name, (g, w)) in ["gx", "gy", "gz"].iter().zip(got.iter().zip(&want)) {
            fixtures::assert_f64_bits_eq(name, g, w);
        }
    }

    #[test]
    fn per_axis_density_is_bitwise_equal_to_per_bin_reference_on_aes_224() {
        let d = fixtures::aes();
        let (x, y) = fixtures::positions(&d);
        let nl = Rc::new(d.netlist.clone());
        assert_matches_reference(&nl, fixtures::raster_grid(&d, 224), &x, &y, 3);
    }

    #[test]
    fn per_axis_density_is_bitwise_equal_to_per_bin_reference_on_aes_32() {
        let d = fixtures::aes();
        let (x, y) = fixtures::positions(&d);
        let nl = Rc::new(d.netlist.clone());
        assert_matches_reference(&nl, fixtures::raster_grid(&d, 32), &x, &y, 4);
    }

    #[test]
    fn per_axis_density_is_bitwise_equal_to_per_bin_reference_on_edge_cases() {
        let (nl, grid, x, y) = fixtures::edge_case_netlist();
        for seed in 0..8 {
            assert_matches_reference(&nl, grid, &x, &y, seed);
        }
    }

    #[test]
    fn bell_is_continuous_and_c1_at_breakpoints() {
        let (wb, wv) = (0.3, 1.0);
        let r1 = wv / 2.0 + wb;
        let r2 = wv / 2.0 + 2.0 * wb;
        let eps = 1e-7;
        assert!((bell(r1 - eps, wb, wv) - bell(r1 + eps, wb, wv)).abs() < 1e-5);
        assert!((bell_dd(r1 - eps, wb, wv) - bell_dd(r1 + eps, wb, wv)).abs() < 1e-4);
        assert!(bell(r2 + eps, wb, wv) == 0.0);
        assert!((bell(r2 - eps, wb, wv)).abs() < 1e-5);
        assert_eq!(bell(0.0, wb, wv), 1.0);
    }

    #[test]
    fn bell_derivative_matches_finite_difference() {
        let (wb, wv) = (0.2, 1.5);
        for &d in &[-1.4, -0.9, -0.3, 0.0, 0.25, 0.8, 1.2, 1.6] {
            let eps = 1e-6;
            let num = (bell(d + eps, wb, wv) - bell(d - eps, wb, wv)) / (2.0 * eps);
            let ana = bell_dd(d, wb, wv);
            assert!((num - ana).abs() < 1e-4, "d={d}: {num} vs {ana}");
        }
    }
}
