//! RUDY and PinRUDY routing-demand estimators (paper Sec. II-B) and the
//! analytic RUDY gradients used by DCO-3D's custom backward pass (Eq. 6).
//!
//! RUDY is separable: a net's overlap with tile `(col, row)` is
//! `ow(col) · oh(row)`. [`RudyFootprint`] computes the per-column and
//! per-row factors once per net, and the extraction, the patch and the
//! rasterizer backward all walk it. [`accumulate_rudy`] and
//! [`rudy_edge_grad`] are the per-tile definitions it is tested against
//! bit for bit.

use crate::GridMap;
use dco_netlist::GcellGrid;
use std::ops::RangeInclusive;

/// Axis-aligned bounding box of a net's pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bbox {
    /// Left edge.
    pub xl: f64,
    /// Bottom edge.
    pub yl: f64,
    /// Right edge.
    pub xh: f64,
    /// Top edge.
    pub yh: f64,
}

impl Bbox {
    /// Bounding box of a set of points.
    ///
    /// Returns `None` for an empty iterator.
    pub fn of_points(points: impl IntoIterator<Item = (f64, f64)>) -> Option<Self> {
        let mut it = points.into_iter();
        let (x0, y0) = it.next()?;
        let mut b = Self {
            xl: x0,
            yl: y0,
            xh: x0,
            yh: y0,
        };
        for (x, y) in it {
            b.xl = b.xl.min(x);
            b.xh = b.xh.max(x);
            b.yl = b.yl.min(y);
            b.yh = b.yh.max(y);
        }
        Some(b)
    }

    /// Width clamped below by `min_size` (degenerate nets still have demand).
    #[inline]
    pub fn width(&self, min_size: f64) -> f64 {
        (self.xh - self.xl).max(min_size)
    }

    /// Height clamped below by `min_size`.
    #[inline]
    pub fn height(&self, min_size: f64) -> f64 {
        (self.yh - self.yl).max(min_size)
    }

    /// The RUDY density factor `1/w + 1/h` (Eq. 1).
    #[inline]
    pub fn rudy_factor(&self, min_size: f64) -> f64 {
        1.0 / self.width(min_size) + 1.0 / self.height(min_size)
    }
}

/// Accumulate a net's RUDY (Eq. 2) into `grid`.
///
/// Each GCell overlapping the bbox receives
/// `weight * (1/w + 1/h) * overlap_area / gcell_area`.
pub fn accumulate_rudy(grid: &mut GridMap, g: &GcellGrid, bbox: &Bbox, weight: f32) {
    if weight == 0.0 {
        return;
    }
    let factor = bbox.rudy_factor(g.rudy_min_size());
    // Expand degenerate boxes so they still cover at least a sliver.
    let (xl, yl, xh, yh) = g.rudy_support(bbox.xl, bbox.yl, bbox.xh, bbox.yh);
    let c0 = g.col(xl);
    let c1 = g.col(xh);
    let r0 = g.row(yl);
    let r1 = g.row(yh);
    let inv_area = 1.0 / g.cell_area();
    for row in r0..=r1 {
        for col in c0..=c1 {
            let (tx0, ty0, tx1, ty1) = g.bounds(col, row);
            let ow = (xh.min(tx1) - xl.max(tx0)).max(0.0);
            let oh = (yh.min(ty1) - yl.max(ty0)).max(0.0);
            if ow > 0.0 && oh > 0.0 {
                grid.add(col, row, weight * (factor * ow * oh * inv_area) as f32);
            }
        }
    }
}

/// Accumulate a pin's PinRUDY (Eq. 3) into `grid`: the pin's tile receives
/// `weight * (1/w + 1/h)` of its net's bbox.
pub fn accumulate_pin_rudy(
    grid: &mut GridMap,
    g: &GcellGrid,
    pin_xy: (f64, f64),
    bbox: &Bbox,
    weight: f32,
) {
    if weight == 0.0 {
        return;
    }
    let min_size = g.rudy_min_size();
    let col = g.col(pin_xy.0);
    let row = g.row(pin_xy.1);
    grid.add(col, row, weight * bbox.rudy_factor(min_size) as f32);
}

/// A net's RUDY footprint on a GCell grid, factored per axis.
///
/// [`RudyFootprint::fill`] applies the degenerate-bbox expansion
/// ([`GcellGrid::rudy_support`]) and computes the `1/w + 1/h` factor and
/// every covered column's and row's overlap once per net. A tile's RUDY
/// value is then [`rudy_tile`] of its column's `factor · ow` and its row's
/// `oh` — the same f64 expression, over the same operands, as
/// [`accumulate_rudy`] evaluates per tile, so a walk over the footprint is
/// bitwise equal to the per-tile definition.
///
/// The buffers are reused by every `fill`: keep one footprint per
/// extraction (or backward pass), not one per net.
#[derive(Debug, Clone)]
pub struct RudyFootprint {
    grid: GcellGrid,
    /// The raw pin bbox of the last `fill`.
    bbox: Bbox,
    factor: f64,
    support: (usize, usize, usize, usize),
    col0: usize,
    row0: usize,
    /// Overlap width of columns `col0, col0 + 1, ...` (all positive).
    ow: Vec<f64>,
    /// `factor · ow` of the same columns.
    fow: Vec<f64>,
    /// Overlap height of rows `row0, row0 + 1, ...` (all positive).
    oh: Vec<f64>,
    /// One row of f32 tile values, scratch for [`RudyFootprint::splat`].
    row_vals: Vec<f32>,
}

impl RudyFootprint {
    /// An empty footprint on `grid`.
    pub fn new(grid: GcellGrid) -> Self {
        Self {
            grid,
            bbox: Bbox {
                xl: 0.0,
                yl: 0.0,
                xh: 0.0,
                yh: 0.0,
            },
            factor: 0.0,
            support: (0, 0, 0, 0),
            col0: 0,
            row0: 0,
            ow: Vec::new(),
            fow: Vec::new(),
            oh: Vec::new(),
            row_vals: Vec::new(),
        }
    }

    /// Recompute the footprint for the pin bbox `bbox`.
    pub fn fill(&mut self, bbox: &Bbox) {
        let g = self.grid;
        self.bbox = *bbox;
        self.factor = bbox.rudy_factor(g.rudy_min_size());
        let (xl, yl, xh, yh) = g.rudy_support(bbox.xl, bbox.yl, bbox.xh, bbox.yh);
        let (c0, c1, r0, r1) = (g.col(xl), g.col(xh), g.row(yl), g.row(yh));
        self.support = (c0, c1, r0, r1);
        self.col0 = axis_overlaps(&mut self.ow, c0..=c1, xl, xh, g.dx);
        self.row0 = axis_overlaps(&mut self.oh, r0..=r1, yl, yh, g.dy);
        self.fow.clear();
        let factor = self.factor;
        self.fow.extend(self.ow.iter().map(|&ow| factor * ow));
    }

    /// The RUDY factor `1/w + 1/h` (Eq. 1) of the raw bbox.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Inclusive tile range `(c0, c1, r0, r1)` of the expanded bbox: the
    /// net's whole RUDY and PinRUDY support (its pin tiles lie inside it).
    pub fn support(&self) -> (usize, usize, usize, usize) {
        self.support
    }

    /// First covered column and row: entry `k` of [`RudyFootprint::fow`]
    /// is column `col0 + k`, entry `j` of [`RudyFootprint::oh`] row
    /// `row0 + j`. Tiles of the support outside the covered block have a
    /// zero overlap.
    pub fn origin(&self) -> (usize, usize) {
        (self.col0, self.row0)
    }

    /// `factor · ow` of each covered column (every `ow` is positive).
    pub fn fow(&self) -> &[f64] {
        &self.fow
    }

    /// Overlap height of each covered row (all positive).
    pub fn oh(&self) -> &[f64] {
        &self.oh
    }

    /// Add the net's RUDY (Eq. 2) to four maps in one walk: `maps[m]`
    /// receives `weights[m] · tile` at every covered tile, exactly what
    /// `accumulate_rudy(maps[m], grid, bbox, weights[m])` adds, and maps with a
    /// zero weight are skipped like there. With `mask` (row-major over the
    /// grid), only pixels whose mask entry is `true` are written.
    pub fn splat(&mut self, mut maps: [&mut GridMap; 4], weights: [f32; 4], mask: Option<&[bool]>) {
        let inv_area = 1.0 / self.grid.cell_area();
        let nx = self.grid.nx;
        let n = self.ow.len();
        self.row_vals.resize(n, 0.0);
        // hot-path: rudy-splat
        for (j, &oh) in self.oh.iter().enumerate() {
            let start = (self.row0 + j) * nx + self.col0;
            for (v, &fow) in self.row_vals.iter_mut().zip(&self.fow) {
                *v = rudy_tile(fow, oh, inv_area) as f32;
            }
            let keep = mask.map(|m| &m[start..start + n]);
            for (map, &w) in maps.iter_mut().zip(&weights) {
                if w == 0.0 {
                    continue;
                }
                let dst = &mut map.data_mut()[start..start + n];
                match keep {
                    None => {
                        for (d, &v) in dst.iter_mut().zip(&self.row_vals) {
                            *d += w * v;
                        }
                    }
                    Some(keep) => {
                        for ((d, &v), &k) in dst.iter_mut().zip(&self.row_vals).zip(keep) {
                            if k {
                                *d += w * v;
                            }
                        }
                    }
                }
            }
        }
        // hot-path: end
    }

    /// Per-column and per-row factors of [`rudy_edge_grad`] over this
    /// footprint, written into `cols` and `rows` (one entry per covered
    /// column / row).
    ///
    /// Inside the expanded box the raw overlaps equal the expanded ones,
    /// unless the raw box is degenerate: then every raw overlap is zero,
    /// [`rudy_edge_grad`] is zero at every tile, and so are all factors.
    pub fn edge_factors(&self, cols: &mut Vec<EdgeCol>, rows: &mut Vec<EdgeRow>) {
        let (g, bbox) = (&self.grid, &self.bbox);
        cols.clear();
        rows.clear();
        let min_size = g.rudy_min_size();
        if !(bbox.xh > bbox.xl && bbox.yh > bbox.yl) {
            cols.resize(self.ow.len(), EdgeCol::default());
            rows.resize(self.oh.len(), EdgeRow::default());
            return;
        }
        let (w, h) = (bbox.width(min_size), bbox.height(min_size));
        let wide = bbox.xh - bbox.xl >= min_size;
        let tall = bbox.yh - bbox.yl >= min_size;
        // d(1/w)/dxh = -1/w^2 (zero while the width is clamped).
        let dfx = if bbox.xh - bbox.xl < min_size {
            0.0
        } else {
            -1.0 / (w * w)
        };
        let dfy = if bbox.yh - bbox.yl < min_size {
            0.0
        } else {
            -1.0 / (h * h)
        };
        for (k, (&ow, &fow)) in self.ow.iter().zip(&self.fow).enumerate() {
            let col = self.col0 + k;
            let (tx0, tx1) = (col as f64 * g.dx, (col + 1) as f64 * g.dx);
            cols.push(EdgeCol {
                xh: dfx * ow,
                xl: -dfx * ow,
                yh: dfy * ow,
                yl: -dfy * ow,
                fow,
                on_xh: f64::from(u8::from(bbox.xh < tx1 && wide)),
                on_xl: f64::from(u8::from(bbox.xl > tx0 && wide)),
            });
        }
        for (j, &oh) in self.oh.iter().enumerate() {
            let row = self.row0 + j;
            let (ty0, ty1) = (row as f64 * g.dy, (row + 1) as f64 * g.dy);
            rows.push(EdgeRow {
                foh: self.factor * oh,
                on_yh: f64::from(u8::from(bbox.yh < ty1 && tall)),
                on_yl: f64::from(u8::from(bbox.yl > ty0 && tall)),
            });
        }
    }
}

/// Overlap of `[lo, hi]` with each tile of `tiles` (tile `t` spans
/// `[t·d, (t+1)·d]`), trimmed to the tiles where it is positive; returns
/// the first kept tile.
///
/// Only the end tiles can have a zero overlap (an edge exactly on a tile
/// boundary, or a box clamped onto the grid from outside); every tile
/// between them overlaps the interval.
fn axis_overlaps(
    out: &mut Vec<f64>,
    tiles: RangeInclusive<usize>,
    lo: f64,
    hi: f64,
    d: f64,
) -> usize {
    let first = *tiles.start();
    out.clear();
    out.extend(tiles.map(|t| (hi.min((t + 1) as f64 * d) - lo.max(t as f64 * d)).max(0.0)));
    let end = out.iter().rposition(|&o| o > 0.0).map_or(0, |k| k + 1);
    let lead = out[..end].iter().take_while(|&&o| o <= 0.0).count();
    out.truncate(end);
    out.copy_within(lead.., 0);
    out.truncate(end - lead);
    debug_assert!(
        out.iter().all(|&o| o > 0.0),
        "zero overlap inside a RUDY footprint"
    );
    first + lead
}

/// The RUDY value a tile adds per unit net weight, from its column's
/// `factor · ow` and its row's `oh` (Eq. 2).
#[inline]
pub fn rudy_tile(fow: f64, oh: f64, inv_area: f64) -> f64 {
    fow * oh * inv_area
}

/// The column factors of [`rudy_edge_grad`] (see
/// [`RudyFootprint::edge_factors`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeCol {
    /// `d(1/w)/dxh · ow`.
    pub xh: f64,
    /// `-d(1/w)/dxh · ow`.
    pub xl: f64,
    /// `d(1/h)/dyh · ow`.
    pub yh: f64,
    /// `-d(1/h)/dyh · ow`.
    pub yl: f64,
    /// `factor · ow`.
    pub fow: f64,
    /// 1 when moving `xh` changes this column's overlap, else 0.
    pub on_xh: f64,
    /// 1 when moving `xl` changes this column's overlap, else 0.
    pub on_xl: f64,
}

/// The row factors of [`rudy_edge_grad`] (see
/// [`RudyFootprint::edge_factors`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeRow {
    /// `factor · oh`.
    pub foh: f64,
    /// 1 when moving `yh` changes this row's overlap, else 0.
    pub on_yh: f64,
    /// 1 when moving `yl` changes this row's overlap, else 0.
    pub on_yl: f64,
}

/// [`rudy_edge_grad`] at one tile from its column and row factors; `oh` is
/// the row's overlap. Bitwise equal to the per-tile definition.
#[inline]
pub fn edge_grad(c: &EdgeCol, r: &EdgeRow, oh: f64, inv_area: f64) -> RudyEdgeGrad {
    RudyEdgeGrad {
        d_xh: (c.xh * oh + r.foh * c.on_xh) * inv_area,
        d_xl: (c.xl * oh - r.foh * c.on_xl) * inv_area,
        d_yh: (c.yh * oh + c.fow * r.on_yh) * inv_area,
        d_yl: (c.yl * oh - c.fow * r.on_yl) * inv_area,
    }
}

/// Gradient of a net's RUDY value in one tile w.r.t. its bbox edges.
///
/// This is the exact differential of Eq. 2; the paper's Eq. 6 is the special
/// case where the moving edge lies inside the tile. The caller maps edge
/// gradients to cell-position gradients via the Kronecker deltas
/// `(δ_ih − δ_il)` — only the cells holding the extreme pins move the bbox.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RudyEdgeGrad {
    /// d RUDY / d xl.
    pub d_xl: f64,
    /// d RUDY / d xh.
    pub d_xh: f64,
    /// d RUDY / d yl.
    pub d_yl: f64,
    /// d RUDY / d yh.
    pub d_yh: f64,
}

/// Compute [`RudyEdgeGrad`] for `bbox` in the tile with the given bounds.
///
/// `tile = (tx0, ty0, tx1, ty1)`, `tile_area` is the GCell area, and
/// `min_size` clamps degenerate bbox dimensions (must match the value used
/// in [`accumulate_rudy`]).
pub fn rudy_edge_grad(
    bbox: &Bbox,
    tile: (f64, f64, f64, f64),
    tile_area: f64,
    min_size: f64,
) -> RudyEdgeGrad {
    let (tx0, ty0, tx1, ty1) = tile;
    let w = bbox.width(min_size);
    let h = bbox.height(min_size);
    let ow = (bbox.xh.min(tx1) - bbox.xl.max(tx0)).max(0.0);
    let oh = (bbox.yh.min(ty1) - bbox.yl.max(ty0)).max(0.0);
    if ow <= 0.0 || oh <= 0.0 {
        return RudyEdgeGrad::default();
    }
    let factor = 1.0 / w + 1.0 / h;
    let inv_area = 1.0 / tile_area;
    // Indicators: does moving an edge change the overlap?
    let xh_active = bbox.xh < tx1 && bbox.xh - bbox.xl >= min_size;
    let xl_active = bbox.xl > tx0 && bbox.xh - bbox.xl >= min_size;
    let yh_active = bbox.yh < ty1 && bbox.yh - bbox.yl >= min_size;
    let yl_active = bbox.yl > ty0 && bbox.yh - bbox.yl >= min_size;
    let clamped_w = bbox.xh - bbox.xl < min_size;
    let clamped_h = bbox.yh - bbox.yl < min_size;
    // d(1/w)/dxh = -1/w^2 (zero while the width is clamped).
    let dfactor_dxh = if clamped_w { 0.0 } else { -1.0 / (w * w) };
    let dfactor_dyh = if clamped_h { 0.0 } else { -1.0 / (h * h) };
    RudyEdgeGrad {
        d_xh: (dfactor_dxh * ow * oh + factor * oh * f64::from(u8::from(xh_active))) * inv_area,
        d_xl: (-dfactor_dxh * ow * oh - factor * oh * f64::from(u8::from(xl_active))) * inv_area,
        d_yh: (dfactor_dyh * ow * oh + factor * ow * f64::from(u8::from(yh_active))) * inv_area,
        d_yl: (-dfactor_dyh * ow * oh - factor * ow * f64::from(u8::from(yl_active))) * inv_area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::{Die, GcellGrid};

    fn grid4() -> GcellGrid {
        GcellGrid::cover(
            Die {
                width: 4.0,
                height: 4.0,
            },
            1.0,
        )
    }

    #[test]
    fn bbox_of_points() {
        let b = Bbox::of_points(vec![(1.0, 2.0), (3.0, 0.5)]).expect("non-empty");
        assert_eq!(
            b,
            Bbox {
                xl: 1.0,
                yl: 0.5,
                xh: 3.0,
                yh: 2.0
            }
        );
        assert!(Bbox::of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn rudy_total_equals_wirelength_identity() {
        // Integrating RUDY over all tiles gives (1/w + 1/h) * bbox_area / tile_area
        // = (w + h) * wl-per-area identity.
        let g = grid4();
        let mut m = GridMap::zeros(g.nx, g.ny);
        let b = Bbox {
            xl: 0.0,
            yl: 0.0,
            xh: 2.0,
            yh: 3.0,
        };
        accumulate_rudy(&mut m, &g, &b, 1.0);
        let expect = (1.0 / 2.0 + 1.0 / 3.0) * (2.0 * 3.0) / 1.0;
        assert!(
            (m.sum() as f64 - expect).abs() < 1e-5,
            "sum {} vs {}",
            m.sum(),
            expect
        );
    }

    #[test]
    fn rudy_is_uniform_inside_bbox() {
        let g = grid4();
        let mut m = GridMap::zeros(g.nx, g.ny);
        let b = Bbox {
            xl: 0.0,
            yl: 0.0,
            xh: 2.0,
            yh: 2.0,
        };
        accumulate_rudy(&mut m, &g, &b, 1.0);
        assert!((m.get(0, 0) - m.get(1, 1)).abs() < 1e-6);
        assert_eq!(m.get(3, 3), 0.0);
    }

    #[test]
    fn degenerate_net_still_contributes() {
        let g = grid4();
        let mut m = GridMap::zeros(g.nx, g.ny);
        let b = Bbox {
            xl: 1.5,
            yl: 1.5,
            xh: 1.5,
            yh: 1.5,
        };
        accumulate_rudy(&mut m, &g, &b, 1.0);
        assert!(m.sum() > 0.0);
    }

    #[test]
    fn pin_rudy_lands_in_pin_tile() {
        let g = grid4();
        let mut m = GridMap::zeros(g.nx, g.ny);
        let b = Bbox {
            xl: 0.0,
            yl: 0.0,
            xh: 2.0,
            yh: 2.0,
        };
        accumulate_pin_rudy(&mut m, &g, (2.5, 0.5), &b, 1.0);
        assert!(m.get(2, 0) > 0.0);
        assert_eq!(m.sum(), m.get(2, 0));
    }

    /// Finite-difference check of the analytic edge gradient.
    #[test]
    fn edge_grad_matches_finite_difference() {
        let g = grid4();
        let tile = g.bounds(1, 1);
        let min_size = 0.5;
        let base = Bbox {
            xl: 0.3,
            yl: 0.4,
            xh: 2.7,
            yh: 3.1,
        };
        let value = |b: &Bbox| -> f64 {
            let ow = (b.xh.min(tile.2) - b.xl.max(tile.0)).max(0.0);
            let oh = (b.yh.min(tile.3) - b.yl.max(tile.1)).max(0.0);
            b.rudy_factor(min_size) * ow * oh / g.cell_area()
        };
        let grad = rudy_edge_grad(&base, tile, g.cell_area(), min_size);
        let eps = 1e-5;
        let num = |f: &dyn Fn(f64) -> Bbox| (value(&f(eps)) - value(&f(-eps))) / (2.0 * eps);
        let d_xh = num(&|e| Bbox {
            xh: base.xh + e,
            ..base
        });
        let d_xl = num(&|e| Bbox {
            xl: base.xl + e,
            ..base
        });
        let d_yh = num(&|e| Bbox {
            yh: base.yh + e,
            ..base
        });
        let d_yl = num(&|e| Bbox {
            yl: base.yl + e,
            ..base
        });
        assert!(
            (grad.d_xh - d_xh).abs() < 1e-5,
            "d_xh {} vs {}",
            grad.d_xh,
            d_xh
        );
        assert!(
            (grad.d_xl - d_xl).abs() < 1e-5,
            "d_xl {} vs {}",
            grad.d_xl,
            d_xl
        );
        assert!(
            (grad.d_yh - d_yh).abs() < 1e-5,
            "d_yh {} vs {}",
            grad.d_yh,
            d_yh
        );
        assert!(
            (grad.d_yl - d_yl).abs() < 1e-5,
            "d_yl {} vs {}",
            grad.d_yl,
            d_yl
        );
    }

    /// Boxes covering the footprint's special cases on a 4 × 4 grid of
    /// unit tiles (`min_size` 0.5).
    fn special_boxes() -> Vec<Bbox> {
        let b = |xl, yl, xh, yh| Bbox { xl, yl, xh, yh };
        vec![
            b(0.3, 0.4, 2.7, 3.1),   // interior
            b(1.0, 1.0, 3.0, 2.0),   // every edge on a tile boundary
            b(1.5, 0.2, 1.5, 2.6),   // zero width
            b(0.2, 2.5, 3.3, 2.5),   // zero height
            b(2.5, 2.5, 2.5, 2.5),   // a single point
            b(1.0, 1.0, 1.0, 1.0),   // a point on a tile corner
            b(1.1, 0.3, 1.3, 3.7),   // narrower than min_size
            b(0.6, 1.2, 2.9, 1.45),  // lower than min_size
            b(-0.7, -1.2, 4.6, 5.0), // overhanging every die edge
            b(4.5, 0.5, 5.5, 1.5),   // entirely right of the die
        ]
    }

    #[test]
    fn footprint_splat_is_bitwise_equal_to_accumulate_rudy() {
        let g = grid4();
        let weights = [0.7f32, 0.0, 1.3, -0.25];
        for bbox in special_boxes() {
            let mut fp = RudyFootprint::new(g);
            fp.fill(&bbox);
            let mut got: Vec<GridMap> = (0..4).map(|_| GridMap::zeros(g.nx, g.ny)).collect();
            let [a, b, c, d] = &mut got[..] else {
                unreachable!()
            };
            fp.splat([a, b, c, d], weights, None);
            for (map, &w) in got.iter().zip(&weights) {
                let mut want = GridMap::zeros(g.nx, g.ny);
                accumulate_rudy(&mut want, &g, &bbox, w);
                let bits = |m: &GridMap| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(map), bits(&want), "{bbox:?} weight {w}");
            }
        }
    }

    #[test]
    fn masked_splat_writes_only_masked_pixels() {
        let g = grid4();
        let bbox = special_boxes()[0];
        let mut fp = RudyFootprint::new(g);
        fp.fill(&bbox);
        let mask: Vec<bool> = (0..g.len()).map(|i| i % 3 == 0).collect();
        let mut maps: Vec<GridMap> = (0..4).map(|_| GridMap::zeros(g.nx, g.ny)).collect();
        let [a, b, c, d] = &mut maps[..] else {
            unreachable!()
        };
        fp.splat([a, b, c, d], [1.0; 4], Some(&mask));
        let mut full = GridMap::zeros(g.nx, g.ny);
        accumulate_rudy(&mut full, &g, &bbox, 1.0);
        for (i, (&got, &all)) in maps[0].data().iter().zip(full.data()).enumerate() {
            let want = if mask[i] { all } else { 0.0 };
            assert_eq!(got.to_bits(), want.to_bits(), "pixel {i}");
        }
    }

    #[test]
    fn footprint_edge_factors_are_bitwise_equal_to_rudy_edge_grad() {
        let g = grid4();
        let inv_area = 1.0 / g.cell_area();
        let min_size = g.rudy_min_size();
        for bbox in special_boxes() {
            let mut fp = RudyFootprint::new(g);
            fp.fill(&bbox);
            let (mut cols, mut rows) = (Vec::new(), Vec::new());
            fp.edge_factors(&mut cols, &mut rows);
            assert_eq!((cols.len(), rows.len()), (fp.ow.len(), fp.oh.len()));
            // Every tile of the support: walked tiles match the per-tile
            // definition, and the trimmed ones have no RUDY.
            let (c0, c1, r0, r1) = fp.support;
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let walked = (fp.col0..fp.col0 + fp.ow.len()).contains(&col)
                        && (fp.row0..fp.row0 + fp.oh.len()).contains(&row);
                    if !walked {
                        let mut m = GridMap::zeros(g.nx, g.ny);
                        accumulate_rudy(&mut m, &g, &bbox, 1.0);
                        assert_eq!(m.get(col, row), 0.0, "{bbox:?} tile ({col}, {row})");
                        continue;
                    }
                    let (k, j) = (col - fp.col0, row - fp.row0);
                    let got = edge_grad(&cols[k], &rows[j], fp.oh[j], inv_area);
                    let want = rudy_edge_grad(&bbox, g.bounds(col, row), g.cell_area(), min_size);
                    let bits =
                        |e: &RudyEdgeGrad| [e.d_xl, e.d_xh, e.d_yl, e.d_yh].map(f64::to_bits);
                    assert_eq!(bits(&got), bits(&want), "{bbox:?} tile ({col}, {row})");
                }
            }
        }
    }

    #[test]
    fn edge_grad_zero_outside_tile() {
        let g = grid4();
        let tile = g.bounds(3, 3);
        let b = Bbox {
            xl: 0.0,
            yl: 0.0,
            xh: 1.0,
            yh: 1.0,
        };
        assert_eq!(
            rudy_edge_grad(&b, tile, g.cell_area(), 0.5),
            RudyEdgeGrad::default()
        );
    }
}
