use crate::Technology;
use serde::{Deserialize, Serialize};

/// Die outline in microns; both tiers of the F2F stack share it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Die {
    /// Width in microns.
    pub width: f64,
    /// Height in microns.
    pub height: f64,
}

impl Die {
    /// Die area in square microns.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Clamp a point into the die, leaving a small margin.
    pub fn clamp(&self, x: f64, y: f64) -> (f64, f64) {
        let eps = 1e-6;
        (
            x.clamp(0.0, self.width - eps),
            y.clamp(0.0, self.height - eps),
        )
    }
}

/// Regular GCell grid laid over a die, used for routing and feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcellGrid {
    /// Number of GCell columns.
    pub nx: usize,
    /// Number of GCell rows.
    pub ny: usize,
    /// GCell width in microns.
    pub dx: f64,
    /// GCell height in microns.
    pub dy: f64,
}

impl GcellGrid {
    /// Build a grid covering `die` with GCells of roughly `gcell_size`.
    pub fn cover(die: Die, gcell_size: f64) -> Self {
        let nx = (die.width / gcell_size).ceil().max(1.0) as usize;
        let ny = (die.height / gcell_size).ceil().max(1.0) as usize;
        Self {
            nx,
            ny,
            dx: die.width / nx as f64,
            dy: die.height / ny as f64,
        }
    }

    /// Total number of GCells.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never true for [`GcellGrid::cover`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// GCell column containing coordinate `x` (clamped to the grid).
    #[inline]
    pub fn col(&self, x: f64) -> usize {
        ((x / self.dx) as isize).clamp(0, self.nx as isize - 1) as usize
    }

    /// GCell row containing coordinate `y` (clamped to the grid).
    #[inline]
    pub fn row(&self, y: f64) -> usize {
        ((y / self.dy) as isize).clamp(0, self.ny as isize - 1) as usize
    }

    /// Flat index of GCell (col, row), row-major with rows outermost.
    #[inline]
    pub fn idx(&self, col: usize, row: usize) -> usize {
        debug_assert!(col < self.nx && row < self.ny);
        row * self.nx + col
    }

    /// Geometric bounds of GCell (col, row): (x_lo, y_lo, x_hi, y_hi).
    #[inline]
    pub fn bounds(&self, col: usize, row: usize) -> (f64, f64, f64, f64) {
        (
            col as f64 * self.dx,
            row as f64 * self.dy,
            (col + 1) as f64 * self.dx,
            (row + 1) as f64 * self.dy,
        )
    }

    /// GCell area in square microns.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.dx * self.dy
    }

    /// RUDY's minimum net-bbox dimension: half the smaller GCell side.
    /// Narrower boxes use it in the `1/w + 1/h` factor.
    #[inline]
    pub fn rudy_min_size(&self) -> f64 {
        self.dx.min(self.dy) * 0.5
    }

    /// The box `(xl, yl, xh, yh)` a net's RUDY demand covers: a zero-width
    /// (zero-height) pin bbox is widened by half of
    /// [`GcellGrid::rudy_min_size`] on each side so it still covers a
    /// sliver of tiles. This is the one definition of that expansion; the
    /// feature extractor, the rasterizer backward and the incremental dirty
    /// mask all read it from here.
    #[inline]
    pub fn rudy_support(&self, xl: f64, yl: f64, xh: f64, yh: f64) -> (f64, f64, f64, f64) {
        let min_size = self.rudy_min_size();
        let (xl, xh) = if xh > xl {
            (xl, xh)
        } else {
            (xl - min_size / 2.0, xl + min_size / 2.0)
        };
        let (yl, yh) = if yh > yl {
            (yl, yh)
        } else {
            (yl - min_size / 2.0, yl + min_size / 2.0)
        };
        (xl, yl, xh, yh)
    }
}

/// Two-die F2F floorplan: one shared outline, one GCell grid per die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    /// Shared die outline.
    pub die: Die,
    /// GCell grid (identical for both tiers).
    pub grid: GcellGrid,
    /// Standard-cell row height (site height) in microns.
    pub row_height: f64,
}

impl Floorplan {
    /// Build a floorplan for a target utilization given total cell area.
    ///
    /// The die is square; its side is chosen so that
    /// `total_cell_area / (2 * die_area) == utilization`.
    pub fn for_area(total_cell_area: f64, utilization: f64, tech: &Technology) -> Self {
        let die_area = (total_cell_area / (2.0 * utilization.clamp(0.05, 0.95))).max(1.0);
        let side = die_area.sqrt();
        let die = Die {
            width: side,
            height: side,
        };
        // Keep the GCell grid between ~32 and 224 cells per side: miniature
        // dies get proportionally smaller GCells (routing capacity scales
        // with GCell size, so capacity per area stays constant).
        let gcell = tech.gcell_size.min(side / 32.0).max(side / 224.0);
        Self {
            die,
            grid: GcellGrid::cover(die, gcell),
            row_height: tech.site_height,
        }
    }

    /// Number of standard-cell rows on each die.
    pub fn num_rows(&self) -> usize {
        (self.die.height / self.row_height).floor().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_die_exactly() {
        let die = Die {
            width: 10.0,
            height: 7.0,
        };
        let g = GcellGrid::cover(die, 1.5);
        assert_eq!(g.nx, 7);
        assert_eq!(g.ny, 5);
        assert!((g.nx as f64 * g.dx - die.width).abs() < 1e-9);
        assert!((g.ny as f64 * g.dy - die.height).abs() < 1e-9);
    }

    #[test]
    fn rudy_support_widens_only_degenerate_axes() {
        let g = GcellGrid::cover(
            Die {
                width: 8.0,
                height: 8.0,
            },
            1.0,
        );
        assert_eq!(g.rudy_min_size(), 0.5);
        assert_eq!(g.rudy_support(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0));
        assert_eq!(g.rudy_support(1.5, 2.0, 1.5, 4.0), (1.25, 2.0, 1.75, 4.0));
        assert_eq!(g.rudy_support(1.0, 2.5, 3.0, 2.5), (1.0, 2.25, 3.0, 2.75));
        // Narrow but not degenerate: left as is.
        assert_eq!(g.rudy_support(1.0, 2.0, 1.1, 4.0), (1.0, 2.0, 1.1, 4.0));
    }

    #[test]
    fn col_row_clamp_out_of_range() {
        let g = GcellGrid::cover(
            Die {
                width: 10.0,
                height: 10.0,
            },
            1.0,
        );
        assert_eq!(g.col(-5.0), 0);
        assert_eq!(g.col(100.0), g.nx - 1);
        assert_eq!(g.row(9.99), g.ny - 1);
    }

    #[test]
    fn floorplan_hits_target_utilization() {
        let tech = Technology::sim_3nm();
        let fp = Floorplan::for_area(500.0, 0.6, &tech);
        let util = 500.0 / (2.0 * fp.die.area());
        assert!((util - 0.6).abs() < 1e-9);
        assert!(fp.num_rows() > 1);
    }

    #[test]
    fn bounds_tile_the_die() {
        let g = GcellGrid::cover(
            Die {
                width: 4.0,
                height: 4.0,
            },
            2.0,
        );
        let (x0, y0, x1, y1) = g.bounds(1, 1);
        assert_eq!((x0, y0, x1, y1), (2.0, 2.0, 4.0, 4.0));
        assert_eq!(g.idx(1, 1), 3);
    }
}
