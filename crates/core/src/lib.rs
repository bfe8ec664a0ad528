//! DCO-3D: differentiable congestion optimization in 3D ICs.
//!
//! This is the paper's primary contribution (Sec. IV / Algorithm 2): a
//! fully differentiable, three-dimensional cell-spreading framework that
//! resolves predicted congestion hotspots while preserving placement
//! quality. Cells move in x, y, *and* z — the probabilistic tier assignment
//! lets a cell contribute to both dies until the final hard cut at
//! z >= 0.5.
//!
//! The pieces:
//!
//! - [`SoftRasterizer`]: a custom autograd op rendering (x, y, z) into the
//!   14 feature channels the Siamese UNet consumes, with the hand-derived
//!   backward pass of Eq. 5-6 (RUDY bbox-edge gradients routed through
//!   Kronecker deltas to the extreme-pin cells),
//! - [`SmoothDensity`]: the bell-shaped density potential of Eq. 8-10,
//! - loss terms: [`congestion_loss`] (Eq. 4 on predictions),
//!   [`CutsizeLoss`] (Eq. 7), [`overlap_loss`],
//!   [`weighted_displacement_loss`] (Eq. 11),
//! - [`DcoOptimizer`]: the gradient loop of Algorithm 2, driving a cell
//!   spreader against a frozen [`dco_unet::SiameseUNet`]: the paper's
//!   [`dco_gnn::Gcn`] ([`DcoOptimizer::new`]) or the per-cell baseline it
//!   rejects in Sec. IV-A ([`DcoOptimizer::direct`]),
//! - [`diff_placements`] / [`directives_to_tcl`]: exporting the spreading
//!   decisions as ICC2-style TCL, mirroring how the paper's DCO-3D plugs
//!   into the commercial flow.
//!
//! # Example (miniature end-to-end run)
//!
//! ```
//! use dco3d::{DcoConfig, DcoOptimizer};
//! use dco_gnn::{build_node_features, Gcn, GcnConfig};
//! use dco_netlist::generate::{DesignProfile, GeneratorConfig};
//! use dco_unet::{Normalization, SiameseUNet, UNetConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.005).generate(1)?;
//! let unet_cfg = UNetConfig { size: 8, base_channels: 2, ..UNetConfig::default() };
//! let unet = SiameseUNet::new(unet_cfg, 0); // normally: trained via dco_unet::train
//! let norm = Normalization { channel_scale: [1.0; 7], label_scale: 1.0 };
//! let timing = dco_timing::Sta::new(&design).analyze(&design.placement, None, None);
//! let features = build_node_features(&design, &design.placement, &timing);
//! let gcn = Gcn::new(GcnConfig::default(), 7);
//! let cfg = DcoConfig { max_iter: 2, ..DcoConfig::default() };
//! let mut dco = DcoOptimizer::new(&design, &unet, &norm, features, gcn, cfg);
//! let result = dco.run(&design.placement);
//! assert!(result.iterations >= 1);
//! # Ok(())
//! # }
//! ```

mod density;
mod direct;
mod export;
mod losses;
mod optimizer;
mod rasterizer;

pub use density::{bell, bell_dd, SmoothDensity};
pub use export::{diff_placements, directives_to_tcl, SpreadDirective};
pub use losses::{congestion_loss, overlap_loss, weighted_displacement_loss, CutsizeLoss};
pub use optimizer::{DcoConfig, DcoOptimizer, DcoResult, LossBreakdown};
pub use rasterizer::SoftRasterizer;

/// Shared inputs for the bitwise reference tests of the rasterizer and
/// density ops.
#[cfg(test)]
mod fixtures {
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{
        Cell, CellClass, CellId, Design, Die, GcellGrid, Netlist, NetlistBuilder, PinDirection,
    };
    use dco_tensor::Tensor;
    use std::rc::Rc;

    /// Deterministic values in `[0, 1)` (splitmix64).
    pub fn unit_noise(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as f64 / 2f64.powi(64)
            })
            .collect()
    }

    /// Soft tier probabilities: uniform in `[0, 1]`, with every seventh cell
    /// pinned to exactly 0 or 1 so some net weights vanish.
    pub fn soft_z(seed: u64, n: usize) -> Tensor {
        let z = unit_noise(seed, n)
            .iter()
            .enumerate()
            .map(|(i, &u)| match i % 7 {
                0 => 0.0,
                3 => 1.0,
                _ => u as f32,
            })
            .collect();
        Tensor::from_vec(z, &[n])
    }

    /// An upstream gradient in `[-1, 1)` shaped like `out`.
    pub fn upstream(seed: u64, out: &Tensor) -> Tensor {
        let g = unit_noise(seed, out.len())
            .iter()
            .map(|&u| (2.0 * u - 1.0) as f32)
            .collect();
        Tensor::from_vec(g, out.shape())
    }

    /// AES at 3 % scale with its generated placement.
    pub fn aes() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Aes)
            .with_scale(0.03)
            .generate(7)
            .expect("AES generation")
    }

    /// The `size × size` grid the optimizer rasterizes `design` onto.
    pub fn raster_grid(design: &Design, size: usize) -> GcellGrid {
        GcellGrid {
            nx: size,
            ny: size,
            dx: design.floorplan.die.width / size as f64,
            dy: design.floorplan.die.height / size as f64,
        }
    }

    /// The design's placement as `(x, y)` op inputs.
    pub fn positions(design: &Design) -> (Tensor, Tensor) {
        let n = design.netlist.num_cells();
        let p = &design.placement;
        let x = p.xs().iter().map(|&v| v as f32).collect();
        let y = p.ys().iter().map(|&v| v as f32).collect();
        (Tensor::from_vec(x, &[n]), Tensor::from_vec(y, &[n]))
    }

    fn square_cell(name: &str, class: CellClass, side: f64) -> Cell {
        Cell {
            name: name.into(),
            class,
            width: side,
            height: side,
            drive_res: 5.0,
            input_cap: 0.5,
            leakage: 1.0,
            internal_energy: 0.25,
            intrinsic_delay: 4.0,
        }
    }

    /// A hand-built netlist on an 8 × 8 grid of unit GCells (RUDY `min_size`
    /// 0.5) whose nets hit every special case of the RUDY footprint: a net
    /// whose pins all sit on one point (the one-pin case; the builder rejects
    /// literal one-pin nets), a zero-width and a zero-height net, a net
    /// narrower than `min_size`, a bbox edge exactly on a tile boundary, cells
    /// overhanging the die edge, a macro, a clock net and a three-pin net.
    ///
    /// Pins sit at cell centres; every coordinate is exact in f32.
    pub fn edge_case_netlist() -> (Rc<Netlist>, GcellGrid, Tensor, Tensor) {
        let mut b = NetlistBuilder::new("edges");
        // (cell, x, y) — side 0.5, so the pin is at (x + 0.25, y + 0.25).
        let mut xy = Vec::new();
        let mut cell = |b: &mut NetlistBuilder, class, side, x: f32, y: f32| -> CellId {
            let id = b.add_cell(square_cell(&format!("c{}", xy.len()), class, side));
            xy.push((x, y));
            id
        };
        let on_edge = cell(&mut b, CellClass::Combinational, 0.5, 2.75, 1.75); // pin (3, 2)
        let corner = cell(&mut b, CellClass::Combinational, 0.5, 5.75, 4.75); // pin (6, 5)
        let hub = cell(&mut b, CellClass::Combinational, 0.5, 5.25, 4.5); // pin (5.5, 4.75)
        let above = cell(&mut b, CellClass::Combinational, 0.5, 5.25, 6.125); // same x
        let left = cell(&mut b, CellClass::Sequential, 0.5, 1.125, 4.5); // same y
        let narrow = cell(&mut b, CellClass::Combinational, 0.5, 5.5, 2.25); // dx 0.25
        let overhang = cell(&mut b, CellClass::Combinational, 0.5, 7.75, 7.875); // pin (8, 8.125)
        let below_die = cell(&mut b, CellClass::Combinational, 0.5, -0.375, 0.125); // pin x < 0
        let point = cell(&mut b, CellClass::Combinational, 0.5, 3.25, 3.25);
        let mac = cell(&mut b, CellClass::Macro, 2.0, 0.5, 5.5); // pin (1.5, 6.5)
        let (o, i) = (PinDirection::Output, PinDirection::Input);
        b.add_net("boundary", &[(on_edge, o), (corner, i)]);
        b.add_net("half_boundary", &[(on_edge, o), (hub, i)]);
        b.add_net("zero_w", &[(hub, o), (above, i)]);
        b.add_net("zero_h", &[(left, o), (hub, i)]);
        b.add_net("narrow", &[(narrow, o), (hub, i)]);
        b.add_net("overhang", &[(overhang, o), (on_edge, i)]);
        b.add_net("off_die", &[(below_die, o), (narrow, i)]);
        b.add_net("point", &[(point, o), (point, i)]);
        b.add_net("macro", &[(mac, o), (left, i), (point, i)]);
        b.add_weighted_net("clk", &[(on_edge, o), (overhang, i)], 1.0, true);
        b.add_weighted_net("heavy", &[(above, o), (left, i), (narrow, i)], 2.5, false);
        let nl = Rc::new(b.finish().expect("valid edge-case netlist"));
        let grid = GcellGrid::cover(
            Die {
                width: 8.0,
                height: 8.0,
            },
            1.0,
        );
        let n = xy.len();
        let x = Tensor::from_vec(xy.iter().map(|p| p.0).collect(), &[n]);
        let y = Tensor::from_vec(xy.iter().map(|p| p.1).collect(), &[n]);
        (nl, grid, x, y)
    }

    /// Bitwise equality of two f64 slices, naming the first differing
    /// element.
    pub fn assert_f64_bits_eq(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a} vs {b}");
        }
    }

    /// Bitwise equality of two tensors, naming the first differing element.
    pub fn assert_bits_eq(what: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (k, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a} vs {b}");
        }
    }
}
