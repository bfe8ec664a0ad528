//! GCell feature maps, congestion labels, and map metrics for DCO-3D.
//!
//! This crate implements the data-engineering layer of the paper
//! (Sec. II-B and III-B):
//!
//! - [`GridMap`]: 2D scalar fields over the GCell grid,
//! - [`FeatureExtractor`]: the seven per-die input feature maps (cell
//!   density, pin density, 2D/3D RUDY, 2D/3D PinRUDY, macro blockage), from
//!   both hard placements and soft probabilistic-z assignments,
//! - [`rudy`]: the RUDY/PinRUDY estimators (Eq. 1-3) and the analytic RUDY
//!   edge gradients backing DCO-3D's custom backward pass (Eq. 6),
//! - [`resize_nearest`]: magnitude-preserving nearest-neighbour resize,
//! - [`apply_orientation`]: 8-fold dihedral data augmentation,
//! - [`nrmse`] / [`ssim`] / [`pearson`]: the evaluation metrics of Fig. 5.
//!
//! # Example
//!
//! ```
//! use dco_features::{FeatureExtractor, resize_nearest};
//! use dco_netlist::generate::{DesignProfile, GeneratorConfig};
//!
//! # fn main() -> Result<(), dco_netlist::NetlistError> {
//! let d = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.02).generate(1)?;
//! let fx = FeatureExtractor::new(d.floorplan.grid);
//! let [bottom, _top] = fx.extract(&d.netlist, &d.placement);
//! let net_input = resize_nearest(&bottom.rudy_2d, 32, 32);
//! assert_eq!((net_input.nx(), net_input.ny()), (32, 32));
//! # Ok(())
//! # }
//! ```

mod augment;
mod grid;
mod maps;
mod metrics;
mod patch;
mod resize;
pub mod rudy;
pub mod svg;

pub use augment::{apply_orientation, Orientation};
pub use grid::GridMap;
pub use maps::{
    DieFeatures, FeatureExtractor, SoftAssignment, CHANNEL_NAMES, NUM_CHANNELS, RUDY_3D_SCALE,
};
pub use metrics::{nrmse, pearson, ssim};
pub use patch::PatchStats;
pub use resize::resize_nearest;
pub use svg::{render_layout_svg, SvgOptions};
