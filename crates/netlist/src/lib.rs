//! Netlist database, technology model, and synthetic benchmark generation for
//! the DCO-3D reproduction.
//!
//! This crate is the substrate every other crate in the workspace builds on.
//! It provides:
//!
//! - [`Netlist`]: a hypergraph of [`Cell`]s, [`Net`]s and [`Pin`]s with
//!   geometric, power and timing attributes,
//! - [`Floorplan`]: the two-die face-to-face (F2F) 3D floorplan with a GCell
//!   grid,
//! - [`Placement3`]: an (x, y, tier) placement of every cell,
//! - [`generate`]: a Rent's-rule synthetic benchmark generator calibrated to
//!   the six industrial designs evaluated in the paper (DMA, AES, ECG, LDPC,
//!   VGA, RocketCore),
//! - [`NetlistBuilder`]: an ergonomic way to construct small designs by hand
//!   (used heavily in tests).
//!
//! # Example
//!
//! ```
//! use dco_netlist::{generate::{DesignProfile, GeneratorConfig}, Tier};
//!
//! # fn main() -> Result<(), dco_netlist::NetlistError> {
//! let cfg = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.05);
//! let design = cfg.generate(42)?;
//! assert!(design.netlist.num_cells() > 100);
//! # Ok(())
//! # }
//! ```

pub mod bookshelf;
mod builder;
mod cell;
mod error;
mod floorplan;
pub mod generate;
mod net;
mod netlist;
mod placement;
mod tech;

pub use builder::NetlistBuilder;
pub use cell::{Cell, CellClass, CellId};
pub use error::NetlistError;
pub use floorplan::{Die, Floorplan, GcellGrid};
pub use net::{Net, NetId, Pin, PinDirection, PinId};
pub use netlist::{Netlist, MAX_STAR_NET_DEGREE};
pub use placement::{Placement3, Tier};
pub use tech::Technology;

/// A generated design: netlist + floorplan + an initial 3D placement.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Design {
    /// The hypergraph netlist.
    pub netlist: Netlist,
    /// Two-die floorplan shared by both tiers (F2F bonding).
    pub floorplan: Floorplan,
    /// Initial 3D placement (random or generator-provided; flows re-place it).
    pub placement: Placement3,
    /// Technology parameters used to derive geometry and delays.
    pub technology: Technology,
    /// Human-readable design name, e.g. `"AES"`.
    pub name: String,
}

impl Design {
    /// Total standard-cell area (both tiers), in square microns.
    pub fn total_cell_area(&self) -> f64 {
        self.netlist.cells().map(|c| c.area()).sum()
    }

    /// Placement utilization: cell area divided by twice the die area
    /// (two tiers share the footprint in an F2F stack).
    pub fn utilization(&self) -> f64 {
        self.total_cell_area() / (2.0 * self.floorplan.die.area())
    }

    /// Serialize the whole design (netlist + floorplan + placement +
    /// technology) to a JSON file.
    ///
    /// # Errors
    /// Propagates filesystem and serialization errors.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_vec(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Load a design previously saved with [`Design::save_json`].
    ///
    /// # Errors
    /// Propagates filesystem and deserialization errors.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        serde_json::from_slice(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod design_tests {
    use crate::generate::{DesignProfile, GeneratorConfig};

    #[test]
    fn design_json_round_trips() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.008)
            .generate(13)
            .expect("gen");
        let path = std::env::temp_dir().join(format!("dco_design_{}.json", std::process::id()));
        d.save_json(&path).expect("save");
        let back = crate::Design::load_json(&path).expect("load");
        assert_eq!(back.netlist, d.netlist);
        assert_eq!(back.placement, d.placement);
        assert_eq!(back.floorplan, d.floorplan);
        assert_eq!(back.technology, d.technology);
        let _ = std::fs::remove_file(&path);
    }
}
