//! Static timing and power analysis for placed-and-routed 3D netlists.
//!
//! This crate is the signoff-evaluation substrate of the reproduction: the
//! Table-III columns `setup wns`, `setup tns`, and `total power` come from
//! here, computed identically for every flow so comparisons are fair.
//!
//! - [`Sta`]: topological setup and hold analysis over the pin graph with a
//!   linear cell-delay model, lumped-Elmore wire delays from routed
//!   lengths, and hybrid-bond crossing delays,
//! - [`IncrementalSta`]: the one STA engine. It freezes the pin graph, and
//!   every analysis runs its from-scratch pass; kept warm, it re-propagates
//!   only the cones a placement delta changed,
//! - [`run_timing_eco`]: post-route gate upsizing on violating paths, one
//!   engine re-run per sizing round,
//! - [`PowerAnalyzer`]: switching + internal + leakage power,
//! - [`synthesize_clock_tree`]: CTS-lite wirelength/skew estimate,
//! - the [`TimingReport`] also exposes the per-cell slack/slew features the
//!   DCO-3D GNN consumes (Table II).
//!
//! # Example
//!
//! ```
//! use dco_netlist::generate::{DesignProfile, GeneratorConfig};
//! use dco_route::{Router, RouterConfig};
//! use dco_timing::{PowerAnalyzer, Sta};
//!
//! # fn main() -> Result<(), dco_netlist::NetlistError> {
//! let d = GeneratorConfig::for_profile(DesignProfile::Dma).with_scale(0.02).generate(1)?;
//! let routed = Router::new(&d, RouterConfig::default()).route(&d.placement);
//! let timing = Sta::new(&d).analyze(&d.placement, Some(&routed.net_lengths), Some(&routed.net_bonds));
//! let power = PowerAnalyzer::new(&d).analyze(&d.placement, Some(&routed.net_lengths));
//! assert!(power.total_mw() > 0.0);
//! assert!(timing.tns_ps <= 0.0);
//! # Ok(())
//! # }
//! ```

mod cts;
mod eco;
mod incremental;
mod power;
mod sta;

pub use cts::{synthesize_clock_tree, ClockTreeReport};
pub use eco::{run_timing_eco, EcoReport};
pub use incremental::{IncrStaStats, IncrementalSta};
pub use power::{PowerAnalyzer, PowerReport};
pub use sta::{raw_wns, PathPoint, Sta, TimingReport};
