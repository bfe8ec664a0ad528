//! Static analysis for the DCO-3D workspace.
//!
//! Two layers:
//!
//! 1. **Autograd-graph analysis** — re-exports
//!    [`Graph::validate`](dco_tensor::Graph::validate)'s diagnostics from
//!    `dco-tensor` and adds [`gradcheck`], a finite-difference harness
//!    that verifies analytic gradients (built-in ops and `CustomOp`
//!    backward passes alike) by replaying the recorded tape.
//! 2. **Workspace audit** — [`lint::audit_path`] scans `.rs` sources with
//!    nine token-level rules: panicking calls, stdio writes, exact float
//!    comparisons, `HashMap`/`HashSet` iteration in determinism-contract
//!    crates, clock/thread-identity reads in checksum-covered paths,
//!    allocation inside `// hot-path:` regions, `unsafe` without
//!    `// SAFETY:` (with a machine-readable inventory), lock-acquisition
//!    cycles across the pool shim and `dco-obs` shards ([`lockorder`]),
//!    and allocation/stdio inside `// bench-timed:` regions. Findings
//!    diff against a checked-in [`baseline`] so new rules land strict;
//!    the `dco-check` binary drives it for CI.
//!
//! ```
//! use dco_check::{gradcheck_fn};
//! use dco_tensor::{Graph, Tensor};
//!
//! let report = gradcheck_fn(
//!     |g| {
//!         let x = g.param(Tensor::from_vec(vec![0.3, -0.9], &[2]));
//!         let y = g.tanh(x);
//!         g.sum_all(y)
//!     },
//!     1e-2,
//! );
//! assert!(report.passed());
//! ```

pub mod baseline;
mod gradcheck;
pub mod lint;
pub mod lockorder;

pub use baseline::{Baseline, BaselineDiff, BaselineEntry, BaselineError, SCHEMA_VERSION};
pub use gradcheck::{gradcheck, gradcheck_fn, GradcheckConfig, GradcheckFailure, GradcheckReport};
pub use lint::{audit_path, lint_path, lint_source, Audit, UnsafeSite, Violation};

// Layer-1 diagnostic types live next to the tape; re-export them so tools
// depending on dco-check see one coherent API.
pub use dco_tensor::{Diagnostic, DiagnosticKind, Severity};
