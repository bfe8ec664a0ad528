//! A from-scratch dense tensor and reverse-mode autograd engine.
//!
//! This crate replaces the paper's PyTorch + PyTorch Geometric dependency
//! with a small, CPU-only, deterministic engine providing exactly what the
//! DCO-3D models need:
//!
//! - [`Tensor`]: dense row-major `f32` arrays,
//! - [`Graph`]/[`Var`]: a define-by-run autograd tape with dense and
//!   convolutional ops, channel concat/slice (for UNet skip connections and
//!   the Siamese communication layer), and sparse × dense products for
//!   graph convolutions,
//! - [`CustomOp`]: user-defined ops with hand-written backward passes — the
//!   hook DCO-3D uses for its feature-map rasterizer (paper Eq. 5–6),
//! - [`ParamStore`] with the [`Adam`] optimizer, and
//!   [`Initializer`] for Xavier/He weight init.
//!
//! # Example: one gradient step
//!
//! ```
//! use dco_tensor::{Adam, Graph, Initializer, ParamStore, Tensor};
//!
//! let mut init = Initializer::new(0);
//! let mut store = ParamStore::new();
//! store.insert("w", init.xavier_uniform(&[4, 2]));
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::ones(&[3, 4]));
//! let w = store.bind(&mut g, "w");
//! let y = g.matmul(x, w);
//! let loss = g.mean_all(y);
//! g.backward(loss);
//! store.apply_grads(&g);
//! Adam::new(1e-3).step(&mut store);
//! ```

pub mod arena;
pub mod conv;
mod graph;
mod init;
pub mod inspect;
pub mod kernel;
mod op;
mod optim;
mod sparse;
mod tensor;

pub use arena::{ArenaStats, TensorArena};
pub use graph::{CustomOp, Graph, Var};
pub use init::Initializer;
pub use inspect::{Diagnostic, DiagnosticKind, Severity};
pub use optim::{Adam, ParamStore};
pub use sparse::Csr;
pub use tensor::Tensor;
