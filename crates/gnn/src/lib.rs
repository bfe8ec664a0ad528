//! The GNN cell spreader of DCO-3D (paper Sec. IV-A).
//!
//! Instead of learning an independent (x, y, z) per cell — millions of free
//! parameters — DCO-3D drives cell movement through a 3-layer graph
//! convolutional network with weights shared across all cells. Each node
//! (cell) carries the handcrafted features of Table II plus its initial
//! position; the GCN outputs a raw `[n, 3]` tensor the optimizer decodes
//! into bounded (dx, dy) displacements and a tier probability z in [0, 1].
//!
//! # Example
//!
//! ```
//! use dco_gnn::{Gcn, NUM_NODE_FEATURES};
//! use dco_tensor::{Csr, Graph, Tensor};
//! use std::rc::Rc;
//!
//! let mut gcn = Gcn::new(0);
//! let adj = Rc::new(Csr::gcn_normalized(3, vec![(0, 1, 1.0), (1, 2, 1.0)]));
//! let mut g = Graph::new();
//! let x = g.input(Tensor::zeros(&[3, NUM_NODE_FEATURES]));
//! let out = gcn.forward(&mut g, adj, x);
//! assert_eq!(g.value(out).shape(), &[3, 3]);
//! ```

mod features;
mod model;

pub use features::{build_adjacency, build_node_features, NUM_NODE_FEATURES};
pub use model::Gcn;
