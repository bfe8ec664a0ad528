//! The 3-layer GCN with shared weights (paper Sec. IV-A).

use crate::NUM_NODE_FEATURES;
use dco_tensor::{Csr, Graph, Initializer, ParamStore, Tensor, Var};
use std::rc::Rc;

/// Hidden width of the GCN layers.
const HIDDEN: usize = 16;
/// Number of graph-convolution layers (paper: 3).
const LAYERS: usize = 3;
/// Output width (3: x, y, z).
const OUT_FEATURES: usize = 3;

/// A graph convolutional network over the netlist graph: `[n,
/// NUM_NODE_FEATURES]` node features in, a raw `[n, 3]` (x, y, z) tensor
/// out.
#[derive(Debug)]
pub struct Gcn {
    store: ParamStore,
}

impl Gcn {
    /// Create a GCN with Xavier-initialized weights. The output head starts
    /// near zero so the initial prediction is "no movement".
    pub fn new(seed: u64) -> Self {
        let mut init = Initializer::new(seed ^ 0x6C);
        let mut store = ParamStore::new();
        let mut din = NUM_NODE_FEATURES;
        for l in 0..LAYERS {
            store.insert(format!("gcn{l}.w"), init.xavier_uniform(&[din, HIDDEN]));
            store.insert(format!("gcn{l}.b"), Tensor::zeros(&[HIDDEN]));
            din = HIDDEN;
        }
        // near-zero head => near-identity starting placement
        let head = init.uniform(&[din, OUT_FEATURES], -0.01, 0.01);
        store.insert("head.w", head);
        store.insert("head.b", Tensor::zeros(&[OUT_FEATURES]));
        Self { store }
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Mutable access to the parameters (for the optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Record the forward pass: three rounds of `leaky_relu(A · H · W + b)`
    /// followed by a linear head. Returns the raw `[n, 3]` output.
    pub fn forward(&mut self, g: &mut Graph, adj: Rc<Csr>, x: Var) -> Var {
        let mut h = x;
        for l in 0..LAYERS {
            let w = self.store.bind(g, &format!("gcn{l}.w"));
            let b = self.store.bind(g, &format!("gcn{l}.b"));
            let agg = g.spmm(Rc::clone(&adj), h);
            let lin = g.matmul(agg, w);
            let lin = g.add_bias_row(lin, b);
            h = g.leaky_relu(lin, 0.1);
        }
        let w = self.store.bind(g, "head.w");
        let b = self.store.bind(g, "head.b");
        let out = g.matmul(h, w);
        g.add_bias_row(out, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_tensor::Adam;

    fn ring(n: usize) -> Rc<Csr> {
        Rc::new(Csr::gcn_normalized(
            n,
            (0..n).map(|i| (i, (i + 1) % n, 1.0)),
        ))
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut gcn = Gcn::new(1);
        let adj = ring(6);
        let x = Tensor::from_vec(
            (0..6 * NUM_NODE_FEATURES).map(|v| v as f32 * 0.1).collect(),
            &[6, NUM_NODE_FEATURES],
        );
        let mut g1 = Graph::new();
        let xv = g1.input(x.clone());
        let o1 = gcn.forward(&mut g1, Rc::clone(&adj), xv);
        assert_eq!(g1.value(o1).shape(), &[6, 3]);
        gcn.store_mut().zero_grads();
        let mut g2 = Graph::new();
        let xv2 = g2.input(x);
        let o2 = gcn.forward(&mut g2, adj, xv2);
        assert_eq!(g1.value(o1), g2.value(o2));
    }

    #[test]
    fn initial_output_is_near_zero() {
        let mut gcn = Gcn::new(2);
        let adj = ring(4);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4, NUM_NODE_FEATURES]));
        let o = gcn.forward(&mut g, adj, x);
        assert!(g.value(o).max().abs() < 0.5, "head should start near zero");
    }

    #[test]
    fn message_passing_spreads_information() {
        // Perturbing node 0's features changes node 1's output (1 hop) and,
        // with 3 layers, node 3's output (3 hops).
        let mk = || Gcn::new(3);
        let adj = Rc::new(Csr::gcn_normalized(
            5,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        ));
        let base = Tensor::zeros(&[5, NUM_NODE_FEATURES]);
        let mut pert = base.clone();
        pert.data_mut()[0] = 1.0;
        let run = |x: Tensor| {
            let mut gcn = mk();
            let mut g = Graph::new();
            let xv = g.input(x);
            let o = gcn.forward(&mut g, Rc::clone(&adj), xv);
            g.value(o).clone()
        };
        let a = run(base);
        let b = run(pert);
        let row_delta =
            |r: usize| -> f32 { (0..3).map(|c| (a.at(&[r, c]) - b.at(&[r, c])).abs()).sum() };
        assert!(row_delta(1) > 1e-7, "1-hop neighbour unaffected");
        assert!(row_delta(3) > 1e-9, "3-hop neighbour unaffected");
        // node 4 is 4 hops away: unreachable with 3 GCN layers
        assert!(row_delta(4) < 1e-9, "4-hop neighbour should be unreachable");
    }

    #[test]
    fn gcn_trains_toward_target() {
        let mut gcn = Gcn::new(4);
        let adj = ring(4);
        let x = Tensor::from_vec(
            (0..4 * NUM_NODE_FEATURES)
                .map(|v| (v % 3) as f32 * 0.3)
                .collect(),
            &[4, NUM_NODE_FEATURES],
        );
        let target = Tensor::full(&[4, 3], 0.5);
        let mut opt = Adam::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let t = g.input(target.clone());
            let o = gcn.forward(&mut g, Rc::clone(&adj), xv);
            let d = g.sub(o, t);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            last = g.value(loss).data()[0];
            first.get_or_insert(last);
            g.backward(loss);
            gcn.store_mut().apply_grads(&g);
            opt.step(gcn.store_mut());
        }
        assert!(last < first.expect("set") * 0.2, "loss {first:?} -> {last}");
    }
}
