//! The differentiable loss terms of Algorithm 2.

use dco_netlist::Netlist;
use dco_tensor::{Csr, Graph, Tensor, Var};
use std::rc::Rc;

/// Precomputed graph structure for the cutsize loss (Eq. 7).
#[derive(Debug)]
pub struct CutsizeLoss {
    adjacency: Rc<Csr>,
    degrees: Tensor,
    total_degree: f32,
}

impl CutsizeLoss {
    /// Build from the netlist's star-expanded signal-net adjacency.
    pub fn new(netlist: &Netlist, max_net_degree: usize) -> Self {
        let adj = netlist.star_adjacency(max_net_degree);
        let n = netlist.num_cells();
        let mut edges = Vec::new();
        let mut deg = vec![0.0f32; n];
        for (u, peers) in adj.iter().enumerate() {
            for &(v, w) in peers {
                if u < v.index() {
                    edges.push((u, v.index(), w as f32));
                    deg[u] += w as f32;
                    deg[v.index()] += w as f32;
                }
            }
        }
        let total_degree: f32 = deg.iter().sum();
        Self {
            adjacency: Rc::new(Csr::from_triplets(
                n,
                n,
                edges.iter().flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)]),
            )),
            degrees: Tensor::from_vec(deg, &[n, 1]),
            total_degree: total_degree.max(1e-6),
        }
    }

    /// Record Eq. 7 on the graph for soft tier probabilities `z` (`[n, 1]`).
    ///
    /// With `cut = d·z − zᵀAz`, `deg(T) = d·z` and `deg(B) = total − d·z`,
    /// the loss is `cut/deg(T) + cut/deg(B)`; it reduces to the paper's
    /// normalized cut for hard z and is smooth in between.
    pub fn loss(&self, g: &mut Graph, z: Var) -> Var {
        let d = g.input(self.degrees.clone());
        let az = g.spmm(Rc::clone(&self.adjacency), z);
        let zaz_v = g.mul(z, az);
        let zaz = g.sum_all(zaz_v);
        let dz_v = g.mul(d, z);
        let dz = g.sum_all(dz_v);
        let cut = g.sub(dz, zaz);
        let eps = 1e-3 * self.total_degree;
        let deg_t = g.add_scalar(dz, eps);
        let neg_dz = g.mul_scalar(dz, -1.0);
        let deg_b = g.add_scalar(neg_dz, self.total_degree + eps);
        let t1 = g.div(cut, deg_t);
        let t2 = g.div(cut, deg_b);
        g.add(t1, t2)
    }

    /// The hard cut value `d·z − zᵀAz` for a given z vector (diagnostics).
    pub fn cut_value(&self, z: &[f32]) -> f32 {
        let zt = Tensor::from_vec(z.to_vec(), &[z.len(), 1]);
        let az = self.adjacency.matmul_dense(&zt);
        let zaz: f32 = zt.data().iter().zip(az.data()).map(|(a, b)| a * b).sum();
        let dz: f32 = self
            .degrees
            .data()
            .iter()
            .zip(zt.data())
            .map(|(a, b)| a * b)
            .sum();
        dz - zaz
    }
}

/// Record the displacement loss (Eq. 11) on the graph for per-cell
/// displacements `dx`, `dy`: `mean(w · (dx² + dy²))`, normalized by
/// `scale²` so the weight is size-independent. Each cell's weight `w`
/// (e.g. `1 + k·criticality`) anchors timing-critical cells harder — the
/// "preserving signoff-quality QoR" half of the paper's objective; unit
/// weights give the plain Eq. 11 mean.
pub fn weighted_displacement_loss(
    g: &mut Graph,
    dx: Var,
    dy: Var,
    weights: Var,
    scale: f32,
) -> Var {
    let dx2 = g.square(dx);
    let dy2 = g.square(dy);
    let s = g.add(dx2, dy2);
    let ws = g.mul(s, weights);
    let m = g.mean_all(ws);
    g.mul_scalar(m, 1.0 / (scale * scale).max(1e-12))
}

/// Record the congestion loss on predicted maps (Eq. 4 applied to the
/// predicted overflow): `0.5 Σ_d sqrt(mean(relu(C_d − threshold)²))`.
///
/// Predictions are utilization maps (demand/capacity); the part above
/// `threshold` is the predicted overflow the optimizer drives to zero,
/// exactly the RMS-Frobenius shape of Eq. 4.
pub fn congestion_loss(g: &mut Graph, c0: Var, c1: Var, threshold: f32) -> Var {
    let term = |g: &mut Graph, c: Var| {
        let shifted = g.add_scalar(c, -threshold);
        let excess = g.relu(shifted);
        let s = g.square(excess);
        let m = g.mean_all(s);
        let eps = g.add_scalar(m, 1e-8);
        g.sqrt(eps)
    };
    let t0 = term(g, c0);
    let t1 = term(g, c1);
    let sum = g.add(t0, t1);
    g.mul_scalar(sum, 0.5)
}

/// Record the overlap loss on a `[2, H, W]` smooth-density field:
/// `mean(relu(D − target)²)` — only density above the target is penalized.
pub fn overlap_loss(g: &mut Graph, density: Var, target: f32) -> Var {
    let shifted = g.add_scalar(density, -target);
    let excess = g.relu(shifted);
    let sq = g.square(excess);
    g.mean_all(sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::{CellClass, NetlistBuilder, PinDirection};

    fn two_cluster_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("cl");
        let cells: Vec<_> = (0..6)
            .map(|i| b.add_cell_simple(format!("c{i}"), CellClass::Combinational))
            .collect();
        for g in 0..2 {
            let base = g * 3;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    b.add_net(
                        format!("n{g}{i}{j}"),
                        &[
                            (cells[base + i], PinDirection::Output),
                            (cells[base + j], PinDirection::Input),
                        ],
                    );
                }
            }
        }
        b.add_net(
            "bridge",
            &[
                (cells[0], PinDirection::Output),
                (cells[3], PinDirection::Input),
            ],
        );
        b.finish().expect("valid")
    }

    #[test]
    fn cutsize_loss_prefers_the_natural_partition() {
        let nl = two_cluster_netlist();
        let cs = CutsizeLoss::new(&nl, 32);
        let eval = |z: Vec<f32>| {
            let mut g = Graph::new();
            let zv = g.input(Tensor::from_vec(z, &[6, 1]));
            let l = cs.loss(&mut g, zv);
            g.value(l).data()[0]
        };
        let natural = eval(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let bad = eval(vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        assert!(
            natural < bad,
            "natural {natural} should beat interleaved {bad}"
        );
        let all_one_side = eval(vec![0.0; 6]);
        // one-sided: cut = 0 -> loss 0; natural has cut 1
        assert!(all_one_side <= natural);
    }

    #[test]
    fn cut_value_matches_combinatorial_cut() {
        let nl = two_cluster_netlist();
        let cs = CutsizeLoss::new(&nl, 32);
        // bridge is the only cut edge; its star weight is 1.0
        let cut = cs.cut_value(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert!((cut - 1.0).abs() < 1e-5, "cut {cut}");
        assert_eq!(cs.cut_value(&[0.0; 6]), 0.0);
    }

    #[test]
    fn cutsize_gradient_flows() {
        let nl = two_cluster_netlist();
        let cs = CutsizeLoss::new(&nl, 32);
        let mut g = Graph::new();
        let z = g.param(Tensor::from_vec(
            vec![0.4, 0.5, 0.6, 0.5, 0.5, 0.5],
            &[6, 1],
        ));
        let l = cs.loss(&mut g, z);
        g.backward(l);
        let grad = g.grad(z).expect("gradient");
        assert!(grad.norm() > 0.0);
    }

    #[test]
    fn displacement_loss_is_zero_at_origin() {
        let mut g = Graph::new();
        let dx = g.param(Tensor::from_vec(vec![0.0, 0.0], &[2]));
        let dy = g.param(Tensor::from_vec(vec![0.0, 1.0], &[2]));
        let w = g.input(Tensor::ones(&[2]));
        let l = weighted_displacement_loss(&mut g, dx, dy, w, 1.0);
        // only y[1] moved by 1 -> mean over 2 cells = 0.5
        assert!((g.value(l).data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn overlap_loss_ignores_below_target() {
        let mut g = Graph::new();
        let d = g.input(Tensor::from_vec(vec![0.2, 0.5, 1.5, 0.9], &[2, 1, 2]));
        let l = overlap_loss(&mut g, d, 1.0);
        // only the 1.5 bin exceeds: (0.5)^2 / 4
        assert!((g.value(l).data()[0] - 0.0625).abs() < 1e-6);
    }
}
