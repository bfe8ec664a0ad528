//! Reverse-mode automatic differentiation over a flat tape.
//!
//! A [`Graph`] is rebuilt for every optimization step (define-by-run, like
//! PyTorch). Leaves are created with [`Graph::input`] (no gradient) or
//! [`Graph::param`] (gradient tracked); every op returns a new [`Var`].
//! Calling [`Graph::backward`] on a scalar propagates gradients to every
//! parameter, readable via [`Graph::grad`].
//!
//! Every builder checks its op's shape rule before computing anything and
//! panics with that rule's message (op name and operand shapes) when the
//! operands are incompatible; [`Graph::validate`] reports the same rule as
//! diagnostics instead.
//!
//! # Example
//!
//! ```
//! use dco_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.param(Tensor::from_vec(vec![2.0], &[1]));
//! let y = g.mul(x, x); // y = x^2
//! g.backward(y);
//! assert_eq!(g.grad(x).expect("grad").data(), &[4.0]); // dy/dx = 2x
//! ```

use crate::conv::{
    bias_chan_backward, conv2d_backward_input, conv2d_backward_weight,
    conv_transpose2d_backward_input, conv_transpose2d_backward_weight, maxpool2d_backward,
};
use crate::op::Op;
use crate::{Csr, Tensor};
use std::rc::Rc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position of this node on its graph's tape (0-based, creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A user-defined differentiable operation.
///
/// DCO-3D uses this for the soft feature-map rasterizer, whose backward pass
/// is the paper's hand-derived Eq. (6) rather than anything expressible with
/// the built-in ops.
pub trait CustomOp {
    /// Short name for debugging.
    fn name(&self) -> &str;
    /// Compute the output from the input values.
    fn forward(&self, inputs: &[&Tensor]) -> Tensor;
    /// Given input values, the forward output, and the output gradient,
    /// return one optional gradient per input (None = not differentiable /
    /// not needed).
    fn backward(
        &self,
        inputs: &[&Tensor],
        output: &Tensor,
        grad_output: &Tensor,
    ) -> Vec<Option<Tensor>>;
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
}

/// A define-by-run autograd tape.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Check `op`'s shape rule, run its forward on the operands' recorded
    /// values, and append it.
    fn record(&mut self, mut op: Op) -> Var {
        let value = op.forward(|v| &self.nodes[v.0].value);
        let requires_grad = op.operands().iter().any(|v| self.nodes[v.0].requires_grad);
        self.push(value, op, requires_grad)
    }

    /// Add a constant leaf (no gradient tracked).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Add a trainable leaf (gradient tracked).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Replace the value of a leaf in place, without rebuilding the tape.
    ///
    /// Downstream nodes keep the values recorded at build time: the tape is
    /// never re-executed. [`Graph::replay_value`] recomputes one node from
    /// the current leaves and returns it without touching the tape, and
    /// inconsistencies introduced here (e.g. a shape change) are caught by
    /// [`Graph::validate`].
    ///
    /// # Panics
    /// Panics if `v` is not a leaf ([`Graph::input`] / [`Graph::param`]).
    pub fn set_leaf(&mut self, v: Var, value: Tensor) {
        assert!(
            matches!(self.nodes[v.0].op, Op::Leaf),
            "set_leaf: node {} is not a leaf",
            v.0
        );
        self.nodes[v.0].value = value;
    }

    /// The current value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`Graph::backward`] target w.r.t. `v`, if
    /// any was propagated.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    // ---- elementwise -----------------------------------------------------

    /// Elementwise `a + b` (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b))
    }

    /// Elementwise `a - b` (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b))
    }

    /// Elementwise `a * b` (same shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a, b))
    }

    /// Elementwise `a / b` (same shapes; caller must avoid zeros in `b`).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Div(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.record(Op::Neg(a))
    }

    /// `a + s` for scalar `s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.record(Op::AddScalar(a, s))
    }

    /// `a * s` for scalar `s`.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        self.record(Op::MulScalar(a, s))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Op::Relu(a))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.record(Op::LeakyRelu(a, alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Op::Tanh(a))
    }

    /// Softplus `ln(1 + e^x)`, a smooth ReLU.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.record(Op::Softplus(a))
    }

    /// Elementwise square root (inputs must be non-negative).
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.record(Op::Sqrt(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.record(Op::Square(a))
    }

    /// Clamp to `[lo, hi]` with straight-through subgradient inside the
    /// interval and zero outside.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        self.record(Op::Clamp(a, lo, hi))
    }

    // ---- linear algebra ----------------------------------------------------

    /// Dense matrix multiply `[m,k] x [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Matmul(a, b))
    }

    /// Broadcast-add a row bias: `x [r, n] + b [n]`.
    pub fn add_bias_row(&mut self, x: Var, b: Var) -> Var {
        self.record(Op::AddBiasRow(x, b))
    }

    /// Broadcast-add a channel bias: `x [b, c, h, w] + bias [c]`.
    pub fn add_bias_chan(&mut self, x: Var, b: Var) -> Var {
        self.record(Op::AddBiasChan(x, b))
    }

    /// Sparse × dense product with a constant CSR matrix.
    pub fn spmm(&mut self, a: Rc<Csr>, x: Var) -> Var {
        self.record(Op::Spmm { a, x })
    }

    // ---- reductions / shape -------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a))
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a))
    }

    /// Reshape to a new shape with the same element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        self.record(Op::Reshape(a, shape.to_vec()))
    }

    // ---- convolution stack ----------------------------------------------------

    /// 2D convolution; `x` is `[B,C,H,W]`, `w` is `[C_out,C_in,KH,KW]`.
    pub fn conv2d(&mut self, x: Var, w: Var, b: Option<Var>, stride: usize, pad: usize) -> Var {
        self.record(Op::Conv2d {
            x,
            w,
            b,
            stride,
            pad,
        })
    }

    /// 2D transposed convolution; `w` is `[C_in,C_out,KH,KW]`.
    pub fn conv_transpose2d(
        &mut self,
        x: Var,
        w: Var,
        b: Option<Var>,
        stride: usize,
        pad: usize,
    ) -> Var {
        self.record(Op::ConvT2d {
            x,
            w,
            b,
            stride,
            pad,
        })
    }

    /// k×k max pooling (k must divide H and W).
    pub fn maxpool2d(&mut self, x: Var, k: usize) -> Var {
        self.record(Op::MaxPool2d {
            x,
            k,
            indices: Rc::default(),
        })
    }

    /// Concatenate along the channel axis; all inputs `[B,C_i,H,W]` with
    /// the same batch and spatial dims, at least one of them.
    pub fn concat_chan(&mut self, parts: &[Var]) -> Var {
        self.record(Op::ConcatChan(parts.to_vec()))
    }

    /// Slice `len` channels starting at `start`: `[B,C,H,W] -> [B,len,H,W]`.
    pub fn slice_chan(&mut self, x: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceChan { x, start, len })
    }

    /// Slice `len` columns starting at `start`: `[R,C] -> [R,len]`.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceCols { x, start, len })
    }

    /// Record a user-defined differentiable op.
    pub fn custom(&mut self, op: Rc<dyn CustomOp>, inputs: &[Var]) -> Var {
        self.record(Op::Custom {
            op,
            inputs: inputs.to_vec(),
        })
    }

    // ---- backward ------------------------------------------------------------

    /// Backpropagate from scalar `target`, filling gradients of every
    /// gradient-requiring node reachable from it.
    ///
    /// Each op computes only the operand gradients whose node
    /// `requires_grad`. A frozen weight (a [`Graph::input`], as in
    /// DCO's pass through the trained UNet) costs no weight GEMM and no
    /// bias reduction; an input-feature operand costs no input-gradient
    /// GEMM. Node values and the upstream gradient are borrowed, not
    /// copied.
    ///
    /// # Panics
    /// Panics if `target` is not a scalar (one element).
    pub fn backward(&mut self, target: Var) {
        assert_eq!(
            self.value(target).len(),
            1,
            "backward target must be scalar"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        if !self.nodes[target.0].requires_grad {
            return;
        }
        self.nodes[target.0].grad = Some(Tensor::ones(self.value(target).shape()));
        for i in (0..=target.0).rev() {
            // Operands always precede their node on the tape.
            let (operands, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            if !node.requires_grad {
                continue;
            }
            if let Some(gy) = &node.grad {
                Operands(operands).backprop(node, gy);
            }
        }
    }
}

/// The tape before the node being differentiated: every operand it can
/// name, borrowed mutably so their gradients accumulate in place.
struct Operands<'a>(&'a mut [Node]);

impl Operands<'_> {
    fn value(&self, v: Var) -> &Tensor {
        &self.0[v.0].value
    }

    fn needs(&self, v: Var) -> bool {
        self.0[v.0].requires_grad
    }

    /// Add `g` into `v`'s gradient; a no-op for nodes that need none.
    fn accum(&mut self, v: Var, g: Tensor) {
        let node = &mut self.0[v.0];
        if !node.requires_grad {
            return;
        }
        match &mut node.grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Self::accum`] for a pass-through gradient: copied only into an
    /// empty slot.
    fn accum_ref(&mut self, v: Var, g: &Tensor) {
        let node = &mut self.0[v.0];
        if !node.requires_grad {
            return;
        }
        match &mut node.grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Propagate `node`'s output gradient `gy` to its operands.
    fn backprop(&mut self, node: &Node, gy: &Tensor) {
        match &node.op {
            Op::Leaf => {}
            &Op::Add(a, b) => {
                self.accum_ref(a, gy);
                self.accum_ref(b, gy);
            }
            &Op::Sub(a, b) => {
                self.accum_ref(a, gy);
                if self.needs(b) {
                    self.accum(b, gy.map(|v| -v));
                }
            }
            &Op::Mul(a, b) => {
                if self.needs(a) {
                    self.accum(a, gy.zip(self.value(b), |g, y| g * y));
                }
                if self.needs(b) {
                    self.accum(b, gy.zip(self.value(a), |g, x| g * x));
                }
            }
            &Op::Div(a, b) => {
                if self.needs(a) {
                    self.accum(a, gy.zip(self.value(b), |g, y| g / y));
                }
                if self.needs(b) {
                    let gb = gy
                        .zip(self.value(a), |g, x| g * x)
                        .zip(self.value(b), |gx_, y| -gx_ / (y * y));
                    self.accum(b, gb);
                }
            }
            &Op::Neg(a) => self.accum(a, gy.map(|v| -v)),
            &Op::AddScalar(a, _) => self.accum_ref(a, gy),
            &Op::MulScalar(a, s) => self.accum(a, gy.map(|v| v * s)),
            &Op::Relu(a) => {
                self.accum(
                    a,
                    gy.zip(self.value(a), |g, x| if x > 0.0 { g } else { 0.0 }),
                );
            }
            &Op::LeakyRelu(a, alpha) => {
                let g = gy.zip(self.value(a), |g, x| if x >= 0.0 { g } else { alpha * g });
                self.accum(a, g);
            }
            &Op::Sigmoid(a) => self.accum(a, gy.zip(&node.value, |g, y| g * y * (1.0 - y))),
            &Op::Tanh(a) => self.accum(a, gy.zip(&node.value, |g, y| g * (1.0 - y * y))),
            &Op::Softplus(a) => {
                self.accum(a, gy.zip(self.value(a), |g, x| g / (1.0 + (-x).exp())));
            }
            &Op::Sqrt(a) => {
                let g = gy.zip(
                    &node.value,
                    |g, y| if y > 1e-12 { g / (2.0 * y) } else { 0.0 },
                );
                self.accum(a, g);
            }
            &Op::Square(a) => self.accum(a, gy.zip(self.value(a), |g, x| 2.0 * g * x)),
            &Op::Clamp(a, lo, hi) => {
                let g = gy.zip(
                    self.value(a),
                    |g, x| if x >= lo && x <= hi { g } else { 0.0 },
                );
                self.accum(a, g);
            }
            &Op::Matmul(a, b) => {
                if self.needs(a) {
                    self.accum(a, gy.matmul(&self.value(b).transposed()));
                }
                if self.needs(b) {
                    self.accum(b, self.value(a).transposed().matmul(gy));
                }
            }
            &Op::AddBiasRow(x, b) => {
                self.accum_ref(x, gy);
                if self.needs(b) {
                    let n = self.value(b).len();
                    let rows = gy.len() / n;
                    let mut gb = Tensor::zeros(&[n]);
                    for r in 0..rows {
                        for j in 0..n {
                            gb.data_mut()[j] += gy.data()[r * n + j];
                        }
                    }
                    self.accum(b, gb);
                }
            }
            &Op::AddBiasChan(x, b) => {
                self.accum_ref(x, gy);
                if self.needs(b) {
                    self.accum(b, bias_chan_backward(gy));
                }
            }
            &Op::SumAll(a) => {
                let g = Tensor::full(self.value(a).shape(), gy.data()[0]);
                self.accum(a, g);
            }
            &Op::MeanAll(a) => {
                let n = self.value(a).len().max(1);
                let g = Tensor::full(self.value(a).shape(), gy.data()[0] / n as f32);
                self.accum(a, g);
            }
            &Op::Reshape(a, _) => {
                let g = gy.clone().reshaped(self.value(a).shape());
                self.accum(a, g);
            }
            &Op::Conv2d {
                x,
                w,
                b,
                stride,
                pad,
            } => {
                if self.needs(x) {
                    let shape = self.value(x).shape();
                    let gx = conv2d_backward_input(shape, self.value(w), stride, pad, gy);
                    self.accum(x, gx);
                }
                if self.needs(w) {
                    let shape = self.value(w).shape();
                    let gw = conv2d_backward_weight(self.value(x), shape, stride, pad, gy);
                    self.accum(w, gw);
                }
                if let Some(b) = b.filter(|&b| self.needs(b)) {
                    self.accum(b, bias_chan_backward(gy));
                }
            }
            &Op::ConvT2d {
                x,
                w,
                b,
                stride,
                pad,
            } => {
                if self.needs(x) {
                    let gx = conv_transpose2d_backward_input(self.value(w), stride, pad, gy);
                    self.accum(x, gx);
                }
                if self.needs(w) {
                    let shape = self.value(w).shape();
                    let gw =
                        conv_transpose2d_backward_weight(self.value(x), shape, stride, pad, gy);
                    self.accum(w, gw);
                }
                if let Some(b) = b.filter(|&b| self.needs(b)) {
                    self.accum(b, bias_chan_backward(gy));
                }
            }
            Op::MaxPool2d { x, k: _, indices } => {
                let gx = maxpool2d_backward(indices, self.value(*x).shape(), gy);
                self.accum(*x, gx);
            }
            Op::ConcatChan(parts) => {
                let shape = gy.shape();
                let (bsz, c_total, h, w) = (shape[0], shape[1], shape[2], shape[3]);
                let plane = h * w;
                let mut c_off = 0;
                for &p in parts.iter() {
                    let c = self.value(p).shape()[1];
                    if self.needs(p) {
                        let mut gp = Tensor::zeros(&[bsz, c, h, w]);
                        for bi in 0..bsz {
                            for ci in 0..c {
                                let sbase = (bi * c_total + c_off + ci) * plane;
                                let dbase = (bi * c + ci) * plane;
                                gp.data_mut()[dbase..dbase + plane]
                                    .copy_from_slice(&gy.data()[sbase..sbase + plane]);
                            }
                        }
                        self.accum(p, gp);
                    }
                    c_off += c;
                }
            }
            &Op::SliceChan { x, start, len } => {
                let shape = self.value(x).shape();
                let (bsz, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
                let plane = h * w;
                let mut gx = Tensor::zeros(shape);
                for bi in 0..bsz {
                    for ci in 0..len {
                        let dbase = (bi * c + start + ci) * plane;
                        let sbase = (bi * len + ci) * plane;
                        gx.data_mut()[dbase..dbase + plane]
                            .copy_from_slice(&gy.data()[sbase..sbase + plane]);
                    }
                }
                self.accum(x, gx);
            }
            &Op::SliceCols { x, start, len } => {
                let shape = self.value(x).shape();
                let (rows, cols) = (shape[0], shape[1]);
                let mut gx = Tensor::zeros(shape);
                for r in 0..rows {
                    for j in 0..len {
                        gx.data_mut()[r * cols + start + j] = gy.data()[r * len + j];
                    }
                }
                self.accum(x, gx);
            }
            Op::Spmm { a, x } => self.accum(*x, a.transpose_matmul_dense(gy)),
            Op::Custom { op, inputs } => {
                let vals: Vec<&Tensor> = inputs.iter().map(|&v| self.value(v)).collect();
                let grads = op.backward(&vals, &node.value, gy);
                assert_eq!(
                    grads.len(),
                    inputs.len(),
                    "custom op {} returned wrong gradient count",
                    op.name()
                );
                for (&inp, g) in inputs.iter().zip(grads) {
                    if let Some(g) = g {
                        self.accum(inp, g);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check for a scalar function of a single tensor.
    fn gradcheck(build: impl Fn(&mut Graph, Var) -> Var, x0: Tensor, tol: f32) {
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let y = build(&mut g, x);
        g.backward(y);
        let analytic = g.grad(x).expect("gradient").clone();
        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut xp = x0.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x0.clone();
            xm.data_mut()[i] -= eps;
            let mut gp = Graph::new();
            let vp = gp.param(xp);
            let yp = build(&mut gp, vp);
            let mut gm = Graph::new();
            let vm = gm.param(xm);
            let ym = build(&mut gm, vm);
            let num = (gp.value(yp).data()[0] - gm.value(ym).data()[0]) / (2.0 * eps);
            let ana = analytic.data()[i];
            assert!(
                (num - ana).abs() < tol,
                "grad[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn simple_chain_rule() {
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(3.0));
        let y = g.mul(x, x);
        let z = g.mul_scalar(y, 2.0); // z = 2x^2
        g.backward(z);
        assert_eq!(g.grad(x).expect("grad").data(), &[12.0]);
    }

    #[test]
    fn gradients_accumulate_over_branches() {
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(2.0));
        let a = g.mul(x, x); // x^2
        let b = g.mul_scalar(x, 3.0); // 3x
        let s = g.add(a, b); // x^2 + 3x
        g.backward(s);
        assert_eq!(g.grad(x).expect("grad").data(), &[7.0]); // 2x + 3
    }

    #[test]
    fn inputs_get_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(2.0));
        let w = g.param(Tensor::scalar(5.0));
        let y = g.mul(x, w);
        g.backward(y);
        assert!(g.grad(x).is_none());
        assert_eq!(g.grad(w).expect("grad").data(), &[2.0]);
    }

    #[test]
    fn gradcheck_elementwise_ops() {
        let x0 = Tensor::from_vec(vec![0.5, -0.3, 1.2, -1.7], &[4]);
        gradcheck(
            |g, x| {
                let y = g.sigmoid(x);
                g.sum_all(y)
            },
            x0.clone(),
            1e-2,
        );
        gradcheck(
            |g, x| {
                let y = g.tanh(x);
                g.sum_all(y)
            },
            x0.clone(),
            1e-2,
        );
        gradcheck(
            |g, x| {
                let y = g.softplus(x);
                g.sum_all(y)
            },
            x0.clone(),
            1e-2,
        );
        gradcheck(
            |g, x| {
                let y = g.square(x);
                g.mean_all(y)
            },
            x0.clone(),
            1e-2,
        );
        gradcheck(
            |g, x| {
                let y = g.leaky_relu(x, 0.1);
                g.sum_all(y)
            },
            x0.clone(),
            1e-2,
        );
        gradcheck(
            |g, x| {
                let y = g.mul(x, x);
                let z = g.add_scalar(y, 1.0);
                let w = g.sqrt(z);
                g.sum_all(w)
            },
            x0,
            1e-2,
        );
    }

    #[test]
    fn gradcheck_div() {
        let x0 = Tensor::from_vec(vec![1.0, 2.0, -3.0], &[3]);
        gradcheck(
            |g, x| {
                let two = g.input(Tensor::from_vec(vec![2.0, 4.0, 5.0], &[3]));
                let y = g.div(x, two);
                g.sum_all(y)
            },
            x0,
            1e-2,
        );
    }

    #[test]
    fn gradcheck_matmul() {
        let x0 = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]);
        gradcheck(
            |g, x| {
                let w = g.input(Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2], &[2, 2]));
                let y = g.matmul(x, w);
                let s = g.square(y);
                g.sum_all(s)
            },
            x0,
            2e-1,
        );
    }

    #[test]
    fn gradcheck_conv_graph() {
        let x0 = Tensor::from_vec(
            (0..16).map(|v| v as f32 * 0.1 - 0.8).collect(),
            &[1, 1, 4, 4],
        );
        gradcheck(
            |g, x| {
                let w = g.input(Tensor::from_vec(
                    vec![0.5, -0.2, 0.1, 0.7, -0.4, 0.3, 0.2, -0.1, 0.6],
                    &[1, 1, 3, 3],
                ));
                let y = g.conv2d(x, w, None, 1, 1);
                let r = g.square(y); // smooth nonlinearity keeps finite differences valid
                g.sum_all(r)
            },
            x0,
            5e-2,
        );
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let mut g = Graph::new();
        let a = g.param(Tensor::full(&[1, 2, 2, 2], 1.0));
        let b = g.param(Tensor::full(&[1, 3, 2, 2], 2.0));
        let cat = g.concat_chan(&[a, b]);
        assert_eq!(g.value(cat).shape(), &[1, 5, 2, 2]);
        let back = g.slice_chan(cat, 2, 3);
        assert_eq!(g.value(back).data(), g.value(b).data());
        let s = g.sum_all(back);
        g.backward(s);
        assert_eq!(g.grad(b).expect("grad").sum(), 12.0);
        assert_eq!(g.grad(a).expect("grad").sum(), 0.0);
    }

    #[test]
    fn slice_cols_grads_scatter() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]));
        let y = g.slice_cols(x, 1, 1);
        assert_eq!(g.value(y).data(), &[2.0, 5.0]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).expect("grad").data(), &[0., 1., 0., 0., 1., 0.]);
    }

    #[test]
    fn spmm_backward_uses_transpose() {
        let a = Rc::new(Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)],
        ));
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let y = g.spmm(a, x);
        assert_eq!(g.value(y).data(), &[5.0, 6.0]);
        let s = g.sum_all(y);
        g.backward(s);
        // d(sum)/dx = A^T 1 = [1, 5]
        assert_eq!(g.grad(x).expect("grad").data(), &[1.0, 5.0]);
    }

    struct DoubleOp;
    impl CustomOp for DoubleOp {
        fn name(&self) -> &str {
            "double"
        }
        fn forward(&self, inputs: &[&Tensor]) -> Tensor {
            inputs[0].map(|v| 2.0 * v)
        }
        fn backward(
            &self,
            _inputs: &[&Tensor],
            _output: &Tensor,
            grad_output: &Tensor,
        ) -> Vec<Option<Tensor>> {
            vec![Some(grad_output.map(|v| 2.0 * v))]
        }
    }

    #[test]
    fn custom_op_backward_is_invoked() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.custom(Rc::new(DoubleOp), &[x]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).expect("grad").data(), &[2.0, 2.0]);
    }

    #[test]
    fn neg_and_clamp_gradients() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[4]));
        let c = g.clamp(x, -1.0, 1.0);
        let n = g.neg(c);
        let s = g.sum_all(n);
        g.backward(s);
        // straight-through inside [-1, 1], zero outside; negated
        assert_eq!(g.grad(x).expect("grad").data(), &[0.0, -1.0, -1.0, 0.0]);
        assert_eq!(g.value(c).data(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn bias_gradients_match_finite_differences() {
        let x0 = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6], &[2, 3]);
        gradcheck(
            |g, x| {
                let b = g.input(Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]));
                let y = g.add_bias_row(x, b);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            x0,
            1e-2,
        );
        // channel bias: gradient of bias = sum over batch*spatial
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2, 3, 2, 2]));
        let b = g.param(Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]));
        let y = g.add_bias_chan(x, b);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(b).expect("grad").data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn reshape_routes_gradients_back() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let r = g.reshape(x, &[4]);
        let sq = g.square(r);
        let s = g.sum_all(sq);
        g.backward(s);
        let grad = g.grad(x).expect("grad");
        assert_eq!(grad.shape(), &[2, 2]);
        assert_eq!(grad.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn rectangular_spmm_shapes() {
        let a = Rc::new(Csr::from_triplets(2, 3, vec![(0, 2, 1.0), (1, 0, 2.0)]));
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[3, 2]));
        let y = g.spmm(a, x);
        assert_eq!(g.value(y).shape(), &[2, 2]);
        assert_eq!(g.value(y).data(), &[5.0, 6.0, 2.0, 4.0]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).expect("grad").shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range for [1, 4, 2, 2]")]
    fn builders_panic_with_the_shape_rule_message() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 4, 2, 2]));
        g.slice_chan(x, 2, 3);
    }

    #[test]
    #[should_panic(
        expected = "conv_transpose2d: kernel [1, 1, 3, 3] at stride 1, pad 2 leaves no output for input [1, 1, 1, 1]"
    )]
    fn conv_transpose2d_builder_rejects_an_output_cropped_to_nothing() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 1, 1, 1]));
        let w = g.input(Tensor::zeros(&[1, 1, 3, 3]));
        g.conv_transpose2d(x, w, None, 1, 2);
    }

    #[test]
    #[should_panic(expected = "conv2d: stride must be positive, got 0")]
    fn conv2d_builder_rejects_stride_zero() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 1, 4, 4]));
        let w = g.input(Tensor::zeros(&[1, 1, 3, 3]));
        g.conv2d(x, w, None, 0, 1);
    }

    #[test]
    #[should_panic(expected = "backward target must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.param(Tensor::ones(&[2]));
        g.backward(x);
    }

    #[test]
    fn maxpool_in_graph() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(
            vec![
                1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.,
            ],
            &[1, 1, 4, 4],
        ));
        let y = g.maxpool2d(x, 2);
        assert_eq!(g.value(y).data(), &[6., 8., 14., 16.]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).expect("grad").sum(), 4.0);
    }
}
