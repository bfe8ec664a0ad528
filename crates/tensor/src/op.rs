//! The tape's op set: one definition of every op.
//!
//! An [`Op`] knows its name, its operands, the output shape its operands
//! imply, and how to compute its value. The `Graph` builders record
//! through [`Op::forward`], `Graph::replay_value` re-runs that same
//! forward, and `Graph::validate` applies the same shape rule, so a
//! finite-difference check replays exactly the code the optimizers run.

use crate::conv::{
    checked_convt_out_size, conv2d_forward, conv_out_size, conv_transpose2d_forward,
    maxpool2d_forward,
};
use crate::{Csr, CustomOp, Tensor, Var};
use std::rc::Rc;

/// One recorded op; its `Var`s name its operands on the tape.
#[derive(Clone)]
pub(crate) enum Op {
    /// An `input` or `param`: no operands, no forward.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    AddScalar(Var, f32),
    MulScalar(Var, f32),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    Sqrt(Var),
    Square(Var),
    Clamp(Var, f32, f32),
    Matmul(Var, Var),
    AddBiasRow(Var, Var),
    AddBiasChan(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    /// Reshape to the stored target shape.
    Reshape(Var, Vec<usize>),
    Conv2d {
        x: Var,
        w: Var,
        b: Option<Var>,
        stride: usize,
        pad: usize,
    },
    ConvT2d {
        x: Var,
        w: Var,
        b: Option<Var>,
        stride: usize,
        pad: usize,
    },
    /// `indices` holds each output's argmax, set by [`Op::forward`].
    MaxPool2d {
        x: Var,
        k: usize,
        indices: Rc<Vec<u32>>,
    },
    ConcatChan(Vec<Var>),
    SliceChan {
        x: Var,
        start: usize,
        len: usize,
    },
    SliceCols {
        x: Var,
        start: usize,
        len: usize,
    },
    Spmm {
        a: Rc<Csr>,
        x: Var,
    },
    Custom {
        op: Rc<dyn CustomOp>,
        inputs: Vec<Var>,
    },
}

/// A conv bias, if present, must be `[c_out]`.
fn check_bias(b: Option<&[usize]>, c_out: usize) -> Result<(), String> {
    match b {
        Some(sb) if *sb != [c_out] => Err(format!("bias {sb:?} must be [{c_out}]")),
        _ => Ok(()),
    }
}

/// A convolution's stride must be positive: conv2d's output size divides
/// by it, and a transposed convolution at stride 0 would stack every tap.
fn check_stride(stride: usize) -> Result<(), String> {
    if stride == 0 {
        return Err("stride must be positive, got 0".to_string());
    }
    Ok(())
}

impl Op {
    /// Short op name, e.g. `"add"`, `"conv2d"`, or a custom op's own name.
    pub(crate) fn name(&self) -> &str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Div(..) => "div",
            Op::Neg(..) => "neg",
            Op::AddScalar(..) => "add_scalar",
            Op::MulScalar(..) => "mul_scalar",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Softplus(..) => "softplus",
            Op::Sqrt(..) => "sqrt",
            Op::Square(..) => "square",
            Op::Clamp(..) => "clamp",
            Op::Matmul(..) => "matmul",
            Op::AddBiasRow(..) => "add_bias_row",
            Op::AddBiasChan(..) => "add_bias_chan",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::Reshape(..) => "reshape",
            Op::Conv2d { .. } => "conv2d",
            Op::ConvT2d { .. } => "conv_transpose2d",
            Op::MaxPool2d { .. } => "maxpool2d",
            Op::ConcatChan(..) => "concat_chan",
            Op::SliceChan { .. } => "slice_chan",
            Op::SliceCols { .. } => "slice_cols",
            Op::Spmm { .. } => "spmm",
            Op::Custom { op, .. } => op.name(),
        }
    }

    /// The op's direct operands, in argument order.
    pub(crate) fn operands(&self) -> Vec<Var> {
        match self {
            Op::Leaf => Vec::new(),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Matmul(a, b)
            | Op::AddBiasRow(a, b)
            | Op::AddBiasChan(a, b) => vec![*a, *b],
            Op::Neg(a)
            | Op::AddScalar(a, _)
            | Op::MulScalar(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Softplus(a)
            | Op::Sqrt(a)
            | Op::Square(a)
            | Op::Clamp(a, _, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::Reshape(a, _)
            | Op::MaxPool2d { x: a, .. }
            | Op::SliceChan { x: a, .. }
            | Op::SliceCols { x: a, .. }
            | Op::Spmm { x: a, .. } => vec![*a],
            Op::Conv2d { x, w, b, .. } | Op::ConvT2d { x, w, b, .. } => {
                [*x, *w].into_iter().chain(*b).collect()
            }
            Op::ConcatChan(vs) | Op::Custom { inputs: vs, .. } => vs.clone(),
        }
    }

    /// The shape rule: the output shape the operands' shapes imply, or why
    /// they are incompatible. `Ok(None)` where only running the op can
    /// tell (a leaf, a custom op).
    pub(crate) fn shape<'a>(
        &self,
        shape: impl Fn(Var) -> &'a [usize],
    ) -> Result<Option<Vec<usize>>, String> {
        let out = match *self {
            Op::Leaf | Op::Custom { .. } => return Ok(None),
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                let (sa, sb) = (shape(a), shape(b));
                if sa != sb {
                    return Err(format!("elementwise operands disagree: {sa:?} vs {sb:?}"));
                }
                sa.to_vec()
            }
            Op::Neg(a)
            | Op::AddScalar(a, _)
            | Op::MulScalar(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Softplus(a)
            | Op::Sqrt(a)
            | Op::Square(a)
            | Op::Clamp(a, _, _) => shape(a).to_vec(),
            Op::Matmul(a, b) => match (shape(a), shape(b)) {
                (&[m, k], &[k2, n]) if k == k2 => vec![m, n],
                (sa, sb) => return Err(format!("needs [m, k] x [k, n], got {sa:?} x {sb:?}")),
            },
            Op::AddBiasRow(x, b) => match (shape(x), shape(b)) {
                (sx @ &[_, n], &[nb]) if n == nb => sx.to_vec(),
                (sx, sb) => return Err(format!("row bias {sb:?} does not broadcast over {sx:?}")),
            },
            Op::AddBiasChan(x, b) => match (shape(x), shape(b)) {
                (sx @ &[_, c, _, _], &[cb]) if c == cb => sx.to_vec(),
                (sx, sb) => {
                    return Err(format!(
                        "channel bias {sb:?} does not broadcast over {sx:?}"
                    ))
                }
            },
            Op::SumAll(_) | Op::MeanAll(_) => vec![1],
            Op::Reshape(a, ref to) => {
                let sa = shape(a);
                if sa.iter().product::<usize>() != to.iter().product::<usize>() {
                    return Err(format!("cannot reshape {sa:?} to {to:?}"));
                }
                to.clone()
            }
            Op::Conv2d {
                x,
                w,
                b,
                stride,
                pad,
            } => {
                let (sx, sw) = (shape(x), shape(w));
                let (&[n, c, h, wd], &[co, ci, kh, kw]) = (sx, sw) else {
                    return Err(format!("needs 4D x and w, got {sx:?} and {sw:?}"));
                };
                if c != ci {
                    return Err(format!("channel mismatch: x {sx:?} vs w {sw:?}"));
                }
                check_bias(b.map(&shape), co)?;
                check_stride(stride)?;
                if h + 2 * pad < kh || wd + 2 * pad < kw {
                    return Err(format!("kernel {sw:?} exceeds padded input {sx:?}"));
                }
                let size = |i, k| conv_out_size(i, k, stride, pad);
                vec![n, co, size(h, kh), size(wd, kw)]
            }
            Op::ConvT2d {
                x,
                w,
                b,
                stride,
                pad,
            } => {
                let (sx, sw) = (shape(x), shape(w));
                let (&[n, c, h, wd], &[ci, co, kh, kw]) = (sx, sw) else {
                    return Err(format!("needs 4D x and w, got {sx:?} and {sw:?}"));
                };
                if c != ci {
                    return Err(format!("channel mismatch: x {sx:?} vs w {sw:?}"));
                }
                check_bias(b.map(&shape), co)?;
                check_stride(stride)?;
                let size = |i, k| checked_convt_out_size(i, k, stride, pad);
                let (Some(oh), Some(ow)) = (size(h, kh), size(wd, kw)) else {
                    return Err(format!(
                        "kernel {sw:?} at stride {stride}, pad {pad} leaves no output for input {sx:?}"
                    ));
                };
                vec![n, co, oh, ow]
            }
            Op::MaxPool2d { x, k, .. } => match *shape(x) {
                [n, c, h, w] if k > 0 && h % k == 0 && w % k == 0 => vec![n, c, h / k, w / k],
                ref sx => return Err(format!("pool size {k} does not tile input {sx:?}")),
            },
            Op::ConcatChan(ref parts) => {
                let first = parts.first().map_or(&[][..], |&p| shape(p));
                let &[n, _, h, w] = first else {
                    return Err(format!("needs 4D inputs, got {first:?}"));
                };
                let mut c_total = 0;
                for &p in parts {
                    match *shape(p) {
                        [pn, c, ph, pw] if (pn, ph, pw) == (n, h, w) => c_total += c,
                        ref sp => {
                            return Err(format!("input {sp:?} disagrees with [{n}, _, {h}, {w}]"))
                        }
                    }
                }
                vec![n, c_total, h, w]
            }
            Op::SliceChan { x, start, len } => match *shape(x) {
                [n, c, h, w] if start + len <= c => vec![n, len, h, w],
                ref sx => {
                    return Err(format!(
                        "channel slice [{start}, {start}+{len}) out of range for {sx:?}"
                    ))
                }
            },
            Op::SliceCols { x, start, len } => match *shape(x) {
                [rows, cols] if start + len <= cols => vec![rows, len],
                ref sx => {
                    return Err(format!(
                        "column slice [{start}, {start}+{len}) out of range for {sx:?}"
                    ))
                }
            },
            Op::Spmm { ref a, x } => match *shape(x) {
                [k, f] if k == a.n_cols() => vec![a.n_rows(), f],
                ref sx => {
                    let (m, k) = (a.n_rows(), a.n_cols());
                    return Err(format!("[{m}, {k}] x {sx:?} inner dims disagree"));
                }
            },
        };
        Ok(Some(out))
    }

    /// Compute the op's value from its operands' values. A max-pool also
    /// keeps its argmax indices for backward.
    ///
    /// # Panics
    /// Panics with the shape rule's message if the operands are
    /// incompatible, and on a leaf.
    pub(crate) fn forward<'a>(&mut self, value: impl Fn(Var) -> &'a Tensor) -> Tensor {
        let expected = self
            .shape(|v| value(v).shape())
            .unwrap_or_else(|msg| panic!("{}: {msg}", self.name()));
        let out = match *self {
            Op::Leaf => panic!("a leaf has no forward"),
            Op::Add(a, b) => value(a).zip(value(b), |x, y| x + y),
            Op::Sub(a, b) => value(a).zip(value(b), |x, y| x - y),
            Op::Mul(a, b) => value(a).zip(value(b), |x, y| x * y),
            Op::Div(a, b) => value(a).zip(value(b), |x, y| x / y),
            Op::Neg(a) => value(a).map(|x| -x),
            Op::AddScalar(a, s) => value(a).map(|x| x + s),
            Op::MulScalar(a, s) => value(a).map(|x| x * s),
            Op::Relu(a) => value(a).map(|x| x.max(0.0)),
            Op::LeakyRelu(a, alpha) => value(a).map(|x| if x >= 0.0 { x } else { alpha * x }),
            Op::Sigmoid(a) => value(a).map(|x| 1.0 / (1.0 + (-x).exp())),
            Op::Tanh(a) => value(a).map(f32::tanh),
            Op::Softplus(a) => value(a).map(|x| if x > 20.0 { x } else { (1.0 + x.exp()).ln() }),
            Op::Sqrt(a) => value(a).map(|x| x.max(0.0).sqrt()),
            Op::Square(a) => value(a).map(|x| x * x),
            Op::Clamp(a, lo, hi) => value(a).map(|x| x.clamp(lo, hi)),
            Op::Matmul(a, b) => value(a).matmul(value(b)),
            Op::AddBiasRow(x, b) => {
                let bias = value(b).data();
                let mut out = value(x).clone();
                for row in out.data_mut().chunks_exact_mut(bias.len().max(1)) {
                    for (v, &bv) in row.iter_mut().zip(bias) {
                        *v += bv;
                    }
                }
                out
            }
            Op::AddBiasChan(x, b) => {
                let bias = value(b).data();
                let mut out = value(x).clone();
                let plane = out.shape()[2] * out.shape()[3];
                for (i, chan) in out.data_mut().chunks_exact_mut(plane.max(1)).enumerate() {
                    let bv = bias[i % bias.len()];
                    for v in chan {
                        *v += bv;
                    }
                }
                out
            }
            Op::SumAll(a) => Tensor::scalar(value(a).sum()),
            Op::MeanAll(a) => Tensor::scalar(value(a).mean()),
            Op::Reshape(a, ref to) => value(a).clone().reshaped(to),
            Op::Conv2d {
                x,
                w,
                b,
                stride,
                pad,
            } => conv2d_forward(value(x), value(w), b.map(&value), stride, pad),
            Op::ConvT2d {
                x,
                w,
                b,
                stride,
                pad,
            } => conv_transpose2d_forward(value(x), value(w), b.map(&value), stride, pad),
            Op::MaxPool2d {
                x,
                k,
                ref mut indices,
            } => {
                let (out, argmax) = maxpool2d_forward(value(x), k);
                *indices = Rc::new(argmax);
                out
            }
            Op::ConcatChan(ref parts) => {
                // Each image is its parts' channel blocks, back to back.
                let s = value(parts[0]).shape();
                let (n, plane) = (s[0], s[2] * s[3]);
                let c_total: usize = parts.iter().map(|&p| value(p).shape()[1]).sum();
                let mut data = Vec::with_capacity(n * c_total * plane);
                for bi in 0..n {
                    for &p in parts {
                        let block = value(p).shape()[1] * plane;
                        data.extend_from_slice(&value(p).data()[bi * block..(bi + 1) * block]);
                    }
                }
                Tensor::from_vec(data, &[n, c_total, s[2], s[3]])
            }
            Op::SliceChan { x, start, len } => {
                let xv = value(x);
                let s = xv.shape();
                let plane = s[2] * s[3];
                let mut data = Vec::with_capacity(s[0] * len * plane);
                for bi in 0..s[0] {
                    let from = (bi * s[1] + start) * plane;
                    data.extend_from_slice(&xv.data()[from..from + len * plane]);
                }
                Tensor::from_vec(data, &[s[0], len, s[2], s[3]])
            }
            Op::SliceCols { x, start, len } => {
                let xv = value(x);
                let (rows, cols) = (xv.shape()[0], xv.shape()[1]);
                let mut data = Vec::with_capacity(rows * len);
                for r in 0..rows {
                    let from = r * cols + start;
                    data.extend_from_slice(&xv.data()[from..from + len]);
                }
                Tensor::from_vec(data, &[rows, len])
            }
            Op::Spmm { ref a, x } => a.matmul_dense(value(x)),
            Op::Custom { ref op, ref inputs } => {
                let vals: Vec<&Tensor> = inputs.iter().map(|&v| value(v)).collect();
                op.forward(&vals)
            }
        };
        debug_assert!(
            expected.as_deref().is_none_or(|s| s == out.shape()),
            "{}: forward gave {:?}, shape rule {expected:?}",
            self.name(),
            out.shape()
        );
        out
    }
}
