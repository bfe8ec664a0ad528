//! Static analysis and replay over a recorded autograd tape.
//!
//! A [`Graph`] is a flat tape of ops; this module lets tools check that
//! tape without trusting its recorded values:
//!
//! - [`Graph::validate`] runs every op's shape rule, gradient
//!   reachability, dead-node detection, and NaN-hazard flagging, returning
//!   [`Diagnostic`]s instead of panicking,
//! - [`Graph::replay_value`] re-executes the tape from (optionally
//!   overridden) leaf values — the primitive finite-difference gradient
//!   checking is built on (see the `dco-check` crate).
//!
//! Both dispatch through the same per-op definition (name, operands, shape
//! rule, forward) the [`Graph`] builders record with, so a replay runs
//! exactly the forward code the optimizers run.

use crate::graph::Node;
use crate::op::Op;
use crate::{Graph, Tensor, Var};
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable (dead node, NaN hazard, unreachable param).
    Warning,
    /// The graph is inconsistent; backward/replay results are unreliable.
    Error,
}

/// What a [`Diagnostic`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// Operand shapes are incompatible, or a recorded output shape does not
    /// match what the op would produce (e.g. after [`Graph::set_leaf`]).
    ShapeMismatch,
    /// A `param` leaf with no path to the validation root: `backward` from
    /// that root can never give it a gradient.
    UnreachableParam,
    /// A non-leaf node that does not feed the validation root.
    DeadNode,
    /// A `div`/`sqrt` whose input is not guarded against zero (by `clamp`
    /// with a positive bound, a nonzero `add_scalar`, or a positive-output
    /// op), risking NaN/Inf values or exploding gradients.
    NanHazard,
    /// A recorded value already contains NaN or Inf.
    NonFiniteValue,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticKind::ShapeMismatch => "shape-mismatch",
            DiagnosticKind::UnreachableParam => "unreachable-param",
            DiagnosticKind::DeadNode => "dead-node",
            DiagnosticKind::NanHazard => "nan-hazard",
            DiagnosticKind::NonFiniteValue => "non-finite-value",
        };
        f.write_str(s)
    }
}

/// One finding from [`Graph::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Offending node's tape id.
    pub node: usize,
    /// Offending node's op name.
    pub op: String,
    /// Severity.
    pub severity: Severity,
    /// Category.
    pub kind: DiagnosticKind,
    /// Human-readable detail (operand shapes, guard advice, ...).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev}[{}] node {} ({}): {}",
            self.kind, self.node, self.op, self.message
        )
    }
}

/// Whether `v`'s op guarantees an output bounded away from zero (or at least
/// non-negative for sqrt), making a downstream `div`/`sqrt` safe.
fn guards_against_zero(nodes: &[Node], v: Var) -> bool {
    match &nodes[v.0].op {
        // The canonical eps guard: x + eps with eps != 0.
        Op::AddScalar(_, s) => *s != 0.0,
        // Clamp with a bound excluding zero.
        Op::Clamp(_, lo, hi) => *lo > 0.0 || *hi < 0.0,
        // Strictly positive by construction.
        Op::Softplus(_) | Op::Sigmoid(_) => true,
        // Scaling preserves whatever guarantee the operand has.
        Op::MulScalar(a, s) => *s != 0.0 && guards_against_zero(nodes, *a),
        _ => false,
    }
}

/// Whether `v`'s op guarantees a non-negative output (safe under sqrt).
fn non_negative(nodes: &[Node], v: Var) -> bool {
    match &nodes[v.0].op {
        Op::Square(_) | Op::Relu(_) | Op::Sigmoid(_) | Op::Softplus(_) | Op::Sqrt(_) => true,
        Op::Clamp(_, lo, _) => *lo >= 0.0,
        Op::AddScalar(a, s) => *s >= 0.0 && non_negative(nodes, *a),
        Op::MulScalar(a, s) => *s >= 0.0 && non_negative(nodes, *a),
        Op::MeanAll(a) | Op::SumAll(a) | Op::Reshape(a, _) => non_negative(nodes, *a),
        Op::Mul(a, b) => a == b, // x * x
        _ => false,
    }
}

impl Graph {
    /// All trainable leaves (`param`) on the tape.
    pub fn param_vars(&self) -> Vec<Var> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Leaf) && n.requires_grad)
            .map(|(i, _)| Var(i))
            .collect()
    }

    /// Statically analyze the tape against backward from `root`.
    ///
    /// Runs four passes without executing any op:
    ///
    /// 1. **Shape rules** — recompute each node's output shape from its
    ///    operands' recorded shapes with the rule its builder checked;
    ///    incompatible operands or a stale recorded shape (possible after
    ///    [`Graph::set_leaf`]) are errors.
    /// 2. **Gradient reachability** — every `param` must have a path to
    ///    `root`, else `backward(root)` silently leaves it without a
    ///    gradient (warning).
    /// 3. **Dead nodes** — non-leaf nodes that do not feed `root` were
    ///    computed for nothing (warning).
    /// 4. **NaN hazards** — `div` whose divisor and `sqrt` whose input is
    ///    not visibly guarded (eps `add_scalar`, zero-excluding `clamp`, or
    ///    a positive-output op) (warning). Recorded non-finite values are
    ///    errors.
    ///
    /// Diagnostics are ordered by node id.
    pub fn validate(&self, root: Var) -> Vec<Diagnostic> {
        let nodes = &self.nodes;
        let mut diags = Vec::new();
        let mut report = |node: usize, severity, kind, message| {
            let op = nodes[node].op.name().to_string();
            diags.push(Diagnostic {
                node,
                op,
                severity,
                kind,
                message,
            });
        };

        // Pass 1: shape rules + non-finite recorded values.
        for (i, n) in nodes.iter().enumerate() {
            let recorded = n.value.shape();
            let mismatch = match n.op.shape(|v| nodes[v.0].value.shape()) {
                Err(msg) => Some(msg),
                Ok(Some(expected)) if expected != recorded => Some(format!(
                    "recorded output shape {recorded:?} but operands imply {expected:?}"
                )),
                Ok(_) => None,
            };
            if let Some(msg) = mismatch {
                report(i, Severity::Error, DiagnosticKind::ShapeMismatch, msg);
            }
            if n.value.data().iter().any(|v| !v.is_finite()) {
                let msg = "recorded value contains NaN or Inf".to_string();
                report(i, Severity::Error, DiagnosticKind::NonFiniteValue, msg);
            }
        }

        // Reachability: which nodes feed `root`?
        let mut reachable = vec![false; nodes.len()];
        reachable[root.0] = true;
        for i in (0..=root.0).rev() {
            if reachable[i] {
                for v in nodes[i].op.operands() {
                    reachable[v.0] = true;
                }
            }
        }

        // Pass 2: unreachable params.
        for (i, n) in nodes.iter().enumerate() {
            if matches!(n.op, Op::Leaf) && n.requires_grad && !reachable[i] {
                let msg = format!(
                    "param has no path to backward root (node {}); it will never \
                     receive a gradient",
                    root.0
                );
                report(i, Severity::Warning, DiagnosticKind::UnreachableParam, msg);
            }
        }

        // Pass 3: dead non-leaf nodes.
        for (i, n) in nodes.iter().enumerate() {
            if !matches!(n.op, Op::Leaf) && !reachable[i] {
                let msg = format!("computed but does not feed root (node {})", root.0);
                report(i, Severity::Warning, DiagnosticKind::DeadNode, msg);
            }
        }

        // Pass 4: unguarded div / sqrt.
        for (i, n) in nodes.iter().enumerate() {
            let msg = match n.op {
                Op::Div(_, b) if !guards_against_zero(nodes, b) => format!(
                    "divisor (node {}, {}) is not guarded against zero; add an eps \
                     via add_scalar or clamp away from zero",
                    b.0,
                    nodes[b.0].op.name()
                ),
                Op::Sqrt(a) if !guards_against_zero(nodes, a) && !non_negative(nodes, a) => {
                    format!(
                        "input (node {}, {}) may be zero or negative; the gradient \
                         explodes near zero — guard with add_scalar(eps)",
                        a.0,
                        nodes[a.0].op.name()
                    )
                }
                _ => continue,
            };
            report(i, Severity::Warning, DiagnosticKind::NanHazard, msg);
        }

        diags.sort_by_key(|d| d.node);
        diags
    }

    /// Re-execute the tape up to `target` and return its recomputed value.
    ///
    /// `overrides` substitutes values for leaf nodes (by `Var`); all other
    /// leaves use their recorded values. Every non-leaf node is recomputed
    /// by the same op forward its builder ran — max-pool argmax indices and
    /// custom-op forwards included — so this is a true forward pass,
    /// suitable as the function evaluation inside finite-difference
    /// gradient checks. The recorded tape is left untouched.
    ///
    /// # Panics
    /// Panics if an override targets a non-leaf node or changes a leaf's
    /// shape, or if an op's shape rule rejects its recomputed operands
    /// (validate first to get diagnostics instead).
    pub fn replay_value(&self, target: Var, overrides: &[(Var, Tensor)]) -> Tensor {
        for (v, t) in overrides {
            assert!(
                matches!(self.nodes[v.0].op, Op::Leaf),
                "replay override on non-leaf node {}",
                v.0
            );
            assert_eq!(
                t.shape(),
                self.nodes[v.0].value.shape(),
                "replay override changes shape of node {}",
                v.0
            );
        }
        let mut values: Vec<Tensor> = Vec::with_capacity(target.0 + 1);
        for (i, node) in self.nodes[..=target.0].iter().enumerate() {
            let out = match &node.op {
                Op::Leaf => overrides
                    .iter()
                    .find(|(v, _)| v.0 == i)
                    .map_or(&node.value, |(_, t)| t)
                    .clone(),
                op => op.clone().forward(|v| &values[v.0]),
            };
            values.push(out);
        }
        // the loop pushed exactly target.0 + 1 values
        values.swap_remove(target.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// A custom op multiplying its input by a constant.
    struct Scale(f32);

    impl crate::CustomOp for Scale {
        fn name(&self) -> &str {
            "scale"
        }
        fn forward(&self, inputs: &[&Tensor]) -> Tensor {
            let s = self.0;
            inputs[0].map(|v| s * v)
        }
        fn backward(
            &self,
            _inputs: &[&Tensor],
            _output: &Tensor,
            grad_output: &Tensor,
        ) -> Vec<Option<Tensor>> {
            let s = self.0;
            vec![Some(grad_output.map(|v| s * v))]
        }
    }

    fn well_formed() -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], &[4]));
        let sq = g.square(x);
        let eps = g.add_scalar(sq, 1e-6);
        let one = g.input(Tensor::ones(&[4]));
        let d = g.div(one, eps);
        let root = g.sum_all(d);
        (g, x, root)
    }

    #[test]
    fn clean_graph_has_no_diagnostics() {
        let (g, _, root) = well_formed();
        let diags = g.validate(root);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn param_vars_lists_trainable_leaves() {
        let (g, x, _) = well_formed();
        assert_eq!(g.param_vars(), vec![x]);
    }

    #[test]
    fn stale_leaf_shape_is_an_error() {
        let (mut g, x, root) = well_formed();
        g.set_leaf(x, Tensor::ones(&[3]));
        let diags = g.validate(root);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ShapeMismatch && d.severity == Severity::Error));
        // the first mismatch is at the square node, whose operand changed
        let first = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::ShapeMismatch)
            .expect("diag");
        assert_eq!(first.node, 1);
        assert_eq!(first.op, "square");
    }

    #[test]
    fn stale_leaf_behind_reshape_is_an_error() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        let r = g.reshape(x, &[2, 2]);
        let root = g.sum_all(r);
        g.set_leaf(x, Tensor::ones(&[3]));
        let first = g
            .validate(root)
            .into_iter()
            .find(|d| d.kind == DiagnosticKind::ShapeMismatch)
            .expect("a shape mismatch");
        assert_eq!((first.node, first.op.as_str()), (r.index(), "reshape"));
        assert_eq!(first.severity, Severity::Error);
    }

    #[test]
    fn stale_leaf_under_conv_transpose_is_an_error() {
        // A 3×3 input gives a 1×1 output at stride 1, pad 2; shrunk to 1×1
        // the padding crops the output to nothing.
        let mut g = Graph::new();
        let x = g.param(Tensor::ones(&[1, 1, 3, 3]));
        let w = g.input(Tensor::ones(&[1, 1, 3, 3]));
        let y = g.conv_transpose2d(x, w, None, 1, 2);
        let root = g.sum_all(y);
        g.set_leaf(x, Tensor::ones(&[1, 1, 1, 1]));
        let first = g
            .validate(root)
            .into_iter()
            .find(|d| d.kind == DiagnosticKind::ShapeMismatch)
            .expect("a shape mismatch");
        assert_eq!(
            (first.node, first.op.as_str()),
            (y.index(), "conv_transpose2d")
        );
        assert_eq!(first.severity, Severity::Error);
        assert!(
            first
                .message
                .contains("leaves no output for input [1, 1, 1, 1]"),
            "{}",
            first.message
        );
    }

    #[test]
    fn unreachable_param_and_dead_node_flagged() {
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(1.0));
        let orphan = g.param(Tensor::scalar(5.0));
        let dead = g.square(orphan); // never feeds root
        let root = g.sum_all(x);
        let diags = g.validate(root);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnreachableParam && d.node == orphan.index()));
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DeadNode && d.node == dead.index()));
    }

    #[test]
    fn unguarded_div_and_sqrt_flagged_guarded_pass() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.input(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let bad_div = g.div(x, y); // y not guarded
        let bad_sqrt = g.sqrt(bad_div); // quotient may be negative
        let root = g.sum_all(bad_sqrt);
        let diags = g.validate(root);
        let hazards: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::NanHazard)
            .collect();
        assert_eq!(hazards.len(), 2, "{diags:?}");
        assert_eq!(hazards[0].node, bad_div.index());
        assert_eq!(hazards[1].node, bad_sqrt.index());

        // same computation, guarded: no hazards
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.input(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let safe = g.add_scalar(y, 1e-6);
        let d = g.div(x, safe);
        let sq = g.square(d);
        let s = g.sqrt(sq);
        let root = g.sum_all(s);
        assert!(g
            .validate(root)
            .iter()
            .all(|d| d.kind != DiagnosticKind::NanHazard));
    }

    #[test]
    fn non_finite_values_are_errors() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![f32::NAN, 1.0], &[2]));
        let root = g.sum_all(x);
        let diags = g.validate(root);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::NonFiniteValue && d.severity == Severity::Error));
    }

    #[test]
    fn replay_matches_recorded_values() {
        // One tape recording every built-in op and a custom op.
        let ramp = |shape: &[usize], phase: f32| {
            let n = shape.iter().product::<usize>();
            let data = (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect();
            Tensor::from_vec(data, shape)
        };
        let mut g = Graph::new();
        let img = g.param(ramp(&[1, 2, 4, 4], 0.0));
        let w = g.param(ramp(&[2, 2, 3, 3], 0.1));
        let b = g.param(ramp(&[2], 0.2));
        let conv = g.conv2d(img, w, Some(b), 1, 1); // [1, 2, 4, 4]
        let wt = g.param(ramp(&[2, 3, 2, 2], 0.3));
        let up = g.conv_transpose2d(conv, wt, None, 2, 0); // [1, 3, 8, 8]
        let pool = g.maxpool2d(up, 2); // [1, 3, 4, 4]
        let cb = g.param(ramp(&[3], 0.4));
        let biased = g.add_bias_chan(pool, cb);
        let cat = g.concat_chan(&[biased, conv]); // [1, 5, 4, 4]
        let chans = g.slice_chan(cat, 1, 3); // [1, 3, 4, 4]
        let flat = g.reshape(chans, &[6, 8]);
        let m = g.param(ramp(&[8, 2], 0.5));
        let prod = g.matmul(flat, m); // [6, 2]
        let rb = g.param(ramp(&[2], 0.6));
        let rows = g.add_bias_row(prod, rb);
        let a = Rc::new(Csr::from_triplets(
            3,
            6,
            vec![(0, 0, 1.0), (0, 5, -2.0), (1, 2, 0.5), (2, 4, 3.0)],
        ));
        let sp = g.spmm(a, rows); // [3, 2]
        let col = g.slice_cols(sp, 1, 1); // [3, 1]
        let x = g.reshape(col, &[3]);
        let y = g.param(ramp(&[3], 0.7));
        let e = g.add(x, y);
        let e = g.sub(e, y);
        let e = g.mul(e, y);
        let pos = g.sigmoid(e);
        let e = g.div(e, pos);
        let e = g.neg(e);
        let e = g.add_scalar(e, 0.5);
        let e = g.mul_scalar(e, 1.5);
        let r = g.relu(e);
        let e = g.leaky_relu(e, 0.1);
        let e = g.tanh(e);
        let e = g.softplus(e);
        let e = g.sqrt(e);
        let e = g.square(e);
        let e = g.clamp(e, 0.0, 0.8);
        let e = g.custom(Rc::new(Scale(10.0)), &[e]);
        let e = g.add(e, r);
        let sum = g.sum_all(e);
        let mean = g.mean_all(e);
        g.add(sum, mean);

        let names: BTreeSet<&str> = g.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(
            names.len(),
            28 + 2,
            "28 built-in ops, leaf, custom: {names:?}"
        );
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, node) in g.nodes.iter().enumerate() {
            let replayed = g.replay_value(Var(i), &[]);
            assert_eq!(replayed.shape(), node.value.shape(), "node {i}");
            assert_eq!(
                bits(&replayed),
                bits(&node.value),
                "node {i} ({})",
                node.op.name()
            );
        }
    }

    #[test]
    fn replay_honours_overrides() {
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(3.0));
        let y = g.square(x);
        let root = g.sum_all(y);
        assert_eq!(g.value(root).data(), &[9.0]);
        let out = g.replay_value(root, &[(x, Tensor::scalar(4.0))]);
        assert_eq!(out.data(), &[16.0]);
        // the recorded tape is untouched
        assert_eq!(g.value(root).data(), &[9.0]);
    }

    #[test]
    fn replay_recomputes_maxpool_indices() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        let p = g.maxpool2d(x, 2);
        let root = g.sum_all(p);
        assert_eq!(g.value(root).data(), &[4.0]);
        // flip which element is the max; a stale argmax would return 9 from
        // index 3 instead of the new max at index 0
        let out = g.replay_value(
            root,
            &[(x, Tensor::from_vec(vec![9.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]))],
        );
        assert_eq!(out.data(), &[9.0]);
    }

    #[test]
    fn replay_runs_custom_ops() {
        let mut g = Graph::new();
        let x = g.param(Tensor::scalar(2.0));
        let y = g.custom(Rc::new(Scale(10.0)), &[x]);
        let root = g.sum_all(y);
        let out = g.replay_value(root, &[(x, Tensor::scalar(-1.0))]);
        assert_eq!(out.data(), &[-10.0]);
    }
}
