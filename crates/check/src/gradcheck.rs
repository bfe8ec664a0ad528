//! Finite-difference gradient verification for autograd tapes.
//!
//! [`gradcheck`] compares every analytic gradient produced by
//! [`Graph::backward`] against central differences computed by re-executing
//! the recorded tape with perturbed leaf values ([`Graph::replay_value`]).
//! Replay runs each op's one forward definition, the same code the graph
//! builders ran while recording, and it re-runs
//! [`CustomOp`](dco_tensor::CustomOp) forwards too. So this verifies
//! hand-written backward passes (like the paper's Eq.-6 rasterizer
//! gradient) exactly the same way as built-in ops, against the forward code
//! the optimizers run.

use dco_tensor::{Graph, Var};
use std::fmt;

#[cfg(test)]
use dco_tensor::Tensor;

/// Tuning knobs for [`gradcheck`].
#[derive(Debug, Clone)]
pub struct GradcheckConfig {
    /// Central-difference step.
    pub eps: f32,
    /// Maximum allowed relative error `|num - ana| / max(1, |num|, |ana|)`.
    pub tol: f32,
    /// Cap on elements probed per parameter (evenly strided when exceeded);
    /// keeps the check `O(max_elements)` forward replays per parameter.
    pub max_elements_per_param: usize,
}

impl Default for GradcheckConfig {
    fn default() -> Self {
        Self {
            eps: 1e-2,
            tol: 1e-2,
            max_elements_per_param: 64,
        }
    }
}

impl GradcheckConfig {
    /// Default config with the given tolerance.
    pub fn with_tol(tol: f32) -> Self {
        Self {
            tol,
            ..Self::default()
        }
    }
}

/// One analytic-vs-numeric disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct GradcheckFailure {
    /// Tape id of the parameter leaf.
    pub param: usize,
    /// Flat element index inside that parameter.
    pub element: usize,
    /// Gradient from `backward`.
    pub analytic: f32,
    /// Central-difference estimate.
    pub numeric: f32,
    /// Relative error that exceeded the tolerance.
    pub error: f32,
}

impl fmt::Display for GradcheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "param node {}[{}]: analytic {} vs numeric {} (rel err {})",
            self.param, self.element, self.analytic, self.numeric, self.error
        )
    }
}

/// Outcome of one [`gradcheck`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct GradcheckReport {
    /// Parameters examined.
    pub params_checked: usize,
    /// Gradient elements compared.
    pub elements_checked: usize,
    /// Largest relative error seen (also over passing elements).
    pub max_error: f32,
    /// Elements whose error exceeded the tolerance.
    pub failures: Vec<GradcheckFailure>,
}

impl GradcheckReport {
    /// Whether every compared element was within tolerance.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for GradcheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gradcheck: {} params, {} elements, max rel err {:e}, {} failures",
            self.params_checked,
            self.elements_checked,
            self.max_error,
            self.failures.len()
        )?;
        for fail in self.failures.iter().take(8) {
            write!(f, "\n  {fail}")?;
        }
        if self.failures.len() > 8 {
            write!(f, "\n  ... and {} more", self.failures.len() - 8)?;
        }
        Ok(())
    }
}

/// Verify `backward(root)` against central differences on `g`'s tape.
///
/// Every `param` leaf is perturbed element-by-element (strided down to
/// `max_elements_per_param` probes for large tensors) and the recorded tape
/// is replayed forward; a parameter `backward` left without a gradient is
/// treated as having an all-zero analytic gradient, so a wrongly-severed
/// gradient path shows up as a failure rather than being skipped.
///
/// # Panics
/// Panics if `root` is not scalar (same contract as [`Graph::backward`]).
pub fn gradcheck(g: &mut Graph, root: Var, cfg: &GradcheckConfig) -> GradcheckReport {
    g.backward(root);
    let params = g.param_vars();
    let mut report = GradcheckReport {
        params_checked: params.len(),
        elements_checked: 0,
        max_error: 0.0,
        failures: Vec::new(),
    };
    for p in params {
        let x0 = g.value(p).clone();
        let analytic = g.grad(p).cloned();
        let n = x0.len();
        let stride = n.div_ceil(cfg.max_elements_per_param).max(1);
        for i in (0..n).step_by(stride) {
            let mut xp = x0.clone();
            xp.data_mut()[i] += cfg.eps;
            let mut xm = x0.clone();
            xm.data_mut()[i] -= cfg.eps;
            let fp = g.replay_value(root, &[(p, xp)]).data()[0];
            let fm = g.replay_value(root, &[(p, xm)]).data()[0];
            let numeric = (fp - fm) / (2.0 * cfg.eps);
            let ana = analytic.as_ref().map(|t| t.data()[i]).unwrap_or(0.0);
            let error = (numeric - ana).abs() / numeric.abs().max(ana.abs()).max(1.0);
            report.elements_checked += 1;
            report.max_error = report.max_error.max(error);
            // negated form on purpose: a NaN error must count as a failure
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(error <= cfg.tol) {
                report.failures.push(GradcheckFailure {
                    param: p.index(),
                    element: i,
                    analytic: ana,
                    numeric,
                    error,
                });
            }
        }
    }
    report
}

/// Build a graph with `build`, then [`gradcheck`] it at tolerance `tol`.
///
/// `build` returns the scalar root; convenient for per-op unit tests.
pub fn gradcheck_fn(build: impl FnOnce(&mut Graph) -> Var, tol: f32) -> GradcheckReport {
    let mut g = Graph::new();
    let root = build(&mut g);
    gradcheck(&mut g, root, &GradcheckConfig::with_tol(tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_on_correct_gradients() {
        let report = gradcheck_fn(
            |g| {
                let x = g.param(Tensor::from_vec(vec![0.4, -1.3, 2.0], &[3]));
                let y = g.square(x);
                g.sum_all(y)
            },
            1e-2,
        );
        assert!(report.passed(), "{report}");
        assert_eq!(report.params_checked, 1);
        assert_eq!(report.elements_checked, 3);
    }

    #[test]
    fn catches_wrong_custom_backward() {
        struct BadBackward;
        impl dco_tensor::CustomOp for BadBackward {
            fn name(&self) -> &str {
                "bad_backward"
            }
            fn forward(&self, inputs: &[&Tensor]) -> Tensor {
                inputs[0].map(|v| 3.0 * v)
            }
            fn backward(
                &self,
                _inputs: &[&Tensor],
                _output: &Tensor,
                grad_output: &Tensor,
            ) -> Vec<Option<Tensor>> {
                // claims d/dx(3x) = 1; gradcheck must flag it
                vec![Some(grad_output.clone())]
            }
        }
        let report = gradcheck_fn(
            |g| {
                let x = g.param(Tensor::from_vec(vec![1.0, 2.0], &[2]));
                let y = g.custom(std::rc::Rc::new(BadBackward), &[x]);
                g.sum_all(y)
            },
            1e-2,
        );
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn missing_gradient_path_is_a_failure_not_a_skip() {
        struct DropsGrad;
        impl dco_tensor::CustomOp for DropsGrad {
            fn name(&self) -> &str {
                "drops_grad"
            }
            fn forward(&self, inputs: &[&Tensor]) -> Tensor {
                inputs[0].clone()
            }
            fn backward(
                &self,
                _inputs: &[&Tensor],
                _output: &Tensor,
                _grad_output: &Tensor,
            ) -> Vec<Option<Tensor>> {
                vec![None] // severs the gradient path
            }
        }
        let report = gradcheck_fn(
            |g| {
                let x = g.param(Tensor::from_vec(vec![1.5], &[1]));
                let y = g.custom(std::rc::Rc::new(DropsGrad), &[x]);
                g.sum_all(y)
            },
            1e-2,
        );
        assert!(!report.passed());
        assert_eq!(report.failures[0].analytic, 0.0);
    }

    #[test]
    fn large_params_are_strided() {
        let cfg = GradcheckConfig {
            max_elements_per_param: 8,
            ..GradcheckConfig::default()
        };
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(
            (0..100).map(|i| i as f32 * 0.01).collect(),
            &[100],
        ));
        let y = g.square(x);
        let root = g.mean_all(y);
        let report = gradcheck(&mut g, root, &cfg);
        assert!(report.passed(), "{report}");
        assert!(report.elements_checked <= 13, "{}", report.elements_checked);
    }
}
