//! Parameter storage and optimizers.
//!
//! Because [`crate::Graph`] is rebuilt every step (define-by-run), trainable
//! tensors live in a [`ParamStore`] between steps. A training loop looks
//! like:
//!
//! ```
//! use dco_tensor::{Adam, Graph, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! store.insert("w", Tensor::from_vec(vec![5.0], &[1]));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let w = store.bind(&mut g, "w");
//!     let loss = g.square(w); // minimize w^2
//!     g.backward(loss);
//!     store.apply_grads(&g);
//!     opt.step(&mut store);
//! }
//! assert!(store.get("w").data()[0].abs() < 0.1);
//! ```

use crate::{Graph, Tensor, Var};
use std::collections::BTreeMap;

/// Named persistent parameters plus their accumulated gradients.
#[derive(Debug, Default)]
pub struct ParamStore {
    values: BTreeMap<String, Tensor>,
    grads: BTreeMap<String, Tensor>,
    bindings: Vec<(String, Var)>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a parameter.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.values.insert(name.into(), value);
    }

    /// Whether a parameter exists.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Read a parameter.
    ///
    /// # Panics
    /// Panics if the parameter does not exist.
    pub fn get(&self, name: &str) -> &Tensor {
        &self.values[name]
    }

    /// Iterate over parameter names (sorted).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.values().map(Tensor::len).sum()
    }

    /// Bind a stored parameter into a graph as a trainable leaf, remembering
    /// the association for [`ParamStore::apply_grads`].
    ///
    /// # Panics
    /// Panics if the parameter does not exist.
    pub fn bind(&mut self, g: &mut Graph, name: &str) -> Var {
        let v = g.param(self.values[name].clone());
        self.bindings.push((name.to_string(), v));
        v
    }

    /// Pull gradients for every bound parameter out of `g`, accumulating
    /// into the store, and clear the bindings.
    pub fn apply_grads(&mut self, g: &Graph) {
        for (name, var) in self.bindings.drain(..) {
            if let Some(grad) = g.grad(var) {
                match self.grads.get_mut(&name) {
                    Some(existing) => existing.add_assign(grad),
                    None => {
                        self.grads.insert(name, grad.clone());
                    }
                }
            }
        }
    }

    /// Drop any accumulated gradients (e.g. between epochs).
    pub fn zero_grads(&mut self) {
        self.grads.clear();
        self.bindings.clear();
    }

    /// Gradient of a parameter accumulated since the last step, if any.
    pub fn grad(&self, name: &str) -> Option<&Tensor> {
        self.grads.get(name)
    }

    /// Global gradient L2 norm (0.0 when no gradients are present).
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .values()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Copy the current parameter values into a standalone snapshot.
    ///
    /// The snapshot captures values only — not gradients or bindings — and
    /// is intended for divergence-guard rollback: take one before a risky
    /// update, hand it back to [`ParamStore::restore`] if the update
    /// produced non-finite values.
    pub fn snapshot(&self) -> BTreeMap<String, Tensor> {
        self.values.clone()
    }

    /// Replace all parameter values with a snapshot taken earlier via
    /// [`ParamStore::snapshot`], discarding accumulated gradients and any
    /// live graph bindings (they refer to the poisoned step being rolled
    /// back).
    pub fn restore(&mut self, snap: &BTreeMap<String, Tensor>) {
        self.values = snap.clone();
        self.grads.clear();
        self.bindings.clear();
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.grads.values_mut() {
                g.scale_assign(s);
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: i32,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Apply one update using the store's accumulated gradients, then clear
    /// them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let names: Vec<String> = store.grads.keys().cloned().collect();
        for name in names {
            let grad = store.grads[&name].clone();
            let m = self
                .m
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(grad.shape()));
            let v = self
                .v
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(grad.shape()));
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(grad.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let Some(p) = store.values.get_mut(&name) else {
                // a gradient for a name never inserted: apply_grads only
                // records names bound from this store, so this is unreachable
                debug_assert!(false, "gradient for unbound parameter `{name}`");
                continue;
            };
            for ((pv, &mi), &vi) in p.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(store: &mut ParamStore) {
        let mut g = Graph::new();
        let w = store.bind(&mut g, "w");
        let loss = g.square(w);
        let loss = g.sum_all(loss);
        g.backward(loss);
        store.apply_grads(&g);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![2.5, -1.5, 0.7], &[3]));
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            quadratic_step(&mut store);
            opt.step(&mut store);
        }
        assert!(
            store.get("w").norm() < 1e-2,
            "norm = {}",
            store.get("w").norm()
        );
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![100.0, -100.0], &[2]));
        quadratic_step(&mut store);
        assert!(store.grad_norm() > 10.0);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn snapshot_restore_rolls_back_values_and_clears_grads() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(vec![4.0, -3.0], &[2]));
        let snap = store.snapshot();
        let mut opt = Adam::new(0.5);
        quadratic_step(&mut store);
        opt.step(&mut store);
        assert_ne!(store.get("w").data(), snap["w"].data());
        quadratic_step(&mut store); // leave a pending gradient
        assert!(store.grad("w").is_some());
        store.restore(&snap);
        assert_eq!(store.get("w").data(), snap["w"].data());
        assert!(store.grad("w").is_none());
        assert_eq!(store.grad_norm(), 0.0);
    }

    #[test]
    fn grads_accumulate_across_binds() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::scalar(1.0));
        quadratic_step(&mut store);
        quadratic_step(&mut store);
        // two accumulated grads of 2w = 2 each
        assert_eq!(store.grad("w").expect("grad").data(), &[4.0]);
    }
}
