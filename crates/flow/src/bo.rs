//! Gaussian-process Bayesian optimization over the Table-I parameter space
//! (the "Pin-3D + BO" baseline, following [19] Ma et al., MLCAD 2019).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RBF kernel length scale.
const LENGTH_SCALE: f64 = 0.5;
/// Observation noise (jitter) added to the kernel diagonal.
const NOISE: f64 = 1e-4;

/// BO tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BoConfig {
    /// Random evaluations before the GP takes over.
    pub initial_samples: usize,
    /// GP-guided evaluations.
    pub iterations: usize,
    /// Candidate pool size per acquisition maximization.
    pub candidates: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        Self {
            initial_samples: 4,
            iterations: 8,
            candidates: 128,
        }
    }
}

/// Minimize a black-box function over `[0, 1]^D` with GP + expected
/// improvement. Returns `(best_x, best_y)`.
///
/// # Example
///
/// ```
/// use dco_flow::{bayesian_minimize, BoConfig};
///
/// // minimize a quadratic bowl centred at 0.3
/// let (x, y) = bayesian_minimize(
///     2,
///     |v| v.iter().map(|&c| (c - 0.3) * (c - 0.3)).sum(),
///     &BoConfig::default(),
///     7,
/// );
/// assert!(y < 0.3);
/// assert_eq!(x.len(), 2);
/// ```
pub fn bayesian_minimize(
    dims: usize,
    mut objective: impl FnMut(&[f64]) -> f64,
    cfg: &BoConfig,
    seed: u64,
) -> (Vec<f64>, f64) {
    assert!(dims > 0, "dims must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0);
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();

    let sample =
        |rng: &mut StdRng| -> Vec<f64> { (0..dims).map(|_| rng.gen_range(0.0..=1.0)).collect() };

    for _ in 0..cfg.initial_samples.max(2) {
        let x = sample(&mut rng);
        let y = objective(&x);
        xs.push(x);
        ys.push(y);
    }

    for _ in 0..cfg.iterations {
        // Normalize observations for GP conditioning.
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let y_std = (ys.iter().map(|&y| (y - y_mean) * (y - y_mean)).sum::<f64>()
            / ys.len() as f64)
            .sqrt()
            .max(1e-9);
        let yn: Vec<f64> = ys.iter().map(|&y| (y - y_mean) / y_std).collect();

        let n = xs.len();
        let k = |a: &[f64], b: &[f64]| -> f64 {
            let d2: f64 = a.iter().zip(b).map(|(&p, &q)| (p - q) * (p - q)).sum();
            (-d2 / (2.0 * LENGTH_SCALE * LENGTH_SCALE)).exp()
        };
        let mut kmat = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                kmat[i * n + j] = k(&xs[i], &xs[j]) + if i == j { NOISE } else { 0.0 };
            }
        }
        // RBF Gram matrices are PSD; the jitter makes them PD unless samples
        // are (nearly) duplicated. Escalate the jitter before giving up.
        let mut chol = cholesky(&kmat, n);
        let mut jitter = NOISE.max(1e-9);
        for _ in 0..8 {
            if chol.is_some() {
                break;
            }
            jitter *= 100.0;
            for i in 0..n {
                kmat[i * n + i] += jitter;
            }
            chol = cholesky(&kmat, n);
        }
        let Some(chol) = chol else {
            panic!("GP kernel matrix is not positive definite (n = {n})");
        };
        let alpha = chol_solve(&chol, n, &yn);

        // Expected improvement over the best normalized observation.
        let best = yn.iter().copied().fold(f64::INFINITY, f64::min);
        let ei_of = |c: &[f64]| -> f64 {
            let kv: Vec<f64> = xs.iter().map(|x| k(x, c)).collect();
            let mu: f64 = kv.iter().zip(&alpha).map(|(&a, &b)| a * b).sum();
            let v = chol_forward(&chol, n, &kv);
            let var = (1.0 + NOISE - v.iter().map(|&x| x * x).sum::<f64>()).max(1e-12);
            let sigma = var.sqrt();
            let z = (best - mu) / sigma;
            sigma * (z * normal_cdf(z) + normal_pdf(z))
        };
        let mut next = sample(&mut rng);
        let mut next_ei = ei_of(&next);
        for _ in 1..cfg.candidates.max(1) {
            let c = sample(&mut rng);
            let ei = ei_of(&c);
            if ei > next_ei {
                next = c;
                next_ei = ei;
            }
        }
        let y = objective(&next);
        xs.push(next);
        ys.push(y);
    }

    let mut bi = 0;
    for (i, y) in ys.iter().enumerate() {
        if *y < ys[bi] {
            bi = i;
        }
    }
    (xs[bi].clone(), ys[bi])
}

/// Lower-triangular Cholesky factor of a row-major `n x n` SPD matrix.
fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Solve `L y = b` (forward substitution).
fn chol_forward(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * y[k];
        }
        y[i] = s / l[i * n + i];
    }
    y
}

/// Solve `(L L^T) x = b`.
fn chol_solve(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let y = chol_forward(l, n, b);
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
    x
}

fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf.
fn erf(x: f64) -> f64 {
    let s = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    s * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_round_trips() {
        // A = [[4, 2], [2, 3]]
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let l = cholesky(&a, 2).expect("SPD");
        // L = [[2, 0], [1, sqrt(2)]]
        assert!((l[0] - 2.0).abs() < 1e-12);
        assert!((l[2] - 1.0).abs() < 1e-12);
        assert!((l[3] - 2.0f64.sqrt()).abs() < 1e-12);
        let x = chol_solve(&l, 2, &[8.0, 7.0]);
        // verify A x = b
        assert!((4.0 * x[0] + 2.0 * x[1] - 8.0).abs() < 1e-9);
        assert!((2.0 * x[0] + 3.0 * x[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky(&a, 2).is_none());
    }

    #[test]
    fn erf_matches_known_values() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bo_beats_random_on_smooth_objective() {
        let f = |v: &[f64]| -> f64 { v.iter().map(|&c| (c - 0.7) * (c - 0.7)).sum::<f64>() + 0.1 };
        let cfg = BoConfig {
            initial_samples: 4,
            iterations: 12,
            ..BoConfig::default()
        };
        let (_, bo_best) = bayesian_minimize(3, f, &cfg, 1);
        // pure random with the same budget
        let mut rng = StdRng::seed_from_u64(1);
        let rand_best = (0..16)
            .map(|_| {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..=1.0)).collect();
                f(&x)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            bo_best <= rand_best * 1.5,
            "BO {bo_best} vs random {rand_best}"
        );
        assert!(
            bo_best < 0.25,
            "BO failed to approach the optimum: {bo_best}"
        );
    }

    #[test]
    fn bo_is_deterministic_per_seed() {
        let f = |v: &[f64]| v[0] * v[0];
        let cfg = BoConfig::default();
        let a = bayesian_minimize(1, f, &cfg, 5);
        let b = bayesian_minimize(1, f, &cfg, 5);
        assert_eq!(a, b);
    }
}
