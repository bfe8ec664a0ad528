//! The training procedure of Algorithm 1.

use crate::{Normalization, Sample, SiameseUNet};
use dco_features::{nrmse, ssim, GridMap, Orientation};
use dco_tensor::{Adam, Graph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Adam learning rate.
const LEARNING_RATE: f32 = 5e-3;
/// Fraction of samples reserved for testing (paper: 20%).
const TEST_FRACTION: f64 = 0.2;
/// Learning-rate multiplier applied on each divergence rollback.
const LR_BACKOFF: f32 = 0.5;

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs over the training split.
    pub epochs: usize,
    /// Enable the 8-orientation augmentation.
    pub augment: bool,
    /// Shuffle/augmentation seed.
    pub seed: u64,
    /// Divergence guard: how many non-finite loss/gradient events to absorb
    /// (roll back to the epoch-start weights and retry the epoch with a
    /// backed-off learning rate) before degrading to best-so-far weights.
    pub max_divergence_retries: usize,
    /// Fault injection: force the first step of this epoch to report a
    /// non-finite loss (testing hook for the divergence guard; fires once).
    pub inject_nan_loss_at: Option<usize>,
    /// Cooperative cancellation, polled at each epoch boundary. The
    /// default token never fires; the serve layer arms it to enforce
    /// per-job deadlines. A cancelled run stops early with the weights as
    /// of the last completed epoch (callers that care discard them).
    pub cancel: dco_parallel::CancelToken,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            augment: true,
            seed: 0,
            max_divergence_retries: 3,
            inject_nan_loss_at: None,
            cancel: dco_parallel::CancelToken::never(),
        }
    }
}

/// Per-sample evaluation record (Fig. 5b histograms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRecord {
    /// NRMSE against ground truth (lower is better; < 0.2 is good).
    pub nrmse: f32,
    /// SSIM against ground truth (higher is better; > 0.7 sufficient).
    pub ssim: f32,
}

/// Training outcome: loss curves and test-set metrics.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Mean training loss per epoch (Fig. 5a).
    pub train_loss: Vec<f32>,
    /// Mean test loss per epoch (Fig. 5a).
    pub test_loss: Vec<f32>,
    /// Per-die evaluation records for every test sample (Fig. 5b).
    pub test_metrics: Vec<EvalRecord>,
    /// Fitted normalization (needed to run inference later).
    pub normalization: Normalization,
    /// Number of non-finite loss/gradient events absorbed by the divergence
    /// guard (each one rolled back to the epoch-start weights).
    pub divergence_events: usize,
    /// True when the divergence guard exhausted its retries and training
    /// stopped early on the last good weights.
    pub degraded: bool,
}

/// Train a [`SiameseUNet`] on a dataset of [`Sample`]s (Algorithm 1).
///
/// The dataset is split train/test (20% test); normalization is
/// fitted on the training split only. Each step draws a random orientation
/// when augmentation is on.
pub fn train(model: &mut SiameseUNet, dataset: &[Sample], cfg: &TrainConfig) -> TrainResult {
    assert!(!dataset.is_empty(), "dataset must not be empty");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7EA1);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.shuffle(&mut rng);
    let n_test = ((dataset.len() as f64 * TEST_FRACTION).round() as usize)
        .min(dataset.len().saturating_sub(1));
    let (test_idx, train_idx) = order.split_at(n_test);
    let train_samples: Vec<&Sample> = train_idx.iter().map(|&i| &dataset[i]).collect();
    let test_samples: Vec<&Sample> = test_idx.iter().map(|&i| &dataset[i]).collect();

    let norm = Normalization::fit(
        &train_idx
            .iter()
            .map(|&i| dataset[i].clone())
            .collect::<Vec<_>>(),
    );
    let mut lr = LEARNING_RATE;
    let mut opt = Adam::new(lr);
    let mut train_loss = Vec::with_capacity(cfg.epochs);
    let mut test_loss = Vec::with_capacity(cfg.epochs);
    let mut divergence_events = 0usize;
    let mut degraded = false;
    let mut inject_at = cfg.inject_nan_loss_at;

    let mut shuffled: Vec<usize> = (0..train_samples.len()).collect();
    let mut epoch = 0usize;
    'epochs: while epoch < cfg.epochs {
        if cfg.cancel.is_cancelled() {
            break;
        }
        let _epoch_span = dco_obs::span!("unet.train.epoch", epoch = epoch);
        shuffled.shuffle(&mut rng);
        // Epoch-start weights, known good: a non-finite step inside this
        // epoch rolls back here and the epoch is retried at a lower rate.
        let snapshot = model.store_ref().snapshot();
        let inject_this_epoch = inject_at == Some(epoch);
        let mut epoch_loss = 0.0f32;
        for (step, &si) in shuffled.iter().enumerate() {
            let mut sample = train_samples[si].clone();
            if cfg.augment {
                let o = Orientation::ALL[rng.gen_range(0..Orientation::ALL.len())];
                sample = sample.oriented(o);
            }
            let mut g = Graph::new();
            let f0 = g.input(norm.features_tensor(&sample.features[0]));
            let f1 = g.input(norm.features_tensor(&sample.features[1]));
            let y0 = g.input(norm.label_tensor(&sample.labels[0]));
            let y1 = g.input(norm.label_tensor(&sample.labels[1]));
            let (c0, c1) = model.forward(&mut g, f0, f1);
            let loss = SiameseUNet::loss(&mut g, (c0, c1), (y0, y1));
            let mut step_loss = g.value(loss).data()[0];
            if inject_this_epoch && step == 0 {
                inject_at = None;
                step_loss = f32::NAN;
            }
            g.backward(loss);
            model.store_mut().apply_grads(&g);
            let finite = step_loss.is_finite() && model.store_mut().grad_norm().is_finite();
            if !finite {
                divergence_events += 1;
                dco_obs::counter_add("unet.train.rollbacks", 1);
                model.store_mut().restore(&snapshot);
                lr *= LR_BACKOFF;
                opt = Adam::new(lr);
                if divergence_events > cfg.max_divergence_retries {
                    degraded = true;
                    break 'epochs;
                }
                continue 'epochs; // retry this epoch from the rollback
            }
            epoch_loss += step_loss;
            model.store_mut().clip_grad_norm(5.0);
            opt.step(model.store_mut());
        }
        let mean_loss = epoch_loss / train_samples.len().max(1) as f32;
        dco_obs::series_push("unet.train.loss", f64::from(mean_loss));
        train_loss.push(mean_loss);
        test_loss.push(evaluate_loss(model, &test_samples, &norm));
        epoch += 1;
    }

    let test_metrics = evaluate_metrics(model, &test_samples, &norm);
    TrainResult {
        train_loss,
        test_loss,
        test_metrics,
        normalization: norm,
        divergence_events,
        degraded,
    }
}

/// Mean Eq.-4 loss over a sample set (no gradient).
pub fn evaluate_loss(model: &SiameseUNet, samples: &[&Sample], norm: &Normalization) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for s in samples {
        let f0 = norm.features_tensor(&s.features[0]);
        let f1 = norm.features_tensor(&s.features[1]);
        let (c0, c1) = model.predict(&f0, &f1);
        let y0 = norm.label_tensor(&s.labels[0]);
        let y1 = norm.label_tensor(&s.labels[1]);
        let rms = |p: &dco_tensor::Tensor, t: &dco_tensor::Tensor| -> f32 {
            let mse: f32 = p
                .data()
                .iter()
                .zip(t.data())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / p.len() as f32;
            mse.sqrt()
        };
        total += 0.5 * (rms(&c0, &y0) + rms(&c1, &y1));
    }
    total / samples.len() as f32
}

/// NRMSE/SSIM per test sample per die (Fig. 5b).
pub fn evaluate_metrics(
    model: &SiameseUNet,
    samples: &[&Sample],
    norm: &Normalization,
) -> Vec<EvalRecord> {
    let mut out = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        let f0 = norm.features_tensor(&s.features[0]);
        let f1 = norm.features_tensor(&s.features[1]);
        let (c0, c1) = model.predict(&f0, &f1);
        for (pred_t, label) in [(c0, &s.labels[0]), (c1, &s.labels[1])] {
            let pred = norm.prediction_to_map(&pred_t);
            let range = label.max().max(pred.max()).max(1e-6);
            out.push(EvalRecord {
                nrmse: nrmse(&pred, label),
                ssim: ssim(&pred, label, range),
            });
        }
    }
    out
}

/// Run inference on raw (unnormalized) per-die feature maps, returning
/// congestion maps in label units.
pub fn predict_maps(
    model: &SiameseUNet,
    norm: &Normalization,
    features: [&[GridMap]; 2],
) -> [GridMap; 2] {
    let f0 = norm.features_tensor(features[0]);
    let f1 = norm.features_tensor(features[1]);
    let (c0, c1) = model.predict(&f0, &f1);
    [norm.prediction_to_map(&c0), norm.prediction_to_map(&c1)]
}

/// Batched inference: predict congestion for many placements in a single
/// forward pass (one set of batched conv2d calls instead of `B` separate
/// ones). Each entry of `features` is one placement's per-die feature
/// stacks `[bottom, top]`.
///
/// Every conv/pool/activation in the network treats batch images
/// independently (same weights, same per-image summation order), so the
/// `i`-th returned map pair is **bitwise identical** to
/// `predict_maps(model, norm, features[i])` — the serving layer's batch
/// coalescing relies on this and `tests/serve.rs` asserts it.
pub fn predict_maps_batch(
    model: &SiameseUNet,
    norm: &Normalization,
    features: &[[&[GridMap]; 2]],
) -> Vec<[GridMap; 2]> {
    if features.is_empty() {
        return Vec::new();
    }
    let die0: Vec<&[GridMap]> = features.iter().map(|f| f[0]).collect();
    let die1: Vec<&[GridMap]> = features.iter().map(|f| f[1]).collect();
    let f0 = norm.features_tensor_batch(&die0);
    let f1 = norm.features_tensor_batch(&die1);
    let (c0, c1) = model.predict(&f0, &f1);
    let m0 = norm.predictions_to_maps(&c0);
    let m1 = norm.predictions_to_maps(&c1);
    m0.into_iter().zip(m1).map(|(a, b)| [a, b]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNetConfig;
    use dco_features::GridMap;

    /// Synthetic task: congestion = sum of two feature channels. The
    /// network must learn it quickly at tiny size.
    fn synthetic_dataset(n: usize, size: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mk = |rng: &mut StdRng| {
                    GridMap::from_vec(
                        size,
                        size,
                        (0..size * size)
                            .map(|_| rng.gen_range(0.0..1.0f32))
                            .collect(),
                    )
                };
                let mut features0 = Vec::new();
                let mut features1 = Vec::new();
                for _ in 0..dco_features::NUM_CHANNELS {
                    features0.push(mk(&mut rng));
                    features1.push(mk(&mut rng));
                }
                let label = |f: &[GridMap]| {
                    let mut l = f[2].clone();
                    l.add_assign(&f[0]);
                    l
                };
                Sample {
                    labels: [label(&features0), label(&features1)],
                    features: [features0, features1],
                }
            })
            .collect()
    }

    #[test]
    fn batched_inference_is_bitwise_identical_to_unbatched() {
        let data = synthetic_dataset(5, 8, 4);
        let model = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 8,
            },
            9,
        );
        let norm = Normalization::fit(&data);
        let batch: Vec<[&[GridMap]; 2]> = data
            .iter()
            .map(|s| [s.features[0].as_slice(), s.features[1].as_slice()])
            .collect();
        let batched = predict_maps_batch(&model, &norm, &batch);
        assert_eq!(batched.len(), data.len());
        for (i, s) in data.iter().enumerate() {
            let single = predict_maps(
                &model,
                &norm,
                [s.features[0].as_slice(), s.features[1].as_slice()],
            );
            for die in 0..2 {
                let a: Vec<u32> = single[die].data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = batched[i][die].data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "sample {i} die {die} diverged under batching");
            }
        }
        assert!(predict_maps_batch(&model, &norm, &[]).is_empty());
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        let data = synthetic_dataset(10, 8, 1);
        let mut model = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 8,
            },
            7,
        );
        let cfg = TrainConfig {
            epochs: 6,
            augment: false,
            ..TrainConfig::default()
        };
        let result = train(&mut model, &data, &cfg);
        assert_eq!(result.train_loss.len(), 6);
        let first = result.train_loss[0];
        let last = *result.train_loss.last().expect("non-empty");
        assert!(last < first * 0.9, "loss barely moved: {first} -> {last}");
        assert!(!result.test_metrics.is_empty());
    }

    #[test]
    fn metrics_improve_with_training() {
        let data = synthetic_dataset(10, 8, 2);
        let make = || {
            SiameseUNet::new(
                UNetConfig {
                    in_channels: 7,
                    base_channels: 4,
                    size: 8,
                },
                3,
            )
        };
        let cfg0 = TrainConfig {
            epochs: 1,
            augment: false,
            ..TrainConfig::default()
        };
        let cfg1 = TrainConfig {
            epochs: 10,
            augment: false,
            ..TrainConfig::default()
        };
        let mut m0 = make();
        let r0 = train(&mut m0, &data, &cfg0);
        let mut m1 = make();
        let r1 = train(&mut m1, &data, &cfg1);
        let mean_nrmse = |r: &TrainResult| {
            r.test_metrics.iter().map(|m| m.nrmse).sum::<f32>() / r.test_metrics.len() as f32
        };
        assert!(
            mean_nrmse(&r1) < mean_nrmse(&r0),
            "more training should improve NRMSE: {} vs {}",
            mean_nrmse(&r1),
            mean_nrmse(&r0)
        );
    }

    #[test]
    fn trainer_divergence_guard_retries_epoch() {
        let data = synthetic_dataset(8, 8, 4);
        let mut model = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 8,
            },
            11,
        );
        let cfg = TrainConfig {
            epochs: 3,
            augment: false,
            inject_nan_loss_at: Some(1),
            ..TrainConfig::default()
        };
        let result = train(&mut model, &data, &cfg);
        assert_eq!(result.divergence_events, 1);
        assert!(!result.degraded);
        // The poisoned epoch is retried, so all epochs still complete.
        assert_eq!(result.train_loss.len(), 3);
        assert!(result.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn trainer_divergence_guard_degrades_when_exhausted() {
        let data = synthetic_dataset(8, 8, 5);
        let mut model = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 8,
            },
            13,
        );
        let baseline = model.store_ref().snapshot();
        let cfg = TrainConfig {
            epochs: 3,
            augment: false,
            max_divergence_retries: 0,
            inject_nan_loss_at: Some(0),
            ..TrainConfig::default()
        };
        let result = train(&mut model, &data, &cfg);
        assert!(result.degraded);
        assert_eq!(result.divergence_events, 1);
        // Weights rolled back to the epoch-start (here: initial) snapshot —
        // never left poisoned.
        for name in model.store_ref().names() {
            assert_eq!(model.store_ref().get(name).data(), baseline[name].data());
        }
    }

    #[test]
    fn predict_maps_round_trips_shapes() {
        let data = synthetic_dataset(4, 8, 3);
        let mut model = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 8,
            },
            9,
        );
        let cfg = TrainConfig {
            epochs: 1,
            augment: false,
            ..TrainConfig::default()
        };
        let result = train(&mut model, &data, &cfg);
        let maps = predict_maps(
            &model,
            &result.normalization,
            [&data[0].features[0], &data[0].features[1]],
        );
        assert_eq!((maps[0].nx(), maps[0].ny()), (8, 8));
        assert!(maps[0].min() >= 0.0);
    }
}
