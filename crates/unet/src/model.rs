//! The customized Siamese 3D UNet (paper Fig. 3).
//!
//! A shared-weight encoder/decoder processes the feature maps of both dies;
//! a pointwise "communication" convolution between encoder and decoder
//! merges the two streams so each die's prediction can see the other die
//! (inter-die dependency), then splits them back for decoding. Skip
//! connections preserve spatial detail.

use dco_tensor::{Graph, Initializer, ParamStore, Tensor, Var};

/// Architecture hyperparameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UNetConfig {
    /// Input channels per die (7 feature maps).
    pub in_channels: usize,
    /// Base channel width; doubles at each encoder level.
    pub base_channels: usize,
    /// Square input size; must be divisible by 4 (two pooling levels).
    pub size: usize,
}

impl Default for UNetConfig {
    fn default() -> Self {
        // The paper trains at 224x224; tests/benches use smaller sizes for
        // single-core wall-clock sanity (EXPERIMENTS.md records actual sizes).
        Self {
            in_channels: 7,
            base_channels: 8,
            size: 32,
        }
    }
}

/// Siamese UNet with persistent parameters.
///
/// # Example
///
/// ```
/// use dco_tensor::Tensor;
/// use dco_unet::{SiameseUNet, UNetConfig};
///
/// let cfg = UNetConfig { size: 16, base_channels: 4, ..UNetConfig::default() };
/// let model = SiameseUNet::new(cfg.clone(), 42);
/// let f = Tensor::zeros(&[1, cfg.in_channels, 16, 16]);
/// let (c0, c1) = model.predict(&f, &f);
/// assert_eq!(c0.shape(), &[1, 1, 16, 16]);
/// assert_eq!(c1.shape(), &[1, 1, 16, 16]);
/// ```
#[derive(Debug)]
pub struct SiameseUNet {
    cfg: UNetConfig,
    store: ParamStore,
}

/// The nine conv layers, in the order their `(weight, bias)` pairs enter
/// the tape.
const LAYERS: [&str; 9] = [
    "enc1", "enc2", "bott", "comm", "up1", "dec1", "up2", "dec2", "head",
];

/// Wire the Siamese UNet onto `g` from its per-layer `(weight, bias)` vars
/// (in [`LAYERS`] order), for dies `f0` and `f1` with base width `f`.
fn wire(g: &mut Graph, p: [(Var, Var); 9], f: usize, f0: Var, f1: Var) -> (Var, Var) {
    let [enc1, enc2, bott, comm, up1, dec1, up2, dec2, head] = p;
    let encode = |g: &mut Graph, x: Var| {
        let e1 = g.conv2d(x, enc1.0, Some(enc1.1), 1, 1);
        let e1 = g.leaky_relu(e1, 0.01);
        let d1 = g.maxpool2d(e1, 2);
        let e2 = g.conv2d(d1, enc2.0, Some(enc2.1), 1, 1);
        let e2 = g.leaky_relu(e2, 0.01);
        let d2 = g.maxpool2d(e2, 2);
        let b = g.conv2d(d2, bott.0, Some(bott.1), 1, 1);
        let b = g.leaky_relu(b, 0.01);
        (e1, e2, b)
    };
    let (e1_0, e2_0, b0) = encode(g, f0);
    let (e1_1, e2_1, b1) = encode(g, f1);

    // Inter-die communication: concat channels, pointwise conv, split.
    let fb = f * 4;
    let cat = g.concat_chan(&[b0, b1]);
    let mixed = g.conv2d(cat, comm.0, Some(comm.1), 1, 0);
    let mixed = g.leaky_relu(mixed, 0.01);
    let m0 = g.slice_chan(mixed, 0, fb);
    let m1 = g.slice_chan(mixed, fb, fb);

    let decode = |g: &mut Graph, b: Var, e2: Var, e1: Var| {
        let u1 = g.conv_transpose2d(b, up1.0, Some(up1.1), 2, 0);
        let u1 = g.leaky_relu(u1, 0.01);
        let cat1 = g.concat_chan(&[u1, e2]);
        let d1 = g.conv2d(cat1, dec1.0, Some(dec1.1), 1, 1);
        let d1 = g.leaky_relu(d1, 0.01);
        let u2 = g.conv_transpose2d(d1, up2.0, Some(up2.1), 2, 0);
        let u2 = g.leaky_relu(u2, 0.01);
        let cat2 = g.concat_chan(&[u2, e1]);
        let d2 = g.conv2d(cat2, dec2.0, Some(dec2.1), 1, 1);
        let d2 = g.leaky_relu(d2, 0.01);
        // Linear regression head: a saturating activation (softplus)
        // collapses to zero on sparse congestion labels and kills the
        // gradients DCO needs; negative predictions are clamped at
        // display time instead.
        g.conv2d(d2, head.0, Some(head.1), 1, 0)
    };
    let c0 = decode(g, m0, e2_0, e1_0);
    let c1 = decode(g, m1, e2_1, e1_1);
    (c0, c1)
}

impl SiameseUNet {
    /// Create a model with Xavier-initialized weights.
    ///
    /// # Panics
    /// Panics unless `cfg.size` is divisible by 4.
    pub fn new(cfg: UNetConfig, seed: u64) -> Self {
        assert!(
            cfg.size.is_multiple_of(4),
            "input size must be divisible by 4"
        );
        let mut init = Initializer::new(seed);
        let mut store = ParamStore::new();
        let f = cfg.base_channels;
        let c = cfg.in_channels;
        let conv = |init: &mut Initializer,
                    store: &mut ParamStore,
                    name: &str,
                    co: usize,
                    ci: usize,
                    k: usize| {
            store.insert(format!("{name}.w"), init.xavier_uniform(&[co, ci, k, k]));
            store.insert(format!("{name}.b"), Tensor::zeros(&[co]));
        };
        let convt = |init: &mut Initializer,
                     store: &mut ParamStore,
                     name: &str,
                     ci: usize,
                     co: usize,
                     k: usize| {
            store.insert(format!("{name}.w"), init.xavier_uniform(&[ci, co, k, k]));
            store.insert(format!("{name}.b"), Tensor::zeros(&[co]));
        };
        conv(&mut init, &mut store, "enc1", f, c, 3);
        conv(&mut init, &mut store, "enc2", 2 * f, f, 3);
        conv(&mut init, &mut store, "bott", 4 * f, 2 * f, 3);
        // communication: pointwise conv over both dies' bottlenecks
        conv(&mut init, &mut store, "comm", 8 * f, 8 * f, 1);
        convt(&mut init, &mut store, "up1", 4 * f, 2 * f, 2);
        conv(&mut init, &mut store, "dec1", 2 * f, 4 * f, 3);
        convt(&mut init, &mut store, "up2", 2 * f, f, 2);
        conv(&mut init, &mut store, "dec2", f, 2 * f, 3);
        conv(&mut init, &mut store, "head", 1, f, 1);
        Self { cfg, store }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &UNetConfig {
        &self.cfg
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Access the parameter store (e.g. for optimizer steps).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Read-only access to the parameter store (weight inspection/cloning).
    pub fn store_ref(&self) -> &ParamStore {
        &self.store
    }

    /// Record the forward pass on an existing graph; weights are bound as
    /// trainable parameters. Returns the two predicted congestion maps
    /// `[1, 1, H, W]` for (die0, die1).
    ///
    /// Because the same bound weight `Var`s are used for both dies, the
    /// encoder/decoder weights are shared exactly as in the paper, and
    /// gradients from both streams accumulate onto the single copy.
    pub fn forward(&mut self, g: &mut Graph, f0: Var, f1: Var) -> (Var, Var) {
        let store = &mut self.store;
        let p = LAYERS.map(|n| {
            let w = store.bind(g, &format!("{n}.w"));
            (w, store.bind(g, &format!("{n}.b")))
        });
        wire(g, p, self.cfg.base_channels, f0, f1)
    }

    /// Record a forward pass with frozen weights: parameters enter the
    /// graph as constants, so gradients flow through the network to its
    /// *inputs* but never to the weights. This is how DCO-3D uses the
    /// trained predictor `SiaUNet*` inside Algorithm 2 (Eq. 5's
    /// `∂C_d/∂F_d` term).
    pub fn forward_frozen(&self, g: &mut Graph, x0: Var, x1: Var) -> (Var, Var) {
        let p = LAYERS.map(|n| {
            let w = g.input(self.store.get(&format!("{n}.w")).clone());
            (w, g.input(self.store.get(&format!("{n}.b")).clone()))
        });
        wire(g, p, self.cfg.base_channels, x0, x1)
    }

    /// Inference without gradient tracking.
    ///
    /// Inputs are `[B, in_channels, size, size]` tensors (any batch size;
    /// single-placement callers pass `B = 1`). Batch images are processed
    /// independently by every layer, so each image's output is bitwise
    /// identical whether it is predicted alone or inside a larger batch —
    /// the property the serving layer's batch coalescing depends on.
    pub fn predict(&self, f0: &Tensor, f1: &Tensor) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let x0 = g.input(f0.clone());
        let x1 = g.input(f1.clone());
        let (c0, c1) = self.forward_frozen(&mut g, x0, x1);
        (g.value(c0).clone(), g.value(c1).clone())
    }

    /// The RMS-Frobenius training loss of Eq. 4, recorded on the graph:
    /// `0.5 * Σ_d sqrt(mean((pred_d - label_d)^2))`.
    pub fn loss(g: &mut Graph, pred: (Var, Var), label: (Var, Var)) -> Var {
        let t0 = {
            let d = g.sub(pred.0, label.0);
            let s = g.square(d);
            let m = g.mean_all(s);
            g.sqrt(m)
        };
        let t1 = {
            let d = g.sub(pred.1, label.1);
            let s = g.square(d);
            let m = g.mean_all(s);
            g.sqrt(m)
        };
        let sum = g.add(t0, t1);
        g.mul_scalar(sum, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_tensor::Adam;

    fn tiny_cfg() -> UNetConfig {
        UNetConfig {
            in_channels: 7,
            base_channels: 4,
            size: 8,
        }
    }

    #[test]
    fn output_shapes_match_input() {
        let model = SiameseUNet::new(tiny_cfg(), 1);
        let f = Tensor::ones(&[1, 7, 8, 8]);
        let (c0, c1) = model.predict(&f, &f);
        assert_eq!(c0.shape(), &[1, 1, 8, 8]);
        assert_eq!(c1.shape(), &[1, 1, 8, 8]);
    }

    #[test]
    fn encoder_decoder_weights_are_shared() {
        // One set of encoder/decoder weights serves both dies: perturbing a
        // single shared weight must change BOTH predictions.
        let mut model = SiameseUNet::new(tiny_cfg(), 2);
        let f = Tensor::from_vec(
            (0..7 * 64).map(|v| (v % 13) as f32 * 0.1).collect(),
            &[1, 7, 8, 8],
        );
        let f_alt = Tensor::from_vec(
            (0..7 * 64).map(|v| (v % 7) as f32 * 0.1).collect(),
            &[1, 7, 8, 8],
        );
        let (a0, a1) = model.predict(&f, &f_alt);
        let mut w = model.store_mut().get("enc1.w").clone();
        w.data_mut()[0] += 0.5;
        model.store_mut().insert("enc1.w", w);
        let (b0, b1) = model.predict(&f, &f_alt);
        let diff0: f32 = a0
            .data()
            .iter()
            .zip(b0.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        let diff1: f32 = a1
            .data()
            .iter()
            .zip(b1.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff0 > 1e-5, "die 0 unaffected by shared weight");
        assert!(diff1 > 1e-5, "die 1 unaffected by shared weight");
    }

    #[test]
    fn communication_layer_couples_the_dies() {
        // Changing die 1's input must change die 0's prediction.
        let model = SiameseUNet::new(tiny_cfg(), 3);
        let f = Tensor::ones(&[1, 7, 8, 8]);
        let f_alt = Tensor::full(&[1, 7, 8, 8], 2.0);
        let (c0_a, _) = model.predict(&f, &f);
        let (c0_b, _) = model.predict(&f, &f_alt);
        let diff: f32 = c0_a
            .data()
            .iter()
            .zip(c0_b.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-4,
            "communication layer seems disconnected (diff {diff})"
        );
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let mut model = SiameseUNet::new(tiny_cfg(), 4);
        let f = Tensor::from_vec(
            (0..7 * 64).map(|v| (v % 5) as f32 * 0.2).collect(),
            &[1, 7, 8, 8],
        );
        let label = Tensor::full(&[1, 1, 8, 8], 0.7);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..8 {
            let mut g = Graph::new();
            let x0 = g.input(f.clone());
            let x1 = g.input(f.clone());
            let y0 = g.input(label.clone());
            let y1 = g.input(label.clone());
            let (c0, c1) = model.forward(&mut g, x0, x1);
            let loss = SiameseUNet::loss(&mut g, (c0, c1), (y0, y1));
            losses.push(g.value(loss).data()[0]);
            g.backward(loss);
            model.store_mut().apply_grads(&g);
            opt.step(model.store_mut());
        }
        assert!(
            losses.last().expect("non-empty") < losses.first().expect("non-empty"),
            "loss did not decrease: {losses:?}"
        );
    }

    #[test]
    fn frozen_forward_gives_the_same_input_gradients_as_trainable_forward() {
        // DCO differentiates through frozen weights; skipping their
        // gradients must not move a single bit of the input gradients.
        let mut model = SiameseUNet::new(tiny_cfg(), 6);
        let f0 = Tensor::from_vec(
            (0..7 * 64).map(|v| (v as f32 * 0.37).sin()).collect(),
            &[1, 7, 8, 8],
        );
        let f1 = Tensor::from_vec(
            (0..7 * 64).map(|v| (v as f32 * 0.53).cos()).collect(),
            &[1, 7, 8, 8],
        );
        let label = Tensor::full(&[1, 1, 8, 8], 0.3);
        let mut input_grads = |frozen: bool| {
            let mut g = Graph::new();
            let x0 = g.param(f0.clone());
            let x1 = g.param(f1.clone());
            let pred = if frozen {
                model.forward_frozen(&mut g, x0, x1)
            } else {
                model.forward(&mut g, x0, x1)
            };
            let y0 = g.input(label.clone());
            let y1 = g.input(label.clone());
            let loss = SiameseUNet::loss(&mut g, pred, (y0, y1));
            g.backward(loss);
            let bits = |v: Var| -> Vec<u32> {
                let grad = g.grad(v).expect("input gradient");
                grad.data().iter().map(|x| x.to_bits()).collect()
            };
            (bits(x0), bits(x1))
        };
        let frozen = input_grads(true);
        let trainable = input_grads(false);
        assert!(
            frozen.0.iter().any(|&b| b != 0),
            "no gradient reached die 0"
        );
        assert_eq!(frozen.0, trainable.0, "die 0 input gradients differ");
        assert_eq!(frozen.1, trainable.1, "die 1 input gradients differ");
    }

    #[test]
    fn raw_predictions_are_finite() {
        let model = SiameseUNet::new(tiny_cfg(), 5);
        let f = Tensor::from_vec(
            (0..7 * 64).map(|v| -(v as f32) * 0.01).collect(),
            &[1, 7, 8, 8],
        );
        let (c0, _) = model.predict(&f, &f);
        assert!(c0.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn bad_size_is_rejected() {
        let _ = SiameseUNet::new(
            UNetConfig {
                in_channels: 7,
                base_channels: 4,
                size: 10,
            },
            0,
        );
    }
}
