//! Patch-based incremental UNet re-inference.
//!
//! Given a cached congestion prediction and a [`DeltaSet`] of dirtied
//! GCell tiles, re-run the Siamese UNet only on a cropped window around
//! the dirty region and stitch the result back into the cached maps —
//! bitwise identical to a from-scratch [`predict_maps`] call.
//!
//! # Why a crop is exact
//!
//! Every spatial operator in [`SiameseUNet`] has a bounded receptive
//! field, and the tensor kernels accumulate each output element in a
//! fixed k-ascending order that does not depend on the spatial size
//! (`conv2d_forward` lowers to an im2col GEMM whose K blocking is
//! independent of the output position; `conv_transpose2d_forward` lowers
//! to the same packed GEMM, `Wᵀ · X` over a strip of input pixels, whose
//! K dimension is the input channels — with kernel 2 / stride 2 each output
//! pixel is one entry of that product, scattered once, so its value is a
//! channel-ascending sum that depends neither on where the pixel sits nor
//! on how the image was cut into strips). So an output pixel whose
//! receptive field sees identical input values computes the identical f32
//! sum.
//!
//! Tracing the three skip paths of the network at full resolution:
//!
//! - head ∘ dec2 ∘ (enc1 skip): two 3×3 convs → radius 2,
//! - dec2 ∘ up2 ∘ dec1 ∘ (enc2 skip): 3×3 at half res inside two more
//!   3×3-equivalents → radius 8,
//! - the bottleneck path (including the cross-die 1×1 communication
//!   layer, which is spatially pointwise): 3×3 at quarter res plus the
//!   encoder convs → radius 14.
//!
//! The receptive-field radius is therefore ≤ 14 full-resolution pixels;
//! [`RF_RADIUS`] = 16 is used as a conservative, 4-aligned bound. A crop
//! that extends [`RF_RADIUS`] beyond the stitched region — which itself
//! extends [`RF_RADIUS`] beyond the dirty pixels — yields stitched
//! pixels whose values are bitwise equal to the full-image forward pass,
//! provided the crop offsets and sizes are multiples of 4 so the two
//! pooling levels tile identically. `tests` pin this property.

use crate::model::SiameseUNet;
use crate::trainer::predict_maps;
use crate::Normalization;
use dco_features::{resize_nearest, GridMap, NUM_CHANNELS};
use dco_incremental::DeltaSet;

/// Conservative receptive-field radius of [`SiameseUNet`] in model-space
/// pixels (true bound is 14; 16 keeps the halo 4-aligned). See the
/// module docs for the derivation.
pub const RF_RADIUS: usize = 16;

/// What [`patch_predict_maps`] did, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnetPatchStats {
    /// Model-space pixels whose nearest-neighbour source tile was dirty.
    pub dirty_pixels: usize,
    /// Stitched-back region `(x0, y0, w, h)` in model space, if any.
    pub stitch: Option<(usize, usize, usize, usize)>,
    /// Cropped forward-pass window `(x0, y0, w, h)`, if a crop ran.
    pub crop: Option<(usize, usize, usize, usize)>,
    /// True when the crop would have covered the full image and a plain
    /// full forward pass ran instead.
    pub full_fallback: bool,
}

/// Resize a pair of per-die feature stacks to the model resolution.
///
/// This is the exact per-channel [`resize_nearest`] the full prediction
/// path feeds to [`predict_maps`]; the patch path samples the same
/// mapping per cropped pixel.
pub fn resized_stacks(features: [&[GridMap]; 2], nx: usize, ny: usize) -> [Vec<GridMap>; 2] {
    features.map(|stack| stack.iter().map(|m| resize_nearest(m, nx, ny)).collect())
}

/// Nearest-neighbour source index for destination index `i` of `n_new`
/// samples over `n_src` — the same center-sampling rule as
/// [`resize_nearest`].
#[inline]
fn nn_src(i: usize, n_new: usize, n_src: usize) -> usize {
    let s = ((i as f64 + 0.5) * n_src as f64 / n_new as f64) as usize;
    s.min(n_src - 1)
}

/// Re-predict only the dirty window of the cached congestion maps.
///
/// `features` are the **full-resolution** (GCell grid) per-die feature
/// stacks in canonical channel order, already patched to the current
/// placement; `cached` are the model-resolution congestion maps from the
/// previous prediction, updated in place. The result is bitwise
/// identical to resizing all channels and calling [`predict_maps`] from
/// scratch.
///
/// # Panics
/// Panics when a stack does not have [`NUM_CHANNELS`] channels or the
/// cached map sizes are not multiples of 4.
pub fn patch_predict_maps(
    model: &SiameseUNet,
    norm: &Normalization,
    features: [&[GridMap]; 2],
    delta: &DeltaSet,
    cached: &mut [GridMap; 2],
) -> UnetPatchStats {
    let _span = dco_obs::span!("unet.patch");
    assert_eq!(
        features[0].len(),
        NUM_CHANNELS,
        "expected {NUM_CHANNELS} channels"
    );
    assert_eq!(
        features[1].len(),
        NUM_CHANNELS,
        "expected {NUM_CHANNELS} channels"
    );
    let (mnx, mny) = (cached[0].nx(), cached[0].ny());
    assert!(
        mnx.is_multiple_of(4) && mny.is_multiple_of(4),
        "model map size must be divisible by 4"
    );
    let (snx, sny) = (features[0][0].nx(), features[0][0].ny());
    let mut stats = UnetPatchStats::default();
    if delta.is_empty() {
        return stats;
    }

    // Model pixels whose nearest-neighbour source tile is dirty. At a
    // downsampling ratio some dirty tiles are never sampled, so a
    // non-empty delta can still leave the prediction untouched.
    let (mut x0, mut y0, mut x1, mut y1) = (mnx, mny, 0usize, 0usize);
    for r in 0..mny {
        let sy = nn_src(r, mny, sny);
        for c in 0..mnx {
            if delta.is_dirty(nn_src(c, mnx, snx), sy) {
                stats.dirty_pixels += 1;
                x0 = x0.min(c);
                y0 = y0.min(r);
                x1 = x1.max(c + 1);
                y1 = y1.max(r + 1);
            }
        }
    }
    if stats.dirty_pixels == 0 {
        return stats;
    }

    // Stitch region: dirty bbox + one receptive-field halo (those pixels
    // can change). Crop: one more halo so every stitched pixel's
    // receptive field sees only real (non-crop-padding) inputs, rounded
    // out to multiples of 4 for exact pooling alignment.
    let sx0 = x0.saturating_sub(RF_RADIUS);
    let sy0 = y0.saturating_sub(RF_RADIUS);
    let sx1 = (x1 + RF_RADIUS).min(mnx);
    let sy1 = (y1 + RF_RADIUS).min(mny);
    let cx0 = (sx0.saturating_sub(RF_RADIUS)) & !3;
    let cy0 = (sy0.saturating_sub(RF_RADIUS)) & !3;
    let cx1 = (sx1 + RF_RADIUS).min(mnx).next_multiple_of(4).min(mnx);
    let cy1 = (sy1 + RF_RADIUS).min(mny).next_multiple_of(4).min(mny);
    let (cw, chh) = (cx1 - cx0, cy1 - cy0);
    stats.stitch = Some((sx0, sy0, sx1 - sx0, sy1 - sy0));

    if cw == mnx && chh == mny {
        // The crop covers everything; run the plain full path.
        stats.full_fallback = true;
        let [r0, r1] = resized_stacks(features, mnx, mny);
        *cached = predict_maps(model, norm, [&r0, &r1]);
        dco_obs::counter_add("unet.patch.full_fallback", 1);
        dco_obs::counter_add("unet.patch.stitch_pixels", (mnx * mny) as u64);
        return stats;
    }
    stats.crop = Some((cx0, cy0, cw, chh));

    // Cropped normalized input tensors for both dies (the communication
    // layer is spatially pointwise but crosses dies, so both dies must be
    // cropped identically). Each pixel samples the full-res stack through
    // the same nearest-neighbour rule and channel scale as the full path.
    let crop_tensor = |stack: &[GridMap]| {
        let mut data = Vec::with_capacity(NUM_CHANNELS * cw * chh);
        for (ch, m) in stack.iter().enumerate() {
            let s = norm.channel_scale[ch];
            for r in cy0..cy1 {
                let sy = nn_src(r, mny, sny);
                for c in cx0..cx1 {
                    data.push(m.get(nn_src(c, mnx, snx), sy) / s);
                }
            }
        }
        dco_tensor::Tensor::from_vec(data, &[1, NUM_CHANNELS, chh, cw])
    };
    let f0 = crop_tensor(features[0]);
    let f1 = crop_tensor(features[1]);
    let (p0, p1) = model.predict(&f0, &f1);

    // Stitch only the region whose values can have changed, through the
    // same label-units conversion as `Normalization::prediction_to_map`.
    for (die, pred) in [(0usize, &p0), (1usize, &p1)] {
        let pd = pred.data();
        for r in sy0..sy1 {
            for c in sx0..sx1 {
                let v = pd[(r - cy0) * cw + (c - cx0)];
                cached[die].set(c, r, (v * norm.label_scale).max(0.0));
            }
        }
    }
    dco_obs::counter_add(
        "unet.patch.stitch_pixels",
        ((sx1 - sx0) * (sy1 - sy0)) as u64,
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNetConfig;
    use dco_features::FeatureExtractor;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_netlist::{CellId, Design, Tier};

    const SIZE: usize = 96;

    fn design() -> Design {
        GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.03)
            .generate(17)
            .expect("gen")
    }

    fn model() -> SiameseUNet {
        let cfg = UNetConfig {
            base_channels: 4,
            size: SIZE,
            ..UNetConfig::default()
        };
        SiameseUNet::new(cfg, 42)
    }

    fn norm() -> Normalization {
        Normalization {
            channel_scale: [0.5, 3.0, 1.5, 0.75, 2.0, 1.0, 0.25],
            label_scale: 2.5,
        }
    }

    fn maps_bits_equal(a: &GridMap, b: &GridMap) -> bool {
        a.data()
            .iter()
            .zip(b.data())
            .all(|(u, v)| u.to_bits() == v.to_bits())
    }

    fn fresh_predict(
        model: &SiameseUNet,
        norm: &Normalization,
        features: [&[GridMap]; 2],
    ) -> [GridMap; 2] {
        let [r0, r1] = resized_stacks(features, SIZE, SIZE);
        predict_maps(model, norm, [&r0, &r1])
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let d = design();
        let fx = FeatureExtractor::new(d.floorplan.grid);
        let feats = fx.extract(&d.netlist, &d.placement);
        let (f0, f1) = (feats[0].channels(), feats[1].channels());
        let features = [&f0.map(|m| m.clone())[..], &f1.map(|m| m.clone())[..]];
        let m = model();
        let n = norm();
        let mut cached = fresh_predict(&m, &n, features);
        let before = cached.clone();
        let stats = patch_predict_maps(
            &m,
            &n,
            features,
            &DeltaSet::empty(d.floorplan.grid),
            &mut cached,
        );
        assert_eq!(stats, UnetPatchStats::default());
        assert!(maps_bits_equal(&cached[0], &before[0]));
        assert!(maps_bits_equal(&cached[1], &before[1]));
    }

    #[test]
    fn single_move_patch_matches_fresh_predict_bitwise() {
        let d = design();
        let g = d.floorplan.grid;
        let fx = FeatureExtractor::new(g);
        let m = model();
        let n = norm();

        let feats = fx.extract(&d.netlist, &d.placement);
        let (f0, f1) = (feats[0].channels(), feats[1].channels());
        let f0: Vec<GridMap> = f0.iter().map(|m| (*m).clone()).collect();
        let f1: Vec<GridMap> = f1.iter().map(|m| (*m).clone()).collect();
        let mut cached = fresh_predict(&m, &n, [&f0, &f1]);

        // Pick a cell whose incident nets are all local, so the dirty
        // region stays a small window (cells on high-fanout nets
        // legitimately invalidate most of the RUDY maps).
        let (id, moved) = (0..d.netlist.num_cells())
            .filter_map(|i| {
                let id = CellId(i as u32);
                let mut m = d.placement.clone();
                m.set_xy(id, m.x(id) + 2.5 * g.dx, m.y(id) + 0.5 * g.dy);
                m.set_tier(
                    id,
                    match m.tier(id) {
                        Tier::Top => Tier::Bottom,
                        Tier::Bottom => Tier::Top,
                    },
                );
                let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &m);
                (delta.tiles_dirtied() * 20 < g.len()).then_some((id, m))
            })
            .next()
            .expect("some cell with only local nets");
        let delta = DeltaSet::diff(&d.netlist, g, &d.placement, &moved);
        assert!(delta.moved_cells().contains(&id));
        let moved_feats = fx.extract(&d.netlist, &moved);
        let (mf0, mf1) = (moved_feats[0].channels(), moved_feats[1].channels());
        let mf0: Vec<GridMap> = mf0.iter().map(|m| (*m).clone()).collect();
        let mf1: Vec<GridMap> = mf1.iter().map(|m| (*m).clone()).collect();

        let stats = patch_predict_maps(&m, &n, [&mf0, &mf1], &delta, &mut cached);
        assert!(stats.dirty_pixels > 0, "move must dirty model pixels");
        assert!(!stats.full_fallback, "single move must take the crop path");
        let (_, _, cw, chh) = stats.crop.expect("crop rect");
        assert!(cw < SIZE || chh < SIZE, "crop must be a strict window");

        let fresh = fresh_predict(&m, &n, [&mf0, &mf1]);
        assert!(maps_bits_equal(&cached[0], &fresh[0]), "bottom die differs");
        assert!(maps_bits_equal(&cached[1], &fresh[1]), "top die differs");
    }

    #[test]
    fn everything_delta_falls_back_to_full_and_matches() {
        let d = design();
        let fx = FeatureExtractor::new(d.floorplan.grid);
        let feats = fx.extract(&d.netlist, &d.placement);
        let (f0, f1) = (feats[0].channels(), feats[1].channels());
        let f0: Vec<GridMap> = f0.iter().map(|m| (*m).clone()).collect();
        let f1: Vec<GridMap> = f1.iter().map(|m| (*m).clone()).collect();
        let m = model();
        let n = norm();
        // Start from garbage: the full fallback must fully overwrite it.
        let mut cached = [GridMap::zeros(SIZE, SIZE), GridMap::zeros(SIZE, SIZE)];
        let delta = DeltaSet::everything(&d.netlist, d.floorplan.grid);
        let stats = patch_predict_maps(&m, &n, [&f0, &f1], &delta, &mut cached);
        assert!(stats.full_fallback);
        let fresh = fresh_predict(&m, &n, [&f0, &f1]);
        assert!(maps_bits_equal(&cached[0], &fresh[0]));
        assert!(maps_bits_equal(&cached[1], &fresh[1]));
    }

    /// Direct pin of the receptive-field bound: predict a hand-chosen
    /// crop and compare the stitch interior against the full forward
    /// pass, independent of any `DeltaSet` geometry.
    #[test]
    fn cropped_forward_pass_matches_full_inside_stitch() {
        let d = design();
        let fx = FeatureExtractor::new(d.floorplan.grid);
        let feats = fx.extract(&d.netlist, &d.placement);
        let (f0, f1) = (feats[0].channels(), feats[1].channels());
        let f0: Vec<GridMap> = f0.iter().map(|m| (*m).clone()).collect();
        let f1: Vec<GridMap> = f1.iter().map(|m| (*m).clone()).collect();
        let m = model();
        let n = norm();
        let full = fresh_predict(&m, &n, [&f0, &f1]);

        // Crop (16,16)..(80,80); stitch interior (32,32)..(64,64).
        let (cx0, cy0, cw) = (16usize, 16usize, 64usize);
        let (snx, sny) = (f0[0].nx(), f0[0].ny());
        let crop_tensor = |stack: &[GridMap]| {
            let mut data = Vec::with_capacity(NUM_CHANNELS * cw * cw);
            for (ch, map) in stack.iter().enumerate() {
                let s = n.channel_scale[ch];
                for r in cy0..cy0 + cw {
                    let sy = nn_src(r, SIZE, sny);
                    for c in cx0..cx0 + cw {
                        data.push(map.get(nn_src(c, SIZE, snx), sy) / s);
                    }
                }
            }
            dco_tensor::Tensor::from_vec(data, &[1, NUM_CHANNELS, cw, cw])
        };
        let (p0, p1) = m.predict(&crop_tensor(&f0), &crop_tensor(&f1));
        for (pred, full_map) in [(&p0, &full[0]), (&p1, &full[1])] {
            for r in cy0 + RF_RADIUS..cy0 + cw - RF_RADIUS {
                for c in cx0 + RF_RADIUS..cx0 + cw - RF_RADIUS {
                    let v = (pred.data()[(r - cy0) * cw + (c - cx0)] * n.label_scale).max(0.0);
                    assert_eq!(
                        v.to_bits(),
                        full_map.get(c, r).to_bits(),
                        "crop/full mismatch at ({c}, {r})"
                    );
                }
            }
        }
    }
}
