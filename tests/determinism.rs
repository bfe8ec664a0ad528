//! Thread-count determinism matrix.
//!
//! Every parallel hot path must produce **bitwise-identical** outputs at
//! `--threads 1`, `2`, and `8` — the dco-parallel contract (fixed task
//! boundaries + ordered reduction) says the worker count can never change
//! result bits. Each case runs the same computation across the sweep and
//! compares FNV-1a checksums of the raw output bit patterns.

use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::Design;
use dco_place::{GlobalPlacer, PlacementParams};
use dco_route::{Router, RouterConfig};
use dco_tensor::conv::{
    bias_chan_backward, conv2d_backward_input, conv2d_backward_weight, conv2d_forward,
    conv_transpose2d_backward_input, conv_transpose2d_backward_weight, conv_transpose2d_forward,
};
use dco_tensor::Tensor;
use dco_timing::Sta;
use dco_unet::{SiameseUNet, UNetConfig};
use std::sync::Mutex;

/// The worker count is process-global, so cases must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

const SWEEP: [usize; 3] = [1, 2, 8];

/// Run `f` once per sweep entry and assert every checksum matches the
/// single-threaded one.
fn assert_thread_invariant(name: &str, f: impl Fn() -> u64) {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Disable the adaptive sequential fallback for the sweep: on a
    // single-core machine it would collapse every entry to one worker and
    // the matrix would stop exercising real multi-worker pools.
    dco_parallel::set_adaptive(false);
    let mut base = None;
    for n in SWEEP {
        dco_parallel::set_threads(n);
        let c = f();
        match base {
            None => base = Some(c),
            Some(b) => assert_eq!(
                c, b,
                "{name}: output at --threads {n} diverged from --threads 1"
            ),
        }
    }
    dco_parallel::set_adaptive(true);
}

fn test_design() -> Design {
    GeneratorConfig::for_profile(DesignProfile::Dma)
        .with_scale(0.02)
        .generate(3)
        .expect("generation succeeds")
}

#[test]
fn conv2d_forward_and_backward_are_thread_invariant() {
    // Batch 2 (one task per image); the input gradient's strips of 12
    // rows of 40 pixels cover the 45 rows as 12 + 12 + 12 + 9.
    let x = Tensor::from_vec(
        (0..2 * 3 * 45 * 40)
            .map(|i| ((i as f32) * 0.59).sin())
            .collect(),
        &[2, 3, 45, 40],
    );
    let w = Tensor::from_vec(
        (0..5 * 3 * 9).map(|i| ((i as f32) * 0.31).cos()).collect(),
        &[5, 3, 3, 3],
    );
    let b = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0, 0.05], &[5]);
    let gy = conv2d_forward(&x, &w, Some(&b), 1, 1).map(|v| (v * 0.2).tanh());
    assert_thread_invariant("conv2d_forward", || {
        dco_parallel::checksum_f32(conv2d_forward(&x, &w, Some(&b), 1, 1).data())
    });
    assert_thread_invariant("conv2d_backward", || {
        let gx = conv2d_backward_input(x.shape(), &w, 1, 1, &gy);
        let gw = conv2d_backward_weight(&x, w.shape(), 1, 1, &gy);
        let gb = bias_chan_backward(&gy);
        let mut c = dco_parallel::checksum_f32(gx.data());
        c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(gw.data()));
        dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(gb.data()))
    });
}

#[test]
fn conv_transpose2d_forward_and_backward_are_thread_invariant() {
    // The UNet's 2×2 stride-2 up-sampling shape, batch 2 (one task per
    // image), 5 → 3 channels on a non-square map.
    let x = Tensor::from_vec(
        (0..2 * 5 * 12 * 10)
            .map(|i| ((i as f32) * 0.43).sin())
            .collect(),
        &[2, 5, 12, 10],
    );
    let w = Tensor::from_vec(
        (0..5 * 3 * 4).map(|i| ((i as f32) * 0.27).cos()).collect(),
        &[5, 3, 2, 2],
    );
    let b = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
    let gy = conv_transpose2d_forward(&x, &w, Some(&b), 2, 0).map(|v| (v * 0.2).tanh());
    assert_thread_invariant("conv_transpose2d_forward", || {
        dco_parallel::checksum_f32(conv_transpose2d_forward(&x, &w, Some(&b), 2, 0).data())
    });
    assert_thread_invariant("conv_transpose2d_backward", || {
        let gx = conv_transpose2d_backward_input(&w, 2, 0, &gy);
        let gw = conv_transpose2d_backward_weight(&x, w.shape(), 2, 0, &gy);
        let c = dco_parallel::checksum_f32(gx.data());
        dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(gw.data()))
    });
}

#[test]
fn matmul_is_thread_invariant() {
    // Big enough to cross the row-parallel threshold.
    let m = 96;
    let a = Tensor::from_vec(
        (0..m * m).map(|i| ((i as f32) * 0.017).sin()).collect(),
        &[m, m],
    );
    assert_thread_invariant("matmul", || dco_parallel::checksum_f32(a.matmul(&a).data()));
}

#[test]
fn placement_is_thread_invariant() {
    let design = test_design();
    let params = PlacementParams::default();
    assert_thread_invariant("placement", || {
        let p = GlobalPlacer::new(&design).place(&params, 3);
        let c = dco_parallel::checksum_f64(p.xs());
        dco_parallel::checksum_combine(c, dco_parallel::checksum_f64(p.ys()))
    });
}

#[test]
fn routing_is_thread_invariant() {
    let design = test_design();
    let placed = GlobalPlacer::new(&design).place(&PlacementParams::default(), 3);
    let router = Router::new(&design, RouterConfig::default());
    assert_thread_invariant("route", || {
        let r = router.route(&placed);
        let mut c = dco_parallel::checksum_f32(r.h_usage[0].data());
        for m in [&r.h_usage[1], &r.v_usage[0], &r.v_usage[1]] {
            c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(m.data()));
        }
        c = dco_parallel::checksum_combine(c, r.report.total.to_bits());
        dco_parallel::checksum_combine(c, r.wirelength.to_bits())
    });
}

#[test]
fn sta_is_thread_invariant() {
    let design = test_design();
    let placed = GlobalPlacer::new(&design).place(&PlacementParams::default(), 3);
    let routed = Router::new(&design, RouterConfig::default()).route(&placed);
    let sta = Sta::new(&design);
    assert_thread_invariant("sta", || {
        let t = sta.analyze(&placed, Some(&routed.net_lengths), Some(&routed.net_bonds));
        let mut c = dco_parallel::checksum_f64(&t.pin_arrival);
        c = dco_parallel::checksum_combine(c, dco_parallel::checksum_f64(&t.cell_slack));
        dco_parallel::checksum_combine(c, t.wns_ps.to_bits())
    });
}

#[test]
fn unet_prediction_is_thread_invariant() {
    let unet = SiameseUNet::new(
        UNetConfig {
            in_channels: 7,
            base_channels: 4,
            size: 16,
        },
        3,
    );
    let f = Tensor::from_vec(
        (0..7 * 16 * 16)
            .map(|i| ((i as f32) * 0.083).sin())
            .collect(),
        &[1, 7, 16, 16],
    );
    assert_thread_invariant("unet_predict", || {
        let (bottom, top) = unet.predict(&f, &f);
        let c = dco_parallel::checksum_f32(bottom.data());
        dco_parallel::checksum_combine(c, dco_parallel::checksum_f32(top.data()))
    });
}
