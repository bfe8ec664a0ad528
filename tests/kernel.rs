//! Integration tests for the im2col + blocked-GEMM convolution kernel.
//!
//! These exercise the packed kernel path end-to-end from outside the tensor
//! crate: a numerical gradient check at a deliberately awkward shape
//! (non-square, non-power-of-two spatial dims) and bitwise identity between
//! arena-pooled and plain-heap execution.

use dco_tensor::conv::{
    bias_chan_backward, conv2d_backward_input, conv2d_backward_weight, conv2d_forward,
    conv_transpose2d_backward_input, conv_transpose2d_backward_weight, conv_transpose2d_forward,
};
use dco_tensor::Tensor;

fn fixture(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|v| (v as f32 * scale).sin()).collect()
}

/// All three conv2d gradients: `(grad_x, grad_w, grad_b)`.
fn conv2d_grads(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    gy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    (
        conv2d_backward_input(x.shape(), w, stride, pad, gy),
        conv2d_backward_weight(x, w.shape(), stride, pad, gy),
        bias_chan_backward(gy),
    )
}

/// Numerical gradient check for the im2col conv2d at a non-square,
/// non-power-of-two shape (5x7 spatial, 3 input channels, 4 filters).
#[test]
fn im2col_conv2d_gradcheck_awkward_shape() {
    let (bsz, cin, h, w, cout, k, stride, pad) = (1usize, 3usize, 5, 7, 4, 3, 1, 1);
    let x = Tensor::from_vec(fixture(bsz * cin * h * w, 0.13), &[bsz, cin, h, w]);
    let wt = Tensor::from_vec(fixture(cout * cin * k * k, 0.29), &[cout, cin, k, k]);
    let gy = Tensor::ones(&[bsz, cout, h, w]);
    let (gx, gw, gb) = conv2d_grads(&x, &wt, stride, pad, &gy);
    let f = |x: &Tensor, w: &Tensor| conv2d_forward(x, w, None, stride, pad).sum();
    let eps = 1e-2f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = (f(&xp, &wt) - f(&xm, &wt)) / (2.0 * eps);
        assert!(
            (num - gx.data()[i]).abs() < 2e-2,
            "gx[{i}]: numeric {num} vs analytic {}",
            gx.data()[i]
        );
    }
    for i in 0..wt.len() {
        let mut wp = wt.clone();
        wp.data_mut()[i] += eps;
        let mut wm = wt.clone();
        wm.data_mut()[i] -= eps;
        let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
        assert!(
            (num - gw.data()[i]).abs() < 2e-2,
            "gw[{i}]: numeric {num} vs analytic {}",
            gw.data()[i]
        );
    }
    // Sum-loss bias gradient = number of output pixels per channel.
    assert_eq!(gb.data(), &[(h * w) as f32; 4][..]);
}

/// The arena is a pure allocation cache: pooled and heap execution must be
/// bitwise identical for the whole forward + backward pass of both the
/// convolution and the transposed convolution. At 37 rows of 40 pixels the
/// strip loop (conv2d input gradient, convT forward) runs three 12-row
/// strips and a partial last one per image, reusing one column buffer.
#[test]
fn conv2d_arena_vs_heap_is_bitwise_identical() {
    let (bsz, cin, h, w, cout, k, stride, pad) = (2usize, 5usize, 37, 40, 6, 3, 1, 1);
    let x = Tensor::from_vec(fixture(bsz * cin * h * w, 0.41), &[bsz, cin, h, w]);
    let wt = Tensor::from_vec(fixture(cout * cin * k * k, 0.23), &[cout, cin, k, k]);
    let bias = Tensor::from_vec((0..cout).map(|v| v as f32 * 0.1 - 0.2).collect(), &[cout]);
    let gy = Tensor::from_vec(fixture(bsz * cout * h * w, 0.07), &[bsz, cout, h, w]);
    // Transposed convolution, the UNet's 2×2 stride-2 up-sampling shape:
    // [bsz, cin, h, w] → [bsz, cout, 2h, 2w].
    let wt_t = Tensor::from_vec(fixture(cin * cout * 4, 0.37), &[cin, cout, 2, 2]);
    let gy_t = Tensor::from_vec(
        fixture(bsz * cout * 4 * h * w, 0.13),
        &[bsz, cout, 2 * h, 2 * w],
    );

    let run = || {
        dco_tensor::arena::reset_scratch();
        let y = conv2d_forward(&x, &wt, Some(&bias), stride, pad);
        let (gx, gw, gb) = conv2d_grads(&x, &wt, stride, pad, &gy);
        let yt = conv_transpose2d_forward(&x, &wt_t, Some(&bias), 2, 0);
        let gxt = conv_transpose2d_backward_input(&wt_t, 2, 0, &gy_t);
        let gwt = conv_transpose2d_backward_weight(&x, wt_t.shape(), 2, 0, &gy_t);
        [y, gx, gw, gb, yt, gxt, gwt]
    };

    dco_tensor::arena::set_pooling(false);
    let heap = run();
    dco_tensor::arena::set_pooling(true);
    // Two pooled runs: the second is guaranteed to hit recycled buffers.
    let _ = run();
    let pooled = run();
    let stats = dco_tensor::arena::scratch_stats();
    dco_tensor::arena::reset_scratch();

    assert!(stats.hits > 0, "second pooled run should reuse scratch");
    let names = [
        "forward outputs",
        "input grads",
        "weight grads",
        "bias grads",
        "convT forward outputs",
        "convT input grads",
        "convT weight grads",
    ];
    for ((name, a), b) in names.iter().zip(&heap).zip(&pooled) {
        assert_eq!(a.data(), b.data(), "{name} differ");
    }
}

/// The byte cap evicts rather than pools: a single buffer over
/// [`MAX_POOLED_BYTES`] is dropped, one exactly at the cap is kept, and a
/// subsequent give that would cross the cap is dropped while the pool
/// still serves hits from what it holds. Capacity-only `Vec`s keep this
/// test cheap — the pages are never touched.
#[test]
fn arena_byte_cap_evicts_and_buffer_cap_holds_at_sixteen() {
    use dco_tensor::arena::{TensorArena, MAX_POOLED_BUFFERS, MAX_POOLED_BYTES};

    let cap_elems = MAX_POOLED_BYTES / 4;
    let mut a = TensorArena::new();
    a.give(Vec::with_capacity(cap_elems + 1));
    assert_eq!(
        a.stats().pooled_buffers,
        0,
        "an over-cap buffer must be dropped, not pooled"
    );
    a.give(Vec::with_capacity(cap_elems));
    assert_eq!(a.stats().pooled_buffers, 1, "an at-cap buffer is kept");
    assert_eq!(a.stats().pooled_bytes, MAX_POOLED_BYTES);
    a.give(vec![0.0; 1]);
    assert_eq!(
        a.stats().pooled_buffers,
        1,
        "any give that would cross the byte cap is dropped"
    );
    // The pooled at-cap buffer still serves requests bit-correctly.
    let b = a.take_zeroed(64);
    assert!(b.iter().all(|&v| v == 0.0));
    assert_eq!(a.stats().hits, 1);
    drop(b);

    // Buffer-count cap: seventeen small gives keep only sixteen.
    let mut a = TensorArena::new();
    for _ in 0..MAX_POOLED_BUFFERS + 1 {
        a.give(vec![0.0; 8]);
    }
    assert_eq!(a.stats().pooled_buffers, MAX_POOLED_BUFFERS);
}

/// Toggling pooling mid-run must never change results: heap → pooled →
/// heap → pooled legs of the same conv sequence are all bitwise equal,
/// and a buffer taken while pooling was on may be given back after the
/// toggle without corrupting later takes.
#[test]
fn pooling_toggle_mid_run_is_bitwise_stable() {
    let (bsz, cin, h, w, cout, k, stride, pad) = (1usize, 3usize, 9, 11, 4, 3, 1, 1);
    let x = Tensor::from_vec(fixture(bsz * cin * h * w, 0.31), &[bsz, cin, h, w]);
    let wt = Tensor::from_vec(fixture(cout * cin * k * k, 0.19), &[cout, cin, k, k]);
    let gy = Tensor::from_vec(fixture(bsz * cout * h * w, 0.11), &[bsz, cout, h, w]);

    dco_tensor::arena::set_pooling(false);
    dco_tensor::arena::reset_scratch();
    let y_ref = conv2d_forward(&x, &wt, None, stride, pad);
    let (gx_ref, gw_ref, gb_ref) = conv2d_grads(&x, &wt, stride, pad, &gy);

    // Mid-run toggles: forward pooled, backward heap, forward pooled again.
    dco_tensor::arena::set_pooling(true);
    let y_a = conv2d_forward(&x, &wt, None, stride, pad);
    dco_tensor::arena::set_pooling(false);
    let (gx_a, gw_a, gb_a) = conv2d_grads(&x, &wt, stride, pad, &gy);
    dco_tensor::arena::set_pooling(true);
    let y_b = conv2d_forward(&x, &wt, None, stride, pad);

    assert_eq!(y_ref.data(), y_a.data(), "pooled forward diverged");
    assert_eq!(y_ref.data(), y_b.data(), "post-toggle forward diverged");
    assert_eq!(gx_ref.data(), gx_a.data(), "heap-leg input grad diverged");
    assert_eq!(gw_ref.data(), gw_a.data(), "heap-leg weight grad diverged");
    assert_eq!(gb_ref.data(), gb_a.data(), "heap-leg bias grad diverged");

    // A scratch buffer taken under pooling and given back after a toggle
    // is silently dropped — the next pooled take must still be pristine.
    let taken = dco_tensor::arena::scratch_take_zeroed(128);
    dco_tensor::arena::set_pooling(false);
    dco_tensor::arena::scratch_give(taken);
    dco_tensor::arena::set_pooling(true);
    let clean = dco_tensor::arena::scratch_take_zeroed(256);
    assert!(clean.iter().all(|&v| v == 0.0));
    dco_tensor::arena::scratch_give(clean);
    dco_tensor::arena::reset_scratch();
}

/// Mismatched give-backs — foreign buffers never taken from the pool,
/// duplicate-sized strays, zero-length vectors — are absorbed without
/// corrupting later zeroed takes or the byte accounting.
#[test]
fn mismatched_give_back_is_harmless_and_takes_stay_zeroed() {
    use dco_tensor::arena::TensorArena;

    let mut a = TensorArena::new();
    // Foreign buffers with live garbage, never taken from this pool.
    a.give(vec![f32::NAN; 33]);
    a.give(vec![7.5; 9]);
    a.give(Vec::new());
    let s = a.stats();
    assert_eq!(s.pooled_buffers, 3);
    assert_eq!(s.pooled_bytes, (33 + 9) * 4, "accounting tracks capacity");

    // Zeroed takes scrub whatever garbage was given back.
    let b = a.take_zeroed(16);
    assert_eq!(b.len(), 16);
    assert!(
        b.iter().all(|v| v.to_bits() == 0),
        "recycled garbage leaked through take_zeroed"
    );
    a.give(b);

    // A raw take of a larger size than anything pooled allocates fresh and
    // is still fully sized.
    let big = a.take_raw(1024);
    assert_eq!(big.len(), 1024);
    a.give(big);
    let s = a.stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
}
