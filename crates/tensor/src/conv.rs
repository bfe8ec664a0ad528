//! Convolution, transposed-convolution and pooling kernels.
//!
//! These are free functions over [`Tensor`]; the autograd [`crate::Graph`]
//! wires them into the tape. Layout is `[B, C, H, W]` throughout;
//! convolution weights are `[C_out, C_in, KH, KW]` and transposed-convolution
//! weights are `[C_in, C_out, KH, KW]` (PyTorch conventions).
//!
//! `conv2d` is lowered to GEMM by im2col: each image unfolds into a
//! column matrix whose rows are the `C_in·KH·KW` kernel taps and whose
//! columns are the `OH·OW` output positions, so the convolution becomes
//! `W[C_out, C_in·KH·KW] · cols`. The forward pass fuses the unfold
//! directly into the packed B-panel layout of [`crate::kernel`]
//! (the column matrix never materializes in plain form there), with scratch
//! buffers pooled per thread by [`crate::arena`]. The pre-blocking
//! implementation survives as [`conv2d_forward_reference`] so the
//! paper-scale benchmark tier can measure the speedup in-process.
//!
//! Each backward pass is split per operand — `*_backward_input`,
//! `*_backward_weight` and [`bias_chan_backward`] — so the autograd tape
//! runs only the gradients some node needs: a frozen-weight pass (DCO
//! through the trained UNet) never builds a weight GEMM. A transposed
//! convolution and conv2d's input gradient are the same computation, a
//! `scatter(Wᵀ · X)`, and share one strip-mined loop on the packed kernel
//! whose column buffer holds a few rows, never a whole image. The
//! transposed convolution's input gradient is a plain [`conv2d_forward`].

use crate::arena;
use crate::kernel;
use crate::kernel::{KC, NR};
use crate::Tensor;

/// Output spatial size of a convolution.
#[inline]
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - kernel) / stride + 1
}

/// Destructure a rank-4 shape, asserting the rank.
#[inline]
fn dims4(shape: &[usize], what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "{what} must be rank-4, got {shape:?}");
    (shape[0], shape[1], shape[2], shape[3])
}

/// Unfold one image `[C, H, W]` into columns `[C*KH*KW, OH*OW]`.
fn im2col(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(w, kw, stride, pad);
    let mut cols = vec![0.0f32; c * kh * kw * oh * ow];
    im2col_into(x, (c, h, w), (kh, kw), stride, pad, &mut cols);
    Tensor::from_vec(cols, &[c * kh * kw, oh * ow])
}

/// Unfold one image `[C, H, W]` into a caller-provided column buffer laid
/// out `[C*KH*KW, OH*OW]` row-major — the im2col entry point behind the
/// conv2d lowering (`conv = W · cols`, paper Eq. 1's congestion predictor
/// convolutions). The buffer is fully overwritten (padding taps become
/// zero), so arena scratch from [`crate::arena::scratch_take_raw`] is safe.
///
/// # Example
///
/// ```
/// use dco_tensor::conv::im2col_into;
///
/// // 1 channel, 2×2 image, 1×1 kernel: columns are the pixels themselves.
/// let img = [1.0, 2.0, 3.0, 4.0];
/// let mut cols = [0.0; 4];
/// im2col_into(&img, (1, 2, 2), (1, 1), 1, 0, &mut cols);
/// assert_eq!(cols, img);
/// ```
///
/// # Panics
/// Panics if `cols` is not exactly `C·KH·KW · OH·OW` long.
pub fn im2col_into(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    cols: &mut [f32],
) {
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(w, kw, stride, pad);
    let ncols = oh * ow;
    assert_eq!(cols.len(), c * kh * kw * ncols, "im2col buffer size");
    cols.fill(0.0);
    // hot-path: im2col
    for ci in 0..c {
        for u in 0..kh {
            for v in 0..kw {
                let row = (ci * kh + u) * kw + v;
                let dst = &mut cols[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * stride + u) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = &x[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
                    if stride == 1 {
                        // Contiguous run: ox and ix advance together, so the
                        // in-bounds span is one slice copy.
                        let lo = pad.saturating_sub(v);
                        let hi = ow.min(w + pad - v);
                        if lo < hi {
                            let ix0 = lo + v - pad;
                            dst[oy * ow + lo..oy * ow + hi]
                                .copy_from_slice(&src_row[ix0..ix0 + hi - lo]);
                        }
                    } else {
                        for ox in 0..ow {
                            let ix = (ox * stride + v) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[oy * ow + ox] = src_row[ix as usize];
                        }
                    }
                }
            }
        }
    }
    // hot-path: end
}

/// Fill one `KC×NR` B micro-panel of the im2col matrix for
/// [`crate::kernel`]'s fused-B GEMM: panel column lanes are output
/// positions `jt·NR..`, panel rows are kernel taps `chunk·KC..+klen`.
/// Every lane is written for every k (zeros for padding / edge lanes), so
/// raw arena scratch is safe. The panel never materializes the full
/// column matrix — it lives in L1 and is consumed immediately.
#[allow(clippy::too_many_arguments)]
fn im2col_fill_panel(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    jt: usize,
    chunk: usize,
    klen: usize,
    panel: &mut [f32],
) {
    let _ = c;
    let ow = conv_out_size(w, kw, stride, pad);
    let oh = conv_out_size(h, kh, stride, pad);
    let n = oh * ow;
    let j0 = jt * NR;
    let jn = NR.min(n - j0);
    // All lanes on one output row and stride 1 → each (u, v) tap is a
    // contiguous slice of the input row (the common interior case at the
    // paper's 224×224 tier).
    let same_row = (j0 / ow) == ((j0 + jn - 1) / ow);
    // Incrementally track the (ci, u, v) tap of k = chunk·KC + kk_local:
    // one div/mod at entry instead of two per k-step.
    let k0 = chunk * KC;
    let mut ci = k0 / (kh * kw);
    let mut u = (k0 % (kh * kw)) / kw;
    let mut v = k0 % kw;
    let oy0 = j0 / ow;
    let ox0 = j0 % ow;
    // hot-path: im2col-panel
    for kk_local in 0..klen {
        let plane = &x[ci * h * w..(ci + 1) * h * w];
        let dst = &mut panel[kk_local * NR..kk_local * NR + NR];
        'fill: {
            if same_row && stride == 1 {
                let iy = (oy0 + u) as isize - pad as isize;
                let ix0 = (ox0 + v) as isize - pad as isize;
                if iy >= 0 && iy < h as isize && ix0 >= 0 && ix0 + jn as isize <= w as isize {
                    let s = iy as usize * w + ix0 as usize;
                    dst[..jn].copy_from_slice(&plane[s..s + jn]);
                    for d in &mut dst[jn..] {
                        *d = 0.0;
                    }
                    break 'fill;
                }
            }
            for (lane, d) in dst.iter_mut().enumerate() {
                *d = if lane < jn {
                    let oy = (j0 + lane) / ow;
                    let ox = (j0 + lane) % ow;
                    let iy = (oy * stride + u) as isize - pad as isize;
                    let ix = (ox * stride + v) as isize - pad as isize;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        plane[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
            }
        }
        v += 1;
        if v == kw {
            v = 0;
            u += 1;
            if u == kh {
                u = 0;
                ci += 1;
            }
        }
    }
    // hot-path: end
}

/// 2D convolution forward pass, lowered to packed GEMM.
///
/// The weight matrix `[C_out, C_in·KH·KW]` is packed into A micro-panels
/// once per call; each batch image runs the fused-B GEMM
/// ([`crate::kernel`]): `im2col_fill_panel` materializes one L1-sized
/// im2col micro-panel at a time, consumed immediately by the register
/// micro-kernel with the bias folded into the write-back — the full
/// column matrix never exists. Scratch comes from the per-thread
/// [`crate::arena`].
///
/// Parallelism: batch images fan out as independent tasks. The
/// accumulation order per output element (K chunks in order, k ascending)
/// is fixed, so results are bitwise identical to the serial computation
/// at any `dco_parallel` thread count.
///
/// # Example
///
/// ```
/// use dco_tensor::conv::conv2d_forward;
/// use dco_tensor::Tensor;
///
/// // A 1x1 identity kernel reproduces its input.
/// let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
/// let w = Tensor::ones(&[1, 1, 1, 1]);
/// let y = conv2d_forward(&x, &w, None, 1, 0);
/// assert_eq!(y.data(), x.data());
/// ```
///
/// # Panics
/// Panics on rank or channel mismatches.
pub fn conv2d_forward(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x.shape(), "conv2d input");
    let (cout, cin2, kh, kw) = dims4(w.shape(), "conv2d weight");
    assert_eq!(cin, cin2, "conv2d channel mismatch");
    if let Some(bias) = b {
        assert_eq!(bias.shape(), &[cout], "conv2d bias must be [C_out]");
    }
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(wd, kw, stride, pad);
    let kdim = cin * kh * kw;
    let nsp = oh * ow;
    // Pack the weight matrix once; it is shared read-only by every image.
    let mut apack = arena::scratch_take_raw(kernel::packed_a_len(cout, kdim));
    kernel::pack_a(w.data(), cout, kdim, &mut apack);
    let mut out = vec![0.0f32; bsz * cout * nsp];
    let per_img = cin * h * wd;
    let xd = x.data();
    let bias = b.map(|t| t.data());
    dco_parallel::par_chunks_mut(&mut out, cout * nsp, |bi, out_img| {
        let ximg = &xd[bi * per_img..(bi + 1) * per_img];
        kernel::gemm_fused_b(
            cout,
            kdim,
            nsp,
            &apack,
            bias,
            out_img,
            |jt, chunk, klen, panel| {
                im2col_fill_panel(
                    ximg,
                    (cin, h, wd),
                    (kh, kw),
                    stride,
                    pad,
                    jt,
                    chunk,
                    klen,
                    panel,
                );
            },
        );
    });
    arena::scratch_give(apack);
    Tensor::from_vec(out, &[bsz, cout, oh, ow])
}

/// The pre-blocking conv2d forward (plain im2col + per-row matmul), kept
/// as the benchmark reference the paper-scale tier measures the packed
/// kernel's speedup against. Numerically it computes the same sums as the
/// original implementation, bit for bit.
///
/// # Panics
/// Panics on rank or channel mismatches.
pub fn conv2d_forward_reference(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x.shape(), "conv2d input");
    let (cout, cin2, kh, kw) = dims4(w.shape(), "conv2d weight");
    assert_eq!(cin, cin2, "conv2d channel mismatch");
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(wd, kw, stride, pad);
    let wmat = w.clone().reshaped(&[cout, cin * kh * kw]);
    let mut out = vec![0.0f32; bsz * cout * oh * ow];
    let per_img = cin * h * wd;
    let per_out = cout * oh * ow;
    let xd = x.data();
    dco_parallel::par_chunks_mut(&mut out, per_out, |bi, out_img| {
        let cols = im2col(
            &xd[bi * per_img..(bi + 1) * per_img],
            (cin, h, wd),
            (kh, kw),
            stride,
            pad,
        );
        let y = wmat.matmul_reference(&cols); // [cout, oh*ow]
        out_img.copy_from_slice(y.data());
    });
    let mut out = Tensor::from_vec(out, &[bsz, cout, oh, ow]);
    if let Some(bias) = b {
        assert_eq!(bias.shape(), &[cout], "conv2d bias must be [C_out]");
        let od = out.data_mut();
        for bi in 0..bsz {
            for co in 0..cout {
                let base = (bi * cout + co) * oh * ow;
                let bv = bias.data()[co];
                for v in &mut od[base..base + oh * ow] {
                    *v += bv;
                }
            }
        }
    }
    out
}

/// Input gradient of [`conv2d_forward`]: `∂L/∂X = col2im(Wᵀ · ∂L/∂Y)`,
/// a transposed convolution of `∂L/∂Y` with the same weights.
///
/// It runs on the strip loop behind [`conv_transpose2d_forward`]: the
/// `[C_out, C_in, KH, KW]` weight read as `[C_out, C_in·KH·KW]` is that
/// loop's `W`, and its output dims are the input shape (at a stride that
/// leaves trailing input rows or columns unread, they get zero gradient).
/// The `C_in·KH·KW × OH·OW` column matrix never exists; each strip
/// computes its columns for a few rows of `∂L/∂Y`. The bits equal those of
/// the whole-image `col2im(Wᵀ · ∂L/∂Y)` lowering, and images are
/// independent tasks, so they never depend on the `dco_parallel` thread
/// count.
///
/// # Panics
/// Panics on rank, channel or output-gradient shape mismatches.
pub fn conv2d_backward_input(
    x_shape: &[usize],
    w: &Tensor,
    stride: usize,
    pad: usize,
    gy: &Tensor,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x_shape, "conv2d input");
    let (cout, cin2, kh, kw) = dims4(w.shape(), "conv2d weight");
    assert_eq!(cin, cin2, "conv2d channel mismatch");
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(wd, kw, stride, pad);
    assert_eq!(gy.shape(), &[bsz, cout, oh, ow], "conv2d output gradient");
    convt_strips(gy, w, stride, pad, (h, wd), None)
}

/// Weight gradient of [`conv2d_forward`]: `∂L/∂W = Σ_b ∂L/∂Y_b · cols_bᵀ`.
///
/// [`crate::kernel::gemm_bt`] consumes each image's im2col matrix along
/// its contiguous rows instead of materializing its transpose. Images run
/// as independent tasks whose partials are folded **in batch order**, so
/// the sum is bitwise identical to the serial one at any thread count.
///
/// # Panics
/// Panics on rank, channel or output-gradient shape mismatches.
pub fn conv2d_backward_weight(
    x: &Tensor,
    w_shape: &[usize],
    stride: usize,
    pad: usize,
    gy: &Tensor,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x.shape(), "conv2d input");
    let (cout, cin2, kh, kw) = dims4(w_shape, "conv2d weight");
    assert_eq!(cin, cin2, "conv2d channel mismatch");
    let oh = conv_out_size(h, kh, stride, pad);
    let ow = conv_out_size(wd, kw, stride, pad);
    assert_eq!(gy.shape(), &[bsz, cout, oh, ow], "conv2d output gradient");
    let kdim = cin * kh * kw;
    let nsp = oh * ow;
    let per_out = cout * nsp;
    let gyd = gy.data();
    let parts: Vec<Vec<f32>> = dco_parallel::par_chunks(x.data(), cin * h * wd, |bi, ximg| {
        let gyb = &gyd[bi * per_out..(bi + 1) * per_out]; // [cout, nsp]
        let mut cols = arena::scratch_take_raw(kdim * nsp);
        im2col_into(ximg, (cin, h, wd), (kh, kw), stride, pad, &mut cols);
        let mut gw_img = vec![0.0f32; cout * kdim];
        kernel::gemm_bt(cout, nsp, kdim, gyb, &cols, &mut gw_img);
        arena::scratch_give(cols);
        gw_img
    });
    Tensor::from_vec(fold_in_order(parts, cout * kdim), w_shape)
}

/// Sum per-image partials element-wise, in batch order, onto zeros.
fn fold_in_order(parts: Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; len];
    for part in parts {
        for (dst, src) in acc.iter_mut().zip(&part) {
            *dst += src;
        }
    }
    acc
}

/// Gradient of a per-channel bias added to `[B, C, H, W]` outputs:
/// `∂L/∂b[c] = Σ_b Σ_(y,x) ∂L/∂Y[b, c, y, x]`, each image's spatial sum
/// added in batch order. The one bias backward behind conv2d,
/// conv_transpose2d and [`crate::Graph::add_bias_chan`].
///
/// # Panics
/// Panics unless `gy` is rank-4.
pub fn bias_chan_backward(gy: &Tensor) -> Tensor {
    let (bsz, c, h, w) = dims4(gy.shape(), "bias output gradient");
    let plane = h * w;
    let gyd = gy.data();
    let mut gb = vec![0.0f32; c];
    for bi in 0..bsz {
        for (ci, g) in gb.iter_mut().enumerate() {
            let base = (bi * c + ci) * plane;
            *g += gyd[base..base + plane].iter().sum::<f32>();
        }
    }
    Tensor::from_vec(gb, &[c])
}

/// Output spatial size of a transposed convolution.
#[inline]
pub fn convt_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input - 1) * stride + kernel - 2 * pad
}

/// [`convt_out_size`], or `None` where the padding crops the output to
/// nothing (or the input is empty) and the unchecked form would underflow.
pub(crate) fn checked_convt_out_size(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Option<usize> {
    (input.checked_sub(1)? * stride + kernel)
        .checked_sub(2 * pad)
        .filter(|&size| size > 0)
}

/// Input columns per strip of the transposed-convolution lowering. A strip
/// is a few whole input rows; its `F·KH·KW × cols` product takes 8 KB per
/// output channel at a 2×2 kernel and 18 KB at a 3×3 one, where a whole
/// image's would take megabytes at 224×224 and skew the arena's buffer
/// reuse.
const CONVT_STRIP_COLS: usize = 512;

/// Fill one `KC×NR` B micro-panel straight from a `[C, H·W]` image for the
/// transposed-convolution GEMM: panel rows are input channels
/// `chunk·KC..+klen`, lanes are the strip's input pixels `jt·NR..`
/// (offset `j0` into each plane). Lanes past the strip are zeroed.
#[allow(clippy::too_many_arguments)]
fn plane_fill_panel(
    x: &[f32],
    plane: usize,
    j0: usize,
    n: usize,
    jt: usize,
    chunk: usize,
    klen: usize,
    panel: &mut [f32],
) {
    let lane0 = j0 + jt * NR;
    let jn = NR.min(n - jt * NR);
    // hot-path: convt-panel
    for kk in 0..klen {
        let ci = chunk * KC + kk;
        let dst = &mut panel[kk * NR..kk * NR + NR];
        dst[..jn].copy_from_slice(&x[ci * plane + lane0..ci * plane + lane0 + jn]);
        for d in &mut dst[jn..] {
            *d = 0.0;
        }
    }
    // hot-path: end
}

/// Scatter-add the strip product `cols[(co, u, v), (iy − iy0)·W + ix]`
/// into `out[co, iy·s + u − pad, ix·s + v − pad]`, dropping taps that land
/// outside the `oh × ow` output. Within the strip every output pixel takes
/// its taps in ascending `(u, v)` order.
fn convt_scatter_strip(
    cols: &[f32],
    (cout, oh, ow): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    (iy0, rows, wd): (usize, usize, usize),
    out: &mut [f32],
) {
    let n = rows * wd;
    // hot-path: convt-scatter
    for co in 0..cout {
        for u in 0..kh {
            for v in 0..kw {
                let row = (co * kh + u) * kw + v;
                let src = &cols[row * n..(row + 1) * n];
                for r in 0..rows {
                    let oy = ((iy0 + r) * stride + u) as isize - pad as isize;
                    if oy < 0 || oy >= oh as isize {
                        continue;
                    }
                    let orow =
                        &mut out[(co * oh + oy as usize) * ow..(co * oh + oy as usize + 1) * ow];
                    let srow = &src[r * wd..(r + 1) * wd];
                    if stride == 1 {
                        // Contiguous run: ix and ox advance together, so the
                        // in-bounds span is one slice add.
                        let lo = pad.saturating_sub(v);
                        let hi = wd.min((ow + pad).saturating_sub(v));
                        if lo < hi {
                            let ox0 = lo + v - pad;
                            for (o, &val) in orow[ox0..ox0 + hi - lo].iter_mut().zip(&srow[lo..hi])
                            {
                                *o += val;
                            }
                        }
                    } else {
                        for (ix, &val) in srow.iter().enumerate() {
                            let ox = (ix * stride + v) as isize - pad as isize;
                            if ox >= 0 && ox < ow as isize {
                                orow[ox as usize] += val;
                            }
                        }
                    }
                }
            }
        }
    }
    // hot-path: end
}

/// The one strip-mined transposed convolution, behind
/// [`conv_transpose2d_forward`] and [`conv2d_backward_input`]:
/// `out = scatter(Wᵀ · X)`, plus `bias` per output channel, into
/// `[B, F, oh, ow]`.
///
/// `w` is `[C, F, KH, KW]` read as a `[C, F·KH·KW]` matrix `W` (a convT
/// weight, or a conv2d weight `[C_out, C_in, KH, KW]` with `C = C_out` and
/// `F = C_in`); `Wᵀ` is packed once per call. Each image runs a few input
/// rows at a time, about [`CONVT_STRIP_COLS`] pixels: `gemm_fused_b` reads
/// its B panels straight from the input planes into the strip's column
/// buffer, and [`convt_scatter_strip`] adds every tap into the output.
/// The caller picks the output dims.
///
/// Exactness: an input pixel `(iy, ix)` sends tap `(u, v)` to output row
/// `oy = iy·s + u − pad`, so a given output row takes smaller `u` from
/// lower input rows. Strips are therefore walked bottom-up: every output
/// pixel then adds its taps in ascending `(u, v)` order, the order a
/// whole-image `col2im(Wᵀ · X)` adds them. Each tap is the same
/// k-ascending GEMM sum in both, so the result is bitwise that of the
/// whole-image lowering and does not depend on the strip size.
///
/// Parallelism: batch images are independent tasks with a fixed
/// per-element order, so results are bitwise identical at any
/// `dco_parallel` thread count.
fn convt_strips(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    (oh, ow): (usize, usize),
    bias: Option<&Tensor>,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x.shape(), "transposed-conv input");
    let (_, cout, kh, kw) = dims4(w.shape(), "transposed-conv weight");
    let m = cout * kh * kw;
    let plane = h * wd;
    // Wᵀ [(co, u, v), ci]: packed once, shared read-only by every image.
    let mut apack = arena::scratch_take_raw(kernel::packed_a_len(m, cin));
    kernel::pack_a_transposed(w.data(), m, cin, &mut apack);
    let strip_rows = (CONVT_STRIP_COLS / wd.max(1)).clamp(1, h.max(1));
    let mut out = vec![0.0f32; bsz * cout * oh * ow];
    let xd = x.data();
    let bias = bias.map(Tensor::data);
    dco_parallel::par_chunks_mut(&mut out, cout * oh * ow, |bi, out_img| {
        let ximg = &xd[bi * cin * plane..(bi + 1) * cin * plane];
        let mut cols = arena::scratch_take_raw(m * strip_rows * wd);
        // Strips tile the rows from the top; walk them from the bottom up.
        let mut end = h;
        while end > 0 {
            let iy0 = (end - 1) / strip_rows * strip_rows;
            let rows = end - iy0;
            let n = rows * wd;
            let strip = &mut cols[..m * n];
            kernel::gemm_fused_b(m, cin, n, &apack, None, strip, |jt, chunk, klen, panel| {
                plane_fill_panel(ximg, plane, iy0 * wd, n, jt, chunk, klen, panel);
            });
            convt_scatter_strip(
                strip,
                (cout, oh, ow),
                (kh, kw),
                stride,
                pad,
                (iy0, rows, wd),
                out_img,
            );
            end = iy0;
        }
        arena::scratch_give(cols);
        if let Some(bias) = bias {
            for (out_plane, &bv) in out_img.chunks_mut((oh * ow).max(1)).zip(bias) {
                for v in out_plane {
                    *v += bv;
                }
            }
        }
    });
    arena::scratch_give(apack);
    Tensor::from_vec(out, &[bsz, cout, oh, ow])
}

/// 2D transposed convolution forward pass (upsampling), lowered to packed
/// GEMM.
///
/// Weight layout is `[C_in, C_out, KH, KW]`: read as a
/// `[C_in, C_out·KH·KW]` matrix `W`, `Wᵀ · X` over the image's
/// `[C_in, H·W]` plane stack holds every tap's contribution:
/// `out = scatter(Wᵀ · X) + bias`. It runs strip by strip (a few input
/// rows, about 512 pixels), on the loop that also computes
/// [`conv2d_backward_input`], so the column buffer stays small; the B
/// panels are read straight from the input planes.
///
/// Exactness: the result is bitwise that of the whole-image
/// `col2im(Wᵀ · X)` lowering, whatever the strip size. When
/// `KH = KW = stride` and `pad = 0` (the model's up-convolutions) each
/// output pixel receives exactly one tap, so for `C_in ≤ KC` it is also
/// the channel-ascending sum of the scalar scatter loop this replaced, bit
/// for bit (that loop skipped zero inputs, but a zero product cannot change
/// a sum that starts from `+0.0`). Overlapping kernels agree with that
/// loop to rounding.
///
/// Parallelism: batch images are independent tasks with a fixed
/// per-element order, so results are bitwise identical at any
/// `dco_parallel` thread count.
///
/// # Example
///
/// ```
/// use dco_tensor::conv::conv_transpose2d_forward;
/// use dco_tensor::Tensor;
///
/// // A 2×2 stride-2 kernel of ones copies each pixel into a 2×2 block.
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]);
/// let w = Tensor::ones(&[1, 1, 2, 2]);
/// let y = conv_transpose2d_forward(&x, &w, None, 2, 0);
/// assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
/// ```
///
/// # Panics
/// Panics on rank or channel mismatches.
pub fn conv_transpose2d_forward(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (_, cin, h, wd) = dims4(x.shape(), "convT input");
    let (cin2, cout, kh, kw) = dims4(w.shape(), "convT weight");
    assert_eq!(cin, cin2, "convT channel mismatch");
    if let Some(bias) = b {
        assert_eq!(bias.shape(), &[cout], "convT bias must be [C_out]");
    }
    let oh = convt_out_size(h, kh, stride, pad);
    let ow = convt_out_size(wd, kw, stride, pad);
    convt_strips(x, w, stride, pad, (oh, ow), b)
}

/// Input gradient of [`conv_transpose2d_forward`]. A transposed
/// convolution is the adjoint of a convolution with the same weights, so
/// `∂L/∂X = conv2d(∂L/∂Y, W)` at the same stride and padding: the
/// `[C_in, C_out, KH, KW]` weight is read as a `C_in`-filter conv2d
/// weight, and the packed [`conv2d_forward`] kernel does the work. Each
/// input pixel sums its `(co, u, v)` taps in ascending order — for
/// `C_out·KH·KW ≤ KC` the same order as the reference loop, bit for bit.
///
/// # Panics
/// Panics on rank or channel mismatches.
pub fn conv_transpose2d_backward_input(
    w: &Tensor,
    stride: usize,
    pad: usize,
    gy: &Tensor,
) -> Tensor {
    conv2d_forward(gy, w, None, stride, pad)
}

/// Weight gradient of [`conv_transpose2d_forward`]:
/// `∂L/∂W[ci, co, u, v] = Σ_b Σ_(iy,ix) X[b, ci, iy, ix] · ∂L/∂Y[b, co, oy, ox]`
/// with `oy = iy·s + u − pad`, `ox = ix·s + v − pad`. Each element sums its
/// terms in `(iy, ix)`-ascending order per image and folds images in batch
/// order. Only training needs it (DCO freezes the weights).
///
/// # Panics
/// Panics on rank, channel or output-gradient shape mismatches.
pub fn conv_transpose2d_backward_weight(
    x: &Tensor,
    w_shape: &[usize],
    stride: usize,
    pad: usize,
    gy: &Tensor,
) -> Tensor {
    let (bsz, cin, h, wd) = dims4(x.shape(), "convT input");
    let (cin2, cout, kh, kw) = dims4(w_shape, "convT weight");
    assert_eq!(cin, cin2, "convT channel mismatch");
    let oh = convt_out_size(h, kh, stride, pad);
    let ow = convt_out_size(wd, kw, stride, pad);
    assert_eq!(gy.shape(), &[bsz, cout, oh, ow], "convT output gradient");
    let per_out = cout * oh * ow;
    let gyd = gy.data();
    let wlen = cin * cout * kh * kw;
    let parts: Vec<Vec<f32>> = dco_parallel::par_chunks(x.data(), cin * h * wd, |bi, ximg| {
        let gyb = &gyd[bi * per_out..(bi + 1) * per_out];
        let mut gw_img = vec![0.0f32; wlen];
        // hot-path: convt-weight-grad
        for (wi, gw) in gw_img.iter_mut().enumerate() {
            let (ci, co, u, v) = (
                wi / (cout * kh * kw),
                (wi / (kh * kw)) % cout,
                (wi / kw) % kh,
                wi % kw,
            );
            let xplane = &ximg[ci * h * wd..(ci + 1) * h * wd];
            let gplane = &gyb[co * oh * ow..(co + 1) * oh * ow];
            let mut acc = 0.0f32;
            for iy in 0..h {
                let oy = (iy * stride + u) as isize - pad as isize;
                if oy < 0 || oy >= oh as isize {
                    continue;
                }
                let grow = &gplane[oy as usize * ow..(oy as usize + 1) * ow];
                for (ix, &xv) in xplane[iy * wd..(iy + 1) * wd].iter().enumerate() {
                    let ox = (ix * stride + v) as isize - pad as isize;
                    if ox >= 0 && ox < ow as isize {
                        acc += grow[ox as usize] * xv;
                    }
                }
            }
            *gw = acc;
        }
        // hot-path: end
        gw_img
    });
    Tensor::from_vec(fold_in_order(parts, wlen), w_shape)
}

/// 2x2 (or kxk) max pooling forward. Returns the pooled tensor and the flat
/// argmax index (into the input) of every output element, for backward.
///
/// # Panics
/// Panics unless H and W are divisible by `k`.
pub fn maxpool2d_forward(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let (bsz, c, h, w) = dims4(x.shape(), "pool input");
    assert!(
        h % k == 0 && w % k == 0,
        "pool size {k} must divide H={h}, W={w}"
    );
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; bsz * c * oh * ow];
    let mut idx = vec![0u32; out.len()];
    let xd = x.data();
    for bc in 0..bsz * c {
        let ibase = bc * h * w;
        let obase = bc * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                // An all −∞ / NaN window keeps its first element as the
                // argmax, so its gradient stays inside the window.
                let mut best = f32::NEG_INFINITY;
                let mut besti = ibase + oy * k * w + ox * k;
                for u in 0..k {
                    for v in 0..k {
                        let i = ibase + (oy * k + u) * w + (ox * k + v);
                        if xd[i] > best {
                            best = xd[i];
                            besti = i;
                        }
                    }
                }
                out[obase + oy * ow + ox] = best;
                idx[obase + oy * ow + ox] = besti as u32;
            }
        }
    }
    (Tensor::from_vec(out, &[bsz, c, oh, ow]), idx)
}

/// Max pooling backward: routes each output gradient to its argmax input.
pub fn maxpool2d_backward(indices: &[u32], input_shape: &[usize], gy: &Tensor) -> Tensor {
    let mut gx = Tensor::zeros(input_shape);
    let gxd = gx.data_mut();
    for (&i, &g) in indices.iter().zip(gy.data()) {
        gxd[i as usize] += g;
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernels the split backward, the packed transposed convolution
    /// and the strip loop replaced, kept verbatim as bitwise references.
    mod reference {
        use super::super::*;

        /// Fold columns `[C*KH*KW, OH*OW]` back into an image `[C, H, W]`,
        /// accumulating overlapping contributions (adjoint of [`im2col_into`]).
        pub fn col2im_into(
            data: &[f32],
            (c, h, w): (usize, usize, usize),
            (kh, kw): (usize, usize),
            stride: usize,
            pad: usize,
            img: &mut [f32],
        ) {
            let oh = conv_out_size(h, kh, stride, pad);
            let ow = conv_out_size(w, kw, stride, pad);
            let ncols = oh * ow;
            for ci in 0..c {
                for u in 0..kh {
                    for v in 0..kw {
                        let row = (ci * kh + u) * kw + v;
                        let src = &data[row * ncols..(row + 1) * ncols];
                        for oy in 0..oh {
                            let iy = (oy * stride + u) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = (ox * stride + v) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                img[(ci * h + iy as usize) * w + ix as usize] += src[oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }

        /// The whole-image conv2d input gradient: `col2im(Wᵀ · ∂L/∂Y)`
        /// through one `C_in·KH·KW × OH·OW` column buffer per image.
        pub fn conv2d_backward_input(
            x_shape: &[usize],
            w: &Tensor,
            stride: usize,
            pad: usize,
            gy: &Tensor,
        ) -> Tensor {
            let (bsz, cin, h, wd) = dims4(x_shape, "conv2d input");
            let (cout, _, kh, kw) = dims4(w.shape(), "conv2d weight");
            let oh = conv_out_size(h, kh, stride, pad);
            let ow = conv_out_size(wd, kw, stride, pad);
            let kdim = cin * kh * kw;
            let nsp = oh * ow;
            let mut apack_wt = arena::scratch_take_raw(kernel::packed_a_len(kdim, cout));
            kernel::pack_a_transposed(w.data(), kdim, cout, &mut apack_wt);
            let per_out = cout * nsp;
            let mut gx = vec![0.0f32; bsz * cin * h * wd];
            let gyd = gy.data();
            dco_parallel::par_chunks_mut(&mut gx, cin * h * wd, |bi, gx_img| {
                let gyb = &gyd[bi * per_out..(bi + 1) * per_out];
                let mut bpack_gy = arena::scratch_take_raw(kernel::packed_b_len(cout, nsp));
                kernel::pack_b(gyb, cout, nsp, &mut bpack_gy);
                let mut gcols = arena::scratch_take_raw(kdim * nsp);
                kernel::gemm_prepacked(kdim, cout, nsp, &apack_wt, &bpack_gy, None, &mut gcols);
                arena::scratch_give(bpack_gy);
                col2im_into(&gcols, (cin, h, wd), (kh, kw), stride, pad, gx_img);
                arena::scratch_give(gcols);
            });
            arena::scratch_give(apack_wt);
            Tensor::from_vec(gx, x_shape)
        }

        /// The combined conv2d backward: `(grad_x, grad_w, grad_b)`, the
        /// weight and bias gradients from one per-image pass.
        pub fn conv2d_backward(
            x: &Tensor,
            w: &Tensor,
            stride: usize,
            pad: usize,
            gy: &Tensor,
        ) -> (Tensor, Tensor, Tensor) {
            let (_bsz, cin, h, wd) = dims4(x.shape(), "conv2d input");
            let (cout, _, kh, kw) = dims4(w.shape(), "conv2d weight");
            let oh = conv_out_size(h, kh, stride, pad);
            let ow = conv_out_size(wd, kw, stride, pad);
            let kdim = cin * kh * kw;
            let nsp = oh * ow;
            let per_out = cout * nsp;
            let gyd = gy.data();
            let parts: Vec<(Vec<f32>, Vec<f32>)> =
                dco_parallel::par_chunks(x.data(), cin * h * wd, |bi, ximg| {
                    let gyb = &gyd[bi * per_out..(bi + 1) * per_out];
                    let mut gb_img = vec![0.0f32; cout];
                    for (co, gbv) in gb_img.iter_mut().enumerate() {
                        *gbv = gyb[co * nsp..(co + 1) * nsp].iter().sum::<f32>();
                    }
                    let mut cols = arena::scratch_take_raw(kdim * nsp);
                    im2col_into(ximg, (cin, h, wd), (kh, kw), stride, pad, &mut cols);
                    let mut gw_img = vec![0.0f32; cout * kdim];
                    kernel::gemm_bt(cout, nsp, kdim, gyb, &cols, &mut gw_img);
                    arena::scratch_give(cols);
                    (gw_img, gb_img)
                });
            let mut gw = Tensor::zeros(&[cout, kdim]);
            let mut gb = Tensor::zeros(&[cout]);
            for (gw_img, gb_img) in parts {
                for (dst, src) in gw.data_mut().iter_mut().zip(&gw_img) {
                    *dst += src;
                }
                for (dst, src) in gb.data_mut().iter_mut().zip(&gb_img) {
                    *dst += src;
                }
            }
            (
                conv2d_backward_input(x.shape(), w, stride, pad, gy),
                gw.reshaped(&[cout, cin, kh, kw]),
                gb,
            )
        }

        /// The scalar transposed-convolution forward: one task per
        /// output plane, scatter-accumulating `x · w` in channel order.
        pub fn conv_transpose2d_forward(
            x: &Tensor,
            w: &Tensor,
            b: Option<&Tensor>,
            stride: usize,
            pad: usize,
        ) -> Tensor {
            let (bsz, cin, h, wd) = dims4(x.shape(), "convT input");
            let (_, cout, kh, kw) = dims4(w.shape(), "convT weight");
            let oh = convt_out_size(h, kh, stride, pad);
            let ow = convt_out_size(wd, kw, stride, pad);
            let mut out = vec![0.0f32; bsz * cout * oh * ow];
            let xd = x.data();
            let wdta = w.data();
            dco_parallel::par_chunks_mut(&mut out, oh * ow, |plane, out_plane| {
                let (bi, co) = (plane / cout, plane % cout);
                for ci in 0..cin {
                    let wbase = ((ci * cout + co) * kh) * kw;
                    for iy in 0..h {
                        for ix in 0..wd {
                            let xv = xd[((bi * cin + ci) * h + iy) * wd + ix];
                            if xv == 0.0 {
                                continue;
                            }
                            for u in 0..kh {
                                let oy = (iy * stride + u) as isize - pad as isize;
                                if oy < 0 || oy >= oh as isize {
                                    continue;
                                }
                                for v in 0..kw {
                                    let ox = (ix * stride + v) as isize - pad as isize;
                                    if ox < 0 || ox >= ow as isize {
                                        continue;
                                    }
                                    out_plane[oy as usize * ow + ox as usize] +=
                                        xv * wdta[wbase + u * kw + v];
                                }
                            }
                        }
                    }
                }
            });
            if let Some(bias) = b {
                for bi in 0..bsz {
                    for co in 0..cout {
                        let base = (bi * cout + co) * oh * ow;
                        let bv = bias.data()[co];
                        for v in &mut out[base..base + oh * ow] {
                            *v += bv;
                        }
                    }
                }
            }
            Tensor::from_vec(out, &[bsz, cout, oh, ow])
        }

        /// The scalar transposed-convolution backward:
        /// `(grad_x, grad_w, grad_b)` from one per-image loop nest.
        pub fn conv_transpose2d_backward(
            x: &Tensor,
            w: &Tensor,
            stride: usize,
            pad: usize,
            gy: &Tensor,
        ) -> (Tensor, Tensor, Tensor) {
            let (_bsz, cin, h, wd) = dims4(x.shape(), "convT input");
            let (_, cout, kh, kw) = dims4(w.shape(), "convT weight");
            let oh = convt_out_size(h, kh, stride, pad);
            let ow = convt_out_size(wd, kw, stride, pad);
            let mut gx = vec![0.0f32; x.len()];
            let xd = x.data();
            let wdta = w.data();
            let gyd = gy.data();
            let per_img = cin * h * wd;
            let parts: Vec<(Vec<f32>, Vec<f32>)> =
                dco_parallel::par_chunks_mut(&mut gx, per_img, |bi, gx_img| {
                    let mut gw_img = vec![0.0f32; wdta.len()];
                    let mut gb_img = vec![0.0f32; cout];
                    for (co, gbv) in gb_img.iter_mut().enumerate() {
                        let obase = (bi * cout + co) * oh * ow;
                        *gbv += gyd[obase..obase + oh * ow].iter().sum::<f32>();
                    }
                    for ci in 0..cin {
                        for iy in 0..h {
                            for ix in 0..wd {
                                let xidx = (ci * h + iy) * wd + ix;
                                let xv = xd[bi * per_img + xidx];
                                let mut acc = 0.0f32;
                                for co in 0..cout {
                                    let wbase = ((ci * cout + co) * kh) * kw;
                                    let obase = (bi * cout + co) * oh * ow;
                                    for u in 0..kh {
                                        let oy = (iy * stride + u) as isize - pad as isize;
                                        if oy < 0 || oy >= oh as isize {
                                            continue;
                                        }
                                        for v in 0..kw {
                                            let ox = (ix * stride + v) as isize - pad as isize;
                                            if ox < 0 || ox >= ow as isize {
                                                continue;
                                            }
                                            let g = gyd[obase + oy as usize * ow + ox as usize];
                                            acc += g * wdta[wbase + u * kw + v];
                                            gw_img[wbase + u * kw + v] += g * xv;
                                        }
                                    }
                                }
                                gx_img[xidx] += acc;
                            }
                        }
                    }
                    (gw_img, gb_img)
                });
            let mut gw = vec![0.0f32; w.len()];
            let mut gb = vec![0.0f32; cout];
            for (gw_img, gb_img) in parts {
                for (dst, src) in gw.iter_mut().zip(&gw_img) {
                    *dst += src;
                }
                for (dst, src) in gb.iter_mut().zip(&gb_img) {
                    *dst += src;
                }
            }
            (
                Tensor::from_vec(gx, x.shape()),
                Tensor::from_vec(gw, w.shape()),
                Tensor::from_vec(gb, &[cout]),
            )
        }
    }

    fn fixture(shape: &[usize], seed: f32) -> Tensor {
        let n = shape.iter().product::<usize>();
        Tensor::from_vec((0..n).map(|v| (v as f32 * seed).sin()).collect(), shape)
    }

    fn assert_same_bits(what: &str, a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d_forward(&x, &w, None, 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 2x2 kernel, no pad: single output = dot product.
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let w = Tensor::from_vec(vec![10., 20., 30., 40.], &[1, 1, 2, 2]);
        let y = conv2d_forward(&x, &w, Some(&Tensor::from_vec(vec![5.0], &[1])), 1, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 1. * 10. + 2. * 20. + 3. * 30. + 4. * 40. + 5.);
    }

    #[test]
    fn conv2d_padding_and_stride_shapes() {
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let w = Tensor::zeros(&[5, 3, 3, 3]);
        let y = conv2d_forward(&x, &w, None, 2, 1);
        assert_eq!(y.shape(), &[2, 5, 4, 4]);
    }

    /// Numerical gradient check for conv2d.
    #[test]
    fn conv2d_gradcheck() {
        let x = Tensor::from_vec(
            (0..18).map(|v| (v as f32) * 0.1 - 0.9).collect(),
            &[1, 2, 3, 3],
        );
        let w = Tensor::from_vec(
            (0..16).map(|v| (v as f32) * 0.05 - 0.4).collect(),
            &[2, 2, 2, 2],
        );
        let gy = Tensor::ones(&[1, 2, 2, 2]);
        let gx = conv2d_backward_input(x.shape(), &w, 1, 0, &gy);
        let gw = conv2d_backward_weight(&x, w.shape(), 1, 0, &gy);
        let gb = bias_chan_backward(&gy);
        let f = |x: &Tensor, w: &Tensor| conv2d_forward(x, w, None, 1, 0).sum();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "gx[{i}]: {num} vs {}",
                gx.data()[i]
            );
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "gw[{i}]: {num} vs {}",
                gw.data()[i]
            );
        }
        // bias gradient of a sum loss = number of output pixels per channel
        assert_eq!(gb.data(), &[4.0, 4.0]);
    }

    #[test]
    fn conv2d_packed_matches_reference_at_awkward_shapes() {
        // Non-square, non-power-of-two spatial dims, odd channel counts,
        // strides 1 and 2, with and without padding/bias.
        for &(bsz, cin, h, w, cout, k, stride, pad) in &[
            (
                1usize, 3usize, 5usize, 7usize, 2usize, 3usize, 1usize, 1usize,
            ),
            (2, 2, 9, 11, 5, 3, 2, 1),
            (1, 1, 6, 10, 3, 1, 1, 0),
            (3, 4, 7, 5, 6, 3, 1, 0),
        ] {
            let x = Tensor::from_vec(
                (0..bsz * cin * h * w)
                    .map(|v| (v as f32 * 0.37).sin())
                    .collect(),
                &[bsz, cin, h, w],
            );
            let wt = Tensor::from_vec(
                (0..cout * cin * k * k)
                    .map(|v| (v as f32 * 0.61).cos())
                    .collect(),
                &[cout, cin, k, k],
            );
            let bias = Tensor::from_vec((0..cout).map(|v| v as f32 * 0.1).collect(), &[cout]);
            let fast = conv2d_forward(&x, &wt, Some(&bias), stride, pad);
            let slow = conv2d_forward_reference(&x, &wt, Some(&bias), stride, pad);
            assert_eq!(fast.shape(), slow.shape());
            for (i, (&a, &b)) in fast.data().iter().zip(slow.data()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                    "mismatch at {i}: packed {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn convt_upsamples_shape() {
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let w = Tensor::ones(&[2, 3, 2, 2]);
        let y = conv_transpose2d_forward(&x, &w, None, 2, 0);
        assert_eq!(y.shape(), &[1, 3, 8, 8]);
    }

    #[test]
    fn convt_gradcheck() {
        let x = Tensor::from_vec(
            (0..8).map(|v| v as f32 * 0.2 - 0.8).collect(),
            &[1, 2, 2, 2],
        );
        let w = Tensor::from_vec(
            (0..24).map(|v| v as f32 * 0.03 - 0.3).collect(),
            &[2, 3, 2, 2],
        );
        let gy = Tensor::ones(&[1, 3, 4, 4]);
        let gx = conv_transpose2d_backward_input(&w, 2, 0, &gy);
        let gw = conv_transpose2d_backward_weight(&x, w.shape(), 2, 0, &gy);
        let f = |x: &Tensor, w: &Tensor| conv_transpose2d_forward(x, w, None, 2, 0).sum();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "gx[{i}]: {num} vs {}",
                gx.data()[i]
            );
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "gw[{i}]: {num} vs {}",
                gw.data()[i]
            );
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1., 5., 2., 0., 3., 4., 1., 1., 0., 0., 9., 2., 0., 0., 3., 1.,
            ],
            &[1, 1, 4, 4],
        );
        let (y, idx) = maxpool2d_forward(&x, 2);
        assert_eq!(y.data(), &[5., 2., 0., 9.]);
        let gy = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        let gx = maxpool2d_backward(&idx, x.shape(), &gy);
        assert_eq!(gx.data()[1], 1.0); // max 5 at flat index 1
        assert_eq!(gx.data()[10], 4.0); // max 9 at flat index 10
        assert_eq!(gx.sum(), 10.0);
    }

    #[test]
    fn convt_packed_matches_scalar_reference_bitwise_when_kernel_equals_stride() {
        // Odd channel counts, non-square maps, batch 1 and 2, with and
        // without bias; some zero inputs exercise the reference's skip.
        for &(bsz, cin, cout, h, w, k) in &[
            (1usize, 3usize, 5usize, 7usize, 5usize, 2usize),
            (2, 5, 3, 4, 9, 2),
            (1, 1, 1, 3, 3, 3),
            // several strips per image, and a row wider than one strip
            (2, 7, 2, 200, 3, 2),
            (1, 2, 3, 2, 600, 2),
        ] {
            let mut x = fixture(&[bsz, cin, h, w], 0.37);
            for v in x.data_mut().iter_mut().step_by(5) {
                *v = 0.0;
            }
            let wt = fixture(&[cin, cout, k, k], 0.61);
            let bias = fixture(&[cout], 0.9);
            for b in [None, Some(&bias)] {
                let fast = conv_transpose2d_forward(&x, &wt, b, k, 0);
                let slow = reference::conv_transpose2d_forward(&x, &wt, b, k, 0);
                assert_same_bits("convT forward", &fast, &slow);
            }
        }
    }

    #[test]
    fn convt_packed_matches_scalar_reference_when_taps_overlap() {
        let x = fixture(&[2, 3, 5, 6], 0.29);
        let wt = fixture(&[3, 4, 3, 3], 0.53);
        let bias = fixture(&[4], 1.3);
        let fast = conv_transpose2d_forward(&x, &wt, Some(&bias), 2, 1);
        let slow = reference::conv_transpose2d_forward(&x, &wt, Some(&bias), 2, 1);
        assert_eq!(fast.shape(), &[2, 4, 9, 11]);
        assert_eq!(fast.shape(), slow.shape());
        for (i, (&a, &b)) in fast.data().iter().zip(slow.data()).enumerate() {
            assert!(
                (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                "mismatch at {i}: packed {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn conv2d_split_backward_matches_combined_bitwise() {
        // A strip is 512 / OW output-gradient rows; the last five shapes
        // span several strips with a partial last one.
        for &(bsz, cin, h, w, cout, k, stride, pad) in &[
            (
                1usize, 3usize, 5usize, 7usize, 4usize, 3usize, 1usize, 1usize,
            ),
            (2, 2, 9, 11, 5, 3, 2, 1),
            (3, 4, 7, 5, 6, 1, 1, 0),
            // strips of 12 rows: 12 + 12 + 12 + 9
            (2, 3, 45, 40, 4, 3, 1, 1),
            // stride 2 leaves the last input row and column unread: 15 + 9
            (2, 3, 50, 70, 5, 3, 2, 0),
            // pad 2 with a 5×5 kernel: 15 + 15 + 1
            (1, 2, 31, 33, 3, 5, 1, 2),
            // 1×1: 17 + 17 + 6
            (2, 5, 40, 30, 3, 1, 1, 0),
            // C_out > KC: two K chunks per tap
            (1, 2, 20, 40, 300, 3, 1, 1),
        ] {
            let x = fixture(&[bsz, cin, h, w], 0.41);
            let wt = fixture(&[cout, cin, k, k], 0.23);
            let oh = conv_out_size(h, k, stride, pad);
            let ow = conv_out_size(w, k, stride, pad);
            let gy = fixture(&[bsz, cout, oh, ow], 0.07);
            let (gx, gw, gb) = reference::conv2d_backward(&x, &wt, stride, pad, &gy);
            let gx_split = conv2d_backward_input(x.shape(), &wt, stride, pad, &gy);
            let gw_split = conv2d_backward_weight(&x, wt.shape(), stride, pad, &gy);
            assert_same_bits("conv2d grad_x", &gx_split, &gx);
            assert_same_bits("conv2d grad_w", &gw_split, &gw);
            assert_same_bits("conv2d grad_b", &bias_chan_backward(&gy), &gb);
        }
    }

    #[test]
    fn convt_forward_matches_whole_image_lowering_bitwise_when_taps_overlap() {
        // A transposed convolution is the input gradient of the conv2d
        // with the same weights, so the whole-image `col2im(Wᵀ · X)` of
        // that gradient is its reference. Every shape overlaps taps across
        // several strips with a partial last one.
        for &(bsz, cin, cout, h, w, k, stride, pad) in &[
            // strips of 17 rows: 17 + 17 + 6
            (
                2usize, 3usize, 4usize, 40usize, 30usize, 3usize, 2usize, 1usize,
            ),
            // stride 1, pad 1: the contiguous-run scatter, 25 + 20
            (1, 2, 3, 45, 20, 3, 1, 1),
            // stride 1, pad 0: 21 + 9
            (1, 2, 5, 30, 24, 3, 1, 0),
        ] {
            let x = fixture(&[bsz, cin, h, w], 0.29);
            let wt = fixture(&[cin, cout, k, k], 0.53);
            let oh = convt_out_size(h, k, stride, pad);
            let ow = convt_out_size(w, k, stride, pad);
            let fast = conv_transpose2d_forward(&x, &wt, None, stride, pad);
            let whole =
                reference::conv2d_backward_input(&[bsz, cout, oh, ow], &wt, stride, pad, &x);
            assert_same_bits("convT forward", &fast, &whole);
        }
    }

    #[test]
    fn convt_split_backward_matches_scalar_bitwise() {
        // k = stride (the model's shape) and an overlapping, padded kernel.
        for &(bsz, cin, cout, h, w, k, stride, pad) in &[
            (
                1usize, 3usize, 5usize, 7usize, 5usize, 2usize, 2usize, 0usize,
            ),
            (2, 5, 3, 4, 9, 2, 2, 0),
            (2, 3, 4, 5, 6, 3, 2, 1),
        ] {
            let x = fixture(&[bsz, cin, h, w], 0.31);
            let wt = fixture(&[cin, cout, k, k], 0.17);
            let oh = convt_out_size(h, k, stride, pad);
            let ow = convt_out_size(w, k, stride, pad);
            let gy = fixture(&[bsz, cout, oh, ow], 0.11);
            let (gx, gw, gb) = reference::conv_transpose2d_backward(&x, &wt, stride, pad, &gy);
            let gx_split = conv_transpose2d_backward_input(&wt, stride, pad, &gy);
            let gw_split = conv_transpose2d_backward_weight(&x, wt.shape(), stride, pad, &gy);
            assert_same_bits("convT grad_x", &gx_split, &gx);
            assert_same_bits("convT grad_w", &gw_split, &gw);
            assert_same_bits("convT grad_b", &bias_chan_backward(&gy), &gb);
        }
    }

    #[test]
    fn maxpool_non_finite_window_keeps_gradient_in_its_channel() {
        // Channel 1 is all −∞: its argmax must be its own first pixel, not
        // flat index 0 (channel 0's pixel).
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        v.extend([f32::NEG_INFINITY; 4]);
        let x = Tensor::from_vec(v, &[1, 2, 2, 2]);
        let (y, idx) = maxpool2d_forward(&x, 2);
        assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(idx, vec![3, 4]);
        let gx = maxpool2d_backward(
            &idx,
            x.shape(),
            &Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]),
        );
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);
        // An all-NaN window likewise keeps its gradient inside the window.
        let x = Tensor::from_vec(
            vec![0.5, 0.0, 0.0, 0.0, f32::NAN, f32::NAN, f32::NAN, f32::NAN],
            &[1, 2, 2, 2],
        );
        let (_, idx) = maxpool2d_forward(&x, 2);
        assert_eq!(idx, vec![0, 4]);
    }
}
