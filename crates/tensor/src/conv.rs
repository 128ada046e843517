//! 2-D convolution kernels, with explicit backward functions used by the
//! autograd layer.
//!
//! Layout conventions (matching the paper's `2×H×W` flow tensors batched to
//! NCHW):
//! * input `[N, C, H, W]`
//! * weight `[OC, C, KH, KW]`
//! * bias `[OC]`
//! * output `[N, OC, OH, OW]`
//!
//! Both directions work on one unfold of each sample, the im2row layout
//! `rows = [OH·OW, C·KH·KW]` (columns in `(ch, ki, kj)` order, the
//! weight's own):
//! * **forward** `gemm_rows(rows, Wᵀ)` gives `[OH·OW, OC]`, which is
//!   transposed into the sample's `[OC, OH·OW]` output before the bias is
//!   added;
//! * **weight gradient** `dW_s = go_s · rows`, on the lane-exact `A·Bᵀ`
//!   kernel [`crate::linalg::gemm_bt_rows`], so every element is the
//!   canonical [`simd::dot`] reduction over output cells;
//! * **input gradient** `go_sᵀ · W′`, where `W′` is `W` with its columns
//!   permuted to `(ki, kj, ch)`, gives `[OH·OW, KH·KW·C]`: per output cell
//!   and tap, one contiguous channel vector. These are added into a zeroed,
//!   zero-padded HWC image with the taps `(ki, kj)` outermost, which is
//!   then cropped into `[C, H, W]`. It is skipped for inputs that need none.
//!
//! A training forward ([`conv2d_unfold`]) keeps the batch's unfold for
//! [`conv2d_backward_from`], so a training step unfolds each conv input
//! once. [`conv2d`] keeps nothing: each sample unfolds into one scratch
//! block that stays in cache for its GEMM. [`conv2d_backward`], for
//! callers without a kept unfold, unfolds the batch and then runs the same
//! backward.
//!
//! **Order argument.** Every output element sums the same terms in the same
//! order as the textbook im2col formulation (`W · cols` forward,
//! `col2im(Wᵀ · go)` input gradient):
//! * forward: ascending `p = (ch, ki, kj)` from +0.0, then the bias;
//! * input-gradient GEMM: ascending `oc` from +0.0;
//! * fold: each input element receives its contributions in ascending
//!   `(ki, kj)` order from +0.0, because one tap reaches an element from at
//!   most one output cell.
//!
//! Only each product's operand order differs (`x·w`, `go·w`), which can
//! change which payload a NaN carries and nothing else.
//!
//! Both directions split the batch into one run of contiguous samples per
//! pool thread. Each run takes its scratch from the tensor
//! [`arena`](crate::arena) (its own thread's shard), hands it back when
//! done, and writes into disjoint per-sample slices, so no floats are
//! shared between jobs and results are bit-identical for any thread count.
//! The backward pass writes per-sample weight/bias partials into
//! per-sample slots and folds them sequentially in sample order afterward,
//! which keeps the accumulation association fixed.

use crate::linalg::{gemm_at_rows, gemm_bt_rows, gemm_rows};
use crate::simd;
use crate::tensor::Tensor;
use muse_obs as obs;

/// Static description of a conv2d: geometry only, no parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Stride (rows, cols).
    pub stride: (usize, usize),
    /// Zero padding (rows, cols) applied symmetrically.
    pub padding: (usize, usize),
}

impl Conv2dSpec {
    /// A square-kernel, stride-1 convolution with "same" padding when
    /// `kernel` is odd — the configuration every encoder in this repo uses.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel: (kernel, kernel),
            stride: (1, 1),
            padding: (kernel / 2, kernel / 2),
        }
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// Panics, naming the spec and the input size, when the kernel is
    /// larger than the padded input or a stride is zero: no output exists.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let out = |len: usize, pad: usize, k: usize, stride: usize| -> Option<usize> {
            Some((len + 2 * pad).checked_sub(k)?.checked_div(stride)? + 1)
        };
        match (
            out(h, self.padding.0, self.kernel.0, self.stride.0),
            out(w, self.padding.1, self.kernel.1, self.stride.1),
        ) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => panic!("conv2d: {self:?} has no output for a {h}x{w} input"),
        }
    }

    /// Number of learnable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1 + self.out_channels
    }

    /// Multiply-accumulate count for an `h x w` input (per sample) — used by
    /// the Table I complexity analysis.
    pub fn macs(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.output_hw(h, w);
        oh * ow * self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1
    }
}

/// Unfold one `[C, H, W]` image into rows `[OH*OW, C*KH*KW]`: row `cell`
/// holds the input values under the kernel at that output cell, in
/// `(ch, ki, kj)` order with explicit zeros for padding. Writes every
/// element of `out`, so it may hold garbage from a recycled arena buffer.
/// Each `(cell, channel, kernel row)` run of `KW` values is contiguous in
/// the zero-padded image, so after padding the unfold is plain copies.
pub fn im2row_into(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let mut padded = take_padded(c, h, w, spec);
    im2row_padded(img, c, h, w, spec, &mut padded, out);
    crate::arena::recycle(padded);
}

/// A zeroed buffer for the padded image [`im2row_padded`] reads, or an
/// empty one when the spec has no padding.
fn take_padded(c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (ph, pw) = spec.padding;
    if ph > 0 || pw > 0 {
        crate::arena::take_zeroed(c * (h + 2 * ph) * (w + 2 * pw))
    } else {
        Vec::new()
    }
}

/// [`im2row_into`] through the caller's [`take_padded`] buffer. Only its
/// interior is written, so its fringe stays zero and one buffer serves
/// every image a job unfolds.
fn im2row_padded(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    padded: &mut [f32],
    out: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let ksize = c * kh * kw;
    assert_eq!(out.len(), oh * ow * ksize, "im2row_into buffer size mismatch");
    let (hp, wp) = (h + 2 * ph, w + 2 * pw);
    let src: &[f32] = if padded.is_empty() {
        img
    } else {
        for (prow, src) in
            (0..c).flat_map(|ch| (0..h).map(move |i| (ch * hp + ph + i) * wp + pw)).zip(img.chunks(w))
        {
            padded[prow..prow + w].copy_from_slice(src);
        }
        padded
    };
    for (cell, row) in out.chunks_exact_mut(ksize).enumerate() {
        // The cell's top-left tap in the padded image.
        let win = &src[(cell / ow) * sh * wp + (cell % ow) * sw..];
        match (kh, kw) {
            // Literal shapes for the kernels this project uses, so each
            // channel's runs are unrolled fixed-size copies.
            (1, 1) => copy_runs(win, hp * wp, wp, (1, 1), row),
            (3, 3) => copy_runs(win, hp * wp, wp, (3, 3), row),
            _ => copy_runs(win, hp * wp, wp, (kh, kw), row),
        }
    }
}

/// Copy one cell's `kw`-wide runs into its unfold row, channel by channel:
/// run `(ch, ki)` starts `ch * plane + ki * wp` into `win`.
#[inline(always)]
fn copy_runs(win: &[f32], plane: usize, wp: usize, (kh, kw): (usize, usize), row: &mut [f32]) {
    for (ch, runs) in row.chunks_exact_mut(kh * kw).enumerate() {
        let src = &win[ch * plane..];
        for (ki, run) in runs.chunks_exact_mut(kw).enumerate() {
            run.copy_from_slice(&src[ki * wp..][..kw]);
        }
    }
}

/// Forward conv2d: `[N,C,H,W] * [OC,C,KH,KW] + [OC] -> [N,OC,OH,OW]`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    forward(input, weight, bias, spec, false).0
}

/// [`conv2d`] that also returns the batch's im2row unfold
/// `[N, OH·OW, C·KH·KW]`, for [`conv2d_backward_from`]. The output is
/// bit-identical to [`conv2d`]'s.
pub fn conv2d_unfold(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let (out, rows) = forward(input, weight, bias, spec, true);
    (out, rows.expect("conv2d_unfold keeps its unfold"))
}

fn forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    keep: bool,
) -> (Tensor, Option<Tensor>) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "conv2d input must be [N,C,H,W], got {}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "conv2d channel mismatch: input {c}, spec {}", spec.in_channels);
    assert_eq!(
        weight.dims(),
        &[spec.out_channels, spec.in_channels, spec.kernel.0, spec.kernel.1],
        "conv2d weight shape mismatch"
    );
    if let Some(b) = bias {
        assert_eq!(b.dims(), &[spec.out_channels], "conv2d bias shape mismatch");
    }
    let (oh, ow) = spec.output_hw(h, w);
    let _t = obs::kernel_timer(
        "tensor.conv2d",
        ((input.len() + weight.len() + n * spec.out_channels * oh * ow) * std::mem::size_of::<f32>()) as u64,
    );
    let oc = spec.out_channels;
    let ksize = c * spec.kernel.0 * spec.kernel.1;
    let (chw, ohw) = (c * h * w, oh * ow);
    // Wᵀ `[ksize, OC]`: the GEMM operand that gives one output cell's OC
    // values per row.
    let mut wt = crate::arena::take_uninit(ksize * oc); // every element assigned below
    for (ocx, wrow) in weight.as_slice().chunks_exact(ksize).enumerate() {
        for (p, &v) in wrow.iter().enumerate() {
            wt[p * oc + ocx] = v;
        }
    }
    let bias_s = bias.map(|b| b.as_slice());
    let input_s = input.as_slice();
    let mut out = crate::arena::take_uninit(n * oc * ohw); // the transpose assigns every element
    let mut kept = keep.then(|| crate::arena::take_uninit(n * ohw * ksize)); // the unfold writes every element
    let mut kept_rows = kept.as_deref_mut().map(|k| k.chunks_mut(ohw * ksize));
    let mut samples: Vec<(&mut [f32], Option<&mut [f32]>)> =
        out.chunks_mut(oc * ohw).map(|so| (so, kept_rows.as_mut().and_then(Iterator::next))).collect();
    muse_parallel::parallel_for_mut(&mut samples, 1, |s0, chunk| {
        // Without a kept unfold, each sample unfolds into one scratch row
        // block that stays in cache for its GEMM.
        let mut scratch = if keep { Vec::new() } else { crate::arena::take_uninit(ohw * ksize) };
        let mut padded = take_padded(c, h, w, spec);
        let mut prod = crate::arena::take_uninit(ohw * oc);
        for (ds, (so, kept_rows)) in chunk.iter_mut().enumerate() {
            let rows = kept_rows.as_deref_mut().unwrap_or(&mut scratch);
            im2row_padded(&input_s[(s0 + ds) * chw..][..chw], c, h, w, spec, &mut padded, rows);
            prod.fill(0.0); // gemm_rows accumulates into zeroes
            gemm_rows(rows, &wt, &mut prod, 0, ksize, oc);
            for (ocx, orow) in so.chunks_exact_mut(ohw).enumerate() {
                for (o, cell) in orow.iter_mut().zip(prod[ocx..].iter().step_by(oc)) {
                    *o = *cell;
                }
                if let Some(bs) = bias_s {
                    simd::add_scalar_assign(orow, bs[ocx]);
                }
            }
        }
        for buf in [scratch, padded, prod] {
            crate::arena::recycle(buf);
        }
    });
    drop(samples);
    crate::arena::recycle(wt);
    (Tensor::from_vec(out, &[n, oc, oh, ow]), kept.map(|k| Tensor::from_vec(k, &[n, ohw, ksize])))
}

/// Gradients of conv2d given upstream `grad_out [N,OC,OH,OW]`: unfolds
/// `input` (one job per pool thread over contiguous samples) and runs
/// [`conv2d_backward_from`] on that unfold. A training step skips the
/// unfold by reading the one its forward kept.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "conv2d input must be [N,C,H,W], got {}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let (chw, ohw, ksize) = (c * h * w, oh * ow, c * spec.kernel.0 * spec.kernel.1);
    let len = ohw * ksize;
    let input_s = input.as_slice();
    let mut rows = crate::arena::take_uninit(n * len); // the unfold writes every element
    let mut samples: Vec<&mut [f32]> = rows.chunks_mut(len).collect();
    muse_parallel::parallel_for_mut(&mut samples, 1, |s0, chunk| {
        let mut padded = take_padded(c, h, w, spec);
        for (ds, out) in chunk.iter_mut().enumerate() {
            im2row_padded(&input_s[(s0 + ds) * chw..][..chw], c, h, w, spec, &mut padded, out);
        }
        crate::arena::recycle(padded);
    });
    drop(samples);
    let unfold = Tensor::from_vec(rows, &[n, ohw, ksize]);
    let (gx, gw, gb) = conv2d_backward_from(&unfold, input, weight, grad_out, spec, true);
    (gx.expect("input gradient requested"), gw, gb)
}

/// The gradients of conv2d from the unfold that [`conv2d_unfold`] kept for
/// `input`, so the backward pass unfolds nothing. The input gradient is
/// computed only when `want_input` is set (a tape constant needs none).
/// Returns `(grad_input, grad_weight, grad_bias)`; each is bit-identical
/// whether or not the input gradient is wanted.
pub fn conv2d_backward_from(
    unfold: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    want_input: bool,
) -> (Option<Tensor>, Tensor, Tensor) {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, spec.out_channels, oh, ow], "conv2d_backward grad shape mismatch");
    let _t = obs::kernel_timer(
        "tensor.conv2d_backward",
        ((input.len() + weight.len() + grad_out.len()) * std::mem::size_of::<f32>()) as u64,
    );
    let oc = spec.out_channels;
    let taps = spec.kernel.0 * spec.kernel.1;
    let ksize = c * taps;
    let (chw, ohw) = (c * h * w, oh * ow);
    assert_eq!(unfold.dims(), &[n, ohw, ksize], "conv2d_backward_from unfold shape mismatch");
    let kept = unfold.as_slice();
    let go_all = grad_out.as_slice();
    // W′: W with its columns permuted from (ch, ki, kj) to (ki, kj, ch), so
    // `goᵀ · W′` gives each output cell's input gradient per tap as one
    // contiguous channel vector.
    let wperm = want_input.then(|| {
        let mut perm = crate::arena::take_uninit(oc * ksize); // every element assigned below
        for (dst, src) in perm.chunks_exact_mut(ksize).zip(weight.as_slice().chunks_exact(ksize)) {
            for (ch, taps_w) in src.chunks_exact(taps).enumerate() {
                for (t, &v) in taps_w.iter().enumerate() {
                    dst[t * c + ch] = v;
                }
            }
        }
        perm
    });
    // The crop assigns every element.
    let mut grad_input = want_input.then(|| crate::arena::take_uninit(n * chw));
    // Per-sample partials: each sample owns one slot, and the fold below
    // walks the slots in sample order, so the accumulation association
    // never depends on how samples were split across the pool. Every slot
    // is fully assigned (gemm_bt assigns, db is a plain store), so recycled
    // contents are fine.
    let mut dw_all = crate::arena::take_uninit(n * oc * ksize);
    let mut db_all = crate::arena::take_uninit(n * oc);
    let mut gi_slots = grad_input.as_deref_mut().map(|gi| gi.chunks_mut(chw));
    let mut samples: Vec<SampleGrads> = dw_all
        .chunks_mut(oc * ksize)
        .zip(db_all.chunks_mut(oc))
        .map(|(dw, db)| SampleGrads { dw, db, gi: gi_slots.as_mut().and_then(Iterator::next) })
        .collect();
    let (hp, wp) = (h + 2 * spec.padding.0, w + 2 * spec.padding.1);
    muse_parallel::parallel_for_mut(&mut samples, 1, |s0, chunk| {
        // The input gradient's per-sample rows and padded HWC image, reused
        // across this job's samples, when it is wanted.
        let take = |len: usize| if want_input { crate::arena::take_uninit(len) } else { Vec::new() };
        let mut drows = take(ohw * ksize);
        let mut hwc = take(hp * wp * c);
        for (ds, SampleGrads { dw, db, gi }) in chunk.iter_mut().enumerate() {
            let s = s0 + ds;
            let go = &go_all[s * oc * ohw..][..oc * ohw];
            let rows = &kept[s * ohw * ksize..][..ohw * ksize];
            // dW_s = go x rows, one canonical dot over output cells per element
            gemm_bt_rows(go, rows, dw, 0, ohw, ksize);
            // db_s = rowsum(go), canonical lane reduction per row
            for (ocx, d) in db.iter_mut().enumerate() {
                *d = simd::sum(&go[ocx * ohw..][..ohw]);
            }
            if let (Some(gi), Some(wperm)) = (gi, &wperm) {
                input_grad(go, wperm, spec, (c, h, w), (oh, ow), &mut drows, &mut hwc, gi);
            }
        }
        crate::arena::recycle(drows);
        crate::arena::recycle(hwc);
    });
    drop(samples);
    if let Some(perm) = wperm {
        crate::arena::recycle(perm);
    }
    let mut grad_wmat = crate::arena::take_zeroed(oc * ksize);
    for dw in dw_all.chunks(oc * ksize) {
        simd::add_assign(&mut grad_wmat, dw);
    }
    let mut grad_bias = crate::arena::take_zeroed(oc);
    for db in db_all.chunks(oc) {
        simd::add_assign(&mut grad_bias, db);
    }
    crate::arena::recycle(dw_all);
    crate::arena::recycle(db_all);
    (
        grad_input.map(|gi| Tensor::from_vec(gi, dims)),
        Tensor::from_vec(grad_wmat, &[oc, spec.in_channels, spec.kernel.0, spec.kernel.1]),
        Tensor::from_vec(grad_bias, &[oc]),
    )
}

/// One sample's slots in the backward pass: its `dW` and `db` partials and,
/// when wanted, its slice of the input gradient.
struct SampleGrads<'a> {
    dw: &'a mut [f32],
    db: &'a mut [f32],
    gi: Option<&'a mut [f32]>,
}

/// One sample's input gradient `gi [C, H, W]` from its upstream gradient
/// `go [OC, OH·OW]`: `drows = goᵀ · W′` (`[OH·OW, KH·KW·C]`, ascending `oc`
/// from +0.0), folded into the zeroed, padded HWC image `hwc` one
/// channel vector per (tap, cell) with the taps outermost, then cropped.
/// Every input element receives its contributions in ascending `(ki, kj)`
/// order: each tap reaches an element from at most one cell.
#[allow(clippy::too_many_arguments)]
fn input_grad(
    go: &[f32],
    wperm: &[f32],
    spec: &Conv2dSpec,
    (c, h, w): (usize, usize, usize),
    (oh, ow): (usize, usize),
    drows: &mut [f32],
    hwc: &mut [f32],
    gi: &mut [f32],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oc, ohw, ksize) = (spec.out_channels, oh * ow, c * kh * kw);
    let wp = w + 2 * pw;
    drows.fill(0.0); // gemm_at_rows accumulates into zeroes
    gemm_at_rows(go, wperm, drows, 0, oc, ohw, ksize);
    hwc.fill(0.0);
    for ki in 0..kh {
        for kj in 0..kw {
            let tap = (ki * kw + kj) * c;
            for (cell, drow) in drows.chunks_exact(ksize).enumerate() {
                let at = (((cell / ow) * sh + ki) * wp + (cell % ow) * sw + kj) * c;
                simd::add_assign(&mut hwc[at..at + c], &drow[tap..tap + c]);
            }
        }
    }
    for (ch, plane) in gi.chunks_exact_mut(h * w).enumerate() {
        for (i, row) in plane.chunks_exact_mut(w).enumerate() {
            let src = &hwc[((i + ph) * wp + pw) * c + ch..];
            for (g, &v) in row.iter_mut().zip(src.iter().step_by(c)) {
                *g = v;
            }
        }
    }
}

/// Naive direct convolution used by tests to validate the unfold kernels.
pub fn conv2d_reference(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    for s in 0..n {
        for oc in 0..spec.out_channels {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b.as_slice()[oc]);
                    for ch in 0..c {
                        for ki in 0..spec.kernel.0 {
                            for kj in 0..spec.kernel.1 {
                                let ii = (oi * spec.stride.0 + ki) as isize - spec.padding.0 as isize;
                                let jj = (oj * spec.stride.1 + kj) as isize - spec.padding.1 as isize;
                                if ii >= 0 && (ii as usize) < h && jj >= 0 && (jj as usize) < w {
                                    acc += input.at(&[s, ch, ii as usize, jj as usize])
                                        * weight.at(&[oc, ch, ki, kj]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[s, oc, oi, oj]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    fn rand_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        Tensor::rand_uniform(rng, dims, -1.0, 1.0)
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::same(3, 8, 3);
        assert_eq!(spec.output_hw(10, 20), (10, 20));
        let strided =
            Conv2dSpec { in_channels: 1, out_channels: 1, kernel: (3, 3), stride: (2, 2), padding: (1, 1) };
        assert_eq!(strided.output_hw(8, 8), (4, 4));
        assert_eq!(spec.param_count(), 8 * 3 * 9 + 8);
        assert!(spec.macs(10, 20) > 0);
    }

    #[test]
    fn conv_matches_reference() {
        let mut rng = SeededRng::new(7);
        let spec = Conv2dSpec::same(2, 3, 3);
        let x = rand_tensor(&mut rng, &[2, 2, 5, 6]);
        let w = rand_tensor(&mut rng, &[3, 2, 3, 3]);
        let b = rand_tensor(&mut rng, &[3]);
        let fast = conv2d(&x, &w, Some(&b), &spec);
        let slow = conv2d_reference(&x, &w, Some(&b), &spec);
        assert!(fast.approx_eq(&slow, 1e-4), "max diff {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn conv_strided_matches_reference() {
        let mut rng = SeededRng::new(11);
        let spec =
            Conv2dSpec { in_channels: 1, out_channels: 2, kernel: (3, 2), stride: (2, 1), padding: (1, 0) };
        let x = rand_tensor(&mut rng, &[1, 1, 7, 5]);
        let w = rand_tensor(&mut rng, &[2, 1, 3, 2]);
        let fast = conv2d(&x, &w, None, &spec);
        let slow = conv2d_reference(&x, &w, None, &spec);
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn im2row_overwrites_dirty_buffers() {
        // Arena buffers come back dirty; im2row_into must be a total
        // overwrite, including the zero-padding fringe.
        let mut rng = SeededRng::new(13);
        let strided =
            Conv2dSpec { in_channels: 2, out_channels: 1, kernel: (3, 2), stride: (2, 3), padding: (1, 2) };
        for spec in [Conv2dSpec::same(2, 1, 3), strided] {
            let (c, h, w) = (2, 4, 5);
            let x = rand_tensor(&mut rng, &[c, h, w]);
            let (kh, kw) = spec.kernel;
            let (oh, ow) = spec.output_hw(h, w);
            let mut want = Vec::new();
            for (oi, oj) in (0..oh).flat_map(|oi| (0..ow).map(move |oj| (oi, oj))) {
                for (ch, ki, kj) in
                    (0..c).flat_map(|ch| (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ch, ki, kj))))
                {
                    let ii = (oi * spec.stride.0 + ki).checked_sub(spec.padding.0).filter(|&i| i < h);
                    let jj = (oj * spec.stride.1 + kj).checked_sub(spec.padding.1).filter(|&j| j < w);
                    want.push(ii.zip(jj).map_or(0.0, |(i, j)| x.at(&[ch, i, j])));
                }
            }
            let mut dirty = vec![f32::NAN; want.len()];
            im2row_into(x.as_slice(), c, h, w, &spec, &mut dirty);
            assert_eq!(want, dirty, "im2row_into {spec:?}");
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 is the identity map.
        let spec =
            Conv2dSpec { in_channels: 1, out_channels: 1, kernel: (1, 1), stride: (1, 1), padding: (0, 0) };
        let x = Tensor::arange(0.0, 12.0).reshape(&[1, 1, 3, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, &spec);
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn input_gradient_is_adjoint_of_conv() {
        // <conv(x), y> == <x, dX(y)> for random x, y: the input gradient's
        // fold is the adjoint of the forward's unfold, strided or not.
        let mut rng = SeededRng::new(3);
        let strided =
            Conv2dSpec { in_channels: 2, out_channels: 3, kernel: (3, 2), stride: (2, 1), padding: (1, 1) };
        for spec in [Conv2dSpec::same(2, 3, 3), strided] {
            let (n, c, h, w) = (2, 2, 5, 6);
            let x = rand_tensor(&mut rng, &[n, c, h, w]);
            let wt = rand_tensor(&mut rng, &[3, c, spec.kernel.0, spec.kernel.1]);
            let (oh, ow) = spec.output_hw(h, w);
            let y = rand_tensor(&mut rng, &[n, 3, oh, ow]);
            let lhs: f32 =
                conv2d(&x, &wt, None, &spec).as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
            let (gx, _, _) = conv2d_backward(&x, &wt, &y, &spec);
            let rhs: f32 = x.as_slice().iter().zip(gx.as_slice()).map(|(&a, &b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs} for {spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "has no output for a 1x2 input")]
    fn kernel_larger_than_padded_input_panics_at_entry() {
        // A 3x3 kernel with no padding over a 1x2 image: the output size
        // would wrap, so the forward must refuse it up front.
        let spec =
            Conv2dSpec { in_channels: 1, out_channels: 1, kernel: (3, 3), stride: (1, 1), padding: (0, 0) };
        conv2d(&Tensor::ones(&[1, 1, 1, 2]), &Tensor::ones(&[1, 1, 3, 3]), None, &spec);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SeededRng::new(5);
        let spec = Conv2dSpec::same(1, 2, 3);
        let x = rand_tensor(&mut rng, &[1, 1, 4, 4]);
        let w = rand_tensor(&mut rng, &[2, 1, 3, 3]);
        let b = rand_tensor(&mut rng, &[2]);
        // Loss = sum(conv(x)); upstream gradient of ones.
        let y = conv2d(&x, &w, Some(&b), &spec);
        let go = Tensor::ones(y.dims());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &go, &spec);
        let eps = 1e-2f32;
        // Check a sample of input positions.
        for &i in &[0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (conv2d(&xp, &w, Some(&b), &spec).sum() - conv2d(&xm, &w, Some(&b), &spec).sum())
                / (2.0 * eps);
            assert!((num - gx.as_slice()[i]).abs() < 1e-2, "input grad {i}: {num} vs {}", gx.as_slice()[i]);
        }
        for &i in &[0usize, 4, 9, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (conv2d(&x, &wp, Some(&b), &spec).sum() - conv2d(&x, &wm, Some(&b), &spec).sum())
                / (2.0 * eps);
            assert!((num - gw.as_slice()[i]).abs() < 1e-2, "weight grad {i}: {num} vs {}", gw.as_slice()[i]);
        }
        // Bias gradient of a sum-loss is the number of output positions.
        assert!((gb.as_slice()[0] - 16.0).abs() < 1e-3);
    }

    #[test]
    fn multi_sample_backward_matches_per_sample() {
        // Batched backward (parallel per-sample jobs + ordered fold) must
        // agree with summing per-sample single-batch calls in order.
        let mut rng = SeededRng::new(17);
        let spec = Conv2dSpec::same(2, 3, 3);
        let (n, c, h, w) = (5, 2, 4, 6);
        let x = rand_tensor(&mut rng, &[n, c, h, w]);
        let wt = rand_tensor(&mut rng, &[3, c, 3, 3]);
        let go = rand_tensor(&mut rng, &[n, 3, h, w]);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &go, &spec);
        let mut gw_sum = Tensor::zeros(gw.dims());
        let mut gb_sum = Tensor::zeros(gb.dims());
        for s in 0..n {
            let xs =
                Tensor::from_vec(x.as_slice()[s * c * h * w..(s + 1) * c * h * w].to_vec(), &[1, c, h, w]);
            let gos =
                Tensor::from_vec(go.as_slice()[s * 3 * h * w..(s + 1) * 3 * h * w].to_vec(), &[1, 3, h, w]);
            let (gxs, gws, gbs) = conv2d_backward(&xs, &wt, &gos, &spec);
            assert_eq!(&gx.as_slice()[s * c * h * w..(s + 1) * c * h * w], gxs.as_slice());
            gw_sum.add_assign(&gws);
            gb_sum.add_assign(&gbs);
        }
        assert!(gw.approx_eq(&gw_sum, 1e-5));
        assert!(gb.approx_eq(&gb_sum, 1e-5));
    }
}
