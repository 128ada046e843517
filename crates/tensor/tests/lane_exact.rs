//! Bitwise contract of the `A·Bᵀ` kernel and of the conv kernels.
//! `Tensor::matmul_bt` and `linalg::gemm_bt_rows` must equal one
//! [`simd::dot`] per output element, bit for bit, for every inner
//! dimension `k` (the kernel reproduces the dot's 32-lane association). The conv kernels must equal
//! test-only references built on the textbook im2col layout: the forward is
//! `W · cols` summed left to right from +0.0, then the bias; the weight
//! gradient is one `simd::dot` per element over the unfold; the input
//! gradient is `col2im(Wᵀ · go)`; the bias gradient is the lane-reduced row
//! sum; per-sample partials fold in sample order. Only NaN payloads may
//! differ. Every case runs on the scalar and AVX2 paths crossed with pools
//! of 1, 2 and 4 threads, in the seeded style of `determinism.rs`.

use muse_parallel::with_threads;
use muse_tensor::conv::{conv2d, conv2d_backward, conv2d_backward_from, conv2d_unfold, Conv2dSpec};
use muse_tensor::init::SeededRng;
use muse_tensor::linalg::gemm_bt_rows;
use muse_tensor::simd::{self, Level};
use muse_tensor::Tensor;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
const LEVEL_SWEEP: [Level; 2] = [Level::Scalar, Level::Avx2Fma];

/// Run `check` on every (SIMD level × pool size) combination.
fn sweep(check: impl Fn(&str)) {
    for level in LEVEL_SWEEP {
        for &t in &THREAD_SWEEP {
            let cfg = format!("{} threads / {}", t, level.name());
            simd::with_level(level, || with_threads(t, || check(&cfg)));
        }
    }
}

/// Uniform values in `[-1, 1)` with roughly one element in eight replaced
/// by +0.0 or -0.0, so zero-signed products reach every lane.
fn signed_zero_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.uniform(-1.0, 1.0);
            match rng.index(16) {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            }
        })
        .collect()
}

/// Same bits, or both NaN (NaN payloads may differ between paths).
fn same(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn assert_same(got: &[f32], want: &[f32], what: &str, cfg: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length drift at {cfg}");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{what}: element {i} differs with {cfg}: {g:e} ({:#x}) vs {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `C[i][j] = simd::dot(A row i, B row j)` for `a: [m,k]`, `b: [n,k]`.
fn dot_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            out.push(simd::dot(&a[i * k..][..k], &b[j * k..][..k]));
        }
    }
    out
}

fn transpose(b: &[f32], n: usize, k: usize) -> Vec<f32> {
    let mut bt = vec![0.0; k * n];
    for j in 0..n {
        for p in 0..k {
            bt[p * n + j] = b[j * k + p];
        }
    }
    bt
}

/// Check `matmul_bt` and a direct `gemm_bt_rows` call against per-element
/// dots on one `[m,k] x [n,k]ᵀ` problem.
fn check_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, what: &str) {
    let want = dot_reference(a, b, m, k, n);
    let (ta, tb) = (Tensor::from_vec(a.to_vec(), &[m, k]), Tensor::from_vec(b.to_vec(), &[n, k]));
    let bt = transpose(b, n, k);
    sweep(|cfg| {
        assert_same(ta.matmul_bt(&tb).as_slice(), &want, &format!("{what} matmul_bt k={k}"), cfg);
        // Rows 1.. only: a non-zero first row and a dirty output buffer.
        let mut out = vec![f32::NAN; (m - 1) * n];
        gemm_bt_rows(a, &bt, &mut out, 1, k, n);
        assert_same(&out, &want[n..], &format!("{what} gemm_bt_rows k={k}"), cfg);
    });
}

#[test]
fn bt_kernel_equals_per_element_dot_for_every_k() {
    // 37 rows: nine four-row tiles plus a remainder row. 27 columns: a
    // 16-wide block, an 8-wide block and a 3-column tail. Large k fans
    // the product out across the pool (above 2^15 multiply-adds).
    let (m, n) = (37usize, 27usize);
    for k in 1..=80usize {
        let mut rng = SeededRng::new(1000 + k as u64);
        let mut a = signed_zero_vec(&mut rng, m * k);
        let b = signed_zero_vec(&mut rng, n * k);
        // Rows whose products are all zeros of mixed sign: the lane
        // partials are signed zeros, the case the kernel's start-at-the-
        // first-product argument has to get right.
        for (p, v) in a[..k].iter_mut().enumerate() {
            *v = if p % 3 == 0 { 0.0 } else { -0.0 };
        }
        a[2 * k..3 * k].fill(-0.0);
        check_bt(&a, &b, m, k, n, "signed zeros");
    }
}

#[test]
fn bt_kernel_propagates_nan_and_inf_like_dot() {
    let (m, n) = (9usize, 19usize);
    for k in [1usize, 5, 31, 32, 33, 64, 65, 80] {
        let mut rng = SeededRng::new(2000 + k as u64);
        let mut a = signed_zero_vec(&mut rng, m * k);
        let mut b = signed_zero_vec(&mut rng, n * k);
        // Inf against a zero (NaN), infinities of both signs in one dot
        // (NaN), a lone infinity (±Inf) and a NaN input.
        a[0] = f32::INFINITY;
        b[0] = 0.0;
        a[k + k / 2] = f32::INFINITY;
        a[k + k - 1] = f32::NEG_INFINITY;
        b[3 * k + k - 1] = f32::NEG_INFINITY;
        b[5 * k] = f32::NAN;
        check_bt(&a, &b, m, k, n, "nan/inf");
        let want = dot_reference(&a, &b, m, k, n);
        assert!(want.iter().any(|v| v.is_nan()), "k={k}: case must produce a NaN");
        assert!(want.iter().any(|v| v.is_infinite()), "k={k}: case must produce an infinity");
    }
}

/// Test-only im2col: unfold one `[C, H, W]` image into columns
/// `[C·KH·KW, OH·OW]`, zeros for padding.
fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let mut cols = Vec::with_capacity(c * kh * kw * oh * ow);
    for (ch, ki, kj) in (0..c).flat_map(|ch| (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ch, ki, kj))))
    {
        for (oi, oj) in (0..oh).flat_map(|oi| (0..ow).map(move |oj| (oi, oj))) {
            let ii = (oi * spec.stride.0 + ki).checked_sub(spec.padding.0).filter(|&i| i < h);
            let jj = (oj * spec.stride.1 + kj).checked_sub(spec.padding.1).filter(|&j| j < w);
            cols.push(ii.zip(jj).map_or(0.0, |(i, j)| img[(ch * h + i) * w + j]));
        }
    }
    cols
}

/// Test-only col2im, the adjoint of [`im2col`]: fold columns back into a
/// zeroed `[C, H, W]` image, visiting rows in `(ch, ki, kj)` order and
/// cells in order, so every image element sums its contributions in
/// ascending `(ki, kj)` order from +0.0.
fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let mut img = vec![0.0f32; c * h * w];
    let rows = (0..c).flat_map(|ch| (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ch, ki, kj))));
    for ((ch, ki, kj), row) in rows.zip(cols.chunks_exact(oh * ow)) {
        for (cell, &v) in row.iter().enumerate() {
            let (oi, oj) = (cell / ow, cell % ow);
            let ii = (oi * spec.stride.0 + ki).checked_sub(spec.padding.0).filter(|&i| i < h);
            let jj = (oj * spec.stride.1 + kj).checked_sub(spec.padding.1).filter(|&j| j < w);
            if let (Some(i), Some(j)) = (ii, jj) {
                img[(ch * h + i) * w + j] += v;
            }
        }
    }
    img
}

/// `[R, K] x [K, M]` with every element summed left to right over `K`
/// from +0.0, one multiply and one add per term.
fn sequential_gemm(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * m];
    for (i, orow) in out.chunks_exact_mut(m).enumerate() {
        for (j, o) in orow.iter_mut().enumerate() {
            for p in 0..k {
                *o += a[i * k + p] * b[p * m + j];
            }
        }
    }
    out
}

/// Test-only conv forward: `W · cols` per sample, then the bias.
fn conv_forward_reference(x: &Tensor, w: &Tensor, b: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oh, ow) = spec.output_hw(h, wd);
    let (oc, ohw, chw) = (spec.out_channels, oh * ow, c * h * wd);
    let ksize = c * spec.kernel.0 * spec.kernel.1;
    let mut out = Vec::with_capacity(n * oc * ohw);
    for img in x.as_slice().chunks_exact(chw) {
        let y = sequential_gemm(w.as_slice(), &im2col(img, c, h, wd, spec), oc, ksize, ohw);
        out.extend(
            y.chunks_exact(ohw).zip(b.as_slice()).flat_map(|(row, &bv)| row.iter().map(move |&v| v + bv)),
        );
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Test-only conv backward: weight gradient as one `simd::dot` per element
/// over an im2col unfold, input gradient as `col2im(Wᵀ · go)`, bias
/// gradient as the lane-reduced row sum; per-sample partials folded in
/// sample order.
fn conv_backward_reference(
    x: &Tensor,
    w: &Tensor,
    go: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oh, ow) = spec.output_hw(h, wd);
    let (oc, ohw, chw) = (spec.out_channels, oh * ow, c * h * wd);
    let ksize = c * spec.kernel.0 * spec.kernel.1;
    let wt = transpose(w.as_slice(), oc, ksize);
    let mut gx = Vec::with_capacity(n * chw);
    let mut gw = vec![0.0f32; oc * ksize];
    let mut gb = vec![0.0f32; oc];
    for s in 0..n {
        let img = &x.as_slice()[s * chw..][..chw];
        let g = &go.as_slice()[s * oc * ohw..][..oc * ohw];
        let cols = im2col(img, c, h, wd, spec);
        let dw = dot_reference(g, &cols, oc, ohw, ksize);
        for (acc, v) in gw.iter_mut().zip(dw) {
            *acc += v;
        }
        for (o, acc) in gb.iter_mut().enumerate() {
            *acc += simd::sum(&g[o * ohw..][..ohw]);
        }
        let dcols = sequential_gemm(&wt, g, ksize, oc, ohw);
        gx.extend(col2im(&dcols, c, h, wd, spec));
    }
    (Tensor::from_vec(gx, x.dims()), Tensor::from_vec(gw, w.dims()), Tensor::from_vec(gb, &[oc]))
}

/// [`signed_zero_vec`] with about one element in sixteen subnormal, and,
/// with `specials`, one NaN, one +inf and one -inf at random positions.
fn edge_vec(rng: &mut SeededRng, len: usize, specials: bool) -> Vec<f32> {
    let mut v = signed_zero_vec(rng, len);
    for x in v.iter_mut() {
        if rng.index(16) == 0 {
            let tiny = f32::from_bits(1 + rng.index(0x7f_ffff) as u32);
            *x = if rng.index(2) == 0 { tiny } else { -tiny };
        }
    }
    if specials {
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            v[rng.index(len)] = special;
        }
    }
    v
}

/// Every conv geometry the bit contract covers: the model's eight layers
/// on the quick profile's 4×5 grid, an 8×10 grid, strided, a (3, 2) kernel
/// with stride (2, 1), and 1×1.
fn conv_cases() -> Vec<(String, Conv2dSpec, usize, usize)> {
    let mut cases: Vec<_> = [(32, 16), (16, 2), (16, 16), (8, 16), (16, 14), (64, 16), (6, 16), (48, 16)]
        .into_iter()
        .map(|(ci, co)| (format!("4x5 {ci}->{co}"), Conv2dSpec::same(ci, co, 3), 4, 5))
        .collect();
    let spec = |ci, co, kernel, stride, padding| Conv2dSpec {
        in_channels: ci,
        out_channels: co,
        kernel,
        stride,
        padding,
    };
    cases.push(("8x10".into(), Conv2dSpec::same(3, 5, 3), 8, 10));
    cases.push(("stride (2,2)".into(), spec(3, 5, (3, 3), (2, 2), (1, 1)), 9, 11));
    cases.push(("3x2 stride (2,1)".into(), spec(2, 3, (3, 2), (2, 1), (1, 0)), 7, 5));
    cases.push(("1x1".into(), spec(6, 4, (1, 1), (1, 1), (0, 0)), 8, 10));
    cases
}

/// Run `check(what, x, w, b, go, spec)` on every conv case at batch sizes
/// 1, 3, 5 and 8, with edge values everywhere and NaN/±inf in the input
/// and upstream gradient (and, at `n == 5`, in the weights too).
fn for_each_conv_case(check: impl Fn(&str, &Tensor, &Tensor, &Tensor, &Tensor, &Conv2dSpec)) {
    for (case, (name, spec, h, w)) in conv_cases().into_iter().enumerate() {
        for n in [1usize, 3, 5, 8] {
            let mut rng = SeededRng::new(300 + 16 * case as u64 + n as u64);
            let (oh, ow) = spec.output_hw(h, w);
            let (ci, co) = (spec.in_channels, spec.out_channels);
            let wdims = [co, ci, spec.kernel.0, spec.kernel.1];
            let x = Tensor::from_vec(edge_vec(&mut rng, n * ci * h * w, true), &[n, ci, h, w]);
            let wt = Tensor::from_vec(edge_vec(&mut rng, wdims.iter().product(), n == 5), &wdims);
            let b = Tensor::from_vec(edge_vec(&mut rng, co, false), &[co]);
            let go = Tensor::from_vec(edge_vec(&mut rng, n * co * oh * ow, true), &[n, co, oh, ow]);
            check(&format!("{name} n={n}"), &x, &wt, &b, &go, &spec);
        }
    }
}

#[test]
fn conv2d_forward_equals_cols_reference() {
    for_each_conv_case(|what, x, wt, b, _, spec| {
        let want = conv_forward_reference(x, wt, b, spec);
        sweep(|cfg| {
            assert_same(
                conv2d(x, wt, Some(b), spec).as_slice(),
                want.as_slice(),
                &format!("{what} conv2d"),
                cfg,
            );
            let (y, _) = conv2d_unfold(x, wt, Some(b), spec);
            assert_same(y.as_slice(), want.as_slice(), &format!("{what} conv2d_unfold"), cfg);
        });
    });
}

#[test]
fn conv2d_backward_equals_dot_reference() {
    for_each_conv_case(|what, x, wt, b, go, spec| {
        let (rx, rw, rb) = conv_backward_reference(x, wt, go, spec);
        sweep(|cfg| {
            let check = |gx: Option<&Tensor>, gw: &Tensor, gb: &Tensor, how: &str| {
                if let Some(gx) = gx {
                    assert_same(gx.as_slice(), rx.as_slice(), &format!("{what} {how} grad_input"), cfg);
                }
                assert_same(gw.as_slice(), rw.as_slice(), &format!("{what} {how} grad_weight"), cfg);
                assert_same(gb.as_slice(), rb.as_slice(), &format!("{what} {how} grad_bias"), cfg);
            };
            let (gx, gw, gb) = conv2d_backward(x, wt, go, spec);
            check(Some(&gx), &gw, &gb, "conv2d_backward");
            let (_, unfold) = conv2d_unfold(x, wt, Some(b), spec);
            for want_input in [true, false] {
                let (gx, gw, gb) = conv2d_backward_from(&unfold, x, wt, go, spec, want_input);
                assert_eq!(gx.is_some(), want_input, "{what}: input gradient presence");
                check(gx.as_ref(), &gw, &gb, "conv2d_backward_from");
            }
        });
    });
}
