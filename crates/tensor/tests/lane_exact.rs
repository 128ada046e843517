//! Bitwise contract of the `A·Bᵀ` kernel and the conv weight gradient built
//! on it. `Tensor::matmul_bt` and `linalg::gemm_bt_rows` must equal one
//! [`simd::dot`] per output element, bit for bit, for every inner dimension
//! `k` (the kernel reproduces the dot's 32-lane association). `conv2d_backward`
//! must equal a reference whose weight gradient is one `simd::dot` per
//! element over an im2col unfold, with the input and bias gradients
//! computed the way the kernel computes them. Every case runs on the scalar
//! and AVX2 paths crossed with pools of 1, 2 and 4 threads, in the seeded
//! style of `determinism.rs`.

use muse_parallel::with_threads;
use muse_tensor::conv::{col2im, conv2d_backward, conv2d_param_backward, im2col, Conv2dSpec};
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
    let wmat = Tensor::from_vec(w.as_slice().to_vec(), &[oc, ksize]);
    let mut gx = Vec::with_capacity(n * chw);
    let mut gw = vec![0.0f32; oc * ksize];
    let mut gb = vec![0.0f32; oc];
    for s in 0..n {
        let img = &x.as_slice()[s * chw..][..chw];
        let g = &go.as_slice()[s * oc * ohw..][..oc * ohw];
        let cols = im2col(img, c, h, wd, spec);
        let dw = dot_reference(g, cols.as_slice(), oc, ohw, ksize);
        for (acc, v) in gw.iter_mut().zip(dw) {
            *acc += v;
        }
        for (o, acc) in gb.iter_mut().enumerate() {
            *acc += simd::sum(&g[o * ohw..][..ohw]);
        }
        let dcols = wmat.matmul_at(&Tensor::from_vec(g.to_vec(), &[oc, ohw]));
        gx.extend(col2im(&dcols, c, h, wd, spec));
    }
    (Tensor::from_vec(gx, x.dims()), Tensor::from_vec(gw, w.dims()), Tensor::from_vec(gb, &[oc]))
}

#[test]
fn conv2d_backward_equals_dot_reference() {
    let strided =
        Conv2dSpec { in_channels: 3, out_channels: 5, kernel: (3, 3), stride: (2, 2), padding: (1, 1) };
    let one_by_one =
        Conv2dSpec { in_channels: 6, out_channels: 4, kernel: (1, 1), stride: (1, 1), padding: (0, 0) };
    let cases = [
        ("4x5 grid", Conv2dSpec::same(4, 6, 3), 4usize, 5usize),
        ("8x10 grid", Conv2dSpec::same(3, 5, 3), 8, 10),
        ("strided", strided, 9, 11),
        ("1x1", one_by_one, 8, 10),
    ];
    for (seed, (what, spec, h, w)) in cases.into_iter().enumerate() {
        let mut rng = SeededRng::new(300 + seed as u64);
        let n = 3;
        let (oh, ow) = spec.output_hw(h, w);
        let x = Tensor::from_vec(
            signed_zero_vec(&mut rng, n * spec.in_channels * h * w),
            &[n, spec.in_channels, h, w],
        );
        let wt = Tensor::from_vec(
            signed_zero_vec(&mut rng, spec.out_channels * spec.in_channels * spec.kernel.0 * spec.kernel.1),
            &[spec.out_channels, spec.in_channels, spec.kernel.0, spec.kernel.1],
        );
        let go = Tensor::from_vec(
            signed_zero_vec(&mut rng, n * spec.out_channels * oh * ow),
            &[n, spec.out_channels, oh, ow],
        );
        let (rx, rw, rb) = conv_backward_reference(&x, &wt, &go, &spec);
        sweep(|cfg| {
            let (gx, gw, gb) = conv2d_backward(&x, &wt, &go, &spec);
            assert_same(gx.as_slice(), rx.as_slice(), &format!("{what} grad_input"), cfg);
            assert_same(gw.as_slice(), rw.as_slice(), &format!("{what} grad_weight"), cfg);
            assert_same(gb.as_slice(), rb.as_slice(), &format!("{what} grad_bias"), cfg);
            let (pw, pb) = conv2d_param_backward(&x, &wt, &go, &spec);
            assert_same(pw.as_slice(), rw.as_slice(), &format!("{what} param grad_weight"), cfg);
            assert_same(pb.as_slice(), rb.as_slice(), &format!("{what} param grad_bias"), cfg);
        });
    }
}
