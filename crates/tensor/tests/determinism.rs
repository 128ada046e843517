//! Thread-count × SIMD-level determinism sweep: every parallel kernel must
//! produce **bit-identical** results for any pool size *and* any
//! instruction-set level. Each case computes a reference result on a
//! single-threaded pool with the scalar kernels
//! ([`muse_parallel::with_threads`] × [`muse_tensor::simd::with_level`]),
//! then re-runs on pools of 1, 2, 4, and 7 threads (the conv kernels, which
//! split the batch by pool size, also on 3 and at batch sizes 1, 3, 5 and
//! 8) crossed with the scalar and AVX2 paths and compares exact f32 bits,
//! swept over deterministic seed families in the style of
//! `crates/autograd/tests/properties.rs`.
//!
//! On machines without AVX2 the `Level::Avx2Fma` leg silently degrades to
//! scalar (the override can only lower the detected level), so the sweep
//! still runs everywhere — it just stops being a cross-ISA comparison.

use muse_parallel::with_threads;
use muse_tensor::conv::{conv2d, conv2d_backward, conv2d_backward_from, conv2d_unfold, Conv2dSpec};
use muse_tensor::init::SeededRng;
use muse_tensor::simd::{self, Level};
use muse_tensor::Tensor;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 7];
const LEVEL_SWEEP: [Level; 2] = [Level::Scalar, Level::Avx2Fma];

fn rand_tensor(seed: u64, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let mut rng = SeededRng::new(seed);
    Tensor::rand_uniform(&mut rng, dims, lo, hi)
}

/// Assert exact bit equality, with a useful message on first divergence.
fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str, cfg: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape drift at {cfg}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: bit mismatch at element {i} with {cfg}: {g} vs {w}");
    }
}

/// Pool sizes for the conv kernels, which split the batch into one run of
/// contiguous samples per thread: with batches of 1, 3, 5 and 8 these give
/// uneven runs and pools larger than the batch.
const CONV_THREAD_SWEEP: [usize; 5] = [1, 2, 3, 4, 7];
const CONV_BATCHES: [usize; 4] = [1, 3, 5, 8];

/// Run `f` on every (SIMD level × pool size) combination and demand
/// bit-identical outputs against the scalar single-threaded reference.
fn sweep(what: &str, f: impl Fn() -> Tensor) {
    sweep_pools(&THREAD_SWEEP, what, f);
}

/// [`sweep`] over the given pool sizes.
fn sweep_pools(pools: &[usize], what: &str, f: impl Fn() -> Tensor) {
    let want = simd::with_level(Level::Scalar, || with_threads(1, &f));
    for level in LEVEL_SWEEP {
        for &t in pools {
            let got = simd::with_level(level, || with_threads(t, &f));
            let cfg = format!("{} threads / {}", t, level.name());
            assert_bits_eq(&got, &want, what, &cfg);
        }
    }
}

#[test]
fn matmul_family_is_thread_invariant() {
    for seed in [3u64, 17, 91] {
        // 48*96*64 multiply-adds — far past the parallel dispatch threshold,
        // with row counts that don't divide evenly by 4 or 7.
        let a = rand_tensor(seed, &[48, 96], -1.0, 1.0);
        let b = rand_tensor(seed + 1, &[96, 64], -1.0, 1.0);
        sweep("matmul", || a.matmul(&b));
        let bt = rand_tensor(seed + 2, &[64, 96], -1.0, 1.0);
        sweep("matmul_bt", || a.matmul_bt(&bt));
        let at = rand_tensor(seed + 3, &[96, 48], -1.0, 1.0);
        sweep("matmul_at", || at.matmul_at(&b));
    }
}

#[test]
fn matmul_tail_lanes_are_simd_invariant() {
    // Output widths that leave 8-wide vector tails of every residue class
    // (n mod 8 ∈ 1..=7, and n < 8), inner dims that are not lane multiples,
    // and the quick profile's conv GEMM: n = 20 over k = 432 (two k-blocks).
    for (m, k, n) in [
        (9usize, 11usize, 17usize),
        (6, 7, 18),
        (7, 40, 19),
        (12, 432, 20),
        (5, 9, 3),
        (33, 23, 29),
        (10, 13, 22),
        (5, 100, 31),
    ] {
        let a = rand_tensor(201 + n as u64, &[m, k], -1.0, 1.0);
        let b = rand_tensor(203 + n as u64, &[k, n], -1.0, 1.0);
        sweep("matmul_tail", || a.matmul(&b));
        let bt = rand_tensor(205 + n as u64, &[n, k], -1.0, 1.0);
        sweep("matmul_bt_tail", || a.matmul_bt(&bt));
        let at = rand_tensor(207 + n as u64, &[k, m], -1.0, 1.0);
        sweep("matmul_at_tail", || at.matmul_at(&b));
    }
}

/// Sweep the conv forward, the three outputs of `conv2d_backward` and the
/// two of a parameter-only `conv2d_backward_from` for one geometry at every
/// batch size of [`CONV_BATCHES`].
fn sweep_conv(what: &str, spec: &Conv2dSpec, h: usize, w: usize, seed: u64) {
    let (ci, co) = (spec.in_channels, spec.out_channels);
    let (oh, ow) = spec.output_hw(h, w);
    for n in CONV_BATCHES {
        let seed = seed + 10 * n as u64;
        let x = rand_tensor(seed, &[n, ci, h, w], -1.0, 1.0);
        let wt = rand_tensor(seed + 1, &[co, ci, spec.kernel.0, spec.kernel.1], -1.0, 1.0);
        let b = rand_tensor(seed + 2, &[co], -0.5, 0.5);
        let go = rand_tensor(seed + 3, &[n, co, oh, ow], -1.0, 1.0);
        let what = format!("{what} n={n}");
        sweep_pools(&CONV_THREAD_SWEEP, &format!("{what} conv2d"), || conv2d(&x, &wt, Some(&b), spec));
        // The three gradients are separate accumulations; check each.
        for pick in 0..3 {
            sweep_pools(&CONV_THREAD_SWEEP, &format!("{what} conv2d_backward"), || {
                let (gx, gw, gb) = conv2d_backward(&x, &wt, &go, spec);
                [gx, gw, gb].into_iter().nth(pick).expect("three gradients")
            });
        }
        // A tape constant's backward: the forward's kept unfold, no input
        // gradient.
        let (_, unfold) = conv2d_unfold(&x, &wt, Some(&b), spec);
        for pick in 0..2 {
            sweep_pools(&CONV_THREAD_SWEEP, &format!("{what} conv2d_backward_from"), || {
                let (_, gw, gb) = conv2d_backward_from(&unfold, &x, &wt, &go, spec, false);
                [gw, gb].into_iter().nth(pick).expect("two gradients")
            });
        }
    }
}

#[test]
fn conv2d_forward_is_thread_invariant() {
    for seed in [5u64, 23] {
        let spec = Conv2dSpec::same(2, 6, 3);
        let x = rand_tensor(seed, &[5, 2, 8, 10], -1.0, 1.0);
        let w = rand_tensor(seed + 1, &[6, 2, 3, 3], -1.0, 1.0);
        let b = rand_tensor(seed + 2, &[6], -0.5, 0.5);
        sweep_pools(&CONV_THREAD_SWEEP, "conv2d", || conv2d(&x, &w, Some(&b), &spec));
    }
}

#[test]
fn conv2d_backward_is_thread_invariant() {
    for seed in [7u64, 29] {
        sweep_conv("8x10", &Conv2dSpec::same(2, 6, 3), 8, 10, seed);
    }
    let strided =
        Conv2dSpec { in_channels: 3, out_channels: 4, kernel: (3, 2), stride: (2, 1), padding: (1, 0) };
    sweep_conv("3x2 stride (2,1)", &strided, 7, 5, 31);
}

#[test]
fn conv2d_odd_shapes_are_simd_invariant() {
    // Channel counts and widths chosen to never be multiples of the 8-wide
    // AVX2 vector: every unfold row and channel vector ends in a partial
    // lane, so the tail handling of the vector kernels is on the critical
    // path. The last shape is the model's own: a 4×5 grid taking 48
    // channels to 16.
    for (ci, co, h, w) in [(1usize, 3usize, 5usize, 7usize), (3, 5, 5, 9), (5, 1, 5, 13), (48, 16, 4, 5)] {
        sweep_conv(&format!("{ci}->{co} {h}x{w}"), &Conv2dSpec::same(ci, co, 3), h, w, 101 + w as u64);
    }
}

#[test]
fn elementwise_ops_are_thread_invariant() {
    // Past the elementwise parallel threshold (1 << 15 elements).
    let n = (1 << 15) + 117;
    let a = rand_tensor(41, &[n], -2.0, 2.0);
    let b = rand_tensor(43, &[n], -2.0, 2.0);
    sweep("add", || a.add(&b));
    sweep("mul", || a.mul(&b));
    sweep("tanh", || a.tanh());
    sweep("sigmoid", || a.sigmoid());
    sweep("add_assign", || {
        let mut c = a.clone();
        c.add_assign(&b);
        c
    });
    sweep("scale_assign", || {
        let mut c = a.clone();
        c.scale_assign(0.37);
        c
    });
}

#[test]
fn reductions_are_thread_invariant() {
    let n = 3 * (1 << 15) + 1031; // several reduce chunks plus a ragged tail
    let a = rand_tensor(53, &[n], -1.0, 1.0);
    sweep("sum", || Tensor::scalar(a.sum()));
    sweep("norm", || Tensor::scalar(a.norm()));
    sweep("variance", || Tensor::scalar(a.variance()));
    let m = rand_tensor(59, &[129, 7, 41], -1.0, 1.0);
    sweep("sum_axis0", || m.sum_axis(0));
    sweep("sum_axis1", || m.sum_axis(1));
    sweep("sum_axis2", || m.sum_axis(2));
    sweep("softmax_last", || m.softmax_last());
}

#[test]
fn parallel_matches_plain_sequential_reference() {
    // The single-threaded pool is not a special case: the parallel kernels
    // at 7 threads must match the plain reference implementation too (up to
    // f32 tolerance — the tiled kernel shares its accumulation order with
    // the reference, but `matmul_reference` works elementwise).
    let a = rand_tensor(71, &[37, 53], -1.0, 1.0);
    let b = rand_tensor(73, &[53, 29], -1.0, 1.0);
    let want = muse_tensor::linalg::matmul_reference(&a, &b);
    let got = with_threads(7, || a.matmul(&b));
    assert!(got.approx_eq(&want, 1e-4), "max diff {}", got.max_abs_diff(&want));
}
