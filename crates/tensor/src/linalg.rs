//! Matrix multiplication kernels.
//!
//! The public `matmul` family partitions the output matrix into disjoint
//! row ranges and hands each range to `muse-parallel`; every row range is
//! computed by a cache-blocked micro-kernel ([`gemm_rows`],
//! [`gemm_bt_rows`], [`gemm_at_rows`]). The micro-kernels process output
//! rows in register tiles of four (one read of each B row feeds four
//! output rows) and block the shared `k` dimension so the streamed operand
//! stays in cache. `matmul_bt` transposes B once and runs the `A·Bᵀ` tile
//! over it.
//!
//! **Determinism:** the association of every output element is fixed by
//! the data shape alone, never by row tiling, thread partitioning or SIMD
//! level, so results are bit-identical for any `MUSE_THREADS` value and
//! with `MUSE_SIMD` on or off. `A·B` and `Aᵀ·B` accumulate left to right
//! over ascending `p` (the shared dimension) from +0.0. `A·Bᵀ` reproduces
//! the lane association of [`simd::dot`] (lane `l` sums the terms
//! `p ≡ l (mod LANES)`, the lanes are then summed in order), which for
//! `k ≤ LANES` is the same left-to-right sum. There is no `x == 0.0` skip
//! anywhere: IEEE edge cases (`0.0 * INF` is `NaN`) propagate exactly as
//! in [`matmul_reference`].

use crate::simd;
use crate::tensor::Tensor;
use muse_obs as obs;

/// Bytes moved by a kernel touching `elems` f32 values.
fn f32_bytes(elems: usize) -> u64 {
    (elems * std::mem::size_of::<f32>()) as u64
}

/// Output rows per register tile: four accumulator rows share one read of
/// each B row.
const MR: usize = 4;

/// Cache block along the shared `k` dimension. Per block a tile touches
/// `KC * n` floats of B (`256 * n ≤ L2` for every shape in this project)
/// while the four output rows stay resident.
const KC: usize = 256;

/// Multiply–add count below which dispatching to the pool costs more than
/// the kernel itself; such products always run inline.
const PAR_MIN_FLOPS: usize = 1 << 15;

/// Compute output rows `[i0, i0 + out.len()/n)` of `C = A·B` into `out`,
/// which must be zeroed. `a` is `[m,k]` row-major, `b` is `[k,n]`.
///
/// Accumulation order over `p` is ascending within each [`KC`] block and
/// blocks are visited in order, so every element sees the same
/// left-to-right sum regardless of row tiling or SIMD level (the tile
/// kernels in [`crate::simd`] keep per-element accumulation sequential).
pub fn gemm_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        let mut r = 0;
        // Four-row register tile: one pass over B rows feeds four output rows.
        while r + MR <= rows {
            let (block, _) = out[r * n..].split_at_mut(MR * n);
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let a0 = &a[(i0 + r) * k..][..k];
            let a1 = &a[(i0 + r + 1) * k..][..k];
            let a2 = &a[(i0 + r + 2) * k..][..k];
            let a3 = &a[(i0 + r + 3) * k..][..k];
            simd::gemm_tile4([a0, a1, a2, a3], p0, p1, b, n, [o0, o1, o2, o3]);
            r += MR;
        }
        // Remainder rows run the same update one row at a time; per element
        // the accumulation order is identical to the tiled path.
        for rr in r..rows {
            let orow = &mut out[rr * n..(rr + 1) * n];
            let arow = &a[(i0 + rr) * k..][..k];
            simd::gemm_tile1(arow, p0, p1, b, n, orow);
        }
    }
}

/// Compute output rows `[i0, i0 + out.len()/n)` of `C = A·Bᵀ` into `out`,
/// assigning every element. `a` is `[m,k]` row-major and `bt` is `Bᵀ`, a
/// `[k,n]` row-major matrix (so C's column `j` dots A rows with B row `j`).
/// Every element equals [`simd::dot`] of its A row and B row bit for bit,
/// for every `k` (the tile kernel `simd::gemm_bt_tile` gives the argument).
pub fn gemm_bt_rows(a: &[f32], bt: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    let arow = |r: usize| &a[(i0 + r) * k..][..k];
    let mut r = 0;
    while r + MR <= rows {
        let (block, _) = out[r * n..].split_at_mut(MR * n);
        let (o0, rest) = block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        simd::gemm_bt_tile([arow(r), arow(r + 1), arow(r + 2), arow(r + 3)], k, bt, n, [o0, o1, o2, o3]);
        r += MR;
    }
    for rr in r..rows {
        simd::gemm_bt_tile([arow(rr)], k, bt, n, [&mut out[rr * n..(rr + 1) * n]]);
    }
}

/// Compute output rows `[i0, i0 + out.len()/n)` of `C = Aᵀ·B` into `out`,
/// which must be zeroed. `a` is `[k,m]` row-major (so C row `i` gathers
/// A column `i`), `b` is `[k,n]`. Same four-row tile as [`gemm_rows`],
/// reading A column-wise.
pub fn gemm_at_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, m: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        let mut r = 0;
        while r + MR <= rows {
            let (block, _) = out[r * n..].split_at_mut(MR * n);
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            simd::gemm_tile4_at(a, m, i0 + r, p0, p1, b, n, [o0, o1, o2, o3]);
            r += MR;
        }
        for rr in r..rows {
            let orow = &mut out[rr * n..(rr + 1) * n];
            simd::gemm_tile1_at(a, m, i0 + rr, p0, p1, b, n, orow);
        }
    }
}

/// Partition `out` (an `[m,n]` matrix) into row ranges across the pool and
/// run `f(first_row, row_chunk)` on each; inline when the product is small.
fn dispatch_rows<F>(out: &mut [f32], n: usize, flops: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if flops < PAR_MIN_FLOPS {
        f(0, out);
    } else {
        muse_parallel::parallel_for_rows(out, n, MR, f);
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2, got {}", self.shape());
        assert_eq!(rhs.rank(), 2, "matmul rhs must be rank-2, got {}", rhs.shape());
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul inner-dim mismatch: [{m},{k}] x [{k2},{n}]");
        let _t = obs::kernel_timer("tensor.matmul", f32_bytes(m * k + k * n + m * n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        let mut out = crate::arena::take_zeroed(m * n); // gemm_rows accumulates into zeroes
        dispatch_rows(&mut out, n, m * k * n, |i0, chunk| gemm_rows(a, b, chunk, i0, k, n));
        Tensor::from_vec(out, &[m, n])
    }

    /// `self x rhs^T` without materializing the transpose: `[m,k] x [n,k]^T -> [m,n]`.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_bt lhs must be rank-2");
        assert_eq!(rhs.rank(), 2, "matmul_bt rhs must be rank-2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_bt inner-dim mismatch: [{m},{k}] x [{n},{k2}]^T");
        let _t = obs::kernel_timer("tensor.matmul_bt", f32_bytes(m * k + k * n + m * n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        let mut bt = crate::arena::take_uninit(k * n); // every element assigned below
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut out = crate::arena::take_uninit(m * n); // gemm_bt_rows assigns every element
        dispatch_rows(&mut out, n, m * k * n, |i0, chunk| gemm_bt_rows(a, &bt, chunk, i0, k, n));
        crate::arena::recycle(bt);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self^T x rhs` without materializing the transpose: `[k,m]^T x [k,n] -> [m,n]`.
    pub fn matmul_at(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_at lhs must be rank-2");
        assert_eq!(rhs.rank(), 2, "matmul_at rhs must be rank-2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_at inner-dim mismatch: [{k},{m}]^T x [{k2},{n}]");
        let _t = obs::kernel_timer("tensor.matmul_at", f32_bytes(m * k + k * n + m * n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        let mut out = crate::arena::take_zeroed(m * n); // gemm_at_rows accumulates into zeroes
        dispatch_rows(&mut out, n, m * k * n, |i0, chunk| gemm_at_rows(a, b, chunk, i0, k, m, n));
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix-vector product `[m,k] x [k] -> [m]`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank-2");
        assert_eq!(v.rank(), 1, "matvec rhs must be rank-1");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        assert_eq!(k, v.len(), "matvec inner-dim mismatch");
        let _t = obs::kernel_timer("tensor.matvec", f32_bytes(m * k + k + m));
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = crate::arena::take_uninit(m); // every element assigned below
        if k < simd::LANES {
            // Shorter than the canonical reduction's lane count: a plain
            // sequential fold (shared by both dispatch paths) beats a dot
            // that runs entirely in its tail.
            for i in 0..m {
                let row = &a[i * k..(i + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &xv) in row.iter().zip(x) {
                    acc += av * xv;
                }
                out[i] = acc;
            }
        } else {
            for i in 0..m {
                out[i] = simd::dot(&a[i * k..(i + 1) * k], x);
            }
        }
        Tensor::from_vec(out, &[m])
    }
}

/// Naive reference matmul used by tests to validate the optimized kernel.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.at(&[i, p]) * b.at(&[p, j]);
            }
            *out.at_mut(&[i, j]) = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(0.0, 12.0).reshape(&[3, 4]);
        assert!(Tensor::eye(3).matmul(&a).approx_eq(&a, 1e-6));
        assert!(a.matmul(&Tensor::eye(4)).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_reference() {
        let a = Tensor::from_vec((0..15).map(|i| (i as f32 * 0.7).sin()).collect(), &[3, 5]);
        let b = Tensor::from_vec((0..20).map(|i| (i as f32 * 0.3).cos()).collect(), &[5, 4]);
        assert!(a.matmul(&b).approx_eq(&matmul_reference(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_matches_reference_above_parallel_threshold() {
        // Big enough that dispatch_rows actually fans out (and the row
        // count is not a multiple of the register tile).
        let (m, k, n) = (37, 41, 43);
        let a = Tensor::from_vec((0..m * k).map(|i| (i as f32 * 0.11).sin()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|i| (i as f32 * 0.07).cos()).collect(), &[k, n]);
        assert!(a.matmul(&b).approx_eq(&matmul_reference(&a, &b), 1e-3));
    }

    #[test]
    fn transposed_variants_match() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32 * 0.25 - 1.0).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..20).map(|i| i as f32 * 0.1).collect(), &[4, 5]);
        let plain = a.matmul(&b);
        assert!(a.matmul_bt(&b.transpose2()).approx_eq(&plain, 1e-5));
        assert!(a.transpose2().matmul_at(&b).approx_eq(&plain, 1e-5));
    }

    #[test]
    fn transposed_variants_match_reference_non_square() {
        // Non-square shapes with every dimension distinct, sized past the
        // register tile in both rows and columns.
        let (m, k, n) = (7, 9, 11);
        let data_a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect();
        let data_b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.17).cos()).collect();
        let a = Tensor::from_vec(data_a, &[m, k]);
        let b = Tensor::from_vec(data_b, &[k, n]);
        let want = matmul_reference(&a, &b);
        assert!(a.matmul_bt(&b.transpose2()).approx_eq(&want, 1e-5));
        assert!(a.transpose2().matmul_at(&b).approx_eq(&want, 1e-5));
    }

    #[test]
    fn matmul_propagates_nan_and_inf() {
        // IEEE semantics: 0 * inf = NaN, and NaN poisons its row/column.
        // A zero-skip "optimization" would wrongly produce finite values.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 5.0, 6.0, 7.0], &[2, 2]);
        let c = a.matmul(&b);
        let want = matmul_reference(&a, &b);
        assert!(c.as_slice()[0].is_nan(), "0*inf + 1*6 must be NaN, got {}", c.as_slice()[0]);
        for (got, expect) in c.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(got.is_nan(), expect.is_nan());
            if !expect.is_nan() {
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn matmul_at_propagates_nan_and_inf() {
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 5.0, 6.0, 7.0], &[2, 2]);
        let got = a.transpose2().matmul_at(&b);
        let want = matmul_reference(&a, &b);
        for (g, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.is_nan(), e.is_nan());
            if !e.is_nan() {
                assert_eq!(g, e);
            }
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::arange(0.0, 6.0).reshape(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 0.5, 2.0], &[3]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshaped(&[3, 1]));
        assert_eq!(mv.as_slice(), mm.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner-dim mismatch")]
    fn matmul_bad_dims_panics() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }
}
