//! Runtime-dispatched SIMD micro-kernels: AVX2 (8-wide f32) with
//! bit-identical scalar twins.
//!
//! Every public kernel in this module exists in two implementations — a
//! portable scalar one and an `std::arch` AVX2 one — and the pair is
//! written so that **both produce the same bits for every input**. That is
//! the contract the rest of the crate builds on: flipping `MUSE_SIMD`, or
//! running on a machine without AVX2, changes throughput but never a single
//! output bit, just like `MUSE_THREADS` (see `crates/tensor/tests/
//! determinism.rs`, which sweeps both).
//!
//! ## How bit-identity is preserved
//!
//! * **Elementwise kernels** (`binary`, `axpy`, `scale`, …) apply one
//!   floating-point expression per element; vector lanes evaluate the same
//!   expression, so lane width is unobservable.
//! * **Accumulating kernels** (`gemm_tile4` & friends) vectorize along the
//!   *output* axis: each output element still receives its contributions in
//!   ascending-`p` order, exactly like the scalar loop. `gemm_bt_tile`
//!   (`A·Bᵀ`) also vectorizes along the output axis, but each element
//!   follows the lane association of [`dot`] below.
//! * **Reductions** (`sum`, `dot`, `sse`, `sum_squares`, `sum_sq_dev`) use a
//!   fixed [`LANES`]-wide accumulator layout: lane `l` sums elements
//!   `l, l+LANES, l+2·LANES, …`, the tail folds into lanes `0..r`, and the
//!   horizontal sum walks the lane array left to right. The scalar twin
//!   implements the identical association with a `[f32; LANES]` array, so
//!   the result depends only on the data — not on which unit computed it.
//! * **No fused multiply-add.** FMA rounds once where `mul`+`add` round
//!   twice, so `_mm256_fmadd_ps` would make the SIMD path drift from the
//!   scalar one. The dispatch gate still requires the FMA CPU flag (the
//!   level is reported as `avx2+fma`) purely to target modern cores; the
//!   kernels themselves stick to separately-rounded `mul`/`add`.
//!
//! ## Dispatch
//!
//! [`detected_level`] is computed once per process: `MUSE_SIMD=0` (or
//! `off`/`false`) forces [`Level::Scalar`]; otherwise the CPU is probed for
//! AVX2+FMA. The result is exported as the `simd.level` gauge
//! (`muse_simd_level` in Prometheus exposition). Tests flip paths
//! in-process with [`with_level`], which can lower but never exceed the
//! detected capability.

use muse_obs as obs;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set level a kernel call can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar implementations (the fallback everywhere).
    Scalar,
    /// 8-wide f32 AVX2 kernels, gated on the `avx2` **and** `fma` CPU
    /// flags. (The kernels use separate mul/add — see the module docs.)
    Avx2Fma,
}

impl Level {
    /// Stable human-readable name, as reported in run manifests, `/stats`
    /// and the `muse_simd_level` gauge docs: `"scalar"` or `"avx2+fma"`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2Fma => "avx2+fma",
        }
    }
}

static DETECTED: OnceLock<Level> = OnceLock::new();

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_BEST: u8 = 2;

/// Process-wide test override (not thread-local: kernels run on pool
/// worker threads, which must observe the override too). Safe because both
/// paths are bit-identical — concurrent tests can only change *which* unit
/// computes, never what it computes.
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

fn env_disabled() -> bool {
    match std::env::var("MUSE_SIMD") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            v == "0" || v == "off" || v == "false"
        }
        Err(_) => false,
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_level() -> Level {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Level::Avx2Fma
    } else {
        Level::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_level() -> Level {
    Level::Scalar
}

/// The level this process dispatches to by default: CPU capability masked
/// by the `MUSE_SIMD` environment knob (read once, at first call).
/// First call publishes the `simd.level` gauge (1 = `avx2+fma`,
/// 0 = `scalar`).
pub fn detected_level() -> Level {
    *DETECTED.get_or_init(|| {
        let lvl = if env_disabled() { Level::Scalar } else { cpu_level() };
        obs::gauge("simd.level").set(match lvl {
            Level::Avx2Fma => 1.0,
            Level::Scalar => 0.0,
        });
        lvl
    })
}

/// Name of the detected level — `"avx2+fma"` or `"scalar"`.
pub fn level_name() -> &'static str {
    detected_level().name()
}

/// The level kernel calls dispatch to right now: a [`with_level`] override
/// if one is active, else [`detected_level`]. An override can only lower
/// the level; requesting [`Level::Avx2Fma`] on a scalar-only process stays
/// scalar.
#[inline]
pub fn active_level() -> Level {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_SCALAR => Level::Scalar,
        _ => detected_level(),
    }
}

/// Run `f` with kernel dispatch forced to `level` (clamped to the detected
/// capability), restoring the previous override on exit — including on
/// panic. Used by the determinism sweeps to compare SIMD-on and SIMD-off
/// outputs inside one process.
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let code = match level {
        Level::Scalar => OVERRIDE_SCALAR,
        Level::Avx2Fma => OVERRIDE_BEST,
    };
    let _restore = Restore(OVERRIDE.swap(code, Ordering::Relaxed));
    f()
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn use_avx2() -> bool {
    matches!(active_level(), Level::Avx2Fma)
}

/// Accumulator lanes of the canonical reduction layout. 32 = four AVX2
/// vectors, enough independent chains to hide `vaddps` latency; the scalar
/// twin uses a `[f32; 32]` array with the same per-lane association.
pub const LANES: usize = 32;

/// Sequential left-to-right fold of the lane array — the one horizontal-sum
/// order both implementations share.
#[inline]
fn hsum(lanes: &[f32; LANES]) -> f32 {
    lanes.iter().copied().fold(0.0, |a, b| a + b)
}

// --------------------------------------------------------------- reductions

macro_rules! lane_reduce_scalar {
    ($s:expr, $($tail:tt)*) => {{
        let map = $($tail)*;
        let mut lanes = [0.0f32; LANES];
        let mut it = $s.chunks_exact(LANES);
        for c in &mut it {
            for (l, i) in lanes.iter_mut().zip(0..LANES) {
                *l += map(c, i);
            }
        }
        let rem = it.remainder();
        for (l, i) in lanes.iter_mut().zip(0..rem.len()) {
            *l += map(rem, i);
        }
        hsum(&lanes)
    }};
}

fn sum_scalar(s: &[f32]) -> f32 {
    lane_reduce_scalar!(s, |c: &[f32], i: usize| c[i])
}

fn sum_squares_scalar(s: &[f32]) -> f32 {
    lane_reduce_scalar!(s, |c: &[f32], i: usize| c[i] * c[i])
}

fn sum_sq_dev_scalar(s: &[f32], m: f32) -> f32 {
    lane_reduce_scalar!(s, |c: &[f32], i: usize| (c[i] - m) * (c[i] - m))
}

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ia = a.chunks_exact(LANES);
    let mut ib = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    for ((l, &x), &y) in lanes.iter_mut().zip(ia.remainder()).zip(ib.remainder()) {
        *l += x * y;
    }
    hsum(&lanes)
}

fn sse_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ia = a.chunks_exact(LANES);
    let mut ib = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += (x - y) * (x - y);
        }
    }
    for ((l, &x), &y) in lanes.iter_mut().zip(ia.remainder()).zip(ib.remainder()) {
        *l += (x - y) * (x - y);
    }
    hsum(&lanes)
}

/// Sum of all elements with the canonical lane association (see module
/// docs). **Not** the plain sequential sum: callers switching to this
/// kernel change their result bits once, but the result is then stable
/// across SIMD levels and thread counts.
pub fn sum(s: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::sum(s) };
    }
    sum_scalar(s)
}

/// `Σ s[i]²` with the canonical lane association.
pub fn sum_squares(s: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::sum_squares(s) };
    }
    sum_squares_scalar(s)
}

/// `Σ (s[i] − m)²` with the canonical lane association.
pub fn sum_sq_dev(s: &[f32], m: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::sum_sq_dev(s, m) };
    }
    sum_sq_dev_scalar(s, m)
}

/// Dot product with the canonical lane association. Slices must have equal
/// length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "simd::dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// `Σ (a[i] − b[i])²` with the canonical lane association. Slices must have
/// equal length.
pub fn sse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "simd::sse length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::sse(a, b) };
    }
    sse_scalar(a, b)
}

// -------------------------------------------------------------- elementwise

/// Binary elementwise operation selector for [`binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `x + y`
    Add,
    /// `x - y`
    Sub,
    /// `x * y`
    Mul,
    /// `x / y`
    Div,
}

impl BinOp {
    /// The scalar expression both implementations evaluate per element.
    #[inline]
    pub fn apply(self, x: f32, y: f32) -> f32 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }
}

fn binary_scalar(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    macro_rules! lp {
        ($e:expr) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = $e(x, y);
            }
        };
    }
    match op {
        BinOp::Add => lp!(|x, y| x + y),
        BinOp::Sub => lp!(|x, y| x - y),
        BinOp::Mul => lp!(|x, y| x * y),
        BinOp::Div => lp!(|x, y| x / y),
    }
}

/// `out[i] = op(a[i], b[i])`. All slices must have the same length.
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), out.len(), "simd::binary length mismatch");
    assert_eq!(b.len(), out.len(), "simd::binary length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::binary(op, a, b, out) };
    }
    binary_scalar(op, a, b, out)
}

fn axpy_scalar(dst: &mut [f32], s: f32, src: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += s * x;
    }
}

/// `dst[i] += s * src[i]` (the optimizer/gradient-fold primitive).
pub fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "simd::axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::axpy(dst, s, src) };
    }
    axpy_scalar(dst, s, src)
}

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += x;
    }
}

/// `dst[i] += src[i]` (col2im interiors, sample-ordered gradient folds).
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "simd::add_assign length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::add_assign(dst, src) };
    }
    add_assign_scalar(dst, src)
}

fn scale_scalar(dst: &mut [f32], s: f32) {
    for d in dst {
        *d *= s;
    }
}

/// `dst[i] *= s`.
pub fn scale(dst: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::scale(dst, s) };
    }
    scale_scalar(dst, s)
}

fn add_scalar_assign_scalar(dst: &mut [f32], s: f32) {
    for d in dst {
        *d += s;
    }
}

/// `dst[i] += s` (conv2d bias rows).
pub fn add_scalar_assign(dst: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::add_scalar_assign(dst, s) };
    }
    add_scalar_assign_scalar(dst, s)
}

// --------------------------------------------------------- GEMM micro-tiles

fn gemm_tile4_scalar(a: [&[f32]; 4], p0: usize, p1: usize, b: &[f32], n: usize, o: [&mut [f32]; 4]) {
    let [a0, a1, a2, a3] = a;
    let [o0, o1, o2, o3] = o;
    for p in p0..p1 {
        let brow = &b[p * n..][..n];
        let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
        for ((((x0, x1), x2), x3), &bv) in
            o0.iter_mut().zip(o1.iter_mut()).zip(o2.iter_mut()).zip(o3.iter_mut()).zip(brow)
        {
            *x0 += v0 * bv;
            *x1 += v1 * bv;
            *x2 += v2 * bv;
            *x3 += v3 * bv;
        }
    }
}

/// One `k`-block update of a four-row register tile:
/// `o[r][j] += a[r][p] · b[p·n + j]` for `p` ascending over `p0..p1`.
/// Each output element accumulates in ascending-`p` order on both paths, so
/// the tile is bit-identical to four independent scalar row updates.
pub fn gemm_tile4(a: [&[f32]; 4], p0: usize, p1: usize, b: &[f32], n: usize, o: [&mut [f32]; 4]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::gemm_tile4(a, p0, p1, b, n, o) };
    }
    gemm_tile4_scalar(a, p0, p1, b, n, o)
}

fn gemm_tile1_scalar(arow: &[f32], p0: usize, p1: usize, b: &[f32], n: usize, orow: &mut [f32]) {
    for p in p0..p1 {
        let v = arow[p];
        let brow = &b[p * n..][..n];
        for (x, &bv) in orow.iter_mut().zip(brow) {
            *x += v * bv;
        }
    }
}

/// Single-row variant of [`gemm_tile4`] for remainder rows.
pub fn gemm_tile1(arow: &[f32], p0: usize, p1: usize, b: &[f32], n: usize, orow: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::gemm_tile1(arow, p0, p1, b, n, orow) };
    }
    gemm_tile1_scalar(arow, p0, p1, b, n, orow)
}

#[allow(clippy::too_many_arguments)]
fn gemm_tile4_at_scalar(
    a: &[f32],
    astride: usize,
    base: usize,
    p0: usize,
    p1: usize,
    b: &[f32],
    n: usize,
    o: [&mut [f32]; 4],
) {
    let [o0, o1, o2, o3] = o;
    for p in p0..p1 {
        let acol = &a[p * astride + base..][..4];
        let brow = &b[p * n..][..n];
        let (v0, v1, v2, v3) = (acol[0], acol[1], acol[2], acol[3]);
        for ((((x0, x1), x2), x3), &bv) in
            o0.iter_mut().zip(o1.iter_mut()).zip(o2.iter_mut()).zip(o3.iter_mut()).zip(brow)
        {
            *x0 += v0 * bv;
            *x1 += v1 * bv;
            *x2 += v2 * bv;
            *x3 += v3 * bv;
        }
    }
}

/// [`gemm_tile4`] with the A operand read column-wise (`Aᵀ·B` kernels):
/// row `r`'s multiplier at step `p` is `a[p·astride + base + r]`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile4_at(
    a: &[f32],
    astride: usize,
    base: usize,
    p0: usize,
    p1: usize,
    b: &[f32],
    n: usize,
    o: [&mut [f32]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::gemm_tile4_at(a, astride, base, p0, p1, b, n, o) };
    }
    gemm_tile4_at_scalar(a, astride, base, p0, p1, b, n, o)
}

#[allow(clippy::too_many_arguments)]
fn gemm_tile1_at_scalar(
    a: &[f32],
    astride: usize,
    base: usize,
    p0: usize,
    p1: usize,
    b: &[f32],
    n: usize,
    orow: &mut [f32],
) {
    for p in p0..p1 {
        let v = a[p * astride + base];
        let brow = &b[p * n..][..n];
        for (x, &bv) in orow.iter_mut().zip(brow) {
            *x += v * bv;
        }
    }
}

/// Single-row variant of [`gemm_tile4_at`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile1_at(
    a: &[f32],
    astride: usize,
    base: usize,
    p0: usize,
    p1: usize,
    b: &[f32],
    n: usize,
    orow: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::gemm_tile1_at(a, astride, base, p0, p1, b, n, orow) };
    }
    gemm_tile1_at_scalar(a, astride, base, p0, p1, b, n, orow)
}

/// Column block of the scalar `A·Bᵀ` twin.
const BT_COLS: usize = 16;

/// Columns `j0..j0 + out.len()` of one `A·Bᵀ` row (see [`gemm_bt_tile`]).
/// Blocks of [`BT_COLS`] columns keep the lane partials in a stack array.
fn gemm_bt_cols_scalar(arow: &[f32], k: usize, b: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    for (jb, oblk) in (j0..).step_by(BT_COLS).zip(out.chunks_mut(BT_COLS)) {
        let w = oblk.len();
        oblk.fill(0.0);
        let mut part = [0.0f32; BT_COLS];
        for l in 0..k.min(LANES) {
            let (v, brow) = (arow[l], &b[l * n + jb..][..w]);
            for (c, &bv) in part.iter_mut().zip(brow) {
                *c = v * bv;
            }
            for p in (l + LANES..k).step_by(LANES) {
                let (v, brow) = (arow[p], &b[p * n + jb..][..w]);
                for (c, &bv) in part.iter_mut().zip(brow) {
                    *c += v * bv;
                }
            }
            for (o, &c) in oblk.iter_mut().zip(&part) {
                *o += c;
            }
        }
    }
}

/// An `R`-row tile of `C = A·Bᵀ`, assigning every `o[r][j]`. `b` holds
/// `Bᵀ` as a `[k, n]` row-major matrix, so `o[r][j]` is the dot of A row
/// `r` with column `j` of `b`, and it equals [`dot`] of those two vectors
/// bit for bit, for every `k`.
///
/// `dot` gives lane `l` the terms `p ≡ l (mod LANES)` summed from +0.0 and
/// then adds the lanes left to right into a +0.0 start. Here lane `l`'s
/// partial starts at its first product instead of `0.0 + product`; the
/// two differ at most in the sign of a zero partial, and adding either
/// zero to the running total gives the same bits, because a total that
/// starts at +0.0 is never -0.0. Lanes past `k` are +0.0 in `dot` and are
/// skipped here. A lane with one term (every lane when `k ≤ LANES`) costs
/// one multiply and one add, like a plain `A·B` update.
///
/// Panics unless every A row holds at least `k` values, every output row
/// exactly `n`, and `b` at least `k · n`.
pub(crate) fn gemm_bt_tile<const R: usize>(
    a: [&[f32]; R],
    k: usize,
    b: &[f32],
    n: usize,
    o: [&mut [f32]; R],
) {
    assert!(b.len() >= k * n, "gemm_bt_tile: b holds {} values, needs {k} x {n}", b.len());
    for (arow, orow) in a.iter().zip(&o) {
        assert!(
            arow.len() >= k && orow.len() == n,
            "gemm_bt_tile: row shorter than k = {k} or output row not n = {n}"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: `use_avx2` confirmed the CPU features, and the asserts
        // above are the bounds the kernel's unchecked reads and writes need.
        return unsafe { avx2::gemm_bt_tile(a, k, b, n, o) };
    }
    for (arow, orow) in a.into_iter().zip(o) {
        gemm_bt_cols_scalar(arow, k, b, n, 0, orow);
    }
}

// --------------------------------------------------- fused bias+activation

/// Activation selector for the fused bias+activation kernels. Only the
/// variants whose forward/backward are single blend/multiply expressions
/// are here; transcendental activations stay on the scalar path in
/// `muse-autograd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Pass-through: the kernel is just the broadcast bias add.
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x > 0`, `slope·x` otherwise (`slope > 0`).
    LeakyRelu(f32),
}

fn bias_act_forward_scalar(out: &mut [f32], h: &[f32], b: &[f32], act: Activation) {
    let cols = b.len();
    macro_rules! rows {
        ($e:expr) => {
            for (orow, hrow) in out.chunks_mut(cols).zip(h.chunks(cols)) {
                for ((o, &hv), &bv) in orow.iter_mut().zip(hrow).zip(b) {
                    *o = $e(hv + bv);
                }
            }
        };
    }
    match act {
        Activation::Identity => rows!(|x: f32| x),
        Activation::Relu => rows!(|x: f32| x.max(0.0)),
        Activation::LeakyRelu(s) => rows!(|x: f32| if x > 0.0 { x } else { s * x }),
    }
}

/// Fused `out = act(h + b)` over a `[rows, cols]` matrix `h` with a
/// `[cols]` bias `b` (`out.len() == h.len()`, `cols == b.len()`). The
/// per-element expressions match `muse-autograd`'s unfused activation maps.
pub fn bias_act_forward(out: &mut [f32], h: &[f32], b: &[f32], act: Activation) {
    assert_eq!(out.len(), h.len(), "bias_act_forward length mismatch");
    if b.is_empty() {
        return;
    }
    assert_eq!(h.len() % b.len(), 0, "bias_act_forward: rows not integral");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::bias_act_forward(out, h, b, act) };
    }
    bias_act_forward_scalar(out, h, b, act)
}

fn bias_act_backward_scalar(gh: &mut [f32], gb: &mut [f32], g: &[f32], y: &[f32], act: Activation) {
    let cols = gb.len();
    macro_rules! rows {
        ($e:expr) => {
            for (ghrow, (grow, yrow)) in gh.chunks_mut(cols).zip(g.chunks(cols).zip(y.chunks(cols))) {
                for (((d, acc), &gv), &yv) in ghrow.iter_mut().zip(gb.iter_mut()).zip(grow).zip(yrow) {
                    let v = $e(gv, yv);
                    *d = v;
                    *acc += v;
                }
            }
        };
    }
    match act {
        Activation::Identity => rows!(|g: f32, _y: f32| g),
        Activation::Relu => rows!(|g: f32, y: f32| g * if y > 0.0 { 1.0 } else { 0.0 }),
        Activation::LeakyRelu(s) => rows!(|g: f32, y: f32| g * if y > 0.0 { 1.0 } else { s }),
    }
}

/// Fused backward of [`bias_act_forward`]: writes the input gradient
/// `gh[i] = g[i] · act'(y[i])` and accumulates the bias gradient column
/// sums into `gb` (which the caller zeroes) over ascending rows — the same
/// association as a `sum_to(&[cols])` fold.
pub fn bias_act_backward(gh: &mut [f32], gb: &mut [f32], g: &[f32], y: &[f32], act: Activation) {
    assert_eq!(gh.len(), g.len(), "bias_act_backward length mismatch");
    assert_eq!(gh.len(), y.len(), "bias_act_backward length mismatch");
    if gb.is_empty() {
        return;
    }
    assert_eq!(gh.len() % gb.len(), 0, "bias_act_backward: rows not integral");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::bias_act_backward(gh, gb, g, y, act) };
    }
    bias_act_backward_scalar(gh, gb, g, y, act)
}

// ------------------------------------------------------------- AVX2 kernels

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The `std::arch` implementations. Each function mirrors its scalar
    //! twin's per-element operation sequence exactly; see the module docs
    //! for the argument. All are `#[target_feature(enable = "avx2,fma")]`
    //! and only called behind the runtime feature check in the dispatchers.

    use super::{hsum, Activation, BinOp, LANES};
    use std::arch::x86_64::*;

    /// Width of one AVX2 f32 vector.
    const W: usize = 8;

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum(s: &[f32]) -> f32 {
        let p = s.as_ptr();
        let blocks = s.len() / LANES;
        let (mut a0, mut a1, mut a2, mut a3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        for t in 0..blocks {
            let q = p.add(t * LANES);
            a0 = _mm256_add_ps(a0, _mm256_loadu_ps(q));
            a1 = _mm256_add_ps(a1, _mm256_loadu_ps(q.add(W)));
            a2 = _mm256_add_ps(a2, _mm256_loadu_ps(q.add(2 * W)));
            a3 = _mm256_add_ps(a3, _mm256_loadu_ps(q.add(3 * W)));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a0);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(W), a1);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(2 * W), a2);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(3 * W), a3);
        for (l, &x) in lanes.iter_mut().zip(&s[blocks * LANES..]) {
            *l += x;
        }
        hsum(&lanes)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum_squares(s: &[f32]) -> f32 {
        let p = s.as_ptr();
        let blocks = s.len() / LANES;
        let (mut a0, mut a1, mut a2, mut a3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        for t in 0..blocks {
            let q = p.add(t * LANES);
            let (x0, x1, x2, x3) = (
                _mm256_loadu_ps(q),
                _mm256_loadu_ps(q.add(W)),
                _mm256_loadu_ps(q.add(2 * W)),
                _mm256_loadu_ps(q.add(3 * W)),
            );
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(x0, x0));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(x1, x1));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(x2, x2));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(x3, x3));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a0);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(W), a1);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(2 * W), a2);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(3 * W), a3);
        for (l, &x) in lanes.iter_mut().zip(&s[blocks * LANES..]) {
            *l += x * x;
        }
        hsum(&lanes)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sum_sq_dev(s: &[f32], m: f32) -> f32 {
        let p = s.as_ptr();
        let mv = _mm256_set1_ps(m);
        let blocks = s.len() / LANES;
        let (mut a0, mut a1, mut a2, mut a3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        for t in 0..blocks {
            let q = p.add(t * LANES);
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(q), mv);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(q.add(W)), mv);
            let d2 = _mm256_sub_ps(_mm256_loadu_ps(q.add(2 * W)), mv);
            let d3 = _mm256_sub_ps(_mm256_loadu_ps(q.add(3 * W)), mv);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(d0, d0));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(d1, d1));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(d2, d2));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(d3, d3));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a0);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(W), a1);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(2 * W), a2);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(3 * W), a3);
        for (l, &x) in lanes.iter_mut().zip(&s[blocks * LANES..]) {
            *l += (x - m) * (x - m);
        }
        hsum(&lanes)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let blocks = a.len() / LANES;
        let (mut a0, mut a1, mut a2, mut a3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        for t in 0..blocks {
            let (qa, qb) = (pa.add(t * LANES), pb.add(t * LANES));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(qa), _mm256_loadu_ps(qb)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(qa.add(W)), _mm256_loadu_ps(qb.add(W))));
            a2 = _mm256_add_ps(
                a2,
                _mm256_mul_ps(_mm256_loadu_ps(qa.add(2 * W)), _mm256_loadu_ps(qb.add(2 * W))),
            );
            a3 = _mm256_add_ps(
                a3,
                _mm256_mul_ps(_mm256_loadu_ps(qa.add(3 * W)), _mm256_loadu_ps(qb.add(3 * W))),
            );
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a0);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(W), a1);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(2 * W), a2);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(3 * W), a3);
        for ((l, &x), &y) in lanes.iter_mut().zip(&a[blocks * LANES..]).zip(&b[blocks * LANES..]) {
            *l += x * y;
        }
        hsum(&lanes)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sse(a: &[f32], b: &[f32]) -> f32 {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let blocks = a.len() / LANES;
        let (mut a0, mut a1, mut a2, mut a3) =
            (_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps());
        for t in 0..blocks {
            let (qa, qb) = (pa.add(t * LANES), pb.add(t * LANES));
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(qa), _mm256_loadu_ps(qb));
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(qa.add(W)), _mm256_loadu_ps(qb.add(W)));
            let d2 = _mm256_sub_ps(_mm256_loadu_ps(qa.add(2 * W)), _mm256_loadu_ps(qb.add(2 * W)));
            let d3 = _mm256_sub_ps(_mm256_loadu_ps(qa.add(3 * W)), _mm256_loadu_ps(qb.add(3 * W)));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(d0, d0));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(d1, d1));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(d2, d2));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(d3, d3));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), a0);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(W), a1);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(2 * W), a2);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(3 * W), a3);
        for ((l, &x), &y) in lanes.iter_mut().zip(&a[blocks * LANES..]).zip(&b[blocks * LANES..]) {
            *l += (x - y) * (x - y);
        }
        hsum(&lanes)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        macro_rules! lp {
            ($vop:ident, $e:expr) => {{
                let mut i = 0;
                while i + W <= n {
                    let v = $vop(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                    _mm256_storeu_ps(po.add(i), v);
                    i += W;
                }
                while i < n {
                    *po.add(i) = $e(*pa.add(i), *pb.add(i));
                    i += 1;
                }
            }};
        }
        match op {
            BinOp::Add => lp!(_mm256_add_ps, |x, y| x + y),
            BinOp::Sub => lp!(_mm256_sub_ps, |x, y| x - y),
            BinOp::Mul => lp!(_mm256_mul_ps, |x, y| x * y),
            BinOp::Div => lp!(_mm256_div_ps, |x, y| x / y),
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
        let n = dst.len();
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + W <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(pd.add(i)), _mm256_mul_ps(sv, _mm256_loadu_ps(ps.add(i))));
            _mm256_storeu_ps(pd.add(i), v);
            i += W;
        }
        while i < n {
            *pd.add(i) += s * *ps.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + W <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(pd.add(i)), _mm256_loadu_ps(ps.add(i)));
            _mm256_storeu_ps(pd.add(i), v);
            i += W;
        }
        while i < n {
            *pd.add(i) += *ps.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let pd = dst.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + W <= n {
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(_mm256_loadu_ps(pd.add(i)), sv));
            i += W;
        }
        while i < n {
            *pd.add(i) *= s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_scalar_assign(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let pd = dst.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + W <= n {
            _mm256_storeu_ps(pd.add(i), _mm256_add_ps(_mm256_loadu_ps(pd.add(i)), sv));
            i += W;
        }
        while i < n {
            *pd.add(i) += s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile4(
        a: [&[f32]; 4],
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        o: [&mut [f32]; 4],
    ) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        let bp = b.as_ptr();
        let (q0, q1, q2, q3) = (o0.as_mut_ptr(), o1.as_mut_ptr(), o2.as_mut_ptr(), o3.as_mut_ptr());
        let mut j = 0usize;
        // 4×16 register tile: eight accumulators stay resident across the
        // whole p-block; out is read/written once per block, preserving the
        // fully sequential ascending-p association per element.
        while j + 2 * W <= n {
            let mut c00 = _mm256_loadu_ps(q0.add(j));
            let mut c01 = _mm256_loadu_ps(q0.add(j + W));
            let mut c10 = _mm256_loadu_ps(q1.add(j));
            let mut c11 = _mm256_loadu_ps(q1.add(j + W));
            let mut c20 = _mm256_loadu_ps(q2.add(j));
            let mut c21 = _mm256_loadu_ps(q2.add(j + W));
            let mut c30 = _mm256_loadu_ps(q3.add(j));
            let mut c31 = _mm256_loadu_ps(q3.add(j + W));
            for p in p0..p1 {
                let bq = bp.add(p * n + j);
                let b0 = _mm256_loadu_ps(bq);
                let b1 = _mm256_loadu_ps(bq.add(W));
                let v0 = _mm256_set1_ps(*a0.get_unchecked(p));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(v0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(v0, b1));
                let v1 = _mm256_set1_ps(*a1.get_unchecked(p));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(v1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(v1, b1));
                let v2 = _mm256_set1_ps(*a2.get_unchecked(p));
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(v2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(v2, b1));
                let v3 = _mm256_set1_ps(*a3.get_unchecked(p));
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(v3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(v3, b1));
            }
            _mm256_storeu_ps(q0.add(j), c00);
            _mm256_storeu_ps(q0.add(j + W), c01);
            _mm256_storeu_ps(q1.add(j), c10);
            _mm256_storeu_ps(q1.add(j + W), c11);
            _mm256_storeu_ps(q2.add(j), c20);
            _mm256_storeu_ps(q2.add(j + W), c21);
            _mm256_storeu_ps(q3.add(j), c30);
            _mm256_storeu_ps(q3.add(j + W), c31);
            j += 2 * W;
        }
        if j + W <= n {
            let mut c0 = _mm256_loadu_ps(q0.add(j));
            let mut c1 = _mm256_loadu_ps(q1.add(j));
            let mut c2 = _mm256_loadu_ps(q2.add(j));
            let mut c3 = _mm256_loadu_ps(q3.add(j));
            for p in p0..p1 {
                let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a0.get_unchecked(p)), b0));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a1.get_unchecked(p)), b0));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a2.get_unchecked(p)), b0));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a3.get_unchecked(p)), b0));
            }
            _mm256_storeu_ps(q0.add(j), c0);
            _mm256_storeu_ps(q1.add(j), c1);
            _mm256_storeu_ps(q2.add(j), c2);
            _mm256_storeu_ps(q3.add(j), c3);
            j += W;
        }
        for jj in j..n {
            let (mut x0, mut x1, mut x2, mut x3) = (o0[jj], o1[jj], o2[jj], o3[jj]);
            for p in p0..p1 {
                let bv = *bp.add(p * n + jj);
                x0 += a0[p] * bv;
                x1 += a1[p] * bv;
                x2 += a2[p] * bv;
                x3 += a3[p] * bv;
            }
            o0[jj] = x0;
            o1[jj] = x1;
            o2[jj] = x2;
            o3[jj] = x3;
        }
    }

    // Tail loops index by position on purpose: they must visit elements in
    // exactly the order the scalar twin does.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile1(
        arow: &[f32],
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        orow: &mut [f32],
    ) {
        let bp = b.as_ptr();
        let q = orow.as_mut_ptr();
        let mut j = 0usize;
        while j + 2 * W <= n {
            let mut c0 = _mm256_loadu_ps(q.add(j));
            let mut c1 = _mm256_loadu_ps(q.add(j + W));
            for p in p0..p1 {
                let bq = bp.add(p * n + j);
                let v = _mm256_set1_ps(*arow.get_unchecked(p));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(v, _mm256_loadu_ps(bq)));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(v, _mm256_loadu_ps(bq.add(W))));
            }
            _mm256_storeu_ps(q.add(j), c0);
            _mm256_storeu_ps(q.add(j + W), c1);
            j += 2 * W;
        }
        if j + W <= n {
            let mut c0 = _mm256_loadu_ps(q.add(j));
            for p in p0..p1 {
                let v = _mm256_set1_ps(*arow.get_unchecked(p));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(v, _mm256_loadu_ps(bp.add(p * n + j))));
            }
            _mm256_storeu_ps(q.add(j), c0);
            j += W;
        }
        for jj in j..n {
            let mut x = orow[jj];
            for p in p0..p1 {
                x += arow[p] * *bp.add(p * n + jj);
            }
            orow[jj] = x;
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile4_at(
        a: &[f32],
        astride: usize,
        base: usize,
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        o: [&mut [f32]; 4],
    ) {
        let [o0, o1, o2, o3] = o;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let (q0, q1, q2, q3) = (o0.as_mut_ptr(), o1.as_mut_ptr(), o2.as_mut_ptr(), o3.as_mut_ptr());
        let mut j = 0usize;
        while j + 2 * W <= n {
            let mut c00 = _mm256_loadu_ps(q0.add(j));
            let mut c01 = _mm256_loadu_ps(q0.add(j + W));
            let mut c10 = _mm256_loadu_ps(q1.add(j));
            let mut c11 = _mm256_loadu_ps(q1.add(j + W));
            let mut c20 = _mm256_loadu_ps(q2.add(j));
            let mut c21 = _mm256_loadu_ps(q2.add(j + W));
            let mut c30 = _mm256_loadu_ps(q3.add(j));
            let mut c31 = _mm256_loadu_ps(q3.add(j + W));
            for p in p0..p1 {
                let ac = ap.add(p * astride + base);
                let bq = bp.add(p * n + j);
                let b0 = _mm256_loadu_ps(bq);
                let b1 = _mm256_loadu_ps(bq.add(W));
                let v0 = _mm256_set1_ps(*ac);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(v0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(v0, b1));
                let v1 = _mm256_set1_ps(*ac.add(1));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(v1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(v1, b1));
                let v2 = _mm256_set1_ps(*ac.add(2));
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(v2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(v2, b1));
                let v3 = _mm256_set1_ps(*ac.add(3));
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(v3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(v3, b1));
            }
            _mm256_storeu_ps(q0.add(j), c00);
            _mm256_storeu_ps(q0.add(j + W), c01);
            _mm256_storeu_ps(q1.add(j), c10);
            _mm256_storeu_ps(q1.add(j + W), c11);
            _mm256_storeu_ps(q2.add(j), c20);
            _mm256_storeu_ps(q2.add(j + W), c21);
            _mm256_storeu_ps(q3.add(j), c30);
            _mm256_storeu_ps(q3.add(j + W), c31);
            j += 2 * W;
        }
        if j + W <= n {
            let mut c0 = _mm256_loadu_ps(q0.add(j));
            let mut c1 = _mm256_loadu_ps(q1.add(j));
            let mut c2 = _mm256_loadu_ps(q2.add(j));
            let mut c3 = _mm256_loadu_ps(q3.add(j));
            for p in p0..p1 {
                let ac = ap.add(p * astride + base);
                let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*ac), b0));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*ac.add(1)), b0));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*ac.add(2)), b0));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*ac.add(3)), b0));
            }
            _mm256_storeu_ps(q0.add(j), c0);
            _mm256_storeu_ps(q1.add(j), c1);
            _mm256_storeu_ps(q2.add(j), c2);
            _mm256_storeu_ps(q3.add(j), c3);
            j += W;
        }
        for jj in j..n {
            let (mut x0, mut x1, mut x2, mut x3) = (o0[jj], o1[jj], o2[jj], o3[jj]);
            for p in p0..p1 {
                let ac = ap.add(p * astride + base);
                let bv = *bp.add(p * n + jj);
                x0 += *ac * bv;
                x1 += *ac.add(1) * bv;
                x2 += *ac.add(2) * bv;
                x3 += *ac.add(3) * bv;
            }
            o0[jj] = x0;
            o1[jj] = x1;
            o2[jj] = x2;
            o3[jj] = x3;
        }
    }

    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile1_at(
        a: &[f32],
        astride: usize,
        base: usize,
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        orow: &mut [f32],
    ) {
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let q = orow.as_mut_ptr();
        let mut j = 0usize;
        while j + 2 * W <= n {
            let mut c0 = _mm256_loadu_ps(q.add(j));
            let mut c1 = _mm256_loadu_ps(q.add(j + W));
            for p in p0..p1 {
                let v = _mm256_set1_ps(*ap.add(p * astride + base));
                let bq = bp.add(p * n + j);
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(v, _mm256_loadu_ps(bq)));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(v, _mm256_loadu_ps(bq.add(W))));
            }
            _mm256_storeu_ps(q.add(j), c0);
            _mm256_storeu_ps(q.add(j + W), c1);
            j += 2 * W;
        }
        if j + W <= n {
            let mut c0 = _mm256_loadu_ps(q.add(j));
            for p in p0..p1 {
                let v = _mm256_set1_ps(*ap.add(p * astride + base));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(v, _mm256_loadu_ps(bp.add(p * n + j))));
            }
            _mm256_storeu_ps(q.add(j), c0);
            j += W;
        }
        for jj in j..n {
            let mut x = orow[jj];
            for p in p0..p1 {
                x += *ap.add(p * astride + base) * *bp.add(p * n + jj);
            }
            orow[jj] = x;
        }
    }

    /// # Safety
    ///
    /// The CPU supports AVX2; every `a[r]` holds at least `k` values, every
    /// `o[r]` exactly `n`, and `b` at least `k · n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_bt_tile<const R: usize>(
        a: [&[f32]; R],
        k: usize,
        b: &[f32],
        n: usize,
        mut o: [&mut [f32]; R],
    ) {
        let mut j = 0usize;
        // SAFETY (both blocks): columns `j..j + C·8` lie inside `0..n`.
        while j + 2 * W <= n {
            gemm_bt_block::<R, 2>(&a, k, b, n, j, &mut o);
            j += 2 * W;
        }
        if j + W <= n {
            gemm_bt_block::<R, 1>(&a, k, b, n, j, &mut o);
            j += W;
        }
        if j < n {
            for (arow, orow) in a.into_iter().zip(o) {
                super::gemm_bt_cols_scalar(arow, k, b, n, j, &mut orow[j..]);
            }
        }
    }

    /// Columns `j..j + C·8` of an `R`-row `A·Bᵀ` tile. The `R × C` running
    /// totals stay in registers across all lanes; one lane's `R` partials
    /// are built per column vector and folded in at once (`R ≤ 4`, `C ≤ 2`
    /// fits the sixteen vector registers).
    ///
    /// # Safety
    ///
    /// As for [`gemm_bt_tile`], and `j + C·8 ≤ n`.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_bt_block<const R: usize, const C: usize>(
        a: &[&[f32]; R],
        k: usize,
        b: &[f32],
        n: usize,
        j: usize,
        o: &mut [&mut [f32]; R],
    ) {
        let bp = b.as_ptr().add(j);
        let mut total = [[_mm256_setzero_ps(); C]; R];
        // Lanes `0..multi` hold two or more terms, the rest of `0..min(k,
        // LANES)` exactly one. Two loops keep each lane's registers apart.
        let multi = k.saturating_sub(LANES).min(LANES);
        for l in 0..multi {
            for c in 0..C {
                let bv = _mm256_loadu_ps(bp.add(l * n + c * W));
                let mut part = [_mm256_setzero_ps(); R];
                for r in 0..R {
                    part[r] = _mm256_mul_ps(_mm256_set1_ps(*a[r].get_unchecked(l)), bv);
                }
                let mut p = l + LANES;
                while p < k {
                    let bv = _mm256_loadu_ps(bp.add(p * n + c * W));
                    for r in 0..R {
                        let prod = _mm256_mul_ps(_mm256_set1_ps(*a[r].get_unchecked(p)), bv);
                        part[r] = _mm256_add_ps(part[r], prod);
                    }
                    p += LANES;
                }
                for r in 0..R {
                    total[r][c] = _mm256_add_ps(total[r][c], part[r]);
                }
            }
        }
        // One-term lanes: the partial is the product itself.
        for l in multi..k.min(LANES) {
            let mut bv = [_mm256_setzero_ps(); C];
            for c in 0..C {
                bv[c] = _mm256_loadu_ps(bp.add(l * n + c * W));
            }
            for r in 0..R {
                let v = _mm256_set1_ps(*a[r].get_unchecked(l));
                for c in 0..C {
                    total[r][c] = _mm256_add_ps(total[r][c], _mm256_mul_ps(v, bv[c]));
                }
            }
        }
        for r in 0..R {
            for c in 0..C {
                _mm256_storeu_ps(o[r].as_mut_ptr().add(j + c * W), total[r][c]);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bias_act_forward(out: &mut [f32], h: &[f32], b: &[f32], act: Activation) {
        let cols = b.len();
        let rows = h.len() / cols;
        let zero = _mm256_setzero_ps();
        let (po, ph, pb) = (out.as_mut_ptr(), h.as_ptr(), b.as_ptr());
        for r in 0..rows {
            let base = r * cols;
            let mut j = 0usize;
            while j + W <= cols {
                let x = _mm256_add_ps(_mm256_loadu_ps(ph.add(base + j)), _mm256_loadu_ps(pb.add(j)));
                let y = match act {
                    Activation::Identity => x,
                    // maxps(x, 0) matches f32::max(x, 0.0): NaN and -0.0 both
                    // resolve to +0.0 through the second operand.
                    Activation::Relu => _mm256_max_ps(x, zero),
                    Activation::LeakyRelu(s) => {
                        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
                        _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(s), x), x, mask)
                    }
                };
                _mm256_storeu_ps(po.add(base + j), y);
                j += W;
            }
            while j < cols {
                let x = *ph.add(base + j) + *pb.add(j);
                *po.add(base + j) = match act {
                    Activation::Identity => x,
                    Activation::Relu => x.max(0.0),
                    Activation::LeakyRelu(s) => {
                        if x > 0.0 {
                            x
                        } else {
                            s * x
                        }
                    }
                };
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bias_act_backward(
        gh: &mut [f32],
        gb: &mut [f32],
        g: &[f32],
        y: &[f32],
        act: Activation,
    ) {
        let cols = gb.len();
        let rows = g.len() / cols;
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let (pgh, pgb, pg, py) = (gh.as_mut_ptr(), gb.as_mut_ptr(), g.as_ptr(), y.as_ptr());
        for r in 0..rows {
            let base = r * cols;
            let mut j = 0usize;
            while j + W <= cols {
                let gv = _mm256_loadu_ps(pg.add(base + j));
                // The factor is multiplied (not selected) so g·0.0 keeps the
                // scalar path's signed zeroes.
                let v = match act {
                    Activation::Identity => gv,
                    Activation::Relu => {
                        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(py.add(base + j)), zero);
                        _mm256_mul_ps(gv, _mm256_blendv_ps(zero, one, mask))
                    }
                    Activation::LeakyRelu(s) => {
                        let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(py.add(base + j)), zero);
                        _mm256_mul_ps(gv, _mm256_blendv_ps(_mm256_set1_ps(s), one, mask))
                    }
                };
                _mm256_storeu_ps(pgh.add(base + j), v);
                _mm256_storeu_ps(pgb.add(j), _mm256_add_ps(_mm256_loadu_ps(pgb.add(j)), v));
                j += W;
            }
            while j < cols {
                let gv = *pg.add(base + j);
                let yv = *py.add(base + j);
                let v = match act {
                    Activation::Identity => gv,
                    Activation::Relu => gv * if yv > 0.0 { 1.0 } else { 0.0 },
                    Activation::LeakyRelu(s) => gv * if yv > 0.0 { 1.0 } else { s },
                };
                *pgh.add(base + j) = v;
                *pgb.add(j) += v;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    fn rand_vec(rng: &mut SeededRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// Run `f` at forced-scalar and at the detected level, asserting the
    /// bits agree. On machines without AVX2 both runs are scalar and the
    /// test degenerates to a self-comparison (still a valid smoke test).
    fn assert_paths_agree<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let scalar = with_level(Level::Scalar, &f);
        let native = with_level(Level::Avx2Fma, &f);
        assert_eq!(scalar, native);
    }

    #[test]
    fn level_name_is_stable() {
        assert!(matches!(level_name(), "scalar" | "avx2+fma"));
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Avx2Fma.name(), "avx2+fma");
    }

    #[test]
    fn with_level_restores_on_exit() {
        let before = active_level();
        with_level(Level::Scalar, || {
            assert_eq!(active_level(), Level::Scalar);
        });
        assert_eq!(active_level(), before);
    }

    #[test]
    fn reductions_bitwise_across_levels() {
        let mut rng = SeededRng::new(41);
        // Odd lengths on purpose: full 32-lane blocks plus every tail size.
        for n in [0usize, 1, 5, 31, 32, 33, 64, 100, 1023] {
            let a = rand_vec(&mut rng, n);
            let b = rand_vec(&mut rng, n);
            assert_paths_agree(|| sum(&a).to_bits());
            assert_paths_agree(|| sum_squares(&a).to_bits());
            assert_paths_agree(|| sum_sq_dev(&a, 0.37).to_bits());
            assert_paths_agree(|| dot(&a, &b).to_bits());
            assert_paths_agree(|| sse(&a, &b).to_bits());
        }
    }

    #[test]
    fn reductions_handle_nan_and_inf() {
        let mut a = vec![1.0f32; 40];
        a[7] = f32::INFINITY;
        a[33] = f32::NEG_INFINITY;
        assert!(sum(&a).is_nan()); // inf + (-inf) meets in the fold
        let mut b = vec![0.5f32; 40];
        b[3] = f32::NAN;
        assert!(sum(&b).is_nan());
        assert!(dot(&a, &b).is_nan());
        assert_paths_agree(|| sum(&a).is_nan());
        assert_paths_agree(|| sse(&a, &b).is_nan());
    }

    #[test]
    fn elementwise_bitwise_across_levels() {
        let mut rng = SeededRng::new(43);
        for n in [0usize, 3, 8, 17, 256, 1000] {
            let a = rand_vec(&mut rng, n);
            let b: Vec<f32> = rand_vec(&mut rng, n).iter().map(|x| x + 1.5).collect();
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                assert_paths_agree(|| {
                    let mut out = vec![0.0f32; n];
                    binary(op, &a, &b, &mut out);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                });
            }
            assert_paths_agree(|| {
                let mut d = a.clone();
                axpy(&mut d, -0.73, &b);
                d.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_paths_agree(|| {
                let mut d = a.clone();
                add_assign(&mut d, &b);
                scale(&mut d, 1.1);
                add_scalar_assign(&mut d, -0.2);
                d.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
        }
    }

    #[test]
    fn gemm_tiles_bitwise_across_levels() {
        let mut rng = SeededRng::new(47);
        // (rows=4 tile) × n columns over k, with ragged n to hit the 16-,
        // 8- and scalar-tail paths.
        for (k, n) in [(1usize, 1usize), (5, 7), (16, 16), (33, 23), (64, 40), (31, 100)] {
            let a: Vec<f32> = rand_vec(&mut rng, 4 * k);
            let b: Vec<f32> = rand_vec(&mut rng, k * n);
            assert_paths_agree(|| {
                let mut out = vec![0.0f32; 4 * n];
                let (o0, rest) = out.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                gemm_tile4(
                    [&a[..k], &a[k..2 * k], &a[2 * k..3 * k], &a[3 * k..]],
                    0,
                    k,
                    &b,
                    n,
                    [o0, o1, o2, o3],
                );
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_paths_agree(|| {
                let mut out = vec![0.0f32; n];
                gemm_tile1(&a[..k], 0, k, &b, n, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            // Strided (Aᵀ) variants: A is [k, 6], tile starts at column 1.
            let at: Vec<f32> = rand_vec(&mut rng, k * 6);
            assert_paths_agree(|| {
                let mut out = vec![0.0f32; 4 * n];
                let (o0, rest) = out.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                gemm_tile4_at(&at, 6, 1, 0, k, &b, n, [o0, o1, o2, o3]);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_paths_agree(|| {
                let mut out = vec![0.0f32; n];
                gemm_tile1_at(&at, 6, 1, 0, k, &b, n, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
        }
    }

    #[test]
    fn bias_act_bitwise_across_levels() {
        let mut rng = SeededRng::new(53);
        for (rows, cols) in [(1usize, 1usize), (3, 7), (5, 8), (4, 19), (2, 33)] {
            let h = rand_vec(&mut rng, rows * cols);
            let b = rand_vec(&mut rng, cols);
            let g = rand_vec(&mut rng, rows * cols);
            for act in [Activation::Identity, Activation::Relu, Activation::LeakyRelu(0.01)] {
                let (y_s, y_n) = (
                    with_level(Level::Scalar, || {
                        let mut y = vec![0.0f32; rows * cols];
                        bias_act_forward(&mut y, &h, &b, act);
                        y
                    }),
                    with_level(Level::Avx2Fma, || {
                        let mut y = vec![0.0f32; rows * cols];
                        bias_act_forward(&mut y, &h, &b, act);
                        y
                    }),
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y_s), bits(&y_n), "{act:?} forward");
                assert_paths_agree(|| {
                    let mut ghv = vec![0.0f32; rows * cols];
                    let mut gbv = vec![0.0f32; cols];
                    bias_act_backward(&mut ghv, &mut gbv, &g, &y_s, act);
                    (bits(&ghv), bits(&gbv))
                });
            }
        }
    }

    #[test]
    fn bias_act_handles_negative_zero_and_nan() {
        // relu'(y)·g multiplies by 0.0 on the inactive branch, so negative
        // upstream gradients must produce -0.0 on both paths.
        let h = vec![-1.0f32, 2.0, f32::NAN, -0.0, 0.0, 3.0, -5.0, 1.0, 0.25];
        let b = vec![0.0f32; 9];
        let g = vec![-2.0f32; 9];
        for act in [Activation::Relu, Activation::LeakyRelu(0.5)] {
            let run = |lvl| {
                with_level(lvl, || {
                    let mut y = vec![0.0f32; 9];
                    bias_act_forward(&mut y, &h, &b, act);
                    let mut ghv = vec![0.0f32; 9];
                    let mut gbv = vec![0.0f32; 9];
                    bias_act_backward(&mut ghv, &mut gbv, &g, &y, act);
                    (y, ghv, gbv)
                })
            };
            let (ys, gs, bs_) = run(Level::Scalar);
            let (yn, gn, bn) = run(Level::Avx2Fma);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ys), bits(&yn), "{act:?} forward");
            assert_eq!(bits(&gs), bits(&gn), "{act:?} grad");
            assert_eq!(bits(&bs_), bits(&bn), "{act:?} bias grad");
        }
    }
}
