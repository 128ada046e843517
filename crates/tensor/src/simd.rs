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
//! * **The fused Adam step** ([`adam_update`]) is an elementwise kernel
//!   with a fixed per-element sequence; its AVX2 path only routes stuck
//!   first moments around the FP unit, with integer math that gives the
//!   same bits (see its docs).
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

/// `dst[i] += src[i]` (conv input-gradient channel vectors, sample-ordered
/// gradient folds).
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

/// One `A·Bᵀ` row (see [`gemm_bt_tile`]). Blocks of [`BT_COLS`] columns
/// keep the lane partials in a stack array.
fn gemm_bt_row_scalar(arow: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for (jb, oblk) in (0..).step_by(BT_COLS).zip(out.chunks_mut(BT_COLS)) {
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
        gemm_bt_row_scalar(arow, k, b, n, orow);
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

// ---------------------------------------------------------------- Adam step

/// Per-step constants of [`adam_update`], each rounded to `f32` once:
/// `c1 = 1−β₁`, `c2 = 1−β₂`, `s1 = 1/(1−β₁ᵗ)`, `s2 = 1/(1−β₂ᵗ)`.
#[derive(Debug, Clone, Copy)]
pub struct AdamConsts {
    beta1: f32,
    beta2: f32,
    c1: f32,
    c2: f32,
    s1: f32,
    s2: f32,
    eps: f32,
    neg_lr: f32,
    /// Bits of the smallest `|w|` a stuck lane may have (see
    /// [`adam_update`]); above `+inf` when no lane may be stuck.
    stuck_w_min: u32,
}

impl AdamConsts {
    /// Constants of Adam step `t` (1-based) at learning rate `lr`.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, t: u64) -> Self {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        let (s1, s2) = (1.0 / bc1, 1.0 / bc2);
        // A stuck lane's update is below |lr|·s1·2⁻¹²³/ε: its |m| < 2⁻¹²⁶,
        // the denominator is at least ε, and each of the three roundings at
        // most doubles a value. That is under |w|·2⁻²⁵, less than half an
        // ulp of w, once |w| ≥ |lr|·s1·2⁻⁹⁸/ε. The bound needs d ≥ ε, so
        // β₁, β₂ ∈ [0, 1], finite s1 and s2 ≥ 0 and a finite ε > 0, and no
        // overflow in (m·s1)/d.
        let sane = (0.0..=1.0).contains(&beta1)
            && (0.0..=1.0).contains(&beta2)
            && s1.is_finite()
            && s2.is_finite()
            && s2 >= 0.0
            && eps.is_finite()
            && eps > 0.0
            && lr.is_finite()
            && f64::from(s1.abs()) * 2f64.powi(-123) / f64::from(eps) <= f64::from(f32::MAX);
        let bound = f64::from(lr.abs()) * f64::from(s1.abs()) * 2f64.powi(-98) / f64::from(eps);
        let stuck_w_min = if !sane || bound > f64::from(f32::MAX) {
            0x7f80_0001
        } else {
            let up = bound as f32;
            let bits = up.to_bits() + u32::from(f64::from(up) < bound);
            // Stuck lanes hold a normal w, so no FP op reads a subnormal.
            bits.max(0x0080_0000)
        };
        AdamConsts { beta1, beta2, c1: 1.0 - beta1, c2: 1.0 - beta2, s1, s2, eps, neg_lr: -lr, stuck_w_min }
    }
}

fn adam_update_scalar(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamConsts) -> usize {
    let mut stuck = 0;
    for (((w, &g), m), v) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        stuck += usize::from(m.is_subnormal() && g == 0.0);
        *m *= k.beta1;
        *m += k.c1 * g;
        *v *= k.beta2;
        *v += (g * g) * k.c2;
        let d = (*v * k.s2).sqrt() + k.eps;
        let step = k.neg_lr * ((*m * k.s1) / d);
        *w += if w.is_nan() { 0.0 } else { step };
    }
    stuck
}

/// One fused Adam step over a parameter tensor: per element,
///
/// ```text
/// m = m·β₁;  m = m + c1·g
/// v = v·β₂;  v = v + (g·g)·c2
/// w = w + (−lr)·((m·s1) / (sqrt(v·s2) + ε))
/// ```
///
/// with every operation rounded separately (no FMA), which is what the
/// same update written as whole-tensor passes computes. A NaN weight gets
/// a zero step, so it stays that NaN (quieted) on both paths: `w + step`
/// with two NaN operands returns whichever operand the compiler put first.
/// Returns how many elements entered with a subnormal `m` and a zero `g`:
/// parameters that have had no gradient for hundreds of steps.
///
/// Such a **stuck** moment never reaches zero (`m·0.9` rounds a small
/// subnormal back to itself), and every FP instruction that reads it takes
/// a microcode assist. The AVX2 path therefore never feeds one to the FP
/// unit. On a lane with subnormal `m`, `g = ±0`, a positive normal `v` and
/// a normal `|w|` at or above the bound in [`AdamConsts::new`], it
/// computes `m·β₁` on the integer mantissa (`q·β₁` is exact in `f64`, and
/// adding 2⁵² rounds it to nearest-even exactly as the subnormal `f32`
/// product does), updates `v` as usual, and leaves `w` alone, which is
/// what rounding does to an update below half an ulp of `w`. A block
/// holding any other subnormal `m` runs the scalar twin. Results are
/// bit-identical to the scalar twin on both paths.
pub fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamConsts) -> usize {
    let n = w.len();
    assert!(g.len() == n && m.len() == n && v.len() == n, "simd::adam_update length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { avx2::adam_update(w, g, m, v, k) };
    }
    adam_update_scalar(w, g, m, v, k)
}

// ------------------------------------------------------------- AVX2 kernels

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The `std::arch` implementations. Each function mirrors its scalar
    //! twin's per-element operation sequence exactly; see the module docs
    //! for the argument. All are `#[target_feature(enable = "avx2,fma")]`
    //! and only called behind the runtime feature check in the dispatchers.

    use super::{hsum, Activation, AdamConsts, BinOp, LANES};
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
        let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
        gemm_cols_rest(rows, 1, p0, p1, bp, n, j, [q0, q1, q2, q3]);
    }

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
        gemm_cols_rest([arow.as_ptr()], 1, p0, p1, bp, n, j, [q]);
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
        let cols = [ap.add(base), ap.add(base + 1), ap.add(base + 2), ap.add(base + 3)];
        gemm_cols_rest(cols, astride, p0, p1, bp, n, j, [q0, q1, q2, q3]);
    }

    #[allow(clippy::too_many_arguments)]
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
        gemm_cols_rest([ap.add(base)], astride, p0, p1, bp, n, j, [q]);
    }

    /// Lanes `0..r` of a mask vector set, for `r < 8`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tail_mask(r: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(r as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// Eight values from `p`, or with `MASKED` only the lanes of `mask`
    /// (the others read as 0.0, and their memory is never touched).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load8<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
        if MASKED {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// Store eight values to `p`, or with `MASKED` only the lanes of `mask`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store8<const MASKED: bool>(p: *mut f32, mask: __m256i, x: __m256) {
        if MASKED {
            _mm256_maskstore_ps(p, mask, x)
        } else {
            _mm256_storeu_ps(p, x)
        }
    }

    /// Columns `j..n` (fewer than sixteen) of an `R`-row `A·B` tile update:
    /// an 8-lane block if eight remain, then one masked block. Row `r`'s
    /// multiplier at step `p` is `*a[r].add(p·astep)`; every element
    /// accumulates over ascending `p` as in the scalar twin.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; for `p` in `p0..p1` the multipliers and B
    /// row `p`'s columns `j..n` are readable and each `o[r]` holds `n`
    /// values.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_cols_rest<const R: usize>(
        a: [*const f32; R],
        astep: usize,
        p0: usize,
        p1: usize,
        b: *const f32,
        n: usize,
        mut j: usize,
        o: [*mut f32; R],
    ) {
        if j + W <= n {
            gemm_cols8::<R, false>(a, astep, p0, p1, b, n, j, o, _mm256_setzero_si256());
            j += W;
        }
        if j < n {
            gemm_cols8::<R, true>(a, astep, p0, p1, b, n, j, o, tail_mask(n - j));
        }
    }

    /// Columns `j..j + 8` of [`gemm_cols_rest`], only the lanes of `mask`
    /// when `MASKED`.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_cols8<const R: usize, const MASKED: bool>(
        a: [*const f32; R],
        astep: usize,
        p0: usize,
        p1: usize,
        b: *const f32,
        n: usize,
        j: usize,
        o: [*mut f32; R],
        mask: __m256i,
    ) {
        let mut c = [_mm256_setzero_ps(); R];
        for r in 0..R {
            c[r] = load8::<MASKED>(o[r].add(j), mask);
        }
        for p in p0..p1 {
            let bv = load8::<MASKED>(b.add(p * n + j), mask);
            for r in 0..R {
                c[r] = _mm256_add_ps(c[r], _mm256_mul_ps(_mm256_set1_ps(*a[r].add(p * astep)), bv));
            }
        }
        for r in 0..R {
            store8::<MASKED>(o[r].add(j), mask, c[r]);
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
        // SAFETY: unmasked blocks cover columns `j..j + C·8` inside `0..n`,
        // the masked one only the lanes below `n − j`.
        while j + 2 * W <= n {
            gemm_bt_block::<R, 2, false>(&a, k, b, n, j, &mut o, _mm256_setzero_si256());
            j += 2 * W;
        }
        if j + W <= n {
            gemm_bt_block::<R, 1, false>(&a, k, b, n, j, &mut o, _mm256_setzero_si256());
            j += W;
        }
        // The last n % 8 columns: one masked block.
        if j < n {
            gemm_bt_block::<R, 1, true>(&a, k, b, n, j, &mut o, tail_mask(n - j));
        }
    }

    /// Columns `j..j + C·8` of an `R`-row `A·Bᵀ` tile, only the lanes of
    /// `mask` when `MASKED`. The `R × C` running totals stay in registers
    /// across all lanes; one lane's `R` partials are built per column
    /// vector and folded in at once (`R ≤ 4`, `C ≤ 2` fits the sixteen
    /// vector registers).
    ///
    /// # Safety
    ///
    /// As for [`gemm_bt_tile`], and `j + C·8 ≤ n` unless `MASKED`, when
    /// `mask` holds only lanes below `n − j`.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_bt_block<const R: usize, const C: usize, const MASKED: bool>(
        a: &[&[f32]; R],
        k: usize,
        b: &[f32],
        n: usize,
        j: usize,
        o: &mut [&mut [f32]; R],
        mask: __m256i,
    ) {
        let bp = b.as_ptr().add(j);
        let mut total = [[_mm256_setzero_ps(); C]; R];
        // Lanes `0..multi` hold two or more terms, the rest of `0..min(k,
        // LANES)` exactly one. Two loops keep each lane's registers apart.
        let multi = k.saturating_sub(LANES).min(LANES);
        for l in 0..multi {
            for c in 0..C {
                let bv = load8::<MASKED>(bp.add(l * n + c * W), mask);
                let mut part = [_mm256_setzero_ps(); R];
                for r in 0..R {
                    part[r] = _mm256_mul_ps(_mm256_set1_ps(*a[r].get_unchecked(l)), bv);
                }
                let mut p = l + LANES;
                while p < k {
                    let bv = load8::<MASKED>(bp.add(p * n + c * W), mask);
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
                bv[c] = load8::<MASKED>(bp.add(l * n + c * W), mask);
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
                store8::<MASKED>(o[r].as_mut_ptr().add(j + c * W), mask, total[r][c]);
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

    /// [`AdamConsts`] broadcast to vector lanes.
    struct AdamVec {
        beta1: __m256,
        beta2: __m256,
        c1: __m256,
        c2: __m256,
        s1: __m256,
        s2: __m256,
        eps: __m256,
        neg_lr: __m256,
        beta1_pd: __m256d,
        w_min: __m256i,
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn adam_update(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        k: &AdamConsts,
    ) -> usize {
        let kv = AdamVec {
            beta1: _mm256_set1_ps(k.beta1),
            beta2: _mm256_set1_ps(k.beta2),
            c1: _mm256_set1_ps(k.c1),
            c2: _mm256_set1_ps(k.c2),
            s1: _mm256_set1_ps(k.s1),
            s2: _mm256_set1_ps(k.s2),
            eps: _mm256_set1_ps(k.eps),
            neg_lr: _mm256_set1_ps(k.neg_lr),
            beta1_pd: _mm256_set1_pd(f64::from(k.beta1)),
            w_min: _mm256_set1_epi32(k.stuck_w_min as i32),
        };
        let n = w.len();
        let (pw, pg, pm, pv) = (w.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
        let mut stuck = 0;
        let mut i = 0;
        while i + W <= n {
            stuck += adam_block(pw.add(i), pg.add(i), pm.add(i), pv.add(i), k, &kv);
            i += W;
        }
        if i < n {
            // Zero padding turns the tail into a full block of ordinary lanes.
            let r = n - i;
            let mut buf = [[0.0f32; W]; 4];
            buf[0][..r].copy_from_slice(&w[i..]);
            buf[1][..r].copy_from_slice(&g[i..]);
            buf[2][..r].copy_from_slice(&m[i..]);
            buf[3][..r].copy_from_slice(&v[i..]);
            let [bw, bg, bm, bv] = &mut buf;
            stuck += adam_block(bw.as_mut_ptr(), bg.as_ptr(), bm.as_mut_ptr(), bv.as_mut_ptr(), k, &kv);
            w[i..].copy_from_slice(&bw[..r]);
            m[i..].copy_from_slice(&bm[..r]);
            v[i..].copy_from_slice(&bv[..r]);
        }
        stuck
    }

    /// The scalar twin's per-element sequence on eight lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn adam_lanes(w: __m256, g: __m256, m: __m256, v: __m256, k: &AdamVec) -> [__m256; 3] {
        let m = _mm256_add_ps(_mm256_mul_ps(m, k.beta1), _mm256_mul_ps(k.c1, g));
        let v = _mm256_add_ps(_mm256_mul_ps(v, k.beta2), _mm256_mul_ps(_mm256_mul_ps(g, g), k.c2));
        let d = _mm256_add_ps(_mm256_sqrt_ps(_mm256_mul_ps(v, k.s2)), k.eps);
        let step = _mm256_mul_ps(k.neg_lr, _mm256_div_ps(_mm256_mul_ps(m, k.s1), d));
        let w_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(w, w);
        let w = _mm256_add_ps(w, _mm256_andnot_ps(w_nan, step));
        [w, m, v]
    }

    /// `rne(q·β₁)` for eight mantissa integers `q < 2²³`. The product is
    /// exact in `f64`; adding 2⁵² rounds it to the nearest integer, ties to
    /// even, and leaves that integer in the low 32 bits of the sum.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mul_rne(q: __m256i, beta1: __m256d) -> __m256i {
        let magic = _mm256_set1_pd(4_503_599_627_370_496.0);
        let lo = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(q)), beta1);
        let hi = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(q)), beta1);
        let lo = _mm256_castpd_ps(_mm256_add_pd(lo, magic));
        let hi = _mm256_castpd_ps(_mm256_add_pd(hi, magic));
        // Low dwords in lane order 0 1 4 5 2 3 6 7, then put back in order.
        let mixed = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi));
        _mm256_permute4x64_epi64::<0b11_01_10_00>(mixed)
    }

    /// One 8-lane block of [`adam_update`]; returns the block's count of
    /// lanes with subnormal `m` and zero `g`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and each pointer addresses eight `f32`s.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn adam_block(
        pw: *mut f32,
        pg: *const f32,
        pm: *mut f32,
        pv: *mut f32,
        k: &AdamConsts,
        kv: &AdamVec,
    ) -> usize {
        let (w, g, m, v) =
            (_mm256_loadu_ps(pw), _mm256_loadu_ps(pg), _mm256_loadu_ps(pm), _mm256_loadu_ps(pv));
        // Lane classes from the bit patterns; every compare is on values in
        // 0..=0x7fff_ffff except v's, where a set sign bit fails the test.
        let abs = _mm256_set1_epi32(0x7fff_ffff);
        let zero = _mm256_setzero_si256();
        let m_abs = _mm256_and_si256(_mm256_castps_si256(m), abs);
        let sub = _mm256_andnot_si256(
            _mm256_cmpeq_epi32(m_abs, zero),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x0080_0000), m_abs),
        );
        if _mm256_testz_si256(sub, sub) == 1 {
            let [w, m, v] = adam_lanes(w, g, m, v, kv);
            _mm256_storeu_ps(pw, w);
            _mm256_storeu_ps(pm, m);
            _mm256_storeu_ps(pv, v);
            return 0;
        }
        let g_zero = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_castps_si256(g), abs), zero);
        let lost = _mm256_and_si256(sub, g_zero);
        let vi = _mm256_castps_si256(v);
        let v_normal = _mm256_and_si256(
            _mm256_cmpgt_epi32(vi, _mm256_set1_epi32(0x007f_ffff)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x7f80_0000), vi),
        );
        let w_abs = _mm256_and_si256(_mm256_castps_si256(w), abs);
        let w_big = _mm256_andnot_si256(
            _mm256_cmpgt_epi32(kv.w_min, w_abs),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x7f80_0001), w_abs),
        );
        let stuck = _mm256_and_si256(_mm256_and_si256(lost, v_normal), w_big);
        if _mm256_testc_si256(stuck, sub) == 0 {
            // Some subnormal m is not a stuck lane.
            return super::adam_update_scalar(
                std::slice::from_raw_parts_mut(pw, W),
                std::slice::from_raw_parts(pg, W),
                std::slice::from_raw_parts_mut(pm, W),
                std::slice::from_raw_parts_mut(pv, W),
                k,
            );
        }
        // Stuck lanes enter the FP math as the signed zero of their m, so no
        // FP instruction reads a subnormal. That makes their m the scalar
        // twin's (±0) + c1·g and their step ±0, so w + step is w
        // (d ≥ ε > 0 on a stuck lane). Where m·β₁ does not round to zero,
        // the integer mantissa path supplies it instead.
        let sign = _mm256_andnot_ps(_mm256_castsi256_ps(abs), m);
        let m_in = _mm256_blendv_ps(m, sign, _mm256_castsi256_ps(stuck));
        let [w_new, m_new, v_new] = adam_lanes(w, g, m_in, v, kv);
        let q = mul_rne(m_abs, kv.beta1_pd);
        let m_int = _mm256_castsi256_ps(_mm256_or_si256(q, _mm256_castps_si256(sign)));
        let take_int = _mm256_andnot_si256(_mm256_cmpeq_epi32(q, zero), stuck);
        _mm256_storeu_ps(pw, w_new);
        _mm256_storeu_ps(pm, _mm256_blendv_ps(m_new, m_int, _mm256_castsi256_ps(take_int)));
        _mm256_storeu_ps(pv, v_new);
        _mm256_movemask_ps(_mm256_castsi256_ps(lost)).count_ones() as usize
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

    /// Subnormal first moments `±q·2⁻¹⁴⁹`: ones `m·0.9` rounds back to
    /// themselves, ones it rounds to zero (under `β₁ = 0.5`), and the
    /// largest.
    const STUCK_M: [u32; 8] = [1, 2, 3, 4, 5, 6, 0x1_2345, 0x7f_ffff];

    fn adam_bits(w: &[f32], m: &[f32], v: &[f32], stuck: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>, usize) {
        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(w), bits(m), bits(v), stuck)
    }

    #[test]
    fn adam_update_bitwise_across_levels_on_adversarial_lanes() {
        let sub = |q: u32, neg: bool| f32::from_bits(q | if neg { 0x8000_0000 } else { 0 });
        let m_stuck: Vec<f32> = STUCK_M.iter().flat_map(|&q| [sub(q, false), sub(q, true)]).collect();
        let m_other = [0.0f32, -0.0, 1e-3, -2e-2, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
        let gs = [0.0f32, -0.0, 1e-40, -3e-41, 0.3, -1.5, f32::NAN];
        let vs = [0.0f32, 1e-40, f32::MIN_POSITIVE, 1e-6, 4.0];
        let v_normal = [f32::MIN_POSITIVE, 1e-6, 4.0];
        let ws = [
            0.0f32,
            -0.0,
            1e-41,
            -1e-41,
            2f32.powi(-100),
            -2f32.powi(-100),
            0.7,
            -1e-20,
            1e5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let w_big = [0.7f32, -1.3, 1e5, f32::INFINITY, f32::NEG_INFINITY];
        let all_m: Vec<f32> = m_stuck.iter().chain(&m_other).copied().collect();
        // Every combination, grouped so whole blocks share one m and g.
        let mut cross = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &m in &all_m {
            for &g in &gs {
                for &v in &vs {
                    for &w in &ws {
                        cross.0.push(w);
                        cross.1.push(g);
                        cross.2.push(m);
                        cross.3.push(v);
                    }
                }
            }
        }
        let mut rng = SeededRng::new(59);
        let mut pick = |xs: &[f32]| xs[(rng.next_u64() % xs.len() as u64) as usize];
        for t in [1u64, 2, 160, 10_000] {
            for eps in [1e-8f32, 0.0] {
                for (lr, b1, b2) in [(2e-4f32, 0.9f32, 0.999f32), (1e25, 0.5, 0.9)] {
                    let k = AdamConsts::new(lr, b1, b2, eps, t);
                    let run = |w: &[f32], g: &[f32], m: &[f32], v: &[f32]| {
                        let want_stuck =
                            m.iter().zip(g).filter(|(m, g)| m.is_subnormal() && **g == 0.0).count();
                        let (a, b) = [Level::Scalar, Level::Avx2Fma]
                            .map(|level| {
                                with_level(level, || {
                                    let (mut w, mut m, mut v) = (w.to_vec(), m.to_vec(), v.to_vec());
                                    let stuck = adam_update(&mut w, g, &mut m, &mut v, &k);
                                    adam_bits(&w, &m, &v, stuck)
                                })
                            })
                            .into();
                        if a != b {
                            let i = (0..w.len())
                                .find(|&i| a.0[i] != b.0[i] || a.1[i] != b.1[i] || a.2[i] != b.2[i])
                                .unwrap_or(usize::MAX);
                            let lane = |x: &[u32]| x.get(i).map(|b| format!("{:#x}", b));
                            panic!(
                                "t={t} eps={eps} lr={lr} len={} lane {i}: in w={:?} g={:?} m={:?} v={:?}; \
                                 scalar w/m/v {:?} {:?} {:?} avx2 {:?} {:?} {:?}; stuck {} vs {}",
                                w.len(),
                                w.get(i),
                                g.get(i),
                                m.get(i).map(|x| x.to_bits()),
                                v.get(i),
                                lane(&a.0),
                                lane(&a.1),
                                lane(&a.2),
                                lane(&b.0),
                                lane(&b.1),
                                lane(&b.2),
                                a.3,
                                b.3
                            );
                        }
                        assert_eq!(a.3, want_stuck, "stuck count");
                    };
                    run(&cross.0, &cross.1, &cross.2, &cross.3);
                    for len in 0..=17 {
                        // Any lane mix: mostly blocks that fall back to scalar.
                        let lanes: Vec<[f32; 4]> =
                            (0..len).map(|_| [pick(&ws), pick(&gs), pick(&all_m), pick(&vs)]).collect();
                        let col = |i: usize| lanes.iter().map(|l| l[i]).collect::<Vec<_>>();
                        run(&col(0), &col(1), &col(2), &col(3));
                        // Stuck lanes among ordinary ones: the blended path.
                        let lanes: Vec<[f32; 4]> = (0..len)
                            .map(|i| {
                                if i % 3 == 0 {
                                    [pick(&ws), pick(&gs), pick(&m_other), pick(&vs)]
                                } else {
                                    [pick(&w_big), pick(&[0.0, -0.0]), pick(&m_stuck), pick(&v_normal)]
                                }
                            })
                            .collect();
                        let col = |i: usize| lanes.iter().map(|l| l[i]).collect::<Vec<_>>();
                        run(&col(0), &col(1), &col(2), &col(3));
                    }
                }
            }
        }
    }

    #[test]
    fn adam_stuck_moment_rounds_like_the_f32_product() {
        // m = q·2⁻¹⁴⁹ with g = 0: the new moment is rne(0.9·q)·2⁻¹⁴⁹, and
        // the weight does not move.
        let k = AdamConsts::new(1e-3, 0.9, 0.999, 1e-8, 900);
        for (q, want) in [(1u32, 1u32), (4, 4), (5, 4), (6, 5), (15, 13), (0x7f_ffff, 0x73_3332)] {
            for level in [Level::Scalar, Level::Avx2Fma] {
                let mut w = vec![0.25f32; 9];
                let mut m = vec![f32::from_bits(q); 9];
                let mut v = vec![1e-6f32; 9];
                let stuck = with_level(level, || adam_update(&mut w, &[0.0; 9], &mut m, &mut v, &k));
                assert_eq!(stuck, 9);
                assert!(m.iter().all(|x| x.to_bits() == want), "q={q}: {:#x}", m[0].to_bits());
                assert!(w.iter().all(|&x| x == 0.25));
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
