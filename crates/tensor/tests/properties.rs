//! Property-style tests for the tensor substrate, driven by the in-tree
//! [`SeededRng`] instead of an external property-testing framework: each
//! test sweeps a deterministic family of random shapes/values, so failures
//! reproduce exactly from the printed seed.

use muse_tensor::conv::{conv2d, conv2d_reference, Conv2dSpec};
use muse_tensor::init::SeededRng;
use muse_tensor::linalg::matmul_reference;
use muse_tensor::{broadcast_shapes, Tensor};

/// Random dims: 1..=3 axes, each of extent 1..=4.
fn small_dims(rng: &mut SeededRng) -> Vec<usize> {
    let rank = 1 + rng.index(3);
    (0..rank).map(|_| 1 + rng.index(4)).collect()
}

#[test]
fn add_commutes() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let dims = small_dims(&mut rng);
        let a = Tensor::rand_uniform(&mut rng, &dims, -5.0, 5.0);
        let b = Tensor::rand_uniform(&mut rng, &dims, -5.0, 5.0);
        assert!(a.add(&b).approx_eq(&b.add(&a), 1e-6), "seed {seed}");
    }
}

#[test]
fn broadcast_row_matches_tiling() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let (rows, cols) = (1 + rng.index(5), 1 + rng.index(5));
        let m = Tensor::rand_uniform(&mut rng, &[rows, cols], -2.0, 2.0);
        let v = Tensor::rand_uniform(&mut rng, &[cols], -2.0, 2.0);
        let fast = m.add(&v);
        for r in 0..rows {
            for c in 0..cols {
                assert!(
                    (fast.at(&[r, c]) - (m.at(&[r, c]) + v.at(&[c]))).abs() < 1e-6,
                    "seed {seed} at ({r},{c})"
                );
            }
        }
    }
}

#[test]
fn broadcast_shapes_symmetric() {
    for seed in 0..128u64 {
        let mut rng = SeededRng::new(seed);
        let a = small_dims(&mut rng);
        let b = small_dims(&mut rng);
        let ab = broadcast_shapes(&a, &b);
        let ba = broadcast_shapes(&b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed}"),
            (Err(_), Err(_)) => {}
            _ => panic!("asymmetric broadcast outcome for seed {seed}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn reshape_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let dims = small_dims(&mut rng);
        let t = Tensor::rand_uniform(&mut rng, &dims, -10.0, 10.0);
        let n = t.len();
        let flat = t.clone().reshape(&[n]);
        let back = flat.reshape(&dims);
        assert_eq!(back, t, "seed {seed}");
    }
}

#[test]
fn matmul_matches_reference() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let (m, k, n) = (1 + rng.index(5), 1 + rng.index(5), 1 + rng.index(5));
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -3.0, 3.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -3.0, 3.0);
        assert!(a.matmul(&b).approx_eq(&matmul_reference(&a, &b), 1e-3), "seed {seed} [{m},{k}]x[{k},{n}]");
    }
}

#[test]
fn matmul_associative() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[4, 5], -1.0, 1.0);
        let c = Tensor::rand_uniform(&mut rng, &[5, 2], -1.0, 1.0);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        assert!(lhs.approx_eq(&rhs, 1e-3), "seed {seed}");
    }
}

#[test]
fn sum_to_preserves_mass() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let (rows, cols) = (1 + rng.index(4), 1 + rng.index(4));
        let v = Tensor::rand_uniform(&mut rng, &[cols], -2.0, 2.0);
        let big = v.add(&Tensor::zeros(&[rows, cols])); // broadcast up
        let folded = big.sum_to(&[cols]);
        assert!((big.sum() - folded.sum()).abs() < 1e-4, "seed {seed}");
    }
}

#[test]
fn conv_is_linear() {
    for seed in 0..32u64 {
        let mut rng = SeededRng::new(seed);
        let alpha = rng.uniform(-2.0, 2.0);
        let beta = rng.uniform(-2.0, 2.0);
        let spec = Conv2dSpec::same(1, 2, 3);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 4, 4], -1.0, 1.0);
        let y = Tensor::rand_uniform(&mut rng, &[1, 1, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[2, 1, 3, 3], -1.0, 1.0);
        let mixed = conv2d(&x.mul_scalar(alpha).add(&y.mul_scalar(beta)), &w, None, &spec);
        let separate =
            conv2d(&x, &w, None, &spec).mul_scalar(alpha).add(&conv2d(&y, &w, None, &spec).mul_scalar(beta));
        assert!(mixed.approx_eq(&separate, 1e-3), "seed {seed}");
    }
}

#[test]
fn conv_matches_reference_random_geometry() {
    for seed in 0..32u64 {
        let mut rng = SeededRng::new(seed);
        let (h, w) = (3 + rng.index(4), 3 + rng.index(4));
        let (cin, cout) = (1 + rng.index(2), 1 + rng.index(2));
        let spec = Conv2dSpec::same(cin, cout, 3);
        let x = Tensor::rand_uniform(&mut rng, &[1, cin, h, w], -1.0, 1.0);
        let wt = Tensor::rand_uniform(&mut rng, &[cout, cin, 3, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[cout], -1.0, 1.0);
        let fast = conv2d(&x, &wt, Some(&b), &spec);
        let slow = conv2d_reference(&x, &wt, Some(&b), &spec);
        assert!(fast.approx_eq(&slow, 1e-3), "seed {seed} geom {h}x{w} {cin}->{cout}");
    }
}

#[test]
fn conv_matches_reference_odd_shapes() {
    // Odd channel counts and widths: every unfold dimension (cin·kh·kw and
    // oh·ow) is a non-multiple of the 8-wide SIMD vector, so the tail lanes
    // of the vectorized GEMM are exercised on both the scalar and AVX2
    // paths. The reference is elementwise, so comparison is approximate.
    use muse_tensor::simd::{self, Level};
    for (cin, cout, w) in [(1usize, 3usize, 7usize), (3, 5, 9), (5, 1, 13)] {
        let mut rng = SeededRng::new(97 + w as u64);
        let spec = Conv2dSpec::same(cin, cout, 3);
        let x = Tensor::rand_uniform(&mut rng, &[2, cin, 5, w], -1.0, 1.0);
        let wt = Tensor::rand_uniform(&mut rng, &[cout, cin, 3, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[cout], -1.0, 1.0);
        let slow = conv2d_reference(&x, &wt, Some(&b), &spec);
        for level in [Level::Scalar, Level::Avx2Fma] {
            let fast = simd::with_level(level, || conv2d(&x, &wt, Some(&b), &spec));
            assert!(
                fast.approx_eq(&slow, 1e-3),
                "{cin}->{cout} w={w} {}: max diff {}",
                level.name(),
                fast.max_abs_diff(&slow)
            );
        }
    }
}

#[test]
fn concat_split_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let (rows, c1, c2) = (1 + rng.index(3), 1 + rng.index(3), 1 + rng.index(3));
        let a = Tensor::rand_uniform(&mut rng, &[rows, c1], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[rows, c2], -1.0, 1.0);
        let joined = Tensor::concat(&[&a, &b], 1);
        let parts = joined.split(1, &[c1, c2]);
        assert_eq!(&parts[0], &a, "seed {seed}");
        assert_eq!(&parts[1], &b, "seed {seed}");
    }
}

#[test]
fn softmax_is_distribution() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let t = Tensor::rand_uniform(&mut rng, &[3, 5], -10.0, 10.0);
        let s = t.softmax_last();
        assert!(s.all_finite(), "seed {seed}");
        assert!(s.min() >= 0.0, "seed {seed}");
        for r in 0..3 {
            let total: f32 = (0..5).map(|c| s.at(&[r, c])).sum();
            assert!((total - 1.0).abs() < 1e-5, "seed {seed} row {r}: {total}");
        }
    }
}

#[test]
fn permute_inverse_identity() {
    for seed in 0..64u64 {
        let mut rng = SeededRng::new(seed);
        let t = Tensor::rand_uniform(&mut rng, &[2, 3, 4], -1.0, 1.0);
        let perm = [2usize, 0, 1];
        // inverse of [2,0,1] is [1,2,0]
        let inv = [1usize, 2, 0];
        let back = t.permute(&perm).permute(&inv);
        assert_eq!(back, t, "seed {seed}");
    }
}
