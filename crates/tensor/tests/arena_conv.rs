//! The conv kernels' unfold buffers come from the tensor arena and go back
//! to it: once warm, repeating a forward and backward conv at one shape
//! allocates nothing, and every unfold buffer is an arena hit.
//!
//! The assertions read the arena's process-wide counters, so this file
//! holds a single test: its test binary is its own process, and no other
//! test can allocate between the two snapshots.

use muse_parallel::with_threads;
use muse_tensor::arena;
use muse_tensor::conv::{conv2d, conv2d_backward, Conv2dSpec};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;

#[test]
fn repeated_conv_reuses_arena_buffers() {
    arena::set_enabled(true);
    // Every buffer of this shape, down to the `[OC]` bias gradient, is at
    // least the arena's minimum pooled length, so a warm call has no reason
    // to allocate.
    let (n, c, h, w, oc) = (4, 2, 4, 5, 32);
    let spec = Conv2dSpec::same(c, oc, 3);
    let mut rng = SeededRng::new(23);
    let x = Tensor::rand_uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
    let wt = Tensor::rand_uniform(&mut rng, &[oc, c, 3, 3], -1.0, 1.0);
    let b = Tensor::rand_uniform(&mut rng, &[oc], -1.0, 1.0);
    let go = Tensor::rand_uniform(&mut rng, &[n, oc, h, w], -1.0, 1.0);
    // One pool thread: forward unfolds into one `cols` buffer, backward
    // into a padded image, `rows` and `dcols` per sample.
    let unfolds_per_call = 1 + 3 * n as u64;
    with_threads(1, || {
        let step = || {
            drop(conv2d(&x, &wt, Some(&b), &spec));
            drop(conv2d_backward(&x, &wt, &go, &spec));
        };
        step(); // warm-up
        for call in 0..4 {
            let before = arena::stats();
            step();
            let after = arena::stats();
            assert_eq!(after.alloc_bytes, before.alloc_bytes, "call {call} allocated");
            assert!(
                after.pool_hits - before.pool_hits >= unfolds_per_call,
                "call {call}: {} arena hits, want at least {unfolds_per_call}",
                after.pool_hits - before.pool_hits
            );
        }
    });
}
