//! A training tape's conv node keeps its input's unfold for the backward
//! pass, and that unfold, like every other conv buffer, comes from the
//! tensor arena and goes back to it: once warm, repeating a training-tape
//! conv forward and backward at one shape allocates nothing, so the kept
//! unfold is an arena hit. The same holds for a forward-only tape's conv,
//! which keeps nothing and unfolds each sample into per-job scratch, and
//! for [`conv2d_backward`], which unfolds the batch itself.
//!
//! The assertions read the arena's process-wide counters, so this file
//! holds a single test: its test binary is its own process, and no other
//! test can allocate between the two snapshots.

use muse_autograd::Tape;
use muse_parallel::with_threads;
use muse_tensor::arena;
use muse_tensor::conv::conv2d_backward;
use muse_tensor::init::SeededRng;
use muse_tensor::{Conv2dSpec, Tensor};

/// Arena hits taken by `f`.
fn hits_in(f: impl FnOnce()) -> u64 {
    let before = arena::stats().pool_hits;
    f();
    arena::stats().pool_hits - before
}

/// Run `step` once to warm the arena, then four more times, asserting that
/// none of them allocates and that the conv calls of each, whose arena hits
/// `step` returns, take at least `takes` buffers from the arena.
fn assert_warm_steps_reuse(what: &str, takes: u64, mut step: impl FnMut() -> u64) {
    step();
    for call in 0..4 {
        let before = arena::stats();
        let hits = step();
        assert_eq!(arena::stats().alloc_bytes, before.alloc_bytes, "{what} step {call} allocated");
        assert!(hits >= takes, "{what} step {call}: {hits} arena hits, want at least {takes}");
    }
}

#[test]
fn repeated_conv_reuses_arena_buffers() {
    arena::set_enabled(true);
    // Every buffer of this shape, down to the `[OC]` bias gradient, is at
    // least the arena's minimum pooled length, so a warm step has no reason
    // to allocate.
    let (n, c, h, w, oc) = (4, 2, 4, 5, 32);
    let spec = Conv2dSpec::same(c, oc, 3);
    let mut rng = SeededRng::new(23);
    let x = Tensor::rand_uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
    let wt = Tensor::rand_uniform(&mut rng, &[oc, c, 3, 3], -1.0, 1.0);
    let b = Tensor::rand_uniform(&mut rng, &[oc], -1.0, 1.0);
    let go = Tensor::rand_uniform(&mut rng, &[n, oc, h, w], -1.0, 1.0);
    // One pool thread, so one job. A training forward takes Wᵀ, the
    // output, the kept unfold, the job's padded image and its product
    // block; a forward-only one takes the job's unfold scratch in place of
    // the kept unfold. The backward takes W′, the input gradient, the dW
    // and db slots, the job's input-gradient rows and padded HWC image, and
    // the folded dW and db; `conv2d_backward` adds the batch unfold and its
    // job's padded image.
    let forward_takes: u64 = 5;
    let backward_takes = 8;
    with_threads(1, || {
        let tape = Tape::new();
        let mut forward = 0;
        assert_warm_steps_reuse("training tape", forward_takes + backward_takes, || {
            // Resetting drops the previous step's nodes, the conv node's
            // kept unfold among them, back into the arena.
            tape.reset();
            let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(wt.clone()), tape.leaf(b.clone()));
            let mut y = None;
            forward = hits_in(|| y = Some(xv.conv2d(&wv, Some(&bv), spec)));
            forward + hits_in(|| drop(tape.backward(y.expect("forward ran"))))
        });
        assert!(forward >= forward_takes, "warm training forward had {forward} arena hits");

        let tape = Tape::forward_only();
        assert_warm_steps_reuse("forward-only tape", forward_takes, || {
            tape.reset();
            let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(wt.clone()), tape.leaf(b.clone()));
            hits_in(|| {
                xv.conv2d(&wv, Some(&bv), spec);
            })
        });

        assert_warm_steps_reuse("conv2d_backward", backward_takes + 2, || {
            hits_in(|| drop(conv2d_backward(&x, &wt, &go, &spec)))
        });
    });
}
