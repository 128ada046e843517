//! `train_quick`: prepare NYC-Bike at `Profile::quick()` and fit the full
//! MUSE-Net with `Trainer::fit` for the profile's fixed budget.
//!
//! The untraced run times `Trainer::fit` itself. Step latencies come from
//! outside the call: a watcher thread polls the `train.loss_ewma` gauge
//! that `fit` sets once per step, and the time between two changes is one
//! step. Intervals that span an epoch boundary also hold the validation
//! pass, so they are left out of the step latencies.
//!
//! The traced run fits once more through [`traced_fit`], a step loop that
//! makes the same public calls `Trainer::fit` makes and times each one. It
//! must reproduce `fit`'s per-epoch loss and validation bits, so the layer
//! split describes the same computation.

use crate::layers::KERNELS;
use crate::probes;
use crate::stats::{self, Summary, Windowed};
use crate::{Args, Outcome};
use muse_autograd::Tape;
use muse_eval::{prepare, Prepared, Profile};
use muse_nn::{clip_grad_norm, Adam, Optimizer, Session};
use muse_obs as obs;
use muse_tensor::arena;
use muse_tensor::init::SeededRng;
use muse_traffic::subseries::{batch_into, Batch};
use muse_traffic::DatasetPreset;
use musenet::{AblationVariant, MuseNet, MuseNetConfig, TrainReport, Trainer, TrainerOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median. A set-up takes
/// about 0.1 s, and single repeats drift by up to half within one run as
/// the machine's speed changes, so the median takes many.
const SETUP_REPEATS: usize = 15;

/// The quick profile. Its master seed, which generates the simulated
/// NYC-Bike dataset, stays the profile's own: the validation split that
/// `val_rmse` scores is then the same in every run, so the accuracy guard
/// compares models rather than datasets (with a dataset drawn per seed, its
/// spread over ten seeds was 8–33%). The benchmark seed draws the model's
/// initialisation and the sample order instead.
pub fn profile() -> Profile {
    Profile::quick()
}

/// The full MUSE-Net the eval harness trains under `profile`, initialised
/// from `seed`.
pub fn model_config(prepared: &Prepared, profile: &Profile, seed: u64) -> MuseNetConfig {
    let mut cfg = MuseNetConfig::cpu_profile(prepared.dataset.grid(), prepared.spec);
    cfg.d = profile.d;
    cfg.k = profile.k;
    cfg.resplus_blocks = 2;
    cfg.variant = AblationVariant::Full;
    cfg.seed = seed.wrapping_add(6);
    cfg
}

/// The profile's trainer options, shuffling the samples with `seed`.
pub fn trainer_options(profile: &Profile, seed: u64) -> TrainerOptions {
    TrainerOptions { shuffle_seed: seed.wrapping_add(7), ..profile.trainer_options() }
}

/// Prepare the dataset and build the model and trainer: the set-up a fit
/// needs.
fn setup(profile: &Profile, seed: u64) -> (Prepared, MuseNetConfig, Trainer) {
    let prepared = prepare(DatasetPreset::NycBike, profile);
    let cfg = model_config(&prepared, profile, seed);
    let trainer = Trainer::new(MuseNet::new(cfg.clone()), trainer_options(profile, seed));
    (prepared, cfg, trainer)
}

/// Training steps per epoch under `opts` for `n_train` targets.
pub fn steps_per_epoch(n_train: usize, opts: &TrainerOptions) -> usize {
    let chunks = n_train.div_ceil(opts.batch_size.max(1));
    if opts.max_batches_per_epoch > 0 {
        chunks.min(opts.max_batches_per_epoch)
    } else {
        chunks
    }
}

/// Samples one epoch trains on.
pub fn samples_per_epoch(n_train: usize, opts: &TrainerOptions) -> usize {
    let steps = steps_per_epoch(n_train, opts);
    if steps < n_train.div_ceil(opts.batch_size.max(1)) {
        steps * opts.batch_size
    } else {
        n_train
    }
}

/// Polls the `train.loss_ewma` gauge, which `Trainer::fit` sets once per
/// step, and stamps every change. `start` returns once the watcher has
/// read the gauge, so a watcher thread that starts late cannot miss the
/// first step.
struct StepWatcher {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Instant>>,
}

impl StepWatcher {
    const POLL: Duration = Duration::from_micros(100);

    fn start() -> StepWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let gauge = obs::gauge("train.loss_ewma");
            let mut last = gauge.get().to_bits();
            let _ = ready_tx.send(());
            let mut stamps = Vec::with_capacity(4096);
            while !flag.load(Ordering::Relaxed) {
                let now = gauge.get().to_bits();
                if now != last {
                    stamps.push(Instant::now());
                    last = now;
                }
                std::thread::sleep(Self::POLL);
            }
            stamps
        });
        let _ = ready_rx.recv();
        StepWatcher { stop, handle }
    }

    fn finish(self) -> Vec<Instant> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// Step latencies (ms) from the gauge-change stamps of a fit of `epochs`
/// epochs of `steps_per_epoch` steps, keyed by the stamp that ends them,
/// leaving out the intervals that cross an epoch boundary (they hold the
/// validation pass). With every stamp seen, the interval ending at stamp
/// `e * steps_per_epoch` crosses boundary `e`. Each stamp the watcher
/// missed before it moves it one stamp earlier, so with `m` stamps missed
/// the boundary is the longest interval ending in the `m + 1` stamps up to
/// that position — a missed stamp cannot shift every later boundary.
fn step_intervals_ms(stamps: &[Instant], steps_per_epoch: usize, epochs: usize) -> Vec<(usize, f64)> {
    let ms = |k: usize| (stamps[k] - stamps[k - 1]).as_secs_f64() * 1e3;
    let missed = (steps_per_epoch * epochs).saturating_sub(stamps.len());
    let boundaries: Vec<usize> = (1..epochs)
        .filter_map(|e| {
            let at = (e * steps_per_epoch).min(stamps.len().saturating_sub(1));
            (at.saturating_sub(missed).max(1)..=at).max_by(|&a, &b| ms(a).total_cmp(&ms(b)))
        })
        .collect();
    (1..stamps.len()).filter(|k| !boundaries.contains(k)).map(|k| (k, ms(k))).collect()
}

fn report_checks(out: &mut Outcome, report: &TrainReport, opts: &TrainerOptions, label: &str) {
    out.check(
        &format!("{label}: every epoch ran, no batch skipped"),
        report.epochs.len() == opts.epochs && report.total_skipped_batches() == 0,
        format!("{} epochs, {} skipped batches", report.epochs.len(), report.total_skipped_batches()),
    );
    let finite =
        report.epochs.iter().all(|e| e.train_loss.is_finite() && e.val_rmse.is_some_and(f32::is_finite));
    out.check(
        &format!("{label}: losses and validation RMSE finite"),
        finite,
        format!("best {:?}", report.best_val_rmse),
    );
}

/// Record the best validation RMSE (scaled units) as `val_rmse`, and
/// print the test-split RMSE of the same best-validation model beside it.
pub fn record_accuracy(out: &mut Outcome, trainer: &Trainer, prepared: &Prepared, best_val: Option<f32>) {
    let test = trainer.validation_rmse(&prepared.scaled, &prepared.spec, &prepared.split.test);
    out.note(format!("accuracy: best validation RMSE {best_val:?}, test RMSE {test:.6} (scaled units)"));
    out.metric("val_rmse", best_val.map_or(f64::NAN, f64::from));
}

/// Untraced `train_quick` run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let profile = profile();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats do not stack memory.
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(&profile, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (prepared, cfg, mut trainer) = state.expect("set-up ran");
    let opts = trainer_options(&profile, args.seed);
    let (train, val) = (&prepared.split.train, &prepared.split.val);
    let per_epoch = steps_per_epoch(train.len(), &opts);
    let samples = samples_per_epoch(train.len(), &opts) * opts.epochs;
    let untrained_rmse = trainer.validation_rmse(&prepared.scaled, &prepared.spec, val);

    // Whole fits until the budget is spent; at least one.
    let started = Instant::now();
    let mut fits = 0;
    let mut steps_ms = Vec::new();
    let (mut rate_windows, mut latency_windows) = (Vec::new(), Vec::new());
    let mut first: Option<TrainReport> = None;
    loop {
        let watcher = StepWatcher::start();
        let t = Instant::now();
        let report = trainer.fit(&prepared.scaled, &prepared.spec, train, val);
        let fit_s = t.elapsed().as_secs_f64();
        let stamps = watcher.finish();
        fits += 1;
        out.attempted += (per_epoch * opts.epochs) as u64;
        out.failed += report.total_skipped_batches() as u64;
        if stamps.len() != per_epoch * opts.epochs {
            // The watcher was descheduled for longer than a step: the
            // interval it missed counts as one long step, and the epoch
            // boundaries after it are looked for one stamp earlier.
            out.note(format!("step watcher saw {} of {} steps", stamps.len(), per_epoch * opts.epochs));
        }
        let intervals = step_intervals_ms(&stamps, per_epoch, report.epochs.len());
        let at = |k: usize| (stamps[k] - t).as_secs_f64();
        let steps: Vec<(f64, f64)> = (0..stamps.len()).map(|k| (at(k), 0.0)).collect();
        rate_windows.extend(Windowed::windows(&steps, 1.0, fit_s));
        let latencies: Vec<(f64, f64)> = intervals.iter().map(|&(k, ms)| (at(k), ms)).collect();
        latency_windows.extend(Windowed::windows(&latencies, 1.0, fit_s));
        steps_ms.extend(intervals.iter().map(|&(_, ms)| ms));
        out.note(format!(
            "fit {:.3} s, {:.1} samples/s, best val RMSE {:?}",
            fit_s,
            samples as f64 / fit_s,
            report.best_val_rmse
        ));
        match &first {
            None => {
                report_checks(&mut out, &report, &opts, "fit");
                let best = report.best_val_rmse.unwrap_or(f32::NAN);
                out.check(
                    "trained model beats the untrained one on validation",
                    best < untrained_rmse,
                    format!("{best} vs untrained {untrained_rmse}"),
                );
                first = Some(report);
            }
            Some(f) => {
                let same = f.epochs.len() == report.epochs.len()
                    && f.epochs.iter().zip(&report.epochs).all(|(a, b)| {
                        a.train_loss.to_bits() == b.train_loss.to_bits()
                            && a.val_rmse.map(f32::to_bits) == b.val_rmse.map(f32::to_bits)
                    });
                out.check("repeated fit is bit-identical", same, "per-epoch loss and validation bits");
            }
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        trainer = Trainer::new(MuseNet::new(cfg.clone()), opts.clone());
    }
    let first = first.expect("one fit ran");
    let steps = Summary::of(&steps_ms);
    out.note(format!(
        "train: {} fit(s), {} samples per fit, {per_epoch} steps per epoch; step latency {}",
        fits,
        samples,
        steps.render("ms")
    ));
    // Steps per second times the batch size is samples per second.
    let rate = Windowed::over(&rate_windows).rate.map(|r| r * opts.batch_size as f64);
    let latency = Windowed::over(&latency_windows);
    out.note(format!(
        "train: per-second medians over {} windows: {rate:?} samples/s, step p50 {:?} ms, p90 {:?} ms",
        latency.windows, latency.p50, latency.p90
    ));
    out.note(format!("set-up repeats: {setup_s:.4?} s"));
    out.metric("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN));
    out.metric("ops_per_s", rate.unwrap_or(f64::NAN));
    out.metric("latency_p50_ms", latency.p50.unwrap_or(f64::NAN));
    record_accuracy(&mut out, &trainer, &prepared, first.best_val_rmse);
    out.metric("peak_rss_mb", crate::peak_rss_mb().unwrap_or(f64::NAN));
    out
}

/// Cumulative `muse-obs` kernel stats: (calls, nanos, bytes) per kernel.
pub fn kernel_totals() -> [(u64, u64, u64); 8] {
    const NAMES: [&str; 8] = [
        "tensor.matmul",
        "tensor.matmul_bt",
        "tensor.matmul_at",
        "tensor.matvec",
        "tensor.conv2d",
        "tensor.conv2d_backward",
        "tensor.zip_same",
        "tensor.zip_broadcast",
    ];
    NAMES.map(|n| {
        let k = obs::kernel(n);
        (k.calls.get(), k.nanos.get(), k.bytes.get())
    })
}

/// Add `after - before` into `acc`.
pub fn accumulate_kernels(
    acc: &mut [(u64, u64, u64); 8],
    before: &[(u64, u64, u64); 8],
    after: &[(u64, u64, u64); 8],
) {
    for ((a, b), c) in acc.iter_mut().zip(before).zip(after) {
        a.0 += c.0 - b.0;
        a.1 += c.1 - b.1;
        a.2 += c.2 - b.2;
    }
}

/// Per-step kernel and arena metrics from accumulated totals.
pub fn kernel_metrics(out: &mut Outcome, kernels: &[(u64, u64, u64); 8], alloc: (u64, u64, u64), steps: u64) {
    let per = steps.max(1) as f64;
    for (name, &(calls, nanos, bytes)) in KERNELS.iter().zip(kernels) {
        out.metric(&format!("tensor.{name}.calls"), calls as f64 / per);
        out.metric(&format!("tensor.{name}.ms"), nanos as f64 / 1e6 / per);
        out.metric(&format!("tensor.{name}.mb"), bytes as f64 / 1e6 / per);
    }
    let (alloc_bytes, hits, misses) = alloc;
    out.metric("tensor.arena.alloc_kb", alloc_bytes as f64 / 1e3 / per);
    out.metric(
        "tensor.arena.hit_ratio",
        if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
    );
}

/// What the traced step loop measured.
pub struct TracedFit {
    /// Per-epoch (mean train loss, validation RMSE).
    pub epochs: Vec<(f32, Option<f32>)>,
    /// Steps taken (finite batches).
    pub steps: u64,
    /// Batches skipped as non-finite.
    pub skipped: u64,
    /// Wall time of the whole loop, validation included.
    pub wall_s: f64,
    /// Seconds in `batch_into`, `train_graph`, `backward`, `clip_grad_norm`,
    /// `Adam::step` + `zero_grad`, and validation.
    pub split: [f64; 6],
    /// Kernel stats over the steps (validation excluded).
    pub kernels: [(u64, u64, u64); 8],
    /// Arena (fresh bytes, hits, misses) over the steps.
    pub alloc: (u64, u64, u64),
    /// The trained model, best validation parameters restored.
    pub trainer: Trainer,
}

/// Fit through the same public calls `Trainer::fit` makes, timing each.
/// The optimizer is a second `Adam` over the trainer model's (shared)
/// parameters, so `Trainer::validation_rmse` validates the same weights.
pub fn traced_fit(prepared: &Prepared, cfg: &MuseNetConfig, opts: &TrainerOptions) -> TracedFit {
    let (flows, spec) = (&prepared.scaled, &prepared.spec);
    let (train_idx, val_idx) = (&prepared.split.train, &prepared.split.val);
    let trainer = Trainer::new(MuseNet::new(cfg.clone()), opts.clone());
    let model = trainer.model();
    let mut optimizer = Adam::with_defaults(model.params(), opts.learning_rate);
    let mut shuffle_rng = SeededRng::new(opts.shuffle_seed);
    let mut best = f32::INFINITY;
    let mut best_snapshot = None;
    let mut split = [0.0f64; 6];
    let mut kernels = [(0u64, 0u64, 0u64); 8];
    let mut alloc = (0u64, 0u64, 0u64);
    let (mut steps, mut skipped) = (0u64, 0u64);
    let mut epochs = Vec::new();
    let tape = Tape::new();
    let s = Session::new(&tape);
    let mut staging = Batch::staging();
    let mut indices: Vec<usize> = Vec::new();
    let timed = |slot: &mut f64, t: Instant| *slot += t.elapsed().as_secs_f64();
    let wall = Instant::now();
    for _epoch in 0..opts.epochs {
        let order = shuffle_rng.permutation(train_idx.len());
        let mut losses = Vec::new();
        let mut batch_count = 0usize;
        let k0 = kernel_totals();
        let a0 = arena::stats();
        for chunk in order.chunks(opts.batch_size) {
            if opts.max_batches_per_epoch > 0 && batch_count >= opts.max_batches_per_epoch {
                break;
            }
            indices.clear();
            indices.extend(chunk.iter().map(|&i| train_idx[i]));
            let t = Instant::now();
            batch_into(flows, spec, &indices, &mut staging);
            timed(&mut split[0], t);
            tape.reset();
            s.reset();
            let t = Instant::now();
            let pass = model.train_graph(&s, &staging);
            timed(&mut split[1], t);
            if !pass.terms.is_finite() {
                skipped += 1;
                continue;
            }
            losses.push(pass.terms.total);
            let t = Instant::now();
            s.backward(pass.loss);
            timed(&mut split[2], t);
            if opts.clip_norm > 0.0 {
                let t = Instant::now();
                clip_grad_norm(optimizer.params(), opts.clip_norm);
                timed(&mut split[3], t);
            }
            let t = Instant::now();
            optimizer.step();
            optimizer.zero_grad();
            timed(&mut split[4], t);
            steps += 1;
            batch_count += 1;
        }
        accumulate_kernels(&mut kernels, &k0, &kernel_totals());
        let a1 = arena::stats();
        alloc.0 += a1.alloc_bytes - a0.alloc_bytes;
        alloc.1 += a1.pool_hits - a0.pool_hits;
        alloc.2 += a1.pool_misses - a0.pool_misses;
        let train_loss =
            if losses.is_empty() { 0.0 } else { losses.iter().sum::<f32>() / losses.len() as f32 };
        let val = if val_idx.is_empty() {
            None
        } else {
            let t = Instant::now();
            let v = trainer.validation_rmse(flows, spec, val_idx);
            timed(&mut split[5], t);
            Some(v)
        };
        epochs.push((train_loss, val));
        if let Some(v) = val {
            if v < best {
                best = v;
                best_snapshot = Some(muse_nn::snapshot(optimizer.params()));
            }
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    if let Some(snap) = best_snapshot {
        muse_nn::restore(optimizer.params(), &snap);
    }
    drop(s);
    TracedFit { epochs, steps, skipped, wall_s, split, kernels, alloc, trainer }
}

/// Check that the traced loop reproduced `Trainer::fit` bit for bit.
pub fn check_reproduces(out: &mut Outcome, report: &TrainReport, traced: &TracedFit, label: &str) {
    let reference: Vec<(u32, Option<u32>)> =
        report.epochs.iter().map(|e| (e.train_loss.to_bits(), e.val_rmse.map(f32::to_bits))).collect();
    let got: Vec<(u32, Option<u32>)> =
        traced.epochs.iter().map(|&(l, v)| (l.to_bits(), v.map(f32::to_bits))).collect();
    let first_diff = reference.iter().zip(&got).position(|(a, b)| a != b);
    out.check(
        &format!("{label}: traced step loop reproduces Trainer::fit's per-epoch loss bits"),
        reference == got && traced.skipped == 0,
        match first_diff {
            None if reference.len() == got.len() => format!("{} epochs identical", got.len()),
            None => format!("{} vs {} epochs", reference.len(), got.len()),
            Some(e) => format!("epoch {e} differs: {:?} vs {:?}", reference[e], got[e]),
        },
    );
}

/// Per-step training-layer metrics and the reconciliation line.
pub fn training_layer_metrics(out: &mut Outcome, traced: &TracedFit, epochs: usize) {
    let steps = traced.steps.max(1) as f64;
    let [batch, graph, backward, clip, adam, validate] = traced.split;
    let step_wall = traced.wall_s - validate;
    let attributed = batch + graph + backward + clip + adam;
    let ms = |s: f64| s * 1e3 / steps;
    out.metric("traffic.batch_into_ms", ms(batch));
    out.metric("core.train_graph_ms", ms(graph));
    out.metric("autograd.backward_ms", ms(backward));
    out.metric("nn.clip_ms", ms(clip));
    out.metric("nn.adam_ms", ms(adam));
    out.metric("core.validate_ms", validate * 1e3 / epochs.max(1) as f64);
    out.metric("train.step_ms", ms(step_wall));
    out.metric("train.unattributed_ms", ms(step_wall - attributed));
    out.metric("train.attributed_pct", 100.0 * attributed / step_wall);
    out.note(format!(
        "reconcile train: step wall {:.4} ms = batch_into {:.4} + train_graph {:.4} + backward {:.4} + clip {:.4} + adam {:.4} + unattributed {:.4} ms ({:.2}% attributed); validation {:.3} ms/epoch outside the step",
        ms(step_wall),
        ms(batch),
        ms(graph),
        ms(backward),
        ms(clip),
        ms(adam),
        ms(step_wall - attributed),
        100.0 * attributed / step_wall,
        validate * 1e3 / epochs.max(1) as f64
    ));
    kernel_metrics(out, &traced.kernels, traced.alloc, traced.steps);
}

/// Traced `train_quick` run: an untraced `Trainer::fit` for reference, then
/// the traced step loop with `muse-obs` on.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let profile = profile();
    let (prepared, cfg, mut trainer) = setup(&profile, args.seed);
    let opts = trainer_options(&profile, args.seed);
    let (train, val) = (&prepared.split.train, &prepared.split.val);
    let samples = samples_per_epoch(train.len(), &opts) * opts.epochs;

    let t = Instant::now();
    let report = trainer.fit(&prepared.scaled, &prepared.spec, train, val);
    let untraced_s = t.elapsed().as_secs_f64();
    report_checks(&mut out, &report, &opts, "reference fit");

    obs::reset_metrics();
    obs::enable();
    let traced = traced_fit(&prepared, &cfg, &opts);
    out.attempted += traced.steps;
    out.failed += traced.skipped;
    check_reproduces(&mut out, &report, &traced, "train_quick");
    training_layer_metrics(&mut out, &traced, opts.epochs);

    // Same samples in both, so the rate ratio is the wall ratio.
    let overhead = (traced.wall_s / untraced_s - 1.0) * 100.0;
    out.metric("obs.overhead_pct", overhead);
    out.note(format!(
        "overhead: traced loop {:.1} samples/s vs untraced Trainer::fit {:.1} samples/s ({overhead:+.2}%)",
        samples as f64 / traced.wall_s,
        samples as f64 / untraced_s
    ));

    // The serving layers this workload does not use, measured on its own
    // frames (predicted flat here); the daemon-only layers stay at zero.
    let frames: Vec<Vec<f32>> =
        (0..prepared.scaled.len()).map(|i| prepared.scaled.frame(i).as_slice().to_vec()).collect();
    probes::serving_layers(&mut out, traced.trainer.model(), &frames);
    for name in probes::DAEMON_ONLY {
        out.metric(name, 0.0);
    }
    obs::disable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stamps of three epochs of four 6 ms steps, each epoch followed by a
    /// 6 ms validation pass, without the stamps listed in `missed`
    /// (epoch, step).
    fn stamps(missed: &[(usize, usize)]) -> Vec<Instant> {
        let t0 = Instant::now();
        let mut at = 0.0;
        let mut out = Vec::new();
        for epoch in 0..3 {
            for step in 0..4 {
                at += 6.0;
                if !missed.contains(&(epoch, step)) {
                    out.push(t0 + Duration::from_secs_f64(at / 1e3));
                }
            }
            at += 6.0;
        }
        out
    }

    fn kept(intervals: &[(usize, f64)]) -> Vec<usize> {
        intervals.iter().map(|&(k, _)| k).collect()
    }

    #[test]
    fn epoch_boundaries_are_left_out_of_the_step_latencies() {
        let intervals = step_intervals_ms(&stamps(&[]), 4, 3);
        assert_eq!(kept(&intervals), vec![1, 2, 3, 5, 6, 7, 9, 10, 11]);
        assert!(intervals.iter().all(|&(_, ms)| (ms - 6.0).abs() < 0.01), "{intervals:?}");
    }

    #[test]
    fn a_missed_stamp_does_not_shift_the_later_boundaries() {
        // The second step's stamp is missed: its interval holds two steps
        // and stays in (one long step); both boundaries move one stamp
        // earlier and are still the ones left out.
        let intervals = step_intervals_ms(&stamps(&[(0, 1)]), 4, 3);
        assert_eq!(kept(&intervals), vec![1, 2, 4, 5, 6, 8, 9, 10]);
        let long: Vec<usize> = intervals.iter().filter(|&&(_, ms)| ms > 7.0).map(|&(k, _)| k).collect();
        assert_eq!(long, vec![1]);
    }
}
