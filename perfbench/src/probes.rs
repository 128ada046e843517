//! Serving-layer probes: the ingest path's layers (`FlowWindow::push`,
//! `QualityTracker::on_ingest`, `SpectralSweeper::sweep`) and the model's
//! forward pass (`MuseNet::infer_raw`), timed by calling their public
//! functions directly on a workload's frames in the order the engine
//! calls them.

use crate::stats::Summary;
use crate::Outcome;
use muse_autograd::Tape;
use muse_nn::Session;
use muse_serve::{FlowWindow, QualityConfig, QualityTracker, SpectralSweeper};
use muse_tensor::Tensor;
use musenet::MuseNet;
use std::time::Instant;

/// Per-layer metrics only a running daemon can produce; the training
/// workload reports them as zero.
pub const DAEMON_ONLY: [&str; 13] = [
    "serve.http_ms",
    "serve.engine.forecast_p50_ms",
    "serve.engine.forecast_p99_ms",
    "serve.batch.size",
    "serve.batch.wait_ms",
    "serve.rollout_p50_ms",
    "serve.rollout_p99_ms",
    "serve.rollout_steps",
    "serve.unattributed_ms",
    "serve.attributed_pct",
    "serve.engine.ingest_p50_ms",
    "serve.engine.ingest_p99_ms",
    "serve.ingest_wait_ms",
];

/// `infer_raw` calls timed per probe.
const INFER_CALLS: usize = 400;

/// Run the probes over `frames` (absolute index = position) with `model`,
/// reporting `serve.window.push_us`, `serve.quality.on_ingest_us`,
/// `fft.sweep_ms`, `fft.sweeps` and `core.infer_raw_ms`. Returns the
/// `infer_raw` latency summary (ms).
pub fn serving_layers(out: &mut Outcome, model: &MuseNet, frames: &[Vec<f32>]) -> Summary {
    let cfg = model.config();
    let (grid, spec) = (cfg.grid, cfg.spec);
    let mut window = FlowWindow::for_spec(grid, &spec);
    let mut tracker = QualityTracker::new(spec.intervals_per_day, &QualityConfig::default());
    let mut sweeper = SpectralSweeper::new();
    let (mut push_s, mut quality_s, mut sweep_s) = (0.0f64, 0.0f64, 0.0f64);
    for (i, frame) in frames.iter().enumerate() {
        // A one-step persistence forecast for this frame, journaled the way
        // the engine journals a reader's h=1 forecast, so on_ingest scores
        // one forecast per frame as it does beside a closed-loop reader.
        if let Some(prev) = i.checked_sub(1).and_then(|p| frames.get(p)) {
            tracker.record_forecast(i as u64, i as u64, 1, i as u64, prev);
        }
        let t = Instant::now();
        let index = window.push(frame).expect("probe frames fit the window");
        push_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        tracker.on_ingest(&window, index, frame);
        quality_s += t.elapsed().as_secs_f64();
        if (i + 1) % 32 == 0 {
            let t = Instant::now();
            let _ = sweeper.sweep(&window);
            sweep_s += t.elapsed().as_secs_f64();
        }
    }
    let n = frames.len().max(1) as f64;
    out.metric("serve.window.push_us", push_s * 1e6 / n);
    out.metric("serve.quality.on_ingest_us", quality_s * 1e6 / n);
    out.metric("fft.sweep_ms", sweep_s * 1e3 / sweeper.sweeps().max(1) as f64);
    out.metric("fft.sweeps", sweeper.sweeps() as f64);

    // infer_raw on a hoisted forward-only tape, as the engine runs it, over
    // the last targets the frames can serve.
    let frame_len = 2 * grid.cells();
    let (h, w) = (grid.height, grid.width);
    let stage = |lags: &[usize], target: usize, channels: usize| {
        let mut data = Vec::with_capacity(channels * frame_len);
        for &lag in lags {
            data.extend_from_slice(&frames[target - lag]);
        }
        Tensor::from_vec(data, &[1, channels, h, w])
    };
    let first = spec.min_target();
    let mut infer_ms = Vec::with_capacity(INFER_CALLS);
    if frames.len() > first {
        let tape = Tape::forward_only();
        let session = Session::new(&tape);
        for call in 0..INFER_CALLS {
            let target = first + call % (frames.len() - first);
            let c = stage(&spec.closeness_lags(), target, 2 * spec.lc);
            let p = stage(&spec.period_lags(), target, 2 * spec.lp);
            let tr = stage(&spec.trend_lags(), target, 2 * spec.lt);
            tape.reset();
            session.reset();
            let t = Instant::now();
            let outp = model.infer_raw(&session, &c, &p, &tr);
            infer_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(outp);
        }
    }
    let infer = Summary::of(&infer_ms);
    out.metric("core.infer_raw_ms", infer.p50.unwrap_or(f64::NAN));
    out.note(format!(
        "probes over {} frames: push {:.3} us, on_ingest {:.3} us, {} sweeps at {:.4} ms; infer_raw {}",
        frames.len(),
        push_s * 1e6 / n,
        quality_s * 1e6 / n,
        sweeper.sweeps(),
        sweep_s * 1e3 / sweeper.sweeps().max(1) as f64,
        infer.render("ms")
    ));
    infer
}
