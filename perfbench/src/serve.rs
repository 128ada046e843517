//! `serve_forecast` and `serve_ingest`: the in-process daemon (`Engine` +
//! `Server` at default options) serving a quick-profile MUSE-Net whose
//! weights come from a short fit with a fixed seed during set-up.
//!
//! * `serve_forecast` is an **open loop** of independent dashboard
//!   readers: a seeded schedule at [`OFFERED_RATE`], horizons drawn
//!   from [`HORIZON_MIX`], about one sensor ingest per [`INGEST_EVERY`]
//!   requests. Latency is timed from each request's due time. A closed-loop
//!   capacity phase of the same mix follows; its rate is `ops_per_s`.
//! * `serve_ingest` (report-only) is a sensor backfill sending frames at
//!   [`INGEST_RATE`] beside a closed-loop `h=1` reader, whose rate is
//!   `ops_per_s`; ingest latency is timed from each frame's due time.
//!   Frames come from the seeded city simulator and never repeat; a
//!   persistent 3x level shift starts at a fixed frame and the
//!   `flow_level_shift` alert must fire on `/alerts`.
//!
//! Every response must be 2xx and parse; a seeded sample of forecasts must
//! equal `MuseNet::predict_multi_step` bit for bit over the same frames,
//! keyed by `target_index`; ingest acks must carry consecutive indices.

use crate::client::{alert_state, Daemon, Direct, Http};
use crate::stats::{self, Summary, Windowed};
use crate::stream::{city_stream, Op, Schedule};
use crate::train::{self, TracedFit};
use crate::{probes, Args, Outcome};
use muse_eval::{prepare, Prepared};
use muse_obs as obs;
use muse_serve::{Engine, EngineOptions, Server, ServerOptions};
use muse_tensor::arena;
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::{DatasetPreset, FlowSeries};
use musenet::{MuseNet, MuseNetConfig, TrainReport, Trainer, TrainerOptions};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rate of the `serve_forecast` open loop (requests per second):
/// about a third of the 2-client closed-loop capacity measured on the
/// parent code (560–740 req/s over several sets of runs, 2 vCPUs, AVX2;
/// `perfbench calibrate` and the capacity phase). At half the capacity both
/// load threads were often busy in noisy periods and the tail swung with
/// the load generator's own queue.
pub const OFFERED_RATE: f64 = 200.0;
/// Share of `--seconds` the `serve_forecast` open loop runs; the rest is a
/// closed-loop capacity phase of the same mix, whose rate is `ops_per_s`.
const OPEN_SHARE: f64 = 0.7;
/// Rate used only to size a closed-loop phase's seeded operation list and
/// stream: over 3x the measured capacity, so the list never runs out.
const CAPACITY_CAP: f64 = 2000.0;
/// About one open-loop request in this many is an ingest.
pub const INGEST_EVERY: usize = 16;
/// Open-loop forecast horizons and their weights.
pub const HORIZON_MIX: [(usize, u32); 3] = [(1, 80), (3, 15), (12, 5)];
/// Frames per second the `serve_ingest` replayer sends: about a third of
/// the rate a back-to-back replayer reaches beside the `h=1` reader on the
/// parent code (720–775 frames/s, 2 vCPUs, AVX2; `perfbench calibrate`),
/// the same share [`OFFERED_RATE`] takes of its capacity. With the reader
/// keeping a coalescing window open most of the time, most paced frames
/// land inside one and wait for it to close — the hold this workload
/// exposes. A back-to-back replayer would instead fall into step with the
/// reader's gaps, making the held share, and the ingest median, swing from
/// run to run.
const INGEST_RATE: f64 = 250.0;
/// Width of the windows whose per-second medians make the end-to-end
/// figures.
const WINDOW_S: f64 = 1.0;
/// Share of forecasts checked bit for bit against `predict_multi_step`.
const VERIFY_SHARE: f64 = 0.02;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Seed of the served model's set-up fit (initialisation and sample
/// order). It is fixed, so every run serves the same model and `val_rmse`
/// on the serve workloads is a bit-exact accuracy guard: the short fit's
/// best validation RMSE moved by 12% between initialisations. The
/// benchmark seed draws the load.
const SERVED_SEED: u64 = 42;
/// Set-up fit of the served model: epochs and batches per epoch.
const SERVE_FIT_EPOCHS: usize = 3;
const SERVE_FIT_BATCHES: usize = 20;
/// The level shift starts this many frames after the warm-up fill: frame
/// 920, 8 am on day 38, a busy slot where a 3x shift is unambiguous.
const SHIFT_AFTER_WARMUP: usize = 248;
const SHIFT_FACTOR: f32 = 3.0;
/// `flow_level_shift` must reach firing within this many shifted frames.
const DETECT_WITHIN: usize = 24;
/// Load threads (connections in flight at most): one per core of the
/// reference box, and the replayer + reader pair of `serve_ingest`.
pub const LOAD_THREADS: usize = 2;

/// The served model: its config, trained weights, set-up fit report and
/// the trainer holding a reference copy on this thread for the bit-exact
/// checks.
struct Served {
    prepared: Prepared,
    cfg: MuseNetConfig,
    weights: Vec<(Vec<f32>, Vec<usize>)>,
    report: TrainReport,
    trainer: Trainer,
}

fn serve_fit_options() -> TrainerOptions {
    TrainerOptions {
        epochs: SERVE_FIT_EPOCHS,
        max_batches_per_epoch: SERVE_FIT_BATCHES,
        ..train::trainer_options(&train::profile(), SERVED_SEED)
    }
}

/// Prepare NYC-Bike at the quick profile and fit the served model briefly.
fn fit_served() -> Served {
    let profile = train::profile();
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let cfg = train::model_config(&prepared, &profile, SERVED_SEED);
    let mut trainer = Trainer::new(MuseNet::new(cfg.clone()), serve_fit_options());
    let report = trainer.fit(&prepared.scaled, &prepared.spec, &prepared.split.train, &prepared.split.val);
    let weights = muse_nn::snapshot(&trainer.model().params())
        .iter()
        .map(|t| (t.as_slice().to_vec(), t.dims().to_vec()))
        .collect();
    Served { prepared, cfg, weights, report, trainer }
}

/// A booted daemon: the engine, optionally fronted by HTTP.
struct Live {
    engine: Arc<Engine>,
    server: Option<Server>,
}

impl Live {
    /// Boot an engine with the served weights (optionally behind a server)
    /// and fill its window with the stream's first frames.
    fn boot(served: &Served, stream: &[Vec<f32>], http: bool) -> Result<Live, String> {
        let cfg = served.cfg.clone();
        let weights = served.weights.clone();
        let engine = Arc::new(Engine::start(
            move || {
                let model = MuseNet::new(cfg);
                let values: Vec<Tensor> = weights.into_iter().map(|(v, d)| Tensor::from_vec(v, &d)).collect();
                muse_nn::restore(&model.params(), &values);
                Ok(model)
            },
            EngineOptions::default(),
        )?);
        let capacity = engine.info().window_capacity;
        for (i, frame) in stream.iter().take(capacity).enumerate() {
            let ack = engine.ingest(frame.clone()).map_err(|e| format!("warm-up ingest {i}: {e}"))?;
            if ack.index != i as u64 {
                return Err(format!("warm-up ingest {i} acked as index {}", ack.index));
            }
        }
        let server = if http {
            Some(Server::start(Arc::clone(&engine), ServerOptions::default()).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Live { engine, server })
    }

    fn daemon(&self) -> Box<dyn Daemon> {
        match &self.server {
            Some(server) => Box::new(Http { addr: server.addr() }),
            None => Box::new(Direct { engine: Arc::clone(&self.engine) }),
        }
    }

    /// Spectral sweeps the engine has run (`/spectrum`'s `sweeps`).
    fn sweeps(&self) -> u64 {
        self.engine.spectrum().ok().and_then(|s| s.get("sweeps").and_then(|v| v.as_f64())).unwrap_or(0.0)
            as u64
    }

    fn shutdown(mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        self.engine.shutdown();
    }
}

/// Frames per second of `--seconds` a workload's load ingests at most.
fn ingest_per_s(workload: &str) -> f64 {
    if workload == "serve_ingest" {
        INGEST_RATE
    } else {
        (OFFERED_RATE * OPEN_SHARE + CAPACITY_CAP * (1.0 - OPEN_SHARE)) / INGEST_EVERY as f64
    }
}

/// The stream a workload ingests: the warm-up fill plus enough live
/// frames for `per_s` frames per second of its load, never repeated, with
/// the level shift for `serve_ingest`.
fn make_stream(args: &Args, served: &Served, per_s: f64) -> Vec<Vec<f32>> {
    let spec = served.cfg.spec;
    let capacity = spec.min_target();
    let ingest = args.workload == "serve_ingest";
    let live = (2.0 * per_s * args.seconds) as usize + 64;
    let shift = ingest.then_some(capacity + SHIFT_AFTER_WARMUP);
    city_stream(
        args.seed ^ 0xC17,
        served.cfg.grid,
        spec.intervals_per_day,
        capacity + live,
        shift,
        SHIFT_FACTOR,
    )
}

/// Everything one load phase observed.
#[derive(Default)]
struct Load {
    forecast_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// Completion times (s since the phase began) of `forecast_ms`.
    forecast_t: Vec<f64>,
    /// Completion times (s since the phase began) of `ingest_ms`.
    ingest_t: Vec<f64>,
    send_delay_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// (horizon, target_index, prediction) of the sampled forecasts.
    samples: Vec<(usize, u64, Vec<f32>)>,
    /// (acked index, stream position) of every ingest.
    acks: Vec<(u64, usize)>,
    elapsed_s: f64,
    /// Shifted frames until `flow_level_shift` fired (serve_ingest).
    fired_after: Option<usize>,
    /// Whether the replayer ran out of distinct frames.
    exhausted: bool,
    /// Spectral sweeps the engine ran (read at the end of the phase).
    sweeps: u64,
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn merge(&mut self, other: Load) {
        self.forecast_ms.extend(other.forecast_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.forecast_t.extend(other.forecast_t);
        self.ingest_t.extend(other.ingest_t);
        self.send_delay_ms.extend(other.send_delay_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.samples.extend(other.samples);
        self.acks.extend(other.acks);
        self.fired_after = self.fired_after.or(other.fired_after);
        self.exhausted |= other.exhausted;
    }
}

fn ms_since(t: Instant, now: Instant) -> f64 {
    now.saturating_duration_since(t).as_secs_f64() * 1e3
}

/// Drive the schedule from [`LOAD_THREADS`] threads pulling the next
/// operation in order; the `k`-th ingest sends stream frame
/// `first_frame + k`. With `closed_for`, the threads ignore the due times
/// and send back to back for that many seconds (latency from each send).
fn open_loop(
    daemon: &dyn Daemon,
    schedule: &Schedule,
    stream: &[Vec<f32>],
    first_frame: usize,
    closed_for: Option<f64>,
) -> Load {
    let mut ordinal = vec![0usize; schedule.ops.len()];
    let mut k = 0;
    for (slot, op) in ordinal.iter_mut().zip(&schedule.ops) {
        *slot = k;
        if *op == Op::Ingest {
            k += 1;
        }
    }
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Load::default());
    let begin = Instant::now();
    let end = closed_for.map(|s| begin + Duration::from_secs_f64(s));
    let last_done = Mutex::new(begin);
    std::thread::scope(|scope| {
        for _ in 0..LOAD_THREADS {
            scope.spawn(|| {
                let mut load = Load::default();
                let mut finished = begin;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= schedule.ops.len() || end.is_some_and(|end| Instant::now() >= end) {
                        break;
                    }
                    let due = if end.is_some() {
                        Instant::now()
                    } else {
                        let due = begin + schedule.due[i];
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        load.send_delay_ms.push(ms_since(due, Instant::now()));
                        due
                    };
                    load.attempted += 1;
                    match schedule.ops[i] {
                        Op::Forecast(h) => match daemon.forecast(h) {
                            Ok(resp) if resp.horizon == h && resp.prediction.len() == stream[0].len() => {
                                let done = Instant::now();
                                load.forecast_ms.push(ms_since(due, done));
                                load.forecast_t.push(ms_since(begin, done) / 1e3);
                                if schedule.verify[i] {
                                    load.samples.push((h, resp.target_index, resp.prediction));
                                }
                            }
                            Ok(resp) => {
                                load.fail(format!("forecast h={h}: malformed response (h={})", resp.horizon))
                            }
                            Err(e) => load.fail(format!("forecast h={h}: {e}")),
                        },
                        Op::Ingest => {
                            let pos = first_frame + ordinal[i];
                            match stream.get(pos).map(|f| daemon.ingest(f)) {
                                Some(Ok(index)) => {
                                    let done = Instant::now();
                                    load.ingest_ms.push(ms_since(due, done));
                                    load.ingest_t.push(ms_since(begin, done) / 1e3);
                                    load.acks.push((index, pos));
                                }
                                Some(Err(e)) => load.fail(format!("ingest: {e}")),
                                None => load.fail("ingest: stream exhausted".to_string()),
                            }
                        }
                    }
                    finished = Instant::now();
                }
                merged.lock().expect("merge lock").merge(load);
                let mut last = last_done.lock().expect("merge lock");
                *last = (*last).max(finished);
            });
        }
    });
    let mut load = merged.into_inner().expect("merge lock");
    load.elapsed_s = last_done.into_inner().expect("merge lock").duration_since(begin).as_secs_f64();
    load
}

/// `seconds` of backfill: a replayer sending stream frames from `start`
/// at `pace` frames per second (timed from each frame's due time), or back
/// to back with `None`, and polling `/alerts` after the shift until
/// `flow_level_shift` fires; beside it a closed-loop reader asks `h=1`
/// forecasts back to back.
fn backfill(
    daemon: &dyn Daemon,
    stream: &[Vec<f32>],
    start: usize,
    seconds: f64,
    seed: u64,
    pace: Option<f64>,
) -> Load {
    let begin = Instant::now();
    let end = begin + Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let (replayer, reader) = std::thread::scope(|scope| {
        let replayer = scope.spawn(|| {
            let mut load = Load::default();
            let mut rng = SeededRng::new(seed ^ 0x1E57);
            let shift = start + SHIFT_AFTER_WARMUP;
            let mut finished = begin;
            for k in 0.. {
                let due = match pace {
                    Some(rate) => {
                        begin
                            + Duration::from_secs_f64((k as f64 + 0.5 * rng.uniform(0.0, 1.0) as f64) / rate)
                    }
                    None => Instant::now(),
                };
                if due >= end {
                    break;
                }
                let pos = start + k;
                let Some(frame) = stream.get(pos) else {
                    load.exhausted = true;
                    break;
                };
                if pace.is_some() {
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    load.send_delay_ms.push(ms_since(due, Instant::now()));
                }
                load.attempted += 1;
                match daemon.ingest(frame) {
                    Ok(index) if index == pos as u64 => {
                        finished = Instant::now();
                        load.ingest_ms.push(ms_since(due, finished));
                        load.ingest_t.push(ms_since(begin, finished) / 1e3);
                        load.acks.push((index, pos));
                    }
                    Ok(index) => load.fail(format!("ingest of frame {pos} acked as index {index}")),
                    Err(e) => load.fail(format!("ingest {pos}: {e}")),
                }
                if pos >= shift && load.fired_after.is_none() {
                    load.attempted += 1;
                    match daemon.alerts() {
                        Ok(alerts) => {
                            if alert_state(&alerts, "flow_level_shift").as_deref() == Some("firing") {
                                load.fired_after = Some(pos - shift + 1);
                            }
                        }
                        Err(e) => load.fail(format!("alerts: {e}")),
                    }
                }
            }
            load.elapsed_s = finished.duration_since(begin).as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            load
        });
        let reader = scope.spawn(|| {
            let mut load = Load::default();
            let mut rng = SeededRng::new(seed ^ 0x4EAD);
            while Instant::now() < end && !stop.load(Ordering::Relaxed) {
                load.attempted += 1;
                let t = Instant::now();
                match daemon.forecast(1) {
                    Ok(resp) if resp.horizon == 1 && resp.prediction.len() == stream[0].len() => {
                        let done = Instant::now();
                        load.forecast_ms.push(ms_since(t, done));
                        load.forecast_t.push(ms_since(begin, done) / 1e3);
                        if rng.chance(VERIFY_SHARE) {
                            load.samples.push((1, resp.target_index, resp.prediction));
                        }
                    }
                    Ok(_) => load.fail("forecast: malformed response".to_string()),
                    Err(e) => load.fail(format!("forecast: {e}")),
                }
            }
            load
        });
        (replayer.join().expect("replayer thread"), reader.join().expect("reader thread"))
    });
    let elapsed = replayer.elapsed_s;
    let mut load = replayer;
    load.merge(reader);
    load.elapsed_s = elapsed;
    load
}

/// The seeded operation list of a closed-loop phase of the
/// `serve_forecast` mix: long enough for `seconds` at [`CAPACITY_CAP`].
fn capacity_schedule(seed: u64, seconds: f64) -> Schedule {
    Schedule::open_loop(seed ^ 0xCA9A, CAPACITY_CAP, seconds, INGEST_EVERY, &HORIZON_MIX, VERIFY_SHARE)
}

/// Run one phase of the workload's load against `daemon`.
fn drive(args: &Args, daemon: &dyn Daemon, stream: &[Vec<f32>], start: usize, seconds: f64) -> Load {
    if args.workload == "serve_forecast" {
        let schedule =
            Schedule::open_loop(args.seed, OFFERED_RATE, seconds, INGEST_EVERY, &HORIZON_MIX, VERIFY_SHARE);
        open_loop(daemon, &schedule, stream, start, None)
    } else {
        backfill(daemon, stream, start, seconds, args.seed, Some(INGEST_RATE))
    }
}

/// Output checks of one phase: consecutive ack indices, the sampled
/// forecasts bit for bit, and (serve_ingest) the level-shift alert.
fn check_load(
    out: &mut Outcome,
    args: &Args,
    served: &Served,
    stream: &[Vec<f32>],
    start: usize,
    load: &Load,
    label: &str,
) {
    let mut acked: Vec<u64> = load.acks.iter().map(|&(i, _)| i).collect();
    acked.sort_unstable();
    let consecutive = acked.iter().enumerate().all(|(k, &i)| i == (start + k) as u64);
    out.check(
        &format!("{label}: ingest acks carry consecutive indices"),
        consecutive,
        format!("{} acks from index {start}", acked.len()),
    );

    // Reference frames by acked index: the warm-up fill, then whatever
    // each ack says landed where.
    let known = start + acked.len();
    let mut frames: Vec<&[f32]> = stream[..start].iter().map(Vec::as_slice).collect();
    frames.resize(known, &[]);
    for &(index, pos) in &load.acks {
        if let Some(slot) = frames.get_mut(index as usize) {
            *slot = &stream[pos];
        }
    }
    let spec = served.cfg.spec;
    let grid = served.cfg.grid;
    let mut data = Vec::with_capacity(known * stream[0].len());
    for f in &frames {
        data.extend_from_slice(f);
    }
    let flows = FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[known, 2, grid.height, grid.width]));
    let (mut checked, mut mismatched) = (0usize, Vec::new());
    for (h, target, prediction) in &load.samples {
        let base = (*target + 1) as usize - h;
        if base > known || !consecutive {
            mismatched.push(format!("target {target}: base {base} beyond the {known} acked frames"));
            continue;
        }
        let want = served.trainer.model().predict_multi_step(&flows, &spec, &[base], *h);
        let same =
            want[h - 1].as_slice().iter().map(|v| v.to_bits()).eq(prediction.iter().map(|v| v.to_bits()));
        checked += 1;
        if !same {
            mismatched.push(format!("h={h} target {target}"));
        }
    }
    out.failed += mismatched.len() as u64;
    out.check(
        &format!("{label}: sampled forecasts equal predict_multi_step bit for bit"),
        mismatched.is_empty() && checked > 0,
        format!(
            "{checked} checked, {} mismatched {:?}",
            mismatched.len(),
            mismatched.iter().take(3).collect::<Vec<_>>()
        ),
    );
    if args.workload == "serve_ingest" {
        out.check(
            &format!("{label}: flow_level_shift fires on /alerts after the 3x shift"),
            load.fired_after.is_some_and(|f| f <= DETECT_WITHIN),
            match load.fired_after {
                Some(f) => format!("firing {f} frames after the shift"),
                None => "never reached firing".to_string(),
            },
        );
    }
    out.check(
        &format!("{label}: no failed operation"),
        load.failed == 0,
        format!("{} of {} failed {:?}", load.failed, load.attempted, load.errors),
    );
}

/// The phase's main latency sample: forecasts for the open loop, ingests
/// for the replayer.
fn main_latencies<'a>(args: &Args, load: &'a Load) -> &'a [f64] {
    if args.workload == "serve_forecast" {
        &load.forecast_ms
    } else {
        &load.ingest_ms
    }
}

/// Per-second medians of `(completion time, value)` samples of a phase.
fn per_second(t: &[f64], v: &[f64], elapsed_s: f64) -> Windowed {
    let samples: Vec<(f64, f64)> = t.iter().copied().zip(v.iter().copied()).collect();
    Windowed::over(&Windowed::windows(&samples, WINDOW_S, elapsed_s))
}

fn account(out: &mut Outcome, load: &Load, label: &str) {
    let succeeded = load.attempted - load.failed;
    out.note(format!(
        "{label}: attempted {} succeeded {succeeded} failed {} over {:.3} s",
        load.attempted, load.failed, load.elapsed_s
    ));
    out.note(format!("{label}: forecast latency {}", Summary::of(&load.forecast_ms).render("ms")));
    out.note(format!("{label}: ingest latency {}", Summary::of(&load.ingest_ms).render("ms")));
    if !load.send_delay_ms.is_empty() {
        let mut d = load.send_delay_ms.clone();
        d.sort_by(f64::total_cmp);
        out.note(format!(
            "{label}: generator lateness p99 {} ms, max {:.4} ms (n={})",
            stats::percentile(&d, 0.99).map_or("n/a".to_string(), |v| format!("{v:.4}")),
            d.last().copied().unwrap_or(0.0),
            d.len()
        ));
    }
    if let Some(f) = load.fired_after {
        out.note(format!("{label}: flow_level_shift firing {f} frames after the shift"));
    }
    if load.exhausted {
        out.note(format!("{label}: replayer used every distinct frame and stopped early"));
    }
}

/// `perfbench calibrate`: the closed-loop rates the paced loads are set
/// from, on the parent code — the 2-client capacity of the `serve_forecast`
/// mix and the rate of a back-to-back replayer beside the `h=1` reader.
/// [`OFFERED_RATE`] and [`INGEST_RATE`] are each about a third of theirs.
/// Each phase runs `--seconds` on a freshly booted daemon.
pub fn calibrate(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let served = fit_served();
    let stream = make_stream(args, &served, CAPACITY_CAP);
    let start = served.cfg.spec.min_target();
    for phase in ["forecast capacity", "closed-loop replayer"] {
        let live = match Live::boot(&served, &stream, true) {
            Ok(live) => live,
            Err(e) => {
                out.check(&format!("{phase}: daemon boots"), false, e);
                return out;
            }
        };
        let daemon = live.daemon();
        let (load, workload) = if phase == "forecast capacity" {
            let schedule = capacity_schedule(args.seed, args.seconds);
            (open_loop(daemon.as_ref(), &schedule, &stream, start, Some(args.seconds)), "serve_forecast")
        } else {
            (backfill(daemon.as_ref(), &stream, start, args.seconds, args.seed, None), "serve_ingest")
        };
        live.shutdown();
        account(&mut out, &load, phase);
        let args = Args { workload: workload.to_string(), ..args.clone() };
        check_load(&mut out, &args, &served, &stream, start, &load, phase);
        let rate = |n: usize| n as f64 / load.elapsed_s.max(1e-9);
        out.note(format!(
            "{phase}: {:.1} forecasts/s, {:.1} ingests/s",
            rate(load.forecast_ms.len()),
            rate(load.ingest_ms.len())
        ));
    }
    out
}

/// Untraced serve run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut state: Option<(Served, Live)> = None;
    let mut stream = Vec::new();
    for _ in 0..SETUP_REPEATS {
        if let Some((_, live)) = state.take() {
            live.shutdown();
        }
        let t = Instant::now();
        let served = fit_served();
        let t_fit = t.elapsed();
        if stream.is_empty() {
            // Input generation, not set-up: kept out of the timing.
            let t = Instant::now();
            stream = make_stream(args, &served, ingest_per_s(&args.workload));
            out.note(format!(
                "stream: {} frames generated in {:.3} s",
                stream.len(),
                t.elapsed().as_secs_f64()
            ));
        }
        let t = Instant::now();
        match Live::boot(&served, &stream, true) {
            Ok(live) => {
                setup_s.push((t_fit + t.elapsed()).as_secs_f64());
                state = Some((served, live));
            }
            Err(e) => {
                out.check("daemon boots", false, e);
                return out;
            }
        }
    }
    let (served, live) = state.expect("set-up ran");
    let start = served.cfg.spec.min_target();
    let forecast = args.workload == "serve_forecast";
    let paced_s = if forecast { args.seconds * OPEN_SHARE } else { args.seconds };
    let load = drive(args, live.daemon().as_ref(), &stream, start, paced_s);
    live.shutdown();
    out.attempted += load.attempted;
    out.failed += load.failed;
    account(&mut out, &load, &args.workload);
    check_load(&mut out, args, &served, &stream, start, &load, &args.workload);
    let (paced, offered) = if forecast {
        (load.forecast_ms.len() + load.ingest_ms.len(), OFFERED_RATE)
    } else {
        (load.ingest_ms.len(), INGEST_RATE)
    };
    out.note(format!(
        "{}: paced goodput {:.3} ops/s at {offered} offered",
        args.workload,
        paced as f64 / load.elapsed_s.max(1e-9)
    ));

    // `ops_per_s` counts operations whose pace the daemon sets: the
    // closed-loop reader's forecasts on `serve_ingest`, and on
    // `serve_forecast` a closed-loop capacity phase of the same mix on a
    // freshly booted daemon, its ingests continuing the stream.
    let (latency, ops) = if forecast {
        let latency = per_second(&load.forecast_t, &load.forecast_ms, load.elapsed_s);
        let seconds = args.seconds - paced_s;
        let first = load.acks.iter().map(|&(_, pos)| pos + 1).max().unwrap_or(start);
        let capacity = match Live::boot(&served, &stream, true) {
            Ok(live) => {
                let schedule = capacity_schedule(args.seed, seconds);
                let cap = open_loop(live.daemon().as_ref(), &schedule, &stream, first, Some(seconds));
                live.shutdown();
                cap
            }
            Err(e) => {
                out.check("capacity: daemon boots", false, e);
                return out;
            }
        };
        out.attempted += capacity.attempted;
        out.failed += capacity.failed;
        account(&mut out, &capacity, "capacity");
        check_load(&mut out, args, &served, &stream, start, &capacity, "capacity");
        let done: Vec<f64> = capacity.forecast_t.iter().chain(&capacity.ingest_t).copied().collect();
        (latency, per_second(&done, &vec![0.0; done.len()], capacity.elapsed_s).rate)
    } else {
        let latency = per_second(&load.ingest_t, &load.ingest_ms, load.elapsed_s);
        (latency, per_second(&load.forecast_t, &load.forecast_ms, load.elapsed_s).rate)
    };
    out.note(format!(
        "{}: per-second medians over {} windows: p50 {:?} ms, p90 {:?} ms; {:.3} ops/s",
        args.workload,
        latency.windows,
        latency.p50,
        latency.p90,
        ops.unwrap_or(f64::NAN)
    ));
    out.note(format!("set-up repeats: {setup_s:.4?} s"));
    out.metric("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN));
    out.metric("ops_per_s", ops.unwrap_or(f64::NAN));
    out.metric("latency_p50_ms", latency.p50.unwrap_or(f64::NAN));
    train::record_accuracy(&mut out, &served.trainer, &served.prepared, served.report.best_val_rmse);
    out.metric("peak_rss_mb", crate::peak_rss_mb().unwrap_or(f64::NAN));
    out
}

/// Snapshot of a histogram's (count, sum).
fn hist(name: &str) -> (u64, f64) {
    let h = obs::metrics::histogram_owned(name);
    (h.count(), h.sum())
}

/// Polls the engine's `serve.forecast.rollout_ns` histogram and recovers
/// each rollout's duration from the change of its running sum. Rollouts
/// are at least one batch window apart, so each poll sees at most one.
struct RolloutWatcher {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Vec<f64>, u64)>,
}

impl RolloutWatcher {
    fn start() -> RolloutWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let h = obs::metrics::histogram_owned("serve.forecast.rollout_ns");
            let (mut count, mut sum) = (h.count(), h.sum());
            let (mut samples, mut merged) = (Vec::new(), 0u64);
            while !flag.load(Ordering::Relaxed) {
                let c = h.count();
                if c != count {
                    // `record` bumps the count before the sum: wait for it.
                    let mut s = h.sum();
                    for _ in 0..100_000 {
                        if s != sum {
                            break;
                        }
                        std::hint::spin_loop();
                        s = h.sum();
                    }
                    let c = h.count();
                    if c == count + 1 {
                        samples.push((s - sum) / 1e6);
                    } else {
                        merged += c - count;
                    }
                    count = c;
                    sum = h.sum();
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            (samples, merged)
        });
        RolloutWatcher { stop, handle }
    }

    fn finish(self) -> (Vec<f64>, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// Traced serve run: the set-up fit through the traced step loop, then the
/// load over HTTP untraced (split around the next phase), over HTTP
/// traced, and against the engine directly (traced), then the ingest-path
/// probes.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let served = fit_served();
    let opts = serve_fit_options();
    let stream = make_stream(args, &served, ingest_per_s(&args.workload));
    let start = served.cfg.spec.min_target();

    // Training layers, on the set-up fit.
    obs::reset_metrics();
    obs::enable();
    let traced: TracedFit = train::traced_fit(&served.prepared, &served.cfg, &opts);
    obs::disable();
    train::check_reproduces(&mut out, &served.report, &traced, "set-up fit");
    train::training_layer_metrics(&mut out, &traced, opts.epochs);

    // One load phase on a freshly booted daemon, HTTP-fronted or not.
    let run_phase = |out: &mut Outcome, http: bool, seconds: f64, label: &str| -> Option<Load> {
        let live = match Live::boot(&served, &stream, http) {
            Ok(live) => live,
            Err(e) => {
                out.check(&format!("{label}: daemon boots"), false, e);
                return None;
            }
        };
        let mut load = drive(args, live.daemon().as_ref(), &stream, start, seconds);
        load.sweeps = live.sweeps();
        live.shutdown();
        out.attempted += load.attempted;
        out.failed += load.failed;
        account(out, &load, label);
        check_load(out, args, &served, &stream, start, &load, label);
        Some(load)
    };

    // HTTP untraced around HTTP traced: half the untraced load runs before
    // the traced phase and half after, so drift across phases cancels out
    // of the tracing overhead.
    let Some(mut untraced) = run_phase(&mut out, true, args.seconds / 2.0, "http-untraced-1") else {
        return out;
    };
    obs::reset_metrics();
    obs::enable();
    let Some(http) = run_phase(&mut out, true, args.seconds, "http-traced") else { return out };
    obs::disable();
    let Some(after) = run_phase(&mut out, true, args.seconds / 2.0, "http-untraced-2") else { return out };
    untraced.merge(after);

    // Phase C: engine-direct, traced, with the rollout watcher.
    obs::reset_metrics();
    obs::enable();
    let k0 = train::kernel_totals();
    let a0 = arena::stats();
    let watcher = RolloutWatcher::start();
    let direct = run_phase(&mut out, false, args.seconds, "engine-direct");
    let (rollouts, merged) = watcher.finish();
    let mut kernels = [(0u64, 0u64, 0u64); 8];
    train::accumulate_kernels(&mut kernels, &k0, &train::kernel_totals());
    let a1 = arena::stats();
    let (batch_n, batch_sum) = hist("serve.forecast.batch_size");
    let (rollout_n, rollout_sum) = hist("serve.forecast.rollout_ns");
    let (infer_n, _) = hist("span.serve.forecast.batch/model.infer");
    let Some(direct) = direct else { return out };

    let infer =
        probes::serving_layers(&mut out, served.trainer.model(), &stream[..start + direct.acks.len()]);
    obs::disable();

    let http_f = Summary::of(&http.forecast_ms);
    let direct_f = Summary::of(&direct.forecast_ms);
    let http_i = Summary::of(&http.ingest_ms);
    let direct_i = Summary::of(&direct.ingest_ms);
    let roll = Summary::of(&rollouts);
    let diff = |a: Option<f64>, b: Option<f64>| a.zip(b).map_or(f64::NAN, |(a, b)| a - b);
    let rollout_mean = rollout_sum / 1e6 / rollout_n.max(1) as f64;
    let steps = infer_n as f64 / rollout_n.max(1) as f64;
    out.metric("serve.http_ms", diff(http_f.p50, direct_f.p50));
    out.metric("serve.engine.forecast_p50_ms", direct_f.p50.unwrap_or(f64::NAN));
    out.metric("serve.engine.forecast_p99_ms", direct_f.p99.unwrap_or(f64::NAN));
    out.metric("serve.batch.size", batch_sum / batch_n.max(1) as f64);
    out.metric("serve.batch.wait_ms", direct_f.mean - rollout_mean);
    out.metric("serve.rollout_p50_ms", roll.p50.unwrap_or(f64::NAN));
    out.metric("serve.rollout_p99_ms", roll.p99.unwrap_or(f64::NAN));
    out.metric("serve.rollout_steps", steps);
    out.metric("serve.engine.ingest_p50_ms", direct_i.p50.unwrap_or(f64::NAN));
    out.metric("serve.engine.ingest_p99_ms", direct_i.p99.unwrap_or(f64::NAN));
    out.metric("serve.ingest_wait_ms", diff(http_i.p50, direct_i.p50));
    out.metric("fft.sweeps", direct.sweeps as f64);
    // Kernels and arena per rollout step on the serving path.
    train::kernel_metrics(
        &mut out,
        &kernels,
        (a1.alloc_bytes - a0.alloc_bytes, a1.pool_hits - a0.pool_hits, a1.pool_misses - a0.pool_misses),
        infer_n,
    );

    // Reconciliation of the mean HTTP forecast: HTTP front end + batch
    // window wait + model passes + the rest of the rollout.
    let wall = http_f.mean;
    let passes = steps * infer.mean;
    let unattributed = rollout_mean - passes;
    let attributed = (http_f.mean - direct_f.mean) + (direct_f.mean - rollout_mean) + passes;
    out.metric("serve.unattributed_ms", unattributed);
    out.metric("serve.attributed_pct", 100.0 * attributed / wall);
    out.note(format!(
        "reconcile serve: HTTP forecast mean {wall:.4} ms = http {:.4} + batch wait {:.4} + {steps:.3} passes x infer_raw {:.4} + unattributed {unattributed:.4} ms ({:.2}% attributed); rollout watcher {} samples ({merged} merged)",
        http_f.mean - direct_f.mean,
        direct_f.mean - rollout_mean,
        infer.mean,
        100.0 * attributed / wall,
        rollouts.len()
    ));
    out.note(format!(
        "reconcile ingest: HTTP ingest mean {:.4} ms = wait {:.4} + engine {:.4} ms",
        http_i.mean,
        http_i.mean - direct_i.mean,
        direct_i.mean
    ));

    let base = Summary::of(main_latencies(args, &untraced));
    let traced_main = Summary::of(main_latencies(args, &http));
    let overhead = diff(traced_main.p50, base.p50) / base.p50.unwrap_or(f64::NAN) * 100.0;
    out.metric("obs.overhead_pct", overhead);
    out.note(format!(
        "overhead: traced HTTP p50 {:?} ms vs untraced {:?} ms ({overhead:+.2}%)",
        traced_main.p50, base.p50
    ));
    out
}
