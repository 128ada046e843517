//! `perfbench` — end-to-end and per-layer benchmark of MUSE-Net
//! quick-profile training and the `muse-serve` daemon under load.
//!
//! ```text
//! perfbench --workload <train_quick|serve_forecast|serve_ingest> --seed <n>
//!           [--seconds <s>] [--trace <0|1>]
//! perfbench calibrate --seed <n> [--seconds <s>]
//! perfbench summarize <result-file>...
//! ```
//!
//! One invocation runs one workload in this process. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs the same
//! workload again with telemetry on and prints the per-layer metrics, each
//! tagged with the end-to-end metric it feeds. The last line of standard
//! output is always one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Everything before it is a human-readable report (`# ` lines) plus an
//! environment stamp. See `perfbench/README.md` for the metric catalogue.

mod client;
mod layers;
mod probes;
mod serve;
mod stats;
mod stream;
mod summarize;
mod train;

use muse_obs::Json;
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` declares the first two; `serve_ingest`
/// runs the same way but is report-only (its figures swing with host CPU
/// steal by more than any bound the benchmark may set; see the README).
pub const WORKLOADS: [&str; 3] = ["train_quick", "serve_forecast", "serve_ingest"];

/// End-to-end metrics: name, unit. Every workload reports every one; the
/// per-workload meaning is in the README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("val_rmse", "scaled"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts, bit mismatches, …).
    pub detail: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (training steps, HTTP requests, …).
    pub attempted: u64,
    /// Operations that failed: refused, timed out, non-2xx, wrong output.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Measured metrics by name (units come from the metric tables).
    pub metrics: Vec<(String, f64)>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check; any failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.to_string(), ok, detail: detail.into() });
    }

    /// Record a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Add a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       perfbench calibrate --seed <n> [--seconds <s>]\n       perfbench summarize <result-file>...",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_stamp(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("simd_level", Json::Str(muse_tensor::simd::level_name().to_string())),
        ("pool_threads", Json::Num(muse_parallel::current_threads() as f64)),
        ("load_threads", Json::Num(serve::LOAD_THREADS as f64)),
        ("offered_rate_per_s", Json::Num(serve::OFFERED_RATE)),
        ("git_commit", Json::Str(git_commit())),
    ])
}

/// Keep every core busy for a moment before anything is timed: an idle
/// virtual CPU runs its first few hundred milliseconds of work up to 2x
/// slower, which would land in the set-up times.
fn warm_up() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let until = std::time::Instant::now() + std::time::Duration::from_millis(WARM_UP_MS);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let mut x = 1u64;
                while std::time::Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
                    }
                }
            });
        }
    });
}

/// A snapshot of how fast the machine is right now, printed with the
/// result so a slow run can be told from a slow program: a fixed integer
/// loop (ms) and the round trip between two threads over a channel (us),
/// each the median of several tries.
fn machine_probe() -> String {
    let loop_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 1u64;
            for _ in 0..2_000_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let (ping_tx, ping_rx) = std::sync::mpsc::channel::<u32>();
    let (pong_tx, pong_rx) = std::sync::mpsc::channel::<u32>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let round_us: Vec<f64> = (0..500)
        .map(|i| {
            let t = std::time::Instant::now();
            let _ = ping_tx.send(i);
            let _ = pong_rx.recv();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(ping_tx);
    let _ = echo.join();
    format!(
        "machine: integer loop {:.3} ms, thread round trip {:.1} us (medians)",
        stats::median(&loop_ms).unwrap_or(f64::NAN),
        stats::median(&round_us).unwrap_or(f64::NAN)
    )
}

/// Stolen and total CPU time of the machine so far, in clock ticks
/// (`/proc/stat`): time the host ran other tenants on this machine's
/// virtual CPUs.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Length of the warm-up spin.
const WARM_UP_MS: u64 = 1000;

fn run_workload(args: &Args) -> Outcome {
    match (args.workload.as_str(), args.trace) {
        ("train_quick", false) => train::run(args),
        ("train_quick", true) => train::run_traced(args),
        (_, false) => serve::run(args),
        (_, true) => serve::run_traced(args),
    }
}

/// Assemble the result line: exactly the metric set of the run's kind, in
/// table order. A metric the workload failed to produce is a failed check.
fn result_json(args: &Args, outcome: &mut Outcome) -> Json {
    let table: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::with_capacity(table.len());
    let mut missing = Vec::new();
    for (name, unit) in table {
        let value = outcome.metrics.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            // A per-layer percentile without ten samples beyond it is not
            // reportable; it prints as 0 with a note, and is no failure.
            Some(_) if args.trace => {
                outcome.notes.push(format!("{name}: not reportable in this run, printed as 0"));
                0.0
            }
            _ => {
                missing.push(name);
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))]),
        ));
    }
    if !missing.is_empty() {
        outcome.check(
            "every metric measured",
            false,
            format!("missing or non-finite: {}", missing.join(", ")),
        );
    }
    let correct = outcome.checks.iter().all(|c| c.ok);
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("calibrate") {
        let rest =
            ["--workload".to_string(), "serve_ingest".to_string()].into_iter().chain(argv[1..].to_vec());
        let args = match parse_args(&rest.collect::<Vec<_>>()) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("perfbench calibrate: {e}\n{}", usage());
                return ExitCode::from(2);
            }
        };
        warm_up();
        let outcome = serve::calibrate(&args);
        for line in &outcome.notes {
            println!("# {line}");
        }
        for c in &outcome.checks {
            println!("# check {} {}: {}", if c.ok { "PASS" } else { "FAIL" }, c.name, c.detail);
        }
        return if outcome.checks.iter().all(|c| c.ok) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if argv.first().map(String::as_str) == Some("summarize") {
        return match summarize::run(&argv[1..]) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench summarize: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("# env {}", env_stamp(&args).render());
    warm_up();
    println!("# {}", machine_probe());
    let steal0 = cpu_steal();
    let mut outcome = run_workload(&args);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, cpu_steal()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        outcome.note(format!("machine: {share:.1}% of CPU time stolen by the host during the run"));
    }
    let result = result_json(&args, &mut outcome);
    for line in &outcome.notes {
        println!("# {line}");
    }
    if args.trace {
        for line in layers::tagged_lines(&args.workload, &outcome.metrics) {
            println!("# {line}");
        }
    }
    for c in &outcome.checks {
        println!("# check {} {}: {}", if c.ok { "PASS" } else { "FAIL" }, c.name, c.detail);
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}
