//! Trace-driven performance regression gate.
//!
//! Replays a `MUSE_OBS` JSONL trace produced by the kernels bench and
//! compares it against a committed baseline (`BENCH_kernels.json`):
//!
//! * per-bench **min_ns** (the per-iteration minimum, robust to scheduler
//!   noise) must stay within a relative tolerance band of the baseline;
//! * per-kernel **bytes per call** from the `kernel.summary` event must
//!   stay within the same band. Per-call traffic for a fixed shape is
//!   deterministic, but the summary aggregates every bench that touches a
//!   kernel and the harness calibrates iteration counts per run, so the
//!   shape mix (and with it the average) jitters; the band still catches a
//!   kernel whose data movement genuinely changed.
//!
//! Raw `kernel.summary` nano totals are *not* compared: the harness
//! calibrates iteration counts per run, so totals are not comparable
//! across runs; only per-iteration statistics are.
//!
//! Baselines are stamped with the SIMD level (`simd_level`) they were
//! recorded under; `check` refuses to compare timings across instruction
//! sets (an AVX2 baseline would mask a scalar-machine regression, and a
//! scalar baseline would make AVX2 runs look like free wins).
//!
//! Bench pairs named `<base>_jobs<n>` / `<base>` (the kernels bench emits
//! `fig9_mini_fleet_jobs4`) gate the **fleet speedup**: `record` stamps the
//! measured sequential-over-fleet ratio into the baseline's `fleet` block,
//! and `check` fails when the current ratio — from the *same trace*,
//! so machine speed cancels out — falls below the stamp by more than the
//! tolerance band. A scheduler change that quietly serializes the fleet
//! (or oversubscribes it into a slowdown) fails the gate even though each
//! individual bench still passes its own min_ns band.
//!
//! ```text
//! perf_gate record <trace.jsonl> <baseline.json>       write a new baseline
//! perf_gate check  <trace.jsonl> <baseline.json> [tol] fail on regressions
//! perf_gate doctor <baseline.json> <out.json>          corrupt a copy of the
//!                                                      baseline (CI negative test)
//! perf_gate doctor-alloc <baseline.json> <out.json>    corrupt the kernel
//!                                                      bytes-per-call instead
//!                                                      (allocation-gate
//!                                                      negative test)
//! perf_gate doctor-isa <baseline.json> <out.json>      flip the recorded SIMD
//!                                                      level (ISA-mismatch
//!                                                      negative test)
//! perf_gate doctor-fleet <baseline.json> <out.json>    inflate the stamped
//!                                                      fleet speedups
//!                                                      (fleet-gate negative
//!                                                      test)
//! ```
//!
//! Exit codes: 0 pass, 1 regression or malformed input, 2 usage error.

use muse_obs::{json, read_trace, Json};
use muse_tensor::simd;
use muse_trace::tolerance::{self, DEFAULT_TOLERANCE};
use std::process::ExitCode;

/// How much `doctor` shrinks baseline timings: makes any honest run look
/// at least this many times slower than "baseline", guaranteeing failure.
const DOCTOR_SHRINK: f64 = 10.0;

/// What `doctor-alloc` sets every kernel's baseline bytes-per-call to: far
/// from any honest measurement (including an honest 0), so the two-sided
/// drift check must flag every kernel.
const DOCTOR_ALLOC_BYTES: f64 = 1e12;

/// How much `doctor-fleet` inflates the stamped fleet speedups: no honest
/// run gets 10x faster than its own recorded ratio, so the fleet rule must
/// trip while every other rule stays honest.
const DOCTOR_FLEET_INFLATE: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [mode, trace, baseline] if mode == "record" => record(trace, baseline),
        [mode, trace, baseline] if mode == "check" => check(trace, baseline, None),
        [mode, trace, baseline, tol] if mode == "check" => check(trace, baseline, Some(tol)),
        [mode, baseline, out] if mode == "doctor" => doctor(baseline, out),
        [mode, baseline, out] if mode == "doctor-alloc" => doctor_alloc(baseline, out),
        [mode, baseline, out] if mode == "doctor-isa" => doctor_isa(baseline, out),
        [mode, baseline, out] if mode == "doctor-fleet" => doctor_fleet(baseline, out),
        _ => {
            eprintln!(
                "usage: perf_gate record <trace.jsonl> <baseline.json>\n       \
                 perf_gate check  <trace.jsonl> <baseline.json> [tolerance]\n       \
                 perf_gate doctor <baseline.json> <doctored.json>\n       \
                 perf_gate doctor-alloc <baseline.json> <doctored.json>\n       \
                 perf_gate doctor-isa <baseline.json> <doctored.json>\n       \
                 perf_gate doctor-fleet <baseline.json> <doctored.json>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-bench timing and per-kernel traffic extracted from one trace.
struct TraceStats {
    /// `(name, min_ns, mean_ns)` per `bench.result` event, in order.
    benches: Vec<(String, f64, f64)>,
    /// `(kernel, bytes_per_call)` from the final `kernel.summary` event.
    kernels: Vec<(String, f64)>,
}

fn load_trace(path: &str) -> Result<TraceStats, String> {
    let events = read_trace(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let mut benches = Vec::new();
    let mut kernels = Vec::new();
    for ev in &events {
        match ev.get("ev").and_then(Json::as_str) {
            Some("bench.result") => {
                let name = ev.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
                let min = ev.get("min_ns").and_then(Json::as_f64).unwrap_or(0.0);
                let mean = ev.get("mean_ns").and_then(Json::as_f64).unwrap_or(0.0);
                if name.is_empty() || min <= 0.0 {
                    return Err(format!("malformed bench.result in {path}: {}", ev.render()));
                }
                benches.push((name, min, mean));
            }
            Some("kernel.summary") => {
                // Later summaries replace earlier ones: only the final
                // totals cover the whole bench run.
                kernels.clear();
                let Some(Json::Obj(ks)) = ev.get("metrics").and_then(|m| m.get("kernels")).cloned() else {
                    continue;
                };
                for (kname, stat) in ks {
                    let calls = stat.get("calls").and_then(Json::as_f64).unwrap_or(0.0);
                    let bytes = stat.get("bytes").and_then(Json::as_f64).unwrap_or(0.0);
                    if calls > 0.0 {
                        kernels.push((kname, bytes / calls));
                    }
                }
            }
            _ => {}
        }
    }
    if benches.is_empty() {
        return Err(format!("trace {path} contains no bench.result events"));
    }
    Ok(TraceStats { benches, kernels })
}

/// `(fleet bench name, sequential-over-fleet speedup)` for every
/// `<base>_jobs<n>` bench whose unfleeted sibling is in the same trace.
fn fleet_speedups(stats: &TraceStats) -> Vec<(String, f64)> {
    stats
        .benches
        .iter()
        .filter_map(|(name, fleet_min, _)| {
            let base = fleet_base_name(name)?;
            let (_, base_min, _) = stats.benches.iter().find(|(n, _, _)| n == base)?;
            Some((name.clone(), base_min / fleet_min))
        })
        .collect()
}

fn baseline_json(stats: &TraceStats, tolerance: f64) -> Json {
    Json::obj([
        ("tolerance", Json::Num(tolerance)),
        ("simd_level", Json::Str(simd::level_name().to_string())),
        (
            "fleet",
            Json::Obj(
                fleet_speedups(stats)
                    .into_iter()
                    .map(|(name, s)| (name, Json::obj([("speedup", Json::Num(s))])))
                    .collect(),
            ),
        ),
        (
            "benches",
            Json::Obj(
                stats
                    .benches
                    .iter()
                    .map(|(name, min, mean)| {
                        (
                            name.clone(),
                            Json::obj([("min_ns", Json::Num(*min)), ("mean_ns", Json::Num(*mean))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "kernels",
            Json::Obj(
                stats
                    .kernels
                    .iter()
                    .map(|(name, bpc)| (name.clone(), Json::obj([("bytes_per_call", Json::Num(*bpc))])))
                    .collect(),
            ),
        ),
    ])
}

fn record(trace: &str, baseline: &str) -> Result<(), String> {
    let stats = load_trace(trace)?;
    let json = baseline_json(&stats, DEFAULT_TOLERANCE);
    std::fs::write(baseline, json.render() + "\n")
        .map_err(|e| format!("cannot write baseline {baseline}: {e}"))?;
    println!(
        "perf_gate: recorded {} benches and {} kernels into {baseline}",
        stats.benches.len(),
        stats.kernels.len()
    );
    Ok(())
}

fn load_baseline(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e:?}"))
}

fn check(trace: &str, baseline_path: &str, cli_tolerance: Option<&String>) -> Result<(), String> {
    let stats = load_trace(trace)?;
    let baseline = load_baseline(baseline_path)?;
    // Precedence: CLI arg, then MUSE_PERF_TOL (both via the shared
    // resolver), then the tolerance the baseline was recorded with.
    let tolerance = tolerance::resolve(cli_tolerance.map(String::as_str))
        .unwrap_or_else(|| baseline.get("tolerance").and_then(Json::as_f64).unwrap_or(DEFAULT_TOLERANCE));
    let mut failures = Vec::new();
    println!("perf_gate: tolerance +{:.0}% vs {baseline_path}", tolerance * 100.0);

    // Timings are only comparable within one instruction set: an AVX2
    // baseline would mask regressions on a scalar machine, and a scalar
    // baseline would make every AVX2 run look like a free win.
    let current = simd::level_name();
    match baseline.get("simd_level").and_then(Json::as_str) {
        Some(recorded) if recorded != current => {
            return Err(format!(
                "baseline {baseline_path} was recorded at SIMD level `{recorded}` but this run \
                 dispatches `{current}`; timings are not comparable across instruction sets — \
                 re-record on this machine (scripts/perf_gate.sh record)"
            ));
        }
        Some(_) => {}
        None => println!(
            "  note: baseline has no simd_level stamp (recorded pre-SIMD); current level is `{current}`"
        ),
    }

    let empty = Vec::new();
    let base_benches = match baseline.get("benches") {
        Some(Json::Obj(fields)) => fields,
        _ => &empty,
    };
    for (name, want) in base_benches {
        let want_min = want.get("min_ns").and_then(Json::as_f64).unwrap_or(0.0);
        match stats.benches.iter().find(|(n, _, _)| n == name) {
            None => failures.push(format!("bench `{name}` missing from trace")),
            Some((_, got_min, _)) => {
                let change = tolerance::rel_change(want_min, *got_min);
                let fail = tolerance::exceeds(want_min, *got_min, tolerance);
                let verdict = if fail { "FAIL" } else { "ok" };
                println!(
                    "  {verdict:<4} {name:<40} baseline {want_min:>12.0} ns  current {got_min:>12.0} ns  ({:+.1}%)",
                    change * 100.0
                );
                if fail {
                    failures.push(format!(
                        "bench `{name}` regressed: {got_min:.0} ns vs baseline {want_min:.0} ns \
                         (+{:.1}%, tolerance +{:.0}%)",
                        change * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    for (name, _, _) in &stats.benches {
        if !base_benches.iter().any(|(n, _)| n == name) {
            println!("  new  {name:<40} (not in baseline; re-record to start gating it)");
        }
    }

    // Fleet-speedup rule: every `<base>_jobs<n>` bench is compared to its
    // sequential sibling within this trace (machine speed cancels out) and
    // the ratio must not fall below the baseline's stamped speedup by more
    // than the tolerance band. The stamp is recorded on the gating machine,
    // so a 1-core runner gates ~1x and a many-core runner gates its real
    // parallel win — each catches the fleet quietly serializing on its own
    // hardware.
    let base_fleet = match baseline.get("fleet") {
        Some(Json::Obj(fields)) => fields,
        _ => &empty,
    };
    for (name, speedup) in fleet_speedups(&stats) {
        match base_fleet.iter().find(|(n, _)| n == &name) {
            None => println!("  new  {name:<40} fleet speedup {speedup:.2}x (not in baseline)"),
            Some((_, want)) => {
                let want_speedup = want.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                let floor = want_speedup / (1.0 + tolerance);
                let fail = speedup < floor;
                let verdict = if fail { "FAIL" } else { "ok" };
                println!(
                    "  {verdict:<4} {name:<40} fleet speedup {speedup:.2}x  baseline {want_speedup:.2}x  (floor {floor:.2}x)"
                );
                if fail {
                    failures.push(format!(
                        "bench `{name}` fleet speedup fell to {speedup:.2}x vs stamped \
                         {want_speedup:.2}x (floor {floor:.2}x at tolerance +{:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    for (name, _, _) in &stats.benches {
        if fleet_base_name(name).is_some_and(|base| !stats.benches.iter().any(|(n, _, _)| n == base)) {
            failures.push(format!(
                "bench `{name}` has no sequential sibling in the trace; cannot gate fleet speedup"
            ));
        }
    }

    let base_kernels = match baseline.get("kernels") {
        Some(Json::Obj(fields)) => fields,
        _ => &empty,
    };
    for (name, want) in base_kernels {
        let want_bpc = want.get("bytes_per_call").and_then(Json::as_f64).unwrap_or(0.0);
        match stats.kernels.iter().find(|(n, _)| n == name) {
            None => failures.push(format!("kernel `{name}` missing from kernel.summary")),
            Some((_, got_bpc)) => {
                if tolerance::drifted(want_bpc, *got_bpc, tolerance) {
                    failures.push(format!(
                        "kernel `{name}` bytes-per-call drifted: {got_bpc:.1} vs baseline {want_bpc:.1}"
                    ));
                }
            }
        }
    }

    if failures.is_empty() {
        println!("perf_gate: PASS ({} benches, {} kernels)", base_benches.len(), base_kernels.len());
        Ok(())
    } else {
        Err(format!("{} regression(s):\n  {}", failures.len(), failures.join("\n  ")))
    }
}

/// Shrink every baseline timing so a subsequent `check` against the
/// doctored file must fail — CI uses this to prove the gate has teeth.
fn doctor(baseline_path: &str, out: &str) -> Result<(), String> {
    let baseline = load_baseline(baseline_path)?;
    let doctored = match baseline {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| if k == "benches" { (k, shrink_benches(v)) } else { (k, v) })
                .collect(),
        ),
        other => other,
    };
    std::fs::write(out, doctored.render() + "\n")
        .map_err(|e| format!("cannot write doctored baseline {out}: {e}"))?;
    println!("perf_gate: wrote doctored baseline (timings /{DOCTOR_SHRINK}) to {out}");
    Ok(())
}

/// Replace every kernel's baseline bytes-per-call with an absurd value so a
/// subsequent `check` must fail on the allocation band — CI uses this to
/// prove the allocation gate (including `train.steady_alloc`) has teeth.
fn doctor_alloc(baseline_path: &str, out: &str) -> Result<(), String> {
    let baseline = load_baseline(baseline_path)?;
    let doctored = match baseline {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| if k == "kernels" { (k, inflate_kernels(v)) } else { (k, v) })
                .collect(),
        ),
        other => other,
    };
    std::fs::write(out, doctored.render() + "\n")
        .map_err(|e| format!("cannot write doctored baseline {out}: {e}"))?;
    println!("perf_gate: wrote alloc-doctored baseline (bytes-per-call = {DOCTOR_ALLOC_BYTES:.0}) to {out}");
    Ok(())
}

/// Flip the recorded SIMD level to the *other* one so a subsequent `check`
/// must fail with the ISA-mismatch error — CI uses this to prove the gate
/// refuses cross-instruction-set comparisons.
fn doctor_isa(baseline_path: &str, out: &str) -> Result<(), String> {
    let baseline = load_baseline(baseline_path)?;
    let flipped = if simd::level_name() == "scalar" { "avx2+fma" } else { "scalar" };
    let doctored = match baseline {
        Json::Obj(fields) => {
            let mut fields: Vec<(String, Json)> =
                fields.into_iter().filter(|(k, _)| k != "simd_level").collect();
            fields.insert(0, ("simd_level".to_string(), Json::Str(flipped.to_string())));
            Json::Obj(fields)
        }
        other => other,
    };
    std::fs::write(out, doctored.render() + "\n")
        .map_err(|e| format!("cannot write doctored baseline {out}: {e}"))?;
    println!("perf_gate: wrote ISA-doctored baseline (simd_level = `{flipped}`) to {out}");
    Ok(())
}

/// `fig9_mini_fleet_jobs4` → `fig9_mini_fleet`; `None` when the name is not
/// a fleet-sibling bench (suffix must be `_jobs<digits>`).
fn fleet_base_name(name: &str) -> Option<&str> {
    let (base, n) = name.rsplit_once("_jobs")?;
    if base.is_empty() || n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(base)
}

/// Inflate every stamped fleet speedup so a subsequent `check` must fail on
/// the fleet rule (and only on it: timings and kernels are untouched) — CI
/// uses this to prove the fleet gate has teeth.
fn doctor_fleet(baseline_path: &str, out: &str) -> Result<(), String> {
    let baseline = load_baseline(baseline_path)?;
    let mut inflated = 0usize;
    let doctored = match baseline {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| if k == "fleet" { (k, inflate_fleet(v, &mut inflated)) } else { (k, v) })
                .collect(),
        ),
        other => other,
    };
    if inflated == 0 {
        return Err(format!("baseline {baseline_path} has no fleet speedups to inflate"));
    }
    std::fs::write(out, doctored.render() + "\n")
        .map_err(|e| format!("cannot write doctored baseline {out}: {e}"))?;
    println!(
        "perf_gate: wrote fleet-doctored baseline ({inflated} speedups x{DOCTOR_FLEET_INFLATE}) to {out}"
    );
    Ok(())
}

fn inflate_fleet(fleet: Json, inflated: &mut usize) -> Json {
    match fleet {
        Json::Obj(entries) => Json::Obj(
            entries
                .into_iter()
                .map(|(name, stat)| {
                    let bumped = match stat {
                        Json::Obj(fields) => Json::Obj(
                            fields
                                .into_iter()
                                .map(|(k, v)| match v {
                                    Json::Num(n) if k == "speedup" => {
                                        *inflated += 1;
                                        (k, Json::Num(n * DOCTOR_FLEET_INFLATE))
                                    }
                                    other => (k, other),
                                })
                                .collect(),
                        ),
                        other => other,
                    };
                    (name, bumped)
                })
                .collect(),
        ),
        other => other,
    }
}

fn inflate_kernels(kernels: Json) -> Json {
    match kernels {
        Json::Obj(entries) => Json::Obj(
            entries
                .into_iter()
                .map(|(name, stat)| {
                    let inflated = match stat {
                        Json::Obj(fields) => Json::Obj(
                            fields
                                .into_iter()
                                .map(|(k, v)| {
                                    if k == "bytes_per_call" {
                                        (k, Json::Num(DOCTOR_ALLOC_BYTES))
                                    } else {
                                        (k, v)
                                    }
                                })
                                .collect(),
                        ),
                        other => other,
                    };
                    (name, inflated)
                })
                .collect(),
        ),
        other => other,
    }
}

fn shrink_benches(benches: Json) -> Json {
    match benches {
        Json::Obj(entries) => Json::Obj(
            entries
                .into_iter()
                .map(|(name, stat)| {
                    let shrunk = match stat {
                        Json::Obj(fields) => Json::Obj(
                            fields
                                .into_iter()
                                .map(|(k, v)| match v {
                                    Json::Num(n) if k.ends_with("_ns") => (k, Json::Num(n / DOCTOR_SHRINK)),
                                    other => (k, other),
                                })
                                .collect(),
                        ),
                        other => other,
                    };
                    (name, shrunk)
                })
                .collect(),
        ),
        other => other,
    }
}
