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
//! scalar baseline would make AVX2 runs look like free wins). A baseline
//! with no `simd_level` stamp, or with no `benches` or `kernels` to gate,
//! is refused outright.
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
//! `selftest` proves each rule has teeth: for every row of [`RULES`] it
//! doctors an in-memory copy of the baseline so an honest trace must break
//! that rule, and fails unless `check` then rejects every doctored entry
//! with that rule's own message. A rule that finds nothing to doctor, or
//! misses an entry it must gate, fails the selftest too.
//!
//! ```text
//! perf_gate record   <trace.jsonl> <baseline.json>        write a new baseline
//! perf_gate check    <trace.jsonl> <baseline.json> [tol]  fail on regressions
//! perf_gate selftest <trace.jsonl> <baseline.json>        doctor every rule and
//!                                                         require `check` to fail
//! ```
//!
//! Exit codes: 0 pass, 1 regression or malformed input, 2 usage error.

use muse_obs::{json, read_trace, Json};
use muse_tensor::simd;
use muse_trace::tolerance::{self, DEFAULT_TOLERANCE};
use std::fmt::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [mode, trace, baseline] if mode == "record" => record(trace, baseline),
        [mode, trace, baseline] if mode == "check" => check(trace, baseline, None),
        [mode, trace, baseline, tol] if mode == "check" => check(trace, baseline, Some(tol)),
        [mode, trace, baseline] if mode == "selftest" => selftest(trace, baseline),
        _ => {
            eprintln!(
                "usage: perf_gate record   <trace.jsonl> <baseline.json>\n       \
                 perf_gate check    <trace.jsonl> <baseline.json> [tolerance]\n       \
                 perf_gate selftest <trace.jsonl> <baseline.json>"
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

/// Precedence: CLI arg, then MUSE_PERF_TOL (both via the shared resolver),
/// then the tolerance the baseline was recorded with.
fn resolve_tolerance(cli_tolerance: Option<&String>, baseline: &Json) -> f64 {
    tolerance::resolve(cli_tolerance.map(String::as_str))
        .unwrap_or_else(|| baseline.get("tolerance").and_then(Json::as_f64).unwrap_or(DEFAULT_TOLERANCE))
}

fn check(trace: &str, baseline_path: &str, cli_tolerance: Option<&String>) -> Result<(), String> {
    let stats = load_trace(trace)?;
    let baseline = load_baseline(baseline_path)?;
    let tolerance = resolve_tolerance(cli_tolerance, &baseline);
    println!("perf_gate: tolerance +{:.0}% vs {baseline_path}", tolerance * 100.0);
    let mut log = String::new();
    let verdict = gate(&stats, &baseline, baseline_path, tolerance, &mut log);
    print!("{log}");
    verdict
}

/// The entries of a baseline section that must be present and non-empty:
/// a baseline that gates nothing must not pass.
fn required_section<'a>(baseline: &'a Json, key: &str, path: &str) -> Result<&'a [(String, Json)], String> {
    match baseline.get(key) {
        Some(Json::Obj(fields)) if !fields.is_empty() => Ok(fields),
        _ => Err(format!(
            "baseline {path} has no `{key}` entries to gate — re-record it (scripts/perf_gate.sh record)"
        )),
    }
}

/// Compare `stats` against `baseline`, writing the per-entry table to `log`.
fn gate(
    stats: &TraceStats,
    baseline: &Json,
    baseline_path: &str,
    tolerance: f64,
    log: &mut String,
) -> Result<(), String> {
    // Timings are only comparable within one instruction set: an AVX2
    // baseline would mask regressions on a scalar machine, and a scalar
    // baseline would make every AVX2 run look like a free win.
    let current = simd::level_name();
    match baseline.get("simd_level").and_then(Json::as_str) {
        Some(recorded) if recorded == current => {}
        Some(recorded) => {
            return Err(format!(
                "baseline {baseline_path} was recorded at SIMD level `{recorded}` but this run \
                 dispatches `{current}`; timings are not comparable across instruction sets — \
                 re-record on this machine (scripts/perf_gate.sh record)"
            ));
        }
        None => {
            return Err(format!(
                "baseline {baseline_path} has no `simd_level` stamp — re-record it (scripts/perf_gate.sh record)"
            ));
        }
    }
    let base_benches = required_section(baseline, "benches", baseline_path)?;
    let base_kernels = required_section(baseline, "kernels", baseline_path)?;
    let mut failures = Vec::new();

    for (name, want) in base_benches {
        let want_min = want.get("min_ns").and_then(Json::as_f64).unwrap_or(0.0);
        match stats.benches.iter().find(|(n, _, _)| n == name) {
            None => failures.push(format!("bench `{name}` missing from trace")),
            Some((_, got_min, _)) => {
                let change = tolerance::rel_change(want_min, *got_min);
                let fail = tolerance::exceeds(want_min, *got_min, tolerance);
                let verdict = if fail { "FAIL" } else { "ok" };
                let _ = writeln!(
                    log,
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
            let _ = writeln!(log, "  new  {name:<40} (not in baseline; re-record to start gating it)");
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
        Some(Json::Obj(fields)) => fields.as_slice(),
        _ => &[],
    };
    for (name, speedup) in fleet_speedups(stats) {
        match base_fleet.iter().find(|(n, _)| n == &name) {
            None => {
                let _ = writeln!(log, "  new  {name:<40} fleet speedup {speedup:.2}x (not in baseline)");
            }
            Some((_, want)) => {
                let want_speedup = want.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                let floor = want_speedup / (1.0 + tolerance);
                let fail = speedup < floor;
                let verdict = if fail { "FAIL" } else { "ok" };
                let _ = writeln!(
                    log,
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
        let _ =
            writeln!(log, "perf_gate: PASS ({} benches, {} kernels)", base_benches.len(), base_kernels.len());
        Ok(())
    } else {
        Err(format!("{} regression(s):\n  {}", failures.len(), failures.join("\n  ")))
    }
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

/// One gate rule's self-test row: how to doctor a baseline so an honest
/// trace must break the rule, and the failure `check` must then report.
struct Rule {
    /// The rule and its doctoring, as printed by `selftest`.
    name: &'static str,
    /// Baseline section whose entries carry `field`; `None` for a
    /// top-level field.
    section: Option<&'static str>,
    /// The field the rule compares.
    field: &'static str,
    /// The doctored value, or `None` when the field is not the type the
    /// rule compares (that entry then counts as not doctored).
    doctor: fn(&Json) -> Option<Json>,
    /// An entry the baseline must gate under this rule.
    must_gate: Option<&'static str>,
    /// The text `check` must report for a doctored entry.
    expect: fn(&str) -> String,
}

fn scaled(v: &Json, factor: f64) -> Option<Json> {
    v.as_f64().map(|n| Json::Num(n * factor))
}

/// Every gate rule `check` enforces, with its doctoring.
const RULES: [Rule; 4] = [
    Rule {
        name: "timings /10",
        section: Some("benches"),
        field: "min_ns",
        doctor: |v| scaled(v, 0.1),
        must_gate: None,
        expect: |name| format!("bench `{name}` regressed"),
    },
    Rule {
        name: "bytes_per_call = 1e12",
        section: Some("kernels"),
        field: "bytes_per_call",
        // Far from any honest measurement, an honest 0 included.
        doctor: |v| v.as_f64().map(|_| Json::Num(1e12)),
        must_gate: Some("train.steady_alloc"),
        expect: |name| format!("kernel `{name}` bytes-per-call drifted"),
    },
    Rule {
        name: "flipped simd_level",
        section: None,
        field: "simd_level",
        doctor: |v| {
            v.as_str()
                .map(|_| Json::Str(if simd::level_name() == "scalar" { "avx2+fma" } else { "scalar" }.into()))
        },
        must_gate: None,
        expect: |_| "recorded at SIMD level".into(),
    },
    Rule {
        name: "fleet speedups x10",
        section: Some("fleet"),
        field: "speedup",
        doctor: |v| scaled(v, 10.0),
        must_gate: None,
        expect: |name| format!("bench `{name}` fleet speedup fell"),
    },
];

fn field_mut<'a>(json: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match json {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A copy of `baseline` with `rule` applied, and the names of the entries
/// it doctored.
fn doctor(baseline: &Json, rule: &Rule) -> (Json, Vec<String>) {
    let mut doctored = baseline.clone();
    let targets: Vec<(String, &mut Json)> = match rule.section {
        None => {
            field_mut(&mut doctored, rule.field).map(|v| (rule.field.to_string(), v)).into_iter().collect()
        }
        Some(section) => match field_mut(&mut doctored, section) {
            Some(Json::Obj(entries)) => entries
                .iter_mut()
                .filter_map(|(name, stat)| Some((name.clone(), field_mut(stat, rule.field)?)))
                .collect(),
            _ => Vec::new(),
        },
    };
    let mut touched = Vec::new();
    for (name, slot) in targets {
        if let Some(v) = (rule.doctor)(slot) {
            *slot = v;
            touched.push(name);
        }
    }
    (doctored, touched)
}

/// Run every row of [`RULES`] against `stats`, writing one line per rule
/// to `log`; fails unless each rule rejects its doctored baseline with its
/// own message for every doctored entry.
fn selftest_rules(
    stats: &TraceStats,
    baseline: &Json,
    path: &str,
    tolerance: f64,
    log: &mut String,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for rule in &RULES {
        let (doctored, touched) = doctor(baseline, rule);
        let verdict = if touched.is_empty() {
            Err(format!("baseline has no `{}` to doctor", rule.field))
        } else if let Some(name) = rule.must_gate.filter(|n| !touched.iter().any(|t| t == n)) {
            Err(format!("baseline does not gate `{name}`"))
        } else {
            match gate(stats, &doctored, path, tolerance, &mut String::new()) {
                Ok(()) => Err("check passed the doctored baseline".to_string()),
                Err(e) => match touched.iter().map(|name| (rule.expect)(name)).find(|want| !e.contains(want))
                {
                    Some(want) => Err(format!("check failed without `{want}`: {e}")),
                    None => Ok(()),
                },
            }
        };
        match verdict {
            Ok(()) => {
                let _ = writeln!(log, "  ok   {:<24} rejected ({} doctored)", rule.name, touched.len());
            }
            Err(e) => {
                let _ = writeln!(log, "  FAIL {:<24} {e}", rule.name);
                failures.push(format!("rule `{}`: {e}", rule.name));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("selftest: {} rule(s) without teeth:\n  {}", failures.len(), failures.join("\n  ")))
    }
}

fn selftest(trace: &str, baseline_path: &str) -> Result<(), String> {
    let stats = load_trace(trace)?;
    let baseline = load_baseline(baseline_path)?;
    let tolerance = resolve_tolerance(None, &baseline);
    println!("perf_gate: selftest, tolerance +{:.0}% vs {baseline_path}", tolerance * 100.0);
    let mut log = String::new();
    let verdict = selftest_rules(&stats, &baseline, baseline_path, tolerance, &mut log);
    print!("{log}");
    verdict?;
    println!("perf_gate: selftest PASS ({} rules)", RULES.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> TraceStats {
        TraceStats {
            benches: vec![
                ("matmul_64".to_string(), 1000.0, 1100.0),
                ("fleet".to_string(), 4000.0, 4100.0),
                ("fleet_jobs2".to_string(), 2500.0, 2600.0),
            ],
            kernels: vec![("tensor.matmul".to_string(), 4096.0), ("train.steady_alloc".to_string(), 0.0)],
        }
    }

    fn without(baseline: &Json, key: &str) -> Json {
        match baseline {
            Json::Obj(fields) => Json::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect()),
            other => other.clone(),
        }
    }

    fn with(baseline: &Json, key: &str, value: Json) -> Json {
        let mut out = baseline.clone();
        *field_mut(&mut out, key).expect("field present") = value;
        out
    }

    #[test]
    fn check_refuses_baselines_that_gate_nothing() {
        let stats = stats();
        let full = baseline_json(&stats, DEFAULT_TOLERANCE);
        let check = |b: &Json| gate(&stats, b, "b.json", DEFAULT_TOLERANCE, &mut String::new());
        assert_eq!(check(&full), Ok(()));
        let err = check(&Json::Obj(Vec::new())).expect_err("`{}` must not pass");
        assert!(err.contains("simd_level"), "{err}");
        let err = check(&without(&full, "simd_level")).expect_err("an unstamped baseline must not pass");
        assert!(err.contains("simd_level"), "{err}");
        for key in ["benches", "kernels"] {
            let err = check(&without(&full, key)).expect_err("a missing section must not pass");
            assert!(err.contains(&format!("`{key}`")), "{err}");
            let err =
                check(&with(&full, key, Json::Obj(Vec::new()))).expect_err("an empty section must not pass");
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
    }

    #[test]
    fn selftest_requires_every_rule_to_bite() {
        let stats = stats();
        let full = baseline_json(&stats, DEFAULT_TOLERANCE);
        let selftest = |b: &Json| selftest_rules(&stats, b, "b.json", DEFAULT_TOLERANCE, &mut String::new());
        assert_eq!(selftest(&full), Ok(()));
        // A rule with nothing to doctor has no teeth.
        let err = selftest(&without(&full, "fleet")).expect_err("no fleet stamp to doctor");
        assert!(err.contains("fleet speedups x10"), "{err}");
        // The bytes rule must gate the training step's allocations.
        let kernels = Json::obj([("tensor.matmul", Json::obj([("bytes_per_call", Json::Num(4096.0))]))]);
        let err = selftest(&with(&full, "kernels", kernels)).expect_err("train.steady_alloc not gated");
        assert!(err.contains("train.steady_alloc"), "{err}");
        // A band so wide that a 10x slowdown passes leaves the timing rule toothless.
        let err = selftest_rules(&stats, &full, "b.json", 20.0, &mut String::new()).expect_err("20x band");
        assert!(err.contains("timings /10"), "{err}");
    }
}
