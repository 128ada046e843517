//! `perfbench summarize <file>...`: median, quartiles and spread of each
//! metric over a set of runs, one result file per run (the last non-empty
//! line of each file is the run's result object). When `BENCHMARK.json`
//! is in the working directory, each end-to-end spread is shown against
//! its bound.

use crate::stats;
use muse_obs::json::{self, Json};
use std::collections::BTreeMap;

fn last_result(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or(format!("{path}: empty"))?;
    json::parse(line).map_err(|e| format!("{path}: last line is not a result: {e}"))
}

fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return BTreeMap::new() };
    let Ok(doc) = json::parse(&text) else { return BTreeMap::new() };
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(bound)) =
            (m.get("name").and_then(Json::as_str), m.get("bound").and_then(Json::as_f64))
        {
            out.insert(name.to_string(), bound);
        }
    }
    out
}

/// Render the summary table.
pub fn run(paths: &[String]) -> Result<String, String> {
    if paths.is_empty() {
        return Err("no result files given".to_string());
    }
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut incorrect = 0usize;
    let mut failed = 0.0;
    for path in paths {
        let result = last_result(path)?;
        if !matches!(result.get("correct"), Some(Json::Bool(true))) {
            incorrect += 1;
        }
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}: result has no metrics object"));
        };
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{path}: {name} has no value"))?;
            values.entry(name.clone()).or_insert_with(|| (unit, Vec::new())).1.push(v);
        }
    }
    let bounds = bounds();
    let mut out = format!("runs={} incorrect={incorrect} failed_ops={failed}\n", paths.len());
    for (name, (unit, vs)) in &values {
        let med = stats::median(vs).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(vs).map_or((f64::NAN, f64::NAN), |q| (q[0], q[2]));
        let spread = stats::spread(vs).unwrap_or(f64::NAN);
        let verdict = match bounds.get(name) {
            Some(b) if spread <= b / 3.0 => format!("bound={b} ok(<bound/3)"),
            Some(b) if spread <= *b => format!("bound={b} within-bound"),
            Some(b) => format!("bound={b} TOO-WIDE"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{name:<32} n={:<3} median={med:<12.5} q1={q1:<12.5} q3={q3:<12.5} spread={:>6.2}% {unit} {verdict}\n",
            vs.len(),
            spread * 100.0
        ));
    }
    Ok(out)
}
