//! Exact span profiles: per-path span totals folded into collapsed stacks.
//!
//! Every closed span records its duration into a `span.<path>` histogram
//! whose count and sum are exact, so the registry already holds the whole
//! span tree. [`fold`] turns per-path totals into self time — total minus
//! the totals of *direct* children, clamped at zero — and [`collapsed`]
//! renders `a;b;c <self_ns>` lines, the format `flamegraph.pl`, speedscope
//! and `muse-trace prof` consume. The live profile ([`span_profile`],
//! served on `/debug/profile`) and `muse-trace flame` over a trace's
//! `span.exit` events run this same fold, so they report the same numbers.
//!
//! Time in a span that has not closed yet is not counted until it closes.

use crate::metrics;
use std::collections::BTreeMap;

/// Per-path span totals: slash-joined path → `(count, total_ns)`.
pub type SpanTotals = BTreeMap<String, (u64, u64)>;

/// Aggregated times for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedSpan {
    /// Slash-joined path (`train.fit/train.forward/model.encode`).
    pub path: String,
    /// Times this span path was closed.
    pub count: u64,
    /// Cumulative nanoseconds, including children.
    pub total_ns: u64,
    /// Cumulative nanoseconds minus direct children's totals (clamped at
    /// zero — clock jitter can make children appear to outlast parents by
    /// nanoseconds).
    pub self_ns: u64,
}

/// The registry's closed-span totals, read from the `span.*` histograms.
/// Histograms that recorded nothing (e.g. after a reset) are skipped.
pub fn span_totals() -> SpanTotals {
    metrics::export_snapshot()
        .histograms
        .into_iter()
        .filter_map(|(name, count, sum, _)| {
            let path = name.strip_prefix("span.")?;
            // Integer nanosecond sums are exact in f64 below 2^53 ns.
            (count > 0).then(|| (path.to_string(), (count, sum as u64)))
        })
        .collect()
}

/// Totals accumulated between two [`span_totals`] snapshots. Paths that
/// closed no span in between are dropped; a reset in between saturates
/// at zero rather than wrapping.
pub fn totals_since(before: &SpanTotals, after: &SpanTotals) -> SpanTotals {
    after
        .iter()
        .filter_map(|(path, &(count, total))| {
            let (c0, t0) = before.get(path).copied().unwrap_or((0, 0));
            let count = count.saturating_sub(c0);
            (count > 0).then(|| (path.clone(), (count, total.saturating_sub(t0))))
        })
        .collect()
}

/// Fold per-path totals into self times, sorted by path.
pub fn fold(totals: &SpanTotals) -> Vec<FoldedSpan> {
    totals
        .iter()
        .map(|(path, &(count, total_ns))| {
            let children_ns: u64 = totals
                .range::<str, _>((std::ops::Bound::Excluded(path.as_str()), std::ops::Bound::Unbounded))
                .take_while(|(p, _)| p.starts_with(path.as_str()))
                .filter(|(p, _)| is_direct_child(path, p))
                .map(|(_, &(_, t))| t)
                .sum();
            FoldedSpan { path: path.clone(), count, total_ns, self_ns: total_ns.saturating_sub(children_ns) }
        })
        .collect()
}

/// Is `candidate` exactly one segment below `parent`?
fn is_direct_child(parent: &str, candidate: &str) -> bool {
    candidate
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|tail| !tail.is_empty() && !tail.contains('/'))
}

/// Render folded spans as collapsed stacks: one `seg;seg;seg self_ns` line
/// per path with non-zero self time, in deterministic flame order — a
/// depth-first tree walk with siblings sorted hottest (self time) first,
/// name as tie-break — so profiles of the same run are stable and profile
/// diffs line up row for row.
pub fn collapsed(folded: &[FoldedSpan]) -> String {
    let rows: Vec<(&str, u64)> = folded.iter().map(|f| (f.path.as_str(), f.self_ns)).collect();
    let mut out = String::new();
    for idx in tree_order_indices(&rows, '/') {
        let span = &folded[idx];
        if span.self_ns == 0 {
            continue;
        }
        out.push_str(&span.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&span.self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Deterministic flame ordering over `(path, self_weight)` rows: indices in
/// depth-first tree order, siblings sorted by self weight descending then
/// path. Rows whose parent path is absent are treated as roots. Shared by
/// span paths ('/'-separated) and folded stacks (';'-separated).
pub fn tree_order_indices(rows: &[(&str, u64)], sep: char) -> Vec<usize> {
    let by_path: BTreeMap<&str, usize> = rows.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
    // parent index (or None for roots) → children indices.
    let mut children: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
    for (i, (path, _)) in rows.iter().enumerate() {
        let parent = path.rfind(sep).and_then(|cut| by_path.get(&path[..cut]).copied());
        children.entry(parent).or_default().push(i);
    }
    for siblings in children.values_mut() {
        siblings.sort_by(|&a, &b| rows[b].1.cmp(&rows[a].1).then_with(|| rows[a].0.cmp(rows[b].0)));
    }
    let mut order = Vec::with_capacity(rows.len());
    let mut stack: Vec<usize> = children.get(&None).cloned().unwrap_or_default();
    stack.reverse();
    while let Some(idx) = stack.pop() {
        order.push(idx);
        if let Some(kids) = children.get(&Some(idx)) {
            stack.extend(kids.iter().rev());
        }
    }
    order
}

/// Collapsed stacks of every span closed since the process started.
pub fn span_profile() -> String {
    collapsed(&fold(&span_totals()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_drops_idle_paths_and_saturates_after_reset() {
        let before: SpanTotals = [("a".to_string(), (3, 300)), ("b".to_string(), (2, 50))].into();
        let after: SpanTotals =
            [("a".to_string(), (5, 450)), ("b".to_string(), (2, 50)), ("c".to_string(), (1, 7))].into();
        let window = totals_since(&before, &after);
        assert_eq!(window, [("a".to_string(), (2, 150)), ("c".to_string(), (1, 7))].into());
        // Metrics reset between snapshots: counts went down, nothing wraps.
        assert!(totals_since(&after, &before).is_empty());
    }
}
