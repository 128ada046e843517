//! Fold span exit events into collapsed-stack flame profiles.
//!
//! Each `span.exit` event carries its full slash-joined path and duration,
//! so folding is pure aggregation: total time per path, then the shared
//! [`muse_obs::profile`] fold (self time = total minus the totals of
//! *direct* children) — the same one that folds a live process's span
//! histograms on `/debug/profile` and `muse-eval --prof`. The collapsed
//! output (`a;b;c <self_ns>` per line) is the format `flamegraph.pl` and
//! speedscope consume directly.

use crate::ingest::SpanExit;
use muse_obs::profile::SpanTotals;
pub use muse_obs::profile::{collapsed, FoldedSpan};

/// Aggregate span exits into per-path totals with self time, sorted by
/// path for determinism.
pub fn fold(exits: &[SpanExit]) -> Vec<FoldedSpan> {
    let mut totals = SpanTotals::new();
    for e in exits {
        match totals.get_mut(&e.path) {
            Some(slot) => *slot = (slot.0 + 1, slot.1 + e.dur_ns),
            None => {
                totals.insert(e.path.clone(), (1, e.dur_ns));
            }
        }
    }
    muse_obs::profile::fold(&totals)
}

/// Folded spans ranked by self time, descending (path as tie-break).
pub fn by_self_time(folded: &[FoldedSpan]) -> Vec<&FoldedSpan> {
    let mut rows: Vec<&FoldedSpan> = folded.iter().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit(path: &str, dur_ns: u64) -> SpanExit {
        SpanExit { path: path.to_string(), tid: 1, t_ns: 0, dur_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let exits = vec![
            exit("a", 1000),
            exit("a/b", 600),
            exit("a/b/c", 100),
            exit("a/d", 150),
            // Not a child of "a": shares the prefix string but not the path.
            exit("ax", 42),
        ];
        let folded = fold(&exits);
        let get = |p: &str| folded.iter().find(|f| f.path == p).unwrap();
        assert_eq!(get("a").total_ns, 1000);
        // a's direct children are a/b and a/d — NOT a/b/c, not ax.
        assert_eq!(get("a").self_ns, 1000 - 600 - 150);
        assert_eq!(get("a/b").self_ns, 500);
        assert_eq!(get("a/b/c").self_ns, 100);
        assert_eq!(get("ax").self_ns, 42);
    }

    #[test]
    fn repeated_paths_accumulate() {
        let exits = vec![exit("x", 10), exit("x", 30), exit("x/y", 5)];
        let folded = fold(&exits);
        let x = folded.iter().find(|f| f.path == "x").unwrap();
        assert_eq!(x.count, 2);
        assert_eq!(x.total_ns, 40);
        assert_eq!(x.self_ns, 35);
    }

    #[test]
    fn child_outlasting_parent_clamps_to_zero() {
        let exits = vec![exit("p", 100), exit("p/q", 120)];
        let folded = fold(&exits);
        assert_eq!(folded.iter().find(|f| f.path == "p").unwrap().self_ns, 0);
    }

    #[test]
    fn collapsed_format_is_semicolon_separated() {
        let exits = vec![exit("a", 100), exit("a/b", 100)];
        let text = collapsed(&fold(&exits));
        // "a" has zero self time and is omitted; a/b keeps its 100.
        assert_eq!(text, "a;b 100\n");
    }

    #[test]
    fn collapsed_orders_siblings_by_self_time_then_name() {
        let exits = vec![
            exit("root", 1000),
            exit("root/cold", 50),
            exit("root/hot", 500),
            exit("root/hot/leaf", 200),
            exit("root/warm", 250),
            // Two zero-padded siblings tie on self time → name order.
            exit("root/bbb", 10),
            exit("root/aaa", 10),
        ];
        let text = collapsed(&fold(&exits));
        let paths: Vec<&str> = text.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        // Depth-first: hot subtree (self 300) first, its child inside it,
        // then warm (250), cold (50), then the 10/10 tie in name order.
        // root itself has self 1000-820=180... listed first as the root.
        assert_eq!(
            paths,
            vec!["root", "root;hot", "root;hot;leaf", "root;warm", "root;cold", "root;aaa", "root;bbb"],
            "text:\n{text}"
        );
    }

    #[test]
    fn ranking_is_by_self_time() {
        let exits = vec![exit("slow", 900), exit("fast", 10), exit("mid", 50)];
        let folded = fold(&exits);
        let ranked = by_self_time(&folded);
        assert_eq!(ranked[0].path, "slow");
        assert_eq!(ranked[2].path, "fast");
    }
}
