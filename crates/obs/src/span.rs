//! RAII span timers with thread-local nesting.
//!
//! A span measures one region of code; nested spans record under a
//! `outer/inner` path so the console summary shows where time goes at each
//! level. When telemetry is disabled a span is a single flag check — no
//! clock read, no allocation.
//!
//! When a JSONL trace is open, every span additionally emits a pair of
//! `span.enter` / `span.exit` events carrying the full slash-joined path,
//! a per-thread ordinal (`tid`), the nesting depth, and monotonic
//! nanosecond timestamps from [`crate::sink::now_ns`]. `muse-trace flame`
//! folds these into collapsed-stack profiles; [`crate::profile`] folds the
//! `span.<path>` histograms the same way for the live `/debug/profile`.

use crate::json::Json;
use crate::metrics::histogram_owned;
use crate::sink;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Small, stable, per-thread ordinal used to separate span streams of
/// different threads in a trace (assigned on first use, starting at 1).
pub fn thread_ordinal() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Open a timed span. Drop closes it and records its duration (in
/// nanoseconds) into the `span.<path>` histogram; with a trace open, enter
/// and exit events are emitted as well.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { run: None, trace: None };
    }
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(name);
        stack.len()
    });
    let trace = if sink::trace_enabled() {
        let path = SPAN_STACK.with(|s| s.borrow().join("/"));
        let tid = thread_ordinal();
        let t_ns = sink::now_ns();
        sink::emit(
            "span.enter",
            vec![
                ("path", Json::Str(path.clone())),
                ("tid", Json::Num(tid as f64)),
                ("depth", Json::Num(depth as f64)),
                ("t_ns", Json::Num(t_ns as f64)),
            ],
        );
        Some((path, tid))
    } else {
        None
    };
    SpanGuard { run: Some(Instant::now()), trace }
}

/// Current nesting depth of this thread's span stack.
pub fn span_depth() -> usize {
    if !crate::enabled() {
        return 0;
    }
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    run: Option<Instant>,
    /// `(path, tid)` captured at enter when a trace was open.
    trace: Option<(String, u64)>,
}

impl SpanGuard {
    /// Nanoseconds since the span opened (0 when telemetry is disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.run.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.run.take() else { return };
        let nanos = start.elapsed().as_nanos() as u64;
        let path = match self.trace.take() {
            // Reuse the enter-time path: the exit event must pair with the
            // enter event even if the stack was torn by a panic unwind.
            Some((path, tid)) => {
                sink::emit(
                    "span.exit",
                    vec![
                        ("path", Json::Str(path.clone())),
                        ("tid", Json::Num(tid as f64)),
                        ("t_ns", Json::Num(sink::now_ns() as f64)),
                        ("dur_ns", Json::Num(nanos as f64)),
                    ],
                );
                SPAN_STACK.with(|s| s.borrow_mut().pop());
                path
            }
            None => SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            }),
        };
        histogram_owned(&format!("span.{path}")).record(nanos as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_paths_and_depth() {
        let _g = crate::test_lock();
        crate::enable();
        assert_eq!(span_depth(), 0);
        {
            let _a = span("outer_test");
            assert_eq!(span_depth(), 1);
            {
                let _b = span("inner_test");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        assert!(histogram_owned("span.outer_test").count() >= 1);
        assert!(histogram_owned("span.outer_test/inner_test").count() >= 1);
        crate::disable();
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = crate::test_lock();
        crate::disable();
        let g = span("never_recorded");
        assert_eq!(g.elapsed_nanos(), 0);
        drop(g);
        assert_eq!(histogram_owned("span.never_recorded").count(), 0);
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn thread_ordinals_survive_thread_churn() {
        let here = thread_ordinal();
        let mut seen = vec![here];
        // Spawn-and-join a burst of short-lived threads: every one must get
        // a fresh ordinal (ordinals are never recycled), the current
        // thread's ordinal must not move, and each spawned thread must see
        // its own ordinal as stable across repeated calls.
        for _ in 0..16 {
            let got = std::thread::spawn(|| {
                let first = thread_ordinal();
                for _ in 0..3 {
                    assert_eq!(thread_ordinal(), first);
                }
                first
            })
            .join()
            .unwrap();
            assert!(!seen.contains(&got), "ordinal {got} was recycled");
            seen.push(got);
        }
        assert_eq!(thread_ordinal(), here);
    }

    #[test]
    fn spans_emit_enter_exit_events_when_tracing() {
        let _g = crate::test_lock();
        let path = std::env::temp_dir().join("muse-obs-test").join("span_events.jsonl");
        sink::open_trace(&path).unwrap();
        {
            let _outer = span("ev_outer");
            let _inner = span("ev_inner");
        }
        sink::close_trace().unwrap();
        crate::disable();
        let events = sink::read_trace(&path).unwrap();
        let kinds: Vec<&str> = events.iter().filter_map(|e| e.get("ev").and_then(Json::as_str)).collect();
        assert_eq!(kinds, ["span.enter", "span.enter", "span.exit", "span.exit"]);
        // Inner exits first, with the nested path and a smaller duration.
        assert_eq!(events[2].get("path").unwrap().as_str(), Some("ev_outer/ev_inner"));
        assert_eq!(events[3].get("path").unwrap().as_str(), Some("ev_outer"));
        let inner_dur = events[2].get("dur_ns").unwrap().as_f64().unwrap();
        let outer_dur = events[3].get("dur_ns").unwrap().as_f64().unwrap();
        assert!(outer_dur >= inner_dur);
        // Enter timestamps are monotonic per thread.
        let t0 = events[0].get("t_ns").unwrap().as_f64().unwrap();
        let t1 = events[1].get("t_ns").unwrap().as_f64().unwrap();
        assert!(t1 >= t0);
        assert_eq!(events[0].get("depth").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[1].get("depth").unwrap().as_f64(), Some(2.0));
        let _ = std::fs::remove_file(&path);
    }
}
