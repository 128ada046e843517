//! The live span profile (folded from the `span.*` histograms) and the
//! trace flame (folded from `span.exit` events) are one algorithm over the
//! same durations, so for one recorded stretch of work they must print the
//! same collapsed stacks, to the nanosecond.

use muse_obs as obs;
use muse_parallel::{run_fleet, with_jobs, FleetJob};
use muse_trace::flame;
use muse_trace::ingest::TraceData;

fn spin(n: u64) -> u64 {
    std::hint::black_box((0..n).fold(0u64, |acc, i| acc.wrapping_mul(31).wrapping_add(i)))
}

/// Two levels of nested spans with some self time at each level.
fn nested_work(rounds: usize) {
    for _ in 0..rounds {
        let _outer = obs::span("parity.outer");
        spin(2_000);
        {
            let _mid = obs::span("parity.mid");
            spin(4_000);
            let _leaf = obs::span("parity.leaf");
            spin(1_000);
        }
        let _sibling = obs::span("parity.sibling");
        spin(500);
    }
}

fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn live_profile_matches_trace_flame_exactly() {
    let _g = obs::test_lock();
    let path = std::env::temp_dir()
        .join("muse-trace-profile-parity")
        .join(format!("parity-{}.jsonl", std::process::id()));
    obs::open_trace(&path).unwrap();
    // Start the histograms from zero with the trace already open, so both
    // sides see exactly the spans below.
    obs::reset_metrics();

    let other = std::thread::spawn(|| nested_work(40));
    let jobs: Vec<FleetJob<'static, ()>> =
        (0..4).map(|_| Box::new(|| nested_work(10)) as FleetJob<'static, ()>).collect();
    with_jobs(2, || run_fleet("parity.fleet", jobs));
    nested_work(20);
    other.join().unwrap();

    let live = obs::profile::span_profile();
    obs::close_trace().unwrap();
    obs::disable();

    let data = TraceData::load(&path).unwrap();
    let traced = flame::collapsed(&flame::fold(&data.span_exits));
    let _ = std::fs::remove_file(&path);

    assert!(live.lines().any(|l| l.starts_with("sched.job;parity.outer;parity.mid ")), "live:\n{live}");
    assert!(live.lines().any(|l| l.starts_with("parity.outer;parity.mid;parity.leaf ")), "live:\n{live}");
    assert_eq!(sorted_lines(&live), sorted_lines(&traced), "live:\n{live}\ntraced:\n{traced}");
}
