//! Seeded inputs of the serve workloads: the sensor frame stream and the
//! open-loop request schedule.

use muse_tensor::init::SeededRng;
use muse_traffic::{CityConfig, CitySimulator, GridMap};
use std::time::Duration;

/// Days simulated per chunk of the stream; each chunk is an independent
/// seeded simulation, so memory stays bounded however long the stream is.
const CHUNK_DAYS: usize = 28;

/// A calm, daily-stationary city stream on the served model's geometry —
/// the `muse-replay` set-up: no weather, no incidents and no weekday/weekend
/// structure, so an injected level shift is the only distribution change.
/// The stream is simulated in chunks of [`CHUNK_DAYS`] days with seeds
/// derived from `seed`, so its frames never repeat. Frames are scaled by the
/// first chunk's maximum into about `[0, 1]`; from `shift_at` on, every
/// volume is `shift_factor` times larger. Index `i` of the result is the
/// frame ingested at absolute window index `i`.
pub fn city_stream(
    seed: u64,
    grid: GridMap,
    intervals_per_day: usize,
    frames: usize,
    shift_at: Option<usize>,
    shift_factor: f32,
) -> Vec<Vec<f32>> {
    let mut out: Vec<Vec<f32>> = Vec::with_capacity(frames);
    let mut scale = 0.0f32;
    let mut chunk = 0u64;
    while out.len() < frames {
        let mut cfg = CityConfig::small(seed.wrapping_mul(0x9E37_79B9).wrapping_add(chunk));
        cfg.grid = grid;
        cfg.intervals_per_day = intervals_per_day;
        cfg.days = CHUNK_DAYS;
        cfg.agents = 3000;
        cfg.weather_prob = 0.0;
        cfg.incident_prob = 0.0;
        cfg.weekend_commute_prob = cfg.weekday_commute_prob;
        cfg.leisure_weekend = cfg.leisure_weekday;
        let flows = CitySimulator::new(cfg).run().flows;
        if chunk == 0 {
            let all = flows.tensor().as_slice();
            scale = all.iter().fold(0.0f32, |m, &v| m.max(v));
            if scale <= 0.0 {
                scale = 1.0;
            }
        }
        for t in 0..flows.len().min(frames - out.len()) {
            let factor = if shift_at.is_some_and(|at| out.len() >= at) { shift_factor } else { 1.0 };
            out.push(flows.frame(t).as_slice().iter().map(|&v| v * factor / scale).collect());
        }
        chunk += 1;
    }
    out
}

/// One scheduled open-loop operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `GET /forecast?horizon=h`.
    Forecast(usize),
    /// `POST /ingest` of the next stream frame.
    Ingest,
}

/// A seeded open-loop schedule: operation `i` is due at `due[i]` after the
/// start. Arrivals come at a fixed `rate`, each jittered by a seeded
/// uniform share of half an interval — not Poisson: with two connections
/// in flight at most, Poisson bursts would measure the load generator's
/// own queue rather than the daemon. About one operation in
/// `ingest_every` is an ingest; forecasts draw their horizon from `mix`
/// (`(horizon, weight)` pairs); `verify[i]` marks the forecasts whose
/// responses are checked bit for bit.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Due offsets, ascending.
    pub due: Vec<Duration>,
    /// Operations.
    pub ops: Vec<Op>,
    /// Forecasts selected for the bit-exact reference check.
    pub verify: Vec<bool>,
}

impl Schedule {
    /// Build the schedule for `seconds` of load.
    pub fn open_loop(
        seed: u64,
        rate: f64,
        seconds: f64,
        ingest_every: usize,
        mix: &[(usize, u32)],
        verify_share: f64,
    ) -> Schedule {
        let mut rng = SeededRng::new(seed ^ 0x5EED_F10A);
        let total_weight: u32 = mix.iter().map(|&(_, w)| w).sum();
        let (mut due, mut ops, mut verify) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0.. {
            let t = (i as f64 + 0.5 * rng.uniform(0.0, 1.0) as f64) / rate;
            if t >= seconds {
                break;
            }
            let op = if rng.chance(1.0 / ingest_every as f64) {
                Op::Ingest
            } else {
                let mut pick = rng.index(total_weight as usize) as u32;
                let h = mix
                    .iter()
                    .find(|&&(_, w)| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .map_or(1, |&(h, _)| h);
                Op::Forecast(h)
            };
            verify.push(matches!(op, Op::Forecast(_)) && rng.chance(verify_share));
            due.push(Duration::from_secs_f64(t));
            ops.push(op);
        }
        Schedule { due, ops, verify }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_follows_the_mix() {
        let mix = [(1, 80), (3, 15), (12, 5)];
        let a = Schedule::open_loop(7, 200.0, 20.0, 16, &mix, 0.02);
        let b = Schedule::open_loop(7, 200.0, 20.0, 16, &mix, 0.02);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.due, b.due);
        let n = a.ops.len() as f64;
        assert_eq!(n, 4000.0);
        let ingests = a.ops.iter().filter(|&&o| o == Op::Ingest).count() as f64;
        assert!((ingests / n - 1.0 / 16.0).abs() < 0.02);
        let h12 = a.ops.iter().filter(|&&o| o == Op::Forecast(12)).count() as f64;
        assert!((h12 / n - 0.05 * 15.0 / 16.0).abs() < 0.02);
        assert!(a.due.windows(2).all(|w| w[0] <= w[1]));
        let c = Schedule::open_loop(8, 200.0, 20.0, 16, &mix, 0.02);
        assert_ne!(a.due, c.due);
    }
}
