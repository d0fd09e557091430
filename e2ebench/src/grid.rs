//! The fixed offered-rate grid every workload is driven over, and the
//! capacity rule applied to it.
//!
//! Rates are fractions of a per-workload reference rate that was set
//! once, when the benchmark was defined, and then frozen. A run first
//! measures the three latency levels, at 20%, 50% and 80% of the
//! reference, `LEVEL_REPEATS` times each; then it walks the grid upwards.
//! A level's figure is the median over every step at its rate. Capacity
//! is the highest grid rate whose p99 stays within the workload's limit
//! with no failed operation and no growing generator backlog,
//! interpolated on log p99 between that step and the next one up.

use crate::report::Report;
use crate::util::{median, quantile, sorted};

/// Fractions of the reference rate, ascending. The grid stops after two
/// failing steps in a row past `high`.
pub const FRACTIONS: [f64; 19] = [
    0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.45, 1.6, 1.8, 2.0, 2.3, 2.6, 3.0, 3.5,
    4.0,
];

/// The fractions whose latency is reported, with their metric suffixes.
pub const LEVELS: [(f64, &str); 3] = [(0.2, "low"), (0.5, "mid"), (0.8, "high")];

/// Times each level is measured before the grid walk (which measures
/// it once more).
pub const LEVEL_REPEATS: usize = 4;

/// A step whose generator released its last tenth of requests later than
/// this (median) had a growing backlog: it measured the client, not the
/// system, and is no capacity point. Single late wake-ups of a few
/// milliseconds, which a virtual CPU shows at any rate, stay below it.
pub const BACKLOG_LIMIT_US: f64 = 5_000.0;

/// Seconds a step at `frac` runs, out of a run of `seconds`.
pub fn step_secs(frac: f64, seconds: f64) -> f64 {
    if LEVELS.iter().any(|(f, _)| *f == frac) {
        seconds / 25.0
    } else {
        seconds / 40.0
    }
}

/// One offered-rate step.
#[derive(Debug, Clone)]
pub struct Step {
    pub frac: f64,
    pub rate: f64,
    /// Latency of every operation from its due time, ascending; failed
    /// operations count as the step's length, which misses any limit.
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// How late the generator released requests: p99, and the median
    /// over the last tenth of the step (the backlog test).
    pub late_p99_us: f64,
    pub late_tail_us: f64,
    pub gen_cpu_s: f64,
}

impl Step {
    pub fn new(frac: f64, rate: f64, lat: Vec<Option<f64>>, penalty_us: f64) -> Step {
        let failed = lat.iter().filter(|l| l.is_none()).count() as u64;
        let attempted = lat.len() as u64;
        let lat_us = sorted(lat.into_iter().map(|l| l.unwrap_or(penalty_us)).collect());
        Step {
            frac,
            rate,
            lat_us,
            attempted,
            failed,
            late_p99_us: 0.0,
            late_tail_us: 0.0,
            gen_cpu_s: 0.0,
        }
    }

    /// Record the generator's lateness per request, in release order.
    pub fn lateness(&mut self, late_us: &[f64], gen_cpu_s: f64) {
        self.late_p99_us = quantile(&sorted(late_us.to_vec()), 0.99);
        let tail = &late_us[late_us.len() - late_us.len() / 10..];
        self.late_tail_us = quantile(&sorted(tail.to_vec()), 0.5).max(0.0);
        self.gen_cpu_s = gen_cpu_s;
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.lat_us, 0.5)
    }

    pub fn p99(&self) -> f64 {
        quantile(&self.lat_us, 0.99)
    }

    pub fn valid(&self) -> bool {
        self.late_tail_us <= BACKLOG_LIMIT_US
    }

    pub fn meets(&self, limit_us: f64) -> bool {
        self.valid() && self.failed == 0 && self.p99() <= limit_us
    }
}

/// Capacity by the rule in the module docs, over the ascending grid.
pub fn capacity(grid: &[Step], limit_us: f64) -> f64 {
    let Some(h) = grid.iter().rposition(|s| s.meets(limit_us)) else {
        // Not even the lowest step met the limit: scale its rate down.
        let s = &grid[0];
        return s.rate * (limit_us / s.p99().max(limit_us));
    };
    let Some(b) = grid.get(h + 1) else {
        // The grid ran out first: the top rate is a lower bound.
        return grid[h].rate;
    };
    let a = &grid[h];
    if b.p99() <= limit_us {
        // Missed on failures or backlog, not latency: no curve to follow.
        return a.rate;
    }
    let t = ((limit_us.ln() - a.p99().ln()) / (b.p99().ln() - a.p99().ln())).clamp(0.0, 1.0);
    a.rate + t * (b.rate - a.rate)
}

/// Whether the grid should go on after `steps`: every level is always
/// measured, and past them the grid stops after two misses in a row.
pub fn keep_going(steps: &[Step], limit_us: f64) -> bool {
    match steps {
        [.., a, b] if b.frac > LEVELS[2].0 => a.meets(limit_us) || b.meets(limit_us),
        _ => true,
    }
}

/// Add the p50 at each level (median over every step at its rate) and the
/// capacity of a run.
pub fn report(r: &mut Report, levels: &[Step], grid: &[Step], limit_us: f64) {
    for (frac, level) in LEVELS {
        let p50: Vec<f64> = levels
            .iter()
            .chain(grid)
            .filter(|s| s.frac == frac)
            .map(Step::p50)
            .collect();
        r.add(format!("p50_us.{level}"), median(&p50), "us");
    }
    r.add("capacity_rps", capacity(grid, limit_us), "1/s");
}

/// One human-readable line per step, on stderr, so the trail behind
/// every capacity figure is visible without changing the result line.
pub fn log(what: &str, steps: &[Step], limit_us: f64) {
    for s in steps {
        eprintln!(
            "{what}: rate {:>9.1}/s  n {:>6}  failed {:>4}  p50 {:>9.1}us  p99 {:>9.1}us  late p99 {:>8.1}us tail {:>8.1}us  {}",
            s.rate,
            s.attempted,
            s.failed,
            s.p50(),
            s.p99(),
            s.late_p99_us,
            s.late_tail_us,
            if s.meets(limit_us) { "meets" } else { "misses" }
        );
    }
}
