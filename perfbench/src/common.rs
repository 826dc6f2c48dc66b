//! What every workload shares: the set-up sampler, the timed pass loop,
//! report digests and the outcome handed back to `main`.

use std::hint::black_box;
use std::time::Instant;

use leime::{RunReport, Scenario};

use crate::checks::Check;
use crate::host::{median, Fnv};
use crate::trace::{Layers, Spans};

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Device-slots the timed passes attempted, and how many of them
    /// belong to a pass that errored, panicked or failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Median host seconds per set-up.
    pub setup_s: f64,
    /// Device-slots per host second of each timed run call.
    pub rates: Vec<f64>,
    /// Host seconds of each timed run call.
    pub run_walls: Vec<f64>,
    /// Host seconds of each whole pass: build, run call and checks.
    pub pass_walls: Vec<f64>,
    /// Peak resident set after the timed passes, read before any check
    /// serializes a whole report.
    pub peak_rss_mib: Option<f64>,
    /// Per-layer metrics; filled by traced runs only.
    pub layers: Layers,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// Folds in a check that covers every pass: if it fails, every
    /// attempted device-slot counts as failed.
    pub fn global(&mut self, name: &'static str, result: Result<(), String>) {
        if result.is_err() {
            self.failed = self.attempted;
        }
        self.checks.push((name, result));
    }
}

/// Builds `batch` systems back to back and returns the last one with
/// the mean seconds per set-up (set-ups too short to time singly are
/// timed in batches).
pub fn timed_setup<T>(
    spans: &mut Spans,
    batch: usize,
    mut setup: impl FnMut() -> leime::Result<T>,
) -> leime::Result<(T, f64)> {
    let span = spans.enter("setup");
    let t0 = Instant::now();
    let mut system = setup()?;
    for _ in 1..batch {
        system = black_box(setup()?);
    }
    let per_setup = t0.elapsed().as_secs_f64() / batch.max(1) as f64;
    spans.exit(span);
    Ok((system, per_setup))
}

/// One timed pass: its set-up time, the run call's wall time, a digest
/// of its outputs and the pass-level checks.
#[derive(Debug)]
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    pub digest: u64,
    pub checks: Result<(), String>,
}

/// At least this many passes run, however long each takes, so the
/// replay comparison and the medians always have material.
pub const MIN_PASSES: usize = 3;

/// Runs passes of `device_slots` each until their timed run calls add
/// up to `opts.seconds`,
/// and records the median set-up time over the passes: sampling set-up
/// throughout the run exposes it to the same host conditions as the
/// run calls. A pass that errors or panics counts its device-slots as
/// failed.
pub fn timed_passes(
    opts: &Opts,
    device_slots: u64,
    spans: &mut Spans,
    out: &mut Outcome,
    pass: &mut impl FnMut(&mut Spans, usize) -> leime::Result<Pass>,
) -> Vec<u64> {
    let mut measured = 0.0;
    let mut digests = Vec::new();
    let mut setups = Vec::new();
    let mut k = 0;
    while k < MIN_PASSES || measured < opts.seconds {
        k += 1;
        spans.set_pass(k);
        let span = spans.enter("pass");
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass(spans, k)));
        out.pass_walls.push(t0.elapsed().as_secs_f64());
        spans.exit(span);
        out.attempted += device_slots;
        let error = match result {
            Ok(Ok(p)) => {
                measured += p.run_s;
                setups.push(p.setup_s);
                out.run_walls.push(p.run_s);
                out.rates.push(device_slots as f64 / p.run_s);
                digests.push(p.digest);
                p.checks.err()
            }
            Ok(Err(e)) => {
                // A run call that fails would not advance the clock the
                // loop waits on.
                measured += opts.seconds / MIN_PASSES as f64;
                Some(format!("run failed: {e}"))
            }
            Err(_) => {
                measured += opts.seconds / MIN_PASSES as f64;
                Some("run panicked".to_string())
            }
        };
        if let Some(e) = error {
            out.failed += device_slots;
            out.checks.push(("pass", Err(format!("pass {k}: {e}"))));
        }
        spans.set_pass(0);
    }
    out.setup_s = median(&setups);
    digests
}

/// Pass numbers from here on are extra passes outside the timed loop.
pub const EXTRA_PASS: usize = 1_000_000;

/// The traced run's cost of recording spans: the median whole-pass wall
/// of the traced loop minus that of `reps` extra passes run untraced.
pub fn tracing_overhead(
    out: &Outcome,
    reps: usize,
    pass: &mut impl FnMut(&mut Spans, usize) -> leime::Result<Pass>,
) -> f64 {
    let mut off = Spans::new(false);
    let walls: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            black_box(pass(&mut off, EXTRA_PASS + i).is_ok());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&out.pass_walls) - median(&walls)
}

/// Times `f` over `iters` calls and returns nanoseconds per call.
pub fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
}

/// Median host seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The first block's compute time (`mu1` FLOPs) on the fastest
/// processor that can run it, device or edge: no task completes sooner.
pub fn first_block_floor_s(scenario: &Scenario, mu1: f64) -> f64 {
    let fastest = scenario
        .devices
        .iter()
        .map(|d| d.flops)
        .fold(scenario.edge_flops, f64::max);
    mu1 / fastest
}

/// Digest of every simulated statistic a [`RunReport`] exposes,
/// including each per-task series point, read through its accessors —
/// cheap enough for million-device reports, unlike a serialization.
pub fn digest_run_report(h: &mut Fnv, r: &RunReport) {
    h.u64(r.tasks() as u64);
    for v in [
        r.mean_tct_s(),
        r.p50_tct_s(),
        r.p95_tct_s(),
        r.p99_tct_s(),
        r.mean_offload_ratio(),
        r.mean_queue_q(),
        r.mean_queue_h(),
        r.completion_rate(),
    ] {
        h.f64(v);
    }
    let tiers = r.tiers();
    let faults = r.fault_stats();
    for v in [
        tiers.first,
        tiers.second,
        tiers.third,
        faults.fault_slots,
        faults.churn_slots,
        faults.timeouts,
        faults.retries,
        faults.fallbacks,
        faults.recoveries,
    ] {
        h.u64(v);
    }
    for &(t, v) in r.series().points() {
        h.f64(t.as_secs());
        h.f64(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_global_check_fails_every_slot() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.global("ok", Ok(()));
        assert_eq!(out.failed, 0);
        assert!(out.correct());
        out.global("bad", Err("broken".into()));
        assert_eq!(out.failed, 10);
        assert!(!out.correct());
    }

    #[test]
    fn pass_loop_counts_failures_and_stops() {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
        };
        let mut spans = Spans::new(false);
        let mut out = Outcome::default();
        let digests = timed_passes(&opts, 5, &mut spans, &mut out, &mut |_, k| {
            if k == 2 {
                return Err(leime::LeimeError::Config("boom".into()));
            }
            Ok(Pass {
                setup_s: 0.5,
                run_s: 0.001,
                digest: 9,
                checks: Ok(()),
            })
        });
        assert_eq!(digests, vec![9, 9]);
        assert_eq!(out.attempted, 15);
        assert_eq!(out.failed, 5);
        assert_eq!(out.setup_s, 0.5);
        assert!(!out.correct());
    }
}
