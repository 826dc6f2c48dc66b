//! `edge_hetero`: one edge, `SlottedSystem` with the Lyapunov
//! controller at one worker over a heterogeneous bursty fleet with a
//! telemetry registry attached.

use std::time::Instant;

use leime::{
    share_floor, Deployment, ExitStrategy, RunReport, Scenario, SlottedSystem, WorkloadKind,
};
use leime_offload::QueuePair;
use leime_simnet::SimTime;
use leime_telemetry::{Registry, TelemetrySnapshot};
use leime_workload::Mmpp;

use crate::checks;
use crate::common::{
    digest_run_report, first_block_floor_s, median_secs, ns_per_call, timed_passes, timed_setup,
    tracing_overhead, Opts, Outcome, Pass,
};
use crate::host::{median, peak_rss_mib, Fnv};
use crate::inputs::{self, EdgeInputs};
use crate::layers::{self, workers, Decisions};
use crate::trace::Spans;

const PREFIX: &str = "edge";
/// Set-ups per timed sample: one takes tens of microseconds.
const SETUP_BATCH: usize = 20;

/// Builds a system ready for its first slot, as a user would.
fn set_up(scenario: &Scenario) -> leime::Result<(SlottedSystem, Registry)> {
    scenario.validate()?;
    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let mut system = SlottedSystem::new(scenario.clone(), deployment)?;
    let registry = Registry::new();
    system.attach_registry(&registry, PREFIX);
    Ok((system, registry))
}

/// The bursty workload's shape: burst factor and switching odds.
fn burst_shape(scenario: &Scenario) -> leime::Result<(f64, f64, f64, u64)> {
    match scenario.workload {
        WorkloadKind::Bursty {
            burst_factor,
            p_enter,
            p_leave,
            max,
        } => Ok((burst_factor, p_enter, p_leave, max)),
        ref other => Err(leime::LeimeError::Config(format!(
            "edge workload expects bursty arrivals, got {other:?}"
        ))),
    }
}

/// The per-device MMPPs the system builds for the bursty workload.
fn mmpps(scenario: &Scenario) -> leime::Result<Vec<Mmpp>> {
    let (factor, enter, leave, max) = burst_shape(scenario)?;
    Ok(scenario
        .devices
        .iter()
        .map(|d| Mmpp::new(d.arrival_mean, d.arrival_mean * factor, enter, leave, max))
        .collect())
}

/// Expected arrivals over `slots` slots and their variance: each device
/// starts calm and is bursting at slot `t` with probability
/// `π(1 − λ^{t+1})`; the variance adds the Poisson term to the
/// modulation's `T π(1−π)(1+λ)/(1−λ)` (its stationary form).
fn arrival_moments(scenario: &Scenario, slots: usize) -> leime::Result<(f64, f64)> {
    let (factor, enter, leave, _) = burst_shape(scenario)?;
    let pi = enter / (enter + leave);
    let lambda = 1.0 - enter - leave;
    let (mut mean, mut var) = (0.0, 0.0);
    for d in &scenario.devices {
        let calm = d.arrival_mean;
        let jump = calm * (factor - 1.0);
        let mut lam_t = lambda;
        let mut e = 0.0;
        for _ in 0..slots {
            e += calm + jump * pi * (1.0 - lam_t);
            lam_t *= lambda;
        }
        mean += e;
        var += e + jump * jump * slots as f64 * pi * (1.0 - pi) * (1.0 + lambda) / (1.0 - lambda);
    }
    Ok((mean, var))
}

/// Digest of every series point and counter of a telemetry snapshot.
fn digest_snapshot(h: &mut Fnv, snap: &TelemetrySnapshot) -> Result<(), String> {
    for c in &snap.counters {
        h.bytes(c.name.as_bytes());
        h.u64(c.value);
    }
    h.json(&snap.histograms)?;
    for s in &snap.series {
        h.bytes(s.name.as_bytes());
        for &(t, v) in &s.points {
            h.f64(t);
            h.f64(v);
        }
    }
    Ok(())
}

fn series<'a>(snap: &'a TelemetrySnapshot, name: &str) -> Result<&'a [(f64, f64)], String> {
    snap.series_named(&format!("{PREFIX}.{name}"))
        .map(|s| s.points.as_slice())
        .ok_or_else(|| format!("telemetry has no {PREFIX}.{name} series"))
}

/// Ratios in `[0, 1]` (every recorded decision) and per-task TCTs at
/// least the first block on the fastest processor.
fn pass_checks(report: &RunReport, snap: &TelemetrySnapshot, min_tct_s: f64) -> Result<(), String> {
    let decisions = series(snap, "ctrl.offload_x")?;
    checks::ratios_and_tcts(
        decisions
            .iter()
            .map(|p| p.1)
            .chain([report.mean_offload_ratio()]),
        report.series().points().iter().map(|p| p.1),
        min_tct_s,
    )
}

/// What the first two passes keep for the global checks.
struct Kept {
    report: RunReport,
    snapshot: TelemetrySnapshot,
    queues: Vec<QueuePair>,
}

/// The serialized report and telemetry snapshot of a pass.
fn serialized(report: &RunReport, snapshot: &TelemetrySnapshot) -> leime::Result<(String, String)> {
    let json = |r: Result<String, serde_json::Error>| {
        r.map_err(|e| leime::LeimeError::Config(format!("serialize: {e}")))
    };
    Ok((
        json(serde_json::to_string(report))?,
        json(serde_json::to_string(snapshot))?,
    ))
}

pub fn run(opts: &Opts, spans: &mut Spans) -> leime::Result<Outcome> {
    let inp = inputs::edge_hetero(opts.seed);
    let EdgeInputs {
        scenario,
        slots,
        run_seed,
    } = &inp;
    let (slots, run_seed) = (*slots, *run_seed);
    let n = scenario.devices.len();
    let mut out = Outcome::default();

    let deployment: Deployment = scenario.deploy(ExitStrategy::Leime)?;
    let min_tct_s = first_block_floor_s(scenario, deployment.mu[0]);

    let mut kept: Vec<Kept> = Vec::new();
    let mut pass = |spans: &mut Spans, k: usize| -> leime::Result<Pass> {
        let ((mut system, registry), setup_s) =
            timed_setup(spans, SETUP_BATCH, || set_up(scenario))?;
        let span = spans.enter("core.run");
        let t0 = Instant::now();
        let report = system.run(slots, run_seed)?;
        let run_s = t0.elapsed().as_secs_f64();
        spans.exit(span);
        let span = spans.enter("check");
        let snapshot = registry.snapshot();
        let mut h = Fnv::default();
        digest_run_report(&mut h, &report);
        let checks = digest_snapshot(&mut h, &snapshot)
            .and_then(|()| pass_checks(&report, &snapshot, min_tct_s));
        if k <= 2 {
            kept.push(Kept {
                report,
                snapshot,
                queues: system.queues().to_vec(),
            });
        }
        spans.exit(span);
        Ok(Pass {
            setup_s,
            run_s,
            digest: h.finish(),
            checks,
        })
    };
    let digests = timed_passes(opts, (n * slots) as u64, spans, &mut out, &mut pass);
    let trace_overhead = spans
        .enabled()
        .then(|| tracing_overhead(&out, 5, &mut pass));
    // Before the checks below serialize whole reports.
    out.peak_rss_mib = peak_rss_mib();

    let span = spans.enter("check.global");
    let [first, second] = match <[Kept; 2]>::try_from(kept) {
        Ok(k) => k,
        Err(_) => {
            out.global("passes", Err("fewer than two passes finished".into()));
            spans.exit(span);
            return Ok(out);
        }
    };
    out.global(
        "exit_combo_optimal",
        checks::exit_combo_is_optimal(
            &scenario.chain(),
            scenario.exit_spec,
            &scenario.candidate_rates(),
            scenario.avg_env(),
            deployment.combo,
        ),
    );
    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
    let means: Vec<f64> = mmpps(scenario)?.iter().map(Mmpp::stationary_mean).collect();
    let shares = leime_offload::kkt_allocation_with_floor(
        &flops,
        &means,
        scenario.edge_flops,
        share_floor(n),
    );
    out.global(
        "kkt_shares",
        checks::shares_match_kkt(&flops, &means, scenario.edge_flops, share_floor(n), &shares),
    );
    let (expected, variance) = arrival_moments(scenario, slots)?;
    out.global(
        "arrivals_in_band",
        checks::within_sigmas(first.report.tasks() as f64, expected, variance),
    );
    let (report_json, snapshot_json) = serialized(&first.report, &first.snapshot)?;
    let (report_json_2, snapshot_json_2) = serialized(&second.report, &second.snapshot)?;
    out.global(
        "replay_deterministic",
        checks::replay_identical(&digests)
            .and_then(|()| checks::bytes_identical("report", &report_json, &report_json_2))
            .and_then(|()| checks::bytes_identical("telemetry", &snapshot_json, &snapshot_json_2)),
    );
    // The same run at two workers must reproduce every byte (§11).
    let (mut system, registry) = set_up(scenario)?;
    let t0 = Instant::now();
    let two = system.run_with_workers(slots, run_seed, workers(2))?;
    let two_s = t0.elapsed().as_secs_f64();
    let (two_json, two_snap) = serialized(&two, &registry.snapshot())?;
    out.global(
        "workers_byte_identical",
        checks::bytes_identical("report", &report_json, &two_json)
            .and_then(|()| checks::bytes_identical("telemetry", &snapshot_json, &two_snap)),
    );
    let backlog: Result<Vec<f64>, String> = series(&first.snapshot, "queue_q").and_then(|q| {
        let h = series(&first.snapshot, "queue_h")?;
        Ok(q.iter().zip(h).map(|(a, b)| a.1 + b.1).collect())
    });
    let per_device = means.iter().sum::<f64>() / n as f64;
    out.global(
        "queues_bounded",
        backlog.and_then(|b| checks::queues_bounded(&b, per_device)),
    );
    spans.exit(span);

    if let Some(trace_overhead) = trace_overhead {
        let span = spans.enter("layers");
        let sizes = (report_json.len(), snapshot_json.len());
        layer_metrics(&mut out, &inp, &deployment, &first, sizes, two_s)?;
        out.layers.set("trace.overhead_s", trace_overhead);
        spans.exit(span);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    inp: &EdgeInputs,
    deployment: &Deployment,
    first: &Kept,
    (report_bytes, snapshot_bytes): (usize, usize),
    two_worker_s: f64,
) -> leime::Result<()> {
    let (scenario, slots) = (&inp.scenario, inp.slots);
    let means: Vec<f64> = mmpps(scenario)?.iter().map(Mmpp::stationary_mean).collect();
    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
    let shares = leime_offload::kkt_allocation_with_floor(
        &flops,
        &means,
        scenario.edge_flops,
        share_floor(flops.len()),
    );
    let n = scenario.devices.len();
    let device_slots = (n * slots) as f64;
    let run_s = median(&out.run_walls);
    let l = &mut out.layers;

    let (search_s, evals, exhaustive) = layers::exit_search(scenario, scenario.avg_env())?;
    l.set("exitcfg.search_s", search_s);
    l.set("exitcfg.evals", evals as f64);
    l.set("exitcfg.exhaustive_evals", exhaustive as f64);

    l.set(
        "core.new_s",
        median_secs(51, || {
            let mut s = SlottedSystem::new(scenario.clone(), deployment.clone()).ok();
            if let Some(s) = s.as_mut() {
                s.attach_registry(&Registry::new(), PREFIX);
            }
            std::hint::black_box(s);
        }),
    );
    l.set("core.run_s", run_s);
    l.set("core.report_bytes", report_bytes as f64);

    let mut mmpp = mmpps(scenario)?;
    let mut rngs: Vec<rand::rngs::StdRng> = (0..n)
        .map(|i| rand::SeedableRng::seed_from_u64(leime_par::stream_seed(1, i as u64)))
        .collect();
    let draw_ns = ns_per_call(n * 200, |i| {
        std::hint::black_box(mmpp[i % n].draw(&mut rngs[i % n]));
    });
    let tasks = first.report.tasks() as f64;
    l.set("workload.draw_ns", draw_ns);
    l.set("workload.tasks", tasks);

    // Mid-run decision inputs: the queues a pass ended with, at a slot
    // inside the bandwidth trough.
    let d = Decisions::build(
        scenario,
        deployment,
        &first.queues,
        &shares,
        &means,
        SimTime::from_secs(90.0),
    );
    let (decide_ns, batch_ns, xs) = layers::decide_costs(&d, 50);
    l.set("offload.decide_ns", decide_ns);
    l.set("offload.decide_batch_ns", batch_ns);
    let x = xs.iter().sum::<f64>() / n as f64;
    let step_ns = layers::queue_step_ns(&first.queues, tasks / device_slots, x);
    l.set("offload.queue_step_ns", step_ns);
    let kkt_s = layers::kkt_s(&flops, &means, scenario.edge_flops);
    l.set("offload.kkt_s", kkt_s);
    let faults = first.report.fault_stats();
    l.set("offload.degrade_retries", faults.retries as f64);
    l.set("offload.degrade_fallbacks", faults.fallbacks as f64);

    let rounds = slots.div_ceil(leime::DEFAULT_EPOCH_LEN.get());
    l.set("par.rounds", rounds as f64);
    l.set("par.round_ns", layers::par_round_ns());
    l.set("par.speedup_2w", layers::speedup(run_s, two_worker_s));

    // Telemetry cost: the same pass without a registry.
    let bare_s = median_secs(5, || {
        if let Ok(mut s) = SlottedSystem::new(scenario.clone(), deployment.clone()) {
            std::hint::black_box(s.run(slots, inp.run_seed).ok());
        }
    });
    l.set("telemetry.overhead_s", run_s - bare_s);
    let flush_ns = layers::flush_ns(n);
    l.set("telemetry.flush_ns", flush_ns);
    l.set("telemetry.snapshot_bytes", snapshot_bytes as f64);

    let points = first.report.series().len() as f64;
    let push_ns = layers::series_push_ns((tasks / device_slots).round() as u64);
    l.set("simnet.series_points", points);
    l.set("simnet.series_push_ns", push_ns);

    let attributed = device_slots * (draw_ns + batch_ns + step_ns + flush_ns) * 1e-9
        + points * push_ns * 1e-9
        + kkt_s;
    l.set("core.unattributed_s", run_s - attributed);
    Ok(())
}

/// The serialized report and telemetry snapshot of one fresh pass.
pub fn digest(seed: u64) -> leime::Result<Vec<(&'static str, String)>> {
    let inputs = inputs::edge_hetero(seed);
    let (mut system, registry) = set_up(&inputs.scenario)?;
    let report = system.run(inputs.slots, inputs.run_seed)?;
    let mut h = Fnv::default();
    h.json(&report).map_err(leime::LeimeError::Config)?;
    let mut t = Fnv::default();
    t.json(&registry.snapshot())
        .map_err(leime::LeimeError::Config)?;
    Ok(vec![("report", h.hex()), ("telemetry", t.hex())])
}
