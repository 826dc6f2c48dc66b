//! `fleet_failover`: `FleetSystem` with a million homogeneous Pi
//! devices on 16 edges, a short rebalance interval and edge outages,
//! at two workers with telemetry off.

use std::time::Instant;

use leime::{share_floor, Deployment, ExitStrategy, Scenario, SlottedSystem};
use leime_fleet::{
    edge_chaos, edge_pressures, evacuate, initial_assignment, rebalance, FleetReport, FleetSystem,
    MigrationCause, MigrationEvent,
};
use leime_offload::QueuePair;
use leime_simnet::SimTime;
use leime_workload::SlotArrivals;
use rand::SeedableRng;

use crate::checks;
use crate::common::{
    digest_run_report, first_block_floor_s, median_secs, ns_per_call, timed_passes, timed_setup,
    tracing_overhead, Opts, Outcome, Pass,
};
use crate::host::{median, peak_rss_mib, Fnv};
use crate::inputs::{self, FleetInputs, FLEET_ARRIVAL_MEAN, FLEET_REDUCED_DEVICES, FLEET_WORKERS};
use crate::layers::{self, workers, Decisions};
use crate::trace::Spans;

fn set_up(inp: &FleetInputs) -> leime::Result<FleetSystem> {
    inp.scenario.validate()?;
    let deployment = inp.scenario.deploy(ExitStrategy::Leime)?;
    FleetSystem::new(inp.scenario.clone(), deployment, inp.config.clone())
}

/// Every simulated statistic of a fleet report, read through its
/// public fields and accessors.
fn digest_report(r: &FleetReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.devices as u64);
    h.u64(r.edges as u64);
    for iv in &r.intervals {
        h.u64(iv.start_slot as u64);
        h.u64(iv.slots as u64);
        for &e in &iv.down_edges {
            h.u64(e as u64);
        }
        for edge in &iv.edges {
            digest_run_report(&mut h, edge);
        }
    }
    for m in &r.migrations {
        for v in [m.at_slot, m.device, m.from_edge, m.to_edge] {
            h.u64(v as u64);
        }
        h.f64(m.backlog);
        h.u64(u64::from(m.cause == MigrationCause::Failover));
    }
    for &e in &r.final_assignment {
        h.u64(e as u64);
    }
    h.finish()
}

/// The report serialized piece by piece — each interval's header and
/// per-edge reports, the migration log and the final assignment — so a
/// million-device report never exists as one JSON tree.
fn serialized_pieces(r: &FleetReport, mut sink: impl FnMut(&str)) -> Result<(), String> {
    fn json<T: serde::Serialize>(v: &T) -> Result<String, String> {
        serde_json::to_string(v).map_err(|e| format!("serialize: {e}"))
    }
    sink(&json(&(r.devices, r.edges))?);
    for iv in &r.intervals {
        sink(&json(&(iv.start_slot, iv.slots, iv.down_edges.clone()))?);
        for edge in &iv.edges {
            sink(&json(edge)?);
        }
    }
    sink(&json(&r.migrations)?);
    sink(&json(&r.final_assignment)?);
    Ok(())
}

/// Checks one pass's report: ratios, completion times, arrivals and the
/// final assignment.
fn pass_checks(
    inp: &FleetInputs,
    r: &FleetReport,
    assigned: usize,
    min_tct_s: f64,
) -> Result<(), String> {
    let edges = r.intervals.iter().flat_map(|iv| iv.edges.iter());
    checks::ratios_and_tcts(
        edges.clone().map(|e| e.mean_offload_ratio()),
        edges.flat_map(|e| e.series().points().iter().map(|p| p.1)),
        min_tct_s,
    )?;
    let n = inp.scenario.devices.len();
    let expected = (n * inp.slots) as f64 * FLEET_ARRIVAL_MEAN;
    checks::within_sigmas(r.tasks() as f64, expected, expected)?;
    if assigned != n {
        return Err(format!("{assigned} devices assigned out of {n}"));
    }
    let down_at_end = r
        .intervals
        .last()
        .map(|iv| iv.down_edges.as_slice())
        .unwrap_or_default();
    checks::assignment_valid(&r.final_assignment, n, inp.config.edges, down_at_end)
}

/// Replays the migration log from the seeded initial assignment: each
/// move must leave the edge the device sat on, and the replay must end
/// at the reported final assignment.
fn migrations_replay(
    inp: &FleetInputs,
    log: &[MigrationEvent],
    last: &[usize],
) -> Result<(), String> {
    let n = inp.scenario.devices.len();
    let mut at: Vec<usize> = initial_assignment(n, inp.config.edges, inp.config.assign_seed)
        .into_values()
        .collect();
    for m in log {
        match at.get_mut(m.device) {
            Some(e) if *e == m.from_edge => *e = m.to_edge,
            _ => {
                return Err(format!(
                    "migration of device {} from edge {} does not match its edge",
                    m.device, m.from_edge
                ))
            }
        }
    }
    if at == last {
        Ok(())
    } else {
        Err("replayed migrations do not reach the final assignment".into())
    }
}

/// What the first pass keeps for the global checks and the layers.
struct Kept {
    migrations: Vec<MigrationEvent>,
    final_assignment: Vec<usize>,
    /// The whole report and the end queues, kept by traced runs only.
    traced: Option<(FleetReport, Vec<QueuePair>)>,
}

pub fn run(opts: &Opts, spans: &mut Spans) -> leime::Result<Outcome> {
    let inp = inputs::fleet_failover(opts.seed, inputs::FLEET_DEVICES);
    let n = inp.scenario.devices.len();
    let device_slots = (n * inp.slots) as u64;
    let mut out = Outcome::default();

    let deployment = inp.scenario.deploy(ExitStrategy::Leime)?;
    let min_tct_s = first_block_floor_s(&inp.scenario, deployment.mu[0]);

    let traced = spans.enabled();
    let mut kept: Option<Kept> = None;
    let mut pass = |spans: &mut Spans, k: usize| -> leime::Result<Pass> {
        let (mut fleet, setup_s) = timed_setup(spans, 1, || set_up(&inp))?;
        let span = spans.enter("fleet.run");
        let t0 = Instant::now();
        let report = fleet.run_with_workers(inp.slots, inp.run_seed, workers(FLEET_WORKERS))?;
        let run_s = t0.elapsed().as_secs_f64();
        spans.exit(span);
        let span = spans.enter("check");
        let digest = digest_report(&report);
        let checks = pass_checks(&inp, &report, fleet.assignment().len(), min_tct_s);
        if k == 1 {
            let queues = traced.then(|| fleet.queues().values().copied().collect());
            kept = Some(Kept {
                migrations: report.migrations.clone(),
                final_assignment: report.final_assignment.clone(),
                traced: queues.map(|q| (report, q)),
            });
        }
        spans.exit(span);
        Ok(Pass {
            setup_s,
            run_s,
            digest,
            checks,
        })
    };
    let digests = timed_passes(opts, device_slots, spans, &mut out, &mut pass);
    let trace_overhead = traced.then(|| tracing_overhead(&out, 1, &mut pass));
    out.peak_rss_mib = peak_rss_mib();

    let span = spans.enter("check.global");
    let Some(first) = kept else {
        out.global("passes", Err("the first pass did not finish".into()));
        spans.exit(span);
        return Ok(out);
    };
    out.global(
        "exit_combo_optimal",
        checks::exit_combo_is_optimal(
            &inp.scenario.chain(),
            inp.scenario.exit_spec,
            &inp.scenario.candidate_rates(),
            inp.scenario.avg_env(),
            deployment.combo,
        ),
    );
    let per_edge = n / inp.config.edges;
    let flops = vec![inp.scenario.devices[0].flops; per_edge];
    let means = vec![FLEET_ARRIVAL_MEAN; per_edge];
    let floor = share_floor(per_edge);
    let shares =
        leime_offload::kkt_allocation_with_floor(&flops, &means, inp.scenario.edge_flops, floor);
    out.global(
        "kkt_shares",
        checks::shares_match_kkt(&flops, &means, inp.scenario.edge_flops, floor, &shares),
    );
    out.global("replay_deterministic", checks::replay_identical(&digests));
    out.global(
        "migrations_replay",
        migrations_replay(&inp, &first.migrations, &first.final_assignment),
    );
    // The full fleet runs at two workers; a reduced copy must produce
    // the same bytes at one and at two (§11, §16).
    let reduced = inputs::fleet_failover(opts.seed, FLEET_REDUCED_DEVICES);
    let timed_run = |w: usize| -> leime::Result<(String, f64)> {
        let mut fleet = set_up(&reduced)?;
        let t0 = Instant::now();
        let report = fleet.run_with_workers(reduced.slots, reduced.run_seed, workers(w))?;
        let secs = t0.elapsed().as_secs_f64();
        let json = serde_json::to_string(&report)
            .map_err(|e| leime::LeimeError::Config(format!("serialize: {e}")))?;
        Ok((json, secs))
    };
    let (one, one_s) = timed_run(1)?;
    let (two, two_s) = timed_run(2)?;
    out.global(
        "workers_byte_identical",
        checks::bytes_identical("reduced fleet report", &one, &two),
    );
    spans.exit(span);

    if let (Some(trace_overhead), Some((report, queues))) = (trace_overhead, first.traced) {
        let span = spans.enter("layers");
        let speedup = layers::speedup(one_s, two_s);
        layer_metrics(
            &mut out,
            &inp,
            &deployment,
            &report,
            &queues,
            &shares,
            speedup,
        )?;
        out.layers.set("trace.overhead_s", trace_overhead);
        spans.exit(span);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    inp: &FleetInputs,
    deployment: &Deployment,
    report: &FleetReport,
    queues: &[QueuePair],
    shares: &[f64],
    speedup_2w: f64,
) -> leime::Result<()> {
    let template = &inp.scenario;
    let n = template.devices.len();
    let per_edge = shares.len();
    let device_slots = (n * inp.slots) as f64;
    let run_s = median(&out.run_walls);
    let l = &mut out.layers;

    let (search_s, evals, exhaustive) = layers::exit_search(template, template.avg_env())?;
    l.set("exitcfg.search_s", search_s);
    l.set("exitcfg.evals", evals as f64);
    l.set("exitcfg.exhaustive_evals", exhaustive as f64);
    l.set(
        "fleet.new_s",
        median_secs(3, || {
            std::hint::black_box(
                leime_fleet::FleetSystem::new(
                    template.clone(),
                    deployment.clone(),
                    inp.config.clone(),
                )
                .ok(),
            );
        }),
    );

    // One edge's scenario at the size an interval deals it.
    let mut edge_scenario: Scenario = template.clone();
    edge_scenario.devices.truncate(per_edge);
    edge_scenario.chaos = edge_chaos(template.chaos.as_ref(), 1);
    l.set(
        "core.new_s",
        median_secs(5, || {
            std::hint::black_box(
                SlottedSystem::new(edge_scenario.clone(), deployment.clone()).ok(),
            );
        }),
    );
    l.set("core.run_s", run_s);
    let mut bytes = 0usize;
    serialized_pieces(report, |s| bytes += s.len()).map_err(leime::LeimeError::Config)?;
    l.set("core.report_bytes", bytes as f64);

    let draw = SlotArrivals::Poisson {
        mean: FLEET_ARRIVAL_MEAN,
        max: 1000,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(leime_par::stream_seed(inp.run_seed, 0));
    let draw_ns = ns_per_call(1_000_000, |_| {
        std::hint::black_box(draw.draw(&mut rng));
    });
    let tasks = report.tasks() as f64;
    l.set("workload.draw_ns", draw_ns);
    l.set("workload.tasks", tasks);

    // Decision inputs of one edge's devices at the run's end state.
    let edge_queues: Vec<QueuePair> = queues.iter().take(per_edge).copied().collect();
    let means = vec![FLEET_ARRIVAL_MEAN; per_edge];
    let d = Decisions::build(
        &edge_scenario,
        deployment,
        &edge_queues,
        shares,
        &means,
        SimTime::ZERO,
    );
    let (decide_ns, batch_ns, _) = layers::decide_costs(&d, 2);
    l.set("offload.decide_ns", decide_ns);
    l.set("offload.decide_batch_ns", batch_ns);
    // The slotted loop re-solves only when a device's inputs differ from
    // the previous device's: count those changes on the end state.
    let changes = 1 + queues.windows(2).filter(|w| w[0] != w[1]).count();
    let solves = device_slots * changes as f64 / n as f64;
    let step_ns = layers::queue_step_ns(&edge_queues, tasks / device_slots, 0.0);
    l.set("offload.queue_step_ns", step_ns);
    let flops = vec![template.devices[0].flops; per_edge];
    let kkt_s = layers::kkt_s(&flops, &means, template.edge_flops);
    l.set("offload.kkt_s", kkt_s);

    let edge_reports = || report.intervals.iter().flat_map(|iv| iv.edges.iter());
    let sum = |f: &dyn Fn(&leime::RunReport) -> u64| edge_reports().map(f).sum::<u64>() as f64;
    l.set("offload.degrade_retries", sum(&|r| r.fault_stats().retries));
    l.set(
        "offload.degrade_fallbacks",
        sum(&|r| r.fault_stats().fallbacks),
    );
    l.set("chaos.fault_slots", sum(&|r| r.fault_stats().fault_slots));
    let points = sum(&|r| r.series().len() as u64);
    l.set("simnet.series_points", points);
    let push_ns = layers::series_push_ns((tasks / device_slots).round() as u64);
    l.set("simnet.series_push_ns", push_ns);

    // Inner runs: one per edge holding devices in each interval.
    let edge_runs: usize = report
        .intervals
        .iter()
        .map(|iv| iv.edges.iter().filter(|e| e.tasks() > 0).count())
        .sum();
    let rounds: usize = report
        .intervals
        .iter()
        .map(|iv| {
            iv.edges.iter().filter(|e| e.tasks() > 0).count()
                * iv.slots.div_ceil(leime::DEFAULT_EPOCH_LEN.get())
        })
        .sum();
    let round_ns = layers::par_round_ns();
    l.set("par.rounds", rounds as f64);
    l.set("par.round_ns", round_ns);
    l.set("par.speedup_2w", speedup_2w);

    let horizon = SimTime::from_secs(inp.config.rebalance_interval as f64 * template.slot_len_s);
    let chaos = edge_chaos(template.chaos.as_ref(), 1)
        .ok_or_else(|| leime::LeimeError::Config("fleet workload without chaos".into()))?;
    let compile_s = median_secs(5, || {
        std::hint::black_box(chaos.compile(per_edge, horizon));
    });
    let schedule = chaos.compile(per_edge, horizon);
    let t = SimTime::from_secs(template.slot_len_s);
    let lookup_ns = ns_per_call(per_edge * 4, |i| {
        let i = i % per_edge;
        std::hint::black_box((
            schedule.link_health(i, t),
            schedule.edge_health(t),
            schedule.device_alive(i, t),
        ));
    });
    l.set("chaos.compile_s", compile_s);
    l.set("chaos.lookup_ns", lookup_ns);
    let boundaries = report.intervals.len().saturating_sub(1);
    let compiles = edge_runs + boundaries * inp.config.edges;

    // Interval set-up as the fleet does it: clone the template, deal the
    // edge's devices, build the edge system and carry its queues in.
    let one_edge_setup = median_secs(3, || {
        let mut s = template.clone();
        s.devices = (0..per_edge).map(|i| template.devices[i]).collect();
        s.chaos = edge_chaos(template.chaos.as_ref(), 1);
        if let Ok(mut sys) = SlottedSystem::new(s, deployment.clone()) {
            std::hint::black_box(sys.set_queues(&edge_queues).is_ok());
        }
    });
    let interval_setup_s = one_edge_setup * edge_runs as f64;
    l.set("fleet.interval_setup_s", interval_setup_s);

    // Boundary actions on the seeded assignment with the run's queues,
    // downing the edges the run saw go down.
    let queue_map = queues.iter().copied().enumerate().collect();
    let mut assignment = initial_assignment(n, inp.config.edges, inp.config.assign_seed);
    let down_edges = report
        .intervals
        .last()
        .map(|iv| iv.down_edges.clone())
        .unwrap_or_default();
    let mut down = vec![false; inp.config.edges];
    let t0 = Instant::now();
    std::hint::black_box(edge_pressures(inp.config.edges, &assignment, &queue_map));
    for &e in &down_edges {
        down[e] = true;
        std::hint::black_box(evacuate(
            &inp.config,
            0,
            e,
            &mut assignment,
            &queue_map,
            &down,
        ));
    }
    std::hint::black_box(rebalance(
        &inp.config,
        0,
        &mut assignment,
        &queue_map,
        &down,
    ));
    let boundary_s = t0.elapsed().as_secs_f64() * boundaries as f64;
    l.set("fleet.boundary_s", boundary_s);
    l.set("fleet.migrations", report.migrations.len() as f64);
    l.set("fleet.intervals", report.intervals.len() as f64);

    let attributed = device_slots * (draw_ns + step_ns + lookup_ns) * 1e-9
        + solves * decide_ns * 1e-9
        + points * push_ns * 1e-9
        + edge_runs as f64 * kkt_s
        + compiles as f64 * compile_s
        + interval_setup_s
        + boundary_s
        + rounds as f64 * round_ns * 1e-9;
    l.set("core.unattributed_s", run_s - attributed);
    Ok(())
}

/// The piecewise-serialized report of one fresh full-size pass.
pub fn digest(seed: u64) -> leime::Result<Vec<(&'static str, String)>> {
    let inp = inputs::fleet_failover(seed, inputs::FLEET_DEVICES);
    let mut fleet = set_up(&inp)?;
    let report = fleet.run_with_workers(inp.slots, inp.run_seed, workers(FLEET_WORKERS))?;
    let mut h = Fnv::default();
    serialized_pieces(&report, |s| h.bytes(s.as_bytes())).map_err(leime::LeimeError::Config)?;
    Ok(vec![("report", h.hex())])
}
