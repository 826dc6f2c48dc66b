//! `serving_flash`: `ServingSystem` with ten thousand Pi devices, the
//! edge scaled to the fleet, under the flash-crowd-over-brownout
//! composition. Traffic is open-loop in simulated time.

use std::time::Instant;

use leime::{share_floor, Scenario};
use leime_exitcfg::EnvParams;
use leime_offload::{QueuePair, SlotCost};
use leime_serving::{
    admit, steer_exits, ServingConfig, ServingReport, ServingSystem, SlaClass, TrafficModel,
};
use leime_simnet::SimTime;
use leime_workload::SlotArrivals;
use rand::{Rng, SeedableRng};

use crate::checks;
use crate::common::{
    first_block_floor_s, median_secs, ns_per_call, timed_passes, timed_setup, tracing_overhead,
    Opts, Outcome, Pass,
};
use crate::host::{median, peak_rss_mib, Fnv};
use crate::inputs::{self, ServingInputs};
use crate::layers::{self, Decisions};
use crate::trace::Spans;

/// Set-ups per timed sample: one takes a few hundred microseconds.
const SETUP_BATCH: usize = 20;

fn set_up(inp: &ServingInputs) -> leime::Result<ServingSystem> {
    inp.scenario.validate()?;
    ServingSystem::new(inp.scenario.clone(), inp.config.clone())
}

/// The offered-load multiplier of the slot starting at `t_s`, from the
/// traffic model's parameters.
fn rate_at(config: &ServingConfig, t_s: f64) -> Result<f64, String> {
    match config.traffic.model {
        TrafficModel::FlashCrowd {
            start_s,
            duration_s,
            factor,
        } => {
            let crowd = t_s >= start_s && t_s < start_s + duration_s;
            Ok(config.traffic.load * if crowd { factor } else { 1.0 })
        }
        ref other => Err(format!(
            "serving workload expects a flash crowd, got {other:?}"
        )),
    }
}

/// Expected offered requests over the run: the traffic rate integrated
/// over slots times every device's base rate. Counts are Poisson, so
/// the variance equals the mean.
fn offered_expectation(inp: &ServingInputs) -> Result<f64, String> {
    let base: f64 = inp.scenario.devices.iter().map(|d| d.arrival_mean).sum();
    let mut total = 0.0;
    for slot in 0..inp.slots {
        total += base * rate_at(&inp.config, slot as f64 * inp.scenario.slot_len_s)?;
    }
    Ok(total)
}

fn pass_checks(inp: &ServingInputs, r: &ServingReport, min_tct_s: f64) -> Result<(), String> {
    checks::class_accounting(&r.classes)?;
    checks::shed_order(&r.classes)?;
    checks::ratios_and_tcts(
        [r.mean_offload_ratio()],
        r.classes
            .iter()
            .flat_map(|c| c.tct_s.min().into_iter().chain(c.tct_s.max())),
        min_tct_s,
    )?;
    let expected = offered_expectation(inp)?;
    checks::within_sigmas(r.offered_total() as f64, expected, expected)
}

/// The environment `steer_exits` prices each class's exit search under.
fn class_env(scenario: &Scenario, config: &ServingConfig, class: SlaClass) -> EnvParams {
    let mut env = scenario.avg_env();
    let factor = match class {
        _ if !config.steer.enabled => return env,
        SlaClass::LatencyCritical => config.steer.lc_edge_discount,
        SlaClass::Standard => return env,
        SlaClass::BestEffort => config.steer.be_edge_bonus,
    };
    env.edge_flops = (env.edge_flops * factor).min(scenario.edge_flops);
    env
}

pub fn run(opts: &Opts, spans: &mut Spans) -> leime::Result<Outcome> {
    let inp = inputs::serving_flash(opts.seed);
    let n = inp.scenario.devices.len();
    let device_slots = (n * inp.slots) as u64;
    let mut out = Outcome::default();

    let system = set_up(&inp)?;
    let plan = system.plan().clone();
    let min_mu1 = SlaClass::ALL
        .iter()
        .map(|&c| plan.for_class(c).mu[0])
        .fold(f64::INFINITY, f64::min);
    let min_tct_s = first_block_floor_s(&inp.scenario, min_mu1);

    let mut first: Option<ServingReport> = None;
    let mut pass = |spans: &mut Spans, k: usize| -> leime::Result<Pass> {
        let (mut system, setup_s) = timed_setup(spans, SETUP_BATCH, || set_up(&inp))?;
        let span = spans.enter("serving.run");
        let t0 = Instant::now();
        let report = system.run(inp.slots, inp.run_seed)?;
        let run_s = t0.elapsed().as_secs_f64();
        spans.exit(span);
        let span = spans.enter("check");
        let mut h = Fnv::default();
        let checks = h
            .json(&report)
            .and_then(|()| pass_checks(&inp, &report, min_tct_s));
        if k == 1 {
            first = Some(report);
        }
        spans.exit(span);
        Ok(Pass {
            setup_s,
            run_s,
            digest: h.finish(),
            checks,
        })
    };
    let digests = timed_passes(opts, device_slots, spans, &mut out, &mut pass);
    let trace_overhead = spans
        .enabled()
        .then(|| tracing_overhead(&out, 1, &mut pass));
    out.peak_rss_mib = peak_rss_mib();

    let span = spans.enter("check.global");
    let Some(first) = first else {
        out.global("passes", Err("the first pass did not finish".into()));
        spans.exit(span);
        return Ok(out);
    };
    let chain = inp.scenario.chain();
    let rates = inp.scenario.candidate_rates();
    let combos = SlaClass::ALL.iter().try_for_each(|&c| {
        let env = class_env(&inp.scenario, &inp.config, c);
        checks::exit_combo_is_optimal(
            &chain,
            inp.scenario.exit_spec,
            &rates,
            env,
            plan.for_class(c).combo,
        )
        .map_err(|e| format!("{}: {e}", c.name()))
    });
    out.global("exit_combo_optimal", combos);
    // Eq. 27 at the crowd's peak rate.
    let peak = (0..inp.slots)
        .filter_map(|s| rate_at(&inp.config, s as f64 * inp.scenario.slot_len_s).ok())
        .fold(0.0, f64::max);
    let flops: Vec<f64> = inp.scenario.devices.iter().map(|d| d.flops).collect();
    let means: Vec<f64> = inp
        .scenario
        .devices
        .iter()
        .map(|d| d.arrival_mean * peak)
        .collect();
    let floor = share_floor(n);
    let shares =
        leime_offload::kkt_allocation_with_floor(&flops, &means, inp.scenario.edge_flops, floor);
    out.global(
        "kkt_shares",
        checks::shares_match_kkt(&flops, &means, inp.scenario.edge_flops, floor, &shares),
    );
    out.global("replay_deterministic", checks::replay_identical(&digests));
    spans.exit(span);

    if let Some(trace_overhead) = trace_overhead {
        let span = spans.enter("layers");
        layer_metrics(&mut out, &inp, &system, &first, &shares, &means)?;
        out.layers.set("trace.overhead_s", trace_overhead);
        spans.exit(span);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    inp: &ServingInputs,
    system: &ServingSystem,
    report: &ServingReport,
    shares: &[f64],
    means: &[f64],
) -> leime::Result<()> {
    let scenario = &inp.scenario;
    let n = scenario.devices.len();
    let device_slots = (n * inp.slots) as f64;
    let run_s = median(&out.run_walls);
    let l = &mut out.layers;

    let (mut search_s, mut evals, mut exhaustive) = (0.0, 0.0, 0.0);
    for c in SlaClass::ALL {
        let (s, e, x) = layers::exit_search(scenario, class_env(scenario, &inp.config, c))?;
        search_s += s;
        evals += e as f64;
        exhaustive += x as f64;
    }
    l.set("exitcfg.search_s", search_s);
    l.set("exitcfg.evals", evals);
    l.set("exitcfg.exhaustive_evals", exhaustive);
    l.set(
        "serving.steer_s",
        median_secs(21, || {
            std::hint::black_box(steer_exits(scenario, &inp.config.steer).ok());
        }),
    );
    l.set("core.run_s", run_s);
    let json = serde_json::to_string(report)
        .map_err(|e| leime::LeimeError::Config(format!("serialize: {e}")))?;
    l.set("core.report_bytes", json.len() as f64);

    let offered = report.offered_total() as f64;
    let draw = SlotArrivals::Poisson {
        mean: offered / device_slots,
        max: inp.config.traffic.max_per_slot,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(leime_par::stream_seed(inp.run_seed, 0));
    let draw_ns = ns_per_call(200_000, |_| {
        std::hint::black_box(draw.draw(&mut rng));
    });
    l.set("workload.draw_ns", draw_ns);
    l.set("workload.tasks", offered);
    let hard_f = inp.config.traffic.base_hard_fraction;
    let request_draw_ns = ns_per_call(1_000_000, |_| {
        let class = inp.config.sla.class_for_draw(rng.gen_range(0.0..1.0));
        std::hint::black_box((class, rng.gen_range(0.0..1.0) < hard_f));
    });
    l.set("serving.request_draw_ns", request_draw_ns);

    let std_plan = system.plan().standard();
    let queues = vec![QueuePair::new(); n];
    let d = Decisions::build(scenario, std_plan, &queues, shares, means, SimTime::ZERO);
    let (decide_ns, batch_ns, xs) = layers::decide_costs(&d, 2);
    l.set("offload.decide_ns", decide_ns);
    l.set("offload.decide_batch_ns", batch_ns);
    let x = xs.iter().sum::<f64>() / n as f64;
    let step_ns = layers::queue_step_ns(&queues, offered / device_slots, x);
    l.set("offload.queue_step_ns", step_ns);
    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
    let kkt_s = layers::kkt_s(&flops, means, scenario.edge_flops);
    l.set("offload.kkt_s", kkt_s);

    // One admission decision on a typical slot's inputs.
    let cost = SlotCost::new(d.shared[0], d.devices[0], 5.0, 5.0, d.obs[0].p_share);
    let std_mu1 = std_plan.mu[0];
    let weights = SlaClass::ALL.map(|c| system.plan().for_class(c).mu[0] / std_mu1);
    let per_class =
        SlaClass::ALL.map(|c| (draw.mean() * inp.config.sla.mix[c.index()]).round() as u64);
    let admit_ns = ns_per_call(1_000_000, |i| {
        let q = (i % 17) as f64;
        std::hint::black_box(admit(
            &inp.config.admission,
            q,
            5.0,
            cost.device_quota(),
            cost.edge_quota(x),
            x,
            weights,
            per_class,
        ));
    });
    l.set("serving.admit_ns", admit_ns);
    let mut traffic_rng =
        rand::rngs::StdRng::seed_from_u64(leime_par::stream_seed(inp.run_seed, 1));
    let rate_ns = ns_per_call(1_000_000, |i| {
        let t = (i % inp.slots) as f64 * scenario.slot_len_s;
        std::hint::black_box(inp.config.traffic.rate_factor(t, &mut traffic_rng));
    });
    l.set("serving.rate_factor_ns", rate_ns);
    l.set("serving.offered", offered);
    l.set("serving.admitted", report.admitted_total() as f64);
    l.set("serving.shed", report.shed_total() as f64);

    let horizon = SimTime::from_secs(inp.slots as f64 * scenario.slot_len_s);
    let chaos = scenario
        .chaos
        .as_ref()
        .ok_or_else(|| leime::LeimeError::Config("serving workload without chaos".into()))?;
    let compile_s = median_secs(5, || {
        std::hint::black_box(chaos.compile(n, horizon));
    });
    let schedule = chaos.compile(n, horizon);
    let lookup_ns = ns_per_call(n * 4, |i| {
        let t = SimTime::from_secs((i / n) as f64 * 7.0);
        std::hint::black_box((
            schedule.link_health(i % n, t),
            schedule.edge_health(t),
            schedule.device_alive(i % n, t),
        ));
    });
    l.set("chaos.compile_s", compile_s);
    l.set("chaos.lookup_ns", lookup_ns);
    l.set("chaos.fault_slots", report.fault_slots as f64);

    let attributed = device_slots * (draw_ns + decide_ns + admit_ns + step_ns + lookup_ns) * 1e-9
        + offered * request_draw_ns * 1e-9
        + inp.slots as f64 * (rate_ns * 1e-9 + kkt_s)
        + compile_s;
    l.set("core.unattributed_s", run_s - attributed);
    Ok(())
}

/// The serialized report of one fresh pass.
pub fn digest(seed: u64) -> leime::Result<Vec<(&'static str, String)>> {
    let inp = inputs::serving_flash(seed);
    let report = set_up(&inp)?.run(inp.slots, inp.run_seed)?;
    let mut h = Fnv::default();
    h.json(&report).map_err(leime::LeimeError::Config)?;
    Ok(vec![("report", h.hex())])
}
