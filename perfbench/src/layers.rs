//! Per-layer replays: each layer's public functions called on the
//! workload's own inputs, timed per call. The traced run multiplies the
//! per-call costs by the run's call counts to attribute the run's wall
//! time; what no replay explains is `core.unattributed_s`.

use std::hint::black_box;
use std::num::NonZeroUsize;

use leime::{Deployment, Scenario};
use leime_dnn::ModelProfile;
use leime_exitcfg::{branch_and_bound, CostModel, EnvParams};
use leime_offload::{
    ControllerTelemetry, DecisionBatch, DeviceParams, LyapunovController, OffloadController,
    QueuePair, SharedParams, SlotObservation,
};
use leime_simnet::{stats::TimeSeries, SimTime};
use leime_telemetry::{Registry, VirtualClock};

use crate::common::{median_secs, ns_per_call};

/// One slot's decision inputs for a set of devices, as the slotted loop
/// builds them.
#[derive(Debug, Default)]
pub struct Decisions {
    pub shared: Vec<SharedParams>,
    pub devices: Vec<DeviceParams>,
    pub obs: Vec<SlotObservation>,
}

impl Decisions {
    /// Inputs for every device of `scenario` at slot start `t`, given
    /// their queue states, Eq. 27 shares and arrival means.
    pub fn build(
        scenario: &Scenario,
        deployment: &Deployment,
        queues: &[QueuePair],
        shares: &[f64],
        means: &[f64],
        t: SimTime,
    ) -> Self {
        let shared = SharedParams {
            slot_len_s: scenario.slot_len_s,
            v: scenario.v,
            mu1: deployment.mu[0],
            mu2: deployment.mu[1],
            sigma1: deployment.sigma[0],
            d0_bytes: deployment.d[0],
            d1_bytes: deployment.d[1],
            edge_flops: scenario.edge_flops,
        };
        let mut d = Decisions::default();
        for (i, q) in queues.iter().enumerate() {
            d.shared.push(shared);
            d.devices.push(DeviceParams {
                arrival_mean: means[i],
                bandwidth_bps: scenario.bandwidth_at(i, t),
                ..scenario.devices[i]
            });
            d.obs.push(SlotObservation {
                q: q.q(),
                h: q.h(),
                p_share: shares[i].clamp(0.0, 1.0),
            });
        }
        d
    }

    pub fn len(&self) -> usize {
        self.obs.len()
    }
}

/// Nanoseconds per scalar `decide` and per element of `decide_batch`,
/// and the ratios they chose (for the `[0, 1]` check).
pub fn decide_costs(d: &Decisions, reps: usize) -> (f64, f64, Vec<f64>) {
    let ctrl = LyapunovController::new();
    let n = d.len();
    let mut xs = vec![0.0; n];
    let scalar = ns_per_call(n * reps, |i| {
        let k = i % n;
        black_box(ctrl.decide(d.shared[k], d.devices[k], d.obs[k]));
    });
    let batch = ns_per_call(reps, |_| {
        ctrl.decide_batch(&d.shared, &d.devices, &d.obs, &mut xs);
        black_box(&xs);
    }) / n as f64;
    (scalar, batch, xs)
}

/// Nanoseconds per Eq. 10–11 queue step on the given queue states.
pub fn queue_step_ns(queues: &[QueuePair], arrivals: f64, x: f64) -> f64 {
    let mut qs = queues.to_vec();
    let n = qs.len();
    ns_per_call(n * 20, |i| {
        let q = &mut qs[i % n];
        q.step((1.0 - x) * arrivals, x * arrivals, arrivals, arrivals);
        black_box(q);
    })
}

/// Nanoseconds per `leime_par::run_rounds` round with two shards and
/// an empty work body: the pool's barrier cost.
pub fn par_round_ns() -> f64 {
    const ROUNDS: usize = 2000;
    let t0 = std::time::Instant::now();
    let result = leime_par::run_rounds(
        vec![(), ()],
        ROUNDS,
        |_| (),
        |_, _, _: &(), _: &mut ()| (),
        |_, _: Vec<()>| Ok::<(), ()>(()),
    );
    black_box(result.is_ok());
    t0.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64
}

/// Nanoseconds per decision flushed through `ControllerTelemetry`.
pub fn flush_ns(n: usize) -> f64 {
    let registry = Registry::new();
    let tel = ControllerTelemetry::attach(&registry, "flush", VirtualClock::new());
    let mut batch = DecisionBatch::new();
    let obs = SlotObservation {
        q: 1.0,
        h: 2.0,
        p_share: 0.5,
    };
    const SLOTS: usize = 50;
    ns_per_call(SLOTS, |slot| {
        for _ in 0..n {
            batch.record_decision(slot as f64, &obs, 0.3, 1.0);
        }
        tel.flush_batch(&mut batch);
    }) / n as f64
}

/// Nanoseconds per per-task series point appended in cohorts of `k`.
pub fn series_push_ns(k: u64) -> f64 {
    let k = k.max(1);
    const CALLS: usize = 200_000;
    let mut series = TimeSeries::new();
    ns_per_call(CALLS, |i| {
        series.push_n(SimTime::from_secs(i as f64), 0.5, k);
    }) / k as f64
}

/// The Theorem-1 branch-and-bound on `env`: median seconds per search,
/// its evaluations, and the exhaustive search's `(m−1)(m−2)/2`.
pub fn exit_search(scenario: &Scenario, env: EnvParams) -> leime::Result<(f64, u64, u64)> {
    let chain = scenario.chain();
    let rates = scenario.candidate_rates();
    let profile = ModelProfile::from_chain(&chain, scenario.exit_spec)?;
    let cost = CostModel::new_offload_aware(&profile, &rates, env)?;
    let (_, _, stats) = branch_and_bound(&cost)?;
    let secs = median_secs(51, || {
        black_box(branch_and_bound(&cost).ok());
    });
    let m = cost.num_exits() as u64;
    Ok((secs, stats.total_evals(), (m - 1) * (m - 2) / 2))
}

/// Median seconds of one Eq. 27 solve at this fleet size.
pub fn kkt_s(flops: &[f64], means: &[f64], edge_flops: f64) -> f64 {
    let floor = leime::share_floor(flops.len());
    median_secs(21, || {
        black_box(leime_offload::kkt_allocation_with_floor(
            flops, means, edge_flops, floor,
        ));
    })
}

/// `t1 / t2` for two wall times of the same work at 1 and 2 workers.
pub fn speedup(t1: f64, t2: f64) -> f64 {
    if t2 > 0.0 {
        t1 / t2
    } else {
        0.0
    }
}

/// A worker count for the run entry points (0 reads as 1).
pub fn workers(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN)
}
