//! Each workload's inputs, generated from the seed alone: the same seed
//! gives the same scenario, configs and run seed.

use leime::{ControllerKind, ModelKind, Scenario, WorkloadKind};
use leime_chaos::{ChaosConfig, FaultModel};
use leime_fleet::{edge_chaos, FleetConfig};
use leime_offload::DeviceParams;
use leime_serving::{flash_brownout_testbed, ServingConfig};
use leime_simnet::{SimTime, TimeTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input streams derived from the workload seed.
const DEVICES_STREAM: u64 = 1;
const RUN_STREAM: u64 = 2;
const CHAOS_STREAM: u64 = 3;
const ASSIGN_STREAM: u64 = 4;

pub const EDGE_DEVICES: usize = 320;
pub const EDGE_SLOTS: usize = 240;
/// Share of Jetson-Nano-class devices in the mixed edge fleet.
pub const EDGE_NANO_SHARE: f64 = 0.35;
/// Edge capacity per device: the edge scales with the fleet it serves.
pub const EDGE_FLOPS_PER_DEVICE: f64 = 1.0e9;

pub const FLEET_DEVICES: usize = 1_000_000;
/// The reduced fleet the 1-vs-2-worker byte comparison runs on.
pub const FLEET_REDUCED_DEVICES: usize = 100_000;
pub const FLEET_EDGES: usize = 16;
pub const FLEET_SLOTS: usize = 4;
pub const FLEET_REBALANCE: usize = 2;
pub const FLEET_ARRIVAL_MEAN: f64 = 2.0;
pub const FLEET_WORKERS: usize = 2;
/// Edges the first boundary finds down, whatever the seed: evacuations
/// set the boundary's cost, so their number is part of the shape.
pub const FLEET_DOWN_EDGES: usize = 4;

pub const SERVING_DEVICES: usize = 10_000;
pub const SERVING_SLOTS: usize = 60;
/// The serving testbed prices 4 devices on a 2.5 GFLOPS edge; the
/// 10k-device edge keeps that capacity per device.
pub const SERVING_EDGE_FLOPS_PER_DEVICE: f64 = 2.5e9 / 4.0;

fn stream(seed: u64, id: u64) -> u64 {
    leime_par::stream_seed(seed, id)
}

/// One edge: a mixed Pi/Jetson-Nano fleet with spread links, bursty
/// MMPP arrivals and the wild-network bandwidth square wave.
#[derive(Debug, Clone)]
pub struct EdgeInputs {
    pub scenario: Scenario,
    pub slots: usize,
    pub run_seed: u64,
}

pub fn edge_hetero(seed: u64) -> EdgeInputs {
    let mut rng = StdRng::seed_from_u64(stream(seed, DEVICES_STREAM));
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, EDGE_DEVICES, 2.0);
    for d in &mut scenario.devices {
        let arrival_mean = rng.gen_range(1.0..3.0);
        *d = if rng.gen_bool(EDGE_NANO_SHARE) {
            DeviceParams::jetson_nano(arrival_mean)
        } else {
            DeviceParams::raspberry_pi(arrival_mean)
        };
        // Log-uniform 2–40 Mbps links, 5–80 ms latency.
        d.bandwidth_bps = 2.0e6 * 20f64.powf(rng.gen_range(0.0..1.0));
        d.latency_s = rng.gen_range(0.005..0.080);
    }
    scenario.edge_flops = EDGE_FLOPS_PER_DEVICE * EDGE_DEVICES as f64;
    scenario.controller = ControllerKind::Lyapunov;
    scenario.bandwidth_scale = Some(TimeTrace::square_wave(
        1.0,
        0.2,
        SimTime::from_secs(60.0),
        SimTime::from_secs(EDGE_SLOTS as f64),
    ));
    // The wild-network experiment's MMPP: 6x bursts at ~10% duty.
    scenario.workload = WorkloadKind::Bursty {
        burst_factor: 6.0,
        p_enter: 0.03,
        p_leave: 0.25,
        max: 1000,
    };
    EdgeInputs {
        scenario,
        slots: EDGE_SLOTS,
        run_seed: stream(seed, RUN_STREAM),
    }
}

/// A homogeneous Pi fleet dealt over 16 edges, rebalanced every
/// [`FLEET_REBALANCE`] slots, with edge outages driving failover.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    pub scenario: Scenario,
    pub config: FleetConfig,
    pub slots: usize,
    pub run_seed: u64,
}

pub fn fleet_failover(seed: u64, devices: usize) -> FleetInputs {
    let mut scenario =
        Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, devices, FLEET_ARRIVAL_MEAN);
    scenario.controller = ControllerKind::Lyapunov;
    let mut config = FleetConfig::regional(FLEET_EDGES, FLEET_REBALANCE);
    config.assign_seed = stream(seed, ASSIGN_STREAM);
    scenario.chaos = Some(outages(seed, &config, devices, scenario.slot_len_s));
    FleetInputs {
        scenario,
        config,
        slots: FLEET_SLOTS,
        run_seed: stream(seed, RUN_STREAM),
    }
}

/// Edge outages from the first seed in the workload's chaos stream under
/// which exactly [`FLEET_DOWN_EDGES`] edges are down when the first
/// boundary samples their health, as the fleet samples it (interval-local
/// time, the interval's last slot start).
fn outages(seed: u64, config: &FleetConfig, devices: usize, slot_len_s: f64) -> ChaosConfig {
    let candidate = |j: u64| ChaosConfig {
        seed: stream(stream(seed, CHAOS_STREAM), j),
        models: vec![FaultModel::EdgeOutages {
            duty: 0.5,
            mean_outage_s: 2.0,
        }],
        window_s: None,
    };
    let horizon = SimTime::from_secs(config.rebalance_interval as f64 * slot_len_s);
    let sample = SimTime::from_secs((config.rebalance_interval - 1) as f64 * slot_len_s);
    let per_edge = devices / config.edges;
    let down = |chaos: &ChaosConfig| {
        (0..config.edges)
            .filter_map(|e| edge_chaos(Some(chaos), e))
            .filter(|c| !c.compile(per_edge, horizon).edge_health(sample).up)
            .count()
    };
    // About one candidate in five qualifies.
    (0..10_000)
        .map(candidate)
        .find(|c| down(c) == FLEET_DOWN_EDGES)
        .unwrap_or_else(|| candidate(0))
}

/// The flash-crowd-over-brownout serving composition at 10k devices.
#[derive(Debug, Clone)]
pub struct ServingInputs {
    pub scenario: Scenario,
    pub config: ServingConfig,
    pub slots: usize,
    pub run_seed: u64,
}

pub fn serving_flash(seed: u64) -> ServingInputs {
    let (mut scenario, config) = flash_brownout_testbed(
        ModelKind::SqueezeNet,
        SERVING_DEVICES,
        stream(seed, CHAOS_STREAM),
        1.0,
    );
    scenario.edge_flops = SERVING_EDGE_FLOPS_PER_DEVICE * SERVING_DEVICES as f64;
    ServingInputs {
        scenario,
        config,
        slots: SERVING_SLOTS,
        run_seed: stream(seed, RUN_STREAM),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let a = edge_hetero(5);
        let b = edge_hetero(5);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.run_seed, b.run_seed);
        assert_ne!(edge_hetero(6).scenario, a.scenario);
        assert!(a.scenario.validate().is_ok());
        assert!(fleet_failover(5, 1000).scenario.validate().is_ok());
        let s = serving_flash(5);
        assert!(s.scenario.validate().is_ok() && s.config.validate().is_ok());
    }
}
