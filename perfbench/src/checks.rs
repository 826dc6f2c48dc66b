//! Correctness checks on the program's outputs. None compares against a
//! stored copy of earlier output: each restates a property the paper or
//! the repository's contracts promise. Every check runs outside the timed
//! phase and returns a message naming what broke.

use leime_dnn::{DnnChain, ExitCombo, ExitRates, ExitSpec, ModelProfile};
use leime_exitcfg::{exhaustive, CostModel, EnvParams};
use leime_serving::{ClassStats, SlaClass};

/// A named check outcome.
pub type Check = (&'static str, Result<(), String>);

/// Relative tolerance for comparing two computations of one quantity.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()) + f64::MIN_POSITIVE
}

/// Theorem 1: the deployed combo's expected completion time equals the
/// exhaustive search's optimum under the same cost model.
pub fn exit_combo_is_optimal(
    chain: &DnnChain,
    spec: ExitSpec,
    rates: &ExitRates,
    env: EnvParams,
    combo: ExitCombo,
) -> Result<(), String> {
    let profile = ModelProfile::from_chain(chain, spec).map_err(|e| e.to_string())?;
    let cost = CostModel::new_offload_aware(&profile, rates, env).map_err(|e| e.to_string())?;
    let (best, best_t) = exhaustive(&cost).map_err(|e| e.to_string())?;
    let t = cost.total(combo).map_err(|e| e.to_string())?;
    if close(t, best_t) {
        Ok(())
    } else {
        Err(format!(
            "deployed combo {combo:?} costs {t} s, exhaustive optimum {best:?} costs {best_t} s"
        ))
    }
}

/// Eq. 27 recomputed from the closed form: `p_i = √k_i (ΣF_d + F_e) /
/// (F_e Σ√k) − F_i / F_e` over the active set, negative shares pinned to
/// zero and the rest re-solved, then demanding devices lifted to `floor`
/// and the vector renormalised.
pub fn kkt_closed_form(flops: &[f64], means: &[f64], edge_flops: f64, floor: f64) -> Vec<f64> {
    let n = flops.len();
    let mut active: Vec<usize> = (0..n).filter(|&i| means[i] > 0.0).collect();
    let mut p = vec![0.0; n];
    if active.is_empty() {
        p.fill(1.0 / n as f64);
    }
    while !active.is_empty() {
        let sum_f: f64 = active.iter().map(|&i| flops[i]).sum();
        let sum_sqrt: f64 = active.iter().map(|&i| means[i].sqrt()).sum();
        for &i in &active {
            p[i] = means[i].sqrt() * (sum_f + edge_flops) / (edge_flops * sum_sqrt)
                - flops[i] / edge_flops;
        }
        if active.iter().all(|&i| p[i] >= 0.0) {
            break;
        }
        active.retain(|&i| {
            if p[i] < 0.0 {
                p[i] = 0.0;
                false
            } else {
                true
            }
        });
    }
    for (s, &k) in p.iter_mut().zip(means) {
        if k > 0.0 && *s < floor {
            *s = floor;
        }
    }
    let sum: f64 = p.iter().sum();
    if sum > 0.0 {
        for s in &mut p {
            *s /= sum;
        }
    }
    p
}

/// The program's Eq. 27 shares match the benchmark's closed form and sum
/// to at most 1.
pub fn shares_match_kkt(
    flops: &[f64],
    means: &[f64],
    edge_flops: f64,
    floor: f64,
    shares: &[f64],
) -> Result<(), String> {
    if shares.len() != flops.len() {
        return Err(format!(
            "{} shares for {} devices",
            shares.len(),
            flops.len()
        ));
    }
    let want = kkt_closed_form(flops, means, edge_flops, floor);
    for (i, (&got, &exp)) in shares.iter().zip(&want).enumerate() {
        if got < 0.0 || !close(got, exp) {
            return Err(format!("device {i}: share {got}, closed form gives {exp}"));
        }
    }
    let sum: f64 = shares.iter().sum();
    if sum > 1.0 + REL_TOL {
        return Err(format!("shares sum to {sum} > 1"));
    }
    Ok(())
}

/// How many standard deviations a count may stray from its analytic
/// expectation before the arrival process counts as broken.
pub const SIGMAS: f64 = 6.0;

/// `observed` lies within [`SIGMAS`] standard deviations of `expected`.
pub fn within_sigmas(observed: f64, expected: f64, variance: f64) -> Result<(), String> {
    let sd = variance.max(0.0).sqrt();
    if (observed - expected).abs() <= SIGMAS * sd {
        Ok(())
    } else {
        Err(format!(
            "observed {observed}, expected {expected} ± {SIGMAS}σ (σ = {sd})"
        ))
    }
}

/// Every pass at one seed produced the same digest.
pub fn replay_identical(digests: &[u64]) -> Result<(), String> {
    match digests.iter().position(|d| *d != digests[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "pass {i} digest {:016x} differs from pass 0 digest {:016x}",
            digests[i], digests[0]
        )),
    }
}

/// Two serializations of one run are byte-identical.
pub fn bytes_identical(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
    Err(format!(
        "{what} differs (lengths {} vs {}, first difference at byte {:?})",
        a.len(),
        b.len(),
        at.or(Some(a.len().min(b.len())))
    ))
}

/// Offload ratios lie in `[0, 1]`; every task completion time is finite
/// and at least `min_tct_s`, the first block's compute time on the
/// fastest processor.
pub fn ratios_and_tcts(
    ratios: impl IntoIterator<Item = f64>,
    tcts: impl IntoIterator<Item = f64>,
    min_tct_s: f64,
) -> Result<(), String> {
    for x in ratios {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("offload ratio {x} outside [0, 1]"));
        }
    }
    let floor = min_tct_s * (1.0 - REL_TOL);
    for t in tcts {
        if !t.is_finite() || t < floor {
            return Err(format!(
                "task completion time {t} s is not finite or below the {min_tct_s} s \
                 first-block compute time"
            ));
        }
    }
    Ok(())
}

/// The slots of mean arrivals the average device may hold queued at any
/// slot before the Eq. 10–11 queues count as unbounded.
pub const BACKLOG_SLOTS: f64 = 25.0;

/// The per-slot fleet-mean backlog `Q + H` never exceeds
/// [`BACKLOG_SLOTS`] slots of arrivals and does not grow: the mean over
/// the last quarter of the run is at most twice that over the second
/// quarter plus one slot of arrivals.
pub fn queues_bounded(backlog: &[f64], arrivals_per_slot: f64) -> Result<(), String> {
    let cap = BACKLOG_SLOTS * arrivals_per_slot;
    if let Some((t, b)) = backlog
        .iter()
        .enumerate()
        .find(|(_, b)| !b.is_finite() || **b > cap)
    {
        return Err(format!("mean backlog {b} at slot {t} exceeds {cap}"));
    }
    let q = backlog.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let second = mean(&backlog[q..2 * q]);
    let last = mean(&backlog[backlog.len() - q..]);
    if last > 2.0 * second + arrivals_per_slot {
        return Err(format!(
            "backlog grows: last-quarter mean {last} vs second-quarter mean {second}"
        ));
    }
    Ok(())
}

/// Every device sits on exactly one existing edge, and none on an edge
/// the last boundary marked down.
pub fn assignment_valid(
    final_assignment: &[usize],
    devices: usize,
    edges: usize,
    down_at_end: &[usize],
) -> Result<(), String> {
    if final_assignment.len() != devices {
        return Err(format!(
            "{} assignments for {devices} devices",
            final_assignment.len()
        ));
    }
    for (device, &edge) in final_assignment.iter().enumerate() {
        if edge >= edges {
            return Err(format!("device {device} on edge {edge} of {edges}"));
        }
        if down_at_end.contains(&edge) {
            return Err(format!("device {device} sits on downed edge {edge}"));
        }
    }
    Ok(())
}

/// Per class: offered = admitted + shed, and deadline hits ≤ admitted.
pub fn class_accounting(classes: &[ClassStats]) -> Result<(), String> {
    for c in classes {
        if c.admitted.checked_add(c.shed) != Some(c.offered) {
            return Err(format!(
                "{}: offered {} ≠ admitted {} + shed {}",
                c.class, c.offered, c.admitted, c.shed
            ));
        }
        if c.deadline_hits > c.admitted {
            return Err(format!(
                "{}: {} deadline hits exceed {} admitted",
                c.class, c.deadline_hits, c.admitted
            ));
        }
    }
    Ok(())
}

fn shed_share(classes: &[ClassStats], class: SlaClass) -> Result<f64, String> {
    let c = classes
        .iter()
        .find(|c| c.class == class.name())
        .ok_or_else(|| format!("no {} class in the report", class.name()))?;
    Ok(c.shed as f64 / c.offered.max(1) as f64)
}

/// Best-effort is shed at a share no lower than latency-critical.
pub fn shed_order(classes: &[ClassStats]) -> Result<(), String> {
    let lc = shed_share(classes, SlaClass::LatencyCritical)?;
    let be = shed_share(classes, SlaClass::BestEffort)?;
    if be >= lc {
        Ok(())
    } else {
        Err(format!(
            "best-effort shed share {be} < latency-critical {lc}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime::{ModelKind, Scenario};

    fn stats(class: SlaClass, offered: u64, admitted: u64, shed: u64, hits: u64) -> ClassStats {
        let mut c = ClassStats::new(class, 1.0);
        c.offered = offered;
        c.admitted = admitted;
        c.shed = shed;
        c.deadline_hits = hits;
        c
    }

    #[test]
    fn accounting_rejects_a_report_that_loses_requests() {
        let good = [stats(SlaClass::Standard, 10, 7, 3, 7)];
        assert!(class_accounting(&good).is_ok());
        let lost = [stats(SlaClass::Standard, 10, 7, 2, 7)];
        assert!(class_accounting(&lost).is_err());
        let hits = [stats(SlaClass::Standard, 10, 7, 3, 8)];
        assert!(class_accounting(&hits).is_err());
    }

    #[test]
    fn shed_order_rejects_best_effort_favoured() {
        let ok = [
            stats(SlaClass::LatencyCritical, 100, 99, 1, 0),
            stats(SlaClass::BestEffort, 100, 50, 50, 0),
        ];
        assert!(shed_order(&ok).is_ok());
        let inverted = [
            stats(SlaClass::LatencyCritical, 100, 50, 50, 0),
            stats(SlaClass::BestEffort, 100, 99, 1, 0),
        ];
        assert!(shed_order(&inverted).is_err());
    }

    fn hetero() -> (Vec<f64>, Vec<f64>) {
        let flops = vec![1e9, 8.2e9, 1e9, 2e9, 8.2e9, 0.5e9];
        let means = vec![2.0, 0.5, 3.0, 1.0, 0.0, 4.0];
        (flops, means)
    }

    #[test]
    fn closed_form_matches_the_program() {
        let (flops, means) = hetero();
        let shares = leime_offload::kkt_allocation_with_floor(&flops, &means, 6e9, 1e-3);
        assert!(shares_match_kkt(&flops, &means, 6e9, 1e-3, &shares).is_ok());
    }

    #[test]
    fn permuted_shares_are_rejected() {
        let (flops, means) = hetero();
        let mut shares = leime_offload::kkt_allocation_with_floor(&flops, &means, 6e9, 1e-3);
        shares.swap(0, 2);
        assert!(shares_match_kkt(&flops, &means, 6e9, 1e-3, &shares).is_err());
        let mut inflated = leime_offload::kkt_allocation_with_floor(&flops, &means, 6e9, 1e-3);
        inflated[0] += 0.5;
        assert!(shares_match_kkt(&flops, &means, 6e9, 1e-3, &inflated).is_err());
    }

    #[test]
    fn non_optimal_exit_combo_is_rejected() {
        let s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 4, 5.0);
        let chain = s.chain();
        let rates = s.candidate_rates();
        let env = s.avg_env();
        let deployed = s.deploy(leime::ExitStrategy::Leime).unwrap();
        assert!(exit_combo_is_optimal(&chain, s.exit_spec, &rates, env, deployed.combo).is_ok());
        // Any combo costing more than the optimum must fail.
        let profile = ModelProfile::from_chain(&chain, s.exit_spec).unwrap();
        let cost = CostModel::new_offload_aware(&profile, &rates, env).unwrap();
        let (_, best) = exhaustive(&cost).unwrap();
        let m = chain.num_layers();
        let worse = (0..m - 2)
            .flat_map(|f| (f + 1..m - 1).map(move |s| (f, s)))
            .map(|(f, s)| ExitCombo::new(f, s, m - 1, m).unwrap())
            .find(|c| cost.total(*c).unwrap() > best * (1.0 + 1e-6))
            .unwrap();
        assert!(exit_combo_is_optimal(&chain, s.exit_spec, &rates, env, worse).is_err());
    }

    #[test]
    fn sigma_band_and_replay() {
        assert!(within_sigmas(1000.0, 1000.0, 1000.0).is_ok());
        assert!(within_sigmas(1400.0, 1000.0, 1000.0).is_err());
        assert!(replay_identical(&[7, 7, 7]).is_ok());
        assert!(replay_identical(&[7, 7, 8]).is_err());
        assert!(bytes_identical("x", "abc", "abc").is_ok());
        assert!(bytes_identical("x", "abc", "abd").is_err());
    }

    #[test]
    fn ratio_and_tct_bounds() {
        assert!(ratios_and_tcts([0.0, 1.0], [0.5, 2.0], 0.1).is_ok());
        assert!(ratios_and_tcts([1.5], [0.5], 0.1).is_err());
        assert!(ratios_and_tcts([0.5], [0.05], 0.1).is_err());
        assert!(ratios_and_tcts([0.5], [f64::NAN], 0.1).is_err());
    }

    #[test]
    fn growing_backlog_is_rejected() {
        let flat: Vec<f64> = (0..100).map(|t| 3.0 + (t % 5) as f64).collect();
        assert!(queues_bounded(&flat, 2.0).is_ok());
        let growing: Vec<f64> = (0..100).map(|t| t as f64 * 0.4).collect();
        assert!(queues_bounded(&growing, 2.0).is_err());
    }

    #[test]
    fn assignment_rejects_devices_on_downed_edges() {
        assert!(assignment_valid(&[0, 1, 2], 3, 3, &[]).is_ok());
        assert!(assignment_valid(&[0, 1, 2], 3, 3, &[1]).is_err());
        assert!(assignment_valid(&[0, 1], 3, 3, &[]).is_err());
        assert!(assignment_valid(&[0, 5, 1], 3, 3, &[]).is_err());
    }
}
