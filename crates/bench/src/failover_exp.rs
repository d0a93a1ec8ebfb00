//! The `failover` experiment: what crash-consistent serving costs — the
//! numbers behind `BENCH_failover.json`.
//!
//! Three runs of the same deterministic fleet workload:
//!
//! * `crash_free` — the healthy reference: no outage, no checkpoints.
//! * `failover_mid` — the busiest device is killed mid-trace with
//!   checkpoint failover on. The victim's durable prefix survives in its
//!   last checkpoint, orphans replay on the survivors, and
//!   `lost_streams` must be zero.
//! * `failover_faulty` — the same kill under an injected fault plan, so
//!   the checkpoint migration itself suffers copy failures and pays the
//!   capped-exponential retry schedule.
//!
//! The headline `total_cycles` is the summed fleet makespan of all three
//! scenarios: the 5% CI gate trips when checkpointing, migration pricing,
//! or orphan replay gets more expensive. The summary also exports
//! `recovery_overhead_permille` — how much the mid-trace kill stretched
//! the fleet makespan over the crash-free reference — and the replayed
//! cycle / checkpoint-traffic counters the ROADMAP cares about.

use gspecpal::{FaultPlan, SchemeConfig};
use gspecpal_cluster::{
    run_cluster, ClusterConfig, ClusterDevice, ClusterReport, DeviceOutage, FailoverConfig,
    FleetMachine,
};
use gspecpal_fsm::Dfa;
use gspecpal_serve::{PriorityClass, ResidencyConfig, ServeConfig, Trace};

use crate::cluster_exp::{fleet_dfas, N_MACHINES, RESIDENCY_BYTES, VNODES};

/// Streams in the synthetic trace.
pub(crate) const STREAMS: usize = 72;
/// Checkpoint cadence on the doomed device, in formed batches.
pub(crate) const CHECKPOINT_EVERY_BATCHES: usize = 3;

/// One named scenario's full fleet report.
#[derive(Clone, Debug)]
pub struct FailoverScenario {
    /// Scenario name (`crash_free`, `failover_mid`, `failover_faulty`).
    pub name: &'static str,
    /// The fleet report the scenario produced.
    pub report: ClusterReport,
}

/// Result of [`run_failover_exp`]: every scenario, in a fixed order.
#[derive(Clone, Debug)]
pub struct FailoverExperimentReport {
    /// The scenarios, in the order listed on [`FailoverScenario::name`].
    pub scenarios: Vec<FailoverScenario>,
}

impl FailoverExperimentReport {
    /// The named scenario's report. Panics on an unknown name — scenario
    /// names are part of this module's API.
    pub fn scenario(&self, name: &str) -> &ClusterReport {
        &self.scenarios.iter().find(|s| s.name == name).expect("known scenario name").report
    }

    /// Headline for the CI gate: every scenario's makespan, summed.
    pub fn total_makespan(&self) -> u64 {
        self.scenarios.iter().map(|s| s.report.makespan_cycles).sum()
    }

    /// How much the mid-trace kill stretched the fleet makespan over the
    /// crash-free reference, in permille of the reference (0 when the
    /// recovered fleet somehow finished no later).
    pub fn recovery_overhead_permille(&self) -> u64 {
        let healthy = self.scenario("crash_free").makespan_cycles;
        let recovered = self.scenario("failover_mid").makespan_cycles;
        (recovered.saturating_sub(healthy) * 1000).checked_div(healthy).unwrap_or(0)
    }
}

fn fleet_machines(dfas: &[Dfa]) -> Vec<FleetMachine<'_>> {
    dfas.iter()
        .map(|dfa| FleetMachine { dfa, training: b"0110", class: PriorityClass::Bulk })
        .collect()
}

fn serve_cfg(faults: Option<FaultPlan>) -> ServeConfig {
    ServeConfig {
        residency: Some(ResidencyConfig { capacity_bytes: RESIDENCY_BYTES }),
        scheme_config: SchemeConfig { faults, ..SchemeConfig::default() },
        ..ServeConfig::default()
    }
}

/// Runs the failover experiment: a healthy reference, a mid-trace device
/// kill recovered through checkpoint failover, and the same kill with the
/// migration path under fault injection. The fleet's machines, ring and
/// residency budget are the cluster experiment's.
pub fn run_failover_exp() -> FailoverExperimentReport {
    let dfas = fleet_dfas(N_MACHINES);
    let machines = fleet_machines(&dfas);
    let devices = vec![
        ClusterDevice::rtx3090_pcie(),
        ClusterDevice::rtx3090_pcie(),
        ClusterDevice::rtx3090_pcie(),
    ];
    let trace = Trace::synthetic(51, STREAMS, N_MACHINES, 220, 24..160, b"01");

    let healthy_cfg = ClusterConfig {
        vnodes: VNODES,
        serve: serve_cfg(None),
        rebalance: None,
        outage: None,
        failover: None,
    };
    let healthy = run_cluster(&devices, &machines, &trace, &healthy_cfg)
        .expect("the synthetic trace is servable");

    // Kill the busiest device halfway through the arrival schedule — the
    // worst honest case: a large admitted prefix and a large orphan tail.
    let victim = (0..devices.len())
        .max_by_key(|&d| healthy.devices[d].report.streams)
        .expect("nonempty fleet");
    let at_cycle = trace.arrivals()[trace.len() / 2].arrival_cycle;
    let failover = FailoverConfig {
        checkpoint_every_batches: CHECKPOINT_EVERY_BATCHES,
        ..FailoverConfig::default()
    };
    let mid_cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: victim, at_cycle }),
        failover: Some(failover),
        ..healthy_cfg.clone()
    };
    let mid =
        run_cluster(&devices, &machines, &trace, &mid_cfg).expect("failover recovery completes");

    // The same kill with faults on: engine copies *and* the checkpoint
    // migration itself roll against the plan, so the replay bill includes
    // retries and backoff.
    let faulty_plan = FaultPlan { copy_fail_permille: 400, ..FaultPlan::chaos(51, 60) };
    let faulty_cfg = ClusterConfig { serve: serve_cfg(Some(faulty_plan)), ..mid_cfg.clone() };
    let faulty = run_cluster(&devices, &machines, &trace, &faulty_cfg)
        .expect("faulty failover recovery completes");

    FailoverExperimentReport {
        scenarios: vec![
            FailoverScenario { name: "crash_free", report: healthy },
            FailoverScenario { name: "failover_mid", report: mid },
            FailoverScenario { name: "failover_faulty", report: faulty },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_scenarios_lose_nothing_and_pay_a_measured_price() {
        let r = run_failover_exp();
        let healthy = r.scenario("crash_free");
        assert_eq!(healthy.lost_streams, 0);
        assert_eq!(healthy.failover.checkpoints_taken, 0, "no failover, no checkpoints");
        for name in ["failover_mid", "failover_faulty"] {
            let rep = r.scenario(name);
            assert_eq!(rep.lost_streams, 0, "{name}: failover must conserve every stream");
            assert_eq!(rep.streams, healthy.streams, "{name}");
            assert!(rep.failover.checkpoints_taken >= 1, "{name}");
            assert!(rep.failover.checkpoint_bytes > 0, "{name}");
        }
        let mid = r.scenario("failover_mid");
        assert!(
            mid.failover.migrations_replayed > 0,
            "a mid-trace kill must orphan streams onto survivors"
        );
        assert!(mid.failover.replay_cycles > 0, "checkpoint migration is priced, not free");
        assert_eq!(mid.failover.migration_retries, 0, "no fault plan, no failed copies");
    }

    #[test]
    fn failover_experiment_is_deterministic() {
        let a = run_failover_exp();
        let b = run_failover_exp();
        assert_eq!(a.total_makespan(), b.total_makespan());
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.report, y.report, "{}", x.name);
        }
    }
}
