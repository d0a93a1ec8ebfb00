//! The `cluster` experiment: fleet serving with residency, rebalancing,
//! and priority preemption — the numbers behind `BENCH_cluster.json`.
//!
//! Four paired scenarios on deterministic traces:
//!
//! * `skew_static` vs `skew_rebalanced` — the same skewed trace (two hot
//!   machines that the consistent-hash ring co-locates on one device) with
//!   rebalancing off and on. The rebalanced fleet must finish earlier even
//!   after paying for the table migrations, which is the claim the bench
//!   test pins.
//! * `priority_fifo` vs `priority_preempt` — the same bulk-plus-deadline
//!   trace with wave-boundary preemption off and on. Preemption must cut
//!   the deadline class's p99 while bulk throughput (fleet makespan) stays
//!   within a bounded factor.
//!
//! Plus `hetero_fleet` — uniform traffic over the heterogeneous
//! A100/RTX 3090/T4 fleet, exercising the small-device preset and the
//! imbalance metric under mixed capability.
//!
//! Residency modeling is on everywhere (with a budget tight enough to
//! force evictions), so the report's merged hit rate is meaningful. The
//! headline `total_cycles` is the summed makespan of every scenario: the
//! 5% CI gate trips when routing, migration pricing, residency, or
//! preemption gets more expensive.

use gspecpal_cluster::{
    run_cluster, ClusterConfig, ClusterDevice, ClusterReport, FleetMachine, HashRing,
    RebalanceConfig,
};
use gspecpal_fsm::examples::mod_counter;
use gspecpal_fsm::Dfa;
use gspecpal_serve::{
    BatchPolicy, PriorityClass, ResidencyConfig, ServeConfig, StreamArrival, Trace,
};

/// Ring points per device.
pub(crate) const VNODES: usize = 32;
/// Machines (FSMs) on the fleet; hot pairs are chosen among them by where
/// the ring actually places them.
pub(crate) const N_MACHINES: usize = 8;
/// Device global-memory budget for resident tables, per device.
pub(crate) const RESIDENCY_BYTES: usize = 24 * 1024;

/// One named scenario's full fleet report.
#[derive(Clone, Debug)]
pub struct ClusterScenario {
    /// Scenario name (`skew_static`, `skew_rebalanced`, `priority_fifo`,
    /// `priority_preempt`, `hetero_fleet`).
    pub name: &'static str,
    /// The fleet report the scenario produced.
    pub report: ClusterReport,
}

/// Result of [`run_cluster_exp`]: every scenario, in a fixed order.
#[derive(Clone, Debug)]
pub struct ClusterExperimentReport {
    /// The scenarios, in the order listed on [`ClusterScenario::name`].
    pub scenarios: Vec<ClusterScenario>,
}

impl ClusterExperimentReport {
    /// The named scenario's report. Panics on an unknown name — scenario
    /// names are part of this module's API.
    pub fn scenario(&self, name: &str) -> &ClusterReport {
        &self.scenarios.iter().find(|s| s.name == name).expect("known scenario name").report
    }

    /// Headline for the CI gate: every scenario's makespan, summed.
    pub fn total_makespan(&self) -> u64 {
        self.scenarios.iter().map(|s| s.report.makespan_cycles).sum()
    }
}

/// The first two machine ids the ring places on the same device — the
/// "unlucky collision" both skew scenarios are built around.
fn co_located_pair(ring: &HashRing, n_machines: usize) -> (usize, usize) {
    for a in 0..n_machines {
        for b in a + 1..n_machines {
            if ring.route(a) == ring.route(b) {
                return (a, b);
            }
        }
    }
    panic!("no co-located machine pair among {n_machines} machines — add machines or vnodes");
}

/// A distinct small DFA per machine id (5–12 states), so tables differ in
/// footprint and the residency LRU has real decisions to make.
pub(crate) fn fleet_dfas(n: usize) -> Vec<Dfa> {
    (0..n).map(|m| mod_counter(5 + (m as u32 % 8), &[0])).collect()
}

fn machines_with_deadline(dfas: &[Dfa], deadline: Option<usize>) -> Vec<FleetMachine<'_>> {
    dfas.iter()
        .enumerate()
        .map(|(m, dfa)| FleetMachine {
            dfa,
            training: b"0110",
            class: if Some(m) == deadline { PriorityClass::Deadline } else { PriorityClass::Bulk },
        })
        .collect()
}

/// The skewed trace: before the epoch both hot machines warm up with
/// moderate traffic (the evidence the rebalancer reads); after it they are
/// hammered with large payloads. Cold machines tick along throughout so
/// every device does *some* work.
fn skew_trace(hot: (usize, usize), n_machines: usize, epoch: u64) -> Trace {
    let mut arrivals = Vec::new();
    for i in 0..24u64 {
        for &m in &[hot.0, hot.1] {
            arrivals.push(StreamArrival {
                arrival_cycle: i * (epoch / 24),
                machine: m,
                bytes: b"01".repeat(128),
            });
        }
    }
    for i in 0..60u64 {
        for &m in &[hot.0, hot.1] {
            arrivals.push(StreamArrival {
                arrival_cycle: epoch + i * 400,
                machine: m,
                bytes: b"0110".repeat(256),
            });
        }
    }
    for m in 0..n_machines {
        if m == hot.0 || m == hot.1 {
            continue;
        }
        for i in 0..6u64 {
            arrivals.push(StreamArrival {
                arrival_cycle: i * (epoch / 3),
                machine: m,
                bytes: b"10".repeat(32),
            });
        }
    }
    Trace::from_arrivals(arrivals)
}

/// The priority trace: periodic eight-stream bulk bursts (filling a FIFO
/// batch that runs as one long kernel) with a single deadline stream
/// arriving mid-kernel each period.
fn priority_trace(bulk_m: usize, deadline_m: usize) -> Trace {
    const PERIOD: u64 = 50_000;
    let mut arrivals = Vec::new();
    for burst in 0..24u64 {
        let t0 = burst * PERIOD;
        for _ in 0..8 {
            arrivals.push(StreamArrival {
                arrival_cycle: t0,
                machine: bulk_m,
                bytes: b"011010".repeat(100),
            });
        }
        arrivals.push(StreamArrival {
            arrival_cycle: t0 + 20_000,
            machine: deadline_m,
            bytes: b"01".repeat(32),
        });
    }
    Trace::from_arrivals(arrivals)
}

/// Uniform traffic for the heterogeneous fleet: every machine gets the
/// same stream count, so the imbalance metric reflects device capability
/// and placement, not trace skew.
fn uniform_trace(n_machines: usize) -> Trace {
    Trace::synthetic(11, 96, n_machines, 40, 32..160, b"01")
}

fn serve_cfg(preempt: bool) -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy::Fifo { batch: 8 },
        residency: Some(ResidencyConfig { capacity_bytes: RESIDENCY_BYTES }),
        preempt,
        ..ServeConfig::default()
    }
}

/// Runs all five scenarios. Deterministic: traces are engineered against
/// the ring, so the skew scenarios always have their collision and the
/// priority scenarios always have a deadline stream arriving under an open
/// bulk kernel.
pub fn run_cluster_exp() -> ClusterExperimentReport {
    let dfas = fleet_dfas(N_MACHINES);
    let mut scenarios = Vec::new();

    // -- Skew pair: three equal workstation devices, two hot machines the
    // ring co-locates. Homogeneous on purpose: the rebalancing win must
    // come from splitting the hot pair, not from landing on a faster card.
    let skew_devices = vec![
        ClusterDevice::rtx3090_pcie(),
        ClusterDevice::rtx3090_pcie(),
        ClusterDevice::rtx3090_pcie(),
    ];
    let ring = HashRing::new(skew_devices.len(), VNODES);
    let hot = co_located_pair(&ring, N_MACHINES);
    const EPOCH: u64 = 48_000;
    let machines = machines_with_deadline(&dfas, None);
    let trace = skew_trace(hot, N_MACHINES, EPOCH);
    let base = ClusterConfig {
        vnodes: VNODES,
        serve: serve_cfg(false),
        rebalance: None,
        outage: None,
        failover: None,
    };
    scenarios.push(ClusterScenario {
        name: "skew_static",
        report: run_cluster(&skew_devices, &machines, &trace, &base)
            .expect("skew trace is servable"),
    });
    let rebalanced =
        ClusterConfig { rebalance: Some(RebalanceConfig { epoch_cycles: EPOCH }), ..base.clone() };
    scenarios.push(ClusterScenario {
        name: "skew_rebalanced",
        report: run_cluster(&skew_devices, &machines, &trace, &rebalanced)
            .expect("skew trace is servable"),
    });

    // -- Priority pair: the deadline machine shares a device with the bulk
    // machine (again by ring construction), so its batches land exactly
    // where the long bulk kernels run.
    let prio_devices = vec![ClusterDevice::test_unit(), ClusterDevice::test_unit()];
    let prio_ring = HashRing::new(prio_devices.len(), VNODES);
    let (bulk_m, deadline_m) = co_located_pair(&prio_ring, N_MACHINES);
    let prio_machines = machines_with_deadline(&dfas, Some(deadline_m));
    let prio_trace = priority_trace(bulk_m, deadline_m);
    let fifo = ClusterConfig {
        vnodes: VNODES,
        serve: serve_cfg(false),
        rebalance: None,
        outage: None,
        failover: None,
    };
    scenarios.push(ClusterScenario {
        name: "priority_fifo",
        report: run_cluster(&prio_devices, &prio_machines, &prio_trace, &fifo)
            .expect("priority trace is servable"),
    });
    let preempt = ClusterConfig { serve: serve_cfg(true), ..fifo.clone() };
    scenarios.push(ClusterScenario {
        name: "priority_preempt",
        report: run_cluster(&prio_devices, &prio_machines, &prio_trace, &preempt)
            .expect("priority trace is servable"),
    });

    // -- Heterogeneous fleet under uniform traffic: datacenter, workstation,
    // and small-inference devices sharing one router.
    let hetero_devices =
        vec![ClusterDevice::a100_nvlink(), ClusterDevice::rtx3090_pcie(), ClusterDevice::t4_pcie()];
    let hetero = ClusterConfig {
        vnodes: VNODES,
        serve: serve_cfg(false),
        rebalance: None,
        outage: None,
        failover: None,
    };
    scenarios.push(ClusterScenario {
        name: "hetero_fleet",
        report: run_cluster(&hetero_devices, &machines, &uniform_trace(N_MACHINES), &hetero)
            .expect("uniform trace is servable"),
    });

    ClusterExperimentReport { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalancing_beats_static_sharding_on_the_skewed_trace() {
        let r = run_cluster_exp();
        let stat = r.scenario("skew_static");
        let reb = r.scenario("skew_rebalanced");
        assert_eq!(stat.router.migrations, 0);
        assert!(reb.router.migrations > 0, "the skewed epoch must trigger migrations");
        assert!(reb.router.migration_bytes > 0);
        assert!(
            reb.makespan_cycles < stat.makespan_cycles,
            "rebalanced {} must beat static {}",
            reb.makespan_cycles,
            stat.makespan_cycles
        );
        assert!(reb.imbalance_permille < stat.imbalance_permille);
    }

    #[test]
    fn preemption_cuts_deadline_p99_without_starving_bulk() {
        let r = run_cluster_exp();
        let fifo = r.scenario("priority_fifo");
        let pre = r.scenario("priority_preempt");
        assert_eq!(fifo.preemptions, 0);
        assert!(pre.preemptions > 0, "deadline batches must preempt the open bulk kernel");
        assert!(pre.preempted_cycles > 0);
        assert!(
            pre.deadline_delivery.p99 < fifo.deadline_delivery.p99,
            "preempt p99 {} must beat fifo p99 {}",
            pre.deadline_delivery.p99,
            fifo.deadline_delivery.p99
        );
        // Bulk pays a bounded price: fleet makespan within 25% of FIFO's.
        assert!(pre.makespan_cycles * 100 <= fifo.makespan_cycles * 125);
        assert_eq!(pre.shed_streams, 0, "preemption must not starve bulk into shedding");
    }

    #[test]
    fn residency_lru_sees_hits_and_is_reported() {
        let r = run_cluster_exp();
        for s in &r.scenarios {
            let res = &s.report.residency;
            assert!(res.hits + res.misses > 0, "{}: residency never consulted", s.name);
            assert!(res.misses > 0, "{}: first touch of each table must miss", s.name);
            assert!(res.copied_bytes > 0, "{}", s.name);
        }
        // The skewed trace reuses two hot tables constantly: hits dominate.
        let hot = r.scenario("skew_static").residency;
        assert!(hot.hit_permille() > 500, "hot tables should mostly hit: {hot:?}");
    }

    #[test]
    fn the_experiment_is_deterministic() {
        let a = run_cluster_exp();
        let b = run_cluster_exp();
        assert_eq!(a.total_makespan(), b.total_makespan());
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.report, y.report);
        }
    }
}
