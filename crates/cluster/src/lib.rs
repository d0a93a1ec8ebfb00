//! Fleet serving for GSpecPal: many heterogeneous devices behind one
//! deterministic router.
//!
//! The single-device engine ([`gspecpal_serve`]) already answers "what
//! does one GPU do with this trace". This crate scales the question to a
//! *fleet*: N devices of mixed capability ([`ClusterDevice`] — an A100 on
//! NVLink next to an RTX 3090 or T4 on PCIe), each running the unmodified
//! engine on its own timeline, fed by a [`Router`] that consistent-hashes
//! streams by machine (FSM) onto device shards ([`HashRing`]).
//!
//! Fleet-level mechanisms layered on the demux:
//!
//! * **Transition-table residency** — each device's LRU over table bytes
//!   (see [`gspecpal_serve::ServeConfig::residency`]); the fleet report
//!   merges hit/miss/eviction counters across devices.
//! * **Rebalancing under skew** ([`RebalanceConfig`]) — at an epoch
//!   boundary the router migrates hot machines off the most loaded device,
//!   pricing each table transfer on the slower of the two attach links
//!   ([`gspecpal_gpu::LinkSpec`]).
//! * **Priority classes** — deadline-class machines preempt bulk kernels
//!   at wave boundaries on whichever device they land on (see
//!   [`gspecpal_serve::ServeConfig::preempt`]); the fleet report splits
//!   delivery percentiles by class.
//! * **Whole-device outage** ([`DeviceOutage`]) — arrivals re-shard over
//!   the surviving ring with minimal remapping.
//! * **Checkpoint failover** ([`FailoverConfig`]) — crash-consistent
//!   outage recovery: the victim checkpoints periodically
//!   ([`gspecpal_serve::serve_until_crash`]), its last checkpoint is
//!   finalized into a durable report and migrated to survivors over their
//!   attach links (real `Phase::Transfer` pricing with capped-exponential
//!   retry), and orphan streams are replayed on the surviving ring —
//!   [`ClusterReport::lost_streams`] is provably zero, versus the legacy
//!   model that silently completes a dead device's in-flight work.
//!
//! Everything is exact integer arithmetic over the same cost model as the
//! rest of the repo: a [`ClusterReport`] is bit-identical across reruns,
//! and each device's slice of it equals serving that device's sub-trace
//! standalone. [`run_cluster_source`] is the one
//! fleet path, a single-threaded streaming demux (see [`fleet`]) with
//! memory bounded at million-stream scale under
//! [`gspecpal_serve::ReportDetail::Bounded`]; [`run_cluster`] replays a
//! trace through it.

#![warn(missing_docs)]

pub mod fleet;
pub mod report;
pub mod ring;

pub use fleet::{
    run_cluster, run_cluster_source, ClusterConfig, ClusterDevice, DeviceOutage, FailoverConfig,
    FleetMachine, RebalanceConfig, Router,
};
pub use report::{ClusterReport, DeviceReport, FailoverReport, RouterStats};
pub use ring::{splitmix64, HashRing};

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::examples::{div7, mod_counter, ones_counter};
    use gspecpal_fsm::Dfa;
    use gspecpal_serve::{
        IterSource, PriorityClass, ResidencyConfig, ServeConfig, ServeError, StreamArrival, Trace,
    };

    fn fleet_dfas() -> Vec<Dfa> {
        vec![div7(), mod_counter(5, &[0]), ones_counter(3, &[1]), mod_counter(11, &[3])]
    }

    fn fleet_machines(dfas: &[Dfa]) -> Vec<FleetMachine<'_>> {
        dfas.iter()
            .map(|dfa| FleetMachine { dfa, training: b"10", class: PriorityClass::Bulk })
            .collect()
    }

    fn test_devices(n: usize) -> Vec<ClusterDevice> {
        (0..n).map(|_| ClusterDevice::test_unit()).collect()
    }

    fn spread_trace(streams: usize, machines: usize) -> Trace {
        Trace::synthetic(7, streams, machines, 25, 8..64, b"01")
    }

    #[test]
    fn every_stream_lands_on_exactly_one_device() {
        let dfas = fleet_dfas();
        let trace = spread_trace(60, dfas.len());
        let report = run_cluster(
            &test_devices(3),
            &fleet_machines(&dfas),
            &trace,
            &ClusterConfig::default(),
        )
        .unwrap();
        assert_eq!(report.streams, 60);
        let per_device: usize = report.devices.iter().map(|d| d.report.streams).sum();
        assert_eq!(per_device, 60);
        assert_eq!(report.devices.len(), 3);
        assert!(report.makespan_cycles > 0);
        assert!(report.exact_latency);
        assert!(report.delivery.max > 0);
    }

    #[test]
    fn batch_and_streaming_paths_agree_bit_for_bit() {
        let dfas = fleet_dfas();
        let trace = spread_trace(48, dfas.len());
        let devices = test_devices(3);
        let machines = fleet_machines(&dfas);
        let cfg = ClusterConfig {
            serve: ServeConfig {
                residency: Some(ResidencyConfig { capacity_bytes: 4096 }),
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        };
        let batch = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        let streamed = run_cluster_source(
            &devices,
            &machines,
            IterSource(trace.arrivals().iter().cloned()),
            &cfg,
        )
        .unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn heterogeneous_devices_disagree_on_speed_but_not_answers() {
        let dfas = fleet_dfas();
        let trace = spread_trace(40, dfas.len());
        let machines = fleet_machines(&dfas);
        let hetero = vec![
            ClusterDevice::a100_nvlink(),
            ClusterDevice::rtx3090_pcie(),
            ClusterDevice::t4_pcie(),
        ];
        let report = run_cluster(&hetero, &machines, &trace, &ClusterConfig::default()).unwrap();
        for dev in &report.devices {
            assert_eq!(dev.report.recovery.shed_streams, 0, "{}", dev.device);
        }
        // The router's demux is device-independent, so the same arrivals
        // land on the same shards as on a homogeneous fleet.
        let homo =
            run_cluster(&test_devices(3), &machines, &trace, &ClusterConfig::default()).unwrap();
        for (h, t) in report.devices.iter().zip(&homo.devices) {
            assert_eq!(h.report.streams, t.report.streams);
            assert_eq!(h.report.accepted, t.report.accepted);
            assert_eq!(h.report.end_states, t.report.end_states);
        }
    }

    #[test]
    fn an_outage_reroutes_only_the_failed_devices_arrivals() {
        let dfas = fleet_dfas();
        let machines = fleet_machines(&dfas);
        let devices = test_devices(3);
        let trace = spread_trace(80, dfas.len());
        let base = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
        let victim = (0..3).max_by_key(|&d| base.devices[d].report.streams).expect("three devices");
        let cfg = ClusterConfig {
            outage: Some(DeviceOutage { device: victim, at_cycle: 0 }),
            ..ClusterConfig::default()
        };
        let failed = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        assert_eq!(failed.devices[victim].report.streams, 0, "dead device still fed");
        assert_eq!(failed.router.rerouted_streams as usize, base.devices[victim].report.streams);
        assert_eq!(failed.streams, 80);
    }

    #[test]
    fn skewed_load_triggers_priced_migrations() {
        let dfas = fleet_dfas();
        let machines = fleet_machines(&dfas);
        let devices = test_devices(2);
        // Everything before the epoch hammers machines 0 and 1; the ring
        // with 2 devices and default vnodes may co-locate them, and the
        // rebalancer must split whatever it observed.
        let arrivals: Vec<StreamArrival> = (0..40)
            .map(|i| StreamArrival {
                arrival_cycle: i * 10,
                machine: (i % 2) as usize,
                bytes: b"01".repeat(64),
            })
            .chain((0..40).map(|i| StreamArrival {
                arrival_cycle: 2000 + i * 10,
                machine: (i % 2) as usize,
                bytes: b"01".repeat(64),
            }))
            .collect();
        let trace = Trace::from_arrivals(arrivals);
        let cfg = ClusterConfig {
            rebalance: Some(RebalanceConfig { epoch_cycles: 1000 }),
            ..ClusterConfig::default()
        };
        let report = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        let ring = HashRing::new(2, cfg.vnodes);
        if ring.route(0) == ring.route(1) {
            assert!(report.router.migrations > 0, "skew observed but nothing moved");
            assert!(report.router.migration_bytes > 0);
            assert!(report.router.migration_cycles > 0);
            assert!(report.makespan_cycles >= 1000 + report.router.migration_cycles);
        } else {
            // Placement already splits the hot pair — nothing to fix.
            assert_eq!(report.router.migrations, 0);
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_fleets() {
        let dfas = fleet_dfas();
        let machines = fleet_machines(&dfas);
        let trace = spread_trace(4, dfas.len());
        let bad = |devices: &[ClusterDevice], cfg: &ClusterConfig| {
            matches!(
                run_cluster(devices, &machines, &trace, cfg),
                Err(ServeError::InvalidConfig { .. })
            )
        };
        assert!(bad(&[], &ClusterConfig::default()));
        assert!(bad(&test_devices(2), &ClusterConfig { vnodes: 0, ..ClusterConfig::default() }));
        assert!(bad(
            &test_devices(2),
            &ClusterConfig {
                outage: Some(DeviceOutage { device: 5, at_cycle: 0 }),
                ..ClusterConfig::default()
            }
        ));
        assert!(bad(
            &test_devices(1),
            &ClusterConfig {
                outage: Some(DeviceOutage { device: 0, at_cycle: 0 }),
                ..ClusterConfig::default()
            }
        ));
        let empty: Vec<FleetMachine<'_>> = Vec::new();
        assert!(matches!(
            run_cluster(&test_devices(1), &empty, &trace, &ClusterConfig::default()),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A device the simulator cannot run is refused before any machine
        // is prepared for it.
        let mut devices = test_devices(2);
        devices[1].spec.global_segment_bytes = 0;
        assert!(matches!(
            run_cluster(&devices, &machines, &trace, &ClusterConfig::default()),
            Err(ServeError::InvalidDevice(e)) if e.field == "global_segment_bytes"
        ));
    }

    #[test]
    fn a_machine_id_off_the_fleet_is_an_unknown_machine_error() {
        let dfas = fleet_dfas();
        let machines = fleet_machines(&dfas);
        let trace = Trace::from_arrivals(vec![StreamArrival {
            arrival_cycle: 0,
            machine: dfas.len(),
            bytes: b"01".to_vec(),
        }]);
        let devices = test_devices(2);
        let cfg = ClusterConfig::default();
        for result in [
            run_cluster(&devices, &machines, &trace, &cfg),
            run_cluster_source(&devices, &machines, trace.source(), &cfg),
        ] {
            assert!(matches!(
                result,
                Err(ServeError::UnknownMachine { stream: 0, machine, .. }) if machine == dfas.len()
            ));
        }
    }
}
