//! Fleet-level integration tests: consistent-hash routing laws, cluster
//! report bit-identity across host pools and reruns, whole-device failure
//! re-sharding, and per-device fault-plan composability.

use gspecpal::{FaultPlan, SchemeConfig};
use gspecpal_cluster::{
    run_cluster, run_cluster_source, ClusterConfig, ClusterDevice, DeviceOutage, FailoverConfig,
    FleetMachine, HashRing, RouterStats,
};
use gspecpal_fsm::examples::{div7, mod_counter, ones_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::{fault_coord, DeviceSpec, FaultDomain, Phase};
use gspecpal_serve::{
    serve, BatchPolicy, IterSource, PriorityClass, ReportDetail, ResidencyConfig, ServeConfig,
    ServeError, ServeMachine, StreamArrival, Trace,
};
use proptest::prelude::*;

fn fleet_dfas() -> Vec<Dfa> {
    vec![
        div7(),
        mod_counter(5, &[0]),
        ones_counter(3, &[1]),
        mod_counter(11, &[3]),
        mod_counter(9, &[2, 4]),
        ones_counter(4, &[0]),
    ]
}

fn fleet_machines(dfas: &[Dfa]) -> Vec<FleetMachine<'_>> {
    dfas.iter()
        .map(|dfa| FleetMachine { dfa, training: b"0110", class: PriorityClass::Bulk })
        .collect()
}

fn test_devices(n: usize) -> Vec<ClusterDevice> {
    (0..n).map(|_| ClusterDevice::test_unit()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Consistent-hash minimal-remapping law, removal half: machines not
    // owned by the removed device keep their placement exactly.
    #[test]
    fn removing_any_device_never_moves_survivors_machines(
        n_devices in 2usize..8,
        vnodes in 1usize..64,
        victim_salt in 0usize..8,
        machine_base in 0usize..10_000,
    ) {
        let ring = HashRing::new(n_devices, vnodes);
        let victim = victim_salt % n_devices;
        let shrunk = ring.without(victim);
        for m in machine_base..machine_base + 300 {
            let before = ring.route(m);
            if before == victim {
                prop_assert_ne!(shrunk.route(m), victim);
            } else {
                prop_assert_eq!(shrunk.route(m), before);
            }
        }
    }

    // Addition half: growing the fleet moves machines only onto the new
    // device, and roughly its fair share of them (~1/N, generously
    // bounded) — never between old devices.
    #[test]
    fn adding_a_device_remaps_about_one_nth_onto_it(
        n_devices in 2usize..8,
        vnodes in 8usize..64,
        machine_base in 0usize..10_000,
    ) {
        const SAMPLE: usize = 1200;
        let small = HashRing::new(n_devices, vnodes);
        let grown = small.with_device(n_devices);
        let mut moved = 0usize;
        for m in machine_base..machine_base + SAMPLE {
            if grown.route(m) != small.route(m) {
                prop_assert_eq!(grown.route(m), n_devices);
                moved += 1;
            }
        }
        // Expectation is SAMPLE / (n_devices + 1); allow 4x slack above it
        // (vnodes as low as 8 make arcs lumpy) and require only that
        // *something* moved.
        prop_assert!(moved > 0, "a new device must take some machines");
        prop_assert!(
            moved < 4 * SAMPLE / (n_devices + 1),
            "moved {} of {} onto 1 of {} devices",
            moved, SAMPLE, n_devices + 1
        );
    }

    // Routing is a pure function of (machine, device set, vnodes):
    // independent ring constructions agree everywhere.
    #[test]
    fn routing_is_pure_across_reconstruction(
        n_devices in 1usize..10,
        vnodes in 1usize..48,
        machine in 0usize..100_000,
    ) {
        let a = HashRing::new(n_devices, vnodes);
        let b = HashRing::new(n_devices, vnodes);
        prop_assert_eq!(a.route(machine), b.route(machine));
        prop_assert!(a.route(machine) < n_devices);
    }
}

#[test]
fn cluster_reports_are_bit_identical_across_rayon_pools_and_reruns() {
    let dfas = fleet_dfas();
    let trace = Trace::synthetic(13, 48, dfas.len(), 30, 8..96, b"01");
    let cfg = ClusterConfig {
        serve: ServeConfig {
            residency: Some(ResidencyConfig { capacity_bytes: 4096 }),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let run = |workers: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
        pool.install(|| {
            let dfas = fleet_dfas();
            let machines = fleet_machines(&dfas);
            run_cluster(&test_devices(3), &machines, &trace, &cfg).unwrap()
        })
    };
    let one = run(1);
    let four = run(4);
    let rerun = run(1);
    assert_eq!(one, four, "cluster reports must not depend on the host pool");
    assert_eq!(one, rerun, "cluster reports must not depend on the run");
}

#[test]
fn streaming_cluster_path_matches_the_batch_path_bit_for_bit() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let trace = Trace::synthetic(17, 40, dfas.len(), 50, 8..80, b"01");
    let devices = test_devices(3);
    let cfg = ClusterConfig::default();
    let batch = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    for _ in 0..3 {
        let streamed = run_cluster_source(
            &devices,
            &machines,
            IterSource(trace.arrivals().iter().cloned()),
            &cfg,
        )
        .unwrap();
        assert_eq!(batch, streamed);
    }
}

/// Reconstructs each device's sub-trace exactly as the router demuxes it.
fn sub_traces(
    devices: &[ClusterDevice],
    n_machines: usize,
    trace: &Trace,
    cfg: &ClusterConfig,
    footprints: Vec<u64>,
) -> Vec<Trace> {
    let mut router = gspecpal_cluster::Router::new(devices, footprints, cfg);
    let mut shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); devices.len()];
    for a in trace.arrivals() {
        assert!(a.machine < n_machines);
        let d = router.route(a.machine, a.arrival_cycle, a.bytes.len());
        shares[d].push(a.clone());
    }
    shares.into_iter().map(Trace::from_arrivals).collect()
}

// Fault-plan composability: a device's slice of the cluster report — fault
// injection and all — is byte-identical to serving its sub-trace alone on
// a single-device engine with the same config.
#[test]
fn per_device_fault_plans_compose_with_cluster_chaos_routing() {
    let spec = DeviceSpec::test_unit();
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let trace = Trace::synthetic(23, 36, dfas.len(), 40, 8..96, b"01");
    let devices = test_devices(3);
    let cfg = ClusterConfig {
        serve: ServeConfig {
            scheme_config: SchemeConfig {
                faults: Some(FaultPlan { copy_fail_permille: 250, ..FaultPlan::chaos(9, 150) }),
                ..SchemeConfig::default()
            },
            residency: Some(ResidencyConfig { capacity_bytes: 4096 }),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let cluster = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    let standalone_machines: Vec<ServeMachine<'_>> =
        dfas.iter().map(|dfa| ServeMachine::prepare(&spec, dfa, b"0110")).collect();
    let footprints: Vec<u64> =
        standalone_machines.iter().map(|m| m.table_footprint_bytes() as u64).collect();
    for (d, sub) in sub_traces(&devices, dfas.len(), &trace, &cfg, footprints).iter().enumerate() {
        let alone = serve(&spec, &standalone_machines, sub, &cfg.serve).unwrap();
        assert_eq!(
            cluster.devices[d].report, alone,
            "device {d}: cluster slice must equal standalone serving of its sub-trace"
        );
    }
}

// Chaos leg: a whole-device outage mid-trace. The router re-shards the
// failed device's later arrivals over the survivors; earlier work on the
// failed device still completes, nothing is lost fleet-wide, and the run
// stays bit-deterministic.
#[test]
fn whole_device_failure_reshards_streams_onto_survivors() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let trace = Trace::synthetic(29, 60, dfas.len(), 60, 8..64, b"01");
    let devices = test_devices(3);
    let healthy = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
    let victim = (0..3).max_by_key(|&d| healthy.devices[d].report.streams).expect("three devices");
    let mid = trace.arrivals()[trace.len() / 2].arrival_cycle;
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: victim, at_cycle: mid }),
        ..ClusterConfig::default()
    };
    let failed = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    // Nothing lost: every stream still served exactly once, fleet-wide.
    assert_eq!(failed.streams, 60);
    let total: usize = failed.devices.iter().map(|d| d.report.streams).sum();
    assert_eq!(total, 60);
    assert!(
        failed.router.rerouted_streams > 0,
        "the busiest device must have had post-outage arrivals to re-shard"
    );
    // The dead device kept only its pre-outage share.
    assert!(
        failed.devices[victim].report.streams < healthy.devices[victim].report.streams,
        "outage must shrink the failed device's share"
    );
    // Survivors absorb the difference, and the whole thing is replayable.
    let again = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    assert_eq!(failed, again, "chaos runs must stay bit-deterministic");
    // Full-fleet answers stay correct under the outage: check every
    // device's verdicts against the reference scan of its sub-trace.
    let spec = DeviceSpec::test_unit();
    let standalone: Vec<ServeMachine<'_>> =
        dfas.iter().map(|dfa| ServeMachine::prepare(&spec, dfa, b"0110")).collect();
    let footprints: Vec<u64> =
        standalone.iter().map(|m| m.table_footprint_bytes() as u64).collect();
    for (d, sub) in sub_traces(&devices, dfas.len(), &trace, &cfg, footprints).iter().enumerate() {
        for (i, a) in sub.arrivals().iter().enumerate() {
            assert_eq!(
                failed.devices[d].report.accepted[i],
                dfas[a.machine].accepts(&a.bytes),
                "device {d} stream {i}"
            );
        }
    }
}

// Priority classes ride the router: a deadline machine's streams preempt
// bulk kernels on whatever device the ring gives them.
#[test]
fn deadline_class_preempts_across_the_fleet() {
    let dfas = fleet_dfas();
    let ring = HashRing::new(2, 32);
    // Pick a co-located bulk/deadline pair so the deadline batches land on
    // a device with open bulk kernels.
    let (bulk_m, deadline_m) = {
        let mut found = None;
        'outer: for a in 0..dfas.len() {
            for b in 0..dfas.len() {
                if a != b && ring.route(a) == ring.route(b) {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        found.expect("six machines on two devices always collide")
    };
    let machines: Vec<FleetMachine<'_>> = dfas
        .iter()
        .enumerate()
        .map(|(m, dfa)| FleetMachine {
            dfa,
            training: b"0110",
            class: if m == deadline_m { PriorityClass::Deadline } else { PriorityClass::Bulk },
        })
        .collect();
    let mut arrivals = Vec::new();
    for burst in 0..6u64 {
        let t0 = burst * 50_000;
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
    let trace = Trace::from_arrivals(arrivals);
    let devices = test_devices(2);
    let mk_cfg = |preempt| ClusterConfig {
        serve: ServeConfig {
            policy: BatchPolicy::Fifo { batch: 8 },
            preempt,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let fifo = run_cluster(&devices, &machines, &trace, &mk_cfg(false)).unwrap();
    let pre = run_cluster(&devices, &machines, &trace, &mk_cfg(true)).unwrap();
    assert_eq!(fifo.preemptions, 0);
    assert!(pre.preemptions > 0, "deadline batches must preempt bulk kernels");
    assert!(
        pre.deadline_delivery.p99 < fifo.deadline_delivery.p99,
        "preemption must cut deadline p99 ({} vs {})",
        pre.deadline_delivery.p99,
        fifo.deadline_delivery.p99
    );
    assert_eq!(pre.shed_streams, 0);
}

// --- ISSUE 10: checkpoint failover across the fleet ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The chaos-matrix leg: kill a device at a proptest-chosen mid-trace
    /// cycle with failover on. The fleet must finish with
    /// `lost_streams == 0`, conserve every stream and byte, and stay
    /// bit-deterministic across reruns — under any checkpoint cadence and
    /// with or without an injected fault plan.
    #[test]
    fn failover_chaos_mid_trace_device_kill_loses_no_streams(
        seed in 0u64..1_000,
        victim_salt in 0usize..3,
        crash_salt in 1usize..40,
        every_batches in 1usize..6,
        faults in 0u8..2,
    ) {
        let dfas = fleet_dfas();
        let machines = fleet_machines(&dfas);
        let devices = test_devices(3);
        let trace = Trace::synthetic(seed, 42, dfas.len(), 50, 8..64, b"01");
        let serve_cfg = ServeConfig {
            scheme_config: SchemeConfig {
                faults: (faults == 1)
                    .then(|| FaultPlan { copy_fail_permille: 150, ..FaultPlan::chaos(seed, 80) }),
                ..SchemeConfig::default()
            },
            ..ServeConfig::default()
        };
        let victim = victim_salt % devices.len();
        let at_cycle = trace.arrivals()[crash_salt % trace.len()].arrival_cycle;
        let cfg = ClusterConfig {
            serve: serve_cfg,
            outage: Some(DeviceOutage { device: victim, at_cycle }),
            failover: Some(FailoverConfig {
                checkpoint_every_batches: every_batches,
                ..FailoverConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let recovered = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        // The acceptance criterion: a mid-trace kill with failover loses
        // nothing — provably, by stream conservation.
        prop_assert_eq!(recovered.lost_streams, 0);
        prop_assert_eq!(recovered.streams, trace.len());
        let per_device: usize = recovered.devices.iter().map(|d| d.report.streams).sum();
        prop_assert_eq!(per_device, trace.len());
        let fleet_bytes: usize = recovered.devices.iter().map(|d| d.report.total_bytes).sum();
        let trace_bytes: usize = trace.arrivals().iter().map(|a| a.bytes.len()).sum();
        prop_assert_eq!(fleet_bytes, trace_bytes);
        // A resume point always exists (the batch-0 checkpoint), and the
        // durable-storage traffic it cost is accounted.
        prop_assert!(recovered.failover.checkpoints_taken >= 1);
        prop_assert!(recovered.failover.checkpoint_bytes > 0);
        // Replayed orphans ride a priced checkpoint migration.
        if recovered.failover.migrations_replayed > 0 {
            prop_assert!(recovered.failover.replay_cycles > 0);
        }
        // Chaos or not, the whole report replays bit for bit.
        let again = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        prop_assert_eq!(recovered, again);
    }
}

/// Satellite (b): without failover the legacy outage path now *measures*
/// what a real crash would destroy — `lost_streams` equals the arrivals
/// already routed to the victim when it died, instead of silently
/// completing them. Flipping failover on drives the same scenario to zero.
#[test]
fn failover_off_reports_doomed_streams_as_lost_and_on_reports_zero() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let devices = test_devices(3);
    let trace = Trace::synthetic(29, 60, dfas.len(), 60, 8..64, b"01");
    let healthy = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
    assert_eq!(healthy.lost_streams, 0, "a healthy fleet loses nothing");
    assert_eq!(healthy.failover, gspecpal_cluster::FailoverReport::default());
    let victim = (0..3).max_by_key(|&d| healthy.devices[d].report.streams).expect("three devices");
    let mid = trace.arrivals()[trace.len() / 2].arrival_cycle;
    let legacy_cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: victim, at_cycle: mid }),
        ..ClusterConfig::default()
    };
    let legacy = run_cluster(&devices, &machines, &trace, &legacy_cfg).unwrap();
    assert!(legacy.router.doomed_streams > 0, "the busiest device had pre-crash arrivals");
    assert_eq!(legacy.lost_streams, legacy.router.doomed_streams);
    assert_eq!(
        legacy.lost_streams as usize, legacy.devices[victim].report.streams,
        "the legacy model still completes exactly the doomed streams on the dead device"
    );
    let failover_cfg = ClusterConfig { failover: Some(FailoverConfig::default()), ..legacy_cfg };
    let recovered = run_cluster(&devices, &machines, &trace, &failover_cfg).unwrap();
    assert_eq!(recovered.lost_streams, 0, "failover must conserve every doomed stream");
    assert_eq!(recovered.router.doomed_streams, legacy.router.doomed_streams);
    assert_eq!(recovered.streams, trace.len());
}

/// Failover under `ReportDetail::Bounded` bills the same work as under
/// `Full`. The one difference is the checkpoint: a `Bounded` snapshot holds
/// no per-stream report vectors, so it is smaller and its migration copy
/// cheaper. Every other phase of every device matches cycle for cycle, and
/// the survivors' extra `Transfer` cycles under `Full` are exactly the
/// extra replay cycles — the migration charge is merged whole under both
/// detail levels.
#[test]
fn failover_under_bounded_detail_matches_full() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let devices = test_devices(3);
    let trace = Trace::synthetic(29, 60, dfas.len(), 60, 8..64, b"01");
    let healthy = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
    let victim = (0..3).max_by_key(|&d| healthy.devices[d].report.streams).expect("three devices");
    let mid = trace.arrivals()[trace.len() / 2].arrival_cycle;
    let full_cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: victim, at_cycle: mid }),
        failover: Some(FailoverConfig::default()),
        ..ClusterConfig::default()
    };
    let bounded_cfg = ClusterConfig {
        serve: ServeConfig { detail: ReportDetail::Bounded, ..full_cfg.serve.clone() },
        ..full_cfg.clone()
    };
    let full = run_cluster(&devices, &machines, &trace, &full_cfg).unwrap();
    let bounded = run_cluster(&devices, &machines, &trace, &bounded_cfg).unwrap();
    assert!(full.failover.migrations_replayed > 0, "the crash must orphan streams");
    assert_eq!((bounded.lost_streams, full.lost_streams), (0, 0));
    assert_eq!(bounded.streams, full.streams);
    let (b, f) = (bounded.failover, full.failover);
    assert_eq!(
        (b.checkpoints_taken, b.migrations_replayed, b.migration_retries),
        (f.checkpoints_taken, f.migrations_replayed, f.migration_retries)
    );
    assert!(b.checkpoint_bytes < f.checkpoint_bytes, "bounded snapshots drop per-stream vectors");
    let mut extra_transfer = 0;
    for (d, (b, f)) in bounded.devices.iter().zip(&full.devices).enumerate() {
        let (b, f) = (&b.report.stats, &f.report.stats);
        for (phase, counters) in f.profile.iter() {
            if phase != Phase::Transfer {
                assert_eq!(b.profile.get(phase), counters, "device {d} {phase}");
            }
        }
        let (bt, ft) =
            (b.profile.get(Phase::Transfer).cycles, f.profile.get(Phase::Transfer).cycles);
        assert_eq!(f.cycles - ft, b.cycles - bt, "device {d}: only the copy differs");
        extra_transfer += ft - bt;
    }
    assert_eq!(extra_transfer, f.replay_cycles - b.replay_cycles);
}

/// A crash that strikes after the victim finished its whole share has
/// nothing in flight: the failover report must equal the crash-free fleet
/// bit for bit, modulo the failover/outage bookkeeping counters.
#[test]
fn failover_after_quiesce_equals_the_crash_free_fleet_modulo_counters() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let devices = test_devices(3);
    let trace = Trace::synthetic(31, 40, dfas.len(), 40, 8..64, b"01");
    let healthy = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: 1, at_cycle: healthy.makespan_cycles + 1 }),
        failover: Some(FailoverConfig::default()),
        ..ClusterConfig::default()
    };
    let recovered = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    assert!(recovered.failover.checkpoints_taken >= 1);
    assert_eq!(recovered.failover.migrations_replayed, 0, "an idle crash migrates nothing");
    assert_eq!(recovered.failover.replay_cycles, 0);
    assert_eq!(recovered.lost_streams, 0);
    let expected = gspecpal_cluster::ClusterReport {
        router: RouterStats { doomed_streams: recovered.router.doomed_streams, ..healthy.router },
        failover: recovered.failover,
        ..healthy.clone()
    };
    assert_eq!(recovered, expected, "only the bookkeeping counters may differ");
}

/// Migration-copy failures come from the *same* fault plan as every other
/// copy in the run, keyed on the receiving survivor, and are retried under
/// the capped-exponential schedule with the post-budget attempt forced
/// through. With a single survivor the retry count is exactly computable.
#[test]
fn failover_migration_retries_follow_the_shared_fault_plan() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let devices = test_devices(2);
    let trace = Trace::synthetic(37, 30, dfas.len(), 40, 8..64, b"01");
    let healthy = run_cluster(&devices, &machines, &trace, &ClusterConfig::default()).unwrap();
    let victim = (0..2).max_by_key(|&d| healthy.devices[d].report.streams).expect("two devices");
    let survivor = 1 - victim;
    // Crash right after the first arrival so nearly the whole victim share
    // is orphaned and must migrate.
    let at_cycle = trace.arrivals()[0].arrival_cycle + 1;
    let fo = FailoverConfig::default();
    let outage = DeviceOutage { device: victim, at_cycle };
    let clean_cfg =
        ClusterConfig { outage: Some(outage), failover: Some(fo), ..ClusterConfig::default() };
    let clean = run_cluster(&devices, &machines, &trace, &clean_cfg).unwrap();
    assert!(clean.failover.migrations_replayed > 0, "an early crash must orphan streams");
    assert_eq!(clean.failover.migration_retries, 0, "no fault plan, no failed copies");
    assert!(clean.failover.replay_cycles > 0, "the checkpoint copy itself is never free");
    assert_eq!(clean.lost_streams, 0);
    // Every copy attempt fails: the loop must spend exactly the retry
    // budget on the one migrating survivor, then force the copy through.
    let plan = FaultPlan {
        seed: 97,
        abort_permille: 0,
        copy_fail_permille: 1000,
        corrupt_permille: 0,
        watchdog_cycles: 0,
    };
    let mut expected_retries = 0u64;
    for attempt in 0..fo.migration_max_retries {
        if plan.copy_fails(FaultDomain::H2d, fault_coord(survivor), attempt) {
            expected_retries += 1;
        } else {
            break;
        }
    }
    assert_eq!(expected_retries, fo.migration_max_retries as u64, "1000 permille always fails");
    let faulty_cfg = ClusterConfig {
        serve: ServeConfig {
            scheme_config: SchemeConfig { faults: Some(plan), ..SchemeConfig::default() },
            ..ServeConfig::default()
        },
        ..clean_cfg
    };
    let faulty = run_cluster(&devices, &machines, &trace, &faulty_cfg).unwrap();
    assert!(faulty.failover.migrations_replayed > 0);
    assert_eq!(faulty.failover.migration_retries, expected_retries);
    assert!(
        faulty.failover.replay_cycles > clean.failover.replay_cycles,
        "failed attempts and backoffs must show up in the replay bill"
    );
    assert_eq!(faulty.lost_streams, 0, "forced-through migration still conserves streams");
}

/// The streaming path keeps no routing journal to replay orphans from, so
/// pairing it with failover is a structured configuration error.
#[test]
fn streaming_path_rejects_failover_with_a_structured_error() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let trace = Trace::synthetic(11, 8, dfas.len(), 30, 8..32, b"01");
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: 0, at_cycle: 100 }),
        failover: Some(FailoverConfig::default()),
        ..ClusterConfig::default()
    };
    match run_cluster_source(
        &test_devices(2),
        &machines,
        IterSource(trace.arrivals().iter().cloned()),
        &cfg,
    ) {
        Err(ServeError::InvalidConfig { field: "failover", .. }) => {}
        other => panic!("expected the streaming path to reject failover, got {other:?}"),
    }
}

/// A zero checkpoint cadence can never take the batch-0 checkpoint the
/// resume guarantee depends on — rejected up front.
#[test]
fn failover_rejects_a_zero_checkpoint_cadence() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let trace = Trace::synthetic(11, 8, dfas.len(), 30, 8..32, b"01");
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: 0, at_cycle: 100 }),
        failover: Some(FailoverConfig { checkpoint_every_batches: 0, ..FailoverConfig::default() }),
        ..ClusterConfig::default()
    };
    match run_cluster(&test_devices(2), &machines, &trace, &cfg) {
        Err(ServeError::InvalidConfig { .. }) => {}
        other => panic!("expected a cadence rejection, got {other:?}"),
    }
}
