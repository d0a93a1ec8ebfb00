//! Fleet-level integration tests: consistent-hash routing laws, cluster
//! report bit-identity across host pools and reruns, whole-device failure
//! re-sharding, and per-device fault-plan composability.

use gspecpal::{FaultPlan, SchemeConfig};
use gspecpal_cluster::{
    run_cluster, run_cluster_source, ClusterConfig, ClusterDevice, ClusterReport, DeviceOutage,
    FailoverConfig, FailoverReport, FleetMachine, HashRing, RebalanceConfig, Router, RouterStats,
};
use gspecpal_fsm::examples::{div7, mod_counter, ones_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::{
    backoff_cycles, fault_coord, link_transfer_stats, DeviceSpec, FaultDomain, KernelStats, Phase,
};
use gspecpal_serve::{
    finalize_checkpoint, serve, serve_until_crash, BatchPolicy, IterSource, LatencySummary,
    PriorityClass, ReportDetail, ResidencyConfig, ServeConfig, ServeError, ServeMachine,
    ServeReport, StreamArrival, StreamOutcome, Trace, MAX_ARRIVAL_CYCLE,
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

/// The streaming entry point serves failover configs too, and equals the
/// trace entry point on the same arrivals bit for bit.
#[test]
fn streaming_path_serves_failover_like_the_trace_path() {
    let dfas = fleet_dfas();
    let machines = fleet_machines(&dfas);
    let devices = test_devices(3);
    let trace = Trace::synthetic(29, 60, dfas.len(), 60, 8..64, b"01");
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage {
            device: 1,
            at_cycle: trace.arrivals()[trace.len() / 2].arrival_cycle,
        }),
        failover: Some(FailoverConfig { checkpoint_every_batches: 2, ..FailoverConfig::default() }),
        ..ClusterConfig::default()
    };
    let batch = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
    let streamed =
        run_cluster_source(&devices, &machines, IterSource(trace.arrivals().iter().cloned()), &cfg)
            .unwrap();
    assert_eq!(batch, streamed);
    assert_eq!(streamed.lost_streams, 0);
    assert!(streamed.failover.checkpoints_taken >= 1);
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

/// What the materializing fleet oracle computes: everything
/// `ClusterReport` is assembled from, plus the per-class delivery split.
#[derive(Debug, PartialEq)]
struct FleetParts {
    devices: Vec<ServeReport>,
    streams: usize,
    router: RouterStats,
    failover: FailoverReport,
    lost: u64,
    bulk: LatencySummary,
    deadline: LatencySummary,
}

impl From<&ClusterReport> for FleetParts {
    fn from(r: &ClusterReport) -> Self {
        FleetParts {
            devices: r.devices.iter().map(|d| d.report.clone()).collect(),
            streams: r.streams,
            router: r.router,
            failover: r.failover,
            lost: r.lost_streams,
            bulk: r.bulk_delivery,
            deadline: r.deadline_delivery,
        }
    }
}

/// The materializing fleet algorithm, kept as an oracle for the streaming
/// demux and built from public pieces only: route the whole trace into
/// per-device shares and serve each share standalone. Under failover the
/// victim serves its share until the crash, its last checkpoint is
/// finalized, the orphans (checkpoint window plus every share arrival the
/// checkpoint had not pulled) re-shard over the surviving ring, each
/// survivor that replays orphans pays the checkpoint copy (with retries)
/// and serves its share with the re-stamped orphans appended and stably
/// sorted. Class splits attribute each served stream to its arrival's
/// machine.
fn fleet_oracle(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    trace: &Trace,
    cfg: &ClusterConfig,
) -> FleetParts {
    let n = devices.len();
    let machines: Vec<Vec<ServeMachine<'_>>> = devices
        .iter()
        .map(|d| {
            fleet
                .iter()
                .map(|m| ServeMachine::prepare(&d.spec, m.dfa, m.training).with_class(m.class))
                .collect()
        })
        .collect();
    let footprints = machines[0].iter().map(|m| m.table_footprint_bytes() as u64).collect();
    let mut router = Router::new(devices, footprints, cfg);
    let mut shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); n];
    for a in trace.arrivals() {
        shares[router.route(a.machine, a.arrival_cycle, a.bytes.len())].push(a.clone());
    }
    let mut failover = FailoverReport::default();
    let mut charges: Vec<Option<KernelStats>> = vec![None; n];
    let mut victim = None;
    if let Some((outage, fo)) = cfg.outage.zip(cfg.failover) {
        let v = outage.device;
        let share = std::mem::take(&mut shares[v]);
        let crash = serve_until_crash(
            &devices[v].spec,
            &machines[v],
            IterSource(share.iter().cloned()),
            &cfg.serve,
            fo.checkpoint_every_batches,
            outage.at_cycle,
        )
        .unwrap();
        failover.checkpoints_taken = crash.checkpoints_taken;
        failover.checkpoint_bytes = crash.checkpoint_bytes;
        let (report, orphans, blob_len) = match crash.completed {
            Some(report) => (*report, Vec::new(), 0),
            None => {
                let ck = crash.checkpoint.unwrap();
                let (durable, mut orphans) =
                    finalize_checkpoint(&devices[v].spec, &machines[v], &cfg.serve, &ck).unwrap();
                orphans.extend(share[ck.streams_pulled()..].iter().cloned());
                (durable, orphans, ck.encoded_len())
            }
        };
        let admitted = share[..report.streams].to_vec();
        victim = Some((v, report, admitted));
        let survivors = HashRing::new(n, cfg.vnodes).without(v);
        let mut orphan_shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); n];
        for a in orphans {
            orphan_shares[survivors.route(a.machine)].push(a);
        }
        let plan = cfg.serve.scheme_config.faults;
        for (d, orphans) in orphan_shares.into_iter().enumerate() {
            if orphans.is_empty() {
                continue;
            }
            let (mut delta, mut attempt, mut charge) = (0u64, 0u32, KernelStats::default());
            loop {
                let stats = link_transfer_stats(&devices[d].link, &devices[d].spec, blob_len);
                delta += stats.cycles;
                charge.merge_sequential(&stats);
                let failed =
                    plan.is_some_and(|p| p.copy_fails(FaultDomain::H2d, fault_coord(d), attempt));
                if !failed || attempt >= fo.migration_max_retries {
                    break;
                }
                failover.migration_retries += 1;
                delta += backoff_cycles(
                    fo.migration_backoff_base_cycles,
                    fo.migration_backoff_cap_cycles,
                    attempt,
                );
                attempt += 1;
            }
            failover.replay_cycles += delta;
            failover.migrations_replayed += orphans.len() as u64;
            charges[d] = Some(charge);
            let ready = outage.at_cycle.saturating_add(delta).min(MAX_ARRIVAL_CYCLE);
            shares[d].extend(orphans.into_iter().map(|mut a| {
                a.arrival_cycle = a.arrival_cycle.max(ready);
                a
            }));
        }
    }
    let mut devices_out = Vec::with_capacity(n);
    let mut admitted: Vec<Vec<StreamArrival>> = Vec::with_capacity(n);
    for (d, share) in shares.into_iter().enumerate() {
        if let Some((_, report, victim_admitted)) = victim.as_ref().filter(|(v, ..)| *v == d) {
            devices_out.push(report.clone());
            admitted.push(victim_admitted.clone());
            continue;
        }
        let sub = Trace::from_arrivals(share);
        let mut report = serve(&devices[d].spec, &machines[d], &sub, &cfg.serve).unwrap();
        if let Some(charge) = &charges[d] {
            report.stats.merge_sequential(charge);
        }
        devices_out.push(report);
        admitted.push(sub.arrivals().to_vec());
    }
    let streams: usize = devices_out.iter().map(|r| r.streams).sum();
    let lost = if cfg.outage.is_some() && cfg.failover.is_some() {
        (trace.len() - streams) as u64
    } else {
        router.stats.doomed_streams
    };
    let (mut bulk, mut deadline) = (Vec::new(), Vec::new());
    if devices_out.iter().all(|r| r.latencies.len() == r.streams) {
        for (r, arrivals) in devices_out.iter().zip(&admitted) {
            for (i, a) in arrivals.iter().enumerate() {
                if r.outcomes[i] == StreamOutcome::Served {
                    match fleet[a.machine].class {
                        PriorityClass::Bulk => bulk.push(r.latencies[i]),
                        PriorityClass::Deadline => deadline.push(r.latencies[i]),
                    }
                }
            }
        }
    }
    FleetParts {
        devices: devices_out,
        streams,
        router: router.stats,
        failover,
        lost,
        bulk: LatencySummary::from_latencies(&bulk),
        deadline: LatencySummary::from_latencies(&deadline),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one fleet path against the materializing oracle: over random
    /// traces, fleet sizes, outage cycles, failover on and off, both
    /// report details, mixed priority classes and fault plans, both entry
    /// points reproduce the oracle bit for bit (and each other, whole
    /// report included).
    #[test]
    fn fleet_paths_match_the_materializing_failover_oracle(
        seed in 0u64..10_000,
        n_devices in 2usize..5,
        streams in 1usize..80,
        mean_gap in 5u64..200,
        victim_salt in 0usize..4,
        crash_salt in 0usize..100,
        crash_offset in 0u64..3,
        pause in 0u8..2,
        outage_mode in 0u8..3,
        every_batches in 1usize..5,
        bounded in 0u8..2,
        faults in 0u8..2,
        deadline_machines in 0u8..2,
        preempt in 0u8..2,
        rebalance in 0u8..2,
    ) {
        let dfas = fleet_dfas();
        let machines: Vec<FleetMachine<'_>> = dfas
            .iter()
            .enumerate()
            .map(|(m, dfa)| FleetMachine {
                dfa,
                training: b"0110",
                class: if deadline_machines == 1 && m % 3 == 1 {
                    PriorityClass::Deadline
                } else {
                    PriorityClass::Bulk
                },
            })
            .collect();
        let devices = test_devices(n_devices);
        let mut arrivals =
            Trace::synthetic(seed, streams, dfas.len(), mean_gap, 8..64, b"01").arrivals().to_vec();
        // Crash at (or just after) an arrival, or once in ten after the
        // whole trace has been served. A pause after the crash puts the
        // next arrivals past any orphan's re-stamp.
        let crash_at = crash_salt * streams / 90;
        if pause == 1 {
            for a in arrivals.iter_mut().skip(crash_at + 1) {
                a.arrival_cycle += 50_000;
            }
        }
        let trace = Trace::from_arrivals(arrivals);
        let at_cycle = match trace.arrivals().get(crash_at) {
            Some(a) => a.arrival_cycle + crash_offset,
            None => trace.arrivals()[trace.len() - 1].arrival_cycle + 100_000,
        };
        let outage = DeviceOutage { device: victim_salt % n_devices, at_cycle };
        let cfg = ClusterConfig {
            serve: ServeConfig {
                scheme_config: SchemeConfig {
                    faults: (faults == 1).then(|| FaultPlan {
                        copy_fail_permille: 150,
                        ..FaultPlan::chaos(seed, 80)
                    }),
                    ..SchemeConfig::default()
                },
                detail: if bounded == 1 { ReportDetail::Bounded } else { ReportDetail::Full },
                preempt: preempt == 1,
                residency: Some(ResidencyConfig { capacity_bytes: 4096 }),
                ..ServeConfig::default()
            },
            rebalance: (rebalance == 1).then_some(RebalanceConfig { epoch_cycles: at_cycle / 2 }),
            outage: (outage_mode > 0).then_some(outage),
            failover: (outage_mode == 2).then_some(FailoverConfig {
                checkpoint_every_batches: every_batches,
                ..FailoverConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let oracle = fleet_oracle(&devices, &machines, &trace, &cfg);
        let batch = run_cluster(&devices, &machines, &trace, &cfg).unwrap();
        let streamed = run_cluster_source(
            &devices,
            &machines,
            IterSource(trace.arrivals().iter().cloned()),
            &cfg,
        )
        .unwrap();
        prop_assert_eq!(FleetParts::from(&batch), oracle);
        prop_assert_eq!(batch, streamed);
    }
}
