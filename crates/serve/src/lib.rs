//! `gspecpal-serve`: a deterministic multi-stream serving pipeline over the
//! GSpecPal simulator.
//!
//! The rest of the workspace measures *one-shot batches*: build a job, run
//! a kernel, read the cycle count. Real serving is a different shape — a
//! trace of streams arriving over time, a bounded admission queue, batches
//! formed under a policy, inputs DMA-copied over PCIe before any kernel can
//! start, and results copied back before the host sees them. This crate
//! models that end to end, on the same deterministic cycle arithmetic as
//! the simulator itself:
//!
//! * [`Trace`] / [`StreamArrival`] — the workload: time-ordered arrivals of
//!   (cycle, machine, bytes), handwritten or synthesized from a seed;
//! * [`BatchPolicy`] — when a batch closes: FIFO fixed-size, deadline-capped,
//!   or adaptive occupancy-aware (work-conserving);
//! * [`ServeMachine`] — a DFA prepared for serving: selector-chosen scheme
//!   plus a device-sized hot-row table;
//! * [`serve`] — the pipeline: admission with backpressure, per-batch
//!   H2D-copy → kernel → D2H-copy scheduling on a dual copy-engine /
//!   compute-queue timeline ([`gspecpal_gpu::DeviceTimeline`]), with batch
//!   *k+1*'s input copy overlapping batch *k*'s kernel under double
//!   buffering;
//! * [`ServeReport`] — per-stream latency percentiles, sustained
//!   bytes/cycle, queue depth over time, backpressure counts, copy/compute
//!   overlap efficiency, and merged [`gspecpal_gpu::KernelStats`] whose
//!   `Phase::Transfer` bucket now carries real copy cycles while the
//!   per-phase partition of total cycles stays exact;
//! * [`serve_source`] / [`TraceSource`] — the streaming entry point: the
//!   same engine pulling arrivals one at a time from a generator, log
//!   parser, or [`SyntheticSource`], with resident memory bounded by the
//!   queue depth (pair with [`ReportDetail::Bounded`] and the
//!   constant-memory [`LatencySketch`] summaries to serve millions of
//!   streams without O(streams) state);
//! * [`ServeRun`] — that engine one batch at a time, for a caller that
//!   interleaves several runs on one thread (the fleet demux);
//! * [`ResidencyConfig`] / [`PriorityClass`] — fleet-grade serving: a
//!   per-device transition-table LRU whose misses charge real H2D copies
//!   (and whose hit rate the report carries), and deadline-class machines
//!   whose batches preempt the open bulk kernel at its next wave boundary
//!   ([`ServeConfig::preempt`]) instead of queueing behind it;
//! * [`serve_checkpoint`] / [`serve_resume`] / [`serve_until_crash`]
//!   ([`CrashRun`] stepwise) —
//!   crash consistency: the engine suspends at any quiescent inter-batch
//!   boundary into a versioned, checksummed, byte-deterministic
//!   [`EngineCheckpoint`], and a resumed run's report is bit-identical to
//!   the uninterrupted one; [`finalize_checkpoint`] turns the last
//!   checkpoint before a device crash into a durable report plus the
//!   orphan arrivals a failover peer must replay (see `gspecpal-cluster`).
//!
//! Everything is integer cycle arithmetic over deterministic simulations:
//! two runs of the same trace and configuration produce bit-identical
//! reports at any host thread count.
//!
//! # Example
//!
//! ```
//! use gspecpal_fsm::examples::div7;
//! use gspecpal_gpu::DeviceSpec;
//! use gspecpal_serve::{serve, BatchPolicy, ServeConfig, ServeMachine, Trace};
//!
//! let spec = DeviceSpec::test_unit();
//! let dfa = div7();
//! let machine = ServeMachine::prepare(&spec, &dfa, &b"110101".repeat(64));
//! let trace = Trace::synthetic(7, 24, 1, 50, 16..128, b"01");
//! let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 8 }, ..ServeConfig::default() };
//! let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
//! assert_eq!(report.streams, 24);
//! // Every answer matches a host-side reference scan.
//! for (i, a) in trace.arrivals().iter().enumerate() {
//!     assert_eq!(report.end_states[i], dfa.run(&a.bytes));
//! }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod controller;
pub mod error;
pub mod pipeline;
pub mod policy;
pub mod report;
pub mod sketch;
pub mod source;
pub mod trace;

pub use checkpoint::{
    finalize_checkpoint, serve_checkpoint, serve_resume, serve_until_crash, CheckpointOutcome,
    CrashOutcome, CrashRun, EngineCheckpoint,
};
pub use controller::{
    AdaptiveController, BatchObservation, ControllerConfig, Decision, DecisionRecord, LaunchChoice,
};
pub use error::ServeError;
pub use pipeline::{
    serve, serve_source, ReportDetail, ResidencyConfig, ServeConfig, ServeMachine,
    ServeRecoveryConfig, ServeRun,
};
pub use policy::{BatchPolicy, PolicyKind, PriorityClass};
pub use report::{
    BatchRecord, ExecMode, LatencySummary, RecoveryReport, ResidencyReport, ServeReport,
    StreamOutcome, EXACT_SUMMARY_MAX,
};
pub use sketch::LatencySketch;
pub use source::{IterSource, SyntheticSource, TraceSource};
pub use trace::{StreamArrival, Trace, MAX_ARRIVAL_CYCLE};

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::{DeviceSpec, Phase};

    fn setup() -> (DeviceSpec, gspecpal_fsm::Dfa) {
        (DeviceSpec::test_unit(), div7())
    }

    fn burst_trace(n: usize, len: usize) -> Trace {
        Trace::from_arrivals(
            (0..n)
                .map(|i| StreamArrival {
                    arrival_cycle: 0,
                    machine: 0,
                    bytes: b"10".repeat(len / 2 + i % 3),
                })
                .collect(),
        )
    }

    #[test]
    fn answers_match_reference_scans_under_every_policy() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64));
        let trace = Trace::synthetic(3, 20, 1, 30, 8..96, b"01");
        for policy in [
            BatchPolicy::Fifo { batch: 4 },
            BatchPolicy::Deadline { batch: 4, max_wait: 40 },
            BatchPolicy::Adaptive { max_batch: 16 },
        ] {
            let cfg = ServeConfig { policy, ..ServeConfig::default() };
            let report = serve(&spec, std::slice::from_ref(&machine), &trace, &cfg).unwrap();
            assert_eq!(report.streams, 20, "{}", policy.name());
            for (i, a) in trace.arrivals().iter().enumerate() {
                assert_eq!(report.end_states[i], dfa.run(&a.bytes), "{} stream {i}", policy.name());
                assert_eq!(
                    report.accepted[i],
                    dfa.accepts(&a.bytes),
                    "{} stream {i}",
                    policy.name()
                );
            }
            let served: usize = report.batches.iter().map(|b| b.streams).sum();
            assert_eq!(served, 20);
        }
    }

    #[test]
    fn transfer_cycles_are_charged_and_partition_exactly() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let trace = burst_trace(12, 40);
        let report = serve(&spec, &[machine], &trace, &ServeConfig::default()).unwrap();
        let transfer = report.stats.profile.get(Phase::Transfer).cycles;
        assert!(transfer > 0, "serving must charge host<->device copies");
        assert_eq!(
            report.stats.profile.total_cycles(),
            report.stats.cycles,
            "per-phase cycles still partition the total exactly"
        );
        // Each batch pays at least two copies (inputs in, results out).
        let n_batches = report.batches.len() as u64;
        assert!(transfer >= n_batches * 2 * spec.copy_latency_cycles);
    }

    #[test]
    fn overlap_strictly_beats_serialization_on_multi_batch_traces() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        // A burst: all streams present at cycle 0, so batching decisions are
        // identical with and without overlap.
        let trace = burst_trace(16, 60);
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 4 },
            overlap: true,
            ..ServeConfig::default()
        };
        let overlapped = serve(&spec, std::slice::from_ref(&machine), &trace, &cfg).unwrap();
        let serial =
            serve(&spec, &[machine], &trace, &ServeConfig { overlap: false, ..cfg }).unwrap();
        assert_eq!(overlapped.batches.len(), serial.batches.len());
        assert!(overlapped.batches.len() >= 3, "need a multi-batch trace");
        // Same batches, same kernels, same answers...
        assert_eq!(overlapped.end_states, serial.end_states);
        assert_eq!(overlapped.stats, serial.stats, "engine-busy work is identical");
        // ...but the overlapped timeline finishes strictly earlier.
        assert!(
            overlapped.makespan_cycles < serial.makespan_cycles,
            "overlap {} vs serial {}",
            overlapped.makespan_cycles,
            serial.makespan_cycles
        );
        assert!(overlapped.overlap_efficiency_permille > 0);
        assert_eq!(serial.overlap_efficiency_permille, 0, "no copy ever rides under a kernel");
    }

    #[test]
    fn deadline_ships_partial_batches() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        // Two streams far apart: FIFO(2) waits for the second; Deadline ships
        // the first alone at its deadline.
        let trace = Trace::from_arrivals(vec![
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(20) },
            StreamArrival { arrival_cycle: 1_000_000, machine: 0, bytes: b"10".repeat(20) },
        ]);
        let deadline_cfg = ServeConfig {
            policy: BatchPolicy::Deadline { batch: 2, max_wait: 100 },
            ..ServeConfig::default()
        };
        let fifo_cfg =
            ServeConfig { policy: BatchPolicy::Fifo { batch: 2 }, ..ServeConfig::default() };
        let d = serve(&spec, std::slice::from_ref(&machine), &trace, &deadline_cfg).unwrap();
        let f = serve(&spec, &[machine], &trace, &fifo_cfg).unwrap();
        assert_eq!(d.batches.len(), 2, "deadline shipped the lone stream");
        assert_eq!(f.batches.len(), 1, "fifo waited the million cycles");
        assert!(
            d.latencies[0] < f.latencies[0],
            "deadline bounds the first stream's latency: {} vs {}",
            d.latencies[0],
            f.latencies[0]
        );
    }

    #[test]
    fn adaptive_is_work_conserving() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        // Trickle arrivals, far apart: adaptive must not hold the device
        // idle waiting to fill its occupancy target.
        let trace = Trace::from_arrivals(
            (0..4)
                .map(|i| StreamArrival {
                    arrival_cycle: i * 1_000_000,
                    machine: 0,
                    bytes: b"10".repeat(30),
                })
                .collect(),
        );
        let cfg = ServeConfig {
            policy: BatchPolicy::Adaptive { max_batch: 64 },
            ..ServeConfig::default()
        };
        let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
        assert_eq!(report.batches.len(), 4, "each trickle arrival ships alone");
        // Under a burst the same policy batches aggressively.
        let burst = burst_trace(16, 30);
        let report = serve(
            &spec,
            &[ServeMachine::prepare(&spec, &div7(), &b"10".repeat(128))],
            &burst,
            &cfg,
        )
        .unwrap();
        assert!(report.batches.len() < 16, "burst arrivals share batches");
    }

    #[test]
    fn residency_lru_hits_after_the_first_touch() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let footprint = machine.table_footprint_bytes();
        let trace = burst_trace(16, 40);
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 4 },
            residency: Some(ResidencyConfig { capacity_bytes: 4 * footprint }),
            ..ServeConfig::default()
        };
        let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
        let batches = report.batches.len() as u64;
        assert!(batches >= 4);
        assert_eq!(report.residency.misses, 1, "only the cold first batch uploads");
        assert_eq!(report.residency.hits, batches - 1);
        assert_eq!(report.residency.evictions, 0);
        assert_eq!(report.residency.copied_bytes, footprint as u64);
        assert_eq!(report.residency.hit_permille(), (batches - 1) * 1000 / batches);
    }

    #[test]
    fn residency_thrash_evicts_and_reuploads() {
        let (spec, dfa) = setup();
        let dfa2 = gspecpal_fsm::examples::mod_counter(5, &[0]);
        let m0 = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let m1 = ServeMachine::prepare(&spec, &dfa2, &b"10".repeat(128));
        let cap = m0.table_footprint_bytes().max(m1.table_footprint_bytes());
        // Alternate machines with room for exactly one table: every batch
        // misses and (after the first) evicts the other machine's table.
        let trace = Trace::from_arrivals(
            (0..8)
                .map(|i| StreamArrival {
                    arrival_cycle: 0,
                    machine: i % 2,
                    bytes: b"10".repeat(10),
                })
                .collect(),
        );
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 1 },
            residency: Some(ResidencyConfig { capacity_bytes: cap }),
            ..ServeConfig::default()
        };
        let report = serve(&spec, &[m0, m1], &trace, &cfg).unwrap();
        assert_eq!(report.residency.hits, 0, "ping-pong traffic never hits");
        assert_eq!(report.residency.misses, 8);
        assert_eq!(report.residency.evictions, 7, "every upload after the first evicts");
    }

    #[test]
    fn residency_unfittable_table_always_reuploads_but_never_evicts() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let trace = burst_trace(8, 30);
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 2 },
            residency: Some(ResidencyConfig { capacity_bytes: 1 }),
            ..ServeConfig::default()
        };
        let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
        assert_eq!(report.residency.hits, 0);
        assert_eq!(report.residency.misses, report.batches.len() as u64);
        assert_eq!(report.residency.evictions, 0);
    }

    #[test]
    fn residency_charges_real_transfers_and_keeps_the_partition_exact() {
        let (spec, dfa) = setup();
        let trace = burst_trace(12, 40);
        let base = serve(
            &spec,
            &[ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128))],
            &trace,
            &ServeConfig::default(),
        )
        .unwrap();
        let cfg = ServeConfig {
            residency: Some(ResidencyConfig { capacity_bytes: 1 }),
            ..ServeConfig::default()
        };
        let cold =
            serve(&spec, &[ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128))], &trace, &cfg)
                .unwrap();
        use gspecpal_gpu::Phase;
        assert!(
            cold.stats.profile.get(Phase::Transfer).cycles
                > base.stats.profile.get(Phase::Transfer).cycles,
            "table uploads must land in Phase::Transfer"
        );
        assert_eq!(cold.stats.profile.total_cycles(), cold.stats.cycles);
        assert!(cold.makespan_cycles >= base.makespan_cycles);
        assert_eq!(cold.end_states, base.end_states, "residency never changes answers");
    }

    #[test]
    fn preempt_mode_with_only_bulk_machines_matches_the_historical_engine() {
        let (spec, dfa) = setup();
        let trace = Trace::synthetic(11, 40, 1, 60, 8..96, b"01");
        let base_cfg =
            ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() };
        let base = serve(
            &spec,
            &[ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128))],
            &trace,
            &base_cfg,
        )
        .unwrap();
        let preempt = serve(
            &spec,
            &[ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128))],
            &trace,
            &ServeConfig { preempt: true, ..base_cfg },
        )
        .unwrap();
        assert_eq!(preempt, base, "all-bulk preempt mode is the FIFO queue, byte for byte");
        assert_eq!(preempt.preemptions, 0);
    }

    #[test]
    fn deadline_class_preempts_the_open_bulk_kernel() {
        let (spec, dfa) = setup();
        // Machine 0: bulk, one big batch. Machine 1: deadline, one tiny
        // stream arriving while the bulk kernel is in flight.
        let mk = |class| ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128)).with_class(class);
        let mut arrivals: Vec<StreamArrival> = (0..8)
            .map(|_| StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(300) })
            .collect();
        arrivals.push(StreamArrival { arrival_cycle: 20_000, machine: 1, bytes: b"10".repeat(10) });
        let trace = Trace::from_arrivals(arrivals);
        let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 8 }, ..ServeConfig::default() };
        let fifo =
            serve(&spec, &[mk(PriorityClass::Bulk), mk(PriorityClass::Deadline)], &trace, &cfg)
                .unwrap();
        let pre = serve(
            &spec,
            &[mk(PriorityClass::Bulk), mk(PriorityClass::Deadline)],
            &trace,
            &ServeConfig { preempt: true, ..cfg },
        )
        .unwrap();
        assert_eq!(pre.end_states, fifo.end_states, "preemption never changes answers");
        assert_eq!(pre.streams, fifo.streams);
        assert_eq!(pre.recovery.shed_streams, 0);
        if pre.preemptions > 0 {
            assert!(
                pre.latencies[8] < fifo.latencies[8],
                "the deadline stream must finish earlier: {} vs {}",
                pre.latencies[8],
                fifo.latencies[8]
            );
            assert!(pre.preempted_cycles > 0);
            // The displaced bulk batch pays exactly what the preemptor took.
            assert!(pre.latencies[0] >= fifo.latencies[0]);
        } else {
            panic!("the deadline stream arrived mid-kernel and must preempt");
        }
    }

    #[test]
    fn preempt_requires_overlap_and_residency_rejects_zero_capacity() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let trace = burst_trace(2, 10);
        let cfg = ServeConfig { preempt: true, overlap: false, ..ServeConfig::default() };
        assert!(serve(&spec, std::slice::from_ref(&machine), &trace, &cfg).is_err());
        let cfg = ServeConfig {
            residency: Some(ResidencyConfig { capacity_bytes: 0 }),
            ..ServeConfig::default()
        };
        assert!(serve(&spec, &[machine], &trace, &cfg).is_err());
    }

    #[test]
    fn machine_changes_close_batches() {
        let (spec, dfa) = setup();
        let dfa2 = gspecpal_fsm::examples::mod_counter(5, &[0]);
        let m0 = ServeMachine::prepare(&spec, &dfa, &b"10".repeat(128));
        let m1 = ServeMachine::prepare(&spec, &dfa2, &b"10".repeat(128));
        let trace = Trace::from_arrivals(vec![
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(10) },
            StreamArrival { arrival_cycle: 0, machine: 1, bytes: b"10".repeat(10) },
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(10) },
        ]);
        let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 8 }, ..ServeConfig::default() };
        let report = serve(&spec, &[m0, m1], &trace, &cfg).unwrap();
        assert_eq!(report.batches.len(), 3, "a batch runs one machine's table");
        assert_eq!(report.end_states[1], dfa2.run(&trace.arrivals()[1].bytes));
    }
}
