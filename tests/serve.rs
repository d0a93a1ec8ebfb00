//! Serve-scheduler edge cases: empty traces, single streams, oversized
//! streams as structured errors, backpressure under bursts, execution-mode
//! routing, and fault handling (retries, the breaker, deadline shedding).

use gspecpal_fsm::examples::{div7, mod_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::DeviceSpec;
use gspecpal_serve::{
    serve, BatchPolicy, ServeConfig, ServeError, ServeMachine, StreamArrival, Trace,
};

fn machine<'a>(spec: &DeviceSpec, dfa: &'a Dfa) -> ServeMachine<'a> {
    ServeMachine::prepare(spec, dfa, &b"110100".repeat(128))
}

#[test]
fn empty_trace_serves_to_an_empty_report() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let report = serve(&spec, &[m], &Trace::default(), &ServeConfig::default()).unwrap();
    assert_eq!(report.streams, 0);
    assert!(report.batches.is_empty());
    assert_eq!(report.makespan_cycles, 0);
    assert_eq!(report.stats.cycles, 0);
    assert_eq!(report.bytes_per_cycle(), 0.0);
    // An empty trace even serves without any machines.
    let report = serve(&spec, &[], &Trace::default(), &ServeConfig::default()).unwrap();
    assert_eq!(report.streams, 0);
}

#[test]
fn single_stream_round_trips_through_the_pipeline() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let bytes = b"110101".repeat(40);
    let trace = Trace::from_arrivals(vec![StreamArrival {
        arrival_cycle: 17,
        machine: 0,
        bytes: bytes.clone(),
    }]);
    let report = serve(&spec, &[m], &trace, &ServeConfig::default()).unwrap();
    assert_eq!(report.streams, 1);
    assert_eq!(report.batches.len(), 1);
    assert_eq!(report.end_states[0], dfa.run(&bytes));
    assert_eq!(report.accepted[0], dfa.accepts(&bytes));
    // The single stream's latency spans copy-in, kernel, and copy-out.
    let b = &report.batches[0];
    assert!(b.h2d.start >= 17, "nothing happens before arrival");
    assert_eq!(report.latencies[0], b.d2h.end - 17);
    assert_eq!(report.delivery.p50, report.latencies[0]);
    assert_eq!(report.delivery.max, report.latencies[0]);
}

#[test]
fn oversized_streams_are_structured_errors_not_panics() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let cfg = ServeConfig { device_mem_bytes: 64, ..ServeConfig::default() };
    let trace = Trace::from_arrivals(vec![
        StreamArrival { arrival_cycle: 0, machine: 0, bytes: vec![b'1'; 8] },
        StreamArrival { arrival_cycle: 1, machine: 0, bytes: vec![b'0'; 100] },
    ]);
    let err = serve(&spec, &[m], &trace, &cfg).unwrap_err();
    assert_eq!(err, ServeError::StreamTooLarge { stream: 1, bytes: 100, buffer_bytes: 32 });
    assert!(err.to_string().contains("100 bytes"));
}

#[test]
fn unknown_machines_are_structured_errors() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let trace = Trace::from_arrivals(vec![StreamArrival {
        arrival_cycle: 0,
        machine: 3,
        bytes: vec![b'1'; 4],
    }]);
    let err = serve(&spec, &[m], &trace, &ServeConfig::default()).unwrap_err();
    assert_eq!(err, ServeError::UnknownMachine { stream: 0, machine: 3, n_machines: 1 });
}

#[test]
fn bursts_beyond_the_queue_bound_backpressure_admission() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    // 12 simultaneous arrivals into a 3-deep queue: arrivals 3.. must wait
    // for earlier batches to start their copies.
    let trace = Trace::from_arrivals(
        (0..12)
            .map(|_| StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(30) })
            .collect(),
    );
    let tight = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 3 },
        max_queue_depth: 3,
        ..ServeConfig::default()
    };
    let report = serve(&spec, std::slice::from_ref(&m), &trace, &tight).unwrap();
    assert!(report.backpressure_events > 0, "a 3-deep queue must push back on a 12-burst");
    assert!(report.backpressure_wait_cycles > 0);
    assert!(report.peak_queue <= 3, "the queue bound holds");
    // Answers are unaffected by the squeeze.
    for (i, a) in trace.arrivals().iter().enumerate() {
        assert_eq!(report.end_states[i], dfa.run(&a.bytes), "stream {i}");
    }
    // A roomy queue admits the same burst without any waiting.
    let roomy = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 3 },
        max_queue_depth: 64,
        ..ServeConfig::default()
    };
    let report = serve(&spec, &[m], &trace, &roomy).unwrap();
    assert_eq!(report.backpressure_events, 0);
    // Depth samples are taken after all same-cycle events: the burst's 12
    // admissions minus the first batch's 3 instant dispatches.
    assert_eq!(report.peak_queue, 9);
}

#[test]
fn batch_end_states_are_bit_identical_to_direct_launches() {
    use gspecpal::table::{DeviceTable, TableLayout};
    use gspecpal::throughput::run_stream_parallel;
    use gspecpal_serve::ExecMode;

    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let trace = Trace::from_arrivals(
        (0..9)
            .map(|i| StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(20 + i) })
            .collect(),
    );
    let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 3 }, ..ServeConfig::default() };
    let report = serve(&spec, &[m], &trace, &cfg).unwrap();
    let hot = DeviceTable::hot_rows_for_device(&dfa, TableLayout::Transformed, &spec);
    let table = DeviceTable::transformed(&dfa, hot);
    for b in &report.batches {
        assert_eq!(b.mode, ExecMode::StreamParallel, "comparable streams go stream-parallel");
        let streams: Vec<&[u8]> = trace.arrivals()[b.first_stream..b.first_stream + b.streams]
            .iter()
            .map(|a| a.bytes.as_slice())
            .collect();
        let direct = run_stream_parallel(&spec, &table, &streams);
        assert_eq!(
            &report.end_states[b.first_stream..b.first_stream + b.streams],
            direct.end_states.as_slice(),
            "serve batches must be bit-identical to a direct launch_grid run"
        );
        // The batch's kernel occupies exactly the direct run's cycles.
        assert_eq!(b.compute.end - b.compute.start, direct.stats.cycles);
    }
}

#[test]
fn long_streams_pick_chunk_parallel_execution() {
    use gspecpal_serve::ExecMode;
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    // One long stream alone in its batch: chunked speculation beats a
    // single sequential device thread.
    let long = b"110101".repeat(400);
    let trace = Trace::from_arrivals(vec![StreamArrival {
        arrival_cycle: 0,
        machine: 0,
        bytes: long.clone(),
    }]);
    let report = serve(&spec, &[m], &trace, &ServeConfig::default()).unwrap();
    assert_eq!(report.batches.len(), 1);
    assert_eq!(report.batches[0].mode, ExecMode::ChunkParallel);
    assert_eq!(report.end_states[0], dfa.run(&long));
}

#[test]
fn sfa_chunk_work_factor_routes_wide_machines_to_stream_parallel() {
    use gspecpal::run::SchemeKind;
    use gspecpal::SchemeConfig;
    use gspecpal_serve::ExecMode;

    let spec = DeviceSpec::test_unit();
    let dfa = mod_counter(97, &[0]);
    let bytes = b"110101".repeat(400);
    let trace = || {
        Trace::from_arrivals(vec![StreamArrival {
            arrival_cycle: 0,
            machine: 0,
            bytes: bytes.clone(),
        }])
    };
    // At 32 chunks a per-byte multiplier of 1 makes chunking a clear win…
    let cfg = ServeConfig {
        scheme_config: SchemeConfig { n_chunks: 32, ..SchemeConfig::default() },
        ..ServeConfig::default()
    };
    let naive = ServeMachine::with_scheme(&spec, &dfa, SchemeKind::Naive);
    let report = serve(&spec, &[naive], &trace(), &cfg).unwrap();
    assert_eq!(report.batches[0].mode, ExecMode::ChunkParallel);
    // …but SFA's width-clamped factor (64 for a 97-state machine without a
    // profile) prices the mapping walk at 2× the stream length, so the
    // estimator keeps the batch stream-parallel. Results stay exact.
    let sfa = ServeMachine::with_scheme(&spec, &dfa, SchemeKind::Sfa);
    assert_eq!(sfa.chunk_work_factor(), 64);
    let report = serve(&spec, &[sfa], &trace(), &cfg).unwrap();
    assert_eq!(report.batches[0].mode, ExecMode::StreamParallel);
    assert_eq!(report.end_states[0], dfa.run(&bytes));
}

#[test]
fn chaos_serving_stays_exact_for_served_streams_and_reports_recovery() {
    use gspecpal::FaultPlan;
    use gspecpal::SchemeConfig;
    use gspecpal_serve::StreamOutcome;

    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    // Mix short streams (stream-parallel batches) with long ones
    // (chunk-parallel batches, which exercise the kernel-side fault
    // overlay) so both injection surfaces are hit.
    let mut arrivals: Vec<StreamArrival> = (0..12)
        .map(|i| StreamArrival {
            arrival_cycle: i * 20,
            machine: 0,
            bytes: b"10".repeat(25 + i as usize),
        })
        .collect();
    arrivals.push(StreamArrival { arrival_cycle: 300, machine: 0, bytes: b"110101".repeat(400) });
    let trace = Trace::from_arrivals(arrivals);
    let chaos_cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 3 },
        scheme_config: SchemeConfig {
            faults: Some(FaultPlan { copy_fail_permille: 400, ..FaultPlan::chaos(5, 150) }),
            ..SchemeConfig::default()
        },
        ..ServeConfig::default()
    };
    let report = serve(&spec, std::slice::from_ref(&m), &trace, &chaos_cfg).unwrap();
    // Shedding is a structured outcome: whatever was served is exact.
    let mut served = 0;
    for (i, a) in trace.arrivals().iter().enumerate() {
        if report.outcomes[i] == StreamOutcome::Served {
            served += 1;
            assert_eq!(report.end_states[i], dfa.run(&a.bytes), "served stream {i}");
        }
    }
    assert!(served > 0, "a 15% fault rate with retries must serve most streams");
    // Both report identities hold under full detail: served streams are
    // the `Served` outcomes, and the peak is the largest depth sample.
    assert_eq!(report.served_streams(), served);
    assert_eq!(report.peak_queue, report.queue_depth.iter().map(|&(_, d)| d).max().unwrap());
    assert_eq!(
        report.recovery.shed_streams as usize + served,
        trace.len(),
        "every stream is either served or accounted shed"
    );
    // A 40% copy-fault rate over ~10 copies must retry at least once, and
    // the kernel-side overlay must have charged something on the long
    // chunk-parallel stream.
    assert!(report.recovery.copy_retries > 0, "{:?}", report.recovery);
    assert!(report.recovery.fault_cycles > 0, "{:?}", report.recovery);
    // The engine-busy phase partition survives retries and recovery.
    assert_eq!(report.stats.profile.total_cycles(), report.stats.cycles);
}

#[test]
fn full_copy_failure_trips_the_breaker_and_the_report_says_so() {
    use gspecpal::FaultPlan;
    use gspecpal::SchemeConfig;
    use gspecpal_serve::{ServeRecoveryConfig, StreamOutcome};

    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    // 8 streams in batches of 2 = a multi-batch trace; every copy attempt
    // fails, so every batch exhausts its retries.
    let trace = Trace::from_arrivals(
        (0..8)
            .map(|i| StreamArrival { arrival_cycle: i * 10, machine: 0, bytes: b"10".repeat(20) })
            .collect(),
    );
    let plan = FaultPlan { copy_fail_permille: 1000, ..FaultPlan::default() };
    let cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 2 },
        scheme_config: SchemeConfig { faults: Some(plan), ..SchemeConfig::default() },
        recovery: ServeRecoveryConfig {
            breaker_failure_threshold: 2,
            ..ServeRecoveryConfig::default()
        },
        ..ServeConfig::default()
    };
    let report = serve(&spec, &[m], &trace, &cfg).unwrap();
    assert_eq!(report.recovery.breaker_trips, 1, "{:?}", report.recovery);
    assert_eq!(report.recovery.failed_batches, 2, "two strikes open the breaker");
    // 2 failed batches × (2 retries of the H2D copy) each.
    assert_eq!(report.recovery.copy_retries, 4);
    assert!(report.batches.is_empty(), "no batch ever completed");
    assert_eq!(report.served_streams(), 0);
    assert_eq!(report.recovery.shed_streams, 8, "every stream is shed, none lost");
    assert_eq!(&report.outcomes[..4], &[StreamOutcome::ShedCopyFailure; 4]);
    assert_eq!(&report.outcomes[4..], &[StreamOutcome::ShedBreakerOpen; 4]);
    // No delivered results: the summaries describe the empty served set.
    assert_eq!(report.delivery, gspecpal_serve::LatencySummary::default());
}

#[test]
fn deadline_shedding_drops_overdue_streams_as_structured_outcomes() {
    use gspecpal_serve::{ServeRecoveryConfig, StreamOutcome};

    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    // A burst into a 1-deep queue: every later stream waits on its
    // predecessor's dispatch, blowing through a tight shedding deadline.
    let trace = Trace::from_arrivals(
        (0..6)
            .map(|_| StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(30) })
            .collect(),
    );
    let cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 1 },
        max_queue_depth: 1,
        recovery: ServeRecoveryConfig { shed_wait_cycles: 1, ..ServeRecoveryConfig::default() },
        ..ServeConfig::default()
    };
    let report = serve(&spec, std::slice::from_ref(&m), &trace, &cfg).unwrap();
    let shed = report.outcomes.iter().filter(|o| **o == StreamOutcome::ShedDeadline).count();
    assert!(shed > 0, "the tight deadline must shed overdue streams: {:?}", report.outcomes);
    assert!(report.served_streams() > 0, "the head of the burst is always served");
    assert_eq!(report.recovery.shed_streams as usize, shed);
    for (i, a) in trace.arrivals().iter().enumerate() {
        if report.outcomes[i] == StreamOutcome::Served {
            assert_eq!(report.end_states[i], dfa.run(&a.bytes), "served stream {i}");
        }
    }
    // Without shedding the same squeeze serves everything.
    let patient = ServeConfig { recovery: ServeRecoveryConfig::default(), ..cfg };
    let report = serve(&spec, &[m], &trace, &patient).unwrap();
    assert_eq!(report.served_streams(), 6);
    assert_eq!(report.recovery.shed_streams, 0);
}
