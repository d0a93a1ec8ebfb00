//! Robustness: no input should ever panic the parser, the determinizer, or
//! the schemes — errors must surface as `Result`s, not crashes.

use gspecpal::config::SchemeConfig;
use gspecpal::error::CoreError;
use gspecpal::run::SchemeKind;
use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::{DeviceTable, TableLayout};
use gspecpal_fsm::examples::div7;
use gspecpal_fsm::nfa::NfaBuilder;
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::subset::determinize;
use gspecpal_gpu::DeviceSpec;
use gspecpal_regex::{compile, parse, CompileConfig};
use gspecpal_serve::{serve, ServeConfig, ServeError, ServeMachine, StreamArrival, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Empty input with chunks requested is a structured error, not a panic
/// deep inside a kernel.
#[test]
fn empty_input_is_rejected_with_a_structured_error() {
    let d = div7();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    for n_chunks in [1, 4, 256] {
        let config = SchemeConfig { n_chunks, ..SchemeConfig::default() };
        let err = Job::new(&spec, &table, b"", config).unwrap_err();
        assert_eq!(err, CoreError::EmptyInput { n_chunks }, "n_chunks={n_chunks}");
    }
}

/// A one-byte input runs through every scheme without panicking and stays
/// exact (n_chunks is forced to 1 by validation, so this is the degenerate
/// single-chunk path).
#[test]
fn one_byte_inputs_run_every_scheme() {
    let d = div7();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    for input in [&b"0"[..], b"1"] {
        let config = SchemeConfig { n_chunks: 1, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, input, config).unwrap();
        for kind in SchemeKind::all() {
            let out = run_scheme(kind, &job);
            assert_eq!(out.end_state, d.run(input), "{kind:?} on {input:?}");
        }
        // More chunks than bytes is the other structured rejection.
        let config = SchemeConfig { n_chunks: 2, ..SchemeConfig::default() };
        assert_eq!(
            Job::new(&spec, &table, input, config).unwrap_err(),
            CoreError::TooManyChunks { n_chunks: 2, input_len: 1 }
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary ASCII never panics the parser (it may error).
    #[test]
    fn parser_never_panics(pattern in "[ -~]{0,24}") {
        let _ = parse(&pattern);
    }

    /// Arbitrary ASCII never panics the full compilation pipeline either;
    /// successful compiles yield machines that can scan arbitrary bytes.
    #[test]
    fn compiler_never_panics(
        pattern in "[ -~]{0,16}",
        probe_seed in 0u64..1000,
    ) {
        let cfg = CompileConfig { state_limit: 10_000, ..Default::default() };
        if let Ok(dfa) = compile(&pattern, cfg) {
            let probe = random_input(probe_seed, 64);
            let _ = dfa.run(&probe);
            let _ = dfa.count_matches(&probe);
        }
    }

    /// Random NFAs determinize into DFAs that agree with direct simulation.
    #[test]
    fn random_nfa_determinizes_faithfully(
        seed in 0u64..5_000,
        n_states in 1u32..12,
        n_edges in 0u32..30,
        n_eps in 0u32..8,
        input_len in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NfaBuilder::new();
        for _ in 0..n_states {
            b.add_state(rng.random_range(0..4u8) == 0);
        }
        for _ in 0..n_edges {
            let from = rng.random_range(0..n_states);
            let to = rng.random_range(0..n_states);
            let lo: u8 = rng.random_range(b'a'..=b'e');
            let hi: u8 = rng.random_range(lo..=b'f');
            b.add_range(from, lo, hi, to);
        }
        for _ in 0..n_eps {
            let from = rng.random_range(0..n_states);
            let to = rng.random_range(0..n_states);
            b.add_epsilon(from, to);
        }
        let nfa = b.build(0);
        let dfa = determinize(&nfa).expect("small NFA fits any budget");
        // Agreement on random probes over the active alphabet.
        let probe: Vec<u8> = (0..input_len)
            .map(|_| rng.random_range(b'a'..=b'g'))
            .collect();
        for end in 0..=probe.len() {
            prop_assert_eq!(
                nfa.accepts(&probe[..end]),
                dfa.accepts(&probe[..end]),
                "prefix length {}", end
            );
        }
    }
}

/// One-thread blocks put every chunk in its own block, so block 0's only
/// chunk is already verified when its verification kernel starts: every
/// scheme runs and stays exact.
#[test]
fn one_thread_blocks_run_every_scheme() {
    let d = div7();
    let input = b"110101101011010110101101".repeat(4);
    let table = DeviceTable::transformed(&d, d.n_states());
    for warp_size in [1, 32] {
        let spec = DeviceSpec { max_threads_per_block: 1, warp_size, ..DeviceSpec::rtx3090() };
        let config = SchemeConfig { n_chunks: 4, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        for kind in SchemeKind::all() {
            assert_eq!(
                run_scheme(kind, &job).end_state,
                d.run(&input),
                "{kind:?}, warp {warp_size}"
            );
        }
    }
}

/// A device spec with some fields replaced by adversarial values: zero,
/// one, small odd numbers, the bounds [`DeviceSpec::validate`] enforces and
/// one past them, and each type's maximum.
fn adversarial_spec(rng: &mut StdRng) -> DeviceSpec {
    const WIDE: [u64; 7] = [0, 1, 3, 32, DeviceSpec::MAX_COST, DeviceSpec::MAX_COST + 1, u64::MAX];
    const NARROW: [u32; 8] = [
        0,
        1,
        3,
        32,
        1024,
        DeviceSpec::MAX_BLOCK_THREADS,
        DeviceSpec::MAX_BLOCK_THREADS + 1,
        u32::MAX,
    ];
    const CLOCKS: [f64; 6] = [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9, 1.5];
    let mut d =
        if rng.random_range(0..2u8) == 0 { DeviceSpec::test_unit() } else { DeviceSpec::rtx3090() };
    let wide = |rng: &mut StdRng| WIDE[rng.random_range(0..WIDE.len())];
    let narrow = |rng: &mut StdRng| NARROW[rng.random_range(0..NARROW.len())];
    for field in 0..21 {
        if rng.random_range(0..8u8) != 0 {
            continue;
        }
        match field {
            0 => d.n_sms = narrow(rng),
            1 => d.cores_per_sm = narrow(rng),
            2 => d.shared_mem_bytes = wide(rng) as usize,
            3 => d.warp_size = narrow(rng),
            4 => d.max_threads_per_block = narrow(rng),
            5 => d.max_threads_per_sm = narrow(rng),
            6 => d.registers_per_sm = narrow(rng),
            7 => d.max_blocks_per_sm = narrow(rng),
            8 => d.shared_latency = wide(rng),
            9 => d.global_latency = wide(rng),
            10 => d.global_segment_bytes = wide(rng),
            11 => d.alu_latency = wide(rng),
            12 => d.shuffle_latency = wide(rng),
            13 => d.barrier_latency = wide(rng),
            14 => d.atomic_latency = wide(rng),
            15 => d.hash_probe_latency = wide(rng),
            16 => d.bandwidth_millicycles_per_txn = wide(rng),
            17 => d.copy_latency_cycles = wide(rng),
            18 => d.copy_millicycles_per_byte = wide(rng),
            19 => d.copy_engines = narrow(rng),
            _ => d.clock_ghz = CLOCKS[rng.random_range(0..CLOCKS.len())],
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Adversarial device specs never panic: `Job::new` and `serve` reject
    /// a spec `DeviceSpec::validate` rejects with that structured error. On
    /// a spec it accepts, a job is refused as unlaunchable or every scheme
    /// runs and stays exact, and `serve` refuses a machine whose scan does
    /// not fit the device or serves every stream.
    #[test]
    fn adversarial_device_specs_never_panic(
        seed in 0u64..1_000_000,
        n_states in 1u32..12,
        input_len in 1usize..300,
        n_chunks in 1usize..17,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = adversarial_spec(&mut rng);
        let d = random_dfa(seed, n_states, 3);
        let input = random_input(seed, input_len);
        let hot = DeviceTable::hot_rows_for_device(&d, TableLayout::Transformed, &spec);
        let table = DeviceTable::transformed(&d, hot);
        let config = SchemeConfig { n_chunks: n_chunks.min(input_len), ..SchemeConfig::default() };
        match (spec.validate(), Job::new(&spec, &table, &input, config)) {
            (Err(e), job) => prop_assert_eq!(job.unwrap_err(), CoreError::InvalidDevice(e)),
            (Ok(()), Err(e)) => {
                prop_assert!(matches!(e, CoreError::Unlaunchable { .. }), "{e}");
            }
            (Ok(()), Ok(job)) => {
                for kind in SchemeKind::all() {
                    prop_assert_eq!(run_scheme(kind, &job).end_state, d.run(&input), "{:?}", kind);
                }
            }
        }
        let machines = [ServeMachine::prepare(&spec, &d, &input)];
        let trace = Trace::from_arrivals(
            (0..3)
                .map(|i| StreamArrival { arrival_cycle: 10 * i, machine: 0, bytes: input.clone() })
                .collect(),
        );
        match (spec.validate(), serve(&spec, &machines, &trace, &ServeConfig::default())) {
            (Err(e), served) => prop_assert_eq!(served.unwrap_err(), ServeError::InvalidDevice(e)),
            (Ok(()), Err(e)) => {
                prop_assert!(matches!(e, ServeError::InvalidConfig { field: "machines", .. }), "{e}");
            }
            (Ok(()), Ok(report)) => prop_assert_eq!(report.served_streams(), 3),
        }
    }
}

/// A zero retry budget means a struck block degrades to its sequential
/// re-exec immediately — no retries, answers still exact.
#[test]
fn zero_retry_budget_degrades_immediately_and_stays_exact() {
    use gspecpal::{FaultPlan, RecoveryConfig};
    let d = div7();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input = random_input(3, 2048);
    let config = SchemeConfig {
        n_chunks: 256,
        faults: Some(FaultPlan { abort_permille: 1000, ..FaultPlan::default() }),
        recovery: RecoveryConfig { max_retries: 0, ..RecoveryConfig::default() },
        ..SchemeConfig::default()
    };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let truth = d.run(&input);
    for kind in [SchemeKind::Naive, SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf]
    {
        let out = run_scheme(kind, &job);
        assert_eq!(out.end_state, truth, "{kind:?}");
        assert_eq!(out.fault_retries(), 0, "{kind:?}: no budget, no retries");
        assert!(out.fault_degraded_blocks() > 0, "{kind:?}: every struck block degrades");
        let profile = out.phase_profile();
        assert_eq!(profile.total_cycles(), out.total_cycles(), "{kind:?}: exact partition");
    }
}

/// A watchdog budget smaller than a single block round kills every attempt;
/// after the retry budget the block degrades — and stays exact.
#[test]
fn watchdog_below_one_round_degrades_every_block_and_stays_exact() {
    use gspecpal::{FaultPlan, RecoveryConfig};
    let d = div7();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input = random_input(4, 2048);
    let config = SchemeConfig {
        n_chunks: 256,
        faults: Some(FaultPlan { watchdog_cycles: 1, ..FaultPlan::default() }),
        recovery: RecoveryConfig { max_retries: 2, ..RecoveryConfig::default() },
        ..SchemeConfig::default()
    };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let truth = d.run(&input);
    for kind in [SchemeKind::Naive, SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf]
    {
        let out = run_scheme(kind, &job);
        assert_eq!(out.end_state, truth, "{kind:?}");
        assert!(out.fault_watchdog_kills() > 0, "{kind:?}: every attempt dies");
        assert!(out.fault_degraded_blocks() > 0, "{kind:?}: budgets exhaust");
        assert_eq!(
            out.fault_watchdog_kills(),
            3 * out.fault_degraded_blocks(),
            "{kind:?}: each degraded block burned initial + 2 retry attempts"
        );
        let profile = out.phase_profile();
        assert_eq!(profile.total_cycles(), out.total_cycles(), "{kind:?}: exact partition");
        assert!(
            profile.get(gspecpal_gpu::Phase::Recovery).cycles >= out.fault_cycles(),
            "{kind:?}: fault overhead lives in Phase::Recovery"
        );
    }
}
