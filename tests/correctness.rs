//! The central correctness contract, property-tested: every parallelization
//! scheme produces *exactly* the sequential result — final state, accept
//! decision, and all per-chunk verified end states — for arbitrary machines,
//! inputs, chunk counts, spec-k values, and register budgets.
//!
//! This is the invariant the paper's verification-and-recovery machinery
//! exists to guarantee ("relies on sequential verification and recovery to
//! ensure the correctness", §II-A).

use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal::{SchemeConfig, SchemeKind};
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::DeviceSpec;
use proptest::prelude::*;

fn check_scheme_exact(
    dfa: &Dfa,
    input: &[u8],
    config: SchemeConfig,
    hot_rows: u32,
    scheme: SchemeKind,
) {
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(dfa, hot_rows);
    let job = Job::new(&spec, &table, input, config).expect("valid job");
    let out = run_scheme(scheme, &job);

    // Final state and decision.
    assert_eq!(out.end_state, dfa.run(input), "{scheme}: end state");
    assert_eq!(out.accepted, dfa.is_accepting(dfa.run(input)), "{scheme}: accept");

    // Every verified chunk end equals the true prefix state.
    let mut s = dfa.start();
    for (i, range) in job.chunks().into_iter().enumerate() {
        s = dfa.run_from(s, &input[range]);
        assert_eq!(out.chunk_ends[i], s, "{scheme}: chunk {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schemes_exact_on_random_machines(
        seed in 0u64..10_000,
        n_states in 2u32..40,
        n_classes in 1u16..12,
        input_len in 1usize..2000,
        n_chunks in 1usize..24,
        spec_k in 1usize..6,
        vr_others in 0usize..20,
    ) {
        let dfa = random_dfa(seed, n_states, n_classes);
        let input = random_input(seed.wrapping_add(1), input_len);
        let config = SchemeConfig {
            n_chunks: n_chunks.min(input_len),
            spec_k,
            vr_others_registers: vr_others,
            ..SchemeConfig::default()
        };
        // Hot-row coverage varies from nothing resident to everything.
        let hot = (seed % u64::from(n_states + 1)) as u32;
        for scheme in SchemeKind::all() {
            check_scheme_exact(&dfa, &input, config, hot, scheme);
        }
    }

    #[test]
    fn schemes_exact_with_tiny_register_budgets(
        seed in 0u64..2_000,
        input_len in 32usize..600,
    ) {
        // Degenerate windows: zero cross-thread slots and one own slot force
        // constant record loss — correctness must survive.
        let dfa = random_dfa(seed, 12, 5);
        let input = random_input(seed ^ 7, input_len);
        let config = SchemeConfig {
            n_chunks: 8.min(input_len),
            vr_end_registers: 1,
            vr_others_registers: 0,
            ..SchemeConfig::default()
        };
        for scheme in [SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Pm] {
            check_scheme_exact(&dfa, &input, config, 12, scheme);
        }
    }
}

#[test]
fn schemes_exact_on_single_byte_input() {
    let dfa = random_dfa(77, 9, 4);
    let config = SchemeConfig { n_chunks: 1, ..SchemeConfig::default() };
    for scheme in SchemeKind::all() {
        check_scheme_exact(&dfa, b"x", config, 9, scheme);
    }
}

#[test]
fn schemes_exact_when_chunks_equal_bytes() {
    // Every chunk is exactly one byte: maximal verification pressure.
    let dfa = random_dfa(3, 15, 6);
    let input = random_input(4, 48);
    let config = SchemeConfig { n_chunks: 48, ..SchemeConfig::default() };
    for scheme in SchemeKind::all() {
        check_scheme_exact(&dfa, &input, config, 15, scheme);
    }
}

#[test]
fn schemes_exact_on_identity_machine() {
    // One state: everything is trivially verified.
    let dfa = random_dfa(11, 1, 3);
    let input = random_input(12, 300);
    let config = SchemeConfig { n_chunks: 16, ..SchemeConfig::default() };
    for scheme in SchemeKind::all() {
        check_scheme_exact(&dfa, &input, config, 1, scheme);
    }
}
