//! Randomized differential harness: every scheme, under both stitch
//! policies, must agree bit-for-bit with the sequential reference — end
//! state, accept decision and per-chunk end states — over
//! random machines, random and adversarial inputs, and chunk counts from a
//! single chunk up to dozens of thread blocks.
//!
//! The generated machines span the whole structural range (permutation-ish
//! machines that defeat speculation, convergent machines that reward it,
//! and everything between), so this is the lockdown for the occupancy-sized
//! grid launches and the parallel tree stitch: any seam the stitch composes
//! or re-resolves incorrectly shows up as a chunk-end mismatch.

use gspecpal::config::{SchemeConfig, StitchPolicy};
use gspecpal::run::SchemeKind;
use gspecpal::schemes::{compose_mappings, run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal::{FaultPlan, RecoveryConfig};
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::{Dfa, FrequencyProfile};
use gspecpal_gpu::DeviceSpec;
use proptest::prelude::*;

/// Runs every scheme under both stitch policies against the sequential
/// reference (and the host-side DFA walk, which never touches the
/// simulator) on the given table.
fn check_all(d: &Dfa, table: &DeviceTable<'_>, input: &[u8], n_chunks: usize, spec: &DeviceSpec) {
    let truth_end = d.run(input);
    for policy in [StitchPolicy::Sequential, StitchPolicy::Tree] {
        let config = SchemeConfig { n_chunks, stitch: policy, ..SchemeConfig::default() };
        let job = Job::new(spec, table, input, config).unwrap();
        let reference = run_scheme(SchemeKind::Sequential, &job);
        assert_eq!(reference.end_state, truth_end, "sequential reference must match the DFA");
        for kind in SchemeKind::all() {
            let out = run_scheme(kind, &job);
            let ctx = format!("{kind:?} / {policy:?} / n_chunks={n_chunks}");
            assert_eq!(out.end_state, reference.end_state, "end state: {ctx}");
            assert_eq!(out.accepted, reference.accepted, "accept bit: {ctx}");
            assert_eq!(out.chunk_ends, reference.chunk_ends, "chunk ends: {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn schemes_match_sequential_reference(
        seed in 0u64..1_000_000,
        n_states in 2u32..24,
        n_classes in 1u16..8,
        len in 64usize..512,
        adversarial in 0u8..2,
    ) {
        let d = random_dfa(seed, n_states, n_classes);
        let input: Vec<u8> = if adversarial == 1 {
            // Periodic input: a short random pattern repeated. Every chunk
            // then sees near-identical content, the worst case for
            // speculation diversity (all queues rank the same states).
            let pat = random_input(seed ^ 0xDEAD, 7);
            pat.iter().copied().cycle().take(len).collect()
        } else {
            random_input(seed, len)
        };
        let table = DeviceTable::transformed(&d, d.n_states());
        let spec = DeviceSpec::test_unit();
        // From one chunk through several thread blocks (the test device fits
        // ~24 verification chunks per block).
        for n_chunks in [1usize, 2, 7, 31, 64, 150] {
            check_all(&d, &table, &input, n_chunks.min(input.len()), &spec);
        }
    }
}

/// Chaos leg: every scheme under both stitch policies with a seeded fault
/// plan must still agree bit-for-bit with the sequential reference — faults
/// only ever add cycles (charged to `Phase::Recovery`), never change
/// answers — and the per-phase cycle split must stay an exact partition of
/// the total.
fn check_all_chaos(
    d: &Dfa,
    table: &DeviceTable<'_>,
    input: &[u8],
    n_chunks: usize,
    spec: &DeviceSpec,
    plan: FaultPlan,
    recovery: RecoveryConfig,
) {
    let truth_end = d.run(input);
    for policy in [StitchPolicy::Sequential, StitchPolicy::Tree] {
        let clean_config = SchemeConfig { n_chunks, stitch: policy, ..SchemeConfig::default() };
        let chaos_config = SchemeConfig { faults: Some(plan), recovery, ..clean_config };
        let clean_job = Job::new(spec, table, input, clean_config).unwrap();
        let chaos_job = Job::new(spec, table, input, chaos_config).unwrap();
        let reference = run_scheme(SchemeKind::Sequential, &clean_job);
        assert_eq!(reference.end_state, truth_end);
        for kind in SchemeKind::all() {
            let clean = run_scheme(kind, &clean_job);
            let out = run_scheme(kind, &chaos_job);
            let ctx = format!("{kind:?} / {policy:?} / n_chunks={n_chunks} / {plan:?}");
            assert_eq!(out.end_state, reference.end_state, "end state: {ctx}");
            assert_eq!(out.accepted, reference.accepted, "accept bit: {ctx}");
            assert_eq!(out.chunk_ends, reference.chunk_ends, "chunk ends: {ctx}");
            // Aborts/watchdogs only ever add cycles. Corruption can shift
            // the verification path itself (a skewed block incoming may by
            // luck match where the clean one missed), so the monotonicity
            // claim only holds for non-corrupting plans.
            if plan.corrupt_permille == 0 {
                assert!(
                    out.total_cycles() >= clean.total_cycles(),
                    "faults only add cycles: {ctx} ({} < {})",
                    out.total_cycles(),
                    clean.total_cycles(),
                );
            }
            let profile = out.phase_profile();
            assert_eq!(
                profile.total_cycles(),
                out.total_cycles(),
                "phase cycles must partition the total exactly: {ctx}"
            );
            assert!(
                profile.get(gspecpal_gpu::Phase::Recovery).cycles >= out.fault_cycles(),
                "fault overhead is charged inside Phase::Recovery: {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn schemes_survive_random_fault_plans(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n_states in 2u32..16,
        n_classes in 1u16..6,
        len in 64usize..384,
        rate in prop_oneof![Just(10u32), Just(100u32), Just(500u32)],
        watchdog in prop_oneof![Just(0u64), Just(1u64), Just(50_000u64)],
        max_retries in 0u32..4,
    ) {
        let d = random_dfa(seed, n_states, n_classes);
        let input = random_input(seed, len);
        let table = DeviceTable::transformed(&d, d.n_states());
        let spec = DeviceSpec::test_unit();
        let plan = FaultPlan { watchdog_cycles: watchdog, ..FaultPlan::chaos(fault_seed, rate) };
        let recovery = RecoveryConfig { max_retries, ..RecoveryConfig::default() };
        for n_chunks in [1usize, 7, 64, 150] {
            check_all_chaos(&d, &table, &input, n_chunks.min(input.len()), &spec, plan, recovery);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// SFA's tree stitch composes chunk mappings in log2(B) order instead of
    /// left-to-right, which is only legal because mapping composition is
    /// function composition and therefore associative. Pin that down on
    /// random mappings directly, independent of any engine run.
    #[test]
    fn mapping_composition_is_associative(
        n_states in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        // Three random (not necessarily injective) mappings over the same
        // state space, derived from a splitmix-style scramble of the seed.
        let mapping = |salt: u64| -> Vec<u32> {
            (0..n_states)
                .map(|q| {
                    let mut x = seed ^ salt ^ (q as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    x ^= x >> 27;
                    (x % n_states as u64) as u32
                })
                .collect()
        };
        let (a, b, c) = (mapping(1), mapping(2), mapping(3));
        let left = compose_mappings(&compose_mappings(&a, &b), &c);
        let right = compose_mappings(&a, &compose_mappings(&b, &c));
        prop_assert_eq!(left, right);
        // Identity is a unit on both sides.
        let id: Vec<u32> = (0..n_states as u32).collect();
        prop_assert_eq!(compose_mappings(&id, &a), a.clone());
        prop_assert_eq!(compose_mappings(&a, &id), a);
    }
}

/// Deterministic large-grid leg of the harness: ≥64 thread blocks, both
/// stitch paths, every scheme bit-exact against the sequential reference.
#[test]
fn all_schemes_exact_at_64_plus_blocks() {
    let spec = DeviceSpec::test_unit();
    let d = random_dfa(7, 12, 5);
    let input = random_input(7, 8192);
    let table = DeviceTable::transformed(&d, d.n_states());
    let n_chunks = 2048;
    let config = SchemeConfig { n_chunks, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    assert!(
        job.vr_dims(n_chunks).len() >= 64,
        "scenario must span at least 64 blocks, got {}",
        job.vr_dims(n_chunks).len()
    );
    check_all(&d, &table, &input, n_chunks, &spec);
}

/// The hashed table layout goes through the same stitch machinery; a
/// multi-block run must stay exact there too.
#[test]
fn hashed_layout_exact_across_blocks() {
    let spec = DeviceSpec::test_unit();
    let d = random_dfa(11, 16, 6);
    let input = random_input(11, 2000);
    let profile = FrequencyProfile::collect(&d, &input[..500]);
    let table = DeviceTable::hashed(&d, &profile, d.n_states() / 2);
    check_all(&d, &table, &input, 96, &spec);
}
