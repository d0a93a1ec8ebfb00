//! End-to-end checks over the synthetic benchmark suite and the framework:
//! exactness for every benchmark, stable behaviour across layouts, and the
//! selector's decisions lining up with the tiers.

use gspecpal::table::TableLayout;
use gspecpal::{GSpecPal, SchemeConfig, SchemeKind, Selector};
use gspecpal_gpu::DeviceSpec;
use gspecpal_workloads::{build_family, build_suite, Family, Tier};
use std::sync::OnceLock;

fn suite() -> &'static [gspecpal_workloads::Benchmark] {
    static SUITE: OnceLock<Vec<gspecpal_workloads::Benchmark>> = OnceLock::new();
    SUITE.get_or_init(|| build_suite(1))
}

fn small_fw() -> GSpecPal {
    GSpecPal::new(DeviceSpec::test_unit())
        .with_config(SchemeConfig { n_chunks: 32, ..SchemeConfig::default() })
}

#[test]
fn every_benchmark_is_exact_under_every_scheme() {
    let fw = small_fw();
    for b in suite() {
        let input = b.generate_input(24 * 1024, 0);
        let truth = b.dfa.run(&input);
        for scheme in SchemeKind::gspecpal_schemes() {
            let o = fw.run_with(&b.dfa, &input, scheme);
            assert_eq!(o.end_state, truth, "{} under {}", b.name(), scheme);
        }
    }
}

#[test]
fn hashed_layout_is_exact_across_the_suite() {
    let fw = small_fw().with_layout(TableLayout::Hashed);
    for b in suite().iter().step_by(5) {
        let input = b.generate_input(16 * 1024, 0);
        let o = fw.run_with(&b.dfa, &input, SchemeKind::Rr);
        assert_eq!(o.end_state, b.dfa.run(&input), "{}", b.name());
    }
}

#[test]
fn selector_tracks_tiers() {
    // On large-enough inputs the decision tree should map tiers to their
    // designed winners (modulo RR/NF near-ties).
    let selector = Selector;
    let mut agreements = 0usize;
    let mut total = 0usize;
    for b in suite() {
        let input = b.generate_input(128 * 1024, 0);
        let profile = selector.profile(&b.dfa, &input);
        let picked = selector.select(&profile);
        let expected: &[SchemeKind] = match b.tier {
            Tier::SpecKFriendly => &[SchemeKind::Pm],
            Tier::SlowConvergence => &[SchemeKind::Sre],
            Tier::NonConvergent => &[SchemeKind::Rr, SchemeKind::Nf],
            Tier::InputSensitive => &[SchemeKind::Nf, SchemeKind::Rr],
        };
        total += 1;
        if expected.contains(&picked) {
            agreements += 1;
        }
    }
    // The paper's coarse tree reaches ~80% on its suite; require a healthy
    // majority here (exact matching is not the point — robustness is).
    assert!(
        agreements * 10 >= total * 8,
        "selector agreed with tier design on only {agreements}/{total}"
    );
}

#[test]
fn framework_report_survives_tiny_inputs() {
    let fw = small_fw();
    for b in build_family(Family::PowerEn, 3).iter().take(3) {
        for len in [1usize, 7, 64, 300] {
            let input = b.generate_input(len, 0);
            let report = fw.process(&b.dfa, &input);
            assert_eq!(report.end_state(), b.dfa.run(&input), "{} len {len}", b.name());
        }
    }
}

#[test]
fn input_variants_are_equivalent_workloads() {
    // Different variants of a benchmark's input exercise the same machine;
    // all schemes stay exact on each variant.
    let fw = small_fw();
    let b = &suite()[5];
    for variant in 0..4u64 {
        let input = b.generate_input(8 * 1024, variant);
        let o = fw.run_with(&b.dfa, &input, SchemeKind::Nf);
        assert_eq!(o.end_state, b.dfa.run(&input), "variant {variant}");
    }
}

#[test]
fn profiles_are_deterministic() {
    let b = &suite()[0];
    let input = b.generate_input(32 * 1024, 0);
    let sel = Selector;
    let p1 = sel.profile(&b.dfa, &input);
    let p2 = sel.profile(&b.dfa, &input);
    assert_eq!(p1.spec1_accuracy, p2.spec1_accuracy);
    assert_eq!(p1.spec4_accuracy, p2.spec4_accuracy);
    assert_eq!(p1.worst_truth_rank, p2.worst_truth_rank);
    assert_eq!(sel.select(&p1), sel.select(&p2));
}

#[test]
fn simulated_costs_are_deterministic() {
    // The whole point of the simulator: bit-for-bit reproducible timing.
    let fw = small_fw();
    let b = &suite()[20];
    let input = b.generate_input(16 * 1024, 0);
    let a = fw.run_with(&b.dfa, &input, SchemeKind::Rr);
    let c = fw.run_with(&b.dfa, &input, SchemeKind::Rr);
    assert_eq!(a.total_cycles(), c.total_cycles());
    assert_eq!(a.verify.rounds, c.verify.rounds);
    assert_eq!(a.verification_matches, c.verification_matches);
}
