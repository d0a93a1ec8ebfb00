//! Guards on the workload suite's calibration: each tier must keep the
//! structural properties the Fig 8 / Table III shapes depend on. If a
//! workload change breaks one of these, the reproduction's headline numbers
//! drift — these tests catch it before the harness does.

use gspecpal::predict::lookback_queue;
use gspecpal::Selector;
use gspecpal_fsm::profile::unique_states_after;
use gspecpal_workloads::{build_suite, Benchmark, Tier};
use std::sync::OnceLock;

fn suite() -> &'static [Benchmark] {
    static SUITE: OnceLock<Vec<Benchmark>> = OnceLock::new();
    SUITE.get_or_init(|| build_suite(1))
}

const INPUT: usize = 96 * 1024;

/// Spec-k tier: the lookback candidate set at quiet boundaries is within
/// spec-4's reach and the machine does not converge (the counter phases
/// survive).
#[test]
fn spec_k_tier_has_shallow_queues() {
    let selector = Selector;
    for b in suite().iter().filter(|b| b.tier == Tier::SpecKFriendly) {
        let input = b.generate_input(INPUT, 0);
        let p = selector.profile(&b.dfa, &input);
        assert!(
            p.spec4_accuracy >= 0.9,
            "{}: spec-4 accuracy {:.2} too low for the PM-wins regime",
            b.name(),
            p.spec4_accuracy
        );
        assert!(
            !p.convergence.converges_strongly(b.dfa.n_states()),
            "{}: must not converge (the counter keeps its phases)",
            b.name()
        );
    }
}

/// Slow-convergence tier: total convergence after the window length, but a
/// 2-byte lookback leaves several uniform candidates.
#[test]
fn convergence_tier_converges_totally_but_predicts_poorly() {
    for b in suite().iter().filter(|b| b.tier == Tier::SlowConvergence) {
        let input = b.generate_input(INPUT, 0);
        // Any 3 consecutive symbols determine the state completely.
        let uniq = unique_states_after(&b.dfa, &input[100..103]);
        assert_eq!(uniq, 1, "{}: window machines converge after 3 symbols", b.name());
        // 2-byte lookback leaves the oldest window slot free.
        let q = lookback_queue(&b.dfa, &input[200..202]);
        assert!(
            q.initial_len() >= 5,
            "{}: lookback-2 must stay ambiguous ({} candidates)",
            b.name(),
            q.initial_len()
        );
    }
}

/// Non-convergent tier: the counter phases survive any window, and the
/// candidate set depth sits in the register-window regime (> 4, ≤ ~3×16) so
/// aggressive recovery is both necessary and sufficient.
#[test]
fn deep_tier_defeats_lookback_and_forwarding() {
    let selector = Selector;
    for b in suite().iter().filter(|b| b.tier == Tier::NonConvergent) {
        let input = b.generate_input(INPUT, 0);
        let p = selector.profile(&b.dfa, &input);
        assert!(p.spec4_accuracy < 0.9, "{}: spec-4 must miss ({:.2})", b.name(), p.spec4_accuracy);
        assert!(
            !p.convergence.converges_strongly(b.dfa.n_states()),
            "{}: must not converge",
            b.name()
        );
        assert!(
            p.convergence.mean_unique_states >= 5.0,
            "{}: counter phases must survive 10 steps ({:.1})",
            b.name(),
            p.convergence.mean_unique_states
        );
    }
}

/// Input-sensitive tier: per-portion spec-1 accuracy must spread widely
/// (easy regimes pin the counter, hard regimes churn it).
#[test]
fn sensitive_tier_shows_regime_spread() {
    let selector = Selector;
    let mut spreads = Vec::new();
    for b in suite().iter().filter(|b| b.tier == Tier::InputSensitive) {
        let input = b.generate_input(INPUT, 0);
        let p = selector.profile(&b.dfa, &input);
        spreads.push((b.name(), p.accuracy_spread));
    }
    // Most of the tier must clear the tree's sensitivity threshold.
    let cleared = spreads.iter().filter(|(_, s)| *s >= 0.35).count();
    assert!(
        cleared * 4 >= spreads.len() * 3,
        "only {cleared}/{} input-sensitive FSMs show spread: {spreads:?}",
        spreads.len()
    );
}

/// Every benchmark (outside the input-sensitive tier, whose regime
/// generators deliberately emit signature-free streams) fires at least one
/// match on a large-enough stream — the machines are recognizers of
/// something, not noise generators.
#[test]
fn benchmarks_eventually_match() {
    for b in suite().iter().filter(|b| b.tier != Tier::InputSensitive) {
        let input = b.generate_input(INPUT, 1);
        assert!(
            b.dfa.count_matches(&input) > 0,
            "{} never matched in {} KiB",
            b.name(),
            INPUT / 1024
        );
    }
}

/// Tier quotas per family stay as designed (Table II).
#[test]
fn tier_quotas_match_design() {
    use gspecpal_workloads::Family;
    for f in Family::all() {
        let tiers: Vec<Tier> = suite().iter().filter(|b| b.family == f).map(|b| b.tier).collect();
        assert_eq!(tiers.len(), 12, "{f}");
        let count = |t: Tier| tiers.iter().filter(|&&x| x == t).count();
        assert!(count(Tier::SpecKFriendly) >= 2, "{f} needs PM-friendly FSMs");
        assert!(count(Tier::SlowConvergence) >= 1, "{f} needs convergent FSMs");
        assert_eq!(
            count(Tier::InputSensitive),
            f.input_sensitive_quota(),
            "{f} input-sensitive quota"
        );
    }
}
