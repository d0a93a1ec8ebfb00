//! Integration tests of the paper's qualitative performance claims — the
//! behaviours the figures depend on, asserted end-to-end on the simulator.

use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal::{SchemeConfig, SchemeKind};
use gspecpal_fsm::combinators::sliding_window_dfa;
use gspecpal_fsm::examples::{div7, ones_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::DeviceSpec;
use gspecpal_workloads::inputs::window_text;

fn job_outcome(
    dfa: &Dfa,
    input: &[u8],
    config: SchemeConfig,
    scheme: SchemeKind,
) -> gspecpal::RunOutcome {
    let spec = DeviceSpec::rtx3090();
    let table = DeviceTable::transformed(dfa, dfa.n_states());
    let job = Job::new(&spec, &table, input, config).expect("valid");
    let out = run_scheme(scheme, &job);
    assert_eq!(out.end_state, dfa.run(input), "{scheme} must be exact");
    out
}

/// §II-C / Fig 2-3: PM's spec-k redundancy buys coverage. On a machine whose
/// lookback queue is exactly m deep, spec-m eliminates recovery while spec-1
/// recovers on ~(m-1)/m of the chunks.
#[test]
fn spec_k_coverage_tradeoff() {
    let d = ones_counter(5, &[0]);
    let input: Vec<u8> = b"1011010010".repeat(800);
    let base = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };

    let k1 = job_outcome(&d, &input, SchemeConfig { spec_k: 1, ..base }, SchemeKind::Pm);
    let k5 = job_outcome(&d, &input, SchemeConfig { spec_k: 5, ..base }, SchemeKind::Pm);

    assert!(k1.recovery_runs() > 30, "spec-1 misses most chunks: {}", k1.recovery_runs());
    assert_eq!(k5.recovery_runs(), 0, "spec-5 covers all 5 phases");
    // And the redundancy factor (Fig 3) shows in the execution phase.
    assert!(k5.execute.cycles > 2 * k1.execute.cycles);
    // Net: coverage wins when misses are expensive.
    assert!(k5.total_cycles() < k1.total_cycles());
}

/// §III-A: SRE's forwarded end states fix everything on a fully convergent
/// machine in one speculative wave; on a permutation machine they fix
/// (almost) nothing.
#[test]
fn sre_lives_and_dies_by_convergence() {
    let config = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };

    let window = sliding_window_dfa(b"aeiostn", 3, b"aaa").unwrap();
    let text = window_text(3, 8000, b"aeiostn", 0.9);
    let convergent = job_outcome(&window, &text, config, SchemeKind::Sre);
    assert!(
        convergent.runtime_accuracy() > 0.95,
        "convergent accuracy {}",
        convergent.runtime_accuracy()
    );

    let d = div7();
    let bits: Vec<u8> = b"10110100".repeat(1000);
    let permutation = job_outcome(&d, &bits, config, SchemeKind::Sre);
    assert!(
        permutation.runtime_accuracy() < 0.5,
        "permutation accuracy {}",
        permutation.runtime_accuracy()
    );
    // The sequential frontier walk shows as ~1-2 active threads (Table III).
    assert!(permutation.avg_active_threads_during_recovery() < 8.0);
}

/// §III-B: the aggressive heuristics turn the idle rear threads into
/// coverage — more active threads, higher accuracy, less total time than
/// SRE on a non-convergent machine.
#[test]
fn aggressive_recovery_beats_sre_on_permutation_machines() {
    let d = ones_counter(11, &[0]);
    let input: Vec<u8> = b"1011010010".repeat(1200);
    let config = SchemeConfig { n_chunks: 128, ..SchemeConfig::default() };

    let sre = job_outcome(&d, &input, config, SchemeKind::Sre);
    let rr = job_outcome(&d, &input, config, SchemeKind::Rr);
    let nf = job_outcome(&d, &input, config, SchemeKind::Nf);

    for (name, agg) in [("RR", &rr), ("NF", &nf)] {
        assert!(
            agg.avg_active_threads_during_recovery()
                > 10.0 * sre.avg_active_threads_during_recovery(),
            "{name} active {} vs SRE {}",
            agg.avg_active_threads_during_recovery(),
            sre.avg_active_threads_during_recovery()
        );
        assert!(
            agg.runtime_accuracy() > sre.runtime_accuracy() + 0.3,
            "{name} accuracy {} vs SRE {}",
            agg.runtime_accuracy(),
            sre.runtime_accuracy()
        );
        assert!(
            agg.total_cycles() * 2 < sre.total_cycles(),
            "{name} cycles {} vs SRE {}",
            agg.total_cycles(),
            sre.total_cycles()
        );
    }
}

/// Fig 7's failure mode: starving the `VR_others` register window drops the
/// records that would have verified the frontier, forcing must-be-done
/// recoveries.
#[test]
fn register_starvation_forces_recoveries() {
    let d = ones_counter(11, &[0]);
    let input: Vec<u8> = b"1011010010".repeat(1200);
    let base = SchemeConfig { n_chunks: 128, ..SchemeConfig::default() };

    let starved =
        job_outcome(&d, &input, SchemeConfig { vr_others_registers: 2, ..base }, SchemeKind::Nf);
    let provisioned =
        job_outcome(&d, &input, SchemeConfig { vr_others_registers: 16, ..base }, SchemeKind::Nf);

    assert!(
        starved.runtime_accuracy() < provisioned.runtime_accuracy(),
        "starved {} vs provisioned {}",
        starved.runtime_accuracy(),
        provisioned.runtime_accuracy()
    );
    assert!(starved.total_cycles() > provisioned.total_cycles());
}

/// Equation 1: the phases are disjoint and total time is their sum; the
/// prediction phase is the constant C (independent of input length).
#[test]
fn phase_decomposition_follows_equation_1() {
    let d = div7();
    let config = SchemeConfig { n_chunks: 32, ..SchemeConfig::default() };
    let short: Vec<u8> = b"10110100".repeat(200);
    let long: Vec<u8> = b"10110100".repeat(2000);

    let a = job_outcome(&d, &short, config, SchemeKind::Rr);
    let b = job_outcome(&d, &long, config, SchemeKind::Rr);
    assert_eq!(a.total_cycles(), a.predict.cycles + a.execute.cycles + a.verify.cycles);
    // C is constant; T_par grows with the chunk length.
    assert_eq!(a.predict.cycles, b.predict.cycles);
    assert!(b.execute.cycles > 5 * a.execute.cycles);
}

/// The verification records work across schemes: a chunk verified from a
/// record yields the same end state as a re-execution would (spot-checked by
/// comparing the full chunk_ends of different schemes).
#[test]
fn all_schemes_verify_identical_chunk_ends() {
    let d = ones_counter(7, &[0]);
    let input: Vec<u8> = b"0110101101".repeat(640);
    let config = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };
    let reference = job_outcome(&d, &input, config, SchemeKind::Sequential);
    for scheme in [SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf] {
        let out = job_outcome(&d, &input, config, scheme);
        assert_eq!(out.chunk_ends, reference.chunk_ends, "{scheme}");
    }
}

/// §V-A with the SFA leaf: on the suite's family-C (PowerEN) non-convergent
/// tiers — hundreds of states, uniformly poor speculation, but a live path
/// set narrow enough to keep the full-mapping kernel resident — the
/// selector must pick SFA. That is exactly where mapping composition beats
/// every speculative scheme in the fig. 8 matrix.
#[test]
fn selector_picks_sfa_on_poweren_nonconvergent_tiers() {
    use gspecpal::Selector;
    use gspecpal_workloads::{build_suite, Family, Tier};

    let selector = Selector;
    let suite = build_suite(1);
    let targets: Vec<_> = suite
        .iter()
        .filter(|b| b.family == Family::PowerEn && b.tier == Tier::NonConvergent)
        .collect();
    assert_eq!(targets.len(), 3, "PowerEN tier layout places three non-convergent machines");
    for b in targets {
        let input = b.generate_input(32 * 1024, 0);
        let profile = selector.profile(&b.dfa, &input);
        let (choice, why) = selector.select_explained(&profile);
        assert_eq!(
            choice,
            SchemeKind::Sfa,
            "{}: |Q|={} uniq10={:.1} spread={:.2} — expected the SFA leaf ({why})",
            b.name(),
            b.dfa.n_states(),
            profile.convergence.mean_unique_states,
            profile.accuracy_spread,
        );
        assert!(why.contains("full mapping"), "{}: explanation names the mapping kernel", b.name());
    }
}

/// The SFA leaf must stay a *leaf*, not a default: small convergent machines
/// keep their speculative picks (SFA's |Q|-fold execute work would be pure
/// waste when spec-1 already lands), and the giant Snort non-convergent
/// machines fall through to RR because their tables blow the shared-memory
/// residency the SFA cost model assumes.
#[test]
fn selector_rejects_sfa_outside_its_window() {
    use gspecpal::Selector;
    use gspecpal_workloads::{build_suite, Family, Tier};

    let selector = Selector;

    // Small convergent machine: div7 has 7 states, below the SFA floor.
    let d = div7();
    let input: Vec<u8> = b"1101010110010111".repeat(2048);
    let profile = selector.profile(&d, &input);
    assert_ne!(selector.select(&profile), SchemeKind::Sfa, "7-state machine must not pick SFA");

    // Suite-wide: convergent/spec-k tiers never pick SFA, and neither do the
    // non-convergent Snort giants (thousands of states).
    for b in build_suite(1) {
        let input = b.generate_input(32 * 1024, 0);
        let profile = selector.profile(&b.dfa, &input);
        let choice = selector.select(&profile);
        match b.tier {
            Tier::SpecKFriendly | Tier::SlowConvergence => {
                assert_ne!(
                    choice,
                    SchemeKind::Sfa,
                    "{}: speculation-friendly tiers keep their speculative scheme",
                    b.name()
                );
            }
            Tier::NonConvergent if b.family == Family::Snort => {
                assert_ne!(
                    choice,
                    SchemeKind::Sfa,
                    "{}: {}-state table spills shared memory, SFA must not fire",
                    b.name(),
                    b.dfa.n_states()
                );
            }
            _ => {}
        }
    }
}

/// The selector is a pure function of the training stream: profiling the
/// same benchmark twice yields bit-identical profiles, decisions, and
/// explanations. Deployment relies on this — the scheme choice is made once
/// offline and must reproduce.
#[test]
fn selector_decision_is_deterministic() {
    use gspecpal::Selector;
    use gspecpal_workloads::{build_suite, Family, Tier};

    let selector = Selector;
    let suite = build_suite(1);
    let b = suite
        .iter()
        .find(|b| b.family == Family::PowerEn && b.tier == Tier::NonConvergent)
        .expect("suite has a PowerEN non-convergent machine");
    let input = b.generate_input(32 * 1024, 0);
    let first = selector.profile(&b.dfa, &input);
    let (first_choice, first_why) = selector.select_explained(&first);
    for _ in 0..3 {
        let again = selector.profile(&b.dfa, &input);
        let (choice, why) = selector.select_explained(&again);
        assert_eq!(choice, first_choice, "decision must reproduce");
        assert_eq!(why, first_why, "explanation must reproduce");
        assert_eq!(again.spec1_accuracy, first.spec1_accuracy);
        assert_eq!(again.spec4_accuracy, first.spec4_accuracy);
        assert_eq!(again.accuracy_spread, first.accuracy_spread);
        assert_eq!(again.convergence.mean_unique_states, first.convergence.mean_unique_states);
    }
}
