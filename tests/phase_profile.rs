//! Phase-level profiling invariants: the per-phase cycle split is an exact
//! partition of every kernel's total cycles under both stitch policies, and
//! the phases the paper argues about (verification, recovery, stitch,
//! predict) are actually visible in the schemes that incur them.

use gspecpal::config::{SchemeConfig, StitchPolicy};
use gspecpal::run::{RunOutcome, SchemeKind};
use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal_fsm::combinators::keyword_dfa;
use gspecpal_fsm::examples::div7;
use gspecpal_gpu::{DeviceSpec, KernelStats, Phase};

fn grid_scale_outcome(kind: SchemeKind, policy: StitchPolicy) -> RunOutcome {
    let d = div7();
    let spec = DeviceSpec::test_unit(); // 64-thread blocks → 200 chunks = blocks
    let table = DeviceTable::transformed(&d, d.n_states());
    let input: Vec<u8> = b"1101010110010111".repeat(60);
    let config = SchemeConfig { n_chunks: 200, stitch: policy, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    run_scheme(kind, &job)
}

fn assert_partition(stage: &str, kind: SchemeKind, stats: &KernelStats) {
    assert_eq!(
        stats.profile.total_cycles(),
        stats.cycles,
        "{kind:?} {stage}: phase cycles must partition the stage cycles exactly"
    );
    let event_sum: u64 = Phase::ALL
        .iter()
        .map(|&p| {
            let c = stats.profile.get(p);
            c.global_transactions + c.shared_accesses + c.alu_ops + c.shuffles + c.atomics
        })
        .sum();
    let flat_sum = stats.global_transactions
        + stats.shared_accesses
        + stats.alu_ops
        + stats.shuffles
        + stats.atomics;
    assert_eq!(event_sum, flat_sum, "{kind:?} {stage}: phase events must partition the counters");
    let round_sum: u64 = Phase::ALL.iter().map(|&p| stats.profile.get(p).rounds).sum();
    assert_eq!(round_sum, stats.rounds, "{kind:?} {stage}: phase rounds must partition the rounds");
}

/// No double-charged and no unattributed cycles, for every scheme, at grid
/// scale, under both stitch policies.
#[test]
fn phase_cycles_partition_totals_for_every_scheme() {
    for policy in [StitchPolicy::Tree, StitchPolicy::Sequential] {
        for kind in SchemeKind::all() {
            let out = grid_scale_outcome(kind, policy);
            assert_partition("predict", kind, &out.predict);
            assert_partition("execute", kind, &out.execute);
            assert_partition("verify", kind, &out.verify);
            assert_eq!(
                out.phase_profile().total_cycles(),
                out.total_cycles(),
                "{kind:?}/{policy:?}: run profile must decompose Equation 1 exactly"
            );
        }
    }
}

/// The costs the paper decomposes are separately visible: VR verification,
/// recovery re-execution, tree-stitch fix-up, prediction, and PM's
/// merge-verification all land in their own buckets.
#[test]
fn paper_cost_centers_are_separately_visible() {
    // div7 defeats speculation, so VR schemes must show genuine recovery
    // cycles next to their verification cycles — and at 200 chunks on
    // 64-thread blocks the block seams make stitch time non-zero.
    let nf = grid_scale_outcome(SchemeKind::Nf, StitchPolicy::Tree);
    let profile = nf.phase_profile();
    assert!(profile.get(Phase::Predict).cycles > 0, "NF runs a prediction phase");
    assert!(profile.get(Phase::SpecExec).cycles > 0, "NF runs speculative execution");
    assert!(profile.get(Phase::Verify).cycles > 0, "NF verification must be visible");
    assert!(profile.get(Phase::Recovery).cycles > 0, "div7 must force recoveries");
    assert!(profile.get(Phase::Stitch).cycles > 0, "block seams must cost stitch time");
    assert_eq!(
        profile.get(Phase::Transfer).cycles,
        0,
        "kernel simulation never charges transfers; only the serving pipeline does"
    );

    // PM: tree merge is verification, its sequential walk is pure recovery.
    let pm = grid_scale_outcome(SchemeKind::Pm, StitchPolicy::Tree);
    let pm_profile = pm.phase_profile();
    assert!(pm_profile.get(Phase::Verify).cycles > 0, "PM's tree merge is verify time");
    assert!(pm_profile.get(Phase::Recovery).cycles > 0, "PM re-executes missed chunks");

    // Sequential scan: everything is speculative execution (one thread, one
    // "speculation" that is trivially right), nothing else.
    let seq = grid_scale_outcome(SchemeKind::Sequential, StitchPolicy::Tree);
    let seq_profile = seq.phase_profile();
    assert_eq!(seq_profile.get(Phase::SpecExec).cycles, seq.total_cycles());
    assert_eq!(seq_profile.get(Phase::Recovery).cycles, 0);

    // A convergent machine over junk input speculates perfectly (every
    // lookback window collapses all states to the root), so recovery stays
    // at zero while verification still costs cycles.
    let d = keyword_dfa(&[b"attack"]).unwrap();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input = vec![b'z'; 1000];
    let config = SchemeConfig { n_chunks: 100, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let out = run_scheme(SchemeKind::Nf, &job);
    let p = out.phase_profile();
    assert!(p.get(Phase::Verify).cycles > 0);
    assert_eq!(out.recovery_runs(), 0, "convergent machine: speculation never misses");
}

/// `Phase::Transfer` is live end to end: a serve run charges real PCIe copy
/// cycles into it, and the merged per-phase cycles still partition the
/// run's total exactly — the same invariant every kernel stage satisfies.
#[test]
fn serve_runs_charge_transfer_cycles_that_still_partition_exactly() {
    use gspecpal_serve::{serve, BatchPolicy, ServeConfig, ServeMachine, StreamArrival, Trace};

    let spec = DeviceSpec::test_unit();
    let d = div7();
    let machine = ServeMachine::prepare(&spec, &d, &b"110100".repeat(128));
    let trace = Trace::from_arrivals(
        (0..10)
            .map(|i| StreamArrival {
                arrival_cycle: i * 7,
                machine: 0,
                bytes: b"10".repeat(30 + i as usize),
            })
            .collect(),
    );
    let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() };
    let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
    let transfer = report.stats.profile.get(Phase::Transfer).cycles;
    assert!(transfer > 0, "serving must put real copy cycles under Phase::Transfer");
    assert_eq!(
        report.stats.profile.total_cycles(),
        report.stats.cycles,
        "serve: phase cycles must partition the merged total exactly"
    );
    let round_sum: u64 = Phase::ALL.iter().map(|&p| report.stats.profile.get(p).rounds).sum();
    assert_eq!(round_sum, report.stats.rounds, "serve: phase rounds must partition the rounds");
    // The transfer bucket holds exactly the H2D + D2H spans of every batch.
    let span_sum: u64 =
        report.batches.iter().map(|b| (b.h2d.end - b.h2d.start) + (b.d2h.end - b.d2h.start)).sum();
    assert_eq!(transfer, span_sum);
}

/// Divergence and utilization metrics behave as the paper describes: the
/// naive walker's one-thread recovery rounds are divergent with utilization
/// near 1/threads, while the embarrassingly parallel exec phase is not.
#[test]
fn divergence_shows_up_in_recovery_not_exec() {
    let out = grid_scale_outcome(SchemeKind::Naive, StitchPolicy::Tree);
    let exec = out.execute.profile.get(Phase::SpecExec);
    assert_eq!(exec.divergent_rounds, 0, "exec rounds keep every thread active");
    assert!((exec.utilization() - 1.0).abs() < 1e-12);
    let profile = out.phase_profile();
    let recovery = profile.get(Phase::Recovery);
    assert!(recovery.rounds > 0, "div7 must force naive recoveries");
    assert_eq!(
        recovery.divergent_rounds, recovery.rounds,
        "naive recovery rounds run one thread against idle peers"
    );
    assert!(recovery.utilization() < 0.1, "one active thread out of a 64-wide block");
}
