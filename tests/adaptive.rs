//! Deterministic-replay coverage of the online autotuning controller:
//! controller decisions are a pure function of the prior observation
//! stream — bit-identical across reruns, auditable by replaying the
//! exported decision log through a fresh controller, and perturbed by
//! injected faults *only* through the observed counters.

use gspecpal::{FaultPlan, SchemeConfig, SchemeKind, StitchPolicy};
use gspecpal_fsm::examples::{div7, mod_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::DeviceSpec;
use gspecpal_serve::{
    serve, AdaptiveController, BatchObservation, BatchPolicy, ControllerConfig, LaunchChoice,
    ServeConfig, ServeMachine, ServeReport, StreamArrival, Trace,
};
use proptest::prelude::*;

/// A two-machine trace with machine-contiguous arrivals, long enough
/// streams for the chunk-parallel path, and enough batches per machine for
/// the controller to exploit, explore, and re-commit.
fn mixed_trace() -> Trace {
    let mut arrivals = Vec::new();
    let mut clock = 0u64;
    for machine in 0..2usize {
        for j in 0..16usize {
            clock += 40 + (j as u64 * 7919) % 90;
            let len = 400 + (j * 97) % 500;
            arrivals.push(StreamArrival {
                arrival_cycle: clock,
                machine,
                bytes: b"110100".repeat(len / 6 + 1),
            });
        }
    }
    Trace::from_arrivals(arrivals)
}

fn adaptive_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy::Fifo { batch: 4 },
        controller: Some(ControllerConfig::default()),
        ..ServeConfig::default()
    }
}

fn run_adaptive_serve(spec: &DeviceSpec, dfas: [&Dfa; 2], cfg: &ServeConfig) -> ServeReport {
    let training = b"110100".repeat(256);
    let machines = [
        ServeMachine::prepare(spec, dfas[0], &training),
        ServeMachine::prepare(spec, dfas[1], &training),
    ];
    serve(spec, &machines, &mixed_trace(), cfg).unwrap()
}

/// Replays a report's decision log through a fresh controller built from
/// the same config and arm lists; every decision must reproduce exactly.
fn assert_log_replays(
    report: &ServeReport,
    ctrl_cfg: &ControllerConfig,
    arms: Vec<Vec<LaunchChoice>>,
) {
    assert!(!report.decisions.is_empty(), "the run must have decided something");
    assert_eq!(report.decisions_made as usize, report.decisions.len());
    let mut replay = AdaptiveController::new(ctrl_cfg.clone(), arms);
    for rec in &report.decisions {
        let d = replay.decide(rec.machine);
        assert_eq!(d.arm, rec.arm, "batch {} machine {}", rec.batch, rec.machine);
        assert_eq!(d.choice, rec.choice, "batch {}", rec.batch);
        assert_eq!(d.explore, rec.explore, "batch {}", rec.batch);
        replay.observe(rec.machine, rec.arm, &rec.observation);
    }
}

fn machine_arms(spec: &DeviceSpec, dfas: [&Dfa; 2]) -> Vec<Vec<LaunchChoice>> {
    let training = b"110100".repeat(256);
    dfas.iter().map(|d| ServeMachine::prepare(spec, d, &training).arms().to_vec()).collect()
}

#[test]
fn adaptive_decisions_are_bit_identical_across_reruns() {
    let spec = DeviceSpec::test_unit();
    let (d0, d1) = (div7(), mod_counter(5, &[0]));
    let cfg = adaptive_config();
    let baseline = run_adaptive_serve(&spec, [&d0, &d1], &cfg);
    let rerun = run_adaptive_serve(&spec, [&d0, &d1], &cfg);
    assert_eq!(baseline, rerun, "full reports must match bit for bit");
    // The controller actually steered: every batch carries a decision.
    assert_eq!(baseline.decisions_made, baseline.batches.len() as u64);
    // Answers still match host-side reference scans.
    let trace = mixed_trace();
    for (i, a) in trace.arrivals().iter().enumerate() {
        let dfa = if a.machine == 0 { &d0 } else { &d1 };
        assert_eq!(baseline.end_states[i], dfa.run(&a.bytes), "stream {i}");
    }
}

#[test]
fn decision_log_replays_through_a_fresh_controller() {
    let spec = DeviceSpec::test_unit();
    let (d0, d1) = (div7(), mod_counter(5, &[0]));
    let cfg = adaptive_config();
    let report = run_adaptive_serve(&spec, [&d0, &d1], &cfg);
    let ctrl = cfg.controller.as_ref().unwrap();
    assert_log_replays(&report, ctrl, machine_arms(&spec, [&d0, &d1]));
}

#[test]
fn fault_injected_batches_perturb_decisions_only_through_observed_counters() {
    let spec = DeviceSpec::test_unit();
    let (d0, d1) = (div7(), mod_counter(5, &[0]));
    let clean_cfg = adaptive_config();
    let faulted_cfg = ServeConfig {
        scheme_config: SchemeConfig {
            faults: Some(FaultPlan::chaos(23, 150)),
            ..SchemeConfig::default()
        },
        ..clean_cfg.clone()
    };
    // Chaos under the controller is still rerunnable.
    let faulted = run_adaptive_serve(&spec, [&d0, &d1], &faulted_cfg);
    let rerun = run_adaptive_serve(&spec, [&d0, &d1], &faulted_cfg);
    assert_eq!(faulted, rerun, "faulted adaptive runs must not depend on the run");
    // Faults reach the controller only through the recorded observations:
    // a fresh controller fed the faulted observations reproduces the
    // faulted decisions exactly — no hidden fault channel.
    let ctrl = faulted_cfg.controller.as_ref().unwrap();
    assert_log_replays(&faulted, ctrl, machine_arms(&spec, [&d0, &d1]));
    // And the injected faults did change what the controller saw (they
    // showed up in the counters, the only place they are allowed to).
    let clean = run_adaptive_serve(&spec, [&d0, &d1], &clean_cfg);
    let clean_costs: Vec<u64> =
        clean.decisions.iter().map(|d| d.observation.compute_cycles).collect();
    let faulted_costs: Vec<u64> =
        faulted.decisions.iter().map(|d| d.observation.compute_cycles).collect();
    assert_ne!(clean_costs, faulted_costs, "a 15% fault rate must move observed costs");
    // Answers survive the chaos regardless of what the controller picked.
    let trace = mixed_trace();
    for (i, a) in trace.arrivals().iter().enumerate() {
        let dfa = if a.machine == 0 { &d0 } else { &d1 };
        assert_eq!(faulted.end_states[i], dfa.run(&a.bytes), "stream {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The controller is a pure fold: for any observation stream, a fresh
    // controller fed the same stream makes the identical decisions.
    #[test]
    fn controller_decisions_are_a_pure_function_of_prior_outcomes(
        window in 1usize..6,
        period in 1u64..6,
        cutoff in 1500u64..5000,
        costs in prop::collection::vec(1u64..20_000, 1..60),
    ) {
        let cfg = ControllerConfig {
            window,
            explore_period: period,
            explore_cutoff_permille: cutoff,
            max_decisions: 4096,
        };
        let arms: Vec<LaunchChoice> = [
            (SchemeKind::Pm, 4, 1200),
            (SchemeKind::Sre, 4, 1400),
            (SchemeKind::Rr, 4, 1900),
            (SchemeKind::Nf, 4, 2600),
        ]
        .iter()
        .map(|&(scheme, spec_k, predicted_millicost)| LaunchChoice {
            scheme,
            spec_k,
            stitch: StitchPolicy::Tree,
            predicted_millicost,
        })
        .collect();
        let mut live = AdaptiveController::new(cfg.clone(), vec![arms.clone()]);
        let mut log = Vec::new();
        for (i, &cost) in costs.iter().enumerate() {
            let d = live.decide(0);
            let obs = BatchObservation {
                bytes: 1000 + i as u64,
                compute_cycles: cost.saturating_mul(1000 + i as u64) / 1000,
                ..BatchObservation::default()
            };
            live.observe(0, d.arm, &obs);
            log.push((d, obs));
        }
        let mut replay = AdaptiveController::new(cfg, vec![arms]);
        for (d, obs) in &log {
            let r = replay.decide(0);
            assert_eq!(&r, d, "replay diverged");
            replay.observe(0, r.arm, obs);
        }
    }
}
