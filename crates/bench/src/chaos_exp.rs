//! The `chaos` experiment: recovery overhead of the fault-injection
//! subsystem at a realistic (~1%) fault rate.
//!
//! Every speculation scheme runs the same workload twice — once fault-free,
//! once under a seeded [`FaultPlan`] injecting transient block aborts,
//! verify-phase aborts, and speculative-state corruption — and the report
//! compares the two: the faulted run must return bit-identical answers, and
//! the extra cycles (retries, backoff waits, watchdog re-execs, degraded
//! sequential re-execs) are the price of surviving the faults. The perf
//! gate watches the summed faulted totals, so a change that makes recovery
//! more expensive (or accidentally re-runs work it should not) trips CI.

use gspecpal::run::SchemeKind;
use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::{DeviceTable, TableLayout};
use gspecpal::{FaultPlan, SchemeConfig};
use gspecpal_fsm::{FrequencyProfile, TransformedDfa};
use gspecpal_gpu::PhaseProfile;
use gspecpal_regex::{compile_set, CompileConfig};
use gspecpal_workloads::inputs;

use crate::experiments::ExperimentConfig;

/// Fault rate the experiment injects, in permille (10‰ = 1%).
pub const CHAOS_FAULT_PERMILLE: u32 = 10;

/// Independent fault plans each scheme runs under. A 1% rate over a single
/// small grid hits almost nothing; sweeping several seeded plans gives the
/// rate a real sample space while keeping every individual run at the
/// realistic rate.
pub const CHAOS_PLANS: u64 = 32;

/// One scheme's fault-free / faulted aggregate over the plan sweep.
#[derive(Clone, Debug)]
pub struct ChaosRunSummary {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Total cycles of the fault-free run, times [`CHAOS_PLANS`] (so it is
    /// directly comparable to `faulted_cycles`).
    pub clean_cycles: u64,
    /// Summed total cycles of the faulted runs (≥ `clean_cycles` for
    /// abort-only plans; corruption can shift the verification path, so the
    /// experiment keeps corruption in the plan and reports the measured
    /// delta rather than asserting monotonicity).
    pub faulted_cycles: u64,
    /// Merged phase breakdown of the faulted runs (`Recovery` carries the
    /// fault handling on top of ordinary misspeculation re-execution).
    pub faulted_profile: PhaseProfile,
    /// Block launches retried after an injected abort.
    pub block_retries: u64,
    /// Blocks killed by the watchdog budget.
    pub watchdog_kills: u64,
    /// Blocks that exhausted their retry budget and degraded to a
    /// sequential re-exec.
    pub degraded_blocks: u64,
    /// Cycles attributable to fault handling (wasted attempts, backoff,
    /// degraded re-execs) — a subset of the `Recovery` phase.
    pub fault_cycles: u64,
    /// Recovery overhead in permille of the clean total:
    /// `(faulted - clean) * 1000 / clean` (saturating at zero when the
    /// faulted run is cheaper, which corruption permits).
    pub overhead_permille: u64,
}

/// The full chaos experiment: one fault-free/faulted pair per scheme.
#[derive(Clone, Debug)]
pub struct ChaosExperimentReport {
    /// Injected fault rate in permille.
    pub fault_permille: u32,
    /// Input bytes scanned per run.
    pub input_bytes: u64,
    /// All pairs, in [`SchemeKind::gspecpal_schemes`] order.
    pub runs: Vec<ChaosRunSummary>,
}

impl ChaosExperimentReport {
    /// Headline total the perf gate watches: the summed total cycles of
    /// every *faulted* run, so regressions in recovery cost are caught
    /// even when fault-free cost is unchanged.
    pub fn total_faulted_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.faulted_cycles).sum()
    }

    /// Summed fault-free totals, for the overhead headline.
    pub fn total_clean_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.clean_cycles).sum()
    }
}

/// Runs the chaos experiment: a rule-set machine over a seeded network
/// trace, every GSpecPal scheme fault-free and under [`CHAOS_PLANS`]
/// seeded [`FaultPlan::chaos`]`(…, 10)` plans, answers cross-checked bit
/// for bit against the fault-free run for every plan.
pub fn run_chaos(cfg: &ExperimentConfig) -> ChaosExperimentReport {
    let rules = ["attack[0-9]*", "GET /admin", "exploit"];
    let dfa = compile_set(&rules, CompileConfig::default()).expect("rules compile");
    let spice: Vec<Vec<u8>> = vec![b"attack7".to_vec(), b"exploit".to_vec()];
    let input = inputs::network_trace(cfg.seed, cfg.input_len, &spice);

    let training_len = (cfg.input_len / 16).clamp(512, input.len());
    let freq = FrequencyProfile::collect(&dfa, &input[..training_len]);
    let transformed = TransformedDfa::from_profile(&dfa, &freq);
    let hot =
        DeviceTable::hot_rows_for_device(transformed.dfa(), TableLayout::Transformed, &cfg.device);
    let table = DeviceTable::transformed(transformed.dfa(), hot);

    // Fault rolls are per block launch, so the 1% rate is only observable
    // on a grid with a realistic block count: floor the chunk count at 512
    // regardless of the (often tiny) perf-gate configuration.
    let n_chunks = cfg.n_chunks.max(512).min(input.len().max(1));
    let clean_config = SchemeConfig { n_chunks, ..cfg.scheme_config() };
    let clean_job = Job::new(&cfg.device, &table, &input, clean_config).expect("valid job");
    // Seeds are splitmix-spread so neighbouring plans share no fault rolls.
    let plans: Vec<FaultPlan> = (0..CHAOS_PLANS)
        .map(|s| {
            let seed = (cfg.seed ^ s).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(s);
            FaultPlan::chaos(seed, CHAOS_FAULT_PERMILLE)
        })
        .collect();

    let runs = SchemeKind::gspecpal_schemes()
        .iter()
        .map(|&scheme| {
            let clean = run_scheme(scheme, &clean_job);
            let mut summary = ChaosRunSummary {
                scheme,
                clean_cycles: clean.total_cycles() * CHAOS_PLANS,
                faulted_cycles: 0,
                faulted_profile: PhaseProfile::default(),
                block_retries: 0,
                watchdog_kills: 0,
                degraded_blocks: 0,
                fault_cycles: 0,
                overhead_permille: 0,
            };
            for plan in &plans {
                let chaos_config = SchemeConfig { faults: Some(*plan), ..clean_config };
                let chaos_job =
                    Job::new(&cfg.device, &table, &input, chaos_config).expect("valid job");
                let faulted = run_scheme(scheme, &chaos_job);
                assert_eq!(
                    faulted.end_state, clean.end_state,
                    "{scheme:?}: faults must not change answers"
                );
                assert_eq!(faulted.chunk_ends, clean.chunk_ends, "{scheme:?}: chunk ends drifted");
                summary.faulted_cycles += faulted.total_cycles();
                summary.faulted_profile.merge_sequential(&faulted.phase_profile());
                summary.block_retries += faulted.fault_retries();
                summary.watchdog_kills += faulted.fault_watchdog_kills();
                summary.degraded_blocks += faulted.fault_degraded_blocks();
                summary.fault_cycles += faulted.fault_cycles();
            }
            summary.overhead_permille = summary.faulted_cycles.saturating_sub(summary.clean_cycles)
                * 1000
                / summary.clean_cycles.max(1);
            summary
        })
        .collect();

    ChaosExperimentReport {
        fault_permille: CHAOS_FAULT_PERMILLE,
        input_bytes: input.len() as u64,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { input_len: 16 * 1024, n_chunks: 64, ..Default::default() }
    }

    #[test]
    fn chaos_experiment_is_deterministic_and_injects_faults() {
        let cfg = small_cfg();
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.total_faulted_cycles(), b.total_faulted_cycles());
        assert_eq!(a.runs.len(), 4);
        assert!(
            a.runs.iter().any(|r| r.block_retries + r.degraded_blocks > 0),
            "the plan sweep must hit at least one block"
        );
        assert!(
            a.total_faulted_cycles() > a.total_clean_cycles(),
            "surviving injected faults must cost something overall"
        );
        for r in &a.runs {
            assert_eq!(
                r.faulted_profile.total_cycles(),
                r.faulted_cycles,
                "{:?}: partition holds under faults",
                r.scheme
            );
        }
    }
}
