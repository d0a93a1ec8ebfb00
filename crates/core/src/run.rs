//! Scheme identifiers and run outcomes.

use gspecpal_fsm::StateId;
use gspecpal_gpu::{DeviceSpec, KernelStats, PhaseProfile};

/// The parallelization schemes integrated in GSpecPal, plus reference
/// engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Single-thread reference run (ground truth).
    Sequential,
    /// Algorithm 2: spec-1 + sequential verification and recovery.
    Naive,
    /// Parallel Merge \[19\]: enumerative speculation (spec-k) + tree merge +
    /// delayed sequential recovery. The paper's baseline (spec-4).
    Pm,
    /// Algorithm 3: speculative recovery from predecessor end states \[21\].
    Sre,
    /// Algorithm 4: round-robin aggressive speculative recovery (this
    /// paper).
    Rr,
    /// Algorithm 5: nearest-first aggressive speculative recovery (this
    /// paper).
    Nf,
    /// Simultaneous Finite Automata \[24\] (Sin'ya & Matsuzaki): every chunk
    /// computes its full state→state mapping with converged-path
    /// deduplication, and seams compose mappings instead of states — no
    /// misprediction, no recovery, at up-to-|Q|-fold execution cost.
    Sfa,
}

impl SchemeKind {
    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Sequential => "Seq",
            SchemeKind::Naive => "NaiveSpec",
            SchemeKind::Pm => "PM",
            SchemeKind::Sre => "SRE",
            SchemeKind::Rr => "RR",
            SchemeKind::Nf => "NF",
            SchemeKind::Sfa => "SFA",
        }
    }

    /// The four schemes GSpecPal's selector chooses among (§V-A).
    pub fn gspecpal_schemes() -> [SchemeKind; 4] {
        [SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf]
    }

    /// Every implemented engine.
    pub fn all() -> [SchemeKind; 7] {
        [
            SchemeKind::Sequential,
            SchemeKind::Naive,
            SchemeKind::Pm,
            SchemeKind::Sre,
            SchemeKind::Rr,
            SchemeKind::Nf,
            SchemeKind::Sfa,
        ]
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of running one scheme on one (FSM, input) job.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Which scheme produced this.
    pub scheme: SchemeKind,
    /// Verified end state of the whole input (in the job DFA's numbering).
    pub end_state: StateId,
    /// Accept decision (the output function φ invoked at the end, §II-A).
    pub accepted: bool,
    /// Verified end state of every chunk, in chunk order.
    pub chunk_ends: Vec<StateId>,
    /// Cost of the prediction phase (`C` in Equation 1).
    pub predict: KernelStats,
    /// Cost of the parallel speculative execution phase (`T_par`).
    pub execute: KernelStats,
    /// Cost of verification and recovery (`T_v&r`).
    pub verify: KernelStats,
    /// Number of speculation checks performed during verification.
    pub verification_checks: u64,
    /// How many of those checks found a matching record.
    pub verification_matches: u64,
    /// The verified frontier's position after every verification round —
    /// the observable trajectory of the frontier walk: PM/naive advance one
    /// mismatch at a time, SRE crawls on non-convergent machines, RR/NF
    /// jump through pre-seeded regions. Empty for schemes without a
    /// round-based verification phase (sequential, SFA).
    pub frontier_trace: Vec<u32>,
}

impl RunOutcome {
    /// A one-line textual summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} cycles (C={} exec={} v&r={}), accuracy {:.1}%,              {} recoveries, avg {:.1} threads active in recovery",
            self.scheme,
            self.total_cycles(),
            self.predict.cycles,
            self.execute.cycles,
            self.verify.cycles,
            self.runtime_accuracy() * 100.0,
            self.recovery_runs(),
            self.avg_active_threads_during_recovery(),
        )
    }

    /// Total simulated kernel cycles (Equation 1: `T = C + T_par + T_v&r`).
    pub fn total_cycles(&self) -> u64 {
        self.predict.cycles + self.execute.cycles + self.verify.cycles
    }

    /// Total simulated time in microseconds on `spec`.
    pub fn total_us(&self, spec: &DeviceSpec) -> f64 {
        spec.cycles_to_us(self.total_cycles())
    }

    /// The run's per-[`gspecpal_gpu::Phase`] cost breakdown: the predict,
    /// execute, and verify stage profiles merged sequentially (stages run
    /// back-to-back). Its total cycles equal [`RunOutcome::total_cycles`]
    /// exactly, so the phase split is an exact decomposition of Equation 1's
    /// `T = C + T_par + T_v&r`.
    pub fn phase_profile(&self) -> PhaseProfile {
        let mut profile = self.predict.profile;
        profile.merge_sequential(&self.execute.profile);
        profile.merge_sequential(&self.verify.profile);
        profile
    }

    /// Runtime speculation accuracy as defined for Table III: the frequency
    /// of matches occurring in verification. 100% when no check was ever
    /// needed (perfect speculation).
    pub fn runtime_accuracy(&self) -> f64 {
        if self.verification_checks == 0 {
            1.0
        } else {
            self.verification_matches as f64 / self.verification_checks as f64
        }
    }

    /// Average number of threads active in recovery rounds (Table III).
    pub fn avg_active_threads_during_recovery(&self) -> f64 {
        self.verify.avg_active_threads_during_recovery()
    }

    /// Chunk re-executions performed during verification/recovery.
    pub fn recovery_runs(&self) -> u64 {
        self.verify.recovery_runs
    }

    /// Total retried launches caused by injected faults, summed across the
    /// run's three stages. Zero without a fault plan.
    pub fn fault_retries(&self) -> u64 {
        self.predict.fault_retries + self.execute.fault_retries + self.verify.fault_retries
    }

    /// Total watchdog kills across the run's stages.
    pub fn fault_watchdog_kills(&self) -> u64 {
        self.predict.fault_watchdog_kills
            + self.execute.fault_watchdog_kills
            + self.verify.fault_watchdog_kills
    }

    /// Blocks that exhausted their retry budget (or tripped the
    /// misspeculation ladder) and fell back to a sequential re-exec.
    pub fn fault_degraded_blocks(&self) -> u64 {
        self.predict.fault_degraded_blocks
            + self.execute.fault_degraded_blocks
            + self.verify.fault_degraded_blocks
    }

    /// Cycles lost to fault handling: wasted attempts, backoff waits,
    /// watchdog-killed work and degraded re-execs. Always a subset of the
    /// run's `Phase::Recovery` cycles.
    pub fn fault_cycles(&self) -> u64 {
        self.predict.fault_cycles + self.execute.fault_cycles + self.verify.fault_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            scheme: SchemeKind::Rr,
            end_state: 3,
            accepted: false,
            chunk_ends: vec![1, 2, 3],
            predict: KernelStats { cycles: 10, ..KernelStats::default() },
            execute: KernelStats { cycles: 100, ..KernelStats::default() },
            verify: KernelStats { cycles: 50, ..KernelStats::default() },
            verification_checks: 8,
            verification_matches: 6,
            frontier_trace: vec![1, 3],
        }
    }

    #[test]
    fn totals_follow_equation_1() {
        assert_eq!(outcome().total_cycles(), 160);
    }

    #[test]
    fn accuracy_is_match_frequency() {
        assert!((outcome().runtime_accuracy() - 0.75).abs() < 1e-12);
        let mut o = outcome();
        o.verification_checks = 0;
        o.verification_matches = 0;
        assert_eq!(o.runtime_accuracy(), 1.0);
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let s = outcome().summary();
        assert!(s.contains("RR"));
        assert!(s.contains("160 cycles"));
        assert!(s.contains("75.0%"));
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(SchemeKind::Pm.name(), "PM");
        assert_eq!(SchemeKind::Sre.name(), "SRE");
        assert_eq!(SchemeKind::Rr.name(), "RR");
        assert_eq!(SchemeKind::Nf.name(), "NF");
        assert_eq!(SchemeKind::gspecpal_schemes().len(), 4);
    }
}
