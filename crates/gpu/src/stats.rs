//! Kernel execution statistics.

/// The algorithmic phase a barrier-delimited round belongs to.
///
/// This is the paper's cost taxonomy (§III, Equation 1 and the §III-C
/// redundancy/recovery analysis) lifted into the simulator: every round a
/// kernel executes is attributed to exactly one phase via
/// [`crate::kernel::RoundKernel::phase`], so the per-phase cycle split always
/// sums to the kernel's total cycles. The bench layer reports these splits in
/// the machine-readable perf dumps CI tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Start-state prediction (the constant `C` of Equation 1: the all-state
    /// lookback walk and queue ranking).
    Predict,
    /// Speculative chunk execution (`T_par`): spec-1/spec-k forward scans,
    /// SFA's mapping walks and plain stream scans.
    SpecExec,
    /// Verification: record scans, end-state communication, tree-merge and
    /// compose rounds — everything that *checks* speculation without
    /// re-executing input.
    Verify,
    /// Recovery: chunk re-execution after a failed speculation check (the
    /// must-be-done and speculative recoveries of Algorithms 3-5, and PM's
    /// delayed sequential walk).
    Recovery,
    /// Block-seam stitching: the grid-level seam checks and cluster fix-ups
    /// of the boundary stitch.
    Stitch,
    /// Host↔device transfers: PCIe copies of batch inputs and results,
    /// charged by [`crate::transfer::transfer_stats`]. Kernel simulation
    /// never touches this bucket — it is populated when a serving pipeline
    /// merges copy costs into a run's stats (see `gspecpal-serve`).
    Transfer,
}

impl Phase {
    /// Every phase, in canonical report order.
    pub const ALL: [Phase; 6] = [
        Phase::Predict,
        Phase::SpecExec,
        Phase::Verify,
        Phase::Recovery,
        Phase::Stitch,
        Phase::Transfer,
    ];

    /// Position of this phase in [`Phase::ALL`] (and in a
    /// [`PhaseProfile`]'s counter array).
    pub fn index(self) -> usize {
        match self {
            Phase::Predict => 0,
            Phase::SpecExec => 1,
            Phase::Verify => 2,
            Phase::Recovery => 3,
            Phase::Stitch => 4,
            Phase::Transfer => 5,
        }
    }

    /// Stable snake_case name used as the key in perf-report JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Predict => "predict",
            Phase::SpecExec => "spec_exec",
            Phase::Verify => "verify",
            Phase::Recovery => "recovery",
            Phase::Stitch => "stitch",
            Phase::Transfer => "transfer",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters accumulated for one [`Phase`] of a kernel.
///
/// `cycles` partitions the kernel's wall time (round durations, barrier and
/// bandwidth roofline included); the event counters partition the flat
/// [`KernelStats`] counters; the round counters feed divergence and
/// utilization metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Wall cycles of rounds attributed to this phase.
    pub cycles: u64,
    /// Rounds attributed to this phase.
    pub rounds: u64,
    /// Global-memory transactions issued in this phase (after coalescing).
    pub global_transactions: u64,
    /// Global accesses absorbed by warp coalescing/broadcast in this phase.
    pub global_coalesced_hits: u64,
    /// Shared-memory accesses (including hash probes) in this phase.
    pub shared_accesses: u64,
    /// ALU operations in this phase.
    pub alu_ops: u64,
    /// Warp shuffles in this phase.
    pub shuffles: u64,
    /// Atomic operations in this phase.
    pub atomics: u64,
    /// Rounds in which some but not all of the block's threads were active —
    /// chunk-granularity branch divergence, the round-time killer of §III.
    pub divergent_rounds: u64,
    /// Sum over this phase's rounds of the active-thread count.
    pub active_thread_rounds: u64,
    /// Sum over this phase's rounds of the launched-thread count (the
    /// denominator of [`PhaseCounters::utilization`]).
    pub thread_rounds: u64,
}

impl PhaseCounters {
    /// Achieved thread utilization: active thread-rounds over launched
    /// thread-rounds (0.0 when the phase never ran).
    pub fn utilization(&self) -> f64 {
        if self.thread_rounds == 0 {
            0.0
        } else {
            self.active_thread_rounds as f64 / self.thread_rounds as f64
        }
    }

    /// Fraction of global accesses served by warp coalescing/broadcast
    /// rather than a fresh transaction (0.0 when no global access happened).
    pub fn coalesced_fraction(&self) -> f64 {
        let total = self.global_transactions + self.global_coalesced_hits;
        if total == 0 {
            0.0
        } else {
            self.global_coalesced_hits as f64 / total as f64
        }
    }

    /// Adds `other`'s event and round counters (everything except `cycles`).
    fn add_events(&mut self, other: &PhaseCounters) {
        self.rounds += other.rounds;
        self.global_transactions += other.global_transactions;
        self.global_coalesced_hits += other.global_coalesced_hits;
        self.shared_accesses += other.shared_accesses;
        self.alu_ops += other.alu_ops;
        self.shuffles += other.shuffles;
        self.atomics += other.atomics;
        self.divergent_rounds += other.divergent_rounds;
        self.active_thread_rounds += other.active_thread_rounds;
        self.thread_rounds += other.thread_rounds;
    }
}

/// Per-phase breakdown of a kernel's cost, one [`PhaseCounters`] per
/// [`Phase`].
///
/// Invariant maintained by every launcher and merge in this crate: the
/// per-phase `cycles` sum to the owning [`KernelStats::cycles`] exactly — no
/// double-charged and no unattributed cycles. Merging follows the same
/// semantics as the flat stats: [`PhaseProfile::absorb_block`] treats two
/// profiles as concurrent blocks (event counters sum, cycles are the grid
/// scheduler's job), [`PhaseProfile::merge_sequential`] as back-to-back
/// kernels (everything sums).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    counters: [PhaseCounters; 6],
}

impl PhaseProfile {
    /// The counters of `phase`.
    pub fn get(&self, phase: Phase) -> &PhaseCounters {
        &self.counters[phase.index()]
    }

    /// Mutable counters of `phase`.
    pub fn get_mut(&mut self, phase: Phase) -> &mut PhaseCounters {
        &mut self.counters[phase.index()]
    }

    /// Iterates phases with their counters, in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseCounters)> {
        Phase::ALL.iter().copied().zip(self.counters.iter())
    }

    /// Sum of the per-phase cycles — equal to the owning
    /// [`KernelStats::cycles`] by the profile invariant.
    pub fn total_cycles(&self) -> u64 {
        self.counters.iter().map(|c| c.cycles).sum()
    }

    /// Merges `other` as a concurrent block: event and round counters sum,
    /// per-phase cycles are left untouched (concurrent blocks do not
    /// serialize — the grid merge attributes wave time separately, see
    /// [`PhaseProfile::absorb_cycles`]).
    pub fn absorb_block(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            mine.add_events(theirs);
        }
    }

    /// Adds only `other`'s per-phase cycles. The grid merge calls this with
    /// the profile of each wave's gating (slowest) block, so the wave-model
    /// completion time keeps an exact per-phase attribution.
    pub fn absorb_cycles(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            mine.cycles += theirs.cycles;
        }
    }

    /// Merges `other` as a back-to-back kernel: everything sums.
    pub fn merge_sequential(&mut self, other: &PhaseProfile) {
        self.absorb_cycles(other);
        self.absorb_block(other);
    }
}

/// How the grid scheduler shaped a launch: what the occupancy calculator
/// allowed per SM and how many waves the grid took. Attached to the merged
/// stats of every grid launch so benches (and `RunOutcome`) can see the
/// occupancy a kernel actually achieved — a shared-memory-heavy shape shows
/// up as fewer resident blocks and more waves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchShape {
    /// Resident blocks per SM from [`crate::occupancy::max_resident_blocks`].
    pub resident_per_sm: u32,
    /// Blocks scheduled per wave (`resident_per_sm × n_sms`).
    pub blocks_per_wave: u32,
    /// Waves the grid needed.
    pub waves: u32,
}

/// Counters collected while a kernel runs.
///
/// `cycles` is the kernel's simulated execution time: the maximum per-thread
/// clock after the final barrier, which is what a CUDA event pair around the
/// kernel launch would measure (§V-A reports GPU kernel time from CUDA
/// events).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Simulated kernel time in cycles.
    pub cycles: u64,
    /// Number of barrier-delimited rounds executed.
    pub rounds: u64,
    /// Global-memory transactions issued (after coalescing).
    pub global_transactions: u64,
    /// Global accesses that were absorbed by coalescing/broadcast within a
    /// warp (no new transaction needed).
    pub global_coalesced_hits: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// ALU operations.
    pub alu_ops: u64,
    /// Warp shuffles / explicit thread communications.
    pub shuffles: u64,
    /// Atomic operations.
    pub atomics: u64,
    /// Per-round count of threads that reported doing work.
    pub active_per_round: Vec<u32>,
    /// Per-round count of threads that reported doing *recovery* work
    /// (re-executing a chunk). Feeds Table III.
    pub recovering_per_round: Vec<u32>,
    /// Wall-clock duration of each round in cycles (including the
    /// memory-bandwidth roofline and the barrier). Feeds Fig 9.
    pub round_durations: Vec<u64>,
    /// Cycles attributable to chunk re-execution (recovery work), summed
    /// over threads. Feeds Fig 9's per-chunk recovery cost.
    pub recovery_cycles: u64,
    /// Number of chunk re-executions performed during verification/recovery.
    pub recovery_runs: u64,
    /// Injected-fault retries: block attempts that were re-run after a
    /// transient abort or watchdog kill (zero without a fault plan).
    pub fault_retries: u64,
    /// Block attempts killed by the fault plan's watchdog budget.
    pub fault_watchdog_kills: u64,
    /// Blocks that exhausted their retry budget (or crossed the
    /// misspeculation threshold) and were degraded to a sequential re-exec.
    pub fault_degraded_blocks: u64,
    /// Total cycles lost to injected faults: wasted aborted/killed attempts,
    /// retry backoff, and degraded sequential re-execution. A subset of the
    /// `Phase::Recovery` cycles.
    pub fault_cycles: u64,
    /// Occupancy shape of the grid launch these stats came from (`None` for
    /// single-block launches). Merges keep the first shape seen: a scheme's
    /// phase stats report the shape of that phase's main grid.
    pub shape: Option<LaunchShape>,
    /// Per-[`Phase`] breakdown of the counters above. The per-phase cycles
    /// sum exactly to `cycles`; the per-phase event counters partition the
    /// flat event counters.
    pub profile: PhaseProfile,
}

impl KernelStats {
    /// Average number of threads active in rounds where at least one thread
    /// performed recovery work — the paper's Table III "Average #Active
    /// Threads" during recovery. Returns 0.0 when no recovery ever happened.
    pub fn avg_active_threads_during_recovery(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for &r in &self.recovering_per_round {
            if r > 0 {
                sum += u64::from(r);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Mean wall duration of rounds in which at least one thread recovered —
    /// the "recovery execution time per chunk" of Fig 9: under contention a
    /// chunk re-execution round takes longer than a solo one.
    pub fn avg_recovery_round_duration(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for (i, &r) in self.recovering_per_round.iter().enumerate() {
            if r > 0 {
                sum += self.round_durations.get(i).copied().unwrap_or(0);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// A one-line summary for logs.
    pub fn brief(&self) -> String {
        format!(
            "{} cycles over {} rounds ({} global txns, {} coalesced, {} shared, {} alu)",
            self.cycles,
            self.rounds,
            self.global_transactions,
            self.global_coalesced_hits,
            self.shared_accesses,
            self.alu_ops
        )
    }

    /// Merges another *block's* counters into this one, treating the two as
    /// concurrent blocks of a single grid launch: every counter sums and the
    /// per-round event streams concatenate (block order), but `cycles` is
    /// left untouched — concurrent blocks do not serialize, so grid time is
    /// the scheduler's job (the occupancy wave model in [`crate::grid`]).
    pub fn absorb_block(&mut self, other: &KernelStats) {
        self.active_per_round.extend_from_slice(&other.active_per_round);
        self.recovering_per_round.extend_from_slice(&other.recovering_per_round);
        self.round_durations.extend_from_slice(&other.round_durations);
        self.rounds += other.rounds;
        self.global_transactions += other.global_transactions;
        self.global_coalesced_hits += other.global_coalesced_hits;
        self.shared_accesses += other.shared_accesses;
        self.alu_ops += other.alu_ops;
        self.shuffles += other.shuffles;
        self.atomics += other.atomics;
        self.recovery_cycles += other.recovery_cycles;
        self.recovery_runs += other.recovery_runs;
        self.fault_retries += other.fault_retries;
        self.fault_watchdog_kills += other.fault_watchdog_kills;
        self.fault_degraded_blocks += other.fault_degraded_blocks;
        self.fault_cycles += other.fault_cycles;
        if self.shape.is_none() {
            self.shape = other.shape;
        }
        self.profile.absorb_block(&other.profile);
    }

    /// Merges another kernel's counters into this one, treating the two
    /// kernels as launched back-to-back (cycles add, per-phase cycles add).
    pub fn merge_sequential(&mut self, other: &KernelStats) {
        self.cycles += other.cycles;
        self.profile.absorb_cycles(&other.profile);
        self.absorb_block(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_active_ignores_quiet_rounds() {
        let s = KernelStats { recovering_per_round: vec![0, 4, 0, 2, 0], ..KernelStats::default() };
        assert!((s.avg_active_threads_during_recovery() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn avg_active_zero_when_no_recovery() {
        let s = KernelStats { recovering_per_round: vec![0, 0], ..KernelStats::default() };
        assert_eq!(s.avg_active_threads_during_recovery(), 0.0);
    }

    #[test]
    fn brief_mentions_cycles_and_rounds() {
        let s = KernelStats { cycles: 42, rounds: 3, ..KernelStats::default() };
        let b = s.brief();
        assert!(b.contains("42 cycles"));
        assert!(b.contains("3 rounds"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelStats { cycles: 10, rounds: 2, ..KernelStats::default() };
        let b = KernelStats { cycles: 5, rounds: 1, ..KernelStats::default() };
        a.merge_sequential(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.rounds, 3);
    }

    #[test]
    fn fault_counters_survive_both_merges() {
        let mut a = KernelStats { fault_retries: 2, fault_cycles: 100, ..KernelStats::default() };
        let b = KernelStats {
            fault_retries: 1,
            fault_watchdog_kills: 3,
            fault_degraded_blocks: 1,
            fault_cycles: 50,
            ..KernelStats::default()
        };
        a.absorb_block(&b);
        assert_eq!(a.fault_retries, 3);
        assert_eq!(a.fault_watchdog_kills, 3);
        assert_eq!(a.fault_degraded_blocks, 1);
        assert_eq!(a.fault_cycles, 150);
        a.merge_sequential(&b);
        assert_eq!(a.fault_retries, 4);
        assert_eq!(a.fault_cycles, 200);
    }

    fn sample_profile(phase: Phase, cycles: u64, alu: u64) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        let c = p.get_mut(phase);
        c.cycles = cycles;
        c.rounds = 1;
        c.alu_ops = alu;
        c.active_thread_rounds = 3;
        c.thread_rounds = 4;
        p
    }

    #[test]
    fn phase_indices_match_canonical_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::Recovery.name(), "recovery");
        assert_eq!(Phase::SpecExec.to_string(), "spec_exec");
    }

    #[test]
    fn profile_block_absorb_sums_events_but_not_cycles() {
        let mut a = sample_profile(Phase::Verify, 10, 7);
        let b = sample_profile(Phase::Verify, 25, 5);
        a.absorb_block(&b);
        let c = a.get(Phase::Verify);
        assert_eq!(c.cycles, 10, "concurrent blocks do not serialize");
        assert_eq!(c.alu_ops, 12);
        assert_eq!(c.rounds, 2);
        assert!((c.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn profile_sequential_merge_sums_everything() {
        let mut a = sample_profile(Phase::SpecExec, 10, 7);
        let b = sample_profile(Phase::Recovery, 25, 5);
        a.merge_sequential(&b);
        assert_eq!(a.get(Phase::SpecExec).cycles, 10);
        assert_eq!(a.get(Phase::Recovery).cycles, 25);
        assert_eq!(a.total_cycles(), 35);
    }

    #[test]
    fn kernel_stats_merges_propagate_to_the_profile() {
        let mut a = KernelStats {
            cycles: 10,
            profile: sample_profile(Phase::SpecExec, 10, 1),
            ..KernelStats::default()
        };
        let b = KernelStats {
            cycles: 25,
            profile: sample_profile(Phase::Verify, 25, 2),
            ..KernelStats::default()
        };
        a.merge_sequential(&b);
        assert_eq!(a.cycles, 35);
        assert_eq!(a.profile.total_cycles(), a.cycles, "profile partitions cycles");

        let mut c = KernelStats {
            cycles: 10,
            profile: sample_profile(Phase::SpecExec, 10, 1),
            ..KernelStats::default()
        };
        c.absorb_block(&b);
        assert_eq!(c.cycles, 10);
        assert_eq!(c.profile.total_cycles(), 10, "block absorb leaves cycles to the grid merge");
        assert_eq!(c.profile.get(Phase::Verify).alu_ops, 2);
    }

    #[test]
    fn empty_phase_reports_zero_ratios() {
        let c = PhaseCounters::default();
        assert_eq!(c.utilization(), 0.0);
        assert_eq!(c.coalesced_fraction(), 0.0);
    }
}
