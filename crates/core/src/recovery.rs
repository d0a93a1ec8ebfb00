//! Retry, backoff, and graceful degradation over injected faults.
//!
//! The fault plan ([`gspecpal_gpu::FaultPlan`]) only *decides* where faults
//! strike; this module prices what recovering from them costs and charges it
//! — deterministically — onto the affected blocks:
//!
//! * a **transient abort** wastes the struck fraction of the attempt, then
//!   the block retries after a capped exponential backoff
//!   ([`gspecpal_gpu::backoff_cycles`]);
//! * a **watchdog kill** wastes the full budget per attempt; since a block's
//!   runtime is deterministic, an over-budget block refails every retry and
//!   always ends up degraded;
//! * a block that **exhausts its retry budget** (or whose misspeculation
//!   rate crosses [`RecoveryConfig::misspec_degrade_permille`]) is
//!   *degraded*: its chunk window is re-executed sequentially by one thread
//!   from the block's incoming state — the naive walk, always exact — and
//!   that walk's full cost lands in [`gspecpal_gpu::Phase::Recovery`].
//!
//! The overlay never alters what a launch *computed* — the underlying
//! kernels always ran to completion and the degraded re-exec is exact, so
//! end states stay bit-identical to the fault-free run. It only adds cycles,
//! and it adds them block-locally (then re-applies the wave model via
//! [`gspecpal_gpu::GridStats::reschedule`]), so the per-phase cycle
//! partition and cross-pool-size determinism both survive.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    backoff_cycles, launch, BlockRequirements, FaultDomain, FaultPlan, GridStats, KernelStats,
    Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::schemes::Job;

/// Retry/backoff/degradation policy for blocks struck by injected faults.
///
/// With no fault plan on the job and the misspeculation ladder disabled
/// (the default), this config is inert: nothing consults it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Re-attempts a block gets after an abort or watchdog kill before it is
    /// degraded to a sequential re-exec. 0 degrades on the first fault.
    pub max_retries: u32,
    /// Backoff before retry `i` (0-based): `min(base << i, cap)` cycles.
    pub backoff_base_cycles: u64,
    /// Cap of the exponential backoff.
    pub backoff_cap_cycles: u64,
    /// Degrade a verification block whose misspeculation rate — scan misses
    /// per 1000 checks — reaches this threshold, even without injected
    /// faults. Values above 1000 (the default) disable the ladder.
    pub misspec_degrade_permille: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 1024,
            misspec_degrade_permille: u32::MAX,
        }
    }
}

impl RecoveryConfig {
    /// Whether the misspeculation degradation ladder is active.
    pub fn misspec_ladder_enabled(&self) -> bool {
        self.misspec_degrade_permille <= 1000
    }

    /// Backoff before retry `attempt` under this config.
    pub fn backoff(&self, attempt: u32) -> u64 {
        backoff_cycles(self.backoff_base_cycles, self.backoff_cap_cycles, attempt)
    }
}

/// Per-block context the recovery overlay needs: where the block's chunk
/// window sits in the input and which state it entered from (for pricing the
/// degraded sequential re-exec), plus its verification check/match counts
/// (for the misspeculation ladder; zero for exec-phase blocks, which have no
/// checks).
pub(crate) struct BlockRecoveryCtx {
    /// Input byte range covered by the block's chunks.
    pub window: Range<usize>,
    /// State the block's first chunk was entered from (speculated or
    /// verified — either prices the same walk over the same bytes).
    pub start: StateId,
    /// Verification scans the block performed.
    pub checks: u64,
    /// Scans that matched a record.
    pub matches: u64,
}

/// Applies the fault overlay to every block of a finished grid launch and
/// re-applies the wave model. A no-op without a fault plan or an active
/// misspeculation ladder, so fault-free runs are byte-identical to builds
/// without this module.
pub(crate) fn apply_grid_recovery(
    job: &Job<'_>,
    domain: FaultDomain,
    grid: &mut GridStats,
    ctxs: &[BlockRecoveryCtx],
) {
    let rc = job.config.recovery;
    let plan = job.config.faults.unwrap_or_default();
    if !plan.any_faults() && !rc.misspec_ladder_enabled() {
        return;
    }
    debug_assert_eq!(grid.blocks.len(), ctxs.len(), "one recovery ctx per block");
    let mut mutated = false;
    for (b, (stats, cx)) in grid.blocks.iter_mut().zip(ctxs).enumerate() {
        mutated |= overlay_block(job, &plan, &rc, domain, b, stats, cx);
    }
    if mutated {
        grid.reschedule();
    }
}

/// What the retry/backoff ladder decided for one struck block.
pub(crate) struct FaultCharges {
    /// Cycles wasted on killed/aborted attempts and backoff waits.
    pub lost: u64,
    /// Retried launches.
    pub retries: u64,
    /// Watchdog kills.
    pub kills: u64,
    /// The block exhausted its retry budget and must fall back to its
    /// scheme's bottom rung.
    pub degraded: bool,
}

/// Prices the retry/backoff ladder for one `base_cycles`-long block against
/// `plan`: watchdog kills (a deterministic block refails every retry),
/// transient aborts, exponential backoff between attempts, and whether the
/// retry budget ran out. Returns `None` for an unstruck block. This is the
/// scheme-independent half of the overlay; what degradation *costs* is the
/// scheme's business (a sequential re-walk for the speculative schemes, a
/// mapping re-derivation for SFA).
pub(crate) fn fault_charges(
    plan: &FaultPlan,
    rc: &RecoveryConfig,
    domain: FaultDomain,
    block: usize,
    base_cycles: u64,
) -> Option<FaultCharges> {
    let mut lost = 0u64;
    let mut retries = 0u64;
    let mut kills = 0u64;
    let mut degraded = false;

    if let Some(err) = plan.watchdog_violation(block, base_cycles) {
        debug_assert!(matches!(err, gspecpal_gpu::LaunchError::WatchdogExpired { .. }));
        // The block's runtime is deterministic, so every attempt trips the
        // same watchdog: charge the budget per killed attempt, back off
        // between them, and degrade once retries run out.
        let mut attempt = 0u32;
        loop {
            kills += 1;
            lost += plan.watchdog_cycles;
            if attempt >= rc.max_retries {
                degraded = true;
                break;
            }
            lost += rc.backoff(attempt);
            retries += 1;
            attempt += 1;
        }
    } else if plan.abort_permille > 0 {
        let mut attempt = 0u32;
        loop {
            if !plan.aborts(domain, block, attempt) {
                break; // This attempt runs to completion.
            }
            lost += base_cycles * plan.abort_point_permille(domain, block, attempt) / 1000;
            if attempt >= rc.max_retries {
                degraded = true;
                break;
            }
            lost += rc.backoff(attempt);
            retries += 1;
            attempt += 1;
        }
    }

    if lost == 0 && !degraded {
        return None;
    }
    Some(FaultCharges { lost, retries, kills, degraded })
}

/// Charges one block's fault-recovery cost onto its stats. Returns whether
/// anything was charged.
fn overlay_block(
    job: &Job<'_>,
    plan: &FaultPlan,
    rc: &RecoveryConfig,
    domain: FaultDomain,
    block: usize,
    stats: &mut KernelStats,
    cx: &BlockRecoveryCtx,
) -> bool {
    let charges = fault_charges(plan, rc, domain, block, stats.cycles);
    let (lost, retries, kills, mut degraded) = match charges {
        Some(c) => (c.lost, c.retries, c.kills, c.degraded),
        None => (0, 0, 0, false),
    };

    if !degraded && rc.misspec_ladder_enabled() && cx.checks > 0 {
        let misses = cx.checks - cx.matches;
        degraded = misses * 1000 >= cx.checks * u64::from(rc.misspec_degrade_permille);
    }

    if lost == 0 && !degraded {
        return false;
    }

    stats.cycles += lost;
    stats.profile.get_mut(Phase::Recovery).cycles += lost;
    stats.recovery_cycles += lost;
    stats.fault_cycles += lost;
    stats.fault_retries += retries;
    stats.fault_watchdog_kills += kills;
    if degraded {
        let walk = degraded_walk(job, cx);
        stats.fault_cycles += walk.cycles;
        stats.fault_degraded_blocks += 1;
        stats.merge_sequential(&walk);
    }
    true
}

/// The degradation ladder's bottom rung: one thread re-executes the block's
/// whole chunk window sequentially from its incoming state. Exact by
/// construction (it is the naive walk), and every cycle lands in
/// [`Phase::Recovery`].
struct DegradedWalk<'a> {
    job: &'a Job<'a>,
    window: Range<usize>,
    start: StateId,
}

impl RoundKernel for DegradedWalk<'_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.vr_requirements(threads)
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let t0 = ctx.cycles();
        self.job.table.run_chunk(ctx, self.job.input, self.window.clone(), self.start);
        ctx.credit_recovery(t0);
        RoundOutcome::RECOVERING
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Recovery
    }
}

fn degraded_walk(job: &Job<'_>, cx: &BlockRecoveryCtx) -> KernelStats {
    let mut kernel = DegradedWalk { job, window: cx.window.clone(), start: cx.start };
    launch(job.spec, 1, &mut kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::table::DeviceTable;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::{launch_blocks, DeviceSpec};

    fn job_fixture() -> (gspecpal_fsm::Dfa, DeviceSpec, Vec<u8>) {
        (div7(), DeviceSpec::test_unit(), b"1011010110101101".repeat(16).to_vec())
    }

    /// Fixed-cost block kernel for overlay tests.
    struct Busy(u64);
    impl RoundKernel for Busy {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(self.0);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    fn overlay_fixture(
        faults: Option<gspecpal_gpu::FaultPlan>,
        recovery: RecoveryConfig,
    ) -> GridStats {
        let (d, spec, input) = job_fixture();
        let table = DeviceTable::transformed(&d, d.n_states());
        let config = SchemeConfig { n_chunks: 8, faults, recovery, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let mut blocks: Vec<(usize, Busy)> = (0..4).map(|_| (2usize, Busy(50))).collect();
        let mut grid = launch_blocks(job.spec, &mut blocks).unwrap();
        let ctxs: Vec<BlockRecoveryCtx> = (0..4)
            .map(|b| BlockRecoveryCtx {
                window: (b * 32)..((b + 1) * 32),
                start: 0,
                checks: 0,
                matches: 0,
            })
            .collect();
        apply_grid_recovery(&job, FaultDomain::Exec, &mut grid, &ctxs);
        grid
    }

    #[test]
    fn no_plan_is_a_no_op() {
        let clean = overlay_fixture(None, RecoveryConfig::default());
        let faulted = overlay_fixture(None, RecoveryConfig::default());
        assert_eq!(clean.cycles, faulted.cycles);
        assert!(clean.blocks.iter().all(|b| b.fault_cycles == 0));
    }

    #[test]
    fn watchdog_smaller_than_one_round_degrades_every_block() {
        // Budget of 1 cycle: below any block's first round, so every block
        // is killed max_retries+1 times and then degraded.
        let plan = gspecpal_gpu::FaultPlan { watchdog_cycles: 1, ..Default::default() };
        let rc = RecoveryConfig { max_retries: 2, ..RecoveryConfig::default() };
        let grid = overlay_fixture(Some(plan), rc);
        for b in &grid.blocks {
            assert_eq!(b.fault_watchdog_kills, 3, "initial attempt + 2 retries all killed");
            assert_eq!(b.fault_retries, 2);
            assert_eq!(b.fault_degraded_blocks, 1);
            assert!(b.fault_cycles > 0);
            assert_eq!(b.profile.total_cycles(), b.cycles, "partition survives the overlay");
        }
    }

    #[test]
    fn zero_retry_budget_degrades_immediately() {
        let plan = gspecpal_gpu::FaultPlan { watchdog_cycles: 1, ..Default::default() };
        let rc = RecoveryConfig { max_retries: 0, ..RecoveryConfig::default() };
        let grid = overlay_fixture(Some(plan), rc);
        for b in &grid.blocks {
            assert_eq!(b.fault_watchdog_kills, 1, "one kill, no retries");
            assert_eq!(b.fault_retries, 0);
            assert_eq!(b.fault_degraded_blocks, 1);
        }
    }

    /// A degraded block 0 re-walks its window from the machine's start
    /// state: on a machine whose start is not state 0, the degraded
    /// verification block of every scheme with one (SRE, RR, NF, Naive)
    /// adds exactly the stats of a one-thread walk over the window from
    /// `dfa.start()`.
    #[test]
    fn degraded_block_zero_walks_from_the_start_state() {
        use crate::run::SchemeKind;
        use crate::schemes::run_scheme;
        let (d, spec, input) = job_fixture();
        // Relabelled the way the frequency transformation relabels a
        // machine, with the start state ranked fourth.
        let d = d.permute(&[3, 0, 1, 2, 4, 5, 6]).unwrap();
        assert_eq!(d.start(), 3);
        let table = DeviceTable::transformed(&d, d.n_states() / 2);
        // One verification block; a 0‰ ladder degrades it.
        let config = |misspec_degrade_permille| SchemeConfig {
            n_chunks: 16,
            recovery: RecoveryConfig { misspec_degrade_permille, ..RecoveryConfig::default() },
            ..SchemeConfig::default()
        };
        let clean = Job::new(&spec, &table, &input, config(u32::MAX)).unwrap();
        let degraded = Job::new(&spec, &table, &input, config(0)).unwrap();
        let walk = launch(
            &spec,
            1,
            &mut DegradedWalk { job: &clean, window: 0..input.len(), start: d.start() },
        );
        let oracle = launch(&spec, 1, &mut OneWalk(&table, &input, d.start()));
        assert_eq!(walk, oracle, "the degraded walk is one run_chunk from the start");
        for kind in [SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Naive] {
            let mut expect = run_scheme(kind, &clean).verify;
            expect.merge_sequential(&walk);
            expect.fault_cycles += walk.cycles;
            expect.fault_degraded_blocks += 1;
            assert_eq!(run_scheme(kind, &degraded).verify, expect, "{kind:?}");
        }
    }

    /// One thread walks all of `input` from a state with
    /// [`DeviceTable::run_chunk`], credited as recovery.
    struct OneWalk<'a>(&'a DeviceTable<'a>, &'a [u8], StateId);

    impl RoundKernel for OneWalk<'_> {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            let t0 = ctx.cycles();
            self.0.run_chunk(ctx, self.1, 0..self.1.len(), self.2);
            ctx.credit_recovery(t0);
            RoundOutcome::RECOVERING
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
        fn phase(&self) -> Phase {
            Phase::Recovery
        }
    }

    #[test]
    fn overlay_is_deterministic_and_only_adds_cycles() {
        let plan = gspecpal_gpu::FaultPlan::chaos(99, 400);
        let rc = RecoveryConfig::default();
        let clean = overlay_fixture(None, rc);
        let a = overlay_fixture(Some(plan), rc);
        let b = overlay_fixture(Some(plan), rc);
        assert_eq!(a.cycles, b.cycles, "same plan, same overlay");
        assert!(a.cycles >= clean.cycles);
        for (f, c) in a.blocks.iter().zip(&clean.blocks) {
            assert!(f.cycles >= c.cycles);
            assert_eq!(f.profile.total_cycles(), f.cycles);
        }
    }
}
