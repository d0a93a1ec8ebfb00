//! The recovery averages of Table III and Fig 9 come from three sums in
//! `KernelStats`. This test records every round itself — how many threads
//! recovered and when the round started and ended — and checks that both
//! averages equal the per-round definition, bit for bit, over random round
//! kernels, multi-wave grids, sequential merges and fault-struck blocks.

use gspecpal_cluster::splitmix64 as mix;
use gspecpal_gpu::{
    launch, launch_blocks, DeviceSpec, FaultDomain, FaultPlan, KernelStats, RoundKernel,
    RoundOutcome, ThreadCtx,
};
use proptest::prelude::*;

/// A kernel whose threads do pseudo-random work and report pseudo-random
/// outcomes each round, recording per round the recovering-thread count and
/// the round's start clock (thread 0 runs first, on the post-barrier clock).
struct Script {
    seed: u64,
    rounds: u64,
    round: u64,
    starts: Vec<u64>,
    recovering: Vec<u32>,
}

impl Script {
    fn new(seed: u64, rounds: u64) -> Self {
        Script { seed, rounds, round: 0, starts: Vec::new(), recovering: Vec::new() }
    }

    /// `(recovering threads, duration)` of each round, given the block's
    /// final clock.
    fn rounds_ending_at(&self, end: u64) -> Vec<(u32, u64)> {
        let ends = self.starts.iter().skip(1).copied().chain([end]);
        self.recovering
            .iter()
            .zip(self.starts.iter().zip(ends))
            .map(|(&r, (s, e))| (r, e - s))
            .collect()
    }
}

impl RoundKernel for Script {
    fn begin_round(&mut self, round: u64) {
        self.round = round;
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid == 0 {
            self.starts.push(ctx.cycles());
            self.recovering.push(0);
        }
        let h = mix(self.seed ^ self.round << 24 ^ tid as u64);
        ctx.alu(h % 9);
        if (h >> 8).is_multiple_of(4) {
            ctx.global(0, (h >> 16) % 4096 * 64, 1 + (h >> 40) % 16);
        }
        match (h >> 32) % 3 {
            0 => RoundOutcome::IDLE,
            1 => RoundOutcome::ACTIVE,
            _ => {
                *self.recovering.last_mut().expect("thread 0 opened the round") += 1;
                RoundOutcome::RECOVERING
            }
        }
    }

    fn after_sync(&mut self, round: u64) -> bool {
        round + 1 < self.rounds
    }
}

/// The per-round definitions: means over rounds with at least one
/// recovering thread (0.0 when there are none).
fn reference(rounds: &[(u32, u64)]) -> (f64, f64) {
    let recovery: Vec<_> = rounds.iter().filter(|(r, _)| *r > 0).collect();
    if recovery.is_empty() {
        return (0.0, 0.0);
    }
    let n = recovery.len() as u64;
    let threads: u64 = recovery.iter().map(|(r, _)| u64::from(*r)).sum();
    let cycles: u64 = recovery.iter().map(|(_, d)| d).sum();
    (threads as f64 / n as f64, cycles as f64 / n as f64)
}

/// One launch of the chain: `blocks` random blocks through `launch_blocks`
/// (or one block through `launch`), the struck ones charged like the fault
/// overlay charges them — lost cycles on the block, then a one-thread
/// recovering re-walk merged in sequentially. Returns the stats and the
/// launch's rounds in block order.
fn run_launch(
    spec: &DeviceSpec,
    seed: u64,
    blocks: &[(usize, u64)],
    grid: bool,
    plan: &FaultPlan,
) -> (KernelStats, Vec<(u32, u64)>) {
    let mut kernels: Vec<(usize, Script)> = blocks
        .iter()
        .enumerate()
        .map(|(b, &(threads, rounds))| (threads, Script::new(mix(seed ^ b as u64), rounds)))
        .collect();
    if !grid {
        let (threads, kernel) = &mut kernels[0];
        let stats = launch(spec, *threads, kernel);
        return (stats, kernel.rounds_ending_at(stats.cycles));
    }
    let mut launched = launch_blocks(spec, &mut kernels).unwrap();
    let mut rounds = Vec::new();
    for (b, (stats, (_, kernel))) in launched.blocks.iter_mut().zip(&kernels).enumerate() {
        rounds.extend(kernel.rounds_ending_at(stats.cycles));
        if plan.aborts(FaultDomain::Verify, b, 0) {
            stats.cycles += 1 + plan.abort_point_permille(FaultDomain::Verify, b, 0);
            let mut rewalk = Script::new(mix(seed ^ !(b as u64)), 1);
            let walk = launch(spec, 1, &mut rewalk);
            rounds.extend(rewalk.rounds_ending_at(walk.cycles));
            stats.merge_sequential(&walk);
        }
    }
    launched.reschedule();
    (launched.fold(), rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_averages_equal_the_per_round_definition(
        seed in 0u64..u64::MAX,
        chain in prop::collection::vec(
            (prop::collection::vec((1usize..=64, 1u64..12), 1..10), 0u8..2),
            1..5,
        ),
        fault_permille in 0u32..1000,
        bandwidth in 0u64..3000,
    ) {
        let spec = DeviceSpec { bandwidth_millicycles_per_txn: bandwidth, ..DeviceSpec::test_unit() };
        let plan = FaultPlan::chaos(seed, fault_permille);
        let mut merged = KernelStats::default();
        let mut all_rounds = Vec::new();
        for (i, (blocks, grid)) in chain.iter().enumerate() {
            let (stats, rounds) = run_launch(&spec, mix(seed ^ i as u64), blocks, *grid == 1, &plan);
            let (active, duration) = reference(&rounds);
            prop_assert_eq!(stats.avg_active_threads_during_recovery(), active);
            prop_assert_eq!(stats.avg_recovery_round_duration(), duration);
            merged.merge_sequential(&stats);
            all_rounds.extend(rounds);
        }
        let (active, duration) = reference(&all_rounds);
        prop_assert_eq!(merged.avg_active_threads_during_recovery(), active);
        prop_assert_eq!(merged.avg_recovery_round_duration(), duration);
        prop_assert_eq!(merged.recovery_rounds, all_rounds.iter().filter(|(r, _)| *r > 0).count() as u64);
    }
}
