//! Integration tests of the simulator's cost model: the properties the
//! reproduction's conclusions rest on, checked end-to-end.

use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::{DeviceTable, REGION_INPUT};
use gspecpal::{SchemeConfig, SchemeKind};
use gspecpal_fsm::examples::{div7, ones_counter};
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_gpu::{launch, DeviceSpec, RoundKernel, RoundOutcome, ThreadCtx};

/// Scheme runs are bit-for-bit deterministic: same job, same cycles, same
/// counters, across repeated executions.
#[test]
fn simulation_is_deterministic() {
    let d = ones_counter(9, &[0]);
    let input: Vec<u8> = b"0110110101".repeat(500);
    let spec = DeviceSpec::rtx3090();
    let table = DeviceTable::transformed(&d, d.n_states());
    let config = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let a = run_scheme(SchemeKind::Nf, &job);
    let b = run_scheme(SchemeKind::Nf, &job);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.verify.global_transactions, b.verify.global_transactions);
    assert_eq!(a.verify, b.verify, "whole verify-phase stats");
    assert_eq!(a.verification_matches, b.verification_matches);
}

/// Sequential execution cost scales linearly with input length (per-byte
/// work is constant).
#[test]
fn sequential_cost_is_linear_in_input() {
    let d = div7();
    let spec = DeviceSpec::rtx3090();
    let table = DeviceTable::transformed(&d, d.n_states());
    let config = SchemeConfig { n_chunks: 1, ..SchemeConfig::default() };

    let short: Vec<u8> = b"10".repeat(1000);
    let long: Vec<u8> = b"10".repeat(4000);
    let a = run_scheme(SchemeKind::Sequential, &Job::new(&spec, &table, &short, config).unwrap());
    let b = run_scheme(SchemeKind::Sequential, &Job::new(&spec, &table, &long, config).unwrap());
    let ratio = b.total_cycles() as f64 / a.total_cycles() as f64;
    assert!((3.5..4.5).contains(&ratio), "4x input gave {ratio:.2}x cycles");
}

/// Cold transition tables cost more than resident ones: evicting the hot
/// rows of a large machine (whose rows don't all fit in the per-round
/// cache window) slows the identical run down.
#[test]
fn cold_tables_are_slower() {
    let d = random_dfa(3, 2000, 12);
    let input = random_input(4, 4000);
    let spec = DeviceSpec::rtx3090();
    let config = SchemeConfig { n_chunks: 32, ..SchemeConfig::default() };

    let hot_table = DeviceTable::transformed(&d, d.n_states());
    let cold_table = DeviceTable::transformed(&d, 0);
    let hot =
        run_scheme(SchemeKind::Sequential, &Job::new(&spec, &hot_table, &input, config).unwrap());
    let cold =
        run_scheme(SchemeKind::Sequential, &Job::new(&spec, &cold_table, &input, config).unwrap());
    assert_eq!(hot.end_state, cold.end_state);
    assert!(
        cold.total_cycles() > hot.total_cycles() * 2,
        "cold {} vs hot {}",
        cold.total_cycles(),
        hot.total_cycles()
    );
}

/// Warp coalescing: threads streaming the same region in lockstep issue far
/// fewer transactions than threads streaming disjoint regions.
#[test]
fn coalescing_reduces_transactions() {
    struct SameChunk;
    impl RoundKernel for SameChunk {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            for pos in 0..256u64 {
                ctx.global(REGION_INPUT, pos, 1);
            }
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }
    struct DisjointChunks;
    impl RoundKernel for DisjointChunks {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            let base = tid as u64 * 4096;
            for pos in 0..256u64 {
                ctx.global(REGION_INPUT, base + pos, 1);
            }
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }
    let spec = DeviceSpec::rtx3090();
    let same = launch(&spec, 32, &mut SameChunk);
    let disjoint = launch(&spec, 32, &mut DisjointChunks);
    // One warp on the same 256 bytes: 8 segments total; on disjoint chunks:
    // 8 segments per thread.
    assert_eq!(same.global_transactions, 8);
    assert_eq!(disjoint.global_transactions, 8 * 32);
    // Per-thread compute is identical (cache hits cost the same either
    // way); the transaction difference shows in the bandwidth floor once
    // rounds are memory-bound, and always in the counters.
    assert!(same.cycles <= disjoint.cycles);
    assert!(same.global_coalesced_hits > disjoint.global_coalesced_hits);
}

/// The barrier rule: a single slow thread stalls the whole block round.
#[test]
fn slowest_thread_gates_the_round() {
    struct Uneven;
    impl RoundKernel for Uneven {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(if tid == 7 { 10_000 } else { 1 });
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }
    let spec = DeviceSpec::rtx3090();
    let stats = launch(&spec, 64, &mut Uneven);
    assert!(stats.cycles >= 10_000);
    assert_eq!(stats.rounds, 1);
}

/// The PM baseline's recovery really is serialized: its verification kernel
/// takes one round per miss, each round as long as a chunk execution.
#[test]
fn pm_sequential_recovery_rounds_cost_chunk_time() {
    let d = ones_counter(9, &[0]); // queue depth 9 > spec-4 -> frequent misses
                                   // Pseudo-random bits so boundary contexts don't repeat periodically.
    let input: Vec<u8> =
        random_input(9, 6400).into_iter().map(|b| if b & 1 == 1 { b'1' } else { b'0' }).collect();
    let spec = DeviceSpec::rtx3090();
    let table = DeviceTable::transformed(&d, d.n_states());
    let config = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let out = run_scheme(SchemeKind::Pm, &job);
    let misses = out.recovery_runs();
    assert!(misses > 10);
    // Each sequential recovery round costs at least one chunk execution
    // (input_len / n_chunks steps at ≥2 cycles each is a safe floor).
    let chunk_floor = (input.len() as u64 / 64) * 2;
    assert!(
        out.verify.cycles > misses * chunk_floor,
        "verify {} vs {} misses x {} floor",
        out.verify.cycles,
        misses,
        chunk_floor
    );
}
