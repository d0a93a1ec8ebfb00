//! Device NFA execution: state-level parallelism (Algorithm 1, lines 9-10).
//!
//! NFA engines are the traditional GPU approach (§II-B, \[16\]\[17\]\[7\]): one
//! thread block cooperates on one stream, and in each step the *active
//! state set* is partitioned across threads, every thread advancing its
//! share of states. Memory-efficient (no subset-construction blowup) but
//! per-character work scales with the active-set size — the reason the
//! paper argues DFAs (exactly one lookup per character) are the right
//! representation for latency, and what this module lets you measure.

use gspecpal_fsm::{Nfa, StateId};
use gspecpal_gpu::{launch, DeviceSpec, KernelStats, RoundKernel, RoundOutcome, ThreadCtx};

use crate::table::REGION_INPUT;

/// Result of running an NFA over a stream on the device.
#[derive(Clone, Debug)]
pub struct NfaRunOutcome {
    /// The active set after the last byte (empty = the machine died).
    pub final_set: Vec<StateId>,
    /// Whether any state in the final set accepts.
    pub accepted: bool,
    /// Kernel statistics.
    pub stats: KernelStats,
    /// Largest active set encountered.
    pub max_active_states: usize,
    /// Mean active-set size per step.
    pub avg_active_states: f64,
}

/// Runs `nfa` over `input` with `n_threads` cooperating threads.
///
/// This engine is *deliberately* single-block: every step shares the active
/// set through shared memory and a barrier, neither of which crosses block
/// boundaries, so the thread count is bounded by the device's block
/// capacity (active states beyond it wrap round-robin onto the same
/// threads). Scaling an NFA engine across blocks means splitting the input,
/// which is exactly the speculation problem the DFA schemes solve — use
/// those for multi-block runs.
///
/// Cost model per step: the input byte is loaded once (coalesced broadcast);
/// the active states are divided round-robin across threads; each assigned
/// state costs one shared-memory transition fetch plus one ALU op per
/// byte-range edge examined; building the next frontier costs one atomic per
/// discovered successor (duplicate suppression in shared memory).
pub fn run_nfa_device(
    spec: &DeviceSpec,
    nfa: &Nfa,
    input: &[u8],
    n_threads: usize,
) -> NfaRunOutcome {
    assert!(n_threads > 0);
    assert!(
        n_threads <= spec.max_threads_per_block as usize,
        "the cooperative NFA engine is single-block by design: {} threads exceed \
         the block capacity of {}",
        n_threads,
        spec.max_threads_per_block
    );
    let mut kernel = NfaKernel {
        nfa,
        input,
        n_threads,
        final_set: Vec::new(),
        max_active: 0,
        total_active: 0,
        steps: 0,
    };
    let stats = launch(spec, n_threads, &mut kernel);
    let accepted = nfa.any_accepting(&kernel.final_set);
    NfaRunOutcome {
        final_set: kernel.final_set,
        accepted,
        stats,
        max_active_states: kernel.max_active,
        avg_active_states: if kernel.steps == 0 {
            0.0
        } else {
            kernel.total_active as f64 / kernel.steps as f64
        },
    }
}

struct NfaKernel<'a> {
    nfa: &'a Nfa,
    input: &'a [u8],
    n_threads: usize,
    final_set: Vec<StateId>,
    max_active: usize,
    total_active: u64,
    steps: u64,
}

impl RoundKernel for NfaKernel<'_> {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        // Thread 0 performs the actual set computation (host-side bookkeeping)
        // while every thread is charged for its share of the per-step work;
        // the barrier at the end of the (single) round takes the maximum.
        let mut set = self.nfa.epsilon_closure(&[self.nfa.start()]);
        for (pos, &b) in self.input.iter().enumerate() {
            if set.is_empty() {
                break;
            }
            if tid == 0 {
                self.max_active = self.max_active.max(set.len());
                self.total_active += set.len() as u64;
                self.steps += 1;
            }
            // Input byte: coalesced broadcast across the warp.
            ctx.global(REGION_INPUT, pos as u64, 1);
            // This thread's share of the active set.
            let mut successors = 0u64;
            for (i, &s) in set.iter().enumerate() {
                if i % self.n_threads != tid {
                    continue;
                }
                let st = self.nfa.state(s);
                ctx.shared(1); // fetch the state's transition list header
                ctx.alu(st.ranges.len() as u64); // range comparisons
                successors += st.ranges.iter().filter(|r| r.lo <= b && b <= r.hi).count() as u64;
            }
            // Frontier construction: one shared atomic per discovered
            // successor (set insertion with dedup).
            ctx.atomic(successors);
            set = self.nfa.step(&set, b);
        }
        if tid == 0 {
            self.final_set = set;
        }
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::NfaBuilder;

    /// NFA for `Σ* (ab|ba)` — unanchored search with two branches.
    fn search_nfa() -> Nfa {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        b.add_range(s0, 0, 255, s0);
        let a1 = b.add_state(false);
        let a2 = b.add_state(true);
        b.add_range(s0, b'a', b'a', a1);
        b.add_range(a1, b'b', b'b', a2);
        let b1 = b.add_state(false);
        let b2 = b.add_state(true);
        b.add_range(s0, b'b', b'b', b1);
        b.add_range(b1, b'a', b'a', b2);
        b.build(s0)
    }

    #[test]
    fn device_nfa_agrees_with_host_simulation() {
        let n = search_nfa();
        let spec = DeviceSpec::test_unit();
        for input in [&b"xxab"[..], b"ba", b"abba", b"zzzz", b""] {
            let out = run_nfa_device(&spec, &n, input, 4);
            assert_eq!(out.final_set, n.simulate(input), "{input:?}");
            assert_eq!(out.accepted, n.accepts(input), "{input:?}");
        }
    }

    #[test]
    fn active_set_statistics_are_tracked() {
        let n = search_nfa();
        let out = run_nfa_device(&DeviceSpec::test_unit(), &n, b"ababab", 2);
        // The self-looping start keeps at least one state active; branches
        // add more.
        assert!(out.max_active_states >= 2);
        assert!(out.avg_active_states >= 1.0);
    }

    #[test]
    fn more_threads_reduce_per_step_latency() {
        // State-level parallelism: with enough active states, spreading them
        // across more threads shortens the (max-gated) round.
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        b.add_range(s0, 0, 255, s0);
        // A wide fan-out: 16 parallel 2-state branches.
        for _ in 0..16 {
            let m = b.add_state(false);
            let e = b.add_state(true);
            b.add_range(s0, b'x', b'x', m);
            b.add_range(m, b'y', b'y', e);
        }
        let n = b.build(s0);
        let input = b"xyxyxyxyxyxyxyxy".repeat(8);
        let spec = DeviceSpec::test_unit();
        let one = run_nfa_device(&spec, &n, &input, 1);
        let many = run_nfa_device(&spec, &n, &input, 16);
        assert_eq!(one.final_set, many.final_set);
        assert!(
            many.stats.cycles < one.stats.cycles,
            "16 threads {} vs 1 thread {}",
            many.stats.cycles,
            one.stats.cycles
        );
    }

    #[test]
    fn dead_set_short_circuits() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_range(s0, b'a', b'a', s1);
        let n = b.build(s0);
        let out = run_nfa_device(&DeviceSpec::test_unit(), &n, b"bcd", 2);
        assert!(out.final_set.is_empty());
        assert!(!out.accepted);
    }
}
