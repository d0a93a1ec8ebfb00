//! Algorithm 2: default speculative DFA parallelization with *sequential*
//! verification and recovery.
//!
//! After the parallel spec-1 execution, a walker visits chunks in order: if
//! the predecessor's verified end state matches the chunk's speculated
//! start, the chunk's result is reused; otherwise the chunk is re-executed —
//! one thread active, all others idle. This is the under-utilization the
//! paper's aggressive recovery attacks. Each verification block walks its
//! own window; [`verify_phase`] runs the blocks and stitches their seams.

use gspecpal_gpu::{KernelStats, Phase, RoundOutcome, ThreadCtx};

use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::{exec_phase, verify_phase, Window, WindowKernel};
use crate::schemes::Job;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let phase = exec_phase(job, 1);
    verify_phase(job, phase, SchemeKind::Naive, KernelStats::default(), |w| {
        // Block 0's first chunk ran from the certain start state.
        Some(NaiveWalk { cursor: usize::from(w.base == 0), recovered: false })
    })
}

/// One block's sequential walk: the cursor thread resolves its chunk from
/// the predecessor's verified end state while every other thread idles.
struct NaiveWalk {
    cursor: usize,
    /// Whether the round in flight re-executed its chunk (the cursor thread
    /// sets this every round, so it always describes the current round).
    recovered: bool,
}

impl WindowKernel for NaiveWalk {
    fn round(&mut self, w: &mut Window<'_>, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid != self.cursor {
            return RoundOutcome::IDLE;
        }
        let outcome = w.resolve(ctx, tid, w.entering(tid));
        self.recovered = outcome.recovering;
        outcome
    }

    fn after_sync(&mut self, w: &mut Window<'_>) -> bool {
        self.cursor += 1;
        w.frontier_trace.push((w.base + self.cursor) as u32);
        self.cursor < w.len()
    }

    /// A walk round is verification (record reuse) unless the cursor had to
    /// re-execute its chunk, which makes the whole round recovery time.
    fn phase(&self) -> Phase {
        if self.recovered {
            Phase::Recovery
        } else {
            Phase::Verify
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SchemeConfig;
    use crate::run::SchemeKind;
    use crate::schemes::{run_scheme, Job};
    use crate::table::DeviceTable;
    use gspecpal_fsm::examples::{div7, fig4_dfa};
    use gspecpal_gpu::DeviceSpec;

    #[test]
    fn naive_is_exact_on_nonconvergent_machine() {
        // div7 defeats prediction, so naive recovers on ~6/7 of chunks — and
        // must still be exact.
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(8);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Naive, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert!(out.recovery_runs() > 0, "div7 must trigger recoveries");
        // Sequential recovery: exactly one thread active per recovery round.
        assert!((out.avg_active_threads_during_recovery() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_is_exact_on_convergent_machine() {
        let d = fig4_dfa();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"a /* xx */ b // /*y*/ ".repeat(8);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Naive, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.accepted, d.accepts(&input));
    }

    #[test]
    fn naive_is_exact_across_block_boundaries() {
        let d = div7();
        let spec = DeviceSpec::test_unit(); // 64-thread blocks
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(50);
        let config = SchemeConfig { n_chunks: 200, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Naive, &job);
        assert_eq!(out.end_state, d.run(&input));
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "chunk {i}");
        }
    }
}
