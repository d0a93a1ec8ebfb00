//! Single-thread sequential execution — the ground-truth reference.
//!
//! One device thread consumes the entire input (Algorithm 1's
//! `FSM_Processing`). Everything a speculative scheme produces must agree
//! with this.

use gspecpal_fsm::StateId;
use gspecpal_gpu::{launch, KernelStats, RoundKernel, RoundOutcome, ThreadCtx};

use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::Job;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let chunks = job.chunks();
    let mut kernel = SeqKernel { job, chunk_ends: Vec::with_capacity(chunks.len()) };
    let exec = launch(job.spec, 1, &mut kernel);
    let end_state = *kernel.chunk_ends.last().expect("at least one chunk");
    RunOutcome {
        scheme: SchemeKind::Sequential,
        end_state,
        accepted: job.table.dfa().is_accepting(end_state),
        chunk_ends: kernel.chunk_ends,
        predict: KernelStats::default(),
        execute: exec,
        verify: KernelStats::default(),
        verification_checks: 0,
        verification_matches: 0,
        frontier_trace: Vec::new(),
    }
}

struct SeqKernel<'a, 'j> {
    job: &'a Job<'j>,
    chunk_ends: Vec<StateId>,
}

impl RoundKernel for SeqKernel<'_, '_> {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        debug_assert_eq!(tid, 0);
        let mut s = self.job.table.dfa().start();
        for range in self.job.chunks() {
            s = self.job.table.run_chunk(ctx, self.job.input, range, s);
            self.chunk_ends.push(s);
        }
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SchemeConfig;
    use crate::run::SchemeKind;
    use crate::schemes::{run_scheme, Job};
    use crate::table::DeviceTable;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::DeviceSpec;

    #[test]
    fn sequential_matches_host_run() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011".repeat(11);
        let config = SchemeConfig { n_chunks: 4, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Sequential, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.accepted, d.accepts(&input));
        assert_eq!(out.chunk_ends.len(), 4);
        // Chunk ends are the prefix states at each boundary.
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s);
        }
        assert_eq!(out.verification_checks, 0);
        assert!(out.execute.cycles > 0);
    }
}
