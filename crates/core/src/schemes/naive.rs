//! Algorithm 2: default speculative DFA parallelization with *sequential*
//! verification and recovery.
//!
//! After the parallel spec-1 execution, a walker visits chunks in order: if
//! the predecessor's verified end state matches the chunk's speculated
//! start, the chunk's result is reused; otherwise the chunk is re-executed —
//! one thread active, all others idle. This is the under-utilization the
//! paper's aggressive recovery attacks.
//!
//! The walk communicates through shared memory, so at grid scale each block
//! walks its own chunk window from a block-level speculated incoming state
//! (all blocks in parallel, one walker per block) and the boundary stitch
//! validates the seams afterwards — see [`crate::schemes::stitch`].

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    launch_blocks, BlockDim, BlockRequirements, FaultDomain, KernelStats, Phase, RoundKernel,
    RoundOutcome, ThreadCtx,
};

use crate::records::{VrRecord, VrSlice};
use crate::recovery::{apply_grid_recovery, BlockRecoveryCtx};
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::exec_phase;
use crate::schemes::stitch::{block_incomings, stitch_blocks};
use crate::schemes::Job;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let phase = exec_phase(job, 1);
    let chunks = phase.chunks;
    let mut vr = phase.vr;
    let mut ends = phase.ends;
    let mut counts = phase.counts;
    let n = chunks.len();

    let mut verify = KernelStats::default();
    let mut checks = 0u64;
    let mut matches = 0u64;
    let mut frontier_trace = Vec::new();

    if n > 1 {
        let dims = job.vr_dims(n);
        let incomings = block_incomings(job, &dims, &ends);
        let lens: Vec<usize> = dims.iter().map(BlockDim::len).collect();
        {
            let vr_slices = vr.split_lens(&lens);
            let mut e_rest: &mut [StateId] = &mut ends;
            let mut c_rest: &mut [u64] = &mut counts;
            let mut blocks: Vec<(usize, NaiveBlock<'_, '_>)> = Vec::with_capacity(dims.len());
            for (dim, vr_slice) in dims.iter().zip(vr_slices) {
                let (e, er) = e_rest.split_at_mut(dim.len());
                let (c, cr) = c_rest.split_at_mut(dim.len());
                e_rest = er;
                c_rest = cr;
                blocks.push((
                    dim.len(),
                    NaiveBlock {
                        job,
                        chunks: &chunks,
                        base: dim.tids.start,
                        n_local: dim.len(),
                        incoming: incomings[dim.index],
                        vr: vr_slice,
                        ends: e,
                        counts: c,
                        cursor: usize::from(dim.index == 0),
                        recovered: false,
                        checks: 0,
                        matches: 0,
                        frontier_trace: Vec::new(),
                    },
                ));
            }
            let mut grid = launch_blocks(job.spec, &mut blocks)
                .unwrap_or_else(|e| panic!("launch_blocks: {e}"));
            // Fault overlay on the walk: a struck block retries with backoff
            // and, on exhaustion (or a tripped misspeculation ladder),
            // degrades to a sequential re-walk of its chunk window from its
            // speculated incoming state.
            let ctxs: Vec<BlockRecoveryCtx> = dims
                .iter()
                .map(|d| BlockRecoveryCtx {
                    window: chunks[d.tids.start].start..chunks[d.tids.end - 1].end,
                    start: incomings[d.index],
                    checks: blocks[d.index].1.checks,
                    matches: blocks[d.index].1.matches,
                })
                .collect();
            apply_grid_recovery(job, FaultDomain::Verify, &mut grid, &ctxs);
            verify.merge_sequential(&grid.fold());
            for (_, block) in blocks {
                checks += block.checks;
                matches += block.matches;
                frontier_trace.extend_from_slice(&block.frontier_trace);
            }
        }
        let stitched =
            stitch_blocks(job, &chunks, &dims, &incomings, &mut vr, &mut ends, &mut counts);
        verify.merge_sequential(&stitched.stats);
        checks += stitched.checks;
        matches += stitched.matches;
    }

    let end_state = *ends.last().expect("at least one chunk");
    RunOutcome {
        scheme: SchemeKind::Naive,
        end_state,
        accepted: job.table.dfa().is_accepting(end_state),
        chunk_ends: ends,
        predict: phase.predict_stats,
        execute: phase.exec_stats,
        verify,
        verification_checks: checks,
        verification_matches: matches,
        match_count: job.config.count_matches.then(|| counts.iter().sum()),
        frontier_trace,
    }
}

/// One block's sequential walk over its chunk window. `ends`/`counts` are
/// the block's slices (relative indexing); record accesses go through the
/// block's [`VrSlice`] by global chunk id.
struct NaiveBlock<'a, 'j> {
    job: &'a Job<'j>,
    chunks: &'a [Range<usize>],
    base: usize,
    n_local: usize,
    /// Verified (block 0) or block-speculated incoming end state for the
    /// block's first chunk.
    incoming: StateId,
    vr: VrSlice<'a>,
    /// ends[i] becomes the (block-relative) verified end state of local
    /// chunk i once the cursor passes it.
    ends: &'a mut [StateId],
    counts: &'a mut [u64],
    cursor: usize,
    /// Whether the round in flight re-executed its chunk (the cursor thread
    /// sets this every round, so it always describes the current round).
    recovered: bool,
    checks: u64,
    matches: u64,
    frontier_trace: Vec<u32>,
}

impl RoundKernel for NaiveBlock<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.vr_requirements(threads)
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid != self.cursor {
            return RoundOutcome::IDLE;
        }
        let rel = self.cursor;
        // Receive the verified end state of the predecessor chunk (the
        // block's incoming speculation for the first local chunk).
        let end_p = if rel == 0 { self.incoming } else { self.ends[rel - 1] };
        ctx.shuffle(1);
        self.checks += 1;
        match self.vr.scan(ctx, self.base + rel, end_p) {
            Some(rec) => {
                self.matches += 1;
                self.recovered = false;
                self.ends[rel] = rec.end;
                self.counts[rel] = rec.matches;
                RoundOutcome::ACTIVE
            }
            None => {
                self.recovered = true;
                // Must-be-done recovery: re-execute from the verified state.
                let t0 = ctx.cycles();
                let run = self.job.table.run_chunk_with(
                    ctx,
                    self.job.input,
                    self.chunks[self.base + rel].clone(),
                    end_p,
                    self.job.config.count_matches,
                );
                ctx.credit_recovery(t0);
                self.vr.push_own(
                    self.base + rel,
                    VrRecord { start: end_p, end: run.end, matches: run.matches },
                );
                self.ends[rel] = run.end;
                self.counts[rel] = run.matches;
                RoundOutcome::RECOVERING
            }
        }
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.cursor += 1;
        self.frontier_trace.push((self.base + self.cursor) as u32);
        self.cursor < self.n_local
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
