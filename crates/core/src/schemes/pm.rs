//! PM: Parallel Merge (Xia et al. [19]) — the paper's baseline.
//!
//! PM combines *enumerative speculation* with a parallel tree-like merge:
//!
//! 1. **spec-k execution**: each thread maintains `k` transition paths from
//!    the `k` best-ranked speculative start states (the redundancy factor
//!    α_k of §III-C — Fig 3 measures exactly this phase);
//! 2. **tree merge**: `log₂ B` rounds of intra/inter-warp verification in
//!    which every thread forwards its `k` end states to its successor and
//!    checks the `k` received states against its own speculated starts.
//!    Mismatching paths are only *marked invalid* — recovery is delayed
//!    because the mismatch may turn out not to lie on the ground-truth path;
//! 3. **sequential verification & recovery**: the ground-truth walk from
//!    chunk 0. Chunks whose record set covers the incoming verified state
//!    are free (they were composed during the merge); each miss is a
//!    must-be-done recovery executed by a single thread while every other
//!    thread idles — Equation 2's `Σ P_i × (T_comm + T_ver + T_p1)` term and
//!    the bottleneck this paper attacks.
//!
//! Both the merge (shuffles/shared memory) and the walk are block-scoped, so
//! at grid scale every block merges and walks its own chunk window from a
//! block-level speculated incoming state, and the boundary stitch of
//! [`crate::schemes::stitch`] validates the seams afterwards.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    launch_blocks, BlockDim, BlockRequirements, KernelStats, Phase, RoundKernel, RoundOutcome,
    ThreadCtx,
};

use crate::records::{VrRecord, VrSlice};
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::{exec_phase, ExecPhase};
use crate::schemes::stitch::{block_incomings, stitch_blocks};
use crate::schemes::Job;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let k = job.config.spec_k;
    let ExecPhase { chunks, mut vr, mut ends, mut counts, predict_stats, exec_stats, .. } =
        exec_phase(job, k);
    let n = chunks.len();

    let mut verify = KernelStats::default();
    let mut checks = 0u64;
    let mut matches = 0u64;
    let mut frontier_trace = Vec::new();

    if n > 1 {
        let dims = job.vr_dims(n);
        let incomings = block_incomings(job, &dims, &ends);

        // Phase 2: parallel tree-like merge, one per block — log2(B) rounds,
        // every thread forwarding k end states and checking k received ones.
        // (A one-chunk trailing block has nothing to merge.)
        let mut merges: Vec<(usize, MergeKernel)> = dims
            .iter()
            .filter(|d| d.len() > 1)
            .map(|d| {
                (
                    d.len(),
                    MergeKernel { k: k as u64, rounds_left: d.len().next_power_of_two().ilog2() },
                )
            })
            .collect();
        if !merges.is_empty() {
            verify.merge_sequential(
                &launch_blocks(job.spec, &mut merges)
                    .unwrap_or_else(|e| panic!("launch_blocks: {e}"))
                    .fold(),
            );
        }

        // Phase 3: per-block sequential verification and recovery along each
        // block's speculated ground truth.
        let lens: Vec<usize> = dims.iter().map(BlockDim::len).collect();
        {
            let vr_slices = vr.split_lens(&lens);
            let mut e_rest: &mut [StateId] = &mut ends;
            let mut c_rest: &mut [u64] = &mut counts;
            let mut idle: Vec<PmBlock<'_, '_>> = Vec::new();
            let mut pending: Vec<(usize, PmBlock<'_, '_>)> = Vec::new();
            for (dim, vr_slice) in dims.iter().zip(vr_slices) {
                let (e, er) = e_rest.split_at_mut(dim.len());
                let (c, cr) = c_rest.split_at_mut(dim.len());
                e_rest = er;
                c_rest = cr;
                let mut block = PmBlock {
                    job,
                    chunks: &chunks,
                    base: dim.tids.start,
                    n_local: dim.len(),
                    incoming: incomings[dim.index],
                    vr: vr_slice,
                    k: k as u64,
                    ends: e,
                    counts: c,
                    cursor: usize::from(dim.index == 0),
                    checks: 0,
                    matches: 0,
                    frontier_trace: Vec::new(),
                };
                // Advance through merge-verified chunks before deciding
                // whether the block needs a walker kernel at all.
                block.skip_matches();
                if block.cursor < block.n_local {
                    pending.push((dim.len(), block));
                } else {
                    idle.push(block);
                }
            }
            if !pending.is_empty() {
                verify.merge_sequential(
                    &launch_blocks(job.spec, &mut pending)
                        .unwrap_or_else(|e| panic!("launch_blocks: {e}"))
                        .fold(),
                );
            }
            let mut blocks: Vec<PmBlock<'_, '_>> =
                idle.into_iter().chain(pending.into_iter().map(|(_, b)| b)).collect();
            blocks.sort_by_key(|b| b.base);
            for block in blocks {
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
        scheme: SchemeKind::Pm,
        end_state,
        accepted: job.table.dfa().is_accepting(end_state),
        chunk_ends: ends,
        predict: predict_stats,
        execute: exec_stats,
        verify,
        verification_checks: checks,
        verification_matches: matches,
        match_count: job.config.count_matches.then(|| counts.iter().sum()),
        frontier_trace,
    }
}

/// Cost model of the tree merge: the bookkeeping itself is data-independent
/// (every thread passes and checks k states per round), so only the cost is
/// simulated; the actual path composition is subsumed by the record store
/// the sequential walker reads.
struct MergeKernel {
    k: u64,
    rounds_left: u32,
}

impl RoundKernel for MergeKernel {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        // Each thread holds k end states and k speculated starts in
        // registers; no shared memory or table accesses in the merge.
        BlockRequirements {
            threads,
            shared_bytes: 0,
            regs_per_thread: (16 + 4 * self.k).min(255) as u32,
        }
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        // T_comm(k): forward k end states to the successor.
        ctx.shuffle(self.k);
        // T_ver(k): check k received states against k speculated starts.
        ctx.alu(self.k * self.k);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.rounds_left -= 1;
        self.rounds_left > 0
    }

    /// The tree merge is verification: it checks speculated paths, it never
    /// re-executes input.
    fn phase(&self) -> Phase {
        Phase::Verify
    }
}

/// One block of the sequential stage: walks the block's speculated ground
/// truth chunk by chunk. Chunks whose k-path record set contains the
/// incoming verified state cost nothing here (already verified and composed
/// in the merge); every miss runs a one-thread recovery round.
struct PmBlock<'a, 'j> {
    job: &'a Job<'j>,
    chunks: &'a [Range<usize>],
    base: usize,
    n_local: usize,
    /// Verified (block 0) or block-speculated incoming end state for the
    /// block's first chunk.
    incoming: StateId,
    vr: VrSlice<'a>,
    k: u64,
    ends: &'a mut [StateId],
    counts: &'a mut [u64],
    cursor: usize,
    checks: u64,
    matches: u64,
    frontier_trace: Vec<u32>,
}

impl PmBlock<'_, '_> {
    fn prev_end(&self) -> StateId {
        if self.cursor == 0 {
            self.incoming
        } else {
            self.ends[self.cursor - 1]
        }
    }

    /// Consumes the run of chunks (starting at `cursor`) whose records cover
    /// the incoming verified end state. Host-side: the device already paid
    /// for these checks in the merge rounds.
    fn skip_matches(&mut self) {
        while self.cursor < self.n_local {
            let prev = self.prev_end();
            match self.vr.find(self.base + self.cursor, prev) {
                Some(rec) => {
                    self.checks += 1;
                    self.matches += 1;
                    self.ends[self.cursor] = rec.end;
                    self.counts[self.cursor] = rec.matches;
                    self.cursor += 1;
                }
                None => break,
            }
        }
    }
}

impl RoundKernel for PmBlock<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.vr_requirements(threads)
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid != self.cursor {
            return RoundOutcome::IDLE;
        }
        let prev = self.prev_end();
        ctx.shuffle(1);
        ctx.alu(self.k); // re-check the k paths against the verified state
        self.checks += 1;
        let t0 = ctx.cycles();
        let run = self.job.table.run_chunk_with(
            ctx,
            self.job.input,
            self.chunks[self.base + tid].clone(),
            prev,
            self.job.config.count_matches,
        );
        ctx.credit_recovery(t0);
        self.vr.push_own(
            self.base + tid,
            VrRecord { start: prev, end: run.end, matches: run.matches },
        );
        self.ends[tid] = run.end;
        self.counts[tid] = run.matches;
        RoundOutcome::RECOVERING
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.cursor += 1;
        self.skip_matches();
        self.frontier_trace.push((self.base + self.cursor) as u32);
        self.cursor < self.n_local
    }

    /// Every walker round re-executes a chunk (merge-verified chunks are
    /// consumed host-side in `skip_matches`), so PM's sequential stage is
    /// pure recovery time — the Equation 2 bottleneck.
    fn phase(&self) -> Phase {
        Phase::Recovery
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SchemeConfig;
    use crate::run::SchemeKind;
    use crate::schemes::{run_scheme, Job};
    use crate::table::DeviceTable;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::DeviceSpec;

    #[test]
    fn pm_exact_on_div7() {
        // div7's queues hold all 7 residues; spec-4 covers the truth only
        // when it ranks in the top 4, so PM must recover on the rest — and
        // stay exact.
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"11010101100101110101".repeat(16);
        let config = SchemeConfig { n_chunks: 16, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Pm, &job);
        assert_eq!(out.end_state, d.run(&input));
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn pm_spec7_needs_no_recovery_on_div7() {
        // With k = 7 every residue is covered: speculation can't miss.
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(16);
        let config = SchemeConfig { n_chunks: 16, spec_k: 7, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Pm, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.recovery_runs(), 0, "spec-7 covers all residues");
        assert!((out.runtime_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pm_recovery_is_sequential() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(16);
        let config = SchemeConfig { n_chunks: 16, spec_k: 1, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Pm, &job);
        assert_eq!(out.end_state, d.run(&input));
        if out.recovery_runs() > 0 {
            assert!(
                (out.avg_active_threads_during_recovery() - 1.0).abs() < 1e-12,
                "PM recovers with exactly one active thread"
            );
        }
    }

    #[test]
    fn pm_exact_on_convergent_machine() {
        let d = keyword_dfa(&[b"virus", b"trojan"]).unwrap();
        let input = b"clean data virus sample trojan xyz ".repeat(10);
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Pm, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.accepted, d.accepts(&input));
    }

    #[test]
    fn pm_exact_across_block_boundaries() {
        let d = div7();
        let spec = DeviceSpec::test_unit(); // 64-thread blocks
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"11010101100101110101".repeat(50);
        let config = SchemeConfig { n_chunks: 180, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Pm, &job);
        assert_eq!(out.end_state, d.run(&input));
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "chunk {i}");
        }
    }
}
