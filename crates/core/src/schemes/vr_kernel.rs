//! The shared verification-and-recovery kernel behind SRE, RR and NF
//! (Algorithms 3, 4 and 5).
//!
//! All three schemes run the same barrier loop: a *verify* round in which
//! every unverified thread receives its predecessor's current end state
//! (`end_state_comm`) and scans its chunk's records for a match, followed —
//! only when the frontier chunk itself mismatched (`mark == false`, the
//! must-be-done case) — by a *recovery* round. They differ exactly where the
//! paper says they differ: in who re-executes what during recovery.
//!
//! * **SRE**: each thread stays bound to its own chunk and re-executes it
//!   from the forwarded predecessor end state. A thread performs this
//!   *speculative* recovery at most once ("immediate speculative recoveries
//!   activated by ending states", §III-A); afterwards only the frontier's
//!   must-be-done recovery keeps running — the low-utilization behaviour
//!   Table III reports (≈1 active thread on non-convergent FSMs).
//! * **RR**: rear threads (`tid ≥ f`) behave like SRE; verified (non-rear)
//!   threads are reassigned round-robin over chunks `f+1..N` and re-execute
//!   them from the next states of their speculation queues (Algorithm 4).
//! * **NF**: non-rear threads drain the speculation queues nearest to the
//!   frontier first (Algorithm 5's `NF_Sched`), piling many threads — often
//!   whole warps, which coalesce — onto the same chunk.
//!
//! Shared memory and barriers are block-scoped, so the loop runs *per
//! block*: each block verifies its own chunk window against a block-level
//! speculated incoming state, all blocks in parallel, and the boundary
//! stitch of [`crate::schemes::stitch`] validates the block seams
//! afterwards. A single block reproduces the pre-grid behaviour exactly.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    launch_blocks, BlockDim, BlockRequirements, FaultDomain, KernelStats, Phase, RoundKernel,
    RoundOutcome, ThreadCtx,
};

use crate::records::{VrRecord, VrSlice};
use crate::recovery::{apply_grid_recovery, BlockRecoveryCtx};
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::{exec_phase, ExecPhase};
use crate::schemes::stitch::{block_incomings, stitch_blocks};
use crate::schemes::Job;
use crate::specq::SpecQueue;
use crate::table::WalkBatch;

/// Which recovery scheduling heuristic the kernel applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecoveryPolicy {
    /// Algorithm 3: threads bound to their own chunks.
    Sre,
    /// Algorithm 4: round-robin reassignment of verified threads.
    RoundRobin,
    /// Algorithm 5: nearest-first queue draining.
    NearestFirst,
}

impl RecoveryPolicy {
    fn scheme(self) -> SchemeKind {
        match self {
            RecoveryPolicy::Sre => SchemeKind::Sre,
            RecoveryPolicy::RoundRobin => SchemeKind::Rr,
            RecoveryPolicy::NearestFirst => SchemeKind::Nf,
        }
    }
}

/// Runs the full scheme (prediction, spec-1 execution, verification &
/// recovery under `policy`).
pub(crate) fn run_with_policy(job: &Job<'_>, policy: RecoveryPolicy) -> RunOutcome {
    let ExecPhase {
        chunks,
        mut queues,
        mut vr,
        mut ends,
        counts: phase_counts,
        predict_stats,
        exec_stats,
        ..
    } = exec_phase(job, 1);
    let n = chunks.len();
    let mut counts: Vec<u64> = (0..n).map(|i| phase_counts.get(i).copied().unwrap_or(0)).collect();

    let mut verify = KernelStats::default();
    let mut checks = 0u64;
    let mut matches = 0u64;
    let mut frontier_trace = Vec::new();

    if n > 1 {
        let dims = job.vr_dims(n);
        // Block-level speculation: each block assumes the exec-phase end of
        // its predecessor chunk as incoming (snapshot *before* any block
        // rewrites its window).
        let incomings = block_incomings(job, &dims, &ends);
        let lens: Vec<usize> = dims.iter().map(BlockDim::len).collect();
        {
            let vr_slices = vr.split_lens(&lens);
            let mut q_rest: &mut [SpecQueue] = &mut queues;
            let mut e_rest: &mut [StateId] = &mut ends;
            let mut c_rest: &mut [u64] = &mut counts;
            let mut blocks: Vec<(usize, VrBlock<'_, '_>)> = Vec::with_capacity(dims.len());
            for (dim, vr_slice) in dims.iter().zip(vr_slices) {
                let (q, qr) = q_rest.split_at_mut(dim.len());
                let (e, er) = e_rest.split_at_mut(dim.len());
                let (c, cr) = c_rest.split_at_mut(dim.len());
                q_rest = qr;
                e_rest = er;
                c_rest = cr;
                blocks.push((
                    dim.len(),
                    VrBlock::new(
                        job,
                        &chunks,
                        dim,
                        incomings[dim.index],
                        q,
                        vr_slice,
                        e,
                        c,
                        policy,
                    ),
                ));
            }
            let mut grid = launch_blocks(job.spec, &mut blocks)
                .unwrap_or_else(|e| panic!("launch_blocks: {e}"));
            // Fault overlay on verification: struck blocks retry with
            // backoff; exhaustion or a tripped misspeculation ladder
            // degrades the block to a sequential re-walk of its window.
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
        scheme: policy.scheme(),
        end_state,
        accepted: job.table.dfa().is_accepting(end_state),
        match_count: job.config.count_matches.then(|| counts.iter().sum()),
        frontier_trace,
        chunk_ends: ends,
        predict: predict_stats,
        execute: exec_stats,
        verify,
        verification_checks: checks,
        verification_matches: matches,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VrPhase {
    Verify,
    Recover,
}

/// One block's verification-and-recovery loop over chunks
/// `base..base+n_local`, indexed by global thread/chunk id.
struct VrBlock<'a, 'j> {
    job: &'a Job<'j>,
    chunks: &'a [Range<usize>],
    base: usize,
    n_local: usize,
    /// End state forwarded into the block's first chunk: ground truth for
    /// block 0 (whose first chunk ran from the machine's start state),
    /// block-level speculation for every other block.
    incoming: StateId,
    /// Block 0's first chunk needs no verification (its start is certain).
    trusted_first: bool,
    queues: &'a mut [SpecQueue],
    vr: VrSlice<'a>,
    /// End states as of the last barrier (what `end_state_comm` returns).
    ends_prev: Vec<StateId>,
    /// End states being written this round.
    ends_cur: &'a mut [StateId],
    /// Match count associated with each chunk's current end value (the
    /// output-function tally of the record or re-execution that set it).
    counts_cur: &'a mut [u64],
    found: Vec<bool>,
    endp: Vec<StateId>,
    /// Remaining speculative (non-frontier) recoveries per thread.
    spec_budget: Vec<u32>,
    /// The block frontier: local chunks `0..f` are verified (relative to the
    /// block's incoming state).
    f: usize,
    phase: VrPhase,
    policy: RecoveryPolicy,
    /// NF_Sched scan hint: queues before this local chunk id are known
    /// drained (they never refill, so the scan is amortized O(1) — on
    /// hardware this is a shared first-non-empty pointer).
    nf_cursor: usize,
    /// The current recover round's plan, one entry per thread.
    plan: Vec<Planned>,
    /// The current recover round's walks.
    walks: WalkBatch,
    checks: u64,
    matches: u64,
    frontier_trace: Vec<u32>,
}

impl<'a, 'j> VrBlock<'a, 'j> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        job: &'a Job<'j>,
        chunks: &'a [Range<usize>],
        dim: &BlockDim,
        incoming: StateId,
        queues: &'a mut [SpecQueue],
        vr: VrSlice<'a>,
        ends_cur: &'a mut [StateId],
        counts_cur: &'a mut [u64],
        policy: RecoveryPolicy,
    ) -> Self {
        let n_local = dim.len();
        let trusted_first = dim.index == 0;
        VrBlock {
            job,
            chunks,
            base: dim.tids.start,
            n_local,
            incoming,
            trusted_first,
            queues,
            vr,
            ends_prev: ends_cur.to_vec(),
            ends_cur,
            counts_cur,
            found: vec![false; n_local],
            endp: vec![0; n_local],
            spec_budget: vec![job.config.spec_recovery_budget; n_local],
            f: usize::from(trusted_first),
            phase: VrPhase::Verify,
            policy,
            nf_cursor: 0,
            plan: Vec::with_capacity(n_local),
            walks: WalkBatch::default(),
            checks: 0,
            matches: 0,
            frontier_trace: Vec::new(),
        }
    }

    /// Seeding a chunk beyond its record-window capacity is pure waste: the
    /// extra records would be dropped (§IV-C). One slot is taken by the
    /// chunk's own speculative-execution record.
    fn seeding_exhausted(&self, rel: usize) -> bool {
        let tried = self.queues[rel].initial_len() - self.queues[rel].remaining();
        tried > self.job.config.vr_others_registers
    }

    fn verify_round(&mut self, rel: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if (self.trusted_first && rel == 0) || rel < self.f {
            // Verify rounds are cheap (communication + record scan); keeping
            // the verified threads idle here and batching their speculative
            // seeding into the must-be-done recovery rounds hides the
            // seeding cost behind the frontier's unavoidable re-execution
            // (§III-B: "this cost can be hidden by the must-be-done
            // recovery in the frontier").
            return RoundOutcome::IDLE;
        }
        // end_state_comm: receive the predecessor's current end state (the
        // block's speculated incoming for the first local chunk).
        let end_p = if rel == 0 { self.incoming } else { self.ends_prev[rel - 1] };
        ctx.shuffle(1);
        self.endp[rel] = end_p;
        match self.vr.scan(ctx, self.base + rel, end_p) {
            Some(rec) => {
                self.found[rel] = true;
                self.ends_cur[rel] = rec.end;
                self.counts_cur[rel] = rec.matches;
            }
            None => {
                self.found[rel] = false;
            }
        }
        RoundOutcome::ACTIVE
    }

    /// Plans thread `rel`'s recover round. Rear threads follow the SRE
    /// strategy: re-execute the own chunk from the forwarded end state. The
    /// frontier's recovery is must-be-done; other rear threads recover
    /// speculatively, at most `spec_budget` times, and only when no record
    /// already covers their forwarded state. A rear thread with nothing
    /// useful to do on its own chunk, like a non-rear (already verified)
    /// thread, idles under SRE (the one-to-one binding, and the thread
    /// under-utilization the paper attacks) and is reassigned by the
    /// aggressive schemes ([`Self::plan_seed`]) — §III-A: "when thread i
    /// finishes ... it may be assigned to any other chunk j for a
    /// speculative recovery".
    fn plan_recover(&mut self, rel: usize) -> Planned {
        let f = self.f;
        if rel < f || (rel != f && (self.found[rel] || self.spec_budget[rel] == 0)) {
            return self.plan_seed(rel);
        }
        if rel != f {
            self.spec_budget[rel] -= 1;
        }
        let w = self.walks.push(self.chunks[self.base + rel].clone(), [self.endp[rel]]);
        Planned { atomics: 0, probes: 0, walk: Some((Target::Own, w)) }
    }

    /// Plans one speculative-recovery seeding step by a reassigned thread:
    /// pick a chunk past the frontier (RR: round-robin, Algorithm 4 line
    /// 23; NF: nearest non-drained queue, Algorithm 5 lines 29-33) and
    /// dequeue its next speculative state; the thread then executes the
    /// chunk and forwards the record into the owner's `VR^others` window.
    /// All candidates are block-local: the speculation queues live in the
    /// block's shared memory.
    fn plan_seed(&mut self, rel: usize) -> Planned {
        let f = self.f;
        let n = self.n_local;
        debug_assert!(f < n);
        let mut plan = Planned { atomics: 0, probes: 0, walk: None };
        let pick = match self.policy {
            RecoveryPolicy::Sre => None,
            RecoveryPolicy::RoundRobin => match n.saturating_sub(f + 1) {
                0 => None,
                avail => {
                    let cid = f + 1 + rel % avail;
                    if self.seeding_exhausted(cid) {
                        None
                    } else {
                        plan.atomics = 1;
                        self.queues[cid].dequeue_host().map(|st| (cid, st))
                    }
                }
            },
            RecoveryPolicy::NearestFirst => {
                // The shared first-non-empty hint makes the scan amortized
                // O(1); drained queues never refill.
                self.nf_cursor = self.nf_cursor.max(f + 1);
                let mut pick = None;
                while self.nf_cursor < n {
                    let cid = self.nf_cursor;
                    plan.probes += 1; // queue-size probe
                    if !self.seeding_exhausted(cid) && self.queues[cid].remaining() > 0 {
                        plan.atomics = 1;
                        pick = self.queues[cid].dequeue_host().map(|st| (cid, st));
                        break;
                    }
                    self.nf_cursor += 1;
                }
                pick
            }
        };
        if let Some((cid, st)) = pick {
            let w = self.walks.push(self.chunks[self.base + cid].clone(), [st]);
            plan.walk = Some((Target::Other(cid), w));
        }
        plan
    }

    /// Thread `rel`'s planned recover round, charged on its own context:
    /// its dequeue and queue probes, then its walk (credited as recovery),
    /// then its record.
    fn recover_round(&mut self, rel: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let Planned { atomics, probes, walk } = self.plan[rel];
        ctx.atomic(atomics);
        ctx.shared(probes);
        let Some((target, w)) = walk else {
            return RoundOutcome::IDLE;
        };
        let t0 = ctx.cycles();
        let (input, count) = (self.job.input, self.job.config.count_matches);
        self.job.table.charge_walk(ctx, input, &mut self.walks, w, count);
        ctx.credit_recovery(t0);
        let rec = VrRecord {
            start: self.walks.starts(w)[0],
            end: self.walks.ends(w)[0],
            matches: self.walks.matches(w)[0],
        };
        match target {
            Target::Own => {
                self.vr.push_own(self.base + rel, rec);
                if !self.found[rel] {
                    self.ends_cur[rel] = rec.end;
                    self.counts_cur[rel] = rec.matches;
                }
            }
            Target::Other(cid) => self.vr.push_other(ctx, self.base + cid, rec),
        }
        RoundOutcome::RECOVERING
    }
}

/// One thread's recover round, as [`VrBlock::plan_recover`] planned it.
#[derive(Clone, Copy)]
struct Planned {
    /// Speculation-queue dequeues, one atomic each.
    atomics: u64,
    /// NF's queue-size probes, one shared access each.
    probes: u64,
    /// The chunk the thread re-executes and its walk in the round's batch;
    /// `None` idles the thread.
    walk: Option<(Target, usize)>,
}

/// Whose chunk a recovery walk re-executes.
#[derive(Clone, Copy)]
enum Target {
    /// The thread's own chunk: the record is the owner's.
    Own,
    /// Block-local chunk `cid`, seeded into its owner's `VR^others` window.
    Other(usize),
}

impl RoundKernel for VrBlock<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.vr_requirements(threads)
    }

    /// A recover round is planned whole before any thread runs: every
    /// thread's action in thread order — its spec budget, RR's target chunk,
    /// NF's cursor and probes, its dequeue — then all planned walks stepped
    /// together. Planning reads and writes only the budgets, the queues and
    /// the cursor, which no thread's `round` touches, so each plan is what
    /// the thread would have decided in turn.
    fn begin_round(&mut self, _round: u64) {
        if self.phase != VrPhase::Recover {
            return;
        }
        self.walks.clear();
        self.plan.clear();
        for rel in 0..self.n_local {
            let plan = self.plan_recover(rel);
            self.plan.push(plan);
        }
        self.job.table.step_walks(self.job.input, &mut self.walks, self.job.config.count_matches);
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        // `launch_blocks` hands each block kernel block-local thread ids.
        let rel = tid;
        match self.phase {
            VrPhase::Verify => self.verify_round(rel, ctx),
            VrPhase::Recover => self.recover_round(rel, ctx),
        }
    }

    /// Verify rounds (record scans, seeding, speculative recoveries that
    /// overlap verification) vs. must-be-done recovery rounds. Read at the
    /// barrier before `after_sync` flips the state, so each round reports
    /// the mode it actually executed in.
    fn phase(&self) -> Phase {
        match self.phase {
            VrPhase::Verify => Phase::Verify,
            VrPhase::Recover => Phase::Recovery,
        }
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        if self.f == self.n_local {
            // A one-chunk block 0 (one-thread blocks): its chunk ran from
            // the certain start state, so there was nothing to verify.
            return false;
        }
        match self.phase {
            VrPhase::Verify => {
                // Runtime speculation accuracy (Table III) counts the checks
                // that decide each chunk's verification: one per chunk, a
                // match when the chunk was verified from a record, a miss
                // when it needed a must-be-done recovery.
                self.checks += 1;
                let mark = self.found[self.f];
                if mark {
                    // Frontier verified without recovery — and a run of
                    // consecutive matches whose forwarded states chain from
                    // the new truth is verified transitively in the same
                    // round.
                    self.matches += 1;
                    self.f += 1;
                    while self.f < self.n_local
                        && self.found[self.f]
                        && self.endp[self.f] == self.ends_cur[self.f - 1]
                    {
                        self.checks += 1;
                        self.matches += 1;
                        self.f += 1;
                    }
                } else {
                    self.phase = VrPhase::Recover;
                }
                self.ends_prev.copy_from_slice(self.ends_cur);
            }
            VrPhase::Recover => {
                // The frontier's must-be-done recovery resolved chunk f.
                self.ends_prev.copy_from_slice(self.ends_cur);
                self.f += 1;
                self.phase = VrPhase::Verify;
            }
        }
        self.frontier_trace.push((self.base + self.f) as u32);
        self.f < self.n_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::table::DeviceTable;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::DeviceSpec;

    fn check_exact(d: &gspecpal_fsm::Dfa, input: &[u8], n_chunks: usize, policy: RecoveryPolicy) {
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(d, d.n_states());
        let config = SchemeConfig { n_chunks, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, input, config).unwrap();
        let out = run_with_policy(&job, policy);
        assert_eq!(out.end_state, d.run(input), "{policy:?} end state");
        assert_eq!(out.accepted, d.accepts(input), "{policy:?} accept");
        // Every chunk end must be the true prefix state.
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "{policy:?} chunk {i}");
        }
    }

    #[test]
    fn all_policies_exact_on_nonconvergent_div7() {
        let input: Vec<u8> = b"110101011001011101".repeat(16);
        for policy in
            [RecoveryPolicy::Sre, RecoveryPolicy::RoundRobin, RecoveryPolicy::NearestFirst]
        {
            check_exact(&div7(), &input, 16, policy);
        }
    }

    #[test]
    fn all_policies_exact_on_convergent_keywords() {
        let d = keyword_dfa(&[b"attack", b"worm", b"exploit"]).unwrap();
        let mut input = b"benign traffic attack packet worm xx ".repeat(12);
        input.extend_from_slice(b"exploit");
        for policy in
            [RecoveryPolicy::Sre, RecoveryPolicy::RoundRobin, RecoveryPolicy::NearestFirst]
        {
            check_exact(&d, &input, 8, policy);
        }
    }

    #[test]
    fn all_policies_exact_across_block_boundaries() {
        // 200 chunks on a 64-thread device: a 4-block grid with block-level
        // speculation and a boundary stitch — still bit-exact.
        let input: Vec<u8> = b"110101011001011101".repeat(64);
        for policy in
            [RecoveryPolicy::Sre, RecoveryPolicy::RoundRobin, RecoveryPolicy::NearestFirst]
        {
            check_exact(&div7(), &input, 200, policy);
        }
        let d = keyword_dfa(&[b"attack", b"worm"]).unwrap();
        let input = b"benign traffic attack packet worm xx ".repeat(40);
        for policy in
            [RecoveryPolicy::Sre, RecoveryPolicy::RoundRobin, RecoveryPolicy::NearestFirst]
        {
            check_exact(&d, &input, 150, policy);
        }
    }

    #[test]
    fn sre_recovery_is_narrow_on_nonconvergent_machines() {
        // div7 defeats end-state forwarding, so after the single speculative
        // wave SRE degenerates to ~1 active thread per recovery round —
        // exactly the Table III behaviour the paper's heuristics fix.
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(32);
        let config = SchemeConfig { n_chunks: 32, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let sre = run_with_policy(&job, RecoveryPolicy::Sre);
        let rr = run_with_policy(&job, RecoveryPolicy::RoundRobin);
        assert!(
            rr.avg_active_threads_during_recovery()
                > 2.0 * sre.avg_active_threads_during_recovery(),
            "RR must activate far more threads than SRE (rr={}, sre={})",
            rr.avg_active_threads_during_recovery(),
            sre.avg_active_threads_during_recovery()
        );
    }

    #[test]
    fn aggressive_schemes_boost_accuracy_on_nonconvergent_machines() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(32);
        let config = SchemeConfig { n_chunks: 32, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let sre = run_with_policy(&job, RecoveryPolicy::Sre);
        let nf = run_with_policy(&job, RecoveryPolicy::NearestFirst);
        assert!(
            nf.runtime_accuracy() > sre.runtime_accuracy(),
            "NF accuracy {} must beat SRE {}",
            nf.runtime_accuracy(),
            sre.runtime_accuracy()
        );
    }

    #[test]
    fn single_chunk_degenerates_gracefully() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input = b"1101011";
        let config = SchemeConfig { n_chunks: 1, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, input, config).unwrap();
        for policy in
            [RecoveryPolicy::Sre, RecoveryPolicy::RoundRobin, RecoveryPolicy::NearestFirst]
        {
            let out = run_with_policy(&job, policy);
            assert_eq!(out.end_state, d.run(input));
            assert_eq!(out.verification_checks, 0);
        }
    }
}
