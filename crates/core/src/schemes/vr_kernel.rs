//! The verification-and-recovery kernel behind SRE, RR and NF (Algorithms
//! 3, 4 and 5).
//!
//! All three schemes run the same barrier loop: a *verify* round in which
//! every unverified thread receives its predecessor's current end state
//! (`end_state_comm`) and scans its chunk's records for a match, followed —
//! only when the frontier chunk itself mismatched (`mark == false`, the
//! must-be-done case) — by a *recovery* round. They differ exactly where the
//! paper says they differ: in who re-executes what during recovery
//! ([`RecoveryPolicy`]). Each verification block runs the loop over its own
//! window; [`verify_phase`] runs the blocks and stitches their seams.

use gspecpal_fsm::StateId;
use gspecpal_gpu::{KernelStats, Phase, RoundOutcome, ThreadCtx};

use crate::records::VrRecord;
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::{exec_phase, verify_phase, Window, WindowKernel};
use crate::schemes::Job;
use crate::specq::SpecQueue;
use crate::table::WalkBatch;

/// Which recovery scheduling heuristic the kernel applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecoveryPolicy {
    /// SRE, Algorithm 3 (from \[21\]): threads stay bound to their own chunks
    /// and re-execute them from the end state forwarded by the predecessor
    /// — a good guess exactly when the FSM converges quickly (Δ_End in
    /// Equation 4). A thread does this *speculative* recovery at most
    /// `spec_recovery_budget` times; afterwards only the frontier's
    /// must-be-done recovery keeps running, the ≈1 active thread Table III
    /// reports on non-convergent FSMs.
    Sre,
    /// RR, Algorithm 4: rear threads (`tid ≥ f`) behave like SRE; verified
    /// (non-rear) threads are reassigned round-robin over chunks `f+1..N`
    /// and re-execute them from the next states of their speculation queues,
    /// forwarding each record into the owner's `VR^others` window (Fig 5).
    /// The extra coverage raises the chance that the frontier's forwarded
    /// state hits a record (Δ_Specs in Equation 4).
    RoundRobin,
    /// NF, Algorithm 5: non-rear threads drain the speculation queues
    /// nearest to the frontier first (`NF_Sched`), piling many threads —
    /// often whole warps, whose input loads coalesce — onto the same chunk.
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
    let mut phase = exec_phase(job, 1);
    // Each block takes its window's speculation queues, in block order.
    let mut queues = std::mem::take(&mut phase.queues).into_iter();
    verify_phase(job, phase, policy.scheme(), KernelStats::default(), |w| {
        Some(VrBlock::new(w, queues.by_ref().take(w.len()).collect(), policy))
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VrPhase {
    Verify,
    Recover,
}

/// One block's verification-and-recovery loop over its window, indexed by
/// block-local chunk id.
struct VrBlock {
    queues: Vec<SpecQueue>,
    /// End states as of the last barrier (what `end_state_comm` returns).
    ends_prev: Vec<StateId>,
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
}

impl VrBlock {
    fn new(w: &Window<'_>, queues: Vec<SpecQueue>, policy: RecoveryPolicy) -> Self {
        let n_local = w.len();
        VrBlock {
            queues,
            ends_prev: w.ends.to_vec(),
            found: vec![false; n_local],
            endp: vec![0; n_local],
            spec_budget: vec![w.job.config.spec_recovery_budget; n_local],
            // Block 0's first chunk needs no verification (its start is
            // certain).
            f: usize::from(w.base == 0),
            phase: VrPhase::Verify,
            policy,
            nf_cursor: 0,
            plan: Vec::with_capacity(n_local),
            walks: WalkBatch::default(),
        }
    }

    /// Seeding a chunk beyond its record-window capacity is pure waste: the
    /// extra records would be dropped (§IV-C). One slot is taken by the
    /// chunk's own speculative-execution record.
    fn seeding_exhausted(&self, w: &Window<'_>, rel: usize) -> bool {
        let tried = self.queues[rel].initial_len() - self.queues[rel].remaining();
        tried > w.job.config.vr_others_registers
    }

    fn verify_round(
        &mut self,
        w: &mut Window<'_>,
        rel: usize,
        ctx: &mut ThreadCtx<'_>,
    ) -> RoundOutcome {
        if rel < self.f {
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
        let end_p = if rel == 0 { w.incoming } else { self.ends_prev[rel - 1] };
        ctx.shuffle(1);
        self.endp[rel] = end_p;
        match w.vr.scan(ctx, w.base + rel, end_p) {
            Some(rec) => {
                self.found[rel] = true;
                w.ends[rel] = rec.end;
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
    fn plan_recover(&mut self, w: &Window<'_>, rel: usize) -> Planned {
        let f = self.f;
        if rel < f || (rel != f && (self.found[rel] || self.spec_budget[rel] == 0)) {
            return self.plan_seed(w, rel);
        }
        if rel != f {
            self.spec_budget[rel] -= 1;
        }
        let walk = self.walks.push(w.chunks[w.base + rel].clone(), [self.endp[rel]]);
        Planned { atomics: 0, probes: 0, walk: Some((Target::Own, walk)) }
    }

    /// Plans one speculative-recovery seeding step by a reassigned thread:
    /// pick a chunk past the frontier (RR: round-robin, Algorithm 4 line
    /// 23; NF: nearest non-drained queue, Algorithm 5 lines 29-33) and
    /// dequeue its next speculative state; the thread then executes the
    /// chunk and forwards the record into the owner's `VR^others` window.
    /// All candidates are block-local: the speculation queues live in the
    /// block's shared memory.
    fn plan_seed(&mut self, w: &Window<'_>, rel: usize) -> Planned {
        let f = self.f;
        let n = w.len();
        debug_assert!(f < n);
        let mut plan = Planned { atomics: 0, probes: 0, walk: None };
        let pick = match self.policy {
            RecoveryPolicy::Sre => None,
            RecoveryPolicy::RoundRobin => match n.saturating_sub(f + 1) {
                0 => None,
                avail => {
                    let cid = f + 1 + rel % avail;
                    if self.seeding_exhausted(w, cid) {
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
                    if !self.seeding_exhausted(w, cid) && self.queues[cid].remaining() > 0 {
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
            let walk = self.walks.push(w.chunks[w.base + cid].clone(), [st]);
            plan.walk = Some((Target::Other(cid), walk));
        }
        plan
    }

    /// Thread `rel`'s planned recover round, charged on its own context:
    /// its dequeue and queue probes, then its walk (credited as recovery),
    /// then its record.
    fn recover_round(
        &mut self,
        w: &mut Window<'_>,
        rel: usize,
        ctx: &mut ThreadCtx<'_>,
    ) -> RoundOutcome {
        let Planned { atomics, probes, walk } = self.plan[rel];
        ctx.atomic(atomics);
        ctx.shared(probes);
        let Some((target, walk)) = walk else {
            return RoundOutcome::IDLE;
        };
        let t0 = ctx.cycles();
        w.job.table.charge_walk(ctx, w.job.input, &mut self.walks, walk);
        ctx.credit_recovery(t0);
        let rec = VrRecord::new(self.walks.starts(walk)[0], self.walks.ends(walk)[0]);
        match target {
            Target::Own => {
                w.vr.push_own(w.base + rel, rec);
                if !self.found[rel] {
                    w.ends[rel] = rec.end;
                }
            }
            Target::Other(cid) => w.vr.push_other(ctx, w.base + cid, rec),
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

impl WindowKernel for VrBlock {
    /// A recover round is planned whole before any thread runs: every
    /// thread's action in thread order — its spec budget, RR's target chunk,
    /// NF's cursor and probes, its dequeue — then all planned walks stepped
    /// together. Planning reads and writes only the budgets, the queues and
    /// the cursor, which no thread's `round` touches, so each plan is what
    /// the thread would have decided in turn.
    fn begin_round(&mut self, w: &mut Window<'_>) {
        if self.phase != VrPhase::Recover {
            return;
        }
        self.walks.clear();
        self.plan.clear();
        for rel in 0..w.len() {
            let plan = self.plan_recover(w, rel);
            self.plan.push(plan);
        }
        w.job.table.step_walks(w.job.input, &mut self.walks);
    }

    /// `launch_blocks` hands each block kernel block-local thread ids.
    fn round(&mut self, w: &mut Window<'_>, rel: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        match self.phase {
            VrPhase::Verify => self.verify_round(w, rel, ctx),
            VrPhase::Recover => self.recover_round(w, rel, ctx),
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

    fn after_sync(&mut self, w: &mut Window<'_>) -> bool {
        let n_local = w.len();
        if self.f == n_local {
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
                w.checks += 1;
                let mark = self.found[self.f];
                if mark {
                    // Frontier verified without recovery — and a run of
                    // consecutive matches whose forwarded states chain from
                    // the new truth is verified transitively in the same
                    // round.
                    w.matches += 1;
                    self.f += 1;
                    while self.f < n_local
                        && self.found[self.f]
                        && self.endp[self.f] == w.ends[self.f - 1]
                    {
                        w.checks += 1;
                        w.matches += 1;
                        self.f += 1;
                    }
                } else {
                    self.phase = VrPhase::Recover;
                }
                self.ends_prev.copy_from_slice(w.ends);
            }
            VrPhase::Recover => {
                // The frontier's must-be-done recovery resolved chunk f.
                self.ends_prev.copy_from_slice(w.ends);
                self.f += 1;
                self.phase = VrPhase::Verify;
            }
        }
        w.frontier_trace.push((w.base + self.f) as u32);
        self.f < n_local
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
