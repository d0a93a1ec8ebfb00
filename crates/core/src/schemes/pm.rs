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
//! The merge and the walk are block-scoped: every block merges and walks
//! its own window, and [`verify_phase`] runs the walk's blocks and stitches
//! their seams.

use gspecpal_gpu::{
    launch_blocks, BlockRequirements, KernelStats, Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::common::{exec_phase, verify_phase, Window, WindowKernel};
use crate::schemes::Job;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let k = job.config.spec_k as u64;
    let phase = exec_phase(job, job.config.spec_k);
    let merge = merge_cost(job, phase.chunks.len(), k);
    verify_phase(job, phase, SchemeKind::Pm, merge, |w| {
        let mut walk = PmWalk { k, cursor: usize::from(w.base == 0) };
        // Advance through merge-verified chunks before deciding whether the
        // block needs a walker at all.
        walk.skip_matches(w);
        (walk.cursor < w.len()).then_some(walk)
    })
}

/// Phase 2: the parallel tree-like merge, one per verification block —
/// log2(B) rounds, every thread forwarding k end states and checking k
/// received ones. (A one-chunk block has nothing to merge.)
fn merge_cost(job: &Job<'_>, n: usize, k: u64) -> KernelStats {
    if n <= 1 {
        return KernelStats::default();
    }
    let mut merges: Vec<(usize, MergeKernel)> = job
        .vr_dims(n)
        .iter()
        .filter(|d| d.len() > 1)
        .map(|d| (d.len(), MergeKernel { k, rounds_left: d.len().next_power_of_two().ilog2() }))
        .collect();
    if merges.is_empty() {
        return KernelStats::default();
    }
    launch_blocks(job.spec, &mut merges).unwrap_or_else(|e| panic!("launch_blocks: {e}")).fold()
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

/// Phase 3 in one block: walks the block's speculated ground truth chunk by
/// chunk. Chunks whose k-path record set contains the incoming verified
/// state cost nothing here (already verified and composed in the merge);
/// every miss runs a one-thread recovery round.
struct PmWalk {
    k: u64,
    cursor: usize,
}

impl PmWalk {
    /// Consumes the run of chunks (starting at `cursor`) whose records cover
    /// the incoming verified end state. Host-side: the device already paid
    /// for these checks in the merge rounds.
    fn skip_matches(&mut self, w: &mut Window<'_>) {
        while self.cursor < w.len() {
            let Some(rec) = w.vr.find(w.base + self.cursor, w.entering(self.cursor)) else {
                break;
            };
            w.checks += 1;
            w.matches += 1;
            w.ends[self.cursor] = rec.end;
            self.cursor += 1;
        }
    }
}

impl WindowKernel for PmWalk {
    fn round(&mut self, w: &mut Window<'_>, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid != self.cursor {
            return RoundOutcome::IDLE;
        }
        ctx.shuffle(1);
        ctx.alu(self.k); // re-check the k paths against the verified state
        w.checks += 1;
        w.recover(ctx, tid, w.entering(tid))
    }

    fn after_sync(&mut self, w: &mut Window<'_>) -> bool {
        self.cursor += 1;
        self.skip_matches(w);
        w.frontier_trace.push((w.base + self.cursor) as u32);
        self.cursor < w.len()
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
