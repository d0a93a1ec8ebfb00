//! Block-boundary stitching for grid-scale verification.
//!
//! A single thread block can host at most `max_threads_per_block` chunks,
//! and the verification kernels are *cooperative*: threads exchange end
//! states through shared memory and `__syncthreads()`, neither of which
//! crosses block boundaries on real hardware. Scaling past one block
//! therefore extends the paper's speculation one level up: each block runs
//! its verification loop assuming the *speculated* exec-phase end of its
//! predecessor chunk as the incoming state (block-level speculation), and a
//! host-driven pass afterwards validates the block boundaries.
//!
//! Two stitch policies exist ([`StitchPolicy`]):
//!
//! * **Sequential** — the original left-to-right seam walk: one dependent
//!   launch per mispredicted block, `O(B)` seam checks on the critical path.
//! * **Tree** — the default: seams compose pair-wise in `log2(B)` rounds,
//!   the multi-block analogue of PM's tree merge. In the round with span
//!   `s`, clusters of `s` blocks are already internally consistent with
//!   their leading block's speculated incoming state (the exec/verify
//!   phases establish this for `s = 1`); the seams between cluster pairs
//!   are checked *concurrently* (one thread per seam), and only a cluster
//!   whose leader's speculation disagrees with its left neighbour's now-
//!   known true boundary state is re-resolved — from the true state, with
//!   record hits settling chunks for the price of a scan, misses running a
//!   must-be-done recovery, and re-resolution stopping early when the
//!   rewritten end state converges with the old one (everything downstream
//!   already chains from it). Mismatched clusters at the same level are
//!   disjoint chunk ranges, so their fix-ups run as concurrent one-thread
//!   blocks, waves sized by the occupancy calculator.
//!
//! When a block's speculated incoming state turns out right (the common
//! case on convergent machines, and guaranteed for block 0), its results
//! are already exact and the stitch costs a seam check. All re-execution is
//! charged through the same simulator as chunk-level recovery.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    launch, launch_blocks, launch_grid, BlockDim, KernelStats, Phase, RoundKernel, RoundOutcome,
    ThreadCtx,
};

use crate::config::StitchPolicy;
use crate::records::VrStore;
use crate::schemes::common::{windows, OnWindow, Window, WindowKernel};
use crate::schemes::Job;

/// What the boundary stitch did: its simulated cost plus the verification
/// checks it performed while re-resolving mispredicted blocks.
pub(crate) struct StitchOutcome {
    pub stats: KernelStats,
    pub checks: u64,
    pub matches: u64,
}

/// The incoming state each block of `dims` starts its first chunk from:
/// the machine's start state for block 0, and for every other block the
/// exec-phase end of its predecessor chunk (block-level speculation, which
/// [`stitch_blocks`] validates afterwards).
pub(crate) fn block_incomings(job: &Job<'_>, dims: &[BlockDim], ends: &[StateId]) -> Vec<StateId> {
    let start = job.table.dfa().start();
    dims.iter().map(|d| if d.index == 0 { start } else { ends[d.tids.start - 1] }).collect()
}

/// Validates every block boundary under the job's [`StitchPolicy`].
/// `incomings[b]` is the state block `b` speculated as its incoming;
/// `ends` holds the per-chunk results the blocks produced under that
/// speculation and is rewritten in place for blocks whose speculation
/// missed.
pub(crate) fn stitch_blocks(
    job: &Job<'_>,
    chunks: &[Range<usize>],
    dims: &[BlockDim],
    incomings: &[StateId],
    vr: &mut VrStore,
    ends: &mut [StateId],
) -> StitchOutcome {
    if dims.len() <= 1 {
        return StitchOutcome { stats: KernelStats::default(), checks: 0, matches: 0 };
    }
    match job.config.stitch {
        StitchPolicy::Sequential => stitch_sequential(job, chunks, dims, incomings, vr, ends),
        StitchPolicy::Tree => stitch_tree(job, chunks, dims, incomings, vr, ends),
    }
}

/// The original left-to-right seam walk: one dependent one-thread launch per
/// mispredicted block.
fn stitch_sequential(
    job: &Job<'_>,
    chunks: &[Range<usize>],
    dims: &[BlockDim],
    incomings: &[StateId],
    vr: &mut VrStore,
    ends: &mut [StateId],
) -> StitchOutcome {
    let mut out = StitchOutcome { stats: KernelStats::default(), checks: 0, matches: 0 };
    for dim in &dims[1..] {
        let true_in = ends[dim.tids.start - 1];
        if true_in == incomings[dim.index] {
            continue; // Block speculation verified: results already exact.
        }
        let segment = [(dim.tids.clone(), true_in)];
        let mut w = windows(job, chunks, &segment, vr, ends).remove(0);
        let stats = launch(job.spec, 1, &mut OnWindow { w: &mut w, k: Fixup::new(false) });
        out.checks += w.checks;
        out.matches += w.matches;
        out.stats.merge_sequential(&stats);
    }
    out
}

/// Pair-wise tree stitch: `log2(B)` rounds of concurrent seam checks, with
/// mismatched clusters re-resolved as concurrent one-thread fix-up blocks.
fn stitch_tree(
    job: &Job<'_>,
    chunks: &[Range<usize>],
    dims: &[BlockDim],
    incomings: &[StateId],
    vr: &mut VrStore,
    ends: &mut [StateId],
) -> StitchOutcome {
    let b = dims.len();
    let mut out = StitchOutcome { stats: KernelStats::default(), checks: 0, matches: 0 };
    let mut span = 1usize;
    while span < b {
        // Seams between cluster pairs: the leading block of every odd
        // cluster at this level. All seams are independent and checked in
        // one concurrent launch (one thread per seam).
        let seams: Vec<usize> = (span..b).step_by(2 * span).collect();
        let seam_grid = launch_grid(job.spec, seams.len(), &mut SeamGrid)
            .unwrap_or_else(|e| panic!("launch_grid: {e}"));
        out.stats.merge_sequential(&seam_grid.fold());

        // Host-side mirror of the seam comparisons: a cluster whose leader
        // speculated the (now known) true boundary state is composed for
        // free; the rest are re-resolved from the true state. Mismatched
        // clusters are disjoint chunk ranges.
        let mut fixups: Vec<(Range<usize>, StateId)> = Vec::new();
        for &right in &seams {
            let lo = dims[right].tids.start;
            let true_in = ends[lo - 1];
            if true_in == incomings[right] {
                continue;
            }
            let last_block = (right + span).min(b) - 1;
            fixups.push((lo..dims[last_block].tids.end, true_in));
        }

        if !fixups.is_empty() {
            let mut windows = windows(job, chunks, &fixups, vr, ends);
            let mut blocks: Vec<(usize, OnWindow<'_, '_, Fixup>)> =
                windows.iter_mut().map(|w| (1, OnWindow { w, k: Fixup::new(true) })).collect();
            let grid = launch_blocks(job.spec, &mut blocks)
                .unwrap_or_else(|e| panic!("launch_blocks: {e}"));
            out.stats.merge_sequential(&grid.fold());
            for w in &windows {
                out.checks += w.checks;
                out.matches += w.matches;
            }
        }
        span *= 2;
    }
    out
}

/// Device cost of one round of concurrent seam checks: each thread receives
/// its left neighbour's boundary state and compares it against the cluster
/// leader's speculation.
struct SeamGrid;

impl RoundKernel for SeamGrid {
    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        ctx.shuffle(1);
        ctx.alu(1);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Stitch
    }
}

/// One-thread re-resolution of a mispredicted block's (sequential policy)
/// or cluster's (tree policy) chunks from the true incoming state: record
/// hits are reused, misses re-executed. The tree's fix-up stops early once a
/// rewritten end state equals the previous one — everything downstream
/// already chains from it.
struct Fixup {
    cursor: usize,
    /// Stop at the first chunk whose end state does not change.
    converge: bool,
    done: bool,
}

impl Fixup {
    fn new(converge: bool) -> Self {
        Fixup { cursor: 0, converge, done: false }
    }
}

impl WindowKernel for Fixup {
    fn round(&mut self, w: &mut Window<'_>, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let rel = self.cursor;
        let old_end = w.ends[rel];
        let outcome = w.resolve(ctx, rel, w.entering(rel));
        self.done = self.converge && w.ends[rel] == old_end;
        outcome
    }

    fn after_sync(&mut self, w: &mut Window<'_>) -> bool {
        self.cursor += 1;
        !self.done && self.cursor < w.len()
    }

    /// All fix-up work — record reuse and re-execution alike — is stitch
    /// time: it exists only because block seams must be validated.
    fn phase(&self) -> Phase {
        Phase::Stitch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::table::DeviceTable;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::div7;
    use gspecpal_fsm::Dfa;
    use gspecpal_gpu::{block_dims_width, DeviceSpec};

    /// Builds a B-block scenario over `width`-chunk blocks where every block
    /// past the first speculated the wrong incoming state `wrong`: per-chunk
    /// ends are what each block would have produced chaining from `wrong`
    /// (block 0 chains from the true start), and the stitch must rewrite
    /// them to the true chain. Returns the dims and the fabricated
    /// (incomings, ends).
    fn wrong_block_scenario(
        d: &Dfa,
        input: &[u8],
        chunks: &[Range<usize>],
        width: usize,
        wrong: StateId,
    ) -> (Vec<BlockDim>, Vec<StateId>, Vec<StateId>) {
        let dims = block_dims_width(width, chunks.len());
        let mut ends = vec![0; chunks.len()];
        for dim in &dims {
            let mut s = if dim.index == 0 { d.start() } else { wrong };
            for cid in dim.tids.clone() {
                s = d.run_from(s, &input[chunks[cid].clone()]);
                ends[cid] = s;
            }
        }
        let incomings: Vec<StateId> =
            dims.iter().map(|d| if d.index == 0 { 0 } else { wrong }).collect();
        (dims, incomings, ends)
    }

    fn truth_chain(d: &Dfa, input: &[u8], chunks: &[Range<usize>]) -> Vec<StateId> {
        let mut s = d.start();
        chunks
            .iter()
            .map(|r| {
                s = d.run_from(s, &input[r.clone()]);
                s
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn stitch_with(
        policy: StitchPolicy,
        d: &Dfa,
        table: &DeviceTable<'_>,
        spec: &DeviceSpec,
        input: &[u8],
        chunks: &[Range<usize>],
        width: usize,
        wrong: StateId,
    ) -> (Vec<StateId>, StitchOutcome) {
        let config =
            SchemeConfig { n_chunks: chunks.len(), stitch: policy, ..SchemeConfig::default() };
        let job = Job::new(spec, table, input, config).unwrap();
        let (dims, incomings, mut ends) = wrong_block_scenario(d, input, chunks, width, wrong);
        let mut vr = VrStore::new(chunks.len(), 16, 16);
        let out = stitch_blocks(&job, chunks, &dims, &incomings, &mut vr, &mut ends);
        (ends, out)
    }

    /// Both policies repair an all-wrong block speculation to the exact
    /// sequential chain. div7's per-byte transition is a permutation of the
    /// state set, so a wrong incoming state *never* converges away — every
    /// fabricated chunk end is genuinely wrong and must be rewritten.
    #[test]
    fn both_policies_repair_wrong_speculation_exactly() {
        let d = div7();
        let spec = DeviceSpec::rtx3090();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1101010110010111".repeat(64);
        let n_chunks = 64;
        let chunks = crate::partition::partition(input.len(), n_chunks);
        let wrong = 3;
        let truth = truth_chain(&d, &input, &chunks);
        // Sanity: the scenario is a real mispredict, not accidental truth.
        let (_, _, fabricated) = wrong_block_scenario(&d, &input, &chunks, 8, wrong);
        assert_ne!(fabricated, truth, "scenario must corrupt the chain");
        for policy in [StitchPolicy::Sequential, StitchPolicy::Tree] {
            let (ends, out) = stitch_with(policy, &d, &table, &spec, &input, &chunks, 8, wrong);
            assert_eq!(ends, truth, "{policy:?}");
            assert!(out.checks > 0, "{policy:?} must have re-resolved chunks");
        }
    }

    /// The tree stitch's cycle cost grows ~logarithmically in the block
    /// count while the sequential walk grows linearly. The scenario is the
    /// paper's common case on a convergent machine: every block speculated a
    /// wrong incoming state, but the machine converged inside the block's
    /// first chunk, so the per-chunk ends are already exact — only the seam
    /// validation (one re-run per mispredicted cluster, converging
    /// immediately) remains. Sequential pays one dependent re-resolution per
    /// seam; the tree pays one *concurrent* fix-up round per level.
    #[test]
    fn tree_stitch_cycles_grow_sublinearly_in_blocks() {
        let d = keyword_dfa(&[b"attack", b"worm"]).unwrap();
        let spec = DeviceSpec::rtx3090();
        let table = DeviceTable::transformed(&d, d.n_states());
        // A state the blocks never actually end in (deep keyword prefix),
        // so every seam check sees a mispredict.
        let wrong = d.n_states() - 1;
        let cycles = |policy: StitchPolicy, n_blocks: usize| {
            let n_chunks = 8 * n_blocks;
            let input = b"benign traffic attack packet worm xx ".repeat(n_chunks);
            let chunks = crate::partition::partition(input.len(), n_chunks);
            let truth = truth_chain(&d, &input, &chunks);
            assert_ne!(truth[chunks.len() / 8 - 1], wrong, "seams must mispredict");
            let config = SchemeConfig { n_chunks, stitch: policy, ..SchemeConfig::default() };
            let job = Job::new(&spec, &table, &input, config).unwrap();
            let dims = block_dims_width(8, n_chunks);
            let incomings: Vec<StateId> =
                dims.iter().map(|d| if d.index == 0 { 0 } else { wrong }).collect();
            // Convergent machine: the blocks' results are exact despite the
            // wrong speculation — the stitch still has to prove it.
            let mut ends = truth.clone();
            let mut vr = VrStore::new(n_chunks, 16, 16);
            let out = stitch_blocks(&job, &chunks, &dims, &incomings, &mut vr, &mut ends);
            assert_eq!(ends, truth, "{policy:?} {n_blocks} blocks");
            out.stats.cycles
        };
        let seq_8 = cycles(StitchPolicy::Sequential, 8);
        let seq_64 = cycles(StitchPolicy::Sequential, 64);
        let tree_8 = cycles(StitchPolicy::Tree, 8);
        let tree_64 = cycles(StitchPolicy::Tree, 64);
        // Sequential: 8x the mispredicted seams => ~8x the cycles.
        assert!(seq_64 >= 6 * seq_8, "sequential grows linearly ({seq_8} -> {seq_64})");
        // Tree: 3 more rounds (log2 64 vs log2 8), not 8x the work.
        assert!(tree_64 <= 4 * tree_8, "tree grows ~log ({tree_8} -> {tree_64})");
        assert!(tree_64 < seq_64, "tree beats sequential at scale ({tree_64} vs {seq_64})");
    }

    /// Correct block speculation costs only the seam checks — no chunk is
    /// rewritten under either policy.
    #[test]
    fn correct_speculation_is_free_of_recovery() {
        let d = keyword_dfa(&[b"attack"]).unwrap();
        let spec = DeviceSpec::rtx3090();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input = b"benign attack stream data ".repeat(16);
        let chunks = crate::partition::partition(input.len(), 32);
        let truth = truth_chain(&d, &input, &chunks);
        for policy in [StitchPolicy::Sequential, StitchPolicy::Tree] {
            let config = SchemeConfig { n_chunks: 32, stitch: policy, ..SchemeConfig::default() };
            let job = Job::new(&spec, &table, &input, config).unwrap();
            let dims = block_dims_width(8, 32);
            // Every block speculated exactly right.
            let incomings: Vec<StateId> = dims
                .iter()
                .map(|d| if d.index == 0 { 0 } else { truth[d.tids.start - 1] })
                .collect();
            let mut ends = truth.clone();
            let mut vr = VrStore::new(32, 16, 16);
            let out = stitch_blocks(&job, &chunks, &dims, &incomings, &mut vr, &mut ends);
            assert_eq!(ends, truth, "{policy:?}");
            assert_eq!(out.stats.recovery_runs, 0, "{policy:?}");
        }
    }
}
