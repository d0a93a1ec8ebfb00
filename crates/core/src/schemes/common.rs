//! Machinery shared by the speculative schemes: the prediction + parallel
//! speculative execution phases (Algorithm 2 lines 2-7), and the
//! verification & recovery driver of the five walk schemes.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    block_dims_width, launch_blocks, launch_grid, BlockDim, BlockRequirements, FaultDomain,
    KernelStats, Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::predict::{predict, Prediction, LOOKBACK};
use crate::records::{VrRecord, VrSlice, VrStore};
use crate::recovery::{apply_grid_recovery, BlockRecoveryCtx};
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::stitch::{block_incomings, stitch_blocks};
use crate::schemes::Job;
use crate::specq::SpecQueue;
use crate::table::WalkBatch;

/// Result of the common prediction + speculative execution phases.
pub struct ExecPhase {
    /// Chunk ranges `Π`.
    pub chunks: Vec<Range<usize>>,
    /// Speculation queues `QS_i` (partially dequeued by the exec phase).
    pub queues: Vec<SpecQueue>,
    /// Record store `VR` seeded with the speculative execution results.
    pub vr: VrStore,
    /// Current best-guess end state per chunk (the end of the top-ranked
    /// speculative path).
    pub ends: Vec<StateId>,
    /// The start state each chunk's primary path speculated.
    pub spec_starts: Vec<StateId>,
    /// Prediction kernel cost (`C`).
    pub predict_stats: KernelStats,
    /// Speculative execution kernel cost (`T_par`, with the spec-k
    /// redundancy factor α_k baked in when `k > 1`).
    pub exec_stats: KernelStats,
}

/// Runs prediction and the parallel speculative execution with `k` paths per
/// thread (`k = 1` for everything except PM).
pub fn exec_phase(job: &Job<'_>, k: usize) -> ExecPhase {
    let chunks = job.chunks();
    let Prediction { mut queues, stats: predict_stats } =
        predict(job.table.dfa(), job.input, &chunks, LOOKBACK, job.spec);
    // PM stores its k speculative paths in the thread's own registers, so the
    // own-record window must fit them.
    let own_cap = job.config.vr_end_registers.max(k);
    let mut vr = VrStore::new(chunks.len(), own_cap, job.config.vr_others_registers);
    let mut kernel = ExecKernel {
        job,
        chunks: &chunks,
        queues: &mut queues,
        vr: vr.split_lens(&[chunks.len()]).remove(0),
        k,
        tids: 0..0,
        ends: vec![0; chunks.len()],
        spec_starts: vec![0; chunks.len()],
        dequeues: Vec::new(),
        walks: WalkBatch::default(),
    };
    let mut grid = launch_grid(job.spec, chunks.len(), &mut kernel)
        .unwrap_or_else(|e| panic!("launch_grid: {e}"));
    // Fault overlay: charge retries/backoff/degradation onto struck blocks
    // (a no-op without a fault plan — `fold` then reports the plain launch
    // bit-for-bit). A degraded block's sequential re-exec walks the block's
    // chunk window from the first chunk's speculated start.
    let dims = block_dims_width(grid.width as usize, chunks.len());
    let ctxs: Vec<BlockRecoveryCtx> = dims
        .iter()
        .map(|d| BlockRecoveryCtx {
            window: chunks[d.tids.start].start..chunks[d.tids.end - 1].end,
            start: kernel.spec_starts[d.tids.start],
            checks: 0,
            matches: 0,
        })
        .collect();
    apply_grid_recovery(job, FaultDomain::Exec, &mut grid, &ctxs);
    let exec_stats = grid.fold();
    let mut ends = kernel.ends;
    let spec_starts = kernel.spec_starts;
    // Speculative-state corruption: poison the struck chunk's records (their
    // starts become unmatchable, so every verification scan misses) and skew
    // its speculated end (so any consumer trusting it — block incomings —
    // mispredicts). Verification and the boundary stitch must catch both;
    // chunk 0 is never corrupted because its start is ground truth.
    if let Some(plan) = job.config.faults {
        if plan.corrupt_permille > 0 {
            let n_states = job.table.dfa().n_states();
            for (cid, end) in ends.iter_mut().enumerate().take(chunks.len()).skip(1) {
                if plan.corrupts(cid) {
                    vr.poison_chunk(cid, StateId::MAX);
                    if n_states > 1 {
                        *end = (*end + 1) % n_states;
                    }
                }
            }
        }
    }
    ExecPhase { chunks, queues, vr, ends, spec_starts, predict_stats, exec_stats }
}

/// The speculative execution grid: chunks are one-to-one with threads and
/// share nothing, so each thread writes its results by global id.
///
/// A block's one round is planned in `begin_round`: every thread's
/// dequeues, in thread order, then all of the block's walks stepped
/// together ([`crate::table::DeviceTable::step_walks`]). `round` charges
/// each thread what its dequeues and its walk cost and records its paths.
struct ExecKernel<'a> {
    job: &'a Job<'a>,
    chunks: &'a [Range<usize>],
    queues: &'a mut [SpecQueue],
    vr: VrSlice<'a>,
    k: usize,
    /// The global ids of the block being simulated.
    tids: Range<usize>,
    ends: Vec<StateId>,
    spec_starts: Vec<StateId>,
    /// Per thread of the block: the dequeue calls it made, one atomic each.
    dequeues: Vec<u64>,
    /// Walk `rel` is the block's thread `rel`'s chunk from its dequeued
    /// starts.
    walks: WalkBatch,
}

impl RoundKernel for ExecKernel<'_> {
    fn begin_block(&mut self, dim: &BlockDim) {
        self.tids = dim.tids.clone();
    }

    fn begin_round(&mut self, _round: u64) {
        self.walks.clear();
        self.dequeues.clear();
        for (rel, q) in self.queues[self.tids.clone()].iter_mut().enumerate() {
            // Dequeue up to k speculative start states (chunk 0 has exactly
            // one, the machine's certain start state); the call that finds
            // the queue empty costs its atomic too.
            let mut calls = 0;
            let starts = std::iter::from_fn(|| {
                (calls < self.k).then(|| {
                    calls += 1;
                    q.dequeue_host()
                })?
            });
            self.walks.push(self.chunks[self.tids.start + rel].clone(), starts);
            debug_assert!(!self.walks.starts(rel).is_empty(), "the lookback queue is never empty");
            self.dequeues.push(calls as u64);
        }
        self.job.table.step_walks(self.job.input, &mut self.walks);
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let rel = tid - self.tids.start;
        ctx.atomic(self.dequeues[rel]);
        self.job.table.charge_walk(ctx, self.job.input, &mut self.walks, rel);
        let (starts, ends) = (self.walks.starts(rel), self.walks.ends(rel));
        for (&start, &end) in starts.iter().zip(ends) {
            self.vr.push_own(tid, VrRecord::new(start, end));
        }
        self.spec_starts[tid] = starts[0];
        self.ends[tid] = ends[0];
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.exec_requirements(threads)
    }
}

/// The verification & recovery phase of Naive, PM, SRE, RR and NF, and the
/// run's outcome.
///
/// The verification kernel's blocks each walk their own [`Window`] from a
/// block-level speculated incoming state ([`block_incomings`]); only shared
/// memory and barriers inside a block are cooperative. `make` builds each
/// block's kernel, in block order, and returns `None` for a block that has
/// no work left (PM settles merge-verified blocks host-side). The blocks with
/// work run as one grid, the fault overlay strikes them as verification
/// blocks ([`apply_grid_recovery`]), and the boundary stitch validates the
/// block seams ([`stitch_blocks`]). `verify` is what verification cost before
/// the walk (PM's tree merge).
pub(crate) fn verify_phase<K: WindowKernel>(
    job: &Job<'_>,
    phase: ExecPhase,
    scheme: SchemeKind,
    mut verify: KernelStats,
    mut make: impl FnMut(&mut Window<'_>) -> Option<K>,
) -> RunOutcome {
    let ExecPhase { chunks, mut vr, mut ends, predict_stats, exec_stats, .. } = phase;
    let n = chunks.len();
    let mut checks = 0u64;
    let mut matches = 0u64;
    let mut frontier_trace = Vec::new();

    if n > 1 {
        let dims = job.vr_dims(n);
        // Snapshot the incomings before any block rewrites its window.
        let incomings = block_incomings(job, &dims, &ends);
        let segments: Vec<(Range<usize>, StateId)> =
            dims.iter().map(|d| (d.tids.clone(), incomings[d.index])).collect();
        {
            let mut windows = windows(job, &chunks, &segments, &mut vr, &mut ends);
            let mut blocks: Vec<(usize, OnWindow<'_, '_, K>)> = windows
                .iter_mut()
                .filter_map(|w| {
                    let k = make(w)?;
                    Some((w.len(), OnWindow { w, k }))
                })
                .collect();
            if !blocks.is_empty() {
                let mut grid = launch_blocks(job.spec, &mut blocks)
                    .unwrap_or_else(|e| panic!("launch_blocks: {e}"));
                // Fault overlay: a struck block retries with backoff and, on
                // exhaustion (or a tripped misspeculation ladder), degrades
                // to a sequential re-walk of its window from its incoming
                // state.
                let ctxs: Vec<BlockRecoveryCtx> =
                    blocks.iter().map(|(_, b)| b.w.recovery_ctx()).collect();
                apply_grid_recovery(job, FaultDomain::Verify, &mut grid, &ctxs);
                verify.merge_sequential(&grid.fold());
            }
            for w in &windows {
                checks += w.checks;
                matches += w.matches;
                frontier_trace.extend_from_slice(&w.frontier_trace);
            }
        }
        let stitched = stitch_blocks(job, &chunks, &dims, &incomings, &mut vr, &mut ends);
        verify.merge_sequential(&stitched.stats);
        checks += stitched.checks;
        matches += stitched.matches;
    }

    let end_state = *ends.last().expect("at least one chunk");
    RunOutcome {
        scheme,
        end_state,
        accepted: job.table.dfa().is_accepting(end_state),
        frontier_trace,
        chunk_ends: ends,
        predict: predict_stats,
        execute: exec_stats,
        verify,
        verification_checks: checks,
        verification_matches: matches,
    }
}

/// One block's window of the job's verification state: its chunks' records
/// and end states, the state its first chunk is entered from, and the
/// checks, matches and frontier advances made on it. Records are addressed
/// by global chunk id, end states by local index.
pub(crate) struct Window<'a> {
    pub job: &'a Job<'a>,
    pub chunks: &'a [Range<usize>],
    /// Global id of the window's first chunk.
    pub base: usize,
    /// The state the first chunk is entered from: the machine's start state
    /// in block 0, block-level speculation in the others, the true boundary
    /// state in a stitch fix-up.
    pub incoming: StateId,
    pub vr: VrSlice<'a>,
    pub ends: &'a mut [StateId],
    pub checks: u64,
    pub matches: u64,
    pub frontier_trace: Vec<u32>,
}

impl Window<'_> {
    /// Chunks in the window.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The state local chunk `rel` is entered from: its predecessor's end.
    pub fn entering(&self, rel: usize) -> StateId {
        if rel == 0 {
            self.incoming
        } else {
            self.ends[rel - 1]
        }
    }

    /// One verification check of local chunk `rel` against its verified
    /// incoming `state`, received from the predecessor by a shuffle: a
    /// record starting at `state` is reused, a miss re-executes the chunk.
    pub fn resolve(&mut self, ctx: &mut ThreadCtx<'_>, rel: usize, state: StateId) -> RoundOutcome {
        ctx.shuffle(1);
        self.checks += 1;
        match self.vr.scan(ctx, self.base + rel, state) {
            Some(rec) => {
                self.matches += 1;
                self.ends[rel] = rec.end;
                RoundOutcome::ACTIVE
            }
            None => self.recover(ctx, rel, state),
        }
    }

    /// Must-be-done recovery: re-executes local chunk `rel` from the
    /// verified `state`, credited as recovery, and keeps its record.
    pub fn recover(&mut self, ctx: &mut ThreadCtx<'_>, rel: usize, state: StateId) -> RoundOutcome {
        let cid = self.base + rel;
        let t0 = ctx.cycles();
        let end = self.job.table.run_chunk(ctx, self.job.input, self.chunks[cid].clone(), state);
        ctx.credit_recovery(t0);
        self.vr.push_own(cid, VrRecord::new(state, end));
        self.ends[rel] = end;
        RoundOutcome::RECOVERING
    }

    /// What the fault overlay needs to strike this window's block.
    fn recovery_ctx(&self) -> BlockRecoveryCtx {
        BlockRecoveryCtx {
            window: self.chunks[self.base].start..self.chunks[self.base + self.len() - 1].end,
            start: self.incoming,
            checks: self.checks,
            matches: self.matches,
        }
    }
}

/// Splits the per-chunk state into one [`Window`] per `(chunks, incoming)`
/// segment. Segments are ascending and disjoint; chunks between them belong
/// to no window.
pub(crate) fn windows<'a>(
    job: &'a Job<'a>,
    chunks: &'a [Range<usize>],
    segments: &[(Range<usize>, StateId)],
    vr: &'a mut VrStore,
    mut ends: &'a mut [StateId],
) -> Vec<Window<'a>> {
    // Cover every chunk with alternating gap and window pieces, so the record
    // store and the result arrays split into disjoint views.
    let mut pieces: Vec<(usize, Option<StateId>)> = Vec::with_capacity(2 * segments.len() + 1);
    let mut pos = 0;
    for (range, incoming) in segments {
        if range.start > pos {
            pieces.push((range.start - pos, None));
        }
        pieces.push((range.len(), Some(*incoming)));
        pos = range.end;
    }
    if pos < ends.len() {
        pieces.push((ends.len() - pos, None));
    }
    let lens: Vec<usize> = pieces.iter().map(|p| p.0).collect();
    let mut out = Vec::with_capacity(segments.len());
    let mut base = 0;
    for ((len, incoming), vr) in pieces.into_iter().zip(vr.split_lens(&lens)) {
        let (e, e_rest) = ends.split_at_mut(len);
        ends = e_rest;
        if let Some(incoming) = incoming {
            out.push(Window {
                job,
                chunks,
                base,
                incoming,
                vr,
                ends: e,
                checks: 0,
                matches: 0,
                frontier_trace: Vec::new(),
            });
        }
        base += len;
    }
    out
}

/// A block kernel's own control flow over a [`Window`] that holds the job's
/// state: [`RoundKernel`]'s methods with the window passed in.
pub(crate) trait WindowKernel {
    fn begin_round(&mut self, _w: &mut Window<'_>) {}
    fn round(&mut self, w: &mut Window<'_>, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome;
    fn after_sync(&mut self, w: &mut Window<'_>) -> bool;
    fn phase(&self) -> Phase;
}

/// A [`WindowKernel`] launched on its window, with the verification
/// kernel's per-block resources.
pub(crate) struct OnWindow<'w, 'a, K> {
    pub w: &'w mut Window<'a>,
    pub k: K,
}

impl<K: WindowKernel> RoundKernel for OnWindow<'_, '_, K> {
    fn begin_round(&mut self, _round: u64) {
        self.k.begin_round(self.w);
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        self.k.round(self.w, tid, ctx)
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.k.after_sync(self.w)
    }

    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.w.job.vr_requirements(threads)
    }

    fn phase(&self) -> Phase {
        self.k.phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::table::DeviceTable;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::DeviceSpec;

    #[test]
    fn exec_phase_records_speculative_paths() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"1011010110101101".repeat(4);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let phase = exec_phase(&job, 1);
        assert_eq!(phase.ends.len(), 8);
        // Chunk 0 ran from the real start: its end is ground truth.
        let truth0 = d.run(&input[phase.chunks[0].clone()]);
        assert_eq!(phase.ends[0], truth0);
        // Every chunk has exactly one record matching its speculation.
        let mut vr = phase.vr.clone();
        let all = vr.split_lens(&[8]).remove(0);
        for i in 0..8 {
            assert_eq!(phase.vr.len(i), 1);
            assert_eq!(all.find(i, phase.spec_starts[i]).map(|r| r.end), Some(phase.ends[i]));
        }
        assert!(phase.exec_stats.cycles > 0);
    }

    #[test]
    fn spec_k_multiplies_table_work_not_input_loads() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"10110101".repeat(32);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let k1 = exec_phase(&job, 1);
        let k4 = exec_phase(&job, 4);
        assert!(k4.exec_stats.shared_accesses > 3 * k1.exec_stats.shared_accesses);
        assert_eq!(
            k4.exec_stats.global_transactions, k1.exec_stats.global_transactions,
            "input loads are shared across the k paths"
        );
        // The redundancy factor α_k > 1 (Fig 3's premise).
        assert!(k4.exec_stats.cycles > k1.exec_stats.cycles);
    }

    #[test]
    fn spec_k_records_every_path() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"10110101".repeat(32);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let phase = exec_phase(&job, 4);
        // div7 queues hold all 7 residues; with k=4 each non-first chunk gets
        // 4 records.
        for i in 1..8 {
            assert_eq!(phase.vr.len(i), 4, "chunk {i}");
        }
    }
}
