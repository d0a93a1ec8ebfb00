//! Simultaneous Finite Automata (Sin'ya & Matsuzaki \[24\]).
//!
//! The data-parallel rival to speculation: each thread computes its chunk's
//! *complete* state→state mapping, and mappings compose associatively, so
//! connecting chunks is pure function composition — no misprediction, no
//! recovery phase, at the price of up-to-|Q|-fold execution work.
//!
//! Two things separate this from the enumerative reference engine
//! ([`crate::schemes::enumerative`]):
//!
//! * **Effective-width shrinking.** The |Q| simultaneous paths of a chunk
//!   merge whenever two of them reach the same state — merged paths share
//!   their entire suffix, so the walk deduplicates the live path set every
//!   byte and steps only the *distinct* survivors. On hot-state-dominated
//!   FSMs (the regime the paper's frequency transform targets) the live set
//!   collapses into the few hot attractor states within a handful of bytes,
//!   so the per-byte cost is the *effective mapping width*, not |Q| — and
//!   because the transform ranks those survivors first, their rows sit in
//!   shared memory. On permutation-heavy machines nothing merges and the
//!   full |Q|-fold cost stands; that is the honest crossover the selector
//!   reasons about.
//! * **Seam composition on the grid.** Connecting blocks generalizes the
//!   [`crate::config::StitchPolicy::Tree`] stitch from composing *states*
//!   to composing *mappings*: in-block chunk mappings fold pair-wise in
//!   log2(width) rounds, then block mappings compose across seams —
//!   log2(B) concurrent rounds under the tree policy, B−1 dependent
//!   launches under the sequential one. Every seam "check" succeeds by
//!   construction (function composition cannot miss), so the whole phase
//!   is charged to [`Phase::Stitch`] and [`Phase::Recovery`] stays empty
//!   on fault-free runs.
//!
//! Fault handling needs no degradation ladder: a corrupted mapping is
//! poisoned and simply *re-derived* — the mapping is a pure function of
//! (table, chunk bytes), so recomputing it restores the exact result, and
//! the re-derivation cost lands in [`Phase::Recovery`].

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    block_dims_width, launch, launch_blocks, launch_grid, BlockDim, BlockRequirements, FaultDomain,
    GridKernel, KernelStats, Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::config::StitchPolicy;
use crate::recovery::fault_charges;
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::Job;
use crate::table::DeviceTable;

/// Composes two chunk mappings: `inner` is the earlier chunk, `outer` the
/// later one, and the result maps a state *entering* the inner chunk to the
/// state *leaving* the outer one. This is the seam operation of the SFA
/// stitch; it is associative (function composition), which is what makes
/// the log2(B) tree order legal — the property tests pin it down.
pub fn compose_mappings(inner: &[StateId], outer: &[StateId]) -> Vec<StateId> {
    inner.iter().map(|&s| outer[s as usize]).collect()
}

/// One chunk's derived transition function.
struct Derived {
    /// `map[q]` = end state of the chunk when entered in state `q`.
    map: Vec<StateId>,
    /// `counts[q]` = accepting-state visits along that path (zeros when
    /// match counting is off).
    counts: Vec<u64>,
    /// Distinct live paths surviving at the chunk's end — the effective
    /// mapping width the composition kernels pay for.
    eff_width: u32,
}

/// Walks `range` once, maintaining the full state→state mapping with
/// converged-path deduplication. Device cost per byte: one input load
/// (shared across paths, like the spec-k kernel), one table step per
/// *distinct* live path, and one compare per path for the convergence
/// check; each merge epoch additionally pays the |Q|-entry indirection
/// rewrite, and the chunk ends with one |Q|-entry write-back of the
/// assembled mapping.
fn derive_mapping(
    table: &DeviceTable<'_>,
    ctx: &mut ThreadCtx<'_>,
    input: &[u8],
    range: Range<usize>,
    count_matches: bool,
) -> Derived {
    let n = table.dfa().n_states() as usize;
    // Distinct live paths (state + matches since the path's creation).
    let mut paths: Vec<StateId> = (0..n as StateId).collect();
    let mut path_matches: Vec<u64> = vec![0; n];
    // Per original start state: which live path it rides, and its match
    // offset relative to that path's own counter.
    let mut ptr: Vec<u32> = (0..n as u32).collect();
    let mut offset: Vec<i64> = vec![0; n];
    // Generation-stamped duplicate detector (no per-byte clearing).
    let mut seen: Vec<u32> = vec![0; n];
    let mut stamp: Vec<u64> = vec![0; n];
    let mut generation = 0u64;
    let mut new_idx: Vec<u32> = vec![0; n];
    let mut delta: Vec<i64> = vec![0; n];

    for pos in range {
        let b = table.load_input(ctx, input, pos);
        for (s, m) in paths.iter_mut().zip(path_matches.iter_mut()) {
            *s = table.step(ctx, *s, b);
            if count_matches {
                ctx.alu(1);
                *m += u64::from(table.dfa().is_accepting(*s));
            }
        }
        ctx.alu(1); // loop bookkeeping

        if paths.len() > 1 {
            // Convergence check: one compare per live path.
            ctx.alu(paths.len() as u64);
            generation += 1;
            let mut merged = false;
            for (i, &s) in paths.iter().enumerate() {
                if stamp[s as usize] == generation {
                    merged = true;
                } else {
                    stamp[s as usize] = generation;
                    seen[s as usize] = i as u32;
                }
            }
            if merged {
                // Compact survivors in place; duplicates record their match
                // delta against the surviving twin.
                let live = paths.len();
                let mut w = 0usize;
                for i in 0..live {
                    let first = seen[paths[i] as usize] as usize;
                    if first == i {
                        new_idx[i] = w as u32;
                        paths[w] = paths[i];
                        path_matches[w] = path_matches[i];
                        delta[i] = 0;
                        w += 1;
                    } else {
                        // Duplicate: merges into the (already compacted)
                        // survivor; riders keep the invariant
                        // offset[q] + matches(path of q) = true matches by
                        // absorbing the counter difference.
                        new_idx[i] = new_idx[first];
                        delta[i] =
                            path_matches[i] as i64 - path_matches[new_idx[first] as usize] as i64;
                    }
                }
                paths.truncate(w);
                path_matches.truncate(w);
                // Merge epoch: rewrite the |Q|-entry indirection. Each merge
                // strictly shrinks the live set, so at most |Q|−1 epochs
                // ever run per chunk.
                ctx.alu(n as u64);
                for q in 0..n {
                    let p = ptr[q] as usize;
                    offset[q] += delta[p];
                    ptr[q] = new_idx[p];
                }
            }
        }
    }

    // Final write-back: assemble the per-start-state mapping from the
    // surviving paths through the indirection.
    ctx.alu(n as u64);
    let map: Vec<StateId> = ptr.iter().map(|&p| paths[p as usize]).collect();
    let counts: Vec<u64> = ptr
        .iter()
        .zip(&offset)
        .map(|(&p, &off)| (off + path_matches[p as usize] as i64) as u64)
        .collect();
    Derived { map, counts, eff_width: paths.len() as u32 }
}

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let chunks = job.chunks();
    let n = chunks.len();
    let n_states = job.table.dfa().n_states();

    let mut exec = SfaExecKernel {
        job,
        table: job.table,
        input: job.input,
        chunks: &chunks,
        maps: vec![Vec::new(); n],
        counts: vec![Vec::new(); n],
        widths: vec![0; n],
        count_matches: job.config.count_matches,
    };
    let grid = launch_grid(job.spec, n, &mut exec).unwrap_or_else(|e| panic!("launch_grid: {e}"));
    let dims = block_dims_width(grid.width as usize, n);
    let mut exec_stats = grid.fold();
    // Fault overlay, SFA-flavoured: aborted and watchdog-killed launches
    // price through the shared retry ladder like every other scheme, but a
    // block that exhausts its budget *re-derives its chunks' mappings* —
    // SFA's bottom rung is still exact by construction, so there is no
    // degradation-to-sequential. The driver serializes the relaunch charges
    // after the grid, so their `Phase::Recovery` attribution survives wave
    // folding at any occupancy.
    if let Some(plan) = job.config.faults {
        if plan.any_faults() {
            let rc = &job.config.recovery;
            let mut overlay = KernelStats::default();
            let mut charged = false;
            for (b, bs) in grid.blocks.iter().enumerate() {
                let Some(c) = fault_charges(&plan, rc, FaultDomain::Exec, b, bs.cycles) else {
                    continue;
                };
                charged = true;
                overlay.cycles += c.lost;
                overlay.profile.get_mut(Phase::Recovery).cycles += c.lost;
                overlay.recovery_cycles += c.lost;
                overlay.fault_cycles += c.lost;
                overlay.fault_retries += c.retries;
                overlay.fault_watchdog_kills += c.kills;
                if c.degraded {
                    let mut k = SfaRederiveWindow {
                        job,
                        chunks: &chunks,
                        cursor: dims[b].tids.start,
                        end: dims[b].tids.end,
                    };
                    let walk = launch(job.spec, 1, &mut k);
                    overlay.fault_cycles += walk.cycles;
                    overlay.fault_degraded_blocks += 1;
                    overlay.merge_sequential(&walk);
                }
            }
            if charged {
                exec_stats.merge_sequential(&overlay);
            }
        }
    }
    let mut maps = exec.maps;
    let mut count_maps = exec.counts;
    let mut widths = exec.widths;

    let mut verify = KernelStats::default();

    // Mapping corruption: a struck chunk's function table is poisoned and
    // re-derived. SFA never needs the degradation-to-sequential ladder here
    // — the mapping is a pure function of (table, chunk bytes), so the
    // re-derivation restores the exact fault-free result, and its cycles
    // land in `Phase::Recovery`.
    if let Some(plan) = job.config.faults {
        if plan.corrupt_permille > 0 {
            let mut rederives: Vec<(usize, SfaRederive<'_>)> = Vec::new();
            for cid in 0..n {
                if plan.corrupts(cid) {
                    maps[cid].clear();
                    maps[cid].resize(n_states as usize, StateId::MAX);
                    count_maps[cid].fill(u64::MAX);
                    rederives
                        .push((1, SfaRederive { job, cid, range: chunks[cid].clone(), out: None }));
                }
            }
            if !rederives.is_empty() {
                verify.merge_sequential(
                    &launch_blocks(job.spec, &mut rederives)
                        .unwrap_or_else(|e| panic!("launch_blocks: {e}"))
                        .fold(),
                );
                for (_, k) in rederives {
                    let d = k.out.expect("re-derivation ran");
                    maps[k.cid] = d.map;
                    count_maps[k.cid] = d.counts;
                    widths[k.cid] = d.eff_width;
                }
            }
        }
    }

    // Seam composition: the tree stitch generalized from states to
    // mappings. In-block chunk mappings fold pair-wise (log2(width)
    // rounds, each thread composing `w` effective entries through shared
    // memory), then block mappings compose across seams per the stitch
    // policy. All of it is `Phase::Stitch`: it exists only to connect
    // already-executed chunks.
    if n > 1 {
        let mut merges: Vec<(usize, SfaComposeKernel)> = dims
            .iter()
            .filter(|d| d.len() > 1)
            .map(|d| {
                let w = block_width(&widths, d);
                (d.len(), SfaComposeKernel { w, rounds_left: d.len().next_power_of_two().ilog2() })
            })
            .collect();
        if !merges.is_empty() {
            verify.merge_sequential(
                &launch_blocks(job.spec, &mut merges)
                    .unwrap_or_else(|e| panic!("launch_blocks: {e}"))
                    .fold(),
            );
        }
        let b = dims.len();
        if b > 1 {
            let w = widths.iter().copied().max().unwrap_or(1).max(1) as u64;
            match job.config.stitch {
                StitchPolicy::Tree => {
                    let mut span = 1usize;
                    while span < b {
                        let seams = (span..b).step_by(2 * span).count();
                        let seam_grid = launch_grid(job.spec, seams, &mut SeamComposeGrid { w })
                            .unwrap_or_else(|e| panic!("launch_grid: {e}"));
                        verify.merge_sequential(&seam_grid.fold());
                        span *= 2;
                    }
                }
                StitchPolicy::Sequential => {
                    for _ in 1..b {
                        verify.merge_sequential(&launch(
                            job.spec,
                            1,
                            &mut SfaComposeKernel { w, rounds_left: 1 },
                        ));
                    }
                }
            }
        }
    }

    // Ground-truth walk through the per-chunk functions (host side; the
    // device paid for it in the composition rounds above).
    let mut ends = Vec::with_capacity(n);
    let mut cur = job.table.dfa().start();
    let mut total_matches = 0u64;
    for (map, cmap) in maps.iter().zip(&count_maps) {
        total_matches += cmap[cur as usize];
        cur = map[cur as usize];
        ends.push(cur);
    }

    // Every seam composition succeeds by construction.
    let checks = (n - 1) as u64;
    RunOutcome {
        scheme: SchemeKind::Sfa,
        end_state: cur,
        accepted: job.table.dfa().is_accepting(cur),
        chunk_ends: ends,
        predict: KernelStats::default(),
        execute: exec_stats,
        verify,
        verification_checks: checks,
        verification_matches: checks,
        match_count: job.config.count_matches.then_some(total_matches),
        frontier_trace: Vec::new(),
    }
}

/// Effective composition width of one block: the widest surviving mapping
/// among its chunks (composition walks the left operand's live paths).
fn block_width(widths: &[u32], dim: &BlockDim) -> u64 {
    widths[dim.tids.clone()].iter().copied().max().unwrap_or(1).max(1) as u64
}

struct SfaExecKernel<'a, 'j> {
    job: &'a Job<'a>,
    table: &'a DeviceTable<'j>,
    input: &'a [u8],
    chunks: &'a [Range<usize>],
    maps: Vec<Vec<StateId>>,
    counts: Vec<Vec<u64>>,
    widths: Vec<u32>,
    count_matches: bool,
}

/// One grid block of the SFA execution: chunks are independent, so a block
/// is a disjoint window of the per-chunk function tables.
struct SfaExecBlock<'s, 'j> {
    job: &'s Job<'s>,
    table: &'s DeviceTable<'j>,
    input: &'s [u8],
    chunks: &'s [Range<usize>],
    base: usize,
    maps: &'s mut [Vec<StateId>],
    counts: &'s mut [Vec<u64>],
    widths: &'s mut [u32],
    count_matches: bool,
}

impl RoundKernel for SfaExecBlock<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.sfa_requirements(threads)
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let rel = tid - self.base;
        let d = derive_mapping(
            self.table,
            ctx,
            self.input,
            self.chunks[tid].clone(),
            self.count_matches,
        );
        self.maps[rel] = d.map;
        self.counts[rel] = d.counts;
        self.widths[rel] = d.eff_width;
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

impl<'j> GridKernel for SfaExecKernel<'_, 'j> {
    type Block<'s>
        = SfaExecBlock<'s, 'j>
    where
        Self: 's;

    fn requirements(&self, width: u32) -> BlockRequirements {
        self.job.sfa_requirements(width)
    }

    fn split<'s>(&'s mut self, dims: &[BlockDim]) -> Vec<SfaExecBlock<'s, 'j>> {
        let mut maps: &'s mut [Vec<StateId>] = &mut self.maps;
        let mut counts: &'s mut [Vec<u64>] = &mut self.counts;
        let mut widths: &'s mut [u32] = &mut self.widths;
        let mut out = Vec::with_capacity(dims.len());
        for dim in dims {
            let (m, m_rest) = maps.split_at_mut(dim.len());
            let (c, c_rest) = counts.split_at_mut(dim.len());
            let (w, w_rest) = widths.split_at_mut(dim.len());
            maps = m_rest;
            counts = c_rest;
            widths = w_rest;
            out.push(SfaExecBlock {
                job: self.job,
                table: self.table,
                input: self.input,
                chunks: self.chunks,
                base: dim.tids.start,
                maps: m,
                counts: c,
                widths: w,
                count_matches: self.count_matches,
            });
        }
        out
    }
}

/// One-thread re-derivation of a corrupted chunk's mapping: the same dedup
/// walk the exec phase ran, credited as recovery.
struct SfaRederive<'a> {
    job: &'a Job<'a>,
    cid: usize,
    range: Range<usize>,
    out: Option<Derived>,
}

impl RoundKernel for SfaRederive<'_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.sfa_requirements(threads)
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let t0 = ctx.cycles();
        let d = derive_mapping(
            self.job.table,
            ctx,
            self.job.input,
            self.range.clone(),
            self.job.config.count_matches,
        );
        ctx.credit_recovery(t0);
        self.out = Some(d);
        RoundOutcome::RECOVERING
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Recovery
    }
}

/// The degradation ladder's bottom rung, SFA-flavoured: one thread
/// re-derives every chunk mapping in the struck block's window, one chunk
/// per round. The mapping is a pure function of (table, chunk bytes), so
/// the result is exact by construction — no fall-back to a sequential
/// walk — and every cycle is recovery.
struct SfaRederiveWindow<'a> {
    job: &'a Job<'a>,
    chunks: &'a [Range<usize>],
    cursor: usize,
    end: usize,
}

impl RoundKernel for SfaRederiveWindow<'_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.job.sfa_requirements(threads)
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let t0 = ctx.cycles();
        let _ = derive_mapping(
            self.job.table,
            ctx,
            self.job.input,
            self.chunks[self.cursor].clone(),
            self.job.config.count_matches,
        );
        ctx.credit_recovery(t0);
        RoundOutcome::RECOVERING
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.cursor += 1;
        self.cursor < self.end
    }

    fn phase(&self) -> Phase {
        Phase::Recovery
    }
}

/// Pair-wise mapping composition: log2 rounds, each thread folding `w`
/// effective entries through shared memory.
struct SfaComposeKernel {
    w: u64,
    rounds_left: u32,
}

impl RoundKernel for SfaComposeKernel {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        // One w-entry function map staged through shared memory per round.
        BlockRequirements { threads, shared_bytes: 4 * self.w as usize, regs_per_thread: 32 }
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        ctx.shared(self.w);
        ctx.alu(self.w);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.rounds_left -= 1;
        self.rounds_left > 0
    }

    /// Mapping composition connects already-executed chunks across block
    /// seams: stitch work, never input re-execution.
    fn phase(&self) -> Phase {
        Phase::Stitch
    }
}

/// One tree round of concurrent seam compositions: each thread receives the
/// neighbouring cluster's mapping and composes `w` effective entries.
struct SeamComposeGrid {
    w: u64,
}

struct SeamComposeBlock {
    w: u64,
}

impl RoundKernel for SeamComposeBlock {
    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        ctx.shuffle(1);
        ctx.shared(self.w);
        ctx.alu(self.w);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Stitch
    }
}

impl GridKernel for SeamComposeGrid {
    type Block<'s> = SeamComposeBlock;

    fn split(&mut self, dims: &[BlockDim]) -> Vec<SeamComposeBlock> {
        dims.iter().map(|_| SeamComposeBlock { w: self.w }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::run::SchemeKind;
    use crate::schemes::{run_scheme, Job};
    use crate::table::DeviceTable;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::{div7, fig4_dfa};
    use gspecpal_gpu::DeviceSpec;

    #[test]
    fn sfa_exact_and_recovery_free() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011001".repeat(8);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Sfa, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.recovery_runs(), 0);
        assert!((out.runtime_accuracy() - 1.0).abs() < 1e-12);
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn sfa_exact_across_block_boundaries_under_both_policies() {
        let d = div7();
        let spec = DeviceSpec::test_unit(); // 64-thread blocks
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011001".repeat(50);
        for stitch in [StitchPolicy::Tree, StitchPolicy::Sequential] {
            let config = SchemeConfig { n_chunks: 150, stitch, ..SchemeConfig::default() };
            let job = Job::new(&spec, &table, &input, config).unwrap();
            let out = run_scheme(SchemeKind::Sfa, &job);
            assert_eq!(out.end_state, d.run(&input), "{stitch:?}");
            assert_eq!(out.recovery_runs(), 0, "{stitch:?}");
            let mut s = d.start();
            for (i, r) in job.chunks().into_iter().enumerate() {
                s = d.run_from(s, &input[r]);
                assert_eq!(out.chunk_ends[i], s, "{stitch:?} chunk {i}");
            }
        }
    }

    #[test]
    fn sfa_counts_matches_exactly() {
        let d = keyword_dfa(&[b"abc", b"bca"]).unwrap();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input = b"abcabcxxbcabca".repeat(31);
        let config = SchemeConfig { n_chunks: 37, count_matches: true, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Sfa, &job);
        assert_eq!(out.match_count, Some(d.count_matches(&input)));
    }

    /// Converged paths stop costing: on a keyword machine (collapses to a
    /// handful of live states within a few bytes) the SFA walk's table work
    /// is a small multiple of the sequential walk's, not |Q|-fold — while
    /// the never-converging div7 permutation pays the full factor.
    #[test]
    fn dedup_shrinks_effective_width_on_convergent_machines() {
        let spec = DeviceSpec::test_unit();
        let config = SchemeConfig { n_chunks: 4, ..SchemeConfig::default() };

        let kw = keyword_dfa(&[b"attack", b"overflow", b"exploit"]).unwrap();
        let tk = DeviceTable::transformed(&kw, kw.n_states());
        let input = b"mostly benign bytes with an attack somewhere ".repeat(16);
        let job = Job::new(&spec, &tk, &input, config).unwrap();
        let sfa = run_scheme(SchemeKind::Sfa, &job);
        let seq = run_scheme(SchemeKind::Sequential, &job);
        let q = u64::from(kw.n_states());
        assert!(
            sfa.execute.shared_accesses + sfa.execute.global_transactions
                < q * (seq.execute.shared_accesses + seq.execute.global_transactions) / 2,
            "convergent machine must shed most of the |Q|={q} factor \
             (sfa {} vs seq {})",
            sfa.execute.shared_accesses + sfa.execute.global_transactions,
            seq.execute.shared_accesses + seq.execute.global_transactions,
        );

        let d7 = div7();
        let t7 = DeviceTable::transformed(&d7, d7.n_states());
        let input7: Vec<u8> = b"1101010110010111".repeat(45);
        let job7 = Job::new(&spec, &t7, &input7, config).unwrap();
        let sfa7 = run_scheme(SchemeKind::Sfa, &job7);
        let seq7 = run_scheme(SchemeKind::Sequential, &job7);
        assert!(
            sfa7.execute.shared_accesses >= 6 * seq7.execute.shared_accesses,
            "permutation machine keeps ~|Q|-fold table work"
        );
    }

    #[test]
    fn compose_mappings_is_function_composition() {
        let inner = vec![2, 0, 1, 3];
        let outer = vec![1, 3, 0, 2];
        assert_eq!(compose_mappings(&inner, &outer), vec![0, 1, 3, 2]);
    }

    #[test]
    fn sfa_stitch_cycles_land_in_stitch_phase() {
        let d = fig4_dfa();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input = b"ab /* comment */ cd ".repeat(40);
        let config = SchemeConfig { n_chunks: 150, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Sfa, &job);
        let profile = out.phase_profile();
        assert!(profile.get(Phase::Stitch).cycles > 0, "seam composition is stitch work");
        assert_eq!(profile.get(Phase::Recovery).cycles, 0, "no recovery without faults");
        assert_eq!(profile.total_cycles(), out.total_cycles(), "partition is exact");
    }
}
