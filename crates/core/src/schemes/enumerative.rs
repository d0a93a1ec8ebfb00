//! Fully enumerative data-parallel FSM execution (Mytkowicz et al. [23]).
//!
//! Each thread computes its chunk's *complete* transition function — the end
//! state for every possible start state — so connecting chunks afterwards is
//! a pure function composition that can never miss. This is the
//! zero-speculation upper bound on redundancy (`k = |Q|`), useful as a
//! correctness oracle and to show why speculation is needed at all: the
//! execution phase costs |Q| table lookups per input byte.

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    block_dims_width, launch_blocks, launch_grid, BlockDim, BlockRequirements, GridKernel,
    KernelStats, Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::Job;
use crate::table::DeviceTable;

pub(crate) fn run(job: &Job<'_>) -> RunOutcome {
    let chunks = job.chunks();
    let n = chunks.len();
    let n_states = job.table.dfa().n_states();

    let mut exec = ExecKernel {
        job,
        table: job.table,
        input: job.input,
        chunks: &chunks,
        maps: vec![Vec::new(); n],
        counts: vec![Vec::new(); n],
        count_matches: job.config.count_matches,
        n_states,
    };
    let exec_grid =
        launch_grid(job.spec, n, &mut exec).unwrap_or_else(|e| panic!("launch_grid: {e}"));
    let exec_stats = exec_grid.fold();
    let maps = exec.maps;
    let count_maps = exec.counts;

    // Merge: per-block parallel function composition (log2(B) rounds; each
    // thread composes |Q| entries), then one compose round per extra block to
    // fold the block functions together — kept as a cost model; the final
    // walk below is the same composition restricted to the ground-truth path.
    let mut verify = KernelStats::default();
    if n > 1 {
        // The exec grid's block partition, so the merge cost model sees the
        // real blocks.
        let dims = block_dims_width(exec_grid.width as usize, n);
        let mut merges: Vec<(usize, ComposeKernel)> = dims
            .iter()
            .filter(|d| d.len() > 1)
            .map(|d| {
                (
                    d.len(),
                    ComposeKernel {
                        q: u64::from(n_states),
                        rounds_left: d.len().next_power_of_two().ilog2(),
                    },
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
        if dims.len() > 1 {
            let mut fold = ComposeKernel {
                q: u64::from(n_states),
                rounds_left: dims.len().next_power_of_two().ilog2(),
            };
            // One thread per block function; the compose cost is modelled by
            // the round count, so a grid wider than one block (n > capacity²)
            // still fits by folding more functions per thread.
            let width = dims.len().min(job.spec.max_threads_per_block as usize);
            verify.merge_sequential(&gspecpal_gpu::launch(job.spec, width, &mut fold));
        }
    }

    // Ground-truth walk through the per-chunk functions (host side; the
    // device paid for it in the compose rounds).
    let mut ends = Vec::with_capacity(n);
    let mut cur = job.table.dfa().start();
    let mut total_matches = 0u64;
    for (map, cmap) in maps.iter().zip(&count_maps) {
        total_matches += cmap[cur as usize];
        cur = map[cur as usize];
        ends.push(cur);
    }

    let checks = (n - 1) as u64;
    RunOutcome {
        scheme: SchemeKind::Enumerative,
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

struct ExecKernel<'a, 'j> {
    job: &'a Job<'a>,
    table: &'a DeviceTable<'j>,
    input: &'a [u8],
    chunks: &'a [Range<usize>],
    maps: Vec<Vec<StateId>>,
    counts: Vec<Vec<u64>>,
    count_matches: bool,
    n_states: u32,
}

/// One grid block of the enumerative execution: chunks are independent, so a
/// block is a disjoint window of the per-chunk function tables.
struct ExecBlock<'s, 'j> {
    table: &'s DeviceTable<'j>,
    input: &'s [u8],
    chunks: &'s [Range<usize>],
    base: usize,
    maps: &'s mut [Vec<StateId>],
    counts: &'s mut [Vec<u64>],
    count_matches: bool,
    n_states: u32,
}

impl RoundKernel for ExecBlock<'_, '_> {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let rel = tid - self.base;
        let mut states: Vec<StateId> = (0..self.n_states).collect();
        let mut counts = vec![0u64; self.n_states as usize];
        self.table.run_chunk_multi_with(
            ctx,
            self.input,
            self.chunks[tid].clone(),
            &mut states,
            &mut counts,
            self.count_matches,
        );
        self.maps[rel] = states;
        self.counts[rel] = counts;
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

impl<'j> GridKernel for ExecKernel<'_, 'j> {
    type Block<'s>
        = ExecBlock<'s, 'j>
    where
        Self: 's;

    fn requirements(&self, width: u32) -> BlockRequirements {
        self.job.enumerative_requirements(width)
    }

    fn split<'s>(&'s mut self, dims: &[BlockDim]) -> Vec<ExecBlock<'s, 'j>> {
        let mut maps: &'s mut [Vec<StateId>] = &mut self.maps;
        let mut counts: &'s mut [Vec<u64>] = &mut self.counts;
        let mut out = Vec::with_capacity(dims.len());
        for dim in dims {
            let (m, m_rest) = maps.split_at_mut(dim.len());
            let (c, c_rest) = counts.split_at_mut(dim.len());
            maps = m_rest;
            counts = c_rest;
            out.push(ExecBlock {
                table: self.table,
                input: self.input,
                chunks: self.chunks,
                base: dim.tids.start,
                maps: m,
                counts: c,
                count_matches: self.count_matches,
                n_states: self.n_states,
            });
        }
        out
    }
}

struct ComposeKernel {
    q: u64,
    rounds_left: u32,
}

impl RoundKernel for ComposeKernel {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        // One |Q|-entry function map staged through shared memory per round.
        BlockRequirements { threads, shared_bytes: 4 * self.q as usize, regs_per_thread: 32 }
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        // Compose |Q| entries through shared memory.
        ctx.shared(self.q);
        ctx.alu(self.q);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        self.rounds_left -= 1;
        self.rounds_left > 0
    }

    /// Function composition connects already-executed chunks: verification
    /// work, never input re-execution.
    fn phase(&self) -> Phase {
        Phase::Verify
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
    fn enumerative_exact_and_recovery_free() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011001".repeat(8);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Enumerative, &job);
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
    fn enumerative_exact_across_block_boundaries() {
        let d = div7();
        let spec = DeviceSpec::test_unit(); // 64-thread blocks
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011001".repeat(50);
        let config = SchemeConfig { n_chunks: 150, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let out = run_scheme(SchemeKind::Enumerative, &job);
        assert_eq!(out.end_state, d.run(&input));
        assert_eq!(out.recovery_runs(), 0);
        let mut s = d.start();
        for (i, r) in job.chunks().into_iter().enumerate() {
            s = d.run_from(s, &input[r]);
            assert_eq!(out.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn enumerative_costs_scale_with_state_count() {
        let spec = DeviceSpec::test_unit();
        let input: Vec<u8> = b"ab /* x */ cd".repeat(8);
        let config = SchemeConfig { n_chunks: 4, ..SchemeConfig::default() };

        let d4 = fig4_dfa(); // 4 states
        let t4 = DeviceTable::transformed(&d4, d4.n_states());
        let job4 = Job::new(&spec, &t4, &input, config).unwrap();
        let out4 = run_scheme(SchemeKind::Enumerative, &job4);

        let d7 = div7(); // 7 states
        let t7 = DeviceTable::transformed(&d7, d7.n_states());
        let job7 = Job::new(&spec, &t7, &input, config).unwrap();
        let out7 = run_scheme(SchemeKind::Enumerative, &job7);

        assert!(out7.execute.shared_accesses > out4.execute.shared_accesses);
    }
}
