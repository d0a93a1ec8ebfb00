//! Grid launches: multiple independent thread blocks.
//!
//! A single cooperative block (shared memory and `__syncthreads()` are
//! block-scoped) caps a kernel at `max_threads_per_block` threads — and one
//! block is not a GPU: the RTX 3090 has 82 SMs. Two launchers scale a
//! round-based kernel past that limit:
//!
//! * [`launch_grid`] partitions one [`RoundKernel`]'s threads into blocks of
//!   an occupancy-fitted width; the kernel sees *global* thread ids and
//!   learns each block's range from [`RoundKernel::begin_block`];
//! * [`launch_blocks`] takes a caller-built list of heterogeneous blocks
//!   (one kernel and thread count each); block kernels see *local* thread
//!   ids `0..n`.
//!
//! Both simulate their blocks one after another, in submission order, on
//! the calling thread, and return the unfolded [`GridStats`]. Blocks never
//! communicate, so the order in which the host simulates them cannot show
//! in any statistic. The SM-occupancy wave model (see
//! [`mod@crate::occupancy`]) lives on that type alone: blocks are scheduled
//! `resident × n_sms` at a time, each wave lasts as long as its slowest
//! block, and waves serialize. [`GridStats::reschedule`] computes the waves,
//! [`GridStats::wave_starts`] places them on the launch timeline, and
//! [`GridStats::fold`] merges the blocks into one [`KernelStats`]:
//!
//! * counters (ALU, memory, atomics, recovery) are summed;
//! * `cycles` is the wave model's completion time, and per-phase cycles come
//!   from each wave's gating block.
//!
//! The result depends only on block boundaries and kernel behaviour, so it
//! is bit-identical for every host thread pool.

use crate::error::LaunchError;
use crate::kernel::{run_block, RoundKernel};
use crate::occupancy::{fit_block_width, max_resident_blocks, BlockRequirements};
use crate::spec::DeviceSpec;
use crate::stats::{KernelStats, LaunchShape};

/// The shape of one block within a grid launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockDim {
    /// Position of this block in the grid (submission order).
    pub index: usize,
    /// The *global* thread ids this block hosts.
    pub tids: std::ops::Range<usize>,
}

impl BlockDim {
    /// Number of threads in this block.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether the block is empty (never true for dims built by
    /// [`block_dims_width`]).
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }
}

/// Partitions `n_threads` global threads into blocks of at most `width`
/// threads (an occupancy-fitted width — see
/// [`crate::occupancy::fit_block_width`]): every block full except possibly
/// the last.
pub fn block_dims_width(width: usize, n_threads: usize) -> Vec<BlockDim> {
    block_dims(width, n_threads).collect()
}

/// [`block_dims_width`] without the `Vec`.
fn block_dims(width: usize, n_threads: usize) -> impl Iterator<Item = BlockDim> {
    assert!(n_threads > 0, "kernel needs at least one thread");
    assert!(width > 0, "blocks need at least one thread");
    (0..n_threads.div_ceil(width)).map(move |index| {
        let lo = index * width;
        BlockDim { index, tids: lo..((lo + width).min(n_threads)) }
    })
}

/// Launches `kernel` with `n_threads` threads as a grid of blocks and
/// returns the per-block statistics under the wave model (see the module
/// docs); [`GridStats::fold`] merges them into one [`KernelStats`].
///
/// The block width comes from [`fit_block_width`] over the kernel's
/// [`RoundKernel::requirements`], and waves are sized from the resulting
/// occupancy — a kernel hogging shared memory or registers gets narrower
/// blocks and fewer resident blocks per SM, exactly as on real hardware.
/// Block `b` hosts global threads `b × width ..` ([`block_dims_width`]);
/// the kernel's [`RoundKernel::begin_block`] receives each block's dim
/// before that block's first round, so per-block scratch can be reused
/// across blocks. A single-block grid folds to exactly what
/// [`crate::launch`] reports, plus the occupancy shape.
///
/// Returns [`LaunchError::EmptyGrid`] for zero threads and
/// [`LaunchError::UnlaunchableShape`] when no block shape of the kernel fits
/// on an SM.
///
/// ```
/// use gspecpal_gpu::{launch_grid, DeviceSpec, RoundKernel, RoundOutcome, ThreadCtx};
///
/// /// Every thread does ten ALU ops in a single round.
/// struct Burn;
/// impl RoundKernel for Burn {
///     fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
///         ctx.alu(10);
///         RoundOutcome::ACTIVE
///     }
///     fn after_sync(&mut self, _round: u64) -> bool { false }
/// }
///
/// // 8192 threads on a 64-thread-block device: a 128-block grid.
/// let spec = DeviceSpec::test_unit();
/// let grid = launch_grid(&spec, 8192, &mut Burn).unwrap();
/// assert_eq!((grid.width, grid.blocks.len()), (64, 128));
/// assert_eq!(grid.fold().alu_ops, 81_920);
/// ```
pub fn launch_grid<K: RoundKernel>(
    spec: &DeviceSpec,
    n_threads: usize,
    kernel: &mut K,
) -> Result<GridStats, LaunchError> {
    if n_threads == 0 {
        return Err(LaunchError::EmptyGrid);
    }
    let width = fit_block_width(spec, |w| kernel.requirements(w))?;
    // The tail (or sole) block may be narrower than the fitted width; the
    // wave model schedules by the widest block's footprint.
    let widest = (width as usize).min(n_threads) as u32;
    let resident = resident_per_sm(spec, kernel.requirements(widest))?;
    let mut blocks = Vec::with_capacity(n_threads.div_ceil(width as usize));
    for dim in block_dims(width as usize, n_threads) {
        kernel.begin_block(&dim);
        blocks.push(run_block(spec, dim.tids.start, dim.len(), kernel));
    }
    Ok(GridStats::scheduled(spec, blocks, resident, width))
}

/// Launches one block per entry of `blocks` (each a thread count and its
/// kernel; threads see local ids `0..n`) and returns the per-block
/// statistics under the wave model. Each kernel reports its own
/// [`RoundKernel::requirements`] and the wave width follows the occupancy of
/// the hungriest block (`min` over blocks of `max_resident_blocks`) — the
/// conservative choice a driver makes for a heterogeneous grid.
///
/// Returns [`LaunchError::EmptyGrid`] for an empty list and
/// [`LaunchError::UnlaunchableShape`] when some block fits on no SM.
pub fn launch_blocks<K: RoundKernel>(
    spec: &DeviceSpec,
    blocks: &mut [(usize, K)],
) -> Result<GridStats, LaunchError> {
    if blocks.is_empty() {
        return Err(LaunchError::EmptyGrid);
    }
    let mut resident = u32::MAX;
    let mut width = 0;
    for (n_threads, kernel) in blocks.iter() {
        resident = resident.min(resident_per_sm(spec, kernel.requirements(*n_threads as u32))?);
        width = width.max(*n_threads as u32);
    }
    let stats = blocks.iter_mut().map(|(n_threads, k)| run_block(spec, 0, *n_threads, k)).collect();
    Ok(GridStats::scheduled(spec, stats, resident, width))
}

/// Resident blocks of shape `req` per SM, or the launch error when none fit.
fn resident_per_sm(spec: &DeviceSpec, req: BlockRequirements) -> Result<u32, LaunchError> {
    match max_resident_blocks(spec, &req) {
        0 => Err(LaunchError::UnlaunchableShape { req }),
        resident => Ok(resident),
    }
}

/// Statistics of a grid launch, per block and under the wave model.
#[derive(Clone, Debug)]
pub struct GridStats {
    /// Per-block kernel statistics, in submission order.
    pub blocks: Vec<KernelStats>,
    /// Number of scheduling waves the grid needed.
    pub waves: u32,
    /// Grid completion time in cycles (sum of wave maxima).
    pub cycles: u64,
    /// Resident blocks per SM the scheduler assumed when forming waves.
    pub resident_per_sm: u32,
    /// Blocks scheduled per wave (`resident_per_sm × n_sms`): block `b` runs
    /// in wave `b / blocks_per_wave`.
    pub blocks_per_wave: u32,
    /// Threads per block: the occupancy-fitted width for [`launch_grid`]
    /// (stream `i` of a one-thread-per-item grid runs in block `i / width`),
    /// the widest block for [`launch_blocks`].
    pub width: u32,
}

impl GridStats {
    /// The simulated `blocks` scheduled `resident` per SM.
    fn scheduled(spec: &DeviceSpec, blocks: Vec<KernelStats>, resident: u32, width: u32) -> Self {
        let mut grid = GridStats {
            blocks,
            waves: 0,
            cycles: 0,
            resident_per_sm: resident,
            // Saturating: a product past u32 already exceeds any grid's block
            // count, so one wave holds them all either way.
            blocks_per_wave: resident.saturating_mul(spec.n_sms.max(1)),
            width,
        };
        grid.reschedule();
        grid
    }

    /// The occupancy shape of this launch, for embedding into merged
    /// [`KernelStats`].
    pub fn shape(&self) -> LaunchShape {
        LaunchShape {
            resident_per_sm: self.resident_per_sm,
            blocks_per_wave: self.blocks_per_wave,
            waves: self.waves,
        }
    }

    /// The block that gates (determines the duration of) each scheduling
    /// wave: the slowest block, first one on a tie so the choice is
    /// deterministic and — for a single-block wave — trivially the block
    /// itself.
    fn gates(&self) -> impl Iterator<Item = &KernelStats> {
        self.blocks
            .chunks(self.blocks_per_wave.max(1) as usize)
            .map(|wave| wave.iter().fold(&wave[0], |g, b| if b.cycles > g.cycles { b } else { g }))
    }

    /// Recomputes `waves` and `cycles` from the current per-block stats and
    /// `blocks_per_wave` — the wave model re-applied after block mutation.
    /// The fault-recovery layer charges retry, backoff, and degradation
    /// cycles onto individual blocks and then calls this so the grid's
    /// completion time (and [`GridStats::fold`]'s internal consistency
    /// check) reflect the mutated blocks.
    pub fn reschedule(&mut self) {
        let (waves, cycles) = self.gates().fold((0, 0), |(w, c), g| (w + 1, c + g.cycles));
        self.waves = waves;
        self.cycles = cycles;
    }

    /// Start cycle of each scheduling wave, relative to kernel launch:
    /// `wave_starts[w]` = sum of the gate (max) cycles of waves `0..w`.
    /// Block `b` therefore finishes at
    /// `wave_starts[b / blocks_per_wave] + blocks[b].cycles`.
    pub fn wave_starts(&self) -> Vec<u64> {
        let mut t = 0;
        self.gates()
            .map(|g| {
                let start = t;
                t += g.cycles;
                start
            })
            .collect()
    }

    /// Folds the per-block stats into one merged [`KernelStats`] with the
    /// grid's wave-model `cycles`, this launch's [`LaunchShape`], and
    /// per-phase cycles attributed from each wave's gating (slowest, first
    /// on ties) block.
    pub fn fold(&self) -> KernelStats {
        let mut merged = KernelStats::default();
        for block in &self.blocks {
            merged.absorb_block(block);
        }
        merged.shape = Some(self.shape());
        let mut cycles = 0;
        for gate in self.gates() {
            cycles += gate.cycles;
            merged.profile.absorb_cycles(&gate.profile);
        }
        debug_assert_eq!(cycles, self.cycles, "fold must reproduce the wave-model cycles");
        merged.cycles = self.cycles;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{launch, RoundOutcome, ThreadCtx};
    use crate::stats::Phase;
    use proptest::prelude::*;

    struct Work(u64);

    impl RoundKernel for Work {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(self.0);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    /// `test_unit` with `n_sms` SMs, each holding at most one block.
    fn one_resident(n_sms: u32) -> DeviceSpec {
        let mut spec = DeviceSpec::test_unit();
        spec.n_sms = n_sms;
        spec.max_blocks_per_sm = 1;
        spec
    }

    #[test]
    fn one_wave_runs_blocks_concurrently() {
        let spec = DeviceSpec::test_unit(); // 1 SM
        let mut blocks = vec![(4usize, Work(10))];
        let g = launch_blocks(&spec, &mut blocks).unwrap();
        assert_eq!(g.waves, 1);
        assert_eq!(g.cycles, g.blocks[0].cycles);
    }

    #[test]
    fn waves_serialize_beyond_sm_count() {
        // 5 equal blocks on 2 one-block SMs: 3 waves, each gated by one block.
        let spec = one_resident(2);
        let mut blocks: Vec<(usize, Work)> = (0..5).map(|_| (2usize, Work(7))).collect();
        let g = launch_blocks(&spec, &mut blocks).unwrap();
        assert_eq!(g.waves, 3);
        let per_block = g.blocks[0].cycles;
        assert_eq!(g.cycles, 3 * per_block);
        assert_eq!(g.blocks.len(), 5);
    }

    #[test]
    fn wave_duration_is_gated_by_the_slowest_block() {
        let spec = one_resident(2);
        let mut blocks = vec![(1usize, Work(5)), (1usize, Work(500))];
        let g = launch_blocks(&spec, &mut blocks).unwrap();
        assert_eq!(g.waves, 1);
        assert_eq!(Some(g.cycles), g.blocks.iter().map(|b| b.cycles).max());
        assert!(g.cycles >= 500);
    }

    #[test]
    fn occupancy_widens_waves_for_light_kernels() {
        // 8 light blocks of 2 threads on 1 SM: occupancy allows 4 resident
        // -> 2 waves.
        let spec = DeviceSpec::test_unit();
        let mut blocks: Vec<(usize, Work)> = (0..8).map(|_| (2usize, Work(9))).collect();
        let g = launch_blocks(&spec, &mut blocks).unwrap();
        assert_eq!(g.resident_per_sm, 4);
        assert_eq!(g.waves, 2);
        // An SM that holds one block at a time needs 8 waves.
        let naive = launch_blocks(&one_resident(1), &mut blocks).unwrap();
        assert_eq!(naive.waves, 8);
        assert!(g.cycles < naive.cycles);
    }

    /// Grid kernel: thread `tid` writes `tid` into its slot and charges
    /// `tid % 7` ALU ops — verifies global tids and result write-back by
    /// global id.
    struct SlotGrid {
        slots: Vec<usize>,
    }

    impl RoundKernel for SlotGrid {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu((tid % 7) as u64);
            self.slots[tid] = tid;
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    #[test]
    fn grid_passes_global_tids_and_writes_back() {
        let spec = DeviceSpec::test_unit(); // 64-thread blocks
        let n = 1000;
        let mut kernel = SlotGrid { slots: vec![usize::MAX; n] };
        let stats = launch_grid(&spec, n, &mut kernel).unwrap().fold();
        assert_eq!(kernel.slots, (0..n).collect::<Vec<_>>());
        assert_eq!(stats.alu_ops, (0..n as u64).map(|t| t % 7).sum::<u64>());
        // 1000 threads over 64-thread blocks: 16 one-round blocks.
        assert_eq!(stats.rounds, 16);
        assert_eq!(stats.profile.get(Phase::SpecExec).active_thread_rounds, 1000);
    }

    #[test]
    fn single_block_grid_equals_launch() {
        let spec = DeviceSpec::test_unit();
        let direct = launch(&spec, 48, &mut Work(13));
        let mut via_grid = launch_grid(&spec, 48, &mut Work(13)).unwrap().fold();
        // The grid launch also reports its occupancy shape; everything else
        // (cycles included) must match the single-block launch bit-for-bit.
        let shape = via_grid.shape.take().expect("grid launches report a shape");
        assert_eq!(shape.waves, 1);
        assert_eq!(via_grid, direct);
    }

    #[test]
    fn grid_cycles_follow_the_wave_model() {
        let mut spec = one_resident(2);
        spec.max_threads_per_sm = spec.max_threads_per_block;
        // 5 full blocks on 2 SMs, one resident each: 3 waves.
        let n = 5 * spec.max_threads_per_block as usize;
        let grid = launch_grid(&spec, n, &mut Work(7)).unwrap();
        let one_block = launch(&spec, spec.max_threads_per_block as usize, &mut Work(7));
        assert_eq!(grid.cycles, 3 * one_block.cycles);
    }

    /// A kernel that declares a huge shared-memory footprint at every
    /// width: unlaunchable on any device.
    struct HogGrid;
    impl RoundKernel for HogGrid {
        fn round(&mut self, _tid: usize, _ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
        fn requirements(&self, threads: u32) -> BlockRequirements {
            BlockRequirements { threads, shared_bytes: usize::MAX / 2, regs_per_thread: 32 }
        }
    }

    /// Regression: a zero-resident shape used to be silently clamped to one
    /// resident block (`.max(1)`), mis-costing the grid; it must now surface
    /// as a structured launch error.
    #[test]
    fn impossible_shapes_error_instead_of_one_block_fallback() {
        let spec = DeviceSpec::test_unit();
        let err = launch_grid(&spec, 128, &mut HogGrid).unwrap_err();
        let LaunchError::UnlaunchableShape { req } = err else {
            panic!("expected UnlaunchableShape, got {err:?}");
        };
        assert_eq!(req.shared_bytes, usize::MAX / 2);
        // Block-list launches reject the same shape the same way.
        let mut blocks = vec![(2usize, HogGrid)];
        let err = launch_blocks(&spec, &mut blocks).unwrap_err();
        assert!(matches!(err, LaunchError::UnlaunchableShape { .. }), "{err:?}");
        // So is a block wider than the device's block capacity.
        let mut wide = vec![(spec.max_threads_per_block as usize + 1, Work(1))];
        let err = launch_blocks(&spec, &mut wide).unwrap_err();
        assert!(matches!(err, LaunchError::UnlaunchableShape { .. }), "{err:?}");
    }

    /// A register-hungry kernel gets a narrower fitted block width, so the
    /// same thread count spreads across more blocks.
    struct HeavyGrid;
    impl RoundKernel for HeavyGrid {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(1);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
        fn requirements(&self, width: u32) -> BlockRequirements {
            // test_unit has 4096 registers per SM: 128 regs/thread caps a
            // block at 32 threads (width fits to 32 on the 4-wide warp).
            BlockRequirements { threads: width, shared_bytes: 0, regs_per_thread: 128 }
        }
    }

    #[test]
    fn requirements_narrow_the_fitted_block_width() {
        let spec = DeviceSpec::test_unit(); // 64-thread blocks, 4096 regs/SM
        let light = launch_grid(&spec, 128, &mut Work(1)).unwrap();
        let heavy = launch_grid(&spec, 128, &mut HeavyGrid).unwrap();
        // Light: 2 blocks of 64. Heavy: 4 blocks of 32 (4096/128 = 32).
        assert_eq!((light.width, light.blocks.len()), (64, 2));
        assert_eq!((heavy.width, heavy.blocks.len()), (32, 4));
        assert_eq!(light.fold().rounds, 2);
        assert_eq!(heavy.fold().rounds, 4);
        assert_eq!(heavy.resident_per_sm, 1);
    }

    #[test]
    fn grid_profile_cycles_sum_to_the_wave_model() {
        let mut spec = one_resident(2);
        spec.max_threads_per_sm = spec.max_threads_per_block;
        // 5 full blocks on 2 SMs: 3 waves, all work in SpecExec.
        let n = 5 * spec.max_threads_per_block as usize;
        let stats = launch_grid(&spec, n, &mut Work(7)).unwrap().fold();
        assert_eq!(stats.profile.total_cycles(), stats.cycles);
        assert_eq!(stats.profile.get(Phase::SpecExec).cycles, stats.cycles);
        // Event counters still sum over every block, not just the gates.
        assert_eq!(stats.profile.get(Phase::SpecExec).alu_ops, stats.alu_ops);
        assert_eq!(stats.profile.get(Phase::SpecExec).thread_rounds, n as u64);
    }

    #[test]
    fn fold_matches_the_grid_merge() {
        let spec = one_resident(2);
        let mut blocks: Vec<(usize, Work)> = (1..=5).map(|i| (2usize, Work(i * 3))).collect();
        let g = launch_blocks(&spec, &mut blocks).unwrap();
        assert_eq!(g.waves, 3);
        let folded = g.fold();
        assert_eq!(folded.cycles, g.cycles);
        assert_eq!(folded.shape, Some(g.shape()));
        assert_eq!(folded.profile.total_cycles(), folded.cycles);
        assert_eq!(
            folded.global_transactions,
            g.blocks.iter().map(|b| b.global_transactions).sum::<u64>()
        );
        assert_eq!(
            folded.alu_ops,
            g.blocks.iter().map(|b| b.alu_ops).sum::<u64>(),
            "fold sums every block's events"
        );
    }

    #[test]
    fn wave_starts_place_blocks_on_the_launch_timeline() {
        let mut spec = one_resident(2);
        spec.max_threads_per_sm = spec.max_threads_per_block;
        // 5 full blocks on 2 SMs, one resident each: 3 waves of 2 blocks.
        let n = 5 * spec.max_threads_per_block as usize;
        let grid = launch_grid(&spec, n, &mut Work(7)).unwrap();
        assert_eq!(grid.blocks.len(), 5);
        assert_eq!(grid.width, spec.max_threads_per_block);
        let per_block = grid.blocks[0].cycles;
        assert!(grid.blocks.iter().all(|b| b.cycles == per_block), "equal blocks");
        let starts = grid.wave_starts();
        assert_eq!(starts, vec![0, per_block, 2 * per_block]);
        let completion = |b: usize| starts[b / grid.blocks_per_wave as usize] + per_block;
        assert_eq!(completion(0), per_block);
        assert_eq!(completion(2), 2 * per_block, "wave 1 block");
        assert_eq!(completion(4), grid.cycles, "last block ends the launch");
    }

    #[test]
    fn empty_grids_error_structurally() {
        let spec = DeviceSpec::test_unit();
        let mut blocks: Vec<(usize, Work)> = vec![];
        assert_eq!(launch_blocks(&spec, &mut blocks).unwrap_err(), LaunchError::EmptyGrid);
        assert_eq!(launch_grid(&spec, 0, &mut Work(1)).unwrap_err(), LaunchError::EmptyGrid);
    }

    #[test]
    fn reschedule_recomputes_the_wave_model_after_mutation() {
        // 4 equal blocks on 2 one-block SMs: 2 waves.
        let spec = one_resident(2);
        let mut blocks: Vec<(usize, Work)> = (0..4).map(|_| (2usize, Work(7))).collect();
        let mut g = launch_blocks(&spec, &mut blocks).unwrap();
        let before = g.cycles;
        assert_eq!(g.waves, 2);
        // Charge recovery overhead onto the last block (keeping its own
        // cycles-partition invariant) and re-apply the wave model.
        g.blocks[3].cycles += 1000;
        g.blocks[3].profile.get_mut(Phase::Recovery).cycles += 1000;
        g.reschedule();
        assert_eq!(g.cycles, before + 1000, "wave 1's gate slowed by the overlay");
        assert_eq!(g.wave_starts(), vec![0, before / 2], "wave 0 is untouched");
        let folded = g.fold();
        assert_eq!(folded.cycles, g.cycles);
        assert_eq!(folded.profile.total_cycles(), folded.cycles, "partition survives the fold");
        assert_eq!(folded.profile.get(Phase::Recovery).cycles, 1000);
    }

    #[test]
    fn grid_stats_identical_across_pool_sizes() {
        let spec = DeviceSpec::test_unit();
        let n = 777;
        let run = |workers: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            pool.install(|| {
                let mut kernel = SlotGrid { slots: vec![0; n] };
                let grid = launch_grid(&spec, n, &mut kernel).unwrap();
                let block_cycles: Vec<u64> = grid.blocks.iter().map(|b| b.cycles).collect();
                (grid.fold(), block_cycles, grid.wave_starts(), kernel.slots)
            })
        };
        let seq = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), seq, "{workers} workers");
        }
    }

    /// Thread `tid` charges `3 × work[tid] + round + 1` ALU ops over two
    /// rounds, planned for the whole block in `begin_round` into scratch that
    /// one instance keeps across the blocks of a grid. `tids` are the ids
    /// the block's threads see; `dims` logs every `begin_block`.
    struct Planned<'w> {
        work: &'w [u64],
        tids: std::ops::Range<usize>,
        plan: Vec<u64>,
        dims: Vec<BlockDim>,
    }

    impl<'w> Planned<'w> {
        fn new(work: &'w [u64]) -> Self {
            Planned { work, tids: 0..work.len(), plan: Vec::new(), dims: Vec::new() }
        }
    }

    impl RoundKernel for Planned<'_> {
        fn begin_block(&mut self, dim: &BlockDim) {
            self.tids = dim.tids.clone();
            self.dims.push(dim.clone());
        }
        fn begin_round(&mut self, round: u64) {
            self.plan.clear();
            self.plan.extend(self.work[self.tids.clone()].iter().map(|w| 3 * w + round + 1));
        }
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(self.plan[tid - self.tids.start]);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, round: u64) -> bool {
            round == 0
        }
    }

    #[test]
    fn begin_block_hands_each_block_its_global_tids_in_order() {
        let spec = one_resident(2);
        let work: Vec<u64> = (0..300).map(|i| i * 7 % 11).collect();
        let mut kernel = Planned::new(&work);
        let grid = launch_grid(&spec, work.len(), &mut kernel).unwrap();
        let dims = block_dims_width(grid.width as usize, work.len());
        assert_eq!(dims.len(), 5, "300 threads over 64-thread blocks");
        assert_eq!(kernel.dims, dims, "once per block, in block order, with global tids");

        // Fresh instances, one per block, see the same work with local ids
        // and never get a `begin_block`: the scratch carried across blocks
        // leaks nothing from one block into the next.
        let mut fresh: Vec<(usize, Planned<'_>)> =
            dims.iter().map(|d| (d.len(), Planned::new(&work[d.tids.clone()]))).collect();
        let list = launch_blocks(&spec, &mut fresh).unwrap();
        assert!(fresh.iter().all(|(_, k)| k.dims.is_empty()));
        assert_eq!(grid.blocks, list.blocks);
        assert_eq!(grid.fold(), list.fold());
    }

    /// Thread `tid` charges `work[tid]` ALU ops under a fixed register
    /// footprint: over the whole list with the global ids of
    /// [`launch_grid`], over a block's window of it with the local ids of
    /// [`launch_blocks`].
    struct Slice<'s> {
        work: &'s [u64],
        regs: u32,
    }

    impl RoundKernel for Slice<'_> {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(self.work[tid]);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
        fn requirements(&self, threads: u32) -> BlockRequirements {
            BlockRequirements { threads, shared_bytes: 0, regs_per_thread: self.regs }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One wave model: a grid launch and a block-list launch over the
        /// same block widths schedule identically, and every block fits on
        /// the timeline `wave_starts` lays out.
        #[test]
        fn grid_and_block_launches_share_one_wave_model(
            n_sms in 1u32..5,
            max_blocks_per_sm in 1u32..5,
            regs in 8u32..129,
            work in prop::collection::vec(0u64..40, 1..300),
        ) {
            let mut spec = DeviceSpec::test_unit();
            spec.n_sms = n_sms;
            spec.max_blocks_per_sm = max_blocks_per_sm;
            let n = work.len();
            let grid = launch_grid(&spec, n, &mut Slice { work: &work, regs }).unwrap();
            let mut blocks: Vec<(usize, Slice<'_>)> = block_dims_width(grid.width as usize, n)
                .into_iter()
                .map(|d| (d.len(), Slice { work: &work[d.tids], regs }))
                .collect();
            let list = launch_blocks(&spec, &mut blocks).unwrap();
            let cycles = |g: &GridStats| g.blocks.iter().map(|b| b.cycles).collect::<Vec<_>>();
            prop_assert_eq!(cycles(&grid), cycles(&list));
            prop_assert_eq!(grid.shape(), list.shape());
            prop_assert_eq!(grid.cycles, list.cycles);
            prop_assert_eq!(grid.fold(), list.fold());

            let starts = grid.wave_starts();
            let per_wave = grid.blocks_per_wave as usize;
            prop_assert_eq!(starts.len(), grid.waves as usize);
            for (b, block) in grid.blocks.iter().enumerate() {
                prop_assert!(starts[b / per_wave] + block.cycles <= grid.cycles);
            }
            let last = &grid.blocks[(grid.waves as usize - 1) * per_wave..];
            let gate = last.iter().map(|b| b.cycles).max().unwrap();
            prop_assert_eq!(starts[starts.len() - 1] + gate, grid.cycles);
        }
    }
}
