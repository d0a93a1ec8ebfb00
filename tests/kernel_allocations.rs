//! A kernel's statistics are a fixed-size value: how many rounds it runs
//! does not change how often a launch allocates, and how many blocks a grid
//! has does not change how often its launch allocates. A counting global
//! allocator (this test binary's only one) observes warmed launches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gspecpal_gpu::{
    launch, launch_grid, BlockDim, DeviceSpec, RoundKernel, RoundOutcome, ThreadCtx,
};

/// The system allocator, counting allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `rounds` rounds in which every thread does one ALU op, odd threads as
/// recovery work.
struct Rounds(u64);

impl RoundKernel for Rounds {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        ctx.alu(1);
        if tid % 2 == 1 {
            RoundOutcome::RECOVERING
        } else {
            RoundOutcome::ACTIVE
        }
    }

    fn after_sync(&mut self, round: u64) -> bool {
        round + 1 < self.0
    }
}

/// Allocations made by one launch of a `rounds`-round kernel.
fn allocations(spec: &DeviceSpec, rounds: u64) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let stats = launch(spec, 32, &mut Rounds(rounds));
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(stats.rounds, rounds);
    assert_eq!(stats.recovery_rounds, rounds);
    made
}

#[test]
fn launch_allocations_do_not_grow_with_rounds() {
    let spec = DeviceSpec::test_unit();
    // Warm the launch path (the worker's block scratch) first.
    allocations(&spec, 1_000);
    let one = allocations(&spec, 1);
    let thousand = allocations(&spec, 1_000);
    assert_eq!(
        thousand, one,
        "a 1,000-round launch allocated {thousand} times, a 1-round one {one}"
    );
}

/// Thread `tid` does `tid % 3 + 1` ALU ops, planned per block in
/// `begin_block` into scratch the kernel keeps across blocks and launches.
#[derive(Default)]
struct PerBlockScratch {
    base: usize,
    plan: Vec<u64>,
}

impl RoundKernel for PerBlockScratch {
    fn begin_block(&mut self, dim: &BlockDim) {
        self.base = dim.tids.start;
        self.plan.clear();
        self.plan.extend(dim.tids.clone().map(|tid| tid as u64 % 3 + 1));
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        ctx.alu(self.plan[tid - self.base]);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

/// Allocations made by one grid launch of `blocks` full blocks.
fn grid_allocations(spec: &DeviceSpec, kernel: &mut PerBlockScratch, blocks: usize) -> u64 {
    let width = spec.max_threads_per_block as usize;
    let before = ALLOCATIONS.with(Cell::get);
    let grid = launch_grid(spec, blocks * width, kernel).unwrap();
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!((grid.width as usize, grid.blocks.len()), (width, blocks));
    made
}

#[test]
fn grid_allocations_do_not_grow_with_blocks() {
    let spec = DeviceSpec::test_unit();
    let mut kernel = PerBlockScratch::default();
    // Warm the launch path and the kernel's scratch first.
    grid_allocations(&spec, &mut kernel, 64);
    let one = grid_allocations(&spec, &mut kernel, 1);
    let many = grid_allocations(&spec, &mut kernel, 64);
    assert_eq!(many, one, "a 64-block grid allocated {many} times, a 1-block one {one}");
}
