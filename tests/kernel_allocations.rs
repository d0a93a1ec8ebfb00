//! A kernel's statistics are a fixed-size value: how many rounds it runs
//! does not change how often a launch allocates. A counting global allocator
//! (this test binary's only one) observes two warmed launches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gspecpal_gpu::{launch, DeviceSpec, RoundKernel, RoundOutcome, ThreadCtx};

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
