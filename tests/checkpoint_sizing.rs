//! Sizing a checkpoint allocates nothing: `EngineCheckpoint::encoded_len`
//! walks the wire layout with a byte counter, so its cost does not include
//! a buffer as large as the engine state. A counting global allocator (this
//! test binary's only one) observes the call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gspecpal_fsm::examples::{div7, mod_counter};
use gspecpal_gpu::DeviceSpec;
use gspecpal_serve::{
    serve_checkpoint, BatchPolicy, CheckpointOutcome, ReportDetail, ServeConfig, ServeMachine,
    Trace,
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

#[test]
fn sizing_a_full_detail_checkpoint_allocates_nothing() {
    let spec = DeviceSpec::test_unit();
    let dfas = [div7(), mod_counter(5, &[0])];
    let machines: Vec<ServeMachine<'_>> =
        dfas.iter().map(|dfa| ServeMachine::prepare(&spec, dfa, &b"110100".repeat(64))).collect();
    let cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 16 },
        detail: ReportDetail::Full,
        ..ServeConfig::default()
    };
    let trace = Trace::synthetic(3, 6_000, dfas.len(), 30, 8..32, b"01");
    let CheckpointOutcome::Checkpoint(ck) =
        serve_checkpoint(&spec, &machines, trace.source(), &cfg, 1_600).unwrap()
    else {
        panic!("the trace outlasts 1,600 batches");
    };
    assert!(ck.streams_pulled() >= 3_000, "{} streams pulled", ck.streams_pulled());
    let before = ALLOCATIONS.with(Cell::get);
    let len = ck.encoded_len();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "encoded_len allocated");
    assert_eq!(len, ck.encode().len());
}
