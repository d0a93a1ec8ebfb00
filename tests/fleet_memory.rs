//! Bounded memory of the fleet path, measured: a counting global allocator
//! tracks live heap bytes, and serving ten times the streams through
//! `run_cluster_source` under `ReportDetail::Bounded` must not raise the
//! peak by more than a small constant factor — with failover off, and with
//! failover on and a device dying mid-run with work in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gspecpal_cluster::{
    run_cluster_source, ClusterConfig, ClusterDevice, DeviceOutage, FailoverConfig, FleetMachine,
    Router,
};
use gspecpal_fsm::examples::mod_counter;
use gspecpal_fsm::Dfa;
use gspecpal_serve::{
    PriorityClass, ReportDetail, ResidencyConfig, ServeConfig, SyntheticSource, TraceSource,
};

/// Live heap bytes and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The two measurements must not overlap: each owns the counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// Streams in the small run; the large run serves ten times as many. Past
/// the exact-summary threshold on every device, so both runs hold their
/// latency sketches: a per-stream byte anywhere in the fleet path adds
/// several hundred KiB to the large run, well past the allowed factor.
const N: usize = 50_000;
/// Mean inter-arrival gap, in cycles.
const GAP: u64 = 400;

/// The victim of the failover runs.
const VICTIM: usize = 0;

/// Peak live heap bytes above the starting level while serving `streams`
/// synthetic streams on a three-device fleet. With `outage`, the victim
/// dies one cycle after its first arrival past the middle of the trace —
/// inside that arrival's batch, so the crash orphans streams — and fails
/// over.
fn peak_bytes(streams: usize, outage: bool) -> usize {
    let dfas: Vec<Dfa> = (0..6).map(|m| mod_counter(3 + m, &[0])).collect();
    let fleet: Vec<FleetMachine<'_>> = dfas
        .iter()
        .map(|dfa| FleetMachine { dfa, training: b"0110", class: PriorityClass::Bulk })
        .collect();
    let devices: Vec<ClusterDevice> = (0..3).map(|_| ClusterDevice::test_unit()).collect();
    let source = || SyntheticSource::new(7, streams, dfas.len(), GAP, 4..12, b"01");
    let mut cfg = ClusterConfig {
        serve: ServeConfig {
            detail: ReportDetail::Bounded,
            residency: Some(ResidencyConfig { capacity_bytes: 4096 }),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    if outage {
        let mut router = Router::new(&devices, vec![0; dfas.len()], &cfg);
        let mut arrivals = source();
        let at_cycle = loop {
            let a = arrivals.next_arrival().expect("the victim serves past the middle");
            let d = router.route(a.machine, a.arrival_cycle, a.bytes.len());
            if d == VICTIM && a.arrival_cycle >= streams as u64 * GAP / 2 {
                break a.arrival_cycle + 1;
            }
        };
        cfg.outage = Some(DeviceOutage { device: VICTIM, at_cycle });
        cfg.failover = Some(FailoverConfig::default());
    }
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = run_cluster_source(&devices, &fleet, source(), &cfg).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(report.streams, streams);
    assert_eq!(report.lost_streams, 0);
    if outage {
        assert!(report.failover.migrations_replayed > 0, "the crash must orphan streams");
    }
    peak
}

fn assert_flat(outage: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small = peak_bytes(N, outage);
    let large = peak_bytes(10 * N, outage);
    assert!(
        2 * large <= 3 * small,
        "peak live heap grew with the trace: {small} B at {N} streams, {large} B at {} streams",
        10 * N
    );
}

#[test]
fn fleet_memory_is_flat_in_the_trace_length() {
    assert_flat(false);
}

#[test]
fn fleet_memory_is_flat_in_the_trace_length_under_failover() {
    assert_flat(true);
}
