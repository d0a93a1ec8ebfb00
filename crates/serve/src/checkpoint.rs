//! Crash-consistent checkpoint / restore for the serving engine.
//!
//! A long-lived serve run is only as durable as its host process. This
//! module makes the engine's progress *recoverable*: at any quiescent
//! inter-batch boundary the engine's entire mutable state — the engine's
//! own `EngineState`, cloned — can be captured as an
//! [`EngineCheckpoint`], serialized to a versioned, checksummed,
//! byte-deterministic blob, and later rehydrated into a fresh engine that
//! continues the run — with the hard guarantee that
//!
//! > checkpoint at batch *B*, then [`serve_resume`] over the same trace,
//! > machines, configuration, and device, produces a [`ServeReport`]
//! > **bit-identical** to the uninterrupted run,
//!
//! for every batch policy, fault plan, report detail, controller /
//! residency / recovery configuration, and host thread count. The
//! guarantee is structural rather than aspirational: `serve` itself runs
//! the same resumable engine ([`ServeRun`] stepped to dry, then `finish`), so
//! a restore is not a parallel implementation that could drift — it is
//! the production engine handed its own state back.
//!
//! # Wire format
//!
//! Hand-rolled little-endian encoding, no external dependencies (the same
//! stance as the bench layer's JSON writer): a 4-byte magic `"GSCK"`, a
//! `u32` format version, a `u64` *setup fingerprint* (an FNV-1a fold over
//! the device spec, machine list, and serve configuration — resuming
//! under a different setup is refused with
//! [`ServeError::CheckpointMismatch`] instead of silently diverging), the
//! engine state, and a trailing FNV-1a-64 checksum over everything before
//! it.
//!
//! Every persisted type's layout is written once — a field list in wire
//! order (`wire_struct!`) or a one-byte tag table (`wire_tags!`) — and one
//! `Wire` impl per type serves both directions, so encoder and decoder
//! cannot drift apart — nor can [`EngineCheckpoint::encoded_len`], which
//! runs the encoder into a byte counter instead of a buffer. Integers are
//! fixed-width little-endian (`usize` as `u64`), `bool` and `Option` tags
//! are one byte, and a `Vec` is a `u64` length then its elements. A type's
//! `MIN_BYTES`, summed from its field list, bounds every decoded length
//! against the bytes actually present before any allocation, and decoding
//! failures name the `Type.field` being read. The types needing more than
//! their fields' own checks are hand-written impls holding the validators:
//! `Span` (`end >= start`), the sparse `LatencySketch`, window
//! `StreamArrival`s (arrival-ordered, non-empty payloads), depth-tracker
//! events (kind ±1, written sorted), `PhaseProfile` ([`Phase::ALL`] order)
//! and the release ring (rebuilds its derived minimum). The engine state is
//! a `wire_struct!` of its components, each with its own field list, so a
//! persisted engine field is named in its struct and its wire list only.
//! Decoded state is then validated against the resuming configuration by
//! `ServeRun::restore`. Corruption of any kind surfaces as a structured
//! [`ServeError::CorruptCheckpoint`], never a panic and never an
//! out-of-memory; and since every payload byte is a validated tag or a
//! field value, whatever decodes re-encodes to the same bytes.
//!
//! # Crash simulation and failover
//!
//! [`serve_until_crash`] drives a run while taking periodic checkpoints
//! and stops the moment the device timeline schedules work past a crash
//! cycle — modeling a device that dies mid-trace. [`CrashRun`] is the same
//! run one step at a time, for a caller that interleaves it with other
//! devices (the fleet's failover victim). The surviving artifact
//! is the latest checkpoint: [`finalize_checkpoint`] splits it into the
//! durable [`ServeReport`] of everything dispatched before the crash plus
//! the *orphan* arrivals (pulled but not yet dispatched) that a failover
//! peer must replay. The cluster layer builds its device-outage failover
//! on exactly this pair (see `gspecpal-cluster`).

use std::cmp::Reverse;
use std::collections::VecDeque;

use gspecpal::predict::LOOKBACK;
use gspecpal::{SchemeKind, StitchPolicy};
use gspecpal_gpu::{
    DeviceSpec, KernelStats, LaunchShape, Phase, PhaseCounters, PhaseProfile, Span,
};

use crate::controller::{Arm, BatchObservation, DecisionRecord, LaunchChoice, MachineState};
use crate::error::ServeError;
use crate::pipeline::{
    validate_run, Collector, ComputeCursor, DepthEvents, DepthTracker, EngineState, LatencyAcc,
    OverlapMeter, PullCursor, ReleaseRing, ReportDetail, ServeConfig, ServeMachine, ServeRun,
    CHUNK_OVERHEAD_CYCLES, D2H_BYTES_PER_STREAM,
};
use crate::policy::{BatchPolicy, PolicyKind, PriorityClass};
use crate::report::{
    BatchRecord, ExecMode, LatencySummary, RecoveryReport, ResidencyReport, ServeReport,
    StreamOutcome,
};
use crate::sketch::LatencySketch;
use crate::source::{IterSource, TraceSource};
use crate::trace::StreamArrival;

/// File magic of an encoded checkpoint.
const MAGIC: [u8; 4] = *b"GSCK";

/// Wire-format version this build writes and the only one it reads.
const VERSION: u32 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Byte writer / bounds-checked reader
// ---------------------------------------------------------------------------

/// Where an encoding goes: bytes appended in wire order, or only counted.
trait ByteSink {
    /// Whether the bytes are kept; a counter needs their number only.
    const KEEPS_BYTES: bool = true;
    fn write(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Sizes an encoding without writing it.
struct ByteCount(usize);

impl ByteSink for ByteCount {
    const KEEPS_BYTES: bool = false;
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A cursor over untrusted bytes: every read is bounds-checked and every
/// failure carries the byte offset it happened at.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn corrupt(&self, what: &'static str) -> ServeError {
        ServeError::CorruptCheckpoint { offset: self.pos, what }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.corrupt(what))?;
        let slice = self.bytes.get(self.pos..end).ok_or_else(|| self.corrupt(what))?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a collection length and bounds it against the bytes actually
    /// remaining (`min_item_bytes` per element), so a corrupted length can
    /// never trigger a huge allocation.
    fn len(&mut self, min_item_bytes: usize, what: &'static str) -> Result<usize, ServeError> {
        let n = usize::get(self, what)?;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(min_item_bytes.max(1)).is_none_or(|need| need > remaining) {
            return Err(self.corrupt(what));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// One persisted type's wire layout, serving both directions.
trait Wire: Sized {
    /// Bytes of the smallest encoding — the per-element bound on decoded
    /// collection lengths.
    const MIN_BYTES: usize;

    /// Appends the encoding.
    fn put<W: ByteSink>(&self, w: &mut W);

    /// Decodes and validates one value; `what` labels failures.
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError>;

    /// Whether `next` may follow `prev` in a decoded `Vec` (sorted
    /// collections override this).
    fn follows(_prev: &Self, _next: &Self) -> bool {
        true
    }
}

/// Fixed-width little-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put<W: ByteSink>(&self, w: &mut W) {
                w.write(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
                let b = r.take(Self::MIN_BYTES, what)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64, i64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn put<W: ByteSink>(&self, w: &mut W) {
        (*self as u64).put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        usize::try_from(u64::get(r, what)?).map_err(|_| r.corrupt(what))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put<W: ByteSink>(&self, w: &mut W) {
        u8::from(*self).put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        match u8::get(r, what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.corrupt(what)),
        }
    }
}

/// A sequence's layout: its `u64` length, then its elements.
fn put_seq<'a, T: Wire + 'a, W: ByteSink>(items: impl ExactSizeIterator<Item = &'a T>, w: &mut W) {
    items.len().put(w);
    for x in items {
        x.put(w);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put<W: ByteSink>(&self, w: &mut W) {
        put_seq(self.iter(), w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let n = r.len(T::MIN_BYTES, what)?;
        let mut v: Vec<T> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = T::get(r, what)?;
            if v.last().is_some_and(|prev| !T::follows(prev, &x)) {
                return Err(r.corrupt(what));
            }
            v.push(x);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn put<W: ByteSink>(&self, w: &mut W) {
        put_seq(self.iter(), w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        Vec::<T>::get(r, what).map(VecDeque::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put<W: ByteSink>(&self, w: &mut W) {
        self.is_some().put(w);
        if let Some(x) = self {
            x.put(w);
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        if bool::get(r, what)? {
            T::get(r, what).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put<W: ByteSink>(&self, w: &mut W) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        Ok((A::get(r, what)?, B::get(r, what)?))
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put<W: ByteSink>(&self, w: &mut W) {
        for x in self {
            x.put(w);
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let mut a = [T::default(); N];
        for x in &mut a {
            *x = T::get(r, what)?;
        }
        Ok(a)
    }
}

/// Implements [`Wire`] for a struct from its complete field list, in wire
/// order: the fields are written and read in that order (failures
/// labelled `Type.field`), and `MIN_BYTES` sums the fields' minimums.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;

            fn put<W: ByteSink>(&self, w: &mut W) {
                $(<$fty as Wire>::put(&self.$field, w);)*
            }

            fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<Self, ServeError> {
                Ok($ty {
                    $($field: <$fty as Wire>::get(
                        r,
                        concat!(stringify!($ty), ".", stringify!($field)),
                    )?,)*
                })
            }
        }
    };
}

/// Implements [`Wire`] for an enum as a one-byte tag table; tags outside
/// the table are rejected.
macro_rules! wire_tags {
    ($ty:ty { $($variant:ident $(($inner:path))? = $tag:literal),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;

            fn put<W: ByteSink>(&self, w: &mut W) {
                let tag: u8 = match self {
                    $(Self::$variant $(($inner))? => $tag,)*
                };
                tag.put(w);
            }

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
                match u8::get(r, what)? {
                    $($tag => Ok(Self::$variant $(($inner))?),)*
                    _ => Err(r.corrupt(what)),
                }
            }
        }
    };
}

// Tag tables: declaration order of the source enums.

// Tag 2 named a scheme that no longer exists; it stays reserved: it is
// never reused and decodes as corrupt.
wire_tags!(SchemeKind {
    Sequential = 0,
    Naive = 1,
    Pm = 3,
    Sre = 4,
    Rr = 5,
    Nf = 6,
    Sfa = 7,
});

wire_tags!(StitchPolicy { Sequential = 0, Tree = 1 });

wire_tags!(PriorityClass { Bulk = 0, Deadline = 1 });

wire_tags!(ReportDetail { Full = 0, Bounded = 1 });

wire_tags!(ExecMode { StreamParallel = 0, ChunkParallel = 1 });

wire_tags!(StreamOutcome {
    Served = 0,
    ShedDeadline = 1,
    ShedCopyFailure = 2,
    ShedBreakerOpen = 3,
});

// A report's policy is one tag; 3 is a default-constructed report's `None`.
wire_tags!(Option<PolicyKind> {
    Some(PolicyKind::Fifo) = 0,
    Some(PolicyKind::Deadline) = 1,
    Some(PolicyKind::Adaptive) = 2,
    None = 3,
});

// Field lists.

wire_struct!(PhaseCounters {
    cycles: u64,
    rounds: u64,
    global_transactions: u64,
    global_coalesced_hits: u64,
    shared_accesses: u64,
    alu_ops: u64,
    shuffles: u64,
    atomics: u64,
    divergent_rounds: u64,
    active_thread_rounds: u64,
    thread_rounds: u64,
});

wire_struct!(LaunchShape { resident_per_sm: u32, blocks_per_wave: u32, waves: u32 });

wire_struct!(KernelStats {
    cycles: u64,
    rounds: u64,
    global_transactions: u64,
    global_coalesced_hits: u64,
    shared_accesses: u64,
    alu_ops: u64,
    shuffles: u64,
    atomics: u64,
    recovery_rounds: u64,
    recovering_thread_rounds: u64,
    recovery_round_cycles: u64,
    recovery_cycles: u64,
    recovery_runs: u64,
    fault_retries: u64,
    fault_watchdog_kills: u64,
    fault_degraded_blocks: u64,
    fault_cycles: u64,
    shape: Option<LaunchShape>,
    profile: PhaseProfile,
});

wire_struct!(LaunchChoice {
    scheme: SchemeKind,
    spec_k: usize,
    stitch: StitchPolicy,
    predicted_millicost: u64,
});

wire_struct!(BatchRecord {
    first_stream: usize,
    streams: usize,
    machine: usize,
    scheme: SchemeKind,
    mode: ExecMode,
    bytes: usize,
    h2d: Span,
    compute: Span,
    d2h: Span,
});

wire_struct!(BatchObservation {
    bytes: u64,
    compute_cycles: u64,
    verify_cycles: u64,
    recovery_cycles: u64,
    stitch_cycles: u64,
    verification_checks: u64,
    verification_matches: u64,
    chunk_parallel: bool,
});

wire_struct!(DecisionRecord {
    batch: usize,
    machine: usize,
    arm: usize,
    choice: LaunchChoice,
    explore: bool,
    observation: BatchObservation,
});

wire_struct!(RecoveryReport {
    block_retries: u64,
    watchdog_kills: u64,
    degraded_blocks: u64,
    copy_retries: u64,
    failed_batches: u64,
    shed_streams: u64,
    breaker_trips: u64,
    fault_cycles: u64,
});

wire_struct!(ResidencyReport { hits: u64, misses: u64, evictions: u64, copied_bytes: u64 });

wire_struct!(LatencySummary { p50: u64, p95: u64, p99: u64, max: u64 });

wire_struct!(ServeReport {
    policy: Option<PolicyKind>,
    overlap: bool,
    streams: usize,
    total_bytes: usize,
    batches: Vec<BatchRecord>,
    makespan_cycles: u64,
    latencies: Vec<u64>,
    delivery: LatencySummary,
    kernel_latency: LatencySummary,
    end_states: Vec<u32>,
    accepted: Vec<bool>,
    stats: KernelStats,
    queue_depth: Vec<(u64, usize)>,
    backpressure_events: u64,
    backpressure_wait_cycles: u64,
    overlap_efficiency_permille: u64,
    outcomes: Vec<StreamOutcome>,
    recovery: RecoveryReport,
    batches_dispatched: u64,
    peak_queue: usize,
    latency_error_permille: u64,
    decisions: Vec<DecisionRecord>,
    decisions_made: u64,
    explore_decisions: u64,
    residency: ResidencyReport,
    preemptions: u64,
    preempted_cycles: u64,
});

// The engine state and its components.

wire_struct!(EngineState {
    cursor: PullCursor,
    next: usize,
    batch_idx: usize,
    breaker_consecutive: u32,
    buffer_free: [u64; 2],
    cq: ComputeCursor,
    frontiers: [u64; 3],
    window: VecDeque<StreamArrival>,
    ring: ReleaseRing,
    depths: DepthTracker,
    meter: OverlapMeter,
    residency: Option<VecDeque<usize>>,
    controller: Option<Vec<MachineState>>,
    col: Collector,
});

wire_struct!(PullCursor { pulled: usize, last_cycle: u64 });

wire_struct!(ComputeCursor { free: u64, horizon: u64 });

wire_struct!(DepthTracker {
    pending: DepthEvents,
    depth: i64,
    group: Option<u64>,
    samples: Vec<(u64, usize)>,
    peak: usize,
    zero_pairs: bool,
});

wire_struct!(OverlapMeter {
    computes: VecDeque<Span>,
    pending_copies: VecDeque<Span>,
    copy_busy: u64,
    hidden: u64,
});

wire_struct!(MachineState { decided: u64, arms: Vec<Arm> });

wire_struct!(Arm { window: VecDeque<u64>, observations: u64 });

wire_struct!(Collector { report: ServeReport, delivery: LatencyAcc, kernel: LatencyAcc });

wire_struct!(LatencyAcc { exact: Vec<u64>, sketch: Option<LatencySketch> });

// Hand-written layouts: the types whose values need more than their
// fields' own validation.

impl Wire for Span {
    const MIN_BYTES: usize = 16;

    fn put<W: ByteSink>(&self, w: &mut W) {
        (self.start, self.end).put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let (start, end) = <(u64, u64)>::get(r, what)?;
        if end < start {
            return Err(r.corrupt(what));
        }
        Ok(Span { start, end })
    }
}

/// The release count and window; the derived minimum is rebuilt.
impl Wire for ReleaseRing {
    const MIN_BYTES: usize = 16;

    fn put<W: ByteSink>(&self, w: &mut W) {
        self.released.put(w);
        self.recent.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<Self, ServeError> {
        let released = usize::get(r, "ReleaseRing.released")?;
        Ok(ReleaseRing::new(released, Wire::get(r, "ReleaseRing.recent")?))
    }
}

/// The phases' counters in [`Phase::ALL`] order.
impl Wire for PhaseProfile {
    const MIN_BYTES: usize = Phase::ALL.len() * PhaseCounters::MIN_BYTES;

    fn put<W: ByteSink>(&self, w: &mut W) {
        for (_, c) in self.iter() {
            c.put(w);
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let mut profile = PhaseProfile::default();
        for phase in Phase::ALL {
            *profile.get_mut(phase) = PhaseCounters::get(r, what)?;
        }
        Ok(profile)
    }
}

/// Sketches encode sparsely: the `(index, count)` pairs of nonzero
/// buckets in strictly increasing index order, then the exact
/// total/min/max. A million-stream sketch has a handful of hot octaves, so
/// this is far smaller than the dense 114 KiB counter array.
impl Wire for LatencySketch {
    const MIN_BYTES: usize = Vec::<(usize, u64)>::MIN_BYTES + 3 * 8;

    fn put<W: ByteSink>(&self, w: &mut W) {
        let (counts, total, min, max) = self.raw_parts();
        let buckets = || counts.iter().copied().enumerate().filter(|&(_, c)| c != 0);
        buckets().count().put(w);
        for bucket in buckets() {
            bucket.put(w);
        }
        [total, min, max].put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let buckets = Vec::<(usize, u64)>::get(r, what)?;
        let [total, min, max] = <[u64; 3]>::get(r, what)?;
        let mut counts = vec![0u64; LatencySketch::BUCKETS];
        let mut first_free = 0;
        for (i, c) in buckets {
            if i < first_free || i >= LatencySketch::BUCKETS || c == 0 {
                return Err(r.corrupt(what));
            }
            counts[i] = c;
            first_free = i + 1;
        }
        LatencySketch::from_raw_parts(counts, total, min, max).ok_or_else(|| r.corrupt(what))
    }
}

/// An admission-window arrival: its payload is never empty and is taken
/// as one slice; the window is in arrival order.
impl Wire for StreamArrival {
    const MIN_BYTES: usize = 8 + 8 + 8 + 1;

    fn put<W: ByteSink>(&self, w: &mut W) {
        self.arrival_cycle.put(w);
        self.machine.put(w);
        self.bytes.len().put(w);
        w.write(&self.bytes);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let arrival_cycle = u64::get(r, what)?;
        let machine = usize::get(r, what)?;
        let n = r.len(1, what)?;
        if n == 0 {
            return Err(r.corrupt(what));
        }
        let bytes = r.take(n, what)?.to_vec();
        Ok(StreamArrival { arrival_cycle, machine, bytes })
    }

    fn follows(prev: &Self, next: &Self) -> bool {
        prev.arrival_cycle <= next.arrival_cycle
    }
}

/// A depth-tracker event `(cycle, kind)`: the kind is +1 or -1 (one
/// two's-complement byte), and the pending events are sorted.
impl Wire for (u64, i8) {
    const MIN_BYTES: usize = 9;

    fn put<W: ByteSink>(&self, w: &mut W) {
        self.0.put(w);
        (self.1 as u8).put(w);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let cycle = u64::get(r, what)?;
        let kind = u8::get(r, what)? as i8;
        if kind != 1 && kind != -1 {
            return Err(r.corrupt(what));
        }
        Ok((cycle, kind))
    }

    fn follows(prev: &Self, next: &Self) -> bool {
        prev <= next
    }
}

/// The depth tracker's pending events, in their canonical sorted order.
impl Wire for DepthEvents {
    const MIN_BYTES: usize = Vec::<(u64, i8)>::MIN_BYTES;

    fn put<W: ByteSink>(&self, w: &mut W) {
        if W::KEEPS_BYTES {
            put_seq(self.sorted().iter(), w);
        } else {
            // Every event has one width, so sizing needs no sort.
            put_seq(self.0.iter().map(|Reverse(event)| event), w);
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ServeError> {
        let events = Vec::<(u64, i8)>::get(r, what)?;
        Ok(DepthEvents(events.into_iter().map(Reverse).collect()))
    }
}

// ---------------------------------------------------------------------------
// Setup fingerprint
// ---------------------------------------------------------------------------

/// FNV-1a fold over everything the bit-identity guarantee is conditional
/// on: the device spec's cost model, every machine's scheme / table
/// footprint / priority class / controller arms, and the full serve
/// configuration. Two setups with equal fingerprints run the engine
/// through identical state transitions, so a checkpoint from one resumes
/// under the other byte-for-byte; unequal fingerprints are refused with
/// [`ServeError::CheckpointMismatch`].
pub(crate) fn run_fingerprint(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    cfg: &ServeConfig,
) -> u64 {
    let w = &mut Vec::new();
    // Device cost model (the name and the cycles→wall clock factor never
    // influence engine arithmetic).
    spec.n_sms.put(w);
    spec.cores_per_sm.put(w);
    spec.shared_mem_bytes.put(w);
    spec.warp_size.put(w);
    spec.max_threads_per_block.put(w);
    spec.max_threads_per_sm.put(w);
    spec.registers_per_sm.put(w);
    spec.max_blocks_per_sm.put(w);
    spec.shared_latency.put(w);
    spec.global_latency.put(w);
    spec.global_segment_bytes.put(w);
    spec.alu_latency.put(w);
    spec.shuffle_latency.put(w);
    spec.barrier_latency.put(w);
    spec.atomic_latency.put(w);
    spec.hash_probe_latency.put(w);
    spec.bandwidth_millicycles_per_txn.put(w);
    spec.copy_latency_cycles.put(w);
    spec.copy_millicycles_per_byte.put(w);
    spec.copy_engines.put(w);
    // Machines: everything the engine reads from them.
    machines.len().put(w);
    for m in machines {
        m.scheme().put(w);
        m.table_footprint_bytes().put(w);
        m.class().put(w);
        m.chunk_work_factor().put(w);
        put_seq(m.arms().iter(), w);
    }
    // Serve configuration.
    match cfg.policy {
        BatchPolicy::Fifo { batch } => (0u8, batch).put(w),
        BatchPolicy::Deadline { batch, max_wait } => {
            (1u8, batch).put(w);
            max_wait.put(w);
        }
        BatchPolicy::Adaptive { max_batch } => (2u8, max_batch).put(w),
    }
    cfg.overlap.put(w);
    cfg.device_mem_bytes.put(w);
    cfg.max_queue_depth.put(w);
    // These constants replaced configuration fields. They are hashed where
    // the fields were, at the same widths, with a `false` in the slot of the
    // removed device match-counting flag, so every fingerprint, and every
    // checkpoint that carries one, stays byte-identical.
    D2H_BYTES_PER_STREAM.put(w);
    CHUNK_OVERHEAD_CYCLES.put(w);
    let sc = &cfg.scheme_config;
    sc.n_chunks.put(w);
    sc.spec_k.put(w);
    sc.vr_others_registers.put(w);
    sc.vr_end_registers.put(w);
    LOOKBACK.put(w);
    false.put(w);
    sc.spec_recovery_budget.put(w);
    sc.stitch.put(w);
    sc.faults.is_some().put(w);
    if let Some(p) = sc.faults {
        p.seed.put(w);
        p.abort_permille.put(w);
        p.copy_fail_permille.put(w);
        p.corrupt_permille.put(w);
        p.watchdog_cycles.put(w);
    }
    sc.recovery.max_retries.put(w);
    sc.recovery.backoff_base_cycles.put(w);
    sc.recovery.backoff_cap_cycles.put(w);
    sc.recovery.misspec_degrade_permille.put(w);
    cfg.recovery.copy_max_retries.put(w);
    cfg.recovery.copy_backoff_base_cycles.put(w);
    cfg.recovery.copy_backoff_cap_cycles.put(w);
    cfg.recovery.shed_wait_cycles.put(w);
    cfg.recovery.breaker_failure_threshold.put(w);
    cfg.detail.put(w);
    cfg.controller.is_some().put(w);
    if let Some(cc) = &cfg.controller {
        cc.window.put(w);
        cc.explore_period.put(w);
        cc.explore_cutoff_permille.put(w);
        cc.max_decisions.put(w);
    }
    cfg.residency.map(|rc| rc.capacity_bytes).put(w);
    cfg.preempt.put(w);
    fnv1a(w)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A serialized-or-serializable snapshot of a serve run at a quiescent
/// inter-batch boundary, bound to the setup it was taken under by a
/// fingerprint.
///
/// Opaque by design: the only ways to obtain one are [`serve_checkpoint`] /
/// [`serve_until_crash`] (from a live engine) and
/// [`EngineCheckpoint::decode`] (from previously encoded bytes), and the
/// only ways to consume one are [`serve_resume`], [`finalize_checkpoint`],
/// and [`EngineCheckpoint::encode`]. Encoding is byte-deterministic: equal
/// checkpoints encode to equal bytes on every host.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCheckpoint {
    pub(crate) fingerprint: u64,
    pub(crate) state: EngineState,
}

impl EngineCheckpoint {
    /// The setup fingerprint the checkpoint is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Streams pulled from the source when the checkpoint was taken — the
    /// number of arrivals [`serve_resume`] skips before handing the source
    /// to the restored engine.
    pub fn streams_pulled(&self) -> usize {
        self.state.cursor.pulled
    }

    /// Batches the run had formed (including abandoned ones) when the
    /// checkpoint was taken.
    pub fn batches_formed(&self) -> usize {
        self.state.batch_idx
    }

    /// Arrivals sitting in the admission window at the boundary: pulled
    /// from the source but not yet dispatched. On failover these are the
    /// checkpoint's share of the orphans a peer must replay (see
    /// [`finalize_checkpoint`]).
    pub fn window_len(&self) -> usize {
        self.state.window.len()
    }

    /// Serializes the checkpoint: magic, version, fingerprint, engine
    /// state, FNV-1a-64 checksum. Byte-deterministic.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        self.put_body(&mut w);
        let checksum = fnv1a(&w);
        checksum.put(&mut w);
        w
    }

    /// `encode().len()`, from the same layout without writing a byte: what
    /// `checkpoint_bytes` counts and what a failover ships.
    pub fn encoded_len(&self) -> usize {
        let mut n = ByteCount(0);
        self.put_body(&mut n);
        n.0 + u64::MIN_BYTES
    }

    /// Everything [`EngineCheckpoint::encode`] writes before the checksum.
    fn put_body<W: ByteSink>(&self, w: &mut W) {
        w.write(&MAGIC);
        VERSION.put(w);
        self.fingerprint.put(w);
        self.state.put(w);
    }

    /// Deserializes a checkpoint, verifying the checksum before touching
    /// the payload. Truncation, bit flips, bad magic, unknown versions,
    /// out-of-range tags, and structurally impossible state are all
    /// structured [`ServeError::CorruptCheckpoint`] rejections — this
    /// function never panics and never allocates more than the input's
    /// own length implies.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        const HEADER: usize = 4 + 4 + 8;
        if bytes.len() < HEADER + 8 {
            return Err(ServeError::CorruptCheckpoint {
                offset: bytes.len(),
                what: "truncated checkpoint",
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != stored {
            return Err(ServeError::CorruptCheckpoint {
                offset: body.len(),
                what: "checksum mismatch",
            });
        }
        let mut r = Reader::new(body);
        if r.take(4, "magic")? != MAGIC {
            return Err(ServeError::CorruptCheckpoint { offset: 0, what: "bad magic" });
        }
        let version = u32::get(&mut r, "version")?;
        if version != VERSION {
            return Err(ServeError::CorruptCheckpoint {
                offset: 4,
                what: "unsupported checkpoint version",
            });
        }
        let fingerprint = u64::get(&mut r, "fingerprint")?;
        let state = EngineState::get(&mut r, "EngineState")?;
        if r.pos != body.len() {
            return Err(r.corrupt("trailing bytes after the snapshot"));
        }
        Ok(EngineCheckpoint { fingerprint, state })
    }
}

/// What [`serve_checkpoint`] produced: either the run finished before the
/// requested boundary, or a checkpoint was taken there.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointOutcome {
    /// The source ran dry (or the breaker drained the trace) before the
    /// requested batch boundary was reached — the completed report is the
    /// whole answer and there is nothing to resume.
    Completed(Box<ServeReport>),
    /// The run was suspended at the first quiescent boundary at or after
    /// the requested batch count.
    Checkpoint(Box<EngineCheckpoint>),
}

/// Runs the engine until `at_batch` batches have formed and the engine is
/// quiescent, then suspends it into an [`EngineCheckpoint`] (pass 0 to
/// checkpoint the fresh engine before any dispatch). Returns
/// [`CheckpointOutcome::Completed`] when the run ends first — including
/// under [`ServeConfig::preempt`], where an open bulk kernel can keep the
/// engine from ever quiescing mid-trace.
pub fn serve_checkpoint<S: TraceSource>(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    source: S,
    cfg: &ServeConfig,
    at_batch: usize,
) -> Result<CheckpointOutcome, ServeError> {
    let mut run = ServeRun::new(spec, machines, source, cfg)?;
    let fingerprint = run_fingerprint(spec, machines, cfg);
    loop {
        if run.batches_formed() >= at_batch && run.quiescent() {
            return Ok(CheckpointOutcome::Checkpoint(Box::new(EngineCheckpoint {
                fingerprint,
                state: run.snapshot(),
            })));
        }
        if !run.step()? {
            return Ok(CheckpointOutcome::Completed(Box::new(run.finish())));
        }
    }
}

/// Resumes a checkpointed run over a fresh instance of the *same* source
/// and finishes it. The report is bit-identical to the uninterrupted
/// run's for every policy, fault plan, detail level, and thread count.
///
/// `source` must replay the same arrival sequence the original run
/// consumed (the checkpoint records how many arrivals to skip); a source
/// that runs dry before the checkpoint position is rejected as corrupt. A
/// checkpoint taken under a different setup is refused with
/// [`ServeError::CheckpointMismatch`].
pub fn serve_resume<S: TraceSource>(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    mut source: S,
    cfg: &ServeConfig,
    checkpoint: &EngineCheckpoint,
) -> Result<ServeReport, ServeError> {
    validate_run(spec, machines, cfg)?;
    let expected = run_fingerprint(spec, machines, cfg);
    if expected != checkpoint.fingerprint {
        return Err(ServeError::CheckpointMismatch { expected, found: checkpoint.fingerprint });
    }
    for _ in 0..checkpoint.state.cursor.pulled {
        if source.next_arrival().is_none() {
            return Err(ServeError::CorruptCheckpoint {
                offset: 0,
                what: "source ran dry before the checkpoint position",
            });
        }
    }
    let mut run = ServeRun::restore(spec, machines, source, cfg, checkpoint.state.clone())?;
    while run.step()? {}
    Ok(run.finish())
}

/// What survived a simulated mid-trace device crash.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrashOutcome {
    /// The finished report, when the whole run completed at or before the
    /// crash cycle — the crash struck an idle device and nothing was lost.
    pub completed: Option<Box<ServeReport>>,
    /// The latest checkpoint taken before the crash (always present when
    /// the run did *not* complete: a checkpoint is taken at batch 0,
    /// before any dispatch, so there is always a resume point).
    pub checkpoint: Option<Box<EngineCheckpoint>>,
    /// Checkpoints taken during the run.
    pub checkpoints_taken: u64,
    /// Total encoded bytes of those checkpoints — what a real deployment
    /// would have written to durable storage.
    pub checkpoint_bytes: u64,
}

/// A run that will crash at a given cycle, stepped one batch at a time
/// under the one checkpoint cadence: [`serve_until_crash`] and the fleet's
/// failover victim (see `gspecpal-cluster`) both step it.
pub struct CrashRun<'e, 'm, S> {
    /// The live run; `None` once it crashed or completed.
    run: Option<ServeRun<'e, 'm, S>>,
    fingerprint: u64,
    every_batches: usize,
    crash_cycle: u64,
    outcome: CrashOutcome,
}

impl<'e, 'm, S: TraceSource> CrashRun<'e, 'm, S> {
    /// A fresh run that checkpoints every `every_batches` formed batches
    /// (see [`serve_until_crash`]) and dies once its timeline schedules
    /// work past `crash_cycle`. Fails when `cfg` is inconsistent.
    pub fn new(
        spec: &'e DeviceSpec,
        machines: &'e [ServeMachine<'m>],
        source: S,
        cfg: &'e ServeConfig,
        every_batches: usize,
        crash_cycle: u64,
    ) -> Result<Self, ServeError> {
        Ok(CrashRun {
            run: Some(ServeRun::new(spec, machines, source, cfg)?),
            fingerprint: run_fingerprint(spec, machines, cfg),
            every_batches: every_batches.max(1),
            crash_cycle,
            outcome: CrashOutcome::default(),
        })
    }

    /// Takes a checkpoint if one is due, then dies or steps one batch;
    /// `Ok(false)` once the device has crashed or its run completed.
    pub fn step(&mut self) -> Result<bool, ServeError> {
        let Some(run) = self.run.as_mut() else { return Ok(false) };
        let out = &mut self.outcome;
        let due = out.checkpoint.as_ref().map_or(0, |c| c.batches_formed() + self.every_batches);
        if run.quiescent() && run.horizon() <= self.crash_cycle && run.batches_formed() >= due {
            let ck = EngineCheckpoint { fingerprint: self.fingerprint, state: run.snapshot() };
            out.checkpoints_taken += 1;
            out.checkpoint_bytes += ck.encoded_len() as u64;
            out.checkpoint = Some(Box::new(ck));
        }
        if run.horizon() > self.crash_cycle {
            self.run = None; // in-flight state dies with the device
        } else if !run.step()? {
            out.completed = self.run.take().map(|r| Box::new(r.finish()));
        }
        Ok(self.run.is_some())
    }

    /// The latest checkpoint taken so far.
    pub fn checkpoint(&self) -> Option<&EngineCheckpoint> {
        self.outcome.checkpoint.as_deref()
    }

    /// Steps the run until it crashes or completes; what survived.
    pub fn finish(mut self) -> Result<CrashOutcome, ServeError> {
        while self.step()? {}
        Ok(self.outcome)
    }
}

/// Drives a run that will crash at `crash_cycle`, checkpointing every
/// `every_batches` formed batches (clamped to at least 1; the fresh engine
/// is always checkpointed first, so there is always a resume point). The
/// run stops the moment the device timeline schedules work past the crash
/// cycle; what survives is the latest checkpoint, whose encoded size is
/// accounted as durable-storage traffic.
pub fn serve_until_crash<S: TraceSource>(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    source: S,
    cfg: &ServeConfig,
    every_batches: usize,
    crash_cycle: u64,
) -> Result<CrashOutcome, ServeError> {
    CrashRun::new(spec, machines, source, cfg, every_batches, crash_cycle)?.finish()
}

/// Seals a crashed run's checkpoint into its durable [`ServeReport`] plus
/// the *orphan* arrivals a failover peer must replay.
///
/// The checkpoint's admission window holds streams that were pulled from
/// the source but never dispatched — on the dead device they are neither
/// served nor shed, so they are subtracted from the report's pull-side
/// totals and handed back as orphans (in admission order). The remaining
/// state finalizes exactly like a run whose source dried at the boundary:
/// same summaries, same counters, same invariants.
pub fn finalize_checkpoint(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    cfg: &ServeConfig,
    checkpoint: &EngineCheckpoint,
) -> Result<(ServeReport, Vec<StreamArrival>), ServeError> {
    validate_run(spec, machines, cfg)?;
    let expected = run_fingerprint(spec, machines, cfg);
    if expected != checkpoint.fingerprint {
        return Err(ServeError::CheckpointMismatch { expected, found: checkpoint.fingerprint });
    }
    let corrupt = |what: &'static str| ServeError::CorruptCheckpoint { offset: 0, what };
    let mut state = checkpoint.state.clone();
    let orphans = Vec::from(std::mem::take(&mut state.window));
    state.cursor.pulled = state.next;
    let report = &mut state.col.report;
    for a in &orphans {
        report.streams =
            report.streams.checked_sub(1).ok_or_else(|| corrupt("window exceeds stream count"))?;
        report.total_bytes = report
            .total_bytes
            .checked_sub(a.bytes.len())
            .ok_or_else(|| corrupt("window exceeds byte count"))?;
    }
    let source = IterSource(std::iter::empty::<StreamArrival>());
    let mut run = ServeRun::restore(spec, machines, source, cfg, state)?;
    while run.step()? {}
    Ok((run.finish(), orphans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::serve;
    use crate::policy::BatchPolicy;
    use crate::trace::Trace;
    use gspecpal_fsm::examples::div7;

    fn setup() -> (DeviceSpec, gspecpal_fsm::Dfa) {
        (DeviceSpec::test_unit(), div7())
    }

    fn cfg() -> ServeConfig {
        ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() }
    }

    #[test]
    fn scheme_tags_are_pinned_and_retired_tags_are_corrupt() {
        let table = [
            (0, SchemeKind::Sequential),
            (1, SchemeKind::Naive),
            (3, SchemeKind::Pm),
            (4, SchemeKind::Sre),
            (5, SchemeKind::Rr),
            (6, SchemeKind::Nf),
            (7, SchemeKind::Sfa),
        ];
        assert_eq!(table.len(), SchemeKind::all().len());
        for (tag, kind) in table {
            let mut w = Vec::new();
            kind.put(&mut w);
            assert_eq!(w, [tag], "{kind} encodes to its tag");
            assert_eq!(SchemeKind::get(&mut Reader::new(&[tag]), "scheme").unwrap(), kind);
        }
        for tag in [2u8, 8] {
            let err = SchemeKind::get(&mut Reader::new(&[tag]), "scheme").unwrap_err();
            assert_eq!(
                err,
                ServeError::CorruptCheckpoint { offset: 1, what: "scheme" },
                "tag {tag}"
            );
        }
    }

    #[test]
    fn resume_matches_the_uninterrupted_run() {
        let (spec, dfa) = setup();
        let machine = ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64));
        let machines = [machine];
        let trace = Trace::synthetic(3, 30, 1, 40, 8..96, b"01");
        let cfg = cfg();
        let reference = serve(&spec, &machines, &trace, &cfg).unwrap();
        for at_batch in [0usize, 1, 3, 5, 100] {
            match serve_checkpoint(&spec, &machines, trace.source(), &cfg, at_batch).unwrap() {
                CheckpointOutcome::Completed(report) => {
                    assert_eq!(*report, reference, "completed at_batch={at_batch}");
                }
                CheckpointOutcome::Checkpoint(ck) => {
                    let resumed =
                        serve_resume(&spec, &machines, trace.source(), &cfg, &ck).unwrap();
                    assert_eq!(resumed, reference, "resumed at_batch={at_batch}");
                }
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let (spec, dfa) = setup();
        let machines = [ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64))];
        let trace = Trace::synthetic(5, 24, 1, 40, 8..96, b"01");
        let cfg = cfg();
        let CheckpointOutcome::Checkpoint(ck) =
            serve_checkpoint(&spec, &machines, trace.source(), &cfg, 2).unwrap()
        else {
            panic!("the trace has more than two batches");
        };
        let bytes = ck.encode();
        let decoded = EngineCheckpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, *ck);
        assert_eq!(decoded.encode(), bytes, "encoding is byte-deterministic");
    }

    #[test]
    fn corruption_is_rejected_never_panicking() {
        let (spec, dfa) = setup();
        let machines = [ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64))];
        let trace = Trace::synthetic(9, 24, 1, 40, 8..96, b"01");
        let cfg = cfg();
        let CheckpointOutcome::Checkpoint(ck) =
            serve_checkpoint(&spec, &machines, trace.source(), &cfg, 2).unwrap()
        else {
            panic!("expected a checkpoint");
        };
        let bytes = ck.encode();
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(EngineCheckpoint::decode(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        // Every single-bit flip fails cleanly (the checksum net).
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(EngineCheckpoint::decode(&bad).is_err(), "bit flip at byte {i}");
        }
    }

    #[test]
    fn mismatched_setups_are_refused() {
        let (spec, dfa) = setup();
        let machines = [ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64))];
        let trace = Trace::synthetic(11, 24, 1, 40, 8..96, b"01");
        let cfg = cfg();
        let CheckpointOutcome::Checkpoint(ck) =
            serve_checkpoint(&spec, &machines, trace.source(), &cfg, 1).unwrap()
        else {
            panic!("expected a checkpoint");
        };
        let other = ServeConfig { policy: BatchPolicy::Fifo { batch: 5 }, ..cfg.clone() };
        match serve_resume(&spec, &machines, trace.source(), &other, &ck) {
            Err(ServeError::CheckpointMismatch { .. }) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        // A source that dries up early is structurally corrupt.
        let short = Trace::from_arrivals(trace.arrivals()[..1].to_vec());
        match serve_resume(&spec, &machines, short.source(), &cfg, &ck) {
            Err(ServeError::CorruptCheckpoint { .. }) => {}
            other => panic!("expected a dry-source rejection, got {other:?}"),
        }
    }

    #[test]
    fn finalize_splits_durable_report_from_orphans() {
        let (spec, dfa) = setup();
        let machines = [ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(64))];
        let trace = Trace::synthetic(13, 40, 1, 30, 8..96, b"01");
        let cfg = cfg();
        let crash = serve_until_crash(&spec, &machines, trace.source(), &cfg, 1, 200_000).unwrap();
        assert!(crash.checkpoints_taken >= 1, "batch-0 checkpoint is unconditional");
        assert!(crash.checkpoint_bytes > 0);
        let ck = crash.checkpoint.expect("a checkpoint always survives");
        let (durable, orphans) = finalize_checkpoint(&spec, &machines, &cfg, &ck).unwrap();
        // Conservation: durable streams + orphans + never-pulled = trace.
        assert_eq!(durable.streams, ck.streams_pulled() - orphans.len());
        assert!(durable.streams + orphans.len() <= trace.len());
        // The durable report is internally consistent.
        assert_eq!(durable.stats.profile.total_cycles(), durable.stats.cycles);
        assert_eq!(durable.batches.len() as u64, durable.batches_dispatched);
    }
}
