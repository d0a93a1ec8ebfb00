//! Round-based kernel execution.
//!
//! A [`RoundKernel`] describes what each thread does between two consecutive
//! block-wide barriers. The launcher steps every thread through the current
//! round (grouped by warp so coalescing can be modelled), merges the
//! per-thread clocks at the barrier — round time is the *maximum* thread
//! time, exactly like `__syncthreads()` — then asks the kernel whether
//! another round follows.
//!
//! Threads run sequentially inside the simulator, so kernels are free to
//! mutate their own shared state from `round`; it is the kernel author's
//! responsibility to preserve lockstep semantics where the algorithm needs
//! them (e.g. by double-buffering values that are "communicated" across the
//! barrier), just as it would be on real hardware.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::grid::BlockDim;
use crate::spec::DeviceSpec;
use crate::stats::{KernelStats, Phase};

/// Source of [`SegmentWindow`] uids. Starts at 1 so that the default
/// [`WindowEpoch`] (uid 0) names no window.
static NEXT_WINDOW_UID: AtomicU64 = AtomicU64::new(1);

/// One epoch of one warp's coalescing window: the window's uid and its
/// generation. Within an epoch the window only grows, so a list of segments
/// that was inserted in full during the epoch is still in full in it — the
/// fact [`ThreadCtx::global_batch`] replays on. The default value matches no
/// window's epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowEpoch {
    uid: u64,
    gen: u64,
}

/// A list of single-segment accesses of one region, as
/// [`ThreadCtx::global_batch`] charges it.
#[derive(Clone, Copy, Debug)]
pub enum Segments<'a> {
    /// One segment id per access, duplicates included, in any order.
    List(&'a [u64]),
    /// The same list as 64-bit word masks: the cheaper replay for a long list
    /// that is charged many times.
    Masks(&'a SegmentMasks),
}

impl Segments<'_> {
    /// Accesses in the list, duplicates included.
    fn len(self) -> u64 {
        match self {
            Segments::List(segs) => segs.len() as u64,
            Segments::Masks(masks) => masks.len,
        }
    }
}

impl<'a> From<&'a [u64]> for Segments<'a> {
    fn from(segs: &'a [u64]) -> Self {
        Segments::List(segs)
    }
}

impl<'a> From<&'a SegmentMasks> for Segments<'a> {
    fn from(masks: &'a SegmentMasks) -> Self {
        Segments::Masks(masks)
    }
}

/// A list of single-segment accesses kept as the set of its segments, one
/// 64-bit mask per aligned run of 64 segment ids, plus its length. A warp
/// window charges a mask against its bitmap word with one OR and a popcount
/// (see [`ThreadCtx::global_batch`]), so replaying the list costs one step
/// per word, not per access. Charges do not depend on the order of a list,
/// so the set and its length are all a replay needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentMasks {
    /// `(w, mask)`: bit `i` of `mask` marks segment `64 * w + i`. A word may
    /// repeat (pushes in no particular order); every mask is non-zero.
    words: Vec<(u64, u64)>,
    /// Accesses pushed, duplicates included.
    len: u64,
}

impl SegmentMasks {
    /// Appends one access to segment `seg`. Consecutive accesses within one
    /// 64-segment word share its entry, so pushing in ascending order keeps
    /// one entry per touched word.
    #[inline]
    pub fn push(&mut self, seg: u64) {
        let (w, bit) = (seg / 64, 1u64 << (seg % 64));
        match self.words.last_mut() {
            Some((last, mask)) if *last == w => *mask |= bit,
            _ => self.words.push((w, bit)),
        }
        self.len += 1;
    }

    /// Accesses in the list, duplicates included.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host bytes the masks hold.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// A warp's coalescing window: the set of `(region, segment)` pairs touched
/// since the last barrier.
///
/// Semantically this is exactly `HashSet<(u32, u64)>::insert`, but shaped
/// for the simulator's hottest loop (every global access of every thread of
/// every round goes through it). Segments below [`Self::DENSE_SEGMENTS`] of
/// the first [`Self::DENSE_REGIONS`] regions — every input and table access
/// of the schemes — live in a per-region bitmap, one word per 64 segments;
/// the rest in an open-addressing table with linear probing and a
/// multiply-shift hash. Both are generation-stamped (per word, per slot), so
/// `clear` is a counter bump rather than a walk. Only membership is ever
/// queried — the set is never iterated — so the layout cannot influence any
/// simulated count.
///
/// **Epoch invariant.** `(uid, gen)` names one epoch of one window, never
/// reused: `uid` is drawn once, when the window is created, and `gen` only
/// ever increases — `clear` bumps it and `grow` keeps it. Between two
/// `clear`s the set only grows. So a [`WindowEpoch`] stamp taken after a
/// list of segments was inserted certifies, while it equals [`Self::epoch`],
/// that every segment of the list is still present. No atomic is taken per
/// `clear`.
pub(crate) struct SegmentWindow {
    /// Per dense region: `[stamp, bits]` per 64 segments; the bits are live
    /// iff the stamp matches `gen`.
    dense: [Vec<[u64; 2]>; Self::DENSE_REGIONS],
    /// `(segment, region)` per slot; live iff the slot's stamp matches.
    keys: Vec<(u64, u32)>,
    /// Slot generation stamps: `stamps[i] == gen` marks a live entry.
    stamps: Vec<u64>,
    uid: u64,
    gen: u64,
    len: usize,
}

impl SegmentWindow {
    /// Starting capacity; a power of two, sized for a warp's typical
    /// footprint (table rows + input segments) without growth.
    const MIN_CAPACITY: usize = 64;
    /// Regions `0..DENSE_REGIONS` keep small segment ids in bitmaps.
    const DENSE_REGIONS: usize = 2;
    /// Segment ids below this use the bitmaps: at most 64 KiB of bitmap and
    /// stamps per dense region.
    const DENSE_SEGMENTS: u64 = 1 << 18;

    pub(crate) fn new() -> Self {
        SegmentWindow {
            dense: Default::default(),
            keys: vec![(0, 0); Self::MIN_CAPACITY],
            stamps: vec![0; Self::MIN_CAPACITY],
            uid: NEXT_WINDOW_UID.fetch_add(1, Ordering::Relaxed),
            // Stamps start at 0, so the live generation starts at 1.
            gen: 1,
            len: 0,
        }
    }

    /// The current epoch (see the epoch invariant above).
    #[inline]
    pub(crate) fn epoch(&self) -> WindowEpoch {
        WindowEpoch { uid: self.uid, gen: self.gen }
    }

    #[inline]
    fn hash(region: u32, seg: u64) -> u64 {
        let mut h = seg.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= u64::from(region).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 32)
    }

    /// Inserts `(region, seg)`; returns `true` iff it was not yet present —
    /// the same contract as `HashSet::insert`.
    #[inline]
    pub(crate) fn insert(&mut self, region: u32, seg: u64) -> bool {
        if let Some(words) = self.dense.get_mut(region as usize) {
            if seg < Self::DENSE_SEGMENTS {
                let w = (seg / 64) as usize;
                if w >= words.len() {
                    words.resize(w + 1, [0, 0]);
                }
                let [stamp, bits] = &mut words[w];
                if *stamp != self.gen {
                    *stamp = self.gen;
                    *bits = 0;
                }
                let bit = 1u64 << (seg % 64);
                let fresh = *bits & bit == 0;
                *bits |= bit;
                return fresh;
            }
        }
        self.insert_hashed(region, seg)
    }

    /// Inserts every segment of `masks`; returns how many were not yet
    /// present — what inserting them one by one would count as fresh. A
    /// dense word is one OR into its bitmap word; any other word takes the
    /// per-segment path.
    pub(crate) fn insert_masks(&mut self, region: u32, masks: &SegmentMasks) -> u64 {
        let mut fresh = 0;
        for &(w, mask) in &masks.words {
            match self.dense.get_mut(region as usize) {
                Some(words) if w < Self::DENSE_SEGMENTS / 64 => {
                    let w = w as usize;
                    if w >= words.len() {
                        words.resize(w + 1, [0, 0]);
                    }
                    let [stamp, bits] = &mut words[w];
                    if *stamp != self.gen {
                        *stamp = self.gen;
                        *bits = 0;
                    }
                    fresh += u64::from((mask & !*bits).count_ones());
                    *bits |= mask;
                }
                _ => {
                    let mut m = mask;
                    while m != 0 {
                        let seg = w * 64 + u64::from(m.trailing_zeros());
                        fresh += u64::from(self.insert_hashed(region, seg));
                        m &= m - 1;
                    }
                }
            }
        }
        fresh
    }

    fn insert_hashed(&mut self, region: u32, seg: u64) -> bool {
        // Keep load below 7/8 so linear probes stay short.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = (Self::hash(region, seg) as usize) & mask;
        loop {
            if self.stamps[i] != self.gen {
                self.stamps[i] = self.gen;
                self.keys[i] = (seg, region);
                self.len += 1;
                return true;
            }
            if self.keys[i] == (seg, region) {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let live: Vec<(u64, u32)> = self
            .keys
            .iter()
            .zip(&self.stamps)
            .filter(|&(_, &s)| s == self.gen)
            .map(|(&k, _)| k)
            .collect();
        let cap = self.keys.len() * 2;
        self.keys = vec![(0, 0); cap];
        // Fresh stamps are 0 and `gen` is at least 1, so every new slot is
        // free; `gen` itself stays, which keeps the epoch alive across growth.
        self.stamps = vec![0; cap];
        self.len = 0;
        for (seg, region) in live {
            self.insert_hashed(region, seg);
        }
    }

    /// Empties the window. O(1): live entries are whatever matches the new
    /// generation, i.e. nothing.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
    }
}

/// Per-block simulation scratch, reused across blocks, waves and launches on
/// the host thread: a grid launch runs thousands of blocks, and reallocating
/// clocks and warp windows per block dominated the host-side cost of small
/// kernels.
#[derive(Default)]
struct BlockScratch {
    clocks: Vec<u64>,
    windows: Vec<SegmentWindow>,
}

impl Default for SegmentWindow {
    fn default() -> Self {
        SegmentWindow::new()
    }
}

thread_local! {
    static BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// What a thread reports at the end of its round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The thread did useful work this round (false = idle).
    pub active: bool,
    /// The thread (re-)executed chunk work as part of verification/recovery.
    /// Feeds the Table III utilization metric.
    pub recovering: bool,
}

impl RoundOutcome {
    /// An idle thread.
    pub const IDLE: RoundOutcome = RoundOutcome { active: false, recovering: false };
    /// A thread doing non-recovery work.
    pub const ACTIVE: RoundOutcome = RoundOutcome { active: true, recovering: false };
    /// A thread doing recovery work.
    pub const RECOVERING: RoundOutcome = RoundOutcome { active: true, recovering: true };
}

/// Per-thread execution context handed to [`RoundKernel::round`].
///
/// All cost-charging goes through this: the kernel calls the access methods
/// and the simulator accumulates cycles on the thread's clock and counters in
/// [`KernelStats`].
pub struct ThreadCtx<'a> {
    /// This thread's global id (block base + lane for grid launches; equal
    /// to the in-block id for single-block launches).
    pub tid: usize,
    spec: &'a DeviceSpec,
    clock: u64,
    stats: &'a mut KernelStats,
    window: &'a mut SegmentWindow,
}

impl<'a> ThreadCtx<'a> {
    /// The device being simulated.
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// This thread's clock (cycles since kernel start).
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Charges `n` ALU operations.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.clock += n * self.spec.alu_latency;
        self.stats.alu_ops += n;
    }

    /// Charges `n` shared-memory accesses (loads and stores cost the same).
    #[inline]
    pub fn shared(&mut self, n: u64) {
        self.clock += n * self.spec.shared_latency;
        self.stats.shared_accesses += n;
    }

    /// Charges a global-memory access of `bytes` bytes at `offset` within
    /// memory region `region`.
    ///
    /// Coalescing: accesses are grouped into segments of
    /// `global_segment_bytes`. The first access to a segment by any thread of
    /// this warp in the current round pays a full transaction; subsequent
    /// accesses to the same segment hit the L1/broadcast path, which shares
    /// storage with shared memory on Ampere and costs the same as a shared
    /// access. This is what makes Nearest-First's same-chunk scheduling
    /// cheap (Fig 9) and what amortizes streaming input reads — while
    /// keeping a cached global row no cheaper than a resident shared row.
    #[inline]
    pub fn global(&mut self, region: u32, offset: u64, bytes: u64) {
        for seg in self.spec.segments(offset, bytes) {
            self.segment(region, seg);
        }
    }

    /// Charges one access to segment `seg` of `region`: a transaction if it
    /// is new to the warp's window, a coalesced hit otherwise.
    #[inline]
    fn segment(&mut self, region: u32, seg: u64) {
        if self.window.insert(region, seg) {
            self.clock += self.spec.global_latency;
            self.stats.global_transactions += 1;
        } else {
            self.clock += self.spec.shared_latency;
            self.stats.global_coalesced_hits += 1;
        }
    }

    /// Charges `len` one-byte global accesses of `region` at the consecutive
    /// offsets `offset..offset + len` — exactly what that many
    /// [`ThreadCtx::global`] calls charge. Each touched segment goes through
    /// the warp window once, for the span's first access to it; every other
    /// access finds its segment already there and is a coalesced hit.
    #[inline]
    pub fn global_span(&mut self, region: u32, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let segs = self.spec.segments(offset, len);
        let hits = len - (segs.end - segs.start);
        for seg in segs {
            self.segment(region, seg);
        }
        self.clock += hits * self.spec.shared_latency;
        self.stats.global_coalesced_hits += hits;
    }

    /// Charges one single-segment global access per entry of `segs` (segment
    /// ids of `region`, as [`DeviceSpec::segments`] numbers them, given as a
    /// [`Segments::List`] or as [`SegmentMasks`]) — exactly what that many
    /// [`ThreadCtx::global`] calls charge, in any order: each segment new to
    /// the warp's window is a transaction, every other access a coalesced
    /// hit.
    ///
    /// `stamp` belongs to this one `(region, segs)` list and lets a replayed
    /// list cost O(1): if it equals the warp window's current epoch, every
    /// segment was inserted earlier in this epoch and, the window only
    /// growing within one, each access is a coalesced hit. Otherwise the
    /// segments go into the window — a list one by one, masks a word at a
    /// time — and `stamp` is set to the epoch. Clocks and counters are sums,
    /// so charging the batch at once instead of interleaved with the
    /// thread's other accesses changes nothing.
    #[inline]
    pub fn global_batch<'s>(
        &mut self,
        region: u32,
        segs: impl Into<Segments<'s>>,
        stamp: &mut WindowEpoch,
    ) {
        let segs = segs.into();
        let epoch = self.window.epoch();
        let fresh = if *stamp == epoch {
            0
        } else {
            *stamp = epoch;
            match segs {
                Segments::List(list) => {
                    list.iter().map(|&seg| u64::from(self.window.insert(region, seg))).sum()
                }
                Segments::Masks(masks) => self.window.insert_masks(region, masks),
            }
        };
        let hits = segs.len() - fresh;
        self.clock += fresh * self.spec.global_latency + hits * self.spec.shared_latency;
        self.stats.global_transactions += fresh;
        self.stats.global_coalesced_hits += hits;
    }

    /// Charges `n` shared-memory hash-table probes (each counted as a
    /// shared access; latency pipelines with the access it guards).
    #[inline]
    pub fn probes(&mut self, n: u64) {
        self.clock += n * self.spec.hash_probe_latency;
        self.stats.shared_accesses += n;
    }

    /// Charges `n` warp shuffles (register-to-register thread communication,
    /// the `end_state_comm` of Algorithm 3).
    #[inline]
    pub fn shuffle(&mut self, n: u64) {
        self.clock += n * self.spec.shuffle_latency;
        self.stats.shuffles += n;
    }

    /// Charges `n` atomic operations (the concurrent speculation queue).
    #[inline]
    pub fn atomic(&mut self, n: u64) {
        self.clock += n * self.spec.atomic_latency;
        self.stats.atomics += n;
    }

    /// Records that the cycles spent since `start_cycles` were chunk
    /// re-execution (recovery) work; increments the recovery-run counter.
    pub fn credit_recovery(&mut self, start_cycles: u64) {
        self.stats.recovery_cycles += self.clock.saturating_sub(start_cycles);
        self.stats.recovery_runs += 1;
    }
}

/// A kernel expressed as barrier-delimited rounds.
pub trait RoundKernel {
    /// Called by [`crate::grid::launch_grid`] before each block's first
    /// round, in block order, with the block's global thread ids: one kernel
    /// serves every block of the grid, and this is where it learns which
    /// block comes next (and may reset per-block scratch it keeps across
    /// blocks). [`launch`] and [`crate::grid::launch_blocks`] never call it.
    /// The default does nothing.
    fn begin_block(&mut self, _dim: &BlockDim) {}

    /// Called once at the start of each round, before any thread's
    /// [`RoundKernel::round`]. A kernel may plan the whole round here — pick
    /// every thread's work and compute its host-side results together — as
    /// long as each thread's device cost is still charged on its own
    /// [`ThreadCtx`] in `round`. The default does nothing.
    fn begin_round(&mut self, _round: u64) {}

    /// Executes thread `tid`'s work for the current round.
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome;

    /// Called once after each barrier with the index of the round that just
    /// completed; return `true` to run another round. Kernel-global control
    /// flow (the frontier advance of Algorithms 3-5) lives here.
    fn after_sync(&mut self, completed_round: u64) -> bool;

    /// Per-block resource requirements when this kernel runs `threads`
    /// threads in one block. The default is the light shape (32 registers,
    /// no shared memory); kernels with real shared-memory or register
    /// footprints (hot tables, record windows, speculation queues) override
    /// this so the grid scheduler sizes its waves honestly — see
    /// [`crate::occupancy::max_resident_blocks`].
    fn requirements(&self, threads: u32) -> crate::occupancy::BlockRequirements {
        crate::occupancy::BlockRequirements::light(threads)
    }

    /// The [`Phase`] the *current* round belongs to. Queried once per round
    /// at the barrier, **before** [`RoundKernel::after_sync`] runs — so a
    /// kernel whose state machine flips phases in `after_sync` (the VR
    /// verify/recover loop) reports the phase of the round that just
    /// executed. Defaults to [`Phase::SpecExec`], the right answer for plain
    /// forward scans.
    fn phase(&self) -> Phase {
        Phase::SpecExec
    }
}

/// Safety valve: a kernel that runs this many rounds is assumed stuck.
pub const DEFAULT_MAX_ROUNDS: u64 = 1 << 22;

/// Launches `kernel` with `n_threads` threads in one block and runs it to
/// completion, returning the collected statistics.
///
/// ```
/// use gspecpal_gpu::{launch, DeviceSpec, RoundKernel, RoundOutcome, ThreadCtx};
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
/// let spec = DeviceSpec::test_unit();
/// let stats = launch(&spec, 8, &mut Burn);
/// assert_eq!(stats.alu_ops, 80);
/// assert_eq!(stats.rounds, 1);
/// ```
///
/// Panics if `n_threads` exceeds the device's block capacity or if the
/// kernel exceeds `DEFAULT_MAX_ROUNDS` rounds (which indicates a bug in the
/// kernel's termination logic, the moral equivalent of a hung GPU). Wider
/// launches go through [`crate::grid::launch_grid`], which partitions the
/// threads into occupancy-fitted blocks, or [`crate::grid::launch_blocks`],
/// which runs a list of blocks; both schedule them as a grid.
pub fn launch<K: RoundKernel>(spec: &DeviceSpec, n_threads: usize, kernel: &mut K) -> KernelStats {
    assert!(
        n_threads <= spec.max_threads_per_block as usize,
        "{n_threads} threads exceed the block capacity of {}; use launch_grid or launch_blocks",
        spec.max_threads_per_block
    );
    run_block(spec, 0, n_threads, kernel)
}

/// Simulates one block whose threads carry *global* ids
/// `tid_base .. tid_base + n_threads`. This is the primitive behind
/// [`launch`] (`tid_base = 0`) and both grid launchers; warps,
/// coalescing windows, and barriers are all block-local, exactly as on
/// hardware.
pub(crate) fn run_block<K: RoundKernel + ?Sized>(
    spec: &DeviceSpec,
    tid_base: usize,
    n_threads: usize,
    kernel: &mut K,
) -> KernelStats {
    BLOCK_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => run_block_in(spec, tid_base, n_threads, kernel, &mut scratch),
        // A kernel that launches nested blocks from inside `round` re-enters
        // this thread's scratch; give the inner launch its own rather than
        // aliasing the outer block's state.
        Err(_) => run_block_in(spec, tid_base, n_threads, kernel, &mut BlockScratch::default()),
    })
}

fn run_block_in<K: RoundKernel + ?Sized>(
    spec: &DeviceSpec,
    tid_base: usize,
    n_threads: usize,
    kernel: &mut K,
    scratch: &mut BlockScratch,
) -> KernelStats {
    assert!(n_threads > 0, "kernel needs at least one thread");
    let warp = spec.warp_size as usize;
    let n_warps = n_threads.div_ceil(warp);
    let BlockScratch { clocks, windows } = scratch;
    clocks.clear();
    clocks.resize(n_threads, 0);
    while windows.len() < n_warps {
        windows.push(SegmentWindow::new());
    }
    let mut stats = KernelStats::default();

    let mut round = 0u64;
    loop {
        assert!(round < DEFAULT_MAX_ROUNDS, "kernel exceeded {DEFAULT_MAX_ROUNDS} rounds");
        let round_start = clocks.first().copied().unwrap_or(0);
        let txns_before = stats.global_transactions;
        let coalesced_before = stats.global_coalesced_hits;
        let shared_before = stats.shared_accesses;
        let alu_before = stats.alu_ops;
        let shuffles_before = stats.shuffles;
        let atomics_before = stats.atomics;
        let mut active = 0u32;
        let mut recovering = 0u32;
        kernel.begin_round(round);
        // Indexing is deliberate: each warp's window is reused across its
        // threads' contexts, and clocks are written back per thread.
        #[allow(clippy::needless_range_loop)]
        for w in 0..n_warps {
            windows[w].clear();
            let lo = w * warp;
            let hi = ((w + 1) * warp).min(n_threads);
            for tid in lo..hi {
                let mut ctx = ThreadCtx {
                    tid: tid_base + tid,
                    spec,
                    clock: clocks[tid],
                    stats: &mut stats,
                    window: &mut windows[w],
                };
                let outcome = kernel.round(tid_base + tid, &mut ctx);
                clocks[tid] = ctx.clock;
                active += u32::from(outcome.active);
                recovering += u32::from(outcome.recovering);
            }
        }
        // Barrier: everyone waits for the slowest thread — or for the memory
        // system, whichever binds (bandwidth roofline: concurrent recoveries
        // contend for global memory, the Fig 9 effect).
        let compute_max = clocks.iter().copied().max().unwrap_or(0);
        let bw_floor = round_start
            + (stats.global_transactions - txns_before) * spec.bandwidth_millicycles_per_txn / 1000;
        let max = compute_max.max(bw_floor) + spec.barrier_latency;
        clocks.fill(max);
        stats.rounds += 1;
        if recovering > 0 {
            stats.recovery_rounds += 1;
            stats.recovering_thread_rounds += u64::from(recovering);
            stats.recovery_round_cycles += max - round_start;
        }
        // Attribute the whole round — duration, traffic deltas, divergence —
        // to the kernel's current phase, *before* after_sync can flip it.
        let d_txn = stats.global_transactions - txns_before;
        let d_coalesced = stats.global_coalesced_hits - coalesced_before;
        let d_shared = stats.shared_accesses - shared_before;
        let d_alu = stats.alu_ops - alu_before;
        let d_shuffles = stats.shuffles - shuffles_before;
        let d_atomics = stats.atomics - atomics_before;
        let pc = stats.profile.get_mut(kernel.phase());
        pc.cycles += max - round_start;
        pc.rounds += 1;
        pc.global_transactions += d_txn;
        pc.global_coalesced_hits += d_coalesced;
        pc.shared_accesses += d_shared;
        pc.alu_ops += d_alu;
        pc.shuffles += d_shuffles;
        pc.atomics += d_atomics;
        pc.active_thread_rounds += u64::from(active);
        pc.thread_rounds += n_threads as u64;
        if active > 0 && (active as usize) < n_threads {
            pc.divergent_rounds += 1;
        }
        let continue_ = kernel.after_sync(round);
        round += 1;
        if !continue_ {
            break;
        }
    }
    stats.cycles = clocks.iter().copied().max().unwrap_or(0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel: every thread does `tid + 1` ALU ops in one round.
    struct AluKernel;

    impl RoundKernel for AluKernel {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(tid as u64 + 1);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    #[test]
    fn round_time_is_max_thread_time() {
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 8, &mut AluKernel);
        // Slowest thread: 8 ALU cycles, plus 1 barrier cycle.
        assert_eq!(stats.cycles, 8 + 1);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.alu_ops, (1..=8).sum::<u64>());
        assert_eq!(stats.profile.get(Phase::SpecExec).active_thread_rounds, 8);
    }

    /// Kernel: runs `n` rounds of one ALU op each.
    struct MultiRound {
        remaining: u64,
    }

    impl RoundKernel for MultiRound {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.alu(1);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            self.remaining -= 1;
            self.remaining > 0
        }
    }

    #[test]
    fn rounds_accumulate_barrier_costs() {
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 2, &mut MultiRound { remaining: 3 });
        assert_eq!(stats.rounds, 3);
        // Each round: 1 ALU + 1 barrier.
        assert_eq!(stats.cycles, 3 * 2);
    }

    #[test]
    fn begin_round_runs_once_before_each_rounds_threads() {
        /// Logs `(round, None)` at each round's start and `(round, Some(tid))`
        /// for every thread.
        struct Logged {
            round: u64,
            log: Vec<(u64, Option<usize>)>,
        }
        impl RoundKernel for Logged {
            fn begin_round(&mut self, round: u64) {
                self.round = round;
                self.log.push((round, None));
            }
            fn round(&mut self, tid: usize, _ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                self.log.push((self.round, Some(tid)));
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, round: u64) -> bool {
                round < 1
            }
        }
        let mut k = Logged { round: u64::MAX, log: Vec::new() };
        launch(&DeviceSpec::test_unit(), 2, &mut k);
        let expect = [(0, None), (0, Some(0)), (0, Some(1)), (1, None), (1, Some(0)), (1, Some(1))];
        assert_eq!(k.log, expect);
    }

    /// Kernel: all threads of a warp read the same global segment.
    struct BroadcastLoad;

    impl RoundKernel for BroadcastLoad {
        fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            ctx.global(0, 0, 1);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    #[test]
    fn same_segment_loads_coalesce_within_warp() {
        let spec = DeviceSpec::test_unit(); // warp size 4
        let stats = launch(&spec, 8, &mut BroadcastLoad);
        // Two warps: one transaction each, the other 3 threads coalesce.
        assert_eq!(stats.global_transactions, 2);
        assert_eq!(stats.global_coalesced_hits, 6);
    }

    /// Kernel: each thread streams over its own disjoint region.
    struct StridedLoad;

    impl RoundKernel for StridedLoad {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            // 4-byte segments on the test device: each thread touches its own.
            ctx.global(0, tid as u64 * 64, 1);
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            false
        }
    }

    #[test]
    fn distinct_segments_pay_full_transactions() {
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 4, &mut StridedLoad);
        assert_eq!(stats.global_transactions, 4);
        assert_eq!(stats.global_coalesced_hits, 0);
    }

    #[test]
    fn coalescing_window_resets_each_round() {
        struct TwoRoundLoad;
        impl RoundKernel for TwoRoundLoad {
            fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                ctx.global(0, 0, 1);
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, round: u64) -> bool {
                round == 0
            }
        }
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 1, &mut TwoRoundLoad);
        // Same segment, but separate rounds: two transactions.
        assert_eq!(stats.global_transactions, 2);
    }

    #[test]
    fn multi_segment_access_counts_each_segment() {
        struct WideLoad;
        impl RoundKernel for WideLoad {
            fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                ctx.global(0, 0, 10); // 4-byte segments: spans 3 segments
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 1, &mut WideLoad);
        assert_eq!(stats.global_transactions, 3);
    }

    #[test]
    fn recovery_crediting() {
        struct Recover;
        impl RoundKernel for Recover {
            fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                if tid == 0 {
                    let start = ctx.cycles();
                    ctx.alu(10);
                    ctx.credit_recovery(start);
                    RoundOutcome::RECOVERING
                } else {
                    RoundOutcome::IDLE
                }
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 4, &mut Recover);
        assert_eq!(stats.recovery_cycles, 10);
        assert_eq!(stats.recovery_runs, 1);
        assert_eq!((stats.recovery_rounds, stats.recovering_thread_rounds), (1, 1));
        assert_eq!(stats.recovery_round_cycles, stats.cycles);
        assert_eq!(stats.profile.get(Phase::SpecExec).active_thread_rounds, 1);
        assert!((stats.avg_active_threads_during_recovery() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "block capacity")]
    fn too_many_threads_panics() {
        let spec = DeviceSpec::test_unit();
        launch(&spec, 100_000, &mut AluKernel);
    }

    #[test]
    fn bandwidth_roofline_stretches_memory_heavy_rounds() {
        struct ManyLoads;
        impl RoundKernel for ManyLoads {
            fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                // Each thread touches 10 distinct segments: 40 transactions
                // total, 10 compute cycles per thread.
                for i in 0..10u64 {
                    ctx.global(0, (tid as u64 * 1000 + i) * 64, 1);
                }
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        let mut spec = DeviceSpec::test_unit();
        spec.bandwidth_millicycles_per_txn = 2000; // 2 cycles per transaction
        let stats = launch(&spec, 4, &mut ManyLoads);
        // Compute bound would be 10 cycles; the 40 transactions need 80.
        assert_eq!(stats.global_transactions, 40);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.profile.get(Phase::SpecExec).cycles, 80 + 1);
        assert_eq!(stats.cycles, 81);
    }

    #[test]
    fn rounds_charge_the_kernels_phase() {
        use crate::stats::Phase;

        /// One verify round, then one recovery round, with divergence in the
        /// recovery round (only thread 0 works).
        struct TwoPhase {
            in_recovery: bool,
        }
        impl RoundKernel for TwoPhase {
            fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                if !self.in_recovery {
                    ctx.shared(2);
                    RoundOutcome::ACTIVE
                } else if tid == 0 {
                    ctx.alu(5);
                    RoundOutcome::RECOVERING
                } else {
                    RoundOutcome::IDLE
                }
            }
            fn after_sync(&mut self, round: u64) -> bool {
                self.in_recovery = true;
                round == 0
            }
            fn phase(&self) -> Phase {
                if self.in_recovery {
                    Phase::Recovery
                } else {
                    Phase::Verify
                }
            }
        }

        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 4, &mut TwoPhase { in_recovery: false });
        let verify = stats.profile.get(Phase::Verify);
        let recovery = stats.profile.get(Phase::Recovery);
        assert_eq!(verify.rounds, 1);
        assert_eq!(verify.shared_accesses, 2 * 4);
        assert_eq!(verify.divergent_rounds, 0);
        assert_eq!(verify.thread_rounds, 4);
        assert_eq!(verify.active_thread_rounds, 4);
        assert_eq!(recovery.rounds, 1);
        assert_eq!(recovery.alu_ops, 5);
        assert_eq!(recovery.divergent_rounds, 1);
        assert_eq!(recovery.active_thread_rounds, 1);
        assert_eq!(stats.profile.total_cycles(), stats.cycles, "phases partition kernel time");
        assert_eq!(stats.profile.get(Phase::SpecExec).rounds, 0);
    }

    #[test]
    fn default_phase_is_speculative_execution() {
        use crate::stats::Phase;
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 8, &mut AluKernel);
        let spec_exec = stats.profile.get(Phase::SpecExec);
        assert_eq!(spec_exec.cycles, stats.cycles);
        assert_eq!(spec_exec.alu_ops, stats.alu_ops);
        assert_eq!(stats.profile.total_cycles(), stats.cycles);
        for (phase, c) in stats.profile.iter() {
            if phase != Phase::SpecExec {
                assert_eq!(*c, crate::stats::PhaseCounters::default(), "{phase} must stay empty");
            }
        }
    }

    #[test]
    fn bandwidth_roofline_cycles_land_in_the_profile() {
        use crate::stats::Phase;
        struct ManyLoads;
        impl RoundKernel for ManyLoads {
            fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                for i in 0..10u64 {
                    ctx.global(0, (tid as u64 * 1000 + i) * 64, 1);
                }
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        let mut spec = DeviceSpec::test_unit();
        spec.bandwidth_millicycles_per_txn = 2000;
        let stats = launch(&spec, 4, &mut ManyLoads);
        // The roofline stretch (80 + barrier vs 10 compute cycles) must be
        // attributed, not just the compute time.
        assert_eq!(stats.profile.get(Phase::SpecExec).cycles, 81);
        assert_eq!(stats.profile.get(Phase::SpecExec).global_transactions, 40);
    }

    #[test]
    fn segment_window_matches_hashset_semantics() {
        use std::collections::HashSet;
        // Differential check against the reference container the window
        // replaced, across clears and a forced growth: `insert` must return
        // exactly what `HashSet::insert` returns for every access pattern.
        let mut window = SegmentWindow::new();
        let mut reference: HashSet<(u32, u64)> = HashSet::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for round in 0..8 {
            window.clear();
            reference.clear();
            for _ in 0..500 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Regions 0 and 1 are dense below DENSE_SEGMENTS, region 2
                // never is.
                let region = ((state >> 33) % 3) as u32;
                // Small segment spaces force duplicates; +round varies the
                // key set across generations. Keys fall near zero, on either
                // side of the dense limit, on a 64-segment stride (one per
                // bitmap word), or far past the limit.
                let seg = match (state >> 40) % 4 {
                    0 => (state >> 11) % 200 + round,
                    1 => SegmentWindow::DENSE_SEGMENTS - 100 + (state >> 11) % 200 + round,
                    2 => (state >> 11) % 100 * 64 + round,
                    _ => u64::MAX - (state >> 11) % 200 - round,
                };
                assert_eq!(
                    window.insert(region, seg),
                    reference.insert((region, seg)),
                    "window diverged from HashSet on ({region}, {seg})",
                );
            }
        }
    }

    /// How a [`Script`] charges its records and spans.
    #[derive(Clone, Copy, PartialEq)]
    enum Charge {
        /// One [`ThreadCtx::global`] call per segment or byte.
        PerAccess,
        /// Records through [`ThreadCtx::global_batch`] as segment lists,
        /// spans through [`ThreadCtx::global_span`].
        List,
        /// Like `List`, but two records in three as [`SegmentMasks`], so
        /// both forms meet in one window.
        Masks,
    }

    /// A script of global accesses, run once per round by every thread:
    /// `(0, pos)` loads one input byte (region 0), `(3, a)` loads the span
    /// [`span_of`]`(a)`, and `(_, r)` replays record `r % records.len()`,
    /// whose segments are in region 1 (dense) for even `r` and region 2
    /// (never dense) for odd `r`. The bulk modes charge a record with one
    /// stamp per record shared by every thread and round. `clocks` collects
    /// every thread's clock at the end of each of its rounds.
    struct Script<'a> {
        ops: &'a [(u8, u64)],
        records: &'a [Vec<u64>],
        masks: &'a [SegmentMasks],
        stamps: Vec<WindowEpoch>,
        mode: Charge,
        rounds_left: u64,
        /// Launch a one-thread kernel replaying the same records, stamps
        /// and all, from inside thread 0's round.
        nested: bool,
        clocks: Vec<u64>,
    }

    impl<'a> Script<'a> {
        fn new(records: &'a [Vec<u64>], masks: &'a [SegmentMasks], mode: Charge) -> Self {
            Script {
                ops: &[],
                records,
                masks,
                stamps: vec![WindowEpoch::default(); records.len()],
                mode,
                rounds_left: 1,
                nested: false,
                clocks: Vec::new(),
            }
        }

        fn replay(&mut self, ctx: &mut ThreadCtx<'_>, r: usize) {
            let region = 1 + (r % 2) as u32;
            let segs = &self.records[r];
            match self.mode {
                Charge::PerAccess => {
                    for &seg in segs {
                        ctx.global(region, seg * ctx.spec().global_segment_bytes, 1);
                    }
                }
                Charge::Masks if r % 3 != 2 => {
                    ctx.global_batch(region, &self.masks[r], &mut self.stamps[r])
                }
                _ => ctx.global_batch(region, segs.as_slice(), &mut self.stamps[r]),
            }
        }
    }

    impl RoundKernel for Script<'_> {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            for i in 0..self.ops.len() {
                let (op, arg) = self.ops[(i + tid) % self.ops.len()];
                if op == 0 {
                    ctx.global(0, arg, 1);
                } else if op == 3 {
                    let (region, offset, len) = span_of(arg, ctx.spec());
                    if self.mode == Charge::PerAccess {
                        for pos in offset..offset + len {
                            ctx.global(region, pos, 1);
                        }
                    } else {
                        ctx.global_span(region, offset, len);
                    }
                } else {
                    self.replay(ctx, arg as usize % self.records.len());
                }
            }
            if self.nested && tid == 0 {
                let mut inner = Script {
                    ops: self.ops,
                    stamps: std::mem::take(&mut self.stamps),
                    ..Script::new(self.records, self.masks, self.mode)
                };
                let stats = launch(ctx.spec(), 1, &mut inner);
                self.stamps = inner.stamps;
                ctx.alu(stats.cycles);
                // Back in the outer window: whatever the inner launch
                // stamped must not pass for this window's epoch.
                for r in 0..self.records.len() {
                    self.replay(ctx, r);
                }
            }
            self.clocks.push(ctx.cycles());
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            self.rounds_left -= 1;
            self.rounds_left > 0
        }
    }

    /// Segment ids on both sides of the window's dense limit, so both its
    /// bitmaps and its hashed table (growth included) see traffic.
    const SEGS: std::ops::Range<u64> =
        SegmentWindow::DENSE_SEGMENTS - 800..SegmentWindow::DENSE_SEGMENTS + 800;

    /// A record segment drawn as `(kind, x)`: packed near zero (many share a
    /// bitmap word, and small `x` repeat), straddling the dense limit (the
    /// last dense word, the limit itself and past it), one per bitmap word,
    /// or far past the limit.
    fn record_seg((kind, x): (u8, u64)) -> u64 {
        match kind {
            0 => x % 100,
            1 => SegmentWindow::DENSE_SEGMENTS - 100 + x,
            2 => x * 64 + x % 3,
            _ => (1 << 40) - x,
        }
    }

    /// `segs` as [`SegmentMasks`], pushed in list order.
    fn masks_of(segs: &[u64]) -> SegmentMasks {
        let mut masks = SegmentMasks::default();
        for &seg in segs {
            masks.push(seg);
        }
        masks
    }

    /// The span script op `(3, a)` loads: in region 0 (shared with the
    /// single-byte loads) or region 2, starting in segment `a` at an
    /// unaligned byte, 0 to 40 bytes long — empty, inside one segment, or
    /// across several.
    fn span_of(a: u64, spec: &DeviceSpec) -> (u32, u64, u64) {
        (2 * (a % 2) as u32, a * spec.global_segment_bytes + a % 3, a % 41)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The bulk charges are the per-access charges: for random segment
        /// lists (duplicates included, in a dense and a never-dense region,
        /// on both sides of the dense limit) charged as lists or as word
        /// masks, and byte spans, in any interleaving with single-byte loads
        /// and with each other, by several warps, across barriers (`clear`),
        /// across window growth (hundreds of distinct segments per round),
        /// replayed again in an already-stamped epoch, and through a nested
        /// launch's scratch windows, every counter of the launch and every
        /// thread's clock after every round are identical — on 4-byte and on
        /// 32-byte segments.
        #[test]
        fn bulk_charges_equal_per_access_globals(
            records in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u64..200), 0..24), 1..8),
            ops in proptest::collection::vec((0u8..4, SEGS), 1..200),
            threads in 1usize..10,
            rounds in 1u64..4,
            nested in 0u8..2,
            rtx in 0u8..2,
        ) {
            let spec = if rtx == 1 { DeviceSpec::rtx3090() } else { DeviceSpec::test_unit() };
            let records: Vec<Vec<u64>> =
                records.into_iter().map(|r| r.into_iter().map(record_seg).collect()).collect();
            let masks: Vec<SegmentMasks> = records.iter().map(|r| masks_of(r)).collect();
            let run = |mode: Charge| {
                let mut k = Script {
                    ops: &ops,
                    rounds_left: rounds,
                    nested: nested == 1,
                    ..Script::new(&records, &masks, mode)
                };
                let stats = launch(&spec, threads, &mut k);
                (stats, k.clocks)
            };
            let per_access = run(Charge::PerAccess);
            proptest::prop_assert_eq!(&run(Charge::List), &per_access);
            proptest::prop_assert_eq!(&run(Charge::Masks), &per_access);
        }
    }

    #[test]
    fn window_epochs_are_never_reused() {
        let mut a = SegmentWindow::new();
        let b = SegmentWindow::new();
        assert_ne!(a.epoch(), b.epoch(), "distinct windows");
        assert_ne!(WindowEpoch::default(), a.epoch(), "the default stamp names no window");
        let before = a.epoch();
        for seg in 0..1000 {
            // Region 2 lives in the hashed table, which grows here.
            a.insert(2, seg);
        }
        assert_eq!(a.epoch(), before, "growth keeps the epoch");
        let mut seen = vec![before];
        for _ in 0..5 {
            a.clear();
            assert!(!seen.contains(&a.epoch()), "clear starts a new epoch");
            seen.push(a.epoch());
        }
        // Growth after clears still never lands on an earlier generation.
        for seg in 0..5000 {
            a.insert(3, seg);
        }
        assert_eq!(a.epoch(), *seen.last().unwrap());
        assert_ne!(a.epoch(), b.epoch());
    }

    #[test]
    fn stale_stamp_takes_the_per_access_path() {
        // A record stamped in one round is charged as fresh transactions in
        // the next: the barrier cleared the window, so the stamp is stale.
        let records = vec![vec![3, 4, 5]];
        let masks = vec![masks_of(&records[0])];
        let ops = [(1, 0)];
        for mode in [Charge::List, Charge::Masks] {
            let mut k = Script { ops: &ops, rounds_left: 2, ..Script::new(&records, &masks, mode) };
            let stats = launch(&DeviceSpec::test_unit(), 1, &mut k);
            assert_eq!(stats.global_transactions, 6);
            assert_eq!(stats.global_coalesced_hits, 0);
        }
    }

    #[test]
    fn regions_do_not_coalesce_across_each_other() {
        struct TwoRegions;
        impl RoundKernel for TwoRegions {
            fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                ctx.global(0, 0, 1);
                ctx.global(1, 0, 1);
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        let spec = DeviceSpec::test_unit();
        let stats = launch(&spec, 1, &mut TwoRegions);
        assert_eq!(stats.global_transactions, 2);
    }
}
