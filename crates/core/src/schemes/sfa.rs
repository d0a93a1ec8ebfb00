//! Simultaneous Finite Automata (Sin'ya & Matsuzaki \[24\]).
//!
//! The data-parallel rival to speculation: each thread computes its chunk's
//! *complete* state→state mapping, and mappings compose associatively, so
//! connecting chunks is pure function composition — no misprediction, no
//! recovery phase, at the price of up-to-|Q|-fold execution work.
//!
//! Two things separate this from plain enumeration (Mytkowicz et al.),
//! which walks all |Q| start states of every chunk to its end:
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    block_dims_width, launch, launch_blocks, launch_grid, BlockDim, BlockRequirements, FaultDomain,
    GridKernel, KernelStats, Phase, RoundKernel, RoundOutcome, SegmentMasks, ThreadCtx,
    WindowEpoch,
};

use crate::config::StitchPolicy;
use crate::recovery::fault_charges;
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::Job;
use crate::table::{ENTRY_BYTES, REGION_INPUT, REGION_TABLE};

/// Composes two chunk mappings: `inner` is the earlier chunk, `outer` the
/// later one, and the result maps a state *entering* the inner chunk to the
/// state *leaving* the outer one. This is the seam operation of the SFA
/// stitch; it is associative (function composition), which is what makes
/// the log2(B) tree order legal — the property tests pin it down.
pub fn compose_mappings(inner: &[StateId], outer: &[StateId]) -> Vec<StateId> {
    inner.iter().map(|&s| outer[s as usize]).collect()
}

/// One chunk's derived transition function, kept as the walk left it: start
/// state `q` rides first-step path `root(q)`, which ends in
/// `ends[root(q)]` after `counts[root(q)]` accepting visits. Only the
/// entries the composition reads are ever looked up.
#[derive(Debug, Default)]
struct Derived {
    /// The first step's index map (see [`FirstStep::root`]); `None` when
    /// `root(q) = q`.
    root: Option<Arc<[u32]>>,
    /// Per first-step path: the chunk's end state.
    ends: Vec<StateId>,
    /// Per first-step path: accepting-state visits; empty when match
    /// counting is off.
    counts: Vec<u64>,
    /// Distinct live paths surviving at the chunk's end — the effective
    /// mapping width the composition kernels pay for.
    eff_width: u32,
    /// Set by a corruption fault until the mapping is re-derived.
    poisoned: bool,
}

impl Derived {
    fn root(&self, q: StateId) -> usize {
        assert!(!self.poisoned, "read of a poisoned mapping");
        self.root.as_ref().map_or(q as usize, |root| root[q as usize] as usize)
    }

    /// The end state of the chunk when entered in state `q`.
    fn map(&self, q: StateId) -> StateId {
        self.ends[self.root(q)]
    }

    /// Accepting-state visits along the path entered in state `q`
    /// (counting only).
    fn count(&self, q: StateId) -> u64 {
        self.counts[self.root(q)]
    }

    /// Corrupts the mapping: every entry becomes garbage and any read
    /// panics until it is replaced by a re-derivation.
    fn poison(&mut self) {
        self.ends.fill(StateId::MAX);
        self.counts.fill(u64::MAX);
        self.poisoned = true;
    }
}

/// Marks an empty slot in the memo's id tables.
const NONE: u32 = u32::MAX;

/// Host bytes one SFA run's [`SfaMemo`] may hold before it flushes,
/// [`FirstSteps`] included.
const MEMO_BUDGET_BYTES: usize = 8 << 20;

/// Host bytes of [`MEMO_BUDGET_BYTES`] the run's [`FirstSteps`] may take; a
/// step that does not fit is scanned again at every use.
const FIRST_STEPS_BUDGET_BYTES: usize = MEMO_BUDGET_BYTES / 2;

/// The first step of every chunk walk whose first byte is of class `c`: from
/// the tuple of all |Q| start states, it is column `c` of the table (Sin'ya
/// & Matsuzaki), so one pass down the column yields it.
struct FirstStep {
    /// The surviving paths: the distinct successors, in first-occurrence
    /// order.
    next: Vec<StateId>,
    /// `root[q]`: the index in `next` of `q`'s successor, shared by every
    /// chunk starting on this class; `None` when nothing merged, so that
    /// `root[q] = q`.
    root: Option<Arc<[u32]>>,
    /// Device charges of the whole step, as [`MemoStep`] sums them.
    alu: u64,
    shared: u64,
    probes: u64,
    /// Cold-row table segments: those of each cold state's entry.
    segs: SegmentMasks,
}

impl FirstStep {
    /// One pass down column `class`: every state's successor, deduplicated
    /// into `next` and indexed by `root`, and the step's charges summed
    /// from [`crate::table::DeviceTable::step_charge`] exactly as
    /// [`SfaMemo::insert`] sums them for an |Q|-wide tuple.
    fn scan(job: &Job<'_>, class: u16) -> FirstStep {
        let table = job.table;
        let dfa = table.dfa();
        let n = dfa.n_states();
        let mut index = vec![NONE; n as usize];
        let mut next = Vec::new();
        let mut root = Vec::with_capacity(n as usize);
        let (mut alu, mut shared, mut probes) = (0u64, 0u64, 0u64);
        let mut segs = SegmentMasks::default();
        // The column pass proper, then the charges: two tight loops run
        // faster than one that does both.
        for &succ in dfa.table()[class as usize..].iter().step_by(dfa.stride()) {
            let j = &mut index[succ as usize];
            if *j == NONE {
                *j = next.len() as u32;
                next.push(succ);
            }
            root.push(*j);
        }
        for s in 0..n {
            let c = table.step_charge(s, class);
            alu += c.alu;
            probes += c.probes;
            match c.cold {
                None => shared += 1,
                Some(offset) => {
                    for seg in job.spec.segments(offset, ENTRY_BYTES) {
                        segs.push(seg);
                    }
                }
            }
        }
        let n = u64::from(n);
        let merged = (next.len() as u64) < n;
        // Accept tests, loop bookkeeping, the convergence compares and, on
        // a merge, the |Q|-entry indirection rewrite.
        alu += if job.config.count_matches { n } else { 0 }
            + 1
            + if n > 1 { n } else { 0 }
            + if merged { n } else { 0 };
        next.shrink_to_fit();
        FirstStep { next, root: merged.then(|| root.into()), alu, shared, probes, segs }
    }

    /// Host bytes held.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.next.capacity() * std::mem::size_of::<StateId>()
            + self.root.as_ref().map_or(0, |root| root.len() * 4)
            + self.segs.heap_bytes()
    }

    /// Charges the step to `ctx`; `stamp` is this step's window stamp.
    fn replay(&self, ctx: &mut ThreadCtx<'_>, stamp: &mut WindowEpoch) {
        ctx.alu(self.alu);
        ctx.shared(self.shared);
        ctx.probes(self.probes);
        ctx.global_batch(REGION_TABLE, &self.segs, stamp);
    }
}

/// The run's [`FirstStep`] per byte class, each scanned once, on first use,
/// and shared by every walk of the run.
struct FirstSteps {
    /// `None` inside a slot: the step did not fit the budget.
    steps: Vec<OnceLock<Option<FirstStep>>>,
    /// Host bytes of the cached steps.
    bytes: AtomicUsize,
    /// Column scans run.
    scans: AtomicUsize,
}

impl FirstSteps {
    fn new(n_classes: usize) -> Self {
        FirstSteps {
            steps: (0..n_classes).map(|_| OnceLock::new()).collect(),
            bytes: AtomicUsize::new(0),
            scans: AtomicUsize::new(0),
        }
    }

    fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Runs `f` on the first step of `class`, scanning it if no walk of the
    /// run has yet.
    fn with<R>(&self, job: &Job<'_>, class: u16, f: impl FnOnce(&FirstStep) -> R) -> R {
        let scan = || {
            self.scans.fetch_add(1, Ordering::Relaxed);
            FirstStep::scan(job, class)
        };
        let mut uncached = None;
        let cached = self.steps[class as usize].get_or_init(|| {
            let step = scan();
            let bytes = step.bytes();
            let fits = self.bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                (held + bytes <= FIRST_STEPS_BUDGET_BYTES).then_some(held + bytes)
            });
            if fits.is_ok() {
                Some(step)
            } else {
                uncached = Some(step);
                None
            }
        });
        match cached {
            Some(step) => f(step),
            None => f(&uncached.unwrap_or_else(scan)),
        }
    }
}

/// One memoized byte step of the mapping walk: live-path tuple `t` on byte
/// class `c`.
struct MemoStep {
    /// Tuple id of the surviving paths after the step, and their number.
    next: u32,
    next_live: u32,
    /// Device charges of the whole step: ALU ops (table steps, match
    /// counting, loop bookkeeping, convergence check, merge-epoch rewrite),
    /// hot-row shared accesses and hash probes.
    alu: u32,
    shared: u32,
    probes: u32,
    /// Cold-row table segments, `segs[seg_start..][..n_segs]`.
    seg_start: u32,
    n_segs: u32,
    /// Window epoch in which every cold segment was last charged.
    epoch: WindowEpoch,
    /// `NONE` when no paths merged; otherwise `merges[merge..]` holds
    /// `new_idx` (one entry per path of `t`: its index among the
    /// survivors), followed, when counting, by `first` (the index of the
    /// path it merged into, itself for survivors).
    merge: u32,
    /// Indices of the paths of `t` whose successor accepts (counting only),
    /// `accepts[accept_start..][..n_accepts]`.
    accept_start: u32,
    n_accepts: u32,
}

/// Job-wide memo of the mapping walk after its first step: Sin'ya &
/// Matsuzaki's SFA construction used as a host cache. Each live-path tuple
/// the walk reaches is interned as a state, and `(tuple, byte class)` maps
/// to a [`MemoStep`] holding the successor tuple, the merge compaction, the
/// accept bits and the step's device charges, so a repeated step costs one
/// lookup instead of one table step per live path. The memo is exact: the
/// walk replays every charge through [`ThreadCtx`], cold segments through
/// [`ThreadCtx::global_batch`]. Its size, with the run's [`FirstSteps`], is
/// bounded by [`MEMO_BUDGET_BYTES`]: when a step might not fit, the memo
/// flushes and starts over from the walk's current tuple.
struct SfaMemo<'a> {
    job: &'a Job<'a>,
    n_classes: usize,
    /// Interned tuples: tuple `t` is `states[spans[t].0..][..spans[t].1]`.
    states: Vec<StateId>,
    spans: Vec<(u32, u32)>,
    /// Tuple content hash → newest tuple with that hash; `chain[t]` is the
    /// next older one.
    index: HashMap<u64, u32>,
    chain: Vec<u32>,
    /// `trans[t * n_classes + c]` = the [`MemoStep`] of `(t, c)`, or `NONE`.
    trans: Vec<u32>,
    steps: Vec<MemoStep>,
    segs: Vec<u64>,
    merges: Vec<u32>,
    accepts: Vec<u32>,
    /// `first[c]`: the tuple id of [`FirstStep::next`] for class `c`, or
    /// `NONE` until interned.
    first: Vec<u32>,
    /// Host bytes of the run's [`FirstSteps`], as of the walk's start.
    reserved: usize,
    /// Miss scratch: the successor tuple, and a generation-stamped
    /// duplicate detector over states (`seen[s]` = first path reaching `s`).
    next: Vec<StateId>,
    stamp: Vec<u64>,
    seen: Vec<u32>,
    generation: u64,
    flushes: u64,
}

impl<'a> SfaMemo<'a> {
    fn new(job: &'a Job<'a>) -> Self {
        let n = job.table.dfa().n_states() as usize;
        let n_classes = job.table.dfa().stride();
        SfaMemo {
            job,
            n_classes,
            states: Vec::new(),
            spans: Vec::new(),
            index: HashMap::new(),
            chain: Vec::new(),
            trans: Vec::new(),
            steps: Vec::new(),
            segs: Vec::new(),
            merges: Vec::new(),
            accepts: Vec::new(),
            first: vec![NONE; n_classes],
            reserved: 0,
            next: Vec::with_capacity(n),
            stamp: vec![0; n],
            seen: vec![0; n],
            generation: 0,
            flushes: 0,
        }
    }

    /// Host bytes held, counted by length, plus the run's first steps.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.states.len() * size_of::<StateId>()
            + self.spans.len() * size_of::<(u32, u32)>()
            // A hash-map entry: key, value and control byte, at a load of
            // at most 7/8.
            + self.index.len() * 16
            + self.chain.len() * 4
            + self.trans.len() * 4
            + self.steps.len() * size_of::<MemoStep>()
            + self.segs.len() * 8
            + self.merges.len() * 4
            + self.accepts.len() * 4
            + self.first.len() * 4
            + self.stamp.len() * 8
            + self.seen.len() * 4
            + self.next.capacity() * size_of::<StateId>()
            + self.reserved
    }

    /// Upper bound on what memoizing one step from a `len`-wide tuple,
    /// interning its successor included, adds to [`Self::bytes`].
    fn worst_case_bytes(&self, len: usize) -> usize {
        let per_path = std::mem::size_of::<StateId>() // successor tuple
            + 8 * ENTRY_BYTES as usize // cold segments: at most one per entry byte
            + 4 // accept index
            + 8; // new_idx and first
        let per_tuple = 8 + 16 + 4 + self.n_classes * 4; // span, index, chain, trans row
        len * per_path + per_tuple + std::mem::size_of::<MemoStep>()
    }

    /// Whether `bytes` more would push the memo past its budget.
    fn over_budget(&self, bytes: usize) -> bool {
        self.bytes() + bytes > MEMO_BUDGET_BYTES
    }

    /// Forgets every tuple and step; the scratch stays allocated.
    fn flush(&mut self) {
        self.states.clear();
        self.spans.clear();
        self.index.clear();
        self.chain.clear();
        self.trans.clear();
        self.steps.clear();
        self.segs.clear();
        self.merges.clear();
        self.accepts.clear();
        self.first.fill(NONE);
        self.flushes += 1;
    }

    fn tuple(&self, t: u32) -> &[StateId] {
        let (start, len) = self.spans[t as usize];
        &self.states[start as usize..][..len as usize]
    }

    /// The id of `tuple`, interning it if new.
    fn intern(&mut self, tuple: &[StateId]) -> u32 {
        let h = tuple.iter().fold(tuple.len() as u64, |h, &s| {
            (h.rotate_left(5) ^ u64::from(s)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        let mut t = self.index.get(&h).copied().unwrap_or(NONE);
        while t != NONE {
            if self.tuple(t) == tuple {
                return t;
            }
            t = self.chain[t as usize];
        }
        let t = self.spans.len() as u32;
        self.spans.push((self.states.len() as u32, tuple.len() as u32));
        self.states.extend_from_slice(tuple);
        self.chain.push(self.index.insert(h, t).unwrap_or(NONE));
        self.trans.resize(self.trans.len() + self.n_classes, NONE);
        t
    }

    /// The tuple the walk is in after the first step on `class`, whose
    /// surviving paths are `next`.
    fn first_tuple(&mut self, class: u16, next: &[StateId]) -> u32 {
        match self.first[class as usize] {
            NONE => {
                if self.over_budget(self.worst_case_bytes(next.len())) {
                    self.flush();
                }
                let t = self.intern(next);
                self.first[class as usize] = t;
                t
            }
            t => t,
        }
    }

    /// The memoized step of tuple `*t` on `class`, computed on a miss. A
    /// miss that flushes the memo re-interns `*t` and updates it.
    #[inline]
    fn step(&mut self, t: &mut u32, class: u16) -> u32 {
        match self.trans[*t as usize * self.n_classes + class as usize] {
            NONE => self.insert(t, class),
            id => id,
        }
    }

    /// Walks every path of tuple `*t` through one table step on `class`,
    /// summing the charges [`DeviceTable::step_charge`] prices, and
    /// memoizes the result.
    #[cold]
    fn insert(&mut self, t: &mut u32, class: u16) -> u32 {
        let len = self.spans[*t as usize].1 as usize;
        if self.over_budget(self.worst_case_bytes(len)) {
            let tuple = self.tuple(*t).to_vec();
            self.flush();
            *t = self.intern(&tuple);
        }
        let table = self.job.table;
        let dfa = table.dfa();
        let count = self.job.config.count_matches;
        self.generation += 1;
        let gen = self.generation;
        let (seg_start, merge_start, accept_start) =
            (self.segs.len(), self.merges.len(), self.accepts.len());
        let (mut alu, mut shared, mut probes) = (0u64, 0u64, 0u64);
        let mut merged = false;
        let SfaMemo { job, states, spans, segs, merges, accepts, next, stamp, seen, .. } = self;
        let from = &states[spans[*t as usize].0 as usize..][..len];
        next.clear();
        merges.resize(merge_start + len * (1 + usize::from(count)), 0);
        let (new_idx, first) = merges[merge_start..].split_at_mut(len);
        for (i, &s) in from.iter().enumerate() {
            let c = table.step_charge(s, class);
            alu += c.alu;
            probes += c.probes;
            match c.cold {
                None => shared += 1,
                Some(offset) => segs.extend(job.spec.segments(offset, ENTRY_BYTES)),
            }
            let succ = dfa.next_by_class(s, class);
            if count {
                alu += 1;
                if dfa.is_accepting(succ) {
                    accepts.push(i as u32);
                }
            }
            // Paths that reach the same state merge into the first one;
            // survivors keep their order.
            let f = if stamp[succ as usize] == gen {
                merged = true;
                seen[succ as usize] as usize
            } else {
                stamp[succ as usize] = gen;
                seen[succ as usize] = i as u32;
                next.push(succ);
                i
            };
            new_idx[i] = if f == i { next.len() as u32 - 1 } else { new_idx[f] };
            if count {
                first[i] = f as u32;
            }
        }
        // Loop bookkeeping; with more than one live path, one convergence
        // compare per path; on a merge, the |Q|-entry indirection rewrite.
        alu += 1;
        if len > 1 {
            alu += len as u64;
        }
        if merged {
            alu += u64::from(dfa.n_states());
        } else {
            merges.truncate(merge_start);
        }
        let successor = std::mem::take(&mut self.next);
        let next_t = self.intern(&successor);
        self.next = successor;
        let id = self.steps.len() as u32;
        self.steps.push(MemoStep {
            next: next_t,
            next_live: self.next.len() as u32,
            alu: alu as u32,
            shared: shared as u32,
            probes: probes as u32,
            seg_start: seg_start as u32,
            n_segs: (self.segs.len() - seg_start) as u32,
            epoch: WindowEpoch::default(),
            merge: if merged { merge_start as u32 } else { NONE },
            accept_start: accept_start as u32,
            n_accepts: (self.accepts.len() - accept_start) as u32,
        });
        self.trans[*t as usize * self.n_classes + class as usize] = id;
        debug_assert!(
            self.bytes() <= MEMO_BUDGET_BYTES || self.steps.len() == 1,
            "memo holds {} bytes, over its budget",
            self.bytes()
        );
        id
    }

    /// Charges step `id` to `ctx`: exactly what stepping its tuple's paths
    /// one by one charges.
    #[inline]
    fn replay(&mut self, id: u32, ctx: &mut ThreadCtx<'_>) {
        let step = &mut self.steps[id as usize];
        ctx.alu(u64::from(step.alu));
        ctx.shared(u64::from(step.shared));
        ctx.probes(u64::from(step.probes));
        let segs = &self.segs[step.seg_start as usize..][..step.n_segs as usize];
        ctx.global_batch(REGION_TABLE, segs, &mut step.epoch);
    }
}

/// What every walk of one run shares: the first steps and the job-wide
/// memo.
struct SfaShared<'a> {
    job: &'a Job<'a>,
    first: FirstSteps,
    memo: Mutex<SfaMemo<'a>>,
}

impl<'a> SfaShared<'a> {
    fn new(job: &'a Job<'a>) -> Self {
        SfaShared {
            job,
            first: FirstSteps::new(job.table.dfa().stride()),
            memo: Mutex::new(SfaMemo::new(job)),
        }
    }
}

/// A block's handle on the walk: the job-wide memo when it is free, a
/// block-local one when another block holds it, and the walk's per-chunk
/// scratch. Either memo gives the same answer and the same charges, so the
/// choice never shows in any output.
struct Walker<'m, 'a> {
    shared: &'m SfaShared<'a>,
    local: Option<SfaMemo<'a>>,
    scratch: WalkScratch,
}

impl<'m, 'a> Walker<'m, 'a> {
    fn new(shared: &'m SfaShared<'a>) -> Self {
        let stamps = vec![WindowEpoch::default(); shared.first.steps.len()];
        Walker { shared, local: None, scratch: WalkScratch { stamps, ..WalkScratch::default() } }
    }

    fn derive(&mut self, ctx: &mut ThreadCtx<'_>, range: Range<usize>) -> Derived {
        let first = &self.shared.first;
        match self.shared.memo.try_lock() {
            Ok(mut memo) => derive_mapping(&mut memo, first, &mut self.scratch, ctx, range),
            Err(_) => {
                let job = self.shared.job;
                let memo = self.local.get_or_insert_with(|| SfaMemo::new(job));
                derive_mapping(memo, first, &mut self.scratch, ctx, range)
            }
        }
    }
}

/// Per-chunk host state of the walk, reused across a block's chunks.
#[derive(Default)]
struct WalkScratch {
    /// Per byte class: the window stamp of its [`FirstStep`]'s segments.
    stamps: Vec<WindowEpoch>,
    /// `ptr[j]`: the live path that first-step path `j` rides now.
    ptr: Vec<u32>,
    /// `offset[j] + matches[ptr[j]]` = accepting visits of first-step path
    /// `j` (counting only).
    offset: Vec<i64>,
    /// Accepting visits per live path since its creation (counting only).
    matches: Vec<u64>,
    /// Per live path: its match count minus its merge target's.
    delta: Vec<i64>,
}

/// Walks `range` once, maintaining the full state→state mapping with
/// converged-path deduplication. Device cost per byte: one input load
/// (shared across paths, like the spec-k kernel, and charged for the whole
/// chunk as one [`ThreadCtx::global_span`]), one table step per
/// *distinct* live path, and one compare per path for the convergence
/// check; each merge epoch additionally pays the |Q|-entry indirection
/// rewrite, and the chunk ends with one |Q|-entry write-back of the
/// assembled mapping.
///
/// On the host, the |Q|-wide first step is the run's [`FirstStep`] for the
/// chunk's first byte class, replayed as sums and word masks; each later
/// byte is one [`SfaMemo`] lookup whose charges are replayed as sums, and
/// once one live path is left the rest of the chunk is the table's
/// one-path walk. Only bytes where paths merge touch per-path state. That
/// indirection, like the returned [`Derived`], is sized by the paths alive
/// after the first step; no host loop or allocation per chunk is sized by
/// |Q|.
fn derive_mapping(
    memo: &mut SfaMemo<'_>,
    first: &FirstSteps,
    w: &mut WalkScratch,
    ctx: &mut ThreadCtx<'_>,
    range: Range<usize>,
) -> Derived {
    let job = memo.job;
    let table = job.table;
    let dfa = table.dfa();
    let n = dfa.n_states();
    let count = job.config.count_matches;
    let (&b0, rest) = job.input[range.clone()]
        .split_first()
        .expect("Job::new admits no more chunks than input bytes, so no chunk is empty");
    ctx.global_span(REGION_INPUT, range.start as u64, range.len() as u64);
    let c0 = dfa.classes().class(b0);
    let (root, mut t) = first.with(job, c0, |step| {
        step.replay(ctx, &mut w.stamps[c0 as usize]);
        (step.root.clone(), memo.first_tuple(c0, &step.next))
    });
    memo.reserved = first.bytes();
    // The paths alive after the first step start with identity pointers,
    // zero offsets and, when counting, one visit each if they accept.
    let mut live = memo.spans[t as usize].1 as usize;
    w.ptr.clear();
    w.ptr.extend(0..live as u32);
    if count {
        w.offset.clear();
        w.offset.resize(live, 0);
        w.matches.clear();
        w.matches.extend(memo.tuple(t).iter().map(|&s| u64::from(dfa.is_accepting(s))));
    }
    let mut tail = None;
    for (i, &b) in rest.iter().enumerate() {
        if live == 1 {
            // One live path: every first-step path rides it, so the rest of
            // the chunk is the table's one-path walk, charged the same.
            let tail_range = range.start + 1 + i..range.end;
            let run = table.step_path(ctx, job.input, tail_range, memo.tuple(t)[0], count);
            if count {
                w.matches[0] += run.matches;
            }
            tail = Some(run.end);
            break;
        }
        let id = memo.step(&mut t, dfa.classes().class(b));
        memo.replay(id, ctx);
        let step = &memo.steps[id as usize];
        let next_live = step.next_live as usize;
        if count {
            for &i in &memo.accepts[step.accept_start as usize..][..step.n_accepts as usize] {
                w.matches[i as usize] += 1;
            }
        }
        if step.merge != NONE {
            let new_idx = &memo.merges[step.merge as usize..][..live];
            if count {
                // Riders keep `offset + matches(path) = true matches` by
                // absorbing the counter difference to their merge target.
                let first = &memo.merges[step.merge as usize + live..][..live];
                w.delta.clear();
                w.delta.extend(
                    first
                        .iter()
                        .enumerate()
                        .map(|(i, &f)| w.matches[i] as i64 - w.matches[f as usize] as i64),
                );
                for (i, &f) in first.iter().enumerate() {
                    if f as usize == i {
                        w.matches[new_idx[i] as usize] = w.matches[i];
                    }
                }
                w.matches.truncate(next_live);
            }
            for (j, p) in w.ptr.iter_mut().enumerate() {
                if count {
                    w.offset[j] += w.delta[*p as usize];
                }
                *p = new_idx[*p as usize];
            }
        }
        t = step.next;
        live = next_live;
    }

    // Final write-back: the device assembles the per-start-state mapping
    // from the surviving paths; the host keeps it per first-step path.
    ctx.alu(u64::from(n));
    let paths = match &tail {
        Some(end) => std::slice::from_ref(end),
        None => memo.tuple(t),
    };
    let counts = if count {
        w.ptr
            .iter()
            .zip(&w.offset)
            .map(|(&p, &o)| (o + w.matches[p as usize] as i64) as u64)
            .collect()
    } else {
        Vec::new()
    };
    let ends = w.ptr.iter().map(|&p| paths[p as usize]).collect();
    Derived { root, ends, counts, eff_width: paths.len() as u32, poisoned: false }
}

pub(crate) fn run<'a>(job: &'a Job<'a>) -> RunOutcome {
    let chunks = job.chunks();
    let n = chunks.len();
    // What every walk of the run shares: the exec grid's blocks and the
    // fault path's re-derivations.
    let shared = SfaShared::new(job);

    let mut exec = SfaExecKernel {
        shared: &shared,
        chunks: &chunks,
        maps: (0..n).map(|_| Derived::default()).collect(),
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
                        walker: Walker::new(&shared),
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

    let mut verify = KernelStats::default();

    // Mapping corruption: a struck chunk's function table is poisoned and
    // re-derived. SFA never needs the degradation-to-sequential ladder here
    // — the mapping is a pure function of (table, chunk bytes), so the
    // re-derivation restores the exact fault-free result, and its cycles
    // land in `Phase::Recovery`.
    if let Some(plan) = job.config.faults {
        if plan.corrupt_permille > 0 {
            let mut rederives: Vec<(usize, SfaRederive<'_, '_>)> = Vec::new();
            for (cid, map) in maps.iter_mut().enumerate() {
                if plan.corrupts(cid) {
                    map.poison();
                    rederives.push((
                        1,
                        SfaRederive {
                            walker: Walker::new(&shared),
                            cid,
                            range: chunks[cid].clone(),
                            out: None,
                        },
                    ));
                }
            }
            if !rederives.is_empty() {
                verify.merge_sequential(
                    &launch_blocks(job.spec, &mut rederives)
                        .unwrap_or_else(|e| panic!("launch_blocks: {e}"))
                        .fold(),
                );
                for (_, k) in rederives {
                    maps[k.cid] = k.out.expect("re-derivation ran");
                }
            }
        }
    }
    // Every mapping is derived: the memo and the first steps have served
    // their purpose.
    drop(shared);

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
                let w = block_width(&maps[d.tids.clone()]);
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
            let w = block_width(&maps);
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
    for map in &maps {
        if job.config.count_matches {
            total_matches += map.count(cur);
        }
        cur = map.map(cur);
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

/// Effective composition width of a run of chunks: the widest surviving
/// mapping among them (composition walks the left operand's live paths).
fn block_width(maps: &[Derived]) -> u64 {
    maps.iter().map(|m| m.eff_width).max().unwrap_or(1).max(1) as u64
}

struct SfaExecKernel<'m, 'a> {
    shared: &'m SfaShared<'a>,
    chunks: &'m [Range<usize>],
    maps: Vec<Derived>,
}

/// One grid block of the SFA execution: chunks are independent, so a block
/// is a disjoint window of the per-chunk mappings.
struct SfaExecBlock<'s, 'a> {
    walker: Walker<'s, 'a>,
    chunks: &'s [Range<usize>],
    base: usize,
    maps: &'s mut [Derived],
}

impl RoundKernel for SfaExecBlock<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.walker.shared.job.sfa_requirements(threads)
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        self.maps[tid - self.base] = self.walker.derive(ctx, self.chunks[tid].clone());
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

impl<'m, 'a> GridKernel for SfaExecKernel<'m, 'a> {
    type Block<'s>
        = SfaExecBlock<'s, 'a>
    where
        Self: 's;

    fn requirements(&self, width: u32) -> BlockRequirements {
        self.shared.job.sfa_requirements(width)
    }

    fn split<'s>(&'s mut self, dims: &[BlockDim]) -> Vec<SfaExecBlock<'s, 'a>> {
        let mut maps: &'s mut [Derived] = &mut self.maps;
        let mut out = Vec::with_capacity(dims.len());
        for dim in dims {
            let (m, rest) = maps.split_at_mut(dim.len());
            maps = rest;
            out.push(SfaExecBlock {
                walker: Walker::new(self.shared),
                chunks: self.chunks,
                base: dim.tids.start,
                maps: m,
            });
        }
        out
    }
}

/// One-thread re-derivation of a corrupted chunk's mapping: the same dedup
/// walk the exec phase ran, credited as recovery.
struct SfaRederive<'m, 'a> {
    walker: Walker<'m, 'a>,
    cid: usize,
    range: Range<usize>,
    out: Option<Derived>,
}

impl RoundKernel for SfaRederive<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.walker.shared.job.sfa_requirements(threads)
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let t0 = ctx.cycles();
        let d = self.walker.derive(ctx, self.range.clone());
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
struct SfaRederiveWindow<'m, 'a> {
    walker: Walker<'m, 'a>,
    chunks: &'m [Range<usize>],
    cursor: usize,
    end: usize,
}

impl RoundKernel for SfaRederiveWindow<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        self.walker.shared.job.sfa_requirements(threads)
    }

    fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let t0 = ctx.cycles();
        let _ = self.walker.derive(ctx, self.chunks[self.cursor].clone());
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
    use gspecpal_fsm::random::{random_dfa, random_input};
    use gspecpal_fsm::{ByteClasses, Dfa, DfaBuilder, FrequencyProfile};
    use gspecpal_gpu::{DeviceSpec, FaultPlan};
    use proptest::prelude::*;

    /// A chunk's full state→state mapping, every entry materialized.
    #[derive(Debug, PartialEq)]
    struct FullMapping {
        map: Vec<StateId>,
        counts: Vec<u64>,
        eff_width: u32,
    }

    /// Reads every entry of a lazy mapping: `map(q)` and, when counting,
    /// `count(q)` for every state `q`.
    fn expand(d: &Derived, n: u32, count_matches: bool) -> FullMapping {
        FullMapping {
            map: (0..n).map(|q| d.map(q)).collect(),
            counts: if count_matches { (0..n).map(|q| d.count(q)).collect() } else { Vec::new() },
            eff_width: d.eff_width,
        }
    }

    /// The uncached walk the memo replaces, kept as the oracle the memoized
    /// walk is tested against.
    fn derive_mapping_uncached(
        table: &DeviceTable<'_>,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        count_matches: bool,
    ) -> FullMapping {
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
                            new_idx[i] = new_idx[first];
                            delta[i] = path_matches[i] as i64
                                - path_matches[new_idx[first] as usize] as i64;
                        }
                    }
                    paths.truncate(w);
                    path_matches.truncate(w);
                    ctx.alu(n as u64);
                    for q in 0..n {
                        let p = ptr[q] as usize;
                        offset[q] += delta[p];
                        ptr[q] = new_idx[p];
                    }
                }
            }
        }

        ctx.alu(n as u64);
        let map: Vec<StateId> = ptr.iter().map(|&p| paths[p as usize]).collect();
        let counts: Vec<u64> = if count_matches {
            ptr.iter()
                .zip(&offset)
                .map(|(&p, &off)| (off + path_matches[p as usize] as i64) as u64)
                .collect()
        } else {
            Vec::new()
        };
        FullMapping { map, counts, eff_width: paths.len() as u32 }
    }

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

    /// A machine on which every byte class permutes the states: no two
    /// paths ever merge, and a few random permutations generate a huge
    /// transformation monoid, so nearly every byte of a random input
    /// reaches a live-path tuple the memo has not seen.
    fn permutation_dfa(seed: u64, n: u32, n_classes: u16) -> Dfa {
        let mut map = [0u8; 256];
        for (b, slot) in map.iter_mut().enumerate() {
            *slot = (b % n_classes as usize) as u8;
        }
        let mut builder = DfaBuilder::new(ByteClasses::from_map(map));
        for s in 0..n {
            builder.add_state(s % 3 == 0);
        }
        let mut x = seed | 1;
        for c in 0..n_classes {
            let mut perm: Vec<StateId> = (0..n).collect();
            for i in (1..perm.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                perm.swap(i, (x % (i as u64 + 1)) as usize);
            }
            for (s, &t) in perm.iter().enumerate() {
                builder.set_transition(s as StateId, c, t).unwrap();
            }
        }
        builder.build(0).unwrap()
    }

    /// Derives chunk `tid` of the job in every one of `rounds_left` rounds,
    /// through the memoized walk or, without a walker, the uncached oracle,
    /// and keeps every entry of its mapping.
    struct DeriveChunks<'m, 'a> {
        job: &'a Job<'a>,
        chunks: &'m [Range<usize>],
        walker: Option<Walker<'m, 'a>>,
        out: Vec<Option<FullMapping>>,
        rounds_left: u32,
    }

    impl<'m, 'a> DeriveChunks<'m, 'a> {
        fn new(
            job: &'a Job<'a>,
            chunks: &'m [Range<usize>],
            walker: Option<Walker<'m, 'a>>,
            rounds: u32,
        ) -> Self {
            let out = (0..chunks.len()).map(|_| None).collect();
            DeriveChunks { job, chunks, walker, out, rounds_left: rounds }
        }
    }

    impl RoundKernel for DeriveChunks<'_, '_> {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            let range = self.chunks[tid].clone();
            let job = self.job;
            let count = job.config.count_matches;
            self.out[tid] = Some(match &mut self.walker {
                Some(walker) => {
                    expand(&walker.derive(ctx, range), job.table.dfa().n_states(), count)
                }
                None => derive_mapping_uncached(job.table, ctx, job.input, range, count),
            });
            RoundOutcome::ACTIVE
        }

        fn after_sync(&mut self, _round: u64) -> bool {
            self.rounds_left -= 1;
            self.rounds_left > 0
        }
    }

    type Walk = (KernelStats, Vec<Option<FullMapping>>);

    /// Runs both walks over every chunk of `job` on one block and returns
    /// (memoized, oracle) stats and outputs. `contended` holds the job
    /// memo for the launch, so the walk runs on its block-local fallback.
    fn both_walks<'a>(job: &'a Job<'a>, rounds: u32, contended: bool) -> (Walk, Walk) {
        let chunks = job.chunks();
        let shared = SfaShared::new(job);
        let run = |walker: Option<Walker<'_, 'a>>| {
            let mut k = DeriveChunks::new(job, &chunks, walker, rounds);
            let stats = launch(job.spec, chunks.len(), &mut k);
            (stats, k.out)
        };
        let memoized = {
            let _held = contended.then(|| shared.memo.lock().unwrap());
            run(Some(Walker::new(&shared)))
        };
        (memoized, run(None))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The memoized walk is the uncached walk: the same mapping and
        /// match count for every start state, the same widths, and the same
        /// `KernelStats` field for field — clocks, coalescing, per-phase
        /// counters — on random and permutation machines, both layouts, any
        /// hot-row count, with and without match counting, over random
        /// partitions, across barriers (a second round re-derives every
        /// chunk), on the block-local fallback memo, and on 4-byte and on
        /// 32-byte segments (where several states' column entries share one
        /// segment of the first step's cold set).
        #[test]
        fn memoized_walk_equals_uncached_walk(
            seed in 0u64..1_000_000,
            n_states in 1u32..40,
            n_classes in 1u16..9,
            permutation in 0u8..3,
            hot in 0u32..41,
            hashed in 0u8..2,
            count_matches in 0u8..2,
            len in 1usize..400,
            n_chunks in 1usize..65,
            rounds in 1u32..3,
            contended in 0u8..2,
            rtx in 0u8..2,
        ) {
            let d = if permutation == 0 {
                permutation_dfa(seed, n_states, n_classes)
            } else {
                random_dfa(seed, n_states, n_classes)
            };
            let input = random_input(seed, len);
            let hot = hot.min(n_states);
            let profile = FrequencyProfile::collect(&d, &input);
            let table = if hashed == 1 {
                DeviceTable::hashed(&d, &profile, hot)
            } else {
                DeviceTable::transformed(&d, hot)
            };
            let spec = if rtx == 1 { DeviceSpec::rtx3090() } else { DeviceSpec::test_unit() };
            let config = SchemeConfig {
                n_chunks: n_chunks.min(len),
                count_matches: count_matches == 1,
                ..SchemeConfig::default()
            };
            let job = Job::new(&spec, &table, &input, config).unwrap();
            let (memoized, oracle) = both_walks(&job, rounds, contended == 1);
            prop_assert_eq!(memoized.1, oracle.1);
            prop_assert_eq!(memoized.0, oracle.0);
        }
    }

    /// On a machine whose monoid dwarfs the budget, the memo flushes and
    /// keeps going: its bytes never pass the budget (`SfaMemo::insert`
    /// asserts it after every step in debug builds, and this test checks it
    /// between chunks) and the walk stays exact.
    #[test]
    fn memo_stays_under_budget_and_exact() {
        let d = permutation_dfa(7, 256, 8);
        let input = random_input(11, 24 * 1024);
        let table = DeviceTable::transformed(&d, 16);
        let spec = DeviceSpec::test_unit();
        let config = SchemeConfig { n_chunks: 4, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let chunks = job.chunks();
        let shared = SfaShared::new(&job);
        struct Checked<'m, 'a> {
            inner: DeriveChunks<'m, 'a>,
        }
        impl RoundKernel for Checked<'_, '_> {
            fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                self.inner.round(tid, ctx);
                let walker = self.inner.walker.as_ref().unwrap();
                let bytes = walker.shared.memo.lock().unwrap().bytes();
                assert!(bytes <= MEMO_BUDGET_BYTES, "{bytes} bytes");
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, round: u64) -> bool {
                self.inner.after_sync(round)
            }
        }
        let mut k =
            Checked { inner: DeriveChunks::new(&job, &chunks, Some(Walker::new(&shared)), 1) };
        let stats = launch(&spec, chunks.len(), &mut k);
        assert!(shared.memo.lock().unwrap().flushes > 0, "the input must overflow the budget");
        let (_, oracle) = both_walks(&job, 1, false);
        assert_eq!(k.inner.out, oracle.1);
        assert_eq!(stats, oracle.0);
        for (cid, r) in chunks.iter().enumerate() {
            let out = k.inner.out[cid].as_ref().unwrap();
            assert_eq!(out.eff_width, 256, "a permutation machine never merges");
            for q in [0, 17, 255] {
                assert_eq!(out.map[q as usize], d.run_from(q, &input[r.clone()]));
            }
        }
    }

    #[test]
    fn counts_are_empty_without_match_counting() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, d.n_states());
        let input: Vec<u8> = b"110101011001".repeat(8);
        for count_matches in [false, true] {
            let config = SchemeConfig { n_chunks: 8, count_matches, ..SchemeConfig::default() };
            let job = Job::new(&spec, &table, &input, config).unwrap();
            let chunks = job.chunks();
            let shared = SfaShared::new(&job);
            struct Counts<'m, 'a> {
                walker: Walker<'m, 'a>,
                chunks: &'m [Range<usize>],
                empty: Vec<bool>,
            }
            impl RoundKernel for Counts<'_, '_> {
                fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                    let d = self.walker.derive(ctx, self.chunks[tid].clone());
                    self.empty.push(d.counts.is_empty());
                    RoundOutcome::ACTIVE
                }
                fn after_sync(&mut self, _round: u64) -> bool {
                    false
                }
            }
            let mut k = Counts { walker: Walker::new(&shared), chunks: &chunks, empty: Vec::new() };
            launch(&spec, chunks.len(), &mut k);
            assert_eq!(k.empty, vec![!count_matches; chunks.len()]);
        }
    }

    /// The |Q|-wide first step is one column scan per (run, byte class):
    /// however many chunks start on a class, across barriers and on the
    /// block-local memos of contended blocks, each class is scanned once.
    #[test]
    fn first_step_scans_once_per_run_and_class() {
        let d = random_dfa(3, 30, 6);
        let input = random_input(5, 4000);
        let table = DeviceTable::transformed(&d, 4);
        let spec = DeviceSpec::test_unit();
        let config = SchemeConfig { n_chunks: 64, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &input, config).unwrap();
        let chunks = job.chunks();
        let classes: std::collections::BTreeSet<u16> =
            chunks.iter().map(|r| d.classes().class(input[r.start])).collect();
        assert!(classes.len() > 1, "chunks must start on several classes");
        let shared = SfaShared::new(&job);
        for contended in [false, true] {
            let _held = contended.then(|| shared.memo.lock().unwrap());
            let mut k = DeriveChunks::new(&job, &chunks, Some(Walker::new(&shared)), 2);
            launch(&spec, chunks.len(), &mut k);
        }
        assert_eq!(shared.first.scans.load(Ordering::Relaxed), classes.len());
    }

    /// Corrupting every chunk's mapping poisons all of them; re-derivation
    /// restores the fault-free answers exactly, and since reading a
    /// poisoned mapping panics, the composition never read one.
    #[test]
    fn corrupting_every_mapping_rederives_the_fault_free_answers() {
        let d = keyword_dfa(&[b"abc", b"bca"]).unwrap();
        let spec = DeviceSpec::test_unit();
        let table = DeviceTable::transformed(&d, 2);
        let input = b"abcabcxxbcabca".repeat(31);
        let clean = SchemeConfig { n_chunks: 37, count_matches: true, ..SchemeConfig::default() };
        let plan = FaultPlan { seed: 9, corrupt_permille: 1000, ..FaultPlan::default() };
        let faulty = SchemeConfig { faults: Some(plan), ..clean };
        let run = |config| {
            let job = Job::new(&spec, &table, &input, config).unwrap();
            run_scheme(SchemeKind::Sfa, &job)
        };
        let (clean, faulty) = (run(clean), run(faulty));
        assert_eq!(faulty.end_state, clean.end_state);
        assert_eq!(faulty.chunk_ends, clean.chunk_ends);
        assert_eq!(faulty.match_count, clean.match_count);
        assert_eq!(faulty.match_count, Some(d.count_matches(&input)));
        assert_eq!(faulty.recovery_runs(), 37, "every chunk is re-derived");
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
