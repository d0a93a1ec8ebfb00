//! Device-resident transition tables (§IV-B).
//!
//! Transition tables of real rule sets exceed GPU shared memory, so only the
//! *hot* rows (most frequently visited states) are kept there; the rest stay
//! in global memory. Two layouts are implemented:
//!
//! * [`TableLayout::Transformed`] — the paper's frequency-based DFA
//!   transformation: state ids are frequency ranks, so the cached test is a
//!   single comparison `state < H` (Figure 4).
//! * [`TableLayout::Hashed`] — PM's approach: an explicit hash table in
//!   shared memory answers "is this row cached?", costing one extra shared
//!   access and a hash computation *every step*.
//!
//! The ~15% mean improvement the paper reports for the transformation
//! (§V-C) is exactly the per-step delta between these two layouts, which the
//! ablation bench regenerates.

use gspecpal_fsm::{Dfa, FrequencyProfile, StateId};
use gspecpal_gpu::{DeviceSpec, ThreadCtx};

use std::ops::Range;

/// Global-memory region id for the input stream.
pub const REGION_INPUT: u32 = 0;
/// Global-memory region id for the (cold part of the) transition table.
pub const REGION_TABLE: u32 = 1;

/// How the hot-row test is performed on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableLayout {
    /// Frequency-transformed table: `state < H` comparison (GSpecPal).
    Transformed,
    /// Shared-memory hash table lookup per step (PM).
    Hashed,
}

/// A transition table as seen by device kernels, with cost accounting.
#[derive(Clone, Debug)]
pub struct DeviceTable<'a> {
    dfa: &'a Dfa,
    layout: TableLayout,
    /// For `Transformed`: rows `0..hot_rows` are in shared memory (the DFA
    /// must already be frequency-permuted so rank == state id).
    hot_rows: u32,
    /// For `Hashed`: per-state cached flag (top-frequency states).
    hot_set: Vec<bool>,
}

impl<'a> DeviceTable<'a> {
    /// A transformed-layout table over a frequency-permuted DFA with the
    /// given number of resident hot rows.
    pub fn transformed(dfa: &'a Dfa, hot_rows: u32) -> Self {
        assert_entries_fit(dfa);
        DeviceTable { dfa, layout: TableLayout::Transformed, hot_rows, hot_set: Vec::new() }
    }

    /// A hashed-layout table: the `hot_rows` most frequent states (per
    /// `profile`) are resident, tested through a shared-memory hash table.
    pub fn hashed(dfa: &'a Dfa, profile: &FrequencyProfile, hot_rows: u32) -> Self {
        assert_entries_fit(dfa);
        let mut hot_set = vec![false; dfa.n_states() as usize];
        for &s in profile.ranked_states().iter().take(hot_rows as usize) {
            hot_set[s as usize] = true;
        }
        DeviceTable { dfa, layout: TableLayout::Hashed, hot_rows, hot_set }
    }

    /// Fraction of shared memory the hot table must leave free for the
    /// schemes' own block state (staged speculation queues, `VR^others`
    /// records, boundary staging). Without this headroom a table sized to
    /// the last byte of shared memory would leave every kernel unlaunchable
    /// once its per-thread shared footprint is accounted for.
    pub const SCHEME_RESERVE_DENOM: usize = 8;

    /// Computes how many rows fit in the device's shared memory for the
    /// given layout. The hashed layout sacrifices part of shared memory to
    /// the hash table itself (2 bytes per machine state). One eighth of
    /// shared memory ([`Self::SCHEME_RESERVE_DENOM`]) is held back for the
    /// launching kernel's per-thread state, so the resulting table always
    /// leaves the job launchable (at a possibly narrow block width).
    pub fn hot_rows_for_device(dfa: &Dfa, layout: TableLayout, spec: &DeviceSpec) -> u32 {
        let row_bytes = dfa.stride() * std::mem::size_of::<StateId>();
        let reserve = spec.shared_mem_bytes / Self::SCHEME_RESERVE_DENOM;
        let budget = match layout {
            TableLayout::Transformed => spec.shared_mem_bytes - reserve,
            TableLayout::Hashed => {
                (spec.shared_mem_bytes - reserve).saturating_sub(2 * dfa.n_states() as usize)
            }
        };
        ((budget / row_bytes.max(1)) as u32).min(dfa.n_states())
    }

    /// Shared-memory bytes this table occupies per block: the resident hot
    /// rows, plus (for the hashed layout) the 2-bytes-per-state hash table
    /// itself. This is the per-block footprint a kernel must declare in its
    /// [`gspecpal_gpu::BlockRequirements`] — a big hot table lowers the
    /// occupancy calculator's resident-block count, which is exactly the
    /// trade-off the paper's §IV-B caching discussion balances.
    pub fn shared_footprint_bytes(&self) -> usize {
        let rows = self.hot_rows.min(self.dfa.n_states()) as usize;
        let row_bytes = self.dfa.stride() * std::mem::size_of::<StateId>();
        let table = rows * row_bytes;
        match self.layout {
            TableLayout::Transformed => table,
            TableLayout::Hashed => table + 2 * self.dfa.n_states() as usize,
        }
    }

    /// Device *global*-memory bytes the machine's full transition table
    /// occupies: every row (hot rows are a shared-memory *copy* of the
    /// hottest rows, but cold-row fallthrough still needs the whole table
    /// in global memory), plus — for the hashed layout — its
    /// 2-bytes-per-state hash index. This is the unit the serving layer's
    /// table-residency LRU accounts in: a machine whose table is not
    /// resident must upload exactly these bytes before its batch can run,
    /// and evicting it frees exactly these bytes.
    pub fn global_footprint_bytes(&self) -> usize {
        let row_bytes = self.dfa.stride() * std::mem::size_of::<StateId>();
        let table = self.dfa.n_states() as usize * row_bytes;
        match self.layout {
            TableLayout::Transformed => table,
            TableLayout::Hashed => table + 2 * self.dfa.n_states() as usize,
        }
    }

    /// The underlying machine.
    pub fn dfa(&self) -> &Dfa {
        self.dfa
    }

    /// The layout in use.
    pub fn layout(&self) -> TableLayout {
        self.layout
    }

    /// Number of resident rows.
    pub fn hot_rows(&self) -> u32 {
        self.hot_rows
    }

    /// Whether state `s`'s row is resident in shared memory.
    #[inline]
    pub fn is_hot(&self, s: StateId) -> bool {
        match self.layout {
            TableLayout::Transformed => s < self.hot_rows,
            TableLayout::Hashed => self.hot_set[s as usize],
        }
    }

    /// ALU ops and hash probes of every table step, whatever its row: one
    /// ALU op for the transition; for the hashed layout, one Hots[hash(s)]
    /// probe (a shared access that pipelines with the row fetch; its
    /// effective extra latency is the device's probe cost).
    #[inline]
    fn step_ops(&self) -> (u64, u64) {
        match self.layout {
            TableLayout::Transformed => (1, 0),
            TableLayout::Hashed => (1, 1),
        }
    }

    /// The device cost of one transition `Table[s][class]` under this
    /// layout — the one definition of what a step costs. The chunk walk
    /// charges it as sums per path; the SFA walk's memo sums it over live
    /// paths.
    #[inline]
    pub(crate) fn step_charge(&self, s: StateId, class: u16) -> StepCharge {
        let (alu, probes) = self.step_ops();
        let cold = (!self.is_hot(s))
            .then(|| (u64::from(s) * self.dfa.stride() as u64 + u64::from(class)) * ENTRY_BYTES);
        StepCharge { alu, probes, cold }
    }

    /// Runs one chunk on the device from `start`. This is the device-side
    /// `FSM_Processing(fsm, Π(i), state)` primitive every scheme builds on.
    pub fn run_chunk(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        start: StateId,
    ) -> StateId {
        self.run_chunk_with(ctx, input, range, start, false).end
    }

    /// Like [`DeviceTable::run_chunk`], optionally counting accepting-state
    /// visits (the match-reporting output function φ — one extra ALU op per
    /// transition when enabled): the chunk's input span, then the one-path
    /// table walk (`step_path`).
    pub fn run_chunk_with(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        start: StateId,
        count_matches: bool,
    ) -> ChunkRun {
        ctx.global_span(REGION_INPUT, range.start as u64, range.len() as u64);
        self.step_path(ctx, input, range, start, count_matches)
    }

    /// The table steps of one path over `range` from `start`, whose input
    /// loads the caller has charged. The path is stepped in registers and
    /// each cold entry charged as it is stepped, so that the charging
    /// overlaps the walk's chain of loads; then the rest is charged as sums
    /// ([`Self::charge_step_sums`]). The SFA walk finishes a chunk with it
    /// once one live path is left, and a one-path [`WalkBatch`] is charged
    /// with it.
    pub(crate) fn step_path(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        start: StateId,
        count_matches: bool,
    ) -> ChunkRun {
        let (mut end, mut visits) = ([start], [0]);
        let (pos, steps) = ([range.start], range.len());
        let (e, v) = (&mut end, &mut visits);
        let mut sink = ChargeCold { ctx: &mut *ctx, charged: 0 };
        let cold = &mut sink;
        match (self.layout, count_matches) {
            (TableLayout::Transformed, false) => {
                let h = self.hot_rows;
                self.step_lanes::<1, false, _>(input, pos, steps, e, v, [cold], |s| s < h);
            }
            (TableLayout::Transformed, true) => {
                let h = self.hot_rows;
                self.step_lanes::<1, true, _>(input, pos, steps, e, v, [cold], |s| s < h);
            }
            (TableLayout::Hashed, false) => {
                let hot = &self.hot_set[..];
                self.step_lanes::<1, false, _>(input, pos, steps, e, v, [cold], |s| {
                    hot[s as usize]
                });
            }
            (TableLayout::Hashed, true) => {
                let hot = &self.hot_set[..];
                self.step_lanes::<1, true, _>(input, pos, steps, e, v, [cold], |s| hot[s as usize]);
            }
        }
        let cold = sink.charged;
        self.charge_step_sums(ctx, steps as u64, 1, cold, count_matches);
        ChunkRun { end: end[0], matches: visits[0] }
    }

    /// Steps every path of every walk of `batch` to its end, [`LANES`] paths
    /// at a time in lockstep: each step of each lane is a dependent table
    /// load, and stepping independent lanes side by side lets the host
    /// overlap their latencies. Records each path's end state, its accepting
    /// visits (with `count_matches`) and the table entries of its cold
    /// steps, for [`DeviceTable::charge_walk`]. Charges nothing.
    ///
    /// A batch of one path has no other lane to overlap with. It is
    /// stepped by its charge instead, by [`DeviceTable::step_path`].
    pub(crate) fn step_walks(&self, input: &[u8], batch: &mut WalkBatch, count_matches: bool) {
        let n_paths = batch.starts.len();
        batch.ends.clear();
        batch.ends.extend_from_slice(&batch.starts);
        batch.matches.clear();
        batch.matches.resize(n_paths, 0);
        batch.cold_spans.clear();
        batch.cold_spans.resize(n_paths, (0, 0));
        batch.cold.clear();
        if n_paths == 1 {
            return;
        }
        match (self.layout, count_matches) {
            (TableLayout::Transformed, false) => {
                let h = self.hot_rows;
                self.step_lockstep::<false>(input, batch, |s| s < h);
            }
            (TableLayout::Transformed, true) => {
                let h = self.hot_rows;
                self.step_lockstep::<true>(input, batch, |s| s < h);
            }
            (TableLayout::Hashed, false) => {
                let hot = &self.hot_set[..];
                self.step_lockstep::<false>(input, batch, |s| hot[s as usize]);
            }
            (TableLayout::Hashed, true) => {
                let hot = &self.hot_set[..];
                self.step_lockstep::<true>(input, batch, |s| hot[s as usize]);
            }
        }
    }

    /// The scheduler of [`Self::step_walks`]: lanes take paths in batch
    /// order; each pass steps the widest power-of-two group of busy lanes
    /// until the first of them finishes, then finished lanes hand their
    /// results to the batch and take the next paths.
    fn step_lockstep<const COUNT: bool>(
        &self,
        input: &[u8],
        batch: &mut WalkBatch,
        hot: impl Fn(StateId) -> bool + Copy,
    ) {
        let WalkBatch { walks, starts, ends, matches, cold_spans, cold, lane_cold } = batch;
        let mut pending = walks
            .iter()
            .flat_map(|(range, paths)| paths.clone().map(move |p| (range.clone(), p)))
            .filter(|(range, _)| !range.is_empty());
        let mut lanes = Lanes::default();
        loop {
            while lanes.busy < LANES {
                let Some((range, p)) = pending.next() else { break };
                let l = lanes.busy;
                lanes.path[l] = p;
                lanes.pos[l] = range.start;
                lanes.end[l] = range.end;
                lanes.state[l] = starts[p];
                lanes.matches[l] = 0;
                lanes.busy += 1;
            }
            let width = match lanes.busy {
                0 => break,
                1 => 1,
                2 | 3 => 2,
                4..LANES => 4,
                _ => LANES,
            };
            let steps = (0..width).map(|l| lanes.end[l] - lanes.pos[l]).min().unwrap_or(0);
            match width {
                1 => lanes.step::<1, COUNT>(self, input, lane_cold, steps, hot),
                2 => lanes.step::<2, COUNT>(self, input, lane_cold, steps, hot),
                4 => lanes.step::<4, COUNT>(self, input, lane_cold, steps, hot),
                _ => lanes.step::<LANES, COUNT>(self, input, lane_cold, steps, hot),
            }
            let mut l = 0;
            while l < width.min(lanes.busy) {
                if lanes.pos[l] < lanes.end[l] {
                    l += 1;
                    continue;
                }
                let p = lanes.path[l];
                ends[p] = lanes.state[l];
                matches[p] = lanes.matches[l];
                let first = cold.len() as u32;
                cold.extend_from_slice(&lane_cold[l]);
                cold_spans[p] = (first, cold.len() as u32);
                lane_cold[l].clear();
                lanes.busy -= 1;
                lanes.swap(l, lanes.busy);
                lane_cold.swap(l, lanes.busy);
            }
        }
    }

    /// Steps `L` paths by `steps` bytes each, in lockstep: path `l` from
    /// state `state[l]` over the input from `pos[l]`, adding its accepting
    /// visits to `visits[l]` (with `COUNT`) and its cold steps' table
    /// entries to `cold[l]`.
    // Lane-indexed on purpose: every step touches lane `l` of each array.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline(always)]
    fn step_lanes<const L: usize, const COUNT: bool, C: ColdSink>(
        &self,
        input: &[u8],
        pos: [usize; L],
        steps: usize,
        state: &mut [StateId; L],
        visits: &mut [u64; L],
        cold: [&mut C; L],
        hot: impl Fn(StateId) -> bool,
    ) {
        let table = self.dfa.table();
        let stride = self.dfa.stride();
        let classes = self.dfa.classes();
        let bytes: [&[u8]; L] = pos.map(|p| &input[p..][..steps]);
        let (mut s, mut m) = (*state, *visits);
        for i in 0..steps {
            for l in 0..L {
                let entry = s[l] as usize * stride + usize::from(classes.class(bytes[l][i]));
                if !hot(s[l]) {
                    cold[l].push(entry as u32);
                }
                s[l] = table[entry];
                if COUNT {
                    m[l] += u64::from(self.dfa.is_accepting(s[l]));
                }
            }
        }
        (*state, *visits) = (s, m);
    }

    /// Charges walk `w` of a stepped `batch` over `input` to `ctx`: the
    /// walk's input as one [`ThreadCtx::global_span`], then its steps
    /// ([`Self::charge_steps`]).
    pub(crate) fn charge_walk(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        batch: &mut WalkBatch,
        w: usize,
        count_matches: bool,
    ) {
        let range = &batch.walks[w].0;
        ctx.global_span(REGION_INPUT, range.start as u64, range.len() as u64);
        self.charge_steps(ctx, input, batch, w, count_matches);
    }

    /// Charges the table steps of walk `w` of a stepped `batch` to `ctx`:
    /// every cold entry through the warp window, one by one, since they
    /// dedup against each other and the rest of the warp; then the sums of
    /// [`Self::charge_step_sums`]. A one-path batch's path is stepped here
    /// by [`Self::step_path`] (see [`Self::step_walks`]), so a walk's
    /// results are read after its charge.
    ///
    /// These are exactly the charges of stepping each path access by
    /// access: clocks and counters are sums, and the warp window — the one
    /// state shared across threads — sees each thread's accesses when that
    /// thread charges, so charging in thread order keeps every transaction
    /// and coalesced hit where it was.
    pub(crate) fn charge_steps(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        batch: &mut WalkBatch,
        w: usize,
        count_matches: bool,
    ) {
        let (range, paths) = batch.walks[w].clone();
        if batch.starts.len() == 1 {
            let run = self.step_path(ctx, input, range, batch.starts[0], count_matches);
            (batch.ends[0], batch.matches[0]) = (run.end, run.matches);
            return;
        }
        let mut sink = ChargeCold { ctx: &mut *ctx, charged: 0 };
        for &(first, last) in &batch.cold_spans[paths.clone()] {
            for &entry in &batch.cold[first as usize..last as usize] {
                sink.push(entry);
            }
        }
        let cold = sink.charged;
        self.charge_step_sums(ctx, range.len() as u64, paths.len() as u64, cold, count_matches);
    }

    /// Charges, as sums, `paths` paths' steps over `bytes` input bytes of
    /// which `cold` were cold: the ALU ops and hash probes
    /// [`Self::step_charge`] prices for every step, one shared access per
    /// hot step, one loop-bookkeeping ALU op per byte and, with
    /// `count_matches`, one accept-test ALU op per step.
    fn charge_step_sums(
        &self,
        ctx: &mut ThreadCtx<'_>,
        bytes: u64,
        paths: u64,
        cold: u64,
        count_matches: bool,
    ) {
        let steps = bytes * paths;
        let (alu, probes) = self.step_ops();
        let accept_tests = if count_matches { steps } else { 0 };
        ctx.alu(bytes + steps * alu + accept_tests);
        ctx.probes(steps * probes);
        ctx.shared(steps - cold);
    }
}

/// Where a lane's cold steps go: recorded in the batch for a later charge,
/// or charged as they are stepped.
trait ColdSink {
    /// Takes the table entry of one cold step.
    fn push(&mut self, entry: u32);
}

impl ColdSink for Vec<u32> {
    #[inline(always)]
    fn push(&mut self, entry: u32) {
        Vec::push(self, entry);
    }
}

/// Charges each cold entry to a thread's context as one global fetch of
/// [`ENTRY_BYTES`] bytes, through the warp window.
struct ChargeCold<'c, 'a> {
    ctx: &'c mut ThreadCtx<'a>,
    /// Cold entries charged so far.
    charged: u64,
}

impl ColdSink for ChargeCold<'_, '_> {
    #[inline(always)]
    fn push(&mut self, entry: u32) {
        self.charged += 1;
        self.ctx.global(REGION_TABLE, u64::from(entry) * ENTRY_BYTES, ENTRY_BYTES);
    }
}

/// A walk records its cold steps by table entry index in a `u32`, so a
/// device table holds at most 2^32 entries (a 16 GiB table).
fn assert_entries_fit(dfa: &Dfa) {
    assert!(
        u32::try_from(dfa.table().len().saturating_sub(1)).is_ok(),
        "a device table holds at most 2^32 entries"
    );
}

/// Bytes of one transition-table entry.
pub(crate) const ENTRY_BYTES: u64 = std::mem::size_of::<StateId>() as u64;

/// What one table step costs on the device (see
/// [`DeviceTable::step_charge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StepCharge {
    /// ALU operations.
    pub(crate) alu: u64,
    /// Shared-memory hash-table probes.
    pub(crate) probes: u64,
    /// `None` for a row resident in shared memory (one shared access);
    /// otherwise the entry's byte offset in [`REGION_TABLE`], fetched from
    /// global memory ([`ENTRY_BYTES`] bytes).
    pub(crate) cold: Option<u64>,
}

/// Paths [`DeviceTable::step_walks`] steps side by side: enough independent
/// chains of dependent table loads to hide most of the host's memory
/// latency.
const LANES: usize = 8;

/// Chunk walks stepped together by [`DeviceTable::step_walks`] and then
/// charged walk by walk, each on its own thread's context, by
/// [`DeviceTable::charge_walk`]. A walk is one input range stepped from one
/// or more start states, its paths. The buffers are reused from batch to
/// batch.
#[derive(Debug, Default)]
pub(crate) struct WalkBatch {
    /// Per walk: its input range and its paths, a range of `starts`.
    walks: Vec<(Range<usize>, Range<usize>)>,
    /// Per path: the start state.
    starts: Vec<StateId>,
    /// Per path, once stepped: the end state.
    ends: Vec<StateId>,
    /// Per path, once stepped: accepting-state visits (0 when not counting).
    matches: Vec<u64>,
    /// Per path, once stepped: its entries of `cold`.
    cold_spans: Vec<(u32, u32)>,
    /// The table entry (`state * stride + class`) of every step from a row
    /// outside shared memory, grouped by path, in step order.
    cold: Vec<u32>,
    /// Per lane: the cold entries of the path the lane is stepping.
    lane_cold: [Vec<u32>; LANES],
}

impl WalkBatch {
    /// Empties the batch, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.walks.clear();
        self.starts.clear();
    }

    /// Adds a walk of `range` from each of `starts` and returns its index.
    pub(crate) fn push(
        &mut self,
        range: Range<usize>,
        starts: impl IntoIterator<Item = StateId>,
    ) -> usize {
        let first = self.starts.len();
        self.starts.extend(starts);
        self.walks.push((range, first..self.starts.len()));
        self.walks.len() - 1
    }

    /// Walk `w`'s start states.
    pub(crate) fn starts(&self, w: usize) -> &[StateId] {
        &self.starts[self.walks[w].1.clone()]
    }

    /// Walk `w`'s end states, once stepped.
    pub(crate) fn ends(&self, w: usize) -> &[StateId] {
        &self.ends[self.walks[w].1.clone()]
    }

    /// Walk `w`'s accepting-state visits per path, once stepped.
    pub(crate) fn matches(&self, w: usize) -> &[u64] {
        &self.matches[self.walks[w].1.clone()]
    }
}

/// The paths the lanes of [`DeviceTable::step_walks`] are stepping: lanes
/// `0..busy` hold one each, at input position `pos` of `pos..end`.
#[derive(Default)]
struct Lanes {
    busy: usize,
    path: [usize; LANES],
    pos: [usize; LANES],
    end: [usize; LANES],
    state: [StateId; LANES],
    matches: [u64; LANES],
}

impl Lanes {
    /// Steps lanes `0..L` by `steps` bytes ([`DeviceTable::step_lanes`]).
    #[inline(always)]
    fn step<const L: usize, const COUNT: bool>(
        &mut self,
        table: &DeviceTable<'_>,
        input: &[u8],
        lane_cold: &mut [Vec<u32>; LANES],
        steps: usize,
        hot: impl Fn(StateId) -> bool,
    ) {
        let pos: &mut [usize; L] = self.pos.first_chunk_mut().expect("L <= LANES");
        table.step_lanes::<L, COUNT, _>(
            input,
            *pos,
            steps,
            self.state.first_chunk_mut().expect("L <= LANES"),
            self.matches.first_chunk_mut().expect("L <= LANES"),
            lane_cold.first_chunk_mut::<L>().expect("L <= LANES").each_mut(),
            hot,
        );
        for p in pos {
            *p += steps;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.path.swap(a, b);
        self.pos.swap(a, b);
        self.end.swap(a, b);
        self.state.swap(a, b);
        self.matches.swap(a, b);
    }
}

/// Result of executing one chunk on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRun {
    /// End state.
    pub end: StateId,
    /// Accepting-state visits along the way (0 when counting is off).
    pub matches: u64,
}

/// The per-access reference of the bulk-charged walk: one [`ThreadCtx`]
/// call per access, kept as the oracle the walk is tested against.
#[cfg(test)]
impl DeviceTable<'_> {
    /// One state transition `Table[state][class(b)]`, charged access by
    /// access. The input byte must already have been loaded (see
    /// [`DeviceTable::load_input`]).
    pub(crate) fn step(&self, ctx: &mut ThreadCtx<'_>, s: StateId, b: u8) -> StateId {
        let class = self.dfa.classes().class(b);
        let c = self.step_charge(s, class);
        ctx.alu(c.alu);
        ctx.probes(c.probes);
        match c.cold {
            None => ctx.shared(1),
            Some(offset) => ctx.global(REGION_TABLE, offset, ENTRY_BYTES),
        }
        self.dfa.next_by_class(s, class)
    }

    /// Loads one input byte from global memory (coalesced per warp segment).
    pub(crate) fn load_input(&self, ctx: &mut ThreadCtx<'_>, input: &[u8], pos: usize) -> u8 {
        ctx.global(REGION_INPUT, pos as u64, 1);
        input[pos]
    }

    /// The walk [`Self::charge_walk`] charges in bulk, with every byte
    /// loaded and every path stepped one access at a time.
    pub(crate) fn run_chunk_per_access(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        states: &mut [StateId],
        counts: &mut [u64],
        count_matches: bool,
    ) {
        for pos in range {
            let b = self.load_input(ctx, input, pos);
            for (s, c) in states.iter_mut().zip(counts.iter_mut()) {
                *s = self.step(ctx, *s, b);
                if count_matches {
                    ctx.alu(1);
                    *c += u64::from(self.dfa.is_accepting(*s));
                }
            }
            ctx.alu(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::examples::div7;
    use gspecpal_gpu::{launch, KernelStats, RoundKernel, RoundOutcome};

    /// Runs `f` once on thread 0 of a one-round kernel and returns the stats.
    fn on_device<F: FnMut(&mut ThreadCtx<'_>)>(f: F) -> KernelStats {
        struct K<F>(F);
        impl<F: FnMut(&mut ThreadCtx<'_>)> RoundKernel for K<F> {
            fn round(&mut self, _tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
                (self.0)(ctx);
                RoundOutcome::ACTIVE
            }
            fn after_sync(&mut self, _round: u64) -> bool {
                false
            }
        }
        launch(&DeviceSpec::test_unit(), 1, &mut K(f))
    }

    #[test]
    fn global_footprint_covers_the_whole_table() {
        let d = div7();
        // Transformed: all 7 rows × stride × 2 bytes, independent of how
        // many rows are hot (hot rows are a copy, not a partition).
        let full = DeviceTable::transformed(&d, 7);
        let cold = DeviceTable::transformed(&d, 1);
        let expect = 7 * d.stride() * std::mem::size_of::<StateId>();
        assert_eq!(full.global_footprint_bytes(), expect);
        assert_eq!(cold.global_footprint_bytes(), expect, "hot rows don't shrink global");
        assert!(cold.shared_footprint_bytes() < full.shared_footprint_bytes());
    }

    #[test]
    fn hashed_global_footprint_adds_the_index() {
        let d = div7();
        let profile = FrequencyProfile::uniform(&d);
        let t = DeviceTable::hashed(&d, &profile, 3);
        let table = 7 * d.stride() * std::mem::size_of::<StateId>();
        assert_eq!(t.global_footprint_bytes(), table + 2 * 7);
    }

    #[test]
    fn transformed_hot_step_uses_shared_only() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 7); // everything hot
        let mut end = 0;
        let stats = on_device(|ctx| {
            end = t.step(ctx, 0, b'1');
        });
        assert_eq!(end, d.next(0, b'1'));
        assert_eq!(stats.shared_accesses, 1);
        assert_eq!(stats.global_transactions, 0);
    }

    #[test]
    fn transformed_cold_step_goes_global() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 0); // nothing hot
        let stats = on_device(|ctx| {
            t.step(ctx, 3, b'0');
        });
        assert_eq!(stats.shared_accesses, 0);
        assert_eq!(stats.global_transactions, 1);
    }

    #[test]
    fn hashed_step_pays_probe_even_when_hot() {
        let d = div7();
        let profile = FrequencyProfile::uniform(&d);
        let t = DeviceTable::hashed(&d, &profile, 7);
        let stats = on_device(|ctx| {
            t.step(ctx, 0, b'1');
        });
        // 1 probe + 1 row access.
        assert_eq!(stats.shared_accesses, 2);
    }

    #[test]
    fn hashed_hot_set_follows_profile() {
        let d = div7();
        let profile = FrequencyProfile::collect(&d, b"1111111");
        let t = DeviceTable::hashed(&d, &profile, 2);
        let ranked = profile.ranked_states();
        assert!(t.is_hot(ranked[0]));
        assert!(t.is_hot(ranked[1]));
        assert!(!t.is_hot(ranked[6]));
    }

    #[test]
    fn run_chunk_computes_correct_end_state() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 7);
        let input = b"110101101";
        let mut end = 0;
        on_device(|ctx| {
            end = t.run_chunk(ctx, input, 0..input.len(), d.start());
        });
        assert_eq!(end, d.run(input));
    }

    /// A batch of one walk of `range` from each of `starts`, stepped.
    fn one_walk(
        t: &DeviceTable<'_>,
        input: &[u8],
        range: Range<usize>,
        starts: &[StateId],
    ) -> WalkBatch {
        let mut batch = WalkBatch::default();
        batch.push(range, starts.iter().copied());
        t.step_walks(input, &mut batch, false);
        batch
    }

    #[test]
    fn batched_paths_match_individual_runs() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 7);
        let input = b"1011010101";
        let mut batch = one_walk(&t, input, 2..8, &[0, 3, 5]);
        on_device(|ctx| t.charge_walk(ctx, input, &mut batch, 0, false));
        for (i, &s0) in [0, 3, 5].iter().enumerate() {
            assert_eq!(batch.ends(0)[i], d.run_from(s0, &input[2..8]));
        }
    }

    #[test]
    fn multi_path_shares_input_loads() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 7);
        let input = vec![b'1'; 64];
        let single = on_device(|ctx| {
            t.run_chunk(ctx, &input, 0..64, 0);
        });
        let mut batch = one_walk(&t, &input, 0..64, &[0, 1, 2, 3]);
        let quad = on_device(|ctx| t.charge_walk(ctx, &input, &mut batch, 0, false));
        // Input transactions identical; table work roughly 4x.
        assert_eq!(
            single.global_transactions, quad.global_transactions,
            "input loads are shared across paths"
        );
        assert!(quad.shared_accesses >= 4 * single.shared_accesses);
        // The redundancy factor alpha_k stays well below k thanks to the
        // shared input stream (Fig 3's premise).
        assert!(quad.cycles < 4 * single.cycles);
        assert!(quad.cycles > single.cycles);
    }

    /// How [`Walks`] walks: the per-access oracle, one
    /// [`DeviceTable::run_chunk_with`] call per walk (one-path walks only),
    /// or every round's walks stepped together in `begin_round` and charged
    /// by each thread in `round`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum WalkMode {
        PerAccess,
        OneWalk,
        Batched,
    }

    /// Thread `tid` walks one or two of `walks` per round, alternating with
    /// the round — consecutive entries, so the threads of a warp share its
    /// window and a thread may re-walk bytes already in it — recording each
    /// walk's end states and match counts, and its clock after the round.
    struct Walks<'t> {
        table: &'t DeviceTable<'t>,
        input: &'t [u8],
        walks: &'t [(Range<usize>, Vec<StateId>)],
        count: bool,
        mode: WalkMode,
        threads: usize,
        rounds: usize,
        round: usize,
        batch: WalkBatch,
        next: usize,
        results: Vec<(usize, Vec<StateId>, Vec<u64>)>,
        clocks: Vec<(usize, u64)>,
    }

    impl Walks<'_> {
        /// Thread `tid`'s walks this round.
        fn of(&self, tid: usize) -> impl Iterator<Item = &(Range<usize>, Vec<StateId>)> {
            let n = 1 + (tid + self.round) % 2;
            (0..n).map(move |j| &self.walks[(tid + 3 * self.round + j) % self.walks.len()])
        }
    }

    impl RoundKernel for Walks<'_> {
        fn begin_round(&mut self, _round: u64) {
            if self.mode != WalkMode::Batched {
                return;
            }
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            for tid in 0..self.threads {
                for (range, starts) in self.of(tid) {
                    batch.push(range.clone(), starts.iter().copied());
                }
            }
            self.table.step_walks(self.input, &mut batch, self.count);
            self.batch = batch;
            self.next = 0;
        }

        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            let (t, input, count) = (self.table, self.input, self.count);
            let mine: Vec<_> = self.of(tid).cloned().collect();
            for (range, starts) in mine {
                let mut states = starts.clone();
                let mut counts = vec![0; states.len()];
                match self.mode {
                    WalkMode::PerAccess => {
                        t.run_chunk_per_access(ctx, input, range, &mut states, &mut counts, count)
                    }
                    WalkMode::OneWalk => {
                        let run = t.run_chunk_with(ctx, input, range, states[0], count);
                        (states, counts) = (vec![run.end], vec![run.matches]);
                    }
                    WalkMode::Batched => {
                        let w = self.next;
                        self.next += 1;
                        t.charge_walk(ctx, input, &mut self.batch, w, count);
                        states.copy_from_slice(self.batch.ends(w));
                        counts.copy_from_slice(self.batch.matches(w));
                    }
                }
                self.results.push((tid, states, counts));
            }
            self.clocks.push((tid, ctx.cycles()));
            RoundOutcome::ACTIVE
        }

        fn after_sync(&mut self, _round: u64) -> bool {
            self.round += 1;
            self.round < self.rounds
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The bulk-charged walk, stepped in lockstep with the rest of its
        /// round (1–4 paths per walk) or alone (one path), is the
        /// per-access walk: over random machines, hot-row counts from none
        /// to all, both layouts, counting on and off, on ranges that are
        /// empty, shorter than a segment, unaligned or many segments long,
        /// walked by 1–11 threads (batches of 1 to 17 walks) over 1–3
        /// rounds on 4-byte and 32-byte segments, every end state, match
        /// count, per-thread clock and statistic of the launch — per-round
        /// vectors and phase counters included — is identical.
        #[test]
        fn bulk_walk_equals_per_access_walk(
            seed in 0u64..1000,
            n_states in 1u32..24,
            n_classes in 1u16..6,
            hot in 0u32..25,
            hashed in 0u8..2,
            count in 0u8..2,
            walks in proptest::collection::vec(
                ((0usize..300, 0u8..4, 0usize..300), (1usize..5, 0u64..1000)),
                1..6,
            ),
            threads in 1usize..12,
            rounds in 1usize..4,
            rtx in 0u8..2,
        ) {
            use gspecpal_fsm::random::{random_dfa, random_input};
            let spec = if rtx == 1 { DeviceSpec::rtx3090() } else { DeviceSpec::test_unit() };
            let d = random_dfa(seed, n_states, n_classes);
            let input = random_input(seed, 300);
            let hot = hot % (n_states + 1);
            let table = if hashed == 1 {
                DeviceTable::hashed(&d, &FrequencyProfile::collect(&d, &input[..100]), hot)
            } else {
                DeviceTable::transformed(&d, hot)
            };
            let walks: Vec<(Range<usize>, Vec<StateId>)> = walks
                .iter()
                .map(|&((start, kind, len), (k, path_seed))| {
                    let len = match kind {
                        0 => 0,
                        1 => len % 4, // inside one test-unit segment
                        _ => len,
                    };
                    let end = (start + len).min(input.len());
                    let starts = (0..k as u64)
                        .map(|i| ((path_seed + 7 * i) % u64::from(n_states)) as StateId)
                        .collect();
                    (start..end, starts)
                })
                .collect();
            let run = |walks: &[(Range<usize>, Vec<StateId>)], mode: WalkMode| {
                let mut k = Walks {
                    table: &table,
                    input: &input,
                    walks,
                    count: count == 1,
                    mode,
                    threads,
                    rounds,
                    round: 0,
                    batch: WalkBatch::default(),
                    next: 0,
                    results: Vec::new(),
                    clocks: Vec::new(),
                };
                let stats = launch(&spec, threads, &mut k);
                (k.results, k.clocks, stats)
            };
            proptest::prop_assert_eq!(
                &run(&walks, WalkMode::Batched),
                &run(&walks, WalkMode::PerAccess)
            );
            let lone: Vec<_> = walks.iter().map(|(r, s)| (r.clone(), s[..1].to_vec())).collect();
            proptest::prop_assert_eq!(
                &run(&lone, WalkMode::OneWalk),
                &run(&lone, WalkMode::PerAccess)
            );
        }
    }

    #[test]
    fn layouts_compute_identical_transitions() {
        use gspecpal_fsm::random::{random_dfa, random_input};
        use gspecpal_fsm::FrequencyProfile;
        for seed in 0..10u64 {
            let d = random_dfa(seed, 20, 6);
            let profile = FrequencyProfile::uniform(&d);
            let t = DeviceTable::transformed(&d, 10);
            let h = DeviceTable::hashed(&d, &profile, 10);
            let input = random_input(seed ^ 9, 200);
            let mut st = d.start();
            let mut sh = d.start();
            on_device(|ctx| {
                for &b in &input {
                    st = t.step(ctx, st, b);
                    sh = h.step(ctx, sh, b);
                    assert_eq!(st, sh, "seed {seed}");
                }
            });
        }
    }

    #[test]
    fn hot_rows_budget_accounts_for_hash_table() {
        let d = div7();
        let spec = DeviceSpec::test_unit();
        let t_rows = DeviceTable::hot_rows_for_device(&d, TableLayout::Transformed, &spec);
        let h_rows = DeviceTable::hot_rows_for_device(&d, TableLayout::Hashed, &spec);
        assert!(h_rows <= t_rows);
    }

    #[test]
    fn shared_footprint_matches_layout() {
        let d = div7();
        let row = d.stride() * std::mem::size_of::<StateId>();
        let t = DeviceTable::transformed(&d, 3);
        assert_eq!(t.shared_footprint_bytes(), 3 * row);
        let profile = FrequencyProfile::uniform(&d);
        let h = DeviceTable::hashed(&d, &profile, 3);
        assert_eq!(h.shared_footprint_bytes(), 3 * row + 2 * d.n_states() as usize);
        // hot_rows beyond the state count never inflate the footprint.
        let t = DeviceTable::transformed(&d, 1000);
        assert_eq!(t.shared_footprint_bytes(), d.n_states() as usize * row);
    }

    #[test]
    fn big_hot_tables_reduce_resident_blocks() {
        // A device-filling hot table must cost occupancy: the same 256-thread
        // block that fits 6-wide with no shared memory fits exactly once when
        // it carries the full table (ISSUE: "shared-memory-heavy shape
        // measurably reduces resident blocks/SM vs light").
        use gspecpal_fsm::random::random_dfa;
        use gspecpal_gpu::{max_resident_blocks, BlockRequirements};
        let spec = DeviceSpec::rtx3090();
        let d = random_dfa(7, 512, 64);
        let hot = DeviceTable::hot_rows_for_device(&d, TableLayout::Transformed, &spec);
        let t = DeviceTable::transformed(&d, hot);
        assert!(t.shared_footprint_bytes() > spec.shared_mem_bytes / 2, "table should be big");
        let heavy = BlockRequirements {
            threads: 256,
            shared_bytes: t.shared_footprint_bytes(),
            regs_per_thread: 32,
        };
        let light = BlockRequirements::light(256);
        let r_heavy = max_resident_blocks(&spec, &heavy);
        let r_light = max_resident_blocks(&spec, &light);
        assert_eq!(r_heavy, 1);
        assert!(r_heavy < r_light, "{r_heavy} vs {r_light}");
    }
}
