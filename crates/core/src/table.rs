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
        DeviceTable { dfa, layout: TableLayout::Transformed, hot_rows, hot_set: Vec::new() }
    }

    /// A hashed-layout table: the `hot_rows` most frequent states (per
    /// `profile`) are resident, tested through a shared-memory hash table.
    pub fn hashed(dfa: &'a Dfa, profile: &FrequencyProfile, hot_rows: u32) -> Self {
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

    /// The device cost of one transition `Table[s][class]` under this
    /// layout — the one definition of what a step costs. The chunk walk
    /// tallies it per path; the SFA walk's memo sums it over live paths.
    #[inline]
    pub(crate) fn step_charge(&self, s: StateId, class: u16) -> StepCharge {
        // Transformed: the `state < H` test. Hashed: hash(state) plus a
        // Hots[hash(state)] probe, a shared access that pipelines with the
        // row fetch; its effective extra latency is the device's probe cost.
        let probes = match self.layout {
            TableLayout::Transformed => 0,
            TableLayout::Hashed => 1,
        };
        let cold = (!self.is_hot(s))
            .then(|| (u64::from(s) * self.dfa.stride() as u64 + u64::from(class)) * ENTRY_BYTES);
        StepCharge { alu: 1, probes, cold }
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
    /// transition when enabled): the one-path case of
    /// [`DeviceTable::run_chunk_multi_with`].
    pub fn run_chunk_with(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        start: StateId,
        count_matches: bool,
    ) -> ChunkRun {
        let mut end = [start];
        let mut matches = [0];
        self.run_chunk_multi_with(ctx, input, range, &mut end, &mut matches, count_matches);
        ChunkRun { end: end[0], matches: matches[0] }
    }

    /// Runs `states.len()` paths over the same chunk in one thread (PM's
    /// spec-k execution; one path is [`DeviceTable::run_chunk_with`]): the
    /// input is loaded once and every path takes its table lookups on it.
    /// `states` is updated in place to the per-path end states, and with
    /// `count_matches` each path's accepting-state visits are added to its
    /// entry of `counts`.
    ///
    /// The device cost is what loading each byte and stepping each path
    /// access by access charges, applied as sums: the chunk's input as one
    /// [`ThreadCtx::global_span`], and the ALU ops, hash probes and hot-row
    /// shared accesses of every step (`step_charge`, the one price of a
    /// step) as one tally at the end. Only cold-row fetches go to the warp
    /// window one by one, since they dedup against each other and the rest
    /// of the warp. Clocks and counters are sums and no other thread touches
    /// the window during the walk, so the totals are those of the
    /// per-access walk.
    pub fn run_chunk_multi_with(
        &self,
        ctx: &mut ThreadCtx<'_>,
        input: &[u8],
        range: Range<usize>,
        states: &mut [StateId],
        counts: &mut [u64],
        count_matches: bool,
    ) {
        debug_assert_eq!(states.len(), counts.len());
        ctx.global_span(REGION_INPUT, range.start as u64, range.len() as u64);
        let bytes = &input[range];
        let classes = self.dfa.classes();
        // One loop-bookkeeping ALU op per byte.
        let mut tally = StepTally { alu: bytes.len() as u64, probes: 0, shared: 0 };
        match states {
            // One uncounted path, the recovery walk: keep its state in a
            // register.
            [s] if !count_matches => {
                *s = bytes
                    .iter()
                    .fold(*s, |s, &b| self.tally_step(ctx, &mut tally, s, classes.class(b)));
            }
            _ => {
                for &b in bytes {
                    let class = classes.class(b);
                    for (s, c) in states.iter_mut().zip(counts.iter_mut()) {
                        *s = self.tally_step(ctx, &mut tally, *s, class);
                        if count_matches {
                            tally.alu += 1; // accept test
                            *c += u64::from(self.dfa.is_accepting(*s));
                        }
                    }
                }
            }
        }
        ctx.alu(tally.alu);
        ctx.probes(tally.probes);
        ctx.shared(tally.shared);
    }

    /// One transition of a walk: adds its [`Self::step_charge`] to `tally`,
    /// except a cold-row fetch, which goes to the warp window now.
    #[inline(always)]
    fn tally_step(
        &self,
        ctx: &mut ThreadCtx<'_>,
        tally: &mut StepTally,
        s: StateId,
        class: u16,
    ) -> StateId {
        let charge = self.step_charge(s, class);
        tally.alu += charge.alu;
        tally.probes += charge.probes;
        match charge.cold {
            None => tally.shared += 1,
            Some(offset) => ctx.global(REGION_TABLE, offset, ENTRY_BYTES),
        }
        self.dfa.next_by_class(s, class)
    }
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

/// A walk's sums of the step charges that need no warp window: ALU ops,
/// hash probes and hot-row shared accesses.
struct StepTally {
    alu: u64,
    probes: u64,
    shared: u64,
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

    /// The walk [`Self::run_chunk_multi_with`] charges in bulk, with every
    /// byte loaded and every path stepped one access at a time.
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

    #[test]
    fn run_chunk_multi_matches_individual_runs() {
        let d = div7();
        let t = DeviceTable::transformed(&d, 7);
        let input = b"1011010101";
        let mut states = [0, 3, 5];
        on_device(|ctx| {
            t.run_chunk_multi_with(ctx, input, 2..8, &mut states, &mut [0; 3], false);
        });
        for (i, &s0) in [0, 3, 5].iter().enumerate() {
            assert_eq!(states[i], d.run_from(s0, &input[2..8]));
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
        let mut states = [0, 1, 2, 3];
        let quad = on_device(|ctx| {
            t.run_chunk_multi_with(ctx, &input, 0..64, &mut states, &mut [0; 4], false);
        });
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

    /// Every thread of every round walks two of `walks` — consecutive
    /// entries, so the threads of a warp share its window and a thread may
    /// re-walk bytes already in it — through the bulk-charged walk
    /// ([`DeviceTable::run_chunk_with`] for one path) or the per-access
    /// oracle, recording each walk's end states and match counts.
    struct Walks<'t> {
        table: &'t DeviceTable<'t>,
        input: &'t [u8],
        walks: &'t [(Range<usize>, Vec<StateId>)],
        count: bool,
        per_access: bool,
        rounds: usize,
        round: usize,
        results: Vec<(Vec<StateId>, Vec<u64>)>,
    }

    impl RoundKernel for Walks<'_> {
        fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
            for j in 0..2 {
                let (range, starts) = &self.walks[(tid + 3 * self.round + j) % self.walks.len()];
                let (t, input, count) = (self.table, self.input, self.count);
                let mut states = starts.clone();
                let mut counts = vec![0; states.len()];
                if self.per_access {
                    t.run_chunk_per_access(
                        ctx,
                        input,
                        range.clone(),
                        &mut states,
                        &mut counts,
                        count,
                    );
                } else if let [start] = states[..] {
                    let run = t.run_chunk_with(ctx, input, range.clone(), start, count);
                    (states, counts) = (vec![run.end], vec![run.matches]);
                } else {
                    t.run_chunk_multi_with(
                        ctx,
                        input,
                        range.clone(),
                        &mut states,
                        &mut counts,
                        count,
                    );
                }
                self.results.push((states, counts));
            }
            RoundOutcome::ACTIVE
        }
        fn after_sync(&mut self, _round: u64) -> bool {
            self.round += 1;
            self.round < self.rounds
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The bulk-charged walk is the per-access walk: over random
        /// machines, hot-row counts from none to all, both layouts,
        /// counting on and off, and 1–4 paths, on ranges that are empty,
        /// shorter than a segment, unaligned or many segments long, walked
        /// by several threads per warp over 1–3 rounds on 4-byte and
        /// 32-byte segments, every end state, match count and statistic of
        /// the launch — per-round vectors and phase counters included — is
        /// identical.
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
            threads in 1usize..10,
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
            let run = |per_access: bool| {
                let mut k = Walks {
                    table: &table,
                    input: &input,
                    walks: &walks,
                    count: count == 1,
                    per_access,
                    rounds,
                    round: 0,
                    results: Vec::new(),
                };
                let stats = launch(&spec, threads, &mut k);
                (k.results, stats)
            };
            proptest::prop_assert_eq!(run(false), run(true));
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
