//! Verification/recovery record storage (`VR_i`, §IV-C, Figure 5).
//!
//! Each chunk `i` accumulates records `{start, end}` of speculative
//! executions and recoveries over it. Records produced by the *owning*
//! thread (`VR_i^end`) live in that thread's registers; records produced by
//! *other* threads during aggressive recovery (`VR_i^others`) are staged
//! through shared memory and held in a register window of configurable size
//! — the knob swept in Fig 7. Too few registers lose records (forcing
//! must-be-done recoveries later); too many make every verification scan
//! slower.

use gspecpal_fsm::StateId;
use gspecpal_gpu::ThreadCtx;

/// One speculative execution/recovery record: the chunk was run from
/// `start` and ended in `end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VrRecord {
    /// Start state the chunk was executed from.
    pub start: StateId,
    /// Resulting end state.
    pub end: StateId,
}

impl VrRecord {
    /// A record of a run from `start` that ended in `end`.
    pub fn new(start: StateId, end: StateId) -> Self {
        VrRecord { start, end }
    }
}

/// Records for one chunk.
#[derive(Clone, Debug, Default)]
struct ChunkRecords {
    own: Vec<VrRecord>,
    others: Vec<VrRecord>,
    /// Cross-thread records that did not fit in the register window.
    dropped: u64,
}

impl ChunkRecords {
    fn push_own(&mut self, own_cap: usize, rec: VrRecord) {
        if self.own.iter().any(|r| r.start == rec.start) {
            return; // Same start state re-executed: result is identical.
        }
        if self.own.len() < own_cap {
            self.own.push(rec);
        } else {
            self.own.remove(0);
            self.own.push(rec);
        }
    }

    fn push_other(&mut self, ctx: &mut ThreadCtx<'_>, others_cap: usize, rec: VrRecord) {
        // Store {start, end} to shared memory for the owner to pick up.
        ctx.shared(2);
        if self.others.iter().any(|r| r.start == rec.start)
            || self.own.iter().any(|r| r.start == rec.start)
        {
            return;
        }
        if self.others.len() < others_cap {
            self.others.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    fn scan(&self, ctx: &mut ThreadCtx<'_>, target: StateId) -> Option<VrRecord> {
        ctx.alu(self.own.len() as u64);
        ctx.shared(self.others.len() as u64);
        ctx.alu(self.others.len() as u64);
        self.find(target)
    }

    fn find(&self, target: StateId) -> Option<VrRecord> {
        self.own.iter().chain(self.others.iter()).find(|r| r.start == target).copied()
    }
}

/// Per-chunk record store for a whole job.
#[derive(Clone, Debug)]
pub struct VrStore {
    chunks: Vec<ChunkRecords>,
    own_cap: usize,
    others_cap: usize,
}

impl VrStore {
    /// Creates an empty store for `n_chunks` chunks with the given register
    /// budgets (record slots) for `VR^end` and `VR^others`.
    pub fn new(n_chunks: usize, own_cap: usize, others_cap: usize) -> Self {
        VrStore {
            chunks: vec![ChunkRecords::default(); n_chunks],
            own_cap: own_cap.max(1),
            others_cap,
        }
    }

    /// Number of chunks tracked.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Splits the store into disjoint contiguous views, one per entry of
    /// `lens` (which must sum to the chunk count). Each view keeps *global*
    /// chunk-id indexing, so a grid block operating on chunks `lo..hi` can
    /// use its slice exactly like the whole store.
    pub fn split_lens<'a>(&'a mut self, lens: &[usize]) -> Vec<VrSlice<'a>> {
        assert_eq!(
            lens.iter().sum::<usize>(),
            self.chunks.len(),
            "split lengths must cover every chunk exactly once"
        );
        let own_cap = self.own_cap;
        let others_cap = self.others_cap;
        let mut rest: &'a mut [ChunkRecords] = &mut self.chunks;
        let mut base = 0usize;
        let mut out = Vec::with_capacity(lens.len());
        for &len in lens {
            let (mine, tail) = rest.split_at_mut(len);
            out.push(VrSlice { base, chunks: mine, own_cap, others_cap });
            rest = tail;
            base += len;
        }
        out
    }

    /// Total records currently held for chunk `cid`.
    pub fn len(&self, cid: usize) -> usize {
        self.chunks[cid].own.len() + self.chunks[cid].others.len()
    }

    /// True when chunk `cid` holds no records.
    pub fn is_empty(&self, cid: usize) -> bool {
        self.len(cid) == 0
    }

    /// Total cross-thread records dropped for lack of registers.
    pub fn dropped(&self) -> u64 {
        self.chunks.iter().map(|c| c.dropped).sum()
    }

    /// Fault injection: overwrites the `start` of every record chunk `cid`
    /// currently holds with `sentinel` (a value no real state uses, e.g.
    /// `StateId::MAX`). Poisoned records can never match a verification scan
    /// — scan targets are always valid states — so verification treats the
    /// chunk as unspeculated and re-executes it: corrupted speculative state
    /// is *caught*, never silently trusted.
    pub fn poison_chunk(&mut self, cid: usize, sentinel: StateId) {
        let c = &mut self.chunks[cid];
        for rec in c.own.iter_mut().chain(c.others.iter_mut()) {
            rec.start = sentinel;
        }
    }
}

/// A disjoint view over a contiguous chunk range of a [`VrStore`], produced
/// by [`VrStore::split_lens`] for grid blocks. All methods take *global*
/// chunk ids (the view knows its offset), mirroring how a block's threads
/// address shared state by their global thread ids.
#[derive(Debug)]
pub struct VrSlice<'a> {
    base: usize,
    chunks: &'a mut [ChunkRecords],
    own_cap: usize,
    others_cap: usize,
}

impl VrSlice<'_> {
    fn chunk(&mut self, cid: usize) -> &mut ChunkRecords {
        &mut self.chunks[cid - self.base]
    }

    /// Pushes a record produced by chunk `cid`'s own thread (register write;
    /// negligible device cost). If the window is full the oldest own record
    /// is overwritten — registers are a fixed file, not a growable buffer.
    pub fn push_own(&mut self, cid: usize, rec: VrRecord) {
        let cap = self.own_cap;
        self.chunk(cid).push_own(cap, rec);
    }

    /// Pushes a record produced by a *different* thread: the writer stores it
    /// to shared memory (charged on `ctx`), and it lands in chunk `cid`'s
    /// register window if a slot is free. Records that do not fit are lost
    /// for verification purposes (the Fig 7 "too few registers" failure
    /// mode) and counted in [`VrStore::dropped`].
    pub fn push_other(&mut self, ctx: &mut ThreadCtx<'_>, cid: usize, rec: VrRecord) {
        let cap = self.others_cap;
        self.chunk(cid).push_other(ctx, cap, rec);
    }

    /// Scans chunk `cid`'s records for one whose `start` equals `target`,
    /// charging the verification cost: one ALU compare per own record
    /// (registers) and one shared load + compare per cross-thread record
    /// (the owner re-reads the staging area every round to see new records).
    pub fn scan(&self, ctx: &mut ThreadCtx<'_>, cid: usize, target: StateId) -> Option<VrRecord> {
        self.chunks[cid - self.base].scan(ctx, target)
    }

    /// Host-side lookup without device cost.
    pub fn find(&self, cid: usize, target: StateId) -> Option<VrRecord> {
        self.chunks[cid - self.base].find(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_gpu::{launch, DeviceSpec, KernelStats, RoundKernel, RoundOutcome};

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

    /// One view over the whole store.
    fn whole(vr: &mut VrStore) -> VrSlice<'_> {
        let n = vr.n_chunks();
        vr.split_lens(&[n]).remove(0)
    }

    #[test]
    fn own_records_found_first() {
        let mut vr = VrStore::new(2, 16, 16);
        let mut all = whole(&mut vr);
        all.push_own(0, VrRecord::new(1, 5));
        assert_eq!(all.find(0, 1).map(|r| r.end), Some(5));
        assert!(all.find(0, 2).is_none());
        assert!(all.find(1, 1).is_none());
    }

    #[test]
    fn duplicate_starts_are_deduped() {
        let mut vr = VrStore::new(1, 16, 16);
        let mut all = whole(&mut vr);
        all.push_own(0, VrRecord::new(1, 5));
        all.push_own(0, VrRecord::new(1, 5));
        assert_eq!(vr.len(0), 1);
    }

    #[test]
    fn others_overflow_is_dropped_and_counted() {
        let mut vr = VrStore::new(1, 16, 2);
        let mut all = whole(&mut vr);
        on_device(|ctx| {
            all.push_other(ctx, 0, VrRecord::new(1, 1));
            all.push_other(ctx, 0, VrRecord::new(2, 2));
            all.push_other(ctx, 0, VrRecord::new(3, 3));
        });
        assert!(all.find(0, 3).is_none(), "dropped record is not visible");
        assert_eq!(vr.len(0), 2);
        assert_eq!(vr.dropped(), 1);
    }

    #[test]
    fn own_overflow_evicts_oldest() {
        let mut vr = VrStore::new(1, 2, 0);
        let mut all = whole(&mut vr);
        all.push_own(0, VrRecord::new(1, 1));
        all.push_own(0, VrRecord::new(2, 2));
        all.push_own(0, VrRecord::new(3, 3));
        assert!(all.find(0, 1).is_none(), "oldest evicted");
        assert_eq!(all.find(0, 2).map(|r| r.end), Some(2));
        assert_eq!(all.find(0, 3).map(|r| r.end), Some(3));
    }

    #[test]
    fn scan_cost_scales_with_held_records() {
        let mut vr = VrStore::new(1, 16, 16);
        let mut all = whole(&mut vr);
        let baseline = on_device(|ctx| {
            all.scan(ctx, 0, 0);
        });
        on_device(|ctx| {
            for i in 0..8 {
                all.push_other(ctx, 0, VrRecord::new(i, i));
            }
        });
        let loaded = on_device(|ctx| {
            all.scan(ctx, 0, 0);
        });
        assert!(loaded.shared_accesses > baseline.shared_accesses);
        assert!(loaded.alu_ops > baseline.alu_ops);
    }

    #[test]
    fn push_other_charges_shared_store() {
        let mut vr = VrStore::new(1, 16, 16);
        let mut all = whole(&mut vr);
        let stats = on_device(|ctx| {
            all.push_other(ctx, 0, VrRecord::new(1, 2));
        });
        assert_eq!(stats.shared_accesses, 2);
    }

    #[test]
    fn scan_sees_cross_thread_records() {
        let mut vr = VrStore::new(4, 16, 16);
        let mut all = whole(&mut vr);
        on_device(|ctx| {
            all.push_other(ctx, 3, VrRecord::new(7, 9));
            assert_eq!(all.scan(ctx, 3, 7).map(|r| r.end), Some(9));
            assert!(all.scan(ctx, 3, 8).is_none());
        });
    }

    #[test]
    fn views_address_chunks_by_global_id() {
        let mut vr = VrStore::new(4, 16, 16);
        let mut views = vr.split_lens(&[1, 3]);
        views[1].push_own(2, VrRecord::new(1, 5));
        assert_eq!(views[1].find(2, 1).map(|r| r.end), Some(5));
        assert_eq!(vr.len(2), 1);
        assert!(vr.is_empty(1));
    }

    #[test]
    fn poisoned_chunks_never_match_a_scan() {
        let mut vr = VrStore::new(2, 16, 16);
        let mut all = whole(&mut vr);
        all.push_own(0, VrRecord::new(1, 5));
        all.push_own(1, VrRecord::new(1, 6));
        on_device(|ctx| {
            all.push_other(ctx, 0, VrRecord::new(2, 7));
        });
        vr.poison_chunk(0, StateId::MAX);
        let all = whole(&mut vr);
        assert!(all.find(0, 1).is_none(), "own record unmatchable");
        assert!(all.find(0, 2).is_none(), "cross-thread record unmatchable");
        assert_eq!(all.find(1, 1).map(|r| r.end), Some(6), "other chunks untouched");
        assert_eq!(vr.len(0), 2, "records still occupy their registers");
    }

    #[test]
    fn zero_others_capacity_drops_everything() {
        let mut vr = VrStore::new(1, 16, 0);
        let mut all = whole(&mut vr);
        on_device(|ctx| {
            all.push_other(ctx, 0, VrRecord::new(1, 2));
        });
        assert!(vr.is_empty(0));
        assert_eq!(vr.dropped(), 1);
    }
}
