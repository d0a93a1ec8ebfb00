//! Host↔device transfer charging and the copy/compute queue timeline.
//!
//! Real serving never gets its input for free: every batch is DMA-copied
//! over PCIe into device memory before a kernel can touch it, and results
//! are copied back afterwards. This module models both halves:
//!
//! * [`transfer_stats`] turns a copy into a [`KernelStats`] whose cycles are
//!   attributed to [`Phase::Transfer`] — so transfer time flows through the
//!   exact same per-phase accounting (and report schema) as kernel time, and
//!   the profile invariant (per-phase cycles partition the total) holds for
//!   copies just as it does for kernels;
//! * [`DeviceTimeline`] simulates the three hardware queues of an Ampere
//!   part — one host→device copy engine, the compute queue, one
//!   device→host copy engine — as monotone busy-until cursors, which is
//!   what lets a pipeline overlap batch *k+1*'s input copy with batch *k*'s
//!   kernel (CUDA's classic dual-stream double-buffering pattern).
//!
//! The timeline is purely arithmetic over `u64` cycles: no clocks, no host
//! threading, bit-deterministic by construction.

use crate::spec::{DeviceSpec, LinkSpec};
use crate::stats::{KernelStats, Phase};

/// Direction of a host↔device copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CopyDirection {
    /// Host memory → device global memory (batch inputs).
    HostToDevice,
    /// Device global memory → host memory (batch results).
    DeviceToHost,
}

impl CopyDirection {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CopyDirection::HostToDevice => "h2d",
            CopyDirection::DeviceToHost => "d2h",
        }
    }
}

/// Builds the [`KernelStats`] of one host↔device copy of `bytes` bytes:
/// `cycles = spec.copy_cycles(bytes)`, all of it attributed to
/// [`Phase::Transfer`], with the DMA traffic counted as global transactions
/// (the copy engine writes device memory in coalesced segments).
///
/// The returned stats satisfy the profile invariant — per-phase cycles sum
/// to `cycles` exactly — so they can be merged into kernel stats with
/// [`KernelStats::merge_sequential`] without breaking any partition check.
pub fn transfer_stats(spec: &DeviceSpec, bytes: usize) -> KernelStats {
    let cycles = spec.copy_cycles(bytes);
    let transactions = (bytes as u64).div_ceil(spec.global_segment_bytes.max(1));
    let mut stats = KernelStats {
        cycles,
        rounds: 1,
        global_transactions: transactions,
        ..KernelStats::default()
    };
    let pc = stats.profile.get_mut(Phase::Transfer);
    pc.cycles = cycles;
    pc.rounds = 1;
    pc.global_transactions = transactions;
    stats
}

/// Builds the [`KernelStats`] of one cross-fabric copy of `bytes` bytes
/// priced on an attach link instead of the device's own copy engine:
/// `cycles = link.copy_cycles(bytes)`, all attributed to
/// [`Phase::Transfer`], with the DMA traffic coalesced by the *receiving*
/// device's segment geometry. This is what a failover migration costs —
/// checkpoint state crosses the fabric on the survivor's attach link and
/// lands in its memory as an ordinary H2D copy. The profile invariant
/// (per-phase cycles partition the total) holds, so the stats merge into
/// a device's report with [`KernelStats::merge_sequential`].
pub fn link_transfer_stats(link: &LinkSpec, spec: &DeviceSpec, bytes: usize) -> KernelStats {
    let cycles = link.copy_cycles(bytes);
    let transactions = (bytes as u64).div_ceil(spec.global_segment_bytes.max(1));
    let mut stats = KernelStats {
        cycles,
        rounds: 1,
        global_transactions: transactions,
        ..KernelStats::default()
    };
    let pc = stats.profile.get_mut(Phase::Transfer);
    pc.cycles = cycles;
    pc.rounds = 1;
    pc.global_transactions = transactions;
    stats
}

/// A half-open busy interval `[start, end)` on one engine's timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Cycle the operation began.
    pub start: u64,
    /// Cycle the operation completed (engine free again).
    pub end: u64,
}

impl Span {
    /// The operation's duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// Cycles this span overlaps another.
    pub fn overlap(&self, other: &Span) -> u64 {
        self.end.min(other.end).saturating_sub(self.start.max(other.start))
    }
}

/// One in-order hardware queue: operations start at
/// `max(ready_at, engine free)` and occupy the engine for their duration.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    free_at: u64,
}

impl Engine {
    /// Schedules an operation that becomes ready at `ready_at` and runs for
    /// `duration` cycles; returns its span and advances the engine cursor.
    pub fn schedule(&mut self, ready_at: u64, duration: u64) -> Span {
        let start = ready_at.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        Span { start, end }
    }

    /// The cycle at which the engine next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }
}

/// The three queues a serving pipeline schedules against: H2D copy engine,
/// compute queue, D2H copy engine.
///
/// With `overlap` enabled the queues advance independently — a copy and a
/// kernel that are both ready proceed concurrently, exactly what dual copy
/// engines buy. With `overlap` disabled every operation funnels through one
/// serialized queue (the naive synchronous `cudaMemcpy` pipeline), which is
/// the baseline overlap is measured against.
#[derive(Clone, Debug)]
pub struct DeviceTimeline {
    engines: [Engine; 3],
    overlap: bool,
}

impl DeviceTimeline {
    /// A fresh timeline at cycle 0.
    pub fn new(overlap: bool) -> Self {
        DeviceTimeline {
            engines: [Engine::default(), Engine::default(), Engine::default()],
            overlap,
        }
    }

    /// Whether copies and compute may proceed concurrently.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    fn on(&mut self, queue: usize, ready_at: u64, duration: u64) -> Span {
        let queue = if self.overlap { queue } else { 0 };
        self.engines[queue].schedule(ready_at, duration)
    }

    /// Schedules a host→device copy.
    pub fn h2d(&mut self, ready_at: u64, duration: u64) -> Span {
        self.on(0, ready_at, duration)
    }

    /// Schedules a kernel on the compute queue.
    pub fn compute(&mut self, ready_at: u64, duration: u64) -> Span {
        self.on(1, ready_at, duration)
    }

    /// Schedules a device→host copy.
    pub fn d2h(&mut self, ready_at: u64, duration: u64) -> Span {
        self.on(2, ready_at, duration)
    }

    /// The cycle the H2D copy engine next becomes free — what a dispatcher
    /// consults to decide whether batching longer would leave the device
    /// idle.
    pub fn h2d_free_at(&self) -> u64 {
        self.engines[0].free_at()
    }

    /// The latest cycle any queue is busy until — the pipeline makespan so
    /// far.
    pub fn horizon(&self) -> u64 {
        self.engines.iter().map(Engine::free_at).max().unwrap_or(0)
    }

    /// The raw busy-until cursors of the three queues `[h2d, compute, d2h]`
    /// in physical order (no overlap remapping). Together with the `overlap`
    /// flag this is the timeline's *entire* state, which is what makes a
    /// serving engine checkpointable: a timeline rebuilt via
    /// [`DeviceTimeline::from_frontiers`] schedules every future operation
    /// identically.
    pub fn queue_frontiers(&self) -> [u64; 3] {
        [self.engines[0].free_at(), self.engines[1].free_at(), self.engines[2].free_at()]
    }

    /// Reconstructs a timeline from a [`DeviceTimeline::queue_frontiers`]
    /// snapshot. The inverse of `queue_frontiers` for the same `overlap`
    /// flag: all future scheduling decisions are bit-identical to the
    /// original timeline's.
    pub fn from_frontiers(overlap: bool, frontiers: [u64; 3]) -> Self {
        DeviceTimeline {
            engines: [
                Engine { free_at: frontiers[0] },
                Engine { free_at: frontiers[1] },
                Engine { free_at: frontiers[2] },
            ],
            overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_stats_land_in_the_transfer_phase() {
        let spec = DeviceSpec::test_unit(); // copy: 1 + bytes, 4-byte segments
        let s = transfer_stats(&spec, 10);
        assert_eq!(s.cycles, 11);
        assert_eq!(s.global_transactions, 3);
        assert_eq!(s.profile.get(Phase::Transfer).cycles, s.cycles);
        assert_eq!(s.profile.get(Phase::Transfer).global_transactions, 3);
        assert_eq!(s.profile.total_cycles(), s.cycles, "profile invariant holds for copies");
    }

    /// Copies recover nothing, so merging one into a run's stats leaves both
    /// recovery averages where they were.
    #[test]
    fn copy_stats_carry_no_recovery_rounds() {
        let spec = DeviceSpec::test_unit();
        let link = LinkSpec::test_unit();
        let run = KernelStats {
            recovery_rounds: 2,
            recovering_thread_rounds: 5,
            recovery_round_cycles: 30,
            ..KernelStats::default()
        };
        for s in [transfer_stats(&spec, 1000), link_transfer_stats(&link, &spec, 1000)] {
            assert_eq!(
                (s.recovery_rounds, s.recovering_thread_rounds, s.recovery_round_cycles),
                (0, 0, 0)
            );
            let mut merged = run;
            merged.merge_sequential(&s);
            assert_eq!(merged.avg_active_threads_during_recovery(), 2.5);
            assert_eq!(merged.avg_recovery_round_duration(), 15.0);
        }
    }

    #[test]
    fn transfer_stats_merge_into_kernel_stats_cleanly() {
        let spec = DeviceSpec::test_unit();
        let mut run = KernelStats { cycles: 40, ..KernelStats::default() };
        run.profile.get_mut(Phase::SpecExec).cycles = 40;
        run.merge_sequential(&transfer_stats(&spec, 9));
        assert_eq!(run.cycles, 50);
        assert_eq!(run.profile.total_cycles(), run.cycles);
        assert_eq!(run.profile.get(Phase::Transfer).cycles, 10);
    }

    #[test]
    fn engines_serialize_their_own_queue() {
        let mut e = Engine::default();
        let a = e.schedule(0, 10);
        let b = e.schedule(5, 10);
        assert_eq!(a, Span { start: 0, end: 10 });
        assert_eq!(b, Span { start: 10, end: 20 }, "ready at 5 but engine busy until 10");
        let c = e.schedule(50, 1);
        assert_eq!(c.start, 50, "idle gaps are allowed");
    }

    #[test]
    fn overlap_runs_copy_and_compute_concurrently() {
        let mut t = DeviceTimeline::new(true);
        let c0 = t.h2d(0, 10);
        let k0 = t.compute(c0.end, 100);
        let c1 = t.h2d(c0.end, 10); // next batch's copy rides under the kernel
        assert_eq!(k0, Span { start: 10, end: 110 });
        assert_eq!(c1, Span { start: 10, end: 20 });
        assert_eq!(c1.overlap(&k0), 10);
        assert_eq!(t.horizon(), 110);
    }

    #[test]
    fn no_overlap_serializes_everything() {
        let mut t = DeviceTimeline::new(false);
        let c0 = t.h2d(0, 10);
        let k0 = t.compute(c0.end, 100);
        let c1 = t.h2d(c0.end, 10);
        assert_eq!(c1, Span { start: 110, end: 120 }, "copies queue behind the kernel");
        assert_eq!(t.horizon(), 120);
        assert_eq!(c1.overlap(&k0), 0);
    }

    #[test]
    fn frontier_round_trip_preserves_scheduling() {
        for overlap in [false, true] {
            let mut t = DeviceTimeline::new(overlap);
            t.h2d(0, 10);
            t.compute(10, 100);
            t.d2h(110, 7);
            let mut r = DeviceTimeline::from_frontiers(overlap, t.queue_frontiers());
            assert_eq!(r.queue_frontiers(), t.queue_frontiers());
            assert_eq!(r.horizon(), t.horizon());
            assert_eq!(r.h2d(0, 5), t.h2d(0, 5), "future scheduling identical");
            assert_eq!(r.compute(0, 5), t.compute(0, 5));
            assert_eq!(r.d2h(0, 5), t.d2h(0, 5));
        }
    }

    #[test]
    fn span_overlap_arithmetic() {
        let a = Span { start: 0, end: 10 };
        assert_eq!(a.overlap(&Span { start: 5, end: 30 }), 5);
        assert_eq!(a.overlap(&Span { start: 20, end: 30 }), 0);
        assert_eq!(a.duration(), 10);
    }
}
