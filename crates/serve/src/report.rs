//! What a serve run reports: latency percentiles, throughput, queue
//! behaviour, and copy/compute overlap efficiency.
//!
//! Everything in a [`ServeReport`] is integer-valued and derived from the
//! deterministic timeline, so reports from the same trace and configuration
//! are bit-identical on every rerun — `PartialEq` on the whole report is the
//! determinism test.

use gspecpal::SchemeKind;
use gspecpal_fsm::StateId;
use gspecpal_gpu::{KernelStats, Span};

use crate::controller::DecisionRecord;
use crate::policy::PolicyKind;
use crate::sketch::LatencySketch;

/// Largest latency set summarized exactly. Above this,
/// [`LatencySummary::from_latencies`] routes through a [`LatencySketch`]
/// (error bound [`LatencySketch::ERROR_PERMILLE`]) so summary cost and
/// memory stay bounded at million-stream scale. The threshold comfortably
/// exceeds every committed benchmark's stream count, which is what keeps
/// the committed `BENCH_serve.json` baselines byte-identical.
pub const EXACT_SUMMARY_MAX: usize = 4096;

/// How a batch was executed on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One device thread per stream ([`gspecpal::throughput`]): the
    /// throughput-oriented layout, best for many comparable streams.
    StreamParallel,
    /// Chunk-parallel speculation per stream (the paper's latency-sensitive
    /// layout), streams back to back: best when a batch is dominated by one
    /// long stream.
    ChunkParallel,
}

impl ExecMode {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::StreamParallel => "stream_parallel",
            ExecMode::ChunkParallel => "chunk_parallel",
        }
    }
}

/// Nearest-rank latency percentiles over a set of per-stream latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst stream.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes `latencies` (need not be sorted; empty input gives all
    /// zeros). Uses the nearest-rank method on integer cycles — no floats,
    /// no interpolation, bit-stable.
    ///
    /// Sets of at most [`EXACT_SUMMARY_MAX`] values are summarized exactly,
    /// by selection; larger sets go through a [`LatencySketch`], whose
    /// percentiles follow the same nearest-rank rule within the sketch's
    /// documented error bound (`max` stays exact either way).
    pub fn from_latencies(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        if latencies.len() > EXACT_SUMMARY_MAX {
            let mut sketch = LatencySketch::new();
            for &v in latencies {
                sketch.record(v);
            }
            return LatencySummary::from_sketch(&sketch);
        }
        // Top rank first: each selection leaves only smaller values before
        // its rank, so the next (lower) rank is selected in that prefix.
        let n = latencies.len();
        let (mut values, mut end) = (latencies.to_vec(), n);
        let nearest_rank = |pct: usize| (pct * n).div_ceil(100).max(1) - 1;
        let ranks = [n - 1, nearest_rank(99), nearest_rank(95), nearest_rank(50)];
        let [max, p99, p95, p50] = ranks.map(|rank| {
            if rank < end {
                values[..end].select_nth_unstable(rank);
                end = rank;
            }
            values[rank]
        });
        LatencySummary { p50, p95, p99, max }
    }

    /// Summarizes a [`LatencySketch`]: nearest-rank percentiles within the
    /// sketch's error bound, exact maximum.
    pub fn from_sketch(sketch: &LatencySketch) -> Self {
        LatencySummary {
            p50: sketch.percentile(50),
            p95: sketch.percentile(95),
            p99: sketch.percentile(99),
            max: sketch.max(),
        }
    }
}

/// What ultimately happened to one admitted stream. Shedding is a
/// *structured outcome*, not an error: the pipeline keeps serving the rest
/// of the trace and the report says exactly which streams were dropped and
/// why.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The stream's result reached the host.
    #[default]
    Served,
    /// Shed at dispatch: the stream waited in the admission queue longer
    /// than the configured shedding deadline.
    ShedDeadline,
    /// Shed because the stream's batch exhausted its copy retry budget (on
    /// either the input or the result transfer).
    ShedCopyFailure,
    /// Shed because the circuit breaker was open when the stream would have
    /// dispatched (too many consecutive batch failures).
    ShedBreakerOpen,
}

impl StreamOutcome {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StreamOutcome::Served => "served",
            StreamOutcome::ShedDeadline => "shed_deadline",
            StreamOutcome::ShedCopyFailure => "shed_copy_failure",
            StreamOutcome::ShedBreakerOpen => "shed_breaker_open",
        }
    }
}

/// Everything the run's fault handling did, in one machine-readable block.
///
/// Kernel-side counters (`block_retries`, `watchdog_kills`,
/// `degraded_blocks`) are folded out of the merged [`KernelStats`]; the
/// copy / shedding / breaker counters come from the pipeline itself. Like
/// the rest of the report it is integer-valued and bit-identical across
/// reruns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Kernel block launches retried after an injected abort or watchdog
    /// kill.
    pub block_retries: u64,
    /// Kernel blocks killed by the watchdog budget.
    pub watchdog_kills: u64,
    /// Kernel blocks that exhausted their retry budget (or tripped the
    /// misspeculation ladder) and degraded to a sequential re-exec.
    pub degraded_blocks: u64,
    /// Host↔device copy attempts retried after an injected failure.
    pub copy_retries: u64,
    /// Batches abandoned after the copy retry budget ran out.
    pub failed_batches: u64,
    /// Streams shed for any reason (deadline, copy failure, open breaker).
    pub shed_streams: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Cycles lost to fault handling: kernel-side recovery overhead plus
    /// failed copy attempts and their backoff waits.
    pub fault_cycles: u64,
}

/// What the per-device transition-table residency LRU did during a run
/// (all zeros when [`crate::ServeConfig::residency`] is `None`).
///
/// A batch whose machine's table is already resident in device global
/// memory is a *hit*; a *miss* charges a real H2D copy of the table's
/// [`global footprint`](gspecpal::table::DeviceTable::global_footprint_bytes)
/// on the copy engine (the cycles land in `Phase::Transfer`, so the phase
/// partition stays exact), evicting least-recently-used tables until the
/// new one fits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyReport {
    /// Batches whose machine's table was already resident.
    pub hits: u64,
    /// Batches that had to upload their machine's table first.
    pub misses: u64,
    /// Tables evicted to make room for a missed table.
    pub evictions: u64,
    /// Table bytes copied host→device on misses.
    pub copied_bytes: u64,
}

impl ResidencyReport {
    /// Hit rate over all table lookups, in permille (0 when the LRU never
    /// ran).
    pub fn hit_permille(&self) -> u64 {
        (self.hits * 1000).checked_div(self.hits + self.misses).unwrap_or(0)
    }

    /// Folds another device's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &ResidencyReport) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.copied_bytes += other.copied_bytes;
    }
}

/// One dispatched batch on the serve timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRecord {
    /// Index of the first stream (in admission order) in the batch.
    pub first_stream: usize,
    /// Number of streams in the batch.
    pub streams: usize,
    /// Machine the batch ran on.
    pub machine: usize,
    /// Scheme the machine's selector chose (chunk-parallel batches only run
    /// this; stream-parallel batches record it for provenance).
    pub scheme: SchemeKind,
    /// How the batch was executed.
    pub mode: ExecMode,
    /// Input bytes copied host→device.
    pub bytes: usize,
    /// Host→device input copy span.
    pub h2d: Span,
    /// Kernel span on the compute queue.
    pub compute: Span,
    /// Device→host result copy span.
    pub d2h: Span,
}

/// The full result of serving a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// The batch policy the run was served under (`None` on a
    /// default-constructed report).
    pub policy: Option<PolicyKind>,
    /// Whether copy/compute overlap was enabled.
    pub overlap: bool,
    /// Streams served (= trace length).
    pub streams: usize,
    /// Total input bytes copied to the device.
    pub total_bytes: usize,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Cycle the last result copy finished — the wall-clock of the run.
    pub makespan_cycles: u64,
    /// Per-stream delivery latency (arrival → result on host), admission
    /// order.
    pub latencies: Vec<u64>,
    /// Percentiles of `latencies`.
    pub delivery: LatencySummary,
    /// Percentiles of arrival → kernel-scan completion (before the result
    /// copy): what the latency looks like to an on-device consumer, from
    /// the measured per-stream clocks.
    pub kernel_latency: LatencySummary,
    /// Verified end state of every stream, admission order.
    pub end_states: Vec<StateId>,
    /// Accept decision per stream, admission order.
    pub accepted: Vec<bool>,
    /// Engine-busy statistics: every batch's transfer and kernel stats
    /// merged sequentially. `stats.cycles` is total busy time across the
    /// three queues — it *exceeds* `makespan_cycles` exactly when copies
    /// overlapped compute. Transfer cycles sit in `Phase::Transfer` and
    /// per-phase cycles still partition `stats.cycles` exactly.
    pub stats: KernelStats,
    /// `(cycle, depth)` samples at every queue-depth change event.
    pub queue_depth: Vec<(u64, usize)>,
    /// Streams whose admission was delayed because the queue was full.
    pub backpressure_events: u64,
    /// Total cycles streams spent waiting for a queue slot.
    pub backpressure_wait_cycles: u64,
    /// Share of copy-engine busy cycles that ran under an active kernel, in
    /// permille (0–1000). 0 when overlap is disabled or there is nothing to
    /// hide behind; approaches 1000 when every copy is fully hidden.
    pub overlap_efficiency_permille: u64,
    /// Per-stream fate, admission order. Shed streams keep default entries
    /// in `latencies` / `end_states` / `accepted` and are excluded from the
    /// latency summaries.
    pub outcomes: Vec<StreamOutcome>,
    /// Aggregate fault-handling activity (all zeros on a fault-free run).
    pub recovery: RecoveryReport,
    /// Batches that completed end to end (equals `batches.len()` under
    /// [`crate::ReportDetail::Full`]; under `Bounded` the per-batch records
    /// themselves are not retained and this counter is the evidence).
    pub batches_dispatched: u64,
    /// Peak admission-queue depth, tracked incrementally. Under
    /// [`crate::ReportDetail::Full`] it equals the maximum over
    /// `queue_depth`; under `Bounded` the samples are not retained and this
    /// field carries the peak alone.
    pub peak_queue: usize,
    /// Upper bound, in permille, on the relative error of the `delivery` /
    /// `kernel_latency` percentiles: 0 when both summaries were computed
    /// exactly, [`LatencySketch::ERROR_PERMILLE`] when the served-stream
    /// count exceeded [`EXACT_SUMMARY_MAX`] and a sketch was used (`max` is
    /// exact in every case).
    pub latency_error_permille: u64,
    /// The adaptive controller's auditable decision log, in dispatch order
    /// (capped at [`crate::ControllerConfig::max_decisions`]; the counters
    /// below keep counting past the cap). Empty when
    /// [`crate::ServeConfig::controller`] is `None`.
    pub decisions: Vec<DecisionRecord>,
    /// Controller decisions made (= batches whose kernels ran under the
    /// controller).
    pub decisions_made: u64,
    /// How many of those were explore turns.
    pub explore_decisions: u64,
    /// Transition-table residency-LRU activity (all zeros without
    /// [`crate::ServeConfig::residency`]).
    pub residency: ResidencyReport,
    /// Deadline-class batches that preempted a bulk kernel at a wave
    /// boundary (always 0 without [`crate::ServeConfig::preempt`]).
    pub preemptions: u64,
    /// Total cycles preemptions pushed bulk kernel completions back by —
    /// the bounded price bulk throughput pays for deadline-class latency.
    pub preempted_cycles: u64,
}

impl ServeReport {
    /// Sustained throughput in bytes per cycle of makespan.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.makespan_cycles as f64
        }
    }

    /// Streams whose results reached the host: every pulled stream that
    /// was not shed.
    pub fn served_streams(&self) -> usize {
        self.streams - self.recovery.shed_streams as usize
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} overlap={} streams={} batches={} makespan={}cy p50={} p95={} p99={} max={} \
             {:.4}B/cy transfer={}cy overlap_eff={}‰ backpressure={} shed={}",
            self.policy.map_or("", PolicyKind::name),
            self.overlap,
            self.streams,
            self.batches.len(),
            self.makespan_cycles,
            self.delivery.p50,
            self.delivery.p95,
            self.delivery.p99,
            self.delivery.max,
            self.bytes_per_cycle(),
            self.stats.profile.get(gspecpal_gpu::Phase::Transfer).cycles,
            self.overlap_efficiency_permille,
            self.backpressure_events,
            self.recovery.shed_streams,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-sort summary that selection replaced: the reference.
    fn sorted_summary(latencies: &[u64]) -> LatencySummary {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = |pct: u64| sorted[((pct * n).div_ceil(100).max(1) - 1) as usize];
        LatencySummary { p50: rank(50), p95: rank(95), p99: rank(99), max: sorted[n as usize - 1] }
    }

    proptest! {
        /// Selection on nested ranges gives exactly the sorted reference's
        /// percentiles: one value, every exact-path size up to
        /// `EXACT_SUMMARY_MAX`, and value spans from all-equal to wide.
        #[test]
        fn selected_percentiles_equal_the_sorted_reference(
            n in prop_oneof![Just(1usize), Just(EXACT_SUMMARY_MAX), 1usize..=EXACT_SUMMARY_MAX],
            span in prop_oneof![Just(1u64), 2u64..8, 8u64..u64::MAX],
            seed in 0u64..u64::MAX,
        ) {
            let mut x = seed;
            let latencies: Vec<u64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (x >> 11) % span
                })
                .collect();
            prop_assert_eq!(LatencySummary::from_latencies(&latencies), sorted_summary(&latencies));
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn percentiles_on_tiny_sets() {
        let s = LatencySummary::from_latencies(&[7]);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (7, 7, 7, 7));
        let s = LatencySummary::from_latencies(&[10, 2]);
        assert_eq!(s.p50, 2, "nearest rank: ceil(0.5·2)=1st of the sorted pair");
        assert_eq!(s.max, 10);
        assert_eq!(LatencySummary::from_latencies(&[]), LatencySummary::default());
    }

    #[test]
    fn summary_lines_do_not_panic() {
        let r = ServeReport { policy: Some(PolicyKind::Fifo), ..ServeReport::default() };
        assert!(r.summary().contains("fifo"));
        assert_eq!(r.bytes_per_cycle(), 0.0);
        assert_eq!(r.peak_queue, 0);
    }
}
