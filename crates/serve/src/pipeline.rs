//! The serving pipeline: admission, batching, transfer charging, and
//! copy/compute overlap.
//!
//! # Model
//!
//! Arrivals are admitted in trace order into a bounded queue
//! (`max_queue_depth` slots). The dispatcher repeatedly takes a batch from
//! the queue head — a contiguous same-machine run, closed by the active
//! [`BatchPolicy`] — and schedules it as three operations on the device
//! timeline:
//!
//! ```text
//!  H2D engine   ──[copy inputs k]──────[copy inputs k+1]─────────────
//!  compute      ────────────[kernel k]───────────[kernel k+1]───────
//!  D2H engine   ──────────────────────[results k]────────[results k+1]
//! ```
//!
//! With overlap enabled the three queues advance independently, so batch
//! *k+1*'s input copy rides under batch *k*'s kernel (double buffering:
//! inputs stage into one of two `device_mem_bytes / 2` buffers, so copy
//! *k+1* must also wait for kernel *k−1* to release its buffer). With
//! overlap disabled, every operation funnels through one serialized queue.
//!
//! # Backpressure
//!
//! A stream occupies a queue slot from admission until its batch's input
//! copy *starts* (the slot is the host-side staging entry; once DMA begins
//! the stream belongs to the device). When the queue is full, admission of
//! stream *n* waits for the slot of stream *n − max_queue_depth* — the wait
//! is counted per stream in
//! [`ServeReport::backpressure_events`]/[`backpressure_wait_cycles`].
//! Batches never exceed the queue depth, so slot releases are always known
//! by the time they are needed and the simulation stays a single forward
//! pass.
//!
//! # Execution modes
//!
//! Each batch runs either **stream-parallel** (one device thread per
//! stream, via [`gspecpal::throughput::run_stream_parallel`]) or
//! **chunk-parallel** (the machine's selector-chosen speculative scheme per
//! stream, back to back). The dispatcher estimates both and picks the
//! cheaper: a batch of many comparable streams saturates the device in
//! stream mode; a batch dominated by one long stream wants chunked
//! speculation.
//!
//! # Scale
//!
//! The engine behind [`serve`] is [`serve_source`]: it *pulls* arrivals
//! from a [`TraceSource`] in admission order and never materializes the
//! trace. Every piece of engine state is bounded by the queue depth and
//! the pipeline depth, not the stream count:
//!
//! * the admission window holds at most one batch plus one look-ahead
//!   arrival; a stream's bytes are dropped as soon as its batch is charged;
//! * slot releases live in a ring of the last `max_queue_depth` entries
//!   (admission of stream `k` only ever consults stream
//!   `k − max_queue_depth`);
//! * queue-depth samples fold through a small pending-event heap
//!   (`DepthTracker`) instead of a sort over every admission;
//! * overlap efficiency is computed incrementally over the retained
//!   pipeline window (`OverlapMeter`) instead of a quadratic sweep over
//!   all batch records.
//!
//! Under [`ReportDetail::Full`] (the default, and what [`serve`] uses) the
//! per-stream and per-batch vectors are still collected, and the report is
//! byte-identical to the historical one. Under [`ReportDetail::Bounded`]
//! those vectors stay empty and the report's memory is O(1) in the stream
//! count: summaries come from [`LatencySketch`]es past
//! [`crate::report::EXACT_SUMMARY_MAX`] served streams, and the queue-depth
//! peak is tracked without the samples.
//!
//! [`ServeReport::backpressure_events`]: crate::ServeReport::backpressure_events
//! [`backpressure_wait_cycles`]: crate::ServeReport::backpressure_wait_cycles

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use gspecpal::table::{DeviceTable, TableLayout};
use gspecpal::throughput::{run_stream_parallel, stream_requirements};
use gspecpal::{run_scheme, Job, SchemeConfig, SchemeKind, Selector};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::{
    backoff_cycles, fault_coord, fit_block_width, max_resident_blocks, transfer_stats, DeviceSpec,
    DeviceTimeline, FaultDomain, FaultPlan, KernelStats, Span,
};

use crate::controller::{
    BatchObservation, ControllerConfig, DecisionRecord, LaunchChoice, MachineState,
};
use crate::error::ServeError;
use crate::policy::{BatchPolicy, PriorityClass};
use crate::report::{
    BatchRecord, ExecMode, LatencySummary, ServeReport, StreamOutcome, EXACT_SUMMARY_MAX,
};
use crate::sketch::LatencySketch;
use crate::source::TraceSource;
use crate::trace::{StreamArrival, Trace};

/// One servable machine: its device-resident table, the scheme the
/// selector picked for it, and the scored candidate arms the adaptive
/// controller may re-select among.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeMachine<'a> {
    table: DeviceTable<'a>,
    scheme: SchemeKind,
    /// SFA's effective mapping width on this machine (1 for everything
    /// else's purposes; see [`ServeMachine::chunk_work_factor_for`]).
    sfa_width: u64,
    arms: Vec<LaunchChoice>,
    class: PriorityClass,
}

impl<'a> ServeMachine<'a> {
    /// Prepares `dfa` for serving on `spec`: profiles it on `training` with
    /// the Fig 6 selector to pick the execution scheme, and sizes the
    /// hot-row table for the device. `dfa` must already be
    /// frequency-permuted (see `gspecpal_fsm::TransformedDfa`) so hot rows
    /// are the low state ids. The same profile also scores the candidate
    /// launch arms the adaptive controller explores (arm 0 = the Fig 6
    /// pick, then the spec-k surface cheapest-first, then the offline
    /// pick's sequential-stitch variant).
    pub fn prepare(spec: &DeviceSpec, dfa: &'a Dfa, training: &[u8]) -> Self {
        let selector = Selector;
        let profile = selector.profile(dfa, training);
        let scheme = selector.select(&profile);
        // SFA's per-byte work is its effective mapping width, measured
        // during profiling as the surviving unique-state count.
        let sfa_width = (profile.convergence.mean_unique_states.ceil() as u64).max(1);
        let mut arms: Vec<LaunchChoice> = selector
            .score_choices(&profile)
            .into_iter()
            .map(|c| LaunchChoice {
                scheme: c.scheme,
                spec_k: c.spec_k,
                stitch: gspecpal::StitchPolicy::Tree,
                predicted_millicost: c.predicted_millicost,
            })
            .collect();
        // The stitch axis: the offline pick with the left-to-right seam
        // walk, predicted marginally worse than its tree-stitch twin.
        arms.push(LaunchChoice {
            stitch: gspecpal::StitchPolicy::Sequential,
            predicted_millicost: arms[0].predicted_millicost + 1,
            ..arms[0]
        });
        let hot = DeviceTable::hot_rows_for_device(dfa, TableLayout::Transformed, spec);
        ServeMachine {
            table: DeviceTable::transformed(dfa, hot),
            scheme,
            sfa_width,
            arms,
            class: PriorityClass::Bulk,
        }
    }

    /// The machine with its hot rows re-sized for `spec`: equal to preparing
    /// it on `spec`, without profiling again (only the hot rows depend on
    /// the device).
    pub fn on_device(&self, spec: &DeviceSpec) -> Self {
        let dfa = self.table.dfa();
        let hot = DeviceTable::hot_rows_for_device(dfa, TableLayout::Transformed, spec);
        ServeMachine { table: DeviceTable::transformed(dfa, hot), arms: self.arms.clone(), ..*self }
    }

    /// Like [`ServeMachine::prepare`] with the scheme pinned — for tests
    /// and ablations that bypass the selector. Without a profile, SFA's
    /// chunk work is estimated at the machine's full (clamped) width, and
    /// the controller sees a single arm (spec-k 0 = inherit the run's
    /// config), so adaptive runs degenerate to the pinned scheme.
    pub fn with_scheme(spec: &DeviceSpec, dfa: &'a Dfa, scheme: SchemeKind) -> Self {
        let sfa_width = u64::from(dfa.n_states()).clamp(1, 64);
        let arms = vec![LaunchChoice {
            scheme,
            spec_k: 0,
            stitch: gspecpal::StitchPolicy::Tree,
            predicted_millicost: match scheme {
                SchemeKind::Sfa => 1000 * sfa_width,
                _ => 1000,
            },
        }];
        let hot = DeviceTable::hot_rows_for_device(dfa, TableLayout::Transformed, spec);
        ServeMachine {
            table: DeviceTable::transformed(dfa, hot),
            scheme,
            sfa_width,
            arms,
            class: PriorityClass::Bulk,
        }
    }

    /// Returns the machine with its scheduling class set. Classes only
    /// matter under [`ServeConfig::preempt`]; the default is
    /// [`PriorityClass::Bulk`].
    pub fn with_class(mut self, class: PriorityClass) -> Self {
        self.class = class;
        self
    }

    /// The machine's scheduling class.
    pub fn class(&self) -> PriorityClass {
        self.class
    }

    /// Device-global bytes the machine's full transition table occupies —
    /// what a residency miss copies (see [`ResidencyConfig`]) and what
    /// fleet routers weigh when placing machines.
    pub fn table_footprint_bytes(&self) -> usize {
        self.table.global_footprint_bytes()
    }

    /// The scheme the selector chose.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The machine's candidate launch arms (arm 0 = the offline pick).
    pub fn arms(&self) -> &[LaunchChoice] {
        &self.arms
    }

    /// Estimated per-byte work multiplier of a chunk-parallel scan with the
    /// chosen scheme, relative to a one-state sequential walk. 1 for the
    /// speculative schemes; SFA pays its effective mapping width. The batch
    /// estimator scales the chunk-parallel cost estimate by this factor so
    /// a wide-mapping machine is not mis-routed away from stream-parallel
    /// execution.
    pub fn chunk_work_factor(&self) -> u64 {
        self.chunk_work_factor_for(self.scheme)
    }

    /// [`ServeMachine::chunk_work_factor`] for an arbitrary scheme — what
    /// the estimator charges when the adaptive controller overrides the
    /// static pick.
    pub fn chunk_work_factor_for(&self, scheme: SchemeKind) -> u64 {
        match scheme {
            SchemeKind::Sfa => self.sfa_width,
            _ => 1,
        }
    }

    /// The machine's device table.
    pub fn table(&self) -> &DeviceTable<'a> {
        &self.table
    }
}

/// Retry, load-shedding and circuit-breaker policy for the serving
/// pipeline.
///
/// Copy retries only ever fire under a fault plan
/// ([`gspecpal::SchemeConfig::faults`] — the same plan drives kernel-side
/// and copy-engine injection, on independently salted domains); shedding
/// and the breaker are off by default, so the default config is
/// behaviourally identical to a pipeline without any recovery machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeRecoveryConfig {
    /// Retries per host↔device copy after its first failed attempt. A batch
    /// whose copy budget runs out is abandoned and its streams shed.
    pub copy_max_retries: u32,
    /// Backoff before copy retry `a` (0-based) is `min(base << a, cap)`
    /// cycles on the engine clock.
    pub copy_backoff_base_cycles: u64,
    /// Cap on the copy retry backoff.
    pub copy_backoff_cap_cycles: u64,
    /// Shed a head-of-queue stream whose admission wait exceeded this many
    /// cycles instead of dispatching it (deadline-based load shedding).
    /// 0 disables shedding.
    pub shed_wait_cycles: u64,
    /// Consecutive failed batches that trip the circuit breaker. Once open
    /// it stays open: every remaining stream is shed as
    /// [`StreamOutcome::ShedBreakerOpen`]. 0 disables the breaker.
    pub breaker_failure_threshold: u32,
}

impl Default for ServeRecoveryConfig {
    fn default() -> Self {
        ServeRecoveryConfig {
            copy_max_retries: 2,
            copy_backoff_base_cycles: 32,
            copy_backoff_cap_cycles: 1024,
            shed_wait_cycles: 0,
            breaker_failure_threshold: 0,
        }
    }
}

/// How much per-stream and per-batch detail a serve run retains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportDetail {
    /// Keep every per-stream and per-batch vector. This is the historical
    /// behaviour and the default; memory grows with the trace.
    #[default]
    Full,
    /// Bounded memory, independent of the stream count: per-stream vectors
    /// (`latencies`, `end_states`, `accepted`, `outcomes`), batch records
    /// and queue-depth samples are all dropped. Summaries, sketches, the
    /// queue-depth peak ([`ServeReport::peak_queue`]), the kernel stats and
    /// every scalar counter are kept, and remain bit-identical to what the
    /// `Full` report would aggregate to.
    Bounded,
}

/// Configuration of the per-device transition-table residency LRU.
///
/// When set on [`ServeConfig::residency`], the engine models device
/// global memory for transition tables as an LRU of `capacity_bytes`: a
/// batch whose machine's table
/// ([`DeviceTable::global_footprint_bytes`](gspecpal::table::DeviceTable::global_footprint_bytes))
/// is not resident charges a real H2D copy of the table before its kernel
/// may start (cycles in `Phase::Transfer` — the phase partition stays
/// exact), evicting least-recently-used tables until it fits. A table
/// larger than the whole capacity is never cached: every one of its
/// batches re-uploads it. Residency copies are not subject to the fault
/// plan (only batch input/result copies are).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidencyConfig {
    /// Device global-memory budget for resident transition tables, in
    /// bytes. Must be at least 1.
    pub capacity_bytes: usize,
}

/// Result payload copied device→host per stream: its end state and accept
/// flag, in one 8-byte slot.
pub(crate) const D2H_BYTES_PER_STREAM: usize = 8;

/// Estimated fixed overhead per stream of a chunk-parallel run (predict +
/// verify ramp), used only by the execution-mode heuristic.
pub(crate) const CHUNK_OVERHEAD_CYCLES: u64 = 64;

/// Serving-pipeline configuration. The per-stream result payload (8 bytes)
/// and the chunk-parallel overhead estimate (64 cycles) are fixed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Whether copies and compute may overlap (dual copy engines + double
    /// buffering). Disabling serializes every operation — the baseline the
    /// overlap win is measured against.
    pub overlap: bool,
    /// Device memory reserved for staging batch inputs; halved into two
    /// buffers for double buffering. A batch's inputs must fit one buffer.
    pub device_mem_bytes: usize,
    /// Host-side admission queue depth; a full queue backpressures
    /// arrivals. Also the hard cap on streams per batch (a batch is drawn
    /// from the queue).
    pub max_queue_depth: usize,
    /// Base configuration for chunk-parallel runs (`n_chunks` is clamped to
    /// each stream's length).
    pub scheme_config: SchemeConfig,
    /// Retry / shedding / breaker policy (inert at its defaults).
    pub recovery: ServeRecoveryConfig,
    /// How much detail the report retains (full vectors vs bounded
    /// memory).
    pub detail: ReportDetail,
    /// Online autotuning: when set, an
    /// [`AdaptiveController`](crate::AdaptiveController) re-selects
    /// scheme, spec-k, and stitch policy per (machine, batch) from observed
    /// batch costs, starting from each machine's offline pick. `None` (the
    /// default) serves every batch with the static selector choice — the
    /// historical behaviour, byte for byte.
    pub controller: Option<ControllerConfig>,
    /// Transition-table residency modeling. `None` (the default) assumes
    /// every machine's table is permanently device-resident — the
    /// historical behaviour, byte for byte. See [`ResidencyConfig`].
    pub residency: Option<ResidencyConfig>,
    /// Preemptive deadline classes: when `true`, a batch for a
    /// [`PriorityClass::Deadline`] machine may split the in-flight bulk
    /// kernel at its next wave boundary (chunk-parallel kernels yield at
    /// stream completions, stream-parallel kernels at grid wave
    /// boundaries) instead of queueing behind it; the displaced bulk waves
    /// resume afterwards and the bulk batch's completion slides back by
    /// exactly the preemptor's duration. Requires `overlap` (a serialized
    /// device has no separate compute queue to preempt). Default `false` —
    /// the historical FIFO compute queue, byte for byte.
    pub preempt: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: BatchPolicy::Fifo { batch: 8 },
            overlap: true,
            device_mem_bytes: 1 << 20,
            max_queue_depth: 64,
            scheme_config: SchemeConfig::default(),
            recovery: ServeRecoveryConfig::default(),
            detail: ReportDetail::Full,
            controller: None,
            residency: None,
            preempt: false,
        }
    }
}

impl ServeConfig {
    /// Bytes one input staging buffer holds.
    pub fn buffer_bytes(&self) -> usize {
        self.device_mem_bytes / 2
    }

    /// Whether the run keeps per-stream and per-batch detail.
    fn full_detail(&self) -> bool {
        self.detail == ReportDetail::Full
    }

    fn validate(&self) -> Result<(), ServeError> {
        let invalid = |field, problem: String| Err(ServeError::InvalidConfig { field, problem });
        if self.buffer_bytes() == 0 {
            let got = self.device_mem_bytes;
            return invalid(
                "device_mem_bytes",
                format!("must be at least 2 (two staging buffers), got {got}"),
            );
        }
        if self.max_queue_depth == 0 {
            return invalid("max_queue_depth", "must be at least 1".into());
        }
        if self.policy.max_streams() == 0 {
            return invalid(
                "policy",
                format!("{} batch cap must be at least 1", self.policy.name()),
            );
        }
        if self.residency.is_some_and(|r| r.capacity_bytes == 0) {
            return invalid("residency", "capacity_bytes must be at least 1".into());
        }
        if self.preempt && !self.overlap {
            return invalid(
                "preempt",
                "preemption needs a separate compute queue (set overlap = true)".into(),
            );
        }
        Ok(())
    }
}

/// Checks that a run of `machines` on `spec` under `cfg` can start: the
/// device can be simulated, one block of every machine's stream scan fits
/// on it (the fallback every batch can take), and `cfg` is consistent.
pub(crate) fn validate_run(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    cfg: &ServeConfig,
) -> Result<(), ServeError> {
    spec.validate().map_err(ServeError::InvalidDevice)?;
    for (i, m) in machines.iter().enumerate() {
        let req = stream_requirements(&m.table, 1);
        if max_resident_blocks(spec, &req) == 0 {
            return Err(ServeError::InvalidConfig {
                field: "machines",
                problem: format!(
                    "machine {i}'s scan kernel does not fit the device: one thread needs {} \
                     shared bytes and {} registers",
                    req.shared_bytes, req.regs_per_thread
                ),
            });
        }
    }
    cfg.validate()
}

/// The occupancy-target batch size of [`BatchPolicy::Adaptive`]: how many
/// one-thread-per-stream scans fill the device (fitted block width ×
/// resident blocks per SM × SMs).
fn occupancy_target(spec: &DeviceSpec, table: &DeviceTable<'_>) -> usize {
    let req = |w: u32| stream_requirements(table, w);
    match fit_block_width(spec, req) {
        Ok(width) => {
            let resident = max_resident_blocks(spec, &req(width)).max(1);
            // Each factor fits in u32, so the product always fits in u128 —
            // but on a 32-bit host it can exceed usize, so widen first and
            // saturate instead of wrapping (the target is a batch-size cap;
            // saturating just means "as large a batch as the policy
            // allows").
            let target = u128::from(width) * u128::from(resident) * u128::from(spec.n_sms.max(1));
            usize::try_from(target).unwrap_or(usize::MAX)
        }
        Err(_) => 1,
    }
}

/// Result of executing one batch's kernels (before transfers).
struct BatchExec {
    stats: KernelStats,
    /// Per-stream scan-completion offset from kernel start.
    completions: Vec<u64>,
    end_states: Vec<gspecpal_fsm::StateId>,
    accepted: Vec<bool>,
    mode: ExecMode,
    /// Speculation checks performed across the batch's verifications.
    checks: u64,
    /// Checks that found a matching record (predictor hits).
    matches: u64,
}

/// Executes one batch's streams on `machine`, choosing stream- or
/// chunk-parallel execution by estimated cost. When the adaptive
/// controller hands down a `choice`, its scheme/spec-k/stitch override the
/// machine's static pick on the chunk-parallel path (stream-parallel scans
/// have no speculation to steer).
fn execute_batch(
    spec: &DeviceSpec,
    machine: &ServeMachine<'_>,
    streams: &[&[u8]],
    cfg: &ServeConfig,
    choice: Option<&LaunchChoice>,
) -> BatchExec {
    let scheme = choice.map_or(machine.scheme, |c| c.scheme);
    let nc = cfg.scheme_config.n_chunks.max(1);
    let chunk_est: u64 = streams
        .iter()
        .map(|s| {
            (s.len().div_ceil(nc)) as u64 * machine.chunk_work_factor_for(scheme)
                + CHUNK_OVERHEAD_CYCLES
        })
        .sum();
    let stream_est = streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
    if chunk_est < stream_est {
        if let Some(exec) = execute_chunk_parallel(spec, machine, streams, cfg, choice) {
            return exec;
        }
    }
    execute_stream_parallel(spec, machine, streams)
}

fn execute_stream_parallel(
    spec: &DeviceSpec,
    machine: &ServeMachine<'_>,
    streams: &[&[u8]],
) -> BatchExec {
    let out = run_stream_parallel(spec, &machine.table, streams);
    BatchExec {
        stats: out.stats,
        completions: out.stream_cycles,
        end_states: out.end_states,
        accepted: out.accepted,
        mode: ExecMode::StreamParallel,
        checks: 0,
        matches: 0,
    }
}

/// Runs each stream chunk-parallel with the machine's scheme (or the
/// controller's override), back to back on the compute queue. Returns
/// `None` if any stream's job cannot be built (the caller falls back to
/// stream-parallel execution).
fn execute_chunk_parallel(
    spec: &DeviceSpec,
    machine: &ServeMachine<'_>,
    streams: &[&[u8]],
    cfg: &ServeConfig,
    choice: Option<&LaunchChoice>,
) -> Option<BatchExec> {
    let dfa = machine.table.dfa();
    let scheme = choice.map_or(machine.scheme, |c| c.scheme);
    let mut stats = KernelStats::default();
    let mut completions = Vec::with_capacity(streams.len());
    let mut end_states = Vec::with_capacity(streams.len());
    let mut accepted = Vec::with_capacity(streams.len());
    let mut checks = 0u64;
    let mut matches = 0u64;
    let mut clock = 0u64;
    for stream in streams {
        if stream.is_empty() {
            // An empty stream ends where it starts and costs nothing.
            end_states.push(dfa.start());
            accepted.push(dfa.is_accepting(dfa.start()));
            completions.push(clock);
            continue;
        }
        let mut sc = cfg.scheme_config;
        sc.n_chunks = sc.n_chunks.min(stream.len()).max(1);
        if let Some(c) = choice {
            if c.spec_k > 0 {
                sc.spec_k = c.spec_k;
            }
            sc.stitch = c.stitch;
        }
        let job = Job::new(spec, &machine.table, stream, sc).ok()?;
        let out = run_scheme(scheme, &job);
        stats.merge_sequential(&out.predict);
        stats.merge_sequential(&out.execute);
        stats.merge_sequential(&out.verify);
        checks += out.verification_checks;
        matches += out.verification_matches;
        clock += out.total_cycles();
        completions.push(clock);
        end_states.push(out.end_state);
        accepted.push(out.accepted);
    }
    debug_assert_eq!(stats.cycles, clock, "stage merge must reproduce the batch clock");
    Some(BatchExec {
        stats,
        completions,
        end_states,
        accepted,
        mode: ExecMode::ChunkParallel,
        checks,
        matches,
    })
}

/// Which copy engine a transfer runs on.
#[derive(Clone, Copy)]
enum CopyDir {
    H2d,
    D2h,
}

/// The copy-channel fault context: the run's plan plus its retry/backoff
/// budget, bundled so the retry scheduler takes one handle.
struct CopyFaults<'a> {
    plan: &'a FaultPlan,
    rcfg: &'a ServeRecoveryConfig,
}

/// Schedules one logical copy, retrying failed attempts (per the fault
/// plan, keyed on the batch index) with capped exponential backoff. Every
/// attempt — failed or not — occupies its engine for the full transfer and
/// is charged into the collected stats, so the phase partition of
/// engine-busy cycles stays exact. Returns the successful attempt's span,
/// or `None` when the retry budget is exhausted.
fn copy_with_retries(
    timeline: &mut DeviceTimeline,
    dir: CopyDir,
    batch_idx: usize,
    mut ready: u64,
    stats: &KernelStats,
    faults: &CopyFaults<'_>,
    col: &mut Collector,
) -> Option<Span> {
    let domain = match dir {
        CopyDir::H2d => FaultDomain::H2d,
        CopyDir::D2h => FaultDomain::D2h,
    };
    let rcfg = faults.rcfg;
    for attempt in 0..=rcfg.copy_max_retries {
        let span = match dir {
            CopyDir::H2d => timeline.h2d(ready, stats.cycles),
            CopyDir::D2h => timeline.d2h(ready, stats.cycles),
        };
        col.report.stats.merge_sequential(stats);
        if !faults.plan.copy_fails(domain, fault_coord(batch_idx), attempt) {
            return Some(span);
        }
        col.report.recovery.fault_cycles += span.duration();
        if attempt < rcfg.copy_max_retries {
            col.report.recovery.copy_retries += 1;
            let wait = backoff_cycles(
                rcfg.copy_backoff_base_cycles,
                rcfg.copy_backoff_cap_cycles,
                attempt,
            );
            col.report.recovery.fault_cycles += wait;
            ready = span.end.saturating_add(wait);
        }
    }
    None
}

/// The source cursor: streams pulled so far and the last arrival cycle,
/// which [`PullCursor::pull`] checks machine bounds, staging-buffer fit,
/// and arrival-cycle monotonicity against, lazily as the stream is
/// consumed.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct PullCursor {
    /// Streams pulled so far — the admission index of the *next* pull.
    pub(crate) pulled: usize,
    pub(crate) last_cycle: u64,
}

impl PullCursor {
    fn pull(
        &mut self,
        source: &mut impl TraceSource,
        n_machines: usize,
        cfg: &ServeConfig,
        col: &mut Collector,
    ) -> Result<Option<StreamArrival>, ServeError> {
        let Some(a) = source.next_arrival() else { return Ok(None) };
        if a.machine >= n_machines {
            return Err(ServeError::UnknownMachine {
                stream: self.pulled,
                machine: a.machine,
                n_machines,
            });
        }
        let buffer_bytes = cfg.buffer_bytes();
        if a.bytes.len() > buffer_bytes {
            return Err(ServeError::StreamTooLarge {
                stream: self.pulled,
                bytes: a.bytes.len(),
                buffer_bytes,
            });
        }
        if a.arrival_cycle < self.last_cycle {
            return Err(ServeError::NonMonotonicTrace {
                stream: self.pulled,
                cycle: a.arrival_cycle,
                prev: self.last_cycle,
            });
        }
        self.last_cycle = a.arrival_cycle;
        self.pulled += 1;
        col.on_pull(&a);
        Ok(Some(a))
    }

    /// Tops the admission window up to `n` arrivals; `false` when the
    /// source ran dry first.
    fn fill(
        &mut self,
        source: &mut impl TraceSource,
        n_machines: usize,
        cfg: &ServeConfig,
        window: &mut VecDeque<StreamArrival>,
        col: &mut Collector,
        n: usize,
    ) -> Result<bool, ServeError> {
        while window.len() < n {
            match self.pull(source, n_machines, cfg, col)? {
                Some(a) => window.push_back(a),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
}

/// The last `depth` (= `max_queue_depth`) slot-release cycles, by
/// admission index. Admission of stream `k` waits on the release of stream
/// `k − depth`, and batches never exceed the queue depth, so this window
/// always covers every release the forward pass can still ask for.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ReleaseRing {
    /// Total releases pushed (one per stream whose fate is sealed).
    pub(crate) released: usize,
    /// The retained release cycles, oldest first.
    pub(crate) recent: VecDeque<u64>,
    /// `recent`'s suffix minima, oldest first (the front is the floor).
    /// Derived from `recent` and rebuilt on decode; never persisted.
    mins: VecDeque<u64>,
}

impl ReleaseRing {
    /// A ring of `released` releases retaining `recent`.
    pub(crate) fn new(released: usize, recent: VecDeque<u64>) -> Self {
        let mut ring = ReleaseRing::default();
        recent.into_iter().for_each(|t| ring.push(t, usize::MAX));
        ReleaseRing { released, ..ring }
    }

    fn push(&mut self, t: u64, depth: usize) {
        self.recent.push_back(t);
        self.released += 1;
        while self.mins.back().is_some_and(|&m| m > t) {
            self.mins.pop_back();
        }
        self.mins.push_back(t);
        if self.recent.len() > depth {
            let oldest = self.recent.pop_front();
            if self.mins.front() == oldest.as_ref() {
                self.mins.pop_front();
            }
        }
    }

    /// Release cycle of stream `k` (admission index); `k` must be within
    /// the retained window.
    fn get(&self, k: usize) -> u64 {
        let first_retained = self.released - self.recent.len();
        self.recent[k - first_retained]
    }

    /// The floor of the current release window: every future admission is
    /// `max(arrival, release(k − depth))`, and that release is either still
    /// in this window or newer (hence ≥ its own admission, ≥ this floor by
    /// induction) — so the window minimum lower-bounds every future
    /// admission once the window is full. `None` while fewer than `depth`
    /// streams have released (earlier admissions are unfloored, so only
    /// arrival monotonicity bounds the future).
    fn floor(&self, depth: usize) -> Option<u64> {
        if self.released >= depth {
            self.mins.front().copied()
        } else {
            None
        }
    }
}

/// Incremental queue-depth sampling: +1 at each admission, −1 when the
/// stream's slot releases, one `(cycle, depth)` sample per distinct event
/// cycle — the streaming replacement for sorting every event at the end of
/// the run.
///
/// # Tie-break
///
/// At equal cycles, releases apply *before* admissions: a slot freed at
/// cycle `t` is available to the stream admitted at `t` (that admission
/// was, after all, computed as `max(arrival, release)`). This order makes
/// the sampled depth provably ≤ `max_queue_depth`: after all events at any
/// cycle `t`, every stream admitted at or before `t` beyond the first
/// `depth` has seen its predecessor's slot release (`release(k − depth) ≤
/// admit(k) ≤ t`), so at most `depth` streams are ever in flight. Within a
/// cycle the running count may transiently dip negative (a release whose
/// admission is later in the same group), which is why the invariants are
/// asserted at group boundaries, not per event. Samples are unchanged by
/// the intra-cycle order — only the boundary values are emitted.
///
/// # Memory
///
/// Events are folded out of the pending heap as soon as they are final.
/// Finality is subtle because admissions are *not* monotone: a batch
/// abandoned on a failed input copy releases its slots at the requested
/// copy cycle, which can precede an earlier batch's post-queueing release
/// and drag later admissions backwards. Each `record` therefore carries an
/// explicit `bound` the caller proves no future event can undercut —
/// `arrival.max(release-window floor)` (see [`ReleaseRing::floor`]):
/// arrivals are monotone, and every future admission is floored by a
/// release still in (or newer than) the current window. Everything
/// strictly below the bound is sampled immediately, so the heap only holds
/// events near the admission frontier — O(queue depth + batch size), not
/// O(streams).
///
/// Samples are kept only when `keep` is passed (full report detail); the
/// peak is tracked either way.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct DepthTracker {
    pub(crate) pending: DepthEvents,
    /// Running queue depth at the sampling frontier.
    pub(crate) depth: i64,
    /// Cycle of the currently open (not yet sampled) event group.
    pub(crate) group: Option<u64>,
    pub(crate) samples: Vec<(u64, usize)>,
    pub(crate) peak: usize,
    /// Whether any breaker-shed stream contributed an `(admit, release)` =
    /// `(0, 0)` pair. Net-zero, so it is tracked as a flag and folded in at
    /// the end instead of being enqueued (by then the cycle-0 group may
    /// already be closed).
    pub(crate) zero_pairs: bool,
}

/// The depth tracker's pending events: a min-heap of `(cycle, kind)` with
/// kind −1 = release, +1 = admission, so releases pop first at equal
/// cycles. The heap's layout depends on insertion history; its multiset is
/// the state, so equality and the checkpoint encoding see the events
/// sorted, and a heap rebuilt from any permutation of them drains
/// identically (equal keys are indistinguishable).
#[derive(Clone, Debug, Default)]
pub(crate) struct DepthEvents(pub(crate) BinaryHeap<Reverse<(u64, i8)>>);

impl DepthEvents {
    /// The events in ascending order — the canonical form.
    pub(crate) fn sorted(&self) -> Vec<(u64, i8)> {
        let mut events: Vec<(u64, i8)> = self.0.iter().map(|r| r.0).collect();
        events.sort_unstable();
        events
    }
}

impl PartialEq for DepthEvents {
    fn eq(&self, other: &Self) -> bool {
        self.sorted() == other.sorted()
    }
}

impl DepthTracker {
    /// Records one stream's admission and slot-release cycles, then folds
    /// out everything pending at or below `bound`. Must be called in
    /// admission order; `release ≥ admit ≥ bound`, and the caller
    /// guarantees every future event is ≥ `bound` (see the type docs).
    fn record(&mut self, admit: u64, release: u64, bound: u64, keep: bool) {
        debug_assert!(release >= admit, "a slot cannot release before its stream admits");
        debug_assert!(admit >= bound, "recording an event below the finality bound");
        self.pending.0.push(Reverse((admit, 1)));
        self.pending.0.push(Reverse((release, -1)));
        self.drain(bound, keep);
    }

    /// A breaker-shed stream: admit = release = 0, net-zero depth.
    fn zero_pair(&mut self) {
        self.zero_pairs = true;
    }

    /// Applies every pending event at or below `bound` (all such events are
    /// final — see the type docs). Events *at* the bound leave their group
    /// open, since future events may still share the cycle.
    fn drain(&mut self, bound: u64, keep: bool) {
        while let Some(&Reverse((t, kind))) = self.pending.0.peek() {
            if t > bound {
                break;
            }
            self.pending.0.pop();
            if self.group != Some(t) {
                self.close_group(keep);
                self.group = Some(t);
            }
            self.depth += i64::from(kind);
        }
    }

    fn close_group(&mut self, keep: bool) {
        let Some(t) = self.group.take() else { return };
        debug_assert!(self.depth >= 0, "net queue depth at a cycle boundary is never negative");
        let d = self.depth.max(0) as usize;
        self.peak = self.peak.max(d);
        if keep {
            self.samples.push((t, d));
        }
    }

    /// Flushes everything and returns `(samples, peak)`.
    fn finish(mut self, keep: bool) -> (Vec<(u64, usize)>, usize) {
        self.drain(u64::MAX, keep);
        self.close_group(keep);
        if self.zero_pairs && keep && self.samples.first().is_none_or(|&(t, _)| t != 0) {
            // The breaker pairs all sit at cycle 0; if no real event shares
            // that cycle they form their own net-zero sample at the front.
            self.samples.insert(0, (0, 0));
        }
        (self.samples, self.peak)
    }
}

/// Incremental copy/compute overlap accounting — the streaming replacement
/// for the quadratic every-copy × every-compute sweep, exact because the
/// three device queues are each serial:
///
/// * a compute can be retired once `min(h2d.end, d2h.end)` of the newest
///   batch has passed its end — no future copy starts earlier than either
///   engine's last end, so the overlap it could add is zero;
/// * a copy that ends by its batch's compute end can never reach a future
///   compute (computes are serial, so the next one starts later still);
///   copies that outlive their compute stay pending and collect overlap
///   against each new compute as it registers.
///
/// Only successful batches register, matching the historical metric. The
/// retained windows are O(pipeline depth), not O(batches).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct OverlapMeter {
    pub(crate) computes: VecDeque<Span>,
    /// Copies still pending against future computes.
    pub(crate) pending_copies: VecDeque<Span>,
    pub(crate) copy_busy: u64,
    /// Copy cycles hidden under kernels so far.
    pub(crate) hidden: u64,
}

impl OverlapMeter {
    fn record(&mut self, h2d: Span, compute: Span, d2h: Span) {
        // Credit copies from earlier batches that ride under this kernel,
        // then retire the ones that can no longer reach a future kernel.
        self.hidden += self.pending_copies.iter().map(|c| c.overlap(&compute)).sum::<u64>();
        while self.pending_copies.front().is_some_and(|c| c.end <= compute.end) {
            self.pending_copies.pop_front();
        }
        self.computes.push_back(compute);
        for copy in [h2d, d2h] {
            self.copy_busy += copy.duration();
            self.hidden += self.computes.iter().map(|k| copy.overlap(k)).sum::<u64>();
            if copy.end > compute.end {
                self.pending_copies.push_back(copy);
            }
        }
        let copy_low = h2d.end.min(d2h.end);
        while self.computes.front().is_some_and(|k| k.end <= copy_low) {
            self.computes.pop_front();
        }
    }

    /// Share of copy-engine busy cycles spent under an active kernel, in
    /// permille.
    fn efficiency_permille(&self) -> u64 {
        (self.hidden * 1000).checked_div(self.copy_busy).unwrap_or(0)
    }
}

/// Streams served latencies into either an exact vector or, past
/// [`EXACT_SUMMARY_MAX`] when `spill` is passed (bounded detail), a
/// [`LatencySketch`]. The spill is invisible in the result:
/// [`LatencySummary::from_latencies`] routes large exact sets through the
/// identical sketch, and sketch contents are insertion-order independent.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct LatencyAcc {
    pub(crate) exact: Vec<u64>,
    /// The sketch, once spilled.
    pub(crate) sketch: Option<LatencySketch>,
}

impl LatencyAcc {
    fn push(&mut self, v: u64, spill: bool) {
        if let Some(s) = &mut self.sketch {
            s.record(v);
            return;
        }
        self.exact.push(v);
        if spill && self.exact.len() > EXACT_SUMMARY_MAX {
            let mut s = LatencySketch::new();
            for &x in &self.exact {
                s.record(x);
            }
            self.exact = Vec::new();
            self.sketch = Some(s);
        }
    }

    /// The summary plus whether a sketch (and thus its error bound) was
    /// involved.
    fn summarize(&self) -> (LatencySummary, bool) {
        match &self.sketch {
            Some(s) => (LatencySummary::from_sketch(s), true),
            None => {
                (LatencySummary::from_latencies(&self.exact), self.exact.len() > EXACT_SUMMARY_MAX)
            }
        }
    }
}

/// Accumulates the report as stream fates are decided, in admission order.
/// Under [`ReportDetail::Full`] (`full`) the per-stream vectors fill
/// exactly as the historical batch-indexed writes did; under
/// [`ReportDetail::Bounded`] they stay empty and only counters, summaries
/// and sketches grow.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Collector {
    /// The report so far (finalization fields still default).
    pub(crate) report: ServeReport,
    pub(crate) delivery: LatencyAcc,
    pub(crate) kernel: LatencyAcc,
}

impl Collector {
    fn new(cfg: &ServeConfig) -> Self {
        Collector {
            report: ServeReport {
                policy: Some(cfg.policy.kind()),
                overlap: cfg.overlap,
                ..ServeReport::default()
            },
            delivery: LatencyAcc::default(),
            kernel: LatencyAcc::default(),
        }
    }

    fn on_pull(&mut self, a: &StreamArrival) {
        self.report.streams += 1;
        self.report.total_bytes += a.bytes.len();
    }

    fn served(
        &mut self,
        full: bool,
        latency: u64,
        kernel_latency: u64,
        end_state: gspecpal_fsm::StateId,
        accepted: bool,
    ) {
        if full {
            self.report.latencies.push(latency);
            self.report.end_states.push(end_state);
            self.report.accepted.push(accepted);
            self.report.outcomes.push(StreamOutcome::Served);
        }
        self.delivery.push(latency, !full);
        self.kernel.push(kernel_latency, !full);
    }

    fn shed(&mut self, full: bool, outcome: StreamOutcome) {
        if full {
            self.report.latencies.push(0);
            self.report.end_states.push(0);
            self.report.accepted.push(false);
            self.report.outcomes.push(outcome);
        }
        self.report.recovery.shed_streams += 1;
    }
}

/// The outcome of one table-residency lookup.
enum TableTouch {
    /// The table is resident; nothing to charge.
    Hit,
    /// The table must be uploaded (`copy_bytes` over the H2D engine) after
    /// evicting `evictions` colder tables.
    Miss { copy_bytes: usize, evictions: u64 },
}

/// Looks machine `m`'s table up in the residency LRU (see
/// [`ResidencyConfig`]): `order` holds the resident machine ids, least
/// recently used first, byte-accounted with each machine's global table
/// footprint against `capacity`.
fn touch_table(
    order: &mut VecDeque<usize>,
    m: usize,
    capacity: usize,
    machines: &[ServeMachine<'_>],
) -> TableTouch {
    if let Some(pos) = order.iter().position(|&x| x == m) {
        order.remove(pos);
        order.push_back(m);
        return TableTouch::Hit;
    }
    let bytes = |m: usize| machines[m].table_footprint_bytes();
    let b = bytes(m);
    if b > capacity {
        // Never cacheable: every batch re-uploads, nothing is evicted for
        // it.
        return TableTouch::Miss { copy_bytes: b, evictions: 0 };
    }
    let mut used: usize = order.iter().map(|&x| bytes(x)).sum();
    let mut evictions = 0;
    while used + b > capacity {
        let lru = order.pop_front().expect("over-budget LRU must hold a table");
        used -= bytes(lru);
        evictions += 1;
    }
    order.push_back(m);
    TableTouch::Miss { copy_bytes: b, evictions }
}

/// Whether `order` is a resident set [`touch_table`] could have built:
/// known machines, none twice, within the byte budget.
fn valid_resident_set(
    order: &VecDeque<usize>,
    capacity: usize,
    machines: &[ServeMachine<'_>],
) -> bool {
    let mut resident = vec![false; machines.len()];
    let mut used = 0usize;
    for &m in order {
        if m >= resident.len() || std::mem::replace(&mut resident[m], true) {
            return false;
        }
        used += machines[m].table_footprint_bytes();
    }
    used <= capacity
}

/// Manual compute-queue cursor for preempt mode. Like
/// [`gspecpal_gpu::Engine`], but owned by the serve layer so an *open*
/// bulk kernel's end can still be stretched when a deadline kernel splits
/// it — a hardware engine's schedule is append-only.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ComputeCursor {
    /// The next-free cycle.
    pub(crate) free: u64,
    pub(crate) horizon: u64,
}

impl ComputeCursor {
    fn schedule(&mut self, ready: u64, duration: u64) -> Span {
        let start = ready.max(self.free);
        let span = Span { start, end: start + duration };
        self.free = span.end;
        self.horizon = self.horizon.max(span.end);
        span
    }
}

/// A dispatched batch whose result copy and stream fates are deferred: in
/// preempt mode the latest bulk kernel stays "open" — preemptible — until
/// another bulk kernel queues behind it (or the run ends), because only
/// the tail of the compute queue can still be split without rewriting
/// already-scheduled work.
struct PendingClose {
    batch_idx: usize,
    first_stream: usize,
    machine_id: usize,
    scheme: SchemeKind,
    mode: ExecMode,
    count: usize,
    bytes: usize,
    h2d: Span,
    compute: Span,
    /// Remaining preemption points inside `compute`, absolute cycles,
    /// ascending.
    points: Vec<u64>,
    completions: Vec<u64>,
    end_states: Vec<gspecpal_fsm::StateId>,
    accepted: Vec<bool>,
    d2h_stats: KernelStats,
    arrival_cycles: Vec<u64>,
}

/// One deferred report-side effect of closing a batch. Ops replay in
/// admission order through [`Sink`] so per-stream vectors stay
/// admission-indexed even when preemption closes batches out of dispatch
/// order.
enum SinkOp {
    Served { latency: u64, kernel_latency: u64, end_state: gspecpal_fsm::StateId, accepted: bool },
    Shed(StreamOutcome),
    Dispatched,
    Meter { h2d: Span, compute: Span, d2h: Span },
    Batch(Box<BatchRecord>),
}

/// Write-through by default; buffering while a bulk kernel is open so the
/// fates of batches that close under it (deadline preemptors, sheds) are
/// replayed *after* the open batch's own — i.e. back in admission order.
/// In non-preempt mode `buffering` is never set and every op applies
/// immediately, which keeps the historical path byte-identical.
struct Sink {
    /// Whether stream fates keep per-stream detail: the run's
    /// [`ReportDetail::Full`], carried here because every fate lands
    /// through the sink.
    full: bool,
    buffering: bool,
    buf: Vec<SinkOp>,
}

impl Sink {
    fn push(&mut self, op: SinkOp, col: &mut Collector, meter: &mut OverlapMeter) {
        if self.buffering {
            self.buf.push(op);
        } else {
            Sink::apply(self.full, op, col, meter);
        }
    }

    fn flush(&mut self, col: &mut Collector, meter: &mut OverlapMeter) {
        self.buffering = false;
        for op in std::mem::take(&mut self.buf) {
            Sink::apply(self.full, op, col, meter);
        }
    }

    fn apply(full: bool, op: SinkOp, col: &mut Collector, meter: &mut OverlapMeter) {
        match op {
            SinkOp::Served { latency, kernel_latency, end_state, accepted } => {
                col.served(full, latency, kernel_latency, end_state, accepted);
            }
            SinkOp::Shed(outcome) => col.shed(full, outcome),
            SinkOp::Dispatched => col.report.batches_dispatched += 1,
            SinkOp::Meter { h2d, compute, d2h } => meter.record(h2d, compute, d2h),
            SinkOp::Batch(record) => col.report.batches.push(*record),
        }
    }
}

/// Absolute-cycle wave boundaries inside a freshly scheduled kernel —
/// where a deadline-class kernel may cut in. Chunk-parallel batches yield
/// between streams (their natural kernel boundaries); stream-parallel
/// batches yield at the grid's wave boundaries (equal quanta of the
/// merged span, one per occupancy wave).
fn preempt_points(exec: &BatchExec, compute: Span) -> Vec<u64> {
    let dur = compute.duration();
    if dur == 0 {
        return Vec::new();
    }
    match exec.mode {
        ExecMode::ChunkParallel => exec
            .completions
            .iter()
            .copied()
            .filter(|&c| c > 0 && c < dur)
            .map(|c| compute.start + c)
            .collect(),
        ExecMode::StreamParallel => {
            let waves = u64::from(exec.stats.shape.as_ref().map_or(1, |s| s.waves.max(1)));
            let quantum = dur / waves;
            if waves < 2 || quantum == 0 {
                return Vec::new();
            }
            (1..waves).map(|i| compute.start + i * quantum).collect()
        }
    }
}

/// Schedules a deadline-class kernel in preempt mode: split the open bulk
/// kernel at its first remaining wave boundary at or after `ready` if
/// there is one, else queue behind the compute cursor as usual. Splitting
/// slides the bulk kernel's remaining waves (and their completions, and
/// its buffer release) back by the preemptor's duration.
#[allow(clippy::too_many_arguments)]
fn preempt_or_queue(
    open: &mut Option<PendingClose>,
    cq: &mut ComputeCursor,
    buffer_free: &mut [u64; 2],
    ready: u64,
    duration: u64,
    col: &mut Collector,
) -> Span {
    if duration > 0 {
        if let Some(ob) = open.as_mut() {
            if let Some(pos) = ob.points.iter().position(|&p| p >= ready) {
                let boundary = ob.points[pos];
                let span = Span { start: boundary, end: boundary + duration };
                ob.points.drain(..=pos);
                for p in &mut ob.points {
                    *p += duration;
                }
                for c in &mut ob.completions {
                    if ob.compute.start + *c > boundary {
                        *c += duration;
                    }
                }
                ob.compute.end += duration;
                let slot = &mut buffer_free[ob.batch_idx % 2];
                *slot = (*slot).max(ob.compute.end);
                cq.free = cq.free.max(ob.compute.end);
                cq.horizon = cq.horizon.max(ob.compute.end);
                col.report.preemptions += 1;
                col.report.preempted_cycles += duration;
                return span;
            }
        }
    }
    cq.schedule(ready, duration)
}

/// Schedules a batch's result copy and seals its stream fates — the tail
/// of the dispatch sequence, shared by the immediate (historical) path and
/// the deferred-close path of preempt mode. Returns whether the batch
/// failed (result copy retry budget exhausted).
fn close_pending(
    pc: PendingClose,
    timeline: &mut DeviceTimeline,
    faults: &CopyFaults<'_>,
    col: &mut Collector,
    meter: &mut OverlapMeter,
    sink: &mut Sink,
) -> bool {
    match copy_with_retries(
        timeline,
        CopyDir::D2h,
        pc.batch_idx,
        pc.compute.end,
        &pc.d2h_stats,
        faults,
        col,
    ) {
        None => {
            // The kernel ran but its results never reached the host: the
            // streams are shed with default entries.
            for _ in 0..pc.count {
                sink.push(SinkOp::Shed(StreamOutcome::ShedCopyFailure), col, meter);
            }
            true
        }
        Some(d2h) => {
            for i in 0..pc.count {
                let latency = d2h.end - pc.arrival_cycles[i];
                let kernel_latency = pc.compute.start + pc.completions[i] - pc.arrival_cycles[i];
                sink.push(
                    SinkOp::Served {
                        latency,
                        kernel_latency,
                        end_state: pc.end_states[i],
                        accepted: pc.accepted[i],
                    },
                    col,
                    meter,
                );
            }
            sink.push(SinkOp::Dispatched, col, meter);
            sink.push(SinkOp::Meter { h2d: pc.h2d, compute: pc.compute, d2h }, col, meter);
            if sink.full {
                sink.push(
                    SinkOp::Batch(Box::new(BatchRecord {
                        first_stream: pc.first_stream,
                        streams: pc.count,
                        machine: pc.machine_id,
                        scheme: pc.scheme,
                        mode: pc.mode,
                        bytes: pc.bytes,
                        h2d: pc.h2d,
                        compute: pc.compute,
                        d2h,
                    })),
                    col,
                    meter,
                );
            }
            false
        }
    }
}

/// Serves `trace` on `machines` under `cfg`, returning the full
/// [`ServeReport`]: [`serve_source`] replaying the trace in admission
/// order. Fails when the configuration is inconsistent, an arrival names an
/// unknown machine, or a stream cannot fit one staging buffer.
pub fn serve(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    trace: &Trace,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    serve_source(spec, machines, trace.source(), cfg)
}

/// Serves arrivals pulled from `source` — the streaming entry point: a
/// [`ServeRun`] stepped until the source runs dry.
///
/// Unlike [`serve`], the trace is never materialized: resident memory is
/// bounded by the admission queue and pipeline depth (plus, under
/// [`ReportDetail::Full`], the report's own per-stream vectors — pass
/// [`ReportDetail::Bounded`] to bound those too). Validation (machine
/// bounds, staging-buffer fit, arrival monotonicity) happens lazily as
/// arrivals are pulled, so an invalid arrival deep in a stream fails the
/// run only when reached.
pub fn serve_source<S: TraceSource>(
    spec: &DeviceSpec,
    machines: &[ServeMachine<'_>],
    source: S,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    let mut run = ServeRun::new(spec, machines, source, cfg)?;
    while run.step()? {}
    Ok(run.finish())
}

/// Frees a batch's queue slots at cycle `release`, recording each stream's
/// stay (depth tracker) and admission wait (backpressure counters).
fn release_slots(
    cfg: &ServeConfig,
    ring: &mut ReleaseRing,
    depths: &mut DepthTracker,
    col: &mut Collector,
    release: u64,
    admits: &[u64],
    arrivals: &[StreamArrival],
) {
    let depth = cfg.max_queue_depth;
    let floor = ring.floor(depth).unwrap_or(0);
    for (&admit, a) in admits.iter().zip(arrivals) {
        ring.push(release, depth);
        depths.record(admit, release, a.arrival_cycle.max(floor), cfg.full_detail());
        let wait = admit - a.arrival_cycle;
        if wait > 0 {
            col.report.backpressure_events += 1;
            col.report.backpressure_wait_cycles += wait;
        }
    }
    debug_assert!(depths.peak <= depth, "sampled queue depth exceeds max_queue_depth");
}

/// Admission cycle of stream `k`: its arrival, floored by the release of
/// the stream whose queue slot it reuses (`k − depth`).
fn admit_at(depth: usize, ring: &ReleaseRing, arrival: u64, k: usize) -> u64 {
    if k >= depth {
        arrival.max(ring.get(k - depth))
    } else {
        arrival
    }
}

/// The engine's entire mutable state between batches — what an
/// [`crate::checkpoint::EngineCheckpoint`] holds, field for field in wire
/// order. Everything configuration-derived (queue depth, report detail,
/// fault plan, controller arms, table footprints) is read from the
/// `ServeConfig` and machine list instead, which the checkpoint layer
/// fingerprints.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EngineState {
    /// The source cursor (the resume point's skip count and the
    /// monotonicity check).
    pub(crate) cursor: PullCursor,
    /// Admission index of the window head.
    pub(crate) next: usize,
    /// Batches formed so far (including abandoned ones).
    pub(crate) batch_idx: usize,
    /// Consecutive failed batches toward the circuit breaker.
    pub(crate) breaker_consecutive: u32,
    /// When each double buffer frees for its next input copy.
    pub(crate) buffer_free: [u64; 2],
    /// The preempt-mode compute cursor.
    pub(crate) cq: ComputeCursor,
    /// The device timeline's queue frontiers `[h2d, compute, d2h]`.
    pub(crate) frontiers: [u64; 3],
    /// Pulled-but-undispatched arrivals: at most one batch plus one
    /// look-ahead stream.
    pub(crate) window: VecDeque<StreamArrival>,
    pub(crate) ring: ReleaseRing,
    pub(crate) depths: DepthTracker,
    pub(crate) meter: OverlapMeter,
    /// The table LRU's resident machine ids, least recently used first
    /// (`None` when residency modeling is off).
    pub(crate) residency: Option<VecDeque<usize>>,
    /// The adaptive controller's per-machine state (`None` without one).
    pub(crate) controller: Option<Vec<MachineState>>,
    pub(crate) col: Collector,
}

impl EngineState {
    /// The state of a fresh run at cycle 0.
    fn new(machines: &[ServeMachine<'_>], cfg: &ServeConfig) -> Self {
        EngineState {
            cursor: PullCursor::default(),
            next: 0,
            batch_idx: 0,
            breaker_consecutive: 0,
            buffer_free: [0; 2],
            cq: ComputeCursor::default(),
            frontiers: [0; 3],
            window: VecDeque::new(),
            ring: ReleaseRing::default(),
            depths: DepthTracker::default(),
            meter: OverlapMeter::default(),
            residency: cfg.residency.map(|_| VecDeque::new()),
            controller: cfg
                .controller
                .as_ref()
                .map(|_| machines.iter().map(|m| MachineState::new(m.arms.len())).collect()),
            col: Collector::new(cfg),
        }
    }
}

/// A serve run in progress, stepped one batch at a time — the one engine
/// behind [`serve`], [`serve_source`], the checkpoint entry points, and
/// the fleet demux in `gspecpal-cluster`, which interleaves several runs on
/// one thread. Between steps a quiescent run's whole state can be captured
/// and restored ([`crate::EngineCheckpoint`]), so resuming is the
/// production engine handed its own state back, not a parallel
/// implementation.
pub struct ServeRun<'e, 'm, S> {
    spec: &'e DeviceSpec,
    machines: &'e [ServeMachine<'m>],
    cfg: &'e ServeConfig,
    source: S,
    // Per-step scratch: all of it is empty at a quiescent boundary (see
    // `quiescent`), so none of it is persisted. Only in preempt mode does
    // an open bulk batch, with its buffered report effects, outlive a step.
    sink: Sink,
    open: Option<PendingClose>,
    fails: Vec<bool>,
    /// The drained arrivals of the batch being formed, and their admission
    /// cycles.
    batch_arrivals: Vec<StreamArrival>,
    batch_admits: Vec<u64>,
    state: EngineState,
}

impl<'e, 'm, S: TraceSource> ServeRun<'e, 'm, S> {
    /// A fresh run at cycle 0, about to pull the first arrival. Fails when
    /// `spec` cannot be simulated, a machine's scan does not fit it, or
    /// `cfg` is inconsistent; arrivals are validated as they are pulled.
    pub fn new(
        spec: &'e DeviceSpec,
        machines: &'e [ServeMachine<'m>],
        source: S,
        cfg: &'e ServeConfig,
    ) -> Result<Self, ServeError> {
        validate_run(spec, machines, cfg)?;
        Ok(ServeRun::with_state(spec, machines, source, cfg, EngineState::new(machines, cfg)))
    }

    /// A run that continues from `state`, with empty per-step scratch.
    fn with_state(
        spec: &'e DeviceSpec,
        machines: &'e [ServeMachine<'m>],
        source: S,
        cfg: &'e ServeConfig,
        state: EngineState,
    ) -> Self {
        ServeRun {
            spec,
            machines,
            cfg,
            source,
            sink: Sink { full: cfg.full_detail(), buffering: false, buf: Vec::new() },
            open: None,
            fails: Vec::new(),
            batch_arrivals: Vec::new(),
            batch_admits: Vec::new(),
            state,
        }
    }

    /// Whether the engine sits at a checkpointable boundary: no open
    /// (still-preemptible) bulk kernel, no buffered report effects, and no
    /// batch failures awaiting the breaker fold. Always true between steps
    /// outside preempt mode; under [`ServeConfig::preempt`] a bulk kernel
    /// stays open across steps, so the engine may never quiesce before the
    /// trace runs dry.
    pub(crate) fn quiescent(&self) -> bool {
        self.open.is_none()
            && !self.sink.buffering
            && self.sink.buf.is_empty()
            && self.fails.is_empty()
    }

    /// The pipeline horizon so far: the latest cycle any device queue (or
    /// the preempt-mode compute cursor) is busy until.
    pub(crate) fn horizon(&self) -> u64 {
        self.state.frontiers.into_iter().max().unwrap_or(0).max(self.state.cq.horizon)
    }

    /// Batches formed so far, including abandoned ones.
    pub(crate) fn batches_formed(&self) -> usize {
        self.state.batch_idx
    }

    /// Forms and dispatches one batch (or sheds the head-of-queue stream,
    /// or trips the breaker and drains the trace). Returns `Ok(false)` when
    /// the run is over — source dry or breaker open — after which
    /// [`ServeRun::finish`] seals the report. Stepping until `Ok(false)`
    /// is the uninterrupted run, byte for byte, however the steps are
    /// interleaved with other work.
    pub fn step(&mut self) -> Result<bool, ServeError> {
        let mut timeline = DeviceTimeline::from_frontiers(self.cfg.overlap, self.state.frontiers);
        let more = self.dispatch(&mut timeline);
        self.state.frontiers = timeline.queue_frontiers();
        more
    }

    /// [`ServeRun::step`] on the device timeline rebuilt from the state's
    /// frontiers.
    fn dispatch(&mut self, timeline: &mut DeviceTimeline) -> Result<bool, ServeError> {
        let (spec, machines, cfg) = (self.spec, self.machines, self.cfg);
        let ServeRun { source, sink, open, fails, batch_arrivals, batch_admits, state, .. } = self;
        let EngineState {
            cursor,
            next,
            batch_idx,
            breaker_consecutive,
            buffer_free,
            cq,
            window,
            ring,
            depths,
            meter,
            residency,
            controller,
            col,
            ..
        } = state;
        let depth = cfg.max_queue_depth;
        let buffer_bytes = cfg.buffer_bytes();
        let n_machines = machines.len();
        // One fault plan drives both kernel-side and copy-engine injection;
        // the zero plan never fails a copy, so the retry loops are exact
        // no-ops without one.
        let plan = cfg.scheme_config.faults.unwrap_or_default();
        let rcfg = &cfg.recovery;
        let copy_faults = CopyFaults { plan: &plan, rcfg };

        if !cursor.fill(source, n_machines, cfg, window, col, 1)? {
            return Ok(false);
        }
        let head_arrival = window[0].arrival_cycle;
        let first_admit = admit_at(depth, ring, head_arrival, *next);
        // Load shedding: a head-of-queue stream that already waited past
        // the shedding deadline is dropped instead of dispatched — a
        // structured outcome, not an error.
        if rcfg.shed_wait_cycles > 0 {
            let wait = first_admit - head_arrival;
            if wait > rcfg.shed_wait_cycles {
                let head = std::slice::from_ref(&window[0]);
                release_slots(cfg, ring, depths, col, first_admit, &[first_admit], head);
                sink.push(SinkOp::Shed(StreamOutcome::ShedDeadline), col, meter);
                window.pop_front();
                *next += 1;
                return Ok(true);
            }
        }
        let machine_id = window[0].machine;
        let machine = &machines[machine_id];
        // Candidate cap: the policy's target, never beyond the queue depth
        // (a batch is drawn from the queue).
        let cap = match cfg.policy {
            BatchPolicy::Adaptive { max_batch } => {
                occupancy_target(spec, &machine.table).clamp(1, max_batch)
            }
            ref p => p.max_streams(),
        }
        .min(depth);

        // Grow the batch from the queue head, pulling one look-ahead
        // arrival at a time.
        batch_admits.clear();
        let mut bytes = 0usize;
        let mut t_close = 0u64;
        let deadline = match cfg.policy {
            BatchPolicy::Deadline { max_wait, .. } => Some(first_admit.saturating_add(max_wait)),
            _ => None,
        };
        loop {
            let count = batch_admits.len();
            if count >= cap || !cursor.fill(source, n_machines, cfg, window, col, count + 1)? {
                break;
            }
            let a = &window[count];
            if a.machine != machine_id {
                break; // a batch runs one machine's table
            }
            if bytes + a.bytes.len() > buffer_bytes {
                break; // staging buffer is full
            }
            let t = admit_at(depth, ring, a.arrival_cycle, *next + count);
            if count > 0 {
                if let Some(d) = deadline {
                    if t > d {
                        // The oldest stream's wait budget is spent: ship the
                        // partial batch at the deadline instead of waiting.
                        t_close = t_close.max(d);
                        break;
                    }
                }
                if let BatchPolicy::Adaptive { .. } = cfg.policy {
                    // Work-conserving: if waiting for this arrival would
                    // leave the device idle, ship what we have.
                    let backlog = timeline.h2d_free_at().max(buffer_free[*batch_idx % 2]);
                    if t > t_close.max(backlog) {
                        break;
                    }
                }
            }
            bytes += a.bytes.len();
            t_close = t_close.max(t);
            batch_admits.push(t);
        }
        let count = batch_admits.len();
        debug_assert!(count > 0, "a batch always takes at least the head stream");
        batch_arrivals.clear();
        batch_arrivals.extend(window.drain(..count));

        // Schedule the three pipeline operations. Copies retry under the
        // fault plan; a batch whose retry budget runs out is abandoned and
        // its streams shed (no result, no `BatchRecord`).
        let h2d_stats = transfer_stats(spec, bytes);
        let d2h_stats = transfer_stats(spec, D2H_BYTES_PER_STREAM * count);
        let h2d_ready = t_close.max(buffer_free[*batch_idx % 2]);
        match copy_with_retries(
            timeline,
            CopyDir::H2d,
            *batch_idx,
            h2d_ready,
            &h2d_stats,
            &copy_faults,
            col,
        ) {
            None => {
                // Inputs never reached the device: the queue slot still
                // frees when the first DMA attempt began, but the streams
                // are shed and the staging buffer holds nothing.
                release_slots(cfg, ring, depths, col, h2d_ready, batch_admits, batch_arrivals);
                for _ in 0..count {
                    sink.push(SinkOp::Shed(StreamOutcome::ShedCopyFailure), col, meter);
                }
                fails.push(true);
            }
            Some(h2d) => {
                // Table residency: a miss uploads the machine's table right
                // after the inputs; the kernel waits for both.
                let touch = residency
                    .as_mut()
                    .zip(cfg.residency)
                    .map(|(order, rc)| touch_table(order, machine_id, rc.capacity_bytes, machines));
                let table_ready = match touch {
                    Some(TableTouch::Hit) => {
                        col.report.residency.hits += 1;
                        h2d.end
                    }
                    Some(TableTouch::Miss { copy_bytes, evictions }) => {
                        col.report.residency.misses += 1;
                        col.report.residency.evictions += evictions;
                        col.report.residency.copied_bytes += copy_bytes as u64;
                        let tstats = transfer_stats(spec, copy_bytes);
                        let tspan = timeline.h2d(h2d.end, tstats.cycles);
                        col.report.stats.merge_sequential(&tstats);
                        tspan.end
                    }
                    None => h2d.end,
                };
                let streams: Vec<&[u8]> =
                    batch_arrivals.iter().map(|a| a.bytes.as_slice()).collect();
                // Decide once the batch is committed to the device (the
                // inputs are on board), observe as soon as its kernels are
                // charged — even if the result copy later fails, the cost
                // was real and the controller must learn from it.
                let decision = match (&cfg.controller, controller.as_mut()) {
                    (Some(cc), Some(c)) => Some(c[machine_id].decide(cc, &machine.arms)),
                    _ => None,
                };
                let choice = decision.map(|d| d.choice);
                let exec = execute_batch(spec, machine, &streams, cfg, choice.as_ref());
                let deadline_class = machine.class == PriorityClass::Deadline;
                if cfg.preempt && !deadline_class {
                    // A new bulk kernel seals the previously open one: only
                    // the tail of the compute queue is still preemptible.
                    if let Some(ob) = open.take() {
                        sink.buffering = false;
                        let failed = close_pending(ob, timeline, &copy_faults, col, meter, sink);
                        sink.flush(col, meter);
                        fails.push(failed);
                    }
                }
                let compute = if !cfg.preempt {
                    timeline.compute(table_ready, exec.stats.cycles)
                } else if deadline_class {
                    preempt_or_queue(open, cq, buffer_free, table_ready, exec.stats.cycles, col)
                } else {
                    cq.schedule(table_ready, exec.stats.cycles)
                };
                col.report.stats.merge_sequential(&exec.stats);
                if let (Some(cc), Some(c), Some(d)) =
                    (&cfg.controller, controller.as_mut(), decision)
                {
                    let obs = BatchObservation::from_stats(
                        &exec.stats,
                        exec.checks,
                        exec.matches,
                        bytes as u64,
                        exec.mode == ExecMode::ChunkParallel,
                    );
                    c[machine_id].observe(cc, d.arm, &obs);
                    col.report.decisions_made += 1;
                    if d.explore {
                        col.report.explore_decisions += 1;
                    }
                    if col.report.decisions.len() < cc.max_decisions {
                        col.report.decisions.push(DecisionRecord {
                            batch: *batch_idx,
                            machine: machine_id,
                            arm: d.arm,
                            choice: d.choice,
                            explore: d.explore,
                            observation: obs,
                        });
                    }
                }
                // The input buffer frees once the kernel has consumed it;
                // batch `batch_idx + 2` reuses it. In preempt mode a split
                // bulk kernel may have pushed this slot further already.
                let slot = &mut buffer_free[*batch_idx % 2];
                *slot = (*slot).max(compute.end);
                release_slots(cfg, ring, depths, col, h2d.start, batch_admits, batch_arrivals);
                let points = if cfg.preempt && !deadline_class {
                    preempt_points(&exec, compute)
                } else {
                    Vec::new()
                };
                let pc = PendingClose {
                    batch_idx: *batch_idx,
                    first_stream: *next,
                    machine_id,
                    scheme: choice.map_or(machine.scheme, |c| c.scheme),
                    mode: exec.mode,
                    count,
                    bytes,
                    h2d,
                    compute,
                    points,
                    completions: exec.completions,
                    end_states: exec.end_states,
                    accepted: exec.accepted,
                    d2h_stats,
                    arrival_cycles: batch_arrivals
                        .iter()
                        .take(count)
                        .map(|a| a.arrival_cycle)
                        .collect(),
                };
                if cfg.preempt && !deadline_class {
                    // Defer the close: a deadline batch may still split this
                    // kernel. Report-side effects buffer until it seals so
                    // stream fates replay in admission order.
                    *open = Some(pc);
                    sink.buffering = true;
                } else {
                    fails.push(close_pending(pc, timeline, &copy_faults, col, meter, sink));
                }
            }
        }
        *next += count;
        *batch_idx += 1;
        let mut tripped = false;
        for failed in fails.drain(..) {
            if failed {
                col.report.recovery.failed_batches += 1;
                *breaker_consecutive += 1;
                if rcfg.breaker_failure_threshold > 0
                    && *breaker_consecutive >= rcfg.breaker_failure_threshold
                {
                    tripped = true;
                    break;
                }
            } else {
                *breaker_consecutive = 0;
            }
        }
        if tripped {
            // The breaker stays open for the rest of the trace: every
            // not-yet-dispatched stream is shed without touching the
            // device — first the look-ahead already pulled, then the
            // rest of the source, still pulled (and validated, and
            // counted) one arrival at a time.
            col.report.recovery.breaker_trips += 1;
            loop {
                let more = match window.pop_front() {
                    Some(_) => true,
                    None => cursor.pull(source, n_machines, cfg, col)?.is_some(),
                };
                if !more {
                    break;
                }
                depths.zero_pair();
                sink.push(SinkOp::Shed(StreamOutcome::ShedBreakerOpen), col, meter);
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Seals the run and builds the final [`ServeReport`]: closes a
    /// still-open bulk kernel, flushes buffered report effects, and fills
    /// the finalization-only fields (makespan, summaries, queue-depth
    /// samples, overlap efficiency, recovery counter folds).
    pub fn finish(self) -> ServeReport {
        let ServeRun { cfg, mut sink, open, state, .. } = self;
        let EngineState { frontiers, cq, depths, mut meter, mut col, .. } = state;
        let mut timeline = DeviceTimeline::from_frontiers(cfg.overlap, frontiers);
        let plan = cfg.scheme_config.faults.unwrap_or_default();
        let copy_faults = CopyFaults { plan: &plan, rcfg: &cfg.recovery };
        // A bulk kernel may still be open when the trace runs dry (or the
        // breaker tripped): seal it now and replay everything buffered
        // under it — preemptors' fates, breaker sheds — back in admission
        // order.
        if let Some(ob) = open {
            sink.buffering = false;
            if close_pending(ob, &mut timeline, &copy_faults, &mut col, &mut meter, &mut sink) {
                col.report.recovery.failed_batches += 1;
            }
        }
        sink.flush(&mut col, &mut meter);
        debug_assert!(sink.buf.is_empty(), "every buffered report effect must have flushed");

        let Collector { mut report, delivery, kernel } = col;
        report.makespan_cycles = timeline.horizon().max(cq.horizon);
        // Latency summaries describe delivered results only; shed streams
        // keep zeroed per-stream entries and are excluded.
        let (delivery_summary, delivery_sketched) = delivery.summarize();
        let (kernel_summary, kernel_sketched) = kernel.summarize();
        report.delivery = delivery_summary;
        report.kernel_latency = kernel_summary;
        report.latency_error_permille =
            if delivery_sketched || kernel_sketched { LatencySketch::ERROR_PERMILLE } else { 0 };
        let (samples, peak) = depths.finish(sink.full);
        debug_assert!(peak <= cfg.max_queue_depth, "sampled queue depth exceeds max_queue_depth");
        report.queue_depth = samples;
        report.peak_queue = peak;
        report.overlap_efficiency_permille = meter.efficiency_permille();
        // Fold the kernel-side fault counters (accumulated through the
        // stats merges) into the recovery report; copy-side counters are
        // already there.
        report.recovery.block_retries = report.stats.fault_retries;
        report.recovery.watchdog_kills = report.stats.fault_watchdog_kills;
        report.recovery.degraded_blocks = report.stats.fault_degraded_blocks;
        report.recovery.fault_cycles += report.stats.fault_cycles;
        report
    }

    /// Captures the engine's entire mutable state. Callers must be at a
    /// quiescent inter-batch boundary ([`ServeRun::quiescent`]), where
    /// everything outside the state (the open kernel, the sink buffer, the
    /// undrained failure list, the per-batch scratch) is empty.
    pub(crate) fn snapshot(&self) -> EngineState {
        debug_assert!(self.quiescent(), "snapshots are taken between batches only");
        self.state.clone()
    }

    /// Rebuilds an engine from a snapshot, the inverse of
    /// [`ServeRun::snapshot`] for the same `spec`/`machines`/`cfg` and a
    /// `source` already advanced past the snapshot's pulled arrivals.
    /// Structural inconsistencies (a snapshot from a different
    /// configuration, or corrupt-but-checksummed state) are rejected as
    /// [`ServeError::CorruptCheckpoint`] — never a panic.
    pub(crate) fn restore(
        spec: &'e DeviceSpec,
        machines: &'e [ServeMachine<'m>],
        source: S,
        cfg: &'e ServeConfig,
        state: EngineState,
    ) -> Result<Self, ServeError> {
        let corrupt = |what: &'static str| Err(ServeError::CorruptCheckpoint { offset: 0, what });
        let EngineState { cursor, next, window, ring, col, .. } = &state;
        if ring.recent.len() > cfg.max_queue_depth || ring.released < ring.recent.len() {
            return corrupt("release ring inconsistent with max_queue_depth");
        }
        if ring.released != *next {
            return corrupt("release count inconsistent with the admission cursor");
        }
        if next.checked_add(window.len()) != Some(cursor.pulled) {
            return corrupt("admission window inconsistent with the pull cursor");
        }
        for a in window {
            if a.machine >= machines.len() {
                return corrupt("window arrival names an unknown machine");
            }
            if a.bytes.len() > cfg.buffer_bytes() {
                return corrupt("window arrival exceeds the staging buffer");
            }
            if a.arrival_cycle > cursor.last_cycle {
                return corrupt("window arrival beyond the source cursor");
            }
        }
        if cfg.full_detail() && (col.delivery.sketch.is_some() || col.kernel.sketch.is_some()) {
            return corrupt("latency sketch present under full report detail");
        }
        if col.report.policy != Some(cfg.policy.kind()) || col.report.overlap != cfg.overlap {
            return corrupt("report policy or overlap does not match the config");
        }
        match (&cfg.controller, &state.controller) {
            (None, None) => {}
            (Some(_), Some(c)) => {
                if c.len() != machines.len()
                    || machines.iter().zip(c).any(|(m, st)| st.arms.len() != m.arms.len())
                {
                    return corrupt("controller state shape does not match the machine arms");
                }
            }
            _ => return corrupt("controller state presence does not match the config"),
        }
        match (cfg.residency, &state.residency) {
            (None, None) => {}
            (Some(rc), Some(order)) => {
                if !valid_resident_set(order, rc.capacity_bytes, machines) {
                    return corrupt("residency LRU order is not a valid resident set");
                }
            }
            _ => return corrupt("residency state presence does not match the config"),
        }
        Ok(ServeRun::with_state(spec, machines, source, cfg, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{IterSource, SyntheticSource};
    use gspecpal_fsm::examples::div7;
    use proptest::prelude::*;

    /// The historical sort-everything queue-depth sampler, kept as the
    /// reference the incremental [`DepthTracker`] is checked against.
    /// `release_first` selects the equal-cycle tie-break; samples are
    /// per-cycle-group boundaries, so both orders yield identical samples —
    /// which is exactly why the tie-break fix preserves committed
    /// baselines.
    fn reference_depth_samples(pairs: &[(u64, u64)], release_first: bool) -> Vec<(u64, usize)> {
        let mut events: Vec<(u64, i8)> =
            pairs.iter().flat_map(|&(a, r)| [(a, 1i8), (r, -1i8)]).collect();
        if release_first {
            events.sort_by_key(|&(t, kind)| (t, kind));
        } else {
            events.sort_by_key(|&(t, kind)| (t, Reverse(kind)));
        }
        let mut samples = Vec::new();
        let mut depth = 0i64;
        for (i, &(t, kind)) in events.iter().enumerate() {
            depth += i64::from(kind);
            if i + 1 == events.len() || events[i + 1].0 != t {
                samples.push((t, depth as usize));
            }
        }
        samples
    }

    proptest! {
        /// The ring's sliding minimum is the scan of its window after every
        /// push, also after the ring is rebuilt from its persisted parts
        /// (release count and window) mid-sequence.
        #[test]
        fn release_floor_equals_the_window_scan(
            depth in 1usize..40,
            pushes in prop::collection::vec(0u64..64, 0..200),
            rebuild_at in 0usize..200,
        ) {
            let scan = |r: &ReleaseRing| {
                if r.released >= depth { r.recent.iter().copied().min() } else { None }
            };
            let mut ring = ReleaseRing::default();
            for (i, &t) in pushes.iter().enumerate() {
                if i == rebuild_at {
                    ring = ReleaseRing::new(ring.released, ring.recent.clone());
                }
                ring.push(t, depth);
                prop_assert_eq!(ring.floor(depth), scan(&ring));
            }
        }
    }

    /// The historical quadratic overlap metric, kept as the reference for
    /// [`OverlapMeter`].
    fn reference_overlap_efficiency(batches: &[BatchRecord]) -> u64 {
        let copies: Vec<Span> = batches.iter().flat_map(|b| [b.h2d, b.d2h]).collect();
        let copy_busy: u64 = copies.iter().map(Span::duration).sum();
        if copy_busy == 0 {
            return 0;
        }
        let hidden: u64 =
            copies.iter().map(|c| batches.iter().map(|b| c.overlap(&b.compute)).sum::<u64>()).sum();
        hidden * 1000 / copy_busy
    }

    fn machine(spec: &DeviceSpec, dfa: &'static Dfa) -> ServeMachine<'static> {
        ServeMachine::prepare(spec, dfa, &b"110100".repeat(64))
    }

    fn leaked_div7() -> &'static Dfa {
        Box::leak(Box::new(div7()))
    }

    #[test]
    fn occupancy_target_saturates_instead_of_wrapping() {
        // Adversarial spec: every occupancy factor near its u32 ceiling, so
        // width × resident × n_sms vastly exceeds u32 (and a 32-bit usize).
        // The old `usize` product silently wrapped on 32-bit hosts; the
        // widened computation must agree with the exact u128 product
        // (clamped to usize) instead.
        let mut spec = DeviceSpec::test_unit();
        spec.warp_size = 1 << 8;
        spec.max_threads_per_block = 1 << 16;
        spec.max_threads_per_sm = u32::MAX;
        spec.registers_per_sm = u32::MAX;
        spec.shared_mem_bytes = usize::MAX / 2;
        spec.max_blocks_per_sm = u32::MAX;
        spec.n_sms = u32::MAX;
        let dfa = div7();
        let m = ServeMachine::with_scheme(&spec, &dfa, SchemeKind::Naive);
        let req = |w: u32| stream_requirements(m.table(), w);
        let width = fit_block_width(&spec, req).unwrap();
        let resident = max_resident_blocks(&spec, &req(width)).max(1);
        let exact = u128::from(width) * u128::from(resident) * u128::from(spec.n_sms);
        assert!(exact > u128::from(u32::MAX), "the test must actually exceed 32 bits");
        let expected = usize::try_from(exact).unwrap_or(usize::MAX);
        assert_eq!(occupancy_target(&spec, m.table()), expected);
    }

    #[test]
    fn depth_tracker_matches_the_sorted_reference() {
        // Generate a valid admission history exactly the way the pipeline
        // does: monotone arrivals, admit(k) = max(arrival, release(k−d)),
        // release ≥ admit — with plenty of equal-cycle collisions.
        let depth = 4usize;
        let mut state = 7u64;
        let mut rng = move |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % n
        };
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut arrivals: Vec<u64> = Vec::new();
        let mut arrival = 0u64;
        for k in 0..500usize {
            arrival += rng(3); // mostly-bursty: forces release/admit ties
            let floor = if k >= depth { pairs[k - depth].1 } else { 0 };
            let admit = arrival.max(floor);
            // Jittered releases make both releases and admissions
            // non-monotone — the failed-copy shape that rules out a
            // watermark bound.
            let release = admit + rng(5);
            pairs.push((admit, release));
            arrivals.push(arrival);
        }
        let mut tracker = DepthTracker::default();
        for (k, &(a, r)) in pairs.iter().enumerate() {
            // The engine's finality bound: arrival (monotone) maxed with
            // the release-window floor.
            let floor = if k >= depth {
                pairs[k - depth..k].iter().map(|&(_, rel)| rel).min().unwrap()
            } else {
                0
            };
            tracker.record(a, r, arrivals[k].max(floor), true);
        }
        let (samples, peak) = tracker.finish(true);
        let reference = reference_depth_samples(&pairs, true);
        assert_eq!(samples, reference);
        assert_eq!(peak, reference.iter().map(|&(_, d)| d).max().unwrap());
        // The tie-break is invisible at cycle-group boundaries: the old
        // admissions-first order produced the very same samples.
        assert_eq!(reference, reference_depth_samples(&pairs, false));
        // And with releases applied first, the peak respects the queue cap.
        assert!(peak <= depth, "peak {peak} exceeds queue depth {depth}");
    }

    #[test]
    fn equal_cycle_ties_keep_the_sampled_peak_within_the_queue_depth() {
        // A burst: every arrival at cycle 0, queue depth 4. Admission of
        // stream k (k ≥ 4) lands exactly on the release cycle of stream
        // k − 4, so every sample after the first batch is an equal-cycle
        // release/admission tie — the case the tie-break pins down.
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let trace = Trace::from_arrivals(
            (0..24)
                .map(|_| StreamArrival { arrival_cycle: 0, machine: 0, bytes: b"10".repeat(12) })
                .collect(),
        );
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 2 },
            max_queue_depth: 4,
            ..ServeConfig::default()
        };
        let report = serve(&spec, std::slice::from_ref(&m), &trace, &cfg).unwrap();
        assert!(report.backpressure_events > 0, "a burst this deep must backpressure");
        assert!(
            report.queue_depth.iter().all(|&(_, d)| d <= 4),
            "sampled depth exceeds max_queue_depth: {:?}",
            report.queue_depth
        );
        assert!(report.peak_queue <= 4);
        assert_eq!(report.peak_queue, report.queue_depth.iter().map(|&(_, d)| d).max().unwrap());
    }

    #[test]
    fn overlap_meter_matches_the_quadratic_reference() {
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        for (overlap, seed) in [(true, 3u64), (false, 3), (true, 11), (false, 11)] {
            let trace = Trace::synthetic(seed, 40, 1, 25, 8..96, b"01");
            let cfg = ServeConfig {
                policy: BatchPolicy::Fifo { batch: 4 },
                overlap,
                ..ServeConfig::default()
            };
            let report = serve(&spec, std::slice::from_ref(&m), &trace, &cfg).unwrap();
            assert_eq!(
                report.overlap_efficiency_permille,
                reference_overlap_efficiency(&report.batches),
                "overlap={overlap} seed={seed}"
            );
        }
    }

    #[test]
    fn overlap_meter_matches_the_reference_under_copy_faults() {
        // Failed batches leave gaps in the successful-batch sequence; the
        // incremental meter must still agree with the quadratic sweep over
        // the surviving records.
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let trace = Trace::synthetic(5, 60, 1, 10, 8..64, b"01");
        let scheme_config =
            SchemeConfig { faults: Some(FaultPlan::chaos(42, 400)), ..SchemeConfig::default() };
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 4 },
            scheme_config,
            recovery: ServeRecoveryConfig { copy_max_retries: 0, ..ServeRecoveryConfig::default() },
            ..ServeConfig::default()
        };
        let report = serve(&spec, std::slice::from_ref(&m), &trace, &cfg).unwrap();
        assert!(report.recovery.failed_batches > 0, "the chaos plan must fail some batches");
        assert_eq!(
            report.overlap_efficiency_permille,
            reference_overlap_efficiency(&report.batches)
        );
    }

    #[test]
    fn serve_source_matches_serve_byte_for_byte() {
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let machines = std::slice::from_ref(&m);
        let scheme_config =
            SchemeConfig { faults: Some(FaultPlan::chaos(9, 300)), ..SchemeConfig::default() };
        let configs = [
            ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() },
            ServeConfig {
                policy: BatchPolicy::Deadline { batch: 8, max_wait: 40 },
                overlap: false,
                ..ServeConfig::default()
            },
            ServeConfig {
                policy: BatchPolicy::Adaptive { max_batch: 16 },
                ..ServeConfig::default()
            },
            ServeConfig {
                policy: BatchPolicy::Fifo { batch: 4 },
                scheme_config,
                recovery: ServeRecoveryConfig {
                    copy_max_retries: 1,
                    shed_wait_cycles: 200,
                    breaker_failure_threshold: 2,
                    ..ServeRecoveryConfig::default()
                },
                max_queue_depth: 8,
                ..ServeConfig::default()
            },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            let trace = Trace::synthetic(100 + i as u64, 60, 1, 20, 8..80, b"01");
            let from_trace = serve(&spec, machines, &trace, cfg).unwrap();
            let from_source =
                serve_source(&spec, machines, IterSource(trace.arrivals().iter().cloned()), cfg)
                    .unwrap();
            assert_eq!(from_trace, from_source, "config {i}: streaming engine must not drift");
        }
    }

    #[test]
    fn bounded_detail_drops_vectors_but_keeps_aggregates() {
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let trace = Trace::synthetic(21, 50, 1, 15, 8..64, b"01");
        let full_cfg =
            ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() };
        let bounded_cfg = ServeConfig { detail: ReportDetail::Bounded, ..full_cfg.clone() };
        let full = serve(&spec, std::slice::from_ref(&m), &trace, &full_cfg).unwrap();
        let bounded = serve(&spec, std::slice::from_ref(&m), &trace, &bounded_cfg).unwrap();
        // The unbounded vectors are gone...
        assert!(bounded.latencies.is_empty());
        assert!(bounded.end_states.is_empty());
        assert!(bounded.accepted.is_empty());
        assert!(bounded.outcomes.is_empty());
        assert!(bounded.batches.is_empty());
        assert!(bounded.queue_depth.is_empty());
        // ...and every aggregate matches the full run exactly.
        assert_eq!(bounded.streams, full.streams);
        assert_eq!(bounded.total_bytes, full.total_bytes);
        assert_eq!(bounded.makespan_cycles, full.makespan_cycles);
        assert_eq!(bounded.delivery, full.delivery);
        assert_eq!(bounded.kernel_latency, full.kernel_latency);
        assert_eq!(bounded.latency_error_permille, full.latency_error_permille);
        // Bounded and Full detail report equal kernel stats.
        assert_eq!(bounded.stats, full.stats);
        assert_eq!(bounded.overlap_efficiency_permille, full.overlap_efficiency_permille);
        assert_eq!(bounded.backpressure_events, full.backpressure_events);
        assert_eq!(bounded.backpressure_wait_cycles, full.backpressure_wait_cycles);
        assert_eq!(bounded.recovery, full.recovery);
        assert_eq!(bounded.batches_dispatched, full.batches.len() as u64);
        assert_eq!(bounded.peak_queue, full.peak_queue);
        assert_eq!(bounded.served_streams(), full.served_streams());
    }

    #[test]
    fn bounded_streaming_run_summarizes_past_the_exact_threshold() {
        // Enough served streams to cross EXACT_SUMMARY_MAX, fed from a
        // generator — the million-stream shape in miniature. Short streams
        // keep the simulated work tiny.
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let n = EXACT_SUMMARY_MAX + 500;
        let cfg = ServeConfig {
            policy: BatchPolicy::Fifo { batch: 32 },
            detail: ReportDetail::Bounded,
            ..ServeConfig::default()
        };
        let source = SyntheticSource::new(77, n, 1, 3, 4..10, b"01");
        let report = serve_source(&spec, std::slice::from_ref(&m), source, &cfg).unwrap();
        assert_eq!(report.streams, n);
        assert_eq!(report.served_streams(), n);
        assert_eq!(
            report.latency_error_permille,
            LatencySketch::ERROR_PERMILLE,
            "past the exact threshold the summary must carry the sketch bound"
        );
        assert!(report.delivery.p50 > 0);
        assert!(report.delivery.max >= report.delivery.p99);
        // And the streaming run agrees with the materialized one.
        let trace = Trace::synthetic(77, n, 1, 3, 4..10, b"01");
        let materialized = serve(
            &spec,
            std::slice::from_ref(&m),
            &trace,
            &ServeConfig { detail: ReportDetail::Bounded, ..cfg },
        )
        .unwrap();
        assert_eq!(report, materialized);
    }

    /// Two machines with 1 KiB of staging (512-byte buffers), so windows
    /// hold look-ahead arrivals and an oversized one is cheap to build.
    fn restore_cfg() -> ServeConfig {
        ServeConfig {
            policy: BatchPolicy::Fifo { batch: 4 },
            device_mem_bytes: 1024,
            max_queue_depth: 8,
            ..ServeConfig::default()
        }
    }

    /// Snapshots a run under `cfg` three batches in, checks that the
    /// untouched snapshot restores, then applies `corrupt` and asserts
    /// that `restore` rejects the result with exactly `what`.
    fn assert_restore_rejects(
        cfg: ServeConfig,
        corrupt: impl FnOnce(&mut EngineState),
        what: &'static str,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let machines = [machine(&spec, dfa), machine(&spec, dfa)];
        let trace = Trace::synthetic(5, 30, machines.len(), 40, 8..64, b"01");
        let mut run = ServeRun::new(&spec, &machines, trace.source(), &cfg).unwrap();
        for _ in 0..3 {
            assert!(run.step().unwrap(), "the trace outlasts three batches");
        }
        let mut snap = run.snapshot();
        let empty = || IterSource(std::iter::empty::<StreamArrival>());
        assert!(ServeRun::restore(&spec, &machines, empty(), &cfg, snap.clone()).is_ok());
        corrupt(&mut snap);
        let err = ServeRun::restore(&spec, &machines, empty(), &cfg, snap).err();
        assert_eq!(err, Some(ServeError::CorruptCheckpoint { offset: 0, what }));
    }

    /// Appends a pulled arrival to the snapshot's window, keeping the pull
    /// cursor consistent with it.
    fn push_window_arrival(snap: &mut EngineState, machine: usize, len: usize, cycle: u64) {
        let arrival = StreamArrival { arrival_cycle: cycle, machine, bytes: vec![b'1'; len] };
        snap.window.push_back(arrival);
        snap.cursor.pulled += 1;
    }

    #[test]
    fn restore_rejects_a_release_ring_longer_than_the_queue() {
        let depth = restore_cfg().max_queue_depth;
        assert_restore_rejects(
            restore_cfg(),
            |s| {
                s.ring.recent = vec![0; depth + 1].into();
                s.ring.released = s.ring.released.max(depth + 1);
            },
            "release ring inconsistent with max_queue_depth",
        );
    }

    #[test]
    fn restore_rejects_a_release_count_off_the_admission_cursor() {
        assert_restore_rejects(
            restore_cfg(),
            |s| s.ring.released += 1,
            "release count inconsistent with the admission cursor",
        );
    }

    #[test]
    fn restore_rejects_a_window_off_the_pull_cursor() {
        assert_restore_rejects(
            restore_cfg(),
            |s| s.cursor.pulled += 1,
            "admission window inconsistent with the pull cursor",
        );
    }

    #[test]
    fn restore_rejects_a_window_arrival_for_an_unknown_machine() {
        assert_restore_rejects(
            restore_cfg(),
            |s| push_window_arrival(s, 2, 4, s.cursor.last_cycle),
            "window arrival names an unknown machine",
        );
    }

    #[test]
    fn restore_rejects_a_window_arrival_larger_than_the_staging_buffer() {
        let buffer_bytes = restore_cfg().buffer_bytes();
        assert_restore_rejects(
            restore_cfg(),
            |s| push_window_arrival(s, 0, buffer_bytes + 1, s.cursor.last_cycle),
            "window arrival exceeds the staging buffer",
        );
    }

    #[test]
    fn restore_rejects_a_window_arrival_beyond_the_source_cursor() {
        assert_restore_rejects(
            restore_cfg(),
            |s| push_window_arrival(s, 0, 4, s.cursor.last_cycle + 1),
            "window arrival beyond the source cursor",
        );
    }

    #[test]
    fn restore_rejects_a_sketch_under_full_detail() {
        let what = "latency sketch present under full report detail";
        assert_restore_rejects(
            restore_cfg(),
            |s| s.col.delivery.sketch = Some(LatencySketch::new()),
            what,
        );
        assert_restore_rejects(
            restore_cfg(),
            |s| s.col.kernel.sketch = Some(LatencySketch::new()),
            what,
        );
    }

    #[test]
    fn restore_rejects_a_report_of_another_policy_or_overlap() {
        let what = "report policy or overlap does not match the config";
        assert_restore_rejects(restore_cfg(), |s| s.col.report.policy = None, what);
        assert_restore_rejects(restore_cfg(), |s| s.col.report.overlap = false, what);
    }

    #[test]
    fn restore_rejects_controller_state_the_config_does_not_match() {
        let what = "controller state presence does not match the config";
        let adaptive =
            || ServeConfig { controller: Some(ControllerConfig::default()), ..restore_cfg() };
        assert_restore_rejects(restore_cfg(), |s| s.controller = Some(Vec::new()), what);
        assert_restore_rejects(adaptive(), |s| s.controller = None, what);
    }

    #[test]
    fn restore_rejects_controller_state_of_another_arm_shape() {
        let what = "controller state shape does not match the machine arms";
        let adaptive =
            || ServeConfig { controller: Some(ControllerConfig::default()), ..restore_cfg() };
        assert_restore_rejects(
            adaptive(),
            |s| s.controller.as_mut().unwrap()[1].arms.truncate(1),
            what,
        );
        assert_restore_rejects(adaptive(), |s| s.controller.as_mut().unwrap().truncate(1), what);
    }

    #[test]
    fn restore_rejects_residency_state_the_config_does_not_match() {
        let what = "residency state presence does not match the config";
        let lru = || ServeConfig {
            residency: Some(ResidencyConfig { capacity_bytes: 1 << 20 }),
            ..restore_cfg()
        };
        assert_restore_rejects(restore_cfg(), |s| s.residency = Some(VecDeque::new()), what);
        assert_restore_rejects(lru(), |s| s.residency = None, what);
    }

    #[test]
    fn restore_rejects_an_invalid_residency_order() {
        let what = "residency LRU order is not a valid resident set";
        let lru = |capacity_bytes| ServeConfig {
            residency: Some(ResidencyConfig { capacity_bytes }),
            ..restore_cfg()
        };
        // An unknown machine, a machine resident twice, and a resident
        // set over the byte budget.
        assert_restore_rejects(lru(1 << 20), |s| s.residency = Some(vec![2].into()), what);
        assert_restore_rejects(lru(1 << 20), |s| s.residency = Some(vec![0, 0].into()), what);
        assert_restore_rejects(lru(1), |s| s.residency = Some(vec![0].into()), what);
    }

    #[test]
    fn invalid_arrivals_fail_the_streaming_run_when_reached() {
        let spec = DeviceSpec::test_unit();
        let dfa = leaked_div7();
        let m = machine(&spec, dfa);
        let cfg = ServeConfig::default();
        let bad_machine = vec![
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: vec![b'1'; 4] },
            StreamArrival { arrival_cycle: 5, machine: 9, bytes: vec![b'1'; 4] },
        ];
        let err = serve_source(
            &spec,
            std::slice::from_ref(&m),
            IterSource(bad_machine.into_iter()),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, ServeError::UnknownMachine { stream: 1, machine: 9, n_machines: 1 });
        let non_monotone = vec![
            StreamArrival { arrival_cycle: 10, machine: 0, bytes: vec![b'1'; 4] },
            StreamArrival { arrival_cycle: 3, machine: 0, bytes: vec![b'1'; 4] },
        ];
        let err = serve_source(
            &spec,
            std::slice::from_ref(&m),
            IterSource(non_monotone.into_iter()),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, ServeError::NonMonotonicTrace { stream: 1, cycle: 3, prev: 10 });
    }
}
