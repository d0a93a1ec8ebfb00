//! Fleet-level reporting: per-device [`ServeReport`]s plus the aggregates
//! a fleet operator reads first — fleet latency percentiles, residency hit
//! rate, migration traffic, and load imbalance.
//!
//! Everything is integer-valued and assembled by deterministic folds over
//! the (already bit-identical) per-device reports, so a [`ClusterReport`]
//! is bit-identical across reruns — `PartialEq` on the whole struct is the
//! test.

use gspecpal_serve::{LatencySummary, PriorityClass, ResidencyReport, ServeReport};

use crate::fleet::{ClusterDevice, FleetMachine};

/// What the router did during the run: rebalancing migrations and outage
/// rerouting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Machines migrated at the rebalance epoch.
    pub migrations: u64,
    /// Transition-table bytes those migrations shipped across the fabric.
    pub migration_bytes: u64,
    /// Cycles the migrations took, priced on the slower attach link of each
    /// source/destination pair. Floors the fleet makespan when nonzero.
    pub migration_cycles: u64,
    /// The epoch cycle at which migrations ran (0 when none did).
    pub rebalance_epoch: u64,
    /// Arrivals re-sharded off a failed device.
    pub rerouted_streams: u64,
    /// Arrivals routed onto the outage device *before* it failed. Without
    /// failover these are the streams a real crash would destroy (the
    /// legacy model completes them anyway — see
    /// [`ClusterReport::lost_streams`]); with failover they are exactly
    /// the streams the checkpoint-and-replay path must conserve.
    pub doomed_streams: u64,
}

/// What the failover path did: checkpointing on the doomed device,
/// checkpoint migration to survivors, and orphan replay. All zeros when
/// [`crate::ClusterConfig::failover`] is off or no outage was configured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Checkpoints the victim took before the crash (at least one — the
    /// fresh engine is checkpointed before any dispatch).
    pub checkpoints_taken: u64,
    /// Total encoded bytes of those checkpoints — the durable-storage
    /// write traffic the checkpoint cadence costs.
    pub checkpoint_bytes: u64,
    /// Orphan streams (in the checkpoint's admission window, or routed to
    /// the victim after its last checkpoint) replayed on survivors.
    pub migrations_replayed: u64,
    /// Migration copy attempts that failed and were retried under the
    /// capped-exponential backoff schedule.
    pub migration_retries: u64,
    /// Cycles spent shipping the victim's checkpoint to survivors over
    /// their attach links, including every failed attempt and backoff.
    /// Orphans only become servable on a survivor once its copy lands, so
    /// these cycles delay replay directly.
    pub replay_cycles: u64,
}

/// One device's slice of the cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceReport {
    /// `"<device>/<link>"`, e.g. `"a100/nvlink3"`.
    pub device: String,
    /// The device's ordinary single-device report over its sub-trace —
    /// byte-identical to serving that sub-trace standalone.
    pub report: ServeReport,
}

/// The full result of serving a trace on the fleet.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Every device's slice, in device-index order.
    pub devices: Vec<DeviceReport>,
    /// Streams routed fleet-wide (= trace length).
    pub streams: usize,
    /// Fleet wall-clock: the slowest device's makespan, floored by the
    /// rebalance migrations (`rebalance_epoch + migration_cycles`) when any
    /// ran — tables in flight are capacity nobody can use.
    pub makespan_cycles: u64,
    /// Fleet-wide delivery percentiles over all served streams. Exact when
    /// every device retained per-stream latencies
    /// ([`gspecpal_serve::ReportDetail::Full`]); otherwise a field-wise
    /// upper bound over the per-device summaries (see `exact_latency`).
    pub delivery: LatencySummary,
    /// Delivery percentiles of bulk-class streams alone (all zeros when the
    /// fleet path could not attribute streams to classes — see
    /// `exact_latency`).
    pub bulk_delivery: LatencySummary,
    /// Delivery percentiles of deadline-class streams alone (all zeros when
    /// unattributable).
    pub deadline_delivery: LatencySummary,
    /// Whether `delivery` (and the class splits) were computed exactly from
    /// per-stream latencies, or upper-bounded from per-device summaries
    /// (under [`gspecpal_serve::ReportDetail::Bounded`]).
    pub exact_latency: bool,
    /// All devices' residency-LRU counters, merged.
    pub residency: ResidencyReport,
    /// Deadline-over-bulk preemptions fleet-wide.
    pub preemptions: u64,
    /// Total cycles those preemptions delayed bulk kernels by.
    pub preempted_cycles: u64,
    /// Streams shed fleet-wide, for any reason.
    pub shed_streams: u64,
    /// Peak-to-mean device busy-cycle ratio in permille: 1000 is a
    /// perfectly level fleet, 2000 means the hottest device did twice the
    /// mean work. 1000 when no device did any work.
    pub imbalance_permille: u64,
    /// Migration and rerouting activity.
    pub router: RouterStats,
    /// Streams whose results the fleet did not actually produce on live
    /// hardware. Zero on a healthy fleet. Under an outage *without*
    /// failover this counts the arrivals already routed to the victim when
    /// it died — the legacy model completes them anyway, and this counter
    /// makes that fiction measurable instead of silent. With failover it
    /// must be zero: every doomed stream is either in the victim's durable
    /// checkpoint report or replayed on a survivor.
    pub lost_streams: u64,
    /// Checkpoint / migration / replay counters of the failover path.
    pub failover: FailoverReport,
}

impl ClusterReport {
    /// Residency hit rate across the fleet, in permille.
    pub fn residency_hit_permille(&self) -> u64 {
        self.residency.hit_permille()
    }
}

/// Folds per-device reports into the fleet report. The class split needs
/// the batch records only [`gspecpal_serve::ReportDetail::Full`] retains.
pub(crate) fn assemble(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    reports: Vec<ServeReport>,
    router: RouterStats,
    lost_streams: u64,
    failover: FailoverReport,
) -> ClusterReport {
    let streams: usize = reports.iter().map(|r| r.streams).sum();
    let device_makespan = reports.iter().map(|r| r.makespan_cycles).max().unwrap_or(0);
    let migration_floor =
        if router.migrations > 0 { router.rebalance_epoch + router.migration_cycles } else { 0 };

    let mut residency = ResidencyReport::default();
    let mut preemptions = 0;
    let mut preempted_cycles = 0;
    let mut shed_streams = 0;
    for r in &reports {
        residency.merge(&r.residency);
        preemptions += r.preemptions;
        preempted_cycles += r.preempted_cycles;
        shed_streams += r.recovery.shed_streams;
    }

    // Exact fleet percentiles need every served stream's latency, which
    // only `ReportDetail::Full` retains.
    let exact_latency = reports.iter().all(|r| r.latencies.len() == r.streams);
    let (delivery, bulk_delivery, deadline_delivery) = if exact_latency {
        let (mut all, mut bulk, mut deadline) = (Vec::with_capacity(streams), vec![], vec![]);
        // Every stream of a recorded batch was served; nothing else was.
        for r in &reports {
            for b in &r.batches {
                let lats = &r.latencies[b.first_stream..b.first_stream + b.streams];
                all.extend_from_slice(lats);
                match fleet[b.machine].class {
                    PriorityClass::Bulk => bulk.extend_from_slice(lats),
                    PriorityClass::Deadline => deadline.extend_from_slice(lats),
                }
            }
        }
        (
            LatencySummary::from_latencies(&all),
            LatencySummary::from_latencies(&bulk),
            LatencySummary::from_latencies(&deadline),
        )
    } else {
        // Field-wise maximum over the devices is a sound upper bound for
        // every percentile (each device's p99 bounds its streams'
        // contribution); the class split is unattributable here.
        let bound = reports.iter().map(|r| r.delivery).fold(LatencySummary::default(), |acc, s| {
            LatencySummary {
                p50: acc.p50.max(s.p50),
                p95: acc.p95.max(s.p95),
                p99: acc.p99.max(s.p99),
                max: acc.max.max(s.max),
            }
        });
        (bound, LatencySummary::default(), LatencySummary::default())
    };

    let loads: Vec<u64> = reports.iter().map(|r| r.stats.cycles).collect();
    let total: u128 = loads.iter().map(|&c| c as u128).sum();
    let peak = *loads.iter().max().expect("nonempty fleet") as u128;
    // An idle fleet (total 0) reads as perfectly balanced: 1000‰.
    let imbalance_permille =
        (peak * 1000 * loads.len() as u128).checked_div(total).unwrap_or(1000) as u64;

    ClusterReport {
        devices: devices
            .iter()
            .zip(reports)
            .map(|(d, report)| DeviceReport {
                device: format!("{}/{}", d.spec.name, d.link.name),
                report,
            })
            .collect(),
        streams,
        makespan_cycles: device_makespan.max(migration_floor),
        delivery,
        bulk_delivery,
        deadline_delivery,
        exact_latency,
        residency,
        preemptions,
        preempted_cycles,
        shed_streams,
        imbalance_permille,
        router,
        lost_streams,
        failover,
    }
}
