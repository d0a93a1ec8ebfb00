//! The fleet runner: N heterogeneous devices behind a consistent-hash
//! router, each running the single-device serve engine on its own
//! timeline.
//!
//! A cluster run is a *demultiplex*: the router assigns every arrival to
//! one device (a pure function of its machine id and the fleet state at
//! its arrival cycle), and each device serves its share with the ordinary
//! [`gspecpal_serve`] engine — same batching, same residency LRU, same
//! preemption, same fault plan, same bit-determinism. Nothing about a
//! device's simulation depends on any other device, which is the
//! composability law the tests pin: a device's slice of the cluster report
//! is byte-identical to serving its sub-trace standalone.
//!
//! On top of the demux the router models two fleet events:
//!
//! * **Rebalancing** ([`RebalanceConfig`]) — at the epoch boundary the
//!   router looks at the bytes each device received so far and greedily
//!   migrates the hottest machines off the most loaded device until the
//!   load spread stops improving. Each migration ships the machine's
//!   transition table across the interconnect, priced by the *slower* of
//!   the two devices' links ([`LinkSpec::slower_of`]); the total migration
//!   time floors the fleet makespan.
//! * **Whole-device outage** ([`DeviceOutage`]) — from the outage cycle
//!   on, arrivals routed at the dead device re-shard over the surviving
//!   ring ([`HashRing::without`]), touching nobody else's placement.
//! * **Checkpoint failover** ([`FailoverConfig`]) — the crash-consistent
//!   twin of the outage path: the victim runs under periodic
//!   checkpointing ([`gspecpal_serve::serve_until_crash`]) and dies at
//!   the outage cycle with its in-flight state *recovered*, not
//!   fictionally completed. Its last checkpoint is finalized into a
//!   durable report, shipped to the survivors over their attach links
//!   (priced as real `Phase::Transfer` H2D copies, with
//!   capped-exponential retry on migration-copy failure), and every
//!   orphan stream — checkpointed-but-undispatched or routed to the
//!   victim after its last checkpoint — is replayed where the surviving
//!   ring routes it. No stream is lost
//!   ([`ClusterReport::lost_streams`] is zero), and the price shows up
//!   in the [`crate::FailoverReport`] counters instead of being waved
//!   away.

use std::sync::mpsc;

use gspecpal_fsm::Dfa;
use gspecpal_gpu::{
    backoff_cycles, fault_coord, link_transfer_stats, DeviceSpec, FaultDomain, KernelStats,
    LinkSpec,
};
use gspecpal_serve::{
    finalize_checkpoint, serve, serve_source, serve_until_crash, IterSource, PriorityClass,
    ServeConfig, ServeError, ServeMachine, ServeReport, StreamArrival, Trace, TraceSource,
    MAX_ARRIVAL_CYCLE,
};

use crate::report::{assemble, ClusterReport, FailoverReport, RouterStats};
use crate::ring::HashRing;

/// One device in the fleet: its compute model and how it attaches to the
/// interconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterDevice {
    /// The device's cost model (occupancy, latencies, copy engines).
    pub spec: DeviceSpec,
    /// The device's attach link, governing migration transfers to and from
    /// it.
    pub link: LinkSpec,
}

impl ClusterDevice {
    /// An RTX 3090 on PCIe 4.0 — the workstation-class shard.
    pub fn rtx3090_pcie() -> Self {
        ClusterDevice { spec: DeviceSpec::rtx3090(), link: LinkSpec::pcie4() }
    }

    /// An A100 on NVLink 3 — the datacenter-class shard.
    pub fn a100_nvlink() -> Self {
        ClusterDevice { spec: DeviceSpec::a100(), link: LinkSpec::nvlink3() }
    }

    /// A T4 on PCIe 3.0 — the small inference-class shard.
    pub fn t4_pcie() -> Self {
        ClusterDevice { spec: DeviceSpec::t4(), link: LinkSpec::pcie3() }
    }

    /// The unit-test device on the unit-test link.
    pub fn test_unit() -> Self {
        ClusterDevice { spec: DeviceSpec::test_unit(), link: LinkSpec::test_unit() }
    }
}

/// One machine (FSM) the fleet serves, device-agnostic: each device
/// prepares its own [`ServeMachine`] from this (table sized for *its*
/// shared memory), so heterogeneous devices coexist naturally.
#[derive(Clone, Copy, Debug)]
pub struct FleetMachine<'a> {
    /// The machine's automaton (already frequency-permuted; see
    /// [`ServeMachine::prepare`]).
    pub dfa: &'a Dfa,
    /// Training bytes the per-device selector profiles on.
    pub training: &'a [u8],
    /// Scheduling class of the machine's batches (see
    /// [`gspecpal_serve::ServeConfig::preempt`]).
    pub class: PriorityClass,
}

/// When and how the router rebalances placement under skew.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// The epoch boundary: the first arrival at or after this cycle
    /// triggers one rebalancing pass over the loads observed so far.
    pub epoch_cycles: u64,
}

/// A whole-device failure: from `at_cycle` on, the device receives no new
/// arrivals (work already routed to it still completes — the simulator
/// models losing *capacity*, not losing in-flight results).
#[derive(Clone, Copy, Debug)]
pub struct DeviceOutage {
    /// The failed device's index.
    pub device: usize,
    /// First cycle at which arrivals re-shard around it.
    pub at_cycle: u64,
}

/// Crash-consistent failover for the outage device: checkpoint cadence on
/// the doomed engine and the retry schedule for shipping its state to
/// survivors. Only takes effect when [`ClusterConfig::outage`] is also
/// set — without an outage there is no crash to recover from and the run
/// is identical to the plain path.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Take a checkpoint every this many formed batches (at least 1). The
    /// fresh engine is always checkpointed before any dispatch, so a
    /// resume point exists even when the crash precedes the first batch.
    pub checkpoint_every_batches: usize,
    /// Failed migration copies are retried at most this many times; the
    /// attempt after the last retry is forced through (a real control
    /// plane escalates transports rather than dropping streams).
    pub migration_max_retries: u32,
    /// Base of the capped-exponential backoff between migration-copy
    /// retries (see [`gspecpal_gpu::backoff_cycles`]).
    pub migration_backoff_base_cycles: u64,
    /// Cap of that backoff schedule.
    pub migration_backoff_cap_cycles: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            checkpoint_every_batches: 4,
            migration_max_retries: 3,
            migration_backoff_base_cycles: 2_000,
            migration_backoff_cap_cycles: 64_000,
        }
    }
}

/// Fleet-level configuration around the per-device [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Ring points per device. More vnodes spread machines more evenly;
    /// fewer make placement coarser (and collisions — two hot machines on
    /// one device — more likely, which is what rebalancing is for).
    pub vnodes: usize,
    /// The configuration every device serves under (policy, residency,
    /// preemption, fault plan, detail).
    pub serve: ServeConfig,
    /// Rebalancing under skew; `None` pins the initial placement for the
    /// whole run (static sharding).
    pub rebalance: Option<RebalanceConfig>,
    /// Whole-device failure injection; `None` keeps every device up.
    pub outage: Option<DeviceOutage>,
    /// Crash-consistent recovery of the outage device's in-flight state;
    /// `None` keeps the legacy capacity-loss model (the victim's admitted
    /// streams complete anyway, counted by
    /// [`ClusterReport::lost_streams`]). Batch path
    /// ([`run_cluster`]) only.
    pub failover: Option<FailoverConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vnodes: 32,
            serve: ServeConfig::default(),
            rebalance: None,
            outage: None,
            failover: None,
        }
    }
}

/// The deterministic stream router: consistent hashing by machine id, plus
/// the rebalance override map and the outage re-shard. Public so tests can
/// reproduce the demux and verify per-device composability.
#[derive(Clone, Debug)]
pub struct Router {
    ring: HashRing,
    survivors: Option<HashRing>,
    outage: Option<DeviceOutage>,
    rebalance: Option<RebalanceConfig>,
    links: Vec<LinkSpec>,
    /// Device-global table bytes per machine — what a migration ships.
    footprints: Vec<u64>,
    /// Bytes each machine has contributed so far (pre-epoch: the evidence
    /// the rebalance decision is made from).
    machine_bytes: Vec<u64>,
    overrides: Vec<Option<usize>>,
    rebalanced: bool,
    /// What the router did, for the cluster report.
    pub stats: RouterStats,
}

impl Router {
    /// Builds the router for `devices`, machines with the given table
    /// `footprints` (bytes; see [`ServeMachine::table_footprint_bytes`]),
    /// under `cfg`.
    pub fn new(devices: &[ClusterDevice], footprints: Vec<u64>, cfg: &ClusterConfig) -> Router {
        let ring = HashRing::new(devices.len(), cfg.vnodes);
        let survivors = cfg.outage.map(|o| ring.without(o.device));
        Router {
            ring,
            survivors,
            outage: cfg.outage,
            rebalance: cfg.rebalance,
            links: devices.iter().map(|d| d.link.clone()).collect(),
            machine_bytes: vec![0; footprints.len()],
            overrides: vec![None; footprints.len()],
            footprints,
            rebalanced: false,
            stats: RouterStats::default(),
        }
    }

    /// Routes one arrival: the device that serves `bytes` bytes for
    /// `machine` arriving at `cycle`. Mutates the router's load accounting
    /// and, at the epoch boundary, performs the rebalancing pass.
    pub fn route(&mut self, machine: usize, cycle: u64, bytes: usize) -> usize {
        if let Some(rb) = self.rebalance {
            if !self.rebalanced && cycle >= rb.epoch_cycles {
                self.rebalance_now(rb.epoch_cycles);
            }
            if !self.rebalanced {
                self.machine_bytes[machine] += bytes as u64;
            }
        }
        let mut device = match self.overrides[machine] {
            Some(d) => d,
            None => self.ring.route(machine),
        };
        if let (Some(outage), Some(survivors)) = (self.outage, &self.survivors) {
            if cycle >= outage.at_cycle && device == outage.device {
                device = survivors.route(machine);
                self.stats.rerouted_streams += 1;
            } else if device == outage.device {
                // Routed onto the device that is going to die: lost on
                // real hardware unless failover recovers it.
                self.stats.doomed_streams += 1;
            }
        }
        device
    }

    /// The greedy epoch rebalance: repeatedly move the heaviest machine
    /// that fits from the most loaded device to the least loaded one,
    /// while doing so strictly shrinks the spread. Each move is charged a
    /// table transfer over the slower of the two attach links.
    fn rebalance_now(&mut self, epoch: u64) {
        self.rebalanced = true;
        let n = self.links.len();
        let mut device_load = vec![0u64; n];
        let mut placed: Vec<usize> =
            (0..self.machine_bytes.len()).map(|m| self.ring.route(m)).collect();
        for (m, &b) in self.machine_bytes.iter().enumerate() {
            device_load[placed[m]] += b;
        }
        loop {
            let hi = (0..n).max_by_key(|&d| (device_load[d], d)).expect("nonempty fleet");
            let lo = (0..n).min_by_key(|&d| (device_load[d], d)).expect("nonempty fleet");
            // The heaviest machine on `hi` whose move strictly lowers the
            // peak: after the move `lo` must still sit below `hi`'s old
            // load, else we only traded one hotspot for another.
            let candidate = (0..placed.len())
                .filter(|&m| placed[m] == hi && self.machine_bytes[m] > 0)
                .filter(|&m| device_load[lo] + self.machine_bytes[m] < device_load[hi])
                .max_by_key(|&m| (self.machine_bytes[m], m));
            let Some(m) = candidate else { break };
            device_load[hi] -= self.machine_bytes[m];
            device_load[lo] += self.machine_bytes[m];
            placed[m] = lo;
            self.overrides[m] = Some(lo);
            let table = self.footprints[m];
            let link = self.links[hi].slower_of(&self.links[lo], table as usize);
            self.stats.migrations += 1;
            self.stats.migration_bytes += table;
            self.stats.migration_cycles += link.copy_cycles(table as usize);
        }
        self.stats.rebalance_epoch = if self.stats.migrations > 0 { epoch } else { 0 };
    }
}

fn validate(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    cfg: &ClusterConfig,
) -> Result<(), ServeError> {
    if devices.is_empty() {
        return Err(ServeError::InvalidConfig {
            field: "devices",
            problem: "a cluster needs at least one device".into(),
        });
    }
    if fleet.is_empty() {
        return Err(ServeError::InvalidConfig {
            field: "machines",
            problem: "a cluster needs at least one machine".into(),
        });
    }
    if cfg.vnodes == 0 {
        return Err(ServeError::InvalidConfig {
            field: "vnodes",
            problem: "needs at least one ring point per device".into(),
        });
    }
    if let Some(o) = cfg.outage {
        if o.device >= devices.len() {
            return Err(ServeError::InvalidConfig {
                field: "outage",
                problem: format!("device {} out of range ({})", o.device, devices.len()),
            });
        }
        if devices.len() == 1 {
            return Err(ServeError::InvalidConfig {
                field: "outage",
                problem: "cannot fail the only device".into(),
            });
        }
    }
    if let Some(fo) = cfg.failover {
        if fo.checkpoint_every_batches == 0 {
            return Err(ServeError::InvalidConfig {
                field: "failover",
                problem: "checkpoint cadence needs at least one batch between checkpoints".into(),
            });
        }
    }
    // The per-device engine re-validates `cfg.serve` itself on every
    // `serve` / `serve_source` call, so fleet validation stops here.
    Ok(())
}

/// Prepares every fleet machine for every device: entry `[d][m]` is
/// machine `m`'s table and selector pick sized for device `d`. Arrivals
/// keep their global machine ids on every device, so the demux never
/// renumbers anything.
fn prepare_all<'a>(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'a>],
) -> Vec<Vec<ServeMachine<'a>>> {
    devices
        .iter()
        .map(|d| {
            fleet
                .iter()
                .map(|m| ServeMachine::prepare(&d.spec, m.dfa, m.training).with_class(m.class))
                .collect()
        })
        .collect()
}

/// Serves `trace` on the fleet: routes every arrival, runs each device's
/// sub-trace through the single-device engine, and assembles the
/// [`ClusterReport`]. Deterministic and bit-identical across host thread
/// counts and reruns — the router is a pure function and the per-device
/// engines already guarantee it for their shares.
pub fn run_cluster(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    trace: &Trace,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    validate(devices, fleet, cfg)?;
    let machines = prepare_all(devices, fleet);
    let footprints: Vec<u64> =
        machines[0].iter().map(|m| m.table_footprint_bytes() as u64).collect();
    let mut router = Router::new(devices, footprints, cfg);
    let mut shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); devices.len()];
    for a in trace.arrivals() {
        if a.machine >= fleet.len() {
            return Err(ServeError::UnknownMachine {
                stream: shares.iter().map(Vec::len).sum(),
                machine: a.machine,
                n_machines: fleet.len(),
            });
        }
        let d = router.route(a.machine, a.arrival_cycle, a.bytes.len());
        shares[d].push(a.clone());
    }
    if let (Some(outage), Some(fo)) = (cfg.outage, cfg.failover) {
        return failover_cluster(devices, fleet, cfg, outage, fo, shares, &router, &machines);
    }
    let mut reports = Vec::with_capacity(devices.len());
    let mut classes: Vec<Vec<PriorityClass>> = Vec::with_capacity(devices.len());
    for (d, share) in shares.into_iter().enumerate() {
        classes.push(share.iter().map(|a| fleet[a.machine].class).collect());
        let sub = Trace::from_arrivals(share);
        reports.push(serve(&devices[d].spec, &machines[d], &sub, &cfg.serve)?);
    }
    let lost = router.stats.doomed_streams;
    Ok(assemble(devices, reports, Some(&classes), router.stats, lost, FailoverReport::default()))
}

/// The crash-consistent twin of the outage path. The victim serves its
/// share under periodic checkpointing and dies at the outage cycle; its
/// last checkpoint becomes a durable report plus the orphan streams
/// (checkpointed-but-undispatched, or routed to the victim after its last
/// checkpoint — the router's journal). The checkpoint ships to every
/// survivor that must replay orphans, over that survivor's attach link,
/// with capped-exponential retry on copy failure, and the orphans are
/// replayed where the surviving ring routes them — stamped no earlier
/// than the migration's completion, so recovery latency is paid, not
/// hidden. Stream conservation is exact: `lost_streams` is zero.
#[allow(clippy::too_many_arguments)]
fn failover_cluster(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    cfg: &ClusterConfig,
    outage: DeviceOutage,
    fo: FailoverConfig,
    mut shares: Vec<Vec<StreamArrival>>,
    router: &Router,
    machines: &[Vec<ServeMachine<'_>>],
) -> Result<ClusterReport, ServeError> {
    let victim = outage.device;
    let victim_share = std::mem::take(&mut shares[victim]);
    let fed: usize = shares.iter().map(Vec::len).sum::<usize>() + victim_share.len();
    let crash = serve_until_crash(
        &devices[victim].spec,
        &machines[victim],
        IterSource(victim_share.iter().cloned()),
        &cfg.serve,
        fo.checkpoint_every_batches,
        outage.at_cycle,
    )?;
    let mut failover = FailoverReport {
        checkpoints_taken: crash.checkpoints_taken,
        checkpoint_bytes: crash.checkpoint_bytes,
        ..FailoverReport::default()
    };
    let mut orphans: Vec<StreamArrival> = Vec::new();
    let mut blob: Vec<u8> = Vec::new();
    let victim_report;
    let victim_classes: Vec<PriorityClass>;
    if let Some(report) = crash.completed {
        // The crash struck an idle device after its whole share finished:
        // nothing in flight, nothing to migrate.
        victim_classes = victim_share.iter().map(|a| fleet[a.machine].class).collect();
        victim_report = *report;
    } else {
        let ck = crash.checkpoint.expect("the batch-0 checkpoint always survives");
        blob = ck.encode();
        let (durable, window) =
            finalize_checkpoint(&devices[victim].spec, &machines[victim], &cfg.serve, &ck)?;
        orphans = window;
        orphans.extend(victim_share[ck.streams_pulled()..].iter().cloned());
        victim_classes =
            victim_share[..durable.streams].iter().map(|a| fleet[a.machine].class).collect();
        victim_report = durable;
    }

    // Orphans re-shard over the surviving ring, exactly like post-outage
    // arrivals do.
    let survivors = router.survivors.as_ref().expect("an outage implies a survivor ring");
    let mut orphan_shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); devices.len()];
    for a in orphans {
        let d = survivors.route(a.machine);
        orphan_shares[d].push(a);
    }

    // Ship the checkpoint to every survivor that replays orphans, priced
    // on its attach link as Phase::Transfer H2D traffic. A failed copy
    // backs off and retries; the attempt after the retry budget is forced
    // through (the control plane escalates rather than dropping streams)
    // with every attempt and backoff still paid for.
    let plan = cfg.serve.scheme_config.faults;
    let mut transfer_charges: Vec<Option<KernelStats>> = vec![None; devices.len()];
    for (d, dest) in orphan_shares.iter_mut().enumerate() {
        if dest.is_empty() {
            continue;
        }
        let mut delta = 0u64;
        let mut attempt = 0u32;
        let mut charge = KernelStats::default();
        loop {
            let stats = link_transfer_stats(&devices[d].link, &devices[d].spec, blob.len());
            delta += stats.cycles;
            charge.merge_sequential(&stats);
            let failed =
                plan.is_some_and(|p| p.copy_fails(FaultDomain::H2d, fault_coord(d), attempt));
            if failed && attempt < fo.migration_max_retries {
                failover.migration_retries += 1;
                delta += backoff_cycles(
                    fo.migration_backoff_base_cycles,
                    fo.migration_backoff_cap_cycles,
                    attempt,
                );
                attempt += 1;
            } else {
                break;
            }
        }
        failover.replay_cycles += delta;
        failover.migrations_replayed += dest.len() as u64;
        transfer_charges[d] = Some(charge);
        // An orphan only becomes servable once the survivor holds the
        // checkpoint: re-stamp it no earlier than the migration's end
        // (clamped to the clock bound the serve layer enforces).
        let ready = outage.at_cycle.saturating_add(delta).min(MAX_ARRIVAL_CYCLE);
        for a in dest.iter_mut() {
            a.arrival_cycle = a.arrival_cycle.max(ready);
        }
    }

    let mut victim_report = Some(victim_report);
    let mut reports = Vec::with_capacity(devices.len());
    let mut classes: Vec<Vec<PriorityClass>> = Vec::with_capacity(devices.len());
    for (d, mut share) in shares.into_iter().enumerate() {
        if d == victim {
            reports.push(victim_report.take().expect("one victim"));
            classes.push(victim_classes.clone());
            continue;
        }
        share.append(&mut orphan_shares[d]);
        let sub = Trace::from_arrivals(share);
        classes.push(sub.arrivals().iter().map(|a| fleet[a.machine].class).collect());
        let mut report = serve(&devices[d].spec, &machines[d], &sub, &cfg.serve)?;
        // The charge is built from link copies alone, whose per-round event
        // streams are empty, so this merge is the same under every detail.
        if let Some(charge) = transfer_charges[d].take() {
            report.stats.merge_sequential(&charge);
        }
        reports.push(report);
    }
    let served: u64 = reports.iter().map(|r| r.streams as u64).sum();
    let lost = (fed as u64).saturating_sub(served);
    Ok(assemble(devices, reports, Some(&classes), router.stats, lost, failover))
}

/// A [`TraceSource`] fed by a bounded channel — each device thread's view
/// of its share of the stream.
struct ChannelSource(mpsc::Receiver<StreamArrival>);

impl TraceSource for ChannelSource {
    fn next_arrival(&mut self) -> Option<StreamArrival> {
        self.0.recv().ok()
    }
}

/// Streams per-device channel depth: deep enough to keep device threads
/// busy, shallow enough that resident memory stays bounded by
/// `devices × depth` arrivals, not the trace length.
const CHANNEL_DEPTH: usize = 1024;

/// The streaming twin of [`run_cluster`]: pulls arrivals from `source` one
/// at a time, routes each, and hands it to the owning device's engine
/// thread over a bounded channel. Memory is bounded by the channel depths
/// and each engine's admission queue — pair with
/// [`gspecpal_serve::ReportDetail::Bounded`] to serve millions of streams.
/// Produces bit-identical reports to [`run_cluster`] on the same arrivals:
/// each device consumes exactly the same sub-sequence either way.
pub fn run_cluster_source<S: TraceSource>(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    mut source: S,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    validate(devices, fleet, cfg)?;
    if cfg.failover.is_some() {
        return Err(ServeError::InvalidConfig {
            field: "failover",
            problem: "checkpoint failover replays orphans from the batch path's routing journal; \
                      the streaming path keeps no journal, so run it through run_cluster"
                .into(),
        });
    }
    let machines = prepare_all(devices, fleet);
    let footprints: Vec<u64> =
        machines[0].iter().map(|m| m.table_footprint_bytes() as u64).collect();
    let mut router = Router::new(devices, footprints, cfg);
    let mut classes: Vec<Vec<PriorityClass>> = vec![Vec::new(); devices.len()];
    let (results, router) =
        std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(devices.len());
            let mut handles = Vec::with_capacity(devices.len());
            for (d, dev) in devices.iter().enumerate() {
                let (tx, rx) = mpsc::sync_channel::<StreamArrival>(CHANNEL_DEPTH);
                senders.push(tx);
                let machines_d = &machines[d];
                let serve_cfg = &cfg.serve;
                handles.push(scope.spawn(move || {
                    serve_source(&dev.spec, machines_d, ChannelSource(rx), serve_cfg)
                }));
            }
            let mut stream = 0usize;
            let mut feed_error = None;
            while let Some(a) = source.next_arrival() {
                if a.machine >= fleet.len() {
                    feed_error = Some(ServeError::UnknownMachine {
                        stream,
                        machine: a.machine,
                        n_machines: fleet.len(),
                    });
                    break;
                }
                let d = router.route(a.machine, a.arrival_cycle, a.bytes.len());
                let class = fleet[a.machine].class;
                if senders[d].send(a).is_err() {
                    // The device engine bailed (its error surfaces below);
                    // stop feeding so the rest of the fleet can drain.
                    break;
                }
                classes[d].push(class);
                stream += 1;
            }
            drop(senders);
            let results: Vec<Result<ServeReport, ServeError>> =
                handles.into_iter().map(|h| h.join().expect("device engine panicked")).collect();
            (feed_error.map_or(results, |e| vec![Err(e)]), router)
        });
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        reports.push(r?);
    }
    let lost = router.stats.doomed_streams;
    Ok(assemble(devices, reports, Some(&classes), router.stats, lost, FailoverReport::default()))
}
