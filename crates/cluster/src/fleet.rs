//! The fleet runner: N heterogeneous devices behind a consistent-hash
//! router (the fleet mechanisms are described in the crate docs).
//!
//! One path serves every run: a single-threaded demand-driven demux. Each
//! device's [`ServeRun`] pulls through a feed that pops the device's
//! backlog or, when it is empty, pulls the source, routing and filing
//! arrivals until one is for this device. The driver steps the live engine
//! with the longest backlog (lowest index on ties). Each engine sees
//! exactly its routed sub-sequence, so its slice of the report equals
//! serving that sub-sequence standalone.
//!
//! Under failover the outage device is a [`CrashRun`] whose pulls since
//! its last checkpoint are journaled. It gets nothing from the outage cycle
//! on, so once the source reaches that cycle (or runs dry), and before any
//! survivor consumes past it, the victim is *settled*: run to its crash,
//! finalized, its checkpoint copy priced onto each survivor that replays
//! orphans, and those orphans placed right before the survivor's first
//! arrival stamped later (the stable sort of share-then-orphans).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::VecDeque;

use gspecpal_fsm::Dfa;
use gspecpal_gpu::{
    backoff_cycles, fault_coord, link_transfer_stats, DeviceSpec, FaultDomain, KernelStats,
    LinkSpec,
};
use gspecpal_serve::{
    finalize_checkpoint, CrashRun, PriorityClass, ServeConfig, ServeError, ServeMachine,
    ServeReport, ServeRun, StreamArrival, Trace, TraceSource, MAX_ARRIVAL_CYCLE,
};

use crate::report::{assemble, ClusterReport, FailoverReport, RouterStats};
use crate::ring::{HashRing, MAX_VNODES};

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
    /// streams complete anyway, counted by [`ClusterReport::lost_streams`]).
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
    /// Per machine, its device on the fleet's ring ([`HashRing::route`],
    /// computed once: the binary search is not paid per arrival).
    home: Vec<usize>,
    /// Per machine, its device on the ring without the outage device.
    survivors: Option<Vec<usize>>,
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
        let homes = |ring: &HashRing| (0..footprints.len()).map(|m| ring.route(m)).collect();
        Router {
            home: homes(&ring),
            survivors: cfg.outage.map(|o| homes(&ring.without(o.device))),
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
            None => self.home[machine],
        };
        if let (Some(outage), Some(survivors)) = (self.outage, &self.survivors) {
            if cycle >= outage.at_cycle && device == outage.device {
                device = survivors[machine];
                self.stats.rerouted_streams += 1;
            } else if device == outage.device {
                // Routed onto the device that is going to die: lost on
                // real hardware unless failover recovers it.
                self.stats.doomed_streams += 1;
            }
        }
        device
    }

    /// Where `machine` goes once the outage device is gone. Panics without
    /// an outage.
    fn survivor(&self, machine: usize) -> usize {
        self.survivors.as_ref().expect("an outage has survivors")[machine]
    }

    /// The greedy epoch rebalance: repeatedly move the heaviest machine
    /// that fits from the most loaded device to the least loaded one,
    /// while doing so strictly shrinks the spread. Each move is charged a
    /// table transfer over the slower of the two attach links.
    fn rebalance_now(&mut self, epoch: u64) {
        self.rebalanced = true;
        let n = self.links.len();
        let mut device_load = vec![0u64; n];
        let mut placed = self.home.clone();
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
    let invalid =
        |field, problem: &str| Err(ServeError::InvalidConfig { field, problem: problem.into() });
    if devices.is_empty() {
        return invalid("devices", "a cluster needs at least one device");
    }
    if fleet.is_empty() {
        return invalid("machines", "a cluster needs at least one machine");
    }
    // Machines are prepared for every device before any engine starts.
    for d in devices {
        d.spec.validate().map_err(ServeError::InvalidDevice)?;
    }
    if !(1..=MAX_VNODES).contains(&cfg.vnodes) {
        return invalid("vnodes", &format!("needs 1 to {MAX_VNODES} ring points per device"));
    }
    if let Some(o) = cfg.outage {
        if o.device >= devices.len() {
            return invalid(
                "outage",
                &format!("device {} out of range ({})", o.device, devices.len()),
            );
        }
        if devices.len() == 1 {
            return invalid("outage", "cannot fail the only device");
        }
    }
    if cfg.failover.is_some_and(|fo| fo.checkpoint_every_batches == 0) {
        return invalid(
            "failover",
            "checkpoint cadence needs at least one batch between checkpoints",
        );
    }
    // The per-device engine re-validates `cfg.serve` itself when each
    // device's run is built, so fleet validation stops here.
    Ok(())
}

/// Prepares every fleet machine for every device: entry `[d][m]` is
/// machine `m`'s table and selector pick sized for device `d`. Each
/// machine is profiled once; only its hot rows are sized per device.
/// Arrivals keep their global machine ids on every device, so the demux
/// never renumbers anything.
fn prepare_all<'a>(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'a>],
) -> Vec<Vec<ServeMachine<'a>>> {
    let profiled: Vec<ServeMachine<'a>> = fleet
        .iter()
        .map(|m| ServeMachine::prepare(&devices[0].spec, m.dfa, m.training).with_class(m.class))
        .collect();
    devices.iter().map(|d| profiled.iter().map(|m| m.on_device(&d.spec)).collect()).collect()
}

/// Serves `trace` on the fleet: [`run_cluster_source`] replaying it.
pub fn run_cluster(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    trace: &Trace,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    run_cluster_source(devices, fleet, trace.source(), cfg)
}

/// Serves arrivals pulled from `source` on the fleet — the one fleet path
/// (see the module docs). Memory is bounded by how the devices' arrivals
/// interleave, not by the trace length: pair with
/// [`gspecpal_serve::ReportDetail::Bounded`] to serve millions of streams.
pub fn run_cluster_source<S: TraceSource>(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'_>],
    source: S,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    validate(devices, fleet, cfg)?;
    let machines = prepare_all(devices, fleet);
    let footprints = machines[0].iter().map(|m| m.table_footprint_bytes() as u64).collect();
    let n = devices.len();
    let crash = cfg.outage.zip(cfg.failover);
    let failover = crash.map(|(outage, _)| Failover {
        outage,
        journal: VecDeque::new(),
        journal_base: 0,
        boundary: false,
        victim: None,
        charges: vec![KernelStats::default(); n],
        report: FailoverReport::default(),
    });
    let demux = Demux {
        hub: RefCell::new(Hub {
            source,
            router: Router::new(devices, footprints, cfg),
            n_machines: fleet.len(),
            backlogs: vec![VecDeque::new(); n],
            pending: vec![VecDeque::new(); n],
            routed: 0,
            dry: false,
            error: None,
            failover,
        }),
        victim: RefCell::new(None),
        devices,
        machines: &machines,
        cfg,
    };
    let mut runs = Vec::with_capacity(n);
    for (d, dev) in devices.iter().enumerate() {
        let feed = Feed { device: d, demux: &demux };
        let (spec, ms, serve) = (&dev.spec, &machines[d], &cfg.serve);
        runs.push(match crash {
            Some((outage, fo)) if outage.device == d => {
                let (every, at) = (fo.checkpoint_every_batches, outage.at_cycle);
                demux.victim.replace(Some(CrashRun::new(spec, ms, feed, serve, every, at)?));
                None
            }
            _ => Some(ServeRun::new(spec, ms, feed, serve)?),
        });
    }

    let mut reports: Vec<Option<ServeReport>> = vec![None; n];
    let mut live_victim = crash.map(|(outage, _)| outage.device);
    loop {
        let backlog = |d: usize| demux.hub.borrow().backlogs[d].len();
        let live = (0..n).filter(|&d| runs[d].is_some() || live_victim == Some(d));
        let Some(d) = live.max_by_key(|&d| (backlog(d), Reverse(d))) else { break };
        let stepped = match &mut runs[d] {
            Some(run) => run.step(),
            None => demux.step_victim(),
        };
        if let Some(e) = demux.hub.borrow_mut().error.take() {
            return Err(e);
        }
        if !stepped? {
            match runs[d].take() {
                Some(run) => reports[d] = Some(run.finish()),
                None => live_victim = None,
            }
        }
    }
    demux.settle()?;
    let mut hub = demux.hub.borrow_mut();
    let router = hub.router.stats;
    let (lost, failover) = match hub.failover.take() {
        None => (router.doomed_streams, FailoverReport::default()),
        Some(f) => {
            reports[f.outage.device] = f.victim;
            for (report, charge) in reports.iter_mut().flatten().zip(&f.charges) {
                report.stats.merge_sequential(charge);
            }
            let served: usize = reports.iter().flatten().map(|r| r.streams).sum();
            ((hub.routed.saturating_sub(served)) as u64, f.report)
        }
    };
    let reports = reports.into_iter().map(|r| r.expect("every device reports")).collect();
    Ok(assemble(devices, fleet, reports, router, lost, failover))
}

/// The outage device's failover state, from its first pull to settlement.
struct Failover {
    outage: DeviceOutage,
    /// The victim's pulls since its latest checkpoint, from pull number
    /// `journal_base` on.
    journal: VecDeque<StreamArrival>,
    journal_base: usize,
    /// The source reached an arrival at or after the outage cycle.
    boundary: bool,
    /// The victim's durable report; `Some` once settled.
    victim: Option<ServeReport>,
    /// Per device: the checkpoint migration copies it paid for.
    charges: Vec<KernelStats>,
    report: FailoverReport,
}

/// What the feeds share: the source, the router, one backlog per device.
struct Hub<S> {
    source: S,
    router: Router,
    n_machines: usize,
    backlogs: Vec<VecDeque<StreamArrival>>,
    /// Per survivor: re-stamped orphans not yet filed, in merge order.
    pending: Vec<VecDeque<StreamArrival>>,
    routed: usize,
    dry: bool,
    /// The first error met while pulling; it ends the run.
    error: Option<ServeError>,
    failover: Option<Failover>,
}

impl<S: TraceSource> Hub<S> {
    /// Pulls one arrival from the source, routes it, and files it.
    fn advance(&mut self) {
        let Some(a) = self.source.next_arrival() else {
            self.dry = true;
            return self.flush_pending();
        };
        if a.machine >= self.n_machines {
            self.error = Some(ServeError::UnknownMachine {
                stream: self.routed,
                machine: a.machine,
                n_machines: self.n_machines,
            });
            return;
        }
        let d = self.router.route(a.machine, a.arrival_cycle, a.bytes.len());
        if let Some(f) = &mut self.failover {
            if a.arrival_cycle >= f.outage.at_cycle {
                f.boundary = true;
            } else if f.boundary {
                // Only a source that went back in time gets here.
                self.error = Some(ServeError::NonMonotonicTrace {
                    stream: self.routed,
                    cycle: a.arrival_cycle,
                    prev: f.outage.at_cycle,
                });
                return;
            }
        }
        self.routed += 1;
        self.file(d, a);
    }

    /// Appends `a` to device `d`'s backlog after the pending orphans that
    /// sort before it — the stable sort of a survivor's share followed by
    /// its orphans.
    fn file(&mut self, d: usize, a: StreamArrival) {
        let pending = &mut self.pending[d];
        while pending.front().is_some_and(|o| o.arrival_cycle < a.arrival_cycle) {
            self.backlogs[d].extend(pending.pop_front());
        }
        self.backlogs[d].push_back(a);
    }

    /// Once the source is dry, files every pending orphan.
    fn flush_pending(&mut self) {
        if self.dry {
            for (backlog, pending) in self.backlogs.iter_mut().zip(&mut self.pending) {
                backlog.append(pending);
            }
        }
    }
}

/// The one owner of a fleet run: the [`Hub`] plus the failover victim, which
/// a survivor's feed may settle mid-step. Feeds borrow the hub only to pull.
struct Demux<'a, 'f, S> {
    hub: RefCell<Hub<S>>,
    victim: RefCell<Option<CrashRun<'a, 'f, Feed<'a, 'f, S>>>>,
    devices: &'a [ClusterDevice],
    machines: &'a [Vec<ServeMachine<'f>>],
    cfg: &'a ClusterConfig,
}

/// One device's view of the demux.
struct Feed<'a, 'f, S> {
    device: usize,
    demux: &'a Demux<'a, 'f, S>,
}

impl<S: TraceSource> TraceSource for Feed<'_, '_, S> {
    fn next_arrival(&mut self) -> Option<StreamArrival> {
        self.demux.next_for(self.device)
    }
}

impl<'a, 'f, S: TraceSource> Demux<'a, 'f, S> {
    /// Device `d`'s next arrival, pulling the source until one is for `d`.
    /// Past the boundary a survivor settles the victim first.
    fn next_for(&self, d: usize) -> Option<StreamArrival> {
        loop {
            let mut hub = self.hub.borrow_mut();
            let (is_victim, boundary, settled) = match &hub.failover {
                Some(f) => (f.outage.device == d, f.boundary || hub.dry, f.victim.is_some()),
                None => (false, false, true),
            };
            if hub.error.is_some() {
                return None;
            }
            if boundary && !settled && !is_victim {
                drop(hub);
                if let Err(e) = self.settle() {
                    self.hub.borrow_mut().error = Some(e);
                }
                continue;
            }
            if let Some(a) = hub.backlogs[d].pop_front() {
                if let (true, Some(f)) = (is_victim, &mut hub.failover) {
                    f.journal.push_back(a.clone());
                }
                return Some(a);
            }
            // The router sends the victim nothing from the outage cycle on.
            if hub.dry || (is_victim && boundary) {
                return None;
            }
            hub.advance();
        }
    }

    /// Steps the victim once and trims its journal to its latest
    /// checkpoint; `Ok(false)` once it crashed, completed, or settled.
    fn step_victim(&self) -> Result<bool, ServeError> {
        let mut victim = self.victim.borrow_mut();
        let Some(run) = victim.as_mut() else { return Ok(false) };
        let stepped = run.step();
        if let (Some(ck), Some(f)) = (run.checkpoint(), &mut self.hub.borrow_mut().failover) {
            let seen = ck.streams_pulled() - f.journal_base;
            f.journal.drain(..seen);
            f.journal_base += seen;
        }
        stepped
    }

    /// Settles the victim unless already settled (see the module docs); its
    /// input is complete, so running it to its crash pulls nothing new.
    fn settle(&self) -> Result<(), ServeError> {
        let Some(run) = self.victim.take() else { return Ok(()) };
        let crash = run.finish()?;
        let mut hub = self.hub.borrow_mut();
        let hub = &mut *hub;
        let f = hub.failover.as_mut().expect("only a failover run has a victim");
        let (v, fo) = (f.outage.device, self.cfg.failover.expect("failover is configured"));
        f.report.checkpoints_taken = crash.checkpoints_taken;
        f.report.checkpoint_bytes = crash.checkpoint_bytes;
        let mut blob_len = 0;
        f.victim = Some(match crash.completed {
            // The crash struck an idle device after its whole share
            // finished: nothing in flight, nothing to migrate.
            Some(done) => *done,
            None => {
                let ck = crash.checkpoint.expect("the batch-0 checkpoint always survives");
                blob_len = ck.encoded_len();
                let (machines, serve_cfg) = (&self.machines[v], &self.cfg.serve);
                let (durable, window) =
                    finalize_checkpoint(&self.devices[v].spec, machines, serve_cfg, &ck)?;
                // Orphans (its window, then every arrival it had not
                // pulled) re-shard like post-outage arrivals do.
                let unseen = f.journal.drain(ck.streams_pulled() - f.journal_base..);
                for a in window.into_iter().chain(unseen).chain(hub.backlogs[v].drain(..)) {
                    hub.pending[hub.router.survivor(a.machine)].push_back(a);
                }
                durable
            }
        });

        // Ship the checkpoint to every survivor that replays orphans as
        // Phase::Transfer H2D copies on its attach link. A failed copy
        // backs off and retries; the attempt after the budget is forced
        // through, every attempt and backoff paid for.
        let plan = self.cfg.serve.scheme_config.faults;
        for (d, dest) in hub.pending.iter_mut().enumerate().filter(|(_, p)| !p.is_empty()) {
            let dev = &self.devices[d];
            let (mut delta, mut attempt) = (0u64, 0u32);
            loop {
                let stats = link_transfer_stats(&dev.link, &dev.spec, blob_len);
                delta += stats.cycles;
                f.charges[d].merge_sequential(&stats);
                let failed =
                    plan.is_some_and(|p| p.copy_fails(FaultDomain::H2d, fault_coord(d), attempt));
                if !failed || attempt >= fo.migration_max_retries {
                    break;
                }
                f.report.migration_retries += 1;
                let (base, cap) =
                    (fo.migration_backoff_base_cycles, fo.migration_backoff_cap_cycles);
                delta += backoff_cycles(base, cap, attempt);
                attempt += 1;
            }
            f.report.replay_cycles += delta;
            f.report.migrations_replayed += dest.len() as u64;
            // An orphan is servable once the survivor holds the checkpoint
            // (clamped to the clock bound the serve layer enforces).
            let ready = f.outage.at_cycle.saturating_add(delta).min(MAX_ARRIVAL_CYCLE);
            for a in dest.iter_mut() {
                a.arrival_cycle = a.arrival_cycle.max(ready);
            }
        }

        // Refile the backlogs so each orphan precedes later-stamped arrivals.
        for d in 0..hub.backlogs.len() {
            for a in std::mem::take(&mut hub.backlogs[d]) {
                hub.file(d, a);
            }
        }
        hub.flush_pending();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::examples::div7;
    use gspecpal_fsm::random::random_dfa;

    /// Profiling each machine once changes nothing: every `[d][m]` entry
    /// equals machine `m` prepared on device `d` alone, also for a machine
    /// large enough that each device holds a different number of hot rows.
    #[test]
    fn shared_profiles_equal_per_device_preparation() {
        let dfas = [div7(), random_dfa(7, 300, 256), random_dfa(11, 40, 3)];
        let training: Vec<u8> =
            (0..2048u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8).collect();
        let classes = [PriorityClass::Bulk, PriorityClass::Deadline, PriorityClass::Bulk];
        let fleet: Vec<FleetMachine<'_>> = dfas
            .iter()
            .zip(classes)
            .map(|(dfa, class)| FleetMachine { dfa, training: &training, class })
            .collect();
        let devices = [
            ClusterDevice::test_unit(),
            ClusterDevice::t4_pcie(),
            ClusterDevice::rtx3090_pcie(),
            ClusterDevice::a100_nvlink(),
        ];
        let prepared = prepare_all(&devices, &fleet);
        for (d, row) in devices.iter().zip(&prepared) {
            for (m, got) in fleet.iter().zip(row) {
                let alone = ServeMachine::prepare(&d.spec, m.dfa, m.training).with_class(m.class);
                assert_eq!(*got, alone, "{} machine of {} states", d.spec.name, m.dfa.n_states());
            }
        }
        let hot: Vec<u32> = prepared.iter().map(|row| row[1].table().hot_rows()).collect();
        assert!(hot.windows(2).all(|w| w[0] < w[1]), "hot rows grow with shared memory: {hot:?}");
    }

    /// The router's per-machine placements are `HashRing::route` on the
    /// fleet's ring and on the ring without the outage device, over random
    /// device counts, point counts and outages.
    #[test]
    fn router_memo_equals_ring_routes() {
        let mut seed = 0u64;
        let mut draw = |n: u64| {
            seed += 1;
            (crate::ring::splitmix64(seed) % n) as usize
        };
        for _ in 0..200 {
            let n_devices = 1 + draw(8);
            let cfg = ClusterConfig {
                vnodes: 1 + draw(64),
                outage: (n_devices > 1 && draw(4) > 0)
                    .then(|| DeviceOutage { device: draw(n_devices as u64), at_cycle: 0 }),
                ..ClusterConfig::default()
            };
            let machines = 1 + draw(300);
            let devices = vec![ClusterDevice::test_unit(); n_devices];
            let router = Router::new(&devices, vec![0; machines], &cfg);
            let ring = HashRing::new(n_devices, cfg.vnodes);
            let survivors = cfg.outage.map(|o| ring.without(o.device));
            for m in 0..machines {
                assert_eq!(router.home[m], ring.route(m), "machine {m} of {n_devices} devices");
                if let Some(s) = &survivors {
                    assert_eq!(router.survivor(m), s.route(m), "survivor of machine {m}");
                }
            }
            assert_eq!(router.survivors.is_some(), survivors.is_some());
        }
    }
}
