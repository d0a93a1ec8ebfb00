//! The two fleet workloads.
//!
//! * `fleet_stream` — `run_cluster_source` pulling a `SyntheticSource`: 8
//!   machines interleaved at random over an A100 (NVLink) and a T4 (PCIe),
//!   `ReportDetail::Bounded`, residency on, FIFO(32), 8–24 B payloads,
//!   open-loop arrivals below the fleet's simulated capacity.
//! * `fleet_failover` — `run_cluster` on an A100 / RTX 3090 / T4 fleet
//!   with `ReportDetail::Full` and machine-contiguous arrivals; the device
//!   the `Router` assigns the most streams dies under `FailoverConfig`
//!   halfway through its own arrivals.
//!
//! The traced run re-does each fleet call from outside, one layer at a
//! time: source pull, `Router::route`, each device's standalone engine
//! (`serve_source` / `serve`, or `serve_until_crash` + checkpoint codec +
//! `finalize_checkpoint` on the victim), and checks that every standalone
//! report equals that device's slice of the `ClusterReport`.

use std::time::Instant;

use gspecpal_cluster::{
    run_cluster, run_cluster_source, splitmix64, ClusterConfig, ClusterDevice, ClusterReport,
    DeviceOutage, FailoverConfig, FleetMachine, HashRing, Router,
};
use gspecpal_fsm::examples::mod_counter;
use gspecpal_fsm::{Dfa, StateId};
use gspecpal_gpu::{link_transfer_stats, Phase};
use gspecpal_serve::{
    finalize_checkpoint, serve, serve_source, serve_until_crash, BatchPolicy, EngineCheckpoint,
    IterSource, PriorityClass, ReportDetail, ResidencyConfig, ServeConfig, ServeMachine,
    ServeReport, StreamArrival, SyntheticSource, Trace, MAX_ARRIVAL_CYCLE,
};

use crate::{fast_quantile, median, median_of, mib, ms, timed_passes, Args, Outcome, Setup, Stopwatch};

/// Machines (FSMs) the fleet serves.
const MACHINES: usize = 8;
/// Training bytes per machine for `ServeMachine::prepare`'s selector
/// profile.
const TRAINING_LEN: usize = 4096;
/// Payload lengths in bytes.
const PAYLOAD: std::ops::Range<usize> = 8..24;
/// Payload alphabet.
const ALPHABET: &[u8] = b"01";

/// `fleet_stream`: streams per pass.
const STREAM_STREAMS: usize = 25_000;
/// `fleet_stream`: passes per streaming call (the first pass makes one).
const STREAM_CALL_EVERY: usize = 8;
/// `fleet_stream`: mean inter-arrival gap in simulated cycles (uniform on
/// `0..=2*gap`), chosen below the fleet's simulated capacity.
const STREAM_MEAN_GAP: u64 = 2_000;

/// `fleet_failover`: streams per pass.
const FAILOVER_STREAMS: usize = 15_000;
/// `fleet_failover`: mean inter-arrival gap in simulated cycles.
const FAILOVER_MEAN_GAP: u64 = 200;
/// `fleet_failover`: arrivals per machine run (runs are machine-contiguous
/// so FIFO batches fill).
const FAILOVER_RUN: usize = 64;
/// `fleet_failover`: admission queue depth, deep enough that the orphan
/// replay burst after the crash does not backpressure.
const FAILOVER_QUEUE_DEPTH: usize = 1024;

/// A device's short name (as in `serve.engine_ms.<name>`) and preset.
type DevicePreset = (&'static str, fn() -> ClusterDevice);

/// A fleet and its machines, owned.
struct Fleet {
    names: Vec<&'static str>,
    devices: Vec<ClusterDevice>,
    dfas: Vec<Dfa>,
    training: Vec<Vec<u8>>,
}

impl Fleet {
    fn new(devices: &[DevicePreset], seed: u64) -> Fleet {
        let dfas = (0..MACHINES).map(|m| mod_counter(5 + m as u32, &[0])).collect();
        let training = (0..MACHINES)
            .map(|m| {
                let base = splitmix64(seed ^ (m as u64) << 32);
                (0..TRAINING_LEN)
                    .map(|i| ALPHABET[(splitmix64(base ^ i as u64) & 1) as usize])
                    .collect()
            })
            .collect();
        Fleet {
            names: devices.iter().map(|d| d.0).collect(),
            devices: devices.iter().map(|d| d.1()).collect(),
            dfas,
            training,
        }
    }

    fn machines(&self) -> Vec<FleetMachine<'_>> {
        self.dfas
            .iter()
            .zip(&self.training)
            .map(|(dfa, training)| FleetMachine { dfa, training, class: PriorityClass::Bulk })
            .collect()
    }

    /// Every machine prepared for every device, as `run_cluster` does it.
    fn prepare(&self) -> Vec<Vec<ServeMachine<'_>>> {
        self.devices
            .iter()
            .map(|d| {
                self.dfas
                    .iter()
                    .zip(&self.training)
                    .map(|(dfa, training)| ServeMachine::prepare(&d.spec, dfa, training))
                    .collect()
            })
            .collect()
    }

    fn footprints(machines: &[Vec<ServeMachine<'_>>]) -> Vec<u64> {
        machines[0].iter().map(|m| m.table_footprint_bytes() as u64).collect()
    }
}

/// Run-level checks every fleet report must pass: stream conservation,
/// nothing shed or lost, no growing backlog, exact phase partitions.
fn check_fleet(out: &mut Outcome, report: &ClusterReport, attempted: usize, depth: usize) {
    let served: usize = report.devices.iter().map(|d| d.report.served_streams()).sum();
    let shed = report.shed_streams as usize;
    let lost = report.lost_streams as usize;
    out.attempted += attempted as u64;
    out.check(served + shed + lost == attempted, || {
        format!("conservation: served {served} + shed {shed} + lost {lost} != {attempted}")
    });
    out.failed += (shed + lost) as u64;
    for d in &report.devices {
        let r = &d.report;
        out.check(r.backpressure_events == 0, || {
            format!("{}: {} backpressure events (growing backlog)", d.device, r.backpressure_events)
        });
        out.check(r.peak_queue < depth, || {
            format!("{}: queue peaked at its depth {depth} (growing backlog)", d.device)
        });
        out.check(r.stats.profile.total_cycles() == r.stats.cycles, || {
            format!("{}: phase cycles do not partition the busy total", d.device)
        });
    }
}

/// Serve-layer counters shared by both fleet workloads' traced runs.
fn serve_layer_metrics(out: &mut Outcome, report: &ClusterReport, engine_ms_total: f64) {
    let reports: Vec<&ServeReport> = report.devices.iter().map(|d| &d.report).collect();
    let batches: u64 = reports.iter().map(|r| r.batches_dispatched).sum();
    let transfer: u64 = reports.iter().map(|r| r.stats.profile.get(Phase::Transfer).cycles).sum();
    let busy: u64 = reports.iter().map(|r| r.stats.cycles).sum();
    let overlap_weighted: u64 = reports
        .iter()
        .map(|r| r.overlap_efficiency_permille * r.stats.profile.get(Phase::Transfer).cycles)
        .sum();
    out.metric("serve.batches", batches as f64);
    out.metric("serve.streams_per_batch", report.streams as f64 / batches as f64);
    out.metric("serve.us_per_batch", engine_ms_total * 1e3 / batches as f64);
    out.metric("serve.residency_hit_permille", report.residency_hit_permille() as f64);
    out.metric("serve.residency_copied_bytes", report.residency.copied_bytes as f64);
    out.metric("serve.transfer_mcycles", transfer as f64 / 1e6);
    out.metric("serve.compute_mcycles", (busy - transfer) as f64 / 1e6);
    out.metric("serve.overlap_permille", (overlap_weighted / transfer.max(1)) as f64);
    let bp: u64 = reports.iter().map(|r| r.backpressure_events).sum();
    out.metric("serve.backpressure_events", bp as f64);
    let peak = reports.iter().map(|r| r.peak_queue).max().unwrap_or(0);
    out.metric("serve.peak_queue", peak as f64);
    out.metric("cluster.imbalance_permille", report.imbalance_permille as f64);
    out.metric("cluster.migrations_replayed", report.failover.migrations_replayed as f64);
    out.metric("cluster.replay_cycles", report.failover.replay_cycles as f64);
    out.metric("cluster.lost_streams", report.lost_streams as f64);
}

/// End-to-end metrics shared by both fleet workloads; `times` holds each
/// timed `run_cluster` call's `(wall, CPU)` seconds. Throughput is the
/// fast quantile of the calls' process CPU time ([`fast_quantile`]); the
/// median wall clock is printed beside it.
fn fleet_end_to_end(out: &mut Outcome, report: &ClusterReport, times: &[(f64, f64)]) {
    let wall = median_of(times, |t| t.0);
    let cpu = fast_quantile(&times.iter().map(|t| t.1).collect::<Vec<_>>());
    let bytes: usize = report.devices.iter().map(|d| d.report.total_bytes).sum();
    out.metric("streams_per_cpu_s", report.streams as f64 / cpu);
    out.metric("input_mib_per_cpu_s", mib(bytes as u64) / cpu);
    out.note(format!(
        "timed call, median wall clock: {:.0} streams/s, {:.2} MiB/s",
        report.streams as f64 / wall,
        mib(bytes as u64) / wall
    ));
    out.metric("makespan_cycles", report.makespan_cycles as f64);
    out.metric("delivery_p50_cycles", report.delivery.p50 as f64);
    // Fleet passes serve far more than 1000 streams, so the tail is p99.
    out.metric("delivery_tail_cycles", report.delivery.p99 as f64);
    out.note(format!(
        "{} passes of {} streams; delivery_tail = p99; exact_latency={} ({})",
        times.len(),
        report.streams,
        report.exact_latency,
        if report.exact_latency {
            "fleet percentiles over every served stream"
        } else {
            "delivery_* are upper bounds: field-wise max of per-device summaries"
        }
    ));
}

/// Names the layer holding the most host time among `(layer, ms)` pairs.
fn note_hottest(out: &mut Outcome, wall_ms: f64, layers: &[(String, f64)]) {
    let mut line = format!("host time of one {wall_ms:.0} ms fleet call by layer:");
    for (name, t) in layers {
        line.push_str(&format!(" {name} {t:.0} ms ({:.0}%);", t * 100.0 / wall_ms));
    }
    out.note(line);
    if let Some((name, t)) = layers.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        out.note(format!("hottest layer: {name} ({t:.0} ms)"));
    }
}

// ---------------------------------------------------------------------------
// fleet_stream
// ---------------------------------------------------------------------------

const STREAM_DEVICES: [DevicePreset; 2] =
    [("a100", ClusterDevice::a100_nvlink), ("t4", ClusterDevice::t4_pcie)];

fn stream_config() -> ClusterConfig {
    ClusterConfig {
        serve: ServeConfig {
            policy: BatchPolicy::Fifo { batch: 32 },
            detail: ReportDetail::Bounded,
            residency: Some(ResidencyConfig { capacity_bytes: 24 * 1024 }),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn stream_source(seed: u64) -> SyntheticSource {
    SyntheticSource::new(seed, STREAM_STREAMS, MACHINES, STREAM_MEAN_GAP, PAYLOAD, ALPHABET)
}

/// Layer timings of one traced `fleet_stream` pass.
struct StreamTrace {
    pull_ms: f64,
    route_ms: f64,
    engine_ms: Vec<f64>,
    e2e_ms: f64,
}

/// Runs `fleet_stream`, filling `out`.
pub fn run_stream(args: &Args, out: &mut Outcome) {
    let cfg = stream_config();
    let depth = cfg.serve.max_queue_depth;
    let (setup, fleet) = Setup::new(|| {
        let fleet = Fleet::new(&STREAM_DEVICES, args.seed);
        std::hint::black_box(Fleet::footprints(&fleet.prepare()));
        fleet
    });
    let machines = fleet.machines();
    out.note(format!(
        "{MACHINES} machines over {:?}, open loop: mean gap {STREAM_MEAN_GAP} cycles, \
         FIFO(32), Bounded, residency 24 KiB",
        fleet.names
    ));

    if !args.trace {
        // Timed: `run_cluster` over the materialised source, one thread.
        // `run_cluster_source` (checked equal to it every
        // `STREAM_CALL_EVERY` passes) hands each arrival to a device thread
        // over a bounded channel; with three threads on a host of a few
        // shared cores its time is set by the scheduler, so it is printed
        // beside the metrics, not made one.
        let mut first: Option<ClusterReport> = None;
        let mut streamed_walls = Vec::new();
        let mut pass = 0..;
        let times = timed_passes(args.seconds, || {
            let streaming = pass.next().expect("unbounded range") % STREAM_CALL_EVERY == 0;
            let clock = Stopwatch::start();
            let r = {
                let trace = Trace::from_arrivals(stream_source(args.seed).collect());
                run_cluster(&fleet.devices, &machines, &trace, &cfg)
            };
            let elapsed = clock.elapsed();
            let streamed = streaming.then(|| {
                let t0 = Instant::now();
                let r =
                    run_cluster_source(&fleet.devices, &machines, stream_source(args.seed), &cfg);
                streamed_walls.push(t0.elapsed().as_secs_f64());
                r
            });
            match r {
                Ok(report) => {
                    check_fleet(out, &report, STREAM_STREAMS, depth);
                    if let Some(streamed) = streamed {
                        out.check(streamed.as_ref().is_ok_and(|s| *s == report), || {
                            match &streamed {
                                Ok(_) => "run_cluster_source != run_cluster on the same arrivals"
                                    .into(),
                                Err(e) => format!("run_cluster_source failed: {e}"),
                            }
                        });
                    }
                    match &first {
                        None => first = Some(report),
                        Some(f) => {
                            out.check(*f == report, || "fleet reports differ between passes".into())
                        }
                    }
                }
                Err(e) => {
                    out.attempted += STREAM_STREAMS as u64;
                    out.check(false, || format!("run_cluster failed: {e}"));
                }
            }
            elapsed
        });
        if let Some(report) = &first {
            fleet_end_to_end(out, report, &times);
            out.note(format!(
                "streaming call run_cluster_source ({} threads): {:.0} streams/s wall (median \
                 of {} calls; scheduler-bound, not a metric)",
                fleet.devices.len() + 1,
                STREAM_STREAMS as f64 / median(&streamed_walls),
                streamed_walls.len()
            ));
        }
        drop(machines);
        drop(fleet);
        out.metric("setup_s", setup.finish());
        return;
    }

    let prepared = fleet.prepare();
    let footprints = Fleet::footprints(&prepared);
    let mut last: Option<ClusterReport> = None;
    let passes = timed_passes(args.seconds, || {
        let t0 = Instant::now();
        let arrivals: Vec<StreamArrival> = stream_source(args.seed).collect();
        let pull_ms = ms(t0.elapsed());

        let mut router = Router::new(&fleet.devices, footprints.clone(), &cfg);
        let t0 = Instant::now();
        let routes: Vec<usize> = arrivals
            .iter()
            .map(|a| router.route(a.machine, a.arrival_cycle, a.bytes.len()))
            .collect();
        let route_ms = ms(t0.elapsed());

        let mut shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); fleet.devices.len()];
        for (a, d) in arrivals.into_iter().zip(routes) {
            shares[d].push(a);
        }
        let mut engine_ms = Vec::new();
        let mut standalone = Vec::new();
        for (d, share) in shares.into_iter().enumerate() {
            let t0 = Instant::now();
            let r = serve_source(
                &fleet.devices[d].spec,
                &prepared[d],
                IterSource(share.into_iter()),
                &cfg.serve,
            );
            engine_ms.push(ms(t0.elapsed()));
            standalone.push(r);
        }

        let t0 = Instant::now();
        let r = run_cluster_source(&fleet.devices, &machines, stream_source(args.seed), &cfg);
        let e2e_ms = ms(t0.elapsed());
        match r {
            Ok(report) => {
                check_fleet(out, &report, STREAM_STREAMS, depth);
                for (d, s) in standalone.iter().enumerate() {
                    let same = s.as_ref().is_ok_and(|s| *s == report.devices[d].report);
                    out.check(same, || {
                        format!(
                            "{}: standalone serve_source != its ClusterReport slice",
                            fleet.names[d]
                        )
                    });
                }
                last = Some(report);
            }
            Err(e) => {
                out.attempted += STREAM_STREAMS as u64;
                out.check(false, || format!("run_cluster_source failed: {e}"));
            }
        }
        StreamTrace { pull_ms, route_ms, engine_ms, e2e_ms }
    });
    let Some(report) = last else { return };
    let pull = median_of(&passes, |p| p.pull_ms);
    let route = median_of(&passes, |p| p.route_ms);
    let engines: Vec<f64> =
        (0..fleet.devices.len()).map(|d| median_of(&passes, |p| p.engine_ms[d])).collect();
    let e2e = median_of(&passes, |p| p.e2e_ms);
    // Device engines run on their own threads: the slowest one is the
    // critical path of the call.
    let critical = engines.iter().copied().fold(0.0, f64::max);
    let fanout = e2e - critical - pull - route;
    out.metric("serve.source.pull_ms", pull);
    out.metric("cluster.route_ms", route);
    out.metric("cluster.route_ns_per_stream", route * 1e6 / STREAM_STREAMS as f64);
    out.metric("cluster.critical_path_ms", critical);
    out.metric("cluster.fanout_overhead_ms", fanout);
    for (d, name) in fleet.names.iter().enumerate() {
        out.metric(format!("serve.engine_ms.{name}"), engines[d]);
    }
    serve_layer_metrics(out, &report, engines.iter().sum());
    let mut layers = vec![
        ("serve.source.pull".to_string(), pull),
        ("cluster.route".to_string(), route),
        ("cluster.fanout_overhead".to_string(), fanout),
    ];
    for (d, name) in fleet.names.iter().enumerate() {
        let r = &report.devices[d].report;
        out.note(format!(
            "{name}: {} streams in {} batches, {:.0} ms standalone engine",
            r.streams, r.batches_dispatched, engines[d]
        ));
        layers.push((format!("serve.engine.{name}"), engines[d]));
    }
    note_hottest(out, e2e, &layers);
}

// ---------------------------------------------------------------------------
// fleet_failover
// ---------------------------------------------------------------------------

const FAILOVER_DEVICES: [DevicePreset; 3] = [
    ("a100", ClusterDevice::a100_nvlink),
    ("rtx3090", ClusterDevice::rtx3090_pcie),
    ("t4", ClusterDevice::t4_pcie),
];

fn failover_serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy::Fifo { batch: 32 },
        detail: ReportDetail::Full,
        max_queue_depth: FAILOVER_QUEUE_DEPTH,
        ..ServeConfig::default()
    }
}

/// Everything `fleet_failover` derives before timing: the trace, the
/// reference answers, the victim, and the routed shares.
struct FailoverSetup {
    fleet: Fleet,
    trace: Trace,
    /// `Dfa::run` of every arrival, trace order.
    expected: Vec<StateId>,
    cfg: ClusterConfig,
    victim: usize,
    /// Trace indices routed to each device under the outage config.
    shares: Vec<Vec<usize>>,
}

fn failover_setup(seed: u64) -> FailoverSetup {
    let fleet = Fleet::new(&FAILOVER_DEVICES, seed);
    let mut arrivals: Vec<StreamArrival> =
        SyntheticSource::new(seed, FAILOVER_STREAMS, 1, FAILOVER_MEAN_GAP, PAYLOAD, ALPHABET)
            .collect();
    for (i, a) in arrivals.iter_mut().enumerate() {
        let run = (i / FAILOVER_RUN) as u64;
        a.machine = (splitmix64(seed ^ run << 20) % MACHINES as u64) as usize;
    }
    let trace = Trace::from_arrivals(arrivals);
    let expected = trace.arrivals().iter().map(|a| fleet.dfas[a.machine].run(&a.bytes)).collect();

    let prepared = fleet.prepare();
    let footprints = Fleet::footprints(&prepared);
    let base = ClusterConfig { serve: failover_serve_config(), ..ClusterConfig::default() };
    // The busiest device is the one the router assigns the most streams.
    let mut router = Router::new(&fleet.devices, footprints.clone(), &base);
    let mut planned = vec![Vec::new(); fleet.devices.len()];
    for a in trace.arrivals() {
        planned[router.route(a.machine, a.arrival_cycle, a.bytes.len())].push(a.arrival_cycle);
    }
    let victim = (0..planned.len()).max_by_key(|&d| (planned[d].len(), d)).expect("nonempty fleet");
    // Halfway through the victim's own arrivals, inside one of its machine
    // runs (the previous victim arrival is at most two mean gaps back), so
    // it dies with work in flight rather than idle between runs.
    let mine = &planned[victim];
    let mid = (mine.len() / 2..mine.len())
        .find(|&i| mine[i] - mine[i - 1] <= 2 * FAILOVER_MEAN_GAP)
        .expect("the victim serves whole machine runs");
    let at_cycle = mine[mid];
    let cfg = ClusterConfig {
        outage: Some(DeviceOutage { device: victim, at_cycle }),
        failover: Some(FailoverConfig::default()),
        ..base
    };
    let mut router = Router::new(&fleet.devices, footprints, &cfg);
    let mut shares = vec![Vec::new(); fleet.devices.len()];
    for (i, a) in trace.arrivals().iter().enumerate() {
        shares[router.route(a.machine, a.arrival_cycle, a.bytes.len())].push(i);
    }
    drop(prepared);
    FailoverSetup { fleet, trace, expected, cfg, victim, shares }
}

/// Checks every answer of a failover report against `Dfa::run`. The
/// victim's durable prefix and each survivor's pre-outage prefix are
/// compared stream by stream; a survivor's post-outage tail interleaves
/// re-stamped orphans with live arrivals, so it is compared as a multiset.
fn check_failover_answers(out: &mut Outcome, s: &FailoverSetup, report: &ClusterReport) {
    let outage = s.cfg.outage.expect("failover config has an outage");
    let arrivals = s.trace.arrivals();
    let v = s.victim;
    let durable = &report.devices[v].report;
    let victim_share = &s.shares[v];
    let n_durable = durable.streams.min(victim_share.len());
    let mut wrong = 0u64;
    for (i, &idx) in victim_share[..n_durable].iter().enumerate() {
        wrong += u64::from(durable.end_states.get(i) != Some(&s.expected[idx]));
    }
    let survivors = HashRing::new(s.fleet.devices.len(), s.cfg.vnodes).without(v);
    let mut orphans: Vec<Vec<usize>> = vec![Vec::new(); s.fleet.devices.len()];
    for &idx in &victim_share[n_durable..] {
        orphans[survivors.route(arrivals[idx].machine)].push(idx);
    }
    for d in (0..s.fleet.devices.len()).filter(|&d| d != v) {
        let r = &report.devices[d].report;
        let expected_len = s.shares[d].len() + orphans[d].len();
        out.check(r.end_states.len() == expected_len, || {
            format!("{}: {} answers, expected {expected_len}", s.fleet.names[d], r.end_states.len())
        });
        let prefix = s.shares[d]
            .iter()
            .take_while(|&&i| arrivals[i].arrival_cycle < outage.at_cycle)
            .count();
        for (i, &idx) in s.shares[d][..prefix].iter().enumerate() {
            wrong += u64::from(r.end_states.get(i) != Some(&s.expected[idx]));
        }
        let mut want: Vec<StateId> =
            s.shares[d][prefix..].iter().chain(&orphans[d]).map(|&i| s.expected[i]).collect();
        let mut got: Vec<StateId> = r.end_states.get(prefix..).unwrap_or_default().to_vec();
        want.sort_unstable();
        got.sort_unstable();
        // Streams unmatched between the two sorted multisets.
        let (mut i, mut j, mut matched) = (0, 0, 0u64);
        while i < want.len() && j < got.len() {
            match want[i].cmp(&got[j]) {
                std::cmp::Ordering::Equal => {
                    matched += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        wrong += want.len() as u64 - matched.min(want.len() as u64);
    }
    out.failed += wrong;
    if wrong > 0 {
        out.note(format!("{wrong} answers differ from Dfa::run"));
    }
    out.check(report.exact_latency, || "Full detail must give exact fleet percentiles".into());
    out.check(report.failover.migrations_replayed > 0, || {
        "the crash struck an idle victim: no orphan was replayed".into()
    });
}

/// Layer timings of one traced `fleet_failover` pass.
struct FailoverTrace {
    route_ms: f64,
    engine_ms: Vec<f64>,
    until_crash_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    finalize_ms: f64,
    e2e_ms: f64,
}

/// Re-does the failover call from outside, one layer at a time, checking
/// every standalone result against the cluster report's slices.
fn failover_traced_pass(
    out: &mut Outcome,
    s: &FailoverSetup,
    prepared: &[Vec<ServeMachine<'_>>],
    footprints: &[u64],
    report: &ClusterReport,
) -> FailoverTrace {
    let outage = s.cfg.outage.expect("failover config has an outage");
    let fo = s.cfg.failover.expect("failover config");
    let arrivals = s.trace.arrivals();
    let n = s.fleet.devices.len();
    let v = s.victim;

    let mut router = Router::new(&s.fleet.devices, footprints.to_vec(), &s.cfg);
    let t0 = Instant::now();
    let routes: Vec<usize> =
        arrivals.iter().map(|a| router.route(a.machine, a.arrival_cycle, a.bytes.len())).collect();
    let route_ms = ms(t0.elapsed());
    let mut shares: Vec<Vec<StreamArrival>> = vec![Vec::new(); n];
    for (a, d) in arrivals.iter().zip(routes) {
        shares[d].push(a.clone());
    }

    let spec_v = &s.fleet.devices[v].spec;
    let t0 = Instant::now();
    let crash = serve_until_crash(
        spec_v,
        &prepared[v],
        IterSource(shares[v].iter().cloned()),
        &s.cfg.serve,
        fo.checkpoint_every_batches,
        outage.at_cycle,
    );
    let until_crash_ms = ms(t0.elapsed());
    let mut t = FailoverTrace {
        route_ms,
        engine_ms: vec![0.0; n],
        until_crash_ms,
        encode_ms: 0.0,
        decode_ms: 0.0,
        finalize_ms: 0.0,
        e2e_ms: 0.0,
    };
    let ck = match crash {
        Ok(c) if c.checkpoint.is_some() && c.completed.is_none() => {
            out.check(c.checkpoints_taken == report.failover.checkpoints_taken, || {
                "standalone checkpoint count != ClusterReport's".into()
            });
            c.checkpoint.expect("checked above")
        }
        other => {
            out.check(false, || match other {
                Ok(c) => format!(
                    "victim did not crash mid-run: completed={} checkpoint={}",
                    c.completed.is_some(),
                    c.checkpoint.is_some()
                ),
                Err(e) => format!("serve_until_crash failed: {e}"),
            });
            return t;
        }
    };
    let t0 = Instant::now();
    let blob = ck.encode();
    t.encode_ms = ms(t0.elapsed());
    let t0 = Instant::now();
    let decoded = EngineCheckpoint::decode(&blob);
    t.decode_ms = ms(t0.elapsed());
    out.check(decoded.as_ref().is_ok_and(|d| *d == *ck), || {
        "checkpoint decode(encode) != checkpoint".into()
    });
    let t0 = Instant::now();
    let finalized = finalize_checkpoint(spec_v, &prepared[v], &s.cfg.serve, &ck);
    t.finalize_ms = ms(t0.elapsed());
    t.engine_ms[v] = t.until_crash_ms + t.finalize_ms;
    let Ok((durable, mut orphans)) = finalized else {
        out.check(false, || "finalize_checkpoint failed".into());
        return t;
    };
    out.check(durable == report.devices[v].report, || {
        "victim: finalized checkpoint != its ClusterReport slice".into()
    });
    orphans.extend(shares[v][ck.streams_pulled()..].iter().cloned());

    // Survivors replay the orphans the surviving ring routes to them, once
    // the checkpoint has crossed their link (no fault plan: one attempt).
    let survivors = HashRing::new(n, s.cfg.vnodes).without(v);
    let mut replay: Vec<Vec<StreamArrival>> = vec![Vec::new(); n];
    for a in orphans {
        replay[survivors.route(a.machine)].push(a);
    }
    for d in (0..n).filter(|&d| d != v) {
        let dev = &s.fleet.devices[d];
        let charge = link_transfer_stats(&dev.link, &dev.spec, blob.len());
        let ready = outage.at_cycle.saturating_add(charge.cycles).min(MAX_ARRIVAL_CYCLE);
        let mut sub = std::mem::take(&mut shares[d]);
        let replays = !replay[d].is_empty();
        sub.extend(replay[d].drain(..).map(|mut a| {
            a.arrival_cycle = a.arrival_cycle.max(ready);
            a
        }));
        let sub = Trace::from_arrivals(sub);
        let t0 = Instant::now();
        let r = serve(&dev.spec, &prepared[d], &sub, &s.cfg.serve);
        t.engine_ms[d] = ms(t0.elapsed());
        let same = r.is_ok_and(|mut r| {
            if replays {
                r.stats.merge_sequential(&charge);
            }
            r == report.devices[d].report
        });
        out.check(same, || {
            format!("{}: standalone serve != its ClusterReport slice", s.fleet.names[d])
        });
    }

    let machines = s.fleet.machines();
    let t0 = Instant::now();
    let again = run_cluster(&s.fleet.devices, &machines, &s.trace, &s.cfg);
    t.e2e_ms = ms(t0.elapsed());
    out.check(again.is_ok_and(|r| r == *report), || "run_cluster is not deterministic".into());
    t
}

/// Runs `fleet_failover`, filling `out`.
pub fn run_failover(args: &Args, out: &mut Outcome) {
    let (setup, s) = Setup::new(|| failover_setup(args.seed));
    let machines = s.fleet.machines();
    let depth = s.cfg.serve.max_queue_depth;
    let outage = s.cfg.outage.expect("failover config has an outage");
    out.note(format!(
        "{MACHINES} machines over {:?}, runs of {FAILOVER_RUN} per machine, mean gap \
         {FAILOVER_MEAN_GAP} cycles, FIFO(32), Full; {} dies at cycle {} of {}",
        s.fleet.names,
        s.fleet.names[s.victim],
        outage.at_cycle,
        s.trace.arrivals().last().map_or(0, |a| a.arrival_cycle)
    ));

    let run = |out: &mut Outcome| {
        let clock = Stopwatch::start();
        let r = run_cluster(&s.fleet.devices, &machines, &s.trace, &s.cfg);
        let elapsed = clock.elapsed();
        match r {
            Ok(report) => {
                check_fleet(out, &report, s.trace.len(), depth);
                check_failover_answers(out, &s, &report);
                Some((report, elapsed))
            }
            Err(e) => {
                out.attempted += s.trace.len() as u64;
                out.check(false, || format!("run_cluster failed: {e}"));
                None
            }
        }
    };

    if !args.trace {
        let mut first: Option<ClusterReport> = None;
        let times = timed_passes(args.seconds, || {
            let Some((report, elapsed)) = run(out) else { return (0.0, 0.0) };
            match &first {
                None => first = Some(report),
                Some(f) => out.check(*f == report, || "fleet reports differ between passes".into()),
            }
            elapsed
        });
        if let Some(report) = &first {
            fleet_end_to_end(out, report, &times);
        }
        drop(machines);
        drop(s);
        out.metric("setup_s", setup.finish());
        return;
    }

    let Some((report, _)) = run(out) else { return };
    let prepared = s.fleet.prepare();
    let footprints = Fleet::footprints(&prepared);
    let passes = timed_passes(args.seconds, || {
        failover_traced_pass(out, &s, &prepared, &footprints, &report)
    });
    let engines: Vec<f64> =
        (0..s.fleet.devices.len()).map(|d| median_of(&passes, |p| p.engine_ms[d])).collect();
    let route = median_of(&passes, |p| p.route_ms);
    let e2e = median_of(&passes, |p| p.e2e_ms);
    // `run_cluster` serves the devices one after another: the engines add
    // up to the call's critical path.
    let critical: f64 = engines.iter().sum();
    out.metric("cluster.route_ms", route);
    out.metric("cluster.route_ns_per_stream", route * 1e6 / s.trace.len() as f64);
    out.metric("cluster.critical_path_ms", critical);
    out.metric("cluster.fanout_overhead_ms", e2e - critical - route);
    for (d, name) in s.fleet.names.iter().enumerate() {
        out.metric(format!("serve.engine_ms.{name}"), engines[d]);
    }
    out.metric("serve.until_crash_ms", median_of(&passes, |p| p.until_crash_ms));
    out.metric("serve.checkpoint.count", report.failover.checkpoints_taken as f64);
    out.metric("serve.checkpoint.bytes", report.failover.checkpoint_bytes as f64);
    out.metric("serve.checkpoint.encode_ms", median_of(&passes, |p| p.encode_ms));
    out.metric("serve.checkpoint.decode_ms", median_of(&passes, |p| p.decode_ms));
    out.metric("serve.finalize_ms", median_of(&passes, |p| p.finalize_ms));
    serve_layer_metrics(out, &report, critical);
    let mut layers = vec![
        ("cluster.route".to_string(), route),
        ("cluster.fanout_overhead".to_string(), e2e - critical - route),
    ];
    for (d, name) in s.fleet.names.iter().enumerate() {
        layers.push((format!("serve.engine.{name}"), engines[d]));
    }
    note_hottest(out, e2e, &layers);
}
