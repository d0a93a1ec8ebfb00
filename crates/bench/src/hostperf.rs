//! Host-side throughput of the serving engine: the `hostperf` experiment.
//!
//! Every other experiment in this crate measures *simulated device cycles*
//! — deterministic, byte-stable, CI-gated. This one measures the host:
//! how fast the streaming serve engine ([`gspecpal_serve::serve_source`])
//! itself chews through arrivals, and how much memory it holds while doing
//! so. The workload is a million-stream synthetic trace pulled from a
//! generator, served under [`ReportDetail::Bounded`], so the run proves the
//! tentpole claim end to end: resident memory stays bounded by the queue
//! depth and the report's fixed-budget sketches, not the stream count.
//!
//! Wall-clock throughput is inherently machine-dependent, so
//! `BENCH_hostperf.json` is a *warn-only artifact*: CI uploads it for
//! trend-watching but never gates on it. The deterministic fields
//! (makespan, batches, latency summary) double as a cheap cross-check that
//! the streaming path computed the same simulation everywhere.

use std::time::Instant;

use gspecpal_cluster::{run_cluster_source, ClusterConfig, ClusterDevice, FleetMachine};
use gspecpal_gpu::DeviceSpec;
use gspecpal_serve::{
    serve_source, BatchPolicy, LatencySummary, PriorityClass, ReportDetail, ResidencyConfig,
    ServeConfig, ServeMachine, SyntheticSource,
};

use crate::cluster_exp::{fleet_dfas, RESIDENCY_BYTES};

/// Generator seed.
pub(crate) const SEED: u64 = 1;
/// Mean inter-arrival gap in cycles (bursty at small values, so batches fill
/// and the queue actually backpressures).
pub(crate) const MEAN_GAP: u64 = 1;
/// Per-stream payload length range in bytes. Small payloads keep the
/// simulated kernel cheap, so the measurement is dominated by the host
/// engine — admission, batching, accounting — which is the thing under
/// test.
pub(crate) const LEN_RANGE: std::ops::Range<usize> = 8..24;

/// Workload shape for [`throughput_exp`]; the generator's seed, gap and
/// payload lengths are the constants above.
#[derive(Clone, Debug)]
pub struct HostPerfConfig {
    /// Streams to pull through the engine.
    pub streams: usize,
    /// Simulated device the engine schedules against.
    pub device: DeviceSpec,
}

impl Default for HostPerfConfig {
    fn default() -> Self {
        HostPerfConfig { streams: 1_000_000, device: DeviceSpec::rtx3090() }
    }
}

/// Result of one [`throughput_exp`] run.
#[derive(Clone, Debug)]
pub struct HostPerfReport {
    /// Streams served (all of them — nothing is shed in this workload).
    pub streams: u64,
    /// Total payload bytes pulled through the engine.
    pub total_bytes: u64,
    /// Simulated makespan — deterministic, unlike the wall-clock fields.
    pub makespan_cycles: u64,
    /// Engine-busy simulated cycles (copies + kernels).
    pub busy_cycles: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Delivery-latency summary (sketched past the exact threshold).
    pub delivery: LatencySummary,
    /// Error bound the summary carries (4‰ once sketched).
    pub latency_error_permille: u64,
    /// Peak admission-queue depth observed.
    pub peak_queue: u64,
    /// Host wall-clock of the serve call, in milliseconds.
    pub wall_ms: u64,
    /// Streams per host second.
    pub streams_per_sec: f64,
    /// Payload megabytes per host second.
    pub mbytes_per_sec: f64,
    /// Peak resident set size (`VmHWM`) of the process in KiB, when the
    /// platform exposes it — the bounded-memory number the ISSUE asks for.
    pub peak_rss_kb: Option<u64>,
}

/// Peak resident set size (`VmHWM`) of this process in KiB. Linux-only by
/// nature of procfs; `None` anywhere the file is absent or unparsable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the host-throughput experiment: pulls `cfg.streams` synthetic
/// arrivals through the streaming serve engine in bounded-memory mode and
/// measures host wall-clock, throughput, and peak RSS alongside the
/// deterministic simulation outputs.
pub fn throughput_exp(cfg: &HostPerfConfig) -> HostPerfReport {
    let dfa = gspecpal_fsm::examples::div7();
    let machine = ServeMachine::prepare(&cfg.device, &dfa, &b"110100".repeat(256));
    let serve_cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 32 },
        detail: ReportDetail::Bounded,
        ..ServeConfig::default()
    };
    let source = SyntheticSource::new(SEED, cfg.streams, 1, MEAN_GAP, LEN_RANGE, b"01");
    let t0 = Instant::now();
    let report = serve_source(&cfg.device, std::slice::from_ref(&machine), source, &serve_cfg)
        .expect("synthetic workload is always servable");
    let wall = t0.elapsed();
    let secs = wall.as_secs_f64().max(1e-6);
    HostPerfReport {
        streams: report.streams as u64,
        total_bytes: report.total_bytes as u64,
        makespan_cycles: report.makespan_cycles,
        busy_cycles: report.stats.cycles,
        batches: report.batches_dispatched,
        delivery: report.delivery,
        latency_error_permille: report.latency_error_permille,
        peak_queue: report.peak_queue as u64,
        wall_ms: wall.as_millis() as u64,
        streams_per_sec: report.streams as f64 / secs,
        mbytes_per_sec: report.total_bytes as f64 / (1024.0 * 1024.0) / secs,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Result of one [`fleet_throughput_exp`] run: the cluster row of the
/// host-throughput harness.
#[derive(Clone, Debug)]
pub struct FleetPerfReport {
    /// Streams routed fleet-wide.
    pub streams: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Fleet makespan — deterministic.
    pub makespan_cycles: u64,
    /// `(device name, streams)` per device, in device order.
    pub device_streams: Vec<(String, u64)>,
    /// Fleet residency hit rate in permille.
    pub residency_hit_permille: u64,
    /// Peak-to-mean device load in permille.
    pub imbalance_permille: u64,
    /// Delivery-latency upper bound over the fleet (per-device summaries
    /// are sketched in bounded mode).
    pub delivery: LatencySummary,
    /// Host wall-clock of the cluster run, in milliseconds.
    pub wall_ms: u64,
    /// Streams per host second through router + device engines.
    pub streams_per_sec: f64,
    /// Peak resident set size in KiB, where procfs exposes it.
    pub peak_rss_kb: Option<u64>,
}

/// How many machines (FSMs) the fleet row spreads the synthetic workload
/// over.
const FLEET_MACHINES: usize = 8;

/// Runs the cluster row of the host-throughput harness: the same
/// million-stream synthetic source routed across a heterogeneous
/// A100/RTX 3090/T4 fleet via [`run_cluster_source`] — one host thread
/// demultiplexing the source into the three device engines — every device
/// in bounded-memory mode with residency modeling on. Wall-clock fields
/// are machine-dependent (warn-only); the simulated fields are
/// deterministic.
pub fn fleet_throughput_exp(cfg: &HostPerfConfig) -> FleetPerfReport {
    let dfas = fleet_dfas(FLEET_MACHINES);
    let fleet: Vec<FleetMachine<'_>> = dfas
        .iter()
        .map(|dfa| FleetMachine { dfa, training: b"0110", class: PriorityClass::Bulk })
        .collect();
    let devices =
        vec![ClusterDevice::a100_nvlink(), ClusterDevice::rtx3090_pcie(), ClusterDevice::t4_pcie()];
    let cluster_cfg = ClusterConfig {
        serve: ServeConfig {
            policy: BatchPolicy::Fifo { batch: 32 },
            detail: ReportDetail::Bounded,
            residency: Some(ResidencyConfig { capacity_bytes: RESIDENCY_BYTES }),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let source =
        SyntheticSource::new(SEED, cfg.streams, FLEET_MACHINES, MEAN_GAP, LEN_RANGE, b"01");
    let t0 = Instant::now();
    let report = run_cluster_source(&devices, &fleet, source, &cluster_cfg)
        .expect("synthetic fleet workload is always servable");
    let wall = t0.elapsed();
    let secs = wall.as_secs_f64().max(1e-6);
    FleetPerfReport {
        streams: report.streams as u64,
        total_bytes: report.devices.iter().map(|d| d.report.total_bytes as u64).sum(),
        makespan_cycles: report.makespan_cycles,
        device_streams: report
            .devices
            .iter()
            .map(|d| (d.device.clone(), d.report.streams as u64))
            .collect(),
        residency_hit_permille: report.residency.hit_permille(),
        imbalance_permille: report.imbalance_permille,
        delivery: report.delivery,
        wall_ms: wall.as_millis() as u64,
        streams_per_sec: report.streams as f64 / secs,
        peak_rss_kb: peak_rss_kb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_fields_are_deterministic_and_complete() {
        // A miniature of the million-stream run: everything served, nothing
        // materialized, and two runs agree on every simulated field (only
        // the wall-clock numbers may differ).
        let cfg = HostPerfConfig { streams: 6_000, ..HostPerfConfig::default() };
        let a = throughput_exp(&cfg);
        let b = throughput_exp(&cfg);
        assert_eq!(a.streams, 6_000);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.busy_cycles, b.busy_cycles);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(a.peak_queue, b.peak_queue);
        // Past the exact threshold the summary must carry the sketch bound.
        assert_eq!(a.latency_error_permille, gspecpal_serve::LatencySketch::ERROR_PERMILLE);
        assert!(a.delivery.max >= a.delivery.p99);
        assert!(a.streams_per_sec > 0.0);
    }

    #[test]
    fn fleet_row_is_deterministic_in_its_simulated_fields() {
        let cfg = HostPerfConfig { streams: 4_000, ..HostPerfConfig::default() };
        let a = fleet_throughput_exp(&cfg);
        let b = fleet_throughput_exp(&cfg);
        assert_eq!(a.streams, 4_000);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.device_streams, b.device_streams);
        assert_eq!(a.residency_hit_permille, b.residency_hit_permille);
        assert_eq!(a.imbalance_permille, b.imbalance_permille);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(a.device_streams.len(), 3);
        assert!(a.device_streams.iter().all(|(_, n)| *n > 0), "{:?}", a.device_streams);
        assert!(a.residency_hit_permille > 0);
    }

    #[test]
    fn rss_probe_works_where_procfs_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            let kb = peak_rss_kb().expect("VmHWM parses on procfs platforms");
            assert!(kb > 0);
        }
    }
}
