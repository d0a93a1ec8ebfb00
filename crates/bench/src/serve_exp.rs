//! The `serve` experiment: end-to-end serving of a multi-machine arrival
//! trace under every batching policy, with and without copy/compute
//! overlap.
//!
//! This is the experiment the ROADMAP's "multi-stream serving" line asks
//! for: instead of one-shot batches it drives the full `gspecpal-serve`
//! pipeline — admission, batching, PCIe transfer charging, double-buffered
//! overlap — over a deterministic trace of streams for two rule-set
//! machines, and reports latency percentiles, sustained throughput, and
//! the transfer/overlap economics per policy. The perf gate watches the
//! summed makespan.

use gspecpal_fsm::{FrequencyProfile, TransformedDfa};
use gspecpal_gpu::PhaseProfile;
use gspecpal_regex::{compile_set, CompileConfig};
use gspecpal_serve::{
    serve, BatchPolicy, PolicyKind, ServeConfig, ServeMachine, StreamArrival, Trace,
};
use gspecpal_workloads::inputs;

use crate::experiments::ExperimentConfig;

/// One `(policy, overlap)` serve run, summarized for reports.
#[derive(Clone, Debug)]
pub struct ServeRunSummary {
    /// The batch policy of the run.
    pub policy: PolicyKind,
    /// Whether copy/compute overlap was enabled.
    pub overlap: bool,
    /// Wall-clock of the run in cycles.
    pub makespan_cycles: u64,
    /// Engine-busy cycles (copies + kernels; exceeds makespan when copies
    /// overlap compute).
    pub busy_cycles: u64,
    /// The run's merged phase breakdown (`Transfer` now nonzero).
    pub profile: PhaseProfile,
    /// Batches dispatched.
    pub batches: u64,
    /// Delivery-latency percentiles in cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst stream.
    pub max: u64,
    /// Sustained throughput over the makespan.
    pub bytes_per_cycle: f64,
    /// Share of copy cycles hidden under kernels, in permille.
    pub overlap_efficiency_permille: u64,
    /// Streams delayed by a full queue.
    pub backpressure_events: u64,
    /// Peak admission-queue depth.
    pub peak_queue_depth: u64,
}

/// The full serve experiment: one summary per `(policy, overlap)` pair.
#[derive(Clone, Debug)]
pub struct ServeExperimentReport {
    /// Streams in the trace.
    pub streams: u64,
    /// Total input bytes served.
    pub total_bytes: u64,
    /// All runs, in fixed order (fifo, fifo-serial, deadline, adaptive).
    pub runs: Vec<ServeRunSummary>,
}

impl ServeExperimentReport {
    /// Headline total the perf gate watches: the summed makespan of every
    /// run.
    pub fn total_makespan(&self) -> u64 {
        self.runs.iter().map(|r| r.makespan_cycles).sum()
    }
}

/// Deterministic arrival trace over two rule-set machines: payload bytes
/// from the seeded workload generators, arrival gaps and machine
/// assignment from pure index arithmetic — same `(seed, input_len)`, same
/// trace, bit for bit.
fn build_trace(cfg: &ExperimentConfig) -> Trace {
    let n_streams = 48usize;
    let mean_len = (cfg.input_len / n_streams).clamp(64, 16 * 1024);
    let spice: Vec<Vec<u8>> = vec![b"attack7".to_vec(), b"exploit".to_vec()];
    let sigs: Vec<Vec<u8>> = vec![b"MZcafe".to_vec()];
    let mut clock = 0u64;
    let arrivals = (0..n_streams)
        .map(|i| {
            // Inter-arrival gaps cycle through a bursty pattern: three
            // near-simultaneous arrivals, then a lull.
            clock += if i % 4 == 3 { 4 * mean_len as u64 } else { (i as u64 * 7919) % 97 };
            let len = mean_len / 2 + ((i * 2_654_435_761) % mean_len.max(1));
            let machine = (i / 6) % 2;
            let bytes = if machine == 0 {
                inputs::network_trace(cfg.seed ^ i as u64, len, &spice)
            } else {
                inputs::executable_blob(cfg.seed ^ i as u64, len, &sigs)
            };
            StreamArrival { arrival_cycle: clock, machine, bytes }
        })
        .collect();
    Trace::from_arrivals(arrivals)
}

/// Runs the serve experiment: two frequency-transformed rule-set machines,
/// one deterministic trace, all three policies (plus FIFO with overlap
/// disabled, the serialization baseline).
pub fn run_serve(cfg: &ExperimentConfig) -> ServeExperimentReport {
    let net_rules = ["attack[0-9]*", "GET /admin", "exploit"];
    let av_rules = ["MZ(cafe|babe)", "virus[a-f]+"];
    let net_dfa = compile_set(&net_rules, CompileConfig::default()).expect("rules compile");
    let av_dfa = compile_set(&av_rules, CompileConfig::default()).expect("rules compile");

    let trace = build_trace(cfg);
    // Train each machine on the concatenation of its own streams' prefixes.
    let training: Vec<Vec<u8>> = (0..2)
        .map(|m| {
            let mut t: Vec<u8> = trace
                .arrivals()
                .iter()
                .filter(|a| a.machine == m)
                .flat_map(|a| a.bytes.iter().copied().take(512))
                .collect();
            t.truncate(8 * 1024);
            t
        })
        .collect();

    let net_freq = FrequencyProfile::collect(&net_dfa, &training[0]);
    let net_t = TransformedDfa::from_profile(&net_dfa, &net_freq);
    let av_freq = FrequencyProfile::collect(&av_dfa, &training[1]);
    let av_t = TransformedDfa::from_profile(&av_dfa, &av_freq);
    let machines = [
        ServeMachine::prepare(&cfg.device, net_t.dfa(), &training[0]),
        ServeMachine::prepare(&cfg.device, av_t.dfa(), &training[1]),
    ];

    let base = ServeConfig { scheme_config: cfg.scheme_config(), ..ServeConfig::default() };
    let matrix = [
        (BatchPolicy::Fifo { batch: 8 }, true),
        (BatchPolicy::Fifo { batch: 8 }, false),
        (BatchPolicy::Deadline { batch: 8, max_wait: 4096 }, true),
        (BatchPolicy::Adaptive { max_batch: 32 }, true),
    ];
    let runs = matrix
        .iter()
        .map(|&(policy, overlap)| {
            let sc = ServeConfig { policy, overlap, ..base.clone() };
            let report = serve(&cfg.device, &machines, &trace, &sc).expect("servable trace");
            ServeRunSummary {
                policy: policy.kind(),
                overlap: report.overlap,
                makespan_cycles: report.makespan_cycles,
                busy_cycles: report.stats.cycles,
                profile: report.stats.profile,
                batches: report.batches.len() as u64,
                p50: report.delivery.p50,
                p95: report.delivery.p95,
                p99: report.delivery.p99,
                max: report.delivery.max,
                bytes_per_cycle: report.bytes_per_cycle(),
                overlap_efficiency_permille: report.overlap_efficiency_permille,
                backpressure_events: report.backpressure_events,
                peak_queue_depth: report.peak_queue as u64,
            }
        })
        .collect();

    ServeExperimentReport {
        streams: trace.len() as u64,
        total_bytes: trace.total_bytes() as u64,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_gpu::Phase;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { input_len: 16 * 1024, n_chunks: 64, ..Default::default() }
    }

    #[test]
    fn serve_experiment_is_deterministic_and_charges_transfers() {
        let cfg = small_cfg();
        let a = run_serve(&cfg);
        let b = run_serve(&cfg);
        assert_eq!(a.total_makespan(), b.total_makespan());
        assert_eq!(a.runs.len(), 4);
        assert!(
            a.runs.iter().any(|r| r.profile.get(Phase::Transfer).cycles > 0),
            "serving must charge PCIe copies"
        );
        for r in &a.runs {
            assert_eq!(r.profile.total_cycles(), r.busy_cycles, "partition holds per run");
        }
    }

    #[test]
    fn overlap_beats_serialization_in_the_experiment() {
        let r = run_serve(&small_cfg());
        let fifo_overlap = &r.runs[0];
        let fifo_serial = &r.runs[1];
        assert!(fifo_overlap.overlap && !fifo_serial.overlap);
        assert!(
            fifo_overlap.makespan_cycles < fifo_serial.makespan_cycles,
            "overlap {} vs serial {}",
            fifo_overlap.makespan_cycles,
            fifo_serial.makespan_cycles
        );
        assert_eq!(
            fifo_overlap.busy_cycles, fifo_serial.busy_cycles,
            "same batches, same engine-busy work"
        );
    }
}
