//! The `adaptive` experiment: online autotuning A/B — a tier-mixed trace
//! served under every static scheme versus the feedback controller.
//!
//! Four machines, one per behavioural [`Tier`], share one arrival trace.
//! No single static scheme wins every tier (that is the premise of §IV's
//! selector and of ROADMAP item 2): PM owns the spec-k-friendly segment,
//! SRE the slow-convergence one, aggressive recovery the rest. The static
//! legs pin one scheme across all four machines; the adaptive leg turns on
//! [`gspecpal_serve::AdaptiveController`], which starts from each
//! machine's offline pick and re-selects per batch from observed costs.
//! The paper-style headline is the adaptive makespan beating *every*
//! static scheme's, with the per-segment decision log exported for audit.

use gspecpal::SchemeKind;
use gspecpal_fsm::{Dfa, FrequencyProfile, TransformedDfa};
use gspecpal_gpu::PhaseProfile;
use gspecpal_serve::{
    serve, BatchPolicy, ControllerConfig, DecisionRecord, ServeConfig, ServeMachine, ServeReport,
    StreamArrival, Trace,
};
use gspecpal_workloads::{build_suite, Benchmark, Family, Tier};

use crate::experiments::ExperimentConfig;

/// Streams per tier segment: enough FIFO-4 batches (6 per machine) for the
/// controller to exploit, explore once, and re-commit.
const STREAMS_PER_SEGMENT: usize = 24;

/// The static schemes the adaptive controller is raced against — the four
/// selector candidates plus SFA.
pub const STATIC_SCHEMES: [SchemeKind; 5] =
    [SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa];

/// One serve leg of the A/B (a pinned static scheme, or the controller).
#[derive(Clone, Debug)]
pub struct AdaptiveRunSummary {
    /// `"adaptive"` or the pinned scheme's name.
    pub label: String,
    /// Wall-clock of the run in cycles.
    pub makespan_cycles: u64,
    /// Engine-busy cycles (copies + kernels).
    pub busy_cycles: u64,
    /// The run's merged phase breakdown.
    pub profile: PhaseProfile,
    /// Batches dispatched.
    pub batches: u64,
    /// Compute-span cycles per machine (tier segment), machine order.
    pub segment_cycles: Vec<u64>,
    /// Controller decisions made (0 on static legs).
    pub decisions_made: u64,
    /// Explore decisions among them.
    pub explore_decisions: u64,
}

/// One tier segment's A/B outcome plus the controller's decisions on it.
#[derive(Clone, Debug)]
pub struct SegmentSummary {
    /// Machine index (= segment index).
    pub machine: usize,
    /// Benchmark name (`Snort1`, …).
    pub fsm: String,
    /// Tier label.
    pub tier: &'static str,
    /// Compute cycles the adaptive leg spent on this segment.
    pub adaptive_cycles: u64,
    /// Compute cycles the best *overall* static leg spent on it.
    pub best_static_cycles: u64,
    /// The controller's decisions on this machine, dispatch order.
    pub decisions: Vec<DecisionRecord>,
}

/// The full adaptive A/B report.
#[derive(Clone, Debug)]
pub struct AdaptiveExperimentReport {
    /// Streams in the trace.
    pub streams: u64,
    /// Total input bytes served.
    pub total_bytes: u64,
    /// The static legs, in [`STATIC_SCHEMES`] order.
    pub static_runs: Vec<AdaptiveRunSummary>,
    /// The controller leg.
    pub adaptive: AdaptiveRunSummary,
    /// Per-tier-segment outcomes against the best overall static.
    pub segments: Vec<SegmentSummary>,
}

impl AdaptiveExperimentReport {
    /// The best (lowest-makespan) static leg.
    pub fn best_static(&self) -> &AdaptiveRunSummary {
        self.static_runs.iter().min_by_key(|r| r.makespan_cycles).expect("at least one static leg")
    }

    /// Whether the controller beat *every* static scheme's makespan — the
    /// tentpole acceptance criterion.
    pub fn adaptive_beats_every_static(&self) -> bool {
        self.static_runs.iter().all(|r| self.adaptive.makespan_cycles < r.makespan_cycles)
    }

    /// Headline: geometric-mean per-segment speedup of the adaptive leg
    /// over the best overall static leg (the scheme you would pick if you
    /// had to pin one).
    pub fn mean_speedup_adaptive_vs_best_static(&self) -> f64 {
        if self.segments.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .segments
            .iter()
            .map(|s| (s.best_static_cycles.max(1) as f64 / s.adaptive_cycles.max(1) as f64).ln())
            .sum();
        (log_sum / self.segments.len() as f64).exp()
    }

    /// Gate headline: the adaptive makespan plus every static leg's, so
    /// the 5% CI gate trips on a regression in either side of the A/B.
    pub fn total_cycles(&self) -> u64 {
        self.adaptive.makespan_cycles
            + self.static_runs.iter().map(|r| r.makespan_cycles).sum::<u64>()
    }
}

/// One benchmark per tier, families rotated so the segments differ in
/// state-count scale too.
fn pick_benchmarks(suite: &[Benchmark]) -> Vec<&Benchmark> {
    let want = [
        (Tier::SpecKFriendly, Family::Snort),
        (Tier::SlowConvergence, Family::ClamAV),
        (Tier::NonConvergent, Family::PowerEn),
        (Tier::InputSensitive, Family::Snort),
    ];
    want.iter()
        .map(|&(tier, family)| {
            suite
                .iter()
                .find(|b| b.tier == tier && b.family == family)
                .expect("suite covers every (tier, family) pair used here")
        })
        .collect()
}

/// Segment-major trace: machine 0's streams, then machine 1's, … — batches
/// close on machine changes, so this keeps FIFO batches tier-pure without
/// shrinking them. Arrivals burst in batch-sized groups.
fn build_trace(cfg: &ExperimentConfig, benches: &[&Benchmark]) -> Trace {
    // Streams long enough that speculative chunking amortizes its per-chunk
    // overhead (the regime §V targets); short streams would reward the
    // stream-parallel fallback on every machine and flatten the A/B.
    let mean_len = (cfg.input_len / 16).clamp(2 * 1024, 16 * 1024);
    let mut clock = 0u64;
    let mut arrivals = Vec::with_capacity(benches.len() * STREAMS_PER_SEGMENT);
    for (machine, b) in benches.iter().enumerate() {
        for j in 0..STREAMS_PER_SEGMENT {
            clock += if j % 4 == 0 { 2048 } else { (j as u64 * 7919) % 61 };
            let len = mean_len / 2 + (j.wrapping_mul(2_654_435_761)) % mean_len.max(1);
            let bytes = b.generate_input(len, j as u64);
            arrivals.push(StreamArrival { arrival_cycle: clock, machine, bytes });
        }
    }
    Trace::from_arrivals(arrivals)
}

/// Compute-span cycles per machine, from the batch records.
fn segment_cycles(report: &ServeReport, n_machines: usize) -> Vec<u64> {
    let mut per = vec![0u64; n_machines];
    for b in &report.batches {
        per[b.machine] += b.compute.duration();
    }
    per
}

fn summarize(label: String, report: &ServeReport, n_machines: usize) -> AdaptiveRunSummary {
    AdaptiveRunSummary {
        label,
        makespan_cycles: report.makespan_cycles,
        busy_cycles: report.stats.cycles,
        profile: report.stats.profile,
        batches: report.batches.len() as u64,
        segment_cycles: segment_cycles(report, n_machines),
        decisions_made: report.decisions_made,
        explore_decisions: report.explore_decisions,
    }
}

/// Runs the adaptive A/B: the tier-mixed trace under every pinned static
/// scheme, then under the controller.
pub fn run_adaptive(cfg: &ExperimentConfig) -> AdaptiveExperimentReport {
    let suite = build_suite(cfg.seed);
    let benches = pick_benchmarks(&suite);
    let trace = build_trace(cfg, &benches);

    // Frequency-transform each machine on its own training slice, exactly
    // as the latency-sensitive framework would.
    let trainings: Vec<Vec<u8>> =
        benches.iter().map(|b| b.generate_input(8 * 1024, 1000)).collect();
    let transformed: Vec<TransformedDfa> = benches
        .iter()
        .zip(&trainings)
        .map(|(b, t)| TransformedDfa::from_profile(&b.dfa, &FrequencyProfile::collect(&b.dfa, t)))
        .collect();
    let dfas: Vec<&Dfa> = transformed.iter().map(TransformedDfa::dfa).collect();

    let base = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 4 },
        scheme_config: cfg.scheme_config(),
        ..ServeConfig::default()
    };

    let static_runs: Vec<AdaptiveRunSummary> = STATIC_SCHEMES
        .iter()
        .map(|&scheme| {
            let machines: Vec<ServeMachine<'_>> =
                dfas.iter().map(|d| ServeMachine::with_scheme(&cfg.device, d, scheme)).collect();
            let report = serve(&cfg.device, &machines, &trace, &base).expect("servable trace");
            summarize(scheme.name().to_string(), &report, dfas.len())
        })
        .collect();

    let machines: Vec<ServeMachine<'_>> = dfas
        .iter()
        .zip(&trainings)
        .map(|(d, t)| ServeMachine::prepare(&cfg.device, d, t))
        .collect();
    let adaptive_cfg =
        ServeConfig { controller: Some(ControllerConfig::default()), ..base.clone() };
    let adaptive_report =
        serve(&cfg.device, &machines, &trace, &adaptive_cfg).expect("servable trace");
    let adaptive = summarize("adaptive".to_string(), &adaptive_report, dfas.len());

    let best_static =
        static_runs.iter().min_by_key(|r| r.makespan_cycles).expect("five static legs");
    let segments = benches
        .iter()
        .enumerate()
        .map(|(m, b)| SegmentSummary {
            machine: m,
            fsm: b.name(),
            tier: b.tier.name(),
            adaptive_cycles: adaptive.segment_cycles[m],
            best_static_cycles: best_static.segment_cycles[m],
            decisions: adaptive_report
                .decisions
                .iter()
                .filter(|d| d.machine == m)
                .cloned()
                .collect(),
        })
        .collect();

    AdaptiveExperimentReport {
        streams: trace.len() as u64,
        total_bytes: trace.total_bytes() as u64,
        static_runs,
        adaptive,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { input_len: 16 * 1024, n_chunks: 64, ..Default::default() }
    }

    #[test]
    fn adaptive_beats_every_static_scheme() {
        let r = run_adaptive(&small_cfg());
        assert_eq!(r.static_runs.len(), STATIC_SCHEMES.len());
        for s in &r.static_runs {
            assert!(
                r.adaptive.makespan_cycles < s.makespan_cycles,
                "adaptive {} vs static {} {}",
                r.adaptive.makespan_cycles,
                s.label,
                s.makespan_cycles
            );
        }
        assert!(r.adaptive_beats_every_static());
        assert!(r.mean_speedup_adaptive_vs_best_static() > 1.0);
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = small_cfg();
        let a = run_adaptive(&cfg);
        let b = run_adaptive(&cfg);
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.adaptive.segment_cycles, b.adaptive.segment_cycles);
        assert_eq!(
            a.segments.iter().map(|s| s.decisions.len()).collect::<Vec<_>>(),
            b.segments.iter().map(|s| s.decisions.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn decision_log_covers_every_adaptive_batch() {
        let r = run_adaptive(&small_cfg());
        assert_eq!(r.adaptive.decisions_made, r.adaptive.batches);
        let logged: usize = r.segments.iter().map(|s| s.decisions.len()).sum();
        assert_eq!(logged as u64, r.adaptive.decisions_made);
        // Every machine's first decision is its offline pick (arm 0).
        for s in &r.segments {
            assert_eq!(s.decisions.first().map(|d| d.arm), Some(0), "{}", s.fsm);
        }
    }
}
