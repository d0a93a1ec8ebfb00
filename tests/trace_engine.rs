//! Million-stream trace-engine guarantees: the streaming ingestion path
//! must be bit-identical to the materialized one, and latency sketches must
//! track exact quantiles within their documented bound.

use gspecpal_fsm::examples::div7;
use gspecpal_fsm::Dfa;
use gspecpal_gpu::{DeviceSpec, FaultPlan};
use gspecpal_serve::sketch::SUB_BUCKET_BITS;
use gspecpal_serve::{
    serve, serve_source, BatchPolicy, IterSource, LatencySketch, LatencySummary, ReportDetail,
    ServeConfig, ServeMachine, ServeRecoveryConfig, SyntheticSource, Trace, EXACT_SUMMARY_MAX,
};
use proptest::prelude::*;

fn machine<'a>(spec: &DeviceSpec, dfa: &'a Dfa) -> ServeMachine<'a> {
    ServeMachine::prepare(spec, dfa, &b"110100".repeat(128))
}

/// Nearest-rank percentile over a sorted slice — the exact rule both the
/// sort path and the sketch follow.
fn exact_percentile(sorted: &[u64], pct: u64) -> u64 {
    let idx = (pct * sorted.len() as u64).div_ceil(100).max(1) - 1;
    sorted[idx as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The sketch's documented contract, checked differentially against a
    // full sort: quantiles never understate the exact value and overstate
    // it by less than 2^-SUB_BUCKET_BITS relative. Values span every
    // octave from the exact linear range up to 2^63.
    #[test]
    fn sketch_quantiles_stay_within_the_documented_bound(
        smalls in prop::collection::vec(0u64..4096, 0..200),
        scaled in prop::collection::vec((0u32..54, 1u64..1024), 1..300),
    ) {
        let mut values: Vec<u64> = smalls;
        values.extend(scaled.into_iter().map(|(exp, m)| m << exp));
        let mut sketch = LatencySketch::new();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_unstable();
        for pct in [1u64, 5, 10, 25, 50, 75, 90, 95, 99, 100] {
            let exact = exact_percentile(&values, pct);
            let sketched = sketch.percentile(pct);
            prop_assert!(sketched >= exact, "p{}: {} understates {}", pct, sketched, exact);
            prop_assert!(
                sketched - exact <= exact >> SUB_BUCKET_BITS,
                "p{}: {} vs {} breaks the 2^-{} relative bound",
                pct, sketched, exact, SUB_BUCKET_BITS
            );
        }
        prop_assert_eq!(sketch.max(), *values.last().unwrap());
    }

    // Above the exact-summary threshold `from_latencies` must route through
    // the sketch — same result as sketching by hand, and still within the
    // bound of the true sorted quantiles.
    #[test]
    fn summaries_past_the_threshold_carry_sketch_semantics(
        seed in 0u64..1_000,
        extra in 1usize..600,
    ) {
        let n = EXACT_SUMMARY_MAX + extra;
        let mut state = seed;
        let values: Vec<u64> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 17) % 10_000_000
            })
            .collect();
        let summary = LatencySummary::from_latencies(&values);
        let mut sketch = LatencySketch::new();
        for &v in &values {
            sketch.record(v);
        }
        prop_assert_eq!(summary, LatencySummary::from_sketch(&sketch));
        let mut sorted = values;
        sorted.sort_unstable();
        for (pct, got) in [(50u64, summary.p50), (95, summary.p95), (99, summary.p99)] {
            let exact = exact_percentile(&sorted, pct);
            prop_assert!(got >= exact && got - exact <= exact >> SUB_BUCKET_BITS);
        }
        prop_assert_eq!(summary.max, *sorted.last().unwrap());
    }
}

#[test]
fn streaming_and_materialized_reports_are_bit_identical() {
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let machines = std::slice::from_ref(&m);
    let trace = Trace::synthetic(11, 64, 1, 20, 8..96, b"01");
    let faulty = gspecpal::SchemeConfig {
        faults: Some(FaultPlan::chaos(4, 250)),
        ..gspecpal::SchemeConfig::default()
    };
    let configs = [
        ServeConfig { policy: BatchPolicy::Fifo { batch: 4 }, ..ServeConfig::default() },
        ServeConfig {
            policy: BatchPolicy::Deadline { batch: 8, max_wait: 64 },
            ..ServeConfig::default()
        },
        ServeConfig { policy: BatchPolicy::Adaptive { max_batch: 16 }, ..ServeConfig::default() },
        ServeConfig {
            policy: BatchPolicy::Fifo { batch: 4 },
            scheme_config: faulty,
            recovery: ServeRecoveryConfig {
                copy_max_retries: 1,
                shed_wait_cycles: 500,
                ..ServeRecoveryConfig::default()
            },
            max_queue_depth: 8,
            ..ServeConfig::default()
        },
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let materialized = serve(&spec, machines, &trace, cfg).unwrap();
        let streamed =
            serve_source(&spec, machines, IterSource(trace.arrivals().iter().cloned()), cfg)
                .unwrap();
        assert_eq!(materialized, streamed, "config {i}: both entry points must agree bit for bit");
    }
}

#[test]
fn bounded_streaming_reports_switch_to_the_sketch_and_hold_no_vectors() {
    // The bounded-memory path at a scale that forces the latency sketch:
    // a generator-fed run past EXACT_SUMMARY_MAX streams.
    let spec = DeviceSpec::test_unit();
    let dfa = div7();
    let m = machine(&spec, &dfa);
    let n = EXACT_SUMMARY_MAX + 400;
    let cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 32 },
        detail: ReportDetail::Bounded,
        ..ServeConfig::default()
    };
    let source = SyntheticSource::new(31, n, 1, 2, 4..12, b"01");
    let report = serve_source(&spec, std::slice::from_ref(&m), source, &cfg).unwrap();
    assert_eq!(report.streams, n);
    assert_eq!(report.latency_error_permille, LatencySketch::ERROR_PERMILLE);
    assert!(report.latencies.is_empty(), "bounded mode holds no per-stream vectors");
    assert!(report.queue_depth.is_empty());
    assert!(report.peak_queue > 0);
}
