//! Properties of the all-state lookback-2 predictor (§IV-A).
//!
//! The key guarantee the paper relies on: "the real start state on the
//! current chunk must be contained in the produced end state set" — the
//! containment property that makes the speculation queues a sound basis for
//! exhaustive recovery.

use std::cmp::Reverse;
use std::collections::HashMap;

use gspecpal::partition::partition;
use gspecpal::predict::{lookback_queue, predict, LookbackWalker};
use gspecpal::specq::SpecQueue;
use gspecpal::Selector;
use gspecpal_fsm::examples::{div7, fig4_dfa};
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::{Dfa, StateId};
use gspecpal_gpu::DeviceSpec;
use gspecpal_workloads::{build_family, Benchmark, Family};
use proptest::prelude::*;

/// The straightforward all-state walk: every state run over the window,
/// end states counted in a `HashMap`, ranked by descending frequency with
/// ties by state id. The reference [`LookbackWalker`] must reproduce.
fn reference_queue(dfa: &Dfa, window: &[u8]) -> SpecQueue {
    let mut freq: HashMap<StateId, u32> = HashMap::new();
    for s in 0..dfa.n_states() {
        *freq.entry(dfa.run_from(s, window)).or_insert(0) += 1;
    }
    let mut ranked: Vec<(StateId, u32)> = freq.into_iter().collect();
    ranked.sort_by_key(|&(s, f)| (Reverse(f), s));
    SpecQueue::from_ranked(ranked)
}

/// Snort9: a deep-speculation suite machine (thousands of states, ~50
/// byte classes) with a seeded input.
fn snort9() -> (Benchmark, Vec<u8>) {
    let bench = build_family(Family::Snort, 1).swap_remove(8);
    assert_eq!(bench.name(), "Snort9");
    let input = bench.generate_input(16 * 1024, 3);
    (bench, input)
}

/// The three fixed machines of the equivalence checks, each with an input.
fn fixed_machines() -> Vec<(&'static str, Dfa, Vec<u8>)> {
    let bits: Vec<u8> = random_input(3, 4096).iter().map(|b| b'0' + (b & 1)).collect();
    let text = b"code /* a comment */ more // and /*another*/ tail\n".repeat(80);
    let (snort, snort_input) = snort9();
    vec![("div7", div7(), bits), ("fig4", fig4_dfa(), text), ("Snort9", snort.dfa, snort_input)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truth_is_always_contained(
        seed in 0u64..10_000,
        n_states in 1u32..60,
        n_classes in 1u16..16,
        input_len in 8usize..1500,
        n_chunks in 2usize..24,
        lookback in 1usize..5,
    ) {
        let dfa = random_dfa(seed, n_states, n_classes);
        let input = random_input(seed ^ 0xABCD, input_len);
        let chunks = partition(input.len(), n_chunks.min(input_len));
        let pred = predict(&dfa, &input, &chunks, lookback, &DeviceSpec::test_unit());
        for (i, chunk) in chunks.iter().enumerate() {
            let truth = dfa.run(&input[..chunk.start]);
            prop_assert!(
                pred.queues[i].candidates().any(|s| s == truth),
                "chunk {i}: truth {truth} not in queue"
            );
        }
    }

    #[test]
    fn queue_sizes_bounded_by_state_count(
        seed in 0u64..5_000,
        n_states in 1u32..50,
        window_len in 0usize..6,
    ) {
        let dfa = random_dfa(seed, n_states, 8);
        let window = random_input(seed ^ 0x77, window_len);
        let q = lookback_queue(&dfa, &window);
        prop_assert!(q.initial_len() >= 1);
        prop_assert!(q.initial_len() <= n_states as usize);
    }

    #[test]
    fn queue_frequencies_sum_to_state_count(
        seed in 0u64..5_000,
        n_states in 1u32..50,
    ) {
        // Every start state maps to exactly one end state, so the candidate
        // multiplicities partition |Q|. Verify via rank structure: the
        // number of candidates with the top frequency times that frequency
        // cannot exceed |Q|.
        let dfa = random_dfa(seed, n_states, 6);
        let window = random_input(seed ^ 0x99, 2);
        let q = lookback_queue(&dfa, &window);
        // All candidates must be distinct states.
        let mut seen: Vec<_> = q.candidates().collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), before, "candidates are distinct");
    }

    #[test]
    fn ranking_is_by_descending_preimage_count(
        seed in 0u64..2_000,
        n_states in 2u32..40,
    ) {
        let dfa = random_dfa(seed, n_states, 4);
        let window = random_input(seed ^ 0x55, 2);
        let q = lookback_queue(&dfa, &window);
        // Recompute preimage counts and check monotonicity along the queue.
        let count = |target| {
            (0..n_states).filter(|&s| dfa.run_from(s, &window) == target).count()
        };
        let counts: Vec<usize> = q.candidates().map(count).collect();
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1], "queue must be ranked by frequency: {counts:?}");
        }
        prop_assert!(counts.iter().all(|&c| c > 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn walker_matches_the_hashmap_reference(
        seed in 0u64..10_000,
        n_states in 1u32..90,
        n_classes in 1u16..24,
        n_windows in 100usize..400,
    ) {
        // One walker ranks every window, so a counter or touched list left
        // dirty by one window corrupts a later one.
        let dfa = random_dfa(seed, n_states, n_classes);
        let bytes = random_input(seed ^ 0x5eed, n_windows + 4);
        let mut walker = LookbackWalker::new(&dfa);
        for (i, &len_byte) in bytes[..n_windows].iter().enumerate() {
            let window = &bytes[i..i + usize::from(len_byte) % 5];
            prop_assert_eq!(
                walker.queue(window),
                reference_queue(&dfa, window),
                "window {} of length {}", i, window.len()
            );
        }
    }
}

#[test]
fn predict_queues_match_the_hashmap_reference() {
    let spec = DeviceSpec::test_unit();
    for (name, dfa, input) in fixed_machines() {
        let chunks = partition(input.len(), 64);
        // Boundaries closer to the input's head than the lookback, and
        // lookback 3, exercise windows of every length up to 3.
        let mut head_cuts = vec![0..1, 1..2, 2..4, 4..chunks[1].end];
        head_cuts.extend(chunks[2..].iter().cloned());
        for lookback in [2, 3] {
            for cuts in [&chunks, &head_cuts] {
                let pred = predict(&dfa, &input, cuts, lookback, &spec);
                assert_eq!(pred.queues[0], SpecQueue::certain(dfa.start()), "{name}");
                for (i, c) in cuts.iter().enumerate().skip(1) {
                    let window = &input[c.start.saturating_sub(lookback)..c.start];
                    assert_eq!(pred.queues[i], reference_queue(&dfa, window), "{name} chunk {i}");
                }
            }
        }
    }
}

#[test]
fn selector_profile_is_unchanged() {
    // The profile the `HashMap` walk produced: spec-1 and spec-4 accuracy,
    // the worst truth rank, and the per-portion accuracy spread.
    let expected = [
        ("div7", 0.12890625, 0.5234375, 7, 0.3125),
        ("fig4", 0.640625, 1.0, 2, 0.125),
        ("Snort9", 0.11328125, 0.4765625, 68, 0.4375),
    ];
    for ((name, dfa, input), (want, spec1, spec4, worst, spread)) in
        fixed_machines().into_iter().zip(expected)
    {
        assert_eq!(name, want);
        let p = Selector.profile(&dfa, &input);
        assert_eq!(
            (p.spec1_accuracy, p.spec4_accuracy, p.worst_truth_rank, p.accuracy_spread),
            (spec1, spec4, worst, spread),
            "{name}"
        );
    }
}

#[test]
fn prediction_cost_is_roughly_constant_in_chunk_size() {
    // §III-C treats prediction cost as a constant C: it must not scale with
    // the input length (only with |Q| and N).
    let dfa = random_dfa(5, 30, 8);
    let spec = DeviceSpec::test_unit();
    let short = random_input(6, 1_000);
    let long = random_input(6, 100_000);
    let chunks_short = partition(short.len(), 16);
    let chunks_long = partition(long.len(), 16);
    let c_short = predict(&dfa, &short, &chunks_short, 2, &spec).stats.cycles;
    let c_long = predict(&dfa, &long, &chunks_long, 2, &spec).stats.cycles;
    // Queue sizes differ slightly with the window contents, but the cost
    // must not scale with the 100x difference in chunk length.
    let ratio = c_long as f64 / c_short as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "prediction cost must not depend on chunk length: {c_short} vs {c_long}"
    );
}
