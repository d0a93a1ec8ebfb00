//! The paper's Figure 1 example end to end, plus a three-way cross-check:
//! simulated-GPU schemes vs. the multicore engine vs. the host reference.

use gspecpal::cpu::run_speculative;
use gspecpal::{GSpecPal, SchemeConfig, SchemeKind};
use gspecpal_fsm::examples::div7;
use gspecpal_gpu::DeviceSpec;

fn binary(n: u64) -> Vec<u8> {
    format!("{n:b}").into_bytes()
}

#[test]
fn fig1_transition_walkthrough() {
    // Figure 1(c): consuming bits walks the residue graph one lookup per
    // symbol.
    let d = div7();
    assert_eq!(d.start(), 0);
    let mut s = d.start();
    for (b, expect) in [(b'1', 1), (b'0', 2), (b'1', 5), (b'0', 3), (b'1', 0)] {
        s = d.next(s, b);
        assert_eq!(s, expect);
    }
    assert!(d.is_accepting(s), "10101 = 21 is divisible by 7");
}

#[test]
fn div7_language_is_divisibility() {
    let d = div7();
    for n in 0..2000u64 {
        assert_eq!(d.accepts(&binary(n)), n % 7 == 0, "n = {n}");
    }
}

#[test]
fn three_engines_agree_on_div7() {
    let d = div7();
    // A long pseudo-random bit stream.
    let mut x = 0x9E3779B97F4A7C15u64;
    let input: Vec<u8> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                b'1'
            } else {
                b'0'
            }
        })
        .collect();
    let host = d.run(&input);

    // Simulated GPU, every scheme.
    let fw = GSpecPal::new(DeviceSpec::test_unit())
        .with_config(SchemeConfig { n_chunks: 32, ..SchemeConfig::default() });
    for scheme in SchemeKind::all() {
        let o = fw.run_with(&d, &input, scheme);
        assert_eq!(o.end_state, host, "{scheme}");
    }

    // Real threads (the multicore engine).
    let cpu = run_speculative(&d, &input, 8);
    assert_eq!(cpu.end_state, host);
    assert_eq!(cpu.accepted, d.is_accepting(host));
}

#[test]
fn div7_defeats_speculation_but_not_correctness() {
    // div7 is a permutation automaton: lookback prediction cannot narrow the
    // candidate set, so spec-1 recovery fires constantly — the adversarial
    // case the aggressive schemes were designed for.
    let d = div7();
    let input: Vec<u8> = b"1011010101101".repeat(500);
    let fw = GSpecPal::new(DeviceSpec::test_unit())
        .with_config(SchemeConfig { n_chunks: 64, ..SchemeConfig::default() });

    let naive = fw.run_with(&d, &input, SchemeKind::Naive);
    assert!(naive.recovery_runs() > 0);

    let rr = fw.run_with(&d, &input, SchemeKind::Rr);
    let nf = fw.run_with(&d, &input, SchemeKind::Nf);
    // Aggressive recovery converts the sequential walk into parallel
    // coverage: far fewer cycles than naive speculation.
    assert!(
        rr.total_cycles() < naive.total_cycles() / 2,
        "RR {} vs naive {}",
        rr.total_cycles(),
        naive.total_cycles()
    );
    assert!(nf.total_cycles() < naive.total_cycles() / 2);
    assert_eq!(rr.end_state, d.run(&input));
    assert_eq!(nf.end_state, d.run(&input));
}
