//! Tour of the 36-FSM benchmark suite: for every machine, print its
//! characteristics, what the decision tree picks, and why.
//!
//! ```text
//! cargo run --release --example benchmark_tour [-- <input KiB, default 64>]
//! ```

use gspecpal::Selector;
use gspecpal_workloads::build_suite;

fn main() {
    let kib: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(64);
    let suite = build_suite(1);
    let selector = Selector;

    println!(
        "{:<10} {:<10} {:>7} {:>8} {:>8} {:>8} {:>7}  {:<4}",
        "FSM", "tier", "states", "spec-1%", "spec-4%", "uniq10", "spread%", "pick"
    );
    for b in &suite {
        let input = b.generate_input(kib * 1024, 0);
        let p = selector.profile(&b.dfa, &input);
        let (scheme, _reason) = selector.select_explained(&p);
        println!(
            "{:<10} {:<10} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>7.1}  {:<4}",
            b.name(),
            b.tier.name(),
            b.dfa.n_states(),
            p.spec1_accuracy * 100.0,
            p.spec4_accuracy * 100.0,
            p.convergence.mean_unique_states,
            p.accuracy_spread * 100.0,
            scheme.name(),
        );
    }

    // Show one full explanation per distinct pick.
    println!("\nexample explanations:");
    let mut seen = std::collections::HashSet::new();
    for b in &suite {
        let input = b.generate_input(kib * 1024, 0);
        let p = selector.profile(&b.dfa, &input);
        let (scheme, reason) = selector.select_explained(&p);
        if seen.insert(scheme) {
            println!("  {:<10} -> {:<4} because {}", b.name(), scheme.name(), reason);
        }
    }
}
