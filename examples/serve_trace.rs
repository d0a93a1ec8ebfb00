//! Serving a stream trace: drive the `gspecpal-serve` pipeline over a
//! synthetic arrival trace and compare the three batching policies, with
//! and without copy/compute overlap.
//!
//! ```text
//! cargo run --release --example serve_trace [-- <streams, default 32>]
//! ```

use gspecpal_fsm::examples::div7;
use gspecpal_gpu::{DeviceSpec, Phase};
use gspecpal_serve::{serve, BatchPolicy, ServeConfig, ServeMachine, Trace};

fn main() {
    let n_streams: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(32);
    let spec = DeviceSpec::rtx3090();
    let dfa = div7();
    let machine = ServeMachine::prepare(&spec, &dfa, &b"110100".repeat(256));

    // A bursty synthetic trace: one machine, mean inter-arrival gap of 200
    // cycles, stream lengths between 256 B and 4 KiB.
    let trace = Trace::synthetic(42, n_streams, 1, 200, 256..4096, b"01");
    println!("trace: {} streams, {} bytes total\n", trace.len(), trace.total_bytes());

    println!(
        "{:<9} {:<8} {:>10} {:>8} {:>9} {:>9} {:>8} {:>7} {:>6}",
        "policy", "overlap", "makespan", "batches", "p50", "p99", "B/cycle", "xfer%", "hide‰"
    );
    for policy in [
        BatchPolicy::Fifo { batch: 8 },
        BatchPolicy::Deadline { batch: 8, max_wait: 2048 },
        BatchPolicy::Adaptive { max_batch: 32 },
    ] {
        for overlap in [true, false] {
            let cfg = ServeConfig { policy, overlap, ..ServeConfig::default() };
            let report = serve(&spec, std::slice::from_ref(&machine), &trace, &cfg).unwrap();
            let transfer = report.stats.profile.get(Phase::Transfer).cycles;
            println!(
                "{:<9} {:<8} {:>10} {:>8} {:>9} {:>9} {:>8.4} {:>6.1}% {:>6}",
                policy.name(),
                report.overlap,
                report.makespan_cycles,
                report.batches.len(),
                report.delivery.p50,
                report.delivery.p99,
                report.bytes_per_cycle(),
                100.0 * transfer as f64 / report.stats.cycles as f64,
                report.overlap_efficiency_permille,
            );
        }
    }

    // Show the copy/kernel interleaving of the first few FIFO batches.
    let cfg = ServeConfig { policy: BatchPolicy::Fifo { batch: 8 }, ..ServeConfig::default() };
    let report = serve(&spec, &[machine], &trace, &cfg).unwrap();
    println!("\nfifo timeline (first 6 batches, overlap on):");
    println!("{:<6} {:>8} {:>18} {:>22} {:>18}  mode", "batch", "streams", "h2d", "compute", "d2h");
    for (i, b) in report.batches.iter().take(6).enumerate() {
        println!(
            "{:<6} {:>8} {:>8}..{:<8} {:>10}..{:<10} {:>8}..{:<8}  {}",
            i,
            b.streams,
            b.h2d.start,
            b.h2d.end,
            b.compute.start,
            b.compute.end,
            b.d2h.start,
            b.d2h.end,
            b.mode.name(),
        );
    }
    println!(
        "\npeak queue depth {}, backpressure events {}, {}‰ of copy cycles hidden under kernels",
        report.peak_queue, report.backpressure_events, report.overlap_efficiency_permille,
    );
}
