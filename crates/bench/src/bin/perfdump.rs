//! Perf-report dumper: runs the fig8, ablation, motivation, serve, chaos,
//! adaptive, cluster, and failover experiments on a small deterministic
//! workload and writes one schema-versioned `BENCH_<experiment>.json` per
//! experiment (see `gspecpal_bench::perf` for the schema). CI runs this on every push and gates on the headline
//! `total_cycles` against the committed baselines. Each experiment's stdout
//! line also gives the host wall-ms it took; the reports carry no host time.
//!
//! ```text
//! cargo run --release -p gspecpal-bench --bin perfdump -- \
//!     [--input-kb N] [--seed S] [--chunks N] [--device rtx3090|a100] \
//!     [--out DIR] [--write-baseline] [--check DIR] [--inflate-percent P] \
//!     [--hostperf [STREAMS]]
//! ```
//!
//! - `--out DIR` (default `.`): where the reports are written.
//! - `--write-baseline`: write to `benches/baseline` instead of `--out`
//!   (run from the repo root to regenerate the committed baselines).
//! - `--check DIR`: after writing, compare each report's `total_cycles`
//!   against `DIR/BENCH_<experiment>.json`; print a `FAIL` line and exit
//!   with status 1 if any experiment regressed by more than the gate
//!   tolerance, or a baseline is missing or has no `total_cycles`.
//! - `--inflate-percent P`: inflate each report's headline total by `P`%
//!   before writing/checking — the CI self-test that proves the gate trips.
//! - `--hostperf [STREAMS]`: additionally run the host-throughput
//!   experiment (default one million streams through the streaming serve
//!   engine in bounded-memory mode) and write `BENCH_hostperf.json`. The
//!   report carries wall-clock numbers, so it is never part of `--check` —
//!   CI keeps it as a warn-only artifact.
//!
//! A bad flag or value, or a report that cannot be written under `--out`,
//! prints one line and exits with status 2.

use gspecpal_bench::cli::{write_file, Args, CliError};
use gspecpal_bench::perf::{
    ablation_json, adaptive_json, chaos_json, cluster_json, extract_total_cycles, failover_json,
    fig8_json, hostperf_json, inflate_total, motivation_json, regression_check, serve_json, Json,
    GATE_TOLERANCE_PERCENT,
};
use gspecpal_bench::{
    fleet_throughput_exp, run_ablation, run_adaptive, run_chaos, run_cluster_exp, run_failover_exp,
    run_fig8, run_motivation, run_serve, throughput_exp, ExperimentConfig, HostPerfConfig,
};

/// Runs one experiment and returns its report with the host wall-ms it
/// took. The time is printed to stdout only, so the written reports stay
/// machine-independent.
fn timed(run: impl FnOnce() -> Json) -> (Json, f64) {
    let start = std::time::Instant::now();
    let doc = run();
    (doc, start.elapsed().as_secs_f64() * 1e3)
}

/// What the command line asks for.
struct Options {
    cfg: ExperimentConfig,
    out_dir: String,
    check_dir: Option<String>,
    inflate_percent: u64,
    hostperf_streams: Option<usize>,
}

fn parse_args(mut args: Args) -> Result<Options, CliError> {
    let mut opts = Options {
        // The perf gate's default workload is deliberately small: large
        // enough that every scheme recovers and stitches (the phases CI
        // watches), small enough to run in seconds in release mode.
        cfg: ExperimentConfig { input_len: 32 * 1024, n_chunks: 64, ..Default::default() },
        out_dir: ".".to_string(),
        check_dir: None,
        inflate_percent: 0,
        hostperf_streams: None,
    };
    let mut write_baseline = false;
    while let Some(arg) = args.next() {
        if args.experiment_flag(&arg, &mut opts.cfg)? {
            continue;
        }
        match arg.as_str() {
            "--out" => opts.out_dir = args.operand(&arg)?,
            "--write-baseline" => write_baseline = true,
            "--check" => opts.check_dir = Some(args.operand(&arg)?),
            "--inflate-percent" => opts.inflate_percent = args.number(&arg, 0)?,
            // Optional stream-count operand; defaults to a million.
            "--hostperf" => opts.hostperf_streams = Some(args.optional().unwrap_or(1_000_000)),
            other => return Err(CliError(format!("unknown flag {other}"))),
        }
    }
    if write_baseline {
        opts.out_dir = "benches/baseline".to_string();
    }
    Ok(opts)
}

/// Compares a report's headline total with the one in
/// `dir/BENCH_{name}.json`. `Ok` holds the `OK` line to print, `Err` the
/// `FAIL` line: the total regressed past the gate tolerance, or the
/// baseline is missing or has no `total_cycles`.
fn check(name: &str, current: u64, dir: &str) -> Result<String, String> {
    let baseline_path = format!("{dir}/BENCH_{name}.json");
    let Ok(baseline_text) = std::fs::read_to_string(&baseline_path) else {
        return Err(format!("{name}: FAIL — no baseline at {baseline_path}"));
    };
    let Some(baseline) = extract_total_cycles(&baseline_text) else {
        return Err(format!("{name}: FAIL — {baseline_path} has no total_cycles"));
    };
    if regression_check(current, baseline, GATE_TOLERANCE_PERCENT) {
        Ok(format!(
            "{name}: OK — {current} vs baseline {baseline} (tolerance {GATE_TOLERANCE_PERCENT}%)"
        ))
    } else {
        Err(format!(
            "{name}: FAIL — {current} regressed more than \
             {GATE_TOLERANCE_PERCENT}% over baseline {baseline}"
        ))
    }
}

fn main() {
    let Options { cfg, out_dir, check_dir, inflate_percent, hostperf_streams } =
        parse_args(Args::from_env()).unwrap_or_else(|e| e.exit());

    eprintln!(
        "perfdump — device: {}, input: {} KiB, N = {}, seed = {}",
        cfg.device.name,
        cfg.input_len / 1024,
        cfg.n_chunks,
        cfg.seed
    );
    let t0 = std::time::Instant::now();
    let mut reports: Vec<(&'static str, (Json, f64))> = vec![
        ("fig8", timed(|| fig8_json(&cfg, &run_fig8(&cfg)))),
        ("ablation", timed(|| ablation_json(&cfg, &run_ablation(&cfg)))),
        ("motivation", timed(|| motivation_json(&cfg, &run_motivation(&cfg)))),
        ("serve", timed(|| serve_json(&cfg, &run_serve(&cfg)))),
        ("chaos", timed(|| chaos_json(&cfg, &run_chaos(&cfg)))),
        ("adaptive", timed(|| adaptive_json(&cfg, &run_adaptive(&cfg)))),
        // The cluster experiment shapes its own fleet workload (skew and
        // priority traces engineered against the router's placement), so
        // it does not take the single-device ExperimentConfig.
        ("cluster", timed(|| cluster_json(&run_cluster_exp()))),
        // Likewise the failover experiment: it engineers its own outage
        // scenario (victim choice, crash cycle) against the fleet's
        // routing, independent of the single-device knobs.
        ("failover", timed(|| failover_json(&run_failover_exp()))),
    ];
    if inflate_percent > 0 {
        eprintln!("[inflating headline totals by {inflate_percent}% — gate self-test]");
        for (_, (doc, _)) in &mut reports {
            inflate_total(doc, inflate_percent);
        }
    }

    let mut failed = false;
    for (name, (doc, wall_ms)) in &reports {
        let text = doc.render();
        let current = extract_total_cycles(&text).expect("report has a headline total");
        let path =
            write_file(&out_dir, &format!("BENCH_{name}.json"), &text).unwrap_or_else(|e| e.exit());
        println!("{name}: total_cycles = {current} [wrote {path}], host wall {wall_ms:.0} ms");

        if let Some(dir) = &check_dir {
            match check(name, current, dir) {
                Ok(line) => println!("{line}"),
                Err(line) => {
                    println!("{line}");
                    failed = true;
                }
            }
        }
    }
    // The host-throughput experiment runs after the gated reports: it is
    // wall-clock (machine-dependent), so its report is written but never
    // checked against a baseline.
    if let Some(streams) = hostperf_streams {
        let hcfg = HostPerfConfig { streams, device: cfg.device.clone() };
        eprintln!("[hostperf: {streams} streams through the streaming serve engine]");
        let hreport = throughput_exp(&hcfg);
        eprintln!("[hostperf fleet row: {streams} streams across the heterogeneous cluster]");
        let freport = fleet_throughput_exp(&hcfg);
        let json = hostperf_json(&hcfg, &hreport, &freport).render();
        let path = write_file(&out_dir, "BENCH_hostperf.json", &json).unwrap_or_else(|e| e.exit());
        println!(
            "hostperf: {:.0} streams/s, {:.1} MiB/s, peak RSS {} KiB, \
             makespan {} cycles [wrote {path}]",
            hreport.streams_per_sec,
            hreport.mbytes_per_sec,
            hreport.peak_rss_kb.unwrap_or(0),
            hreport.makespan_cycles,
        );
        println!(
            "hostperf fleet: {:.0} streams/s across {} devices, residency hits {}‰, \
             imbalance {}‰, makespan {} cycles",
            freport.streams_per_sec,
            freport.device_streams.len(),
            freport.residency_hit_permille,
            freport.imbalance_permille,
            freport.makespan_cycles,
        );
    }
    eprintln!("[perfdump finished in {:.1}s]", t0.elapsed().as_secs_f64());
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_without_a_total_fail_the_check() {
        let dir = std::env::temp_dir().join(format!("perfdump-check-{}", std::process::id()));
        let dir = dir.to_str().unwrap();
        write_file(dir, "BENCH_bare.json", "{\"schema\": 1}\n").unwrap();
        write_file(dir, "BENCH_gated.json", "{\"total_cycles\": 100}\n").unwrap();
        let bare = check("bare", 100, dir);
        let gated = check("gated", 105, dir);
        let regressed = check("gated", 106, dir);
        let missing = check("absent", 100, dir);
        std::fs::remove_dir_all(dir).unwrap();
        assert_eq!(bare, Err(format!("bare: FAIL — {dir}/BENCH_bare.json has no total_cycles")));
        assert_eq!(gated.as_deref(), Ok("gated: OK — 105 vs baseline 100 (tolerance 5%)"));
        assert!(regressed.unwrap_err().starts_with("gated: FAIL — 106 regressed"));
        assert_eq!(missing, Err(format!("absent: FAIL — no baseline at {dir}/BENCH_absent.json")));
    }
}
