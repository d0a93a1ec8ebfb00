//! The paper-harness binary: regenerates every table and figure.
//!
//! ```text
//! cargo run --release -p gspecpal-bench --bin figures -- [EXPERIMENT] [--input-kb N] [--seed S] [--chunks N] [--csv DIR] [--device rtx3090|a100]
//! ```
//!
//! `EXPERIMENT` is one of:
//! - the paper's evaluation: `table2`, `table3`, `fig3`, `fig7`, `fig8`
//!   (alias `selector`), `fig9`, `ablation`;
//! - the extras: `motivation` (§II-B), `model` (§III-C Eq. 2–3 against the
//!   simulator), `budget` (the speculative-recovery budget), `cpu` (the
//!   multicore engines, host wall time) and `sensitivity` (perturbed device
//!   constants);
//! - `debug:NAME`: per-scheme phase numbers of one benchmark, e.g.
//!   `debug:Snort3`;
//! - `all` (default): `table2`, `fig3`, `fig7`, `fig8`, `table3`, `fig9`,
//!   `ablation`, `motivation`, `model` and `budget`, in that order.
//!
//! `--csv DIR` also writes each paper table's CSV view to `DIR/NAME.csv`
//! (Fig 8 writes `fig8.csv` and `fig8_phases.csv`). A bad flag, experiment
//! or benchmark name, or a CSV file that cannot be written, prints one line
//! and exits with status 2.

use gspecpal_bench::cli::{write_file, Args, CliError};
use gspecpal_bench::experiments::debug_benchmark;
use gspecpal_bench::report::Table;
use gspecpal_bench::{
    run_ablation, run_budget_ablation, run_cpu_scaling, run_device_sensitivity, run_fig3, run_fig7,
    run_fig8, run_fig9, run_model_validation, run_motivation, run_table2, run_table3,
    ExperimentConfig,
};

/// An experiment's tables, each named for the CSV file its CSV view goes to.
type Tables = Vec<(&'static str, Table)>;

/// Runs one experiment.
type Run = fn(&ExperimentConfig) -> Tables;

/// Every experiment: its name, whether `all` runs it, and its run. `all`
/// runs them in this order.
const EXPERIMENTS: [(&str, bool, Run); 12] = [
    ("table2", true, |cfg| vec![("table2", run_table2(cfg).table())]),
    ("fig3", true, |cfg| vec![("fig3", run_fig3(cfg).table())]),
    ("fig7", true, |cfg| vec![("fig7", run_fig7(cfg).table())]),
    ("fig8", true, |cfg| {
        let r = run_fig8(cfg);
        vec![("fig8", r.table()), ("fig8_phases", r.phases_table())]
    }),
    ("table3", true, |cfg| vec![("table3", run_table3(cfg).table())]),
    ("fig9", true, |cfg| vec![("fig9", run_fig9(cfg).table())]),
    ("ablation", true, |cfg| vec![("ablation", run_ablation(cfg).table())]),
    ("motivation", true, |cfg| vec![("motivation", run_motivation(cfg).table())]),
    ("model", true, |cfg| vec![("model", run_model_validation(cfg).table())]),
    ("budget", true, |cfg| vec![("budget", run_budget_ablation(cfg).table())]),
    ("cpu", false, |cfg| vec![("cpu", run_cpu_scaling(cfg).table())]),
    ("sensitivity", false, |cfg| vec![("sensitivity", run_device_sensitivity(cfg).table())]),
];

/// The experiment, its configuration, and the CSV directory, if any.
fn parse_args(mut args: Args) -> Result<(String, ExperimentConfig, Option<String>), CliError> {
    let mut experiment = "all".to_string();
    let mut cfg = ExperimentConfig::default();
    let mut csv_dir = None;
    while let Some(arg) = args.next() {
        if args.experiment_flag(&arg, &mut cfg)? {
            continue;
        }
        match arg.as_str() {
            "--csv" => csv_dir = Some(args.operand(&arg)?),
            other if !other.starts_with("--") => experiment = arg,
            other => return Err(CliError(format!("unknown flag {other}"))),
        }
    }
    Ok((experiment, cfg, csv_dir))
}

/// Runs `experiment`, printing each table's text view and writing its CSV
/// view under `csv_dir`.
fn run(experiment: &str, cfg: &ExperimentConfig, csv_dir: Option<&str>) -> Result<(), CliError> {
    if let Some(name) = experiment.strip_prefix("debug:") {
        println!("{}", debug_benchmark(cfg, name)?);
        return Ok(());
    }
    let wanted = if experiment == "selector" { "fig8" } else { experiment };
    let runs: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, in_all, _)| *name == wanted || (wanted == "all" && *in_all))
        .collect();
    if runs.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
        return Err(CliError(format!(
            "unknown experiment '{experiment}' (try {}, selector, debug:NAME, all)",
            names.join(", ")
        )));
    }
    for (_, _, run) in runs {
        for (name, table) in run(cfg) {
            if let Some(text) = table.text() {
                println!("{text}");
            }
            if let (Some(dir), Some(csv)) = (csv_dir, table.csv()) {
                let path = write_file(dir, &format!("{name}.csv"), &csv)?;
                eprintln!("[wrote {path}]");
            }
        }
    }
    Ok(())
}

fn main() {
    let (experiment, cfg, csv_dir) = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit());

    println!(
        "GSpecPal reproduction harness — device: {}, input: {} KiB, N = {}, seed = {}\n",
        cfg.device.name,
        cfg.input_len / 1024,
        cfg.n_chunks,
        cfg.seed
    );

    let t0 = std::time::Instant::now();
    run(&experiment, &cfg, csv_dir.as_deref()).unwrap_or_else(|e| e.exit());
    eprintln!("[harness finished in {:.1}s]", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig { seed: 1, input_len: 1024, n_chunks: 8, ..Default::default() }
    }

    #[test]
    fn unknown_names_are_one_line_errors() {
        let debug = run("debug:Nope", &tiny(), None).unwrap_err().0;
        assert_eq!(debug, "unknown benchmark Nope (try Snort1 … PowerEN12)");
        let unknown = run("fig10", &tiny(), None).unwrap_err().0;
        assert!(unknown.starts_with("unknown experiment 'fig10' (try table2, fig3,"), "{unknown}");
        assert!(!unknown.contains('\n'), "{unknown}");
    }

    #[test]
    fn unwritable_csv_dir_is_a_one_line_error() {
        // A directory cannot be created under a regular file.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/csv");
        let err = run("fig3", &tiny(), Some(dir)).unwrap_err().0;
        assert!(err.starts_with(&format!("cannot write {dir}/fig3.csv: ")), "{err}");
    }
}
