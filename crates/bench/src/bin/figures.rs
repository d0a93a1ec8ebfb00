//! The paper-harness binary: regenerates every table and figure.
//!
//! ```text
//! cargo run --release -p gspecpal-bench --bin figures -- [EXPERIMENT] [--input-kb N] [--seed S] [--chunks N] [--csv DIR] [--device rtx3090|a100]
//! ```
//!
//! `EXPERIMENT` is one of `table2`, `table3`, `fig3`, `fig7`, `fig8`,
//! `fig9`, `ablation`, `selector`, or `all` (default). A bad flag or value
//! prints one line and exits with status 2.

use gspecpal_bench::cli::{Args, CliError};
use gspecpal_bench::{
    run_ablation, run_budget_ablation, run_cpu_scaling, run_device_sensitivity, run_fig3, run_fig7,
    run_fig8, run_fig9, run_model_validation, run_motivation, run_table2, run_table3,
    ExperimentConfig,
};

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
    let save = |name: &str, csv: String| {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, csv).expect("write csv");
            eprintln!("[wrote {path}]");
        }
    };
    match experiment.as_str() {
        "table2" => {
            let r = run_table2(&cfg);
            println!("{}", r.render());
            save("table2", r.to_csv());
        }
        "table3" => {
            let r = run_table3(&cfg);
            println!("{}", r.render());
            save("table3", r.to_csv());
        }
        "fig3" => {
            let r = run_fig3(&cfg);
            println!("{}", r.render());
            save("fig3", r.to_csv());
        }
        "fig7" => {
            let r = run_fig7(&cfg);
            println!("{}", r.render());
            save("fig7", r.to_csv());
        }
        "fig8" | "selector" => {
            let r = run_fig8(&cfg);
            println!("{}", r.render());
            save("fig8", r.to_csv());
            save("fig8_phases", r.phases_to_csv());
        }
        "fig9" => {
            let r = run_fig9(&cfg);
            println!("{}", r.render());
            save("fig9", r.to_csv());
        }
        "ablation" => {
            let r = run_ablation(&cfg);
            println!("{}", r.render());
            save("ablation", r.to_csv());
        }
        "motivation" => println!("{}", run_motivation(&cfg).render()),
        "cpu" => println!("{}", run_cpu_scaling(&cfg).render()),
        "sensitivity" => println!("{}", run_device_sensitivity(&cfg).render()),
        "model" => println!("{}", run_model_validation(&cfg).render()),
        "budget" => println!("{}", run_budget_ablation(&cfg).render()),
        name if name.starts_with("debug:") => {
            println!("{}", gspecpal_bench::experiments::debug_benchmark(&cfg, &name[6..]));
        }
        "all" => {
            let t2 = run_table2(&cfg);
            println!("{}", t2.render());
            save("table2", t2.to_csv());
            let f3 = run_fig3(&cfg);
            println!("{}", f3.render());
            save("fig3", f3.to_csv());
            let f7 = run_fig7(&cfg);
            println!("{}", f7.render());
            save("fig7", f7.to_csv());
            let f8 = run_fig8(&cfg);
            println!("{}", f8.render());
            save("fig8", f8.to_csv());
            save("fig8_phases", f8.phases_to_csv());
            let t3 = run_table3(&cfg);
            println!("{}", t3.render());
            save("table3", t3.to_csv());
            let f9 = run_fig9(&cfg);
            println!("{}", f9.render());
            save("fig9", f9.to_csv());
            let ab = run_ablation(&cfg);
            println!("{}", ab.render());
            save("ablation", ab.to_csv());
            println!("{}", run_motivation(&cfg).render());
            println!("{}", run_model_validation(&cfg).render());
            println!("{}", run_budget_ablation(&cfg).render());
        }
        other => {
            eprintln!(
                "unknown experiment '{other}' (try table2, table3, fig3, fig7, fig8, fig9, \
                 ablation, motivation, model, budget, cpu, sensitivity, selector, all)"
            );
            std::process::exit(2);
        }
    }
    eprintln!("[harness finished in {:.1}s]", t0.elapsed().as_secs_f64());
}
