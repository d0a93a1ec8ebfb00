//! Golden bytes of the reports `figures` prints and writes: the text and
//! CSV views of the seven paper reports (Tables II–III, Figs 3/7/8/9, the
//! §V-C ablation), Fig 8's phase CSV, and the motivation, model and budget
//! text, all at one small configuration (8 KiB inputs, 32 chunks, seed 1).
//!
//! Table II's profiling column is host wall time, so it is zeroed before
//! rendering. After an intended output change, rewrite the files with
//! `BLESS_GOLDEN=1 cargo test -p gspecpal-bench --test report_golden`.

use std::path::PathBuf;

use gspecpal_bench::{
    run_ablation, run_budget_ablation, run_fig3, run_fig7, run_fig8, run_fig9,
    run_model_validation, run_motivation, run_table2, run_table3, ExperimentConfig,
};

fn cfg() -> ExperimentConfig {
    ExperimentConfig { seed: 1, input_len: 8 * 1024, n_chunks: 32, ..Default::default() }
}

/// Compares `actual` with `tests/golden/{name}` byte for byte.
fn golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(actual == expected, "{name} differs from {}:\n{actual}", path.display());
}

#[test]
fn table2_bytes() {
    let mut r = run_table2(&cfg());
    for row in &mut r.rows {
        row.profiling_seconds = 0.0;
    }
    let t = r.table();
    golden("table2.txt", &t.text().unwrap());
    golden("table2.csv", &t.csv().unwrap());
}

#[test]
fn table3_bytes() {
    let t = run_table3(&cfg()).table();
    golden("table3.txt", &t.text().unwrap());
    golden("table3.csv", &t.csv().unwrap());
}

#[test]
fn fig3_bytes() {
    let t = run_fig3(&cfg()).table();
    golden("fig3.txt", &t.text().unwrap());
    golden("fig3.csv", &t.csv().unwrap());
}

#[test]
fn fig7_bytes() {
    let t = run_fig7(&cfg()).table();
    golden("fig7.txt", &t.text().unwrap());
    golden("fig7.csv", &t.csv().unwrap());
}

#[test]
fn fig8_bytes() {
    let r = run_fig8(&cfg());
    let t = r.table();
    golden("fig8.txt", &t.text().unwrap());
    golden("fig8.csv", &t.csv().unwrap());
    golden("fig8_phases.csv", &r.phases_table().csv().unwrap());
}

#[test]
fn fig9_bytes() {
    let t = run_fig9(&cfg()).table();
    golden("fig9.txt", &t.text().unwrap());
    golden("fig9.csv", &t.csv().unwrap());
}

#[test]
fn ablation_bytes() {
    let t = run_ablation(&cfg()).table();
    golden("ablation.txt", &t.text().unwrap());
    golden("ablation.csv", &t.csv().unwrap());
}

#[test]
fn motivation_model_and_budget_bytes() {
    golden("motivation.txt", &run_motivation(&cfg()).table().text().unwrap());
    golden("model.txt", &run_model_validation(&cfg()).table().text().unwrap());
    golden("budget.txt", &run_budget_ablation(&cfg()).table().text().unwrap());
}
