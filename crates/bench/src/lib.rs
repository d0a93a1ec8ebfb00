//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `run_*` function reproduces one experiment from §V and returns a
//! structured report. Each report renders through one [`report::Table`]:
//! the `figures` binary prints its text view in the paper's format and
//! writes its CSV view. All experiments are deterministic in
//! `(seed, input_len)`.

#![warn(missing_docs)]

pub mod adaptive_exp;
pub mod chaos_exp;
pub mod cli;
pub mod cluster_exp;
pub mod experiments;
pub mod extras;
pub mod failover_exp;
pub mod hostperf;
pub mod perf;
pub mod report;
pub mod serve_exp;

pub use adaptive_exp::{
    run_adaptive, AdaptiveExperimentReport, AdaptiveRunSummary, SegmentSummary,
};
pub use chaos_exp::{run_chaos, ChaosExperimentReport, ChaosRunSummary};
pub use cluster_exp::{run_cluster_exp, ClusterExperimentReport, ClusterScenario};
pub use experiments::{
    run_ablation, run_fig3, run_fig7, run_fig8, run_fig9, run_table2, run_table3, ExperimentConfig,
};
pub use extras::{
    run_budget_ablation, run_cpu_scaling, run_device_sensitivity, run_model_validation,
    run_motivation,
};
pub use failover_exp::{run_failover_exp, FailoverExperimentReport, FailoverScenario};
pub use hostperf::{
    fleet_throughput_exp, peak_rss_kb, throughput_exp, FleetPerfReport, HostPerfConfig,
    HostPerfReport,
};
pub use serve_exp::{run_serve, ServeExperimentReport, ServeRunSummary};
