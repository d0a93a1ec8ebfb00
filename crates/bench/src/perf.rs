//! Machine-readable perf reports (`BENCH_<experiment>.json`) and the CI
//! regression gate that consumes them.
//!
//! # Schema (version 1)
//!
//! Every report is one JSON object with, in order:
//!
//! - `schema_version` (integer): currently `1`. Consumers must reject
//!   versions they do not know.
//! - `experiment` (string): `"fig8"`, `"ablation"`, `"motivation"`,
//!   `"serve"`, `"chaos"`, `"adaptive"`, `"cluster"`, `"failover"`, or
//!   `"hostperf"`.
//! - `config` (object): the settings the numbers were produced with. Each
//!   builder writes its own:
//!   - `fig8`, `ablation`, `motivation`, `serve`, `chaos`, `adaptive`: the
//!     [`ExperimentConfig`]'s `seed`, `input_bytes`, `n_chunks`, `device`;
//!   - `cluster`: `vnodes`, `n_machines`, `residency_bytes`;
//!   - `failover`: `vnodes`, `n_machines`, `streams`,
//!     `checkpoint_every_batches`, `residency_bytes`;
//!   - `hostperf`: `streams`, `seed`, `mean_gap`, `len_min`, `len_max`,
//!     `device`.
//! - `total_cycles` (integer): the experiment's headline cycle total, the
//!   single number the CI perf gate compares against the committed baseline.
//!   `hostperf` is a wall-clock artifact, never gated, and has none.
//! - experiment-specific payload (see the builder functions below). Wherever
//!   a scheme run appears it carries a `phases` object keyed by
//!   [`gspecpal_gpu::Phase::name`] in [`gspecpal_gpu::Phase::ALL`] order; each phase holds the
//!   [`PhaseCounters`] fields plus the derived `utilization` and
//!   `coalesced_fraction`, and the per-phase `cycles` sum to the run's
//!   `total_cycles` exactly.
//!
//! Key order is fixed by construction ([`Json::Obj`] preserves insertion
//! order), so identical measurements render byte-identical reports — which
//! is what makes the committed baselines diffable and the gate trustworthy.

use std::fmt::Write as _;

use gspecpal::SchemeKind;
use gspecpal_gpu::{PhaseCounters, PhaseProfile};

use crate::adaptive_exp::{AdaptiveExperimentReport, AdaptiveRunSummary};
use crate::chaos_exp::ChaosExperimentReport;
use crate::cluster_exp::{self, ClusterExperimentReport};
use crate::experiments::{AblationReport, ExperimentConfig, Fig8Report};
use crate::extras::MotivationReport;
use crate::failover_exp::{self, FailoverExperimentReport};
use crate::hostperf::{self, FleetPerfReport, HostPerfConfig, HostPerfReport};
use crate::serve_exp::ServeExperimentReport;

/// Version stamped into every report; bump on any schema change.
pub const SCHEMA_VERSION: u64 = 1;

/// Cycle-total regressions beyond this percentage fail the CI gate.
pub const GATE_TOLERANCE_PERCENT: u64 = 5;

/// A JSON value with insertion-ordered object keys, rendered with a stable
/// pretty-printer. This is all the JSON the perf reports need — the crate
/// deliberately avoids external serialization dependencies.
#[derive(Clone, Debug)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float, rendered via Rust's shortest round-trip `Display` (never
    /// scientific notation, so always valid JSON); non-finite values render
    /// as `null`.
    F64(f64),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    fn write(&self, indent: usize, out: &mut String) {
        match self {
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if !x.is_finite() => out.push_str("null"),
            Json::F64(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(indent + 1, out);
                    item.write(indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(indent, out);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(indent + 1, out);
                    Json::Str(key.clone()).write(indent + 1, out);
                    out.push_str(": ");
                    value.write(indent + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(indent, out);
                out.push('}');
            }
        }
    }
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn counters_json(c: &PhaseCounters) -> Json {
    obj(vec![
        ("cycles", Json::U64(c.cycles)),
        ("rounds", Json::U64(c.rounds)),
        ("global_transactions", Json::U64(c.global_transactions)),
        ("global_coalesced_hits", Json::U64(c.global_coalesced_hits)),
        ("shared_accesses", Json::U64(c.shared_accesses)),
        ("alu_ops", Json::U64(c.alu_ops)),
        ("shuffles", Json::U64(c.shuffles)),
        ("atomics", Json::U64(c.atomics)),
        ("divergent_rounds", Json::U64(c.divergent_rounds)),
        ("active_thread_rounds", Json::U64(c.active_thread_rounds)),
        ("thread_rounds", Json::U64(c.thread_rounds)),
        ("utilization", Json::F64(c.utilization())),
        ("coalesced_fraction", Json::F64(c.coalesced_fraction())),
    ])
}

/// One scheme run: `total_cycles` plus the per-phase breakdown. The phase
/// cycles sum to `total_cycles` by the profile invariant.
fn run_json(total_cycles: u64, profile: &PhaseProfile) -> Json {
    debug_assert_eq!(profile.total_cycles(), total_cycles);
    let phases: Vec<(String, Json)> =
        profile.iter().map(|(p, c)| (p.name().to_string(), counters_json(c))).collect();
    obj(vec![("total_cycles", Json::U64(total_cycles)), ("phases", Json::Obj(phases))])
}

fn config_json(cfg: &ExperimentConfig) -> Json {
    obj(vec![
        ("seed", Json::U64(cfg.seed)),
        ("input_bytes", Json::U64(cfg.input_len as u64)),
        ("n_chunks", Json::U64(cfg.n_chunks as u64)),
        ("device", Json::Str(cfg.device.name.to_string())),
    ])
}

fn header(
    experiment: &str,
    cfg: &ExperimentConfig,
    total_cycles: u64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("experiment", Json::Str(experiment.to_string())),
        ("config", config_json(cfg)),
        ("total_cycles", Json::U64(total_cycles)),
    ]
}

/// Builds the `fig8` report: one row per benchmark with all four schemes'
/// totals and phase splits, the selector's pick, and the headline summary.
/// `total_cycles` is the sum of all four schemes' totals over the suite.
pub fn fig8_json(cfg: &ExperimentConfig, r: &Fig8Report) -> Json {
    let total: u64 = r
        .rows
        .iter()
        .map(|row| row.scheme_profiles().iter().map(|(_, c, _)| *c).sum::<u64>())
        .sum();
    let rows: Vec<Json> = r
        .rows
        .iter()
        .map(|row| {
            let schemes: Vec<(String, Json)> = row
                .scheme_profiles()
                .iter()
                .map(|(s, cycles, profile)| (s.name().to_string(), run_json(*cycles, profile)))
                .collect();
            obj(vec![
                ("fsm", Json::Str(row.name.clone())),
                ("tier", Json::Str(row.tier.name().to_string())),
                ("selected", Json::Str(row.selected.to_string())),
                ("selected_cycles", Json::U64(row.selected_cycles)),
                ("schemes", Json::Obj(schemes)),
            ])
        })
        .collect();
    let mut fields = header("fig8", cfg, total);
    fields.push(("rows", Json::Arr(rows)));
    fields.push((
        "summary",
        obj(vec![
            ("selector_mean_speedup", Json::F64(r.selector_mean_speedup())),
            ("selector_accuracy", Json::F64(r.selector_accuracy())),
            ("mean_speedup_nf", Json::F64(r.mean_speedup(SchemeKind::Nf))),
            ("mean_speedup_sfa", Json::F64(r.mean_speedup(SchemeKind::Sfa))),
            ("max_speedup", Json::F64(r.max_speedup())),
        ]),
    ));
    obj(fields)
}

/// Builds the `ablation` report from the absolute per-layout measurements.
/// `total_cycles` sums both layouts over all benchmarks.
pub fn ablation_json(cfg: &ExperimentConfig, r: &AblationReport) -> Json {
    let total: u64 = r.details.iter().map(|d| d.transformed_cycles + d.hashed_cycles).sum();
    let rows: Vec<Json> = r
        .details
        .iter()
        .map(|d| {
            obj(vec![
                ("fsm", Json::Str(d.name.clone())),
                ("scheme", Json::Str(d.scheme.to_string())),
                (
                    "hashed_over_transformed",
                    Json::F64(d.hashed_cycles as f64 / d.transformed_cycles as f64),
                ),
                ("transformed", run_json(d.transformed_cycles, &d.transformed_profile)),
                ("hashed", run_json(d.hashed_cycles, &d.hashed_profile)),
            ])
        })
        .collect();
    let mut fields = header("ablation", cfg, total);
    fields.push(("rows", Json::Arr(rows)));
    fields.push(("mean_improvement", Json::F64(r.mean_improvement())));
    obj(fields)
}

/// Builds the `motivation` report. `total_cycles` sums the four absolute
/// cycle measurements of §II-B's two contrasts.
pub fn motivation_json(cfg: &ExperimentConfig, r: &MotivationReport) -> Json {
    let total = r.batch_cycles + r.gspecpal_cycles + r.nfa_cycles + r.dfa_seq_cycles;
    let mut fields = header("motivation", cfg, total);
    fields.push(("batch_cycles", Json::U64(r.batch_cycles)));
    fields.push(("gspecpal_cycles", Json::U64(r.gspecpal_cycles)));
    fields.push(("batch_throughput", Json::F64(r.batch_throughput)));
    fields.push(("gspecpal_throughput", Json::F64(r.gspecpal_throughput)));
    fields.push(("nfa_cycles", Json::U64(r.nfa_cycles)));
    fields.push(("dfa_seq_cycles", Json::U64(r.dfa_seq_cycles)));
    fields.push(("dfa_gspecpal_cycles", Json::U64(r.dfa_gspecpal_cycles)));
    fields.push(("nfa_avg_active", Json::F64(r.nfa_avg_active)));
    fields.push(("dfa_states", Json::U64(u64::from(r.dfa_states))));
    fields.push(("nfa_states", Json::U64(u64::from(r.nfa_states))));
    obj(fields)
}

/// Builds the `serve` report: one entry per `(policy, overlap)` run with the
/// timeline headline (makespan), latency percentiles, throughput, overlap
/// economics, and the engine-busy phase split (`Transfer` carries real copy
/// cycles). The headline `total_cycles` is the summed makespan of every run,
/// so the gate trips on regressions in either kernels or the copy/overlap
/// scheduling.
pub fn serve_json(cfg: &ExperimentConfig, r: &ServeExperimentReport) -> Json {
    let runs: Vec<Json> = r
        .runs
        .iter()
        .map(|run| {
            obj(vec![
                ("policy", Json::Str(run.policy.name().to_string())),
                ("overlap", Json::Str(run.overlap.to_string())),
                ("makespan_cycles", Json::U64(run.makespan_cycles)),
                ("batches", Json::U64(run.batches)),
                (
                    "delivery_latency",
                    obj(vec![
                        ("p50", Json::U64(run.p50)),
                        ("p95", Json::U64(run.p95)),
                        ("p99", Json::U64(run.p99)),
                        ("max", Json::U64(run.max)),
                    ]),
                ),
                ("bytes_per_cycle", Json::F64(run.bytes_per_cycle)),
                ("overlap_efficiency_permille", Json::U64(run.overlap_efficiency_permille)),
                ("backpressure_events", Json::U64(run.backpressure_events)),
                ("peak_queue_depth", Json::U64(run.peak_queue_depth)),
                ("busy", run_json(run.busy_cycles, &run.profile)),
            ])
        })
        .collect();
    let mut fields = header("serve", cfg, r.total_makespan());
    fields.push(("streams", Json::U64(r.streams)));
    fields.push(("trace_bytes", Json::U64(r.total_bytes)));
    fields.push(("runs", Json::Arr(runs)));
    obj(fields)
}

/// Builds the `chaos` report: one entry per scheme with the fault-free and
/// faulted cycle totals, the recovery counters, and the faulted run's phase
/// split. The headline `total_cycles` is the summed *faulted* total, so the
/// gate trips when recovery itself gets more expensive even if the
/// fault-free path is untouched.
pub fn chaos_json(cfg: &ExperimentConfig, r: &ChaosExperimentReport) -> Json {
    let runs: Vec<Json> = r
        .runs
        .iter()
        .map(|run| {
            obj(vec![
                ("scheme", Json::Str(run.scheme.name().to_string())),
                ("clean_cycles", Json::U64(run.clean_cycles)),
                ("overhead_permille", Json::U64(run.overhead_permille)),
                ("block_retries", Json::U64(run.block_retries)),
                ("watchdog_kills", Json::U64(run.watchdog_kills)),
                ("degraded_blocks", Json::U64(run.degraded_blocks)),
                ("fault_cycles", Json::U64(run.fault_cycles)),
                ("faulted", run_json(run.faulted_cycles, &run.faulted_profile)),
            ])
        })
        .collect();
    let mut fields = header("chaos", cfg, r.total_faulted_cycles());
    fields.push(("fault_permille", Json::U64(u64::from(r.fault_permille))));
    fields.push(("input_bytes", Json::U64(r.input_bytes)));
    fields.push(("clean_total_cycles", Json::U64(r.total_clean_cycles())));
    fields.push(("runs", Json::Arr(runs)));
    obj(fields)
}

fn adaptive_run_json(run: &AdaptiveRunSummary) -> Json {
    obj(vec![
        ("label", Json::Str(run.label.clone())),
        ("makespan_cycles", Json::U64(run.makespan_cycles)),
        ("batches", Json::U64(run.batches)),
        ("decisions_made", Json::U64(run.decisions_made)),
        ("explore_decisions", Json::U64(run.explore_decisions)),
        ("segment_cycles", Json::Arr(run.segment_cycles.iter().map(|&c| Json::U64(c)).collect())),
        ("busy", run_json(run.busy_cycles, &run.profile)),
    ])
}

/// Builds the `adaptive` report: the online-autotuning A/B — every static
/// scheme vs the feedback controller on the same tier-mixed trace, the
/// per-segment decision log, and the headline
/// `mean_speedup_adaptive_vs_best_static`. The gated `total_cycles` is the
/// adaptive makespan plus every static leg's, so the 5% gate trips on a
/// regression in either side of the comparison.
pub fn adaptive_json(cfg: &ExperimentConfig, r: &AdaptiveExperimentReport) -> Json {
    let segments: Vec<Json> = r
        .segments
        .iter()
        .map(|s| {
            let decisions: Vec<Json> = s
                .decisions
                .iter()
                .map(|d| {
                    obj(vec![
                        ("batch", Json::U64(d.batch as u64)),
                        ("arm", Json::U64(d.arm as u64)),
                        ("scheme", Json::Str(d.choice.scheme.name().to_string())),
                        ("spec_k", Json::U64(d.choice.spec_k as u64)),
                        ("stitch", Json::Str(format!("{:?}", d.choice.stitch))),
                        ("explore", Json::Str(d.explore.to_string())),
                        ("predicted_millicost", Json::U64(d.choice.predicted_millicost)),
                        ("observed_millicost", Json::U64(d.observation.millicost())),
                        ("bytes", Json::U64(d.observation.bytes)),
                        ("compute_cycles", Json::U64(d.observation.compute_cycles)),
                        ("verify_cycles", Json::U64(d.observation.verify_cycles)),
                        ("recovery_cycles", Json::U64(d.observation.recovery_cycles)),
                        ("stitch_cycles", Json::U64(d.observation.stitch_cycles)),
                        ("verification_checks", Json::U64(d.observation.verification_checks)),
                        ("verification_matches", Json::U64(d.observation.verification_matches)),
                    ])
                })
                .collect();
            obj(vec![
                ("machine", Json::U64(s.machine as u64)),
                ("fsm", Json::Str(s.fsm.clone())),
                ("tier", Json::Str(s.tier.to_string())),
                ("adaptive_cycles", Json::U64(s.adaptive_cycles)),
                ("best_static_cycles", Json::U64(s.best_static_cycles)),
                ("decisions", Json::Arr(decisions)),
            ])
        })
        .collect();
    let mut fields = header("adaptive", cfg, r.total_cycles());
    fields.push(("streams", Json::U64(r.streams)));
    fields.push(("trace_bytes", Json::U64(r.total_bytes)));
    fields.push((
        "mean_speedup_adaptive_vs_best_static",
        Json::F64(r.mean_speedup_adaptive_vs_best_static()),
    ));
    fields.push((
        "adaptive_beats_every_static",
        Json::Str(r.adaptive_beats_every_static().to_string()),
    ));
    fields.push(("best_static", Json::Str(r.best_static().label.clone())));
    fields.push(("static_runs", Json::Arr(r.static_runs.iter().map(adaptive_run_json).collect())));
    fields.push(("adaptive", adaptive_run_json(&r.adaptive)));
    fields.push(("segments", Json::Arr(segments)));
    obj(fields)
}

fn latency_summary_json(s: &gspecpal_serve::LatencySummary) -> Json {
    obj(vec![
        ("p50", Json::U64(s.p50)),
        ("p95", Json::U64(s.p95)),
        ("p99", Json::U64(s.p99)),
        ("max", Json::U64(s.max)),
    ])
}

/// Builds the `cluster` report: every fleet scenario with its makespan,
/// fleet and per-class latency percentiles, merged residency counters,
/// migration traffic, and per-device slices. The headline `total_cycles`
/// is the summed makespan of all scenarios, so the 5% gate trips on a
/// regression in routing, residency charging, migration pricing, or
/// preemption scheduling.
pub fn cluster_json(r: &ClusterExperimentReport) -> Json {
    let scenarios: Vec<Json> = r
        .scenarios
        .iter()
        .map(|s| {
            let rep = &s.report;
            let devices: Vec<Json> = rep
                .devices
                .iter()
                .map(|d| {
                    obj(vec![
                        ("device", Json::Str(d.device.clone())),
                        ("streams", Json::U64(d.report.streams as u64)),
                        ("makespan_cycles", Json::U64(d.report.makespan_cycles)),
                        ("busy_cycles", Json::U64(d.report.stats.cycles)),
                        ("batches", Json::U64(d.report.batches_dispatched)),
                        ("shed_streams", Json::U64(d.report.recovery.shed_streams)),
                    ])
                })
                .collect();
            obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("streams", Json::U64(rep.streams as u64)),
                ("makespan_cycles", Json::U64(rep.makespan_cycles)),
                ("delivery_latency", latency_summary_json(&rep.delivery)),
                ("bulk_latency", latency_summary_json(&rep.bulk_delivery)),
                ("deadline_latency", latency_summary_json(&rep.deadline_delivery)),
                (
                    "residency",
                    obj(vec![
                        ("hits", Json::U64(rep.residency.hits)),
                        ("misses", Json::U64(rep.residency.misses)),
                        ("evictions", Json::U64(rep.residency.evictions)),
                        ("copied_bytes", Json::U64(rep.residency.copied_bytes)),
                        ("hit_permille", Json::U64(rep.residency.hit_permille())),
                    ]),
                ),
                ("preemptions", Json::U64(rep.preemptions)),
                ("preempted_cycles", Json::U64(rep.preempted_cycles)),
                ("shed_streams", Json::U64(rep.shed_streams)),
                ("imbalance_permille", Json::U64(rep.imbalance_permille)),
                (
                    "router",
                    obj(vec![
                        ("migrations", Json::U64(rep.router.migrations)),
                        ("migration_bytes", Json::U64(rep.router.migration_bytes)),
                        ("migration_cycles", Json::U64(rep.router.migration_cycles)),
                        ("rerouted_streams", Json::U64(rep.router.rerouted_streams)),
                    ]),
                ),
                ("devices", Json::Arr(devices)),
            ])
        })
        .collect();
    let skew_static = r.scenario("skew_static").makespan_cycles;
    let skew_rebalanced = r.scenario("skew_rebalanced").makespan_cycles;
    obj(vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("experiment", Json::Str("cluster".to_string())),
        (
            "config",
            obj(vec![
                ("vnodes", Json::U64(cluster_exp::VNODES as u64)),
                ("n_machines", Json::U64(cluster_exp::N_MACHINES as u64)),
                ("residency_bytes", Json::U64(cluster_exp::RESIDENCY_BYTES as u64)),
            ]),
        ),
        ("total_cycles", Json::U64(r.total_makespan())),
        (
            "summary",
            obj(vec![
                (
                    "rebalance_makespan_saved_permille",
                    Json::U64(
                        (skew_static.saturating_sub(skew_rebalanced) * 1000)
                            .checked_div(skew_static)
                            .unwrap_or(0),
                    ),
                ),
                ("deadline_p99_fifo", Json::U64(r.scenario("priority_fifo").deadline_delivery.p99)),
                (
                    "deadline_p99_preempt",
                    Json::U64(r.scenario("priority_preempt").deadline_delivery.p99),
                ),
                (
                    "residency_hit_permille",
                    Json::U64(r.scenario("skew_static").residency.hit_permille()),
                ),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// Builds the `failover` report: what crash-consistent serving costs.
/// `total_cycles` sums every scenario's fleet makespan, so the 5% gate
/// trips when checkpointing, migration pricing, or orphan replay gets more
/// expensive; the summary carries the recovery-overhead permille and the
/// replayed-cycle counters.
pub fn failover_json(r: &FailoverExperimentReport) -> Json {
    let scenarios: Vec<Json> = r
        .scenarios
        .iter()
        .map(|s| {
            let rep = &s.report;
            obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("streams", Json::U64(rep.streams as u64)),
                ("makespan_cycles", Json::U64(rep.makespan_cycles)),
                ("delivery_latency", latency_summary_json(&rep.delivery)),
                ("lost_streams", Json::U64(rep.lost_streams)),
                ("doomed_streams", Json::U64(rep.router.doomed_streams)),
                ("rerouted_streams", Json::U64(rep.router.rerouted_streams)),
                (
                    "failover",
                    obj(vec![
                        ("checkpoints_taken", Json::U64(rep.failover.checkpoints_taken)),
                        ("checkpoint_bytes", Json::U64(rep.failover.checkpoint_bytes)),
                        ("migrations_replayed", Json::U64(rep.failover.migrations_replayed)),
                        ("migration_retries", Json::U64(rep.failover.migration_retries)),
                        ("replay_cycles", Json::U64(rep.failover.replay_cycles)),
                    ]),
                ),
            ])
        })
        .collect();
    let mid = r.scenario("failover_mid");
    let faulty = r.scenario("failover_faulty");
    obj(vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("experiment", Json::Str("failover".to_string())),
        (
            "config",
            obj(vec![
                ("vnodes", Json::U64(cluster_exp::VNODES as u64)),
                ("n_machines", Json::U64(cluster_exp::N_MACHINES as u64)),
                ("streams", Json::U64(failover_exp::STREAMS as u64)),
                (
                    "checkpoint_every_batches",
                    Json::U64(failover_exp::CHECKPOINT_EVERY_BATCHES as u64),
                ),
                ("residency_bytes", Json::U64(cluster_exp::RESIDENCY_BYTES as u64)),
            ]),
        ),
        ("total_cycles", Json::U64(r.total_makespan())),
        (
            "summary",
            obj(vec![
                ("recovery_overhead_permille", Json::U64(r.recovery_overhead_permille())),
                ("replay_cycles", Json::U64(mid.failover.replay_cycles)),
                ("checkpoints_taken", Json::U64(mid.failover.checkpoints_taken)),
                ("checkpoint_bytes", Json::U64(mid.failover.checkpoint_bytes)),
                ("migrations_replayed", Json::U64(mid.failover.migrations_replayed)),
                ("faulty_migration_retries", Json::U64(faulty.failover.migration_retries)),
                ("lost_streams", Json::U64(mid.lost_streams.max(faulty.lost_streams))),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// Builds the `hostperf` report: host wall-clock throughput of the
/// streaming serve engine over a million-stream synthetic workload, plus
/// the deterministic simulation outputs and the peak-RSS bounded-memory
/// evidence, and the fleet row — the same source routed across the
/// heterogeneous cluster ([`crate::fleet_throughput_exp`]). Unlike every
/// other report this one carries wall-clock fields, so it is a warn-only
/// CI artifact, never a gated baseline — which is also why it has no
/// headline `total_cycles`.
pub fn hostperf_json(cfg: &HostPerfConfig, r: &HostPerfReport, fleet: &FleetPerfReport) -> Json {
    let fleet_json = obj(vec![
        ("streams", Json::U64(fleet.streams)),
        ("total_bytes", Json::U64(fleet.total_bytes)),
        ("makespan_cycles", Json::U64(fleet.makespan_cycles)),
        (
            "device_streams",
            Json::Obj(
                fleet
                    .device_streams
                    .iter()
                    .map(|(name, n)| (name.clone(), Json::U64(*n)))
                    .collect(),
            ),
        ),
        ("residency_hit_permille", Json::U64(fleet.residency_hit_permille)),
        ("imbalance_permille", Json::U64(fleet.imbalance_permille)),
        ("delivery_latency", latency_summary_json(&fleet.delivery)),
        ("wall_ms", Json::U64(fleet.wall_ms)),
        ("streams_per_sec", Json::F64(fleet.streams_per_sec)),
        ("peak_rss_kb", Json::U64(fleet.peak_rss_kb.unwrap_or(0))),
    ]);
    obj(vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("experiment", Json::Str("hostperf".to_string())),
        (
            "config",
            obj(vec![
                ("streams", Json::U64(cfg.streams as u64)),
                ("seed", Json::U64(hostperf::SEED)),
                ("mean_gap", Json::U64(hostperf::MEAN_GAP)),
                ("len_min", Json::U64(hostperf::LEN_RANGE.start as u64)),
                ("len_max", Json::U64(hostperf::LEN_RANGE.end as u64)),
                ("device", Json::Str(cfg.device.name.to_string())),
            ]),
        ),
        ("streams", Json::U64(r.streams)),
        ("total_bytes", Json::U64(r.total_bytes)),
        ("makespan_cycles", Json::U64(r.makespan_cycles)),
        ("busy_cycles", Json::U64(r.busy_cycles)),
        ("batches", Json::U64(r.batches)),
        (
            "delivery_latency",
            obj(vec![
                ("p50", Json::U64(r.delivery.p50)),
                ("p95", Json::U64(r.delivery.p95)),
                ("p99", Json::U64(r.delivery.p99)),
                ("max", Json::U64(r.delivery.max)),
                ("error_permille", Json::U64(r.latency_error_permille)),
            ]),
        ),
        ("peak_queue_depth", Json::U64(r.peak_queue)),
        ("wall_ms", Json::U64(r.wall_ms)),
        ("streams_per_sec", Json::F64(r.streams_per_sec)),
        ("mbytes_per_sec", Json::F64(r.mbytes_per_sec)),
        ("peak_rss_kb", Json::U64(r.peak_rss_kb.unwrap_or(0))),
        ("fleet", fleet_json),
    ])
}

/// Scales a report's headline `total_cycles` by `(100 + percent) / 100`
/// (rounding up). This is the self-test hook for the CI gate: inflating a
/// fresh report by more than [`GATE_TOLERANCE_PERCENT`] must make
/// [`regression_check`] against the committed baseline fail. Only the
/// headline total is touched, so an inflated report is detectably
/// inconsistent with its own phase data — it exists to prove the gate
/// trips, not to fake measurements.
pub fn inflate_total(doc: &mut Json, percent: u64) {
    if let Json::Obj(fields) = doc {
        for (key, value) in fields {
            if key == "total_cycles" {
                if let Json::U64(n) = value {
                    *n = (*n * (100 + percent)).div_ceil(100);
                }
                return;
            }
        }
    }
    panic!("report has no total_cycles field");
}

/// Extracts the headline `total_cycles` from a rendered report by scanning
/// for its first occurrence (the builders emit it in the header, before any
/// nested run objects).
pub fn extract_total_cycles(json_text: &str) -> Option<u64> {
    let key = "\"total_cycles\":";
    let at = json_text.find(key)?;
    let rest = json_text[at + key.len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The CI perf gate: passes when `current` is within
/// `tolerance_percent` above `baseline` (faster is always fine).
pub fn regression_check(current: u64, baseline: u64, tolerance_percent: u64) -> bool {
    current * 100 <= baseline * (100 + tolerance_percent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_gpu::Phase;

    fn profile(cycles: u64) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        p.get_mut(Phase::SpecExec).cycles = cycles;
        p.get_mut(Phase::SpecExec).rounds = 1;
        p
    }

    #[test]
    fn rendering_is_stable_and_escaped() {
        let doc = obj(vec![
            ("name", Json::Str("a\"b\nc".into())),
            ("n", Json::U64(7)),
            ("x", Json::F64(0.5)),
            ("bad", Json::F64(f64::NAN)),
            ("list", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        let a = doc.render();
        let b = doc.render();
        assert_eq!(a, b);
        assert!(a.contains("\"a\\\"b\\nc\""));
        assert!(a.contains("\"bad\": null"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn totals_round_trip_through_text() {
        let doc = obj(vec![
            ("schema_version", Json::U64(SCHEMA_VERSION)),
            ("total_cycles", Json::U64(123456)),
            ("nested", obj(vec![("total_cycles", Json::U64(1))])),
        ]);
        assert_eq!(extract_total_cycles(&doc.render()), Some(123456));
        assert_eq!(extract_total_cycles("no totals here"), None);
    }

    #[test]
    fn inflation_trips_the_gate() {
        let mut doc = obj(vec![("total_cycles", Json::U64(1000))]);
        inflate_total(&mut doc, 10);
        let inflated = extract_total_cycles(&doc.render()).unwrap();
        assert_eq!(inflated, 1100);
        assert!(regression_check(1000, 1000, GATE_TOLERANCE_PERCENT));
        assert!(regression_check(1049, 1000, GATE_TOLERANCE_PERCENT));
        assert!(!regression_check(inflated, 1000, GATE_TOLERANCE_PERCENT));
        assert!(regression_check(900, 1000, GATE_TOLERANCE_PERCENT), "faster never fails");
    }

    #[test]
    fn run_objects_carry_every_phase() {
        let text = run_json(42, &profile(42)).render();
        for phase in Phase::ALL {
            assert!(text.contains(&format!("\"{}\"", phase.name())), "{text}");
        }
        assert!(text.contains("\"utilization\""));
        assert_eq!(extract_total_cycles(&text), Some(42));
    }
}
