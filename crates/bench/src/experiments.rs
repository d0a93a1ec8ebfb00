//! Experiment runners, one per table/figure of the paper's evaluation (§V).

use gspecpal::run::{RunOutcome, SchemeKind};
use gspecpal::schemes::{exec_phase, Job};
use gspecpal::table::{DeviceTable, TableLayout};
use gspecpal::{GSpecPal, SchemeConfig, Selector};
use gspecpal_fsm::{Dfa, FrequencyProfile, TransformedDfa};
use gspecpal_gpu::{DeviceSpec, PhaseProfile};
use gspecpal_workloads::{build_suite, Benchmark, Family, Tier};

use crate::cli::CliError;
use crate::report::{f2, mean, pct, Cell, Table};

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Suite seed (which 36 machines get generated).
    pub seed: u64,
    /// Input stream length in bytes. The paper uses 10 MB; the default here
    /// is 256 KiB, which keeps every simulated ratio in the same regime
    /// (chunk length ≫ convergence length) while making the full harness
    /// run in minutes. Pass `--input-kb` to scale up.
    pub input_len: usize,
    /// Chunk/thread count `N`.
    pub n_chunks: usize,
    /// The simulated device.
    pub device: DeviceSpec,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 1,
            input_len: 256 * 1024,
            n_chunks: 256,
            device: DeviceSpec::rtx3090(),
        }
    }
}

impl ExperimentConfig {
    /// The scheme configuration these experiments run with.
    pub fn scheme_config(&self) -> SchemeConfig {
        SchemeConfig { n_chunks: self.n_chunks, ..SchemeConfig::default() }
    }

    /// A framework instance for this configuration.
    pub fn framework(&self) -> GSpecPal {
        GSpecPal::new(self.device.clone()).with_config(self.scheme_config())
    }
}

/// Builds a job over a frequency-transformed table and hands it to `f`.
fn with_job<R>(
    cfg: &ExperimentConfig,
    scheme_config: SchemeConfig,
    dfa: &Dfa,
    input: &[u8],
    f: impl FnOnce(&Job<'_>) -> R,
) -> R {
    let freq = FrequencyProfile::collect(dfa, cfg.framework().training_slice(input));
    let transformed = TransformedDfa::from_profile(dfa, &freq);
    let hot =
        DeviceTable::hot_rows_for_device(transformed.dfa(), TableLayout::Transformed, &cfg.device);
    let table = DeviceTable::transformed(transformed.dfa(), hot);
    let mut sc = scheme_config;
    sc.n_chunks = sc.n_chunks.min(input.len().max(1));
    let job = Job::new(&cfg.device, &table, input, sc).expect("valid job");
    f(&job)
}

// ---------------------------------------------------------------------------
// Figure 3: spec-k execution time normalized to spec-1 (V&R ignored).
// ---------------------------------------------------------------------------

/// Fig 3 data: per k, the mean normalized speculative-execution time.
#[derive(Clone, Debug)]
pub struct Fig3Report {
    /// The k values swept.
    pub ks: Vec<usize>,
    /// `rows[f][ki]` = mean normalized exec time of family `f` at `ks[ki]`.
    pub per_family: Vec<(Family, Vec<f64>)>,
    /// Overall mean per k.
    pub overall: Vec<f64>,
}

/// Runs the Fig 3 experiment: speculative execution only, k ∈ {1, 4, 6, 8}.
pub fn run_fig3(cfg: &ExperimentConfig) -> Fig3Report {
    let ks = vec![1usize, 4, 6, 8];
    let suite = build_suite(cfg.seed);
    let mut per_family = Vec::new();
    for family in Family::all() {
        let mut sums = vec![0.0; ks.len()];
        let mut count = 0usize;
        for b in suite.iter().filter(|b| b.family == family) {
            let input = b.generate_input(cfg.input_len, 0);
            let mut cycles = Vec::with_capacity(ks.len());
            for &k in &ks {
                let c = with_job(cfg, cfg.scheme_config(), &b.dfa, &input, |job| {
                    exec_phase(job, k).exec_stats.cycles
                });
                cycles.push(c as f64);
            }
            for (i, c) in cycles.iter().enumerate() {
                sums[i] += c / cycles[0];
            }
            count += 1;
        }
        let means: Vec<f64> = sums.iter().map(|s| s / count as f64).collect();
        per_family.push((family, means));
    }
    let overall = (0..ks.len())
        .map(|i| mean(&per_family.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()))
        .collect();
    Fig3Report { ks, per_family, overall }
}

impl Fig3Report {
    /// The figure: one row per family, one column per k, and a text-only
    /// `mean` row.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3: execution time of spec-k normalized to spec-1 \
             (verification and recovery ignored)",
        );
        t.column("Family", "family");
        for k in &self.ks {
            t.column(format!("spec-{k}"), format!("spec_{k}"));
        }
        for (f, v) in &self.per_family {
            let mut row = vec![Cell::text(f)];
            row.extend(v.iter().map(|&x| Cell::Ratio(x)));
            t.row(row);
        }
        let mut mean_row = vec![Cell::text("mean")];
        mean_row.extend(self.overall.iter().map(|&x| Cell::Ratio(x)));
        t.summary_row(mean_row);
        t
    }
}

// ---------------------------------------------------------------------------
// Table II: benchmark characteristics.
// ---------------------------------------------------------------------------

/// One family row of Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// The benchmark family this row aggregates.
    pub family: Family,
    /// Min/max state counts.
    pub states_range: (u32, u32),
    /// Mean state count.
    pub states_mean: f64,
    /// Min/max spec-1 lookback accuracy.
    pub spec1_range: (f64, f64),
    /// Mean spec-1 accuracy.
    pub spec1_mean: f64,
    /// Min/max spec-4 lookback accuracy.
    pub spec4_range: (f64, f64),
    /// Mean spec-4 accuracy.
    pub spec4_mean: f64,
    /// FSMs flagged as having highly input-sensitive speculation.
    pub input_sensitive: usize,
    /// Min/max of the 10-step unique-state counts.
    pub uniq_range: (f64, f64),
    /// Mean 10-step unique-state count.
    pub uniq_mean: f64,
    /// Wall-clock profiling time summed over the family.
    pub profiling_seconds: f64,
}

/// Table II report.
#[derive(Clone, Debug)]
pub struct Table2Report {
    /// One row per family, in the paper's order.
    pub rows: Vec<Table2Row>,
}

/// Profiles every benchmark on its training slice (0.5% of the input, as in
/// §V-B) and aggregates per family.
pub fn run_table2(cfg: &ExperimentConfig) -> Table2Report {
    let suite = build_suite(cfg.seed);
    let selector = Selector;
    let mut rows = Vec::new();
    for family in Family::all() {
        let mut states = Vec::new();
        let mut spec1 = Vec::new();
        let mut spec4 = Vec::new();
        let mut uniq = Vec::new();
        let mut sensitive = 0usize;
        let mut prof_time = 0.0;
        for b in suite.iter().filter(|b| b.family == family) {
            let input = b.generate_input(cfg.input_len, 0);
            let p = selector.profile(&b.dfa, &input);
            states.push(f64::from(b.dfa.n_states()));
            spec1.push(p.spec1_accuracy);
            spec4.push(p.spec4_accuracy);
            uniq.push(p.convergence.mean_unique_states);
            sensitive += usize::from(selector.is_input_sensitive(&p));
            prof_time += p.profiling_seconds;
        }
        let rng = |v: &[f64]| {
            (
                v.iter().cloned().fold(f64::INFINITY, f64::min),
                v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        let (s_lo, s_hi) = rng(&states);
        let (a1_lo, a1_hi) = rng(&spec1);
        let (a4_lo, a4_hi) = rng(&spec4);
        let (u_lo, u_hi) = rng(&uniq);
        rows.push(Table2Row {
            family,
            states_range: (s_lo as u32, s_hi as u32),
            states_mean: mean(&states),
            spec1_range: (a1_lo, a1_hi),
            spec1_mean: mean(&spec1),
            spec4_range: (a4_lo, a4_hi),
            spec4_mean: mean(&spec4),
            input_sensitive: sensitive,
            uniq_range: (u_lo, u_hi),
            uniq_mean: mean(&uniq),
            profiling_seconds: prof_time,
        });
    }
    Table2Report { rows }
}

impl Table2Report {
    /// The table. Ranges are text-only and their bounds CSV-only; the
    /// host-timed profiling column has 2 decimals in text and 3 in CSV.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Table II: benchmark characteristics");
        t.column("Source", "family")
            .text_column("#States range")
            .csv_column("states_min")
            .csv_column("states_max")
            .column("mean", "states_mean")
            .text_column("spec-1 range %")
            .column("mean %", "spec1_mean_pct")
            .text_column("spec-4 range %")
            .column("mean %", "spec4_mean_pct")
            .column("#input-sens.", "input_sensitive")
            .text_column("#uniq(10) range")
            .column("mean", "uniq10_mean")
            .text_column("Profiling (s)")
            .csv_column("profiling_s");
        for r in &self.rows {
            t.row(vec![
                Cell::text(r.family),
                Cell::text(format!("[{}, {}]", r.states_range.0, r.states_range.1)),
                Cell::text(r.states_range.0),
                Cell::text(r.states_range.1),
                Cell::text(format!("{:.0}", r.states_mean)),
                Cell::text(format!("[{}, {}]", pct(r.spec1_range.0), pct(r.spec1_range.1))),
                Cell::text(pct(r.spec1_mean)),
                Cell::text(format!("[{}, {}]", pct(r.spec4_range.0), pct(r.spec4_range.1))),
                Cell::text(pct(r.spec4_mean)),
                Cell::text(r.input_sensitive),
                Cell::text(format!("[{:.1}, {:.1}]", r.uniq_range.0, r.uniq_range.1)),
                Cell::text(f2(r.uniq_mean)),
                Cell::text(format!("{:.2}", r.profiling_seconds)),
                Cell::text(format!("{:.3}", r.profiling_seconds)),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Figure 8 (+ headline + selector evaluation).
// ---------------------------------------------------------------------------

/// One benchmark's Fig 8 measurements.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Benchmark name (`Snort3`, …).
    pub name: String,
    /// Benchmark family.
    pub family: Family,
    /// Behavioural tier.
    pub tier: Tier,
    /// Total simulated cycles for PM (the baseline).
    pub pm: u64,
    /// Total simulated cycles for SRE.
    pub sre: u64,
    /// Total simulated cycles for RR.
    pub rr: u64,
    /// Total simulated cycles for NF.
    pub nf: u64,
    /// Total simulated cycles for SFA (the mapping-composition rival the
    /// selector weighs against the four speculative schemes).
    pub sfa: u64,
    /// What the decision tree picked.
    pub selected: SchemeKind,
    /// Cycles of the selected scheme.
    pub selected_cycles: u64,
    /// Per-scheme phase profiles in PM, SRE, RR, NF, SFA order. Each
    /// profile's total cycles equal the scheme's cycle column above, so the
    /// perf reports can decompose the figure's totals without re-running.
    pub profiles: [PhaseProfile; 5],
}

impl Fig8Row {
    /// Speedup of `scheme` over the PM baseline.
    pub fn speedup(&self, scheme: SchemeKind) -> f64 {
        let c = match scheme {
            SchemeKind::Pm => self.pm,
            SchemeKind::Sre => self.sre,
            SchemeKind::Rr => self.rr,
            SchemeKind::Nf => self.nf,
            SchemeKind::Sfa => self.sfa,
            _ => unreachable!("fig8 compares the GSpecPal schemes plus SFA"),
        };
        self.pm as f64 / c as f64
    }

    /// Speedup of the selector's pick over PM.
    pub fn selected_speedup(&self) -> f64 {
        self.pm as f64 / self.selected_cycles as f64
    }

    /// Cycles of the fastest scheme (the oracle).
    pub fn best_cycles(&self) -> u64 {
        self.pm.min(self.sre).min(self.rr).min(self.nf).min(self.sfa)
    }

    /// Whether the selector's pick is (near-)optimal: within 10% of the
    /// oracle. RR and NF are near-ties by design on many FSMs (the paper
    /// reports ~1% run-to-run variance and a 3% mean selector loss), so a
    /// strict argmin would count coin flips as errors.
    pub fn selector_optimal(&self) -> bool {
        self.selected_cycles as f64 <= self.best_cycles() as f64 * 1.10
    }

    /// The compared schemes with their cycle totals and phase profiles, in
    /// PM, SRE, RR, NF, SFA order (the layout of [`Fig8Row::profiles`]).
    pub fn scheme_profiles(&self) -> [(SchemeKind, u64, &PhaseProfile); 5] {
        [
            (SchemeKind::Pm, self.pm, &self.profiles[0]),
            (SchemeKind::Sre, self.sre, &self.profiles[1]),
            (SchemeKind::Rr, self.rr, &self.profiles[2]),
            (SchemeKind::Nf, self.nf, &self.profiles[3]),
            (SchemeKind::Sfa, self.sfa, &self.profiles[4]),
        ]
    }
}

/// Figure 8 report.
#[derive(Clone, Debug)]
pub struct Fig8Report {
    /// One row per benchmark, suite order.
    pub rows: Vec<Fig8Row>,
}

/// Runs all four schemes plus the selector on the full 36-FSM suite.
pub fn run_fig8(cfg: &ExperimentConfig) -> Fig8Report {
    let suite = build_suite(cfg.seed);
    let fw = cfg.framework();
    let rows = suite
        .iter()
        .map(|b| {
            let input = b.generate_input(cfg.input_len, 0);
            let get = |s: SchemeKind| {
                let o = fw.run_with(&b.dfa, &input, s);
                (o.total_cycles(), o.phase_profile())
            };
            let (pm, pm_profile) = get(SchemeKind::Pm);
            let (sre, sre_profile) = get(SchemeKind::Sre);
            let (rr, rr_profile) = get(SchemeKind::Rr);
            let (nf, nf_profile) = get(SchemeKind::Nf);
            let (sfa, sfa_profile) = get(SchemeKind::Sfa);
            let report = fw.process(&b.dfa, &input);
            let selected = report.selected;
            let selected_cycles = match selected {
                SchemeKind::Pm => pm,
                SchemeKind::Sre => sre,
                SchemeKind::Rr => rr,
                SchemeKind::Nf => nf,
                SchemeKind::Sfa => sfa,
                other => {
                    // The selector only emits the GSpecPal schemes plus SFA.
                    unreachable!("selector picked {other}")
                }
            };
            Fig8Row {
                name: b.name(),
                family: b.family,
                tier: b.tier,
                pm,
                sre,
                rr,
                nf,
                sfa,
                selected,
                selected_cycles,
                profiles: [pm_profile, sre_profile, rr_profile, nf_profile, sfa_profile],
            }
        })
        .collect();
    Fig8Report { rows }
}

impl Fig8Report {
    /// Mean speedup of `scheme` over PM across the suite.
    pub fn mean_speedup(&self, scheme: SchemeKind) -> f64 {
        mean(&self.rows.iter().map(|r| r.speedup(scheme)).collect::<Vec<_>>())
    }

    /// Mean speedup of the selector's pick over PM (the paper's headline
    /// 7.2× number).
    pub fn selector_mean_speedup(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.selected_speedup()).collect::<Vec<_>>())
    }

    /// Maximum speedup over PM achieved by any scheme on any FSM (the
    /// paper's "up to 20×").
    pub fn max_speedup(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| {
                [SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa]
                    .into_iter()
                    .map(move |s| r.speedup(s))
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of FSMs where the selector picked the fastest scheme (the
    /// paper reports 29/36 = 80.6%).
    pub fn selector_accuracy(&self) -> f64 {
        let hits = self.rows.iter().filter(|r| r.selector_optimal()).count();
        hits as f64 / self.rows.len() as f64
    }

    /// Mean performance loss of the selector against the oracle (paper: 3%).
    pub fn selector_loss(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.selected_cycles as f64 / r.best_cycles() as f64 - 1.0)
                .collect::<Vec<_>>(),
        )
    }

    /// The figure: per FSM, the cycle totals (CSV only), the speedups over
    /// PM and the selector's pick; the mean, maximum and selector lines
    /// follow the text view.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 8: speedups over PM(spec-4)");
        let rivals = [SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa];
        t.column("FSM", "fsm").column("tier", "tier");
        for s in ["pm", "sre", "rr", "nf", "sfa"] {
            t.csv_column(format!("{s}_cycles"));
        }
        for s in rivals {
            t.column(s.name(), format!("{}_speedup", s.name().to_lowercase()));
        }
        t.column("Selected", "selected").column("Sel.speedup", "selected_speedup");
        for r in &self.rows {
            let mut row = vec![Cell::text(&r.name), Cell::text(r.tier.name())];
            row.extend([r.pm, r.sre, r.rr, r.nf, r.sfa].map(Cell::text));
            row.extend(rivals.map(|s| Cell::Ratio(r.speedup(s))));
            row.extend([Cell::text(r.selected), Cell::Ratio(r.selected_speedup())]);
            t.row(row);
        }
        t.footer(format!(
            "\n\
             mean speedup: SRE {} / RR {} / NF {} / SFA {} / Selector {}\n\
             max speedup over PM: {}\n\
             selector accuracy: {} ({}/{}), mean loss vs oracle: {}%\n",
            f2(self.mean_speedup(SchemeKind::Sre)),
            f2(self.mean_speedup(SchemeKind::Rr)),
            f2(self.mean_speedup(SchemeKind::Nf)),
            f2(self.mean_speedup(SchemeKind::Sfa)),
            f2(self.selector_mean_speedup()),
            f2(self.max_speedup()),
            pct(self.selector_accuracy()),
            self.rows.iter().filter(|r| r.selector_optimal()).count(),
            self.rows.len(),
            f2(self.selector_loss() * 100.0),
        ));
        t
    }

    /// Phase-level CSV (no text view): one row per (FSM, scheme, phase)
    /// with the full counter set, the long-format companion of the
    /// `BENCH_fig8.json` perf report, for plotting phase stacks.
    pub fn phases_table(&self) -> Table {
        let mut t = Table::new("");
        let header = "fsm,scheme,scheme_cycles,phase,cycles,rounds,divergent_rounds,\
                      global_transactions,shared_accesses,utilization,coalesced_fraction";
        for name in header.split(',') {
            t.csv_column(name);
        }
        for r in &self.rows {
            for (scheme, total, profile) in r.scheme_profiles() {
                for (phase, c) in profile.iter() {
                    let mut row = vec![Cell::text(&r.name), Cell::text(scheme), Cell::text(total)];
                    row.push(Cell::text(phase.name()));
                    row.extend([c.cycles, c.rounds, c.divergent_rounds].map(Cell::text));
                    row.extend([c.global_transactions, c.shared_accesses].map(Cell::text));
                    row.extend([c.utilization(), c.coalesced_fraction()].map(Cell::Ratio));
                    t.row(row);
                }
            }
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Table III: runtime accuracy + active threads for the Snort family.
// ---------------------------------------------------------------------------

/// One Snort FSM's Table III row.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// 1-based Snort FSM index.
    pub index: usize,
    /// Behavioural tier.
    pub tier: Tier,
    /// `(accuracy, avg active threads during recovery)` per scheme in the
    /// order PM, SRE, RR, NF.
    pub per_scheme: [(f64, f64); 4],
}

/// Table III report.
#[derive(Clone, Debug)]
pub struct Table3Report {
    /// One row per Snort FSM.
    pub rows: Vec<Table3Row>,
}

/// Runs PM/SRE/RR/NF on the 12 Snort FSMs, reporting runtime speculation
/// accuracy and recovery-thread utilization.
pub fn run_table3(cfg: &ExperimentConfig) -> Table3Report {
    let suite = build_suite(cfg.seed);
    let fw = cfg.framework();
    let rows = suite
        .iter()
        .filter(|b| b.family == Family::Snort)
        .map(|b| {
            let input = b.generate_input(cfg.input_len, 0);
            let outcome = |s: SchemeKind| -> (f64, f64) {
                let o: RunOutcome = fw.run_with(&b.dfa, &input, s);
                (o.runtime_accuracy(), o.avg_active_threads_during_recovery())
            };
            Table3Row {
                index: b.index,
                tier: b.tier,
                per_scheme: [
                    outcome(SchemeKind::Pm),
                    outcome(SchemeKind::Sre),
                    outcome(SchemeKind::Rr),
                    outcome(SchemeKind::Nf),
                ],
            }
        })
        .collect();
    Table3Report { rows }
}

impl Table3Report {
    /// The table: per Snort FSM, each scheme's accuracy, then each
    /// scheme's active threads.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table III: runtime speculation accuracy and average #active \
             threads during recovery (Snort)",
        );
        t.column("Snort", "snort").column("tier", "tier");
        let schemes = ["PM", "SRE", "RR", "NF"];
        for s in schemes {
            t.column(format!("{s} acc%"), format!("{}_acc_pct", s.to_lowercase()));
        }
        for s in schemes {
            t.column(format!("{s} act"), format!("{}_active", s.to_lowercase()));
        }
        for r in &self.rows {
            let mut row = vec![Cell::text(r.index), Cell::text(r.tier.name())];
            row.extend(r.per_scheme.iter().map(|(a, _)| Cell::text(pct(*a))));
            row.extend(r.per_scheme.iter().map(|(_, act)| Cell::text(format!("{act:.1}"))));
            t.row(row);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Figure 7: sensitivity to the VR_others register budget.
// ---------------------------------------------------------------------------

/// Fig 7 report: normalized RR execution time per register budget.
#[derive(Clone, Debug)]
pub struct Fig7Report {
    /// The register budgets swept.
    pub registers: Vec<usize>,
    /// `per_family[f].1[ri]` = mean RR time with `registers[ri]`, normalized
    /// to the family's best.
    pub per_family: Vec<(Family, Vec<f64>)>,
}

/// Runs RR with varying `VR_others` register budgets over the benchmarks
/// where recovery records matter (the deep-speculation tiers).
pub fn run_fig7(cfg: &ExperimentConfig) -> Fig7Report {
    let registers = vec![8usize, 12, 16, 20, 24];
    let suite = build_suite(cfg.seed);
    let mut per_family = Vec::new();
    for family in Family::all() {
        let mut sums = vec![0.0; registers.len()];
        let mut count = 0usize;
        for b in suite.iter().filter(|b| {
            b.family == family && matches!(b.tier, Tier::NonConvergent | Tier::InputSensitive)
        }) {
            let input = b.generate_input(cfg.input_len, 0);
            let mut cycles = Vec::with_capacity(registers.len());
            for &r in &registers {
                let sc = SchemeConfig { vr_others_registers: r, ..cfg.scheme_config() };
                let c = with_job(cfg, sc, &b.dfa, &input, |job| {
                    gspecpal::run_scheme(SchemeKind::Rr, job).total_cycles()
                });
                cycles.push(c as f64);
            }
            let best = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
            for (i, c) in cycles.iter().enumerate() {
                sums[i] += c / best;
            }
            count += 1;
        }
        per_family.push((family, sums.iter().map(|s| s / count.max(1) as f64).collect()));
    }
    Fig7Report { registers, per_family }
}

impl Fig7Report {
    /// The figure: one row per family, one column per register budget.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 7: RR time vs. #registers for VR_others (normalized to \
             each family's best)",
        );
        t.column("Family", "family");
        for r in &self.registers {
            t.column(format!("R={r}"), format!("r{r}"));
        }
        for (f, v) in &self.per_family {
            let mut row = vec![Cell::text(f)];
            row.extend(v.iter().map(|&x| Cell::Ratio(x)));
            t.row(row);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Figure 9: recovery cost per chunk under higher thread utilization.
// ---------------------------------------------------------------------------

/// Fig 9 report: per-chunk recovery time of RR and NF normalized to SRE.
#[derive(Clone, Debug)]
pub struct Fig9Report {
    /// Rows of `(benchmark name, RR/SRE ratio, NF/SRE ratio)`.
    pub rows: Vec<(String, f64, f64)>,
}

/// Measures the mean wall duration of recovery rounds for SRE/RR/NF on 12
/// DFAs drawn across the families (the paper picks 12 at random).
pub fn run_fig9(cfg: &ExperimentConfig) -> Fig9Report {
    let suite = build_suite(cfg.seed);
    let fw = cfg.framework();
    // Deterministic selection: the 4 deep-speculation benchmarks of each
    // family (where recovery actually happens).
    let mut rows = Vec::new();
    for family in Family::all() {
        let picks: Vec<&Benchmark> = suite
            .iter()
            .filter(|b| {
                b.family == family && matches!(b.tier, Tier::NonConvergent | Tier::InputSensitive)
            })
            .take(4)
            .collect();
        for b in picks {
            let input = b.generate_input(cfg.input_len, 0);
            let dur = |s: SchemeKind| -> f64 {
                fw.run_with(&b.dfa, &input, s).verify.avg_recovery_round_duration()
            };
            let sre = dur(SchemeKind::Sre);
            if sre <= 0.0 {
                continue;
            }
            rows.push((b.name(), dur(SchemeKind::Rr) / sre, dur(SchemeKind::Nf) / sre));
        }
    }
    Fig9Report { rows }
}

impl Fig9Report {
    /// Mean RR and NF ratios.
    pub fn means(&self) -> (f64, f64) {
        (
            mean(&self.rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        )
    }

    /// The figure, with the mean ratios after the text view.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 9: recovery execution time per chunk, normalized to SRE");
        t.column("FSM", "fsm").column("RR / SRE", "rr_over_sre").column("NF / SRE", "nf_over_sre");
        for (n, rr, nf) in &self.rows {
            t.row(vec![Cell::text(n), Cell::Ratio(*rr), Cell::Ratio(*nf)]);
        }
        let (mrr, mnf) = self.means();
        t.footer(format!("mean: RR {} / NF {}\n", f2(mrr), f2(mnf)));
        t
    }
}

/// Diagnostic: detailed per-phase numbers for one benchmark (not part of the
/// paper; used to understand where cycles go). A name outside the suite is
/// a one-line error.
pub fn debug_benchmark(cfg: &ExperimentConfig, name: &str) -> Result<String, CliError> {
    let suite = build_suite(cfg.seed);
    let b = suite
        .iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| CliError(format!("unknown benchmark {name} (try Snort1 … PowerEN12)")))?;
    let input = b.generate_input(cfg.input_len, 0);
    let fw = cfg.framework();
    let mut out = format!(
        "{} tier={} states={} alphabet={}\n",
        b.name(),
        b.tier.name(),
        b.dfa.n_states(),
        b.dfa.alphabet_len()
    );
    let profile = Selector.profile(&b.dfa, &input);
    out += &format!(
        "profile: spec1={:.3} spec4={:.3} worst_rank={} spread={:.3} uniq10={:.1}\n",
        profile.spec1_accuracy,
        profile.spec4_accuracy,
        profile.worst_truth_rank,
        profile.accuracy_spread,
        profile.convergence.mean_unique_states
    );
    for s in [SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa] {
        let o = fw.run_with(&b.dfa, &input, s);
        out += &format!(
            "{:4}: total={:>12} predict={:>8} exec={:>10} verify={:>12} rounds={:>5} \
             checks={:>6} matches={:>6} recovery_runs={:>6} avg_active={:>6.1} \
             acc={:.3}\n",
            s.name(),
            o.total_cycles(),
            o.predict.cycles,
            o.execute.cycles,
            o.verify.cycles,
            o.verify.rounds,
            o.verification_checks,
            o.verification_matches,
            o.recovery_runs(),
            o.avg_active_threads_during_recovery(),
            o.runtime_accuracy(),
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// §V-C ablation: frequency-based DFA transformation vs. PM's hash table.
// ---------------------------------------------------------------------------

/// Ablation report: per benchmark and scheme, hashed-layout time over
/// transformed-layout time (>1 means the transformation wins).
#[derive(Clone, Debug)]
pub struct AblationReport {
    /// Rows of `(benchmark name, scheme, hashed/transformed cycle ratio)`.
    pub rows: Vec<(String, SchemeKind, f64)>,
    /// The absolute measurements behind `rows`, in the same order.
    pub details: Vec<AblationDetail>,
}

/// One ablation measurement's absolutes: both layouts' cycle totals and
/// phase profiles for one (benchmark, scheme) pair (the ratio in
/// [`AblationReport::rows`] is `hashed_cycles / transformed_cycles`).
#[derive(Clone, Debug)]
pub struct AblationDetail {
    /// Benchmark name.
    pub name: String,
    /// Scheme measured under both layouts. RR stresses the recovery path;
    /// SFA stresses the transform hardest — its width-many simultaneous
    /// paths multiply every per-transition residency miss.
    pub scheme: SchemeKind,
    /// Total cycles under the transformed (frequency-permuted) layout.
    pub transformed_cycles: u64,
    /// Total cycles under the hashed layout.
    pub hashed_cycles: u64,
    /// Phase profile of the transformed-layout run.
    pub transformed_profile: PhaseProfile,
    /// Phase profile of the hashed-layout run.
    pub hashed_profile: PhaseProfile,
}

/// Runs the same scheme under both table layouts on a cross-family subset.
///
/// Both layouts operate on the *same frequency-permuted machine* with the
/// same hot states, so speculation behaviour is identical and the measured
/// difference isolates exactly what §IV-B changes: the per-transition
/// "is this row cached?" mechanism (one comparison vs. a shared-memory hash
/// probe) and the shared-memory capacity lost to the hash table.
pub fn run_ablation(cfg: &ExperimentConfig) -> AblationReport {
    let suite = build_suite(cfg.seed);
    let mut rows = Vec::new();
    let mut details = Vec::new();
    for family in Family::all() {
        for b in suite.iter().filter(|b| b.family == family).take(4) {
            let input = b.generate_input(cfg.input_len, 0);
            let training_len = ((input.len() as f64 * 0.005) as usize).max(512).min(input.len());
            let freq = FrequencyProfile::collect(&b.dfa, &input[..training_len]);
            let transformed = TransformedDfa::from_profile(&b.dfa, &freq);
            let tdfa = transformed.dfa();
            // Frequency profile in the transformed numbering (rank order).
            let tfreq = FrequencyProfile::collect(tdfa, &input[..training_len]);
            let mut config = cfg.scheme_config();
            config.n_chunks = config.n_chunks.min(input.len().max(1));

            let hot_t =
                DeviceTable::hot_rows_for_device(tdfa, TableLayout::Transformed, &cfg.device);
            let table_t = DeviceTable::transformed(tdfa, hot_t);
            let job_t = Job::new(&cfg.device, &table_t, &input, config).expect("valid");

            let hot_h = DeviceTable::hot_rows_for_device(tdfa, TableLayout::Hashed, &cfg.device);
            let table_h = DeviceTable::hashed(tdfa, &tfreq, hot_h);
            let job_h = Job::new(&cfg.device, &table_h, &input, config).expect("valid");

            for scheme in [SchemeKind::Rr, SchemeKind::Sfa] {
                let out_t = gspecpal::run_scheme(scheme, &job_t);
                let t = out_t.total_cycles();
                let out_h = gspecpal::run_scheme(scheme, &job_h);
                let h = out_h.total_cycles();

                rows.push((b.name(), scheme, h as f64 / t as f64));
                details.push(AblationDetail {
                    name: b.name(),
                    scheme,
                    transformed_cycles: t,
                    hashed_cycles: h,
                    transformed_profile: out_t.phase_profile(),
                    hashed_profile: out_h.phase_profile(),
                });
            }
        }
    }
    AblationReport { rows, details }
}

impl AblationReport {
    /// Mean improvement of the transformation (paper: ~15%).
    pub fn mean_improvement(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.2 - 1.0).collect::<Vec<_>>())
    }

    /// The ablation, with the mean improvement after the text view.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "DFA-transformation ablation (§V-C): hashed-layout time over \
             transformed-layout time",
        );
        t.column("FSM", "fsm")
            .column("scheme", "scheme")
            .column("hashed / transformed", "hashed_over_transformed");
        for (n, s, r) in &self.rows {
            t.row(vec![Cell::text(n), Cell::text(s), Cell::Ratio(*r)]);
        }
        t.footer(format!(
            "mean improvement from the transformation: {}%\n",
            f2(self.mean_improvement() * 100.0)
        ));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A configuration small enough for unit testing (the harness defaults
    /// are sized for the full reproduction).
    fn tiny() -> ExperimentConfig {
        ExperimentConfig { seed: 1, input_len: 8 * 1024, n_chunks: 32, ..Default::default() }
    }

    #[test]
    fn fig3_is_monotone_in_k() {
        let r = run_fig3(&tiny());
        assert_eq!(r.ks, vec![1, 4, 6, 8]);
        for (f, v) in &r.per_family {
            assert!((v[0] - 1.0).abs() < 1e-9, "{f}: spec-1 normalizes to 1");
            for w in v.windows(2) {
                assert!(w[0] < w[1], "{f}: redundancy grows with k: {v:?}");
            }
        }
        // Sub-linear in k thanks to shared input loads.
        assert!(r.overall[1] < 4.0, "alpha_4 = {}", r.overall[1]);
    }

    #[test]
    fn table2_shapes() {
        let r = run_table2(&tiny());
        assert_eq!(r.rows.len(), 3);
        let snort = &r.rows[0];
        let poweren = &r.rows[2];
        assert!(snort.states_mean > poweren.states_mean, "Snort DFAs are larger");
        for row in &r.rows {
            assert!(row.spec1_mean <= row.spec4_mean + 1e-12);
            assert!(row.input_sensitive <= 12);
            assert!(row.uniq_mean >= 1.0);
        }
        assert!(r.table().text().is_some());
    }

    #[test]
    fn fig7_has_the_register_cliff() {
        let r = run_fig7(&tiny());
        for (f, v) in &r.per_family {
            // Starving the record window is always worst.
            let worst = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((v[0] - worst).abs() < 1e-9 || v[0] > 1.1, "{f}: R=8 should hurt: {v:?}");
        }
        assert!(r.table().text().is_some());
    }

    #[test]
    fn table3_pm_recovers_sequentially() {
        let r = run_table3(&tiny());
        assert_eq!(r.rows.len(), 12);
        for row in &r.rows {
            let (pm_acc, pm_act) = row.per_scheme[0];
            assert!(pm_acc <= 1.0);
            assert!(pm_act <= 1.0 + 1e-9, "PM recovery is sequential");
            let (_, nf_act) = row.per_scheme[3];
            if row.tier != Tier::SpecKFriendly {
                assert!(nf_act >= pm_act, "NF activates at least as many threads");
            }
        }
        assert!(r.table().text().is_some());
    }

    /// The reproduction's headline shape, pinned in coarse bands: if a code
    /// change moves these, EXPERIMENTS.md needs re-recording.
    #[test]
    fn fig8_headline_bands() {
        let cfg = ExperimentConfig { input_len: 96 * 1024, n_chunks: 64, ..tiny() };
        let r = run_fig8(&cfg);
        // PM wins its tier: every spec-k FSM's best non-PM speedup < 2.
        for row in r.rows.iter().filter(|r| r.tier == Tier::SpecKFriendly) {
            let best_other = r
                .rows
                .iter()
                .find(|x| x.name == row.name)
                .map(|x| {
                    x.speedup(SchemeKind::Sre)
                        .max(x.speedup(SchemeKind::Rr))
                        .max(x.speedup(SchemeKind::Nf))
                })
                .unwrap();
            assert!(best_other < 2.5, "{}: others reached {best_other:.2}", row.name);
        }
        // SRE wins every convergent FSM by a wide margin.
        for row in r.rows.iter().filter(|r| r.tier == Tier::SlowConvergence) {
            assert!(
                row.speedup(SchemeKind::Sre) > 2.0,
                "{}: SRE {:.2}",
                row.name,
                row.speedup(SchemeKind::Sre)
            );
        }
        // Aggressive recovery wins every deep/sensitive FSM.
        for row in
            r.rows.iter().filter(|r| matches!(r.tier, Tier::NonConvergent | Tier::InputSensitive))
        {
            let agg = row.speedup(SchemeKind::Rr).max(row.speedup(SchemeKind::Nf));
            assert!(agg > 1.5, "{}: aggressive best {agg:.2}", row.name);
            assert!(row.speedup(SchemeKind::Sre) < 2.0, "{}", row.name);
        }
        // Headline bands (coarse: the small input compresses ratios).
        let mean = r.selector_mean_speedup();
        assert!((2.0..15.0).contains(&mean), "selector mean {mean:.2}");
        assert!(r.selector_accuracy() > 0.6, "accuracy {:.2}", r.selector_accuracy());
    }

    #[test]
    fn fig9_rows_have_positive_ratios() {
        let r = run_fig9(&tiny());
        assert!(!r.rows.is_empty());
        for (name, rr, nf) in &r.rows {
            assert!(*rr > 0.0 && *nf > 0.0, "{name}");
        }
    }

    #[test]
    fn ablation_transformation_wins() {
        let r = run_ablation(&tiny());
        // 4 benchmarks per family × 3 families × {RR, SFA}.
        assert_eq!(r.rows.len(), 24);
        assert!(r.rows.iter().any(|(_, s, _)| *s == SchemeKind::Sfa));
        assert!(
            r.mean_improvement() > 0.0,
            "the transformation must help: {:.3}",
            r.mean_improvement()
        );
        // SFA multiplies every residency miss by its live-path width, so the
        // transformation must help it too, on average.
        let sfa: Vec<f64> = r
            .rows
            .iter()
            .filter(|(_, s, _)| *s == SchemeKind::Sfa)
            .map(|(_, _, ratio)| ratio - 1.0)
            .collect();
        assert!(mean(&sfa) > 0.0, "transformation must help SFA: {:.3}", mean(&sfa));
    }

    #[test]
    fn ablation_clamps_more_chunks_than_input_bytes() {
        // Like every other experiment, more chunks than bytes runs one
        // chunk per byte instead of failing the job.
        let cfg = ExperimentConfig { input_len: 1024, n_chunks: 4096, ..tiny() };
        assert_eq!(run_ablation(&cfg).rows.len(), 24);
    }
}
