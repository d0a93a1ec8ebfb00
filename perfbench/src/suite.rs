//! `suite_kernels`: the paper's Fig 8 at scale, plus the real-thread
//! `core::cpu` engine against `Dfa::run`.
//!
//! For each of the 36 `build_suite` FSMs on a seeded input: PM, SRE, RR, NF
//! and SFA through `GSpecPal::run_with`, the selector's pick through
//! `GSpecPal::process`, and `core::cpu::run_speculative_rr` on `nproc`
//! threads. No `serve` or `cluster` code runs here.

use std::time::{Duration, Instant};

use gspecpal::cpu::run_speculative_rr;
use gspecpal::table::{DeviceTable, TableLayout};
use gspecpal::{run_scheme, GSpecPal, Job, RunOutcome, SchemeConfig, SchemeKind, Selector};
use gspecpal_fsm::{FrequencyProfile, StateId, TransformedDfa};
use gspecpal_gpu::{DeviceSpec, Phase};
use gspecpal_workloads::{build_suite, Benchmark};

use crate::{
    median_of, mib, ms, nearest_rank, nproc, tail_percentile, timed_passes, Args, Outcome, Setup,
    Stopwatch,
};

/// The suite's machines are fixed (the paper's 36 FSMs as EXPERIMENTS.md
/// generates them); `--seed` draws the inputs.
const SUITE_SEED: u64 = 1;
/// Input bytes per FSM.
const INPUT_LEN: usize = 64 * 1024;
/// Chunks (simulated threads) per run, as in EXPERIMENTS.md.
const N_CHUNKS: usize = 256;
/// The paper's headline: the selector's pick over PM(spec-4), mean over
/// 36 FSMs.
const PAPER_SPEEDUP_VS_PM: f64 = 7.2;

/// The compared schemes, in report order.
pub const SCHEMES: [SchemeKind; 5] =
    [SchemeKind::Pm, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa];
/// Metric-name spelling of [`SCHEMES`].
pub const SCHEME_NAMES: [&str; 5] = ["pm", "sre", "rr", "nf", "sfa"];
/// Kernel phases reported per layer (transfer never occurs in one-shot
/// kernels, but it is still part of the partition check).
pub const PHASES: [Phase; 5] =
    [Phase::Predict, Phase::SpecExec, Phase::Verify, Phase::Recovery, Phase::Stitch];

/// Calls into `GSpecPal` per FSM per pass: five `run_with` and one
/// `process`.
const CALLS_PER_FSM: u64 = SCHEMES.len() as u64 + 1;

struct Input {
    bytes: Vec<u8>,
    /// `Dfa::run` over the bytes: the reference every answer must equal.
    expected: StateId,
}

struct Suite {
    benches: Vec<Benchmark>,
    /// One seeded input per benchmark.
    inputs: Vec<Input>,
}

impl Suite {
    fn cases(&self) -> Vec<Case<'_>> {
        self.benches
            .iter()
            .zip(&self.inputs)
            .map(|(bench, i)| Case { bench, input: &i.bytes, expected: i.expected })
            .collect()
    }
}

/// One job: a benchmark FSM and its input.
struct Case<'a> {
    bench: &'a Benchmark,
    input: &'a [u8],
    expected: StateId,
}

fn setup(seed: u64) -> Suite {
    let benches = build_suite(SUITE_SEED);
    let inputs = benches
        .iter()
        .map(|b| {
            let bytes = b.generate_input(INPUT_LEN, seed);
            let expected = b.dfa.run(&bytes);
            Input { bytes, expected }
        })
        .collect();
    Suite { benches, inputs }
}

fn framework() -> GSpecPal {
    GSpecPal::new(DeviceSpec::rtx3090())
        .with_config(SchemeConfig { n_chunks: N_CHUNKS, ..SchemeConfig::default() })
}

fn scheme_index(kind: SchemeKind) -> Option<usize> {
    SCHEMES.iter().position(|&s| s == kind)
}

/// Checks one scheme outcome: answer equals `Dfa::run`, and the per-phase
/// cycles partition the total exactly.
fn check_outcome(out: &mut Outcome, case: &Case<'_>, o: &RunOutcome, end_state: StateId) {
    let name = case.bench.name();
    out.check(end_state == case.expected, || {
        format!("{name} {}: end state {end_state} != Dfa::run {}", o.scheme, case.expected)
    });
    out.check(o.accepted == case.bench.dfa.is_accepting(case.expected), || {
        format!("{name} {}: accept flag disagrees with Dfa::run", o.scheme)
    });
    let phases = o.phase_profile().total_cycles();
    out.check(phases == o.total_cycles(), || {
        format!("{name} {}: phases sum to {phases}, total is {}", o.scheme, o.total_cycles())
    });
}

/// One end-to-end run of a job: its `GSpecPal` calls, each timed, then the
/// cpu engine.
struct JobRun {
    /// Process CPU seconds of each call: the five `run_with`, then
    /// `process`.
    call_cpu: [f64; CALLS_PER_FSM as usize],
    /// Wall seconds of the calls together.
    sim_wall: f64,
    /// Wall seconds inside `run_speculative_rr`.
    cpu_engine_secs: f64,
    /// Simulated cycles: the five schemes, then the selector's pick.
    cycles: ([u64; 5], u64),
}

fn run_job(case: &Case<'_>, fw: &GSpecPal, out: &mut Outcome) -> JobRun {
    let dfa = &case.bench.dfa;
    let mut call_cpu = [0.0; CALLS_PER_FSM as usize];
    let wall = Instant::now();
    let mut outcomes = Vec::with_capacity(SCHEMES.len());
    for (t, &s) in call_cpu.iter_mut().zip(&SCHEMES) {
        let clock = Stopwatch::start();
        outcomes.push(fw.run_with(dfa, case.input, s));
        *t = clock.elapsed().1;
    }
    let clock = Stopwatch::start();
    let report = fw.process(dfa, case.input);
    call_cpu[SCHEMES.len()] = clock.elapsed().1;
    let sim_wall = wall.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let cpu = run_speculative_rr(dfa, case.input, nproc());
    let cpu_engine_secs = t0.elapsed().as_secs_f64();

    out.attempted += CALLS_PER_FSM + 1;
    for o in &outcomes {
        check_outcome(out, case, o, o.end_state);
    }
    check_outcome(out, case, &report.outcome, report.end_state());
    let mut totals = [0u64; 5];
    for (t, o) in totals.iter_mut().zip(&outcomes) {
        *t = o.total_cycles();
    }
    let picked = scheme_index(report.selected).map(|i| totals[i]);
    out.check(picked == Some(report.outcome.total_cycles()), || {
        format!(
            "{}: process() picked {} at {} cycles, run_with says {picked:?}",
            case.bench.name(),
            report.selected,
            report.outcome.total_cycles()
        )
    });
    out.check(cpu.end_state == case.expected, || {
        format!("{}: cpu engine end state {} != Dfa::run", case.bench.name(), cpu.end_state)
    });
    JobRun { call_cpu, sim_wall, cpu_engine_secs, cycles: (totals, report.outcome.total_cycles()) }
}

/// Layer timings of one traced pass, summed over the suite.
#[derive(Default)]
struct Traced {
    seq_secs: f64,
    table_ms: f64,
    selector_ms: f64,
    scheme_ms: [f64; 5],
    scheme_cycles: [u64; 5],
    phase_cycles: [u64; 5],
    checks: u64,
    matches: u64,
    recovery_runs: u64,
    speedups: Vec<f64>,
    optimal: usize,
    cpu_parallel_ms: f64,
    cpu_secs: f64,
    cpu_recoveries: u64,
    thread_rounds: u64,
}

/// One traced pass: `GSpecPal::run_with` taken apart into its public
/// steps (profile + transform + table + `Job::new`, then `run_scheme` per
/// scheme), the selector on its own, `Dfa::run`, and the cpu engine.
fn traced_pass(cases: &[Case<'_>], fw: &GSpecPal, out: &mut Outcome) -> Traced {
    let spec = fw.device();
    let selector = Selector::default();
    let mut t = Traced::default();
    for case in cases {
        let dfa = &case.bench.dfa;
        let input = case.input;

        let t0 = Instant::now();
        let end = std::hint::black_box(dfa.run(input));
        t.seq_secs += t0.elapsed().as_secs_f64();
        out.attempted += 1;
        out.check(end == case.expected, || format!("{}: Dfa::run is not pure", case.bench.name()));

        let t0 = Instant::now();
        let freq = FrequencyProfile::collect(dfa, fw.training_slice(input));
        let transformed = TransformedDfa::from_profile(dfa, &freq);
        let hot =
            DeviceTable::hot_rows_for_device(transformed.dfa(), TableLayout::Transformed, spec);
        let table = DeviceTable::transformed(transformed.dfa(), hot);
        let mut config = *fw.config();
        config.n_chunks = config.n_chunks.min(input.len()).min(spec.max_threads_per_block as usize);
        let job = Job::new(spec, &table, input, config).expect("suite jobs are launchable");
        t.table_ms += ms(t0.elapsed());

        let mut outcomes = Vec::with_capacity(SCHEMES.len());
        for (i, &s) in SCHEMES.iter().enumerate() {
            let t0 = Instant::now();
            let o = run_scheme(s, &job);
            t.scheme_ms[i] += ms(t0.elapsed());
            t.scheme_cycles[i] += o.total_cycles();
            t.thread_rounds += o.phase_profile().iter().map(|(_, c)| c.thread_rounds).sum::<u64>();
            out.attempted += 1;
            check_outcome(out, case, &o, transformed.to_original(o.end_state));
            outcomes.push(o);
        }

        let t0 = Instant::now();
        let profile = selector.profile(dfa, input);
        let picked = selector.select(&profile);
        t.selector_ms += ms(t0.elapsed());

        out.attempted += 1;
        let Some(i) = scheme_index(picked) else {
            out.check(false, || format!("{}: selector picked {picked}", case.bench.name()));
            continue;
        };
        let o = &outcomes[i];
        let profile = o.phase_profile();
        for (acc, p) in t.phase_cycles.iter_mut().zip(PHASES) {
            *acc += profile.get(p).cycles;
        }
        t.checks += o.verification_checks;
        t.matches += o.verification_matches;
        t.recovery_runs += o.recovery_runs();
        let pm = outcomes[0].total_cycles() as f64;
        t.speedups.push(pm / o.total_cycles() as f64);
        let best = outcomes.iter().map(RunOutcome::total_cycles).min().expect("five schemes");
        if o.total_cycles() as f64 <= best as f64 * 1.10 {
            t.optimal += 1;
        }

        let t0 = Instant::now();
        let cpu = run_speculative_rr(dfa, input, nproc());
        t.cpu_secs += t0.elapsed().as_secs_f64();
        t.cpu_parallel_ms += ms(cpu.parallel_time);
        t.cpu_recoveries += cpu.recoveries as u64;
        out.attempted += 1;
        out.check(cpu.end_state == case.expected, || {
            format!("{}: cpu engine end state {} != Dfa::run", case.bench.name(), cpu.end_state)
        });
    }
    t
}

/// Runs the workload, filling `out`.
pub fn run(args: &Args, out: &mut Outcome) {
    let (timer, suite) = Setup::new(|| setup(args.seed));
    let fw = framework();
    let n = suite.benches.len();
    let set_mib = mib((n * INPUT_LEN) as u64);
    out.note(format!(
        "{n} FSMs, one {} KiB input each, rtx3090, N={N_CHUNKS}, cpu engine on {} threads",
        INPUT_LEN / 1024,
        nproc()
    ));
    let cases = suite.cases();

    if args.trace {
        let passes = timed_passes(args.seconds, || traced_pass(&cases, &fw, out));
        let first = &passes[0];
        for later in &passes[1..] {
            out.check(
                later.scheme_cycles == first.scheme_cycles
                    && later.phase_cycles == first.phase_cycles,
                || "simulated cycles differ between passes over the same inputs".into(),
            );
        }
        // Host times are per-pass medians; simulated counters are the first
        // pass's (the 36 FSMs once, as in the paper's Fig 8).
        out.note(format!("{} traced passes", passes.len()));
        out.metric("fsm.seq_mib_per_s", set_mib / median_of(&passes, |p| p.seq_secs));
        out.metric("core.table_ms", median_of(&passes, |p| p.table_ms));
        out.metric("core.selector_ms", median_of(&passes, |p| p.selector_ms));
        for (i, s) in SCHEME_NAMES.iter().enumerate() {
            let host_ms = median_of(&passes, |p| p.scheme_ms[i]);
            out.metric(format!("core.scheme.{s}.host_ms"), host_ms);
            let mcycles = first.scheme_cycles[i] as f64 / 1e6;
            out.metric(format!("core.scheme.{s}.mcycles"), mcycles);
        }
        for (i, p) in PHASES.iter().enumerate() {
            let mcycles = first.phase_cycles[i] as f64 / 1e6;
            out.metric(format!("core.phase.{}.mcycles", p.name()), mcycles);
        }
        let accuracy = (first.matches * 1000).checked_div(first.checks).unwrap_or(1000);
        out.metric("core.spec_accuracy_permille", accuracy as f64);
        out.metric("core.recovery_runs", first.recovery_runs as f64);
        let speedup = first.speedups.iter().sum::<f64>() / first.speedups.len().max(1) as f64;
        out.metric("core.speedup_vs_pm", speedup);
        out.note(format!(
            "core.speedup_vs_pm {speedup:.2}x over PM = {:.1} Mcycles (paper: \
             {PAPER_SPEEDUP_VS_PM}x; the cost model is unvalidated against hardware)",
            first.scheme_cycles[0] as f64 / 1e6
        ));
        let optimal = (first.optimal * 1000) as f64 / n as f64;
        out.metric("core.selector_optimal_permille", optimal);
        let cpu_secs = median_of(&passes, |p| p.cpu_secs);
        out.metric("core.cpu.parallel_ms", median_of(&passes, |p| p.cpu_parallel_ms));
        out.metric("core.cpu.recoveries", first.cpu_recoveries as f64);
        out.metric("core.cpu.mib_per_s", set_mib / cpu_secs);
        out.metric("core.cpu.speedup", median_of(&passes, |p| p.seq_secs) / cpu_secs);
        out.metric("gpu.thread_rounds", first.thread_rounds as f64);
        let ns_per_round =
            median_of(&passes, |p| p.scheme_ms.iter().sum::<f64>() * 1e6 / p.thread_rounds as f64);
        out.metric("gpu.ns_per_thread_round", ns_per_round);
        return;
    }

    // The jobs (one per FSM) run in turn, round after round, until the time
    // is up and every job has run once. Each call's host cost is its
    // fastest run (see `fast_quantile`: other tenants only slow a call
    // down); simulated results must repeat exactly.
    let jobs = &cases;
    let mut fastest = vec![[f64::INFINITY; CALLS_PER_FSM as usize]; jobs.len()];
    let mut cycles: Vec<Option<([u64; 5], u64)>> = vec![None; jobs.len()];
    let (mut runs, mut sim_wall, mut engine_secs) = (0usize, 0.0, 0.0);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    while runs < jobs.len() || t0.elapsed() < budget {
        let j = runs % jobs.len();
        let r = run_job(&jobs[j], &fw, out);
        for (best, t) in fastest[j].iter_mut().zip(r.call_cpu) {
            *best = best.min(t);
        }
        match cycles[j] {
            None => cycles[j] = Some(r.cycles),
            Some(c) => out.check(c == r.cycles, || {
                format!("{}: simulated cycles differ between runs", jobs[j].bench.name())
            }),
        }
        sim_wall += r.sim_wall;
        engine_secs += r.cpu_engine_secs;
        runs += 1;
    }
    let calls = (CALLS_PER_FSM as usize * jobs.len()) as f64;
    let sim_cpu: f64 = fastest.iter().flatten().sum();
    out.metric("streams_per_cpu_s", calls / sim_cpu);
    out.metric("input_mib_per_cpu_s", calls * mib(INPUT_LEN as u64) / sim_cpu);

    // Simulated metrics cover every job once; a job's latency is the
    // selector's pick.
    let jobs_cycles: Vec<([u64; 5], u64)> = cycles.into_iter().flatten().collect();
    let total: u64 = jobs_cycles.iter().map(|c| c.1).sum();
    let per_fsm: Vec<u64> = jobs_cycles.iter().map(|c| c.1).collect();
    let tail = tail_percentile(per_fsm.len());
    out.metric("makespan_cycles", total as f64);
    out.metric("delivery_p50_cycles", nearest_rank(&per_fsm, 50) as f64);
    out.metric("delivery_tail_cycles", nearest_rank(&per_fsm, tail) as f64);

    let optimal = jobs_cycles
        .iter()
        .filter(|(all, pick)| *pick as f64 <= *all.iter().min().expect("five") as f64 * 1.10)
        .count();
    let speedup = jobs_cycles.iter().map(|(all, pick)| all[0] as f64 / *pick as f64).sum::<f64>()
        / jobs_cycles.len() as f64;
    out.note(format!(
        "{runs} job runs ({:.1} rounds of {} jobs); makespan_cycles = selected_mcycles x 1e6 \
         (the selector's picks run back to back); delivery_* over the {n} picks, tail = \
         p{tail}",
        runs as f64 / jobs.len() as f64,
        jobs.len()
    ));
    out.note(format!(
        "wall clock: {:.1} calls/s over every run",
        (runs * CALLS_PER_FSM as usize) as f64 / sim_wall
    ));
    out.note(format!(
        "selector_optimal_permille {}; speedup_vs_pm {speedup:.2}x (paper {PAPER_SPEEDUP_VS_PM}x; \
         the cost model is unvalidated against hardware)",
        optimal * 1000 / jobs_cycles.len()
    ));
    out.note(format!(
        "cpu_mib_per_s {:.1} (run_speculative_rr on {} threads, host wall)",
        mib((runs * INPUT_LEN) as u64) / engine_secs,
        nproc()
    ));
    drop(cases);
    drop(suite);
    out.metric("setup_s", timer.finish());
}
