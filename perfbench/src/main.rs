//! The repository benchmark: one workload per process, end-to-end metrics
//! with tracing off (`--trace 0`) or per-layer metrics timed from outside
//! each layer's public entry points (`--trace 1`).
//!
//! ```text
//! perfbench --workload <suite_kernels|fleet_stream|fleet_failover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Every
//! answer the workload produces is checked; any violation is counted in
//! `failed` and makes the process exit 1. See `README.md` for why each
//! workload exists and which end-to-end metric each layer metric moves.

mod fleet;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest set-up builds before the timed passes, and again after them
/// (see [`Setup`]).
const SETUP_REPS: usize = 2;
/// Cheap set-ups repeat past [`SETUP_REPS`] until each side has used this
/// many CPU seconds, or [`SETUP_MAX_REPS`] builds.
const SETUP_MIN_SECS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 200;
/// Host throughput is taken at this quantile of the per-pass CPU times
/// (see [`fast_quantile`]).
const FAST_QUANTILE: f64 = 0.05;
/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Violation messages kept for the report (the count is always exact).
const MAX_VIOLATION_LINES: usize = 12;

/// End-to-end metrics and their units, in print order. Every workload
/// reports all of them (see `README.md` for what each means per workload).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_kb", "KiB"),
    ("streams_per_cpu_s", "1/s"),
    ("input_mib_per_cpu_s", "MiB/s"),
    ("makespan_cycles", "cycles"),
    ("delivery_p50_cycles", "cycles"),
    ("delivery_tail_cycles", "cycles"),
];

/// Device names of the per-device engine timings (`serve.engine_ms.<name>`).
pub const ENGINE_DEVICES: [&str; 3] = ["a100", "rtx3090", "t4"];

/// Per-layer metric names with their units; `--trace 1` reports all of
/// them on every workload, 0 where the workload does not run that layer.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("fsm.seq_mib_per_s".into(), "MiB/s"),
        ("core.table_ms".into(), "ms"),
        ("core.selector_ms".into(), "ms"),
    ];
    for s in suite::SCHEME_NAMES {
        v.push((format!("core.scheme.{s}.host_ms"), "ms"));
        v.push((format!("core.scheme.{s}.mcycles"), "Mcycles"));
    }
    for p in suite::PHASES {
        v.push((format!("core.phase.{}.mcycles", p.name()), "Mcycles"));
    }
    v.extend([
        ("core.spec_accuracy_permille".into(), "permille"),
        ("core.recovery_runs".into(), "count"),
        ("core.speedup_vs_pm".into(), "x"),
        ("core.selector_optimal_permille".into(), "permille"),
        ("core.cpu.parallel_ms".into(), "ms"),
        ("core.cpu.recoveries".into(), "count"),
        ("core.cpu.mib_per_s".into(), "MiB/s"),
        ("core.cpu.speedup".into(), "x"),
        ("gpu.thread_rounds".into(), "count"),
        ("gpu.ns_per_thread_round".into(), "ns"),
        ("serve.source.pull_ms".into(), "ms"),
    ]);
    for d in ENGINE_DEVICES {
        v.push((format!("serve.engine_ms.{d}"), "ms"));
    }
    v.extend([
        ("serve.batches".into(), "count"),
        ("serve.streams_per_batch".into(), "streams"),
        ("serve.us_per_batch".into(), "us"),
        ("serve.residency_hit_permille".into(), "permille"),
        ("serve.residency_copied_bytes".into(), "B"),
        ("serve.transfer_mcycles".into(), "Mcycles"),
        ("serve.compute_mcycles".into(), "Mcycles"),
        ("serve.overlap_permille".into(), "permille"),
        ("serve.backpressure_events".into(), "count"),
        ("serve.peak_queue".into(), "count"),
        ("serve.until_crash_ms".into(), "ms"),
        ("serve.checkpoint.count".into(), "count"),
        ("serve.checkpoint.bytes".into(), "B"),
        ("serve.checkpoint.encode_ms".into(), "ms"),
        ("serve.checkpoint.decode_ms".into(), "ms"),
        ("serve.finalize_ms".into(), "ms"),
        ("cluster.route_ms".into(), "ms"),
        ("cluster.route_ns_per_stream".into(), "ns"),
        ("cluster.critical_path_ms".into(), "ms"),
        ("cluster.fanout_overhead_ms".into(), "ms"),
        ("cluster.imbalance_permille".into(), "permille"),
        ("cluster.migrations_replayed".into(), "count"),
        ("cluster.replay_cycles".into(), "cycles"),
        ("cluster.lost_streams".into(), "count"),
    ]);
    v
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced: metrics, operation counts, and every
/// correctness violation it observed.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, f64>,
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations (or run-level invariants) that failed a check.
    pub failed: u64,
    violations: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; its unit comes from [`END_TO_END`] or
    /// [`per_layer_names`].
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts a violation unless `ok`; `what` describes it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.violations.len() < MAX_VIOLATION_LINES {
                self.violations.push(what());
            }
        }
    }

    /// A human-readable context line printed before the JSON result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// A workload's set-up, timed at least [`SETUP_REPS`] times before the
/// timed passes and as many times after them, so that `setup_s` (the fast
/// quantile of every build, see [`fast_quantile`]) spans the run instead of
/// one moment of host load. Set-up runs on one thread and is timed on the
/// process CPU clock ([`cpu_secs`]).
pub struct Setup<F> {
    build: F,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Builds the workload state [`SETUP_REPS`] or more times and keeps the
    /// last.
    pub fn new(build: F) -> (Self, T) {
        let mut setup = Setup { build, secs: Vec::new() };
        let state = setup.timed_reps().expect("SETUP_REPS > 0");
        (setup, state)
    }

    /// Times as many builds again (call it once the run's state is
    /// dropped, so peak memory stays that of one set-up) and returns the
    /// fast quantile of every build in seconds.
    pub fn finish(mut self) -> f64 {
        drop(self.timed_reps());
        fast_quantile(&self.secs)
    }

    fn timed_reps(&mut self) -> Option<T> {
        let mut last = None;
        let mut spent = 0.0;
        let mut reps = 0;
        while reps < SETUP_REPS || (spent < SETUP_MIN_SECS && reps < SETUP_MAX_REPS) {
            drop(last.take());
            let clock = Stopwatch::start();
            last = Some(std::hint::black_box((self.build)()));
            let secs = clock.elapsed().1;
            self.secs.push(secs);
            spent += secs;
            reps += 1;
        }
        last
    }
}

/// CPU seconds this process has used so far, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Host throughput is measured on this clock rather than the wall clock:
/// the kernel's paravirtual steal accounting leaves out the time the
/// hypervisor gave the CPU to another guest, and time spent waiting for a
/// core never counts, so the figure tracks the work the program does, not
/// how busy the shared host was during the run.
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process-CPU time since it was started.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: Instant::now(), cpu: cpu_secs() }
    }

    /// `(wall seconds, CPU seconds)` since [`Stopwatch::start`].
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_secs() - self.cpu)
    }
}

/// Calls `pass` until `seconds` have elapsed, at least [`MIN_PASSES`]
/// times, and returns every pass's result.
pub fn timed_passes<T>(seconds: u64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || t0.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The [`FAST_QUANTILE`] (nearest rank) of per-pass times: the host
/// figure of a workload with many short passes.
///
/// Other tenants of a shared host only ever slow a pass down, and they do
/// it in bursts: the same call takes up to twice its fast time for
/// stretches of a second or more, and how much of a run such stretches
/// cover changes from one run to the next. The fast end of many passes is
/// the program's cost with the least of that interference, and it moves far
/// less from run to run than the median does.
pub fn fast_quantile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (FAST_QUANTILE * v.len() as f64).ceil().max(1.0) as usize;
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Median over passes of `f(pass)`.
pub fn median_of<T>(passes: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes → MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The highest percentile, capped at 99, that leaves at least ten of `n`
/// samples beyond it under the nearest-rank rule: p99 from 1000 samples
/// up, p72 for 36.
pub fn tail_percentile(n: usize) -> u64 {
    let n = n as u64;
    (100 * n.saturating_sub(10) / n.max(1)).min(99)
}

/// Nearest-rank percentile of integer samples (the serve layer's rule).
pub fn nearest_rank(samples: &[u64], pct: u64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let idx = (pct * v.len() as u64).div_ceil(100).max(1) - 1;
    v.get(idx as usize).copied().unwrap_or(0)
}

/// Worker threads the benchmark's own parallel code uses: the host's
/// core count (the rayon pool is pinned to the same number).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process in KiB. This process
/// runs exactly one workload, so the peak is that workload's alone.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_result(out: &Outcome, names: &[(String, &str)], values: &[f64]) -> String {
    let mut s = String::new();
    let correct = out.failed == 0;
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    )
    .expect("writing to a String cannot fail");
    for (i, ((name, unit), value)) in names.iter().zip(values).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let t0 = Instant::now();
    match args.workload.as_str() {
        "suite_kernels" => suite::run(&args, &mut out),
        "fleet_stream" => fleet::run_stream(&args, &mut out),
        "fleet_failover" => fleet::run_failover(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let names: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        let rss = peak_rss_kb();
        out.check(rss.is_some(), || "VmHWM unreadable from /proc/self/status".into());
        out.metric("peak_rss_kb", rss.unwrap_or(0) as f64);
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let recorded: Vec<String> = out.metrics.keys().cloned().collect();
    for name in recorded {
        out.check(names.iter().any(|(n, _)| *n == name), || format!("unlisted metric {name}"));
    }
    // Layers a workload never enters read 0; an end-to-end metric must be
    // measured.
    let mut values = Vec::with_capacity(names.len());
    for (name, _) in &names {
        let value = out.metrics.get(name).copied();
        let ok = value.is_some_and(f64::is_finite) || (args.trace && value.is_none());
        out.check(ok, || format!("metric {name} missing or not finite: {value:?}"));
        values.push(value.filter(|v| v.is_finite()).unwrap_or(0.0));
    }
    out.check(out.attempted > 0, || "no operation attempted".into());

    println!(
        "workload={} seed={} seconds={} trace={} nproc={} rayon_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for ((name, unit), value) in names.iter().zip(&values) {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    let permille = (out.failed * 1000).checked_div(out.attempted).unwrap_or(1000);
    println!(
        "  failed_permille {permille} ({} of {} operations), wall {:.1} s",
        out.failed,
        out.attempted,
        t0.elapsed().as_secs_f64()
    );
    for v in &out.violations {
        println!("  VIOLATION: {v}");
    }
    println!("{}", json_result(&out, &names, &values));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
