//! Crash-consistency properties of the serve-layer checkpoint path
//! (ISSUE 10 satellite): random engine configs × random checkpoint
//! boundaries × fault plans must round-trip `encode → decode` bit for
//! bit, resume to a `ServeReport` bit-identical to the uninterrupted
//! run, and reject corrupt or truncated checkpoint bytes as structured
//! errors — never panics.

use gspecpal::config::SchemeConfig;
use gspecpal_fsm::examples::{div7, mod_counter, ones_counter};
use gspecpal_fsm::Dfa;
use gspecpal_gpu::{DeviceSpec, FaultPlan};
use gspecpal_serve::{
    serve, serve_checkpoint, serve_resume, serve_until_crash, BatchPolicy, CheckpointOutcome,
    ControllerConfig, CrashRun, EngineCheckpoint, PriorityClass, ReportDetail, ResidencyConfig,
    ServeConfig, ServeError, ServeMachine, ServeReport, StreamArrival, Trace,
};
use proptest::prelude::*;

fn serve_dfas() -> Vec<Dfa> {
    vec![div7(), mod_counter(5, &[0]), ones_counter(3, &[1])]
}

fn serve_machines<'a>(spec: &DeviceSpec, dfas: &'a [Dfa]) -> Vec<ServeMachine<'a>> {
    dfas.iter().map(|dfa| ServeMachine::prepare(spec, dfa, &b"110100".repeat(64))).collect()
}

/// Maps proptest-drawn indices onto the config axes the checkpoint must
/// survive: every batch policy, faults on/off, the adaptive controller,
/// bounded-memory sketches, and the residency LRU.
fn config_at(
    policy: u8,
    faults: bool,
    controller: bool,
    bounded: bool,
    residency: bool,
) -> ServeConfig {
    let policy = match policy % 3 {
        0 => BatchPolicy::Fifo { batch: 4 },
        1 => BatchPolicy::Deadline { batch: 4, max_wait: 600 },
        _ => BatchPolicy::Adaptive { max_batch: 6 },
    };
    ServeConfig {
        policy,
        scheme_config: SchemeConfig {
            faults: faults
                .then(|| FaultPlan { copy_fail_permille: 150, ..FaultPlan::chaos(29, 90) }),
            ..SchemeConfig::default()
        },
        controller: controller.then(ControllerConfig::default),
        residency: residency.then_some(ResidencyConfig { capacity_bytes: 4096 }),
        detail: if bounded { ReportDetail::Bounded } else { ReportDetail::Full },
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hard guarantee: checkpoint at any quiescent batch boundary,
    /// encode, decode, resume — and the final report is bit-identical to
    /// the run that was never interrupted, across every policy, fault
    /// plan, controller, detail level, and residency setting.
    #[test]
    fn checkpoint_resume_is_bit_identical_to_the_uninterrupted_run(
        seed in 0u64..1_000,
        n_streams in 8usize..36,
        at_batch in 0usize..10,
        policy in 0u8..3,
        faults in 0u8..2,
        controller in 0u8..2,
        bounded in 0u8..2,
        residency in 0u8..2,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfas = serve_dfas();
        let machines = serve_machines(&spec, &dfas);
        let cfg = config_at(policy, faults == 1, controller == 1, bounded == 1, residency == 1);
        let trace = Trace::synthetic(seed, n_streams, dfas.len(), 35, 8..80, b"01");
        let reference = serve(&spec, &machines, &trace, &cfg).unwrap();
        match serve_checkpoint(&spec, &machines, trace.source(), &cfg, at_batch).unwrap() {
            CheckpointOutcome::Completed(report) => prop_assert_eq!(*report, reference),
            CheckpointOutcome::Checkpoint(ck) => {
                // The wire format round-trips bit for bit.
                let bytes = ck.encode();
                let decoded = EngineCheckpoint::decode(&bytes).unwrap();
                prop_assert_eq!(&decoded, &*ck);
                prop_assert_eq!(decoded.encode(), bytes);
                // And resuming from it loses nothing.
                let resumed = serve_resume(&spec, &machines, trace.source(), &cfg, &ck).unwrap();
                prop_assert_eq!(resumed, reference);
            }
        }
    }

    /// Corrupt bytes are a structured `CorruptCheckpoint` error, never a
    /// panic: every truncation length and every single-bit flip at a
    /// random offset is rejected (the checksum net catches the flips the
    /// structural validators cannot).
    #[test]
    fn corrupt_checkpoint_bytes_are_structured_errors_never_panics(
        seed in 0u64..500,
        at_batch in 1usize..6,
        flip_byte in 0usize..100_000,
        flip_bit in 0u8..8,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfas = serve_dfas();
        let machines = serve_machines(&spec, &dfas);
        let cfg = config_at(seed as u8, seed % 2 == 0, false, false, false);
        let trace = Trace::synthetic(seed, 24, dfas.len(), 30, 8..64, b"01");
        let outcome = serve_checkpoint(&spec, &machines, trace.source(), &cfg, at_batch).unwrap();
        if let CheckpointOutcome::Checkpoint(ck) = outcome {
            let bytes = ck.encode();
            let cut = seed as usize % bytes.len();
            match EngineCheckpoint::decode(&bytes[..cut]) {
                Err(ServeError::CorruptCheckpoint { .. }) => {}
                other => prop_assert!(false, "truncation at {} not rejected: {:?}", cut, other),
            }
            let mut flipped = bytes.clone();
            flipped[flip_byte % bytes.len()] ^= 1 << flip_bit;
            match EngineCheckpoint::decode(&flipped) {
                Err(ServeError::CorruptCheckpoint { .. }) => {}
                other => prop_assert!(false, "bit flip not rejected: {:?}", other),
            }
        }
    }

    /// `serve_until_crash` + `finalize_checkpoint` conserve streams: the
    /// durable report plus the orphans account for exactly the arrivals
    /// pulled by the checkpointed prefix, under any crash cycle and
    /// checkpoint cadence.
    #[test]
    fn checkpoint_crash_finalize_conserves_every_pulled_stream(
        seed in 0u64..1_000,
        crash_cycle in 0u64..400_000,
        every_batches in 1usize..6,
        faults in 0u8..2,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfas = serve_dfas();
        let machines = serve_machines(&spec, &dfas);
        let cfg = config_at(0, faults == 1, false, false, false);
        let trace = Trace::synthetic(seed, 28, dfas.len(), 30, 8..64, b"01");
        let crash = serve_until_crash(
            &spec, &machines, trace.source(), &cfg, every_batches, crash_cycle,
        ).unwrap();
        if let Some(report) = crash.completed {
            // Idle at the crash cycle: the run finished and nothing needs
            // replay. The report must equal the plain serve.
            let reference = serve(&spec, &machines, &trace, &cfg).unwrap();
            prop_assert_eq!(*report, reference);
        } else {
            prop_assert!(crash.checkpoints_taken >= 1, "batch-0 checkpoint is unconditional");
            prop_assert!(crash.checkpoint_bytes > 0);
            let ck = crash.checkpoint.expect("crashed runs always leave a checkpoint");
            let (durable, orphans) =
                gspecpal_serve::finalize_checkpoint(&spec, &machines, &cfg, &ck).unwrap();
            prop_assert_eq!(durable.streams + orphans.len(), ck.streams_pulled());
            prop_assert!(durable.streams + orphans.len() <= trace.len());
            prop_assert_eq!(durable.stats.profile.total_cycles(), durable.stats.cycles);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encoded_len` sizes exactly what `encode` writes, at any quiescent
    /// boundary of any trace, under Full and Bounded detail, with and
    /// without the controller and a fault plan.
    #[test]
    fn checkpoint_encoded_len_equals_the_encoding_length(
        seed in 0u64..1_000,
        n_streams in 8usize..48,
        at_batch in 0usize..12,
        policy in 0u8..3,
        faults in 0u8..2,
        controller in 0u8..2,
        bounded in 0u8..2,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfas = serve_dfas();
        let machines = serve_machines(&spec, &dfas);
        let cfg = config_at(policy, faults == 1, controller == 1, bounded == 1, seed % 2 == 0);
        let trace = Trace::synthetic(seed, n_streams, dfas.len(), 35, 8..80, b"01");
        let outcome = serve_checkpoint(&spec, &machines, trace.source(), &cfg, at_batch).unwrap();
        if let CheckpointOutcome::Checkpoint(ck) = outcome {
            prop_assert_eq!(ck.encoded_len(), ck.encode().len());
        }
    }

    /// A crashing run's `checkpoint_bytes` is the summed encoding length of
    /// every checkpoint it took, each observed as it became the latest.
    #[test]
    fn crash_run_checkpoint_bytes_sum_the_encodings(
        seed in 0u64..1_000,
        crash_cycle in 0u64..400_000,
        every_batches in 1usize..4,
        faults in 0u8..2,
        bounded in 0u8..2,
    ) {
        let spec = DeviceSpec::test_unit();
        let dfas = serve_dfas();
        let machines = serve_machines(&spec, &dfas);
        let cfg = config_at(seed as u8, faults == 1, seed % 3 == 0, bounded == 1, false);
        let trace = Trace::synthetic(seed, 28, dfas.len(), 30, 8..64, b"01");
        let mut run =
            CrashRun::new(&spec, &machines, trace.source(), &cfg, every_batches, crash_cycle)
                .unwrap();
        let (mut taken, mut bytes, mut last) = (0u64, 0u64, None);
        loop {
            let alive = run.step().unwrap();
            if let Some(ck) = run.checkpoint() {
                // Successive checkpoints are at least one batch apart.
                if last != Some(ck.batches_formed()) {
                    last = Some(ck.batches_formed());
                    taken += 1;
                    bytes += ck.encode().len() as u64;
                }
            }
            if !alive {
                break;
            }
        }
        let crash = run.finish().unwrap();
        prop_assert_eq!(crash.checkpoints_taken, taken);
        prop_assert_eq!(crash.checkpoint_bytes, bytes);
    }
}

/// Acceptance criterion: checkpoint/resume is bit-identical across host
/// thread counts (`RAYON_NUM_THREADS ∈ {1, 4}`) — the restored engine
/// inherits the same determinism contract as the uninterrupted path.
#[test]
fn checkpoint_resume_is_bit_identical_across_rayon_pools() {
    let spec = DeviceSpec::test_unit();
    let dfas = serve_dfas();
    let machines = serve_machines(&spec, &dfas);
    let cfg = config_at(2, true, true, false, true);
    let trace = Trace::synthetic(41, 30, dfas.len(), 30, 8..80, b"01");
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(|| {
            let reference = serve(&spec, &machines, &trace, &cfg).unwrap();
            let resumed = match serve_checkpoint(&spec, &machines, trace.source(), &cfg, 2).unwrap()
            {
                CheckpointOutcome::Completed(report) => *report,
                CheckpointOutcome::Checkpoint(ck) => {
                    let ck = EngineCheckpoint::decode(&ck.encode()).unwrap();
                    serve_resume(&spec, &machines, trace.source(), &cfg, &ck).unwrap()
                }
            };
            assert_eq!(resumed, reference, "resume diverged inside a {threads}-thread pool");
            resumed
        })
    };
    assert_eq!(run(1), run(4), "reports differ across pool sizes");
}

/// A checkpoint is tied to its exact run setup: resuming under a
/// different fleet (machine count) is refused with a fingerprint
/// mismatch, not silently accepted.
#[test]
fn checkpoint_fingerprint_pins_the_machine_fleet() {
    let spec = DeviceSpec::test_unit();
    let dfas = serve_dfas();
    let machines = serve_machines(&spec, &dfas);
    let cfg = config_at(0, false, false, false, false);
    let trace = Trace::synthetic(7, 20, 1, 30, 8..64, b"01");
    let CheckpointOutcome::Checkpoint(ck) =
        serve_checkpoint(&spec, &machines, trace.source(), &cfg, 1).unwrap()
    else {
        panic!("expected a checkpoint");
    };
    let fewer = serve_machines(&spec, &dfas[..1]);
    match serve_resume(&spec, &fewer, trace.source(), &cfg, &ck) {
        Err(ServeError::CheckpointMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Golden VERSION-2 blobs
// ---------------------------------------------------------------------------

/// A Full-detail checkpoint taken mid-trace with every optional subsystem
/// live: the adaptive controller, the residency LRU, a fault plan, and
/// preemptive deadline classes. Its report carries batches, decisions,
/// outcomes and queue-depth samples.
const GOLDEN_FULL: &[u8] = include_bytes!("data/checkpoint_v2_full.bin");

/// A Bounded-detail checkpoint taken after more than `EXACT_SUMMARY_MAX`
/// served streams, so both latency accumulators have spilled into sketches.
const GOLDEN_BOUNDED: &[u8] = include_bytes!("data/checkpoint_v2_bounded.bin");

/// The same two setups' VERSION 1 blobs, whose kernel stats carried three
/// per-round vectors where VERSION 2 carries three sums.
const V1_BLOBS: [&[u8]; 2] = [
    include_bytes!("data/checkpoint_v1_full.bin"),
    include_bytes!("data/checkpoint_v1_bounded.bin"),
];

/// The setup behind [`GOLDEN_FULL`]. Under preemption a dispatched bulk
/// kernel stays open (and the engine unquiesced) for the rest of the run,
/// so the trace opens with deadline-class machines 1 and 2 only: the
/// checkpoint lands among their batches on the preempt-mode compute
/// cursor. Then a large bulk batch for machine 0 is cut into by a
/// deadline stream, so the resumed run preempts.
fn golden_full_setup(dfas: &[Dfa]) -> (Vec<ServeMachine<'_>>, ServeConfig, Trace, usize) {
    let spec = DeviceSpec::test_unit();
    let machines = serve_machines(&spec, dfas)
        .into_iter()
        .enumerate()
        .map(|(i, m)| if i == 0 { m } else { m.with_class(PriorityClass::Deadline) })
        .collect();
    let cfg = ServeConfig { preempt: true, ..config_at(0, true, true, false, true) };
    let mut arrivals = Trace::synthetic(23, 30, 2, 30, 8..80, b"01").arrivals().to_vec();
    for a in &mut arrivals {
        a.machine += 1;
    }
    let bulk = arrivals.last().expect("non-empty trace").arrival_cycle + 2_000;
    arrivals.extend((0..8).map(|_| StreamArrival {
        arrival_cycle: bulk,
        machine: 0,
        bytes: b"10".repeat(300),
    }));
    arrivals.push(StreamArrival {
        arrival_cycle: bulk + 20_000,
        machine: 1,
        bytes: b"10".repeat(10),
    });
    (machines, cfg, Trace::from_arrivals(arrivals), 6)
}

/// The setup behind [`GOLDEN_BOUNDED`].
fn golden_bounded_setup(dfas: &[Dfa]) -> (Vec<ServeMachine<'_>>, ServeConfig, Trace, usize) {
    let spec = DeviceSpec::test_unit();
    let machines = serve_machines(&spec, dfas);
    let cfg = ServeConfig {
        policy: BatchPolicy::Fifo { batch: 32 },
        ..config_at(0, false, false, true, false)
    };
    let trace = Trace::synthetic(31, 4_300, 1, 30, 8..16, b"01");
    (machines, cfg, trace, 132)
}

/// Re-takes a golden checkpoint and holds the committed VERSION-2 bytes to
/// it: identical encoding, lossless decoding, a bit-identical resume, and an
/// unchanged setup fingerprint.
fn check_golden_checkpoint(
    blob: &[u8],
    (machines, cfg, trace, at_batch): (Vec<ServeMachine<'_>>, ServeConfig, Trace, usize),
) -> ServeReport {
    let spec = DeviceSpec::test_unit();
    let CheckpointOutcome::Checkpoint(ck) =
        serve_checkpoint(&spec, &machines, trace.source(), &cfg, at_batch).unwrap()
    else {
        panic!("the golden setup must checkpoint mid-trace");
    };
    let bytes = ck.encode();
    assert_eq!(ck.encoded_len(), blob.len(), "sizing disagrees with the golden blob");
    let first_diff = bytes.iter().zip(blob).position(|(a, b)| a != b);
    assert!(
        bytes == blob,
        "encoding drifted from VERSION 2: {} vs {} bytes, first difference at {:?}",
        bytes.len(),
        blob.len(),
        first_diff
    );
    let decoded = EngineCheckpoint::decode(blob).unwrap();
    assert_eq!(decoded, *ck);
    let stored = u64::from_le_bytes(blob[8..16].try_into().unwrap());
    assert_eq!(stored, ck.fingerprint(), "setup fingerprint drifted");
    let reference = serve(&spec, &machines, &trace, &cfg).unwrap();
    let resumed = serve_resume(&spec, &machines, trace.source(), &cfg, &decoded).unwrap();
    assert_eq!(resumed, reference);
    resumed
}

#[test]
fn checkpoint_golden_v2_full_blob_is_stable() {
    let dfas = serve_dfas();
    let report = check_golden_checkpoint(GOLDEN_FULL, golden_full_setup(&dfas));
    assert!(report.preemptions > 0, "the resumed run must preempt a bulk kernel");
}

#[test]
fn checkpoint_golden_v2_bounded_blob_is_stable() {
    let dfas = serve_dfas();
    let report = check_golden_checkpoint(GOLDEN_BOUNDED, golden_bounded_setup(&dfas));
    assert!(report.latency_error_permille > 0, "the summaries must come from sketches");
}

#[test]
fn checkpoint_golden_v1_blobs_are_unsupported_versions() {
    for blob in V1_BLOBS {
        assert_eq!(u32::from_le_bytes(blob[4..8].try_into().unwrap()), 1);
        assert_eq!(
            EngineCheckpoint::decode(blob),
            Err(ServeError::CorruptCheckpoint {
                offset: 4,
                what: "unsupported checkpoint version"
            })
        );
    }
}

// ---------------------------------------------------------------------------
// Fuzzing past the checksum
// ---------------------------------------------------------------------------

/// FNV-1a-64, the checkpoint trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Replaces the trailer of `body ++ trailer` with a valid checksum, so a
/// mutation reaches the structural validators instead of the checksum net.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Header (magic, version, fingerprint) bytes the mutations leave alone.
const HEADER: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated-then-resealed payloads — bit flips, a huge value written
    /// over any eight bytes (every length field is one), truncation inside
    /// the payload — decode to `Ok` or `CorruptCheckpoint`, never a panic.
    /// Whatever decodes re-encodes to exactly the mutated bytes: the wire
    /// format has one encoding per value.
    #[test]
    fn checkpoint_fuzzed_payloads_decode_canonically_or_fail_cleanly(
        bounded in 0u8..2,
        mutation in 0u8..3,
        at in 0usize..1_000_000,
        bit in 0u8..8,
        huge in 0usize..4,
    ) {
        let golden = if bounded == 1 { GOLDEN_BOUNDED } else { GOLDEN_FULL };
        let payload = golden.len() - 8 - HEADER;
        let at = HEADER + at % payload;
        let mutated = match mutation {
            0 => {
                let mut b = golden.to_vec();
                b[at] ^= 1 << bit;
                reseal(b)
            }
            1 => {
                let value = [u64::MAX, 1 << 32, golden.len() as u64, 1 << 61][huge];
                let mut b = golden.to_vec();
                let at = at.min(golden.len() - 16);
                b[at..at + 8].copy_from_slice(&value.to_le_bytes());
                reseal(b)
            }
            _ => {
                let mut b = golden[..at].to_vec();
                b.extend_from_slice(&[0; 8]);
                reseal(b)
            }
        };
        match EngineCheckpoint::decode(&mutated) {
            Ok(ck) => prop_assert!(ck.encode() == mutated, "decoded bytes re-encode differently"),
            Err(ServeError::CorruptCheckpoint { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {:?}", other),
        }
    }
}
