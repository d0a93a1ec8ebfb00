//! Structured rejection reasons for serve traces.

/// Why a trace cannot be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A stream's input is larger than one device staging buffer, so no
    /// batch could ever hold it. The pipeline double-buffers its input
    /// staging memory, so one buffer is half the configured device budget.
    StreamTooLarge {
        /// Index of the offending arrival in the trace.
        stream: usize,
        /// The stream's size in bytes.
        bytes: usize,
        /// Bytes one staging buffer holds (`device_mem_bytes / 2`).
        buffer_bytes: usize,
    },
    /// An arrival names a machine index the pipeline was not given.
    UnknownMachine {
        /// Index of the offending arrival in the trace.
        stream: usize,
        /// The machine id the arrival asked for.
        machine: usize,
        /// How many machines the pipeline has.
        n_machines: usize,
    },
    /// The configuration is internally inconsistent (zero-sized queue,
    /// zero-byte device budget, a policy with a zero batch cap, …).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        problem: String,
    },
    /// The device spec cannot be simulated (see
    /// [`gspecpal_gpu::DeviceSpec::validate`]).
    InvalidDevice(gspecpal_gpu::SpecError),
    /// An arrival is timestamped earlier than its predecessor, so the trace
    /// is not a valid time-ordered history (see
    /// [`crate::Trace::try_from_arrivals`]).
    NonMonotonicTrace {
        /// Index of the offending arrival.
        stream: usize,
        /// Its arrival cycle.
        cycle: u64,
        /// The predecessor's (later) arrival cycle.
        prev: u64,
    },
    /// An arrival cycle is so large that downstream cycle arithmetic
    /// (deadlines, latencies, backoff) could overflow the 64-bit clock.
    ArrivalOverflow {
        /// Index of the offending arrival.
        stream: usize,
        /// Its arrival cycle.
        cycle: u64,
        /// The largest admissible arrival cycle.
        max: u64,
    },
    /// An arrival carries a zero-length stream, which no kernel can scan.
    EmptyStream {
        /// Index of the offending arrival.
        stream: usize,
    },
    /// A checkpoint's bytes are malformed: truncated, bad magic or
    /// checksum, an out-of-range tag, or decoded state no run of the
    /// engine could have produced. Corruption is always a structured
    /// rejection, never a panic.
    CorruptCheckpoint {
        /// Byte offset the decoder was at when it gave up (0 for semantic
        /// validation failures past the byte layer).
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// A well-formed checkpoint was presented to a run whose configuration,
    /// machines, or device differ from the ones it was taken under — the
    /// bit-identity guarantee only holds against the identical setup, so
    /// resuming is refused instead of silently diverging.
    CheckpointMismatch {
        /// Fingerprint of the resuming run's setup.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::StreamTooLarge { stream, bytes, buffer_bytes } => write!(
                f,
                "stream {stream} is {bytes} bytes but one staging buffer holds {buffer_bytes}"
            ),
            ServeError::UnknownMachine { stream, machine, n_machines } => write!(
                f,
                "stream {stream} asks for machine {machine} but the pipeline has {n_machines}"
            ),
            ServeError::InvalidConfig { field, problem } => {
                write!(f, "invalid serve configuration: {field} {problem}")
            }
            ServeError::InvalidDevice(e) => e.fmt(f),
            ServeError::NonMonotonicTrace { stream, cycle, prev } => write!(
                f,
                "arrival {stream} at cycle {cycle} precedes its predecessor at cycle {prev}"
            ),
            ServeError::ArrivalOverflow { stream, cycle, max } => {
                write!(f, "arrival {stream} at cycle {cycle} exceeds the clock bound {max}")
            }
            ServeError::EmptyStream { stream } => {
                write!(f, "arrival {stream} carries an empty stream")
            }
            ServeError::CorruptCheckpoint { offset, what } => {
                write!(f, "corrupt checkpoint at byte {offset}: {what}")
            }
            ServeError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this run's {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}
