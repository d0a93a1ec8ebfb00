//! Error types for job construction and configuration validation.

/// Why a job or configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A configuration field has an invalid value.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        problem: String,
    },
    /// The chunk count exceeds the input length (some chunks would be empty
    /// in a way the schemes' invariants do not allow).
    TooManyChunks {
        /// Requested chunk count.
        n_chunks: usize,
        /// Input length in bytes.
        input_len: usize,
    },
    /// The input stream is empty but chunks were requested: the schemes'
    /// speculation and verification invariants assume at least one byte.
    EmptyInput {
        /// Requested chunk count.
        n_chunks: usize,
    },
    /// The device spec cannot be simulated (see
    /// [`gspecpal_gpu::DeviceSpec::validate`]).
    InvalidDevice(gspecpal_gpu::SpecError),
    /// Even a one-thread block of this job's kernels exceeds the device's
    /// per-SM resources (in practice: the hot transition table plus the
    /// per-thread speculation state outgrow shared memory). No block shape
    /// can launch, so the job is rejected up front instead of panicking
    /// inside a scheme.
    Unlaunchable {
        /// Shared bytes one block would need at the narrowest width.
        shared_bytes: usize,
        /// Shared bytes one SM actually has.
        shared_available: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { field, problem } => {
                write!(f, "invalid configuration: {field} {problem}")
            }
            CoreError::TooManyChunks { n_chunks, input_len } => {
                write!(f, "n_chunks ({n_chunks}) exceeds the input length ({input_len} bytes)")
            }
            CoreError::EmptyInput { n_chunks } => {
                write!(f, "input is empty but {n_chunks} chunk(s) were requested")
            }
            CoreError::InvalidDevice(e) => e.fmt(f),
            CoreError::Unlaunchable { shared_bytes, shared_available } => {
                write!(
                    f,
                    "no block shape fits the device: one block needs {shared_bytes} shared \
                     bytes but an SM has {shared_available}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::TooManyChunks { n_chunks: 300, input_len: 10 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("10"));
        let e = CoreError::EmptyInput { n_chunks: 4096 };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("empty"));
        let e = CoreError::InvalidConfig { field: "spec_k", problem: "must be positive".into() };
        assert!(e.to_string().contains("spec_k"));
        let e = CoreError::Unlaunchable { shared_bytes: 200_000, shared_available: 102_400 };
        assert!(e.to_string().contains("200000"));
        assert!(e.to_string().contains("102400"));
    }
}
