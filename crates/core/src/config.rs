//! Scheme and framework configuration.

use gspecpal_gpu::FaultPlan;

use crate::recovery::RecoveryConfig;

/// How cross-block seams are resolved after the per-block phases finish.
///
/// Blocks speculate their incoming state from the predictor; when a block's
/// true incoming state (the previous block's verified end) disagrees, the
/// boundary chunks must be re-walked. The sequential policy walks the seams
/// left to right — O(blocks) dependent launches. The tree policy composes
/// seams pair-wise in log2(blocks) rounds, re-resolving only the seams that
/// actually mismatched, so stitch time grows logarithmically in the block
/// count (the multi-block analogue of PM's tree merge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StitchPolicy {
    /// Left-to-right seam walk; one dependent launch per block boundary.
    Sequential,
    /// Pair-wise tree stitch: log2(blocks) rounds of concurrent seam checks.
    #[default]
    Tree,
}

/// Parameters shared by all parallel schemes. The predictor's lookback is
/// the constant [`crate::predict::LOOKBACK`]. A run answers with the final
/// state and the accept decision (the paper's void output function φ,
/// §II-A); match counts come from the host's `Dfa::count_matches`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeConfig {
    /// Number of chunks = number of GPU threads (`N` in Table I). The paper's
    /// Table III active-thread counts imply N = 256.
    pub n_chunks: usize,
    /// Number of speculative transition paths per thread in PM (`spec-k`).
    /// The paper's baseline is spec-4.
    pub spec_k: usize,
    /// Register budget (record slots) for `VR_i^others` — recovery records
    /// received from other threads (§IV-C, swept in Fig 7). 16 is the
    /// empirical best in the paper.
    pub vr_others_registers: usize,
    /// Register budget for `VR_i^end` — records produced by the owning
    /// thread itself (fixed to 16 in the paper's experiments).
    pub vr_end_registers: usize,
    /// How many *speculative* (non-frontier) recoveries each rear thread may
    /// execute from forwarded end states — the order of the "higher-order
    /// speculation" \[21\] that SRE generalizes. 1 reproduces the paper's SRE
    /// behaviour (one immediate speculative recovery per thread); 0 disables
    /// end-state forwarding entirely (recovery degenerates to the naive
    /// sequential walk); larger values re-speculate every time the forwarded
    /// state changes.
    pub spec_recovery_budget: u32,
    /// How cross-block seams are stitched once every block has verified its
    /// own chunks. Defaults to the parallel tree stitch; `Sequential`
    /// reproduces the original left-to-right walk (and is what the
    /// differential harness cross-checks the tree against).
    pub stitch: StitchPolicy,
    /// Deterministic fault plan injected into this job's kernel launches and
    /// record stores (`None` runs fault-free — the default). Faults never
    /// change results, only cost: see [`crate::recovery`].
    pub faults: Option<FaultPlan>,
    /// Retry/backoff/degradation policy applied when injected faults strike
    /// or the misspeculation ladder trips. Inert at its defaults without a
    /// fault plan.
    pub recovery: RecoveryConfig,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig {
            n_chunks: 256,
            spec_k: 4,
            vr_others_registers: 16,
            vr_end_registers: 16,
            spec_recovery_budget: 1,
            stitch: StitchPolicy::Tree,
            faults: None,
            recovery: RecoveryConfig::default(),
        }
    }
}

impl SchemeConfig {
    /// Config with a different chunk count.
    pub fn with_chunks(n_chunks: usize) -> Self {
        SchemeConfig { n_chunks, ..SchemeConfig::default() }
    }

    /// Validates the configuration against an input length.
    pub fn validate(&self, input_len: usize) -> Result<(), crate::error::CoreError> {
        use crate::error::CoreError;
        let positive = |field: &'static str, v: usize| {
            if v == 0 {
                Err(CoreError::InvalidConfig { field, problem: "must be positive".into() })
            } else {
                Ok(())
            }
        };
        positive("n_chunks", self.n_chunks)?;
        positive("spec_k", self.spec_k)?;
        positive("vr_end_registers", self.vr_end_registers)?;
        if input_len == 0 {
            return Err(CoreError::EmptyInput { n_chunks: self.n_chunks });
        }
        if self.n_chunks > input_len {
            return Err(CoreError::TooManyChunks { n_chunks: self.n_chunks, input_len });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SchemeConfig::default();
        assert_eq!(c.n_chunks, 256);
        assert_eq!(c.spec_k, 4);
        assert_eq!(c.vr_others_registers, 16);
        assert_eq!(c.stitch, StitchPolicy::Tree);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SchemeConfig::default();
        assert!(c.validate(1 << 20).is_ok());
        assert!(c.validate(10).is_err(), "more chunks than bytes");
        c.n_chunks = 0;
        assert!(c.validate(1 << 20).is_err());
        let c = SchemeConfig { spec_k: 0, ..SchemeConfig::default() };
        assert!(c.validate(1 << 20).is_err());
    }

    #[test]
    fn empty_input_is_a_structured_error() {
        use crate::error::CoreError;
        let c = SchemeConfig::default();
        assert_eq!(c.validate(0), Err(CoreError::EmptyInput { n_chunks: 256 }));
    }
}
