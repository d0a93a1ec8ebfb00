//! The parallelization schemes integrated in GSpecPal.
//!
//! Every scheme follows the three-phase structure of Equation 1:
//! prediction (`C`), parallel speculative execution (`T_par`), and
//! verification & recovery (`T_v&r`). The phases run as separate simulated
//! kernels; their costs are reported per phase in [`RunOutcome`].
//!
//! All schemes are *exact*: whatever they speculate, the verified result
//! equals the sequential run (the paper's correctness contract, enforced by
//! the property tests in `tests/`).

mod common;
mod naive;
mod pm;
mod sequential;
mod sfa;
mod stitch;
mod vr_kernel;

pub use common::{exec_phase, ExecPhase};
pub use sfa::compose_mappings;

use std::ops::Range;

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    block_dims_width, fit_block_width, max_resident_blocks, BlockDim, BlockRequirements, DeviceSpec,
};

use crate::config::SchemeConfig;
use crate::partition::partition;
use crate::run::{RunOutcome, SchemeKind};
use crate::table::DeviceTable;
use vr_kernel::{run_with_policy, RecoveryPolicy};

/// One FSM-processing job: a device, a device-resident table, an input
/// stream, and the scheme configuration.
#[derive(Clone, Debug)]
pub struct Job<'a> {
    /// Device to simulate on.
    pub spec: &'a DeviceSpec,
    /// The machine, already laid out for the device (§IV-B).
    pub table: &'a DeviceTable<'a>,
    /// The input stream.
    pub input: &'a [u8],
    /// Scheme parameters.
    pub config: SchemeConfig,
}

impl<'a> Job<'a> {
    /// Creates a job, validating the device and the configuration.
    pub fn new(
        spec: &'a DeviceSpec,
        table: &'a DeviceTable<'a>,
        input: &'a [u8],
        config: SchemeConfig,
    ) -> Result<Self, crate::error::CoreError> {
        spec.validate().map_err(crate::error::CoreError::InvalidDevice)?;
        config.validate(input.len())?;
        let job = Job { spec, table, input, config };
        // Launchability gate: if even a one-thread block of the execution or
        // verification kernels exceeds the SM (a hot table bigger than shared
        // memory), reject the job here instead of panicking mid-scheme.
        for req in [job.exec_requirements(1), job.vr_requirements(1), job.sfa_requirements(1)] {
            if max_resident_blocks(spec, &req) == 0 {
                return Err(crate::error::CoreError::Unlaunchable {
                    shared_bytes: req.shared_bytes,
                    shared_available: spec.shared_mem_bytes,
                });
            }
        }
        Ok(job)
    }

    /// The chunk partition `Π` of this job's input.
    pub fn chunks(&self) -> Vec<Range<usize>> {
        partition(self.input.len(), self.config.n_chunks)
    }

    /// Ground truth end state, computed host-side (for tests/verification).
    pub fn truth(&self) -> StateId {
        self.table.dfa().run(self.input)
    }

    /// Shared-memory bytes of per-thread device state in the speculation
    /// kernels: the staged speculation queue — up to `VR^others` records plus
    /// the thread's own forwarded end states — at 8 bytes per record slot
    /// (start, end, match count packed), plus a 16-byte staging slot for the
    /// boundary exchange. Queues longer than the state count are pointless
    /// (a record per distinct start state at most), so the slot count is
    /// clamped there.
    fn shared_bytes_per_thread(&self) -> usize {
        let slots = (self.config.vr_others_registers + self.config.spec_k + 1)
            .min(self.table.dfa().n_states() as usize + 1);
        8 * slots + 16
    }

    /// Per-block resources of the speculative-execution kernels (the `T_par`
    /// phase): the hot table in shared memory, per-thread speculation queues,
    /// and registers for the VR^end window plus the spec-k path states.
    /// Register counts are capped at 255, the hardware per-thread spill cap.
    pub fn exec_requirements(&self, threads: u32) -> BlockRequirements {
        let own = self.config.vr_end_registers.max(self.config.spec_k);
        let regs = (16 + 4 * own + 2 * self.config.spec_k).min(255) as u32;
        BlockRequirements {
            threads,
            shared_bytes: self.table.shared_footprint_bytes()
                + threads as usize * self.shared_bytes_per_thread(),
            regs_per_thread: regs,
        }
    }

    /// Per-block resources of the verification & recovery kernels (the
    /// `T_v&r` phase): the hot table, the staged `VR^others` queues, and
    /// registers for the full record window (VR^end + VR^others, 4 registers
    /// per record) plus loop state.
    pub fn vr_requirements(&self, threads: u32) -> BlockRequirements {
        let records =
            self.config.vr_end_registers.max(self.config.spec_k) + self.config.vr_others_registers;
        let regs = (24 + 4 * records).min(255) as u32;
        BlockRequirements {
            threads,
            shared_bytes: self.table.shared_footprint_bytes()
                + threads as usize * self.shared_bytes_per_thread(),
            regs_per_thread: regs,
        }
    }

    /// Per-block resources of the SFA mapping kernels: the hot table in
    /// shared memory plus one live-path slot set per thread — 4 bytes per
    /// distinct live state (clamped at 64; wider mappings spill to local
    /// memory) and a 16-byte epoch/indirection header. Registers hold the
    /// dedup cursor set, two per slot.
    pub fn sfa_requirements(&self, threads: u32) -> BlockRequirements {
        let width = (self.table.dfa().n_states() as usize).min(64);
        BlockRequirements {
            threads,
            shared_bytes: self.table.shared_footprint_bytes() + threads as usize * (4 * width + 16),
            regs_per_thread: (16 + 2 * width) as u32,
        }
    }

    /// The block partition the VR-based schemes launch for `n_threads`
    /// chunk-owning threads: blocks as wide as the occupancy calculator lets
    /// the verification kernel be on this device.
    pub fn vr_dims(&self, n_threads: usize) -> Vec<BlockDim> {
        let width = fit_block_width(self.spec, |w| self.vr_requirements(w))
            .expect("Job::new checked launchability");
        block_dims_width(width as usize, n_threads)
    }
}

/// Runs `kind` on `job` and returns the outcome.
pub fn run_scheme(kind: SchemeKind, job: &Job<'_>) -> RunOutcome {
    match kind {
        SchemeKind::Sequential => sequential::run(job),
        SchemeKind::Naive => naive::run(job),
        SchemeKind::Pm => pm::run(job),
        SchemeKind::Sre => run_with_policy(job, RecoveryPolicy::Sre),
        SchemeKind::Rr => run_with_policy(job, RecoveryPolicy::RoundRobin),
        SchemeKind::Nf => run_with_policy(job, RecoveryPolicy::NearestFirst),
        SchemeKind::Sfa => sfa::run(job),
    }
}
