//! Deterministic SIMT GPU cost-model simulator.
//!
//! This crate is the reproduction's substitute for the paper's Nvidia GeForce
//! RTX 3090 (§V-A). The schemes in `gspecpal` are written as *round-based
//! kernels*: a kernel is a sequence of barrier-delimited rounds, exactly the
//! `while … { …; sync(); }` shape of the paper's Algorithms 3-5. The
//! simulator steps every thread through each round, charges cycles for every
//! ALU operation and memory access, models warp-level coalescing of global
//! memory transactions, and merges per-thread clocks at each barrier the way
//! real hardware serializes on `__syncthreads()`.
//!
//! What is modelled (because the paper's results depend on it):
//!
//! * **shared vs. global latency** — the §IV-B hot-table optimization;
//! * **coalescing / broadcast of warp global loads** — the Fig 9 locality
//!   advantage of NF over RR;
//! * **barrier-aligned round time = max over threads** — warp divergence at
//!   chunk granularity, and why a single must-be-done recovery stalls a
//!   whole verification round;
//! * **per-round active and recovering thread counts**, summed as the
//!   kernel runs — Table III's utilization metric.
//!
//! There are three launch functions, one per kind of kernel: [`launch`] runs
//! one block; [`launch_grid`] partitions one kernel's threads into blocks
//! of an occupancy-fitted width; [`launch_blocks`] runs a list of
//! caller-built blocks. The two grid launchers simulate their blocks in
//! order on the calling thread and return a [`GridStats`] that schedules
//! them under the SM-occupancy wave model and folds them into one
//! [`KernelStats`] — so multi-block scheduling *is* modelled, at block
//! granularity.
//!
//! What is deliberately not modelled: instruction-level warp divergence,
//! DRAM banking, L2, and intra-wave block preemption — none of which the
//! paper's analysis (§III-C) depends on. All counts are deterministic
//! (including across host thread pools), so every experiment in
//! EXPERIMENTS.md reproduces bit-for-bit.

#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod grid;
pub mod kernel;
pub mod occupancy;
pub mod spec;
pub mod stats;
pub mod transfer;

pub use error::LaunchError;
pub use fault::{backoff_cycles, fault_coord, FaultDomain, FaultPlan};
pub use grid::{block_dims_width, launch_blocks, launch_grid, BlockDim, GridStats};
pub use kernel::{
    launch, RoundKernel, RoundOutcome, SegmentMasks, Segments, ThreadCtx, WindowEpoch,
};
pub use occupancy::{fit_block_width, max_resident_blocks, occupancy, BlockRequirements};
pub use spec::{DeviceSpec, LinkSpec, SpecError};
pub use stats::{KernelStats, LaunchShape, Phase, PhaseCounters, PhaseProfile};
pub use transfer::{
    link_transfer_stats, transfer_stats, CopyDirection, DeviceTimeline, Engine, Span,
};
