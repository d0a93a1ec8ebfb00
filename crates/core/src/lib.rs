//! GSpecPal: speculation-centric FSM parallelization on (simulated) GPUs.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * the **all-state lookback-2 predictor** producing ranked speculation
//!   queues (§IV-A, [`predict`]);
//! * the device-resident **transition table** in both layouts — the paper's
//!   frequency-transformed layout and PM's hash-table layout (§IV-B,
//!   [`table`]);
//! * the hierarchical **verification-record storage** with a register budget
//!   for records received from other threads (§IV-C Fig 5, [`records`]);
//! * the four **parallel schemes** — PM (parallel merge, spec-k), SRE
//!   (speculative recovery from predecessor end states, Algorithm 3), RR
//!   (round-robin aggressive recovery, Algorithm 4) and NF (nearest-first,
//!   Algorithm 5) — plus sequential, naive-speculative (Algorithm 2) and
//!   SFA mapping references ([`schemes`]);
//! * the **decision-tree scheme selector** (§IV-D Fig 6, [`selector`]);
//! * the **latency-sensitive framework** tying profiling, transformation,
//!   selection and execution together ([`framework`]);
//! * a **multicore reference engine** on real threads ([`cpu`]) and the
//!   §III-C analytical cost model ([`analysis`]).
//!
//! Every scheme runs on the deterministic SIMT simulator from
//! `gspecpal-gpu`, producing both the *exact same answer* as a sequential
//! run (property-tested) and a cycle-accurate cost breakdown that reproduces
//! the paper's figures.

#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod cpu;
pub mod error;
pub mod framework;
pub mod nfa_engine;
pub mod partition;
pub mod predict;
pub mod records;
pub mod recovery;
pub mod run;
pub mod schemes;
pub mod selector;
pub mod specq;
pub mod table;
pub mod throughput;

pub use config::{SchemeConfig, StitchPolicy};
pub use error::CoreError;
pub use framework::{FrameworkReport, GSpecPal};
pub use gspecpal_gpu::{FaultDomain, FaultPlan};
pub use recovery::RecoveryConfig;
pub use run::{RunOutcome, SchemeKind};
pub use schemes::{run_scheme, Job};
pub use selector::{ScoredChoice, Selector, SelectorProfile, SPEC_K_GRID};
