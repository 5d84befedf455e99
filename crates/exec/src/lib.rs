//! Concrete-plan execution.
//!
//! Interprets the plans produced by `tce-codegen` against the GA/DRA
//! substrate:
//!
//! * [`ExecMode::Full`] — real data: disk-resident arrays are
//!   materialized, input tensors filled with synthetic values, kernels
//!   executed, and the outputs can be compared against the dense
//!   reference evaluator ([`mod@reference`]). Used at test scale.
//! * [`ExecMode::DryRun`] — accounting only: the interpreter walks the
//!   same loop structure and issues the same DRA transfers, but moves no
//!   data and skips the kernels. This is how the paper-size experiments
//!   (arrays of multiple GB) are "measured" on the simulated disks.
//!
//! Both modes run sequentially or on `P` simulated processes; in the
//! parallel case every rank moves `1/P` of each collective transfer
//! through its local disk (Table 4's setup). Kernels are owner-computes:
//! the ranks split a band index that the destination carries, so every
//! destination element is updated by one rank in the sequential order,
//! and outputs are bit-identical at every process count.
//!
//! Each run lowers its plan once into a slot-addressed op tree (resolved
//! tiles, windows, DRA array handles and kernel strides) that the ranks
//! share read-only.

#![warn(missing_docs)]

pub mod interp;
mod lower;
pub mod reference;
pub mod resilience;

pub use interp::{
    execute, execute_resilient, run_to_completion, ExecError, ExecMode, ExecOptions, ExecOutcome,
    ExecReport,
};
pub use reference::dense_reference;
pub use resilience::{Checkpoint, CheckpointSite, ResilienceReport};
// re-exported so executor callers can configure resilience without
// depending on the substrate crates directly
pub use tce_disksim::{DiskFaultKind, DiskFaults, FaultPlan};
pub use tce_ga::RetryPolicy;
