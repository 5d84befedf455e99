//! Concrete-plan execution.
//!
//! Interprets the plans produced by `tce-codegen` against the GA/DRA
//! substrate:
//!
//! * [`ExecMode::Full`] — real data: disk-resident arrays are
//!   materialized, input tensors filled with synthetic values, kernels
//!   executed, and the outputs can be compared against the dense
//!   reference evaluator ([`mod@reference`]). Used at test scale.
//! * [`ExecMode::DryRun`] — accounting only: an accounting walk over the
//!   same loops charges the same transfers to the same disks, in the same
//!   order, but builds no section, moves no data, takes no lock and skips
//!   the kernels. This is how the paper-size experiments (arrays of
//!   multiple GB) are "measured" on the simulated disks.
//!
//! Both modes run sequentially or on `P` simulated processes, and every
//! rank moves `1/P` of each transfer through its local disk (Table 4's
//! setup). A full run walks the plan on one thread per rank, with
//! collective section transfers and barriers. Kernels are
//! owner-computes: the ranks split a band index that the destination
//! carries, so every destination element is updated by one rank in the
//! sequential order, and outputs are bit-identical at every process
//! count. A dry run walks the plan once on the calling thread and charges
//! each rank's share in rank order; per disk it books the same bits as a
//! full run.
//!
//! Each run lowers its plan once into a slot-addressed op tree (resolved
//! tiles, windows, DRA array handles and kernel strides) that the walkers
//! share read-only. Lowering also validates the plan for both modes, so a
//! malformed plan fails the same way in either, before any disk is
//! charged.

#![warn(missing_docs)]

mod dry;
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
