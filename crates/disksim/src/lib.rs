//! Parametric disk model and simulated block devices.
//!
//! The paper measures disk-I/O time on the OSC Itanium-2 cluster (Table 1)
//! and constrains the generated code's I/O blocks to at least 2 MB for
//! reads and 1 MB for writes so that seek time is negligible against
//! transfer time (their tech report \[37\]). We reproduce that environment
//! with a [`DiskProfile`] — seek latency, sustained read/write bandwidth,
//! minimum block sizes — and a [`SimDisk`] that executes reads/writes
//! against it, charging simulated seconds and tracking exact byte/op
//! counts.
//!
//! A `SimDisk` can *materialize* files (hold real `f64` data, used by the
//! full executor at test scale) or keep them *dry* (length-only, used by
//! the paper-size dry runs where a single tensor is gigabytes).

#![warn(missing_docs)]

pub mod fault;
pub mod lock;
pub mod profile;
pub mod sim;

pub use fault::{DiskFaultKind, DiskFaults, FaultKind, FaultPlan, Injected, Injector, Schedule};
pub use profile::{DiskProfile, IoStats};
pub use sim::{DiskError, SimDisk, WriteSrc};
