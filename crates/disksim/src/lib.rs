//! Parametric disk model and simulated block devices.
//!
//! The paper measures disk-I/O time on the OSC Itanium-2 cluster (Table 1)
//! and constrains the generated code's I/O blocks to at least 2 MB for
//! reads and 1 MB for writes so that seek time is negligible against
//! transfer time (their tech report \[37\]). We reproduce that environment
//! with a [`DiskProfile`] — seek latency, sustained read/write bandwidth,
//! minimum block sizes — and a [`SimDisk`] that charges each transfer
//! against it, in simulated seconds and exact byte/op counts, under a
//! seeded fault schedule.
//!
//! A `SimDisk` is an accounting-and-fault device: it stores no data. The
//! callers own the contents — `tce-ga`'s disk-resident arrays hold theirs
//! in global arrays (none at all in paper-size dry runs, where a single
//! tensor is gigabytes), `tce-trans` works on caller-owned matrices — and
//! book every transfer through [`SimDisk::charge_read`] /
//! [`SimDisk::charge_write`], or, with exclusive access and no lock,
//! through [`SimDisk::charge_read_mut`] / [`SimDisk::charge_write_mut`],
//! which book the same bits.

#![warn(missing_docs)]

pub mod fault;
pub mod lock;
pub mod profile;
pub mod sim;

pub use fault::{DiskFaultKind, DiskFaults, FaultKind, FaultPlan, Injected, Injector, Schedule};
pub use profile::{DiskProfile, IoStats};
pub use sim::{DiskError, SimDisk};
