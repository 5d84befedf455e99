//! Global-Arrays / Disk-Resident-Arrays substrate.
//!
//! The paper's generated parallel code targets the GA/DRA libraries
//! (Nieplocha et al.): *global arrays* give a shared-memory view of
//! distributed in-memory data, and *disk resident arrays* extend the model
//! to secondary storage, with collective `read/write section` operations.
//! This crate provides the same abstractions over simulated hardware:
//!
//! * [`GlobalArray`] — a dense multi-dimensional `f64` array shared by
//!   all simulated processes (standing in for GA's distributed shared
//!   memory; the aggregate-memory accounting lives in the executor).
//!   Plain relaxed loads and stores: the executor gives every element one
//!   writer per phase, so nothing needs an atomic read-modify-write.
//!   Every section copy ([`GlobalArray::copy_section`],
//!   [`GlobalArray::zero_section`]) runs on one bounds-checked section
//!   walker.
//! * [`DraRuntime`] — named disk-resident arrays striped uniformly across
//!   one [`tce_disksim::SimDisk`] per process, resolved once into an
//!   [`ArrayHandle`]. An array's contents live in a global array of the
//!   runtime; the disks store nothing and charge the transfers.
//!   Every transfer charges each rank `1/P` of the bytes on its local
//!   disk, which is exactly why Table 4's I/O time scales superlinearly
//!   when doubling the processor count doubles both the disks and the
//!   aggregate memory. `read_section` / `write_section` move data and are
//!   collective; `charge_read` / `charge_write` charge one rank's share
//!   through `&mut` access, with no section or lock (dry runs).
//! * [`run_parallel`] / [`ProcCtx`] — scoped worker threads with barrier
//!   synchronization standing in for the cluster processes.

#![warn(missing_docs)]

pub mod dra;
pub mod global;
pub mod group;
pub mod section;

pub use dra::{ArrayHandle, DraError, DraRuntime, RetryPolicy, SectionSrc};
pub use global::GlobalArray;
pub use group::{chunk, run_parallel, ProcCtx};
pub use section::{strides, Section};
