//! Checkpoint/restart and per-run resilience accounting.
//!
//! The executor can snapshot a running plan at *tile granularity*: after
//! every completed outer tiling-loop iteration and after every top-level
//! operation, all ranks synchronize and rank 0 captures a consistent
//! [`Checkpoint`] — the full contents of every disk-resident array, every
//! in-memory buffer, the per-rank I/O accounting, and the flop counter.
//! A later run started with `ExecOptions::resume_from` restores that state
//! and re-enters the plan at the recorded [`CheckpointSite`], producing
//! bit-identical outputs and (up to retry/fault overhead) identical
//! accounting to an uninterrupted run.
//!
//! Checkpoints are tied to the exact plan and process count through a
//! structural fingerprint; resuming against a different plan is a typed
//! error, never silent corruption.

use std::fmt;
use tce_disksim::IoStats;

/// A position between atomic units of a plan: top-level operation
/// boundaries and outer tiling-loop iteration boundaries. Ordered by
/// progress (later sites compare greater).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CheckpointSite {
    /// Index of the top-level op where execution (re)starts.
    pub top_op: usize,
    /// Completed outer iterations of the tiling loop at `top_op`
    /// (`0` when that op has not started).
    pub iters: u64,
}

impl CheckpointSite {
    /// The beginning of the plan.
    pub(crate) const START: CheckpointSite = CheckpointSite {
        top_op: 0,
        iters: 0,
    };
}

impl fmt::Display for CheckpointSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}/iter {}", self.top_op, self.iters)
    }
}

/// A consistent snapshot of an executing plan, captured collectively at a
/// [`CheckpointSite`]. Opaque to callers: hand it back via
/// `ExecOptions::resume_from`.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Structural fingerprint of the plan + process count the snapshot
    /// belongs to; resume refuses a mismatch.
    pub(crate) plan_fingerprint: u64,
    /// Where execution resumes.
    pub site: CheckpointSite,
    /// Full contents of every disk-resident array, by name.
    pub(crate) disk: Vec<(String, Vec<f64>)>,
    /// Contents of every in-memory buffer, in declaration order.
    pub(crate) buffers: Vec<Vec<f64>>,
    /// Per-rank disk accounting at the capture point.
    pub(crate) per_rank: Vec<IoStats>,
    /// Multiply-add counter at the capture point.
    pub(crate) flops: u64,
}

/// Per-run resilience accounting, reported alongside the I/O stats.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Disk operations that failed with an injected fault.
    pub faults_injected: u64,
    /// Retry attempts charged by the DRA retry layer.
    pub retries: u64,
    /// Simulated seconds lost to faulted operations and latency spikes.
    pub fault_time_s: f64,
    /// Simulated seconds spent waiting out retry backoff.
    pub backoff_time_s: f64,
    /// Checkpoints captured during this run.
    pub checkpoints: u64,
    /// Site this run resumed from, if it was a restart leg.
    pub resumed_from: Option<CheckpointSite>,
    /// Extra execution legs taken beyond the first (set by
    /// `run_to_completion`).
    pub resume_legs: u32,
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults {}, retries {}, fault time {:.3}s, backoff {:.3}s, checkpoints {}",
            self.faults_injected,
            self.retries,
            self.fault_time_s,
            self.backoff_time_s,
            self.checkpoints
        )?;
        if let Some(site) = &self.resumed_from {
            write!(f, ", resumed from {site}")?;
        }
        if self.resume_legs > 0 {
            write!(f, ", {} resume leg(s)", self.resume_legs)?;
        }
        Ok(())
    }
}

/// FNV-1a accumulator for the plan fingerprint, fed by the lowering walk.
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent names cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.eat(s.as_bytes());
    }
}
