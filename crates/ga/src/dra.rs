//! Disk Resident Arrays: named multi-dimensional arrays on simulated
//! disks, striped uniformly across one local disk per process.
//!
//! [`DraRuntime::create`] and [`DraRuntime::handle`] resolve an array
//! name once into an [`ArrayHandle`]; the transfers and the `fill` /
//! `snapshot` / `dims` calls take the handle, so a transfer does no name
//! lookup, locking or reference counting beyond its own disk's
//! accounting.
//!
//! The runtime keeps each materialized array's contents in a
//! [`GlobalArray`] of its own; the local [`SimDisk`]s store no data and
//! only charge the transfers: each rank `1/P` of the elements ([`chunk`])
//! on its local disk. `read_section` / `write_section` move data and are
//! *collective*: every rank calls them with the same arguments from its
//! own thread, charges its share through the disk's lock, and rank 0
//! copies the section. Callers must separate collective I/O from
//! computation with barriers — the executor's full run does.
//! `charge_read` / `charge_write` take `&mut self` and charge one rank's
//! share with no section, data or lock (a dry run's accounting walk).
//! Both run the same retry loop and booking, so they book the same bits.
//! [`DraRuntime::book`] books every rank's share of one transfer in one
//! call, with no fault check or retry: on a runtime that is not
//! [armed](DraRuntime::is_armed), where no disk can fail, it books what
//! the ranks' `charge_*` calls would. Every path ends in the disks' one
//! booking function.
//!
//! # Fault tolerance
//!
//! With a [`RetryPolicy`] installed ([`DraRuntime::set_retry`]), each
//! rank transparently re-attempts its local-disk share of a collective
//! operation when the disk reports a *transient* injected fault, waiting
//! out an exponential backoff (with seeded jitter) in **simulated
//! seconds** between attempts — charged to that rank's disk accounting,
//! so the elapsed-time model stays honest. Collective agreement is
//! reached at the caller's next barrier: transient faults are absorbed
//! rank-locally *before* the barrier, so surviving ranks never observe
//! them; an exhausted retry budget or a permanent fault surfaces as a
//! typed error, which the executor propagates by aborting the whole
//! process group at that same barrier. Either every rank proceeds past
//! the barrier or none does — collectives never diverge.

use crate::global::GlobalArray;
use crate::group::chunk;
use crate::section::Section;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::sync::Mutex;
use tce_disksim::lock::{get_mut, lock};
use tce_disksim::{DiskError, DiskProfile, FaultPlan, IoStats, SimDisk};

/// DRA operation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum DraError {
    /// Unknown array name.
    NoSuchArray(String),
    /// Section shape does not match the array rank or bounds.
    BadSection(String),
    /// Data access on a dry (accounting-only) array.
    NotMaterialized(String),
    /// Underlying simulated-disk failure, structure preserved so callers
    /// can tell transient injected faults from structural bugs.
    Disk(DiskError),
    /// A transient fault persisted through every allowed retry attempt.
    RetriesExhausted {
        /// Attempts made (= the policy's `max_attempts`).
        attempts: u32,
        /// The fault seen on the final attempt.
        last: DiskError,
    },
}

impl fmt::Display for DraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DraError::NoSuchArray(n) => write!(f, "no disk-resident array `{n}`"),
            DraError::BadSection(m) => write!(f, "bad section: {m}"),
            DraError::NotMaterialized(n) => {
                write!(f, "array `{n}` is dry (accounting-only)")
            }
            DraError::Disk(e) => write!(f, "disk error: {e}"),
            DraError::RetriesExhausted { attempts, last } => {
                write!(f, "disk error after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for DraError {}

impl From<DiskError> for DraError {
    fn from(e: DiskError) -> Self {
        DraError::Disk(e)
    }
}

impl DraError {
    /// True if the failure came from an injected disk fault (transient or
    /// permanent) rather than a structural bug in the caller.
    pub fn is_injected_fault(&self) -> bool {
        matches!(
            self,
            DraError::Disk(DiskError::Injected { .. }) | DraError::RetriesExhausted { .. }
        )
    }

    /// True if the failure is a *permanent* injected fault: the disk will
    /// keep failing until it is replaced.
    pub fn is_permanent_fault(&self) -> bool {
        matches!(
            self,
            DraError::Disk(DiskError::Injected {
                permanent: true,
                ..
            })
        )
    }
}

/// Bounded-retry policy for transient disk faults. Backoff is exponential
/// in *simulated* seconds with multiplicative jitter from a seeded RNG —
/// results carry no wall-clock dependence.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (`1` = never
    /// retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, simulated seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Upper bound on a single backoff wait.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a uniform
    /// factor from `[1 - jitter, 1 + jitter]` so retrying ranks
    /// decorrelate.
    pub jitter: f64,
    /// Seed of the jitter streams (one derived stream per rank).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.05,
            backoff_factor: 2.0,
            max_backoff_s: 5.0,
            jitter: 0.25,
            seed: 0x7ce,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given attempt budget and library defaults for
    /// the backoff shape.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }
}

/// A disk-resident array resolved once by name: what the section
/// transfers of the [`DraRuntime`] that handed it out take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayHandle(usize);

struct DraArray {
    name: String,
    dims: Vec<u64>,
    /// Real contents; `None` for dry (accounting-only) arrays.
    data: Option<GlobalArray>,
}

/// What a collective section write transfers.
pub enum SectionSrc<'a> {
    /// Copy from a section of a global array (same extents).
    From(&'a GlobalArray, &'a Section),
    /// Write zeros.
    Zeros,
}

/// The retry loop of one rank's share of a transfer, on a locked or an
/// exclusive disk: a transient fault of `attempt` is re-attempted under
/// `policy` after a backoff wait, scaled by a `jitter` draw in `[0, 1)`
/// and booked through `backoff` in simulated seconds.
fn retrying<D>(
    policy: Option<&RetryPolicy>,
    disk: &mut D,
    mut jitter: impl FnMut() -> f64,
    attempt: impl Fn(&mut D) -> Result<(), DiskError>,
    backoff: impl Fn(&mut D, f64),
) -> Result<(), DraError> {
    let Some(policy) = policy else {
        return attempt(disk).map_err(DraError::from);
    };
    let mut wait = policy.base_backoff_s;
    let mut tries = 1u32;
    loop {
        match attempt(disk) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient_fault() && tries < policy.max_attempts => {
                let scale = if policy.jitter > 0.0 {
                    1.0 + policy.jitter * (jitter() * 2.0 - 1.0)
                } else {
                    1.0
                };
                backoff(disk, (wait * scale).clamp(0.0, policy.max_backoff_s));
                wait = (wait * policy.backoff_factor).min(policy.max_backoff_s);
                tries += 1;
            }
            Err(e) if e.is_transient_fault() => {
                return Err(DraError::RetriesExhausted {
                    attempts: policy.max_attempts,
                    last: e,
                });
            }
            Err(e) => return Err(DraError::Disk(e)),
        }
    }
}

/// The disk-resident array runtime: one simulated local disk per process
/// plus the array directory.
pub struct DraRuntime {
    disks: Vec<SimDisk>,
    arrays: Vec<DraArray>,
    /// Retry policy for transient disk faults (`None` = fail fast).
    retry: Option<RetryPolicy>,
    /// Per-rank jitter streams (lock contention is nil: rank `r` is the
    /// only thread that touches stream `r`).
    jitter_rngs: Vec<Mutex<StdRng>>,
}

impl DraRuntime {
    /// Creates a runtime with `nproc` local disks of the given profile.
    pub fn new(nproc: usize, profile: DiskProfile) -> Self {
        assert!(nproc >= 1);
        DraRuntime {
            disks: (0..nproc).map(|_| SimDisk::new(profile.clone())).collect(),
            arrays: Vec::new(),
            retry: None,
            jitter_rngs: Vec::new(),
        }
    }

    /// Installs a retry policy for transient disk faults. One jitter
    /// stream per rank is derived from the policy seed, so backoff
    /// sequences are deterministic per rank and independent across ranks.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.jitter_rngs = (0..self.disks.len())
            .map(|r| {
                Mutex::new(StdRng::seed_from_u64(
                    policy.seed ^ (r as u64).wrapping_mul(0xD605_8871_5E55_C1E5),
                ))
            })
            .collect();
        self.retry = Some(policy);
    }

    /// Installs the fault schedules of `plan` on the local disks.
    /// Entries beyond the runtime's rank count are ignored.
    pub fn apply_fault_plan(&self, plan: &FaultPlan) {
        for (rank, disk) in self.disks.iter().enumerate() {
            disk.set_faults(plan.disk(rank), rank);
        }
    }

    /// Restores per-disk accounting from a checkpoint (rank order).
    /// Extra entries are ignored; missing ones leave the disk untouched.
    pub fn restore_stats(&self, per_rank: &[IoStats]) {
        for (disk, stats) in self.disks.iter().zip(per_rank) {
            disk.restore_stats(stats.clone());
        }
    }

    /// Charges `rank`'s share of a collective transfer of `len` elements
    /// to its local disk, through the disk's lock.
    fn local_op(&self, rank: usize, write: bool, label: &str, len: u64) -> Result<(), DraError> {
        let (start, end) = chunk(len, rank, self.nproc());
        if end == start {
            return Ok(());
        }
        retrying(
            self.retry.as_ref(),
            &mut &self.disks[rank],
            || lock(&self.jitter_rngs[rank]).random(),
            |d| {
                if write {
                    d.charge_write(label, end - start)
                } else {
                    d.charge_read(label, end - start)
                }
            },
            |d, wait| d.charge_retry(wait),
        )
    }

    /// Charges `rank`'s share of a read of `len` elements of `array` to
    /// its local disk, with no section, data or lock: the same fault
    /// check, retries and booking as [`DraRuntime::read_section`].
    #[inline]
    pub fn charge_read(
        &mut self,
        rank: usize,
        array: ArrayHandle,
        len: u64,
    ) -> Result<(), DraError> {
        self.charge(rank, array, false, len)
    }

    /// The write counterpart of [`DraRuntime::charge_read`].
    #[inline]
    pub fn charge_write(
        &mut self,
        rank: usize,
        array: ArrayHandle,
        len: u64,
    ) -> Result<(), DraError> {
        self.charge(rank, array, true, len)
    }

    #[inline]
    fn charge(
        &mut self,
        rank: usize,
        array: ArrayHandle,
        write: bool,
        len: u64,
    ) -> Result<(), DraError> {
        let label = match self.arrays.get(array.0) {
            Some(a) => a.name.as_str(),
            None => return Err(DraError::NoSuchArray(format!("#{}", array.0))),
        };
        let (start, end) = chunk(len, rank, self.disks.len());
        if end == start {
            return Ok(());
        }
        let rngs = &mut self.jitter_rngs;
        retrying(
            self.retry.as_ref(),
            &mut self.disks[rank],
            || get_mut(&mut rngs[rank]).random(),
            |d| {
                if write {
                    d.charge_write_mut(label, end - start)
                } else {
                    d.charge_read_mut(label, end - start)
                }
            },
            |d, wait| d.charge_retry_mut(wait),
        )
    }

    /// Books every rank's share of a transfer of `len` elements of
    /// `array`, in rank order, with no fault check or retry: the bits of
    /// each rank's [`DraRuntime::charge_read`] (or `charge_write` when
    /// `write`) on disks that are not [armed](DraRuntime::is_armed). One
    /// division per transfer splits `len` as [`chunk`] does. Fails only
    /// on a stale handle, and then books nothing.
    #[inline]
    pub fn book(&mut self, array: ArrayHandle, write: bool, len: u64) -> Result<(), DraError> {
        if array.0 >= self.arrays.len() {
            return Err(DraError::NoSuchArray(format!("#{}", array.0)));
        }
        let p = self.disks.len() as u64;
        let (base, rem) = if p == 1 { (len, 0) } else { (len / p, len % p) };
        for (r, disk) in self.disks.iter_mut().enumerate() {
            let share = base + u64::from((r as u64) < rem);
            // shares never grow with the rank: the rest are empty too
            if share == 0 {
                break;
            }
            disk.book_mut(write, share);
        }
        Ok(())
    }

    /// True if any local disk carries a fault schedule. Only
    /// [`DraRuntime::apply_fault_plan`] arms a disk, and an idle schedule
    /// leaves it unarmed.
    pub fn is_armed(&self) -> bool {
        self.disks.iter().any(SimDisk::is_armed)
    }

    /// Number of processes / local disks.
    pub fn nproc(&self) -> usize {
        self.disks.len()
    }

    /// Creates (or replaces) a disk-resident array and returns its handle
    /// (a replaced array keeps its handle). Only materialized arrays hold
    /// data; the local disks keep accounting, not files.
    pub fn create(&mut self, name: &str, dims: &[u64], materialize: bool) -> ArrayHandle {
        let array = DraArray {
            name: name.to_string(),
            dims: dims.to_vec(),
            data: materialize.then(|| GlobalArray::zeros(dims)),
        };
        match self.handle(name) {
            Ok(h) => {
                self.arrays[h.0] = array;
                h
            }
            Err(_) => {
                self.arrays.push(array);
                ArrayHandle(self.arrays.len() - 1)
            }
        }
    }

    /// The handle of a named array.
    pub fn handle(&self, name: &str) -> Result<ArrayHandle, DraError> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(ArrayHandle)
            .ok_or_else(|| DraError::NoSuchArray(name.to_string()))
    }

    /// Shape of the array.
    pub fn dims(&self, h: ArrayHandle) -> Result<&[u64], DraError> {
        self.array(h).map(|a| a.dims.as_slice())
    }

    fn array(&self, h: ArrayHandle) -> Result<&DraArray, DraError> {
        self.arrays
            .get(h.0)
            .ok_or_else(|| DraError::NoSuchArray(format!("#{}", h.0)))
    }

    /// Fills a materialized array by flat element index, without charging
    /// I/O (synthetic input loading).
    pub fn fill(&self, h: ArrayHandle, mut gen: impl FnMut(u64) -> f64) -> Result<(), DraError> {
        let data = Self::data(self.array(h)?)?;
        for k in 0..data.len() {
            data.set_flat(k, gen(k as u64));
        }
        Ok(())
    }

    fn check_section(a: &DraArray, sec: &Section) -> Result<(), DraError> {
        let name = &a.name;
        if sec.lo.len() != a.dims.len() {
            return Err(DraError::BadSection(format!(
                "rank {} section on rank-{} array `{name}`",
                sec.lo.len(),
                a.dims.len()
            )));
        }
        if sec.hi.iter().zip(&a.dims).any(|(h, d)| h > d) {
            return Err(DraError::BadSection(format!(
                "section {:?}..{:?} exceeds `{name}` dims {:?}",
                sec.lo, sec.hi, a.dims
            )));
        }
        Ok(())
    }

    /// The buffer side of a data transfer must match the array side.
    fn check_buffer(a: &DraArray, sec: &Section, buf_sec: &Section) -> Result<(), DraError> {
        if buf_sec.same_extents(sec) {
            return Ok(());
        }
        Err(DraError::BadSection(format!(
            "buffer section {:?}..{:?} does not match section {:?}..{:?} of `{}`",
            buf_sec.lo, buf_sec.hi, sec.lo, sec.hi, a.name
        )))
    }

    fn data(a: &DraArray) -> Result<&GlobalArray, DraError> {
        a.data
            .as_ref()
            .ok_or_else(|| DraError::NotMaterialized(a.name.clone()))
    }

    /// Collective section read into the buffer section `dst`. Every rank
    /// charges its share on its local disk; rank 0 copies the data.
    pub fn read_section(
        &self,
        rank: usize,
        array: ArrayHandle,
        sec: &Section,
        dst: (&GlobalArray, &Section),
    ) -> Result<(), DraError> {
        let a = self.array(array)?;
        Self::check_section(a, sec)?;
        self.local_op(rank, false, &a.name, sec.len())?;
        if rank == 0 {
            let (buf, buf_sec) = dst;
            let data = Self::data(a)?;
            Self::check_buffer(a, sec, buf_sec)?;
            buf.copy_section(buf_sec, data, sec);
        }
        Ok(())
    }

    /// Collective section write (see [`SectionSrc`]).
    pub fn write_section(
        &self,
        rank: usize,
        array: ArrayHandle,
        sec: &Section,
        src: SectionSrc<'_>,
    ) -> Result<(), DraError> {
        let a = self.array(array)?;
        Self::check_section(a, sec)?;
        self.local_op(rank, true, &a.name, sec.len())?;
        if rank == 0 {
            match src {
                SectionSrc::Zeros => {
                    if let Some(data) = &a.data {
                        data.zero_section(sec);
                    }
                }
                SectionSrc::From(buf, buf_sec) => {
                    let data = Self::data(a)?;
                    Self::check_buffer(a, sec, buf_sec)?;
                    data.copy_section(sec, buf, buf_sec);
                }
            }
        }
        Ok(())
    }

    /// Full contents of a materialized array (no I/O charged).
    pub fn snapshot(&self, h: ArrayHandle) -> Result<Vec<f64>, DraError> {
        Self::data(self.array(h)?).map(GlobalArray::to_vec)
    }

    /// Accounting per disk, rank order.
    pub fn stats_per_disk(&self) -> Vec<IoStats> {
        self.disks.iter().map(|d| d.stats()).collect()
    }

    /// Aggregate accounting across all disks.
    pub fn total_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for d in &self.disks {
            total.merge(&d.stats());
        }
        total
    }

    /// The parallel I/O time: disks work concurrently, so the simulated
    /// elapsed time is the maximum over the per-disk times.
    pub fn elapsed_io_time_s(&self) -> f64 {
        self.disks
            .iter()
            .map(|d| d.stats().total_time_s())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_parallel;

    fn rt(nproc: usize) -> DraRuntime {
        DraRuntime::new(nproc, DiskProfile::unconstrained_test())
    }

    #[test]
    fn create_and_fill() {
        let mut d = rt(1);
        let a = d.create("A", &[2, 3], true);
        d.fill(a, |k| k as f64).unwrap();
        assert_eq!(d.snapshot(a).unwrap(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.dims(a).unwrap(), [2, 3]);
        assert_eq!(d.handle("A"), Ok(a));
        assert!(d.handle("B").is_err());
        // replacing an array keeps its handle
        assert_eq!(d.create("A", &[4], false), a);
        assert_eq!(d.dims(a).unwrap(), [4]);
    }

    #[test]
    fn sequential_section_roundtrip() {
        let mut d = rt(1);
        let a = d.create("A", &[4, 4], true);
        d.fill(a, |k| k as f64).unwrap();
        let buf = GlobalArray::zeros(&[2, 2]);
        let sec = Section::new(vec![1, 2], vec![3, 4]);
        d.read_section(0, a, &sec, (&buf, &Section::full(&[2, 2])))
            .unwrap();
        assert_eq!(buf.to_vec(), vec![6.0, 7.0, 10.0, 11.0]);
        // write back doubled values
        let buf2 = GlobalArray::zeros(&[2, 2]);
        for (k, v) in [60.0, 70.0, 100.0, 110.0].into_iter().enumerate() {
            buf2.set_flat(k, v);
        }
        d.write_section(0, a, &sec, SectionSrc::From(&buf2, &Section::full(&[2, 2])))
            .unwrap();
        let snap = d.snapshot(a).unwrap();
        assert_eq!(snap[6], 60.0);
        assert_eq!(snap[11], 110.0);
    }

    #[test]
    fn collective_read_charges_every_disk() {
        let mut d = rt(4);
        let a = d.create("A", &[8, 8], false);
        for rank in 0..4 {
            d.charge_read(rank, a, 64).unwrap();
        }
        let per = d.stats_per_disk();
        assert_eq!(per.len(), 4);
        // 64 elements over 4 ranks → 16 each → 128 bytes each
        for s in &per {
            assert_eq!(s.read_bytes, 128);
            assert_eq!(s.read_ops, 1);
        }
        assert_eq!(d.total_stats().read_bytes, 512);
        assert!(d.elapsed_io_time_s() > 0.0);
        // elapsed = max over disks, not sum
        assert!(d.elapsed_io_time_s() < d.total_stats().total_time_s());
    }

    #[test]
    fn zero_write_clears_section() {
        let mut d = rt(1);
        let a = d.create("A", &[4], true);
        d.fill(a, |_| 1.0).unwrap();
        d.write_section(0, a, &Section::new(vec![1], vec![3]), SectionSrc::Zeros)
            .unwrap();
        assert_eq!(d.snapshot(a).unwrap(), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn errors_are_reported() {
        let mut d = rt(1);
        assert!(matches!(
            d.handle("X").unwrap_err(),
            DraError::NoSuchArray(_)
        ));
        let a = d.create("A", &[2, 2], false);
        // a handle past this runtime's arrays is refused, not misread
        let mut other = rt(1);
        other.create("Y", &[1], false);
        let stale = other.create("Z", &[1], false);
        assert!(matches!(
            d.charge_read(0, stale, 1).unwrap_err(),
            DraError::NoSuchArray(_)
        ));
        let buf = GlobalArray::zeros(&[2, 2]);
        let whole = Section::full(&[2, 2]);
        assert!(matches!(
            d.read_section(0, stale, &Section::full(&[1]), (&buf, &whole))
                .unwrap_err(),
            DraError::NoSuchArray(_)
        ));
        assert!(matches!(
            d.read_section(0, a, &Section::full(&[4]), (&buf, &whole))
                .unwrap_err(),
            DraError::BadSection(_)
        ));
        assert!(matches!(
            d.snapshot(a).unwrap_err(),
            DraError::NotMaterialized(_)
        ));
        assert!(matches!(
            d.fill(stale, |_| 0.0).unwrap_err(),
            DraError::NoSuchArray(_)
        ));
        assert!(matches!(
            d.read_section(0, a, &whole, (&buf, &whole)).unwrap_err(),
            DraError::NotMaterialized(_)
        ));
        // oversized section
        let b = d.create("B", &[2, 2], true);
        assert!(matches!(
            d.read_section(0, b, &Section::new(vec![0, 0], vec![3, 2]), (&buf, &whole))
                .unwrap_err(),
            DraError::BadSection(_)
        ));
        // a buffer section of another shape
        assert!(matches!(
            d.read_section(0, b, &whole, (&buf, &Section::new(vec![0, 0], vec![1, 2])))
                .unwrap_err(),
            DraError::BadSection(_)
        ));
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        use tce_disksim::FaultPlan;
        let mut d = rt(1);
        d.set_retry(RetryPolicy::with_attempts(4));
        let a = d.create("A", &[8], true);
        d.fill(a, |k| k as f64).unwrap();
        // 2 consecutive transient failures after 1 good op
        d.apply_fault_plan(&FaultPlan::transient_after(0, 1, 2));
        d.charge_read(0, a, 8).unwrap();
        let buf = GlobalArray::zeros(&[8]);
        d.read_section(0, a, &Section::full(&[8]), (&buf, &Section::full(&[8])))
            .unwrap();
        assert_eq!(buf.to_vec()[7], 7.0);
        let s = d.total_stats();
        assert_eq!(s.retried_ops, 2);
        assert_eq!(s.faulted_ops, 2);
        assert!(s.backoff_time_s > 0.0);
        // both collective reads eventually succeeded
        assert_eq!(s.read_ops, 2);
    }

    #[test]
    fn retries_exhaust_into_typed_error() {
        use tce_disksim::FaultPlan;
        let mut d = rt(1);
        d.set_retry(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        let a = d.create("A", &[8], false);
        // 10 consecutive transient failures swamp the 3-attempt budget
        d.apply_fault_plan(&FaultPlan::transient_after(0, 0, 10));
        let err = d.charge_read(0, a, 8).unwrap_err();
        assert!(
            matches!(err, DraError::RetriesExhausted { attempts: 3, .. }),
            "{err}"
        );
        assert!(err.is_injected_fault());
        assert!(!err.is_permanent_fault());
        assert_eq!(d.total_stats().retried_ops, 2);
    }

    #[test]
    fn permanent_fault_is_not_retried() {
        use tce_disksim::FaultPlan;
        let mut d = rt(1);
        d.set_retry(RetryPolicy::with_attempts(5));
        let a = d.create("A", &[8], false);
        d.apply_fault_plan(&FaultPlan::permanent_after(0, 0));
        let err = d.charge_read(0, a, 8).unwrap_err();
        assert!(err.is_permanent_fault(), "{err}");
        // no attempts were wasted on a dead disk
        assert_eq!(d.total_stats().retried_ops, 0);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        use tce_disksim::{DiskFaultKind, DiskFaults, FaultPlan, Schedule};
        let run = |seed: u64| -> f64 {
            let mut d = rt(2);
            d.set_retry(RetryPolicy {
                seed,
                ..RetryPolicy::default()
            });
            let a = d.create("A", &[64], false);
            d.apply_fault_plan(&FaultPlan::none().with_seed(99).with_disk(
                1,
                DiskFaults {
                    schedule: Schedule::none().probabilistic(0.5, DiskFaultKind::Transient),
                    ..DiskFaults::default()
                },
            ));
            for rank in 0..2 {
                for _ in 0..20 {
                    let _ = d.charge_read(rank, a, 64);
                }
            }
            d.total_stats().backoff_time_s
        };
        let a = run(5);
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), run(5).to_bits());
        assert_ne!(a.to_bits(), run(6).to_bits());
    }

    #[test]
    fn dry_transfers_charge_without_data() {
        let mut d = rt(2);
        let a = d.create("A", &[10], false);
        for rank in 0..2 {
            d.charge_write(rank, a, 10).unwrap();
        }
        assert_eq!(d.total_stats().write_bytes, 80);
    }

    #[test]
    fn bookings_book_like_every_ranks_charges() {
        use tce_disksim::{DiskFaults, FaultPlan};
        for nproc in 1..=4 {
            let (mut charged, mut booked) = (rt(nproc), rt(nproc));
            let a = charged.create("A", &[64], false);
            assert_eq!(booked.create("A", &[64], false), a);
            // an idle plan arms nothing; with retries the charges still
            // cannot fail
            charged.set_retry(RetryPolicy::with_attempts(3));
            booked.apply_fault_plan(&FaultPlan::none().with_disk(nproc - 1, DiskFaults::default()));
            assert!(!booked.is_armed());
            for k in 0..200u64 {
                let (write, len) = (k % 3 == 0, k % 9 + k % 2 * 61);
                for rank in 0..nproc {
                    if write {
                        charged.charge_write(rank, a, len).unwrap();
                    } else {
                        charged.charge_read(rank, a, len).unwrap();
                    }
                }
                booked.book(a, write, len).unwrap();
            }
            assert_eq!(charged.stats_per_disk(), booked.stats_per_disk());
            assert_eq!(
                charged.elapsed_io_time_s().to_bits(),
                booked.elapsed_io_time_s().to_bits()
            );
            // a stale handle fails and books nothing
            let mut other = rt(1);
            other.create("Y", &[1], false);
            let stale = other.create("Z", &[1], false);
            let before = booked.stats_per_disk();
            assert!(matches!(
                booked.book(stale, false, 5).unwrap_err(),
                DraError::NoSuchArray(_)
            ));
            assert_eq!(booked.stats_per_disk(), before);
            // any schedule that is not idle arms the runtime
            booked.apply_fault_plan(&FaultPlan::permanent_after(nproc - 1, u64::MAX));
            assert!(booked.is_armed());
        }
    }

    #[test]
    fn charges_book_like_collective_transfers() {
        use tce_disksim::{DiskFaultKind, DiskFaults, FaultPlan, Schedule};
        // the same transfers on three faulty, retrying disks: once as
        // collective section transfers, once as exclusive charges
        let setup = |materialize: bool| {
            let mut d = DraRuntime::new(3, DiskProfile::itanium2_osc());
            d.set_retry(RetryPolicy::with_attempts(6));
            let a = d.create("A", &[9, 7], materialize);
            let faults = DiskFaults {
                schedule: Schedule::none().probabilistic(0.1, DiskFaultKind::Transient),
                p_spike: 0.05,
                spike_s: 0.25,
            };
            d.apply_fault_plan(
                &FaultPlan::transient_after(1, 5, 3)
                    .with_seed(11)
                    .with_disk(2, faults),
            );
            (d, a)
        };
        let sections: Vec<Section> = (0..60u64)
            .map(|k| Section::new(vec![k % 4, 0], vec![k % 4 + 1 + k % 5, 1 + k % 7]))
            .collect();
        let (shared, a) = setup(true);
        let buf = GlobalArray::zeros(&[9, 7]);
        run_parallel(3, |ctx| {
            for (k, sec) in sections.iter().enumerate() {
                let buf_sec = Section::new(
                    vec![0, 0],
                    sec.hi.iter().zip(&sec.lo).map(|(h, l)| h - l).collect(),
                );
                if k % 3 == 0 {
                    shared.write_section(ctx.rank, a, sec, SectionSrc::From(&buf, &buf_sec))
                } else {
                    shared.read_section(ctx.rank, a, sec, (&buf, &buf_sec))
                }
                .unwrap();
            }
        });
        let (mut excl, a) = setup(false);
        for (k, sec) in sections.iter().enumerate() {
            for rank in 0..3 {
                if k % 3 == 0 {
                    excl.charge_write(rank, a, sec.len())
                } else {
                    excl.charge_read(rank, a, sec.len())
                }
                .unwrap();
            }
        }
        let want = shared.stats_per_disk();
        assert!(want.iter().map(|s| s.retried_ops).sum::<u64>() > 3);
        assert_eq!(want, excl.stats_per_disk());
        assert_eq!(
            shared.elapsed_io_time_s().to_bits(),
            excl.elapsed_io_time_s().to_bits()
        );
    }
}
