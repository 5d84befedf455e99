//! The simulated block device.

use crate::fault::{DiskFaultKind, DiskFaults, FaultKind, FaultState};
use crate::lock::{get_mut, lock};
use crate::profile::{DiskProfile, IoStats};
use std::fmt;
use std::sync::Mutex;

/// Disk operation failure: the device moves no data, so the only way an
/// operation fails is an injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// An injected fault fired (see [`SimDisk::set_faults`]).
    Injected {
        /// Description of the failed operation (e.g. ``read `A` ``).
        op: String,
        /// Permanent faults never clear; transient ones may succeed on
        /// retry.
        permanent: bool,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Injected { op, permanent } => {
                let kind = if *permanent { "permanent" } else { "transient" };
                write!(f, "injected {kind} disk fault on {op}")
            }
        }
    }
}

impl DiskError {
    /// True for injected faults that may clear on their own — the only
    /// errors a retry layer should spend attempts on.
    pub fn is_transient_fault(&self) -> bool {
        matches!(
            self,
            DiskError::Injected {
                permanent: false,
                ..
            }
        )
    }
}

impl std::error::Error for DiskError {}

struct DiskInner {
    stats: IoStats,
    /// Live fault stream plus the latency spike `(p_spike, spike_s)`
    /// (`None` = fault-free disk).
    fault: Option<(FaultState<DiskFaultKind>, (f64, f64))>,
}

impl DiskInner {
    /// Runs the fault model for one operation attempt on `op`. Failed
    /// attempts charge the seek they wasted to `fault_time_s`; latency
    /// spikes of surviving ops are charged there too.
    #[inline]
    fn fault_check(&mut self, seek_s: f64, op: impl Fn() -> String) -> Result<(), DiskError> {
        let Some((st, (p_spike, spike_s))) = self.fault.as_mut() else {
            return Ok(());
        };
        match st.decide() {
            None => {
                if st.draw(*p_spike) {
                    self.stats.fault_time_s += *spike_s;
                }
                Ok(())
            }
            Some(kind) => {
                self.stats.faulted_ops += 1;
                self.stats.fault_time_s += seek_s;
                Err(DiskError::Injected {
                    op: op(),
                    permanent: kind.latches(),
                })
            }
        }
    }

    /// Charges one transfer attempt of `len` elements: the fault model
    /// decides it, and a surviving one is booked.
    #[inline]
    fn charge(
        &mut self,
        profile: &DiskProfile,
        write: bool,
        label: &str,
        len: u64,
    ) -> Result<(), DiskError> {
        let dir = if write { "write" } else { "read" };
        self.fault_check(profile.seek_s, || format!("{dir} `{label}`"))?;
        self.book(profile, write, len);
        Ok(())
    }

    /// Books one transfer of `len` elements: its bytes, its op and its
    /// seek-plus-transfer time. Every charge call of [`SimDisk`] (locked,
    /// exclusive, and the infallible [`SimDisk::book_mut`]) ends here, so
    /// they cannot book differently.
    #[inline]
    fn book(&mut self, profile: &DiskProfile, write: bool, len: u64) {
        let bytes = len * ELEM_BYTES;
        let s = &mut self.stats;
        if write {
            s.write_bytes += bytes;
            s.write_ops += 1;
            s.write_time_s += profile.write_time(bytes);
        } else {
            s.read_bytes += bytes;
            s.read_ops += 1;
            s.read_time_s += profile.read_time(bytes);
        }
    }

    /// Books one retry's backoff wait.
    fn retry(&mut self, backoff_s: f64) {
        self.stats.retried_ops += 1;
        self.stats.backoff_time_s += backoff_s;
    }
}

/// A simulated local disk: an I/O cost model, a seeded fault stream and
/// exact accounting. It holds no data — callers keep their own contents
/// and book each transfer here. Thread-safe; one instance per simulated
/// processor in the parallel executor.
pub struct SimDisk {
    profile: DiskProfile,
    inner: Mutex<DiskInner>,
}

/// Size of one element in bytes (double precision).
pub const ELEM_BYTES: u64 = 8;

impl SimDisk {
    /// Creates an empty disk with the given performance profile.
    pub fn new(profile: DiskProfile) -> Self {
        SimDisk {
            profile,
            inner: Mutex::new(DiskInner {
                stats: IoStats::default(),
                fault: None,
            }),
        }
    }

    /// The disk's performance profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Installs the fault schedule of stream `rank` (see
    /// [`crate::FaultPlan::disk`]); an idle schedule clears any fault
    /// ("replaces the disk").
    pub fn set_faults(&self, spec: DiskFaults, rank: usize) {
        lock(&self.inner).fault =
            (!spec.is_idle()).then(|| (spec.schedule.state(rank), (spec.p_spike, spec.spike_s)));
    }

    /// Charges one retry: the backoff wait spent before re-attempting an
    /// operation on this disk, in simulated seconds.
    pub fn charge_retry(&self, backoff_s: f64) {
        lock(&self.inner).retry(backoff_s);
    }

    /// Replaces the accounting wholesale (checkpoint restore).
    pub fn restore_stats(&self, stats: IoStats) {
        lock(&self.inner).stats = stats;
    }

    /// Charges one read of `len` elements as one I/O operation: the fault
    /// model decides the attempt, and a surviving one books its bytes and
    /// its seek-plus-transfer time. `label` names the transfer in an
    /// injected-fault error.
    pub fn charge_read(&self, label: &str, len: u64) -> Result<(), DiskError> {
        lock(&self.inner).charge(&self.profile, false, label, len)
    }

    /// The write counterpart of [`SimDisk::charge_read`].
    pub fn charge_write(&self, label: &str, len: u64) -> Result<(), DiskError> {
        lock(&self.inner).charge(&self.profile, true, label, len)
    }

    /// [`SimDisk::charge_read`] through exclusive access: no lock taken.
    #[inline]
    pub fn charge_read_mut(&mut self, label: &str, len: u64) -> Result<(), DiskError> {
        get_mut(&mut self.inner).charge(&self.profile, false, label, len)
    }

    /// [`SimDisk::charge_write`] through exclusive access.
    #[inline]
    pub fn charge_write_mut(&mut self, label: &str, len: u64) -> Result<(), DiskError> {
        get_mut(&mut self.inner).charge(&self.profile, true, label, len)
    }

    /// Books one transfer of `len` elements through exclusive access,
    /// with no fault model: the bits a surviving
    /// [`SimDisk::charge_write_mut`] (`write`) or
    /// [`SimDisk::charge_read_mut`] books. Only for a disk that is not
    /// [armed](SimDisk::is_armed), where no charge can fail.
    #[inline]
    pub fn book_mut(&mut self, write: bool, len: u64) {
        let inner = get_mut(&mut self.inner);
        debug_assert!(inner.fault.is_none(), "booking on an armed disk");
        inner.book(&self.profile, write, len);
    }

    /// True if a fault schedule is installed: [`SimDisk::set_faults`]
    /// with a schedule that is not idle arms the disk, an idle one
    /// disarms it.
    pub fn is_armed(&self) -> bool {
        lock(&self.inner).fault.is_some()
    }

    /// [`SimDisk::charge_retry`] through exclusive access.
    pub fn charge_retry_mut(&mut self, backoff_s: f64) {
        get_mut(&mut self.inner).retry(backoff_s);
    }

    /// Current accounting.
    pub fn stats(&self) -> IoStats {
        lock(&self.inner).stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn disk() -> SimDisk {
        SimDisk::new(DiskProfile {
            seek_s: 0.01,
            read_bw: 800.0, // 100 elements/s
            write_bw: 400.0,
            min_read_block: 0,
            min_write_block: 0,
        })
    }

    #[test]
    fn accounting_matches_model() {
        let d = disk();
        d.charge_read("A", 50).unwrap();
        d.charge_write("A", 25).unwrap();
        let s = d.stats();
        assert_eq!(s.read_bytes, 400);
        assert_eq!(s.write_bytes, 200);
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.write_ops, 1);
        assert!((s.read_time_s - (0.01 + 400.0 / 800.0)).abs() < 1e-12);
        assert!((s.write_time_s - (0.01 + 200.0 / 400.0)).abs() < 1e-12);
        d.restore_stats(IoStats::default());
        assert_eq!(d.stats().total_ops(), 0);
    }

    #[test]
    fn charges_book_exactly_like_dry_transfers() {
        // every charge, empty ones too, is one op that pays a seek
        let d = disk();
        let lens = [50u64, 7, 0, 93];
        for len in lens {
            d.charge_read("A", len).unwrap();
            d.charge_write("A", len).unwrap();
        }
        let s = d.stats();
        let elems: u64 = lens.iter().sum();
        assert_eq!((s.read_ops, s.write_ops), (4, 4));
        assert_eq!((s.read_bytes, s.write_bytes), (8 * elems, 8 * elems));
        assert!((s.read_time_s - (4.0 * 0.01 + (8 * elems) as f64 / 800.0)).abs() < 1e-12);
        assert!((s.write_time_s - (4.0 * 0.01 + (8 * elems) as f64 / 400.0)).abs() < 1e-12);
        // the fault model sees every charge as one operation
        d.set_faults(FaultPlan::permanent_after(0, 1).disk(0), 0);
        d.charge_read("A", 1).unwrap();
        let err = d.charge_write("A", 1).unwrap_err();
        assert!(
            matches!(&err, DiskError::Injected { op, permanent: true } if op == "write `A`"),
            "{err}"
        );
    }

    #[test]
    fn exclusive_charges_book_like_locked_ones() {
        use crate::{DiskFaultKind, Schedule};
        let spec = DiskFaults {
            schedule: Schedule::none().probabilistic(0.2, DiskFaultKind::Transient),
            p_spike: 0.1,
            spike_s: 0.3,
        };
        let plan = FaultPlan::none().with_seed(5).with_disk(0, spec);
        let (shared, mut excl) = (disk(), disk());
        shared.set_faults(plan.disk(0), 0);
        excl.set_faults(plan.disk(0), 0);
        for k in 0..200u64 {
            let len = k % 37;
            let (a, b) = if k % 3 == 0 {
                (
                    shared.charge_write("A", len),
                    excl.charge_write_mut("A", len),
                )
            } else {
                (shared.charge_read("A", len), excl.charge_read_mut("A", len))
            };
            if a.is_err() {
                shared.charge_retry(0.05);
                excl.charge_retry_mut(0.05);
            }
            assert_eq!(a, b, "op {k}");
        }
        let s = shared.stats();
        assert!(s.faulted_ops > 0 && s.fault_time_s > 0.0);
        assert_eq!(s, excl.stats());
        assert_eq!(
            s.total_time_s().to_bits(),
            excl.stats().total_time_s().to_bits()
        );
    }

    #[test]
    fn bookings_book_like_surviving_charges() {
        let (mut charged, mut booked) = (disk(), disk());
        assert!(!charged.is_armed());
        for k in 0..100u64 {
            let (write, len) = (k % 3 == 0, k % 41);
            if write {
                charged.charge_write_mut("A", len).unwrap();
            } else {
                charged.charge_read_mut("A", len).unwrap();
            }
            booked.book_mut(write, len);
        }
        assert_eq!(charged.stats(), booked.stats());
        assert_eq!(
            charged.stats().total_time_s().to_bits(),
            booked.stats().total_time_s().to_bits()
        );
        // an idle schedule leaves the disk unarmed; any other arms it
        charged.set_faults(DiskFaults::default(), 0);
        assert!(!charged.is_armed());
        charged.set_faults(FaultPlan::permanent_after(0, 9).disk(0), 0);
        assert!(charged.is_armed());
        charged.set_faults(DiskFaults::default(), 0);
        assert!(!charged.is_armed());
    }

    #[test]
    fn fault_injection_fires_after_budget() {
        let d = disk();
        d.set_faults(FaultPlan::permanent_after(0, 2).disk(0), 0);
        d.charge_read("A", 1).unwrap();
        d.charge_write("A", 1).unwrap();
        let err = d.charge_read("A", 1).unwrap_err();
        assert!(matches!(
            err,
            DiskError::Injected {
                permanent: true,
                ..
            }
        ));
        assert!(!err.is_transient_fault());
        // stays failed until an idle schedule replaces the disk
        assert!(d.charge_write("A", 1).is_err());
        d.set_faults(DiskFaults::default(), 0);
        d.charge_read("A", 1).unwrap();
        // failed ops are not charged as transfers, but are accounted
        let s = d.stats();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.faulted_ops, 2);
        assert!((s.fault_time_s - 2.0 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn transient_schedule_recovers() {
        let d = disk();
        d.set_faults(FaultPlan::transient_after(0, 1, 2).disk(0), 0);
        d.charge_read("A", 1).unwrap();
        let err = d.charge_read("A", 1).unwrap_err();
        assert!(err.is_transient_fault(), "{err}");
        assert!(d.charge_read("A", 1).is_err());
        // cleared after two failures
        d.charge_read("A", 1).unwrap();
        assert_eq!(d.stats().faulted_ops, 2);
    }

    #[test]
    fn latency_spikes_are_charged() {
        let d = disk();
        d.set_faults(
            DiskFaults {
                p_spike: 1.0,
                spike_s: 0.5,
                ..DiskFaults::default()
            },
            0,
        );
        d.charge_read("A", 10).unwrap();
        let s = d.stats();
        assert!((s.fault_time_s - 0.5).abs() < 1e-12);
        // the clean transfer time is unchanged; the spike shows up in the
        // total elapsed account
        assert!((s.read_time_s - (0.01 + 80.0 / 800.0)).abs() < 1e-12);
        assert!((s.total_time_s() - s.clean_time_s() - 0.5).abs() < 1e-12);
        assert_eq!(s.faulted_ops, 0);
    }

    #[test]
    fn retry_charges_accumulate() {
        let d = disk();
        d.charge_retry(0.25);
        d.charge_retry(0.5);
        let s = d.stats();
        assert_eq!(s.retried_ops, 2);
        assert!((s.backoff_time_s - 0.75).abs() < 1e-12);
        assert!((s.total_time_s() - 0.75).abs() < 1e-12);
        d.restore_stats(IoStats::default());
        assert_eq!(d.stats().retried_ops, 0);
    }
}
