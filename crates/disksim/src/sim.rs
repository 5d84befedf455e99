//! The simulated block device.

use crate::fault::{DiskFaultKind, DiskFaults, FaultKind, FaultState};
use crate::lock::lock;
use crate::profile::{DiskProfile, IoStats};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// What a write puts on disk.
pub enum WriteSrc<'a> {
    /// Real data (materialized files only).
    Data(&'a [f64]),
    /// `len` zero elements.
    Zeros(u64),
    /// Accounting-only transfer of `len` elements (dry files).
    Dry(u64),
}

impl WriteSrc<'_> {
    fn len(&self) -> u64 {
        match self {
            WriteSrc::Data(d) => d.len() as u64,
            WriteSrc::Zeros(n) | WriteSrc::Dry(n) => *n,
        }
    }
}

/// Disk operation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The named file does not exist.
    NoSuchFile(String),
    /// Offset/length outside the file.
    OutOfBounds {
        /// File name.
        file: String,
        /// Requested offset (elements).
        offset: u64,
        /// Requested length (elements).
        len: u64,
        /// Actual file length (elements).
        file_len: u64,
    },
    /// Data access on a dry (accounting-only) file.
    DryFile(String),
    /// An injected fault fired (see [`SimDisk::set_faults`]).
    Injected {
        /// Description of the failed operation (e.g. ``read `A` ``).
        op: String,
        /// Permanent faults never clear; transient ones may succeed on
        /// retry.
        permanent: bool,
    },
    /// Destination slice length does not match the request.
    LengthMismatch {
        /// Requested element count.
        expected: u64,
        /// Slice length supplied.
        found: u64,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::NoSuchFile(n) => write!(f, "no such disk file `{n}`"),
            DiskError::OutOfBounds {
                file,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) outside `{file}` of length {file_len}"
            ),
            DiskError::DryFile(n) => write!(f, "data access on dry file `{n}`"),
            DiskError::Injected { op, permanent } => {
                let kind = if *permanent { "permanent" } else { "transient" };
                write!(f, "injected {kind} disk fault on {op}")
            }
            DiskError::LengthMismatch { expected, found } => {
                write!(f, "buffer length {found} does not match request {expected}")
            }
        }
    }
}

impl DiskError {
    /// True for injected faults that may clear on their own — the only
    /// errors a retry layer should spend attempts on. Structural errors
    /// (missing files, bad bounds, dry-file data access) are caller bugs
    /// and never become right by retrying.
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

enum FileData {
    /// Length-only: transfers are charged but no bytes are stored.
    Dry { len: u64 },
    /// Real storage (f64 elements).
    Real(Vec<f64>),
}

impl FileData {
    fn len(&self) -> u64 {
        match self {
            FileData::Dry { len } => *len,
            FileData::Real(v) => v.len() as u64,
        }
    }
}

struct DiskInner {
    stats: IoStats,
    files: HashMap<String, FileData>,
    /// Live fault stream plus the latency spike `(p_spike, spike_s)`
    /// (`None` = fault-free disk).
    fault: Option<(FaultState<DiskFaultKind>, (f64, f64))>,
}

impl DiskInner {
    /// Runs the fault model for one operation attempt on `op`. Failed
    /// attempts charge the seek they wasted to `fault_time_s`; latency
    /// spikes of surviving ops are charged there too.
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

    /// Books one successful read of `len` elements.
    fn book_read(&mut self, profile: &DiskProfile, len: u64) {
        let bytes = len * ELEM_BYTES;
        self.stats.read_bytes += bytes;
        self.stats.read_ops += 1;
        self.stats.read_time_s += profile.read_time(bytes);
    }

    /// Books one successful write of `len` elements.
    fn book_write(&mut self, profile: &DiskProfile, len: u64) {
        let bytes = len * ELEM_BYTES;
        self.stats.write_bytes += bytes;
        self.stats.write_ops += 1;
        self.stats.write_time_s += profile.write_time(bytes);
    }
}

/// A simulated local disk: named files of `f64` elements, an I/O cost
/// model, and exact accounting. Thread-safe; one instance per simulated
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
                files: HashMap::new(),
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
        let mut inner = lock(&self.inner);
        inner.stats.retried_ops += 1;
        inner.stats.backoff_time_s += backoff_s;
    }

    /// Replaces the accounting wholesale (checkpoint restore).
    pub fn restore_stats(&self, stats: IoStats) {
        lock(&self.inner).stats = stats;
    }

    /// Creates (or replaces) a file of `len` elements. Materialized files
    /// hold real zero-initialized data; dry files only track length.
    pub fn create(&self, name: &str, len: u64, materialize: bool) {
        let data = if materialize {
            FileData::Real(vec![0.0; len as usize])
        } else {
            FileData::Dry { len }
        };
        lock(&self.inner).files.insert(name.to_string(), data);
    }

    /// True if `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        lock(&self.inner).files.contains_key(name)
    }

    /// True if `name` exists and holds real data (not a dry file).
    pub fn is_materialized(&self, name: &str) -> bool {
        matches!(lock(&self.inner).files.get(name), Some(FileData::Real(_)))
    }

    /// Length (elements) of `name`.
    pub fn file_len(&self, name: &str) -> Result<u64, DiskError> {
        let inner = lock(&self.inner);
        inner
            .files
            .get(name)
            .map(FileData::len)
            .ok_or_else(|| DiskError::NoSuchFile(name.to_string()))
    }

    /// Fills a materialized file with values from a generator (used to
    /// load synthetic input tensors without charging I/O time).
    pub fn fill_with(&self, name: &str, mut gen: impl FnMut(u64) -> f64) -> Result<(), DiskError> {
        let mut inner = lock(&self.inner);
        match inner.files.get_mut(name) {
            None => Err(DiskError::NoSuchFile(name.to_string())),
            Some(FileData::Dry { .. }) => Err(DiskError::DryFile(name.to_string())),
            Some(FileData::Real(v)) => {
                for (k, x) in v.iter_mut().enumerate() {
                    *x = gen(k as u64);
                }
                Ok(())
            }
        }
    }

    /// Reads `len` elements at `offset` as one I/O operation. With a
    /// destination slice the data is copied out (materialized files only);
    /// with `None` only the transfer is charged.
    pub fn read(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        dst: Option<&mut [f64]>,
    ) -> Result<(), DiskError> {
        let mut inner = lock(&self.inner);
        inner.fault_check(self.profile.seek_s, || format!("read `{name}`"))?;
        let file = inner
            .files
            .get(name)
            .ok_or_else(|| DiskError::NoSuchFile(name.to_string()))?;
        let file_len = file.len();
        if offset.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(DiskError::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                file_len,
            });
        }
        if let Some(dst) = dst {
            if dst.len() as u64 != len {
                return Err(DiskError::LengthMismatch {
                    expected: len,
                    found: dst.len() as u64,
                });
            }
            match file {
                FileData::Dry { .. } => return Err(DiskError::DryFile(name.to_string())),
                FileData::Real(v) => {
                    dst.copy_from_slice(&v[offset as usize..(offset + len) as usize]);
                }
            }
        }
        inner.book_read(&self.profile, len);
        Ok(())
    }

    /// Writes elements at `offset` as one I/O operation.
    pub fn write(&self, name: &str, offset: u64, src: WriteSrc<'_>) -> Result<(), DiskError> {
        let len = src.len();
        let mut inner = lock(&self.inner);
        inner.fault_check(self.profile.seek_s, || format!("write `{name}`"))?;
        let file = inner
            .files
            .get_mut(name)
            .ok_or_else(|| DiskError::NoSuchFile(name.to_string()))?;
        let file_len = file.len();
        if offset.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(DiskError::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                file_len,
            });
        }
        match (&mut *file, &src) {
            (FileData::Real(v), WriteSrc::Data(d)) => {
                v[offset as usize..(offset + len) as usize].copy_from_slice(d);
            }
            (FileData::Real(v), WriteSrc::Zeros(_)) => {
                v[offset as usize..(offset + len) as usize].fill(0.0);
            }
            (FileData::Real(_), WriteSrc::Dry(_)) => {
                // accounting-only write against a materialized file is a
                // caller bug: data would silently diverge
                return Err(DiskError::DryFile(name.to_string()));
            }
            (FileData::Dry { .. }, WriteSrc::Data(_)) => {
                return Err(DiskError::DryFile(name.to_string()));
            }
            (FileData::Dry { .. }, _) => {}
        }
        inner.book_write(&self.profile, len);
        Ok(())
    }

    /// Charges one accounting-only read of `len` elements with no file
    /// behind it: the fault model runs and the accounting moves exactly as
    /// for a dry [`SimDisk::read`] of that length. `label` names the
    /// transfer in an injected-fault error.
    pub fn charge_read(&self, label: &str, len: u64) -> Result<(), DiskError> {
        let mut inner = lock(&self.inner);
        inner.fault_check(self.profile.seek_s, || format!("read `{label}`"))?;
        inner.book_read(&self.profile, len);
        Ok(())
    }

    /// The write counterpart of [`SimDisk::charge_read`].
    pub fn charge_write(&self, label: &str, len: u64) -> Result<(), DiskError> {
        let mut inner = lock(&self.inner);
        inner.fault_check(self.profile.seek_s, || format!("write `{label}`"))?;
        inner.book_write(&self.profile, len);
        Ok(())
    }

    /// Reads the full contents of a materialized file without charging
    /// I/O (verification helper).
    pub fn snapshot(&self, name: &str) -> Result<Vec<f64>, DiskError> {
        let inner = lock(&self.inner);
        match inner.files.get(name) {
            None => Err(DiskError::NoSuchFile(name.to_string())),
            Some(FileData::Dry { .. }) => Err(DiskError::DryFile(name.to_string())),
            Some(FileData::Real(v)) => Ok(v.clone()),
        }
    }

    /// Current accounting.
    pub fn stats(&self) -> IoStats {
        lock(&self.inner).stats.clone()
    }

    /// Clears accounting (keeps files).
    pub fn reset_stats(&self) {
        lock(&self.inner).stats = IoStats::default();
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
    fn data_roundtrip() {
        let d = disk();
        d.create("A", 10, true);
        d.write("A", 2, WriteSrc::Data(&[1.0, 2.0, 3.0])).unwrap();
        let mut buf = [0.0; 3];
        d.read("A", 2, 3, Some(&mut buf)).unwrap();
        assert_eq!(buf, [1.0, 2.0, 3.0]);
        let snap = d.snapshot("A").unwrap();
        assert_eq!(snap[2], 1.0);
        assert_eq!(snap[0], 0.0);
    }

    #[test]
    fn accounting_matches_model() {
        let d = disk();
        d.create("A", 100, false);
        d.read("A", 0, 50, None).unwrap();
        d.write("A", 0, WriteSrc::Dry(25)).unwrap();
        let s = d.stats();
        assert_eq!(s.read_bytes, 400);
        assert_eq!(s.write_bytes, 200);
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.write_ops, 1);
        assert!((s.read_time_s - (0.01 + 400.0 / 800.0)).abs() < 1e-12);
        assert!((s.write_time_s - (0.01 + 200.0 / 400.0)).abs() < 1e-12);
        d.reset_stats();
        assert_eq!(d.stats().total_ops(), 0);
    }

    #[test]
    fn charges_book_exactly_like_dry_transfers() {
        let (filed, bare) = (disk(), disk());
        filed.create("A", 100, false);
        for len in [50, 7, 0, 93] {
            filed.read("A", 0, len, None).unwrap();
            filed.write("A", 0, WriteSrc::Dry(len)).unwrap();
            bare.charge_read("A", len).unwrap();
            bare.charge_write("A", len).unwrap();
        }
        assert_eq!(filed.stats(), bare.stats());
        // the fault model sees every charge as one operation
        bare.set_faults(FaultPlan::permanent_after(0, 1).disk(0), 0);
        bare.charge_read("A", 1).unwrap();
        let err = bare.charge_write("A", 1).unwrap_err();
        assert!(
            matches!(&err, DiskError::Injected { op, permanent: true } if op == "write `A`"),
            "{err}"
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let d = disk();
        d.create("A", 10, true);
        let err = d.read("A", 8, 5, None).unwrap_err();
        assert!(matches!(err, DiskError::OutOfBounds { .. }));
        let err = d.write("A", 9, WriteSrc::Zeros(2)).unwrap_err();
        assert!(matches!(err, DiskError::OutOfBounds { .. }));
        assert!(matches!(
            d.read("B", 0, 1, None).unwrap_err(),
            DiskError::NoSuchFile(_)
        ));
    }

    #[test]
    fn dry_files_reject_data_access() {
        let d = disk();
        d.create("A", 10, false);
        let mut buf = [0.0; 2];
        assert!(matches!(
            d.read("A", 0, 2, Some(&mut buf)).unwrap_err(),
            DiskError::DryFile(_)
        ));
        assert!(matches!(
            d.write("A", 0, WriteSrc::Data(&[1.0])).unwrap_err(),
            DiskError::DryFile(_)
        ));
        // dry transfers are fine and charged
        d.write("A", 0, WriteSrc::Dry(10)).unwrap();
        assert_eq!(d.stats().write_bytes, 80);
    }

    #[test]
    fn zero_write_clears_region() {
        let d = disk();
        d.create("A", 4, true);
        d.write("A", 0, WriteSrc::Data(&[1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        d.write("A", 1, WriteSrc::Zeros(2)).unwrap();
        assert_eq!(d.snapshot("A").unwrap(), vec![1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn fill_with_charges_nothing() {
        let d = disk();
        d.create("A", 5, true);
        d.fill_with("A", |k| k as f64).unwrap();
        assert_eq!(d.stats().total_bytes(), 0);
        assert_eq!(d.snapshot("A").unwrap()[4], 4.0);
    }

    #[test]
    fn fault_injection_fires_after_budget() {
        let d = disk();
        d.create("A", 10, false);
        d.set_faults(FaultPlan::permanent_after(0, 2).disk(0), 0);
        d.read("A", 0, 1, None).unwrap();
        d.write("A", 0, WriteSrc::Dry(1)).unwrap();
        let err = d.read("A", 0, 1, None).unwrap_err();
        assert!(matches!(
            err,
            DiskError::Injected {
                permanent: true,
                ..
            }
        ));
        assert!(!err.is_transient_fault());
        // stays failed until an idle schedule replaces the disk
        assert!(d.write("A", 0, WriteSrc::Dry(1)).is_err());
        d.set_faults(DiskFaults::default(), 0);
        d.read("A", 0, 1, None).unwrap();
        // failed ops are not charged as transfers, but are accounted
        let s = d.stats();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.faulted_ops, 2);
        assert!((s.fault_time_s - 2.0 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn transient_schedule_recovers() {
        let d = disk();
        d.create("A", 10, false);
        d.set_faults(FaultPlan::transient_after(0, 1, 2).disk(0), 0);
        d.read("A", 0, 1, None).unwrap();
        let err = d.read("A", 0, 1, None).unwrap_err();
        assert!(err.is_transient_fault(), "{err}");
        assert!(d.read("A", 0, 1, None).is_err());
        // cleared after two failures
        d.read("A", 0, 1, None).unwrap();
        assert_eq!(d.stats().faulted_ops, 2);
    }

    #[test]
    fn latency_spikes_are_charged() {
        let d = disk();
        d.create("A", 10, false);
        d.set_faults(
            DiskFaults {
                p_spike: 1.0,
                spike_s: 0.5,
                ..DiskFaults::default()
            },
            0,
        );
        d.read("A", 0, 10, None).unwrap();
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

    #[test]
    fn overflowing_bounds_are_rejected() {
        let d = disk();
        d.create("A", 10, false);
        let err = d.read("A", u64::MAX - 1, 5, None).unwrap_err();
        assert!(matches!(err, DiskError::OutOfBounds { .. }));
    }

    #[test]
    fn length_mismatch_detected() {
        let d = disk();
        d.create("A", 10, true);
        let mut buf = [0.0; 3];
        let err = d.read("A", 0, 2, Some(&mut buf)).unwrap_err();
        assert!(matches!(err, DiskError::LengthMismatch { .. }));
    }
}
