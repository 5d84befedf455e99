//! Deterministic, seeded filesystem fault injection for the store and the
//! batch journal.
//!
//! Every write, fsync and rename the cache store and the serve journal
//! perform goes through the wrappers below, which consult a seeded
//! [`Schedule`] (`tce_disksim::fault`, shared with the simulated disks
//! and the daemon's sockets) once per operation — so a test can
//! deterministically inject the failures that matter for crash safety:
//!
//! * [`FsFaultKind::Enospc`] — the write fails up front (disk full);
//! * [`FsFaultKind::Eio`] — the operation fails with a generic I/O error;
//! * [`FsFaultKind::ShortWrite`] — half the bytes land, then the write
//!   errors, leaving a torn file behind (what a real crash mid-`write`
//!   does);
//! * [`FsFaultKind::CrashBeforeRename`] — the temp file is fully written
//!   and fsynced but the publishing rename never happens, orphaning the
//!   temp file (what a real crash between `fsync` and `rename` does).
//!
//! Injected errors carry an [`Injected`] payload, so
//! [`is_simulated_crash`] tells them from real ones by type.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use tce_disksim::{FaultKind, Injected, Injector, Schedule};

/// Which failure an injected fault simulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsFaultKind {
    /// The operation fails before touching the file (disk full).
    Enospc,
    /// The operation fails with a generic I/O error.
    #[default]
    Eio,
    /// A write lands only half its bytes, then errors — the file is torn.
    ShortWrite,
    /// A rename is silently skipped: the fsynced temp file stays orphaned,
    /// exactly as if the process had died between fsync and rename.
    CrashBeforeRename,
}

impl FaultKind for FsFaultKind {
    const ALL: &'static [Self] = &[
        FsFaultKind::Enospc,
        FsFaultKind::Eio,
        FsFaultKind::ShortWrite,
        FsFaultKind::CrashBeforeRename,
    ];

    fn tag(self) -> &'static str {
        match self {
            FsFaultKind::Enospc => "enospc",
            FsFaultKind::Eio => "eio",
            FsFaultKind::ShortWrite => "short-write",
            FsFaultKind::CrashBeforeRename => "crash-before-rename",
        }
    }
}

/// A seeded fault schedule for filesystem operations. The default is
/// fault-free.
pub type FsFaultPlan = Schedule<FsFaultKind>;

/// Appends `bytes` to an open file through the fault schedule. A
/// [`FsFaultKind::ShortWrite`] lands the first half of the bytes before
/// erroring, leaving a torn file for crash-recovery paths to handle.
pub fn append_all(
    faults: Option<&Injector<FsFaultKind>>,
    file: &mut fs::File,
    bytes: &[u8],
) -> io::Result<()> {
    match faults.and_then(Injector::decide) {
        Some(FsFaultKind::ShortWrite) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            Err(Injected::error(FsFaultKind::ShortWrite, "append"))
        }
        Some(kind) => Err(Injected::error(kind, "append")),
        None => file.write_all(bytes),
    }
}

/// Fsyncs an open file through the fault schedule.
pub fn sync_file(faults: Option<&Injector<FsFaultKind>>, file: &fs::File) -> io::Result<()> {
    match faults.and_then(Injector::decide) {
        Some(kind) => Err(Injected::error(kind, "fsync")),
        None => file.sync_all(),
    }
}

/// Fsyncs a directory so a rename inside it is durable. Real filesystems
/// that cannot fsync directories are tolerated (best effort); *injected*
/// faults still fail, so chaos tests exercise the error path.
pub fn sync_dir(faults: Option<&Injector<FsFaultKind>>, dir: &Path) -> io::Result<()> {
    if let Some(kind) = faults.and_then(Injector::decide) {
        return Err(Injected::error(kind, "dir-fsync"));
    }
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Renames `from` to `to` through the fault schedule. An injected
/// [`FsFaultKind::CrashBeforeRename`] skips the rename entirely, leaving
/// `from` orphaned — the caller must treat the error as a crash, not
/// clean up.
pub fn rename(faults: Option<&Injector<FsFaultKind>>, from: &Path, to: &Path) -> io::Result<()> {
    match faults.and_then(Injector::decide) {
        Some(kind) => Err(Injected::error(kind, "rename")),
        None => fs::rename(from, to),
    }
}

/// True when `err` is an injected [`FsFaultKind::CrashBeforeRename`] —
/// the one fault after which the temp file must be *left in place* (the
/// simulated process is "dead"; the orphan sweep owns recovery).
pub fn is_simulated_crash(err: &io::Error) -> bool {
    Injected::kind_of(err) == Some(FsFaultKind::CrashBeforeRename)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(plan: &FsFaultPlan, rank: usize, n: usize) -> Vec<Option<FsFaultKind>> {
        let inj = plan.injector(rank).expect("active schedule");
        (0..n).map(|_| inj.decide()).collect()
    }

    #[test]
    fn fail_after_bursts_then_recovers() {
        let plan = FsFaultPlan::none().fail_after(2, FsFaultKind::Enospc, 3);
        let got = decisions(&plan, 0, 15);
        assert_eq!(got[..2], [None, None]);
        assert_eq!(got[2..5], [Some(FsFaultKind::Enospc); 3]);
        assert!(got[5..].iter().all(Option::is_none), "{got:?}");
        assert_eq!(got.iter().filter(|d| d.is_some()).count(), 3);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FsFaultPlan::none()
                .probabilistic(0.3, FsFaultKind::Eio)
                .with_seed(seed);
            decisions(&plan, 0, 200)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
        let hits = run(11).iter().filter(|d| d.is_some()).count();
        assert!((20..120).contains(&hits), "{hits}");
    }

    #[test]
    fn stream_seeds_decorrelate_ranks() {
        let plan = FsFaultPlan::none().with_seed(9);
        assert!(plan.is_idle());
        assert!(plan.injector(0).is_none());
        let plan = plan.probabilistic(0.1, FsFaultKind::Eio);
        assert!(!plan.is_idle());
        assert_ne!(decisions(&plan, 0, 200), decisions(&plan, 1, 200));
    }

    #[test]
    fn short_write_leaves_a_torn_file() {
        let dir = std::env::temp_dir().join(format!("tce-fsfault-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        let inj = FsFaultPlan::none()
            .fail_after(0, FsFaultKind::ShortWrite, 1)
            .injector(0);
        let mut file = fs::File::create(&path).unwrap();
        let err = append_all(inj.as_deref(), &mut file, b"0123456789abcdef").unwrap_err();
        assert!(err.to_string().contains("short-write"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"01234567");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_is_detectable() {
        let err = Injected::error(FsFaultKind::CrashBeforeRename, "rename");
        assert!(is_simulated_crash(&err));
        let err = Injected::error(FsFaultKind::Eio, "rename");
        assert!(!is_simulated_crash(&err));
        // detection is by payload type: a foreign error that merely names
        // the fault is not a simulated crash
        let err = io::Error::other("disk said: injected crash-before-rename during rename");
        assert!(!is_simulated_crash(&err));
    }
}
