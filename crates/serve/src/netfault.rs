//! Deterministic, seeded network fault injection for the daemon's wire
//! path.
//!
//! Every accepted connection, every successful read, and every frame
//! write the server performs consults a seeded [`Schedule`]
//! (`tce_disksim::fault`, shared with the simulated disks and the cache's
//! filesystem operations) once per operation, so a test (or a soak run)
//! can deterministically inject the network failures that matter for a
//! long-lived service:
//!
//! * [`NetFaultKind::ShortIo`] — a read delivers only a prefix of the
//!   bytes that arrived / a write lands only half a frame before
//!   erroring, leaving a torn frame on the peer's side;
//! * [`NetFaultKind::Reset`] — the connection is torn down mid-stream
//!   (what a peer crash or an RST does);
//! * [`NetFaultKind::Stall`] — the operation completes, but only after
//!   a byte-level stall of [`NetFaultPlan::stall`] (what a congested or
//!   malicious peer does);
//! * [`NetFaultKind::AcceptFail`] — a freshly accepted connection is
//!   dropped before it is served (an aborted handshake).
//!
//! The plan parses from the shared `key=value` spec grammar plus
//! `stall_ms=N` (see [`NetFaultPlan::parse`]), the syntax of the CLI's
//! `--net-faults` flag.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use tce_disksim::{FaultKind, Injected, Injector, Schedule};

/// Which network failure an injected fault simulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetFaultKind {
    /// A short read (only a prefix of the arrived bytes is delivered)
    /// or a short write (half the frame lands, then the write errors).
    ShortIo,
    /// The connection is reset mid-stream.
    #[default]
    Reset,
    /// The operation stalls for [`NetFaultPlan::stall`], then proceeds.
    Stall,
    /// A freshly accepted connection is dropped before being served.
    AcceptFail,
}

impl FaultKind for NetFaultKind {
    const ALL: &'static [Self] = &[
        NetFaultKind::ShortIo,
        NetFaultKind::Reset,
        NetFaultKind::Stall,
        NetFaultKind::AcceptFail,
    ];

    fn tag(self) -> &'static str {
        match self {
            NetFaultKind::ShortIo => "short-io",
            NetFaultKind::Reset => "reset",
            NetFaultKind::Stall => "stall",
            NetFaultKind::AcceptFail => "accept-fail",
        }
    }
}

/// A seeded fault schedule for socket operations, plus how long an
/// injected stall blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct NetFaultPlan {
    /// When operations fail, and how.
    pub schedule: Schedule<NetFaultKind>,
    /// How long a [`NetFaultKind::Stall`] blocks the operation.
    pub stall: Duration,
}

/// How long an injected stall blocks unless a plan says otherwise.
const DEFAULT_STALL: Duration = Duration::from_millis(25);

impl From<Schedule<NetFaultKind>> for NetFaultPlan {
    fn from(schedule: Schedule<NetFaultKind>) -> Self {
        NetFaultPlan {
            schedule,
            stall: DEFAULT_STALL,
        }
    }
}

impl NetFaultPlan {
    /// Parses the compact spec of the CLI's `--net-faults` flag: the
    /// shared keys of [`Schedule::parse`] plus `stall_ms=N`. Example:
    /// `seed=7,p=0.02,pkind=reset,stall_ms=10`.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut stall = DEFAULT_STALL;
        let schedule = Schedule::none().parse(spec, |key, value| match key {
            "stall_ms" => {
                let ms = value.parse().map_err(|_| "stall_ms= needs an integer")?;
                stall = Duration::from_millis(ms);
                Ok(())
            }
            _ => Err(format!("unknown net fault spec key `{key}`")),
        })?;
        Ok(NetFaultPlan { schedule, stall })
    }
}

/// What an accept-site consultation decided.
///
/// Only [`NetFaultKind::AcceptFail`] and [`NetFaultKind::Reset`] tear a
/// fresh connection down; other kinds are counted but let the accept
/// proceed (a short read of zero served bytes is indistinguishable from
/// a drop, so it is not simulated separately here).
pub fn accept_fails(faults: Option<&Injector<NetFaultKind>>) -> bool {
    matches!(
        faults.and_then(Injector::decide),
        Some(NetFaultKind::AcceptFail | NetFaultKind::Reset)
    )
}

/// What a fault-filtered read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Deliver this many of the bytes the read produced (a short read
    /// delivers a strict prefix; the rest are dropped and the peer's
    /// retransmit — here, the retrying client — must cover them).
    Keep(usize),
    /// The connection was reset; the caller must stop reading.
    Reset,
}

/// Filters a successful read of `n > 0` bytes through the fault
/// schedule. A [`NetFaultKind::Stall`] sleeps `stall` before delivery; a
/// [`NetFaultKind::Reset`] (or accept-fail, the nearest equivalent
/// mid-stream) shuts the socket down both ways.
pub fn filter_read(
    faults: Option<&Injector<NetFaultKind>>,
    stall: Duration,
    stream: &TcpStream,
    n: usize,
) -> ReadOutcome {
    match faults.and_then(Injector::decide) {
        None => ReadOutcome::Keep(n),
        Some(NetFaultKind::ShortIo) => ReadOutcome::Keep((n / 2).max(1)),
        Some(NetFaultKind::Stall) => {
            std::thread::sleep(stall);
            ReadOutcome::Keep(n)
        }
        Some(NetFaultKind::Reset | NetFaultKind::AcceptFail) => {
            let _ = stream.shutdown(Shutdown::Both);
            ReadOutcome::Reset
        }
    }
}

/// Writes one whole frame's bytes through the fault schedule. A
/// [`NetFaultKind::ShortIo`] lands the first half of the bytes before
/// erroring, leaving a torn frame for the peer's decoder to reject; a
/// [`NetFaultKind::Stall`] sleeps `stall` first; a
/// [`NetFaultKind::Reset`] tears the socket down.
pub fn write_all(
    faults: Option<&Injector<NetFaultKind>>,
    stall: Duration,
    stream: &mut TcpStream,
    bytes: &[u8],
) -> io::Result<()> {
    match faults.and_then(Injector::decide) {
        None => stream.write_all(bytes),
        Some(NetFaultKind::Stall) => {
            std::thread::sleep(stall);
            stream.write_all(bytes)
        }
        Some(NetFaultKind::ShortIo) => {
            stream.write_all(&bytes[..bytes.len() / 2])?;
            let _ = stream.flush();
            Err(Injected::error(NetFaultKind::ShortIo, "write"))
        }
        Some(kind @ (NetFaultKind::Reset | NetFaultKind::AcceptFail)) => {
            let _ = stream.shutdown(Shutdown::Both);
            Err(Injected::error(kind, "write"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(
        schedule: &Schedule<NetFaultKind>,
        rank: usize,
        n: usize,
    ) -> Vec<Option<NetFaultKind>> {
        let inj = schedule.injector(rank).expect("active schedule");
        (0..n).map(|_| inj.decide()).collect()
    }

    #[test]
    fn fail_after_bursts_then_recovers() {
        let schedule = Schedule::none().fail_after(1, NetFaultKind::Reset, 2);
        let got = decisions(&schedule, 0, 12);
        assert_eq!(got[0], None);
        assert_eq!(got[1..3], [Some(NetFaultKind::Reset); 2]);
        assert!(got[3..].iter().all(Option::is_none), "{got:?}");
        assert_eq!(got.iter().filter(|d| d.is_some()).count(), 2);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let schedule = Schedule::none()
                .probabilistic(0.25, NetFaultKind::Stall)
                .with_seed(seed);
            decisions(&schedule, 0, 200)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let hits = run(5).iter().filter(|d| d.is_some()).count();
        assert!((15..110).contains(&hits), "{hits}");
    }

    #[test]
    fn stream_seeds_decorrelate_ranks() {
        let schedule = Schedule::none().with_seed(3);
        assert!(schedule.is_idle());
        assert!(schedule.injector(0).is_none());
        let schedule = schedule.probabilistic(0.1, NetFaultKind::Reset);
        assert!(!schedule.is_idle());
        assert_ne!(decisions(&schedule, 0, 200), decisions(&schedule, 1, 200));
    }

    #[test]
    fn spec_syntax_round_trips_the_interesting_shapes() {
        let plan = NetFaultPlan::parse("seed=7,after=3,kind=short-io,count=2,stall_ms=5").unwrap();
        let want = Schedule::none()
            .with_seed(7)
            .fail_after(3, NetFaultKind::ShortIo, 2);
        assert_eq!(plan.schedule, want);
        assert_eq!(plan.stall, Duration::from_millis(5));
        assert_eq!(plan.schedule.p_fail, 0.0);

        let plan = NetFaultPlan::parse("p=0.25,pkind=stall").unwrap();
        assert_eq!(plan.schedule.p_fail, 0.25);
        assert_eq!(plan.schedule.p_kind, NetFaultKind::Stall);
        assert!(!plan.schedule.is_idle());

        // `kind` doubles as the probabilistic kind when `pkind` is absent
        let plan = NetFaultPlan::parse("kind=accept-fail,p=0.1").unwrap();
        assert_eq!(plan.schedule.p_kind, NetFaultKind::AcceptFail);
        // the documented example
        let plan = NetFaultPlan::parse("seed=7,p=0.05,kind=reset,stall_ms=40").unwrap();
        let want = Schedule::none()
            .with_seed(7)
            .probabilistic(0.05, NetFaultKind::Reset);
        assert_eq!(plan.schedule, want);
        assert_eq!(plan.stall, Duration::from_millis(40));

        assert!(NetFaultPlan::parse("").unwrap().schedule.is_idle());
        assert!(NetFaultPlan::parse("p=2.0").is_err());
        assert!(NetFaultPlan::parse("bogus=1").is_err());
        assert!(NetFaultPlan::parse("kind=volcano").is_err());
        assert!(NetFaultPlan::parse("seed").is_err());
        assert!(NetFaultPlan::parse("stall_ms=soon").is_err());
        // a zero burst is an error, never a silent single fault
        assert!(NetFaultPlan::parse("after=1,count=0").is_err());
        assert!(NetFaultPlan::parse("after=1,kind=reset:0").is_err());
    }
}
