//! Deterministic, seeded network fault injection for the daemon's wire
//! path.
//!
//! `tce-cache`'s [`FsFaultPlan`](tce_cache::FsFaultPlan) proved the
//! pattern at the filesystem layer: seeded fault schedules make chaos
//! tests reproducible instead of flaky. This module lifts the same API
//! shape to the daemon's *sockets* — every accepted connection, every
//! successful read, and every frame write the server performs consults
//! the injector, so a test (or a soak run) can deterministically inject
//! the network failures that matter for a long-lived service:
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
//! A [`NetFaultPlan`] mirrors [`FsFaultPlan`](tce_cache::FsFaultPlan):
//! a deterministic fail-after-N trigger with a burst length plus an
//! independent per-op probability, all drawn from a seeded stream so
//! identical seeds reproduce identical fault histories. The plan parses
//! from a compact `key=value` spec (see [`NetFaultPlan::parse`]), the
//! syntax of the CLI's `--net-faults` flag.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Which network failure an injected fault simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// A short read (only a prefix of the arrived bytes is delivered)
    /// or a short write (half the frame lands, then the write errors).
    ShortIo,
    /// The connection is reset mid-stream.
    Reset,
    /// The operation stalls for [`NetFaultPlan::stall`], then proceeds.
    Stall,
    /// A freshly accepted connection is dropped before being served.
    AcceptFail,
}

impl NetFaultKind {
    /// Stable lower-case tag, used in error messages, test assertions,
    /// and the `--net-faults` spec syntax.
    pub fn tag(&self) -> &'static str {
        match self {
            NetFaultKind::ShortIo => "short-io",
            NetFaultKind::Reset => "reset",
            NetFaultKind::Stall => "stall",
            NetFaultKind::AcceptFail => "accept-fail",
        }
    }

    fn from_tag(tag: &str) -> Result<NetFaultKind, String> {
        match tag {
            "short-io" | "short" => Ok(NetFaultKind::ShortIo),
            "reset" => Ok(NetFaultKind::Reset),
            "stall" => Ok(NetFaultKind::Stall),
            "accept-fail" | "accept" => Ok(NetFaultKind::AcceptFail),
            other => Err(format!(
                "unknown net fault kind `{other}` (expected short-io|reset|stall|accept-fail)"
            )),
        }
    }
}

/// A deterministic, seeded fault schedule for socket operations — the
/// network-layer mirror of [`FsFaultPlan`](tce_cache::FsFaultPlan). The
/// default is fault-free.
#[derive(Clone, Debug, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for probabilistic draws; identical seeds reproduce
    /// identical fault histories.
    pub seed: u64,
    /// Deterministic trigger: after this many *successful* operations,
    /// inject `count` consecutive faults of the given kind, then
    /// recover.
    pub fail_after: Option<(u64, NetFaultKind, u64)>,
    /// Per-operation probability of an independent injected fault.
    pub p_fail: f64,
    /// The kind injected by probabilistic faults.
    pub p_kind: NetFaultKind,
    /// How long a [`NetFaultKind::Stall`] blocks the operation.
    pub stall: Duration,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan {
            seed: 0,
            fail_after: None,
            p_fail: 0.0,
            p_kind: NetFaultKind::Reset,
            stall: Duration::from_millis(25),
        }
    }
}

impl NetFaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Sets the seed for probabilistic draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// After `ops` successful operations, inject `count` consecutive
    /// faults of `kind`, then recover.
    pub fn fail_after(mut self, ops: u64, kind: NetFaultKind, count: u64) -> Self {
        self.fail_after = Some((ops, kind, count));
        self
    }

    /// Each operation independently fails with probability `p`, as
    /// `kind`.
    pub fn probabilistic(mut self, p: f64, kind: NetFaultKind) -> Self {
        self.p_fail = p;
        self.p_kind = kind;
        self
    }

    /// Sets the duration of injected stalls.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// True if this schedule can never affect an operation.
    pub fn is_idle(&self) -> bool {
        self.fail_after.is_none() && self.p_fail <= 0.0
    }

    /// The stream seed for an injector serving `rank` (splitmix-style
    /// decorrelation, same constant as the disk/fs plans).
    pub fn stream_seed(&self, rank: usize) -> u64 {
        self.seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// Builds the shared injector handle for stream `rank`.
    pub fn injector(&self, rank: usize) -> Arc<NetFaultInjector> {
        Arc::new(NetFaultInjector {
            state: Mutex::new(NetFaultState {
                plan: self.clone(),
                rng: StdRng::seed_from_u64(self.stream_seed(rank)),
                ops_seen: 0,
                burst_left: 0,
                burst_kind: NetFaultKind::Reset,
            }),
            stall: self.stall,
            injected: AtomicU64::new(0),
        })
    }

    /// Parses the compact spec of the CLI's `--net-faults` flag:
    /// comma-separated `key=value` pairs.
    ///
    /// Keys: `seed=N`, `after=N` (+ `kind=TAG`, `count=N`), `p=F`
    /// (+ `pkind=TAG`, defaulting to `kind`), `stall_ms=N`. Example:
    /// `seed=7,p=0.02,pkind=reset,stall_ms=10`.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut plan = NetFaultPlan::none();
        let mut after: Option<u64> = None;
        let mut kind = NetFaultKind::Reset;
        let mut count: u64 = 1;
        let mut p: Option<f64> = None;
        let mut p_kind: Option<NetFaultKind> = None;
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("net fault spec item `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad_num = |e| format!("net fault spec `{key}={value}`: {e}");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad_num("not a u64"))?,
                "after" => after = Some(value.parse().map_err(|_| bad_num("not a u64"))?),
                "kind" => kind = NetFaultKind::from_tag(value)?,
                "count" => count = value.parse().map_err(|_| bad_num("not a u64"))?,
                "p" => {
                    let v: f64 = value.parse().map_err(|_| bad_num("not a float"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(bad_num("probability must be in [0, 1]"));
                    }
                    p = Some(v);
                }
                "pkind" => p_kind = Some(NetFaultKind::from_tag(value)?),
                "stall_ms" => {
                    plan.stall =
                        Duration::from_millis(value.parse().map_err(|_| bad_num("not a u64"))?)
                }
                other => return Err(format!("unknown net fault spec key `{other}`")),
            }
        }
        if let Some(ops) = after {
            plan.fail_after = Some((ops, kind, count.max(1)));
        }
        if let Some(p) = p {
            plan.p_fail = p;
            plan.p_kind = p_kind.unwrap_or(kind);
        }
        Ok(plan)
    }
}

struct NetFaultState {
    plan: NetFaultPlan,
    rng: StdRng,
    /// Successful operations seen so far (the `fail_after` clock).
    ops_seen: u64,
    /// Remaining consecutive failures of a triggered burst.
    burst_left: u64,
    burst_kind: NetFaultKind,
}

/// Live, shared fault state consulted once per socket operation
/// (accept, non-empty read, frame write). Thread-safe: one injector is
/// shared across the acceptor and every connection.
pub struct NetFaultInjector {
    state: Mutex<NetFaultState>,
    stall: Duration,
    injected: AtomicU64,
}

impl NetFaultInjector {
    /// Decides the fate of the next operation. Mutates the schedule
    /// clocks and consumes RNG draws, so the injection sites call it
    /// exactly once per operation.
    pub fn decide(&self) -> Option<NetFaultKind> {
        let mut st = self.state.lock();
        if st.burst_left > 0 {
            st.burst_left -= 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(st.burst_kind);
        }
        if let Some((after, kind, count)) = st.plan.fail_after {
            if st.ops_seen >= after {
                // this failure is the first of `count`
                st.plan.fail_after = None;
                st.burst_left = count.saturating_sub(1);
                st.burst_kind = kind;
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(kind);
            }
        }
        if st.plan.p_fail > 0.0 {
            let p = st.plan.p_fail;
            if st.rng.random_bool(p) {
                let kind = st.plan.p_kind;
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(kind);
            }
        }
        st.ops_seen += 1;
        None
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Duration of injected stalls.
    pub fn stall(&self) -> Duration {
        self.stall
    }
}

fn injected_error(kind: NetFaultKind, op: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected {} during {op}", kind.tag()),
    )
}

/// Decides once for `faults` (if any); `None` means proceed.
fn decide(faults: Option<&NetFaultInjector>) -> Option<NetFaultKind> {
    faults.and_then(|f| f.decide())
}

/// What an accept-site consultation decided.
///
/// Only [`NetFaultKind::AcceptFail`] and [`NetFaultKind::Reset`] tear a
/// fresh connection down; other kinds are counted but let the accept
/// proceed (a short read of zero served bytes is indistinguishable from
/// a drop, so it is not simulated separately here).
pub fn accept_fails(faults: Option<&NetFaultInjector>) -> bool {
    matches!(
        decide(faults),
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
/// schedule. A [`NetFaultKind::Stall`] sleeps before delivery; a
/// [`NetFaultKind::Reset`] (or accept-fail, the nearest equivalent
/// mid-stream) shuts the socket down both ways.
pub fn filter_read(faults: Option<&NetFaultInjector>, stream: &TcpStream, n: usize) -> ReadOutcome {
    match decide(faults) {
        None => ReadOutcome::Keep(n),
        Some(NetFaultKind::ShortIo) => ReadOutcome::Keep((n / 2).max(1)),
        Some(NetFaultKind::Stall) => {
            std::thread::sleep(faults.map_or(Duration::ZERO, |f| f.stall()));
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
/// [`NetFaultKind::Reset`] tears the socket down.
pub fn write_all(
    faults: Option<&NetFaultInjector>,
    stream: &mut TcpStream,
    bytes: &[u8],
) -> io::Result<()> {
    match decide(faults) {
        None => stream.write_all(bytes),
        Some(NetFaultKind::Stall) => {
            std::thread::sleep(faults.map_or(Duration::ZERO, |f| f.stall()));
            stream.write_all(bytes)
        }
        Some(NetFaultKind::ShortIo) => {
            stream.write_all(&bytes[..bytes.len() / 2])?;
            let _ = stream.flush();
            Err(injected_error(NetFaultKind::ShortIo, "write"))
        }
        Some(kind @ (NetFaultKind::Reset | NetFaultKind::AcceptFail)) => {
            let _ = stream.shutdown(Shutdown::Both);
            Err(injected_error(kind, "write"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_after_bursts_then_recovers() {
        let inj = NetFaultPlan::none()
            .fail_after(2, NetFaultKind::Reset, 3)
            .injector(0);
        assert_eq!(inj.decide(), None);
        assert_eq!(inj.decide(), None);
        for _ in 0..3 {
            assert_eq!(inj.decide(), Some(NetFaultKind::Reset));
        }
        for _ in 0..10 {
            assert_eq!(inj.decide(), None);
        }
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<Option<NetFaultKind>> {
            let inj = NetFaultPlan::none()
                .probabilistic(0.3, NetFaultKind::ShortIo)
                .with_seed(seed)
                .injector(0);
            (0..200).map(|_| inj.decide()).collect()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
        let hits = run(11).iter().filter(|d| d.is_some()).count();
        assert!((20..120).contains(&hits), "{hits}");
    }

    #[test]
    fn stream_seeds_decorrelate_ranks() {
        let plan = NetFaultPlan::none().with_seed(9);
        assert_ne!(plan.stream_seed(0), plan.stream_seed(1));
        assert!(plan.is_idle());
        assert!(!plan
            .clone()
            .probabilistic(0.1, NetFaultKind::Reset)
            .is_idle());
    }

    #[test]
    fn spec_syntax_round_trips_the_interesting_shapes() {
        let plan = NetFaultPlan::parse("seed=7,after=3,kind=short-io,count=2,stall_ms=5").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.fail_after, Some((3, NetFaultKind::ShortIo, 2)));
        assert_eq!(plan.stall, Duration::from_millis(5));
        assert_eq!(plan.p_fail, 0.0);

        let plan = NetFaultPlan::parse("p=0.25,pkind=stall").unwrap();
        assert_eq!(plan.p_fail, 0.25);
        assert_eq!(plan.p_kind, NetFaultKind::Stall);
        assert!(!plan.is_idle());

        // `kind` doubles as the probabilistic kind when `pkind` is absent
        let plan = NetFaultPlan::parse("kind=accept,p=0.1").unwrap();
        assert_eq!(plan.p_kind, NetFaultKind::AcceptFail);

        assert!(NetFaultPlan::parse("").unwrap().is_idle());
        assert!(NetFaultPlan::parse("p=2.0").is_err());
        assert!(NetFaultPlan::parse("bogus=1").is_err());
        assert!(NetFaultPlan::parse("kind=volcano").is_err());
        assert!(NetFaultPlan::parse("seed").is_err());
    }
}
