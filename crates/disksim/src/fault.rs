//! Deterministic, seeded fault schedules: one mechanism for every layer
//! that injects faults — the simulated disks here, the cache's and
//! journal's filesystem operations (`tce_cache::fsfault`) and the serve
//! daemon's sockets (`tce_serve::netfault`).
//!
//! A [`Schedule`] fails `count` consecutive operations with one kind
//! after `N` successful ones, then recovers (a kind that
//! [latches](FaultKind::latches) never does), and independently fails
//! each operation with probability `p_fail`. Every draw comes from a
//! stream derived from the seed and a rank, so identical seeds reproduce
//! identical fault histories on every run and platform, with no
//! wall-clock dependence. An [`Injector`] shares one stream across
//! threads, and [`Schedule::parse`] is the one `key=value` spec grammar.
//! Each layer adds only its [`FaultKind`] enum, the I/O action of each
//! kind, and its extras — for the disk, a [`FaultPlan`] of per-rank
//! [`DiskFaults`] with latency spikes, charged to [`crate::IoStats`]
//! (`faulted_ops`, `fault_time_s`) so cost accounting stays honest.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};

/// One layer's set of injectable failures.
pub trait FaultKind: Copy + Eq + Default + fmt::Debug + Send + Sync + 'static {
    /// Every kind; spec tags are matched against their [`FaultKind::tag`]s.
    const ALL: &'static [Self];

    /// Stable lower-case tag, used in specs, error messages and test
    /// assertions.
    fn tag(self) -> &'static str;

    /// The kind a spec tag names.
    fn from_tag(tag: &str) -> Result<Self, String> {
        let found = Self::ALL.iter().copied().find(|k| k.tag() == tag);
        found.ok_or_else(|| {
            let tags: Vec<_> = Self::ALL.iter().map(|k| k.tag()).collect();
            format!("unknown fault kind `{tag}` (expected {})", tags.join("|"))
        })
    }

    /// The kind `after=` fires when a spec names none. Probabilistic
    /// faults default to [`Default::default`].
    fn trigger() -> Self {
        Self::default()
    }

    /// True if a fault of this kind never clears once fired.
    fn latches(self) -> bool {
        false
    }
}

/// A deterministic, seeded fault schedule. The default is fault-free.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule<K> {
    /// Seed for probabilistic draws; identical seeds reproduce identical
    /// fault histories.
    pub seed: u64,
    /// Deterministic trigger: after this many *successful* operations,
    /// inject `count` consecutive faults of the given kind, then recover.
    pub fail_after: Option<(u64, K, u64)>,
    /// Per-operation probability of an independent injected fault.
    pub p_fail: f64,
    /// The kind injected by probabilistic faults.
    pub p_kind: K,
}

impl<K: FaultKind> Schedule<K> {
    /// A fault-free schedule.
    pub fn none() -> Self {
        Schedule::default()
    }

    /// Sets the seed for probabilistic draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// After `ops` successful operations, inject `count` consecutive
    /// faults of `kind`, then recover.
    pub fn fail_after(mut self, ops: u64, kind: K, count: u64) -> Self {
        self.fail_after = Some((ops, kind, count));
        self
    }

    /// Each operation independently fails with probability `p`, as `kind`.
    pub fn probabilistic(mut self, p: f64, kind: K) -> Self {
        self.p_fail = p;
        self.p_kind = kind;
        self
    }

    /// True if this schedule can never affect an operation.
    pub fn is_idle(&self) -> bool {
        self.fail_after.is_none() && self.p_fail <= 0.0
    }

    /// The live state of stream `rank`. Streams decorrelate ranks
    /// splitmix-style: adjacent ranks land far apart in seed space.
    pub(crate) fn state(&self, rank: usize) -> FaultState<K> {
        let stream_seed = self.seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        FaultState {
            schedule: self.clone(),
            rng: StdRng::seed_from_u64(stream_seed),
            ops_seen: 0,
            burst: None,
        }
    }

    /// The shared injector for stream `rank`, or `None` for an idle
    /// schedule — so a fault-free run never takes the injector's lock.
    pub fn injector(&self, rank: usize) -> Option<Arc<Injector<K>>> {
        (!self.is_idle()).then(|| Arc::new(Injector(Mutex::new(self.state(rank)))))
    }

    /// Parses comma-separated `key=value` pairs onto this schedule.
    ///
    /// Shared keys: `seed=N`; `after=N` with `kind=TAG[:COUNT]` or
    /// `count=N` (the layer's trigger kind, once, by default); `p=F` with
    /// `pkind=TAG` (by default `kind` unless it latches, else the layer's
    /// default). Zero counts are rejected; any other key goes to `other`.
    pub fn parse(
        mut self,
        spec: &str,
        mut other: impl FnMut(&str, &str) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut after = None;
        let mut kind = None;
        let mut count = 1;
        let mut p = None;
        let mut p_kind = None;
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}` is not a key=value pair"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => self.seed = parse_num(key, value)?,
                "after" => after = Some(parse_num(key, value)?),
                "kind" => {
                    let tag = match value.split_once(':') {
                        Some((tag, n)) => {
                            count = parse_num(key, n)?;
                            tag
                        }
                        None => value,
                    };
                    kind = Some(K::from_tag(tag)?);
                }
                "count" => count = parse_num(key, value)?,
                "p" => {
                    let v = value.parse().ok().filter(|p| (0.0..=1.0).contains(p));
                    p = Some(v.ok_or_else(|| {
                        format!("p= needs a probability in [0, 1], got `{value}`")
                    })?);
                }
                "pkind" => p_kind = Some(K::from_tag(value)?),
                _ => other(key, value)?,
            }
        }
        if count == 0 {
            return Err("a fault count must be at least 1".into());
        }
        match after {
            Some(ops) => self.fail_after = Some((ops, kind.unwrap_or_else(K::trigger), count)),
            None if kind.is_some() && p.is_none() => return Err("kind= needs after= or p=".into()),
            None => {}
        }
        if let Some(p) = p {
            self.p_fail = p;
            self.p_kind = p_kind.or(kind.filter(|k| !k.latches())).unwrap_or_default();
        }
        Ok(self)
    }
}

fn parse_num(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{key}= needs an integer, got `{value}`"))
}

/// Live state of one fault stream: the schedule plus its seeded RNG.
pub(crate) struct FaultState<K> {
    schedule: Schedule<K>,
    rng: StdRng,
    /// Successful operations seen so far (the `fail_after` clock).
    ops_seen: u64,
    /// The kind of a fired fault still in force, and how many more
    /// operations it fails (a latching kind fails them all).
    burst: Option<(K, u64)>,
}

impl<K: FaultKind> FaultState<K> {
    /// Decides the fate of the next operation: `Some(kind)` fails it.
    /// Mutates the schedule clocks and consumes RNG draws, so call
    /// exactly once per attempt.
    pub(crate) fn decide(&mut self) -> Option<K> {
        if let Some((kind, left)) = self.burst {
            if !kind.latches() {
                self.burst = (left > 1).then_some((kind, left - 1));
            }
            return Some(kind);
        }
        if let Some((after, kind, count)) = self.schedule.fail_after {
            if self.ops_seen >= after {
                self.schedule.fail_after = None;
                return self.fire(kind, count);
            }
        }
        if self.draw(self.schedule.p_fail) {
            return self.fire(self.schedule.p_kind, 1);
        }
        self.ops_seen += 1;
        None
    }

    /// Fails this operation as the first of `count`.
    fn fire(&mut self, kind: K, count: u64) -> Option<K> {
        self.burst = (kind.latches() || count > 1).then_some((kind, count.saturating_sub(1)));
        Some(kind)
    }

    /// One Bernoulli draw from the stream (none at all for `p <= 0`).
    pub(crate) fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p)
    }
}

/// A fault stream shared across threads: the cache store, the journal
/// and the daemon each consult one injector from every worker.
pub struct Injector<K>(Mutex<FaultState<K>>);

impl<K: FaultKind> Injector<K> {
    /// Decides the fate of the next operation: `Some(kind)` fails it.
    /// Injection sites call it exactly once per operation.
    pub fn decide(&self) -> Option<K> {
        crate::lock::lock(&self.0).decide()
    }
}

/// The payload of an `io::Error` raised by an injection site, so callers
/// tell injected faults — and their kind — from real ones by type.
#[derive(Debug)]
pub struct Injected<K> {
    /// The injected kind.
    pub kind: K,
    /// The operation it failed (e.g. `rename`).
    pub op: &'static str,
}

impl<K: FaultKind> Injected<K> {
    /// The error an injection site raises for `kind` failing `op`.
    pub fn error(kind: K, op: &'static str) -> io::Error {
        io::Error::other(Injected { kind, op })
    }

    /// The injected kind behind `err`, if an injection site raised it.
    pub fn kind_of(err: &io::Error) -> Option<K> {
        err.get_ref()?.downcast_ref::<Self>().map(|i| i.kind)
    }
}

impl<K: FaultKind> fmt::Display for Injected<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {} during {}", self.kind.tag(), self.op)
    }
}

impl<K: FaultKind> std::error::Error for Injected<K> {}

/// How a simulated disk fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The operation fails; a retry layer can ride it out.
    #[default]
    Transient,
    /// The operation and every later one fail (the simulated equivalent
    /// of a dead spindle) until the disk is "replaced" with a new
    /// schedule.
    Permanent,
}

impl FaultKind for DiskFaultKind {
    const ALL: &'static [Self] = &[DiskFaultKind::Transient, DiskFaultKind::Permanent];

    fn tag(self) -> &'static str {
        match self {
            DiskFaultKind::Transient => "transient",
            DiskFaultKind::Permanent => "permanent",
        }
    }

    fn trigger() -> Self {
        DiskFaultKind::Permanent
    }

    fn latches(self) -> bool {
        self == DiskFaultKind::Permanent
    }
}

/// Fault schedule for one simulated disk. The default is fault-free.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskFaults {
    /// When operations fail. [`FaultPlan::disk`] sets its seed to the
    /// plan's.
    pub schedule: Schedule<DiskFaultKind>,
    /// Per-operation probability of a latency spike.
    pub p_spike: f64,
    /// Simulated seconds added by one latency spike.
    pub spike_s: f64,
}

impl DiskFaults {
    /// True if this schedule can never affect an operation.
    pub fn is_idle(&self) -> bool {
        self.schedule.is_idle() && self.p_spike <= 0.0
    }
}

/// A deterministic, seeded fault schedule for a set of simulated disks
/// (one entry per rank; disks beyond the vector are fault-free).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic draws. Each disk draws from its rank's
    /// stream, so two disks with identical schedules still see
    /// independent (but reproducible) fault histories.
    pub seed: u64,
    /// Per-disk schedules, indexed by rank.
    pub disks: Vec<DiskFaults>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the schedule of `rank`, growing the vector as needed.
    pub fn with_disk(mut self, rank: usize, spec: DiskFaults) -> Self {
        if self.disks.len() <= rank {
            self.disks.resize(rank + 1, DiskFaults::default());
        }
        self.disks[rank] = spec;
        self
    }

    /// Sets the seed for probabilistic draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: `rank`'s disk fails permanently after `ops`
    /// successful operations.
    pub fn permanent_after(rank: usize, ops: u64) -> Self {
        FaultPlan::trigger(rank, ops, DiskFaultKind::Permanent, 1)
    }

    /// Convenience: `rank`'s disk fails `count` consecutive operations
    /// starting after `ops` successful ones, then recovers.
    pub fn transient_after(rank: usize, ops: u64, count: u64) -> Self {
        FaultPlan::trigger(rank, ops, DiskFaultKind::Transient, count)
    }

    fn trigger(rank: usize, ops: u64, kind: DiskFaultKind, count: u64) -> Self {
        let mut spec = DiskFaults::default();
        spec.schedule = spec.schedule.fail_after(ops, kind, count);
        FaultPlan::none().with_disk(rank, spec)
    }

    /// The schedule for `rank` (fault-free if unspecified), seeded with
    /// the plan's seed.
    pub fn disk(&self, rank: usize) -> DiskFaults {
        let mut spec = self.disks.get(rank).cloned().unwrap_or_default();
        spec.schedule.seed = self.seed;
        spec
    }

    /// Removes the deterministic `fail_after` trigger of `rank` —
    /// "replacing the disk" between resume legs. Probabilistic transient
    /// faults stay active.
    pub fn clear_deterministic(&mut self, rank: usize) {
        if let Some(spec) = self.disks.get_mut(rank) {
            spec.schedule.fail_after = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DiskFaultKind::{Permanent, Transient};

    fn decisions(schedule: Schedule<DiskFaultKind>, n: usize) -> Vec<Option<DiskFaultKind>> {
        let mut st = schedule.state(0);
        (0..n).map(|_| st.decide()).collect()
    }

    #[test]
    fn permanent_latches_forever() {
        let got = decisions(Schedule::none().fail_after(2, Permanent, 1), 7);
        assert_eq!(got[..2], [None, None]);
        assert!(got[2..].iter().all(|d| *d == Some(Permanent)));
    }

    #[test]
    fn transient_clears_after_count() {
        let got = decisions(Schedule::none().fail_after(1, Transient, 3), 14);
        assert_eq!(got[0], None);
        assert!(got[1..4].iter().all(|d| *d == Some(Transient)));
        // recovered for good
        assert!(got[4..].iter().all(Option::is_none));
    }

    #[test]
    fn spikes_add_latency_without_failing() {
        let mut st = Schedule::<DiskFaultKind>::none().state(3);
        assert_eq!(st.decide(), None);
        assert!(st.draw(1.0));
        assert!(!st.draw(0.0));
    }

    #[test]
    fn plan_helpers() {
        let p = FaultPlan::permanent_after(2, 10).with_seed(9);
        assert_eq!(p.disk(0).schedule, Schedule::none().with_seed(9));
        assert_eq!(p.disk(2).schedule.fail_after, Some((10, Permanent, 1)));
        assert!(p.disk(3).is_idle());
        assert!(p.disk(3).schedule.injector(0).is_none());
        let mut p = p;
        p.clear_deterministic(2);
        assert!(p.disk(2).is_idle());
    }

    #[test]
    fn spec_grammar_covers_the_shared_keys() {
        let parse = |s| Schedule::<DiskFaultKind>::none().parse(s, |k, _| Err(k.to_string()));
        let s = parse("seed=3,after=5,kind=transient:2,p=0.25").unwrap();
        let want = Schedule::none()
            .with_seed(3)
            .fail_after(5, Transient, 2)
            .probabilistic(0.25, Transient);
        assert_eq!(s, want);
        // `after=` alone fires the layer's trigger kind once; `count=` and
        // `pkind=` spell the rest; a latching `kind` is never drawn by `p=`
        let s = parse("after=4").unwrap();
        assert_eq!(s.fail_after, Some((4, Permanent, 1)));
        let s = parse("after=4,kind=transient,count=3,p=0.5,pkind=permanent").unwrap();
        assert_eq!(s.fail_after, Some((4, Transient, 3)));
        assert_eq!(s.p_kind, Permanent);
        let s = parse("after=1,kind=permanent,p=0.1").unwrap();
        assert_eq!(s.p_kind, Transient);
        assert!(parse("").unwrap().is_idle());
        for bad in [
            "after=1,kind=transient:0",
            "after=1,count=0",
            "kind=permanent",
            "p=1.5",
            "after=x",
            "after",
            "kind=volcano",
            "banana=1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
