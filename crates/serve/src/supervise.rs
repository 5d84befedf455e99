//! Flight supervision: panic-safe single-flight coalescing with leader
//! promotion.
//!
//! The batch service deduplicates identical in-flight requests: the first
//! worker to claim a fingerprint becomes the *leader* and solves; workers
//! holding identical requests become *followers* and park on the flight
//! until it settles. The seed implementation had a liveness hole — a
//! leader that panicked (or errored between `begin` and `finish`) never
//! completed its flight, and every follower waited on the condvar
//! forever.
//!
//! This module closes that hole structurally:
//!
//! * leadership is a value, [`FlightGuard`] — an RAII guard whose `Drop`
//!   settles the flight as failed if the leader did not settle it
//!   explicitly. Unwinding out of the solve *is* the notification; there
//!   is no code path that leaves a follower parked;
//! * flights settle with a [`FlightEnd`] (success or a failure cause), so
//!   followers can distinguish "replay the leader's cached outcome" from
//!   "the leader died";
//! * when a flight fails, the flight is removed *before* followers wake,
//!   so exactly one woken follower re-begins as the new leader and
//!   retries — bounded by the caller's retry budget — while the rest park
//!   on the new flight;
//! * waiting is cancellable: followers poll their own job's
//!   [`CancelToken`] on a timed condvar wait, so a follower whose
//!   deadline expires while parked reports `deadline_exceeded` instead of
//!   inheriting the leader's fate;
//! * every participant holds an *interest* in the flight — the leader's
//!   own plus one per follower. Explicit cancellation releases interest
//!   via [`Flight::drop_interest`]; when the last interest drops while
//!   the flight is still unsettled, the leader's solve token (registered
//!   with [`Flight::lead_with`]) trips, so the solver abandons work
//!   nobody is waiting for at its next segment boundary. A follower that
//!   races in after the count hits zero is healed by the ordinary
//!   promotion path: the torn-down flight settles as failed and the
//!   late follower re-begins as a fresh leader.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tce_disksim::lock::{lock, wait_timeout};
use tce_solver::CancelToken;

/// How often a parked follower wakes to poll its cancel token.
const FOLLOWER_POLL: Duration = Duration::from_millis(25);

/// How a flight settled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightEnd {
    /// The leader completed; its outcome is in the cache.
    Success,
    /// The leader failed (error or panic) with this cause.
    Failed(String),
}

/// One in-flight solve; followers park here until the leader settles it.
pub struct Flight {
    state: Mutex<Option<FlightEnd>>,
    cv: Condvar,
    /// Waiters who still care about the outcome: the leader's own
    /// interest plus one per follower. See the module docs.
    interest: AtomicUsize,
    /// The leader's solve token, tripped when the last interest drops.
    leader_token: Mutex<Option<CancelToken>>,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
            interest: AtomicUsize::new(1),
            leader_token: Mutex::new(None),
        }
    }

    fn settle(&self, end: FlightEnd) {
        *lock(&self.state) = Some(end);
        self.cv.notify_all();
    }

    /// Registers the leader's solve token so [`Flight::drop_interest`]
    /// can tear the solve down once nobody is waiting. If every interest
    /// was already released before the leader got here, the token trips
    /// immediately.
    pub fn lead_with(&self, token: CancelToken) {
        let mut slot = lock(&self.leader_token);
        if self.interest.load(Ordering::SeqCst) == 0 && lock(&self.state).is_none() {
            token.cancel();
        }
        *slot = Some(token);
    }

    /// One more waiter cares about this flight's outcome.
    pub fn add_interest(&self) {
        self.interest.fetch_add(1, Ordering::SeqCst);
    }

    /// One waiter stopped caring (its job was canceled). When the last
    /// interest drops while the flight is still unsettled, the leader's
    /// solve token trips so the solver abandons work nobody wants.
    pub fn drop_interest(&self) {
        if self.interest.fetch_sub(1, Ordering::SeqCst) == 1 && lock(&self.state).is_none() {
            if let Some(token) = lock(&self.leader_token).clone() {
                token.cancel();
            }
        }
    }

    /// Waiters currently registered (diagnostics and tests).
    pub fn interest(&self) -> usize {
        self.interest.load(Ordering::SeqCst)
    }

    /// Parks until the flight settles or `cancel` trips. `None` means the
    /// wait was cancelled (the follower's own deadline fired).
    pub fn wait_with(&self, cancel: Option<&CancelToken>) -> Option<FlightEnd> {
        let mut state = lock(&self.state);
        loop {
            if let Some(end) = state.clone() {
                return Some(end);
            }
            if cancel.is_some_and(|c| c.is_canceled()) {
                return None;
            }
            state = wait_timeout(&self.cv, state, FOLLOWER_POLL);
        }
    }
}

/// Deduplicates identical in-flight requests by fingerprint.
#[derive(Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

/// What [`SingleFlight::begin`] handed this worker.
pub enum Role<'a> {
    /// This worker leads: it must solve, then settle the guard.
    Leader(FlightGuard<'a>),
    /// An identical request is already in flight; park on it.
    Follower(Arc<Flight>),
}

impl SingleFlight {
    /// Registers interest in `key`: the first caller leads (and receives
    /// the guard that *must* settle the flight), later callers get the
    /// flight to wait on.
    pub fn begin(&self, key: &str) -> Role<'_> {
        let mut flights = lock(&self.flights);
        if let Some(f) = flights.get(key) {
            f.add_interest();
            return Role::Follower(f.clone());
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key.to_string(), flight.clone());
        Role::Leader(FlightGuard {
            flights: self,
            key: key.to_string(),
            flight,
            settled: false,
        })
    }
}

/// Proof of leadership for one flight. Settling consumes the guard;
/// dropping it unsettled (the leader panicked out of the solve) settles
/// the flight as failed so followers can never be left parked.
pub struct FlightGuard<'a> {
    flights: &'a SingleFlight,
    key: String,
    flight: Arc<Flight>,
    settled: bool,
}

impl FlightGuard<'_> {
    /// The flight this guard leads (to register a solve token or attach
    /// a cancel handle).
    pub fn flight(&self) -> &Arc<Flight> {
        &self.flight
    }

    /// Settles the flight: the outcome is in the cache, followers replay.
    pub fn success(mut self) {
        self.settle(FlightEnd::Success);
    }

    /// Settles the flight as failed; one follower will be promoted to
    /// retry, the rest re-park.
    pub fn fail(mut self, cause: String) {
        self.settle(FlightEnd::Failed(cause));
    }

    fn settle(&mut self, end: FlightEnd) {
        self.settled = true;
        // unregister *before* waking followers, so the first follower to
        // re-begin becomes the new leader on a fresh flight
        lock(&self.flights.flights).remove(&self.key);
        self.flight.settle(end);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(FlightEnd::Failed("leader panicked".to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn dropped_guard_settles_as_failure() {
        let flights = SingleFlight::default();
        let follower = {
            let Role::Leader(guard) = flights.begin("k") else {
                panic!("first begin must lead")
            };
            let Role::Follower(f) = flights.begin("k") else {
                panic!("second begin must follow")
            };
            drop(guard); // simulated leader panic (unwind drops the guard)
            f
        };
        assert_eq!(
            follower.wait_with(None),
            Some(FlightEnd::Failed("leader panicked".to_string()))
        );
        // the key is free again: the next claimant is promoted to leader
        assert!(matches!(flights.begin("k"), Role::Leader(_)));
    }

    #[test]
    fn success_wakes_followers_across_threads() {
        let flights = SingleFlight::default();
        let Role::Leader(guard) = flights.begin("k") else {
            panic!("leader")
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let flights = &flights;
                    scope.spawn(move || match flights.begin("k") {
                        Role::Follower(f) => f.wait_with(None),
                        Role::Leader(_) => panic!("key is taken"),
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            guard.success();
            for h in handles {
                assert_eq!(h.join().unwrap(), Some(FlightEnd::Success));
            }
        });
    }

    #[test]
    fn last_interest_drop_trips_the_leader_token() {
        let flights = SingleFlight::default();
        let Role::Leader(guard) = flights.begin("k") else {
            panic!("leader")
        };
        let token = CancelToken::new();
        guard.flight().lead_with(token.clone());
        assert_eq!(guard.flight().interest(), 1, "leader's own interest");

        let Role::Follower(f) = flights.begin("k") else {
            panic!("follower")
        };
        assert_eq!(f.interest(), 2);

        // the leader's client cancels: a waiter remains, solve survives
        guard.flight().drop_interest();
        assert!(!token.is_canceled(), "a follower still wants the result");

        // the last waiter cancels: the solve is torn down
        f.drop_interest();
        assert!(token.is_canceled(), "nobody is waiting any more");
        drop(guard);
    }

    #[test]
    fn interest_released_before_leadership_trips_immediately() {
        let flights = SingleFlight::default();
        let Role::Leader(guard) = flights.begin("k") else {
            panic!("leader")
        };
        guard.flight().drop_interest();
        let token = CancelToken::new();
        guard.flight().lead_with(token.clone());
        assert!(token.is_canceled(), "cancel won the race with lead_with");
        drop(guard);
    }

    #[test]
    fn settled_flights_ignore_interest_drops() {
        let flights = SingleFlight::default();
        let Role::Leader(guard) = flights.begin("k") else {
            panic!("leader")
        };
        let token = CancelToken::new();
        guard.flight().lead_with(token.clone());
        let flight = guard.flight().clone();
        guard.success();
        flight.drop_interest();
        assert!(!token.is_canceled(), "settling beat the interest drop");
    }

    #[test]
    fn cancelled_follower_stops_waiting() {
        let flights = SingleFlight::default();
        let Role::Leader(_guard) = flights.begin("k") else {
            panic!("leader")
        };
        let Role::Follower(f) = flights.begin("k") else {
            panic!("follower")
        };
        // deadline already expired: the wait must return promptly even
        // though the flight never settles while we wait
        let token = CancelToken::with_deadline(Instant::now());
        let started = Instant::now();
        assert_eq!(f.wait_with(Some(&token)), None);
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
