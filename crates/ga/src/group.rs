//! Simulated process groups: scoped worker threads + abortable barriers.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;
use tce_disksim::lock::{lock, wait_timeout};

/// How long a parked barrier waiter sleeps between checks of its release
/// condition when no notify arrives (a release or abort notifies at once).
const BARRIER_POLL: Duration = Duration::from_millis(50);

/// Busy-wait rounds a barrier waiter spends before it starts yielding.
const SPIN_ROUNDS: u32 = 64;

/// `yield_now` rounds a barrier waiter spends before it parks. Yielding
/// (not spinning) is what keeps a group fast when its ranks share one
/// core: the waiter hands the core to the rank it waits for.
const YIELD_ROUNDS: u32 = 64;

/// A reusable barrier that any participant can *abort*: when a rank fails
/// (e.g. an injected disk error) it calls [`AbortableBarrier::abort`] and
/// every current and future waiter returns `false` instead of blocking
/// forever — the failure-propagation primitive the parallel executor
/// needs to unwind cleanly.
///
/// Arrivals are counted lock-free and waiters first watch the round
/// counter lock-free (a short spin, then `yield_now`); only then do they
/// park on the condvar, and a release takes the lock only when someone
/// parked. A barrier whose ranks arrive close together thus costs no
/// lock, sleep or wake-up system call.
pub struct AbortableBarrier {
    n: usize,
    /// Ranks arrived in the current round.
    arrived: AtomicUsize,
    /// Completed rounds.
    generation: AtomicU64,
    aborted: AtomicBool,
    /// Waiters parked (or about to park) on `cv`; changed under `lock`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl AbortableBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        AbortableBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Waits for all participants. Returns `true` on a normal release,
    /// `false` if the barrier was aborted (now or earlier) before this
    /// round completed.
    pub fn wait(&self) -> bool {
        if self.is_aborted() {
            return false;
        }
        // the round cannot complete before this rank arrives, so `gen` is
        // the current round
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _guard = lock(&self.lock);
                self.cv.notify_all();
            }
            return true;
        }
        let released = || self.generation.load(Ordering::SeqCst) != gen;
        for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
            if released() {
                return true;
            }
            if self.is_aborted() {
                // a release that raced the abort still completed the round
                return released();
            }
            if round < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut guard = lock(&self.lock);
        // announce the park before the last check; the releaser bumps the
        // round before it reads `parked`, so one of the two sees the other
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !released() && !self.is_aborted() {
            guard = wait_timeout(&self.cv, guard, BARRIER_POLL);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        released()
    }

    /// Aborts the barrier: wakes every waiter with `false` and makes all
    /// future waits return `false` immediately.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        let _guard = lock(&self.lock);
        self.cv.notify_all();
    }

    /// True if the barrier has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }
}

/// Per-rank context handed to the closure of [`run_parallel`].
pub struct ProcCtx<'a> {
    /// This process's rank, `0..nproc`.
    pub rank: usize,
    /// Number of processes in the group.
    pub nproc: usize,
    barrier: &'a AbortableBarrier,
}

impl ProcCtx<'_> {
    /// Collective barrier that reports aborts: `false` means some rank
    /// called [`ProcCtx::abort`] and the caller should unwind.
    pub fn barrier_or_abort(&self) -> bool {
        self.barrier.wait()
    }

    /// Aborts the whole group (wakes every barrier waiter).
    pub fn abort(&self) {
        self.barrier.abort();
    }

    /// True if the group was aborted.
    pub fn is_aborted(&self) -> bool {
        self.barrier.is_aborted()
    }
}

/// Block partition of `0..n` into `nproc` chunks; chunk `rank` is
/// `[start, end)`. Sizes differ by at most one.
pub fn chunk(n: u64, rank: usize, nproc: usize) -> (u64, u64) {
    let p = nproc as u64;
    let r = rank as u64;
    let base = n / p;
    let rem = n % p;
    let start = r * base + r.min(rem);
    let len = base + u64::from(r < rem);
    (start, start + len)
}

/// Runs `f` on `nproc` simulated processes (scoped threads; a single
/// process runs on the calling thread) and returns the per-rank results
/// in rank order. Panics in any rank propagate.
pub fn run_parallel<T, F>(nproc: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ProcCtx<'_>) -> T + Sync,
{
    assert!(nproc >= 1, "need at least one process");
    let barrier = AbortableBarrier::new(nproc);
    if nproc == 1 {
        return vec![f(&ProcCtx {
            rank: 0,
            nproc,
            barrier: &barrier,
        })];
    }
    let mut results: Vec<Option<T>> = (0..nproc).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, slot) in results.iter_mut().enumerate() {
            let barrier = &barrier;
            let f = &f;
            handles.push(scope.spawn(move || {
                let ctx = ProcCtx {
                    rank,
                    nproc,
                    barrier,
                };
                *slot = Some(f(&ctx));
            }));
        }
        for h in handles {
            h.join().expect("rank panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every rank produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_partition_evenly() {
        // 10 over 4 → 3,3,2,2
        let sizes: Vec<u64> = (0..4)
            .map(|r| {
                let (s, e) = chunk(10, r, 4);
                e - s
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // contiguous cover
        let mut cursor = 0;
        for r in 0..4 {
            let (s, e) = chunk(10, r, 4);
            assert_eq!(s, cursor);
            cursor = e;
        }
        assert_eq!(cursor, 10);
    }

    #[test]
    fn chunk_handles_small_n() {
        let (s, e) = chunk(1, 0, 4);
        assert_eq!((s, e), (0, 1));
        let (s, e) = chunk(1, 3, 4);
        assert_eq!(s, e); // empty
    }

    #[test]
    fn ranks_run_and_return_in_order() {
        let out = run_parallel(4, |ctx| ctx.rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn barrier_synchronizes() {
        let counter = AtomicU64::new(0);
        run_parallel(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            assert!(ctx.barrier_or_abort());
            // after the barrier every rank must observe all increments
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn abort_wakes_waiters_and_stays_aborted() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let released = AtomicU32::new(0);
        run_parallel(3, |ctx| {
            if ctx.rank == 2 {
                // never joins the barrier: aborts instead
                ctx.abort();
            } else {
                let ok = ctx.barrier_or_abort();
                assert!(!ok, "barrier must report the abort");
                released.fetch_add(1, Ordering::SeqCst);
            }
            // all future waits return immediately
            assert!(!ctx.barrier_or_abort());
            assert!(ctx.is_aborted());
        });
        assert_eq!(released.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let counter = AtomicU64::new(0);
        run_parallel(4, |ctx| {
            for round in 0..5u64 {
                counter.fetch_add(1, Ordering::SeqCst);
                assert!(ctx.barrier_or_abort());
                assert_eq!(counter.load(Ordering::SeqCst), (round + 1) * 4);
                assert!(ctx.barrier_or_abort());
            }
        });
    }

    #[test]
    fn barrier_stress_keeps_rounds_in_lockstep() {
        const ROUNDS: u64 = 10_000;
        let counter = AtomicU64::new(0);
        run_parallel(3, |ctx| {
            for round in 0..ROUNDS {
                counter.fetch_add(1, Ordering::SeqCst);
                assert!(ctx.barrier_or_abort());
                // every rank's increment of this round is visible, and no
                // rank has started the next one
                assert_eq!(counter.load(Ordering::SeqCst), 3 * (round + 1));
                assert!(ctx.barrier_or_abort());
            }
        });
        assert_eq!(counter.into_inner(), 3 * ROUNDS);
    }

    #[test]
    fn abort_while_peers_spin_fails_every_rank() {
        // the delay sweeps the abort across the waiters' spin, yield and
        // park phases
        for delay in 0..200u32 {
            let released = run_parallel(3, |ctx| {
                for _ in 0..10 {
                    assert!(ctx.barrier_or_abort());
                }
                if ctx.rank == 2 {
                    for _ in 0..delay * 16 {
                        std::hint::spin_loop();
                    }
                    if delay % 50 == 49 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.abort();
                }
                ctx.barrier_or_abort()
            });
            assert_eq!(released, vec![false; 3], "delay {delay}");
        }
    }

    #[test]
    fn single_process_group_works() {
        let out = run_parallel(1, |ctx| {
            assert_eq!(ctx.nproc, 1);
            assert!(ctx.barrier_or_abort());
            chunk(100, ctx.rank, ctx.nproc)
        });
        assert_eq!(out, vec![(0, 100)]);
    }
}
