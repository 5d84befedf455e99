//! Simulated process groups: scoped worker threads + abortable barriers.

use std::sync::{Condvar, Mutex};
use std::time::Duration;
use tce_disksim::lock::{lock, wait_timeout};

/// How long a barrier waiter sleeps between checks of its release
/// condition when no notify arrives (a release or abort notifies at once).
const BARRIER_POLL: Duration = Duration::from_millis(50);

struct BarrierState {
    arrived: usize,
    generation: u64,
    aborted: bool,
}

/// A reusable barrier that any participant can *abort*: when a rank fails
/// (e.g. an injected disk error) it calls [`AbortableBarrier::abort`] and
/// every current and future waiter returns `false` instead of blocking
/// forever — the failure-propagation primitive the parallel executor
/// needs to unwind cleanly.
pub struct AbortableBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl AbortableBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        AbortableBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all participants. Returns `true` on a normal release,
    /// `false` if the barrier was aborted (now or earlier).
    pub fn wait(&self) -> bool {
        let mut st = lock(&self.state);
        if st.aborted {
            return false;
        }
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !st.aborted {
            st = wait_timeout(&self.cv, st, BARRIER_POLL);
        }
        !st.aborted
    }

    /// Aborts the barrier: wakes every waiter with `false` and makes all
    /// future waits return `false` immediately.
    pub fn abort(&self) {
        let mut st = lock(&self.state);
        st.aborted = true;
        self.cv.notify_all();
    }

    /// True if the barrier has been aborted.
    pub fn is_aborted(&self) -> bool {
        lock(&self.state).aborted
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
    /// Collective barrier: blocks until every rank arrives.
    ///
    /// # Panics
    ///
    /// Panics if the group was aborted — use [`ProcCtx::barrier_or_abort`]
    /// in code that handles failures.
    pub fn barrier(&self) {
        assert!(self.barrier.wait(), "process group aborted");
    }

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

    /// The contiguous chunk `[start, end)` of `0..n` owned by this rank
    /// under an even block partition (first ranks take the remainder).
    pub fn my_chunk(&self, n: u64) -> (u64, u64) {
        chunk(n, self.rank, self.nproc)
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

/// Runs `f` on `nproc` simulated processes (scoped threads) and
/// returns the per-rank results in rank order. Panics in any rank
/// propagate.
pub fn run_parallel<T, F>(nproc: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ProcCtx<'_>) -> T + Sync,
{
    assert!(nproc >= 1, "need at least one process");
    let barrier = AbortableBarrier::new(nproc);
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
            ctx.barrier();
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
    fn single_process_group_works() {
        let out = run_parallel(1, |ctx| {
            assert_eq!(ctx.nproc, 1);
            ctx.barrier();
            ctx.my_chunk(100)
        });
        assert_eq!(out, vec![(0, 100)]);
    }
}
