//! The stable serve API: [`Server`] and its builder, covering batch,
//! JSON-lines, and the long-lived TCP daemon behind one configuration
//! surface.
//!
//! The daemon ([`Server::serve`]) speaks the length-prefixed JSON wire
//! protocol of [`crate::proto`] on a std-only TCP listener:
//!
//! * **admission control** — jobs enter a bounded queue
//!   ([`ServerBuilder::queue_cap`]); when it is full the job is refused
//!   *immediately* with a `queue_full` [`WireFrame::Rejected`] instead of
//!   building unbounded backlog (backpressure the client can see);
//! * **supervised workers** — the same worker pool as batch mode drains
//!   the queue: single-flight dedup, panic supervision with leader
//!   promotion, and per-job deadlines all apply unchanged;
//! * **graceful drain** — a [`WireFrame::Shutdown`] frame (or the
//!   caller's shutdown flag) stops admissions, answers new jobs with
//!   `shutting_down`, finishes everything already queued, then returns a
//!   final [`BatchReport`] whose summary carries per-request p50/p99
//!   latency;
//! * **journaling** — with a journal configured, every admission is
//!   written *ahead* of execution with its full spec, so
//!   [`Server::recover_journal`] can rebuild and finish the jobs of a
//!   killed daemon from the journal alone, merging already-completed
//!   reports verbatim — the same journal, and the same crash-resume
//!   bit-identity contract, as batch mode (see [`crate::journal`]);
//! * **cancellation** — a [`WireFrame::Cancel`] (or a connection
//!   teardown) cancels a prior admission by its client id: queued jobs
//!   are dequeued before any worker can start them, running jobs have
//!   their [`JobCancel`] handle tripped so the solver stops at its next
//!   segment boundary, and single-flight followers merely *detach* —
//!   the shared solve survives while any other waiter remains. Every
//!   cancel journals a `cancel` record ahead of the canceled report, so
//!   resume after a crash reaches the same terminal outcome;
//! * **deadline-aware shedding** — a job whose queue wait has already
//!   consumed its entire deadline budget is shed at worker pickup with
//!   a `deadline_unmeetable` [`WireFrame::Rejected`] carrying a
//!   `retry_after_ms` backoff hint, instead of being solved into a
//!   report its deadline already invalidated.

use crate::job::{percentile, BatchReport, JobReport, JobSpec};
use crate::journal::{self, JournalConfig, JournalWriter};
use crate::netfault::{self, NetFaultKind, NetFaultPlan, ReadOutcome};
use crate::proto::{self, FrameDecoder, JobRequest, ServeStats, WireFrame};
use crate::service::{
    final_report, process_job, resolve_workers, run_pool, JobCancel, NoHook, RunHook,
};
use crate::supervise::SingleFlight;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};
use tce_cache::SynthesisCache;
use tce_disksim::lock::{into_inner, lock, wait_timeout};
use tce_disksim::{Injector, Schedule};

/// Default bound on the daemon's admission queue.
pub const DEFAULT_QUEUE_CAP: usize = 64;

/// Default mid-frame read deadline: a connection holding a frame open
/// longer than this is a slow loris and is evicted.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// Default write timeout for response frames: a consumer slower than
/// this is disconnected so it cannot pin a worker.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often blocked daemon loops (the acceptor, idle workers) wake to
/// re-check the shutdown/drain flags.
const POLL: Duration = Duration::from_millis(20);

/// Longest a connection reader sleeps between wakeups when no guard
/// deadline is nearer. Idle readers do not spin: drain wakes every
/// reader *push-style* (the acceptor shuts each read half down), so
/// this tick is a backstop, not the drain latency.
const READ_POLL_CAP: Duration = Duration::from_millis(500);

/// Builder for a [`Server`]; start from [`Server::builder`].
#[derive(Clone)]
pub struct ServerBuilder {
    pub(crate) workers: usize,
    queue_cap: usize,
    pub(crate) job_timeout: Option<Duration>,
    journal: Option<JournalConfig>,
    max_conns: usize,
    idle_timeout: Option<Duration>,
    frame_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    net_faults: NetFaultPlan,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            workers: 0,
            queue_cap: DEFAULT_QUEUE_CAP,
            job_timeout: None,
            journal: None,
            max_conns: 0,
            idle_timeout: None,
            frame_timeout: Some(DEFAULT_FRAME_TIMEOUT),
            write_timeout: Some(DEFAULT_WRITE_TIMEOUT),
            net_faults: Schedule::none().into(),
        }
    }
}

impl ServerBuilder {
    /// Worker threads; `0` (the default) means one per available core.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Bound on the daemon's admission queue (jobs waiting for a
    /// worker); beyond it jobs are rejected with `queue_full`. Clamped
    /// to at least 1.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Batch-wide per-job deadline (a job's own `timeout_ms` overrides).
    pub fn job_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.job_timeout = timeout;
        self
    }

    /// Write-ahead journal configuration; `None` disables journaling.
    pub fn journal(mut self, journal: Option<JournalConfig>) -> Self {
        self.journal = journal;
        self
    }

    /// Maximum concurrently open client connections; beyond it a fresh
    /// connection is answered with an `overloaded`
    /// [`WireFrame::Rejected`] (id `0` — no job was read) and closed.
    /// `0` (the default) means unlimited.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.max_conns = n;
        self
    }

    /// Evicts a connection with no wire activity for this long while
    /// *between* frames; `None` (the default) keeps idle connections
    /// forever.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Evicts a connection stuck *mid-frame* for this long — the
    /// slow-loris guard. Defaults to [`DEFAULT_FRAME_TIMEOUT`]; `None`
    /// disables it.
    pub fn frame_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.frame_timeout = timeout;
        self
    }

    /// Write timeout for response frames; a consumer slower than this
    /// is disconnected (its queued jobs still run and journal, only
    /// delivery stops). Defaults to [`DEFAULT_WRITE_TIMEOUT`].
    pub fn write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Seeded network fault schedule injected into the daemon's
    /// accepts, reads, and frame writes (chaos testing; the default is
    /// fault-free).
    pub fn net_faults(mut self, plan: impl Into<NetFaultPlan>) -> Self {
        self.net_faults = plan.into();
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Server {
        Server { config: self }
    }
}

/// The synthesis server: one configuration, three entry points
/// ([`Server::run_batch`], [`Server::run_lines`], [`Server::serve`]).
pub struct Server {
    config: ServerBuilder,
}

impl Server {
    /// Starts configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Runs a batch of jobs to completion (the one-shot `--batch` mode).
    /// Reports come back in submission order. Only journal setup can
    /// fail.
    pub fn run_batch(
        &self,
        jobs: &[JobSpec],
        cache: &SynthesisCache,
    ) -> Result<BatchReport, String> {
        self.run_batch_hooked(jobs, cache, &NoHook)
    }

    /// The batch behind [`Server::run_batch`]. A resumed journal must
    /// have admitted a prefix of `jobs`; the jobs past it are admitted
    /// write-ahead, then everything the journal has not settled runs.
    pub(crate) fn run_batch_hooked(
        &self,
        jobs: &[JobSpec],
        cache: &SynthesisCache,
        hook: &dyn RunHook,
    ) -> Result<BatchReport, String> {
        let started = Instant::now();
        let (writer, settled) = match &self.config.journal {
            Some(cfg) => {
                let faults = cfg.faults.injector(1);
                let (writer, state) =
                    JournalWriter::open_replayed(&cfg.path, cfg.resume, Some(jobs), faults)?;
                let (admitted, settled) = state.recovery();
                for (idx, spec) in jobs.iter().enumerate().skip(admitted.len()) {
                    writer.admit(idx, spec);
                }
                (Some(writer), settled)
            }
            None => (None, HashMap::new()),
        };
        let pooled = run_pool(jobs, settled, &self.config, writer.as_ref(), cache, hook);
        let workers = resolve_workers(self.config.workers).min(jobs.len().max(1));
        Ok(final_report(
            pooled,
            Vec::new(),
            Vec::new(),
            workers,
            started,
        ))
    }

    /// Runs JSON-lines input (one job object per non-empty line) and
    /// renders one report line per job plus a summary line.
    pub fn run_lines(
        &self,
        input: &str,
        cache: &SynthesisCache,
    ) -> Result<(BatchReport, String), String> {
        let jobs = crate::service::parse_lines(input)?;
        let report = self.run_batch(&jobs, cache)?;
        let out = crate::service::render_lines(&report)?;
        Ok((report, out))
    }

    /// Recovers a killed daemon's (or batch's) work from its journal
    /// *without* serving or writing: admitted-but-unsettled jobs re-run
    /// on this server's worker pool, settled jobs merge verbatim, and the
    /// merged report's outcome projection is bit-identical to what the
    /// uninterrupted run would have produced for the admitted jobs.
    pub fn recover_journal(
        &self,
        path: &Path,
        cache: &SynthesisCache,
    ) -> Result<BatchReport, String> {
        self.recover_hooked(path, cache, &NoHook)
    }

    pub(crate) fn recover_hooked(
        &self,
        path: &Path,
        cache: &SynthesisCache,
        hook: &dyn RunHook,
    ) -> Result<BatchReport, String> {
        let started = Instant::now();
        let (specs, settled) = journal::replay(path)?.recovery();
        let pooled = run_pool(&specs, settled, &self.config, None, cache, hook);
        Ok(final_report(
            pooled,
            Vec::new(),
            Vec::new(),
            resolve_workers(self.config.workers),
            started,
        ))
    }

    /// Runs the long-lived daemon on `listener` until `shutdown` is set
    /// or a client sends [`WireFrame::Shutdown`], then drains gracefully
    /// and returns the final report over everything served. See the
    /// module docs for the protocol semantics.
    pub fn serve(
        &self,
        listener: TcpListener,
        cache: &SynthesisCache,
        shutdown: &AtomicBool,
    ) -> Result<BatchReport, String> {
        self.serve_hooked(listener, cache, shutdown, &NoHook)
    }

    pub(crate) fn serve_hooked(
        &self,
        listener: TcpListener,
        cache: &SynthesisCache,
        shutdown: &AtomicBool,
        hook: &dyn RunHook,
    ) -> Result<BatchReport, String> {
        let workers = resolve_workers(self.config.workers);
        let started = Instant::now();

        // resuming finishes the previous run's jobs first, journaling
        // their `done`s here, then keeps appending to the same journal
        // with admission indices continuing where it left off
        let (writer, recovered) = match &self.config.journal {
            Some(cfg) => {
                let faults = cfg.faults.injector(1);
                let (writer, state) =
                    JournalWriter::open_replayed(&cfg.path, cfg.resume, None, faults)?;
                let (specs, settled) = state.recovery();
                let recovered = run_pool(&specs, settled, &self.config, Some(&writer), cache, hook);
                (Some(writer), recovered)
            }
            None => (None, Vec::new()),
        };
        let writer = writer.as_ref();

        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll listener: {e}"))?;

        let state = DaemonState {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            canceled: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
            base_idx: recovered.len(),
            queue_cap: self.config.queue_cap,
            workers: workers as u64,
            max_conns: self.config.max_conns,
            conns_open: AtomicU64::new(0),
            conns_total: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        };
        let guards = ConnGuards {
            idle_timeout: self.config.idle_timeout,
            frame_timeout: self.config.frame_timeout,
            write_timeout: self.config.write_timeout,
            net_stall: self.config.net_faults.stall,
        };
        let net = self.config.net_faults.schedule.injector(0);
        let live: Mutex<Vec<(usize, JobReport)>> = Mutex::new(Vec::new());
        let flights = SingleFlight::default();

        std::thread::scope(|scope| {
            let state = &state;
            let live = &live;
            let flights = &flights;
            let opts = &self.config;
            let guards = &guards;
            let net = &net;
            for _ in 0..workers {
                scope.spawn(move || worker_loop(state, writer, cache, flights, opts, hook, live));
            }
            // the acceptor runs here, on the serve thread itself
            loop {
                if shutdown.load(Ordering::Relaxed) || state.draining.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        if netfault::accept_fails(net.as_deref()) {
                            continue; // injected accept-time failure
                        }
                        if state.max_conns > 0
                            && state.conns_open.load(Ordering::Relaxed) >= state.max_conns as u64
                        {
                            // explicit refusal the client can see and
                            // back off from, instead of a silent close
                            state.overloaded.fetch_add(1, Ordering::Relaxed);
                            let _ = proto::write_frame(
                                &mut stream,
                                &WireFrame::Rejected {
                                    id: 0,
                                    reason: "overloaded".to_string(),
                                    retry_after_ms: None,
                                },
                            );
                            continue;
                        }
                        state.conns_total.fetch_add(1, Ordering::Relaxed);
                        state.conns_open.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || {
                            conn_loop(stream, state, writer, guards, net.as_ref(), live)
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    // transient accept errors (aborted handshakes etc.):
                    // stay up, the listener is still healthy
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            state.draining.store(true, Ordering::Relaxed);
            state.cv.notify_all();
            // push-style reader wakeup: shut every connection's read
            // half down so drain latency is independent of how long
            // idle readers sleep (their write halves stay open — queued
            // reports still reach their clients)
            state.wake_readers();
        });

        // final report: recovered jobs first, then everything served
        // live, in admission order. `live` is collected in place, so no
        // report is held twice.
        let mut live = into_inner(live);
        live.sort_by_key(|(idx, _)| *idx);
        let live = live.into_iter().map(|(_, r)| r).collect();
        let report = final_report(
            recovered,
            live,
            into_inner(state.latencies),
            workers,
            started,
        );
        if let Some(w) = writer {
            w.stats(
                state.completed.load(Ordering::Relaxed),
                state.rejected.load(Ordering::Relaxed),
                report.summary.p50_s,
                report.summary.p99_s,
            );
        }
        Ok(report)
    }
}

/// Shared daemon state: the bounded admission queue plus lifetime
/// counters, all owned by `serve_hooked`'s stack frame and borrowed by
/// every worker and connection thread.
struct DaemonState {
    queue: Mutex<VecDeque<QueuedJob>>,
    cv: Condvar,
    draining: AtomicBool,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    /// Jobs canceled by an explicit `cancel` frame or a connection
    /// teardown.
    canceled: AtomicU64,
    /// Jobs shed at worker pickup because their queue wait had already
    /// consumed their deadline budget.
    deadline_shed: AtomicU64,
    latencies: Mutex<Vec<f64>>,
    /// First live admission index (recovered jobs occupy `0..base_idx`).
    base_idx: usize,
    queue_cap: usize,
    workers: u64,
    /// Open-connection ceiling; `0` means unlimited.
    max_conns: usize,
    conns_open: AtomicU64,
    conns_total: AtomicU64,
    /// Connections refused at accept (`max_conns` reached).
    overloaded: AtomicU64,
    /// Connections closed by a guard (idle/mid-frame deadline, slow
    /// consumer).
    evicted: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    /// Live connections, for the push-style drain wakeup.
    conns: Mutex<Vec<Weak<ConnWriter>>>,
}

impl DaemonState {
    fn stats(&self) -> ServeStats {
        let mut latencies = lock(&self.latencies).clone();
        latencies.sort_by(f64::total_cmp);
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            canceled: self.canceled.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            queue_depth: lock(&self.queue).len() as u64,
            workers: self.workers,
            p50_s: percentile(&latencies, 50.0),
            p99_s: percentile(&latencies, 99.0),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_total: self.conns_total.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
        }
    }

    /// Backoff hint for a `deadline_unmeetable` shed: roughly how long
    /// until the current backlog clears (queue waves × p50 latency),
    /// clamped to a sane band so the hint is always actionable.
    fn retry_after_ms(&self) -> u64 {
        let mut latencies = lock(&self.latencies).clone();
        latencies.sort_by(f64::total_cmp);
        let p50 = percentile(&latencies, 50.0).max(0.005);
        let depth = lock(&self.queue).len() as f64;
        let waves = (depth / self.workers.max(1) as f64).ceil().max(1.0);
        ((waves * p50 * 1000.0) as u64).clamp(10, 5_000)
    }

    fn register_conn(&self, conn: &Arc<ConnWriter>) {
        let mut conns = lock(&self.conns);
        conns.retain(|w| w.strong_count() > 0);
        conns.push(Arc::downgrade(conn));
    }

    /// Wakes every connection reader by shutting its read half down;
    /// write halves stay open so queued reports still deliver.
    fn wake_readers(&self) {
        for conn in lock(&self.conns).iter().filter_map(Weak::upgrade) {
            conn.wake_reader();
        }
    }
}

/// Per-connection guard deadlines, shared by every reader thread.
struct ConnGuards {
    idle_timeout: Option<Duration>,
    frame_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    net_stall: Duration,
}

/// One admitted, not-yet-finished job.
struct QueuedJob {
    idx: usize,
    id: u64,
    spec: JobSpec,
    conn: Arc<ConnWriter>,
    enqueued: Instant,
    /// Admission-time cancel handle, shared with the connection's
    /// cancel registry.
    cancel: JobCancel,
}

/// The write half of one client connection, shared between its reader
/// thread and every worker that finishes one of its jobs. The lock keeps
/// concurrently written frames from interleaving bytes.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    /// Set on the first failed write (or a guard eviction); later sends
    /// are dropped without blocking a worker.
    dead: AtomicBool,
    faults: Option<Arc<Injector<NetFaultKind>>>,
    /// How long an injected stall blocks a write.
    stall: Duration,
    /// Per-connection delivery accounting.
    bytes_out: AtomicU64,
    frames_out: AtomicU64,
    /// Cancel registry: this connection's admitted, not-yet-terminal
    /// jobs by client id. Cancel decisions (trip + journal `cancel`)
    /// and the worker's terminal-report decision are both taken under
    /// this lock, so a `cancel` record and a non-canceled `done` can
    /// never both be written for one job.
    inflight: Mutex<HashMap<u64, (usize, JobCancel)>>,
}

/// What one best-effort frame send did.
enum SendOutcome {
    /// The frame left this process (and was counted under the lock).
    Sent,
    /// The connection was already condemned; nothing was written.
    Dead,
    /// The write timed out — the consumer is too slow and has just been
    /// disconnected (the caller should count an eviction).
    SlowConsumer,
}

impl ConnWriter {
    /// Best-effort send: a client that hung up simply stops receiving,
    /// and one that stops reading (write timeout) is disconnected so it
    /// cannot pin workers. Delivery accounting (per-connection and
    /// daemon-wide) is updated *while the stream lock is still held*,
    /// so a stats snapshot taken under the same lock can never miss a
    /// frame the client has already received.
    fn send(&self, state: &DaemonState, frame: &WireFrame) -> SendOutcome {
        if self.dead.load(Ordering::Relaxed) {
            return SendOutcome::Dead;
        }
        let Ok(bytes) = proto::frame_bytes(frame) else {
            return SendOutcome::Dead;
        };
        let mut stream = lock(&self.stream);
        match netfault::write_all(self.faults.as_deref(), self.stall, &mut stream, &bytes) {
            Ok(()) => {
                self.bytes_out
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                self.frames_out.fetch_add(1, Ordering::Relaxed);
                state
                    .bytes_out
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                state.frames_out.fetch_add(1, Ordering::Relaxed);
                SendOutcome::Sent
            }
            Err(e) => {
                self.dead.store(true, Ordering::Relaxed);
                let _ = stream.shutdown(Shutdown::Both);
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if timed_out {
                    SendOutcome::SlowConsumer
                } else {
                    SendOutcome::Dead
                }
            }
        }
    }

    /// Condemns the connection and shuts it down entirely (guard
    /// eviction).
    fn hangup(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = lock(&self.stream).shutdown(Shutdown::Both);
    }

    /// Shuts only the read half down, waking a blocked reader thread;
    /// queued reports still deliver on the write half.
    fn wake_reader(&self) {
        let _ = lock(&self.stream).shutdown(Shutdown::Read);
    }
}

/// Sends through `conn` (which rolls delivered bytes/frames into the
/// daemon-wide accounting under the stream lock) and counts
/// slow-consumer evictions.
fn send_tracked(state: &DaemonState, conn: &ConnWriter, frame: &WireFrame) {
    match conn.send(state, frame) {
        SendOutcome::Sent | SendOutcome::Dead => {}
        SendOutcome::SlowConsumer => {
            state.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Worker: pop → solve → journal done → report to the connection. Exits
/// when draining and the queue is empty.
fn worker_loop(
    state: &DaemonState,
    writer: Option<&JournalWriter>,
    cache: &SynthesisCache,
    flights: &SingleFlight,
    opts: &ServerBuilder,
    hook: &dyn RunHook,
    live: &Mutex<Vec<(usize, JobReport)>>,
) {
    loop {
        let job = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if state.draining.load(Ordering::Relaxed) {
                    break None;
                }
                q = wait_timeout(&state.cv, q, POLL);
            }
        };
        let Some(job) = job else { return };
        let wait = job.enqueued.elapsed();
        let queue_wait_s = wait.as_secs_f64();
        // deadline-aware admission: a job whose queue wait has already
        // consumed its entire deadline budget cannot meet its deadline
        // any more — shed it with an explicit rejection the client can
        // back off from, instead of solving into a dead report
        let budget = job
            .spec
            .timeout_ms
            .map(Duration::from_millis)
            .or(opts.job_timeout);
        if job.cancel.is_canceled() || budget.is_some_and(|b| wait >= b) {
            // terminal without ever starting: canceled while queued
            // (popped before the cancel path could dequeue it) or shed.
            // The decision is taken under the registry lock so a cancel
            // frame cannot interleave with the journal write.
            let canceled = {
                let mut inflight = lock(&job.conn.inflight);
                if inflight
                    .get(&job.id)
                    .is_some_and(|(_, h)| h.same(&job.cancel))
                {
                    inflight.remove(&job.id);
                }
                job.cancel.is_canceled()
            };
            let report = if canceled {
                JobReport::canceled(&job.spec.name, "", queue_wait_s)
            } else {
                JobReport::failed(
                    &job.spec.name,
                    "",
                    "deadline budget consumed while queued".to_string(),
                    queue_wait_s,
                )
                .kind("deadline_exceeded")
            };
            if let Some(w) = writer {
                w.done(job.idx, &report);
            }
            state.completed.fetch_add(1, Ordering::Relaxed);
            if canceled {
                send_tracked(
                    state,
                    &job.conn,
                    &WireFrame::Report {
                        id: job.id,
                        report: report.clone(),
                    },
                );
            } else {
                state.deadline_shed.fetch_add(1, Ordering::Relaxed);
                state.rejected.fetch_add(1, Ordering::Relaxed);
                send_tracked(
                    state,
                    &job.conn,
                    &WireFrame::Rejected {
                        id: job.id,
                        reason: "deadline_unmeetable".to_string(),
                        retry_after_ms: Some(state.retry_after_ms()),
                    },
                );
            }
            lock(live).push((job.idx, report));
            continue;
        }
        let report = process_job(
            &job.spec,
            cache,
            flights,
            queue_wait_s,
            opts,
            hook,
            Some(&job.cancel),
        );
        // deregister and take the final cancel decision under the same
        // lock the cancel path trips handles under: once a `cancel`
        // record is journaled, the `done` record *will* carry the
        // canonical canceled report, no matter how the solve raced
        let report = {
            let mut inflight = lock(&job.conn.inflight);
            if inflight
                .get(&job.id)
                .is_some_and(|(_, h)| h.same(&job.cancel))
            {
                inflight.remove(&job.id);
            }
            if job.cancel.is_canceled() {
                JobReport::canceled(&job.spec.name, "", queue_wait_s)
            } else {
                report
            }
        };
        if let Some(w) = writer {
            w.done(job.idx, &report);
        }
        lock(&state.latencies).push(job.enqueued.elapsed().as_secs_f64());
        state.completed.fetch_add(1, Ordering::Relaxed);
        send_tracked(
            state,
            &job.conn,
            &WireFrame::Report {
                id: job.id,
                report: report.clone(),
            },
        );
        lock(live).push((job.idx, report));
    }
}

/// Connection reader: accumulate bytes into a [`FrameDecoder`], admit
/// jobs, answer stats, initiate shutdown. The read timeout is
/// *deadline-aware*: it sleeps until the nearest guard deadline (idle
/// or mid-frame) instead of spinning on a fixed tick, and drain wakes
/// it push-style via [`ConnWriter::wake_reader`]. The write half lives
/// on in each queued job's `Arc<ConnWriter>`, so reports still reach
/// the client after this loop ends.
fn conn_loop(
    mut reader: TcpStream,
    state: &DaemonState,
    writer: Option<&JournalWriter>,
    guards: &ConnGuards,
    faults: Option<&Arc<Injector<NetFaultKind>>>,
    live: &Mutex<Vec<(usize, JobReport)>>,
) {
    let _ = reader.set_nodelay(true);
    let Ok(write_half) = reader.try_clone() else {
        state.conns_open.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    if let Some(t) = guards.write_timeout {
        let _ = write_half.set_write_timeout(Some(t));
    }
    let conn = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
        dead: AtomicBool::new(false),
        faults: faults.cloned(),
        stall: guards.net_stall,
        bytes_out: AtomicU64::new(0),
        frames_out: AtomicU64::new(0),
        inflight: Mutex::new(HashMap::new()),
    });
    state.register_conn(&conn);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    // `last_activity` advances on every delivered byte; `frame_started`
    // marks when the current *partial* frame began (slow-loris clock)
    let mut last_activity = Instant::now();
    let mut frame_started: Option<Instant> = None;
    loop {
        if state.draining.load(Ordering::Relaxed) {
            send_tracked(state, &conn, &WireFrame::ShuttingDown);
            break;
        }
        // the nearest armed guard deadline, if any
        let now = Instant::now();
        let deadline: Option<(Instant, &str)> = match (frame_started, guards.frame_timeout) {
            (Some(started), Some(t)) => Some((started + t, "frame_timeout")),
            _ => guards
                .idle_timeout
                .filter(|_| frame_started.is_none())
                .map(|t| (last_activity + t, "idle_timeout")),
        };
        if let Some((at, why)) = deadline {
            if now >= at {
                state.evicted.fetch_add(1, Ordering::Relaxed);
                send_tracked(
                    state,
                    &conn,
                    &WireFrame::ProtocolError {
                        reason: why.to_string(),
                    },
                );
                conn.hangup();
                break;
            }
            let _ = reader.set_read_timeout(Some(
                (at - now).min(READ_POLL_CAP).max(Duration::from_millis(1)),
            ));
        } else {
            let _ = reader.set_read_timeout(Some(READ_POLL_CAP));
        }
        match reader.read(&mut buf) {
            Ok(0) => {
                // EOF: a client hangup, or the drain wakeup
                if state.draining.load(Ordering::Relaxed) {
                    send_tracked(state, &conn, &WireFrame::ShuttingDown);
                }
                break; // queued jobs still finish either way
            }
            Ok(n) => {
                let n = match netfault::filter_read(conn.faults.as_deref(), conn.stall, &reader, n)
                {
                    ReadOutcome::Keep(k) => k,
                    ReadOutcome::Reset => break,
                };
                last_activity = Instant::now();
                state.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                decoder.extend(&buf[..n]);
                let mut closed = false;
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            state.frames_in.fetch_add(1, Ordering::Relaxed);
                            if !handle_frame(frame, state, writer, &conn, live) {
                                closed = true;
                                break;
                            }
                        }
                        Ok(None) => break,
                        Err(reason) => {
                            send_tracked(state, &conn, &WireFrame::ProtocolError { reason });
                            conn.hangup();
                            closed = true;
                            break;
                        }
                    }
                }
                if closed {
                    break;
                }
                frame_started =
                    (decoder.buffered() > 0).then(|| frame_started.unwrap_or(last_activity));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // connection teardown releases this connection's interest in every
    // job it still has in flight: queued jobs are dequeued, running
    // jobs cancel at the solver's next segment boundary, and shared
    // solves survive while any *other* waiter remains (interest-based
    // cancel). A drain-induced read close is not a teardown — queued
    // jobs still complete and deliver on the write half.
    let teardown = conn.dead.load(Ordering::Relaxed) || !state.draining.load(Ordering::Relaxed);
    if teardown {
        let ids: Vec<u64> = lock(&conn.inflight).keys().copied().collect();
        for id in ids {
            cancel_job(id, state, writer, &conn, live);
        }
    }
    state.conns_open.fetch_sub(1, Ordering::Relaxed);
}

/// Handles one client frame; `false` ends the connection's read loop.
fn handle_frame(
    frame: WireFrame,
    state: &DaemonState,
    writer: Option<&JournalWriter>,
    conn: &Arc<ConnWriter>,
    live: &Mutex<Vec<(usize, JobReport)>>,
) -> bool {
    match frame {
        WireFrame::Job(req) => {
            admit(req, state, writer, conn);
            true
        }
        WireFrame::Cancel { id } => {
            let outcome = cancel_job(id, state, writer, conn, live);
            send_tracked(
                state,
                conn,
                &WireFrame::CancelAck {
                    id,
                    outcome: outcome.to_string(),
                },
            );
            true
        }
        WireFrame::Stats => {
            // Snapshot under this connection's write lock: any frame the
            // client already received was counted before that lock was
            // released, so the stats it requests next can never miss it.
            let stats = {
                let _sync = lock(&conn.stream);
                state.stats()
            };
            send_tracked(state, conn, &WireFrame::StatsReport(stats));
            true
        }
        WireFrame::Shutdown => {
            // begin the drain; the acceptor and every other connection
            // will notice the flag
            state.draining.store(true, Ordering::Relaxed);
            state.cv.notify_all();
            send_tracked(state, conn, &WireFrame::ShuttingDown);
            false
        }
        // server-to-client frames arriving at the server are a protocol
        // violation
        WireFrame::Report { .. }
        | WireFrame::Rejected { .. }
        | WireFrame::CancelAck { .. }
        | WireFrame::StatsReport(_)
        | WireFrame::ShuttingDown
        | WireFrame::ProtocolError { .. } => {
            send_tracked(
                state,
                conn,
                &WireFrame::ProtocolError {
                    reason: "client sent a server-side frame".to_string(),
                },
            );
            false
        }
    }
}

/// Executes one cancel request against this connection's jobs and
/// returns the ack outcome:
///
/// * `"queued"` — the job was dequeued before any worker touched it; a
///   `cancel` record and the canonical canceled report are journaled
///   and the report is sent, so the solve never starts;
/// * `"running"` — a worker holds the job; its [`JobCancel`] tripped
///   (the solver stops at its next segment boundary) and the canceled
///   report follows from the worker;
/// * `"detached"` — as `"running"`, but other waiters share the solve:
///   this job detached while the flight itself survives;
/// * `"unknown"` — no such in-flight job (wrong id, already terminal,
///   or a repeat cancel of a queued job).
fn cancel_job(
    id: u64,
    state: &DaemonState,
    writer: Option<&JournalWriter>,
    conn: &Arc<ConnWriter>,
    live: &Mutex<Vec<(usize, JobReport)>>,
) -> &'static str {
    // queued: remove the job before any worker can start it
    let queued = {
        let mut q = lock(&state.queue);
        q.iter()
            .position(|j| j.id == id && Arc::ptr_eq(&j.conn, conn))
            .and_then(|pos| q.remove(pos))
    };
    if let Some(job) = queued {
        // marking the handle under the registry lock keeps a concurrent
        // worker (impossible here — the job never reached one) and
        // repeat cancels coherent
        let mut inflight = lock(&conn.inflight);
        job.cancel.cancel();
        if inflight.get(&id).is_some_and(|(_, h)| h.same(&job.cancel)) {
            inflight.remove(&id);
        }
        if let Some(w) = writer {
            w.cancel(job.idx);
        }
        drop(inflight);
        let report = JobReport::canceled(&job.spec.name, "", job.enqueued.elapsed().as_secs_f64());
        if let Some(w) = writer {
            w.done(job.idx, &report);
        }
        state.canceled.fetch_add(1, Ordering::Relaxed);
        state.completed.fetch_add(1, Ordering::Relaxed);
        send_tracked(
            state,
            conn,
            &WireFrame::Report {
                id,
                report: report.clone(),
            },
        );
        lock(live).push((job.idx, report));
        return "queued";
    }
    // running (or picked up moments ago): trip the handle under the
    // registry lock, so the `cancel` journal record and the worker's
    // terminal-report decision cannot interleave
    let inflight = lock(&conn.inflight);
    if let Some((idx, handle)) = inflight.get(&id).map(|(i, h)| (*i, h.clone())) {
        let outcome = handle.cancel_outcome();
        if outcome.is_some() {
            if let Some(w) = writer {
                w.cancel(idx);
            }
            state.canceled.fetch_add(1, Ordering::Relaxed);
        }
        drop(inflight);
        return match outcome {
            Some(true) => "detached",
            _ => "running",
        };
    }
    "unknown"
}

/// Admission control: journal write-ahead, bounded queue, explicit
/// rejection. The admission index is assigned — and the spec journaled —
/// under the queue lock, so journal order matches admission order
/// exactly.
fn admit(
    req: JobRequest,
    state: &DaemonState,
    writer: Option<&JournalWriter>,
    conn: &Arc<ConnWriter>,
) {
    if state.draining.load(Ordering::Relaxed) {
        state.rejected.fetch_add(1, Ordering::Relaxed);
        send_tracked(
            state,
            conn,
            &WireFrame::Rejected {
                id: req.id,
                reason: "shutting_down".to_string(),
                retry_after_ms: None,
            },
        );
        return;
    }
    let mut q = lock(&state.queue);
    if q.len() >= state.queue_cap {
        drop(q);
        state.rejected.fetch_add(1, Ordering::Relaxed);
        send_tracked(
            state,
            conn,
            &WireFrame::Rejected {
                id: req.id,
                reason: "queue_full".to_string(),
                retry_after_ms: None,
            },
        );
        return;
    }
    let idx = state.base_idx + state.admitted.fetch_add(1, Ordering::Relaxed) as usize;
    // write-ahead: the admission (with its full spec) must be durable
    // before the job can possibly complete, or a crash could journal a
    // `done` for a job resume knows nothing about
    if let Some(w) = writer {
        w.admit(idx, &req.spec);
    }
    let cancel = JobCancel::new();
    lock(&conn.inflight).insert(req.id, (idx, cancel.clone()));
    q.push_back(QueuedJob {
        idx,
        id: req.id,
        spec: req.spec,
        conn: conn.clone(),
        enqueued: Instant::now(),
        cancel,
    });
    drop(q);
    state.cv.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_frame;
    use std::io::Write as _;
    use tce_ir::fixtures::two_index_fused;

    fn job(name: &str, n: u64, v: u64, seed: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            program: tce_ir::to_dsl(&two_index_fused(n, v)),
            mem_limit: 64 * 1024,
            test_scale: true,
            strategy: None,
            seed: Some(seed),
            budget: None,
            telemetry: false,
            objective: None,
            timeout_ms: None,
        }
    }

    fn send(stream: &mut TcpStream, frame: &WireFrame) {
        proto::write_frame(stream, frame).expect("send frame");
        stream.flush().expect("flush");
    }

    /// A hook that parks every cache run until the test opens the gate —
    /// the deterministic way to hold a worker busy so the bounded queue
    /// actually fills.
    struct GatedHook {
        open: AtomicBool,
    }

    impl RunHook for GatedHook {
        fn before_run(&self) {
            while !self.open.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    fn stats_of(stream: &mut TcpStream) -> ServeStats {
        send(stream, &WireFrame::Stats);
        loop {
            match read_frame(stream).expect("read").expect("frame") {
                WireFrame::StatsReport(s) => return s,
                _ => continue, // a report may arrive first; skip it
            }
        }
    }

    #[test]
    fn saturated_pool_rejects_with_queue_full_then_drains_gracefully() {
        let server = Server::builder().workers(1).queue_cap(1).build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let report = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });

            let mut client = TcpStream::connect(addr).expect("connect");
            // distinct jobs so nothing single-flights
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("a", 64, 48, 1),
                }),
            );
            // wait until the single worker holds job 1 (gated inside the
            // hook) and the queue is empty again
            loop {
                let s = stats_of(&mut client);
                if s.admitted == 1 && s.queue_depth == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            // job 2 occupies the only queue slot; job 3 must be rejected
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 2,
                    spec: job("b", 48, 64, 2),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.queue_depth == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 3,
                    spec: job("c", 64, 48, 3),
                }),
            );
            let rejected = loop {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Rejected { id, reason, .. } => break (id, reason),
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            };
            assert_eq!(rejected, (3, "queue_full".to_string()), "backpressure");

            // open the gate: both admitted jobs must complete and report
            gate.open.store(true, Ordering::Relaxed);
            let mut reported = Vec::new();
            while reported.len() < 2 {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { id, report } => reported.push((id, report.ok)),
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            reported.sort();
            assert_eq!(reported, vec![(1, true), (2, true)]);

            // graceful drain via the wire
            send(&mut client, &WireFrame::Shutdown);
            let report = report.join().expect("serve thread");
            assert_eq!(report.summary.jobs, 2, "both admitted jobs served");
            assert_eq!(report.summary.ok, 2);
            assert_eq!(report.jobs[0].name, "a");
            assert_eq!(report.jobs[1].name, "b");
            assert!(report.summary.p99_s >= report.summary.p50_s);
            assert!(report.summary.p50_s > 0.0, "latency telemetry present");
        });
    }

    #[test]
    fn external_shutdown_flag_drains_in_flight_jobs() {
        let server = Server::builder().workers(2).build();
        let cache = SynthesisCache::in_memory();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
            let mut client = TcpStream::connect(addr).expect("connect");
            for (id, seed) in [(10u64, 1u64), (11, 2)] {
                send(
                    &mut client,
                    &WireFrame::Job(JobRequest {
                        id,
                        spec: job(&format!("j{id}"), 64, 48, seed),
                    }),
                );
            }
            let mut seen = 0;
            while seen < 2 {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { report, .. } => {
                        assert!(report.ok);
                        seen += 1;
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            shutdown.store(true, Ordering::Relaxed);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.jobs, 2);
            assert_eq!(report.summary.failed, 0);
            // the drain announced itself before the socket closed
            match read_frame(&mut client).expect("read") {
                Some(WireFrame::ShuttingDown) | None => {}
                other => panic!("unexpected frame {other:?}"),
            }
        });
    }

    #[test]
    fn abrupt_client_disconnect_does_not_kill_the_daemon() {
        let server = Server::builder().workers(1).build();
        let cache = SynthesisCache::in_memory();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
            {
                // client submits a job and vanishes mid-connection
                let mut rude = TcpStream::connect(addr).expect("connect");
                send(
                    &mut rude,
                    &WireFrame::Job(JobRequest {
                        id: 1,
                        spec: job("orphaned", 64, 48, 9),
                    }),
                );
            } // dropped: connection reset while the job runs

            // a second client still gets full service
            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 2,
                    spec: job("after", 48, 64, 9),
                }),
            );
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { id, report } => {
                    assert_eq!(id, 2);
                    assert!(report.ok);
                }
                other => panic!("unexpected frame {other:?}"),
            }
            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            // the orphaned job is terminal either way: it completed
            // before the teardown was noticed, or the teardown-cancel
            // released its interest — it never simply vanishes
            assert_eq!(report.summary.jobs, 2);
            let orphaned = report.jobs.iter().find(|j| j.name == "orphaned").unwrap();
            assert!(
                orphaned.ok || orphaned.error_kind.as_deref() == Some("canceled"),
                "orphaned job must complete or cancel: {orphaned:?}"
            );
            let after = report.jobs.iter().find(|j| j.name == "after").unwrap();
            assert!(after.ok, "the live client's job is unaffected");
        });
    }

    #[test]
    fn slow_loris_is_evicted_without_affecting_in_flight_jobs() {
        // one worker, gated: the good client's job is genuinely in
        // flight while the loris dribbles a partial frame and stalls
        let server = Server::builder()
            .workers(1)
            .frame_timeout(Some(Duration::from_millis(80)))
            .build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });

            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("inflight", 64, 48, 1),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.admitted == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            // the loris: two bytes of a frame header, then silence
            let mut loris = TcpStream::connect(addr).expect("connect loris");
            loris.write_all(&[0x00, 0x00]).expect("dribble");
            loris.flush().expect("flush");
            match read_frame(&mut loris) {
                Ok(Some(WireFrame::ProtocolError { reason })) => {
                    assert_eq!(reason, "frame_timeout", "slow-loris eviction");
                }
                // the eviction may also surface as a reset mid-read
                Ok(None) | Err(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
            loop {
                let s = stats_of(&mut client);
                if s.evicted >= 1 && s.conns_open == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            // the in-flight job was untouched: open the gate, it reports
            gate.open.store(true, Ordering::Relaxed);
            loop {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { id, report } => {
                        assert_eq!(id, 1);
                        assert!(report.ok);
                        break;
                    }
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            let final_stats = stats_of(&mut client);
            assert_eq!(final_stats.completed, 1);
            assert!(final_stats.bytes_in > 0 && final_stats.bytes_out > 0);
            assert!(final_stats.frames_in > 0 && final_stats.frames_out > 0);
            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.ok, 1);
        });
    }

    #[test]
    fn stats_requested_after_a_report_always_count_that_report() {
        // Regression: the delivery counters used to be bumped after the
        // write syscall returned, so a client that received its report
        // and immediately asked for stats could observe frames_out == 0
        // (deterministically so on a single-core box). The counters now
        // roll in under the connection's write lock and the stats
        // snapshot is taken under that same lock.
        let server = Server::builder().workers(1).build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(true),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });

            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("counted", 64, 48, 1),
                }),
            );
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { id, report } => {
                    assert_eq!(id, 1);
                    assert!(report.ok);
                }
                other => panic!("unexpected frame {other:?}"),
            }
            // the very next stats snapshot must include the report frame
            let s = stats_of(&mut client);
            assert!(
                s.frames_out >= 1 && s.bytes_out > 0,
                "report frame missing from delivery counters: {s:?}"
            );
            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.ok, 1);
        });
    }

    #[test]
    fn idle_connections_are_evicted_on_the_idle_deadline() {
        let server = Server::builder()
            .workers(1)
            .idle_timeout(Some(Duration::from_millis(60)))
            .build();
        let cache = SynthesisCache::in_memory();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
            let mut idle = TcpStream::connect(addr).expect("connect");
            // never send a byte: the idle deadline must evict us
            match read_frame(&mut idle) {
                Ok(Some(WireFrame::ProtocolError { reason })) => {
                    assert_eq!(reason, "idle_timeout");
                }
                Ok(None) | Err(_) => {}
                other => panic!("unexpected frame {other:?}"),
            }
            // an *active* client is not idle-evicted while waiting
            let mut client = TcpStream::connect(addr).expect("connect");
            let stats = stats_of(&mut client);
            assert!(stats.evicted >= 1, "idle connection was evicted");
            shutdown.store(true, Ordering::Relaxed);
            handle.join().expect("serve thread");
        });
    }

    #[test]
    fn oversized_frame_client_is_rejected_without_affecting_in_flight_jobs() {
        let server = Server::builder().workers(1).build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });
            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("inflight", 64, 48, 1),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.admitted == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            // hostile length prefix plus a payload flood
            let mut attacker = TcpStream::connect(addr).expect("connect attacker");
            attacker.write_all(&u32::MAX.to_be_bytes()).expect("header");
            let _ = attacker.write_all(&[0xAA; 4096]);
            match read_frame(&mut attacker) {
                Ok(Some(WireFrame::ProtocolError { reason })) => {
                    assert!(reason.contains("exceeds"), "{reason}");
                }
                Ok(None) | Err(_) => {} // reset before the error frame landed
                other => panic!("unexpected frame {other:?}"),
            }

            gate.open.store(true, Ordering::Relaxed);
            loop {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { id, report } => {
                        assert_eq!(id, 1);
                        assert!(report.ok, "in-flight job unaffected");
                        break;
                    }
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.ok, 1);
        });
    }

    #[test]
    fn max_conns_rejects_surplus_connections_with_overloaded() {
        let server = Server::builder().workers(1).max_conns(1).build();
        let cache = SynthesisCache::in_memory();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
            let mut first = TcpStream::connect(addr).expect("connect");
            // round-trip to guarantee the daemon holds the connection
            let stats = stats_of(&mut first);
            assert_eq!(stats.conns_open, 1);

            let mut surplus = TcpStream::connect(addr).expect("connect surplus");
            match read_frame(&mut surplus).expect("read").expect("frame") {
                WireFrame::Rejected { id, reason, .. } => {
                    assert_eq!(id, 0, "no job was read");
                    assert_eq!(reason, "overloaded");
                }
                other => panic!("unexpected frame {other:?}"),
            }
            assert!(
                read_frame(&mut surplus).expect("surplus closed").is_none(),
                "the refused connection is closed"
            );

            // the admitted connection still has full service
            let stats = stats_of(&mut first);
            assert_eq!(stats.overloaded, 1);
            drop(first);
            // once the slot frees, new connections are admitted again
            let admitted = loop {
                let mut retry = TcpStream::connect(addr).expect("reconnect");
                match read_frame_with_probe(&mut retry) {
                    Probe::Admitted(stream) => break stream,
                    Probe::Refused => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            let mut admitted = admitted;
            send(&mut admitted, &WireFrame::Shutdown);
            handle.join().expect("serve thread");
        });
    }

    enum Probe {
        Admitted(TcpStream),
        Refused,
    }

    /// Distinguishes an admitted connection from an `overloaded` refusal
    /// by probing with a stats round-trip.
    fn read_frame_with_probe(stream: &mut TcpStream) -> Probe {
        send(stream, &WireFrame::Stats);
        match read_frame(stream) {
            Ok(Some(WireFrame::StatsReport(_))) => {
                // move the stream back out by cloning the handle
                Probe::Admitted(stream.try_clone().expect("clone"))
            }
            _ => Probe::Refused,
        }
    }

    #[test]
    fn mid_frame_disconnect_during_response_write_still_journals_done() {
        // satellite: a client that vanishes mid-frame while its reports
        // are being written must not panic the daemon, must release the
        // worker slot, and its jobs must still journal `done`
        let dir = std::env::temp_dir().join(format!("tce-serve-rude-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");

        let server = Server::builder()
            .workers(1)
            .journal(Some(JournalConfig::new(&journal_path)))
            .build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });
            {
                let mut rude = TcpStream::connect(addr).expect("connect");
                for (id, seed) in [(1u64, 1u64), (2, 2)] {
                    send(
                        &mut rude,
                        &WireFrame::Job(JobRequest {
                            id,
                            spec: job(&format!("rude{id}"), 64, 48, seed),
                        }),
                    );
                }
                // wait until both jobs are admitted (and job 1 is held
                // by the gated worker), then vanish mid-frame: two bytes
                // of a third frame's header, then close
                let mut probe = TcpStream::connect(addr).expect("probe connect");
                loop {
                    let s = stats_of(&mut probe);
                    if s.admitted == 2 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                rude.write_all(&[0x00, 0x00]).expect("partial frame");
                rude.flush().expect("flush");
                drop(probe);
            } // rude dropped: both response writes hit a dead socket

            gate.open.store(true, Ordering::Relaxed);

            // worker slot released: a later client gets full service
            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 3,
                    spec: job("after", 48, 64, 3),
                }),
            );
            loop {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { id, report } => {
                        assert_eq!(id, 3);
                        assert!(report.ok);
                        break;
                    }
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.jobs, 3, "all admitted jobs terminal");
            // the vanished client's jobs either completed (the gate
            // opened before the teardown was noticed) or were canceled
            // by the teardown; neither outcome loses the job
            for rude in report.jobs.iter().filter(|j| j.name.starts_with("rude")) {
                assert!(
                    rude.ok || rude.error_kind.as_deref() == Some("canceled"),
                    "rude job must complete or cancel: {rude:?}"
                );
            }
            let after = report.jobs.iter().find(|j| j.name == "after").unwrap();
            assert!(after.ok);

            // `done` was journaled for the vanished client's jobs
            let state = journal::replay(&journal_path).expect("replay");
            for idx in 0..3 {
                assert!(state.done.contains_key(&idx), "done journaled for {idx}");
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_dequeues_queued_jobs_and_trips_running_ones() {
        let server = Server::builder().workers(1).queue_cap(8).build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });
            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("held", 64, 48, 1),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.admitted == 1 && s.queue_depth == 0 {
                    break; // the single worker holds job 1 at the gate
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 2,
                    spec: job("queued", 48, 64, 2),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.queue_depth == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            // canceling the queued job dequeues it: its canceled report
            // precedes the ack, and the solve never starts
            send(&mut client, &WireFrame::Cancel { id: 2 });
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { id, report } => {
                    assert_eq!(id, 2);
                    assert!(!report.ok);
                    assert_eq!(report.error_kind.as_deref(), Some("canceled"));
                }
                other => panic!("unexpected frame {other:?}"),
            }
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::CancelAck { id, outcome } => {
                    assert_eq!((id, outcome.as_str()), (2, "queued"));
                }
                other => panic!("unexpected frame {other:?}"),
            }

            // unknown ids are acked as such, not errors
            send(&mut client, &WireFrame::Cancel { id: 99 });
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::CancelAck { id, outcome } => {
                    assert_eq!((id, outcome.as_str()), (99, "unknown"));
                }
                other => panic!("unexpected frame {other:?}"),
            }

            // canceling the running job trips its token; the canceled
            // report follows once the gate opens
            send(&mut client, &WireFrame::Cancel { id: 1 });
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::CancelAck { id, outcome } => {
                    assert_eq!((id, outcome.as_str()), (1, "running"));
                }
                other => panic!("unexpected frame {other:?}"),
            }
            gate.open.store(true, Ordering::Relaxed);
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { id, report } => {
                    assert_eq!(id, 1);
                    assert_eq!(report.error_kind.as_deref(), Some("canceled"));
                    assert_eq!(report.fingerprint, "", "canonical canceled report");
                }
                other => panic!("unexpected frame {other:?}"),
            }

            let s = stats_of(&mut client);
            assert_eq!(s.canceled, 2);
            assert_eq!(s.completed, 2, "canceled jobs are terminal");
            assert_eq!(s.deadline_shed, 0);

            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.jobs, 2);
            assert_eq!(report.summary.ok, 0);
            assert_eq!(report.summary.failed, 2);
        });
    }

    #[test]
    fn queue_wait_past_the_deadline_budget_sheds_with_a_retry_hint() {
        let server = Server::builder().workers(1).queue_cap(8).build();
        let cache = SynthesisCache::in_memory();
        let gate = GatedHook {
            open: AtomicBool::new(false),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .serve_hooked(listener, &cache, &shutdown, &gate)
                    .expect("serve")
            });
            let mut client = TcpStream::connect(addr).expect("connect");
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: 1,
                    spec: job("held", 64, 48, 1),
                }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.admitted == 1 && s.queue_depth == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            // a 1 ms deadline budget, guaranteed consumed while queued
            let mut late = job("late", 48, 64, 2);
            late.timeout_ms = Some(1);
            send(
                &mut client,
                &WireFrame::Job(JobRequest { id: 2, spec: late }),
            );
            loop {
                let s = stats_of(&mut client);
                if s.queue_depth == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(10));
            gate.open.store(true, Ordering::Relaxed);

            let mut saw_report = false;
            let mut saw_shed = false;
            while !(saw_report && saw_shed) {
                match read_frame(&mut client).expect("read").expect("frame") {
                    WireFrame::Report { id, report } => {
                        assert_eq!(id, 1);
                        assert!(report.ok);
                        saw_report = true;
                    }
                    WireFrame::Rejected {
                        id,
                        reason,
                        retry_after_ms,
                    } => {
                        assert_eq!(id, 2);
                        assert_eq!(reason, "deadline_unmeetable");
                        assert!(retry_after_ms.is_some_and(|ms| ms >= 10), "backoff hint");
                        saw_shed = true;
                    }
                    WireFrame::StatsReport(_) => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            let s = stats_of(&mut client);
            assert_eq!(s.deadline_shed, 1);
            assert_eq!(s.rejected, 1);
            assert_eq!(s.completed, 2, "a shed job is still terminal");

            send(&mut client, &WireFrame::Shutdown);
            let report = handle.join().expect("serve thread");
            assert_eq!(report.summary.jobs, 2);
            let late = report.jobs.iter().find(|j| j.name == "late").unwrap();
            assert_eq!(late.error_kind.as_deref(), Some("deadline_exceeded"));
        });
    }

    #[test]
    fn journaled_cancels_resume_as_canceled_without_rerunning() {
        use std::sync::atomic::AtomicUsize;

        struct CountingHook(AtomicUsize);
        impl RunHook for CountingHook {
            fn before_run(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let dir = std::env::temp_dir().join(format!("tce-serve-canres-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.journal");

        // a killed daemon's journal: two admissions, job 0 canceled
        // before its `done` could be written, job 1 untouched
        {
            let w = JournalWriter::open(&path, true, None).expect("open journal");
            w.admit(0, &job("gone", 64, 48, 1));
            w.cancel(0);
            w.admit(1, &job("kept", 48, 64, 2));
        }

        let counter = CountingHook(AtomicUsize::new(0));
        let cache = SynthesisCache::in_memory();
        let server = Server::builder().workers(1).build();
        let report = server
            .recover_hooked(&path, &cache, &counter)
            .expect("recover");

        assert_eq!(report.summary.jobs, 2);
        assert_eq!(
            report.jobs[0].error_kind.as_deref(),
            Some("canceled"),
            "a cancel record without a done is terminal"
        );
        assert_eq!(report.jobs[0].fingerprint, "");
        assert!(report.jobs[1].ok, "the untouched admission re-ran");
        assert_eq!(
            counter.0.load(Ordering::Relaxed),
            1,
            "the canceled job never reached the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_batch_and_lines_replace_the_free_functions() {
        let cache = SynthesisCache::in_memory();
        let server = Server::builder().workers(2).build();
        let jobs = vec![job("a", 64, 48, 5), job("b", 64, 48, 5)];
        let report = server.run_batch(&jobs, &cache).expect("batch");
        assert_eq!(report.summary.ok, 2);
        assert_eq!(report.summary.misses, 1, "identical jobs dedup");
        assert_eq!(report.summary.hits, 1);
        assert!(report.summary.p99_s >= report.summary.p50_s);
        assert!(report.summary.p50_s > 0.0);

        let dsl = serde_json::to_string(&jobs[0].program).expect("encode");
        let line =
            format!(r#"{{"name": "l", "program": {dsl}, "mem_limit": 65536, "test_scale": true}}"#);
        let (lines_report, out) = server.run_lines(&line, &cache).expect("lines");
        assert_eq!(lines_report.summary.jobs, 1);
        assert!(out.contains("\"p99_s\""), "summary line carries latency");
    }
}
