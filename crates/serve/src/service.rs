//! The batch execution engine: a supervised, crash-safe worker pool over
//! a shared synthesis cache, with single-flight coalescing of identical
//! requests.
//!
//! Single-flight works on the *canonical* request fingerprint, so two
//! concurrently submitted jobs whose programs differ only by renaming
//! still solve once: the first becomes the leader and solves; the others
//! park on the flight, then replay the leader's outcome from the cache.
//!
//! Three robustness layers wrap that core (see `DESIGN.md` §14):
//!
//! * **supervision** — every solve runs under `catch_unwind` holding an
//!   RAII `FlightGuard`, so a panicking or erroring leader settles its
//!   flight (no follower ever hangs) and one follower is promoted to
//!   retry as the new leader, bounded by [`BatchOptions::retry_budget`];
//! * **deadlines** — each job may carry a wall-clock deadline (per-job
//!   `timeout_ms` or the batch-wide [`BatchOptions::job_timeout`]) as a
//!   [`CancelToken`] threaded into the solver's budget machinery; expired
//!   jobs fail with `deadline_exceeded` instead of blocking the pool;
//! * **journaling** — with [`BatchOptions::journal`] set, admission,
//!   start, and completion events stream to a write-ahead journal, and a
//!   resumed run reuses completed jobs' reports verbatim (see
//!   [`crate::journal`]).

use crate::job::{batch_digest, BatchReport, BatchSummary, JobReport, JobSpec, REPORT_SCHEMA};
use crate::journal::{self, JournalWriter};
use crate::supervise::{Flight, FlightEnd, Role, SingleFlight};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tce_cache::{
    prepare_network_request, prepare_request, run_prepared, CachedSynthesis, FsFaultPlan, Lowered,
    PreparedRequest, SynthesisCache,
};
use tce_core::{NetworkSynthesis, SynthesisConfig, SynthesisError, SynthesisResult};
use tce_solver::CancelToken;

/// How many times followers may promote a new leader for one fingerprint
/// after the previous leader failed, before giving up.
pub const LEADER_RETRY_BUDGET: u32 = 2;

/// Write-ahead journal configuration for one batch run.
#[derive(Clone)]
pub struct JournalConfig {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Fault schedule applied to journal writes (chaos testing); idle by
    /// default.
    pub faults: FsFaultPlan,
}

impl JournalConfig {
    /// A fresh (non-resuming, fault-free) journal at `path`.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            resume: false,
            faults: FsFaultPlan::none(),
        }
    }
}

/// Knobs for one batch run. `Default` reproduces the historical batch
/// behavior: core-count workers, no deadlines, no journal.
#[derive(Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Batch-wide per-job deadline, measured from job pickup. A job's own
    /// `timeout_ms` overrides it.
    pub job_timeout: Option<Duration>,
    /// Write-ahead journal; `None` disables journaling.
    pub journal: Option<JournalConfig>,
    /// Leader-promotion budget after leader failures.
    pub retry_budget: u32,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 0,
            job_timeout: None,
            journal: None,
            retry_budget: LEADER_RETRY_BUDGET,
        }
    }
}

/// A hook run immediately before each cache run of a job — a leader's
/// solve and a follower's replay alike, for dense and network jobs — so
/// supervision tests can inject a panic, a stall or a count without
/// touching the real pipeline.
pub(crate) trait RunHook: Sync {
    fn before_run(&self);
}

/// The production hook: nothing runs before the cache.
pub(crate) struct NoHook;

impl RunHook for NoHook {
    fn before_run(&self) {}
}

/// A cancel handle for one admitted job, created at admission and shared
/// between the daemon's cancel registry and the worker processing the
/// job.
///
/// Cancellation is *interest-based*: tripping the handle marks the job
/// canceled (its wire report becomes the deterministic
/// [`JobReport::canceled`]) and releases the job's interest in whatever
/// single-flight [`Flight`] it participates in. The underlying solve is
/// only torn down when the *last* interested job cancels — a leader's
/// solve survives as long as any identical request still waits on it.
#[derive(Clone, Default)]
pub struct JobCancel {
    inner: Arc<JobCancelInner>,
}

#[derive(Default)]
struct JobCancelInner {
    /// Shared cancel flag; follower wait-tokens are derived from it.
    token: CancelToken,
    /// Set once by the first effective [`JobCancel::cancel`].
    tripped: AtomicBool,
    /// The flight this job participates in, once its role is known.
    /// Guards the trip/attach race so interest is released exactly once.
    flight: Mutex<Option<Arc<Flight>>>,
}

impl JobCancel {
    /// A fresh, untripped handle.
    pub fn new() -> JobCancel {
        JobCancel::default()
    }

    /// Requests cancellation. Returns `true` the first time (the job is
    /// now canceled and its flight interest released), `false` on
    /// repeats.
    pub fn cancel(&self) -> bool {
        self.cancel_outcome().is_some()
    }

    /// Like [`JobCancel::cancel`], but reports how the job left its
    /// flight: `None` on a repeat (no effect), `Some(true)` when other
    /// waiters keep the underlying solve alive (the job *detached*),
    /// `Some(false)` when the job was unattached or held the last
    /// interest (the solve tears down).
    pub(crate) fn cancel_outcome(&self) -> Option<bool> {
        let flight = {
            let mut slot = self.inner.flight.lock();
            if self.inner.tripped.swap(true, Ordering::SeqCst) {
                return None;
            }
            self.inner.token.cancel();
            slot.take()
        };
        match flight {
            Some(f) => {
                f.drop_interest();
                Some(f.interest() > 0)
            }
            None => Some(false),
        }
    }

    /// Identity comparison, for registry bookkeeping: two handles are
    /// the same iff they share one admitted job.
    pub(crate) fn same(&self, other: &JobCancel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// True once [`JobCancel::cancel`] was called.
    pub fn is_canceled(&self) -> bool {
        self.inner.tripped.load(Ordering::SeqCst)
    }

    /// The shared cancel flag (no deadline); derive per-attempt deadline
    /// tokens from it with [`CancelToken::and_deadline`].
    fn token(&self) -> &CancelToken {
        &self.inner.token
    }

    /// Records which flight this job participates in. If the cancel
    /// already fired before the role was known, the interest is released
    /// immediately instead. Re-attaching after a leader promotion simply
    /// follows the job to its new flight (the old one has settled).
    fn attach(&self, flight: &Arc<Flight>) {
        let mut slot = self.inner.flight.lock();
        if self.inner.tripped.load(Ordering::SeqCst) {
            drop(slot);
            flight.drop_interest();
        } else {
            *slot = Some(flight.clone());
        }
    }
}

/// Available cores (1 when unknown).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a worker count: `0` means one worker per available core.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        cores()
    } else {
        workers
    }
}

/// Solver threads per job: the cores split evenly over the pool's
/// `workers` (already resolved), at least one. A busy pool then runs
/// about one solver thread per core instead of `workers × cores`.
fn solver_threads(cores: usize, workers: usize) -> usize {
    (cores / workers.max(1)).max(1)
}

/// The job's synthesis configuration, with the solver sized to its share
/// of the cores.
fn job_config(spec: &JobSpec, opts: &BatchOptions) -> Result<SynthesisConfig, String> {
    let mut config = spec.config()?;
    config.threads = solver_threads(cores(), resolve_workers(opts.workers));
    Ok(config)
}

/// Maps a synthesis error to its machine-readable report class.
fn kind_of(err: &SynthesisError) -> &'static str {
    match err {
        SynthesisError::Placement(_) => "placement",
        SynthesisError::Infeasible => "infeasible",
        SynthesisError::Canceled {
            deadline_exceeded: true,
        } => "deadline_exceeded",
        SynthesisError::Canceled {
            deadline_exceeded: false,
        } => "canceled",
    }
}

/// The plan figures a job report carries, from either pipeline's result.
trait PlanFigures {
    /// `(io_bytes, memory_bytes, predicted_s)`.
    fn figures(&self) -> (f64, f64, f64);
}

impl PlanFigures for SynthesisResult {
    fn figures(&self) -> (f64, f64, f64) {
        (self.io_bytes, self.memory_bytes, self.predicted.total_s())
    }
}

impl PlanFigures for NetworkSynthesis {
    fn figures(&self) -> (f64, f64, f64) {
        (self.io_bytes, self.memory_bytes, self.predicted_s)
    }
}

/// Runs one job to a report. `queue_wait_s` is measured by the caller.
/// Shared by the batch engine and the daemon's worker loop. `cancel`,
/// when given, is the job's admission-time cancel handle: an explicit
/// cancel detaches this job from its flight (tearing the solve down only
/// when it held the last interest) and yields the deterministic
/// [`JobReport::canceled`].
pub(crate) fn process_job(
    spec: &JobSpec,
    cache: &SynthesisCache,
    flights: &SingleFlight,
    queue_wait_s: f64,
    opts: &BatchOptions,
    hook: &dyn RunHook,
    cancel: Option<&JobCancel>,
) -> JobReport {
    let job = SupervisedJob {
        spec,
        cache,
        flights,
        opts,
        hook,
        cancel,
        queue_wait_s,
        started: Instant::now(),
    };
    // the one place a job's kind matters: contraction networks (DSL
    // header `network`) and dense programs differ only in how they parse
    // and lower, and share the supervision loop
    if tce_ir::is_network_src(&spec.program) {
        match tce_ir::parse_network(&spec.program) {
            Ok(dag) => job.supervise(|config| prepare_network_request(&dag, config)),
            Err(e) => job.failed("", format!("invalid network: {e}"), "invalid_job"),
        }
    } else {
        match spec.parse_program() {
            Ok(program) => job.supervise(|config| prepare_request(&program, config)),
            Err(e) => job.failed("", e, "invalid_job"),
        }
    }
}

/// One job on a worker: what the supervision loop needs besides the
/// lowered request.
struct SupervisedJob<'a> {
    spec: &'a JobSpec,
    cache: &'a SynthesisCache,
    flights: &'a SingleFlight,
    opts: &'a BatchOptions,
    hook: &'a dyn RunHook,
    cancel: Option<&'a JobCancel>,
    queue_wait_s: f64,
    /// Worker pickup; the job's deadline clock starts here.
    started: Instant,
}

impl SupervisedJob<'_> {
    /// The supervision loop: lead, or park and — if the leader fails —
    /// race to be promoted, bounded by the retry budget. `prepare` lowers
    /// and fingerprints the job's request.
    fn supervise<L>(
        &self,
        prepare: impl Fn(&SynthesisConfig) -> Result<PreparedRequest<L>, SynthesisError>,
    ) -> JobReport
    where
        L: Lowered,
        L::Output: PlanFigures,
    {
        let config = match job_config(self.spec, self.opts) {
            Ok(c) => c,
            Err(e) => return self.failed("", e, "invalid_job"),
        };
        let deadline = self
            .spec
            .timeout_ms
            .map(Duration::from_millis)
            .or(self.opts.job_timeout)
            .map(|t| self.started + t);
        // what a follower polls while parked and carries into its replay:
        // its own deadline plus its cancel flag
        let wait_token = match (self.cancel, deadline) {
            (Some(c), Some(d)) => Some(c.token().and_deadline(d)),
            (Some(c), None) => Some(c.token().clone()),
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
            (None, None) => None,
        };

        let mut request = match prepare(&config) {
            Ok(r) => Some(r),
            Err(e) => return self.failed("", e.to_string(), "invalid_job"),
        };
        let fingerprint = request.as_ref().expect("just prepared").fingerprint.clone();
        // a promoted follower's original request was consumed by an
        // earlier attempt; preparation is cheap and deterministic, so
        // just redo it
        let mut take_request = || request.take().map_or_else(|| prepare(&config), Ok);

        let mut leader_failures = 0u32;
        loop {
            match self.flights.begin(&fingerprint) {
                Role::Leader(guard) => {
                    let req = match take_request() {
                        Ok(r) => r,
                        Err(e) => {
                            guard.fail(e.to_string());
                            return self.failed(&fingerprint, e.to_string(), "invalid_job");
                        }
                    };
                    // a fresh solve token per leadership attempt: the
                    // flight trips it when the last interested job
                    // cancels, and the deadline (if any) trips it on
                    // expiry. The leader's own *explicit* cancel does not
                    // abort the solve directly — it only releases
                    // interest, so the solve survives while followers
                    // still want the result.
                    let solve_token = match deadline {
                        Some(d) => CancelToken::with_deadline(d),
                        None => CancelToken::new(),
                    };
                    guard.flight().lead_with(solve_token.clone());
                    if let Some(c) = self.cancel {
                        c.attach(guard.flight());
                    }
                    let config = config.clone().cancel_token(solve_token);
                    // the guard is moved into the closure: if the solve
                    // panics, unwinding drops it and the flight settles
                    // as failed — followers wake either way
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        let outcome = self.run(req, &config);
                        match &outcome {
                            Ok(_) => guard.success(),
                            Err(e) => guard.fail(e.to_string()),
                        }
                        outcome
                    }));
                    return self.report(&fingerprint, run, false, "solve");
                }
                Role::Follower(flight) => {
                    if let Some(c) = self.cancel {
                        c.attach(&flight);
                    }
                    match flight.wait_with(wait_token.as_ref()) {
                        None => {
                            // our own cancel or deadline fired while parked
                            if self.cancel.is_some_and(|c| c.is_canceled()) {
                                return self.canceled();
                            }
                            return self.failed(
                                &fingerprint,
                                "job deadline exceeded".to_string(),
                                "deadline_exceeded",
                            );
                        }
                        Some(FlightEnd::Success) => {
                            let req = match take_request() {
                                Ok(r) => r,
                                Err(e) => {
                                    return self.failed(&fingerprint, e.to_string(), "invalid_job")
                                }
                            };
                            // replay the leader's outcome from the cache.
                            // The leader's record may already be evicted,
                            // making this a full solve, so it runs under
                            // the job's own deadline and cancel; panics
                            // get the same containment as a leader's
                            let config = SynthesisConfig {
                                cancel: wait_token.clone(),
                                ..config.clone()
                            };
                            let run = catch_unwind(AssertUnwindSafe(|| self.run(req, &config)));
                            return self.report(&fingerprint, run, true, "replay");
                        }
                        Some(FlightEnd::Failed(cause)) => {
                            leader_failures += 1;
                            if leader_failures > self.opts.retry_budget {
                                return self.failed(
                                    &fingerprint,
                                    format!(
                                        "leader failed {leader_failures} time(s), retry budget \
                                         exhausted; last cause: {cause}"
                                    ),
                                    "leader_failed",
                                );
                            }
                            // loop: race to re-begin — first one in is
                            // promoted to leader and retries, the rest
                            // park on its flight
                        }
                    }
                }
            }
        }
    }

    /// One cache run: the hook, then the cache.
    fn run<L: Lowered>(
        &self,
        request: PreparedRequest<L>,
        config: &SynthesisConfig,
    ) -> Result<CachedSynthesis<L::Output>, SynthesisError> {
        self.hook.before_run();
        run_prepared(request, config, self.cache)
    }

    /// The report for a finished cache run: its result, its error, or the
    /// panic `catch_unwind` contained during `stage`. A job its client
    /// canceled reports the canonical canceled outcome, whatever the run
    /// did (completed into the cache for remaining followers, or aborted
    /// as uncacheable).
    fn report<R: PlanFigures>(
        &self,
        fingerprint: &str,
        run: std::thread::Result<Result<CachedSynthesis<R>, SynthesisError>>,
        joined: bool,
        stage: &str,
    ) -> JobReport {
        if self.cancel.is_some_and(|c| c.is_canceled()) {
            return self.canceled();
        }
        let mut report = match run {
            Ok(Ok(done)) => {
                let (io_bytes, memory_bytes, predicted_s) = done.result.figures();
                JobReport {
                    name: self.spec.name.clone(),
                    ok: true,
                    error: None,
                    error_kind: None,
                    fingerprint: done.fingerprint,
                    hit: done.hit,
                    joined,
                    queue_wait_s: self.queue_wait_s,
                    solve_wall_s: done.solve_wall.as_secs_f64(),
                    saved_wall_s: done.saved_wall_s,
                    total_s: self.started.elapsed().as_secs_f64(),
                    io_bytes,
                    memory_bytes,
                    predicted_s,
                }
            }
            Ok(Err(e)) => self.failed(fingerprint, e.to_string(), kind_of(&e)),
            Err(_) => self.failed(
                fingerprint,
                format!("worker panicked during {stage}"),
                "panic",
            ),
        };
        report.joined = joined;
        report
    }

    /// A failure report of class `kind`, timed from worker pickup.
    fn failed(&self, fingerprint: &str, error: String, kind: &str) -> JobReport {
        let mut report =
            JobReport::failed(&self.spec.name, fingerprint, error, self.queue_wait_s).kind(kind);
        report.total_s = self.started.elapsed().as_secs_f64();
        report
    }

    /// The canonical canceled report, timed from worker pickup.
    fn canceled(&self) -> JobReport {
        let mut report = JobReport::canceled(&self.spec.name, "", self.queue_wait_s);
        report.total_s = self.started.elapsed().as_secs_f64();
        report
    }
}

pub(crate) fn run_batch_hooked(
    jobs: &[JobSpec],
    opts: &BatchOptions,
    cache: &SynthesisCache,
    hook: &dyn RunHook,
) -> Result<BatchReport, String> {
    let workers = resolve_workers(opts.workers).min(jobs.len().max(1));
    // jobs split the cores over the workers that actually run
    let opts = &BatchOptions {
        workers,
        ..opts.clone()
    };
    let batch_started = Instant::now();

    // journal setup: replay on resume, then open for append; fresh runs
    // truncate and write the header + admissions up front (write-ahead)
    let mut resumed: HashMap<usize, JobReport> = HashMap::new();
    let writer = match &opts.journal {
        Some(cfg) => {
            let faults = cfg.faults.injector(1);
            let state = if cfg.resume {
                journal::replay(&cfg.path)
            } else {
                journal::JournalState::default()
            };
            let continuing = match state.header {
                Some((header_jobs, header_digest)) => {
                    if header_jobs != jobs.len() as u64 || header_digest != batch_digest(jobs) {
                        return Err(format!(
                            "journal {:?} was written for a different jobs file; \
                             refusing to merge its results",
                            cfg.path
                        ));
                    }
                    resumed = state
                        .done
                        .into_iter()
                        .filter(|(idx, _)| *idx < jobs.len())
                        .collect();
                    true
                }
                // resuming an empty/unreadable journal is just a fresh run
                None => false,
            };
            let mut w = JournalWriter::open(&cfg.path, !continuing, faults)?;
            if !continuing {
                w.batch(jobs);
                for (idx, spec) in jobs.iter().enumerate() {
                    w.admit(idx, spec);
                }
            }
            w.sync_parent(&cfg.path);
            Some(w)
        }
        None => None,
    };
    let writer = writer.as_ref();

    let flights = SingleFlight::default();
    let queue: Mutex<Vec<usize>> = Mutex::new(
        (0..jobs.len())
            .rev()
            .filter(|i| !resumed.contains_key(i))
            .collect(),
    );
    let reports: Mutex<Vec<Option<JobReport>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = match queue.lock().pop() {
                    Some(i) => i,
                    None => break,
                };
                if let Some(w) = writer {
                    w.start(idx);
                }
                let queue_wait_s = batch_started.elapsed().as_secs_f64();
                let report =
                    process_job(&jobs[idx], cache, &flights, queue_wait_s, opts, hook, None);
                if let Some(w) = writer {
                    w.done(idx, &report);
                }
                reports.lock()[idx] = Some(report);
            });
        }
    });

    let resumed_count = resumed.len() as u64;
    // per-request latency (admission → report) over the jobs this run
    // actually executed; resumed jobs replayed verbatim don't count
    let mut latencies = Vec::new();
    let jobs: Vec<JobReport> = reports
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(idx, r)| match r {
            Some(r) => {
                latencies.push(r.queue_wait_s + r.total_s);
                r
            }
            // not queued: merged verbatim from the resumed journal
            None => resumed.remove(&idx).expect("every job reported"),
        })
        .collect();

    let summary = summarize(
        &jobs,
        resumed_count,
        batch_started.elapsed().as_secs_f64(),
        latencies,
    );
    Ok(BatchReport {
        schema: REPORT_SCHEMA.to_string(),
        workers: workers as u64,
        jobs,
        summary,
    })
}

/// Folds per-job reports (plus the measured per-request latencies) into a
/// [`BatchSummary`]. Shared by the batch engine and the daemon.
pub(crate) fn summarize(
    jobs: &[JobReport],
    resumed: u64,
    wall_s: f64,
    mut latencies: Vec<f64>,
) -> BatchSummary {
    let mut summary = BatchSummary {
        jobs: jobs.len() as u64,
        ok: 0,
        failed: 0,
        hits: 0,
        misses: 0,
        joined: 0,
        resumed,
        solver_wall_saved_s: 0.0,
        wall_s,
        p50_s: 0.0,
        p99_s: 0.0,
    };
    for r in jobs {
        if r.ok {
            summary.ok += 1;
            if r.hit {
                summary.hits += 1;
            } else {
                summary.misses += 1;
            }
        } else {
            summary.failed += 1;
        }
        if r.joined {
            summary.joined += 1;
        }
        summary.solver_wall_saved_s += r.saved_wall_s;
    }
    latencies.sort_by(f64::total_cmp);
    summary.p50_s = crate::job::percentile(&latencies, 50.0);
    summary.p99_s = crate::job::percentile(&latencies, 99.0);
    summary
}

/// Parses JSON-lines input (one job object per non-empty line).
pub(crate) fn parse_lines(input: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (n, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        jobs.push(JobSpec::from_json_line(line).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(jobs)
}

/// Renders a batch report as JSON-lines: one report line per job
/// (submission order) followed by one summary line.
pub(crate) fn render_lines(report: &BatchReport) -> Result<String, String> {
    let mut out = String::new();
    for job in &report.jobs {
        out.push_str(&serde_json::to_string(job).map_err(|e| format!("{e:?}"))?);
        out.push('\n');
    }
    let summary = serde_json::to_string(&report.summary).map_err(|e| format!("{e:?}"))?;
    out.push_str(&summary);
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_split_the_cores_over_the_workers() {
        // a default pool (one worker per core) runs one solver thread a job
        assert_eq!(solver_threads(8, 8), 1);
        // a one-worker daemon on two cores keeps both for its solver
        assert_eq!(solver_threads(2, 1), 2);
        assert_eq!(solver_threads(8, 3), 2);
        // more workers than cores still leaves every job one thread
        assert_eq!(solver_threads(2, 4), 1);
        assert_eq!(solver_threads(cores(), resolve_workers(0)), 1);
        assert_eq!(resolve_workers(3), 3);
    }
}
