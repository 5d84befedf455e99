//! Synthesis service over the content-addressed cache: one-shot batches,
//! JSON-lines streams, and a persistent TCP daemon.
//!
//! The stable entry point is [`Server::builder`]: one configuration
//! surface (workers, queue bound, deadlines, journal) behind three run
//! modes — [`Server::run_batch`] for jobs files, [`Server::run_lines`]
//! for JSON-lines, and [`Server::serve`] for the long-lived daemon
//! speaking the length-prefixed wire protocol of [`proto`].
//!
//! Identical requests — identical after canonicalization, so renamed
//! copies of the same program count — are *single-flighted*: when several
//! are in flight at once only one solves, and the rest replay its cached
//! outcome.
//!
//! The service is *crash-safe and self-healing* (`DESIGN.md` §14):
//! solves run under panic supervision with RAII flight settlement and
//! bounded leader promotion ([`supervise`]), jobs carry cooperative
//! wall-clock deadlines threaded into the solver
//! ([`ServerBuilder::job_timeout`]), and batches and the daemon stream
//! one write-ahead journal format, opened and recovered by one code path,
//! and resume after a crash with bit-identical merged outcomes
//! ([`journal`], [`Server::recover_journal`]).
//!
//! The daemon's network edge is *overload-hardened* (`DESIGN.md` §16):
//! connection guards ([`ServerBuilder::max_conns`], idle and mid-frame
//! read deadlines, write timeouts) evict slow-loris and slow-consumer
//! peers without touching in-flight jobs, a seeded [`NetFaultPlan`]
//! injects short reads/writes, resets, stalls, and accept failures into
//! the wire path for chaos testing, and [`client::Client`] retries with
//! seeded exponential backoff — safe because resent jobs dedup on their
//! canonical fingerprint instead of double-solving.
//!
//! Cancellation is *first-class* (`DESIGN.md` §19): clients retract jobs
//! with a `cancel` wire frame, queued jobs are dequeued before any solve
//! starts, running jobs trip their solve's [`CancelToken`] — but only
//! when the *last* interested duplicate cancels ([`service::JobCancel`],
//! [`Flight::drop_interest`]) — and `cancel` journal events replay to
//! bit-identical canceled outcomes after a crash.

#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod journal;
pub mod netfault;
pub mod proto;
pub mod server;
pub mod service;
pub mod supervise;

pub use client::{Client, ClientError, ClientRetry};
pub use job::{
    parse_jobs_file, percentile, spec_digest, BatchReport, BatchSummary, JobReport, JobSpec,
    JOBS_SCHEMA, REPORT_SCHEMA,
};
pub use journal::{replay, JournalConfig, JournalState, JournalWriter, JOURNAL_SCHEMA};
pub use netfault::{NetFaultKind, NetFaultPlan};
pub use proto::{
    read_frame, write_frame, FrameDecoder, JobRequest, ServeStats, WireFrame, MAX_FRAME_LEN,
    WIRE_SCHEMA,
};
pub use server::{
    Server, ServerBuilder, DEFAULT_FRAME_TIMEOUT, DEFAULT_QUEUE_CAP, DEFAULT_WRITE_TIMEOUT,
};
pub use service::{JobCancel, LEADER_RETRY_BUDGET};
pub use supervise::{Flight, FlightEnd, FlightGuard, Role, SingleFlight};
pub use tce_solver::CancelToken;

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cache::SynthesisCache;
    use tce_ir::fixtures::two_index_fused;

    fn job(name: &str, n: u64, v: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            program: tce_ir::to_dsl(&two_index_fused(n, v)),
            mem_limit: 64 * 1024,
            test_scale: true,
            strategy: None,
            seed: None,
            budget: None,
            telemetry: false,
            objective: None,
            timeout_ms: None,
        }
    }

    fn batch(jobs: &[JobSpec], workers: usize, cache: &SynthesisCache) -> BatchReport {
        Server::builder()
            .workers(workers)
            .build()
            .run_batch(jobs, cache)
            .expect("batch")
    }

    #[test]
    fn concurrent_duplicates_solve_exactly_once() {
        // six identical jobs on four workers: one leader solves, the three
        // concurrent followers join its flight, the late pickups hit the
        // cache normally — the solver must run exactly once either way
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(&format!("dup{i}"), 64, 48)).collect();
        let cache = SynthesisCache::in_memory();
        let report = batch(&jobs, 4, &cache);

        assert_eq!(report.workers, 4);
        assert_eq!(report.summary.ok, 6);
        assert_eq!(report.summary.misses, 1, "exactly one fresh solve");
        assert_eq!(report.summary.hits, 5);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "solver ran once: one cache miss");
        assert_eq!(stats.hits, 5);

        let fp = &report.jobs[0].fingerprint;
        assert!(report.jobs.iter().all(|j| &j.fingerprint == fp));
        // joiners are a subset of the hits and never solved themselves
        for j in &report.jobs {
            if j.joined {
                assert!(j.hit, "a joiner must land on the leader's record");
            }
            assert!(j.queue_wait_s >= 0.0);
        }
    }

    #[test]
    fn distinct_jobs_all_solve() {
        let jobs = vec![job("a", 64, 48), job("b", 48, 64), job("c", 64, 48)];
        let cache = SynthesisCache::in_memory();
        let report = batch(&jobs, 2, &cache);
        assert_eq!(report.summary.ok, 3);
        // a and c are identical; b differs
        assert_eq!(report.summary.misses, 2);
        assert_eq!(report.summary.hits, 1);
        assert_ne!(report.jobs[0].fingerprint, report.jobs[1].fingerprint);
        assert_eq!(report.jobs[0].fingerprint, report.jobs[2].fingerprint);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let mut bad = job("bad", 64, 48);
        bad.program = "this is not a program".to_string();
        let jobs = vec![job("good", 64, 48), bad];
        let cache = SynthesisCache::in_memory();
        let report = batch(&jobs, 2, &cache);
        assert_eq!(report.summary.ok, 1);
        assert_eq!(report.summary.failed, 1);
        let failed = report.jobs.iter().find(|j| !j.ok).expect("failed job");
        assert_eq!(failed.name, "bad");
        assert!(failed
            .error
            .as_deref()
            .unwrap_or("")
            .contains("invalid program"));
    }

    #[test]
    fn json_lines_mode_reports_per_job() {
        let dsl = tce_ir::to_dsl(&two_index_fused(64, 48));
        let encoded = serde_json::to_string(&dsl).expect("encode program");
        let line = format!(
            r#"{{"name": "j", "program": {encoded}, "mem_limit": 65536, "test_scale": true}}"#
        );
        let input = format!("{line}\n\n{line}\n");
        let cache = SynthesisCache::in_memory();
        let (report, out) = Server::builder()
            .workers(2)
            .build()
            .run_lines(&input, &cache)
            .expect("run");
        assert_eq!(report.summary.jobs, 2);
        assert_eq!(report.summary.hits + report.summary.misses, 2);
        // one line per job + the summary line
        assert_eq!(out.trim_end().lines().count(), 3);
        assert!(out.contains("\"fingerprint\""));
        assert!(out.contains("\"solver_wall_saved_s\""));
    }

    /// A hook that panics on its first `n` cache runs, then behaves.
    /// Drives the supervision regression: the seed implementation hung
    /// every follower forever when the leader panicked between `begin`
    /// and `finish`.
    struct PanickingHook {
        panics_left: std::sync::atomic::AtomicU32,
    }

    impl crate::service::RunHook for PanickingHook {
        fn before_run(&self) {
            use std::sync::atomic::Ordering;
            if self
                .panics_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                panic!("injected solver panic");
            }
        }
    }

    /// A job whose program is a small contraction network.
    fn network_job(name: &str) -> JobSpec {
        JobSpec {
            program: tce_ir::to_network_dsl(&tce_ir::network::small_network()),
            ..job(name, 64, 48)
        }
    }

    #[test]
    fn panicking_leader_fails_structurally_and_promotes_a_follower() {
        // six identical jobs, dense or network; the first solve attempt
        // panics. The panicking job must report a structured `panic`
        // failure, one follower must be promoted and solve for real, and
        // — the regression — the batch must terminate at all.
        let dense: Vec<JobSpec> = (0..6).map(|i| job(&format!("p{i}"), 64, 48)).collect();
        let network: Vec<JobSpec> = (0..6).map(|i| network_job(&format!("p{i}"))).collect();
        for jobs in [dense, network] {
            let cache = SynthesisCache::in_memory();
            let hook = PanickingHook {
                panics_left: std::sync::atomic::AtomicU32::new(1),
            };
            let report = Server::builder()
                .workers(4)
                .build()
                .run_batch_hooked(&jobs, &cache, &hook)
                .expect("batch runs");

            assert_eq!(report.summary.failed, 1, "{:?}", report.jobs);
            assert_eq!(report.summary.ok, 5);
            let failed = report.jobs.iter().find(|j| !j.ok).expect("panicked job");
            assert_eq!(failed.error_kind.as_deref(), Some("panic"));
            assert!(failed.error.as_deref().unwrap_or("").contains("panicked"));
            // the promoted leader really solved: exactly one cache miss
            assert_eq!(cache.stats().misses, 1);
        }
    }

    /// A hook that sleeps before every cache run.
    struct SleepingHook(std::time::Duration);

    impl crate::service::RunHook for SleepingHook {
        fn before_run(&self) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn follower_replay_of_an_evicted_record_keeps_the_job_deadline() {
        // the leader's record is evicted from a one-record cache before
        // its follower reads it, so the follower's replay becomes a full
        // solve; it must run under the follower's own deadline
        let timeout = std::time::Duration::from_millis(1000);
        let mut spec = job("follower", 64, 48);
        spec.timeout_ms = Some(timeout.as_millis() as u64);
        let config = spec.config().expect("config");
        let cache = SynthesisCache::with_capacity(1);
        let flights = SingleFlight::default();

        // the test is the leader: it solves, then another request's
        // record evicts the leader's before the flight settles
        let program = spec.parse_program().expect("program");
        let leader = tce_cache::synthesize_dcs_cached(&program, &config, &cache).expect("leader");
        tce_cache::synthesize_dcs_cached(&two_index_fused(48, 64), &config, &cache)
            .expect("evicting request");
        assert!(cache.get(&leader.fingerprint).is_none(), "record evicted");
        let Role::Leader(guard) = flights.begin(&leader.fingerprint) else {
            panic!("the test leads the flight")
        };

        let (opts, hook) = (Server::builder(), SleepingHook(timeout));
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| {
                crate::service::process_job(&spec, &cache, &flights, 0.0, &opts, &hook, None)
            });
            while guard.flight().interest() < 2 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            guard.success();
            let report = follower.join().expect("follower");
            assert!(report.joined, "the follower replayed: {report:?}");
            assert_eq!(
                report.error_kind.as_deref(),
                Some("deadline_exceeded"),
                "{report:?}"
            );
        });
    }

    #[test]
    fn always_panicking_leader_exhausts_the_retry_budget() {
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(&format!("q{i}"), 64, 48)).collect();
        let cache = SynthesisCache::in_memory();
        let hook = PanickingHook {
            panics_left: std::sync::atomic::AtomicU32::new(u32::MAX),
        };
        let report = Server::builder()
            .workers(4)
            .build()
            .run_batch_hooked(&jobs, &cache, &hook)
            .expect("batch runs");
        // nobody hangs and nobody succeeds: every job reports either its
        // own panic or an exhausted retry budget
        assert_eq!(report.summary.ok, 0);
        assert_eq!(report.summary.failed, 4);
        for j in &report.jobs {
            let kind = j.error_kind.as_deref().unwrap_or("");
            assert!(
                kind == "panic" || kind == "leader_failed",
                "unexpected kind {kind:?} in {j:?}"
            );
        }
        assert!(report
            .jobs
            .iter()
            .any(|j| j.error_kind.as_deref() == Some("panic")));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        // a job whose deadline has already passed at pickup must fail
        // fast with the structured kind, not block the pool
        let mut j0 = job("t0", 64, 48);
        j0.timeout_ms = Some(0);
        let ok = job("t1", 48, 64);
        let cache = SynthesisCache::in_memory();
        let report = batch(&[j0, ok], 2, &cache);
        assert_eq!(report.summary.failed, 1);
        assert_eq!(report.summary.ok, 1);
        let failed = report.jobs.iter().find(|j| !j.ok).expect("timed-out job");
        assert_eq!(failed.name, "t0");
        assert_eq!(failed.error_kind.as_deref(), Some("deadline_exceeded"));
        assert!(failed.error.as_deref().unwrap_or("").contains("deadline"));
        // nothing partial was cached for the timed-out job
        assert_eq!(cache.stats().misses, 2, "both jobs missed; one canceled");
    }

    #[test]
    fn journaled_batch_resumes_with_identical_outcomes() {
        let dir = std::env::temp_dir().join(format!("tce-serve-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("batch.journal");

        let mut bad = job("bad", 64, 48);
        bad.program = "not a program".to_string();
        let jobs = vec![job("a", 64, 48), bad, job("c", 48, 64)];

        // clean journaled run
        let server = Server::builder()
            .workers(2)
            .journal(Some(JournalConfig::new(&journal)))
            .build();
        let clean = server
            .run_batch(&jobs, &SynthesisCache::in_memory())
            .expect("clean run");
        assert_eq!(clean.summary.ok, 2);
        assert_eq!(clean.summary.failed, 1);
        let clean_proj = serde_json::to_string(&clean.outcome_projection()).unwrap();

        // truncate the journal to just after the first `done` line —
        // simulating a crash — and resume
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = {
            let mut keep = Vec::new();
            for line in text.lines() {
                keep.push(line);
                if line.contains("\"done\"") {
                    break;
                }
            }
            keep
        };
        let done_before = keep.iter().filter(|l| l.contains("\"done\"")).count();
        std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();

        let resume_server = Server::builder()
            .workers(2)
            .journal(Some(JournalConfig {
                resume: true,
                ..JournalConfig::new(journal.clone())
            }))
            .build();
        let resumed = resume_server
            .run_batch(&jobs, &SynthesisCache::in_memory())
            .expect("resume");
        assert_eq!(resumed.summary.resumed, done_before as u64);
        let resumed_proj = serde_json::to_string(&resumed.outcome_projection()).unwrap();
        assert_eq!(
            resumed_proj, clean_proj,
            "resumed outcome projection must be bit-identical"
        );

        // a journal from a *different* jobs file must be refused
        let other = vec![job("x", 64, 48)];
        let err = resume_server
            .run_batch(&other, &SynthesisCache::in_memory())
            .unwrap_err();
        assert!(err.contains("different jobs file"), "{err}");
    }

    #[test]
    fn renamed_program_coalesces_with_original() {
        // same computation, indices renamed — canonical fingerprints match
        let original = job("orig", 64, 48);
        let dsl = original.program.clone();
        let renamed = JobSpec {
            name: "renamed".to_string(),
            program: dsl
                .replace(" i", " p")
                .replace("[i", "[p")
                .replace(",i", ",p")
                .replace(" j", " q")
                .replace("[j", "[q")
                .replace(",j", ",q"),
            ..original.clone()
        };
        let cache = SynthesisCache::in_memory();
        let report = batch(&[original, renamed], 1, &cache);
        assert_eq!(report.summary.ok, 2, "{:?}", report.jobs);
        assert_eq!(
            report.jobs[0].fingerprint, report.jobs[1].fingerprint,
            "renaming-invariant fingerprints must match"
        );
        assert_eq!(report.summary.misses, 1);
        assert_eq!(report.summary.hits, 1);
    }

    #[test]
    fn network_jobs_run_through_the_same_engine() {
        // a mixed batch: dense programs and a contraction network, with
        // the network job duplicated so its flight coalesces too
        let jobs = vec![network_job("n0"), job("dense", 64, 48), network_job("n1")];
        let cache = SynthesisCache::in_memory();
        let report = batch(&jobs, 2, &cache);
        assert_eq!(report.summary.ok, 3, "{:?}", report.jobs);
        assert_eq!(report.summary.misses, 2, "one network solve, one dense");
        assert_eq!(report.summary.hits, 1);
        let n0 = &report.jobs[0];
        let n1 = &report.jobs[2];
        assert_eq!(n0.fingerprint, n1.fingerprint);
        assert_ne!(n0.fingerprint, report.jobs[1].fingerprint);
        assert!(n0.io_bytes > 0.0 && n0.predicted_s > 0.0);
    }

    #[test]
    fn invalid_network_job_fails_structurally() {
        let mut bad = job("badnet", 64, 48);
        bad.program = "network\nrange i = 8\noutput Y[i]\n".to_string();
        let cache = SynthesisCache::in_memory();
        let report = batch(&[bad], 1, &cache);
        assert_eq!(report.summary.failed, 1);
        let j = &report.jobs[0];
        assert_eq!(j.error_kind.as_deref(), Some("invalid_job"));
        assert!(j.error.as_deref().unwrap_or("").contains("network"));
    }
}
