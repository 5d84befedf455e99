//! Crash-resume equivalence for the journaled batch service: kill the
//! batch at *every* journal boundary — after each whole line, and mid-line
//! (a torn append, written exactly as the crash left it) — then resume
//! with `--resume-journal` semantics, twice, and require the merged
//! report's deterministic outcome projection to be byte-identical to the
//! uninterrupted run's.
//!
//! The journal is the only state carried across the "crash" (each resume
//! gets a cold in-memory cache), so this exercises every recovery path at
//! once: jobs resumed verbatim from `done` records, jobs admitted but
//! re-run from scratch, jobs admitted by the resume itself, and torn
//! tails cut off before the resume appends.
//!
//! The matrix covers 2 solver seeds by default; CI stress widens it with
//! `TCE_CHAOS_SEEDS=<n>`.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use tce_cache::{FsFaultPlan, SynthesisCache};
use tce_ooc::ir::{fixtures::two_index_fused, to_dsl};
use tce_serve::{
    read_frame, write_frame, BatchReport, JobRequest, JobSpec, JournalConfig, Server, WireFrame,
};

fn seed_count() -> u64 {
    std::env::var("TCE_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn job(name: &str, n: u64, v: u64, seed: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        program: to_dsl(&two_index_fused(n, v)),
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

/// Four jobs covering the interesting outcome classes: two identical
/// (single-flight dedup), one distinct, one that fails deterministically.
fn batch(seed: u64) -> Vec<JobSpec> {
    let mut bad = job("bad", 64, 48, seed);
    bad.program = "this is not a program".to_string();
    vec![
        job("a", 64, 48, seed),
        job("a-twin", 64, 48, seed),
        bad,
        job("b", 48, 64, seed),
    ]
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tce-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn journaled(journal: &std::path::Path, resume: bool) -> Server {
    Server::builder()
        .workers(2)
        .journal(Some(JournalConfig {
            path: journal.to_path_buf(),
            resume,
            faults: FsFaultPlan::none(),
        }))
        .build()
}

fn run_journaled(jobs: &[JobSpec], journal: &std::path::Path, resume: bool) -> BatchReport {
    journaled(journal, resume)
        .run_batch(jobs, &SynthesisCache::in_memory())
        .expect("batch runs")
}

fn projection(report: &BatchReport) -> String {
    serde_json::to_string(&report.outcome_projection()).expect("projection json")
}

/// Every crash point of a journal, as the exact bytes the crash leaves:
/// after each whole line (`k` lines survive) and half-way through each
/// line (a torn append with no trailing newline).
fn crash_cuts(full: &[u8]) -> Vec<(String, &[u8])> {
    let mut cuts = vec![("k0".to_string(), &full[..0])];
    let mut end = 0;
    for (k, line) in full.split_inclusive(|&b| b == b'\n').enumerate() {
        cuts.push((format!("k{k}-torn"), &full[..end + line.len() / 2]));
        end += line.len();
        cuts.push((format!("k{}", k + 1), &full[..end]));
    }
    cuts
}

#[test]
fn resume_after_kill_at_every_journal_boundary_is_bit_identical() {
    let dir = scratch("boundaries");
    for seed in 0..seed_count() {
        let jobs = batch(2004 + seed);

        // the uninterrupted reference run
        let clean_journal = dir.join(format!("clean-{seed}.journal"));
        let clean = projection(&run_journaled(&jobs, &clean_journal, false));
        let full = std::fs::read(&clean_journal).expect("journal bytes");
        assert_eq!(
            full.split_inclusive(|&b| b == b'\n').count(),
            1 + jobs.len() * 2,
            "header, then one admit and one done per job"
        );

        for (tag, cut) in crash_cuts(&full) {
            let journal = dir.join(format!("crash-{seed}-{tag}.journal"));
            std::fs::write(&journal, cut).expect("write crash journal");
            let resumed = run_journaled(&jobs, &journal, true);
            assert_eq!(
                projection(&resumed),
                clean,
                "seed {seed}, crash at {tag}: resumed projection diverged"
            );
            // the resume journaled everything it did: a second resume of
            // the same journal merges every job verbatim
            let again = run_journaled(&jobs, &journal, true);
            assert_eq!(
                projection(&again),
                clean,
                "seed {seed}, crash at {tag}: second resume diverged"
            );
            assert_eq!(
                again.summary.resumed,
                jobs.len() as u64,
                "seed {seed}, crash at {tag}: second resume re-ran a job"
            );
        }
    }
}

#[test]
fn resume_refuses_a_journal_from_different_jobs() {
    let dir = scratch("mismatch");
    let jobs = batch(7);
    let journal = dir.join("batch.journal");
    run_journaled(&jobs, &journal, false);

    let mut other = batch(7);
    other[0].mem_limit *= 2;
    let err = journaled(&journal, true)
        .run_batch(&other, &SynthesisCache::in_memory())
        .unwrap_err();
    assert!(err.contains("different jobs file"), "{err}");
}

/// Serves `jobs` on a daemon over one connection, then drains it.
fn serve_once(server: &Server, jobs: &[JobSpec]) -> BatchReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let cache = SynthesisCache::in_memory();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
        let mut client = TcpStream::connect(addr).expect("connect");
        for (id, spec) in jobs.iter().enumerate() {
            let spec = spec.clone();
            let frame = WireFrame::Job(JobRequest {
                id: id as u64,
                spec,
            });
            write_frame(&mut client, &frame).expect("send job");
            client.flush().expect("flush");
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        write_frame(&mut client, &WireFrame::Shutdown).expect("send shutdown");
        handle.join().expect("serve thread")
    })
}

#[test]
fn batch_resume_of_a_daemon_journal_checks_every_admission() {
    // one journal format: a batch may resume a daemon's journal, but only
    // when every journaled admission is the same job as its jobs-file
    // entry
    let dir = scratch("daemon-journal");
    let jobs = batch(21);
    let journal = dir.join("daemon.journal");
    let daemon = serve_once(&journaled(&journal, false), &jobs[..2]);
    assert_eq!(daemon.summary.jobs, 2);
    let before = std::fs::read(&journal).expect("journal bytes");

    // a different jobs file is refused, and the journal is left as is
    let mut other = jobs.clone();
    other[1].seed = Some(22);
    let err = journaled(&journal, true)
        .run_batch(&other, &SynthesisCache::in_memory())
        .unwrap_err();
    assert!(err.contains("different jobs file"), "{err}");
    assert_eq!(std::fs::read(&journal).expect("journal bytes"), before);

    // the matching jobs file continues the journal: the daemon's two jobs
    // merge verbatim, the other two are admitted and run
    let resumed = run_journaled(&jobs, &journal, true);
    assert_eq!(resumed.summary.resumed, 2);
    let clean = run_journaled(&jobs, &dir.join("clean.journal"), false);
    assert_eq!(projection(&resumed), projection(&clean));
    let after = std::fs::read(&journal).expect("journal bytes");
    assert!(after.starts_with(&before), "the daemon's lines are kept");
    let again = run_journaled(&jobs, &journal, true);
    assert_eq!(again.summary.resumed, jobs.len() as u64);
}

#[test]
fn journaled_run_survives_injected_journal_faults() {
    // every journal append path hit with probabilistic faults: the batch
    // must still complete with the same outcomes, only the journal
    // degrades
    let dir = scratch("faulty-journal");
    let jobs = batch(11);
    let clean = projection(&run_journaled(&jobs, &dir.join("clean.journal"), false));

    for seed in 0..seed_count() {
        let server = Server::builder()
            .workers(2)
            .journal(Some(JournalConfig {
                path: dir.join(format!("faulty-{seed}.journal")),
                resume: false,
                faults: FsFaultPlan::none()
                    .probabilistic(0.4, tce_cache::FsFaultKind::Eio)
                    .with_seed(seed),
            }))
            .build();
        let report = server
            .run_batch(&jobs, &SynthesisCache::in_memory())
            .expect("batch survives");
        assert_eq!(
            projection(&report),
            clean,
            "faulty journal must not change outcomes"
        );
    }
}
