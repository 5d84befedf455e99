//! End-to-end tests for the persistent synthesis daemon: real TCP
//! round-trips through the length-prefixed wire protocol, admission
//! stats, graceful drain — and the daemon flavor of the chaos suite:
//! kill the daemon at *every* journal boundary (whole-line and torn) and
//! require [`Server::recover_journal`] to reproduce, bit-identically,
//! the outcomes of exactly the jobs the journal proves were admitted.
//!
//! The journal is the only state carried across the "crash" (each
//! recovery gets a cold in-memory cache), mirroring `serve_chaos.rs` for
//! batch mode. The matrix covers 2 solver seeds by default; CI stress
//! widens it with `TCE_CHAOS_SEEDS=<n>`.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use tce_cache::{FsFaultPlan, SynthesisCache};
use tce_ooc::ir::{fixtures::two_index_fused, to_dsl};
use tce_serve::{
    read_frame, replay, write_frame, BatchReport, JobRequest, JobSpec, JournalConfig, Server,
    WireFrame,
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
/// (single-flight dedup), one that fails deterministically, one distinct.
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
    let dir = std::env::temp_dir().join(format!("tce-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn send(stream: &mut TcpStream, frame: &WireFrame) {
    write_frame(stream, frame).expect("send frame");
    stream.flush().expect("flush");
}

/// Runs a daemon, submits `jobs` over one connection in order, waits for
/// every report, drains gracefully, and returns the final report.
fn serve_once(server: &Server, jobs: &[JobSpec], cache: &SynthesisCache) -> BatchReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, cache, &shutdown).expect("serve"));
        let mut client = TcpStream::connect(addr).expect("connect");
        for (id, spec) in jobs.iter().enumerate() {
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: id as u64,
                    spec: spec.clone(),
                }),
            );
        }
        let mut reports = 0;
        while reports < jobs.len() {
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { .. } => reports += 1,
                WireFrame::Rejected { id, reason, .. } => panic!("job {id} rejected: {reason}"),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        send(&mut client, &WireFrame::Shutdown);
        handle.join().expect("serve thread")
    })
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

/// The per-job deterministic outcome list of a report's first `m` jobs.
fn outcomes(report: &BatchReport, m: usize) -> String {
    let seq: Vec<_> = report.jobs[..m].iter().map(|j| j.outcome_value()).collect();
    serde_json::to_string(&serde_json::Value::Seq(seq)).expect("json")
}

#[test]
fn daemon_round_trips_jobs_stats_and_drains() {
    let jobs = batch(2004);
    let server = Server::builder().workers(2).build();
    let cache = SynthesisCache::in_memory();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));
        let mut client = TcpStream::connect(addr).expect("connect");
        for (id, spec) in jobs.iter().enumerate() {
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: id as u64,
                    spec: spec.clone(),
                }),
            );
        }
        let mut ok = 0;
        let mut failed = 0;
        let mut seen = 0;
        while seen < jobs.len() {
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { report, .. } => {
                    seen += 1;
                    if report.ok {
                        ok += 1;
                    } else {
                        failed += 1;
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!((ok, failed), (3, 1), "a, a-twin, b succeed; bad fails");

        // stats after completion: everything admitted and completed
        send(&mut client, &WireFrame::Stats);
        match read_frame(&mut client).expect("read").expect("frame") {
            WireFrame::StatsReport(s) => {
                assert_eq!(s.admitted, 4);
                assert_eq!(s.completed, 4);
                assert_eq!(s.rejected, 0);
                assert_eq!(s.queue_depth, 0);
                assert_eq!(s.workers, 2);
                assert!(s.p99_s >= s.p50_s);
                assert!(s.p50_s > 0.0, "latency telemetry present");
            }
            other => panic!("unexpected frame {other:?}"),
        }

        send(&mut client, &WireFrame::Shutdown);
        match read_frame(&mut client).expect("read").expect("frame") {
            WireFrame::ShuttingDown => {}
            other => panic!("unexpected frame {other:?}"),
        }
        handle.join().expect("serve thread")
    });

    assert_eq!(report.summary.jobs, 4);
    assert_eq!(report.summary.ok, 3);
    assert_eq!(report.summary.failed, 1);
    // the twin deduplicated against its original
    assert_eq!(report.summary.hits, 1);
    assert!(report.summary.p99_s >= report.summary.p50_s);
    // reports are in admission order
    let names: Vec<_> = report.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(names, ["a", "a-twin", "bad", "b"]);
}

#[test]
fn killing_the_daemon_at_every_journal_boundary_recovers_bit_identically() {
    let dir = scratch("boundaries");
    for seed in 0..seed_count() {
        let jobs = batch(2004 + seed);

        // the uninterrupted reference daemon run, journaled
        let journal = dir.join(format!("clean-{seed}.journal"));
        let server = Server::builder()
            .workers(2)
            .journal(Some(JournalConfig {
                path: journal.clone(),
                resume: false,
                faults: FsFaultPlan::none(),
            }))
            .build();
        let clean = serve_once(&server, &jobs, &SynthesisCache::in_memory());
        assert_eq!(clean.summary.jobs, 4);

        let full = std::fs::read(&journal).expect("journal bytes");
        // header + per-job admit/done + stats
        assert_eq!(
            full.split_inclusive(|&b| b == b'\n').count(),
            2 + jobs.len() * 2,
            "{}",
            String::from_utf8_lossy(&full)
        );

        // "kill the daemon" after every whole line and mid-way through
        // every line (a torn append), then recover from the journal alone
        for (tag, cut) in crash_cuts(&full) {
            let crash = dir.join(format!("crash-{seed}-{tag}.journal"));
            std::fs::write(&crash, cut).expect("write crash journal");

            // what the torn journal can prove was admitted: the
            // contiguous prefix of admit records
            let state = replay(&crash).expect("replay");
            let admitted = state.admitted();

            let recovered = Server::builder()
                .workers(2)
                .build()
                .recover_journal(&crash, &SynthesisCache::in_memory())
                .expect("recover");
            assert_eq!(
                recovered.summary.jobs, admitted as u64,
                "seed {seed}, crash at {tag}: wrong recovery scope"
            );
            assert_eq!(
                recovered.summary.resumed,
                state.done.len().min(admitted) as u64,
                "seed {seed}, crash at {tag}: done records must merge verbatim"
            );
            assert_eq!(
                outcomes(&recovered, admitted),
                outcomes(&clean, admitted),
                "seed {seed}, crash at {tag}: recovered outcomes diverged"
            );
        }
    }
}

/// Runs a single-worker daemon, submits `jobs` plus a `cancel` frame for
/// `cancel_id` in one burst, waits for every terminal report and the
/// cancel ack, then submits `extra` (same spec as the victim, new name)
/// to probe the cache, drains, and returns the final report plus the ack
/// outcome.
fn serve_once_with_cancel(
    server: &Server,
    jobs: &[JobSpec],
    cancel_id: u64,
    extra: &JobSpec,
    cache: &SynthesisCache,
) -> (BatchReport, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, cache, &shutdown).expect("serve"));
        let mut client = TcpStream::connect(addr).expect("connect");
        for (id, spec) in jobs.iter().enumerate() {
            send(
                &mut client,
                &WireFrame::Job(JobRequest {
                    id: id as u64,
                    spec: spec.clone(),
                }),
            );
        }
        // the cancel frame arrives on the conn thread microseconds after
        // the admits, while the single worker is still inside job 0: the
        // victim is reliably still queued
        send(&mut client, &WireFrame::Cancel { id: cancel_id });
        let mut reports = 0;
        let mut ack = None;
        while reports < jobs.len() || ack.is_none() {
            match read_frame(&mut client).expect("read").expect("frame") {
                WireFrame::Report { .. } => reports += 1,
                WireFrame::CancelAck { id, outcome } => {
                    assert_eq!(id, cancel_id);
                    ack = Some(outcome);
                }
                WireFrame::Rejected { id, reason, .. } => panic!("job {id} rejected: {reason}"),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // re-submit the victim's spec under a new name: a canceled solve
        // must never have landed in the cache
        send(
            &mut client,
            &WireFrame::Job(JobRequest {
                id: jobs.len() as u64,
                spec: extra.clone(),
            }),
        );
        match read_frame(&mut client).expect("read").expect("frame") {
            WireFrame::Report { .. } => {}
            WireFrame::Rejected { id, reason, .. } => panic!("job {id} rejected: {reason}"),
            other => panic!("unexpected frame {other:?}"),
        }
        send(&mut client, &WireFrame::Shutdown);
        (handle.join().expect("serve thread"), ack.expect("ack"))
    })
}

#[test]
fn a_cancel_at_every_journal_boundary_replays_exactly_once_and_never_caches() {
    let dir = scratch("cancel-boundaries");
    for seed in 0..seed_count() {
        let jobs = batch(3100 + seed);
        let victim = jobs.len() as u64 - 1; // "b", the only distinct spec
        let mut again = jobs[victim as usize].clone();
        again.name = "b-again".to_string();

        // reference: the same five jobs with no cancel — what any job
        // whose cancel record is lost to truncation must re-run into
        let mut plain_jobs = jobs.clone();
        plain_jobs.push(again.clone());
        let plain = serve_once(
            &Server::builder().workers(2).build(),
            &plain_jobs,
            &SynthesisCache::in_memory(),
        );

        // the journaled run with the live cancel
        let journal = dir.join(format!("cancel-{seed}.journal"));
        let server = Server::builder()
            .workers(1)
            .journal(Some(JournalConfig {
                path: journal.clone(),
                resume: false,
                faults: FsFaultPlan::none(),
            }))
            .build();
        let (clean, ack) =
            serve_once_with_cancel(&server, &jobs, victim, &again, &SynthesisCache::in_memory());
        assert_eq!(ack, "queued", "victim must be canceled before starting");
        let canceled = &clean.jobs[victim as usize];
        assert!(!canceled.ok);
        assert_eq!(canceled.error_kind.as_deref(), Some("canceled"));
        assert_eq!(
            canceled.fingerprint, "",
            "canceled jobs carry no fingerprint"
        );
        let probe = &clean.jobs[jobs.len()];
        assert!(probe.ok, "re-submitted spec solves fresh");
        assert!(!probe.hit, "a canceled solve must never be cached");
        assert!(!probe.joined);

        // kill at every whole-line and torn boundary; the journal now
        // carries a cancel record among admits and dones
        let full = std::fs::read(&journal).expect("journal bytes");
        assert!(
            String::from_utf8_lossy(&full).contains("\"cancel\""),
            "journal must record the cancel"
        );
        for (tag, cut) in crash_cuts(&full) {
            let crash = dir.join(format!("crash-{seed}-{tag}.journal"));
            std::fs::write(&crash, cut).expect("write crash journal");

            let state = replay(&crash).expect("replay");
            let admitted = state.admitted();

            let recovered = Server::builder()
                .workers(2)
                .build()
                .recover_journal(&crash, &SynthesisCache::in_memory())
                .expect("recover");
            // exactly once: every admitted job reported once, in
            // admission order, none lost, none duplicated
            assert_eq!(
                recovered.summary.jobs, admitted as u64,
                "seed {seed}, crash at {tag}: wrong recovery scope"
            );
            let names: Vec<_> = recovered.jobs.iter().map(|j| j.name.as_str()).collect();
            let want: Vec<_> = plain_jobs[..admitted]
                .iter()
                .map(|j| j.name.as_str())
                .collect();
            assert_eq!(names, want, "seed {seed}, crash at {tag}");

            // a durable cancel (or its done record) replays as the
            // canonical canceled report; a cancel lost to truncation
            // means the job legitimately re-runs like the plain batch
            for idx in 0..admitted {
                let durable = state.done.contains_key(&idx) || state.canceled.contains(&idx);
                let expect = if durable {
                    clean.jobs[idx].outcome_value()
                } else {
                    plain.jobs[idx].outcome_value()
                };
                assert_eq!(
                    recovered.jobs[idx].outcome_value(),
                    expect,
                    "seed {seed}, crash at {tag}, job {idx}: outcome diverged"
                );
            }
        }

        // the intact journal resumes everything verbatim, including the
        // canceled victim, with nothing left to re-run
        let state = replay(&journal).expect("replay");
        assert!(state.canceled.contains(&(victim as usize)));
        let resumed = Server::builder()
            .workers(1)
            .build()
            .recover_journal(&journal, &SynthesisCache::in_memory())
            .expect("recover");
        assert_eq!(resumed.summary.jobs, plain_jobs.len() as u64);
        assert_eq!(resumed.summary.resumed, plain_jobs.len() as u64);
        assert_eq!(
            resumed.jobs[victim as usize].error_kind.as_deref(),
            Some("canceled")
        );
    }
}

#[test]
fn resumed_daemon_continues_serving_after_recovered_jobs() {
    let dir = scratch("resume-serve");
    let jobs = batch(77);
    let journal = dir.join("daemon.journal");
    let journal_cfg = |resume| {
        Some(JournalConfig {
            path: journal.clone(),
            resume,
            faults: FsFaultPlan::none(),
        })
    };

    // first daemon run, journaled and gracefully drained
    let first = Server::builder()
        .workers(2)
        .journal(journal_cfg(false))
        .build();
    let clean = serve_once(&first, &jobs, &SynthesisCache::in_memory());

    // crash: keep the header, every admission, and one done record
    let full = std::fs::read_to_string(&journal).expect("journal text");
    let mut kept = Vec::new();
    let mut dones = 0;
    for line in full.lines() {
        let is_done = line.contains("\"done\"");
        if is_done && dones >= 1 {
            continue;
        }
        if line.contains("\"stats\"") {
            continue;
        }
        if is_done {
            dones += 1;
        }
        kept.push(line);
    }
    std::fs::write(&journal, format!("{}\n", kept.join("\n"))).expect("truncate");

    // a second daemon resumes the journal, then serves one more job
    let second = Server::builder()
        .workers(2)
        .journal(journal_cfg(true))
        .build();
    let extra = job("extra", 48, 64, 78);
    let report = serve_once(
        &second,
        std::slice::from_ref(&extra),
        &SynthesisCache::in_memory(),
    );

    assert_eq!(report.summary.jobs, 5, "4 recovered + 1 served live");
    assert_eq!(report.summary.resumed, 1, "one done record merged verbatim");
    assert_eq!(
        outcomes(&report, 4),
        outcomes(&clean, 4),
        "recovered prefix must match the first daemon's outcomes"
    );
    assert_eq!(report.jobs[4].name, "extra");
    assert!(report.jobs[4].ok);

    // the journal now carries the whole history: a third recovery sees
    // all five jobs as done
    let third = Server::builder().workers(1).build();
    let final_state = third
        .recover_journal(&journal, &SynthesisCache::in_memory())
        .expect("recover");
    assert_eq!(final_state.summary.jobs, 5);
    assert_eq!(final_state.summary.resumed, 5, "nothing left to re-run");
    assert_eq!(outcomes(&final_state, 5), outcomes(&report, 5));
}

#[test]
fn a_torn_tail_does_not_swallow_the_first_record_after_resume() {
    // regression: a resumed daemon used to append straight onto a torn
    // tail with no trailing newline, gluing its first admission onto the
    // fragment so that replay skipped both — an admitted, answered job
    // vanished from the journal
    let dir = scratch("torn-tail");
    let journal = dir.join("daemon.journal");
    let journal_cfg = |resume| {
        Some(JournalConfig {
            path: journal.clone(),
            resume,
            faults: FsFaultPlan::none(),
        })
    };
    let first = Server::builder()
        .workers(1)
        .journal(journal_cfg(false))
        .build();
    let jobs = [job("a", 64, 48, 5), job("b", 48, 64, 5)];
    serve_once(&first, &jobs, &SynthesisCache::in_memory());

    // crash 7 bytes into the last line, leaving no newline
    let full = std::fs::read(&journal).expect("journal bytes");
    let last = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    std::fs::write(&journal, &full[..last + 7]).expect("tear the tail");

    let second = Server::builder()
        .workers(1)
        .journal(journal_cfg(true))
        .build();
    let extra = job("extra", 64, 64, 6);
    let served = serve_once(
        &second,
        std::slice::from_ref(&extra),
        &SynthesisCache::in_memory(),
    );
    assert_eq!(served.summary.jobs, 3);
    assert!(served.jobs[2].ok, "{:?}", served.jobs[2]);

    let recovered = Server::builder()
        .workers(1)
        .build()
        .recover_journal(&journal, &SynthesisCache::in_memory())
        .expect("recover");
    assert_eq!(recovered.summary.jobs, 3, "the served job is journaled");
    assert_eq!(recovered.summary.resumed, 3);
    assert_eq!(outcomes(&recovered, 3), outcomes(&served, 3));
    let state = replay(&journal).expect("replay");
    assert_eq!(state.skipped_lines, 0, "the torn tail was cut off");
}
