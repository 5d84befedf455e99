//! Overload-hardening tests for the persistent daemon, driven through
//! the public [`tce_serve::Client`]: a seeded network fault plan kills
//! connections at deterministic points and the retrying client must
//! recover without ever double-solving a job — resent jobs dedup against
//! the synthesis cache (or join in flight) instead of re-running the
//! solver. A mini chaos soak then hammers the daemon from several
//! client threads under probabilistic resets and requires every
//! submitted job to come back terminally, exactly-once per fingerprint.
//! The journaled chaos soak adds journal faults, a cancel class and a
//! submit-and-vanish connection, and checks the daemon's own ledger:
//! no double execution, no leaked worker slot, no orphaned journal entry.
//! It runs one seed per variant; CI stress runs widen it with
//! `TCE_CHAOS_SEEDS=<n>`.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tce_cache::{FsFaultKind, FsFaultPlan, SynthesisCache};
use tce_disksim::Schedule;
use tce_ooc::ir::{fixtures::two_index_fused, to_dsl};
use tce_serve::{
    replay, write_frame, BatchReport, Client, ClientError, ClientRetry, JobRequest, JobSpec,
    JournalConfig, NetFaultKind, ServeStats, Server, WireFrame,
};

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

/// Asks a daemon whose connections reset at random to shut down: the
/// acknowledgement may be lost to a reset, so an EOF in its place is the
/// one error accepted; the caller raises the in-process flag as well.
fn shutdown_or_reset(closer: &mut Client) {
    match closer.shutdown() {
        Ok(()) => {}
        Err(ClientError::Io(e))
            if e == "connection closed without a shutting_down acknowledgement" => {}
        Err(e) => panic!("shutdown: {e}"),
    }
}

#[test]
fn client_retries_through_a_mid_response_reset_without_double_solving() {
    // Deterministic fault schedule on the daemon's shared injector:
    // op 0 is the accept, op 1 the job-frame read, op 2 the report
    // write — `fail_after(2, Reset, 1)` resets the connection exactly
    // when the first response goes out. The client must reconnect and
    // resend; the resend dedups against the cache, so the solver runs
    // exactly once even though the job was submitted twice.
    let server = Server::builder()
        .workers(1)
        .net_faults(Schedule::none().fail_after(2, NetFaultKind::Reset, 1))
        .build();
    let cache = SynthesisCache::in_memory();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));

        let mut client = Client::new(addr.to_string(), ClientRetry::default().with_seed(0x5eed));
        let report = client.submit(&job("retried", 64, 48, 9)).expect("submit");
        assert!(report.ok, "{report:?}");
        assert!(
            client.reconnects() >= 1,
            "the injected reset must have forced a reconnect"
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread")
    });

    assert_eq!(
        cache.stats().misses,
        1,
        "the resent job must dedup, not re-solve"
    );
    assert!(
        report.summary.jobs <= 2,
        "at most the original submit and one resend were admitted"
    );
    assert!(report.summary.ok >= 1);
}

#[test]
fn mini_chaos_soak_is_exactly_once_under_probabilistic_resets() {
    // Several client threads, a shared spec pool (so submissions
    // collide on fingerprints), and a daemon whose connections are
    // probabilistically reset. Gates: zero lost jobs (every submit
    // returns terminally ok) and zero double-executions (solver misses
    // never exceed the distinct fingerprint count).
    const CLIENTS: usize = 3;
    const JOBS_PER_CLIENT: usize = 8;
    let pool = [
        job("p0", 64, 48, 1),
        job("p1", 48, 64, 2),
        job("p2", 64, 64, 3),
        job("p3", 48, 48, 4),
    ];

    let server = Server::builder()
        .workers(2)
        .net_faults(
            Schedule::none()
                .with_seed(7)
                .probabilistic(0.05, NetFaultKind::Reset),
        )
        .build();
    let cache = SynthesisCache::in_memory();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));

        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let pool = &pool;
                scope.spawn(move || {
                    let retry = ClientRetry::with_attempts(6).with_seed(0xc0ffee + c as u64);
                    let mut client = Client::new(addr.to_string(), retry);
                    let mut ok = 0usize;
                    for j in 0..JOBS_PER_CLIENT {
                        let spec = &pool[(c + j) % pool.len()];
                        let report = client.submit(spec).expect("terminal report");
                        assert!(report.ok, "{report:?}");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        let delivered: usize = workers.into_iter().map(|w| w.join().expect("client")).sum();
        assert_eq!(
            delivered,
            CLIENTS * JOBS_PER_CLIENT,
            "no submitted job may be lost"
        );

        let mut closer = Client::new(addr.to_string(), ClientRetry::with_attempts(6));
        shutdown_or_reset(&mut closer);
        // a reset can swallow the shutdown frame, so raise the in-process
        // flag too
        shutdown.store(true, Ordering::Relaxed);
        handle.join().expect("serve thread")
    });

    let stats = cache.stats();
    assert!(
        stats.misses <= pool.len() as u64,
        "double-execution: {} solver runs for {} distinct fingerprints",
        stats.misses,
        pool.len()
    );
    assert!(stats.misses >= 1, "something must have actually solved");
    // every admitted job (including fault-forced resends) is terminal
    assert_eq!(
        report.summary.jobs,
        report.summary.ok + report.summary.failed,
        "all admitted jobs reach a terminal outcome"
    );
    assert_eq!(report.summary.failed, 0);
}

/// What one journaled chaos soak left behind.
struct Soak {
    report: BatchReport,
    /// Daemon counters after the drain.
    stats: ServeStats,
    journal: std::path::PathBuf,
    /// Cancel-class jobs whose cancel ended in a terminal report.
    cancels_reported: usize,
}

/// A journaled two-worker daemon under seeded connection resets (and,
/// with `fs_chaos`, seeded journal-append EIO). Three clients each send
/// a fixed job list: warm repeats of a shared pool, plus every fourth
/// job a unique spec that is submitted without waiting and canceled at
/// once. One extra connection submits a pool job and vanishes without
/// reading its report. After the clients finish, the daemon is drained
/// until every admitted job is terminal, then shut down.
fn journaled_chaos_soak(seed: u64, fs_chaos: bool) -> Soak {
    const CLIENTS: usize = 3;
    const JOBS_PER_CLIENT: usize = 24;
    let pool = [
        job("p0", 64, 48, 1),
        job("p1", 48, 64, 2),
        job("p2", 64, 64, 3),
        job("p3", 48, 48, 4),
    ];

    let dir = std::env::temp_dir().join(format!(
        "tce-serve-soak-{seed}-{fs_chaos}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("soak.journal");
    let fs_faults = match fs_chaos {
        true => FsFaultPlan::none()
            .with_seed(seed)
            .probabilistic(0.05, FsFaultKind::Eio),
        false => FsFaultPlan::none(),
    };
    let server = Server::builder()
        .workers(2)
        .max_conns(CLIENTS + 8)
        .idle_timeout(Some(Duration::from_secs(10)))
        .net_faults(
            Schedule::none()
                .with_seed(seed)
                .probabilistic(0.04, NetFaultKind::Reset),
        )
        .journal(Some(JournalConfig {
            path: journal.clone(),
            resume: false,
            faults: fs_faults,
        }))
        .build();
    let cache = SynthesisCache::in_memory();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);

    let (report, stats, cancels_reported) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).expect("serve"));

        // submit and vanish: the report goes to a dead socket
        if let Ok(mut conn) = TcpStream::connect(addr) {
            let spec = pool[0].clone();
            let _ = write_frame(&mut conn, &WireFrame::Job(JobRequest { id: 1, spec }));
        }

        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let pool = &pool;
                scope.spawn(move || {
                    let retry = ClientRetry::with_attempts(8).with_seed(seed ^ (c as u64) << 7);
                    let mut client = Client::new(addr.to_string(), retry);
                    let mut cancels_reported = 0;
                    for j in 0..JOBS_PER_CLIENT {
                        if j % 4 == 3 {
                            let tag = (c * JOBS_PER_CLIENT + j) as u64;
                            let spec = job(&format!("cancel-{tag}"), 72, 88, 300_000 + tag);
                            // a send that fails before a full frame lands
                            // admits nothing
                            let Ok(id) = client.submit_nowait(&spec) else {
                                continue;
                            };
                            // a reset connection tears the sole-interest
                            // job down server-side; the drain gate below
                            // proves it still reached a terminal report
                            if client
                                .cancel(id)
                                .and_then(|_| client.await_report(id))
                                .is_ok()
                            {
                                cancels_reported += 1;
                            }
                            continue;
                        }
                        let spec = &pool[(c + j) % pool.len()];
                        let report = client.submit(spec).expect("lost job");
                        assert!(report.ok, "{report:?}");
                    }
                    cancels_reported
                })
            })
            .collect();
        let cancels_reported = clients.into_iter().map(|h| h.join().expect("client")).sum();

        // drain: with the stream stopped, every admitted job must reach
        // a terminal report; a leaked worker slot stalls `completed`
        let mut closer = Client::new(addr.to_string(), ClientRetry::with_attempts(8));
        let hang_guard = Instant::now() + Duration::from_secs(30);
        let mut stats = closer.stats().expect("stats");
        while stats.admitted != stats.completed && Instant::now() < hang_guard {
            std::thread::sleep(Duration::from_millis(20));
            stats = closer.stats().expect("stats");
        }
        shutdown_or_reset(&mut closer);
        shutdown.store(true, Ordering::Relaxed); // see the mini soak
        (
            handle.join().expect("serve thread"),
            stats,
            cancels_reported,
        )
    });
    Soak {
        report,
        stats,
        journal,
        cancels_reported,
    }
}

/// The gates every soak run must pass, journal faults or not.
fn assert_exactly_once(soak: &Soak) {
    let (report, stats) = (&soak.report, &soak.stats);
    assert_eq!(
        stats.admitted, stats.completed,
        "leaked worker slots: {stats:?}"
    );
    assert_eq!(
        report.summary.jobs,
        report.summary.ok + report.summary.failed,
        "every admitted job reaches a terminal outcome"
    );
    // a fingerprint whose solve succeeded is never freshly solved again:
    // resends hit the cache or join the flight in progress
    let mut fresh_ok: HashMap<&str, u64> = HashMap::new();
    for j in report.jobs.iter().filter(|j| j.ok && !j.hit && !j.joined) {
        *fresh_ok.entry(j.fingerprint.as_str()).or_default() += 1;
    }
    let doubled: Vec<_> = fresh_ok.iter().filter(|(_, &n)| n > 1).collect();
    assert!(doubled.is_empty(), "double-executed: {doubled:?}");
    // nothing failed: a job either succeeded or was canceled, explicitly
    // or because its only connection went away (the vanished submit, a
    // reset before a resend)
    for j in &report.jobs {
        assert!(j.ok || j.error_kind.as_deref() == Some("canceled"), "{j:?}");
    }
    assert!(
        soak.cancels_reported > 0,
        "no cancel was ever observed to a terminal report"
    );
}

/// Soak seeds: one by default, widened by `TCE_CHAOS_SEEDS=<n>`.
fn soak_seeds(base: u64) -> impl Iterator<Item = u64> {
    let n: u64 = std::env::var("TCE_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    (0..n).map(move |k| base + 2 * k)
}

#[test]
fn journaled_chaos_soak_loses_and_doubles_nothing_under_net_and_fs_faults() {
    for seed in soak_seeds(2004) {
        let soak = journaled_chaos_soak(seed, true);
        assert_exactly_once(&soak);
        let _ = std::fs::remove_dir_all(soak.journal.parent().expect("scratch dir"));
    }
}

#[test]
fn journaled_chaos_soak_leaves_no_journal_orphans_without_fs_faults() {
    for seed in soak_seeds(2005) {
        let soak = journaled_chaos_soak(seed, false);
        assert_exactly_once(&soak);
        // every admitted journal index carries a done or a cancel record
        let state = replay(&soak.journal).expect("replay");
        let orphans: Vec<_> = state
            .specs
            .keys()
            .filter(|idx| !state.done.contains_key(idx) && !state.canceled.contains(idx))
            .collect();
        assert!(
            orphans.is_empty(),
            "seed {seed}: journal orphans: {orphans:?}"
        );
        let bytes = std::fs::metadata(&soak.journal).expect("journal").len();
        let per_job = bytes as f64 / soak.report.summary.jobs.max(1) as f64;
        assert!(
            per_job <= 8192.0,
            "seed {seed}: journal grew {per_job:.0} B/job"
        );
        let _ = std::fs::remove_dir_all(soak.journal.parent().expect("scratch dir"));
    }
}
