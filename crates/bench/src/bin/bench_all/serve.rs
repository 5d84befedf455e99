//! `serve_warm` and `serve_cold`: an in-process journaled daemon on
//! loopback with one worker, driven by two blocking clients.
//!
//! The loop is closed: `Client::submit` returns when the job's report
//! arrives, and each client sends its next job only then. Two clients on
//! one worker keep exactly one job waiting behind the one being served.
//!
//! The benchmark cannot see inside the daemon. A traced run hangs the
//! durations the daemon reports for each job (`queue_wait_s`, `total_s`,
//! `solve_wall_s`) under the client-side span as children, and times the
//! frame, journal and cache-record calls on their own afterwards, on the
//! payloads this run produced.

use crate::grid::{gen_network_dsl, GB};
use crate::rng::SplitMix64;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::verify::{verification_pass, Baseline};
use crate::workload::{span_table, Ctx, Layers, Samples, Traced};
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::Instant;
use tce_cache::{CacheRecord, CacheStats, SynthesisCache};
use tce_core::{synthesize_dcs, synthesize_network};
use tce_ir::fixtures::{four_index_fused, two_index_fused};
use tce_serve::{
    proto::frame_bytes, BatchReport, Client, ClientRetry, FrameDecoder, JobReport, JobRequest,
    JobSpec, JournalConfig, JournalWriter, ServeStats, Server, WireFrame,
};

pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 1;

/// Payloads kept for the per-call timings of a traced run.
const KEPT_FRAMES: usize = 2000;
const KEPT_JOURNAL_LINES: usize = 3000;
/// No more than the cache's default memory capacity, so that reading them
/// back through the handle that stored them reads memory.
const KEPT_RECORDS: usize = tce_cache::DEFAULT_LRU_CAP;

const TEST_MEM: u64 = 64 * 1024;

/// Sizes of the warm two-index pool (the soak's).
const POOL_SIZES: [(u64, u64); 6] = [(64, 48), (48, 64), (64, 64), (48, 48), (56, 48), (48, 56)];
/// Network specs in the warm pool.
const NET_POOL: usize = 4;

fn job(name: String, program: String, mem_limit: u64, test_scale: bool, seed: u64) -> JobSpec {
    JobSpec {
        name,
        program,
        mem_limit,
        test_scale,
        strategy: None,
        seed: Some(seed),
        budget: None,
        telemetry: false,
        objective: None,
        timeout_ms: None,
    }
}

fn two_index_job(name: String, (n, v): (u64, u64), mem_limit: u64, seed: u64) -> JobSpec {
    job(
        name,
        tce_ir::to_dsl(&two_index_fused(n, v)),
        mem_limit,
        true,
        seed,
    )
}

fn four_index_job(name: String, (n, v): (u64, u64), seed: u64) -> JobSpec {
    job(
        name,
        tce_ir::to_dsl(&four_index_fused(n, v)),
        2 * GB,
        false,
        seed,
    )
}

fn network_job(name: String, gen_seed: u64, nodes: usize, seed: u64) -> JobSpec {
    job(name, gen_network_dsl(gen_seed, nodes), TEST_MEM, true, seed)
}

/// The pre-warmed dense pool: six test-scale two-index specs and the two
/// paper-scale four-index ones. Fixed, like the grid, so that its reports
/// can be held against a library synthesis of the same spec.
fn dense_pool() -> Vec<JobSpec> {
    let mut pool: Vec<JobSpec> = POOL_SIZES
        .iter()
        .enumerate()
        .map(|(i, &size)| two_index_job(format!("pool-{i}"), size, TEST_MEM, 2004 + i as u64))
        .collect();
    pool.push(four_index_job(
        "pool-four-140".to_string(),
        (140, 120),
        2004,
    ));
    pool.push(four_index_job(
        "pool-four-190".to_string(),
        (190, 180),
        2004,
    ));
    pool
}

fn network_pool() -> Vec<JobSpec> {
    (0..NET_POOL)
        .map(|i| {
            network_job(
                format!("net-{i}"),
                0xA5A5 + i as u64,
                2 + i % 2,
                2004 + i as u64,
            )
        })
        .collect()
}

/// `(io_bytes bits, memory_bytes bits)` of a library synthesis of `spec`:
/// the reference a daemon report of the same spec must equal.
fn library_bits(spec: &JobSpec) -> Result<(u64, u64), String> {
    let config = spec.config()?;
    let (io, memory) = if tce_ir::is_network_src(&spec.program) {
        let dag = tce_ir::parse_network(&spec.program).map_err(|e| e.to_string())?;
        let r = synthesize_network(&dag, &config).map_err(|e| e.to_string())?;
        (r.io_bytes, r.memory_bytes)
    } else {
        let r = synthesize_dcs(&spec.parse_program()?, &config).map_err(|e| e.to_string())?;
        (r.io_bytes, r.memory_bytes)
    };
    Ok((io.to_bits(), memory.to_bits()))
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

struct Daemon {
    addr: SocketAddr,
    dir: PathBuf,
    thread: Option<JoinHandle<Result<(BatchReport, CacheStats), String>>>,
}

impl Daemon {
    /// Journal and disk-backed cache in `dir`, which must be new.
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir.join("cache")).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let cache = SynthesisCache::with_dir(dir.join("cache"))?;
        let server = Server::builder()
            .workers(WORKERS)
            .max_conns(CLIENTS + 4)
            .journal(Some(JournalConfig::new(dir.join("journal.jsonl"))))
            .build();
        let thread = std::thread::spawn(move || {
            // set only by a client's shutdown frame
            let shutdown = AtomicBool::new(false);
            let report = server.serve(listener, &cache, &shutdown)?;
            Ok((report, cache.stats()))
        });
        Ok(Daemon {
            addr,
            dir,
            thread: Some(thread),
        })
    }

    fn client(&self, lane: u64) -> Client {
        Client::new(
            self.addr.to_string(),
            ClientRetry::with_attempts(8).with_seed(lane),
        )
    }

    /// Final stats, then a drained shutdown; the daemon's own report of
    /// every job it served comes back with the cache's counters.
    fn stop(mut self) -> Result<(ServeStats, BatchReport, CacheStats), String> {
        let mut closer = self.client(99);
        let stats = closer.stats().map_err(|e| e.to_string())?;
        closer.shutdown().map_err(|e| e.to_string())?;
        let thread = self.thread.take().expect("stop runs once");
        let (report, cache) = thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        Ok((stats, report, cache))
    }
}

impl Drop for Daemon {
    /// A daemon abandoned by a failed set-up must not outlive the run.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.client(99).shutdown();
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

pub struct Prepared {
    daemon: Daemon,
    dense_pool: Vec<JobSpec>,
    network_pool: Vec<JobSpec>,
    /// Library reference bits by job name, for every pool spec.
    pool_bits: HashMap<String, (u64, u64)>,
    /// Jobs set-up itself sent (the pre-warming), all distinct.
    warmed: u64,
    pub baseline: Baseline,
}

pub fn setup(ctx: &Ctx, rep: usize) -> Result<Prepared, String> {
    let baseline = verification_pass(&crate::grid::p8())?;
    let daemon = Daemon::start(ctx.scratch.join(format!("daemon-{rep}")))?;
    let (mut dense, mut networks) = (Vec::new(), Vec::new());
    let mut pool_bits = HashMap::new();
    if ctx.workload == "serve_warm" {
        (dense, networks) = (dense_pool(), network_pool());
        let mut client = daemon.client(0);
        for spec in dense.iter().chain(&networks) {
            let want = library_bits(spec)?;
            let report = client
                .submit(spec)
                .map_err(|e| format!("{}: {e}", spec.name))?;
            if !report.ok
                || report.hit
                || (report.io_bytes.to_bits(), report.memory_bytes.to_bits()) != want
            {
                return Err(format!(
                    "{}: pre-warming report differs from the library result",
                    spec.name
                ));
            }
            pool_bits.insert(spec.name.clone(), want);
        }
    }
    Ok(Prepared {
        warmed: (dense.len() + networks.len()) as u64,
        daemon,
        dense_pool: dense,
        network_pool: networks,
        pool_bits,
        baseline,
    })
}

// ---------------------------------------------------------------------
// The request stream
// ---------------------------------------------------------------------

const WARM_CLASSES: [&str; 4] = [
    "pool_repeat",
    "renamed_duplicate",
    "network_repeat",
    "cold_unique",
];
const COLD_CLASSES: [&str; 4] = [
    "dense_test_scale",
    "four_index_140_120",
    "four_index_190_180",
    "network",
];

/// One request of a client's stream.
pub struct Request {
    pub class: usize,
    pub spec: JobSpec,
    /// Pool spec whose library bits the report must carry.
    pub same_as: Option<String>,
    /// Whether the daemon must answer from its cache.
    pub expect_hit: bool,
}

/// A client's seeded request stream. `lane` keeps the unique jobs of the
/// two clients apart.
pub struct Stream<'a> {
    rng: SplitMix64,
    lane: u64,
    sent: u64,
    warm: Option<(&'a [JobSpec], &'a [JobSpec])>,
}

impl<'a> Stream<'a> {
    pub fn new(seed: u64, lane: u64, warm: Option<(&'a [JobSpec], &'a [JobSpec])>) -> Self {
        Stream {
            rng: SplitMix64::new(seed).fork(lane),
            lane,
            sent: 0,
            warm,
        }
    }

    /// A number no other request of this run carries.
    fn unique(&mut self) -> u64 {
        self.sent += 1;
        self.sent * CLIENTS as u64 + self.lane
    }

    pub fn next_request(&mut self) -> Request {
        let roll = self.rng.below(100);
        let u = self.unique();
        let solver_seed = self.rng.next_u64() >> 16;
        let Some((dense, networks)) = self.warm else {
            // serve_cold: every job unique
            let coin = self.rng.below(2);
            let (class, spec) = match roll {
                0..50 => (
                    0,
                    two_index_job(
                        format!("cold-{u}"),
                        (64, 48),
                        TEST_MEM + 16 * u,
                        solver_seed,
                    ),
                ),
                50..75 if coin == 0 => (
                    1,
                    four_index_job(format!("four-{u}"), (140, 120), solver_seed),
                ),
                50..75 => (
                    2,
                    four_index_job(format!("four-{u}"), (190, 180), solver_seed),
                ),
                _ => (
                    3,
                    network_job(format!("net-{u}"), u, 2 + coin as usize, solver_seed),
                ),
            };
            return Request {
                class,
                spec,
                same_as: None,
                expect_hit: false,
            };
        };
        // serve_warm: 60% pool repeats, 15% renamed duplicates, 15% network
        // repeats, 10% unique cold jobs
        match roll {
            0..75 => {
                let mut spec = dense[self.rng.below(dense.len() as u64) as usize].clone();
                let same_as = Some(spec.name.clone());
                let class = usize::from(roll >= 60);
                if class == 1 {
                    // a new name on the same program: the same fingerprint
                    spec.name = format!("renamed-{u}");
                }
                Request {
                    class,
                    spec,
                    same_as,
                    expect_hit: true,
                }
            }
            75..90 => {
                let spec = networks[self.rng.below(networks.len() as u64) as usize].clone();
                Request {
                    class: 2,
                    same_as: Some(spec.name.clone()),
                    spec,
                    expect_hit: true,
                }
            }
            _ => Request {
                class: 3,
                spec: two_index_job(
                    format!("cold-{u}"),
                    (64, 48),
                    TEST_MEM + 16 * u,
                    solver_seed,
                ),
                same_as: None,
                expect_hit: false,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// One delivered job as a client saw it.
struct Delivered {
    class: usize,
    began: Instant,
    done: Instant,
    ok: bool,
    report: JobReport,
    /// Kept for the frame timings of a traced run.
    spec: Option<JobSpec>,
}

/// What one client thread brings back: its jobs and its retries.
type ClientRun = (Vec<Delivered>, u64);

/// What the clients gathered plus the daemon's own account.
struct Outcome {
    origin: Instant,
    delivered: Vec<Delivered>,
    client_retries: u64,
    stats: ServeStats,
    daemon: BatchReport,
    cache: CacheStats,
    dir: PathBuf,
}

fn classes_of(ctx: &Ctx) -> Vec<String> {
    let names = if ctx.workload == "serve_warm" {
        WARM_CLASSES
    } else {
        COLD_CLASSES
    };
    names.iter().map(|s| s.to_string()).collect()
}

/// Drives the daemon for the window, stops it and holds its account
/// against the clients': no job lost, none executed twice.
fn drive(prep: Prepared, ctx: &Ctx, keep_specs: bool) -> Result<Outcome, String> {
    let warm =
        (ctx.workload == "serve_warm").then_some((&prep.dense_pool[..], &prep.network_pool[..]));
    let origin = Instant::now();
    let per_client: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|lane| {
                let (daemon, pool_bits) = (&prep.daemon, &prep.pool_bits);
                scope.spawn(move || {
                    let mut client = daemon.client(lane);
                    let mut stream = Stream::new(ctx.seed, lane, warm);
                    let mut delivered = Vec::new();
                    while origin.elapsed().as_secs_f64() < ctx.seconds {
                        let request = stream.next_request();
                        let began = Instant::now();
                        let answer = client.submit(&request.spec);
                        let done = Instant::now();
                        // a submission that ends in a client error is a lost job
                        let report =
                            answer.map_err(|e| format!("{} was lost: {e}", request.spec.name))?;
                        let bits = (report.io_bytes.to_bits(), report.memory_bytes.to_bits());
                        let ok = report.ok
                            && report.hit == request.expect_hit
                            && request
                                .same_as
                                .as_ref()
                                .is_none_or(|name| pool_bits[name] == bits);
                        delivered.push(Delivered {
                            class: request.class,
                            began,
                            done,
                            ok,
                            report,
                            spec: (keep_specs && delivered.len() < KEPT_FRAMES)
                                .then_some(request.spec),
                        });
                    }
                    Ok((delivered, client.retries()))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let dir = prep.daemon.dir.clone();
    let warmed = prep.warmed;
    let (stats, daemon, cache) = prep.daemon.stop()?;

    let mut delivered = Vec::new();
    let mut client_retries = 0;
    for client in per_client {
        let (d, retries) = client?;
        delivered.extend(d);
        client_retries += retries;
    }
    let submitted = delivered.len() as u64;
    if daemon.summary.jobs != submitted + warmed {
        return Err(format!(
            "clients were answered {submitted} + {warmed} times, the daemon reports {} jobs",
            daemon.summary.jobs
        ));
    }
    // exactly once: a fingerprint is solved fresh at most one time, and
    // the solver ran no more often than distinct fingerprints were issued
    let mut fresh: HashMap<&str, u32> = HashMap::new();
    for j in daemon.jobs.iter().filter(|j| j.ok && !j.hit && !j.joined) {
        *fresh.entry(j.fingerprint.as_str()).or_default() += 1;
    }
    if let Some((fp, n)) = fresh.iter().find(|(_, &n)| n > 1) {
        return Err(format!("fingerprint {fp} was solved {n} times"));
    }
    let distinct: HashSet<&str> = daemon.jobs.iter().map(|j| j.fingerprint.as_str()).collect();
    if cache.misses > distinct.len() as u64 {
        return Err(format!(
            "{} solver runs for {} distinct fingerprints",
            cache.misses,
            distinct.len()
        ));
    }
    Ok(Outcome {
        origin,
        delivered,
        client_retries,
        stats,
        daemon,
        cache,
        dir,
    })
}

pub fn run(prep: Prepared, ctx: &Ctx) -> Result<Samples, String> {
    let outcome = drive(prep, ctx, false)?;
    let mut samples = Samples::new(ctx, classes_of(ctx));
    for d in &outcome.delivered {
        samples.push_timed(d.class, outcome.origin, d.began, d.done, d.ok);
    }
    Ok(samples)
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Times `f` on each item, in microseconds.
fn time_each<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Vec<f64> {
    items
        .into_iter()
        .map(|item| {
            let began = Instant::now();
            f(item);
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Every `.json` record of a cache directory, parsed: `(key, record, bytes)`.
fn load_records(dir: &Path) -> Vec<(String, CacheRecord, u64)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    paths.retain(|p| p.extension().is_some_and(|e| e == "json"));
    paths.sort();
    paths
        .into_iter()
        .take(KEPT_RECORDS)
        .filter_map(|path| {
            let text = std::fs::read_to_string(&path).ok()?;
            let record = CacheRecord::from_envelope_json(&text).ok()?;
            Some((
                path.file_stem()?.to_str()?.to_string(),
                record,
                text.len() as u64,
            ))
        })
        .collect()
}

pub fn run_traced(prep: Prepared, ctx: &Ctx) -> Result<Traced, String> {
    let outcome = drive(prep, ctx, true)?;
    let origin = outcome.origin;
    let mut t = Tracer::new(ctx.workload, origin);
    let mut failed = 0;
    let (mut wire_ms, mut queue_ms, mut total_ms, mut solve_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hit_ms, mut miss_ms, mut network_ms, mut all_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut joined) = (0u64, 0u64);
    let classes = classes_of(ctx);
    let network_class = classes
        .iter()
        .position(|c| c.starts_with("network"))
        .expect("both mixes have a network class");
    for (k, d) in outcome.delivered.iter().enumerate() {
        failed += u64::from(!d.ok);
        let (op, class) = (k as u64 + 1, d.class as u32);
        let (start, end) = (
            (d.began - origin).as_nanos() as u64,
            (d.done - origin).as_nanos() as u64,
        );
        let root = t.record(op, class, "serve.job", None, start, end, false);
        // the daemon reports durations, not instants: the children are
        // laid end to end in the middle of the client's interval, which
        // leaves the wire overhead as the root's self time
        let r = &d.report;
        let (queue, total) = ((r.queue_wait_s * 1e9) as u64, (r.total_s * 1e9) as u64);
        let wire = (end - start).saturating_sub(queue + total);
        let at = start + wire / 2;
        t.record(
            op,
            class,
            "serve.queue_wait",
            Some(root),
            at,
            at + queue,
            false,
        );
        let worker = t.record(
            op,
            class,
            "serve.worker_total",
            Some(root),
            at + queue,
            at + queue + total,
            false,
        );
        let solve = (r.solve_wall_s * 1e9) as u64;
        if solve > 0 {
            t.record(
                op,
                class,
                "serve.solve_wall",
                Some(worker),
                at + queue,
                at + queue + solve.min(total),
                false,
            );
            solve_ms.push(r.solve_wall_s * 1e3);
        }
        let client_ms = (end - start) as f64 / 1e6;
        all_ms.push(client_ms);
        wire_ms.push(wire as f64 / 1e6);
        queue_ms.push(r.queue_wait_s * 1e3);
        total_ms.push(r.total_s * 1e3);
        if d.class == network_class {
            network_ms.push(client_ms);
        } else if r.hit {
            hit_ms.push(client_ms);
        } else {
            miss_ms.push(client_ms);
        }
        hits += u64::from(r.hit);
        joined += u64::from(r.joined);
    }
    let jobs = outcome.delivered.len().max(1) as f64;

    // frames: encode and decode the job and report frames of this run
    let frames: Vec<WireFrame> = outcome
        .delivered
        .iter()
        .enumerate()
        .filter_map(|(k, d)| {
            let spec = d.spec.clone()?;
            let id = k as u64 + 1;
            Some([
                WireFrame::Job(JobRequest { id, spec }),
                WireFrame::Report {
                    id,
                    report: d.report.clone(),
                },
            ])
        })
        .flatten()
        .collect();
    let mut encoded = Vec::new();
    let encode_us = time_each(&frames, |f| {
        encoded.push(frame_bytes(f).expect("frame encodes"))
    });
    let mut decoder = FrameDecoder::new();
    let decode_us = time_each(&encoded, |bytes| {
        decoder.extend(bytes);
        assert!(matches!(decoder.next_frame(), Ok(Some(_))), "frame decodes");
    });

    // journal: append this run's own journal lines to a scratch journal
    let journal_path = outcome.dir.join("journal.jsonl");
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    let lines: Vec<serde_json::Value> = std::fs::read_to_string(&journal_path)
        .unwrap_or_default()
        .lines()
        .take(KEPT_JOURNAL_LINES)
        .filter_map(|l| serde_json::parse_value(l).ok())
        .collect();
    let writer = JournalWriter::open(&outcome.dir.join("journal-replay.jsonl"), true, None)?;
    let append_us = time_each(&lines, |event| writer.append(event));

    // cache: store this run's own records into a scratch directory, then
    // read them back from memory and, through a fresh handle, from disk
    let records = load_records(&outcome.dir.join("cache"));
    let scratch = outcome.dir.join("cache-replay");
    let store = SynthesisCache::with_dir(&scratch)?;
    let put_us = time_each(&records, |(key, record, _)| {
        store.put(key, record.clone()).expect("record stores")
    });
    let mem_us = time_each(&records, |(key, ..)| {
        assert!(store.get(key).is_some(), "memory read")
    });
    let reopened = SynthesisCache::with_dir(&scratch)?;
    let disk_us = time_each(&records, |(key, ..)| {
        assert!(reopened.get(key).is_some(), "disk read")
    });
    let record_bytes: Vec<f64> = records.iter().map(|r| r.2 as f64).collect();

    let mut layers = Layers::new();
    layers.insert("serve.frame_encode_us", median(&encode_us));
    layers.insert("serve.frame_decode_us", median(&decode_us));
    layers.insert("serve.journal_append_us", median(&append_us));
    layers.insert(
        "serve.journal_bytes_per_job",
        journal_bytes as f64 / outcome.stats.admitted.max(1) as f64,
    );
    layers.insert("serve.queue_wait_ms", median(&queue_ms));
    layers.insert(
        "serve.queue_wait_p99_ms",
        percentile(&sorted(queue_ms), 99.0),
    );
    layers.insert("serve.worker_total_ms", median(&total_ms));
    layers.insert("serve.solve_wall_ms", median(&solve_ms));
    layers.insert("serve.wire_overhead_ms", median(&wire_ms));
    layers.insert("serve.job_p50_ms", median(&all_ms));
    layers.insert("serve.hit_ms", median(&hit_ms));
    layers.insert("serve.miss_ms", median(&miss_ms));
    layers.insert("serve.network_ms", median(&network_ms));
    layers.insert("serve.hit_share", hits as f64 / jobs);
    layers.insert("serve.joined_share", joined as f64 / jobs);
    layers.insert("serve.rejected", outcome.stats.rejected as f64);
    layers.insert("serve.client_retries", outcome.client_retries as f64);
    layers.insert(
        "serve.bytes_in_per_job",
        outcome.stats.bytes_in as f64 / outcome.stats.completed.max(1) as f64,
    );
    layers.insert(
        "serve.bytes_out_per_job",
        outcome.stats.bytes_out as f64 / outcome.stats.completed.max(1) as f64,
    );
    layers.insert("cache.put_us", median(&put_us));
    layers.insert("cache.mem_hit_us", median(&mem_us));
    layers.insert("cache.disk_hit_us", median(&disk_us));
    layers.insert("cache.record_bytes", median(&record_bytes));
    let lookups = outcome.cache.hits + outcome.cache.misses;
    layers.insert(
        "cache.hit_share",
        outcome.cache.hits as f64 / lookups.max(1) as f64,
    );
    layers.insert("cache.replay_rejects", outcome.cache.rejects as f64);
    // the solver's share of the daemon's day, from the daemon's own reports
    let solved: Vec<f64> = outcome
        .daemon
        .jobs
        .iter()
        .filter(|j| j.solve_wall_s > 0.0)
        .map(|j| j.solve_wall_s * 1e3)
        .collect();
    layers.insert("solver.solve_ms", median(&solved));
    // share of the client's interval that the reported durations cover
    let covered: Vec<f64> = all_ms
        .iter()
        .zip(&wire_ms)
        .map(|(all, wire)| 1.0 - wire / all)
        .collect();
    layers.insert("bench.stage_sum_share", median(&covered));

    // one table per kind of job: a hit, a cold dense job, a network job
    let mut tables = String::new();
    for (k, name) in classes.iter().enumerate() {
        let rows = t.by_name(|s| s.class as usize == k);
        if let Some(root) = rows.first() {
            let whole_us = median(&root.1);
            tables.push_str(&span_table(
                &format!("{} / {name}", ctx.workload),
                &rows,
                whole_us,
            ));
        }
    }
    tables.push_str(&format!(
        "    per call on this run's payloads: frame encode {:.1} us, decode {:.1} us ({} frames); \
         journal append {:.1} us ({} lines); cache put {:.1} us, memory read {:.1} us, disk read {:.1} us ({} records)\n",
        median(&encode_us),
        median(&decode_us),
        frames.len(),
        median(&append_us),
        lines.len(),
        median(&put_us),
        median(&mem_us),
        median(&disk_us),
        records.len()
    ));
    Ok(Traced {
        tracer: t,
        classes,
        layers,
        attempted: outcome.delivered.len() as u64,
        failed,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, lane: u64, warm: bool, n: usize) -> Vec<(usize, String, u64, Option<u64>)> {
        let (dense, networks) = (dense_pool(), network_pool());
        let mut stream = Stream::new(seed, lane, warm.then_some((&dense[..], &networks[..])));
        (0..n)
            .map(|_| {
                let r = stream.next_request();
                (r.class, r.spec.name, r.spec.mem_limit, r.spec.seed)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for warm in [true, false] {
            assert_eq!(draw(7, 0, warm, 400), draw(7, 0, warm, 400));
            assert_ne!(draw(7, 0, warm, 400), draw(8, 0, warm, 400));
            assert_ne!(draw(7, 0, warm, 400), draw(7, 1, warm, 400));
        }
    }

    #[test]
    fn class_mix_follows_the_stated_shares() {
        let share = |warm: bool, class: usize| {
            let n = 20_000;
            draw(2004, 0, warm, n)
                .iter()
                .filter(|r| r.0 == class)
                .count() as f64
                / n as f64
        };
        for (class, want) in [(0, 0.60), (1, 0.15), (2, 0.15), (3, 0.10)] {
            assert!(
                (share(true, class) - want).abs() < 0.015,
                "warm class {class}"
            );
        }
        for (class, want) in [(0, 0.50), (1, 0.125), (2, 0.125), (3, 0.25)] {
            assert!(
                (share(false, class) - want).abs() < 0.015,
                "cold class {class}"
            );
        }
    }

    #[test]
    fn unique_jobs_never_repeat_across_clients() {
        let mut names = HashSet::new();
        for lane in 0..CLIENTS as u64 {
            for r in draw(5, lane, false, 2000) {
                assert!(names.insert(r.1), "a cold job name repeated");
            }
        }
    }
}
