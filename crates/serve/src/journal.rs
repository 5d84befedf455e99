//! The write-ahead journal (`tce-serve/journal/v2`), one format for batch
//! runs, JSON-lines runs and the daemon.
//!
//! A journaled run records its progress as one JSON object per line,
//! fsynced per append, so a crash — SIGKILL included — loses at most the
//! line being written:
//!
//! ```text
//! {"ev":"journal","schema":"tce-serve/journal/v2"}
//! {"ev":"admit","job":0,"digest":…,"spec":{…}}   ← full JobSpec, write-ahead
//! {"ev":"cancel","job":0}                        ← a client retracted the job
//! {"ev":"done","job":0,"report":{…}}             ← full JobReport, verbatim
//! {"ev":"stats","completed":…}                   ← daemon drain telemetry
//! ```
//!
//! A clean batch of `n` jobs leaves `1 + 2n` lines (header, admissions up
//! front, one `done` per job); a drained daemon leaves `2 + 2n` (its
//! admissions interleave with the `done`s, and a `stats` line ends it).
//!
//! Batch runs, the daemon and [`JournalWriter::open`] all open a journal
//! through one routine. A fresh run truncates and writes the header. A resumed run replays the file
//! first: a missing, empty or headerless file is a fresh run; a header of
//! any other schema (v1 included) is refused with the file untouched; a
//! torn tail — bytes after the last `\n`, the append a crash interrupted —
//! is cut off before anything is appended, so the next record starts on a
//! line of its own.
//!
//! [`JournalState::recovery`] is the one recovery rule, over the
//! contiguous admitted prefix: a job with a `done` merges verbatim, a job
//! with a `cancel` and no `done` gets the canonical canceled report, and
//! every other job re-runs. Unreadable lines (an injected filesystem
//! fault's damage) are skipped, which is always safe: the worst case is
//! re-running a job that had finished.
//!
//! Journal *appends* are best-effort by design: a full disk degrades the
//! journal (counted in [`JournalWriter::skipped`]) but never fails the
//! run — the journal exists to make crashes cheaper, not to add a new way
//! to fail.

use crate::job::{spec_digest, JobReport, JobSpec};
use serde::{Deserialize, Value};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tce_cache::fsfault;
use tce_cache::{FsFaultKind, FsFaultPlan};
use tce_disksim::lock::lock;
use tce_disksim::Injector;

/// Schema tag in the journal's header line.
pub const JOURNAL_SCHEMA: &str = "tce-serve/journal/v2";

/// Write-ahead journal configuration for one run.
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

/// Everything a resumed run learns from an existing journal.
#[derive(Default)]
pub struct JournalState {
    /// Full specs of admitted jobs (`admit` lines), by admission index.
    pub specs: HashMap<usize, JobSpec>,
    /// Reports of jobs that finished before the crash, by admission
    /// index — reused verbatim on resume.
    pub done: HashMap<usize, JobReport>,
    /// Jobs a `cancel` line proved were canceled. On resume a canceled
    /// job without a `done` record is *not* re-run — its canceled report
    /// is reproduced deterministically instead ([`JobReport::canceled`]).
    /// A `done` record, when present, wins: it means the job reached a
    /// terminal report before the crash (the cancel lost the race with
    /// completion, or the cancel's own report was journaled as `done`).
    pub canceled: HashSet<usize>,
    /// Lines that failed to parse (the torn tail of a crash, or an
    /// injected fault's damage) and were skipped.
    pub skipped_lines: u64,
}

impl JournalState {
    /// Length of the contiguous admitted prefix: a torn or lost
    /// admission ends what the journal can prove was admitted.
    pub fn admitted(&self) -> usize {
        (0..).take_while(|idx| self.specs.contains_key(idx)).count()
    }

    /// The recovery rule: the specs of the contiguous admitted prefix, and
    /// the reports of those of them that are settled — a `done` record
    /// verbatim, a `cancel` without one as [`JobReport::canceled`]. Every
    /// other admitted job must re-run.
    pub fn recovery(mut self) -> (Vec<JobSpec>, HashMap<usize, JobReport>) {
        let specs: Vec<JobSpec> = (0..self.admitted())
            .map(|idx| self.specs.remove(&idx).expect("admitted prefix"))
            .collect();
        let settled = specs
            .iter()
            .enumerate()
            .filter_map(|(idx, spec)| match self.done.remove(&idx) {
                Some(report) => Some((idx, report)),
                None if self.canceled.contains(&idx) => {
                    Some((idx, JobReport::canceled(&spec.name, "", 0.0)))
                }
                None => None,
            })
            .collect();
        (specs, settled)
    }
}

/// Replays a journal file read-only. A missing, empty or headerless file
/// is an empty journal; a header of another schema is an error. Lines are
/// records only once their `\n` is written, so a torn tail is skipped.
pub fn replay(path: &Path) -> Result<JournalState, String> {
    Ok(parse(&read(path)?, path)?.unwrap_or_default())
}

/// The journal's bytes; a missing file reads as empty, but any other read
/// error fails rather than pass for a fresh run that would truncate it.
fn read(path: &Path) -> Result<Vec<u8>, String> {
    match fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read.map_err(|e| format!("cannot read journal {path:?}: {e}")),
    }
}

/// Length of the complete-line prefix of `bytes` (through the last `\n`).
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
}

/// Parses journal bytes; `None` when no header was found (a fresh run).
fn parse(bytes: &[u8], path: &Path) -> Result<Option<JournalState>, String> {
    let mut state = JournalState::default();
    let mut headed = false;
    let complete = &bytes[..complete_len(bytes)];
    if complete.len() < bytes.len() {
        state.skipped_lines += 1; // the torn tail
    }
    for line in complete.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line) else {
            state.skipped_lines += 1;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::parse_value(line) else {
            state.skipped_lines += 1;
            continue;
        };
        // any header line: this build reads its own schema only
        if let Some(schema) = v.get("schema") {
            let found = match schema {
                Value::Str(s) => s.as_str(),
                _ => "",
            };
            if found != JOURNAL_SCHEMA {
                return Err(format!(
                    "journal {path:?} has schema {found:?}, not {JOURNAL_SCHEMA:?}; \
                     refusing to resume it"
                ));
            }
            headed = true;
            continue;
        }
        let ev = match v.get("ev") {
            Some(Value::Str(ev)) => ev.as_str(),
            _ => "",
        };
        let idx = u64_field(&v, "job").map(|i| i as usize);
        match (ev, idx) {
            ("admit", Some(idx)) => match v.get("spec").map(JobSpec::from_value) {
                Some(Ok(spec)) if u64_field(&v, "digest") == Some(spec_digest(&spec)) => {
                    // records of an index belong to its latest admission
                    state.done.remove(&idx);
                    state.canceled.remove(&idx);
                    state.specs.insert(idx, spec);
                }
                // a torn or fault-damaged admission is dropped whole:
                // better to lose the job than resume a wrong spec
                _ => state.skipped_lines += 1,
            },
            ("done", Some(idx)) => match v.get("report").map(JobReport::from_value) {
                Some(Ok(report)) => {
                    state.done.insert(idx, report);
                }
                _ => state.skipped_lines += 1,
            },
            ("cancel", Some(idx)) => {
                state.canceled.insert(idx);
            }
            // drain telemetry carries no resume obligations
            ("stats", _) => {}
            _ => state.skipped_lines += 1,
        }
    }
    Ok(headed.then_some(state))
}

fn u64_field(v: &Value, name: &str) -> Option<u64> {
    match v.get(name) {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Append-side of the journal: one fsynced JSON line per event, shared by
/// every worker in the pool.
pub struct JournalWriter {
    file: Mutex<fs::File>,
    faults: Option<Arc<Injector<FsFaultKind>>>,
    skipped: AtomicU64,
}

impl JournalWriter {
    /// Opens the journal at `path` for appending — truncated to a fresh
    /// journal when `fresh`, resumed by the module's open rule otherwise —
    /// with every write going through `faults` when given.
    pub fn open(
        path: &Path,
        fresh: bool,
        faults: Option<Arc<Injector<FsFaultKind>>>,
    ) -> Result<JournalWriter, String> {
        Self::open_replayed(path, !fresh, None, faults).map(|(writer, _)| writer)
    }

    /// The one open routine. When `resume`, it replays the file, refuses
    /// another schema, and — given the batch's `jobs` — refuses a journal
    /// whose admitted prefix is not a prefix of them, all before touching
    /// the file. It then cuts a torn tail back to the last complete line,
    /// writes the header when the run is fresh (not resuming, or nothing
    /// headed to resume), and fsyncs the directory once.
    pub(crate) fn open_replayed(
        path: &Path,
        resume: bool,
        jobs: Option<&[JobSpec]>,
        faults: Option<Arc<Injector<FsFaultKind>>>,
    ) -> Result<(JournalWriter, JournalState), String> {
        let bytes = if resume { read(path)? } else { Vec::new() };
        let (state, keep) = match parse(&bytes, path)? {
            Some(state) => (Some(state), complete_len(&bytes)),
            None => (None, 0),
        };
        if let (Some(state), Some(jobs)) = (&state, jobs) {
            let admitted = state.admitted();
            if let Some(idx) = (0..admitted)
                .find(|&i| jobs.get(i).map(spec_digest) != Some(spec_digest(&state.specs[&i])))
            {
                return Err(format!(
                    "journal {path:?} was written for a different jobs file (admission {idx} \
                     differs); refusing to merge its results"
                ));
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|file| file.set_len(keep as u64).map(|()| file))
            .map_err(|e| format!("cannot open journal {path:?}: {e}"))?;
        let writer = JournalWriter {
            file: Mutex::new(file),
            faults,
            skipped: AtomicU64::new(0),
        };
        if state.is_none() {
            writer.append(&Value::Map(vec![
                ("ev".to_string(), Value::Str("journal".to_string())),
                ("schema".to_string(), Value::Str(JOURNAL_SCHEMA.to_string())),
            ]));
        }
        // make the journal file itself durable in its directory
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let _ = fsfault::sync_dir(writer.faults.as_deref(), dir);
        Ok((writer, state.unwrap_or_default()))
    }

    /// Appends one event line, fsyncing so it survives a crash. Failures
    /// degrade the journal (counted), never the run.
    pub fn append(&self, event: &Value) {
        let Ok(json) = serde_json::to_string(event) else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let line = format!("{json}\n");
        let mut file = lock(&self.file);
        let wrote = fsfault::append_all(self.faults.as_deref(), &mut file, line.as_bytes())
            .and_then(|()| fsfault::sync_file(self.faults.as_deref(), &file));
        if wrote.is_err() {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends an admission line carrying the job's full spec: written
    /// *before* the job can run, so a crash can lose at most jobs nobody
    /// was promised.
    pub fn admit(&self, idx: usize, spec: &JobSpec) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("admit".to_string())),
            ("job".to_string(), Value::UInt(idx as u64)),
            ("digest".to_string(), Value::UInt(spec_digest(spec))),
            ("spec".to_string(), spec.to_value()),
        ]));
    }

    /// Appends a latency-telemetry line (daemon drain): resume ignores it,
    /// it exists so post-hoc analysis of a journal sees the same p50/p99
    /// the report carried.
    pub fn stats(&self, completed: u64, rejected: u64, p50_s: f64, p99_s: f64) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("stats".to_string())),
            ("completed".to_string(), Value::UInt(completed)),
            ("rejected".to_string(), Value::UInt(rejected)),
            ("p50_s".to_string(), Value::Float(p50_s)),
            ("p99_s".to_string(), Value::Float(p99_s)),
        ]));
    }

    /// Appends a cancellation line: the job will never produce a solve,
    /// only a `canceled` report. Written *before* the canceled report is
    /// sent, so a crash between the two resumes to the same outcome.
    pub fn cancel(&self, idx: usize) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("cancel".to_string())),
            ("job".to_string(), Value::UInt(idx as u64)),
        ]));
    }

    /// Appends a completion line carrying the job's full report.
    pub fn done(&self, idx: usize, report: &JobReport) {
        use serde::Serialize;
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("done".to_string())),
            ("job".to_string(), Value::UInt(idx as u64)),
            ("report".to_string(), report.to_value()),
        ]));
    }

    /// Appends that failed (and were skipped) over this writer's life.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            program: "range i = 4\n".to_string(),
            mem_limit: 1024,
            test_scale: true,
            strategy: None,
            seed: None,
            budget: None,
            telemetry: false,
            objective: None,
            timeout_ms: None,
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tce-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("batch.journal")
    }

    /// Lines of a journal file, and how many carry each event.
    fn shape(path: &Path) -> (usize, HashMap<String, usize>) {
        let text = fs::read_to_string(path).unwrap();
        let mut events = HashMap::new();
        for line in text.lines() {
            let v = serde_json::parse_value(line).expect("every line is JSON");
            let Some(Value::Str(ev)) = v.get("ev") else {
                panic!("line without an event: {line}")
            };
            *events.entry(ev.clone()).or_default() += 1;
        }
        (text.lines().count(), events)
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let path = temp_journal("rt");
        let jobs = [spec("a"), spec("b")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        w.admit(0, &jobs[0]);
        w.admit(1, &jobs[1]);
        w.done(
            0,
            &JobReport::failed("a", "f00d", "nope".into(), 0.1).kind("infeasible"),
        );
        w.done(1, &JobReport::failed("b", "", "nope".into(), 0.0));
        drop(w);
        // simulate a crash mid-append: tear the final line in half
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 7];
        fs::write(&path, torn).unwrap();

        let state = replay(&path).unwrap();
        assert_eq!(state.admitted(), 2);
        assert_eq!(state.skipped_lines, 1, "the torn line is skipped");
        assert_eq!(state.done.len(), 1);
        let rep = &state.done[&0];
        assert_eq!(rep.name, "a");
        assert!(!rep.ok);
        assert_eq!(rep.error_kind.as_deref(), Some("infeasible"));
        assert_eq!(rep.queue_wait_s, 0.1, "journaled reports replay verbatim");

        // resuming cuts the torn tail off before appending: the next
        // record starts on its own line and replays
        let w = JournalWriter::open(&path, false, None).unwrap();
        w.done(1, &JobReport::failed("b", "", "again".into(), 0.0));
        drop(w);
        let kept = &torn[..=torn.rfind('\n').unwrap()];
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(kept), "{text}");
        assert_eq!(text[kept.len()..].lines().count(), 1, "{text}");
        let state = replay(&path).unwrap();
        assert_eq!(state.skipped_lines, 0);
        assert_eq!(state.done.len(), 2);
        assert_eq!(state.done[&1].error.as_deref(), Some("again"));
    }

    #[test]
    fn missing_journal_is_empty_and_digest_tracks_specs() {
        let state = replay(Path::new("/nonexistent/tce.journal")).unwrap();
        assert_eq!(state.admitted(), 0);
        assert!(state.done.is_empty());

        // a headerless file is a fresh run: its records are not trusted
        let path = temp_journal("headless");
        fs::write(&path, "{\"ev\":\"cancel\",\"job\":0}\n").unwrap();
        assert!(replay(&path).unwrap().canceled.is_empty());

        let a = spec("a");
        let mut b = a.clone();
        b.timeout_ms = Some(50);
        assert_ne!(
            spec_digest(&a),
            spec_digest(&b),
            "any spec change must change the admission digest"
        );
    }

    #[test]
    fn serve_journal_round_trips_specs_and_tolerates_torn_admissions() {
        let path = temp_journal("serve");
        let jobs = [spec("a"), spec("b"), spec("c")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        for (i, s) in jobs.iter().enumerate() {
            w.admit(i, s);
        }
        w.done(0, &JobReport::failed("a", "", "nope".into(), 0.0));
        w.stats(1, 0, 0.5, 0.9);
        drop(w);

        let state = replay(&path).unwrap();
        assert_eq!(state.specs.len(), 3);
        assert_eq!(spec_digest(&state.specs[&2]), spec_digest(&jobs[2]));
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.skipped_lines, 0, "stats lines are benign");

        // tear the middle admission in half: that job is dropped whole,
        // and the admitted prefix ends before it
        let text = fs::read_to_string(&path).unwrap();
        let torn: String = text
            .lines()
            .map(|l| match l.contains("\"admit\"") && l.contains("\"b\"") {
                true => format!("{}\n", &l[..l.len() / 2]),
                false => format!("{l}\n"),
            })
            .collect();
        fs::write(&path, torn).unwrap();
        let state = replay(&path).unwrap();
        assert_eq!(state.specs.len(), 2);
        assert_eq!(state.skipped_lines, 1);
        assert_eq!(state.admitted(), 1);
    }

    #[test]
    fn cancel_lines_replay_as_terminal_without_a_done_record() {
        let path = temp_journal("cancel");
        let jobs = [spec("a"), spec("b"), spec("c")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        for (i, s) in jobs.iter().enumerate() {
            w.admit(i, s);
        }
        // job 0: canceled while queued, its canceled report journaled too
        w.cancel(0);
        w.done(0, &JobReport::canceled("a", "", 0.2));
        // job 1: cancel journaled, crash before the report made it out
        w.cancel(1);
        drop(w);

        let state = replay(&path).unwrap();
        assert_eq!(state.canceled, HashSet::from([0, 1]));
        assert_eq!(state.done.len(), 1, "job 1's report was lost to the crash");
        let rep = &state.done[&0];
        assert!(!rep.ok);
        assert_eq!(rep.error_kind.as_deref(), Some("canceled"));
        // job 2 carries no cancel: a resume must re-run it
        assert!(!state.canceled.contains(&2));

        // the recovery rule: done verbatim, cancel canonical, rest re-run
        let (specs, settled) = state.recovery();
        assert_eq!(specs.len(), 3);
        assert_eq!(settled[&0].queue_wait_s, 0.2, "the done record wins");
        assert_eq!(settled[&1].error_kind.as_deref(), Some("canceled"));
        assert!(!settled.contains_key(&2));
    }

    #[test]
    fn injected_append_faults_degrade_not_fail() {
        let path = temp_journal("faulty");
        let faults = FsFaultPlan::none().fail_after(1, FsFaultKind::Enospc, 2);
        // op 0 (header append) ok … op 1 (header fsync) injected
        let w = JournalWriter::open(&path, true, faults.injector(0)).unwrap();
        w.admit(0, &spec("a")); // burst continues
        w.cancel(0); // recovered
        assert!(w.skipped() >= 1, "faulted appends are counted");
        drop(w);
        // whatever survived parses; nothing corrupt is trusted
        let state = replay(&path).unwrap();
        assert!(state.specs.len() <= 1);
    }

    #[test]
    fn another_schema_is_refused_and_left_untouched() {
        let path = temp_journal("v1");
        let v1 = "{\"ev\":\"serve\",\"schema\":\"tce-serve/journal/v1\"}\n\
                  {\"ev\":\"start\",\"job\":0}\n{\"ev\":\"do";
        fs::write(&path, v1).unwrap();
        let err = replay(&path).err().expect("v1 is refused");
        assert!(err.contains("tce-serve/journal/v1"), "{err}");
        let err = JournalWriter::open(&path, false, None)
            .err()
            .expect("refused");
        assert!(err.contains("refusing"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), v1, "file untouched");
        // a fresh run owns the path outright
        drop(JournalWriter::open(&path, true, None).unwrap());
        assert_eq!(shape(&path).0, 1, "just the v2 header");
    }

    #[test]
    fn clean_journals_are_one_header_and_two_lines_per_job() {
        use crate::proto::{read_frame, write_frame, JobRequest, WireFrame};
        use crate::Server;
        use tce_cache::SynthesisCache;

        // invalid programs fail fast but are journaled like any job
        let jobs: Vec<JobSpec> = ["x", "y", "z"].into_iter().map(spec).collect();
        let path = temp_journal("shape");
        let journaled = Server::builder()
            .workers(2)
            .journal(Some(JournalConfig::new(&path)));
        journaled
            .clone()
            .build()
            .run_batch(&jobs, &SynthesisCache::in_memory())
            .unwrap();
        let (lines, events) = shape(&path);
        assert_eq!(lines, 1 + 2 * jobs.len(), "batch: {events:?}");
        assert_eq!(events["journal"], 1);
        assert_eq!(events["admit"], jobs.len());
        assert_eq!(events["done"], jobs.len());

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = std::sync::atomic::AtomicBool::new(false);
        let server = journaled.build();
        let cache = SynthesisCache::in_memory();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.serve(listener, &cache, &shutdown).unwrap());
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            for (id, spec) in jobs.iter().enumerate() {
                let frame = WireFrame::Job(JobRequest {
                    id: id as u64,
                    spec: spec.clone(),
                });
                write_frame(&mut client, &frame).unwrap();
                assert!(matches!(
                    read_frame(&mut client).unwrap(),
                    Some(WireFrame::Report { .. })
                ));
            }
            write_frame(&mut client, &WireFrame::Shutdown).unwrap();
            daemon.join().unwrap();
        });
        let (lines, events) = shape(&path);
        assert_eq!(lines, 2 + 2 * jobs.len(), "daemon: {events:?}");
        assert_eq!(events["stats"], 1);
        assert!(!events.contains_key("start"));
    }
}
