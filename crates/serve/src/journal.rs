//! The write-ahead batch journal.
//!
//! A batch run with `--journal <path>` records its progress as one JSON
//! object per line, fsynced per append, so a crash — SIGKILL included —
//! loses at most the line being written:
//!
//! ```text
//! {"ev":"batch","schema":"tce-serve/journal/v1","jobs":3,"digest":…}
//! {"ev":"admit","job":0,"name":"a","digest":…}
//! {"ev":"start","job":0}
//! {"ev":"done","job":0,"report":{…}}       ← full JobReport, verbatim
//! ```
//!
//! `--resume-journal` replays the journal: the header digest must match
//! the current jobs file (a journal never resumes someone else's batch),
//! jobs with a `done` record are *not* re-run — their journaled reports
//! are merged verbatim — and jobs that were admitted or started but never
//! finished are re-run from scratch. A torn tail (the append the crash
//! interrupted) is detected and ignored, as is any line an injected
//! filesystem fault corrupted: an unreadable `done` line merely re-runs
//! that job, which is always safe.
//!
//! Journal *appends* are best-effort by design: a full disk degrades the
//! journal (counted in [`JournalWriter::skipped`]) but never fails the
//! batch — the journal exists to make crashes cheaper, not to add a new
//! way to fail.

use crate::job::{batch_digest, spec_digest, JobReport, JobSpec};
use parking_lot::Mutex;
use serde::{Deserialize, Value};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tce_cache::fsfault;
use tce_cache::FsFaultKind;
use tce_disksim::Injector;

/// Schema tag in the journal's header line.
pub const JOURNAL_SCHEMA: &str = "tce-serve/journal/v1";

/// Everything a resumed batch learns from an existing journal.
#[derive(Default)]
pub struct JournalState {
    /// `(jobs, digest)` from the header line, if one was readable.
    pub header: Option<(u64, u64)>,
    /// Whether the journal carries a daemon (`serve`) header: jobs were
    /// admitted one at a time over the wire rather than from a jobs file,
    /// so there is no up-front batch digest to check — each admission
    /// carries its own full spec instead.
    pub serve: bool,
    /// Full specs of jobs a daemon admitted (`admit_spec` lines), by
    /// admission index — the only source of jobs when resuming a daemon
    /// journal.
    pub specs: HashMap<usize, JobSpec>,
    /// Reports of jobs that finished before the crash, by submission
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

/// Replays a journal file. A missing file is an empty journal, not an
/// error; unreadable lines are skipped (see module docs for why that is
/// always safe).
pub fn replay(path: &Path) -> JournalState {
    let mut state = JournalState::default();
    let Ok(text) = fs::read_to_string(path) else {
        return state;
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::parse_value(line) else {
            state.skipped_lines += 1;
            continue;
        };
        match v.get("ev") {
            Some(Value::Str(ev)) if ev == "batch" => {
                let jobs = u64_field(&v, "jobs");
                let digest = u64_field(&v, "digest");
                let schema_ok =
                    matches!(v.get("schema"), Some(Value::Str(s)) if s == JOURNAL_SCHEMA);
                match (schema_ok, jobs, digest) {
                    (true, Some(j), Some(d)) => state.header = Some((j, d)),
                    _ => state.skipped_lines += 1,
                }
            }
            Some(Value::Str(ev)) if ev == "serve" => {
                if matches!(v.get("schema"), Some(Value::Str(s)) if s == JOURNAL_SCHEMA) {
                    state.serve = true;
                } else {
                    state.skipped_lines += 1;
                }
            }
            Some(Value::Str(ev)) if ev == "admit_spec" => {
                let idx = u64_field(&v, "job");
                let spec = v.get("spec").map(JobSpec::from_value);
                match (idx, spec) {
                    (Some(idx), Some(Ok(spec)))
                        if u64_field(&v, "digest") == Some(spec_digest(&spec)) =>
                    {
                        state.specs.insert(idx as usize, spec);
                    }
                    // a torn or fault-damaged admission is dropped whole:
                    // better to lose the job than resume a wrong spec
                    _ => state.skipped_lines += 1,
                }
            }
            Some(Value::Str(ev)) if ev == "done" => {
                let Some(idx) = u64_field(&v, "job") else {
                    state.skipped_lines += 1;
                    continue;
                };
                match v.get("report").map(JobReport::from_value) {
                    Some(Ok(report)) => {
                        state.done.insert(idx as usize, report);
                    }
                    _ => state.skipped_lines += 1,
                }
            }
            Some(Value::Str(ev)) if ev == "cancel" => match u64_field(&v, "job") {
                Some(idx) => {
                    state.canceled.insert(idx as usize);
                }
                None => state.skipped_lines += 1,
            },
            // admit/start lines carry no resume obligations: a started
            // but unfinished job simply re-runs
            Some(Value::Str(_)) => {}
            _ => state.skipped_lines += 1,
        }
    }
    state
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
    dir_synced: bool,
    faults: Option<Arc<Injector<FsFaultKind>>>,
    skipped: AtomicU64,
}

impl JournalWriter {
    /// Opens the journal for appending (`fresh` truncates first). Every
    /// write goes through `faults` when given.
    pub fn open(
        path: &Path,
        fresh: bool,
        faults: Option<Arc<Injector<FsFaultKind>>>,
    ) -> Result<JournalWriter, String> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(!fresh)
            .write(true)
            .truncate(fresh)
            .open(path)
            .map_err(|e| format!("cannot open journal {path:?}: {e}"))?;
        Ok(JournalWriter {
            file: Mutex::new(file),
            dir_synced: false,
            faults,
            skipped: AtomicU64::new(0),
        })
    }

    /// Appends one event line, fsyncing so it survives a crash. Failures
    /// degrade the journal (counted), never the batch.
    pub fn append(&self, event: &Value) {
        let Ok(json) = serde_json::to_string(event) else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let line = format!("{json}\n");
        let mut file = self.file.lock();
        let wrote = fsfault::append_all(self.faults.as_deref(), &mut file, line.as_bytes())
            .and_then(|()| fsfault::sync_file(self.faults.as_deref(), &file));
        if wrote.is_err() {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Makes the journal file itself durable in its directory; called
    /// once after the header is written.
    pub fn sync_parent(&mut self, path: &Path) {
        if !self.dir_synced {
            self.dir_synced = true;
            if let Some(dir) = path.parent() {
                let _ = fsfault::sync_dir(self.faults.as_deref(), dir);
            }
        }
    }

    /// Appends the batch header line.
    pub fn batch(&self, jobs: &[JobSpec]) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("batch".to_string())),
            ("schema".to_string(), Value::Str(JOURNAL_SCHEMA.to_string())),
            ("jobs".to_string(), Value::UInt(jobs.len() as u64)),
            ("digest".to_string(), Value::UInt(batch_digest(jobs))),
        ]));
    }

    /// Appends the daemon header line. Unlike a batch header there is no
    /// job count or batch digest — a daemon's jobs stream in over the
    /// wire, so each admission carries its full spec instead
    /// ([`JournalWriter::admit_spec`]).
    pub fn serve_header(&self) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("serve".to_string())),
            ("schema".to_string(), Value::Str(JOURNAL_SCHEMA.to_string())),
        ]));
    }

    /// Appends a spec-carrying admission line (daemon mode): written
    /// *before* the job enters the run queue, so a crash can lose at most
    /// jobs the client was never promised.
    pub fn admit_spec(&self, idx: usize, spec: &JobSpec) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("admit_spec".to_string())),
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

    /// Appends one job-admission line.
    pub fn admit(&self, idx: usize, spec: &JobSpec) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("admit".to_string())),
            ("job".to_string(), Value::UInt(idx as u64)),
            ("name".to_string(), Value::Str(spec.name.clone())),
            ("digest".to_string(), Value::UInt(spec_digest(spec))),
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

    /// Appends a leader-start line: the job left the queue.
    pub fn start(&self, idx: usize) {
        self.append(&Value::Map(vec![
            ("ev".to_string(), Value::Str("start".to_string())),
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

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tce-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("batch.journal")
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let path = temp_journal("rt");
        let jobs = vec![spec("a"), spec("b")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        w.batch(&jobs);
        w.admit(0, &jobs[0]);
        w.admit(1, &jobs[1]);
        w.start(0);
        w.done(
            0,
            &JobReport::failed("a", "f00d", "nope".into(), 0.1).kind("infeasible"),
        );
        w.start(1);
        drop(w);
        // simulate a crash mid-append: tear the final line in half
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 7];
        fs::write(&path, torn).unwrap();

        let state = replay(&path);
        assert_eq!(state.header, Some((2, batch_digest(&jobs))));
        assert_eq!(state.skipped_lines, 1, "the torn line is skipped");
        assert_eq!(state.done.len(), 1);
        let rep = &state.done[&0];
        assert_eq!(rep.name, "a");
        assert!(!rep.ok);
        assert_eq!(rep.error_kind.as_deref(), Some("infeasible"));
        assert_eq!(rep.queue_wait_s, 0.1, "journaled reports replay verbatim");
    }

    #[test]
    fn missing_journal_is_empty_and_digest_tracks_specs() {
        let state = replay(Path::new("/nonexistent/tce.journal"));
        assert!(state.header.is_none());
        assert!(state.done.is_empty());

        let a = vec![spec("a")];
        let mut b = a.clone();
        b[0].timeout_ms = Some(50);
        assert_ne!(
            batch_digest(&a),
            batch_digest(&b),
            "any spec change must change the batch digest"
        );
    }

    #[test]
    fn serve_journal_round_trips_specs_and_tolerates_torn_admissions() {
        use crate::job::spec_digest;
        let path = temp_journal("serve");
        let jobs = [spec("a"), spec("b"), spec("c")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        w.serve_header();
        for (i, s) in jobs.iter().enumerate() {
            w.admit_spec(i, s);
        }
        w.start(0);
        w.done(0, &JobReport::failed("a", "", "nope".into(), 0.0));
        w.stats(1, 0, 0.5, 0.9);
        drop(w);

        let state = replay(&path);
        assert!(state.serve);
        assert!(state.header.is_none());
        assert_eq!(state.specs.len(), 3);
        assert_eq!(spec_digest(&state.specs[&2]), spec_digest(&jobs[2]));
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.skipped_lines, 0, "stats lines are benign");

        // tear the last admission in half: that job is dropped whole, the
        // earlier ones survive
        let text = fs::read_to_string(&path).unwrap();
        let torn: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains("\"admit_spec\"") && l.contains("\"c\"") {
                    &l[..l.len() / 2]
                } else {
                    l
                }
            })
            .collect();
        fs::write(&path, torn.join("\n")).unwrap();
        let state = replay(&path);
        assert_eq!(state.specs.len(), 2);
        assert_eq!(state.skipped_lines, 1);
    }

    #[test]
    fn cancel_lines_replay_as_terminal_without_a_done_record() {
        let path = temp_journal("cancel");
        let jobs = [spec("a"), spec("b"), spec("c")];
        let w = JournalWriter::open(&path, true, None).unwrap();
        w.serve_header();
        for (i, s) in jobs.iter().enumerate() {
            w.admit_spec(i, s);
        }
        // job 0: canceled while queued, its canceled report journaled too
        w.cancel(0);
        w.done(0, &JobReport::canceled("a", "", 0.2));
        // job 1: cancel journaled, crash before the report made it out
        w.cancel(1);
        drop(w);

        let state = replay(&path);
        assert_eq!(state.canceled, HashSet::from([0, 1]));
        assert_eq!(state.done.len(), 1, "job 1's report was lost to the crash");
        let rep = &state.done[&0];
        assert!(!rep.ok);
        assert_eq!(rep.error_kind.as_deref(), Some("canceled"));
        // job 2 carries no cancel: a resume must re-run it
        assert!(!state.canceled.contains(&2));
    }

    #[test]
    fn injected_append_faults_degrade_not_fail() {
        use tce_cache::{FsFaultKind, FsFaultPlan};
        let path = temp_journal("faulty");
        let jobs = vec![spec("a")];
        let faults = FsFaultPlan::none().fail_after(1, FsFaultKind::Enospc, 2);
        let w = JournalWriter::open(&path, true, faults.injector(0)).unwrap();
        w.batch(&jobs); // op 0 (append) ok … op 1 (fsync) injected
        w.admit(0, &jobs[0]); // burst continues
        w.start(0); // recovered
        assert!(w.skipped() >= 1, "faulted appends are counted");
        drop(w);
        let state = replay(&path);
        // whatever survived parses; nothing corrupt is trusted
        assert!(state.header.is_some() || state.skipped_lines > 0 || state.done.is_empty());
    }
}
