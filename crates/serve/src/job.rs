//! Job specifications and per-job/batch reports.
//!
//! Jobs arrive as JSON — either a batch file
//! `{"schema": "tce-serve/jobs/v1", "jobs": [...]}` or one job object per
//! line on stdin. Reports leave as JSON under
//! `{"schema": "tce-serve/report/v1", ...}` so callers can machine-read
//! hit rates and saved solver time.

use serde::{Deserialize, Serialize, Value};
use tce_core::SynthesisConfig;
use tce_ir::Program;
use tce_solver::Fnv64;

/// Schema tag of a batch jobs file.
pub const JOBS_SCHEMA: &str = "tce-serve/jobs/v1";
/// Schema tag of a batch report.
pub const REPORT_SCHEMA: &str = "tce-serve/report/v1";

/// One synthesis request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job name, echoed in the report.
    pub name: String,
    /// The program, as DSL text.
    pub program: String,
    /// Memory limit in bytes.
    pub mem_limit: u64,
    /// Use test-scale defaults (unconstrained profile, block constraints
    /// off) instead of the paper-scale Itanium-2 profile.
    pub test_scale: bool,
    /// Solver strategy override (`dlm`, `csa`, `portfolio`, `brute`).
    pub strategy: Option<String>,
    /// Solver seed override.
    pub seed: Option<u64>,
    /// Solver evaluation budget override.
    pub budget: Option<u64>,
    /// Collect solver telemetry.
    pub telemetry: bool,
    /// Objective override (`volume` or `time`).
    pub objective: Option<String>,
    /// Per-job wall-clock deadline in milliseconds, measured from the
    /// moment a worker picks the job up. Overrides the batch-wide
    /// `--job-timeout`. Jobs that exceed it fail with
    /// `deadline_exceeded` instead of blocking the pool.
    pub timeout_ms: Option<u64>,
}

fn str_field(v: &Value, name: &str) -> Result<String, String> {
    match v.get(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!(
            "job field `{name}` must be a string, got {other:?}"
        )),
        None => Err(format!("job is missing required field `{name}`")),
    }
}

fn opt_u64_field(v: &Value, name: &str) -> Result<Option<u64>, String> {
    match v.get(name) {
        Some(Value::UInt(n)) => Ok(Some(*n)),
        Some(Value::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(other) => Err(format!(
            "job field `{name}` must be a non-negative integer, got {other:?}"
        )),
        None => Ok(None),
    }
}

fn bool_field(v: &Value, name: &str, default: bool) -> Result<bool, String> {
    match v.get(name) {
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("job field `{name}` must be a bool, got {other:?}")),
        None => Ok(default),
    }
}

fn opt_str_field(v: &Value, name: &str) -> Result<Option<String>, String> {
    match v.get(name) {
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!(
            "job field `{name}` must be a string, got {other:?}"
        )),
        None => Ok(None),
    }
}

impl JobSpec {
    /// Parses a job object.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let spec = JobSpec {
            name: str_field(v, "name")?,
            program: str_field(v, "program")?,
            mem_limit: opt_u64_field(v, "mem_limit")?
                .ok_or_else(|| "job is missing required field `mem_limit`".to_string())?,
            test_scale: bool_field(v, "test_scale", false)?,
            strategy: opt_str_field(v, "strategy")?,
            seed: opt_u64_field(v, "seed")?,
            budget: opt_u64_field(v, "budget")?,
            telemetry: bool_field(v, "telemetry", false)?,
            objective: opt_str_field(v, "objective")?,
            timeout_ms: opt_u64_field(v, "timeout_ms")?,
        };
        // fail fast on bad enum values so the error names the job
        spec.config()?;
        Ok(spec)
    }

    /// Parses one JSON-lines job.
    pub fn from_json_line(line: &str) -> Result<JobSpec, String> {
        let v = serde_json::parse_value(line).map_err(|e| format!("invalid job JSON: {e:?}"))?;
        JobSpec::from_value(&v)
    }

    /// Serializes the spec as a JSON object — the inverse of
    /// [`JobSpec::from_value`]. Wire frames and the serve journal's
    /// spec-carrying admissions embed specs this way so a resumed daemon
    /// can reconstruct its jobs from the journal alone.
    pub fn to_value(&self) -> Value {
        fn opt_str(v: &Option<String>) -> Value {
            v.as_ref().map_or(Value::Null, |s| Value::Str(s.clone()))
        }
        fn opt_u64(v: &Option<u64>) -> Value {
            v.map_or(Value::Null, Value::UInt)
        }
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("program".to_string(), Value::Str(self.program.clone())),
            ("mem_limit".to_string(), Value::UInt(self.mem_limit)),
            ("test_scale".to_string(), Value::Bool(self.test_scale)),
            ("telemetry".to_string(), Value::Bool(self.telemetry)),
        ];
        // optional fields are omitted when unset so the round trip through
        // `from_value` (which treats Null as a type error) is lossless
        for (name, value) in [
            ("strategy", opt_str(&self.strategy)),
            ("seed", opt_u64(&self.seed)),
            ("budget", opt_u64(&self.budget)),
            ("objective", opt_str(&self.objective)),
            ("timeout_ms", opt_u64(&self.timeout_ms)),
        ] {
            if value != Value::Null {
                fields.push((name.to_string(), value));
            }
        }
        Value::Map(fields)
    }

    /// Parses the job's program text.
    pub fn parse_program(&self) -> Result<Program, String> {
        tce_ir::parse_program(&self.program).map_err(|e| format!("invalid program: {e}"))
    }

    /// Builds the synthesis configuration this job asks for.
    pub fn config(&self) -> Result<SynthesisConfig, String> {
        let mut config = if self.test_scale {
            SynthesisConfig::test_scale(self.mem_limit)
        } else {
            SynthesisConfig::new(self.mem_limit)
        };
        if let Some(s) = &self.strategy {
            config.strategy = s.parse()?;
        }
        if let Some(o) = &self.objective {
            config.objective = o.parse()?;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(budget) = self.budget {
            config.max_evals = Some(budget);
        }
        config.telemetry = self.telemetry;
        Ok(config)
    }
}

/// Content digest of a job spec. The write-ahead journal stamps every
/// admitted job with this digest so a `--resume-journal` run can prove
/// the journal belongs to the *same* jobs file before reusing any of its
/// recorded outcomes.
pub fn spec_digest(spec: &JobSpec) -> u64 {
    let mut h = Fnv64::new();
    h.str("tce-serve/job/v1");
    h.str(&spec.name);
    h.str(&spec.program);
    h.u64(spec.mem_limit);
    h.byte(spec.test_scale as u8);
    match &spec.strategy {
        Some(s) => {
            h.byte(1);
            h.str(s);
        }
        None => h.byte(0),
    }
    for field in [spec.seed, spec.budget, spec.timeout_ms] {
        match field {
            Some(n) => {
                h.byte(1);
                h.u64(n);
            }
            None => h.byte(0),
        }
    }
    h.byte(spec.telemetry as u8);
    match &spec.objective {
        Some(o) => {
            h.byte(1);
            h.str(o);
        }
        None => h.byte(0),
    }
    h.finish()
}

/// Digest of a whole batch (fold of [`spec_digest`] in submission order).
pub fn batch_digest(jobs: &[JobSpec]) -> u64 {
    let mut h = Fnv64::new();
    h.str("tce-serve/batch/v1");
    h.u64(jobs.len() as u64);
    for spec in jobs {
        h.u64(spec_digest(spec));
    }
    h.finish()
}

/// Parses a batch jobs file.
pub fn parse_jobs_file(text: &str) -> Result<Vec<JobSpec>, String> {
    let v = serde_json::parse_value(text).map_err(|e| format!("invalid jobs JSON: {e:?}"))?;
    match v.get("schema") {
        Some(Value::Str(s)) if s == JOBS_SCHEMA => {}
        Some(Value::Str(s)) => {
            return Err(format!("jobs file schema `{s}`, expected `{JOBS_SCHEMA}`"))
        }
        _ => return Err(format!("jobs file is missing `schema` (`{JOBS_SCHEMA}`)")),
    }
    let jobs = match v.get("jobs") {
        Some(Value::Seq(items)) => items,
        _ => return Err("jobs file is missing the `jobs` array".to_string()),
    };
    let mut specs = Vec::with_capacity(jobs.len());
    for (i, item) in jobs.iter().enumerate() {
        specs.push(JobSpec::from_value(item).map_err(|e| format!("job #{i}: {e}"))?);
    }
    Ok(specs)
}

/// Per-job outcome and timing telemetry.
///
/// Deserializable so a resumed batch can reuse the reports its journal
/// recorded before the crash, verbatim.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobReport {
    /// Job name from the spec.
    pub name: String,
    /// Whether synthesis succeeded.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// Machine-readable failure class when `ok` is false: `invalid_job`,
    /// `infeasible`, `placement`, `deadline_exceeded`, `canceled`,
    /// `panic`, or `leader_failed`.
    pub error_kind: Option<String>,
    /// Request fingerprint (empty on prepare failures).
    pub fingerprint: String,
    /// Whether the solver phase was served from the cache.
    pub hit: bool,
    /// Whether this job waited on an identical in-flight request instead
    /// of solving (single-flight dedup).
    pub joined: bool,
    /// Seconds between submission and a worker picking the job up.
    pub queue_wait_s: f64,
    /// Seconds this job spent in the solver (0 on hits).
    pub solve_wall_s: f64,
    /// Solver seconds the cache hit saved (0 on misses).
    pub saved_wall_s: f64,
    /// End-to-end seconds for the job once picked up.
    pub total_s: f64,
    /// Optimized disk traffic in bytes.
    pub io_bytes: f64,
    /// Peak buffer memory of the plan in bytes.
    pub memory_bytes: f64,
    /// Predicted disk time of the plan in seconds.
    pub predicted_s: f64,
}

impl JobReport {
    /// A report for a job that failed before or during synthesis.
    pub fn failed(name: &str, fingerprint: &str, error: String, queue_wait_s: f64) -> JobReport {
        JobReport {
            name: name.to_string(),
            ok: false,
            error: Some(error),
            error_kind: None,
            fingerprint: fingerprint.to_string(),
            hit: false,
            joined: false,
            queue_wait_s,
            solve_wall_s: 0.0,
            saved_wall_s: 0.0,
            total_s: 0.0,
            io_bytes: 0.0,
            memory_bytes: 0.0,
            predicted_s: 0.0,
        }
    }

    /// The canonical report for an explicitly canceled job. One
    /// constructor on purpose: the live cancel path and journal-replay
    /// recovery must produce the same deterministic outcome projection
    /// (only `queue_wait_s` may differ, and the projection excludes it).
    pub fn canceled(name: &str, fingerprint: &str, queue_wait_s: f64) -> JobReport {
        JobReport::failed(
            name,
            fingerprint,
            "canceled by client".to_string(),
            queue_wait_s,
        )
        .kind("canceled")
    }

    /// Tags a failure report with its machine-readable class.
    pub fn kind(mut self, kind: &str) -> JobReport {
        self.error_kind = Some(kind.to_string());
        self
    }

    /// The *deterministic outcome projection* of this report: what the
    /// job computed, stripped of everything that legitimately varies
    /// between runs — wall-clock timings, cache hit/join accounting, and
    /// queue waits. Two runs of the same batch (including a crashed run
    /// resumed from its journal) must agree on this projection exactly.
    pub fn outcome_value(&self) -> Value {
        fn opt(v: &Option<String>) -> Value {
            v.as_ref().map_or(Value::Null, |s| Value::Str(s.clone()))
        }
        Value::Map(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("ok".to_string(), Value::Bool(self.ok)),
            ("error".to_string(), opt(&self.error)),
            ("error_kind".to_string(), opt(&self.error_kind)),
            (
                "fingerprint".to_string(),
                Value::Str(self.fingerprint.clone()),
            ),
            ("io_bytes".to_string(), Value::Float(self.io_bytes)),
            ("memory_bytes".to_string(), Value::Float(self.memory_bytes)),
            ("predicted_s".to_string(), Value::Float(self.predicted_s)),
        ])
    }
}

/// Aggregates over one batch.
#[derive(Clone, Debug, Serialize)]
pub struct BatchSummary {
    /// Total jobs.
    pub jobs: u64,
    /// Jobs that synthesized successfully.
    pub ok: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Cache hits (including single-flight joiners).
    pub hits: u64,
    /// Fresh solves.
    pub misses: u64,
    /// Jobs that coalesced onto an identical in-flight request.
    pub joined: u64,
    /// Jobs whose reports were replayed verbatim from a resumed journal
    /// instead of re-running.
    pub resumed: u64,
    /// Total solver seconds the cache saved across the batch.
    pub solver_wall_saved_s: f64,
    /// Batch wall-clock seconds.
    pub wall_s: f64,
    /// Median per-request latency in seconds (admission → report), over
    /// the jobs this run actually executed; 0 when none ran.
    pub p50_s: f64,
    /// 99th-percentile per-request latency in seconds.
    pub p99_s: f64,
}

/// Nearest-rank percentile of an ascending-sorted latency sample;
/// `0.0` on an empty sample. `p` is in percent (e.g. `99.0`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The machine-readable batch report.
#[derive(Clone, Debug, Serialize)]
pub struct BatchReport {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Worker threads the batch ran with.
    pub workers: u64,
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Batch aggregates.
    pub summary: BatchSummary,
}

impl BatchReport {
    /// The deterministic outcome projection of the whole batch: per-job
    /// [`JobReport::outcome_value`] plus the outcome counts. A batch that
    /// crashed at *any* point and was resumed with `--resume-journal`
    /// must produce a projection byte-identical to the uninterrupted
    /// run's (the crash-resume equivalence the chaos suite enforces).
    pub fn outcome_projection(&self) -> Value {
        Value::Map(vec![
            ("schema".to_string(), Value::Str(self.schema.clone())),
            (
                "jobs".to_string(),
                Value::Seq(self.jobs.iter().map(|j| j.outcome_value()).collect()),
            ),
            ("ok".to_string(), Value::UInt(self.summary.ok)),
            ("failed".to_string(), Value::UInt(self.summary.failed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_file_round_trips() {
        let text = r#"{
            "schema": "tce-serve/jobs/v1",
            "jobs": [
                {"name": "a", "program": "range i = 4\n", "mem_limit": 1024,
                 "test_scale": true, "strategy": "dlm", "seed": 7,
                 "budget": 100, "telemetry": true, "objective": "volume"},
                {"name": "b", "program": "range i = 4\n", "mem_limit": 2048}
            ]
        }"#;
        let jobs = parse_jobs_file(text).expect("parse");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].seed, Some(7));
        assert!(jobs[0].telemetry);
        assert_eq!(jobs[1].mem_limit, 2048);
        assert!(!jobs[1].test_scale);
        assert!(jobs[1].seed.is_none());
    }

    #[test]
    fn bad_schema_and_bad_enums_are_rejected() {
        let err = parse_jobs_file(r#"{"schema": "nope", "jobs": []}"#).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let err = JobSpec::from_json_line(
            r#"{"name": "x", "program": "range i = 4", "mem_limit": 1, "strategy": "genetic"}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown strategy"), "{err}");

        let err =
            JobSpec::from_json_line(r#"{"name": "x", "program": "range i = 4"}"#).unwrap_err();
        assert!(err.contains("mem_limit"), "{err}");
    }

    #[test]
    fn spec_to_value_round_trips_losslessly() {
        let full = JobSpec {
            name: "full".to_string(),
            program: "range i = 4\n".to_string(),
            mem_limit: 4096,
            test_scale: true,
            strategy: Some("dlm".to_string()),
            seed: Some(7),
            budget: Some(100),
            telemetry: true,
            objective: Some("time".to_string()),
            timeout_ms: Some(250),
        };
        let sparse = JobSpec {
            name: "sparse".to_string(),
            program: "range i = 4\n".to_string(),
            mem_limit: 1024,
            test_scale: true,
            strategy: None,
            seed: None,
            budget: None,
            telemetry: false,
            objective: None,
            timeout_ms: None,
        };
        for spec in [full, sparse] {
            let back = JobSpec::from_value(&spec.to_value()).expect("round trip");
            assert_eq!(spec_digest(&back), spec_digest(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
    }
}
