//! The `tce` command line: synthesize and run out-of-core code for
//! abstract tensor-contraction programs written in the `tce-ir` DSL.
//!
//! `check` and `synthesize` accept both plain contraction programs and
//! sparse contraction networks (sources starting with `network`, as
//! `gen-network` emits); network synthesis optimizes tile sizes and
//! per-intermediate recompute/spill placements in one solver model, and
//! `--verify` checks the synthesized plan against the dense reference
//! oracle on seeded sparse inputs.
//!
//! The usage text, [`HELP`], which `tce --help` (or `-h`, anywhere in the
//! arguments) prints:
//!
//! ```text
#![doc = include_str!("help.txt")]
//! ```
//!
//! The binary is a thin wrapper around [`run_cli`], which is unit-tested
//! directly.

#![warn(missing_docs)]

use std::fmt::Write as _;
use tce_core::prelude::*;
use tce_disksim::{DiskFaults, FaultPlan, Schedule};
use tce_exec::interp::default_input_gen;
use tce_exec::{dense_reference, execute, run_to_completion, ExecMode, ExecOptions, RetryPolicy};
use tce_ir::Program;

/// Leg budget for `--resume` auto-restart: the initial run plus up to
/// three checkpointed restarts.
const MAX_RESUME_LEGS: u32 = 4;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// Path to the `.tce` program.
    pub file: String,
    /// Memory limit in bytes.
    pub mem: u64,
    /// Use the uniform-sampling baseline.
    pub baseline: bool,
    /// Baseline ladder cap.
    pub samples: Option<usize>,
    /// DCS solver strategy.
    pub strategy: Strategy,
    /// Solver objective.
    pub objective: tce_core::ObjectiveKind,
    /// Solver seed.
    pub seed: u64,
    /// Wall-clock deadline for the solver phase, in seconds.
    pub deadline: Option<f64>,
    /// Cap on solver objective evaluations.
    pub budget: Option<u64>,
    /// Solver worker threads (`0` = all cores).
    pub threads: usize,
    /// Print the per-restart solver report.
    pub explain: bool,
    /// Test-scale profile (no block minima).
    pub test_scale: bool,
    /// What to print after synthesis.
    pub print: Vec<PrintWhat>,
    /// Simulated process count for `run`.
    pub nproc: usize,
    /// Real data instead of dry run.
    pub full: bool,
    /// Verify against the dense reference (`run --full` only).
    pub verify: bool,
    /// Seeded per-disk fault schedules for `run`.
    pub faults: Option<FaultPlan>,
    /// Retry policy for transient disk faults.
    pub retry: Option<RetryPolicy>,
    /// Checkpoint at tile boundaries and auto-restart failed runs.
    pub resume: bool,
    /// Everything `tce serve` needs, in one place.
    pub serve: ServeOptions,
    /// `tce gen-network` generator settings (the shared `--seed` flag
    /// seeds the generator too).
    pub net_gen: tce_ir::NetworkGenConfig,
    /// `tce gen-network` output path (`-o`; default stdout).
    pub out_path: Option<String>,
}

/// The resolved configuration of `tce serve`: exactly one input mode
/// (`--batch`, `--stdin`, or `--listen`) plus the shared pool, cache,
/// and journal knobs. All three modes run the same engine behind
/// [`tce_serve::Server`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeOptions {
    /// Batch jobs file (`--batch`).
    pub batch: Option<String>,
    /// Read JSON-lines jobs from stdin (`--stdin`).
    pub stdin_jobs: bool,
    /// TCP address for the persistent daemon (`--listen`).
    pub listen: Option<String>,
    /// Worker pool size (`0` = all cores).
    pub workers: usize,
    /// Admission-queue bound for the daemon (`0` = the library default).
    pub queue: usize,
    /// Synthesis-cache directory (default: `TCE_CACHE_DIR` or in-memory
    /// only).
    pub cache_dir: Option<String>,
    /// Per-job wall-clock deadline in seconds.
    pub job_timeout: Option<f64>,
    /// Write-ahead journal path.
    pub journal: Option<String>,
    /// Resume a crashed batch or daemon from `--journal`.
    pub resume_journal: bool,
    /// Cap on concurrently open daemon connections (`0` = unlimited).
    pub max_conns: usize,
    /// Idle deadline for daemon connections, in seconds.
    pub idle_timeout: Option<f64>,
    /// Mid-frame read deadline for daemon connections, in seconds.
    pub read_timeout: Option<f64>,
    /// Response-write deadline for daemon connections, in seconds.
    pub write_timeout: Option<f64>,
    /// Seeded network fault plan for daemon connections.
    pub net_faults: Option<tce_serve::NetFaultPlan>,
}

impl ServeOptions {
    /// How many input modes were selected (must end up exactly 1).
    fn modes(&self) -> usize {
        usize::from(self.batch.is_some())
            + usize::from(self.stdin_jobs)
            + usize::from(self.listen.is_some())
    }

    /// Whether any serve-only flag was used at all — for rejecting them
    /// on non-serve commands.
    fn any_set(&self) -> bool {
        *self != ServeOptions::default()
    }

    /// Builds the [`tce_serve::Server`] this configuration describes.
    fn server(&self) -> tce_serve::Server {
        let mut b = tce_serve::Server::builder()
            .workers(self.workers)
            .job_timeout(self.job_timeout.map(std::time::Duration::from_secs_f64))
            .journal(self.journal.as_ref().map(|path| tce_serve::JournalConfig {
                resume: self.resume_journal,
                ..tce_serve::JournalConfig::new(path)
            }));
        if self.queue > 0 {
            b = b.queue_cap(self.queue);
        }
        if self.max_conns > 0 {
            b = b.max_conns(self.max_conns);
        }
        if let Some(secs) = self.idle_timeout {
            b = b.idle_timeout(Some(std::time::Duration::from_secs_f64(secs)));
        }
        if let Some(secs) = self.read_timeout {
            b = b.frame_timeout(Some(std::time::Duration::from_secs_f64(secs)));
        }
        if let Some(secs) = self.write_timeout {
            b = b.write_timeout(Some(std::time::Duration::from_secs_f64(secs)));
        }
        if let Some(plan) = &self.net_faults {
            b = b.net_faults(plan.clone());
        }
        b.build()
    }
}

/// Subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Parse and pretty-print.
    Check,
    /// Synthesize and print artifacts.
    Synthesize,
    /// Synthesize, execute, report.
    Run,
    /// Batch synthesis service over the synthesis cache.
    Serve,
    /// Emit a seeded random sparse contraction network.
    GenNetwork,
    /// Print the usage text, [`HELP`].
    Help,
}

/// The usage text: the commands and every flag of [`parse_args`].
pub const HELP: &str = include_str!("help.txt");

/// Printable artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrintWhat {
    /// Concrete code (Fig. 4(b)).
    Plan,
    /// Candidate placements with the chosen ones marked (Fig. 4(a)).
    Placements,
    /// The solver model in AMPL syntax.
    Ampl,
    /// Chosen tile sizes and cost summary.
    Tiles,
    /// The abstract code back (validation echo).
    Code,
}

/// How a CLI invocation failed — determines the process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliErrorKind {
    /// Bad arguments or malformed option specs (exit code 2).
    Usage,
    /// A failure doing the requested work: I/O, synthesis, execution,
    /// verification (exit code 1).
    Runtime,
}

/// A user-facing CLI failure with a stable exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// User-facing description.
    pub message: String,
    /// Failure class.
    pub kind: CliErrorKind,
}

impl CliError {
    /// A usage error — exit code 2.
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            kind: CliErrorKind::Usage,
        }
    }

    /// A runtime failure — exit code 1.
    pub fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            kind: CliErrorKind::Runtime,
        }
    }

    /// The process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self.kind {
            CliErrorKind::Usage => 2,
            CliErrorKind::Runtime => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parses a size like `2048`, `64K`, `512M`, `2G`.
pub fn parse_size(s: &str) -> Result<u64, CliError> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| CliError::usage(format!("bad size `{s}` (use e.g. 2048, 64K, 512M, 2G)")))
}

fn parse_prob(key: &str, v: &str) -> Result<f64, CliError> {
    let p: f64 = v
        .parse()
        .map_err(|_| CliError::usage(format!("{key} needs a probability in [0, 1]")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage(format!(
            "{key} needs a probability in [0, 1]"
        )));
    }
    Ok(p)
}

/// Parses a `--faults` spec: semicolon-separated segments, each a
/// plan-wide `seed=N` or a rank `R`'s schedule `rank=R,...` — the shared
/// fault-spec keys of [`tce_disksim::Schedule::parse`] plus `spike=P:S`.
/// `after=N` fails the disk once `N` execution-phase operations have
/// succeeded (permanently by default), `p=P` fails each operation with
/// probability `P`, and `spike=P:S` adds an `S`-second latency spike with
/// probability `P` — drawn from per-rank streams of the plan seed.
pub fn parse_faults(s: &str) -> Result<FaultPlan, CliError> {
    let usage = |e: String| CliError::usage(format!("--faults: {e}"));
    let mut plan = FaultPlan::none();
    for seg in s.split(';').map(str::trim).filter(|seg| !seg.is_empty()) {
        let mut rank: Option<usize> = None;
        let mut spec = DiskFaults::default();
        let schedule = Schedule::none()
            .with_seed(plan.seed)
            .parse(seg, |key, val| match key {
                "rank" => {
                    rank = Some(val.parse().map_err(|_| "rank= needs an integer")?);
                    Ok(())
                }
                "spike" => {
                    let bad = "spike= needs P:SECONDS with P in [0, 1] and SECONDS >= 0";
                    let (p, secs) = val.split_once(':').ok_or(bad)?;
                    spec.p_spike = parse_prob("spike=", p).map_err(|_| bad)?;
                    let secs: f64 = secs.parse().map_err(|_| bad)?;
                    spec.spike_s = (secs.is_finite() && secs >= 0.0)
                        .then_some(secs)
                        .ok_or(bad)?;
                    Ok(())
                }
                _ => Err(format!("unknown key `{key}`")),
            })
            .map_err(usage)?;
        plan.seed = schedule.seed;
        spec.schedule = schedule;
        match rank {
            Some(rank) => plan = plan.with_disk(rank, spec),
            // a plan-wide `seed=N` segment
            None if spec.is_idle() => {}
            None => return Err(usage("each fault spec needs rank=R".into())),
        }
    }
    Ok(plan)
}

/// Parses a `--retry` spec: `attempts[,base_s[,factor]]` with library
/// defaults for the unspecified backoff shape.
pub fn parse_retry(s: &str) -> Result<RetryPolicy, CliError> {
    let mut policy = RetryPolicy::default();
    let mut parts = s.split(',').map(str::trim);
    let attempts: u32 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| CliError::usage("--retry needs attempts[,base_s[,factor]]"))?;
    if attempts == 0 {
        return Err(CliError::usage("--retry attempts must be at least 1"));
    }
    policy.max_attempts = attempts;
    if let Some(base) = parts.next() {
        policy.base_backoff_s = base
            .parse()
            .map_err(|_| CliError::usage("--retry base_s needs seconds"))?;
        if !policy.base_backoff_s.is_finite() || policy.base_backoff_s < 0.0 {
            return Err(CliError::usage("--retry base_s must be >= 0"));
        }
    }
    if let Some(factor) = parts.next() {
        policy.backoff_factor = factor
            .parse()
            .map_err(|_| CliError::usage("--retry factor needs a number"))?;
        if !policy.backoff_factor.is_finite() || policy.backoff_factor < 1.0 {
            return Err(CliError::usage("--retry factor must be >= 1"));
        }
    }
    if parts.next().is_some() {
        return Err(CliError::usage(
            "--retry takes at most attempts,base_s,factor",
        ));
    }
    Ok(policy)
}

impl Cli {
    /// The command line of `command` on `file` with every flag at its
    /// default.
    fn new(command: Command, file: String) -> Cli {
        Cli {
            command,
            file,
            mem: 2 << 30,
            baseline: false,
            samples: None,
            strategy: Strategy::Dlm,
            objective: tce_core::ObjectiveKind::Volume,
            seed: 2004,
            deadline: None,
            budget: None,
            threads: 0,
            explain: false,
            test_scale: false,
            print: vec![PrintWhat::Tiles, PrintWhat::Plan],
            nproc: 1,
            full: false,
            verify: false,
            faults: None,
            retry: None,
            resume: false,
            serve: ServeOptions::default(),
            net_gen: tce_ir::NetworkGenConfig::default(),
            out_path: None,
        }
    }
}

/// Parses the argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(Cli::new(Command::Help, String::new()));
    }
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("check") => Command::Check,
        Some("synthesize") | Some("synth") => Command::Synthesize,
        Some("run") => Command::Run,
        Some("serve") => Command::Serve,
        Some("gen-network") => Command::GenNetwork,
        Some(other) => return Err(CliError::usage(format!("unknown command `{other}`"))),
        None => {
            return Err(CliError::usage(
                "usage: tce <check|synthesize|run|serve|gen-network> [<file.tce>] [options] \
                 (tce --help lists them)",
            ))
        }
    };
    let file = if matches!(command, Command::Serve | Command::GenNetwork) {
        String::new()
    } else {
        it.next()
            .ok_or_else(|| CliError::usage("missing <file.tce>"))?
            .clone()
    };

    let mut cli = Cli::new(command, file);
    let mut gen_flag_used: Option<&'static str> = None;

    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--mem" => cli.mem = parse_size(&value("--mem")?)?,
            "--baseline" => cli.baseline = true,
            "--samples" => {
                cli.samples = Some(
                    value("--samples")?
                        .parse()
                        .map_err(|_| CliError::usage("--samples needs an integer"))?,
                )
            }
            "--strategy" => cli.strategy = value("--strategy")?.parse().map_err(CliError::usage)?,
            "--objective" => {
                cli.objective = value("--objective")?.parse().map_err(CliError::usage)?
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError::usage("--seed needs an integer"))?
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| CliError::usage("--deadline needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--deadline must be positive"));
                }
                cli.deadline = Some(secs);
            }
            "--budget" => {
                cli.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| CliError::usage("--budget needs an integer"))?,
                )
            }
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError::usage("--threads needs an integer"))?
            }
            "--explain" => cli.explain = true,
            "--test-scale" => cli.test_scale = true,
            "--print" => {
                cli.print = value("--print")?
                    .split(',')
                    .map(|w| match w.trim() {
                        "plan" => Ok(PrintWhat::Plan),
                        "placements" => Ok(PrintWhat::Placements),
                        "ampl" => Ok(PrintWhat::Ampl),
                        "tiles" => Ok(PrintWhat::Tiles),
                        "code" => Ok(PrintWhat::Code),
                        other => Err(CliError::usage(format!("unknown artifact `{other}`"))),
                    })
                    .collect::<Result<_, _>>()?
            }
            "--nproc" => {
                cli.nproc = value("--nproc")?
                    .parse()
                    .map_err(|_| CliError::usage("--nproc needs an integer"))?;
                if cli.nproc == 0 {
                    return Err(CliError::usage("--nproc must be at least 1"));
                }
            }
            "--full" => cli.full = true,
            "--verify" => cli.verify = true,
            "--faults" => cli.faults = Some(parse_faults(&value("--faults")?)?),
            "--retry" => cli.retry = Some(parse_retry(&value("--retry")?)?),
            "--resume" => cli.resume = true,
            "--batch" => cli.serve.batch = Some(value("--batch")?),
            "--stdin" => cli.serve.stdin_jobs = true,
            "--listen" => cli.serve.listen = Some(value("--listen")?),
            "--queue" => {
                cli.serve.queue = value("--queue")?
                    .parse()
                    .map_err(|_| CliError::usage("--queue needs an integer"))?;
                if cli.serve.queue == 0 {
                    return Err(CliError::usage("--queue must be at least 1"));
                }
            }
            "--workers" => {
                cli.serve.workers = value("--workers")?
                    .parse()
                    .map_err(|_| CliError::usage("--workers needs an integer"))?
            }
            "--cache-dir" => cli.serve.cache_dir = Some(value("--cache-dir")?),
            "--job-timeout" => {
                let secs: f64 = value("--job-timeout")?
                    .parse()
                    .map_err(|_| CliError::usage("--job-timeout needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--job-timeout must be positive"));
                }
                cli.serve.job_timeout = Some(secs);
            }
            "--journal" => cli.serve.journal = Some(value("--journal")?),
            "--resume-journal" => cli.serve.resume_journal = true,
            "--max-conns" => {
                cli.serve.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|_| CliError::usage("--max-conns needs an integer"))?;
                if cli.serve.max_conns == 0 {
                    return Err(CliError::usage("--max-conns must be at least 1"));
                }
            }
            "--idle-timeout" => {
                let secs: f64 = value("--idle-timeout")?
                    .parse()
                    .map_err(|_| CliError::usage("--idle-timeout needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--idle-timeout must be positive"));
                }
                cli.serve.idle_timeout = Some(secs);
            }
            "--read-timeout" => {
                let secs: f64 = value("--read-timeout")?
                    .parse()
                    .map_err(|_| CliError::usage("--read-timeout needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--read-timeout must be positive"));
                }
                cli.serve.read_timeout = Some(secs);
            }
            "--write-timeout" => {
                let secs: f64 = value("--write-timeout")?
                    .parse()
                    .map_err(|_| CliError::usage("--write-timeout needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--write-timeout must be positive"));
                }
                cli.serve.write_timeout = Some(secs);
            }
            "--net-faults" => {
                cli.serve.net_faults = Some(
                    tce_serve::NetFaultPlan::parse(&value("--net-faults")?)
                        .map_err(|e| CliError::usage(format!("--net-faults: {e}")))?,
                );
            }
            "--nodes" => {
                gen_flag_used = Some("--nodes");
                cli.net_gen.nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| CliError::usage("--nodes needs an integer"))?;
                if cli.net_gen.nodes == 0 {
                    return Err(CliError::usage("--nodes must be at least 1"));
                }
            }
            "--min-extent" => {
                gen_flag_used = Some("--min-extent");
                cli.net_gen.min_extent = value("--min-extent")?
                    .parse()
                    .map_err(|_| CliError::usage("--min-extent needs an integer"))?;
            }
            "--max-extent" => {
                gen_flag_used = Some("--max-extent");
                cli.net_gen.max_extent = value("--max-extent")?
                    .parse()
                    .map_err(|_| CliError::usage("--max-extent needs an integer"))?;
            }
            "--sparse-frac" => {
                gen_flag_used = Some("--sparse-frac");
                cli.net_gen.sparse_frac = parse_prob("--sparse-frac", &value("--sparse-frac")?)?;
            }
            "--min-nnz" => {
                gen_flag_used = Some("--min-nnz");
                let p = parse_prob("--min-nnz", &value("--min-nnz")?)?;
                if p == 0.0 {
                    return Err(CliError::usage("--min-nnz must be positive"));
                }
                cli.net_gen.min_nnz = p;
            }
            "-o" | "--out" => {
                gen_flag_used = Some("--out");
                cli.out_path = Some(value("--out")?);
            }
            other => return Err(CliError::usage(format!("unknown option `{other}`"))),
        }
    }
    if cli.verify && cli.command == Command::Run && !cli.full {
        return Err(CliError::usage("--verify requires --full"));
    }
    if cli.verify && cli.command == Command::Check {
        return Err(CliError::usage(
            "--verify applies to `synthesize` (networks) or `run --full`",
        ));
    }
    if let Some(flag) = gen_flag_used {
        if cli.command != Command::GenNetwork {
            return Err(CliError::usage(format!(
                "{flag} only applies to `tce gen-network`"
            )));
        }
    }
    if cli.command == Command::GenNetwork {
        cli.net_gen.seed = cli.seed;
        let g = &cli.net_gen;
        if g.min_extent < 2 || g.min_extent > g.max_extent {
            return Err(CliError::usage(
                "gen-network needs 2 <= --min-extent <= --max-extent",
            ));
        }
    }
    if cli.resume && !cli.full {
        return Err(CliError::usage("--resume requires --full"));
    }
    if cli.command == Command::Serve {
        if cli.serve.modes() != 1 {
            return Err(CliError::usage(
                "serve needs exactly one of --batch <jobs.json>, --stdin, or --listen <addr>",
            ));
        }
        if cli.serve.resume_journal && cli.serve.journal.is_none() {
            return Err(CliError::usage(
                "--resume-journal requires --journal <path>",
            ));
        }
        if cli.serve.queue > 0 && cli.serve.listen.is_none() {
            return Err(CliError::usage("--queue only applies to --listen mode"));
        }
        if cli.serve.listen.is_none() {
            if cli.serve.max_conns > 0 {
                return Err(CliError::usage("--max-conns only applies to --listen mode"));
            }
            if cli.serve.idle_timeout.is_some() {
                return Err(CliError::usage(
                    "--idle-timeout only applies to --listen mode",
                ));
            }
            if cli.serve.read_timeout.is_some() {
                return Err(CliError::usage(
                    "--read-timeout only applies to --listen mode",
                ));
            }
            if cli.serve.write_timeout.is_some() {
                return Err(CliError::usage(
                    "--write-timeout only applies to --listen mode",
                ));
            }
            if cli.serve.net_faults.is_some() {
                return Err(CliError::usage(
                    "--net-faults only applies to --listen mode",
                ));
            }
        }
    } else if cli.serve.any_set() {
        return Err(CliError::usage(
            "--batch/--stdin/--listen/--queue/--workers/--cache-dir/--job-timeout/\
             --journal/--resume-journal/--max-conns/--idle-timeout/--read-timeout/\
             --write-timeout/--net-faults only apply to `tce serve`",
        ));
    }
    Ok(cli)
}

/// The [`SynthesisConfig`] a command line describes — shared by the
/// contraction-program and contraction-network paths.
fn config_from(cli: &Cli) -> SynthesisConfig {
    let mut config = if cli.test_scale {
        SynthesisConfig::test_scale(cli.mem)
    } else {
        SynthesisConfig::new(cli.mem)
    };
    config.strategy = cli.strategy;
    config.objective = cli.objective;
    config.seed = cli.seed;
    config.deadline = cli.deadline.map(std::time::Duration::from_secs_f64);
    config.max_evals = cli.budget;
    config.threads = cli.threads;
    config.telemetry = cli.explain;
    config
}

fn synthesize(program: &Program, cli: &Cli) -> Result<SynthesisResult, CliError> {
    let config = config_from(cli);
    let result = if cli.baseline {
        synthesize_uniform_sampling(
            program,
            &BaselineOptions {
                config,
                samples_per_index: cli.samples,
            },
        )
    } else {
        synthesize_dcs(program, &config)
    };
    result.map_err(|e| CliError::runtime(format!("synthesis failed: {e}")))
}

/// Runs the synthesis service in whichever mode [`ServeOptions`]
/// selected: jobs in as JSON (file, stdin lines, or wire frames), report
/// out as JSON.
fn run_serve(cli: &Cli, out: &mut String) -> Result<(), CliError> {
    let serve = &cli.serve;
    let cache = match &serve.cache_dir {
        Some(dir) => tce_cache::SynthesisCache::with_dir(dir).map_err(CliError::runtime)?,
        None => tce_cache::SynthesisCache::from_env().map_err(CliError::runtime)?,
    };
    let server = serve.server();
    if let Some(addr) = &serve.listen {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| CliError::runtime(format!("cannot listen on `{addr}`: {e}")))?;
        if let Ok(local) = listener.local_addr() {
            // announce readiness (and the resolved port) on stderr so
            // scripts driving `--listen 127.0.0.1:0` can find the daemon
            eprintln!("tce: serving on {local}");
        }
        let shutdown = std::sync::atomic::AtomicBool::new(false);
        let report = server
            .serve(listener, &cache, &shutdown)
            .map_err(CliError::runtime)?;
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::runtime(format!("cannot serialize report: {e:?}")))?;
        out.push_str(&json);
        out.push('\n');
    } else if serve.stdin_jobs {
        let mut input = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
            .map_err(|e| CliError::runtime(format!("cannot read stdin: {e}")))?;
        let (_, lines) = server.run_lines(&input, &cache).map_err(CliError::usage)?;
        out.push_str(&lines);
    } else {
        let path = serve
            .batch
            .as_ref()
            .ok_or_else(|| CliError::usage("serve needs --batch, --stdin, or --listen"))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("cannot read `{path}`: {e}")))?;
        let jobs = tce_serve::parse_jobs_file(&text).map_err(CliError::usage)?;
        let report = server.run_batch(&jobs, &cache).map_err(CliError::runtime)?;
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::runtime(format!("cannot serialize report: {e:?}")))?;
        out.push_str(&json);
        out.push('\n');
    }
    Ok(())
}

/// `tce check` / `tce synthesize` on a sparse contraction network: one
/// solver model over tile sizes and per-intermediate placements, with
/// `--verify` checking the plan against the dense reference oracle.
fn run_network(cli: &Cli, src: &str, out: &mut String) -> Result<(), CliError> {
    let dag =
        tce_ir::parse_network(src).map_err(|e| CliError::runtime(format!("{}: {e}", cli.file)))?;
    if cli.command == Command::Run {
        return Err(CliError::usage(
            "`tce run` does not execute contraction networks yet; \
             use `tce synthesize <net.tce> --verify`",
        ));
    }
    if cli.baseline {
        return Err(CliError::usage(
            "--baseline does not apply to contraction networks",
        ));
    }
    if cli.command == Command::Check {
        out.push_str(&tce_ir::to_network_dsl(&dag));
        let sparse = dag
            .tensors()
            .iter()
            .filter(|t| t.sparsity.nnz < 1.0)
            .count();
        let _ = writeln!(
            out,
            "ok: {} tensors ({sparse} sparse), {} contractions",
            dag.tensors().len(),
            dag.nodes().len()
        );
        return Ok(());
    }

    let config = config_from(cli);
    let r = synthesize_network(&dag, &config)
        .map_err(|e| CliError::runtime(format!("synthesis failed: {e}")))?;
    let _ = writeln!(out, "{}", r.plan);
    let _ = writeln!(
        out,
        "traffic: {:.3} MB | compute: {:.3} MB | buffers: {:.3} MB | \
         predicted sequential I/O: {:.3}s | codegen: {:?}",
        r.io_bytes / 1e6,
        r.compute_bytes / 1e6,
        r.memory_bytes / 1e6,
        r.predicted_s,
        r.codegen_time
    );
    if cli.explain {
        match &r.solver_report {
            Some(report) => {
                let _ = writeln!(out, "=== solver report ===\n{report}");
            }
            None => {
                let _ = writeln!(out, "(no solver report: pass --explain with telemetry)");
            }
        }
    }
    if cli.verify {
        let inputs = tce_core::seeded_network_inputs(&dag, cli.seed);
        match verify_network_plan(&dag, &r.plan, &inputs, 1e-6) {
            Ok(err) => {
                let _ = writeln!(out, "verification: max |plan - oracle| = {err:.3e}");
            }
            Err(msg) => {
                return Err(CliError::runtime(format!("verification FAILED: {msg}")));
            }
        }
    }
    Ok(())
}

/// Executes the parsed command line; returns the full textual output.
pub fn run_cli(cli: &Cli) -> Result<String, CliError> {
    if cli.command == Command::Help {
        return Ok(HELP.to_string());
    }
    let mut out = String::new();
    if cli.command == Command::Serve {
        run_serve(cli, &mut out)?;
        return Ok(out);
    }
    if cli.command == Command::GenNetwork {
        let dag = tce_ir::gen_network(&cli.net_gen);
        let text = tce_ir::to_network_dsl(&dag);
        match &cli.out_path {
            Some(path) => {
                std::fs::write(path, &text)
                    .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
                let _ = writeln!(
                    out,
                    "wrote `{path}`: {} tensors, {} contractions (seed {})",
                    dag.tensors().len(),
                    dag.nodes().len(),
                    cli.net_gen.seed
                );
            }
            None => out.push_str(&text),
        }
        return Ok(out);
    }
    let src = std::fs::read_to_string(&cli.file)
        .map_err(|e| CliError::runtime(format!("cannot read `{}`: {e}", cli.file)))?;
    if tce_ir::is_network_src(&src) {
        run_network(cli, &src, &mut out)?;
        return Ok(out);
    }
    if cli.verify && cli.command == Command::Synthesize {
        return Err(CliError::usage(
            "synthesize --verify applies to contraction networks only",
        ));
    }
    let program =
        parse_program(&src).map_err(|e| CliError::runtime(format!("{}: {e}", cli.file)))?;

    match cli.command {
        // handled above, before the program load
        Command::Serve | Command::GenNetwork | Command::Help => {}
        Command::Check => {
            let _ = writeln!(out, "{}", print_code(&program));
            let _ = writeln!(
                out,
                "ok: {} arrays, {} statements",
                program.arrays().len(),
                program.tree().statements().len()
            );
        }
        Command::Synthesize => {
            let r = synthesize(&program, cli)?;
            print_artifacts(&mut out, &program, &r, &cli.print);
            if cli.explain {
                print_report(&mut out, &r);
            }
        }
        Command::Run => {
            let r = synthesize(&program, cli)?;
            print_artifacts(&mut out, &program, &r, &cli.print);
            if cli.explain {
                print_report(&mut out, &r);
            }
            let opts = ExecOptions {
                mode: if cli.full {
                    ExecMode::Full
                } else {
                    ExecMode::DryRun
                },
                nproc: cli.nproc,
                profile: if cli.test_scale {
                    DiskProfile::unconstrained_test()
                } else {
                    DiskProfile::itanium2_osc()
                },
                input_gen: default_input_gen,
                fault_plan: cli.faults.clone(),
                retry: cli.retry.clone(),
                checkpoint: false,
                halt_after_checkpoints: None,
                resume_from: None,
            };
            let rep = if cli.resume {
                run_to_completion(&r.plan, &opts, MAX_RESUME_LEGS)
            } else {
                execute(&r.plan, &opts)
            }
            .map_err(|e| CliError::runtime(format!("execution failed: {e}")))?;
            let _ = writeln!(
                out,
                "executed on {} process(es): {:.3}s simulated I/O ({} ops, {:.3} MB), predicted {:.3}s",
                cli.nproc,
                rep.elapsed_io_s,
                rep.total.total_ops(),
                rep.total.total_bytes() as f64 / 1e6,
                r.predicted.parallel_s(cli.nproc, &opts.profile),
            );
            if cli.faults.is_some() || cli.retry.is_some() || cli.resume {
                let _ = writeln!(out, "resilience: {}", rep.resilience);
            }
            if cli.verify {
                let want = dense_reference(&program, default_input_gen);
                let mut max_err = 0.0f64;
                for (name, got) in &rep.outputs {
                    let reference = want.get(name).ok_or_else(|| {
                        CliError::runtime(format!(
                            "verification: reference evaluator produced no array `{name}`"
                        ))
                    })?;
                    for (g, w) in got.iter().zip(reference) {
                        max_err = max_err.max((g - w).abs());
                    }
                }
                let _ = writeln!(out, "verification: max |ooc - dense| = {max_err:.3e}");
                if max_err > 1e-6 {
                    return Err(CliError::runtime(format!(
                        "verification FAILED (max error {max_err:.3e})"
                    )));
                }
            }
        }
    }
    Ok(out)
}

fn print_report(out: &mut String, r: &SynthesisResult) {
    match &r.solver_report {
        Some(report) => {
            let _ = writeln!(out, "=== solver report ===\n{report}");
        }
        None => {
            let _ = writeln!(out, "(no solver report: baseline pipeline)");
        }
    }
}

fn print_artifacts(out: &mut String, program: &Program, r: &SynthesisResult, what: &[PrintWhat]) {
    for w in what {
        match w {
            PrintWhat::Code => {
                let _ = writeln!(out, "=== abstract code ===\n{}", print_code(program));
            }
            PrintWhat::Tiles => {
                let _ = writeln!(out, "tiles: {}", r.tiles);
                let _ = writeln!(
                    out,
                    "traffic: {:.3} MB | buffers: {:.3} MB | predicted sequential I/O: {:.3}s | codegen: {:?}",
                    r.io_bytes / 1e6,
                    r.memory_bytes / 1e6,
                    r.predicted.total_s(),
                    r.codegen_time
                );
            }
            PrintWhat::Placements => {
                let _ = writeln!(
                    out,
                    "=== placements ===\n{}",
                    print_placements(program, &r.space, Some(&r.selection))
                );
            }
            PrintWhat::Plan => {
                let _ = writeln!(out, "=== concrete code ===\n{}", print_plan(&r.plan));
            }
            PrintWhat::Ampl => match r.ampl() {
                Some(a) => {
                    let _ = writeln!(out, "=== AMPL model ===\n{a}");
                }
                None => {
                    let _ = writeln!(out, "(no AMPL model: baseline pipeline)");
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_disksim::DiskFaultKind;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_anywhere_prints_the_usage_text() {
        for argv in [
            "--help",
            "-h",
            "synthesize --help",
            "run examples/none.tce --mem 2G -h",
            "serve --batch jobs.json --help",
            "bogus --help",
        ] {
            let cli = parse_args(&args(argv)).unwrap_or_else(|e| panic!("{argv}: {e}"));
            assert_eq!(cli.command, Command::Help, "{argv}");
            assert_eq!(run_cli(&cli).unwrap(), HELP, "{argv}");
        }
        for command in ["check", "synthesize", "run", "serve", "gen-network"] {
            assert!(HELP.contains(&format!("\n  {command} ")), "{command}");
        }
    }

    /// The flags of the help text's option rows, each with whether a
    /// value follows it there.
    fn help_flags() -> Vec<(&'static str, bool)> {
        let mut flags = Vec::new();
        for row in HELP.lines().filter(|l| l.starts_with('-')) {
            let words: Vec<&str> = row.split_whitespace().collect();
            let n = words.iter().take_while(|w| w.starts_with('-')).count();
            let takes_value = words.get(n).is_some_and(|w| w.starts_with('<'));
            for w in &words[..n] {
                flags.push((w.trim_end_matches(','), takes_value));
            }
        }
        flags
    }

    #[test]
    fn every_flag_of_the_help_text_parses() {
        let flags = help_flags();
        assert!(flags.len() > 30, "{flags:?}");
        for (flag, takes_value) in flags {
            if flag == "-h" || flag == "--help" {
                continue;
            }
            let mut argv = args("run examples/none.tce");
            argv.push(flag.to_string());
            if takes_value {
                argv.push("1".to_string());
            }
            // a flag may still refuse its value or command here; it must
            // not be unknown, and must take a value exactly when listed so
            if let Err(e) = parse_args(&argv) {
                assert!(
                    !e.message.contains("unknown option") && !e.message.contains("needs a value"),
                    "{flag}: {e}"
                );
            }
        }
    }

    #[test]
    fn every_flag_parse_args_takes_is_in_the_help_text() {
        let src = include_str!("lib.rs");
        let start = src.find("pub fn parse_args(").unwrap();
        let body = &src[start..start + src[start..].find("\n}\n").unwrap()];
        let listed: Vec<&str> = help_flags().into_iter().map(|(f, _)| f).collect();
        let mut arms = 0;
        for line in body.lines().map(str::trim) {
            let Some((pattern, _)) = line.split_once(" =>") else {
                continue;
            };
            if !pattern.starts_with("\"-") {
                continue;
            }
            for flag in pattern.split('|').map(|f| f.trim().trim_matches('"')) {
                assert!(
                    listed.contains(&flag),
                    "{flag} is missing from the help text"
                );
                arms += 1;
            }
        }
        assert!(arms > 30, "found only {arms} flag arms");
    }

    /// A fresh scratch directory owned by one test, so tests running in
    /// parallel never share or rewrite each other's files.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tce-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixture(test: &str) -> String {
        let path = test_dir(test).join("two_index.tce");
        std::fs::write(
            &path,
            r#"
            input  A[i, j]
            input  C2[n, j]
            input  C1[m, i]
            intermediate T[n, i]
            output B[m, n]
            range i = 24, j = 24, m = 20, n = 20
            for m, n { B[m, n] = 0 }
            for i, n {
                T[n, i] = 0
                for j { T[n, i] += C2[n, j] * A[i, j] }
                for m { B[m, n] += C1[m, i] * T[n, i] }
            }
            "#,
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("2048").unwrap(), 2048);
        assert_eq!(parse_size("64K").unwrap(), 64 << 10);
        assert_eq!(parse_size("512M").unwrap(), 512 << 20);
        assert_eq!(parse_size("2G").unwrap(), 2 << 30);
        assert!(parse_size("lots").is_err());
    }

    #[test]
    fn parse_full_command_line() {
        let cli = parse_args(&args(
            "run file.tce --mem 64K --nproc 4 --full --verify --strategy csa --seed 7 --print plan,ampl --objective time",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.mem, 64 << 10);
        assert_eq!(cli.nproc, 4);
        assert!(cli.full && cli.verify);
        assert_eq!(cli.strategy, Strategy::Csa);
        assert_eq!(cli.objective, tce_core::ObjectiveKind::Time);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.print, vec![PrintWhat::Plan, PrintWhat::Ampl]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&args("explode file.tce")).is_err());
        assert!(parse_args(&args("run")).is_err());
        assert!(parse_args(&args("run f.tce --verify")).is_err()); // needs --full
        assert!(parse_args(&args("run f.tce --nproc 0")).is_err());
        assert!(parse_args(&args("run f.tce --print nonsense")).is_err());
        assert!(parse_args(&args("run f.tce --mem")).is_err());
        assert!(parse_args(&args("run f.tce --deadline -2")).is_err());
        assert!(parse_args(&args("run f.tce --budget soon")).is_err());
        assert!(parse_args(&args("run f.tce --strategy magic")).is_err());
    }

    #[test]
    fn parse_solver_flags() {
        let cli = parse_args(&args(
            "synthesize f.tce --strategy dlm --deadline 2.5 --budget 500000 --threads 4 --explain",
        ))
        .unwrap();
        assert_eq!(cli.strategy, Strategy::Dlm);
        assert_eq!(cli.deadline, Some(2.5));
        assert_eq!(cli.budget, Some(500_000));
        assert_eq!(cli.threads, 4);
        assert!(cli.explain);
        // `--threads` is the only solver-thread flag
        assert!(parse_args(&args("synthesize f.tce --scan-threads 2")).is_err());
        // `portfolio` named a strategy that no longer exists
        let gone = parse_args(&args("synthesize f.tce --strategy portfolio")).unwrap_err();
        assert!(gone.message.contains("unknown strategy"), "{gone}");
        assert_eq!(gone.exit_code(), 2);
    }

    #[test]
    fn parse_fault_and_retry_specs() {
        // the documented example; the seed segment seeds every rank
        let plan =
            parse_faults("seed=42;rank=0,after=20,kind=transient:2;rank=1,p=0.01,spike=0.1:0.5")
                .unwrap();
        let seeded = Schedule::none().with_seed(42);
        let burst = seeded.clone().fail_after(20, DiskFaultKind::Transient, 2);
        assert_eq!(plan.disk(0).schedule, burst);
        let noisy = seeded.probabilistic(0.01, DiskFaultKind::Transient);
        assert_eq!(plan.disk(1).schedule, noisy);
        assert_eq!((plan.disk(1).p_spike, plan.disk(1).spike_s), (0.1, 0.5));
        assert!(plan.disk(2).is_idle());
        // after= without kind defaults to a permanent failure
        let plan = parse_faults("rank=1,after=3").unwrap();
        let dead = Schedule::none().fail_after(3, DiskFaultKind::Permanent, 1);
        assert_eq!(plan.disk(1).schedule, dead);

        let policy = parse_retry("6,0.01,1.5").unwrap();
        assert_eq!(policy.max_attempts, 6);
        assert_eq!(policy.base_backoff_s, 0.01);
        assert_eq!(policy.backoff_factor, 1.5);
        assert_eq!(parse_retry("3").unwrap().max_attempts, 3);

        assert!(parse_faults("rank=0,p=1.5").is_err());
        assert!(parse_faults("after=3").is_err()); // missing rank
        assert!(parse_faults("rank=0,kind=permanent").is_err()); // kind without after
        assert!(parse_faults("rank=0,banana=1").is_err());
        assert!(parse_faults("rank=0,spike=0.5").is_err());
        assert!(parse_faults("rank=0,spike=0.5:-1").is_err());
        assert!(parse_retry("0").is_err());
        assert!(parse_retry("3,0.1,0.5").is_err()); // factor < 1
    }

    #[test]
    fn parse_resilience_flags() {
        let cli = parse_args(&args(
            "run f.tce --full --faults rank=0,after=2,kind=transient:1 --retry 4 --resume",
        ))
        .unwrap();
        assert!(cli.resume);
        assert!(cli.faults.is_some());
        assert_eq!(cli.retry.as_ref().map(|r| r.max_attempts), Some(4));
        // --resume needs --full (checkpoints exist only in full mode)
        assert!(parse_args(&args("run f.tce --resume")).is_err());
    }

    #[test]
    fn zero_fault_counts_are_usage_errors() {
        for spec in ["rank=0,after=1,kind=transient:0", "rank=0,after=1,count=0"] {
            let err = parse_args(&args(&format!("run f.tce --full --faults {spec}"))).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{spec}: {err}");
        }
    }

    #[test]
    fn run_with_transient_faults_retries_and_verifies() {
        let file = write_fixture("run_with_transient_faults_retries_and_verifies");
        let cli = parse_args(&args(&format!(
            "run {file} --mem 8K --test-scale --full --verify --print tiles \
             --faults rank=0,after=4,kind=transient:2 --retry 5,0.01"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("resilience: faults 2, retries 2"), "{out}");
        assert!(out.contains("verification: max"), "{out}");
    }

    #[test]
    fn run_with_permanent_fault_resumes_and_verifies() {
        let file = write_fixture("run_with_permanent_fault_resumes_and_verifies");
        let cli = parse_args(&args(&format!(
            "run {file} --mem 8K --test-scale --full --verify --resume --print tiles \
             --faults rank=0,after=6"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("resume leg(s)"), "{out}");
        assert!(out.contains("verification: max"), "{out}");
    }

    #[test]
    fn run_without_retry_fails_with_typed_fault() {
        let file = write_fixture("run_without_retry_fails_with_typed_fault");
        let cli = parse_args(&args(&format!(
            "run {file} --mem 8K --test-scale --full --print tiles --faults rank=0,after=2"
        )))
        .unwrap();
        let err = run_cli(&cli).unwrap_err();
        assert!(
            err.message.contains("injected permanent disk fault"),
            "{err}"
        );
    }

    #[test]
    fn check_command_prints_code() {
        let file = write_fixture("check_command_prints_code");
        let cli = parse_args(&args(&format!("check {file}"))).unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("FOR i, n"), "{out}");
        assert!(out.contains("ok: 5 arrays, 4 statements"), "{out}");
    }

    #[test]
    fn synthesize_command_prints_plan_and_tiles() {
        let file = write_fixture("synthesize_command_prints_plan_and_tiles");
        let cli = parse_args(&args(&format!(
            "synthesize {file} --mem 8K --test-scale --print tiles,plan,placements,ampl"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("tiles: "), "{out}");
        assert!(out.contains("Read ADisk"), "{out}");
        assert!(out.contains("Input Arrays"), "{out}");
        assert!(out.contains("minimize disk_io_cost"), "{out}");
    }

    #[test]
    fn run_command_executes_and_verifies() {
        let file = write_fixture("run_command_executes_and_verifies");
        let cli = parse_args(&args(&format!(
            "run {file} --mem 8K --test-scale --full --verify --nproc 2 --print tiles"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("executed on 2 process(es)"), "{out}");
        assert!(out.contains("verification: max"), "{out}");
    }

    #[test]
    fn explain_prints_solver_report() {
        let file = write_fixture("explain_prints_solver_report");
        for (strategy, task) in [("dlm", "dlm#0"), ("csa", "csa#0")] {
            let cli = parse_args(&args(&format!(
                "synthesize {file} --mem 8K --test-scale --strategy {strategy} --budget 300000 --explain --print tiles"
            )))
            .unwrap();
            let out = run_cli(&cli).unwrap();
            assert!(out.contains("=== solver report ==="), "{out}");
            assert!(out.contains(&format!("solver report: {strategy}")), "{out}");
            assert!(out.contains(task), "{out}");
        }
    }

    #[test]
    fn explain_on_baseline_reports_absence() {
        let file = write_fixture("explain_on_baseline_reports_absence");
        let cli = parse_args(&args(&format!(
            "synthesize {file} --mem 8K --test-scale --baseline --samples 3 --explain --print tiles"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("no solver report"), "{out}");
    }

    #[test]
    fn baseline_pipeline_reachable() {
        let file = write_fixture("baseline_pipeline_reachable");
        let cli = parse_args(&args(&format!(
            "synthesize {file} --mem 8K --test-scale --baseline --samples 3 --print tiles,ampl"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("no AMPL model"), "{out}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cli = parse_args(&args("check /nonexistent/nowhere.tce")).unwrap();
        let err = run_cli(&cli).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert_eq!(err.kind, CliErrorKind::Runtime);
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn usage_and_runtime_errors_have_distinct_exit_codes() {
        let usage = parse_args(&args("run f.tce --strategy magic")).unwrap_err();
        assert_eq!(usage.kind, CliErrorKind::Usage);
        assert_eq!(usage.exit_code(), 2);

        let file = write_fixture("usage_and_runtime_errors_have_distinct_exit_codes");
        // infeasible: 1-byte memory limit, so synthesis fails at runtime
        let cli = parse_args(&args(&format!("synthesize {file} --mem 1 --test-scale"))).unwrap();
        let runtime = run_cli(&cli).unwrap_err();
        assert!(runtime.message.contains("synthesis failed"), "{runtime}");
        assert_eq!(runtime.exit_code(), 1);
    }

    #[test]
    fn serve_flags_are_validated() {
        // serve needs exactly one input source
        assert!(parse_args(&args("serve")).is_err());
        assert!(parse_args(&args("serve --batch a.json --stdin")).is_err());
        assert!(parse_args(&args("serve --batch a.json --listen 127.0.0.1:0")).is_err());
        assert!(parse_args(&args("serve --stdin --listen 127.0.0.1:0")).is_err());
        // serve-only flags rejected elsewhere
        assert!(parse_args(&args("check f.tce --batch a.json")).is_err());
        assert!(parse_args(&args("check f.tce --job-timeout 5")).is_err());
        assert!(parse_args(&args("check f.tce --journal j.log")).is_err());
        assert!(parse_args(&args("check f.tce --listen 127.0.0.1:0")).is_err());
        assert!(parse_args(&args("check f.tce --workers 2")).is_err());
        // --resume-journal needs --journal; --job-timeout must be positive
        assert!(parse_args(&args("serve --batch a.json --resume-journal")).is_err());
        assert!(parse_args(&args("serve --batch a.json --job-timeout 0")).is_err());
        // --queue is daemon-only and must be positive
        assert!(parse_args(&args("serve --batch a.json --queue 8")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --queue 0")).is_err());
        let cli = parse_args(&args(
            "serve --batch jobs.json --workers 4 --job-timeout 2.5 \
             --journal j.log --resume-journal",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.serve.batch.as_deref(), Some("jobs.json"));
        assert_eq!(cli.serve.workers, 4);
        assert_eq!(cli.serve.job_timeout, Some(2.5));
        assert_eq!(cli.serve.journal.as_deref(), Some("j.log"));
        assert!(cli.serve.resume_journal);

        let cli = parse_args(&args("serve --listen 127.0.0.1:7411 --queue 8 --workers 2")).unwrap();
        assert_eq!(cli.serve.listen.as_deref(), Some("127.0.0.1:7411"));
        assert_eq!(cli.serve.queue, 8);
        assert_eq!(cli.serve.modes(), 1);
    }

    #[test]
    fn serve_overload_flags_are_daemon_only_and_parse() {
        // daemon-only: rejected in batch/stdin modes and on other commands
        assert!(parse_args(&args("serve --batch a.json --max-conns 4")).is_err());
        assert!(parse_args(&args("serve --stdin --idle-timeout 5")).is_err());
        assert!(parse_args(&args("serve --batch a.json --net-faults p=0.1")).is_err());
        assert!(parse_args(&args("check f.tce --max-conns 4")).is_err());
        // range and syntax validation
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --max-conns 0")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --idle-timeout 0")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --idle-timeout nan")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --net-faults bogus=1")).is_err());

        let cli = parse_args(&args(
            "serve --listen 127.0.0.1:0 --max-conns 64 --idle-timeout 30 \
             --net-faults seed=7,p=0.05,kind=reset,stall_ms=40",
        ))
        .unwrap();
        assert_eq!(cli.serve.max_conns, 64);
        assert_eq!(cli.serve.idle_timeout, Some(30.0));
        let plan = cli.serve.net_faults.as_ref().unwrap();
        assert!(!plan.schedule.is_idle());
        // the configured server builds without panicking
        let _ = cli.serve.server();
    }

    #[test]
    fn serve_frame_timeout_flags_are_daemon_only_and_parse() {
        // daemon-only: rejected in batch/stdin modes and on other commands
        assert!(parse_args(&args("serve --batch a.json --read-timeout 5")).is_err());
        assert!(parse_args(&args("serve --stdin --write-timeout 5")).is_err());
        assert!(parse_args(&args("run f.tce --read-timeout 5")).is_err());
        // range and syntax validation
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --read-timeout 0")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --read-timeout nan")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --write-timeout -1")).is_err());
        assert!(parse_args(&args("serve --listen 127.0.0.1:0 --write-timeout inf")).is_err());

        let cli = parse_args(&args(
            "serve --listen 127.0.0.1:0 --read-timeout 5 --write-timeout 2.5",
        ))
        .unwrap();
        assert_eq!(cli.serve.read_timeout, Some(5.0));
        assert_eq!(cli.serve.write_timeout, Some(2.5));
        // the configured server builds without panicking
        let _ = cli.serve.server();
    }

    #[test]
    fn listen_mode_serves_over_tcp_and_drains() {
        use std::io::{Read as _, Write as _};
        use std::sync::atomic::{AtomicBool, Ordering};

        let file = write_fixture("listen_mode_serves_over_tcp_and_drains");
        let dsl = std::fs::read_to_string(&file).unwrap();

        // the CLI layer on a real socket: bind here, hand the listener
        // to the same server ServeOptions::server() builds
        let cli = parse_args(&args("serve --listen 127.0.0.1:0 --queue 4 --workers 1")).unwrap();
        let server = cli.serve.server();
        let cache = tce_cache::SynthesisCache::in_memory();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve(listener, &cache, &shutdown).unwrap());

            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let spec = tce_serve::JobSpec {
                name: "cli-wire".to_string(),
                program: dsl.clone(),
                mem_limit: 8192,
                test_scale: true,
                strategy: None,
                seed: None,
                budget: None,
                telemetry: false,
                objective: None,
                timeout_ms: None,
            };
            tce_serve::write_frame(
                &mut stream,
                &tce_serve::WireFrame::Job(tce_serve::JobRequest { id: 7, spec }),
            )
            .unwrap();
            stream.flush().unwrap();
            match tce_serve::read_frame(&mut stream).unwrap().unwrap() {
                tce_serve::WireFrame::Report { id, report } => {
                    assert_eq!(id, 7);
                    assert!(report.ok, "{report:?}");
                }
                other => panic!("unexpected frame {other:?}"),
            }
            tce_serve::write_frame(&mut stream, &tce_serve::WireFrame::Shutdown).unwrap();
            stream.flush().unwrap();
            let report = handle.join().unwrap();
            assert_eq!(report.summary.ok, 1);
            // the read half drains to EOF once the daemon is gone
            let mut rest = Vec::new();
            let _ = stream.read_to_end(&mut rest);
        });
        shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn serve_journal_writes_and_resumes() {
        let file = write_fixture("serve_journal_writes_and_resumes");
        let dsl = std::fs::read_to_string(&file).unwrap();
        let program = serde_json::to_string(&dsl).unwrap();
        let dir = test_dir("journal");
        let jobs_path = dir.join("jobs.json");
        std::fs::write(
            &jobs_path,
            format!(
                r#"{{"schema": "tce-serve/jobs/v1", "jobs": [
                    {{"name": "a", "program": {program}, "mem_limit": 8192, "test_scale": true}}
                ]}}"#
            ),
        )
        .unwrap();
        let journal = dir.join("batch.journal");
        let argv = format!(
            "serve --batch {} --workers 1 --journal {}",
            jobs_path.display(),
            journal.display()
        );
        let out = run_cli(&parse_args(&args(&argv)).unwrap()).unwrap();
        assert!(out.contains("\"ok\": 1"), "{out}");
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.contains("tce-serve/journal/v2"), "{text}");
        assert!(text.contains("\"done\""), "{text}");

        // resuming the *complete* journal re-runs nothing
        let out =
            run_cli(&parse_args(&args(&format!("{argv} --resume-journal"))).unwrap()).unwrap();
        assert!(out.contains("\"resumed\": 1"), "{out}");
        assert!(out.contains("\"ok\": 1"), "{out}");
    }

    #[test]
    fn serve_batch_runs_jobs_and_reports_cache_hits() {
        let file = write_fixture("serve_batch_runs_jobs_and_reports_cache_hits");
        let dsl = std::fs::read_to_string(&file).unwrap();
        let program = serde_json::to_string(&dsl).unwrap();
        let dir = test_dir("serve");
        let jobs_path = dir.join("jobs.json");
        std::fs::write(
            &jobs_path,
            format!(
                r#"{{"schema": "tce-serve/jobs/v1", "jobs": [
                    {{"name": "a", "program": {program}, "mem_limit": 8192, "test_scale": true}},
                    {{"name": "b", "program": {program}, "mem_limit": 8192, "test_scale": true}}
                ]}}"#
            ),
        )
        .unwrap();

        let cache_dir = dir.join("cache");
        let cli = parse_args(&args(&format!(
            "serve --batch {} --workers 2 --cache-dir {}",
            jobs_path.display(),
            cache_dir.display()
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("tce-serve/report/v1"), "{out}");
        assert!(out.contains("\"fingerprint\""), "{out}");
        // identical jobs: one solve, one hit (joined or replayed)
        assert!(out.contains("\"misses\": 1"), "{out}");
        assert!(out.contains("\"hits\": 1"), "{out}");
        // the cache directory now holds the record for a future process
        let cached: Vec<_> = std::fs::read_dir(&cache_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(cached.len(), 1, "one record on disk");
    }

    #[test]
    fn serve_rejects_bad_jobs_file_as_usage() {
        let dir = test_dir("servebad");
        let jobs_path = dir.join("bad.json");
        std::fs::write(&jobs_path, r#"{"schema": "wrong", "jobs": []}"#).unwrap();
        let cli = parse_args(&args(&format!("serve --batch {}", jobs_path.display()))).unwrap();
        let err = run_cli(&cli).unwrap_err();
        assert_eq!(err.kind, CliErrorKind::Usage);
        // unreadable file is a runtime failure, not usage
        let cli = parse_args(&args("serve --batch /nonexistent/nope.json")).unwrap();
        let err = run_cli(&cli).unwrap_err();
        assert_eq!(err.kind, CliErrorKind::Runtime);
    }

    // --- contraction networks --------------------------------------------

    fn write_network_fixture(test: &str) -> String {
        let path = test_dir(test).join("network.tce");
        std::fs::write(
            &path,
            tce_ir::to_network_dsl(&tce_ir::network::small_network()),
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn parse_gen_network_flags() {
        let cli = parse_args(&args(
            "gen-network --seed 7 --nodes 4 --min-extent 8 --max-extent 24 \
             --sparse-frac 0.8 --min-nnz 0.05 -o net.tce",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::GenNetwork);
        assert_eq!(cli.net_gen.seed, 7);
        assert_eq!(cli.net_gen.nodes, 4);
        assert_eq!((cli.net_gen.min_extent, cli.net_gen.max_extent), (8, 24));
        assert_eq!(cli.net_gen.sparse_frac, 0.8);
        assert_eq!(cli.net_gen.min_nnz, 0.05);
        assert_eq!(cli.out_path.as_deref(), Some("net.tce"));
    }

    #[test]
    fn gen_network_flags_are_validated() {
        assert!(parse_args(&args("gen-network --nodes 0")).is_err());
        assert!(parse_args(&args("gen-network --min-extent 12 --max-extent 8")).is_err());
        assert!(parse_args(&args("gen-network --sparse-frac 1.5")).is_err());
        assert!(parse_args(&args("gen-network --min-nnz 0")).is_err());
        // generator flags are rejected on other commands
        assert!(parse_args(&args("synthesize f.tce --nodes 3")).is_err());
        assert!(parse_args(&args("check f.tce -o out.tce")).is_err());
        // --verify outside run/synthesize is usage
        assert!(parse_args(&args("check f.tce --verify")).is_err());
    }

    #[test]
    fn gen_network_emits_a_parseable_deterministic_network() {
        let cli = parse_args(&args("gen-network --seed 11 --nodes 3")).unwrap();
        let a = run_cli(&cli).unwrap();
        let b = run_cli(&cli).unwrap();
        assert_eq!(a, b, "same seed must emit the same network");
        let dag = tce_ir::parse_network(&a).expect("emitted DSL parses");
        assert_eq!(dag.nodes().len(), 3);
        // a different seed gives a different network
        let other =
            run_cli(&parse_args(&args("gen-network --seed 12 --nodes 3")).unwrap()).unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn gen_network_writes_to_a_file_and_check_round_trips() {
        let path = test_dir("gen_network_writes_to_a_file").join("gen.tce");
        let cli = parse_args(&args(&format!(
            "gen-network --seed 5 -o {}",
            path.display()
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("wrote "), "{out}");
        let check = parse_args(&args(&format!("check {}", path.display()))).unwrap();
        let out = run_cli(&check).unwrap();
        assert!(out.starts_with("network"), "{out}");
        assert!(out.contains("contractions"), "{out}");
    }

    #[test]
    fn check_pretty_prints_networks() {
        let file = write_network_fixture("check_pretty_prints_networks");
        let cli = parse_args(&args(&format!("check {file}"))).unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("nnz 0.1 format csr"), "{out}");
        assert!(
            out.contains("ok: 5 tensors (1 sparse), 2 contractions"),
            "{out}"
        );
    }

    #[test]
    fn synthesize_verifies_networks_against_the_oracle() {
        let file = write_network_fixture("synthesize_verifies_networks_against_the_oracle");
        let cli = parse_args(&args(&format!(
            "synthesize {file} --mem 48K --test-scale --verify --seed 3"
        )))
        .unwrap();
        let out = run_cli(&cli).unwrap();
        assert!(out.contains("tiles: "), "{out}");
        assert!(out.contains("T: "), "{out}");
        assert!(out.contains("verification: max |plan - oracle|"), "{out}");
    }

    #[test]
    fn network_misuse_is_reported_as_usage() {
        let file = write_network_fixture("network_misuse_is_reported_as_usage");
        // `tce run` cannot execute a network: a structured Usage error
        // (exit 2) that points the user at the supported path
        let run = parse_args(&args(&format!("run {file} --full"))).unwrap();
        let err = run_cli(&run).unwrap_err();
        assert_eq!(err.kind, CliErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.message.contains("synthesize") && err.message.contains("--verify"),
            "error should point at `synthesize --verify`: {}",
            err.message
        );
        let baseline =
            parse_args(&args(&format!("synthesize {file} --baseline --test-scale"))).unwrap();
        assert_eq!(run_cli(&baseline).unwrap_err().kind, CliErrorKind::Usage);
        // dense programs reject synthesize --verify
        let dense = write_fixture("network_misuse_dense");
        let cli = parse_args(&args(&format!("synthesize {dense} --test-scale --verify"))).unwrap();
        assert_eq!(run_cli(&cli).unwrap_err().kind, CliErrorKind::Usage);
    }

    #[test]
    fn infeasible_network_limit_is_a_runtime_error() {
        let file = write_network_fixture("infeasible_network_limit_is_a_runtime_error");
        let cli = parse_args(&args(&format!("synthesize {file} --mem 8 --test-scale"))).unwrap();
        let err = run_cli(&cli).unwrap_err();
        assert!(err.message.contains("synthesis failed"), "{err}");
        assert_eq!(err.exit_code(), 1);
    }
}
