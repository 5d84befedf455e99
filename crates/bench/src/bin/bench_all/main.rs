//! `bench_all`: the repo's benchmark. Five workloads, every end-to-end
//! metric by name and unit, and a traced run that attributes the time to
//! the layers. See `README.md` beside this file.
//!
//! ```text
//! bench_all [--seed N] [--duration-s S] [--trace-s S] [--smoke] [--out PATH]
//! bench_all --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]
//! bench_all compare A.json B.json
//! bench_all benchmark-json
//! ```
//!
//! The first form runs everything: each workload as a child process of
//! its own (so peak memory and caches do not leak between workloads),
//! untraced for the end-to-end metrics and then traced for the per-layer
//! ones. The second form is one such child, and the form `BENCHMARK.json`
//! names: its last line of standard output is the result as one JSON
//! object. Everything meant for people goes to standard error.

mod exec_sim;
mod grid;
mod report;
mod rng;
mod serve;
mod stats;
mod synth;
mod trace;
mod verify;
mod workload;

use report::{
    deterministic_value, host_value, metrics_value, number, END_TO_END, PER_LAYER, SCHEMA,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use verify::Quality;
use workload::{Ctx, Layers, Samples, Traced, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const DEFAULT_SEED: u64 = 2004;
const DEFAULT_DURATION_S: f64 = report::RUN_SECONDS as f64;
const DEFAULT_TRACE_S: f64 = 5.0;
const SMOKE_DURATION_S: f64 = 2.0;
const SMOKE_TRACE_S: f64 = 1.0;

/// Where build products go: the benchmark's own files live below it.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// This process's scratch directory, `<target>/bench_all/<pid>/`; gone
/// when the value is dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = target_dir()
            .join("bench_all")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

enum Prepared {
    Synth(synth::Prepared),
    Exec(exec_sim::Prepared),
    Serve(serve::Prepared),
}

impl Prepared {
    fn quality(&self) -> &Quality {
        match self {
            Prepared::Synth(p) => &p.baseline.quality,
            Prepared::Exec(p) => &p.baseline.quality,
            Prepared::Serve(p) => &p.baseline.quality,
        }
    }
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Prepared, String> {
    match ctx.workload {
        "synth_cold" | "synth_hit" => synth::setup(ctx, rep).map(Prepared::Synth),
        "exec_sim" => exec_sim::setup(ctx).map(Prepared::Exec),
        _ => serve::setup(ctx, rep).map(Prepared::Serve),
    }
}

/// One workload, untraced or traced: the form `BENCHMARK.json` runs.
fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: Option<&Path>,
) -> Result<(), String> {
    let scratch = Scratch::new()?;
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        scratch: scratch.0.clone(),
    };
    eprintln!(
        "bench_all: {workload}, seed {seed}, {seconds} s {}, closed loop{}",
        if traced { "traced" } else { "untraced" },
        if workload.starts_with("serve") {
            format!(
                " of {} clients on {} worker",
                serve::CLIENTS,
                serve::WORKERS
            )
        } else {
            " of 1 caller".to_string()
        }
    );

    // set-up, verification pass included, several times over: one set-up
    // is about a second, too short to time once
    let mut setup_times = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let mut quality: Option<Quality> = None;
    for rep in 0..SETUP_REPS {
        drop(prepared.take());
        let began = Instant::now();
        let p = setup(&ctx, rep)?;
        setup_times.push(began.elapsed().as_secs_f64());
        if quality.get_or_insert_with(|| p.quality().clone()) != p.quality() {
            return Err(
                "two verification passes of one process disagree: synthesis is not deterministic"
                    .to_string(),
            );
        }
        prepared = Some(p);
    }
    let setup_s = stats::median(&setup_times);
    let quality = quality.expect("at least one set-up ran");
    let prepared = prepared.expect("at least one set-up ran");
    eprintln!(
        "  verification passed {SETUP_REPS} times; setup_s {setup_s:.3} s wall-clock (median of {SETUP_REPS}); counts: \
         grid solver evals {}, placement candidates {}, dry-run io ops {}, io bytes {}",
        quality.solver_evals, quality.placement_candidates, quality.dry_run_io_ops, quality.dry_run_io_bytes
    );

    let mut fields: Vec<(&str, Value)> = vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
    ];
    let (attempted, failed, metrics);
    if traced {
        let t: Traced = match prepared {
            Prepared::Synth(p) => synth::run_traced(&p, &ctx)?,
            Prepared::Exec(p) => exec_sim::run_traced(&p, &ctx)?,
            Prepared::Serve(p) => serve::run_traced(p, &ctx)?,
        };
        let mut layers: Layers = t.layers;
        layers.insert("bench.traced_ops", t.attempted as f64);
        let path = target_dir()
            .join("bench_all")
            .join(format!("trace-{workload}.jsonl"));
        t.tracer
            .write_jsonl(&path, &t.classes)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!(
            "  {} spans of {} operations -> {}",
            t.tracer.spans.len(),
            t.attempted,
            path.display()
        );
        eprint!("{}", t.tables);
        let values: Vec<(&'static str, &'static str, f64)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        if let Some(stray) = layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
        {
            return Err(format!("per-layer metric {stray} is not in the table"));
        }
        eprintln!("  per-layer metrics (0: the layer is not on this workload's path)");
        for (name, unit, v) in values.iter().filter(|v| v.2 != 0.0) {
            eprintln!("    {name:<30} {v:>16.4} {unit}");
        }
        fields.push((
            "deterministic",
            deterministic_value(&quality, Some(&layers)),
        ));
        fields.push(("per_layer", report::per_layer_value(&layers)));
        (attempted, failed, metrics) = (t.attempted, t.failed, metrics_value(&values));
    } else {
        let s: Samples = match prepared {
            Prepared::Synth(p) => synth::run(&p, &ctx)?,
            Prepared::Exec(p) => exec_sim::run(&p, &ctx)?,
            Prepared::Serve(p) => serve::run(p, &ctx)?,
        };
        let timed = s.timed();
        let tail_p = timed.tail_percentile;
        let value_of = |name: &str| match name {
            "setup_s" => setup_s,
            "peak_rss_mb" => workload::peak_rss_mb(),
            "op_geomean_ms" => timed.op_geomean_ms,
            "op_tail_ms" => timed.op_tail_ms,
            "ops_per_s" => timed.ops_per_s,
            "plan_io_geomean_gb" => quality.plan_io_geomean_gb,
            "plan_sim_io_geomean_s" => quality.plan_sim_io_geomean_s,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        let values: Vec<(&'static str, &'static str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value_of(m.name)))
            .collect();
        eprintln!("  {:<34} {:>7} {:>12}", "operation class", "n", "p50_ms");
        for (class, n, p50) in s.class_rows() {
            eprintln!("  {class:<34} {n:>7} {p50:>12.4}");
        }
        eprintln!(
            "  end-to-end metrics over {} operations ({} failed), wall-clock; op_tail_ms is p{tail_p}, \
             median of ten segments ({:.4} ms over the whole window)",
            s.attempted(),
            s.failed,
            timed.whole_window_tail_ms
        );
        for (name, unit, v) in &values {
            eprintln!("    {name:<30} {v:>16.6} {unit}");
        }
        let rows = s
            .class_rows()
            .into_iter()
            .map(|(class, n, p50)| {
                Value::Map(vec![
                    ("class".to_string(), Value::Str(class)),
                    ("n".to_string(), Value::UInt(n as u64)),
                    ("p50_ms".to_string(), Value::Float(p50)),
                ])
            })
            .collect();
        fields.push(("deterministic", deterministic_value(&quality, None)));
        fields.push(("end_to_end", metrics_value(&values)));
        fields.push(("tail_percentile", Value::Float(tail_p)));
        fields.push((
            "whole_window_tail_ms",
            Value::Float(timed.whole_window_tail_ms),
        ));
        fields.push(("classes", Value::Seq(rows)));
        (attempted, failed, metrics) = (s.attempted(), s.failed, metrics_value(&values));
    }
    if attempted == 0 {
        return Err("the window closed before one operation completed".to_string());
    }

    fields.push(("correct", Value::Bool(failed == 0)));
    fields.push(("attempted", Value::UInt(attempted)));
    fields.push(("failed", Value::UInt(failed)));
    fields.push((
        "failed_share",
        Value::Float(failed as f64 / attempted as f64),
    ));
    if let Some(path) = report {
        let full = Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        let json = serde_json::to_string_pretty(&full).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    drop(scratch);
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Runs `workload` as a child of its own and reads back what it wrote.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Value, String> {
    let report = dir.join(format!("{workload}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }, "--report"])
        .arg(&report)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} child failed ({status})"));
    }
    let text =
        std::fs::read_to_string(&report).map_err(|e| format!("cannot read {report:?}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| e.to_string())
}

/// Everything: verification, five untraced runs, five traced runs.
fn run_all(seed: u64, duration_s: f64, trace_s: f64, out: Option<&Path>) -> Result<(), String> {
    let scratch = Scratch::new()?;
    let mut workloads = Vec::new();
    let mut problems = Vec::new();
    // the grid's plan quality and counts as the first process saw them
    let mut grid_counts: Option<Vec<(String, Value)>> = None;
    for (name, _) in WORKLOADS {
        let untraced = child(name, seed, duration_s, false, &scratch.0)?;
        let traced = child(name, seed, trace_s, true, &scratch.0)?;
        for run in [&untraced, &traced] {
            if run.get("correct") != Some(&Value::Bool(true)) {
                problems.push(format!("{name}: a run had failed operations"));
            }
            // determinism self-check: ten processes, one grid, the same bits
            let Some(Value::Map(counts)) = run.get("deterministic") else {
                return Err(format!(
                    "{name}: the child reported no deterministic counts"
                ));
            };
            let of_grid: Vec<_> = counts
                .iter()
                .filter(|(k, _)| !k.contains('.'))
                .cloned()
                .collect();
            if *grid_counts.get_or_insert_with(|| of_grid.clone()) != of_grid {
                problems.push(format!("{name}: plan quality or grid counts differ from an earlier process of this run"));
            }
        }
        // one entry per workload: the untraced child's report, with the
        // traced child's per-layer metrics and (fuller) counts
        let Value::Map(mut entry) = untraced else {
            return Err(format!("{name}: the child's report is not an object"));
        };
        entry.retain(|(k, _)| k != "deterministic");
        for (key, from) in [
            ("per_layer", "per_layer"),
            ("deterministic", "deterministic"),
            ("traced_attempted", "attempted"),
            ("traced_failed", "failed"),
        ] {
            entry.push((
                key.to_string(),
                traced.get(from).cloned().unwrap_or(Value::Null),
            ));
        }
        workloads.push((name.to_string(), Value::Map(entry)));
    }

    println!("bench_all: seed {seed}, {duration_s} s untraced and {trace_s} s traced per workload, closed loops");
    for (name, entry) in &workloads {
        let field = |key: &str| entry.get(key).and_then(number).unwrap_or(0.0);
        println!(
            "\n{name}: {} operations, failed_share {} ({} failed), op_tail_ms is p{}",
            field("attempted"),
            field("failed_share"),
            field("failed"),
            field("tail_percentile")
        );
        let value_of = |key: &str, metric: &str| {
            entry
                .get(key)
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(number)
                .unwrap_or(0.0)
        };
        println!("  end-to-end (the name BENCHMARK.json carries; the share it may worsen by)");
        for m in &END_TO_END {
            println!(
                "    {:<24} {:>18.6} {:<6} ({}; {:.0}%)",
                report::issue_name(m.name, name),
                value_of("end_to_end", m.name),
                m.unit,
                m.name,
                100.0 * m.bound
            );
        }
        println!(
            "    {:<24} {:>18.6} {:<6} (failed / attempted; may not rise)",
            "failed_share",
            field("failed_share"),
            "share"
        );
        println!("  per-layer, traced (the end-to-end metrics it should move, and where)");
        for m in &PER_LAYER {
            let value = value_of("per_layer", m.name);
            if value != 0.0 {
                println!(
                    "    {:<30} {value:>18.6} {:<6} {} on {}",
                    m.name, m.unit, m.moves, m.on
                );
            }
        }
        if let Some(Value::Map(counts)) = entry.get("deterministic") {
            println!("  counts that repeat exactly at this seed");
            for (count, v) in counts {
                println!("    {count:<30} {:>18}", number(v).unwrap_or(0.0));
            }
        }
    }
    if let Some(path) = out {
        let file = Value::Map(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("host".to_string(), host_value(seed, duration_s, trace_s)),
            ("workloads".to_string(), Value::Map(workloads)),
        ]);
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("\nwrote {}", path.display());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

fn usage() -> String {
    "usage: bench_all [--seed N] [--duration-s S] [--trace-s S] [--smoke] [--out PATH]\n       \
     bench_all --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]\n       \
     bench_all compare A.json B.json\n       \
     bench_all benchmark-json"
        .to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args else { return Err(usage()) };
        let load = |path: &String| -> Result<Value, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
        };
        let violations = report::compare(&load(a)?, &load(b)?);
        return if violations.is_empty() {
            println!("compare: B is within every bound of A");
            Ok(())
        } else {
            Err(violations.join("\n"))
        };
    }

    if args == ["benchmark-json"] {
        let json = serde_json::to_string_pretty(&report::benchmark_json());
        println!("{}", json.map_err(|e| e.to_string())?);
        return Ok(());
    }

    let mut flags = std::collections::HashMap::new();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" | "--duration-s" | "--trace-s" | "--out" | "--workload" | "--seconds"
            | "--trace" | "--report" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} wants a value\n{}", usage()))?;
                flags.insert(arg.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument {arg}\n{}", usage())),
        }
    }
    let parsed = |name: &str, default: f64| -> Result<f64, String> {
        flags.get(name).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{name} wants a non-negative number, got {v}"))
        })
    };
    let seed = match flags.get("--seed") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--seed wants a whole number, got {v}"))?,
        None => DEFAULT_SEED,
    };

    if let Some(name) = flags.get("--workload") {
        let (workload, _) = WORKLOADS
            .into_iter()
            .find(|(w, _)| w == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload {name}; the workloads are {:?}",
                    WORKLOADS.map(|w| w.0)
                )
            })?;
        let seconds = parsed("--seconds", DEFAULT_DURATION_S)?;
        let traced = match flags.get("--trace").copied() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1, got {other}")),
        };
        return run_workload(
            workload,
            seed,
            seconds,
            traced,
            flags.get("--report").map(Path::new),
        );
    }
    let duration_s = parsed(
        "--duration-s",
        if smoke {
            SMOKE_DURATION_S
        } else {
            DEFAULT_DURATION_S
        },
    )?;
    let trace_s = parsed(
        "--trace-s",
        if smoke {
            SMOKE_TRACE_S
        } else {
            DEFAULT_TRACE_S
        },
    )?;
    run_all(seed, duration_s, trace_s, flags.get("--out").map(Path::new))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_all: {e}");
            ExitCode::FAILURE
        }
    }
}
