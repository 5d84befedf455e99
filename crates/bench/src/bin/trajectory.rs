//! `trajectory`: the benchmark's record over commits, outside `bench_all`.
//!
//! ```text
//! trajectory pairs --parent BIN --change BIN --workload W --n N [--seed S] [--seconds T]
//! trajectory append FILE [--history PATH]
//! ```
//!
//! `pairs` runs two prebuilt `bench_all` binaries on one workload, `n`
//! times each, in alternating order (parent first in even pairs, change
//! first in odd ones: ABBA...), each run as `BENCHMARK.json` runs it
//! (`--workload W --seed S --seconds T --trace 0`, `T` defaulting to its
//! `run_seconds`). The end-to-end metric names, directions and bounds are
//! read from `BENCHMARK.json` in the working directory at run time. Per
//! metric it prints both medians, each side's IQR over its median, and
//! the pairs the change wins; a metric is `unresolved` when the parent's
//! own IQR/median exceeds the bound, because then a difference within
//! the bound cannot be told from the spread. It also prints each
//! operation class's median p50 per side.
//!
//! `append` adds one line per workload of a full run's `--out` file to
//! `BENCH_history.jsonl` (or `--history PATH`): the commit and host
//! record of the run, the run file's name, the seven end-to-end metrics
//! and the failed share.

use serde_json::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: trajectory pairs --parent BIN --change BIN --workload W --n N \
                     [--seed S] [--seconds T]\n       trajectory append FILE [--history PATH]";

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// The end-to-end metrics and the default run length of `BENCHMARK.json`.
fn benchmark(file: &Value) -> Result<(Vec<Metric>, f64), String> {
    let Some(Value::Seq(rows)) = file.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let metrics = rows
        .iter()
        .map(|row| {
            let name = match row.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end entry has no name".to_string()),
            };
            let lower_is_better = match row.get("better") {
                Some(Value::Str(s)) if s == "lower" => true,
                Some(Value::Str(s)) if s == "higher" => false,
                _ => return Err(format!("{name}: `better` is neither lower nor higher")),
            };
            let bound = row
                .get("bound")
                .and_then(number)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Metric {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let seconds = file.get("run_seconds").and_then(number).unwrap_or(20.0);
    Ok((metrics, seconds))
}

/// The median; the mean of the two middle values for an even count.
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile by linear interpolation between the order statistics
/// (rank `q (n - 1)`), so the median of an even count is the mean of its
/// two middle values. NaN for no values.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = q * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Distance between the quartiles over the median: 0 for values that
/// all agree, infinite when they differ around a median of 0.
fn iqr_share(xs: &[f64]) -> f64 {
    let iqr = quantile(xs, 0.75) - quantile(xs, 0.25);
    let m = median(xs).abs();
    if iqr == 0.0 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        iqr / m
    }
}

/// The pairs in which the change is strictly better, and the ties.
fn wins(metric: &Metric, parent: &[f64], change: &[f64]) -> (usize, usize) {
    let better = |c: f64, p: f64| if metric.lower_is_better { c < p } else { c > p };
    let won = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let tied = parent.iter().zip(change).filter(|(p, c)| p == c).count();
    (won, tied)
}

/// A difference within the bound cannot be resolved when the parent's
/// own runs spread wider than the bound.
fn unresolved(metric: &Metric, parent: &[f64]) -> bool {
    iqr_share(parent) > metric.bound
}

/// One run of `bench_all` on `workload`: its result line and its report.
struct Run {
    metrics: Vec<f64>,
    attempted: f64,
    failed: f64,
    classes: Vec<(String, f64)>,
}

fn run_once(
    bin: &Path,
    metrics: &[Metric],
    flags: &[String],
    report: &Path,
) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(flags)
        .arg("--report")
        .arg(report)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {bin:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{bin:?} {} failed ({})",
            flags.join(" "),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = serde_json::parse_value(last).map_err(|e| format!("{bin:?}: last line: {e}"))?;
    let field = |v: &Value, key: &str| v.get(key).and_then(number);
    let values = metrics
        .iter()
        .map(|m| {
            line.get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| field(v, "value"))
                .ok_or_else(|| format!("{bin:?} reported no {}", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut classes = Vec::new();
    if let Some(Value::Seq(rows)) = read_json(report)?.get("classes") {
        for row in rows {
            if let (Some(Value::Str(class)), Some(p50)) = (row.get("class"), field(row, "p50_ms")) {
                classes.push((class.clone(), p50));
            }
        }
    }
    Ok(Run {
        metrics: values,
        attempted: field(&line, "attempted").unwrap_or(0.0),
        failed: field(&line, "failed").unwrap_or(0.0),
        classes,
    })
}

fn percent(x: f64) -> String {
    if x.is_finite() {
        format!("{:.1}%", 100.0 * x)
    } else {
        "inf".to_string()
    }
}

/// Options of the form `--name value`, in any order.
fn flag_values<'a>(args: &'a [String], names: &[&str]) -> Result<Vec<Option<&'a str>>, String> {
    let mut values = vec![None; names.len()];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let k = names
            .iter()
            .position(|n| n == arg)
            .ok_or_else(|| format!("unknown option {arg}\n{USAGE}"))?;
        values[k] = Some(
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .as_str(),
        );
    }
    Ok(values)
}

fn pairs(args: &[String]) -> Result<(), String> {
    let names = [
        "--parent",
        "--change",
        "--workload",
        "--n",
        "--seed",
        "--seconds",
    ];
    let v = flag_values(args, &names)?;
    let required = |k: usize| v[k].ok_or_else(|| format!("{} is required\n{USAGE}", names[k]));
    let (parent, change, workload) = (required(0)?, required(1)?, required(2)?);
    let n: usize = required(3)?
        .parse()
        .map_err(|_| "--n wants a whole number".to_string())?;
    let seed: u64 = v[4]
        .unwrap_or("2004")
        .parse()
        .map_err(|_| "--seed wants a whole number".to_string())?;
    let (metrics, run_seconds) = benchmark(&read_json(Path::new("BENCHMARK.json"))?)?;
    let seconds: f64 = match v[5] {
        Some(s) => s
            .parse()
            .map_err(|_| "--seconds wants a number".to_string())?,
        None => run_seconds,
    };
    if n == 0 {
        return Err("--n must be at least 1".to_string());
    }
    let flags: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
    ]
    .map(str::to_string)
    .to_vec();
    let dir = std::env::temp_dir().join(format!("trajectory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let bins = [PathBuf::from(parent), PathBuf::from(change)];
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let result = (|| {
        for pair in 0..n {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let report = dir.join(format!("{pair}-{side}.json"));
                runs[side].push(run_once(&bins[side], &metrics, &flags, &report)?);
            }
            eprintln!("trajectory: pair {} of {n} done", pair + 1);
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    println!(
        "trajectory pairs: {workload}, seed {seed}, {n} alternating pairs of {seconds} s runs\n  \
         parent {parent}\n  change {change}"
    );
    println!(
        "{:<22} {:>14} {:>14} {:>8} {:>11} {:>11} {:>8} {:>6}",
        "metric",
        "parent_median",
        "change_median",
        "change",
        "parent_iqr",
        "change_iqr",
        "wins",
        "bound"
    );
    for (k, m) in metrics.iter().enumerate() {
        let of = |side: usize| runs[side].iter().map(|r| r.metrics[k]).collect::<Vec<_>>();
        let (p, c) = (of(0), of(1));
        let (mp, mc) = (median(&p), median(&c));
        let (won, tied) = wins(m, &p, &c);
        let verdict = if unresolved(m, &p) {
            "  unresolved"
        } else {
            ""
        };
        let ties = if tied > 0 {
            format!(" ({tied} tied)")
        } else {
            String::new()
        };
        println!(
            "{:<22} {mp:>14.6} {mc:>14.6} {:>8} {:>11} {:>11} {:>8} {:>6}{ties}{verdict}",
            m.name,
            percent(mc / mp - 1.0),
            percent(iqr_share(&p)),
            percent(iqr_share(&c)),
            format!("{won}/{n}"),
            percent(m.bound),
        );
    }
    for (side, name) in [(0, "parent"), (1, "change")] {
        let attempted: f64 = runs[side].iter().map(|r| r.attempted).sum();
        let failed: f64 = runs[side].iter().map(|r| r.failed).sum();
        println!("{name}: {failed} of {attempted} operations failed");
    }
    println!(
        "{:<36} {:>14} {:>14} {:>8}",
        "operation class (median p50_ms)", "parent", "change", "speed-up"
    );
    let classes: Vec<String> = runs[0]
        .first()
        .map(|r| r.classes.iter().map(|c| c.0.clone()).collect())
        .unwrap_or_default();
    for class in classes {
        let of = |side: usize| {
            let p50s: Vec<f64> = runs[side]
                .iter()
                .filter_map(|r| r.classes.iter().find(|c| c.0 == class).map(|c| c.1))
                .collect();
            median(&p50s)
        };
        let (p, c) = (of(0), of(1));
        println!("{class:<36} {p:>14.4} {c:>14.4} {:>7.2}x", p / c);
    }
    Ok(())
}

/// The history lines of a full run's file, one per workload. `file`
/// names the run file: its host record's commit is the tree's `HEAD`,
/// which for a run of an uncommitted change is the parent.
fn history_lines(run: &Value, file: &str, unix_secs: u64) -> Result<Vec<String>, String> {
    let host = run.get("host").ok_or("the run file has no host record")?;
    let commit = host.get("commit").cloned().unwrap_or(Value::Null);
    let Some(Value::Map(workloads)) = run.get("workloads") else {
        return Err("the run file has no workloads".to_string());
    };
    workloads
        .iter()
        .map(|(name, entry)| {
            let Some(Value::Map(metrics)) = entry.get("end_to_end") else {
                return Err(format!("{name}: no end_to_end metrics"));
            };
            let values = metrics
                .iter()
                .map(|(metric, v)| {
                    let value = v.get("value").cloned().unwrap_or(Value::Null);
                    (metric.clone(), value)
                })
                .collect();
            let line = Value::Map(vec![
                ("unix_secs".to_string(), Value::UInt(unix_secs)),
                ("commit".to_string(), commit.clone()),
                ("file".to_string(), Value::Str(file.to_string())),
                ("bench".to_string(), Value::Str("bench_all".to_string())),
                ("workload".to_string(), Value::Str(name.clone())),
                ("host".to_string(), host.clone()),
                ("end_to_end".to_string(), Value::Map(values)),
                (
                    "failed_share".to_string(),
                    entry.get("failed_share").cloned().unwrap_or(Value::Null),
                ),
            ]);
            serde_json::to_string(&line).map_err(|e| e.to_string())
        })
        .collect()
}

fn append(args: &[String]) -> Result<(), String> {
    let (file, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    let v = flag_values(rest, &["--history"])?;
    let history = Path::new(v[0].unwrap_or("BENCH_history.jsonl"));
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let lines = history_lines(&read_json(Path::new(file))?, file, unix_secs)?;
    let old = match std::fs::read(history) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {history:?}: {e}")),
    };
    // the earlier lines stay as they are; a last line left unterminated
    // is ended first
    let mut text = String::new();
    if old.last().is_some_and(|&b| b != b'\n') {
        text.push('\n');
    }
    for line in &lines {
        text.push_str(line);
        text.push('\n');
    }
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(history)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot append to {history:?}: {e}"))?;
    println!("appended {} lines to {}", lines.len(), history.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pairs") => pairs(&args[1..]),
        Some("append") => append(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        // ranks 0.75 and 2.25 of 1, 2, 3, 4
        assert_eq!(quantile(&[4.0, 2.0, 1.0, 3.0], 0.25), 1.75);
        assert_eq!(quantile(&[4.0, 2.0, 1.0, 3.0], 0.75), 3.25);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0]), 1.5 / 2.5);
        assert_eq!(iqr_share(&[5.0; 6]), 0.0);
        assert_eq!(iqr_share(&[-1.0, 0.0, 0.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn wins_follow_the_direction_and_ties_win_nothing() {
        let (parent, change) = ([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 1.5]);
        assert_eq!(wins(&metric(true, 0.25), &parent, &change), (2, 1));
        assert_eq!(wins(&metric(false, 0.25), &parent, &change), (1, 1));
    }

    #[test]
    fn unresolved_when_the_parent_spreads_past_the_bound() {
        // IQR/median 0.15 against bounds of 0.25 and 0.1
        let parent = [0.9, 0.95, 1.0, 1.05, 1.1, 0.8, 1.2];
        assert!((iqr_share(&parent) - 0.15).abs() < 1e-12);
        assert!(!unresolved(&metric(true, 0.25), &parent));
        assert!(unresolved(&metric(true, 0.1), &parent));
        // a deterministic metric never is
        assert!(!unresolved(&metric(true, 0.01), &[3.0; 10]));
    }

    #[test]
    fn benchmark_json_is_read_as_declared() {
        let file =
            read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")).unwrap();
        let (metrics, seconds) = benchmark(&file).unwrap();
        assert_eq!(metrics.len(), 7);
        assert_eq!(seconds, 20.0);
        let ops = metrics.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert!(!ops.lower_is_better);
        assert_eq!(ops.bound, 0.25);
    }

    #[test]
    fn history_lines_carry_commit_and_metrics_per_workload() {
        let run = serde_json::parse_value(
            r#"{"host": {"commit": "abc1234", "seed": 2004},
                "workloads": {
                  "exec_sim": {"end_to_end": {"ops_per_s": {"value": 900.5, "unit": "1/s"}},
                               "failed_share": 0.0},
                  "synth_hit": {"end_to_end": {"setup_s": {"value": 1.0, "unit": "s"}},
                                "failed_share": 0.0}}}"#,
        )
        .unwrap();
        let lines = history_lines(&run, "run.json", 7).unwrap();
        assert_eq!(lines.len(), 2);
        let first = serde_json::parse_value(&lines[0]).unwrap();
        assert_eq!(
            first.get("commit"),
            Some(&Value::Str("abc1234".to_string()))
        );
        assert_eq!(
            first.get("workload"),
            Some(&Value::Str("exec_sim".to_string()))
        );
        assert_eq!(
            first
                .get("end_to_end")
                .and_then(|m| m.get("ops_per_s"))
                .and_then(number),
            Some(900.5)
        );
        assert_eq!(first.get("file"), Some(&Value::Str("run.json".to_string())));
        assert!(history_lines(&Value::Map(Vec::new()), "run.json", 7).is_err());
    }
}
