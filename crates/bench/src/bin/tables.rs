//! Regenerates every table of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p tce-bench --bin tables -- [all|table2|table3|table4|solver] [--fast]
//! ```
//!
//! `--fast` caps the uniform-sampling ladder at 4 points per index
//! (seconds instead of minutes) and only prints; omit it for the
//! paper-faithful full ladder. A full-ladder run prints markdown and
//! merges into `reports/tables.json`: it replaces the keys of the tables
//! it regenerated and keeps the others' rows.
//!
//! `solver` is the strategy decision table: DLM, CSA and CSA held to
//! DLM's eval count on every cell of `bench_all`'s P8 grid.

#[path = "bench_all/grid.rs"]
#[allow(dead_code)]
mod grid;

use serde::{Serialize, Value};
use std::fs;
use std::path::Path;
use tce_bench::*;
use tce_disksim::DiskProfile;
use tce_solver::{SolverReport, Strategy};

#[derive(Serialize, Default)]
struct Report {
    profile: Option<DiskProfile>,
    table2: Option<Vec<Table2Row>>,
    table3: Option<Vec<Table3Row>>,
    table4: Option<Vec<Table4Row>>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let mut report = Report {
        profile: Some(DiskProfile::itanium2_osc()),
        ..Report::default()
    };

    println!(
        "# Paper table reproduction ({} ladder)\n",
        if fast { "capped" } else { "full" }
    );
    println!("## Table 1 — modeled system (parameters of the disk simulator)\n");
    let prof = DiskProfile::itanium2_osc();
    println!("| Parameter | Value |\n|---|---|");
    println!("| seek + op overhead | {:.1} ms |", prof.seek_s * 1e3);
    println!(
        "| read bandwidth | {:.0} MB/s |",
        prof.read_bw / (1 << 20) as f64
    );
    println!(
        "| write bandwidth | {:.0} MB/s |",
        prof.write_bw / (1 << 20) as f64
    );
    println!(
        "| min read block | {} MB |",
        prof.min_read_block / (1 << 20)
    );
    println!(
        "| min write block | {} MB |\n",
        prof.min_write_block / (1 << 20)
    );

    if which == "all" || which == "table2" {
        println!("## Table 2 — code generation time (2 GB memory limit)\n");
        let rows = table2(fast);
        println!("{}", format_table2(&rows));
        report.table2 = Some(rows);
    }
    if which == "all" || which == "table3" {
        println!("## Table 3 — sequential disk I/O time, measured vs predicted\n");
        let rows = table3(fast);
        println!("{}", format_table3(&rows));
        report.table3 = Some(rows);
    }
    if which == "all" || which == "table4" {
        println!("## Table 4 — parallel disk I/O time (per-node 2 GB)\n");
        let rows = table4(fast, &PAPER_SIZES);
        println!("{}", format_table4(&rows));
        report.table4 = Some(rows);
    }
    if which == "ablation" {
        ablation_min_blocks();
    }
    if which == "blocksweep" {
        block_sweep_study();
    }
    if which == "solver" {
        solver_decision_table();
    }

    fs::create_dir_all("reports").expect("create reports dir");
    write_report(Path::new("reports/tables.json"), &report, fast);
}

/// One strategy's synthesis of one P8 cell: the plan's I/O in GB and the
/// solver report.
fn solver_run(
    spec: &grid::ProgramSpec,
    seed: u64,
    strategy: Strategy,
    budget: Option<u64>,
) -> (f64, SolverReport) {
    let mut config = spec.config(seed).strategy(strategy).telemetry(true);
    config.max_evals = budget;
    let (io_bytes, report) = match spec.parse().expect("P8 parses") {
        grid::Parsed::Dense(p) => {
            let r = tce_core::synthesize_dcs(&p, &config).expect("synthesis");
            (r.io_bytes, r.solver_report)
        }
        grid::Parsed::Network(dag) => {
            let r = tce_core::synthesize_network(&dag, &config).expect("synthesis");
            (r.io_bytes, r.solver_report)
        }
    };
    (io_bytes / 1e9, report.expect("telemetry on"))
}

/// `gb` to four significant digits, so the test-scale networks' few
/// kilobytes still show.
fn four_digits(gb: f64) -> String {
    if gb < 1e-3 {
        return format!("{gb:.3e}");
    }
    let decimals = (3 - gb.log10().floor() as i32).max(0) as usize;
    format!("{gb:.decimals$}")
}

/// `run`'s cells: its I/O, in bold when strictly below `rival_gb`, its
/// evals and how its winning restart or chain stopped.
fn solver_cells((gb, report): &(f64, SolverReport), rival_gb: f64) -> String {
    let io = four_digits(*gb);
    let io = if *gb < rival_gb {
        format!("**{io}**")
    } else {
        io
    };
    let stop = report.traces[report.winner].termination;
    format!("{io} | {} | {stop}", report.total_evals)
}

/// The DLM-vs-CSA decision table over the P8 grid × four solver seeds,
/// default options. Bold marks a strict win over the row's other
/// strategy: DLM against CSA, each CSA column against DLM.
fn solver_decision_table() {
    println!("## Solver strategies on the P8 grid (plan I/O in GB, evals, winner's stop)\n");
    println!(
        "| program | seed | DLM | evals | stop | CSA | evals | stop \
         | CSA at DLM's evals | evals | stop |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let programs = grid::p8();
    // [wins, ties, losses] against DLM
    let mut tally = [[0u32; 3]; 2];
    for cell in grid::cells(&programs) {
        let spec = &programs[cell.program];
        let dlm = solver_run(spec, cell.seed, Strategy::Dlm, None);
        let csa = solver_run(spec, cell.seed, Strategy::Csa, None);
        let held = solver_run(spec, cell.seed, Strategy::Csa, Some(dlm.1.total_evals));
        for (k, run) in [&csa, &held].into_iter().enumerate() {
            // Less, Equal, Greater as -1, 0, 1
            tally[k][(run.0.total_cmp(&dlm.0) as i8 + 1) as usize] += 1;
        }
        println!(
            "| {} | {} | {} | {} | {} |",
            spec.name,
            cell.seed,
            solver_cells(&dlm, csa.0),
            solver_cells(&csa, dlm.0),
            solver_cells(&held, dlm.0),
        );
    }
    println!();
    for (label, [wins, ties, losses]) in ["CSA", "CSA at DLM's evals"].into_iter().zip(tally) {
        println!("{label} against DLM: {wins} wins, {ties} ties, {losses} losses");
    }
    println!();
}

/// Ablation of the minimum-I/O-block constraints (the design choice the
/// paper motivates with its transposition tech report \[37\]): without
/// them, the optimizer may shave traffic using tiny buffers, but every
/// transfer pays a seek — the seek share of the predicted time explodes.
fn ablation_min_blocks() {
    use tce_core::prelude::*;
    use tce_ir::fixtures::four_index_fused;

    println!("## Ablation — minimum I/O block-size constraints vs time objective\n");
    println!("| Ranges | variant | traffic (GB) | ops | predicted (s) | seek share |\n|---|---|---|---|---|---|");
    for &(n, v) in &PAPER_SIZES {
        let p = four_index_fused(n, v);
        let variants: [(&str, bool, tce_core::ObjectiveKind); 3] = [
            (
                "volume + blocks (paper)",
                true,
                tce_core::ObjectiveKind::Volume,
            ),
            ("volume, no blocks", false, tce_core::ObjectiveKind::Volume),
            (
                "time objective, no blocks",
                false,
                tce_core::ObjectiveKind::Time,
            ),
        ];
        for (label, enforce, objective) in variants {
            let mut config = SynthesisConfig::new(NODE_MEM);
            config.enforce_min_blocks = enforce;
            config.objective = objective;
            let r = tce_core::synthesize_dcs(&p, &config).expect("synthesis");
            let seek_s = r.predicted.ops * config.profile.seek_s;
            println!(
                "| ({n},{v}) | {label} | {:.2} | {:.0} | {:.0} | {:.1}% |",
                r.io_bytes / 1e9,
                r.predicted.ops,
                r.predicted.total_s(),
                100.0 * seek_s / r.predicted.total_s()
            );
        }
    }
    println!();
}

/// The block-size study of tech report \[37\] (quoted in Sec. 4.2):
/// out-of-core transposition of a 2 GB matrix across tile sizes shows
/// where seek time stops mattering — the origin of the 2 MB / 1 MB
/// minimum-block constants.
fn block_sweep_study() {
    println!("## Block-size study (ref. [37]) — 16384² doubles, Table 1 disk\n");
    println!("| block (elems) | block (MB) | time (s) | seek share | bw fraction |\n|---|---|---|---|---|");
    let profile = DiskProfile::itanium2_osc();
    for row in tce_trans::block_size_sweep(
        &profile,
        1 << 14,
        &[32, 64, 128, 256, 512, 1024, 2048, 4096, 16384],
    ) {
        println!(
            "| {}² | {:.2} | {:.0} | {:.1}% | {:.2} |",
            row.block_elems,
            row.block_bytes as f64 / (1 << 20) as f64,
            row.time_s,
            row.seek_share * 100.0,
            row.bandwidth_fraction
        );
    }
    println!();
}

/// Merges `report` into the file at `path`. A `fast` run's rows come
/// from the capped ladder, which the file has no field to record, so
/// such a run writes nothing.
fn write_report(path: &Path, report: &Report, fast: bool) {
    if fast {
        println!("\ncapped ladder: {} left as it was", path.display());
        return;
    }
    let old = fs::read_to_string(path).unwrap_or_default();
    fs::write(path, merge_report(&old, report)).expect("write report");
    println!("\nreport written to {}", path.display());
}

/// `old` (the text of an earlier report, or anything else) with the keys
/// of `report` that a mode filled in replaced: a table that did not run
/// is `None` and keeps its old rows.
fn merge_report(old: &str, report: &Report) -> String {
    let mut merged = match serde_json::parse_value(old) {
        Ok(Value::Map(entries)) => entries,
        _ => Vec::new(),
    };
    if let Value::Map(new) = report.to_value() {
        for (key, value) in new.into_iter().filter(|(_, v)| *v != Value::Null) {
            match merged.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => entry.1 = value,
                None => merged.push((key, value)),
            }
        }
    }
    serde_json::to_string_pretty(&Value::Map(merged)).expect("serialize report")
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../reports/tables.json");

    fn report() -> Report {
        Report {
            profile: Some(DiskProfile::itanium2_osc()),
            ..Report::default()
        }
    }

    #[test]
    fn a_run_without_tables_leaves_the_report_byte_identical() {
        // what `tables -- blocksweep` and `tables -- ablation` write
        assert_eq!(merge_report(COMMITTED, &report()), COMMITTED);
    }

    #[test]
    fn a_fast_run_leaves_the_report_byte_identical() {
        let dir = std::env::temp_dir().join(format!("tce-tables-fast-{}", std::process::id()));
        let path = dir.join("tables.json");
        fs::create_dir_all(&dir).unwrap();
        fs::write(&path, COMMITTED).unwrap();
        let rows = Report {
            table3: Some(Vec::new()),
            ..report()
        };
        write_report(&path, &rows, true);
        let after = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(after, COMMITTED);
    }

    #[test]
    fn a_table3_run_replaces_only_the_table3_key() {
        let row = Table3Row {
            n: 1,
            v: 2,
            approach: Approach::Dcs,
            measured_secs: 3.5,
            predicted_secs: 4.25,
            io_bytes: 5e9,
        };
        let merged = merge_report(
            COMMITTED,
            &Report {
                table3: Some(vec![row]),
                ..report()
            },
        );
        let (old, new) = (
            serde_json::parse_value(COMMITTED).unwrap(),
            serde_json::parse_value(&merged).unwrap(),
        );
        let (Value::Map(old), Value::Map(new)) = (old, new) else {
            panic!("reports are maps");
        };
        assert_eq!(
            old.iter().map(|e| &e.0).collect::<Vec<_>>(),
            new.iter().map(|e| &e.0).collect::<Vec<_>>(),
            "the same keys in the same order"
        );
        for ((key, was), (_, now)) in old.iter().zip(&new) {
            if key == "table3" {
                assert_ne!(was, now);
                let Value::Seq(rows) = now else {
                    panic!("table3 is a list of rows");
                };
                assert_eq!(rows[0].get("n"), Some(&Value::UInt(1)));
            } else {
                assert_eq!(was, now, "{key}");
            }
        }
    }
}
