//! Regenerates every table of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p tce-bench --bin tables -- [all|table2|table3|table4] [--fast]
//! ```
//!
//! `--fast` caps the uniform-sampling ladder at 4 points per index
//! (seconds instead of minutes); omit it for the paper-faithful full
//! ladder. Results are printed as markdown and written to
//! `reports/tables.json`.

use serde::Serialize;
use std::fs;
use tce_bench::*;
use tce_disksim::DiskProfile;

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

    fs::create_dir_all("reports").expect("create reports dir");
    write_report(&report);
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

fn write_report(report: &Report) {
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    fs::write("reports/tables.json", json).expect("write report");
    println!("\nreport written to reports/tables.json");
}
