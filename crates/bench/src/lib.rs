//! Benchmark harness: regenerates every table of the paper's evaluation
//! (Sec. 5) on the simulated substrate.
//!
//! * Table 1 — the modeled system ([`tce_disksim::DiskProfile::itanium2_osc`]).
//! * Table 2 — code-generation time, uniform sampling vs DCS
//!   ([`table2`]).
//! * Table 3 — measured vs predicted sequential disk I/O time
//!   ([`table3`]).
//! * Table 4 — measured parallel disk I/O time on 2 and 4 processors
//!   ([`table4`]).
//!
//! The `tables` binary prints them in the paper's layout and writes a
//! JSON report. End-to-end and per-layer performance is measured by the
//! `bench_all` binary (see its README).

#![warn(missing_docs)]

use serde::Serialize;
use std::time::Instant;
use tce_core::prelude::*;
use tce_exec::{execute, ExecOptions};
use tce_ir::fixtures::four_index_fused;

/// Gibibyte.
pub const GB: u64 = 1 << 30;

/// The two problem sizes of Tables 2/3: `(N_pqrs, N_abcd)`.
pub const PAPER_SIZES: [(u64, u64); 2] = [(140, 120), (190, 180)];

/// Per-node memory limit of the paper's experiments (2 GB).
pub const NODE_MEM: u64 = 2 * GB;

/// Which synthesis pipeline a row refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Approach {
    /// Log-sampled brute force + greedy placement (Sec. 5 approach 1).
    UniformSampling,
    /// The paper's contribution (Sec. 5 approach 2).
    Dcs,
}

impl Approach {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Approach::UniformSampling => "Uniform Sampling",
            Approach::Dcs => "DCS",
        }
    }
}

/// Runs one synthesis with the given approach at paper scale.
///
/// `fast_baseline` caps the sampling ladder (`tables --fast`); the full
/// run uses the whole ladder like the paper.
pub fn synthesize(
    program: &tce_ir::Program,
    approach: Approach,
    mem_limit: u64,
    fast_baseline: bool,
) -> SynthesisResult {
    let config = SynthesisConfig::new(mem_limit);
    match approach {
        Approach::Dcs => synthesize_dcs(program, &config).expect("DCS synthesis"),
        Approach::UniformSampling => {
            let opts = BaselineOptions {
                config,
                samples_per_index: fast_baseline.then_some(4),
            };
            synthesize_uniform_sampling(program, &opts).expect("baseline synthesis")
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Row {
    /// `N_p..N_s`.
    pub n: u64,
    /// `N_a..N_d`.
    pub v: u64,
    /// Uniform-sampling code-generation time (seconds).
    pub uniform_secs: f64,
    /// DCS code-generation time (seconds).
    pub dcs_secs: f64,
}

/// Table 2: code-generation times for both approaches, both sizes,
/// 2 GB memory limit.
pub fn table2(fast: bool) -> Vec<Table2Row> {
    PAPER_SIZES
        .iter()
        .map(|&(n, v)| {
            let p = four_index_fused(n, v);
            let t0 = Instant::now();
            let _ = synthesize(&p, Approach::UniformSampling, NODE_MEM, fast);
            let uniform_secs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let _ = synthesize(&p, Approach::Dcs, NODE_MEM, fast);
            let dcs_secs = t0.elapsed().as_secs_f64();
            Table2Row {
                n,
                v,
                uniform_secs,
                dcs_secs,
            }
        })
        .collect()
}

/// One row of Table 3.
#[derive(Clone, Debug, Serialize)]
pub struct Table3Row {
    /// `N_p..N_s`.
    pub n: u64,
    /// `N_a..N_d`.
    pub v: u64,
    /// Approach of this row.
    pub approach: Approach,
    /// Measured sequential disk time (simulated seconds, dry run).
    pub measured_secs: f64,
    /// Predicted sequential disk time (cost model).
    pub predicted_secs: f64,
    /// Total traffic in bytes.
    pub io_bytes: f64,
}

/// Table 3: measured vs predicted sequential disk I/O times.
pub fn table3(fast: bool) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for &(n, v) in &PAPER_SIZES {
        let p = four_index_fused(n, v);
        for approach in [Approach::UniformSampling, Approach::Dcs] {
            let r = synthesize(&p, approach, NODE_MEM, fast);
            let rep = execute(&r.plan, &ExecOptions::dry_run()).expect("dry run");
            rows.push(Table3Row {
                n,
                v,
                approach,
                measured_secs: rep.elapsed_io_s,
                predicted_secs: r.predicted.total_s(),
                io_bytes: rep.total.total_bytes() as f64,
            });
        }
    }
    rows
}

/// One row of Table 4.
#[derive(Clone, Debug, Serialize)]
pub struct Table4Row {
    /// `N_p..N_s` (the paper only reports (140, 120); we add the larger
    /// size to exhibit the superlinear scaling more clearly).
    pub n: u64,
    /// `N_a..N_d`.
    pub v: u64,
    /// Processor count.
    pub nproc: usize,
    /// Total (aggregate) memory limit in bytes.
    pub total_mem: u64,
    /// Approach of this row.
    pub approach: Approach,
    /// Measured parallel disk time (simulated seconds; disks work
    /// concurrently, so this is the max per-disk time).
    pub measured_secs: f64,
    /// Total traffic across all disks, bytes.
    pub io_bytes: f64,
}

/// Table 4: measured parallel disk I/O times for 2 and 4 processors
/// (aggregate memory 4 GB and 8 GB — the doubled memory is what makes the
/// scaling superlinear).
pub fn table4(fast: bool, sizes: &[(u64, u64)]) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for &(n, v) in sizes {
        let p = four_index_fused(n, v);
        for nproc in [2usize, 4] {
            let total_mem = nproc as u64 * NODE_MEM;
            for approach in [Approach::UniformSampling, Approach::Dcs] {
                let r = synthesize(&p, approach, total_mem, fast);
                let rep =
                    execute(&r.plan, &ExecOptions::dry_run().with_nproc(nproc)).expect("dry run");
                rows.push(Table4Row {
                    n,
                    v,
                    nproc,
                    total_mem,
                    approach,
                    measured_secs: rep.elapsed_io_s,
                    io_bytes: rep.total.total_bytes() as f64,
                });
            }
        }
    }
    rows
}

/// Markdown rendering of Table 2 in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut s = String::from(
        "| Ranges (p,q,r,s) | Ranges (a,b,c,d) | Uniform Sampling codegen (s) | DCS codegen (s) | speedup |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {:.1} | {:.3} | {:.0}x |\n",
            r.n,
            r.v,
            r.uniform_secs,
            r.dcs_secs,
            r.uniform_secs / r.dcs_secs.max(1e-9)
        ));
    }
    s
}

/// Markdown rendering of Table 3.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut s = String::from(
        "| Ranges (p..s) | Ranges (a..d) | Approach | Measured (s) | Predicted (s) | I/O (GB) |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.0} | {:.0} | {:.2} |\n",
            r.n,
            r.v,
            r.approach.label(),
            r.measured_secs,
            r.predicted_secs,
            r.io_bytes / 1e9
        ));
    }
    s
}

/// Markdown rendering of Table 4.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut s = String::from(
        "| Ranges | Processors | Total memory | Approach | Measured (s) | I/O (GB) |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| ({},{}) | {} | {} GB | {} | {:.0} | {:.2} |\n",
            r.n,
            r.v,
            r.nproc,
            r.total_mem / GB,
            r.approach.label(),
            r.measured_secs,
            r.io_bytes / 1e9
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast variants of all three table pipelines produce sane shapes.
    /// (The full-ladder runs are exercised by the `tables` binary.)
    #[test]
    fn fast_table2_shape_holds() {
        let rows = table2(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // even the capped baseline is slower than DCS
            assert!(
                r.uniform_secs > r.dcs_secs,
                "uniform {} vs dcs {}",
                r.uniform_secs,
                r.dcs_secs
            );
        }
    }

    #[test]
    fn fast_table3_shape_holds() {
        let rows = table3(true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // measured within 25% of predicted (Table 3's point)
            let rel = (r.measured_secs - r.predicted_secs).abs() / r.predicted_secs;
            assert!(rel < 0.25, "{:?}: rel err {rel}", r.approach);
        }
        // DCS beats uniform sampling at each size
        for pair in rows.chunks(2) {
            let (us, dcs) = (&pair[0], &pair[1]);
            assert!(dcs.measured_secs <= us.measured_secs * 1.05);
        }
    }

    #[test]
    fn fast_table4_shape_holds() {
        let rows = table4(true, &[(140, 120)]);
        assert_eq!(rows.len(), 4);
        // 4 procs at least ~2x faster than 2 procs for each approach
        for approach in [Approach::UniformSampling, Approach::Dcs] {
            let two = rows
                .iter()
                .find(|r| r.nproc == 2 && r.approach == approach)
                .unwrap();
            let four = rows
                .iter()
                .find(|r| r.nproc == 4 && r.approach == approach)
                .unwrap();
            assert!(
                four.measured_secs <= two.measured_secs / 1.9,
                "{approach:?}: {} vs {}",
                two.measured_secs,
                four.measured_secs
            );
        }
    }

    #[test]
    fn formatting_contains_columns() {
        let t2 = format_table2(&table2(true));
        assert!(t2.contains("DCS codegen"));
        assert!(t2.lines().count() >= 4);
    }
}
