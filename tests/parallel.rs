//! Parallel-substrate integration: GA/DRA collective semantics across the
//! whole pipeline, and the Table 4 scaling shape.

use std::collections::HashMap;
use tce_exec::interp::default_input_gen;
use tce_exec::{dense_reference, execute, ExecOptions};
use tce_ooc::core::prelude::*;
use tce_ooc::disksim::{DiskFaultKind, DiskFaults, FaultPlan, Schedule};
use tce_ooc::ir::fixtures::{four_index_fused, two_index_fused, two_index_paper};

#[test]
fn outputs_identical_across_process_counts() {
    // every dst element has one owner rank that updates it in the
    // sequential order, so the outputs are bit-identical at any nproc
    for p in [two_index_fused(48, 40), four_index_fused(12, 10)] {
        let r = synthesize_dcs(&p, &SynthesisConfig::test_scale(32 * 1024)).expect("synthesis");
        let want = dense_reference(&p, default_input_gen);
        let mut baseline: Option<HashMap<String, Vec<f64>>> = None;
        for nproc in [1usize, 2, 3, 4] {
            let rep = execute(&r.plan, &ExecOptions::full_test().with_nproc(nproc))
                .unwrap_or_else(|e| panic!("nproc {nproc}: {e}"));
            let got = &rep.outputs["B"];
            for (k, (g, w)) in got.iter().zip(&want["B"]).enumerate() {
                assert!(
                    (g - w).abs() < 1e-6 * (1.0 + w.abs()),
                    "nproc {nproc}, B[{k}]: {g} vs {w}"
                );
            }
            let Some(base) = &baseline else {
                baseline = Some(rep.outputs);
                continue;
            };
            assert_eq!(rep.outputs.len(), base.len());
            for (name, got) in &rep.outputs {
                assert_eq!(got.len(), base[name].len());
                for (k, (g, b)) in got.iter().zip(&base[name]).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        b.to_bits(),
                        "nproc {nproc}, {name}[{k}] differs bitwise from nproc 1"
                    );
                }
            }
        }
    }
}

#[test]
fn collective_io_conserves_bytes_and_splits_time() {
    let p = two_index_fused(48, 40);
    let r = synthesize_dcs(&p, &SynthesisConfig::test_scale(32 * 1024)).expect("synthesis");
    let seq = execute(&r.plan, &ExecOptions::full_test()).expect("seq");
    let par = execute(&r.plan, &ExecOptions::full_test().with_nproc(4)).expect("par");
    // total bytes identical — the work is split, not duplicated
    assert_eq!(seq.total.total_bytes(), par.total.total_bytes());
    // four concurrent disks: elapsed drops. At this tiny scale the
    // per-operation seek cost dominates and does not shrink with more
    // disks, so only the transfer component is required to split 4 ways.
    assert!(par.elapsed_io_s < seq.elapsed_io_s);
    let seek = seq.per_rank[0].total_ops() as f64 * DiskProfile::unconstrained_test().seek_s;
    let seq_transfer = seq.elapsed_io_s - seek;
    let par_transfer = par.elapsed_io_s - seek; // same op count per rank
    assert!(
        par_transfer <= seq_transfer / 4.0 + 1e-9,
        "transfer time did not split: {par_transfer} vs {seq_transfer}"
    );
    // per-rank accounting balances to within one element per op
    let per = &par.per_rank;
    assert_eq!(per.len(), 4);
    let max = per.iter().map(|s| s.read_bytes).max().unwrap();
    let min = per.iter().map(|s| s.read_bytes).min().unwrap();
    assert!(
        max - min <= 8 * par.total.read_ops,
        "rank imbalance: {min}..{max}"
    );
}

#[test]
fn paper_dry_runs_book_like_armed_silent_ones() {
    // an unarmed dry run books every transfer in one call; one whose
    // disks all carry a fault trigger that never fires charges rank by
    // rank. Both must leave the same bits on every disk.
    let silent = DiskFaults {
        schedule: Schedule::none().fail_after(1 << 40, DiskFaultKind::Permanent, 1),
        ..DiskFaults::default()
    };
    let gb = 1u64 << 30;
    for (name, p, mem) in [
        ("two_index_paper", two_index_paper(), gb),
        ("four_index_140_120", four_index_fused(140, 120), 2 * gb),
        ("four_index_190_180", four_index_fused(190, 180), 2 * gb),
    ] {
        let r = synthesize_dcs(&p, &SynthesisConfig::new(mem)).expect("synthesis");
        for nproc in 1..=3 {
            let faults = (0..nproc).fold(FaultPlan::none(), |f, rank| {
                f.with_disk(rank, silent.clone())
            });
            let opts = ExecOptions::dry_run().with_nproc(nproc);
            let booked = execute(&r.plan, &opts).expect("unarmed");
            let charged = execute(&r.plan, &opts.with_faults(faults)).expect("armed");
            assert_eq!(booked.per_rank, charged.per_rank, "{name} at nproc {nproc}");
            assert_eq!(
                booked.elapsed_io_s.to_bits(),
                charged.elapsed_io_s.to_bits(),
                "{name} at nproc {nproc}"
            );
        }
    }
}

/// A paper-scale config with a reduced solver budget so the dev-profile
/// test run stays fast; quality is more than enough for the qualitative
/// shape assertions below.
fn quick_paper_config(mem: u64) -> SynthesisConfig {
    let mut config = SynthesisConfig::new(mem);
    config.dlm = Some(tce_ooc::solver::DlmOptions {
        restarts: 3,
        max_evals: 600_000,
        ..tce_ooc::solver::DlmOptions::new(config.seed)
    });
    config
}

#[test]
fn table4_shape_doubling_processors_superlinear_when_memory_bound() {
    // paper-scale dry run: with per-node 2 GB, going 2 -> 4 processors
    // doubles the disks *and* the aggregate memory; when the 2-processor
    // solution is still memory-starved, the speedup exceeds 2x
    let p = four_index_fused(190, 180);
    let per_node = 2u64 << 30;
    let mut times = Vec::new();
    for nproc in [2usize, 4] {
        let r =
            synthesize_dcs(&p, &quick_paper_config(nproc as u64 * per_node)).expect("synthesis");
        let rep = execute(&r.plan, &ExecOptions::dry_run().with_nproc(nproc)).expect("dry");
        times.push(rep.elapsed_io_s);
    }
    let speedup = times[0] / times[1];
    assert!(
        speedup > 2.0,
        "2->4 processor speedup {speedup} not superlinear ({times:?})"
    );
}

#[test]
fn aggregate_memory_reduces_total_traffic() {
    // the same instance synthesized against 1x vs 4x node memory must
    // move fewer bytes in total — the mechanism behind Table 4
    let p = four_index_fused(140, 120);
    let per_node = 2u64 << 30;
    let one = synthesize_dcs(&p, &quick_paper_config(per_node)).expect("1 node");
    let four = synthesize_dcs(&p, &quick_paper_config(4 * per_node)).expect("4 nodes");
    assert!(
        four.io_bytes < one.io_bytes,
        "4-node traffic {} not below 1-node {}",
        four.io_bytes,
        one.io_bytes
    );
}
