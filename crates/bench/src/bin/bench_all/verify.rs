//! The verification pass every workload runs inside its set-up: it
//! synthesizes the whole grid through the plain library path, checks each
//! plan against facts that do not come from the path under test, and
//! yields the plan-quality numbers and deterministic counts of the run.

use crate::grid::{cells, Parsed, ProgramSpec, Synth};
use crate::stats::geomean;
use std::collections::HashMap;
use tce_core::{seeded_network_inputs, verify_network_plan, SynthesisConfig};
use tce_exec::{dense_reference, execute, ExecOptions, ExecReport};
use tce_ir::fixtures::{four_index_fused, two_index_fused};
use tce_ir::{ArrayKind, Program};

/// Largest |plan − reference| a full execution may show.
pub const NUMERIC_TOL: f64 = 1e-6;

/// Table 3's claim: predicted and simulated disk time agree this closely.
const PREDICTION_TOL: f64 = 0.10;

/// Memory limit of the test-scale plans that run with real numbers.
pub const TEST_SCALE_MEM: u64 = 64 * 1024;

/// What the library path produced for one grid cell; the reference that
/// cached and daemon results are compared with.
pub struct CellFacts {
    pub io_bits: u64,
    pub plan_json: String,
}

/// Plan quality and the counts that must repeat bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Quality {
    /// Geomean over the grid of the plans' predicted I/O volume.
    pub plan_io_geomean_gb: f64,
    /// Geomean over the dense cells of the dry-run simulated disk time.
    pub plan_sim_io_geomean_s: f64,
    pub solver_evals: u64,
    pub placement_candidates: u64,
    pub dry_run_io_ops: u64,
    pub dry_run_io_bytes: u64,
}

pub struct Baseline {
    pub cells: Vec<CellFacts>,
    pub quality: Quality,
}

/// The two test-scale programs that are executed with real data.
pub fn test_scale_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("two_index_64_48", two_index_fused(64, 48)),
        ("four_index_12_10", four_index_fused(12, 10)),
    ]
}

/// Largest absolute difference between a full run's outputs and the dense
/// reference arrays of the same program.
pub fn max_abs_err(
    report: &ExecReport,
    reference: &HashMap<String, Vec<f64>>,
) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (name, got) in &report.outputs {
        let want = reference
            .get(name)
            .filter(|w| w.len() == got.len())
            .ok_or_else(|| format!("output `{name}` has no reference of its length"))?;
        for (g, w) in got.iter().zip(want) {
            worst = worst.max((g - w).abs());
        }
    }
    if report.outputs.is_empty() {
        return Err("full run produced no outputs".to_string());
    }
    Ok(worst)
}

/// Placements the solver chooses among: every read and write candidate,
/// and for an intermediate its in-memory option beside them.
pub fn placement_candidates(space: &tce_tile::SynthesisSpace) -> u64 {
    let of_arrays: usize = space
        .reads
        .iter()
        .chain(&space.writes)
        .map(|set| set.candidates.len())
        .sum();
    let of_intermediates: usize = space
        .intermediates
        .iter()
        .map(|i| 1 + i.write.candidates.len() + i.read.candidates.len())
        .sum();
    (of_arrays + of_intermediates) as u64
}

fn check_dense(
    spec: &ProgramSpec,
    program: &Program,
    synth: &Synth,
    quality: &mut Quality,
    sims: &mut Vec<f64>,
) -> Result<(), String> {
    let Synth::Dense(r) = synth else {
        unreachable!("dense source synthesized as a network")
    };
    // no plan can move less than its inputs once in and its outputs once out
    let compulsory: u64 = program
        .arrays()
        .iter()
        .filter(|a| a.kind() != ArrayKind::Intermediate)
        .map(|a| a.size_bytes(program.ranges()))
        .sum();
    if r.io_bytes < compulsory as f64 {
        return Err(format!(
            "{}: io_bytes {} below the compulsory traffic {compulsory}",
            spec.name, r.io_bytes
        ));
    }
    let dry = execute(&r.plan, &ExecOptions::dry_run())
        .map_err(|e| format!("{}: dry run: {e}", spec.name))?;
    let predicted = r.predicted.total_s();
    if (dry.elapsed_io_s - predicted).abs() > PREDICTION_TOL * predicted {
        return Err(format!(
            "{}: simulated disk time {} vs predicted {predicted}",
            spec.name, dry.elapsed_io_s
        ));
    }
    sims.push(dry.elapsed_io_s);
    quality.dry_run_io_ops += dry.total.total_ops();
    quality.dry_run_io_bytes += dry.total.total_bytes();
    quality.placement_candidates += placement_candidates(&r.space);
    Ok(())
}

/// Synthesizes and checks every cell of the grid plus the test-scale
/// programs. An `Err` fails the run.
pub fn verification_pass(programs: &[ProgramSpec]) -> Result<Baseline, String> {
    let mut quality = Quality {
        plan_io_geomean_gb: 0.0,
        plan_sim_io_geomean_s: 0.0,
        solver_evals: 0,
        placement_candidates: 0,
        dry_run_io_ops: 0,
        dry_run_io_bytes: 0,
    };
    let (mut ios, mut sims) = (Vec::new(), Vec::new());
    let mut facts = Vec::new();
    for cell in cells(programs) {
        let spec = &programs[cell.program];
        let synth = spec.synthesize(cell.seed)?;
        if synth.memory_bytes() > spec.mem_limit as f64 + 1e-6 {
            return Err(format!(
                "{} seed {}: memory {} exceeds the limit {}",
                spec.name,
                cell.seed,
                synth.memory_bytes(),
                spec.mem_limit
            ));
        }
        match (spec.parse()?, &synth) {
            (Parsed::Dense(program), _) => {
                check_dense(spec, &program, &synth, &mut quality, &mut sims)?
            }
            (Parsed::Network(dag), Synth::Network(r)) => {
                let inputs = seeded_network_inputs(&dag, cell.seed);
                verify_network_plan(&dag, &r.plan, &inputs, NUMERIC_TOL)
                    .map_err(|e| format!("{} seed {}: {e}", spec.name, cell.seed))?;
            }
            (Parsed::Network(_), Synth::Dense(_)) => unreachable!("network synthesized as dense"),
        }
        ios.push(synth.io_bytes() / 1e9);
        quality.solver_evals += synth.evals();
        facts.push(CellFacts {
            io_bits: synth.io_bytes().to_bits(),
            plan_json: synth.plan_json(),
        });
    }
    for (name, program) in test_scale_programs() {
        let r = tce_core::synthesize_dcs(&program, &SynthesisConfig::test_scale(TEST_SCALE_MEM))
            .map_err(|e| format!("{name}: {e}"))?;
        let run =
            execute(&r.plan, &ExecOptions::full_test()).map_err(|e| format!("{name}: {e}"))?;
        let reference = dense_reference(&program, tce_exec::interp::default_input_gen);
        let err = max_abs_err(&run, &reference).map_err(|e| format!("{name}: {e}"))?;
        if err > NUMERIC_TOL {
            return Err(format!("{name}: max |plan - reference| = {err:e}"));
        }
    }
    quality.plan_io_geomean_gb = geomean(&ios);
    quality.plan_sim_io_geomean_s = geomean(&sims);
    Ok(Baseline {
        cells: facts,
        quality,
    })
}
