//! The fixed program grid **P8** × four solver seeds that `synth_cold`,
//! `synth_hit` and every workload's verification pass run over, and the
//! source-text → plan operation itself.
//!
//! The grid is a constant of the benchmark, not a function of `--seed`:
//! DLM's run time and the plan it finds both depend on the solver seed
//! (3–50 ms and 198–229 GB on `two_index_paper` alone), so a grid that
//! moved with `--seed` would move every timing and make the plan-quality
//! metrics useless as a 1% price check. `--seed` orders the requests.

use tce_core::{
    synthesize_dcs, synthesize_network, NetworkSynthesis, SynthesisConfig, SynthesisResult,
};
use tce_ir::fixtures::{four_index_fused, two_index_paper};
use tce_ir::{ContractionDag, NetworkGenConfig, Program};
use tce_opmin::SumOfProducts;

pub const GB: u64 = 1 << 30;

/// Solver seeds of the grid; 2004 is the pipeline's own default.
pub const SOLVER_SEEDS: [u64; 4] = [2004, 7, 42, 1234];

/// What a request carries before the front end has seen it.
pub enum Source {
    /// Dense DSL text for `parse_program`.
    Dsl(String),
    /// An operation-minimization input for `derive_program`.
    Sop(SumOfProducts),
    /// Network DSL text for `parse_network`.
    Network(String),
}

pub struct ProgramSpec {
    pub name: &'static str,
    pub source: Source,
    pub mem_limit: u64,
    pub test_scale: bool,
}

pub enum Parsed {
    Dense(Program),
    Network(ContractionDag),
}

pub enum Synth {
    Dense(Box<SynthesisResult>),
    Network(Box<NetworkSynthesis>),
}

impl Synth {
    pub fn io_bytes(&self) -> f64 {
        match self {
            Synth::Dense(r) => r.io_bytes,
            Synth::Network(r) => r.io_bytes,
        }
    }

    pub fn memory_bytes(&self) -> f64 {
        match self {
            Synth::Dense(r) => r.memory_bytes,
            Synth::Network(r) => r.memory_bytes,
        }
    }

    pub fn evals(&self) -> u64 {
        match self {
            Synth::Dense(r) => r.solver_evals,
            Synth::Network(r) => r.solver_evals,
        }
    }

    /// The plan as JSON: what "the same plan" means byte for byte.
    pub fn plan_json(&self) -> String {
        match self {
            Synth::Dense(r) => serde_json::to_string(&r.plan),
            Synth::Network(r) => serde_json::to_string(&r.plan),
        }
        .expect("plans serialize")
    }
}

impl ProgramSpec {
    pub fn source_bytes(&self) -> usize {
        match &self.source {
            Source::Dsl(text) | Source::Network(text) => text.len(),
            Source::Sop(_) => 0,
        }
    }

    pub fn config(&self, solver_seed: u64) -> SynthesisConfig {
        let config = if self.test_scale {
            SynthesisConfig::test_scale(self.mem_limit)
        } else {
            SynthesisConfig::new(self.mem_limit)
        };
        config.seed(solver_seed)
    }

    /// The `ir` (and for `Sop` sources, `opmin`) step of an operation.
    pub fn parse(&self) -> Result<Parsed, String> {
        match &self.source {
            Source::Dsl(text) => tce_ir::parse_program(text)
                .map(Parsed::Dense)
                .map_err(|e| format!("{}: {e}", self.name)),
            Source::Sop(sop) => Ok(Parsed::Dense(tce_opmin::derive_program(sop))),
            Source::Network(text) => tce_ir::parse_network(text)
                .map(Parsed::Network)
                .map_err(|e| format!("{}: {e}", self.name)),
        }
    }

    /// One cold operation: source → plan, nothing cached.
    pub fn synthesize(&self, solver_seed: u64) -> Result<Synth, String> {
        let config = self.config(solver_seed);
        match self.parse()? {
            Parsed::Dense(p) => synthesize_dcs(&p, &config).map(|r| Synth::Dense(Box::new(r))),
            Parsed::Network(dag) => {
                synthesize_network(&dag, &config).map(|r| Synth::Network(Box::new(r)))
            }
        }
        .map_err(|e| format!("{} seed {solver_seed}: {e}", self.name))
    }
}

/// A generated test-scale network: the soak's extents, so the oracle run
/// in the verification pass stays in the millisecond range.
pub fn gen_network_dsl(seed: u64, nodes: usize) -> String {
    tce_ir::to_network_dsl(&tce_ir::gen_network(&NetworkGenConfig {
        seed,
        nodes,
        min_extent: 8,
        max_extent: 20,
        ..NetworkGenConfig::default()
    }))
}

fn dense(name: &'static str, program: &Program, mem_limit: u64) -> ProgramSpec {
    ProgramSpec {
        name,
        source: Source::Dsl(tce_ir::to_dsl(program)),
        mem_limit,
        test_scale: false,
    }
}

fn derived(name: &'static str, sop: SumOfProducts) -> ProgramSpec {
    ProgramSpec {
        name,
        source: Source::Sop(sop),
        mem_limit: 2 * GB,
        test_scale: false,
    }
}

fn network(name: &'static str, gen_seed: u64, nodes: usize) -> ProgramSpec {
    ProgramSpec {
        name,
        source: Source::Network(gen_network_dsl(gen_seed, nodes)),
        mem_limit: 64 * 1024,
        test_scale: true,
    }
}

/// P8: the paper's two transforms at Table 2/3 scale, three
/// coupled-cluster terms that enter through `opmin`, two sparse networks.
pub fn p8() -> Vec<ProgramSpec> {
    vec![
        dense("two_index_paper", &two_index_paper(), GB),
        dense("four_index_140_120", &four_index_fused(140, 120), 2 * GB),
        dense("four_index_190_180", &four_index_fused(190, 180), 2 * GB),
        derived(
            "ccsd_doubles_40_80",
            tce_opmin::ccsd_doubles_quadratic(40, 80),
        ),
        derived(
            "triples_residual_20_60",
            tce_opmin::triples_residual(20, 60),
        ),
        derived("ccsd_ring_40_80", tce_opmin::ccsd_ring(40, 80)),
        network("network_3", 11, 3),
        network("network_4", 12, 4),
    ]
}

/// One (program, solver seed) cell of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub program: usize,
    pub seed: u64,
}

pub fn cells(programs: &[ProgramSpec]) -> Vec<Cell> {
    (0..programs.len())
        .flat_map(|program| SOLVER_SEEDS.map(|seed| Cell { program, seed }))
        .collect()
}

pub fn cell_names(programs: &[ProgramSpec]) -> Vec<String> {
    cells(programs)
        .iter()
        .map(|c| format!("{}/s{}", programs[c.program].name, c.seed))
        .collect()
}
