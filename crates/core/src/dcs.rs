//! The DCS-based synthesis pipeline (Sec. 4).

use crate::model::{build_model_with, decode_point, DcsModel, ObjectiveKind};
use crate::predict::{predict_io_time, PredictedTime};
use std::fmt;
use std::time::{Duration, Instant};
use tce_codegen::{generate_plan, ConcretePlan};
use tce_cost::TileAssignment;
use tce_disksim::DiskProfile;
use tce_ir::Program;
use tce_solver::{CancelToken, DlmOptions, SolveOptions, SolverReport, Strategy};
use tce_tile::{
    enumerate_placements, tile_program, PlacementError, PlacementSelection, SynthesisSpace,
    TiledProgram,
};

/// Configuration of a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthesisConfig {
    /// Memory limit in bytes (per node; multiply by the processor count
    /// for parallel runs — GA aggregates the memory).
    pub mem_limit: u64,
    /// Disk model: bandwidths for prediction, minimum block sizes for the
    /// buffer-size constraints.
    pub profile: DiskProfile,
    /// Enforce the minimum-I/O-block constraints (disable at test scale,
    /// where no buffer can reach 2 MB).
    pub enforce_min_blocks: bool,
    /// Solver strategy (DLM by default).
    pub strategy: Strategy,
    /// Solver seed.
    pub seed: u64,
    /// DLM option overrides.
    pub dlm: Option<DlmOptions>,
    /// Wall-clock deadline for the solver phase (DLM and CSA honor it at
    /// segment boundaries; brute force ignores it).
    pub deadline: Option<Duration>,
    /// Global solver evaluation budget (see
    /// [`SolveOptions::max_evals`]).
    pub max_evals: Option<u64>,
    /// Solver worker threads (`0` = all cores): the pool that runs the
    /// DLM restarts (see [`SolveOptions::threads`]). The plan does not
    /// depend on it.
    pub threads: usize,
    /// Collect per-restart solver telemetry into
    /// [`SynthesisResult::solver_report`].
    pub telemetry: bool,
    /// What the solver minimizes: the paper's byte-volume objective or
    /// the predicted-time extension (see [`ObjectiveKind`]).
    pub objective: ObjectiveKind,
    /// Cooperative cancellation handle for the solver phase, polled at the
    /// same segment boundaries as [`SynthesisConfig::deadline`].
    /// Unlike the deadline this is *not* part of the request identity
    /// (`tce-cache` excludes it from the config digest): it lets an
    /// embedder impose a job-level timeout without changing which cache
    /// entry the request maps to. A trip surfaces as
    /// [`SynthesisError::Canceled`] and nothing is cached.
    pub cancel: Option<CancelToken>,
}

impl SynthesisConfig {
    /// Paper-scale defaults: Itanium-2 disk profile, block constraints on.
    pub fn new(mem_limit: u64) -> Self {
        SynthesisConfig {
            mem_limit,
            profile: DiskProfile::itanium2_osc(),
            enforce_min_blocks: true,
            strategy: Strategy::Dlm,
            seed: 2004,
            dlm: None,
            deadline: None,
            max_evals: None,
            threads: 0,
            telemetry: false,
            objective: ObjectiveKind::Volume,
            cancel: None,
        }
    }

    /// Test-scale defaults: unconstrained profile, block constraints off.
    pub fn test_scale(mem_limit: u64) -> Self {
        SynthesisConfig {
            profile: DiskProfile::unconstrained_test(),
            enforce_min_blocks: false,
            ..SynthesisConfig::new(mem_limit)
        }
    }

    /// Sets the solver strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the solver seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a wall-clock deadline for the solver phase.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the solver's total objective evaluations.
    pub fn budget(mut self, max_evals: u64) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Sets the solver thread count (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables solver telemetry collection.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Overrides the DLM options.
    pub fn dlm_options(mut self, dlm: DlmOptions) -> Self {
        self.dlm = Some(dlm);
        self
    }

    /// Sets the solver objective.
    pub fn objective(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
        self
    }

    /// Attaches a cooperative cancellation token for the solver phase.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The [`SolveOptions`] this configuration hands to `tce_solver`.
    pub fn solve_options(&self) -> SolveOptions {
        let mut opts = SolveOptions::new(self.seed)
            .strategy(self.strategy)
            .threads(self.threads)
            .telemetry(self.telemetry);
        if let Some(deadline) = self.deadline {
            opts = opts.deadline(deadline);
        }
        if let Some(budget) = self.max_evals {
            opts = opts.max_evals(budget);
        }
        if let Some(dlm) = &self.dlm {
            opts = opts.dlm(dlm.clone());
        }
        if let Some(token) = &self.cancel {
            opts = opts.cancel(token.clone());
        }
        opts
    }
}

/// Synthesis failure.
#[derive(Clone, Debug)]
pub enum SynthesisError {
    /// Placement enumeration failed (memory limit below any legal buffer).
    Placement(PlacementError),
    /// The solver found no feasible point (limit too tight for the block
    /// constraints, or budget exhausted).
    Infeasible,
    /// The solve was stopped by a [`SynthesisConfig::cancel`] token before
    /// a trustworthy outcome existed; whatever partial result the solver
    /// held was discarded, not cached.
    Canceled {
        /// True when the token's embedded wall-clock deadline fired (a job
        /// timeout) rather than an explicit cancellation.
        deadline_exceeded: bool,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Placement(e) => write!(f, "placement enumeration failed: {e}"),
            SynthesisError::Infeasible => f.write_str("no feasible solution found"),
            SynthesisError::Canceled {
                deadline_exceeded: true,
            } => f.write_str("job deadline exceeded"),
            SynthesisError::Canceled {
                deadline_exceeded: false,
            } => f.write_str("synthesis canceled"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<PlacementError> for SynthesisError {
    fn from(e: PlacementError) -> Self {
        SynthesisError::Placement(e)
    }
}

/// Result of a synthesis run (either pipeline).
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// Executable/printable concrete plan.
    pub plan: ConcretePlan,
    /// Chosen tile sizes.
    pub tiles: TileAssignment,
    /// Chosen placements.
    pub selection: PlacementSelection,
    /// The candidate space the choice was made over.
    pub space: SynthesisSpace,
    /// The tiled program.
    pub tiled: TiledProgram,
    /// Optimized disk traffic in bytes.
    pub io_bytes: f64,
    /// Total buffer memory in bytes.
    pub memory_bytes: f64,
    /// Predicted sequential disk time under the config's profile.
    pub predicted: PredictedTime,
    /// Objective evaluations the optimizer performed.
    pub solver_evals: u64,
    /// Wall-clock code-generation time (the quantity of Table 2).
    pub codegen_time: Duration,
    /// The lowered DCS model (for AMPL export and inspection); `None`
    /// for the uniform-sampling baseline.
    pub dcs_model: Option<DcsModel>,
    /// Per-restart solver telemetry; `Some` iff
    /// [`SynthesisConfig::telemetry`] was enabled (always `None` for the
    /// uniform-sampling baseline, which does not run the solver).
    pub solver_report: Option<SolverReport>,
}

impl SynthesisResult {
    /// The model in AMPL syntax (Sec. 4.2's input format), when the DCS
    /// pipeline produced this result.
    pub fn ampl(&self) -> Option<String> {
        self.dcs_model
            .as_ref()
            .map(|m| tce_solver::ampl::to_ampl(&m.model))
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_result(
    tiled: TiledProgram,
    space: SynthesisSpace,
    tiles: TileAssignment,
    selection: PlacementSelection,
    profile: &DiskProfile,
    solver_evals: u64,
    started: Instant,
    dcs_model: Option<DcsModel>,
    solver_report: Option<SolverReport>,
) -> SynthesisResult {
    let ranges = tiled.base().ranges().clone();
    let tiles = tiles.clamped(&ranges);
    let io_bytes = space.total_io(&selection).eval(&ranges, &tiles);
    let memory_bytes = space.total_memory(&selection).eval(&ranges, &tiles);
    let predicted = predict_io_time(&space, &selection, &ranges, &tiles, profile);
    let plan = generate_plan(&tiled, &space, &selection, &tiles);
    SynthesisResult {
        plan,
        tiles,
        selection,
        space,
        tiled,
        io_bytes,
        memory_bytes,
        predicted,
        solver_evals,
        codegen_time: started.elapsed(),
        dcs_model,
        solver_report,
    }
}

/// The smallest tile the spatial-locality adjustment leaves, memory
/// permitting, on an index that scans the fastest-varying dimension of a
/// disk-resident array: one cache line of doubles (Sec. 3 / ref. \[10\]).
pub const SPATIAL_MIN_TILE: u64 = 8;

/// The spatial-locality adjustment of the TCE's memory-to-cache work
/// (Sec. 3): after solving, raise the tile of every index that scans the
/// fastest-varying dimension of a disk-resident buffer to at least
/// [`SPATIAL_MIN_TILE`] elements, as long as the memory limit still
/// holds. Larger tiles never increase the I/O volume (the redundancy
/// factors are non-increasing in tile size) and only enlarge buffers, so
/// block-size constraints stay satisfied too.
pub(crate) fn spatial_adjust(
    space: &SynthesisSpace,
    ranges: &tce_ir::RangeMap,
    tiles: &mut TileAssignment,
    selection: &PlacementSelection,
    mem_limit: u64,
) {
    // indices scanning the last (fastest-varying) dimension of any
    // disk-resident buffer in the selection
    let mut fastest: Vec<tce_ir::Index> = Vec::new();
    let mut note = |buffer: &tce_cost::BufferShape| {
        if let Some((idx, _)) = buffer.dims().last() {
            if !fastest.contains(idx) {
                fastest.push(idx.clone());
            }
        }
    };
    for (set, &k) in space.reads.iter().zip(&selection.reads) {
        note(&set.candidates[k].buffer);
    }
    for (set, &k) in space.writes.iter().zip(&selection.writes) {
        note(&set.candidates[k].buffer);
    }
    for (opt, choice) in space.intermediates.iter().zip(&selection.intermediates) {
        if let tce_tile::IntermediateChoice::OnDisk { write, read } = choice {
            note(&opt.write.candidates[*write].buffer);
            note(&opt.read.candidates[*read].buffer);
        }
    }
    for idx in fastest {
        let n = ranges.extent(&idx);
        let cur = tiles.get(&idx);
        let want = SPATIAL_MIN_TILE.min(n);
        if cur >= want {
            continue;
        }
        tiles.set(idx.clone(), want);
        let mem = space.total_memory(selection).eval(ranges, tiles);
        if mem > mem_limit as f64 {
            tiles.set(idx, cur); // does not fit: revert
        }
    }
}

/// Everything the DCS pipeline computes *before* the solver runs: the
/// tiled program, the placement space and the lowered nonlinear model.
///
/// Produced by [`prepare_dcs`] and consumed by [`finish_dcs`]. The split
/// exists so embedders (notably the synthesis cache) can fingerprint the
/// model and decide whether to run the solver at all; a cache hit replays
/// a stored solution through [`finish_dcs`] and skips only the solve.
#[derive(Debug)]
pub struct PreparedSynthesis {
    /// The tiled program.
    pub tiled: TiledProgram,
    /// The enumerated placement space.
    pub space: SynthesisSpace,
    /// The lowered DCS model (`dcs.model` is what the solver sees).
    pub dcs: DcsModel,
    started: Instant,
}

/// Tiles the program, enumerates placements and lowers the nonlinear
/// model — the solver-independent front half of [`synthesize_dcs`].
pub fn prepare_dcs(
    program: &Program,
    config: &SynthesisConfig,
) -> Result<PreparedSynthesis, SynthesisError> {
    let started = Instant::now();
    let tiled = tile_program(program);
    let space = enumerate_placements(&tiled, config.mem_limit)?;
    let dcs = build_model_with(
        &space,
        program.ranges(),
        config.profile.min_read_block,
        config.profile.min_write_block,
        config.enforce_min_blocks,
        config.objective,
        &config.profile,
    );
    Ok(PreparedSynthesis {
        tiled,
        space,
        dcs,
        started,
    })
}

/// Decodes a solver outcome into tiles/placements, applies the spatial
/// adjustment and generates the concrete plan — the back half of
/// [`synthesize_dcs`].
///
/// `outcome` may come from a live solve of `prepared.dcs.model` or from a
/// cache replay; either way its point must index that model's variables.
/// Returns [`SynthesisError::Infeasible`] when the outcome's solution is
/// marked infeasible.
pub fn finish_dcs(
    prepared: PreparedSynthesis,
    config: &SynthesisConfig,
    outcome: tce_solver::SolveOutcome,
) -> Result<SynthesisResult, SynthesisError> {
    let PreparedSynthesis {
        tiled,
        space,
        dcs,
        started,
    } = prepared;
    let solution = outcome.solution;
    if !solution.feasible {
        return Err(SynthesisError::Infeasible);
    }
    let ranges = tiled.base().ranges().clone();
    let (mut tiles, selection) = decode_point(&dcs, &solution.point);
    spatial_adjust(&space, &ranges, &mut tiles, &selection, config.mem_limit);
    Ok(assemble_result(
        tiled,
        space,
        tiles,
        selection,
        &config.profile,
        solution.evals,
        started,
        Some(dcs),
        outcome.report,
    ))
}

/// Runs the full DCS pipeline on an abstract program: tile, enumerate
/// placements, lower to the nonlinear model, solve, decode, generate the
/// concrete plan.
///
/// ```
/// use tce_core::{synthesize_dcs, SynthesisConfig};
/// use tce_ir::fixtures::two_index_fused;
///
/// let program = two_index_fused(64, 48);
/// let config = SynthesisConfig::test_scale(48 * 1024); // 48 KB limit
/// let result = synthesize_dcs(&program, &config).unwrap();
/// assert!(result.memory_bytes <= 48.0 * 1024.0);
/// assert!(result.io_bytes > 0.0);
/// ```
pub fn synthesize_dcs(
    program: &Program,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthesisError> {
    let prepared = prepare_dcs(program, config)?;
    let outcome = tce_solver::solve(&prepared.dcs.model, &config.solve_options());
    finish_dcs(prepared, config, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cost::TileAssignment;
    use tce_ir::fixtures::{two_index_fused, two_index_paper};
    use tce_ir::Index;
    use tce_solver::model::FEAS_TOL;

    #[test]
    fn dcs_solves_small_two_index() {
        let p = two_index_fused(64, 48);
        let config = SynthesisConfig::test_scale(64 * 1024);
        let r = synthesize_dcs(&p, &config).expect("synthesis");
        assert!(r.memory_bytes <= 64.0 * 1024.0 + 1e-6);
        assert!(r.io_bytes > 0.0);
        // I/O can never be below reading inputs once + writing outputs once
        let min_io: u64 = p
            .arrays()
            .iter()
            .filter(|a| a.kind() != tce_ir::ArrayKind::Intermediate)
            .map(|a| a.size_bytes(p.ranges()))
            .sum();
        assert!(r.io_bytes >= min_io as f64);
        assert!(r.predicted.total_s() > 0.0);
        assert!(r.ampl().is_some());
    }

    #[test]
    fn dcs_paper_two_index_keeps_t_in_memory() {
        // Fig. 4: at 1 GB the optimizer keeps T in memory and reads A once
        let p = two_index_paper();
        let config = SynthesisConfig::new(1 << 30);
        let r = synthesize_dcs(&p, &config).expect("synthesis");
        assert!(matches!(
            r.selection.intermediates[0],
            tce_tile::IntermediateChoice::InMemory
        ));
        // memory limit respected
        assert!(r.memory_bytes <= (1u64 << 30) as f64 + 1e-6);
        // total traffic is bounded: all candidates multiply redundancy by
        // tile-count factors the solver keeps small; sanity-check that the
        // optimized traffic stays within a small multiple of the total
        // data volume (the paper's generated code re-reads A and B a few
        // times, Fig. 4(b)).
        let data: f64 = r
            .plan
            .program
            .arrays()
            .iter()
            .map(|a| a.size_bytes(r.plan.program.ranges()) as f64)
            .sum();
        assert!(
            r.io_bytes < 20.0 * data,
            "io {} vs data {}",
            r.io_bytes,
            data
        );
        // block-size constraints hold
        let read_block = config.profile.min_read_block as f64;
        for (set, &k) in r.space.reads.iter().zip(&r.selection.reads) {
            let bytes = set.candidates[k]
                .memory()
                .eval(r.plan.program.ranges(), &r.tiles);
            assert!(
                bytes + 1e-6 >= read_block,
                "read buffer {bytes} below block"
            );
        }
    }

    #[test]
    fn dcs_beats_naive_tiles() {
        let p = two_index_fused(96, 80);
        let config = SynthesisConfig::test_scale(32 * 1024);
        let r = synthesize_dcs(&p, &config).expect("synthesis");
        // compare against unit tiles with default placements
        let ones = TileAssignment::ones(p.ranges());
        let naive_sel = r.space.default_selection();
        let naive_io = r.space.total_io(&naive_sel).eval(p.ranges(), &ones);
        let naive_mem = r.space.total_memory(&naive_sel).eval(p.ranges(), &ones);
        if naive_mem <= 32.0 * 1024.0 {
            assert!(r.io_bytes <= naive_io);
        }
        let _ = FEAS_TOL;
        let _ = Index::new("i");
    }

    #[test]
    fn spatial_adjustment_raises_fastest_tiles() {
        let p = two_index_fused(64, 48);
        let tiled = tce_tile::tile_program(&p);
        let space = tce_tile::enumerate_placements(&tiled, 64 * 1024).unwrap();
        let sel = space.default_selection();
        // start with unit tiles: fastest-varying indices should be bumped
        let mut tiles = TileAssignment::ones(p.ranges());
        spatial_adjust(&space, p.ranges(), &mut tiles, &sel, 64 * 1024);
        // j is the last dim of A and C2 buffers; i of C1/T; n of B
        assert!(tiles.get(&Index::new("j")) >= 8, "{tiles}");
        let mem = space.total_memory(&sel).eval(p.ranges(), &tiles);
        assert!(mem <= 64.0 * 1024.0);
        // a tight limit reverts the boost instead of overflowing
        let mut tight = TileAssignment::ones(p.ranges());
        spatial_adjust(&space, p.ranges(), &mut tight, &sel, 600);
        let mem = space.total_memory(&sel).eval(p.ranges(), &tight);
        assert!(mem <= 600.0, "adjustment overflowed: {mem}");
    }

    #[test]
    fn dcs_strategies_with_telemetry_match_config_builder() {
        let p = two_index_fused(64, 48);
        for (strategy, label) in [(Strategy::Dlm, "dlm#"), (Strategy::Csa, "csa#")] {
            let config = SynthesisConfig::test_scale(64 * 1024)
                .strategy(strategy)
                .seed(7)
                .budget(400_000)
                .threads(2)
                .telemetry(true);
            let r = synthesize_dcs(&p, &config).expect("synthesis");
            assert!(r.memory_bytes <= 64.0 * 1024.0 + 1e-6);
            let report = r.solver_report.as_ref().expect("telemetry on");
            assert_eq!(report.strategy, strategy.name());
            assert!(report.traces.iter().all(|t| t.label.starts_with(label)));
        }
        // telemetry off by default
        let serial = synthesize_dcs(&p, &SynthesisConfig::test_scale(64 * 1024).seed(7))
            .expect("serial synthesis");
        assert!(serial.solver_report.is_none());
    }

    #[test]
    fn infeasible_memory_reported() {
        let p = two_index_fused(64, 48);
        // 4 bytes cannot hold any buffer
        let config = SynthesisConfig::test_scale(4);
        assert!(matches!(
            synthesize_dcs(&p, &config),
            Err(SynthesisError::Placement(_))
        ));
    }
}
