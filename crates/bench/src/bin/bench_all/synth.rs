//! `synth_cold` and `synth_hit`: source text → plan over the P8 grid,
//! without a cache and through a populated disk-backed one.
//!
//! Both are closed loops on one thread: a caller of `tce synthesize`
//! waits for its plan before it asks for the next.

use crate::grid::{cell_names, cells, p8, Cell, Parsed, ProgramSpec, Synth};
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::verify::{placement_candidates, verification_pass, Baseline};
use crate::workload::{p50_us, span_table, Ctx, Layers, Samples, Traced};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use tce_cache::{
    prepare_network_request, prepare_request, run_network_prepared, run_prepared,
    synthesize_dcs_cached, synthesize_network_cached, CacheRecord, SynthesisCache,
};
use tce_core::{
    build_model_with, finish_dcs, finish_network, prepare_dcs, prepare_network, SynthesisConfig,
};
use tce_solver::{canonicalize, CanonicalModel, CompiledModel, Model, Solution, SolveOutcome};

pub struct Prepared {
    pub programs: Vec<ProgramSpec>,
    pub cells: Vec<Cell>,
    pub baseline: Baseline,
    /// Directory of the populated cache (`synth_hit` only).
    cache_dir: Option<PathBuf>,
}

/// One operation through the cache; `(result, was a hit)`.
fn cached_op(
    spec: &ProgramSpec,
    seed: u64,
    cache: &SynthesisCache,
) -> Result<(Synth, bool), String> {
    let config = spec.config(seed);
    match spec.parse()? {
        Parsed::Dense(p) => synthesize_dcs_cached(&p, &config, cache)
            .map(|c| (Synth::Dense(Box::new(c.result)), c.hit)),
        Parsed::Network(dag) => synthesize_network_cached(&dag, &config, cache)
            .map(|c| (Synth::Network(Box::new(c.result)), c.hit)),
    }
    .map_err(|e| format!("{} seed {seed}: {e}", spec.name))
}

pub fn setup(ctx: &Ctx, rep: usize) -> Result<Prepared, String> {
    let programs = p8();
    let baseline = verification_pass(&programs)?;
    let cells = cells(&programs);
    let mut cache_dir = None;
    if ctx.workload == "synth_hit" {
        let dir = ctx.scratch.join(format!("cache-{rep}"));
        let cache = SynthesisCache::with_dir(&dir)?;
        for cell in &cells {
            let (_, hit) = cached_op(&programs[cell.program], cell.seed, &cache)?;
            if hit {
                return Err("a fresh cache directory answered with a hit".to_string());
            }
        }
        // a hit must give back the cold plan byte for byte, from disk
        // (fresh handle) and from memory (same handle again)
        let reopened = SynthesisCache::with_dir(&dir)?;
        for pass in ["disk", "memory"] {
            for (cell, facts) in cells.iter().zip(&baseline.cells) {
                let spec = &programs[cell.program];
                let (synth, hit) = cached_op(spec, cell.seed, &reopened)?;
                if !hit || synth.plan_json() != facts.plan_json {
                    return Err(format!(
                        "{} seed {}: {pass} hit differs from the cold plan (hit = {hit})",
                        spec.name, cell.seed
                    ));
                }
            }
        }
        cache_dir = Some(dir);
    }
    Ok(Prepared {
        programs,
        cells,
        baseline,
        cache_dir,
    })
}

/// Class names of `synth_hit`: every cell once per kind of cache read.
fn hit_classes(programs: &[ProgramSpec]) -> Vec<String> {
    cell_names(programs)
        .into_iter()
        .flat_map(|c| [format!("{c}/disk"), format!("{c}/mem")])
        .collect()
}

pub fn run(prep: &Prepared, ctx: &Ctx) -> Result<Samples, String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let origin = Instant::now();
    match &prep.cache_dir {
        None => {
            let mut samples = Samples::new(ctx, cell_names(&prep.programs));
            loop {
                for k in rng.permutation(prep.cells.len()) {
                    let cell = prep.cells[k];
                    let began = Instant::now();
                    let synth = prep.programs[cell.program].synthesize(cell.seed);
                    let ok = synth
                        .is_ok_and(|s| s.io_bytes().to_bits() == prep.baseline.cells[k].io_bits);
                    if !samples.push(k, origin, began, ok) {
                        return Ok(samples);
                    }
                }
            }
        }
        Some(dir) => {
            let mut samples = Samples::new(ctx, hit_classes(&prep.programs));
            loop {
                // a fresh handle has an empty memory map: every first
                // touch loads from disk, as in a new `tce synthesize
                // --cache-dir` process; the second pass over the same
                // handle hits memory, as in the daemon
                let cache = SynthesisCache::with_dir(dir)?;
                for from_memory in [0, 1] {
                    for k in rng.permutation(prep.cells.len()) {
                        let cell = prep.cells[k];
                        let began = Instant::now();
                        let ok = cached_op(&prep.programs[cell.program], cell.seed, &cache)
                            .is_ok_and(|(s, hit)| {
                                hit && s.io_bytes().to_bits() == prep.baseline.cells[k].io_bits
                            });
                        if !samples.push(2 * k + from_memory, origin, began, ok) {
                            return Ok(samples);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Traced run: the same operation issued stage by stage.
// ---------------------------------------------------------------------

/// A count that is a property of the operation class, by class: its
/// median over the classes is the same however many operations the run
/// got through, once every class has run.
type PerClass = std::collections::BTreeMap<u32, f64>;

fn median_of(counts: &PerClass) -> f64 {
    median(&counts.values().copied().collect::<Vec<f64>>())
}

/// Counts noted beside the spans of a traced run.
#[derive(Default)]
struct Counts {
    source_bytes: PerClass,
    candidates: PerClass,
    model_vars: PerClass,
    model_constraints: PerClass,
    tape_len: PerClass,
    plan_bytes: PerClass,
    evals: PerClass,
    record_bytes: Vec<f64>,
    evals_total: f64,
    solves: u64,
    feasible: u64,
    /// Summed over the cache handles of the run, from their `CacheStats`.
    cache_hits: u64,
    cache_misses: u64,
    cache_rejects: u64,
    /// Per operation: staged stages ÷ whole, whole ÷ staged, solve ÷ whole.
    stage_sum_share: Vec<f64>,
    overhead_share: Vec<f64>,
    solve_share: Vec<f64>,
}

impl Counts {
    /// Adds what a cache handle counted over its life: every whole and
    /// every staged operation that went through it.
    fn tally(&mut self, cache: Option<&SynthesisCache>) {
        if let Some(stats) = cache.map(SynthesisCache::stats) {
            self.cache_hits += stats.hits;
            self.cache_misses += stats.misses;
            self.cache_rejects += stats.rejects;
        }
    }
}

/// The solver's answer as a cache record holds it: what `finish_dcs` and
/// `finish_network` are handed when they are timed on their own. Nothing
/// is validated here; the hit path itself runs inside `run_prepared`.
fn stored_outcome(rec: &CacheRecord, canon: &CanonicalModel) -> SolveOutcome {
    SolveOutcome {
        solution: Solution {
            point: canon.from_canonical(&rec.canonical_point),
            objective: rec.objective,
            feasible: rec.feasible,
            evals: rec.evals,
            iterations: rec.iterations,
        },
        report: rec.report.clone(),
    }
}

struct StagedOp<'a> {
    t: &'a mut Tracer,
    counts: &'a mut Counts,
    op: u64,
    class: u32,
    root: SpanId,
    /// `Some` on `synth_hit`; the flag says whether this pass reads memory.
    cache: Option<(&'a SynthesisCache, bool)>,
}

impl StagedOp<'_> {
    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.t
            .time(self.op, self.class, name, Some(self.root), false, f)
    }

    fn extra<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.t
            .time(self.op, self.class, name, Some(self.root), true, f)
    }

    fn solve(&mut self, model: &Model, config: &SynthesisConfig) -> SolveOutcome {
        let outcome = self.stage("solver.solve", || {
            tce_solver::solve(model, &config.solve_options())
        });
        self.counts.solves += 1;
        self.counts.feasible += u64::from(outcome.solution.feasible);
        self.counts.evals_total += outcome.solution.evals as f64;
        self.counts
            .evals
            .insert(self.class, outcome.solution.evals as f64);
        outcome
    }

    /// `canonicalize` and the cache read on their own, after a hit:
    /// redundant spans. A disk read needs a handle that has not seen the
    /// key, so it goes through a fresh one.
    fn finer_hit_calls(
        &mut self,
        model: &Model,
        key: &str,
    ) -> Result<(CanonicalModel, std::sync::Arc<CacheRecord>), String> {
        let (cache, from_memory) = self.cache.expect("a hit has a cache");
        let canon = self.extra("solver.canon", || canonicalize(model));
        let rec = if from_memory {
            self.extra("cache.mem_hit", || cache.get(key))
        } else {
            let fresh = SynthesisCache::with_dir(cache.dir().expect("the cache is disk-backed"))?;
            self.extra("cache.disk_hit", || fresh.get(key))
        };
        let rec = rec.ok_or_else(|| format!("no cache record under {key}"))?;
        Ok((canon, rec))
    }

    /// The finer dense calls on their own: redundant spans and counts.
    fn finer_dense_calls(
        &mut self,
        program: &tce_ir::Program,
        config: &SynthesisConfig,
        selection: &tce_tile::PlacementSelection,
        tiles: &tce_cost::TileAssignment,
    ) -> Result<(), String> {
        let tiled = self.extra("tile.tile_program", || tce_tile::tile_program(program));
        let space = self
            .extra("tile.enumerate", || {
                tce_tile::enumerate_placements(&tiled, config.mem_limit)
            })
            .map_err(|e| format!("{e:?}"))?;
        let dcs = self.extra("core.build_model", || {
            build_model_with(
                &space,
                program.ranges(),
                config.profile.min_read_block,
                config.profile.min_write_block,
                config.enforce_min_blocks,
                config.objective,
                &config.profile,
            )
        });
        if self.cache.is_none() {
            self.finer_solver_calls(&dcs.model);
        }
        let plan = self.extra("codegen.generate", || {
            tce_codegen::generate_plan(&tiled, &space, selection, tiles)
        });
        let text = self.extra("codegen.print", || tce_codegen::print_plan(&plan));
        let (c, class) = (&mut *self.counts, self.class);
        c.plan_bytes.insert(class, text.len() as f64);
        c.model_vars.insert(class, dcs.model.num_vars() as f64);
        c.model_constraints
            .insert(class, dcs.model.constraints().len() as f64);
        c.candidates
            .insert(class, placement_candidates(&space) as f64);
        Ok(())
    }

    /// `canonicalize` and `compile` on their own, where no stage ran them.
    fn finer_solver_calls(&mut self, model: &Model) {
        black_box(self.extra("solver.canon", || canonicalize(model)));
        let compiled = self.extra("solver.compile", || CompiledModel::compile(model));
        self.counts
            .tape_len
            .insert(self.class, compiled.tape_len() as f64);
    }

    /// The whole operation, one public call per stage, then the finer
    /// calls on their own as redundant spans. Returns the plan's I/O bits.
    ///
    /// Without a cache the stages are the library's own: front end,
    /// `prepare_*`, `solve`, `finish_*`. Through a cache they are the two
    /// calls the daemon makes, `prepare_*request` (lowering, canonical
    /// form, fingerprint) and `run_*prepared` (cache read, replay, finish):
    /// the hit path itself, not a copy of it.
    fn run(&mut self, spec: &ProgramSpec, seed: u64) -> Result<u64, String> {
        let config = spec.config(seed);
        self.counts
            .source_bytes
            .insert(self.class, spec.source_bytes() as f64);
        let front = if matches!(spec.source, crate::grid::Source::Sop(_)) {
            "opmin.derive"
        } else {
            "ir.parse"
        };
        let parsed = self.stage(front, || spec.parse())?;
        let not_a_hit = || format!("{} seed {seed}: the populated cache missed", spec.name);
        match (parsed, self.cache) {
            (Parsed::Dense(program), None) => {
                let prepared = self
                    .stage("core.prepare", || prepare_dcs(&program, &config))
                    .map_err(|e| e.to_string())?;
                let outcome = self.solve(&prepared.dcs.model, &config);
                let result = self
                    .stage("core.finish", || finish_dcs(prepared, &config, outcome))
                    .map_err(|e| e.to_string())?;
                // the caller of the whole operation frees the result inside
                // its timing, so the staged copy does too
                let (io_bits, selection, tiles) = (
                    result.io_bytes.to_bits(),
                    result.selection.clone(),
                    result.tiles.clone(),
                );
                self.stage("op.drop", || drop(result));
                self.t.close(self.root);
                self.finer_dense_calls(&program, &config, &selection, &tiles)?;
                Ok(io_bits)
            }
            (Parsed::Dense(program), Some((cache, _))) => {
                let request = self
                    .stage("cache.prepare_request", || {
                        prepare_request(&program, &config)
                    })
                    .map_err(|e| e.to_string())?;
                let key = request.fingerprint.clone();
                let cached = self
                    .stage("cache.run_prepared", || {
                        run_prepared(request, &config, cache)
                    })
                    .map_err(|e| e.to_string())?;
                if !cached.hit {
                    return Err(not_a_hit());
                }
                let result = cached.result;
                let (io_bits, selection, tiles) = (
                    result.io_bytes.to_bits(),
                    result.selection.clone(),
                    result.tiles.clone(),
                );
                self.stage("op.drop", || drop(result));
                self.t.close(self.root);

                let prepared = self
                    .extra("core.prepare", || prepare_dcs(&program, &config))
                    .map_err(|e| e.to_string())?;
                let (canon, rec) = self.finer_hit_calls(&prepared.dcs.model, &key)?;
                let outcome = stored_outcome(&rec, &canon);
                self.extra("core.finish", || finish_dcs(prepared, &config, outcome))
                    .map_err(|e| e.to_string())?;
                self.finer_dense_calls(&program, &config, &selection, &tiles)?;
                Ok(io_bits)
            }
            (Parsed::Network(dag), None) => {
                let prepared = self
                    .stage("core.network_prepare", || prepare_network(&dag, &config))
                    .map_err(|e| e.to_string())?;
                let outcome = self.solve(&prepared.net.model, &config);
                let model = prepared.net.model.clone();
                let result = self
                    .stage("core.network_finish", || {
                        finish_network(prepared, &config, outcome)
                    })
                    .map_err(|e| e.to_string())?;
                let io_bits = result.io_bytes.to_bits();
                self.stage("op.drop", || drop(result));
                self.t.close(self.root);
                self.finer_solver_calls(&model);
                Ok(io_bits)
            }
            (Parsed::Network(dag), Some((cache, _))) => {
                let request = self
                    .stage("cache.prepare_request", || {
                        prepare_network_request(&dag, &config)
                    })
                    .map_err(|e| e.to_string())?;
                let key = request.fingerprint.clone();
                let cached = self
                    .stage("cache.run_prepared", || {
                        run_network_prepared(request, &config, cache)
                    })
                    .map_err(|e| e.to_string())?;
                if !cached.hit {
                    return Err(not_a_hit());
                }
                let io_bits = cached.result.io_bytes.to_bits();
                self.stage("op.drop", || drop(cached.result));
                self.t.close(self.root);

                let prepared = self
                    .extra("core.network_prepare", || prepare_network(&dag, &config))
                    .map_err(|e| e.to_string())?;
                let (canon, rec) = self.finer_hit_calls(&prepared.net.model, &key)?;
                let outcome = stored_outcome(&rec, &canon);
                self.extra("core.network_finish", || {
                    finish_network(prepared, &config, outcome)
                })
                .map_err(|e| e.to_string())?;
                Ok(io_bits)
            }
        }
    }
}

pub fn run_traced(prep: &Prepared, ctx: &Ctx) -> Result<Traced, String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let origin = Instant::now();
    let mut t = Tracer::new(ctx.workload, origin);
    let mut counts = Counts::default();
    let classes = match prep.cache_dir {
        None => cell_names(&prep.programs),
        Some(_) => hit_classes(&prep.programs),
    };
    let (mut op, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    'run: loop {
        let cache = prep
            .cache_dir
            .as_deref()
            .map(SynthesisCache::with_dir)
            .transpose()?;
        let passes: &[usize] = if cache.is_some() { &[0, 1] } else { &[0] };
        for &from_memory in passes {
            for k in rng.permutation(prep.cells.len()) {
                let cell = prep.cells[k];
                let spec = &prep.programs[cell.program];
                let class = match cache {
                    None => k,
                    Some(_) => 2 * k + from_memory,
                } as u32;
                op += 1;

                // the operation as the untraced run issues it. On a disk
                // pass it also warms the handle's memory map, so the
                // staged copy below would read memory: there the staged
                // copy runs first.
                let whole = |t: &mut Tracer| -> Result<u64, String> {
                    t.time(op, class, "op.whole", None, false, || match &cache {
                        None => spec.synthesize(cell.seed).map(|s| s.io_bytes().to_bits()),
                        Some(c) => {
                            cached_op(spec, cell.seed, c).map(|(s, _)| s.io_bytes().to_bits())
                        }
                    })
                };
                let staged_first = cache.is_some() && from_memory == 0;
                let mut bits = Vec::new();
                if !staged_first {
                    bits.push(whole(&mut t));
                }
                let root = t.open(op, class, "op.staged", None);
                let mut staged = StagedOp {
                    t: &mut t,
                    counts: &mut counts,
                    op,
                    class,
                    root,
                    cache: cache.as_ref().map(|c| (c, from_memory == 1)),
                };
                bits.push(staged.run(spec, cell.seed));
                if staged_first {
                    // the whole op now reads memory; it is not compared
                    bits.push(whole(&mut t));
                }
                attempted += 1;
                let want = prep.baseline.cells[k].io_bits;
                failed += u64::from(!bits.iter().all(|b| b.as_ref().is_ok_and(|&b| b == want)));
                if origin.elapsed().as_secs_f64() >= ctx.seconds {
                    counts.tally(cache.as_ref());
                    break 'run;
                }
            }
        }
        counts.tally(cache.as_ref());
    }

    // per operation: how the stages add up to the whole
    #[derive(Default)]
    struct OpTimes {
        whole_ns: u64,
        staged_ns: u64,
        stage_sum_ns: u64,
        solve_ns: u64,
        read_memory: bool,
    }
    let mut per_op: HashMap<u64, OpTimes> = HashMap::new();
    for s in &t.spans {
        let times = per_op.entry(s.op).or_default();
        match (s.name, s.parent, s.redundant) {
            ("op.whole", ..) => times.whole_ns = s.dur_ns(),
            ("op.staged", ..) => times.staged_ns = s.dur_ns(),
            (name, Some(_), false) => {
                times.stage_sum_ns += s.dur_ns();
                if name == "solver.solve" {
                    times.solve_ns = s.dur_ns();
                }
                times.read_memory = s.class % 2 == 1;
            }
            _ => {}
        }
    }
    for times in per_op.values() {
        // disk passes of synth_hit have no comparable whole op (see above)
        let comparable = prep.cache_dir.is_none() || times.read_memory;
        if !comparable || times.whole_ns == 0 || times.staged_ns == 0 {
            continue;
        }
        let whole = times.whole_ns as f64;
        counts
            .stage_sum_share
            .push(times.stage_sum_ns as f64 / whole);
        counts
            .overhead_share
            .push(1.0 - whole / times.staged_ns as f64);
        if times.solve_ns > 0 {
            counts.solve_share.push(times.solve_ns as f64 / whole);
        }
    }

    let mut layers = Layers::new();
    for (metric, span) in [
        ("ir.parse_us", "ir.parse"),
        ("opmin.derive_us", "opmin.derive"),
        ("tile.tile_program_us", "tile.tile_program"),
        ("tile.enumerate_us", "tile.enumerate"),
        ("core.build_model_us", "core.build_model"),
        ("core.prepare_us", "core.prepare"),
        ("core.finish_us", "core.finish"),
        ("core.network_prepare_us", "core.network_prepare"),
        ("core.network_finish_us", "core.network_finish"),
        ("solver.canon_us", "solver.canon"),
        ("solver.compile_us", "solver.compile"),
        ("codegen.generate_us", "codegen.generate"),
        ("codegen.print_us", "codegen.print"),
        ("cache.prepare_request_us", "cache.prepare_request"),
        ("cache.run_prepared_us", "cache.run_prepared"),
        ("cache.mem_hit_us", "cache.mem_hit"),
        ("cache.disk_hit_us", "cache.disk_hit"),
    ] {
        layers.insert(metric, p50_us(&t, span));
    }
    let solve_us = t.durations_us("solver.solve");
    layers.insert("solver.solve_ms", median(&solve_us) / 1e3);
    layers.insert("solver.evals", median_of(&counts.evals));
    let total_solve_s = solve_us.iter().sum::<f64>() / 1e6;
    if total_solve_s > 0.0 {
        layers.insert("solver.evals_per_s", counts.evals_total / total_solve_s);
        layers.insert(
            "solver.feasible_share",
            counts.feasible as f64 / counts.solves as f64,
        );
    }
    layers.insert("solver.solve_share", median(&counts.solve_share));
    layers.insert("solver.tape_len", median_of(&counts.tape_len));
    layers.insert("ir.source_bytes", median_of(&counts.source_bytes));
    layers.insert("tile.placement_candidates", median_of(&counts.candidates));
    layers.insert("core.model_vars", median_of(&counts.model_vars));
    layers.insert(
        "core.model_constraints",
        median_of(&counts.model_constraints),
    );
    layers.insert("codegen.plan_bytes", median_of(&counts.plan_bytes));
    if let Some(dir) = &prep.cache_dir {
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
            counts
                .record_bytes
                .push(entry.metadata().map_or(0.0, |m| m.len() as f64));
        }
        layers.insert("cache.record_bytes", median(&counts.record_bytes));
        layers.insert(
            "cache.hit_share",
            counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
        );
        layers.insert("cache.replay_rejects", counts.cache_rejects as f64);
    }
    layers.insert("bench.stage_sum_share", median(&counts.stage_sum_share));
    layers.insert("bench.trace_overhead_share", median(&counts.overhead_share));

    // one table per program, its four solver seeds together
    let mut tables = String::new();
    let per_program = classes.len() / prep.programs.len();
    for (p, spec) in prep.programs.iter().enumerate() {
        let of_program = |class: u32| class as usize / per_program == p;
        let rows = t.by_name(|s| of_program(s.class));
        let whole_us = rows
            .iter()
            .find(|r| r.0 == "op.whole")
            .map_or(0.0, |r| median(&r.1));
        tables.push_str(&span_table(
            &format!("{} / {}", ctx.workload, spec.name),
            &rows,
            whole_us,
        ));
    }
    Ok(Traced {
        tracer: t,
        classes,
        layers,
        attempted,
        failed,
        tables,
    })
}
