//! Parallel solver portfolio.
//!
//! Runs every DLM restart and a few CSA chains as independent resumable
//! tasks, interleaved in evaluation-sized segments across a thread pool.
//! The portfolio exists for two reasons:
//!
//! * **wall-clock**: the DLM restarts and the CSA chains share one
//!   thread pool, so on `N ≥ 2` cores the whole search finishes roughly
//!   `N×` sooner than running the tasks one after another;
//! * **robustness**: the stochastic CSA chains explore basins the
//!   deterministic descent misses, and a shared incumbent lets the
//!   portfolio stop paying for chains that have fallen hopelessly behind.
//!
//! # Determinism
//!
//! The result is bit-for-bit identical for a fixed seed regardless of
//! thread count. Three rules make that true:
//!
//! 1. every task derives its RNG from `seed + task index` and its
//!    trajectory depends only on its own state — segmentation merely
//!    pauses and resumes it;
//! 2. the shared incumbent is merged only at **round barriers** as the
//!    minimum over all tasks' certified best points — a fold over task
//!    order, never arrival order;
//! 3. the winner is chosen by a total order on
//!    `(feasible, objective, point, task index)` — never by which thread
//!    finished first.
//!
//! The single documented exception is the wall-clock deadline: it is
//! polled at round barriers, and which round it interrupts depends on
//! machine speed (not on thread schedule within the run).
//!
//! # Budgets
//!
//! DLM tasks get exactly the per-restart budget the DLM strategy would
//! give them (`max_evals / restarts`) and CSA chains their natural
//! schedule, so the portfolio's answer is never worse than plain DLM for
//! the same options: it evaluates a superset of the same candidate
//! points. A global [`SolveOptions::max_evals`] below that default
//! shrinks every task budget proportionally. Incumbent pruning is applied
//! only to CSA chains — cutting a DLM restart short could lose the
//! superset guarantee.

use crate::compiled::CompiledModel;
use crate::csa::{CsaOptions, CsaTask};
use crate::dlm::{DlmOptions, DlmTask, RestartResult};
use crate::model::{Model, Solution};
use crate::telemetry::{Noop, Recorder, RestartTrace, SolverReport, Termination};
use crate::SolveOptions;
use std::time::Instant;

enum Engine<'m> {
    Dlm(DlmTask<'m>),
    Csa(CsaTask<'m>),
}

struct TaskSlot<'m> {
    label: String,
    engine: Engine<'m>,
    recorder: Option<Recorder>,
}

impl TaskSlot<'_> {
    fn step(&mut self, quota: u64) {
        match (&mut self.engine, &mut self.recorder) {
            (Engine::Dlm(t), Some(r)) => {
                t.step(quota, r);
            }
            (Engine::Dlm(t), None) => {
                t.step(quota, &mut Noop);
            }
            (Engine::Csa(t), Some(r)) => {
                t.step(quota, r);
            }
            (Engine::Csa(t), None) => {
                t.step(quota, &mut Noop);
            }
        }
    }

    fn is_done(&self) -> bool {
        match &self.engine {
            Engine::Dlm(t) => t.is_done(),
            Engine::Csa(t) => t.is_done(),
        }
    }

    fn best_feasible(&self) -> Option<f64> {
        match &self.engine {
            Engine::Dlm(t) => t.best_feasible(),
            Engine::Csa(t) => t.best_feasible(),
        }
    }

    fn abort(&mut self, termination: Termination) {
        match &mut self.engine {
            Engine::Dlm(t) => t.abort(termination),
            Engine::Csa(t) => t.abort(termination),
        }
    }

    fn result(&self) -> RestartResult {
        match &self.engine {
            Engine::Dlm(t) => t.result(),
            Engine::Csa(t) => t.result(),
        }
    }
}

/// Resolves `threads: 0` to the machine's available parallelism.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs the portfolio; returns the best solution and, when telemetry is
/// enabled, the assembled report.
pub(crate) fn solve_portfolio(
    model: &Model,
    opts: &SolveOptions,
) -> (Solution, Option<SolverReport>) {
    let started = Instant::now();
    let dlm_opts = opts
        .dlm
        .clone()
        .unwrap_or_else(|| DlmOptions::new(opts.seed));
    let csa_base = opts
        .csa
        .clone()
        .unwrap_or_else(|| CsaOptions::new(opts.seed));

    let restarts = dlm_opts.restarts.max(1);
    let chains = opts.csa_chains;

    // Per-task budgets. Defaults match what the DLM/CSA drivers would
    // spend; a tighter global budget shrinks all tasks proportionally.
    let dlm_default = (dlm_opts.max_evals / restarts as u64).max(1);
    let csa_default = csa_base.natural_budget();
    let default_total = dlm_default * restarts as u64 + csa_default * chains as u64;
    let scale = match opts.max_evals {
        Some(b) if b < default_total => b as f64 / default_total as f64,
        _ => 1.0,
    };
    let dlm_budget = ((dlm_default as f64 * scale) as u64).max(1);
    let csa_budget = ((csa_default as f64 * scale) as u64).max(1);

    // One compiled tape shared (immutably) by every task; each task's
    // evaluator owns its caches, so the scoped threads below never
    // contend on it.
    let compiled = CompiledModel::compile(model);

    let mut slots: Vec<TaskSlot<'_>> = Vec::with_capacity(restarts + chains);
    for r in 0..restarts {
        slots.push(TaskSlot {
            label: format!("dlm#{r}"),
            engine: Engine::Dlm(DlmTask::new(model, &dlm_opts, r, dlm_budget, &compiled)),
            recorder: opts.telemetry.then(Recorder::default),
        });
    }
    for k in 0..chains {
        // decorate the chain seed so chains differ from each other and
        // from the DLM restart streams
        let chain_opts = CsaOptions {
            seed: csa_base.seed.wrapping_add(0xC5A0).wrapping_add(k as u64),
            ..csa_base.clone()
        };
        slots.push(TaskSlot {
            label: format!("csa#{k}"),
            engine: Engine::Csa(CsaTask::new(model, &chain_opts, csa_budget, &compiled)),
            recorder: opts.telemetry.then(Recorder::default),
        });
    }

    let threads = resolve_threads(opts.threads).min(slots.len()).max(1);
    let segment = opts.segment_evals.max(64);
    let deadline = opts.deadline.map(|d| started + d);
    let cancel = opts.cancel.as_ref();

    let mut rounds = 0u64;
    loop {
        let mut active: Vec<&mut TaskSlot<'_>> =
            slots.iter_mut().filter(|s| !s.is_done()).collect();
        if active.is_empty() {
            break;
        }
        // both stop signals ride the round barrier: the first round always
        // runs so every task produces a result
        if rounds > 0 {
            if deadline.is_some_and(|at| Instant::now() >= at) {
                for slot in active {
                    slot.abort(Termination::Deadline);
                }
                break;
            }
            if cancel.is_some_and(|c| c.is_canceled()) {
                for slot in active {
                    slot.abort(Termination::Canceled);
                }
                break;
            }
        }
        if threads > 1 && active.len() > 1 {
            let chunk = active.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for group in active.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for slot in group {
                            slot.step(segment);
                        }
                    });
                }
            });
        } else {
            for slot in &mut active {
                slot.step(segment);
            }
        }
        rounds += 1;
        // round barrier: merge the incumbent over *all* tasks in task
        // order (schedule-independent), then let CSA chains react
        let incumbent = slots
            .iter()
            .filter_map(|s| s.best_feasible())
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))));
        for slot in &mut slots {
            if let Engine::Csa(t) = &mut slot.engine {
                t.note_incumbent(incumbent);
            }
        }
    }

    let results: Vec<RestartResult> = slots.iter().map(|s| s.result()).collect();
    let total_evals = results.iter().map(|r| r.evals).sum();
    let total_iters = results.iter().map(|r| r.iters).sum();
    let winner = results
        .iter()
        .enumerate()
        .min_by(|(ka, a), (kb, b)| a.cmp_quality(b).then(ka.cmp(kb)))
        .map(|(k, _)| k)
        .expect("portfolio always has at least one task");

    let report = opts.telemetry.then(|| SolverReport {
        strategy: "portfolio",
        threads,
        wall: started.elapsed(),
        total_evals,
        total_iterations: total_iters,
        winner,
        tape: Some(compiled.tape_stats()),
        traces: slots
            .iter()
            .zip(&results)
            .map(|(slot, r)| RestartTrace {
                label: slot.label.clone(),
                iterations: r.iters,
                evals: r.evals,
                objective: r.objective,
                feasible: r.feasible,
                violation: model.violations(&r.point).iter().sum(),
                max_multiplier: slot.recorder.as_ref().map_or(0.0, |rec| rec.max_multiplier),
                improvements: slot
                    .recorder
                    .as_ref()
                    .map_or_else(Vec::new, |rec| rec.improvements.clone()),
                termination: r.termination,
            })
            .collect(),
    });

    let best = &results[winner];
    (
        Solution {
            point: best.point.clone(),
            objective: best.objective,
            feasible: best.feasible,
            evals: total_evals,
            iterations: total_iters,
        },
        report,
    )
}
