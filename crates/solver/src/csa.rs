//! Constrained Simulated Annealing (CSA).
//!
//! The stochastic member of the DCS family (Wah & Wang 1999): a Metropolis
//! walk in the joint `(x, λ)` space. Variable moves that *decrease* the
//! Lagrangian are always accepted and increases are accepted with
//! probability `exp(−Δ/T)`; multiplier moves do the opposite (increases of
//! `L` via λ are accepted, pushing the walk toward feasibility). The
//! temperature follows a geometric cooling schedule.
//!
//! Like DLM restarts, a chain is a resumable state machine (`CsaTask`),
//! so a deadline or cancel token can be polled between evaluation-sized
//! segments without changing its trajectory.

use crate::compiled::{CompiledModel, Evaluator};
use crate::dlm::{drive_to_completion, RestartResult, Task};
use crate::model::{Model, FEAS_TOL};
use crate::telemetry::{Noop, Recorder, Sink, Termination};
use crate::Run;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Options for the CSA strategy.
#[derive(Clone, Debug)]
pub struct CsaOptions {
    /// RNG seed.
    pub seed: u64,
    /// Moves attempted per temperature level.
    pub moves_per_temp: u32,
    /// Number of temperature levels.
    pub levels: u32,
    /// Initial temperature (in units of normalized Lagrangian).
    pub t_init: f64,
    /// Geometric cooling ratio per level.
    pub cooling: f64,
    /// Probability that a move perturbs a variable (vs. a multiplier).
    pub p_var_move: f64,
}

impl CsaOptions {
    /// Default options with the given seed.
    pub fn new(seed: u64) -> Self {
        CsaOptions {
            seed,
            moves_per_temp: 400,
            levels: 220,
            t_init: 2.0,
            cooling: 0.96,
            p_var_move: 0.85,
        }
    }

    /// A cheaper configuration for tests.
    pub fn quick(seed: u64) -> Self {
        CsaOptions {
            moves_per_temp: 120,
            levels: 120,
            ..CsaOptions::new(seed)
        }
    }
}

/// Lagrangian at the evaluator's committed point. The penalty sum folds
/// left-to-right from 0.0 in constraint order, exactly like the original
/// `iter().sum::<f64>()`, to keep the value bit-identical.
fn lag_committed(eval: &Evaluator<'_>, lambda: &[f64], f_scale: f64) -> f64 {
    let f = eval.objective() / f_scale;
    let mut penalty = 0.0f64;
    for (j, &l) in lambda.iter().enumerate() {
        penalty += l * eval.violation_norm(j);
    }
    f + penalty
}

/// Lagrangian at lane `l` of the last batch probe; same fold order as
/// [`lag_committed`].
fn lag_batch(eval: &Evaluator<'_>, l: usize, lambda: &[f64], f_scale: f64) -> f64 {
    let f = eval.batch_objective(l) / f_scale;
    let mut penalty = 0.0f64;
    for (j, &lam) in lambda.iter().enumerate() {
        penalty += lam * eval.batch_violation_norm(l, j);
    }
    f + penalty
}

/// Picks a variable and a candidate value for it without touching the
/// point. The RNG draw sequence is identical to the historical in-place
/// version, so chains replay bit-for-bit.
fn perturb_var(model: &Model, x: &[i64], rng: &mut StdRng) -> (usize, i64) {
    let vi = rng.random_range(0..model.num_vars());
    let (lo, hi) = model.vars()[vi].domain.bounds();
    let old = x[vi];
    let new = if hi - lo <= 16 {
        // uniform different value
        let mut v = rng.random_range(lo..=hi);
        if v == old && hi > lo {
            v = if v == hi { lo } else { v + 1 };
        }
        v
    } else {
        // multiplicative or additive jiggle
        let choice = rng.random_range(0..4u32);
        let cand = match choice {
            0 => old + 1,
            1 => old - 1,
            2 => old * 2,
            _ => old / 2,
        };
        cand.clamp(lo, hi)
    };
    (vi, new)
}

/// One annealing chain as a resumable state machine.
pub(crate) struct CsaTask<'m> {
    model: &'m Model,
    moves_per_temp: u32,
    levels: u32,
    cooling: f64,
    p_var_move: f64,
    rng: StdRng,
    eval: Evaluator<'m>,
    lambda: Vec<f64>,
    f_scale: f64,
    cur: f64,
    temp: f64,
    level: u32,
    mv: u32,
    attempted: u64,
    evals: u64,
    budget: u64,
    best: Option<(Vec<i64>, f64, bool)>,
    /// Scratch for the multiplier move's violated-constraint indices
    /// (reused across moves; no per-move allocation).
    violated: Vec<usize>,
    done: bool,
    termination: Termination,
}

impl<'m> CsaTask<'m> {
    /// `budget` caps the chain's Lagrangian evaluations; pass
    /// `u64::MAX` for the classic unbounded schedule.
    pub(crate) fn new(
        model: &'m Model,
        opts: &CsaOptions,
        budget: u64,
        compiled: &'m CompiledModel,
    ) -> Self {
        let rng = StdRng::seed_from_u64(opts.seed);
        let mut x = model.lower_corner();
        model.clamp(&mut x);
        let lambda = vec![1.0f64; model.constraints().len()];
        let eval = compiled.evaluator(&x);
        let f_scale = eval.objective().abs().max(1.0);
        let cur = lag_committed(&eval, &lambda, f_scale);
        let mut task = CsaTask {
            model,
            moves_per_temp: opts.moves_per_temp,
            levels: opts.levels,
            cooling: opts.cooling,
            p_var_move: opts.p_var_move,
            rng,
            eval,
            lambda,
            f_scale,
            cur,
            temp: opts.t_init,
            level: 0,
            mv: 0,
            attempted: 0,
            evals: 1,
            budget,
            best: None,
            violated: Vec::new(),
            done: false,
            termination: Termination::Completed,
        };
        task.consider(&mut crate::telemetry::Noop);
        task
    }

    /// Considers the evaluator's committed point for the chain's best.
    /// Reads cached committed values, so it costs no extra evaluations.
    fn consider<S: Sink>(&mut self, sink: &mut S) {
        let feasible = self.eval.is_feasible(FEAS_TOL);
        let obj = self.eval.objective();
        let better = match &self.best {
            None => true,
            Some((_, bobj, bfeas)) => match (feasible, *bfeas) {
                (true, false) => true,
                (false, true) => false,
                _ => obj < *bobj,
            },
        };
        if better {
            self.best = Some((self.eval.point().to_vec(), obj, feasible));
            if S::ENABLED {
                sink.improvement(self.evals, obj, feasible);
            }
        }
    }

    fn one_move<S: Sink>(&mut self, sink: &mut S) {
        if self.rng.random::<f64>() < self.p_var_move || self.lambda.is_empty() {
            let (vi, new) = perturb_var(self.model, self.eval.point(), &mut self.rng);
            if new == self.eval.point()[vi] {
                return;
            }
            // a 1-lane batch probe: same staged value as `probe`, but an
            // accepted move commits straight from the lane instead of
            // re-running a delta pass
            self.eval.probe_batch(vi, &[new]);
            let cand = lag_batch(&self.eval, 0, &self.lambda, self.f_scale);
            self.evals += 1;
            let delta = cand - self.cur;
            if delta <= 0.0 || self.rng.random::<f64>() < (-delta / self.temp).exp() {
                self.cur = cand;
                self.eval.commit_batch_lane(0);
                self.consider(sink);
            }
            // a rejected probe needs no undo: the committed point is
            // untouched
        } else {
            // multiplier move: raise λ of a random violated constraint.
            // Violations and the refreshed Lagrangian are read through a
            // one-lane batch probe staged at the committed point itself,
            // so multiplier updates run on the same SoA lane kernels as
            // variable moves; lane 0 at the committed value is
            // bit-identical to the committed evaluation (untouched
            // constraints read the shadow norms directly, touched ones
            // recompute from identical inputs).
            let staged = self.model.num_vars() > 0;
            if staged {
                let committed = self.eval.point()[0];
                self.eval.probe_batch(0, &[committed]);
            }
            self.violated.clear();
            for k in 0..self.lambda.len() {
                let viol = if staged {
                    self.eval.batch_violation_norm(0, k)
                } else {
                    self.eval.violation_norm(k)
                };
                if viol > FEAS_TOL {
                    self.violated.push(k);
                }
            }
            let pick = self.rng.random_range(0..self.violated.len().max(1));
            if let Some(&k) = self.violated.get(pick) {
                // raising λ increases L at the current (violated) point;
                // CSA accepts λ-increasing moves to drive feasibility
                self.lambda[k] *= 1.0 + self.rng.random::<f64>();
                self.cur = if staged {
                    lag_batch(&self.eval, 0, &self.lambda, self.f_scale)
                } else {
                    lag_committed(&self.eval, &self.lambda, self.f_scale)
                };
                self.evals += 1;
                if S::ENABLED {
                    let max = self.lambda.iter().fold(0.0f64, |a, &l| a.max(l.abs()));
                    sink.multipliers(max);
                }
            }
        }
    }

    pub(crate) fn result(&self) -> RestartResult {
        let (point, objective, feasible) =
            self.best.clone().expect("initial point always considered");
        RestartResult {
            point,
            objective,
            feasible,
            evals: self.evals,
            iters: self.attempted,
            termination: self.termination,
        }
    }
}

impl Task for CsaTask<'_> {
    /// Advances the chain by roughly `quota` evaluations; returns true
    /// when the chain is finished.
    fn step<S: Sink>(&mut self, quota: u64, sink: &mut S) -> bool {
        let stop = self.evals.saturating_add(quota);
        loop {
            if self.done {
                return true;
            }
            if self.level >= self.levels {
                self.done = true;
                return true;
            }
            if self.evals >= self.budget {
                self.abort(Termination::EvalBudget);
                return true;
            }
            self.one_move(sink);
            self.attempted += 1;
            self.mv += 1;
            if self.mv == self.moves_per_temp {
                self.mv = 0;
                self.level += 1;
                self.temp *= self.cooling;
            }
            if self.evals >= stop {
                // a follow-up step() call observes any just-finished
                // schedule; report "not done" conservatively here
                return false;
            }
        }
    }

    fn abort(&mut self, termination: Termination) {
        if !self.done {
            self.done = true;
            self.termination = termination;
        }
    }
}

/// Runs one annealing chain to completion, optionally recording a trace.
/// `budget` caps Lagrangian evaluations (`u64::MAX` = the full schedule);
/// a deadline and a cancel token are polled between evaluation segments.
/// The solution's `iterations` are the moves the chain attempted: the
/// whole cooling ladder when it completes, fewer when it was cut.
pub(crate) fn run_csa(
    model: &Model,
    opts: &CsaOptions,
    telemetry: bool,
    budget: u64,
    deadline: Option<std::time::Instant>,
    cancel: Option<&crate::CancelToken>,
) -> Run {
    let compiled = CompiledModel::compile(model);
    let mut task = CsaTask::new(model, opts, budget, &compiled);
    let mut recorder = telemetry.then(Recorder::default);
    match &mut recorder {
        Some(rec) => drive_to_completion(&mut task, deadline, cancel, rec),
        None => drive_to_completion(&mut task, deadline, cancel, &mut Noop),
    }
    Run::single(
        model,
        "csa#0",
        task.result(),
        recorder,
        Some(compiled.tape_stats()),
    )
}

#[cfg(test)]
pub(crate) fn solve_csa_impl(model: &Model, opts: &CsaOptions) -> crate::model::Solution {
    run_csa(model, opts, false, u64::MAX, None, None).solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Domain, Expr, Model};

    #[test]
    fn csa_solves_quadratic() {
        // minimize (x-7)^2 = x^2 - 14x + 49 over [0, 20]
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 20 });
        m.objective = Expr::Add(vec![
            Expr::Mul(vec![Expr::Var(x), Expr::Var(x)]),
            Expr::Mul(vec![Expr::Const(-14.0), Expr::Var(x)]),
            Expr::Const(49.0),
        ]);
        let s = solve_csa_impl(&m, &CsaOptions::quick(5));
        assert!(s.feasible);
        assert_eq!(s.point[0], 7, "{s}");
    }

    #[test]
    fn csa_respects_constraints() {
        // maximize x (minimize -x) with x ≤ 12
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Mul(vec![Expr::Const(-1.0), Expr::Var(x)]);
        m.add_constraint("cap", Expr::Var(x), ConstraintOp::Le, 12.0);
        let s = solve_csa_impl(&m, &CsaOptions::quick(11));
        assert!(s.feasible);
        assert!(s.point[0] <= 12);
        assert!(
            s.point[0] >= 10,
            "should get close to 12, got {}",
            s.point[0]
        );
    }

    #[test]
    fn csa_deterministic_for_seed() {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 50 });
        m.objective = Expr::Var(x);
        let a = solve_csa_impl(&m, &CsaOptions::quick(3));
        let b = solve_csa_impl(&m, &CsaOptions::quick(3));
        assert_eq!(a.point, b.point);
    }

    #[test]
    fn csa_segmented_stepping_matches_one_shot() {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Mul(vec![Expr::Const(-1.0), Expr::Var(x)]);
        m.add_constraint("cap", Expr::Var(x), ConstraintOp::Le, 37.0);
        let opts = CsaOptions::quick(17);
        let compiled = CompiledModel::compile(&m);
        let mut one = CsaTask::new(&m, &opts, u64::MAX, &compiled);
        while !one.step(u64::MAX, &mut Noop) {}
        let mut sliced = CsaTask::new(&m, &opts, u64::MAX, &compiled);
        while !sliced.step(101, &mut Noop) {}
        let a = one.result();
        let b = sliced.result();
        assert_eq!(a.point, b.point);
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.iters, b.iters);
    }

    #[test]
    fn csa_respects_eval_budget() {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Var(x);
        let compiled = CompiledModel::compile(&m);
        let mut task = CsaTask::new(&m, &CsaOptions::quick(4), 500, &compiled);
        while !task.step(u64::MAX, &mut Noop) {}
        let r = task.result();
        assert!(r.evals <= 500);
        assert_eq!(r.termination, Termination::EvalBudget);
    }

    #[test]
    fn a_cut_chain_reports_the_moves_it_attempted() {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Var(x);
        let opts = crate::SolveOptions::new(4)
            .strategy(crate::Strategy::Csa)
            .csa(CsaOptions::quick(4))
            .max_evals(500)
            .telemetry(true);
        let out = crate::solve(&m, &opts);
        let report = out.report.expect("telemetry on");
        let trace = &report.traces[0];
        assert_eq!(trace.termination, Termination::EvalBudget);
        assert_eq!(out.solution.iterations, trace.iterations);
        assert_eq!(report.total_iterations, trace.iterations);
        assert!(trace.iterations < 120 * 120, "{} moves", trace.iterations);
    }

    #[test]
    fn multiplier_lane_read_is_bit_identical_to_scalar() {
        // the multiplier branch reads violations and the Lagrangian from a
        // one-lane batch staged at the committed point; pin bit-identity
        // against the scalar committed reads, and those against the tree
        // walker, at a point that violates some constraints and
        // satisfies others
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        let y = m.add_var("y", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Add(vec![
            Expr::CeilDiv(Box::new(Expr::Const(900.0)), Box::new(Expr::Var(x))),
            Expr::Mul(vec![Expr::Var(x), Expr::Var(y)]),
        ]);
        m.add_constraint("lo_x", Expr::Var(x), ConstraintOp::Ge, 10.0);
        m.add_constraint("cap_y", Expr::Var(y), ConstraintOp::Le, 90.0);
        m.add_constraint(
            "mix",
            Expr::Mul(vec![Expr::Const(3.0), Expr::Var(y)]),
            ConstraintOp::Ge,
            7.0,
        );
        let compiled = CompiledModel::compile(&m);
        let point = [3i64, 1];
        let lambda = [1.0f64, 2.5, 0.75];
        let mut eval = compiled.evaluator(&point);
        let scalar: Vec<u64> = (0..lambda.len())
            .map(|k| eval.violation_norm(k).to_bits())
            .collect();
        for (k, c) in m.constraints().iter().enumerate() {
            assert_eq!(scalar[k], c.violation_norm(&point).to_bits(), "tree {k}");
        }
        let scalar_lag = lag_committed(&eval, &lambda, 1.0).to_bits();
        let committed = eval.point()[0];
        eval.probe_batch(0, &[committed]);
        for (k, &bits) in scalar.iter().enumerate() {
            assert_eq!(eval.batch_violation_norm(0, k).to_bits(), bits, "lane {k}");
        }
        assert_eq!(lag_batch(&eval, 0, &lambda, 1.0).to_bits(), scalar_lag);
    }

    #[test]
    fn csa_multiplier_moves_keep_backends_in_lockstep() {
        // starts violated (x = lower corner 0 breaks `5 - x ≤ 0`), so
        // multiplier moves fire from the first level. The pinned outcome
        // is the tree-walk run's, recorded while a tree-walk backend still
        // existed and ran in lockstep with this one
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 100 });
        m.objective = Expr::Var(x);
        m.add_constraint(
            "min",
            Expr::Sub(Box::new(Expr::Const(5.0)), Box::new(Expr::Var(x))),
            ConstraintOp::Le,
            0.0,
        );
        let compiled = CompiledModel::compile(&m);
        let mut task = CsaTask::new(&m, &CsaOptions::quick(23), u64::MAX, &compiled);
        while !task.step(u64::MAX, &mut Noop) {}
        let r = task.result();
        assert!(r.feasible, "walk should recover feasibility: {r:?}");
        assert_eq!(r.point, [5]);
        assert_eq!(r.objective.to_bits(), 5.0f64.to_bits());
        assert_eq!((r.evals, r.iters), (12_185, 14_400));
    }
}
