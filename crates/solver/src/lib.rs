//! A discrete constrained nonlinear solver in the style of the DCS package
//! the paper uses (Wah & Wang's Discrete Constrained Search, UIUC).
//!
//! The paper formulates out-of-core code generation as a nonlinear
//! minimization over integer tile sizes and 0/1 placement variables,
//! subject to a memory-limit constraint, `λ(1−λ)=0` constraints and minimum
//! I/O block-size constraints, then feeds it to DCS in AMPL form (Sec. 4.2).
//! DCS itself is closed source; this crate re-implements the published
//! method it is built on:
//!
//! * [`model`] — an AMPL-like in-memory model: integer/binary variables,
//!   a nonlinear objective, equality/inequality constraints. The
//!   [`ampl`] module renders the model in AMPL syntax for inspection so
//!   the mapping to the paper's encoding stays visible.
//! * [`dlm`] — the Discrete Lagrange-Multiplier method: discrete descent
//!   on `L(x, λ) = f(x) + Σ λ_j · viol_j(x)`, raising multipliers at
//!   infeasible local minima, with multistart.
//! * [`csa`] — Constrained Simulated Annealing, the stochastic variant
//!   (Wah & Wang 1999): Metropolis moves in the joint `(x, λ)` space.
//! * [`portfolio`] — both of the above fanned out across a thread pool
//!   with a shared incumbent, a wall-clock deadline and a global
//!   evaluation budget; deterministic for a fixed seed.
//! * [`brute`] — exhaustive enumeration for small models, used to verify
//!   the other solvers in tests.
//! * [`telemetry`] — per-restart progress traces and the
//!   [`SolverReport`] rendered by `tce … --explain`.
//!
//! The solvers only require the model to be *evaluable*, not
//! differentiable, exactly like DCS.
//!
//! # The unified entry point
//!
//! All strategies are driven through [`solve`] with a [`SolveOptions`]:
//!
//! ```
//! use tce_solver::{solve, ConstraintOp, Domain, Expr, Model, SolveOptions, Strategy};
//!
//! // minimize ceil(100 / t) subject to t ≤ 17
//! let mut m = Model::new();
//! let t = m.add_var("t", Domain::Int { lo: 1, hi: 100 });
//! m.objective = Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t)));
//! m.add_constraint("cap", Expr::Var(t), ConstraintOp::Le, 17.0);
//!
//! let out = solve(&m, &SolveOptions::new(7));
//! assert!(out.solution.feasible);
//! assert_eq!(out.solution.objective, 6.0);
//!
//! // the portfolio with telemetry returns a per-task report too
//! let out = solve(
//!     &m,
//!     &SolveOptions::new(7).strategy(Strategy::Portfolio).telemetry(true),
//! );
//! assert_eq!(out.solution.objective, 6.0);
//! assert!(out.report.is_some());
//! ```

#![warn(missing_docs)]

pub mod ampl;
pub mod brute;
pub mod canon;
pub mod compiled;
pub mod csa;
pub mod dlm;
pub mod eval;
pub mod model;
mod peephole;
pub mod portfolio;
pub mod telemetry;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use canon::{canonicalize, fingerprint_hex, CanonicalModel, Fnv64, CANON_VERSION};
pub use compiled::{CompiledModel, Evaluator};
pub use csa::CsaOptions;
pub use dlm::DlmOptions;
pub use eval::EvalBackend;
pub use model::{Constraint, ConstraintOp, Domain, Expr, Model, Solution, VarId};
pub use telemetry::{Improvement, RestartTrace, SolverReport, TapeStats, Termination};

/// A cooperative cancellation handle, polled by the solver drivers at the
/// same segment/round boundaries where the wall-clock deadline is.
///
/// Clones share one flag: any clone's [`CancelToken::cancel`] stops every
/// solve holding a clone. A token may also carry its own absolute
/// deadline, so an embedder can impose a *job*-level timeout without
/// changing [`SolveOptions::deadline`] (which is part of the cache
/// identity of a request — see `tce-cache`). A canceled task terminates
/// with [`Termination::Canceled`]; its partial result must not be treated
/// as the solve's answer.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation on every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] was called or the embedded
    /// deadline passed.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline_expired()
    }

    /// True when this token carries a deadline and it has passed —
    /// distinguishes a job timeout from an explicit cancel.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// The embedded deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// A clone sharing this token's cancel flag that additionally trips
    /// once `deadline` passes (the earlier deadline wins if this token
    /// already carries one). Lets an embedder hand out one long-lived
    /// cancel handle and derive per-attempt deadline tokens from it.
    pub fn and_deadline(&self, deadline: Instant) -> CancelToken {
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(self.deadline.map_or(deadline, |d| d.min(deadline))),
        }
    }

    /// True when cancellation was requested explicitly via
    /// [`CancelToken::cancel`] (as opposed to a deadline expiry).
    pub fn explicitly_canceled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Strategy selector for the unified [`solve`] entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Discrete Lagrange-multiplier descent (the default, fast and robust
    /// on the synthesis models).
    Dlm,
    /// Constrained simulated annealing (stochastic; slower, occasionally
    /// escapes basins DLM cannot).
    Csa,
    /// DLM restarts and CSA chains raced on a thread pool with a shared
    /// incumbent, deadline and evaluation budget. Never worse than
    /// [`Strategy::Dlm`] for the same options, and deterministic for a
    /// fixed seed regardless of thread count.
    Portfolio,
    /// Exhaustive search (only for tiny models / tests).
    BruteForce,
}

/// Options shared by every strategy; built fluently.
///
/// ```
/// use std::time::Duration;
/// use tce_solver::{SolveOptions, Strategy};
///
/// let opts = SolveOptions::new(2004)
///     .strategy(Strategy::Portfolio)
///     .deadline(Duration::from_secs(5))
///     .max_evals(2_000_000)
///     .threads(4)
///     .telemetry(true);
/// assert_eq!(opts.seed, 2004);
/// ```
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Which solver to run.
    pub strategy: Strategy,
    /// RNG seed; every derived task seed is a pure function of it.
    pub seed: u64,
    /// Wall-clock deadline for the whole solve. Polled at segment/round
    /// boundaries, so expiry cuts the search short within one segment.
    /// This is the single intentionally non-deterministic control: *when*
    /// it fires depends on machine speed. Ignored by brute force.
    pub deadline: Option<Duration>,
    /// Global cap on objective/Lagrangian evaluations across all tasks.
    /// `None` means each strategy's own per-task defaults apply.
    /// Enforced at iteration granularity: the total can overshoot by at
    /// most one neighbourhood scan per task. Ignored by brute force.
    pub max_evals: Option<u64>,
    /// Worker threads (`0` = all available cores): the pool that runs
    /// [`Strategy::Dlm`]'s restarts (at most one thread per restart; `1`
    /// runs them one after another on the calling thread) and
    /// [`Strategy::Portfolio`]'s tasks. The answer does not depend on this
    /// value, only the wall-clock does.
    pub threads: usize,
    /// Record per-restart traces and return a [`SolverReport`]. Off by
    /// default; when off the hooks compile to nothing.
    pub telemetry: bool,
    /// DLM options (`None` = [`DlmOptions::new`] with [`Self::seed`]).
    pub dlm: Option<DlmOptions>,
    /// CSA options (`None` = [`CsaOptions::new`] with [`Self::seed`]).
    pub csa: Option<CsaOptions>,
    /// Number of CSA chains the portfolio adds next to the DLM restarts.
    pub csa_chains: usize,
    /// Evaluations each portfolio task advances per scheduling round.
    /// Smaller segments share incumbents (and hence prune) sooner; larger
    /// ones reduce barrier overhead. Part of the deterministic
    /// configuration, like the seed: for a fixed value the result is
    /// independent of thread count, but different values may prune CSA
    /// chains at different points.
    pub segment_evals: u64,
    /// Evaluation engine. [`EvalBackend::Compiled`] (the default) runs the
    /// flat-tape evaluator with delta moves; [`EvalBackend::TreeWalk`] the
    /// recursive oracle. Both yield bit-identical outcomes for the same
    /// seed — the choice affects speed only.
    pub eval: EvalBackend,
    /// Cooperative cancellation handle, polled alongside the deadline at
    /// segment/round boundaries. Like the deadline this only controls
    /// *when* the search stops, never which points it visits — but unlike
    /// the deadline it is excluded from `tce-cache`'s config digest, so a
    /// canceled solve must be discarded rather than cached. Ignored by
    /// brute force.
    pub cancel: Option<CancelToken>,
}

impl SolveOptions {
    /// Defaults: DLM strategy, no deadline/budget, all cores, telemetry
    /// off, two portfolio CSA chains.
    pub fn new(seed: u64) -> Self {
        SolveOptions {
            strategy: Strategy::Dlm,
            seed,
            deadline: None,
            max_evals: None,
            threads: 0,
            telemetry: false,
            dlm: None,
            csa: None,
            csa_chains: 2,
            segment_evals: 4_096,
            eval: EvalBackend::default(),
            cancel: None,
        }
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the global evaluation budget.
    pub fn max_evals(mut self, max_evals: u64) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Sets the worker thread count (`0` = all cores; see
    /// [`SolveOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables telemetry.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Overrides the DLM options.
    pub fn dlm(mut self, dlm: DlmOptions) -> Self {
        self.dlm = Some(dlm);
        self
    }

    /// Overrides the CSA options.
    pub fn csa(mut self, csa: CsaOptions) -> Self {
        self.csa = Some(csa);
        self
    }

    /// Sets the number of portfolio CSA chains.
    pub fn csa_chains(mut self, chains: usize) -> Self {
        self.csa_chains = chains;
        self
    }

    /// Sets the portfolio's per-round evaluation segment.
    pub fn segment_evals(mut self, segment: u64) -> Self {
        self.segment_evals = segment.max(1);
        self
    }

    /// Selects the evaluation engine (see [`SolveOptions::eval`]).
    pub fn eval_backend(mut self, eval: EvalBackend) -> Self {
        self.eval = eval;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions::new(2004)
    }
}

/// What [`solve`] returns: the best point plus an optional report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SolveOutcome {
    /// The best point found.
    pub solution: Solution,
    /// Per-task traces; `Some` iff [`SolveOptions::telemetry`] was set.
    pub report: Option<SolverReport>,
}

/// A solver strategy behind the unified options/outcome types.
///
/// The four built-in implementations are what [`solve`] dispatches to;
/// the trait is public so embedders can treat strategies uniformly
/// (e.g. iterate over `[&DlmSolver, &CsaSolver]` in an ablation).
pub trait Solver {
    /// Short name (`"dlm"`, `"csa"`, `"portfolio"`, `"brute"`).
    fn name(&self) -> &'static str;

    /// Runs the strategy on `model`.
    fn solve(&self, model: &Model, opts: &SolveOptions) -> SolveOutcome;
}

/// [`Strategy::Dlm`] as a [`Solver`].
pub struct DlmSolver;

impl Solver for DlmSolver {
    fn name(&self) -> &'static str {
        "dlm"
    }

    fn solve(&self, model: &Model, opts: &SolveOptions) -> SolveOutcome {
        let started = Instant::now();
        let mut dlm_opts = opts
            .dlm
            .clone()
            .unwrap_or_else(|| DlmOptions::new(opts.seed));
        if let Some(budget) = opts.max_evals {
            dlm_opts.max_evals = budget;
        }
        let deadline = opts.deadline.map(|d| started + d);
        let run = dlm::run_dlm(
            model,
            &dlm_opts,
            opts.eval,
            portfolio::resolve_threads(opts.threads),
            opts.telemetry,
            deadline,
            opts.cancel.as_ref(),
        );
        let report = opts.telemetry.then(|| SolverReport {
            strategy: "dlm",
            threads: run.threads,
            wall: started.elapsed(),
            total_evals: run.solution.evals,
            total_iterations: run.solution.iterations,
            winner: run.winner,
            tape: run.tape,
            traces: run.traces,
        });
        SolveOutcome {
            solution: run.solution,
            report,
        }
    }
}

/// [`Strategy::Csa`] as a [`Solver`].
pub struct CsaSolver;

impl Solver for CsaSolver {
    fn name(&self) -> &'static str {
        "csa"
    }

    fn solve(&self, model: &Model, opts: &SolveOptions) -> SolveOutcome {
        let started = Instant::now();
        let csa_opts = opts
            .csa
            .clone()
            .unwrap_or_else(|| CsaOptions::new(opts.seed));
        let budget = opts.max_evals.unwrap_or(u64::MAX);
        let deadline = opts.deadline.map(|d| started + d);
        let run = csa::run_csa(
            model,
            &csa_opts,
            opts.eval,
            opts.telemetry,
            budget,
            deadline,
            opts.cancel.as_ref(),
        );
        let report = opts.telemetry.then(|| SolverReport {
            strategy: "csa",
            threads: 1,
            wall: started.elapsed(),
            total_evals: run.solution.evals,
            total_iterations: run.solution.iterations,
            winner: 0,
            tape: run.tape,
            traces: run.traces,
        });
        SolveOutcome {
            solution: run.solution,
            report,
        }
    }
}

/// [`Strategy::BruteForce`] as a [`Solver`]. Deadlines and budgets are
/// ignored: enumeration is all-or-nothing (and refuses huge spaces).
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "brute"
    }

    fn solve(&self, model: &Model, opts: &SolveOptions) -> SolveOutcome {
        let started = Instant::now();
        let solution = brute::run_brute(model, opts.eval);
        let report = opts.telemetry.then(|| SolverReport {
            strategy: "brute",
            threads: 1,
            wall: started.elapsed(),
            total_evals: solution.evals,
            total_iterations: solution.iterations,
            winner: 0,
            tape: None,
            traces: vec![RestartTrace {
                label: "brute".to_string(),
                iterations: solution.iterations,
                evals: solution.evals,
                objective: solution.objective,
                feasible: solution.feasible,
                violation: model.violations(&solution.point).iter().sum(),
                max_multiplier: 0.0,
                improvements: Vec::new(),
                termination: Termination::Completed,
            }],
        });
        SolveOutcome { solution, report }
    }
}

/// [`Strategy::Portfolio`] as a [`Solver`].
pub struct PortfolioSolver;

impl Solver for PortfolioSolver {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn solve(&self, model: &Model, opts: &SolveOptions) -> SolveOutcome {
        let (solution, report) = portfolio::solve_portfolio(model, opts);
        SolveOutcome { solution, report }
    }
}

/// The [`Solver`] implementing `strategy`.
pub fn solver_for(strategy: Strategy) -> &'static dyn Solver {
    match strategy {
        Strategy::Dlm => &DlmSolver,
        Strategy::Csa => &CsaSolver,
        Strategy::Portfolio => &PortfolioSolver,
        Strategy::BruteForce => &BruteForceSolver,
    }
}

/// Solves `model` with the strategy selected in `opts`.
///
/// See the crate-level example. This is the single entry point all
/// in-tree callers (synthesis, CLI, benches) go through.
pub fn solve(model: &Model, opts: &SolveOptions) -> SolveOutcome {
    solver_for(opts.strategy).solve(model, opts)
}
