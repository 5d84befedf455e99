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
//! // CSA with telemetry returns a per-chain report too
//! let out = solve(
//!     &m,
//!     &SolveOptions::new(7).strategy(Strategy::Csa).telemetry(true),
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
pub mod model;
mod peephole;
pub mod telemetry;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use canon::{canonicalize, fingerprint_hex, CanonicalModel, Fnv64, CANON_VERSION};
pub use compiled::{CompiledModel, Evaluator};
pub use csa::CsaOptions;
pub use dlm::DlmOptions;
pub use model::{Constraint, ConstraintOp, Domain, Expr, Model, Solution, VarId};
pub use telemetry::{Improvement, RestartTrace, SolverReport, TapeStats, Termination};

/// A cooperative cancellation handle, polled by the solver drivers at the
/// same segment boundaries where the wall-clock deadline is.
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
    /// Exhaustive search (only for tiny models / tests).
    BruteForce,
}

impl Strategy {
    /// The strategy's command-line and wire name (`"dlm"`, `"csa"`,
    /// `"brute"`).
    ///
    /// ```
    /// use tce_solver::Strategy;
    ///
    /// assert_eq!("csa".parse(), Ok(Strategy::Csa));
    /// assert_eq!(Strategy::BruteForce.name().parse(), Ok(Strategy::BruteForce));
    /// assert_eq!("brute_force".parse(), Ok(Strategy::BruteForce));
    /// assert!("genetic".parse::<Strategy>().is_err());
    /// assert!("portfolio".parse::<Strategy>().is_err());
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Dlm => "dlm",
            Strategy::Csa => "csa",
            Strategy::BruteForce => "brute",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses a [`Strategy::name`]; `brute_force` is also accepted for
    /// [`Strategy::BruteForce`].
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "dlm" => Ok(Strategy::Dlm),
            "csa" => Ok(Strategy::Csa),
            "brute" | "brute_force" => Ok(Strategy::BruteForce),
            _ => Err(format!("unknown strategy `{s}`")),
        }
    }
}

/// Options shared by every strategy; built fluently.
///
/// ```
/// use std::time::Duration;
/// use tce_solver::{SolveOptions, Strategy};
///
/// let opts = SolveOptions::new(2004)
///     .strategy(Strategy::Csa)
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
    /// Wall-clock deadline for the whole solve. Polled at segment
    /// boundaries, so expiry cuts the search short within one segment.
    /// This is the single intentionally non-deterministic control: *when*
    /// it fires depends on machine speed. Ignored by brute force.
    pub deadline: Option<Duration>,
    /// Global cap on objective/Lagrangian evaluations across all tasks.
    /// `None` means each strategy's own per-task defaults apply. CSA
    /// stops at it exactly; DLM applies it to each restart's descent, at
    /// iteration granularity, and bounds the polish phase by
    /// `max_iters` alone, so its total can exceed the cap. Ignored by
    /// brute force.
    pub max_evals: Option<u64>,
    /// Worker threads (`0` = all available cores): the pool that runs
    /// [`Strategy::Dlm`]'s restarts (at most one thread per restart; `1`
    /// runs them one after another on the calling thread). The answer
    /// does not depend on this value, only the wall-clock does.
    pub threads: usize,
    /// Record per-restart traces and return a [`SolverReport`]. Off by
    /// default; when off the hooks compile to nothing.
    pub telemetry: bool,
    /// DLM options (`None` = [`DlmOptions::new`] with [`Self::seed`]).
    pub dlm: Option<DlmOptions>,
    /// CSA options (`None` = [`CsaOptions::new`] with [`Self::seed`]).
    pub csa: Option<CsaOptions>,
    /// Cooperative cancellation handle, polled alongside the deadline at
    /// segment boundaries. Like the deadline this only controls
    /// *when* the search stops, never which points it visits — but unlike
    /// the deadline it is excluded from `tce-cache`'s config digest, so a
    /// canceled solve must be discarded rather than cached. Ignored by
    /// brute force.
    pub cancel: Option<CancelToken>,
}

impl SolveOptions {
    /// Defaults: DLM strategy, no deadline/budget, all cores, telemetry
    /// off.
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

/// What a strategy's driver hands [`solve`]: the best point plus the
/// parts of a [`SolverReport`] only the driver knows.
pub(crate) struct Run {
    pub solution: Solution,
    /// Index into `traces` of the winning restart or chain.
    pub winner: usize,
    /// Worker threads the search ran on.
    pub threads: usize,
    /// One trace per restart or chain; empty without telemetry.
    pub traces: Vec<RestartTrace>,
    /// Peephole before/after tape statistics (`None` for brute force,
    /// which never compiles a tape).
    pub tape: Option<TapeStats>,
}

impl Run {
    /// The run of a strategy with one task (CSA, brute force): its result
    /// is the answer, and its trace the only one when `recorder` is set.
    fn single(
        model: &Model,
        label: &str,
        result: dlm::RestartResult,
        recorder: Option<telemetry::Recorder>,
        tape: Option<TapeStats>,
    ) -> Run {
        Run {
            traces: recorder
                .map(|rec| result.trace(label.to_string(), model, &rec))
                .into_iter()
                .collect(),
            solution: Solution {
                point: result.point,
                objective: result.objective,
                feasible: result.feasible,
                evals: result.evals,
                iterations: result.iters,
            },
            winner: 0,
            threads: 1,
            tape,
        }
    }
}

/// Solves `model` with the strategy selected in `opts`.
///
/// See the crate-level example. This is the single entry point all
/// in-tree callers (synthesis, CLI, benches) go through. Brute force
/// ignores the deadline, the budget and the cancel token: enumeration is
/// all-or-nothing (and refuses huge spaces).
pub fn solve(model: &Model, opts: &SolveOptions) -> SolveOutcome {
    let started = Instant::now();
    let deadline = opts.deadline.map(|d| started + d);
    let run = match opts.strategy {
        Strategy::Dlm => {
            let mut dlm_opts = opts
                .dlm
                .clone()
                .unwrap_or_else(|| DlmOptions::new(opts.seed));
            if let Some(budget) = opts.max_evals {
                dlm_opts.max_evals = budget;
            }
            dlm::run_dlm(
                model,
                &dlm_opts,
                dlm::resolve_threads(opts.threads),
                opts.telemetry,
                deadline,
                opts.cancel.as_ref(),
            )
        }
        Strategy::Csa => {
            let csa_opts = opts
                .csa
                .clone()
                .unwrap_or_else(|| CsaOptions::new(opts.seed));
            csa::run_csa(
                model,
                &csa_opts,
                opts.telemetry,
                opts.max_evals.unwrap_or(u64::MAX),
                deadline,
                opts.cancel.as_ref(),
            )
        }
        Strategy::BruteForce => Run::single(
            model,
            "brute",
            brute::run_brute(model),
            opts.telemetry.then(telemetry::Recorder::default),
            None,
        ),
    };
    let report = opts.telemetry.then(|| SolverReport {
        strategy: opts.strategy.name(),
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
