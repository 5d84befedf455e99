//! Discrete Lagrange-Multiplier (DLM) search.
//!
//! This is the published core of the DCS package the paper uses: minimize
//! the discrete Lagrangian
//!
//! ```text
//! L(x, λ) = f(x)/s_f + Σ_j λ_j · viol_j(x)
//! ```
//!
//! by best-improvement descent over a discrete neighbourhood of `x`; when
//! descent stalls at an infeasible point, increase the multipliers of the
//! violated constraints and continue. A feasible point where no neighbour
//! improves `L` is a constrained local minimum (a discrete saddle point),
//! which is returned. Multistart over random initial points guards against
//! poor basins.
//!
//! Each restart is implemented as a resumable state machine
//! (`DlmTask`): `step(quota)` advances the descent by roughly `quota`
//! Lagrangian evaluations and returns, preserving every bit of state, so
//! a deadline or cancel token can be polled between segments.
//! `run_dlm` drives whole restarts on a small worker pool. Because a
//! task's trajectory depends only on its own state, neither segmentation
//! nor scheduling changes the result.

use crate::compiled::{CompiledModel, Evaluator};
use crate::model::{Domain, Model, Solution, FEAS_TOL};
use crate::telemetry::{Noop, Recorder, RestartTrace, Sink, Termination};
use crate::Run;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Options for the DLM strategy.
#[derive(Clone, Debug)]
pub struct DlmOptions {
    /// RNG seed for the multistart initial points.
    pub seed: u64,
    /// Number of descent restarts (the first starts from the
    /// all-lower-bounds corner, the rest from random points).
    pub restarts: usize,
    /// Maximum descent moves per restart.
    pub max_iters: u64,
    /// Global budget of Lagrangian evaluations across all restarts.
    pub max_evals: u64,
    /// Initial multiplier value.
    pub lambda_init: f64,
    /// Multiplicative multiplier growth at infeasible local minima.
    pub lambda_growth: f64,
    /// Consecutive multiplier updates without any accepted move before a
    /// restart is abandoned.
    pub max_stalled_updates: u32,
}

impl DlmOptions {
    /// Default options with the given seed.
    pub fn new(seed: u64) -> Self {
        DlmOptions {
            seed,
            restarts: 8,
            max_iters: 20_000,
            max_evals: 5_000_000,
            lambda_init: 1.0,
            lambda_growth: 2.0,
            max_stalled_updates: 60,
        }
    }

    /// A cheaper configuration for very small models (tests).
    pub fn quick(seed: u64) -> Self {
        DlmOptions {
            restarts: 3,
            max_iters: 2_000,
            max_evals: 200_000,
            ..DlmOptions::new(seed)
        }
    }
}

/// Candidate moves for one variable from value `v`.
///
/// Small domains are enumerated exhaustively; large (tile-size) domains use
/// a multiplicative ladder plus "bucket boundary" values `⌈hi/m⌉` that
/// maximize the tile within the current/adjacent tile counts.
fn var_moves(domain: Domain, v: i64, out: &mut Vec<i64>) {
    out.clear();
    let (lo, hi) = domain.bounds();
    if hi - lo <= 16 {
        for cand in lo..=hi {
            if cand != v {
                out.push(cand);
            }
        }
        return;
    }
    let mut push = |cand: i64| {
        let c = cand.clamp(lo, hi);
        if c != v && !out.contains(&c) {
            out.push(c);
        }
    };
    push(v + 1);
    push(v - 1);
    push(v * 2);
    push(v / 2);
    push(lo);
    push(hi);
    // bucket boundaries: the largest tile with the same / adjacent number
    // of tiles, assuming the full range is `hi` (true for tile variables)
    if v > 0 {
        let m = (hi + v - 1) / v; // ceil(hi / v) = current tile count
        if m > 0 {
            push((hi + m - 1) / m); // top of the current bucket
            push((hi + m) / (m + 1)); // top of the next bucket
            if m > 1 {
                push((hi + m - 2) / (m - 1)); // top of the previous bucket
            }
        }
    }
}

/// The Lagrangian bookkeeping: multipliers, the objective scale, and the
/// evaluation counter. Model values come from the task's [`Evaluator`],
/// so multiplier updates read cached per-constraint violations instead of
/// re-walking expression trees.
struct Lagrangian {
    lambda: Vec<f64>,
    f_scale: f64,
    evals: u64,
}

impl Lagrangian {
    fn new(lambda_init: f64, num_constraints: usize, f0: f64) -> Self {
        Lagrangian {
            lambda: vec![lambda_init; num_constraints],
            f_scale: f0.abs().max(1.0),
            evals: 0,
        }
    }

    /// `L(x, λ)` at the evaluator's committed point.
    fn value(&mut self, eval: &Evaluator<'_>) -> f64 {
        self.evals += 1;
        let f = eval.objective() / self.f_scale;
        let penalty: f64 = self
            .lambda
            .iter()
            .enumerate()
            .map(|(j, &l)| l * eval.violation_norm(j))
            .sum();
        f + penalty
    }

    /// `L(x_l, λ)` for lane `l` of the evaluator's staged batch probe.
    /// Does not count: batched scans account for their probes in bulk
    /// (one `evals += lanes` per scan), which equals counting every
    /// candidate.
    fn value_batch(&self, eval: &Evaluator<'_>, l: usize) -> f64 {
        let f = eval.batch_objective(l) / self.f_scale;
        let penalty: f64 = self
            .lambda
            .iter()
            .enumerate()
            .map(|(j, &lam)| lam * eval.batch_violation_norm(l, j))
            .sum();
        f + penalty
    }

    /// Raises multipliers on violated constraints; returns true if any
    /// constraint was violated.
    fn raise_multipliers(&mut self, eval: &Evaluator<'_>, growth: f64) -> bool {
        let mut any = false;
        for (j, l) in self.lambda.iter_mut().enumerate() {
            let v = eval.violation_norm(j);
            if v > FEAS_TOL {
                *l = *l * growth + v;
                any = true;
            }
        }
        any
    }

    fn max_multiplier(&self) -> f64 {
        self.lambda.iter().fold(0.0f64, |a, &l| a.max(l.abs()))
    }
}

fn random_point(model: &Model, rng: &mut StdRng) -> Vec<i64> {
    model
        .vars()
        .iter()
        .map(|v| {
            let (lo, hi) = v.domain.bounds();
            if hi - lo <= 16 {
                rng.random_range(lo..=hi)
            } else {
                // log-uniform over the span, biased toward realistic tiles
                let span = (hi - lo) as f64;
                let u: f64 = rng.random();
                lo + (span.powf(u) as i64).clamp(0, hi - lo)
            }
        })
        .collect()
}

/// Outcome of one DLM restart, one CSA chain or one brute-force
/// enumeration.
#[derive(Clone, Debug)]
pub(crate) struct RestartResult {
    pub point: Vec<i64>,
    pub objective: f64,
    pub feasible: bool,
    pub evals: u64,
    pub iters: u64,
    pub termination: Termination,
}

impl RestartResult {
    /// The total order used to pick winners: feasible beats infeasible,
    /// then lower objective, then lexicographically smaller point (task
    /// index breaks the final tie at the call sites). Never arrival time.
    pub(crate) fn cmp_quality(&self, other: &Self) -> std::cmp::Ordering {
        other
            .feasible
            .cmp(&self.feasible)
            .then(self.objective.total_cmp(&other.objective))
            .then_with(|| self.point.cmp(&other.point))
    }

    /// The telemetry trace of this result, with the events `recorder`
    /// collected while the task ran.
    pub(crate) fn trace(&self, label: String, model: &Model, recorder: &Recorder) -> RestartTrace {
        RestartTrace {
            label,
            iterations: self.iters,
            evals: self.evals,
            objective: self.objective,
            feasible: self.feasible,
            // tree walk: once per task summary, off the eval hot path
            violation: model.violations(&self.point).iter().sum(),
            max_multiplier: recorder.max_multiplier,
            improvements: recorder.improvements.clone(),
            termination: self.termination,
        }
    }
}

/// A polish-phase candidate: one or two coordinated moves plus the
/// objective they reach. Fixed-size so the scan never allocates.
#[derive(Clone, Copy)]
struct PolishMove {
    mv: [(usize, i64); 2],
    len: u8,
    val: f64,
}

/// Best-improvement scan of the single-variable Lagrangian neighbourhood,
/// one batched probe per variable. Returns the winning
/// `(var, candidate, value)` plus the number of candidates evaluated. A
/// candidate wins iff it clears the fixed threshold `cur − 1e-12` AND
/// strictly beats the best so far, so the winner is the first minimum in
/// `(var, candidate)` order.
fn scan_descent(
    model: &Model,
    live: &[bool],
    lag: &Lagrangian,
    cur: f64,
    eval: &mut Evaluator<'_>,
    moves: &mut Vec<i64>,
) -> (Option<(usize, i64, f64)>, u64) {
    let mut best: Option<(usize, i64, f64)> = None;
    let mut count = 0u64;
    for (vi, &live_i) in live.iter().enumerate() {
        if !live_i {
            continue; // cannot change L(x, λ) — skip the probes
        }
        let old = eval.point()[vi];
        var_moves(model.vars()[vi].domain, old, moves);
        if moves.is_empty() {
            continue;
        }
        eval.probe_batch(vi, moves);
        count += moves.len() as u64;
        for (l, &mv) in moves.iter().enumerate() {
            let val = lag.value_batch(eval, l);
            if val + 1e-12 < cur && best.is_none_or(|(_, _, b)| val < b) {
                best = Some((vi, mv, val));
            }
        }
    }
    (best, count)
}

/// Feasible single-move scan of the polish phase; same
/// threshold-plus-strict-minimum acceptance as the descent scan (with the
/// polish epsilon `1e-9`).
fn scan_polish_singles(
    model: &Model,
    live: &[bool],
    cur: f64,
    eval: &mut Evaluator<'_>,
    moves: &mut Vec<i64>,
) -> (Option<PolishMove>, u64) {
    let mut best: Option<PolishMove> = None;
    let mut count = 0u64;
    for (vi, &live_i) in live.iter().enumerate() {
        if !live_i {
            continue;
        }
        let old = eval.point()[vi];
        var_moves(model.vars()[vi].domain, old, moves);
        if moves.is_empty() {
            continue;
        }
        eval.probe_batch(vi, moves);
        count += moves.len() as u64;
        for (l, &mv) in moves.iter().enumerate() {
            if !eval.batch_is_feasible(l, FEAS_TOL) {
                continue;
            }
            let val = eval.batch_objective(l);
            if val + 1e-9 < cur && best.is_none_or(|b| val < b.val) {
                best = Some(PolishMove {
                    mv: [(vi, mv), (0, 0)],
                    len: 1,
                    val,
                });
            }
        }
    }
    (best, count)
}

/// Feasible paired-move scan of the polish phase: the first move of the
/// pair is staged once as an ordinary probe (cost-free — only candidate
/// lanes are counted), then each partner variable's candidates evaluate
/// in one stacked batch over that overlay.
fn scan_polish_pairs(
    model: &Model,
    live: &[bool],
    cur: f64,
    eval: &mut Evaluator<'_>,
    moves: &mut Vec<i64>,
    moves2: &mut Vec<i64>,
) -> (Option<PolishMove>, u64) {
    let mut best: Option<PolishMove> = None;
    let mut count = 0u64;
    for (vi, &live_i) in live.iter().enumerate() {
        if !live_i {
            continue;
        }
        let old_i = eval.point()[vi];
        var_moves(model.vars()[vi].domain, old_i, moves);
        for &ci in moves.iter() {
            eval.probe(&[(vi, ci)]);
            for (vj, &live_j) in live.iter().enumerate() {
                if vj == vi || !live_j {
                    continue;
                }
                let old_j = eval.point()[vj];
                var_moves(model.vars()[vj].domain, old_j, moves2);
                if moves2.is_empty() {
                    continue;
                }
                eval.probe_batch_over(vj, moves2);
                count += moves2.len() as u64;
                for (l, &cj) in moves2.iter().enumerate() {
                    if !eval.batch_is_feasible(l, FEAS_TOL) {
                        continue;
                    }
                    let val = eval.batch_objective(l);
                    if val + 1e-9 < cur && best.is_none_or(|b| val < b.val) {
                        best = Some(PolishMove {
                            mv: [(vi, ci), (vj, cj)],
                            len: 2,
                            val,
                        });
                    }
                }
            }
        }
    }
    (best, count)
}

enum Phase {
    Descent,
    Polish,
    Done,
}

/// One DLM restart as a resumable state machine: descent on the
/// Lagrangian, then (from a feasible endpoint) pure feasible descent with
/// paired moves ("polish").
pub(crate) struct DlmTask<'m> {
    model: &'m Model,
    max_iters: u64,
    lambda_growth: f64,
    max_stalled_updates: u32,
    /// Lagrangian-evaluation budget for the descent phase (the polish
    /// phase is bounded by `max_iters`, like the original method).
    budget: u64,
    eval: Evaluator<'m>,
    lag: Lagrangian,
    /// `live[v]` — whether variable `v` appears in the objective or any
    /// constraint. Computed once per task (no per-iteration
    /// [`Expr::vars`](crate::model::Expr::vars) allocation); dead
    /// variables cannot change `L`, so the scans skip them. Taken from
    /// the expression trees rather than the tape's dependency index for
    /// trajectory stability: folding drops the selector of a `Select`
    /// whose options fold to identical bits, and skipping that variable
    /// would change the probe sequence, and with it eval counts and plan
    /// bits.
    live: Vec<bool>,
    cur: f64,
    stalled: u32,
    iters: u64,
    /// Objective evaluations performed by the polish phase.
    extra_evals: u64,
    moves: Vec<i64>,
    moves2: Vec<i64>,
    phase: Phase,
    polish_cur: f64,
    polish_left: u64,
    termination: Termination,
    best_feasible: Option<f64>,
}

impl<'m> DlmTask<'m> {
    pub(crate) fn new(
        model: &'m Model,
        opts: &DlmOptions,
        restart: usize,
        budget: u64,
        compiled: &'m CompiledModel,
    ) -> Self {
        let mut x = if restart == 0 {
            model.lower_corner()
        } else {
            let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
            random_point(model, &mut rng)
        };
        model.clamp(&mut x);
        let eval = compiled.evaluator(&x);
        let mut lag = Lagrangian::new(
            opts.lambda_init,
            model.constraints().len(),
            eval.objective(),
        );
        let cur = lag.value(&eval);
        let mut live = vec![false; model.num_vars()];
        let mut used = Vec::new();
        model.objective.collect_vars_into(&mut used);
        for c in model.constraints() {
            c.expr.collect_vars_into(&mut used);
        }
        for v in used {
            live[v.as_usize()] = true;
        }
        DlmTask {
            model,
            max_iters: opts.max_iters,
            lambda_growth: opts.lambda_growth,
            max_stalled_updates: opts.max_stalled_updates,
            budget,
            eval,
            lag,
            live,
            cur,
            stalled: 0,
            iters: 0,
            extra_evals: 0,
            moves: Vec::new(),
            moves2: Vec::new(),
            phase: Phase::Descent,
            polish_cur: 0.0,
            polish_left: 0,
            termination: Termination::Completed,
            best_feasible: None,
        }
    }

    pub(crate) fn evals(&self) -> u64 {
        self.lag.evals + self.extra_evals
    }

    pub(crate) fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Stops the task where it stands (deadline expiry).
    pub(crate) fn abort(&mut self, termination: Termination) {
        if !self.is_done() {
            self.termination = termination;
            self.phase = Phase::Done;
        }
    }

    /// Advances by roughly `quota` evaluations (the check runs at
    /// iteration granularity, so one long polish scan can overshoot).
    /// Returns true when the task is finished.
    pub(crate) fn step<S: Sink>(&mut self, quota: u64, sink: &mut S) -> bool {
        let stop = self.evals().saturating_add(quota);
        loop {
            match self.phase {
                Phase::Done => return true,
                Phase::Descent => self.descent_tick(sink),
                Phase::Polish => self.polish_tick(sink),
            }
            if self.is_done() {
                return true;
            }
            if self.evals() >= stop {
                return false;
            }
        }
    }

    /// One best-improvement move over the single-variable neighbourhood,
    /// scanned with batched probes.
    fn descent_tick<S: Sink>(&mut self, sink: &mut S) {
        if self.iters >= self.max_iters {
            self.finish_descent(Termination::IterLimit, sink);
            return;
        }
        if self.lag.evals >= self.budget {
            self.finish_descent(Termination::EvalBudget, sink);
            return;
        }
        let (best_move, count) = scan_descent(
            self.model,
            &self.live,
            &self.lag,
            self.cur,
            &mut self.eval,
            &mut self.moves,
        );
        self.lag.evals += count;
        match best_move {
            Some((vi, cand, val)) => {
                self.eval.commit(&[(vi, cand)]);
                self.cur = val;
                self.iters += 1;
                self.stalled = 0;
                // interleaved dual ascent: track the constraints while
                // the primal walk is in infeasible territory, so the
                // penalty cannot fall arbitrarily behind the objective
                if self.lag.raise_multipliers(&self.eval, 1.0) {
                    self.cur = self.lag.value(&self.eval);
                    if S::ENABLED {
                        sink.multipliers(self.lag.max_multiplier());
                    }
                }
            }
            None => {
                // local minimum of L(·, λ)
                if self.eval.is_feasible(FEAS_TOL) {
                    self.finish_descent(Termination::LocalMinimum, sink);
                    return;
                }
                if !self.lag.raise_multipliers(&self.eval, self.lambda_growth) {
                    // numerically feasible
                    self.finish_descent(Termination::LocalMinimum, sink);
                    return;
                }
                if S::ENABLED {
                    sink.multipliers(self.lag.max_multiplier());
                }
                self.cur = self.lag.value(&self.eval);
                self.stalled += 1;
                if self.stalled > self.max_stalled_updates {
                    self.finish_descent(Termination::Stalled, sink);
                }
            }
        }
    }

    fn finish_descent<S: Sink>(&mut self, termination: Termination, sink: &mut S) {
        self.termination = termination;
        if self.eval.is_feasible(FEAS_TOL) {
            self.phase = Phase::Polish;
            self.polish_cur = self.eval.objective();
            self.extra_evals += 1;
            self.polish_left = self.max_iters;
            self.note_best(self.polish_cur, sink);
        } else {
            self.phase = Phase::Done;
        }
    }

    fn note_best<S: Sink>(&mut self, objective: f64, sink: &mut S) {
        if self.best_feasible.is_none_or(|b| objective < b) {
            self.best_feasible = Some(objective);
            if S::ENABLED {
                sink.improvement(self.evals(), objective, true);
            }
        }
    }

    /// One polish scan: greedy descent inside the feasible region using
    /// single-variable moves plus coordinated pairs (grow one variable
    /// while shrinking another — the move the memory constraint makes
    /// necessary for tile sizes). Only feasible neighbours with strictly
    /// better objective are accepted, so feasibility is invariant.
    /// Singles rank before pairs: a pair wins only by strictly beating
    /// the best single move.
    fn polish_tick<S: Sink>(&mut self, sink: &mut S) {
        if self.polish_left == 0 {
            self.termination = Termination::IterLimit;
            self.phase = Phase::Done;
            return;
        }
        let cur = self.polish_cur;
        let (best_single, c1) =
            scan_polish_singles(self.model, &self.live, cur, &mut self.eval, &mut self.moves);
        let (best_pair, c2) = scan_polish_pairs(
            self.model,
            &self.live,
            cur,
            &mut self.eval,
            &mut self.moves,
            &mut self.moves2,
        );
        self.extra_evals += c1 + c2;
        let best = match (best_single, best_pair) {
            (Some(s), Some(p)) => Some(if p.val < s.val { p } else { s }),
            (s, p) => s.or(p),
        };
        match best {
            Some(m) => {
                let mv = m.mv;
                self.eval.commit(&mv[..m.len as usize]);
                self.polish_cur = m.val;
                self.iters += 1;
                self.polish_left -= 1;
                self.note_best(m.val, sink);
            }
            None => self.phase = Phase::Done,
        }
    }

    pub(crate) fn result(&self) -> RestartResult {
        let feasible = self.eval.is_feasible(FEAS_TOL);
        let objective = self.eval.objective();
        RestartResult {
            point: self.eval.point().to_vec(),
            objective,
            feasible,
            evals: self.evals(),
            iters: self.iters,
            termination: self.termination,
        }
    }
}

/// A resumable search, one DLM restart or one CSA chain, as
/// [`drive_to_completion`] sees it.
pub(crate) trait Task {
    /// Advances by roughly `quota` evaluations; true once finished.
    fn step<S: Sink>(&mut self, quota: u64, sink: &mut S) -> bool;
    /// Stops the task where it stands.
    fn abort(&mut self, termination: Termination);
}

impl Task for DlmTask<'_> {
    fn step<S: Sink>(&mut self, quota: u64, sink: &mut S) -> bool {
        DlmTask::step(self, quota, sink)
    }

    fn abort(&mut self, termination: Termination) {
        DlmTask::abort(self, termination)
    }
}

/// Quota the drivers use between deadline checks.
const DEADLINE_SEGMENT: u64 = 8_192;

/// Drives one task to completion, polling `deadline` and `cancel`
/// between segments when either is set.
pub(crate) fn drive_to_completion<T: Task, S: Sink>(
    task: &mut T,
    deadline: Option<Instant>,
    cancel: Option<&crate::CancelToken>,
    sink: &mut S,
) {
    if deadline.is_none() && cancel.is_none() {
        while !task.step(u64::MAX, sink) {}
        return;
    }
    while !task.step(DEADLINE_SEGMENT, sink) {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            task.abort(Termination::Deadline);
            return;
        }
        if cancel.is_some_and(|c| c.is_canceled()) {
            task.abort(Termination::Canceled);
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    model: &Model,
    opts: &DlmOptions,
    restart: usize,
    budget: u64,
    compiled: &CompiledModel,
    telemetry: bool,
    deadline: Option<Instant>,
    cancel: Option<&crate::CancelToken>,
) -> (RestartResult, Recorder) {
    let mut task = DlmTask::new(model, opts, restart, budget, compiled);
    let mut recorder = Recorder::default();
    if telemetry {
        drive_to_completion(&mut task, deadline, cancel, &mut recorder);
    } else {
        drive_to_completion(&mut task, deadline, cancel, &mut Noop);
    }
    (task.result(), recorder)
}

/// Resolves `threads: 0` to the machine's available parallelism.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Runs all DLM restarts on `min(threads, restarts)` workers — the
/// calling thread plus scoped helpers — and aggregates the winner.
///
/// Workers claim restart indices in order from one counter. Each restart
/// seeds its own RNG from `seed + index`, and the winner is picked by
/// [`RestartResult::cmp_quality`], then index, so without a deadline or
/// cancel token the outcome is identical at any thread count.
///
/// The model is compiled once and the immutable tape shared by every
/// restart; each task owns its evaluator. A deadline is polled between
/// evaluation segments, and once it has expired no further restart is
/// claimed. Restart 0 always runs, and every claimed restart runs, so the
/// finished restarts are always a prefix `0..k`. A cancel token behaves
/// the same way, terminating tasks with [`Termination::Canceled`]
/// instead.
pub(crate) fn run_dlm(
    model: &Model,
    opts: &DlmOptions,
    threads: usize,
    telemetry: bool,
    deadline: Option<Instant>,
    cancel: Option<&crate::CancelToken>,
) -> Run {
    let restarts = opts.restarts.max(1);
    let budget = (opts.max_evals / restarts as u64).max(1);
    let compiled = &CompiledModel::compile(model);

    let stopped = || {
        deadline.is_some_and(|at| Instant::now() >= at) || cancel.is_some_and(|c| c.is_canceled())
    };
    // the stop check sits inside the claim, so every index handed out is
    // run: the finished restarts are always 0..k
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Ok(r) = next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
            (r < restarts && (r == 0 || !stopped())).then_some(r + 1)
        }) {
            let out = run_one(
                model, opts, r, budget, compiled, telemetry, deadline, cancel,
            );
            done.push((r, out));
        }
        done
    };
    let threads = threads.clamp(1, restarts);
    let mut finished = if threads == 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut all = work();
            for h in helpers {
                all.extend(h.join().expect("restart worker panicked"));
            }
            all
        })
    };
    finished.sort_unstable_by_key(|&(r, _)| r);
    let results: Vec<_> = finished.into_iter().map(|(_, out)| out).collect();

    let total_evals = results.iter().map(|(r, _)| r.evals).sum();
    let total_iters = results.iter().map(|(r, _)| r.iters).sum();
    let winner = results
        .iter()
        .enumerate()
        .min_by(|(ka, (a, _)), (kb, (b, _))| a.cmp_quality(b).then(ka.cmp(kb)))
        .map(|(k, _)| k)
        .expect("at least one restart always runs");

    let traces = if telemetry {
        results
            .iter()
            .enumerate()
            .map(|(k, (r, rec))| r.trace(format!("dlm#{k}"), model, rec))
            .collect()
    } else {
        Vec::new()
    };

    let best = &results[winner].0;
    Run {
        solution: Solution {
            point: best.point.clone(),
            objective: best.objective,
            feasible: best.feasible,
            evals: total_evals,
            iterations: total_iters,
        },
        winner,
        threads,
        traces,
        tape: Some(compiled.tape_stats()),
    }
}

#[cfg(test)]
pub(crate) fn solve_dlm_impl(model: &Model, opts: &DlmOptions) -> Solution {
    run_dlm(model, opts, 1, false, None, None).solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Domain, Expr, Model, VarId};

    /// max x·y s.t. x+y ≤ 10 → minimize −x·y; optimum 25 at (5,5).
    fn knapsack_like() -> Model {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 10 });
        let y = m.add_var("y", Domain::Int { lo: 0, hi: 10 });
        m.objective = Expr::Mul(vec![Expr::Const(-1.0), Expr::Var(x), Expr::Var(y)]);
        m.add_constraint(
            "cap",
            Expr::Add(vec![Expr::Var(x), Expr::Var(y)]),
            ConstraintOp::Le,
            10.0,
        );
        m
    }

    #[test]
    fn solves_small_quadratic() {
        let m = knapsack_like();
        let s = solve_dlm_impl(&m, &DlmOptions::quick(42));
        assert!(s.feasible);
        assert_eq!(s.objective, -25.0, "point: {:?}", s.point);
    }

    /// Tile-selection shaped problem: minimize ceil(100/t) subject to
    /// t ≤ 17 → optimum t=17, obj=6.
    #[test]
    fn solves_ceil_problem() {
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 100 });
        m.objective = Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t)));
        m.add_constraint("mem", Expr::Var(t), ConstraintOp::Le, 17.0);
        let s = solve_dlm_impl(&m, &DlmOptions::quick(7));
        assert!(s.feasible);
        assert_eq!(s.objective, 6.0);
        assert!(s.point[0] <= 17);
    }

    /// Placement-style problem with a Select: choosing option 1 is cheaper
    /// but only fits when t is small.
    #[test]
    fn solves_select_problem() {
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 64 });
        let p = m.add_var("p", Domain::Int { lo: 0, hi: 1 });
        // cost: option 0 = 100/t reads, option 1 = constant 3
        m.objective = Expr::Select(
            p,
            vec![
                Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t))),
                Expr::Const(3.0),
            ],
        );
        // memory: option 0 uses t, option 1 uses 4t; limit 32
        m.add_constraint(
            "mem",
            Expr::Select(
                p,
                vec![
                    Expr::Var(t),
                    Expr::Mul(vec![Expr::Const(4.0), Expr::Var(t)]),
                ],
            ),
            ConstraintOp::Le,
            32.0,
        );
        let s = solve_dlm_impl(&m, &DlmOptions::quick(3));
        assert!(s.feasible);
        // option 1 with t ≤ 8 gives cost 3; option 0 best is 100/32 → 4
        assert_eq!(s.objective, 3.0, "point {:?}", s.point);
        assert_eq!(s.point[1], 1);
    }

    #[test]
    fn respects_ge_constraints() {
        // minimize t subject to t ≥ 12
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 1000 });
        m.objective = Expr::Var(t);
        m.add_constraint("blk", Expr::Var(t), ConstraintOp::Ge, 12.0);
        let s = solve_dlm_impl(&m, &DlmOptions::quick(1));
        assert!(s.feasible);
        assert_eq!(s.point[0], 12);
    }

    #[test]
    fn reports_infeasible_models() {
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 0, hi: 10 });
        m.objective = Expr::Var(t);
        m.add_constraint("impossible", Expr::Var(t), ConstraintOp::Ge, 100.0);
        let s = solve_dlm_impl(&m, &DlmOptions::quick(1));
        assert!(!s.feasible);
    }

    #[test]
    fn var_moves_cover_boundaries() {
        let mut out = Vec::new();
        var_moves(Domain::Int { lo: 1, hi: 140 }, 35, &mut out);
        assert!(out.contains(&1));
        assert!(out.contains(&140));
        assert!(out.contains(&70));
        assert!(out.contains(&36));
        assert!(out.contains(&34));
        assert!(!out.contains(&35));
        // small domains enumerate fully
        var_moves(Domain::Binary, 0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = knapsack_like();
        let a = solve_dlm_impl(&m, &DlmOptions::quick(9));
        let b = solve_dlm_impl(&m, &DlmOptions::quick(9));
        assert_eq!(a.point, b.point);
        assert_eq!(a.evals, b.evals);
    }

    /// `n` tile-shaped variables: minimize Σ ceil(500/t_i) subject to
    /// Σ t_i ≤ 40·n. One restart spans many evaluation segments, and
    /// restarts from different random points end in different places.
    fn tiles_model(n: usize) -> Model {
        let mut m = Model::new();
        let ts: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("t{i}"), Domain::Int { lo: 1, hi: 500 }))
            .collect();
        let tiles =
            |&t: &VarId| Expr::CeilDiv(Box::new(Expr::Const(500.0)), Box::new(Expr::Var(t)));
        m.objective = Expr::Add(ts.iter().map(tiles).collect());
        m.add_constraint(
            "mem",
            Expr::Add(ts.iter().map(|&t| Expr::Var(t)).collect()),
            ConstraintOp::Le,
            40.0 * n as f64,
        );
        m
    }

    #[test]
    fn cancel_during_first_restart_keeps_a_contiguous_prefix() {
        let m = tiles_model(24);
        let opts = DlmOptions {
            restarts: 4,
            ..DlmOptions::new(5)
        };
        let run = |threads, token: &crate::CancelToken| {
            run_dlm(&m, &opts, threads, true, None, Some(token))
        };
        // tripped before the solve: the first poll, inside restart 0,
        // aborts it, and no later restart is ever claimed
        let tripped = crate::CancelToken::new();
        tripped.cancel();
        for threads in [1, 2, 8] {
            let out = run(threads, &tripped);
            assert_eq!(out.traces.len(), 1, "threads={threads}");
            assert_eq!(out.traces[0].termination, Termination::Canceled);
            assert_eq!(out.winner, 0);
            assert_eq!(out.solution.evals, out.traces[0].evals);
        }
        // tripped mid-run from another thread: every restart that was not
        // cut short must be the reference run's restart at the same
        // position, which only holds if the finished restarts are 0..k.
        // The sleeps only spread where the trip lands; the assertions
        // hold under every interleaving.
        let started = Instant::now();
        let full = run(1, &crate::CancelToken::new());
        let serial = started.elapsed();
        for (threads, quarters) in [(2, 1), (3, 2), (2, 3), (8, 2)] {
            let token = crate::CancelToken::new();
            let out = std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(serial * quarters / 4);
                    token.cancel();
                });
                run(threads, &token)
            });
            assert!(!out.traces.is_empty());
            for (k, t) in out.traces.iter().enumerate() {
                if t.termination != Termination::Canceled {
                    let want = &full.traces[k];
                    assert_eq!(t.objective.to_bits(), want.objective.to_bits(), "#{k}");
                    assert_eq!((t.evals, t.iterations), (want.evals, want.iterations));
                }
            }
            let evals: u64 = out.traces.iter().map(|t| t.evals).sum();
            assert_eq!(out.solution.evals, evals);
        }
    }

    #[test]
    fn segmented_stepping_matches_one_shot() {
        // the resumable engine must be invariant to how its work is
        // sliced into step() calls
        let m = knapsack_like();
        let opts = DlmOptions::quick(13);
        let compiled = CompiledModel::compile(&m);
        let mut one = DlmTask::new(&m, &opts, 1, 10_000, &compiled);
        while !one.step(u64::MAX, &mut Noop) {}
        let mut sliced = DlmTask::new(&m, &opts, 1, 10_000, &compiled);
        while !sliced.step(37, &mut Noop) {}
        let a = one.result();
        let b = sliced.result();
        assert_eq!(a.point, b.point);
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.termination, b.termination);
    }

    #[test]
    fn telemetry_does_not_change_the_result() {
        let m = knapsack_like();
        let opts = DlmOptions::quick(21);
        let plain = run_dlm(&m, &opts, 1, false, None, None);
        let traced = run_dlm(&m, &opts, 2, true, None, None);
        assert_eq!(plain.solution.point, traced.solution.point);
        assert_eq!(plain.solution.evals, traced.solution.evals);
        assert_eq!(plain.winner, traced.winner);
        assert!(plain.traces.is_empty());
        assert_eq!(traced.traces.len(), opts.restarts);
        let w = &traced.traces[traced.winner];
        assert!(w.feasible);
        assert!(!w.improvements.is_empty(), "winner recorded no progress");
    }

    #[test]
    fn recorder_sees_improvements_on_feasible_path() {
        let m = knapsack_like();
        let compiled = CompiledModel::compile(&m);
        let mut task = DlmTask::new(&m, &DlmOptions::quick(2), 0, 100_000, &compiled);
        let mut rec = Recorder::default();
        while !task.step(u64::MAX, &mut rec) {}
        assert!(task.best_feasible.is_some());
        let last = rec.improvements.last().expect("improvements recorded");
        assert_eq!(Some(last.objective), task.best_feasible);
    }
}
