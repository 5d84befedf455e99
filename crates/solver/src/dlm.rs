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
//! ([`DlmTask`]): `step(quota)` advances the descent by roughly `quota`
//! Lagrangian evaluations and returns, preserving every bit of state.
//! The serial driver steps each task to completion; the
//! [portfolio](crate::portfolio) interleaves segments of many tasks
//! across threads. Because a task's trajectory depends only on its own
//! state, segmentation never changes the result.

use crate::compiled::CompiledModel;
use crate::eval::{EvalBackend, ModelEval};
use crate::model::{Domain, Model, Solution, FEAS_TOL};
use crate::telemetry::{RestartTrace, Sink, TapeStats, Termination};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
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
    /// Run the restarts on OS threads. Deterministic for a fixed seed
    /// either way: every restart derives its own RNG from
    /// `seed + restart index` and the best result is chosen by a total
    /// order, so sequential and parallel runs return the same point.
    pub parallel_restarts: bool,
    /// Worker threads for each restart's *own* neighborhood scan (`1` =
    /// serial scans). The scan partitions the variables into contiguous
    /// chunks and reduces candidates with a total order over
    /// `(value, variable, candidate)` position, so the trajectory is
    /// bit-identical at any thread count.
    pub scan_threads: usize,
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
            parallel_restarts: false,
            scan_threads: 1,
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
/// evaluation counter. Model values come from the task's [`ModelEval`],
/// so multiplier updates read cached per-constraint violations instead of
/// re-walking expression trees (the compiled backend) — the var sets the
/// walk would need are precomputed in [`CompiledModel`].
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

    /// `L(x, λ)` at the engine's committed point.
    fn value(&mut self, eval: &ModelEval<'_>) -> f64 {
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

    /// `L(x_l, λ)` for lane `l` of the engine's staged batch probe.
    /// Does not count: batched scans account for their probes in bulk
    /// (one `evals += lanes` per batch), which keeps the counter usable
    /// from shared references in parallel scans while preserving the
    /// per-candidate totals of the serial path.
    fn value_batch(&self, eval: &ModelEval<'_>, l: usize) -> f64 {
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
    fn raise_multipliers(&mut self, eval: &ModelEval<'_>, growth: f64) -> bool {
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

/// Outcome of one restart (or one portfolio task).
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
}

/// A polish-phase candidate: one or two coordinated moves plus the
/// objective they reach. Fixed-size so the scan never allocates.
#[derive(Clone, Copy)]
struct PolishMove {
    mv: [(usize, i64); 2],
    len: u8,
    val: f64,
}

/// One extra scan engine (for parallel neighbourhood scans): its own
/// evaluator plus candidate scratch, kept at the same committed point as
/// the task's main engine by [`DlmTask::commit_everywhere`].
struct ScanWorker<'m> {
    eval: ModelEval<'m>,
    moves: Vec<i64>,
    moves2: Vec<i64>,
}

/// Partitions `0..n` into contiguous chunks and runs `scan` over each —
/// chunk 0 inline on the caller's engine, the rest on `aux` workers via
/// scoped threads. Parts come back in chunk order (ascending variable
/// ranges), so a left-to-right reduce with a strict `<` reproduces the
/// serial first-wins order at any worker count.
fn scan_chunks<'m, R, F>(
    n: usize,
    eval: &mut ModelEval<'m>,
    moves: &mut Vec<i64>,
    moves2: &mut Vec<i64>,
    aux: &mut [ScanWorker<'m>],
    scan: F,
) -> Vec<R>
where
    F: Fn(&mut ModelEval<'m>, &mut Vec<i64>, &mut Vec<i64>, Range<usize>) -> R + Sync,
    R: Send,
{
    let t = (aux.len() + 1).min(n.max(1));
    if t <= 1 {
        return vec![scan(eval, moves, moves2, 0..n)];
    }
    let chunk = n.div_ceil(t);
    let scan = &scan;
    std::thread::scope(|scope| {
        let handles: Vec<_> = aux[..t - 1]
            .iter_mut()
            .enumerate()
            .map(|(i, w)| {
                let lo = (i + 1) * chunk;
                let hi = ((i + 2) * chunk).min(n);
                scope.spawn(move || scan(&mut w.eval, &mut w.moves, &mut w.moves2, lo..hi))
            })
            .collect();
        let mut parts = Vec::with_capacity(t);
        parts.push(scan(eval, moves, moves2, 0..chunk.min(n)));
        for h in handles {
            parts.push(h.join().expect("scan worker panicked"));
        }
        parts
    })
}

/// Best-improvement scan of the single-variable Lagrangian neighbourhood
/// over the variables in `range`, one batched probe per variable.
/// Returns the winning `(var, candidate, value)` plus the number of
/// candidates evaluated. A candidate wins iff it clears the fixed
/// threshold `cur − 1e-12` AND strictly beats the best so far, so the
/// winner is the first minimum in `(var, candidate)` order — an order
/// independent of how ranges partition the scan.
fn scan_descent_range(
    model: &Model,
    live: &[bool],
    lag: &Lagrangian,
    cur: f64,
    eval: &mut ModelEval<'_>,
    moves: &mut Vec<i64>,
    range: Range<usize>,
) -> (Option<(usize, i64, f64)>, u64) {
    let mut best: Option<(usize, i64, f64)> = None;
    let mut count = 0u64;
    for vi in range {
        if !live[vi] {
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

/// Feasible single-move scan of the polish phase over `range`; same
/// threshold-plus-strict-minimum acceptance as the descent scan (with the
/// polish epsilon `1e-9`).
fn scan_polish_singles(
    model: &Model,
    live: &[bool],
    cur: f64,
    eval: &mut ModelEval<'_>,
    moves: &mut Vec<i64>,
    range: Range<usize>,
) -> (Option<PolishMove>, u64) {
    let mut best: Option<PolishMove> = None;
    let mut count = 0u64;
    for vi in range {
        if !live[vi] {
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
    eval: &mut ModelEval<'_>,
    moves: &mut Vec<i64>,
    moves2: &mut Vec<i64>,
    range: Range<usize>,
) -> (Option<PolishMove>, u64) {
    let mut best: Option<PolishMove> = None;
    let mut count = 0u64;
    for vi in range {
        if !live[vi] {
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
    eval: ModelEval<'m>,
    lag: Lagrangian,
    /// `live[v]` — whether variable `v` appears in the objective or any
    /// constraint. Computed once per task from the precomputed var sets
    /// (no per-iteration [`Expr::vars`](crate::model::Expr::vars)
    /// allocation); dead variables cannot change `L`, so the descent scan
    /// skips them. Derived from the expression trees so both evaluation
    /// backends agree exactly.
    live: Vec<bool>,
    cur: f64,
    stalled: u32,
    iters: u64,
    /// Objective evaluations performed by the polish phase.
    extra_evals: u64,
    moves: Vec<i64>,
    moves2: Vec<i64>,
    /// Extra scan engines, one per worker thread beyond the first
    /// ([`DlmOptions::scan_threads`]); kept at the same committed point
    /// as `eval` by [`Self::commit_everywhere`].
    aux: Vec<ScanWorker<'m>>,
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
        compiled: Option<&'m CompiledModel>,
    ) -> Self {
        let mut x = if restart == 0 {
            model.lower_corner()
        } else {
            let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
            random_point(model, &mut rng)
        };
        model.clamp(&mut x);
        let eval = ModelEval::new(model, compiled, &x);
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
        let aux = (1..opts.scan_threads.max(1))
            .map(|_| ScanWorker {
                eval: ModelEval::new(model, compiled, &x),
                moves: Vec::new(),
                moves2: Vec::new(),
            })
            .collect();
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
            aux,
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

    /// Best feasible objective certified so far (for incumbent sharing).
    pub(crate) fn best_feasible(&self) -> Option<f64> {
        self.best_feasible
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

    /// Commits `moves` on the main engine and every scan worker, so all
    /// engines agree on the committed point before the next scan.
    fn commit_everywhere(&mut self, moves: &[(usize, i64)]) {
        self.eval.commit(moves);
        for w in &mut self.aux {
            w.eval.commit(moves);
        }
    }

    /// One best-improvement move over the single-variable neighbourhood,
    /// scanned with batched probes across the task's scan workers.
    fn descent_tick<S: Sink>(&mut self, sink: &mut S) {
        if self.iters >= self.max_iters {
            self.finish_descent(Termination::IterLimit, sink);
            return;
        }
        if self.lag.evals >= self.budget {
            self.finish_descent(Termination::EvalBudget, sink);
            return;
        }
        let cur = self.cur;
        let DlmTask {
            model,
            ref live,
            ref lag,
            ref mut eval,
            ref mut moves,
            ref mut moves2,
            ref mut aux,
            ..
        } = *self;
        let parts = scan_chunks(
            model.num_vars(),
            eval,
            moves,
            moves2,
            aux,
            |eval, moves, _moves2, range| {
                scan_descent_range(model, live, lag, cur, eval, moves, range)
            },
        );
        let mut best_move: Option<(usize, i64, f64)> = None;
        let mut count = 0u64;
        for (part, c) in parts {
            count += c;
            if let Some(m) = part {
                if best_move.is_none_or(|(_, _, b)| m.2 < b) {
                    best_move = Some(m);
                }
            }
        }
        self.lag.evals += count;
        match best_move {
            Some((vi, cand, val)) => {
                self.commit_everywhere(&[(vi, cand)]);
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
        let DlmTask {
            model,
            ref live,
            ref mut eval,
            ref mut moves,
            ref mut moves2,
            ref mut aux,
            ..
        } = *self;
        let parts = scan_chunks(
            model.num_vars(),
            eval,
            moves,
            moves2,
            aux,
            |eval, moves, moves2, range| {
                let (single, c1) =
                    scan_polish_singles(model, live, cur, eval, moves, range.clone());
                let (pair, c2) = scan_polish_pairs(model, live, cur, eval, moves, moves2, range);
                (single, pair, c1 + c2)
            },
        );
        let mut best_single: Option<PolishMove> = None;
        let mut best_pair: Option<PolishMove> = None;
        let mut count = 0u64;
        for (single, pair, c) in parts {
            count += c;
            if let Some(m) = single {
                if best_single.is_none_or(|b| m.val < b.val) {
                    best_single = Some(m);
                }
            }
            if let Some(m) = pair {
                if best_pair.is_none_or(|b| m.val < b.val) {
                    best_pair = Some(m);
                }
            }
        }
        self.extra_evals += count;
        let best = match (best_single, best_pair) {
            (Some(s), Some(p)) => Some(if p.val < s.val { p } else { s }),
            (s, p) => s.or(p),
        };
        match best {
            Some(m) => {
                let mv = m.mv;
                self.commit_everywhere(&mv[..m.len as usize]);
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

/// Quota the serial drivers use between deadline checks.
const DEADLINE_SEGMENT: u64 = 8_192;

/// Drives one task to completion, polling `deadline` and `cancel`
/// between segments when either is set.
pub(crate) fn drive_to_completion<S: Sink>(
    task: &mut DlmTask<'_>,
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

/// Outcome of a full DLM run (all restarts).
pub(crate) struct DlmRun {
    pub solution: Solution,
    pub winner: usize,
    pub traces: Vec<RestartTrace>,
    /// Peephole before/after tape statistics (compiled backend only).
    pub tape: Option<TapeStats>,
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    model: &Model,
    opts: &DlmOptions,
    restart: usize,
    budget: u64,
    compiled: Option<&CompiledModel>,
    telemetry: bool,
    deadline: Option<Instant>,
    cancel: Option<&crate::CancelToken>,
) -> (RestartResult, crate::telemetry::Recorder) {
    let mut task = DlmTask::new(model, opts, restart, budget, compiled);
    let mut recorder = crate::telemetry::Recorder::default();
    if telemetry {
        drive_to_completion(&mut task, deadline, cancel, &mut recorder);
    } else {
        drive_to_completion(&mut task, deadline, cancel, &mut crate::telemetry::Noop);
    }
    (task.result(), recorder)
}

/// Runs all DLM restarts (serially or on threads per
/// [`DlmOptions::parallel_restarts`]) and aggregates the winner.
///
/// The model is compiled once (for [`EvalBackend::Compiled`]) and the
/// immutable tape shared by every restart; each task owns its caches.
/// A deadline is polled between evaluation segments; restarts that were
/// never started when it expires are skipped (the first always runs).
/// A cancel token behaves the same way, terminating tasks with
/// [`Termination::Canceled`] instead.
pub(crate) fn run_dlm(
    model: &Model,
    opts: &DlmOptions,
    backend: EvalBackend,
    telemetry: bool,
    deadline: Option<Instant>,
    cancel: Option<&crate::CancelToken>,
) -> DlmRun {
    let restarts = opts.restarts.max(1);
    let budget = (opts.max_evals / restarts as u64).max(1);
    let compiled = (backend == EvalBackend::Compiled).then(|| CompiledModel::compile(model));
    let compiled = compiled.as_ref();

    let results: Vec<(RestartResult, crate::telemetry::Recorder)> =
        if opts.parallel_restarts && restarts > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..restarts)
                    .map(|r| {
                        scope.spawn(move || {
                            run_one(
                                model, opts, r, budget, compiled, telemetry, deadline, cancel,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("restart thread panicked"))
                    .collect()
            })
        } else {
            let mut out = Vec::with_capacity(restarts);
            for r in 0..restarts {
                out.push(run_one(
                    model, opts, r, budget, compiled, telemetry, deadline, cancel,
                ));
                if deadline.is_some_and(|at| Instant::now() >= at)
                    || cancel.is_some_and(|c| c.is_canceled())
                {
                    break; // later restarts are skipped entirely
                }
            }
            out
        };

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
            .map(|(k, (r, rec))| RestartTrace {
                label: format!("dlm#{k}"),
                iterations: r.iters,
                evals: r.evals,
                objective: r.objective,
                feasible: r.feasible,
                // tree walk: once per restart summary, off the eval hot path
                // tree walk: once per solve summary, off the eval hot path
                violation: model.violations(&r.point).iter().sum(),
                max_multiplier: rec.max_multiplier,
                improvements: rec.improvements.clone(),
                termination: r.termination,
            })
            .collect()
    } else {
        Vec::new()
    };

    let best = &results[winner].0;
    DlmRun {
        solution: Solution {
            point: best.point.clone(),
            objective: best.objective,
            feasible: best.feasible,
            evals: total_evals,
            iterations: total_iters,
        },
        winner,
        traces,
        tape: compiled.map(|c| c.tape_stats()),
    }
}

#[cfg(test)]
pub(crate) fn solve_dlm_impl(model: &Model, opts: &DlmOptions) -> Solution {
    run_dlm(model, opts, EvalBackend::default(), false, None, None).solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Domain, Expr, Model};
    use crate::telemetry::{Noop, Recorder};

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

    #[test]
    fn parallel_scans_match_serial() {
        // chunked scans with a strict-minimum reduce must be bit-identical
        // to the serial scan at any worker count
        let m = knapsack_like();
        let seq = solve_dlm_impl(&m, &DlmOptions::quick(5));
        for threads in [2, 4, 7] {
            let par = solve_dlm_impl(
                &m,
                &DlmOptions {
                    scan_threads: threads,
                    ..DlmOptions::quick(5)
                },
            );
            assert_eq!(seq.point, par.point, "threads={threads}");
            assert_eq!(seq.objective.to_bits(), par.objective.to_bits());
            assert_eq!(seq.evals, par.evals, "threads={threads}");
        }
    }

    #[test]
    fn parallel_restarts_match_sequential() {
        let m = knapsack_like();
        let seq = solve_dlm_impl(&m, &DlmOptions::quick(5));
        let par = solve_dlm_impl(
            &m,
            &DlmOptions {
                parallel_restarts: true,
                ..DlmOptions::quick(5)
            },
        );
        assert_eq!(seq.point, par.point);
        assert_eq!(seq.objective, par.objective);
        assert_eq!(seq.evals, par.evals);
    }

    #[test]
    fn segmented_stepping_matches_one_shot() {
        // the resumable engine must be invariant to how its work is
        // sliced into step() calls
        let m = knapsack_like();
        let opts = DlmOptions::quick(13);
        let compiled = CompiledModel::compile(&m);
        let mut one = DlmTask::new(&m, &opts, 1, 10_000, Some(&compiled));
        while !one.step(u64::MAX, &mut Noop) {}
        let mut sliced = DlmTask::new(&m, &opts, 1, 10_000, None);
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
        let plain = run_dlm(&m, &opts, EvalBackend::Compiled, false, None, None);
        let traced = run_dlm(&m, &opts, EvalBackend::Compiled, true, None, None);
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
        let mut task = DlmTask::new(&m, &DlmOptions::quick(2), 0, 100_000, Some(&compiled));
        let mut rec = Recorder::default();
        while !task.step(u64::MAX, &mut rec) {}
        assert!(task.best_feasible().is_some());
        let last = rec.improvements.last().expect("improvements recorded");
        assert_eq!(Some(last.objective), task.best_feasible());
    }
}
