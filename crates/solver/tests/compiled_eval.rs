//! Differential tests for the compiled evaluation backend.
//!
//! The contract under test (DESIGN.md §12): for any model, point and move
//! sequence, the flat-tape evaluator — full evaluation, staged probes and
//! committed delta moves alike — produces values bit-identical to the
//! recursive tree walker, and therefore every solver strategy returns an
//! identical `SolveOutcome` for the same seed under either backend.

use proptest::prelude::*;
use tce_solver::model::FEAS_TOL;
use tce_solver::{
    solve, CompiledModel, ConstraintOp, CsaOptions, DlmOptions, Domain, EvalBackend, Expr, Model,
    SolveOptions, Strategy as Method,
};

/// Random 3-variable model exercising every `Expr` node kind, with the
/// `ceil(K/t)` subterm shared between objective and constraints the way
/// the synthesis models share their `NumTiles` factors (so CSE and the
/// dependency index both have real work to do).
fn arb_model() -> impl Strategy<Value = Model> {
    (-3i64..4, -3i64..4, -2i64..3, 1i64..5, 3i64..40, 1i64..20).prop_map(
        |(a, b, c, w, cap, blk)| {
            let mut m = Model::new();
            let t = m.add_var("t", Domain::Int { lo: 1, hi: 16 });
            let y = m.add_var("y", Domain::Int { lo: 0, hi: 12 });
            let p = m.add_var("p", Domain::Binary);
            let tiles = Expr::CeilDiv(Box::new(Expr::Const(48.0)), Box::new(Expr::Var(t)));
            m.objective = Expr::Add(vec![
                Expr::Mul(vec![Expr::Const(a as f64), tiles.clone()]),
                Expr::Mul(vec![Expr::Const(b as f64), Expr::Var(y)]),
                Expr::Mul(vec![Expr::Const(c as f64), Expr::Var(t), Expr::Var(y)]),
                Expr::Sub(
                    Box::new(Expr::Select(
                        p,
                        vec![
                            Expr::Mul(vec![Expr::Const(4.0), Expr::Var(t)]),
                            Expr::Var(t),
                        ],
                    )),
                    Box::new(Expr::Const(a as f64)),
                ),
            ]);
            m.add_constraint(
                "mem",
                Expr::Add(vec![
                    tiles,
                    Expr::Mul(vec![Expr::Const(w as f64), Expr::Var(y)]),
                ]),
                ConstraintOp::Le,
                cap as f64,
            );
            m.add_constraint("blk", Expr::Var(t), ConstraintOp::Ge, blk as f64);
            m.add_constraint(
                "bind",
                Expr::Mul(vec![Expr::Var(p), Expr::Var(p)]),
                ConstraintOp::Eq,
                0.0,
            );
            m
        },
    )
}

/// A random in-domain point for [`arb_model`]'s three variables.
fn arb_point() -> impl Strategy<Value = Vec<i64>> {
    (1i64..=16, 0i64..=12, 0i64..=1).prop_map(|(t, y, p)| vec![t, y, p])
}

/// Random single-variable moves (variable index, in-domain value).
fn arb_moves() -> impl Strategy<Value = Vec<(usize, i64)>> {
    proptest::collection::vec((0usize..3, 0i64..=16), 1..12).prop_map(|mut ms| {
        for (v, val) in ms.iter_mut() {
            *val = match v {
                0 => (*val).max(1),
                1 => (*val).min(12),
                _ => (*val).min(1),
            };
        }
        ms
    })
}

/// Asserts every observable of the compiled evaluator matches the tree
/// walker bit-for-bit at the evaluator's committed point.
fn assert_committed_matches(m: &Model, ev: &tce_solver::Evaluator<'_>, x: &[i64]) {
    assert_eq!(ev.point(), x);
    assert_eq!(ev.objective().to_bits(), m.objective_at(x).to_bits());
    let viols = m.violations(x);
    for (j, c) in m.constraints().iter().enumerate() {
        assert_eq!(
            ev.constraint_lhs(j).to_bits(),
            c.expr.eval(x).to_bits(),
            "constraint {j} lhs"
        );
        assert_eq!(
            ev.violation_norm(j).to_bits(),
            c.violation_norm(x).to_bits(),
            "constraint {j} violation"
        );
    }
    let tree_sum: f64 = viols.iter().sum();
    assert_eq!(ev.violation_sum().to_bits(), tree_sum.to_bits());
    assert_eq!(ev.is_feasible(FEAS_TOL), m.is_feasible(x, FEAS_TOL));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tree-walk == compiled full eval == compiled delta eval, bit for
    /// bit, across random models × points × single-variable move chains.
    #[test]
    fn eval_identity_tree_vs_compiled_vs_delta(
        m in arb_model(),
        x0 in arb_point(),
        moves in arb_moves(),
    ) {
        let compiled = CompiledModel::compile(&m);
        let mut ev = compiled.evaluator(&x0);
        assert_committed_matches(&m, &ev, &x0);

        let mut x = x0.clone();
        for &(v, val) in &moves {
            // delta probe: only the tape segments depending on `v` rerun
            let mut xp = x.clone();
            xp[v] = val;
            let probed = ev.eval_delta(tce_solver::VarId(v as u32), val);
            prop_assert_eq!(probed.to_bits(), m.objective_at(&xp).to_bits());
            for (j, c) in m.constraints().iter().enumerate() {
                prop_assert_eq!(
                    ev.probe_violation_norm(j).to_bits(),
                    c.violation_norm(&xp).to_bits()
                );
            }
            prop_assert_eq!(
                ev.probe_is_feasible(FEAS_TOL),
                m.is_feasible(&xp, FEAS_TOL)
            );

            // commit and re-check every committed observable
            ev.commit(&[(v, val)]);
            x = xp;
            assert_committed_matches(&m, &ev, &x);
        }

        // a fresh evaluator at the final point agrees with the one that
        // got there by deltas (no drift across incremental updates)
        let fresh = compiled.evaluator(&x);
        prop_assert_eq!(fresh.objective().to_bits(), ev.objective().to_bits());
        prop_assert_eq!(fresh.violation_sum().to_bits(), ev.violation_sum().to_bits());
    }

    /// Full solver runs are trajectory-identical under both backends:
    /// same seed → same `SolveOutcome` (point, objective bits, eval and
    /// iteration counts) for DLM, CSA and the portfolio.
    #[test]
    fn solver_outcomes_identical_across_backends(m in arb_model(), seed in 0u64..16) {
        for strategy in [Method::Dlm, Method::Csa, Method::Portfolio] {
            let base = SolveOptions::new(seed)
                .strategy(strategy)
                .dlm(DlmOptions::quick(seed))
                .csa(CsaOptions::quick(seed))
                .csa_chains(1);
            let tree = solve(&m, &base.clone().eval_backend(EvalBackend::TreeWalk)).solution;
            let fast = solve(&m, &base.eval_backend(EvalBackend::Compiled)).solution;
            prop_assert_eq!(&tree.point, &fast.point, "{:?} point", strategy);
            prop_assert_eq!(
                tree.objective.to_bits(),
                fast.objective.to_bits(),
                "{:?} objective", strategy
            );
            prop_assert_eq!(tree.feasible, fast.feasible, "{:?} feasible", strategy);
            prop_assert_eq!(tree.evals, fast.evals, "{:?} evals", strategy);
            prop_assert_eq!(tree.iterations, fast.iterations, "{:?} iterations", strategy);
        }
    }
}

/// Clamps `val` into the domain of [`arb_model`]'s variable `v`.
fn clamp_for(v: usize, val: i64) -> i64 {
    match v {
        0 => val.clamp(1, 16),
        1 => val.clamp(0, 12),
        _ => val.clamp(0, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every lane of a batched probe is bit-identical to the equivalent
    /// single probe and to the tree walker, and committing a lane equals
    /// committing the move.
    #[test]
    fn batched_lanes_match_single_probes_and_tree(
        m in arb_model(),
        x0 in arb_point(),
        var in 0usize..3,
        cands in proptest::collection::vec(0i64..=16, 1..10),
        pick in 0usize..10,
    ) {
        let cands: Vec<i64> = cands.into_iter().map(|c| clamp_for(var, c)).collect();
        let compiled = CompiledModel::compile(&m);
        let mut batch = compiled.evaluator(&x0);
        let mut single = compiled.evaluator(&x0);
        batch.probe_batch(var, &cands);
        for (l, &cand) in cands.iter().enumerate() {
            let mut xl = x0.clone();
            xl[var] = cand;
            single.probe(&[(var, cand)]);
            prop_assert_eq!(
                batch.batch_objective(l).to_bits(),
                single.probe_objective().to_bits()
            );
            prop_assert_eq!(
                batch.batch_objective(l).to_bits(),
                m.objective_at(&xl).to_bits()
            );
            for (j, c) in m.constraints().iter().enumerate() {
                prop_assert_eq!(
                    batch.batch_violation_norm(l, j).to_bits(),
                    single.probe_violation_norm(j).to_bits()
                );
                prop_assert_eq!(
                    batch.batch_violation_norm(l, j).to_bits(),
                    c.violation_norm(&xl).to_bits()
                );
            }
            let tree_sum: f64 = m.violations(&xl).iter().sum();
            prop_assert_eq!(batch.batch_violation_sum(l).to_bits(), tree_sum.to_bits());
            prop_assert_eq!(
                batch.batch_is_feasible(l, FEAS_TOL),
                m.is_feasible(&xl, FEAS_TOL)
            );
        }
        // committing a lane == committing the move
        let l = pick % cands.len();
        batch.commit_batch_lane(l);
        single.commit(&[(var, cands[l])]);
        let mut xl = x0.clone();
        xl[var] = cands[l];
        assert_committed_matches(&m, &batch, &xl);
        prop_assert_eq!(batch.objective().to_bits(), single.objective().to_bits());
        prop_assert_eq!(
            batch.violation_sum().to_bits(),
            single.violation_sum().to_bits()
        );
    }

    /// A batch stacked over a staged single-move probe equals explicit
    /// two-move probes and the tree walker, lane by lane — and the staged
    /// base probe survives the stacked batch untouched.
    #[test]
    fn stacked_batches_match_two_move_probes(
        m in arb_model(),
        x0 in arb_point(),
        vi in 0usize..3,
        off in 1usize..3,
        ci in 0i64..=16,
        cands in proptest::collection::vec(0i64..=16, 1..8),
    ) {
        let vj = (vi + off) % 3;
        let ci = clamp_for(vi, ci);
        let cands: Vec<i64> = cands.into_iter().map(|c| clamp_for(vj, c)).collect();
        let compiled = CompiledModel::compile(&m);
        let mut batch = compiled.evaluator(&x0);
        let mut pair = compiled.evaluator(&x0);
        batch.probe(&[(vi, ci)]);
        batch.probe_batch_over(vj, &cands);
        for (l, &cj) in cands.iter().enumerate() {
            let mut xl = x0.clone();
            xl[vi] = ci;
            xl[vj] = cj;
            pair.probe(&[(vi, ci), (vj, cj)]);
            prop_assert_eq!(
                batch.batch_objective(l).to_bits(),
                pair.probe_objective().to_bits()
            );
            prop_assert_eq!(
                batch.batch_objective(l).to_bits(),
                m.objective_at(&xl).to_bits()
            );
            for (j, c) in m.constraints().iter().enumerate() {
                prop_assert_eq!(
                    batch.batch_violation_norm(l, j).to_bits(),
                    pair.probe_violation_norm(j).to_bits()
                );
                prop_assert_eq!(
                    batch.batch_violation_norm(l, j).to_bits(),
                    c.violation_norm(&xl).to_bits()
                );
            }
            prop_assert_eq!(
                batch.batch_is_feasible(l, FEAS_TOL),
                m.is_feasible(&xl, FEAS_TOL)
            );
        }
        // the staged base probe is still readable after stacked batches
        let mut xb = x0.clone();
        xb[vi] = ci;
        prop_assert_eq!(
            batch.probe_objective().to_bits(),
            m.objective_at(&xb).to_bits()
        );
    }

    /// Two-move probe and commit chains match the tree oracle at every
    /// staged and committed point.
    #[test]
    fn two_move_probe_and_commit_match_tree(
        m in arb_model(),
        x0 in arb_point(),
        pairs in proptest::collection::vec((0usize..3, 1usize..3, 0i64..=16, 0i64..=16), 1..8),
    ) {
        let compiled = CompiledModel::compile(&m);
        let mut ev = compiled.evaluator(&x0);
        let mut x = x0.clone();
        for (vi, off, ci, cj) in pairs {
            let vj = (vi + off) % 3;
            let moves = [(vi, clamp_for(vi, ci)), (vj, clamp_for(vj, cj))];
            let mut xp = x.clone();
            xp[vi] = moves[0].1;
            xp[vj] = moves[1].1;
            ev.probe(&moves);
            prop_assert_eq!(
                ev.probe_objective().to_bits(),
                m.objective_at(&xp).to_bits()
            );
            for (j, c) in m.constraints().iter().enumerate() {
                prop_assert_eq!(
                    ev.probe_violation_norm(j).to_bits(),
                    c.violation_norm(&xp).to_bits()
                );
            }
            prop_assert_eq!(ev.probe_is_feasible(FEAS_TOL), m.is_feasible(&xp, FEAS_TOL));
            ev.commit(&moves);
            x = xp;
            assert_committed_matches(&m, &ev, &x);
        }
    }

    /// DLM's restart pool never changes the answer: the tree oracle run
    /// serially agrees with the compiled engine at 1, 2, 3 and 8 restart
    /// workers on point, objective bits, evals, iterations and winner.
    #[test]
    fn dlm_restart_pool_identical_across_thread_counts(m in arb_model(), seed in 0u64..8) {
        let base = SolveOptions::new(seed)
            .strategy(Method::Dlm)
            .dlm(DlmOptions::quick(seed))
            .telemetry(true);
        let oracle = solve(&m, &base.clone().threads(1).eval_backend(EvalBackend::TreeWalk));
        let want_winner = oracle.report.expect("telemetry on").winner;
        for threads in [1usize, 2, 3, 8] {
            let out = solve(&m, &base.clone().threads(threads).eval_backend(EvalBackend::Compiled));
            let report = out.report.expect("telemetry on");
            prop_assert_eq!(report.threads, threads.min(3), "pool is capped at the restart count");
            let (want, got) = (&oracle.solution, &out.solution);
            prop_assert_eq!(&want.point, &got.point, "threads={}", threads);
            prop_assert_eq!(want.objective.to_bits(), got.objective.to_bits(), "threads={}", threads);
            prop_assert_eq!(want.evals, got.evals, "threads={}", threads);
            prop_assert_eq!(want.iterations, got.iterations, "threads={}", threads);
            prop_assert_eq!(want_winner, report.winner, "threads={}", threads);
        }
    }
}

/// Brute force enumerates identically under both backends (it batches
/// odometer increments as multi-variable delta commits).
#[test]
fn brute_force_identical_across_backends() {
    let mut m = Model::new();
    let t = m.add_var("t", Domain::Int { lo: 1, hi: 40 });
    let p = m.add_var("p", Domain::Binary);
    m.objective = Expr::Add(vec![
        Expr::CeilDiv(Box::new(Expr::Const(60.0)), Box::new(Expr::Var(t))),
        Expr::Mul(vec![Expr::Const(2.0), Expr::Var(p)]),
    ]);
    m.add_constraint(
        "mem",
        Expr::Select(
            p,
            vec![
                Expr::Mul(vec![Expr::Const(4.0), Expr::Var(t)]),
                Expr::Var(t),
            ],
        ),
        ConstraintOp::Le,
        24.0,
    );
    let base = SolveOptions::new(0).strategy(Method::BruteForce);
    let tree = solve(&m, &base.clone().eval_backend(EvalBackend::TreeWalk)).solution;
    let fast = solve(&m, &base.eval_backend(EvalBackend::Compiled)).solution;
    assert_eq!(tree.point, fast.point);
    assert_eq!(tree.objective.to_bits(), fast.objective.to_bits());
    assert_eq!(tree.evals, fast.evals);
}
