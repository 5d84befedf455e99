//! Differential tests for the compiled evaluator, and pinned whole-solve
//! outcomes.
//!
//! The contract under test (DESIGN.md §12): for any model, point and move
//! sequence, the flat-tape evaluator — full evaluation, staged probes,
//! batch lanes and committed delta moves alike — produces values
//! bit-identical to the recursive tree walker, the reference
//! implementation. Whole solves are pinned by hash in
//! `solver_outcomes_are_pinned`, and checked against the tree walker in
//! `solver_outcomes_identical_across_backends` and
//! `brute_force_identical_across_backends`.

use proptest::prelude::*;
use tce_solver::model::FEAS_TOL;
use tce_solver::{
    solve, CompiledModel, ConstraintOp, CsaOptions, DlmOptions, Domain, Expr, Fnv64, Model,
    Solution, SolveOptions, Strategy as Method,
};

/// `(a, b, c, w, cap, blk)`: the coefficients of one [`model_of`] model.
type Coefficients = (i64, i64, i64, i64, i64, i64);

/// The 3-variable model family behind [`arb_model`], from its
/// [`Coefficients`]. It exercises every `Expr` node
/// kind, with the `ceil(K/t)` subterm shared between objective and
/// constraints the way the synthesis models share their `NumTiles`
/// factors (so CSE and the dependency index both have real work to do).
fn model_of((a, b, c, w, cap, blk): Coefficients) -> Model {
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
}

/// Random models of the [`model_of`] family.
fn arb_model() -> impl Strategy<Value = Model> {
    (-3i64..4, -3i64..4, -2i64..3, 1i64..5, 3i64..40, 1i64..20).prop_map(model_of)
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
            ev.probe(&[(v, val)]);
            prop_assert_eq!(ev.probe_objective().to_bits(), m.objective_at(&xp).to_bits());
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

    /// DLM's restart pool never changes the answer: the serial run agrees
    /// with 2, 3 and 8 restart workers on point, objective bits, evals,
    /// iterations and winner.
    #[test]
    fn dlm_restart_pool_identical_across_thread_counts(m in arb_model(), seed in 0u64..8) {
        let base = SolveOptions::new(seed)
            .strategy(Method::Dlm)
            .dlm(DlmOptions::quick(seed))
            .telemetry(true);
        let serial = solve(&m, &base.clone().threads(1));
        let serial_report = serial.report.expect("telemetry on");
        prop_assert_eq!(serial_report.threads, 1);
        for threads in [2usize, 3, 8] {
            let out = solve(&m, &base.clone().threads(threads));
            let report = out.report.expect("telemetry on");
            prop_assert_eq!(report.threads, threads.min(3), "pool is capped at the restart count");
            let (want, got) = (&serial.solution, &out.solution);
            prop_assert_eq!(&want.point, &got.point, "threads={}", threads);
            prop_assert_eq!(want.objective.to_bits(), got.objective.to_bits(), "threads={}", threads);
            prop_assert_eq!(want.evals, got.evals, "threads={}", threads);
            prop_assert_eq!(want.iterations, got.iterations, "threads={}", threads);
            prop_assert_eq!(serial_report.winner, report.winner, "threads={}", threads);
        }
    }
}

/// FNV-1a of everything a solve returns: the point, the objective bits,
/// feasibility, and the evaluation and iteration counts.
fn outcome_hash(s: &Solution) -> u64 {
    let mut h = Fnv64::new();
    for &v in &s.point {
        h.i64(v);
    }
    h.u64(s.objective.to_bits());
    h.byte(u8::from(s.feasible));
    h.u64(s.evals);
    h.u64(s.iterations);
    h.finish()
}

/// The brute-force row's model. The odometer steps both variables at
/// once on every carry, so its commits are multi-variable delta moves.
fn brute_model() -> Model {
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
    m
}

/// Whole-solve outcomes, pinned as [`outcome_hash`]es: DLM and CSA at
/// seeds 0 and 7 on 24 models of the [`model_of`] family, plus brute
/// force on [`brute_model`].
///
/// The values were generated while a tree-walk solver backend still
/// existed, running it and the compiled engine side by side; the two
/// agreed on every row. A drift here is a changed trajectory.
#[test]
fn solver_outcomes_are_pinned() {
    #[rustfmt::skip]
    let rows: [(Coefficients, [u64; 4]); 24] = [
        ((-3, -3, -2, 1, 3, 1), [0x95fd1022d9f6c844, 0x6273578372d1ab9b, 0x11a41d8892b4dda6, 0x3ca733a04daf6b0d]),
        ((3, 3, 2, 4, 39, 19), [0x46e4d856a3d89689, 0xbb98d25b6f661c37, 0x925b931a1b32b9d9, 0xbb98d25b6f661c37]),
        ((0, 0, 0, 1, 20, 1), [0xddd9ebccde8e994d, 0x9a13db9c31c24d3c, 0x7a68ced47fad86e4, 0xec81e9095072d71a]),
        ((1, -1, 0, 2, 10, 4), [0x4629c7b30cfe050c, 0xc857b4868a8ba07f, 0xd9de9cc80c448675, 0x0d927245071e64f4]),
        ((-1, 2, 1, 3, 25, 8), [0xa5c6bd0d3c458632, 0xcdbaabbf27f93fa0, 0x8848f9e1954ce24b, 0xd838827194c81d11]),
        ((2, -2, -1, 4, 5, 16), [0x7b2f432f92070538, 0x0cdf06cfc39743d1, 0xbc8a9eb043a2a6ca, 0xd4b53e2be4327329]),
        ((3, 0, -2, 1, 39, 12), [0xde56eff176937229, 0x7d3ffe437e2fd8c5, 0xac385dbf44aba41e, 0xdfbe3bbe0082f54f]),
        ((-2, 3, 2, 2, 15, 2), [0x986c3076accadeb2, 0xc0601f28987e9820, 0xb1e0a5034bf285e8, 0xcef58489c411257b]),
        ((0, -3, 1, 4, 30, 17), [0x827717806b028776, 0xbb15a2e1bf5c2893, 0x0f797e4fc7c6868f, 0x315c85ca54d0f909]),
        ((1, 1, -1, 1, 8, 6), [0xed736097e45c49de, 0x7419d0eb947ef543, 0x61b4e818cd27506e, 0x30e65ffecf4acedf]),
        ((-3, 2, 0, 3, 12, 10), [0xe03a064eeefb226b, 0x42f4ad44b0af9bbb, 0x245f08fe26ba64ca, 0xaa2f22dd74586ad1]),
        ((2, 1, 2, 2, 33, 3), [0xe1017052b07a28e4, 0xd6b4179ba8cf2aca, 0xe1017052b07a28e4, 0x132307d833da606d]),
        ((-1, -2, -2, 4, 18, 14), [0xcda68df1f9cc282d, 0x35d112a9ec7a7094, 0xeed00fca4c7208da, 0x331942ccc6a86244]),
        ((3, -3, 1, 3, 4, 1), [0xcf9fa9ea414e6e2d, 0x7e30ef0afa9d7bbd, 0xfdfb10cce93f987a, 0x9b3aa845b0ce24d6]),
        ((0, 2, -1, 2, 27, 9), [0x0c99cf4ff4957932, 0x119e9b1a6fb76e76, 0xacba3999f287976f, 0xeb814cb497da11d5]),
        ((-2, 0, 2, 1, 36, 5), [0xdc8d070ade6252c6, 0x81879560ac280882, 0x03ce382494701e9b, 0x5a9fb387dd0b24de]),
        ((1, 3, 0, 4, 22, 18), [0x53f291cf10c33eaa, 0xbed44fa0a3a776e3, 0xdf78cf5a73bf64a3, 0xe1c34f38bda7a7c3]),
        ((-3, -1, -1, 2, 9, 7), [0xe831046bdb57ceed, 0x84db22011816cb2e, 0xd139ee9239290771, 0x1ba34fba391a3785]),
        ((2, 2, 1, 1, 14, 11), [0xc386e4b4c05dfdfd, 0xff9a51d9c00097fd, 0xff2c5ece33be18c1, 0x431a1c4d9917ce00]),
        ((-1, 0, 2, 3, 6, 13), [0x1baf5ddb25de8c42, 0x34f6b47c3df9ea57, 0xbc2590231c4ca5b1, 0x9d33676a37960f41]),
        ((3, 1, -2, 4, 24, 15), [0x2618a707c154a2df, 0x9c04a0cbd36eb6e3, 0x41ddbf1bf66af06a, 0xa7bac916879fa98c]),
        ((0, -1, 0, 3, 38, 2), [0x5e1f234a17d026ed, 0x235dda8b77e45e8b, 0x99f524ae08bf364d, 0xaaf0b308653dcf8a]),
        ((-2, -3, 1, 1, 29, 19), [0x0f4d0e179df818f8, 0x2548f0416d5102fd, 0x3ff36c3e5faded41, 0x44834fa47aa1b7af]),
        ((1, 0, -1, 2, 16, 4), [0xd534a443f07fddcb, 0x9700e2e0ee862b0d, 0xdf3eae6a0c95ca73, 0x2615689b4ad39a0c]),
    ];
    let pinned_solve = |m: &Model, seed: u64, strategy: Method| {
        let opts = SolveOptions::new(seed)
            .strategy(strategy)
            .dlm(DlmOptions::quick(seed))
            .csa(CsaOptions::quick(seed));
        outcome_hash(&solve(m, &opts).solution)
    };
    let mut drifted = Vec::new();
    for (params, want) in rows {
        let m = model_of(params);
        let got: Vec<u64> = [0u64, 7]
            .into_iter()
            .flat_map(|seed| [Method::Dlm, Method::Csa].map(|s| pinned_solve(&m, seed, s)))
            .collect();
        if got != want {
            let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            drifted.push(format!("{params:?} -> [{}]", hex.join(", ")));
        }
    }
    let brute = solve(
        &brute_model(),
        &SolveOptions::new(0).strategy(Method::BruteForce),
    );
    let brute = outcome_hash(&brute.solution);
    if brute != 0x0b5a_ba3e_2d5b_ee1f {
        drifted.push(format!("brute force -> {brute:#018x}"));
    }
    assert!(
        drifted.is_empty(),
        "whole-solve outcomes drifted:\n{}",
        drifted.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever DLM and CSA return on the compiled engine,
    /// the tree walker agrees with it: the reported objective is the
    /// tree's objective at the returned point, bit for bit, and the
    /// reported feasibility is the tree's. A rerun with the same seed
    /// returns the same outcome.
    #[test]
    fn solver_outcomes_identical_across_backends(m in arb_model(), seed in 0u64..16) {
        for strategy in [Method::Dlm, Method::Csa] {
            let opts = SolveOptions::new(seed)
                .strategy(strategy)
                .dlm(DlmOptions::quick(seed))
                .csa(CsaOptions::quick(seed));
            let got = solve(&m, &opts).solution;
            prop_assert_eq!(
                got.objective.to_bits(),
                m.objective_at(&got.point).to_bits(),
                "{:?} objective", strategy
            );
            prop_assert_eq!(
                got.feasible,
                m.is_feasible(&got.point, FEAS_TOL),
                "{:?} feasible", strategy
            );
            let again = solve(&m, &opts).solution;
            prop_assert_eq!(outcome_hash(&got), outcome_hash(&again), "{:?} rerun", strategy);
        }
    }
}

/// Brute force on the compiled engine, whose odometer commits are
/// multi-variable delta moves, visits the same points and returns the
/// same answer as an enumeration through the tree walker in the same
/// odometer order (variable 0 fastest, first strict improvement wins).
#[test]
fn brute_force_identical_across_backends() {
    let m = brute_model();
    let fast = solve(&m, &SolveOptions::new(0).strategy(Method::BruteForce)).solution;

    let mut tree: Option<(Vec<i64>, f64)> = None;
    let mut visited = 0u64;
    for p in 0..=1 {
        for t in 1..=40 {
            let x = vec![t, p];
            visited += 1;
            if m.is_feasible(&x, FEAS_TOL) {
                let obj = m.objective_at(&x);
                if tree.as_ref().is_none_or(|(_, b)| obj < *b) {
                    tree = Some((x, obj));
                }
            }
        }
    }
    let (point, objective) = tree.expect("the brute-force model has feasible points");
    assert!(fast.feasible);
    assert_eq!(fast.point, point);
    assert_eq!(fast.objective.to_bits(), objective.to_bits());
    assert_eq!(fast.evals, visited);
}
