//! Guarantees of the DLM and CSA strategies on a synthesis-shaped model:
//! answers that do not depend on the thread count, budget and deadline
//! enforcement, and telemetry that reports without changing the answer.
//! DLM's thread-count independence is also pinned over random models in
//! `compiled_eval.rs` (`dlm_restart_pool_identical_across_thread_counts`).

use std::time::Duration;
use tce_solver::{
    solve, ConstraintOp, CsaOptions, DlmOptions, Domain, Expr, Model, SolveOptions, Strategy,
    Termination,
};

/// A synthesis-shaped model: two tile sizes, one placement bit, a memory
/// cap and a minimum-block constraint. Small enough to run fast, rich
/// enough that DLM and CSA trajectories are non-trivial.
fn synthesis_like() -> Model {
    let mut m = Model::new();
    let ti = m.add_var("ti", Domain::Int { lo: 1, hi: 4000 });
    let tj = m.add_var("tj", Domain::Int { lo: 1, hi: 4000 });
    let p = m.add_var("p", Domain::Binary);
    // I/O cost: tiles of A stream ceil(4000/ti)·ceil(4000/tj) times,
    // plus either re-reads of B (p=0) or a one-shot load (p=1)
    let trips = Expr::Mul(vec![
        Expr::CeilDiv(Box::new(Expr::Const(4000.0)), Box::new(Expr::Var(ti))),
        Expr::CeilDiv(Box::new(Expr::Const(4000.0)), Box::new(Expr::Var(tj))),
    ]);
    m.objective = Expr::Add(vec![
        Expr::Mul(vec![Expr::Const(16.0), trips.clone()]),
        Expr::Select(
            p,
            vec![
                Expr::Mul(vec![Expr::Const(4.0), trips]),
                Expr::Const(64_000.0),
            ],
        ),
    ]);
    // memory: ti·tj for the A tile, plus 4000·tj when B is held (p=1)
    m.add_constraint(
        "mem",
        Expr::Add(vec![
            Expr::Mul(vec![Expr::Var(ti), Expr::Var(tj)]),
            Expr::Select(
                p,
                vec![
                    Expr::Const(0.0),
                    Expr::Mul(vec![Expr::Const(4000.0), Expr::Var(tj)]),
                ],
            ),
        ]),
        ConstraintOp::Le,
        600_000.0,
    );
    m.add_constraint("min-block", Expr::Var(ti), ConstraintOp::Ge, 8.0);
    m
}

/// Quick DLM or CSA options: the cheap schedules of both strategies.
fn quick(strategy: Strategy, seed: u64) -> SolveOptions {
    SolveOptions::new(seed)
        .strategy(strategy)
        .dlm(DlmOptions::quick(seed))
        .csa(CsaOptions::quick(seed))
}

const SEARCHES: [Strategy; 2] = [Strategy::Dlm, Strategy::Csa];

#[test]
fn identical_across_thread_counts() {
    let m = synthesis_like();
    for strategy in SEARCHES {
        let base = quick(strategy, 42);
        let one = solve(&m, &base.clone().threads(1)).solution;
        let four = solve(&m, &base.clone().threads(4)).solution;
        let many = solve(&m, &base.threads(11)).solution;
        assert_eq!(one.point, four.point, "{strategy:?}");
        assert_eq!(one.point, many.point, "{strategy:?}");
        assert_eq!(one.objective, four.objective, "{strategy:?}");
        assert_eq!(one.evals, four.evals, "{strategy:?}");
        assert_eq!(one.evals, many.evals, "{strategy:?}");
        assert_eq!(one.iterations, many.iterations, "{strategy:?}");
    }
}

#[test]
fn telemetry_includes_tape_stats() {
    let m = synthesis_like();
    for strategy in SEARCHES {
        let out = solve(&m, &quick(strategy, 7).telemetry(true));
        let report = out.report.expect("telemetry requested");
        let tape = report
            .tape
            .expect("every DLM and CSA solve reports tape stats");
        assert!(tape.insts > 0);
        // word counts can move either way (embedding an immediate widens an
        // operand to two words; fusion removes whole headers) — they just
        // must be real measurements
        assert!(tape.words_before > 0);
        assert!(tape.words_after > 0);
        assert!(
            tape.specialized + tape.immediates + tape.strength_reduced + tape.fused > 0,
            "peephole found nothing to rewrite in a synthesis-shaped model: {tape:?}"
        );
    }
}

#[test]
fn identical_with_and_without_telemetry() {
    let m = synthesis_like();
    for (strategy, first_task) in SEARCHES.into_iter().zip(["dlm#0", "csa#0"]) {
        let plain = solve(&m, &quick(strategy, 7).threads(2));
        let traced = solve(&m, &quick(strategy, 7).threads(2).telemetry(true));
        assert_eq!(plain.solution.point, traced.solution.point);
        assert_eq!(plain.solution.evals, traced.solution.evals);
        assert_eq!(plain.solution.iterations, traced.solution.iterations);
        assert!(plain.report.is_none());
        let report = traced.report.expect("telemetry requested");
        assert_eq!(report.strategy, strategy.name());
        assert!(!report.traces.is_empty());
        assert_eq!(
            report.traces[report.winner].feasible,
            traced.solution.feasible
        );
        // the rendered report mentions the task
        let text = report.to_string();
        assert!(text.contains(first_task), "{text}");
    }
}

#[test]
fn respects_eval_budget() {
    let m = synthesis_like();
    // below what either strategy spends unbounded here, so it binds
    let budget = 300u64;
    for strategy in SEARCHES {
        let s = solve(&m, &quick(strategy, 3).max_evals(budget)).solution;
        // DLM's budget binds each restart's descent at iteration
        // granularity, and its polish phase is bounded by `max_iters`
        // instead: allow a scan and a polish of slack per restart. A CSA
        // chain checks before every move
        let slack = if strategy == Strategy::Csa { 0 } else { 5_000 };
        assert!(
            s.evals <= budget + slack,
            "{strategy:?} spent {} evals against a budget of {budget}",
            s.evals
        );
        assert!(s.evals > 0);
    }
}

#[test]
fn deadline_cuts_search_short() {
    let m = synthesis_like();
    for strategy in SEARCHES {
        // a deadline that has effectively already expired: the first
        // segment runs, then no further DLM restart is claimed, and a CSA
        // chain stops where it stands
        let opts = quick(strategy, 5).threads(1).telemetry(true);
        let uncut = solve(&m, &opts).solution;
        let out = solve(&m, &opts.deadline(Duration::from_nanos(1)));
        let report = out.report.expect("telemetry requested");
        assert!(
            out.solution.evals < uncut.evals,
            "{strategy:?}: deadline did not cut the search: {} of {} evals",
            out.solution.evals,
            uncut.evals
        );
        match strategy {
            // each restart here ends well inside one segment
            Strategy::Dlm => assert_eq!(report.traces.len(), 1, "{report}"),
            _ => {
                assert_eq!(report.traces[0].termination, Termination::Deadline);
                // fewer moves than `CsaOptions::quick`'s full ladder
                assert!(out.solution.iterations < 120 * 120, "{report}");
            }
        }
    }
}
