//! Portfolio guarantees: thread-count-independent determinism, budget and
//! deadline enforcement, telemetry presence, and the never-worse-than-DLM
//! superset property.

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

fn quick_portfolio(seed: u64) -> SolveOptions {
    SolveOptions::new(seed)
        .strategy(Strategy::Portfolio)
        .dlm(DlmOptions::quick(seed))
        .csa(CsaOptions::quick(seed))
}

#[test]
fn portfolio_identical_across_thread_counts() {
    let m = synthesis_like();
    let base = quick_portfolio(42);
    let one = solve(&m, &base.clone().threads(1)).solution;
    let four = solve(&m, &base.clone().threads(4)).solution;
    let many = solve(&m, &base.threads(11)).solution;
    assert_eq!(one.point, four.point);
    assert_eq!(one.point, many.point);
    assert_eq!(one.objective, four.objective);
    assert_eq!(one.evals, four.evals);
    assert_eq!(one.evals, many.evals);
    assert_eq!(one.iterations, many.iterations);
}

#[test]
fn portfolio_telemetry_includes_tape_stats() {
    let m = synthesis_like();
    let out = solve(&m, &quick_portfolio(7).telemetry(true));
    let report = out.report.expect("telemetry requested");
    let tape = report.tape.expect("compiled backend reports tape stats");
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

#[test]
fn portfolio_identical_with_and_without_telemetry() {
    let m = synthesis_like();
    let plain = solve(&m, &quick_portfolio(7).threads(2));
    let traced = solve(&m, &quick_portfolio(7).threads(2).telemetry(true));
    assert_eq!(plain.solution.point, traced.solution.point);
    assert_eq!(plain.solution.evals, traced.solution.evals);
    assert!(plain.report.is_none());
    let report = traced.report.expect("telemetry requested");
    assert_eq!(report.strategy, "portfolio");
    assert!(!report.traces.is_empty());
    assert_eq!(
        report.traces[report.winner].feasible,
        traced.solution.feasible
    );
    // the rendered report mentions every task
    let text = report.to_string();
    assert!(text.contains("dlm#0"), "{text}");
    assert!(text.contains("csa#0"), "{text}");
}

#[test]
fn portfolio_never_worse_than_serial_dlm() {
    let m = synthesis_like();
    for seed in [1u64, 9, 2004] {
        let serial = solve(&m, &SolveOptions::new(seed).dlm(DlmOptions::quick(seed))).solution;
        let portfolio = solve(&m, &quick_portfolio(seed)).solution;
        assert!(portfolio.feasible >= serial.feasible);
        if serial.feasible {
            assert!(
                portfolio.objective <= serial.objective + 1e-9,
                "seed {seed}: portfolio {} vs serial {}",
                portfolio.objective,
                serial.objective
            );
        }
    }
}

#[test]
fn portfolio_respects_eval_budget() {
    let m = synthesis_like();
    let budget = 30_000u64;
    let s = solve(&m, &quick_portfolio(3).max_evals(budget)).solution;
    // budgets bind at iteration granularity: allow one neighbourhood
    // scan of slack per task (10 tasks, well under one scan each here)
    let slack = 5_000;
    assert!(
        s.evals <= budget + slack,
        "spent {} evals against a budget of {budget}",
        s.evals
    );
    assert!(s.evals > 0);
}

#[test]
fn portfolio_deadline_cuts_search_short() {
    let m = synthesis_like();
    // a deadline that has effectively already expired: after the first
    // round every remaining task must be marked Deadline
    let out = solve(
        &m,
        &quick_portfolio(5)
            .deadline(Duration::from_nanos(1))
            .segment_evals(256)
            .telemetry(true),
    );
    let report = out.report.expect("telemetry requested");
    let full: u64 = DlmOptions::quick(5).max_evals;
    assert!(
        out.solution.evals < full / 4,
        "deadline did not cut the search: {} evals",
        out.solution.evals
    );
    assert!(
        report
            .traces
            .iter()
            .any(|t| t.termination == Termination::Deadline),
        "no task recorded a deadline stop"
    );
}

#[test]
fn portfolio_pruning_rounds_stay_thread_independent() {
    let m = synthesis_like();
    // tiny segments force many rounds, giving the incumbent-pruning rule
    // every chance to fire; the outcome must still not depend on how the
    // rounds were spread over threads
    let fine = quick_portfolio(13).segment_evals(64);
    let one = solve(&m, &fine.clone().threads(1)).solution;
    let four = solve(&m, &fine.threads(4)).solution;
    assert_eq!(one.point, four.point);
    assert_eq!(one.objective, four.objective);
    assert_eq!(one.evals, four.evals);
}
