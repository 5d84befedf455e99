//! Round-trip tests for `SolveOutcome` serialization — the solver half of
//! the synthesis-cache record payload.

use std::time::Duration;
use tce_solver::{
    solve, ConstraintOp, Domain, Expr, Improvement, Model, RestartTrace, Solution, SolveOptions,
    SolveOutcome, SolverReport, Strategy, Termination,
};

fn tile_model() -> Model {
    let mut m = Model::new();
    let t = m.add_var("t", Domain::Int { lo: 1, hi: 100 });
    m.objective = Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t)));
    m.add_constraint("cap", Expr::Var(t), ConstraintOp::Le, 17.0);
    m
}

fn assert_outcomes_equal(a: &SolveOutcome, b: &SolveOutcome) {
    assert_eq!(a.solution.point, b.solution.point);
    assert_eq!(
        a.solution.objective.to_bits(),
        b.solution.objective.to_bits()
    );
    assert_eq!(a.solution.feasible, b.solution.feasible);
    assert_eq!(a.solution.evals, b.solution.evals);
    assert_eq!(a.solution.iterations, b.solution.iterations);
    assert_eq!(a.report.is_some(), b.report.is_some());
    if let (Some(ra), Some(rb)) = (&a.report, &b.report) {
        assert_eq!(ra.strategy, rb.strategy);
        assert_eq!(ra.threads, rb.threads);
        assert_eq!(ra.wall, rb.wall);
        assert_eq!(ra.total_evals, rb.total_evals);
        assert_eq!(ra.winner, rb.winner);
        assert_eq!(ra.traces.len(), rb.traces.len());
        for (ta, tb) in ra.traces.iter().zip(&rb.traces) {
            assert_eq!(ta.label, tb.label);
            assert_eq!(ta.termination, tb.termination);
            assert_eq!(ta.improvements, tb.improvements);
        }
    }
}

#[test]
fn solved_outcome_round_trips() {
    let m = tile_model();
    let out = solve(
        &m,
        &SolveOptions::new(7).strategy(Strategy::Dlm).telemetry(true),
    );
    assert!(out.report.is_some());
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    let back: SolveOutcome = serde_json::from_str(&json).expect("deserialize");
    let again = serde_json::to_string_pretty(&back).expect("re-serialize");
    assert_eq!(json, again, "round-trip must be byte-identical");
    assert_outcomes_equal(&out, &back);
}

#[test]
fn handcrafted_outcome_round_trips() {
    let out = SolveOutcome {
        solution: Solution {
            point: vec![17, -3, 0],
            objective: 6.25,
            feasible: true,
            evals: 1234,
            iterations: 77,
        },
        report: Some(SolverReport {
            strategy: "dlm",
            threads: 4,
            wall: Duration::new(1, 500_000_000),
            total_evals: 9000,
            total_iterations: 450,
            winner: 1,
            tape: None,
            traces: vec![RestartTrace {
                label: "dlm#0".into(),
                iterations: 20,
                evals: 400,
                objective: 2.0e8,
                feasible: false,
                violation: 0.5,
                max_multiplier: 4.0,
                improvements: vec![Improvement {
                    evals: 100,
                    objective: 9.0e8,
                    feasible: true,
                }],
                termination: Termination::Stalled,
            }],
        }),
    };
    let json = serde_json::to_string(&out).expect("serialize");
    let back: SolveOutcome = serde_json::from_str(&json).expect("deserialize");
    assert_outcomes_equal(&out, &back);
}

#[test]
fn unknown_strategy_rejected() {
    // `portfolio` named a strategy that no longer exists
    for name in ["genetic", "portfolio"] {
        let json = format!(
            r#"{{"solution":{{"point":[1],"objective":1.0,"feasible":true,"evals":1,"iterations":1}},"report":{{"strategy":"{name}","threads":1,"wall":{{"secs":0,"nanos":0}},"total_evals":1,"total_iterations":1,"winner":0,"traces":[]}}}}"#
        );
        let err = serde_json::from_str::<SolveOutcome>(&json).unwrap_err();
        assert!(
            format!("{err:?}").contains("unknown solver strategy"),
            "{name}"
        );
    }
}

#[test]
fn reportless_outcome_round_trips() {
    let m = tile_model();
    let out = solve(&m, &SolveOptions::new(7));
    assert!(out.report.is_none());
    let json = serde_json::to_string(&out).expect("serialize");
    let back: SolveOutcome = serde_json::from_str(&json).expect("deserialize");
    assert!(back.report.is_none());
    assert_outcomes_equal(&out, &back);
}
