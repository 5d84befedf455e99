//! Exhaustive reference solver for small models.
//!
//! Used in tests to certify that DLM/CSA find true optima on shrunk
//! instances, and by the uniform-sampling baseline's inner loop in spirit
//! (the baseline has its own sampled enumeration in `tce-core`).

use crate::compiled::CompiledModel;
use crate::model::{Model, Solution, FEAS_TOL};

/// Hard cap on the number of points brute force will visit.
pub const BRUTE_FORCE_LIMIT: u64 = 20_000_000;

/// Enumerates the entire Cartesian space and returns the best feasible
/// point (or the least-violating one if nothing is feasible). Each
/// odometer increment is committed to the evaluator as a batched move,
/// so only the tape segments the stepped variables reach re-execute.
///
/// # Panics
///
/// Panics if the search space exceeds [`BRUTE_FORCE_LIMIT`] points.
pub(crate) fn run_brute(model: &Model) -> Solution {
    let size = model.space_size();
    assert!(
        size <= BRUTE_FORCE_LIMIT,
        "brute force over {size} points refused (limit {BRUTE_FORCE_LIMIT})"
    );

    let compiled = CompiledModel::compile(model);
    let mut x = model.lower_corner();
    let mut eval = compiled.evaluator(&x);
    let mut best_feasible: Option<(Vec<i64>, f64)> = None;
    // (point, violation sum, objective) — the objective rides along so the
    // infeasible fallback needs no extra evaluation at the end
    let mut least_violating: Option<(Vec<i64>, f64, f64)> = None;
    let mut evals = 0u64;
    let mut moves: Vec<(usize, i64)> = Vec::with_capacity(x.len());

    loop {
        evals += 1;
        if eval.is_feasible(FEAS_TOL) {
            let obj = eval.objective();
            if best_feasible.as_ref().is_none_or(|(_, b)| obj < *b) {
                best_feasible = Some((x.clone(), obj));
            }
        } else if best_feasible.is_none() {
            let v = eval.violation_sum();
            if least_violating.as_ref().is_none_or(|(_, b, _)| v < *b) {
                least_violating = Some((x.clone(), v, eval.objective()));
            }
        }

        // odometer increment
        moves.clear();
        let mut k = 0;
        loop {
            if k == x.len() {
                let (point, objective, feasible) = match best_feasible {
                    Some((p, o)) => (p, o, true),
                    None => {
                        let (p, _, o) = least_violating.expect("space is non-empty");
                        (p, o, false)
                    }
                };
                return Solution {
                    point,
                    objective,
                    feasible,
                    evals,
                    iterations: evals,
                };
            }
            let (lo, hi) = model.vars()[k].domain.bounds();
            if x[k] < hi {
                x[k] += 1;
                moves.push((k, x[k]));
                break;
            }
            x[k] = lo;
            moves.push((k, lo));
            k += 1;
        }
        eval.commit(&moves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlm::DlmOptions;
    use crate::model::{ConstraintOp, Domain, Expr, Model};

    fn small_model() -> Model {
        // minimize ceil(60/t) + 2p subject to Select(p, [4t, t]) ≤ 24
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 60 });
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

    #[test]
    fn brute_force_finds_optimum() {
        let s = run_brute(&small_model());
        assert!(s.feasible);
        // p=1: t ≤ 24 → ceil(60/24)=3, +2 → 5; p=0: t ≤ 6 → ceil(60/6)=10 → 10.
        assert_eq!(s.objective, 5.0, "point {:?}", s.point);
    }

    #[test]
    fn dlm_matches_brute_force_on_small_model() {
        let m = small_model();
        let bf = run_brute(&m);
        let dlm = crate::dlm::solve_dlm_impl(&m, &DlmOptions::quick(17));
        assert!(dlm.feasible);
        assert_eq!(dlm.objective, bf.objective);
    }

    #[test]
    fn infeasible_model_reports_least_violating() {
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 0, hi: 3 });
        m.objective = Expr::Var(t);
        m.add_constraint("no", Expr::Var(t), ConstraintOp::Ge, 10.0);
        let s = run_brute(&m);
        assert!(!s.feasible);
        assert_eq!(s.point[0], 3); // closest to satisfying t ≥ 10
    }

    #[test]
    #[should_panic(expected = "brute force over")]
    fn refuses_huge_spaces() {
        let mut m = Model::new();
        for k in 0..8 {
            m.add_var(format!("v{k}"), Domain::Int { lo: 0, hi: 100 });
        }
        let _ = run_brute(&m);
    }
}
