//! AMPL-like discrete optimization models: variables, expressions,
//! objective and constraints.

use std::fmt;

/// Identifies a variable within one [`Model`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into the model's variable list / a point vector.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Variable domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Integer in `[lo, hi]` (inclusive). Tile sizes use `[1, N_k]`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// 0/1 — the paper's placement variables `λ`. Equivalent to
    /// `Int { lo: 0, hi: 1 }` but printed as `λ(1−λ)=0` by the AMPL
    /// emitter for fidelity with Sec. 4.2.
    Binary,
}

impl Domain {
    /// Inclusive bounds of the domain.
    pub fn bounds(self) -> (i64, i64) {
        match self {
            Domain::Int { lo, hi } => (lo, hi),
            Domain::Binary => (0, 1),
        }
    }

    /// Clamps a value into the domain.
    pub fn clamp(self, v: i64) -> i64 {
        let (lo, hi) = self.bounds();
        v.clamp(lo, hi)
    }

    /// Number of values in the domain, saturating at `u64::MAX`.
    ///
    /// Computed in `i128` so extreme bounds (`i64::MIN..=i64::MAX`) cannot
    /// overflow the naive `hi - lo + 1`.
    pub fn size(self) -> u64 {
        let (lo, hi) = self.bounds();
        if hi < lo {
            return 0;
        }
        let span = (hi as i128) - (lo as i128) + 1;
        span.min(u64::MAX as i128) as u64
    }
}

/// A variable definition.
#[derive(Clone, Debug)]
pub struct VarDef {
    /// Display name (`T_i`, `lambda_A_0`, ...).
    pub name: String,
    /// Domain.
    pub domain: Domain,
}

/// Nonlinear expressions over model variables.
///
/// Rich enough for the paper's encoding: products of variables and
/// constants, ceiling divisions for tile counts, and placement selection
/// (`Select` is the one-hot λ-sum of Sec. 4.2 in closed form; the AMPL
/// emitter expands it back into λ products).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(f64),
    /// A variable's current value.
    Var(VarId),
    /// Sum of subexpressions.
    Add(Vec<Expr>),
    /// Product of subexpressions.
    Mul(Vec<Expr>),
    /// `lhs - rhs`.
    Sub(Box<Expr>, Box<Expr>),
    /// `ceil(num / den)`; evaluates to 0 if `den` evaluates to 0.
    CeilDiv(Box<Expr>, Box<Expr>),
    /// `options[x[selector]]` — the value of the option chosen by an
    /// integer selector variable (clamped into range).
    Select(VarId, Vec<Expr>),
}

impl Default for Expr {
    fn default() -> Self {
        Expr::Const(0.0)
    }
}

impl Expr {
    /// Evaluates under the point `x` (one value per variable).
    pub fn eval(&self, x: &[i64]) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => x[v.as_usize()] as f64,
            Expr::Add(es) => es.iter().map(|e| e.eval(x)).sum(),
            Expr::Mul(es) => es.iter().map(|e| e.eval(x)).product(),
            Expr::Sub(a, b) => a.eval(x) - b.eval(x),
            Expr::CeilDiv(a, b) => {
                let d = b.eval(x);
                if d == 0.0 {
                    0.0
                } else {
                    (a.eval(x) / d).ceil()
                }
            }
            Expr::Select(v, opts) => {
                if opts.is_empty() {
                    return 0.0;
                }
                let k = (x[v.as_usize()].max(0) as usize).min(opts.len() - 1);
                opts[k].eval(x)
            }
        }
    }

    /// Sum constructor that flattens trivial cases.
    pub fn add(es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::Const(0.0),
            1 => es.into_iter().next().expect("len checked"),
            _ => Expr::Add(es),
        }
    }

    /// Product constructor that flattens trivial cases.
    pub fn mul(es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::Const(1.0),
            1 => es.into_iter().next().expect("len checked"),
            _ => Expr::Mul(es),
        }
    }

    /// All variables the expression mentions (sorted, deduplicated).
    ///
    /// Allocates on every call; hot paths use
    /// [`Expr::collect_vars_into`] with a reused buffer, or the compiled
    /// tape's precomputed dependency sets.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars_into(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Appends every variable occurrence to `out` without sorting or
    /// deduplicating — the allocation-free building block behind
    /// [`Expr::vars`].
    pub fn collect_vars_into(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Add(es) | Expr::Mul(es) => {
                for e in es {
                    e.collect_vars_into(out);
                }
            }
            Expr::Sub(a, b) | Expr::CeilDiv(a, b) => {
                a.collect_vars_into(out);
                b.collect_vars_into(out);
            }
            Expr::Select(v, opts) => {
                out.push(*v);
                for e in opts {
                    e.collect_vars_into(out);
                }
            }
        }
    }
}

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

/// A constraint `expr (≤ | = | ≥) rhs`, with a normalization scale so
/// violations of constraints with wildly different magnitudes (bytes vs.
/// unit equalities) are comparable inside the Lagrangian.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Display name.
    pub name: String,
    /// Left-hand side.
    pub expr: Expr,
    /// Sense.
    pub op: ConstraintOp,
    /// Right-hand side constant.
    pub rhs: f64,
    /// Positive normalization scale (defaults to `max(|rhs|, 1)`).
    pub scale: f64,
}

impl Constraint {
    /// Raw violation (0 when satisfied): `max(0, lhs−rhs)`, `|lhs−rhs|`
    /// or `max(0, rhs−lhs)` depending on the sense.
    pub fn violation(&self, x: &[i64]) -> f64 {
        let lhs = self.expr.eval(x);
        match self.op {
            ConstraintOp::Le => (lhs - self.rhs).max(0.0),
            ConstraintOp::Eq => (lhs - self.rhs).abs(),
            ConstraintOp::Ge => (self.rhs - lhs).max(0.0),
        }
    }

    /// Violation divided by the normalization scale.
    pub fn violation_norm(&self, x: &[i64]) -> f64 {
        self.violation(x) / self.scale
    }

    /// True if satisfied within `tol` (normalized).
    pub fn satisfied(&self, x: &[i64], tol: f64) -> bool {
        self.violation_norm(x) <= tol
    }
}

/// A complete discrete optimization model (minimization).
#[derive(Clone, Debug, Default)]
pub struct Model {
    vars: Vec<VarDef>,
    /// Objective to minimize.
    pub objective: Expr,
    constraints: Vec<Constraint>,
}

impl Model {
    /// An empty model with objective 0.
    pub fn new() -> Self {
        Model {
            vars: Vec::new(),
            objective: Expr::Const(0.0),
            constraints: Vec::new(),
        }
    }

    /// Adds a variable; returns its id.
    pub fn add_var(&mut self, name: impl Into<String>, domain: Domain) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDef {
            name: name.into(),
            domain,
        });
        id
    }

    /// Adds a constraint with the default normalization scale.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: Expr,
        op: ConstraintOp,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            op,
            rhs,
            scale: rhs.abs().max(1.0),
        });
    }

    /// Variable definitions.
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// Mutable variable definitions (model surgery in tests and
    /// canonicalization helpers; does not renumber ids).
    pub fn vars_mut(&mut self) -> &mut Vec<VarDef> {
        &mut self.vars
    }

    /// Constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Mutable constraints (model surgery in tests and canonicalization
    /// helpers).
    pub fn constraints_mut(&mut self) -> &mut Vec<Constraint> {
        &mut self.constraints
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Evaluates the objective at `x`.
    pub fn objective_at(&self, x: &[i64]) -> f64 {
        self.objective.eval(x)
    }

    /// Normalized violations of all constraints at `x`.
    pub fn violations(&self, x: &[i64]) -> Vec<f64> {
        self.constraints
            .iter()
            .map(|c| c.violation_norm(x))
            .collect()
    }

    /// True if all constraints hold within `tol` (normalized).
    pub fn is_feasible(&self, x: &[i64], tol: f64) -> bool {
        self.constraints.iter().all(|c| c.satisfied(x, tol))
    }

    /// Clamps a point into all variable domains, in place.
    pub fn clamp(&self, x: &mut [i64]) {
        for (v, def) in x.iter_mut().zip(self.vars.iter()) {
            *v = def.domain.clamp(*v);
        }
    }

    /// The all-lower-bounds point (tile size 1 everywhere — the paper's
    /// guaranteed-feasible corner for memory constraints).
    pub fn lower_corner(&self) -> Vec<i64> {
        self.vars.iter().map(|v| v.domain.bounds().0).collect()
    }

    /// Total number of points in the search space (saturating).
    pub fn space_size(&self) -> u64 {
        self.vars
            .iter()
            .map(|v| v.domain.size())
            .fold(1u64, |a, b| a.saturating_mul(b))
    }
}

/// Result of a solver run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Solution {
    /// Best point found (one value per variable).
    pub point: Vec<i64>,
    /// Objective value at `point`.
    pub objective: f64,
    /// Whether `point` satisfies all constraints.
    pub feasible: bool,
    /// Number of objective/Lagrangian evaluations performed.
    pub evals: u64,
    /// Number of outer iterations (descents / temperature steps / points).
    pub iterations: u64,
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "objective {:.4e} ({}), {} evals",
            self.objective,
            if self.feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            },
            self.evals
        )
    }
}

/// Feasibility tolerance used by all solvers (normalized violations).
pub const FEAS_TOL: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    fn model_xy() -> (Model, VarId, VarId) {
        let mut m = Model::new();
        let x = m.add_var("x", Domain::Int { lo: 0, hi: 10 });
        let y = m.add_var("y", Domain::Binary);
        (m, x, y)
    }

    #[test]
    fn expr_eval_basics() {
        let (_, x, y) = model_xy();
        let e = Expr::Add(vec![
            Expr::Mul(vec![Expr::Const(2.0), Expr::Var(x)]),
            Expr::Var(y),
        ]);
        assert_eq!(e.eval(&[3, 1]), 7.0);
        let s = Expr::Sub(Box::new(Expr::Var(x)), Box::new(Expr::Const(1.0)));
        assert_eq!(s.eval(&[5, 0]), 4.0);
    }

    #[test]
    fn ceil_div_semantics() {
        let (_, x, _) = model_xy();
        let e = Expr::CeilDiv(Box::new(Expr::Const(10.0)), Box::new(Expr::Var(x)));
        assert_eq!(e.eval(&[3, 0]), 4.0);
        assert_eq!(e.eval(&[5, 0]), 2.0);
        assert_eq!(e.eval(&[0, 0]), 0.0); // guarded division
    }

    #[test]
    fn select_picks_option_and_clamps() {
        let (_, x, _) = model_xy();
        let e = Expr::Select(x, vec![Expr::Const(10.0), Expr::Const(20.0)]);
        assert_eq!(e.eval(&[0, 0]), 10.0);
        assert_eq!(e.eval(&[1, 0]), 20.0);
        assert_eq!(e.eval(&[9, 0]), 20.0); // clamped to last option
    }

    #[test]
    fn constraint_violations() {
        let (_, x, _) = model_xy();
        let c = Constraint {
            name: "c".into(),
            expr: Expr::Var(x),
            op: ConstraintOp::Le,
            rhs: 4.0,
            scale: 4.0,
        };
        assert_eq!(c.violation(&[3, 0]), 0.0);
        assert_eq!(c.violation(&[6, 0]), 2.0);
        assert_eq!(c.violation_norm(&[6, 0]), 0.5);
        assert!(c.satisfied(&[4, 0], 0.0));

        let ceq = Constraint {
            name: "e".into(),
            expr: Expr::Var(x),
            op: ConstraintOp::Eq,
            rhs: 2.0,
            scale: 1.0,
        };
        assert_eq!(ceq.violation(&[5, 0]), 3.0);
        let cge = Constraint {
            name: "g".into(),
            expr: Expr::Var(x),
            op: ConstraintOp::Ge,
            rhs: 2.0,
            scale: 1.0,
        };
        assert_eq!(cge.violation(&[0, 0]), 2.0);
        assert_eq!(cge.violation(&[3, 0]), 0.0);
    }

    #[test]
    fn model_feasibility_and_clamp() {
        let (mut m, x, y) = model_xy();
        m.add_constraint("cap", Expr::Var(x), ConstraintOp::Le, 4.0);
        assert!(m.is_feasible(&[4, 0], FEAS_TOL));
        assert!(!m.is_feasible(&[5, 0], FEAS_TOL));
        let mut p = vec![99, 7];
        m.clamp(&mut p);
        assert_eq!(p, vec![10, 1]);
        assert_eq!(m.lower_corner(), vec![0, 0]);
        assert_eq!(m.space_size(), 22);
        let _ = y;
    }

    #[test]
    fn domain_size_survives_extreme_bounds() {
        // the naive `(hi - lo + 1)` overflows (panics in debug) here
        let full = Domain::Int {
            lo: i64::MIN,
            hi: i64::MAX,
        };
        assert_eq!(full.size(), u64::MAX); // saturates
        let half = Domain::Int {
            lo: 0,
            hi: i64::MAX,
        };
        assert_eq!(half.size(), i64::MAX as u64 + 1);
        let neg = Domain::Int {
            lo: i64::MIN,
            hi: -1,
        };
        assert_eq!(neg.size(), i64::MAX as u64 + 1);
        let inverted = Domain::Int { lo: 5, hi: 4 };
        assert_eq!(inverted.size(), 0);
        assert_eq!(Domain::Binary.size(), 2);
    }

    #[test]
    fn expr_vars_collects_all() {
        let (_, x, y) = model_xy();
        let e = Expr::Select(
            y,
            vec![
                Expr::Var(x),
                Expr::CeilDiv(Box::new(Expr::Var(x)), Box::new(Expr::Const(2.0))),
            ],
        );
        assert_eq!(e.vars(), vec![x, y]);
    }
}
