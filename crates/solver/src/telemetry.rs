//! Solver telemetry: per-restart traces and the aggregate report.
//!
//! The DLM/CSA engines expose two hooks — "my best point improved" and
//! "my multipliers changed" — through the [`Sink`] trait. A [`Recorder`]
//! turns those into a per-task event log; the [`Noop`] sink has empty
//! inline methods and an `ENABLED = false` marker, so every hook call
//! site (and the feasibility checks that feed them) is compiled away
//! when telemetry is off. The drivers assemble one [`RestartTrace`] per
//! restart/chain and a [`SolverReport`] per solve; the report's
//! `Display` impl is what `tce … --explain` prints.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Receives telemetry events from a running solver engine.
///
/// Implementations must be cheap: the hooks fire inside the innermost
/// descent/annealing loops. `ENABLED` lets engines skip the work of
/// *computing* hook arguments (e.g. feasibility checks done only for
/// telemetry) — with [`Noop`] the guarded blocks vanish entirely after
/// monomorphization.
pub trait Sink {
    /// Whether this sink observes anything at all.
    const ENABLED: bool;

    /// The task's own best point improved: `objective` at `evals`
    /// Lagrangian evaluations into the task.
    fn improvement(&mut self, evals: u64, objective: f64, feasible: bool);

    /// The Lagrange multipliers changed; `max_abs` is the largest
    /// magnitude after the update.
    fn multipliers(&mut self, max_abs: f64);
}

/// The zero-cost sink used when telemetry is disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Sink for Noop {
    const ENABLED: bool = false;

    #[inline(always)]
    fn improvement(&mut self, _evals: u64, _objective: f64, _feasible: bool) {}

    #[inline(always)]
    fn multipliers(&mut self, _max_abs: f64) {}
}

/// One recorded improvement of a task's best point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Improvement {
    /// Lagrangian evaluations the task had performed at that moment.
    pub evals: u64,
    /// Objective value of the new best point.
    pub objective: f64,
    /// Whether the new best point was feasible.
    pub feasible: bool,
}

/// Collects the events of one task (restart or chain).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Every improvement of the task's best point, in order.
    pub improvements: Vec<Improvement>,
    /// Largest multiplier magnitude seen over the task's lifetime.
    pub max_multiplier: f64,
}

impl Sink for Recorder {
    const ENABLED: bool = true;

    fn improvement(&mut self, evals: u64, objective: f64, feasible: bool) {
        self.improvements.push(Improvement {
            evals,
            objective,
            feasible,
        });
    }

    fn multipliers(&mut self, max_abs: f64) {
        if max_abs > self.max_multiplier {
            self.max_multiplier = max_abs;
        }
    }
}

/// What a restart/chain was doing when it stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// DLM reached a constrained local minimum (a discrete saddle point).
    LocalMinimum,
    /// DLM abandoned the restart after too many multiplier updates
    /// without an accepted move.
    Stalled,
    /// The per-task iteration cap was hit.
    IterLimit,
    /// The per-task evaluation budget was exhausted.
    EvalBudget,
    /// The solve's wall-clock deadline expired.
    Deadline,
    /// A cooperative [`CancelToken`](crate::CancelToken) asked the solve
    /// to stop (explicit cancellation or a caller-side job deadline).
    Canceled,
    /// The task ran its full schedule (CSA cooling ladder, brute-force
    /// enumeration).
    Completed,
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Termination::LocalMinimum => "local-min",
            Termination::Stalled => "stalled",
            Termination::IterLimit => "iter-limit",
            Termination::EvalBudget => "eval-budget",
            Termination::Deadline => "deadline",
            Termination::Canceled => "canceled",
            Termination::Completed => "completed",
        })
    }
}

/// The full trace of one restart or annealing chain.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RestartTrace {
    /// Task label (`dlm#3`, `csa#0`, `brute`).
    pub label: String,
    /// Outer iterations (descent moves / annealing moves / points).
    pub iterations: u64,
    /// Objective/Lagrangian evaluations charged to the task.
    pub evals: u64,
    /// Objective at the task's final point.
    pub objective: f64,
    /// Whether the final point is feasible.
    pub feasible: bool,
    /// Sum of normalized constraint violations at the final point.
    pub violation: f64,
    /// Largest multiplier magnitude seen (0 when telemetry was off or
    /// the task never touched its multipliers).
    pub max_multiplier: f64,
    /// Improvements of the task's best point, in order.
    pub improvements: Vec<Improvement>,
    /// Why the task stopped.
    pub termination: Termination,
}

/// Compile-time tape statistics: what the peephole pass did to the
/// encoded programs of one [`CompiledModel`](crate::CompiledModel)
/// (full tape + per-variable delta programs + batched lane programs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TapeStats {
    /// Tape instructions after CSE/folding/dead-code sweep.
    pub insts: u64,
    /// Total encoded program words before the peephole pass.
    pub words_before: u64,
    /// Total encoded program words after the peephole pass.
    pub words_after: u64,
    /// Two-operand `Add`/`Mul` specialized to fixed-layout decodes.
    pub specialized: u64,
    /// Constant operands embedded as stream immediates.
    pub immediates: u64,
    /// `CeilDiv`-by-power-of-two rewritten as exact multiplies.
    pub strength_reduced: u64,
    /// Adjacent multiply→add pairs fused into one decode.
    pub fused: u64,
}

/// Aggregate report of one solve, attached to
/// [`SolveOutcome`](crate::SolveOutcome) when telemetry is enabled.
#[derive(Clone, Debug, Serialize)]
pub struct SolverReport {
    /// Which strategy produced the report (`"dlm"`, `"csa"`, `"brute"`).
    pub strategy: &'static str,
    /// Worker threads used (always 1 for CSA and brute force).
    pub threads: usize,
    /// Wall-clock time of the whole solve.
    pub wall: Duration,
    /// Evaluations summed over all tasks.
    pub total_evals: u64,
    /// Iterations summed over all tasks.
    pub total_iterations: u64,
    /// Index into `traces` of the winning task.
    pub winner: usize,
    /// Peephole statistics of the compiled tape the solve ran on
    /// (`None` for strategies that never compiled a tape).
    pub tape: Option<TapeStats>,
    /// One trace per restart/chain, in task order.
    pub traces: Vec<RestartTrace>,
}

// Hand-written: the derive cannot rebuild the `&'static str` strategy
// field, so deserialization parses the stored name as a `Strategy` and
// keeps that strategy's static name, rejecting anything else.
impl Deserialize for SolverReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<'v>(v: &'v serde::Value, name: &str) -> Result<&'v serde::Value, serde::Error> {
            v.get(name).ok_or_else(|| serde::Error::missing(name))
        }
        let name = String::from_value(field(v, "strategy")?)?;
        let strategy = name
            .parse::<crate::Strategy>()
            .map_err(|_| serde::Error(format!("unknown solver strategy `{name}`")))?
            .name();
        Ok(SolverReport {
            strategy,
            threads: usize::from_value(field(v, "threads")?)?,
            wall: Duration::from_value(field(v, "wall")?)?,
            total_evals: u64::from_value(field(v, "total_evals")?)?,
            total_iterations: u64::from_value(field(v, "total_iterations")?)?,
            winner: usize::from_value(field(v, "winner")?)?,
            // lenient: reports written before the peephole pass carry no
            // `tape` key at all
            tape: match v.get("tape") {
                Some(t) => Option::from_value(t)?,
                None => None,
            },
            traces: Vec::from_value(field(v, "traces")?)?,
        })
    }
}

impl fmt::Display for SolverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "solver report: {} ({} thread{}, {:.1} ms wall, {} evals, {} iterations)",
            self.strategy,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall.as_secs_f64() * 1e3,
            self.total_evals,
            self.total_iterations,
        )?;
        if let Some(t) = &self.tape {
            writeln!(
                f,
                "  tape: {} insts, {} → {} words ({} specialized, {} immediates, \
                 {} strength-reduced, {} fused)",
                t.insts,
                t.words_before,
                t.words_after,
                t.specialized,
                t.immediates,
                t.strength_reduced,
                t.fused,
            )?;
        }
        writeln!(
            f,
            "  {:<8} {:>9} {:>10} {:>13} {:>9} {:>9}  {:<11} improvements",
            "task", "iters", "evals", "objective", "viol", "max λ", "end"
        )?;
        for (k, t) in self.traces.iter().enumerate() {
            let marker = if k == self.winner { '*' } else { ' ' };
            let improvements = match (t.improvements.first(), t.improvements.last()) {
                (Some(first), Some(last)) if t.improvements.len() > 1 => format!(
                    "{} ({:.3e} → {:.3e})",
                    t.improvements.len(),
                    first.objective,
                    last.objective
                ),
                (Some(only), _) => format!("1 ({:.3e})", only.objective),
                _ => "0".to_string(),
            };
            writeln!(
                f,
                "{marker} {:<8} {:>9} {:>10} {:>13.4e} {:>9.2e} {:>9.2e}  {:<11} {}",
                t.label,
                t.iterations,
                t.evals,
                t.objective,
                t.violation,
                t.max_multiplier,
                t.termination.to_string(),
                improvements,
            )?;
            if !t.feasible {
                writeln!(f, "  {:<8} (final point INFEASIBLE)", "")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_events() {
        let mut r = Recorder::default();
        r.improvement(10, 5.0, false);
        r.improvement(20, 3.0, true);
        r.multipliers(2.0);
        r.multipliers(1.0);
        assert_eq!(r.improvements.len(), 2);
        assert_eq!(r.improvements[1].objective, 3.0);
        assert_eq!(r.max_multiplier, 2.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_is_disabled() {
        assert!(!Noop::ENABLED);
        assert!(Recorder::ENABLED);
    }

    #[test]
    fn report_renders_traces() {
        let report = SolverReport {
            strategy: "dlm",
            threads: 4,
            wall: Duration::from_millis(12),
            total_evals: 1000,
            total_iterations: 50,
            winner: 1,
            tape: Some(TapeStats {
                insts: 40,
                words_before: 300,
                words_after: 280,
                specialized: 12,
                immediates: 6,
                strength_reduced: 2,
                fused: 3,
            }),
            traces: vec![
                RestartTrace {
                    label: "dlm#0".into(),
                    iterations: 20,
                    evals: 400,
                    objective: 2.0e8,
                    feasible: true,
                    violation: 0.0,
                    max_multiplier: 4.0,
                    improvements: vec![
                        Improvement {
                            evals: 100,
                            objective: 9.0e8,
                            feasible: true,
                        },
                        Improvement {
                            evals: 300,
                            objective: 2.0e8,
                            feasible: true,
                        },
                    ],
                    termination: Termination::LocalMinimum,
                },
                RestartTrace {
                    label: "dlm#1".into(),
                    iterations: 30,
                    evals: 600,
                    objective: 1.5e8,
                    feasible: true,
                    violation: 0.0,
                    max_multiplier: 1.0,
                    improvements: vec![],
                    termination: Termination::IterLimit,
                },
            ],
        };
        let s = report.to_string();
        assert!(s.contains("solver report: dlm"), "{s}");
        assert!(s.contains("local-min"), "{s}");
        assert!(s.contains("* dlm#1"), "{s}");
        assert!(s.contains("2 (9.000e8 → 2.000e8)"), "{s}");
        assert!(s.contains("tape: 40 insts, 300 → 280 words"), "{s}");
    }

    #[test]
    fn report_tape_stats_roundtrip_and_lenient_absence() {
        let report = SolverReport {
            strategy: "dlm",
            threads: 1,
            wall: Duration::from_millis(1),
            total_evals: 10,
            total_iterations: 2,
            winner: 0,
            tape: Some(TapeStats {
                insts: 7,
                words_before: 50,
                words_after: 44,
                specialized: 3,
                immediates: 1,
                strength_reduced: 1,
                fused: 1,
            }),
            traces: vec![],
        };
        let v = report.to_value();
        let back = SolverReport::from_value(&v).unwrap();
        assert_eq!(back.tape, report.tape);

        // a report serialized before the tape field existed still parses
        let mut entries = match v {
            serde::Value::Map(entries) => entries,
            _ => unreachable!(),
        };
        entries.retain(|(k, _)| k != "tape");
        let old = SolverReport::from_value(&serde::Value::Map(entries)).unwrap();
        assert_eq!(old.tape, None);
    }
}
