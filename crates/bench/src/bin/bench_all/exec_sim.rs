//! `exec_sim`: the run time of the generated code. Plans are synthesized
//! once in set-up; each operation is one `execute` call.
//!
//! Closed loop, one caller; `execute` itself runs `nproc` ≤ 2 simulated
//! ranks because the machine has two cores.

use crate::grid::{p8, Synth, SOLVER_SEEDS};
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{
    max_abs_err, test_scale_programs, verification_pass, Baseline, NUMERIC_TOL, TEST_SCALE_MEM,
};
use crate::workload::{span_table, Ctx, Layers, Samples, Traced};
use std::collections::HashMap;
use std::time::Instant;
use tce_codegen::ConcretePlan;
use tce_core::{synthesize_dcs, SynthesisConfig};
use tce_exec::{dense_reference, execute, ExecOptions, ExecReport, FaultPlan, RetryPolicy};

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Accounting only, paper scale (Tables 3 and 4).
    DryRun,
    /// Real numbers at test scale, checked against the dense reference.
    Full,
    /// A full run that meets two transient disk faults and retries.
    Faulted,
}

struct Case {
    name: String,
    kind: Kind,
    nproc: usize,
    plan: ConcretePlan,
    opts: ExecOptions,
    /// Dense reference arrays (`Full` and `Faulted`).
    reference: Option<HashMap<String, Vec<f64>>>,
    /// Bytes and operations the first execution moved; later ones must match.
    expected: (u64, u64),
}

pub struct Prepared {
    cases: Vec<Case>,
    pub baseline: Baseline,
}

pub fn setup(ctx: &Ctx) -> Result<Prepared, String> {
    let programs = p8();
    let baseline = verification_pass(&programs)?;
    let mut rng = SplitMix64::new(ctx.seed);
    let mut cases = Vec::new();
    let mut add = |name: String,
                   kind,
                   nproc,
                   plan: &ConcretePlan,
                   opts: ExecOptions,
                   reference: Option<&HashMap<String, Vec<f64>>>| {
        cases.push(Case {
            name,
            kind,
            nproc,
            plan: plan.clone(),
            opts: opts.with_nproc(nproc),
            reference: reference.cloned(),
            expected: (0, 0),
        });
    };
    // the three dense paper-scale programs head P8
    for spec in &programs[..3] {
        let Synth::Dense(r) = spec.synthesize(SOLVER_SEEDS[0])? else {
            unreachable!("dense source")
        };
        for nproc in [1, 2] {
            add(
                format!("dry/{}/np{nproc}", spec.name),
                Kind::DryRun,
                nproc,
                &r.plan,
                ExecOptions::dry_run(),
                None,
            );
        }
    }
    for (k, (name, program)) in test_scale_programs().into_iter().enumerate() {
        let r = synthesize_dcs(&program, &SynthesisConfig::test_scale(TEST_SCALE_MEM))
            .map_err(|e| format!("{name}: {e}"))?;
        let reference = dense_reference(&program, tce_exec::interp::default_input_gen);
        for nproc in [1, 2] {
            add(
                format!("full/{name}/np{nproc}"),
                Kind::Full,
                nproc,
                &r.plan,
                ExecOptions::full_test(),
                Some(&reference),
            );
        }
        if k == 0 {
            // two consecutive failures early in the run; the default
            // policy's four attempts always ride them out
            let faults = FaultPlan::transient_after(0, 1 + rng.below(8), 2).with_seed(ctx.seed);
            let retry = RetryPolicy {
                seed: ctx.seed,
                ..RetryPolicy::default()
            };
            let opts = ExecOptions::full_test()
                .with_faults(faults)
                .with_retry(retry);
            add(
                format!("faulted/{name}/np1"),
                Kind::Faulted,
                1,
                &r.plan,
                opts,
                Some(&reference),
            );
        }
    }
    for case in &mut cases {
        let report = execute(&case.plan, &case.opts).map_err(|e| format!("{}: {e}", case.name))?;
        case.expected = (report.total.total_bytes(), report.total.total_ops());
        check(case, &report).map_err(|e| format!("{}: {e}", case.name))?;
        if case.kind == Kind::Faulted && report.resilience.retries == 0 {
            return Err(format!("{}: the fault plan never fired", case.name));
        }
    }
    Ok(Prepared { cases, baseline })
}

/// A finished execution must have moved exactly the traffic the first one
/// moved and, with real numbers, match the dense reference. Returns the
/// largest absolute error (0 for a dry run).
fn check(case: &Case, report: &ExecReport) -> Result<f64, String> {
    if (report.total.total_bytes(), report.total.total_ops()) != case.expected {
        return Err("traffic differs from the first execution".to_string());
    }
    let Some(want) = &case.reference else {
        return Ok(0.0);
    };
    match max_abs_err(report, want)? {
        e if e <= NUMERIC_TOL => Ok(e),
        e => Err(format!("max |plan - reference| = {e:e}")),
    }
}

fn class_names(prep: &Prepared) -> Vec<String> {
    prep.cases.iter().map(|c| c.name.clone()).collect()
}

pub fn run(prep: &Prepared, ctx: &Ctx) -> Result<Samples, String> {
    let mut rng = SplitMix64::new(ctx.seed).fork(1);
    let mut samples = Samples::new(ctx, class_names(prep));
    let origin = Instant::now();
    loop {
        for k in rng.permutation(prep.cases.len()) {
            let case = &prep.cases[k];
            let began = Instant::now();
            let report = execute(&case.plan, &case.opts);
            // stop the clock before the outputs are compared
            let done = Instant::now();
            let ok = report.is_ok_and(|r| check(case, &r).is_ok());
            if !samples.push_timed(k, origin, began, done, ok) {
                return Ok(samples);
            }
        }
    }
}

pub fn run_traced(prep: &Prepared, ctx: &Ctx) -> Result<Traced, String> {
    let mut rng = SplitMix64::new(ctx.seed).fork(1);
    let origin = Instant::now();
    let mut t = Tracer::new(ctx.workload, origin);
    let (mut op, mut failed) = (0u64, 0u64);
    let mut worst_err = 0.0f64;
    let mut retries = Vec::new();
    // traffic and arithmetic of one pass over the cases: the same on every pass
    let (mut io_ops, mut io_bytes, mut flops) = (0u64, 0u64, 0u64);
    let mut first_pass = true;
    'run: loop {
        for k in rng.permutation(prep.cases.len()) {
            let case = &prep.cases[k];
            op += 1;
            let report = t.time(op, k as u32, "exec.execute", None, false, || {
                execute(&case.plan, &case.opts)
            });
            match report {
                Ok(r) => {
                    match check(case, &r) {
                        Ok(e) => worst_err = worst_err.max(e),
                        Err(_) => failed += 1,
                    }
                    if case.kind == Kind::Faulted {
                        retries.push(r.resilience.retries as f64);
                    }
                    if first_pass {
                        io_ops += r.total.total_ops();
                        io_bytes += r.total.total_bytes();
                        flops += r.flops;
                    }
                }
                Err(_) => failed += 1,
            }
            if origin.elapsed().as_secs_f64() >= ctx.seconds {
                break 'run;
            }
        }
        first_pass = false;
    }
    if first_pass {
        return Err("the traced window ended before one pass over the cases".to_string());
    }

    let ms_of = |want: &dyn Fn(&Case) -> bool| {
        let durs: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| want(&prep.cases[s.class as usize]))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&durs)
    };
    let mut layers = Layers::new();
    layers.insert("exec.dry_run_ms", ms_of(&|c| c.kind == Kind::DryRun));
    layers.insert(
        "exec.full_ms",
        ms_of(&|c| c.kind == Kind::Full && c.nproc == 1),
    );
    layers.insert(
        "exec.full_nproc2_ms",
        ms_of(&|c| c.kind == Kind::Full && c.nproc == 2),
    );
    layers.insert("exec.faulted_ms", ms_of(&|c| c.kind == Kind::Faulted));
    layers.insert("exec.retries", median(&retries));
    layers.insert("exec.max_abs_err", worst_err);
    layers.insert("disksim.io_ops", io_ops as f64);
    layers.insert("disksim.io_bytes", io_bytes as f64);
    layers.insert("ga.flops", flops as f64);

    let rows = t.by_name(|_| true);
    let mut tables = span_table("exec_sim / all cases", &rows, median(&rows[0].1));
    tables.push_str(&format!("    {:<34} {:>7} {:>12}\n", "case", "n", "p50_us"));
    for (k, case) in prep.cases.iter().enumerate() {
        let durs: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.class as usize == k)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        tables.push_str(&format!(
            "    {:<34} {:>7} {:>12.1}\n",
            case.name,
            durs.len(),
            median(&durs)
        ));
    }
    Ok(Traced {
        tracer: t,
        classes: class_names(prep),
        layers,
        attempted: op,
        failed,
        tables,
    })
}
