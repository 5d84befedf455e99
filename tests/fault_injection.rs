//! Seed-matrix fault injection property: under *any* seeded fault plan
//! and retry policy, execution either completes with the correct answer
//! or fails with a typed injected-fault error — never a panic, never a
//! deadlock, never a wrong answer reported as success. And for a fixed
//! seed the whole fault/retry/backoff timeline is deterministic: no
//! wall-clock dependence anywhere.
//!
//! The matrix covers 12 random configurations by default; CI stress runs
//! expand it with `TCE_FAULT_SEEDS=<n>`.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use tce_exec::{
    execute, DiskFaultKind, DiskFaults, ExecError, ExecOptions, ExecReport, FaultPlan, RetryPolicy,
};
use tce_ooc::core::prelude::*;
use tce_ooc::ir::fixtures::two_index_fused;

fn plan() -> ConcretePlan {
    let p = two_index_fused(48, 40);
    synthesize_dcs(&p, &SynthesisConfig::test_scale(32 * 1024))
        .expect("synthesis")
        .plan
}

fn seed_count() -> u64 {
    std::env::var("TCE_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// Draws a random fault/retry configuration from `seed`.
fn random_options(seed: u64) -> ExecOptions {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    let nproc: usize = rng.random_range(1..=4usize);
    let mut fault_plan = FaultPlan::none().with_seed(rng.next_u64());
    // 1–2 faulty disks with independently random schedules
    for _ in 0..rng.random_range(1..=2u32) {
        let rank = rng.random_range(0..nproc);
        let mut spec = DiskFaults::default();
        if rng.random_bool(0.6) {
            let after = rng.random_range(0..30u64);
            let (kind, count) = if rng.random_bool(0.5) {
                (DiskFaultKind::Transient, rng.random_range(1..=4u64))
            } else {
                (DiskFaultKind::Permanent, 1)
            };
            spec.schedule.fail_after = Some((after, kind, count));
        }
        if rng.random_bool(0.5) {
            spec.schedule.p_fail = rng.random_range(0.0..0.08f64);
        }
        if rng.random_bool(0.4) {
            spec.p_spike = rng.random_range(0.0..0.3f64);
            spec.spike_s = rng.random_range(0.0..0.5f64);
        }
        fault_plan = fault_plan.with_disk(rank, spec);
    }
    let retry = rng.random_bool(0.75).then(|| RetryPolicy {
        max_attempts: rng.random_range(1..=6u32),
        base_backoff_s: rng.random_range(0.001..0.1f64),
        backoff_factor: rng.random_range(1.0..3.0f64),
        max_backoff_s: 2.0,
        jitter: rng.random_range(0.0..0.5f64),
        seed: rng.next_u64(),
    });
    let mut opts = ExecOptions::full_test()
        .with_nproc(nproc)
        .with_faults(fault_plan);
    opts.retry = retry;
    opts
}

/// The only acceptable failure is a typed injected-fault error.
fn assert_typed_fault(err: &ExecError, seed: u64) {
    assert!(
        err.is_injected_fault(),
        "seed {seed}: failure must trace to an injected fault, got: {err}"
    );
}

fn assert_outputs_correct(plan: &ConcretePlan, clean: &ExecReport, rep: &ExecReport, seed: u64) {
    for (name, got) in &rep.outputs {
        let want = &clean.outputs[name];
        assert_eq!(got.len(), want.len(), "seed {seed}: `{name}` length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "seed {seed}: `{name}`[{k}] diverged bitwise"
            );
        }
    }
    let _ = plan;
}

#[test]
fn seed_matrix_faults_never_corrupt_or_hang() {
    let plan = plan();
    // one fault-free baseline per process count
    let clean: Vec<ExecReport> = (1..=4)
        .map(|p| execute(&plan, &ExecOptions::full_test().with_nproc(p)).expect("clean"))
        .collect();
    for seed in 0..seed_count() {
        let opts = random_options(seed);
        let first = execute(&plan, &opts);
        match &first {
            Ok(rep) => assert_outputs_correct(&plan, &clean[opts.nproc - 1], rep, seed),
            Err(e) => assert_typed_fault(e, seed),
        }
        // the entire simulated timeline is a function of the seeds:
        // rerunning the config reproduces accounting bit-for-bit
        let second = execute(&plan, &opts);
        match (&first, &second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.total.faulted_ops, b.total.faulted_ops, "seed {seed}");
                assert_eq!(a.total.retried_ops, b.total.retried_ops, "seed {seed}");
                assert_eq!(
                    a.total.total_time_s().to_bits(),
                    b.total.total_time_s().to_bits(),
                    "seed {seed}: simulated time must be deterministic"
                );
                assert_eq!(a.flops, b.flops, "seed {seed}");
            }
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "seed {seed}: failure must be deterministic"
            ),
            _ => panic!("seed {seed}: success/failure must be deterministic"),
        }
    }
}

#[test]
fn transient_fault_with_retry_is_bit_identical_with_nonzero_retries() {
    let plan = plan();
    let clean = execute(&plan, &ExecOptions::full_test()).expect("clean");
    let opts = ExecOptions::full_test()
        .with_faults(FaultPlan::transient_after(0, 7, 2))
        .with_retry(RetryPolicy::with_attempts(4));
    let rep = execute(&plan, &opts).expect("transient faults absorbed");
    assert!(rep.resilience.retries > 0, "retries must be visible");
    assert_eq!(rep.resilience.faults_injected, 2);
    assert!(rep.resilience.backoff_time_s > 0.0);
    for (name, got) in &rep.outputs {
        for (g, w) in got.iter().zip(&clean.outputs[name]) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

#[test]
fn sequential_fault_surfaces_as_error() {
    let plan = plan();
    let opts = ExecOptions::full_test().with_faults(FaultPlan::permanent_after(0, 5));
    let err = execute(&plan, &opts).expect_err("must fail");
    assert!(matches!(err, ExecError::Dra(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    assert!(err.is_permanent_fault(), "{err}");
}

#[test]
fn parallel_fault_aborts_all_ranks_without_deadlock() {
    let plan = plan();
    for failing_rank in 0..4usize {
        let opts = ExecOptions::full_test()
            .with_nproc(4)
            .with_faults(FaultPlan::permanent_after(failing_rank, 3));
        // the call must RETURN (abortable barriers — no deadlock) with
        // the injected fault as the root cause
        let err = execute(&plan, &opts).expect_err("must fail");
        assert!(
            matches!(err, ExecError::Dra(_)),
            "rank {failing_rank}: {err}"
        );
    }
}

#[test]
fn fault_after_completion_is_harmless() {
    let plan = plan();
    let opts = ExecOptions::full_test().with_faults(FaultPlan::permanent_after(0, u64::MAX));
    let rep = execute(&plan, &opts).expect("never fires");
    assert!(!rep.outputs.is_empty());
    assert_eq!(rep.resilience.faults_injected, 0);
}
