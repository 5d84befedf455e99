//! Edge-case coverage across the pipeline: rank-0 intermediates, vectors,
//! degenerate ranges, hostile parser inputs.

use proptest::prelude::*;
use tce_exec::interp::default_input_gen;
use tce_exec::{dense_reference, execute, ExecOptions};
use tce_ooc::core::prelude::*;

/// A rank-0 intermediate: `S` is a full reduction consumed by a later
/// nest (stays in memory — a scalar cannot be a disk block).
#[test]
fn scalar_intermediate_end_to_end() {
    let src = r#"
        input X[i, j]
        input Y[i, j]
        input Z[i, j]
        intermediate S
        output O[i, j]
        range i = 12, j = 10
        S = 0
        for i, j { S += X[i, j] * Y[i, j] }
        for i, j { O[i, j] += S * Z[i, j] }
    "#;
    let p = parse_program(src).expect("parses");
    let r = synthesize_dcs(&p, &SynthesisConfig::test_scale(4 * 1024)).expect("synthesis");
    // the scalar never spills
    let (sid, _) = p.array_by_name("S").unwrap();
    assert!(!r.plan.on_disk(sid));
    let rep = execute(&r.plan, &ExecOptions::full_test()).expect("execution");
    let want = dense_reference(&p, default_input_gen);
    for (g, w) in rep.outputs["O"].iter().zip(&want["O"]) {
        assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()));
    }
}

/// Extent-1 loops still tile and execute correctly.
#[test]
fn unit_extent_ranges() {
    let src = r#"
        input A[i, j]
        input C[n, j]
        output B[n, i]
        range i = 1, j = 7, n = 5
        for n, i { B[n, i] = 0 }
        for i, n, j { B[n, i] += C[n, j] * A[i, j] }
    "#;
    let p = parse_program(src).expect("parses");
    let r = synthesize_dcs(&p, &SynthesisConfig::test_scale(2 * 1024)).expect("synthesis");
    let rep = execute(&r.plan, &ExecOptions::full_test()).expect("execution");
    let want = dense_reference(&p, default_input_gen);
    assert_eq!(rep.outputs["B"].len(), want["B"].len());
    for (g, w) in rep.outputs["B"].iter().zip(&want["B"]) {
        assert!((g - w).abs() < 1e-9);
    }
}

/// Statement-order matters: an output produced by two different
/// contractions accumulates both.
#[test]
fn output_with_two_producers() {
    let src = r#"
        input X[i, j]
        input Y[i, j]
        input U[i, j]
        input V[i, j]
        output O[i]
        range i = 9, j = 8
        for i { O[i] = 0 }
        for i, j { O[i] += X[i, j] * Y[i, j] }
        for i, j { O[i] += U[i, j] * V[i, j] }
    "#;
    let p = parse_program(src).expect("parses");
    // two write sets for O
    let tiled = tile_program(&p);
    let space = enumerate_placements(&tiled, 1 << 20).expect("space");
    assert_eq!(space.writes.len(), 2);
    let r = synthesize_dcs(&p, &SynthesisConfig::test_scale(1024)).expect("synthesis");
    let rep = execute(&r.plan, &ExecOptions::full_test()).expect("execution");
    let want = dense_reference(&p, default_input_gen);
    for (k, (g, w)) in rep.outputs["O"].iter().zip(&want["O"]).enumerate() {
        assert!((g - w).abs() < 1e-9, "O[{k}]: {g} vs {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics, whatever bytes it gets.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = parse_program(&src);
    }

    /// Structured garbage (almost-valid programs) also never panics and
    /// errors carry a message.
    #[test]
    fn parser_rejects_gracefully(
        head in "(input|output|range|for|intermediate) ?",
        name in "[A-Za-z]{1,4}",
        tail in "[\\[\\]{}=+*, 0-9a-z]{0,40}",
    ) {
        let src = format!("{head}{name}{tail}");
        if let Err(e) = parse_program(&src) {
            prop_assert!(!e.message.is_empty());
        }
    }
}
