//! Property tests for the cache's canonical fingerprint:
//!
//! * invariant under variable renaming/reindexing (random permutations);
//! * invariant under statement-order-preserving rewrites (constraint
//!   reorder — constraint order never changes a model's meaning);
//! * no observed collisions between structurally distinct random models.

use proptest::prelude::*;
use tce_solver::canon::permuted_model;
use tce_solver::{canonicalize, ConstraintOp, Domain, Expr, Model};

/// Parameters of a random 3-variable model. Every parameter appears as a
/// distinct constant and the three domains are pairwise different, so two
/// different parameter tuples always build non-isomorphic models — equal
/// fingerprints across different tuples would be genuine collisions.
type Params = (i64, i64, i64, i64, i64, i64);

fn arb_params() -> impl Strategy<Value = Params> {
    (1i64..5, 5i64..9, 9i64..13, 1i64..3, 1i64..4, 5i64..30)
}

fn build_model((a, b, c, d, w, cap): Params) -> Model {
    let mut m = Model::new();
    let x = m.add_var("x", Domain::Int { lo: 1, hi: 10 });
    let y = m.add_var("y", Domain::Int { lo: 0, hi: 12 });
    let z = m.add_var("z", Domain::Int { lo: 2, hi: 14 });
    m.objective = Expr::Add(vec![
        Expr::Mul(vec![Expr::Const(a as f64), Expr::Var(x)]),
        Expr::Mul(vec![Expr::Const(b as f64), Expr::Var(y)]),
        Expr::Mul(vec![Expr::Const(c as f64), Expr::Var(y), Expr::Var(z)]),
        Expr::Mul(vec![
            Expr::Const(d as f64),
            Expr::CeilDiv(Box::new(Expr::Const(48.0)), Box::new(Expr::Var(x))),
        ]),
    ]);
    m.add_constraint(
        "cap",
        Expr::Add(vec![
            Expr::Var(x),
            Expr::Mul(vec![Expr::Const(w as f64), Expr::Var(y)]),
            Expr::Var(z),
        ]),
        ConstraintOp::Le,
        cap as f64,
    );
    m.add_constraint(
        "xz",
        Expr::Mul(vec![Expr::Var(x), Expr::Var(z)]),
        ConstraintOp::Le,
        64.0,
    );
    m
}

/// Deterministic Fisher-Yates driven by an xorshift stream — the tests
/// need arbitrary permutations, not cryptographic ones.
fn shuffled_identity(n: usize, mut seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let j = (seed % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming/reindexing the variables never changes the fingerprint.
    #[test]
    fn fingerprint_invariant_under_renaming(params in arb_params(), seed in 1u64..1000) {
        let m = build_model(params);
        let perm = shuffled_identity(m.num_vars(), seed);
        let renamed = permuted_model(&m, &perm);
        prop_assert_eq!(
            canonicalize(&m).fingerprint,
            canonicalize(&renamed).fingerprint,
            "permutation {:?} changed the fingerprint", perm
        );
    }

    /// Reordering constraints (a statement-order-preserving rewrite of the
    /// model) never changes the fingerprint.
    #[test]
    fn fingerprint_invariant_under_constraint_reorder(params in arb_params()) {
        let m = build_model(params);
        let mut reordered = m.clone();
        reordered.constraints_mut().reverse();
        prop_assert_eq!(
            canonicalize(&m).fingerprint,
            canonicalize(&reordered).fingerprint
        );
    }

    /// Renaming *and* constraint reorder together still hit the same
    /// fingerprint — the combination a differently-authored but equivalent
    /// program would produce.
    #[test]
    fn fingerprint_invariant_under_combined_rewrite(params in arb_params(), seed in 1u64..1000) {
        let m = build_model(params);
        let mut rewritten = permuted_model(&m, &shuffled_identity(m.num_vars(), seed));
        rewritten.constraints_mut().reverse();
        prop_assert_eq!(
            canonicalize(&m).fingerprint,
            canonicalize(&rewritten).fingerprint
        );
    }

    /// Structurally distinct models never collided across the sampled
    /// pairs (distinct parameter tuples ⇒ non-isomorphic models here).
    #[test]
    fn distinct_models_do_not_collide(pa in arb_params(), pb in arb_params()) {
        prop_assume!(pa != pb);
        let fa = canonicalize(&build_model(pa)).fingerprint;
        let fb = canonicalize(&build_model(pb)).fingerprint;
        prop_assert_ne!(fa, fb, "collision between {:?} and {:?}", pa, pb);
    }
}

// --- request keys ---------------------------------------------------------

use tce_cache::{network_request_fingerprint, request_fingerprint};
use tce_core::{build_network_model, SynthesisConfig};

/// The solver thread count changes only how fast the answer arrives, so
/// it never reaches the request key — with or without a DLM override.
#[test]
fn request_key_ignores_solver_threads() {
    let canon = canonicalize(&build_model((2, 6, 10, 1, 2, 20)));
    let base = SynthesisConfig::test_scale(64 * 1024);
    let overridden = base
        .clone()
        .dlm_options(tce_solver::DlmOptions::quick(base.seed));
    for config in [base, overridden] {
        assert_eq!(
            request_fingerprint(&canon, &config.clone().threads(1)),
            request_fingerprint(&canon, &config.threads(4))
        );
    }
}

// --- contraction networks -------------------------------------------------

use tce_ir::network::{gen_network, ContractionDag, NetworkGenConfig, TensorDecl};
use tce_ir::{Index, RangeMap};

/// Renames every index and tensor of a network. Index names are assigned
/// in *reverse* of their current sorted order, so the renamed `RangeMap`
/// iterates in a genuinely different order and the lowered model's tile
/// variables come out permuted — the renaming a differently-authored but
/// equivalent network description would produce.
fn renamed_dag(dag: &ContractionDag) -> ContractionDag {
    let old: Vec<Index> = dag.ranges().indices().cloned().collect();
    let rename = |i: &Index| -> Index {
        let pos = old.iter().position(|o| o == i).expect("declared index");
        Index::new(format!("ren{}", old.len() - 1 - pos))
    };
    let mut ranges = RangeMap::new();
    for (i, n) in dag.ranges().iter() {
        ranges.set(rename(i), n);
    }
    let tensors: Vec<TensorDecl> = dag
        .tensors()
        .iter()
        .map(|t| TensorDecl {
            name: format!("Ren{}", t.name),
            dims: t.dims.iter().map(&rename).collect(),
            kind: t.kind,
            sparsity: t.sparsity,
        })
        .collect();
    ContractionDag::new(tensors, ranges, dag.nodes().to_vec()).expect("renamed network validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Renaming every index and tensor of a network never changes its
    /// cache fingerprint: canonicalization operates on the lowered model,
    /// where sparsity scales and placement selectors already live.
    #[test]
    fn network_fingerprint_invariant_under_renaming(seed in 0u64..512, nodes in 1usize..4) {
        let dag = gen_network(&NetworkGenConfig { seed, nodes, ..NetworkGenConfig::default() });
        let config = SynthesisConfig::test_scale(64 * 1024);
        let a = canonicalize(&build_network_model(&dag, config.mem_limit).model);
        let b = canonicalize(&build_network_model(&renamed_dag(&dag), config.mem_limit).model);
        prop_assert_eq!(a.fingerprint, b.fingerprint, "canonical model fingerprint moved");
        prop_assert_eq!(
            network_request_fingerprint(&a, &config),
            network_request_fingerprint(&b, &config)
        );
    }

    /// The network salt keeps network request keys disjoint from the
    /// dense request keyspace for any shared canonical model and config.
    #[test]
    fn network_keys_never_alias_dense_keys(seed in 0u64..512) {
        let dag = gen_network(&NetworkGenConfig { seed, ..NetworkGenConfig::default() });
        let config = SynthesisConfig::test_scale(64 * 1024);
        let canon = canonicalize(&build_network_model(&dag, config.mem_limit).model);
        prop_assert_ne!(
            network_request_fingerprint(&canon, &config),
            request_fingerprint(&canon, &config)
        );
    }
}
