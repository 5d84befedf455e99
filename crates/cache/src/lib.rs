//! Content-addressed synthesis cache for the DCS pipeline.
//!
//! Synthesizing an out-of-core plan is dominated by the nonlinear solver
//! phase; everything around it (tiling, placement enumeration, decode,
//! codegen) is deterministic and cheap. This crate caches the solver phase
//! behind a *canonicalized* fingerprint:
//!
//! * the model fingerprint is renaming- and reorder-invariant
//!   (`tce_solver::canon` — Weisfeiler-Lehman color refinement), so two
//!   programs whose models differ only in index/array names or constraint
//!   order share one cache entry;
//! * the fingerprint is folded with a digest of every [`SynthesisConfig`]
//!   field that can change the solver's answer ([`config_digest`]);
//! * cache values are full solver outcomes plus the generated plan,
//!   stored as versioned, integrity-hashed JSON records
//!   ([`record::CacheRecord`]) in a content-addressed directory fronted
//!   by an exact in-memory LRU under one mutex ([`SynthesisCache`]); the
//!   plan is written to disk only, never kept in memory;
//! * on a hit the stored point is *revalidated* against the request's own
//!   model before being replayed through the pipeline's finish
//!   (`finish_dcs` or `finish_network`, behind [`Lowered`]), so
//!   collisions degrade to misses and a hit returns a bit-identical
//!   result.
//!
//! Corrupt disk entries are quarantined (renamed `.corrupt`), never
//! trusted and never fatal.
//!
//! [`SynthesisConfig`]: tce_core::SynthesisConfig

#![warn(missing_docs)]

pub mod cached;
pub mod fsfault;
pub mod record;
pub mod store;

pub use cached::{
    config_digest, network_request_fingerprint, prepare_network_request, prepare_request,
    request_fingerprint, run_network_prepared, run_prepared, synthesize_dcs_cached,
    synthesize_network_cached, CachedNetworkSynthesis, CachedSynthesis, Lowered,
    PreparedNetworkRequest, PreparedRequest,
};
pub use fsfault::{FsFaultKind, FsFaultPlan};
pub use record::{CacheRecord, RECORD_SCHEMA};
pub use store::{CacheStats, SynthesisCache, CACHE_DIR_ENV, DEFAULT_LRU_CAP, LRU_CAP_ENV};

#[cfg(test)]
pub(crate) mod test_support {
    use std::path::PathBuf;
    use tce_codegen::ConcretePlan;
    use tce_core::{synthesize_dcs, SynthesisConfig};
    use tce_ir::fixtures::two_index_fused;

    /// A real (small) plan for record fixtures.
    pub fn tiny_plan() -> ConcretePlan {
        let p = two_index_fused(64, 48);
        let config = SynthesisConfig::test_scale(64 * 1024);
        synthesize_dcs(&p, &config).expect("tiny synthesis").plan
    }

    /// A fresh per-test scratch directory under the system temp dir.
    pub fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tce-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::temp_dir;
    use tce_core::SynthesisConfig;
    use tce_ir::fixtures::two_index_fused;
    use tce_solver::{canonicalize, fingerprint_hex, CANON_VERSION};

    fn fixture() -> (tce_ir::Program, SynthesisConfig) {
        (
            two_index_fused(64, 48),
            SynthesisConfig::test_scale(64 * 1024),
        )
    }

    fn result_digest(r: &tce_core::SynthesisResult) -> (String, u64, u64, u64) {
        (
            serde_json::to_string_pretty(&r.plan).expect("plan json"),
            r.io_bytes.to_bits(),
            r.memory_bytes.to_bits(),
            r.predicted.total_s().to_bits(),
        )
    }

    #[test]
    fn second_run_hits_and_is_bit_identical() {
        let (p, config) = fixture();
        let cache = SynthesisCache::in_memory();

        let cold = synthesize_dcs_cached(&p, &config, &cache).expect("cold run");
        assert!(!cold.hit);
        let warm = synthesize_dcs_cached(&p, &config, &cache).expect("warm run");
        assert!(warm.hit, "identical request must hit");
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(result_digest(&warm.result), result_digest(&cold.result));
        assert_eq!(warm.result.solver_evals, cold.result.solver_evals);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.solver_wall_saved_s >= 0.0);
    }

    #[test]
    fn different_seed_is_a_different_request() {
        let (p, config) = fixture();
        let cache = SynthesisCache::in_memory();
        let a = synthesize_dcs_cached(&p, &config, &cache).expect("run a");
        let b = synthesize_dcs_cached(&p, &config.clone().seed(777), &cache).expect("run b");
        assert_ne!(a.fingerprint, b.fingerprint);
        assert!(!b.hit);
    }

    #[test]
    fn disk_backed_cache_survives_process_handle() {
        let dir = temp_dir("e2e_disk");
        let (p, config) = fixture();

        let first = SynthesisCache::with_dir(&dir).expect("open cache");
        let cold = synthesize_dcs_cached(&p, &config, &first).expect("cold run");
        assert!(!cold.hit);
        assert!(dir.join(format!("{}.json", cold.fingerprint)).exists());

        // fresh handle over the same directory: cold LRU, warm disk
        let second = SynthesisCache::with_dir(&dir).expect("reopen cache");
        let warm = synthesize_dcs_cached(&p, &config, &second).expect("warm run");
        assert!(warm.hit, "disk entry must replay");
        assert_eq!(result_digest(&warm.result), result_digest(&cold.result));
    }

    #[test]
    fn invalid_stored_point_degrades_to_miss() {
        let (p, config) = fixture();
        let cache = SynthesisCache::in_memory();

        // plant a record under the *correct* fingerprint whose point is
        // garbage — simulates a fingerprint collision
        let prepared = tce_core::prepare_dcs(&p, &config).expect("prepare");
        let canon = canonicalize(&prepared.dcs.model);
        let fp = fingerprint_hex(request_fingerprint(&canon, &config));
        let bogus = CacheRecord {
            schema: RECORD_SCHEMA.to_string(),
            canon_version: CANON_VERSION.to_string(),
            fingerprint: fp.clone(),
            canonical_point: vec![i64::MAX; canon.order.len()],
            objective: -1.0,
            feasible: true,
            evals: 1,
            iterations: 1,
            report: None,
            solve_wall_s: 1.0,
            plan: serde::Serialize::to_value(&crate::test_support::tiny_plan()),
        };
        cache.put(&fp, bogus).expect("plant record");

        let run = synthesize_dcs_cached(&p, &config, &cache).expect("run");
        assert!(!run.hit, "bogus record must be rejected, not replayed");
        assert_eq!(run.fingerprint, fp);
        assert_eq!(cache.stats().rejects, 1);

        // the rejected entry was overwritten by the fresh solve
        let again = synthesize_dcs_cached(&p, &config, &cache).expect("again");
        assert!(again.hit);
    }

    #[test]
    fn dense_fingerprint_is_pinned() {
        // the historical cache key of the canonical dense fixture; if this
        // moves, every warm cache in the field is silently invalidated —
        // bump RECORD_SCHEMA/CANON_VERSION instead of letting that happen
        let (p, config) = fixture();
        let prepared = tce_core::prepare_dcs(&p, &config).expect("prepare");
        let canon = canonicalize(&prepared.dcs.model);
        let fp = fingerprint_hex(request_fingerprint(&canon, &config));
        assert_eq!(
            fp, "3e5c661381b5b053",
            "dense request fingerprint changed — existing caches would all miss"
        );
    }

    #[test]
    fn dlm_override_fingerprint_is_pinned() {
        // the same fixture under a `DlmOptions::quick` override: the
        // options are keyed field by field, so this moves only when a
        // field is added or the digest changes on purpose
        let (p, config) = fixture();
        let config = config.dlm_options(tce_solver::DlmOptions::quick(7));
        let prepared = tce_core::prepare_dcs(&p, &config).expect("prepare");
        let canon = canonicalize(&prepared.dcs.model);
        let fp = fingerprint_hex(request_fingerprint(&canon, &config));
        assert_eq!(fp, "59f67c5e7afac09b", "dlm override fingerprint changed");
    }

    #[test]
    fn network_second_run_hits_and_is_bit_identical() {
        let dag = tce_ir::network::small_network();
        let config = SynthesisConfig::test_scale(64 * 1024);
        let cache = SynthesisCache::in_memory();
        let cold = cached::synthesize_network_cached(&dag, &config, &cache).expect("cold");
        assert!(!cold.hit);
        let warm = cached::synthesize_network_cached(&dag, &config, &cache).expect("warm");
        assert!(warm.hit, "identical network request must hit");
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(warm.result.plan, cold.result.plan);
        assert_eq!(
            warm.result.io_bytes.to_bits(),
            cold.result.io_bytes.to_bits()
        );
        assert_eq!(warm.result.solver_evals, cold.result.solver_evals);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn network_and_dense_share_one_store_without_aliasing() {
        // both kinds of record live in the same cache; keys never collide
        let cache = SynthesisCache::in_memory();
        let (p, config) = fixture();
        let dense = synthesize_dcs_cached(&p, &config, &cache).expect("dense");
        let dag = tce_ir::network::small_network();
        let net = cached::synthesize_network_cached(&dag, &config, &cache).expect("net");
        assert_ne!(dense.fingerprint, net.fingerprint);
        assert!(
            synthesize_dcs_cached(&p, &config, &cache)
                .expect("dense warm")
                .hit
        );
        assert!(
            cached::synthesize_network_cached(&dag, &config, &cache)
                .expect("net warm")
                .hit
        );
    }

    #[test]
    fn telemetry_survives_the_cache() {
        let (p, config) = fixture();
        let config = config.telemetry(true);
        let cache = SynthesisCache::in_memory();
        let cold = synthesize_dcs_cached(&p, &config, &cache).expect("cold");
        let warm = synthesize_dcs_cached(&p, &config, &cache).expect("warm");
        assert!(warm.hit);
        assert!(cold.result.solver_report.is_some());
        let a = cold.result.solver_report.as_ref().unwrap();
        let b = warm.result.solver_report.as_ref().unwrap();
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.total_evals, b.total_evals);
        assert_eq!(a.traces.len(), b.traces.len());
    }
}
