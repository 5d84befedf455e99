//! The cached synthesis entry points.
//!
//! [`run_prepared`] splits synthesis at the prepare/finish seam of
//! `tce-core`, for dense programs and contraction networks alike (both
//! lowered forms implement [`Lowered`]): the model is always rebuilt
//! (cheap, deterministic), the solver phase (the expensive part) is
//! skipped on a cache hit, and the stored outcome is replayed through the
//! pipeline's own finish (`finish_dcs` / `finish_network`) so decode,
//! spatial adjustment, prediction, and codegen all rerun
//! deterministically — a hit therefore returns a bit-identical result.
//!
//! The cache key is *renaming-invariant*: the model fingerprint comes from
//! the Weisfeiler-Lehman canonicalization in `tce_solver::canon`, folded
//! with a digest of every configuration field that can change the solver's
//! answer. Thread count is deliberately excluded (every DLM restart seeds
//! its own RNG from its index, so results are thread-count independent).
//! Network keys carry a salt of their own
//! ([`network_request_fingerprint`]).

use crate::record::{CacheRecord, RECORD_SCHEMA};
use crate::store::SynthesisCache;
use serde::Value;
use std::time::{Duration, Instant};
use tce_core::{
    finish_dcs, finish_network, prepare_dcs, prepare_network, NetworkSynthesis, ObjectiveKind,
    PreparedNetwork, PreparedSynthesis, SynthesisConfig, SynthesisError, SynthesisResult,
};
use tce_ir::network::ContractionDag;
use tce_solver::model::FEAS_TOL;
use tce_solver::{
    canonicalize, fingerprint_hex, CanonicalModel, DlmOptions, Fnv64, Model, Solution,
    SolveOutcome, CANON_VERSION,
};

/// Relative tolerance when revalidating a stored objective against the
/// request's own model on a hit.
const OBJECTIVE_REL_TOL: f64 = 1e-9;

/// What a cached synthesis run reports beyond the result itself. `R` is
/// the pipeline's result: [`SynthesisResult`] for a dense program,
/// [`NetworkSynthesis`] for a contraction network.
#[derive(Debug)]
pub struct CachedSynthesis<R = SynthesisResult> {
    /// The synthesis result (bit-identical whether hit or miss).
    pub result: R,
    /// Whether the solver phase was skipped.
    pub hit: bool,
    /// Hex request fingerprint (cache key).
    pub fingerprint: String,
    /// Wall time this run spent in the solver (≈0 on a hit).
    pub solve_wall: Duration,
    /// Solver seconds the original run spent — what the hit saved.
    pub saved_wall_s: f64,
}

/// What a cached network synthesis run reports.
pub type CachedNetworkSynthesis = CachedSynthesis<NetworkSynthesis>;

/// Digest of every config field that can change the solver's answer.
///
/// `SynthesisConfig::cancel` is deliberately *excluded*: a cancel token
/// (and any job deadline it carries) bounds how long a run may take, it
/// does not change what the answer would be — and canceled runs are never
/// cached, so the token can never leak a truncated result into an entry
/// that uncanceled requests would then share. `threads` is excluded for
/// the same reason: the solver is bit-identical at any thread count, so
/// it only changes how fast the answer arrives. `DlmOptions` carries no
/// thread field, so a `dlm` override cannot smuggle one in either.
pub fn config_digest(config: &SynthesisConfig) -> u64 {
    let mut h = Fnv64::new();
    h.str("tce-cache/config/v1");
    h.u64(config.mem_limit);
    h.byte(config.enforce_min_blocks as u8);
    h.str(config.strategy.name());
    h.u64(config.seed);
    match config.deadline {
        Some(d) => {
            h.byte(1);
            h.u64(d.as_nanos() as u64);
        }
        None => h.byte(0),
    }
    match config.max_evals {
        Some(n) => {
            h.byte(1);
            h.u64(n);
        }
        None => h.byte(0),
    }
    h.byte(config.telemetry as u8);
    h.str(match config.objective {
        ObjectiveKind::Volume => "Volume",
        ObjectiveKind::Time => "Time",
    });
    match &config.dlm {
        Some(o) => {
            h.byte(1);
            // destructured, not `..`-elided: a new field fails to compile
            // here until it is keyed
            let DlmOptions {
                seed,
                restarts,
                max_iters,
                max_evals,
                lambda_init,
                lambda_growth,
                max_stalled_updates,
            } = *o;
            h.u64(seed);
            h.u64(restarts as u64);
            h.u64(max_iters);
            h.u64(max_evals);
            h.f64(lambda_init);
            h.f64(lambda_growth);
            h.u64(u64::from(max_stalled_updates));
        }
        None => h.byte(0),
    }
    h.finish()
}

/// The cache key: canonical model fingerprint ⊕ config digest, under the
/// canonicalization version tag.
pub fn request_fingerprint(canon: &CanonicalModel, config: &SynthesisConfig) -> u64 {
    let mut h = Fnv64::new();
    h.str(CANON_VERSION);
    h.u64(canon.fingerprint);
    h.u64(config_digest(config));
    h.finish()
}

/// The cache key for a contraction-network request. Sparsity annotations
/// and the DAG structure are already folded in through the canonical
/// *model* fingerprint (nnz scales appear as objective coefficients,
/// placement selectors as extra variables), so this is
/// [`request_fingerprint`] under a distinct salt: a network request can
/// never collide with a single-contraction request, and dense requests
/// keep their historical fingerprints byte-for-byte.
pub fn network_request_fingerprint(canon: &CanonicalModel, config: &SynthesisConfig) -> u64 {
    let mut h = Fnv64::new();
    h.str("tce-cache/network/v1");
    h.u64(request_fingerprint(canon, config));
    h.finish()
}

/// A request lowered to its solver model but not yet solved: what the
/// cache needs from a synthesis pipeline to key, solve, replay and store
/// it. Implemented by the dense pipeline's [`PreparedSynthesis`] and the
/// network pipeline's [`PreparedNetwork`].
pub trait Lowered {
    /// The finished synthesis.
    type Output;
    /// The model the solver sees.
    fn model(&self) -> &Model;
    /// Decodes a solver outcome — a live solve's or a replayed one — into
    /// the finished synthesis.
    fn finish(
        self,
        config: &SynthesisConfig,
        outcome: SolveOutcome,
    ) -> Result<Self::Output, SynthesisError>;
    /// The finished plan, as a cache record stores it.
    fn plan_value(output: &Self::Output) -> Value;
    /// The cache key of a request whose model canonicalizes to `canon`.
    fn fingerprint(canon: &CanonicalModel, config: &SynthesisConfig) -> u64;
}

impl Lowered for PreparedSynthesis {
    type Output = SynthesisResult;

    fn model(&self) -> &Model {
        &self.dcs.model
    }

    fn finish(
        self,
        config: &SynthesisConfig,
        outcome: SolveOutcome,
    ) -> Result<SynthesisResult, SynthesisError> {
        finish_dcs(self, config, outcome)
    }

    fn plan_value(output: &SynthesisResult) -> Value {
        serde::Serialize::to_value(&output.plan)
    }

    fn fingerprint(canon: &CanonicalModel, config: &SynthesisConfig) -> u64 {
        request_fingerprint(canon, config)
    }
}

impl Lowered for PreparedNetwork {
    type Output = NetworkSynthesis;

    fn model(&self) -> &Model {
        &self.net.model
    }

    fn finish(
        self,
        config: &SynthesisConfig,
        outcome: SolveOutcome,
    ) -> Result<NetworkSynthesis, SynthesisError> {
        finish_network(self, config, outcome)
    }

    fn plan_value(output: &NetworkSynthesis) -> Value {
        serde::Serialize::to_value(&output.plan)
    }

    fn fingerprint(canon: &CanonicalModel, config: &SynthesisConfig) -> u64 {
        network_request_fingerprint(canon, config)
    }
}

/// A synthesis request that has been prepared and fingerprinted but not
/// yet solved. Lets callers (e.g. the batch service) learn the cache key
/// *before* committing to a solve, so identical in-flight requests can be
/// coalesced without preparing twice.
#[derive(Debug)]
pub struct PreparedRequest<L = PreparedSynthesis> {
    prepared: L,
    canon: CanonicalModel,
    /// Hex request fingerprint (the cache key).
    pub fingerprint: String,
}

/// A network request that has been lowered and fingerprinted but not yet
/// solved.
pub type PreparedNetworkRequest = PreparedRequest<PreparedNetwork>;

impl<L: Lowered> PreparedRequest<L> {
    fn new(prepared: L, config: &SynthesisConfig) -> PreparedRequest<L> {
        let canon = canonicalize(prepared.model());
        let fingerprint = fingerprint_hex(L::fingerprint(&canon, config));
        PreparedRequest {
            prepared,
            canon,
            fingerprint,
        }
    }
}

/// Prepares a request: tiling, placement enumeration, model build, and
/// canonical fingerprinting — everything except the solve.
pub fn prepare_request(
    program: &tce_ir::Program,
    config: &SynthesisConfig,
) -> Result<PreparedRequest, SynthesisError> {
    Ok(PreparedRequest::new(prepare_dcs(program, config)?, config))
}

/// Lowers and fingerprints a network request without solving it.
pub fn prepare_network_request(
    dag: &ContractionDag,
    config: &SynthesisConfig,
) -> Result<PreparedNetworkRequest, SynthesisError> {
    Ok(PreparedRequest::new(prepare_network(dag, config)?, config))
}

/// Rebuilds a [`SolveOutcome`] from a stored record, validating the point
/// against the *request's* model so a fingerprint collision (or a
/// canonical-order tie broken differently) degrades to a miss instead of
/// a wrong answer.
fn replay_outcome(
    rec: &CacheRecord,
    canon: &CanonicalModel,
    model: &Model,
) -> Option<SolveOutcome> {
    if rec.schema != RECORD_SCHEMA || rec.canon_version != CANON_VERSION {
        return None;
    }
    if rec.canonical_point.len() != canon.order.len() || !rec.feasible {
        return None;
    }
    let point = canon.from_canonical(&rec.canonical_point);
    if !model.is_feasible(&point, FEAS_TOL) {
        return None;
    }
    let objective = model.objective_at(&point);
    let tol = OBJECTIVE_REL_TOL * objective.abs().max(1.0);
    if (objective - rec.objective).abs() > tol {
        return None;
    }
    Some(SolveOutcome {
        solution: Solution {
            point,
            // stored values, not recomputed ones: the replayed outcome is
            // bit-identical to what the original solve returned
            objective: rec.objective,
            feasible: true,
            evals: rec.evals,
            iterations: rec.iterations,
        },
        report: rec.report.clone(),
    })
}

/// DCS synthesis through the cache: identical requests solve once.
pub fn synthesize_dcs_cached(
    program: &tce_ir::Program,
    config: &SynthesisConfig,
    cache: &SynthesisCache,
) -> Result<CachedSynthesis, SynthesisError> {
    run_prepared(prepare_request(program, config)?, config, cache)
}

/// Network synthesis through the cache: identical requests solve once.
pub fn synthesize_network_cached(
    dag: &ContractionDag,
    config: &SynthesisConfig,
    cache: &SynthesisCache,
) -> Result<CachedNetworkSynthesis, SynthesisError> {
    run_prepared(prepare_network_request(dag, config)?, config, cache)
}

/// Fails with [`SynthesisError::Canceled`] once the config's cancel token
/// (if any) has tripped.
fn check_canceled(config: &SynthesisConfig) -> Result<(), SynthesisError> {
    match &config.cancel {
        Some(token) if token.is_canceled() => Err(SynthesisError::Canceled {
            deadline_exceeded: token.deadline_expired(),
        }),
        _ => Ok(()),
    }
}

/// Runs a prepared request through the cache (hit → replay, miss → solve
/// and populate). Stored points are revalidated against the request's
/// own model. Canceled solves are surfaced without being cached, and a
/// solve that ran as long as its wall-clock deadline is returned but not
/// stored.
pub fn run_prepared<L: Lowered>(
    request: PreparedRequest<L>,
    config: &SynthesisConfig,
    cache: &SynthesisCache,
) -> Result<CachedSynthesis<L::Output>, SynthesisError> {
    let PreparedRequest {
        prepared,
        canon,
        fingerprint,
    } = request;

    if let Some(rec) = cache.get(&fingerprint) {
        match replay_outcome(&rec, &canon, prepared.model()) {
            Some(outcome) => {
                let result = prepared.finish(config, outcome)?;
                cache.note_hit(rec.solve_wall_s);
                return Ok(CachedSynthesis {
                    result,
                    hit: true,
                    fingerprint,
                    solve_wall: Duration::ZERO,
                    saved_wall_s: rec.solve_wall_s,
                });
            }
            None => cache.note_reject(),
        }
    } else {
        cache.note_miss();
    }

    // a job whose token already tripped must not start an expensive solve
    check_canceled(config)?;

    let solve_started = Instant::now();
    let outcome = tce_solver::solve(prepared.model(), &config.solve_options());
    let solve_wall = solve_started.elapsed();

    // a solve interrupted by its token is a *partial* search: surface the
    // cancellation and, crucially, cache nothing — a truncated outcome
    // must never be replayed to future (uncanceled) identical requests
    check_canceled(config)?;

    let canonical_point = canon.to_canonical(&outcome.solution.point);
    let solution = outcome.solution.clone();
    let report = outcome.report.clone();
    let result = prepared.finish(config, outcome)?;

    // a solve that ran into its deadline may have been cut short, and not
    // only in `Termination::Deadline`: a restart that was never claimed
    // leaves no trace. How far it got depends on machine speed, so it is
    // not the request's answer. `solve_wall` starts before the solver's
    // own clock, so every cut is caught; a false positive costs a miss
    let cut_short = config.deadline.is_some_and(|d| solve_wall >= d);
    if !cut_short {
        // only feasible outcomes reach this point (finish errors otherwise)
        let rec = CacheRecord {
            schema: RECORD_SCHEMA.to_string(),
            canon_version: CANON_VERSION.to_string(),
            fingerprint: fingerprint.clone(),
            canonical_point,
            objective: solution.objective,
            feasible: solution.feasible,
            evals: solution.evals,
            iterations: solution.iterations,
            report,
            solve_wall_s: solve_wall.as_secs_f64(),
            plan: L::plan_value(&result),
        };
        // a failed disk write degrades the cache, not the synthesis
        let _ = cache.put(&fingerprint, rec);
    }

    Ok(CachedSynthesis {
        result,
        hit: false,
        fingerprint,
        solve_wall,
        saved_wall_s: 0.0,
    })
}

/// [`run_prepared`] named for network requests; one body serves both
/// pipelines.
pub use self::run_prepared as run_network_prepared;
