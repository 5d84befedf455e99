//! The versioned, integrity-checked cache record.
//!
//! A record is the full payload needed to replay a synthesis run without
//! re-solving: the solution point (stored in *canonical* variable order so
//! it is valid for any renaming of the same model), the outcome metadata,
//! the original solver telemetry, and the generated plan. The plan is
//! written to disk for inspection only: the cache drops it from every
//! record it keeps in memory (see [`CacheRecord::plan`]).
//!
//! On disk each record is wrapped in an envelope
//! `{"integrity": "<fnv64 hex>", "record": {...}}` where the integrity
//! hash covers the serialized record subtree. A mismatch (truncated file,
//! bit rot, hand edit) is detected before deserialization and the file is
//! quarantined rather than trusted or deleted.

use serde::{Deserialize, Serialize, Value};
use tce_solver::{fingerprint_hex, Fnv64, SolverReport};

/// Schema tag stored in every record; bump on breaking layout changes so
/// stale caches read as misses instead of garbage.
pub const RECORD_SCHEMA: &str = "tce-cache/record/v1";

/// One cached synthesis outcome, keyed by the request fingerprint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheRecord {
    /// Record schema tag ([`RECORD_SCHEMA`]).
    pub schema: String,
    /// Canonicalization algorithm version the fingerprint was computed
    /// under ([`tce_solver::CANON_VERSION`]).
    pub canon_version: String,
    /// Hex request fingerprint (canonical model ⊕ config digest).
    pub fingerprint: String,
    /// Best point found, permuted into canonical variable order.
    pub canonical_point: Vec<i64>,
    /// Objective value at the point (bit-exact from the original solve).
    pub objective: f64,
    /// Whether the point satisfied all constraints.
    pub feasible: bool,
    /// Objective evaluations the original solve spent.
    pub evals: u64,
    /// Solver iterations the original solve spent.
    pub iterations: u64,
    /// Telemetry of the original solve (present iff it was requested).
    pub report: Option<SolverReport>,
    /// Wall-clock seconds the original solve took — what a hit saves.
    pub solve_wall_s: f64,
    /// The plan generated from the original solve, for inspection and
    /// plan-diffing without re-running codegen. Stored as a serialized
    /// value so one record layout serves every pipeline (a
    /// `tce_codegen::ConcretePlan` for single-contraction requests, a
    /// `tce_core::NetworkPlan` for contraction networks) — the dense
    /// byte layout is unchanged, so pre-network records stay valid.
    ///
    /// Nothing reads it back: a hit replays the point. So the records a
    /// [`crate::SynthesisCache`] holds in memory, and hands out from
    /// `get`, carry [`Value::Null`] here; the file keeps the plan.
    pub plan: Value,
}

fn integrity_of(record_value: &Value) -> Result<String, String> {
    let json = serde_json::to_string(record_value).map_err(|e| format!("{e:?}"))?;
    let mut h = Fnv64::new();
    h.bytes(json.as_bytes());
    Ok(fingerprint_hex(h.finish()))
}

impl CacheRecord {
    /// Serializes the record inside its integrity envelope.
    pub fn to_envelope_json(&self) -> Result<String, String> {
        let record = self.to_value();
        let integrity = integrity_of(&record)?;
        let envelope = Value::Map(vec![
            ("integrity".to_string(), Value::Str(integrity)),
            ("record".to_string(), record),
        ]);
        serde_json::to_string_pretty(&envelope).map_err(|e| format!("{e:?}"))
    }

    /// Parses an envelope, verifying the integrity hash and schema tag
    /// before deserializing. Any failure is an `Err` describing why the
    /// entry cannot be trusted.
    pub fn from_envelope_json(text: &str) -> Result<CacheRecord, String> {
        let envelope = serde_json::parse_value(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let stored = match envelope.get("integrity") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing integrity field".to_string()),
        };
        let record_value = envelope
            .get("record")
            .ok_or_else(|| "missing record field".to_string())?;
        let actual = integrity_of(record_value)?;
        if actual != stored {
            return Err(format!(
                "integrity mismatch: stored {stored}, actual {actual}"
            ));
        }
        let record = CacheRecord::from_value(record_value).map_err(|e| format!("{e:?}"))?;
        if record.schema != RECORD_SCHEMA {
            return Err(format!(
                "schema mismatch: file has `{}`, expected `{RECORD_SCHEMA}`",
                record.schema
            ));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_solver::CANON_VERSION;

    fn sample_record() -> CacheRecord {
        CacheRecord {
            schema: RECORD_SCHEMA.to_string(),
            canon_version: CANON_VERSION.to_string(),
            fingerprint: "00000000deadbeef".to_string(),
            canonical_point: vec![40, 7, -1],
            objective: 1.25e9,
            feasible: true,
            evals: 4242,
            iterations: 99,
            report: None,
            solve_wall_s: 0.125,
            plan: crate::test_support::tiny_plan().to_value(),
        }
    }

    #[test]
    fn envelope_round_trips() {
        let rec = sample_record();
        let json = rec.to_envelope_json().expect("serialize");
        let back = CacheRecord::from_envelope_json(&json).expect("parse");
        assert_eq!(back.fingerprint, rec.fingerprint);
        assert_eq!(back.canonical_point, rec.canonical_point);
        assert_eq!(back.objective.to_bits(), rec.objective.to_bits());
        // re-serializing the parsed record is byte-identical
        assert_eq!(back.to_envelope_json().expect("re-serialize"), json);
    }

    /// A record's file bytes are part of the cache's format: the same
    /// record must keep serializing to exactly this envelope (integrity
    /// hash included), or every existing cache reads as corrupt.
    #[test]
    fn a_fixed_record_keeps_its_envelope_bytes() {
        let rec = CacheRecord {
            plan: Value::Map(vec![
                ("kind".to_string(), Value::Str("dense".to_string())),
                (
                    "tiles".to_string(),
                    Value::Seq(vec![Value::Int(40), Value::Int(7)]),
                ),
                ("share".to_string(), Value::Float(0.5)),
            ]),
            ..sample_record()
        };
        let want = r#"{
  "integrity": "71de8b5b64462fb7",
  "record": {
    "schema": "tce-cache/record/v1",
    "canon_version": "tce-canon/v1",
    "fingerprint": "00000000deadbeef",
    "canonical_point": [
      40,
      7,
      -1
    ],
    "objective": 1250000000.0,
    "feasible": true,
    "evals": 4242,
    "iterations": 99,
    "report": null,
    "solve_wall_s": 0.125,
    "plan": {
      "kind": "dense",
      "tiles": [
        40,
        7
      ],
      "share": 0.5
    }
  }
}"#;
        assert_eq!(rec.to_envelope_json().expect("serialize"), want);
        let back = CacheRecord::from_envelope_json(want).expect("parse");
        assert_eq!(back.to_envelope_json().expect("re-serialize"), want);
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let json = sample_record().to_envelope_json().expect("serialize");
        let tampered = json.replace("4242", "4243");
        assert_ne!(json, tampered);
        let err = CacheRecord::from_envelope_json(&tampered).unwrap_err();
        assert!(err.contains("integrity mismatch"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut rec = sample_record();
        rec.schema = "tce-cache/record/v0".to_string();
        let json = rec.to_envelope_json().expect("serialize");
        let err = CacheRecord::from_envelope_json(&json).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let json = sample_record().to_envelope_json().expect("serialize");
        let err = CacheRecord::from_envelope_json(&json[..json.len() / 2]).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }
}
