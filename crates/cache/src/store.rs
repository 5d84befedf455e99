//! Cache storage: a content-addressed on-disk store fronted by an exact
//! in-memory LRU.
//!
//! Disk layout is one file per request fingerprint,
//! `<dir>/<fingerprint>.json`, each an integrity-checked envelope (see
//! [`crate::record`]). Corrupt or stale entries are *quarantined* — renamed
//! to `<name>.corrupt` so the evidence survives for debugging — and treated
//! as misses; the cache never panics on bad cache state.
//!
//! The in-memory LRU and the lifetime counters ([`CacheStats`]) sit under
//! one mutex, so the counters can never diverge from the map. A lookup is
//! one hash probe that stamps the entry with a recency clock; only the
//! eviction that follows a put scans for the oldest stamp. No file I/O
//! runs under the lock.

use crate::fsfault::{self, FsFaultKind, FsFaultPlan};
use crate::record::CacheRecord;
use serde::Value;
use std::collections::HashMap;
use std::fs;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tce_disksim::lock::lock;
use tce_disksim::Injector;

/// Default in-memory LRU capacity (records, not bytes).
pub const DEFAULT_LRU_CAP: usize = 64;
/// Environment variable naming the on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "TCE_CACHE_DIR";
/// Environment variable overriding the in-memory LRU capacity.
pub const LRU_CAP_ENV: &str = "TCE_CACHE_LRU";

/// Counters describing how the cache behaved over its lifetime.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Lookups that replayed a stored outcome.
    pub hits: u64,
    /// Lookups that fell through to a fresh solve.
    pub misses: u64,
    /// Fingerprint matches whose stored point failed validation against
    /// the request's own model (collision or version skew) — counted as
    /// misses too.
    pub rejects: u64,
    /// Corrupt disk entries renamed to `.corrupt`.
    pub quarantined: u64,
    /// Orphaned temp files (from a crash between write and rename) swept
    /// aside when the store was opened.
    pub orphans_swept: u64,
    /// Total solver wall-clock seconds that hits avoided re-spending.
    pub solver_wall_saved_s: f64,
}

/// The in-memory half of the cache: an exact LRU of at most `cap`
/// records plus the lifetime counters.
struct Memory {
    cap: usize,
    /// Bumped on every touch; the entry with the smallest stamp is the
    /// least recently used.
    clock: u64,
    entries: HashMap<String, (u64, Arc<CacheRecord>)>,
    stats: CacheStats,
}

impl Memory {
    fn get(&mut self, key: &str) -> Option<Arc<CacheRecord>> {
        let (stamp, rec) = self.entries.get_mut(key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(rec.clone())
    }

    fn put(&mut self, key: &str, rec: Arc<CacheRecord>) {
        self.clock += 1;
        self.entries.insert(key.to_string(), (self.clock, rec));
        if self.entries.len() > self.cap {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
            }
        }
    }
}

/// The on-disk half of the cache.
pub struct DiskStore {
    dir: PathBuf,
    faults: Option<Arc<Injector<FsFaultKind>>>,
    /// Orphaned `.{key}.tmp` files swept aside when this store opened.
    swept: u64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`, sweeping any
    /// orphaned temp files a previous crash left behind.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, String> {
        DiskStore::with_faults(dir, None)
    }

    /// Like [`DiskStore::new`], but every filesystem write goes through
    /// the given fault injector.
    pub fn with_faults(
        dir: impl Into<PathBuf>,
        faults: Option<Arc<Injector<FsFaultKind>>>,
    ) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create cache dir {dir:?}: {e}"))?;
        let swept = sweep_orphans(&dir);
        Ok(DiskStore { dir, faults, swept })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the record for `key`. Returns the record plus a flag saying
    /// whether a corrupt file was quarantined along the way. Read errors
    /// (real or injected) degrade to misses — the cache never panics or
    /// serves a partial record. The integrity check covers the whole
    /// envelope, plan included; the plan is then dropped, since a hit
    /// replays the point and never reads it.
    fn load(&self, key: &str) -> (Option<CacheRecord>, bool) {
        if self.faults.as_deref().is_some_and(|f| f.decide().is_some()) {
            return (None, false); // injected read fault: clean miss
        }
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return (None, false),
            Err(_) => return (None, false),
        };
        match CacheRecord::from_envelope_json(&text) {
            Ok(mut rec) => {
                rec.plan = Value::Null;
                (Some(rec), false)
            }
            Err(_) => {
                // keep the evidence: quarantine instead of delete
                let mut corrupt = path.clone().into_os_string();
                corrupt.push(".corrupt");
                let _ = fs::rename(&path, &corrupt);
                (None, true)
            }
        }
    }

    /// Writes the envelope `json` for `key` atomically and durably: temp
    /// file → fsync(temp) → rename → fsync(dir). A crash at any boundary
    /// leaves either the old state or the new one, never a torn visible
    /// entry; the leftover temp file (crash between fsync and rename) is
    /// swept on the next open.
    fn save(&self, key: &str, json: &str) -> Result<(), String> {
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(".{key}.tmp"));
        let faults = self.faults.as_deref();
        let wrote = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            fsfault::append_all(faults, &mut f, json.as_bytes())?;
            fsfault::sync_file(faults, &f)?;
            drop(f);
            fsfault::rename(faults, &tmp, &path)?;
            fsfault::sync_dir(faults, &self.dir)
        })();
        match wrote {
            Ok(()) => Ok(()),
            Err(e) => {
                // A simulated crash "killed the process" before rename —
                // leave the orphan for the next open's sweep, exactly as
                // a real crash would. Every other failure cleans up so a
                // failed save cannot leave stale temp files behind.
                if !fsfault::is_simulated_crash(&e) {
                    let _ = fs::remove_file(&tmp);
                }
                Err(format!("cannot persist {path:?}: {e}"))
            }
        }
    }
}

/// Moves orphaned `.{key}.tmp` files (a crash between write and rename)
/// aside as `.{key}.tmp.orphan` so they can never shadow a later write,
/// while keeping the evidence for debugging. Returns how many were swept.
fn sweep_orphans(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with('.') && name.ends_with(".tmp") {
            let mut orphan = entry.path().into_os_string();
            orphan.push(".orphan");
            if fs::rename(entry.path(), &orphan).is_ok() {
                swept += 1;
            }
        }
    }
    swept
}

/// The synthesis cache: an exact in-memory LRU over an optional disk
/// store.
pub struct SynthesisCache {
    disk: Option<DiskStore>,
    memory: Mutex<Memory>,
}

impl SynthesisCache {
    fn new(cap: usize, disk: Option<DiskStore>) -> Self {
        let stats = CacheStats {
            orphans_swept: disk.as_ref().map_or(0, |d| d.swept),
            ..CacheStats::default()
        };
        SynthesisCache {
            disk,
            memory: Mutex::new(Memory {
                cap: cap.max(1),
                clock: 0,
                entries: HashMap::new(),
                stats,
            }),
        }
    }

    /// A purely in-memory cache with the default capacity.
    pub fn in_memory() -> Self {
        SynthesisCache::with_capacity(DEFAULT_LRU_CAP)
    }

    /// A purely in-memory cache holding at most `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        SynthesisCache::new(cap, None)
    }

    /// A disk-backed cache rooted at `dir` with the default LRU capacity.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Ok(SynthesisCache::new(
            DEFAULT_LRU_CAP,
            Some(DiskStore::new(dir)?),
        ))
    }

    /// A disk-backed cache whose filesystem operations run through the
    /// given fault plan (see [`crate::fsfault`]). An idle plan behaves
    /// exactly like [`SynthesisCache::with_dir`].
    pub fn with_dir_and_faults(
        dir: impl Into<PathBuf>,
        plan: &FsFaultPlan,
    ) -> Result<Self, String> {
        let disk = DiskStore::with_faults(dir, plan.injector(0))?;
        Ok(SynthesisCache::new(DEFAULT_LRU_CAP, Some(disk)))
    }

    /// Builds a cache from the environment: disk-backed when
    /// [`CACHE_DIR_ENV`] is set, in-memory otherwise; capacity from
    /// [`LRU_CAP_ENV`] when it parses.
    pub fn from_env() -> Result<Self, String> {
        let cap = std::env::var(LRU_CAP_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(DEFAULT_LRU_CAP);
        let disk = match std::env::var_os(CACHE_DIR_ENV) {
            Some(dir) => Some(DiskStore::new(PathBuf::from(dir))?),
            None => None,
        };
        Ok(SynthesisCache::new(cap, disk))
    }

    /// The on-disk directory, if this cache is disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// Looks up `key`, promoting disk entries into the in-memory map.
    pub fn get(&self, key: &str) -> Option<Arc<CacheRecord>> {
        let hit = lock(&self.memory).get(key);
        if hit.is_some() {
            return hit;
        }
        let (rec, quarantined) = self.disk.as_ref()?.load(key);
        let mut memory = lock(&self.memory);
        memory.stats.quarantined += u64::from(quarantined);
        let rec = Arc::new(rec?);
        memory.put(key, rec.clone());
        Some(rec)
    }

    /// Stores a record under `key` in memory and (when configured) on
    /// disk. The plan goes to disk only: the in-memory copy holds
    /// [`Value::Null`] in its place, since a hit replays the point. Disk
    /// write failures are reported but the in-memory insert still
    /// happens.
    pub fn put(&self, key: &str, mut rec: CacheRecord) -> Result<(), String> {
        let pending = self
            .disk
            .as_ref()
            .map(|disk| (disk, rec.to_envelope_json()));
        rec.plan = Value::Null;
        lock(&self.memory).put(key, Arc::new(rec));
        if let Some((disk, json)) = pending {
            disk.save(key, &json?)?;
        }
        Ok(())
    }

    /// Number of records currently resident in memory.
    pub fn resident(&self) -> usize {
        lock(&self.memory).entries.len()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        lock(&self.memory).stats.clone()
    }

    pub(crate) fn note_hit(&self, saved_s: f64) {
        let mut memory = lock(&self.memory);
        memory.stats.hits += 1;
        memory.stats.solver_wall_saved_s += saved_s;
    }

    pub(crate) fn note_miss(&self) {
        lock(&self.memory).stats.misses += 1;
    }

    pub(crate) fn note_reject(&self) {
        let mut memory = lock(&self.memory);
        memory.stats.rejects += 1;
        memory.stats.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RECORD_SCHEMA;
    use crate::test_support::{temp_dir, tiny_plan};
    use tce_solver::CANON_VERSION;

    fn record(tag: u64) -> CacheRecord {
        CacheRecord {
            schema: RECORD_SCHEMA.to_string(),
            canon_version: CANON_VERSION.to_string(),
            fingerprint: format!("{tag:016x}"),
            canonical_point: vec![tag as i64],
            objective: tag as f64,
            feasible: true,
            evals: tag,
            iterations: tag,
            report: None,
            solve_wall_s: 0.5,
            plan: serde::Serialize::to_value(&tiny_plan()),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = SynthesisCache::with_capacity(2);
        cache.put("a", record(1)).unwrap();
        cache.put("b", record(2)).unwrap();
        assert!(cache.get("a").is_some()); // touch a → b is now LRU
        cache.put("c", record(3)).unwrap();
        assert_eq!(cache.resident(), 2);
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());

        // re-putting a resident key refreshes it in place: c is now the
        // most recent, so the next insert evicts a
        cache.put("c", record(4)).unwrap();
        assert_eq!(cache.resident(), 2);
        cache.put("d", record(5)).unwrap();
        assert!(cache.get("a").is_none(), "a should have been evicted");
        assert_eq!(cache.get("c").expect("c resident").evals, 4);
        assert!(cache.get("d").is_some());
    }

    #[test]
    fn the_plan_is_written_to_disk_but_never_kept_in_memory() {
        let dir = temp_dir("store_plan");
        let rec = record(9);
        let plan = rec.plan.clone();
        let cache = SynthesisCache::with_dir(&dir).unwrap();
        cache.put("k", rec).unwrap();
        assert_eq!(cache.get("k").expect("memory hit").plan, Value::Null);
        // the file carries the whole record, plan included
        let text = fs::read_to_string(dir.join("k.json")).unwrap();
        assert_eq!(CacheRecord::from_envelope_json(&text).unwrap().plan, plan);
        // a disk load verifies the plan's bytes, then drops it
        let reopened = SynthesisCache::with_dir(&dir).unwrap();
        let loaded = reopened.get("k").expect("disk hit");
        assert_eq!((loaded.evals, &loaded.plan), (9, &Value::Null));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn matches_a_reference_lru_on_a_seeded_trace() {
        // the reference keeps keys in recency order, least recent first
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cache = SynthesisCache::with_capacity(3);
        let mut order: Vec<String> = Vec::new();
        for step in 0..2000u64 {
            let key = format!("k{}", rng.random_range(0..6u32));
            let pos = order.iter().position(|k| *k == key);
            if rng.random_range(0..3u32) == 0 {
                cache.put(&key, record(step)).unwrap();
                if let Some(i) = pos {
                    order.remove(i);
                }
                order.push(key);
                if order.len() > 3 {
                    order.remove(0);
                }
            } else {
                let got = cache.get(&key);
                assert_eq!(got.is_some(), pos.is_some(), "step {step}: {key}");
                if let Some(i) = pos {
                    let touched = order.remove(i);
                    order.push(touched);
                }
            }
            assert_eq!(cache.resident(), order.len(), "step {step}");
        }
    }

    /// `n` distinct keys shaped like request fingerprints (16 hex digits
    /// of a seeded stream).
    fn fingerprint_keys(n: usize) -> Vec<String> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        (0..n)
            .map(|_| format!("{:016x}", rng.random::<u64>()))
            .collect()
    }

    #[test]
    fn a_full_default_cache_keeps_every_record_in_memory() {
        let dir = temp_dir("store_residency");
        let cache = SynthesisCache::with_dir(&dir).unwrap();
        let keys = fingerprint_keys(DEFAULT_LRU_CAP);
        let base = record(0);
        for key in &keys {
            let rec = CacheRecord {
                fingerprint: key.clone(),
                ..base.clone()
            };
            cache.put(key, rec).unwrap();
        }
        assert_eq!(cache.resident(), DEFAULT_LRU_CAP);

        // with the record files gone, every read must come from memory
        for key in &keys {
            std::fs::remove_file(dir.join(format!("{key}.json"))).unwrap();
        }
        for key in &keys {
            let rec = cache.get(key).unwrap_or_else(|| panic!("{key} evicted"));
            assert_eq!(&rec.fingerprint, key);
        }
    }

    #[test]
    fn concurrent_hits_keep_stats_and_map_consistent() {
        // the split-lock regression test: hammer hits/misses from many
        // threads and require the counters to add up exactly
        let cache = SynthesisCache::with_capacity(64);
        cache.put("hot", record(1)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..250u64 {
                        if cache.get("hot").is_some() {
                            cache.note_hit(0.25);
                        }
                        if cache.get(&format!("cold-{i}")).is_none() {
                            cache.note_miss();
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1000, 1000));
        assert!((stats.solver_wall_saved_s - 250.0).abs() < 1e-9);
        // memory-only misses insert nothing
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache = SynthesisCache::in_memory();
        let keys = fingerprint_keys(DEFAULT_LRU_CAP);
        let n = keys.len();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (cache, keys) = (&cache, &keys);
                scope.spawn(move || {
                    for i in 0..500usize {
                        let key = &keys[(t * 1000 + i) % n];
                        if i % 10 == 0 {
                            cache.put(key, record(i as u64)).unwrap();
                        } else {
                            let _ = cache.get(key);
                        }
                    }
                });
            }
        });
        // every key some thread put fits, so every one is still resident
        let put: std::collections::HashSet<usize> = (0..4usize)
            .flat_map(|t| (0..500).step_by(10).map(move |i| (t * 1000 + i) % n))
            .collect();
        assert_eq!(cache.resident(), put.len());
        assert!(put.iter().all(|&k| cache.get(&keys[k]).is_some()));
    }

    #[test]
    fn disk_store_round_trips_and_survives_new_handle() {
        let dir = temp_dir("store_rt");
        let cache = SynthesisCache::with_dir(&dir).unwrap();
        cache.put("deadbeef", record(7)).unwrap();
        // a fresh cache over the same dir (cold LRU) finds it on disk
        let fresh = SynthesisCache::with_dir(&dir).unwrap();
        let rec = fresh.get("deadbeef").expect("disk hit");
        assert_eq!(rec.evals, 7);
        // and promoted it into memory
        assert_eq!(fresh.resident(), 1);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_trusted() {
        let dir = temp_dir("store_quarantine");
        let cache = SynthesisCache::with_dir(&dir).unwrap();
        cache.put("cafe", record(9)).unwrap();
        let path = dir.join("cafe.json");
        std::fs::write(&path, "{\"integrity\": \"0000000000000000\", \"record\":").unwrap();
        let fresh = SynthesisCache::with_dir(&dir).unwrap();
        assert!(fresh.get("cafe").is_none());
        assert!(!path.exists(), "corrupt file should be moved aside");
        assert!(
            dir.join("cafe.json.corrupt").exists(),
            "quarantine file should exist"
        );
        assert_eq!(fresh.stats().quarantined, 1);
    }

    #[test]
    fn missing_key_is_a_clean_none() {
        let dir = temp_dir("store_missing");
        let cache = SynthesisCache::with_dir(&dir).unwrap();
        assert!(cache.get("0123456789abcdef").is_none());
        assert_eq!(cache.stats().quarantined, 0);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        use crate::fsfault::{FsFaultKind, FsFaultPlan};
        let dir = temp_dir("store_sweep");
        // crash-before-rename on the very first write orphans the tmp
        let plan = FsFaultPlan::none().fail_after(0, FsFaultKind::CrashBeforeRename, 1);
        let crashing = SynthesisCache::with_dir_and_faults(&dir, &plan).unwrap();
        let err = crashing.put("feed", record(3)).unwrap_err();
        assert!(err.contains("crash-before-rename"), "{err}");
        assert!(dir.join(".feed.tmp").exists(), "crash must leave the tmp");
        assert!(!dir.join("feed.json").exists());

        // reopening sweeps the orphan aside and records it
        let fresh = SynthesisCache::with_dir(&dir).unwrap();
        assert_eq!(fresh.stats().orphans_swept, 1);
        assert!(!dir.join(".feed.tmp").exists(), "orphan must be swept");
        assert!(dir.join(".feed.tmp.orphan").exists(), "evidence kept");
        assert!(fresh.get("feed").is_none(), "orphan is never served");

        // and a later write of the same key is unobstructed
        fresh.put("feed", record(4)).unwrap();
        let reread = SynthesisCache::with_dir(&dir).unwrap();
        assert_eq!(reread.get("feed").expect("hit").evals, 4);
    }

    #[test]
    fn failed_save_cleans_its_tmp_and_recovers() {
        use crate::fsfault::{FsFaultKind, FsFaultPlan};
        let dir = temp_dir("store_fail_clean");
        for kind in [
            FsFaultKind::Enospc,
            FsFaultKind::Eio,
            FsFaultKind::ShortWrite,
        ] {
            let plan = FsFaultPlan::none().fail_after(0, kind, 1);
            let cache = SynthesisCache::with_dir_and_faults(&dir, &plan).unwrap();
            let err = cache.put("abcd", record(1)).unwrap_err();
            assert!(err.contains("injected"), "{err}");
            assert!(
                !dir.join(".abcd.tmp").exists(),
                "non-crash failure must not leave a tmp ({kind:?})"
            );
            // the burst is over: the retry goes through on the same handle
            cache.put("abcd", record(2)).unwrap();
            assert_eq!(cache.get("abcd").expect("hit").evals, 2);
            std::fs::remove_file(dir.join("abcd.json")).unwrap();
        }
    }

    #[test]
    fn injected_read_faults_degrade_to_misses() {
        use crate::fsfault::{FsFaultKind, FsFaultPlan};
        let dir = temp_dir("store_read_fault");
        SynthesisCache::with_dir(&dir)
            .unwrap()
            .put("beef", record(5))
            .unwrap();
        // every op fails: reads miss cleanly, nothing panics, nothing
        // corrupt is ever served
        let plan = FsFaultPlan::none()
            .probabilistic(1.0, FsFaultKind::Eio)
            .with_seed(7);
        let cache = SynthesisCache::with_dir_and_faults(&dir, &plan).unwrap();
        assert!(cache.get("beef").is_none());
        assert_eq!(cache.stats().quarantined, 0);
        // the entry on disk is still intact for a healthy handle
        let healthy = SynthesisCache::with_dir(&dir).unwrap();
        assert_eq!(healthy.get("beef").expect("hit").evals, 5);
    }
}
