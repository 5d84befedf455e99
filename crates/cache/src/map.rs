//! The in-memory half of the synthesis cache: a lock-striped LRU map.
//!
//! The serving hot path is warm-hit dominated: at scale, almost every
//! request resolves to an in-memory lookup, so the map's lock discipline
//! *is* the throughput ceiling. [`ShardedLruMap`] splits the key space
//! into shards, each a small LRU with its own lock and its own atomic
//! hit/miss counters, so concurrent warm hits on different shards never
//! serialize. Eviction is *approximately* global: each shard evicts
//! locally at `ceil(capacity / shards)` records, bounding total residency
//! at roughly the configured capacity without any global bookkeeping. A
//! single-shard map is an exact LRU.
//!
//! Per-shard counters are plain atomics aggregated on read
//! ([`ShardedLruMap::map_stats`]) — there is no stats lock to race
//! against the map lock, which closes the split-lock divergence the old
//! `Mutex<Lru>` + `Mutex<CacheStats>` pair allowed.

use crate::record::CacheRecord;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregated per-shard operation counters, read without locking.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapStats {
    /// Lookups answered from memory.
    pub found: u64,
    /// Lookups that missed in memory.
    pub not_found: u64,
    /// Inserts (fresh or overwriting).
    pub puts: u64,
    /// Number of lock stripes in the map.
    pub shards: usize,
}

/// Tiny exact-capacity LRU; each shard's working set is small (records
/// are a few KB) so a scan-based list beats a linked-map here.
struct Lru {
    cap: usize,
    entries: Vec<(String, Arc<CacheRecord>)>,
}

impl Lru {
    fn new(cap: usize) -> Self {
        Lru {
            cap,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<CacheRecord>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let rec = entry.1.clone();
        self.entries.insert(0, entry);
        Some(rec)
    }

    fn put(&mut self, key: String, rec: Arc<CacheRecord>) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, rec));
        self.entries.truncate(self.cap);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One lock stripe: a small LRU plus its own counters, padded to a cache
/// line so neighboring shards' locks and counters never false-share.
#[repr(align(64))]
struct Shard {
    lru: Mutex<Lru>,
    found: AtomicU64,
    not_found: AtomicU64,
    puts: AtomicU64,
}

/// Lock-striped shards with per-shard LRUs and approximate global
/// eviction (each shard caps at `ceil(cap / shards)`).
pub struct ShardedLruMap {
    shards: Box<[Shard]>,
    mask: u64,
}

impl ShardedLruMap {
    /// A sharded map with an explicit shard count (rounded up to a power
    /// of two) and a total capacity split evenly across shards.
    pub fn new(cap: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let cap = cap.max(1);
        let per_shard = cap.div_ceil(shards).max(1);
        let shards: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                lru: Mutex::new(Lru::new(per_shard)),
                found: AtomicU64::new(0),
                not_found: AtomicU64::new(0),
                puts: AtomicU64::new(0),
            })
            .collect();
        let mask = shards.len() as u64 - 1;
        ShardedLruMap {
            shards: shards.into_boxed_slice(),
            mask,
        }
    }

    /// Shard count scaled to the capacity: one stripe per ~8 resident
    /// records, capped at 64. Tiny caches get a single shard, which makes
    /// eviction exact.
    pub fn auto(cap: usize) -> Self {
        let shards = (cap.max(1) / 8).clamp(1, 64);
        ShardedLruMap::new(cap, shards)
    }

    fn shard(&self, key: &str) -> &Shard {
        // FNV-1a over the key; cheap and well-mixed for hex fingerprints
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // fold the high bits in so the low-bit mask sees the whole hash
        &self.shards[((h ^ (h >> 32)) & self.mask) as usize]
    }

    /// Looks up `key`, promoting it in its shard's recency order.
    pub fn get(&self, key: &str) -> Option<Arc<CacheRecord>> {
        let shard = self.shard(key);
        let rec = shard.lru.lock().get(key);
        match rec.is_some() {
            true => shard.found.fetch_add(1, Ordering::Relaxed),
            false => shard.not_found.fetch_add(1, Ordering::Relaxed),
        };
        rec
    }

    /// Inserts (or refreshes) `key`, evicting its shard's LRU entry
    /// when the shard is full.
    pub fn put(&self, key: &str, rec: Arc<CacheRecord>) {
        let shard = self.shard(key);
        shard.puts.fetch_add(1, Ordering::Relaxed);
        shard.lru.lock().put(key.to_string(), rec);
    }

    /// Records currently resident in memory.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lru.lock().len()).sum()
    }

    /// Aggregates the shards' atomic counters.
    pub fn map_stats(&self) -> MapStats {
        let mut stats = MapStats {
            shards: self.shards.len(),
            ..MapStats::default()
        };
        for s in &self.shards {
            stats.found += s.found.load(Ordering::Relaxed);
            stats.not_found += s.not_found.load(Ordering::Relaxed);
            stats.puts += s.puts.load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RECORD_SCHEMA;
    use crate::test_support::tiny_plan;
    use tce_solver::CANON_VERSION;

    fn record(tag: u64) -> Arc<CacheRecord> {
        Arc::new(CacheRecord {
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
        })
    }

    fn shapes(cap: usize) -> Vec<ShardedLruMap> {
        vec![
            ShardedLruMap::new(cap, 1),
            ShardedLruMap::new(cap, 4),
            ShardedLruMap::auto(cap),
        ]
    }

    #[test]
    fn every_shard_count_round_trips_and_counts() {
        for map in shapes(16) {
            assert!(map.get("a").is_none());
            map.put("a", record(1));
            map.put("b", record(2));
            assert_eq!(map.get("a").expect("hit a").evals, 1);
            assert_eq!(map.get("b").expect("hit b").evals, 2);
            let stats = map.map_stats();
            assert_eq!(map.resident(), 2, "{} shard(s)", stats.shards);
            assert_eq!((stats.found, stats.not_found, stats.puts), (2, 1, 2));
            assert!(stats.shards >= 1);
        }
    }

    #[test]
    fn sharded_eviction_is_bounded_near_capacity() {
        let map = ShardedLruMap::new(32, 8);
        for i in 0..1000u64 {
            map.put(&format!("{i:016x}"), record(i));
        }
        // approximate global eviction: per-shard caps bound residency at
        // shards * ceil(cap/shards) = 32 here
        assert!(
            map.resident() <= 32,
            "resident {} exceeds bound",
            map.resident()
        );
        assert!(map.resident() >= 8, "suspiciously empty map");
    }

    #[test]
    fn single_shard_matches_exact_lru_semantics() {
        // shards=1 is an exact LRU
        let sharded = ShardedLruMap::new(2, 1);
        sharded.put("a", record(1));
        sharded.put("b", record(2));
        assert!(sharded.get("a").is_some()); // touch a → b is LRU
        sharded.put("c", record(3));
        assert_eq!(sharded.resident(), 2);
        assert!(sharded.get("b").is_none(), "b evicted");
        assert!(sharded.get("a").is_some());
        assert!(sharded.get("c").is_some());
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let map = ShardedLruMap::new(256, 16);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("{:016x}", (t * 1000 + i) % 64);
                        if i % 10 == 0 {
                            map.put(&key, record(i));
                        } else {
                            let _ = map.get(&key);
                        }
                    }
                });
            }
        });
        let stats = map.map_stats();
        assert_eq!(stats.found + stats.not_found, 4 * 450);
        assert_eq!(stats.puts, 4 * 50);
        assert!(map.resident() <= 256);
    }

    #[test]
    fn auto_scales_shards_with_capacity() {
        assert_eq!(ShardedLruMap::auto(64).map_stats().shards, 8);
        assert_eq!(ShardedLruMap::auto(2).map_stats().shards, 1);
        assert_eq!(ShardedLruMap::new(64, 3).map_stats().shards, 4); // pow2
    }
}
