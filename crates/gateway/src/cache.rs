//! The response cache: a sharded LRU keyed on `(model_key, fnv1a(image bytes))` with
//! capacity and TTL bounds, serving repeat images without touching any engine.
//!
//! Inference here is deterministic — the same image through the same `name:variant`
//! key always produces the same logits — so a cache hit is *exact*, not approximate.
//! The key hashes the resolved model key (after tier routing) together with the raw
//! `f32` bit pattern of every pixel, so two tiers of the same image cache separately
//! and an image differing in one ULP misses. Entries expire after the configured TTL
//! (a deployment that retrains/replaces weights behind a stable key picks a TTL no
//! longer than its rollout interval), and each shard evicts its least-recently-used
//! entry once full. Shards are independently locked, so concurrent connection
//! handlers only contend when their hashes collide on a shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vitality_serve::{InferReply, MetricsRegistry};
use vitality_tensor::Matrix;

/// FNV-1a over a byte stream: tiny, allocation-free and plenty for cache keying.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of an image's exact `f32` bit pattern (dimensions included, so a `2x8` and
/// a `4x4` image with identical data do not collide).
pub fn image_hash(image: &Matrix) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(&(image.rows() as u64).to_le_bytes());
    hash.update(&(image.cols() as u64).to_le_bytes());
    for r in 0..image.rows() {
        for &v in image.row(r) {
            hash.update(&v.to_bits().to_le_bytes());
        }
    }
    hash.finish()
}

struct Entry {
    reply: InferReply,
    inserted: Instant,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<(String, u64), Entry>,
}

/// The sharded LRU response cache (see the module docs for semantics).
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    ttl: Duration,
    /// Logical clock driving LRU recency (monotonic, shared across shards).
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
}

impl ResponseCache {
    /// Creates a cache with `capacity` total entries across `shards` shards and the
    /// given TTL. A zero capacity disables caching (every lookup misses, nothing is
    /// stored).
    pub fn new(capacity: usize, ttl: Duration, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            capacity_per_shard: capacity / shards + usize::from(!capacity.is_multiple_of(shards)),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            ttl,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    fn shard(&self, image_hash: u64) -> &Mutex<Shard> {
        &self.shards[(image_hash % self.shards.len() as u64) as usize]
    }

    /// Looks up the cached reply for `(model_key, image_hash)`, counting a hit or a
    /// miss and expiring the entry instead when it has outlived the TTL.
    pub fn get(&self, model_key: &str, image_hash: u64) -> Option<InferReply> {
        if self.capacity_per_shard == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard(image_hash).lock().expect("cache shard poisoned");
        let key = (model_key.to_string(), image_hash);
        if let Some(entry) = shard.entries.get_mut(&key) {
            if entry.inserted.elapsed() > self.ttl {
                shard.entries.remove(&key);
                self.expirations.fetch_add(1, Ordering::Relaxed);
            } else {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                let reply = entry.reply.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(reply);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a reply, evicting the shard's least-recently-used entry when full.
    pub fn put(&self, model_key: &str, image_hash: u64, reply: InferReply) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut shard = self.shard(image_hash).lock().expect("cache shard poisoned");
        let key = (model_key.to_string(), image_hash);
        if !shard.entries.contains_key(&key) && shard.entries.len() >= self.capacity_per_shard {
            // O(shard len) scan: shards are small (capacity / shards), and eviction
            // only runs on insert-at-capacity, never on the hit path.
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.entries.insert(
            key,
            Entry {
                reply,
                inserted: Instant::now(),
                last_used,
            },
        );
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to go to a backend.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Declares the cache's series, nested under `cache` in JSON.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        let (hits, misses) = (self.hits(), self.misses());
        reg.scope(&["cache"], &[], |reg| {
            reg.gauge(
                "entries",
                "vitality_gateway_cache_entries",
                "Live response-cache entries",
                self.len(),
            );
            reg.counter(
                "hits",
                "vitality_gateway_cache_hits_total",
                "Response-cache hits",
                hits,
            );
            reg.counter(
                "misses",
                "vitality_gateway_cache_misses_total",
                "Response-cache misses",
                misses,
            );
            reg.json("hit_ratio", hits as f64 / ((hits + misses) as f64).max(1.0));
            reg.counter(
                "evictions",
                "vitality_gateway_cache_evictions_total",
                "Entries evicted as least recently used",
                self.evictions.load(Ordering::Relaxed),
            );
            reg.counter(
                "expirations",
                "vitality_gateway_cache_expirations_total",
                "Entries dropped for outliving the TTL",
                self.expirations.load(Ordering::Relaxed),
            );
        });
    }
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("ttl", &self.ttl)
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;

    /// The cache's `/metrics` block.
    fn snapshot(cache: &ResponseCache) -> JsonValue {
        let mut reg = MetricsRegistry::new();
        cache.register(&mut reg);
        reg.into_json().get("cache").cloned().expect("cache block")
    }

    fn reply(model: &str, prediction: usize) -> InferReply {
        InferReply {
            model: model.to_string(),
            prediction,
            logits: vec![0.0, 1.0],
            batch_size: 1,
            queue_us: 0,
        }
    }

    #[test]
    fn image_hashes_are_bit_sensitive_and_shape_sensitive() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut b = a.clone();
        assert_eq!(image_hash(&a), image_hash(&b));
        b.set(1, 1, f32::from_bits(b.get(1, 1).to_bits() ^ 1));
        assert_ne!(image_hash(&a), image_hash(&b));
        let flat = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        assert_ne!(
            image_hash(&a),
            image_hash(&flat),
            "shape is part of the key"
        );
    }

    #[test]
    fn hits_are_exact_and_model_scoped() {
        let cache = ResponseCache::new(8, Duration::from_secs(60), 2);
        let hash = 0xdead_beef;
        assert!(cache.get("m:taylor", hash).is_none());
        cache.put("m:taylor", hash, reply("m:taylor", 3));
        let hit = cache.get("m:taylor", hash).expect("hit");
        assert_eq!(hit.prediction, 3);
        // The same image under another model key is a distinct entry.
        assert!(cache.get("m:int8", hash).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_evicts_least_recently_used_per_shard() {
        // One shard makes the LRU order deterministic.
        let cache = ResponseCache::new(2, Duration::from_secs(60), 1);
        cache.put("m:a", 1, reply("m:a", 1));
        cache.put("m:b", 2, reply("m:b", 2));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(cache.get("m:a", 1).is_some());
        cache.put("m:c", 3, reply("m:c", 3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("m:a", 1).is_some(), "recently used survives");
        assert!(cache.get("m:b", 2).is_none(), "LRU entry evicted");
        assert!(cache.get("m:c", 3).is_some());
        assert_eq!(
            snapshot(&cache)
                .get("evictions")
                .and_then(JsonValue::as_usize),
            Some(1)
        );
    }

    #[test]
    fn entries_expire_after_the_ttl() {
        let cache = ResponseCache::new(4, Duration::from_millis(30), 1);
        cache.put("m:a", 7, reply("m:a", 1));
        assert!(cache.get("m:a", 7).is_some());
        std::thread::sleep(Duration::from_millis(60));
        assert!(cache.get("m:a", 7).is_none(), "expired entry misses");
        assert_eq!(cache.len(), 0, "expiry removes the entry");
        assert_eq!(
            snapshot(&cache)
                .get("expirations")
                .and_then(JsonValue::as_usize),
            Some(1)
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0, Duration::from_secs(60), 4);
        cache.put("m:a", 1, reply("m:a", 1));
        assert!(cache.get("m:a", 1).is_none());
        assert_eq!(cache.len(), 0);
    }
}
