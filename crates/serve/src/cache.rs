//! Shared LRU score cache, keyed by the full identity of a scoring
//! request rather than a bare digest.
//!
//! PR 6 gave each session a private cache keyed on the 16-hex-char
//! FNV-1a state digest alone. That had two flaws this module fixes:
//!
//! * **Collisions served wrong scores.** FNV-1a is 64 bits and not
//!   collision-resistant; two distinct states hashing to the same
//!   digest would silently alias. [`ScoreKey`] folds in the scoring
//!   model's identity, the canonical state's byte length, and a second
//!   structurally-independent hash (FNV-1a over the *reversed* byte
//!   stream with a different offset basis). Equal-length FNV collisions
//!   are basis-independent — `h(a) ^ h(b)` does not involve the basis —
//!   so a crafted forward collision would survive a merely re-seeded
//!   forward hash; reversing the byte order changes which byte meets
//!   which power of the prime and breaks that construction. A hit
//!   requires every component to match.
//! * **Replicas exploring the same basin re-scored each other's
//!   states.** The cache is now process-wide ([`SharedScoreCache`],
//!   one per [`SessionManager`](crate::SessionManager)), so concurrent
//!   sessions — e.g. fleet replicas probing neighboring floorplans —
//!   share work. The model id in the key keeps pipelines with different
//!   numeric contracts (different models or grid pitches) from
//!   cross-contaminating.
//!
//! The map itself stays a plain `Vec` in recency order — O(capacity)
//! per touch, irrelevant at the capacities the daemon uses, and the
//! iteration/eviction order depends only on the access sequence (no
//! hasher state, no allocation-order effects).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::Serialize;

/// The complete identity of a cached score. Every field must match for
/// a hit; the digest alone is never trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreKey {
    /// Scoring-pipeline identity, e.g. `irregular@p30` — see
    /// [`model_id`].
    pub model: String,
    /// 16-hex-char FNV-1a digest of the canonical JSON state (the same
    /// digest reported in [`EvalResult`](crate::EvalResult)).
    pub digest: String,
    /// Byte length of the canonical JSON the digest was computed over.
    pub state_len: u64,
    /// Verification hash: FNV-1a over the reversed byte stream with a
    /// different offset basis.
    pub check: u64,
}

/// The scoring-pipeline component of a [`ScoreKey`]. Two pipelines that
/// can return different bits for the same state must have different
/// ids; grid pitch changes the score, so it is part of the id.
#[must_use]
pub fn model_id(kind: &str, pitch_um: i64) -> String {
    format!("{kind}@p{pitch_um}")
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Arbitrary alternative basis for the reversed check hash.
const CHECK_BASIS: u64 = 0x2545_f491_4f6c_dd1d;

fn fnv1a(bytes: impl Iterator<Item = u8>, basis: u64) -> u64 {
    let mut hash = basis;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Builds the [`ScoreKey`] for scoring `state` with pipeline `model`,
/// serializing once. The digest component matches
/// [`state_digest`](irgrid_fleet::state_digest) byte for byte.
#[must_use]
pub fn score_key<S: Serialize>(model: &str, state: &S) -> ScoreKey {
    // irgrid-lint: allow(P1): serializing a plain owned data struct cannot fail
    let json = serde_json::to_string(state).expect("digest serialization is infallible");
    key_for_canonical_json(model, &json)
}

/// [`score_key`] over an already-serialized canonical JSON state.
#[must_use]
pub fn key_for_canonical_json(model: &str, json: &str) -> ScoreKey {
    let bytes = json.as_bytes();
    let digest = format!("{:016x}", fnv1a(bytes.iter().copied(), FNV_BASIS));
    let check = fnv1a(bytes.iter().rev().copied(), CHECK_BASIS);
    ScoreKey {
        model: model.to_string(),
        digest,
        state_len: bytes.len() as u64,
        check,
    }
}

/// A bounded least-recently-used `ScoreKey -> f64` map.
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Most recently used last.
    entries: Vec<(ScoreKey, f64)>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// A cache holding at most `capacity` scores; 0 disables caching.
    #[must_use]
    pub fn new(capacity: usize) -> LruCache {
        LruCache {
            entries: Vec::with_capacity(capacity.min(1024)),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&mut self, key: &ScoreKey) -> Option<f64> {
        let Some(position) = self.entries.iter().position(|(k, _)| k == key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let entry = self.entries.remove(position);
        let score = entry.1;
        self.entries.push(entry);
        Some(score)
    }

    /// Inserts (or refreshes) a score, evicting the least recently used
    /// entry when full. A no-op at capacity 0.
    pub fn put(&mut self, key: ScoreKey, score: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(position) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(position);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, score));
    }

    /// Cache hits since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A cloneable handle to one process-wide [`LruCache`], shared by every
/// session a manager owns. Lock poisoning is recovered — the cache
/// holds plain values, so a panicking peer cannot leave it logically
/// torn.
#[derive(Debug, Clone)]
pub struct SharedScoreCache {
    inner: Arc<Mutex<LruCache>>,
}

impl SharedScoreCache {
    /// A shared cache bounded to `capacity` entries across *all*
    /// sessions; 0 disables caching process-wide.
    #[must_use]
    pub fn new(capacity: usize) -> SharedScoreCache {
        SharedScoreCache {
            inner: Arc::new(Mutex::new(LruCache::new(capacity))),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a score, refreshing recency on a hit.
    pub fn get(&self, key: &ScoreKey) -> Option<f64> {
        self.lock().get(key)
    }

    /// Inserts (or refreshes) a score.
    pub fn put(&self, key: ScoreKey, score: f64) {
        self.lock().put(key, score);
    }

    /// Hits since creation, summed over all sessions.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lock().hits()
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: &str, digest: &str, len: u64, check: u64) -> ScoreKey {
        ScoreKey {
            model: model.to_string(),
            digest: digest.to_string(),
            state_len: len,
            check,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.put(key("m", "a", 1, 1), 1.0);
        cache.put(key("m", "b", 2, 2), 2.0);
        assert_eq!(cache.get(&key("m", "a", 1, 1)), Some(1.0)); // refresh a; b is now LRU
        cache.put(key("m", "c", 3, 3), 3.0); // evicts b
        assert_eq!(cache.get(&key("m", "b", 2, 2)), None);
        assert_eq!(cache.get(&key("m", "a", 1, 1)), Some(1.0));
        assert_eq!(cache.get(&key("m", "c", 3, 3)), Some(3.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.put(key("m", "a", 1, 1), 1.0);
        assert_eq!(cache.get(&key("m", "a", 1, 1)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn put_refreshes_existing_key() {
        let mut cache = LruCache::new(2);
        cache.put(key("m", "a", 1, 1), 1.0);
        cache.put(key("m", "b", 2, 2), 2.0);
        cache.put(key("m", "a", 1, 1), 9.0); // refresh + overwrite; b is LRU
        cache.put(key("m", "c", 3, 3), 3.0); // evicts b
        assert_eq!(cache.get(&key("m", "a", 1, 1)), Some(9.0));
        assert_eq!(cache.get(&key("m", "b", 2, 2)), None);
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut cache = LruCache::new(4);
        cache.put(key("m", "a", 1, 1), 1.0);
        let _ = cache.get(&key("m", "a", 1, 1));
        let _ = cache.get(&key("m", "a", 1, 1));
        let _ = cache.get(&key("m", "nope", 1, 1));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn crafted_digest_collision_does_not_alias() {
        // Regression for the PR 6 key: two distinct states whose 16-hex
        // FNV digests collide. Mining a real 64-bit FNV collision is
        // impractical in a unit test, but the composite key must refuse
        // the hit when *any* other component differs — which is exactly
        // what a real collision looks like (same digest string, but
        // different length, check hash, or model).
        let mut cache = LruCache::new(8);
        let digest = "00000000deadbeef";
        cache.put(key("irregular@p30", digest, 100, 7), 1.5);
        // Same digest, different serialized length: miss.
        assert_eq!(cache.get(&key("irregular@p30", digest, 101, 7)), None);
        // Same digest and length, different check hash: miss.
        assert_eq!(cache.get(&key("irregular@p30", digest, 100, 8)), None);
        // Same state digest, different scoring pipeline: miss.
        assert_eq!(cache.get(&key("irregular@p60", digest, 100, 7)), None);
        // The genuine key still hits.
        assert_eq!(cache.get(&key("irregular@p30", digest, 100, 7)), Some(1.5));
    }

    #[test]
    fn score_key_components_are_consistent_and_independent() {
        let state_a = vec![1_i64, 2, 3];
        let state_b = vec![1_i64, 2, 4];
        let a = score_key("m", &state_a);
        let b = score_key("m", &state_b);
        assert_eq!(a, score_key("m", &state_a), "key is deterministic");
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.check, b.check);
        assert_eq!(a.digest, irgrid_fleet::state_digest(&state_a));
        assert_eq!(a.state_len, 7, "canonical JSON is `[1,2,3]`");
        // The check hash is not the digest recomputed: reversed stream,
        // different basis.
        assert_ne!(format!("{:016x}", a.check), a.digest);
    }

    #[test]
    fn shared_cache_is_visible_across_clones() {
        let shared = SharedScoreCache::new(4);
        let peer = shared.clone();
        shared.put(key("m", "a", 1, 1), 9.0);
        assert_eq!(peer.get(&key("m", "a", 1, 1)), Some(9.0));
        assert_eq!(shared.hits(), 1);
        assert_eq!(peer.len(), 1);
    }
}
