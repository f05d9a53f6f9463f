//! Bounded LRU memoization of per-dimension query supports.
//!
//! Every answering path derives each dimension's sparse support with
//! one function, `derive` (`Transform1d::storage_support`, the variance
//! factor over `Transform1d::query_weights`, the stride premultiply). Online one-query-at-a-time traffic
//! would re-derive on every request, even though OLAP traffic repeats
//! the same predicate intervals dimension after dimension.
//! [`ShardedSupportCache`] memoizes supports keyed on `(dim, lo, hi)` so
//! repeated predicates across requests amortize the derivation the same
//! way a compiled [`QueryPlan`](crate::QueryPlan) amortizes it within
//! one batch.
//!
//! The cache is bounded (least-recently-used eviction) and counts hits,
//! misses and evictions, so serving tiers can report hit rates and size
//! the capacity. Each entry holds one dimension's storage offsets and
//! weights behind an [`Arc`] — O(log m) of them on Haar dimensions, at
//! most 2 on identity (SA) dimensions and one per maximal covered
//! subtree on nominal ones — so a hit is one clone of a pointer, never
//! of the support.
//!
//! Keys are spread across a fixed number of independently locked LRU
//! shards: concurrent lookups of different supports hash to different
//! shards and rarely contend, while each shard keeps exact LRU semantics
//! and its own counters. [`ShardedSupportCache::get_or_derive`] holds the
//! one shard's lock across the derivation, so each distinct
//! `(dim, lo, hi)` key is derived at most once per residency in its
//! shard.
//!
//! A cached support never goes stale: it is a pure function of
//! `(dim, lo, hi)` and the transform, and a serving engine only advances
//! to epochs published under the same transform
//! ([`ReleaseCore::advance_epoch`](crate::ReleaseCore::advance_epoch)).
//! So entries leave the cache only by LRU eviction, and the capacity is
//! the cache's one setting.

use crate::{QueryError, Result};
use privelet::transform::{HnTransform, Transform1d};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache key: `(dimension index, inclusive lo, inclusive hi)` over the
/// *domain* of that dimension.
pub type SupportKey = (usize, usize, usize);

/// One dimension's derived query support plus its precomputed noise
/// accounting: the sparse offsets and weights of the interval-sum
/// functional over the release's answer-ready storage
/// (`Transform1d::storage_support`), and the per-dimension variance
/// factor `Σ_j u(j)²/W(j)²` the exact-variance formula consumes
/// (`Transform1d::support_variance_factor` over the coefficient support
/// — an O(|support|) fold done once at derivation time, so every cached
/// or interned support carries its error accounting for free).
#[derive(Debug, Clone, PartialEq)]
pub struct DimSupport {
    /// Strictly ascending linear offsets: each is a storage index along
    /// this dimension premultiplied by the dimension's row-major stride
    /// in the storage matrix, so a dot adds it straight to a linear base
    /// address.
    pub offsets: Vec<usize>,
    /// The strictly nonzero weight of each offset (parallel to
    /// `offsets`).
    pub weights: Vec<f64>,
    /// The per-dimension variance factor of this support.
    pub variance_factor: f64,
}

/// Derives one dimension's support: the validated storage-domain
/// support of `[lo, hi]` on dimension `dim` with every index
/// premultiplied by `strides[dim]`, and the variance factor, folded over
/// the transform's own coefficient support
/// (`Transform1d::query_weights`) — the noise lives on the coefficients,
/// so the error bars do not depend on how the storage reads them. The
/// one derivation both the online path and plan compilation run.
pub(crate) fn derive(
    transform: &HnTransform,
    strides: &[usize],
    dim: usize,
    lo: usize,
    hi: usize,
) -> Result<DimSupport> {
    let coefficient_support = transform
        .query_weights_for_dim(dim, lo, hi)
        .map_err(QueryError::from)?;
    let variance_factor = transform.transforms()[dim].support_variance_factor(&coefficient_support);
    let (offsets, weights): (Vec<usize>, Vec<f64>) = transform
        .storage_support_for_dim(dim, lo, hi)
        .map_err(QueryError::from)?
        .iter()
        .map(|&(k, w)| (k * strides[dim], w))
        .unzip();
    // Every transform emits strictly ascending storage indices (pinned
    // by `query_weights_boundaries`), so a dot streams forward through
    // memory; the stride premultiply is monotone.
    debug_assert!(offsets.windows(2).all(|p| p[0] < p[1]));
    Ok(DimSupport {
        offsets,
        weights,
        variance_factor,
    })
}

impl DimSupport {
    /// Number of support entries (= storage values one dot along this
    /// dimension reads).
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the support is empty (never true for a valid interval).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// A memoized per-dimension support behind an [`Arc`]: a cache hit clones
/// a pointer, never the support.
pub type SharedSupport = Arc<DimSupport>;

/// Hit/miss/eviction counters and current occupancy of a support cache,
/// summed over its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh derivation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held (0 disables caching).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when none were
    /// made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard of a [`ShardedSupportCache`]: a bounded LRU of
/// per-dimension query supports.
///
/// Recency is tracked with a monotone tick per entry and a
/// `BTreeMap<tick, key>` index, so `get`/`insert` are O(log capacity)
/// and eviction pops the smallest tick. A capacity of 0 disables the
/// cache: every lookup misses and nothing is stored.
#[derive(Debug, Default)]
struct SupportCache {
    capacity: usize,
    entries: HashMap<SupportKey, (SharedSupport, u64)>,
    by_tick: BTreeMap<u64, SupportKey>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SupportCache {
    /// An empty cache holding at most `capacity` supports.
    fn new(capacity: usize) -> Self {
        SupportCache {
            capacity,
            ..SupportCache::default()
        }
    }

    /// Looks up a support, marking it most recently used on a hit.
    fn get(&mut self, key: SupportKey) -> Option<SharedSupport> {
        match self.entries.get_mut(&key) {
            Some((support, tick)) => {
                self.hits += 1;
                let support = support.clone();
                self.by_tick.remove(tick);
                self.tick += 1;
                *tick = self.tick;
                self.by_tick.insert(self.tick, key);
                Some(support)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly derived support, evicting the least recently
    /// used entry if the cache is full. No-op at capacity 0.
    fn insert(&mut self, key: SupportKey, support: SharedSupport) {
        if self.capacity == 0 {
            return;
        }
        if let Some((_, old_tick)) = self.entries.remove(&key) {
            // Replacing an existing entry never needs an eviction.
            self.by_tick.remove(&old_tick);
        } else if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.by_tick.pop_first() {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(key, (support, self.tick));
        self.by_tick.insert(self.tick, key);
    }

    /// Current counters and occupancy.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Shard count of every [`ShardedSupportCache`]. Measured on a 2-vCPU
/// machine (stream schema, `answer_with_error` traffic): eight shards
/// serve 1.35× (hot pool) to 1.6× (evicting) the queries per second of
/// one shard with two threads, and stay within 10% of it with one. See
/// `docs/architecture.md` for the table.
const SHARD_COUNT: usize = 8;

/// The support cache of the serving engine: eight independently locked
/// LRU shards, keys routed by a fixed (process-stable) hash of
/// `(dim, lo, hi)`.
///
/// Every operation takes `&self` — locking is per shard and internal —
/// so one `ShardedSupportCache` can sit behind an `Arc` and be hammered
/// from any number of threads. Lookups of supports in different shards
/// proceed fully in parallel; only same-shard lookups serialize, and
/// they hold the lock for the O(log capacity) LRU touch (plus the
/// derivation on a miss — see [`get_or_derive`](Self::get_or_derive)
/// for why that is deliberate).
///
/// The total `capacity` is split evenly across shards (rounded up, so
/// the bound per shard is `ceil(capacity / 8)`); capacity 0
/// disables every shard. Counters are kept per shard and summed by
/// [`stats`](Self::stats).
#[derive(Debug)]
pub struct ShardedSupportCache {
    shards: Vec<Mutex<SupportCache>>,
}

impl ShardedSupportCache {
    /// A cache holding at most `capacity` supports in total (0 disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARD_COUNT);
        ShardedSupportCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(SupportCache::new(per_shard)))
                .collect(),
        }
    }

    /// The shard a key routes to. The hash is `DefaultHasher::new()`
    /// (fixed keys), so routing is stable within and across processes —
    /// required for the derive-once-per-shard contract to be testable.
    fn shard_for(&self, key: SupportKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, SupportCache> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, deriving and inserting it via `derive` on a miss
    /// — all under the key's shard lock, so concurrent requests for the
    /// same key perform exactly one derivation (the losers of the lock
    /// race hit the freshly inserted entry). Requests hashing to other
    /// shards are unaffected either way. On Haar dimensions a derivation
    /// is O(log m) — comparable to the LRU touch itself — so the
    /// derive-once guarantee costs next to nothing; on identity (SA) and
    /// nominal dimensions the variance factor folds the coefficient
    /// support, O(interval length) for a wide predicate, while the shard
    /// is locked, which is exactly when derive-once matters most:
    /// redundant O(m) derivations would hurt far more than the wait.
    ///
    /// Errors from `derive` propagate untouched and insert nothing; the
    /// miss is still counted (every call moves exactly one hit or miss
    /// counter, so `hits + misses` always equals the number of calls).
    pub fn get_or_derive<E>(
        &self,
        key: SupportKey,
        derive: impl FnOnce() -> std::result::Result<SharedSupport, E>,
    ) -> std::result::Result<SharedSupport, E> {
        let mut shard = self.lock_shard(self.shard_for(key));
        if let Some(support) = shard.get(key) {
            return Ok(support);
        }
        let support = derive()?;
        shard.insert(key, support.clone());
        Ok(support)
    }

    /// Counters and occupancy summed over all shards. `capacity` is the
    /// sum of per-shard bounds (≥ the constructor's `capacity` due to
    /// the even split rounding up).
    pub fn stats(&self) -> CacheStats {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).stats())
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
                len: acc.len + s.len,
                capacity: acc.capacity + s.capacity,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn support(v: usize) -> SharedSupport {
        Arc::new(DimSupport {
            offsets: vec![v],
            weights: vec![1.0],
            variance_factor: 1.0,
        })
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut cache = SupportCache::new(2);
        assert!(cache.get((0, 0, 1)).is_none());
        cache.insert((0, 0, 1), support(1));
        cache.insert((0, 2, 3), support(2));
        assert_eq!(cache.get((0, 0, 1)).unwrap().offsets[0], 1);
        // Inserting a third entry evicts the least recently used (0,2,3).
        cache.insert((1, 0, 0), support(3));
        assert!(cache.get((0, 2, 3)).is_none());
        assert!(cache.get((0, 0, 1)).is_some());
        assert!(cache.get((1, 0, 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache = SupportCache::new(2);
        cache.insert((0, 0, 1), support(1));
        cache.insert((0, 0, 1), support(9));
        assert_eq!(cache.get((0, 0, 1)).unwrap().offsets[0], 9);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = SupportCache::new(0);
        cache.insert((0, 0, 1), support(1));
        assert!(cache.get((0, 0, 1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn zero_capacity_counters_do_not_drift() {
        // Hammering a disabled cache must leave every counter consistent:
        // no entries, no evictions, one miss per lookup, nothing stored.
        let mut cache = SupportCache::new(0);
        for round in 0..10u64 {
            cache.insert((0, 0, 1), support(round as usize));
            assert!(cache.get((0, 0, 1)).is_none());
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_one_evicts_on_every_distinct_insert() {
        let mut cache = SupportCache::new(1);
        cache.insert((0, 0, 0), support(0));
        assert_eq!(cache.stats().evictions, 0);
        for i in 1..=5usize {
            // Each distinct key displaces the single resident entry.
            cache.insert((0, i, i), support(i));
            let stats = cache.stats();
            assert_eq!(stats.len, 1);
            assert_eq!(stats.evictions, i as u64);
            assert!(cache.get((0, i - 1, i - 1)).is_none(), "old entry gone");
            assert_eq!(cache.get((0, i, i)).unwrap().offsets[0], i);
        }
        // Re-inserting the resident key replaces in place, no eviction.
        cache.insert((0, 5, 5), support(99));
        assert_eq!(cache.stats().evictions, 5);
        assert_eq!(cache.get((0, 5, 5)).unwrap().offsets[0], 99);
    }

    #[test]
    fn reinsert_after_evict_rederives_exactly_once() {
        // A key evicted and requested again costs exactly one fresh
        // derivation — modeled here by counting the get-miss → insert
        // cycles a caller would perform.
        let mut cache = SupportCache::new(1);
        let mut derivations = 0;
        let mut lookup = |cache: &mut SupportCache, key: SupportKey| {
            if cache.get(key).is_none() {
                derivations += 1;
                cache.insert(key, support(key.1));
            }
        };
        lookup(&mut cache, (0, 1, 1)); // derive #1
        lookup(&mut cache, (0, 2, 2)); // derive #2, evicts (0,1,1)
        lookup(&mut cache, (0, 1, 1)); // derive #3: exactly one re-derivation
        lookup(&mut cache, (0, 1, 1)); // hit: no further derivation
        assert_eq!(derivations, 3);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn sharded_cache_routes_and_aggregates() {
        let cache = ShardedSupportCache::new(64);
        let keys: Vec<SupportKey> = (0..16).map(|i| (i % 3, i, i + 1)).collect();
        for (i, &key) in keys.iter().enumerate() {
            cache
                .get_or_derive(key, || Ok::<_, ()>(support(i)))
                .unwrap();
        }
        for (i, &key) in keys.iter().enumerate() {
            let hit = cache
                .get_or_derive(key, || Err("resident keys must not re-derive"))
                .unwrap();
            assert_eq!(hit.offsets[0], i, "routing must be stable");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.len, 16);
        assert_eq!(stats.capacity, 64);
    }

    #[test]
    fn sharded_get_or_derive_derives_once_and_counts_errors() {
        let cache = ShardedSupportCache::new(64);
        let mut derivations = 0;
        for _ in 0..3 {
            let s = cache
                .get_or_derive((1, 2, 3), || {
                    derivations += 1;
                    Ok::<_, ()>(support(7))
                })
                .unwrap();
            assert_eq!(s.offsets[0], 7);
        }
        assert_eq!(derivations, 1, "first call derives, the rest hit");
        // A failing derivation propagates, stores nothing, counts a miss.
        assert_eq!(
            cache.get_or_derive((9, 9, 9), || Err::<SharedSupport, &str>("boom")),
            Err("boom")
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits + stats.misses, 4, "one counter per call");
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn sharded_zero_capacity_disables_every_shard() {
        let cache = ShardedSupportCache::new(0);
        let mut derivations = 0;
        for _ in 0..2 {
            cache
                .get_or_derive((0, 0, 1), || {
                    derivations += 1;
                    Ok::<_, ()>(support(1))
                })
                .unwrap();
        }
        // Nothing is retained, so every call re-derives.
        assert_eq!(derivations, 2);
        let stats = cache.stats();
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.len, 0);
        assert_eq!(stats.misses, 2);
    }
}
