//! Bounded, verify-before-serve caching: one store, [`VerifiedCache`],
//! and the cone result cache built on it. Proved cones are proved
//! forever, but not *kept* forever.
//!
//! Every cache in the service follows the rule a sweep follows for its
//! merges: a stored entry is re-checked against the probe before it is
//! used. [`VerifiedCache`] holds that rule in one place, and three users
//! share it: the [`ResultCache`], the service's whole-job memo, and the
//! front-ends' parsed-file cache
//! ([`MiterCache`](crate::frontend::MiterCache)). Each brings only its
//! key and its verifier.
//!
//! * **Bounded residency.** At most `capacity` entries, evicted
//!   least-recently-used. Touch, insert and evict are O(log n) under the
//!   lock and never scan the cache. Capacity 0 disables the store.
//! * **Verification outside the lock.** Verifiers can be O(cone) (an
//!   exact structure comparison), so `get` and `insert` snapshot the
//!   entry's `Arc` under the lock, release it, verify, and re-lock only
//!   for the O(log n) bookkeeping.
//! * **One insert rule.** A resident entry that still verifies is kept
//!   and the insert counts as a touch (first proof wins, so racing
//!   duplicates collapse to one entry); anything else is replaced (a
//!   stale file stamp is re-parsed, a colliding key can never
//!   cross-serve).
//!
//! Service traffic repeats itself — regression reruns, `double`d
//! benchmarks, shared IP blocks — and an extracted cone's verdict depends
//! only on the cone. [`ResultCache`] keys on
//! [`Aig::structural_hash`](parsweep_aig::Aig::structural_hash) and
//! verifies the resident entry with
//! [`Aig::same_structure`](parsweep_aig::Aig::same_structure), so a
//! 64-bit hash collision can cost a probe but never a wrong verdict. Two
//! colliding structures do not share a key: the later insert replaces the
//! earlier.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use parsweep_aig::Aig;
use parsweep_sat::Verdict;

/// Default [`ResultCache`] capacity, and through
/// [`SvcConfig::cache_capacity`](crate::SvcConfig::cache_capacity) the
/// bound of each of the service's two stores: the cone cache and the
/// whole-job memo.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// A concurrent, capacity-bounded LRU map that serves an entry only after
/// the caller's verifier accepts it (see the [module docs](self)).
///
/// Keys are cheap identities (a hash, a path); the
/// verifier compares the stored value with whatever the key stands for
/// (a cone's exact structure, a fingerprint, a file stamp), so a key
/// collision or a stale entry degrades to a miss.
#[derive(Debug)]
pub(crate) struct VerifiedCache<K, V> {
    inner: Mutex<Lru<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Entries plus their recency: each entry carries the stamp of its last
/// touch, and `order` maps stamps back to keys, least recent first.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (u64, Arc<V>)>,
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K: Hash + Eq, V> Lru<K, V> {
    fn resident<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|(_, v)| Arc::clone(v))
    }

    /// Makes `key` most-recently-used if it still holds `value` (another
    /// thread may have replaced it since the caller's snapshot).
    fn touch<Q>(&mut self, key: &Q, value: &Arc<V>)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let Lru { map, order, clock } = self;
        if let Some((stamp, v)) = map.get_mut(key) {
            if Arc::ptr_eq(v, value) {
                let k = order.remove(stamp).expect("every entry has a stamp");
                order.insert(*clock, k);
                *stamp = *clock;
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V> VerifiedCache<K, V> {
    /// An empty store retaining at most `capacity` entries (0 disables
    /// it: every `get` misses and every `insert` is dropped).
    pub fn new(capacity: usize) -> Self {
        VerifiedCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves the entry under `key` if `serve` accepts it: `serve` runs
    /// with the lock released and returns what the caller takes from a
    /// verified entry, or `None` to reject it. Counts a hit (and touches
    /// the entry) or a miss.
    pub fn get<Q, T>(&self, key: &Q, serve: impl FnOnce(&V) -> Option<T>) -> Option<T>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.lock().resident(key);
        let served = entry.as_ref().and_then(|v| serve(v).map(|t| (v, t)));
        match served {
            Some((v, t)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.lock().touch(key, v);
                Some(t)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting least-recently-used entries
    /// beyond capacity. A resident entry that `verify` still accepts is
    /// kept instead, and the insert counts as its touch; any other
    /// resident entry is replaced. `verify` runs with the lock released.
    /// Returns true when `value` was stored.
    pub fn insert(&self, key: K, value: V, verify: impl Fn(&V) -> bool) -> bool {
        if self.capacity == 0 {
            return false;
        }
        loop {
            let seen = self.lock().resident(&key);
            if let Some(old) = &seen {
                if verify(old) {
                    self.lock().touch(&key, old);
                    return false;
                }
            }
            let mut inner = self.lock();
            let unchanged = match (inner.map.get(&key), &seen) {
                (None, None) => true,
                (Some((_, now)), Some(old)) => Arc::ptr_eq(now, old),
                _ => false,
            };
            if !unchanged {
                // Another insert raced in since the snapshot: verify the
                // newcomer too, again with the lock released.
                continue;
            }
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some((old, _)) = inner.map.insert(key.clone(), (stamp, Arc::new(value))) {
                inner.order.remove(&old);
            }
            inner.order.insert(stamp, key);
            while inner.map.len() > self.capacity {
                let (_, victim) = inner.order.pop_first().expect("every entry has a stamp");
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `get`s that served a verified entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// `get`s that found nothing, or an entry that failed verification.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// A concurrent, capacity-bounded map from cone structure to settled
/// verdict, verified on every hit.
///
/// Only *decided* verdicts are stored: `Equivalent`, or `NotEquivalent`
/// with a counter-example over the *cone's own* PIs (the caller lifts it
/// through the extraction's PI map). `Undecided` — including
/// deadline-cancelled partial runs — is never cached, so an early abort
/// cannot poison later, better-budgeted attempts.
#[derive(Debug)]
pub struct ResultCache {
    structural: VerifiedCache<u64, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    cone: Aig,
    verdict: Verdict,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An empty cache with the [`DEFAULT_CACHE_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache retaining at most `capacity` cone structures
    /// (capacity 0 disables caching: inserts are dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            structural: VerifiedCache::new(capacity),
        }
    }

    /// Looks up a cone by its structural hash; the resident entry is
    /// served only if its structure matches `cone` exactly. Counts a hit
    /// or a miss; a hit refreshes the entry's recency.
    pub fn lookup(&self, hash: u64, cone: &Aig) -> Option<Verdict> {
        self.structural.get(&hash, |e| {
            e.cone.same_structure(cone).then(|| e.verdict.clone())
        })
    }

    /// Records a settled verdict for a cone, evicting least-recently-used
    /// entries beyond capacity. `Undecided` is ignored, as is a duplicate
    /// of the resident structure (first proof wins; the duplicate counts
    /// as a recency touch).
    pub fn insert(&self, hash: u64, cone: &Aig, verdict: &Verdict) {
        if matches!(verdict, Verdict::Undecided) {
            return;
        }
        let entry = CacheEntry {
            cone: cone.clone(),
            verdict: verdict.clone(),
        };
        self.structural
            .insert(hash, entry, |e| e.cone.same_structure(cone));
    }

    /// Lookups that found a verified entry.
    pub fn hits(&self) -> u64 {
        self.structural.hits()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.structural.misses()
    }

    /// Entries dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.structural.evictions()
    }

    /// Cached structures currently held.
    pub(crate) fn len(&self) -> usize {
        self.structural.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_sim::Cex;
    use proptest::prelude::*;

    fn and_cone(extra_po: bool) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        aig.add_po(f);
        if extra_po {
            aig.add_po(!f);
        }
        aig
    }

    /// A distinct structure per `i`: a 14-gate chain whose step `b` is an
    /// AND or an OR depending on bit `b` of `i`.
    fn coded_cone(i: u64) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let mut acc = xs[0];
        for b in 0..14 {
            acc = if (i >> b) & 1 == 1 {
                aig.and(acc, xs[1])
            } else {
                aig.or(acc, !xs[1])
            };
            // Keep every step alive so strash can't collapse the chain.
            aig.add_po(acc);
        }
        aig
    }

    /// A store of `key -> key` whose verifier checks the value, the
    /// shape every generic-store test below uses.
    fn put(store: &VerifiedCache<u64, u64>, key: u64) -> bool {
        store.insert(key, key, |v| *v == key)
    }

    fn has(store: &VerifiedCache<u64, u64>, key: u64) -> bool {
        store.get(&key, |v| (*v == key).then_some(())).is_some()
    }

    #[test]
    fn insert_then_hit() {
        let cache = ResultCache::new();
        let cone = and_cone(false);
        let hash = cone.structural_hash();
        assert_eq!(cache.lookup(hash, &cone), None);
        cache.insert(hash, &cone, &Verdict::Equivalent);
        assert_eq!(cache.lookup(hash, &cone), Some(Verdict::Equivalent));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn undecided_is_never_cached() {
        let cache = ResultCache::new();
        let cone = and_cone(false);
        let hash = cone.structural_hash();
        cache.insert(hash, &cone, &Verdict::Undecided);
        assert!(cache.structural.len() == 0);
        assert_eq!(cache.lookup(hash, &cone), None);
    }

    #[test]
    fn colliding_hash_is_verified_by_structure() {
        // Force two different structures under one key: a lookup for the
        // second must not return the first's verdict, and once the second
        // is inserted it replaces the first rather than sitting beside it.
        let cache = ResultCache::new();
        let a = and_cone(false);
        let b = and_cone(true);
        let fake_hash = 42;
        cache.insert(fake_hash, &a, &Verdict::Equivalent);
        assert_eq!(cache.lookup(fake_hash, &b), None);
        let cex = Verdict::NotEquivalent(Cex::new(vec![true, true]));
        cache.insert(fake_hash, &b, &cex);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(fake_hash, &b), Some(cex));
        assert_eq!(cache.lookup(fake_hash, &a), None);
    }

    #[test]
    fn first_proof_wins_on_duplicate_insert() {
        let cache = ResultCache::new();
        let cone = and_cone(false);
        let hash = cone.structural_hash();
        cache.insert(hash, &cone, &Verdict::Equivalent);
        cache.insert(
            hash,
            &cone,
            &Verdict::NotEquivalent(parsweep_sim::Cex::new(vec![true, true])),
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(hash, &cone), Some(Verdict::Equivalent));
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        // 10k distinct keys through a 64-entry store: the bound must hold
        // at every step and evictions must account for the rest.
        let capacity = 64;
        let total = 10_000u64;
        let store = VerifiedCache::new(capacity);
        for i in 0..total {
            assert!(put(&store, i));
            if i % 512 == 0 {
                assert!(store.len() <= capacity, "len {} at i={i}", store.len());
            }
        }
        assert_eq!(store.len(), capacity);
        assert_eq!(store.evictions(), total - capacity as u64);
        // Pure insert churn is FIFO = LRU: the last `capacity` keys are
        // resident, the one before them is not.
        assert!(!has(&store, total - capacity as u64 - 1));
        for i in (total - capacity as u64)..total {
            assert!(has(&store, i), "recent key {i} must be resident");
        }
    }

    #[test]
    fn lru_prefers_recently_touched() {
        let store = VerifiedCache::new(2);
        put(&store, 1);
        put(&store, 2);
        // Touch 1: 2 becomes the LRU victim.
        assert!(has(&store, 1));
        put(&store, 3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(has(&store, 1));
        assert!(!has(&store, 2));
        assert!(has(&store, 3));
    }

    #[test]
    fn duplicate_insert_counts_as_a_touch() {
        // Re-inserting a resident entry that still verifies keeps it and
        // refreshes its recency.
        let store = VerifiedCache::new(2);
        put(&store, 1);
        put(&store, 2);
        assert!(!put(&store, 1), "a verified resident entry is kept");
        put(&store, 3);
        assert!(has(&store, 1));
        assert!(!has(&store, 2), "2 was LRU");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::with_capacity(0);
        let cone = and_cone(false);
        cache.insert(cone.structural_hash(), &cone, &Verdict::Equivalent);
        assert!(cache.structural.len() == 0);
        assert_eq!(cache.lookup(cone.structural_hash(), &cone), None);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn hot_bucket_probe_verifies_outside_lock() {
        // The lock-contention regression check, timing-insensitive: every
        // verifier asserts (via try_lock) that the store's mutex is free
        // when it runs. Deterministic in a single-threaded test — if get
        // or insert ever moves verification back under the lock, the
        // probe trips.
        let store: VerifiedCache<u64, u64> = VerifiedCache::new(16);
        let unlocked = |v: &u64| {
            assert!(
                store.inner.try_lock().is_ok(),
                "verifier ran under the lock"
            );
            *v
        };
        for k in 0..8 {
            store.insert(k, k, |v| unlocked(v) == k);
        }
        for k in 0..8 {
            assert!(store
                .get(&k, |v| (unlocked(v) == k).then_some(()))
                .is_some());
        }
        // Duplicate inserts verify too, and so does a replacing insert.
        assert!(!store.insert(3, 3, |v| unlocked(v) == 3));
        assert!(store.insert(4, 40, |v| unlocked(v) == 40));
    }

    #[test]
    fn concurrent_churn_keeps_bound_and_verdicts() {
        let capacity = 32;
        let cache = ResultCache::with_capacity(capacity);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let cone = coded_cone((t * 500 + i) % 96);
                        let hash = cone.structural_hash();
                        if let Some(v) = cache.lookup(hash, &cone) {
                            assert_eq!(v, Verdict::Equivalent);
                        } else {
                            cache.insert(hash, &cone, &Verdict::Equivalent);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= capacity, "len {}", cache.len());
        assert!(cache.hits() + cache.misses() >= 2000);
    }

    #[test]
    fn concurrent_double_insert_collapses_to_one_entry() {
        // Many threads insert the same verified entry: exactly one insert
        // stores it (first proof wins), every other one is a touch.
        let store = VerifiedCache::new(8);
        let stored = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (store, stored) = (&store, &stored);
                s.spawn(move || {
                    for _ in 0..200 {
                        if put(store, 7) {
                            stored.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 1, "racing duplicates must dedupe");
        assert_eq!(stored.load(Ordering::Relaxed), 1);
        assert!(has(&store, 7));
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Forced-collision soundness: two different structures inserted
        /// under the SAME structural key never cross-serve (the later one
        /// replaces the earlier), and neither do two miter fingerprints
        /// under one memo key.
        #[test]
        fn forced_structural_collision_never_cross_serves(sa in 0..16384u64, sb in 0..16384u64) {
            let (a, b) = (coded_cone(sa), coded_cone(sb));
            let same = a.same_structure(&b);
            let cache = ResultCache::new();
            let forced = 0xDEAD; // same key for both
            cache.insert(forced, &a, &Verdict::Equivalent);
            let cex = Verdict::NotEquivalent(Cex::new(vec![true, true]));
            cache.insert(forced, &b, &cex);
            let va = cache.lookup(forced, &a);
            let vb = cache.lookup(forced, &b);
            if same {
                prop_assert_eq!(va, Some(Verdict::Equivalent));
                prop_assert_eq!(vb, Some(Verdict::Equivalent), "dup keeps first proof");
            } else {
                prop_assert_eq!(va, None, "replaced entry must not serve");
                prop_assert_eq!(vb, Some(cex));
            }

            // Memo tier: a fingerprint-verified store under one forced key.
            let memo: VerifiedCache<u64, (u64, Verdict)> = VerifiedCache::new(8);
            let (fa, fb) = (a.structural_fingerprint(), b.structural_fingerprint());
            let probe = |fp: u64| memo.get(&forced, |(f, v)| (*f == fp).then(|| v.clone()));
            memo.insert(forced, (fa, Verdict::Equivalent), |(f, _)| *f == fa);
            prop_assert_eq!(probe(fa), Some(Verdict::Equivalent));
            if fa != fb {
                prop_assert_eq!(probe(fb), None, "a colliding fingerprint was served");
                let ne = Verdict::NotEquivalent(Cex::new(vec![true, true]));
                memo.insert(forced, (fb, ne.clone()), |(f, _)| *f == fb);
                prop_assert_eq!(probe(fb), Some(ne));
                prop_assert_eq!(probe(fa), None, "the replaced fingerprint was served");
            }
        }
    }
}
