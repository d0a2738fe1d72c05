//! Bounded, verify-before-serve caching: one store, [`VerifiedCache`],
//! and the two-tier cone result cache built on it. Proved cones are
//! proved forever, but not *kept* forever.
//!
//! Every cache in the service follows the rule a sweep follows for its
//! merges: a stored entry is re-checked against the probe before it is
//! used. [`VerifiedCache`] holds that rule in one place, and four users
//! share it: the structural and semantic tiers of [`ResultCache`], the
//! service's whole-job memo, and the front-ends' parsed-file cache
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
//! only on its function. [`ResultCache`] exploits that at two levels:
//!
//! * **Structural tier.** Keys on
//!   [`Aig::structural_hash`](parsweep_aig::Aig::structural_hash) and
//!   verifies the resident entry with
//!   [`Aig::same_structure`](parsweep_aig::Aig::same_structure), so a
//!   64-bit hash collision can cost a probe but never a wrong verdict.
//!   Two colliding structures do not share a key: the later insert
//!   replaces the earlier.
//! * **Semantic tier.** Small cones are additionally keyed by the
//!   NPN-canonical form of their truth table
//!   ([`SemanticSig`](crate::semantic::SemanticSig)), which collapses
//!   structurally different implementations of the same function — and
//!   everything NPN-equivalent to it — onto one settled verdict. Key
//!   equality is full canonical-word equality (no digest), the canonical
//!   table is recomputed from the probing cone itself, and a served
//!   counterexample is lifted through the probe's own
//!   [`NpnTransform`](parsweep_sim::NpnTransform) and re-evaluated on the
//!   cone before it leaves the cache. A corrupt or hand-forged entry can
//!   cost a miss, never a wrong verdict. Settled semantic entries can be
//!   appended to a disk log ([`attach_persist`](ResultCache::attach_persist))
//!   and reloaded on restart.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use parsweep_aig::Aig;
use parsweep_sat::{EngineKind, Verdict};

use crate::persist::{load_records, PersistLog, PersistRecord};
use crate::semantic::{cex_to_index, index_to_cex, SemanticKey, SemanticSig};

/// Default [`ResultCache`] capacity, and through
/// [`SvcConfig::cache_capacity`](crate::SvcConfig::cache_capacity) the
/// bound of each of the service's three stores: structural tier, semantic
/// tier and whole-job memo.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// A concurrent, capacity-bounded LRU map that serves an entry only after
/// the caller's verifier accepts it (see the [module docs](self)).
///
/// Keys are cheap identities (a hash, a canonical table, a path); the
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

/// How a semantic verdict was won: the deciding engine and its cost. The
/// record rides the persistent log; the first hit on an entry *loaded
/// from the log* replays it into the prover's difficulty model, so a
/// restarted dispatcher starts from the fleet's history instead of
/// static priors. Entries this process proved itself are never replayed:
/// the model saw those attempts when they ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingInfo {
    /// Engine that decided the cone.
    pub engine: EngineKind,
    /// Wall-clock cost of the winning attempt, in microseconds.
    pub cost_micros: u64,
}

/// What a call to [`ResultCache::attach_persist`] recovered from disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistSummary {
    /// Valid records loaded into the semantic tier.
    pub loaded: usize,
    /// Corrupt or truncated lines skipped by the tolerant loader.
    pub skipped: usize,
}

/// A concurrent, capacity-bounded map from cone identity (structural or
/// semantic) to settled verdict: two verified LRU tiers, each bounded by
/// the same capacity.
///
/// Only *decided* verdicts are stored: `Equivalent`, or `NotEquivalent`
/// with a counter-example over the *cone's own* PIs (the caller lifts it
/// through the extraction's PI map). `Undecided` — including
/// deadline-cancelled partial runs — is never cached, so an early abort
/// cannot poison later, better-budgeted attempts.
#[derive(Debug)]
pub struct ResultCache {
    structural: VerifiedCache<u64, CacheEntry>,
    semantic: VerifiedCache<SemanticKey, SemanticEntry>,
    routing_hits: AtomicU64,
    persist_loaded: AtomicU64,
    persist_appended: AtomicU64,
    persist: Option<PersistLog>,
}

#[derive(Debug)]
struct CacheEntry {
    cone: Aig,
    verdict: Verdict,
}

/// One settled NPN class. The class's satisfiability is summarized by two
/// canonical-space witnesses: an assignment where the canonical function
/// is 1 (absent iff it is constant 0) and one where it is 0 (absent iff
/// constant 1). Probes of either output polarity read the slot they need
/// and lift it through their own transform.
#[derive(Debug)]
struct SemanticEntry {
    ones_witness: Option<u64>,
    zeros_witness: Option<u64>,
    /// Routing of an entry loaded from the persistent log, until its
    /// first verified hit takes it.
    replay: Mutex<Option<RoutingInfo>>,
}

impl SemanticEntry {
    fn of(rec: &PersistRecord, replay: Option<RoutingInfo>) -> Self {
        SemanticEntry {
            ones_witness: rec.ones_witness,
            zeros_witness: rec.zeros_witness,
            replay: Mutex::new(replay),
        }
    }

    /// The verdict this entry serves to `cone`, whose signature is `sig`;
    /// `None` if the entry does not hold up against the cone.
    fn serve(&self, cone: &Aig, sig: &SemanticSig) -> Option<Verdict> {
        let out_neg = sig.transform.output_neg;
        // The cone's function is identically 0 iff its canonical table is
        // constant `out_neg`; otherwise the witness of the opposite value
        // lifts to an input pattern that fires the cone.
        let needed = if out_neg {
            self.zeros_witness
        } else {
            self.ones_witness
        };
        match needed {
            None => {
                let constant = if out_neg {
                    sig.canon.is_ones()
                } else {
                    sig.canon.is_zero()
                };
                // An entry that contradicts the candidate's table misses.
                constant.then_some(Verdict::Equivalent)
            }
            Some(w) => {
                let w = w as usize;
                if w >= sig.canon.num_bits() || sig.canon.value(w) == out_neg {
                    return None; // witness doesn't witness
                }
                let cex = index_to_cex(sig, w);
                // Defense in depth: the cex must fire on the cone.
                cex.fires(cone).then_some(Verdict::NotEquivalent(cex))
            }
        }
    }

    fn take_replay(&self) -> Option<RoutingInfo> {
        self.replay
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
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

    /// An empty cache retaining at most `capacity` cone structures and,
    /// separately, at most `capacity` NPN classes (capacity 0 disables
    /// caching: inserts are dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            structural: VerifiedCache::new(capacity),
            semantic: VerifiedCache::new(capacity),
            routing_hits: AtomicU64::new(0),
            persist_loaded: AtomicU64::new(0),
            persist_appended: AtomicU64::new(0),
            persist: None,
        }
    }

    /// Loads the persisted semantic corpus from `path` into the semantic
    /// tier (tolerantly: corrupt lines are skipped and counted) and keeps
    /// the file open for appending newly settled classes. Call before the
    /// cache is shared. A missing file starts a fresh corpus.
    pub fn attach_persist(&mut self, path: &Path) -> io::Result<PersistSummary> {
        let (records, skipped) = load_records(path)?;
        let loaded = records
            .iter()
            .filter(|rec| self.insert_semantic_record(rec, rec.routing))
            .count();
        self.persist_loaded.store(loaded as u64, Ordering::Relaxed);
        self.persist = Some(PersistLog::open_append(path)?);
        Ok(PersistSummary { loaded, skipped })
    }

    /// Looks up a cone by its structural hash; the resident entry is
    /// served only if its structure matches `cone` exactly. Counts a hit
    /// or a miss; a hit refreshes the entry's recency.
    pub fn lookup(&self, hash: u64, cone: &Aig) -> Option<Verdict> {
        self.structural.get(&hash, |e| {
            e.cone.same_structure(cone).then(|| e.verdict.clone())
        })
    }

    /// Probes the semantic tier with a cone's NPN-canonical signature.
    ///
    /// A hit is served only after it is verified against the candidate
    /// itself: the equivalence condition is re-checked on the candidate's
    /// own canonical table, and a counterexample is lifted through the
    /// candidate's transform and re-evaluated on `cone` before being
    /// returned. Anything inconsistent — a forged or bit-rotted persisted
    /// entry, a table/witness mismatch — degrades to a miss. Does not
    /// count toward structural hit/miss totals; hits count in
    /// [`semantic_hits`](Self::semantic_hits).
    ///
    /// The second component is the entry's [`RoutingInfo`] when the entry
    /// came from the persistent log and this is its first hit (counted in
    /// [`routing_hits`](Self::routing_hits)); every later hit, and every
    /// hit on an entry this process inserted, returns `None` there.
    pub fn lookup_semantic(
        &self,
        cone: &Aig,
        sig: &SemanticSig,
    ) -> Option<(Verdict, Option<RoutingInfo>)> {
        let (verdict, replay) = self.semantic.get(&sig.key, |e| {
            // Racing first hits: whoever takes the record replays it, the
            // others see `None`.
            e.serve(cone, sig).map(|v| (v, e.take_replay()))
        })?;
        if replay.is_some() {
            self.routing_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((verdict, replay))
    }

    /// Records a settled verdict under the cone's semantic key, appending
    /// it — with `routing`, for a restarted service to replay — to the
    /// persistent log when one is attached. First proof wins;
    /// returns true only for a fresh insert. `Undecided` is ignored, as
    /// is a verdict that contradicts the signature's own truth table
    /// (which would mean the proving engine and the simulator disagree —
    /// nothing trustworthy to cache).
    pub fn insert_semantic(
        &self,
        sig: &SemanticSig,
        verdict: &Verdict,
        routing: Option<RoutingInfo>,
    ) -> bool {
        let Some(rec) = semantic_record(sig, verdict, routing) else {
            return false;
        };
        if !self.insert_semantic_record(&rec, None) {
            return false;
        }
        if let Some(log) = &self.persist {
            if log.append(&rec) {
                self.persist_appended.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    fn insert_semantic_record(&self, rec: &PersistRecord, replay: Option<RoutingInfo>) -> bool {
        // The key is the whole canonical table, and every record reaching
        // here was checked against that table (`semantic_record`, or the
        // persist loader), so a resident entry always still holds: first
        // proof wins.
        let key = SemanticKey::of(&rec.canon);
        self.semantic
            .insert(key, SemanticEntry::of(rec, replay), |_| true)
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

    /// Structural lookups that found a verified entry.
    pub fn hits(&self) -> u64 {
        self.structural.hits()
    }

    /// Structural lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.structural.misses()
    }

    /// Structural entries dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.structural.evictions()
    }

    /// Semantic hits that handed out a persisted entry's [`RoutingInfo`]
    /// for replay (at most one per loaded entry).
    pub fn routing_hits(&self) -> u64 {
        self.routing_hits.load(Ordering::Relaxed)
    }

    /// Verified semantic-tier hits (NPN-canonical key matches that passed
    /// candidate-side verification).
    pub fn semantic_hits(&self) -> u64 {
        self.semantic.hits()
    }

    /// Semantic records loaded from the persistent log at attach time.
    pub fn persist_loaded(&self) -> u64 {
        self.persist_loaded.load(Ordering::Relaxed)
    }

    /// Semantic records appended to the persistent log this run.
    pub fn persist_appended(&self) -> u64 {
        self.persist_appended.load(Ordering::Relaxed)
    }

    /// Cached structures currently held (structural tier).
    pub(crate) fn len(&self) -> usize {
        self.structural.len()
    }
}

/// Derives the persistable canonical-space record of a settled verdict,
/// cross-checking the engine's verdict against the signature's own truth
/// table. `None` means "don't cache this": an undecided verdict, a cex of
/// the wrong width, or an engine/table contradiction.
fn semantic_record(
    sig: &SemanticSig,
    verdict: &Verdict,
    routing: Option<RoutingInfo>,
) -> Option<PersistRecord> {
    let k = sig.canon.num_vars();
    let mut ones_witness = None;
    let mut zeros_witness = None;
    match verdict {
        Verdict::Undecided => return None,
        Verdict::Equivalent => {
            // f ≡ 0 canonicalizes to the all-zero vector (the lexicographic
            // minimum); anything else means engine and simulator disagree.
            if !sig.canon.is_zero() {
                return None;
            }
        }
        Verdict::NotEquivalent(cex) => {
            if cex.inputs().len() != k {
                return None;
            }
            // Push the engine's firing assignment into canonical space and
            // keep it as the preferred witness of its value.
            let w = crate::semantic::push_index_of(sig, cex_to_index(cex));
            if sig.canon.value(w) == sig.transform.output_neg {
                return None; // the "firing" cex doesn't fire per the table
            }
            if sig.canon.value(w) {
                ones_witness = Some(w as u64);
            } else {
                zeros_witness = Some(w as u64);
            }
        }
    }
    for i in 0..sig.canon.num_bits() {
        if ones_witness.is_some() && zeros_witness.is_some() {
            break;
        }
        if sig.canon.value(i) {
            if ones_witness.is_none() {
                ones_witness = Some(i as u64);
            }
        } else if zeros_witness.is_none() {
            zeros_witness = Some(i as u64);
        }
    }
    Some(PersistRecord {
        canon: sig.canon.masked(),
        ones_witness,
        zeros_witness,
        routing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::semantic_signature;
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
        // The semantic tier is disabled too.
        let sig = semantic_signature(&cone, 6).unwrap();
        assert!(!cache.insert_semantic(
            &sig,
            &Verdict::NotEquivalent(Cex::new(vec![true, true])),
            None
        ));
        assert!(cache.semantic.len() == 0);
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

    fn single_po_cone(seed: u64) -> Aig {
        // A small single-PO cone with structure varying by seed.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let mut acc = if seed & 1 == 1 { xs[0] } else { !xs[0] };
        for b in 1..6 {
            let x = xs[(seed as usize + b) % 3];
            acc = if (seed >> b) & 1 == 1 {
                aig.and(acc, x)
            } else {
                aig.or(acc, !x)
            };
        }
        aig.add_po(acc);
        aig
    }

    fn ground_truth(cone: &Aig) -> Verdict {
        for i in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|j| i >> j & 1 == 1).collect();
            if cone.eval(&bits)[0] {
                return Verdict::NotEquivalent(Cex::new(bits));
            }
        }
        Verdict::Equivalent
    }

    #[test]
    fn semantic_hit_serves_npn_equivalent_cone_with_firing_cex() {
        let cache = ResultCache::new();
        // f = a & b & !c inserted; g = (a & !c) & (b & !c) probes: a
        // redundant decomposition — different structure, same function.
        let mut f = Aig::new();
        let xs = f.add_inputs(3);
        let t = f.and(xs[0], xs[1]);
        let t = f.and(t, !xs[2]);
        f.add_po(t);
        let mut g = Aig::new();
        let ys = g.add_inputs(3);
        let u1 = g.and(ys[0], !ys[2]);
        let u2 = g.and(ys[1], !ys[2]);
        let u = g.and(u1, u2);
        g.add_po(u);
        assert!(!f.same_structure(&g));
        let sig_f = semantic_signature(&f, 6).unwrap();
        let sig_g = semantic_signature(&g, 6).unwrap();
        assert_eq!(sig_f.key, sig_g.key);
        let truth = ground_truth(&f);
        assert!(cache.insert_semantic(&sig_f, &truth, None));
        let (verdict, _) = cache.lookup_semantic(&g, &sig_g).expect("semantic hit");
        match verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&g)),
            v => panic!("expected a firing cex, got {v:?}"),
        }
        assert_eq!(cache.semantic_hits(), 1);
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

        /// Semantic round trip: settle one random cone, probe NPN-distinct
        /// random cones; every hit must agree with the probe's own ground
        /// truth and any cex must fire on the probing cone.
        #[test]
        fn semantic_hits_always_match_ground_truth(seed_a in 0..4096u64, seed_b in 0..4096u64) {
            let (a, b) = (single_po_cone(seed_a), single_po_cone(seed_b));
            let cache = ResultCache::new();
            let sig_a = semantic_signature(&a, 6).unwrap();
            let sig_b = semantic_signature(&b, 6).unwrap();
            cache.insert_semantic(&sig_a, &ground_truth(&a), None);
            if let Some((verdict, _)) = cache.lookup_semantic(&b, &sig_b) {
                match (verdict, ground_truth(&b)) {
                    (Verdict::Equivalent, Verdict::Equivalent) => {}
                    (Verdict::NotEquivalent(cex), Verdict::NotEquivalent(_)) => {
                        prop_assert!(cex.fires(&b), "served cex must fire");
                    }
                    (got, want) => prop_assert!(false, "served {got:?}, truth {want:?}"),
                }
            } else {
                // A miss is only legal when the classes truly differ.
                prop_assert_ne!(sig_a.key, sig_b.key);
            }
        }
    }

    #[test]
    fn persisted_corpus_survives_restart_and_tolerates_garbage() {
        let dir =
            std::env::temp_dir().join(format!("parsweep-cache-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.log");
        std::fs::remove_file(&path).ok();

        // First service lifetime: settle two classes.
        let mut cache = ResultCache::new();
        cache.attach_persist(&path).unwrap();
        let (a, b) = (single_po_cone(3), single_po_cone(21));
        let sig_a = semantic_signature(&a, 6).unwrap();
        let sig_b = semantic_signature(&b, 6).unwrap();
        let routing = RoutingInfo {
            engine: EngineKind::SatSweep,
            cost_micros: 1234,
        };
        assert!(cache.insert_semantic(&sig_a, &ground_truth(&a), Some(routing)));
        let fresh_b = cache.insert_semantic(&sig_b, &ground_truth(&b), None);
        let appended = cache.persist_appended();
        assert_eq!(appended, 1 + fresh_b as u64);
        // The process that proved the class never replays its routing:
        // the model saw that attempt when it ran.
        let (_, replay) = cache.lookup_semantic(&a, &sig_a).expect("own entry hits");
        assert_eq!((replay, cache.routing_hits()), (None, 0));
        drop(cache);

        // Corrupt the tail, as a crash mid-append would.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"sem1 3 f").unwrap();
        drop(f);

        // Second lifetime: the corpus is back, the torn line is skipped,
        // and a probe settles from disk without any engine run.
        let mut cache2 = ResultCache::new();
        let summary = cache2.attach_persist(&path).unwrap();
        assert_eq!(summary.loaded as u64, appended);
        assert_eq!(summary.skipped, 1);
        assert_eq!(cache2.persist_loaded(), appended);
        let (verdict, replay) = cache2.lookup_semantic(&a, &sig_a).expect("hit from disk");
        // The persisted routing is handed out on the first hit only.
        assert_eq!(replay, Some(routing));
        let (_, again) = cache2.lookup_semantic(&a, &sig_a).expect("still hits");
        assert_eq!((again, cache2.routing_hits()), (None, 1));
        match (verdict, ground_truth(&a)) {
            (Verdict::Equivalent, Verdict::Equivalent) => {}
            (Verdict::NotEquivalent(cex), Verdict::NotEquivalent(_)) => {
                assert!(cex.fires(&a));
            }
            (got, want) => panic!("served {got:?}, truth {want:?}"),
        }
        // Re-settling a loaded class is not fresh: nothing re-appends.
        assert!(!cache2.insert_semantic(&sig_a, &ground_truth(&a), None));
        assert_eq!(cache2.persist_appended(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_persisted_entry_cannot_flip_a_verdict() {
        // Adversarial corpus: a record whose canonical table matches a
        // real class but whose witnesses lie. The loader rejects
        // self-inconsistent records outright; a record that is internally
        // consistent but belongs to a different function simply never
        // matches a probe key. Either way: miss, not a wrong verdict.
        let dir =
            std::env::temp_dir().join(format!("parsweep-cache-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.log");
        // AND2's canonical class is satisfiable, but this record claims
        // "constant zero" (ones witness '-'): self-inconsistent → skipped.
        let mut probe = Aig::new();
        let xs = probe.add_inputs(2);
        let f = probe.and(xs[0], xs[1]);
        probe.add_po(f);
        let sig = semantic_signature(&probe, 6).unwrap();
        let hex = sig.canon.to_hex();
        std::fs::write(&path, format!("sem1 2 {hex} - 0\n")).unwrap();
        let mut cache = ResultCache::new();
        let summary = cache.attach_persist(&path).unwrap();
        assert_eq!((summary.loaded, summary.skipped), (0, 1));
        assert_eq!(cache.lookup_semantic(&probe, &sig), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn semantic_tier_is_capacity_bounded() {
        let cache = ResultCache::with_capacity(4);
        let mut inserted = 0;
        for seed in 0..64u64 {
            let cone = single_po_cone(seed);
            let sig = semantic_signature(&cone, 6).unwrap();
            if cache.insert_semantic(&sig, &ground_truth(&cone), None) {
                inserted += 1;
            }
            assert!(cache.semantic.len() <= 4);
        }
        assert!(inserted > 4, "need churn to exercise the bound");
        assert_eq!(cache.semantic.len(), 4);
    }
}
