//! Two-tier result cache: structural identity first, semantic identity
//! second — proved cones are proved forever, but not *kept* forever.
//!
//! Service traffic repeats itself — regression reruns, `double`d
//! benchmarks, shared IP blocks — and an extracted cone's verdict depends
//! only on its function. The cache exploits that at two levels:
//!
//! * **Structural tier.** Keys on
//!   [`Aig::structural_hash`](parsweep_aig::Aig::structural_hash) and
//!   verifies every candidate with
//!   [`Aig::same_structure`](parsweep_aig::Aig::same_structure), so a
//!   64-bit hash collision can cost a probe but never a wrong verdict.
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
//!
//! Two more properties matter for a long-lived service:
//!
//! * **Bounded residency, O(1) maintenance.** Entries beyond
//!   [`ResultCache::capacity`] are evicted least-recently-used via an
//!   intrusive doubly-linked LRU list: touch, insert and evict are all
//!   O(1) under the lock. (An earlier design kept a lazy recency queue
//!   whose compaction rebuilt an id map over the *whole cache* while
//!   holding the bucket lock — a periodic latency spike on hit-heavy
//!   traffic that the linked list removes entirely.)
//! * **Verification outside the lock.** `same_structure` is O(cone);
//!   `lookup`/`insert` clone the candidate `Arc`s under the lock, release
//!   it, verify, and re-lock only for the O(1) bookkeeping (`insert`
//!   re-checks entries that raced in since the snapshot, so two workers
//!   missing on the same cone still collapse to one entry — first proof
//!   wins).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use parsweep_aig::Aig;
use parsweep_sat::{EngineKind, Verdict};

use crate::persist::{load_records, PersistLog, PersistRecord};
use crate::semantic::{cex_to_index, index_to_cex, SemanticKey, SemanticSig};

/// Default [`ResultCache::capacity`]: distinct cone structures retained
/// (the semantic tier is bounded by the same count, separately).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

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
/// semantic) to settled verdict.
///
/// Only *decided* verdicts are stored: `Equivalent`, or `NotEquivalent`
/// with a counter-example over the *cone's own* PIs (the caller lifts it
/// through the extraction's PI map). `Undecided` — including
/// deadline-cancelled partial runs — is never cached, so an early abort
/// cannot poison later, better-budgeted attempts.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    next_id: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    routing_hits: AtomicU64,
    semantic_hits: AtomicU64,
    persist_loaded: AtomicU64,
    persist_appended: AtomicU64,
    persist: Option<PersistLog>,
    /// Set when a structural verification began while the bucket lock was
    /// held — the timing-insensitive regression probe for the
    /// verify-outside-the-lock contract (meaningful in single-threaded
    /// tests only; under concurrency another thread's bookkeeping can
    /// hold the lock legitimately).
    #[cfg(test)]
    verified_under_lock: std::sync::atomic::AtomicBool,
}

#[derive(Debug, Default)]
struct CacheInner {
    buckets: HashMap<u64, Vec<Arc<CacheEntry>>>,
    /// Total entries across buckets (kept incrementally; `buckets` values
    /// are never empty).
    len: usize,
    /// Intrusive LRU order over entry ids, least-recent first.
    lru: LruList,
    /// Semantic tier: NPN-canonical key to settled class verdict.
    semantic: HashMap<SemanticKey, SemanticEntry>,
    /// Insertion order of semantic keys (FIFO residency bound; semantic
    /// entries are a few dozen bytes, so recency tracking isn't worth the
    /// bookkeeping).
    semantic_order: VecDeque<SemanticKey>,
}

/// Doubly-linked LRU order over entry ids. `unlink`, `push_back` (MRU)
/// and `pop_front` (LRU victim) are all O(1) hash-map operations; every
/// live cache entry has exactly one node, so eviction never scans.
#[derive(Debug, Default)]
struct LruList {
    nodes: HashMap<u64, LruNode>,
    head: Option<u64>,
    tail: Option<u64>,
}

#[derive(Debug)]
struct LruNode {
    hash: u64,
    prev: Option<u64>,
    next: Option<u64>,
}

impl LruList {
    fn push_back(&mut self, id: u64, hash: u64) {
        let prev = self.tail;
        self.nodes.insert(
            id,
            LruNode {
                hash,
                prev,
                next: None,
            },
        );
        match prev {
            Some(p) => self.nodes.get_mut(&p).expect("tail node exists").next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
    }

    fn unlink(&mut self, id: u64) -> Option<u64> {
        let node = self.nodes.remove(&id)?;
        match node.prev {
            Some(p) => self.nodes.get_mut(&p).expect("prev node exists").next = node.next,
            None => self.head = node.next,
        }
        match node.next {
            Some(n) => self.nodes.get_mut(&n).expect("next node exists").prev = node.prev,
            None => self.tail = node.prev,
        }
        Some(node.hash)
    }

    fn touch(&mut self, id: u64) {
        if let Some(hash) = self.unlink(id) {
            self.push_back(id, hash);
        }
    }

    fn pop_front(&mut self) -> Option<(u64, u64)> {
        let id = self.head?;
        let hash = self.unlink(id).expect("head is linked");
        Some((id, hash))
    }
}

#[derive(Debug)]
struct CacheEntry {
    id: u64,
    cone: Aig,
    verdict: Verdict,
}

/// One settled NPN class. The class's satisfiability is summarized by two
/// canonical-space witnesses: an assignment where the canonical function
/// is 1 (absent iff it is constant 0) and one where it is 0 (absent iff
/// constant 1). Probes of either output polarity read the slot they need
/// and lift it through their own transform.
#[derive(Clone, Debug)]
struct SemanticEntry {
    ones_witness: Option<u64>,
    zeros_witness: Option<u64>,
    /// Routing of an entry loaded from the persistent log, until its
    /// first hit takes it.
    replay: Option<RoutingInfo>,
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
            inner: Mutex::new(CacheInner::default()),
            capacity,
            next_id: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            routing_hits: AtomicU64::new(0),
            semantic_hits: AtomicU64::new(0),
            persist_loaded: AtomicU64::new(0),
            persist_appended: AtomicU64::new(0),
            persist: None,
            #[cfg(test)]
            verified_under_lock: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Loads the persisted semantic corpus from `path` into the semantic
    /// tier (tolerantly: corrupt lines are skipped and counted) and keeps
    /// the file open for appending newly settled classes. Call before the
    /// cache is shared. A missing file starts a fresh corpus.
    pub fn attach_persist(&mut self, path: &Path) -> io::Result<PersistSummary> {
        let (records, skipped) = load_records(path)?;
        let mut loaded = 0usize;
        for rec in records {
            let key = SemanticKey::of(&rec.canon);
            let entry = SemanticEntry {
                ones_witness: rec.ones_witness,
                zeros_witness: rec.zeros_witness,
                replay: rec.routing,
            };
            if self.insert_semantic_entry(key, entry) {
                loaded += 1;
            }
        }
        self.persist_loaded.store(loaded as u64, Ordering::Relaxed);
        self.persist = Some(PersistLog::open_append(path)?);
        Ok(PersistSummary { loaded, skipped })
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Structural verification of bucket candidates, run with the bucket
    /// lock *released* — this is the O(cone) part of every probe, and the
    /// reason hot buckets no longer serialize workers.
    fn verify(&self, candidates: &[Arc<CacheEntry>], cone: &Aig) -> Option<Arc<CacheEntry>> {
        #[cfg(test)]
        if !candidates.is_empty() && self.inner.try_lock().is_err() {
            self.verified_under_lock
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
        candidates
            .iter()
            .find(|e| e.cone.same_structure(cone))
            .cloned()
    }

    /// Bumps an entry to most-recently-used (O(1) under the lock).
    fn touch(&self, entry: &CacheEntry) {
        self.lock().lru.touch(entry.id);
    }

    /// Evicts the least-recently-used entry; false when nothing is left.
    fn evict_one(inner: &mut CacheInner) -> bool {
        let Some((id, hash)) = inner.lru.pop_front() else {
            return false;
        };
        let bucket = inner.buckets.get_mut(&hash).expect("LRU node has a bucket");
        let pos = bucket
            .iter()
            .position(|e| e.id == id)
            .expect("LRU node has an entry");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            inner.buckets.remove(&hash);
        }
        inner.len -= 1;
        true
    }

    /// Looks up a cone by its structural hash: candidates snapshot under
    /// the lock, structure verified exactly outside it. Counts a hit or
    /// a miss; a hit refreshes the entry's recency.
    pub fn lookup(&self, hash: u64, cone: &Aig) -> Option<Verdict> {
        let candidates: Vec<Arc<CacheEntry>> = {
            let inner = self.lock();
            inner.buckets.get(&hash).cloned().unwrap_or_default()
        };
        match self.verify(&candidates, cone) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&entry);
                Some(entry.verdict.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
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
        let entry = self.lock().semantic.get(&sig.key).cloned()?;
        let out_neg = sig.transform.output_neg;
        // The cone's function is identically 0 iff its canonical table is
        // constant `out_neg`; otherwise the witness of the opposite value
        // lifts to an input pattern that fires the cone.
        let needed = if out_neg {
            entry.zeros_witness
        } else {
            entry.ones_witness
        };
        let verdict = match needed {
            None => {
                let constant = if out_neg {
                    sig.canon.is_ones()
                } else {
                    sig.canon.is_zero()
                };
                if !constant {
                    return None; // entry contradicts the candidate's table
                }
                Verdict::Equivalent
            }
            Some(w) => {
                let w = w as usize;
                if w >= sig.canon.num_bits() || sig.canon.value(w) == out_neg {
                    return None; // witness doesn't witness
                }
                let cex = index_to_cex(sig, w);
                if !cex.fires(cone) {
                    return None; // defense in depth: must fire on the cone
                }
                Verdict::NotEquivalent(cex)
            }
        };
        self.semantic_hits.fetch_add(1, Ordering::Relaxed);
        // Racing first hits: whoever takes the record under the lock
        // replays it, the others see `None`.
        let replay = entry.replay.and_then(|_| {
            let mut inner = self.lock();
            inner.semantic.get_mut(&sig.key)?.replay.take()
        });
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
        if self.capacity == 0 {
            return false;
        }
        let Some(rec) = semantic_record(sig, verdict, routing) else {
            return false;
        };
        let entry = SemanticEntry {
            ones_witness: rec.ones_witness,
            zeros_witness: rec.zeros_witness,
            replay: None,
        };
        if !self.insert_semantic_entry(SemanticKey::of(&rec.canon), entry) {
            return false;
        }
        if let Some(log) = &self.persist {
            if log.append(&rec) {
                self.persist_appended.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    fn insert_semantic_entry(&self, key: SemanticKey, entry: SemanticEntry) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.lock();
        if inner.semantic.contains_key(&key) {
            return false;
        }
        inner.semantic.insert(key.clone(), entry);
        inner.semantic_order.push_back(key);
        while inner.semantic.len() > self.capacity {
            match inner.semantic_order.pop_front() {
                Some(old) => {
                    inner.semantic.remove(&old);
                }
                None => break,
            }
        }
        true
    }

    /// Records a settled verdict for a cone, evicting least-recently-used
    /// entries beyond capacity. `Undecided` is ignored, as is a duplicate
    /// of an already-cached structure (first proof wins; the duplicate
    /// counts as a recency touch).
    pub fn insert(&self, hash: u64, cone: &Aig, verdict: &Verdict) {
        if matches!(verdict, Verdict::Undecided) || self.capacity == 0 {
            return;
        }
        let candidates: Vec<Arc<CacheEntry>> = {
            let inner = self.lock();
            inner.buckets.get(&hash).cloned().unwrap_or_default()
        };
        // O(cone) duplicate detection runs unlocked, like lookup.
        if let Some(existing) = self.verify(&candidates, cone) {
            self.touch(&existing);
            return;
        }
        let seen: HashSet<u64> = candidates.iter().map(|e| e.id).collect();
        let entry = Arc::new(CacheEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            cone: cone.clone(),
            verdict: verdict.clone(),
        });
        let mut inner = self.lock();
        // Entries that raced in since the snapshot are re-checked under
        // the lock; racing duplicates are rare, so this set is tiny.
        if let Some(bucket) = inner.buckets.get(&hash) {
            if bucket
                .iter()
                .any(|e| !seen.contains(&e.id) && e.cone.same_structure(cone))
            {
                return;
            }
        }
        inner.lru.push_back(entry.id, hash);
        inner.buckets.entry(hash).or_default().push(entry);
        inner.len += 1;
        while inner.len > self.capacity {
            if Self::evict_one(&mut inner) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break; // unreachable: every live entry has an LRU node
            }
        }
    }

    /// The retention bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found a verified entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Semantic hits that handed out a persisted entry's [`RoutingInfo`]
    /// for replay (at most one per loaded entry).
    pub fn routing_hits(&self) -> u64 {
        self.routing_hits.load(Ordering::Relaxed)
    }

    /// Verified semantic-tier hits (NPN-canonical key matches that passed
    /// candidate-side verification).
    pub fn semantic_hits(&self) -> u64 {
        self.semantic_hits.load(Ordering::Relaxed)
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
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Settled NPN classes currently held (semantic tier).
    pub fn semantic_len(&self) -> usize {
        self.lock().semantic.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural hits over total structural lookups; `0.0` before any
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// True when a structural verification observed the bucket lock held
    /// (see the field docs; single-threaded tests only).
    #[cfg(test)]
    fn saw_verification_under_lock(&self) -> bool {
        self.verified_under_lock
            .load(std::sync::atomic::Ordering::Relaxed)
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
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn undecided_is_never_cached() {
        let cache = ResultCache::new();
        let cone = and_cone(false);
        let hash = cone.structural_hash();
        cache.insert(hash, &cone, &Verdict::Undecided);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(hash, &cone), None);
    }

    #[test]
    fn colliding_hash_is_verified_by_structure() {
        // Force two different structures into one bucket: a lookup for
        // the second must not return the first's verdict.
        let cache = ResultCache::new();
        let a = and_cone(false);
        let b = and_cone(true);
        let fake_hash = 42;
        cache.insert(fake_hash, &a, &Verdict::Equivalent);
        assert_eq!(cache.lookup(fake_hash, &b), None);
        cache.insert(fake_hash, &b, &Verdict::Equivalent);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(fake_hash, &b), Some(Verdict::Equivalent));
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
        // 10k distinct cones through a 64-entry cache: the bound must
        // hold at every step and evictions must account for the rest.
        let capacity = 64;
        let total = 10_000u64;
        let cache = ResultCache::with_capacity(capacity);
        for i in 0..total {
            let cone = coded_cone(i);
            cache.insert(cone.structural_hash(), &cone, &Verdict::Equivalent);
            if i % 512 == 0 {
                assert!(cache.len() <= capacity, "len {} at i={i}", cache.len());
            }
        }
        assert_eq!(cache.len(), capacity);
        assert_eq!(cache.evictions(), total - capacity as u64);
        // Pure insert churn is FIFO = LRU: the last `capacity` cones are
        // resident, the one before them is not.
        let evicted = coded_cone(total - capacity as u64 - 1);
        assert_eq!(cache.lookup(evicted.structural_hash(), &evicted), None);
        for i in (total - capacity as u64)..total {
            let cone = coded_cone(i);
            assert!(
                cache.lookup(cone.structural_hash(), &cone).is_some(),
                "recent cone {i} must be resident"
            );
        }
    }

    #[test]
    fn lru_prefers_recently_touched() {
        let cache = ResultCache::with_capacity(2);
        let (a, b, c) = (coded_cone(1), coded_cone(2), coded_cone(3));
        cache.insert(a.structural_hash(), &a, &Verdict::Equivalent);
        cache.insert(b.structural_hash(), &b, &Verdict::Equivalent);
        // Touch a: b becomes the LRU victim.
        assert!(cache.lookup(a.structural_hash(), &a).is_some());
        cache.insert(c.structural_hash(), &c, &Verdict::Equivalent);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(a.structural_hash(), &a).is_some());
        assert_eq!(cache.lookup(b.structural_hash(), &b), None);
        assert!(cache.lookup(c.structural_hash(), &c).is_some());
    }

    #[test]
    fn duplicate_insert_counts_as_a_touch() {
        // Re-inserting a resident structure must refresh its recency —
        // the LRU-list equivalent of the old lazy-stamp touch.
        let cache = ResultCache::with_capacity(2);
        let (a, b, c) = (coded_cone(1), coded_cone(2), coded_cone(3));
        cache.insert(a.structural_hash(), &a, &Verdict::Equivalent);
        cache.insert(b.structural_hash(), &b, &Verdict::Equivalent);
        cache.insert(a.structural_hash(), &a, &Verdict::Equivalent); // touch
        cache.insert(c.structural_hash(), &c, &Verdict::Equivalent);
        assert!(cache.lookup(a.structural_hash(), &a).is_some());
        assert_eq!(cache.lookup(b.structural_hash(), &b), None, "b was LRU");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::with_capacity(0);
        let cone = and_cone(false);
        cache.insert(cone.structural_hash(), &cone, &Verdict::Equivalent);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(cone.structural_hash(), &cone), None);
        assert_eq!(cache.evictions(), 0);
        // The semantic tier is disabled too.
        let sig = semantic_signature(&cone, 6).unwrap();
        assert!(!cache.insert_semantic(
            &sig,
            &Verdict::NotEquivalent(Cex::new(vec![true, true])),
            None
        ));
        assert_eq!(cache.semantic_len(), 0);
    }

    #[test]
    fn hot_bucket_probe_verifies_outside_lock() {
        // The lock-contention regression check, timing-insensitive: every
        // structural verification asserts (via try_lock) that the bucket
        // mutex is free when verification begins. Deterministic in a
        // single-threaded test — if lookup or insert ever moves
        // `same_structure` back under the lock, the probe trips.
        let cache = ResultCache::new();
        let fake_hash = 7; // one hot bucket with several entries
        for i in 0..8 {
            cache.insert(fake_hash, &coded_cone(i), &Verdict::Equivalent);
        }
        for i in 0..8 {
            assert!(cache.lookup(fake_hash, &coded_cone(i)).is_some());
        }
        // Duplicate inserts verify too.
        cache.insert(fake_hash, &coded_cone(3), &Verdict::Equivalent);
        assert!(
            !cache.saw_verification_under_lock(),
            "same_structure ran while the bucket lock was held"
        );
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
        // Many workers miss on the same cone and all insert their proof:
        // exactly one entry must survive (first proof wins), and its
        // verdict must be the one subsequent lookups see.
        let cache = ResultCache::new();
        let cone = and_cone(false);
        let hash = cone.structural_hash();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (cache, cone) = (&cache, &cone);
                s.spawn(move || {
                    for _ in 0..200 {
                        cache.insert(hash, cone, &Verdict::Equivalent);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1, "racing duplicates must dedupe");
        assert_eq!(cache.lookup(hash, &cone), Some(Verdict::Equivalent));
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
        /// under the SAME structural key never cross-serve.
        #[test]
        fn forced_structural_collision_never_cross_serves(sa in 0..16384u64, sb in 0..16384u64) {
            let (a, b) = (coded_cone(sa), coded_cone(sb));
            let cache = ResultCache::new();
            let forced = 0xDEAD; // same bucket for both
            cache.insert(forced, &a, &Verdict::Equivalent);
            let cex = Verdict::NotEquivalent(Cex::new(vec![true, true]));
            cache.insert(forced, &b, &cex);
            let va = cache.lookup(forced, &a);
            let vb = cache.lookup(forced, &b);
            prop_assert_eq!(va, Some(Verdict::Equivalent));
            if a.same_structure(&b) {
                prop_assert_eq!(vb, Some(Verdict::Equivalent), "dup keeps first proof");
            } else {
                prop_assert_eq!(vb, Some(cex));
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
            assert!(cache.semantic_len() <= 4);
        }
        assert!(inserted > 4, "need churn to exercise the bound");
        assert_eq!(cache.semantic_len(), 4);
    }
}
