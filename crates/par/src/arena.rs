//! Pooled device-buffer arena — the executor-model analogue of a CUDA
//! memory pool (`cudaMemPool_t` / stream-ordered `cudaMallocAsync`).
//!
//! The engine's phase loop allocates the same large buffers over and over:
//! simulation tables every exhaustive-check round, signature words every
//! refinement round, cut sets every local phase. On a GPU those
//! allocations are the classic `cudaMalloc` bottleneck that memory pools
//! exist to remove; here they are `Vec` allocations with page-fault warmup
//! cost. [`BufferArena`] recycles freed buffers through size-class pools
//! so steady-state rounds allocate nothing, and exposes hit/miss/peak
//! counters (surfaced in [`LaunchStats`](crate::LaunchStats)) so reuse is
//! observable.
//!
//! ```
//! use parsweep_par::BufferArena;
//! let arena = BufferArena::new();
//! {
//!     let mut table = arena.take::<u64>(1000);
//!     table[3] = 7;
//! } // dropped: returned to the 1024-word pool
//! let again = arena.take::<u64>(900); // same size class: recycled
//! assert_eq!(again[3], 0, "recycled buffers are zeroed");
//! let s = arena.stats();
//! assert_eq!((s.hits, s.misses), (1, 1));
//! ```

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Counters of one [`BufferArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Number of `take` calls served from a pool (no allocation).
    pub hits: u64,
    /// Number of `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// High-water mark of the arena's footprint in bytes (buffers live
    /// plus buffers idling in pools — pooled memory is only freed by
    /// [`BufferArena::trim`]).
    pub peak_bytes: u64,
    /// Current footprint in bytes.
    pub footprint_bytes: u64,
    /// Bytes currently checked out of the pools (live `PooledBuf`s only,
    /// not idle pooled memory). Unlike `footprint_bytes` this shrinks
    /// when buffers are dropped.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`. Because pools keep what they
    /// get, the footprint-based `peak_bytes` of a later workload is floored at
    /// whatever an earlier workload in the same process allocated; this
    /// counter is the honest per-workload demand after a
    /// `reset_counters` rebase.
    pub peak_live_bytes: u64,
}

/// A pool bucket: freed buffers of one element type and size class, each
/// with its allocation size in bytes.
type Pool = Vec<(u64, Box<dyn Any + Send>)>;

#[derive(Default)]
struct ArenaInner {
    /// Freed buffers keyed by element type and power-of-two size class.
    pools: Mutex<HashMap<(TypeId, usize), Pool>>,
    hits: AtomicU64,
    misses: AtomicU64,
    footprint: AtomicU64,
    peak: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
}

/// Pool size class of a requested length: the next power of two.
fn size_class(len: usize) -> usize {
    len.next_power_of_two().max(1)
}

impl ArenaInner {
    fn take_vec<T: Default + Clone + Send + 'static>(self: &Arc<Self>, len: usize) -> Vec<T> {
        let class = size_class(len);
        let key = (TypeId::of::<T>(), class);
        let class_bytes = (class * std::mem::size_of::<T>()) as u64;
        let live = self.live.fetch_add(class_bytes, Ordering::Relaxed) + class_bytes;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
        let recycled = self
            .pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&key)
            .and_then(Vec::pop);
        let mut data: Vec<T> = match recycled {
            Some((_, boxed)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *boxed
                    .downcast::<Vec<T>>()
                    .expect("arena pool type confusion")
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let bytes = (class * std::mem::size_of::<T>()) as u64;
                let footprint = self.footprint.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.peak.fetch_max(footprint, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        };
        // Recycled buffers must look freshly allocated: drop stale
        // contents and default-fill the requested length.
        data.clear();
        data.resize(len, T::default());
        data
    }

    fn put_back<T: Send + 'static>(&self, class: usize, data: Vec<T>) {
        let class_bytes = (class * std::mem::size_of::<T>()) as u64;
        self.live.fetch_sub(class_bytes, Ordering::Relaxed);
        self.pools
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((TypeId::of::<T>(), class))
            .or_default()
            .push((class_bytes, Box::new(data)));
    }
}

/// A size-class pooling allocator for device buffers — the substitution
/// for a CUDA memory pool. Cheap to clone (all clones share the pools).
///
/// Buffers are handed out as [`PooledBuf`] values that return themselves
/// to the pool on drop; a `take` of the same element type and size class
/// then reuses the allocation (counted as a *hit*). Requested lengths are
/// rounded up to the next power of two, so close-but-unequal round sizes
/// (e.g. shrinking active-window tables) still pool together.
#[derive(Clone, Default)]
pub struct BufferArena {
    inner: Arc<ArenaInner>,
}

impl BufferArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-initialized (`T::default()`-filled) buffer of `len`
    /// elements, recycling a pooled allocation of the same size class when
    /// one is available.
    pub fn take<T: Default + Clone + Send + 'static>(&self, len: usize) -> PooledBuf<T> {
        PooledBuf {
            class: size_class(len),
            data: self.inner.take_vec(len),
            arena: Arc::clone(&self.inner),
        }
    }

    /// Returns the arena's counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            peak_bytes: self.inner.peak.load(Ordering::Relaxed),
            footprint_bytes: self.inner.footprint.load(Ordering::Relaxed),
            live_bytes: self.inner.live.load(Ordering::Relaxed),
            peak_live_bytes: self.inner.peak_live.load(Ordering::Relaxed),
        }
    }

    /// Frees every idle pooled buffer, shrinking the footprint to what is
    /// checked out right now. For a caller that knows the workload that
    /// filled the pools is over and a differently shaped one follows —
    /// the next `take`s allocate fresh instead of stacking on top of
    /// buffers nothing will ask for again.
    pub fn trim(&self) {
        let pools = std::mem::take(
            &mut *self
                .inner
                .pools
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let freed: u64 = pools.values().flatten().map(|(bytes, _)| bytes).sum();
        self.inner.footprint.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Zeroes hit/miss counters and rebases the peak to the current
    /// footprint. Pools are left intact.
    pub(crate) fn reset_counters(&self) {
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.misses.store(0, Ordering::Relaxed);
        self.inner.peak.store(
            self.inner.footprint.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.inner
            .peak_live
            .store(self.inner.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl fmt::Debug for BufferArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferArena")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// An owned, arena-backed buffer. Dereferences to `[T]`; the allocation
/// goes back to its arena's pool when the buffer is dropped.
pub struct PooledBuf<T: Send + 'static> {
    data: Vec<T>,
    /// Pool size class (the capacity the buffer was allocated with).
    class: usize,
    arena: Arc<ArenaInner>,
}

impl<T: Send + 'static> PooledBuf<T> {
    /// Length of the buffer in elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }
}

impl<T: Send + 'static> Deref for PooledBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Send + 'static> DerefMut for PooledBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Send + 'static> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        self.arena
            .put_back(self.class, std::mem::take(&mut self.data));
    }
}

impl<T: Default + Clone + Send + 'static> Clone for PooledBuf<T> {
    fn clone(&self) -> Self {
        let mut data: Vec<T> = self.arena.take_vec(self.data.len());
        data.clone_from_slice(&self.data);
        PooledBuf {
            class: size_class(data.len()),
            data,
            arena: Arc::clone(&self.arena),
        }
    }
}

impl<T: fmt::Debug + Send + 'static> fmt::Debug for PooledBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.data, f)
    }
}

impl<T: PartialEq + Send + 'static> PartialEq for PooledBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<T: Eq + Send + 'static> Eq for PooledBuf<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_within_size_class() {
        let arena = BufferArena::new();
        {
            let mut a = arena.take::<u64>(100);
            a[0] = 42;
        }
        let b = arena.take::<u64>(128); // class 128, same as next_pow2(100)
        assert!(b.iter().all(|&w| w == 0));
        let s = arena.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.peak_bytes, 128 * 8);
    }

    #[test]
    fn distinct_types_do_not_alias() {
        let arena = BufferArena::new();
        drop(arena.take::<u64>(8));
        let _b = arena.take::<u32>(8); // different element type: a miss
        assert_eq!(arena.stats().misses, 2);
    }

    #[test]
    fn peak_tracks_live_and_pooled_bytes() {
        let arena = BufferArena::new();
        let a = arena.take::<u8>(1024);
        let b = arena.take::<u8>(1024);
        drop(a);
        drop(b);
        // Both buffers idle in the pool: footprint (and peak) stay 2 KiB.
        assert_eq!(arena.stats().footprint_bytes, 2048);
        assert_eq!(arena.stats().peak_bytes, 2048);
        let _c = arena.take::<u8>(1000);
        assert_eq!(arena.stats().hits, 1);
        assert_eq!(arena.stats().peak_bytes, 2048, "reuse adds no footprint");
    }

    #[test]
    fn trim_frees_idle_buffers_only() {
        let arena = BufferArena::new();
        let held = arena.take::<u8>(1024);
        drop(arena.take::<u8>(4096));
        assert_eq!(arena.stats().footprint_bytes, 5120);
        arena.trim();
        assert_eq!(arena.stats().footprint_bytes, 1024, "the live buffer stays");
        assert_eq!(arena.stats().peak_bytes, 5120);
        let _again = arena.take::<u8>(4096);
        assert_eq!(arena.stats().misses, 3, "the trimmed class allocates fresh");
        drop(held);
        assert_eq!(arena.stats().footprint_bytes, 5120);
    }

    #[test]
    fn live_bytes_shrink_on_drop_but_peak_live_remembers() {
        let arena = BufferArena::new();
        drop(arena.take::<u8>(1024));
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_live_bytes, 1024);
        let _b = arena.take::<u8>(512);
        assert_eq!(arena.stats().live_bytes, 512);
        assert_eq!(arena.stats().peak_live_bytes, 1024);
        // Footprint-based peak never shrinks (the 1024-class buffer
        // still idles in its pool next to the live 512-class one); the
        // live peak rebases to what is actually held.
        arena.reset_counters();
        assert_eq!(arena.stats().peak_live_bytes, 512);
        assert_eq!(arena.stats().peak_bytes, 1536);
    }

    #[test]
    fn clone_goes_through_the_pool() {
        let arena = BufferArena::new();
        let a = arena.take::<u16>(16);
        drop(arena.take::<u16>(16)); // leaves one pooled buffer behind
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert_eq!(arena.stats().hits, 1, "clone recycled the pooled buffer");
    }
}
