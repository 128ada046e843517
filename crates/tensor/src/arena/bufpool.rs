//! A bounded, size-keyed pool of reusable `f32` buffers: one shard of the
//! tensor arena.
//!
//! Buffers are shelved by capacity in a `BTreeMap`, so a request can be
//! served by the smallest retained buffer that already fits it
//! ([`BufferPool::try_take`]) without ever shrinking a large buffer to
//! satisfy a small request.
//!
//! The pool is bounded both by buffer count and by retained bytes; recycling
//! past either bound evicts smaller shelved buffers or frees the newcomer
//! (see [`BufferPool::recycle`]). Contents of a recycled
//! buffer are preserved as-is (its `len` is whatever the previous owner left
//! behind), so callers must clear/resize before use.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shelf of recycled `Vec<f32>` buffers, keyed by capacity.
pub struct BufferPool {
    shelves: Mutex<BTreeMap<usize, Vec<Vec<f32>>>>,
    max_buffers: usize,
    max_bytes: usize,
    retained_buffers: AtomicUsize,
    retained_bytes: AtomicUsize,
}

impl BufferPool {
    /// A pool retaining at most `max_buffers` buffers and `max_bytes` bytes.
    pub const fn new(max_buffers: usize, max_bytes: usize) -> Self {
        BufferPool {
            shelves: Mutex::new(BTreeMap::new()),
            max_buffers,
            max_bytes,
            retained_buffers: AtomicUsize::new(0),
            retained_bytes: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, Vec<Vec<f32>>>> {
        self.shelves.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Pop a recycled buffer whose capacity is at least `len`, preferring
    /// the smallest fit. Contents are arbitrary; `len()` is whatever the
    /// previous owner left.
    pub fn try_take(&self, len: usize) -> Option<Vec<f32>> {
        let mut shelves = self.lock();
        let cap = *shelves.range(len..).next().map(|(c, _)| c)?;
        self.pop_from(&mut shelves, cap)
    }

    fn pop_from(&self, shelves: &mut BTreeMap<usize, Vec<Vec<f32>>>, cap: usize) -> Option<Vec<f32>> {
        let shelf = shelves.get_mut(&cap)?;
        let buf = shelf.pop()?;
        if shelf.is_empty() {
            shelves.remove(&cap);
        }
        self.retained_buffers.fetch_sub(1, Ordering::Relaxed);
        self.retained_bytes.fetch_sub(cap * std::mem::size_of::<f32>(), Ordering::Relaxed);
        Some(buf)
    }

    /// Return a buffer to the pool. When a bound would be exceeded, makes
    /// room by evicting strictly smaller shelved buffers (the cheapest to
    /// re-allocate) so the shelves track the current working set when the
    /// mix of shapes changes over a run; if the pool is full of buffers at
    /// least this large, the newcomer is the least valuable and is freed.
    pub fn recycle(&self, buf: Vec<f32>) {
        let cap = buf.capacity();
        let bytes = cap * std::mem::size_of::<f32>();
        if cap == 0 || bytes > self.max_bytes {
            return;
        }
        let mut shelves = self.lock();
        while self.retained_buffers.load(Ordering::Relaxed) >= self.max_buffers
            || self.retained_bytes.load(Ordering::Relaxed) + bytes > self.max_bytes
        {
            match shelves.keys().next().copied() {
                Some(smallest) if smallest < cap => {
                    self.pop_from(&mut shelves, smallest);
                }
                _ => return,
            }
        }
        self.retained_buffers.fetch_add(1, Ordering::Relaxed);
        self.retained_bytes.fetch_add(bytes, Ordering::Relaxed);
        shelves.entry(cap).or_default().push(buf);
    }

    /// Evict the smallest shelved buffer whose capacity is strictly below
    /// `cap`, returning the bytes freed (`None` when every shelved buffer
    /// is at least `cap`, i.e. more valuable than what the caller wants to
    /// make room for). This is the building block for byte budgets that
    /// span several pools — the sharded tensor arena keeps each shard's
    /// own bound slack and drives global eviction through this instead.
    pub fn evict_smaller_than(&self, cap: usize) -> Option<usize> {
        let mut shelves = self.lock();
        let smallest = *shelves.keys().next()?;
        if smallest >= cap {
            return None;
        }
        self.pop_from(&mut shelves, smallest)?;
        Some(smallest * std::mem::size_of::<f32>())
    }

    /// Bytes currently retained (capacity of every shelved buffer).
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes.load(Ordering::Relaxed)
    }

    /// Number of buffers currently retained.
    pub fn retained_buffers(&self) -> usize {
        self.retained_buffers.load(Ordering::Relaxed)
    }

    /// Drop every retained buffer.
    pub fn clear(&self) {
        let mut shelves = self.lock();
        shelves.clear();
        self.retained_buffers.store(0, Ordering::Relaxed);
        self.retained_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_fit_is_preferred() {
        let pool = BufferPool::new(8, usize::MAX);
        pool.recycle(Vec::with_capacity(1024));
        pool.recycle(Vec::with_capacity(64));
        let buf = pool.try_take(50).expect("a 64-capacity buffer fits 50");
        assert!(buf.capacity() >= 50 && buf.capacity() < 1024, "got {}", buf.capacity());
        // The big buffer is still shelved for bigger requests.
        assert!(pool.try_take(512).is_some());
        assert!(pool.try_take(1).is_none());
    }

    #[test]
    fn bounds_are_enforced() {
        let pool = BufferPool::new(1, usize::MAX);
        pool.recycle(Vec::with_capacity(16));
        pool.recycle(Vec::with_capacity(16)); // beyond max_buffers: freed
        assert_eq!(pool.retained_buffers(), 1);

        let tiny = BufferPool::new(8, 16);
        tiny.recycle(Vec::with_capacity(100)); // 400 bytes > 16-byte cap
        assert_eq!(tiny.retained_buffers(), 0);
    }

    #[test]
    fn full_pool_evicts_smaller_stale_buffers() {
        // Count bound: a newcomer displaces the smallest shelved buffer.
        let pool = BufferPool::new(2, usize::MAX);
        pool.recycle(Vec::with_capacity(32));
        pool.recycle(Vec::with_capacity(64));
        pool.recycle(Vec::with_capacity(1024));
        assert_eq!(pool.retained_buffers(), 2);
        assert!(pool.try_take(1024).is_some(), "the newcomer was shelved");
        assert!(pool.try_take(64).is_some(), "the larger incumbent survived");
        assert!(pool.try_take(1).is_none(), "the smallest incumbent was evicted");

        // Byte bound: same policy, driven by retained bytes.
        let pool = BufferPool::new(8, 4096);
        pool.recycle(Vec::with_capacity(512)); // 2048 bytes
        pool.recycle(Vec::with_capacity(1024)); // 4096 bytes: evicts the 512
        assert_eq!(pool.retained_buffers(), 1);
        assert!(pool.try_take(1024).is_some());
    }

    #[test]
    fn evict_smaller_than_frees_only_less_valuable_buffers() {
        let pool = BufferPool::new(8, usize::MAX);
        pool.recycle(Vec::with_capacity(32));
        pool.recycle(Vec::with_capacity(64));
        pool.recycle(Vec::with_capacity(1024));
        // Smallest-first, strictly below the threshold.
        assert_eq!(pool.evict_smaller_than(128), Some(32 * 4));
        assert_eq!(pool.evict_smaller_than(128), Some(64 * 4));
        assert_eq!(pool.evict_smaller_than(128), None, "the 1024 shelf is worth more");
        assert_eq!(pool.retained_buffers(), 1);
        assert_eq!(pool.evict_smaller_than(usize::MAX), Some(1024 * 4));
        assert_eq!(pool.evict_smaller_than(usize::MAX), None, "empty pool");
    }

    #[test]
    fn clear_frees_everything() {
        let pool = BufferPool::new(8, usize::MAX);
        pool.recycle(Vec::with_capacity(128));
        assert!(pool.retained_bytes() > 0);
        pool.clear();
        assert_eq!(pool.retained_bytes(), 0);
        assert!(pool.try_take(1).is_none());
    }
}
