//! A counting `#[global_allocator]`: exact heap allocations and bytes,
//! so per-chunk allocation cost is reported as a count, not a timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two relaxed counters in front of it. The
/// counters publish no other data (they are statistics read by the one
/// thread that also allocates), hence `Relaxed`.
#[derive(Debug)]
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters do not touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one more trip to the allocator; count the bytes added.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the counter too (see `main.rs`), but other
    // tests allocate concurrently, so assert lower bounds that a single
    // thread's known sequence must contribute.
    #[test]
    fn counts_a_known_vec_push_sequence() {
        let (a0, b0) = snapshot();
        let mut v: Vec<u64> = Vec::with_capacity(4); // 1 alloc, 32 bytes
        for i in 0..4 {
            v.push(i); // within capacity: no allocator traffic
        }
        let (a1, b1) = snapshot();
        assert!(a1 - a0 >= 1);
        assert!(b1 - b0 >= 32);
        v.push(4); // growth: one realloc adding at least 8 bytes
        let (a2, b2) = snapshot();
        assert!(a2 - a1 >= 1);
        assert!(b2 - b1 >= 8);
        assert_eq!(v.len(), 5);
        drop(v); // frees are not counted
    }
}
