//! A counting global allocator for the traced pass.
//!
//! Counting is off unless [`set_counting`] turned it on, so the end-to-end
//! passes pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The system allocator plus two counters.
pub struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed` is
// enough even with the shard workers allocating concurrently.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is an allocation to whoever pays for it.
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the counters are process-wide and `cargo test`
    // runs tests on parallel threads.
    #[test]
    fn counts_only_while_switched_on() {
        let off_before = counted();
        let v: Vec<u64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        // Other test threads never switch counting on, so "off" is exact.
        assert_eq!(counted(), off_before, "nothing is counted while off");

        set_counting(true);
        let (a0, b0) = counted();
        let mut w: Vec<u8> = Vec::with_capacity(100);
        std::hint::black_box(&mut w);
        w.reserve_exact(1000);
        std::hint::black_box(&w);
        let (a1, b1) = counted();
        set_counting(false);
        // Other threads may allocate too while counting is on: lower bounds.
        assert!(a1 - a0 >= 2, "the allocation and the regrow are counted");
        assert!(b1 - b0 >= 100 + 1000, "requested bytes are counted");
    }
}
