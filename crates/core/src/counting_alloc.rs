//! A counting global allocator for allocation-regression tests and
//! benchmark reports.
//!
//! The hot-loop guarantees of this engine (filter, probe and group-update
//! steady states allocate O(1) per batch, not O(rows)) are behavioural
//! claims about the *allocator*, not about wall-clock time — so they are
//! tested by counting allocations directly. [`CountingAlloc`] forwards to
//! the system allocator and bumps two process-global counters on every
//! `alloc`/`realloc`: the number of calls, and the bytes requested
//! (`layout.size()` for `alloc`, `new_size` for `realloc`). The byte
//! counter is what catches a copy: an O(n) clone may be one allocation
//! but is n bytes.
//!
//! This module only defines the type and the counter; nothing happens
//! unless a downstream **binary or integration-test crate** registers it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mera_core::counting_alloc::CountingAlloc =
//!     mera_core::counting_alloc::CountingAlloc;
//! ```
//!
//! Registration is deliberately left to those leaf crates (a library must
//! not impose a global allocator on its users).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every `alloc`/`realloc`
/// and the bytes each one requests.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged; the
        // caller's obligations (nonzero size) are exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `self.alloc`, which forwards to
        // `System`, so it is a `System` allocation with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` obligations are forwarded
        // verbatim to the caller via the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations made so far (0 if [`CountingAlloc`] is not the
/// registered global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations performed while running `f`.
///
/// Only meaningful single-threaded with [`CountingAlloc`] registered;
/// concurrent allocations from other threads are attributed to `f`.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// Total bytes requested so far (0 if [`CountingAlloc`] is not the
/// registered global allocator).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes requested while running `f`, with the same single-threaded
/// caveat as [`allocations_during`].
pub fn allocated_bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocated_bytes();
    let out = f();
    (allocated_bytes() - before, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the allocator directly (it is not registered in this test
    /// binary, so nothing else moves the counters).
    #[test]
    fn counting_alloc_counts_calls_and_bytes() {
        let small = Layout::from_size_align(64, 8).expect("valid layout");
        let large = Layout::from_size_align(128, 8).expect("valid layout");
        let (calls, bytes) = (allocation_count(), allocated_bytes());
        // SAFETY: `small` has nonzero size; the block is written only
        // within its 64 bytes, grown by `realloc` with the layout it was
        // allocated with, and freed with the grown layout.
        unsafe {
            let p = CountingAlloc.alloc(small);
            assert!(!p.is_null());
            p.write_bytes(7, small.size());
            let q = CountingAlloc.realloc(p, small, large.size());
            assert!(!q.is_null());
            assert_eq!(*q.add(63), 7);
            CountingAlloc.dealloc(q, large);
        }
        assert_eq!(allocation_count() - calls, 2);
        assert_eq!(allocated_bytes() - bytes, 64 + 128);
        let (n, v) = allocated_bytes_during(|| 5);
        assert_eq!((n, v), (0, 5));
    }
}
