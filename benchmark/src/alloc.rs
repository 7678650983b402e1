//! A counting allocator, so `*_bytes_per_triple` are exact byte counts
//! that repeat from run to run instead of resident-set deltas that depend
//! on what the allocator happened to have free.
//!
//! Counting is off except inside [`retained_by`]: while off, the only cost
//! on the allocation path is one relaxed load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while counting was on. A statistic:
/// it publishes no other data, so relaxed ordering suffices.
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by this allocator, that is by
        // `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `build` and returns its value with the bytes of heap it left
/// allocated (temporaries it freed again cancel out). Not reentrant, and
/// other threads' allocations during the call are counted too — the layer
/// drive calls it with nothing else running.
pub fn retained_by<R>(build: impl FnOnce() -> R) -> (R, i64) {
    LIVE.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let value = build();
    ENABLED.store(false, Ordering::SeqCst);
    (value, LIVE.load(Ordering::Relaxed))
}
