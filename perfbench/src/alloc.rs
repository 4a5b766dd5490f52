//! A counting global allocator: live heap bytes, kept per thread.
//!
//! Each thread adds and subtracts its own allocations on a counter of its
//! own (one cache line each), so threads never contend on one shared
//! counter in a timed loop. [`live_bytes`] sums the counters. A block
//! freed by another thread than the one that allocated it makes one
//! counter go down and another up; the sum stays exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Counters available; a process with more threads shares them round
/// robin (still exact, only no longer contention-free).
const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot(AtomicIsize);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Slot = Slot(AtomicIsize::new(0));
static COUNTERS: [Slot; SLOTS] = [ZERO; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn counter() -> &'static AtomicIsize {
    let slot = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        // During thread teardown the slot is gone; fall back to slot 0.
        .unwrap_or(0);
    &COUNTERS[slot].0
}

/// The benchmark binary's global allocator: the system allocator plus
/// per-thread live-byte counts.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics (relaxed atomics) and do not affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            counter().fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            counter().fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        counter().fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            counter().fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

/// Live heap bytes of the whole process: the sum of every thread's count.
pub fn live_bytes() -> i64 {
    COUNTERS
        .iter()
        .map(|c| c.0.load(Ordering::Relaxed) as i64)
        .sum()
}
