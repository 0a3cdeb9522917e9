//! A counting `#[global_allocator]`: per-thread tallies of allocation
//! calls and bytes, so the serial chain can charge each timed call with
//! exactly the allocations it made, whatever other threads are doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and `Cell<u64>` need neither lazy
    // initialisation nor a destructor, so touching these from inside the
    // allocator can never allocate or recurse.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs`: the system allocator plus the
/// per-thread tallies.
pub struct CountingAlloc;

fn tally(bytes: usize) {
    // `try_with` because the allocator also runs while a thread's TLS is
    // being torn down; those calls are simply not counted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies only touch
// thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (alloc + alloc_zeroed + realloc) and bytes requested
/// by the calling thread since it started.
pub fn thread_tally() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}
