//! Allocation budgets for the simulated MDT's namespace operations: a
//! path lookup allocates nothing, and a `mkdir` allocates only what it
//! keeps. The counting allocator tallies per thread, as
//! `crates/core/tests/common/mod.rs`'s does, so each test is charged
//! only with what its own thread allocated.

use lustre_sim::{LustreConfig, LustreFs};
use sdci_types::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // A `const`-initialised `Cell<u64>` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls (alloc + alloc_zeroed + realloc) `f` makes on this
/// thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

fn lustre() -> LustreFs {
    LustreFs::new(LustreConfig::builder("alloc").mdt_count(1).build())
}

#[test]
fn fid_of_path_on_a_plain_depth_6_path_allocates_nothing() {
    let mut lfs = lustre();
    let deep = "/t0000001/x00001/x00002/x00003/x00004/x00005";
    let fid = lfs.mkdir_all(deep, SimTime::EPOCH).unwrap();
    let mut got = None;
    let made = allocations(|| got = Some(lfs.fid_of_path(deep)));
    assert_eq!(got, Some(Ok(fid)));
    // Measured: 0, against 5 when every lookup normalised a copy first.
    assert_eq!(made, 0, "a path with no `..` is walked in place");
    // A `..` detour is normalised into a copy first, and still resolves.
    let detour = "/t0000001/x00001/gone/../x00002/x00003/x00004/x00005";
    assert_eq!(lfs.fid_of_path(detour), Ok(fid));
}

/// What 10,000 `mkdir`s into a fanout-8 tree (the `resolve`
/// benchmark's shape) allocate per call: the new inode's name, its
/// entry key in the parent and its ChangeLog record's name (3), plus
/// the parents' B-tree nodes and the id tables' and ChangeLog's
/// doubling, amortised. Measured: 3.13 per call when `mkdir` walks its
/// path once in place, against 28.06 when it normalised the path into
/// fresh copies four times and built an op no observer read.
const MKDIR_ALLOCS_PER_CALL: f64 = 3.5;

#[test]
fn mkdir_allocates_only_what_it_keeps() {
    const CALLS: usize = 10_000;
    let mut lfs = lustre();
    let mut paths = Vec::with_capacity(CALLS);
    let mut level = vec![String::from("/t0000001")];
    lfs.mkdir(&level[0], SimTime::EPOCH).unwrap();
    while paths.len() < CALLS {
        let mut next = Vec::with_capacity(level.len() * 8);
        for parent in &level {
            for i in 0..8 {
                next.push(format!("{parent}/x{i:05x}"));
            }
        }
        paths.extend(next.iter().take(CALLS - paths.len()).cloned());
        level = next;
    }
    let made = allocations(|| {
        for path in &paths {
            lfs.mkdir(path, SimTime::EPOCH).unwrap();
        }
    });
    let per_call = made as f64 / CALLS as f64;
    assert!(
        per_call <= MKDIR_ALLOCS_PER_CALL,
        "{made} allocations for {CALLS} mkdirs = {per_call:.2} per call"
    );
    assert_eq!(lfs.fs().dir_count(), CALLS as u64 + 2);
}
