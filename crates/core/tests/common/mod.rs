//! What the allocation-count test binaries share: a counting
//! `#[global_allocator]` with a per-thread tally (as
//! `benchmark/src/alloc.rs` keeps), which charges each test only with
//! what its own thread allocated, and a Collector whose every record
//! hits the path cache.

use lustre_sim::{LustreConfig, LustreFs};
use sdci_core::{Collector, MonitorConfig};
use sdci_mq::transport::{Publish, PublishOutcome};
use sdci_types::{FileEvent, MdtIndex, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

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
pub fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// A publisher that keeps what it is given, in a buffer sized up front.
#[derive(Clone)]
pub struct Sink(pub Arc<Mutex<Vec<FileEvent>>>);

impl Publish<FileEvent> for Sink {
    fn publish(&self, _topic: &str, payload: FileEvent) -> PublishOutcome {
        self.0.lock().expect("sink lock").push(payload);
        PublishOutcome::Delivered
    }
}

pub const DIRS: usize = 64;
pub const RECORDS: usize = 4_096;

/// A Collector over [`DIRS`] directories it has already cached, warmed
/// by one round of [`RECORDS`] creates: every metric is registered and
/// the Collector's own buffers have grown.
pub struct HotCollector {
    fs: Arc<parking_lot::Mutex<LustreFs>>,
    pub sink: Sink,
    pub collector: Collector<Sink>,
}

impl HotCollector {
    pub fn new() -> HotCollector {
        let fs = Arc::new(parking_lot::Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let sink = Sink(Arc::new(Mutex::new(Vec::with_capacity(RECORDS + 2 * DIRS))));
        let collector = Collector::new(
            Arc::clone(&fs),
            MdtIndex::new(0),
            sink.clone(),
            MonitorConfig::default(),
        );
        {
            let mut guard = fs.lock();
            for d in 0..DIRS {
                guard.mkdir(format!("/dir{d:02}"), SimTime::EPOCH).expect("mkdir");
            }
        }
        let mut hot = HotCollector { fs, sink, collector };
        hot.round(0);
        hot
    }

    /// Creates [`RECORDS`] files named for `round`, empties the sink,
    /// and returns the allocation calls the Collector makes draining
    /// them into it.
    pub fn round(&mut self, round: usize) -> u64 {
        {
            let mut guard = self.fs.lock();
            for n in 0..RECORDS {
                let path = format!("/dir{:02}/file-{round}-{n:04}", n % DIRS);
                guard.create(path, SimTime::from_secs(n as u64)).expect("create");
            }
        }
        self.sink.0.lock().expect("sink lock").clear();
        allocations(|| while self.collector.run_once() > 0 {})
    }
}
