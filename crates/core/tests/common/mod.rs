//! What the allocation-count test binaries share: a counting
//! `#[global_allocator]` with a per-thread tally (as
//! `benchmark/src/alloc.rs` keeps), which charges each test only with
//! what its own thread allocated, and a warm Collector whose every
//! record hits the path cache, or misses it.

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

/// A Collector warmed by one round of [`RECORDS`] creates over its
/// directories: every metric is registered and the Collector's own
/// buffers — its path cache's included — have grown.
pub struct HotCollector {
    fs: Arc<parking_lot::Mutex<LustreFs>>,
    dirs: usize,
    pub sink: Sink,
    pub collector: Collector<Sink>,
}

impl HotCollector {
    /// Over [`DIRS`] directories it has cached: every record hits.
    pub fn new() -> HotCollector {
        HotCollector::over(DIRS, MonitorConfig::default())
    }

    /// Over twice as many directories as its full cache holds, created
    /// round-robin: every record misses, and its parent's path evicts the
    /// least recently used one. Every directory's path has one length.
    #[allow(dead_code)] // not every test binary that shares this module uses it
    pub fn missing() -> HotCollector {
        HotCollector::over(
            2 * DIRS,
            MonitorConfig { path_cache_capacity: DIRS, ..MonitorConfig::default() },
        )
    }

    fn over(dirs: usize, config: MonitorConfig) -> HotCollector {
        let fs = Arc::new(parking_lot::Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let sink = Sink(Arc::new(Mutex::new(Vec::with_capacity(RECORDS + 2 * dirs))));
        let collector = Collector::new(Arc::clone(&fs), MdtIndex::new(0), sink.clone(), config);
        {
            let mut guard = fs.lock();
            for d in 0..dirs {
                guard.mkdir(format!("/dir{d:04}"), SimTime::EPOCH).expect("mkdir");
            }
        }
        let mut hot = HotCollector { fs, dirs, sink, collector };
        hot.round(0);
        hot
    }

    /// Creates [`RECORDS`] files named for `round`, round-robin over the
    /// directories, empties the sink, and returns the allocation calls
    /// the Collector makes draining them into it.
    pub fn round(&mut self, round: usize) -> u64 {
        {
            let mut guard = self.fs.lock();
            for n in 0..RECORDS {
                let path = format!("/dir{:04}/file-{round}-{n:04}", n % self.dirs);
                guard.create(path, SimTime::from_secs(n as u64)).expect("create");
            }
        }
        self.sink.0.lock().expect("sink lock").clear();
        allocations(|| while self.collector.run_once() > 0 {})
    }
}
