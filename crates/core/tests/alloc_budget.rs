//! Allocation budgets for the per-event paths the pipeline benchmark
//! found allocating most: the Collector on a path-cache hit, the store
//! sealing a segment, and the store answering a query (the decoders'
//! are in `crates/net/tests/alloc_budget.rs`). A counting `#[global_allocator]` with a
//! per-thread tally (as `benchmark/src/alloc.rs` keeps) charges each
//! test only with what its own thread allocated.

use lustre_sim::{LustreConfig, LustreFs};
use sdci_core::{Collector, EventStore, MonitorConfig, SequencedEvent, StoreQuery};
use sdci_mq::transport::{Publish, PublishOutcome};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
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
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// A publisher that keeps what it is given, in a buffer sized up front.
#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<FileEvent>>>);

impl Publish<FileEvent> for Sink {
    fn publish(&self, _topic: &str, payload: FileEvent) -> PublishOutcome {
        self.0.lock().expect("sink lock").push(payload);
        PublishOutcome::Delivered
    }
}

const DIRS: usize = 64;
const RECORDS: usize = 4_096;

#[test]
fn collector_allocates_per_batch_not_per_event_on_a_cache_hit() {
    let fs = Arc::new(parking_lot::Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let sink = Sink(Arc::new(Mutex::new(Vec::with_capacity(RECORDS + 2 * DIRS))));
    let mut collector =
        Collector::new(Arc::clone(&fs), MdtIndex::new(0), sink.clone(), MonitorConfig::default());
    let create = |round: usize| {
        let mut guard = fs.lock();
        for n in 0..RECORDS {
            let path = format!("/dir{:02}/file-{round}-{n:04}", n % DIRS);
            guard.create(path, SimTime::from_secs(n as u64)).expect("create");
        }
    };

    // Warm-up: the mkdirs fill the cache, and one full round of creates
    // registers every metric and grows the Collector's own buffers.
    {
        let mut guard = fs.lock();
        for d in 0..DIRS {
            guard.mkdir(format!("/dir{d:02}"), SimTime::EPOCH).expect("mkdir");
        }
    }
    create(0);
    while collector.run_once() > 0 {}
    sink.0.lock().expect("sink lock").clear();
    let warm = collector.stats();

    create(1);
    let made = allocations(|| while collector.run_once() > 0 {});

    let stats = collector.stats();
    assert_eq!(stats.published - warm.published, RECORDS as u64);
    assert_eq!(stats.cache_hits - warm.cache_hits, RECORDS as u64, "every record hit the cache");
    assert_eq!(sink.0.lock().expect("sink lock").len(), RECORDS);
    let per_event = made as f64 / RECORDS as f64;
    assert!(
        per_event <= 0.1,
        "{made} allocations for {RECORDS} cache-hit records = {per_event:.3} per event; \
         a batch's paths share one arena, so the budget is a few per batch"
    );
    // The batch is published sealed: every path reads, and batch-mates
    // share their arena.
    let published = sink.0.lock().expect("sink lock");
    assert!(published.iter().all(|e| e.path.starts_with("/") && e.path.file_name().is_some()));
    assert!(published[0].path.shares_arena(&published[1].path));
}

/// `count` events over [`DIRS`] roots, seqs from 1.
fn sequenced(count: u64) -> Vec<SequencedEvent> {
    (1..=count)
        .map(|seq| SequencedEvent {
            seq,
            event: FileEvent {
                index: seq,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: SimTime::from_secs(seq),
                path: format!("/root{:02}/sub/file{seq}", seq % DIRS as u64).into(),
                src_path: None,
                target: Fid::new(1, seq as u32, 0),
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
        })
        .collect()
}

#[test]
fn sealing_a_segment_allocates_per_root_not_per_event() {
    const EVENTS: u64 = 2_048;
    let events = sequenced(EVENTS);
    let store = EventStore::with_segment_size(1 << 20, EVENTS as usize);

    let made = allocations(|| store.insert_batch(events).expect("ascending seqs"));

    assert_eq!(store.len(), EVENTS as usize);
    let per_event = made as f64 / EVENTS as f64;
    assert!(
        per_event <= 0.1,
        "{made} allocations to insert and seal {EVENTS} events = {per_event:.3} per event; \
         the fingerprint owns one string per distinct root ({DIRS} here), not one per event"
    );
}

#[test]
fn a_query_hit_costs_a_reference_count_not_a_path() {
    const EVENTS: u64 = 1_024;
    // Sealed segments and an unsealed head both answer.
    let store = EventStore::with_segment_size(1 << 20, 300);
    store.insert_batch(sequenced(EVENTS)).expect("ascending seqs");

    let (hits, made) = {
        let mut hits = Vec::new();
        let made = allocations(|| hits = store.query(&StoreQuery::after_seq(0)));
        (hits, made)
    };

    assert_eq!(hits.len(), EVENTS as usize);
    let retained = store.recent(1);
    assert!(hits[1_023].event.path.shares_arena(&retained[0].event.path));
    let per_event = made as f64 / EVENTS as f64;
    assert!(
        per_event <= 0.05,
        "{made} allocations to return {EVENTS} retained events = {per_event:.3} per event; \
         the budget is the result `Vec` growing"
    );
}

#[test]
fn a_full_path_cache_allocates_nothing_of_its_own() {
    // All three indexes live in the entry table, so once it has grown
    // to capacity an evicting insert keeps the path it is handed and
    // allocates nothing else — which is what lets a miss-heavy run's
    // allocation count repeat exactly whatever the names are.
    const CAPACITY: usize = 512;
    let fid = |n: usize| Fid::new(0x200, n as u32, 0);
    let path = |n: usize| PathBuf::from(format!("/pool/{:02}/dir{n:05}", n * 7 % 31));
    let mut cache = sdci_core::PathCache::new(CAPACITY);
    for n in 0..CAPACITY {
        cache.insert(fid(n), path(n));
    }
    let fresh: Vec<PathBuf> = (CAPACITY..3 * CAPACITY).map(path).collect();

    let made = allocations(|| {
        for (n, path) in fresh.into_iter().enumerate() {
            cache.insert(fid(CAPACITY + n), path);
            std::hint::black_box(cache.get(fid(CAPACITY + n / 2)));
            if n % 64 == 0 {
                cache.invalidate_prefix(std::path::Path::new("/pool/07"));
            }
        }
    });

    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.evictions > 0 && stats.invalidations > 0, "{stats:?}");
    assert_eq!(made, 0, "inserts, hits, evictions and a rename's subtree drop");
}
