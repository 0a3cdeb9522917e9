//! Allocation budgets for the per-event paths the pipeline benchmark
//! found allocating most: the Collector on a path-cache hit and on a
//! miss, the store
//! sealing a segment and rotating at capacity, the store answering a query (exact counts), and the member
//! sequence the aggregator's legs carry, coded (the frame decoders' are
//! in `crates/net/tests/alloc_budget.rs`). The counting allocator
//! is `common/mod.rs`'s; `trace_budget.rs` holds the tracer's budget in
//! a process of its own.

mod common;

use common::{allocations, HotCollector, DIRS, RECORDS};
use sdci_core::{EventBackend, EventStore, FeedMessage, SequencedEvent, StoreQuery, StoreStack};
use sdci_types::bin::{
    code_members, put_member, put_members, read_members, BinPayload, BinReader, SeqEncoder,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, PathStaging, SimTime};
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn collector_allocates_per_batch_not_per_event_on_a_cache_hit() {
    let mut hot = HotCollector::new();
    let warm = hot.collector.stats();

    let made = hot.round(1);

    let stats = hot.collector.stats();
    assert_eq!(stats.published - warm.published, RECORDS as u64);
    assert_eq!(stats.cache_hits - warm.cache_hits, RECORDS as u64, "every record hit the cache");
    let published = hot.sink.0.lock().expect("sink lock");
    assert_eq!(published.len(), RECORDS);
    let per_event = made as f64 / RECORDS as f64;
    assert!(
        per_event <= 0.1,
        "{made} allocations for {RECORDS} cache-hit records = {per_event:.3} per event; \
         a batch's paths share one arena, so the budget is a few per batch"
    );
    // The batch is published sealed: every path reads, and batch-mates
    // share their arena.
    assert!(published.iter().all(|e| e.path.starts_with("/") && e.path.file_name().is_some()));
    assert!(published[0].path.shares_arena(&published[1].path));
}

#[test]
fn collector_allocates_per_batch_not_per_event_on_a_cache_miss() {
    let mut cold = HotCollector::missing();
    let warm = cold.collector.stats();

    let made = cold.round(1);

    let stats = cold.collector.stats();
    assert_eq!(stats.fid2path_calls - warm.fid2path_calls, RECORDS as u64, "every record missed");
    assert_eq!(stats.cache_hits, warm.cache_hits);
    assert_eq!(stats.published - warm.published, RECORDS as u64);
    let published = cold.sink.0.lock().expect("sink lock");
    assert!(published.iter().all(|e| e.path.starts_with("/") && e.path.file_name().is_some()));
    // `fid2path` writes into the Collector's one buffer and the cache
    // copies from it into the evicted entry's buffer, so a miss costs
    // what a hit does: each batch's path arena, nothing per event.
    assert_eq!(
        made, MISS_ROUND_ALLOCATIONS,
        "allocations to resolve {RECORDS} records, each through fid2path into a full cache"
    );
}

/// What [`HotCollector::missing`]'s first round after its warm-up
/// allocates: each of its 16 batches of 256 records seals an exact-size
/// copy of the bytes joined in the Collector's staging, which the warm-up
/// grew to its longest batch, into a slot of an arena group; every eighth
/// opens a group, whose header is the round's other two allocations. A
/// hit costs the same (the rounds after are 18 either way).
const MISS_ROUND_ALLOCATIONS: u64 = 16 + 2;

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
fn sealing_a_segment_allocates_per_segment_not_per_directory() {
    const EVENTS: u64 = 2_048;
    let events = sequenced(EVENTS);
    let store = EventStore::with_segment_size(1 << 20, EVENTS as usize);

    let made = allocations(|| store.insert_batch(events).expect("ascending seqs"));

    assert_eq!(store.len(), EVENTS as usize);
    // The head growing to 2,048 events (ten), the sealed event array, the
    // directory column's id and directory arrays, the segment's `Arc` and
    // the chain's first slot: nothing per directory.
    assert_eq!(
        made, SEAL_ALLOCATIONS,
        "allocations to insert and seal {EVENTS} events over {DIRS} directories; the \
         column keeps each directory as the place of its spelling in an event's path"
    );
}

/// What inserting and sealing [`sequenced`]`(2_048)` allocates.
const SEAL_ALLOCATIONS: u64 = 15;

#[test]
fn rotating_a_full_store_allocates_nothing_per_batch() {
    const SEGMENT: usize = 1_024;
    const CAPACITY: usize = 4 * SEGMENT;
    const BATCH: usize = 256;
    let store = EventStore::with_segment_size(CAPACITY, SEGMENT);
    let events = sequenced((2 * CAPACITY + SEGMENT) as u64);
    let mut batches: Vec<Vec<SequencedEvent>> = events.chunks(BATCH).map(<[_]>::to_vec).collect();
    let measured = batches.split_off(2 * CAPACITY / BATCH);
    // Full, then one whole rotation cycle: the head and the chain's
    // slots are at their steady-state size.
    for batch in batches {
        store.insert_batch(batch).expect("ascending seqs");
    }
    let before = store.stats();

    let made = allocations(|| {
        for batch in measured {
            store.insert_batch(batch).expect("ascending seqs");
        }
    });

    let stats = store.stats();
    assert_eq!(store.len(), CAPACITY);
    assert_eq!(stats.rotated - before.rotated, SEGMENT as u64, "one segment's worth rotated out");
    assert_eq!(stats.segments, before.segments, "the sealed segment replaced the dropped one");
    assert_eq!(
        made, STEADY_SEAL_ALLOCATIONS,
        "allocations to insert {SEGMENT} events into a full store in batches of {BATCH}; \
         rotation trims the chain's front and drops whole segments in place"
    );
}

/// What one seal in a store at steady state allocates: the sealed event
/// array, the directory column's two arrays and the segment's `Arc`.
const STEADY_SEAL_ALLOCATIONS: u64 = 4;

#[test]
fn a_seal_past_the_directory_cap_allocates_no_column() {
    const SEGMENT: usize = 1_024;
    // Every event in a directory of its own: each seal meets 1,024
    // directories, past the 512 a segment indexes.
    let mut events = sequenced(2 * SEGMENT as u64);
    for sev in &mut events {
        sev.event.path = format!("/dir{:05}/file", sev.seq).into();
    }
    let measured = events.split_off(SEGMENT);
    let store = EventStore::with_segment_size(1 << 20, SEGMENT);
    // The first seal grows the head, the store's id scratch and the chain.
    store.insert_batch(events).expect("ascending seqs");

    let made = allocations(|| store.insert_batch(measured).expect("ascending seqs"));

    assert_eq!(store.stats().segments, 2);
    assert_eq!(
        made, 2,
        "allocations to insert and seal {SEGMENT} events over {SEGMENT} directories: the \
         sealed event array and the segment's `Arc`; the ids are assigned in the store's \
         scratch and never copied out"
    );
    let hits = store.query(&StoreQuery::after_seq(0).under("/dir01500"));
    assert_eq!(hits.iter().map(|e| e.seq).collect::<Vec<_>>(), [1_500], "answers without one");
}

#[test]
fn the_metrics_wrapper_adds_no_allocation_to_an_insert() {
    const EVENTS: usize = 256;
    // Stamped, as a Collector's events are. The first batch grows the
    // head and registers whatever the path registers lazily.
    let insert = |store: Arc<dyn EventBackend>| {
        let mut warm_up = sequenced(2 * EVENTS as u64);
        for sev in &mut warm_up {
            sev.event.extracted_unix_ns = Some(sev.seq);
        }
        let measured = warm_up.split_off(EVENTS);
        store.insert_batch(warm_up).expect("ascending seqs");
        let made = allocations(|| store.insert_batch(measured).expect("ascending seqs"));
        assert_eq!(store.len(), 2 * EVENTS);
        made
    };

    let bare = insert(StoreStack::segmented(1 << 20).build());
    let metered = insert(StoreStack::segmented(1 << 20).metered("alloc_budget_store").build());

    assert!(
        metered <= bare,
        "{metered} allocations to insert {EVENTS} events through the metrics wrapper, {bare} \
         without it; the wrapper counts a batch with one add and copies nothing out of it"
    );
}

/// `store.query(query)` and the allocations it made.
fn query_allocations(store: &EventStore, query: &StoreQuery) -> (Vec<SequencedEvent>, u64) {
    let mut hits = Vec::new();
    let made = allocations(|| hits = store.query(query));
    (hits, made)
}

#[test]
fn a_query_hit_costs_a_reference_count_not_a_path() {
    const EVENTS: u64 = 1_024;
    // Sealed segments and an unsealed head both answer.
    let store = EventStore::with_segment_size(1 << 20, 300);
    store.insert_batch(sequenced(EVENTS)).expect("ascending seqs");

    let (hits, made) = query_allocations(&store, &StoreQuery::after_seq(0));

    assert_eq!(hits.len(), EVENTS as usize);
    let retained = store.recent(1);
    assert!(hits[1_023].event.path.shares_arena(&retained[0].event.path));
    assert_eq!(
        made, 1,
        "allocations to return {EVENTS} retained events: the answer, sized once; the chain is \
         read through one shared reference count"
    );
}

#[test]
fn a_prefix_query_allocates_its_answer_once() {
    // 32 segments of 2,048 events over 64 directories, as a backfill
    // window: a directory holds 1,024 of them.
    const EVENTS: u64 = 65_536;
    let store = EventStore::with_segment_size(1 << 20, 2_048);
    store.insert_batch(sequenced(EVENTS)).expect("ascending seqs");

    let (hits, made) = query_allocations(&store, &StoreQuery::after_seq(0).under("/root07"));

    assert_eq!(hits.len(), 1_024);
    assert!(hits.iter().all(|e| e.event.path.starts_with("/root07/sub")));
    assert_eq!(hits.capacity(), 1_024, "sized by the directory column's count");
    assert_eq!(
        made, 1,
        "allocations to return 1,024 hits under a canonical prefix: the answer, sized once"
    );
}

#[test]
fn an_unlimited_query_reserves_no_more_than_the_store_holds() {
    const EVENTS: u64 = 1_024;
    let store = EventStore::with_segment_size(1 << 20, 300);
    store.insert_batch(sequenced(EVENTS)).expect("ascending seqs");

    for query in [
        StoreQuery::after_seq(0).limit(usize::MAX),
        StoreQuery::after_seq(1_000).limit(usize::MAX),
        StoreQuery::default().under("/root07").limit(usize::MAX),
    ] {
        let (hits, made) = query_allocations(&store, &query);
        assert!(
            hits.capacity() <= store.len() && hits.capacity() - hits.len() <= 300,
            "{query:?}: {} hits in room for {}",
            hits.len(),
            hits.capacity()
        );
        assert_eq!(made, 1, "{query:?}: the answer, sized once");
    }
}

/// A member sequence of each kind the aggregator's legs carry — events,
/// sequenced events, feed messages with a heartbeat among them — coded
/// class by class, as every data frame's packer codes it: each member
/// written raw through one coding `SeqEncoder`, which tags each byte with
/// its class, then `code_members`. Through an encoder, a member buffer
/// and a body buffer warm from the same sequence, it allocates nothing —
/// the tags reuse their buffer, and the histograms, codes and codeword
/// tables all live on the stack; read back, it costs exactly what the
/// same members raw do, its lookup tables living in the reader.
#[test]
fn a_coded_sequence_of_each_kind_allocates_what_a_raw_one_does() {
    let mut sequenced = sequenced(256);
    for sev in &mut sequenced {
        sev.event.extracted_unix_ns = Some(1_790_000_000_123_456_789);
    }
    let events: Vec<FileEvent> = sequenced.iter().map(|sev| sev.event.clone()).collect();
    let mut feed: Vec<FeedMessage> = sequenced.iter().cloned().map(FeedMessage::Event).collect();
    feed.insert(100, FeedMessage::Heartbeat { last_seq: 100 });
    coded_costs_what_raw_does("events", &events);
    coded_costs_what_raw_does("sequenced events", &sequenced);
    coded_costs_what_raw_does("feed messages", &feed);
}

fn coded_costs_what_raw_does<T: BinPayload + PartialEq + std::fmt::Debug>(
    kind: &str,
    members: &[T],
) {
    let mut raw = Vec::new();
    put_members(&mut raw, members);
    let (mut seq, mut section, mut coded) = (SeqEncoder::for_coding(), Vec::new(), Vec::new());
    let mut code = || {
        seq.begin(false);
        section.clear();
        for (i, member) in members.iter().enumerate() {
            put_member(&mut section, member, &members[..i], &mut seq);
        }
        coded.clear();
        code_members(&mut coded, 0, members.len(), &section, &mut seq)
    };
    code();
    let (mask, made) = {
        let mut mask = 0;
        let made = allocations(|| mask = code());
        (mask, made)
    };
    assert_eq!(made, 0, "{kind}: {made} allocations to code a sequence through a warm encoder");
    assert_ne!(mask, 0, "{kind}: goes out coded");
    assert!(coded.len() < raw.len(), "{kind}: {} coded bytes, {} raw", coded.len(), raw.len());

    let read = |bytes: &[u8], coded: bool| {
        let mut r = BinReader::new(bytes);
        if coded {
            r.read_codes().expect("codes");
        }
        let members =
            r.read_staged(&mut PathStaging::default(), read_members::<T>).expect("decodes");
        assert!(r.is_empty());
        members
    };
    let (mut from_raw, mut from_coded) = (Vec::new(), Vec::new());
    let raw_made = allocations(|| from_raw = read(&raw, false));
    let coded_made = allocations(|| from_coded = read(&coded, true));
    assert_eq!(coded_made, raw_made, "{kind}: coded {coded_made} allocations, raw {raw_made}");
    assert_eq!((from_raw.as_slice(), from_coded.as_slice()), (members, members), "{kind}");
}

#[test]
fn a_full_path_cache_allocates_nothing_of_its_own() {
    // All three indexes live in the entry table, and each slot keeps its
    // path buffer, so once the table has grown to capacity and its
    // buffers to the longest path, an evicting insert copies into the
    // victim's buffer and allocates nothing — which is what lets a
    // miss-heavy run's allocation count repeat exactly whatever the
    // names are.
    const CAPACITY: usize = 512;
    const PAD: &str = "-padding-to-vary";
    let fid = |n: usize| Fid::new(0x200, n as u32, 0);
    // Lengths go up and down by up to 16 bytes from one path to the next.
    let path = |n: usize, pad: usize| format!("/pool/{:02}/dir{n:05}{}", n * 7 % 31, &PAD[..pad]);
    let mut cache = sdci_core::PathCache::new(CAPACITY);
    for n in 0..CAPACITY {
        cache.insert(fid(n), path(n, PAD.len()));
    }
    let by_str: Vec<String> = (CAPACITY..3 * CAPACITY).map(|n| path(n, n * 5 % 17)).collect();
    let by_path: Vec<PathBuf> = by_str.iter().map(PathBuf::from).collect();
    let mut read_back = Vec::with_capacity(by_str.len());

    let made = allocations(|| {
        for (n, (spelled, path)) in by_str.iter().zip(&by_path).enumerate() {
            let key = fid(CAPACITY + n);
            if n % 2 == 0 {
                cache.insert(key, spelled.as_str());
            } else {
                cache.insert(key, path.as_path());
            }
            read_back.push(cache.get(key).map(|p| p.as_os_str().len()));
            std::hint::black_box(cache.get(fid(CAPACITY + n / 2)));
            if n % 64 == 0 {
                cache.invalidate_prefix(std::path::Path::new("/pool/07"));
            }
        }
    });

    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.evictions > 0 && stats.invalidations > 0, "{stats:?}");
    assert_eq!(made, 0, "inserts by &str and &Path, hits, evictions and a rename's subtree drop");
    let lengths: Vec<Option<usize>> = by_str.iter().map(|s| Some(s.len())).collect();
    assert_eq!(read_back, lengths, "each path reads back at its own length, with no stale tail");
    for (n, spelled) in by_str.iter().enumerate().rev().take(CAPACITY / 4) {
        if let Some(cached) = cache.get(fid(CAPACITY + n)) {
            assert_eq!(cached.as_os_str(), spelled.as_str(), "slot reused from a longer path");
        }
    }
}
