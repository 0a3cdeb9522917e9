//! Property tests for the monitor's data structures: the LRU path cache
//! against a reference model, the event store's queries against naive
//! filtering, and consumer gap recovery against arbitrary loss patterns.

use proptest::prelude::*;
use sdci_core::{
    restore_snapshot, EventBackend, EventConsumer, EventStore, FeedMessage, PathCache,
    SequencedEvent, SnapshotDir, StoreQuery, StoreStack,
};
use sdci_mq::pubsub::Broker;
use sdci_types::{ByteSize, ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new((seq % 4) as u32),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/p{}/f{seq}", seq % 3).into(),
            src_path: None,
            target: Fid::new(1, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

/// An event whose path is spelled by `choice` (see [`spelled`]): some are
/// directories, and some renames whose `src_path` lies under a prefix
/// their path does not — a query judges the path alone.
fn sev_at(seq: u64, choice: u16, wide: bool) -> SequencedEvent {
    let mut e = sev(seq);
    e.event.path = spelled(choice, wide).into();
    e.event.is_dir = choice.is_multiple_of(5);
    if choice % 16 == 9 {
        e.event.changelog_kind = ChangelogKind::Rename;
        e.event.kind = EventKind::Moved;
        e.event.src_path = Some(format!("/p0/sub/old{}", choice >> 4).into());
    }
    e
}

/// Path spellings a prefix test must judge exactly as `Path::starts_with`
/// does: nested directories, `//`, `/./`, a trailing `/`, `..`,
/// dotfiles, relative paths, the root, paths that *are* a prefix, and a
/// component that shares a prefix's bytes but not its name. `wide` files
/// three events in four under one of 16,384 directories, so a segment of
/// a thousand events lies in more directories than a segment indexes.
fn spelled(choice: u16, wide: bool) -> String {
    let n = choice >> 4;
    if wide && !choice.is_multiple_of(4) {
        return format!("/w/d{}/f", choice >> 2);
    }
    match choice % 16 {
        0 => format!("/p0/f{n}"),
        1 => format!("/p0/sub/f{n}"),
        2 => format!("/p0//sub/f{n}"),
        3 => format!("/p0/./f{n}"),
        4 => "/p0/sub/".to_string(),
        5 => format!("/p0/../p1/f{n}"),
        6 => format!("/p0/.hidden{}", n % 4),
        7 => "/p0".to_string(),
        8 => "/p0/sub".to_string(),
        9 => format!("/p1/f{n}"),
        10 => format!("/p00/f{n}"),
        11 => format!("p0/f{n}"),
        12 => format!("./p0/sub/f{n}"),
        13 => "/".to_string(),
        14 => format!("/w/d{}/f", n % 8),
        _ => format!("/p0/sub/deep{}/f{n}", n % 4),
    }
}

/// Prefixes a query may carry: empty, the root, relative, with a trailing
/// `/`, spelled with `//` or `/./`, the parent of a path, a path itself.
const PREFIXES: &[&str] = &[
    "",
    "/",
    "/p0",
    "/p0/",
    "p0",
    "./p0",
    "/p0/sub",
    "/p0//sub/",
    "/p0/./sub",
    "/p0/sub/f3",
    "/p0/..",
    "..",
    "/p1",
    "/p00",
    "/w",
    "/w/d5",
    "/p0/.hidden1",
    "/nowhere",
];

fn prefix_at(i: u8) -> &'static str {
    PREFIXES[i as usize % PREFIXES.len()]
}

/// Reference LRU: ordered vec of (fid, path), most recent last.
#[derive(Default)]
struct RefLru {
    entries: Vec<(Fid, PathBuf)>,
    capacity: usize,
}

impl RefLru {
    fn get(&mut self, fid: Fid) -> Option<PathBuf> {
        let pos = self.entries.iter().position(|(f, _)| *f == fid)?;
        let entry = self.entries.remove(pos);
        let path = entry.1.clone();
        self.entries.push(entry);
        Some(path)
    }

    fn insert(&mut self, fid: Fid, path: PathBuf) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(f, _)| *f == fid) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((fid, path));
    }
}

/// Naive reference model of the event store: one flat `VecDeque`,
/// linear-scan queries — the behavior the segmented store must match
/// exactly.
struct NaiveStore {
    events: std::collections::VecDeque<SequencedEvent>,
    capacity: usize,
    /// Events inserted since the store was made or restored.
    inserted: u64,
    /// Events rotated out since the store was made or restored.
    rotated: u64,
}

impl NaiveStore {
    fn new(capacity: usize) -> Self {
        NaiveStore {
            events: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            inserted: 0,
            rotated: 0,
        }
    }

    fn insert(&mut self, e: SequencedEvent) {
        self.events.push_back(e);
        self.inserted += 1;
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.rotated += 1;
        }
    }

    /// A restore at `capacity`: the newest events that fit are kept, and
    /// counted as the restored store's inserts.
    fn restore(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        let excess = self.events.len().saturating_sub(self.capacity);
        self.events.drain(..excess);
        self.inserted = self.events.len() as u64;
        self.rotated = 0;
    }

    /// The summed footprint of the retained events.
    fn bytes(&self) -> u64 {
        self.events.iter().map(|e| e.event.footprint_bytes() as u64).sum()
    }

    fn query(&self, q: &StoreQuery) -> Vec<SequencedEvent> {
        let limit = if q.limit == 0 { usize::MAX } else { q.limit };
        self.events
            .iter()
            .filter(|e| q.after_seq.is_none_or(|a| e.seq > a))
            .filter(|e| q.since.is_none_or(|s| e.event.time >= s))
            .filter(|e| q.path_prefix.as_ref().is_none_or(|p| e.event.path.starts_with(p)))
            .take(limit)
            .cloned()
            .collect()
    }

    fn recent(&self, n: usize) -> Vec<SequencedEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }
}

/// One step of the store/model equivalence drive.
#[derive(Debug, Clone)]
enum StoreOp {
    /// Insert a run of events (sequence numbers may skip ahead), their
    /// paths spelled from `path` on.
    Insert { count: u16, seq_step: u8, path: u16 },
    /// Compare an arbitrary query.
    Query { after_frac: u8, since_frac: u8, prefix: Option<u8>, limit: u8 },
    /// Compare the `recent` tail.
    Recent(u8),
    /// Snapshot the store and replace it with the restore, at half the
    /// capacity when `shrink`.
    Roundtrip { shrink: bool },
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (1u16..20, 1u8..3, any::<u16>())
            .prop_map(|(count, seq_step, path)| StoreOp::Insert { count, seq_step, path }),
        // Runs long enough to seal segments of a thousand events.
        1 => (600u16..800, Just(1u8), any::<u16>())
            .prop_map(|(count, seq_step, path)| StoreOp::Insert { count, seq_step, path }),
        4 => (any::<u8>(), any::<u8>(), prop::option::of(any::<u8>()), 0u8..30)
            .prop_map(|(after_frac, since_frac, prefix, limit)| StoreOp::Query {
                after_frac,
                since_frac,
                prefix,
                limit,
            }),
        2 => any::<u8>().prop_map(StoreOp::Recent),
        1 => any::<bool>().prop_map(|shrink| StoreOp::Roundtrip { shrink }),
    ]
}

/// A store's capacity and segment size: tiny segments for deep chains,
/// partial trims and whole-segment drops, or segments of a thousand
/// events, which a `wide` run spreads over more directories than a
/// segment indexes.
fn segment_shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        3 => (1usize..64, 1usize..8),
        1 => (1000usize..3000, Just(1000usize)),
    ]
}

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u8),
    Insert(u8),
    Invalidate(u8),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        3 => any::<u8>().prop_map(CacheOp::Get),
        3 => any::<u8>().prop_map(CacheOp::Insert),
        1 => any::<u8>().prop_map(CacheOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PathCache behaves exactly like a reference LRU over a small key
    /// universe (so evictions happen constantly).
    #[test]
    fn path_cache_matches_reference_lru(
        ops in prop::collection::vec(cache_op(), 1..200),
        capacity in 1usize..8,
    ) {
        let mut cache = PathCache::new(capacity);
        let mut reference = RefLru { capacity, ..RefLru::default() };
        let key = |k: u8| Fid::new(0x10, (k % 12) as u32, 0);
        let path = |k: u8| PathBuf::from(format!("/dir{}", k % 12));
        for op in ops {
            match op {
                CacheOp::Get(k) => {
                    prop_assert_eq!(cache.get(key(k)).map(Path::to_path_buf), reference.get(key(k)));
                }
                CacheOp::Insert(k) => {
                    cache.insert(key(k), path(k));
                    reference.insert(key(k), path(k));
                }
                CacheOp::Invalidate(k) => {
                    cache.invalidate(key(k));
                    reference.entries.retain(|(f, _)| *f != key(k));
                }
            }
            prop_assert_eq!(cache.len(), reference.entries.len());
        }
    }

    /// EventStore queries agree with naive filtering over the retained
    /// window — a linear `Path::starts_with` filter — for arbitrary query
    /// shapes over arbitrary path spellings, with segments of the default
    /// size and segments of a thousand events that lie in more
    /// directories than a segment indexes (`wide`).
    #[test]
    fn store_queries_match_naive_filter(
        paths in prop::collection::vec(any::<u16>(), 1..3000),
        capacity in 1usize..4000,
        wide in any::<bool>(),
        after_frac in any::<u8>(),
        since_frac in any::<u8>(),
        prefix in prop::option::of(any::<u8>()),
        limit in 0usize..2000,
    ) {
        let store = if wide {
            EventStore::with_segment_size(capacity, 1024)
        } else {
            EventStore::new(capacity)
        };
        let n = paths.len() as u64;
        let mut retained: std::collections::VecDeque<SequencedEvent> = Default::default();
        for (seq, &path) in (1..=n).zip(&paths) {
            let e = sev_at(seq, path, wide);
            store.insert(e.clone()).unwrap();
            retained.push_back(e);
            if retained.len() > capacity {
                retained.pop_front();
            }
        }
        let after = (after_frac as u64 * n) / 255;
        let since = SimTime::from_secs((since_frac as u64 * n) / 255);
        let mut query = StoreQuery::after_seq(after);
        query.since = Some(since);
        if let Some(p) = prefix {
            query = query.under(prefix_at(p));
        }
        query = query.limit(limit);

        let naive: Vec<SequencedEvent> = retained
            .iter()
            .filter(|e| e.seq > after)
            .filter(|e| e.event.time >= since)
            .filter(|e| prefix.is_none_or(|p| e.event.path.starts_with(prefix_at(p))))
            .take(if limit == 0 { usize::MAX } else { limit })
            .cloned()
            .collect();
        prop_assert_eq!(store.query(&query), naive);
    }

    /// Consumer recovery: publish only an arbitrary subset of events to
    /// the live feed (the rest "missed" at the HWM); as long as the
    /// store retains everything, the consumer still delivers the full
    /// dense sequence, in order, counting recovered events exactly. The
    /// store is a trait object, so the consumer's `R: EventBackend` is
    /// exercised through dynamic dispatch, not only through
    /// `SharedStore`.
    #[test]
    fn consumer_recovers_arbitrary_loss_patterns(
        n in 1u64..120,
        live_mask in prop::collection::vec(any::<bool>(), 120),
    ) {
        let broker: Broker<FeedMessage> = Broker::new(4096);
        let store: Arc<dyn EventBackend> = StoreStack::segmented(10_000).build();
        let mut consumer = EventConsumer::new(broker.subscribe(&[""]), Arc::clone(&store), 0);
        let publisher = broker.publisher();
        let mut live = 0u64;
        for seq in 1..=n {
            store.insert(sev(seq)).unwrap();
            if live_mask[(seq - 1) as usize] {
                publisher.publish("feed", FeedMessage::Event(sev(seq)));
                live += 1;
            }
        }
        // Ensure the final event reaches the feed so the consumer knows
        // how far to catch up.
        publisher.publish("feed", FeedMessage::Event(sev(n)));

        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        prop_assert_eq!(got, (1..=n).collect::<Vec<u64>>());
        let stats = consumer.stats();
        prop_assert_eq!(stats.delivered, n);
        prop_assert_eq!(stats.lost, 0);
        // Every event was delivered exactly once, either live or
        // recovered; at most `live + 1` came from the feed.
        prop_assert!(stats.recovered >= n.saturating_sub(live + 1));
        prop_assert!(stats.recovered < n || live == 0);
    }

    /// The segmented store is observationally identical to the naive
    /// VecDeque model under an arbitrary interleaving of batch inserts
    /// (with rotation), queries, `recent` reads, and snapshot/restore
    /// cycles through a `SnapshotDir`, some at half the capacity; its
    /// resident bytes and its insert and rotation counts match the
    /// model's after every step. Batches of up to three segments cross
    /// seals and the capacity bound at once. Tiny segment sizes force
    /// deep sealed chains, partial front-segment trims, and
    /// whole-segment drops (a restored store keeps its chain and seals
    /// at the default size);
    /// segments of a thousand events index their directories, or, in a
    /// `wide` run, lie in too many to. Paths are spelled every way a
    /// prefix test can misjudge (see [`spelled`]), and queries mix
    /// `after_seq`, `since`, every prefix of [`PREFIXES`] and `limit`.
    #[test]
    fn segmented_store_matches_naive_model(
        ops in prop::collection::vec(store_op(), 1..60),
        shape in segment_shape(),
        wide in any::<bool>(),
    ) {
        let (capacity, segment_events) = shape;
        let mut store = EventStore::with_segment_size(capacity, segment_events);
        let mut model = NaiveStore::new(capacity);
        let mut seq = 0u64;
        for op in ops {
            match op {
                StoreOp::Insert { count, seq_step, path } => {
                    let mut batch = Vec::new();
                    for i in 0..count {
                        seq += seq_step as u64;
                        let e = sev_at(seq, path.wrapping_add(i.wrapping_mul(7)), wide);
                        batch.push(e.clone());
                        model.insert(e);
                    }
                    for chunk in batch.chunks(3 * segment_events) {
                        store.insert_batch(chunk.to_vec()).unwrap();
                    }
                }
                StoreOp::Query { after_frac, since_frac, prefix, limit } => {
                    let mut q = StoreQuery::after_seq((after_frac as u64 * seq) / 255);
                    q.since = Some(SimTime::from_secs((since_frac as u64 * seq) / 255));
                    if let Some(p) = prefix {
                        q = q.under(prefix_at(p));
                    }
                    q = q.limit(limit as usize);
                    prop_assert_eq!(store.query(&q), model.query(&q));
                }
                StoreOp::Recent(n) => {
                    prop_assert_eq!(store.recent(n as usize), model.recent(n as usize));
                }
                StoreOp::Roundtrip { shrink } => {
                    let capacity = if shrink { model.capacity / 2 } else { model.capacity };
                    let dir = std::env::temp_dir()
                        .join(format!("sdci-prop-roundtrip-{}", std::process::id()));
                    let _ = std::fs::remove_dir_all(&dir);
                    SnapshotDir::open(&dir).unwrap().flush(&store, HashMap::new).unwrap();
                    store = restore_snapshot(&dir, capacity).unwrap().0;
                    let _ = std::fs::remove_dir_all(&dir);
                    model.restore(capacity);
                }
            }
            prop_assert_eq!(store.len(), model.events.len());
            prop_assert_eq!(store.first_seq(), model.events.front().map_or(0, |e| e.seq));
            prop_assert_eq!(store.last_seq(), seq);
            prop_assert_eq!(store.memory(), ByteSize::from_bytes(model.bytes()));
            let stats = store.stats();
            prop_assert_eq!(stats.inserted, model.inserted);
            prop_assert_eq!(stats.rotated, model.rotated);
        }
        prop_assert_eq!(
            store.query(&StoreQuery::default()),
            model.events.iter().cloned().collect::<Vec<_>>()
        );
    }

    /// Every backend behind the [`EventBackend`] trait — the segmented
    /// store bare and under its metrics wrapper — is observationally
    /// identical to the naive model under an arbitrary interleaving of
    /// trait-level batch inserts and queries: metering changes nothing
    /// about what a query returns.
    #[test]
    fn every_backend_matches_naive_model_through_the_trait(
        ops in prop::collection::vec(store_op(), 1..60),
        shape in segment_shape(),
        wide in any::<bool>(),
    ) {
        let (capacity, segment_events) = shape;
        let mut model = NaiveStore::new(capacity);
        let backends: Vec<(&str, Arc<dyn EventBackend>)> = vec![
            ("seg", Arc::new(EventStore::with_segment_size(capacity, segment_events))),
            (
                "stack",
                StoreStack::over(Arc::new(EventStore::with_segment_size(
                    capacity,
                    segment_events,
                )))
                .metered("sdci_prop_stack")
                .build(),
            ),
        ];
        let mut seq = 0u64;
        for op in ops {
            match op {
                StoreOp::Insert { count, seq_step, path } => {
                    let mut batch = Vec::new();
                    for i in 0..count {
                        seq += seq_step as u64;
                        let e = sev_at(seq, path.wrapping_add(i.wrapping_mul(7)), wide);
                        batch.push(e.clone());
                        model.insert(e);
                    }
                    for (name, backend) in &backends {
                        backend
                            .insert_batch(batch.clone())
                            .unwrap_or_else(|e| panic!("backend {name}: {e}"));
                    }
                }
                StoreOp::Query { after_frac, since_frac, prefix, limit } => {
                    let mut q = StoreQuery::after_seq((after_frac as u64 * seq) / 255);
                    q.since = Some(SimTime::from_secs((since_frac as u64 * seq) / 255));
                    if let Some(p) = prefix {
                        q = q.under(prefix_at(p));
                    }
                    q = q.limit(limit as usize);
                    let expected = model.query(&q);
                    for (name, backend) in &backends {
                        prop_assert_eq!(
                            backend.query(&q),
                            expected.clone(),
                            "backend {} disagrees with the model",
                            name
                        );
                    }
                }
                // `recent` and snapshot roundtrips are segmented-store
                // surface, not part of the trait; an interleaving that
                // drew them just advances to the next op.
                StoreOp::Recent(_) | StoreOp::Roundtrip { .. } => {}
            }
            for (name, backend) in &backends {
                prop_assert_eq!(backend.len(), model.events.len(), "backend {} len", name);
                prop_assert_eq!(backend.last_seq(), seq, "backend {} last_seq", name);
            }
        }
    }
}
