//! Sealed, immutable event segments.
//!
//! The [`EventStore`](super::EventStore) is a chain of these plus one
//! actively-written head. Each segment carries its sequence range and
//! its time range, so a query decides in O(1) whether the segment can
//! hold a match at all, and a *directory column*: each distinct parent
//! directory of its events once, and a small directory id per event. A
//! prefix query sorts the directories once into all, none and
//! test-each, skips the segment when none can match, and otherwise
//! touches only the events filed under a candidate directory.

use super::prefix::{dir_of, DirClass, PathPrefix};
use super::PreparedQuery;
use crate::aggregator::SequencedEvent;
use sdci_types::SimTime;
use std::hash::{BuildHasher, RandomState};

/// Most distinct directories a segment indexes. A segment whose events
/// lie in more keeps no column, and a prefix query tests its events one
/// by one.
const DIR_CAP: usize = 512;

/// Slots of the build's open-addressing table: a power of two, at most
/// half full at [`DIR_CAP`].
const DIR_SLOTS: usize = 2 * DIR_CAP;

/// One distinct directory of a segment: spelled by the first `len` bytes
/// of event `event`'s path, and holding `count` of the segment's events.
#[derive(Debug, Clone, Copy, Default)]
struct Dir {
    event: u32,
    len: u32,
    count: u32,
}

/// The directory column: an index over the events, not a copy of them.
#[derive(Debug)]
struct DirColumn {
    dirs: Box<[Dir]>,
    /// Index into `dirs`, per event.
    ids: Box<[u16]>,
}

/// An immutable run of sequence-ordered events.
///
/// Segments are built once (when the head seals) and never mutated;
/// readers share them by `Arc`, so queries scan them without holding
/// any store lock.
#[derive(Debug)]
pub(crate) struct Segment {
    events: Vec<SequencedEvent>,
    first_seq: u64,
    last_seq: u64,
    min_time: SimTime,
    max_time: SimTime,
    bytes: u64,
    /// `None` when the events lie in more than [`DIR_CAP`] directories.
    column: Option<DirColumn>,
}

impl Segment {
    /// Seals `events` (must be non-empty and sequence-ordered) into an
    /// immutable segment, computing its index metadata.
    pub(crate) fn build(events: Vec<SequencedEvent>) -> Segment {
        debug_assert!(!events.is_empty(), "segments are never empty");
        debug_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let mut min_time = SimTime::MAX;
        let mut max_time = SimTime::EPOCH;
        let mut bytes = 0u64;
        for sev in &events {
            min_time = min_time.min(sev.event.time);
            max_time = max_time.max(sev.event.time);
            bytes += sev.event.footprint_bytes() as u64;
        }
        Segment {
            first_seq: events.first().map_or(0, |e| e.seq),
            last_seq: events.last().map_or(0, |e| e.seq),
            min_time,
            max_time,
            bytes,
            column: DirColumn::build(&events),
            events,
        }
    }

    /// The sealed events, sequence-ordered.
    pub(crate) fn events(&self) -> &[SequencedEvent] {
        &self.events
    }

    /// Number of events (including any the store has logically trimmed).
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Smallest sequence number in the segment.
    pub(crate) fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Largest sequence number in the segment.
    pub(crate) fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Earliest event time in the segment.
    pub(crate) fn min_time(&self) -> SimTime {
        self.min_time
    }

    /// Latest event time in the segment.
    pub(crate) fn max_time(&self) -> SimTime {
        self.max_time
    }

    /// Total footprint of the segment's events.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Where `query`'s candidates start: past `after_seq`, and no
    /// earlier than `lo` (the store's trim offset). `None` when the
    /// sequence or time range rules the whole segment out.
    fn start(&self, query: &PreparedQuery<'_>, lo: usize) -> Option<usize> {
        let after = query.after.unwrap_or(0);
        if self.last_seq <= after || query.since.is_some_and(|since| self.max_time < since) {
            return None;
        }
        Some(self.events.partition_point(|e| e.seq <= after).max(lo))
    }

    /// At least as many events as `query` can take from this segment,
    /// from index `lo` on: the events past `after_seq`, or, for a prefix
    /// query over a column, those filed under a candidate directory.
    pub(crate) fn candidates(&self, query: &PreparedQuery<'_>, lo: usize) -> usize {
        let Some(start) = self.start(query, lo) else { return 0 };
        let rest = self.events.len().saturating_sub(start);
        match (&query.prefix, &self.column) {
            (Some(prefix), Some(column)) => {
                let mut classes = [DirClass::None; DIR_CAP];
                column.classify(&self.events, prefix, &mut classes);
                let filed = column.dirs.iter().zip(&classes);
                let under: usize = filed
                    .filter(|(_, &class)| class != DirClass::None)
                    .map(|(dir, _)| dir.count as usize)
                    .sum();
                under.min(rest)
            }
            _ => rest,
        }
    }

    /// Appends this segment's matches for `query` to `out`, starting no
    /// earlier than index `lo` (the store's trim offset) and stopping at
    /// the query's limit.
    pub(crate) fn collect_into(
        &self,
        query: &PreparedQuery<'_>,
        lo: usize,
        out: &mut Vec<SequencedEvent>,
    ) {
        let Some(start) = self.start(query, lo) else { return };
        let events = &self.events[start..];
        let (Some(prefix), Some(column)) = (&query.prefix, &self.column) else {
            query.collect(events, out);
            return;
        };
        let mut classes = [DirClass::None; DIR_CAP];
        if !column.classify(&self.events, prefix, &mut classes) {
            return;
        }
        for (sev, &id) in events.iter().zip(&column.ids[start..]) {
            if out.len() >= query.limit {
                return;
            }
            let hit = match classes[id as usize] {
                DirClass::None => false,
                DirClass::All => query.since.is_none_or(|since| sev.event.time >= since),
                DirClass::TestEach => query.matches(sev),
            };
            if hit {
                out.push(sev.clone());
            }
        }
    }
}

impl DirColumn {
    /// Files every event under its directory (see [`dir_of`]), without
    /// copying a path: a directory is kept as the place of its spelling in
    /// its first event's path. `None` past [`DIR_CAP`] directories. Makes
    /// two allocations, the exact-size id and directory arrays.
    fn build(events: &[SequencedEvent]) -> Option<DirColumn> {
        u32::try_from(events.len()).ok()?;
        // Slot `s` holds a directory's index + 1; 0 is empty.
        let mut slots = [0u16; DIR_SLOTS];
        let keys = RandomState::new();
        let mut dirs = [Dir::default(); DIR_CAP];
        let mut len = 0;
        let mut ids = Vec::with_capacity(events.len());
        for (i, sev) in events.iter().enumerate() {
            let dir = dir_of(sev.event.path.as_str());
            let mut slot = slot_of(&keys, dir);
            let id = loop {
                match slots[slot] {
                    0 if len == DIR_CAP => return None,
                    0 => {
                        dirs[len] = Dir { event: i as u32, len: dir.len() as u32, count: 0 };
                        len += 1;
                        slots[slot] = len as u16;
                        break len - 1;
                    }
                    taken => {
                        let id = taken as usize - 1;
                        if spelling(events, dirs[id]) == dir {
                            break id;
                        }
                        slot = (slot + 1) % DIR_SLOTS;
                    }
                }
            };
            dirs[id].count += 1;
            ids.push(id as u16);
        }
        Some(DirColumn { dirs: dirs[..len].into(), ids: ids.into_boxed_slice() })
    }

    /// Sorts each directory of `events` (the segment's) into `classes`
    /// against `prefix`; `false` when none can hold a match.
    fn classify(
        &self,
        events: &[SequencedEvent],
        prefix: &PathPrefix<'_>,
        classes: &mut [DirClass; DIR_CAP],
    ) -> bool {
        let mut any = false;
        for (class, &dir) in classes.iter_mut().zip(self.dirs.iter()) {
            *class = prefix.classify(spelling(events, dir));
            any |= *class != DirClass::None;
        }
        any
    }
}

/// The spelling of `dir` among `events`.
fn spelling(events: &[SequencedEvent], dir: Dir) -> &str {
    &events[dir.event as usize].event.path.as_str()[..dir.len as usize]
}

/// A directory's home slot: the top bits of its hash under `keys`, which
/// are random per table, since directory names come from outside the
/// program and could be chosen to collide.
fn slot_of(keys: &RandomState, dir: &str) -> usize {
    (keys.hash_one(dir) >> (64 - DIR_SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreQuery;
    use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex};

    fn ev(seq: u64, secs: u64, path: &str) -> SequencedEvent {
        SequencedEvent {
            seq,
            event: FileEvent {
                index: seq,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: SimTime::from_secs(secs),
                path: path.into(),
                src_path: None,
                target: Fid::new(1, seq as u32, 0),
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
        }
    }

    fn seqs(seg: &Segment, query: &StoreQuery, lo: usize) -> Vec<u64> {
        let mut out = Vec::new();
        seg.collect_into(&query.prepare(), lo, &mut out);
        out.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn metadata_and_column_reflect_contents() {
        let seg = Segment::build(vec![ev(5, 50, "/a/x"), ev(7, 20, "/b/y"), ev(9, 70, "/a/z")]);
        assert_eq!(seg.first_seq(), 5);
        assert_eq!(seg.last_seq(), 9);
        assert_eq!(seg.min_time(), SimTime::from_secs(20));
        assert_eq!(seg.max_time(), SimTime::from_secs(70));
        let column = seg.column.as_ref().expect("two directories");
        assert_eq!(column.dirs.len(), 2);
        assert_eq!(&*column.ids, &[0, 1, 0]);
        assert_eq!(spelling(&seg.events, column.dirs[1]), "/b");
        assert_eq!(column.dirs[0].count, 2);
    }

    #[test]
    fn a_query_skips_by_seq_time_and_directory() {
        let seg = Segment::build(vec![ev(5, 50, "/a/x"), ev(9, 70, "/a/z")]);
        let candidates = |q: StoreQuery| seg.candidates(&q.prepare(), 0);
        assert_eq!(candidates(StoreQuery::after_seq(9)), 0);
        assert_eq!(candidates(StoreQuery::after_seq(8)), 1);
        assert_eq!(candidates(StoreQuery::since(SimTime::from_secs(71))), 0);
        assert_eq!(candidates(StoreQuery::since(SimTime::from_secs(70))), 2);
        assert_eq!(candidates(StoreQuery::default().under("/b")), 0);
        assert_eq!(candidates(StoreQuery::default().under("/a")), 2);
        assert_eq!(candidates(StoreQuery::default().under("/")), 2);
        // The directory that is the prefix's parent is tested event by
        // event: a path may be the prefix itself.
        assert_eq!(candidates(StoreQuery::default().under("/a/x")), 2);
        assert_eq!(seqs(&seg, &StoreQuery::default().under("/a/x"), 0), vec![5]);
        assert!(seqs(&seg, &StoreQuery::default().under("/a/y"), 0).is_empty());
    }

    #[test]
    fn a_segment_past_the_directory_cap_keeps_no_column_and_still_answers() {
        let events: Vec<_> =
            (1..=(DIR_CAP as u64 + 2)).map(|i| ev(i, i, &format!("/r{i}/f"))).collect();
        let seg = Segment::build(events);
        assert!(seg.column.is_none());
        assert!(seqs(&seg, &StoreQuery::default().under("/nowhere"), 0).is_empty());
        assert_eq!(seqs(&seg, &StoreQuery::default().under("/r7"), 0), vec![7]);
        let at_cap: Vec<_> = (1..=DIR_CAP as u64).map(|i| ev(i, i, &format!("/r{i}/f"))).collect();
        assert_eq!(Segment::build(at_cap).column.map(|c| c.dirs.len()), Some(DIR_CAP));
    }

    #[test]
    fn collect_respects_trim_and_limit() {
        let seg = Segment::build((1..=10).map(|i| ev(i, i, "/d/f")).collect());
        assert_eq!(seqs(&seg, &StoreQuery::default(), 2), (3..=10).collect::<Vec<_>>());
        assert_eq!(seqs(&seg, &StoreQuery::after_seq(4).limit(2), 0), vec![5, 6]);
        assert_eq!(seqs(&seg, &StoreQuery::after_seq(4).under("/d").limit(2), 6), vec![7, 8]);
    }
}
