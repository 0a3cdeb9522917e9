//! The Aggregator's rotating event store — segmented and indexed.
//!
//! "The Aggregator ... store[s] the events in a local database ...
//! maintains this database and exposes an API to enable consumers to
//! retrieve historic events." (§4). The store is the source of the
//! monitor's fault tolerance: a consumer that disconnects (or detects a
//! gap in sequence numbers) queries it to catch up.
//!
//! Table 3 attributes the Aggregator's memory footprint to this store;
//! rotation bounds it ("in a production setting we could further limit
//! the size of this local store", §5.2).
//!
//! # Layout
//!
//! Internally the store is an actively-written **head** plus a chain of
//! sealed, immutable [`Segment`]s:
//!
//! ```text
//!  sealed chain (RwLock<Arc<Chain>>, copy-on-write)  head (Mutex)
//!  ┌─────────┐ ┌─────────┐ ┌─────────┐               ┌─────────────┐
//!  │ seg 1..k│ │seg k+1..│ │  ...    │  ──────────>  │ appends here│
//!  └─────────┘ └─────────┘ └─────────┘               └─────────────┘
//!    ▲ trim offset: rotation advances it; a fully-
//!      trimmed segment is dropped whole (O(1) amortized)
//! ```
//!
//! An insert, one event or a batch, checks the sequence order, appends
//! to the head (sealing it wherever it fills) and then rotates the
//! excess over capacity out once, under one chain write lock; a restore
//! re-applies a smaller capacity through the same trim.
//!
//! Every segment carries its sequence range, its time range, and a
//! directory column (each distinct parent directory once, a small id per
//! event), so a query binary-searches to the first candidate segment,
//! skips segments that cannot overlap, and within a segment touches only
//! the events filed under a directory its prefix can match — query cost
//! scales with the result, not the window. Each answer is allocated
//! once, sized by what the store can return. Ingest serializes on the
//! head lock; all counters are atomics, so every read path takes
//! `&self`.
//!
//! The sealed chain is a copy-on-write value. A reader clones the one
//! `Arc` to it under the read lock and scans that snapshot with no lock
//! held; a writer (a seal, a rotation) changes it through
//! [`Arc::make_mut`]. With no snapshot live the write happens in place
//! and allocates nothing; a write that meets a live snapshot copies the
//! chain's few dozen segment pointers once, after which the store owns
//! its chain alone again and the snapshot keeps reading what it took.
//!
//! Crash recovery is incremental: [`SnapshotDir`] flushes each sealed
//! segment to its own file exactly once and rewrites only the manifest
//! and the head per flush (see [`snapshot`](self) internals);
//! [`restore_snapshot`] reads that directory back. There is no other
//! serialised form of a store.

mod backend;
mod layers;
mod prefix;
mod segment;
mod snapshot;

pub use backend::{EventBackend, StoreError};
pub use layers::{MeteredBackend, StoreStack};
pub(crate) use prefix::is_plain;
pub use prefix::PathPrefix;
pub use snapshot::{restore_snapshot, FlushStats, SnapshotDir};

use crate::aggregator::SequencedEvent;
use parking_lot::{Mutex, RwLock};
use sdci_types::{ByteSize, SimTime};
use segment::Segment;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counters and gauges for an [`EventStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Events ever inserted.
    pub inserted: u64,
    /// Events rotated out at the capacity bound.
    pub rotated: u64,
    /// Queries served.
    pub queries: u64,
    /// Sealed segments currently in the chain (the head is excluded).
    pub segments: u64,
    /// Approximate bytes of retained events.
    pub resident_bytes: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inserted {} rotated {} queries {} segments {} resident {}",
            self.inserted,
            self.rotated,
            self.queries,
            self.segments,
            ByteSize::from_bytes(self.resident_bytes)
        )
    }
}

/// An insert that would break the store's sequence-order invariant.
///
/// The Aggregator assigns dense, increasing sequence numbers as it
/// inserts, so a violation means a corrupt snapshot or a buggy caller —
/// both are real errors, not `debug_assert!` material: a query's
/// binary searches silently misbehave on unsorted data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOrderError {
    /// The store's newest sequence number at the time of the insert.
    pub last_seq: u64,
    /// The out-of-order (or duplicate) sequence number offered.
    pub offered_seq: u64,
}

impl fmt::Display for StoreOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-order insert: offered seq {} but store is already at seq {}",
            self.offered_seq, self.last_seq
        )
    }
}

impl std::error::Error for StoreOrderError {}

/// A query against the store's retained window.
///
/// Serializable so `sdci-net` can carry it over the wire: a remote
/// consumer's backfill request is exactly this struct.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreQuery {
    /// Only events with sequence number > `after_seq`.
    pub after_seq: Option<u64>,
    /// Only events at or after this time.
    pub since: Option<SimTime>,
    /// Only events whose path starts with this prefix.
    pub path_prefix: Option<PathBuf>,
    /// At most this many results (0 = unlimited).
    pub limit: usize,
}

impl StoreQuery {
    /// Everything retained after sequence number `seq`.
    pub fn after_seq(seq: u64) -> Self {
        StoreQuery { after_seq: Some(seq), ..StoreQuery::default() }
    }

    /// Everything retained at or after `time`.
    pub fn since(time: SimTime) -> Self {
        StoreQuery { since: Some(time), ..StoreQuery::default() }
    }

    /// Restricts results to paths under `prefix`.
    pub fn under(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.path_prefix = Some(prefix.into());
        self
    }

    /// Caps the number of results.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = n;
        self
    }

    /// This query made ready to test events: its prefix spelled
    /// canonically once, its limit resolved. Remote readers use it to
    /// validate that a reply frame is a plausible answer to the query
    /// they actually sent — a stale reply replayed by a faulted link
    /// fails it and is discarded instead of being mis-correlated.
    pub fn prepare(&self) -> PreparedQuery<'_> {
        PreparedQuery {
            after: self.after_seq,
            since: self.since,
            prefix: self.path_prefix.as_deref().map(PathPrefix::new),
            limit: if self.limit == 0 { usize::MAX } else { self.limit },
        }
    }
}

/// A [`StoreQuery`] ready to test many events: made once per query by
/// [`StoreQuery::prepare`], so the prefix is spelled once, not once per
/// event.
#[derive(Debug, Clone)]
pub struct PreparedQuery<'q> {
    after: Option<u64>,
    since: Option<SimTime>,
    prefix: Option<PathPrefix<'q>>,
    /// The query's limit, `usize::MAX` for none.
    limit: usize,
}

impl PreparedQuery<'_> {
    /// Whether `ev` satisfies every constraint of the query but its
    /// limit.
    pub fn matches(&self, ev: &SequencedEvent) -> bool {
        self.after.is_none_or(|after| ev.seq > after)
            && self.since.is_none_or(|since| ev.event.time >= since)
            && self.prefix.as_ref().is_none_or(|prefix| prefix.matches(ev.event.path.as_str()))
    }

    /// Appends the matches among `events`, in order, until `out` holds
    /// the query's limit.
    fn collect<'e>(
        &self,
        events: impl IntoIterator<Item = &'e SequencedEvent>,
        out: &mut Vec<SequencedEvent>,
    ) {
        for sev in events {
            if out.len() >= self.limit {
                return;
            }
            if self.matches(sev) {
                out.push(sev.clone());
            }
        }
    }
}

/// The head's events past a query's `after_seq` when the query starts:
/// `len` of them, sequence numbers `first..=last`.
#[derive(Clone, Copy)]
struct HeadRange {
    first: u64,
    last: u64,
    len: usize,
}

/// The actively-written events, and the scratch a seal assembles its
/// segment's directory ids in: both kept under the head lock.
#[derive(Default)]
struct Head {
    events: VecDeque<SequencedEvent>,
    ids: Vec<u16>,
}

/// The sealed chain, oldest segment first. `trim` is the count of
/// events logically rotated out of the front segment; segments are
/// immutable, so rotation advances the offset and drops the segment
/// whole once it is fully trimmed. The store holds it behind an `Arc`
/// that readers share and writers [`Arc::make_mut`] (see the module
/// docs).
#[derive(Default, Clone)]
pub(crate) struct Chain {
    pub(crate) segs: VecDeque<Arc<Segment>>,
    pub(crate) trim: usize,
}

/// Rotates the `excess` oldest retained events out — the chain's front
/// first, by advancing `trim` and dropping each fully trimmed segment
/// whole, then the head's front — and returns their footprint. The one
/// capacity rule: ingest runs it once per insert, restore once.
fn rotate_out(chain: &mut Chain, head: &mut VecDeque<SequencedEvent>, mut excess: usize) -> u64 {
    let mut dropped = 0;
    while excess > 0 {
        let Some(front) = chain.segs.front() else { break };
        let take = excess.min(front.len() - chain.trim);
        dropped += if take == front.len() {
            front.bytes()
        } else {
            footprint(&front.events()[chain.trim..chain.trim + take])
        };
        excess -= take;
        chain.trim += take;
        if chain.trim == front.len() {
            chain.segs.pop_front();
            chain.trim = 0;
        }
    }
    dropped + head.drain(..excess).map(|e| e.event.footprint_bytes() as u64).sum::<u64>()
}

/// The summed footprint of `events`.
fn footprint<'e>(events: impl IntoIterator<Item = &'e SequencedEvent>) -> u64 {
    events.into_iter().map(|e| e.event.footprint_bytes() as u64).sum()
}

/// A bounded, rotating, in-memory event database ordered by sequence
/// number. All read paths take `&self`; a store shared as
/// [`SharedStore`] serves concurrent queries while ingest appends.
///
/// # Example
///
/// ```
/// use sdci_core::{EventStore, SequencedEvent, StoreQuery};
/// use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
///
/// let store = EventStore::new(1000);
/// store
///     .insert(SequencedEvent {
///         seq: 1,
///         event: FileEvent {
///             index: 1,
///             mdt: MdtIndex::new(0),
///             changelog_kind: ChangelogKind::Create,
///             kind: EventKind::Created,
///             time: SimTime::EPOCH,
///             path: "/data/run.h5".into(),
///             src_path: None,
///             target: Fid::ZERO,
///             is_dir: false,
///             extracted_unix_ns: None,
///             trace: None,
///         },
///     })
///     .unwrap();
/// let hits = store.query(&StoreQuery::after_seq(0).under("/data"));
/// assert_eq!(hits.len(), 1);
/// ```
pub struct EventStore {
    capacity: usize,
    segment_events: usize,
    head: Mutex<Head>,
    sealed: RwLock<Arc<Chain>>,
    last_seq: AtomicU64,
    len: AtomicUsize,
    bytes: AtomicU64,
    inserted: AtomicU64,
    rotated: AtomicU64,
    queries: AtomicU64,
}

impl fmt::Debug for EventStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventStore")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("segments", &self.sealed.read().segs.len())
            .field("memory", &self.memory())
            .finish()
    }
}

/// Default sealing threshold: aim for ~32 sealed segments per full
/// window, bounded so tiny stores stay single-run and huge stores keep
/// segments scan-friendly.
fn default_segment_events(capacity: usize) -> usize {
    (capacity / 32).clamp(64, 65_536)
}

impl EventStore {
    /// Creates a store retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self::with_segment_size(capacity, default_segment_events(capacity))
    }

    /// Creates a store that seals its head into an immutable segment
    /// every `segment_events` events. [`EventStore::new`] picks a
    /// sensible default; tests and benchmarks pin small sizes to force
    /// deep chains.
    pub fn with_segment_size(capacity: usize, segment_events: usize) -> Self {
        EventStore {
            capacity: capacity.max(1),
            segment_events: segment_events.max(1),
            head: Mutex::new(Head::default()),
            sealed: RwLock::new(Arc::default()),
            last_seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            rotated: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Inserts an event, rotating the oldest out at capacity.
    ///
    /// # Errors
    ///
    /// Events must arrive in strictly increasing sequence order (the
    /// Aggregator assigns sequence numbers as it inserts; numbering
    /// starts at 1). An out-of-order or duplicate sequence number is
    /// rejected with [`StoreOrderError`] and the store is unchanged.
    pub fn insert(&self, event: SequencedEvent) -> Result<(), StoreOrderError> {
        let mut head = self.head.lock();
        self.check(std::slice::from_ref(&event))?;
        self.append(&mut head, std::iter::once(event));
        Ok(())
    }

    /// Inserts a batch of events under one head-lock acquisition: the
    /// head seals wherever it fills, and rotation takes the chain's
    /// write lock and updates the counters once per batch (the ingest
    /// hot path for batched wire frames).
    ///
    /// # Errors
    ///
    /// The whole batch must continue the strictly increasing sequence
    /// order, internally and against the store; the first offending
    /// sequence is reported via [`StoreOrderError`] and the store is
    /// left entirely unchanged (all-or-nothing).
    pub fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreOrderError> {
        let mut head = self.head.lock();
        self.check(&events)?;
        self.append(&mut head, events);
        Ok(())
    }

    /// Validates that `events` continue the strictly increasing sequence
    /// order, up front, so a mid-batch violation cannot leave a prefix
    /// behind. Caller holds the head lock.
    fn check(&self, events: &[SequencedEvent]) -> Result<(), StoreOrderError> {
        let mut last = self.last_seq.load(Ordering::Relaxed);
        for event in events {
            if event.seq <= last {
                return Err(StoreOrderError { last_seq: last, offered_seq: event.seq });
            }
            last = event.seq;
        }
        Ok(())
    }

    /// Appends checked events to the head, sealing it whenever it
    /// reaches the segment target, then rotates the excess over capacity
    /// out in one [`rotate_out`]. Caller holds the head lock. (Occupancy
    /// gauges are the [`MeteredBackend`] layer's job, not the store's.)
    fn append(&self, head: &mut Head, events: impl IntoIterator<Item = SequencedEvent>) {
        let (mut added, mut bytes, mut last) = (0, 0, None);
        for event in events {
            added += 1;
            bytes += event.event.footprint_bytes() as u64;
            last = Some(event.seq);
            head.events.push_back(event);
            if head.events.len() >= self.segment_events {
                self.seal(head);
            }
        }
        let Some(last) = last else { return };
        let held = self.len.load(Ordering::Relaxed) + added;
        let excess = held.saturating_sub(self.capacity);
        let dropped = match excess {
            0 => 0,
            _ => rotate_out(Arc::make_mut(&mut self.sealed.write()), &mut head.events, excess),
        };
        self.last_seq.store(last, Ordering::Relaxed);
        self.len.store(held - excess, Ordering::Relaxed);
        self.bytes.store(self.bytes.load(Ordering::Relaxed) + bytes - dropped, Ordering::Relaxed);
        self.inserted.fetch_add(added as u64, Ordering::Relaxed);
        self.rotated.fetch_add(excess as u64, Ordering::Relaxed);
    }

    /// Seals the head into an immutable segment on the chain, built
    /// before the chain's write lock is taken.
    fn seal(&self, head: &mut Head) {
        if head.events.is_empty() {
            return;
        }
        // Sealing is in-memory and infallible, so an error-mode crash
        // point cannot propagate: escalate it to a panic (abort mode
        // never returns). Unarmed, this is one relaxed atomic load.
        if let Err(e) = sdci_faults::crash_point("store.seal") {
            panic!("{e}");
        }
        let segment = Arc::new(Segment::build(head.events.drain(..).collect(), &mut head.ids));
        Arc::make_mut(&mut self.sealed.write()).segs.push_back(segment);
    }

    /// Runs a query over the retained window, oldest first.
    ///
    /// The answer is allocated once, sized by what the store can return:
    /// the query's limit, or fewer when fewer events are retained past
    /// `after_seq` (for a prefix query, fewer filed under a directory it
    /// can match). Besides the answer it allocates nothing: the chain is
    /// one shared `Arc`, scanned without any store lock held, and a write
    /// meanwhile copies the chain, not the query. A segment whose
    /// sequence or time range cannot overlap, or with no directory under
    /// the prefix, is skipped, and the in-segment start position is
    /// binary-searched.
    ///
    /// Every event retained when the query starts is returned exactly
    /// once, if it matches and fits: the chain and the head's range are
    /// read together under the head lock, so each event is in exactly one
    /// of the two, and the head's range is collected last — from the head,
    /// or from the segment it sealed into meanwhile.
    pub fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let query = query.prepare();
        let after = query.after.unwrap_or(0);
        let (chain, head) = {
            let guard = self.head.lock();
            let events = &guard.events;
            let chain = Arc::clone(&self.sealed.read());
            let from = events.partition_point(|e| e.seq <= after);
            let range = events.get(from).zip(events.back()).map(|(first, last)| HeadRange {
                first: first.seq,
                last: last.seq,
                len: events.len() - from,
            });
            (chain, range)
        };
        let Chain { segs, trim } = &*chain;
        let start = segs.partition_point(|s| s.last_seq() <= after);
        let lo = |i: usize| if i == 0 { *trim } else { 0 };
        let mut size = head.map_or(0, |range| range.len);
        for (i, seg) in segs.iter().enumerate().skip(start) {
            if size >= query.limit {
                break;
            }
            size += seg.candidates(&query, lo(i));
        }
        let mut out = Vec::with_capacity(size.min(query.limit));
        for (i, seg) in segs.iter().enumerate().skip(start) {
            if out.len() >= query.limit {
                break;
            }
            seg.collect_into(&query, lo(i), &mut out);
        }
        match head {
            Some(range) if out.len() < query.limit => self.collect_head(&query, range, &mut out),
            _ => {}
        }
        out
    }

    /// Appends the matches among the head's events in `range`, taken when
    /// `query` started. They are still in the head unless it has sealed
    /// since; then they are in the segment it sealed into, which is
    /// scanned from the chain's snapshot outside the lock.
    fn collect_head(
        &self,
        query: &PreparedQuery<'_>,
        HeadRange { first, last, .. }: HeadRange,
        out: &mut Vec<SequencedEvent>,
    ) {
        let in_range = |e: &&SequencedEvent| e.seq <= last;
        let chain = {
            let guard = self.head.lock();
            let head = &guard.events;
            if head.front().is_some_and(|e| e.seq <= last) {
                let from = head.partition_point(|e| e.seq < first);
                query.collect(head.range(from..).take_while(in_range), out);
                return;
            }
            Arc::clone(&self.sealed.read())
        };
        let resealed = chain.segs.partition_point(|s| s.last_seq() < first);
        for seg in chain.segs.range(resealed..).take_while(|s| s.first_seq() <= last) {
            let from = seg.events().partition_point(|e| e.seq < first);
            query.collect(seg.events()[from..].iter().take_while(in_range), out);
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SequencedEvent> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (head_tail, head_first_seq) = {
            let guard = self.head.lock();
            let head = &guard.events;
            let first = head.front().map_or(u64::MAX, |e| e.seq);
            let skip = head.len().saturating_sub(n);
            (head.iter().skip(skip).cloned().collect::<Vec<_>>(), first)
        };
        if head_tail.len() >= n {
            return head_tail;
        }
        let need = n - head_tail.len();
        let chain = Arc::clone(&self.sealed.read());
        let mut tail_rev: Vec<SequencedEvent> = Vec::with_capacity(need);
        'chain: for (i, seg) in chain.segs.iter().enumerate().rev() {
            let lo = if i == 0 { chain.trim } else { 0 };
            for sev in seg.events()[lo..].iter().rev() {
                if sev.seq >= head_first_seq {
                    continue;
                }
                tail_rev.push(sev.clone());
                if tail_rev.len() == need {
                    break 'chain;
                }
            }
        }
        tail_rev.reverse();
        tail_rev.extend(head_tail);
        tail_rev
    }

    /// A fully consistent snapshot of the store: the sealed chain, shared,
    /// and a copy of the head. Takes both locks briefly (head before
    /// chain, the writer order) so nothing seals midway.
    pub(crate) fn snapshot_state(&self) -> StoreState {
        let head = self.head.lock();
        let chain = Arc::clone(&self.sealed.read());
        StoreState { chain, head: head.events.iter().cloned().collect() }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number of the newest retained event (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Sequence number of the oldest retained event (0 when empty).
    pub fn first_seq(&self) -> u64 {
        let head = self.head.lock();
        let chain = self.sealed.read();
        match chain.segs.front() {
            Some(front) => front.events()[chain.trim].seq,
            None => head.events.front().map_or(0, |e| e.seq),
        }
    }

    /// Approximate memory footprint of retained events.
    pub fn memory(&self) -> ByteSize {
        ByteSize::from_bytes(self.bytes.load(Ordering::Relaxed))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            inserted: self.inserted.load(Ordering::Relaxed),
            rotated: self.rotated.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            segments: self.sealed.read().segs.len() as u64,
            resident_bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Rebuilds a store from restored parts, preserving the snapshot's
    /// segment boundaries (so an incremental snapshot keeps reusing the
    /// segment files it already wrote) and re-applying the capacity
    /// bound. `segs` must be sequence-ordered and non-overlapping, with
    /// `head` strictly after them — the snapshot reader validates this.
    pub(crate) fn from_parts(
        capacity: usize,
        segs: VecDeque<Arc<Segment>>,
        trim: usize,
        head: Vec<SequencedEvent>,
    ) -> EventStore {
        let capacity = capacity.max(1);
        let mut head: VecDeque<SequencedEvent> = head.into();
        let mut chain = Chain { segs, trim };
        let held = chain.segs.iter().map(|s| s.len()).sum::<usize>() - trim + head.len();
        let held_bytes = chain.segs.iter().map(|s| s.bytes()).sum::<u64>()
            - chain.segs.front().map_or(0, |front| footprint(&front.events()[..trim]))
            + footprint(&head);
        // Re-apply the capacity bound (a restore may use a smaller
        // window than the snapshot was taken with).
        let excess = held.saturating_sub(capacity);
        let bytes = held_bytes - rotate_out(&mut chain, &mut head, excess);
        let len = held - excess;
        let last_seq = head
            .back()
            .map(|e| e.seq)
            .or_else(|| chain.segs.back().map(|s| s.last_seq()))
            .unwrap_or(0);
        EventStore {
            capacity,
            segment_events: default_segment_events(capacity),
            head: Mutex::new(Head { events: head, ids: Vec::new() }),
            sealed: RwLock::new(Arc::new(chain)),
            last_seq: AtomicU64::new(last_seq),
            len: AtomicUsize::new(len),
            bytes: AtomicU64::new(bytes),
            inserted: AtomicU64::new(len as u64),
            rotated: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }
}

/// A consistent point-in-time view of the store's contents, used by the
/// snapshot writers.
pub(crate) struct StoreState {
    pub(crate) chain: Arc<Chain>,
    pub(crate) head: Vec<SequencedEvent>,
}

impl StoreState {
    /// Newest retained sequence number in this state (0 when empty).
    pub(crate) fn last_seq(&self) -> u64 {
        self.head
            .last()
            .map(|e| e.seq)
            .or_else(|| self.chain.segs.back().map(|s| s.last_seq()))
            .unwrap_or(0)
    }
}

/// The Aggregator's shared in-process store handle.
///
/// Since the store's read *and* write paths take `&self` (the head
/// mutex and sealed-chain lock live inside), sharing is a plain `Arc` —
/// readers no longer serialize behind a store-wide mutex.
pub type SharedStore = Arc<EventStore>;

#[cfg(test)]
mod tests {
    use super::*;
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

    fn fill(store: &EventStore, range: std::ops::RangeInclusive<u64>) {
        for i in range {
            store.insert(ev(i, i, "/f")).unwrap();
        }
    }

    #[test]
    fn insert_and_query_by_seq() {
        let store = EventStore::new(100);
        fill(&store, 1..=10);
        let got = store.query(&StoreQuery::after_seq(7));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].seq, 8);
        assert_eq!(store.last_seq(), 10);
        assert_eq!(store.first_seq(), 1);
    }

    #[test]
    fn insert_batch_matches_per_event_inserts() {
        let batched = EventStore::with_segment_size(10, 4);
        let single = EventStore::with_segment_size(10, 4);
        let events: Vec<SequencedEvent> = (1..=25).map(|i| ev(i, i, "/b/f")).collect();
        for chunk in events.chunks(7) {
            batched.insert_batch(chunk.to_vec()).unwrap();
        }
        for e in events {
            single.insert(e).unwrap();
        }
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.first_seq(), single.first_seq());
        assert_eq!(batched.last_seq(), single.last_seq());
        assert_eq!(batched.memory(), single.memory());
        assert_eq!(batched.query(&StoreQuery::default()), single.query(&StoreQuery::default()),);
    }

    #[test]
    fn insert_batch_is_all_or_nothing_on_order_violations() {
        let store = EventStore::new(100);
        store.insert(ev(5, 5, "/f")).unwrap();
        // Stale against the store.
        let err = store.insert_batch(vec![ev(6, 6, "/f"), ev(5, 5, "/f")]).unwrap_err();
        assert_eq!(err.last_seq, 6);
        assert_eq!(err.offered_seq, 5);
        assert_eq!(store.len(), 1, "rejected batch must leave no prefix behind");
        assert_eq!(store.last_seq(), 5);
        // Internally out of order.
        assert!(store.insert_batch(vec![ev(8, 8, "/f"), ev(7, 7, "/f")]).is_err());
        assert_eq!(store.last_seq(), 5);
        // Empty batch is a no-op.
        store.insert_batch(Vec::new()).unwrap();
        // A valid batch still lands.
        store.insert_batch(vec![ev(6, 6, "/f"), ev(9, 9, "/f")]).unwrap();
        assert_eq!(store.last_seq(), 9);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn rotation_bounds_len_and_memory() {
        let store = EventStore::new(5);
        for i in 1..=20 {
            store.insert(ev(i, i, "/some/longish/path/file.dat")).unwrap();
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.first_seq(), 16);
        assert_eq!(store.stats().rotated, 15);
        let five = store.memory();
        store.insert(ev(21, 21, "/some/longish/path/file.dat")).unwrap();
        assert_eq!(store.memory(), five, "memory stays bounded under rotation");
    }

    #[test]
    fn rotation_trims_and_drops_sealed_segments() {
        // 4-event segments, capacity 10: the chain must shed whole
        // segments as the window slides, never growing without bound.
        let store = EventStore::with_segment_size(10, 4);
        for i in 1..=100 {
            store.insert(ev(i, i, "/seg/f")).unwrap();
            assert!(store.len() <= 10);
            assert!(store.stats().segments <= 3, "fully trimmed segments must drop");
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.first_seq(), 91);
        assert_eq!(
            store.query(&StoreQuery::default()).iter().map(|e| e.seq).collect::<Vec<_>>(),
            (91..=100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn query_by_time_and_prefix() {
        let store = EventStore::new(100);
        store.insert(ev(1, 10, "/data/a")).unwrap();
        store.insert(ev(2, 20, "/data/b")).unwrap();
        store.insert(ev(3, 30, "/other/c")).unwrap();
        let got = store.query(&StoreQuery::since(SimTime::from_secs(20)));
        assert_eq!(got.len(), 2);
        let got = store.query(&StoreQuery::default().under("/data"));
        assert_eq!(got.len(), 2);
        let got = store.query(&StoreQuery::since(SimTime::from_secs(20)).under("/data"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 2);
    }

    #[test]
    fn query_spans_sealed_segments_and_head() {
        let store = EventStore::with_segment_size(1000, 8);
        for i in 1..=100 {
            store.insert(ev(i, i, &format!("/p{}/f{i}", i % 3))).unwrap();
        }
        // 12 sealed segments + 4 head events; results must be seamless.
        assert_eq!(store.stats().segments, 12);
        let got = store.query(&StoreQuery::after_seq(90));
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), (91..=100).collect::<Vec<_>>());
        let got = store.query(&StoreQuery::default().under("/p1"));
        assert_eq!(got.len(), 34);
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn query_limit() {
        let store = EventStore::new(100);
        fill(&store, 1..=10);
        let got = store.query(&StoreQuery::after_seq(0).limit(4));
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].seq, 1);
    }

    #[test]
    fn query_limit_across_segment_boundary() {
        let store = EventStore::with_segment_size(100, 4);
        fill(&store, 1..=10);
        let got = store.query(&StoreQuery::after_seq(2).limit(5));
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn the_head_range_a_query_started_with_is_read_once_sealed_or_not() {
        let seqs = |out: Vec<SequencedEvent>| out.iter().map(|e| e.seq).collect::<Vec<_>>();
        let store = EventStore::with_segment_size(100, 8);
        fill(&store, 1..=5);
        let range = HeadRange { first: 2, last: 5, len: 4 };
        let query = StoreQuery::after_seq(1);
        // The head grew meanwhile: what came after the range is not read.
        fill(&store, 6..=7);
        let mut out = Vec::new();
        store.collect_head(&query.prepare(), range, &mut out);
        assert_eq!(seqs(out), vec![2, 3, 4, 5]);
        // The head sealed meanwhile: the range is read from its segment.
        fill(&store, 8..=10);
        assert_eq!(store.stats().segments, 1);
        let mut out = Vec::new();
        store.collect_head(&query.prepare(), range, &mut out);
        assert_eq!(seqs(out), vec![2, 3, 4, 5]);
    }

    #[test]
    fn a_snapshot_keeps_its_chain_and_only_the_first_write_after_it_copies() {
        // Where the store's chain lives. Read without keeping a clone, which
        // would itself be a snapshot the next write has to copy around.
        let chain_at = |store: &EventStore| Arc::as_ptr(&store.sealed.read());
        let spans = |chain: &Chain| {
            chain.segs.iter().map(|s| (s.first_seq(), s.last_seq())).collect::<Vec<_>>()
        };
        // Capacity 8 in segments of 4: [1..4] [5..8], trim 2, head 9 10.
        let store = EventStore::with_segment_size(8, 4);
        fill(&store, 1..=10);
        let state = store.snapshot_state();
        assert_eq!(Arc::as_ptr(&state.chain), chain_at(&store), "a snapshot shares the chain");

        // A rotation meets the live snapshot: the chain is copied once.
        fill(&store, 11..=11);
        let copy = chain_at(&store);
        assert_ne!(copy, Arc::as_ptr(&state.chain), "the first write copies the chain");
        // A seal and a full rotation after it mutate the copy in place.
        fill(&store, 12..=20);
        assert_eq!(chain_at(&store), copy, "the store owns its chain alone again");
        assert_eq!(store.first_seq(), 13);
        assert_eq!(spans(&store.sealed.read()), vec![(13, 16), (17, 20)]);

        // The snapshot still reads what it was taken with.
        assert_eq!(spans(&state.chain), vec![(1, 4), (5, 8)]);
        assert_eq!(state.chain.trim, 2);
        assert_eq!(state.chain.segs[0].events()[state.chain.trim].seq, 3, "its first_seq");
        assert_eq!(state.last_seq(), 10);

        // Dropped, it costs the next write nothing; nor does a finished
        // query, which holds no snapshot.
        drop(state);
        assert_eq!(store.query(&StoreQuery::default()).len(), 8);
        fill(&store, 21..=25);
        assert_eq!(chain_at(&store), copy, "with no snapshot live a write is in place");
        assert_eq!(spans(&store.sealed.read()), vec![(17, 20), (21, 24)]);
    }

    #[test]
    fn recent_returns_tail() {
        let store = EventStore::new(100);
        fill(&store, 1..=10);
        let got = store.recent(3);
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9, 10]);
        assert_eq!(store.recent(99).len(), 10);
    }

    #[test]
    fn recent_spans_sealed_segments() {
        let store = EventStore::with_segment_size(100, 4);
        fill(&store, 1..=10);
        // Head holds 9..=10; the rest must come off the chain's tail.
        let got = store.recent(7);
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), (4..=10).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_insert_is_rejected() {
        let store = EventStore::new(100);
        store.insert(ev(5, 5, "/f")).unwrap();
        let err = store.insert(ev(5, 5, "/f")).unwrap_err();
        assert_eq!(err, StoreOrderError { last_seq: 5, offered_seq: 5 });
        let err = store.insert(ev(3, 3, "/f")).unwrap_err();
        assert_eq!(err.offered_seq, 3);
        assert!(err.to_string().contains("out-of-order"));
        // The store is untouched by rejected inserts.
        assert_eq!(store.len(), 1);
        assert_eq!(store.last_seq(), 5);
        // Sequence numbering starts at 1; seq 0 is always rejected.
        assert!(EventStore::new(10).insert(ev(0, 0, "/f")).is_err());
    }

    /// `store` flushed into a scratch snapshot directory, removed on drop.
    struct Flushed(PathBuf);

    impl Flushed {
        fn new(tag: &str, store: &EventStore) -> Flushed {
            let dir =
                std::env::temp_dir().join(format!("sdci-store-unit-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            SnapshotDir::open(&dir).unwrap().flush(store, std::collections::HashMap::new).unwrap();
            Flushed(dir)
        }

        /// The one sealed segment's file.
        fn segment_file(&self) -> PathBuf {
            let mut segs = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"));
            let seg = segs.next().expect("one sealed segment");
            assert!(segs.next().is_none(), "exactly one sealed segment");
            seg
        }
    }

    impl Drop for Flushed {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let store = EventStore::with_segment_size(100, 8);
        for i in 1..=25 {
            store.insert(ev(i, i, &format!("/snap/f{i}"))).unwrap();
        }
        let flushed = Flushed::new("roundtrip", &store);
        let (restored, marks) = restore_snapshot(&flushed.0, 100).unwrap();
        assert!(marks.is_empty());
        assert_eq!(restored.len(), 25);
        assert_eq!(restored.first_seq(), 1);
        assert_eq!(restored.last_seq(), 25);
        assert_eq!(restored.memory(), store.memory());
        // Queries behave identically.
        assert_eq!(
            restored.query(&StoreQuery::after_seq(20)),
            store.query(&StoreQuery::after_seq(20))
        );
        // Ingestion resumes past the snapshot.
        restored.insert(ev(26, 26, "/snap/f26")).unwrap();
        assert_eq!(restored.last_seq(), 26);
    }

    #[test]
    fn restore_respects_smaller_capacity() {
        let store = EventStore::new(100);
        fill(&store, 1..=50);
        let flushed = Flushed::new("shrink", &store);
        let (restored, _) = restore_snapshot(&flushed.0, 10).unwrap();
        assert_eq!(restored.len(), 10);
        assert_eq!(restored.first_seq(), 41);
    }

    #[test]
    fn restore_rejects_duplicates() {
        let store = EventStore::with_segment_size(100, 6);
        fill(&store, 1..=6);
        let flushed = Flushed::new("duplicate", &store);
        assert_eq!(restore_snapshot(&flushed.0, 100).unwrap().0.len(), 6);

        // The second event becomes a copy of the first: the file still
        // matches its manifest entry's length and sequence range.
        let mut events: Vec<SequencedEvent> = (1..=6).map(|i| ev(i, i, "/f")).collect();
        events[1] = events[0].clone();
        snapshot::write_blocks(&flushed.segment_file(), &events).unwrap();
        let err = restore_snapshot(&flushed.0, 100).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("is out of order"), "{err}");
    }

    #[test]
    fn restore_rejects_garbage() {
        let store = EventStore::with_segment_size(100, 6);
        fill(&store, 1..=6);
        let flushed = Flushed::new("garbage", &store);
        std::fs::write(flushed.segment_file(), "not a block\n").unwrap();
        let err = restore_snapshot(&flushed.0, 10).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_store() {
        let store = EventStore::new(10);
        assert!(store.is_empty());
        assert_eq!(store.last_seq(), 0);
        assert!(store.query(&StoreQuery::default()).is_empty());
        assert_eq!(store.memory(), ByteSize::ZERO);
    }

    #[test]
    fn concurrent_queries_during_ingest_see_consistent_windows() {
        // Reads take &self: hammer queries from two threads while a
        // third ingests, and require every result to be gap-free.
        let store: SharedStore = Arc::new(EventStore::with_segment_size(100_000, 64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    let mut done = false;
                    // One final query after `stop` so every reader ends
                    // having observed the complete window.
                    while !done {
                        done = stop.load(Ordering::Relaxed);
                        let got = store.as_ref().query(&StoreQuery::after_seq(0));
                        for pair in got.windows(2) {
                            assert_eq!(pair[0].seq + 1, pair[1].seq, "gap in query result");
                        }
                        seen = seen.max(got.last().map_or(0, |e| e.seq));
                    }
                    seen
                })
            })
            .collect();
        for i in 1..=5_000 {
            store.insert(ev(i, i, "/c/f")).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert_eq!(r.join().unwrap(), 5_000, "readers observed the full ingest");
        }
        assert_eq!(store.as_ref().query(&StoreQuery::after_seq(0)).len(), 5_000);
    }
}
