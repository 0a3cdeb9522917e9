//! The consumer client: live feed plus gap recovery.
//!
//! "The monitor also maintains a rotating catalog of events and an API to
//! retrieve recent events in order to provide fault tolerance" (§4). An
//! [`EventConsumer`] tracks the Aggregator's dense sequence numbers; when
//! it observes a gap (missed publications — e.g. it fell behind the
//! pub-sub high-water mark, or it just reconnected), it backfills from
//! the store before delivering newer events.

use crate::aggregator::{FeedMessage, SequencedEvent};
use crate::store::{EventBackend, PathPrefix, SharedStore, StoreQuery};
use sdci_mq::pubsub::Subscriber;
use sdci_mq::transport::Subscribe;
use sdci_types::FileEvent;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Counters for an [`EventConsumer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerStats {
    /// Events delivered to the application in order.
    pub delivered: u64,
    /// Events received directly from the live feed.
    pub live: u64,
    /// Events recovered from the historic store after a gap.
    pub recovered: u64,
    /// Events permanently lost (rotated out of the store before
    /// recovery).
    pub lost: u64,
    /// Events consumed but suppressed by the path filter.
    pub filtered_out: u64,
    /// Backfill queries re-issued because the previous attempt came
    /// back empty (e.g. the store was mid-restart).
    pub backfill_retries: u64,
}

/// An ordered, gap-recovering event stream, optionally restricted to a
/// path prefix.
///
/// Generic over its two inputs so the same recovery logic runs in-process
/// (the defaults: a broker [`Subscriber`] plus the [`SharedStore`]) or
/// across machines (`sdci-net`'s `TcpSubscriber` plus `RemoteStore`).
pub struct EventConsumer<F = Subscriber<FeedMessage>, R = SharedStore> {
    feed: F,
    store: R,
    next_seq: u64,
    backlog: VecDeque<SequencedEvent>,
    filter: Option<PathPrefix<'static>>,
    stats: ConsumerStats,
    /// Extra attempts for a backfill query that returned empty.
    backfill_retries: u32,
    /// Delay before the first retry; doubles on each further attempt.
    backfill_backoff: Duration,
}

impl<F, R> fmt::Debug for EventConsumer<F, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventConsumer")
            .field("next_seq", &self.next_seq)
            .field("backlog", &self.backlog.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<F: Subscribe<FeedMessage>, R: EventBackend + 'static> EventConsumer<F, R> {
    /// Creates a consumer over a feed subscription and the Aggregator's
    /// store handle, expecting sequence numbers to start after
    /// `last_seen_seq` (0 for a fresh consumer).
    pub fn new(feed: F, store: R, last_seen_seq: u64) -> Self {
        EventConsumer {
            feed,
            store,
            next_seq: last_seen_seq + 1,
            backlog: VecDeque::new(),
            filter: None,
            stats: ConsumerStats::default(),
            backfill_retries: 3,
            backfill_backoff: Duration::from_millis(25),
        }
    }

    /// Configures the bounded retry of backfill queries that return
    /// empty: up to `attempts` extra queries, the first after `backoff`
    /// and doubling from there. `attempts = 0` makes a single query
    /// authoritative again.
    pub fn with_backfill_retry(mut self, attempts: u32, backoff: Duration) -> Self {
        self.backfill_retries = attempts;
        self.backfill_backoff = backoff;
        self
    }

    /// Restricts the stream to events whose path is under `prefix`.
    /// Non-matching events are still consumed (and counted in
    /// [`ConsumerStats::delivered`]'s complement, `filtered_out`), so
    /// sequence tracking and gap recovery keep working.
    pub fn under(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.filter = Some(PathPrefix::new(&prefix.into()).into_owned());
        self
    }

    /// Returns the next event in sequence order, waiting up to `timeout`
    /// for the live feed. Returns `None` on timeout.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<FileEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.pop_ready() {
                if let Some(ev) = self.apply_filter(ev) {
                    return Some(ev);
                }
                continue;
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let msg = self.feed.recv_timeout(remaining)?;
            self.ingest(msg.payload);
        }
    }

    /// Non-blocking variant of [`EventConsumer::next_timeout`].
    pub fn try_next(&mut self) -> Option<FileEvent> {
        loop {
            if let Some(ev) = self.pop_ready() {
                if let Some(ev) = self.apply_filter(ev) {
                    return Some(ev);
                }
                continue;
            }
            let msg = self.feed.try_recv()?;
            self.ingest(msg.payload);
        }
    }

    fn apply_filter(&mut self, ev: FileEvent) -> Option<FileEvent> {
        match &self.filter {
            Some(prefix) if !prefix.matches(ev.path.as_str()) => {
                self.stats.filtered_out += 1;
                None
            }
            _ => {
                self.stats.delivered += 1;
                sdci_obs::static_metric!(counter, "sdci_consumer_delivered_total").inc();
                // Terminal span of the ingest trace: parented on the
                // context the event has carried since extraction.
                let mut delivery_span = ev.trace.filter(|t| t.sampled).map(|t| {
                    sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "consumer.delivery")
                });
                if let Some(span) = delivery_span.as_mut() {
                    span.set_detail(|| ev.path.display().to_string());
                }
                // Extract -> consumer-delivery: the full Fig. 5/6 e2e
                // latency, against the collector's wall-clock stamp.
                if let Some(extracted) = ev.extracted_unix_ns {
                    sdci_obs::static_metric!(histogram, "sdci_e2e_delivery_latency_seconds")
                        .observe_ns(sdci_obs::unix_now_ns().saturating_sub(extracted));
                }
                Some(ev)
            }
        }
    }

    fn pop_ready(&mut self) -> Option<FileEvent> {
        // Iterative on purpose: a gap-dense backlog (thousands of
        // single-seq holes after a long partition) walks one loop
        // iteration per hole instead of growing the call stack.
        loop {
            // Drop stale duplicates (e.g. an event that arrived both
            // live and via backfill).
            while self.backlog.front().is_some_and(|f| f.seq < self.next_seq) {
                self.backlog.pop_front();
            }
            let front_seq = self.backlog.front()?.seq;
            if front_seq == self.next_seq {
                self.next_seq += 1;
                return self.backlog.pop_front().map(|sev| sev.event);
            }
            // Still gapped: try to backfill, then re-check.
            self.backfill_to(front_seq);
            let front_seq = self.backlog.front()?.seq;
            if front_seq != self.next_seq {
                // Rotated out of the store: acknowledge the loss and
                // move on rather than stalling forever.
                self.count_lost_through(front_seq - 1);
            }
        }
    }

    /// Accounts sequence numbers `[next_seq, up_to]` as permanently
    /// lost and advances the cursor past them. Coupling the counter to
    /// the `next_seq` advance is what makes loss accounting idempotent:
    /// a range can only be counted while the cursor still points below
    /// it, so re-observing the same gap (e.g. a repeated heartbeat)
    /// cannot add it to [`ConsumerStats::lost`] twice.
    fn count_lost_through(&mut self, up_to: u64) {
        debug_assert!(up_to >= self.next_seq, "loss range must be ahead of the cursor");
        let lost = up_to - self.next_seq + 1;
        self.stats.lost += lost;
        sdci_obs::static_metric!(counter, "sdci_consumer_lost_total").add(lost);
        self.next_seq = up_to + 1;
    }

    fn ingest(&mut self, msg: FeedMessage) {
        match msg {
            FeedMessage::Event(sev) => {
                if sev.seq < self.next_seq {
                    return; // duplicate/old
                }
                self.stats.live += 1;
                self.backlog.push_back(sev);
            }
            FeedMessage::Heartbeat { last_seq } => self.on_heartbeat(last_seq),
        }
    }

    /// A heartbeat tells us the Aggregator has assigned sequence numbers
    /// up to `last_seq`; anything past our horizon is either recoverable
    /// from the store or permanently lost.
    fn on_heartbeat(&mut self, last_seq: u64) {
        let horizon = self.backlog.back().map_or(self.next_seq - 1, |b| b.seq);
        if last_seq <= horizon {
            return; // nothing new beyond what we already know about
        }
        // Fetch (horizon, last_seq] from the store; results are ordered
        // and all beyond the backlog, so appending keeps it sorted.
        let missing = self
            .query_with_retry(&StoreQuery::after_seq(horizon).limit((last_seq - horizon) as usize));
        self.stats.recovered += missing.len() as u64;
        sdci_obs::static_metric!(counter, "sdci_consumer_recovered_total")
            .add(missing.len() as u64);
        self.backlog.extend(missing);
        // Whatever the store no longer retains is gone for good — but
        // only account it once the cursor can move past it. With a
        // non-empty backlog the range past `recovered_to` is not yet
        // resolved (earlier gaps still separate the cursor from it);
        // counting it here *without* advancing `next_seq` is exactly
        // the double-count bug: the next heartbeat with the same
        // `last_seq` would re-query the gone range and re-add the same
        // loss. Deferring is safe: either a later heartbeat lands after
        // the backlog drains, or later live events arrive and
        // `pop_ready` accounts the gap — each path counts it exactly
        // once, because both go through `count_lost_through`.
        let recovered_to = self.backlog.back().map_or(self.next_seq - 1, |b| b.seq);
        if recovered_to < last_seq && self.backlog.is_empty() {
            self.count_lost_through(last_seq);
        }
    }

    /// Queries the store for the missing range `[next_seq, up_to)` and
    /// prepends whatever is still retained.
    fn backfill_to(&mut self, up_to: u64) {
        let missing = self.query_with_retry(
            &StoreQuery::after_seq(self.next_seq - 1).limit((up_to - self.next_seq) as usize),
        );
        let recovered: Vec<SequencedEvent> =
            missing.into_iter().filter(|e| e.seq < up_to).collect();
        self.stats.recovered += recovered.len() as u64;
        sdci_obs::static_metric!(counter, "sdci_consumer_recovered_total")
            .add(recovered.len() as u64);
        for sev in recovered.into_iter().rev() {
            self.backlog.push_front(sev);
        }
    }

    /// Queries the store, retrying a bounded number of times (with a
    /// doubling backoff) when the result comes back empty. A store
    /// mid-restart answers queries with nothing while its snapshot is
    /// restoring; treating that transient as authoritative would
    /// convert recoverable events into permanently-counted losses. A
    /// genuinely rotated-out range still resolves immediately in the
    /// common case, because the store then returns the retained tail
    /// (non-empty) rather than nothing.
    fn query_with_retry(&mut self, query: &StoreQuery) -> Vec<SequencedEvent> {
        let mut backoff = self.backfill_backoff;
        for attempt in 0..=self.backfill_retries {
            let got = self.store.query(query);
            if !got.is_empty() {
                return got;
            }
            if attempt == self.backfill_retries {
                break;
            }
            self.stats.backfill_retries += 1;
            sdci_obs::static_metric!(counter, "sdci_consumer_backfill_retries_total").inc();
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        Vec::new()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ConsumerStats {
        self.stats
    }

    /// The next sequence number this consumer expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The durable cursor: the highest sequence number this consumer
    /// has fully consumed (0 before anything). Persist it (e.g. via
    /// [`ConsumerCursor`]) and hand it back to [`EventConsumer::new`]
    /// as `last_seen_seq` to resume from the same stream position —
    /// not from "now" — after a restart.
    pub fn cursor(&self) -> u64 {
        self.next_seq - 1
    }
}

/// Most bytes [`ConsumerCursor::load`] reads of a cursor file.
const MAX_CURSOR_FILE_LEN: usize = 32;

/// A durable consumer position: one sequence number in a sidecar file,
/// replaced atomically (write-tmp-rename, like the store's manifest) so
/// a crash mid-checkpoint leaves the previous cursor intact rather than
/// a torn file.
#[derive(Debug, Clone)]
pub struct ConsumerCursor {
    path: PathBuf,
}

impl ConsumerCursor {
    /// Binds the cursor to `path`; nothing is read or written yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ConsumerCursor { path: path.into() }
    }

    /// Loads the checkpointed cursor, or `None` when no checkpoint
    /// exists yet (a fresh consumer). A torn or corrupt file is a hard
    /// error, not a silent restart from 0: resuming from the wrong seq
    /// re-delivers (or skips) events.
    ///
    /// The file is untrusted input, so at most 32 bytes of it are read
    /// (a `u64` and a newline take 21): a longer file, or one that is not
    /// UTF-8, is `InvalidData` naming the path, like one that is not a
    /// number.
    pub fn load(&self) -> std::io::Result<Option<u64>> {
        use std::io::Read;
        let file = match std::fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt = |why: &dyn fmt::Display| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt cursor file {}: {why}", self.path.display()),
            )
        };
        // One byte past the cap tells a longer file from one at the cap.
        let mut body = Vec::with_capacity(MAX_CURSOR_FILE_LEN + 1);
        file.take(MAX_CURSOR_FILE_LEN as u64 + 1).read_to_end(&mut body)?;
        if body.len() > MAX_CURSOR_FILE_LEN {
            return Err(corrupt(&format_args!("longer than {MAX_CURSOR_FILE_LEN} bytes")));
        }
        let text = std::str::from_utf8(&body).map_err(|e| corrupt(&e))?;
        text.trim().parse::<u64>().map(Some).map_err(|e| corrupt(&e))
    }

    /// Checkpoints `seq` (an [`EventConsumer::cursor`] value)
    /// atomically: the sidecar is fully written, then renamed over the
    /// cursor file in one step.
    pub fn save(&self, seq: u64) -> std::io::Result<()> {
        crate::write_atomically(&self.path, |out| writeln!(out, "{seq}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EventStore;
    use sdci_mq::pubsub::Broker;
    use sdci_types::{ChangelogKind, EventKind, Fid, MdtIndex, SimTime};
    use std::sync::Arc;

    fn sev(seq: u64) -> SequencedEvent {
        SequencedEvent {
            seq,
            event: FileEvent {
                index: seq,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: SimTime::from_secs(seq),
                path: format!("/f{seq}").into(),
                src_path: None,
                target: Fid::new(1, seq as u32, 0),
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
        }
    }

    fn harness(store_cap: usize) -> (Broker<FeedMessage>, Arc<EventStore>, EventConsumer) {
        let broker: Broker<FeedMessage> = Broker::new(1024);
        let store = Arc::new(EventStore::new(store_cap));
        let consumer = EventConsumer::new(broker.subscribe(&["feed/"]), Arc::clone(&store), 0);
        (broker, store, consumer)
    }

    #[test]
    fn in_order_delivery() {
        let (broker, store, mut consumer) = harness(100);
        let p = broker.publisher();
        for i in 1..=5 {
            store.insert(sev(i)).unwrap();
            p.publish("feed/all", FeedMessage::Event(sev(i)));
        }
        for i in 1..=5 {
            let ev = consumer.try_next().unwrap();
            assert_eq!(ev.index, i);
        }
        assert!(consumer.try_next().is_none());
        let s = consumer.stats();
        assert_eq!(s.delivered, 5);
        assert_eq!(s.recovered, 0);
    }

    #[test]
    fn gap_is_backfilled_from_store() {
        let (broker, store, mut consumer) = harness(100);
        let p = broker.publisher();
        // All 10 reach the store, but only 8..=10 reach the feed (the
        // consumer "fell behind" its HWM for 1..=7).
        for i in 1..=10 {
            store.insert(sev(i)).unwrap();
        }
        for i in 8..=10 {
            p.publish("feed/all", FeedMessage::Event(sev(i)));
        }
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, (1..=10).collect::<Vec<_>>());
        let s = consumer.stats();
        assert_eq!(s.recovered, 7);
        assert_eq!(s.lost, 0);
    }

    #[test]
    fn rotated_out_events_count_as_lost() {
        let (broker, store, mut consumer) = harness(3);
        let p = broker.publisher();
        for i in 1..=10 {
            store.insert(sev(i)).unwrap(); // store retains only 8, 9, 10
        }
        p.publish("feed/all", FeedMessage::Event(sev(10)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![8, 9, 10]);
        let s = consumer.stats();
        assert_eq!(s.lost, 7);
        assert_eq!(s.recovered, 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let (broker, store, mut consumer) = harness(100);
        let p = broker.publisher();
        for i in 1..=3 {
            store.insert(sev(i)).unwrap();
            p.publish("feed/all", FeedMessage::Event(sev(i)));
        }
        p.publish("feed/all", FeedMessage::Event(sev(2))); // duplicate
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn late_joiner_starts_from_checkpoint() {
        let (broker, store, _fresh) = harness(100);
        for i in 1..=20 {
            store.insert(sev(i)).unwrap();
        }
        // Consumer that had already seen up to 15 reconnects.
        let mut consumer = EventConsumer::new(broker.subscribe(&["feed/"]), Arc::clone(&store), 15);
        let p = broker.publisher();
        p.publish("feed/all", FeedMessage::Event(sev(20)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![16, 17, 18, 19, 20]);
    }

    #[test]
    fn path_filter_suppresses_but_keeps_sequencing() {
        let (broker, store, consumer) = harness(100);
        let mut consumer = consumer.under("/f1");
        let p = broker.publisher();
        // Paths are /f1..=/f15; Path::starts_with is component-wise,
        // so only "/f1" itself matches the "/f1" prefix.
        for i in 1..=15 {
            store.insert(sev(i)).unwrap();
        }
        // Publish only the last one live: everything else recovers from
        // the store, and the filter applies to recovered events too.
        p.publish("feed/all", FeedMessage::Event(sev(15)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![1]);
        let stats = consumer.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.filtered_out, 14);
        assert_eq!(stats.lost, 0);
    }

    /// A store that answers its first `fail_first` queries with nothing
    /// — the observable behavior of a store mid-restart — and delegates
    /// to the real store afterwards.
    struct FlakyStore {
        inner: Arc<EventStore>,
        fail_first: std::sync::atomic::AtomicU32,
    }

    impl crate::store::EventBackend for FlakyStore {
        fn insert_batch(
            &self,
            events: Vec<SequencedEvent>,
        ) -> Result<(), crate::store::StoreError> {
            self.inner.insert_batch(events)
        }

        fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
            use std::sync::atomic::Ordering;
            let left = self.fail_first.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_first.store(left - 1, Ordering::Relaxed);
                return Vec::new();
            }
            self.inner.as_ref().query(query)
        }

        fn last_seq(&self) -> u64 {
            self.inner.last_seq()
        }

        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn empty_backfill_is_retried_before_counting_lost() {
        let broker: Broker<FeedMessage> = Broker::new(1024);
        let store = Arc::new(EventStore::new(100));
        for i in 1..=5 {
            store.insert(sev(i)).unwrap();
        }
        let flaky = FlakyStore {
            inner: Arc::clone(&store),
            fail_first: std::sync::atomic::AtomicU32::new(2),
        };
        let mut consumer = EventConsumer::new(broker.subscribe(&["feed/"]), flaky, 0)
            .with_backfill_retry(3, Duration::from_millis(1));
        // Only the newest event arrives live; 1..=4 must backfill, and
        // the first two (empty) answers must not be taken as loss.
        broker.publisher().publish("feed/all", FeedMessage::Event(sev(5)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, (1..=5).collect::<Vec<_>>());
        let s = consumer.stats();
        assert_eq!(s.lost, 0, "transient empty answers must not count as lost");
        assert_eq!(s.recovered, 4);
        assert_eq!(s.backfill_retries, 2);
    }

    #[test]
    fn exhausted_backfill_retries_still_bound_the_stall() {
        let broker: Broker<FeedMessage> = Broker::new(1024);
        let store = Arc::new(EventStore::new(100));
        for i in 1..=5 {
            store.insert(sev(i)).unwrap();
        }
        // The store never answers within the retry budget.
        let flaky = FlakyStore {
            inner: Arc::clone(&store),
            fail_first: std::sync::atomic::AtomicU32::new(u32::MAX),
        };
        let mut consumer = EventConsumer::new(broker.subscribe(&["feed/"]), flaky, 0)
            .with_backfill_retry(2, Duration::from_millis(1));
        broker.publisher().publish("feed/all", FeedMessage::Event(sev(5)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        // Recovery gave up: the gap is acknowledged as loss and the
        // stream moves on instead of stalling forever.
        assert_eq!(got, vec![5]);
        let s = consumer.stats();
        assert_eq!(s.lost, 4);
        assert_eq!(s.backfill_retries, 2);
    }

    #[test]
    fn repeated_heartbeats_count_loss_exactly_once() {
        // Store retains only seq 7: seqs 1-6 and 8-10 are gone for
        // good. The first heartbeat recovers 7 into the backlog and
        // observes the lost tail (7, 10] while the backlog is
        // non-empty — the shape that used to be counted again by every
        // further heartbeat carrying the same `last_seq`.
        let broker: Broker<FeedMessage> = Broker::new(1024);
        let store = Arc::new(EventStore::new(1));
        store.insert(sev(7)).unwrap();
        let mut consumer = EventConsumer::new(broker.subscribe(&["feed/"]), Arc::clone(&store), 0)
            .with_backfill_retry(0, Duration::from_millis(1));
        let p = broker.publisher();
        p.publish("feed/all", FeedMessage::Heartbeat { last_seq: 10 });
        p.publish("feed/all", FeedMessage::Heartbeat { last_seq: 10 });
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![7]);
        let s = consumer.stats();
        assert_eq!(s.recovered, 1);
        assert_eq!(s.lost, 9, "seqs 1-6 and 8-10 must each count as lost exactly once");
        assert_eq!(consumer.next_seq(), 11);
    }

    #[test]
    fn gap_dense_backlog_does_not_overflow_the_stack() {
        // 10k single-seq holes: the store retains every even seq up to
        // 20000, every odd seq is lost. One heartbeat loads the whole
        // gap-dense range into the backlog, and draining it must walk
        // the holes iteratively rather than recursing per gap.
        const HOLES: u64 = 10_000;
        let broker: Broker<FeedMessage> = Broker::new(1024);
        let store = Arc::new(EventStore::new(HOLES as usize));
        for k in 1..=HOLES {
            store.insert(sev(2 * k)).unwrap();
        }
        let mut consumer = EventConsumer::new(broker.subscribe(&["feed/"]), Arc::clone(&store), 0)
            .with_backfill_retry(0, Duration::from_millis(1));
        broker.publisher().publish("feed/all", FeedMessage::Heartbeat { last_seq: 2 * HOLES });
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, (1..=HOLES).map(|k| 2 * k).collect::<Vec<_>>());
        let s = consumer.stats();
        assert_eq!(s.recovered, HOLES);
        assert_eq!(s.lost, HOLES, "one lost odd seq per hole, each counted once");
    }

    #[test]
    fn cursor_checkpoint_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("sdci-cursor-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cursor = ConsumerCursor::new(dir.join("consumer.cursor"));
        assert_eq!(cursor.load().unwrap(), None, "fresh cursor has no checkpoint");
        cursor.save(41).unwrap();
        cursor.save(42).unwrap();
        assert_eq!(cursor.load().unwrap(), Some(42));
        // A consumer resumed from the checkpoint picks up at seq 43.
        let (broker, store, _fresh) = harness(100);
        for i in 1..=45 {
            store.insert(sev(i)).unwrap();
        }
        let mut consumer = EventConsumer::new(
            broker.subscribe(&["feed/"]),
            Arc::clone(&store),
            cursor.load().unwrap().unwrap_or(0),
        );
        broker.publisher().publish("feed/all", FeedMessage::Event(sev(45)));
        let got: Vec<u64> = std::iter::from_fn(|| consumer.try_next().map(|e| e.index)).collect();
        assert_eq!(got, vec![43, 44, 45]);
        assert_eq!(consumer.cursor(), 45);
        // Corruption is a hard error, never a silent restart from 0.
        std::fs::write(dir.join("consumer.cursor"), "not-a-seq\n").unwrap();
        assert!(cursor.load().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cursor file is untrusted: a 1 MiB one is refused after its first
    /// 33 bytes, and one that is not UTF-8 is refused too — each as
    /// `InvalidData` naming the file. A cursor with room to spare at the
    /// cap still loads.
    #[test]
    fn an_oversized_or_non_utf8_cursor_file_is_invalid_data_naming_the_file() {
        let dir = std::env::temp_dir().join(format!("sdci-cursor-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("consumer.cursor");
        let cursor = ConsumerCursor::new(&path);
        for (what, body) in [
            ("1 MiB", vec![b'7'; 1 << 20]),
            ("a digit past the cap", vec![b'7'; MAX_CURSOR_FILE_LEN + 1]),
            ("invalid UTF-8", b"42\xff\xfe\n".to_vec()),
        ] {
            std::fs::write(&path, body).unwrap();
            let err = cursor.load().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(&path.display().to_string()), "{what}: {err}");
        }
        let padded = format!("{:>width$}\n", u64::MAX, width = MAX_CURSOR_FILE_LEN - 1);
        std::fs::write(&path, padded).unwrap();
        assert_eq!(cursor.load().unwrap(), Some(u64::MAX));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn next_timeout_waits() {
        let (broker, store, mut consumer) = harness(100);
        let p = broker.publisher();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            store.insert(sev(1)).unwrap();
            p.publish("feed/all", FeedMessage::Event(sev(1)));
        });
        let ev = consumer.next_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ev.index, 1);
        handle.join().unwrap();
        assert!(consumer.next_timeout(Duration::from_millis(10)).is_none());
    }
}
