//! The Aggregator (§4, step 3).
//!
//! "Once an event is reported to the Aggregator it is immediately placed
//! in a queue to be processed. The Aggregator is multi-threaded, enabling
//! it to both publish events to subscribed consumers and store the events
//! in a local database with minimal overhead."
//!
//! Here "multi-threaded … publish and store" is this module's *ingest*
//! thread plus, in a networked deployment, one socket thread per remote
//! consumer. The ingest thread takes a batch of Collector events (one
//! whole frame, off a TCP connection or an in-process Collector alike),
//! assigns global sequence numbers, inserts the batch into the
//! [`EventStore`] and then publishes it with one call into the feed it
//! was handed — any [`Publish`]: in `sdcimon aggregator`, `sdci-net`'s
//! `TcpBroker`, which encodes the batch once during that call and
//! queues the bytes for each remote consumer's socket thread to write;
//! in a [`MonitorCluster`](crate::MonitorCluster), an in-process
//! broker's publisher. Store-before-publish is program order on the
//! ingest thread, so anything a consumer has seen announced is
//! retrievable from the historic API; the publish cannot stall ingest,
//! because every queue it feeds sheds when full rather than block.

use crate::store::{EventBackend, EventStore, StoreError};
use crossbeam_channel::{Receiver, RecvTimeoutError};
use sdci_mq::transport::Publish;
use sdci_types::bin::{Class, SeqEncoder};
use sdci_types::{BinDecodeError, BinPayload, BinReader, FileEvent};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A file event stamped with the Aggregator's global sequence number.
///
/// Sequence numbers are dense (1, 2, 3, ...), so consumers detect losses
/// as gaps and recover via the store API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedEvent {
    /// Global sequence number assigned at aggregation.
    pub seq: u64,
    /// The event.
    pub event: FileEvent,
}

/// What the Aggregator publishes on the consumer feed.
///
/// Heartbeats carry the highest assigned sequence number so a consumer
/// that missed the *tail* of a burst (shed at its high-water mark, with
/// nothing following to reveal the gap) still learns how far behind it
/// is and can recover from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedMessage {
    /// A sequenced file event.
    Event(SequencedEvent),
    /// A liveness/progress marker published while the feed is idle.
    Heartbeat {
        /// The highest sequence number assigned so far.
        last_seq: u64,
    },
}

/// Binary layout: `seq` as a delta against the predecessor's (of the
/// sequence class, [`Class::Seq`]) — a frame's first member's against
/// the last member's of the frame before when the frame continues its
/// connection ([`SeqEncoder::seq_before`]), against 0 otherwise — then the
/// event coded among the earlier members' events
/// ([`FileEvent::encode_among`]). As for the event, the members need not
/// be sequenced events themselves: `sev_of` says which one, if any, a
/// member holds, and the predecessor is the one right before this.
impl SequencedEvent {
    fn encode_among<'a, T>(
        &self,
        earlier: &'a [T],
        sev_of: impl Fn(&'a T) -> Option<&'a SequencedEvent>,
        seq: &mut SeqEncoder,
        buf: &mut Vec<u8>,
    ) {
        let prev = match earlier.last() {
            Some(member) => sev_of(member).map(|p| p.seq),
            None => seq.seq_before(),
        };
        seq.delta(buf, Class::Seq, self.seq, prev.unwrap_or(0));
        self.event.encode_among(earlier, |m| sev_of(m).map(|sev| &sev.event), seq, buf);
    }

    fn decode_among<'a, T>(
        r: &mut BinReader<'_>,
        earlier: &'a [T],
        sev_of: impl Fn(&'a T) -> Option<&'a SequencedEvent>,
    ) -> Result<SequencedEvent, BinDecodeError> {
        let prev = match earlier.last() {
            Some(member) => sev_of(member).map(|p| p.seq),
            None => r.seq_before(),
        };
        Ok(SequencedEvent {
            seq: r.delta(Class::Seq, prev.unwrap_or(0))?,
            event: FileEvent::decode_among(r, earlier, |m| sev_of(m).map(|sev| &sev.event))?,
        })
    }
}

impl BinPayload for SequencedEvent {
    fn encode_bin(&self, earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        self.encode_among(earlier, Some, seq, buf);
    }

    fn decode_bin(r: &mut BinReader<'_>, earlier: &[Self]) -> Result<Self, BinDecodeError> {
        SequencedEvent::decode_among(r, earlier, Some)
    }

    fn event(&self) -> Option<&FileEvent> {
        Some(&self.event)
    }

    fn seq(&self) -> Option<u64> {
        Some(self.seq)
    }
}

impl FeedMessage {
    /// The event a feed member holds: a heartbeat holds none, so it is
    /// neither an event's predecessor nor a path's base.
    fn as_event(&self) -> Option<&SequencedEvent> {
        match self {
            FeedMessage::Event(sev) => Some(sev),
            FeedMessage::Heartbeat { .. } => None,
        }
    }

    /// The sequence number this member carries, whichever variant it is:
    /// what a heartbeat's `last_seq` is coded against.
    fn progress(&self) -> u64 {
        match self {
            FeedMessage::Event(sev) => sev.seq,
            FeedMessage::Heartbeat { last_seq } => *last_seq,
        }
    }
}

/// Binary layout: a one-byte variant tag (`0` = `Event`, `1` =
/// `Heartbeat`; of the tag class, [`Class::Tag`]), then an `Event`'s [`SequencedEvent`] coded among the
/// earlier members — against the previous one when that was an `Event`
/// too, as a first member otherwise; its path may name any earlier
/// `Event` — or a `Heartbeat`'s `last_seq` as a delta against the
/// previous member's sequence number, whichever variant it was (of the
/// sequence class).
impl BinPayload for FeedMessage {
    fn encode_bin(&self, earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        match self {
            FeedMessage::Event(sev) => {
                seq.byte(buf, Class::Tag, 0);
                sev.encode_among(earlier, FeedMessage::as_event, seq, buf);
            }
            FeedMessage::Heartbeat { last_seq } => {
                seq.byte(buf, Class::Tag, 1);
                let prev = earlier.last().map_or(0, FeedMessage::progress);
                seq.delta(buf, Class::Seq, *last_seq, prev);
            }
        }
    }

    fn decode_bin(r: &mut BinReader<'_>, earlier: &[Self]) -> Result<Self, BinDecodeError> {
        match r.u8(Class::Tag)? {
            0 => SequencedEvent::decode_among(r, earlier, FeedMessage::as_event)
                .map(FeedMessage::Event),
            1 => Ok(FeedMessage::Heartbeat {
                last_seq: r.delta(Class::Seq, earlier.last().map_or(0, FeedMessage::progress))?,
            }),
            other => Err(BinDecodeError::msg(format!("invalid FeedMessage tag {other}"))),
        }
    }

    fn event(&self) -> Option<&FileEvent> {
        self.as_event().map(|sev| &sev.event)
    }

    /// An event's sequence number; a heartbeat carries none, so a frame
    /// it opens is never continued.
    fn seq(&self) -> Option<u64> {
        self.as_event().map(|sev| sev.seq)
    }
}

/// Counters for the [`Aggregator`].
#[derive(Debug, Default)]
pub struct AggregatorStats {
    /// Events received from Collectors.
    pub received: AtomicU64,
    /// Events inserted into the store.
    pub stored: AtomicU64,
    /// Events published to the consumer feed.
    pub published: AtomicU64,
    /// Store insert batches rejected for ordering violations. Any value
    /// above zero means the ingest thread has halted: the store refused
    /// a sequence the Aggregator assigned, so continuing would publish
    /// events that are not retrievable from the historic API.
    pub insert_errors: AtomicU64,
}

impl AggregatorStats {
    fn snapshot(&self) -> AggregatorSnapshot {
        AggregatorSnapshot {
            received: self.received.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            insert_errors: self.insert_errors.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`AggregatorStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggregatorSnapshot {
    /// Events received from Collectors.
    pub received: u64,
    /// Events inserted into the store.
    pub stored: u64,
    /// Events published to the consumer feed.
    pub published: u64,
    /// Store insert batches rejected for ordering violations (nonzero
    /// means ingest has halted).
    pub insert_errors: u64,
}

/// The running Aggregator: the ingest thread plus the shared store.
///
/// Generic over its [`EventBackend`], defaulting to the in-process
/// segmented [`EventStore`]; `sdcimon` hands [`Aggregator::start`] a
/// metered one (`Arc<dyn EventBackend>`). Ingest ends when its frame
/// queue closes: once every sender is dropped and the frames queued
/// before that are ingested.
pub struct Aggregator<B: EventBackend + ?Sized = EventStore> {
    store: Arc<B>,
    stats: Arc<AggregatorStats>,
    ingest: JoinHandle<()>,
}

impl<B: EventBackend + ?Sized> fmt::Debug for Aggregator<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aggregator").finish_non_exhaustive()
    }
}

/// How long the ingest thread waits for work before it considers a
/// heartbeat.
const IDLE: Duration = Duration::from_millis(5);

/// A feed that has published nothing — event or heartbeat — for this
/// long emits a heartbeat, so an idle feed repeats it this often and a
/// busy one does not interleave heartbeats with its event frames.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(20);

/// Ingest stops coalescing queued work into one batch at this many
/// events, so the store's write lock is taken once per burst but a
/// backlog cannot grow one batch without bound.
const MAX_INGEST_BATCH: usize = 256;

/// Frames queued for the ingest thread before Collectors block
/// (backpressure, never loss): the bound of `sdcimon`'s pull server and
/// of a [`MonitorCluster`](crate::MonitorCluster)'s in-process queue
/// alike — 131,072 events at the pusher's 512-event frame cap.
pub const INGEST_QUEUE_FRAMES: usize = 256;

impl<B: EventBackend + ?Sized + 'static> Aggregator<B> {
    /// Starts the Aggregator over `frames`, a queue of Collector batches
    /// (one `Vec` each: `sdci-net`'s `TcpPullServer::pull`, or the
    /// in-process channel a [`MonitorCluster`](crate::MonitorCluster)'s
    /// Collectors send to), and any [`EventBackend`]: a bare store, or
    /// one built by [`StoreStack`](crate::StoreStack). It publishes into
    /// `feed`, which moves into the ingest thread, on topic `"feed/all"`.
    /// Sequence numbering resumes after the backend's last event, so over
    /// a restored store consumers reconnecting with
    /// `subscribe_from(old_seq)` recover across the restart. A frame stays
    /// whole: it is sequenced, stored and published as one batch (joined
    /// by further frames only when they are already queued behind it).
    /// Ingest runs until every sender of `frames` is dropped and what they
    /// queued is ingested, or until the store refuses a batch.
    pub fn start(
        frames: Receiver<Vec<FileEvent>>,
        store: Arc<B>,
        feed: impl Publish<FeedMessage>,
    ) -> Self {
        let stats = Arc::new(AggregatorStats::default());

        let ingest = {
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("sdci-ingest".into())
                .spawn(move || ingest_loop(&frames, &*store, &stats, feed))
                // cannot fail: short of a thread refused by the OS, which no Aggregator outlives.
                .expect("spawn ingest thread")
        };

        Aggregator { store, stats, ingest }
    }

    /// The historic-event store (the Aggregator's query API). Reads
    /// never block ingest: all query paths take `&self`. For the
    /// default backend this is the [`SharedStore`](crate::SharedStore)
    /// handle callers have always had.
    pub fn store(&self) -> Arc<B> {
        Arc::clone(&self.store)
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> AggregatorSnapshot {
        self.stats.snapshot()
    }

    /// Registers a readiness probe under `name` with the process-wide
    /// health registry (served on `/healthz`). The probe reports
    /// unhealthy once ingest has halted because the store rejected a
    /// batch. Opt-in
    /// rather than automatic so unit tests that spin up throwaway
    /// aggregators do not pollute the global registry.
    pub fn register_health_probe(&self, name: &str) {
        let stats = Arc::clone(&self.stats);
        sdci_obs::health::register_probe(name, move || {
            match stats.insert_errors.load(Ordering::Relaxed) {
                0 => Ok(()),
                errors => Err(format!("ingest halted after {errors} store rejection(s)")),
            }
        });
    }

    /// Joins the ingest thread and returns the final counters. Ingest
    /// ends when its frame queue closes, so the caller drops every sender
    /// first; the frames queued before that are ingested.
    pub fn shutdown(self) -> AggregatorSnapshot {
        let _ = self.ingest.join();
        self.stats.snapshot()
    }
}

/// The ingest thread's loop: receive -> sequence -> store -> publish, one
/// batch at a time, with idle heartbeats so consumers that shed the tail
/// of a burst learn how far behind they are. It returns once every
/// sender of `frames` is gone and what they queued is ingested, or once
/// the store refuses a batch.
fn ingest_loop<B: EventBackend + ?Sized>(
    frames: &Receiver<Vec<FileEvent>>,
    store: &B,
    stats: &AggregatorStats,
    feed: impl Publish<FeedMessage>,
) {
    let mut seq = store.last_seq();
    // The highest sequence number the feed has announced: a
    // restored store's last, so an idle feed over it still
    // heartbeats; nothing before a fresh store's first event.
    let mut announced = seq;
    let mut last_publish = std::time::Instant::now();
    // One buffer for every batch the feed is handed.
    let mut feed_batch: Vec<FeedMessage> = Vec::new();
    loop {
        let first = match frames.recv_timeout(IDLE) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                if announced > 0 && last_publish.elapsed() >= HEARTBEAT_EVERY {
                    feed.publish("feed/all", FeedMessage::Heartbeat { last_seq: announced });
                    last_publish = std::time::Instant::now();
                }
                continue;
            }
        };
        let mut batch: Vec<SequencedEvent> = Vec::new();
        let mut next = Some(first);
        while let Some(frame) = next {
            batch.extend(frame.into_iter().map(|event| {
                seq += 1;
                SequencedEvent { seq, event }
            }));
            next = if batch.len() < MAX_INGEST_BATCH { frames.try_recv().ok() } else { None };
        }
        let n = batch.len() as u64;
        stats.received.fetch_add(n, Ordering::Relaxed);
        sdci_obs::static_metric!(counter, "sdci_aggregator_received_total").add(n);
        // Ingest span, adopting the first sampled event's
        // carried context. It is the thread's current span
        // while the insert runs, so the store's own spans
        // nest under it without any plumbing.
        let mut ingest_span = batch
            .iter()
            .find_map(|s| s.event.trace.filter(|t| t.sampled))
            .map(|t| sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "aggregator.ingest"));
        if let Some(span) = ingest_span.as_mut() {
            span.set_detail(|| format!("{n} events"));
        }
        if let Err(err) = store.insert_batch(batch.clone()) {
            // The store refused a batch this thread just
            // sequenced. An ordering rejection only happens
            // when something else wrote to the shared store
            // behind our back; pressing on would publish
            // events the historic API cannot serve, so halt
            // ingest and surface the fault through stats and
            // metrics instead of crashing the process.
            match &err {
                StoreError::Order(order) => sdci_obs::error!(
                    "aggregator ingest halted: store rejected batch: {order}";
                    last_seq = order.last_seq,
                    offered_seq = order.offered_seq,
                    batch_len = n
                ),
                other => sdci_obs::error!(
                    "aggregator ingest halted: store rejected batch: {other}";
                    batch_len = n
                ),
            }
            stats.insert_errors.fetch_add(1, Ordering::Relaxed);
            sdci_obs::static_metric!(counter, "sdci_aggregator_insert_errors_total").inc();
            return;
        }
        stats.stored.fetch_add(n, Ordering::Relaxed);
        sdci_obs::static_metric!(counter, "sdci_aggregator_stored_total").add(n);
        // Extraction→store lag, observed once per stamped
        // event now that the batch has landed.
        let now = sdci_obs::unix_now_ns();
        let lag = sdci_obs::static_metric!(histogram, "sdci_e2e_store_insert_latency_seconds");
        for extracted in batch.iter().filter_map(|s| s.event.extracted_unix_ns) {
            lag.observe_ns(now.saturating_sub(extracted));
        }
        drop(ingest_span);
        feed_batch.extend(batch.into_iter().map(FeedMessage::Event));
        feed.publish_batch("feed/all", &mut feed_batch);
        announced = seq;
        last_publish = std::time::Instant::now();
        stats.published.fetch_add(n, Ordering::Relaxed);
        sdci_obs::static_metric!(counter, "sdci_aggregator_published_total").add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreQuery;
    use crossbeam_channel::Sender;
    use sdci_mq::pubsub::Broker;
    use sdci_types::{ChangelogKind, EventKind, Fid, MdtIndex, SimTime};

    fn event(i: u64) -> FileEvent {
        FileEvent {
            index: i,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(i),
            path: format!("/f{i}").into(),
            src_path: None,
            target: Fid::new(1, i as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        }
    }

    /// An Aggregator over `store`, the queue its frames arrive on and the
    /// broker it publishes into.
    fn start_over(
        store: EventStore,
        feed_hwm: usize,
    ) -> (Sender<Vec<FileEvent>>, Aggregator, Broker<FeedMessage>) {
        let (push, frames) = crossbeam_channel::bounded(INGEST_QUEUE_FRAMES);
        let feed = Broker::new(feed_hwm);
        (push, Aggregator::start(frames, Arc::new(store), feed.publisher()), feed)
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let end = std::time::Instant::now() + deadline;
        while std::time::Instant::now() < end {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn sequences_stores_and_publishes() {
        let (events, agg, feed) = start_over(EventStore::new(1000), 1024);
        let consumer = feed.subscribe(&["feed/"]);
        for i in 1..=50 {
            events.send(vec![event(i)]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || agg.snapshot().published >= 50));
        let mut seqs = Vec::new();
        while let Some(msg) = consumer.try_recv() {
            if let FeedMessage::Event(sev) = msg.payload {
                seqs.push(sev.seq);
            }
        }
        assert_eq!(seqs, (1..=50).collect::<Vec<_>>(), "dense, ordered sequence numbers");
        assert_eq!(agg.store().len(), 50);
        drop(events);
        agg.shutdown();
    }

    #[test]
    fn store_is_ahead_of_feed() {
        // Anything seen on the feed must already be in the store.
        let (events, agg, feed) = start_over(EventStore::new(1000), 1024);
        let consumer = feed.subscribe(&["feed/"]);
        let store = agg.store();
        for i in 1..=200 {
            events.send(vec![event(i)]).unwrap();
        }
        let mut checked = 0;
        while checked < 200 {
            if let Some(msg) = consumer.recv_timeout(Duration::from_secs(5)) {
                let FeedMessage::Event(sev) = msg.payload else { continue };
                let seq = sev.seq;
                let found = store.query(&StoreQuery::after_seq(seq - 1).limit(1));
                assert!(
                    found.first().is_some_and(|e| e.seq == seq),
                    "event {seq} on feed but absent from store"
                );
                checked += 1;
            } else {
                panic!("feed stalled after {checked} events");
            }
        }
        drop(events);
        agg.shutdown();
    }

    #[test]
    fn store_rotates_at_capacity() {
        let (events, agg, _) = start_over(EventStore::new(10), 1024);
        for i in 1..=30 {
            events.send(vec![event(i)]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), || agg.snapshot().stored >= 30));
        let store = agg.store();
        assert_eq!(store.len(), 10);
        assert_eq!(store.first_seq(), 21);
        drop(events);
        agg.shutdown();
    }

    #[test]
    fn insert_failure_halts_ingest_and_surfaces_in_stats() {
        // Inject an ordered-insert failure: write a far-future sequence
        // into the shared store behind the ingest thread's back, so the
        // next sequence the Aggregator assigns is stale. The old code
        // died in `.expect(...)` and took the thread down silently; now
        // the error is counted, ingest halts, and shutdown still joins.
        let (events, agg, _) = start_over(EventStore::new(1000), 1024);
        events.send(vec![event(1)]).unwrap();
        assert!(wait_until(Duration::from_secs(5), || agg.snapshot().stored >= 1));

        agg.store()
            .insert(SequencedEvent { seq: 1_000_000, event: event(2) })
            .expect("out-of-band insert");
        events.send(vec![event(3)]).unwrap();

        assert!(
            wait_until(Duration::from_secs(5), || agg.snapshot().insert_errors == 1),
            "ordered-insert failure must surface through AggregatorSnapshot"
        );
        let snap = agg.snapshot();
        assert_eq!(snap.stored, 1, "rejected batch must not count as stored");
        assert_eq!(snap.received, 2, "the offending event was still received");
        drop(events);
        agg.shutdown();
    }

    #[test]
    fn idle_feed_heartbeats_last_seq() {
        let (events, agg, feed) = start_over(EventStore::new(1000), 1024);
        let consumer = feed.subscribe(&["feed/"]);
        // Nothing is announced before the first event, however long the
        // feed idles.
        assert!(consumer.recv_timeout(Duration::from_millis(60)).is_none());
        for i in 1..=50 {
            events.send(vec![event(i)]).unwrap();
        }
        for seq in 1..=50 {
            let msg = consumer.recv_timeout(Duration::from_secs(5)).expect("feed stalled");
            assert_eq!(msg.payload, FeedMessage::Event(SequencedEvent { seq, event: event(seq) }));
        }
        // Silence: the heartbeat arrives within 100 ms, and repeats.
        for _ in 0..3 {
            let beat = consumer.recv_timeout(Duration::from_millis(100)).expect("no heartbeat");
            assert_eq!(beat.payload, FeedMessage::Heartbeat { last_seq: 50 });
        }
        drop(events);
        agg.shutdown();
    }

    #[test]
    fn idle_feed_over_a_restored_store_heartbeats_its_last_seq() {
        // A restart over a store holding 1..=10 and no new traffic: the
        // heartbeat alone tells a consumer from 0 to backfill.
        let store = EventStore::new(1000);
        for seq in 1..=10 {
            store.insert(SequencedEvent { seq, event: event(seq) }).expect("ordered insert");
        }
        let (events, agg, feed) = start_over(store, 1024);
        let mut consumer = crate::EventConsumer::new(feed.subscribe(&["feed/"]), agg.store(), 0);
        let first = consumer.next_timeout(Duration::from_secs(2)).expect("no backfill");
        assert_eq!(first, event(1));
        drop(events);
        agg.shutdown();
    }

    /// Closing the queue is what ends ingest: the frames queued before the
    /// close are all stored, and only then does the thread exit.
    #[test]
    fn a_closed_queue_is_ingested_then_ends_ingest() {
        let (events, agg, _) = start_over(EventStore::new(1000), 16);
        for i in 1..=100 {
            events.send(vec![event(i)]).unwrap();
        }
        drop(events);
        let snap = agg.shutdown();
        assert_eq!((snap.received, snap.stored, snap.published), (100, 100, 100));
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (events, agg, _) = start_over(EventStore::new(10), 16);
        drop(events);
        agg.shutdown();
    }
}
