//! The Aggregator (§4, step 3).
//!
//! "Once an event is reported to the Aggregator it is immediately placed
//! in a queue to be processed. The Aggregator is multi-threaded, enabling
//! it to both publish events to subscribed consumers and store the events
//! in a local database with minimal overhead."
//!
//! The implementation uses two threads: an *ingest* thread that receives
//! Collector events, assigns global sequence numbers, and inserts into
//! the [`EventStore`]; and a *publish* thread that fans stored events out
//! to subscribed consumers. Store-before-publish ordering guarantees that
//! anything a consumer has seen announced is retrievable from the
//! historic API.

use crate::store::{EventBackend, EventStore, StoreError};
use sdci_mq::pipe::{pipeline, Pull, Push};
use sdci_mq::pubsub::Broker;
use sdci_mq::transport::Subscribe;
use sdci_types::{FileEvent, TraceCarrier, TraceContext};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A file event stamped with the Aggregator's global sequence number.
///
/// Sequence numbers are dense (1, 2, 3, ...), so consumers detect losses
/// as gaps and recover via the store API.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedMessage {
    /// A sequenced file event.
    Event(SequencedEvent),
    /// A liveness/progress marker published while the feed is idle.
    Heartbeat {
        /// The highest sequence number assigned so far.
        last_seq: u64,
    },
}

/// Binary layout: `seq` as a delta against the previous member's, then
/// the event coded against the previous member's event.
impl sdci_types::BinPayload for SequencedEvent {
    fn encode_bin(&self, prev: Option<&Self>, buf: &mut Vec<u8>) {
        sdci_types::bin::put_delta(buf, self.seq, prev.map_or(0, |p| p.seq));
        self.event.encode_bin(prev.map(|p| &p.event), buf);
    }

    fn decode_bin(
        r: &mut sdci_types::BinReader<'_>,
        prev: Option<&Self>,
    ) -> Result<Self, sdci_types::BinDecodeError> {
        Ok(SequencedEvent {
            seq: r.delta(prev.map_or(0, |p| p.seq))?,
            event: FileEvent::decode_bin(r, prev.map(|p| &p.event))?,
        })
    }
}

impl FeedMessage {
    /// The previous feed member as an event's predecessor: a heartbeat
    /// between two events is not one.
    fn as_event(&self) -> Option<&SequencedEvent> {
        match self {
            FeedMessage::Event(sev) => Some(sev),
            FeedMessage::Heartbeat { .. } => None,
        }
    }

    /// The sequence number this member carries, whichever variant it is.
    fn seq(&self) -> u64 {
        match self {
            FeedMessage::Event(sev) => sev.seq,
            FeedMessage::Heartbeat { last_seq } => *last_seq,
        }
    }
}

/// Binary layout: a one-byte variant tag (`0` = `Event`, `1` =
/// `Heartbeat`), then an `Event`'s [`SequencedEvent`] coded against the
/// previous member when that was an `Event` too (as a first member
/// otherwise), or a `Heartbeat`'s `last_seq` as a delta against the
/// previous member's sequence number, whichever variant it was.
impl sdci_types::BinPayload for FeedMessage {
    fn encode_bin(&self, prev: Option<&Self>, buf: &mut Vec<u8>) {
        match self {
            FeedMessage::Event(sev) => {
                buf.push(0);
                sev.encode_bin(prev.and_then(FeedMessage::as_event), buf);
            }
            FeedMessage::Heartbeat { last_seq } => {
                buf.push(1);
                sdci_types::bin::put_delta(buf, *last_seq, prev.map_or(0, FeedMessage::seq));
            }
        }
    }

    fn decode_bin(
        r: &mut sdci_types::BinReader<'_>,
        prev: Option<&Self>,
    ) -> Result<Self, sdci_types::BinDecodeError> {
        match r.u8()? {
            0 => Ok(FeedMessage::Event(SequencedEvent::decode_bin(
                r,
                prev.and_then(FeedMessage::as_event),
            )?)),
            1 => {
                Ok(FeedMessage::Heartbeat { last_seq: r.delta(prev.map_or(0, FeedMessage::seq))? })
            }
            other => {
                Err(sdci_types::BinDecodeError::msg(format!("invalid FeedMessage tag {other}")))
            }
        }
    }
}

/// A sequenced event carries whatever context its inner event does, so
/// network endpoints treat both shapes uniformly.
impl TraceCarrier for SequencedEvent {
    fn trace_context(&self) -> Option<TraceContext> {
        self.event.trace_context()
    }
}

/// Heartbeats carry no context; events delegate to the payload.
impl TraceCarrier for FeedMessage {
    fn trace_context(&self) -> Option<TraceContext> {
        match self {
            FeedMessage::Event(sev) => sev.trace_context(),
            FeedMessage::Heartbeat { .. } => None,
        }
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

/// The running Aggregator: two threads plus shared store.
///
/// Generic over its [`EventBackend`], defaulting to the in-process
/// segmented [`EventStore`]; `sdcimon` hands it a metered one
/// (`Arc<dyn EventBackend>`) via [`Aggregator::start_with_backend`].
pub struct Aggregator<B: EventBackend + ?Sized = EventStore> {
    store: Arc<B>,
    feed: Broker<FeedMessage>,
    stats: Arc<AggregatorStats>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl<B: EventBackend + ?Sized> fmt::Debug for Aggregator<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aggregator").field("threads", &self.threads.len()).finish()
    }
}

impl Aggregator<EventStore> {
    /// Starts the Aggregator over `events` (the Collector-side
    /// subscription), with a store retaining `store_capacity` events and
    /// a consumer feed with the given high-water mark.
    ///
    /// `events` is any [`Subscribe`] stream: an in-process broker
    /// subscription, or (via `sdci-net`) a TCP PULL endpoint fed by
    /// remote Collectors.
    pub fn start<S>(events: S, store_capacity: usize, feed_hwm: usize) -> Self
    where
        S: Subscribe<FileEvent>,
    {
        Self::start_with_store(events, EventStore::new(store_capacity), feed_hwm)
    }

    /// Starts the Aggregator with a pre-populated store (restored from a
    /// snapshot after a crash). Sequence
    /// numbering resumes after the snapshot's last event, so consumers
    /// reconnecting with `subscribe_from(old_seq)` recover seamlessly
    /// across the restart.
    pub fn start_with_store<S>(events: S, store: EventStore, feed_hwm: usize) -> Self
    where
        S: Subscribe<FileEvent>,
    {
        Aggregator::start_with_backend(events, Arc::new(store), feed_hwm)
    }
}

impl<B: EventBackend + ?Sized + 'static> Aggregator<B> {
    /// Starts the Aggregator over any [`EventBackend`] — a bare store,
    /// or one built by [`StoreStack`](crate::StoreStack). Sequence
    /// numbering resumes after the backend's last event.
    pub fn start_with_backend<S>(events: S, store: Arc<B>, feed_hwm: usize) -> Self
    where
        S: Subscribe<FileEvent>,
    {
        let resume_seq = store.last_seq();
        let feed: Broker<FeedMessage> = Broker::new(feed_hwm);
        let stats = Arc::new(AggregatorStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let last_seq = Arc::new(AtomicU64::new(0));
        // The internal store->publish hand-off is sized independently of
        // the consumer HWM: stalling it would back-pressure ingest and
        // lose events *before* the store.
        let (to_publish, publish_queue): (Push<SequencedEvent>, Pull<SequencedEvent>) =
            pipeline(feed_hwm.max(65_536));

        // Ingest thread: receive -> sequence -> store -> hand off. Under
        // load the queue is drained into a single `insert_batch` call so
        // the store's write lock is taken once per burst, not once per
        // event; when the feed is trickling the batch degenerates to one
        // event and behaves exactly like the per-event path.
        let ingest = {
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let last_seq = Arc::clone(&last_seq);
            std::thread::spawn(move || {
                const MAX_INGEST_BATCH: usize = 256;
                let mut seq = resume_seq;
                'ingest: loop {
                    let first = match events.recv_timeout(Duration::from_millis(5)) {
                        Some(msg) => msg,
                        None => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            continue;
                        }
                    };
                    let mut batch = Vec::with_capacity(16);
                    seq += 1;
                    batch.push(SequencedEvent { seq, event: first.payload });
                    while batch.len() < MAX_INGEST_BATCH {
                        match events.try_recv() {
                            Some(msg) => {
                                seq += 1;
                                batch.push(SequencedEvent { seq, event: msg.payload });
                            }
                            None => break,
                        }
                    }
                    let n = batch.len() as u64;
                    stats.received.fetch_add(n, Ordering::Relaxed);
                    sdci_obs::static_metric!(counter, "sdci_aggregator_received_total").add(n);
                    // Ingest span, adopting the first sampled event's
                    // carried context. It is the thread's current span
                    // while the insert runs, so the store's own spans
                    // nest under it without any plumbing.
                    let mut ingest_span =
                        batch.iter().find_map(|s| s.event.trace.filter(|t| t.sampled)).map(|t| {
                            sdci_obs::trace::child_of(
                                t.trace_id,
                                t.parent_span_id,
                                "aggregator.ingest",
                            )
                        });
                    if let Some(span) = ingest_span.as_mut() {
                        span.set_detail(format!("{n} events"));
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
                        sdci_obs::static_metric!(counter, "sdci_aggregator_insert_errors_total")
                            .inc();
                        stop.store(true, Ordering::Relaxed);
                        break 'ingest;
                    }
                    stats.stored.fetch_add(n, Ordering::Relaxed);
                    sdci_obs::static_metric!(counter, "sdci_aggregator_stored_total").add(n);
                    // Extraction→store lag, observed once per stamped
                    // event now that the batch has landed.
                    let now = sdci_obs::unix_now_ns();
                    let lag = sdci_obs::static_metric!(
                        histogram,
                        "sdci_e2e_store_insert_latency_seconds"
                    );
                    for extracted in batch.iter().filter_map(|s| s.event.extracted_unix_ns) {
                        lag.observe_ns(now.saturating_sub(extracted));
                    }
                    last_seq.store(seq, Ordering::Relaxed);
                    drop(ingest_span);
                    for sev in batch {
                        if !to_publish.send(sev) {
                            break 'ingest; // publisher gone
                        }
                    }
                }
            })
        };

        // Publish thread: fan out to consumers, with idle heartbeats so
        // consumers that shed the tail of a burst learn how far behind
        // they are.
        let publish = {
            let feed = feed.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let last_seq = Arc::clone(&last_seq);
            std::thread::spawn(move || {
                let publisher = feed.publisher();
                let mut last_heartbeat = std::time::Instant::now();
                loop {
                    match publish_queue.recv_timeout(Duration::from_millis(5)) {
                        Some(sev) => {
                            publisher.publish("feed/all", FeedMessage::Event(sev));
                            stats.published.fetch_add(1, Ordering::Relaxed);
                            sdci_obs::static_metric!(counter, "sdci_aggregator_published_total")
                                .inc();
                        }
                        None => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            if last_heartbeat.elapsed() >= Duration::from_millis(20) {
                                let seq = last_seq.load(Ordering::Relaxed);
                                if seq > 0 {
                                    publisher.publish(
                                        "feed/all",
                                        FeedMessage::Heartbeat { last_seq: seq },
                                    );
                                }
                                last_heartbeat = std::time::Instant::now();
                            }
                        }
                    }
                }
            })
        };

        Aggregator { store, feed, stats, stop, threads: vec![ingest, publish] }
    }

    /// The consumer-facing feed broker; subscribe with topic prefix
    /// `"feed/"`.
    pub fn feed(&self) -> &Broker<FeedMessage> {
        &self.feed
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
        AggregatorSnapshot {
            received: self.stats.received.load(Ordering::Relaxed),
            stored: self.stats.stored.load(Ordering::Relaxed),
            published: self.stats.published.load(Ordering::Relaxed),
            insert_errors: self.stats.insert_errors.load(Ordering::Relaxed),
        }
    }

    /// Registers a readiness probe under `name` with the process-wide
    /// health registry (served on `/healthz`). The probe reports
    /// unhealthy once ingest has halted — either because the store
    /// rejected a batch or because shutdown has been signalled. Opt-in
    /// rather than automatic so unit tests that spin up throwaway
    /// aggregators do not pollute the global registry.
    pub fn register_health_probe(&self, name: &str) {
        let stats = Arc::clone(&self.stats);
        let stop = Arc::clone(&self.stop);
        sdci_obs::health::register_probe(name, move || {
            let errors = stats.insert_errors.load(Ordering::Relaxed);
            if errors > 0 {
                return Err(format!("ingest halted after {errors} store rejection(s)"));
            }
            if stop.load(Ordering::Relaxed) {
                return Err("aggregator stopped".to_string());
            }
            Ok(())
        });
    }

    /// Signals the threads to stop once their queues drain and joins
    /// them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<B: EventBackend + ?Sized> Drop for Aggregator<B> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreQuery;
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
        let broker: Broker<FileEvent> = Broker::new(1024);
        let agg = Aggregator::start(broker.subscribe(&["events/"]), 1000, 1024);
        let consumer = agg.feed().subscribe(&["feed/"]);
        let p = broker.publisher();
        for i in 1..=50 {
            p.publish("events/mdt0", event(i));
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
        agg.shutdown();
    }

    #[test]
    fn store_is_ahead_of_feed() {
        // Anything seen on the feed must already be in the store.
        let broker: Broker<FileEvent> = Broker::new(1024);
        let agg = Aggregator::start(broker.subscribe(&["events/"]), 1000, 1024);
        let consumer = agg.feed().subscribe(&["feed/"]);
        let store = agg.store();
        let p = broker.publisher();
        for i in 1..=200 {
            p.publish("events/mdt0", event(i));
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
        agg.shutdown();
    }

    #[test]
    fn store_rotates_at_capacity() {
        let broker: Broker<FileEvent> = Broker::new(1024);
        let agg = Aggregator::start(broker.subscribe(&["events/"]), 10, 1024);
        let p = broker.publisher();
        for i in 1..=30 {
            p.publish("events/mdt0", event(i));
        }
        assert!(wait_until(Duration::from_secs(5), || agg.snapshot().stored >= 30));
        let store = agg.store();
        assert_eq!(store.len(), 10);
        assert_eq!(store.first_seq(), 21);
        agg.shutdown();
    }

    #[test]
    fn insert_failure_halts_ingest_and_surfaces_in_stats() {
        // Inject an ordered-insert failure: write a far-future sequence
        // into the shared store behind the ingest thread's back, so the
        // next sequence the Aggregator assigns is stale. The old code
        // died in `.expect(...)` and took the thread down silently; now
        // the error is counted, ingest halts, and shutdown still joins.
        let broker: Broker<FileEvent> = Broker::new(1024);
        let agg = Aggregator::start(broker.subscribe(&["events/"]), 1000, 1024);
        let p = broker.publisher();
        p.publish("events/mdt0", event(1));
        assert!(wait_until(Duration::from_secs(5), || agg.snapshot().stored >= 1));

        agg.store()
            .insert(SequencedEvent { seq: 1_000_000, event: event(2) })
            .expect("out-of-band insert");
        p.publish("events/mdt0", event(3));

        assert!(
            wait_until(Duration::from_secs(5), || agg.snapshot().insert_errors == 1),
            "ordered-insert failure must surface through AggregatorSnapshot"
        );
        let snap = agg.snapshot();
        assert_eq!(snap.stored, 1, "rejected batch must not count as stored");
        assert_eq!(snap.received, 2, "the offending event was still received");
        agg.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let broker: Broker<FileEvent> = Broker::new(16);
        let agg = Aggregator::start(broker.subscribe(&["events/"]), 10, 16);
        agg.shutdown();
    }
}
