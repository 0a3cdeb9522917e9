//! Wiring: one Collector thread per MDT + the Aggregator (Figure 2).

use crate::aggregator::{Aggregator, AggregatorSnapshot, FeedMessage, INGEST_QUEUE_FRAMES};
use crate::collector::{Collector, CollectorStats};
use crate::config::MonitorConfig;
use crate::consumer::EventConsumer;
use crate::store::{EventStore, StoreStats};
use lustre_sim::LustreFs;
use parking_lot::Mutex;
use sdci_mq::pipe::pipeline;
use sdci_mq::pubsub::Broker;
use sdci_types::{FileEvent, MdtIndex};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a live Collector thread sleeps when its ChangeLog is empty.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Builder for a [`MonitorCluster`].
pub struct MonitorClusterBuilder {
    fs: Arc<Mutex<LustreFs>>,
    config: MonitorConfig,
    restored_store: Option<EventStore>,
}

impl fmt::Debug for MonitorClusterBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorClusterBuilder").field("config", &self.config).finish()
    }
}

impl MonitorClusterBuilder {
    /// Starts building a monitor over a shared filesystem.
    pub fn new(fs: Arc<Mutex<LustreFs>>) -> Self {
        MonitorClusterBuilder { fs, config: MonitorConfig::default(), restored_store: None }
    }

    /// Overrides the configuration.
    pub fn config(mut self, config: MonitorConfig) -> Self {
        self.config = config;
        self
    }

    /// Seeds the Aggregator with a store restored from a snapshot
    /// (see [`crate::restore_snapshot`]); sequence numbering resumes
    /// after the snapshot.
    pub fn restore_store(mut self, store: EventStore) -> Self {
        self.restored_store = Some(store);
        self
    }

    /// Deploys one Collector thread per MDT plus the Aggregator, joined
    /// by an in-process frame queue (one frame per Collector batch; a
    /// full queue blocks the Collectors, never sheds), and begins
    /// monitoring. The Aggregator publishes into the cluster's feed
    /// broker, whose subscribers buffer up to
    /// [`MonitorConfig::feed_hwm`] messages each.
    pub fn start(self) -> MonitorCluster {
        let (events, frames) = pipeline::<Vec<FileEvent>>(INGEST_QUEUE_FRAMES);
        let mdt_count = self.fs.lock().mdt_count();
        let store =
            self.restored_store.unwrap_or_else(|| EventStore::new(self.config.store_capacity));
        let feed = Broker::new(self.config.feed_hwm);
        let aggregator = Aggregator::start(frames, Arc::new(store), feed.publisher());
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let mut collector_stats: Vec<Arc<Mutex<CollectorStats>>> = Vec::new();
        for mdt in 0..mdt_count {
            let mut collector = Collector::new(
                Arc::clone(&self.fs),
                MdtIndex::new(mdt),
                events.clone(),
                self.config.clone(),
            );
            let shared = Arc::new(Mutex::new(CollectorStats::default()));
            collector_stats.push(Arc::clone(&shared));
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                loop {
                    let handled = collector.run_once();
                    *shared.lock() = collector.stats();
                    if handled == 0 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
                collector.ack_and_purge();
                *shared.lock() = collector.stats();
            }));
        }
        MonitorCluster {
            aggregator,
            feed,
            collector_stats,
            threads,
            stop,
            last_consumer_seq: Mutex::new(0),
        }
    }
}

/// Statistics snapshot across the whole monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-MDT Collector counters.
    pub collectors: Vec<CollectorStats>,
    /// Aggregator counters.
    pub aggregator: AggregatorSnapshot,
    /// Store counters.
    pub store: StoreStats,
}

impl ClusterStats {
    /// Total events processed (post-resolution) across Collectors.
    pub fn total_processed(&self) -> u64 {
        self.collectors.iter().map(|c| c.processed).sum()
    }

    /// Total records extracted across Collectors.
    pub fn total_extracted(&self) -> u64 {
        self.collectors.iter().map(|c| c.extracted).sum()
    }

    /// Aggregate path-cache hit rate across Collectors, `[0, 1]`.
    ///
    /// The denominator is the total number of *resolutions attempted*:
    /// `cache_hits + fid2path_calls`. These two counters are disjoint by
    /// construction — a Collector increments `fid2path_calls` **only on
    /// a cache miss** (it is the count of fallback `fid2path` RPCs, not
    /// of all lookups), and `cache_hits` only on a hit — so the sum does
    /// not double-count and the ratio is the true hit fraction. A
    /// resolution that misses the cache counts once, under
    /// `fid2path_calls`, whether or not the RPC then succeeds.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.collectors.iter().map(|c| c.cache_hits).sum();
        let calls: u64 = self.collectors.iter().map(|c| c.fid2path_calls).sum();
        if hits + calls == 0 {
            0.0
        } else {
            hits as f64 / (hits + calls) as f64
        }
    }
}

/// A running monitor deployment (Collectors + Aggregator).
pub struct MonitorCluster {
    aggregator: Aggregator,
    feed: Broker<FeedMessage>,
    collector_stats: Vec<Arc<Mutex<CollectorStats>>>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    last_consumer_seq: Mutex<u64>,
}

impl fmt::Debug for MonitorCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorCluster").field("collectors", &self.collector_stats.len()).finish()
    }
}

impl MonitorCluster {
    /// Subscribes a new consumer to the complete site-wide event feed.
    pub fn subscribe(&self) -> EventConsumer {
        let sub = self.feed.subscribe(&["feed/"]);
        EventConsumer::new(sub, self.aggregator.store(), *self.last_consumer_seq.lock())
    }

    /// Subscribes a consumer restricted to events under `prefix` — a
    /// targeted rule over the site-wide feed.
    pub fn subscribe_under(&self, prefix: impl Into<std::path::PathBuf>) -> EventConsumer {
        self.subscribe().under(prefix)
    }

    /// Subscribes a consumer that resumes after `last_seen_seq` (a
    /// reconnect), recovering the in-between events from the store.
    pub fn subscribe_from(&self, last_seen_seq: u64) -> EventConsumer {
        let sub = self.feed.subscribe(&["feed/"]);
        EventConsumer::new(sub, self.aggregator.store(), last_seen_seq)
    }

    /// Direct access to the Aggregator's historic store API. All read
    /// paths take `&self`, so callers query without any locking.
    pub fn store(&self) -> crate::store::SharedStore {
        self.aggregator.store()
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            collectors: self.collector_stats.iter().map(|s| *s.lock()).collect(),
            aggregator: self.aggregator.snapshot(),
            store: self.aggregator.store().stats(),
        }
    }

    /// Blocks until the Aggregator has published at least `n` events or
    /// `timeout` elapses. Returns `true` on success.
    pub fn wait_for_published(&self, n: u64, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.aggregator.snapshot().published >= n {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        false
    }

    /// Stops Collectors (after they drain their ChangeLogs) and the
    /// Aggregator, joining all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Replace the aggregator with a shut-down husk by taking it out.
        // (Aggregator::shutdown consumes; we own self.)
        let MonitorCluster { aggregator, .. } = self;
        aggregator.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lustre_sim::{DnePolicy, LustreConfig};
    use sdci_types::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Pins the hit-rate denominator: `fid2path_calls` counts ONLY
    /// cache misses, so hits/(hits + fid2path_calls) is hits over total
    /// attempts — 30 hits out of 40 lookups is 0.75, not 30/(30+40) as
    /// it would be if the denominator double-counted hits.
    #[test]
    fn cache_hit_rate_denominator_is_attempted_resolutions() {
        let rate = |cache_hits, fid2path_calls| {
            ClusterStats {
                collectors: vec![
                    CollectorStats { cache_hits, fid2path_calls, ..CollectorStats::default() },
                    CollectorStats::default(),
                ],
                aggregator: AggregatorSnapshot::default(),
                store: StoreStats::default(),
            }
            .cache_hit_rate()
        };
        assert_eq!(rate(0, 0), 0.0, "no resolutions attempted");
        assert!((rate(30, 10) - 0.75).abs() < 1e-9);
        assert_eq!(rate(0, 10), 0.0);
        assert_eq!(rate(10, 0), 1.0);
    }

    /// The same pin against a live Collector's counters: one `fid2path`
    /// call (the directory, cold) and 20 sibling hits is 20/21.
    #[test]
    fn cache_hit_rate_matches_a_live_collector() {
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let (events, _frames) = pipeline::<Vec<FileEvent>>(16);
        let mut collector =
            Collector::new(Arc::clone(&fs), MdtIndex::new(0), events, MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/d", t(0)).unwrap();
            for i in 0..20 {
                guard.create(format!("/d/f{i}"), t(1)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let stats = ClusterStats {
            collectors: vec![collector.stats()],
            aggregator: AggregatorSnapshot::default(),
            store: StoreStats::default(),
        };
        assert!((stats.cache_hit_rate() - 20.0 / 21.0).abs() < 1e-9);
    }

    /// The in-process link is lossless: with ingest stalled, a Collector
    /// publishing more frames than the queue holds blocks instead of
    /// shedding, and once ingest resumes every event is stored exactly
    /// once, in the Collector's order.
    #[test]
    fn a_stalled_aggregator_blocks_its_collector_and_loses_nothing() {
        use crate::aggregator::SequencedEvent;
        use crate::store::{EventBackend, StoreError, StoreQuery};

        /// A store whose inserts wait until `open` is set.
        struct Latched {
            store: EventStore,
            open: AtomicBool,
        }
        impl EventBackend for Latched {
            fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreError> {
                while !self.open.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                EventBackend::insert_batch(&self.store, events)
            }
            fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
                self.store.query(query)
            }
            fn last_seq(&self) -> u64 {
                self.store.last_seq()
            }
        }

        // One event a frame. A stalled ingest thread holds at most one
        // batch of 256 events and the queue as many frames, so a
        // Collector with four times the bound to push must block.
        let files = 4 * INGEST_QUEUE_FRAMES;
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let (events, frames) = pipeline::<Vec<FileEvent>>(INGEST_QUEUE_FRAMES);
        let queue = events.clone();
        let store =
            Arc::new(Latched { store: EventStore::new(files), open: AtomicBool::new(false) });
        let feed = Broker::new(16);
        let aggregator = Aggregator::start(frames, Arc::clone(&store), feed.publisher());
        let config = MonitorConfig { batch_size: 1, ..MonitorConfig::default() };
        let mut collector = Collector::new(Arc::clone(&fs), MdtIndex::new(0), events, config);
        {
            let mut guard = fs.lock();
            for i in 0..files {
                guard.create(format!("/f{i}"), t(i as u64)).unwrap();
            }
        }
        let pusher = std::thread::spawn(move || {
            while collector.run_once() > 0 {}
            collector.stats()
        });

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while queue.queued() < INGEST_QUEUE_FRAMES && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(queue.queued(), INGEST_QUEUE_FRAMES, "the queue fills while ingest stalls");
        assert!(!pusher.is_finished(), "a full queue blocks the Collector");

        store.open.store(true, Ordering::SeqCst);
        let stats = pusher.join().expect("collector thread");
        assert_eq!((stats.processed, stats.published, stats.shed), (files as u64, files as u64, 0));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while aggregator.snapshot().stored < files as u64 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stored = store.query(&StoreQuery::after_seq(0));
        let paths: Vec<String> =
            stored.iter().map(|e| e.event.path.display().to_string()).collect();
        assert_eq!(paths, (0..files).map(|i| format!("/f{i}")).collect::<Vec<_>>());
        assert!(stored.iter().map(|e| e.seq).eq(1..=files as u64));
        aggregator.shutdown();
    }

    #[test]
    fn end_to_end_single_mdt() {
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let cluster = MonitorClusterBuilder::new(Arc::clone(&fs)).start();
        let mut consumer = cluster.subscribe();
        {
            let mut guard = fs.lock();
            guard.mkdir("/exp", t(0)).unwrap();
            for i in 0..50 {
                guard.create(format!("/exp/f{i}"), t(i)).unwrap();
            }
        }
        let mut got = Vec::new();
        while got.len() < 51 {
            match consumer.next_timeout(Duration::from_secs(5)) {
                Some(ev) => got.push(ev),
                None => panic!("timed out after {} events", got.len()),
            }
        }
        assert_eq!(got[0].path, std::path::PathBuf::from("/exp"));
        assert_eq!(cluster.stats().total_processed(), 51);
        cluster.shutdown();
        // ChangeLog purged on shutdown.
        assert!(fs.lock().changelog(MdtIndex::new(0)).is_empty());
    }

    #[test]
    fn end_to_end_multi_mdt_captures_all_events() {
        let fs = Arc::new(Mutex::new(LustreFs::new(
            LustreConfig::builder("multi")
                .mdt_count(4)
                .dne_policy(DnePolicy::RoundRobinTopLevel)
                .build(),
        )));
        let cluster = MonitorClusterBuilder::new(Arc::clone(&fs)).start();
        let mut consumer = cluster.subscribe();
        let total = {
            let mut guard = fs.lock();
            for d in 0..8 {
                guard.mkdir(format!("/d{d}"), t(0)).unwrap();
                for f in 0..10 {
                    guard.create(format!("/d{d}/f{f}"), t(1)).unwrap();
                }
            }
            guard.total_events()
        };
        assert_eq!(total, 88);
        let mut got = 0;
        while got < total {
            if consumer.next_timeout(Duration::from_secs(5)).is_some() {
                got += 1;
            } else {
                panic!("site-wide feed stalled at {got}/{total}");
            }
        }
        let stats = cluster.stats();
        assert_eq!(stats.collectors.len(), 4);
        assert!(
            stats.collectors.iter().filter(|c| c.processed > 0).count() >= 4,
            "all four Collectors saw events: {stats:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn reconnecting_consumer_recovers_history() {
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let cluster = MonitorClusterBuilder::new(Arc::clone(&fs)).start();
        {
            let mut guard = fs.lock();
            for i in 0..20 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        assert!(cluster.wait_for_published(20, Duration::from_secs(5)));
        // A consumer connecting *now* missed all 20 live publications but
        // recovers them through the store.
        let mut consumer = cluster.subscribe_from(0);
        {
            let mut guard = fs.lock();
            guard.create("/late", t(100)).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 21 {
            match consumer.next_timeout(Duration::from_secs(5)) {
                Some(ev) => got.push(ev),
                None => panic!("recovered only {}", got.len()),
            }
        }
        assert_eq!(consumer.stats().recovered, 20);
        assert_eq!(got.last().unwrap().path, std::path::PathBuf::from("/late"));
        cluster.shutdown();
    }

    #[test]
    fn no_loss_once_processed() {
        // §5.2: "there is no loss of events once they have been
        // processed" — every processed event reaches the store/feed.
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let cluster = MonitorClusterBuilder::new(Arc::clone(&fs)).start();
        {
            let mut guard = fs.lock();
            guard.mkdir("/w", t(0)).unwrap();
            for i in 0..500 {
                guard.create(format!("/w/f{i}"), t(i)).unwrap();
                if i % 3 == 0 {
                    guard.write(format!("/w/f{i}"), 10, t(i)).unwrap();
                }
                if i % 5 == 0 {
                    guard.unlink(format!("/w/f{i}"), t(i)).unwrap();
                }
            }
        }
        let total = fs.lock().total_events();
        assert!(cluster.wait_for_published(total, Duration::from_secs(10)));
        let stats = cluster.stats();
        assert_eq!(stats.total_processed(), total);
        assert_eq!(stats.aggregator.received, total);
        assert_eq!(stats.aggregator.stored, total);
        assert_eq!(stats.aggregator.published, total);
        cluster.shutdown();
    }
}
