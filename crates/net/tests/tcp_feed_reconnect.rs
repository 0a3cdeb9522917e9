//! Kill-the-feed integration: an [`EventConsumer`] reading the
//! Aggregator's feed over TCP keeps a consistent, ordered view across a
//! feed-server restart by backfilling the gap from the store (§4 step 3
//! fault tolerance, over real sockets). The restarted endpoint serves the
//! same [`TcpBroker`] the Aggregator has published into all along.

use sdci_core::{Aggregator, EventConsumer, EventStore, FeedMessage, INGEST_QUEUE_FRAMES};
use sdci_mq::pipe::pipeline;
use sdci_net::{Endpoint, NetConfig, RetryPolicy, TcpBroker, TcpSubscriber};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::sync::Arc;
use std::time::Duration;

fn fast_cfg() -> NetConfig {
    NetConfig {
        hwm: 8192,
        window: 1024,
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(500),
        ..NetConfig::default()
    }
}

fn event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(i),
        path: format!("/feed/f{i}").into(),
        src_path: None,
        target: Fid::new(1, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

#[test]
fn consumer_backfills_events_published_while_the_feed_server_was_down() {
    let cfg = fast_cfg();
    // In-process aggregator; only the consumer feed crosses TCP here.
    let (events, frames) = pipeline::<Vec<FileEvent>>(INGEST_QUEUE_FRAMES);
    let feed = TcpBroker::<FeedMessage>::new();
    let agg = Aggregator::start(frames, Arc::new(EventStore::new(100_000)), Arc::clone(&feed));

    let endpoint1 = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![feed.clone()]).unwrap();
    let addr = endpoint1.local_addr();
    let feed_sub = TcpSubscriber::connect(addr, &["feed/"], cfg.clone());
    let mut consumer = EventConsumer::new(feed_sub, agg.store(), 0);

    const A: u64 = 50;
    for i in 1..=A {
        assert!(events.send(vec![event(i)]));
    }
    let mut got = Vec::new();
    while got.len() < A as usize {
        let e = consumer.next_timeout(Duration::from_secs(5)).expect("live event");
        got.push(e.index);
    }
    assert_eq!(got, (1..=A).collect::<Vec<_>>());

    // Feed server dies. The aggregator keeps ingesting and storing.
    endpoint1.shutdown();
    const B: u64 = 50;
    for i in A + 1..=A + B {
        assert!(events.send(vec![event(i)]));
    }
    // Wait for the aggregator to sequence all of batch 2 into the store.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while agg.snapshot().stored < A + B {
        assert!(std::time::Instant::now() < deadline, "aggregator never ingested batch 2");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Feed server restarts on the same port, over the broker the
    // aggregator still publishes into; the subscriber reconnects on its
    // own, hears a heartbeat with last_seq = A + B, and the consumer
    // heals the gap from the store.
    let endpoint2 = Endpoint::bind(addr, cfg, vec![feed]).unwrap();
    let mut got2 = Vec::new();
    while got2.len() < B as usize {
        let e = consumer
            .next_timeout(Duration::from_secs(10))
            .expect("backfilled event after reconnect");
        got2.push(e.index);
    }
    assert_eq!(got2, (A + 1..=A + B).collect::<Vec<_>>(), "gap must backfill in order");
    let stats = consumer.stats();
    assert_eq!(stats.delivered, A + B);
    assert_eq!(stats.lost, 0, "nothing may be lost across the restart");
    assert!(stats.recovered >= B, "batch 2 must come from the store, not the live feed");

    endpoint2.shutdown();
    agg.shutdown();
}
