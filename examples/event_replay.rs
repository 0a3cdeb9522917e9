//! Fault tolerance: consumers that disconnect catch up from the
//! Aggregator's historic-event API.
//!
//! §4: "The monitor also maintains a rotating catalog of events and an
//! API to retrieve recent events in order to provide fault tolerance."
//! A consumer tracks the Aggregator's dense sequence numbers; on
//! reconnect (or on a detected gap) it backfills from the store before
//! resuming the live feed.
//!
//! Run with `cargo run --example event_replay`.

use parking_lot::Mutex;
use sdci::lustre::{LustreConfig, LustreFs};
use sdci::monitor::{MonitorClusterBuilder, MonitorConfig};
use sdci::types::SimTime;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs))
        .config(MonitorConfig { store_capacity: 10_000, ..MonitorConfig::default() })
        .start();

    // Phase 1: a consumer reads the first batch live, then "crashes".
    let mut consumer = cluster.subscribe();
    {
        let mut fs = lfs.lock();
        fs.mkdir("/runs", SimTime::EPOCH).expect("mkdir");
        for i in 0..10 {
            fs.create(format!("/runs/r{i}.log"), SimTime::from_secs(i)).expect("create");
        }
    }
    let mut seen_before_crash = 0u64;
    let mut last_seq = 0u64;
    while seen_before_crash < 11 {
        let event =
            consumer.next_timeout(Duration::from_secs(5)).expect("live events before the crash");
        seen_before_crash += 1;
        last_seq = consumer.next_seq() - 1;
        drop(event);
    }
    println!("consumer saw {seen_before_crash} events (through seq {last_seq}), then crashed");
    drop(consumer); // the crash: subscription gone, no state but last_seq

    // Phase 2: 25 more events happen while nobody is listening.
    {
        let mut fs = lfs.lock();
        for i in 10..35 {
            fs.create(format!("/runs/r{i}.log"), SimTime::from_secs(i)).expect("create");
        }
    }
    assert!(
        cluster.wait_for_published(36, Duration::from_secs(5)),
        "monitor keeps processing while the consumer is down"
    );
    println!("25 events occurred during the outage");

    // Phase 3: reconnect from the last checkpoint; the store backfills.
    let mut reconnected = cluster.subscribe_from(last_seq);
    {
        let mut fs = lfs.lock();
        fs.create("/runs/after-reconnect.log", SimTime::from_secs(99)).expect("create");
    }
    let mut recovered = Vec::new();
    while recovered.len() < 26 {
        match reconnected.next_timeout(Duration::from_secs(5)) {
            Some(event) => recovered.push(event),
            None => panic!("stalled after {} recovered events", recovered.len()),
        }
    }
    let stats = reconnected.stats();
    println!(
        "reconnected consumer delivered {} events in order: {} from the store, {} live, {} lost",
        stats.delivered, stats.recovered, stats.live, stats.lost
    );
    assert_eq!(stats.lost, 0, "store retention covered the whole outage");
    assert!(stats.recovered >= 25, "outage events came from the historic API");
    assert_eq!(recovered.last().map(|e| e.path.as_str()), Some("/runs/after-reconnect.log"));

    // The store can also be queried directly (the REST API stand-in).
    let store = cluster.store();
    let recent = store.recent(5);
    println!("last 5 events in the rotating catalog:");
    for sev in recent {
        println!("  seq {:>3}  {}", sev.seq, sev.event.path.display());
    }

    cluster.shutdown();
    println!("event replay complete");
}
