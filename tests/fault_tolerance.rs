//! Integration tests for the monitor's reliability machinery: overload
//! shedding + store recovery, filtered subscriptions, trace capture and
//! replay, and operational metrics.

use parking_lot::Mutex;
use sdci::lustre::{LustreConfig, LustreFs};
use sdci::monitor::{MonitorClusterBuilder, MonitorConfig};
use sdci::types::SimTime;
use sdci::workloads::{read_trace, replay_trace, write_trace, TraceRecord};
use std::sync::Arc;
use std::time::Duration;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

#[test]
fn slow_consumer_recovers_hwm_losses_from_store() {
    // A tiny publish HWM forces the live feed to shed events for a
    // consumer that doesn't drain; the store backfills every loss.
    let config = MonitorConfig { feed_hwm: 8, store_capacity: 100_000, ..MonitorConfig::default() };
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).config(config).start();
    let mut lazy = cluster.subscribe();

    let total = 500u64;
    {
        let mut fs = lfs.lock();
        fs.mkdir("/burst", t(0)).expect("mkdir");
        for i in 0..total - 1 {
            fs.create(format!("/burst/f{i}"), t(i)).expect("create");
        }
    }
    assert!(cluster.wait_for_published(total, Duration::from_secs(10)));

    // Only now does the consumer start draining: almost everything was
    // shed at the HWM, and must come back via the store.
    let mut got = 0u64;
    while got < total {
        match lazy.next_timeout(Duration::from_secs(5)) {
            Some(_) => got += 1,
            None => panic!("stalled at {got}/{total}"),
        }
    }
    let stats = lazy.stats();
    assert_eq!(stats.delivered, total);
    assert_eq!(stats.lost, 0, "store retention covered all HWM losses");
    assert!(
        stats.recovered > total / 2,
        "most events should have been shed and recovered (recovered {})",
        stats.recovered
    );
    cluster.shutdown();
}

#[test]
fn bounded_store_under_overload_loses_countably_not_silently() {
    // Store smaller than the shed window: losses are inevitable, but
    // they are *counted*, and delivery stays ordered.
    let config = MonitorConfig { feed_hwm: 4, store_capacity: 50, ..MonitorConfig::default() };
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).config(config).start();
    let mut lazy = cluster.subscribe();
    let total = 400u64;
    {
        let mut fs = lfs.lock();
        fs.mkdir("/flood", t(0)).expect("mkdir");
        for i in 0..total - 1 {
            fs.create(format!("/flood/f{i}"), t(i)).expect("create");
        }
    }
    assert!(cluster.wait_for_published(total, Duration::from_secs(10)));

    let mut indices = Vec::new();
    while let Some(ev) = lazy.next_timeout(Duration::from_millis(200)) {
        indices.push(ev.index);
    }
    let stats = lazy.stats();
    assert_eq!(
        stats.delivered + stats.lost,
        total,
        "every event is either delivered or explicitly counted lost"
    );
    assert!(stats.lost > 0, "this scenario must actually lose events");
    // Delivered stream is strictly ordered by changelog index here
    // (single MDT).
    for pair in indices.windows(2) {
        assert!(pair[0] < pair[1]);
    }
    cluster.shutdown();
}

#[test]
fn filtered_subscription_sees_only_its_subtree() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let mut project_feed = cluster.subscribe_under("/projects/alpha");
    {
        let mut fs = lfs.lock();
        fs.mkdir_all("/projects/alpha", t(0)).expect("mkdir");
        fs.mkdir_all("/projects/beta", t(0)).expect("mkdir");
        for i in 0..10 {
            fs.create(format!("/projects/alpha/a{i}"), t(i)).expect("create");
            fs.create(format!("/projects/beta/b{i}"), t(i)).expect("create");
        }
    }
    let mut got = Vec::new();
    // 11 matching events: the mkdir of /projects/alpha + 10 creates.
    while got.len() < 11 {
        match project_feed.next_timeout(Duration::from_secs(5)) {
            Some(ev) => got.push(ev),
            None => panic!("filtered feed stalled at {}", got.len()),
        }
    }
    assert!(got.iter().all(|e| e.path.starts_with("/projects/alpha")));
    assert!(project_feed.stats().filtered_out >= 10, "beta events filtered");
    cluster.shutdown();
}

#[test]
fn captured_trace_replays_into_identical_namespace() {
    // Capture the live monitor's event stream as a trace, replay it into
    // a fresh filesystem, and compare namespaces.
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let mut feed = cluster.subscribe();
    {
        let mut fs = lfs.lock();
        fs.mkdir("/w", t(0)).expect("mkdir");
        for i in 0..30u64 {
            let p = format!("/w/f{i}");
            fs.create(&p, t(i + 1)).expect("create");
            if i % 3 == 0 {
                fs.write(&p, 512, t(i + 2)).expect("write");
            }
            if i % 5 == 0 {
                fs.unlink(&p, t(i + 3)).expect("unlink");
            }
        }
    }
    let total = lfs.lock().total_events();
    let mut trace = Vec::new();
    for _ in 0..total {
        let event = feed.next_timeout(Duration::from_secs(5)).expect("event");
        if let Some(record) = TraceRecord::from_event(&event) {
            trace.push(record);
        }
    }
    cluster.shutdown();

    // Through the trace file's JSON lines and back: the format carries it.
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).expect("write trace");
    let loaded = read_trace(&buf[..]).expect("read trace");

    let mut replica = LustreFs::new(LustreConfig::aws_testbed());
    replay_trace(&mut replica, &loaded).expect("replay");

    let original: Vec<_> = lfs.lock().fs().walk().into_iter().map(|(p, s)| (p, s.size)).collect();
    let replayed: Vec<_> = replica.fs().walk().into_iter().map(|(p, s)| (p, s.size)).collect();
    assert_eq!(original.len(), replayed.len());
    for ((p1, _), (p2, _)) in original.iter().zip(&replayed) {
        assert_eq!(p1, p2, "namespaces diverge");
    }
}

#[test]
fn aggregator_restarts_from_snapshot_without_losing_history() {
    use sdci::monitor::{restore_snapshot, SnapshotDir};

    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));

    // First incarnation: ingest 30 events, snapshot the store, note the
    // consumer's position, then crash (shutdown).
    let snapshot = std::env::temp_dir().join(format!("sdci-ft-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot);
    let resume_seq;
    {
        let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
        let mut consumer = cluster.subscribe();
        {
            let mut fs = lfs.lock();
            fs.mkdir("/persist", t(0)).expect("mkdir");
            for i in 0..29 {
                fs.create(format!("/persist/f{i}"), t(i)).expect("create");
            }
        }
        for _ in 0..20 {
            consumer.next_timeout(Duration::from_secs(5)).expect("pre-crash event");
        }
        resume_seq = consumer.next_seq() - 1;
        assert!(cluster.wait_for_published(30, Duration::from_secs(5)));
        SnapshotDir::open(&snapshot)
            .expect("open")
            .flush(&cluster.store(), std::collections::HashMap::new)
            .expect("snapshot");
        cluster.shutdown();
    }

    // Second incarnation: restore the store; new events continue the
    // sequence; the old consumer resumes from where it was.
    let (store, _) = restore_snapshot(&snapshot, 100_000).expect("restore");
    let _ = std::fs::remove_dir_all(&snapshot);
    assert_eq!(store.last_seq(), 30);
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).restore_store(store).start();
    let mut resumed = cluster.subscribe_from(resume_seq);
    {
        let mut fs = lfs.lock();
        for i in 29..40 {
            fs.create(format!("/persist/f{i}"), t(100 + i)).expect("create");
        }
    }
    // 10 pre-crash events it never saw + 11 post-restart events.
    let mut got = Vec::new();
    while got.len() < 21 {
        match resumed.next_timeout(Duration::from_secs(5)) {
            Some(ev) => got.push(ev),
            None => panic!("stalled at {} after restart", got.len()),
        }
    }
    assert_eq!(resumed.stats().lost, 0, "no events lost across the restart");
    assert!(resumed.stats().recovered >= 10, "pre-crash tail came from the snapshot");
    assert_eq!(got.last().unwrap().path, std::path::PathBuf::from("/persist/f39"));
    // Global sequence numbers continued (30 pre-crash + 11 new).
    assert_eq!(cluster.store().last_seq(), 41);
    cluster.shutdown();
}

#[test]
fn cluster_stats_deltas_track_a_live_cluster() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let before = cluster.stats();
    {
        let mut fs = lfs.lock();
        fs.mkdir("/m", t(0)).expect("mkdir");
        for i in 0..200 {
            fs.create(format!("/m/f{i}"), t(i)).expect("create");
        }
    }
    assert!(cluster.wait_for_published(201, Duration::from_secs(10)));
    let after = cluster.stats();
    assert_eq!(after.total_processed() - before.total_processed(), 201);
    assert_eq!(after.store.inserted - before.store.inserted, 201);
    assert_eq!(after.collectors.iter().map(|c| c.resolution_failures).sum::<u64>(), 0);
    assert!(
        after.cache_hit_rate() > 0.9,
        "200 siblings should be nearly all cache hits, got {}",
        after.cache_hit_rate()
    );
    cluster.shutdown();
}
