//! End-to-end tests of the *sharded* monitor tier: per-shard `sdcimon
//! shard` processes, a `front` serving the shard map plus the
//! scatter-gather store RPC, and collectors routing per event with
//! `--cluster`. Asserts the tentpole guarantees: exactly-once delivery
//! across shards, scatter-gather equivalence with a single-aggregator
//! baseline, and degraded-but-answered queries when a shard dies.
//!
//! The harness (spawn, readiness line, scrape, collector runs) is
//! `tests/common`.

mod common;

use common::{
    remote_store, run_collector, scrape_metrics, spawn, split_clients, wait_for_listen_addr,
    EVENTS_PER_COLLECTOR,
};
use sdci::monitor::{EventBackend, StoreQuery};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Polls a role's scrape endpoint until `needle` appears in the body
/// (metrics sampled on a periodic tick can lag the pipeline), panicking
/// with the last body after ten seconds.
fn scrape_until(base_addr: &str, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = scrape_metrics(base_addr);
        if body.contains(needle) {
            return body;
        }
        assert!(Instant::now() < deadline, "never scraped {needle:?}; last body:\n{body}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Polls the store RPC at `addr` until at least `min` events are
/// visible (ingest is async behind the push-leg ack) or the deadline
/// passes, returning the final result.
fn query_store(addr: &str, min: usize, timeout: Duration) -> Vec<(u64, PathBuf)> {
    let remote = remote_store(addr);
    let deadline = Instant::now() + timeout;
    loop {
        let events = remote.query(&StoreQuery::after_seq(0));
        if events.len() >= min || Instant::now() >= deadline {
            return events.into_iter().map(|e| (e.seq, e.event.path.to_path_buf())).collect();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The paths one collector's workload creates, in creation order.
fn expected_paths(client: &str) -> Vec<PathBuf> {
    std::iter::once(PathBuf::from(format!("/{client}")))
        .chain((0..100).map(|i| PathBuf::from(format!("/{client}/f{i}"))))
        .collect()
}

/// Asserts `events` holds each of `clients`' workloads exactly once,
/// in non-decreasing merged seq order with per-client creation order
/// preserved.
fn assert_scattered_exactly_once(events: &[(u64, PathBuf)], clients: &[&str]) {
    let mut counts: BTreeMap<&PathBuf, usize> = BTreeMap::new();
    for (_, path) in events {
        *counts.entry(path).or_default() += 1;
    }
    assert!(counts.values().all(|&n| n == 1), "duplicated events in the scatter result");
    assert_eq!(events.len(), clients.len() * EVENTS_PER_COLLECTOR, "missing events");
    assert!(
        events.windows(2).all(|w| w[0].0 <= w[1].0),
        "merged result is not seq-ordered: {events:?}"
    );
    for client in clients {
        let got: Vec<&PathBuf> = events
            .iter()
            .filter(|(_, p)| p.starts_with(format!("/{client}")))
            .map(|(_, p)| p)
            .collect();
        let want = expected_paths(client);
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "client {client} order broken");
    }
}

#[test]
fn two_shard_pipeline_is_exactly_once_and_matches_the_single_store_baseline() {
    let mut shard0 = spawn(&["shard", "--shard-id", "0", "--bind", "127.0.0.1:0"]);
    let mut shard1 = spawn(&["shard", "--shard-id", "1", "--bind", "127.0.0.1:0"]);
    let addr0 = wait_for_listen_addr(&mut shard0);
    let addr1 = wait_for_listen_addr(&mut shard1);
    let shards = format!("{addr0},{addr1}");
    let mut front = spawn(&["front", "--bind", "127.0.0.1:0", "--shards", &shards]);
    let front_addr = wait_for_listen_addr(&mut front);

    // One collector per shard: the two roots hash to different owners,
    // so the scatter below genuinely merges two shards.
    let (c_zero, c_one) = split_clients();
    let out0 = run_collector("--cluster", &front_addr, &c_zero, None);
    let out1 = run_collector("--cluster", &front_addr, &c_one, None);
    assert!(out0.contains("drained: true"), "collector {c_zero} not drained:\n{out0}");
    assert!(out1.contains("drained: true"), "collector {c_one} not drained:\n{out1}");
    // The routing tallies prove single-shard affinity per root.
    assert!(
        out0.contains(&format!("s0={EVENTS_PER_COLLECTOR} s1=0")),
        "{c_zero} should route everything to shard 0:\n{out0}"
    );
    assert!(
        out1.contains(&format!("s0=0 s1={EVENTS_PER_COLLECTOR}")),
        "{c_one} should route everything to shard 1:\n{out1}"
    );

    let scattered = query_store(&front_addr, 2 * EVENTS_PER_COLLECTOR, Duration::from_secs(30));
    assert_scattered_exactly_once(&scattered, &[&c_zero, &c_one]);

    // Baseline: the same workload through one aggregator must yield the
    // same result set, and both must be seq-ordered (per-shard seq
    // spaces are independent, so only the *set* and per-client order
    // are comparable — and that is the contract RemoteStore consumers
    // rely on).
    let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0"]);
    let agg_addr = wait_for_listen_addr(&mut agg);
    run_collector("--connect", &agg_addr, &c_zero, None);
    run_collector("--connect", &agg_addr, &c_one, None);
    let baseline = query_store(&agg_addr, 2 * EVENTS_PER_COLLECTOR, Duration::from_secs(30));
    assert_scattered_exactly_once(&baseline, &[&c_zero, &c_one]);
    let set = |evs: &[(u64, PathBuf)]| {
        evs.iter().map(|(_, p)| p.clone()).collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(
        set(&scattered),
        set(&baseline),
        "scatter-gather result set differs from the single-store baseline"
    );

    // Per-shard series from the shard processes themselves. The shard
    // samples its store every 200ms, so poll: the pipeline can finish
    // well inside the first tick.
    scrape_until(&addr0, "sdci_shard_ingest_total{shard=\"0\"} 101");

    // Kill shard 1: the scatter query degrades but still answers with
    // shard 0's events, and the front attributes the failure.
    shard1.child().kill().expect("kill shard 1");
    shard1.child().wait().expect("reap shard 1");
    let degraded = query_store(&front_addr, EVENTS_PER_COLLECTOR, Duration::from_secs(30));
    assert_eq!(
        degraded.len(),
        EVENTS_PER_COLLECTOR,
        "the live shard's events must still be answered"
    );
    assert!(
        degraded.iter().all(|(_, p)| p.starts_with(format!("/{c_zero}"))),
        "degraded answer must hold exactly the live shard's events"
    );
    let front_metrics = scrape_metrics(&front_addr);
    let degraded_total = front_metrics
        .lines()
        .find_map(|l| l.strip_prefix("sdci_cluster_degraded_queries_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("degraded-query counter exported");
    assert!(degraded_total >= 1, "degraded queries must be counted:\n{front_metrics}");
    let shard1_errors = front_metrics
        .lines()
        .find_map(|l| l.strip_prefix("sdci_cluster_shard_query_errors_total{shard=\"1\"} "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("per-shard error counter exported");
    assert!(shard1_errors >= 1, "shard 1's failed legs must be attributed:\n{front_metrics}");
}
