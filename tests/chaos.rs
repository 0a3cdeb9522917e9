//! Chaos harness: the three-OS-process pipeline under deterministic,
//! seed-reproducible fault schedules.
//!
//! Faults ride on the collector→aggregator push leg only (dropped,
//! duplicated, truncated, delayed frames on the pusher's sockets): the
//! push protocol is the lossless leg, so the invariant under chaos is
//! strict — every event delivered exactly once, in order, with the
//! aggregator's received/stored/published counters all agreeing. The
//! consumer's feed and backfill legs stay clean because a faulted
//! backfill reply is *allowed* to surface as loss (`EventConsumer`
//! counts an event lost once backfill cannot produce it); the chaos
//! the consumer must absorb is the aggregator dying, covered below by
//! a crash-point abort in the middle of a snapshot flush.
//!
//! Every schedule is reproducible: the seed is printed, and replaying
//! it is `sdcimon collector --faults "<printed spec>"` against a clean
//! aggregator. The harness (spawn, readiness line, scrape, collector
//! runs) is `tests/common`.

mod common;

use common::{
    check_consumer_output, metric_value, run_collector, scrape_metrics, spawn, spawn_env,
    wait_for_listen_addr, Reaped, BIN, EVENTS_PER_COLLECTOR,
};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The push-leg schedule: aggressive enough that every seed injects
/// dozens of faults across a 101-event run, mild enough that the
/// bounded-retry drain (60 s) always converges.
fn chaos_spec(seed: u64) -> String {
    format!("seed={seed},drop=0.08,dup=0.06,trunc=0.04,delay=0.05:1ms")
}

/// Exactly-once delivery under a hostile push leg, across three seeds.
/// Dedup marks, gap rejection, and resend-on-reconnect must absorb
/// every injected drop/duplicate/truncation, and the aggregator's
/// counters must reconcile exactly: received == stored == published ==
/// the number of source events, with zero insert errors.
#[test]
fn faulted_push_legs_deliver_exactly_once_across_seeds() {
    for seed in [11u64, 313, 97031] {
        let spec_c1 = chaos_spec(seed);
        let spec_c2 = chaos_spec(seed + 1);
        println!("chaos schedule: seed {seed} (c1 spec {spec_c1}, c2 spec {spec_c2})");

        let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0"]);
        let addr = wait_for_listen_addr(&mut agg);
        let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
        let consumer = spawn(&[
            "consumer",
            "--connect",
            &addr,
            "--verbose",
            "--expect",
            &expect,
            "--timeout",
            "120",
        ]);

        run_collector(&addr, "c1", Some(&spec_c1));
        run_collector(&addr, "c2", Some(&spec_c2));

        let out = consumer.into_child().wait_with_output().expect("wait for consumer");
        assert!(out.status.success(), "seed {seed}: consumer failed: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let events = check_consumer_output(&stdout, &["c1", "c2"]);
        assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "seed {seed}: wrong count:\n{stdout}");
        let done = stdout.lines().last().unwrap_or_default();
        assert!(done.contains("lost 0"), "seed {seed}: consumer reported loss: {done}");

        // Counter reconciliation: the pipeline agrees with itself end to
        // end. A duplicate the dedup marks missed would inflate
        // `received`; a gap the server accepted would show up as a
        // `stored`/`published` shortfall against the consumer's 202.
        let body = scrape_metrics(&addr);
        let received = metric_value(&body, "sdci_aggregator_received_total");
        let stored = metric_value(&body, "sdci_aggregator_stored_total");
        let published = metric_value(&body, "sdci_aggregator_published_total");
        let expected = 2 * EVENTS_PER_COLLECTOR as u64;
        assert_eq!(received, expected, "seed {seed}: duplicate or lost frames reached ingest");
        assert_eq!(stored, expected, "seed {seed}: store insert count drifted");
        assert_eq!(published, expected, "seed {seed}: feed publish count drifted");
        assert_eq!(
            metric_value(&body, "sdci_aggregator_insert_errors_total"),
            0,
            "seed {seed}: ingest halted on a store insert error"
        );
    }
}

/// The mirror image of the faulted-push test: producers are clean, and
/// the randomized schedule rides the *consumer's* legs instead — its
/// feed subscription (dropped/duplicated/truncated `Deliver` frames,
/// killed subscriptions) and its backfill RPC (faulted queries and
/// replies). The feed is lossy by contract, but every feed loss is
/// recoverable from the store, so the end-to-end invariant stays
/// strict: every event delivered exactly once, in order, zero counted
/// loss. This is the schedule that flushed out stale-reply
/// mis-correlation on the store RPC — a duplicated `Batch` reply
/// answering the *next* query's range — which surfaced as phantom loss
/// in the consumer's gap accounting.
#[test]
fn faulted_consumer_legs_still_deliver_exactly_once() {
    for seed in [29u64, 7177] {
        let spec = chaos_spec(seed);
        println!("consumer-leg chaos schedule: seed {seed} (spec {spec})");

        let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0"]);
        let addr = wait_for_listen_addr(&mut agg);
        let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
        let consumer = spawn(&[
            "consumer",
            "--connect",
            &addr,
            "--verbose",
            "--expect",
            &expect,
            "--timeout",
            "120",
            "--faults",
            &spec,
        ]);

        run_collector(&addr, "c1", None);
        run_collector(&addr, "c2", None);

        let out = consumer.into_child().wait_with_output().expect("wait for consumer");
        assert!(out.status.success(), "seed {seed}: consumer failed: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let events = check_consumer_output(&stdout, &["c1", "c2"]);
        assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "seed {seed}: wrong count:\n{stdout}");
        let done = stdout.lines().last().unwrap_or_default();
        assert!(done.contains("lost 0"), "seed {seed}: consumer reported loss: {done}");

        // The producers ran clean, so the pipeline's own counters must
        // be exact — consumer-side faults must not reflect back into
        // ingest.
        let body = scrape_metrics(&addr);
        let expected = 2 * EVENTS_PER_COLLECTOR as u64;
        assert_eq!(metric_value(&body, "sdci_aggregator_received_total"), expected);
        assert_eq!(metric_value(&body, "sdci_aggregator_stored_total"), expected);
        assert_eq!(metric_value(&body, "sdci_aggregator_published_total"), expected);
    }
}

/// The §5.2 fault story under crash-point injection: the aggregator
/// aborts *between* writing the new head generation and renaming the
/// manifest — the exact window where the pre-versioned-head snapshot
/// layout corrupted itself — and the restarted process must restore
/// every flushed event and hand the consumer a loss-free stream.
///
/// The abort is scheduled on the 25th flush (~5 s in, flushes tick
/// every 200 ms), leaving collector c1 ample room to finish and be
/// covered by a committed flush: its events and its dedup mark, in the
/// one manifest — no sidecar is ever written beside the directory.
#[test]
fn aggregator_aborted_mid_manifest_commit_restarts_without_losing_events() {
    let snapshot = std::env::temp_dir().join(format!("sdci-chaos-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot);
    let snap = snapshot.to_str().expect("utf-8 temp path");

    let mut agg = spawn_env(
        &["aggregator", "--bind", "127.0.0.1:0", "--snapshot", snap],
        &[("SDCI_CRASH_POINTS", "store.flush.manifest_commit:25:abort")],
    );
    let addr = wait_for_listen_addr(&mut agg);

    let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
    let consumer = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect,
        "--timeout",
        "120",
    ]);

    run_collector(&addr, "c1", Some(&chaos_spec(501)));

    // The armed crash point fires mid-flush and aborts the process; no
    // kill from the test, the injected schedule is the whole fault.
    let status = agg.child().wait().expect("wait for aborted aggregator");
    assert!(!status.success(), "the armed crash point should have aborted the aggregator");

    // The snapshot directory must be restorable *right now*, with the
    // interrupted flush's head generation left orphaned and the prior
    // manifest still the commit point. (Before head files were
    // generation-named, this exact crash left the committed manifest
    // pointing at a disagreeing head — an unrestorable snapshot.)
    let (restored, marks) = sdci::monitor::restore_snapshot(&snapshot, 1_000_000)
        .expect("snapshot must restore after a mid-commit abort");
    assert_eq!(
        restored.len(),
        EVENTS_PER_COLLECTOR,
        "the committed manifest should cover all of c1's flushed events"
    );
    assert_eq!(
        marks.get("c1"),
        Some(&(EVENTS_PER_COLLECTOR as u64)),
        "and, in the same manifest, the mark that dedups c1's resends against them"
    );
    let sidecar = std::path::PathBuf::from(format!("{snap}.marks"));
    assert!(!sidecar.exists(), "marks live in the manifest; nothing writes a sidecar");

    // The second collector starts into the dead port and retries with
    // backoff until the aggregator returns — under its own fault
    // schedule on top.
    let spec_c2 = chaos_spec(502);
    let mut c2 = Reaped(Some(
        Command::new(BIN)
            .args([
                "collector",
                "--connect",
                &addr,
                "--client",
                "c2",
                "--files",
                "100",
                "--faults",
                &spec_c2,
            ])
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn collector c2"),
    ));
    std::thread::sleep(Duration::from_millis(500));

    let _agg2 = spawn(&["aggregator", "--bind", &addr, "--snapshot", snap]);

    let c2_status = c2.child().wait().expect("wait collector c2");
    assert!(c2_status.success(), "collector c2 failed: {c2_status:?}");

    let out = consumer.into_child().wait_with_output().expect("wait for consumer");
    assert!(out.status.success(), "consumer failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let events = check_consumer_output(&stdout, &["c1", "c2"]);
    assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "wrong event count:\n{stdout}");
    let done = stdout.lines().last().unwrap_or_default();
    assert!(done.contains("lost 0"), "consumer reported loss: {done}");

    assert!(snapshot.join("MANIFEST.json").is_file(), "snapshot directory has a manifest");
    assert!(!sidecar.exists(), "nor does the restarted aggregator write one");
    let _ = std::fs::remove_dir_all(&snapshot);
}

/// The store-RPC server killed mid-reply: a crash point aborts the
/// aggregator *after* the query ran server-side but *before* the reply
/// frame is written. The client must surface a clean empty result
/// within its bounded retries (no hang on the dead socket), and an
/// aggregator restarted from the snapshot must answer the exact query
/// the abort killed, in full.
#[test]
fn store_rpc_server_aborted_mid_reply_recovers_on_restart() {
    use sdci::monitor::{EventBackend, StoreQuery};
    use sdci::net::{NetConfig, RemoteStore, RetryPolicy};

    let snapshot = std::env::temp_dir().join(format!("sdci-chaos-reply-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot);
    let snap = snapshot.to_str().expect("utf-8 temp path");

    let mut agg = spawn_env(
        &["aggregator", "--bind", "127.0.0.1:0", "--snapshot", snap],
        &[("SDCI_CRASH_POINTS", "net.store_rpc.reply:1:abort")],
    );
    let addr = wait_for_listen_addr(&mut agg);
    run_collector(&addr, "c1", None);

    // Give the 200 ms flush loop time to commit a snapshot covering
    // every acked event — the abort below takes the whole process.
    std::thread::sleep(Duration::from_millis(1500));

    let cfg = NetConfig {
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        ..NetConfig::default()
    };
    let remote = RemoteStore::connect(addr.parse().expect("aggregator addr"), cfg);

    // The armed point fires between running the query and writing the
    // reply; the retry redials a process that no longer exists, so the
    // query must come back empty, not wedge the caller.
    let events = remote.query(&StoreQuery::after_seq(0));
    assert!(events.is_empty(), "a reply the abort killed must not deliver events");
    let status = agg.child().wait().expect("wait for aborted aggregator");
    assert!(!status.success(), "the armed crash point should have aborted the aggregator");

    // Restart on the same address from the same snapshot (no crash
    // points this time): the killed query must now be answered in full.
    let _agg2 = spawn(&["aggregator", "--bind", &addr, "--snapshot", snap]);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let recovered = loop {
        let events = remote.query(&StoreQuery::after_seq(0));
        if events.len() >= EVENTS_PER_COLLECTOR || std::time::Instant::now() >= deadline {
            break events;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(
        recovered.len(),
        EVENTS_PER_COLLECTOR,
        "the restarted aggregator must answer the killed query from its snapshot"
    );
    let _ = std::fs::remove_dir_all(&snapshot);
}

/// The aggregator killed *mid-fanout*: the `net.pubsub.fanout` crash
/// point aborts the process between dequeuing a feed message for a
/// subscriber and writing it to the socket — the exact window where a
/// broker death takes an in-flight delivery with it. The in-flight
/// frame is gone (the lossy feed contract), but nothing the consumer
/// ultimately sees may be: c1's events were flushed before the abort,
/// so after a restart from the snapshot the consumer must recover all
/// of them through backfill and still end at exactly-once, zero-loss
/// delivery.
#[test]
fn aggregator_aborted_mid_fanout_recovers_without_consumer_loss() {
    let snapshot = std::env::temp_dir().join(format!("sdci-chaos-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot);
    let snap = snapshot.to_str().expect("utf-8 temp path");

    let mut agg = spawn_env(
        &["aggregator", "--bind", "127.0.0.1:0", "--snapshot", snap],
        &[("SDCI_CRASH_POINTS", "net.pubsub.fanout:1:abort")],
    );
    let addr = wait_for_listen_addr(&mut agg);

    // No subscriber is connected yet, so nothing fans out and the armed
    // point stays cold while c1 pushes its events; the flush loop then
    // gets time to commit a snapshot covering all of them.
    run_collector(&addr, "c1", None);
    std::thread::sleep(Duration::from_millis(1500));

    // The consumer subscribes into the armed broker: the first feed
    // message fanned out to it (the idle loop heartbeats every ~20 ms)
    // dies between dequeue and write, taking the aggregator with it.
    let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
    let consumer = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect,
        "--timeout",
        "120",
    ]);
    let status = agg.child().wait().expect("wait for fanout-aborted aggregator");
    assert!(!status.success(), "the fanout crash point should have aborted the aggregator");

    // Restart from the snapshot on the same address, then run c2 clean.
    // The consumer's first live event (seq 102+) exposes the gap back
    // to seq 1; backfill against the restored store must close it.
    let _agg2 = spawn(&["aggregator", "--bind", &addr, "--snapshot", snap]);
    run_collector(&addr, "c2", None);

    let out = consumer.into_child().wait_with_output().expect("wait for consumer");
    assert!(out.status.success(), "consumer failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let events = check_consumer_output(&stdout, &["c1", "c2"]);
    assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "wrong event count:\n{stdout}");
    let done = stdout.lines().last().unwrap_or_default();
    assert!(done.contains("lost 0"), "consumer reported loss: {done}");
    let _ = std::fs::remove_dir_all(&snapshot);
}

/// The feed server path killed by abort-mode crash points, seen from
/// the one subscriber that rides through all of it: the first
/// aggregator dies greeting it, the replacement dies on the first
/// delivery of a real collector run, and the third runs clean. The
/// supervised `TcpSubscriber` (its reads redial forever with backoff)
/// must resubscribe across each restart, ending with an event flowing end to
/// end — the feed leg is lossy by contract, so the invariant is
/// recovery, not delivery of the frames each abort swallowed.
#[test]
fn pubsub_server_aborted_on_greet_and_dispatch_recovers_after_restarts() {
    use sdci::monitor::FeedMessage;
    use sdci::mq::transport::Subscribe;
    use sdci::net::{NetConfig, RetryPolicy, TcpSubscriber};

    let mut agg = spawn_env(
        &["aggregator", "--bind", "127.0.0.1:0"],
        &[("SDCI_CRASH_POINTS", "net.pubsub.greet:1:abort")],
    );
    let addr = wait_for_listen_addr(&mut agg);
    let cfg = NetConfig {
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(500),
        ..NetConfig::default()
    };

    // The subscriber's very first connection greets the broker, which
    // aborts — taking the whole aggregator down. It is never recreated.
    let subscriber = TcpSubscriber::<FeedMessage>::connect(
        addr.parse().expect("aggregator addr"),
        &["feed/"],
        cfg,
    );
    let status = agg.child().wait().expect("wait for greet-aborted aggregator");
    assert!(!status.success(), "the greet crash point should have aborted the aggregator");

    // Restart #1, armed to abort on the first fan-out delivery instead.
    // An aggregator that has sequenced nothing publishes nothing (not
    // even heartbeats), so the point stays cold until the subscriber is
    // back and a collector gives the feed something to deliver.
    let mut agg2 = spawn_env(
        &["aggregator", "--bind", &addr],
        &[("SDCI_CRASH_POINTS", "net.pubsub.fanout:1:abort")],
    );
    wait_for_listen_addr(&mut agg2);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    // The subscriber redials on its own reads: nothing is delivered yet.
    while subscriber.connections() < 2 {
        assert!(std::time::Instant::now() < deadline, "the subscriber never reconnected");
        let _ = subscriber.recv_timeout(Duration::from_millis(10));
    }
    // The collector cannot finish against an aggregator that dies under
    // it; it is reaped once the abort has been observed.
    let collector = spawn(&["collector", "--connect", &addr, "--client", "c1", "--files", "100"]);
    let status = agg2.child().wait().expect("wait for fanout-aborted aggregator");
    assert!(!status.success(), "the fanout crash point should have aborted the aggregator");
    drop(collector);

    // Restart #2 runs clean: the same subscriber must reconnect and a
    // real event must reach it. The feed is lossy and a leg starts
    // receiving some time after its hello, so what a collector pushed
    // before then is not this subscriber's to get: collectors run until
    // one's events arrive.
    let mut agg3 = spawn(&["aggregator", "--bind", &addr]);
    wait_for_listen_addr(&mut agg3);
    let delivered = (2..22).any(|run| {
        run_collector(&addr, &format!("c{run}"), None);
        let window = std::time::Instant::now() + Duration::from_secs(1);
        while std::time::Instant::now() < window {
            if let Some(msg) = subscriber.recv_timeout(Duration::from_millis(50)) {
                assert!(msg.topic.starts_with("feed/"), "unexpected topic {}", msg.topic);
                if matches!(msg.payload, FeedMessage::Event(_)) {
                    return true;
                }
            }
        }
        false
    });
    assert!(
        delivered,
        "no event flowed after the clean restart (subscriber connections: {})",
        subscriber.connections()
    );
    assert!(subscriber.connections() >= 3, "one connection per aggregator incarnation");
}

/// The durable-cursor contract, pinned kill-to-restart: a consumer
/// checkpointing `--cursor` is aborted at the checkpoint boundary (the
/// `consumer.cursor.checkpoint` point fires *after* the event is
/// printed and the cursor saved), and its replacement — same cursor
/// file, no crash schedule — must resume from the checkpointed
/// *sequence*, not from "now". The union of the two runs' event lines
/// must cover every source event exactly once: zero loss, zero
/// duplication, order preserved across the kill.
#[test]
fn killed_consumer_resumes_from_durable_cursor_without_loss_or_duplication() {
    let dir = std::env::temp_dir().join(format!("sdci-chaos-cursor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cursor dir");
    let cursor = dir.join("consumer.cursor");
    let cursor_arg = cursor.to_str().expect("utf-8 temp path");

    let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0"]);
    let addr = wait_for_listen_addr(&mut agg);

    // Run #1 dies on its 40th checkpoint — deterministically 40 events
    // printed, cursor file committed at seq 40 by write-tmp-rename.
    let expect = EVENTS_PER_COLLECTOR.to_string();
    let consumer1 = spawn_env(
        &[
            "consumer",
            "--connect",
            &addr,
            "--verbose",
            "--expect",
            &expect,
            "--timeout",
            "120",
            "--cursor",
            cursor_arg,
        ],
        &[("SDCI_CRASH_POINTS", "consumer.cursor.checkpoint:40:abort")],
    );
    run_collector(&addr, "c1", None);

    let out1 = consumer1.into_child().wait_with_output().expect("wait for aborted consumer");
    assert!(!out1.status.success(), "the armed checkpoint abort should have killed run #1");
    let stdout1 = String::from_utf8_lossy(&out1.stdout);
    let seen1 = stdout1.lines().filter(|l| l.starts_with("event ")).count();
    assert_eq!(seen1, 40, "run #1 should print exactly the checkpointed prefix:\n{stdout1}");
    let committed: u64 = std::fs::read_to_string(&cursor)
        .expect("cursor file survives the abort")
        .trim()
        .parse()
        .expect("cursor file holds a sequence");
    assert_eq!(committed, 40, "cursor must sit exactly at the last printed event");

    // Run #2 resumes from the cursor. Everything past seq 40 backfills
    // from the store — the feed's live edge is long gone by now.
    let expect2 = (EVENTS_PER_COLLECTOR - seen1).to_string();
    let consumer2 = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect2,
        "--timeout",
        "120",
        "--cursor",
        cursor_arg,
    ]);
    let out2 = consumer2.into_child().wait_with_output().expect("wait for resumed consumer");
    assert!(out2.status.success(), "resumed consumer failed: {:?}", out2.status);
    let stdout2 = String::from_utf8_lossy(&out2.stdout);
    assert!(
        stdout2.contains("from seq 41"),
        "run #2 must announce resumption from the checkpointed sequence:\n{stdout2}"
    );
    let done = stdout2.lines().rfind(|l| l.starts_with("sdcimon consumer done"));
    assert!(done.is_some_and(|l| l.contains("lost 0")), "resumed consumer reported loss: {done:?}");

    // The two runs splice into one exactly-once stream: per-client file
    // events f0..f99 in order, no seam artifacts, 101 lines total.
    let combined = format!("{stdout1}{stdout2}");
    let events = check_consumer_output(&combined, &["c1"]);
    assert_eq!(
        events, EVENTS_PER_COLLECTOR,
        "the union of both runs must cover every event exactly once:\n{combined}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
