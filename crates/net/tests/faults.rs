//! Fault-injection regression tests: the deterministic chaos the
//! `sdci-faults` plan injects at the conn/wire boundary must be
//! survivable — the lossless push leg stays exactly-once, store
//! queries stay time-bounded, and a failed thread spawn costs one
//! connection, never the process.

use sdci_core::{EventBackend, EventStore, SequencedEvent, StoreQuery};
use sdci_faults::{arm, process_epoch, CrashMode, FaultPlan};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::write_msg;
use sdci_net::{
    Endpoint, NetConfig, RemoteStore, RetryPolicy, StoreServer, TcpPullServer, TcpPush,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_cfg() -> NetConfig {
    NetConfig {
        hwm: 8192,
        window: 256,
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(400),
        ..NetConfig::default()
    }
}

/// Crash points are process-global and every endpoint spawns through
/// the same two (`net.endpoint.spawn_accept`/`spawn_conn`), so a test
/// that arms one must not overlap any other test binding an endpoint in
/// this process: each such test holds this lock.
static ENDPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn endpoints() -> std::sync::MutexGuard<'static, ()> {
    ENDPOINTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn faulted_cfg(spec: &str) -> NetConfig {
    let plan = Arc::new(FaultPlan::parse(spec).expect("valid fault spec"));
    fast_cfg().with_faults(Some(plan))
}

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/f/{seq}").into(),
            src_path: None,
            target: Fid::new(1, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

fn seeded_store(n: u64) -> Arc<EventStore> {
    let store = EventStore::new(4096);
    for i in 1..=n {
        store.insert(sev(i)).unwrap();
    }
    Arc::new(store)
}

/// The §5.2 guarantee under a hostile wire: with frames being dropped,
/// duplicated, truncated (killing the connection), and delayed on the
/// pusher's sockets, every item still reaches the pipeline exactly
/// once, in order — dedup marks plus gap rejection plus resend-on-
/// reconnect absorb every injected fault. Three seeds, same invariant.
#[test]
fn lossy_faulted_push_leg_still_delivers_exactly_once() {
    let _serial = endpoints();
    for seed in [7u64, 41, 1999] {
        let server = TcpPullServer::<u64>::new(4096);
        let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap();
        let spec = format!("seed={seed},drop=0.06,dup=0.05,trunc=0.03,delay=0.05:1ms");
        let push = TcpPush::connect(endpoint.local_addr(), "chaos", faulted_cfg(&spec));
        const N: u64 = 120;
        for i in 0..N {
            assert!(push.send(i), "seed {seed}: send rejected");
        }
        assert!(push.drain(Duration::from_secs(60)), "seed {seed}: acks never fully arrived");

        let pull = server.pull();
        let mut got = Vec::new();
        while let Some(frame) = pull.recv_timeout(Duration::from_secs(5)) {
            got.extend(frame);
            if got.len() == N as usize {
                break;
            }
        }
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "seed {seed}: lost or reordered items");
        assert_eq!(server.stats().items, N, "seed {seed}: pipeline item count drifted");
        drop(push);
        endpoint.shutdown();
    }
}

/// A scripted partition black-holes connects: `RemoteStore::query` must
/// give up within its bounded retry schedule — not hang the caller on
/// a kernel SYN retry — and account every failed dial.
#[test]
fn remote_store_query_is_bounded_during_a_partition() {
    // The target address never even gets dialed: the partition window
    // covers the whole test.
    let cfg = faulted_cfg("seed=3,partition=60s@0ms");
    let store = RemoteStore::connect("127.0.0.1:9".parse().unwrap(), cfg);
    let started = Instant::now();
    let events = store.query(&StoreQuery::after_seq(0));
    assert!(events.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "query took {:?}; the connect path is not bounded",
        started.elapsed()
    );
    assert_eq!(store.connect_failures(), 2, "both attempts should have failed to dial");
    assert_eq!(store.failures(), 1);
}

/// A peer flooding the reply stream with non-`Batch` frames — kind 7,
/// a ping on any other connection, and no store frame — must not wedge
/// the consumer: each attempt's round trip fails at the first one and
/// the query returns empty.
#[test]
fn remote_store_round_trip_is_bounded_under_a_non_batch_flood() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let flood = std::thread::spawn(move || {
        // One connection per query attempt; answer each with pings
        // forever (until the client hangs up).
        for _ in 0..2 {
            let Ok((stream, _)) = listener.accept() else { return };
            std::thread::spawn(move || {
                let mut writer = stream;
                while writer.write_all(&[0, 0, 0, 2, 7, 0]).is_ok() {}
            });
        }
    });

    let store = RemoteStore::connect(addr, fast_cfg());
    let started = Instant::now();
    let events = store.query(&StoreQuery::after_seq(0));
    assert!(events.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "query took {:?}; a stray reply did not fail the round trip",
        started.elapsed()
    );
    assert_eq!(store.failures(), 1);
    flood.join().unwrap();
}

/// A store answers each retained event once, in seq order, so a reply
/// whose events repeat a seq answers no query: a peer that sends only
/// such replies makes `try_query` fail, and `query` return empty with
/// the failure counted.
#[test]
fn a_store_reply_that_repeats_a_seq_is_no_answer() {
    use sdci_net::wire::{FrameReader, Hello};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Two stores, two attempts each: every attempt dials fresh.
    let server = std::thread::spawn(move || {
        let mut conns = Vec::new();
        for _ in 0..4 {
            let Ok((stream, _)) = listener.accept() else { return };
            conns.push(std::thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                let mut reader = FrameReader::new(stream);
                if reader.read_msg::<Hello>().is_err() {
                    return;
                }
                while let Ok(StoreRpc::Query { .. }) = reader.read_msg::<StoreRpc>() {
                    let events = vec![sev(5), sev(5)];
                    if write_msg(&mut writer, &StoreRpc::Batch { events }).is_err() {
                        return;
                    }
                }
            }));
        }
        conns.into_iter().for_each(|conn| conn.join().unwrap());
    });

    let query = StoreQuery::after_seq(0);
    let strict = RemoteStore::connect(addr, fast_cfg());
    assert!(strict.try_query(&query).is_err(), "a reply repeating seq 5 was taken as an answer");
    let store = RemoteStore::connect(addr, fast_cfg());
    assert!(store.query(&query).is_empty());
    assert_eq!(store.failures(), 1);
    drop((strict, store));
    server.join().unwrap();
}

/// Thread-spawn failure containment, via the armed fail points the
/// chaos harness uses: an accept-thread failure surfaces as a `bind`
/// error (no panic), and a per-connection failure costs exactly that
/// connection — the retry lands on a freshly spawned handler.
#[test]
fn endpoint_spawn_failures_are_contained() {
    let _serial = endpoints();
    let server = StoreServer::new(seeded_store(25));

    // Accept-thread spawn failure: bind reports it instead of
    // panicking the process...
    arm("net.endpoint.spawn_accept", 1, CrashMode::Error);
    let err = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap_err();
    assert!(err.to_string().contains("net.endpoint.spawn_accept"), "unhelpful error: {err}");
    // ...and the point self-disarms, so the next bind succeeds.
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap();

    // Per-connection spawn failure: the first dial gets a connection
    // nobody serves (the client times out and redials); the server
    // survives and the second connection answers.
    arm("net.endpoint.spawn_conn", 1, CrashMode::Error);
    let remote = RemoteStore::connect(endpoint.local_addr(), fast_cfg());
    let events = remote.query(&StoreQuery::after_seq(0));
    assert_eq!(events.len(), 25, "query must succeed once a handler thread spawns");
    assert_eq!(server.queries(), 1);

    // Reply-path failure: the handler dies *between* running the query
    // and writing the reply. The client sees a dead connection, redials,
    // and the retry lands on a fresh handler that answers.
    arm("net.store_rpc.reply", 1, CrashMode::Error);
    let events = remote.query(&StoreQuery::after_seq(0));
    assert_eq!(events.len(), 25, "retry after a killed reply must be answered");
    assert_eq!(server.queries(), 3, "the killed reply's query still ran server-side");
    endpoint.shutdown();
}

/// A reply carrying the right number on its connection is still checked
/// against its query: a page outside the query's range, or one whose seqs
/// descend, costs the connection like any other refusal — the query is
/// retried once on a new connection and, refused there too, fails and is
/// counted — and the next query, answered honestly, gets its own page.
#[test]
fn a_numbered_reply_that_does_not_answer_its_query_costs_the_connection() {
    use sdci_net::wire::{write_msg_bin, BinEncoder, FrameReader, Hello, Service};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Each connection answers its queries with `pages`, in turn, each
        // reply numbered as its query was.
        let serve = |pages: &[Vec<u64>]| {
            let (stream, _) = listener.accept().expect("accept store client");
            let mut writer = stream.try_clone().unwrap();
            let mut reader = FrameReader::new(stream);
            let hello = reader.read_msg::<Hello>().expect("read the hello");
            assert_eq!(hello.service, Service::Store);
            let mut enc = BinEncoder::new();
            for page in pages {
                let query = reader.read_msg::<StoreRpc>().expect("read a query");
                assert!(matches!(query, StoreRpc::Query { .. }));
                let events = page.iter().copied().map(sev).collect();
                write_msg_bin(&mut writer, &mut enc, &StoreRpc::Batch { events }).unwrap();
            }
        };
        serve(&[(1..=5).collect(), (1..=5).collect()]);
        serve(&[(6..=10).rev().collect()]);
        serve(&[(6..=10).collect()]);
    });

    let remote = RemoteStore::connect(addr, fast_cfg());
    let seqs = |page: Vec<SequencedEvent>| page.iter().map(|e| e.seq).collect::<Vec<_>>();
    assert_eq!(seqs(remote.query(&StoreQuery::after_seq(0))), (1..=5).collect::<Vec<_>>());
    // Reply 2 answers with seqs the query asked past, and the retry's
    // reply 1 with seqs that descend: neither is an answer.
    let err = remote.try_query(&StoreQuery::after_seq(5)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(remote.failures(), 1);
    let page = remote.query(&StoreQuery::after_seq(5));
    assert_eq!(seqs(page), (6..=10).collect::<Vec<_>>());
    assert_eq!(remote.failures(), 1);
    server.join().unwrap();
}

/// Where the queries of [`store_pages_are_their_own`] ask: `n` offsets of
/// a 4,000-event store, the first 0 and the rest scattered forwards and
/// back, so a page answering another query would often pass a range check.
fn scattered(n: usize) -> Vec<u64> {
    let mut at = 17u64;
    std::iter::once(0)
        .chain((1..n).map(|_| {
            at = (at * 1_103 + 12_345) % 3_900;
            50 + at
        }))
        .collect()
}

/// Runs a 50-event page query after each of `offsets`, and — for every
/// offset `past_end` says to — a query past the store's end between them,
/// against `remote`. Every answered page must be its own: the 50 events
/// after its offset, or nothing past the end. Returns how many queries
/// failed.
fn store_pages_are_their_own(remote: &RemoteStore, offsets: &[u64], past_end: bool) -> u64 {
    let mut failed = 0;
    for &after in offsets {
        let mut queries = vec![(after, (after + 1..=after + 50).collect::<Vec<u64>>())];
        if past_end {
            queries.push((10_000 + after, Vec::new()));
        }
        for (after, want) in queries {
            match remote.try_query(&StoreQuery::after_seq(after).limit(50)) {
                Ok(page) => {
                    let seqs: Vec<u64> = page.iter().map(|e| e.seq).collect();
                    assert_eq!(seqs, want, "after seq {after}: another query's page");
                    assert!(page.iter().all(|e| e == &sev(e.seq)), "after seq {after}: events");
                }
                Err(_) => failed += 1,
            }
        }
    }
    failed
}

/// The duplicates a fault plan has injected on frames sent, so far.
fn sent_dups() -> u64 {
    let labels = [("dir", "send"), ("kind", "duplicate")];
    sdci_obs::registry().counter_with("sdci_faults_injected_total", &labels).get()
}

/// Store frames are numbered on their connection, so a faulted link that
/// sends a reply twice hands the client a copy whose number is not the
/// next: refused unread, and the connection with it. The queries land at
/// scattered offsets, forwards and back, so a stale page would often pass
/// the range check: only its number gives it away. Every query gets its
/// own page — a duplicated reply costs a reconnect, on which the query
/// runs again — and no dial fails.
#[test]
fn duplicated_store_replies_cost_a_reconnect() {
    let _serial = endpoints();
    let server = StoreServer::new(seeded_store(4_000));
    let cfg = faulted_cfg("seed=5,send.dup=0.3");
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg, vec![server.clone()]).unwrap();
    let dups_before = sent_dups();

    let remote = RemoteStore::connect(endpoint.local_addr(), fast_cfg());
    let offsets = scattered(41);
    assert_eq!(store_pages_are_their_own(&remote, &offsets, false), 0);
    assert!(
        sent_dups() - dups_before >= 5,
        "only {} replies duplicated",
        sent_dups() - dups_before
    );
    assert_eq!(remote.connect_failures(), 0);
    assert_eq!(remote.failures(), 0);
    assert!(server.queries() > offsets.len() as u64, "a duplicated reply cost no reconnect");
    endpoint.shutdown();
}

/// The client's own link duplicates frames: a query sent twice is
/// answered once and its copy, numbered as it was, costs the server's
/// connection, so no reply to a copy is left to answer a later query.
/// 200 queries, forwards and back: every page a query gets is its own. A
/// query whose retry meets a duplicated hello fails, and is counted; most
/// are answered.
#[test]
fn duplicated_store_queries_never_get_another_querys_page() {
    let _serial = endpoints();
    let server = StoreServer::new(seeded_store(4_000));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap();
    let dups_before = sent_dups();

    let remote = RemoteStore::connect(endpoint.local_addr(), faulted_cfg("seed=5,send.dup=0.3"));
    let failed = store_pages_are_their_own(&remote, &scattered(200), false);
    assert!(
        sent_dups() - dups_before >= 40,
        "only {} frames duplicated",
        sent_dups() - dups_before
    );
    println!("{failed} of 200 queries failed; {} queries served", server.queries());
    assert_eq!(remote.failures(), failed);
    assert!(failed < 50, "{failed} of 200 queries failed");
    assert_eq!(remote.connect_failures(), 0);
    endpoint.shutdown();
}

/// An empty reply is numbered like any other, so a duplicated one is
/// refused rather than taken as the answer to the next query: with every
/// other query asking past the store's end, each real query still gets
/// its own page, never an empty one, and none fails.
#[test]
fn duplicated_empty_store_replies_never_answer_the_next_query() {
    let _serial = endpoints();
    let server = StoreServer::new(seeded_store(4_000));
    let cfg = faulted_cfg("seed=5,send.dup=0.3");
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg, vec![server.clone()]).unwrap();
    let dups_before = sent_dups();

    let remote = RemoteStore::connect(endpoint.local_addr(), fast_cfg());
    let offsets = scattered(100);
    assert_eq!(store_pages_are_their_own(&remote, &offsets, true), 0);
    assert!(
        sent_dups() - dups_before >= 20,
        "only {} replies duplicated",
        sent_dups() - dups_before
    );
    assert_eq!(remote.connect_failures(), 0);
    assert_eq!(remote.failures(), 0);
    assert!(server.queries() > 2 * offsets.len() as u64, "a duplicated reply cost no reconnect");
    endpoint.shutdown();
}

/// A fanout-leg death between the broker's local dequeue and the socket
/// write (the `net.pubsub.fanout` crash point in error mode) costs that
/// subscriber one in-flight message and one connection — the lossy feed
/// contract — and nothing else: the broker survives, the supervised
/// subscriber reconnects and resubscribes, and later messages flow.
#[test]
fn fanout_crash_point_costs_one_subscriber_connection() {
    use sdci_mq::transport::{Publish, Subscribe};
    use sdci_net::{TcpBroker, TcpSubscriber};

    let _serial = endpoints();
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let subscriber = TcpSubscriber::<u64>::connect(endpoint.local_addr(), &["events/"], cfg);

    // Publish probes until one demonstrably flows end to end, so the
    // armed point below fires on an established fanout leg.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        broker.publish("events/probe", u64::MAX);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "pub/sub loopback never became ready");
    }

    // The next dequeued message dies mid-fanout: dropped for this
    // subscriber only, connection closed.
    arm("net.pubsub.fanout", 1, CrashMode::Error);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut delivered_after_kill = None;
    for i in 0u64.. {
        broker.publish("events/e", i);
        if let Some(msg) = subscriber.recv_timeout(Duration::from_millis(10)) {
            if subscriber.connections() >= 2 {
                delivered_after_kill = Some(msg.payload);
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no delivery after the fanout kill (connections: {})",
            subscriber.connections()
        );
    }
    assert!(delivered_after_kill.is_some());
    assert!(subscriber.connections() >= 2, "the killed fanout leg should have forced a reconnect");
    endpoint.shutdown();
}

/// Child body for `shutdown_drain_is_faultable_in_abort_mode`: inert in
/// a normal suite run, armed only when that test re-executes this
/// binary with `SDCI_DRAIN_ABORT_CHILD=1`. The sequence pins the drain:
/// the leg is proven live and then quiesced *before* the crash point is
/// armed, so the only frames left to cross it are the burst queued
/// immediately ahead of `shutdown()` — the graceful-drain flush.
#[test]
fn drain_abort_child() {
    use sdci_mq::transport::{Publish, Subscribe};
    use sdci_net::{TcpBroker, TcpSubscriber};

    if std::env::var("SDCI_DRAIN_ABORT_CHILD").is_err() {
        return;
    }
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let subscriber = TcpSubscriber::<u64>::connect(endpoint.local_addr(), &["q/"], cfg);

    // Prove the fanout leg end-to-end live...
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        broker.publish("q/probe", 0);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "pub/sub loopback never became ready");
    }
    // ...then quiesce it: every probe the client has received was
    // already written by the leg (the crash point passed, unarmed), and
    // once the stream stays silent nothing else is in flight.
    while subscriber.recv_timeout(Duration::from_millis(100)).is_some() {}
    println!("leg-live-and-quiet");

    arm("net.pubsub.fanout", 1, CrashMode::Abort);
    for i in 0..32u64 {
        broker.publish("q/drain", i);
    }
    endpoint.shutdown();
    // The armed abort fires while the queued burst is being flushed to
    // the subscriber; this line is unreachable unless the drain skipped
    // the crash point.
    println!("DRAIN-COMPLETE");
}

/// The graceful-drain path must not bypass fault injection: the old
/// shutdown flush wrote directly to the socket and skipped the
/// `net.pubsub.fanout` crash point entirely, so no chaos schedule could
/// ever fault it. Live delivery and the shutdown drain now share one
/// delivery site, and an armed abort timed at the drain kills the
/// process mid-flush — observed here as a child that dies by signal
/// after quiescing but before completing `shutdown()`.
#[test]
fn shutdown_drain_is_faultable_in_abort_mode() {
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["drain_abort_child", "--exact", "--test-threads=1", "--nocapture"])
        .env("SDCI_DRAIN_ABORT_CHILD", "1")
        .output()
        .expect("re-exec test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("leg-live-and-quiet"), "child never quiesced its leg:\n{stdout}");
    assert!(!out.status.success(), "armed drain abort did not kill the child:\n{stdout}");
    assert!(
        !stdout.contains("DRAIN-COMPLETE"),
        "shutdown drain completed past an armed fanout abort:\n{stdout}"
    );
}

/// Partition windows are anchored to one shared process epoch, not to
/// each plan's construction time: a spec parsed *after* its window has
/// closed must agree that the partition is over. (The old per-plan
/// anchoring restarted the window on every parse, so connections
/// created later saw a partition everyone else had already healed
/// from.)
#[test]
fn partition_windows_share_one_process_epoch() {
    let epoch = process_epoch();
    // A window open from the epoch until ~300ms from now.
    let window_end = epoch.elapsed() + Duration::from_millis(300);
    let spec = format!("seed=5,partition={}us@0us", window_end.as_micros());

    let first = FaultPlan::parse(&spec).unwrap();
    assert!(first.partitioned(), "a window covering process-start..now+300ms must be active");

    std::thread::sleep(Duration::from_millis(500));

    // Re-parsing the same spec after the window closed must not
    // restart it; per-plan anchoring would report elapsed ≈ 0 here and
    // call the partition active again.
    let second = FaultPlan::parse(&spec).unwrap();
    assert!(
        !second.partitioned(),
        "a plan parsed after the window closed must share the healed epoch"
    );
    assert!(!first.partitioned(), "the original plan agrees the window closed");
}
