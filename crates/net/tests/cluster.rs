//! Sharded-tier integration at the net layer: the map service, the
//! collector-side router's drain-first cutover (including a shard
//! crash mid-cutover), and the scatter-gather store front.

use sdci_core::{EventBackend, EventStore, SequencedEvent, ShardMap, StoreQuery};
use sdci_mq::transport::Publish;
use sdci_net::{
    add_shard, fetch_map, Endpoint, MapServer, NetConfig, RetryPolicy, ScatterStore, ShardRouter,
    StoreServer, TcpPullServer,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
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

fn fev(path: &str, i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_secs(i),
        path: path.into(),
        src_path: None,
        target: Fid::new(1, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

fn sev(seq: u64, path: &str) -> SequencedEvent {
    SequencedEvent { seq, event: fev(path, seq) }
}

/// Drains `pull` until `n` items arrived or it goes quiet, returning
/// the received paths in arrival order.
fn collect_paths(pull: &sdci_mq::pipe::Pull<Vec<FileEvent>>, n: usize) -> Vec<PathBuf> {
    let mut got = Vec::new();
    while got.len() < n {
        match pull.recv_timeout(Duration::from_secs(2)) {
            Some(frame) => got.extend(frame.iter().map(|ev| ev.path.to_path_buf())),
            None => break,
        }
    }
    got
}

#[test]
fn map_server_serves_and_bumps_the_map() {
    let cfg = fast_cfg();
    let initial = ShardMap::new(["127.0.0.1:7070"]);
    let srv = MapServer::new(initial.clone());
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![srv.clone()]).unwrap();

    let fetched = fetch_map(endpoint.local_addr(), &cfg).unwrap();
    assert_eq!(fetched, initial);

    // AddShard is observed by the next GetMap from a *different*
    // connection — the server is the single writer.
    let bumped = add_shard(endpoint.local_addr(), "127.0.0.1:7080", &cfg).unwrap();
    assert_eq!(bumped.version(), 2);
    assert_eq!(bumped.shards().len(), 2);
    assert_eq!(bumped.shards()[1].id, 1);
    assert_eq!(fetch_map(endpoint.local_addr(), &cfg).unwrap(), bumped);
    assert_eq!(srv.map(), bumped);
    assert_eq!(srv.fetches(), 2);
    endpoint.shutdown();
}

#[test]
fn map_server_refuses_a_shard_address_it_could_never_scatter_to() {
    let cfg = fast_cfg();
    let initial = ShardMap::new(["127.0.0.1:7070"]);
    let srv = MapServer::new(initial.clone());
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![srv.clone()]).unwrap();

    // Something that is not a socket address may not enter the map:
    // the front's next scatter re-fan would fail on it.
    for bad in ["not-an-addr", "127.0.0.1:65536"] {
        let err = add_shard(endpoint.local_addr(), bad, &cfg).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{bad}: connection not closed");
        assert_eq!(srv.map(), initial, "{bad}: map touched");
    }
    // The map every reader sees still scatters, and a good shard still
    // joins at the next version.
    let fetched = fetch_map(endpoint.local_addr(), &cfg).unwrap();
    assert_eq!(fetched.version(), 1);
    assert!(ScatterStore::from_map(&fetched, cfg.clone()).is_ok());
    assert_eq!(add_shard(endpoint.local_addr(), "127.0.0.1:7080", &cfg).unwrap().version(), 2);
    endpoint.shutdown();
}

#[test]
fn router_reroutes_after_a_version_bump_with_drain_ack() {
    let cfg = fast_cfg();
    let shard_a = TcpPullServer::<FileEvent>::new(4096);
    let shard_a_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_a.clone()]).unwrap();
    let v1 = ShardMap::new([shard_a_ep.local_addr().to_string()]);
    let router = ShardRouter::connect(v1.clone(), "col", cfg.clone()).unwrap();
    assert_eq!(router.map_version(), 1);

    // Round 1: a one-shard map routes every root to shard 0.
    let roots: Vec<String> = (0..16).map(|r| format!("/proj{r}")).collect();
    for (i, root) in roots.iter().enumerate() {
        router.publish("events/", fev(&format!("{root}/before"), i as u64));
    }
    assert!(router.drain(Duration::from_secs(10)));
    let pull_a = shard_a.pull();
    assert_eq!(collect_paths(&pull_a, roots.len()).len(), roots.len());

    // Cutover to a two-shard map. The drain must be acked (it is —
    // shard 0 is alive), after which the router routes by v2.
    let shard_b = TcpPullServer::<FileEvent>::new(4096);
    let shard_b_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_b.clone()]).unwrap();
    let v2 = v1.with_shard(shard_b_ep.local_addr().to_string());
    router.update_map(v2.clone(), Duration::from_secs(5)).unwrap();
    assert_eq!(router.map_version(), 2);
    assert_eq!(router.cutovers(), 1);
    // A stale (or equal) map is a no-op, not a re-cutover.
    router.update_map(v2.clone(), Duration::from_secs(5)).unwrap();
    assert_eq!(router.cutovers(), 1);

    // Round 2: live traffic re-routes — each root lands where v2 says.
    let mut expect_a = HashSet::new();
    let mut expect_b = HashSet::new();
    for (i, root) in roots.iter().enumerate() {
        let path = format!("{root}/after");
        let ev = fev(&path, 100 + i as u64);
        match v2.route_event(&ev).id {
            0 => expect_a.insert(PathBuf::from(&path)),
            _ => expect_b.insert(PathBuf::from(&path)),
        };
        router.publish("events/", ev);
    }
    assert!(!expect_b.is_empty(), "16 roots must split across 2 shards");
    assert!(router.drain(Duration::from_secs(10)));

    let got_a: HashSet<PathBuf> = collect_paths(&pull_a, expect_a.len()).into_iter().collect();
    let got_b: HashSet<PathBuf> =
        collect_paths(&shard_b.pull(), expect_b.len()).into_iter().collect();
    assert_eq!(got_a, expect_a, "shard 0 received off-map traffic");
    assert_eq!(got_b, expect_b, "shard 1 received off-map traffic");
    let routed: BTreeMap<_, _> = router.routed().into_iter().collect();
    assert_eq!(routed[&0], (roots.len() + expect_a.len()) as u64);
    assert_eq!(routed[&1], expect_b.len() as u64);
    shard_a_ep.shutdown();
    shard_b_ep.shutdown();
}

/// The chaos case the cutover protocol exists for: the old owner
/// crashes with pushes in flight, so the drain cannot complete and the
/// cutover must NOT be acked — the router keeps the old map. Once the
/// shard is back (same address, restored dedup marks), the retried
/// cutover drains, swaps, and nothing is lost or duplicated.
#[test]
fn shard_crash_mid_cutover_is_not_acked_and_the_retry_recovers() {
    let cfg = fast_cfg();
    let shard_a = TcpPullServer::<FileEvent>::new(4096);
    let shard_a_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_a.clone()]).unwrap();
    let addr_a = shard_a_ep.local_addr();
    let v1 = ShardMap::new([addr_a.to_string()]);
    let router = ShardRouter::connect(v1.clone(), "col", cfg.clone()).unwrap();

    // Round 1 is fully acked, so it can never be resent.
    for i in 0..20u64 {
        router.publish("events/", fev(&format!("/r{}/warm{i}", i % 4), i));
    }
    assert!(router.drain(Duration::from_secs(10)));
    let pull_a1 = shard_a.pull();
    assert_eq!(collect_paths(&pull_a1, 20).len(), 20);

    // Crash the shard, then keep publishing: round 2 sits unacked in
    // the router's pipe.
    let marks = shard_a.marks();
    shard_a_ep.shutdown();
    let round2: Vec<String> = (0..15u64).map(|i| format!("/r{}/crash{i}", i % 4)).collect();
    for (i, path) in round2.iter().enumerate() {
        router.publish("events/", fev(path, 100 + i as u64));
    }

    // Mid-cutover: the old owner cannot drain, so the cutover is not
    // acked and the old map stays live.
    let shard_b = TcpPullServer::<FileEvent>::new(4096);
    let shard_b_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_b.clone()]).unwrap();
    let v2 = v1.with_shard(shard_b_ep.local_addr().to_string());
    let err = router.update_map(v2.clone(), Duration::from_millis(300)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert_eq!(router.map_version(), 1, "a failed cutover must not swap the map");
    assert_eq!(router.cutovers(), 0);

    // The shard restarts at the same address with its restored marks;
    // the supervised pipe reconnects and re-delivers round 2 exactly
    // once, after which the retried cutover is acked.
    let shard_a2 = TcpPullServer::<FileEvent>::with_marks(4096, marks);
    let shard_a2_ep = Endpoint::bind(addr_a, cfg.clone(), vec![shard_a2.clone()]).unwrap();
    router.update_map(v2.clone(), Duration::from_secs(10)).unwrap();
    assert_eq!(router.map_version(), 2);

    // Round 3 routes by the new map.
    let mut expect_a: HashSet<PathBuf> = round2.iter().map(PathBuf::from).collect();
    let mut expect_b = HashSet::new();
    for i in 0..16u64 {
        let path = format!("/r{}/after{i}", i % 8);
        let ev = fev(&path, 200 + i);
        match v2.route_event(&ev).id {
            0 => expect_a.insert(PathBuf::from(&path)),
            _ => expect_b.insert(PathBuf::from(&path)),
        };
        router.publish("events/", ev);
    }
    assert!(!expect_b.is_empty(), "8 roots must split across 2 shards");
    assert!(router.drain(Duration::from_secs(10)));

    let got_a = collect_paths(&shard_a2.pull(), expect_a.len());
    let got_b = collect_paths(&shard_b.pull(), expect_b.len());
    assert_eq!(got_a.len(), expect_a.len(), "restarted shard lost or duplicated items");
    assert_eq!(got_a.iter().cloned().collect::<HashSet<_>>(), expect_a);
    assert_eq!(got_b.iter().cloned().collect::<HashSet<_>>(), expect_b);
    assert_eq!(shard_a2.stats().duplicates, 0, "restored marks must dedup the resend window");
    shard_a2_ep.shutdown();
    shard_b_ep.shutdown();
}

#[test]
fn scatter_store_merges_in_seq_order_and_degrades_on_shard_loss() {
    let cfg = fast_cfg();
    let store0 = {
        let s = EventStore::new(4096);
        for seq in 1..=6 {
            s.insert(sev(seq, &format!("/a/{seq}"))).unwrap();
        }
        Arc::new(s)
    };
    let store1 = {
        let s = EventStore::new(4096);
        for seq in 1..=4 {
            s.insert(sev(seq, &format!("/b/{seq}"))).unwrap();
        }
        Arc::new(s)
    };
    let endpoint0 =
        Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![StoreServer::new(store0)]).unwrap();
    let endpoint1 =
        Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![StoreServer::new(store1)]).unwrap();
    let scatter = ScatterStore::new(
        vec![(0, endpoint0.local_addr()), (1, endpoint1.local_addr())],
        cfg.clone(),
    );

    // Shards keep independent seq spaces; the merge interleaves them in
    // (seq, shard slot) order — ties resolve to the lower slot.
    let merged = scatter.query(&StoreQuery::after_seq(0));
    assert_eq!(merged.len(), 10);
    let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![1, 1, 2, 2, 3, 3, 4, 4, 5, 6]);
    assert_eq!(merged[0].event.path, Path::new("/a/1"));
    assert_eq!(merged[1].event.path, Path::new("/b/1"));

    // after_seq and limit both apply per shard, then at the merge.
    let tail = scatter.query(&StoreQuery::after_seq(4));
    assert_eq!(
        tail.iter().map(|e| e.event.path.clone()).collect::<Vec<_>>(),
        vec![PathBuf::from("/a/5"), PathBuf::from("/a/6")]
    );
    let limited = scatter.query(&StoreQuery::after_seq(0).limit(5));
    assert_eq!(limited.len(), 5);
    assert_eq!(limited.last().unwrap().seq, 3);
    assert_eq!(scatter.degraded(), 0);

    // Kill shard 1: the query is degraded but answered — shard 0's
    // events come back, and the failure is attributed to shard 1.
    endpoint1.shutdown();
    let degraded = scatter.query(&StoreQuery::after_seq(0));
    assert_eq!(degraded.len(), 6, "the live shard must still answer");
    assert!(degraded.iter().all(|e| e.event.path.starts_with("/a")));
    assert_eq!(scatter.degraded(), 1);
    let errors: BTreeMap<_, _> = scatter.shard_errors().into_iter().collect();
    assert_eq!(errors[&0], 0);
    assert_eq!(errors[&1], 1);
    endpoint0.shutdown();
}
