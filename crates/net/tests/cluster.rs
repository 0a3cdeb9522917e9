//! Sharded-tier integration at the net layer: the map service, the
//! collector-side router (including a shard crash with pushes in
//! flight), and the scatter-gather store front.

use sdci_core::{EventBackend, EventStore, SequencedEvent, ShardMap, StoreQuery};
use sdci_mq::transport::Publish;
use sdci_net::{
    fetch_map, Endpoint, MapServer, NetConfig, RetryPolicy, ScatterStore, ShardRouter, StoreServer,
    TcpPullServer, WIRE_PROTO,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
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

/// One raw control frame: the length word, then the JSON body.
fn json_frame(body: &str) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Reads one raw frame body off `stream`.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

#[test]
fn map_server_serves_the_map() {
    let cfg = fast_cfg();
    let initial = ShardMap::new(["127.0.0.1:7070", "127.0.0.1:7080"]);
    let srv = MapServer::new(initial.clone());
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![srv.clone()]).unwrap();

    // Every connection is served the same map.
    for _ in 0..2 {
        assert_eq!(fetch_map(endpoint.local_addr(), &cfg).unwrap(), initial);
    }
    assert_eq!(srv.map(), &initial);
    assert_eq!(srv.fetches(), 2);
    endpoint.shutdown();
}

/// The map service knows `GetMap`, `Map` and `Ping`. Anything else — an
/// `AddShard`, say — fails closed: the connection is dropped unanswered
/// and the map every reader is served stays as it was.
#[test]
fn map_server_closes_on_a_message_it_does_not_know() {
    let cfg = fast_cfg();
    let initial = ShardMap::new(["127.0.0.1:7070"]);
    let srv = MapServer::new(initial.clone());
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![srv.clone()]).unwrap();

    let mut stream = TcpStream::connect(endpoint.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = format!(r#"{{"proto":{WIRE_PROTO},"service":"Cluster"}}"#);
    stream.write_all(&json_frame(&hello)).unwrap();
    stream.write_all(&json_frame(r#"{"AddShard":{"addr":"127.0.0.1:7080"}}"#)).unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection closed, got {other:?}"),
    }
    assert_eq!(srv.map(), &initial);
    assert_eq!(fetch_map(endpoint.local_addr(), &cfg).unwrap(), initial);
    endpoint.shutdown();
}

/// A map with no shard could not route: one arriving over the wire is
/// refused as it is decoded, so `fetch_map` fails instead of handing a
/// router a map whose first `publish` would divide by zero.
#[test]
fn fetch_map_refuses_a_map_with_no_shard() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_frame(&mut stream); // the hello
        assert_eq!(read_frame(&mut stream), br#""GetMap""#);
        stream.write_all(&json_frame(r#"{"Map":{"map":{"shards":[]}}}"#)).unwrap();
        // Hold the connection open until the client has read the reply.
        let _ = stream.read(&mut [0u8; 1]);
    });
    let err = fetch_map(addr, &fast_cfg()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    server.join().unwrap();
}

#[test]
fn router_sends_each_root_to_the_shard_the_map_names() {
    let cfg = fast_cfg();
    let shard_a = TcpPullServer::<FileEvent>::new(4096);
    let shard_a_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_a.clone()]).unwrap();
    let shard_b = TcpPullServer::<FileEvent>::new(4096);
    let shard_b_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_b.clone()]).unwrap();
    let map =
        ShardMap::new([shard_a_ep.local_addr().to_string(), shard_b_ep.local_addr().to_string()]);
    let router = ShardRouter::connect(map.clone(), "col", cfg.clone()).unwrap();

    let mut expect_a = HashSet::new();
    let mut expect_b = HashSet::new();
    for i in 0..16u64 {
        let path = format!("/proj{i}/f");
        let ev = fev(&path, i);
        match map.route_event(&ev).id {
            0 => expect_a.insert(PathBuf::from(&path)),
            _ => expect_b.insert(PathBuf::from(&path)),
        };
        router.publish("events/", ev);
    }
    assert!(!expect_a.is_empty() && !expect_b.is_empty(), "16 roots must split across 2 shards");
    assert!(router.drain(Duration::from_secs(10)));

    let got_a = collect_paths(&shard_a.pull(), expect_a.len());
    let got_b = collect_paths(&shard_b.pull(), expect_b.len());
    assert_eq!(got_a.len(), expect_a.len(), "shard 0 received off-map or duplicated traffic");
    assert_eq!(got_b.len(), expect_b.len(), "shard 1 received off-map or duplicated traffic");
    assert_eq!(got_a.into_iter().collect::<HashSet<_>>(), expect_a);
    assert_eq!(got_b.into_iter().collect::<HashSet<_>>(), expect_b);
    let routed: BTreeMap<_, _> = router.routed().into_iter().collect();
    assert_eq!(routed[&0], expect_a.len() as u64);
    assert_eq!(routed[&1], expect_b.len() as u64);
    shard_a_ep.shutdown();
    shard_b_ep.shutdown();
}

/// A shard killed with pushes in flight holds up only its own pipe:
/// once it restarts at the same address with its restored dedup marks,
/// the supervised pipe reconnects and re-delivers the unacked window
/// exactly once.
#[test]
fn a_restarted_shard_receives_the_unacked_window_exactly_once() {
    let cfg = fast_cfg();
    let shard_a = TcpPullServer::<FileEvent>::new(4096);
    let shard_a_ep = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![shard_a.clone()]).unwrap();
    let addr_a = shard_a_ep.local_addr();
    let router =
        ShardRouter::connect(ShardMap::new([addr_a.to_string()]), "col", cfg.clone()).unwrap();

    // Round 1 is fully acked, so it can never be resent.
    for i in 0..20u64 {
        router.publish("events/", fev(&format!("/r{}/warm{i}", i % 4), i));
    }
    assert!(router.drain(Duration::from_secs(10)));
    assert_eq!(collect_paths(&shard_a.pull(), 20).len(), 20);

    // Crash the shard, then keep publishing: round 2 sits unacked in
    // the router's pipe, and a drain cannot finish.
    let marks = shard_a.marks();
    shard_a_ep.shutdown();
    let round2: Vec<String> = (0..15u64).map(|i| format!("/r{}/crash{i}", i % 4)).collect();
    for (i, path) in round2.iter().enumerate() {
        router.publish("events/", fev(path, 100 + i as u64));
    }
    assert!(!router.drain(Duration::from_millis(300)), "a dead shard cannot ack");

    // The shard restarts at the same address with its restored marks.
    let shard_a2 = TcpPullServer::<FileEvent>::with_marks(4096, marks);
    let shard_a2_ep = Endpoint::bind(addr_a, cfg.clone(), vec![shard_a2.clone()]).unwrap();
    assert!(router.drain(Duration::from_secs(10)));

    let got = collect_paths(&shard_a2.pull(), round2.len());
    assert_eq!(got.len(), round2.len(), "restarted shard lost or duplicated items");
    assert_eq!(
        got.into_iter().collect::<HashSet<_>>(),
        round2.iter().map(PathBuf::from).collect::<HashSet<_>>()
    );
    assert_eq!(shard_a2.stats().duplicates, 0, "restored marks must dedup the resend window");
    shard_a2_ep.shutdown();
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
