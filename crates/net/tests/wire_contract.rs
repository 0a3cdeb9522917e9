//! The wire contract: one front door, one version, one encoding per
//! frame kind.
//!
//! * Every connection opens with one `Hello`. One announcing another
//!   wire version — or none — is refused whichever of the four services
//!   it asks for, as is one asking for a service not attached at that
//!   address or for one that does not exist (a peer offering to publish
//!   into a feed): the connection is closed, nothing sent behind the
//!   hello is applied, the refusal is recorded, and the endpoint keeps
//!   serving peers that speak its version.
//! * Bytes that are neither a hello nor `GET ` are closed, not routed —
//!   a hello cut short, and one whose length word claims more than a
//!   hello can be, are refused like any other; a silent peer is dropped
//!   after the liveness window; `GET /metrics` is answered on the same
//!   address, outside any fault plan.
//! * A lone event on each leg travels as exactly one binary one-member
//!   batch frame and arrives intact, trace context included.
//! * A store query and the store ping are the JSON they have always
//!   been, byte for byte; a store reply has no JSON form at all.
//! * A push mark never wraps: a peer's `resume_after`, a batch that would
//!   carry the mark past `u64::MAX`, and a server's greeting of
//!   `u64::MAX` each cost one connection — neither side panics, and the
//!   server goes on serving, the pusher on dialing.
//! * After the hello a length word still sizes nothing: a JSON body —
//!   every control frame — is refused as soon as its word claims more
//!   than a hello may be, and a binary body's buffer grows with the
//!   bytes that actually arrive, not with the claim; a long store query
//!   and a reply far over one growth step still round-trip.
//!
//! The allocator is this binary's own (as in `wire_mutation.rs`): it
//! records the largest single request the calling thread has made.

use sdci_core::{EventBackend, EventStore, FeedMessage, SequencedEvent, ShardMap, StoreQuery};
use sdci_mq::pubsub::Broker;
use sdci_mq::transport::Subscribe;
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{
    write_hello, write_item_batch_bin, write_msg, BinEncoder, Frame, FrameReader, Hello, Service,
    MAX_HELLO_LEN,
};
use sdci_net::{
    fetch_map, Endpoint, MapServer, NetConfig, RemoteStore, RetryPolicy, StoreServer, TcpBroker,
    TcpPullServer, TcpPush, TcpSubscriber, WireMsg, BIN_FRAME_BIT, WIRE_PROTO,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    // A `const`-initialised `Cell` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestRequest;

fn note(size: usize) {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the note touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// The largest single allocation request `f` makes on this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

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

/// The refusal counters and the connection-thread census are
/// process-wide, so every test that binds an [`Endpoint`] holds this
/// lock: their before/after deltas are then exact.
static ENDPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn endpoints() -> std::sync::MutexGuard<'static, ()> {
    ENDPOINTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const CTX: TraceContext = TraceContext { trace_id: 0xfeed_beef, parent_span_id: 77, sampled: true };

fn traced_event() -> FileEvent {
    FileEvent {
        index: 1,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_secs(1),
        path: "/lone/event".into(),
        src_path: None,
        target: Fid::new(1, 1, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: Some(CTX),
    }
}

/// Connects and sends `bytes` as they are.
fn connect_and_send(addr: SocketAddr, bytes: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(bytes).unwrap();
    stream
}

/// Connects and sends `body` as one hand-written JSON frame.
fn connect_with_hello(addr: SocketAddr, body: &str) -> TcpStream {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    connect_and_send(addr, &frame)
}

/// The server must close the connection without sending a byte: EOF,
/// or a reset when it closed with our frames still unread.
fn assert_closed_unanswered(stream: &mut TcpStream, what: &str) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("{what}: expected the connection closed, got {other:?}"),
    }
}

fn refused(leg: &str) -> u64 {
    sdci_obs::registry().counter_with("sdci_net_hello_refused_total", &[("leg", leg)]).get()
}

/// One `GET`; returns `(status line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let request = format!("GET {path} HTTP/1.1\r\nHost: sdci\r\n\r\n");
    let mut response = String::new();
    connect_and_send(addr, request.as_bytes()).read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP response");
    (head.lines().next().unwrap_or_default().to_string(), body.to_string())
}

/// Reads one raw frame: `(is_binary, body)`.
fn read_raw_frame(stream: &mut TcpStream) -> (bool, Vec<u8>) {
    let mut word = [0u8; 4];
    stream.read_exact(&mut word).unwrap();
    let word = u32::from_be_bytes(word);
    let mut body = vec![0u8; (word & !BIN_FRAME_BIT) as usize];
    stream.read_exact(&mut body).unwrap();
    (word & BIN_FRAME_BIT != 0, body)
}

/// Reads the hello a client endpoint opened its connection with.
fn read_hello(stream: &mut TcpStream) -> Service {
    let (binary, body) = read_raw_frame(stream);
    assert!(!binary, "the hello is a control frame");
    let hello = Hello::decode(false, &body).unwrap();
    assert_eq!(hello.proto, WIRE_PROTO);
    hello.service
}

/// Reads the rest of a session up to its `Fin`, asserting no further
/// data frame arrives on the way.
fn expect_only_control_until_fin(stream: &mut TcpStream, what: &str) {
    loop {
        let (binary, body) = read_raw_frame(stream);
        assert!(!binary, "{what}: a second data frame followed the lone event's");
        if Frame::<FileEvent>::decode(false, &body).unwrap() == Frame::Fin {
            return;
        }
    }
}

/// The four services, as the JSON a hello names them with.
const SERVICES: [(&str, &str); 4] = [
    ("push", r#"{"Push":{"client":"old","resume_after":0}}"#),
    ("subscriber", r#"{"Subscriber":{"prefixes":[""]}}"#),
    ("store", r#""Store""#),
    ("cluster", r#""Cluster""#),
];

/// One binary frame of kind 2 — a topic-headed batch addressed *to* a
/// broker, which no frame vocabulary has — forging the feed's own
/// heartbeat: kind, flags, topic, count, then one
/// `FeedMessage::Heartbeat { last_seq: u64::MAX }` (a first member's
/// delta against zero: −1, zig-zagged to 1).
fn forged_heartbeat_body() -> Vec<u8> {
    let mut body = vec![2u8, 0, 8];
    body.extend_from_slice(b"feed/all");
    body.push(1); // one member
    body.extend_from_slice(&[1, 1]); // the Heartbeat tag, the delta
    body
}

/// `body` behind a length word announcing a binary frame.
fn binary_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32 | BIN_FRAME_BIT).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

#[test]
fn a_wrong_or_missing_version_is_refused_for_every_service_and_the_endpoint_keeps_serving() {
    let _serial = endpoints();
    let pull = TcpPullServer::<u64>::new(64);
    let broker = TcpBroker::<u64>::new(Broker::new(8192));
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let map = MapServer::new(ShardMap::new(["127.0.0.1:7070"]));
    let endpoint = Endpoint::bind(
        "127.0.0.1:0",
        fast_cfg(),
        vec![pull.clone(), broker.clone(), store.clone(), map.clone()],
    )
    .unwrap();
    let addr = endpoint.local_addr();
    let local = broker.subscribe(&[""]);

    for (leg, service) in SERVICES {
        // Another version names its leg; no version does not decode at
        // all, so the refusal cannot say what the peer wanted.
        for (counted_as, hello) in [
            (leg, format!(r#"{{"proto":{},"service":{service}}}"#, WIRE_PROTO - 1)),
            ("unknown", format!(r#"{{"service":{service}}}"#)),
        ] {
            let before = refused(counted_as);
            let mut stream = connect_with_hello(addr, &hello);
            // Data right behind a refused hello must never be applied.
            let _ = write_item_batch_bin(&mut stream, &mut BinEncoder::new(), 1, &[7u64], None);
            broker.publisher().publish("t/y", 8);
            assert_closed_unanswered(&mut stream, &hello);
            assert_eq!(refused(counted_as), before + 1, "refusal not recorded: {hello}");
        }
    }
    assert_eq!(pull.stats().items, 0);
    assert!(pull.marks().is_empty(), "a refused hello must not even register the client");
    assert_eq!(broker.stats().frames_out, 0, "a refused subscriber was delivered to");
    assert_eq!(store.queries() + map.fetches(), 0);
    while local.try_recv().is_some() {} // the test's own `t/y` publications

    // Every service still serves a peer that speaks the endpoint's version.
    let push = TcpPush::connect(addr, "current", fast_cfg());
    assert!(push.send(42));
    assert!(push.drain(Duration::from_secs(10)), "a correct pusher is still served");
    assert_eq!(pull.pull().recv_timeout(Duration::from_secs(2)), Some(vec![42]));
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["ok/"], fast_cfg());
    let delivered = (0..1000).any(|_| {
        broker.publisher().publish("ok/x", 9);
        subscriber.recv_timeout(Duration::from_millis(10)).is_some()
    });
    assert!(delivered, "a correct subscriber is still served");
    assert!(RemoteStore::connect(addr, fast_cfg()).try_query(&StoreQuery::after_seq(0)).is_ok());
    assert_eq!(fetch_map(addr, &fast_cfg()).unwrap().version(), 1);
    endpoint.shutdown();
}

#[test]
fn a_hello_for_a_service_not_attached_here_is_refused_the_same_way() {
    let _serial = endpoints();
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let broker = TcpBroker::<FeedMessage>::new(Broker::new(8192));
    let endpoint =
        Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![store.clone(), broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    for (leg, service) in SERVICES.iter().filter(|(leg, _)| !["store", "subscriber"].contains(leg))
    {
        let before = refused(leg);
        let hello = format!(r#"{{"proto":{WIRE_PROTO},"service":{service}}}"#);
        assert_closed_unanswered(&mut connect_with_hello(addr, &hello), &hello);
        assert_eq!(refused(leg), before + 1, "refusal not recorded: {hello}");
    }

    // A feed has one writer, the process that owns its broker. A peer
    // that offers to publish into it — and sends a forged heartbeat
    // right behind the offer, which every consumer would trust as the
    // aggregator's own progress marker — names no service at all.
    let subscriber = TcpSubscriber::<FeedMessage>::connect(addr, &["feed/"], fast_cfg());
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.stats().accepted == 0 {
        assert!(Instant::now() < deadline, "the subscriber never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (refused_before, accepted_before) = (refused("unknown"), broker.stats().accepted);
    let hello = format!(r#"{{"proto":{WIRE_PROTO},"service":"Publisher"}}"#);
    let mut peer = connect_with_hello(addr, &hello);
    let _ = peer.write_all(&binary_frame(&forged_heartbeat_body()));
    let forged = subscriber.recv_timeout(Duration::from_millis(300));
    assert!(forged.is_none(), "a remote peer wrote into the feed: {forged:?}");
    assert_closed_unanswered(&mut peer, &hello);
    // `refuse` writes the error-level record and bumps this counter in
    // one place; `net_distributed` reads the record off a real process.
    assert_eq!(refused("unknown"), refused_before + 1, "refusal not recorded: {hello}");
    assert_eq!(broker.stats().accepted, accepted_before, "the peer reached the broker");
    // The feed's owner still publishes, and only what it publishes arrives.
    let genuine = FeedMessage::Heartbeat { last_seq: 7 };
    let delivered = (0..1000).find_map(|_| {
        broker.publisher().publish("feed/all", genuine.clone());
        subscriber.recv_timeout(Duration::from_millis(10))
    });
    assert_eq!(delivered.map(|msg| msg.payload), Some(genuine));

    let remote = RemoteStore::connect(addr, fast_cfg());
    assert!(remote.query(&StoreQuery::after_seq(0)).is_empty());
    assert_eq!(store.queries(), 1, "the attached service still answers");
    endpoint.shutdown();
}

/// The same kind-2 body is no frame on any leg: it does not decode, and
/// sent down an established push session it costs that connection only.
#[test]
fn a_kind_2_body_is_invalid_data_and_costs_one_connection() {
    let _serial = endpoints();
    let body = forged_heartbeat_body();
    let err = Frame::<FeedMessage>::decode(true, &body).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("kind 2"), "refused for another reason: {err}");
    // Nothing but the kind is wrong with it: as kind 4 it is the heartbeat.
    let mut as_deliver = body.clone();
    as_deliver[0] = 4;
    assert_eq!(
        Frame::<FeedMessage>::decode(true, &as_deliver).unwrap(),
        Frame::DeliverBatch {
            topic: "feed/all".into(),
            payloads: vec![FeedMessage::Heartbeat { last_seq: u64::MAX }],
            trace: None,
        }
    );

    let pull = TcpPullServer::<FeedMessage>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![pull.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_hello(&mut stream, Service::Push { client: "hostile".into(), resume_after: 0 }).unwrap();
    let (binary, greeting) = read_raw_frame(&mut stream);
    assert!(!binary);
    assert_eq!(Frame::<FeedMessage>::decode(false, &greeting).unwrap(), Frame::Ack { up_to: 0 });
    stream.write_all(&binary_frame(&body)).unwrap();
    assert_closed_unanswered(&mut stream, "a kind-2 frame on a push session");
    assert_eq!(pull.stats().items, 0, "the undecodable frame was applied");

    let genuine = FeedMessage::Heartbeat { last_seq: 7 };
    let push = TcpPush::connect(addr, "current", fast_cfg());
    assert!(push.send(genuine.clone()));
    assert!(push.drain(Duration::from_secs(10)), "the endpoint stopped serving other pushers");
    assert_eq!(pull.pull().recv_timeout(Duration::from_secs(2)), Some(vec![genuine]));
    endpoint.shutdown();
}

/// Threads of this process currently serving an endpoint connection.
#[cfg(target_os = "linux")]
fn conn_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "sdci-net-conn")
        })
        .count()
}

#[test]
fn a_silent_peer_is_dropped_after_the_liveness_window_and_holds_no_thread() {
    let _serial = endpoints();
    let cfg = fast_cfg();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![]).unwrap();
    let connected = Instant::now();
    let mut stream = connect_and_send(endpoint.local_addr(), b"");
    assert_closed_unanswered(&mut stream, "silent peer");
    let held = connected.elapsed();
    assert!(held >= cfg.liveness, "dropped after {held:?}, before its liveness window ran out");
    assert!(held < cfg.liveness * 4, "a silent peer held its connection for {held:?}");
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(2);
        while conn_threads() > 0 {
            assert!(Instant::now() < deadline, "the dropped peer's thread is still alive");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    endpoint.shutdown();
}

#[test]
fn post_and_garbage_first_bytes_are_closed_not_routed() {
    let _serial = endpoints();
    let pull = TcpPullServer::<u64>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![pull.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let before = refused("unknown");
    // `POST` (and any other text) reads as an oversized length word; a
    // binary-flagged or non-JSON body is no hello either, nor is one the
    // peer cuts short by closing.
    let hostile: [&[u8]; 6] = [
        b"POST /metrics HTTP/1.1\r\nHost: sdci\r\n\r\n",
        b"get /metrics HTTP/1.1\r\n\r\n",
        &[0xff; 64],
        &[0x80, 0, 0, 2, 1, 0],
        b"\0\0\0\x08not json",
        b"\0\0\0\x30{\"proto\":10,\"serv",
    ];
    for bytes in hostile {
        let what = String::from_utf8_lossy(bytes).into_owned();
        let mut stream = connect_and_send(addr, bytes);
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert_closed_unanswered(&mut stream, &what);
    }
    assert_eq!(refused("unknown"), before + hostile.len() as u64, "each one is recorded");
    assert_eq!(pull.stats().accepted, 0, "nothing hostile reached a service");
    assert!(http_get(addr, "/metrics").0.contains("200"), "the front door still answers");
    endpoint.shutdown();
}

/// An unauthenticated peer's length word sizes nothing: one claiming a
/// body just under `MAX_FRAME_LEN`, then silence, is refused on the word
/// alone — at once, not after the liveness window — and so is a word one
/// byte over `MAX_HELLO_LEN`; a hello cut short and left silent is
/// refused when the window runs out. Meanwhile another peer on the same
/// endpoint is served.
#[test]
fn a_hello_length_word_past_what_a_hello_can_be_is_refused_before_it_is_buffered() {
    let _serial = endpoints();
    let cfg = fast_cfg();
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![store.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let before = refused("unknown");
    let over = (sdci_net::wire::MAX_HELLO_LEN as u32 + 1).to_be_bytes();
    for word in [0x03FF_FFFFu32.to_be_bytes(), over] {
        let sent = Instant::now();
        let mut silent = connect_and_send(addr, &word);
        assert_closed_unanswered(&mut silent, &format!("length word {word:x?}"));
        assert!(sent.elapsed() < cfg.liveness / 2, "refused after {:?}", sent.elapsed());
    }
    assert_eq!(refused("unknown"), before + 2, "each one is recorded");

    let sent = Instant::now();
    let mut cut = connect_and_send(addr, b"\0\0\0\x30{\"proto\":10");
    let remote = RemoteStore::connect(addr, fast_cfg());
    assert!(remote.try_query(&StoreQuery::after_seq(0)).is_ok(), "another peer is served");
    assert_closed_unanswered(&mut cut, "a hello cut short");
    assert!(sent.elapsed() >= cfg.liveness, "refused after {:?}", sent.elapsed());
    assert_eq!(refused("unknown"), before + 3);
    assert_eq!(store.queries(), 1);
    endpoint.shutdown();
}

/// Hands out whatever bytes the test has sent so far, then reports
/// `WouldBlock`: a peer that sends a frame piece by piece and falls
/// silent in between.
struct Trickle(std::rc::Rc<std::cell::RefCell<std::collections::VecDeque<u8>>>);

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut sent = self.0.borrow_mut();
        if sent.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(sent.len());
        buf.iter_mut().zip(sent.drain(..n)).for_each(|(slot, byte)| *slot = byte);
        Ok(n)
    }
}

/// A length word an authenticated peer sends sizes nothing either. A
/// JSON word claiming a megabyte is refused on the word alone — on a
/// reader handed nothing else, and on an established push session, which
/// the endpoint closes at once, not after the liveness window. A binary
/// word claiming 60 MiB, followed by silence, leaves the reader holding
/// at most 128 KiB however many times it is called; once a megabyte of
/// the body has come, it holds at most twice that and a step.
#[test]
fn after_the_hello_a_length_word_pins_no_more_than_the_bytes_that_came() {
    let json_word = (1u32 << 20).to_be_bytes();
    let err = FrameReader::new(&json_word[..]).read_msg::<Frame<FileEvent>>().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(&format!("exceeds {MAX_HELLO_LEN}")), "{err}");

    let sent = std::rc::Rc::new(std::cell::RefCell::new(std::collections::VecDeque::new()));
    let mut reader = FrameReader::new(Trickle(sent.clone()));
    let silent_reads = |reader: &mut FrameReader<Trickle>| {
        largest_request(|| {
            for _ in 0..8 {
                let err = reader.read_msg::<Frame<FileEvent>>().unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
            }
        })
        .1
    };
    sent.borrow_mut().extend(((60u32 << 20) | BIN_FRAME_BIT).to_be_bytes());
    let largest = silent_reads(&mut reader);
    assert!(largest <= 128 << 10, "on the word alone, a request for {largest} bytes");
    sent.borrow_mut().extend(std::iter::repeat_n(0xa5, 1 << 20));
    let largest = silent_reads(&mut reader);
    assert!(largest <= 2 * ((1 << 20) + (64 << 10)), "after 1 MiB, a request for {largest} bytes");

    let _serial = endpoints();
    let cfg = fast_cfg();
    let pull = TcpPullServer::<FeedMessage>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![pull.clone()]).unwrap();
    let mut stream = TcpStream::connect(endpoint.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_hello(&mut stream, Service::Push { client: "claims".into(), resume_after: 0 }).unwrap();
    let (binary, greeting) = read_raw_frame(&mut stream);
    assert!(!binary);
    assert_eq!(Frame::<FeedMessage>::decode(false, &greeting).unwrap(), Frame::Ack { up_to: 0 });
    let sent = Instant::now();
    stream.write_all(&json_word).unwrap();
    assert_closed_unanswered(&mut stream, "a megabyte-long control frame");
    assert!(sent.elapsed() < cfg.liveness / 2, "refused after {:?}", sent.elapsed());
    endpoint.shutdown();
}

/// The largest honest frames still travel: a query under a 4,096-byte
/// prefix — a control frame of over four kilobytes — and a 1,000-event
/// reply of long names, well past one step of the reader's buffer
/// growth, each round-trip through a remote store.
#[test]
fn a_long_store_query_and_a_reply_past_one_read_step_round_trip() {
    let _serial = endpoints();
    let mut rng = 0x5dc1_0011u64;
    let mut hex = |len: usize| -> String {
        (0..len)
            .map(|_| {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                char::from_digit((rng >> 60) as u32, 16).unwrap()
            })
            .collect()
    };
    let event = |seq: u64, path: String| SequencedEvent {
        seq,
        event: FileEvent { index: seq, path: path.into(), trace: None, ..traced_event() },
    };
    let mut events: Vec<SequencedEvent> =
        (1..=1_000).map(|seq| event(seq, format!("/long/d{}/{}", seq % 7, hex(200)))).collect();
    let page = format!("/{}", "p".repeat(4_095));
    events.push(event(1_001, page.clone()));
    let store = EventStore::new(2_000);
    store.insert_batch(events.clone()).unwrap();
    let server = StoreServer::new(Arc::new(store));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap();
    let remote = RemoteStore::connect(endpoint.local_addr(), fast_cfg());

    let under = remote.try_query(&StoreQuery::after_seq(0).under(&page)).unwrap();
    assert_eq!(under, events[1_000..]);
    let reply = StoreRpc::Batch { events: events[..1_000].to_vec() };
    let mut body = Vec::new();
    reply.encode(&mut BinEncoder::new(), &mut body).unwrap();
    assert!(body.len() > 64 << 10, "a {}-byte reply fits one read step", body.len());
    let all = remote.try_query(&StoreQuery::after_seq(0).limit(1_000)).unwrap();
    assert_eq!(all, events[..1_000]);
    assert_eq!(server.queries(), 2);
    endpoint.shutdown();
}

#[test]
fn get_metrics_on_a_faulted_endpoint_is_answered_unfaulted() {
    let _serial = endpoints();
    // Every frame in either direction vanishes: no framed peer gets
    // anywhere on this endpoint...
    let plan = sdci_faults::FaultPlan::parse("seed=1,drop=1").unwrap();
    let cfg = fast_cfg().with_faults(Some(Arc::new(plan)));
    let pull = TcpPullServer::<u64>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg, vec![pull.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let push = TcpPush::connect(addr, "starved", fast_cfg());
    assert!(push.send(1));
    assert!(!push.drain(Duration::from_millis(300)), "the fault plan is not installed");
    // ...but a scrape is not a frame, and is answered whole.
    sdci_obs::registry().counter("sdci_net_test_scrape_total").add(3);
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("sdci_net_test_scrape_total 3"), "{body}");
    assert!(http_get(addr, "/healthz").0.contains("200"));
    assert!(http_get(addr, "/tracez").1.contains("\"spans\""));
    assert_eq!(pull.stats().items, 0);
    endpoint.shutdown();
}

#[test]
fn a_lone_pushed_event_is_one_binary_frame_with_its_trace_context() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let push = TcpPush::<FileEvent>::connect(listener.local_addr().unwrap(), "lone", fast_cfg());
    assert!(push.send(traced_event()));

    let (mut stream, _) = listener.accept().unwrap();
    assert_eq!(read_hello(&mut stream), Service::Push { client: "lone".into(), resume_after: 0 });
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: 0 }).unwrap();

    let (binary, body) = read_raw_frame(&mut stream);
    assert!(binary, "a lone item must travel as a binary batch frame");
    match Frame::<FileEvent>::decode(true, &body).unwrap() {
        Frame::ItemBatch { first_seq: 1, payloads, trace: Some(hop) } => {
            assert_eq!(payloads, vec![traced_event()], "payload or its context damaged");
            assert_eq!(hop.trace_id, CTX.trace_id, "the frame's send-leg context is the event's");
        }
        other => panic!("expected a traced one-member ItemBatch at seq 1, got {other:?}"),
    }
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: 1 }).unwrap();
    assert!(push.drain(Duration::from_secs(10)));
    drop(push);
    expect_only_control_until_fin(&mut stream, "push leg");
}

#[test]
fn a_lone_delivered_event_is_one_binary_frame_with_its_trace_context() {
    let _serial = endpoints();
    let broker = TcpBroker::<FileEvent>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let mut stream = TcpStream::connect(endpoint.local_addr()).unwrap();
    write_hello(&mut stream, Service::Subscriber { prefixes: vec!["feed/".into()] }).unwrap();

    // The leg registers asynchronously; publish the lone event only
    // once the leg's first `Ping` shows it is being served.
    let (binary, body) = read_raw_frame(&mut stream);
    assert!(!binary);
    assert_eq!(Frame::<FileEvent>::decode(false, &body).unwrap(), Frame::Ping);
    broker.publisher().publish("feed/all", traced_event());

    let (binary, body) = loop {
        let (binary, body) = read_raw_frame(&mut stream);
        if binary || Frame::<FileEvent>::decode(false, &body).unwrap() != Frame::Ping {
            break (binary, body);
        }
    };
    assert!(binary, "a lone delivery must travel as a binary batch frame");
    assert_eq!(
        Frame::<FileEvent>::decode(true, &body).unwrap(),
        Frame::DeliverBatch {
            topic: "feed/all".into(),
            payloads: vec![traced_event()],
            trace: None
        }
    );
    endpoint.shutdown();
    expect_only_control_until_fin(&mut stream, "deliver leg");
}

/// The store RPC's control frames, pinned as bytes: what PR 22's binary
/// wrote for an `after_seq` query, a time-and-prefix query with a limit,
/// a query carrying its caller's trace context, and the ping — and a
/// JSON body naming the reply variant is `InvalidData`, whatever it
/// holds.
#[test]
fn store_queries_and_pings_are_the_json_they_were_and_a_json_batch_is_invalid_data() {
    let prefixed = StoreQuery::since(SimTime::from_secs(3)).under("/proj/é \"q\"").limit(7);
    let traced = Some(TraceContext::sampled(0xfeed, 77));
    for (msg, json) in [
        (
            StoreRpc::Query { query: StoreQuery::after_seq(41), trace: None },
            r#"{"Query":{"query":{"after_seq":41,"since":null,"path_prefix":null,"limit":0},"trace":null}}"#,
        ),
        (
            StoreRpc::Query { query: prefixed, trace: None },
            r#"{"Query":{"query":{"after_seq":null,"since":3000000000,"path_prefix":"/proj/é \"q\"","limit":7},"trace":null}}"#,
        ),
        (
            StoreRpc::Query { query: StoreQuery::after_seq(0), trace: traced },
            r#"{"Query":{"query":{"after_seq":0,"since":null,"path_prefix":null,"limit":0},"trace":{"trace_id":65261,"parent_span_id":77,"sampled":true}}}"#,
        ),
        (StoreRpc::Ping, r#""Ping""#),
    ] {
        let mut body = Vec::new();
        assert!(
            !msg.encode(&mut BinEncoder::new(), &mut body).unwrap(),
            "{msg:?} is a control frame"
        );
        assert_eq!(std::str::from_utf8(&body).unwrap(), json);
        assert_eq!(StoreRpc::decode(false, json.as_bytes()).unwrap(), msg);
    }
    // A query sent without the trace key reads as untraced.
    let bare = r#"{"Query":{"query":{"after_seq":41,"since":null,"path_prefix":null,"limit":0}}}"#;
    assert_eq!(
        StoreRpc::decode(false, bare.as_bytes()).unwrap(),
        StoreRpc::Query { query: StoreQuery::after_seq(41), trace: None }
    );

    for body in [r#"{"Batch":{"events":[]}}"#, r#"{"Batch":{"events":[{"seq":1}]}}"#, r#""Batch""#]
    {
        let err = StoreRpc::decode(false, body.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "accepted: {body}");
    }
}

/// Threads of this process named `sdci-net-…` — an endpoint's connection
/// handlers, a pusher's worker — that have panicked so far. The first
/// call installs the hook that counts them, ahead of the one that
/// reports them.
fn net_thread_panics() -> usize {
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name().is_some_and(|name| name.starts_with("sdci-net-")) {
                PANICS.fetch_add(1, Ordering::Relaxed);
            }
            report(info);
        }));
    });
    PANICS.load(Ordering::Relaxed)
}

fn pushed_event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        path: format!("/mark/f{i}").into(),
        target: Fid::new(1, i as u32, 0),
        trace: None,
        ..traced_event()
    }
}

/// Opens a push session by hand, as `client` resuming after
/// `resume_after`, and checks the server greets it with that mark.
fn greeted(addr: SocketAddr, client: &str, resume_after: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_hello(&mut stream, Service::Push { client: client.into(), resume_after }).unwrap();
    let (binary, body) = read_raw_frame(&mut stream);
    assert!(!binary, "the greeting is a control frame");
    let greeting = Frame::<FileEvent>::decode(false, &body).unwrap();
    assert_eq!(greeting, Frame::Ack { up_to: resume_after });
    stream
}

/// A push mark is the peer's to raise — its hello's `resume_after` — and
/// its frames' to advance, and no sum of them may pass `u64::MAX`: a mark
/// with no sequence number after it, a batch that would carry the mark
/// past it, and a continuing batch the server must nack from it each cost
/// their connection, closed unanswered, with none of their members handed
/// on and no handler panicking; the server goes on serving a well-behaved
/// pusher.
#[test]
fn a_push_mark_past_u64_max_costs_the_connection_not_the_server() {
    let _serial = endpoints();
    let panics = net_thread_panics();
    let server = TcpPullServer::<FileEvent>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()]).unwrap();
    let addr = endpoint.local_addr();

    let mut stream = greeted(addr, "at-max", u64::MAX);
    write_item_batch_bin(&mut stream, &mut BinEncoder::new(), 1, &[pushed_event(1)], None).unwrap();
    assert_closed_unanswered(&mut stream, "a batch after a mark of u64::MAX");

    let mut stream = greeted(addr, "past-max", u64::MAX - 1);
    let two = [pushed_event(1), pushed_event(2)];
    write_item_batch_bin(&mut stream, &mut BinEncoder::new(), u64::MAX, &two, None).unwrap();
    assert_closed_unanswered(&mut stream, "a batch carrying the mark past u64::MAX");

    // The second batch continues a first the server never read.
    let mut stream = greeted(addr, "gap-at-max", u64::MAX);
    let mut enc = BinEncoder::new();
    write_item_batch_bin(&mut Vec::new(), &mut enc, 1, &[pushed_event(1)], None).unwrap();
    write_item_batch_bin(&mut stream, &mut enc, 2, &[pushed_event(2)], None).unwrap();
    assert_closed_unanswered(&mut stream, "a continuity gap after a mark of u64::MAX");

    let push = TcpPush::connect(addr, "polite", fast_cfg());
    for i in 1..=3 {
        assert!(push.send(pushed_event(i)));
    }
    assert!(push.drain(Duration::from_secs(10)), "the well-behaved pusher was not served");
    assert_eq!(server.stats().items, 3, "only the well-behaved pusher's events were handed on");
    drop(push);
    endpoint.shutdown();
    assert_eq!(net_thread_panics(), panics, "a connection handler panicked");
}

/// Accepts the next connection on `listener`, failing the test if none
/// arrives within `within`.
fn accept_within(listener: &TcpListener, within: Duration) -> TcpStream {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + within;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                return stream;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("no connection within {within:?}: {e}"),
        }
    }
}

/// A server that greets a fresh pusher with a mark of `u64::MAX` leaves
/// it no sequence number to send under: the pusher counts the handshake
/// as failed — its worker does not panic, and sends nothing on that
/// connection — backs off and dials again, and, greeted sanely there,
/// sends its event as sequence 1.
#[test]
fn a_server_mark_of_u64_max_fails_the_pushers_handshake() {
    let panics = net_thread_panics();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let push = TcpPush::<FileEvent>::connect(addr, "greeted-max", fast_cfg());
    assert!(push.send(pushed_event(1)));

    let hello = Service::Push { client: "greeted-max".into(), resume_after: 0 };
    let mut stream = accept_within(&listener, Duration::from_secs(5));
    assert_eq!(read_hello(&mut stream), hello);
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: u64::MAX }).unwrap();
    assert_closed_unanswered(&mut stream, "a pusher greeted with a mark of u64::MAX");

    let mut stream = accept_within(&listener, Duration::from_secs(5));
    assert_eq!(read_hello(&mut stream), hello);
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: 0 }).unwrap();
    let (binary, body) = read_raw_frame(&mut stream);
    assert!(binary, "the event travels as a batch");
    assert_eq!(
        Frame::<FileEvent>::decode(true, &body).unwrap(),
        Frame::ItemBatch { first_seq: 1, payloads: vec![pushed_event(1)], trace: None }
    );
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: 1 }).unwrap();
    assert!(push.drain(Duration::from_secs(10)));
    drop(push);
    expect_only_control_until_fin(&mut stream, "push leg");
    assert_eq!(net_thread_panics(), panics, "the pusher's worker panicked");
}
