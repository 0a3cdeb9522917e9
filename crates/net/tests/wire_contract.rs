//! The wire contract: one front door, one version, one encoding.
//!
//! * Every connection opens with one binary `Hello`. One announcing
//!   another wire version — or none — is refused whichever of the three
//!   services it asks for, as is one asking for a service not attached at
//!   that address or for one that does not exist (a peer offering to
//!   publish into a feed, or asking for a shard map), and a previous
//!   build's JSON hello: the connection is closed, nothing sent behind the
//!   hello is applied, the refusal is recorded, no handler panics, and the
//!   endpoint keeps serving peers that speak its version.
//! * Bytes that are neither a hello nor `GET ` are closed, not routed —
//!   a hello cut short, and one whose length word claims more than a
//!   hello can be, are refused like any other; a silent peer is dropped
//!   after the liveness window; `GET /metrics` is answered on the same
//!   address, outside any fault plan.
//! * A lone event on each leg travels as exactly one one-member batch
//!   frame and arrives intact, trace context included.
//! * Every frame is binary: a store query and the store ping are a few
//!   bytes, pinned byte for byte. A JSON body — an ack, a ping, a query
//!   or a reply — is refused on a push, feed or store connection and
//!   costs that connection only, as does a query whose prefix is not
//!   UTF-8 or is too long, or that sets a presence bit no field has.
//! * A push mark never wraps: a peer's `resume_after`, a batch that would
//!   carry the mark past `u64::MAX`, and a server's greeting of
//!   `u64::MAX` each cost one connection — neither side panics, and the
//!   server goes on serving, the pusher on dialing.
//! * After the hello a length word still sizes nothing: a word over
//!   `MAX_FRAME_LEN` is refused as soon as it arrives, and a body's buffer
//!   grows with the bytes that actually arrive, not with the claim; a long
//!   store query and a reply far over one growth step still round-trip.
//!
//! The allocator is this binary's own (as in `wire_mutation.rs`): it
//! records the largest single request the calling thread has made.

use sdci_core::{EventBackend, EventStore, FeedMessage, SequencedEvent, StoreQuery};
use sdci_mq::transport::{Publish, Subscribe};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{
    write_hello, write_item_batch_bin, write_msg, BinEncoder, Frame, FrameReader, Hello, Service,
    FRAME_HEADER_LEN, MAX_HELLO_LEN,
};
use sdci_net::{
    Endpoint, NetConfig, RemoteStore, RetryPolicy, StoreServer, TcpBroker, TcpPullServer, TcpPush,
    TcpSubscriber, WireMsg, MAX_FRAME_LEN, WIRE_PROTO,
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

/// Connects and sends `body` as the opening frame.
fn connect_with_hello(addr: SocketAddr, body: &[u8]) -> TcpStream {
    connect_and_send(addr, &frame(body))
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

/// Reads one raw frame body.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut word = [0u8; 4];
    stream.read_exact(&mut word).unwrap();
    let mut body = vec![0u8; u32::from_be_bytes(word) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

/// Reads the hello a client endpoint opened its connection with.
fn read_hello(stream: &mut TcpStream) -> Service {
    let hello = Hello::decode(&read_raw_frame(stream)).unwrap();
    assert_eq!(hello.proto, WIRE_PROTO);
    hello.service
}

/// Reads the rest of a session up to its `Fin`, asserting none of the
/// frames on the way is a second data frame.
fn expect_only_control_until_fin(stream: &mut TcpStream, what: &str) {
    loop {
        match Frame::<FileEvent>::decode(&read_raw_frame(stream)).unwrap() {
            Frame::Fin => return,
            Frame::Ack { .. } | Frame::Ping => {}
            batch => panic!("{what}: a second data frame followed the lone event's: {batch:?}"),
        }
    }
}

/// `body` behind its length word.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// `value` as an unsigned LEB128 varint.
fn varint(value: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    sdci_types::bin::put_varint(&mut bytes, value);
    bytes
}

/// The three services, each with the leg a refusal counts it under.
fn services() -> [(&'static str, Service); 3] {
    [
        ("push", Service::Push { client: "old".into(), resume_after: 0 }),
        ("subscriber", Service::Subscriber { prefixes: vec![String::new()] }),
        ("store", Service::Store),
    ]
}

/// The body of a hello announcing `proto`, whatever version that is.
fn hello_body(proto: u32, service: Service) -> Vec<u8> {
    let mut body = Vec::new();
    Hello { proto, service }.encode(&mut BinEncoder::new(), &mut body).unwrap();
    body
}

/// A hello at this build's version whose service tag, 4, names no
/// service: how a peer asking for the deleted shard map, or offering to
/// publish into a feed, would have to ask.
fn no_such_service() -> Vec<u8> {
    vec![10, 0, WIRE_PROTO as u8, 4]
}

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

#[test]
fn a_wrong_or_missing_version_is_refused_for_every_service_and_the_endpoint_keeps_serving() {
    let _serial = endpoints();
    let pull = TcpPullServer::<u64>::new(64);
    let broker = TcpBroker::<u64>::new();
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let endpoint = Endpoint::bind(
        "127.0.0.1:0",
        fast_cfg(),
        vec![pull.clone(), broker.clone(), store.clone()],
    )
    .unwrap();
    let addr = endpoint.local_addr();

    // Another version, older or newer, names its leg; no version does not
    // decode at all — the service's bytes read as a version and the wrong
    // tag — so the refusal cannot say what the peer wanted. Nor does a
    // hello at this version asking for the shard map: no such service
    // exists.
    let hellos = services().into_iter().flat_map(|(leg, service)| {
        let mut versionless = hello_body(WIRE_PROTO, service.clone());
        versionless.remove(2);
        [
            (leg, hello_body(WIRE_PROTO - 1, service.clone())),
            (leg, hello_body(WIRE_PROTO + 1, service)),
            ("unknown", versionless),
        ]
    });
    for (counted_as, hello) in hellos.chain([("unknown", no_such_service())]) {
        let before = refused(counted_as);
        let mut stream = connect_with_hello(addr, &hello);
        // Data right behind a refused hello must never be applied.
        let _ = write_item_batch_bin(&mut stream, &mut BinEncoder::new(), 1, &[7u64], None);
        broker.publish("t/y", 8);
        assert_closed_unanswered(&mut stream, &format!("{hello:?}"));
        assert_eq!(refused(counted_as), before + 1, "refusal not recorded: {hello:?}");
    }
    assert_eq!(pull.stats().items, 0);
    assert!(pull.marks().is_empty(), "a refused hello must not even register the client");
    assert_eq!(broker.stats().frames_out, 0, "a refused subscriber was delivered to");
    assert_eq!(store.queries(), 0);

    // Every service still serves a peer that speaks the endpoint's version.
    let push = TcpPush::connect(addr, "current", fast_cfg());
    assert!(push.send(42));
    assert!(push.drain(Duration::from_secs(10)), "a correct pusher is still served");
    assert_eq!(pull.pull().recv_timeout(Duration::from_secs(2)), Some(vec![42]));
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["ok/"], fast_cfg());
    let delivered = (0..1000).any(|_| {
        broker.publish("ok/x", 9);
        subscriber.recv_timeout(Duration::from_millis(10)).is_some()
    });
    assert!(delivered, "a correct subscriber is still served");
    assert!(RemoteStore::connect(addr, fast_cfg()).try_query(&StoreQuery::after_seq(0)).is_ok());
    endpoint.shutdown();
}

/// A previous build's hello — JSON behind a plain length word, as wire
/// version 17 wrote it — is no hello of this one, whatever service it
/// asks for: it is refused as a hello that does not decode, counted under
/// `leg="unknown"`, and its connection closed; no handler panics, and the
/// endpoint serves the next connection.
#[test]
fn a_previous_builds_json_hello_is_refused_and_the_next_peer_served() {
    let _serial = endpoints();
    let panics = net_thread_panics();
    let pull = TcpPullServer::<u64>::new(64);
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let endpoint =
        Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![pull.clone(), store.clone()]).unwrap();
    let addr = endpoint.local_addr();
    for hello in [
        r#"{"proto":17,"service":{"Push":{"client":"old","resume_after":0}}}"#,
        r#"{"proto":17,"service":{"Subscriber":{"prefixes":[""]}}}"#,
        r#"{"proto":17,"service":"Store"}"#,
    ] {
        let before = refused("unknown");
        let mut stream = connect_with_hello(addr, hello.as_bytes());
        assert_closed_unanswered(&mut stream, hello);
        assert_eq!(refused("unknown"), before + 1, "refusal not recorded: {hello}");
    }
    assert!(pull.marks().is_empty(), "a refused hello must not even register the client");

    let push = TcpPush::connect(addr, "current", fast_cfg());
    assert!(push.send(42));
    assert!(push.drain(Duration::from_secs(10)), "the next pusher was not served");
    assert!(RemoteStore::connect(addr, fast_cfg()).try_query(&StoreQuery::after_seq(0)).is_ok());
    assert_eq!(store.queries(), 1, "the next store client was not served");
    drop(push);
    endpoint.shutdown();
    assert_eq!(net_thread_panics(), panics, "a connection handler panicked");
}

#[test]
fn a_hello_for_a_service_not_attached_here_is_refused_the_same_way() {
    let _serial = endpoints();
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let broker = TcpBroker::<FeedMessage>::new();
    let endpoint =
        Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![store.clone(), broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    for (leg, service) in services().into_iter().filter(|(leg, _)| *leg == "push") {
        let before = refused(leg);
        let hello = hello_body(WIRE_PROTO, service);
        assert_closed_unanswered(&mut connect_with_hello(addr, &hello), leg);
        assert_eq!(refused(leg), before + 1, "refusal not recorded: {leg}");
    }

    // A feed has one writer, the process that owns its broker. A peer
    // that offers to publish into it — and sends a forged heartbeat
    // right behind the offer, which every consumer would trust as the
    // aggregator's own progress marker — has no service to name.
    let subscriber = TcpSubscriber::<FeedMessage>::connect(addr, &["feed/"], fast_cfg());
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.stats().accepted == 0 {
        assert!(Instant::now() < deadline, "the subscriber never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (refused_before, accepted_before) = (refused("unknown"), broker.stats().accepted);
    let mut peer = connect_with_hello(addr, &no_such_service());
    let _ = peer.write_all(&frame(&forged_heartbeat_body()));
    let forged = subscriber.recv_timeout(Duration::from_millis(300));
    assert!(forged.is_none(), "a remote peer wrote into the feed: {forged:?}");
    assert_closed_unanswered(&mut peer, "a would-be publisher");
    // `refuse` writes the error-level record and bumps this counter in
    // one place; `net_distributed` reads the record off a real process.
    assert_eq!(refused("unknown"), refused_before + 1, "a would-be publisher's refusal");
    assert_eq!(broker.stats().accepted, accepted_before, "the peer reached the broker");
    // The feed's owner still publishes, and only what it publishes arrives.
    let genuine = FeedMessage::Heartbeat { last_seq: 7 };
    let delivered = (0..1000).find_map(|_| {
        broker.publish("feed/all", genuine.clone());
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
    let err = Frame::<FeedMessage>::decode(&body).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("kind 2"), "refused for another reason: {err}");
    // Nothing but the kind is wrong with it: as kind 4 it is the heartbeat.
    let mut as_deliver = body.clone();
    as_deliver[0] = 4;
    assert_eq!(
        Frame::<FeedMessage>::decode(&as_deliver).unwrap(),
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
    let greeting = read_raw_frame(&mut stream);
    assert_eq!(Frame::<FeedMessage>::decode(&greeting).unwrap(), Frame::Ack { up_to: 0 });
    stream.write_all(&frame(&body)).unwrap();
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
    // `POST` (and any other text) reads as an oversized length word, and
    // so does a word with its high bit set; a body that is not a hello is
    // no hello either, nor is one the peer cuts short by closing.
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
        // The endpoint may have refused and closed the connection already:
        // then there is no write side left to shut, and that is no error.
        match stream.shutdown(std::net::Shutdown::Write) {
            Err(e) if e.kind() != std::io::ErrorKind::NotConnected => {
                panic!("{what}: shutting the write side: {e}")
            }
            _ => {}
        }
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
/// byte over `MAX_HELLO_LEN`, even with that many bytes of a subscriber
/// hello behind it, while the same hello a byte shorter, exactly
/// `MAX_HELLO_LEN`, is served; a hello cut short and left silent is
/// refused when the window runs out. Meanwhile another peer on the same
/// endpoint is served.
#[test]
fn a_hello_length_word_past_what_a_hello_can_be_is_refused_before_it_is_buffered() {
    let _serial = endpoints();
    let cfg = fast_cfg();
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let broker = TcpBroker::<u64>::new();
    let endpoint =
        Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![store.clone(), broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let before = refused("unknown");
    // A subscriber hello of one prefix, `len` bytes long in all.
    let subscriber_hello = |len: usize| {
        let prefix = "p".repeat(len - 8);
        let body = hello_body(WIRE_PROTO, Service::Subscriber { prefixes: vec![prefix] });
        assert_eq!(body.len(), len);
        body
    };
    let over = frame(&subscriber_hello(MAX_HELLO_LEN + 1));
    for bytes in [&0x03FF_FFFFu32.to_be_bytes()[..], &over[..FRAME_HEADER_LEN], &over] {
        let sent = Instant::now();
        let mut silent = TcpStream::connect(addr).unwrap();
        silent.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The endpoint may close before the body is all sent.
        let _ = silent.write_all(bytes);
        assert_closed_unanswered(&mut silent, &format!("length word {:x?}", &bytes[..4]));
        assert!(sent.elapsed() < cfg.liveness / 2, "refused after {:?}", sent.elapsed());
    }
    assert_eq!(refused("unknown"), before + 3, "each one is recorded");
    assert_eq!(broker.stats().accepted, 0, "an oversized hello reached the broker");
    let mut longest = connect_with_hello(addr, &subscriber_hello(MAX_HELLO_LEN));
    assert_eq!(Frame::<u64>::decode(&read_raw_frame(&mut longest)).unwrap(), Frame::Ping);
    assert_eq!(broker.stats().accepted, 1, "the longest legal hello was not served");

    let sent = Instant::now();
    let mut cut = connect_and_send(addr, &frame(&hello_body(WIRE_PROTO, Service::Store))[..6]);
    let remote = RemoteStore::connect(addr, fast_cfg());
    assert!(remote.try_query(&StoreQuery::after_seq(0)).is_ok(), "another peer is served");
    assert_closed_unanswered(&mut cut, "a hello cut short");
    assert!(sent.elapsed() >= cfg.liveness, "refused after {:?}", sent.elapsed());
    assert_eq!(refused("unknown"), before + 4);
    assert_eq!(store.queries(), 1);
    drop(longest);
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
/// word a byte over `MAX_FRAME_LEN` — or with its high bit set, which
/// once marked an encoding — is refused on the word alone: on a reader
/// handed nothing else, and on an established push session, which the
/// endpoint closes at once, not after the liveness window. A word
/// claiming 60 MiB, followed by silence, leaves the reader holding at
/// most 128 KiB however many times it is called; once a megabyte of the
/// body has come, it holds at most twice that and a step.
#[test]
fn after_the_hello_a_length_word_pins_no_more_than_the_bytes_that_came() {
    let over_word = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    for word in [over_word, (1u32 << 31 | 2).to_be_bytes()] {
        let err = FrameReader::new(&word[..]).read_msg::<Frame<FileEvent>>().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("exceeds {MAX_FRAME_LEN}")), "{err}");
    }

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
    sent.borrow_mut().extend((60u32 << 20).to_be_bytes());
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
    let greeting = read_raw_frame(&mut stream);
    assert_eq!(Frame::<FeedMessage>::decode(&greeting).unwrap(), Frame::Ack { up_to: 0 });
    let sent = Instant::now();
    stream.write_all(&over_word).unwrap();
    assert_closed_unanswered(&mut stream, "a frame longer than MAX_FRAME_LEN");
    assert!(sent.elapsed() < cfg.liveness / 2, "refused after {:?}", sent.elapsed());
    endpoint.shutdown();
}

/// The largest honest frames still travel: a query under a 4,096-byte
/// prefix — a binary query of over four kilobytes — and a 1,000-event
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

/// A store reply holds what one frame may: with 17,000 events of
/// 4,000-byte paths retained, more path bytes than a reader assembles from
/// one frame, a query for all of them is answered with the first
/// `MAX_FRAME_MEMBERS`, and a consumer that fell behind the whole store
/// takes each short answer as a prefix, asks on at the next heartbeat,
/// and recovers every event, losing none.
#[test]
fn a_consumer_behind_more_path_bytes_than_a_frame_holds_recovers_every_event() {
    use sdci_core::EventConsumer;
    use sdci_types::bin::MAX_FRAME_MEMBERS;

    let _serial = endpoints();
    let path: sdci_types::EventPath = format!("/{}", "d".repeat(3_999)).into();
    let events: Vec<SequencedEvent> = (1..=17_000)
        .map(|seq| SequencedEvent {
            seq,
            event: FileEvent { index: seq, path: path.clone(), trace: None, ..traced_event() },
        })
        .collect();
    let store = EventStore::new(20_000);
    store.insert_batch(events).unwrap();
    let server = StoreServer::new(Arc::new(store));
    // The server packs a page — 8,192 members, each naming a 3,999-byte
    // file — before the first byte of it is sent, and a debug build beside
    // other tests takes longer than a 500 ms window to: a reply's window
    // runs from its last byte, but none has come yet. A window that never
    // runs out keeps the count of queries exact.
    let cfg = NetConfig { liveness: Duration::from_secs(60), ..fast_cfg() };
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![server.clone()]).unwrap();
    let remote = RemoteStore::connect(endpoint.local_addr(), cfg.clone());
    let broker = sdci_mq::pubsub::Broker::new(64);
    let feed = broker.subscribe(&["feed/"]);
    let mut consumer = EventConsumer::new(feed, remote, 0).with_backfill_retry(0, Duration::ZERO);
    let mut delivered = 0u64;
    for _ in 0..5 {
        broker.publisher().publish("feed/all", FeedMessage::Heartbeat { last_seq: 17_000 });
        while let Some(event) = consumer.try_next() {
            delivered += 1;
            assert_eq!(event.index, delivered, "in order");
        }
    }
    let stats = consumer.stats();
    assert_eq!((delivered, stats.recovered, stats.lost), (17_000, 17_000, 0), "{stats:?}");
    assert_eq!(server.queries(), 3, "two full pages and the rest");

    let remote = RemoteStore::connect(endpoint.local_addr(), cfg);
    let page = remote.try_query(&StoreQuery::after_seq(0).limit(17_000)).unwrap();
    assert_eq!(page.len(), MAX_FRAME_MEMBERS);
    assert!(page.iter().zip(1..).all(|(e, seq)| e.seq == seq), "the answer's prefix");
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

    match Frame::<FileEvent>::decode(&read_raw_frame(&mut stream)).unwrap() {
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
    let broker = TcpBroker::<FileEvent>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let mut stream = TcpStream::connect(endpoint.local_addr()).unwrap();
    write_hello(&mut stream, Service::Subscriber { prefixes: vec!["feed/".into()] }).unwrap();

    // The leg registers asynchronously; publish the lone event only
    // once the leg's first `Ping` shows it is being served.
    let body = read_raw_frame(&mut stream);
    assert_eq!(Frame::<FileEvent>::decode(&body).unwrap(), Frame::Ping);
    broker.publish("feed/all", traced_event());

    let body = loop {
        let body = read_raw_frame(&mut stream);
        if Frame::<FileEvent>::decode(&body).unwrap() != Frame::Ping {
            break body;
        }
    };
    assert_eq!(
        Frame::<FileEvent>::decode(&body).unwrap(),
        Frame::DeliverBatch {
            topic: "feed/all".into(),
            payloads: vec![traced_event()],
            trace: None
        }
    );
    endpoint.shutdown();
    expect_only_control_until_fin(&mut stream, "deliver leg");
}

/// The store RPC's one control frame, pinned as bytes: an `after_seq`
/// query, a time-and-prefix query with a limit, and a query carrying its
/// caller's trace context, each the first on its connection — a kind
/// byte, a flags byte (bit 0: a trace section follows), the query's
/// number, a presence byte and the fields present as varints,
/// the prefix as its UTF-8 length and bytes, then the limit. The RPC is
/// query → reply and nothing else: a ping (kind 7) is no store frame. A
/// JSON body is `InvalidData`, whether it is a query, a ping or a reply.
#[test]
fn store_queries_are_a_few_binary_bytes_and_json_is_invalid_data() {
    let prefix = "/proj/é \"q\"";
    let prefixed = StoreQuery::since(SimTime::from_secs(3)).under(prefix).limit(7);
    let traced = Some(TraceContext::sampled(0xfeed, 77));
    let mut trace = 0xfeed_u64.to_le_bytes().to_vec();
    trace.extend_from_slice(&77u64.to_le_bytes());
    trace.push(1);
    for (msg, bytes) in [
        (
            StoreRpc::Query { query: StoreQuery::after_seq(41), trace: None },
            vec![9, 0, 1, 1, 41, 0],
        ),
        (
            StoreRpc::Query { query: prefixed, trace: None },
            [&[9, 0, 1, 6][..], &varint(3_000_000_000), &varint(prefix.len() as u64)]
                .concat()
                .into_iter()
                .chain(prefix.bytes())
                .chain([7])
                .collect(),
        ),
        (
            StoreRpc::Query { query: StoreQuery::after_seq(0), trace: traced },
            [&[9, 1][..], &trace, &[1, 1, 0, 0]].concat(),
        ),
    ] {
        let mut body = Vec::new();
        msg.encode(&mut BinEncoder::new(), &mut body).unwrap();
        assert_eq!(body, bytes, "{msg:?}");
        assert_eq!(StoreRpc::decode(&bytes).unwrap(), msg);
    }

    for body in [
        r#"{"Query":{"query":{"after_seq":41,"since":null,"path_prefix":null,"limit":0},"trace":null}}"#,
        r#"{"Query":{"query":{"after_seq":41,"since":null,"path_prefix":null,"limit":0}}}"#,
        r#""Ping""#,
        r#"{"Batch":{"events":[]}}"#,
        r#"{"Batch":{"events":[{"seq":1}]}}"#,
        r#""Batch""#,
    ] {
        let err = StoreRpc::decode(body.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "accepted: {body}");
    }
    let err = StoreRpc::decode(&[7, 0]).unwrap_err();
    assert!(err.to_string().contains("kind 7"), "{err}");
}

/// A query no reader would accept is not written: a prefix of
/// `MAX_PATH_LEN` bytes goes out, one a byte longer, and one that is not
/// UTF-8, fail at the writer with `InvalidInput`, before a byte is
/// written.
#[test]
fn a_query_whose_prefix_no_reader_accepts_is_not_written() {
    use std::os::unix::ffi::OsStrExt;
    let max = sdci_types::bin::MAX_PATH_LEN;
    let query = |prefix: std::path::PathBuf| StoreRpc::Query {
        query: StoreQuery::after_seq(0).under(prefix),
        trace: None,
    };
    let mut out = Vec::new();
    write_msg(&mut out, &query("p".repeat(max).into())).unwrap();
    let back = FrameReader::new(&out[..]).read_msg::<StoreRpc>().unwrap();
    assert_eq!(back, query("p".repeat(max).into()));
    let not_utf8 = std::ffi::OsStr::from_bytes(b"/proj/\xff").into();
    for prefix in ["p".repeat(max + 1).into(), not_utf8] {
        let mut out = Vec::new();
        let err = write_msg(&mut out, &query(prefix)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(out.is_empty(), "nothing was written");
    }
}

/// After the hello every frame is binary. A JSON body — an ack, a ping, a
/// query — costs the connection it arrives on, and only that one: a push
/// session's server and a store session's close it unanswered, and a
/// subscriber drops a broker that sends one and dials again. A store
/// query whose prefix is not UTF-8, is a byte over `MAX_PATH_LEN`, that
/// sets a presence bit no field has, or that is not numbered 1 as the
/// connection's first, is refused the same way. Nothing any of them carried is applied, and the
/// endpoint, and the subscriber, go on serving honest peers.
#[test]
fn a_json_body_or_a_malformed_query_after_the_hello_costs_only_its_connection() {
    let _serial = endpoints();
    let pull = TcpPullServer::<FileEvent>::new(64);
    let store = StoreServer::new(Arc::new(EventStore::new(64)));
    let endpoint =
        Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![pull.clone(), store.clone()]).unwrap();
    let addr = endpoint.local_addr();

    for body in [r#""Ping""#, r#"{"Ack":{"up_to":0}}"#, r#""Fin""#] {
        let mut stream = greeted(addr, "speaks-json", 0);
        stream.write_all(&frame(body.as_bytes())).unwrap();
        assert_closed_unanswered(&mut stream, &format!("{body} on a push session"));
    }

    let over = sdci_types::bin::MAX_PATH_LEN + 1;
    let long = [&[9, 0, 1, 4][..], &varint(over as u64), &vec![b'p'; over], &[0]].concat();
    let hostile: [(&str, Vec<u8>); 7] = [
        (
            "a JSON query",
            frame(
                br#"{"Query":{"query":{"after_seq":0,"since":null,"path_prefix":null,"limit":0},"trace":null}}"#,
            ),
        ),
        ("a JSON ping", frame(br#""Ping""#)),
        ("a non-UTF-8 prefix", frame(&[9, 0, 1, 4, 2, 0xff, 0xfe, 0])),
        ("a prefix a byte over MAX_PATH_LEN", frame(&long)),
        ("a presence bit no field has", frame(&[9, 0, 1, 8, 0])),
        ("a first query numbered 2", frame(&[9, 0, 2, 0, 0])),
        ("a ping with a trace bit", frame(&[7, 1])),
    ];
    for (what, frame) in hostile {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_hello(&mut stream, Service::Store).unwrap();
        stream.write_all(&frame).unwrap();
        assert_closed_unanswered(&mut stream, what);
    }
    assert_eq!(store.queries(), 0, "a refused query ran");
    assert_eq!(pull.stats().items, 0);

    let push = TcpPush::connect(addr, "polite", fast_cfg());
    assert!(push.send(pushed_event(1)));
    assert!(push.drain(Duration::from_secs(10)), "the pull server stopped serving");
    assert!(RemoteStore::connect(addr, fast_cfg()).try_query(&StoreQuery::after_seq(0)).is_ok());
    assert_eq!(store.queries(), 1, "the store stopped serving");
    drop(push);
    endpoint.shutdown();

    // A feed whose broker sends JSON: the subscriber drops the connection,
    // dials again, and takes a batch on the next one.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let subscriber =
        TcpSubscriber::<FileEvent>::connect(listener.local_addr().unwrap(), &["feed/"], fast_cfg());
    let hello = Service::Subscriber { prefixes: vec!["feed/".into()] };
    let mut first = accept_within(&listener, Duration::from_secs(5));
    assert_eq!(read_hello(&mut first), hello);
    first.write_all(&frame(br#""Ping""#)).unwrap();
    // The subscriber's own read takes the JSON body and dials again: the
    // second connection is accepted while that read runs.
    let event = pushed_event(2);
    let delivered = std::thread::scope(|scope| {
        let read = scope.spawn(|| subscriber.recv_timeout(Duration::from_secs(5)));
        let mut second = accept_within(&listener, Duration::from_secs(5));
        assert_eq!(read_hello(&mut second), hello);
        sdci_net::wire::write_deliver_batch_bin(
            &mut second,
            &mut BinEncoder::new(),
            "feed/all",
            std::slice::from_ref(&event),
            None,
        )
        .unwrap();
        read.join().unwrap().map(|msg| msg.payload)
    });
    assert_eq!(delivered, Some(event), "the subscriber was not served on its second connection");
    assert_eq!(subscriber.connections(), 2);
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
    let greeting = Frame::<FileEvent>::decode(&read_raw_frame(&mut stream)).unwrap();
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
    assert_eq!(
        Frame::<FileEvent>::decode(&read_raw_frame(&mut stream)).unwrap(),
        Frame::ItemBatch { first_seq: 1, payloads: vec![pushed_event(1)], trace: None }
    );
    write_msg(&mut stream, &Frame::<FileEvent>::Ack { up_to: 1 }).unwrap();
    assert!(push.drain(Duration::from_secs(10)));
    drop(push);
    expect_only_control_until_fin(&mut stream, "push leg");
    assert_eq!(net_thread_panics(), panics, "the pusher's worker panicked");
}
