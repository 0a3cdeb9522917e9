//! The wire contract: one version, one encoding per frame kind.
//!
//! * A hello announcing another wire version — or none — is refused at
//!   each of the three handshakes (pull server, broker publisher leg,
//!   broker subscriber leg): that connection is closed, nothing it sent
//!   is applied, the refusal is recorded, and the server keeps serving
//!   peers that speak its version.
//! * A lone event on each leg travels as exactly one binary one-member
//!   batch frame and arrives intact, trace context included.

use sdci_mq::transport::Subscribe;
use sdci_net::wire::{write_item_batch_bin, write_msg, write_publish_batch_bin, BinEncoder, Frame};
use sdci_net::{
    NetConfig, RetryPolicy, TcpBroker, TcpPublisher, TcpPullServer, TcpPush, TcpSubscriber,
    WireMsg, BIN_FRAME_BIT, WIRE_PROTO,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
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

const CTX: TraceContext = TraceContext { trace_id: 0xfeed_beef, parent_span_id: 77, sampled: true };

fn traced_event() -> FileEvent {
    FileEvent {
        index: 1,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_secs(1),
        path: PathBuf::from("/lone/event"),
        src_path: None,
        target: Fid::new(1, 1, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: Some(CTX),
    }
}

/// Connects and sends `body` as one hand-written JSON frame.
fn connect_with_hello(addr: SocketAddr, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream
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

/// Reads one raw frame: `(is_binary, body)`.
fn read_raw_frame(stream: &mut TcpStream) -> (bool, Vec<u8>) {
    let mut word = [0u8; 4];
    stream.read_exact(&mut word).unwrap();
    let word = u32::from_be_bytes(word);
    let mut body = vec![0u8; (word & !BIN_FRAME_BIT) as usize];
    stream.read_exact(&mut body).unwrap();
    (word & BIN_FRAME_BIT != 0, body)
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

#[test]
fn pull_server_refuses_a_wrong_or_missing_version_and_keeps_serving() {
    let server = TcpPullServer::<u64>::bind("127.0.0.1:0", 64, fast_cfg()).unwrap();
    let addr = server.local_addr();
    let before = refused("push");
    for hello in [
        r#"{"HelloPush":{"client":"old","resume_after":0,"proto":3}}"#,
        r#"{"HelloPush":{"client":"old","resume_after":0}}"#,
    ] {
        let mut stream = connect_with_hello(addr, hello);
        // An item right behind the refused hello must never be applied.
        let _ = write_item_batch_bin(&mut stream, &mut BinEncoder::new(), 1, &[7u64], None);
        assert_closed_unanswered(&mut stream, hello);
    }
    assert_eq!(refused("push"), before + 2, "each refusal is recorded");
    assert_eq!(server.stats().items, 0);
    assert!(server.marks().is_empty(), "a refused hello must not even register the client");

    let push = TcpPush::connect(addr, "current", fast_cfg());
    assert!(push.send(42));
    assert!(push.drain(Duration::from_secs(10)), "a correct peer is still served");
    assert_eq!(server.pull().recv_timeout(Duration::from_secs(2)), Some(42));
    assert_eq!(server.stats().items, 1);
    server.shutdown();
}

#[test]
fn broker_refuses_a_wrong_or_missing_version_on_both_legs_and_keeps_serving() {
    let broker = TcpBroker::<u64>::bind("127.0.0.1:0", 8192, fast_cfg()).unwrap();
    let addr = broker.local_addr();
    let local = broker.subscribe(&[""]);
    let before = refused("publisher") + refused("subscriber") + refused("pubsub");

    // Publisher leg: the batch behind the refused hello is not republished.
    for hello in [r#"{"HelloPublisher":{"proto":3}}"#, r#""HelloPublisher""#] {
        let mut stream = connect_with_hello(addr, hello);
        let _ = write_publish_batch_bin(&mut stream, &mut BinEncoder::new(), "t/x", &[7u64], None);
        assert_closed_unanswered(&mut stream, hello);
    }
    assert!(local.recv_timeout(Duration::from_millis(100)).is_none(), "refused publish applied");
    assert_eq!(broker.stats().messages_in, 0);

    // Subscriber leg: nothing is ever delivered to the refused peer.
    for hello in [
        r#"{"HelloSubscriber":{"prefixes":[""],"proto":5}}"#,
        r#"{"HelloSubscriber":{"prefixes":[""]}}"#,
    ] {
        let mut stream = connect_with_hello(addr, hello);
        broker.publisher().publish("t/x", 8);
        assert_closed_unanswered(&mut stream, hello);
    }
    assert_eq!(broker.stats().frames_out, 0);
    let after = refused("publisher") + refused("subscriber") + refused("pubsub");
    assert_eq!(after, before + 4, "each refusal is recorded");

    // Both legs still serve peers that speak the broker's version.
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["ok/"], fast_cfg());
    let publisher = TcpPublisher::<u64>::connect(addr, fast_cfg());
    let delivered = (0..1000).any(|_| {
        publisher.publish("ok/x", 9);
        subscriber.recv_timeout(Duration::from_millis(10)).is_some()
    });
    assert!(delivered, "a correct publisher/subscriber pair is still served");
    broker.shutdown();
}

#[test]
fn a_lone_pushed_event_is_one_binary_frame_with_its_trace_context() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let push = TcpPush::<FileEvent>::connect(listener.local_addr().unwrap(), "lone", fast_cfg());
    assert!(push.send(traced_event()));

    let (mut stream, _) = listener.accept().unwrap();
    let (binary, body) = read_raw_frame(&mut stream);
    assert!(!binary, "the hello is a control frame");
    assert_eq!(
        Frame::<FileEvent>::decode(false, &body).unwrap(),
        Frame::HelloPush { client: "lone".into(), resume_after: 0, proto: WIRE_PROTO }
    );
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
fn a_lone_published_event_is_one_binary_frame_with_its_trace_context() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let publisher = TcpPublisher::<FileEvent>::connect(listener.local_addr().unwrap(), fast_cfg());
    publisher.publish("events/mdt0", traced_event());

    let (mut stream, _) = listener.accept().unwrap();
    let (binary, body) = read_raw_frame(&mut stream);
    assert!(!binary, "the hello is a control frame");
    assert_eq!(
        Frame::<FileEvent>::decode(false, &body).unwrap(),
        Frame::HelloPublisher { proto: WIRE_PROTO }
    );

    let (binary, body) = read_raw_frame(&mut stream);
    assert!(binary, "a lone publication must travel as a binary batch frame");
    match Frame::<FileEvent>::decode(true, &body).unwrap() {
        Frame::PublishBatch { topic, payloads, trace: Some(hop) } => {
            assert_eq!(topic, "events/mdt0");
            assert_eq!(payloads, vec![traced_event()], "payload or its context damaged");
            assert_eq!(hop.trace_id, CTX.trace_id, "the frame's send-leg context is the event's");
        }
        other => panic!("expected a traced one-member PublishBatch, got {other:?}"),
    }
    drop(publisher);
    expect_only_control_until_fin(&mut stream, "publish leg");
}

#[test]
fn a_lone_delivered_event_is_one_binary_frame_with_its_trace_context() {
    let broker = TcpBroker::<FileEvent>::bind("127.0.0.1:0", 8192, fast_cfg()).unwrap();
    let mut stream = TcpStream::connect(broker.local_addr()).unwrap();
    let hello =
        Frame::<FileEvent>::HelloSubscriber { prefixes: vec!["feed/".into()], proto: WIRE_PROTO };
    write_msg(&mut stream, &hello).unwrap();

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
    broker.shutdown();
    expect_only_control_until_fin(&mut stream, "deliver leg");
}
