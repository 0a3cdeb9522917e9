//! Loopback PUB/SUB integration: ordering, drain-on-shutdown, the lossy
//! HWM contract and redials driven by the subscriber's reads, over a real
//! TCP connection.

use sdci_mq::transport::{Publish, PublishOutcome, Subscribe};
use sdci_net::{Endpoint, NetConfig, RetryPolicy, TcpBroker, TcpSubscriber};
use std::time::{Duration, Instant};

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

/// The fan-out's shed series is process-wide: the tests that count it
/// take turns.
fn sheds() -> std::sync::MutexGuard<'static, ()> {
    static SHEDS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SHEDS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn shed_total() -> u64 {
    sdci_obs::registry().counter("sdci_net_fanout_shed_total").get()
}

/// Publishes probes until the subscription demonstrably reaches the
/// broker, so the lossy leg's setup race can't eat test messages.
fn wait_ready(broker: &TcpBroker<u64>, subscriber: &TcpSubscriber<u64>) {
    for _ in 0..1000 {
        broker.publish("probe/x", u64::MAX);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            return;
        }
    }
    panic!("pub/sub loopback never became ready");
}

#[test]
fn events_round_trip_in_publish_order() {
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new();
    // With no leg yet, a publish matches nobody: delivered, vacuously.
    assert_eq!(broker.publish("events/e", u64::MAX), PublishOutcome::Delivered);
    let mut batch = vec![u64::MAX; 2];
    assert_eq!(broker.publish_batch("events/e", &mut batch), 0);
    assert!(batch.is_empty());
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], cfg);
    wait_ready(&broker, &subscriber);

    const N: u64 = 500;
    for i in 0..N {
        broker.publish("events/e", i);
    }
    let mut got = Vec::new();
    while got.len() < N as usize {
        let Some(msg) = subscriber.recv_timeout(Duration::from_secs(5)) else {
            panic!("timed out after {} of {N} events", got.len());
        };
        if msg.topic.starts_with("events/") {
            got.push(msg.payload);
        }
    }
    assert_eq!(got, (0..N).collect::<Vec<_>>(), "events must arrive in publish order");
    assert_eq!(subscriber.dropped(), 0);
    endpoint.shutdown();
}

#[test]
fn shutdown_drains_queued_messages_to_subscribers() {
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], cfg);
    wait_ready(&broker, &subscriber);

    // All N are in the broker once `publish` returns; shut down at once:
    // the drain must still deliver every one of them.
    const N: u64 = 200;
    for i in 0..N {
        broker.publish("events/e", i);
    }
    endpoint.shutdown();

    let mut got = 0;
    while got < N {
        let Some(msg) = subscriber.recv_timeout(Duration::from_secs(5)) else {
            panic!("shutdown lost queued messages: got {got} of {N}");
        };
        if msg.topic.starts_with("events/") {
            got += 1;
        }
    }
}

#[test]
fn slow_subscriber_sheds_at_hwm_instead_of_blocking_the_broker() {
    const BATCH: u64 = 1000;
    let _sheds = sheds();
    // Only the broker's legs are shallow: eight chunks queued behind a
    // socket nobody reads, then the broker sheds for that leg alone.
    let shallow = NetConfig { hwm: 8, ..fast_cfg() };
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", shallow, vec![broker.clone()]).unwrap();
    let subscriber = TcpSubscriber::<u64>::connect(endpoint.local_addr(), &["events/"], fast_cfg());
    // Publish `i` carries the payloads `i * BATCH ..`, so a gap shows;
    // it returns how many of them were shed.
    let mut batch = Vec::new();
    let mut publish = |i: u64| {
        batch.extend(i * BATCH..(i + 1) * BATCH);
        let shed = broker.publish_batch("events/e", &mut batch);
        assert!(batch.is_empty(), "a publish leaves the caller's batch empty");
        shed
    };
    for i in 0.. {
        publish(i);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            break;
        }
        assert!(i < 1000, "pub/sub loopback never became ready");
    }
    while subscriber.recv_timeout(Duration::from_millis(100)).is_some() {}

    // Nobody reads the subscriber: its socket fills, then its leg's
    // queue, and each publish after that is shed for it — the publish
    // returns at once rather than wait on the slow reader, and says so.
    let before = shed_total();
    let mut published = 1_000_000;
    loop {
        let shed = publish(published) as u64;
        published += 1;
        if shed > 0 {
            assert_eq!(shed, BATCH, "one publish shed, all of it");
            break;
        }
        assert_eq!(shed_total(), before, "a publish that was taken counted a shed");
        assert!(published < 1_100_000, "HWM shedding never engaged");
    }
    assert_eq!(shed_total() - before, BATCH, "the shed series counts what the publish returned");
    // What the leg queued before the shed is read in order, and the next
    // publish, sent fresh, arrives behind the gap on the same connection.
    let mut last = None;
    while let Some(msg) = subscriber.recv_timeout(Duration::from_millis(200)) {
        assert!(last.is_none_or(|last| msg.payload == last + 1), "reordered before the shed");
        last = Some(msg.payload);
    }
    let last = last.expect("the queued chunks were delivered");
    assert!(last < (published - 1) * BATCH, "the shed publish was delivered");
    publish(published);
    let next = subscriber.recv_timeout(Duration::from_secs(5)).expect("the publish after the shed");
    assert_eq!(next.payload, published * BATCH, "the next read sees the gap");
    assert_eq!(subscriber.connections(), 1, "a shed costs no connection");
    endpoint.shutdown();
}

/// The fan-out direction end to end: a publish is a frame. One
/// `publish_batch` of 200 leaves as one `DeliverBatch`, 200 single
/// `publish` calls as 200 one-member frames — nothing regroups them —
/// and either way every payload arrives in order with its embedded
/// trace context intact.
#[test]
fn a_publish_is_a_frame_delivered_in_order_with_context() {
    use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
    use std::path::PathBuf;
    use std::time::Instant;

    let traced_event = |i: u64| FileEvent {
        index: i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_secs(i),
        path: format!("/t/f{i}").into(),
        src_path: None,
        target: Fid::new(1, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: Some(TraceContext::sampled(0x1111_2222_3333_4444, i + 1)),
    };
    const PROBE: u64 = 1 << 30;
    let broker = TcpBroker::<FileEvent>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let subscriber =
        TcpSubscriber::<FileEvent>::connect(endpoint.local_addr(), &["t/"], fast_cfg());

    // Probe until the leg demonstrably delivers, then quiesce so the
    // frame counter baselines below exclude the probes.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        broker.publish("t/probe", traced_event(PROBE));
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "loopback never became ready");
    }
    while subscriber.recv_timeout(Duration::from_millis(100)).is_some() {}

    const N: u64 = 200;
    let expect_n_in_order = |what: &str| {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < N as usize && Instant::now() < deadline {
            if let Some(msg) = subscriber.recv_timeout(Duration::from_millis(100)) {
                got.push(msg.payload);
            }
        }
        assert_eq!(got.len(), N as usize, "{what}: lost deliveries");
        for (i, ev) in got.iter().enumerate() {
            let i = i as u64;
            assert_eq!(ev.index, i, "{what}: deliveries reordered");
            assert_eq!(ev.path, PathBuf::from(format!("/t/f{i}")), "{what}: payload corrupted");
            let ctx = ev.trace.expect("payload-embedded context dropped");
            assert_eq!(ctx.parent_span_id, i + 1, "{what}: context corrupted");
        }
    };

    // A leg counts a frame just after writing it, so the count may
    // trail the delivery by a moment — but must settle at `want`.
    let frames_since = |before: u64, want: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while broker.stats().frames_out - before < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        broker.stats().frames_out - before
    };

    let frames_before = broker.stats().frames_out;
    broker.publish_batch("t/e", &mut (0..N).map(traced_event).collect());
    expect_n_in_order("batch");
    assert_eq!(frames_since(frames_before, 1), 1, "a batch is one frame");

    let frames_before = broker.stats().frames_out;
    for i in 0..N {
        broker.publish("t/e", traced_event(i));
    }
    expect_n_in_order("singles");
    assert_eq!(frames_since(frames_before, N), N, "singles are not regrouped");
    endpoint.shutdown();
}

/// A publish the fan-out cannot encode — one string whose frame is
/// over `MAX_FRAME_LEN` even coded — is lost to every subscriber: it is
/// encoded once, not once a leg, counted once in the shed series, and
/// costs no connection, so the publish after it reaches both subscribers.
#[test]
fn a_publish_that_cannot_be_encoded_is_shed_once_and_the_next_one_is_delivered() {
    let _sheds = sheds();
    let broker = TcpBroker::<String>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let subscribers = [(); 2]
        .map(|()| TcpSubscriber::<String>::connect(endpoint.local_addr(), &["t/"], fast_cfg()));
    // Probe until both legs demonstrably deliver, then quiesce.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut ready = [false; 2];
    while ready != [true; 2] {
        assert!(std::time::Instant::now() < deadline, "loopback never became ready");
        broker.publish("t/probe", "probe".to_string());
        for (sub, ready) in subscribers.iter().zip(&mut ready) {
            *ready |= sub.recv_timeout(Duration::from_millis(10)).is_some();
        }
    }
    for sub in &subscribers {
        while sub.recv_timeout(Duration::from_millis(100)).is_some() {}
    }

    // Each of the 128 ASCII bytes as often as any other: a code spends
    // seven bits on each, so 74 MiB of them codes to 64.75 MiB.
    let block: String = (0u8..128).map(char::from).collect();
    let huge = block.repeat((74 << 20) / block.len());
    let before = shed_total();
    broker.publish("t/huge", huge);
    broker.publish("t/after", "after".to_string());
    for (n, sub) in subscribers.iter().enumerate() {
        let msg = sub.recv_timeout(Duration::from_secs(30)).expect("the publish after it");
        assert_eq!((msg.topic.as_str(), msg.payload.as_str()), ("t/after", "after"), "leg {n}");
        assert_eq!(sub.connections(), 1, "leg {n} reconnected");
    }
    assert_eq!(shed_total() - before, 1, "one message shed, once");
    endpoint.shutdown();
}

/// A subscriber's reads drive its redials: while the broker is down a
/// read returns by its deadline — the backoff never sleeps past it — and
/// once a broker is back on the address the same subscriber dials it on
/// a read and delivers.
#[test]
fn a_read_while_the_broker_is_down_returns_by_its_deadline_and_redials_once_it_is_back() {
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], fast_cfg());
    wait_ready(&broker, &subscriber);
    endpoint.shutdown();

    for _ in 0..20 {
        let started = Instant::now();
        let _ = subscriber.recv_timeout(Duration::from_millis(50));
        let took = started.elapsed();
        assert!(took < Duration::from_millis(70), "a 50 ms read took {took:?}");
    }
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind(addr, fast_cfg(), vec![broker.clone()]).unwrap();
    wait_ready(&broker, &subscriber);
    assert!(subscriber.connections() >= 2, "delivered without a redial");
    endpoint.shutdown();
}
