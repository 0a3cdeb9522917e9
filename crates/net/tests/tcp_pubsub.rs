//! Loopback PUB/SUB integration: ordering, drain-on-shutdown, and the
//! lossy HWM contract over a real TCP connection.

use sdci_mq::pubsub::{Broker, Publisher};
use sdci_mq::transport::Subscribe;
use sdci_net::{Endpoint, NetConfig, RetryPolicy, TcpBroker, TcpSubscriber};
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

/// Publishes probes until the subscription demonstrably reaches the
/// broker, so the lossy leg's setup race can't eat test messages.
fn wait_ready(publisher: &Publisher<u64>, subscriber: &TcpSubscriber<u64>) {
    for _ in 0..1000 {
        publisher.publish("probe/x", u64::MAX);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            return;
        }
    }
    panic!("pub/sub loopback never became ready");
}

#[test]
fn events_round_trip_in_publish_order() {
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], cfg);
    let publisher = broker.publisher();
    wait_ready(&publisher, &subscriber);

    const N: u64 = 500;
    for i in 0..N {
        publisher.publish("events/e", i);
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
    let broker = TcpBroker::<u64>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], cfg);
    let publisher = broker.publisher();
    wait_ready(&publisher, &subscriber);

    // All N are in the broker once `publish` returns; shut down at once:
    // the drain must still deliver every one of them.
    const N: u64 = 200;
    for i in 0..N {
        publisher.publish("events/e", i);
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
    // Only the subscriber's client-side queue is tiny: the broker keeps
    // deep queues, so the whole burst reaches its socket.
    let slow = NetConfig { hwm: 8, ..fast_cfg() };
    let broker = TcpBroker::<u64>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    let subscriber = TcpSubscriber::<u64>::connect(addr, &["events/", "probe/"], slow);
    let publisher = broker.publisher();
    wait_ready(&publisher, &subscriber);

    // Nobody drains the subscriber: its bounded queue must fill and
    // newer deliveries must be shed, not pile up unboundedly.
    for i in 0..2000u64 {
        publisher.publish("events/e", i);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while subscriber.dropped() == 0 {
        assert!(std::time::Instant::now() < deadline, "HWM shedding never engaged");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Each shed counts on /metrics under the shed message's topic.
    let metrics = sdci_obs::registry().render_prometheus();
    assert!(metrics.contains("sdci_net_sub_dropped_total{topic=\"events/e\"}"), "{metrics}");
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
    let broker = TcpBroker::<FileEvent>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let subscriber =
        TcpSubscriber::<FileEvent>::connect(endpoint.local_addr(), &["t/"], fast_cfg());
    let publisher = broker.publisher();

    // Probe until the leg demonstrably delivers, then quiesce so the
    // frame counter baselines below exclude the probes.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        publisher.publish("t/probe", traced_event(PROBE));
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
    publisher.publish_batch("t/e", (0..N).map(traced_event).collect());
    expect_n_in_order("batch");
    assert_eq!(frames_since(frames_before, 1), 1, "a batch is one frame");

    let frames_before = broker.stats().frames_out;
    for i in 0..N {
        publisher.publish("t/e", traced_event(i));
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
    // No other test here sheds at a serving leg, so this one's count of
    // the process-wide series is its own.
    let shed_total = || sdci_obs::registry().counter("sdci_net_fanout_shed_total").get();
    let broker = TcpBroker::<String>::new(Broker::new(8192));
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![broker.clone()]).unwrap();
    let subscribers = [(); 2]
        .map(|()| TcpSubscriber::<String>::connect(endpoint.local_addr(), &["t/"], fast_cfg()));
    let publisher = broker.publisher();
    // Probe until both legs demonstrably deliver, then quiesce.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut ready = [false; 2];
    while ready != [true; 2] {
        assert!(std::time::Instant::now() < deadline, "loopback never became ready");
        publisher.publish("t/probe", "probe".to_string());
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
    publisher.publish("t/huge", huge);
    publisher.publish("t/after", "after".to_string());
    for (n, sub) in subscribers.iter().enumerate() {
        let msg = sub.recv_timeout(Duration::from_secs(30)).expect("the publish after it");
        assert_eq!((msg.topic.as_str(), msg.payload.as_str()), ("t/after", "after"), "leg {n}");
        assert_eq!(sub.connections(), 1, "leg {n} reconnected");
    }
    assert_eq!(shed_total() - before, 1, "one message shed, once");
    endpoint.shutdown();
}
