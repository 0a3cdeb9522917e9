//! A subscription is driven by its reader: connecting a `TcpSubscriber`
//! dials and greets on the calling thread and starts no thread of its
//! own. Alone in its test binary so nothing else starts or ends a thread
//! while it counts.

use sdci_mq::transport::{Publish, Subscribe};
use sdci_net::{Endpoint, NetConfig, TcpBroker, TcpSubscriber};
use std::time::{Duration, Instant};

/// Threads of this process, but for the broker's connection handlers —
/// an endpoint spawns one per accepted connection, on its own time.
fn threads_but_the_brokers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let comm = task.as_ref().map(|t| t.path().join("comm")).expect("task entry");
            std::fs::read_to_string(comm).map_or(true, |name| name.trim() != "sdci-net-conn")
        })
        .count()
}

#[test]
fn connecting_a_subscriber_to_a_live_broker_starts_no_thread() {
    let broker = TcpBroker::<u64>::new();
    let endpoint =
        Endpoint::bind("127.0.0.1:0", NetConfig::default(), vec![broker.clone()]).unwrap();
    let before = threads_but_the_brokers();
    let subscriber =
        TcpSubscriber::<u64>::connect(endpoint.local_addr(), &["t/"], NetConfig::default());
    assert_eq!(subscriber.connections(), 1, "connect returns dialed and greeted");
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.stats().accepted == 0 {
        assert!(Instant::now() < deadline, "the broker never took the subscriber");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads_but_the_brokers(), before, "the subscriber started a thread");

    // Its reads take the broker's frames on this thread.
    let delivered = (0..1000).find_map(|_| {
        broker.publish("t/x", 7);
        subscriber.recv_timeout(Duration::from_millis(10))
    });
    assert_eq!(delivered.map(|msg| (msg.topic, msg.payload)), Some(("t/x".to_string(), 7)));
    assert_eq!(threads_but_the_brokers(), before, "a read started a thread");
    endpoint.shutdown();
}
