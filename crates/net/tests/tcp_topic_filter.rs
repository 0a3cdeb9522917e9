//! Property test: a TCP subscriber receives exactly the publications
//! whose topics match one of its prefixes, in publish order — the same
//! filter contract as the in-process broker.

mod common;

use common::fast_cfg;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdci_mq::transport::{Publish, Subscribe};
use sdci_net::{Endpoint, TcpBroker, TcpSubscriber};
use std::time::Duration;

const TOPICS: &[&str] =
    &["a/x", "a/y", "ab/q", "b/x", "b/y/z", "c", "c/z", "events/mdt0", "events/mdt1"];
const PREFIXES: &[&str] = &["a", "a/", "ab", "b/", "b/y", "c", "events/", "events/mdt1"];

fn run_case(topic_ids: Vec<usize>, prefix_ids: Vec<usize>) -> Result<(), TestCaseError> {
    let cfg = fast_cfg();
    let broker = TcpBroker::<u64>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![broker.clone()]).unwrap();
    let addr = endpoint.local_addr();
    // `zz` carries the readiness probe and the end-of-case sentinel; no
    // case topic starts with it.
    let mut prefixes: Vec<&str> = prefix_ids.iter().map(|&i| PREFIXES[i]).collect();
    prefixes.push("zz");
    let subscriber = TcpSubscriber::<u64>::connect(addr, &prefixes, cfg);

    let mut ready = false;
    for _ in 0..1000 {
        broker.publish("zz/probe", u64::MAX);
        if subscriber.recv_timeout(Duration::from_millis(10)).is_some() {
            ready = true;
            break;
        }
    }
    assert!(ready, "pub/sub loopback never became ready");

    for (i, &t) in topic_ids.iter().enumerate() {
        broker.publish(TOPICS[t], i as u64);
    }
    broker.publish("zz/done", u64::MAX);

    let expected: Vec<(String, u64)> = topic_ids
        .iter()
        .enumerate()
        .filter(|(_, &t)| prefixes.iter().any(|p| TOPICS[t].starts_with(p)))
        .map(|(i, &t)| (TOPICS[t].to_string(), i as u64))
        .collect();

    let mut got = Vec::new();
    loop {
        let Some(msg) = subscriber.recv_timeout(Duration::from_secs(5)) else {
            panic!("sentinel never arrived; got {} messages so far", got.len());
        };
        if msg.topic == "zz/done" {
            break;
        }
        if msg.topic.starts_with("zz/") {
            continue; // residual readiness probes
        }
        got.push((msg.topic, msg.payload));
    }
    prop_assert_eq!(got, expected);
    endpoint.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn tcp_subscriber_sees_exactly_the_prefix_matches(
        topic_ids in proptest::collection::vec(0usize..TOPICS.len(), 0..40),
        prefix_ids in proptest::collection::vec(0usize..PREFIXES.len(), 1..4),
    ) {
        run_case(topic_ids, prefix_ids)?;
    }
}
