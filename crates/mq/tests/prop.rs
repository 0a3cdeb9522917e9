//! Property tests for the message fabric: SQS delivery semantics under
//! random interleavings, and pub-sub accounting.

use proptest::prelude::*;
use sdci_mq::pubsub::Broker;
use sdci_mq::{SqsConfig, SqsQueue};
use std::collections::HashMap;
use std::time::Duration;

#[derive(Debug, Clone)]
enum QOp {
    Send(u32),
    Receive,
    DeleteNth(u8),
    Sweep,
}

fn q_op() -> impl Strategy<Value = QOp> {
    prop_oneof![
        3 => any::<u32>().prop_map(QOp::Send),
        3 => Just(QOp::Receive),
        2 => any::<u8>().prop_map(QOp::DeleteNth),
        1 => Just(QOp::Sweep),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a generous visibility timeout (nothing expires during the
    /// test): every message is delivered at most once, deletes succeed
    /// exactly once per receipt, and conservation holds:
    /// sent == visible + in_flight + deleted.
    #[test]
    fn sqs_conservation_without_expiry(ops in prop::collection::vec(q_op(), 1..120)) {
        let q: SqsQueue<u32> = SqsQueue::new(SqsConfig {
            visibility_timeout: Duration::from_secs(3600),
            max_receive_count: 0,
        });
        let mut receipts = Vec::new();
        let mut delivered: HashMap<u32, u32> = HashMap::new();
        let mut sent = 0u64;
        let mut deleted = 0u64;
        for op in ops {
            match op {
                QOp::Send(v) => {
                    q.send(v);
                    sent += 1;
                }
                QOp::Receive => {
                    if let Some((receipt, body)) = q.receive() {
                        *delivered.entry(body).or_default() += 1;
                        receipts.push(receipt);
                    }
                }
                QOp::DeleteNth(n) => {
                    if !receipts.is_empty() {
                        let receipt = receipts.remove(n as usize % receipts.len());
                        prop_assert!(q.delete(receipt), "live receipt deletes");
                        prop_assert!(!q.delete(receipt), "double delete fails");
                        deleted += 1;
                    }
                }
                QOp::Sweep => {
                    prop_assert_eq!(q.sweep(), 0, "nothing expires in-horizon");
                }
            }
            prop_assert_eq!(
                sent,
                q.visible_len() as u64 + q.in_flight_len() as u64 + deleted,
                "conservation"
            );
        }
        let stats = q.stats();
        prop_assert_eq!(stats.sent, sent);
        prop_assert_eq!(stats.deleted, deleted);
        prop_assert_eq!(stats.redelivered, 0);
    }

    /// Pub-sub accounting, per subscriber: what the matching
    /// subscriber received plus what it dropped is everything published,
    /// and its receipt order is publish order.
    #[test]
    fn pubsub_accounting_and_order(
        values in prop::collection::vec(any::<u32>(), 1..200),
        hwm in 1usize..64,
    ) {
        let broker: Broker<u32> = Broker::new(hwm);
        let a = broker.subscribe(&[""]);
        let b = broker.subscribe(&["never-matches/"]);
        let publisher = broker.publisher();
        for v in &values {
            publisher.publish("topic", *v);
        }
        let mut got = Vec::new();
        while let Some(msg) = a.try_recv() {
            got.push(msg.payload);
        }
        prop_assert_eq!(got.len() as u64 + a.dropped(), values.len() as u64);
        // Delivered prefix preserves publish order.
        prop_assert_eq!(&got[..], &values[..got.len()]);
        prop_assert!(b.try_recv().is_none());
        prop_assert_eq!(b.dropped(), 0);
    }
}

/// Exercise the expiry path deterministically (time-based, so not under
/// proptest's shrinker): a crashed consumer's messages all come back.
#[test]
fn sqs_expiry_redelivers_everything() {
    let q: SqsQueue<u32> = SqsQueue::new(SqsConfig {
        visibility_timeout: Duration::from_millis(5),
        max_receive_count: 0,
    });
    for v in 0..50 {
        q.send(v);
    }
    // Crash-consume everything without deleting.
    let mut first = Vec::new();
    while let Some((_r, body)) = q.receive() {
        first.push(body);
    }
    assert_eq!(first.len(), 50);
    std::thread::sleep(Duration::from_millis(20));
    q.sweep();
    let mut second = Vec::new();
    while let Some((r, body)) = q.receive() {
        assert!(q.delete(r));
        second.push(body);
    }
    second.sort_unstable();
    assert_eq!(second, (0..50).collect::<Vec<_>>());
    assert_eq!(q.stats().redelivered, 50);
}
