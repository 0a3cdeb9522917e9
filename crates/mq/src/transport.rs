//! Transport abstraction: the seam between the monitor and its fabric.
//!
//! The monitor pipeline (Collector → Aggregator → consumers) is written
//! against these traits rather than concrete channel types, so the same
//! code runs over the in-process [`Broker`](crate::pubsub::Broker)
//! (threads in one process, as in every simulation experiment) or over
//! `sdci-net`'s TCP sockets (one OS process per monitor role, as in the
//! paper's real deployment).
//!
//! * [`Publish`] — the sending side: what a Collector hands its events
//!   to (the in-process frame queue's [`Sender`], or `sdci-net`'s
//!   `TcpPush`), and what the Aggregator publishes its feed into (a
//!   broker [`Publisher`](crate::pubsub::Publisher), or `sdci-net`'s
//!   `TcpBroker`).
//! * [`Subscribe`] — the receiving side: a stream of [`Message`]s (a
//!   broker [`Subscriber`], or `sdci-net`'s `TcpSubscriber`).

use crate::pubsub::{Message, Subscriber};
use crossbeam_channel::Sender;
use std::sync::Arc;
use std::time::Duration;

/// What became of one published payload, as far as the publishing
/// endpoint can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// Every matched subscriber (possibly zero — fan-out is vacuous
    /// then) accepted the payload into its queue.
    Delivered,
    /// At least one subscriber matched and every one of them shed the
    /// payload at its high-water mark — nobody will ever see it.
    Shed,
    /// Accepted into an outbound queue whose far end can't be observed
    /// from here (e.g. the queue behind a TCP pusher's frame in flight).
    Queued,
}

/// The sending side of a topic-addressed event hand-off.
///
/// Whether a slow far end blocks the caller or sheds depends on the
/// leg. A broker [`Publisher`](crate::pubsub::Publisher) and `sdci-net`'s
/// `TcpBroker` never block: each subscriber sheds at its high-water mark
/// (PUB/SUB). A frame queue's [`Sender`] and `sdci-net`'s
/// `TcpPush` never shed: they block while their queue is full
/// (PUSH/PULL backpressure). Either way the outcome is reported, so
/// callers count sheds honestly.
pub trait Publish<T>: Send + 'static {
    /// Publishes `payload` on `topic` and reports what became of it.
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome;

    /// Publishes every payload of `batch` on `topic`, in order, leaving
    /// `batch` empty (its capacity kept for the caller's next batch),
    /// and returns how many payloads were shed. The default publishes
    /// them one at a time.
    fn publish_batch(&self, topic: &str, batch: &mut Vec<T>) -> usize {
        batch
            .drain(..)
            .map(|payload| self.publish(topic, payload))
            .filter(|outcome| *outcome == PublishOutcome::Shed)
            .count()
    }
}

/// The in-process frame queue: a batch is one frame, queued whole, and
/// a full queue blocks the publisher rather than shed. Only a queue
/// whose receivers are gone loses payloads, and those count as shed.
impl<T: Send + 'static> Publish<T> for Sender<Vec<T>> {
    fn publish(&self, _topic: &str, payload: T) -> PublishOutcome {
        if self.send(vec![payload]).is_ok() {
            PublishOutcome::Delivered
        } else {
            PublishOutcome::Shed
        }
    }

    fn publish_batch(&self, _topic: &str, batch: &mut Vec<T>) -> usize {
        let n = batch.len();
        // The frame gets a buffer of its own; the caller keeps theirs.
        let mut frame = Vec::with_capacity(n);
        frame.append(batch);
        if n == 0 || self.send(frame).is_ok() {
            0
        } else {
            n
        }
    }
}

/// The receiving side of a topic-addressed event fan-out.
pub trait Subscribe<T>: Send + 'static {
    /// Blocks until a message arrives; `None` when the stream is closed.
    fn recv(&self) -> Option<Message<T>>;

    /// Returns a message if one is queued, without blocking.
    fn try_recv(&self) -> Option<Message<T>>;

    /// Blocks up to `timeout`; `None` on timeout or close.
    fn recv_timeout(&self, timeout: Duration) -> Option<Message<T>>;
}

/// A shared publisher publishes through what it shares: a `TcpBroker`
/// that an `Endpoint` serves and an Aggregator publishes into, say.
impl<T, P: Publish<T> + Sync> Publish<T> for Arc<P> {
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        (**self).publish(topic, payload)
    }

    fn publish_batch(&self, topic: &str, batch: &mut Vec<T>) -> usize {
        (**self).publish_batch(topic, batch)
    }
}

impl<T: Send + 'static> Subscribe<T> for Subscriber<T> {
    fn recv(&self) -> Option<Message<T>> {
        Subscriber::recv(self)
    }

    fn try_recv(&self) -> Option<Message<T>> {
        Subscriber::try_recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message<T>> {
        Subscriber::recv_timeout(self, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pubsub::Broker;

    fn publish_via<P: Publish<u32>>(p: &P) {
        p.publish("events/t", 7);
    }

    fn drain_via<S: Subscribe<u32>>(s: &S) -> Vec<u32> {
        std::iter::from_fn(|| s.try_recv().map(|m| m.payload)).collect()
    }

    #[test]
    fn broker_endpoints_satisfy_the_traits() {
        let broker: Broker<u32> = Broker::new(16);
        let sub = broker.subscribe(&["events/"]);
        let publisher = broker.publisher();
        publish_via(&publisher);
        assert_eq!(drain_via(&sub), vec![7]);
    }

    #[test]
    fn a_frame_queue_queues_a_batch_as_one_frame() {
        let (push, pull) = crossbeam_channel::bounded::<Vec<u32>>(4);
        let mut batch = Vec::with_capacity(8);
        batch.extend([1, 2, 3]);
        assert_eq!(push.publish_batch("events/t", &mut batch), 0);
        assert!(batch.is_empty() && batch.capacity() >= 8, "the caller keeps its buffer");
        assert_eq!(pull.try_recv(), Ok(vec![1, 2, 3]));
        drop(pull);
        batch.extend([4, 5]);
        assert_eq!(push.publish_batch("events/t", &mut batch), 2, "nobody can pull it");
    }

    /// A batch is one fan-out under one lock: each subscriber gets its
    /// messages in order, and a payload counts as shed only when every
    /// subscriber it matched shed it. A broker has one high-water mark
    /// (8), so `narrow` starts with six queued, leaving room for two.
    #[test]
    fn a_publisher_batch_is_one_fan_out_counting_what_everyone_shed() {
        let broker: Broker<u32> = Broker::new(8);
        let narrow = broker.subscribe(&["events/", "narrow/"]);
        let wide = broker.subscribe(&["events/"]);
        let publisher = broker.publisher();
        for i in 0..6 {
            publisher.publish("narrow/fill", 100 + i);
        }
        let mut batch = vec![1, 2, 3, 4, 5];
        assert_eq!(publisher.publish_batch("events/t", &mut batch), 0, "`wide` took all five");
        assert!(batch.is_empty());
        assert_eq!(drain_via(&narrow), vec![100, 101, 102, 103, 104, 105, 1, 2]);
        assert_eq!(drain_via(&wide), vec![1, 2, 3, 4, 5]);
        assert_eq!((narrow.dropped(), wide.dropped()), (3, 0));

        for i in 0..8 {
            publisher.publish("events/fill", i);
        }
        batch.extend([6, 7, 8, 9, 10]);
        assert_eq!(publisher.publish_batch("events/t", &mut batch), 5, "both queues are full");
        batch.extend([11, 12]);
        assert_eq!(publisher.publish_batch("other/t", &mut batch), 0, "nobody matched");
        assert!(batch.is_empty());
    }
}
