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
//!   to (a broker [`Publisher`], or `sdci-net`'s `TcpPush` and
//!   `ShardRouter`).
//! * [`Subscribe`] — the receiving side: a stream of [`Message`]s (a
//!   broker [`Subscriber`], or `sdci-net`'s `TcpSubscriber`).

use crate::pubsub::{Message, Publisher, Subscriber};
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
    /// from here (e.g. a TCP pusher's resend window).
    Queued,
}

/// The sending side of a topic-addressed event fan-out.
///
/// Delivery follows the PUB/SUB contract: best-effort, shedding at a
/// high-water mark when a subscriber (or the wire) falls behind.
pub trait Publish<T>: Send + 'static {
    /// Publishes `payload` on `topic`. Never blocks on slow consumers;
    /// reports what happened so callers can count sheds honestly.
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome;
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

impl<T: Clone + Send + 'static> Publish<T> for Publisher<T> {
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        Publisher::publish(self, topic, payload)
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
}
