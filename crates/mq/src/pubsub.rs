//! ZeroMQ-style PUB/SUB.
//!
//! Subscribers register topic *prefixes* (ZeroMQ's subscription model);
//! publishers fan each message out to every subscriber with a matching
//! prefix. Each subscriber has a bounded queue (the high-water mark):
//! when it is full the message is dropped *for that subscriber only* and
//! counted, exactly as a ZeroMQ PUB socket sheds load.
//!
//! This is the feed of an in-process monitor (`sdci-core`'s
//! `MonitorCluster`): its consumers subscribe here. A deployed
//! Aggregator publishes into `sdci-net`'s `TcpBroker` instead, which
//! holds the same contract over sockets.

use crate::transport::{Publish, PublishOutcome};
use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A published message: topic plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<T> {
    /// Routing topic, matched by prefix.
    pub topic: String,
    /// The payload.
    pub payload: T,
}

struct SubscriberSlot<T> {
    prefixes: Vec<String>,
    sender: Sender<Message<T>>,
    dropped: Arc<AtomicU64>,
}

/// An in-process PUB/SUB broker.
///
/// Cloning shares the same broker. See the crate docs for an example.
pub struct Broker<T> {
    subscribers: Arc<Mutex<Vec<SubscriberSlot<T>>>>,
    hwm: usize,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Broker { subscribers: Arc::clone(&self.subscribers), hwm: self.hwm }
    }
}

impl<T> fmt::Debug for Broker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("subscribers", &self.subscribers.lock().len())
            .field("hwm", &self.hwm)
            .finish()
    }
}

impl<T: Clone + Send + 'static> Broker<T> {
    /// Creates a broker whose subscribers buffer up to `hwm` messages
    /// (the high-water mark; minimum 1).
    pub fn new(hwm: usize) -> Self {
        Broker { subscribers: Arc::new(Mutex::new(Vec::new())), hwm: hwm.max(1) }
    }

    /// A handle for publishing into this broker.
    pub fn publisher(&self) -> Publisher<T> {
        Publisher { broker: self.clone() }
    }

    /// Registers a subscriber for the given topic prefixes. An empty
    /// prefix (`""`) subscribes to everything.
    pub fn subscribe(&self, prefixes: &[&str]) -> Subscriber<T> {
        let (tx, rx) = bounded(self.hwm);
        let dropped = Arc::new(AtomicU64::new(0));
        self.subscribers.lock().push(SubscriberSlot {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            sender: tx,
            dropped: Arc::clone(&dropped),
        });
        Subscriber { receiver: rx, dropped }
    }

    /// Fans `payloads` out, in order, under one hold of the subscriber
    /// lock, one [`Message`] per payload to each matching subscriber, and
    /// returns how many payloads were shed: matched by someone and
    /// accepted by none. Zero matches is vacuous delivery, not a shed.
    fn fan_out(&self, topic: &str, payloads: impl IntoIterator<Item = T>) -> usize {
        let mut subscribers = self.subscribers.lock();
        let mut shed = 0;
        for payload in payloads {
            let (mut matched, mut accepted) = (false, false);
            // Reap any subscriber whose receiving end is gone: it will
            // never miss anything again, so it is not a shed.
            subscribers.retain(|slot| {
                if !slot.prefixes.iter().any(|p| topic.starts_with(p.as_str())) {
                    return true;
                }
                let msg = Message { topic: topic.to_owned(), payload: payload.clone() };
                match slot.sender.try_send(msg) {
                    Ok(()) => accepted = true,
                    Err(TrySendError::Full(_)) => {
                        slot.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Disconnected(_)) => return false,
                }
                matched = true;
                true
            });
            shed += usize::from(matched && !accepted);
        }
        shed
    }
}

/// The publishing half of a [`Broker`].
pub struct Publisher<T> {
    broker: Broker<T>,
}

impl<T> fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Publisher").finish_non_exhaustive()
    }
}

impl<T: Clone + Send + 'static> Publisher<T> {
    /// Publishes `payload` under `topic`, fanning out to matching
    /// subscribers; slow subscribers shed the message at their HWM.
    /// Reports [`PublishOutcome::Shed`] only when every matching
    /// subscriber shed it.
    pub fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        if self.broker.fan_out(topic, [payload]) > 0 {
            PublishOutcome::Shed
        } else {
            PublishOutcome::Delivered
        }
    }
}

/// A batch is one fan-out under one lock, payload by payload; it returns
/// how many payloads every matching subscriber shed.
impl<T: Clone + Send + 'static> Publish<T> for Publisher<T> {
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        Publisher::publish(self, topic, payload)
    }

    fn publish_batch(&self, topic: &str, batch: &mut Vec<T>) -> usize {
        self.broker.fan_out(topic, batch.drain(..))
    }
}

impl<T> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Publisher { broker: self.broker.clone() }
    }
}

/// The receiving half of one subscription.
pub struct Subscriber<T> {
    receiver: Receiver<Message<T>>,
    dropped: Arc<AtomicU64>,
}

impl<T> fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscriber").field("queued", &self.receiver.len()).finish()
    }
}

impl<T> Subscriber<T> {
    /// Receives the next message, blocking until one arrives or all
    /// publishers are gone (returns `None`).
    pub fn recv(&self) -> Option<Message<T>> {
        self.receiver.recv().ok()
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Message<T>> {
        match self.receiver.try_recv() {
            Ok(m) => Some(m),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Receives, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message<T>> {
        self.receiver.recv_timeout(timeout).ok()
    }

    /// Messages currently buffered.
    pub fn queued(&self) -> usize {
        self.receiver.len()
    }

    /// Messages this subscriber missed at its high-water mark.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fan_out_to_multiple_subscribers() {
        let broker: Broker<u32> = Broker::new(16);
        let a = broker.subscribe(&[""]);
        let b = broker.subscribe(&[""]);
        broker.publisher().publish("t", 7);
        assert_eq!(a.recv().unwrap().payload, 7);
        assert_eq!(b.recv().unwrap().payload, 7);
    }

    #[test]
    fn prefix_filtering() {
        let broker: Broker<u32> = Broker::new(16);
        let mdt0 = broker.subscribe(&["events/mdt0"]);
        let all_events = broker.subscribe(&["events/"]);
        let p = broker.publisher();
        p.publish("events/mdt0", 1);
        p.publish("events/mdt1", 2);
        p.publish("health", 3);
        assert_eq!(mdt0.try_recv().unwrap().payload, 1);
        assert!(mdt0.try_recv().is_none());
        assert_eq!(all_events.try_recv().unwrap().payload, 1);
        assert_eq!(all_events.try_recv().unwrap().payload, 2);
        assert!(all_events.try_recv().is_none());
    }

    #[test]
    fn multiple_prefixes_one_subscriber() {
        let broker: Broker<u32> = Broker::new(16);
        let s = broker.subscribe(&["a/", "b/"]);
        let p = broker.publisher();
        p.publish("a/x", 1);
        p.publish("b/y", 2);
        p.publish("c/z", 3);
        assert_eq!(s.try_recv().unwrap().payload, 1);
        assert_eq!(s.try_recv().unwrap().payload, 2);
        assert!(s.try_recv().is_none());
    }

    #[test]
    fn hwm_drops_for_slow_subscriber_only() {
        let broker: Broker<u32> = Broker::new(2);
        let slow = broker.subscribe(&[""]);
        let p = broker.publisher();
        for i in 0..5 {
            p.publish("t", i);
        }
        // Slow subscriber kept only the first 2.
        assert_eq!(slow.try_recv().unwrap().payload, 0);
        assert_eq!(slow.try_recv().unwrap().payload, 1);
        assert!(slow.try_recv().is_none());
        assert_eq!(slow.dropped(), 3);
    }

    #[test]
    fn dropped_subscriber_is_reaped() {
        let broker: Broker<u32> = Broker::new(4);
        let s = broker.subscribe(&[""]);
        drop(s);
        let p = broker.publisher();
        p.publish("t", 1);
        p.publish("t", 2);
        assert!(broker.subscribers.lock().is_empty());
    }

    #[test]
    fn cross_thread_delivery() {
        let broker: Broker<String> = Broker::new(1024);
        let sub = broker.subscribe(&["events/"]);
        let p = broker.publisher();
        let producer = thread::spawn(move || {
            for i in 0..100 {
                p.publish("events/mdt0", format!("event-{i}"));
            }
        });
        let mut got = 0;
        while got < 100 {
            if sub.recv_timeout(Duration::from_secs(5)).is_some() {
                got += 1;
            } else {
                panic!("timed out after {got} messages");
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn publish_outcome_reports_sheds_honestly() {
        let broker: Broker<u32> = Broker::new(1);
        let p = broker.publisher();
        // No subscribers at all: vacuous delivery, not a shed.
        assert_eq!(p.publish("t", 0), PublishOutcome::Delivered);
        let slow = broker.subscribe(&["t"]);
        assert_eq!(p.publish("t", 1), PublishOutcome::Delivered);
        // `slow`'s queue (hwm 1) is now full: everyone who matched shed.
        assert_eq!(p.publish("t", 2), PublishOutcome::Shed);
        // A fresh subscriber accepts, so the fan-out partially lands.
        let fresh = broker.subscribe(&["t"]);
        assert_eq!(p.publish("t", 3), PublishOutcome::Delivered);
        // Non-matching topic: vacuous again.
        assert_eq!(p.publish("other", 4), PublishOutcome::Delivered);
        drop((slow, fresh));
        // Only reaped (disconnected) subscribers left: vacuous, and the
        // reap must not report a shed.
        assert_eq!(p.publish("t", 5), PublishOutcome::Delivered);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let broker: Broker<u32> = Broker::new(4);
        let s = broker.subscribe(&[""]);
        assert!(s.recv_timeout(Duration::from_millis(10)).is_none());
        assert_eq!(s.queued(), 0);
    }
}
