//! ZeroMQ-style PUB/SUB.
//!
//! Subscribers register topic *prefixes* (ZeroMQ's subscription model);
//! publishers fan each message out to every subscriber with a matching
//! prefix. Each subscriber has a bounded queue (the high-water mark):
//! when it is full the message is dropped *for that subscriber only* and
//! counted, exactly as a ZeroMQ PUB socket sheds load.
//!
//! A relay ([`Broker::relay`]) is the one other thing a broker feeds,
//! and it is not a queue: the broker calls it with every publish
//! *whole* — a [`Publisher::publish_batch`] of 256 payloads is one call,
//! not 256 — on the publishing thread, for a forwarder (the TCP
//! broker's encode-once fan-out) that handles publishes as units.

use crate::transport::PublishOutcome;
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

/// A registered [`Broker::relay`].
type Relay<T> = Box<dyn FnMut(&str, &[T]) + Send>;

struct BrokerState<T> {
    subscribers: Vec<SubscriberSlot<T>>,
    relays: Vec<Relay<T>>,
}

/// An in-process PUB/SUB broker.
///
/// Cloning shares the same broker. See the crate docs for an example.
pub struct Broker<T> {
    state: Arc<Mutex<BrokerState<T>>>,
    hwm: usize,
    published: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Broker {
            state: Arc::clone(&self.state),
            hwm: self.hwm,
            published: Arc::clone(&self.published),
            delivered: Arc::clone(&self.delivered),
            dropped: Arc::clone(&self.dropped),
        }
    }
}

impl<T> fmt::Debug for Broker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("subscribers", &self.state.lock().subscribers.len())
            .field("hwm", &self.hwm)
            .finish()
    }
}

impl<T: Clone + Send + 'static> Broker<T> {
    /// Creates a broker whose subscribers buffer up to `hwm` messages
    /// (the high-water mark; minimum 1).
    pub fn new(hwm: usize) -> Self {
        Broker {
            state: Arc::new(Mutex::new(BrokerState {
                subscribers: Vec::new(),
                relays: Vec::new(),
            })),
            hwm: hwm.max(1),
            published: Arc::new(AtomicU64::new(0)),
            delivered: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
        }
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
        self.state.lock().subscribers.push(SubscriberSlot {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            sender: tx,
            dropped: Arc::clone(&dropped),
        });
        Subscriber { receiver: rx, dropped }
    }

    /// Registers `relay`, which the broker calls with every non-empty
    /// publish on every topic — its topic and all its payloads, in
    /// order — on the publishing thread, under the same lock hold that
    /// queues the publish for subscribers, so calls arrive in publish
    /// order. A relay is not a queue: nothing it does counts as a
    /// delivery or a shed, and it must not call back into this broker.
    pub fn relay(&self, relay: impl FnMut(&str, &[T]) + Send + 'static) {
        self.state.lock().relays.push(Box::new(relay));
    }

    /// Messages published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Per-subscriber deliveries so far (one message to two subscribers
    /// counts twice).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Deliveries dropped at subscriber high-water marks.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Fans one publish out under a single hold of the state lock:
    /// ordinary subscribers get one [`Message`] per payload, relays the
    /// publish whole.
    fn fan_out(&self, topic: &str, payloads: &[T]) -> PublishOutcome {
        let count = payloads.len() as u64;
        if count == 0 {
            return PublishOutcome::Delivered;
        }
        self.published.fetch_add(count, Ordering::Relaxed);
        let mut state = self.state.lock();
        let mut matched = 0u64;
        let mut accepted = 0u64;
        let mut shed = 0u64;
        // Deliver to matching subscribers, reaping any whose receiving
        // end is gone.
        state.subscribers.retain(|slot| {
            if !slot.prefixes.iter().any(|p| topic.starts_with(p.as_str())) {
                return true;
            }
            matched += 1;
            for payload in payloads {
                let msg = Message { topic: topic.to_owned(), payload: payload.clone() };
                match slot.sender.try_send(msg) {
                    Ok(()) => accepted += 1,
                    Err(TrySendError::Full(_)) => {
                        slot.dropped.fetch_add(1, Ordering::Relaxed);
                        shed += 1;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        // A vanished subscriber is not a shed: it will
                        // never miss anything again.
                        matched -= 1;
                        return false;
                    }
                }
            }
            true
        });
        for relay in &mut state.relays {
            relay(topic, payloads);
        }
        self.delivered.fetch_add(accepted, Ordering::Relaxed);
        self.dropped.fetch_add(shed, Ordering::Relaxed);
        // Zero matches is vacuous delivery — only "everyone who wanted
        // it shed it" counts as a shed.
        if matched > 0 && accepted == 0 {
            PublishOutcome::Shed
        } else {
            PublishOutcome::Delivered
        }
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
        self.broker.fan_out(topic, std::slice::from_ref(&payload))
    }

    /// Publishes every payload of `payloads` under `topic`, in order,
    /// as one publish: the broker's state is locked once, subscribers
    /// still receive one [`Message`] per payload, and a relay is called
    /// once with the batch whole. Reports [`PublishOutcome::Shed`] only when
    /// nothing of a non-empty batch was accepted by anyone it matched.
    pub fn publish_batch(&self, topic: &str, payloads: Vec<T>) -> PublishOutcome {
        self.broker.fan_out(topic, &payloads)
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
        assert_eq!(broker.published(), 1);
        assert_eq!(broker.delivered(), 2);
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
        assert_eq!(broker.dropped(), 3);
    }

    #[test]
    fn publish_batch_is_one_message_per_payload_and_one_relay_call() {
        let broker: Broker<u32> = Broker::new(16);
        let sub = broker.subscribe(&["a/"]);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&calls);
        broker
            .relay(move |topic, payloads| seen.lock().push((topic.to_owned(), payloads.to_vec())));
        let p = broker.publisher();
        assert_eq!(p.publish_batch("a/x", vec![1, 2, 3]), PublishOutcome::Delivered);
        p.publish("b/y", 4);
        p.publish_batch("a/z", vec![5, 6]);
        let got: Vec<(String, u32)> =
            std::iter::from_fn(|| sub.try_recv().map(|m| (m.topic, m.payload))).collect();
        assert_eq!(
            got,
            vec![
                ("a/x".into(), 1),
                ("a/x".into(), 2),
                ("a/x".into(), 3),
                ("a/z".into(), 5),
                ("a/z".into(), 6)
            ]
        );
        let whole = |topic: &str, payloads: &[u32]| (topic.to_owned(), payloads.to_vec());
        assert_eq!(
            *calls.lock(),
            vec![whole("a/x", &[1, 2, 3]), whole("b/y", &[4]), whole("a/z", &[5, 6])],
            "a batch is one call, a single publish a one-payload call, in publish order"
        );
        assert_eq!(broker.published(), 6);
        assert_eq!(broker.delivered(), 5, "a relay call is not a delivery");
        assert_eq!(p.publish_batch("a/x", Vec::new()), PublishOutcome::Delivered);
        assert_eq!(calls.lock().len(), 3, "an empty publish calls nothing");
    }

    #[test]
    fn dropped_subscriber_is_reaped() {
        let broker: Broker<u32> = Broker::new(4);
        let s = broker.subscribe(&[""]);
        drop(s);
        let p = broker.publisher();
        p.publish("t", 1);
        p.publish("t", 2);
        assert_eq!(broker.delivered(), 0);
        assert_eq!(broker.dropped(), 0);
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
        assert_eq!(broker.delivered(), 100);
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
