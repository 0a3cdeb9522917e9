//! ZeroMQ-style PUB/SUB.
//!
//! Subscribers register topic *prefixes* (ZeroMQ's subscription model);
//! publishers fan each message out to every subscriber with a matching
//! prefix. Each subscriber has a bounded queue (the high-water mark):
//! when it is full the message is dropped *for that subscriber only* and
//! counted, exactly as a ZeroMQ PUB socket sheds load.

use crate::transport::PublishOutcome;
use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use sdci_faults::{Direction, FaultPlan, FrameFault, StreamFaults};
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

struct BrokerState<T> {
    subscribers: Vec<SubscriberSlot<T>>,
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
    faults: Option<Arc<Mutex<StreamFaults>>>,
    injected: Arc<AtomicU64>,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Broker {
            state: Arc::clone(&self.state),
            hwm: self.hwm,
            published: Arc::clone(&self.published),
            delivered: Arc::clone(&self.delivered),
            dropped: Arc::clone(&self.dropped),
            faults: self.faults.clone(),
            injected: Arc::clone(&self.injected),
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
            state: Arc::new(Mutex::new(BrokerState { subscribers: Vec::new() })),
            hwm: hwm.max(1),
            published: Arc::new(AtomicU64::new(0)),
            delivered: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            faults: None,
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Installs a deterministic [`FaultPlan`] on this broker: each
    /// publish draws one decision from the plan's `send` profile —
    /// drop (and truncate, which degenerates to drop in-process),
    /// duplicate, or delay — so in-process simulations see the same
    /// chaos the TCP transport would inject on the wire. A `None` or
    /// no-op plan leaves the broker fault-free.
    #[must_use]
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan.filter(|p| !p.is_noop()).map(|p| Arc::new(Mutex::new(p.stream())));
        self
    }

    /// Publishes swallowed or doubled by an installed fault plan.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// A handle for publishing into this broker.
    pub fn publisher(&self) -> Publisher<T> {
        Publisher { broker: self.clone() }
    }

    /// Registers a subscriber for the given topic prefixes. An empty
    /// prefix (`""`) subscribes to everything.
    pub fn subscribe(&self, prefixes: &[&str]) -> Subscriber<T> {
        self.subscribe_with_hwm(prefixes, self.hwm)
    }

    /// [`Broker::subscribe`] with a per-subscription high-water mark
    /// overriding the broker default. Relay subscriptions that fan a
    /// whole broker out to further consumers (e.g. the TCP broker's
    /// encode-once dispatcher) use a deeper queue than an ordinary
    /// subscriber, so a burst sheds at the *remote* legs' own marks
    /// rather than silently at the relay's.
    pub fn subscribe_with_hwm(&self, prefixes: &[&str], hwm: usize) -> Subscriber<T> {
        let (tx, rx) = bounded(hwm.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        self.state.lock().subscribers.push(SubscriberSlot {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            sender: tx,
            dropped: Arc::clone(&dropped),
        });
        Subscriber { receiver: rx, dropped }
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

    fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        match self.next_fault() {
            None | Some(FrameFault::Deliver) => self.fan_out(topic, payload),
            // In-process there is no half-written frame, so a truncation
            // degenerates to a drop; a partition window also swallows
            // everything published inside it (see `next_fault`).
            Some(FrameFault::Drop) | Some(FrameFault::Truncate) => {
                self.published.fetch_add(1, Ordering::Relaxed);
                self.injected.fetch_add(1, Ordering::Relaxed);
                PublishOutcome::Shed
            }
            Some(FrameFault::Duplicate) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let outcome = self.fan_out(topic, payload.clone());
                self.fan_out(topic, payload);
                outcome
            }
            Some(FrameFault::Delay(pause)) => {
                std::thread::sleep(pause);
                self.fan_out(topic, payload)
            }
        }
    }

    fn next_fault(&self) -> Option<FrameFault> {
        let faults = self.faults.as_ref()?;
        let mut stream = faults.lock();
        if stream.partitioned() {
            Some(FrameFault::Drop)
        } else {
            Some(stream.decide(Direction::Send))
        }
    }

    fn fan_out(&self, topic: &str, payload: T) -> PublishOutcome {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        let mut matched = 0u64;
        let mut accepted = 0u64;
        // Deliver to matching subscribers, reaping any whose receiving
        // end is gone.
        state.subscribers.retain(|slot| {
            if !slot.prefixes.iter().any(|p| topic.starts_with(p.as_str())) {
                return true;
            }
            matched += 1;
            let msg = Message { topic: topic.to_owned(), payload: payload.clone() };
            match slot.sender.try_send(msg) {
                Ok(()) => {
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                    accepted += 1;
                    true
                }
                Err(crossbeam_channel::TrySendError::Full(_)) => {
                    slot.dropped.fetch_add(1, Ordering::Relaxed);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(crossbeam_channel::TrySendError::Disconnected(_)) => {
                    // A vanished subscriber is not a shed: it will never
                    // miss anything again.
                    matched -= 1;
                    false
                }
            }
        });
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
        self.broker.publish(topic, payload)
    }
}

impl<T> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Publisher { broker: self.broker.clone() }
    }
}

/// A publisher that batches items into `Vec<T>` messages, amortizing
/// per-message fan-out overhead (the winning transport variant in the
/// `a4_transports` comparison; §6 lists transport exploration as future
/// work).
///
/// Items are buffered until [`BatchingPublisher::flush`] or the batch
/// size is reached. Remember to flush before tearing down, or buffered
/// items are dropped (and counted).
pub struct BatchingPublisher<T> {
    publisher: Publisher<Vec<T>>,
    topic: String,
    buffer: Vec<T>,
    batch_size: usize,
    flushed: u64,
}

impl<T> fmt::Debug for BatchingPublisher<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchingPublisher")
            .field("topic", &self.topic)
            .field("buffered", &self.buffer.len())
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

impl<T: Clone + Send + 'static> BatchingPublisher<T> {
    /// Wraps a `Vec<T>` publisher with batching (batch size minimum 1).
    pub fn new(publisher: Publisher<Vec<T>>, topic: impl Into<String>, batch_size: usize) -> Self {
        BatchingPublisher {
            publisher,
            topic: topic.into(),
            buffer: Vec::new(),
            batch_size: batch_size.max(1),
            flushed: 0,
        }
    }

    /// Buffers an item, publishing the batch when full.
    pub fn push(&mut self, item: T) {
        self.buffer.push(item);
        if self.buffer.len() >= self.batch_size {
            self.flush();
        }
    }

    /// Publishes any buffered items immediately.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            let batch = std::mem::take(&mut self.buffer);
            self.flushed += batch.len() as u64;
            self.publisher.publish(&self.topic, batch);
        }
    }

    /// Items currently buffered (unpublished).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Items published so far.
    pub fn flushed(&self) -> u64 {
        self.flushed
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
    fn per_subscription_hwm_overrides_broker_default() {
        let broker: Broker<u32> = Broker::new(2);
        let deep = broker.subscribe_with_hwm(&[""], 8);
        let shallow = broker.subscribe(&[""]);
        let p = broker.publisher();
        for i in 0..5 {
            p.publish("t", i);
        }
        assert_eq!(deep.dropped(), 0);
        assert_eq!(deep.queued(), 5);
        assert_eq!(shallow.dropped(), 3, "the broker default still bounds other subscribers");
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
    fn batching_publisher_flushes_at_capacity() {
        let broker: Broker<Vec<u32>> = Broker::new(64);
        let sub = broker.subscribe(&["batch/"]);
        let mut batcher = BatchingPublisher::new(broker.publisher(), "batch/x", 3);
        for i in 0..7 {
            batcher.push(i);
        }
        assert_eq!(batcher.buffered(), 1);
        assert_eq!(batcher.flushed(), 6);
        batcher.flush();
        assert_eq!(batcher.flushed(), 7);
        let batches: Vec<Vec<u32>> =
            std::iter::from_fn(|| sub.try_recv().map(|m| m.payload)).collect();
        assert_eq!(batches, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn batching_publisher_flush_when_empty_is_noop() {
        let broker: Broker<Vec<u32>> = Broker::new(4);
        let sub = broker.subscribe(&[""]);
        let mut batcher = BatchingPublisher::new(broker.publisher(), "t", 4);
        batcher.flush();
        assert!(sub.try_recv().is_none());
        assert_eq!(batcher.flushed(), 0);
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
    fn fault_plan_drops_deterministically() {
        let plan = Arc::new(FaultPlan::parse("seed=7,drop=1.0").unwrap());
        let broker: Broker<u32> = Broker::new(16).with_faults(Some(plan));
        let sub = broker.subscribe(&[""]);
        let p = broker.publisher();
        for i in 0..10 {
            assert_eq!(p.publish("t", i), PublishOutcome::Shed);
        }
        assert!(sub.try_recv().is_none());
        assert_eq!(broker.published(), 10);
        assert_eq!(broker.delivered(), 0);
        assert_eq!(broker.faults_injected(), 10);
    }

    #[test]
    fn fault_plan_duplicates_messages() {
        let plan = Arc::new(FaultPlan::parse("seed=7,dup=1.0").unwrap());
        let broker: Broker<u32> = Broker::new(16).with_faults(Some(plan));
        let sub = broker.subscribe(&[""]);
        broker.publisher().publish("t", 42);
        assert_eq!(sub.try_recv().unwrap().payload, 42);
        assert_eq!(sub.try_recv().unwrap().payload, 42);
        assert!(sub.try_recv().is_none());
        assert_eq!(broker.faults_injected(), 1);
    }

    #[test]
    fn noop_fault_plan_is_free() {
        let plan = Arc::new(FaultPlan::parse("seed=7").unwrap());
        let broker: Broker<u32> = Broker::new(16).with_faults(Some(plan));
        let sub = broker.subscribe(&[""]);
        broker.publisher().publish("t", 1);
        assert_eq!(sub.try_recv().unwrap().payload, 1);
        assert_eq!(broker.faults_injected(), 0);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let broker: Broker<u32> = Broker::new(4);
        let s = broker.subscribe(&[""]);
        assert!(s.recv_timeout(Duration::from_millis(10)).is_none());
        assert_eq!(s.queued(), 0);
    }
}
