//! PUSH/PULL pipelines: bounded, blocking, fan-in queues.
//!
//! Unlike PUB/SUB (which sheds load at the high-water mark), a PUSH
//! socket *blocks* when its peer's queue is full — the backpressure
//! behaviour pipeline stages want.

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::fmt;
use std::time::{Duration, Instant};

/// Creates a PUSH/PULL pair with a queue bound of `capacity` (minimum 1).
///
/// Both ends are cloneable: multiple pushers fan in, multiple pullers
/// compete for messages (ZeroMQ's load-balanced PULL).
pub fn pipeline<T: Send + 'static>(capacity: usize) -> (Push<T>, Pull<T>) {
    let (tx, rx) = bounded(capacity.max(1));
    (Push { sender: tx }, Pull { receiver: rx })
}

/// The sending half of a pipeline.
pub struct Push<T> {
    sender: Sender<T>,
}

impl<T> Clone for Push<T> {
    fn clone(&self) -> Self {
        Push { sender: self.sender.clone() }
    }
}

impl<T> fmt::Debug for Push<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Push").field("queued", &self.sender.len()).finish()
    }
}

impl<T: Send + 'static> Push<T> {
    /// Sends, blocking while the queue is full. Returns `false` when all
    /// pullers are gone (the message is lost).
    pub fn send(&self, value: T) -> bool {
        self.sender.send(value).is_ok()
    }

    /// Sends without blocking; `Err` returns the value when the queue is
    /// full or disconnected.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        self.sender.try_send(value).map_err(|e| e.into_inner())
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.sender.len()
    }
}

/// The receiving half of a pipeline.
pub struct Pull<T> {
    receiver: Receiver<T>,
}

impl<T> Clone for Pull<T> {
    fn clone(&self) -> Self {
        Pull { receiver: self.receiver.clone() }
    }
}

impl<T> fmt::Debug for Pull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pull").field("queued", &self.receiver.len()).finish()
    }
}

impl<T: Send + 'static> Pull<T> {
    /// Receives, blocking until a message arrives or every pusher is
    /// gone (returns `None`).
    pub fn recv(&self) -> Option<T> {
        self.receiver.recv().ok()
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.receiver.try_recv().ok()
    }

    /// Receives, waiting at most `timeout`. Returns `None` on timeout
    /// *or* disconnect; use [`Pull::recv`] to distinguish. A queue whose
    /// pushers are all gone still yields what they queued, then waits
    /// out `timeout` as an open, idle queue would: a polling loop costs
    /// the same either way, rather than spinning once its source closes.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        match self.receiver.recv_timeout(timeout) {
            Ok(v) => Some(v),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                None
            }
        }
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.receiver.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn roundtrip() {
        let (push, pull) = pipeline::<u32>(8);
        assert!(push.send(1));
        assert!(push.send(2));
        assert_eq!(pull.recv(), Some(1));
        assert_eq!(pull.recv(), Some(2));
        assert_eq!(pull.try_recv(), None);
    }

    #[test]
    fn try_send_fails_when_full() {
        let (push, _pull) = pipeline::<u32>(2);
        push.try_send(1).unwrap();
        push.try_send(2).unwrap();
        assert_eq!(push.try_send(3), Err(3));
        assert_eq!(push.queued(), 2);
    }

    #[test]
    fn send_blocks_until_drained() {
        let (push, pull) = pipeline::<u32>(1);
        push.send(0);
        let pusher = thread::spawn(move || {
            // This blocks until the main thread pulls.
            assert!(push.send(1));
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(pull.recv(), Some(0));
        assert_eq!(pull.recv(), Some(1));
        pusher.join().unwrap();
    }

    #[test]
    fn recv_returns_none_after_pushers_drop() {
        let (push, pull) = pipeline::<u32>(4);
        push.send(9);
        drop(push);
        assert_eq!(pull.recv(), Some(9));
        assert_eq!(pull.recv(), None);
    }

    #[test]
    fn send_fails_after_pullers_drop() {
        let (push, pull) = pipeline::<u32>(4);
        drop(pull);
        assert!(!push.send(1));
    }

    #[test]
    fn competing_pullers_partition_messages() {
        let (push, pull) = pipeline::<u32>(64);
        let pull2 = pull.clone();
        let h1 = thread::spawn(move || {
            let mut n = 0;
            while pull.recv().is_some() {
                n += 1;
            }
            n
        });
        let h2 = thread::spawn(move || {
            let mut n = 0;
            while pull2.recv().is_some() {
                n += 1;
            }
            n
        });
        for i in 0..1000 {
            assert!(push.send(i));
        }
        drop(push);
        let total = h1.join().unwrap() + h2.join().unwrap();
        assert_eq!(total, 1000);
    }

    #[test]
    fn recv_timeout_when_idle() {
        let (_push, pull) = pipeline::<u32>(4);
        assert_eq!(pull.recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn recv_timeout_drains_then_waits_on_a_closed_queue() {
        let (push, pull) = pipeline::<u32>(4);
        push.send(9);
        drop(push);
        assert_eq!(pull.recv_timeout(Duration::from_millis(20)), Some(9));
        let start = Instant::now();
        assert_eq!(pull.recv_timeout(Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20), "a closed queue must not spin");
    }
}
