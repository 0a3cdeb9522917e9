//! Connection supervision: reconnect backoff and liveness tuning.
//!
//! Every sdci-net client endpoint keeps its connection alive forever —
//! a pusher on a background worker, a subscriber on its reader's thread:
//! connect, run, and on any error wait a jittered exponentially-growing
//! delay and connect again. Servers
//! probe idle peers with `Ping` frames and declare a connection dead
//! when nothing arrives for a liveness window.

use rand::{rngs::StdRng, Rng, SeedableRng};
use sdci_faults::FaultPlan;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Reconnect backoff policy: delays grow `base`, `2*base`, `4*base`, …
/// capped at `max`, each multiplied by a random factor in `[0.5, 1.0)`
/// so a fleet of Collectors does not reconnect in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry delay.
    pub base: Duration,
    /// Ceiling on the un-jittered delay.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { base: Duration::from_millis(50), max: Duration::from_secs(2) }
    }
}

/// Tunables shared by all sdci-net endpoints.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-connection queue bound on the lossy PUB/SUB legs; when a
    /// subscriber (or the socket to it) falls this far behind, newer
    /// messages are shed — the same high-water-mark contract as the
    /// in-process broker.
    pub hwm: usize,
    /// Reconnect backoff.
    pub retry: RetryPolicy,
    /// A side that has been idle this long sends a `Ping`.
    pub heartbeat: Duration,
    /// A connection that produced no traffic for this long is dead —
    /// and a pusher's, once its frame in flight has waited this long,
    /// whatever else arrived meanwhile.
    pub liveness: Duration,
    /// Most payloads coalesced into one batch frame. `1` disables
    /// coalescing: every payload travels as a one-member batch. A
    /// pusher, which has one frame in flight, also queues at most this
    /// many items behind it.
    pub max_batch: usize,
    /// Bound on every blocking outbound `connect` — a black-holed peer
    /// address fails within this window instead of the kernel's
    /// minutes-long SYN retry budget.
    pub connect_timeout: Duration,
    /// Deterministic fault schedule enforced at the frame boundary of
    /// every connection this config opens or accepts; `None` (the
    /// default) is a clean wire.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hwm: 65_536,
            retry: RetryPolicy::default(),
            heartbeat: Duration::from_millis(100),
            liveness: Duration::from_secs(3),
            max_batch: 512,
            connect_timeout: Duration::from_secs(1),
            faults: None,
        }
    }
}

impl NetConfig {
    /// Returns this config with `plan` installed (noop plans are
    /// dropped so endpoints skip the fault wrappers entirely).
    #[must_use]
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan.filter(|p| !p.is_noop());
        self
    }

    /// Opens an outbound connection bounded by
    /// [`NetConfig::connect_timeout`]. While the installed fault plan
    /// scripts a partition, the attempt fails like a black-holed SYN:
    /// a short stall, then `TimedOut`.
    ///
    /// # Errors
    ///
    /// Propagates the kernel connect failure, or `TimedOut` after the
    /// configured bound.
    pub fn connect(&self, addr: SocketAddr) -> io::Result<TcpStream> {
        if let Some(plan) = &self.faults {
            if plan.partitioned() {
                std::thread::sleep(self.connect_timeout.min(Duration::from_millis(20)));
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected partition: connect black-holed",
                ));
            }
        }
        TcpStream::connect_timeout(&addr, self.connect_timeout)
    }
}

/// Stateful jittered exponential backoff over a [`RetryPolicy`].
#[derive(Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    /// Creates a backoff at attempt zero. The jitter stream is seeded
    /// from wall-clock entropy so concurrent endpoints de-synchronize.
    pub fn new(policy: RetryPolicy) -> Self {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5DC1_0000, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        Backoff { policy, attempt: 0, rng: StdRng::seed_from_u64(seed) }
    }

    /// The delay to sleep before the next connection attempt.
    pub fn next_delay(&mut self) -> Duration {
        let exp =
            self.policy.base.saturating_mul(1u32 << self.attempt.min(16)).min(self.policy.max);
        self.attempt = self.attempt.saturating_add(1);
        exp.mul_f64(self.rng.gen_range(0.5..1.0))
    }

    /// Resets after a successful connection: the next failure starts
    /// again from the base delay.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Records a failed connection attempt and sleeps the next delay.
    ///
    /// `session_lived` is how long the connection survived before it
    /// failed (`Duration::ZERO` when it never got past the handshake);
    /// a session that lived at least `healthy_after` proved the peer
    /// genuinely up, so the backoff restarts from the base delay.
    /// Gating the reset on session longevity — rather than resetting as
    /// soon as a connection is established — means a peer that accepts
    /// and immediately resets still drives the delay up instead of
    /// being hammered in a tight reconnect loop.
    pub fn sleep_after_failure(&mut self, session_lived: Duration, healthy_after: Duration) {
        if session_lived >= healthy_after {
            self.reset();
        }
        std::thread::sleep(self.next_delay());
    }

    /// Connection attempts failed since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let policy =
            RetryPolicy { base: Duration::from_millis(100), max: Duration::from_millis(400) };
        let mut backoff = Backoff::new(policy);
        let delays: Vec<Duration> = (0..6).map(|_| backoff.next_delay()).collect();
        // Jitter scales into [0.5, 1.0) of the exponential envelope.
        assert!(delays[0] >= Duration::from_millis(50) && delays[0] < Duration::from_millis(100));
        assert!(delays[1] >= Duration::from_millis(100) && delays[1] < Duration::from_millis(200));
        for d in &delays[2..] {
            assert!(*d >= Duration::from_millis(200) && *d < Duration::from_millis(400));
        }
    }

    #[test]
    fn reset_returns_to_base() {
        let mut backoff = Backoff::new(RetryPolicy::default());
        for _ in 0..5 {
            backoff.next_delay();
        }
        assert_eq!(backoff.attempt(), 5);
        backoff.reset();
        assert_eq!(backoff.attempt(), 0);
        assert!(backoff.next_delay() < RetryPolicy::default().base);
    }

    #[test]
    fn failure_sleep_resets_only_after_a_long_session() {
        let policy = RetryPolicy { base: Duration::from_millis(1), max: Duration::from_millis(2) };
        let mut backoff = Backoff::new(policy);
        let healthy = Duration::from_millis(500);
        backoff.sleep_after_failure(Duration::ZERO, healthy);
        backoff.sleep_after_failure(Duration::from_millis(10), healthy);
        // Two short-lived failures: attempts accumulate.
        assert_eq!(backoff.attempt(), 2);
        // A session that outlived the health threshold resets first.
        backoff.sleep_after_failure(Duration::from_secs(1), healthy);
        assert_eq!(backoff.attempt(), 1);
    }

    #[test]
    fn extreme_attempts_do_not_overflow() {
        let mut backoff = Backoff::new(RetryPolicy {
            base: Duration::from_secs(1),
            max: Duration::from_secs(30),
        });
        for _ in 0..100 {
            assert!(backoff.next_delay() <= Duration::from_secs(30));
        }
    }
}
