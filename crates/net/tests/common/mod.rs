//! What the integration tests of this crate share.

use sdci_net::{NetConfig, RetryPolicy};
use std::time::Duration;

/// Tight timers, so a redial, a ping and a liveness give-up each take
/// milliseconds: backoff 10–100 ms, a ping every 20 ms, a peer dead after
/// 500 ms without traffic.
pub fn fast_cfg() -> NetConfig {
    NetConfig {
        hwm: 8192,
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(500),
        ..NetConfig::default()
    }
}
