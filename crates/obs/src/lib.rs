//! `sdci-obs` — the monitor's self-observation layer.
//!
//! The paper's evaluation (§5, Figs. 4–6) is entirely about *rates and
//! latencies*: extraction rate, processing rate, and end-to-end event
//! delivery latency under load. The infrastructure-health tools it
//! contrasts itself with (MonALISA, Nagios, §2) expose exactly that
//! statistics view. This crate gives every other workspace crate the
//! primitives to report theirs:
//!
//! * [`log`] — a structured, leveled logging facade. The
//!   [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros emit single-line
//!   JSON records to stderr (timestamp offset, level, target, message,
//!   `key=value` fields), filtered per target via the `SDCI_LOG`
//!   environment variable.
//! * [`metrics`] — a process-global registry of named counters, gauges,
//!   and log-bucketed (power-of-2) latency histograms with
//!   p50/p90/p99/max, plus a [`ScopedTimer`] guard for span timing.
//! * [`expose`] — a minimal blocking HTTP responder serving the registry
//!   in Prometheus text exposition format (plus `/healthz`, `/tracez`)
//!   on a connection a server role's listener hands it.
//!
//! The crate is deliberately std-only: it sits below every other
//! workspace crate (types excepted), so nothing it observes can depend
//! on it cyclically, and the `--offline` build gains no new
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod health;
pub mod log;
pub mod metrics;
pub mod trace;

pub use log::Level;
pub use metrics::{registry, Counter, CounterVec, Gauge, Histogram, Registry, ScopedTimer};

/// Wall-clock nanoseconds since the UNIX epoch.
///
/// The pipeline stamps events with this at extraction so downstream
/// stages — possibly in other OS processes on the same host — can
/// compute end-to-end latency (the paper's Fig. 5/6 metric). Returns 0
/// if the system clock reads before the epoch.
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A `&'static` metric handle, registered on first use.
///
/// Expands to an expression of type `&'static Counter` / `Gauge` /
/// `Histogram`, caching the registry lookup in a `OnceLock` so hot
/// paths (per-frame, per-event) pay one atomic load instead of a map
/// lookup:
///
/// ```
/// let c = sdci_obs::static_metric!(counter, "sdci_demo_frames_total");
/// c.inc();
/// ```
#[macro_export]
macro_rules! static_metric {
    (counter, $name:expr) => {{
        static METRIC: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        METRIC.get_or_init(|| $crate::registry().counter($name))
    }};
    (counter_vec, $name:expr, $key:expr) => {{
        static METRIC: ::std::sync::OnceLock<$crate::metrics::CounterVec> =
            ::std::sync::OnceLock::new();
        METRIC.get_or_init(|| $crate::registry().counter_vec($name, $key))
    }};
    (gauge, $name:expr) => {{
        static METRIC: ::std::sync::OnceLock<$crate::metrics::Gauge> = ::std::sync::OnceLock::new();
        METRIC.get_or_init(|| $crate::registry().gauge($name))
    }};
    (histogram, $name:expr) => {{
        static METRIC: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        METRIC.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn unix_now_ns_is_monotonic_enough() {
        let a = super::unix_now_ns();
        let b = super::unix_now_ns();
        assert!(a > 1_500_000_000_000_000_000, "clock reads after 2017");
        assert!(b >= a);
    }

    #[test]
    fn static_metric_returns_the_same_handle() {
        let a = crate::static_metric!(counter, "sdci_obs_test_static_total");
        a.inc();
        let b = crate::static_metric!(counter, "sdci_obs_test_static_total");
        // Same OnceLock, same underlying counter.
        assert_eq!(b.get(), 1);
    }
}
