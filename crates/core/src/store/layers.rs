//! The one wrapper over an [`EventBackend`], and the builder that
//! applies it.
//!
//! [`MeteredBackend`] wraps an inner backend by value, counts and times
//! every operation against it, and re-exposes the same trait, so call
//! sites do not hand-inline counters around store calls. [`StoreStack`]
//! is the one place a store is put together: a fresh segmented
//! [`EventStore`](super::EventStore) or an existing backend, metered or
//! not.

use super::backend::{EventBackend, StoreError};
use super::{StoreQuery, StoreStats};
use crate::aggregator::SequencedEvent;
use sdci_obs::{registry, Counter, Gauge, Histogram};
use std::sync::Arc;

/// A metrics layer: counts and times every operation against the
/// inner backend and keeps occupancy gauges fresh, so call sites stop
/// hand-inlining counters around store calls.
pub struct MeteredBackend<B> {
    inner: B,
    stored: Counter,
    insert_errors: Counter,
    queries: Counter,
    query_time: Histogram,
    events: Gauge,
    resident_bytes: Gauge,
    segments: Gauge,
}

impl<B: EventBackend> MeteredBackend<B> {
    /// Wraps `inner`, deriving metric names from prefix `p`:
    /// `{p}_stored_total`, `{p}_insert_errors_total`,
    /// `{p}_queries_total`, `{p}_query_seconds`, and the occupancy
    /// gauges `{p}_events` / `{p}_resident_bytes` / `{p}_segments`.
    pub fn new(p: &str, inner: B) -> Self {
        let r = registry();
        let metered = MeteredBackend {
            stored: r.counter(&format!("{p}_stored_total")),
            insert_errors: r.counter(&format!("{p}_insert_errors_total")),
            queries: r.counter(&format!("{p}_queries_total")),
            query_time: r.histogram(&format!("{p}_query_seconds")),
            events: r.gauge(&format!("{p}_events")),
            resident_bytes: r.gauge(&format!("{p}_resident_bytes")),
            segments: r.gauge(&format!("{p}_segments")),
            inner,
        };
        // Occupancy moves only on insert; a restored store starts with
        // some, so the gauges are set once here and on every insert.
        metered.refresh_gauges();
        metered
    }

    fn refresh_gauges(&self) {
        let stats = self.inner.stats();
        self.events.set(self.inner.len() as i64);
        self.resident_bytes.set(stats.resident_bytes as i64);
        self.segments.set(stats.segments as i64);
    }
}

impl<B: EventBackend> EventBackend for MeteredBackend<B> {
    fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        let _span = sdci_obs::trace::child("store.meter.insert");
        let count = events.len() as u64;
        match self.inner.insert_batch(events) {
            Ok(()) => {
                self.stored.add(count);
                self.refresh_gauges();
                Ok(())
            }
            Err(e) => {
                self.insert_errors.inc();
                Err(e)
            }
        }
    }

    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        let _span = sdci_obs::trace::child("store.meter.query");
        self.queries.inc();
        let _timer = self.query_time.start_timer();
        self.inner.query(query)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn last_seq(&self) -> u64 {
        self.inner.last_seq()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Builds a role's store: a base backend, under a [`MeteredBackend`]
/// when a metric prefix is given. The one place store construction
/// lives, so every binary and test builds it the same way.
///
/// ```
/// use sdci_core::StoreStack;
/// let store = StoreStack::segmented(10_000).metered("sdci_store").build();
/// assert_eq!(store.len(), 0);
/// ```
pub struct StoreStack(Arc<dyn EventBackend>);

impl StoreStack {
    /// A fresh segmented [`EventStore`](super::EventStore) base.
    pub fn segmented(capacity: usize) -> StoreStack {
        StoreStack::over(Arc::new(super::EventStore::new(capacity)))
    }

    /// Builds over an existing backend — a restored store, a remote.
    pub fn over(base: Arc<dyn EventBackend>) -> StoreStack {
        StoreStack(base)
    }

    /// Adds the metrics wrapper with names derived from `prefix`.
    pub fn metered(self, prefix: impl AsRef<str>) -> StoreStack {
        StoreStack(Arc::new(MeteredBackend::new(prefix.as_ref(), self.0)))
    }

    /// The assembled store.
    pub fn build(self) -> Arc<dyn EventBackend> {
        self.0
    }
}
