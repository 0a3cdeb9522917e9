//! The store interface: one narrow trait every store speaks, so the
//! aggregator, the store RPC and the consumer's backfill are written
//! once against it.
//!
//! [`EventBackend`] is the full read/write surface (insert, query,
//! stats), object-safe so a store is shared as
//! `Arc<dyn EventBackend>`. The segmented [`EventStore`] is the one
//! local implementation; [`MeteredBackend`](super::MeteredBackend)
//! wraps any backend with its metrics; `sdci-net`'s `RemoteStore`
//! implements the same trait over the wire, read-only.

use super::{EventStore, SharedStore, StoreOrderError, StoreQuery, StoreStats};
use crate::aggregator::SequencedEvent;
use std::fmt;
use std::sync::Arc;

/// Why a backend refused or failed an operation.
///
/// The segmented store's inherent methods keep returning the precise
/// [`StoreOrderError`]; the trait folds every backend's failures into
/// this one enum so callers can pass errors through without knowing
/// what is underneath.
#[derive(Debug)]
pub enum StoreError {
    /// The batch broke the strictly-increasing sequence contract; the
    /// store is unchanged.
    Order(StoreOrderError),
    /// The backend is a read-only view (a remote store) and cannot
    /// accept writes.
    ReadOnly(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Order(e) => write!(f, "{e}"),
            StoreError::ReadOnly(what) => write!(f, "{what} is a read-only backend"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Order(e) => Some(e),
            StoreError::ReadOnly(_) => None,
        }
    }
}

impl From<StoreOrderError> for StoreError {
    fn from(e: StoreOrderError) -> Self {
        StoreError::Order(e)
    }
}

/// A pluggable event store: the one interface the aggregator, the
/// store RPC, and the consumer's gap recovery are written against, so
/// backfill works identically whether the store lives in the same
/// process ([`SharedStore`]) or behind `sdci-net`'s query RPC.
///
/// Object-safe and `Send + Sync`, so a store is an
/// `Arc<dyn EventBackend>` built once (see
/// [`StoreStack`](super::StoreStack)) and shared by every thread.
///
/// `stats`, `last_seq`, and `len` default to "unknown" (zeroes) so
/// a remote view — which cannot see occupancy cheaply — implements
/// only what it can answer; local backends override all
/// three.
pub trait EventBackend: Send + Sync {
    /// Inserts a batch of events atomically, in strictly increasing
    /// sequence order (all-or-nothing on violation).
    fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreError>;

    /// Inserts one event; equivalent to a one-element
    /// [`EventBackend::insert_batch`].
    fn insert(&self, event: SequencedEvent) -> Result<(), StoreError> {
        self.insert_batch(vec![event])
    }

    /// Runs `query` over the retained window, oldest first. A backend
    /// that cannot reach its store (a remote one whose server is down)
    /// answers empty; an [`EventConsumer`](crate::EventConsumer)
    /// backfilling from it retries and then counts the gap as lost.
    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent>;

    /// Counters and gauges for the backend (zeroes when unknowable).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Newest retained sequence number (0 when empty or unknowable).
    fn last_seq(&self) -> u64 {
        0
    }

    /// Retained events right now (0 when unknowable).
    fn len(&self) -> usize {
        0
    }

    /// Whether the backend currently retains nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sharing a backend is a plain `Arc`: the whole surface takes
/// `&self`.
impl<T: EventBackend + ?Sized> EventBackend for Arc<T> {
    fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        (**self).insert_batch(events)
    }
    fn insert(&self, event: SequencedEvent) -> Result<(), StoreError> {
        (**self).insert(event)
    }
    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        (**self).query(query)
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
    fn last_seq(&self) -> u64 {
        (**self).last_seq()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
}

impl EventBackend for EventStore {
    fn insert_batch(&self, events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        let mut span = sdci_obs::trace::child("store.seg.insert");
        span.set_detail(|| format!("{} events", events.len()));
        EventStore::insert_batch(self, events).map_err(StoreError::from)
    }

    fn insert(&self, event: SequencedEvent) -> Result<(), StoreError> {
        let _span = sdci_obs::trace::child("store.seg.insert");
        EventStore::insert(self, event).map_err(StoreError::from)
    }

    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        let mut span = sdci_obs::trace::child("store.seg.query");
        let events = EventStore::query(self, query);
        span.set_detail(|| format!("{} events", events.len()));
        events
    }

    fn stats(&self) -> StoreStats {
        EventStore::stats(self)
    }

    fn last_seq(&self) -> u64 {
        EventStore::last_seq(self)
    }

    fn len(&self) -> usize {
        EventStore::len(self)
    }
}

/// `SharedStore` remains the conventional spelling for an in-process
/// segmented store handle; assert it still satisfies every bound the
/// servers need.
#[allow(dead_code)]
fn _shared_store_is_a_backend(s: SharedStore) -> Arc<dyn EventBackend> {
    s
}
