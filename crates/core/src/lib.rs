//! The scalable Lustre monitor — the paper's primary contribution (§4).
//!
//! The monitor turns a Lustre filesystem's per-MDS ChangeLogs into a
//! single real-time stream of path-resolved file events that any
//! subscriber (a Ripple agent, a policy engine, an indexer) can consume:
//!
//! ```text
//!  MDT0 ChangeLog ──> Collector 0 ──┐
//!  MDT1 ChangeLog ──> Collector 1 ──┤  batches   ┌──────────────┐  feed  ┌──────────┐
//!  MDT2 ChangeLog ──> Collector 2 ──┼───────────>│  Aggregator  │───────>│ Consumer │
//!  MDT3 ChangeLog ──> Collector 3 ──┘ (push/pull)│ store + API  │        │ (Ripple) │
//!                                                └──────────────┘        └──────────┘
//! ```
//!
//! Three steps (§4):
//!
//! 1. **Detection** — one [`Collector`] per MDS extracts new records from
//!    its ChangeLog.
//! 2. **Processing** — FIDs "are not useful to external services" and are
//!    resolved to absolute paths (`fid2path`). This is the measured
//!    bottleneck (§5.2); the [`PathCache`] and batching implement the
//!    paper's proposed remediation.
//! 3. **Aggregation** — each Collector hands its batch, whole, to a
//!    bounded queue the [`Aggregator`] drains; it stores each batch in
//!    a rotating local [`EventStore`] and then publishes it to
//!    subscribed consumers; the store's query API gives consumers fault tolerance
//!    ([`EventConsumer`] uses it to backfill gaps).
//!
//! Collectors also purge their ChangeLogs as records are consumed, so the
//! log never accumulates stale events.
//!
//! Two execution modes share this code:
//!
//! * **Live mode** — [`MonitorCluster`] spawns real collector/aggregator
//!   threads joined by the same frame queue a deployed aggregator's TCP
//!   pull server feeds (a bounded `crossbeam_channel`: one frame per
//!   Collector batch, blocking when full, never shedding; ingest ends
//!   when its last sender is dropped); integration tests and the Ripple
//!   examples run this.
//! * **Modelled mode** — [`model::PipelineModel`] replays the same
//!   pipeline inside the discrete-event kernel with calibrated service
//!   times, reproducing the paper's throughput and overhead numbers
//!   (§5.2, Tables 2–3) deterministically in milliseconds.
//!
//! # Quickstart
//!
//! ```
//! use lustre_sim::{LustreConfig, LustreFs};
//! use sdci_core::{MonitorClusterBuilder, MonitorConfig};
//! use sdci_types::SimTime;
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//! use std::time::Duration;
//!
//! let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
//! let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs))
//!     .config(MonitorConfig::default())
//!     .start();
//! let mut consumer = cluster.subscribe();
//!
//! lfs.lock().create("/hello.dat", SimTime::EPOCH)?;
//! let event = consumer.next_timeout(Duration::from_secs(5)).expect("event");
//! assert_eq!(event.path, std::path::PathBuf::from("/hello.dat"));
//! cluster.shutdown();
//! # Ok::<(), lustre_sim::LustreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod cluster;
mod collector;
mod config;
mod consumer;
pub mod model;
mod pathcache;
mod resource;
mod store;

pub use aggregator::{
    Aggregator, AggregatorSnapshot, AggregatorStats, FeedMessage, SequencedEvent,
    INGEST_QUEUE_FRAMES,
};
pub use cluster::{ClusterStats, MonitorCluster, MonitorClusterBuilder};
pub use collector::{Collector, CollectorCheckpoint, CollectorStats};
pub use config::MonitorConfig;
pub use consumer::{ConsumerCursor, ConsumerStats, EventConsumer};
pub use pathcache::{CacheStats, PathCache};
pub use resource::{ComponentUsage, ResourceModel, ResourceReport};
pub use store::{
    restore_snapshot, EventBackend, EventStore, FlushStats, MeteredBackend, PathPrefix,
    PreparedQuery, SharedStore, SnapshotDir, StoreError, StoreOrderError, StoreQuery, StoreStack,
    StoreStats,
};

/// Replaces the file at `path` with what `write` produces, so that a
/// reader — or a restart after the process died at any instruction —
/// finds the old contents or the new, never a mix: the bytes go to
/// `<path>.tmp`, which is flushed and then renamed over `path`. A
/// failed `write` leaves `path` as it was and the `.tmp` behind for its
/// owner to sweep or overwrite. Nothing is `fsync`ed: the guarantee is
/// against process death (the crash model of DESIGN.md), not power loss.
fn write_atomically(
    path: &std::path::Path,
    write: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    write(&mut out)?;
    out.flush()?;
    drop(out);
    std::fs::rename(&tmp, path)
}
