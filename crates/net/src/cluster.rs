//! The sharded-tier fabric: shard-map distribution, collector-side
//! per-event routing, and the scatter-gather query front-end.
//!
//! A sharded deployment partitions the aggregator tier by the
//! [`ShardMap`] (see `sdci_core::cluster`): every role fetches the map
//! from the front-end's [`MapServer`], so all of them agree on who owns
//! which path root. The map is fixed when the front starts; changing
//! the roster means restarting the tier. Three pieces live here:
//!
//! * [`MapServer`] / [`fetch_map`] — the map service: `GetMap` returns
//!   the one map the front was started with.
//! * [`ShardRouter`] — a collector-side publisher that keeps one
//!   [`TcpPush`] pipe per shard and routes each event by
//!   [`ShardMap::route_event`].
//! * [`ScatterStore`] — a read-only [`EventBackend`] that fans a query out to
//!   every shard's store RPC, merges the legs in sequence order, and
//!   answers even when some shards are down (a *degraded* result,
//!   counted per shard), so `RemoteStore` consumers still see one
//!   logical store.
//!
//! Shards keep independent sequence spaces, so the merged stream is
//! ordered by `(seq, shard slot)` — within one shard (and therefore
//! within one path root) order is exact, across shards it is a stable
//! interleave.

use crate::conn::NetConfig;
use crate::endpoint::{dial, Conn, Handler};
use crate::pipe::TcpPush;
use crate::store_rpc::RemoteStore;
use crate::wire::{
    invalid, json_decode, json_encode, timed_out, write_msg, BinEncoder, Service, WireMsg,
};
use sdci_core::{
    merge_seq_ordered, EventBackend, SequencedEvent, ShardId, ShardMap, StoreError, StoreQuery,
};
use sdci_mq::transport::{Publish, PublishOutcome};
use sdci_obs::metrics::Counter;
use sdci_types::{FileEvent, TraceContext};
use serde::{Deserialize, Serialize};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cluster-RPC message; requests and responses share the enum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterRpc {
    /// Client → server: send me the shard map.
    GetMap,
    /// Server → client: the shard map.
    Map {
        /// The partition table.
        map: ShardMap,
    },
    /// Liveness probe; the server echoes it.
    Ping,
}

/// Map-service traffic is rare, tiny control plane — all of it is
/// JSON, so `nc` against a map server works.
impl WireMsg for ClusterRpc {
    fn encode(&self, _enc: &mut BinEncoder, buf: &mut Vec<u8>) -> io::Result<bool> {
        json_encode(self, buf).map(|()| false)
    }

    fn decode(binary: bool, body: &[u8]) -> io::Result<Self> {
        if binary {
            return Err(invalid("ClusterRpc has no binary form"));
        }
        json_decode(body)
    }
}

fn parse_addr(base: &str) -> io::Result<SocketAddr> {
    base.parse().map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("shard addr {base:?}: {e}"))
    })
}

// ---------------------------------------------------------------------------
// Map service
// ---------------------------------------------------------------------------

/// The [`Handler`] for [`Service::Cluster`]: serves the tier's
/// [`ShardMap`] over the wire. The map is the one the front was started
/// with; no request changes it.
pub struct MapServer {
    map: ShardMap,
    fetches: AtomicU64,
}

impl std::fmt::Debug for MapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapServer").finish_non_exhaustive()
    }
}

impl MapServer {
    /// A server of `map`.
    pub fn new(map: ShardMap) -> Arc<Self> {
        Arc::new(MapServer { map, fetches: AtomicU64::new(0) })
    }

    /// The map served.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// `GetMap` requests answered so far.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl Handler for MapServer {
    fn services(&self) -> &'static [&'static str] {
        &["cluster"]
    }

    fn serve(&self, _service: Service, conn: Conn) {
        let Conn { mut reader, mut writer, stop, .. } = conn;
        while !stop.load(Ordering::Relaxed) {
            let reply = match reader.read_msg::<ClusterRpc>() {
                Ok(ClusterRpc::GetMap) => {
                    self.fetches.fetch_add(1, Ordering::Relaxed);
                    sdci_obs::static_metric!(counter, "sdci_cluster_map_fetches_total").inc();
                    ClusterRpc::Map { map: self.map.clone() }
                }
                Ok(ClusterRpc::Ping) => ClusterRpc::Ping,
                Ok(ClusterRpc::Map { .. }) => continue, // nonsensical from a client; ignore
                // Map clients ask once; idleness is fine.
                Err(e) if timed_out(&e) => continue,
                // Anything that does not decode — a message this
                // service does not know included — closes the connection.
                Err(_) => return,
            };
            if write_msg(&mut writer, &reply).is_err() {
                return;
            }
        }
    }
}

/// Fetches the [`ShardMap`] from the [`MapServer`] at `addr`.
///
/// # Errors
///
/// Propagates connect and round-trip failures, and `InvalidData` for a
/// reply that is not a map — one with no shard included.
pub fn fetch_map(addr: SocketAddr, cfg: &NetConfig) -> io::Result<ShardMap> {
    let (mut reader, mut writer) = dial(cfg, addr, Service::Cluster)?;
    write_msg(&mut writer, &ClusterRpc::GetMap)?;
    let deadline = Instant::now() + cfg.liveness;
    loop {
        match reader.read_msg::<ClusterRpc>() {
            Ok(ClusterRpc::Map { map }) => return Ok(map),
            Ok(_) => {} // a stray Ping echo; keep waiting
            Err(e) if timed_out(&e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "map request exceeded the liveness window",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Collector-side routing
// ---------------------------------------------------------------------------

/// One live pipe to a shard, with this router's tally of events sent
/// down it.
struct ShardPipe {
    id: ShardId,
    push: TcpPush<FileEvent>,
    routed: AtomicU64,
}

struct RouterInner {
    map: ShardMap,
    pipes: Vec<ShardPipe>,
}

/// A collector-side event router over a sharded aggregator tier.
///
/// Maintains one lossless [`TcpPush`] pipe per shard and routes every
/// published event to its owner by [`ShardMap::route_event`]. The map
/// is fixed for the router's life, so routing takes no lock. Clones
/// share the pipes, so a multi-threaded collector routes consistently.
#[derive(Clone)]
pub struct ShardRouter {
    inner: Arc<RouterInner>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter").field("shards", &self.inner.pipes.len()).finish()
    }
}

impl ShardRouter {
    /// Connects one supervised pipe to every shard in `map`. `client`
    /// is the stable collector identity; each pipe extends it with the
    /// shard id (`"{client}@s{id}"`) so per-shard dedup marks never
    /// collide.
    ///
    /// # Errors
    ///
    /// Fails only on an unparseable shard address — connecting itself
    /// is supervised and happens in the background.
    pub fn connect(map: ShardMap, client: impl Into<String>, cfg: NetConfig) -> io::Result<Self> {
        let client = client.into();
        let pipes = map
            .shards()
            .iter()
            .map(|s| {
                // The per-shard client id keys the shard's dedup marks,
                // so it must be stable across reconnects.
                let push = TcpPush::connect(
                    parse_addr(&s.addr)?,
                    format!("{client}@s{}", s.id),
                    cfg.clone(),
                );
                Ok(ShardPipe { id: s.id, push, routed: AtomicU64::new(0) })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardRouter { inner: Arc::new(RouterInner { map, pipes }) })
    }

    /// Events routed to each shard so far, in slot order.
    pub fn routed(&self) -> Vec<(ShardId, u64)> {
        self.inner.pipes.iter().map(|p| (p.id, p.routed.load(Ordering::Relaxed))).collect()
    }

    /// Waits until every routed event has been acknowledged by its
    /// shard, or `timeout` elapses. Returns `true` when fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.inner
            .pipes
            .iter()
            .all(|p| p.push.drain(deadline.saturating_duration_since(Instant::now())))
    }
}

/// Routing is where a `ShardRouter` stands in for a collector's
/// publisher: the topic is dropped (the push leg is point-to-point)
/// and the shard map picks the pipe.
impl Publish<FileEvent> for ShardRouter {
    fn publish(&self, _topic: &str, mut payload: FileEvent) -> PublishOutcome {
        let pipe = &self.inner.pipes[self.inner.map.route_index(&payload.path, payload.target)];
        // The routing decision is a traced hop: re-parent the event's
        // context under a `router.publish` span naming the chosen
        // shard, so the shard's ingest hangs under it in the trace.
        if let Some(t) = payload.trace.filter(|t| t.sampled) {
            let mut span =
                sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "router.publish");
            span.set_detail(|| format!("shard {}", pipe.id));
            if let Some(sc) = span.context() {
                payload.trace = Some(TraceContext::sampled(sc.trace_id, sc.span_id));
            }
        }
        pipe.routed.fetch_add(1, Ordering::Relaxed);
        if pipe.push.send(payload) {
            PublishOutcome::Queued
        } else {
            PublishOutcome::Shed
        }
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather query front-end
// ---------------------------------------------------------------------------

/// One shard's leg of the scatter: its remote store and error tally.
struct ScatterShard {
    id: ShardId,
    remote: RemoteStore,
    errors: AtomicU64,
    error_metric: Counter,
}

struct ScatterInner {
    shards: Vec<ScatterShard>,
    degraded: AtomicU64,
}

/// A read-only store over a sharded tier: fans each query out to every
/// shard's store RPC, merges the legs with
/// [`merge_seq_ordered`], and keeps answering when shards fail.
///
/// A query with failed legs still returns the events the live shards
/// hold — *degraded but answered* — and the failure is visible in
/// [`ScatterStore::degraded`] and the per-shard
/// [`ScatterStore::shard_errors`] counters rather than in the result.
/// This preserves the [`EventBackend::query`] contract consumers already build
/// on: an incomplete backfill surfaces as a sequence gap on the next
/// heartbeat and is retried, exactly like a missed query against a
/// single store.
pub struct ScatterStore {
    inner: Arc<ScatterInner>,
}

impl Clone for ScatterStore {
    fn clone(&self) -> Self {
        ScatterStore { inner: Arc::clone(&self.inner) }
    }
}

impl std::fmt::Debug for ScatterStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterStore").field("shards", &self.inner.shards.len()).finish()
    }
}

impl ScatterStore {
    /// A scatter front over explicit `(shard id, address)` pairs.
    /// Connections are lazy, per shard, and cached.
    pub fn new(shards: Vec<(ShardId, SocketAddr)>, cfg: NetConfig) -> Self {
        let shards = shards
            .into_iter()
            .map(|(id, addr)| ScatterShard {
                id,
                remote: RemoteStore::connect(addr, cfg.clone()),
                errors: AtomicU64::new(0),
                error_metric: sdci_obs::registry().counter_with(
                    "sdci_cluster_shard_query_errors_total",
                    &[("shard", &id.to_string())],
                ),
            })
            .collect();
        ScatterStore { inner: Arc::new(ScatterInner { shards, degraded: AtomicU64::new(0) }) }
    }

    /// A scatter front over every shard in `map`, querying each at the
    /// address the map gives it.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidInput` when a shard address does not parse.
    pub fn from_map(map: &ShardMap, cfg: NetConfig) -> io::Result<Self> {
        let shards = map
            .shards()
            .iter()
            .map(|s| Ok((s.id, parse_addr(&s.addr)?)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ScatterStore::new(shards, cfg))
    }

    /// Queries that lost at least one leg and returned a partial merge.
    pub fn degraded(&self) -> u64 {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Failed query legs per shard, in slot order.
    pub fn shard_errors(&self) -> Vec<(ShardId, u64)> {
        self.inner.shards.iter().map(|s| (s.id, s.errors.load(Ordering::Relaxed))).collect()
    }
}

/// The scatter front is a read-only [`EventBackend`]: a shard tier is
/// "just another backend" to whatever serves it (the
/// [`StoreServer`](crate::StoreServer) on a front node).
/// Writes are refused — events reach shards through per-shard push
/// pipelines, routed by the [`ShardRouter`].
impl EventBackend for ScatterStore {
    fn insert_batch(&self, _events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        Err(StoreError::ReadOnly("ScatterStore"))
    }

    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        // The fan-out span nests under whatever is current (e.g. the
        // front node's `store_rpc.serve`); its context is captured
        // *before* the scope because worker threads have their own
        // thread-local current, and re-established per leg below.
        let mut scatter_span = sdci_obs::trace::child("scatter.query");
        scatter_span.set_detail(|| format!("{} shards", self.inner.shards.len()));
        let parent = scatter_span.context();
        // One scoped thread per shard: the fan-out is bounded by the
        // slowest live leg, not the sum, and a dead shard costs one
        // liveness window instead of failing the query.
        let legs: Vec<io::Result<Vec<SequencedEvent>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inner
                .shards
                .iter()
                .map(|shard| {
                    scope.spawn(move || {
                        // Per-shard child span, current for this worker
                        // thread so the RemoteStore round trip carries
                        // it to the shard's store RPC.
                        let mut leg = parent.map(|p| {
                            sdci_obs::trace::child_of(p.trace_id, p.span_id, "scatter.shard")
                        });
                        if let Some(span) = leg.as_mut() {
                            span.set_detail(|| format!("shard {}", shard.id));
                        }
                        shard.remote.try_query(query)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err(io::Error::other("scatter leg panicked"))))
                .collect()
        });
        let mut parts = Vec::with_capacity(legs.len());
        let mut failed = 0usize;
        for (shard, leg) in self.inner.shards.iter().zip(legs) {
            match leg {
                Ok(events) => parts.push(events),
                Err(e) => {
                    failed += 1;
                    shard.errors.fetch_add(1, Ordering::Relaxed);
                    shard.error_metric.inc();
                    sdci_obs::warn!("scatter query leg failed; answering degraded"; shard = shard.id, error = e.to_string(),);
                }
            }
        }
        if failed > 0 {
            self.inner.degraded.fetch_add(1, Ordering::Relaxed);
            sdci_obs::static_metric!(counter, "sdci_cluster_degraded_queries_total").inc();
        }
        merge_seq_ordered(parts, query.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_rpc_round_trips() {
        let map = ShardMap::new(["127.0.0.1:7070", "127.0.0.1:7080"]);
        for msg in [ClusterRpc::GetMap, ClusterRpc::Map { map }, ClusterRpc::Ping] {
            let json = serde_json::to_string(&msg).unwrap();
            let back: ClusterRpc = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }
    }
}
