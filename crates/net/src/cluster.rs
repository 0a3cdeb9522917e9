//! The sharded-tier fabric: shard-map distribution, collector-side
//! per-event routing, and the scatter-gather query front-end.
//!
//! A sharded deployment partitions the aggregator tier by the
//! [`ShardMap`] (see `sdci_core::cluster`): every role fetches the map
//! from the front-end's [`MapServer`], so all of them agree on who owns
//! which path root. Three pieces live here:
//!
//! * [`MapServer`] / [`fetch_map`] / [`add_shard`] — the map service.
//!   The server is the single writer of the map; `AddShard` bumps the
//!   version and every later `GetMap` returns the new table.
//! * [`ShardRouter`] — a collector-side publisher that keeps one
//!   [`TcpPush`] pipe per shard and routes each event by
//!   [`ShardMap::route_event`]. [`ShardRouter::update_map`] performs
//!   the cutover protocol: drain every in-flight push to the old
//!   owners first, and only then swap the table — a drain timeout
//!   leaves the old map in place so the caller can retry, which is
//!   what "the cutover is not acked" means on the wire.
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
    /// Client → server: send me the current shard map.
    GetMap,
    /// Server → client: the current map (also the reply to `AddShard`).
    Map {
        /// The versioned partition table.
        map: ShardMap,
    },
    /// Client → server: append a shard at `addr` and bump the version.
    AddShard {
        /// The new shard's address.
        addr: String,
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

/// The [`Handler`] for [`Service::Cluster`]: serves the authoritative
/// [`ShardMap`] over the wire.
///
/// The server is the map's single writer: `AddShard` requests are
/// serialized through its lock, each one producing a new version that
/// every subsequent `GetMap` (from any role) observes. Collectors poll
/// the map on reconnect; there is no push channel — a stale reader
/// keeps routing by its old map, which is consistent, just not yet
/// rebalanced.
pub struct MapServer {
    map: parking_lot::Mutex<ShardMap>,
    fetches: AtomicU64,
}

impl std::fmt::Debug for MapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapServer").finish_non_exhaustive()
    }
}

impl MapServer {
    /// A server whose first version of the map is `map`.
    pub fn new(map: ShardMap) -> Arc<Self> {
        Arc::new(MapServer { map: parking_lot::Mutex::new(map), fetches: AtomicU64::new(0) })
    }

    /// The current map.
    pub fn map(&self) -> ShardMap {
        self.map.lock().clone()
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
        serve_map_client(conn, &self.map, &self.fetches);
    }
}

fn serve_map_client(conn: Conn, map: &parking_lot::Mutex<ShardMap>, fetches: &AtomicU64) {
    let Conn { mut reader, mut writer, stop, .. } = conn;
    while !stop.load(Ordering::Relaxed) {
        match reader.read_msg::<ClusterRpc>() {
            Ok(ClusterRpc::GetMap) => {
                let current = map.lock().clone();
                fetches.fetch_add(1, Ordering::Relaxed);
                sdci_obs::static_metric!(counter, "sdci_cluster_map_fetches_total").inc();
                if write_msg(&mut writer, &ClusterRpc::Map { map: current }).is_err() {
                    return;
                }
            }
            Ok(ClusterRpc::AddShard { addr }) => {
                // The address is a peer's say-so: check it names a
                // socket *before* it enters the map, or the next
                // scatter re-fan over the map fails on it.
                if let Err(e) = parse_addr(&addr) {
                    sdci_obs::warn!("AddShard refused; closing the connection"; error = e.to_string());
                    return;
                }
                let updated = {
                    let mut guard = map.lock();
                    let next = guard.with_shard(addr.as_str());
                    *guard = next.clone();
                    next
                };
                sdci_obs::static_metric!(counter, "sdci_cluster_shards_added_total").inc();
                sdci_obs::info!("shard added to the map"; addr = addr, version = updated.version(),);
                if write_msg(&mut writer, &ClusterRpc::Map { map: updated }).is_err() {
                    return;
                }
            }
            Ok(ClusterRpc::Ping) => {
                if write_msg(&mut writer, &ClusterRpc::Ping).is_err() {
                    return;
                }
            }
            Ok(ClusterRpc::Map { .. }) => {} // nonsensical from a client; ignore
            // Map clients poll; idleness is fine.
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
    }
}

/// One-shot request/response against a [`MapServer`].
fn map_round_trip(addr: SocketAddr, cfg: &NetConfig, req: &ClusterRpc) -> io::Result<ShardMap> {
    let (mut reader, mut writer) = dial(cfg, addr, Service::Cluster)?;
    write_msg(&mut writer, req)?;
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

/// Fetches the current [`ShardMap`] from the [`MapServer`] at `addr`.
///
/// # Errors
///
/// Propagates connect and round-trip failures; the caller decides
/// whether to retry or keep routing by a previously fetched map.
pub fn fetch_map(addr: SocketAddr, cfg: &NetConfig) -> io::Result<ShardMap> {
    map_round_trip(addr, cfg, &ClusterRpc::GetMap)
}

/// Asks the [`MapServer`] at `addr` to append the shard at
/// `shard_addr`, returning the bumped map.
///
/// # Errors
///
/// Propagates connect and round-trip failures. The request is not
/// idempotent — on a timed-out reply the caller should `fetch_map`
/// before retrying.
pub fn add_shard(addr: SocketAddr, shard_addr: &str, cfg: &NetConfig) -> io::Result<ShardMap> {
    map_round_trip(addr, cfg, &ClusterRpc::AddShard { addr: shard_addr.to_string() })
}

// ---------------------------------------------------------------------------
// Collector-side routing
// ---------------------------------------------------------------------------

/// One live pipe to a shard, with its routing tally.
struct ShardPipe {
    id: ShardId,
    addr: String,
    push: TcpPush<FileEvent>,
    routed: Counter,
}

impl Clone for ShardPipe {
    fn clone(&self) -> Self {
        ShardPipe {
            id: self.id,
            addr: self.addr.clone(),
            push: self.push.clone(),
            routed: self.routed.clone(),
        }
    }
}

impl ShardPipe {
    fn connect(id: ShardId, addr: &str, client: &str, cfg: &NetConfig) -> io::Result<ShardPipe> {
        let socket = parse_addr(addr)?;
        // The per-shard client id keys the shard's dedup marks, so it
        // must be stable across reconnects *and* map versions.
        let push = TcpPush::connect(socket, format!("{client}@s{id}"), cfg.clone());
        let routed = sdci_obs::registry()
            .counter_with("sdci_cluster_routed_total", &[("shard", &id.to_string())]);
        Ok(ShardPipe { id, addr: addr.to_string(), push, routed })
    }
}

struct RouterState {
    map: ShardMap,
    pipes: Vec<ShardPipe>,
}

struct RouterInner {
    client: String,
    cfg: NetConfig,
    state: parking_lot::RwLock<RouterState>,
    cutovers: AtomicU64,
}

/// A collector-side event router over a sharded aggregator tier.
///
/// Maintains one lossless [`TcpPush`] pipe per shard and routes every
/// published event to its owner by [`ShardMap::route_event`]. Clones
/// share the pipes and the map, so a multi-threaded collector routes
/// consistently.
///
/// Map changes go through [`ShardRouter::update_map`], which implements
/// the drain-before-cutover protocol; see the module docs.
pub struct ShardRouter {
    inner: Arc<RouterInner>,
}

impl Clone for ShardRouter {
    fn clone(&self) -> Self {
        ShardRouter { inner: Arc::clone(&self.inner) }
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.read();
        f.debug_struct("ShardRouter")
            .field("client", &self.inner.client)
            .field("version", &state.map.version())
            .field("shards", &state.pipes.len())
            .finish()
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
            .map(|s| ShardPipe::connect(s.id, &s.addr, &client, &cfg))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardRouter {
            inner: Arc::new(RouterInner {
                client,
                cfg,
                state: parking_lot::RwLock::new(RouterState { map, pipes }),
                cutovers: AtomicU64::new(0),
            }),
        })
    }

    /// The version of the map currently routing traffic.
    pub fn map_version(&self) -> u64 {
        self.inner.state.read().map.version()
    }

    /// Completed map cutovers.
    pub fn cutovers(&self) -> u64 {
        self.inner.cutovers.load(Ordering::Relaxed)
    }

    /// Events routed to each shard so far, in slot order.
    pub fn routed(&self) -> Vec<(ShardId, u64)> {
        self.inner.state.read().pipes.iter().map(|p| (p.id, p.routed.get())).collect()
    }

    /// Waits until every routed event has been acknowledged by its
    /// shard, or `timeout` elapses. Returns `true` when fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let pipes: Vec<TcpPush<FileEvent>> =
            self.inner.state.read().pipes.iter().map(|p| p.push.clone()).collect();
        pipes.iter().all(|p| p.drain(deadline.saturating_duration_since(Instant::now())))
    }

    /// Applies a new shard map with the drain-before-cutover protocol:
    ///
    /// 1. Every pipe of the *current* map is drained — the old owners
    ///    must acknowledge all in-flight pushes first.
    /// 2. Under the routing lock (no concurrent publishes), stragglers
    ///    are drained with whatever deadline remains.
    /// 3. The table is swapped. Pipes whose shard survives unchanged
    ///    (same id and address) are reused, keeping their dedup state;
    ///    new shards get fresh pipes.
    ///
    /// A map that is not newer than the current one is a no-op. A drain
    /// timeout returns an error *without* swapping — the cutover is not
    /// acked, the router keeps the old map, and the caller retries once
    /// the stuck shard recovers.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the drain did not finish within `drain_timeout`;
    /// `InvalidInput` when a new shard's address does not parse.
    pub fn update_map(&self, new_map: ShardMap, drain_timeout: Duration) -> io::Result<()> {
        if new_map.version() <= self.inner.state.read().map.version() {
            return Ok(());
        }
        // Cutovers are rare, operator-relevant moments: trace each one
        // as its own root so drain stalls show up on `/tracez`.
        let mut cutover_span = sdci_obs::trace::root("router.cutover");
        cutover_span.set_detail(|| format!("to v{}", new_map.version()));
        let deadline = Instant::now() + drain_timeout;
        // Bulk of the drain happens outside the write lock so publishers
        // are not stalled while the old owners catch up.
        if !self.drain(drain_timeout) {
            sdci_obs::static_metric!(counter, "sdci_cluster_cutover_drain_timeouts_total").inc();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "cutover not acked: old shard owners did not drain in time",
            ));
        }
        let mut state = self.inner.state.write();
        if new_map.version() <= state.map.version() {
            return Ok(()); // another clone won the race
        }
        // Publishers clone a pipe handle under the read lock and send
        // after releasing it, so a few stragglers may have queued since
        // the drain above; finish them under the write lock, where no
        // new sends can start.
        for pipe in &state.pipes {
            if !pipe.push.drain(deadline.saturating_duration_since(Instant::now())) {
                sdci_obs::static_metric!(counter, "sdci_cluster_cutover_drain_timeouts_total")
                    .inc();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "cutover not acked: old shard owners did not drain in time",
                ));
            }
        }
        let mut pipes = Vec::with_capacity(new_map.shards().len());
        for shard in new_map.shards() {
            match state.pipes.iter().find(|p| p.id == shard.id && p.addr == shard.addr) {
                Some(existing) => pipes.push(existing.clone()),
                None => pipes.push(ShardPipe::connect(
                    shard.id,
                    &shard.addr,
                    &self.inner.client,
                    &self.inner.cfg,
                )?),
            }
        }
        sdci_obs::info!("shard map cutover applied"; from = state.map.version(), to = new_map.version(), shards = pipes.len(),);
        sdci_obs::static_metric!(counter, "sdci_cluster_cutovers_total").inc();
        self.inner.cutovers.fetch_add(1, Ordering::Relaxed);
        state.map = new_map;
        state.pipes = pipes;
        Ok(())
    }
}

/// Routing is where a `ShardRouter` stands in for a collector's
/// publisher: the topic is dropped (the push leg is point-to-point)
/// and the shard map picks the pipe.
impl Publish<FileEvent> for ShardRouter {
    fn publish(&self, _topic: &str, mut payload: FileEvent) -> PublishOutcome {
        // Clone the pipe handle out of the lock: `send` blocks on
        // backpressure, and a blocked reader must not starve a cutover
        // waiting for the write lock.
        let (push, routed, shard) = {
            let state = self.inner.state.read();
            let idx = state.map.route_index(&payload.path, payload.target);
            let pipe = &state.pipes[idx];
            (pipe.push.clone(), pipe.routed.clone(), pipe.id)
        };
        // The routing decision is a traced hop: re-parent the event's
        // context under a `router.publish` span naming the chosen
        // shard, so the shard's ingest hangs under it in the trace.
        if let Some(t) = payload.trace.filter(|t| t.sampled) {
            let mut span =
                sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "router.publish");
            span.set_detail(|| format!("shard {shard}"));
            if let Some(sc) = span.context() {
                payload.trace = Some(TraceContext::sampled(sc.trace_id, sc.span_id));
            }
        }
        routed.inc();
        if push.send(payload) {
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

    /// Shards fanned out to.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
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
        for msg in [
            ClusterRpc::GetMap,
            ClusterRpc::Map { map },
            ClusterRpc::AddShard { addr: "127.0.0.1:7090".into() },
            ClusterRpc::Ping,
        ] {
            let json = serde_json::to_string(&msg).unwrap();
            let back: ClusterRpc = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }
    }
}
