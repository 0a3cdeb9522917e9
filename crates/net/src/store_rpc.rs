//! A minimal query RPC over the Aggregator's [`EventStore`].
//!
//! The in-process consumer backfills gaps by querying the store through
//! a shared [`SharedStore`](sdci_core::SharedStore) handle. A remote
//! consumer gets the same capability from [`RemoteStore`], a read-only
//! [`sdci_core::EventBackend`] that round-trips a [`StoreRpc::Query`]
//! to the Aggregator process's [`StoreServer`].
//!
//! The protocol is deliberately tiny: after the connection's hello, one
//! JSON request frame, one binary response frame, same length-prefixed
//! framing as the rest of sdci-net.
//! Failure semantics follow [`EventBackend::query`]'s contract — a
//! query that cannot be answered returns an empty slice, and the
//! consumer simply retries at the next heartbeat-detected gap.
//!
//! [`EventStore`]: sdci_core::EventStore

use crate::conn::NetConfig;
use crate::endpoint::{dial, Conn, Handler};
use crate::faulted::FaultedWriter;
use crate::wire::{
    bin_read_header, invalid, json_decode, json_encode, read_all, timed_out, write_msg,
    write_msg_bin, BatchHead, BinEncoder, FrameReader, Service, WireMsg, BIN_KIND_STORE_BATCH,
};
use sdci_core::{EventBackend, SequencedEvent, StoreError, StoreQuery};
use sdci_types::TraceContext;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One store-RPC message; requests and responses share the enum.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRpc {
    /// Consumer → server: run this query against the store.
    Query {
        /// The query to run.
        query: StoreQuery,
        /// Caller's trace context, when the query runs under a sampled
        /// span — the server parents its `store_rpc.serve` span under
        /// it; a missing key reads as `None`.
        trace: Option<TraceContext>,
    },
    /// Server → consumer: the matching events, in sequence order.
    Batch {
        /// Query results.
        events: Vec<SequencedEvent>,
    },
    /// Liveness probe; the server echoes it.
    Ping,
}

/// The JSON form of [`StoreRpc`]'s control vocabulary. `Batch` is
/// deliberately absent: a JSON body naming it is `InvalidData`.
#[derive(Serialize, Deserialize)]
enum Control {
    Query { query: StoreQuery, trace: Option<TraceContext> },
    Ping,
}

/// The bulky reply leg is the data frame: `Batch` travels binary,
/// while the tiny `Query`/`Ping` control frames are JSON.
impl WireMsg for StoreRpc {
    fn encode(&self, enc: &mut BinEncoder, buf: &mut Vec<u8>) -> std::io::Result<bool> {
        let control = match self {
            StoreRpc::Batch { events } => {
                enc.pack_frame(buf, BatchHead::Empty, events, None);
                return Ok(true);
            }
            StoreRpc::Query { query, trace } => {
                Control::Query { query: query.clone(), trace: *trace }
            }
            StoreRpc::Ping => Control::Ping,
        };
        json_encode(&control, buf)?;
        Ok(false)
    }

    fn decode(binary: bool, body: &[u8]) -> std::io::Result<Self> {
        if !binary {
            return Ok(match json_decode(body)? {
                Control::Query { query, trace } => StoreRpc::Query { query, trace },
                Control::Ping => StoreRpc::Ping,
            });
        }
        let mut r = sdci_types::BinReader::new(body);
        let (kind, trace, _) = bin_read_header(&mut r)?;
        if kind != BIN_KIND_STORE_BATCH {
            return Err(invalid(format!("unknown binary store-RPC kind {kind}")));
        }
        if trace.is_some() {
            return Err(invalid("store-RPC batch replies carry no trace section"));
        }
        Ok(StoreRpc::Batch { events: read_all(&mut r)? })
    }
}

/// The [`Handler`] for [`Service::Store`]: serves [`StoreRpc`] queries
/// against any [`EventBackend`] — a local
/// [`SharedStore`](sdci_core::SharedStore) in the single-aggregator
/// deployment, or a [`ScatterStore`](crate::cluster::ScatterStore)
/// fronting a sharded tier.
pub struct StoreServer {
    store: Box<dyn EventBackend>,
    queries: AtomicU64,
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer").finish_non_exhaustive()
    }
}

impl StoreServer {
    /// A server answering queries against `store`.
    pub fn new(store: impl EventBackend + 'static) -> Arc<Self> {
        Arc::new(StoreServer { store: Box::new(store), queries: AtomicU64::new(0) })
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

impl Handler for StoreServer {
    fn services(&self) -> &'static [&'static str] {
        &["store"]
    }

    fn serve(&self, _service: Service, conn: Conn) {
        serve_store_client(conn, &*self.store, &self.queries);
    }
}

fn serve_store_client(conn: Conn, store: &dyn EventBackend, queries: &AtomicU64) {
    let Conn { mut reader, mut writer, stop, .. } = conn;
    // Per-connection scratch for binary replies; reused across queries.
    let mut enc = BinEncoder::new();
    // `stop` is checked every iteration so a chatty client cannot pin
    // the handler past shutdown.
    while !stop.load(Ordering::Relaxed) {
        match reader.read_msg::<StoreRpc>() {
            Ok(StoreRpc::Query { query, trace }) => {
                // The serve span becomes the thread's current context,
                // so the store's own spans (meter, segment scan) nest
                // under it without plumbing.
                let mut serve_span = trace.filter(|t| t.sampled).map(|t| {
                    sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "store_rpc.serve")
                });
                let events = store.query(&query);
                if let Some(span) = serve_span.as_mut() {
                    span.set_detail(|| format!("{} events", events.len()));
                }
                drop(serve_span);
                queries.fetch_add(1, Ordering::Relaxed);
                // Reply-path crash point: the query has run but the
                // reply has not been written. Error mode costs this one
                // connection (the client redials and retries); abort
                // mode kills the process mid-reply for the chaos
                // harness's restart/re-query coverage.
                if sdci_faults::crash_point("net.store_rpc.reply").is_err() {
                    return;
                }
                if write_msg_bin(&mut writer, &mut enc, &StoreRpc::Batch { events }).is_err() {
                    return;
                }
            }
            Ok(StoreRpc::Ping) => {
                if write_msg(&mut writer, &StoreRpc::Ping).is_err() {
                    return;
                }
            }
            Ok(StoreRpc::Batch { .. }) => {} // nonsensical from a client; ignore
            // Store clients are request/response; idleness is fine.
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
    }
}

/// Non-`Batch` frames tolerated per round trip before the reply stream
/// is declared garbage. One in-flight `Ping` echo is legitimate; a peer
/// streaming junk must not wedge the consumer forever.
const MAX_STRAY_REPLIES: u32 = 8;

/// Whether `events` is a plausible reply to `query`: every event
/// satisfies the query's constraints, the batch respects its limit, and
/// sequence numbers never descend (every store answers in seq order,
/// but a scatter front merges shards with *independent* seq spaces, so
/// a merged reply may repeat a seq — strict ascent would reject it).
/// The store RPC has no request ids, so this range check is the
/// reply-correlation mechanism: a stale reply duplicated by a faulted
/// link fails it (its events predate the new query's `after_seq`) and
/// is skipped rather than delivered as the answer to the wrong query.
/// An empty batch is always plausible — it is what a rotated-out range
/// legitimately returns, and the consumer's bounded retry already
/// treats it as non-authoritative.
fn batch_answers(query: &StoreQuery, events: &[SequencedEvent]) -> bool {
    if query.limit > 0 && events.len() > query.limit {
        return false;
    }
    let query = query.prepare();
    events.iter().all(|e| query.matches(e)) && events.windows(2).all(|w| w[0].seq <= w[1].seq)
}

/// An established store-RPC connection: faulted write half + resumable
/// read half.
struct StoreConn {
    writer: FaultedWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
}

/// A read-only [`EventBackend`] that queries a remote [`StoreServer`].
///
/// The connection is lazy and cached; a failed round trip drops it,
/// retries once on a fresh connection, and then gives up with an empty
/// result — the consumer's backfill loop will simply query again.
///
/// Connects are bounded by [`NetConfig::connect_timeout`] and happen
/// *outside* the connection cache's lock, so one black-holed aggregator
/// address cannot stall every concurrent querier behind one SYN that
/// the kernel retries for minutes.
pub struct RemoteStore {
    addr: SocketAddr,
    cfg: NetConfig,
    conn: parking_lot::Mutex<Option<StoreConn>>,
    failures: AtomicU64,
    connect_failures: AtomicU64,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore").field("addr", &self.addr).finish()
    }
}

impl RemoteStore {
    /// A reader for the store served at `addr`. Does not connect until
    /// the first query.
    pub fn connect(addr: SocketAddr, cfg: NetConfig) -> Self {
        RemoteStore {
            addr,
            cfg,
            conn: parking_lot::Mutex::new(None),
            failures: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
        }
    }

    /// Queries that exhausted their retry and returned empty.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Connection attempts that failed or timed out.
    pub fn connect_failures(&self) -> u64 {
        self.connect_failures.load(Ordering::Relaxed)
    }

    /// Dials the server with the configured connect timeout. Never
    /// called with the cache lock held.
    fn open(&self) -> Option<StoreConn> {
        match dial(&self.cfg, self.addr, Service::Store) {
            Ok((reader, writer)) => Some(StoreConn { writer, reader }),
            Err(e) => {
                self.connect_failures.fetch_add(1, Ordering::Relaxed);
                sdci_obs::static_metric!(counter, "sdci_net_store_connect_failures_total").inc();
                sdci_obs::debug!("store connect failed"; addr = self.addr, error = e.to_string());
                None
            }
        }
    }

    /// Runs `query` against the remote store, reporting failure instead
    /// of swallowing it — the error-aware twin of
    /// [`EventBackend::query`]. A scatter-gather front-end uses this to
    /// attribute a failed leg to its shard; plain consumers keep the
    /// empty-on-failure contract via the trait method.
    ///
    /// # Errors
    ///
    /// Returns the last transport error once both attempts (cached
    /// connection, then a fresh dial) are exhausted.
    pub fn try_query(&self, query: &StoreQuery) -> std::io::Result<Vec<SequencedEvent>> {
        let mut last_err = None;
        for attempt in 0..2 {
            // Take the cached connection *out* of the lock: the slow
            // parts (connect, round trip, retry sleep) must not
            // serialize concurrent queriers behind one dead peer.
            let cached = self.conn.lock().take();
            let mut conn = match cached.or_else(|| self.open()) {
                Some(conn) => conn,
                None => {
                    if attempt == 0 {
                        std::thread::sleep(self.cfg.retry.base);
                    }
                    continue;
                }
            };
            // On error the stale connection is dropped and the next
            // attempt dials fresh.
            match self.round_trip(&mut conn, query) {
                Ok(events) => {
                    // Another querier may have cached its own fresh
                    // connection meanwhile; last one wins, the loser is
                    // simply closed.
                    *self.conn.lock() = Some(conn);
                    return Ok(events);
                }
                Err(e) => last_err = Some(e),
            }
        }
        self.failures.fetch_add(1, Ordering::Relaxed);
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("store server {} is unreachable", self.addr),
            )
        }))
    }

    fn round_trip(
        &self,
        conn: &mut StoreConn,
        query: &StoreQuery,
    ) -> std::io::Result<Vec<SequencedEvent>> {
        // Carry the caller's sampled context (if any) so the server can
        // parent its serve span — the query leg of the distributed trace.
        let trace = sdci_obs::trace::current()
            .filter(|c| c.sampled)
            .map(|c| TraceContext::sampled(c.trace_id, c.span_id));
        write_msg(&mut conn.writer, &StoreRpc::Query { query: query.clone(), trace })?;
        let deadline = Instant::now() + self.cfg.liveness;
        let mut strays = 0u32;
        loop {
            match conn.reader.read_msg::<StoreRpc>() {
                Ok(StoreRpc::Batch { events }) if batch_answers(query, &events) => {
                    return Ok(events)
                }
                Ok(StoreRpc::Batch { .. }) => {
                    // A batch that cannot be an answer to *this* query —
                    // a faulted link replayed the reply to an earlier
                    // one. Requests and replies pair up strictly in
                    // order on this connection, so swallowing the stale
                    // frame and reading on re-aligns the stream; taking
                    // it at face value would hand the consumer events
                    // from the wrong range (surfacing as phantom loss
                    // or duplication in its gap accounting).
                    strays += 1;
                    if strays > MAX_STRAY_REPLIES {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "store reply stream flooded with stale Batch frames",
                        ));
                    }
                }
                Ok(_) => {
                    // A stray `Ping` echo is fine; an unbounded stream
                    // of non-`Batch` frames would wedge the consumer,
                    // so the tolerance is finite.
                    strays += 1;
                    if strays > MAX_STRAY_REPLIES {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "store reply stream flooded with non-Batch frames",
                        ));
                    }
                }
                Err(e) if timed_out(&e) => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "store query exceeded the liveness window",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The remote store is a read-only [`EventBackend`]: queries go over
/// the wire; writes are refused (events reach an aggregator's store
/// through the push pipeline, never through the query RPC); occupancy
/// (`stats`/`last_seq`/`len`) is unknowable from here and reports the
/// trait's zero defaults. A query that fails answers empty.
impl EventBackend for RemoteStore {
    fn insert_batch(&self, _events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        Err(StoreError::ReadOnly("RemoteStore"))
    }

    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        self.try_query(query).unwrap_or_default()
    }
}
