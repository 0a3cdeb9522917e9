//! A minimal query RPC over the Aggregator's [`EventStore`].
//!
//! The in-process consumer backfills gaps by querying the store through
//! a shared [`SharedStore`](sdci_core::SharedStore) handle. A remote
//! consumer gets the same capability from [`RemoteStore`], a read-only
//! [`sdci_core::EventBackend`] that round-trips a [`StoreRpc::Query`]
//! to the Aggregator process's [`StoreServer`].
//!
//! The protocol is deliberately tiny: after the connection's hello, one
//! request frame, one response frame — a query is a dozen bytes of
//! varints, a reply a batch of members — in the same length-prefixed
//! binary framing as the rest of sdci-net. A connection's replies
//! continue one another as every batch frame does (`crate::wire`): the
//! server packs them through one encoder for the life of the connection,
//! so a reply's members are coded against the ones the replies before it
//! carried, and only that connection's reader decodes it. A reply is keyed by its
//! position — the members the replies before it carried since the last
//! fresh one — so a replayed one is a [`ContinuityGap`], which the client
//! skips; the first reply on a connection, and one after an empty reply,
//! are fresh, and a redial starts both sides fresh.
//! Failure semantics follow [`EventBackend::query`]'s contract — a
//! query that cannot be answered returns an empty slice, and the
//! consumer simply retries at the next heartbeat-detected gap.
//!
//! [`ContinuityGap`]: crate::wire::ContinuityGap
//! [`EventStore`]: sdci_core::EventStore

use crate::conn::NetConfig;
use crate::endpoint::{dial, Conn, Handler};
use crate::faulted::FaultedWriter;
use crate::wire::{
    bin_header, continuity_gap, put_control, read_batch, read_control, timed_out, write_msg_bin,
    BatchHead, BinEncoder, FrameReader, Service, WireMsg, BIN_FLAG_TRACE, BIN_KIND_PING,
    BIN_KIND_QUERY, STORE_KINDS,
};
use sdci_core::{EventBackend, SequencedEvent, StoreError, StoreQuery};
use sdci_types::bin::{
    put_bytes, put_varint, BinDecodeError, BinReader, Class, History, MAX_PATH_LEN,
};
use sdci_types::{SimTime, TraceContext};
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

/// Query presence bits: which of a [`StoreQuery`]'s optional fields a
/// query body carries, in this order, before its limit.
const HAS_AFTER_SEQ: u8 = 1;
const HAS_SINCE: u8 = 2;
const HAS_PREFIX: u8 = 4;

/// Appends `query` as a query body: the header (with `trace`'s section
/// when there is one), a presence byte, each field present as a varint —
/// the prefix as its UTF-8 length and bytes — and the limit.
///
/// # Errors
///
/// `InvalidInput`, before a byte is appended, for a prefix that is not
/// UTF-8 or is longer than [`MAX_PATH_LEN`]: no reader would accept it.
fn put_query(
    buf: &mut Vec<u8>,
    query: &StoreQuery,
    trace: Option<TraceContext>,
) -> std::io::Result<()> {
    let prefix = match query.path_prefix.as_deref().map(|prefix| prefix.to_str()) {
        None => None,
        Some(Some(prefix)) if prefix.len() <= MAX_PATH_LEN => Some(prefix),
        Some(_) => {
            let why = format!("a query prefix must be UTF-8 of at most {MAX_PATH_LEN} bytes");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
    };
    bin_header(buf, BIN_KIND_QUERY, trace);
    let bit = |present: bool, bit: u8| if present { bit } else { 0 };
    buf.push(
        bit(query.after_seq.is_some(), HAS_AFTER_SEQ)
            | bit(query.since.is_some(), HAS_SINCE)
            | bit(prefix.is_some(), HAS_PREFIX),
    );
    if let Some(after_seq) = query.after_seq {
        put_varint(buf, after_seq);
    }
    if let Some(since) = query.since {
        put_varint(buf, since.as_nanos());
    }
    if let Some(prefix) = prefix {
        put_bytes(buf, prefix.as_bytes());
    }
    put_varint(buf, query.limit as u64);
    Ok(())
}

/// Reads a query body's fields after its kind and flags: the inverse of
/// [`put_query`]. Presence bits it does not know, a prefix longer than
/// [`MAX_PATH_LEN`] or not UTF-8, and a limit past `usize` are refused.
fn read_query(r: &mut BinReader<'_>, flags: u8) -> Result<StoreRpc, BinDecodeError> {
    let trace = if flags & BIN_FLAG_TRACE != 0 { Some(r.trace()?) } else { None };
    let presence = r.u8(Class::Other)?;
    if presence & !(HAS_AFTER_SEQ | HAS_SINCE | HAS_PREFIX) != 0 {
        return Err(BinDecodeError::msg(format!("unknown query presence bits {presence:#x}")));
    }
    let mut query = StoreQuery::default();
    if presence & HAS_AFTER_SEQ != 0 {
        query.after_seq = Some(r.varint(Class::Other)?);
    }
    if presence & HAS_SINCE != 0 {
        query.since = Some(SimTime::from_nanos(r.varint(Class::Other)?));
    }
    if presence & HAS_PREFIX != 0 {
        let len = r.length(Class::Other)?;
        if len > MAX_PATH_LEN {
            let why = format!("a query prefix of {len} bytes exceeds {MAX_PATH_LEN}");
            return Err(BinDecodeError::msg(why));
        }
        let prefix = std::str::from_utf8(r.bytes(len)?).map_err(BinDecodeError::msg)?;
        query.path_prefix = Some(prefix.into());
    }
    query.limit = usize::try_from(r.varint(Class::Other)?).map_err(BinDecodeError::msg)?;
    Ok(StoreRpc::Query { query, trace })
}

/// Every message is binary: the query and the ping are control frames of
/// a few bytes, and the reply is a batch, which — packed through the
/// connection's encoder — continues the replies before it.
impl WireMsg for StoreRpc {
    fn encode(&self, enc: &mut BinEncoder, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self {
            StoreRpc::Batch { events } => enc.pack_frame(buf, BatchHead::Position, events, None),
            StoreRpc::Query { query, trace } => put_query(buf, query, *trace)?,
            StoreRpc::Ping => put_control(buf, BIN_KIND_PING, None),
        }
        Ok(())
    }

    fn decode_in(body: &[u8], history: Option<&mut History>) -> std::io::Result<Self> {
        match body.first() {
            Some(&BIN_KIND_QUERY) => {
                read_control(body, BIN_FLAG_TRACE, |_, flags, r| read_query(r, flags))
            }
            Some(&BIN_KIND_PING) => read_control(body, 0, |_, _, _| Ok(StoreRpc::Ping)),
            _ => {
                let (_, _, events) = read_batch(body, STORE_KINDS, history)?;
                Ok(StoreRpc::Batch { events })
            }
        }
    }
}

/// The [`Handler`] for [`Service::Store`]: serves [`StoreRpc`] queries
/// against any [`EventBackend`] — in a deployment, the aggregator's
/// [`SharedStore`](sdci_core::SharedStore).
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
    // Per-connection scratch for every frame it writes, reused across
    // queries, and the history every reply after the first continues.
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
                if write_msg_bin(&mut writer, &mut enc, &StoreRpc::Ping).is_err() {
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
/// sequence numbers strictly ascend: a store answers each retained event
/// once, in seq order, so a repeated or descending seq is no answer.
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
    events.iter().all(|e| query.matches(e)) && events.windows(2).all(|w| w[0].seq < w[1].seq)
}

/// An established store-RPC connection: faulted write half, the scratch
/// its queries are written through, and resumable read half.
struct StoreConn {
    writer: FaultedWriter<TcpStream>,
    enc: BinEncoder,
    reader: FrameReader<TcpStream>,
}

/// A read-only [`EventBackend`] that queries a remote [`StoreServer`].
///
/// The connection is lazy and cached; a failed round trip drops it,
/// retries once on a fresh connection — whose replies, and its reader's
/// history, start fresh — and then gives up with an empty result — the
/// consumer's backfill loop will simply query again.
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
            Ok((reader, writer)) => Some(StoreConn { writer, enc: BinEncoder::new(), reader }),
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
    /// [`EventBackend::query`], whose callers keep the empty-on-failure
    /// contract.
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
        let request = StoreRpc::Query { query: query.clone(), trace };
        write_msg_bin(&mut conn.writer, &mut conn.enc, &request)?;
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
                Err(e) if continuity_gap(&e).is_some_and(|gap| gap.is_duplicate()) => {
                    // A reply read already, delivered again: it continued
                    // the replies before it, so its position is behind
                    // where this connection's history ends. The reader
                    // skipped it and kept its history, and the stream is
                    // still aligned — a stray like a stale `Batch`. Any
                    // other gap means a reply was lost, and no later one
                    // can be read on this connection: it is dropped below.
                    strays += 1;
                    if strays > MAX_STRAY_REPLIES {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "store reply stream flooded with replayed replies",
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
