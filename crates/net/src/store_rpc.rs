//! A minimal query RPC over the Aggregator's [`EventStore`].
//!
//! The in-process consumer backfills gaps by querying the store through
//! a shared [`SharedStore`](sdci_core::SharedStore) handle. A remote
//! consumer gets the same capability from [`RemoteStore`], a read-only
//! [`sdci_core::EventBackend`] that round-trips a [`StoreRpc::Query`]
//! to the Aggregator process's [`StoreServer`].
//!
//! The protocol is deliberately tiny and strictly query → reply: after
//! the connection's hello, one request frame, one response frame — a
//! query is a dozen bytes of varints, a reply a batch of members — in the
//! same length-prefixed binary framing as the rest of sdci-net. One rule
//! pairs them: the n-th query on a connection carries n, the server
//! answers it with reply n, and each side's reader refuses a frame whose
//! number is not one past the last it read — a frame lost, duplicated or
//! replayed costs the connection, and the query is retried once on a new
//! one, numbered from 1 again. A connection's replies continue one another
//! as every batch frame does (`crate::wire`), and a reply holds what one
//! frame holds: the answer's prefix, which the consumer takes as such.
//! Failure semantics follow [`EventBackend::query`]'s contract — a query
//! that cannot be answered returns an empty slice, and the consumer simply
//! retries at the next heartbeat-detected gap.
//!
//! [`EventStore`]: sdci_core::EventStore

use crate::conn::NetConfig;
use crate::endpoint::{dial, Conn, Handler};
use crate::faulted::FaultedWriter;
use crate::wire::{
    bin_header, read_batch, read_control, read_number, timed_out, write_msg_bin, BatchHead,
    BinEncoder, FrameReader, Service, WireMsg, BIN_FLAG_TRACE, BIN_KIND_QUERY, STORE_KINDS,
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
    /// Server → consumer: the matching events, in sequence order; encoded,
    /// the prefix of them one frame holds.
    Batch {
        /// Query results.
        events: Vec<SequencedEvent>,
    },
}

/// Query presence bits: which of a [`StoreQuery`]'s optional fields a
/// query body carries, in this order, before its limit.
const HAS_AFTER_SEQ: u8 = 1;
const HAS_SINCE: u8 = 2;
const HAS_PREFIX: u8 = 4;

/// Appends `query` as a query body: the header (with `trace`'s section
/// when there is one), `enc`'s next number, a presence byte, each field
/// present as a varint — the prefix as its UTF-8 length and bytes — and
/// the limit.
///
/// # Errors
///
/// `InvalidInput`, before a byte is appended, for a prefix that is not
/// UTF-8 or is longer than [`MAX_PATH_LEN`]: no reader would accept it.
fn put_query(
    buf: &mut Vec<u8>,
    enc: &mut BinEncoder,
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
    put_varint(buf, enc.number());
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
/// [`put_query`]. A number not next on `history`, presence bits it does
/// not know, a prefix longer than [`MAX_PATH_LEN`] or not UTF-8, and a
/// limit past `usize` are refused.
fn read_query(
    r: &mut BinReader<'_>,
    flags: u8,
    history: &mut History,
) -> Result<StoreRpc, BinDecodeError> {
    let trace = if flags & BIN_FLAG_TRACE != 0 { Some(r.trace()?) } else { None };
    read_number(r, history)?;
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

/// Every message is binary and numbered: the query is a control frame of
/// a few bytes, and the reply is a batch, which — packed through the
/// connection's encoder — continues the replies before it.
impl WireMsg for StoreRpc {
    fn encode(&self, enc: &mut BinEncoder, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self {
            StoreRpc::Batch { events } => {
                let number = enc.number();
                enc.pack_frame(buf, BatchHead::Reply(number), events, None)
            }
            StoreRpc::Query { query, trace } => put_query(buf, enc, query, *trace),
        }
    }

    fn decode(body: &[u8], history: &mut History) -> std::io::Result<Self> {
        if body.first() == Some(&BIN_KIND_QUERY) {
            return read_control(body, BIN_FLAG_TRACE, |_, flags, r| read_query(r, flags, history));
        }
        let (_, _, events) = read_batch(body, STORE_KINDS, history)?;
        Ok(StoreRpc::Batch { events })
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
    // queries, the history a reply continues and the replies' count.
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
            // Store clients are request/response; idleness is fine.
            Err(e) if timed_out(&e) => {}
            // A reply from a client is no query: the stream is broken.
            Ok(StoreRpc::Batch { .. }) | Err(_) => return,
        }
    }
}

/// Whether `events` is a plausible reply to `query`: every event
/// satisfies the query's constraints, the batch respects its limit, and
/// sequence numbers strictly ascend: a store answers each retained event
/// once, in seq order, so a repeated or descending seq is no answer, and
/// the consumer's backlog relies on that order. A numbered reply that is
/// no answer costs the connection.
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
/// The connection is lazy and cached; a failed round trip drops it. A
/// query tries the cached connection first — the server may have dropped
/// it since its last use, so its failure costs no attempt — then up to
/// two fresh ones, each numbered from 1, its replies fresh, and then
/// gives up with an empty result — the consumer's backfill loop will
/// simply query again.
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
    /// Returns the last transport error once every attempt (the cached
    /// connection, then two fresh dials) is exhausted.
    pub fn try_query(&self, query: &StoreQuery) -> std::io::Result<Vec<SequencedEvent>> {
        let mut last_err = None;
        // Take the cached connection *out* of the lock: the slow parts
        // (connect, round trip, retry sleep) must not serialize
        // concurrent queriers behind one dead peer.
        let cached = self.conn.lock().take();
        if let Some(conn) = cached {
            match self.attempt(conn, query) {
                Ok(events) => return Ok(events),
                Err(e) => last_err = Some(e),
            }
        }
        for dial in 0..2 {
            let Some(conn) = self.open() else {
                if dial == 0 {
                    std::thread::sleep(self.cfg.retry.base);
                }
                continue;
            };
            match self.attempt(conn, query) {
                Ok(events) => return Ok(events),
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

    /// One round trip on `conn`, which is cached for the next query if it
    /// succeeds and dropped if it fails.
    fn attempt(
        &self,
        mut conn: StoreConn,
        query: &StoreQuery,
    ) -> std::io::Result<Vec<SequencedEvent>> {
        let events = self.round_trip(&mut conn, query)?;
        // Another querier may have cached its own connection meanwhile;
        // last one wins, the loser is simply closed.
        *self.conn.lock() = Some(conn);
        Ok(events)
    }

    /// Writes `query` and reads its reply, which must keep arriving: the
    /// round trip fails once a liveness window passes with no byte of it
    /// received — from the query's write, then from the last byte read.
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
        let (mut deadline, mut buffered) = (Instant::now() + self.cfg.liveness, 0);
        loop {
            match conn.reader.read_msg::<StoreRpc>() {
                Ok(StoreRpc::Batch { events }) if batch_answers(query, &events) => {
                    return Ok(events)
                }
                Err(e) if timed_out(&e) => {
                    if conn.reader.buffered() != buffered {
                        buffered = conn.reader.buffered();
                        deadline = Instant::now() + self.cfg.liveness;
                    } else if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "store reply made no progress for a liveness window",
                        ));
                    }
                }
                // A reply that does not answer, or a query: the caller
                // drops the connection.
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "a store reply that does not answer the query",
                    ))
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
