//! TCP PUSH/PULL: the lossless Collector → Aggregator leg.
//!
//! The paper's §5.2 observation — "no events are lost once they have
//! been processed" — becomes a protocol here:
//!
//! * every [`TcpPush`] client has a stable identity and numbers its
//!   items with a dense per-client sequence; a fresh client adopts the
//!   server's high-water mark for its identity at the first handshake,
//!   so a restarted pusher resumes the numbering of its previous
//!   incarnation instead of colliding with it;
//! * the [`TcpPullServer`] hands each frame's items to the local
//!   (blocking, bounded) pipeline as one batch, acknowledges them only
//!   after that, and remembers the highest sequence accepted per
//!   client;
//! * a pusher has one frame in flight: it writes the next only once an
//!   ack covers the last, so it moves at most [`NetConfig::max_batch`]
//!   items per ack round trip;
//! * the server answers every frame and every `Ping` with its mark, in
//!   order, and TCP delivers a frame ahead of any ping written after it —
//!   so an ack that answers such a ping without covering the frame in
//!   flight proves the frame lost, and the pusher redials at once; one
//!   that stops answering altogether is given up once the frame has
//!   waited [`NetConfig::liveness`];
//! * after a reconnect the client re-sends its frame in flight and the
//!   server discards duplicates by sequence number.
//!
//! The result is at-least-once delivery on the wire and exactly-once
//! delivery into the pipeline, with backpressure end to end: `send`
//! blocks once a frame's worth of items waits behind the frame in
//! flight, and the server blocks reading the socket while the local
//! pipeline is full.
//!
//! # Durability is the deployment's job
//!
//! An `Ack` means "queued, frame-whole, for the embedding process's
//! consumer" (for `sdcimon`, the Aggregator's ingest thread), not
//! "durably stored". A server process that crashes can therefore lose
//! items it acknowledged but had not yet persisted; how large that
//! window is depends on how often the embedding process checkpoints
//! (for `sdcimon aggregator --snapshot`, the 200 ms snapshot cadence).
//! To keep a *restart* from also duplicating items that did reach the
//! checkpoint, persist [`TcpPullServer::marks`] *in* it — captured
//! *after* the durable state and committed with it, see the method docs
//! (`sdcimon` hands this method to `SnapshotDir::flush`, which writes
//! both into one manifest) — and restore them with
//! [`TcpPullServer::with_marks`].

use crate::conn::{Backoff, NetConfig};
use crate::endpoint::{dial, Conn, Handler};
use crate::wire::{timed_out, write_item_batch_bin, write_msg_bin, BinEncoder, Frame, Service};
use sdci_mq::transport::{Publish, PublishOutcome};
use sdci_types::{BinPayload, TraceContext};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a partially filled batch may wait for more payloads before
/// it is flushed anyway (the adaptive-flush deadline).
const FLUSH_INTERVAL: Duration = Duration::from_millis(1);

/// How long a partially filled batch waits for its next payload before it
/// is flushed as quiet: a burst sent back to back leaves as one frame as
/// soon as it ends, not at the deadline.
const QUIET_GAP: Duration = Duration::from_micros(50);

/// Counter snapshot for a [`TcpPullServer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PullServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Items handed to the local pipeline (a frame's fresh items go in
    /// as one batch; this counts the items).
    pub items: u64,
    /// Re-sent items discarded as duplicates.
    pub duplicates: u64,
    /// `ItemBatch` frames received (each acked once, however many
    /// items it carried).
    pub batches: u64,
}

#[derive(Debug, Default)]
struct ServerCounters {
    accepted: AtomicU64,
    items: AtomicU64,
    duplicates: AtomicU64,
    batches: AtomicU64,
}

/// Per-client dedup high-water marks. Each client's mark has its own
/// mutex, held across the check-push-update of every item, so two
/// connections claiming the same identity (a reconnect racing a handler
/// still blocked on the pipeline) serialize instead of double-pushing.
type SeenMarks = parking_lot::Mutex<HashMap<String, Arc<parking_lot::Mutex<u64>>>>;

/// The PULL side: the [`Handler`] for [`Service::Push`]. Funnels the
/// items of every [`TcpPush`] client an [`Endpoint`](crate::Endpoint)
/// hands it, deduplicated and in per-client order, into a local bounded
/// pipeline consumed via [`TcpPullServer::pull`]. The pipeline's unit is
/// the frame: each accepted `ItemBatch` arrives as one `Vec` of its
/// fresh items.
pub struct TcpPullServer<T> {
    pull: crossbeam_channel::Receiver<Vec<T>>,
    /// `None` once the endpoint has drained: pullers then observe
    /// end-of-stream after the last connection exits.
    push: parking_lot::Mutex<Option<crossbeam_channel::Sender<Vec<T>>>>,
    counters: ServerCounters,
    seen: SeenMarks,
}

impl<T> std::fmt::Debug for TcpPullServer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpPullServer").finish_non_exhaustive()
    }
}

impl<T> TcpPullServer<T>
where
    T: Send + BinPayload + 'static,
{
    /// A pull server whose local pipeline holds `capacity` frames; when
    /// the puller falls that far behind, incoming connections block
    /// (backpressure) rather than shed.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_marks(capacity, HashMap::new())
    }

    /// Like [`TcpPullServer::new`], but seeds the per-client dedup
    /// high-water marks — e.g. a [`TcpPullServer::marks`] capture
    /// restored from the embedding process's durable state — so that
    /// after a restart, items a reconnecting client re-sends are
    /// discarded when the restored state already holds them.
    pub fn with_marks(capacity: usize, marks: HashMap<String, u64>) -> Arc<Self> {
        let (push, pull) = crossbeam_channel::bounded::<Vec<T>>(capacity);
        let seen =
            marks.into_iter().map(|(c, m)| (c, Arc::new(parking_lot::Mutex::new(m)))).collect();
        Arc::new(TcpPullServer {
            pull,
            push: parking_lot::Mutex::new(Some(push)),
            counters: ServerCounters::default(),
            seen: parking_lot::Mutex::new(seen),
        })
    }

    /// The local consuming end: one non-empty `Vec` per accepted frame.
    /// It reports the queue disconnected once the endpoint has shut down,
    /// every connection has drained and every queued frame is taken.
    pub fn pull(&self) -> crossbeam_channel::Receiver<Vec<T>> {
        self.pull.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PullServerStats {
        PullServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            items: self.counters.items.load(Ordering::Relaxed),
            duplicates: self.counters.duplicates.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
        }
    }

    /// The per-client dedup high-water marks: for each client identity,
    /// the highest sequence number handed to the pipeline.
    ///
    /// Persist this as part of the embedding process's durable state —
    /// under the same commit as the downstream state it guards, never
    /// in a file of its own that a crash can leave older than that
    /// state — and restore it with [`TcpPullServer::with_marks`].
    /// Capture it *after* capturing the downstream state: a client's
    /// mark always advances before its item can reach anything
    /// downstream of the pipeline, so marks captured second are ≥ every
    /// item the checkpoint holds — restored dedup then never discards a
    /// re-sent item the checkpoint is missing. (`SnapshotDir::flush`
    /// takes this method as the closure it calls in that order.)
    pub fn marks(&self) -> HashMap<String, u64> {
        self.seen.lock().iter().map(|(c, m)| (c.clone(), *m.lock())).collect()
    }
}

impl<T> Handler for TcpPullServer<T>
where
    T: Send + BinPayload + 'static,
{
    fn services(&self) -> &'static [&'static str] {
        &["push"]
    }

    fn serve(&self, service: Service, conn: Conn) {
        let Service::Push { client, resume_after } = service else { return };
        let Some(push) = self.push.lock().clone() else { return };
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        sdci_obs::static_metric!(counter, "sdci_net_pull_accepted_total").inc();
        serve_pusher(conn, push, client, resume_after, &self.seen, &self.counters);
    }

    /// Closes the local pipeline's push end, so pullers observe
    /// end-of-stream once every connection has finished its frame.
    fn drain(&self) {
        self.push.lock().take();
    }
}

fn serve_pusher<T>(
    conn: Conn,
    push: crossbeam_channel::Sender<Vec<T>>,
    client: String,
    resume_after: u64,
    seen: &SeenMarks,
    counters: &ServerCounters,
) where
    T: Send + BinPayload + 'static,
{
    let Conn { mut reader, mut writer, cfg, stop } = conn;
    // The scratch every ack of the connection is written through.
    let mut enc = BinEncoder::new();
    // One mark per client identity, shared by every connection that
    // claims it — including the next one, when a reconnect races a
    // handler still blocked on the pipeline.
    let mark = {
        let mut map = seen.lock();
        Arc::clone(map.entry(client).or_default())
    };
    let greeting = {
        let mut m = mark.lock();
        // `resume_after` is the highest ack the client ever saw; it can
        // be ahead of our mark when our dedup state is older than the
        // client's (e.g. restored from a stale marks capture). Trust
        // the client: never re-accept items it already dropped as
        // acknowledged.
        if resume_after > *m {
            *m = resume_after;
        }
        *m
    };
    if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ack { up_to: greeting }).is_err() {
        return;
    }
    let mut last_traffic = Instant::now();
    // `stop` is checked every iteration, not just on timeouts, so a
    // client streaming at full rate cannot pin the handler past
    // shutdown. Unacked in-flight items are re-sent to the next server.
    while !stop.load(Ordering::Relaxed) {
        match reader.read_msg::<Frame<T>>() {
            Ok(Frame::ItemBatch { first_seq, mut payloads, trace }) => {
                last_traffic = Instant::now();
                counters.batches.fetch_add(1, Ordering::Relaxed);
                sdci_obs::static_metric!(counter, "sdci_net_pull_batches_total").inc();
                // The frame-level context marks the network hop: one
                // receive span per batch, parented under the sender's
                // `net.push.send`. Event-level contexts stay embedded
                // in the payloads for the stages downstream.
                let mut recv_span = trace.filter(|t| t.sampled).map(|t| {
                    sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "net.pull.recv")
                });
                if let Some(span) = recv_span.as_mut() {
                    span.set_detail(|| format!("{} items", payloads.len()));
                }
                // The mark's mutex is held across the frame's
                // check-push-update, so the dedup decision and the
                // pipeline hand-off are one atomic step per client; the
                // whole frame gets one `Ack`.
                let up_to = {
                    let mut m = mark.lock();
                    // The mark is the peer's to raise (`resume_after`)
                    // and its frames' to advance: one with no sequence
                    // number after it, or that a frame would carry past
                    // `u64::MAX`, costs the connection.
                    let Some(next) = mark_after(*m, 1) else { return };
                    // A client sends densely from its last ack, and
                    // batch members are dense from `first_seq`, so a
                    // jump past mark+1 means frames vanished in
                    // transit. Advancing the mark over the gap would
                    // ack — and thereby lose — items that never
                    // arrived; the connection is dropped instead, and
                    // the pusher's redial resends from the mark.
                    if first_seq > next {
                        sdci_obs::static_metric!(counter, "sdci_net_push_gaps_total").inc();
                        sdci_obs::warn!("sequence gap on the push leg; dropping the connection";
                            expected = next, first_seq = first_seq);
                        return;
                    }
                    // A re-sent batch may be only partially stale:
                    // accept the tail, drop the prefix.
                    let dups = (next - first_seq).min(payloads.len() as u64);
                    payloads.drain(..dups as usize);
                    let fresh = payloads.len() as u64;
                    let Some(advanced) = mark_after(*m, fresh) else { return };
                    // Ack only after the pipeline takes the frame: an
                    // ack means "processed", so a crash before this
                    // point makes the client re-send, never lose.
                    if fresh > 0 {
                        if push.send(payloads).is_err() {
                            return;
                        }
                        *m = advanced;
                    }
                    counters.items.fetch_add(fresh, Ordering::Relaxed);
                    sdci_obs::static_metric!(counter, "sdci_net_pull_items_total").add(fresh);
                    counters.duplicates.fetch_add(dups, Ordering::Relaxed);
                    sdci_obs::static_metric!(counter, "sdci_net_dedup_hits_total").add(dups);
                    *m
                };
                if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ack { up_to }).is_err() {
                    return;
                }
            }
            Ok(Frame::Ping) => {
                last_traffic = Instant::now();
                // Re-ack as a keepalive so an idle client still hears us.
                let up_to = *mark.lock();
                if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ack { up_to }).is_err() {
                    return;
                }
            }
            Ok(Frame::Fin) => return,
            // Any other frame — an `Ack`, a delivery — is not the pusher's
            // to send. It costs the connection, as anything but an `Ack`
            // costs the pusher its own; ignored, it would hold this thread
            // with no read ever timing out.
            Ok(_) => return,
            Err(e) if timed_out(&e) => {
                if last_traffic.elapsed() > cfg.liveness {
                    return;
                }
            }
            // Anything else — a batch continuing frames this connection
            // did not deliver included, which the reader refuses before
            // a member is read — breaks the stream as a gap does.
            Err(_) => return,
        }
    }
}

/// `mark + n`, or `None` — with a warning — when that is past
/// `u64::MAX`: a mark no sequence number can follow, which only a peer's
/// `resume_after` or frames can have pushed there.
fn mark_after(mark: u64, n: u64) -> Option<u64> {
    let after = mark.checked_add(n);
    if after.is_none() {
        sdci_obs::warn!("a push mark past u64::MAX; dropping the connection"; mark = mark, n = n);
    }
    after
}

#[derive(Debug, Default)]
struct PushState {
    /// Items accepted by `send` and not yet acknowledged by the server.
    pending: AtomicU64,
    /// Items acknowledged (processed) by the server.
    acked: AtomicU64,
    /// Successful connections (>1 means the link was re-established).
    connections: AtomicU64,
}

/// The PUSH side: a cloneable, supervised sender whose items are
/// guaranteed to reach the [`TcpPullServer`]'s pipeline exactly once,
/// surviving connection loss and server restarts.
///
/// One frame is in flight at a time: the worker writes the next frame
/// only once the server has acknowledged the last, so a pusher moves at
/// most [`NetConfig::max_batch`] items per ack round trip. `send` queues
/// behind that frame and blocks once a frame's worth waits there
/// (backpressure); [`TcpPush::drain`] waits until everything sent has
/// been acknowledged — call it before exiting to make "collector done"
/// mean "aggregator has the events".
pub struct TcpPush<T> {
    tx: crossbeam_channel::Sender<T>,
    state: Arc<PushState>,
}

impl<T> Clone for TcpPush<T> {
    fn clone(&self) -> Self {
        TcpPush { tx: self.tx.clone(), state: Arc::clone(&self.state) }
    }
}

impl<T> std::fmt::Debug for TcpPush<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpPush").finish_non_exhaustive()
    }
}

impl<T> TcpPush<T>
where
    T: Send + BinPayload + 'static,
{
    /// Starts a supervised pusher toward `addr`. `client` must be
    /// stable across restarts of the same logical pusher — it keys the
    /// server's duplicate-suppression state.
    pub fn connect(addr: SocketAddr, client: impl Into<String>, cfg: NetConfig) -> Self {
        let client = client.into();
        let (tx, rx) = crossbeam_channel::bounded::<T>(cfg.max_batch);
        let state = Arc::new(PushState::default());
        {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("sdci-net-push-{client}"))
                .spawn(move || push_worker(addr, client, cfg, rx, state))
                // cannot fail: short of a thread refused by the OS, which no pusher outlives.
                .expect("spawn push worker");
        }
        TcpPush { tx, state }
    }

    /// Queues one item behind the frame in flight, blocking while a
    /// frame's worth ([`NetConfig::max_batch`] items) already waits
    /// there. Returns `false` only if the worker has terminated (it never
    /// does while a handle is alive).
    pub fn send(&self, item: T) -> bool {
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(item).is_ok() {
            true
        } else {
            self.state.pending.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }

    /// Waits until every item sent on any clone has been acknowledged
    /// by the server, or `timeout` elapses. Returns `true` when fully
    /// drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.state.pending.load(Ordering::Relaxed) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Items acknowledged (processed by the server) so far.
    pub fn acked(&self) -> u64 {
        self.state.acked.load(Ordering::Relaxed)
    }

    /// Successful connections so far (>1 means the link was re-established).
    pub fn connections(&self) -> u64 {
        self.state.connections.load(Ordering::Relaxed)
    }
}

/// Lets a [`TcpPush`] stand in where a pub-sub publisher is expected
/// (e.g. a `Collector`'s event output). The topic is dropped: the PUSH
/// leg is point-to-point and events carry their own MDT index.
impl<T> Publish<T> for TcpPush<T>
where
    T: Send + BinPayload + 'static,
{
    fn publish(&self, _topic: &str, payload: T) -> PublishOutcome {
        // `send` only fails when the worker is gone, which never
        // happens while a handle is alive — everything else queues.
        if self.send(payload) {
            PublishOutcome::Queued
        } else {
            PublishOutcome::Shed
        }
    }
}

/// Fills `frame`, which holds its first item, with the items queued
/// behind it, up to `max_batch`: a partial frame waits for stragglers
/// until none has come for `QUIET_GAP`, or at most until `FLUSH_INTERVAL`
/// after it started, so a trickle still coalesces without adding more
/// than ~`FLUSH_INTERVAL` of latency and a burst leaves as soon as it
/// ends. Returns why it stopped: the `reason` of
/// `sdci_net_batch_flush_total`.
fn fill<T>(
    rx: &crossbeam_channel::Receiver<T>,
    frame: &mut Vec<T>,
    max_batch: usize,
    senders_gone: &mut bool,
) -> &'static str {
    let deadline = Instant::now() + FLUSH_INTERVAL;
    while frame.len() < max_batch {
        // Past the deadline this only takes what is already queued.
        let wait = deadline.saturating_duration_since(Instant::now()).min(QUIET_GAP);
        match rx.recv_timeout(wait) {
            Ok(item) => frame.push(item),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                return if Instant::now() < deadline { "quiet" } else { "deadline" };
            }
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                *senders_gone = true;
                return "deadline";
            }
        }
    }
    "size"
}

/// Writes `frame` as `ItemBatch` frames numbered from `first_seq` (one,
/// unless its encoded size overruns a frame). They carry the first
/// sampled event's context re-parented under a send span, so the receive
/// side can mark the network hop itself.
fn write_frame<T: BinPayload>(
    writer: &mut impl std::io::Write,
    enc: &mut BinEncoder,
    first_seq: u64,
    frame: &[T],
) -> std::io::Result<()> {
    let carried = frame.iter().find_map(|i| i.event().and_then(|e| e.trace).filter(|c| c.sampled));
    let mut send_span =
        carried.map(|t| sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "net.push.send"));
    if let Some(span) = send_span.as_mut() {
        span.set_detail(|| format!("{} items", frame.len()));
    }
    let trace = match send_span.as_ref().and_then(|s| s.context()) {
        Some(sc) => Some(TraceContext::sampled(sc.trace_id, sc.span_id)),
        // Tracing disabled in this process: forward the carried context
        // unchanged.
        None => carried,
    };
    write_item_batch_bin(writer, enc, first_seq, frame, trace).map(drop)
}

/// Counts the items of the frame in flight that an ack for `up_to`
/// covers as acknowledged and takes them off its front. Returns how many
/// it took.
fn take_acked<T>(
    up_to: u64,
    in_flight: &mut Vec<T>,
    first_seq: &mut u64,
    sent_at: Instant,
    state: &PushState,
) -> u64 {
    let covered = up_to.saturating_sub(*first_seq - 1).min(in_flight.len() as u64);
    if covered > 0 {
        sdci_obs::static_metric!(histogram, "sdci_net_ack_rtt_seconds")
            .observe_duration(sent_at.elapsed());
        in_flight.drain(..covered as usize);
        *first_seq += covered;
        state.pending.fetch_sub(covered, Ordering::Relaxed);
        state.acked.fetch_add(covered, Ordering::Relaxed);
    }
    covered
}

/// The pusher's connection loop. Its only unacknowledged state is the
/// frame in flight, kept by value: it fills the next frame only once an
/// ack has covered that one.
fn push_worker<T>(
    addr: SocketAddr,
    client: String,
    cfg: NetConfig,
    rx: crossbeam_channel::Receiver<T>,
    state: Arc<PushState>,
) where
    T: Send + BinPayload + 'static,
{
    let max_batch = cfg.max_batch.max(1);
    // Encoder scratch buffers, reused across frames and reconnects.
    let mut enc = BinEncoder::new();
    let mut backoff = Backoff::new(cfg.retry);
    // The frame written and not yet acknowledged, and when it was last
    // written; `first_seq` numbers its first item or, while nothing is in
    // flight, the next item to be sent.
    let mut in_flight: Vec<T> = Vec::new();
    let mut first_seq: u64 = 1;
    let mut sent_at = Instant::now();
    let mut senders_gone = false;

    'reconnect: loop {
        // `senders_gone` is only set once the queue reported
        // Disconnected, which implies it was empty — so this is the
        // all-delivered exit.
        if senders_gone && in_flight.is_empty() {
            return;
        }
        let hello = Service::Push { client: client.clone(), resume_after: first_seq - 1 };
        let Ok((mut reader, mut writer)) = dial(&cfg, addr, hello) else {
            backoff.sleep_after_failure(Duration::ZERO, cfg.liveness);
            continue;
        };
        let session = Instant::now();
        // The server replies with its own high-water mark, which may be
        // ahead of ours (acks lost with the previous connection). A
        // server speaking another wire version closes the connection
        // instead, and the backoff paces the retries. Its first frame is
        // the greeting or the connection is lost: a peer that answers
        // with anything else — a stream of pings, say — does not hold the
        // lossless leg here.
        let server_mark = loop {
            match reader.read_msg::<Frame<T>>() {
                Ok(Frame::Ack { up_to }) => break up_to,
                Err(e) if timed_out(&e) => {
                    if session.elapsed() > cfg.liveness {
                        backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                        continue 'reconnect;
                    }
                }
                Ok(_) | Err(_) => {
                    backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                    continue 'reconnect;
                }
            }
        };
        if in_flight.is_empty() {
            // Nothing to resend: number on from the server's mark. On a
            // fresh pusher process's first contact that mark belongs to a
            // previous incarnation of this client identity — numbering
            // from 1 instead would have every new item discarded (and
            // still acked!) as a duplicate of the old incarnation's. A
            // mark no sequence number can follow fails the handshake.
            let Some(next) = server_mark.checked_add(1) else {
                sdci_obs::warn!("the pull server's mark is u64::MAX; reconnecting"; client = client.as_str());
                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                continue 'reconnect;
            };
            first_seq = next;
        } else {
            take_acked(server_mark, &mut in_flight, &mut first_seq, sent_at, &state);
        }
        // Re-send what the server has not seen as one fresh frame: the
        // new connection's reader holds nothing of the last one's frames.
        enc.start_fresh();
        if !in_flight.is_empty() {
            sdci_obs::static_metric!(counter, "sdci_net_push_resends_total")
                .add(in_flight.len() as u64);
            sent_at = Instant::now();
            if write_frame(&mut writer, &mut enc, first_seq, &in_flight).is_err() {
                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                continue 'reconnect;
            }
        }
        if state.connections.fetch_add(1, Ordering::Relaxed) > 0 {
            sdci_obs::static_metric!(counter, "sdci_net_pusher_reconnects_total").inc();
        }
        let mut last_write = Instant::now();
        // Pings whose answers are still to be read: those written before
        // the frame in flight, answered ahead of its ack, and those written
        // after it, answered behind.
        let (mut pings_ahead, mut pings_behind) = (0u32, 0u32);
        loop {
            if senders_gone && in_flight.is_empty() {
                let _ = write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Fin);
                return;
            }
            // A quiet link pings; the server answers every ping with its mark.
            if last_write.elapsed() >= cfg.heartbeat {
                if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ping).is_err() {
                    backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                    continue 'reconnect;
                }
                last_write = Instant::now();
                if in_flight.is_empty() {
                    pings_ahead += 1;
                } else {
                    pings_behind += 1;
                }
            }
            if in_flight.is_empty() {
                // Idle: wait for the next frame's first item.
                match rx.recv_timeout(cfg.heartbeat) {
                    Ok(item) => in_flight.push(item),
                    Err(crossbeam_channel::RecvTimeoutError::Timeout) => continue,
                    Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                        senders_gone = true;
                        continue;
                    }
                }
                let reason = fill(&rx, &mut in_flight, max_batch, &mut senders_gone);
                sdci_obs::static_metric!(counter_vec, "sdci_net_batch_flush_total", "reason")
                    .inc(reason);
                // The histogram's base unit is seconds; recording `len`
                // seconds as nanoseconds makes the exported values read
                // directly as batch sizes.
                sdci_obs::static_metric!(histogram, "sdci_net_batch_size")
                    .observe_ns(in_flight.len() as u64 * 1_000_000_000);
                sent_at = Instant::now();
                if write_frame(&mut writer, &mut enc, first_seq, &in_flight).is_err() {
                    backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                    continue 'reconnect;
                }
                last_write = Instant::now();
                continue;
            }
            // A frame in flight: read acks until one covers it. The
            // connection is dead once the frame has waited a liveness
            // interval — acks that do not cover it are no progress — so a
            // silent partition (no RST/FIN) cannot hold the lossless leg.
            if sent_at.elapsed() > cfg.liveness {
                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                continue 'reconnect;
            }
            match reader.read_msg::<Frame<T>>() {
                Ok(Frame::Ack { up_to }) => {
                    let covered =
                        take_acked(up_to, &mut in_flight, &mut first_seq, sent_at, &state);
                    if in_flight.is_empty() {
                        (pings_ahead, pings_behind) = (pings_behind, 0);
                    } else if covered > 0 {
                        pings_ahead = 0;
                    } else if pings_ahead > 0 {
                        pings_ahead -= 1;
                    } else if pings_behind > 0 {
                        // It answers a ping written after the frame. TCP
                        // delivered the frame ahead of that ping and the
                        // server answers in order, so the frame was lost:
                        // the redial resends it now, not a liveness
                        // interval from now. The server has just answered,
                        // so the backoff starts over; the ping each proof
                        // waits for keeps these redials a heartbeat apart.
                        backoff.reset();
                        backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                        continue 'reconnect;
                    }
                }
                Err(e) if timed_out(&e) => {}
                // A pull server answers with acks only: anything else
                // breaks the stream.
                Ok(_) | Err(_) => {
                    backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                    continue 'reconnect;
                }
            }
        }
    }
}
