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
//! * after a reconnect the client re-sends everything unacknowledged
//!   and the server discards duplicates by sequence number.
//!
//! The result is at-least-once delivery on the wire and exactly-once
//! delivery into the pipeline, with backpressure end to end: the pusher
//! blocks once [`NetConfig::window`] items are in flight, and the
//! server blocks reading the socket while the local pipeline is full.
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
use crate::wire::{
    continuity_gap, timed_out, write_item_batch_bin, write_msg_bin, BinEncoder, Frame, Service,
};
use sdci_mq::pipe::{pipeline, Pull, Push};
use sdci_mq::transport::{Publish, PublishOutcome};
use sdci_types::{BinPayload, TraceContext};
use std::collections::{HashMap, VecDeque};
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
    /// Gap `Nack`s sent: a batch arrived beyond the client's next dense
    /// sequence number — frames were lost in transit, and accepting the
    /// jump would silently lose the gap forever — so the pusher is told
    /// the expected sequence and fast-rewinds in place.
    pub nacks: u64,
}

#[derive(Debug, Default)]
struct ServerCounters {
    accepted: AtomicU64,
    items: AtomicU64,
    duplicates: AtomicU64,
    batches: AtomicU64,
    nacks: AtomicU64,
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
    pull: Pull<Vec<T>>,
    /// `None` once the endpoint has drained: pullers then observe
    /// end-of-stream after the last connection exits.
    push: parking_lot::Mutex<Option<Push<Vec<T>>>>,
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
        let (push, pull) = pipeline::<Vec<T>>(capacity);
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
    /// `Pull::recv` returns `None` once the endpoint has shut down and
    /// every connection has drained.
    pub fn pull(&self) -> Pull<Vec<T>> {
        self.pull.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PullServerStats {
        PullServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            items: self.counters.items.load(Ordering::Relaxed),
            duplicates: self.counters.duplicates.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            nacks: self.counters.nacks.load(Ordering::Relaxed),
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
    push: Push<Vec<T>>,
    client: String,
    resume_after: u64,
    seen: &SeenMarks,
    counters: &ServerCounters,
) where
    T: Send + BinPayload + 'static,
{
    let Conn { mut reader, mut writer, cfg, stop } = conn;
    // The scratch every ack and nack of the connection is written through.
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
    // The expected seq named by the last gap `Nack` and when it was
    // sent, so a stalled mark draws one nack per heartbeat however many
    // in-flight frames sail past the gap before the rewound resend
    // arrives — while a rewound resend that is itself lost still earns
    // a fresh nack once the window has passed.
    let mut nacked_at: Option<(u64, Instant)> = None;
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
                let outcome = {
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
                    // arrived; instead the client is told the expected
                    // seq so it rewinds and retransmits in place. (The
                    // client treats non-advancing acks as liveness, so
                    // stalling acks here would livelock, not recover.)
                    if first_seq > next {
                        Err(next)
                    } else {
                        // A re-sent batch may be only partially
                        // stale: accept the tail, drop the prefix.
                        let dups = (next - first_seq).min(payloads.len() as u64);
                        payloads.drain(..dups as usize);
                        let fresh = payloads.len() as u64;
                        let Some(advanced) = mark_after(*m, fresh) else { return };
                        // Ack only after the pipeline takes the frame:
                        // an ack means "processed", so a crash before
                        // this point makes the client re-send, never
                        // lose.
                        if fresh > 0 {
                            if !push.send(payloads) {
                                return;
                            }
                            *m = advanced;
                        }
                        counters.items.fetch_add(fresh, Ordering::Relaxed);
                        sdci_obs::static_metric!(counter, "sdci_net_pull_items_total").add(fresh);
                        counters.duplicates.fetch_add(dups, Ordering::Relaxed);
                        sdci_obs::static_metric!(counter, "sdci_net_dedup_hits_total").add(dups);
                        Ok(*m)
                    }
                };
                match outcome {
                    Ok(up_to) => {
                        nacked_at = None;
                        let ack = Frame::<T>::Ack { up_to };
                        if write_msg_bin(&mut writer, &mut enc, &ack).is_err() {
                            return;
                        }
                    }
                    Err(expected) => {
                        if nack_gap::<T>(
                            &mut writer,
                            &mut enc,
                            counters,
                            &mut nacked_at,
                            expected,
                            cfg.heartbeat,
                        )
                        .is_err()
                        {
                            return;
                        }
                    }
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
            Ok(_) => {}
            Err(e) if continuity_gap(&e).is_some() => {
                // A batch continuing frames this connection did not
                // deliver (lost, or duplicated behind them): none of its
                // members was read, so the pusher must resume after the
                // mark, as after any gap — and its rewind starts fresh.
                last_traffic = Instant::now();
                let Some(expected) = mark_after(*mark.lock(), 1) else { return };
                let nacked = nack_gap::<T>(
                    &mut writer,
                    &mut enc,
                    counters,
                    &mut nacked_at,
                    expected,
                    cfg.heartbeat,
                );
                if nacked.is_err() {
                    return;
                }
            }
            Err(e) if timed_out(&e) => {
                if last_traffic.elapsed() > cfg.liveness {
                    return;
                }
            }
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

/// Tells a pusher where the stream must resume: one `Nack` per stalled
/// mark value and heartbeat window (later in-flight frames past the
/// same gap are dropped silently, without ack), so the pusher rewinds
/// its resend buffer in place instead of waiting out the liveness
/// window.
fn nack_gap<T: BinPayload>(
    writer: &mut impl std::io::Write,
    enc: &mut BinEncoder,
    counters: &ServerCounters,
    nacked_at: &mut Option<(u64, Instant)>,
    expected: u64,
    repeat_after: Duration,
) -> std::io::Result<()> {
    if nacked_at.is_some_and(|(e, at)| e == expected && at.elapsed() < repeat_after) {
        return Ok(());
    }
    *nacked_at = Some((expected, Instant::now()));
    counters.nacks.fetch_add(1, Ordering::Relaxed);
    sdci_obs::static_metric!(counter, "sdci_net_gap_nacks_total").inc();
    sdci_obs::warn!(
        "sequence gap on the push leg; nacking to request an in-place rewind";
        expected = expected,
    );
    write_msg_bin(writer, enc, &Frame::<T>::Nack { expected })
}

#[derive(Debug, Default)]
struct PushState {
    /// Items accepted by `send` and not yet acknowledged by the server.
    pending: AtomicU64,
    /// Items acknowledged (processed) by the server.
    acked: AtomicU64,
    /// Successful connections (>1 means the link was re-established).
    connections: AtomicU64,
    /// In-place window resends performed in answer to a gap `Nack`.
    rewinds: AtomicU64,
}

/// The PUSH side: a cloneable, supervised sender whose items are
/// guaranteed to reach the [`TcpPullServer`]'s pipeline exactly once,
/// surviving connection loss and server restarts.
///
/// `send` blocks while the in-flight window is full (backpressure);
/// [`TcpPush::drain`] waits until everything sent has been acknowledged
/// — call it before exiting to make "collector done" mean "aggregator
/// has the events".
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
    T: Clone + Send + BinPayload + 'static,
{
    /// Starts a supervised pusher toward `addr`. `client` must be
    /// stable across restarts of the same logical pusher — it keys the
    /// server's duplicate-suppression state.
    pub fn connect(addr: SocketAddr, client: impl Into<String>, cfg: NetConfig) -> Self {
        let client = client.into();
        let (tx, rx) = crossbeam_channel::bounded::<T>(cfg.window.max(1));
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

    /// Queues one item, blocking while the window is full. Returns
    /// `false` only if the worker has terminated (it never does while a
    /// handle is alive).
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

    /// Fast rewinds so far: in-place window resends answering a server
    /// gap `Nack`, each one a reconnect-and-wait avoided.
    pub fn fast_rewinds(&self) -> u64 {
        self.state.rewinds.load(Ordering::Relaxed)
    }
}

/// Lets a [`TcpPush`] stand in where a pub-sub publisher is expected
/// (e.g. a `Collector`'s event output). The topic is dropped: the PUSH
/// leg is point-to-point and events carry their own MDT index.
impl<T> Publish<T> for TcpPush<T>
where
    T: Clone + Send + BinPayload + 'static,
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

/// Retransmits every unacked item with fresh send timestamps — after a
/// reconnect, or in place when a gap `Nack` arrives. Sequences in
/// `unacked` are dense, so the whole window re-ships as a few
/// `ItemBatch` runs (the encoder re-splits any run whose encoded size
/// would overrun a frame).
fn resend_window<T: Clone + BinPayload>(
    writer: &mut impl std::io::Write,
    enc: &mut BinEncoder,
    unacked: &mut VecDeque<(u64, T, Instant)>,
    max_batch: usize,
) -> std::io::Result<()> {
    sdci_obs::static_metric!(counter, "sdci_net_push_resends_total").add(unacked.len() as u64);
    let now = Instant::now();
    let first_seq = unacked.front().map_or(0, |(seq, _, _)| *seq);
    let payloads: Vec<T> = unacked
        .iter_mut()
        .map(|(_, item, sent_at)| {
            *sent_at = now;
            item.clone()
        })
        .collect();
    let mut offset = 0u64;
    for chunk in payloads.chunks(max_batch) {
        let trace =
            chunk.iter().find_map(|i| i.event().and_then(|e| e.trace).filter(|c| c.sampled));
        write_item_batch_bin(writer, enc, first_seq + offset, chunk, trace)?;
        offset += chunk.len() as u64;
    }
    Ok(())
}

fn push_worker<T>(
    addr: SocketAddr,
    client: String,
    cfg: NetConfig,
    rx: crossbeam_channel::Receiver<T>,
    state: Arc<PushState>,
) where
    T: Clone + Send + BinPayload + 'static,
{
    let window = cfg.window.max(1);
    let max_batch = cfg.max_batch.max(1);
    // Encoder scratch buffers, reused across batches and reconnects.
    let mut enc = BinEncoder::new();
    let mut backoff = Backoff::new(cfg.retry);
    // Each entry carries its last transmission instant, so an ack's
    // round-trip is measured against the send (or resend) it answers.
    let mut unacked: VecDeque<(u64, T, Instant)> = VecDeque::new();
    let mut next_seq: u64 = 1;
    let mut last_acked: u64 = 0;
    let mut senders_gone = false;

    let ack_up_to = |up_to: u64,
                     unacked: &mut VecDeque<(u64, T, Instant)>,
                     last_acked: &mut u64,
                     state: &PushState| {
        while unacked.front().is_some_and(|(seq, _, _)| *seq <= up_to) {
            if let Some((_, _, sent_at)) = unacked.pop_front() {
                sdci_obs::static_metric!(histogram, "sdci_net_ack_rtt_seconds")
                    .observe_duration(sent_at.elapsed());
            }
            state.pending.fetch_sub(1, Ordering::Relaxed);
            state.acked.fetch_add(1, Ordering::Relaxed);
        }
        if up_to > *last_acked {
            *last_acked = up_to;
        }
    };

    'reconnect: loop {
        // `senders_gone` is only set once the queue reported
        // Disconnected, which implies it was empty — so this is the
        // all-delivered exit.
        if senders_gone && unacked.is_empty() {
            return;
        }
        let hello = Service::Push { client: client.clone(), resume_after: last_acked };
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
        let hello_sent = Instant::now();
        let server_mark = loop {
            match reader.read_msg::<Frame<T>>() {
                Ok(Frame::Ack { up_to }) => break up_to,
                Err(e) if timed_out(&e) => {
                    if hello_sent.elapsed() > cfg.liveness {
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
        if next_seq == 1 {
            // First contact of a fresh pusher process: nothing has been
            // sequenced locally yet. A nonzero server mark then belongs
            // to a previous incarnation of this client identity — adopt
            // it and number upward from there, rather than starting at
            // 1 and having every new item discarded (and still acked!)
            // as a duplicate of the old incarnation's. A mark no
            // sequence number can follow fails the handshake.
            let Some(first) = server_mark.checked_add(1) else {
                sdci_obs::warn!("the pull server's mark is u64::MAX; reconnecting"; client = client.as_str());
                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                continue 'reconnect;
            };
            next_seq = first;
            last_acked = server_mark;
        } else {
            ack_up_to(server_mark, &mut unacked, &mut last_acked, &state);
        }
        // Re-send everything the server has not seen. The new
        // connection's reader holds nothing of the last one's frames.
        enc.start_fresh();
        if resend_window(&mut writer, &mut enc, &mut unacked, max_batch).is_err() {
            backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
            continue 'reconnect;
        }
        if state.connections.fetch_add(1, Ordering::Relaxed) > 0 {
            sdci_obs::static_metric!(counter, "sdci_net_pusher_reconnects_total").inc();
        }
        let mut last_write = Instant::now();
        let mut last_traffic = Instant::now();
        // An item taken out of the queue by the idle wait, fed back
        // into the next fill so it can coalesce with whatever arrived
        // behind it.
        let mut carry: Option<T> = None;
        loop {
            // Fill phase: coalesce whatever is already queued, bounded
            // by the free send window and the per-frame batch cap.
            let mut batch: Vec<T> = Vec::new();
            let budget = window.saturating_sub(unacked.len()).min(max_batch);
            if let Some(item) = carry.take() {
                batch.push(item);
            }
            while batch.len() < budget {
                match rx.try_recv() {
                    Ok(item) => batch.push(item),
                    Err(crossbeam_channel::TryRecvError::Empty) => break,
                    Err(crossbeam_channel::TryRecvError::Disconnected) => {
                        senders_gone = true;
                        break;
                    }
                }
            }
            // Adaptive flush: a partially filled batch waits for
            // stragglers until none has come for `QUIET_GAP`, or at most
            // until the flush deadline, so a trickle still coalesces
            // without adding more than ~`FLUSH_INTERVAL` of latency and a
            // burst leaves as soon as it ends. A full batch (or a full
            // window) flushes at once.
            let mut reason = "deadline";
            if !batch.is_empty() && batch.len() < budget && !senders_gone {
                let deadline = Instant::now() + FLUSH_INTERVAL;
                loop {
                    let now = Instant::now();
                    if now >= deadline || batch.len() >= budget {
                        break;
                    }
                    match rx.recv_timeout((deadline - now).min(QUIET_GAP)) {
                        Ok(item) => batch.push(item),
                        Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                            if Instant::now() < deadline {
                                reason = "quiet";
                            }
                            break;
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                            senders_gone = true;
                            break;
                        }
                    }
                }
            }
            if !batch.is_empty() {
                let first_seq = next_seq;
                let now = Instant::now();
                for item in &batch {
                    unacked.push_back((next_seq, item.clone(), now));
                    next_seq += 1;
                }
                if batch.len() >= budget {
                    reason = "size";
                }
                sdci_obs::static_metric!(counter_vec, "sdci_net_batch_flush_total", "reason")
                    .inc(reason);
                // The histogram's base unit is seconds; recording
                // `len` seconds as nanoseconds makes the exported
                // values read directly as batch sizes.
                sdci_obs::static_metric!(histogram, "sdci_net_batch_size")
                    .observe_ns(batch.len() as u64 * 1_000_000_000);
                let ok = {
                    // The batch frame carries the first sampled event's
                    // context re-parented under a send span, so the
                    // receive side can mark the network hop itself.
                    let carried = batch
                        .iter()
                        .find_map(|i| i.event().and_then(|e| e.trace).filter(|c| c.sampled));
                    let mut send_span = carried.map(|t| {
                        sdci_obs::trace::child_of(t.trace_id, t.parent_span_id, "net.push.send")
                    });
                    if let Some(span) = send_span.as_mut() {
                        span.set_detail(|| format!("{} items", batch.len()));
                    }
                    let frame_trace = match send_span.as_ref().and_then(|s| s.context()) {
                        Some(sc) => Some(TraceContext::sampled(sc.trace_id, sc.span_id)),
                        // Tracing disabled in this process: forward the
                        // carried context unchanged.
                        None => carried,
                    };
                    write_item_batch_bin(&mut writer, &mut enc, first_seq, &batch, frame_trace)
                        .is_ok()
                };
                if !ok {
                    backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                    continue 'reconnect;
                }
                last_write = Instant::now();
            }
            if unacked.is_empty() {
                if senders_gone {
                    let _ = write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Fin);
                    return;
                }
                // Idle: wait for new items, pinging to stay alive. The
                // item is carried into the next fill phase rather than
                // written here, so it can still form a batch.
                match rx.recv_timeout(cfg.heartbeat) {
                    Ok(item) => carry = Some(item),
                    Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                        if last_write.elapsed() >= cfg.heartbeat {
                            if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ping).is_err() {
                                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                                continue 'reconnect;
                            }
                            last_write = Instant::now();
                        }
                    }
                    Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                        senders_gone = true;
                    }
                }
            } else {
                // Window has items in flight: wait for acks, pinging to
                // elicit one when the link goes quiet (the server
                // re-acks every ping), and reconnecting — which re-sends
                // the window — once nothing has been heard for a
                // liveness interval. Without the liveness check a silent
                // partition (no RST/FIN) would hang the lossless leg
                // forever.
                match reader.read_msg::<Frame<T>>() {
                    Ok(Frame::Ack { up_to }) => {
                        last_traffic = Instant::now();
                        ack_up_to(up_to, &mut unacked, &mut last_acked, &state);
                    }
                    Ok(Frame::Nack { expected }) => {
                        last_traffic = Instant::now();
                        // Frames vanished mid-stream: everything before
                        // `expected` landed, everything from it on must
                        // re-ship. Rewind and retransmit on this very
                        // connection instead of waiting out liveness.
                        ack_up_to(
                            expected.saturating_sub(1),
                            &mut unacked,
                            &mut last_acked,
                            &state,
                        );
                        state.rewinds.fetch_add(1, Ordering::Relaxed);
                        sdci_obs::static_metric!(counter, "sdci_net_push_fast_rewinds_total").inc();
                        // The server may have skipped frames this encoder's
                        // history holds: the resend starts fresh.
                        enc.start_fresh();
                        if resend_window(&mut writer, &mut enc, &mut unacked, max_batch).is_err() {
                            backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                            continue 'reconnect;
                        }
                        last_write = Instant::now();
                    }
                    Ok(_) => last_traffic = Instant::now(),
                    Err(e) if timed_out(&e) => {
                        if last_traffic.elapsed() > cfg.liveness {
                            backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                            continue 'reconnect;
                        }
                        if last_write.elapsed() >= cfg.heartbeat {
                            if write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ping).is_err() {
                                backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                                continue 'reconnect;
                            }
                            last_write = Instant::now();
                        }
                    }
                    Err(_) => {
                        backoff.sleep_after_failure(session.elapsed(), cfg.liveness);
                        continue 'reconnect;
                    }
                }
            }
        }
    }
}
