//! TCP PUB/SUB: the in-process broker's contract over real sockets.
//!
//! A [`TcpBroker`] is a feed that remote subscribers ([`TcpSubscriber`])
//! read: each names its topic prefixes in its hello and receives
//! `DeliverBatch` frames. The broker is a [`Publish`] — in `sdcimon
//! aggregator`, the one the Aggregator publishes into. The wire has no
//! publish direction — only the process that owns the broker writes its
//! feed; a remote peer can read the feed, never inject into it.
//!
//! Delivery is **encode-once**: `publish` and `publish_batch` run on the
//! publishing thread — in an Aggregator, its ingest thread — and render
//! each publish — a whole batch, or a lone message — once into frozen
//! frame bytes (`Arc<[u8]>`), handing the same buffer to the queue of
//! every matching subscriber leg. N subscribers cost one encode, not N,
//! a batch published whole leaves as one frame, and a leg's queue is the
//! only one between a publish and its socket.
//!
//! The broker's publishes are one stream, and a frame may continue it
//! ([`crate::wire`]): coded against the publish before it, which every
//! leg it goes to must then hold. Each leg records whether it took the
//! encoder's last frame; a publish with a matching leg that did not —
//! one that shed it, did not match its topic, or joined since — goes out
//! fresh to every leg, still encoded once. So a leg only ever receives a
//! continuing frame whose predecessor it holds, and a subscriber that
//! nevertheless sees a gap — a fault on its socket — skips a frame it has
//! read already and reconnects on anything else.
//!
//! Semantics match `sdci_mq::pubsub`: best-effort delivery with a
//! per-subscriber high-water mark. Backpressure from a slow socket —
//! a subscriber whose reader falls behind — fills that subscriber's leg
//! queue, and the broker sheds newer messages for that subscriber only,
//! exactly what happens in-process; a payload counts as shed only when
//! every leg it matched shed it.
//!
//! The subscriber end is driven by its reader, not by a worker of its
//! own: each `recv*` call reads the socket on the caller's thread, and
//! redials forever with jittered exponential backoff ([`Backoff`]) when
//! the link is lost. The broker probes an idle connection with `Ping`
//! frames, so a dead peer is detected within the configured liveness
//! window.

use crate::conn::{Backoff, NetConfig};
use crate::endpoint::{dial, Conn, Handler};
use crate::faulted::FaultedWriter;
use crate::wire::{
    continuity_gap, timed_out, write_deliver_batch_bin, write_msg_bin, BinEncoder, ContinuityGap,
    Frame, FrameReader, Service,
};
use sdci_mq::pubsub::Message;
use sdci_mq::transport::{Publish, PublishOutcome, Subscribe};
use sdci_types::BinPayload;
use std::collections::VecDeque;
use std::io::Write;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counter snapshot for a [`TcpBroker`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TcpBrokerStats {
    /// Subscriber connections accepted.
    pub accepted: u64,
    /// Frames delivered to remote subscribers.
    pub frames_out: u64,
}

#[derive(Debug, Default)]
struct BrokerCounters {
    accepted: AtomicU64,
    frames_out: AtomicU64,
}

/// A feed served to remote subscribers: the [`Handler`] for
/// [`Service::Subscriber`], and the [`Publish`] its owner writes the
/// feed through.
///
/// Remote processes connect with [`TcpSubscriber`]. Shutting the
/// endpoint down drains queued messages to connected subscribers and
/// sends them `Fin`.
pub struct TcpBroker<T> {
    counters: BrokerCounters,
    fanout: parking_lot::Mutex<Fanout>,
    payload: PhantomData<fn(T)>,
}

/// One encoded publish, frozen for fan-out: the frame bytes are rendered
/// once and shared by reference across every matching subscriber leg.
#[derive(Clone)]
struct DeliverChunk {
    /// One or more complete wire frames, concatenated.
    bytes: Arc<[u8]>,
    /// Frames in `bytes`, for `frames_out` accounting.
    frames: u64,
}

/// A connected remote subscriber, as the fan-out sees it.
struct FanoutLeg {
    prefixes: Vec<String>,
    tx: crossbeam_channel::Sender<DeliverChunk>,
    /// Whether the leg took the encoder's last frame, so the next may
    /// continue it; false for a leg that just joined.
    synced: bool,
}

impl FanoutLeg {
    /// Same prefix semantics as the local broker's fan-out: an empty
    /// prefix (`""`) matches everything.
    fn matches(&self, topic: &str) -> bool {
        self.prefixes.iter().any(|p| topic.starts_with(p.as_str()))
    }
}

/// What a publish needs, under the broker's one lock: the encoder whose
/// history the legs' frames continue, and the legs.
#[derive(Default)]
struct Fanout {
    enc: BinEncoder,
    legs: Vec<FanoutLeg>,
}

impl<T> std::fmt::Debug for TcpBroker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBroker").finish_non_exhaustive()
    }
}

impl<T> TcpBroker<T>
where
    T: Send + BinPayload + 'static,
{
    /// A feed with no subscriber yet, to be shared by the
    /// [`Endpoint`](crate::Endpoint) that serves it and the publisher that
    /// writes it.
    pub fn new() -> Arc<Self> {
        Arc::new(TcpBroker {
            counters: BrokerCounters::default(),
            fanout: parking_lot::Mutex::default(),
            payload: PhantomData,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TcpBrokerStats {
        TcpBrokerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            frames_out: self.counters.frames_out.load(Ordering::Relaxed),
        }
    }

    /// Encodes one publish once — fresh when a matching leg did not take
    /// the encoder's last frame — and feeds the frozen bytes to every
    /// matching leg, noting under the same lock which legs now hold what
    /// the encoder wrote. Returns whether the publish was shed: matched
    /// by a leg and taken by none, or not encodable (a frame over
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN), say), after which
    /// the next goes out fresh. An empty publish, or one no leg matches,
    /// is not encoded.
    fn fan_out(&self, topic: &str, batch: &[T]) -> bool {
        let mut fanout = self.fanout.lock();
        let Fanout { enc, legs } = &mut *fanout;
        let matching = || legs.iter().filter(|leg| leg.matches(topic));
        if batch.is_empty() || matching().next().is_none() {
            return false;
        }
        if matching().any(|leg| !leg.synced) {
            enc.start_fresh();
        }
        let shed = sdci_obs::static_metric!(counter, "sdci_net_fanout_shed_total");
        let chunk = match encode_batch(enc, topic, batch) {
            Ok(chunk) => chunk,
            Err(e) => {
                sdci_obs::error!("fan-out could not encode a publish; shed for every subscriber";
                    topic = topic, messages = batch.len(), error = e.to_string());
                shed.add(batch.len() as u64);
                enc.start_fresh();
                legs.iter_mut().for_each(|leg| leg.synced = false);
                return true;
            }
        };
        let mut taken = false;
        legs.retain_mut(|leg| {
            if !leg.matches(topic) {
                leg.synced = false;
                return true;
            }
            match leg.tx.try_send(chunk.clone()) {
                Ok(()) => {
                    leg.synced = true;
                    taken = true;
                    true
                }
                Err(crossbeam_channel::TrySendError::Full(_)) => {
                    // This leg's socket fell behind: shed for it alone —
                    // the same high-water-mark contract as in-process.
                    shed.add(batch.len() as u64);
                    leg.synced = false;
                    true
                }
                Err(crossbeam_channel::TrySendError::Disconnected(_)) => false,
            }
        });
        !taken
    }
}

impl<T> Publish<T> for TcpBroker<T>
where
    T: Send + BinPayload + 'static,
{
    fn publish(&self, topic: &str, payload: T) -> PublishOutcome {
        if self.fan_out(topic, std::slice::from_ref(&payload)) {
            PublishOutcome::Shed
        } else {
            PublishOutcome::Delivered
        }
    }

    /// The batch is one publish: encoded once, and shed whole or not at all.
    fn publish_batch(&self, topic: &str, batch: &mut Vec<T>) -> usize {
        let shed = if self.fan_out(topic, batch) { batch.len() } else { 0 };
        batch.clear();
        shed
    }
}

impl<T> Handler for TcpBroker<T>
where
    T: Send + BinPayload + 'static,
{
    fn services(&self) -> &'static [&'static str] {
        &["subscriber"]
    }

    fn serve(&self, service: Service, conn: Conn) {
        let Service::Subscriber { prefixes } = service else { return };
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        serve_subscriber::<T>(conn, prefixes, &self.counters, &self.fanout);
    }

    /// Releases the subscriber legs: every publish is already in their
    /// queues, so dropping their senders lets each drain and `Fin`.
    fn drain(&self) {
        self.fanout.lock().legs.clear();
    }
}

/// Serves one remote subscriber: ships the encode-once chunks the broker
/// queues for this leg down its socket, probing with `Ping` while idle.
/// On shutdown the drain drops the leg's sender, and what is queued
/// drains — through the same crash-pointed write path as live traffic —
/// before the `Fin`; a leg that joined after the drain ends at its first
/// idle tick.
fn serve_subscriber<T: BinPayload>(
    conn: Conn,
    prefixes: Vec<String>,
    counters: &BrokerCounters,
    fanout: &parking_lot::Mutex<Fanout>,
) {
    let Conn { mut writer, cfg, stop, .. } = conn;
    // Crash point: a broker that dies right after the handshake leaves
    // the client reconnecting with backoff — the chaos tests kill here
    // to prove subscribers survive it.
    if sdci_faults::crash_point("net.pubsub.greet").is_err() {
        return;
    }
    let (tx, rx) = crossbeam_channel::bounded::<DeliverChunk>(cfg.hwm.max(1));
    fanout.lock().legs.push(FanoutLeg { prefixes, tx, synced: false });
    // The scratch the leg's own frames — pings, its `Fin` — are written
    // through; its batches come encoded from the publisher.
    let mut enc = BinEncoder::new();
    let mut last_write = Instant::now();
    loop {
        match rx.recv_timeout(cfg.heartbeat) {
            Ok(chunk) => {
                // Crash point: dying between the dequeue and the socket
                // write loses the in-flight chunk for this subscriber
                // only — the lossy fanout contract. Both the live path
                // and the shutdown drain pass through here, so chaos
                // schedules can fault the graceful drain too.
                if sdci_faults::crash_point("net.pubsub.fanout").is_err() {
                    return;
                }
                if write_chunk(&mut writer, &chunk.bytes).is_err() {
                    return; // peer gone; dropping `rx` detaches the leg
                }
                counters.frames_out.fetch_add(chunk.frames, Ordering::Relaxed);
                last_write = Instant::now();
            }
            // Drained and dropped by the broker, or idle while the
            // endpoint stops — a leg that joined after the drain has no
            // sender left to drop: graceful drain complete.
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
            Err(crossbeam_channel::RecvTimeoutError::Timeout) if stop.load(Ordering::Relaxed) => {
                break
            }
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                if last_write.elapsed() >= cfg.heartbeat
                    && write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Ping).is_err()
                {
                    return;
                }
            }
        }
    }
    let _ = write_msg_bin(&mut writer, &mut enc, &Frame::<T>::Fin);
}

/// Renders one publish as `DeliverBatch` frames — one, unless the
/// writer's own member or byte cap splits it — into a frozen chunk.
fn encode_batch<T: BinPayload>(
    enc: &mut BinEncoder,
    topic: &str,
    batch: &[T],
) -> std::io::Result<DeliverChunk> {
    let mut buf = Vec::new();
    let frames = write_deliver_batch_bin(&mut buf, enc, topic, batch, None)?;
    Ok(DeliverChunk { bytes: buf.into(), frames: frames as u64 })
}

/// Writes one fan-out chunk, re-splitting the concatenated frames so
/// each gets its own `flush` — the frame-alignment invariant
/// [`FaultedWriter`](crate::faulted::FaultedWriter) relies on to keep
/// injected faults from desynchronizing the length-prefixed stream.
fn write_chunk(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    let mut off = 0;
    while off + 4 <= bytes.len() {
        let word = u32::from_be_bytes(std::array::from_fn(|i| bytes[off + i]));
        let end = off + 4 + word as usize;
        w.write_all(&bytes[off..end])?;
        w.flush()?;
        off = end;
    }
    Ok(())
}

/// One connection of a [`TcpSubscriber`] to its broker.
struct Link {
    reader: FrameReader<TcpStream>,
    /// The write half stays open, unused, for the connection's length.
    _writer: FaultedWriter<TcpStream>,
    since: Instant,
    last_traffic: Instant,
}

/// What a [`TcpSubscriber`]'s readers drive, one at a time.
struct Session<T> {
    link: Option<Link>,
    /// Messages of a frame read already and not yet handed out.
    ready: VecDeque<Message<T>>,
    backoff: Backoff,
    /// No redial before this instant.
    redial_at: Instant,
}

impl<T> Session<T> {
    /// Drops the connection, if any, and schedules the redial; one that
    /// lived `healthy_after` proved the broker up and restarts the backoff.
    fn hang_up(&mut self, healthy_after: Duration) {
        if self.link.take().is_some_and(|link| link.since.elapsed() >= healthy_after) {
            self.backoff.reset();
        }
        self.redial_at = Instant::now() + self.backoff.next_delay();
    }
}

/// A supervised TCP subscription, driven by its reader: [`Subscribe`]'s
/// `recv`, `recv_timeout` and `try_recv` read the broker's frames on the
/// caller's thread, and redial with jittered backoff, never sleeping past
/// the caller's deadline, when the link fails, goes silent past
/// [`NetConfig::liveness`] or ends with `Fin`. It owns no thread, and no
/// queue but the rest of the last frame it read: a reader that falls
/// behind is shed by the broker's leg, at the broker's [`NetConfig::hwm`]
/// chunks. An [`EventConsumer`] built on it sees a shed or a reconnection
/// only as a sequence gap, and backfills it from the store.
///
/// [`EventConsumer`]: https://docs.rs/sdci-core
pub struct TcpSubscriber<T> {
    addr: SocketAddr,
    prefixes: Vec<String>,
    cfg: NetConfig,
    session: parking_lot::Mutex<Session<T>>,
    /// Successful connections (1 = never lost the link).
    connections: AtomicU64,
}

impl<T> std::fmt::Debug for TcpSubscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSubscriber").finish_non_exhaustive()
    }
}

impl<T: Send + BinPayload + 'static> TcpSubscriber<T> {
    /// Subscribes to `addr` for the given topic prefixes: dials and
    /// greets once on the calling thread, so [`TcpSubscriber::connections`]
    /// is 1 on return unless that dial failed, which the next read retries.
    pub fn connect(addr: SocketAddr, prefixes: &[&str], cfg: NetConfig) -> Self {
        let (backoff, redial_at) = (Backoff::new(cfg.retry), Instant::now());
        let session = Session { link: None, ready: VecDeque::new(), backoff, redial_at }.into();
        let prefixes = prefixes.iter().map(|s| s.to_string()).collect();
        let sub = TcpSubscriber { addr, prefixes, cfg, session, connections: AtomicU64::new(0) };
        sub.dial(&mut sub.session.lock());
        sub
    }

    /// Messages this end shed: none, as it holds no queue to shed from —
    /// a reader that falls behind is shed by the broker's leg, counted
    /// in `sdci_net_fanout_shed_total`.
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Successful connections so far (>1 means the link was re-established).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    fn dial(&self, session: &mut Session<T>) {
        let hello = Service::Subscriber { prefixes: self.prefixes.clone() };
        let Ok((reader, _writer)) = dial(&self.cfg, self.addr, hello) else {
            return session.hang_up(self.cfg.liveness);
        };
        if self.connections.fetch_add(1, Ordering::Relaxed) > 0 {
            sdci_obs::static_metric!(counter, "sdci_net_subscriber_reconnects_total").inc();
        }
        let now = Instant::now();
        session.link = Some(Link { reader, _writer, since: now, last_traffic: now });
    }

    /// Hands out the next message, reading the feed and redialing on the
    /// caller's thread until `deadline` (`None`: none) passes.
    fn next(&self, deadline: Option<Instant>) -> Option<Message<T>> {
        let mut guard = self.session.lock();
        let session = &mut *guard;
        loop {
            if let Some(msg) = session.ready.pop_front() {
                return Some(msg);
            }
            let now = Instant::now();
            let left = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
            let Some(link) = session.link.as_mut() else {
                if now >= session.redial_at {
                    self.dial(session);
                } else if left.is_zero() {
                    return None;
                } else {
                    std::thread::sleep((session.redial_at - now).min(left));
                }
                continue;
            };
            match read_within::<T>(link, left.min(self.cfg.heartbeat)) {
                Ok(Frame::DeliverBatch { topic, payloads, trace: _ }) => {
                    link.last_traffic = Instant::now();
                    for payload in payloads {
                        session.ready.push_back(Message { topic: topic.clone(), payload });
                    }
                }
                Ok(Frame::Ping) => link.last_traffic = Instant::now(),
                // The broker drained and went away; it may be restarted.
                Ok(Frame::Fin) => session.hang_up(self.cfg.liveness),
                Ok(_) => {}
                // A frame read already, delivered again: none of it was
                // read this time, and the history it continues stands.
                Err(e) if continuity_gap(&e).is_some_and(ContinuityGap::is_duplicate) => {
                    link.last_traffic = Instant::now();
                }
                Err(e) if timed_out(&e) => {
                    if link.last_traffic.elapsed() > self.cfg.liveness {
                        session.hang_up(self.cfg.liveness);
                    } else if deadline.is_some_and(|d| Instant::now() >= d) {
                        return None;
                    }
                }
                // Any other gap means a frame this leg was sent never
                // arrived: a new connection starts fresh, and the
                // consumer heals what it missed from the store.
                Err(e) => {
                    if let Some(gap) = continuity_gap(&e) {
                        sdci_obs::warn!("feed frame continues one never read; reconnecting";
                            error = gap.to_string());
                    }
                    session.hang_up(self.cfg.liveness);
                }
            }
        }
    }
}

/// Reads one frame, waiting at most `wait`; a zero wait takes only what
/// has arrived.
fn read_within<T: BinPayload>(link: &mut Link, wait: Duration) -> std::io::Result<Frame<T>> {
    let socket = link.reader.get_ref();
    socket.set_nonblocking(wait.is_zero())?;
    if !wait.is_zero() {
        socket.set_read_timeout(Some(wait))?;
    }
    link.reader.read_msg()
}

impl<T: Send + BinPayload + 'static> Subscribe<T> for TcpSubscriber<T> {
    fn recv(&self) -> Option<Message<T>> {
        self.next(None)
    }

    fn try_recv(&self) -> Option<Message<T>> {
        self.next(Some(Instant::now()))
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message<T>> {
        self.next(Instant::now().checked_add(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    /// A subscriber whose hello was read just before the endpoint
    /// stopped is served after the drain released the legs: its leg must
    /// still end, or `Endpoint::shutdown` would wait on its thread.
    #[test]
    fn a_leg_that_joins_after_the_drain_ends_with_fin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let broker = TcpBroker::<u64>::new();
        broker.drain();
        let conn = Conn {
            reader: FrameReader::new(server.try_clone().unwrap()),
            writer: FaultedWriter::new(server, None),
            cfg: NetConfig { heartbeat: Duration::from_millis(20), ..NetConfig::default() },
            stop: Arc::new(AtomicBool::new(true)),
        };
        let serving = std::thread::spawn({
            let broker = Arc::clone(&broker);
            move || broker.serve(Service::Subscriber { prefixes: vec![String::new()] }, conn)
        });
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frame = FrameReader::new(client).read_msg::<Frame<u64>>().unwrap();
        assert!(matches!(frame, Frame::Fin), "got {frame:?}");
        serving.join().unwrap();
    }
}
