//! The fan-out continues a frame only for legs that hold its
//! predecessor: a `TcpBroker` encodes each publish once, and
//! codes it against the publish before it only when every leg it goes to
//! took that one. Subscribers here are read by hand, frame by frame, each
//! body decoded as the connection's reader decodes it — so a frame
//! continuing one its leg never received would show as a `ContinuityGap`
//! — except the last test's, an `EventConsumer` over a faulted
//! `TcpSubscriber` and a `RemoteStore`. Payloads are `FeedMessage`s with
//! dense sequence numbers and `steady`-shaped paths: 64 directories,
//! fixed-width names.

use sdci_core::{
    Aggregator, EventConsumer, EventStore, FeedMessage, SequencedEvent, INGEST_QUEUE_FRAMES,
};
use sdci_mq::pipe::pipeline;
use sdci_mq::transport::Publish;
use sdci_net::wire::{write_hello, BinEncoder, Frame, FrameReader, Service, WireMsg};
use sdci_net::{
    Endpoint, Handler, NetConfig, RemoteStore, RetryPolicy, StoreServer, TcpBroker, TcpSubscriber,
};
use sdci_types::bin::History;
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame-header flags bit 2: the frame continues its connection.
const CONTINUES: u8 = 4;

fn fast_cfg() -> NetConfig {
    NetConfig {
        hwm: 8192,
        window: 1024,
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(500),
        ..NetConfig::default()
    }
}

/// An event of the benchmark's `steady` shape, the `i`th of its stream.
fn dir_event(i: u64) -> FileEvent {
    FileEvent {
        index: 70_000 + i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(90_000_000 + 1_000 * i),
        path: format!("/t0a1b2c3/d{:07x}/f{:011x}", (i * 37) % 64, i * 0x9e37_79b9).into(),
        src_path: None,
        target: Fid::new(0x2_4000_0400, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: Some(1_790_000_000_123_456_789),
        trace: None,
    }
}

/// The broker's one stream of publishes, sequenced densely from 1, as the
/// aggregator's feed is.
struct Feed {
    publisher: Arc<TcpBroker<FeedMessage>>,
    next_seq: u64,
}

impl Feed {
    /// Publishes `n` events on `topic` as one batch; returns the last
    /// sequence number.
    fn publish(&mut self, topic: &str, n: u64) -> u64 {
        let mut batch = (self.next_seq..self.next_seq + n)
            .map(|seq| FeedMessage::Event(SequencedEvent { seq, event: dir_event(seq) }))
            .collect();
        self.publisher.publish_batch(topic, &mut batch);
        self.next_seq += n;
        self.next_seq - 1
    }
}

/// A frame body exactly as it arrived, undecoded.
struct Raw {
    body: Vec<u8>,
}

impl WireMsg for Raw {
    fn encode(&self, _enc: &mut BinEncoder, buf: &mut Vec<u8>) -> std::io::Result<()> {
        buf.extend_from_slice(&self.body);
        Ok(())
    }

    fn decode_in(body: &[u8], _history: Option<&mut History>) -> std::io::Result<Self> {
        Ok(Raw { body: body.to_vec() })
    }
}

/// One data frame a leg received: its body, whether it continued the one
/// before, and the sequence numbers it decoded to.
struct Got {
    body: Vec<u8>,
    continues: bool,
    seqs: Vec<u64>,
}

/// A subscriber read by hand: its hello sent, each data frame decoded
/// against the connection's history as `FrameReader::read_msg` would —
/// and a frame that does not decode fails the test.
struct RawSub {
    reader: FrameReader<TcpStream>,
    _writer: TcpStream,
    history: History,
    frames: Vec<Got>,
}

impl RawSub {
    fn connect(addr: SocketAddr, prefixes: &[&str]) -> RawSub {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let prefixes = prefixes.iter().map(|p| p.to_string()).collect();
        write_hello(&mut writer, Service::Subscriber { prefixes }).unwrap();
        RawSub {
            reader: FrameReader::new(stream),
            _writer: writer,
            history: History::default(),
            frames: Vec::new(),
        }
    }

    /// Reads the next data frame within `window` and keeps it; false if
    /// none came.
    fn read(&mut self, window: Duration) -> bool {
        let deadline = Instant::now() + window;
        while Instant::now() < deadline {
            let Raw { body } = match self.reader.read_msg() {
                Ok(raw) => raw,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("the connection failed: {e}"),
            };
            let continues = body[1] & CONTINUES != 0;
            let seqs = match Frame::<FeedMessage>::decode_on(&body, &mut self.history) {
                Ok(Frame::DeliverBatch { payloads, .. }) => payloads
                    .iter()
                    .map(|m| match m {
                        FeedMessage::Event(sev) => sev.seq,
                        other => panic!("a heartbeat on this feed: {other:?}"),
                    })
                    .collect(),
                Ok(Frame::Ping) => continue,
                Ok(other) => panic!("expected a deliver batch, got {other:?}"),
                Err(e) => panic!("frame {} did not decode: {e}", self.frames.len()),
            };
            self.frames.push(Got { body, continues, seqs });
            return true;
        }
        false
    }

    /// Reads frames until one carries `seq` or a later number.
    fn until(&mut self, seq: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.last_seq() < Some(seq) {
            assert!(Instant::now() < deadline, "sequence {seq} never arrived");
            self.read(Duration::from_millis(100));
        }
    }

    fn last_seq(&self) -> Option<u64> {
        self.frames.last().and_then(|got| got.seqs.last().copied())
    }

    /// Every sequence number received, in order.
    fn seqs(&self) -> Vec<u64> {
        self.frames.iter().flat_map(|got| got.seqs.iter().copied()).collect()
    }
}

/// Connects a subscriber and publishes a one-event probe on `topic`
/// every 10 ms until a frame reaches it: from then on its leg is
/// registered, and it takes every publish it matches.
fn join(addr: SocketAddr, prefixes: &[&str], feed: &mut Feed, topic: &str) -> RawSub {
    let mut sub = RawSub::connect(addr, prefixes);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "the subscriber never joined");
        feed.publish(topic, 1);
        if sub.read(Duration::from_millis(10)) {
            return sub;
        }
    }
}

/// A broker serving feeds over `cfg`, and its stream of publishes.
fn broker(cfg: NetConfig) -> (Arc<TcpBroker<FeedMessage>>, Endpoint, Feed) {
    let broker = TcpBroker::<FeedMessage>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", cfg, vec![broker.clone()]).unwrap();
    let feed = Feed { publisher: broker.clone(), next_seq: 1 };
    (broker, endpoint, feed)
}

/// Every sequence number from `sub`'s first frame to its last, densely:
/// nothing it was sent went missing or failed to decode.
fn assert_dense(what: &str, sub: &RawSub) {
    let seqs = sub.seqs();
    let want: Vec<u64> = (seqs[0]..=seqs[seqs.len() - 1]).collect();
    assert_eq!(seqs, want, "{what}: received out of order or with a hole");
}

/// (a) A subscriber that joins mid-stream: its first data frame is fresh
/// — the frame that follows is coded against nothing it never saw — and
/// from there the frames continue on both legs, which decode every event
/// each was sent.
#[test]
fn a_subscriber_that_joins_mid_stream_gets_a_fresh_frame_first() {
    let (_broker, endpoint, mut feed) = broker(fast_cfg());
    let addr = endpoint.local_addr();
    let mut early = join(addr, &["feed/"], &mut feed, "feed/all");
    for _ in 0..5 {
        feed.publish("feed/all", 50);
    }
    let mut late = join(addr, &["feed/"], &mut feed, "feed/all");
    assert!(!late.frames[0].continues, "a joining leg's first frame is fresh");
    let joined_at = late.frames[0].seqs[0];
    let mut last = 0;
    for _ in 0..5 {
        last = feed.publish("feed/all", 50);
    }
    early.until(last);
    late.until(last);

    for (what, sub) in [("early", &early), ("late", &late)] {
        assert_dense(what, sub);
        assert_eq!(sub.last_seq(), Some(last), "{what}");
        let after: Vec<&Got> = sub.frames.iter().filter(|got| got.seqs[0] > joined_at).collect();
        assert!(!after.is_empty() && after.iter().all(|got| got.continues), "{what}: fresh again");
    }
    assert!(early.frames[1..].iter().any(|got| got.continues), "the early leg's frames continue");
    endpoint.shutdown();
}

/// (b) A leg at `hwm = 1` behind a stalled reader sheds. Once its reader
/// reads again, every frame it receives decodes — none continues a frame
/// it never got — and the frame after a hole in its sequence numbers is
/// fresh. A second leg, read all along, decodes every frame too.
#[test]
fn a_leg_that_shed_gets_a_fresh_frame_next_and_sees_no_gap() {
    let shed_total = || sdci_obs::registry().counter("sdci_net_fanout_shed_total").get();
    let (_broker, endpoint, mut feed) = broker(NetConfig { hwm: 1, ..fast_cfg() });
    let addr = endpoint.local_addr();
    let mut healthy = join(addr, &[""], &mut feed, "feed/all");
    let mut stalled = join(addr, &[""], &mut feed, "feed/all");

    // The stalled reader reads nothing: its socket fills, then its
    // one-chunk queue, and the leg sheds. Each publish waits for the
    // healthy leg, so its one-chunk queue never does.
    let before = shed_total();
    let deadline = Instant::now() + Duration::from_secs(60);
    while shed_total() == before {
        assert!(Instant::now() < deadline, "the stalled leg never shed");
        let last = feed.publish("feed/all", 1_000);
        healthy.until(last);
    }
    let mut last = 0;
    for _ in 0..3 {
        last = feed.publish("feed/all", 50);
        healthy.until(last);
    }

    // The reader reads again; publishes go on until one made after the
    // shed reaches it.
    let stalled = std::thread::scope(|scope| {
        let reading = scope.spawn(move || {
            stalled.until(last + 1);
            stalled
        });
        while !reading.is_finished() {
            let last = feed.publish("feed/all", 50);
            healthy.until(last);
            std::thread::sleep(Duration::from_millis(20));
        }
        reading.join().unwrap()
    });

    let holes: Vec<usize> = (1..stalled.frames.len())
        .filter(|&i| stalled.frames[i].seqs[0] != stalled.frames[i - 1].seqs.last().unwrap() + 1)
        .collect();
    assert!(!holes.is_empty(), "the stalled leg lost nothing");
    for i in holes {
        assert!(!stalled.frames[i].continues, "frame {i}, after a hole, continues");
    }
    assert_dense("healthy", &healthy);
    endpoint.shutdown();
}

/// (c) Two legs on disjoint prefixes and one on `""`, publishes
/// alternating topics two at a time: the second of a run continues the
/// first for every leg it goes to, the first of a run goes fresh — the
/// leg of its topic missed the run before — and every leg decodes every
/// frame it gets, the events of its own topics and no others.
#[test]
fn legs_on_different_topics_decode_every_frame_they_get() {
    let (_broker, endpoint, mut feed) = broker(fast_cfg());
    let addr = endpoint.local_addr();
    let mut alpha = join(addr, &["a/"], &mut feed, "a/probe");
    let mut beta = join(addr, &["b/"], &mut feed, "b/probe");
    let mut all = join(addr, &[""], &mut feed, "a/probe");
    let start = feed.next_seq;
    let mut published: Vec<(bool, std::ops::RangeInclusive<u64>)> = Vec::new();
    for run in 0..12 {
        let first = feed.next_seq;
        let topic = if (run / 2) % 2 == 0 { "a/x" } else { "b/x" };
        let last = feed.publish(topic, 50);
        published.push((topic == "a/x", first..=last));
    }
    let last = feed.next_seq - 1;
    all.until(last);
    let of = |alpha: bool| -> Vec<u64> {
        published.iter().filter(|(a, _)| *a == alpha).flat_map(|(_, r)| r.clone()).collect()
    };
    alpha.until(*of(true).last().unwrap());
    beta.until(*of(false).last().unwrap());

    let since =
        |sub: &RawSub| -> Vec<u64> { sub.seqs().into_iter().filter(|&s| s >= start).collect() };
    assert_eq!(since(&alpha), of(true), "alpha");
    assert_eq!(since(&beta), of(false), "beta");
    assert_eq!(since(&all), (start..=last).collect::<Vec<_>>(), "all");
    for (what, sub) in [("alpha", &alpha), ("beta", &beta), ("all", &all)] {
        let frames: Vec<&Got> = sub.frames.iter().filter(|got| got.seqs[0] >= start).collect();
        assert!(frames.iter().any(|got| got.continues), "{what}: nothing continued");
        assert!(frames.iter().any(|got| !got.continues), "{what}: nothing fresh");
    }
    endpoint.shutdown();
}

/// (d) A subscriber whose reader drops frames, and — in a second run —
/// duplicates them: the `EventConsumer` over it and a `RemoteStore` hands
/// back every event exactly once and in order. A duplicate is skipped at
/// no cost; a drop costs at most one reconnect, after which the new leg
/// starts fresh and the consumer heals the hole from the store.
#[test]
fn a_faulted_subscriber_loses_nothing_and_reconnects_only_for_drops() {
    let counter = |name: &str, labels: &[(&str, &str)]| -> u64 {
        sdci_obs::registry().counter_with(name, labels).get()
    };
    let reconnects = || sdci_obs::registry().counter("sdci_net_subscriber_reconnects_total").get();
    let drops = || counter("sdci_faults_injected_total", &[("dir", "recv"), ("kind", "drop")]);
    for spec in ["seed=11,recv.drop=0.08", "seed=11,recv.dup=0.05"] {
        let (events, frames) = pipeline::<Vec<FileEvent>>(INGEST_QUEUE_FRAMES);
        let feed = TcpBroker::<FeedMessage>::new();
        let agg = Aggregator::start(frames, Arc::new(EventStore::new(100_000)), feed.clone());
        let handlers: Vec<Arc<dyn Handler>> = vec![feed, StoreServer::new(agg.store())];
        let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), handlers).unwrap();
        let addr = endpoint.local_addr();
        let plan = Arc::new(sdci_faults::FaultPlan::parse(spec).unwrap());
        let (reconnects_before, drops_before) = (reconnects(), drops());
        let sub = TcpSubscriber::connect(addr, &["feed/"], fast_cfg().with_faults(Some(plan)));
        let mut consumer = EventConsumer::new(sub, RemoteStore::connect(addr, fast_cfg()), 0);

        // The subscription must be live before the events it is to see
        // are published: a heartbeat reaching it says so.
        assert!(events.send(vec![dir_event(1)]));
        assert!(consumer.next_timeout(Duration::from_secs(10)).is_some(), "{spec}: never joined");
        const FRAMES: u64 = 40;
        const EACH: u64 = 50;
        for frame in 0..FRAMES {
            let batch = (0..EACH).map(|i| dir_event(2 + frame * EACH + i)).collect();
            assert!(events.send(batch));
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut got = vec![dir_event(1)];
        while got.len() < (1 + FRAMES * EACH) as usize {
            let event = consumer.next_timeout(Duration::from_secs(20));
            got.push(event.unwrap_or_else(|| panic!("{spec}: stalled after {}", got.len())));
        }
        let want: Vec<FileEvent> = (1..=1 + FRAMES * EACH).map(dir_event).collect();
        assert_eq!(got, want, "{spec}: lost, duplicated, reordered or misdecoded");
        assert_eq!(consumer.stats().lost, 0, "{spec}");
        let (reconnected, dropped) = (reconnects() - reconnects_before, drops() - drops_before);
        if spec.contains("dup") {
            assert_eq!(reconnected, 0, "{spec}: a duplicate cost a reconnect");
        } else {
            assert!(reconnected <= dropped, "{spec}: {reconnected} reconnects for {dropped} drops");
        }
        drop(consumer);
        endpoint.shutdown();
        agg.shutdown();
    }
}

/// (e) Three legs that took every frame: each publish leaves as one
/// frame a leg — `frames_out` is legs × frames — and the continuing
/// frames are byte for byte the same on every leg: one encoding, shared.
#[test]
fn three_synced_legs_share_one_continuing_encoding() {
    const FRAMES: usize = 8;
    let (broker, endpoint, mut feed) = broker(fast_cfg());
    let addr = endpoint.local_addr();
    let mut legs: Vec<RawSub> =
        (0..3).map(|_| join(addr, &["feed/"], &mut feed, "feed/all")).collect();
    let probed = feed.next_seq - 1;
    for leg in &mut legs {
        leg.until(probed);
    }
    let counted = |want: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.stats().frames_out < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        broker.stats().frames_out
    };
    // A leg counts a frame just after writing it: the baseline is taken
    // once every probe frame the legs read has been counted.
    let frames_before = counted(legs.iter().map(|leg| leg.frames.len() as u64).sum());

    let mut last = 0;
    for _ in 0..FRAMES {
        last = feed.publish("feed/all", 50);
    }
    for leg in &mut legs {
        leg.until(last);
    }
    assert_eq!(counted(frames_before + 3 * FRAMES as u64) - frames_before, 3 * FRAMES as u64);
    let bodies = |leg: &RawSub| -> Vec<Vec<u8>> {
        let from = leg.frames.len() - FRAMES;
        leg.frames[from..].iter().map(|got| got.body.clone()).collect()
    };
    for leg in &legs {
        assert!(leg.frames[leg.frames.len() - FRAMES..].iter().all(|got| got.continues));
        assert_eq!(bodies(leg), bodies(&legs[0]), "one encoding for every leg");
    }
    endpoint.shutdown();
}
