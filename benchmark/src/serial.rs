//! The serial chain: the pipeline's job on one thread with no sockets.
//!
//! ```text
//! Collector::run_once -> wire::write_item_batch_bin -> FrameReader::read_msg
//!   -> EventBackend::insert_batch -> wire::write_deliver_batch_bin
//!   -> FrameReader::read_msg -> EventConsumer::try_next
//! ```
//!
//! Every call above is the repository's own public function, timed from
//! outside; what sits between them (assigning sequence numbers, cloning
//! the batch for the store as the aggregator's ingest thread does,
//! wrapping events as feed messages, queueing them for the consumer) is
//! the benchmark's glue and is not timed. The chain runs batch by batch
//! (256 records, the collector's `batch_size` and the aggregator's
//! ingest batch) in slices of 8,192 events — four store segments — and
//! the calibration kernel runs between slices (see `calib.rs`). Costs are
//! the calling thread's CPU time, not wall time.
//!
//! The `backfill` workload uses the same layers to read: each slice's
//! events are inserted untimed, then the consumer heals them as eight
//! 1,024-event gaps through a loop-back store RPC (query → encode
//! `StoreRpc::Batch` → decode), plus one prefix query.

use crate::alloc::thread_tally;
use crate::calib::{thread_cpu_ns, Kernel, Sample};
use crate::oracle::Oracle;
use crate::spans::{Recorder, NO_PARENT};
use crate::sut::STORE_CAPACITY;
use crate::workload::{Expected, Generator, Rng, Workload, HOT_DIRS, MDT};
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use sdci_core::{
    Collector, EventBackend, EventConsumer, FeedMessage, MonitorConfig, SequencedEvent, StoreError,
    StoreQuery, StoreStack,
};
use sdci_mq::pubsub::Message;
use sdci_mq::transport::{Publish, PublishOutcome, Subscribe};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{self, BinEncoder, Frame, FrameReader};
use sdci_types::FileEvent;
use std::collections::VecDeque;
use std::io::Read;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per slice: four store segments at capacity 65,536, so every
/// slice seals and rotates exactly four segments and each slice carries
/// the same amortised cost.
pub const SLICE_EVENTS: usize = 8_192;
/// Records per chain batch.
const BATCH: usize = 256;
/// Gap size the consumer heals per heartbeat in `backfill`.
const PAGE: usize = 1_024;
/// Allocation and byte counts are taken over exactly this many slices
/// (the first measured ones), so they do not depend on how many slices
/// the run's time allowed.
pub const COUNTED_SLICES: usize = 64;

/// The calls the chain times, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    CollectorRunOnce,
    EncodeItem,
    DecodeItem,
    StoreInsert,
    EncodeDeliver,
    DecodeDeliver,
    ConsumerNext,
    StoreQuery,
    EncodeStoreBatch,
    DecodeStoreBatch,
}

pub const LAYERS: usize = 10;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::CollectorRunOnce,
        Layer::EncodeItem,
        Layer::DecodeItem,
        Layer::StoreInsert,
        Layer::EncodeDeliver,
        Layer::DecodeDeliver,
        Layer::ConsumerNext,
        Layer::StoreQuery,
        Layer::EncodeStoreBatch,
        Layer::DecodeStoreBatch,
    ];

    /// The span name recorded for this call.
    pub fn span(self) -> &'static str {
        match self {
            Layer::CollectorRunOnce => "collector.run_once",
            Layer::EncodeItem => "net.wire.encode_item",
            Layer::DecodeItem => "net.wire.decode_item",
            Layer::StoreInsert => "store.insert_batch",
            Layer::EncodeDeliver => "net.wire.encode_deliver",
            Layer::DecodeDeliver => "net.wire.decode_deliver",
            Layer::ConsumerNext => "consumer.next",
            Layer::StoreQuery => "store.query",
            Layer::EncodeStoreBatch => "net.wire.encode_store_batch",
            Layer::DecodeStoreBatch => "net.wire.decode_store_batch",
        }
    }
}

/// What one measured slice cost.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Events handed back (or returned by queries) by the timed calls.
    pub events: u64,
    /// Self time of each timed call, summed over the slice.
    pub layer_ns: [u64; LAYERS],
    /// Events each timed call handled, for per-layer µs/event.
    pub layer_events: [u64; LAYERS],
    /// The calibration kernel's time right before and right after the
    /// slice.
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
    /// Whether spans were being recorded during this slice.
    pub traced: bool,
    /// Allocation calls and bytes made inside the timed calls.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Frame bytes produced, by frame kind.
    pub item_bytes: u64,
    pub deliver_bytes: u64,
    pub store_batch_bytes: u64,
    pub gen_ns: u64,
    pub rotated: u64,
}

impl Slice {
    pub fn chain_ns(&self) -> u64 {
        self.layer_ns.iter().sum()
    }

    pub fn chain_us_per_event(&self) -> f64 {
        self.chain_ns() as f64 / 1e3 / self.events as f64
    }

    pub fn wire_bytes(&self) -> u64 {
        self.item_bytes + self.deliver_bytes + self.store_batch_bytes
    }

    pub fn sample(&self, value: f64) -> Sample {
        Sample { value, calib_before_ms: self.calib_before_ms, calib_after_ms: self.calib_after_ms }
    }
}

/// The collector's publisher in the chain: events land in a buffer the
/// chain swaps out after each `run_once`.
#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<FileEvent>>>);

impl Publish<FileEvent> for Sink {
    fn publish(&self, _topic: &str, payload: FileEvent) -> PublishOutcome {
        self.0.lock().push(payload);
        PublishOutcome::Delivered
    }
}

/// A socket's worth of bytes without the socket: frames are written to
/// the buffer and a long-lived `FrameReader` reads them back, so the
/// reader keeps its buffer across frames as a connection's does.
#[derive(Clone, Default)]
struct Wire(Arc<Mutex<(Vec<u8>, usize)>>);

impl Wire {
    /// Empties the buffer, lets `write` fill it, and returns the bytes
    /// written.
    fn refill(&self, write: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let mut guard = self.0.lock();
        guard.0.clear();
        guard.1 = 0;
        write(&mut guard.0);
        guard.0.len() as u64
    }
}

impl Read for Wire {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut guard = self.0.lock();
        let (data, pos) = &mut *guard;
        let n = out.len().min(data.len() - *pos);
        out[..n].copy_from_slice(&data[*pos..*pos + n]);
        *pos += n;
        Ok(n)
    }
}

/// The consumer's feed in the chain: the queue a `TcpSubscriber` would
/// fill from its socket.
struct Feed(Receiver<Message<FeedMessage>>);

impl Subscribe<FeedMessage> for Feed {
    fn recv(&self) -> Option<Message<FeedMessage>> {
        self.0.recv().ok()
    }

    fn try_recv(&self) -> Option<Message<FeedMessage>> {
        self.0.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message<FeedMessage>> {
        self.0.recv_timeout(timeout).ok()
    }
}

/// A point in time on both clocks: wall time for the spans, the calling
/// thread's CPU time for the costs. The chain runs on one thread and
/// never blocks, so the two differ only by what the scheduler and the
/// hypervisor took away — which is not the chain's cost.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    wall: Instant,
    cpu_ns: u64,
}

impl Stamp {
    /// Opens an interval: the CPU clock is read last.
    fn start() -> Stamp {
        let wall = Instant::now();
        Stamp { wall, cpu_ns: thread_cpu_ns() }
    }

    /// Closes an interval: the CPU clock is read first.
    fn end() -> Stamp {
        let cpu_ns = thread_cpu_ns();
        Stamp { wall: Instant::now(), cpu_ns }
    }
}

/// One timed call: which layer, when, at what cost.
#[derive(Debug, Clone, Copy)]
struct Call {
    layer: Layer,
    start: Stamp,
    end: Stamp,
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Call {
    fn cpu_ns(&self) -> u64 {
        self.end.cpu_ns - self.start.cpu_ns
    }
}

struct LoopbackState {
    enc: BinEncoder,
    wire: Wire,
    reader: FrameReader<Wire>,
    calls: Vec<Call>,
    reply_bytes: u64,
}

/// The store as a remote consumer sees it, minus the socket: the query
/// runs against the backend, the reply is encoded as a binary
/// `StoreRpc::Batch` frame and decoded again, and each of the three
/// steps is timed.
struct LoopbackStore {
    inner: Arc<dyn EventBackend>,
    state: Mutex<LoopbackState>,
}

impl LoopbackStore {
    fn new(inner: Arc<dyn EventBackend>) -> LoopbackStore {
        let wire = Wire::default();
        LoopbackStore {
            inner,
            state: Mutex::new(LoopbackState {
                enc: BinEncoder::new(),
                reader: FrameReader::new(wire.clone()),
                wire,
                calls: Vec::with_capacity(64),
                reply_bytes: 0,
            }),
        }
    }

    /// Timed calls and reply bytes since the last drain.
    fn drain(&self) -> (Vec<Call>, u64) {
        let mut state = self.state.lock();
        let bytes = std::mem::take(&mut state.reply_bytes);
        (state.calls.drain(..).collect(), bytes)
    }
}

/// Runs `f` (which returns its result and the events it handled) as one
/// timed call of `layer`.
fn call<T>(layer: Layer, f: impl FnOnce() -> (T, u64)) -> (T, Call) {
    let (a0, b0) = thread_tally();
    let start = Stamp::start();
    let (out, events) = f();
    let end = Stamp::end();
    let (a1, b1) = thread_tally();
    (out, Call { layer, start, end, events, allocs: a1 - a0, alloc_bytes: b1 - b0 })
}

impl EventBackend for LoopbackStore {
    fn insert_batch(&self, _events: Vec<SequencedEvent>) -> Result<(), StoreError> {
        Err(StoreError::ReadOnly("LoopbackStore"))
    }

    fn query(&self, query: &StoreQuery) -> Vec<SequencedEvent> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let (events, queried) = call(Layer::StoreQuery, || {
            let events = self.inner.query(query);
            let n = events.len() as u64;
            (events, n)
        });
        let n = events.len() as u64;
        let reply = StoreRpc::Batch { events };
        let (bytes, encoded) = call(Layer::EncodeStoreBatch, || {
            let bytes = state.wire.refill(|buf| {
                wire::write_msg_bin(buf, &mut state.enc, &reply).expect("encode store batch");
            });
            (bytes, n)
        });
        state.reply_bytes += bytes;
        drop(reply);
        let (events, decoded) = call(Layer::DecodeStoreBatch, || {
            match state.reader.read_msg::<StoreRpc>().expect("decode store batch") {
                StoreRpc::Batch { events } => (events, n),
                other => panic!("loop-back store decoded {other:?}, expected a Batch"),
            }
        });
        state.calls.extend([queried, encoded, decoded]);
        events
    }
}

/// What the serial leg reports.
pub struct Outcome {
    pub slices: Vec<Slice>,
    pub collector: sdci_core::CollectorStats,
    pub consumer: sdci_core::ConsumerStats,
    pub spans: Recorder,
}

/// The chain, set up and warm.
pub struct Chain<'a> {
    /// Store pre-fill plus the warm-up slice, in seconds.
    pub setup_s: f64,
    workload: Workload,
    generator: &'a mut Generator,
    oracle: &'a mut Oracle,
    collector: Collector<Sink>,
    sink: Sink,
    spare: Vec<FileEvent>,
    enc_item: BinEncoder,
    enc_deliver: BinEncoder,
    item_wire: Wire,
    item_reader: FrameReader<Wire>,
    deliver_wire: Wire,
    deliver_reader: FrameReader<Wire>,
    store: Arc<dyn EventBackend>,
    loopback: Arc<LoopbackStore>,
    next_seq: u64,
    feed_tx: Sender<Message<FeedMessage>>,
    consumer: EventConsumer<Feed, Arc<LoopbackStore>>,
    /// Paths by sequence number over the retained window (`backfill`
    /// only): what pages and prefix queries must return.
    retained: VecDeque<(u64, String)>,
    expected: Vec<Expected>,
    handed_back: Vec<(u64, FileEvent)>,
    shape: Rng,
    spans: Recorder,
    slice_no: u32,
}

impl Chain<'_> {
    fn note(&mut self, slice: &mut Slice, parent: u32, c: Call) -> u32 {
        let l = c.layer as usize;
        slice.layer_ns[l] += c.cpu_ns();
        slice.layer_events[l] += c.events;
        slice.allocs += c.allocs;
        slice.alloc_bytes += c.alloc_bytes;
        self.spans.record(
            c.layer.span(),
            c.start.wall,
            c.end.wall,
            parent,
            self.slice_no,
            c.events as u32,
        )
    }

    /// Runs `f` as one timed call of `layer` and charges it to `slice`
    /// (when there is one: untimed stretches pass `None`).
    fn timed<T>(
        &mut self,
        slice: Option<&mut Slice>,
        parent: u32,
        layer: Layer,
        f: impl FnOnce(&mut Self) -> (T, u64),
    ) -> T {
        let (out, made) = call(layer, || f(self));
        if let Some(slice) = slice {
            self.note(slice, parent, made);
        }
        out
    }

    fn remember(&mut self, seq: u64, path: &str) {
        if self.workload == Workload::Backfill {
            self.retained.push_back((seq, path.to_string()));
            while self.retained.len() > STORE_CAPACITY {
                self.retained.pop_front();
            }
        }
    }

    /// Collector → item frame → decode → sequence → store insert for one
    /// batch; returns the sequenced events for the deliver leg.
    fn ingest_batch(&mut self, mut slice: Option<&mut Slice>, parent: u32) -> Vec<SequencedEvent> {
        let n = self.timed(slice.as_deref_mut(), parent, Layer::CollectorRunOnce, |c| {
            let n = c.collector.run_once() as u64;
            (n, n)
        });
        std::mem::swap(&mut *self.sink.0.lock(), &mut self.spare);
        assert_eq!(self.spare.len() as u64, n, "collector published every record it read");
        let first_seq = self.next_seq;
        let bytes = self.timed(slice.as_deref_mut(), parent, Layer::EncodeItem, |c| {
            let (enc, events) = (&mut c.enc_item, &c.spare);
            let bytes = c.item_wire.refill(|buf| {
                let frames = wire::write_item_batch_bin(buf, enc, first_seq, events, None)
                    .expect("encode item batch");
                assert_eq!(frames, 1, "a 256-event batch fits one frame");
            });
            (bytes, n)
        });
        self.spare.clear();
        let payloads = self.timed(slice.as_deref_mut(), parent, Layer::DecodeItem, |c| {
            match c.item_reader.read_msg::<Frame<FileEvent>>().expect("decode item batch") {
                Frame::ItemBatch { first_seq: got, payloads, .. } => {
                    assert_eq!(got, first_seq);
                    (payloads, n)
                }
                other => panic!("item wire decoded {other:?}, expected an ItemBatch"),
            }
        });
        // Glue, as in the aggregator's ingest thread: assign sequence
        // numbers, hand the store its own copy.
        let batch: Vec<SequencedEvent> = payloads
            .into_iter()
            .map(|event| {
                let seq = self.next_seq;
                self.next_seq += 1;
                SequencedEvent { seq, event }
            })
            .collect();
        for sev in &batch {
            let path = sev.event.path.to_str().expect("generated paths are UTF-8");
            self.remember(sev.seq, path);
        }
        let copy = batch.clone();
        self.timed(slice.as_deref_mut(), parent, Layer::StoreInsert, |c| {
            c.store.insert_batch(copy).expect("store accepts ascending seqs");
            ((), n)
        });
        if let Some(slice) = slice {
            slice.item_bytes += bytes;
        }
        batch
    }

    /// Deliver frame → decode → feed queue → consumer for one batch.
    fn deliver_batch(
        &mut self,
        mut slice: Option<&mut Slice>,
        parent: u32,
        batch: Vec<SequencedEvent>,
    ) {
        let n = batch.len() as u64;
        let messages: Vec<FeedMessage> = batch.into_iter().map(FeedMessage::Event).collect();
        let bytes = self.timed(slice.as_deref_mut(), parent, Layer::EncodeDeliver, |c| {
            let (enc, messages) = (&mut c.enc_deliver, &messages);
            let bytes = c.deliver_wire.refill(|buf| {
                let frames = wire::write_deliver_batch_bin(buf, enc, "feed/all", messages, None)
                    .expect("encode deliver batch");
                assert_eq!(frames, 1, "a 256-event batch fits one frame");
            });
            (bytes, n)
        });
        drop(messages);
        let (topic, payloads) =
            self.timed(slice.as_deref_mut(), parent, Layer::DecodeDeliver, |c| {
                match c.deliver_reader.read_msg::<Frame<FeedMessage>>().expect("decode deliver") {
                    Frame::DeliverBatch { topic, payloads, .. } => ((topic, payloads), n),
                    other => panic!("deliver wire decoded {other:?}, expected a DeliverBatch"),
                }
            });
        // Glue, as in the subscriber's socket thread.
        for payload in payloads {
            self.feed_tx.send(Message { topic: topic.clone(), payload }).expect("feed queue open");
        }
        self.consume(slice.as_deref_mut(), parent);
        if let Some(slice) = slice {
            slice.deliver_bytes += bytes;
        }
    }

    /// Drains the consumer (one timed `consumer.next`, whose children are
    /// the loop-back store's calls), then checks what it handed back.
    fn consume(&mut self, slice: Option<&mut Slice>, parent: u32) {
        let wall = Instant::now();
        let span = self.spans.open(Layer::ConsumerNext.span(), wall, parent, self.slice_no);
        let (a0, b0) = thread_tally();
        let start = Stamp::start();
        while let Some(event) = self.consumer.try_next() {
            let seq = self.consumer.cursor();
            self.handed_back.push((seq, event));
        }
        let end = Stamp::end();
        let (a1, b1) = thread_tally();
        let n = self.handed_back.len() as u64;
        self.spans.close(span, end.wall, n as u32);
        let (calls, reply_bytes) = self.loopback.drain();
        if let Some(slice) = slice {
            let mut own_ns = end.cpu_ns - start.cpu_ns;
            let (mut own_allocs, mut own_bytes) = (a1 - a0, b1 - b0);
            for c in calls {
                own_ns = own_ns.saturating_sub(c.cpu_ns());
                own_allocs -= c.allocs;
                own_bytes -= c.alloc_bytes;
                self.note(slice, span, c);
            }
            let l = Layer::ConsumerNext as usize;
            slice.layer_ns[l] += own_ns;
            slice.layer_events[l] += n;
            slice.allocs += own_allocs;
            slice.alloc_bytes += own_bytes;
            slice.store_batch_bytes += reply_bytes;
            slice.events += n;
        }
        for (seq, event) in self.handed_back.drain(..) {
            let path = event.path.to_str().expect("generated paths are UTF-8");
            self.oracle.deliver(seq, event.index, path);
        }
    }

    /// Applies one slice of records to the ChangeLog and registers what
    /// must come back.
    fn generate(&mut self, slice: Option<&mut Slice>, parent: u32) {
        let start = Stamp::start();
        self.expected.clear();
        self.generator.apply(SLICE_EVENTS, &mut self.expected);
        let end = Stamp::end();
        let n = SLICE_EVENTS as u32;
        self.spans.record("gen.apply", start.wall, end.wall, parent, self.slice_no, n);
        if let Some(slice) = slice {
            slice.gen_ns = end.cpu_ns - start.cpu_ns;
        }
        self.oracle.expect(self.expected.drain(..));
    }

    /// One slice of the write path: every batch goes collector → wire →
    /// store → wire → consumer.
    fn ingest_slice(&mut self, mut slice: Option<&mut Slice>, parent: u32) {
        self.generate(slice.as_deref_mut(), parent);
        for _ in 0..SLICE_EVENTS / BATCH {
            let batch = self.ingest_batch(slice.as_deref_mut(), parent);
            self.deliver_batch(slice.as_deref_mut(), parent, batch);
        }
    }

    /// One slice of the read path: the slice's events are inserted
    /// untimed, then the consumer heals them page by page from the store,
    /// and one prefix query runs over the retained window.
    fn backfill_slice(&mut self, mut slice: Option<&mut Slice>, parent: u32) {
        self.generate(slice.as_deref_mut(), parent);
        for _ in 0..SLICE_EVENTS / BATCH {
            self.ingest_batch(None, NO_PARENT);
        }
        for _ in 0..SLICE_EVENTS / PAGE {
            // A heartbeat is how a consumer that missed the tail of a
            // burst learns how far behind it is.
            let last_seq = self.consumer.cursor() + PAGE as u64;
            let heartbeat = Message {
                topic: "feed/all".to_string(),
                payload: FeedMessage::Heartbeat { last_seq },
            };
            self.feed_tx.send(heartbeat).expect("feed queue open");
            self.consume(slice.as_deref_mut(), parent);
        }
        self.prefix_query(slice, parent);
    }

    /// `after_seq(s).under(dir).limit(1024)` at a fixed-shape offset
    /// inside the retained window, through the loop-back RPC; the answer
    /// must be exactly the retained events under that directory.
    fn prefix_query(&mut self, slice: Option<&mut Slice>, parent: u32) {
        let newest = self.next_seq - 1;
        let oldest = newest + 1 - self.store.len() as u64;
        let after = oldest + self.shape.below(self.store.len() / 2) as u64;
        let prefix = self.generator.dir_path(self.shape.below(HOT_DIRS)).to_string();
        let query = StoreQuery::after_seq(after).under(PathBuf::from(&prefix)).limit(PAGE);
        let got = self.loopback.query(&query);
        let (calls, reply_bytes) = self.loopback.drain();
        if let Some(slice) = slice {
            for c in calls {
                self.note(slice, parent, c);
            }
            slice.store_batch_bytes += reply_bytes;
            slice.events += got.len() as u64;
        }
        let under = format!("{prefix}/");
        let want: Vec<(u64, &str)> = self
            .retained
            .iter()
            .filter(|(seq, path)| *seq > after && path.starts_with(&under))
            .take(PAGE)
            .map(|(seq, path)| (*seq, path.as_str()))
            .collect();
        let got: Vec<(u64, &str)> =
            got.iter().map(|e| (e.seq, e.event.path.to_str().unwrap_or(""))).collect();
        self.oracle.check_page("prefix query", got.into_iter(), want.into_iter());
    }

    fn slice(&mut self, slice: Option<&mut Slice>, parent: u32) {
        match self.workload {
            Workload::Backfill => self.backfill_slice(slice, parent),
            Workload::Steady | Workload::Resolve => self.ingest_slice(slice, parent),
        }
    }
}

impl<'a> Chain<'a> {
    /// Set-up: builds the chain, fills the store to capacity and runs the
    /// untimed warm-up slice. Every hand-back is checked against `oracle`.
    pub fn start(
        workload: Workload,
        generator: &'a mut Generator,
        oracle: &'a mut Oracle,
        epoch: Instant,
    ) -> Chain<'a> {
        let setup_start = Instant::now();
        // The store as `sdcimon` builds it, at the capacity the aggregator
        // child runs with.
        let store = StoreStack::segmented(STORE_CAPACITY).metered("sdci_store").build();
        let loopback = Arc::new(LoopbackStore::new(Arc::clone(&store)));
        let sink = Sink(Arc::new(Mutex::new(Vec::with_capacity(BATCH))));
        let collector = Collector::new(generator.fs(), MDT, sink.clone(), MonitorConfig::default());
        let (feed_tx, feed_rx) = crossbeam_channel::bounded(sdci_net::NetConfig::default().hwm);
        let (item_wire, deliver_wire) = (Wire::default(), Wire::default());
        let mut chain = Chain {
            workload,
            oracle,
            collector,
            sink,
            spare: Vec::with_capacity(BATCH),
            enc_item: BinEncoder::new(),
            enc_deliver: BinEncoder::new(),
            item_reader: FrameReader::new(item_wire.clone()),
            item_wire,
            deliver_reader: FrameReader::new(deliver_wire.clone()),
            deliver_wire,
            store,
            loopback: Arc::clone(&loopback),
            next_seq: 1,
            feed_tx,
            // The store is pre-filled below; the consumer starts after that.
            consumer: EventConsumer::new(Feed(feed_rx), loopback, STORE_CAPACITY as u64),
            retained: VecDeque::new(),
            expected: Vec::with_capacity(SLICE_EVENTS),
            handed_back: Vec::with_capacity(SLICE_EVENTS),
            shape: Rng::new(0x0b5e_55ed),
            spans: Recorder::new(epoch, false),
            slice_no: 0,
            generator,
            setup_s: 0.0,
        };

        // Pre-fill the store to capacity with generated events, so the
        // first measured slice already rotates a segment out. These never
        // pass through the ChangeLog or the consumer.
        while (chain.next_seq as usize) <= STORE_CAPACITY {
            let mut fill = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let rec = chain.generator.file_record();
                let seq = chain.next_seq;
                chain.next_seq += 1;
                chain.remember(seq, &rec.path);
                let event = FileEvent::from_record(&rec.record, MDT, PathBuf::from(rec.path));
                fill.push(SequencedEvent { seq, event });
            }
            chain.store.insert_batch(fill).expect("pre-fill in order");
        }
        chain.slice(None, NO_PARENT);
        chain.setup_s = setup_start.elapsed().as_secs_f64();
        chain
    }

    /// Measures slices for about `seconds` (and at least
    /// [`COUNTED_SLICES`] of them), the calibration kernel between them.
    pub fn measure(mut self, seconds: f64, traced: bool) -> Outcome {
        let mut kernel = Kernel::new();
        kernel.run();
        let mut calib_ms = kernel.run();
        let mut slices: Vec<Slice> = Vec::new();
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while slices.len() < COUNTED_SLICES || start.elapsed() < window {
            // A traced run records spans on every other slice, so the same
            // run measures what recording costs.
            let record = traced && slices.len().is_multiple_of(2);
            self.spans.set_enabled(record);
            self.slice_no = slices.len() as u32;
            let mut slice = Slice { traced: record, calib_before_ms: calib_ms, ..Slice::default() };
            let rotated_before = self.store.stats().rotated;
            let parent = self.spans.open("serial.slice", Instant::now(), NO_PARENT, self.slice_no);
            self.slice(Some(&mut slice), parent);
            self.spans.close(parent, Instant::now(), slice.events as u32);
            slice.rotated = self.store.stats().rotated - rotated_before;
            calib_ms = kernel.run();
            slice.calib_after_ms = calib_ms;
            slices.push(slice);
        }
        Outcome {
            slices,
            collector: self.collector.stats(),
            consumer: self.consumer.stats(),
            spans: self.spans,
        }
    }
}
