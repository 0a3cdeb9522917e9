//! Allocation budgets for the encoders and decoders every event crosses,
//! beside the byte budgets of `byte_budget.rs` and the Collector's and
//! store's in `crates/core/tests/alloc_budget.rs`: a 256-member frame of
//! each data-frame kind decodes in a handful of allocations — the member
//! `Vec`, the frame's path arena and its seal, a topic — not one per
//! path, a coded frame decodes in exactly what the same members cost raw
//! and encodes through a warm encoder in no allocation at all, and
//! handing a decoded batch on by `clone()` copies no path. A control
//! frame — an ack, a nack, a ping, a `Fin`, a store query — costs no
//! allocation to write or to read on a warm connection.
//! The counting `#[global_allocator]` keeps a per-thread tally, as
//! `benchmark/src/alloc.rs` does.

use sdci_core::{FeedMessage, SequencedEvent, StoreQuery};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{write_deliver_batch_bin, write_item_batch_bin, write_msg_bin};
use sdci_net::wire::{BinEncoder, Frame, FrameReader, WireMsg};
use sdci_types::bin::Class;
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // A `const`-initialised `Cell<u64>` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What `f` returns, and the allocation calls (alloc + alloc_zeroed +
/// realloc) it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const BATCH: u64 = 256;

/// A batch shaped like the benchmark's: 64 directories, fixed-width
/// names, dense record numbers, one extraction stamp; every eighth
/// event a rename, so the arena holds second paths too.
fn batch() -> Vec<SequencedEvent> {
    batch_at(0)
}

/// [`batch`]'s shape, from record `from` on: the batches that follow it
/// on one connection.
fn batch_at(from: u64) -> Vec<SequencedEvent> {
    (from..from + BATCH)
        .map(|i| {
            let path = format!("/t0a1b2c3/d{:07x}/f{:011x}", (i * 37) % 64, i * 0x9e37_79b9);
            let renamed = i % 8 == 0;
            SequencedEvent {
                seq: 500_000 + i,
                event: FileEvent {
                    index: 70_000 + i,
                    mdt: MdtIndex::new(0),
                    changelog_kind: if renamed {
                        ChangelogKind::Rename
                    } else {
                        ChangelogKind::Create
                    },
                    kind: if renamed { EventKind::Moved } else { EventKind::Created },
                    time: SimTime::from_nanos(90_000_000 + 1_000 * i),
                    src_path: renamed.then(|| format!("{path}.part").into()),
                    path: path.into(),
                    target: Fid::new(0x2_4000_0400, i as u32, 0),
                    is_dir: false,
                    extracted_unix_ns: Some(1_790_000_000_123_456_789),
                    trace: None,
                },
            }
        })
        .collect()
}

/// A batch shaped like the benchmark's `resolve`: creates round-robin
/// over 8^5 leaf directories at depth six — 57-byte paths, each in a
/// directory the frame has not met — and, halfway, a leaf's rename: its
/// new path and its `src_path`.
fn resolve_batch() -> Vec<SequencedEvent> {
    resolve_batch_at(0)
}

/// [`resolve_batch`]'s shape, from record `from` on: the batches that
/// follow it on one connection, each in leaves none before it met.
fn resolve_batch_at(from: u64) -> Vec<SequencedEvent> {
    let dir = |leaf: u64| -> String {
        let names = (1..=5).map(|level| {
            let above = leaf >> (3 * (5 - level));
            format!("/x{:05x}", above.wrapping_mul(0x9e37_79b9).wrapping_add(level) & 0xf_ffff)
        });
        format!("/t0a1b2c3{}", names.collect::<String>())
    };
    (from..from + BATCH)
        .map(|i| {
            let leaf = (9_000 + i) % (1 << 15);
            let renamed = i % BATCH == BATCH / 2;
            let (path, src_path) = if renamed {
                let old = dir(leaf);
                (format!("{}/x{:05x}", &old[..old.len() - 7], 0xabcde), Some(old.into()))
            } else {
                (format!("{}/f{:011x}", dir(leaf), i * 0x9e37_79b9), None)
            };
            SequencedEvent {
                seq: 500_000 + i,
                event: FileEvent {
                    index: 70_000 + i,
                    mdt: MdtIndex::new(0),
                    changelog_kind: if renamed {
                        ChangelogKind::Rename
                    } else {
                        ChangelogKind::Create
                    },
                    kind: if renamed { EventKind::Moved } else { EventKind::Created },
                    time: SimTime::from_nanos(90_000_000 + 1_000 * i),
                    path: path.into(),
                    src_path,
                    target: Fid::new(0x2_4000_0400, i as u32, 0),
                    is_dir: renamed,
                    extracted_unix_ns: Some(1_790_000_000_123_456_789),
                    trace: None,
                },
            }
        })
        .collect()
}

/// Decodes `msg`'s one body and returns the allocations that took.
fn decode_cost<M: WireMsg + PartialEq + std::fmt::Debug>(msg: &M) -> u64 {
    let mut body = Vec::new();
    msg.encode(&mut BinEncoder::new(), &mut body).expect("encodes");
    let (decoded, made) = allocations(|| M::decode(&body).expect("decodes"));
    assert_eq!(&decoded, msg);
    made
}

#[test]
fn a_256_member_frame_of_each_kind_decodes_in_at_most_eight_allocations() {
    let sequenced = batch();
    let events: Vec<FileEvent> = sequenced.iter().map(|sev| sev.event.clone()).collect();
    let feed: Vec<FeedMessage> = sequenced.iter().cloned().map(FeedMessage::Event).collect();

    let item = decode_cost(&Frame::ItemBatch { first_seq: 9, payloads: events, trace: None });
    let deliver =
        decode_cost(&Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None });
    let store = decode_cost(&StoreRpc::Batch { events: sequenced });

    for (kind, made) in [("item", item), ("deliver", deliver), ("store-batch", store)] {
        assert!(made <= 8, "{kind} frame: {made} allocations for {BATCH} members");
        assert!(made >= 3, "{kind} frame: {made} allocations cannot hold a Vec and an arena");
    }
}

/// Checks that `msg` goes out coded, its fields and its paths each under
/// their class's code, smaller than `raw` — the same members laid out
/// raw, as a frame goes out when coding would not pay — and decodes in
/// exactly the allocations `raw` does. Encoded again through the encoder
/// that encoded it, into a buffer with room, it allocates nothing: the
/// raw pass and its tags reuse the encoder's buffers, and every
/// histogram, code and codeword table lives on the stack.
fn coded_costs_what_raw_does<M: WireMsg + PartialEq + std::fmt::Debug>(
    kind: &str,
    msg: &M,
    raw: &[u8],
) {
    let (mut enc, mut body) = (BinEncoder::new(), Vec::with_capacity(1 << 20));
    msg.encode(&mut enc, &mut body).expect("encodes");
    body.clear();
    let made = allocations(|| msg.encode(&mut enc, &mut body).expect("encodes")).1;
    assert_eq!(made, 0, "{kind}: {made} allocations to encode through a warm encoder");
    assert_eq!(body[1] & 2, 2, "{kind}: a batch of the benchmark's shape goes out coded");
    let mask = u16::from_le_bytes([body[2], body[3]]);
    for class in [Class::Path, Class::Flags, Class::Time, Class::Carried] {
        assert_ne!(mask & class.bit(), 0, "{kind}: {class} in {mask:#x}");
    }
    assert!(body.len() < raw.len(), "{kind}: {} coded bytes, {} raw", body.len(), raw.len());
    let (decoded, raw_made) = allocations(|| M::decode(raw).expect("raw decodes"));
    assert_eq!(&decoded, msg);
    let coded_made = decode_cost(msg);
    assert_eq!(coded_made, raw_made, "{kind}: coded {coded_made} allocations, raw {raw_made}");
}

/// A coded frame decodes in exactly the allocations of the same members
/// sent raw: its codes' lookup tables live in the reader, on the stack,
/// and the arena — reserved at a multiple of the (now smaller) body —
/// still holds every path without growing: for the `steady` shape, and
/// for `resolve`'s long paths in short members, where a coded body
/// assembles about five path bytes for each of its own.
#[test]
fn a_coded_frame_decodes_in_the_allocations_of_a_raw_one() {
    for sequenced in [batch(), resolve_batch()] {
        coded_frames_cost_what_raw_ones_do(sequenced);
    }
}

fn coded_frames_cost_what_raw_ones_do(sequenced: Vec<SequencedEvent>) {
    use sdci_types::bin::{put_bytes, put_members};
    let events: Vec<FileEvent> = sequenced.iter().map(|sev| sev.event.clone()).collect();
    let feed: Vec<FeedMessage> = sequenced.iter().cloned().map(FeedMessage::Event).collect();

    let mut item = vec![1, 0, 9];
    put_members(&mut item, &events);
    let mut deliver = vec![4, 0];
    put_bytes(&mut deliver, b"feed/all");
    put_members(&mut deliver, &feed);
    let mut store = vec![3, 0];
    put_members(&mut store, &sequenced);

    coded_costs_what_raw_does(
        "item",
        &Frame::ItemBatch { first_seq: 9, payloads: events, trace: None },
        &item,
    );
    let topic = "feed/all".to_string();
    coded_costs_what_raw_does(
        "deliver",
        &Frame::DeliverBatch { topic, payloads: feed, trace: None },
        &deliver,
    );
    coded_costs_what_raw_does("store-batch", &StoreRpc::Batch { events: sequenced }, &store);
}

/// What every sender does — frames through a per-connection
/// `BinEncoder` whose buffers have grown to the session's frames — costs
/// no allocation at all once they have: 50- and 256-member item, deliver
/// and store-batch frames of both shapes, coded, the raw pass in the
/// encoder's member buffer and each byte's class tag in the buffer of
/// tags beside it. The replies go out through a store connection's own
/// encoder, so every one after the first continues the one before, and
/// that connection's reader reads them back.
#[test]
fn a_coded_frame_encodes_through_a_warm_encoder_without_allocating() {
    use sdci_types::bin::History;
    for sequenced in [batch(), resolve_batch()] {
        let events: Vec<FileEvent> = sequenced.iter().map(|sev| sev.event.clone()).collect();
        let feed: Vec<FeedMessage> = sequenced.iter().cloned().map(FeedMessage::Event).collect();
        let replies = [50, 256].map(|n| (n, StoreRpc::Batch { events: sequenced[..n].to_vec() }));
        let (mut enc, mut store_enc) = (BinEncoder::new(), BinEncoder::new());
        let mut history = History::default();
        let mut out = Vec::with_capacity(1 << 20);
        // The first pass grows the encoders' buffers to these frames.
        for pass in 0..2 {
            for (i, (n, reply)) in replies.iter().enumerate() {
                let (_, made) = allocations(|| {
                    out.clear();
                    write_item_batch_bin(&mut out, &mut enc, 9, &events[..*n], None)
                        .expect("writes");
                    out.clear();
                    write_deliver_batch_bin(&mut out, &mut enc, "feed/all", &feed[..*n], None)
                        .expect("writes");
                    out.clear();
                    write_msg_bin(&mut out, &mut store_enc, reply).expect("writes");
                });
                if pass == 1 {
                    assert_eq!(made, 0, "{n} members: {made} allocations through a warm encoder");
                }
                // The reply went out coded, continuing the replies before
                // it, and reads back on its connection.
                let body = &out[4..];
                assert_eq!(body[1] & 2, 2, "{n} members: coded");
                assert_eq!(body[1] & 4 != 0, pass + i > 0, "{n} members: continues");
                let decoded = StoreRpc::decode_on(body, &mut history).expect("decodes");
                assert_eq!(&decoded, reply);
            }
        }
    }
}

#[test]
fn cloning_a_decoded_batch_allocates_once() {
    let reply = StoreRpc::Batch { events: batch() };
    let mut body = Vec::new();
    reply.encode(&mut BinEncoder::new(), &mut body).expect("encodes");
    let StoreRpc::Batch { events } = StoreRpc::decode(&body).expect("decodes") else {
        panic!("a store batch decodes as one");
    };

    let (copy, made) = allocations(|| events.clone());

    assert_eq!(made, 1, "the Vec itself; every path is a reference-count bump");
    assert!(copy.iter().zip(&events).all(|(a, b)| a.event.path.shares_arena(&b.event.path)));
    assert!(events[1].event.path.shares_arena(&events[0].event.path), "one arena a frame");
    assert!(events[0].event.src_path.as_ref().unwrap().shares_arena(&events[0].event.path));
}

/// What a pusher does on one connection — 256-member item frames — what
/// the fan-out does on a feed — 256-member deliver frames of densely
/// sequenced events — and what a store server does on one connection —
/// 256-member replies to queries at scattered offsets — each frame
/// continuing the one before.
/// Through an encoder warm from the frames before, a continuing frame
/// encodes without allocating; and a reader warm the same way decodes it
/// in exactly the allocations of the same members sent fresh — its
/// history's storage was made by the first frame, and the arena, reserved
/// at a multiple of a body that now carries fewer path bytes, still holds
/// every path without growing: for the `steady` shape, and for
/// `resolve`'s long paths, whose leaves come back only after 32,768
/// records.
#[test]
fn a_continuing_frame_encodes_without_allocating_and_decodes_as_a_fresh_one_does() {
    type Shape = fn(u64) -> Vec<SequencedEvent>;
    for (shape, batch_at) in [("steady", batch_at as Shape), ("resolve", resolve_batch_at)] {
        continuing_frames_cost(&format!("{shape} item"), |frame| {
            let events = batch_at(frame * BATCH).into_iter().map(|sev| sev.event).collect();
            Frame::ItemBatch { first_seq: 1 + frame * BATCH, payloads: events, trace: None }
        });
        continuing_frames_cost(&format!("{shape} deliver"), |frame| {
            let feed = batch_at(frame * BATCH).into_iter().map(FeedMessage::Event).collect();
            Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None }
        });
        continuing_frames_cost(&format!("{shape} store reply"), |frame| StoreRpc::Batch {
            events: batch_at((frame * 5 % 6) * BATCH),
        });
    }
}

/// How a batch message goes out on its connection: a frame through its
/// chunked writer, a store reply as one message.
trait Batch: WireMsg + PartialEq + std::fmt::Debug {
    fn write(&self, out: &mut Vec<u8>, enc: &mut BinEncoder);
}

impl<T> Batch for Frame<T>
where
    T: sdci_types::BinPayload + Clone + PartialEq + std::fmt::Debug,
{
    fn write(&self, out: &mut Vec<u8>, enc: &mut BinEncoder) {
        match self {
            Frame::ItemBatch { first_seq, payloads, .. } => {
                write_item_batch_bin(out, enc, *first_seq, payloads, None).expect("writes");
            }
            Frame::DeliverBatch { topic, payloads, .. } => {
                write_deliver_batch_bin(out, enc, topic, payloads, None).expect("writes");
            }
            other => panic!("not a batch: {other:?}"),
        }
    }
}

impl Batch for StoreRpc {
    fn write(&self, out: &mut Vec<u8>, enc: &mut BinEncoder) {
        write_msg_bin(out, enc, self).expect("writes");
    }
}

/// Six frames, `frame(0)` to `frame(5)`, written as their connection's
/// writer writes them through one encoder and read by one connection's
/// reader: from the third on, each continues the one before, encodes
/// with no allocation and decodes in exactly a fresh frame's.
fn continuing_frames_cost<M: Batch>(what: &str, frame: impl Fn(u64) -> M) {
    use sdci_types::bin::History;
    let mut enc = BinEncoder::new();
    let mut history = History::default();
    let mut out = Vec::with_capacity(1 << 20);
    for n in 0..6u64 {
        let sent = frame(n);
        out.clear();
        let ((), made) = allocations(|| sent.write(&mut out, &mut enc));
        let body = &out[4..];
        assert_eq!(body[1] & 4 != 0, n > 0, "{what} frame {n}: continues");
        let mut fresh = Vec::new();
        sent.encode(&mut BinEncoder::new(), &mut fresh).expect("encodes");
        // Decoded fresh by a reader holding a history, which the fresh
        // frame then replaces: the same allocations as the continuing
        // frame, decoded next on a reader that holds everything before it.
        let fresh_made = {
            let mut replaced = History::default();
            M::decode_on(&fresh, &mut replaced).expect("decodes");
            allocations(|| M::decode_on(&fresh, &mut replaced)).1
        };
        let (decoded, decode_made) = allocations(|| M::decode_on(body, &mut history));
        assert_eq!(decoded.expect("decodes"), sent, "{what} frame {n}");
        if n >= 2 {
            assert_eq!(made, 0, "{what} frame {n}: {made} allocations to encode");
            assert_eq!(
                decode_made, fresh_made,
                "{what} frame {n}: {decode_made} allocations to decode, fresh {fresh_made}"
            );
            assert!(body.len() < fresh.len(), "{what} frame {n}: smaller than fresh");
        }
    }
}

/// Writes each of `msgs` through one connection's encoder into a buffer
/// with room, then reads them back through one connection's reader, twice
/// over: the first pass grows the encoder's body buffer and the reader's
/// frame buffer, and the second must allocate nothing to write any of
/// them. Returns what reading each cost on the second pass.
fn control_costs<M: WireMsg + PartialEq + std::fmt::Debug>(msgs: &[M]) -> Vec<u64> {
    let (mut enc, mut out) = (BinEncoder::new(), Vec::with_capacity(1 << 16));
    let mut wrote = Vec::new();
    for pass in 0..2 {
        for msg in msgs {
            let made = allocations(|| write_msg_bin(&mut out, &mut enc, msg).expect("writes")).1;
            if pass == 1 {
                assert_eq!(made, 0, "{msg:?}: {made} allocations to write");
            }
        }
        wrote.push(out.len());
    }
    assert_eq!(wrote[1], 2 * wrote[0], "each pass writes the same bytes");
    let mut reader = FrameReader::new(&out[..]);
    for msg in msgs {
        assert_eq!(&reader.read_msg::<M>().expect("reads"), msg);
    }
    msgs.iter()
        .map(|msg| {
            let (read, made) = allocations(|| reader.read_msg::<M>().expect("reads"));
            assert_eq!(&read, msg);
            made
        })
        .collect()
}

/// Control frames cost no allocation on a warm connection. An ack, a
/// nack, a ping and a `Fin` — the frames a pusher and its server trade
/// once per batch — and a store query by sequence number and limit are
/// written and read in none. A query under a prefix is written in none
/// and read in exactly one: the `PathBuf` the decoded query owns.
#[test]
fn control_frames_are_written_and_read_without_allocating() {
    let frames = [
        Frame::<FileEvent>::Ack { up_to: 1_000_000 },
        Frame::Nack { expected: 1_000_001 },
        Frame::Ping,
        Frame::Fin,
        Frame::Ack { up_to: u64::MAX },
    ];
    assert_eq!(control_costs(&frames), [0; 5]);

    let traced = Some(TraceContext::sampled(0xfeed, 77));
    let queries = [
        StoreRpc::Query { query: StoreQuery::after_seq(1_234_567).limit(4_096), trace: None },
        StoreRpc::Ping,
        StoreRpc::Query {
            query: StoreQuery::after_seq(0).under("/t0a1b2c3/d0000007"),
            trace: traced,
        },
    ];
    assert_eq!(control_costs(&queries), [0, 0, 1]);
}
