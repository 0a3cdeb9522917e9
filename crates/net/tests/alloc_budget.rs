//! Allocation budgets for the encoders and decoders every event crosses,
//! beside the byte budgets of `byte_budget.rs` and the Collector's and
//! store's in `crates/core/tests/alloc_budget.rs`: a 256-member frame of
//! each data-frame kind decodes as a connection's first in a handful of
//! allocations, not one per path, and on a warm connection in exactly those of what it
//! hands on — the member `Vec`, its exact-size path bytes, an eighth of an
//! arena group's header, a topic — a coded frame decodes in exactly what the same
//! members cost raw and encodes through a warm encoder in no allocation
//! at all, and
//! handing a decoded batch on by `clone()` copies no path. A control
//! frame — an ack, a nack, a ping, a `Fin`, a store query — costs no
//! allocation to write or to read on a warm connection.
//! A frame its connection's reader refuses leaves none of the path bytes
//! it assembled behind.
//! The counting `#[global_allocator]` keeps a per-thread tally, as
//! `benchmark/src/alloc.rs` does, and the thread's live bytes.

use sdci_core::{FeedMessage, SequencedEvent, StoreQuery};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{write_deliver_batch_bin, write_item_batch_bin, write_msg_bin};
use sdci_net::wire::{BinEncoder, Frame, FrameReader, WireMsg};
use sdci_types::bin::{Class, History};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use sdci_types::{ARENA_BATCHES, SHARED_BATCH_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // A `const`-initialised `Cell<u64>` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        note(layout.size() as isize);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        note(layout.size() as isize);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        note(new_size as isize - layout.size() as isize);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
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

/// Decodes `msg`'s one body as a connection's first frame, on a fresh
/// `History`, and returns the allocations that took — the history's
/// storage included: its held members' box and their two rings, which a
/// connection allocates once.
fn decode_cost<M: WireMsg + PartialEq + std::fmt::Debug>(msg: &M) -> u64 {
    let mut body = Vec::new();
    msg.encode(&mut BinEncoder::new(), &mut body).expect("encodes");
    let (decoded, made) =
        allocations(|| M::decode(&body, &mut History::default()).expect("decodes"));
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
    let (decoded, raw_made) =
        allocations(|| M::decode(raw, &mut History::default()).expect("raw decodes"));
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
    let mut store = vec![3, 0, 1]; // the connection's first reply
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
                let decoded = StoreRpc::decode(body, &mut history).expect("decodes");
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
    let StoreRpc::Batch { events } =
        StoreRpc::decode(&body, &mut History::default()).expect("decodes")
    else {
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
/// continuing the one before, but for some that go out fresh, as after a
/// writer's `start_fresh`.
/// Through an encoder warm from the frames before, a continuing frame
/// encodes without allocating; and on a reader warm from the frames before,
/// fresh and continuing frames alike decode in exactly the allocations of
/// what they hand on: the member `Vec` and an exact-size copy of the path
/// bytes, assembled in the staging the connection's history keeps and
/// sealed into a slot of its open arena group — and a deliver frame's
/// topic — plus the header of each group a frame opens. For the `steady`
/// shape, whose frames share a group eight at a time, and for `resolve`'s
/// long paths, whose leaves come back only after 32,768 records: a
/// frame of them seals more than [`SHARED_BATCH_BYTES`], so each takes
/// a group of its own.
#[test]
fn a_warm_connection_writes_without_allocating_and_reads_each_frame_in_an_exact_count() {
    type Shape = fn(u64) -> Vec<SequencedEvent>;
    let shapes = [
        ("steady", batch_at as Shape, COUNTED_FRAMES / ARENA_BATCHES as u64),
        ("resolve", resolve_batch_at, COUNTED_FRAMES),
    ];
    for (shape, batch_at, groups) in shapes {
        let path_bytes: usize = batch_at(0)
            .iter()
            .flat_map(|sev| [Some(&sev.event.path), sev.event.src_path.as_ref()])
            .flatten()
            .map(|path| path.as_str().len())
            .sum();
        let long = path_bytes > SHARED_BATCH_BYTES;
        assert_eq!(long, groups == COUNTED_FRAMES, "{shape}: {path_bytes} path bytes a frame");
        frames_cost(&format!("{shape} item"), 2, groups, |frame| {
            let events = batch_at(frame * BATCH).into_iter().map(|sev| sev.event).collect();
            Frame::ItemBatch { first_seq: 1 + frame * BATCH, payloads: events, trace: None }
        });
        frames_cost(&format!("{shape} deliver"), 3, groups, |frame| {
            let feed = batch_at(frame * BATCH).into_iter().map(FeedMessage::Event).collect();
            Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None }
        });
        frames_cost(&format!("{shape} store reply"), 2, groups, |frame| StoreRpc::Batch {
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

/// Frames the exact decoding count is taken over: two groups' worth.
const COUNTED_FRAMES: u64 = 2 * ARENA_BATCHES as u64;

/// [`COUNTED_FRAMES`] + 2 frames, `frame(0)` on, written as their
/// connection's writer writes them through one encoder — the first two
/// and the fifth fresh, every other continuing the one before — and
/// decoded in turn against one connection's [`History`], as its
/// `FrameReader` decodes them: from the third on, a continuing one encodes with no allocation
/// and in fewer bytes than fresh, and fresh and continuing ones alike
/// decode in `per_frame` allocations, or one more where a frame opens its
/// connection's next arena group: over the counted frames, exactly
/// `per_frame` each and one for each of the `groups` they open.
fn frames_cost<M: Batch>(what: &str, per_frame: u64, groups: u64, frame: impl Fn(u64) -> M) {
    let mut enc = BinEncoder::new();
    let mut history = History::default();
    let mut out = Vec::with_capacity(1 << 20);
    let mut decoding = 0;
    for n in 0..2 + COUNTED_FRAMES {
        let sent = frame(n);
        if n == 1 || n == 4 {
            enc.start_fresh();
        }
        out.clear();
        let ((), made) = allocations(|| sent.write(&mut out, &mut enc));
        let body = &out[4..];
        let continues = n >= 2 && n != 4;
        assert_eq!(body[1] & 4 != 0, continues, "{what} frame {n}: continues");
        if continues {
            assert_eq!(made, 0, "{what} frame {n}: {made} allocations to encode");
            let mut fresh = Vec::new();
            sent.encode(&mut BinEncoder::new(), &mut fresh).expect("encodes");
            assert!(body.len() < fresh.len(), "{what} frame {n}: smaller than fresh");
        }
        let (decoded, made) = allocations(|| M::decode(body, &mut history));
        assert_eq!(decoded.expect("decodes"), sent, "{what} frame {n}");
        if n >= 2 {
            let one_frame = per_frame..=per_frame + 1;
            assert!(one_frame.contains(&made), "{what} frame {n}: {made} allocations to decode");
            decoding += made;
        }
    }
    assert_eq!(
        decoding,
        per_frame * COUNTED_FRAMES + groups,
        "{what}: allocations to decode {COUNTED_FRAMES} frames"
    );
}

/// A frame its connection's reader refuses — here for a trailing byte,
/// after every member's path is assembled — leaves the thread's live
/// bytes as they were: the assembled bytes go back to the staging the
/// history keeps, not into the arena group it holds open, which an event
/// of the frame before, still held, would otherwise pin with them. The
/// next frame seals into the same group.
#[test]
fn a_refused_frame_leaves_no_path_bytes_in_its_connections_group() {
    let frame = |from: u64| {
        let events = batch_at(from).into_iter().map(|sev| sev.event).collect();
        let mut body = Vec::new();
        Frame::ItemBatch { first_seq: 1 + from, payloads: events, trace: None }
            .encode(&mut BinEncoder::new(), &mut body)
            .expect("encodes");
        body
    };
    let mut history = History::default();
    let Frame::ItemBatch { payloads, .. } =
        Frame::<FileEvent>::decode(&frame(0), &mut history).expect("decodes")
    else {
        panic!("an item frame decodes as one");
    };
    let held = payloads[BATCH as usize / 2].clone();
    drop(payloads);
    let mut refused = frame(BATCH);
    refused.push(0);

    let before = LIVE.with(Cell::get);
    let error = Frame::<FileEvent>::decode(&refused, &mut history).expect_err("refused");
    drop(error);
    let kept = LIVE.with(Cell::get) - before;

    assert_eq!(kept, 0, "{kept} bytes kept of a refused frame of {BATCH} paths");
    let Frame::ItemBatch { payloads, .. } =
        Frame::<FileEvent>::decode(&frame(2 * BATCH), &mut history).expect("decodes")
    else {
        panic!("an item frame decodes as one");
    };
    assert!(payloads[0].path.shares_arena(&held.path), "the group goes on");
    assert_eq!(held, batch_at(0)[BATCH as usize / 2].event);
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

/// Control frames cost no allocation on a warm connection. Acks, a ping
/// and a `Fin` — the frames a pusher and its server trade once per batch
/// — and a store query by sequence number and limit are written and read
/// in none. A query under a prefix is written in none
/// and read in exactly one: the `PathBuf` the decoded query owns. Every
/// store frame carries its number on the connection, counted by the
/// encoder and checked by the reader's history, and the count costs
/// nothing: an empty reply among the queries, numbered with them, is
/// written and read in none either.
#[test]
fn control_frames_are_written_and_read_without_allocating() {
    let frames = [
        Frame::<FileEvent>::Ack { up_to: 1_000_000 },
        Frame::Ack { up_to: 1_000_001 },
        Frame::Ping,
        Frame::Fin,
        Frame::Ack { up_to: u64::MAX },
    ];
    assert_eq!(control_costs(&frames), [0; 5]);

    let traced = Some(TraceContext::sampled(0xfeed, 77));
    let queries = [
        StoreRpc::Query { query: StoreQuery::after_seq(1_234_567).limit(4_096), trace: None },
        StoreRpc::Query { query: StoreQuery::default(), trace: None },
        StoreRpc::Query {
            query: StoreQuery::after_seq(0).under("/t0a1b2c3/d0000007"),
            trace: traced,
        },
        StoreRpc::Batch { events: Vec::new() },
    ];
    assert_eq!(control_costs(&queries), [0, 0, 1, 0]);
}
