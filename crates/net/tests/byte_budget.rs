//! Byte budgets for the data frames an event crosses, beside the
//! allocation budgets of `crates/core/tests/alloc_budget.rs` (this one
//! needs `sdci-net`, so it lives here): a batch shaped like the pipeline
//! benchmark's `steady` workload — 64 hot directories of one length,
//! 12-character names, create → write → unlink over a live set, dense
//! record numbers, one extraction stamp, a microsecond between records —
//! and one shaped like its `resolve` workload.
//! Each budget is the measured cost plus half a byte (`--nocapture`
//! prints the measurements). Every member byte goes under the code of
//! its field class — suffixes, time deltas, flags, shared lengths...
//! each with a table of its own, most of them a list of a few symbols —
//! and the members follow one another with no length between them, so a
//! 256-member frame costs 10.7 bytes a member as an item batch and 11.1
//! as a deliver batch, whose constant tag and sequence delta take a bit
//! each (wire version 13, whose members each opened with their length,
//! spent 11.0 and 11.3; version 10, whose two codes shared one table
//! among every field, 13.4 and 14.9; version 9, whose fields travelled
//! raw beside coded suffixes, 17.1 and 19.1; version 8, the same members
//! raw, 22.9 and 24.9; version 7, which coded a path against the
//! predecessor only, 33.0 and 35.1; the fixed-width version 6 89 and
//! 98). A `resolve` frame, each of its 57-byte paths in a directory no
//! frame-mate names, costs 11.6 as an item batch (11.8 under version
//! 13). The TCP legs' 50-member frames, coded fresh, still introduce a
//! directory every other member and spread their tables over fewer
//! members (14.5 and 15.1; were 14.6 under version 16, 15.0 and 15.4
//! before, and 17.6 and 19.0 before that), and a 1,000-member store
//! reply, coded fresh, hardly ever meets
//! a new directory (9.7; was 9.9, and 13.1). On a live connection those
//! frames continue one another — a pushed frame since wire version 12, a
//! delivered one since 13, a store reply since 16 — finding their
//! directories and codes in the frames before them: the eighth costs 10.0
//! bytes a member pushed and 10.5 delivered (10.1 and 10.6 under version
//! 16, whose item and continuing deliver frames carried their first
//! sequence number as a fixed 8-byte word, not a varint; 10.5 and 10.9
//! under version 13), and the eighth 1,000-member reply of one store
//! connection, to a
//! query at a scattered offset, 9.2 — half a byte a member below the same
//! reply coded fresh.

use sdci_core::{FeedMessage, SequencedEvent};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{BinEncoder, Frame, WireMsg};
use sdci_types::bin::History;
use sdci_types::{ChangelogKind, Fid, FileEvent, MdtIndex, RawChangelogRecord, SimTime};
use std::collections::VecDeque;
use std::path::PathBuf;

const DIRS: u64 = 64;
const LIVE_FILES: u64 = 4_096;

/// splitmix64, fixed seed: the same batch on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `(directory slot, file id)` — a file's name is a bijection of its id.
type File = (u64, u64);

fn steady_batch(members: usize) -> Vec<FileEvent> {
    let mut rng = Rng(19);
    let dirs: Vec<String> =
        (0..DIRS).map(|_| format!("/t0a1b2c3/d{:07x}", rng.next() & 0xfff_ffff)).collect();
    let mut files_made = 0;
    let mut new_file = |rng: &mut Rng| -> File {
        files_made += 1;
        (rng.next() % DIRS, files_made)
    };
    let mut live: VecDeque<File> = (0..LIVE_FILES).map(|_| new_file(&mut rng)).collect();
    (0..members as u64)
        .map(|i| {
            let (kind, (dir, id)) = match i % 3 {
                0 => {
                    live.push_back(new_file(&mut rng));
                    (ChangelogKind::Create, live[live.len() - 1])
                }
                1 => (ChangelogKind::MtimeChange, live[(rng.next() % LIVE_FILES) as usize]),
                _ => (ChangelogKind::Unlink, live.pop_front().expect("live set is never empty")),
            };
            let name =
                format!("f{:011x}", id.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xfff_ffff_ffff);
            let record = RawChangelogRecord {
                index: 70_000 + i,
                kind,
                time: SimTime::from_nanos(90_000_000 + 1_000 * i),
                flags: 0,
                target: Fid::new(0x2_4000_0400, id as u32, 0),
                parent: Fid::ROOT,
                name: name.clone(),
            };
            let path = PathBuf::from(format!("{}/{name}", dirs[dir as usize]));
            FileEvent::from_record(&record, MdtIndex::new(0), path)
                .with_extracted_unix_ns(1_790_000_000_123_456_789)
        })
        .collect()
}

/// Leaf directories of the `resolve` shape: 8^5, at depth six.
const LEAVES: u64 = 1 << 15;
/// Creates between two renames in the `resolve` shape.
const RENAME_EVERY: u64 = 256;

/// A leaf directory's path: the top, then five levels whose names are a
/// function of the subtree they head, so siblings differ.
fn leaf_dir(leaf: u64) -> String {
    let levels = (1..=5u64).map(|level| {
        let above = leaf >> (3 * (5 - level));
        format!("/x{:05x}", above.wrapping_mul(0x9e37_79b9).wrapping_add(level) & 0xf_ffff)
    });
    format!("/t0a1b2c3{}", levels.collect::<String>())
}

/// A batch shaped like the benchmark's `resolve` workload: creates
/// round-robin over the 32,768 leaves — 57-byte paths, each in a
/// directory no frame-mate names — and, one record pair per 256 creates,
/// a leaf half a round away renamed within its parent: `RENME` on its old
/// path, `RNMTO` on its new one. The pair falls in the batch's middle.
fn resolve_batch(members: usize) -> Vec<FileEvent> {
    let mut rng = Rng(23);
    let (mut cursor, mut since_rename, mut files_made) = (9_000u64, RENAME_EVERY / 2, 0u64);
    (0..members as u64)
        .map(|i| {
            let (kind, target, path) = if since_rename < RENAME_EVERY {
                let leaf = cursor;
                (cursor, since_rename, files_made) =
                    ((cursor + 1) % LEAVES, since_rename + 1, files_made + 1);
                let name = format!(
                    "f{:011x}",
                    files_made.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xfff_ffff_ffff
                );
                let file = Fid::new(0x2_4000_0400, files_made as u32, 0);
                (ChangelogKind::Create, file, format!("{}/{name}", leaf_dir(leaf)))
            } else {
                let leaf = (cursor + LEAVES / 2) % LEAVES;
                let dir = Fid::new(0x2_0000_0007, leaf as u32, 0);
                let old = leaf_dir(leaf);
                if since_rename == RENAME_EVERY {
                    since_rename += 1;
                    (ChangelogKind::Rename, dir, old)
                } else {
                    since_rename = 0;
                    let new = format!("/x{:05x}", rng.next() & 0xf_ffff);
                    (ChangelogKind::RenameTarget, dir, format!("{}{new}", &old[..old.len() - 7]))
                }
            };
            let record = RawChangelogRecord {
                index: 70_000 + i,
                kind,
                time: SimTime::from_nanos(90_000_000 + 1_000 * i),
                flags: 0,
                target,
                parent: Fid::ROOT,
                name: String::new(),
            };
            FileEvent::from_record(&record, MdtIndex::new(0), PathBuf::from(path))
                .with_extracted_unix_ns(1_790_000_000_123_456_789)
        })
        .collect()
}

/// Bytes per member of the `item`, `deliver` and store-reply frames that
/// carry a steady batch of `members` events, frame header included.
fn bytes_per_member(members: usize) -> [f64; 3] {
    let events = steady_batch(members);
    assert!(events.iter().all(|e| e.path.as_os_str().len() == 31));
    let sequenced: Vec<SequencedEvent> = (500_000..)
        .zip(&events)
        .map(|(seq, event)| SequencedEvent { seq, event: event.clone() })
        .collect();
    let feed = sequenced.iter().cloned().map(FeedMessage::Event).collect();
    let per_member = |msg: &dyn Fn(&mut BinEncoder, &mut Vec<u8>) -> std::io::Result<()>| {
        let mut body = Vec::new();
        msg(&mut BinEncoder::new(), &mut body).expect("encodes");
        body.len() as f64 / members as f64
    };
    let item = Frame::ItemBatch { first_seq: 9, payloads: events, trace: None };
    let deliver = Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None };
    let reply = StoreRpc::Batch { events: sequenced };
    [
        per_member(&|enc, body| item.encode(enc, body)),
        per_member(&|enc, body| deliver.encode(enc, body)),
        per_member(&|enc, body| reply.encode(enc, body)),
    ]
}

#[test]
fn a_steady_batch_costs_at_most_11_3_bytes_a_member_pushed_and_11_6_delivered() {
    let [item, deliver, _] = bytes_per_member(256);
    println!("256 members: item {item:.3} B, deliver {deliver:.3} B per member");
    assert!(item <= 11.3, "item batch: {item} B per member");
    assert!(deliver <= 11.6, "deliver batch: {deliver} B per member");
    // The budgets have slack, not an order of magnitude of it: a batch
    // that suddenly costs far less is a shape bug in this test.
    assert!(item > 9.5 && deliver > item, "item {item} B, deliver {deliver} B per member");
}

/// A 256-member item frame of the benchmark's `resolve` shape: each
/// path in a directory no frame-mate names, so each carries its
/// directory's last level and its file name — 57-byte paths in members
/// of about eleven bytes. The budget is the measured cost plus half a
/// byte.
#[test]
fn a_resolve_batch_costs_at_most_12_1_bytes_a_member_pushed() {
    let events = resolve_batch(256);
    let (creates, renames): (Vec<_>, Vec<_>) =
        events.iter().partition(|e| e.changelog_kind == ChangelogKind::Create);
    assert_eq!(renames.len(), 2, "RENME and RNMTO");
    assert!(creates.iter().all(|e| e.path.as_os_str().len() == 57));
    let item = Frame::ItemBatch { first_seq: 9, payloads: events, trace: None };
    let mut body = Vec::new();
    item.encode(&mut BinEncoder::new(), &mut body).expect("encodes");
    assert_eq!(Frame::<FileEvent>::decode(&body, &mut History::default()).expect("decodes"), item);
    let item = body.len() as f64 / 256.0;
    println!("256 resolve members: item {item:.3} B per member");
    assert!(item <= 12.1, "item batch: {item} B per member");
    assert!(item > 10.0, "item batch: {item} B per member");
}

/// The frame sizes on either side of the benchmark's 256: the 50 members
/// `benchmark/`'s TCP leg pushes at a time, and a 1,000-event store
/// reply.
#[test]
fn short_frames_cost_a_little_more_and_long_replies_a_little_less() {
    let [item, deliver, _] = bytes_per_member(50);
    println!("50 members: item {item:.3} B, deliver {deliver:.3} B per member");
    assert!(item <= 15.1 && deliver <= 15.6, "50 members: item {item} B, deliver {deliver} B");
    let [_, _, reply] = bytes_per_member(1_000);
    println!("1,000-member store reply: {reply:.3} B per member");
    assert!(reply <= 10.2, "1,000-member store reply: {reply} B per member");
    assert!(item > 13.0 && reply > 8.5, "item {item} B, reply {reply} B per member");
}

/// The TCP leg's frames as a pusher sends them: 50 members a frame, one
/// encoder and one connection, each frame continuing the one before —
/// its first member coded against the last one sent, its paths against
/// the directories the frames before it carried, its codes reused where
/// they still fit. The eighth frame's cost a member, with the budget at
/// its measured value plus half a byte; a connection's reader decodes
/// every frame to the members sent.
#[test]
fn a_pushed_frame_that_continues_its_connection_costs_at_most_10_5_bytes_a_member() {
    use sdci_net::wire::write_item_batch_bin;
    const FRAME: usize = 50;
    let events = steady_batch(8 * FRAME);
    let (mut enc, mut history) = (BinEncoder::new(), History::default());
    let mut eighth = 0.0;
    for (n, frame) in events.chunks(FRAME).enumerate() {
        let mut out = Vec::new();
        let first_seq = 9 + (n * FRAME) as u64;
        write_item_batch_bin(&mut out, &mut enc, first_seq, frame, None).expect("writes");
        let body = &out[4..];
        let decoded = Frame::<FileEvent>::decode(body, &mut history).expect("decodes");
        let sent = Frame::ItemBatch { first_seq, payloads: frame.to_vec(), trace: None };
        assert_eq!(decoded, sent, "frame {n}");
        eighth = body.len() as f64 / FRAME as f64;
    }
    println!("the eighth 50-member frame of a connection: {eighth:.3} B per member");
    assert!(eighth <= 10.5, "{eighth} B per member");
    assert!(eighth > 7.0, "{eighth} B per member");
}

/// The feed leg's frames as the fan-out writes them: 50 sequenced events
/// a publish, dense sequence numbers, one encoder and one subscriber that
/// took every frame, so each frame continues the one before — its first
/// member's sequence number coded against the one before the frame's, its
/// event against the last one delivered. The eighth frame's cost a
/// member, with the budget at its measured value plus half a byte; a
/// connection's reader decodes every frame to the members sent.
#[test]
fn the_eighth_50_member_deliver_frame_of_one_feed_costs_at_most_11_0_bytes_a_member() {
    use sdci_net::wire::write_deliver_batch_bin;
    const FRAME: usize = 50;
    let feed: Vec<FeedMessage> = (500_000..)
        .zip(steady_batch(8 * FRAME))
        .map(|(seq, event)| FeedMessage::Event(SequencedEvent { seq, event }))
        .collect();
    let (mut enc, mut history) = (BinEncoder::new(), History::default());
    let mut eighth = 0.0;
    for (n, frame) in feed.chunks(FRAME).enumerate() {
        let mut out = Vec::new();
        write_deliver_batch_bin(&mut out, &mut enc, "feed/all", frame, None).expect("writes");
        let body = &out[4..];
        assert_eq!(body[1] & 4 != 0, n > 0, "frame {n} continues the one before");
        let decoded = Frame::<FeedMessage>::decode(body, &mut history).expect("decodes");
        let topic = "feed/all".to_string();
        assert_eq!(decoded, Frame::DeliverBatch { topic, payloads: frame.to_vec(), trace: None });
        eighth = body.len() as f64 / FRAME as f64;
    }
    println!("the eighth 50-member deliver frame of a feed: {eighth:.3} B per member");
    assert!(eighth <= 11.0, "{eighth} B per member");
    assert!(eighth > 7.0, "{eighth} B per member");
}

/// Where the eight replies of [`store_replies`] start in the store, in
/// thousands of events: scattered, forwards and back, as a consumer's
/// gap queries and an operator's history queries land.
const REPLY_OFFSETS: [usize; 8] = [7, 2, 12, 5, 0, 9, 14, 3];

/// Eight 1,000-event store replies to queries at [`REPLY_OFFSETS`] of a
/// store of the steady shape, sequenced densely from 500,000.
fn store_replies() -> Vec<StoreRpc> {
    let store: Vec<SequencedEvent> = (500_000..)
        .zip(steady_batch(16_000))
        .map(|(seq, event)| SequencedEvent { seq, event })
        .collect();
    let page = |at: usize| store[1_000 * at..1_000 * (at + 1)].to_vec();
    REPLY_OFFSETS.iter().map(|&at| StoreRpc::Batch { events: page(at) }).collect()
}

/// The store leg's replies as a server writes them on one connection:
/// one encoder for the life of the connection, so each reply after the
/// first continues the one before, carrying its number on the connection
/// rather than where in the store it starts — its first
/// member's sequence number coded against the last one sent, its paths
/// against the directories the replies before it carried, its codes
/// reused where they still fit. The eighth reply's cost a member, with
/// the budget at its measured value plus half a byte; the connection's
/// reader decodes every reply to the events sent.
#[test]
fn the_eighth_1_000_member_reply_of_one_store_connection_costs_at_most_9_7_bytes_a_member() {
    use sdci_net::wire::write_msg_bin;
    let (mut enc, mut history) = (BinEncoder::new(), History::default());
    let mut eighth = 0.0;
    for (n, reply) in store_replies().iter().enumerate() {
        let mut out = Vec::new();
        write_msg_bin(&mut out, &mut enc, reply).expect("writes");
        let body = &out[4..];
        assert_eq!(body[1] & 4 != 0, n > 0, "reply {n} continues the one before");
        let decoded = StoreRpc::decode(body, &mut history).expect("decodes");
        assert_eq!(&decoded, reply, "reply {n}");
        let mut fresh = Vec::new();
        reply.encode(&mut BinEncoder::new(), &mut fresh).expect("encodes");
        println!("reply {n}: {} bytes, {} fresh", body.len(), fresh.len());
        assert!(n == 0 || body.len() < fresh.len(), "reply {n}: smaller than fresh");
        eighth = body.len() as f64 / 1_000.0;
    }
    println!("the eighth 1,000-member reply of a store connection: {eighth:.3} B per member");
    assert!(eighth <= 9.7, "{eighth} B per member");
    assert!(eighth > 7.0, "{eighth} B per member");
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The length and digest of each frame body in `stream`, a run of whole
/// frames.
fn digests(mut stream: &[u8]) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    while let Some((word, rest)) = stream.split_first_chunk::<4>() {
        let len = u32::from_be_bytes(*word) as usize;
        out.push((len, fnv1a(&rest[..len])));
        stream = &rest[len..];
    }
    out
}

/// Every data frame the byte budgets above measure, byte for byte: the
/// 256-member item and deliver frames, the 1,000-member store reply, the
/// 256-member `resolve` item frame, the eight 50-member frames of one
/// pushing connection, a batch past the member cap, which the chunked
/// writers split into frames that continue one another, and the eight
/// 1,000-member replies of one store connection. Each
/// body's length and FNV-1a digest are pinned: a change to how a frame
/// is laid out, rather than to what it costs, fails here first. Every
/// frame is pinned as wire version 14 writes it, its members back to
/// back (version 13's, each member behind its length: 2,819, 2,895 and
/// 9,932 bytes; 3,026 for `resolve`; 748 … 524 for the eight), as
/// version 16 does, whose store replies alone changed (before it, each
/// of the eight replies went out fresh, 9,684 to 9,735 bytes), and as
/// version 17 does, whose item and continuing deliver frames carry their
/// first sequence number as a varint: each is 5 to 7 bytes shorter than
/// its version-16 form (2,756 and 2,975 bytes for the 256-member item
/// frames; 732 … 506 for the eight; 74,567, 7,351 and 7,545 for the
/// split batches' item frames and continuing deliver frame), and as
/// version 20 does, whose store replies alone changed again: each carries
/// its number on the connection, where a continuing one carried its
/// position (under version 19, 9,732 bytes for the lone reply, a byte
/// shorter; 9,720, 9,296, 9,266, 9,238, 9,261, 9,248, 9,246 and 9,212 for
/// the eight, the first a byte shorter and the rest a byte longer).
#[test]
fn every_measured_frame_is_pinned_byte_for_byte() {
    use sdci_net::wire::{write_deliver_batch_bin, write_item_batch_bin, write_msg};
    use sdci_types::bin::MAX_FRAME_MEMBERS;

    let sequenced = |events: &[FileEvent]| -> Vec<SequencedEvent> {
        (500_000..)
            .zip(events)
            .map(|(seq, event)| SequencedEvent { seq, event: event.clone() })
            .collect()
    };
    let mut got = Vec::new();
    let events = steady_batch(256);
    let feed: Vec<FeedMessage> = sequenced(&events).into_iter().map(FeedMessage::Event).collect();
    let mut out = Vec::new();
    write_msg(&mut out, &Frame::ItemBatch { first_seq: 9, payloads: events, trace: None })
        .expect("writes");
    let topic = "feed/all".to_string();
    write_msg(&mut out, &Frame::DeliverBatch { topic, payloads: feed, trace: None })
        .expect("writes");
    write_msg(&mut out, &StoreRpc::Batch { events: sequenced(&steady_batch(1_000)) })
        .expect("writes");
    got.push(("256-member item, deliver; 1,000-member reply", digests(&out)));

    let mut out = Vec::new();
    let resolve = resolve_batch(256);
    write_msg(&mut out, &Frame::ItemBatch { first_seq: 9, payloads: resolve, trace: None })
        .expect("writes");
    got.push(("256-member resolve item", digests(&out)));

    let mut enc = BinEncoder::new();
    let mut out = Vec::new();
    for (n, frame) in steady_batch(400).chunks(50).enumerate() {
        write_item_batch_bin(&mut out, &mut enc, 9 + 50 * n as u64, frame, None).expect("writes");
    }
    got.push(("eight continuing 50-member item frames", digests(&out)));

    let events = steady_batch(MAX_FRAME_MEMBERS + 808);
    let feed: Vec<FeedMessage> = sequenced(&events).into_iter().map(FeedMessage::Event).collect();
    let trace = Some(sdci_types::TraceContext::sampled(0xabcd, 0x1234));
    let mut out = Vec::new();
    write_item_batch_bin(&mut out, &mut BinEncoder::new(), 9, &events, trace).expect("writes");
    write_deliver_batch_bin(&mut out, &mut BinEncoder::new(), "feed/all", &feed, None)
        .expect("writes");
    got.push(("a split traced item batch, a split deliver batch", digests(&out)));

    let mut enc = BinEncoder::new();
    let mut out = Vec::new();
    for reply in store_replies() {
        sdci_net::wire::write_msg_bin(&mut out, &mut enc, &reply).expect("writes");
    }
    got.push(("eight continuing 1,000-member store replies", digests(&out)));

    for (what, frames) in &got {
        let frames: Vec<String> =
            frames.iter().map(|(len, digest)| format!("({len}, {digest:#018x})")).collect();
        println!("{what}: {}", frames.join(", "));
    }
    let want: [(&str, &[(usize, u64)]); 5] = [
        (
            "256-member item, deliver; 1,000-member reply",
            &[
                (2749, 0x4e51_433a_b0bc_9e1c),
                (2832, 0xed53_a231_e507_cf3e),
                (9733, 0x63fb_73e8_891a_e4e8),
            ],
        ),
        ("256-member resolve item", &[(2968, 0x547c_99c1_132d_febd)]),
        (
            "eight continuing 50-member item frames",
            &[
                (725, 0xb0a4_ae4f_6825_f951),
                (549, 0x4b42_850d_2194_1c62),
                (486, 0x1fb2_910f_88b5_ecc3),
                (521, 0x518f_4b2c_3306_d719),
                (487, 0x0cb5_194b_3999_d3a3),
                (490, 0x144f_449d_b5a9_37e6),
                (488, 0xc4ef_8cd6_0eb2_7dfc),
                (500, 0x434d_20e7_b9ac_b68e),
            ],
        ),
        (
            "a split traced item batch, a split deliver batch",
            &[
                (74_560, 0x4182_533e_be6b_9acc),
                (7_345, 0x85ba_5d39_1b54_f94a),
                (76_610, 0xea7f_9fb3_2134_dfc5),
                (7_540, 0xff49_043f_894a_562b),
            ],
        ),
        (
            "eight continuing 1,000-member store replies",
            &[
                (9721, 0x4c44_a20e_a027_e7f0),
                (9295, 0x4dcb_d4c3_58d0_88a8),
                (9265, 0x1afb_2f19_87bf_80b9),
                (9237, 0xc8b0_ad4b_b75a_1479),
                (9260, 0xc7a1_05a7_18c8_11e2),
                (9247, 0xda30_de4a_b04e_dd8a),
                (9245, 0x4263_826e_d8ec_84d9),
                (9211, 0x829b_d417_aa5f_8015),
            ],
        ),
    ];
    for ((what, frames), (want_what, want_frames)) in got.iter().zip(want) {
        assert_eq!((*what, frames.as_slice()), (want_what, want_frames));
    }
}

/// The fixed cost every frame pays, whatever it carries: a framed ack —
/// one a batch on the push leg, of a mark below 2^21 — is at most nine
/// bytes (JSON's `{"Ack":{"up_to":N}}` was 27 framed), and a framed
/// store query by sequence number and limit at most sixteen (JSON's was
/// 103). Both read back as sent.
#[test]
fn a_framed_ack_costs_at_most_9_bytes_and_a_framed_query_16() {
    use sdci_core::StoreQuery;
    use sdci_net::wire::{write_msg, FrameReader};
    let ack = Frame::<FileEvent>::Ack { up_to: (1 << 21) - 1 };
    let query =
        StoreRpc::Query { query: StoreQuery::after_seq(1_234_567).limit(4_096), trace: None };
    let (mut acked, mut asked) = (Vec::new(), Vec::new());
    write_msg(&mut acked, &ack).expect("writes");
    write_msg(&mut asked, &query).expect("writes");
    println!(
        "a framed ack: {} B; a framed after_seq + limit query: {} B",
        acked.len(),
        asked.len()
    );
    assert!(acked.len() <= 9, "a framed ack of {} bytes", acked.len());
    assert!(asked.len() <= 16, "a framed query of {} bytes", asked.len());
    assert_eq!(FrameReader::new(&acked[..]).read_msg::<Frame<FileEvent>>().expect("reads"), ack);
    assert_eq!(FrameReader::new(&asked[..]).read_msg::<StoreRpc>().expect("reads"), query);
}
