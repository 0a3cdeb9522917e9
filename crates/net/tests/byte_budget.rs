//! Byte budgets for the data frames an event crosses, beside the
//! allocation budgets of `crates/core/tests/alloc_budget.rs` (this one
//! needs `sdci-net`, so it lives here): a batch shaped like the pipeline
//! benchmark's `steady` workload — 64 hot directories of one length,
//! 12-character names, create → write → unlink over a live set, dense
//! record numbers, one extraction stamp, a microsecond between records.
//! Each budget is the measured cost plus half a byte (`--nocapture`
//! prints the measurements). Every member byte goes under the code of
//! its field class — suffixes, time deltas, flags, lengths, shared
//! lengths... each with a table of its own, most of them a list of a few
//! symbols — so a 256-member frame costs 11.0 bytes a member as an item
//! batch and 11.3 as a deliver batch, whose constant tag and sequence
//! delta now take a bit each (wire version 10, whose two codes shared
//! one table among every field, spent 13.4 and 14.9; version 9, whose
//! fields travelled raw beside coded suffixes, 17.1 and 19.1; version 8,
//! the same members raw, 22.9 and 24.9; version 7, which coded a path
//! against the predecessor only, 33.0 and 35.1; the fixed-width version
//! 6 89 and 98). The TCP legs' 50-member frames, coded fresh, still
//! introduce a directory every other member and spread their tables over
//! fewer members (15.0 and 15.4; were 17.6 and 19.0), and a 1,000-member
//! store reply hardly ever meets a new directory (9.9; was 13.1). On a
//! live connection those frames continue one another — a pushed frame
//! since wire version 12, a delivered one since 13 — finding their
//! directories and codes in the frames before them: the eighth costs
//! 10.5 bytes a member pushed and 10.9 delivered.

use sdci_core::{FeedMessage, SequencedEvent};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{BinEncoder, Frame, WireMsg};
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
    let per_member = |msg: &dyn Fn(&mut BinEncoder, &mut Vec<u8>) -> std::io::Result<bool>| {
        let mut body = Vec::new();
        assert!(msg(&mut BinEncoder::new(), &mut body).expect("encodes"), "a binary frame");
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
fn a_steady_batch_costs_at_most_11_5_bytes_a_member_pushed_and_11_8_delivered() {
    let [item, deliver, _] = bytes_per_member(256);
    println!("256 members: item {item:.3} B, deliver {deliver:.3} B per member");
    assert!(item <= 11.5, "item batch: {item} B per member");
    assert!(deliver <= 11.8, "deliver batch: {deliver} B per member");
    // The budgets have slack, not an order of magnitude of it: a batch
    // that suddenly costs far less is a shape bug in this test.
    assert!(item > 9.5 && deliver > item, "item {item} B, deliver {deliver} B per member");
}

/// The frame sizes on either side of the benchmark's 256: the 50 members
/// `benchmark/`'s TCP leg pushes at a time, and a 1,000-event store
/// reply.
#[test]
fn short_frames_cost_a_little_more_and_long_replies_a_little_less() {
    let [item, deliver, _] = bytes_per_member(50);
    println!("50 members: item {item:.3} B, deliver {deliver:.3} B per member");
    assert!(item <= 15.5 && deliver <= 15.9, "50 members: item {item} B, deliver {deliver} B");
    let [_, _, reply] = bytes_per_member(1_000);
    println!("1,000-member store reply: {reply:.3} B per member");
    assert!(reply <= 10.4, "1,000-member store reply: {reply} B per member");
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
fn a_pushed_frame_that_continues_its_connection_costs_at_most_11_bytes_a_member() {
    use sdci_net::wire::write_item_batch_bin;
    use sdci_types::bin::History;
    const FRAME: usize = 50;
    let events = steady_batch(8 * FRAME);
    let (mut enc, mut history) = (BinEncoder::new(), History::default());
    let mut eighth = 0.0;
    for (n, frame) in events.chunks(FRAME).enumerate() {
        let mut out = Vec::new();
        let first_seq = 9 + (n * FRAME) as u64;
        write_item_batch_bin(&mut out, &mut enc, first_seq, frame, None).expect("writes");
        let body = &out[4..];
        let decoded = Frame::<FileEvent>::decode_on(true, body, &mut history).expect("decodes");
        let sent = Frame::ItemBatch { first_seq, payloads: frame.to_vec(), trace: None };
        assert_eq!(decoded, sent, "frame {n}");
        eighth = body.len() as f64 / FRAME as f64;
    }
    println!("the eighth 50-member frame of a connection: {eighth:.3} B per member");
    assert!(eighth <= 11.0, "{eighth} B per member");
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
fn the_eighth_50_member_deliver_frame_of_one_feed_costs_at_most_11_4_bytes_a_member() {
    use sdci_net::wire::write_deliver_batch_bin;
    use sdci_types::bin::History;
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
        let decoded = Frame::<FeedMessage>::decode_on(true, body, &mut history).expect("decodes");
        let topic = "feed/all".to_string();
        assert_eq!(decoded, Frame::DeliverBatch { topic, payloads: frame.to_vec(), trace: None });
        eighth = body.len() as f64 / FRAME as f64;
    }
    println!("the eighth 50-member deliver frame of a feed: {eighth:.3} B per member");
    assert!(eighth <= 11.4, "{eighth} B per member");
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
        let len = (u32::from_be_bytes(*word) & !sdci_net::wire::BIN_FRAME_BIT) as usize;
        out.push((len, fnv1a(&rest[..len])));
        stream = &rest[len..];
    }
    out
}

/// Every data frame the byte budgets above measure, byte for byte: the
/// 256-member item and deliver frames, the 1,000-member store reply, the
/// eight 50-member frames of one pushing connection, and a batch past the
/// member cap, which the chunked writers split into frames that continue
/// one another. Each body's length and FNV-1a digest are pinned: a change
/// to how a frame is laid out, rather than to what it costs, fails here
/// first. Every fresh frame is pinned as wire version 12 wrote it; the
/// split deliver batch's second frame, which version 12 wrote fresh
/// (8,234 bytes), continues the first since version 13 and is pinned as
/// that.
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

    for (what, frames) in &got {
        let frames: Vec<String> =
            frames.iter().map(|(len, digest)| format!("({len}, {digest:#018x})")).collect();
        println!("{what}: {}", frames.join(", "));
    }
    let want: [(&str, &[(usize, u64)]); 3] = [
        (
            "256-member item, deliver; 1,000-member reply",
            &[
                (2819, 0xc122_61f0_9455_52f5),
                (2895, 0xf166_0cc0_4f80_cbec),
                (9932, 0x1a62_04ed_7165_f05f),
            ],
        ),
        (
            "eight continuing 50-member item frames",
            &[
                (748, 0x9c18_20a5_0ef6_d498),
                (572, 0xed0d_9a92_c7d6_1309),
                (508, 0x94aa_a20c_de82_dc26),
                (546, 0x0d21_5e3c_4473_751a),
                (501, 0xaeed_a451_38f1_a922),
                (505, 0xf906_839b_0aa8_15ab),
                (503, 0x3571_5b13_78be_5759),
                (524, 0xc8e5_1518_eed4_36e4),
            ],
        ),
        (
            "a split traced item batch, a split deliver batch",
            &[
                (75_944, 0x3263_49e1_b678_a91b),
                (7_481, 0x04dc_d1c6_87f5_0a97),
                (77_987, 0xda8e_3d36_116b_d429),
                (7_675, 0x3ea0_4db2_7d17_8dd7),
            ],
        ),
    ];
    for ((what, frames), (want_what, want_frames)) in got.iter().zip(want) {
        assert_eq!((*what, frames.as_slice()), (want_what, want_frames));
    }
}
