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
//! 6 89 and 98). The TCP leg's 50-member frames still introduce a
//! directory every other member and spread their tables over fewer
//! members (15.0 and 15.4; were 17.6 and 19.0), and a 1,000-member store
//! reply hardly ever meets a new directory (9.9; was 13.1).

use sdci_core::{FeedMessage, SequencedEvent};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{Frame, WireMsg};
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
    let per_member = |frame: &dyn Fn(&mut Vec<u8>) -> std::io::Result<bool>| {
        let mut body = Vec::new();
        assert!(frame(&mut body).expect("encodes"), "a batch is a binary frame");
        body.len() as f64 / members as f64
    };
    let item = Frame::ItemBatch { first_seq: 9, payloads: events, trace: None };
    let deliver = Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None };
    let reply = StoreRpc::Batch { events: sequenced };
    [
        per_member(&|body| item.encode(body)),
        per_member(&|body| deliver.encode(body)),
        per_member(&|body| reply.encode(body)),
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
    use sdci_net::wire::{write_item_batch_bin, BinEncoder};
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
