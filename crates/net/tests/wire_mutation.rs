//! Hostile bytes at the data-frame decoders: 10,000 seeded mutations of
//! valid kind-1, kind-3 and kind-4 bodies with raw members, and 10,000
//! of the same bodies coded — every member byte under the code of its
//! field class — each fed to all three decoders; then path length and
//! prefix words claiming what the body does not hold; then hand-laid
//! members whose references and "same as the predecessor's" bits name
//! what the frame does not hold; then hand-laid class masks, per-class
//! code tables and coded member sections that break every rule of the
//! codes, each refused with its own message; then members back to back
//! that a frame cuts short, miscounts or follows with a stray byte, and a
//! coded section whose count claims more members than its bits; then
//! item and deliver frames and store replies that continue their
//! connection against a history they do not match, store replies and
//! queries whose number on their connection is not the next, and 10,000
//! mutations of a five-frame continuing stream of each data kind; then
//! 10,000 mutations of a stream of control frames — acks, pings, `Fin`,
//! store queries — read in order by one connection's reader; then 10,000
//! mutations of the three services' hellos, an accepted one re-encoding
//! to its own bytes. Every one is
//! decoded or refused as `InvalidData` — the
//! error that costs a peer its connection — never a panic; no
//! allocation the decoder makes on the way (the member `Vec`, the
//! frame's path arena) is sized by a length, count or prefix word
//! rather than by the bytes actually on hand; and whatever decodes can
//! be read in full — a frame's paths are handles into its arena, and
//! none comes back unsealed or out of range.
//!
//! The allocator is this binary's own (as in
//! `crates/core/tests/alloc_budget.rs`): it records the largest single
//! request the calling thread has made.

use sdci_core::{FeedMessage, SequencedEvent, StoreQuery};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{
    write_deliver_batch_bin, write_item_batch_bin, write_msg_bin, BinEncoder, Frame, FrameReader,
    Hello, Service, WireMsg, WIRE_PROTO,
};
use sdci_types::bin::{
    put_bytes, put_members, put_trace, put_varint, Class, History, CLASSES, FRAME_PATH_BUDGET,
    LOOKUP_ENTRIES, MAX_CODE_LEN, MAX_FRAME_MEMBERS, MAX_PATH_LEN,
};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // A `const`-initialised `Cell` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestRequest;

fn note(size: usize) {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the note touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// The largest single allocation request `f` makes on this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// splitmix64: the test's own generator, so the 10,000 mutations are
/// the same bytes on every run and every toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A batch with every optional section somewhere in it: sibling
/// creates, a directory, a rename carrying `src_path`, an MDT change, an
/// explicit event kind, a trace context, and names whose shared prefix
/// ends inside a character.
fn events() -> Vec<FileEvent> {
    let mut events: Vec<FileEvent> = (0..24u64)
        .map(|i| FileEvent {
            index: 40 + i,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_nanos(1_000_000 + 7_000 * i),
            path: format!("/t0000001/d000000{}/f{:011x}", i % 3, i * 0x9e37).into(),
            src_path: None,
            target: Fid::new(0x2_4000_0400, 100 + i as u32, 0),
            is_dir: false,
            extracted_unix_ns: Some(1_790_000_000_000_000_000),
            trace: None,
        })
        .collect();
    events[3].changelog_kind = ChangelogKind::Mkdir;
    events[3].is_dir = true;
    events[5].changelog_kind = ChangelogKind::Rename;
    events[5].kind = EventKind::Moved;
    events[5].src_path = Some("/t0000001/d0000002/old-name".into());
    events[6].mdt = MdtIndex::new(3);
    events[7].kind = EventKind::Other;
    events[8].trace = Some(TraceContext::sampled(0xfeed, 0xbeef));
    events[9].extracted_unix_ns = None;
    events[10].path = "/t0000001/d0000001/é".into();
    events[11].path = "/t0000001/d0000001/è".into();
    events
}

fn body_of(msg: &impl WireMsg) -> Vec<u8> {
    let mut body = Vec::new();
    msg.encode(&mut BinEncoder::new(), &mut body).expect("encodes");
    body
}

/// One mutation of `body`: truncate, flip a bit, insert a byte, or set
/// a byte — which as often as not is a length, count, prefix or delta
/// word — to `0`, `0x7f` or a run of `0xff` (an over-long varint).
fn mutate(rng: &mut Rng, body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.below(out.len());
    match rng.below(6) {
        0 => out.truncate(at),
        1 => out[at] ^= 1 << rng.below(8),
        2 => out.insert(at, rng.next() as u8),
        3 => out[at] = 0,
        4 => out[at] = 0x7f,
        _ => {
            let run = 1 + rng.below(11);
            out.iter_mut().skip(at).take(run).for_each(|b| *b = 0xff);
        }
    }
    out
}

/// What a decoder did with `bytes`: whether it accepted them, and the
/// largest allocation it asked for. Anything but `Ok` or `InvalidData`
/// fails the test, as does a panic inside `decode` or on reading any
/// field — every path — of what it returned.
fn fed<M: WireMsg + std::fmt::Debug>(bytes: &[u8]) -> (bool, usize) {
    let (result, largest) = largest_request(|| M::decode(bytes));
    match result {
        Ok(value) => {
            assert!(!format!("{value:?}").is_empty());
            (true, largest)
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => (false, largest),
        Err(e) => panic!("a mutated body was refused as {:?}, not InvalidData: {e}", e.kind()),
    }
}

/// The stated allocation bound for a body. The count word reserves at
/// most a member for every sixteen bits, `len / 2` members, and a `Vec`
/// growing past its reservation at most doubles what has decoded — which,
/// for these bodies' members of several bytes each, stays within `len`
/// members' worth. The path arena reserves twice the bytes left in
/// the body and grows the same way, a path at a time. A topic or an error
/// message is far below either.
fn allocation_bound(body: &[u8]) -> usize {
    (body.len() * std::mem::size_of::<FeedMessage>()).max(MAX_PATH_LEN)
}

/// Frame-header flags bit 1: the member section is coded; a class mask
/// and a table for each class it names follow the trace section.
const CODED: u8 = 2;

/// The three data-frame kinds' members for `events`: item payloads,
/// store-batch events (sequenced from 9) and deliver payloads (with a
/// heartbeat among the events).
fn members_of(events: Vec<FileEvent>) -> (Vec<FileEvent>, Vec<SequencedEvent>, Vec<FeedMessage>) {
    let sequenced: Vec<SequencedEvent> = (9..)
        .zip(&events)
        .map(|(seq, event)| SequencedEvent { seq, event: event.clone() })
        .collect();
    let mut feed: Vec<FeedMessage> = sequenced.iter().cloned().map(FeedMessage::Event).collect();
    feed.insert(feed.len() / 3, FeedMessage::Heartbeat { last_seq: 12 });
    (events, sequenced, feed)
}

/// The three data-frame kinds carrying `events` (see [`members_of`]),
/// as their encoders write them — coded, where a code pays.
fn bodies_of(events: Vec<FileEvent>, trace: Option<TraceContext>) -> [Vec<u8>; 3] {
    let (events, sequenced, feed) = members_of(events);
    [
        body_of(&Frame::ItemBatch { first_seq: 7, payloads: events, trace }),
        body_of(&StoreRpc::Batch { events: sequenced }),
        body_of(&Frame::DeliverBatch { topic: "feed/all".into(), payloads: feed, trace: None }),
    ]
}

/// The same three bodies with their members raw — header, head, the
/// member sequence — as a frame goes out when coding would not pay.
fn raw_bodies_of(events: Vec<FileEvent>, trace: Option<TraceContext>) -> [Vec<u8>; 3] {
    let (events, sequenced, feed) = members_of(events);
    let mut item = vec![1, u8::from(trace.is_some())];
    if let Some(trace) = &trace {
        put_trace(&mut item, trace);
    }
    put_varint(&mut item, 7); // first_seq
    put_members(&mut item, &events);
    let mut store = vec![3, 0, 1]; // the connection's first reply
    put_members(&mut store, &sequenced);
    let mut deliver = vec![4, 0];
    put_bytes(&mut deliver, b"feed/all");
    put_members(&mut deliver, &feed);
    [item, store, deliver]
}

/// Feeds 10,000 seeded mutations of `bodies` to all three decoders.
fn mutations_decode_or_fail_closed(rng: &mut Rng, bodies: &[Vec<u8>; 3]) {
    // Each unmutated body is accepted by its own decoder and by no other.
    let accepted = |body: &[u8]| {
        [
            fed::<Frame<FileEvent>>(body).0,
            fed::<StoreRpc>(body).0,
            fed::<Frame<FeedMessage>>(body).0,
        ]
    };
    assert_eq!(accepted(&bodies[0]), [true, false, false]);
    assert_eq!(accepted(&bodies[1]), [false, true, false]);
    assert_eq!(accepted(&bodies[2]), [false, false, true]);

    let (mut survived, mut refused) = (0u32, 0u32);
    for round in 0..10_000 {
        let body = mutate(rng, &bodies[round % bodies.len()]);
        let bound = allocation_bound(&body);
        for (ok, largest) in [
            fed::<Frame<FileEvent>>(&body),
            fed::<StoreRpc>(&body),
            fed::<Frame<FeedMessage>>(&body),
        ] {
            assert!(
                largest <= bound,
                "round {round}: one allocation of {largest} bytes for a {}-byte body",
                body.len()
            );
            if ok {
                survived += 1;
            } else {
                refused += 1;
            }
        }
    }
    // The mutations reach past the header: some still decode (a flipped
    // bit in a name or an id), and most of the matching decoder's are refused.
    assert!(survived > 100, "only {survived} mutated bodies decoded");
    assert!(refused > 20_000, "only {refused} refusals");
}

#[test]
fn ten_thousand_mutations_decode_or_fail_closed_with_bounded_allocation() {
    let trace = Some(TraceContext::sampled(1, 2));
    let mut rng = Rng(0x5dc1_0007);
    mutations_decode_or_fail_closed(&mut rng, &raw_bodies_of(events(), trace));
    let coded = bodies_of(events(), trace);
    for body in &coded {
        assert_eq!(body[1] & CODED, CODED, "these members go out coded");
        // Flags, trace (on the item body), then the mask: several classes
        // each under a code of its own.
        let at = if body[0] == 1 { 19 } else { 2 };
        let mask = u16::from_le_bytes([body[at], body[at + 1]]);
        assert!(mask.count_ones() >= 6, "{mask:#x}");
    }
    mutations_decode_or_fail_closed(&mut rng, &coded);
}

/// Path words that claim what the body does not hold, in the first
/// member of each kind's raw body: a suffix length of gigabytes, a shared prefix on
/// a member with no predecessor, and a path one byte over its cap with
/// every byte present. Each is refused — the last with the message the
/// single-path cap has always given — and the frame's arena is never
/// sized by the claim.
#[test]
fn a_claimed_path_length_sizes_nothing() {
    let refused = |bad: &[u8]| {
        let results =
            [fed::<Frame<FileEvent>>(bad), fed::<StoreRpc>(bad), fed::<Frame<FeedMessage>>(bad)];
        for (ok, largest) in results {
            assert!(!ok, "accepted a {}-byte body with a forged path word", bad.len());
            assert!(largest <= allocation_bound(bad), "{largest} bytes for {}", bad.len());
        }
    };
    let one_event = |path: &str| {
        let mut event = events().swap_remove(0);
        event.path = path.into();
        vec![event]
    };

    let name = format!("/adversarial/{}", "n".repeat(100));
    for body in raw_bodies_of(one_event(&name), None) {
        // The path is a first member's: shared 0, its length, its bytes.
        let at = body.windows(name.len()).position(|w| w == name.as_bytes()).expect("the path");
        assert_eq!(body[at - 2..at], [0, name.len() as u8]);
        for claim in [4_097, 1 << 31, 1 << 40, u64::MAX] {
            let mut bad = body[..at - 1].to_vec();
            sdci_types::bin::put_varint(&mut bad, claim);
            bad.extend_from_slice(&body[at..]);
            refused(&bad);
        }
        for shared in [1, 0x7f] {
            let mut bad = body.clone();
            bad[at - 2] = shared;
            refused(&bad);
        }
    }

    let over = raw_bodies_of(one_event(&"p".repeat(MAX_PATH_LEN + 1)), None);
    over.iter().for_each(|body| refused(body));
    let err = Frame::<FileEvent>::decode(&over[0]).unwrap_err();
    assert!(err.to_string().contains("exceeds 4096"), "got: {err}");
}

/// Member flags bit 6: the path's base is an earlier member, named by a
/// back-distance. Bit 7: the record number is the predecessor's plus one.
const PATH_REF: u8 = 1 << 6;
const NEXT_INDEX: u8 = 1 << 7;
/// Member flags bit 1: an extraction stamp is present.
const EXTRACTED: u8 = 1 << 1;
/// Record-type byte bits 5-7: FID sequence and version are the
/// predecessor's, so is the extraction stamp, and the unassigned one.
const SAME_FID_HOME: u8 = 1 << 5;
const SAME_EXTRACTED: u8 = 1 << 6;
const RESERVED: u8 = 1 << 7;

/// A member, or a member section, laid out by hand: its raw bytes, and
/// the field class of each — what a coded frame codes it under.
#[derive(Clone, Default)]
struct Laid {
    bytes: Vec<u8>,
    classes: Vec<Class>,
}

impl Laid {
    fn put(&mut self, class: Class, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.classes.resize(self.bytes.len(), class);
    }

    fn varint(&mut self, class: Class, value: u64) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, value);
        self.put(class, &bytes);
    }

    /// `member` as a sequence holds it: right after the one before.
    fn member(&mut self, member: &Laid) {
        self.bytes.extend_from_slice(&member.bytes);
        self.classes.extend_from_slice(&member.classes);
    }
}

/// One event member laid out by hand — a create on MDT 0, one record and
/// a nanosecond after its predecessor, its object id one up — with
/// `flags` and `kind` or-ed into the two bytes that carry bits and the
/// fields those bits drop left out. `back` is the path reference, when
/// there is one; the path is `shared` bytes of its base, then `suffix`.
fn member(flags: u8, kind: u8, back: Option<u64>, shared: usize, suffix: &[u8]) -> Laid {
    laid_member(flags, kind, back, shared, suffix.len() as u64, suffix)
}

/// [`member`], with a suffix whose byte count, `carried`, need not be
/// how many bytes it has.
fn laid_member(
    flags: u8,
    kind: u8,
    back: Option<u64>,
    shared: usize,
    carried: u64,
    suffix: &[u8],
) -> Laid {
    // Bit 4: same MDT; bit 5: the event kind the record type implies.
    let flags = flags | 0x30 | if back.is_some() { PATH_REF } else { 0 };
    let mut out = Laid::default();
    out.put(Class::Flags, &[flags]);
    if flags & NEXT_INDEX == 0 {
        out.put(Class::Other, &[2]); // index +1
    }
    out.put(Class::Kind, &[1 | kind]); // 01CREAT
    out.put(Class::Time, &[2]); // time +1
    if let Some(back) = back {
        out.varint(Class::Back, back);
    }
    out.varint(Class::Shared, shared as u64);
    out.varint(Class::Carried, carried);
    out.put(Class::Path, suffix);
    if kind & SAME_FID_HOME == 0 {
        out.put(Class::Other, &[0]); // seq
        out.put(Class::Oid, &[2]); // oid +1
        out.put(Class::Other, &[0]); // ver
    } else {
        out.put(Class::Oid, &[2]);
    }
    if flags & EXTRACTED != 0 && kind & SAME_EXTRACTED == 0 {
        out.put(Class::Other, &[0]);
    }
    out
}

/// The member sections of the three data-frame kinds carrying hand-laid
/// `members`: as they are in an item batch, behind a sequence delta in a
/// store batch, behind a tag and a sequence delta in a deliver batch —
/// where a `None` is a heartbeat (the other two kinds carry no such
/// member and skip it).
fn sections(members: &[Option<Laid>]) -> [Laid; 3] {
    let mut sections: [Laid; 3] = Default::default();
    let events = members.iter().flatten().count() as u64;
    sections[0].varint(Class::Other, events);
    sections[1].varint(Class::Other, events);
    sections[2].varint(Class::Other, members.len() as u64);
    for event in members {
        let Some(event) = event else {
            let mut heartbeat = Laid::default();
            heartbeat.put(Class::Tag, &[1]);
            heartbeat.put(Class::Seq, &[0]);
            sections[2].member(&heartbeat);
            continue;
        };
        sections[0].member(event);
        for (section, tagged) in sections[1..].iter_mut().zip([false, true]) {
            let mut member = Laid::default();
            if tagged {
                member.put(Class::Tag, &[0]);
            }
            member.put(Class::Seq, &[2]);
            member.bytes.extend_from_slice(&event.bytes);
            member.classes.extend_from_slice(&event.classes);
            section.member(&member);
        }
    }
    sections
}

/// The three kinds' headers with `flags` and `codes` — a coded frame's
/// class mask and tables — and their heads.
fn heads(flags: u8, codes: &[u8]) -> [Vec<u8>; 3] {
    let mut item = [&[1, flags][..], codes].concat();
    put_varint(&mut item, 7); // first_seq
    let store = [&[3, flags][..], codes, &[1]].concat(); // the first reply
    let mut deliver = [&[4, flags][..], codes].concat();
    put_bytes(&mut deliver, b"feed/all");
    [item, store, deliver]
}

/// The three data-frame kinds carrying hand-laid `members` raw.
fn hand_laid(members: &[Option<Laid>]) -> [Vec<u8>; 3] {
    let mut bodies = heads(0, &[]);
    for (body, section) in bodies.iter_mut().zip(sections(members)) {
        body.extend_from_slice(&section.bytes);
    }
    bodies
}

/// What each kind's own decoder made of its body: the paths it decoded,
/// or `None` where it refused — as `InvalidData`, within the allocation
/// bound, or the test fails.
fn decoded_paths(bodies: &[Vec<u8>; 3]) -> [Option<Vec<String>>; 3] {
    fn checked<M: WireMsg>(body: &[u8], paths: impl Fn(M) -> Vec<String>) -> Option<Vec<String>> {
        let (result, largest) = largest_request(|| M::decode(body));
        assert!(largest <= allocation_bound(body), "{largest} bytes for {}", body.len());
        match result {
            Ok(msg) => Some(paths(msg)),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                None
            }
        }
    }
    let path = |event: &FileEvent| event.path.to_str().expect("UTF-8").to_string();
    [
        checked(&bodies[0], |frame: Frame<FileEvent>| match frame {
            Frame::ItemBatch { payloads, .. } => payloads.iter().map(path).collect(),
            other => panic!("an item body decoded as {other:?}"),
        }),
        checked(&bodies[1], |reply: StoreRpc| match reply {
            StoreRpc::Batch { events } => events.iter().map(|sev| path(&sev.event)).collect(),
            other => panic!("a store body decoded as {other:?}"),
        }),
        checked(&bodies[2], |frame: Frame<FeedMessage>| match frame {
            Frame::DeliverBatch { payloads, .. } => payloads
                .iter()
                .filter_map(|m| match m {
                    FeedMessage::Event(sev) => Some(path(&sev.event)),
                    FeedMessage::Heartbeat { .. } => None,
                })
                .collect(),
            other => panic!("a deliver body decoded as {other:?}"),
        }),
    ]
}

/// References and "same" bits that name what the frame does not hold: a
/// back-distance of 0 (itself), of 1 (the predecessor, which a clear bit
/// already means), past the first member, on a first member, onto a
/// heartbeat; the unassigned record-type bit; the predecessor's record
/// number, FID home or stamp claimed by a member that has no
/// predecessor. The same members laid out honestly decode — the layout
/// in this file is the decoder's.
#[test]
fn references_outside_the_frame_and_bits_without_a_predecessor_are_refused() {
    let first = || Some(member(0, 0, None, 0, b"/d/alpha/x"));
    let second = || Some(member(0, 0, None, 3, b"beta/y"));
    let third = |back| Some(member(0, 0, Some(back), 9, b"z"));
    let all = |paths: &[&str]| Some(paths.iter().map(|p| p.to_string()).collect::<Vec<_>>());

    // Two back from the third member is the first; every bit there is
    // may be set on a member that has a predecessor.
    let honest = decoded_paths(&hand_laid(&[first(), second(), third(2)]));
    assert_eq!(honest, [(); 3].map(|()| all(&["/d/alpha/x", "/d/beta/y", "/d/alpha/z"])));
    let every_bit = member(NEXT_INDEX | EXTRACTED, SAME_FID_HOME | SAME_EXTRACTED, None, 10, b"");
    let stamped = Some(member(EXTRACTED, 0, None, 0, b"/d/alpha/x"));
    let twice = decoded_paths(&hand_laid(&[stamped.clone(), Some(every_bit.clone())]));
    assert_eq!(twice, [(); 3].map(|()| all(&["/d/alpha/x", "/d/alpha/x"])));

    let refused = |what: &str, members: &[Option<Laid>]| {
        assert_eq!(decoded_paths(&hand_laid(members)), [None, None, None], "{what}");
    };
    refused("a reference to itself", &[first(), second(), third(0)]);
    refused("a reference to the predecessor", &[first(), second(), third(1)]);
    refused("a reference past the first member", &[first(), second(), third(3)]);
    refused("a reference far past it", &[first(), second(), third(u64::MAX)]);
    for back in [0, 1, 2] {
        let lone = Some(member(0, 0, Some(back), 0, b"/d/alpha/x"));
        refused("a reference on a first member", &[lone, second()]);
    }
    refused("the reserved record-type bit", &[Some(member(0, RESERVED, None, 0, b"/x"))]);
    refused("the reserved bit later on", &[first(), Some(member(0, RESERVED, None, 3, b"y"))]);
    refused("a first member's record number +1", &[Some(member(NEXT_INDEX, 0, None, 0, b"/x"))]);
    refused("a first member's FID home", &[Some(member(0, SAME_FID_HOME, None, 0, b"/x"))]);
    refused("a first member's stamp", &[Some(member(EXTRACTED, SAME_EXTRACTED, None, 0, b"/x"))]);
    refused("a stamp the predecessor lacks", &[first(), Some(every_bit)]);
    refused(
        "a stamp that is absent and the same",
        &[stamped, Some(member(0, SAME_EXTRACTED, None, 10, b""))],
    );

    // A heartbeat holds no path and is no predecessor: the deliver frame
    // refuses a reference onto it and "same" bits right after it, while
    // the other two kinds — which never saw it — see honest members.
    let alone = Some(member(0, 0, None, 0, b"/d/beta/y"));
    let onto = decoded_paths(&hand_laid(&[first(), None, alone, third(2)]));
    assert_eq!(onto[2], None, "two back is the heartbeat");
    assert_eq!(onto[..2], honest[..2], "two back is the first member");
    let across = decoded_paths(&hand_laid(&[first(), second(), None, third(3)]));
    assert_eq!(across[2], all(&["/d/alpha/x", "/d/beta/y", "/d/alpha/z"]), "three back, over it");
    assert_eq!(across[..2], [None, None], "three back of two");
    let after =
        decoded_paths(&hand_laid(&[first(), None, Some(member(NEXT_INDEX, 0, None, 0, b"/x"))]));
    assert_eq!(after, [all(&["/d/alpha/x", "/x"]), all(&["/d/alpha/x", "/x"]), None]);
}

/// A chain of references cannot assemble what a verbatim frame could
/// not carry: each path is charged to `MAX_PATH_LEN` whichever member it
/// shares from, and all of them to the frame's `FRAME_PATH_BUDGET`.
#[test]
fn a_chain_of_references_is_charged_like_any_other_path() {
    // Two alternating 4,096-byte paths, each member from the third on
    // sharing all of the one two back: a few bytes that assemble a page.
    let long = |fill: u8| Some(member(0, 0, None, 0, &[fill; MAX_PATH_LEN]));
    let again = || Some(member(0, 0, Some(2), MAX_PATH_LEN, b""));
    let chain = |len: usize| -> Vec<Option<Laid>> {
        [long(b'p'), long(b'q')].into_iter().chain((2..len).map(|_| again())).collect()
    };
    let honest = decoded_paths(&hand_laid(&chain(8)));
    for paths in honest {
        let paths = paths.expect("eight pages are within every limit");
        assert_eq!(paths.len(), 8);
        assert!(paths.iter().all(|p| p.len() == MAX_PATH_LEN));
    }

    // One byte more than a page, reached through a reference.
    let mut over = chain(8);
    over.push(Some(member(0, 0, Some(2), MAX_PATH_LEN, b"x")));
    let bodies = hand_laid(&over);
    assert_eq!(decoded_paths(&bodies), [None, None, None]);
    let err = Frame::<FileEvent>::decode(&bodies[0]).unwrap_err();
    assert!(err.to_string().contains("exceeds 4096"), "got: {err}");

    // One page more than the budget: the item decoder (the three share
    // the reader that keeps the count) stops at the member that would
    // cross it, having allocated no more than the budget's doubling.
    let pages = FRAME_PATH_BUDGET / MAX_PATH_LEN;
    let [body, ..] = hand_laid(&chain(pages + 1));
    assert!(body.len() < 64 * pages, "{} bytes claim {pages} pages", body.len());
    let (result, largest) = largest_request(|| Frame::<FileEvent>::decode(&body));
    let err = result.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("path bytes"), "got: {err}");
    assert!(largest <= 2 * FRAME_PATH_BUDGET, "one allocation of {largest} bytes");
    let [fits, ..] = hand_laid(&chain(pages));
    assert!(Frame::<FileEvent>::decode(&fits).is_ok(), "the budget itself is allowed");
}

/// A code table as a frame carries it, for `(symbol, codeword length)`
/// pairs: `n−1`, the symbols — listed when fewer than 32, else a bitmap
/// — then the lengths, four bits each, whatever the pairs are.
fn table(lens: &[(u8, u8)]) -> Vec<u8> {
    let n = lens.len();
    let mut out = vec![(n - 1) as u8];
    if n < 32 {
        out.extend(lens.iter().map(|&(symbol, _)| symbol));
    } else {
        let mut bitmap = [0u8; 32];
        lens.iter().for_each(|&(symbol, _)| bitmap[usize::from(symbol >> 3)] |= 1 << (symbol & 7));
        out.extend(bitmap);
    }
    out.extend(lens.chunks(2).map(|pair| (pair[0].1 << 4) | pair.get(1).map_or(0, |p| p.1)));
    out
}

/// Every byte value, each with an eight-bit codeword: the canonical
/// codewords are then the bytes themselves, so under this table a coded
/// class is its raw bytes, bit for bit.
fn identity() -> Vec<u8> {
    table(&(0..=u8::MAX).map(|symbol| (symbol, 8)).collect::<Vec<_>>())
}

/// `/`, `a`, `b` and `x`, two bits each: `00`, `01`, `10`, `11`.
fn four() -> Vec<u8> {
    table(&[(b'/', 2), (b'a', 2), (b'b', 2), (b'x', 2)])
}

/// Each byte value's codeword (bits, length) in each class: the class's
/// canonical code under its table in `codes`, worked out here
/// independently of the encoder, or the byte itself in eight bits for a
/// class `codes` leaves out.
type Codewords = [[(u64, u32); 256]; CLASSES];

fn codewords(codes: &[(Class, Vec<u8>)]) -> Codewords {
    let mut out = [std::array::from_fn(|byte| (byte as u64, 8)); CLASSES];
    for (class, table) in codes {
        let n = usize::from(table[0]) + 1;
        let (symbols, nibbles): (Vec<usize>, &[u8]) = if n < 32 {
            (table[1..=n].iter().map(|&s| usize::from(s)).collect(), &table[1 + n..])
        } else {
            ((0..256).filter(|s| table[1 + (s >> 3)] >> (s & 7) & 1 == 1).collect(), &table[33..])
        };
        let len = |i: usize| u32::from(nibbles[i / 2] >> (4 - 4 * (i & 1))) & 0xf;
        let map = &mut out[*class as usize];
        *map = [(0, 0); 256];
        let mut next = 0u64;
        for bits in 1..=12 {
            for (i, &symbol) in symbols.iter().enumerate() {
                if len(i) == bits {
                    map[symbol] = (next, bits);
                    next += 1;
                }
            }
            next <<= 1;
        }
    }
    out
}

/// `section` as one bit stream, each byte under its class's codeword in
/// `words`, the final byte's padding bits set from `padding`.
fn code_section(section: &Laid, words: &Codewords, padding: u8) -> Vec<u8> {
    let (mut out, mut pending, mut held) = (Vec::new(), 0u64, 0u32);
    for (&byte, &class) in section.bytes.iter().zip(&section.classes) {
        let (bits, len) = words[class as usize][usize::from(byte)];
        assert!(len > 0, "byte {byte:#x} of the {class} class has no codeword");
        pending = (pending << len) | bits;
        held += len;
        while held >= 8 {
            held -= 8;
            out.push((pending >> held) as u8);
        }
    }
    if held > 0 {
        out.push((pending << (8 - held)) as u8 | (padding & (0xff >> held)));
    }
    out
}

/// A coded frame's class mask and tables for `codes`, in the order given.
fn mask_and_tables(codes: &[(Class, Vec<u8>)]) -> Vec<u8> {
    let mask = codes.iter().fold(0u16, |mask, (class, _)| mask | class.bit());
    let tables = codes.iter().flat_map(|(_, table)| table.iter().copied());
    mask.to_le_bytes().into_iter().chain(tables).collect()
}

/// The three kinds carrying hand-laid `members` coded, their class mask
/// and tables `codes`, each byte under `words`, the final padding bits
/// set from `padding`.
fn laid_coded(
    codes: &[u8],
    words: &Codewords,
    padding: u8,
    members: &[Option<Laid>],
) -> [Vec<u8>; 3] {
    let mut bodies = heads(CODED, codes);
    for (body, section) in bodies.iter_mut().zip(sections(members)) {
        body.extend(code_section(&section, words, padding));
    }
    bodies
}

/// The three kinds carrying hand-laid `members` under the tables of
/// `codes` (a class it leaves out goes raw), the final padding bits set
/// from `padding`.
fn coded_with(codes: &[(Class, Vec<u8>)], padding: u8, members: &[Option<Laid>]) -> [Vec<u8>; 3] {
    laid_coded(&mask_and_tables(codes), &codewords(codes), padding, members)
}

/// [`coded_with`], its padding zero.
fn coded(codes: &[(Class, Vec<u8>)], members: &[Option<Laid>]) -> [Vec<u8>; 3] {
    coded_with(codes, 0, members)
}

/// A first member whose whole path is a suffix of `carried` bytes, `suffix`.
fn coded_first(carried: u64, suffix: &[u8]) -> Option<Laid> {
    Some(laid_member(0, 0, None, 0, carried, suffix))
}

/// The three kinds' bodies cut right after a coded frame's class mask
/// and tables, `codes`, as given: they are read before anything else, so
/// a table cut short is one the body ends inside.
fn headed(codes: &[u8]) -> [Vec<u8>; 3] {
    [1, 3, 4].map(|kind| [&[kind, CODED][..], codes].concat())
}

/// Honest members beside every rule, and the paths they decode to.
fn honest() -> [Option<Laid>; 3] {
    [
        Some(member(0, 0, None, 0, b"/d/alpha/x")),
        Some(member(0, 0, None, 3, b"beta/y")),
        Some(member(0, 0, Some(2), 9, b"z")),
    ]
}

const HONEST_PATHS: [&str; 3] = ["/d/alpha/x", "/d/beta/y", "/d/alpha/z"];

fn all(paths: &[&str]) -> Option<Vec<String>> {
    Some(paths.iter().map(|p| p.to_string()).collect())
}

/// Decoded to `want` by all three decoders.
fn decodes(bodies: [Vec<u8>; 3], want: &[&str]) {
    assert_eq!(decoded_paths(&bodies), [(); 3].map(|()| all(want)));
}

/// Refused by all three decoders, the item decoder saying `why`.
fn refused(why: &str, bodies: [Vec<u8>; 3]) {
    assert_eq!(decoded_paths(&bodies), [None, None, None], "{why}");
    let err = Frame::<FileEvent>::decode(&bodies[0]).unwrap_err();
    assert!(err.to_string().contains(why), "expected {why:?}, got: {err}");
}

/// Per-class tables that break a rule, each beside honest neighbours that
/// decode, each refused with its own message — as the path class's table,
/// first in the frame, and as the flags class's, after an honest one: a
/// table cut short in its count, its symbols or its lengths; a list that
/// is not strictly ascending, or repeats a symbol; a bitmap naming other
/// than its count of symbols — which is what a list claiming 32 symbols
/// or more reads as; over-subscribed or incomplete lengths, a length of 0
/// or of 13 (12 is the longest allowed), a padding nibble that is not
/// zero; and a one-symbol code whose codeword is not one bit. Beside them
/// what the rules allow: a list of 31 symbols, a bitmap of 32, codes as
/// deep as twelve bits, a one-symbol code of one bit.
#[test]
fn a_class_table_that_breaks_a_rule_is_refused_with_its_own_message() {
    let id = identity();
    for codes in [
        vec![(Class::Path, id.clone())],
        vec![(Class::Flags, id.clone())],
        // Every class all three sections hold: not the tag (only a feed's
        // members carry one) nor the sequence delta (an item's do not).
        Class::ALL
            .into_iter()
            .filter(|class| !matches!(class, Class::Tag | Class::Seq))
            .map(|class| (class, id.clone()))
            .collect(),
    ] {
        decodes(coded(&codes, &honest()), &HONEST_PATHS);
        // Under identity tables the section is the raw one.
        let laid = mask_and_tables(&codes).len();
        assert_eq!(coded(&codes, &honest())[1][2 + laid..], hand_laid(&honest())[1][2..]);
    }

    let two = || table(&[(0, 1), (1, 1)]);
    let mut padded = table(&[(0, 1), (1, 2), (2, 2)]);
    *padded.last_mut().unwrap() |= 1;
    // 32 symbols listed, `0x20`..`0x3f`: read as a 32-byte bitmap, whose
    // bits name more.
    let listed_32 = [&[31][..], &(0x20..0x40).collect::<Vec<u8>>(), &[0x55; 16]].concat();
    let named: u32 = (0x20u8..0x40).map(u8::count_ones).sum();
    let listed_32_why = format!("bitmap names {named} symbols, its count 32");
    let bad_tables: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", vec![]),
        ("truncated", two()[..2].to_vec()),
        ("truncated", two()[..3].to_vec()),
        ("truncated", id[..20].to_vec()),
        ("not strictly ascending", [&[1, b'b', b'a'][..], &[0x11]].concat()),
        ("not strictly ascending", [&[1, b'a', b'a'][..], &[0x11]].concat()),
        (&listed_32_why, listed_32),
        (
            "bitmap names 31 symbols, its count 32",
            [&[31][..], &[0xff; 3], &[0x7f], &[0; 28], &[0x55; 16]].concat(),
        ),
        ("over-subscribed", table(&[(0, 1), (1, 1), (2, 1)])),
        ("incomplete", table(&[(0, 1), (1, 2)])),
        ("length of 0", table(&[(0, 1), (1, 0)])),
        ("length of 13", table(&[(0, 1), (1, 13)])),
        ("padding nibble", padded),
        ("one-symbol path code whose codeword is 2 bits", table(&[(b'/', 2)])),
        ("one-symbol path code whose codeword is 12 bits", table(&[(b'/', 12)])),
        ("length of 0", table(&[(b'/', 0)])),
    ];
    for (why, bad) in bad_tables {
        // As the path class's table, first; and as the flags class's,
        // after the path class's honest one.
        let first = [&Class::Path.bit().to_le_bytes()[..], &bad].concat();
        refused(why, headed(&first));
        let mask = (Class::Path.bit() | Class::Flags.bit()).to_le_bytes();
        let second = [&mask[..], &id, &bad].concat();
        refused(&why.replace("path", "flags"), headed(&second));
    }

    // What the rules allow. Lengths 1, 2, ..., 11, 12, 12 are complete:
    // `/` is the one-bit `0`.
    let mut deepest: Vec<(u8, u8)> =
        (b'a'..=b'l').zip(2..=12).chain([(b'/', 1), (b'z', 12)]).collect();
    deepest.sort();
    decodes(coded(&[(Class::Path, table(&deepest))], &[coded_first(1, b"/")]), &["/"]);
    // A list of 31 — thirty 5-bit codewords and one of 4 — and a bitmap
    // of 32 5-bit ones, over `@`, `A`..`Z`, `[`, `\`, `]`, `^`, `_`.
    let listed: Vec<(u8, u8)> = (0x41..0x60).map(|s| (s, if s == 0x41 { 4 } else { 5 })).collect();
    let mapped: Vec<(u8, u8)> = (0x40..0x60).map(|s| (s, 5)).collect();
    assert_eq!((table(&listed).len(), table(&mapped).len()), (1 + 31 + 16, 1 + 32 + 16));
    for symbols in [listed, mapped] {
        decodes(coded(&[(Class::Path, table(&symbols))], &[coded_first(3, b"ABC")]), &["ABC"]);
    }
    // A one-symbol code of one bit: every member's kind byte, `01`.
    let one = vec![(Class::Kind, table(&[(1, 1)]))];
    decodes(coded(&one, &honest()), &HONEST_PATHS);
}

/// What a coded frame's header and section may not be, each refused with
/// its own message: class-mask bits past the last class, or a mask with
/// no bit; codes whose lookup tables together take more than 8,192
/// entries (two twelve-bit-deep codes are the most that fit); the
/// codeword `1` of a one-symbol code; final padding bits that are not
/// zero; codewords that run past the body; a suffix claiming more bytes
/// than the bits left could hold, or a path one byte over `MAX_PATH_LEN`;
/// and a code for a class the section has no byte of.
#[test]
fn a_class_mask_or_coded_section_that_breaks_a_rule_is_refused_with_its_own_message() {
    let id = identity();
    for bit in 12..16 {
        let mask = (Class::Path.bit() | (1 << bit)).to_le_bytes();
        refused("unknown class-mask bits", headed(&[&mask[..], &id].concat()));
    }
    refused("codes nothing", headed(&[0, 0]));

    // Twelve bits deep: `0x30` (the flags byte), `/` and `x` among them.
    let deep = |common: u8| {
        let mut lens: Vec<(u8, u8)> =
            (b'a'..=b'k').zip(2..=12).chain([(common, 1), (b'x', 12)]).collect();
        lens.sort();
        table(&lens)
    };
    assert_eq!(2 << MAX_CODE_LEN, LOOKUP_ENTRIES, "two twelve-bit codes fill the entries");
    let two = vec![(Class::Path, deep(b'/')), (Class::Flags, deep(0x30))];
    decodes(coded(&two, &[coded_first(3, b"/ax")]), &["/ax"]);
    let three = [two.clone(), vec![(Class::Time, deep(2))]].concat();
    refused("lookup tables take more than 8192 entries", coded(&three, &[coded_first(3, b"/ax")]));

    // The one-symbol kind code's `1`, where its `0` belongs.
    let one = vec![(Class::Kind, table(&[(1, 1)]))];
    let mut words = codewords(&one);
    words[Class::Kind as usize][1] = (1, 1);
    refused(
        "the codeword `1` of a one-symbol kind code",
        laid_coded(&mask_and_tables(&one), &words, 0, &honest()),
    );
    // ... and as a path byte, inside a suffix.
    let one = vec![(Class::Path, table(&[(b'/', 1)]))];
    let mut words = codewords(&one);
    words[Class::Path as usize][usize::from(b'/')] = (1, 1);
    decodes(coded(&one, &[coded_first(2, b"//")]), &["//"]);
    refused(
        "the codeword `1` of a one-symbol path code",
        laid_coded(&mask_and_tables(&one), &words, 0, &[coded_first(2, b"//")]),
    );

    // The section. `/ab` under `four` is `00 01 10`, between field bytes
    // of eight bits each, and the section ends six bits into a byte.
    let four = vec![(Class::Path, four())];
    decodes(coded(&four, &[coded_first(3, b"/ab")]), &["/ab"]);
    refused("padding bits", coded_with(&four, 0x01, &[coded_first(3, b"/ab")]));
    refused("padding bits", coded_with(&four, 0x02, &[coded_first(3, b"/ab")]));
    let cut = coded(&four, &[coded_first(3, b"/ab")]).map(|mut body| {
        body.pop();
        body
    });
    refused("past the body", cut);
    // A suffix count past what the bits left could hold, or past a page.
    refused("a coded suffix of 1000 bytes", coded(&four, &[coded_first(1_000, b"/a")]));
    refused("exceeds 4096", coded(&four, &[coded_first(u64::MAX, b"/a")]));
    // `/` and 4,095 `a`s is a 4,096-byte path in 1,024 bytes; one `a` more
    // is refused on its count, before a bit is decoded.
    let page = [&b"/"[..], &[b'a'; MAX_PATH_LEN - 1]].concat();
    let want = String::from_utf8(page.clone()).unwrap();
    decodes(coded(&four, &[coded_first(MAX_PATH_LEN as u64, &page)]), &[&want]);
    let over = [&page[..], b"a"].concat();
    refused("exceeds 4096", coded(&four, &[coded_first(over.len() as u64, &over)]));

    // A code for a class the section has no byte of: a path code on no
    // members, or on a heartbeat alone; a back-distance code on members
    // that reference nothing; a tag code on an item or store section,
    // which hold no tag.
    let path = vec![(Class::Path, id.clone())];
    refused("a path code on a section with no path bytes", coded(&path, &[]));
    let [.., deliver] = coded(&path, &[None]);
    let err = Frame::<FeedMessage>::decode(&deliver).unwrap_err();
    assert!(err.to_string().contains("no path bytes"), "got: {err}");
    let back = vec![(Class::Back, id.clone())];
    refused(
        "a back-distance code on a section with no back-distance bytes",
        coded(&back, &honest()[..2]),
    );
    let tag = coded(&[(Class::Tag, id.clone())], &honest());
    let [item, store, deliver] = decoded_paths(&tag);
    assert_eq!((item, store, deliver), (None, None, all(&HONEST_PATHS)));
    // Every section has a count, of the other class.
    let other = vec![(Class::Other, id)];
    assert_eq!(decoded_paths(&coded(&other, &[])), [(); 3].map(|()| all(&[])));
}

/// A coded suffix is charged to the frame's path budget like any other:
/// the chain of references that fills the budget exactly still decodes
/// under codes, and one coded byte more is refused.
#[test]
fn a_coded_suffix_is_charged_to_the_frame_path_budget() {
    let long = |fill: u8| Some(member(0, 0, None, 0, &[fill; MAX_PATH_LEN]));
    let again = || Some(member(0, 0, Some(2), MAX_PATH_LEN, b""));
    let pages = FRAME_PATH_BUDGET / MAX_PATH_LEN;
    let mut chain: Vec<Option<Laid>> =
        [long(b'p'), long(b'q')].into_iter().chain((2..pages).map(|_| again())).collect();
    // Every class an item section holds, each under an identity code.
    let codes: Vec<(Class, Vec<u8>)> = Class::ALL
        .into_iter()
        .filter(|class| !matches!(class, Class::Tag | Class::Seq))
        .map(|class| (class, identity()))
        .collect();
    let [fits, ..] = coded(&codes, &chain);
    assert!(Frame::<FileEvent>::decode(&fits).is_ok(), "the budget itself is allowed");
    chain.push(coded_first(1, b"/"));
    let [over, ..] = coded(&codes, &chain);
    let (result, largest) = largest_request(|| Frame::<FileEvent>::decode(&over));
    let err = result.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("path bytes"), "got: {err}");
    assert!(largest <= 2 * FRAME_PATH_BUDGET, "one allocation of {largest} bytes");
}

/// Members back to back, each refused with its own message where the
/// frame does not hold what its count and fields say: a member cut in
/// the middle of its path suffix raw, or of its last field coded (every
/// class under an identity code, so the cut is a byte of codewords); a
/// count one past the members present; and a byte after the last member,
/// raw or coded.
#[test]
fn members_back_to_back_that_the_frame_does_not_hold_are_refused_with_their_own_messages() {
    let honest = honest();
    decodes(hand_laid(&honest), &HONEST_PATHS);
    let cut = |bodies: [Vec<u8>; 3], by: usize| {
        bodies.map(|mut body| {
            body.truncate(body.len() - by);
            body
        })
    };
    // `beta/y` is the second member's suffix, and its FID's three bytes
    // follow it: cut by five, four of the suffix's six bytes are there.
    let two = [honest[0].clone(), honest[1].clone()];
    refused("truncated: need 6 bytes, have 4", cut(hand_laid(&two), 5));
    let codes: Vec<(Class, Vec<u8>)> = Class::ALL
        .into_iter()
        .filter(|class| !matches!(class, Class::Tag | Class::Seq))
        .map(|class| (class, identity()))
        .collect();
    decodes(coded(&codes, &honest), &HONEST_PATHS);
    refused("codewords run 8 bits past the body", cut(coded(&codes, &honest), 1));

    // The count is a byte after the head: after the first sequence number
    // of an item or the number of a store reply (one-byte varints), the
    // topic of a deliver.
    let recount = |bodies: [Vec<u8>; 3], count: u8| {
        bodies.map(|mut body| {
            let at = match body[0] {
                1 | 3 => 3,
                _ => 3 + b"feed/all".len(),
            };
            assert_eq!(body[at], 3, "three members");
            body[at] = count;
            body
        })
    };
    refused("4 members claimed, the section ends after 3", recount(hand_laid(&honest), 4));

    let stray = |bodies: [Vec<u8>; 3]| {
        bodies.map(|mut body| {
            body.push(0);
            body
        })
    };
    refused("1 trailing bytes", stray(hand_laid(&honest)));
    refused("1 trailing bytes", stray(coded(&codes, &honest)));
}

/// Under one-symbol codes a member can be two bits: here a heartbeat —
/// its tag and delta, `01 00` — takes one a class. A member is at least
/// one byte, a coded byte at least one bit, so a section's count may
/// claim as many members as the bits after it: 4,096 heartbeats in 1,024
/// bytes decode, coded and raw. A count of more members than those bits
/// is refused on the count word, before a member is read; a count the
/// bits allow past the members present is refused where the section
/// ends. Neither sizes what the member `Vec` reserves: it grows as the
/// members decode, to the 4,096 present. And the encoder's run of
/// `MAX_FRAME_MEMBERS` heartbeats, all one frame holds, goes out under
/// those codes and reads back.
#[test]
fn a_coded_count_is_held_to_the_bits_after_it() {
    let codes: Vec<(Class, Vec<u8>)> = [(Class::Seq, 0), (Class::Tag, 1)]
        .map(|(class, symbol)| (class, table(&[(symbol, 1)])))
        .to_vec();
    let words = codewords(&codes);
    let [.., head] = heads(CODED, &mask_and_tables(&codes));
    let deliver = |count: u64| {
        let mut section = Laid::default();
        section.varint(Class::Other, count);
        for _ in 0..4_096 {
            section.put(Class::Tag, &[1]);
            section.put(Class::Seq, &[0]);
        }
        [&head[..], &code_section(&section, &words, 0)].concat()
    };
    let grown = 4_096 * std::mem::size_of::<FeedMessage>();
    for (count, ok) in [(4_096, true), (4_097, false), (8_192, false)] {
        let body = deliver(count);
        let (accepted, largest) = fed::<Frame<FeedMessage>>(&body);
        assert_eq!(accepted, ok, "{count} members claimed");
        assert!(largest <= grown, "{count} claimed: one allocation of {largest} bytes");
    }
    let err = Frame::<FeedMessage>::decode(&deliver(8_192)).unwrap_err();
    assert!(err.to_string().contains("8192 members claimed, the section ends after 4096"), "{err}");
    for count in [8_193, 1 << 40] {
        let body = deliver(count);
        let (accepted, largest) = fed::<Frame<FeedMessage>>(&body);
        assert!(!accepted && largest <= allocation_bound(&body), "{count}: {largest} bytes");
        let err = Frame::<FeedMessage>::decode(&body).unwrap_err();
        assert!(err.to_string().contains("members claimed in 8192 bits"), "{count}: {err}");
    }
    let [.., raw] = hand_laid(&vec![None; 4_096]);
    assert!(fed::<Frame<FeedMessage>>(&raw).0, "the same members raw");

    let heartbeats: Vec<FeedMessage> = (1..=MAX_FRAME_MEMBERS as u64)
        .map(|last_seq| FeedMessage::Heartbeat { last_seq })
        .collect();
    let frame = Frame::DeliverBatch { topic: "feed/all".into(), payloads: heartbeats, trace: None };
    let body = body_of(&frame);
    assert!(body.len() < MAX_FRAME_MEMBERS / 4 + 64, "{} bytes for 8,192 members", body.len());
    assert_eq!(Frame::<FeedMessage>::decode(&body).unwrap(), frame);
}

/// Frame-header flags bit 2: the frame continues its connection.
const CONTINUES: u8 = 4;

/// An item-batch head: kind 1, `flags`, `codes`, `first_seq`.
fn item_head(flags: u8, codes: &[u8], first_seq: u64) -> Vec<u8> {
    let mut head = [&[1, flags][..], codes].concat();
    put_varint(&mut head, first_seq);
    head
}

/// An item batch of hand-laid `members`, raw, starting at `first_seq`;
/// continuing its connection when `continues`.
fn laid_item(continues: bool, first_seq: u64, members: &[Laid]) -> Vec<u8> {
    let flags = if continues { CONTINUES } else { 0 };
    let [section, ..] = sections(&members.iter().cloned().map(Some).collect::<Vec<_>>());
    [item_head(flags, &[], first_seq), section.bytes].concat()
}

/// Where the varint head of `body` starts: the one byte in which it
/// differs from `other`, the same frame under another one-byte key.
fn head_at(body: &[u8], other: &[u8]) -> usize {
    assert_eq!(body.len(), other.len(), "two keys of one byte each");
    let mut differ = (0..body.len()).filter(|&i| body[i] != other[i]);
    let at = differ.next().expect("the keys differ");
    assert_eq!(differ.next(), None, "only the key differs");
    at
}

/// `body` with the one-byte varint key at `at` replaced by `key`, in as
/// many bytes as its varint takes.
fn with_head(body: &[u8], at: usize, key: u64) -> Vec<u8> {
    let mut varint = Vec::new();
    put_varint(&mut varint, key);
    [&body[..at], &varint, &body[at + 1..]].concat()
}

/// Decodes `body` as the reader of a connection whose history is
/// `history` does: the paths it decoded, or the error.
fn read_on(history: &mut History, body: &[u8]) -> Result<Vec<String>, std::io::Error> {
    match Frame::<FileEvent>::decode_on(body, history)? {
        Frame::ItemBatch { payloads, .. } => {
            Ok(payloads.iter().map(|e| e.path.to_str().expect("UTF-8").to_string()).collect())
        }
        other => panic!("an item body decoded as {other:?}"),
    }
}

/// Refused as `InvalidData`, saying `why`.
fn refused_on(history: &mut History, body: &[u8], why: &str) {
    refused_as(read_on(history, body).unwrap_err(), why);
}

/// `err` is `InvalidData` and says `why`.
fn refused_as(err: std::io::Error, why: &str) {
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(why), "expected {why:?}, got: {err}");
}

/// The events of frame `frame` of a continuing stream: [`events`], moved
/// on past the frames before it.
fn frame_events(frame: u64) -> Vec<FileEvent> {
    events()
        .into_iter()
        .map(|e| FileEvent {
            index: e.index + 24 * frame,
            time: SimTime::from_nanos(e.time.as_nanos() + 24 * 7_000 * frame),
            ..e
        })
        .collect()
}

/// The bodies of a run of whole frames.
fn bodies(mut rest: &[u8]) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    while !rest.is_empty() {
        let len = (u32::from_be_bytes(rest[..4].try_into().unwrap()) & !(1 << 31)) as usize;
        bodies.push(rest[4..4 + len].to_vec());
        rest = &rest[4 + len..];
    }
    bodies
}

/// `frames` item batches of events over three directories, as one
/// encoder writes them to one connection: the first fresh, each after it
/// continuing the one before.
fn continuing_stream(frames: usize) -> Vec<Vec<u8>> {
    continuing_stream_from(7, frames)
}

/// [`continuing_stream`], its first frame keyed `first_seq`.
fn continuing_stream_from(first_seq: u64, frames: usize) -> Vec<Vec<u8>> {
    let mut enc = BinEncoder::new();
    let mut out = Vec::new();
    for frame in 0..frames as u64 {
        let events = frame_events(frame);
        write_item_batch_bin(&mut out, &mut enc, first_seq + 24 * frame, &events, None).unwrap();
    }
    let bodies = bodies(&out);
    assert_eq!(bodies.len(), frames);
    bodies
}

/// The same events as `frames` deliver batches, sequenced densely from 7,
/// as the fan-out writes them to a subscriber that took every one: the
/// first fresh, each after it continuing the one before.
fn continuing_feed(frames: usize) -> Vec<Vec<u8>> {
    let mut enc = BinEncoder::new();
    let mut out = Vec::new();
    for frame in 0..frames as u64 {
        let feed: Vec<FeedMessage> = (7 + 24 * frame..)
            .zip(frame_events(frame))
            .map(|(seq, event)| FeedMessage::Event(SequencedEvent { seq, event }))
            .collect();
        write_deliver_batch_bin(&mut out, &mut enc, "feed/all", &feed, None).unwrap();
    }
    let bodies = bodies(&out);
    assert_eq!(bodies.len(), frames);
    bodies
}

/// The events of [`continuing_replies`]' reply `reply` of `replies`: the
/// events of frame `reply` of a continuing stream, sequenced from an
/// offset that falls as the replies go on — a consumer's queries land
/// anywhere in the store, and a reply's key is its position on the
/// connection, not a sequence number.
fn reply_events(reply: u64, replies: u64) -> Vec<SequencedEvent> {
    (7 + 1_000 * (replies - reply)..)
        .zip(frame_events(reply))
        .map(|(seq, event)| SequencedEvent { seq, event })
        .collect()
}

/// `replies` store replies as one server connection writes them through
/// its encoder: the first fresh, each after it continuing the one before.
fn continuing_replies(replies: usize) -> Vec<Vec<u8>> {
    let mut enc = BinEncoder::new();
    let mut out = Vec::new();
    for reply in 0..replies as u64 {
        let events = reply_events(reply, replies as u64);
        write_msg_bin(&mut out, &mut enc, &StoreRpc::Batch { events }).unwrap();
    }
    let bodies = bodies(&out);
    assert_eq!(bodies.len(), replies);
    bodies
}

/// Decodes reply `body` as the store client of a connection whose
/// history is `history` does: the sequence numbers it decoded, or the
/// error.
fn read_reply_on(history: &mut History, body: &[u8]) -> Result<Vec<u64>, std::io::Error> {
    match StoreRpc::decode_on(body, history)? {
        StoreRpc::Batch { events } => Ok(events.iter().map(|e| e.seq).collect()),
        other => panic!("a reply body decoded as {other:?}"),
    }
}

/// Decodes deliver `body` as the reader of a connection whose history is
/// `history` does: the sequence numbers it decoded, or the error.
fn read_feed_on(history: &mut History, body: &[u8]) -> Result<Vec<u64>, std::io::Error> {
    match Frame::<FeedMessage>::decode_on(body, history)? {
        Frame::DeliverBatch { payloads, .. } => Ok(payloads
            .iter()
            .map(|m| match m {
                FeedMessage::Event(sev) => sev.seq,
                FeedMessage::Heartbeat { last_seq } => *last_seq,
            })
            .collect()),
        other => panic!("a deliver body decoded as {other:?}"),
    }
}

/// Every way a continuing frame can fail to match its reader's history,
/// each refused with its own message: on a reader that holds none, or
/// decoded apart from any connection; a `first_seq` one off either way
/// (a gap, refused like any other frame: the history is cleared, so the
/// right frame is refused after it too); a back-distance one past what
/// the reader holds, and one past the 1,024-member window, where one
/// less is read; and a reuse bit for a class the last frame did not
/// code, or outside the class mask. A store reply continues its
/// connection too: decoded apart from it, or on a reader that holds none
/// of its history, it is refused.
#[test]
fn a_continuing_frame_that_does_not_match_its_history_is_refused_with_its_own_message() {
    let stream = continuing_stream(2);
    assert_eq!(stream[0][1] & CONTINUES, 0);
    assert_eq!(stream[1][1] & CONTINUES, CONTINUES);
    refused_on(&mut History::default(), &stream[1], "holds none of its history");
    let err = Frame::<FileEvent>::decode(&stream[1]).unwrap_err();
    assert!(err.to_string().contains("decoded apart from it"), "{err}");

    // The head is the one byte in which the same stream keyed from 57
    // differs: first_seq, a varint after the codes, 31 here and 81 there.
    let at = head_at(&stream[1], &continuing_stream_from(57, 2)[1]);
    assert_eq!(stream[1][at], 31);
    let mut history = History::default();
    for off_by in [1u64, u64::MAX] {
        assert_eq!(read_on(&mut history, &stream[0]).unwrap().len(), 24);
        let bad = with_head(&stream[1], at, 31u64.wrapping_add(off_by));
        refused_on(&mut history, &bad, "where its history ends at 31");
        refused_on(&mut history, &stream[1], "holds none of its history");
    }
    assert_eq!(read_on(&mut history, &stream[0]).unwrap().len(), 24);
    assert_eq!(read_on(&mut history, &stream[1]).unwrap().len(), 24);

    // Three members held: three back from the next frame's first member
    // is the first of them, four is past them.
    let holding = |body: &[u8]| {
        let mut history = History::default();
        read_on(&mut history, body).unwrap();
        history
    };
    let [fresh, ..] = hand_laid(&honest());
    let reaching = |back| laid_item(true, 10, &[member(0, 0, Some(back), 9, b"w")]);
    assert_eq!(read_on(&mut holding(&fresh), &reaching(3)).unwrap(), ["/d/alpha/w"]);
    refused_on(&mut holding(&fresh), &reaching(4), "reaches past the 3 members");

    // A full window: 1,024 back is the oldest held, 1,025 is past it.
    let window: Vec<Laid> = std::iter::once(member(0, 0, None, 0, b"/d/alpha/x"))
        .chain((1..1_100).map(|_| member(0, 0, None, 10, b"")))
        .collect();
    let full = laid_item(false, 7, &window);
    let reaching = |back| laid_item(true, 1_107, &[member(0, 0, Some(back), 9, b"w")]);
    assert_eq!(read_on(&mut holding(&full), &reaching(1_024)).unwrap(), ["/d/alpha/w"]);
    let why = "past the 1024-member history window";
    refused_on(&mut holding(&full), &reaching(1_025), why);

    // Reuse: the path code the last frame carried may be reused with no
    // table; one it did not carry may not, nor may a reuse bit stand
    // outside the class mask.
    let four = vec![(Class::Path, four())];
    let words = codewords(&four);
    let path_frame = |first_seq: u64, codes: &[u8], flags: u8| {
        let [section, ..] = sections(&[coded_first(3, b"/ab")]);
        [item_head(CODED | flags, codes, first_seq), code_section(&section, &words, 0)].concat()
    };
    let reused = [Class::Path.bit(), Class::Path.bit()].map(u16::to_le_bytes).concat();
    let mut history = History::default();
    assert_eq!(read_on(&mut history, &path_frame(1, &mask_and_tables(&four), 0)).unwrap(), ["/ab"]);
    assert_eq!(read_on(&mut history, &path_frame(2, &reused, CONTINUES)).unwrap(), ["/ab"]);
    assert_eq!(read_on(&mut history, &path_frame(3, &reused, CONTINUES)).unwrap(), ["/ab"]);
    let mut history = History::default();
    let [raw, ..] = hand_laid(&honest());
    read_on(&mut history, &raw).unwrap();
    let why = "a reuse bit for a path code the previous frame did not carry";
    refused_on(&mut history, &path_frame(10, &reused, CONTINUES), why);
    let mut history = History::default();
    read_on(&mut history, &path_frame(1, &mask_and_tables(&four), 0)).unwrap();
    let outside = [Class::Path.bit(), Class::Flags.bit()].map(u16::to_le_bytes).concat();
    let outside = [&outside[..], &four[0].1].concat();
    refused_on(&mut history, &path_frame(2, &outside, CONTINUES), "outside the class mask");

    // A store reply continues the replies before it: its number, the
    // connection's second here, does not stand for the history it needs.
    let replies = continuing_replies(3);
    assert_eq!(replies[0][1] & CONTINUES, 0);
    assert_eq!(replies[1][1] & CONTINUES, CONTINUES);
    let err = StoreRpc::decode(&replies[1]).unwrap_err();
    let why = "a store reply that continues its connection, decoded apart from it";
    assert!(err.to_string().contains(why), "{err}");
    let mut history = History::default();
    history.take_number(1).unwrap();
    let err = read_reply_on(&mut history, &replies[1]).unwrap_err();
    refused_as(err, "holds none of its history");
    // Only a store reader reads a reply.
    assert!(!fed::<Frame<FileEvent>>(&replies[0]).0 && !fed::<Frame<FeedMessage>>(&replies[0]).0);
}

/// A store connection numbers its frames from 1. A reply or a query whose
/// number is not one past the last its reader took — one read twice, one
/// after a frame lost — is refused before a member or field is read, and
/// takes nothing; a refused reply empties the history, so the reader holds
/// none of the replies before it and the continuing reply after it is
/// refused too.
#[test]
fn a_store_frame_whose_number_is_not_next_is_refused_and_empties_the_history() {
    let replies = continuing_replies(3);
    let seqs = |reply| reply_events(reply, 3).iter().map(|e| e.seq).collect::<Vec<_>>();
    let next = |number: u64, next: u64| format!("store frame {number}, where {next} is next");
    let mut history = History::default();
    assert_eq!(read_reply_on(&mut history, &replies[0]).unwrap(), seqs(0));
    assert_eq!(read_reply_on(&mut history, &replies[1]).unwrap(), seqs(1));
    assert!(history.next_seq().is_some(), "two replies held");
    refused_as(read_reply_on(&mut history, &replies[1]).unwrap_err(), &next(2, 3));
    assert_eq!(history.next_seq(), None, "the history is emptied");
    let err = read_reply_on(&mut history, &replies[2]).unwrap_err();
    refused_as(err, "holds none of its history");
    let mut history = History::default();
    assert_eq!(read_reply_on(&mut history, &replies[0]).unwrap(), seqs(0));
    refused_as(read_reply_on(&mut history, &replies[2]).unwrap_err(), &next(3, 2));
    assert_eq!(history.next_seq(), None, "the history is emptied");

    let mut enc = BinEncoder::new();
    let queries: Vec<Vec<u8>> = (0..3u64)
        .map(|after| {
            let mut body = Vec::new();
            let query = StoreRpc::Query { query: StoreQuery::after_seq(after), trace: None };
            query.encode(&mut enc, &mut body).expect("encodes");
            body
        })
        .collect();
    let read_query = |history: &mut History, body: &[u8]| match StoreRpc::decode_on(body, history) {
        Ok(StoreRpc::Query { query, .. }) => Ok(query.after_seq),
        Ok(other) => panic!("a query body decoded as {other:?}"),
        Err(e) => Err(e),
    };
    let mut history = History::default();
    assert_eq!(read_query(&mut history, &queries[0]).unwrap(), Some(0));
    assert_eq!(read_query(&mut history, &queries[1]).unwrap(), Some(1));
    refused_as(read_query(&mut history, &queries[1]).unwrap_err(), &next(2, 3));
    let mut history = History::default();
    assert_eq!(read_query(&mut history, &queries[0]).unwrap(), Some(0));
    refused_as(read_query(&mut history, &queries[2]).unwrap_err(), &next(3, 2));
    assert_eq!(read_query(&mut history, &queries[1]).unwrap(), Some(1), "the refusal took none");
    // Apart from any connection, a numbered frame is read whatever its number.
    assert!(StoreRpc::decode(&queries[2]).is_ok() && StoreRpc::decode(&replies[0]).is_ok());
}

/// The deliver batch's twin of the test above, each refusal with its own
/// message: a continuing deliver batch on a reader that holds none of its
/// history, or decoded apart from any connection; a head whose
/// `first_seq` is one off either way (a gap: the history is cleared, so
/// the right frame is refused after it too); and one whose head matches the
/// history but whose first member carries no sequence number — a deliver
/// batch's history is keyed by its first member's.
#[test]
fn a_continuing_deliver_frame_that_does_not_match_its_history_is_refused_with_its_own_message() {
    let feed = continuing_feed(2);
    assert_eq!(feed[0][1] & CONTINUES, 0);
    assert_eq!(feed[1][1] & CONTINUES, CONTINUES);
    let why = "holds none of its history";
    refused_as(read_feed_on(&mut History::default(), &feed[1]).unwrap_err(), why);
    let err = Frame::<FeedMessage>::decode(&feed[1]).unwrap_err();
    let why = "a deliver batch that continues its connection, decoded apart from it";
    assert!(err.to_string().contains(why), "{err}");

    // The head: the topic, then the first member's sequence number, a
    // one-byte varint.
    let at = 8 + feed[1].windows(8).position(|w| w == b"feed/all").expect("the topic");
    assert_eq!(feed[1][at], 31);
    let mut history = History::default();
    for off_by in [1u64, u64::MAX] {
        assert_eq!(read_feed_on(&mut history, &feed[0]).unwrap(), (7..31).collect::<Vec<_>>());
        let bad = with_head(&feed[1], at, 31u64.wrapping_add(off_by));
        let err = read_feed_on(&mut history, &bad).unwrap_err();
        refused_as(err, "where its history ends at 31");
        refused_as(read_feed_on(&mut history, &feed[1]).unwrap_err(), "holds none");
    }
    read_feed_on(&mut history, &feed[0]).unwrap();
    let read = read_feed_on(&mut history, &feed[1]).unwrap();
    assert_eq!(read, (31..55).collect::<Vec<_>>());

    let mut history = History::default();
    read_feed_on(&mut history, &feed[0]).unwrap();
    let [.., heartbeat] = sections(&[None]);
    let mut body = vec![4, CONTINUES];
    put_bytes(&mut body, b"feed/all");
    put_varint(&mut body, 31); // first_seq
    body.extend_from_slice(&heartbeat.bytes);
    let why = "continuing from sequence 31 whose first member carries None";
    refused_as(read_feed_on(&mut history, &body).unwrap_err(), why);
}

/// Reads 10,000 seeded mutations of `stream`, a run of frames each
/// continuing the one before, carrying `sent`: one frame is mutated, and
/// the stream is read in order by one connection's reader, whose
/// history's storage `warm` — a frame of another stream — has made before
/// any allocation is measured. Each frame is read or refused as
/// `InvalidData`, never a panic, within the allocation bound; every
/// frame before the mutated one decodes to exactly what was sent; and no
/// frame after a refused one is read against it. Returns how many frames
/// were read and how many refused.
fn read_mutated_streams<M>(stream: &[Vec<u8>], sent: &[M], warm: &[u8]) -> (u32, u32)
where
    M: WireMsg + PartialEq + std::fmt::Debug,
{
    let mut history = History::default();
    for (body, sent) in stream.iter().zip(sent) {
        assert_eq!(&M::decode_on(body, &mut history).unwrap(), sent, "unmutated");
    }
    let mut rng = Rng(0x5dc1_0028);
    let (mut read, mut refused) = (0u32, 0u32);
    for round in 0..10_000 {
        let target = rng.below(stream.len());
        let mutated = mutate(&mut rng, &stream[target]);
        // The warm item frame makes the history's storage and nothing
        // more: a warm store reply would take the number the stream's
        // first reply carries.
        let mut history = History::default();
        Frame::<FileEvent>::decode_on(warm, &mut history).unwrap();
        history.clear();
        let mut refused_before = false;
        for (i, honest) in stream.iter().enumerate() {
            let body = if i == target { &mutated } else { honest };
            let (result, largest) = largest_request(|| M::decode_on(body, &mut history));
            assert!(largest <= allocation_bound(body), "round {round}: {largest} bytes");
            match result {
                Ok(got) => {
                    assert!(!refused_before, "round {round}: frame {i} read after a refused one");
                    if i < target {
                        assert_eq!(
                            &got, &sent[i],
                            "round {round}: frame {i}, before the mutated one"
                        );
                    }
                    read += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "round {round}: {e}");
                    refused_before = true;
                    refused += 1;
                }
            }
        }
    }
    (read, refused)
}

/// 10,000 mutations over a five-frame continuing item stream: every
/// later frame, each continuing the one before, is refused after a
/// refused one.
#[test]
fn mutations_of_a_continuing_stream_never_decode_against_a_refused_frame() {
    let warm = &hand_laid(&honest())[0];
    let sent: Vec<Frame<FileEvent>> = (0..5)
        .map(|frame| Frame::ItemBatch {
            first_seq: 7 + 24 * frame,
            payloads: frame_events(frame),
            trace: None,
        })
        .collect();
    let (read, refused) = read_mutated_streams(&continuing_stream(5), &sent, warm);
    assert!(read > 15_000 && refused > 5_000, "read {read}, refused {refused}");
}

/// The same over a five-frame continuing feed, as the fan-out writes it.
#[test]
fn mutations_of_a_continuing_feed_never_decode_against_a_refused_frame() {
    let warm = &hand_laid(&honest())[0];
    let sent: Vec<Frame<FeedMessage>> = (0..5)
        .map(|frame| Frame::DeliverBatch {
            topic: "feed/all".into(),
            payloads: (7 + 24 * frame..)
                .zip(frame_events(frame))
                .map(|(seq, event)| FeedMessage::Event(SequencedEvent { seq, event }))
                .collect(),
            trace: None,
        })
        .collect();
    let (read, refused) = read_mutated_streams(&continuing_feed(5), &sent, warm);
    assert!(read > 15_000 && refused > 5_000, "read {read}, refused {refused}");
}

/// The same over five replies of one store connection, each continuing
/// the one before at a store offset of its own.
#[test]
fn mutations_of_continuing_store_replies_never_decode_against_a_refused_reply() {
    let warm = &hand_laid(&honest())[0];
    let sent: Vec<StoreRpc> =
        (0..5).map(|reply| StoreRpc::Batch { events: reply_events(reply, 5) }).collect();
    let (read, refused) = read_mutated_streams(&continuing_replies(5), &sent, warm);
    assert!(read > 15_000 && refused > 5_000, "read {read}, refused {refused}");
}

/// Reads 10,000 seeded mutations of a stream of control frames carrying
/// `sent`, written through one connection's encoder: one frame's body is
/// mutated, every frame goes out behind its own length word, and one
/// connection's reader reads the stream in order. The mutated frame
/// decodes or is refused as `InvalidData` — never a panic — by this
/// reader and by the other kind's, within the allocation bound; every
/// frame before it decodes to exactly what was sent, and so does every
/// frame after it — a control frame is read against no history — but
/// where the frames are `numbered` and the mutated one was refused, when
/// a later one may be refused for its number. Returns how many mutated
/// frames were read and how many refused.
fn read_mutated_controls<M>(sent: &[M], numbered: bool, seed: u64) -> (u32, u32)
where
    M: WireMsg + PartialEq + std::fmt::Debug,
{
    let mut enc = BinEncoder::new();
    let bodies: Vec<Vec<u8>> = sent
        .iter()
        .map(|msg| {
            let mut body = Vec::new();
            msg.encode(&mut enc, &mut body).expect("encodes");
            body
        })
        .collect();
    let mut rng = Rng(seed);
    let (mut read, mut refused) = (0u32, 0u32);
    for round in 0..10_000 {
        let target = rng.below(bodies.len());
        let mutated = mutate(&mut rng, &bodies[target]);
        fed::<Frame<FileEvent>>(&mutated);
        fed::<StoreRpc>(&mutated);
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let body = if i == target { &mutated } else { body };
            stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
            stream.extend_from_slice(body);
        }
        let mut reader = FrameReader::new(&stream[..]);
        let mut refused_target = false;
        for (i, sent) in sent.iter().enumerate() {
            let (result, largest) = largest_request(|| reader.read_msg::<M>());
            assert!(largest <= allocation_bound(&mutated), "round {round}: {largest} bytes");
            match result {
                Ok(got) if i != target => assert_eq!(&got, sent, "round {round}: frame {i}"),
                Ok(_) => read += 1,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "round {round}: {e}");
                    if i == target {
                        refused_target = true;
                        refused += 1;
                    } else {
                        let after = numbered && refused_target;
                        assert!(after, "round {round}: an unmutated frame {i} refused: {e}");
                    }
                }
            }
        }
    }
    (read, refused)
}

/// 10,000 mutations of a push connection's control frames — acks (one of
/// `u64::MAX`, a ten-byte varint), a ping and a `Fin` — and 10,000 of a
/// store connection's — queries by sequence number and limit, by time
/// under a prefix with the caller's trace, with every field absent.
#[test]
fn mutations_of_a_stream_of_control_frames_decode_or_fail_closed() {
    let frames = [
        Frame::<FileEvent>::Ack { up_to: 1_000_000 },
        Frame::Ack { up_to: 1_000_001 },
        Frame::Ping,
        Frame::Ack { up_to: u64::MAX },
        Frame::Fin,
    ];
    let (read, refused) = read_mutated_controls(&frames, false, 0x5dc1_0041);
    assert!(read > 1_000 && refused > 5_000, "read {read}, refused {refused}");

    let traced = Some(TraceContext::sampled(0xfeed, 77));
    let prefixed = StoreQuery::since(SimTime::from_secs(3)).under("/proj/é \"q\"").limit(7);
    let queries = [
        StoreRpc::Query { query: StoreQuery::after_seq(1_234_567).limit(4_096), trace: None },
        StoreRpc::Query { query: prefixed, trace: traced },
        StoreRpc::Query { query: StoreQuery::default(), trace: None },
    ];
    let (read, refused) = read_mutated_controls(&queries, true, 0x5dc1_0042);
    assert!(read > 1_000 && refused > 5_000, "read {read}, refused {refused}");
}

/// 10,000 seeded mutations of the three services' hellos — a pusher's, a
/// subscriber's of several prefixes, a store client's. Each is decoded or
/// refused as `InvalidData`, never a panic, within the allocation bound,
/// by the hello reader and by the two readers that follow a hello; and a
/// mutated hello the reader accepts re-encodes to its own bytes: a hello
/// is spelled one way only, so no two bodies read as the same one.
#[test]
fn mutations_of_the_three_hellos_decode_exactly_or_fail_closed() {
    let hellos = [
        Service::Push { client: "mdt0".into(), resume_after: 1_234_567 },
        Service::Subscriber { prefixes: vec!["feed/".into(), String::new(), "é/".into()] },
        Service::Store,
    ]
    .map(|service| body_of(&Hello { proto: WIRE_PROTO, service }));
    let mut rng = Rng(0x5dc1_0043);
    let (mut read, mut refused) = (0u32, 0u32);
    for round in 0..10_000 {
        let body = mutate(&mut rng, &hellos[round % hellos.len()]);
        let bound = allocation_bound(&body);
        for (_, largest) in [fed::<Frame<FileEvent>>(&body), fed::<StoreRpc>(&body)] {
            assert!(largest <= bound, "round {round}: {largest} bytes");
        }
        let (result, largest) = largest_request(|| Hello::decode(&body));
        assert!(largest <= bound, "round {round}: {largest} bytes for {body:?}");
        match result {
            Ok(hello) => {
                assert_eq!(body_of(&hello), body, "round {round}: {hello:?} is spelled otherwise");
                read += 1;
            }
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "round {round}: {e}");
                refused += 1;
            }
        }
    }
    assert!(read > 1_000 && refused > 3_000, "read {read}, refused {refused}");
}
