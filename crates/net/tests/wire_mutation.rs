//! Hostile bytes at the data-frame decoders: 10,000 seeded mutations of
//! valid kind-1, kind-3 and kind-4 bodies with raw members, and 10,000
//! of the same bodies coded — paths under a path code, every other
//! member byte under a field code — each fed to all three decoders; then
//! path length and prefix words claiming what the body does not hold;
//! then hand-laid members whose references and "same as the
//! predecessor's" bits name what the frame does not hold; then
//! hand-laid code tables and coded member sections that break every
//! rule of the codes, and a coded section whose codewords are short
//! enough to claim far more members than a raw one could hold. Every
//! one is decoded or refused as `InvalidData` — the
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

use sdci_core::{FeedMessage, SequencedEvent};
use sdci_net::store_rpc::StoreRpc;
use sdci_net::wire::{Frame, WireMsg};
use sdci_types::bin::{
    put_bytes, put_members, put_trace, put_varint, FRAME_PATH_BUDGET, MAX_PATH_LEN,
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
    assert!(msg.encode(&mut body).expect("encodes"), "a data frame is binary");
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
    let (result, largest) = largest_request(|| M::decode(true, bytes));
    match result {
        Ok(value) => {
            assert!(!format!("{value:?}").is_empty());
            (true, largest)
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => (false, largest),
        Err(e) => panic!("a mutated body was refused as {:?}, not InvalidData: {e}", e.kind()),
    }
}

/// The stated allocation bound for a body. A member costs at least two
/// bytes, so the count word reserves at most `len / 2` members and a
/// `Vec` growing past its reservation at most doubles what has decoded:
/// `len` members' worth. The path arena reserves twice the bytes left in
/// the body and grows the same way, a path at a time. A topic or an error
/// message is far below either.
fn allocation_bound(body: &[u8]) -> usize {
    (body.len() * std::mem::size_of::<FeedMessage>()).max(MAX_PATH_LEN)
}

/// Frame-header flags bits 1 and 2: the member section carries a path
/// code, a field code; their tables follow the trace section, in that
/// order.
const PATH_CODE: u8 = 2;
const FIELD_CODE: u8 = 4;

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
    item.extend_from_slice(&7u64.to_le_bytes());
    put_members(&mut item, &events);
    let mut store = vec![3, 0];
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
    let both = PATH_CODE | FIELD_CODE;
    assert!(coded.iter().all(|body| body[1] & both == both), "these members go out coded");
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
    let err = Frame::<FileEvent>::decode(true, &over[0]).unwrap_err();
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
/// which of them a front-coded path carries verbatim — the bytes a path
/// code codes; a field code codes the rest.
#[derive(Clone, Default)]
struct Laid {
    bytes: Vec<u8>,
    path: Vec<bool>,
}

impl Laid {
    fn field(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.path.resize(self.bytes.len(), false);
    }

    fn varint(&mut self, value: u64) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, value);
        self.field(&bytes);
    }

    fn path(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.path.resize(self.bytes.len(), true);
    }

    /// `member` behind its length, as a sequence holds it.
    fn member(&mut self, member: &Laid) {
        self.varint(member.bytes.len() as u64);
        self.bytes.extend_from_slice(&member.bytes);
        self.path.extend_from_slice(&member.path);
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
    out.field(&[flags]);
    if flags & NEXT_INDEX == 0 {
        out.field(&[2]); // index +1
    }
    out.field(&[1 | kind, 2]); // 01CREAT, time +1
    if let Some(back) = back {
        out.varint(back);
    }
    out.varint(shared as u64);
    out.varint(carried);
    out.path(suffix);
    if kind & SAME_FID_HOME == 0 {
        out.field(&[0, 2, 0]); // seq, oid +1, ver
    } else {
        out.field(&[2]);
    }
    if flags & EXTRACTED != 0 && kind & SAME_EXTRACTED == 0 {
        out.field(&[0]);
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
    sections[0].varint(events);
    sections[1].varint(events);
    sections[2].varint(members.len() as u64);
    for event in members {
        let Some(event) = event else {
            let mut heartbeat = Laid::default();
            heartbeat.field(&[1, 0]);
            sections[2].member(&heartbeat);
            continue;
        };
        sections[0].member(event);
        for (section, prefix) in sections[1..].iter_mut().zip([&[2][..], &[0, 2]]) {
            let mut member = Laid::default();
            member.field(prefix);
            member.bytes.extend_from_slice(&event.bytes);
            member.path.extend_from_slice(&event.path);
            section.member(&member);
        }
    }
    sections
}

/// The three kinds' headers with `flags` and `tables`, and their heads.
fn heads(flags: u8, tables: &[u8]) -> [Vec<u8>; 3] {
    let mut item = [&[1, flags][..], tables].concat();
    item.extend_from_slice(&7u64.to_le_bytes());
    let store = [&[3, flags][..], tables].concat();
    let mut deliver = [&[4, flags][..], tables].concat();
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
        let (result, largest) = largest_request(|| M::decode(true, body));
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
    let err = Frame::<FileEvent>::decode(true, &bodies[0]).unwrap_err();
    assert!(err.to_string().contains("exceeds 4096"), "got: {err}");

    // One page more than the budget: the item decoder (the three share
    // the reader that keeps the count) stops at the member that would
    // cross it, having allocated no more than the budget's doubling.
    let pages = FRAME_PATH_BUDGET / MAX_PATH_LEN;
    let [body, ..] = hand_laid(&chain(pages + 1));
    assert!(body.len() < 64 * pages, "{} bytes claim {pages} pages", body.len());
    let (result, largest) = largest_request(|| Frame::<FileEvent>::decode(true, &body));
    let err = result.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("path bytes"), "got: {err}");
    assert!(largest <= 2 * FRAME_PATH_BUDGET, "one allocation of {largest} bytes");
    let [fits, ..] = hand_laid(&chain(pages));
    assert!(Frame::<FileEvent>::decode(true, &fits).is_ok(), "the budget itself is allowed");
}

/// A code table as a frame carries it, for `(symbol, codeword length)`
/// pairs in ascending order: a bitmap of the symbols, then the lengths,
/// four bits each — whatever the pairs are.
fn table(lens: &[(u8, u8)]) -> Vec<u8> {
    let mut out = vec![0; 32];
    for (i, &(symbol, len)) in lens.iter().enumerate() {
        out[usize::from(symbol >> 3)] |= 1 << (symbol & 7);
        if i % 2 == 0 {
            out.push(len << 4);
        } else {
            *out.last_mut().unwrap() |= len;
        }
    }
    out
}

/// Every byte value, each with an eight-bit codeword: the canonical
/// codewords are then the bytes themselves, so under this table a coded
/// section is the raw section, byte for byte.
fn identity() -> Vec<u8> {
    table(&(0..=u8::MAX).map(|symbol| (symbol, 8)).collect::<Vec<_>>())
}

/// `/`, `a`, `b` and `x`, two bits each: `00`, `01`, `10`, `11`.
fn four() -> Vec<u8> {
    table(&[(b'/', 2), (b'a', 2), (b'b', 2), (b'x', 2)])
}

/// Each byte value's canonical codeword (bits, length) under a valid
/// `table`, written here independently of the encoder; a frame without
/// the table sends the byte itself in eight bits.
fn codewords(table: Option<&[u8]>) -> [(u64, u32); 256] {
    let Some(table) = table else { return std::array::from_fn(|byte| (byte as u64, 8)) };
    let symbols: Vec<usize> = (0..256).filter(|s| table[s >> 3] >> (s & 7) & 1 == 1).collect();
    let len = |i: usize| u32::from(table[32 + i / 2] >> (4 - 4 * (i & 1))) & 0xf;
    let mut out = [(0, 0); 256];
    let mut next = 0u64;
    for bits in 1..=12 {
        for (i, &symbol) in symbols.iter().enumerate() {
            if len(i) == bits {
                out[symbol] = (next, bits);
                next += 1;
            }
        }
        next <<= 1;
    }
    out
}

/// `section` as one bit stream: path bytes under `path`, the rest under
/// `field`, the final byte's padding bits set from `padding`.
fn code_section(section: &Laid, path: Option<&[u8]>, field: Option<&[u8]>, padding: u8) -> Vec<u8> {
    let (path, field) = (codewords(path), codewords(field));
    let (mut out, mut pending, mut held) = (Vec::new(), 0u64, 0u32);
    for (&byte, &is_path) in section.bytes.iter().zip(&section.path) {
        let (bits, len) = if is_path { path[usize::from(byte)] } else { field[usize::from(byte)] };
        assert!(len > 0, "byte {byte:#x} has no codeword");
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

/// The three kinds carrying hand-laid `members` under `path` and `field`
/// tables (`None`: the frame carries no such code), the final padding
/// bits set from `padding`.
fn coded_with(
    path: Option<&[u8]>,
    field: Option<&[u8]>,
    padding: u8,
    members: &[Option<Laid>],
) -> [Vec<u8>; 3] {
    let flags = path.map_or(0, |_| PATH_CODE) | field.map_or(0, |_| FIELD_CODE);
    let tables = [path.unwrap_or_default(), field.unwrap_or_default()].concat();
    let mut bodies = heads(flags, &tables);
    for (body, section) in bodies.iter_mut().zip(sections(members)) {
        body.extend(code_section(&section, path, field, padding));
    }
    bodies
}

/// [`coded_with`], its padding zero.
fn coded(path: Option<&[u8]>, field: Option<&[u8]>, members: &[Option<Laid>]) -> [Vec<u8>; 3] {
    coded_with(path, field, 0, members)
}

/// A first member whose whole path is a suffix of `carried` bytes, `suffix`.
fn coded_first(carried: u64, suffix: &[u8]) -> Option<Laid> {
    Some(laid_member(0, 0, None, 0, carried, suffix))
}

/// Code tables and coded sections that break a rule, each beside an
/// honest neighbour that decodes: a table cut short, of one symbol, of
/// over-subscribed or incomplete lengths, of a length of 0 or 13 (12 is
/// the longest allowed), of a padding nibble that is not zero — the
/// field code's and the path code's alike; then a section whose final
/// padding bits are not zero, whose codewords run past the body, whose
/// suffix claims more bytes than the bits left could hold or a path one
/// byte over `MAX_PATH_LEN`, and a path code on a section with no path
/// to code. Each is `InvalidData` from all three decoders, within the
/// allocation bound, refused with its own message.
#[test]
fn a_code_table_or_coded_section_that_breaks_a_rule_is_refused() {
    let all = |paths: &[&str]| Some(paths.iter().map(|p| p.to_string()).collect::<Vec<_>>());
    let decodes = |bodies: [Vec<u8>; 3], want: &[&str]| {
        assert_eq!(decoded_paths(&bodies), [(); 3].map(|()| all(want)));
    };
    // Refused by all three decoders, the item decoder saying `why`.
    let refused = |why: &str, bodies: [Vec<u8>; 3]| {
        assert_eq!(decoded_paths(&bodies), [None, None, None], "{why}");
        let err = Frame::<FileEvent>::decode(true, &bodies[0]).unwrap_err();
        assert!(err.to_string().contains(why), "expected {why:?}, got: {err}");
    };
    let honest = [
        Some(member(0, 0, None, 0, b"/d/alpha/x")),
        Some(member(0, 0, None, 3, b"beta/y")),
        Some(member(0, 0, Some(2), 9, b"z")),
    ];
    let want = ["/d/alpha/x", "/d/beta/y", "/d/alpha/z"];
    let id = identity();
    for (path, field) in [(Some(&id[..]), None), (None, Some(&id[..])), (Some(&id), Some(&id))] {
        decodes(coded(path, field, &honest), &want);
        // Under identity tables the section is the raw one.
        let tables = path.map_or(0, <[u8]>::len) + field.map_or(0, <[u8]>::len);
        assert_eq!(coded(path, field, &honest)[1][2 + tables..], hand_laid(&honest)[1][2..]);
    }

    // The tables, each as the field code (beside an identity path code)
    // and as the path code (beside no field code).
    let bad_tables: [(&str, Vec<u8>); 7] = [
        ("truncated", id[..20].to_vec()),
        ("fewer than two symbols", table(&[(b'/', 1)])),
        ("over-subscribed", table(&[(0, 1), (1, 1), (2, 1)])),
        ("incomplete", table(&[(0, 1), (1, 2)])),
        ("length of 0", table(&[(0, 1), (1, 0)])),
        ("length of 13", table(&[(0, 1), (1, 13)])),
        ("padding nibble", [&table(&[(0, 1), (1, 2), (2, 2)])[..], &[]].concat()),
    ];
    for (why, bad) in bad_tables {
        let mut bad = bad;
        if why == "padding nibble" {
            *bad.last_mut().unwrap() |= 1;
        }
        let bodies_with = |path: &[u8], field: Option<&[u8]>| {
            let flags = PATH_CODE | field.map_or(0, |_| FIELD_CODE);
            // The tables are read before a member byte: no section needed.
            heads(flags, &[path, field.unwrap_or_default()].concat())
        };
        refused(why, bodies_with(&id, Some(&bad)));
        refused(why, bodies_with(&bad, None));
    }
    // Lengths 1, 2, ..., 11, 12, 12 are complete: `/` is the one-bit `0`.
    let longest: Vec<(u8, u8)> = (b'a'..=b'l').zip(2..=12).chain([(b'/', 1), (b'z', 12)]).collect();
    let mut longest = longest;
    longest.sort();
    decodes(coded(Some(&table(&longest)), None, &[coded_first(1, b"/")]), &["/"]);

    // The section. `/ab` under `four` is `00 01 10`, between field bytes
    // of eight bits each, and the section ends six bits into a byte.
    let four = four();
    decodes(coded(Some(&four), None, &[coded_first(3, b"/ab")]), &["/ab"]);
    refused("padding bits", coded_with(Some(&four), None, 0x01, &[coded_first(3, b"/ab")]));
    refused("padding bits", coded_with(Some(&four), None, 0x02, &[coded_first(3, b"/ab")]));
    let cut = coded(Some(&four), None, &[coded_first(3, b"/ab")]).map(|mut body| {
        body.pop();
        body
    });
    refused("past the body", cut);
    // A suffix count past what the bits left could hold, or past a page.
    refused("a coded suffix of 1000 bytes", coded(Some(&four), None, &[coded_first(1_000, b"/a")]));
    refused("exceeds 4096", coded(Some(&four), None, &[coded_first(u64::MAX, b"/a")]));
    // `/` and 4,095 `a`s is a 4,096-byte path in 1,024 bytes; one `a` more
    // is refused on its count, before a bit is decoded.
    let page = [&b"/"[..], &[b'a'; MAX_PATH_LEN - 1]].concat();
    let want = String::from_utf8(page.clone()).unwrap();
    decodes(coded(Some(&four), None, &[coded_first(MAX_PATH_LEN as u64, &page)]), &[&want]);
    let over = [&page[..], b"a"].concat();
    refused("exceeds 4096", coded(Some(&four), None, &[coded_first(over.len() as u64, &over)]));

    // A path code with nothing to code: no members, or a heartbeat alone.
    refused("no paths", coded(Some(&id), None, &[]));
    let [.., deliver] = coded(Some(&id), None, &[None]);
    let err = Frame::<FeedMessage>::decode(true, &deliver).unwrap_err();
    assert!(err.to_string().contains("no paths"), "got: {err}");
    assert_eq!(decoded_paths(&coded(Some(&id), None, &[None])), [None, None, None]);
    // A field code has something to code in every section.
    assert_eq!(decoded_paths(&coded(None, Some(&id), &[])), [(); 3].map(|()| all(&[])));
}

/// A coded suffix is charged to the frame's path budget like any other:
/// the chain of references that fills the budget exactly still decodes
/// under a code, and one coded byte more is refused.
#[test]
fn a_coded_suffix_is_charged_to_the_frame_path_budget() {
    let long = |fill: u8| Some(member(0, 0, None, 0, &[fill; MAX_PATH_LEN]));
    let again = || Some(member(0, 0, Some(2), MAX_PATH_LEN, b""));
    let pages = FRAME_PATH_BUDGET / MAX_PATH_LEN;
    let mut chain: Vec<Option<Laid>> =
        [long(b'p'), long(b'q')].into_iter().chain((2..pages).map(|_| again())).collect();
    let id = identity();
    let [fits, ..] = coded(Some(&id), Some(&id), &chain);
    assert!(Frame::<FileEvent>::decode(true, &fits).is_ok(), "the budget itself is allowed");
    chain.push(coded_first(1, b"/"));
    let [over, ..] = coded(Some(&id), Some(&id), &chain);
    let (result, largest) = largest_request(|| Frame::<FileEvent>::decode(true, &over));
    let err = result.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("path bytes"), "got: {err}");
    assert!(largest <= 2 * FRAME_PATH_BUDGET, "one allocation of {largest} bytes");
}

/// Under a field code, a member can be a few bits: here a heartbeat —
/// its length, tag and delta, `02 01 00` — takes six. A deliver body of
/// 2^20 such members is every one of them well formed, and a member
/// `Vec` that grew to hold them would be eight times what the same bytes
/// could hold raw. So a section claims no more members than half its
/// bytes after the count, coded or not: this one is refused on its count
/// word, within the allocation bound, as is a short run of the same
/// members, while the run raw decodes. And the encoder never writes a
/// frame the rule refuses: a long run of heartbeats it sends without a
/// field code.
#[test]
fn a_coded_section_claims_no_more_members_than_a_raw_one_could() {
    // `00` one bit, `01` two, `02` three; the count's bytes five.
    let short = table(&[(0, 1), (1, 2), (2, 3), (3, 5), (0x20, 5), (0x40, 5), (0x80, 5)]);
    let deliver = |count: usize| {
        let [.., body] = coded(None, Some(&short), &vec![None; count]);
        body
    };
    let claimed = 1 << 20;
    let body = deliver(claimed);
    assert!(body.len() < claimed, "{} bytes for {claimed} members", body.len());
    let (ok, largest) = fed::<Frame<FeedMessage>>(&body);
    assert!(!ok, "2^20 members in {} bytes", body.len());
    assert!(largest <= allocation_bound(&body), "{largest} bytes for {}", body.len());
    let err = Frame::<FeedMessage>::decode(true, &body).unwrap_err();
    assert!(err.to_string().contains("members claimed"), "got: {err}");
    let err = Frame::<FeedMessage>::decode(true, &deliver(4_096)).unwrap_err();
    assert!(err.to_string().contains("members claimed"), "got: {err}");
    let [.., raw] = hand_laid(&vec![None; 4_096]);
    assert!(fed::<Frame<FeedMessage>>(&raw).0, "the same members raw");

    let heartbeats: Vec<FeedMessage> =
        (1..=100_000).map(|last_seq| FeedMessage::Heartbeat { last_seq }).collect();
    let frame = Frame::DeliverBatch { topic: "feed/all".into(), payloads: heartbeats, trace: None };
    let body = body_of(&frame);
    assert_eq!(body[1] & FIELD_CODE, 0, "three-byte members go out without a field code");
    assert_eq!(Frame::<FeedMessage>::decode(true, &body).unwrap(), frame);
}
