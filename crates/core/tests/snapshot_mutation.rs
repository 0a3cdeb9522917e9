//! Hostile bytes in a snapshot directory: a flushed directory whose
//! segment, head or manifest file has been truncated, flipped, spliced
//! or forged — down to a member that references what its block does not
//! hold — is refused as `InvalidData`/`InvalidInput` by
//! `restore_snapshot` (and by `SnapshotDir::open`, where the manifest is
//! what is wrong) — never a panic, never an allocation sized by a length
//! or count word rather than by the bytes on hand — and the directory is
//! left exactly as it was found.
//!
//! The allocator is this binary's own (as in
//! `crates/net/tests/wire_mutation.rs`): it records the largest single
//! request the calling thread has made.

use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir};
use sdci_types::bin::{put_bytes, put_varint, MAX_FRAME_MEMBERS, MAX_PATH_LEN};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

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

/// splitmix64: the test's own generator, so the mutations are the same
/// bytes on every run and every toolchain.
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

/// FNV-1a, as the block trailer is computed — the test's own copy, so a
/// forged body can carry a checksum that holds.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sev(seq: u64) -> SequencedEvent {
    let renamed = seq.is_multiple_of(5);
    SequencedEvent {
        seq,
        event: FileEvent {
            index: 40 + seq,
            mdt: MdtIndex::new((seq % 2) as u32),
            changelog_kind: if renamed { ChangelogKind::Rename } else { ChangelogKind::Create },
            kind: if renamed { EventKind::Moved } else { EventKind::Created },
            time: SimTime::from_nanos(1_000_000 + 7_000 * seq),
            path: format!("/t{}/dé{}/f{seq:06x}", seq % 2, seq % 3).into(),
            src_path: renamed.then(|| format!("/t{}/old{seq}", seq % 2).into()),
            target: Fid::new(0x2_4000_0400, 100 + seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: Some(1_790_000_000_000_000_000 + seq),
            trace: seq.is_multiple_of(7).then(|| TraceContext::sampled(seq, seq + 1)),
        },
    }
}

/// A flushed snapshot directory, removed on drop.
struct Flushed {
    dir: PathBuf,
    /// Every file as the flush wrote it.
    files: BTreeMap<String, Vec<u8>>,
}

impl Flushed {
    /// `events` events sealed every `segment_events`, flushed with marks.
    fn new(tag: &str, events: u64, segment_events: usize) -> Flushed {
        let dir = std::env::temp_dir().join(format!("sdci-snap-mut-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = EventStore::with_segment_size(1 << 20, segment_events);
        store.insert_batch((1..=events).map(sev).collect()).unwrap();
        let marks = || HashMap::from([("c1".to_string(), events)]);
        SnapshotDir::open(&dir).unwrap().flush(&store, marks).unwrap();
        let files = dir_bytes(&dir);
        Flushed { dir, files }
    }

    /// The name of the one file whose name starts with `prefix`.
    fn file(&self, prefix: &str) -> &str {
        let mut names = self.files.keys().filter(|name| name.starts_with(prefix));
        let name = names.next().expect("a file of that kind");
        assert!(names.next().is_none(), "exactly one {prefix} file");
        name
    }

    /// Plants `bytes` as file `name`, requires the directory to be
    /// refused — by `restore_snapshot`, and by `open` too if it objects
    /// at all — with nothing in it touched, and puts the file back.
    /// Returns `open`'s error, if any, and `restore_snapshot`'s.
    fn refused_with(
        &self,
        name: &str,
        bytes: &[u8],
        what: &str,
    ) -> (Option<std::io::Error>, std::io::Error) {
        std::fs::write(self.dir.join(name), bytes).unwrap();
        let planted = dir_bytes(&self.dir);
        let kinds = [ErrorKind::InvalidData, ErrorKind::InvalidInput];
        let opened = SnapshotDir::open(&self.dir).err();
        if let Some(e) = &opened {
            assert!(kinds.contains(&e.kind()), "{what}: open failed as {e:?}");
        }
        let err = match restore_snapshot(&self.dir, 1 << 20) {
            Ok((store, _)) => panic!("{what}: restored {} events", store.len()),
            Err(e) => e,
        };
        assert!(kinds.contains(&err.kind()), "{what}: restore failed as {err:?}");
        assert_eq!(dir_bytes(&self.dir), planted, "{what}: the directory was modified");
        std::fs::write(self.dir.join(name), &self.files[name]).unwrap();
        (opened, err)
    }
}

impl Drop for Flushed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read snapshot dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect()
}

/// The offsets at which a block file's parts end: after each block's
/// length word, body and checksum.
fn block_boundaries(file: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0];
    let mut at = 0;
    while at < file.len() {
        let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
        boundaries.extend([at + 4, at + 4 + len, at + 4 + len + 8]);
        at += 4 + len + 8;
    }
    assert_eq!(at, file.len(), "the flushed file is whole blocks");
    boundaries
}

/// A segment of more than `MAX_FRAME_MEMBERS` events is two blocks; cut
/// at, before and after every boundary inside it, it is refused.
#[test]
fn a_block_file_truncated_at_any_boundary_is_refused() {
    let flushed = Flushed::new("truncate", MAX_FRAME_MEMBERS as u64 + 40, MAX_FRAME_MEMBERS + 8);
    for prefix in ["seg-", "head-"] {
        let name = flushed.file(prefix);
        let whole = &flushed.files[name];
        let boundaries = block_boundaries(whole);
        assert_eq!(boundaries.len(), if prefix == "seg-" { 7 } else { 4 }, "{name}");
        for boundary in boundaries {
            for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
                if cut < whole.len() {
                    flushed.refused_with(name, &whole[..cut], &format!("{name} cut at {cut}"));
                }
            }
        }
    }
}

/// Every bit of a small segment file, flipped alone: the checksum
/// refuses every flip in the body (FNV-1a's steps are bijections, so no
/// single corrupted byte cancels out), and a flip in the length word or
/// the checksum itself fares no better.
#[test]
fn every_single_bit_flip_in_a_segment_file_is_refused() {
    let flushed = Flushed::new("flip", 12, 8);
    let name = flushed.file("seg-");
    let whole = &flushed.files[name];
    let body = 4..whole.len() - 8;
    for at in 0..whole.len() {
        for bit in 0..8 {
            let mut bad = whole.clone();
            bad[at] ^= 1 << bit;
            let (_, err) = flushed.refused_with(name, &bad, &format!("bit {bit} of byte {at}"));
            if body.contains(&at) {
                assert!(err.to_string().contains("checksum"), "byte {at} bit {bit}: {err}");
            }
        }
    }
}

/// Seeded splices — overwritten runs, insertions, deletions — anywhere
/// in the segment and head files.
#[test]
fn seeded_splices_of_block_files_are_refused() {
    let flushed = Flushed::new("splice", 12, 8);
    let mut rng = Rng(0x5eed_0023);
    for round in 0..2_000 {
        let name = flushed.file(["seg-", "head-"][rng.below(2)]);
        let mut bad = flushed.files[name].clone();
        let at = rng.below(bad.len());
        let run = 1 + rng.below(8).min(bad.len() - at - 1);
        match rng.below(3) {
            0 => bad[at..at + run].iter_mut().for_each(|b| *b = rng.next() as u8),
            1 => drop(bad.splice(at..at, (0..run).map(|_| rng.next() as u8))),
            _ => drop(bad.drain(at..at + run)),
        }
        if bad != flushed.files[name] {
            flushed.refused_with(name, &bad, &format!("round {round} on {name}"));
        }
    }
}

/// A length word claiming 4 GiB is refused against the bytes on hand,
/// before anything is sized by it; a count word claiming 2^64 members —
/// under a checksum that holds — reserves no more than the body could
/// hold, and is refused when the members run out.
#[test]
fn forged_length_and_count_words_size_no_allocation() {
    let flushed = Flushed::new("forge", 12, 8);
    let name = flushed.file("seg-");
    let whole = &flushed.files[name];
    let biggest_file = flushed.files.values().map(Vec::len).max().unwrap();

    let mut bad = whole.clone();
    bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let ((_, err), largest) = largest_request(|| flushed.refused_with(name, &bad, "forged length"));
    assert!(err.to_string().contains("left in the file"), "{err}");
    assert!(largest <= 4 * biggest_file, "a forged length word sized a {largest}-byte request");

    // The body opens with its count, a one-byte varint for 8 members.
    let body = &whole[4..whole.len() - 8];
    assert_eq!(body[0], 8);
    let mut forged = vec![0xff; 9];
    forged.push(0x01); // u64::MAX
    forged.extend_from_slice(&body[1..]);
    let mut bad = (forged.len() as u32).to_le_bytes().to_vec();
    bad.extend_from_slice(&forged);
    bad.extend_from_slice(&fnv1a(&forged).to_le_bytes());
    let ((_, err), largest) = largest_request(|| flushed.refused_with(name, &bad, "forged count"));
    assert!(!err.to_string().contains("checksum"), "the forged body's checksum holds: {err}");
    // Two bytes a member at the least, whatever the count word says.
    let reservable = forged.len() / 2 * std::mem::size_of::<SequencedEvent>();
    assert!(largest <= reservable.max(4 * biggest_file), "a forged count sized {largest} bytes");
}

/// One sequenced-event member laid out by hand (the layout is
/// `FileEvent`'s, and `crates/net/tests/wire_mutation.rs` shows the same
/// bytes decoding when honest): sequence +1, then a create on MDT 0 one
/// record and a nanosecond after its predecessor, with `flags` and `kind`
/// or-ed into the two bytes that carry bits and the fields those bits
/// drop left out. `back` is the path reference, when there is one; the
/// path is `shared` bytes of its base, then `suffix`.
fn member(flags: u8, kind: u8, back: Option<u64>, shared: usize, suffix: &[u8]) -> Vec<u8> {
    // Bit 4: same MDT; bit 5: derived event kind; bit 6: path reference.
    let flags = flags | 0x30 | if back.is_some() { 1 << 6 } else { 0 };
    let mut out = vec![2, flags];
    if flags & (1 << 7) == 0 {
        out.push(2); // index +1
    }
    out.extend([1 | kind, 2]); // 01CREAT, time +1
    if let Some(back) = back {
        put_varint(&mut out, back);
    }
    put_varint(&mut out, shared as u64);
    put_bytes(&mut out, suffix);
    if kind & (1 << 5) == 0 {
        out.extend([0, 2, 0]); // seq, oid +1, ver
    } else {
        out.push(2);
    }
    out
}

/// The members of a block are outside input like a frame's: under a
/// checksum that holds, a path reference to the member itself, to its
/// predecessor, past the block's first member or on that first member,
/// the unassigned record-type bit, a "same as the predecessor's" bit on
/// a member without one, and a reference that would assemble a path of
/// more than `MAX_PATH_LEN` are each a corrupt block — named for what is
/// wrong with it — and size nothing.
#[test]
fn a_block_whose_members_reference_what_it_does_not_hold_is_refused() {
    let flushed = Flushed::new("refs", 12, 8);
    let name = flushed.file("seg-");
    let biggest_file = flushed.files.values().map(Vec::len).max().unwrap();
    let first = || member(0, 0, None, 0, b"/d/alpha/x");
    let second = || member(0, 0, None, 3, b"beta/y");
    let third = |back| member(0, 0, Some(back), 9, b"z");
    let page = || member(0, 0, None, 0, &[b'p'; MAX_PATH_LEN]);
    for (what, why, members) in [
        ("a reference to itself", "names no earlier event", vec![first(), second(), third(0)]),
        ("a reference to the predecessor", "names no earlier", vec![first(), second(), third(1)]),
        (
            "a reference past the first member",
            "names no earlier",
            vec![first(), second(), third(3)],
        ),
        ("a reference on the first member", "names no earlier", vec![third(2), second()]),
        ("the reserved bit", "record-type bits", vec![first(), member(0, 1 << 7, None, 3, b"y")]),
        ("a first member's index +1", "not there", vec![member(1 << 7, 0, None, 0, b"/x")]),
        ("a first member's FID home", "not there", vec![member(0, 1 << 5, None, 0, b"/x")]),
        ("a first member's stamp", "not there", vec![member(1 << 1, 1 << 6, None, 0, b"/x")]),
        (
            "a page and a byte through a reference",
            "exceeds 4096",
            vec![page(), second(), member(0, 0, Some(2), MAX_PATH_LEN, b"x")],
        ),
    ] {
        let mut body = Vec::new();
        put_varint(&mut body, members.len() as u64);
        members.iter().for_each(|m| put_bytes(&mut body, m));
        let mut bad = (body.len() as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&body);
        bad.extend_from_slice(&fnv1a(&body).to_le_bytes());
        let ((_, err), largest) = largest_request(|| flushed.refused_with(name, &bad, what));
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains(why), "{what}: {err}");
        let bound = body.len() * std::mem::size_of::<SequencedEvent>();
        assert!(largest <= bound.max(4 * biggest_file), "{what} sized a {largest}-byte request");
    }
}

/// The manifest is outside input too: `marks` that is not a map, and a
/// file name that leaves the directory, are refused by `open` and by
/// `restore_snapshot` alike — before anything is read, swept or reused
/// on the manifest's say-so.
#[test]
fn a_forged_manifest_is_refused() {
    let flushed = Flushed::new("manifest", 12, 8);
    let manifest = String::from_utf8(flushed.files["MANIFEST.json"].clone()).unwrap();
    assert!(manifest.contains(r#""marks":{"c1":12}"#), "{manifest}");
    let head = flushed.file("head-");
    let seg = flushed.file("seg-");
    for (what, forged) in [
        ("marks as a list", manifest.replace(r#""marks":{"c1":12}"#, r#""marks":["c1",12]"#)),
        ("marks as a number", manifest.replace(r#""marks":{"c1":12}"#, r#""marks":12"#)),
        ("a mark that is not a number", manifest.replace(r#"{"c1":12}"#, r#"{"c1":"12"}"#)),
        ("no marks", manifest.replace(r#","marks":{"c1":12}"#, "")),
        ("a head outside the directory", manifest.replace(head, &format!("../{head}"))),
        ("a segment outside the directory", manifest.replace(seg, &format!("seg-/../../{seg}"))),
        ("an absolute segment path", manifest.replace(seg, "/etc/passwd")),
        ("a head that is a segment", manifest.replace(head, seg)),
    ] {
        assert_ne!(forged, manifest, "{what}: the forgery changed nothing");
        let (opened, err) = flushed.refused_with("MANIFEST.json", forged.as_bytes(), what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(opened.is_some(), "{what}: open took the manifest's word");
    }
}
