//! Incremental crash-recovery snapshots for the segmented store.
//!
//! Serialising the whole retained window every flush interval would be
//! O(window) I/O every 200 ms. A [`SnapshotDir`] instead mirrors the
//! store's internal structure on disk:
//!
//! ```text
//! <dir>/
//!   MANIFEST.json                        # the one commit point, tmp+rename
//!   seg-00000000000000000001-00000000000000000064.bin
//!   seg-00000000000000000065-00000000000000000128.bin
//!   ...                                  # one file per sealed segment,
//!                                        # written exactly once
//!   head-0000000000000007.bin            # unsealed tail, one fresh
//!                                        # generation per flush
//! ```
//!
//! Control is JSON, data is binary — the wire's rule, on disk. The
//! manifest is JSON; a segment or head file is a run of blocks, each a
//! sequence of the members a data frame carries
//! ([`sdci_types::bin::put_member`], never coded) under a length and a
//! checksum:
//!
//! ```text
//! file  = block*                         # an empty head is an empty file
//! block = len u32le | body: len bytes | fnv1a(body) u64le
//! body  = count varint | count × (len varint | member: len bytes)
//!         at most MAX_FRAME_MEMBERS events, member i coded against 0..i
//! ```
//!
//! A frame's members carry no length since wire version 14; a block's
//! keep theirs ([`put_block`], [`read_block`]). A file is read back
//! later, perhaps by another build, which checks that each member
//! decodes to exactly the bytes its length announces.
//!
//! A block closes where a frame would, so its reader's path budget
//! covers whatever it holds: no file can be written that cannot be
//! restored. The checksum is FNV-1a, every step of which is a bijection
//! of the running state, so no single corrupted byte goes unnoticed.
//!
//! Sealed segments are immutable, so their files are written once and
//! then only ever garbage-collected (when rotation drops the segment);
//! a steady-state flush writes a fresh head generation and the manifest
//! — I/O proportional to the *new* data, not the window. The manifest
//! rename is the commit point, for the events *and* for the push dedup
//! marks that ride in it: a crash mid-flush leaves the previous
//! manifest — one flush's store and that flush's marks — intact, and
//! segment/head/tmp files the manifest does not reference are swept
//! both when the directory is opened (required before any
//! reuse-by-name decision — see [`SnapshotDir::open`]) and after each
//! flush commits.
//!
//! The head gets a *new* file name every flush (the generation counter
//! in its name) so the flush never touches the file the committed
//! manifest references: a crash between a head rename and the manifest
//! rename would otherwise leave a committed manifest pointing at a head
//! it disagrees with (found by crash-point injection at
//! `store.flush.manifest_commit`).

use super::EventStore;
use crate::aggregator::SequencedEvent;
use crate::store::segment::Segment;
use sdci_types::bin::{put_bytes, put_member, put_varint, Class, SeqEncoder, MAX_FRAME_MEMBERS};
use sdci_types::SimTime;
use sdci_types::{BinDecodeError, BinPayload, BinReader};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MANIFEST_NAME: &str = "MANIFEST.json";
/// The version a flush stamps: its block files hold members of wire
/// version 8, which may reference any earlier member of their block.
const MANIFEST_VERSION: u32 = 3;
/// The oldest version read. A version-2 directory differs only in that no
/// member in it uses what version 8 added, so the one member decoder
/// reads its blocks as it reads this build's — also once a later flush
/// has put a version-3 manifest over segment files it reused.
const OLDEST_MANIFEST_VERSION: u32 = 2;

/// Whether `name` is a plain file name of the form `<prefix>….bin`: what
/// a manifest may reference and a sweep may remove.
fn is_block_file(name: &str, prefix: &str) -> bool {
    name.starts_with(prefix) && name.ends_with(".bin") && !name.contains(std::path::is_separator)
}

fn is_segment_name(name: &str) -> bool {
    is_block_file(name, "seg-")
}

fn is_head_name(name: &str) -> bool {
    is_block_file(name, "head-")
}

fn segment_file_name(first_seq: u64, last_seq: u64) -> String {
    format!("seg-{first_seq:020}-{last_seq:020}.bin")
}

fn head_file_name(generation: u64) -> String {
    format!("head-{generation:016}.bin")
}

/// The generation encoded in a head file name.
fn head_generation(name: &str) -> u64 {
    name.strip_prefix("head-")
        .and_then(|rest| rest.strip_suffix(".bin"))
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// What one [`SnapshotDir::flush`] actually did, for observability and
/// for tests pinning the incremental property.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Sealed segments newly written to their own file this flush.
    pub segments_written: u64,
    /// Sealed segments whose file already existed and was left alone.
    pub segments_reused: u64,
    /// On-disk segment files garbage-collected (rotated out of the
    /// window, or orphaned by a crashed flush).
    pub files_removed: u64,
    /// Events written to this flush's head file.
    pub head_events: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ManifestSegment {
    file: String,
    first_seq: u64,
    last_seq: u64,
    len: usize,
    /// Earliest/latest event times — for humans inspecting a snapshot
    /// directory, and cross-checked against the file on restore.
    min_time: SimTime,
    max_time: SimTime,
}

#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    /// Count of events logically rotated out of the oldest segment.
    trim: usize,
    /// Newest sequence number in the snapshot (0 when empty).
    last_seq: u64,
    segments: Vec<ManifestSegment>,
    head_file: String,
    head_len: usize,
    /// Push dedup marks — client id to the highest sequence handed to
    /// the pipeline — captured after the events above, so each is at
    /// least the count of its client's events among them. Ordered, so
    /// the same state writes the same bytes.
    marks: BTreeMap<String, u64>,
}

impl Manifest {
    /// The files this manifest vouches for.
    fn live_files(&self) -> HashSet<String> {
        let mut live: HashSet<String> = self.segments.iter().map(|s| s.file.clone()).collect();
        live.insert(self.head_file.clone());
        live
    }
}

/// The first thing read of any manifest, so a form this build does not
/// read is refused by what it says it is, not by a field it lacks.
#[derive(Deserialize)]
struct ManifestVersion {
    version: u32,
}

/// Reads the committed manifest of `dir`, `None` when no flush ever
/// committed there.
///
/// # Errors
///
/// `InvalidData` for text that is not a manifest, a version outside
/// [`OLDEST_MANIFEST_VERSION`]`..=`[`MANIFEST_VERSION`] (named; nothing
/// migrates), and a manifest referencing anything but a segment or head
/// file inside `dir`.
fn read_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let json = match fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(json) => json,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |e| invalid(format!("corrupt snapshot manifest in {}: {e}", dir.display()));
    let ManifestVersion { version } = serde_json::from_str(&json).map_err(corrupt)?;
    if !(OLDEST_MANIFEST_VERSION..=MANIFEST_VERSION).contains(&version) {
        return Err(invalid(format!(
            "{} holds snapshot manifest version {version}; this build reads only versions \
             {OLDEST_MANIFEST_VERSION} to {MANIFEST_VERSION} and migrates nothing",
            dir.display()
        )));
    }
    let manifest: Manifest = serde_json::from_str(&json).map_err(corrupt)?;
    let stranger = |file: &str| {
        invalid(format!(
            "snapshot manifest in {} references {file:?}, not a segment or head file of its \
             directory",
            dir.display()
        ))
    };
    if let Some(seg) = manifest.segments.iter().find(|seg| !is_segment_name(&seg.file)) {
        return Err(stranger(&seg.file));
    }
    if !is_head_name(&manifest.head_file) {
        return Err(stranger(&manifest.head_file));
    }
    Ok(Some(manifest))
}

/// A snapshot directory an Aggregator flushes its store into.
#[derive(Debug)]
pub struct SnapshotDir {
    dir: PathBuf,
    /// Generation for the *next* head file, strictly above the
    /// committed manifest's — the flush must never write to the head
    /// file the committed manifest references.
    head_gen: AtomicU64,
}

impl SnapshotDir {
    /// Opens (creating if needed) a snapshot directory, sweeping any
    /// segment/head/tmp files a crashed flush left behind that the
    /// committed manifest does not reference.
    ///
    /// Sweeping *before* the first flush is a correctness requirement,
    /// not hygiene: sequence numbers in the acked-but-unflushed
    /// durability window are reassigned to different events after a
    /// crash-restart, so a segment sealed by the restarted store can
    /// collide with an orphan's seq-range file name.
    /// [`SnapshotDir::flush`]'s reuse-by-name must therefore only ever
    /// see segment files the manifest — and hence the store restored
    /// from it — vouches for.
    ///
    /// # Errors
    ///
    /// Fails, touching nothing, if `dir` exists and is not a directory,
    /// if a `<dir>.marks` file sits beside it (the dedup-marks sidecar
    /// of manifest version 1: marks live in the manifest now, and a
    /// leftover must not pass for state this build restores), or if an
    /// existing manifest is not one of a version this build reads (the orphan
    /// sweep needs it to know which files are live); propagates I/O
    /// errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotDir> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(not_a_directory(&dir));
        }
        let sidecar = PathBuf::from(format!("{}.marks", dir.display()));
        if sidecar.exists() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is a dedup-marks sidecar from manifest version 1; marks are part of \
                     {MANIFEST_NAME} now and nothing reads it — remove it",
                    sidecar.display()
                ),
            ));
        }
        fs::create_dir_all(&dir)?;
        let manifest = read_manifest(&dir)?;
        let next_gen = manifest.as_ref().map_or(1, |m| head_generation(&m.head_file) + 1);
        let snap = SnapshotDir { dir, head_gen: AtomicU64::new(next_gen) };
        snap.sweep(&manifest.map_or_else(HashSet::new, |m| m.live_files()))?;
        Ok(snap)
    }

    /// Removes stray tmps and every segment or head file not in `live`:
    /// orphans of a flush that crashed before its manifest rename,
    /// segments rotated out of the window, the previous head
    /// generation. Returns how many *segment* files went — the head
    /// turnover is a constant of the commit protocol, not data leaving
    /// the window.
    fn sweep(&self, live: &HashSet<String>) -> io::Result<u64> {
        let mut segments_removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_segment = is_segment_name(&name);
            let stale = (is_segment || is_head_name(&name)) && !live.contains(&*name);
            if stale || name.ends_with(".tmp") {
                fs::remove_file(entry.path())?;
                segments_removed += u64::from(stale && is_segment);
            }
        }
        Ok(segments_removed)
    }

    /// The directory this snapshot lives in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Flushes the store's current state, and with it the push dedup
    /// marks `marks` returns.
    ///
    /// `marks` is called *after* the store's state is captured: a
    /// client's mark advances before its event can reach the store, so
    /// marks captured second are at least as new as the events beside
    /// them and can never suppress the resend of an event the snapshot
    /// is missing. A store with no pushers passes `HashMap::new`.
    ///
    /// Sealed segments already on disk are reused untouched; new ones
    /// are written once; the head goes into a fresh generation-named
    /// file and `MANIFEST.json` is rewritten (tmp + rename — the one
    /// commit point, for events and marks alike); files no longer
    /// referenced are removed.
    ///
    /// # Errors
    ///
    /// An error means the flush stopped. Whichever manifest is then the
    /// committed one, it is one whole flush's state, so no caller needs
    /// to be told which. Only the injected `store.flush.committed` crash
    /// point fails after the rename; the sweep behind it is best-effort.
    pub fn flush(
        &self,
        store: &EventStore,
        marks: impl FnOnce() -> HashMap<String, u64>,
    ) -> io::Result<FlushStats> {
        let state = store.snapshot_state();
        let marks = marks();
        let mut stats = FlushStats::default();
        let mut segments = Vec::with_capacity(state.chain.segs.len());
        for seg in &state.chain.segs {
            let name = segment_file_name(seg.first_seq(), seg.last_seq());
            let path = self.dir.join(&name);
            if path.exists() {
                stats.segments_reused += 1;
            } else {
                sdci_faults::crash_point("store.flush.segment")?;
                write_blocks(&path, seg.events())?;
                stats.segments_written += 1;
            }
            segments.push(ManifestSegment {
                file: name,
                first_seq: seg.first_seq(),
                last_seq: seg.last_seq(),
                len: seg.len(),
                min_time: seg.min_time(),
                max_time: seg.max_time(),
            });
        }
        // The head is written under a name no committed manifest
        // references: overwriting the committed head file here, before
        // the manifest rename below, would corrupt the snapshot if
        // this flush dies between the two renames.
        let head_file = head_file_name(self.head_gen.fetch_add(1, Ordering::Relaxed));
        sdci_faults::crash_point("store.flush.head")?;
        write_blocks(&self.dir.join(&head_file), &state.head)?;
        stats.head_events = state.head.len() as u64;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            trim: state.chain.trim,
            last_seq: state.last_seq(),
            segments,
            head_file,
            head_len: state.head.len(),
            marks: marks.into_iter().collect(),
        };
        let json = serde_json::to_string(&manifest).map_err(|e| invalid(e.to_string()))?;
        crate::write_atomically(&self.dir.join(MANIFEST_NAME), |out| {
            out.write_all(json.as_bytes())?;
            // The tmp is whole before the kill location between it and
            // the rename.
            out.flush()?;
            sdci_faults::crash_point("store.flush.manifest_commit")
        })?;
        sdci_faults::crash_point("store.flush.committed")?;
        // Committed. The sweep is best-effort: anything left behind is
        // retried next flush and swept again at open.
        stats.files_removed = self.sweep(&manifest.live_files()).unwrap_or(0);
        Ok(stats)
    }
}

/// FNV-1a over `bytes`, a block's checksum: tiny, seedless, and stable
/// across builds and processes (`std`'s hashers randomize per process),
/// so a snapshot written by one run verifies in the next.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Writes `events` to `path` as blocks of at most [`MAX_FRAME_MEMBERS`].
pub(super) fn write_blocks(path: &Path, events: &[SequencedEvent]) -> io::Result<()> {
    crate::write_atomically(path, |out| {
        let (mut body, mut member) = (Vec::new(), Vec::new());
        for block in events.chunks(MAX_FRAME_MEMBERS) {
            body.clear();
            put_block(&mut body, block, &mut member);
            let len = u32::try_from(body.len()).map_err(|_| invalid("a block of 4 GiB or more"))?;
            out.write_all(&len.to_le_bytes())?;
            out.write_all(&body)?;
            out.write_all(&fnv1a(&body).to_le_bytes())?;
        }
        Ok(())
    })
}

/// Appends `block` as a block's body: its count, then each member behind
/// its length, coded against the ones before it; `member` is scratch.
fn put_block(body: &mut Vec<u8>, block: &[SequencedEvent], member: &mut Vec<u8>) {
    let mut seq = SeqEncoder::new();
    put_varint(body, block.len() as u64);
    for (i, sev) in block.iter().enumerate() {
        member.clear();
        put_member(member, sev, &block[..i], &mut seq);
        put_bytes(body, member);
    }
}

/// Reads a block's body back — the inverse of [`put_block`]. A count of
/// more members than half the bytes after it is refused (a member is at
/// least its length and a byte), and the `Vec` reserves no more than a
/// block holds; a member length the bytes cannot hold, a member whose
/// decoder fails or does not consume exactly its length, and a byte after
/// the last member are refused too. The reader owns the block's path
/// arena and seals it on return, before the caller touches an event.
fn read_block(body: &[u8]) -> Result<Vec<SequencedEvent>, BinDecodeError> {
    let mut r = BinReader::new(body);
    let count = r.length(Class::Other)?;
    if count > r.remaining() / 2 {
        let left = r.remaining();
        return Err(BinDecodeError::msg(format!("{count} members claimed in {left} bytes")));
    }
    let mut block = Vec::with_capacity(count.min(MAX_FRAME_MEMBERS));
    for _ in 0..count {
        let len = r.length(Class::Other)?;
        let left = r.remaining();
        if len > left {
            return Err(BinDecodeError::msg(format!("a member of {len} bytes, {left} left")));
        }
        block.push(SequencedEvent::decode_bin(&mut r, &block)?);
        let used = left - r.remaining();
        if used != len {
            return Err(BinDecodeError::msg(format!("a member of {len} bytes decoded as {used}")));
        }
    }
    if !r.is_empty() {
        return Err(BinDecodeError::msg(format!("{} bytes after the last member", r.remaining())));
    }
    Ok(block)
}

/// Reads a segment or head file back. The file is outside input: a
/// length word is checked against the bytes on hand before anything is
/// sized by it, a body is decoded only once its checksum holds, and
/// [`read_block`] bounds what a count word may reserve.
fn read_blocks(path: &Path) -> io::Result<Vec<SequencedEvent>> {
    let bytes = fs::read(path)?;
    let corrupt = |what: String| invalid(format!("{}: {what}", path.display()));
    let mut events = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let Some((len, after_len)) = rest.split_first_chunk::<4>() else {
            return Err(corrupt(format!("{} bytes where a block length belongs", rest.len())));
        };
        let len = u32::from_le_bytes(*len) as usize;
        let block = after_len.split_at_checked(len);
        let Some((body, (sum, after_sum))) =
            block.and_then(|(body, after)| Some((body, after.split_first_chunk::<8>()?)))
        else {
            return Err(corrupt(format!(
                "a block of {len} bytes and its checksum, {} left in the file",
                after_len.len()
            )));
        };
        if u64::from_le_bytes(*sum) != fnv1a(body) {
            return Err(corrupt("a block does not match its checksum".to_string()));
        }
        events.extend(read_block(body).map_err(|e| corrupt(e.to_string()))?);
        rest = after_sum;
    }
    Ok(events)
}

/// The error for a snapshot path that names a regular file: snapshots
/// are directories, and nothing here reads any single-file form.
fn not_a_directory(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{} is a file, not a snapshot directory", path.display()),
    )
}

/// Restores the store and the push dedup marks of one committed flush
/// from the [`SnapshotDir`] layout at `dir`, the store bounded to
/// `capacity` events.
///
/// The restore preserves the snapshot's segment boundaries, so
/// subsequent flushes keep reusing the segment files already on disk.
/// A directory with no manifest — created, but no flush ever committed
/// — restores as an empty store and no marks.
///
/// # Errors
///
/// Returns `InvalidInput` when `dir` names a regular file, `InvalidData`
/// on a corrupt or other-version manifest, a corrupt segment or head
/// file, one that disagrees with its manifest entry, or
/// out-of-order/duplicate sequence numbers; propagates other I/O
/// failures.
pub fn restore_snapshot(
    dir: &Path,
    capacity: usize,
) -> io::Result<(EventStore, HashMap<String, u64>)> {
    if !fs::metadata(dir)?.is_dir() {
        return Err(not_a_directory(dir));
    }
    // The manifest is the commit point, so a directory without one —
    // e.g. a crash before the first flush interval — is an empty
    // snapshot, not corruption.
    let Some(manifest) = read_manifest(dir)? else {
        return Ok((EventStore::new(capacity), HashMap::new()));
    };
    let mut segs: VecDeque<Arc<Segment>> = VecDeque::with_capacity(manifest.segments.len());
    let mut prev_last = 0u64;
    // Where each restored segment's directory ids are assembled.
    let mut ids = Vec::new();
    for entry in &manifest.segments {
        let events = read_blocks(&dir.join(&entry.file))?;
        if events.len() != entry.len
            || events.first().map(|e| e.seq) != Some(entry.first_seq)
            || events.last().map(|e| e.seq) != Some(entry.last_seq)
        {
            return Err(invalid(format!(
                "segment file {} does not match its manifest entry",
                entry.file
            )));
        }
        if !events.windows(2).all(|w| w[0].seq < w[1].seq)
            || (entry.first_seq <= prev_last && prev_last != 0)
            || entry.first_seq == 0
        {
            return Err(invalid(format!("segment file {} is out of order", entry.file)));
        }
        prev_last = entry.last_seq;
        let seg = Segment::build(events, &mut ids);
        if seg.min_time() != entry.min_time || seg.max_time() != entry.max_time {
            return Err(invalid(format!(
                "segment file {} time range disagrees with its manifest entry",
                entry.file
            )));
        }
        segs.push_back(Arc::new(seg));
    }
    if manifest.trim > 0 && segs.front().is_none_or(|front| manifest.trim >= front.len()) {
        return Err(invalid("snapshot manifest trim exceeds its oldest segment"));
    }
    let head = read_blocks(&dir.join(&manifest.head_file))?;
    if head.len() != manifest.head_len
        || !head.windows(2).all(|w| w[0].seq < w[1].seq)
        || head.first().is_some_and(|e| e.seq <= prev_last)
    {
        return Err(invalid("snapshot head does not match its manifest entry"));
    }
    let store = EventStore::from_parts(capacity, segs, manifest.trim, head);
    if store.last_seq() != manifest.last_seq {
        return Err(invalid("snapshot manifest last_seq disagrees with its contents"));
    }
    Ok((store, manifest.marks.into_iter().collect()))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
