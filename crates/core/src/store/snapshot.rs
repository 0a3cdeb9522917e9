//! Incremental crash-recovery snapshots for the segmented store.
//!
//! Serialising the whole retained window every flush interval would be
//! O(window) I/O every 200 ms. A [`SnapshotDir`] instead mirrors the
//! store's internal structure on disk:
//!
//! ```text
//! <dir>/
//!   MANIFEST.json                        # commit point, tmp+rename
//!   seg-00000000000000000001-00000000000000000064.ndjson
//!   seg-00000000000000000065-00000000000000000128.ndjson
//!   ...                                  # one file per sealed segment,
//!                                        # written exactly once
//!   head-0000000000000007.ndjson         # unsealed tail, one fresh
//!                                        # generation per flush
//! ```
//!
//! Sealed segments are immutable, so their files are written once and
//! then only ever garbage-collected (when rotation drops the segment);
//! a steady-state flush writes a fresh head generation and the manifest
//! — I/O proportional to the *new* data, not the window. The manifest
//! rename is the commit point: a crash mid-flush leaves the previous
//! manifest intact, and segment/head/tmp files the manifest does not
//! reference are swept both when the directory is opened (required
//! before any reuse-by-name decision — see [`SnapshotDir::open`]) and
//! after each flush commits.
//!
//! The head gets a *new* file name every flush (the generation counter
//! in its name) precisely so the flush never touches the file the
//! committed manifest references: rewriting a single `head.ndjson` in
//! place meant a crash between the head rename and the manifest rename
//! left a committed manifest pointing at a head it disagreed with —
//! an unrestorable snapshot (found by crash-point injection at
//! `store.flush.manifest_commit`).

use super::{EventStore, StoreState};
use crate::store::segment::Segment;
use sdci_types::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_NAME: &str = "MANIFEST.json";
/// The fixed head name older snapshots used; still restorable, swept
/// once the first generation-named head commits.
const LEGACY_HEAD_NAME: &str = "head.ndjson";
const MANIFEST_VERSION: u32 = 1;

fn is_segment_name(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".ndjson")
}

fn is_head_name(name: &str) -> bool {
    name == LEGACY_HEAD_NAME || (name.starts_with("head-") && name.ends_with(".ndjson"))
}

fn head_file_name(generation: u64) -> String {
    format!("head-{generation:016}.ndjson")
}

/// The generation encoded in a head file name (0 for the legacy fixed
/// name, so the first generation-named head is always newer).
fn head_generation(name: &str) -> u64 {
    name.strip_prefix("head-")
        .and_then(|rest| rest.strip_suffix(".ndjson"))
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

/// A failed [`SnapshotDir::flush`], carrying whether the flush had
/// already passed its commit point (the manifest rename) when the
/// error hit.
///
/// The distinction matters to callers that gate work on "the snapshot
/// now holds state X": a flush that errored *after* the rename has
/// committed — e.g. the best-effort sweep's crash hook fired — and
/// treating it as "did not commit" makes such callers redo or re-send
/// work the snapshot already covers.
#[derive(Debug)]
pub struct FlushError {
    /// Whether the manifest rename — the commit point — had already
    /// happened when the error occurred.
    pub committed: bool,
    /// The underlying I/O failure.
    pub source: io::Error,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let when = if self.committed { "after commit" } else { "before commit" };
        write!(f, "flush failed {when}: {}", self.source)
    }
}

impl std::error::Error for FlushError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<FlushError> for io::Error {
    fn from(e: FlushError) -> io::Error {
        io::Error::new(e.source.kind(), e.to_string())
    }
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
}

/// A snapshot directory an Aggregator flushes its store into.
#[derive(Debug)]
pub struct SnapshotDir {
    dir: PathBuf,
    /// Generation for the *next* head file, strictly above the
    /// committed manifest's — the flush must never write to the head
    /// file the committed manifest references.
    head_gen: std::sync::atomic::AtomicU64,
}

impl SnapshotDir {
    /// Opens (creating if needed) a snapshot directory, sweeping any
    /// segment/tmp files a crashed flush left behind that the committed
    /// manifest does not reference.
    ///
    /// # Errors
    ///
    /// Fails if `dir` exists and is not a directory, if an existing
    /// manifest is unreadable (the orphan sweep needs it to know which
    /// files are live), or on I/O errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotDir> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(not_a_directory(&dir));
        }
        fs::create_dir_all(&dir)?;
        let snap = SnapshotDir { dir, head_gen: std::sync::atomic::AtomicU64::new(1) };
        if let Some(committed_head) = snap.sweep_orphans()? {
            snap.head_gen
                .store(head_generation(&committed_head) + 1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(snap)
    }

    /// Removes files the committed manifest does not reference: stray
    /// tmps, and `seg-*`/`head-*` orphans left by a flush that crashed
    /// before its manifest rename. Returns the committed manifest's
    /// head file name, if a manifest exists.
    ///
    /// Sweeping *before* the first flush is a correctness requirement,
    /// not hygiene: sequence numbers in the acked-but-unflushed
    /// durability window are reassigned to different events after a
    /// crash-restart, so a segment sealed by the restarted store can
    /// collide with an orphan's seq-range file name. [`flush_state`]'s
    /// reuse-by-name must therefore only ever see segment files the
    /// manifest — and hence the store restored from it — vouches for.
    fn sweep_orphans(&self) -> io::Result<Option<String>> {
        let (live, committed_head): (HashSet<String>, Option<String>) =
            match fs::read_to_string(self.dir.join(MANIFEST_NAME)) {
                Ok(json) => {
                    let manifest: Manifest = serde_json::from_str(&json)
                        .map_err(|e| invalid(format!("corrupt snapshot manifest: {e}")))?;
                    let mut live: HashSet<String> =
                        manifest.segments.into_iter().map(|seg| seg.file).collect();
                    live.insert(manifest.head_file.clone());
                    (live, Some(manifest.head_file))
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => (HashSet::new(), None),
                Err(e) => return Err(e),
            };
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_orphan =
                (is_segment_name(&name) || is_head_name(&name)) && !live.contains(&*name);
            if is_orphan || name.ends_with(".tmp") {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(committed_head)
    }

    /// The directory this snapshot lives in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Flushes the store's current state.
    ///
    /// Sealed segments already on disk are reused untouched; new ones
    /// are written once; the head goes into a fresh generation-named
    /// file and `MANIFEST.json` is rewritten (tmp + rename, the
    /// manifest rename being the commit point); files no longer
    /// referenced are removed.
    ///
    /// # Errors
    ///
    /// Returns a [`FlushError`] whose `committed` flag says whether the
    /// manifest rename — the commit point — had already happened: on a
    /// pre-commit error the previous manifest remains the committed
    /// state, while a post-commit error (from the best-effort epilogue)
    /// leaves the *new* manifest committed.
    pub fn flush(&self, store: &EventStore) -> Result<FlushStats, FlushError> {
        self.flush_state(&store.snapshot_state())
    }

    pub(crate) fn flush_state(&self, state: &StoreState) -> Result<FlushStats, FlushError> {
        // Flush timing is the MeteredBackend layer's job
        // (`{prefix}_flush_seconds`), not the snapshot writer's.
        let mut stats = FlushStats::default();
        let live = self
            .flush_until_commit(state, &mut stats)
            .map_err(|source| FlushError { committed: false, source })?;
        if let Err(source) = sdci_faults::crash_point("store.flush.committed") {
            return Err(FlushError { committed: true, source });
        }
        // Committed. The sweep of rotated-out segment files and stray
        // tmps is best-effort: the manifest rename above was the commit
        // point, so a sweep failure must not report the flush as failed
        // (callers would skip work that depends on a committed snapshot,
        // e.g. sdcimon's dedup-marks sidecar). Anything left behind is
        // retried next flush and swept again at open.
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let is_stale_segment = is_segment_name(&name) && !live.contains(&*name);
                // Previous head generations (and any legacy fixed-name
                // head) are swept too, but only segment GC is reported
                // in the stats — the head turnover is a constant of
                // the commit protocol, not data leaving the window.
                let is_stale_head = is_head_name(&name) && !live.contains(&*name);
                let sweep = is_stale_segment || is_stale_head || name.ends_with(".tmp");
                if sweep && fs::remove_file(entry.path()).is_ok() && is_stale_segment {
                    stats.files_removed += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Everything up to and including the manifest rename — the part of
    /// a flush whose failure means "the previous manifest is still the
    /// committed state". Returns the set of live file names for the
    /// post-commit sweep.
    fn flush_until_commit(
        &self,
        state: &StoreState,
        stats: &mut FlushStats,
    ) -> io::Result<HashSet<String>> {
        let mut live: HashSet<String> = HashSet::new();
        let mut manifest_segs = Vec::with_capacity(state.segs.len());
        for seg in &state.segs {
            let name = segment_file_name(seg.first_seq(), seg.last_seq());
            let path = self.dir.join(&name);
            if path.exists() {
                stats.segments_reused += 1;
            } else {
                sdci_faults::crash_point("store.flush.segment")?;
                self.write_events_atomically(&path, seg.events().iter())?;
                stats.segments_written += 1;
            }
            manifest_segs.push(ManifestSegment {
                file: name.clone(),
                first_seq: seg.first_seq(),
                last_seq: seg.last_seq(),
                len: seg.len(),
                min_time: seg.min_time(),
                max_time: seg.max_time(),
            });
            live.insert(name);
        }
        // The head is written under a name no committed manifest
        // references: overwriting the committed head file here, before
        // the manifest rename below, would corrupt the snapshot if
        // this flush dies between the two renames.
        let head_name =
            head_file_name(self.head_gen.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        sdci_faults::crash_point("store.flush.head")?;
        self.write_events_atomically(&self.dir.join(&head_name), state.head.iter())?;
        stats.head_events = state.head.len() as u64;
        live.insert(head_name.clone());
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            trim: state.trim,
            last_seq: state.last_seq(),
            segments: manifest_segs,
            head_file: head_name,
            head_len: state.head.len(),
        };
        let json = serde_json::to_string(&manifest).expect("manifest always serializes");
        let manifest_path = self.dir.join(MANIFEST_NAME);
        let tmp = manifest_path.with_extension("json.tmp");
        fs::write(&tmp, json.as_bytes())?;
        sdci_faults::crash_point("store.flush.manifest_commit")?;
        fs::rename(&tmp, &manifest_path)?;
        Ok(live)
    }

    fn write_events_atomically<'a>(
        &self,
        path: &Path,
        events: impl Iterator<Item = &'a crate::aggregator::SequencedEvent>,
    ) -> io::Result<()> {
        let tmp = path.with_extension("ndjson.tmp");
        {
            let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
            for sev in events {
                let line = serde_json::to_string(sev).expect("events always serialize");
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.flush()?;
        }
        fs::rename(&tmp, path)
    }
}

/// The error for a snapshot path that names a regular file: snapshots
/// are directories, and nothing here reads any single-file form.
fn not_a_directory(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{} is a file, not a snapshot directory", path.display()),
    )
}

fn segment_file_name(first_seq: u64, last_seq: u64) -> String {
    format!("seg-{first_seq:020}-{last_seq:020}.ndjson")
}

/// Restores a store from the [`SnapshotDir`] layout at `dir`, bounded
/// to `capacity` events.
///
/// The restore preserves the snapshot's segment boundaries, so
/// subsequent flushes keep reusing the segment files already on disk.
/// A directory with no manifest — created, but no flush ever committed
/// — restores as an empty store.
///
/// # Errors
///
/// Returns `InvalidInput` when `dir` names a regular file, `InvalidData`
/// on a corrupt manifest, a segment file that disagrees with its
/// manifest entry, or out-of-order/duplicate sequence numbers;
/// propagates other I/O failures.
pub fn restore_snapshot(dir: &Path, capacity: usize) -> io::Result<EventStore> {
    if !fs::metadata(dir)?.is_dir() {
        return Err(not_a_directory(dir));
    }
    let manifest_path = dir.join(MANIFEST_NAME);
    let json = match fs::read_to_string(&manifest_path) {
        Ok(json) => json,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            // The directory exists but no flush ever committed (e.g. a
            // crash before the first flush interval). The manifest is
            // the commit point, so this is an empty snapshot, not
            // corruption — restore a fresh store rather than refusing
            // to start.
            return Ok(EventStore::new(capacity));
        }
        Err(e) => return Err(e),
    };
    let manifest: Manifest = serde_json::from_str(&json)
        .map_err(|e| invalid(format!("corrupt snapshot manifest: {e}")))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(invalid(format!(
            "snapshot manifest version {} is not supported (expected {MANIFEST_VERSION})",
            manifest.version
        )));
    }
    let mut segs: VecDeque<Arc<Segment>> = VecDeque::with_capacity(manifest.segments.len());
    let mut prev_last = 0u64;
    for entry in &manifest.segments {
        let events = read_events(&dir.join(&entry.file))?;
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
        let seg = Segment::build(events);
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
    let head = read_events(&dir.join(&manifest.head_file))?;
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
    Ok(store)
}

fn read_events(path: &Path) -> io::Result<Vec<crate::aggregator::SequencedEvent>> {
    let mut events = Vec::new();
    for line in BufReader::new(fs::File::open(path)?).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            serde_json::from_str(&line)
                .map_err(|e| invalid(format!("corrupt event line in {}: {e}", path.display())))?,
        );
    }
    Ok(events)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
