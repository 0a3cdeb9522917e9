//! Integration tests for the incremental snapshot directory: the
//! write-once property of sealed segment files, manifest-commit
//! atomicity, garbage collection under rotation, restore fidelity
//! (including across a capacity shrink), and the refusal of a path that
//! is not a directory.

use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir, StoreQuery};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

fn sev(seq: u64, path: &str) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: path.into(),
            src_path: None,
            target: Fid::new(1, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sdci-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
    }
}

/// (len, mtime) of every `seg-*.ndjson` file in the snapshot directory.
fn segment_files(dir: &Path) -> BTreeMap<String, (u64, SystemTime)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read snapshot dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".ndjson") {
            let meta = entry.metadata().expect("metadata");
            out.insert(name, (meta.len(), meta.modified().expect("mtime")));
        }
    }
    out
}

#[test]
fn flush_with_unchanged_sealed_chain_rewrites_only_manifest_and_head() {
    let scratch = Scratch::new("incremental");
    let store = EventStore::with_segment_size(10_000, 16);
    for i in 1..=100 {
        store.insert(sev(i, &format!("/a/f{i}"))).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    let first = dir.flush(&store).unwrap();
    assert_eq!(first.segments_written, 6, "100 events / 16-event segments = 6 sealed");
    assert_eq!(first.segments_reused, 0);
    assert_eq!(first.head_events, 4);

    let before = segment_files(scratch.path());
    assert_eq!(before.len(), 6);

    // Head-only growth: no new sealed segment between flushes.
    for i in 101..=110 {
        store.insert(sev(i, &format!("/a/f{i}"))).unwrap();
    }
    // Sleep past mtime granularity so an (incorrect) rewrite is visible.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let second = dir.flush(&store).unwrap();
    assert_eq!(second.segments_written, 0, "no sealed segment changed");
    assert_eq!(second.segments_reused, 6);
    assert_eq!(second.head_events, 14);
    assert_eq!(second.files_removed, 0);

    let after = segment_files(scratch.path());
    assert_eq!(before, after, "sealed segment files' bytes and mtimes must be untouched");

    // Sealing new segments adds files without touching the old ones.
    for i in 111..=150 {
        store.insert(sev(i, &format!("/a/f{i}"))).unwrap();
    }
    let third = dir.flush(&store).unwrap();
    assert_eq!(third.segments_written, 3);
    assert_eq!(third.segments_reused, 6);
    let grown = segment_files(scratch.path());
    assert_eq!(grown.len(), 9);
    for (name, meta) in &before {
        assert_eq!(grown.get(name), Some(meta), "{name} rewritten by a later flush");
    }
}

#[test]
fn directory_roundtrip_preserves_contents_and_segment_files() {
    let scratch = Scratch::new("roundtrip");
    let store = EventStore::with_segment_size(10_000, 8);
    for i in 1..=60 {
        store.insert(sev(i, &format!("/p{}/f{i}", i % 4))).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();
    let files = segment_files(scratch.path());

    let restored = restore_snapshot(scratch.path(), 10_000).unwrap();
    assert_eq!(restored.len(), 60);
    assert_eq!(restored.first_seq(), 1);
    assert_eq!(restored.last_seq(), 60);
    assert_eq!(restored.memory(), store.memory());
    for q in [
        StoreQuery::after_seq(0),
        StoreQuery::after_seq(33),
        StoreQuery::since(SimTime::from_secs(17)),
        StoreQuery::default().under("/p2"),
        StoreQuery::after_seq(10).limit(7),
    ] {
        assert_eq!(restored.query(&q), store.query(&q), "query {q:?} diverged after restore");
    }

    // The restored store keeps the snapshot's segment boundaries, so a
    // flush from it reuses every file already on disk.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let stats = dir.flush(&restored).unwrap();
    assert_eq!(stats.segments_written, 0, "restored store must reuse on-disk segments");
    assert_eq!(stats.segments_reused, files.len() as u64);
    assert_eq!(segment_files(scratch.path()), files);

    // Ingestion resumes after the snapshot.
    restored.insert(sev(61, "/p0/f61")).unwrap();
    assert_eq!(restored.last_seq(), 61);
}

#[test]
fn rotation_garbage_collects_dropped_segment_files() {
    let scratch = Scratch::new("gc");
    let store = EventStore::with_segment_size(40, 8);
    for i in 1..=40 {
        store.insert(sev(i, "/r/f")).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();
    assert_eq!(segment_files(scratch.path()).len(), 5);

    // Rotate two whole segments out of the window.
    for i in 41..=56 {
        store.insert(sev(i, "/r/f")).unwrap();
    }
    let stats = dir.flush(&store).unwrap();
    assert_eq!(stats.segments_written, 2);
    assert_eq!(stats.files_removed, 2, "rotated-out segment files are swept");
    assert_eq!(segment_files(scratch.path()).len(), 5);

    let restored = restore_snapshot(scratch.path(), 40).unwrap();
    assert_eq!(restored.first_seq(), 17);
    assert_eq!(restored.last_seq(), 56);
    assert_eq!(restored.len(), 40);
}

#[test]
fn restore_respects_partially_trimmed_front_segment() {
    let scratch = Scratch::new("trim");
    // Capacity not a multiple of the segment size: the front segment is
    // always partially trimmed once rotation starts.
    let store = EventStore::with_segment_size(20, 8);
    for i in 1..=30 {
        store.insert(sev(i, "/t/f")).unwrap();
    }
    assert_eq!(store.first_seq(), 11);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();

    let restored = restore_snapshot(scratch.path(), 20).unwrap();
    assert_eq!(restored.first_seq(), 11, "trim offset survives the roundtrip");
    assert_eq!(restored.len(), 20);
    assert_eq!(restored.query(&StoreQuery::after_seq(0)), store.query(&StoreQuery::after_seq(0)));
}

#[test]
fn restore_into_smaller_capacity_keeps_the_newest_events() {
    let scratch = Scratch::new("shrink");
    let store = EventStore::with_segment_size(10_000, 8);
    for i in 1..=100 {
        store.insert(sev(i, "/s/f")).unwrap();
    }
    SnapshotDir::open(scratch.path()).unwrap().flush(&store).unwrap();

    let restored = restore_snapshot(scratch.path(), 25).unwrap();
    assert_eq!(restored.len(), 25);
    assert_eq!(restored.first_seq(), 76);
    assert_eq!(restored.last_seq(), 100);
}

#[test]
fn empty_store_roundtrip() {
    let scratch = Scratch::new("empty");
    let store = EventStore::new(100);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    let stats = dir.flush(&store).unwrap();
    assert_eq!(stats.segments_written + stats.segments_reused, 0);
    let restored = restore_snapshot(scratch.path(), 100).unwrap();
    assert!(restored.is_empty());
    assert_eq!(restored.last_seq(), 0);
    restored.insert(sev(1, "/e/f")).unwrap();
    assert_eq!(restored.len(), 1);
}

#[test]
fn corrupt_manifest_is_rejected() {
    let scratch = Scratch::new("corrupt");
    let store = EventStore::with_segment_size(1000, 8);
    for i in 1..=20 {
        store.insert(sev(i, "/c/f")).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();

    let manifest = scratch.path().join("MANIFEST.json");
    std::fs::write(&manifest, "{ not json").unwrap();
    let err = restore_snapshot(scratch.path(), 1000).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("manifest"), "unhelpful error: {err}");
}

#[test]
fn tampered_segment_file_is_rejected() {
    let scratch = Scratch::new("tamper");
    let store = EventStore::with_segment_size(1000, 8);
    for i in 1..=20 {
        store.insert(sev(i, "/c/f")).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();

    // Truncate one sealed segment file: its length no longer matches the
    // manifest, so restore must refuse rather than silently drop events.
    let (name, _) = segment_files(scratch.path()).into_iter().next().unwrap();
    let seg_path = scratch.path().join(&name);
    let text = std::fs::read_to_string(&seg_path).unwrap();
    let truncated: Vec<&str> = text.lines().skip(1).collect();
    std::fs::write(&seg_path, truncated.join("\n")).unwrap();

    let err = restore_snapshot(scratch.path(), 1000).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains(&name), "unhelpful error: {err}");
}

fn seg_file_name(first: u64, last: u64) -> String {
    format!("seg-{first:020}-{last:020}.ndjson")
}

#[test]
fn orphan_segment_file_from_a_crashed_flush_is_swept_not_reused() {
    let scratch = Scratch::new("orphan");
    // Capacity 2048 so a restored store seals at the default minimum of
    // 64 events — the collision below needs the restarted store to seal
    // the same seq range the crashed flush did.
    let store = EventStore::with_segment_size(2048, 64);
    for i in 1..=100 {
        store.insert(sev(i, &format!("/committed/f{i}"))).unwrap();
    }
    // Committed state: segment [1-64], head 65..=100.
    SnapshotDir::open(scratch.path()).unwrap().flush(&store).unwrap();

    // Simulate a later flush crashing after writing the segment file
    // for [65-128] but before the manifest rename, then a hard kill:
    // the acked-but-unflushed events are lost (the documented
    // durability window), and after restart their sequence numbers are
    // reassigned to *different* events. The orphan holds the pre-crash
    // events — same seqs and times, different paths — so reuse-by-name
    // would silently resurrect them.
    let collision = seg_file_name(65, 128);
    let stale: String =
        (65..=128).map(|i| serde_json::to_string(&sev(i, "/stale/f")).unwrap() + "\n").collect();
    std::fs::write(scratch.path().join(&collision), stale).unwrap();

    // Restart: restore the committed snapshot, reopen the directory.
    let restored = restore_snapshot(scratch.path(), 2048).unwrap();
    assert_eq!(restored.last_seq(), 100);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    assert!(
        !scratch.path().join(&collision).exists(),
        "open must sweep segment files the manifest does not reference"
    );

    // Re-ingest: seqs 101..=128 now carry different events, and sealing
    // produces a segment whose name collides with the orphan's.
    for i in 101..=128 {
        restored.insert(sev(i, &format!("/fresh/f{i}"))).unwrap();
    }
    let stats = dir.flush(&restored).unwrap();
    assert_eq!(stats.segments_written, 1, "the colliding segment must be written, not reused");
    assert_eq!(stats.segments_reused, 1);

    let roundtrip = restore_snapshot(scratch.path(), 2048).unwrap();
    let all = roundtrip.query(&StoreQuery::after_seq(0));
    assert_eq!(all.len(), 128);
    assert!(
        all.iter().all(|e| !e.event.path.starts_with("/stale")),
        "restore resurrected events from the crashed flush's orphan file"
    );
    assert_eq!(
        roundtrip.query(&StoreQuery::after_seq(100)),
        restored.query(&StoreQuery::after_seq(100))
    );
}

#[test]
fn directory_without_manifest_restores_as_empty() {
    let scratch = Scratch::new("no-manifest");
    // A crash after the directory was created but before the first
    // flush committed: no MANIFEST.json, possibly debris from the
    // crashed flush itself.
    std::fs::create_dir_all(scratch.path()).unwrap();
    std::fs::write(scratch.path().join(seg_file_name(1, 8)), "not json\n").unwrap();
    std::fs::write(scratch.path().join("head.ndjson.tmp"), "").unwrap();

    let restored = restore_snapshot(scratch.path(), 100).unwrap();
    assert!(restored.is_empty(), "a dir with no committed manifest is an empty snapshot");
    assert_eq!(restored.last_seq(), 0);

    // Reopening sweeps the debris, and the snapshot works from there.
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    assert!(!scratch.path().join(seg_file_name(1, 8)).exists());
    assert!(!scratch.path().join("head.ndjson.tmp").exists());
    restored.insert(sev(1, "/n/f")).unwrap();
    dir.flush(&restored).unwrap();
    assert_eq!(restore_snapshot(scratch.path(), 100).unwrap().len(), 1);
}

/// Snapshots are directories: a regular file at the path — even one
/// holding an event line as a segment file would — is refused by name, and
/// left as it was.
#[test]
fn a_regular_file_is_not_a_snapshot() {
    let file = Scratch::new("not-a-dir");
    let buf = serde_json::to_string(&sev(1, "/l/f1")).unwrap().into_bytes();
    std::fs::write(file.path(), &buf).unwrap();

    for err in [
        SnapshotDir::open(file.path()).unwrap_err(),
        restore_snapshot(file.path(), 100).unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("is a file, not a snapshot directory"), "{err}");
    }
    assert_eq!(std::fs::read(file.path()).unwrap(), buf);
}

/// What the commit before `EventPath` wrote still loads, and what this
/// one writes is what that one wrote: `fixtures/pr19-snapshot` is a
/// snapshot directory (one sealed four-event segment, a two-event head)
/// and `fixtures/pr19-feed.ndjson` the same events as `FeedMessage` JSON
/// lines, both produced by that commit's binary — a rename carrying
/// `src_path`, a traced event, an accent, an escaped quote and backslash,
/// a trailing separator. Restored and flushed afresh, every file comes
/// out byte-identical; parsed and printed, so does every line.
#[test]
fn a_snapshot_and_feed_lines_from_before_event_path_reserialise_identically() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr19-snapshot");
    let restored = restore_snapshot(&fixture, 1_000).unwrap();
    assert_eq!(restored.len(), 6);
    let renamed = &restored.query(&StoreQuery::after_seq(3).limit(1))[0].event;
    assert_eq!(renamed.path.as_str(), "/proj/run-2/new-name");
    assert_eq!(renamed.src_path.as_ref().unwrap().as_str(), "/proj/run-2/old-name");

    let scratch = Scratch::new("pr19-fixture");
    SnapshotDir::open(scratch.path()).unwrap().flush(&restored).unwrap();
    let mut compared = 0;
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let name = entry.unwrap().file_name();
        assert_eq!(
            std::fs::read(scratch.path().join(&name)).unwrap(),
            std::fs::read(fixture.join(&name)).unwrap(),
            "{name:?} differs from what the parent commit wrote"
        );
        compared += 1;
    }
    assert_eq!(compared, 3, "manifest, one segment, one head");

    let feed = include_str!("fixtures/pr19-feed.ndjson");
    assert_eq!(feed.lines().count(), 7);
    for line in feed.lines() {
        let message: sdci_core::FeedMessage = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&message).unwrap(), line);
    }
}
