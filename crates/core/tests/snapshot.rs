//! Integration tests for the incremental snapshot directory: the
//! write-once property of sealed segment files, manifest-commit
//! atomicity (events and push dedup marks in one manifest), garbage
//! collection under rotation, restore fidelity (including across a
//! capacity shrink), and the refusal of a path that is not a directory
//! of this build's form.

use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir, StoreQuery};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::{BTreeMap, HashMap};
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

/// (len, mtime) of every `seg-*.bin` file in the snapshot directory.
fn segment_files(dir: &Path) -> BTreeMap<String, (u64, SystemTime)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read snapshot dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".bin") {
            let meta = entry.metadata().expect("metadata");
            out.insert(name, (meta.len(), meta.modified().expect("mtime")));
        }
    }
    out
}

/// Name and bytes of every file in `dir`.
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

/// The bytes of the segment file a flush writes for `events` sealed as
/// one segment — for planting a well-formed file where a test needs one.
fn segment_bytes(tag: &str, events: Vec<SequencedEvent>) -> Vec<u8> {
    let scratch = Scratch::new(tag);
    let store = EventStore::with_segment_size(events.len() * 2, events.len());
    store.insert_batch(events).unwrap();
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, HashMap::new).unwrap();
    let (name, _) = segment_files(scratch.path()).into_iter().next().expect("one sealed segment");
    std::fs::read(scratch.path().join(name)).unwrap()
}

#[test]
fn flush_with_unchanged_sealed_chain_rewrites_only_manifest_and_head() {
    let scratch = Scratch::new("incremental");
    let store = EventStore::with_segment_size(10_000, 16);
    for i in 1..=100 {
        store.insert(sev(i, &format!("/a/f{i}"))).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    let first = dir.flush(&store, HashMap::new).unwrap();
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
    let second = dir.flush(&store, HashMap::new).unwrap();
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
    let third = dir.flush(&store, HashMap::new).unwrap();
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
    dir.flush(&store, HashMap::new).unwrap();
    let files = segment_files(scratch.path());

    let restored = restore_snapshot(scratch.path(), 10_000).unwrap().0;
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
    let stats = dir.flush(&restored, HashMap::new).unwrap();
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
    dir.flush(&store, HashMap::new).unwrap();
    assert_eq!(segment_files(scratch.path()).len(), 5);

    // Rotate two whole segments out of the window.
    for i in 41..=56 {
        store.insert(sev(i, "/r/f")).unwrap();
    }
    let stats = dir.flush(&store, HashMap::new).unwrap();
    assert_eq!(stats.segments_written, 2);
    assert_eq!(stats.files_removed, 2, "rotated-out segment files are swept");
    assert_eq!(segment_files(scratch.path()).len(), 5);

    let restored = restore_snapshot(scratch.path(), 40).unwrap().0;
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
    dir.flush(&store, HashMap::new).unwrap();

    let restored = restore_snapshot(scratch.path(), 20).unwrap().0;
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
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, HashMap::new).unwrap();

    let restored = restore_snapshot(scratch.path(), 25).unwrap().0;
    assert_eq!(restored.len(), 25);
    assert_eq!(restored.first_seq(), 76);
    assert_eq!(restored.last_seq(), 100);
}

#[test]
fn empty_store_roundtrip() {
    let scratch = Scratch::new("empty");
    let store = EventStore::new(100);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    let stats = dir.flush(&store, HashMap::new).unwrap();
    assert_eq!(stats.segments_written + stats.segments_reused, 0);
    let restored = restore_snapshot(scratch.path(), 100).unwrap().0;
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
    dir.flush(&store, HashMap::new).unwrap();

    let manifest = scratch.path().join("MANIFEST.json");
    std::fs::write(&manifest, "{ not json").unwrap();
    let err = restore_snapshot(scratch.path(), 1000).map(|_| ()).unwrap_err();
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
    dir.flush(&store, HashMap::new).unwrap();

    // One sealed segment file loses its last event: a well-formed file
    // that no longer matches the manifest, so restore must refuse
    // rather than silently drop events.
    let (name, _) = segment_files(scratch.path()).into_iter().next().unwrap();
    let short = segment_bytes("tamper-short", (1..=7).map(|i| sev(i, "/c/f")).collect());
    std::fs::write(scratch.path().join(&name), short).unwrap();

    let err = restore_snapshot(scratch.path(), 1000).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains(&name), "unhelpful error: {err}");
}

fn seg_file_name(first: u64, last: u64) -> String {
    format!("seg-{first:020}-{last:020}.bin")
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
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, HashMap::new).unwrap();

    // Simulate a later flush crashing after writing the segment file
    // for [65-128] but before the manifest rename, then a hard kill:
    // the acked-but-unflushed events are lost (the documented
    // durability window), and after restart their sequence numbers are
    // reassigned to *different* events. The orphan holds the pre-crash
    // events — same seqs and times, different paths — so reuse-by-name
    // would silently resurrect them.
    let collision = seg_file_name(65, 128);
    let stale = segment_bytes("orphan-stale", (65..=128).map(|i| sev(i, "/stale/f")).collect());
    std::fs::write(scratch.path().join(&collision), stale).unwrap();

    // Restart: restore the committed snapshot, reopen the directory.
    let restored = restore_snapshot(scratch.path(), 2048).unwrap().0;
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
    let stats = dir.flush(&restored, HashMap::new).unwrap();
    assert_eq!(stats.segments_written, 1, "the colliding segment must be written, not reused");
    assert_eq!(stats.segments_reused, 1);

    let roundtrip = restore_snapshot(scratch.path(), 2048).unwrap().0;
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
    std::fs::write(scratch.path().join(seg_file_name(1, 8)), "not a block\n").unwrap();
    std::fs::write(scratch.path().join("head.bin.tmp"), "").unwrap();

    let restored = restore_snapshot(scratch.path(), 100).unwrap().0;
    assert!(restored.is_empty(), "a dir with no committed manifest is an empty snapshot");
    assert_eq!(restored.last_seq(), 0);

    // Reopening sweeps the debris, and the snapshot works from there.
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    assert!(!scratch.path().join(seg_file_name(1, 8)).exists());
    assert!(!scratch.path().join("head.bin.tmp").exists());
    restored.insert(sev(1, "/n/f")).unwrap();
    dir.flush(&restored, HashMap::new).unwrap();
    assert_eq!(restore_snapshot(scratch.path(), 100).unwrap().0.len(), 1);
}

/// Snapshots are directories: a regular file at the path — even one
/// holding events as a segment file would — is refused by name, and
/// left as it was.
#[test]
fn a_regular_file_is_not_a_snapshot() {
    let file = Scratch::new("not-a-dir");
    let buf = segment_bytes("not-a-dir-events", vec![sev(1, "/l/f1")]);
    std::fs::write(file.path(), &buf).unwrap();

    for err in [
        SnapshotDir::open(file.path()).map(|_| ()).unwrap_err(),
        restore_snapshot(file.path(), 100).map(|_| ()).unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("is a file, not a snapshot directory"), "{err}");
    }
    assert_eq!(std::fs::read(file.path()).unwrap(), buf);
}

/// Nothing migrates: a directory whose manifest says version 1 —
/// `fixtures/pr19-snapshot`, written by PR 19's binary as JSON lines — is
/// refused by what it says it is, by `open` and by `restore_snapshot`
/// alike, and left exactly as found.
#[test]
fn a_version_1_directory_is_refused_by_name_and_left_as_found() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr19-snapshot");
    let scratch = Scratch::new("v1");
    std::fs::create_dir_all(scratch.path()).unwrap();
    for (name, bytes) in dir_bytes(&fixture) {
        std::fs::write(scratch.path().join(name), bytes).unwrap();
    }
    let before = dir_bytes(scratch.path());
    assert_eq!(before.len(), 3, "manifest, one segment, one head");

    for err in [
        SnapshotDir::open(scratch.path()).map(|_| ()).unwrap_err(),
        restore_snapshot(scratch.path(), 1_000).map(|_| ()).unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("manifest version 1"), "{err}");
    }
    assert_eq!(dir_bytes(scratch.path()), before);
}

/// The events `fixtures/pr23-snapshot` holds: the parent commit's writer
/// was handed exactly these (records over three directories in turn, a
/// rename, a traced event, an MDT change, an accent, a missing stamp, a
/// directory, an explicit kind, a FID on another sequence).
fn pr23_fixture_events() -> Vec<SequencedEvent> {
    let mut events: Vec<SequencedEvent> = (1..=20u64)
        .map(|seq| SequencedEvent {
            seq,
            event: FileEvent {
                index: 7_000 + seq,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: SimTime::from_nanos(5_000_000 + 1_000 * seq),
                path: format!("/proj/run-{}/f{:06x}", seq % 3, seq * 0x9e37).into(),
                src_path: None,
                target: Fid::new(0x2_4000_0400, 100 + seq as u32, 0),
                is_dir: false,
                extracted_unix_ns: Some(1_790_000_000_000_000_000),
                trace: None,
            },
        })
        .collect();
    events[3].event.changelog_kind = ChangelogKind::Rename;
    events[3].event.kind = EventKind::Moved;
    events[3].event.src_path = Some("/proj/run-1/old-name".into());
    events[5].event.trace = Some(sdci_types::TraceContext::sampled(0xabc, 7));
    events[6].event.mdt = MdtIndex::new(3);
    events[9].event.path = "/proj/run-1/é t\"q\\.txt".into();
    events[10].event.extracted_unix_ns = None;
    events[12].event.changelog_kind = ChangelogKind::Mkdir;
    events[12].event.is_dir = true;
    events[14].event.kind = EventKind::Other;
    events[17].event.target = Fid::new(0x2_4000_0401, 5, 2);
    events
}

/// Old bytes stay readable: `fixtures/pr23-snapshot` was flushed by the
/// commit before wire version 8 (manifest version 2; its members code
/// every path against the predecessor and spell every field out), and
/// the one member decoder restores it event for event, marks included.
/// A flush over it stamps version 3 and keeps the sealed segment files
/// it finds — version-7 members under a version-3 manifest — rewriting
/// only the head, smaller; that directory restores to the same events.
#[test]
fn a_version_2_directory_restores_and_the_next_flush_stamps_version_3() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr23-snapshot");
    let scratch = Scratch::new("v2");
    std::fs::create_dir_all(scratch.path()).unwrap();
    for (name, bytes) in dir_bytes(&fixture) {
        std::fs::write(scratch.path().join(name), bytes).unwrap();
    }
    let before = dir_bytes(scratch.path());
    assert_eq!(before.len(), 4, "manifest, two segments, one head");
    assert!(before["MANIFEST.json"].starts_with(br#"{"version":2,"#));

    let expected_marks = HashMap::from([("mdt0".to_string(), 20), ("mdt1".to_string(), 3)]);
    let (restored, marks) = restore_snapshot(scratch.path(), 1_000).unwrap();
    assert_eq!(restored.query(&StoreQuery::after_seq(0)), pr23_fixture_events());
    assert_eq!(marks, expected_marks);
    assert_eq!(dir_bytes(scratch.path()), before, "restoring writes nothing");

    let stats =
        SnapshotDir::open(scratch.path()).unwrap().flush(&restored, || marks.clone()).unwrap();
    assert_eq!((stats.segments_written, stats.segments_reused, stats.head_events), (0, 2, 4));
    let after = dir_bytes(scratch.path());
    assert!(after["MANIFEST.json"].starts_with(br#"{"version":3,"#));
    let is_segment = |name: &&String| name.starts_with("seg-");
    for name in before.keys().filter(is_segment) {
        assert_eq!(after[name], before[name], "{name} is written once");
    }
    let head_len = |files: &BTreeMap<String, Vec<u8>>| {
        files.iter().find(|(name, _)| name.starts_with("head-")).expect("a head").1.len()
    };
    assert!(head_len(&after) < head_len(&before), "the same four events, coded by version 8");
    let (again, marks) = restore_snapshot(scratch.path(), 1_000).unwrap();
    assert_eq!(again.query(&StoreQuery::after_seq(0)), pr23_fixture_events());
    assert_eq!(marks, expected_marks);
}

/// Marks live in the manifest: a `DIR.marks` file beside a snapshot is
/// the version-1 sidecar, which nothing reads any more — `open` names it
/// and touches neither it nor the directory.
#[test]
fn a_marks_sidecar_beside_the_directory_is_refused_by_name() {
    let scratch = Scratch::new("sidecar");
    let store = EventStore::with_segment_size(1000, 8);
    for i in 1..=20 {
        store.insert(sev(i, "/m/f")).unwrap();
    }
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, HashMap::new).unwrap();
    let before = dir_bytes(scratch.path());

    let sidecar = Scratch(PathBuf::from(format!("{}.marks", scratch.path().display())));
    std::fs::write(sidecar.path(), br#"{"c1":20}"#).unwrap();
    let err = SnapshotDir::open(scratch.path()).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains(sidecar.path().to_str().unwrap()), "{err}");
    assert_eq!(std::fs::read(sidecar.path()).unwrap(), br#"{"c1":20}"#);
    assert_eq!(dir_bytes(scratch.path()), before);
}

/// One manifest carries one flush's store and that flush's marks, and
/// the marks are read *after* the store's state is captured: an event
/// that arrives while they are being read is in the marks, not in the
/// snapshot — never the other way round, which would let a restart
/// store a resent event twice.
#[test]
fn marks_commit_with_the_events_and_are_captured_after_them() {
    let scratch = Scratch::new("marks");
    let store = EventStore::with_segment_size(1000, 8);
    for i in 1..=20 {
        store.insert(sev(i, "/c1/f")).unwrap();
    }
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store, || {
        store.insert(sev(21, "/c1/late")).unwrap();
        HashMap::from([("c1".to_string(), 21), ("c2".to_string(), 0)])
    })
    .unwrap();

    let (restored, marks) = restore_snapshot(scratch.path(), 1000).unwrap();
    assert_eq!(restored.last_seq(), 20, "the state was captured before the marks were read");
    assert_eq!(marks, HashMap::from([("c1".to_string(), 21), ("c2".to_string(), 0)]));

    // A directory no flush committed into has neither.
    let empty = Scratch::new("marks-empty");
    SnapshotDir::open(empty.path()).unwrap();
    let (restored, marks) = restore_snapshot(empty.path(), 1000).unwrap();
    assert!(restored.is_empty() && marks.is_empty());
}

/// A store whose events exercise the member layout — a rename carrying
/// `src_path`, a traced event, an accent, a quote and a backslash, a
/// trailing separator — sealed as one four-event segment and a two-event
/// head, the events it holds, and the marks its flushes commit.
fn layout_store() -> (EventStore, Vec<SequencedEvent>, HashMap<String, u64>) {
    let store = EventStore::with_segment_size(100_000, 4);
    let mut events: Vec<SequencedEvent> =
        (1..=6).map(|i| sev(i, &format!("/proj/run-{}/f{i}", i % 2))).collect();
    events[1].event.path = "/proj/run-1/é t\"q\\.txt".into();
    events[2].event.trace = Some(sdci_types::TraceContext::sampled(0xabc, 7));
    events[3].event.changelog_kind = ChangelogKind::Rename;
    events[3].event.kind = EventKind::Moved;
    events[3].event.path = "/proj/run-2/new-name".into();
    events[3].event.src_path = Some("/proj/run-2/old-name".into());
    events[4].event.extracted_unix_ns = Some(1_790_000_000_000_000_004);
    events[5].event.path = "/other/plain/".into();
    store.insert_batch(events.clone()).unwrap();
    let marks = HashMap::from([("mdt1".to_string(), 2), ("mdt0".to_string(), 4)]);
    (store, events, marks)
}

/// Flush → restore → flush reproduces every file byte for byte — the
/// manifest included, its marks in key order — for [`layout_store`]. And
/// what the form costs: bytes per event of a 4-event and a 4,096-event
/// segment file (printed; `--nocapture` shows them).
#[test]
fn a_restored_store_flushes_byte_identical_files() {
    let scratch = Scratch::new("identical");
    let (store, events, marks) = layout_store();
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, || marks).unwrap();
    let first = dir_bytes(scratch.path());
    assert_eq!(first.len(), 3, "manifest, one four-event segment, a two-event head");

    let (restored, restored_marks) = restore_snapshot(scratch.path(), 100_000).unwrap();
    assert_eq!(restored.query(&StoreQuery::after_seq(0)), events);
    let again = Scratch::new("identical-again");
    SnapshotDir::open(again.path()).unwrap().flush(&restored, || restored_marks).unwrap();
    let second = dir_bytes(again.path());
    // The head's generation restarts in a fresh directory; same bytes.
    assert_eq!(second, first);

    let small =
        segment_bytes("identical-4", (1..=4).map(|i| sev(i, &format!("/a/f{i}"))).collect());
    let large =
        segment_bytes("identical-4096", (1..=4096).map(|i| sev(i, &format!("/a/f{i}"))).collect());
    println!(
        "snapshot bytes per event: {:.1} in a 4-event segment file, {:.1} in a 4,096-event one",
        small.len() as f64 / 4.0,
        large.len() as f64 / 4096.0
    );
    assert!(large.len() / 4096 < 40, "a dense segment costs about its members: {}", large.len());
}

/// The disk form stays put whatever the wire does: `fixtures/pr26-snapshot`
/// is [`layout_store`] as the commit before wire version 11 flushed it,
/// and a flush of the same store writes the same files, byte for byte,
/// the manifest included — a snapshot block is the raw member sequence,
/// never coded, under manifest version 3.
#[test]
fn a_flush_writes_the_files_the_pinned_fixture_holds() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr26-snapshot");
    let scratch = Scratch::new("pinned");
    let (store, events, marks) = layout_store();
    SnapshotDir::open(scratch.path()).unwrap().flush(&store, || marks.clone()).unwrap();
    let pinned = dir_bytes(&fixture);
    assert_eq!(pinned.len(), 3, "manifest, one four-event segment, a two-event head");
    assert!(pinned["MANIFEST.json"].starts_with(br#"{"version":3,"#));
    assert_eq!(dir_bytes(scratch.path()), pinned);

    let (restored, restored_marks) = restore_snapshot(&fixture, 100_000).unwrap();
    assert_eq!(restored.query(&StoreQuery::after_seq(0)), events);
    assert_eq!(restored_marks, marks);
}
