//! Crash-point injection through the snapshot flush path: a flush
//! failed at any named step must leave the previously committed
//! manifest as the restore point.
//!
//! Crash points are process-global, so everything runs in one `#[test]`
//! — a concurrently armed point would otherwise steal hits from the
//! other tests' flushes.

use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir};
use sdci_faults::{arm, disarm_all, CrashMode};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::path::{Path, PathBuf};

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/c/{seq}").into(),
            src_path: None,
            target: Fid::new(1, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sdci-crash-test-{tag}-{}", std::process::id()));
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

fn insert_range(store: &EventStore, range: std::ops::RangeInclusive<u64>) {
    for i in range {
        store.insert(sev(i)).unwrap();
    }
}

/// Flush must fail with the injected error, and a restore afterwards
/// must still see exactly `committed_last_seq` — the previous manifest
/// stayed the commit point.
fn assert_failed_flush_preserves(
    dir: &SnapshotDir,
    store: &EventStore,
    point: &str,
    committed_last_seq: u64,
) {
    arm(point, 1, CrashMode::Error);
    let err = dir.flush(store).unwrap_err();
    assert!(err.to_string().contains(point), "error does not name the crash point: {err}");
    assert!(!err.committed, "a failure at {point} precedes the commit point");
    let recovered = restore_snapshot(dir.path(), 4096).unwrap();
    assert_eq!(
        recovered.last_seq(),
        committed_last_seq,
        "a flush failed at {point} moved the commit point"
    );
}

#[test]
fn injected_crashes_through_the_flush_path_never_move_the_commit_point() {
    disarm_all();
    let scratch = Scratch::new("flush");
    let store = EventStore::with_segment_size(4096, 8);
    insert_range(&store, 1..=20);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    dir.flush(&store).unwrap();

    // Mid-flush failure before the manifest rename: state A survives,
    // and the very next (un-armed) flush commits state B.
    insert_range(&store, 21..=30);
    assert_failed_flush_preserves(&dir, &store, "store.flush.manifest_commit", 20);
    dir.flush(&store).unwrap();
    assert_eq!(restore_snapshot(scratch.path(), 4096).unwrap().last_seq(), 30);

    // Failure while writing a newly sealed segment file.
    insert_range(&store, 31..=40);
    assert_failed_flush_preserves(&dir, &store, "store.flush.segment", 30);
    dir.flush(&store).unwrap();

    // Failure while rewriting the head.
    insert_range(&store, 41..=41);
    assert_failed_flush_preserves(&dir, &store, "store.flush.head", 40);
    dir.flush(&store).unwrap();

    // `store.flush.committed` fires *after* the rename: the flush
    // reports the injected error, but the new manifest is already the
    // commit point — this is the hook for testing callers that must
    // not confuse "flush errored" with "flush did not commit".
    insert_range(&store, 42..=42);
    arm("store.flush.committed", 1, CrashMode::Error);
    let err = dir.flush(&store).unwrap_err();
    assert!(err.to_string().contains("store.flush.committed"));
    assert!(err.committed, "a post-rename failure must report the flush as committed");
    assert_eq!(restore_snapshot(scratch.path(), 4096).unwrap().last_seq(), 42);

    // `store.seal` has no error to propagate (sealing is in-memory and
    // infallible), so its error mode escalates to a panic — the
    // in-process stand-in for the abort a chaos run would use.
    arm("store.seal", 1, CrashMode::Error);
    let sealing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        insert_range(&store, 43..=64);
    }));
    assert!(sealing.is_err(), "an armed store.seal must fire while sealing");

    disarm_all();
}
