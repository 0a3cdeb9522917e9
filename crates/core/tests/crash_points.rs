//! Crash-point injection through the snapshot flush path: a flush
//! failed at any named step must leave one whole flush's state as the
//! restore point — the store *and* the push dedup marks of the same
//! manifest, the previous pair before the rename and the new pair after
//! it, never the store of one flush beside the marks of another.
//!
//! Crash points are process-global, so everything runs in one `#[test]`
//! — a concurrently armed point would otherwise steal hits from the
//! other tests' flushes.

use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir, StoreQuery};
use sdci_faults::{arm, disarm_all, CrashMode};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Two pushers feed the store, odd sequences from one and even from the
/// other, each event under its client's root.
const CLIENTS: [&str; 2] = ["c1", "c2"];

fn client_of(seq: u64) -> &'static str {
    CLIENTS[(seq % 2) as usize]
}

/// What the pull server's marks read once events `1..=last_seq` have
/// been handed to the pipeline: each client's count of them.
fn marks_at(last_seq: u64) -> HashMap<String, u64> {
    CLIENTS
        .iter()
        .map(|c| (c.to_string(), (1..=last_seq).filter(|&seq| client_of(seq) == *c).count() as u64))
        .collect()
}

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/{}/{seq}", client_of(seq)).into(),
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

/// Flushes the store with the marks its pushers hold at that moment.
fn flush(dir: &SnapshotDir, store: &EventStore) -> std::io::Result<sdci_core::FlushStats> {
    dir.flush(store, || marks_at(store.last_seq()))
}

/// The directory must restore as exactly the flush that committed at
/// `committed_last_seq`: that store, and the marks captured with it —
/// which cover every event of their client the store holds, so a pusher
/// resending its unacked window is deduplicated, never stored twice.
fn assert_restores_as_one_flush(dir: &Path, committed_last_seq: u64, after: &str) {
    let (store, marks) = restore_snapshot(dir, 4096).unwrap();
    assert_eq!(store.last_seq(), committed_last_seq, "{after}: wrong commit point");
    assert_eq!(marks, marks_at(committed_last_seq), "{after}: marks of another flush");
    for client in CLIENTS {
        let held = store.query(&StoreQuery::default().under(format!("/{client}"))).len() as u64;
        assert!(marks[client] >= held, "{after}: {client} marked {} < {held} held", marks[client]);
    }
}

/// Flush must fail with the injected error, and a restore afterwards
/// must still see exactly the flush committed at `committed_last_seq` —
/// the previous manifest stayed the commit point.
fn assert_failed_flush_preserves(
    dir: &SnapshotDir,
    store: &EventStore,
    point: &str,
    committed_last_seq: u64,
) {
    arm(point, 1, CrashMode::Error);
    let err = flush(dir, store).unwrap_err();
    assert!(err.to_string().contains(point), "error does not name the crash point: {err}");
    assert_restores_as_one_flush(dir.path(), committed_last_seq, point);
}

#[test]
fn injected_crashes_through_the_flush_path_never_move_the_commit_point() {
    disarm_all();
    let scratch = Scratch::new("flush");
    let store = EventStore::with_segment_size(4096, 8);
    insert_range(&store, 1..=20);
    let dir = SnapshotDir::open(scratch.path()).unwrap();
    flush(&dir, &store).unwrap();
    assert_restores_as_one_flush(scratch.path(), 20, "clean flush");

    // Mid-flush failure before the manifest rename: state A survives,
    // and the very next (un-armed) flush commits state B.
    insert_range(&store, 21..=30);
    assert_failed_flush_preserves(&dir, &store, "store.flush.manifest_commit", 20);
    flush(&dir, &store).unwrap();
    assert_restores_as_one_flush(scratch.path(), 30, "flush after a failed commit");

    // Failure while writing a newly sealed segment file.
    insert_range(&store, 31..=40);
    assert_failed_flush_preserves(&dir, &store, "store.flush.segment", 30);
    flush(&dir, &store).unwrap();

    // Failure while rewriting the head.
    insert_range(&store, 41..=41);
    assert_failed_flush_preserves(&dir, &store, "store.flush.head", 40);
    flush(&dir, &store).unwrap();

    // `store.flush.committed` fires *after* the rename: the flush
    // reports the injected error, but the new manifest — the new store
    // and the new marks, together — is already the commit point. (With
    // marks in a file of their own, written after this point, a kill
    // here restored the new store beside the old marks.)
    insert_range(&store, 42..=43);
    arm("store.flush.committed", 1, CrashMode::Error);
    let err = flush(&dir, &store).unwrap_err();
    assert!(err.to_string().contains("store.flush.committed"));
    assert_restores_as_one_flush(scratch.path(), 43, "store.flush.committed");
    assert!(
        !PathBuf::from(format!("{}.marks", scratch.path().display())).exists(),
        "nothing writes a marks sidecar"
    );

    // `store.seal` has no error to propagate (sealing is in-memory and
    // infallible), so its error mode escalates to a panic — the
    // in-process stand-in for the abort a chaos run would use.
    arm("store.seal", 1, CrashMode::Error);
    let sealing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        insert_range(&store, 44..=64);
    }));
    assert!(sealing.is_err(), "an armed store.seal must fire while sealing");

    disarm_all();
}
