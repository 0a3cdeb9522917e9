//! An Aggregator whose source has closed costs no more CPU than one
//! whose source is open and idle. Alone in its test binary so nothing
//! else burns CPU while it measures.

use sdci_core::{Aggregator, EventStore, INGEST_QUEUE_FRAMES};
use sdci_mq::pipe::pipeline;
use sdci_mq::pubsub::Broker;
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CPU time this process has used, user and system, in milliseconds.
fn cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name is parenthesised and may hold spaces; after it,
    // state is field 3, utime field 14 and stime field 15, in ticks of
    // USER_HZ (100 a second).
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..].split(' ').collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) * 10
}

#[test]
fn a_closed_source_does_not_spin_the_ingest_thread() {
    let (events, frames) = pipeline::<Vec<FileEvent>>(INGEST_QUEUE_FRAMES);
    let agg = Aggregator::start(frames, Arc::new(EventStore::new(10)), Broker::new(16).publisher());
    let event = FileEvent {
        index: 1,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_secs(1),
        path: "/f1".into(),
        src_path: None,
        target: Fid::new(1, 1, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    };
    // A frame queued before the close is still ingested.
    assert!(events.send(vec![event]));
    drop(events);
    let deadline = Instant::now() + Duration::from_secs(5);
    while agg.snapshot().stored < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(agg.snapshot().stored, 1);

    let before = cpu_ms();
    std::thread::sleep(Duration::from_millis(300));
    let used = cpu_ms() - before;
    assert!(used < 100, "the ingest thread spun on its closed source: {used} ms of CPU in 300 ms");
    agg.shutdown();
}
