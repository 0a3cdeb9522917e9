//! Criterion micro-benchmarks for the segmented event store: ingest
//! (append + seal + rotate), the gap-recovery query shapes on a large
//! retained window, and the two snapshot forms (incremental directory
//! flush vs legacy full rewrite).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdci_core::{EventStore, SequencedEvent, SnapshotDir, StoreQuery};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::hint::black_box;

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new((seq % 4) as u32),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/r{}/f{seq}.dat", seq / 8_192).into(),
            src_path: None,
            target: Fid::new(0x100, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

/// A 100k-event store with rotation warmed up (a long-running window).
fn warm_store(window: u64) -> (EventStore, u64) {
    let store = EventStore::new(window as usize);
    let total = window + window / 10;
    for seq in 1..=total {
        store.insert(sev(seq)).unwrap();
    }
    (store, total)
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_ingest");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert_seal_rotate", |b| {
        // Small capacity so the steady state exercises sealing AND
        // whole-segment rotation, not just head appends.
        let store = EventStore::new(10_000);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            store.insert(sev(black_box(seq))).unwrap();
        });
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_query_100k");
    let (store, total) = warm_store(100_000);
    group.bench_function("tail_by_seq", |b| {
        let q = StoreQuery::after_seq(total - 1_000);
        b.iter(|| black_box(store.query(&q).len()));
    });
    group.bench_function("tail_by_time", |b| {
        let q = StoreQuery::since(SimTime::from_secs(total - 1_000 + 1));
        b.iter(|| black_box(store.query(&q).len()));
    });
    group.bench_function("one_root_prefix", |b| {
        let q = StoreQuery::default().under(format!("/r{}", (total - 50_000) / 8_192));
        b.iter(|| black_box(store.query(&q).len()));
    });
    group.bench_function("recent_100", |b| {
        b.iter(|| black_box(store.recent(100).len()));
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_snapshot_100k");
    group.sample_size(10);
    let (store, _) = warm_store(100_000);

    group.bench_function("incremental_flush_steady_state", |b| {
        let path = std::env::temp_dir().join(format!("sdci-bench-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let dir = SnapshotDir::open(&path).expect("snapshot dir");
        dir.flush(&store).expect("priming flush");
        // Steady state: sealed chain unchanged, so each flush rewrites
        // only the manifest and the head.
        b.iter(|| black_box(dir.flush(&store).expect("flush")));
        let _ = std::fs::remove_dir_all(&path);
    });

    group.bench_function("legacy_full_rewrite", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            store.snapshot_to(&mut buf).expect("snapshot");
            black_box(buf.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_query, bench_snapshot);
criterion_main!(benches);
