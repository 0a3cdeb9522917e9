//! Criterion micro-benchmarks for the hot paths of the monitor stack:
//! ChangeLog append/read/purge, path resolution (cold fid2path vs path
//! cache), rule matching, pub-sub fan-out, SQS round-trips, and the full
//! DES pipeline model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lustre_sim::{Changelog, LustreConfig, LustreFs};
use ripple::{glob_match, Trigger};
use sdci_core::model::{PipelineModel, PipelineParams};
use sdci_core::PathCache;
use sdci_mq::pubsub::Broker;
use sdci_mq::{SqsConfig, SqsQueue};
use sdci_types::{
    AgentId, ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, RawChangelogRecord, SimDuration,
    SimTime,
};
use std::hint::black_box;

fn record(i: u64) -> RawChangelogRecord {
    RawChangelogRecord {
        index: 0,
        kind: ChangelogKind::Create,
        time: SimTime::from_nanos(i),
        flags: 0,
        target: Fid::new(0x200000400, i as u32, 0),
        parent: Fid::ROOT,
        name: format!("file-{i}.dat"),
    }
}

fn file_event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(i),
        path: format!("/data/run{}/file{i}.h5", i % 32).into(),
        src_path: None,
        target: Fid::new(0x100, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

fn bench_changelog(c: &mut Criterion) {
    let mut group = c.benchmark_group("changelog");
    group.throughput(Throughput::Elements(1));
    group.bench_function("append", |b| {
        let mut log = Changelog::new(0);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(log.append(record(i)));
        });
    });
    group.bench_function("read_batch_256", |b| {
        let mut log = Changelog::new(0);
        for i in 0..100_000 {
            log.append(record(i));
        }
        let mut after = 0u64;
        b.iter(|| {
            let batch = log.read_from(after, 256);
            after = batch.last().map_or(0, |r| r.index) % 99_000;
            black_box(batch.len());
        });
    });
    group.bench_function("append_ack_purge_cycle", |b| {
        let mut log = Changelog::new(0);
        let user = log.register_user();
        b.iter(|| {
            let idx = log.append(record(1));
            log.ack(user, idx).unwrap();
            black_box(log.purge());
        });
    });
    group.finish();
}

fn bench_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolution");
    group.throughput(Throughput::Elements(1));

    // Cold fid2path on trees of increasing depth.
    for depth in [2usize, 8, 32] {
        let mut lfs = LustreFs::new(LustreConfig::aws_testbed());
        let dir = format!("/{}", (0..depth).map(|i| format!("d{i}")).collect::<Vec<_>>().join("/"));
        lfs.mkdir_all(&dir, SimTime::EPOCH).unwrap();
        let fid = lfs.create(format!("{dir}/leaf"), SimTime::EPOCH).unwrap();
        group.bench_with_input(BenchmarkId::new("fid2path_depth", depth), &depth, |b, _| {
            b.iter(|| black_box(lfs.fid2path(fid).unwrap()));
        });
    }

    group.bench_function("path_cache_hit", |b| {
        let mut cache = PathCache::new(4096);
        let fid = Fid::new(1, 2, 0);
        cache.insert(fid, "/some/cached/dir");
        b.iter(|| black_box(cache.get(fid)).is_some());
    });
    group.bench_function("path_cache_miss_insert_evict", |b| {
        let mut cache = PathCache::new(256);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let fid = Fid::new(1, i, 0);
            if cache.get(fid).is_none() {
                cache.insert(fid, format!("/dir/{i}"));
            }
        });
    });
    group.finish();
}

fn bench_rule_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("rules");
    group.throughput(Throughput::Elements(1));
    let agent = AgentId::new("hpc");
    let trigger = Trigger::on(agent.clone())
        .under("/data")
        .kinds([EventKind::Created, EventKind::Modified])
        .glob("run-*-v?.h5");
    let hit = FileEvent { path: "/data/run-0042-v3.h5".into(), ..file_event(1) };
    let miss = FileEvent { path: "/other/run-0042-v3.h5".into(), ..file_event(2) };
    group.bench_function("trigger_match_hit", |b| {
        b.iter(|| black_box(trigger.matches(&agent, &hit)));
    });
    group.bench_function("trigger_match_miss", |b| {
        b.iter(|| black_box(trigger.matches(&agent, &miss)));
    });
    group.bench_function("glob_backtracking", |b| {
        b.iter(|| black_box(glob_match("*a*b*c*d*", "xxaxxbxxcxxdxx")));
    });
    group.finish();
}

fn bench_pubsub(c: &mut Criterion) {
    let mut group = c.benchmark_group("pubsub");
    for subs in [1usize, 4, 16] {
        group.throughput(Throughput::Elements(subs as u64));
        group.bench_with_input(BenchmarkId::new("fan_out", subs), &subs, |b, &subs| {
            let broker: Broker<FileEvent> = Broker::new(1 << 20);
            let sinks: Vec<_> = (0..subs).map(|_| broker.subscribe(&["events/"])).collect();
            let publisher = broker.publisher();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                publisher.publish("events/mdt0", file_event(i));
                for s in &sinks {
                    black_box(s.try_recv());
                }
            });
        });
    }
    group.finish();
}

fn bench_sqs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sqs");
    group.throughput(Throughput::Elements(1));
    group.bench_function("send_receive_delete", |b| {
        let q: SqsQueue<FileEvent> = SqsQueue::new(SqsConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.send(file_event(i));
            let (receipt, body) = q.receive().unwrap();
            black_box(body);
            q.delete(receipt);
        });
    });
    group.finish();
}

fn bench_pipeline_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_model");
    group.sample_size(10);
    group.bench_function("iota_10s_window", |b| {
        b.iter(|| {
            let report = PipelineModel::new(PipelineParams {
                mdt_count: 1,
                generation_rate: 9_593.0,
                duration: SimDuration::from_secs(10),
                cache_capacity: 0,
                batch_size: 1,
                directory_pool: 16,
                poisson: false,
                arrivals: None,
                seed: 42,
                ..PipelineParams::default()
            })
            .run();
            black_box(report.reported_total);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_changelog,
    bench_resolution,
    bench_rule_matching,
    bench_pubsub,
    bench_sqs,
    bench_pipeline_model
);
criterion_main!(benches);
