//! A combined soak test: sustained mixed workload through the full
//! stack — generator → Lustre → monitor → Ripple agent → actions — with
//! invariant checks at every seam.

use parking_lot::Mutex;
use sdci::lustre::{DnePolicy, LustreConfig, LustreFs};
use sdci::monitor::{MonitorClusterBuilder, MonitorConfig};
use sdci::ripple::{
    ActionKind, ActionSpec, AgentStorage, MonitorSource, RippleBuilder, Rule, Trigger,
};
use sdci::types::{AgentId, EventKind, MdtIndex, SimTime};
use sdci::workloads::{EventGenerator, OpMix};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn sustained_mixed_load_full_stack() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(
        LustreConfig::builder("soak")
            .mdt_count(4)
            .ost_count(8)
            .dne_policy(DnePolicy::HashByName)
            .build(),
    )));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs))
        .config(MonitorConfig { store_capacity: 200_000, ..MonitorConfig::default() })
        .start();

    // A Ripple agent consuming the site-wide feed, emailing on every
    // created `.dat` file anywhere.
    let mut ripple = RippleBuilder::new().workers(4).build();
    ripple.add_agent(
        AgentId::new("site"),
        AgentStorage::Lustre(Arc::clone(&lfs)),
        MonitorSource::new(cluster.subscribe()),
    );
    ripple.add_rule(
        Rule::when(
            Trigger::on(AgentId::new("site")).under("/gen").kinds([EventKind::Created]).glob("f8?"), // a narrow slice: files f80..f89 of each dir
        )
        .then(ActionSpec::email("soak@example.org")),
    );

    let mut processed = cluster.stats().total_processed();

    // Three waves of mixed workload, checking between waves.
    let mut generator =
        EventGenerator::new(Arc::clone(&lfs), 6, OpMix::full(), 2024).expect("generator");
    let mut tick = 0u64;
    for wave in 0..3 {
        let report = generator
            .run(1_500, || {
                tick += 1;
                SimTime::from_nanos(tick * 500)
            })
            .expect("workload");
        assert_eq!(report.total_ops(), 1_500, "wave {wave}");
        let total = lfs.lock().total_events();
        assert!(
            cluster.wait_for_published(total, Duration::from_secs(15)),
            "wave {wave}: monitor fell behind"
        );
        let now = cluster.stats().total_processed();
        assert!(now > processed, "wave {wave}: nothing processed");
        processed = now;
    }

    // End-to-end accounting.
    let total = lfs.lock().total_events();
    let stats = cluster.stats();
    assert_eq!(stats.total_processed(), total);
    assert_eq!(stats.aggregator.published, total);
    assert_eq!(
        stats.collectors.iter().map(|c| c.resolution_failures).sum::<u64>(),
        0,
        "prompt processing never fails to resolve"
    );
    let busy = stats.collectors.iter().filter(|c| c.processed > 0).count();
    assert!(busy >= 2, "hash-distributed dirs should keep several collectors busy ({busy})");
    assert!(stats.cache_hit_rate() > 0.5, "siblings should mostly hit the cache");

    // Ripple executed exactly one email per matching create.
    assert!(ripple.pump_until_idle(Duration::from_secs(20)));
    let emails =
        ripple.execution_log().successes_where(|r| matches!(r.kind, ActionKind::Email { .. }));
    let expected = lfs
        .lock()
        .fs()
        .walk()
        .iter()
        .filter(|(p, _)| {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            p.starts_with("/gen") && name.starts_with("f8") && name.len() == 3
        })
        .count();
    // Every matching created file got an email; deleted ones did too
    // (their create preceded the delete), so emails >= surviving count.
    assert!(emails.len() >= expected, "emails {} < surviving matches {expected}", emails.len());

    // OST accounting stays conservative: used bytes equal the sum of
    // live file sizes.
    {
        let fs = lfs.lock();
        let live_bytes: u64 = fs
            .fs()
            .walk()
            .iter()
            .filter(|(_, s)| s.file_type != sdci::simfs::FileType::Directory)
            .map(|(_, s)| s.size)
            .sum();
        assert_eq!(fs.ost_report().used.as_bytes(), live_bytes);
    }

    ripple.shutdown();
    cluster.shutdown();
    // All ChangeLogs fully purged on clean shutdown.
    let fs = lfs.lock();
    for m in 0..4 {
        assert!(fs.changelog(MdtIndex::new(m)).is_empty());
    }
}
