//! Cross-crate integration tests: the full monitor + Ripple fabric over
//! the simulated Lustre deployment.

use parking_lot::Mutex;
use sdci::lustre::{DnePolicy, LustreConfig, LustreFs};
use sdci::monitor::MonitorClusterBuilder;
use sdci::ripple::{
    ActionKind, ActionSpec, AgentStorage, MonitorSource, RippleBuilder, Rule, Trigger,
};
use sdci::types::{AgentId, EventKind, MdtIndex, SimTime};
use sdci::workloads::{EventGenerator, OpMix};
use std::sync::Arc;
use std::time::Duration;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

#[test]
fn monitor_delivers_complete_ordered_stream_under_mixed_load() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let mut feed = cluster.subscribe();

    let mut generator =
        EventGenerator::new(Arc::clone(&lfs), 8, OpMix::paper(), 99).expect("generator");
    let mut tick = 0u64;
    let report = generator
        .run(2_000, || {
            tick += 1;
            SimTime::from_nanos(tick * 1_000)
        })
        .expect("workload");
    assert_eq!(report.total_ops(), 2_000);
    // Plus the directories the generator created up front (/gen + 8).
    let total = lfs.lock().total_events();
    assert_eq!(total, report.events + 9);

    let mut received = 0u64;
    let mut last_seq = 0u64;
    while received < total {
        match feed.next_timeout(Duration::from_secs(10)) {
            Some(_event) => {
                received += 1;
                let seq = feed.next_seq() - 1;
                assert!(seq > last_seq, "sequence numbers strictly increase");
                last_seq = seq;
            }
            None => panic!("feed stalled at {received}/{total}"),
        }
    }
    assert_eq!(feed.stats().lost, 0);
    let stats = cluster.shutdown();
    assert_eq!(stats.total_processed(), total);
    assert_eq!(stats.aggregator.published, total);
}

#[test]
fn multi_mdt_monitor_sees_every_mdt_and_purges_all_changelogs() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(
        LustreConfig::builder("dne").mdt_count(4).dne_policy(DnePolicy::RoundRobinTopLevel).build(),
    )));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    {
        let mut fs = lfs.lock();
        for d in 0..12 {
            fs.mkdir(format!("/proj{d}"), t(0)).expect("mkdir");
            for f in 0..25 {
                fs.create(format!("/proj{d}/f{f}"), t(1)).expect("create");
            }
        }
    }
    let total = lfs.lock().total_events();
    assert_eq!(total, 12 + 12 * 25);
    assert!(cluster.wait_for_published(total, Duration::from_secs(10)));
    let stats = cluster.shutdown();
    for (i, c) in stats.collectors.iter().enumerate() {
        assert!(c.processed > 0, "collector {i} idle: {c:?}");
    }
    let fs = lfs.lock();
    for m in 0..4 {
        assert!(fs.changelog(MdtIndex::new(m)).is_empty(), "MDT{m} changelog purged on shutdown");
    }
}

#[test]
fn lustre_backed_ripple_agent_runs_site_wide_rules() {
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::iota_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let mut ripple = RippleBuilder::new().build();
    ripple.add_agent(
        AgentId::new("hpc"),
        AgentStorage::Lustre(Arc::clone(&lfs)),
        MonitorSource::new(cluster.subscribe()),
    );
    ripple.add_rule(
        Rule::when(
            Trigger::on(AgentId::new("hpc")).under("/").kinds([EventKind::Created]).glob("*.core"),
        )
        .then(ActionSpec::purge()),
    );
    {
        let mut fs = lfs.lock();
        fs.mkdir_all("/a/b/c", t(0)).expect("mkdir");
        fs.create("/a/b/c/app.core", t(1)).expect("create");
        fs.create("/a/b/c/app.out", t(1)).expect("create");
        fs.create("/crash.core", t(2)).expect("create");
    }
    assert!(ripple.pump_until_idle(Duration::from_secs(20)));
    {
        let fs = lfs.lock();
        assert!(!fs.fs().exists("/a/b/c/app.core"));
        assert!(!fs.fs().exists("/crash.core"));
        assert!(fs.fs().exists("/a/b/c/app.out"));
    }
    ripple.shutdown();
    cluster.shutdown();
}

#[test]
fn mixed_fleet_local_and_lustre_agents_interoperate() {
    // A laptop (inotify) and a Lustre system (ChangeLog monitor) in one
    // fabric: files on Lustre replicate down to the laptop.
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    let mut ripple = RippleBuilder::new().build();
    let laptop = ripple.add_local_agent("laptop");
    ripple.add_agent(
        AgentId::new("lustre"),
        AgentStorage::Lustre(Arc::clone(&lfs)),
        MonitorSource::new(cluster.subscribe()),
    );
    ripple.add_rule(
        Rule::when(
            Trigger::on(AgentId::new("lustre"))
                .under("/published")
                .kinds([EventKind::Created])
                .glob("*.pdf"),
        )
        .then(ActionSpec::transfer(AgentId::new("laptop"), "/papers")),
    );
    {
        let mut fs = lfs.lock();
        fs.mkdir("/published", t(0)).expect("mkdir");
        fs.create("/published/monitor.pdf", t(1)).expect("create");
        fs.write("/published/monitor.pdf", 123_456, t(1)).expect("write");
    }
    assert!(ripple.pump_until_idle(Duration::from_secs(20)));
    let fs = laptop.fs();
    let stat = fs.lock().stat("/papers/monitor.pdf").expect("replicated file");
    assert_eq!(stat.size, 123_456);
    ripple.shutdown();
    cluster.shutdown();
}

#[test]
fn monitor_feed_and_robinhood_scanner_coexist_as_changelog_users() {
    // Both the paper's monitor and a Robinhood-style scanner register as
    // ChangeLog users; purging respects the slower of the two.
    let lfs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
    let mut scanner = sdci::baselines::RobinhoodScanner::new(Arc::clone(&lfs), 64);
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
    {
        let mut fs = lfs.lock();
        fs.mkdir("/shared", t(0)).expect("mkdir");
        for i in 0..50 {
            fs.create(format!("/shared/f{i}"), t(i)).expect("create");
        }
    }
    assert!(cluster.wait_for_published(51, Duration::from_secs(10)));
    // The monitor acked everything, but the scanner hasn't run: records
    // must still be available to it.
    let applied = scanner.scan_once();
    assert_eq!(applied, 51, "slow consumer still sees all records");
    assert_eq!(scanner.db().len(), 51);
    cluster.shutdown();
}

#[test]
fn ripple_survives_transient_failures_and_executes_exactly_once_per_event() {
    let mut ripple = RippleBuilder::new().report_fail_prob(0.3).seed(123).build();
    let agent = ripple.add_local_agent("node");
    ripple.add_rule(
        Rule::when(
            Trigger::on(AgentId::new("node")).under("/w").kinds([EventKind::Created]).glob("*.dat"),
        )
        .then(ActionSpec::email("ops@example.org")),
    );
    {
        let fs = agent.fs();
        let mut guard = fs.lock();
        guard.mkdir("/w", t(0)).expect("mkdir");
        for i in 0..40 {
            guard.create(format!("/w/f{i}.dat"), t(i)).expect("create");
        }
    }
    assert!(ripple.pump_until_idle(Duration::from_secs(30)));
    let emails =
        ripple.execution_log().successes_where(|r| matches!(r.kind, ActionKind::Email { .. }));
    assert_eq!(emails.len(), 40, "each event fires exactly one action");
    assert!(ripple.cloud_stats().rejected > 0, "failures were actually injected");
    ripple.shutdown();
}
