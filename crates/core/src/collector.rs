//! The Collector: one per MDS (§4, step 1–2).
//!
//! A Collector extracts new records from its MDT's ChangeLog, resolves
//! FIDs into absolute paths (consulting the [`PathCache`] before falling
//! back to `fid2path`), refactors the raw tuples into [`FileEvent`]s, and
//! publishes them toward the Aggregator. It also acknowledges consumed
//! records and periodically purges the ChangeLog.

use crate::config::MonitorConfig;
use crate::pathcache::PathCache;
use crate::store::is_plain;
use lustre_sim::{ChangelogUser, LustreFs};
use parking_lot::Mutex;
use sdci_mq::pipe::Push;
use sdci_mq::transport::Publish;
use sdci_types::{
    ChangelogKind, EventPath, FileEvent, MdtIndex, PathArenaBuilder, PathStaging,
    RawChangelogRecord, TraceContext,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counters for one [`Collector`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CollectorStats {
    /// Records extracted from the ChangeLog.
    pub extracted: u64,
    /// Records successfully processed into events.
    pub processed: u64,
    /// Events accepted by at least one downstream queue (or with nobody
    /// subscribed yet). This is what `published` always claimed to be;
    /// it no longer counts events every subscriber shed at its HWM.
    pub published: u64,
    /// Events that matched subscribers but were shed by *all* of them at
    /// their high-water marks — published in the ZeroMQ sense, delivered
    /// to no one. Consumers recover these from the store by seq gap.
    pub shed: u64,
    /// Records whose path could not be resolved (object and parent both
    /// gone by processing time); these are dropped and counted.
    pub resolution_failures: u64,
    /// `fid2path` invocations (cache misses).
    pub fid2path_calls: u64,
    /// Resolutions answered by the path cache.
    pub cache_hits: u64,
    /// ChangeLog records purged after acknowledgement.
    pub purged: u64,
    /// Records the ChangeLog dropped at its capacity bound before this
    /// Collector read them: lost before extraction, so counted here and
    /// nowhere downstream.
    pub overrun: u64,
}

/// A durable checkpoint of a Collector's consumption state.
///
/// The ChangeLog user registration and the last *acknowledged* index
/// survive a Collector crash (they live in the MDT); a restarted
/// Collector resumes from them. Records extracted but not yet
/// acknowledged are re-read — delivery toward the Aggregator is
/// at-least-once across crashes, never lossy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorCheckpoint {
    /// The MDT this checkpoint belongs to.
    pub mdt: MdtIndex,
    /// The ChangeLog user registration to reuse.
    pub user: ChangelogUser,
    /// The highest index acknowledged before the crash.
    pub last_acked: u64,
}

/// A Collector bound to one MDT of a shared [`LustreFs`].
///
/// The Collector hands each batch, whole, to any [`Publish`]
/// implementation: the in-process frame queue's [`Push`] (the default;
/// one frame per batch, blocking when full) or `sdci-net`'s TCP
/// endpoints when the monitor runs distributed.
pub struct Collector<P = Push<Vec<FileEvent>>> {
    mdt: MdtIndex,
    fs: Arc<Mutex<LustreFs>>,
    user: ChangelogUser,
    last_seen: u64,
    last_acked: u64,
    unacked: usize,
    cache: PathCache,
    publisher: P,
    /// The one topic this Collector publishes on.
    topic: String,
    /// The batch being resolved: filled under the filesystem lock,
    /// handed to the publisher whole, with one `publish_batch`, once it
    /// is released. Kept between batches for its capacity.
    resolved: Vec<FileEvent>,
    /// Where each batch's paths are joined before they are sealed, with
    /// an exact-size copy, into the next slot of the open arena group.
    /// Kept between batches for its capacity and its group.
    staging: PathStaging,
    /// Where every cache miss has `fid2path` write its parent's path, as
    /// the real ioctl writes into its caller's buffer; the cache copies
    /// it from here. Kept between batches for its capacity.
    parent_path: PathBuf,
    config: MonitorConfig,
    stats: CollectorStats,
}

impl<P> fmt::Debug for Collector<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("mdt", &self.mdt)
            .field("last_seen", &self.last_seen)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<P: Publish<FileEvent>> Collector<P> {
    /// Creates a Collector for `mdt`, registering it as a ChangeLog user.
    pub fn new(
        fs: Arc<Mutex<LustreFs>>,
        mdt: MdtIndex,
        publisher: P,
        config: MonitorConfig,
    ) -> Self {
        let (user, last_seen) = {
            let mut guard = fs.lock();
            let log = guard.changelog_mut(mdt);
            (log.register_user(), log.last_index())
        };
        Self::starting_at(fs, mdt, user, last_seen, publisher, config)
    }

    /// Resumes a crashed Collector from a [`CollectorCheckpoint`],
    /// reusing its ChangeLog user registration. Records after the
    /// checkpoint's acknowledged index are (re-)read — at-least-once
    /// delivery.
    pub fn resume(
        fs: Arc<Mutex<LustreFs>>,
        checkpoint: CollectorCheckpoint,
        publisher: P,
        config: MonitorConfig,
    ) -> Self {
        let CollectorCheckpoint { mdt, user, last_acked } = checkpoint;
        Self::starting_at(fs, mdt, user, last_acked, publisher, config)
    }

    fn starting_at(
        fs: Arc<Mutex<LustreFs>>,
        mdt: MdtIndex,
        user: ChangelogUser,
        last_seen: u64,
        publisher: P,
        config: MonitorConfig,
    ) -> Self {
        Collector {
            mdt,
            fs,
            user,
            last_seen,
            last_acked: last_seen,
            unacked: 0,
            cache: PathCache::new(config.path_cache_capacity),
            publisher,
            topic: format!("events/mdt{}", mdt.as_u32()),
            resolved: Vec::new(),
            staging: PathStaging::default(),
            parent_path: PathBuf::new(),
            config,
            stats: CollectorStats::default(),
        }
    }

    /// The durable consumption state to resume from after a crash.
    pub fn checkpoint(&self) -> CollectorCheckpoint {
        CollectorCheckpoint { mdt: self.mdt, user: self.user, last_acked: self.last_acked }
    }

    /// The MDT this Collector monitors.
    pub fn mdt(&self) -> MdtIndex {
        self.mdt
    }

    /// Extracts, processes, and publishes one batch. Returns how many
    /// records were handled (0 = the ChangeLog had nothing new).
    ///
    /// The filesystem lock is taken once: the batch is read by
    /// reference and every record resolved under that one hold, into
    /// `resolved`; publishing starts only after the lock is released.
    /// The batch's paths are joined into one arena, sealed before the
    /// first event is published.
    pub fn run_once(&mut self) -> usize {
        let fs = Arc::clone(&self.fs);
        let guard = fs.lock();
        let batch = guard.changelog(self.mdt).iter_from(self.last_seen, self.config.batch_size);
        let read = batch.len();
        if read == 0 {
            return 0;
        }
        // Wall-clock extraction stamp: travels inside each event so the
        // aggregator/consumer processes can measure e2e latency.
        let extracted_ns = sdci_obs::unix_now_ns();
        self.stats.extracted += read as u64;
        sdci_obs::static_metric!(counter, "sdci_collector_extracted_total").add(read as u64);
        let mut paths = PathArenaBuilder::with_staging(std::mem::take(&mut self.staging));
        for record in batch {
            // Indices are dense, so a jump is records the bounded
            // ChangeLog dropped while this Collector was behind.
            let gap = record.index - self.last_seen - 1;
            if gap > 0 {
                self.stats.overrun += gap;
                sdci_obs::static_metric!(counter, "sdci_collector_changelog_overrun_total")
                    .add(gap);
                sdci_obs::warn!(
                    "ChangeLog overran this collector; records lost before extraction";
                    mdt = self.mdt.as_u32(), lost = gap, resumed_at = record.index
                );
            }
            self.last_seen = record.index;
            // Every extraction is a trace root: head sampling decides
            // which events carry context downstream, and unsampled
            // roots still feed the slow-trace tail capture.
            let mut extract_span = sdci_obs::trace::root("collector.extract");
            let resolve_timer =
                sdci_obs::static_metric!(histogram, "sdci_collector_resolve_latency_seconds")
                    .start_timer();
            let path = self.resolve(&guard, record, &mut paths);
            resolve_timer.observe();
            let Some(path) = path else {
                self.stats.resolution_failures += 1;
                sdci_obs::static_metric!(counter, "sdci_collector_resolution_failures_total").inc();
                continue;
            };
            extract_span.set_detail(|| paths.get(&path).to_string());
            // Refactor the raw tuple "to include the user-friendly
            // paths in place of the FIDs" (§4 step 2).
            let mut event =
                FileEvent::from_record(record, self.mdt, path).with_extracted_unix_ns(extracted_ns);
            if let Some(sc) = extract_span.context() {
                event = event.with_trace(TraceContext::sampled(sc.trace_id, sc.span_id));
            }
            self.resolved.push(event);
        }
        // Publishing may block on a socket: never under the MDT's lock.
        drop(guard);
        // Sealed: from here the events' paths can be read.
        self.staging = paths.seal();
        // `collector.extract` closed with each record's resolution; this
        // per-batch root is what times the publish, so one that blocks
        // still reaches the slow-trace tail.
        let mut publish_span = sdci_obs::trace::root("collector.publish");
        publish_span.set_detail(|| format!("{} events", self.resolved.len()));
        let processed = self.resolved.len() as u64;
        self.stats.processed += processed;
        sdci_obs::static_metric!(counter, "sdci_collector_processed_total").add(processed);
        let shed = self.publisher.publish_batch(&self.topic, &mut self.resolved) as u64;
        self.stats.shed += shed;
        sdci_obs::static_metric!(counter, "sdci_collector_shed_total").add(shed);
        self.stats.published += processed - shed;
        sdci_obs::static_metric!(counter, "sdci_collector_published_total").add(processed - shed);
        drop(publish_span);
        self.unacked += read;
        if self.unacked >= self.config.purge_every {
            self.ack_and_purge();
        }
        read
    }

    /// Resolves one raw record's absolute path, `fs` being the locked
    /// filesystem the record was read from.
    ///
    /// Resolution strategy: resolve the *parent* directory (cache, then
    /// `fid2path`) and join the recorded name — this works uniformly for
    /// creations, deletions (whose target FID is already gone), and both
    /// halves of a rename. The joined path is appended to `paths`, the
    /// batch's arena, so a cache hit allocates nothing; a miss resolves
    /// into `parent_path` and the cache copies it into a slot's buffer,
    /// so once both have grown to the longest path it allocates nothing
    /// either.
    fn resolve(
        &mut self,
        fs: &LustreFs,
        record: &RawChangelogRecord,
        paths: &mut PathArenaBuilder,
    ) -> Option<EventPath> {
        let path = match self.cache.get(record.parent) {
            Some(parent) => {
                self.stats.cache_hits += 1;
                sdci_obs::static_metric!(counter, "sdci_collector_cache_hits_total").inc();
                join(paths, parent, &record.name)
            }
            None => {
                self.stats.fid2path_calls += 1;
                sdci_obs::static_metric!(counter, "sdci_collector_fid2path_calls_total").inc();
                fs.fid2path_into(record.parent, &mut self.parent_path).ok()?;
                let parent = &self.parent_path;
                // The cache stores paths spelled as their components and
                // hits are joined onto that spelling; `fid2path` already
                // spells them so, so a miss publishes the same bytes.
                debug_assert!(is_plain(parent.as_os_str().as_encoded_bytes()), "{parent:?}");
                let path = join(paths, parent, &record.name);
                self.cache.insert(record.parent, parent);
                path
            }
        };

        // Keep the cache coherent with namespace changes.
        match record.kind {
            ChangelogKind::Mkdir => {
                self.cache.insert(record.target, paths.get(&path));
            }
            ChangelogKind::Rename | ChangelogKind::RenameTarget => {
                // A renamed directory invalidates every cached descendant.
                self.cache.invalidate(record.target);
                self.cache.invalidate_prefix(Path::new(paths.get(&path)));
            }
            ChangelogKind::Unlink | ChangelogKind::Rmdir => {
                self.cache.invalidate(record.target);
            }
            _ => {}
        }
        Some(path)
    }

    /// Acknowledges processed records and purges the ChangeLog of
    /// everything all users have consumed.
    pub fn ack_and_purge(&mut self) {
        let mut guard = self.fs.lock();
        let log = guard.changelog_mut(self.mdt);
        if log.ack(self.user, self.last_seen).is_ok() {
            self.last_acked = self.last_seen;
            self.stats.purged += log.purge();
        }
        self.unacked = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }
}

/// `parent.join(name)`, appended to the batch's arena (lossily, should
/// `parent` not be UTF-8).
fn join(paths: &mut PathArenaBuilder, parent: &Path, name: &str) -> EventPath {
    let parent = parent.to_string_lossy();
    // As `PathBuf::push`: no second separator after the root's own.
    let separator = if parent.is_empty() || parent.ends_with('/') { "" } else { "/" };
    paths.push_parts(&[&parent, separator, name])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lustre_sim::LustreConfig;
    use sdci_mq::pubsub::{Broker, Publisher};
    use sdci_types::{EventKind, SimTime};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn setup(
        config: MonitorConfig,
    ) -> (
        Arc<Mutex<LustreFs>>,
        Collector<Publisher<FileEvent>>,
        sdci_mq::pubsub::Subscriber<FileEvent>,
    ) {
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let broker: Broker<FileEvent> = Broker::new(65_536);
        let sub = broker.subscribe(&["events/"]);
        let collector =
            Collector::new(Arc::clone(&fs), MdtIndex::new(0), broker.publisher(), config);
        (fs, collector, sub)
    }

    #[test]
    fn collects_and_publishes_events() {
        let (fs, mut collector, sub) = setup(MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/d", t(0)).unwrap();
            guard.create("/d/f1", t(1)).unwrap();
            guard.create("/d/f2", t(2)).unwrap();
        }
        assert_eq!(collector.run_once(), 3);
        let paths: Vec<String> =
            (0..3).map(|_| sub.try_recv().unwrap().payload.path.display().to_string()).collect();
        assert_eq!(paths, vec!["/d", "/d/f1", "/d/f2"]);
        assert_eq!(collector.stats().processed, 3);
        assert_eq!(collector.stats().resolution_failures, 0);
    }

    #[test]
    fn cache_turns_siblings_into_hits() {
        let (fs, mut collector, _sub) = setup(MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/d", t(0)).unwrap();
            for i in 0..20 {
                guard.create(format!("/d/f{i}"), t(1)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let stats = collector.stats();
        // mkdir caches /d (by target fid); the 20 creates then hit.
        assert_eq!(stats.cache_hits, 20);
        // Only the root (parent of /d) needed fid2path.
        assert_eq!(stats.fid2path_calls, 1);
    }

    #[test]
    fn no_cache_resolves_every_event() {
        let (fs, mut collector, _sub) = setup(MonitorConfig::paper_baseline());
        {
            let mut guard = fs.lock();
            guard.mkdir("/d", t(0)).unwrap();
            for i in 0..20 {
                guard.create(format!("/d/f{i}"), t(1)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let stats = collector.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.fid2path_calls, 21);
    }

    #[test]
    fn deletions_resolve_via_parent() {
        let (fs, mut collector, sub) = setup(MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/dir", t(0)).unwrap();
            guard.create("/dir/gone", t(1)).unwrap();
            guard.unlink("/dir/gone", t(2)).unwrap();
        }
        while collector.run_once() > 0 {}
        let events: Vec<FileEvent> =
            std::iter::from_fn(|| sub.try_recv().map(|m| m.payload)).collect();
        assert_eq!(events.len(), 3);
        let deleted = &events[2];
        assert_eq!(deleted.kind, EventKind::Deleted);
        assert_eq!(deleted.path, PathBuf::from("/dir/gone"));
    }

    #[test]
    fn rename_invalidates_stale_subtree_paths() {
        let (fs, mut collector, sub) = setup(MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/old", t(0)).unwrap();
            guard.create("/old/f", t(1)).unwrap();
        }
        while collector.run_once() > 0 {}
        {
            let mut guard = fs.lock();
            guard.rename("/old", "/new", t(2)).unwrap();
            guard.create("/new/g", t(3)).unwrap();
        }
        while collector.run_once() > 0 {}
        let events: Vec<FileEvent> =
            std::iter::from_fn(|| sub.try_recv().map(|m| m.payload)).collect();
        let last = events.last().unwrap();
        assert_eq!(
            last.path,
            PathBuf::from("/new/g"),
            "stale cached /old must not leak into post-rename events"
        );
    }

    #[test]
    fn ack_and_purge_clears_changelog() {
        let config = MonitorConfig { purge_every: 5, ..MonitorConfig::default() };
        let (fs, mut collector, _sub) = setup(config);
        {
            let mut guard = fs.lock();
            for i in 0..10 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        collector.ack_and_purge();
        assert_eq!(collector.stats().purged, 10);
        assert!(fs.lock().changelog(MdtIndex::new(0)).is_empty());
    }

    #[test]
    fn resolution_failure_is_counted_not_fatal() {
        let (fs, mut collector, sub) = setup(MonitorConfig::default());
        {
            let mut guard = fs.lock();
            guard.mkdir("/doomed", t(0)).unwrap();
            guard.create("/doomed/f", t(1)).unwrap();
            guard.unlink("/doomed/f", t(2)).unwrap();
            guard.rmdir("/doomed", t(3)).unwrap();
        }
        // All four records are processed in one pass; by the time the
        // create is processed, /doomed is already gone (its FID no longer
        // resolves) — but the create's parent (root) still resolves, so
        // only events whose parent vanished fail. Construct that case:
        while collector.run_once() > 0 {}
        let events: Vec<FileEvent> =
            std::iter::from_fn(|| sub.try_recv().map(|m| m.payload)).collect();
        // mkdir + rmdir resolve via root; create/unlink under /doomed
        // resolve via the cached mkdir path. Everything resolves here.
        assert_eq!(events.len() as u64, collector.stats().processed);
        assert_eq!(
            collector.stats().extracted,
            collector.stats().processed + collector.stats().resolution_failures
        );
    }

    #[test]
    fn late_collector_with_purged_parent_counts_failure() {
        // Create and fully remove a subtree *before* the collector ever
        // runs, with caching disabled: the create/unlink records under
        // the vanished directory cannot resolve.
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let broker: Broker<FileEvent> = Broker::new(1024);
        let _sub = broker.subscribe(&["events/"]);
        {
            let mut guard = fs.lock();
            guard.mkdir("/gone", t(0)).unwrap();
            guard.create("/gone/f", t(1)).unwrap();
            guard.unlink("/gone/f", t(2)).unwrap();
            guard.rmdir("/gone", t(3)).unwrap();
        }
        let mut collector = Collector::new(
            Arc::clone(&fs),
            MdtIndex::new(0),
            broker.publisher(),
            MonitorConfig { path_cache_capacity: 0, ..MonitorConfig::default() },
        );
        // The user registered *after* the events: nothing to read.
        assert_eq!(collector.run_once(), 0);
    }

    #[test]
    fn changelog_overrun_is_counted_not_silent() {
        // A 4-record ChangeLog and a collector that first runs after 10
        // records: the oldest 6 were dropped at the bound before anyone
        // read them.
        let lustre = LustreConfig::builder("bounded").changelog_capacity(4).build();
        let fs = Arc::new(Mutex::new(LustreFs::new(lustre)));
        let broker: Broker<FileEvent> = Broker::new(1024);
        let sub = broker.subscribe(&["events/"]);
        let mut collector = Collector::new(
            Arc::clone(&fs),
            MdtIndex::new(0),
            broker.publisher(),
            MonitorConfig { batch_size: 3, ..MonitorConfig::default() },
        );
        let before = sdci_obs::registry().counter("sdci_collector_changelog_overrun_total").get();
        {
            let mut guard = fs.lock();
            for i in 0..10 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let stats = collector.stats();
        assert_eq!(stats.overrun, 6);
        assert_eq!(stats.extracted, 4);
        assert_eq!(fs.lock().changelog(MdtIndex::new(0)).stats().overflowed, stats.overrun);
        let first = sub.try_recv().unwrap().payload;
        assert_eq!(first.path, PathBuf::from("/f6"), "extraction resumes at the oldest survivor");
        let after = sdci_obs::registry().counter("sdci_collector_changelog_overrun_total").get();
        assert!(after - before >= 6, "the gap reaches /metrics too");

        // Keeping up afterwards adds nothing: only the gap was counted.
        fs.lock().create("/late", t(11)).unwrap();
        while collector.run_once() > 0 {}
        assert_eq!(collector.stats().overrun, 6);
        assert_eq!(collector.stats().extracted + collector.stats().overrun, 11);
    }

    #[test]
    fn crash_and_resume_loses_nothing() {
        // purge_every=4: after 10 records, 8 are acked, 2 are extracted
        // but unacked when the collector "crashes".
        let config = MonitorConfig { purge_every: 4, batch_size: 2, ..MonitorConfig::default() };
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let broker: Broker<FileEvent> = Broker::new(65_536);
        let sub = broker.subscribe(&["events/"]);
        let mut collector =
            Collector::new(Arc::clone(&fs), MdtIndex::new(0), broker.publisher(), config.clone());
        {
            let mut guard = fs.lock();
            for i in 0..10 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let checkpoint = collector.checkpoint();
        assert_eq!(checkpoint.last_acked, 8, "two records extracted but unacked");
        drop(collector); // crash: no final ack_and_purge

        // More events happen while the collector is down.
        {
            let mut guard = fs.lock();
            for i in 10..15 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }

        let mut resumed =
            Collector::resume(Arc::clone(&fs), checkpoint, broker.publisher(), config);
        while resumed.run_once() > 0 {}
        resumed.ack_and_purge();

        let paths: Vec<String> = std::iter::from_fn(|| sub.try_recv())
            .map(|m| m.payload.path.display().to_string())
            .collect();
        // 10 before the crash + re-delivered f8, f9 + 5 new = 17
        // deliveries; every file 0..15 appears at least once (no gaps).
        assert_eq!(paths.len(), 17);
        for i in 0..15 {
            assert!(
                paths.iter().any(|p| p == &format!("/f{i}")),
                "f{i} missing after crash/resume"
            );
        }
        assert!(fs.lock().changelog(MdtIndex::new(0)).is_empty());
    }

    #[test]
    fn sheds_are_not_counted_as_published() {
        // HWM 1 and a subscriber that never drains: the first event is
        // queued, every later one is shed by the only subscriber. The
        // old accounting claimed all of them "published".
        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let broker: Broker<FileEvent> = Broker::new(1);
        let _stuck = broker.subscribe(&["events/"]);
        let mut collector = Collector::new(
            Arc::clone(&fs),
            MdtIndex::new(0),
            broker.publisher(),
            MonitorConfig::default(),
        );
        {
            let mut guard = fs.lock();
            for i in 0..5 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let stats = collector.stats();
        assert_eq!(stats.processed, 5);
        assert_eq!(stats.published, 1, "only the queued event was delivered anywhere");
        assert_eq!(stats.shed, 4, "the rest were shed at the subscriber's HWM");
    }

    #[test]
    fn batch_size_bounds_each_pass() {
        let config = MonitorConfig { batch_size: 4, ..MonitorConfig::default() };
        let (fs, mut collector, _sub) = setup(config);
        {
            let mut guard = fs.lock();
            for i in 0..10 {
                guard.create(format!("/f{i}"), t(i)).unwrap();
            }
        }
        assert_eq!(collector.run_once(), 4);
        assert_eq!(collector.run_once(), 4);
        assert_eq!(collector.run_once(), 2);
        assert_eq!(collector.run_once(), 0);
    }
}
