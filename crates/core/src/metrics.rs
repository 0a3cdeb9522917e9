//! Monitor self-monitoring: periodic snapshots and derived rates.
//!
//! §2 contrasts the monitor with infrastructure-health tools (MonALISA,
//! Nagios): those "expose file system status, utilization, and
//! performance statistics" but not individual events. A production
//! monitor needs both — this module derives the *statistics* view from
//! the event pipeline's own counters, so operators can watch extraction
//! and publication rates, resolution failure counts, and cache
//! efficiency over time.

use crate::cluster::ClusterStats;
use crate::store::StoreStats;
use sdci_types::EventsPerSec;
use std::fmt;
use std::time::{Duration, Instant};

/// One timestamped snapshot of cluster counters.
#[derive(Debug, Clone)]
pub struct MetricsSample {
    /// Wall-clock offset from recorder creation.
    pub at: Duration,
    /// The cluster counters at that instant.
    pub stats: ClusterStats,
}

/// Rates derived between two samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRates {
    /// Records extracted from ChangeLogs per second.
    pub extract_rate: EventsPerSec,
    /// Events processed (path-resolved) per second.
    pub process_rate: EventsPerSec,
    /// Events published to consumers per second.
    pub publish_rate: EventsPerSec,
    /// Events inserted into the historic store per second.
    pub store_insert_rate: EventsPerSec,
    /// Resolution failures in the interval.
    pub resolution_failures: u64,
}

impl fmt::Display for IntervalRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "extract {}, process {}, publish {}, store {}, {} resolution failures",
            self.extract_rate,
            self.process_rate,
            self.publish_rate,
            self.store_insert_rate,
            self.resolution_failures
        )
    }
}

/// Default bound on retained samples: enough for ~17 minutes at a 1 s
/// cadence while keeping a long-running aggregator's memory flat.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 1024;

/// Collects [`MetricsSample`]s and derives interval rates.
///
/// Retention is bounded: once `capacity` samples are held, recording a
/// new one drops the oldest (ring-buffer semantics), so a long-running
/// aggregator's recorder does not grow without limit.
#[derive(Debug)]
pub struct MetricsRecorder {
    started: Instant,
    samples: std::collections::VecDeque<MetricsSample>,
    capacity: usize,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// An empty recorder anchored at the current instant, retaining at
    /// most [`DEFAULT_SAMPLE_CAPACITY`] samples.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SAMPLE_CAPACITY)
    }

    /// An empty recorder retaining at most `capacity` samples
    /// (minimum 2, so interval rates stay derivable).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        MetricsRecorder {
            started: Instant::now(),
            samples: std::collections::VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records a snapshot (call on whatever cadence the operator wants).
    /// At capacity, the oldest sample is dropped.
    pub fn record(&mut self, stats: ClusterStats) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(MetricsSample { at: self.started.elapsed(), stats });
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &MetricsSample> {
        self.samples.iter()
    }

    /// How many samples are currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Rates between consecutive samples `i-1` and `i`.
    ///
    /// Returns `None` when `i` is 0 or out of range, or when the two
    /// samples are coincident in time.
    pub fn rates_at(&self, i: usize) -> Option<IntervalRates> {
        if i == 0 || i >= self.samples.len() {
            return None;
        }
        let (prev, cur) = (&self.samples[i - 1], &self.samples[i]);
        let dt = cur.at.checked_sub(prev.at)?;
        if dt.is_zero() {
            return None;
        }
        let span = sdci_types::SimDuration::from_nanos(dt.as_nanos() as u64);
        let delta = |f: fn(&ClusterStats) -> u64| {
            EventsPerSec::from_count(f(&cur.stats).saturating_sub(f(&prev.stats)), span)
        };
        Some(IntervalRates {
            extract_rate: delta(ClusterStats::total_extracted),
            process_rate: delta(ClusterStats::total_processed),
            publish_rate: delta(|s| s.aggregator.published),
            store_insert_rate: delta(|s| s.store.inserted),
            resolution_failures: total_failures(&cur.stats)
                .saturating_sub(total_failures(&prev.stats)),
        })
    }

    /// Rates over the most recent interval, if two samples exist.
    pub fn latest_rates(&self) -> Option<IntervalRates> {
        self.rates_at(self.samples.len().saturating_sub(1))
    }

    /// The historic store's counters at the latest sample.
    pub fn latest_store_stats(&self) -> Option<StoreStats> {
        self.samples.back().map(|s| s.stats.store)
    }

    /// Aggregate cache hit rate at the latest sample, `[0, 1]`.
    ///
    /// The denominator is the total number of *resolutions attempted*:
    /// `cache_hits + fid2path_calls`. These two counters are disjoint by
    /// construction — `Collector::process` increments `fid2path_calls`
    /// **only on a cache miss** (it is the count of fallback `fid2path`
    /// RPCs, not of all lookups), and `cache_hits` only on a hit — so
    /// the sum does not double-count and the ratio is the true hit
    /// fraction. A resolution that misses the cache counts once, under
    /// `fid2path_calls`, whether or not the RPC then succeeds.
    pub fn cache_hit_rate(&self) -> f64 {
        let Some(sample) = self.samples.back() else {
            return 0.0;
        };
        let hits: u64 = sample.stats.collectors.iter().map(|c| c.cache_hits).sum();
        let calls: u64 = sample.stats.collectors.iter().map(|c| c.fid2path_calls).sum();
        if hits + calls == 0 {
            0.0
        } else {
            hits as f64 / (hits + calls) as f64
        }
    }
}

fn total_failures(stats: &ClusterStats) -> u64 {
    stats.collectors.iter().map(|c| c.resolution_failures).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::AggregatorSnapshot;
    use crate::collector::CollectorStats;
    use crate::store::StoreStats;

    fn stats(extracted: u64, processed: u64, published: u64) -> ClusterStats {
        ClusterStats {
            collectors: vec![CollectorStats {
                extracted,
                processed,
                published: processed,
                shed: 0,
                resolution_failures: extracted - processed,
                fid2path_calls: processed / 2,
                cache_hits: processed / 2,
                purged: 0,
                overrun: 0,
            }],
            aggregator: AggregatorSnapshot {
                received: published,
                stored: published,
                published,
                insert_errors: 0,
            },
            store: StoreStats { inserted: published, ..StoreStats::default() },
        }
    }

    #[test]
    fn rates_derive_from_deltas() {
        let mut recorder = MetricsRecorder::new();
        recorder.record(stats(0, 0, 0));
        std::thread::sleep(Duration::from_millis(20));
        recorder.record(stats(1000, 900, 900));
        let rates = recorder.latest_rates().expect("two samples");
        assert!(rates.extract_rate.per_sec() > rates.process_rate.per_sec());
        assert_eq!(rates.resolution_failures, 100);
        assert!(rates.publish_rate.per_sec() > 0.0);
        assert!(rates.store_insert_rate.per_sec() > 0.0);
        assert_eq!(recorder.latest_store_stats().unwrap().inserted, 900);
    }

    #[test]
    fn no_rates_with_fewer_than_two_samples() {
        let mut recorder = MetricsRecorder::new();
        assert!(recorder.latest_rates().is_none());
        recorder.record(stats(1, 1, 1));
        assert!(recorder.latest_rates().is_none());
        assert!(recorder.rates_at(5).is_none());
    }

    #[test]
    fn cache_hit_rate_from_latest() {
        let mut recorder = MetricsRecorder::new();
        assert_eq!(recorder.cache_hit_rate(), 0.0);
        recorder.record(stats(100, 100, 100));
        assert!((recorder.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn samples_are_bounded_by_a_ring_buffer() {
        let mut recorder = MetricsRecorder::with_capacity(4);
        for i in 0..10 {
            recorder.record(stats(i, i, i));
        }
        assert_eq!(recorder.len(), 4, "capacity caps retention");
        let extracted: Vec<u64> =
            recorder.samples().map(|s| s.stats.collectors[0].extracted).collect();
        assert_eq!(extracted, vec![6, 7, 8, 9], "oldest samples dropped first");
        // Rates still derive over the retained window.
        assert!(recorder.rates_at(1).is_some() || recorder.samples().count() < 2);
        // Default capacity is the documented 1024.
        let mut big = MetricsRecorder::new();
        for i in 0..(DEFAULT_SAMPLE_CAPACITY as u64 + 100) {
            big.record(stats(i, i, i));
        }
        assert_eq!(big.len(), DEFAULT_SAMPLE_CAPACITY);
    }

    #[test]
    fn cache_hit_rate_denominator_is_attempted_resolutions() {
        // Pin the semantics: `fid2path_calls` counts ONLY cache misses
        // (see `Collector::process`), so hits/(hits + fid2path_calls)
        // is hits over total attempts — 30 hits out of 40 lookups is
        // 0.75, not 30/(30+40) as it would be if the denominator
        // double-counted hits.
        let mut recorder = MetricsRecorder::new();
        let mut s = stats(100, 100, 100);
        s.collectors[0].cache_hits = 30;
        s.collectors[0].fid2path_calls = 10;
        recorder.record(s);
        assert!((recorder.cache_hit_rate() - 0.75).abs() < 1e-9);

        // All misses -> 0; all hits -> 1.
        let mut recorder = MetricsRecorder::new();
        let mut s = stats(10, 10, 10);
        s.collectors[0].cache_hits = 0;
        s.collectors[0].fid2path_calls = 10;
        recorder.record(s);
        assert_eq!(recorder.cache_hit_rate(), 0.0);
        let mut s = stats(10, 10, 10);
        s.collectors[0].cache_hits = 10;
        s.collectors[0].fid2path_calls = 0;
        recorder.record(s);
        assert_eq!(recorder.cache_hit_rate(), 1.0);
    }

    #[test]
    fn cache_hit_rate_matches_a_live_collector() {
        // End-to-end pin against the real Collector counters: 1 fid2path
        // call (the root, cold) + 20 sibling hits -> 20/21.
        use crate::config::MonitorConfig;
        use lustre_sim::{LustreConfig, LustreFs};
        use parking_lot::Mutex;
        use sdci_mq::pubsub::Broker;
        use sdci_types::{FileEvent, MdtIndex, SimTime};
        use std::sync::Arc;

        let fs = Arc::new(Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let broker: Broker<FileEvent> = Broker::new(65_536);
        let _sub = broker.subscribe(&["events/"]);
        let mut collector = crate::collector::Collector::new(
            Arc::clone(&fs),
            MdtIndex::new(0),
            broker.publisher(),
            MonitorConfig::default(),
        );
        {
            let mut guard = fs.lock();
            guard.mkdir("/d", SimTime::from_secs(0)).unwrap();
            for i in 0..20 {
                guard.create(format!("/d/f{i}"), SimTime::from_secs(1)).unwrap();
            }
        }
        while collector.run_once() > 0 {}
        let mut recorder = MetricsRecorder::new();
        recorder.record(ClusterStats {
            collectors: vec![collector.stats()],
            aggregator: AggregatorSnapshot::default(),
            store: StoreStats::default(),
        });
        assert!((recorder.cache_hit_rate() - 20.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_readable() {
        let mut recorder = MetricsRecorder::new();
        recorder.record(stats(0, 0, 0));
        std::thread::sleep(Duration::from_millis(5));
        recorder.record(stats(10, 10, 10));
        let s = recorder.latest_rates().unwrap().to_string();
        assert!(s.contains("events/s"));
        assert!(s.contains("resolution failures"));
    }
}
