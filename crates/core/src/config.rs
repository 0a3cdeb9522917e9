//! Monitor configuration.

/// Tunables for the monitor pipeline (shared by live and modelled modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Maximum ChangeLog records a Collector extracts per read. The paper
    /// proposes processing "events in batches, rather than independently"
    /// as a remediation for the fid2path bottleneck.
    pub batch_size: usize,
    /// Capacity of the parent-FID → path cache (0 disables caching; the
    /// paper's baseline configuration resolves every event independently).
    pub path_cache_capacity: usize,
    /// High-water mark of each consumer of a
    /// [`MonitorCluster`](crate::MonitorCluster)'s in-process feed broker,
    /// in messages. Events shed here are recoverable from the store. A
    /// deployed Aggregator's remote legs are sized by `sdci-net`'s
    /// `NetConfig::hwm` instead.
    pub feed_hwm: usize,
    /// Maximum events retained in the Aggregator's local store before
    /// rotation ("in a production setting we could further limit the size
    /// of this local store", §5.2).
    pub store_capacity: usize,
    /// How many processed records a Collector acknowledges before asking
    /// the ChangeLog to purge.
    pub purge_every: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            batch_size: 256,
            path_cache_capacity: 4096,
            feed_hwm: 65_536,
            store_capacity: 1_000_000,
            purge_every: 1024,
        }
    }
}

impl MonitorConfig {
    /// The paper's measured configuration: no caching, per-event
    /// resolution (§5.2 reports the resulting bottleneck).
    pub fn paper_baseline() -> Self {
        MonitorConfig { path_cache_capacity: 0, batch_size: 1, ..MonitorConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_remediations() {
        let c = MonitorConfig::default();
        assert!(c.path_cache_capacity > 0);
        assert!(c.batch_size > 1);
    }

    #[test]
    fn paper_baseline_disables_remediations() {
        let c = MonitorConfig::paper_baseline();
        assert_eq!(c.path_cache_capacity, 0);
        assert_eq!(c.batch_size, 1);
    }
}
