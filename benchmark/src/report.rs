//! The metric tables and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists exactly the names in
//! [`END_TO_END`] and [`PER_LAYER`]; a unit test holds the two together.

use std::collections::HashMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("allocs_per_event", "count"),
    ("wire_bytes_per_event", "B"),
    ("net_bytes_per_event", "B"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.apply_us_per_event", "us"),
    ("gen.lateness_p99_ms", "ms"),
    ("host.steal_pct", "%"),
    ("calib.nominal_ms", "ms"),
    ("calib.counted_slices", "count"),
    ("calib.slowdown_p50", "ratio"),
    ("calib.fallback", "count"),
    ("setup.build_s", "s"),
    ("setup.spawn_connect_s", "s"),
    ("setup.warmup_s", "s"),
    ("setup.serial_prefill_s", "s"),
    ("lustre.changelog_read_us_per_event", "us"),
    ("lustre.fid2path_us", "us"),
    ("collector.run_once_us_per_event", "us"),
    ("collector.fid2path_per_event", "count"),
    ("collector.cache_hit_ratio", "ratio"),
    ("collector.resolution_failures", "count"),
    ("collector.shed", "count"),
    ("pathcache.get_us", "us"),
    ("pathcache.insert_us", "us"),
    ("pathcache.invalidate_prefix_us", "us"),
    ("net.wire.encode_item_us_per_event", "us"),
    ("net.wire.decode_item_us_per_event", "us"),
    ("net.wire.encode_deliver_us_per_event", "us"),
    ("net.wire.decode_deliver_us_per_event", "us"),
    ("net.wire.encode_store_batch_us_per_event", "us"),
    ("net.wire.decode_store_batch_us_per_event", "us"),
    ("net.wire.item_bytes_per_event", "B"),
    ("net.wire.deliver_bytes_per_event", "B"),
    ("net.wire.store_batch_bytes_per_event", "B"),
    ("net.pipe.send_us_per_event", "us"),
    ("net.pipe.unacked_p50", "count"),
    ("net.pipe.events_per_frame", "count"),
    ("net.pipe.reconnects", "count"),
    ("net.pipe.resends", "count"),
    ("net.pubsub.events_per_frame", "count"),
    ("net.pubsub.dropped", "count"),
    ("net.pubsub.fanout_shed", "count"),
    ("net.pubsub.reconnects", "count"),
    ("net.store_rpc.query_p50_ms", "ms"),
    ("net.store_rpc.query_p90_ms", "ms"),
    ("net.store_rpc.queries", "count"),
    ("net.store_rpc.failures", "count"),
    ("aggregator.cpu_us_per_event", "us"),
    ("aggregator.ctx_switches_per_event", "count"),
    ("aggregator.threads", "count"),
    ("aggregator.insert_lag_p50_ms", "ms"),
    ("aggregator.received", "count"),
    ("aggregator.published", "count"),
    ("agg_peak_rss_mb", "MiB"),
    ("store.insert_us_per_event", "us"),
    ("store.query_us_per_event", "us"),
    ("store.bytes_per_event", "B"),
    ("store.rotated_per_slice", "count"),
    ("consumer.next_us_per_event", "us"),
    ("consumer.recovered", "count"),
    ("consumer.lost", "count"),
    ("delivery_p50_ms", "ms"),
    ("pipeline.delivery_p90_ms", "ms"),
    ("pipeline.delivery_p99_ms", "ms"),
    ("pipeline.delivery_max_ms", "ms"),
    ("pipeline.delivery_samples", "count"),
    ("pipeline.delivered_events_per_s", "1/s"),
    ("pipeline.saturation_events_per_s", "1/s"),
    ("pipeline.saturation_spread_pct", "%"),
    ("chain_us_per_event", "us"),
    ("pipeline.chain_layers_sum_us_per_event", "us"),
    ("pipeline.alloc_bytes_per_event", "B"),
    ("pipeline.trace_overhead_pct", "%"),
];

/// Values by metric name, filled as the legs finish.
#[derive(Debug, Default)]
pub struct Values(HashMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics` (`correct` meaning nothing failed), the metrics being
/// every name in `table`.
///
/// # Panics
///
/// Panics when a metric in `table` was never set or is not finite: a
/// missing number is a bug in the benchmark, not a zero.
pub fn result_line(table: &[(&str, &str)], values: &Values, attempted: u64, failed: u64) -> String {
    let correct = failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit)) in table.iter().enumerate() {
        let value = values.get(name).unwrap_or_else(|| panic!("metric {name} was never set"));
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string `field` of every object under `"key": [ ... ]` of
    /// `BENCHMARK.json`, in file order — enough of a parser for a file this
    /// crate's authors also write.
    fn under(json: &str, key: &str, field: &str) -> Vec<String> {
        let section = &json[json.find(&format!("\"{key}\"")).expect("key present")..];
        let section = &section[..section.find(']').expect("array closes")];
        section
            .split('{')
            .skip(1)
            .map(|object| {
                let at = object.find(&format!("\"{field}\"")).expect("field present");
                object[at..].split('"').nth(3).expect("string value").to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_this_crate_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            let units: Vec<&str> = table.iter().map(|(_, unit)| *unit).collect();
            assert_eq!(under(&json, key, "name"), names, "{key}");
            assert_eq!(under(&json, key, "unit"), units, "{key}");
        }
        let ours: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(under(&json, "workloads", "name"), ours);
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut values = Values::default();
        values.set("a_ms", 1.25);
        values.set("b", 3.0);
        let line = result_line(&[("a_ms", "ms"), ("b", "count")], &values, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_a_bug() {
        result_line(&[("a_ms", "ms")], &Values::default(), 1, 0);
    }
}
