//! A1: the §5.2 remediation ablation — batching and path caching.
//!
//! "To alleviate this problem we plan to process events in batches,
//! rather than independently, and temporarily cache path mappings to
//! minimize the number of invocations."
//!
//! Grid: batch size ∈ {1, 64, 256} × cache ∈ {off, 4096 entries}, on the
//! Iota profile at its maximum generation rate. The claim to verify:
//! with the remediations the monitor's throughput meets the generation
//! rate (shortfall → 0) instead of trailing it by ~15%.

use sdci_bench::print_table;
use sdci_core::model::{PipelineModel, PipelineParams, PipelineReport};
use sdci_types::SimDuration;
use sdci_workloads::TestbedProfile;

/// One modelled run per grid cell, in table order.
fn grid() -> Vec<(usize, usize, PipelineReport)> {
    let profile = TestbedProfile::iota();
    let mut cells = Vec::new();
    for cache in [0usize, 4096] {
        for batch in [1usize, 64, 256] {
            let report = PipelineModel::new(PipelineParams {
                mdt_count: 1,
                generation_rate: profile.paper_generation_rate,
                duration: SimDuration::from_secs(30),
                costs: profile.stage_costs,
                cache_capacity: cache,
                batch_size: batch,
                directory_pool: 16,
                poisson: false,
                arrivals: None,
                seed: 42,
            })
            .run();
            cells.push((cache, batch, report));
        }
    }
    cells
}

fn main() {
    println!("== A1: batching + path-cache ablation (Iota, 9,593 events/s offered) ==\n");
    let mut rows = Vec::new();
    let mut best_remediated = 0.0f64;
    let mut baseline = 0.0f64;

    for (cache, batch, report) in grid() {
        let rate = report.report_rate.per_sec();
        if cache == 0 && batch == 1 {
            baseline = rate;
        }
        if cache > 0 && batch > 1 {
            best_remediated = best_remediated.max(rate);
        }
        rows.push(vec![
            if cache == 0 { "off".into() } else { format!("{cache} entries") },
            batch.to_string(),
            format!("{rate:.0}"),
            format!("{:.2}%", report.shortfall_pct),
            format!("{}", report.fid2path_calls),
            format!(
                "{:.1}%",
                if report.generated > 0 {
                    report.cache_hits as f64 / report.generated as f64 * 100.0
                } else {
                    0.0
                }
            ),
        ]);
    }
    print_table(
        &["cache", "batch", "reported/s", "shortfall", "fid2path calls", "hit rate"],
        &rows,
    );

    println!("\nbaseline (paper's measured config): {baseline:.0} events/s (paper: 8,162)");
    println!(
        "best remediated: {best_remediated:.0} events/s — {}the 9,593 events/s generation rate",
        if best_remediated >= 9_593.0 * 0.999 { "meets " } else { "below " }
    );
    assert!(best_remediated > baseline * 1.1, "remediations must materially raise throughput");
}

#[cfg(test)]
mod tests {
    /// The model drives the Collector's own `PathCache`, so its counts
    /// are pinned: a cache that hits, misses or evicts differently
    /// moves the `fid2path calls` and `hit rate` columns.
    #[test]
    fn cache_columns_are_pinned() {
        let counts: Vec<(u64, u64)> =
            super::grid().iter().map(|(_, _, r)| (r.fid2path_calls, r.cache_hits)).collect();
        let off = (287_791, 0);
        let on = (16, 287_775);
        assert_eq!(counts, [off, off, off, on, on, on]);
    }
}
