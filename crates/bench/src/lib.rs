//! Shared helpers for the experiment-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper (see `DESIGN.md` for the index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured results):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1_changelog` | Table 1 (ChangeLog record format) |
//! | `table2_testbeds` | Table 2 (testbed performance characteristics) |
//! | `r1_throughput` | §5.2 event throughput (AWS + Iota) |
//! | `table3_overhead` | Table 3 (monitor resource utilization) |
//! | `fig3_nersc` | Figure 3 (NERSC daily created/modified series) |
//! | `r2_scaling` | §5.3 scaling analysis (42 / 127 / 3,178 events/s) |
//! | `a1_batching_cache` | Ablation: batching + path cache (§5.2 remediation) |
//! | `a2_multi_mds` | Ablation: multi-MDS distributed collection (§6) |
//! | `a3_robinhood` | Ablation: centralized (Robinhood) vs hierarchical (§2/§6) |
//! | `a4_transports` | Ablation: Collector→Aggregator transports (§6) |
//! | `a5_inotify_limits` | §3 limitations: inotify memory/crawl, polling cost |
//! | `a6_aurora_planning` | Extension: Aurora sizing under diurnal bursts (§5.3 caveat) |
//! | `a7_latency` | Extension: event-delivery latency vs load (queueing knee) |

#![forbid(unsafe_code)]

pub mod trace;

/// Prints a padded, pipe-separated table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Percentage difference of `measured` from `paper` (signed).
pub fn pct_diff(measured: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        0.0
    } else {
        (measured - paper) / paper * 100.0
    }
}

/// Formats a measured-vs-paper cell: `measured (paper, ±d%)`.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    format!("{measured:.0} (paper {paper:.0}, {:+.1}%)", pct_diff(measured, paper))
}

/// The value a bench thread returned. A thread that panicked has printed
/// its message already; its panic goes on here, on the joining thread,
/// as the failed run it is.
pub fn joined<T>(handle: std::thread::JoinHandle<T>) -> T {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Writes `report` to `path` as pretty JSON and a final newline: the
/// `BENCH_*.json` a binary leaves behind.
///
/// # Errors
///
/// A report that does not render as JSON, or a file that cannot be
/// written.
pub fn write_report(path: &str, report: &impl serde::Serialize) -> std::io::Result<()> {
    let body = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(path, body + "\n")
}

/// A crude horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "█".repeat(filled.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_signed() {
        assert!((pct_diff(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((pct_diff(90.0, 100.0) + 10.0).abs() < 1e-9);
        assert_eq!(pct_diff(5.0, 0.0), 0.0);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn vs_paper_formats() {
        let s = vs_paper(8162.0, 9593.0);
        assert!(s.contains("8162"));
        assert!(s.contains("-14.9%"));
    }
}
