//! A8: historic-store query latency vs retained-window size — segmented
//! vs linear scan.
//!
//! The paper makes the Aggregator's local event database the monitor's
//! fault-tolerance mechanism (§4) and its dominant memory cost
//! (Table 3). What it doesn't measure is the *query* side: a consumer
//! recovering a gap asks for "everything after seq N" (or "since time
//! T", or "under /project"), and with a flat scan that costs O(window)
//! regardless of how little the consumer is missing. The segmented
//! store's per-segment seq/time ranges and directory column make those
//! queries scale with the result instead.
//!
//! This harness fills both stores with identical events across a sweep
//! of window sizes and reports median query latency for the recovery
//! query shapes. It exits non-zero if the segmented store's seq- or
//! time-bounded queries fail to beat the scan baseline by the expected
//! margin at the largest window — CI runs `--smoke` so the indexed path
//! can't silently regress to a full scan.
//!
//! Emits `BENCH_a8_store_scaling.json` with the query speedups.
//!
//! ```text
//! a8_store_scaling [--smoke]
//! ```

use sdci_bench::{print_table, write_report};
use sdci_core::{EventStore, SequencedEvent, StoreQuery};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use serde::Serialize;
use std::collections::VecDeque;
use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Events per top-level directory: the workload cycles through roots so
/// path-prefix queries have real selectivity (each root spans a few
/// segments, not all of them).
const EVENTS_PER_ROOT: u64 = 8_192;

/// Tail size for the gap-recovery query shapes.
const TAIL: u64 = 1_000;

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent {
        seq,
        event: FileEvent {
            index: seq,
            mdt: MdtIndex::new((seq % 4) as u32),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(seq),
            path: format!("/r{}/f{seq}.dat", seq / EVENTS_PER_ROOT).into(),
            src_path: None,
            target: Fid::new(0x100, seq as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        },
    }
}

/// The pre-refactor store, preserved as the baseline: a flat `VecDeque`
/// where every query is a linear scan of the whole retained window.
struct ScanStore {
    events: VecDeque<SequencedEvent>,
    capacity: usize,
}

impl ScanStore {
    fn new(capacity: usize) -> Self {
        ScanStore { events: VecDeque::with_capacity(capacity), capacity }
    }

    fn insert(&mut self, e: SequencedEvent) {
        self.events.push_back(e);
        if self.events.len() > self.capacity {
            self.events.pop_front();
        }
    }

    fn query(&self, q: &StoreQuery) -> Vec<SequencedEvent> {
        let limit = if q.limit == 0 { usize::MAX } else { q.limit };
        self.events
            .iter()
            .filter(|e| q.after_seq.is_none_or(|a| e.seq > a))
            .filter(|e| q.since.is_none_or(|s| e.event.time >= s))
            .filter(|e| q.path_prefix.as_ref().is_none_or(|p| e.event.path.starts_with(p)))
            .take(limit)
            .cloned()
            .collect()
    }
}

/// Median wall-clock time of `f` over `iters` runs.
fn median(iters: usize, mut f: impl FnMut() -> usize) -> (Duration, usize) {
    let mut times = Vec::with_capacity(iters);
    let mut hits = 0;
    for _ in 0..iters {
        let start = Instant::now();
        hits = black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    (times[times.len() / 2], hits)
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// One row of the machine-readable query results.
#[derive(Serialize)]
struct QueryRow {
    window: u64,
    query: &'static str,
    results: usize,
    scan_us: f64,
    segmented_us: f64,
    speedup: f64,
}

/// The machine-readable result CI archives (`BENCH_a8_store_scaling.json`).
#[derive(Serialize)]
struct A8Report {
    bench: &'static str,
    mode: &'static str,
    query_rows: Vec<QueryRow>,
}

fn main() -> Result<(), Box<dyn Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (windows, iters, required_speedup): (&[u64], usize, f64) = if smoke {
        (&[50_000, 200_000], 15, 5.0)
    } else {
        (&[125_000, 500_000, 1_000_000], 30, 10.0)
    };
    println!(
        "== A8: store query latency vs window size (segmented vs linear scan{}) ==\n",
        if smoke { ", smoke" } else { "" }
    );

    let mut rows = Vec::new();
    let mut query_rows = Vec::new();
    let mut gate_failures = Vec::new();
    for (w, &window) in windows.iter().enumerate() {
        let last_window = w + 1 == windows.len();
        let mut scan = ScanStore::new(window as usize);
        let segmented = EventStore::new(window as usize);
        // Overfill by 10% so rotation has happened and the window is a
        // true sliding window, as in a long-running aggregator.
        let total = window + window / 10;
        for seq in 1..=total {
            let e = sev(seq);
            scan.insert(e.clone());
            segmented.insert(e)?;
        }

        // The gap-recovery shapes: a consumer missing the last TAIL
        // events by sequence number, by time, and a consumer whose rule
        // watches one top-level directory near the middle of the window.
        let seq_q = StoreQuery::after_seq(total - TAIL);
        let time_q = StoreQuery::since(SimTime::from_secs(total - TAIL + 1));
        let mid_root = (total - window / 2) / EVENTS_PER_ROOT;
        let prefix_q = StoreQuery::default().under(format!("/r{mid_root}"));

        for (name, q, gated) in [
            ("after-seq", &seq_q, true),
            ("since-time", &time_q, true),
            ("prefix", &prefix_q, false),
        ] {
            let (scan_t, scan_n) = median(iters, || scan.query(q).len());
            let (seg_t, seg_n) = median(iters, || segmented.query(q).len());
            assert_eq!(scan_n, seg_n, "stores disagree on {name} at window {window}");
            let speedup = scan_t.as_secs_f64() / seg_t.as_secs_f64().max(1e-9);
            query_rows.push(QueryRow {
                window,
                query: name,
                results: seg_n,
                scan_us: scan_t.as_secs_f64() * 1e6,
                segmented_us: seg_t.as_secs_f64() * 1e6,
                speedup,
            });
            rows.push(vec![
                format!("{window}"),
                name.to_string(),
                format!("{scan_n}"),
                fmt_us(scan_t),
                fmt_us(seg_t),
                format!("{speedup:.1}x"),
            ]);
            if gated && last_window && speedup < required_speedup {
                gate_failures.push(format!(
                    "{name} at window {window}: {speedup:.1}x < required {required_speedup:.0}x"
                ));
            }
        }
        let stats = segmented.stats();
        println!(
            "window {window}: {} sealed segments, resident {}",
            stats.segments,
            sdci_types::ByteSize::from_bytes(stats.resident_bytes)
        );
    }

    println!();
    print_table(&["window", "query", "results", "scan (us)", "segmented (us)", "speedup"], &rows);
    println!(
        "\nscan cost grows with the window; the segmented store binary-searches \
         to the first candidate segment (seq), skips segments by time range and, \
         through each segment's directory column, visits only the events filed \
         under a directory the prefix can match, so recovery-query cost tracks \
         the result size."
    );

    let report = A8Report {
        bench: "a8_store_scaling",
        mode: if smoke { "smoke" } else { "full" },
        query_rows,
    };
    let out = "BENCH_a8_store_scaling.json";
    write_report(out, &report)?;
    println!("\nwrote {out}");

    if !gate_failures.is_empty() {
        eprintln!("\nA8 REGRESSION:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    Ok(())
}
