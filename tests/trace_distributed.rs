//! End-to-end distributed tracing across the pipeline: a collector, the
//! aggregator and a consumer — every role sampling at 1/1 — plus a
//! store query from the test process must yield *complete* traces when
//! their per-process `/tracez` buffers (and the run-to-completion roles'
//! `--trace-out` dumps) are merged by the `sdci-bench` trace collector.
//! Complete means: every non-root span's parent is present somewhere in
//! the merged set, i.e. causal links survive each process boundary.
//!
//! This is also the CI distributed-tracing smoke: the assembled query
//! trace is written to `TRACE_distributed_smoke.json` for upload.
//!
//! The harness (spawn, readiness line, the one-address store client) is
//! `tests/common`.

mod common;

use common::{remote_store, spawn, wait_for_listen_addr, BIN, EVENTS_PER_COLLECTOR};
use sdci::monitor::{EventBackend, StoreQuery};
use sdci_bench::trace::TraceCollector;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Polls the aggregator's store RPC until the collector's events are
/// visible (ingest is async behind the push-leg ack).
fn wait_for_ingest(addr: &str, min: usize) {
    let remote = remote_store(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = remote.query(&StoreQuery::after_seq(0)).len();
        if got >= min {
            return;
        }
        assert!(Instant::now() < deadline, "only {got}/{min} events ingested before deadline");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn pipeline_traces_link_across_every_process_boundary() {
    let tmp = std::env::temp_dir().join(format!("sdci_trace_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir trace tmp");

    let mut aggregator = spawn(&["aggregator", "--bind", "127.0.0.1:0", "--trace-sample", "1"]);
    let addr = wait_for_listen_addr(&mut aggregator);

    // One collector, sampling everything and dumping its buffers at exit.
    let collector_dump = tmp.join("collector.json");
    let out = Command::new(BIN)
        .args([
            "collector",
            "--connect",
            &addr,
            "--client",
            "c0",
            "--files",
            "100",
            "--trace-sample",
            "1",
            "--trace-out",
            collector_dump.to_str().unwrap(),
        ])
        .output()
        .expect("run collector");
    assert!(out.status.success(), "collector failed:\n{}", String::from_utf8_lossy(&out.stdout));
    wait_for_ingest(&addr, EVENTS_PER_COLLECTOR);

    // A consumer drains the feed (live + backfill) to completion.
    let consumer_dump = tmp.join("consumer.json");
    let out = Command::new(BIN)
        .args([
            "consumer",
            "--connect",
            &addr,
            "--expect",
            &EVENTS_PER_COLLECTOR.to_string(),
            "--timeout",
            "60",
            "--trace-sample",
            "1",
            "--trace-out",
            consumer_dump.to_str().unwrap(),
        ])
        .output()
        .expect("run consumer");
    assert!(out.status.success(), "consumer failed:\n{}", String::from_utf8_lossy(&out.stdout));

    // The test process issues a traced store query of its own: a trace
    // rooted here and served by the aggregator's store.
    sdci_obs::trace::set_sample_every(1);
    sdci_obs::trace::set_process("query-client");
    let query_trace_id = {
        let remote = remote_store(&addr);
        let root = sdci_obs::trace::root("test.query");
        let ctx = root.context().expect("1/1 sampling samples the root");
        let events = remote.query(&StoreQuery::after_seq(0));
        assert_eq!(events.len(), EVENTS_PER_COLLECTOR, "store query shed events");
        ctx.trace_id
    };

    // Assemble: scrape the aggregator (`/tracez` answers at its one
    // address, beside its services), read the two dump files, and fold
    // in this process's own buffer.
    let mut tc = TraceCollector::new();
    let scrape: SocketAddr = addr.parse().expect("aggregator addr");
    tc.scrape(scrape).unwrap_or_else(|e| panic!("scrape {addr}/tracez: {e}"));
    for dump in [&collector_dump, &consumer_dump] {
        tc.ingest_file(dump).expect("read trace dump");
    }
    tc.ingest_current_process().expect("merge own buffers");

    // --- The query trace: one trace spanning two processes. ---
    let query_trace = tc.trace(query_trace_id);
    let names: Vec<&str> = query_trace.iter().map(|s| s.name.as_str()).collect();
    assert!(
        tc.broken_links(query_trace_id).is_empty(),
        "broken parent links in the query trace: {:?}",
        tc.broken_links(query_trace_id)
    );
    for required in ["test.query", "store_rpc.serve"] {
        assert!(names.contains(&required), "query trace is missing {required}: {names:?}");
    }
    // The aggregator's store must be visible inside the same trace (the
    // serve span is current while the query runs).
    assert!(
        names.iter().any(|n| n.starts_with("store.")),
        "store spans missing from the query trace: {names:?}"
    );
    let processes = tc.processes(query_trace_id);
    for proc in ["query-client", "aggregator"] {
        assert!(processes.contains(proc), "no spans from {proc}: {processes:?}");
    }

    // --- The ingest traces: extraction through delivery. ---
    // Each extracted event roots its own trace in the collector; find
    // one that reached the consumer and check its chain end to end.
    let delivered: Vec<u64> =
        tc.spans().iter().filter(|s| s.name == "consumer.delivery").map(|s| s.trace_id).collect();
    assert!(!delivered.is_empty(), "no consumer.delivery spans collected");
    let linked = delivered
        .iter()
        .find(|&&id| {
            let names: Vec<&str> = tc.trace(id).iter().map(|s| s.name.as_str()).collect();
            names.contains(&"collector.extract")
                && names.contains(&"aggregator.ingest")
                && tc.broken_links(id).is_empty()
        })
        .unwrap_or_else(|| {
            panic!(
                "no delivery trace links back to its extraction; example: {:?}",
                tc.trace(delivered[0])
            )
        });
    let ingest_procs = tc.processes(*linked);
    assert!(
        ingest_procs.len() >= 3,
        "an ingest trace should span collector, aggregator, and consumer: {ingest_procs:?}"
    );
    assert!(
        tc.spans().iter().any(|s| s.name == "store.seg.insert"),
        "no store insert spans collected"
    );

    // CI artifact: the fully-assembled query trace as JSON.
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR")).join("TRACE_distributed_smoke.json");
    std::fs::write(&artifact, tc.render_trace(query_trace_id)).expect("write trace artifact");

    let _ = std::fs::remove_dir_all(&tmp);
}
