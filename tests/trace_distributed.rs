//! End-to-end distributed tracing across the sharded pipeline: a
//! collector routing over a two-shard tier, a scatter-gather front, and
//! a consumer — every role sampling at 1/1 — must yield *complete*
//! traces when their per-process `/tracez` buffers (and the
//! run-to-completion roles' `--trace-out` dumps) are merged by the
//! `sdci-bench` trace collector. Complete means: every non-root span's
//! parent is present somewhere in the merged set, i.e. causal links
//! survive each process boundary.
//!
//! This is also the CI distributed-tracing smoke: the assembled query
//! trace is written to `TRACE_distributed_smoke.json` for upload.
//!
//! The harness (spawn, readiness line, the one-address store client) is
//! `tests/common`.

mod common;

use common::{remote_store, spawn, split_clients, wait_for_listen_addr, BIN, EVENTS_PER_COLLECTOR};
use sdci::monitor::{EventBackend, StoreQuery};
use sdci_bench::trace::TraceCollector;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Polls the front's scatter RPC until both collectors' events are
/// visible (ingest is async behind the push-leg ack).
fn wait_for_ingest(front_addr: &str, min: usize) {
    let remote = remote_store(front_addr);
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
fn sharded_pipeline_traces_link_across_every_process_boundary() {
    let tmp = std::env::temp_dir().join(format!("sdci_trace_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir trace tmp");

    let mut shard0 =
        spawn(&["shard", "--shard-id", "0", "--bind", "127.0.0.1:0", "--trace-sample", "1"]);
    let mut shard1 =
        spawn(&["shard", "--shard-id", "1", "--bind", "127.0.0.1:0", "--trace-sample", "1"]);
    let addr0 = wait_for_listen_addr(&mut shard0);
    let addr1 = wait_for_listen_addr(&mut shard1);
    let shards = format!("{addr0},{addr1}");
    let mut front =
        spawn(&["front", "--bind", "127.0.0.1:0", "--shards", &shards, "--trace-sample", "1"]);
    let front_addr = wait_for_listen_addr(&mut front);

    // One collector per shard (their roots hash to different owners),
    // each sampling everything and dumping its buffers at exit.
    let (c_zero, c_one) = split_clients();
    let mut dumps = Vec::new();
    for client in [&c_zero, &c_one] {
        let dump = tmp.join(format!("collector_{client}.json"));
        let out = Command::new(BIN)
            .args([
                "collector",
                "--cluster",
                &front_addr,
                "--client",
                client,
                "--files",
                "100",
                "--trace-sample",
                "1",
                "--trace-out",
                dump.to_str().unwrap(),
            ])
            .output()
            .expect("run collector");
        assert!(
            out.status.success(),
            "collector {client} failed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        dumps.push(dump);
    }
    wait_for_ingest(&front_addr, 2 * EVENTS_PER_COLLECTOR);

    // A consumer drains shard 0's feed (live + backfill) to completion.
    let consumer_dump = tmp.join("consumer.json");
    let out = Command::new(BIN)
        .args([
            "consumer",
            "--connect",
            &addr0,
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
    dumps.push(consumer_dump);

    // The test process issues a traced scatter query of its own: this
    // is the trace the acceptance bar measures, rooted here and fanned
    // through the front to both shards.
    sdci_obs::trace::set_sample_every(1);
    sdci_obs::trace::set_process("query-client");
    let query_trace_id = {
        let remote = remote_store(&front_addr);
        let root = sdci_obs::trace::root("test.query");
        let ctx = root.context().expect("1/1 sampling samples the root");
        let events = remote.query(&StoreQuery::after_seq(0));
        assert_eq!(events.len(), 2 * EVENTS_PER_COLLECTOR, "scatter query shed events");
        ctx.trace_id
    };

    // Assemble: scrape the three live servers (`/tracez` answers at a
    // role's one address, beside its services), read the three dump
    // files, and fold in this process's own buffer.
    let mut tc = TraceCollector::new();
    for role in [&addr0, &addr1, &front_addr] {
        let addr: SocketAddr = role.parse().expect("role addr");
        tc.scrape(addr).unwrap_or_else(|e| panic!("scrape {role}/tracez: {e}"));
    }
    for dump in &dumps {
        tc.ingest_file(dump).expect("read trace dump");
    }
    tc.ingest_current_process().expect("merge own buffers");

    // --- The query trace: one trace spanning four processes. ---
    let query_trace = tc.trace(query_trace_id);
    let names: Vec<&str> = query_trace.iter().map(|s| s.name.as_str()).collect();
    assert!(
        query_trace.len() >= 6,
        "expected >= 6 spans in the scatter query trace, got {names:?}"
    );
    assert!(
        tc.broken_links(query_trace_id).is_empty(),
        "broken parent links in the query trace: {:?}",
        tc.broken_links(query_trace_id)
    );
    for required in ["test.query", "store_rpc.serve", "scatter.query", "scatter.shard"] {
        assert!(names.contains(&required), "query trace is missing {required}: {names:?}");
    }
    let scatter_children: Vec<&&sdci_bench::trace::SpanRec> =
        query_trace.iter().filter(|s| s.name == "scatter.shard").collect();
    assert_eq!(scatter_children.len(), 2, "one scatter child per shard: {names:?}");
    let mut legs: Vec<&str> = scatter_children.iter().map(|s| s.detail.as_str()).collect();
    legs.sort_unstable();
    assert_eq!(legs, ["shard 0", "shard 1"], "per-shard children must name their legs");
    let processes = tc.processes(query_trace_id);
    for proc in ["query-client", "front", "shard0", "shard1"] {
        assert!(processes.contains(proc), "no spans from {proc}: {processes:?}");
    }
    // The shard-side store must be visible inside the same trace (the
    // serve span is current while the query runs).
    assert!(
        names.iter().any(|n| n.starts_with("store.")),
        "store spans missing from the query trace: {names:?}"
    );

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
                && names.contains(&"router.publish")
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
        "an ingest trace should span collector, shard, and consumer: {ingest_procs:?}"
    );
    // Somewhere across the ingest traces the aggregator's store must
    // have recorded under the adopted event context.
    assert!(
        tc.spans().iter().any(|s| s.name == "aggregator.ingest"),
        "no aggregator.ingest spans collected"
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
