//! End-to-end tests of the distributed monitor: three `sdcimon` OS
//! processes (collector → aggregator → consumer) wired over sdci-net's
//! TCP transport, plus the §5.2 fault story — kill the aggregator
//! mid-run and verify the collector's resend and the snapshot restore
//! hand every event to the consumer exactly once.
//!
//! Children are managed strictly through [`std::process::Child`]
//! handles (never `pkill`), so a crashed test cannot take unrelated
//! processes down with it.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_sdcimon");

/// Events one collector run emits: one mkdir plus `--files` creates.
const EVENTS_PER_COLLECTOR: usize = 101;

/// A child process that is SIGKILLed when the test panics.
struct Reaped(Option<Child>);

impl Reaped {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child already consumed")
    }

    /// Hands the child back for `wait_with_output`, disarming the reaper.
    fn into_child(mut self) -> Child {
        self.0.take().expect("child already consumed")
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn(args: &[&str]) -> Reaped {
    let child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sdcimon");
    Reaped(Some(child))
}

/// Reads the aggregator's readiness line and returns the events address.
///
/// The line looks like:
/// `sdcimon aggregator listening on 127.0.0.1:40089 (feed ..., store ..., metrics ...)`
fn wait_for_listen_addr(agg: &mut Reaped) -> String {
    let stdout = agg.child().stdout.take().expect("aggregator stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("read aggregator stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().expect("addr token");
            // Keep draining stdout in the background so the child can
            // never block on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            return addr.to_string();
        }
    }
    panic!("aggregator exited without printing a readiness line");
}

/// Scrapes the aggregator's Prometheus endpoint (events port + 3) and
/// returns the response body.
fn scrape_metrics(events_addr: &str) -> String {
    use std::io::{Read, Write};
    let base: std::net::SocketAddr = events_addr.parse().expect("events addr");
    let metrics_addr = std::net::SocketAddr::new(base.ip(), base.port() + 3);
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: sdci\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read metrics response");
    assert!(response.starts_with("HTTP/1.1 200"), "unexpected scrape status: {response}");
    let body_at = response.find("\r\n\r\n").expect("header/body separator") + 4;
    response[body_at..].to_string()
}

fn run_collector(addr: &str, client: &str) {
    let status = Command::new(BIN)
        .args(["collector", "--connect", addr, "--client", client, "--files", "100"])
        .status()
        .expect("run collector");
    assert!(status.success(), "collector {client} failed: {status:?}");
}

/// Asserts the per-client `event` lines are path-resolved and arrive in
/// creation order, and returns how many event lines were seen in total.
fn check_consumer_output(out: &str, clients: &[&str]) -> usize {
    for client in clients {
        let prefix = format!("/{client}/f");
        let indices: Vec<usize> = out
            .lines()
            .filter_map(|l| l.strip_prefix("event Created ")?.strip_prefix(&prefix)?.parse().ok())
            .collect();
        let expected: Vec<usize> = (0..100).collect();
        assert_eq!(indices, expected, "client {client}: file events out of order or missing");
    }
    out.lines().filter(|l| l.starts_with("event ")).count()
}

#[test]
fn three_processes_deliver_every_event_in_order() {
    let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0"]);
    let addr = wait_for_listen_addr(&mut agg);

    let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
    let consumer = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect,
        "--timeout",
        "60",
    ]);

    run_collector(&addr, "c1");
    run_collector(&addr, "c2");

    // With the full pipeline warm, the aggregator's scrape endpoint
    // must expose a broad registry (>= 15 series) including an
    // end-to-end latency histogram with real observations.
    let body = scrape_metrics(&addr);
    let series = body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert!(series >= 15, "expected >= 15 metric series, got {series}:\n{body}");
    let e2e_count = body
        .lines()
        .find_map(|l| l.strip_prefix("sdci_e2e_store_insert_latency_seconds_count "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("e2e store-insert latency histogram exported");
    assert!(e2e_count > 0, "e2e latency histogram has no observations:\n{body}");
    assert!(
        body.contains("sdci_e2e_store_insert_latency_seconds_bucket"),
        "histogram buckets missing:\n{body}"
    );

    let out = consumer.into_child().wait_with_output().expect("wait for consumer");
    assert!(out.status.success(), "consumer failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);

    let events = check_consumer_output(&stdout, &["c1", "c2"]);
    assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "wrong event count:\n{stdout}");
    let done = stdout.lines().last().unwrap_or_default();
    assert!(done.contains("lost 0"), "consumer reported loss: {done}");
}

#[test]
fn killed_aggregator_restarts_from_snapshot_without_losing_events() {
    let snapshot = std::env::temp_dir().join(format!("sdci-net-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot);
    let snap = snapshot.to_str().expect("utf-8 temp path");

    let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0", "--snapshot", snap]);
    let addr = wait_for_listen_addr(&mut agg);

    let expect = (2 * EVENTS_PER_COLLECTOR).to_string();
    let consumer = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect,
        "--timeout",
        "120",
    ]);

    run_collector(&addr, "c1");
    // Let the aggregator flush its 200ms-interval snapshot (and the
    // `.marks` dedup sidecar captured right after it) before killing it
    // hard — no graceful shutdown, exactly the §5.2 failure. Waiting
    // past the flush matters: the documented durability window is one
    // snapshot interval, so events acked between the last flush and the
    // kill are allowed to vanish, and this test asserts the stronger
    // "nothing lost" property that holds only for flushed state.
    std::thread::sleep(Duration::from_millis(600));
    agg.child().kill().expect("kill aggregator");
    agg.child().wait().expect("reap aggregator");

    // The second collector starts while the port is dead; its TcpPush
    // retries with backoff until the aggregator returns.
    let mut c2 = Reaped(Some(
        Command::new(BIN)
            .args(["collector", "--connect", &addr, "--client", "c2", "--files", "100"])
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn collector c2"),
    ));
    std::thread::sleep(Duration::from_millis(500));

    let _agg2 = spawn(&["aggregator", "--bind", &addr, "--snapshot", snap]);

    let c2_status = c2.child().wait().expect("wait collector c2");
    assert!(c2_status.success(), "collector c2 failed: {c2_status:?}");

    let out = consumer.into_child().wait_with_output().expect("wait for consumer");
    assert!(out.status.success(), "consumer failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);

    let events = check_consumer_output(&stdout, &["c1", "c2"]);
    assert_eq!(events, 2 * EVENTS_PER_COLLECTOR, "wrong event count:\n{stdout}");
    let done = stdout.lines().last().unwrap_or_default();
    assert!(done.contains("lost 0"), "consumer reported loss: {done}");

    // The snapshot is a directory now: manifest + per-segment files.
    assert!(snapshot.join("MANIFEST.json").is_file(), "snapshot directory has a manifest");

    let _ = std::fs::remove_dir_all(&snapshot);
}

#[test]
fn legacy_single_file_snapshot_is_restored_and_migrated() {
    // Seed a legacy-deployment snapshot: the single-file NDJSON form the
    // pre-segmented aggregator wrote. Build it from a real store so the
    // line format is exactly what an old deployment left behind.
    let snapshot =
        std::env::temp_dir().join(format!("sdci-net-legacy-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_dir_all(&snapshot);
    {
        use sdci::monitor::{EventStore, SequencedEvent};
        use sdci::types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
        let store = EventStore::new(1000);
        for i in 1..=25u64 {
            store
                .insert(SequencedEvent {
                    seq: i,
                    event: FileEvent {
                        index: i,
                        mdt: MdtIndex::new(0),
                        changelog_kind: ChangelogKind::Create,
                        kind: EventKind::Created,
                        time: SimTime::from_secs(i),
                        path: format!("/old/f{i}").into(),
                        src_path: None,
                        target: Fid::new(1, i as u32, 0),
                        is_dir: false,
                        extracted_unix_ns: None,
                        trace: None,
                    },
                })
                .unwrap();
        }
        let mut buf = Vec::new();
        store.snapshot_to(&mut buf).expect("serialize legacy snapshot");
        std::fs::write(&snapshot, buf).expect("write legacy snapshot");
    }
    let snap = snapshot.to_str().expect("utf-8 temp path");

    let mut agg = spawn(&["aggregator", "--bind", "127.0.0.1:0", "--snapshot", snap]);
    let addr = wait_for_listen_addr(&mut agg);

    // The restored 25 events arrive via backfill, the fresh collector's
    // events via the live feed — sequence numbering continues across the
    // restart, so the consumer sees one dense stream.
    let expect = (25 + EVENTS_PER_COLLECTOR).to_string();
    let consumer = spawn(&[
        "consumer",
        "--connect",
        &addr,
        "--verbose",
        "--expect",
        &expect,
        "--timeout",
        "60",
    ]);
    run_collector(&addr, "c1");

    let out = consumer.into_child().wait_with_output().expect("wait for consumer");
    assert!(out.status.success(), "consumer failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let events = check_consumer_output(&stdout, &["c1"]);
    assert_eq!(events, 25 + EVENTS_PER_COLLECTOR, "wrong event count:\n{stdout}");
    for i in 1..=25 {
        assert!(stdout.contains(&format!("/old/f{i}")), "legacy event /old/f{i} missing from feed");
    }
    let done = stdout.lines().last().unwrap_or_default();
    assert!(done.contains("lost 0"), "consumer reported loss: {done}");

    // The legacy file was migrated in place to the directory form.
    assert!(snapshot.is_dir(), "legacy snapshot migrated to a directory");
    assert!(snapshot.join("MANIFEST.json").is_file(), "migrated snapshot has a manifest");

    let _ = std::fs::remove_dir_all(&snapshot);
}

/// A peer speaking another wire version is refused loudly, not
/// negotiated with: on each of the aggregator's three handshakes the
/// connection is closed and an error-level record names both versions
/// — and the aggregator keeps serving a collector that speaks its own.
#[test]
fn aggregator_refuses_a_peer_on_another_wire_version_with_an_error_record() {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    let child = Command::new(BIN)
        .args(["aggregator", "--bind", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sdcimon");
    let mut agg = Reaped(Some(child));
    let addr = wait_for_listen_addr(&mut agg);
    let events: SocketAddr = addr.parse().expect("events addr");
    let feed = SocketAddr::new(events.ip(), events.port() + 1);
    let stderr = agg.child().stderr.take().expect("aggregator stderr piped");
    let (tx, records) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                return;
            }
        }
    });

    for (addr, leg, hello) in [
        (events, "push", r#"{"HelloPush":{"client":"old","resume_after":0,"proto":3}}"#),
        (feed, "publisher", r#"{"HelloPublisher":{"proto":3}}"#),
        (feed, "subscriber", r#"{"HelloSubscriber":{"prefixes":[""],"proto":3}}"#),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&(hello.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(hello.as_bytes()).unwrap();
        assert_eq!(stream.read(&mut [0u8; 1]).ok(), Some(0), "{leg}: connection not closed");

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let record = loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let line = records.recv_timeout(left).unwrap_or_else(|_| {
                panic!("{leg}: no error record for the refused hello within 5s")
            });
            if line.contains("handshake refused") {
                break line;
            }
        };
        assert!(record.contains(r#""level":"error""#), "{leg}: not error level: {record}");
        assert!(record.contains(&format!(r#""leg":"{leg}""#)), "{leg}: wrong leg: {record}");
        assert!(
            record.contains("wire version 3") && record.contains("speaks 4"),
            "{leg}: record must name both versions: {record}"
        );
    }

    run_collector(&addr, "c1");
    let body = scrape_metrics(&addr);
    assert!(body.contains(r#"sdci_net_hello_refused_total{leg="push"} 1"#), "scrape:\n{body}");
    let received = body
        .lines()
        .find_map(|l| l.strip_prefix("sdci_net_pull_items_total "))
        .and_then(|v| v.trim().parse::<usize>().ok());
    assert_eq!(received, Some(EVENTS_PER_COLLECTOR), "a current collector is still served");
}
