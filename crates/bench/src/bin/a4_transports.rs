//! A4: message-passing techniques between collection and aggregation
//! points (§6 future work: "exploring and evaluating different message
//! passing techniques between the collection and aggregation points").
//!
//! Live (wall-clock) comparison of the transports moving the same
//! `FileEvent` stream from four producer threads (the Collectors) to
//! one consumer (the Aggregator):
//!
//! * `push/pull` — bounded blocking pipeline (backpressure);
//! * `pub/sub`   — ZeroMQ-style broker with HWM (load shedding);
//! * `pub/sub batched` — same broker, events batched 64 per message.
//!
//! These are in-process arms. The TCP push leg is measured through the
//! real pipeline by `benchmark/` (`pipeline.saturation_events_per_s`,
//! `net.pipe.*`), and the cost of 1/64 trace sampling is an exact
//! allocation count in `crates/core/tests/trace_budget.rs`.
//!
//! A second ladder measures the *deliver* direction — consumer
//! scaling: 1→256 subscribers on one topic through the broker's
//! encode-once fan-out (each publish rendered once, the frozen bytes
//! shared across legs), reported as absolute deliveries/s. The burst is
//! published as the Aggregator publishes: 256-event `publish_batch`
//! calls, each one frame. Rungs recorded before PR 21 published 6,000
//! singles and relied on the dispatcher regrouping them into runs; that
//! regrouping is gone, so those rungs are not comparable with these.
//! The subscriber clients are deliberately drain-only raw sockets, so
//! the measured cost is the broker's, not 256 deserializers fighting
//! for the CPU.
//!
//! Emits `BENCH_a4_transports.json` (push arms) and
//! `BENCH_a4_consumer_scaling.json` (fan-out ladder), and exits
//! non-zero if the lossless push/pull arm loses an event — CI runs
//! `--smoke`.
//!
//! ```text
//! a4_transports [--smoke]
//! ```

use sdci_bench::{joined, write_report};
use sdci_mq::pubsub::Broker;
use sdci_mq::transport::Publish;
use sdci_net::wire::{write_hello, Service};
use sdci_net::{Endpoint, NetConfig, TcpBroker};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use serde::Serialize;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const PRODUCERS: u64 = 4;

/// Subscriber counts for the consumer-scaling (fan-out) ladder.
const FANOUT_LADDER: [usize; 5] = [1, 4, 16, 64, 256];

/// The ladder's top rung.
const FANOUT_TOP: usize = FANOUT_LADDER[FANOUT_LADDER.len() - 1];

/// Events per `publish_batch` on the fan-out ladder: the Aggregator's
/// ingest batch bound.
const FANOUT_PUBLISH_BATCH: u64 = 256;

/// The machine-readable result CI archives (`BENCH_a4_transports.json`).
#[derive(Serialize)]
struct A4Report {
    bench: &'static str,
    mode: &'static str,
    events: u64,
    producers: u64,
    push_pull_events_per_sec: f64,
    pubsub_events_per_sec: f64,
    pubsub_batched_events_per_sec: f64,
}

/// The machine-readable fan-out ladder CI archives
/// (`BENCH_a4_consumer_scaling.json`).
#[derive(Serialize)]
struct A4FanoutReport {
    bench: &'static str,
    mode: &'static str,
    events: u64,
    publish_batch: u64,
    topic_subscribers: Vec<u64>,
    encode_once_deliveries_per_sec: Vec<f64>,
}

fn event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new((i % PRODUCERS) as u32),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(i),
        path: format!("/bench/dir{}/file{}", i % 64, i).into(),
        src_path: None,
        target: Fid::new(0x100, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

fn run_push_pull(events: u64) -> (f64, u64) {
    let (push, pull) = crossbeam_channel::bounded::<FileEvent>(65_536);
    let start = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let push = push.clone();
            thread::spawn(move || {
                for i in 0..events / PRODUCERS {
                    if push.send(event(p * 1_000_000 + i)).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    drop(push);
    let mut received = 0u64;
    while pull.recv().is_ok() {
        received += 1;
    }
    producers.into_iter().for_each(joined);
    (events as f64 / start.elapsed().as_secs_f64(), received)
}

fn run_pubsub(events: u64) -> (f64, u64) {
    let broker: Broker<FileEvent> = Broker::new(65_536);
    let sub = broker.subscribe(&["events/"]);
    let start = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let publisher = broker.publisher();
            thread::spawn(move || {
                for i in 0..events / PRODUCERS {
                    publisher.publish("events/all", event(p * 1_000_000 + i));
                }
            })
        })
        .collect();
    let consumer = thread::spawn(move || {
        let mut received = 0u64;
        while received + sub.dropped() < events {
            if sub.recv_timeout(std::time::Duration::from_millis(200)).is_some() {
                received += 1;
            } else {
                break;
            }
        }
        received
    });
    producers.into_iter().for_each(joined);
    let received = joined(consumer);
    (events as f64 / start.elapsed().as_secs_f64(), received)
}

fn run_pubsub_batched(events: u64, batch: usize) -> (f64, u64) {
    let broker: Broker<Vec<FileEvent>> = Broker::new(65_536);
    let sub = broker.subscribe(&["events/"]);
    let batches = events / PRODUCERS / batch as u64;
    let start = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let publisher = broker.publisher();
            thread::spawn(move || {
                for b in 0..batches {
                    let chunk: Vec<FileEvent> = (0..batch as u64)
                        .map(|i| event(p * 1_000_000 + b * batch as u64 + i))
                        .collect();
                    publisher.publish("events/all", chunk);
                }
            })
        })
        .collect();
    let total_batches = batches * PRODUCERS;
    let consumer = thread::spawn(move || {
        let mut received = 0u64;
        let mut got_batches = 0u64;
        while got_batches + sub.dropped() < total_batches {
            match sub.recv_timeout(std::time::Duration::from_millis(200)) {
                Some(msg) => {
                    got_batches += 1;
                    received += msg.payload.len() as u64;
                }
                None => break,
            }
        }
        received
    });
    producers.into_iter().for_each(joined);
    let received = joined(consumer);
    (events as f64 / start.elapsed().as_secs_f64(), received)
}

/// A control-path marker event the drain subscribers can spot by
/// scanning raw frame bytes for its path, no deserialization needed.
fn marker_event(path: &str) -> FileEvent {
    FileEvent { path: path.into(), ..event(u64::MAX) }
}

fn frame_contains(frame: &[u8], needle: &[u8]) -> bool {
    frame.windows(needle.len()).any(|w| w == needle)
}

/// A minimal drain-only subscriber: sends the subscriber hello, then
/// reads and discards frames as fast as the socket yields them,
/// watching small frames for the PROBE/FIN path markers (a path is raw
/// bytes inside a binary payload, so no decoding is needed). Keeping the client this thin isolates
/// the broker-side fan-out cost — 256 real consumers' deserializers
/// would otherwise dominate the measurement and mask the encode delta.
fn drain_subscriber(
    addr: std::net::SocketAddr,
    ready: Arc<AtomicU64>,
) -> thread::JoinHandle<io::Result<()>> {
    thread::spawn(move || {
        use std::io::Read;
        let stream = std::net::TcpStream::connect(addr)?;
        let mut writer = stream.try_clone()?;
        write_hello(&mut writer, Service::Subscriber { prefixes: vec!["bench/".into()] })?;
        let mut reader = io::BufReader::with_capacity(1 << 16, stream);
        let mut announced = false;
        let mut frame = Vec::new();
        loop {
            let mut word = [0u8; 4];
            reader.read_exact(&mut word)?;
            let len = u32::from_be_bytes(word) as usize;
            frame.resize(len, 0);
            reader.read_exact(&mut frame)?;
            // Markers ride one-member `DeliverBatch` frames, which are
            // small; bulk batch frames are skipped without scanning.
            if len < 1024 {
                if !announced && frame_contains(&frame, b"/bench/PROBE") {
                    announced = true;
                    ready.fetch_add(1, Ordering::Relaxed);
                }
                if frame_contains(&frame, b"/bench/FIN") {
                    return Ok(());
                }
            }
        }
    })
}

/// One consumer-scaling run: `subs` drain-only subscribers on one
/// topic, `events` `FileEvent`s published once through the broker in
/// [`FANOUT_PUBLISH_BATCH`]-event batches.
/// Returns aggregate deliveries/s (`subs * events / wall`), timed from
/// the first publish to the last subscriber swallowing the FIN
/// sentinel. Sentinel receipt implies full delivery: every queue on
/// the path is FIFO and sized above the run, and the sentinel is
/// published last.
///
/// # Errors
///
/// The broker's bind, or a subscriber's connect, hello or read.
fn run_fanout(subs: usize, events: u64) -> io::Result<f64> {
    let broker = TcpBroker::<FileEvent>::new();
    let endpoint = Endpoint::bind("127.0.0.1:0", NetConfig::default(), vec![broker.clone()])?;
    let addr = endpoint.local_addr();
    let ready = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = (0..subs).map(|_| drain_subscriber(addr, Arc::clone(&ready))).collect();

    // Probe until every leg demonstrably delivers, so the timed window
    // measures fan-out, not connection establishment.
    while ready.load(Ordering::Relaxed) < subs as u64 {
        broker.publish("bench/probe", marker_event("/bench/PROBE"));
        thread::sleep(std::time::Duration::from_millis(2));
    }

    let start = Instant::now();
    let mut batch = Vec::new();
    for base in (0..events).step_by(FANOUT_PUBLISH_BATCH as usize) {
        batch.extend((base..events.min(base + FANOUT_PUBLISH_BATCH)).map(event));
        broker.publish_batch("bench/e", &mut batch);
    }
    // A single publish is its own small frame, which the scanners spot.
    broker.publish("bench/fin", marker_event("/bench/FIN"));
    for consumer in consumers {
        joined(consumer)?;
    }
    let rate = (subs as u64 * events) as f64 / start.elapsed().as_secs_f64();
    endpoint.shutdown();
    Ok(rate)
}

fn main() -> io::Result<()> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let events: u64 = if smoke { 40_000 } else { 200_000 };

    println!(
        "== A4: Collector->Aggregator transport comparison{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    println!("({events} events, {PRODUCERS} producers, 1 consumer, wall-clock)\n");
    let (pp_rate, pp_recv) = run_push_pull(events);
    let (ps_rate, ps_recv) = run_pubsub(events);
    let (psb_rate, psb_recv) = run_pubsub_batched(events, 64);

    // Consumer scaling: the fan-out ladder, best of three at the top
    // rung (where scheduler noise is largest), one run below it.
    let fanout_events: u64 = if smoke { 2_000 } else { 6_000 };
    let fanout_once = FANOUT_LADDER
        .iter()
        .map(|&subs| {
            let runs = if subs == FANOUT_TOP { 3 } else { 1 };
            (0..runs)
                .map(|_| run_fanout(subs, fanout_events))
                .try_fold(0.0, |best, rate| rate.map(|rate| f64::max(best, rate)))
        })
        .collect::<io::Result<Vec<f64>>>()?;

    sdci_bench::print_table(
        &["transport", "throughput (events/s)", "delivered", "semantics"],
        &[
            vec![
                "push/pull".into(),
                format!("{pp_rate:.0}"),
                format!("{pp_recv}/{events}"),
                "blocking backpressure, no loss".into(),
            ],
            vec![
                "pub/sub".into(),
                format!("{ps_rate:.0}"),
                format!("{ps_recv}/{events}"),
                "HWM sheds load on slow consumers".into(),
            ],
            vec![
                "pub/sub batched x64".into(),
                format!("{psb_rate:.0}"),
                format!("{psb_recv}/{events}"),
                "amortizes per-message overhead".into(),
            ],
        ],
    );
    println!();
    sdci_bench::print_table(
        &["topic subscribers", "encode-once (deliveries/s)"],
        &FANOUT_LADDER
            .iter()
            .zip(&fanout_once)
            .map(|(subs, rate)| vec![format!("{subs}"), format!("{rate:.0}")])
            .collect::<Vec<_>>(),
    );

    assert_eq!(pp_recv, events, "push/pull may not lose events");
    println!(
        "\nbatching amortizes per-message broker overhead ({:.1}x vs unbatched pub/sub).",
        psb_rate / ps_rate,
    );

    let report = A4Report {
        bench: "a4_transports",
        mode: if smoke { "smoke" } else { "full" },
        events,
        producers: PRODUCERS,
        push_pull_events_per_sec: pp_rate,
        pubsub_events_per_sec: ps_rate,
        pubsub_batched_events_per_sec: psb_rate,
    };
    let out = "BENCH_a4_transports.json";
    write_report(out, &report)?;
    println!("\nwrote {out}");

    let fanout_report = A4FanoutReport {
        bench: "a4_consumer_scaling",
        mode: if smoke { "smoke" } else { "full" },
        events: fanout_events,
        publish_batch: FANOUT_PUBLISH_BATCH,
        topic_subscribers: FANOUT_LADDER.iter().map(|&s| s as u64).collect(),
        encode_once_deliveries_per_sec: fanout_once,
    };
    let fanout_out = "BENCH_a4_consumer_scaling.json";
    write_report(fanout_out, &fanout_report)?;
    println!("wrote {fanout_out}");
    Ok(())
}
