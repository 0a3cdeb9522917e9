//! The real pipeline over TCP.
//!
//! ```text
//! generator -> LustreFs ChangeLog -> Collector (in-process) -> TcpPush
//!   ==socket==> `sdcimon aggregator` (child process: pull server, store,
//!   broker, store RPC) ==socket==> TcpSubscriber + RemoteStore
//!   -> EventConsumer (in-process)
//! ```
//!
//! Load is open-loop at a fixed rate: every 5 ms the feeder thread
//! applies one tick of operations and runs the collector, whether or not
//! earlier events have come back; each event's latency counts from the
//! instant its tick was *due*, so a stall shows as latency, not as less
//! load. Two working threads (feeder, consumer) plus the transport's own
//! socket threads; 10,000 events/s is a rate the two cores carry with
//! room to spare on every workload.
//!
//! What this leg can promise on a shared box is counts: bytes on the
//! wire and exactly-once delivery. Its times (delivery latency, the
//! child's CPU per event) are reported per layer but gate nothing: when
//! the host takes 40 % of the VM's CPU away for minutes at a time —
//! `host.steal_pct` says when — they triple. Nor does the child's peak
//! memory: the level its resident set settles at differs by up to 8 %
//! between runs of the same code.

use crate::oracle::Oracle;
use crate::spans::{Recorder, NO_PARENT};
use crate::sut::{Aggregator, Metrics, ProcSample, STORE_CAPACITY};
use crate::workload::{Expected, Generator, Rng, Workload, MDT};
use sdci_core::{Collector, ConsumerStats, EventConsumer, FeedMessage, MonitorConfig, StoreQuery};
use sdci_mq::pubsub::Message;
use sdci_mq::transport::{Publish, PublishOutcome, Subscribe};
use sdci_net::{NetConfig, RemoteStore, TcpPush, TcpSubscriber};
use sdci_types::FileEvent;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The open-loop schedule: 50 operations every 5 ms = 10,000 events/s.
const TICK: Duration = Duration::from_millis(5);
const OPS_PER_TICK: usize = 50;
/// The paced warm-up: a fixed 600 ticks (3 s, 30,000 events).
const WARM_TICKS: usize = 600;
const WARM_EVENTS: u64 = (WARM_TICKS * OPS_PER_TICK) as u64;
/// `backfill`: one store query per this many ticks (20 queries/s).
const QUERY_EVERY: usize = 10;
const QUERY_LIMIT: usize = 1_000;
/// How long after the window closes events may still be handed back.
const DRAIN: Duration = Duration::from_secs(5);
/// Traced runs end with this many closed-loop bursts of this many events.
const BURSTS: usize = 3;
const BURST_EVENTS: usize = 60_000;

/// The collector's publisher: the real `TcpPush`, plus — in a traced run
/// only — the time spent inside `send`.
#[derive(Clone)]
struct Push {
    inner: TcpPush<FileEvent>,
    traced: bool,
    send_ns: Arc<AtomicU64>,
}

impl Publish<FileEvent> for Push {
    fn publish(&self, topic: &str, payload: FileEvent) -> PublishOutcome {
        if !self.traced {
            return self.inner.publish(topic, payload);
        }
        let start = Instant::now();
        let outcome = self.inner.publish(topic, payload);
        self.send_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        outcome
    }
}

/// The consumer's feed: the real `TcpSubscriber`, shared so the feeder
/// can read its counters while the consumer owns the stream.
struct SharedFeed(Arc<TcpSubscriber<FeedMessage>>);

impl Subscribe<FeedMessage> for SharedFeed {
    fn recv(&self) -> Option<Message<FeedMessage>> {
        self.0.recv()
    }

    fn try_recv(&self) -> Option<Message<FeedMessage>> {
        self.0.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message<FeedMessage>> {
        self.0.recv_timeout(timeout)
    }
}

/// One event as the consumer handed it back.
struct HandBack {
    seq: u64,
    event: FileEvent,
    at: Instant,
}

/// Everything the TCP leg measured.
pub struct Outcome {
    /// Hand-back instant minus due instant, per window event, in ms.
    pub latencies_ms: Vec<f64>,
    /// How late each measured tick started, in ms.
    pub lateness_ms: Vec<f64>,
    pub window_events: u64,
    pub window_s: f64,
    /// Share of the VM's CPU time the hypervisor took during the window.
    pub steal_pct: f64,
    pub send_ns: u64,
    /// Events sent and not yet acknowledged, sampled at every tick.
    pub unacked: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub query_failures: u64,
    pub collector: sdci_core::CollectorStats,
    pub consumer: ConsumerStats,
    pub sub_dropped: u64,
    pub sub_reconnects: u64,
    pub push_reconnects: u64,
    pub push_resends: u64,
    pub push_frames: u64,
    pub push_framed_events: u64,
    /// Frames this process read that were neither acks nor store replies:
    /// the deliver leg's (batches and idle heartbeats).
    pub deliver_frames: u64,
    pub agg_start: (Metrics, ProcSample),
    pub agg_end: (Metrics, ProcSample),
    pub saturation_events_per_s: Vec<f64>,
    pub spans: Recorder,
}

/// CPU time of this VM so far, in scheduler ticks: `(all, stolen)`, from
/// the first line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .map(|cpu| cpu.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.iter().take(8).sum(), fields.get(7).copied().unwrap_or(0))
}

fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Blocks (sleeping, never spinning) until `count` reaches `target`.
fn wait_for(count: &AtomicU64, target: u64, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while count.load(Ordering::Acquire) < target {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    true
}

fn registry_counter(name: &str) -> u64 {
    sdci_obs::registry().counter(name).get()
}

struct Feeder<'a> {
    generator: &'a mut Generator,
    collector: Collector<Push>,
    push: TcpPush<FileEvent>,
    backfill: RemoteStore,
    expected: Vec<Expected>,
    offsets: Rng,
    spans: Recorder,
    lateness_ms: Vec<f64>,
    unacked: Vec<f64>,
    query_ms: Vec<f64>,
    query_failures: u64,
    page_failures: Vec<String>,
}

impl Feeder<'_> {
    /// Runs `ticks` ticks on the schedule starting at `start`.
    fn phase(&mut self, start: Instant, ticks: usize, measured: bool, queries: bool) {
        for t in 0..ticks {
            let query = queries && t % QUERY_EVERY == QUERY_EVERY - 1;
            self.tick(t as u32, start + TICK * t as u32, measured, query);
        }
    }

    /// One tick: apply the operations, run the collector until the
    /// ChangeLog is drained, and (on `backfill`) use the idle gap for a
    /// store query.
    fn tick(&mut self, unit: u32, due: Instant, measured: bool, query: bool) {
        sleep_until(due);
        let start = Instant::now();
        self.generator.apply(OPS_PER_TICK, &mut self.expected);
        let applied = Instant::now();
        while self.collector.run_once() > 0 {}
        let collected = Instant::now();
        if measured {
            self.lateness_ms.push((start - due).as_secs_f64() * 1e3);
            self.unacked.push(self.expected.len() as f64 - self.push.acked() as f64);
            let n = OPS_PER_TICK as u32;
            let tick = self.spans.open("tcp.tick", start, NO_PARENT, unit);
            self.spans.record("gen.apply", start, applied, tick, unit, n);
            self.spans.record("collector.run_once", applied, collected, tick, unit, n);
            self.spans.close(tick, collected, n);
        }
        if query {
            self.query(unit, measured);
        }
    }

    /// One `after_seq(s).limit(1000)` at a seeded offset inside the
    /// retained window; the page must equal the generated range.
    fn query(&mut self, unit: u32, measured: bool) {
        // Sequence numbers are positions in `expected` plus one. Stay
        // clear of both ends of the retained window: the newest events may
        // still be in flight, the oldest may rotate out mid-query.
        let sent = self.expected.len();
        let margin = STORE_CAPACITY / 8;
        if sent < 2 * margin + QUERY_LIMIT {
            return;
        }
        let retained = sent.min(STORE_CAPACITY);
        let span = retained - 2 * margin - QUERY_LIMIT;
        let after = sent - retained + margin + self.offsets.below(span.max(1));
        let start = Instant::now();
        let result =
            self.backfill.try_query(&StoreQuery::after_seq(after as u64).limit(QUERY_LIMIT));
        let end = Instant::now();
        let failure = match result {
            Ok(events) => {
                if measured {
                    self.query_ms.push((end - start).as_secs_f64() * 1e3);
                }
                let n = events.len() as u32;
                self.spans.record("net.store_rpc.try_query", start, end, NO_PARENT, unit, n);
                let want = &self.expected[after..after + QUERY_LIMIT];
                let equal = events.len() == QUERY_LIMIT
                    && events.iter().zip(want).enumerate().all(|(k, (got, want))| {
                        got.seq == (after + 1 + k) as u64
                            && got.event.index == want.index
                            && got.event.path.to_str() == Some(want.path.as_str())
                    });
                (!equal).then(|| {
                    format!(
                        "backfill page after seq {after}: {} events, expected the {QUERY_LIMIT} generated ones",
                        events.len()
                    )
                })
            }
            Err(e) => {
                self.query_failures += 1;
                Some(format!("backfill query after seq {after} failed: {e}"))
            }
        };
        self.page_failures.extend(failure);
    }
}

/// The pipeline, set up and warm: child running, sessions connected, the
/// paced warm-up's events all handed back.
pub struct Pipeline<'a> {
    agg: Aggregator,
    push: TcpPush<FileEvent>,
    feed: Arc<TcpSubscriber<FeedMessage>>,
    feeder: Feeder<'a>,
    queries: bool,
    traced: bool,
    handed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    consumer_thread: Option<JoinHandle<(Vec<HandBack>, ConsumerStats)>>,
    send_ns: Arc<AtomicU64>,
    pub spawn_connect_s: f64,
    pub warmup_s: f64,
}

/// What is left when the pipeline is closed.
struct Closed {
    handbacks: Vec<HandBack>,
    consumer: ConsumerStats,
    collector: sdci_core::CollectorStats,
}

impl Drop for Pipeline<'_> {
    /// Stops and joins the consumer thread on the exit paths that did not
    /// close the pipeline (`close` reports that thread's panic, this does
    /// not); the child dies with its handle.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.consumer_thread.take() {
            let _ = thread.join();
        }
    }
}

impl<'a> Pipeline<'a> {
    /// Set-up: spawns the child, connects the sessions, starts the
    /// consumer thread and runs the 3 s paced warm-up.
    pub fn start(
        workload: Workload,
        seed: u64,
        generator: &'a mut Generator,
        sdcimon: &Path,
        log: &Path,
        traced: bool,
        epoch: Instant,
    ) -> Result<Pipeline<'a>, String> {
        let spawn_start = Instant::now();
        let agg = Aggregator::spawn(sdcimon, log)?;
        let cfg = NetConfig::default();
        let push = TcpPush::<FileEvent>::connect(agg.events_addr, "bench", cfg.clone());
        let feed =
            Arc::new(TcpSubscriber::<FeedMessage>::connect(agg.feed_addr, &["feed/"], cfg.clone()));
        let store = RemoteStore::connect(agg.store_addr, cfg.clone());
        let mut consumer = EventConsumer::new(SharedFeed(Arc::clone(&feed)), store, 0);
        // Both sessions must be up before the first event: an event
        // published before the subscriber's hello is only ever recovered,
        // not delivered.
        let connected = Instant::now() + Duration::from_secs(10);
        while push.connections() == 0 || feed.connections() == 0 {
            if Instant::now() >= connected {
                return Err("push or feed session did not connect within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let send_ns = Arc::new(AtomicU64::new(0));
        let publisher = Push { inner: push.clone(), traced, send_ns: Arc::clone(&send_ns) };
        let collector = Collector::new(generator.fs(), MDT, publisher, MonitorConfig::default());
        let spawn_connect_s = spawn_start.elapsed().as_secs_f64();

        let handed = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer_thread = {
            let (handed, stop) = (Arc::clone(&handed), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-consumer".into())
                .spawn(move || {
                    let mut out: Vec<HandBack> = Vec::with_capacity(1 << 18);
                    while !stop.load(Ordering::Acquire) {
                        if let Some(event) = consumer.next_timeout(Duration::from_millis(20)) {
                            let at = Instant::now();
                            out.push(HandBack { seq: consumer.cursor(), event, at });
                            handed.fetch_add(1, Ordering::Release);
                        }
                    }
                    (out, consumer.stats())
                })
                .map_err(|e| format!("spawn consumer thread: {e}"))?
        };
        let feeder = Feeder {
            generator,
            collector,
            push: push.clone(),
            backfill: RemoteStore::connect(agg.store_addr, cfg),
            expected: Vec::with_capacity(1 << 19),
            offsets: Rng::new(seed ^ 0xbac1_f111),
            spans: Recorder::new(epoch, traced),
            lateness_ms: Vec::new(),
            unacked: Vec::new(),
            query_ms: Vec::new(),
            query_failures: 0,
            page_failures: Vec::new(),
        };
        let mut pipeline = Pipeline {
            agg,
            push,
            feed,
            feeder,
            queries: workload == Workload::Backfill,
            traced,
            handed,
            stop,
            consumer_thread: Some(consumer_thread),
            send_ns,
            spawn_connect_s,
            warmup_s: 0.0,
        };

        // Paced warm-up: a fixed event count at the workload's own
        // schedule, so set-up time is dominated by the clock, not by CPU
        // wobble.
        let warm_start = Instant::now();
        pipeline.feeder.phase(warm_start, WARM_TICKS, false, pipeline.queries);
        if !wait_for(&pipeline.handed, WARM_EVENTS, Duration::from_secs(10)) {
            let back = pipeline.handed.load(Ordering::Acquire);
            return Err(format!("warm-up: {back} of {WARM_EVENTS} events back after 10 s"));
        }
        pipeline.warmup_s = warm_start.elapsed().as_secs_f64();
        Ok(pipeline)
    }

    /// Stops the consumer thread and gives `oracle` everything generated,
    /// everything handed back, and the counters that must have stayed at
    /// zero.
    fn close(&mut self, oracle: &mut Oracle) -> Result<Closed, String> {
        self.stop.store(true, Ordering::Release);
        let thread = self.consumer_thread.take().expect("closed once");
        let (handbacks, consumer) =
            thread.join().map_err(|_| "consumer thread panicked".to_string())?;
        let collector = self.feeder.collector.stats();
        oracle.expect(self.feeder.expected.drain(..));
        for h in &handbacks {
            oracle.deliver(h.seq, h.event.index, h.event.path.to_str().unwrap_or(""));
        }
        oracle.counter_must_be_zero("collector.shed", collector.shed);
        oracle.counter_must_be_zero("collector.resolution_failures", collector.resolution_failures);
        oracle.counter_must_be_zero("net.pubsub.dropped", self.feed.dropped());
        oracle.counter_must_be_zero("consumer.lost", consumer.lost);
        for failure in &self.feeder.page_failures {
            oracle.violation(failure);
        }
        // Leave the ChangeLog to the next leg's collector.
        let user = self.feeder.collector.checkpoint().user;
        let _ = self.feeder.generator.fs().lock().changelog_mut(MDT).deregister_user(user);
        Ok(Closed { handbacks, consumer, collector })
    }

    /// Ends a set-up that is not going to be measured (see `main.rs`,
    /// `SETUPS`): the warm-up's events are checked like any others.
    pub fn discard(mut self, oracle: &mut Oracle) -> Result<(), String> {
        self.close(oracle).map(|_| ())
    }

    /// `seconds` of measured open-loop load, then (traced runs only) the
    /// saturation bursts; closes the pipeline.
    pub fn measure(mut self, oracle: &mut Oracle, seconds: f64) -> Result<Outcome, String> {
        let ticks = ((seconds / TICK.as_secs_f64()).round() as usize).max(1);
        let frames_in_before = registry_counter("sdci_net_frames_in_total");
        let batch_hist = sdci_obs::registry().histogram("sdci_net_batch_size");
        let (frames_before, framed_before) = (batch_hist.count(), batch_hist.sum_ns());
        let resends_before = registry_counter("sdci_net_push_resends_total");
        // The warm-up's share of what the feeder has counted so far.
        let send_ns_before = self.send_ns.load(Ordering::Relaxed);
        let query_failures_before = self.feeder.query_failures;
        let agg_start = (self.agg.scrape()?, self.agg.proc_sample());
        let (cpu_before, steal_before) = cpu_ticks();
        let window_start = Instant::now();
        self.feeder.phase(window_start, ticks, true, self.queries);
        let window_events = (ticks * OPS_PER_TICK) as u64;
        let all_back = wait_for(&self.handed, WARM_EVENTS + window_events, DRAIN);
        let window_s = window_start.elapsed().as_secs_f64();
        let (cpu_after, steal_after) = cpu_ticks();
        let agg_end = (self.agg.scrape()?, self.agg.proc_sample());
        let frames_in = registry_counter("sdci_net_frames_in_total") - frames_in_before;
        let push_frames = batch_hist.count() - frames_before;
        // The histogram records a batch of n events as n seconds.
        let push_framed_events = (batch_hist.sum_ns() - framed_before) / 1_000_000_000;
        let push_resends = registry_counter("sdci_net_push_resends_total") - resends_before;
        let query_failures = self.feeder.query_failures - query_failures_before;
        let queries_made = self.feeder.query_ms.len() as u64 + query_failures;
        let send_ns = self.send_ns.load(Ordering::Relaxed) - send_ns_before;

        // Saturation, traced runs only and after every end-to-end number
        // is taken: closed-loop bursts (the push window is the only
        // brake), so the events/s the ROADMAP asks for exists — with its
        // spread, and gating nothing.
        let mut saturation = Vec::new();
        if self.traced && all_back {
            for _ in 0..BURSTS {
                let before = self.handed.load(Ordering::Acquire);
                let start = Instant::now();
                let mut sent = 0;
                while sent < BURST_EVENTS {
                    self.feeder.generator.apply(256, &mut self.feeder.expected);
                    while self.feeder.collector.run_once() > 0 {}
                    sent += 256;
                }
                if !wait_for(&self.handed, before + sent as u64, Duration::from_secs(30)) {
                    break;
                }
                saturation.push(sent as f64 / start.elapsed().as_secs_f64());
            }
        }
        let base_index = self.feeder.expected.first().map_or(0, |e| e.index);
        let closed = self.close(oracle)?;

        // Latency of each window event, from the instant its tick was due.
        let first = WARM_EVENTS as usize;
        let mut latencies_ms = Vec::with_capacity(window_events as usize);
        for h in &closed.handbacks {
            let position = (h.event.index - base_index) as usize;
            if (first..first + window_events as usize).contains(&position) {
                let due = window_start + TICK * ((position - first) / OPS_PER_TICK) as u32;
                latencies_ms.push(h.at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }

        Ok(Outcome {
            latencies_ms,
            lateness_ms: std::mem::take(&mut self.feeder.lateness_ms),
            window_events,
            window_s,
            steal_pct: 100.0 * (steal_after - steal_before) as f64
                / (cpu_after - cpu_before).max(1) as f64,
            send_ns,
            unacked: std::mem::take(&mut self.feeder.unacked),
            query_ms: std::mem::take(&mut self.feeder.query_ms),
            query_failures,
            collector: closed.collector,
            consumer: closed.consumer,
            sub_dropped: self.feed.dropped(),
            sub_reconnects: self.feed.connections().saturating_sub(1),
            push_reconnects: self.push.connections().saturating_sub(1),
            push_resends,
            push_frames,
            push_framed_events,
            deliver_frames: frames_in.saturating_sub(push_frames + queries_made),
            agg_start,
            agg_end,
            saturation_events_per_s: saturation,
            spans: std::mem::replace(&mut self.feeder.spans, Recorder::new(window_start, false)),
        })
    }
}
