//! `sdcimon` — the monitor as a real deployment.
//!
//! With no subcommand, runs the original single-process live demo; with
//! one, runs that role of the distributed pipeline over `sdci-net` TCP,
//! so Collector → Aggregator → Consumer are three OS processes.
//! `sdcimon --help` prints every role and its flags, generated from the
//! one role table below ([`ROLES`]).
//!
//! **One address per role.** The server role, `aggregator`, binds
//! exactly one listener, at `--bind`: the Collector PUSH leg, the
//! consumer feed (PUB/SUB), the store-backfill RPC and the HTTP scrape
//! (`GET /metrics`, `/healthz`, `/tracez`) all answer there, told apart
//! by each connection's opening frame. `--connect` takes that one
//! address. The aggregator prints `listening on ADDR (...)` once ready
//! (with the resolved port when `--bind` used port 0).
//!
//! The store behind the aggregator is the segmented [`EventStore`]
//! under one metrics wrapper (the `sdci_store_*` series), put together
//! by [`StoreStack`].
//!
//! Every distributed role also takes `--faults SPEC` (or the
//! `SDCI_FAULTS` env var): a deterministic `sdci_faults::FaultPlan`
//! spec like `seed=42,drop=0.05,delay=0.1:2ms,partition=500ms@2s`
//! installed on that role's sockets, for chaos testing. Crash points
//! (`SDCI_CRASH_POINTS=store.flush.manifest_commit:1:abort,...`) kill
//! or fail the process at named store/net steps.
//!
//! Every distributed role takes `--trace-sample N` (or `1/N`; also the
//! `SDCI_TRACE_SAMPLE` env var) to head-sample 1-in-N distributed
//! traces. Server roles expose their span buffers as JSON at
//! `GET /tracez`; run-to-completion roles (collector, consumer) take
//! `--trace-out PATH` to dump the same JSON at exit. The aggregator's
//! `/healthz` turns 503 once ingest halts on a store rejection.
//!
//! `--snapshot DIR` flushes the store every 200 ms into a snapshot
//! *directory*: immutable per-segment `seg-*.bin` files written exactly
//! once, plus a generation-named `head-*.bin` and `MANIFEST.json` — so
//! steady-state flush I/O is proportional to new events, not the
//! retained window. The files hold the wire's member sequence in
//! checksummed blocks; the manifest is JSON, carries the per-collector
//! push dedup marks beside the store's layout, and its rename is the
//! one commit point: a restart restores one flush's store *and* that
//! flush's marks, so collectors that resend their unacked window are
//! deduplicated against events the snapshot already holds. A directory
//! of manifest version 1, or a `DIR.marks` sidecar left beside one, is
//! a start-up error. Events a hard kill catches acknowledged but not
//! yet flushed — at most one snapshot interval's worth — are the
//! durability window.

use parking_lot::Mutex;
use sdci::lustre::{DnePolicy, LustreConfig, LustreFs};
use sdci::monitor::{
    restore_snapshot, Aggregator, ClusterStats, Collector, ConsumerCursor, EventBackend,
    EventConsumer, EventStore, FeedMessage, MonitorClusterBuilder, MonitorConfig, SnapshotDir,
    StoreStack, INGEST_QUEUE_FRAMES,
};
use sdci::net::{
    Endpoint, NetConfig, RemoteStore, StoreServer, TcpBroker, TcpPullServer, TcpPush, TcpSubscriber,
};
use sdci::types::{ByteSize, FileEvent, MdtIndex, SimTime};
use sdci::workloads::{EventGenerator, OpMix};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A command-line flag: its name and the placeholder `--help` shows for
/// its value. An empty placeholder makes it a bare switch.
type Flag = (&'static str, &'static str);

/// One role of the deployment: what it is called, what it accepts,
/// what runs it. The argument parser and `--help` both read this table
/// and nothing else.
struct Role {
    /// The subcommand; empty for the single-process demo.
    name: &'static str,
    /// Flags the role cannot run without.
    required: &'static [Flag],
    /// Everything else it accepts, in groups shared between roles.
    optional: &'static [&'static [Flag]],
    run: fn(&Flags) -> Result<(), String>,
}

/// Every role with a socket: fault injection and head-sampled tracing.
const NET: &[Flag] = &[("--faults", "SPEC"), ("--trace-sample", "N")];
/// Roles that run to completion dump their spans at exit instead of
/// serving `/tracez`.
const TRACE_OUT: &[Flag] = &[("--trace-out", "PATH")];

const ROLES: &[Role] = &[
    Role {
        name: "",
        required: &[],
        optional: &[&[
            ("--testbed", "aws|iota"),
            ("--mdts", "N"),
            ("--seconds", "S"),
            ("--ops-per-tick", "N"),
            ("--no-cache", ""),
        ]],
        run: run_demo,
    },
    Role {
        name: "aggregator",
        required: &[],
        optional: &[&[("--bind", "ADDR"), ("--store-capacity", "N"), ("--snapshot", "DIR")], NET],
        run: run_aggregator,
    },
    Role {
        name: "collector",
        required: &[("--connect", "ADDR")],
        optional: &[&[("--client", "ID"), ("--files", "N")], NET, TRACE_OUT],
        run: run_collector,
    },
    Role {
        name: "consumer",
        required: &[("--connect", "ADDR")],
        optional: &[
            &[
                ("--expect", "N"),
                ("--under", "PREFIX"),
                ("--timeout", "SECS"),
                ("--cursor", "PATH"),
                ("--verbose", ""),
            ],
            NET,
            TRACE_OUT,
        ],
        run: run_consumer,
    },
];

impl Role {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.required.iter().chain(self.optional.iter().copied().flatten())
    }

    /// The role's `--help` line: required flags bare, the rest bracketed.
    fn usage(&self) -> String {
        let show = |(name, value): &Flag| match *value {
            "" => name.to_string(),
            value => format!("{name} {value}"),
        };
        let mut line = format!("sdcimon {}", self.name).trim_end().to_string();
        for flag in self.required {
            line.push_str(&format!(" {}", show(flag)));
        }
        for flag in self.optional.iter().copied().flatten() {
            line.push_str(&format!(" [{}]", show(flag)));
        }
        line
    }
}

fn main() {
    // Anchor the log timestamp offset at process start; filtering is
    // configured from SDCI_LOG (default: info).
    sdci_obs::log::init_from_env();
    // Arm any SDCI_CRASH_POINTS before worker threads spin up, so the
    // very first seal/flush/spawn can fire a scheduled crash.
    sdci_faults::init_from_env();
    // SDCI_TRACE_SAMPLE enables tracing before the first extraction;
    // the per-role --trace-sample flag overrides it once parsed.
    sdci_obs::trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        for role in ROLES {
            println!("{}", role.usage());
        }
        return;
    }
    let named = args.first().and_then(|a| ROLES.iter().find(|r| !r.name.is_empty() && r.name == a));
    let (role, args) = match named {
        Some(role) => (role, &args[1..]),
        None => (&ROLES[0], &args[..]),
    };
    if let Err(e) = Flags::parse(role, args).and_then(|flags| (role.run)(&flags)) {
        sdci_obs::error!(target: "sdcimon", "{}", e);
        std::process::exit(2);
    }
}

/// A role's parsed arguments: `(flag, value)` in command-line order, a
/// switch's value empty.
struct Flags<'a>(Vec<(&'static str, &'a str)>);

impl<'a> Flags<'a> {
    fn parse(role: &Role, args: &'a [String]) -> Result<Self, String> {
        let mut found = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let &(name, value) = role
                .flags()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown argument {arg}"))?;
            let value = match value {
                "" => "",
                _ => args.next().ok_or_else(|| format!("{arg} requires a value"))?,
            };
            found.push((name, value));
        }
        for (name, value) in role.required {
            if !found.iter().any(|(given, _)| given == name) {
                return Err(format!("{} requires {name} {value}", role.name));
            }
        }
        Ok(Flags(found))
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|(name, _)| *name == flag).map(|(_, value)| *value)
    }

    fn has(&self, switch: &str) -> bool {
        self.get(switch).is_some()
    }

    fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(flag) {
            Some(raw) => raw.parse().map_err(|e| format!("{flag}: {e}")),
            None => Ok(default),
        }
    }

    /// The value of a flag the role table marks required.
    fn required(&self, flag: &str) -> &'a str {
        // cannot fail: parsing refuses a command line that lacks a flag the role table marks required.
        self.get(flag).expect("required flags are checked when the arguments are parsed")
    }
}

/// Builds a role's [`NetConfig`], installing the deterministic fault
/// plan from `--faults SPEC` (the `SDCI_FAULTS` env var when the flag
/// is absent). A malformed spec is a startup error, never a silently
/// fault-free run.
fn net_config(flags: &Flags) -> Result<NetConfig, String> {
    let plan = match flags.get("--faults") {
        Some(spec) => Some(Arc::new(
            sdci_faults::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
        )),
        None => {
            sdci_faults::load_env_plan().map_err(|e| format!("{}: {e}", sdci_faults::ENV_FAULTS))?
        }
    };
    if let Some(plan) = &plan {
        sdci_obs::warn!(
            target: "sdcimon",
            "fault injection armed";
            plan = format!("{plan}"),
        );
    }
    Ok(NetConfig::default().with_faults(plan))
}

/// Applies a role's tracing flags: `--trace-sample N` (or `1/N`)
/// enables head sampling over the `SDCI_TRACE_SAMPLE` default, and the
/// process is named on `/tracez` output so a cross-process collector
/// can attribute spans.
fn trace_setup(flags: &Flags, role: &str) -> Result<(), String> {
    if let Some(raw) = flags.get("--trace-sample") {
        let n = raw.trim();
        let n = n.strip_prefix("1/").unwrap_or(n);
        let every: u64 = n.parse().map_err(|e| format!("--trace-sample: {e}"))?;
        sdci_obs::trace::set_sample_every(every);
    }
    sdci_obs::trace::set_process(role);
    Ok(())
}

/// Dumps this process's `/tracez` JSON to `--trace-out PATH` if set —
/// the exit-time escape hatch for roles (collector, consumer) that run
/// to completion without a metrics listener to scrape.
fn trace_dump(flags: &Flags) {
    if let Some(path) = flags.get("--trace-out") {
        if let Err(e) = std::fs::write(path, sdci_obs::trace::render_tracez()) {
            sdci_obs::warn!(target: "sdcimon", "trace dump to {path} failed: {}", e);
        }
    }
}

// ---------------------------------------------------------------------------
// aggregator
// ---------------------------------------------------------------------------

fn run_aggregator(flags: &Flags) -> Result<(), String> {
    trace_setup(flags, "aggregator")?;
    let bind: SocketAddr = flags.parse_or("--bind", SocketAddr::from(([127, 0, 0, 1], 7070)))?;
    let store_capacity: usize = flags.parse_or("--store-capacity", 1_000_000)?;

    let cfg = net_config(flags)?;
    // A crashed aggregator restarted with the same --snapshot resumes
    // its store, its sequence numbering *and* its push dedup marks —
    // one flush's state, from one manifest — so consumers recover the
    // outage as an ordinary gap, and the marks are in place before the
    // listener opens: even the first reconnecting collector is
    // deduplicated against the events the restored store already holds.
    let (snapshot, base_store, marks) = match flags.get("--snapshot").map(std::path::Path::new) {
        None => (None, EventStore::new(store_capacity), HashMap::new()),
        Some(path) => {
            // `open` refuses anything but a directory of this build's
            // form (creating one on a first start, which then restores
            // as an empty store).
            let dir = SnapshotDir::open(path)
                .map_err(|e| format!("--snapshot {}: {e}", path.display()))?;
            let (store, marks) = restore_snapshot(path, store_capacity)
                .map_err(|e| format!("restore {}: {e}", path.display()))?;
            if store.last_seq() > 0 {
                sdci_obs::info!(
                    target: "sdcimon::aggregator",
                    "restored store from snapshot";
                    events = store.len(),
                    last_seq = store.last_seq(),
                    push_clients = marks.len(),
                    path = path,
                );
            }
            (Some(dir), store, marks)
        }
    };
    let events_srv = TcpPullServer::<FileEvent>::with_marks(INGEST_QUEUE_FRAMES, marks);
    let base_store = Arc::new(base_store);
    let store = StoreStack::over(base_store.clone()).metered("sdci_store").build();
    // The feed: the ingest thread publishes into it, encoding each
    // publish once for the remote legs, whose queues `NetConfig::hwm` sizes.
    let feed = TcpBroker::<FeedMessage>::new();
    let agg = Aggregator::start(events_srv.pull(), store, Arc::clone(&feed));
    // /healthz flips to 503 the moment ingest halts on a store
    // rejection — the readiness signal a supervisor restarts on.
    agg.register_health_probe("aggregator");
    let endpoint =
        Endpoint::bind(bind, cfg, vec![events_srv.clone(), feed, StoreServer::new(agg.store())])
            .map_err(|e| format!("bind {bind}: {e}"))?;
    let addr = endpoint.local_addr();

    // Readiness line: tests, operators and the benchmark parse
    // "listening on ADDR" and the three named addresses after it.
    println!("sdcimon aggregator listening on {addr} (feed {addr}, store {addr}, metrics {addr})");

    let flush_time = sdci_obs::registry().histogram("sdci_store_flush_seconds");

    let mut ticks = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        ticks += 1;
        if let Some(dir) = &snapshot {
            // One commit point: the manifest this writes carries the
            // store and the marks captured after it. Events acked inside
            // one snapshot interval before a hard kill are the remaining
            // (documented) durability window.
            let _timer = flush_time.start_timer();
            if let Err(e) = dir.flush(&base_store, || events_srv.marks()) {
                sdci_obs::error!(target: "sdcimon::aggregator", "snapshot failed: {}", e);
            }
        }
        // Self-monitoring for log-only deployments: every 5 s, the same
        // registry snapshot the scrape serves, as a structured record.
        if ticks.is_multiple_of(25) {
            sdci_obs::info!(
                target: "sdcimon::metrics",
                "metrics snapshot";
                metrics = sdci_obs::log::Field::raw(sdci_obs::registry().render_json()),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// collector
// ---------------------------------------------------------------------------

fn run_collector(flags: &Flags) -> Result<(), String> {
    let client = flags.get("--client").unwrap_or("collector").to_string();
    trace_setup(flags, &client)?;
    let files: u64 = flags.parse_or("--files", 100)?;

    // Each collector process monitors its own (simulated) MDT and
    // drives a private workload under /<client>/.
    let lfs = Arc::new(Mutex::new(LustreFs::new(
        LustreConfig::builder(client.clone()).mdt_count(1).build(),
    )));
    let cfg = net_config(flags)?;

    let connect: SocketAddr =
        flags.required("--connect").parse().map_err(|e| format!("--connect: {e}"))?;
    let push = TcpPush::<FileEvent>::connect(connect, client.clone(), cfg);
    let collector = pump_collector(&lfs, &client, push.clone(), files)?;
    // The §5.2 guarantee hinges on this: exit only once every processed
    // event has been acknowledged by the aggregator.
    let drained = push.drain(Duration::from_secs(60));
    println!(
        "sdcimon collector {client}: {} events processed, {} acked, drained: {drained}",
        collector.stats().processed,
        push.acked()
    );
    trace_dump(flags);
    if drained {
        Ok(())
    } else {
        std::process::exit(1);
    }
}

/// Registers the Collector (a ChangeLog user sees only records
/// appended after registration), drives the `/{client}/f*` workload,
/// and runs until every event is processed. Acks and purges the
/// ChangeLog before returning.
fn pump_collector(
    lfs: &Arc<Mutex<LustreFs>>,
    client: &str,
    publisher: TcpPush<FileEvent>,
    files: u64,
) -> Result<Collector<TcpPush<FileEvent>>, String> {
    let mut collector =
        Collector::new(Arc::clone(lfs), MdtIndex::new(0), publisher, MonitorConfig::default());
    {
        let mut guard = lfs.lock();
        guard.mkdir(format!("/{client}"), SimTime::EPOCH).map_err(|e| e.to_string())?;
        for i in 0..files {
            guard
                .create(format!("/{client}/f{i}"), SimTime::from_nanos(i + 1))
                .map_err(|e| e.to_string())?;
        }
    }
    let total = lfs.lock().total_events();
    while collector.stats().processed < total {
        if collector.run_once() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    collector.ack_and_purge();
    Ok(collector)
}

// ---------------------------------------------------------------------------
// consumer
// ---------------------------------------------------------------------------

fn run_consumer(flags: &Flags) -> Result<(), String> {
    trace_setup(flags, "consumer")?;
    let verbose = flags.has("--verbose");
    let connect: SocketAddr =
        flags.required("--connect").parse().map_err(|e| format!("--connect: {e}"))?;
    let expect: Option<u64> = match flags.get("--expect") {
        Some(raw) => Some(raw.parse().map_err(|e| format!("--expect: {e}"))?),
        None => None,
    };
    let timeout = Duration::from_secs(flags.parse_or("--timeout", 30u64)?);

    let cfg = net_config(flags)?;
    // A durable cursor resumes the stream from the last *consumed*
    // sequence — not from "now" — so a restarted consumer backfills
    // everything published while it was down instead of skipping it.
    let cursor = flags.get("--cursor").map(ConsumerCursor::new);
    let start = match &cursor {
        Some(c) => c.load().map_err(|e| format!("--cursor: {e}"))?.unwrap_or(0),
        None => 0,
    };
    // The feed and the store it backfills from answer at one address.
    let feed = TcpSubscriber::connect(connect, &["feed/"], cfg.clone());
    let store = RemoteStore::connect(connect, cfg);
    let mut consumer = EventConsumer::new(feed, store, start);
    if let Some(prefix) = flags.get("--under") {
        consumer = consumer.under(prefix);
    }
    println!("sdcimon consumer reading feed at {connect} from seq {}", start + 1);

    let deadline = Instant::now() + timeout;
    let mut delivered: u64 = 0;
    let mut last_summary = Instant::now();
    while expect.is_none_or(|n| delivered < n) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // A periodic progress record keeps the quiet (non-verbose) mode
        // observable during long feeds.
        if now.duration_since(last_summary) >= Duration::from_secs(5) {
            last_summary = now;
            let stats = consumer.stats();
            sdci_obs::info!(
                target: "sdcimon::consumer",
                "consumer progress";
                delivered = stats.delivered,
                recovered = stats.recovered,
                lost = stats.lost,
            );
        }
        let step = (deadline - now).min(Duration::from_millis(500));
        if let Some(event) = consumer.next_timeout(step) {
            if verbose {
                println!("event {:?} {}", event.kind, event.path.display());
            }
            delivered += 1;
            // Checkpoint *after* the event is externally visible: a
            // crash at the armed point below restarts exactly at the
            // next sequence — nothing replayed, nothing skipped.
            if let Some(c) = &cursor {
                c.save(consumer.cursor()).map_err(|e| format!("cursor checkpoint: {e}"))?;
                if sdci_faults::crash_point("consumer.cursor.checkpoint").is_err() {
                    return Err("injected crash: consumer.cursor.checkpoint".into());
                }
            }
        }
    }
    let stats = consumer.stats();
    println!(
        "sdcimon consumer done: delivered {} recovered {} lost {} filtered {}",
        stats.delivered, stats.recovered, stats.lost, stats.filtered_out
    );
    trace_dump(flags);
    match expect {
        Some(n) if delivered < n => std::process::exit(1),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// single-process demo (the original sdcimon)
// ---------------------------------------------------------------------------

fn run_demo(flags: &Flags) -> Result<(), String> {
    let testbed = flags.get("--testbed").unwrap_or("iota");
    let mdts: u32 = flags.parse_or("--mdts", 4)?;
    let seconds: u64 = flags.parse_or("--seconds", 5)?;
    let ops_per_tick: u64 = flags.parse_or("--ops-per-tick", 20_000)?;
    let cache = !flags.has("--no-cache");

    let capacity = match testbed {
        "aws" => ByteSize::from_gib(20),
        "iota" => ByteSize::from_tib(897),
        other => return Err(format!("unknown testbed {other} (use aws or iota)")),
    };
    let config = LustreConfig::builder(testbed)
        .mdt_count(mdts)
        .ost_count(8)
        .capacity(capacity)
        .dne_policy(DnePolicy::HashByName)
        .build();
    println!(
        "sdcimon: {testbed} ({capacity} capacity, {mdts} MDTs), path cache {}",
        if cache { "on" } else { "off" }
    );

    let lfs = Arc::new(Mutex::new(LustreFs::new(config)));
    let monitor_config = MonitorConfig {
        path_cache_capacity: if cache { 4096 } else { 0 },
        ..MonitorConfig::default()
    };
    let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).config(monitor_config).start();
    let mut generator = EventGenerator::new(Arc::clone(&lfs), 32, OpMix::paper(), 1)
        .map_err(|e| format!("generator setup: {e}"))?;

    let mut tick_time = 0u64;
    let start = Instant::now();
    let mut last = (start, cluster.stats());

    println!("\n  t(s)  extract/s   process/s   publish/s  cache-hit  store-events");
    for second in 1..=seconds {
        let tick_deadline = start + Duration::from_secs(second);
        while Instant::now() < tick_deadline {
            generator
                .run(ops_per_tick, || {
                    tick_time += 1;
                    SimTime::from_nanos(tick_time * 100)
                })
                .map_err(|e| format!("workload: {e}"))?;
        }
        // Rates are the counters' deltas over the tick just ended.
        let now = (Instant::now(), cluster.stats());
        let elapsed = now.0.duration_since(last.0).as_secs_f64();
        let per_sec = |count: fn(&ClusterStats) -> u64| {
            count(&now.1).saturating_sub(count(&last.1)) as f64 / elapsed
        };
        println!(
            "  {second:>4}  {:>9.0}  {:>10.0}  {:>10.0}  {:>8.1}%  {:>12}",
            per_sec(ClusterStats::total_extracted),
            per_sec(ClusterStats::total_processed),
            per_sec(|stats| stats.aggregator.published),
            now.1.cache_hit_rate() * 100.0,
            cluster.store().len(),
        );
        last = now;
    }

    let total = lfs.lock().total_events();
    let caught_up = cluster.wait_for_published(total, Duration::from_secs(30));
    let stats = cluster.stats();
    println!(
        "\n{} events generated, {} processed, {} published; caught up: {caught_up}",
        total,
        stats.total_processed(),
        stats.aggregator.published
    );
    let report = lfs.lock().ost_report();
    println!("storage after run: {} used across {} OSTs", report.used, report.osts.len());
    cluster.shutdown();
    Ok(())
}
