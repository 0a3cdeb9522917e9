//! chaos: a deterministic fault-schedule explorer for the lossless push
//! leg and the snapshot flush path.
//!
//! Each round derives a randomized-but-reproducible schedule from
//! `base seed + round`: drop/duplicate/truncate/delay probabilities
//! (sometimes a scripted partition window) installed on four pusher
//! clients feeding one in-process `TcpPullServer`, plus one crash-point
//! error injected at a randomly chosen snapshot flush step. The
//! invariants are the §5.2 guarantees: every event arrives exactly
//! once, in per-producer order; a flush failed at any step leaves the
//! previous manifest restorable; the post-failure flush commits.
//!
//! A failing round writes its full schedule to
//! `CHAOS_failing_schedule.json` (seed, spec, crash point, repro
//! command line) and exits non-zero; a clean run writes
//! `BENCH_chaos.json`. CI runs `--smoke`: fixed base seed, three
//! rounds, bounded wall-clock.
//!
//! ```text
//! chaos [--smoke] [--seed N] [--rounds N] [--events N]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdci_core::{restore_snapshot, EventStore, SequencedEvent, SnapshotDir};
use sdci_faults::{arm, disarm_all, CrashMode, FaultPlan};
use sdci_net::{Endpoint, NetConfig, RetryPolicy, TcpPullServer, TcpPush};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const PRODUCERS: u64 = 4;

/// The flush steps a round may fail at (one per round, chosen by the
/// round's RNG).
const FLUSH_POINTS: [&str; 3] =
    ["store.flush.segment", "store.flush.head", "store.flush.manifest_commit"];

/// One round's complete schedule — everything needed to replay it.
#[derive(Serialize, Clone)]
struct Schedule {
    round: u64,
    seed: u64,
    spec: String,
    crash_point: &'static str,
    events: u64,
    producers: u64,
}

#[derive(Serialize)]
struct FailingSchedule {
    schedule: Schedule,
    failure: String,
    reproduce: String,
}

/// The machine-readable result CI archives (`BENCH_chaos.json`).
#[derive(Serialize)]
struct ChaosReport {
    bench: &'static str,
    mode: &'static str,
    base_seed: u64,
    rounds: u64,
    events_per_round: u64,
    producers: u64,
    faults_injected: u64,
    gap_nacks: u64,
    crash_points_fired: u64,
    min_events_per_sec: f64,
    mean_events_per_sec: f64,
}

fn event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new((i % PRODUCERS) as u32),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(i),
        path: format!("/chaos/dir{}/file{}", i % 64, i).into(),
        src_path: None,
        target: Fid::new(0x200, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

fn sev(seq: u64) -> SequencedEvent {
    SequencedEvent { seq, event: event(seq) }
}

/// Tight timers so partition windows and truncation-killed connections
/// recover in milliseconds, keeping every round's wall-clock bounded.
/// `max_batch` is held small: fault decisions are per frame, so small
/// batches mean each round draws hundreds of decisions instead of a
/// handful of jumbo `ItemBatch` frames sailing through untouched.
fn fast_cfg() -> NetConfig {
    NetConfig {
        hwm: 16_384,
        window: 256,
        max_batch: 16,
        retry: RetryPolicy { base: Duration::from_millis(10), max: Duration::from_millis(100) },
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_millis(400),
        ..NetConfig::default()
    }
}

/// Samples one round's wire schedule. Probabilities stay mild enough
/// that the bounded drain always converges, hostile enough that every
/// round injects faults.
fn sample_spec(seed: u64, rng: &mut StdRng) -> String {
    let drop: f64 = rng.gen_range(0.01..0.10);
    let dup: f64 = rng.gen_range(0.0..0.08);
    let trunc: f64 = rng.gen_range(0.0..0.05);
    let delay_p: f64 = rng.gen_range(0.0..0.08);
    let delay_us: u64 = rng.gen_range(200..2000);
    let mut spec = format!(
        "seed={seed},drop={drop:.3},dup={dup:.3},trunc={trunc:.3},delay={delay_p:.3}:{delay_us}us"
    );
    if rng.gen_bool(0.25) {
        let len_ms: u64 = rng.gen_range(20..80);
        let at_ms: u64 = rng.gen_range(100..400);
        spec.push_str(&format!(",partition={len_ms}ms@{at_ms}ms"));
    }
    spec
}

/// Sum of every injected-fault counter in the process registry.
fn injected_total() -> u64 {
    let reg = sdci_obs::registry();
    let mut total = 0;
    for dir in ["send", "recv"] {
        for kind in ["drop", "duplicate", "delay", "truncate", "partition"] {
            total += reg
                .counter_with("sdci_faults_injected_total", &[("dir", dir), ("kind", kind)])
                .get();
        }
    }
    total
}

/// Four faulted pushers into one clean pull server: exactly-once, in
/// per-producer order, with the server's item count agreeing. Returns
/// (elapsed, gap nacks) or the invariant violation.
fn wire_round(schedule: &Schedule) -> Result<(Duration, u64), String> {
    let plan =
        Arc::new(FaultPlan::parse(&schedule.spec).map_err(|e| format!("spec rejected: {e}"))?);
    let server = TcpPullServer::<FileEvent>::new(65_536);
    let endpoint = Endpoint::bind("127.0.0.1:0", fast_cfg(), vec![server.clone()])
        .map_err(|e| format!("bind pull server: {e}"))?;
    let addr = endpoint.local_addr();
    let events = schedule.events;
    let per_producer = events / PRODUCERS;
    let start = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let cfg = fast_cfg().with_faults(Some(Arc::clone(&plan)));
            thread::spawn(move || {
                let push = TcpPush::<FileEvent>::connect(addr, format!("chaos-p{p}"), cfg);
                for i in 0..per_producer {
                    if !push.send(event(p * 1_000_000 + i)) {
                        return false;
                    }
                }
                push.drain(Duration::from_secs(60))
            })
        })
        .collect();

    let pull = server.pull();
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS as usize];
    let deadline = Instant::now() + Duration::from_secs(90);
    let mut received = 0u64;
    while received < events && Instant::now() < deadline {
        let Some(frame) = pull.recv_timeout(Duration::from_secs(5)) else { continue };
        for ev in frame {
            got[(ev.index / 1_000_000) as usize].push(ev.index % 1_000_000);
            received += 1;
        }
    }
    for (p, producer) in producers.into_iter().enumerate() {
        if !sdci_bench::joined(producer) {
            return Err(format!("producer {p} did not drain within its bounded retries"));
        }
    }
    let elapsed = start.elapsed();
    if received != events {
        return Err(format!("delivered {received} of {events} events"));
    }
    for (p, indices) in got.iter().enumerate() {
        let expected: Vec<u64> = (0..per_producer).collect();
        if indices != &expected {
            return Err(format!(
                "producer {p}: stream lost order or events (got {} items)",
                indices.len()
            ));
        }
    }
    let stats = server.stats();
    if stats.items != events {
        return Err(format!("server item count {} != {events}", stats.items));
    }
    endpoint.shutdown();
    Ok((elapsed, stats.nacks))
}

/// A flush failed at the round's crash point must leave the previous
/// manifest restorable, and the next flush must commit everything.
fn store_round(schedule: &Schedule) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!(
        "sdci-chaos-bench-{}-{}",
        std::process::id(),
        schedule.round
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let store = EventStore::with_segment_size(4096, 16);
        for i in 1..=64 {
            store.insert(sev(i)).map_err(|e| format!("insert: {e}"))?;
        }
        let snap = SnapshotDir::open(&dir).map_err(|e| format!("open snapshot: {e}"))?;
        snap.flush(&store, HashMap::new).map_err(|e| format!("clean flush failed: {e}"))?;
        for i in 65..=96 {
            store.insert(sev(i)).map_err(|e| format!("insert: {e}"))?;
        }
        arm(schedule.crash_point, 1, CrashMode::Error);
        match snap.flush(&store, HashMap::new) {
            Ok(_) => return Err(format!("armed {} did not fire", schedule.crash_point)),
            Err(e) if e.to_string().contains(schedule.crash_point) => {}
            Err(e) => return Err(format!("wrong failure at {}: {e}", schedule.crash_point)),
        }
        let (committed, _) = restore_snapshot(&dir, 4096).map_err(|e| {
            format!("failed flush at {} broke the snapshot: {e}", schedule.crash_point)
        })?;
        if committed.last_seq() != 64 {
            return Err(format!(
                "failed flush at {} moved the commit point to seq {}",
                schedule.crash_point,
                committed.last_seq()
            ));
        }
        snap.flush(&store, HashMap::new).map_err(|e| format!("post-failure flush failed: {e}"))?;
        let (full, _) = restore_snapshot(&dir, 4096).map_err(|e| format!("final restore: {e}"))?;
        if full.last_seq() != 96 {
            return Err(format!("final restore stopped at seq {}", full.last_seq()));
        }
        Ok(())
    })();
    disarm_all();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn fail(schedule: &Schedule, base_seed: u64, failure: String) -> ! {
    let report = FailingSchedule {
        schedule: schedule.clone(),
        failure: failure.clone(),
        reproduce: format!(
            "cargo run --release -p sdci-bench --bin chaos -- --seed {} --rounds 1 --events {}",
            schedule.seed, schedule.events
        ),
    };
    let out = "CHAOS_failing_schedule.json";
    if let Err(e) = sdci_bench::write_report(out, &report) {
        eprintln!("could not write {out}: {e}");
    }
    eprintln!(
        "\nCHAOS FAILURE (base seed {base_seed}, round {}, seed {}): {failure}\n\
         schedule written to {out}; replay with: {}",
        schedule.round, schedule.seed, report.reproduce
    );
    std::process::exit(1);
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| -> Option<u64> {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} wants an integer"))
        })
    };
    let base_seed = flag("--seed").unwrap_or(0xC1A05);
    let rounds = flag("--rounds").unwrap_or(if smoke { 3 } else { 12 });
    let events = flag("--events").unwrap_or(if smoke { 4_000 } else { 20_000 });

    println!("== chaos: fault-schedule explorer{} ==", if smoke { " (smoke)" } else { "" });
    println!(
        "({rounds} rounds, {events} events/round, {PRODUCERS} producers, base seed {base_seed})\n"
    );

    let injected_before = injected_total();
    let mut gap_nacks = 0u64;
    let mut rates = Vec::new();
    for round in 0..rounds {
        let seed = base_seed + round;
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = Schedule {
            round,
            seed,
            spec: sample_spec(seed, &mut rng),
            crash_point: FLUSH_POINTS[rng.gen_range(0..FLUSH_POINTS.len())],
            events,
            producers: PRODUCERS,
        };
        let before = injected_total();
        let (elapsed, nacks) = match wire_round(&schedule) {
            Ok(ok) => ok,
            Err(failure) => fail(&schedule, base_seed, failure),
        };
        if let Err(failure) = store_round(&schedule) {
            fail(&schedule, base_seed, failure);
        }
        gap_nacks += nacks;
        rates.push(events as f64 / elapsed.as_secs_f64());
        println!(
            "round {round:>2}  seed {seed:<8}  {:>7.2}s  {:>6} faults  {nacks:>3} gap nacks  \
             crash {}  ok",
            elapsed.as_secs_f64(),
            injected_total() - before,
            schedule.crash_point,
        );
    }

    let faults_injected = injected_total() - injected_before;
    let min_rate = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
    println!(
        "\nall {rounds} schedules survived: exactly-once delivery held under {faults_injected} \
         injected faults ({gap_nacks} server gap nacks), and every mid-flush failure left \
         the snapshot restorable."
    );

    let report = ChaosReport {
        bench: "chaos",
        mode: if smoke { "smoke" } else { "full" },
        base_seed,
        rounds,
        events_per_round: events,
        producers: PRODUCERS,
        faults_injected,
        gap_nacks,
        crash_points_fired: rounds,
        min_events_per_sec: min_rate,
        mean_events_per_sec: mean_rate,
    };
    let out = "BENCH_chaos.json";
    sdci_bench::write_report(out, &report)?;
    println!("wrote {out}");
    Ok(())
}
