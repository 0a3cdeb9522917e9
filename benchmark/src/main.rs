//! `sdci-pipeline-bench` — the calibrated pipeline benchmark.
//!
//! ```text
//! sdci-pipeline-bench --workload steady|backfill|resolve --seed N
//!                     --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload in two shapes: the real pipeline over
//! TCP through a spawned `sdcimon aggregator` (`tcp.rs`), then the same
//! job as a serial chain on one thread (`serial.rs`). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of `report.rs` with
//! `--trace 0`, the per-layer ones with `--trace 1`. See `README.md`.

mod alloc;
mod calib;
mod oracle;
mod probes;
mod report;
mod serial;
mod spans;
mod stats;
mod sut;
mod tcp;
mod workload;

use calib::{Calibrated, Sample};
use oracle::Oracle;
use report::Values;
use serial::{Chain, Layer, Slice, COUNTED_SLICES};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcp::Pipeline;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Share of `--seconds` the TCP leg measures; the serial leg gets the
/// rest: its calibrated CPU time is what needs the samples.
const TCP_SHARE: f64 = 1.0 / 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value} (steady, backfill, resolve)")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err(format!("--seconds {s}: expected 1 to 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// A path the one command must hand over in the environment.
fn env_path(name: &str) -> Result<PathBuf, String> {
    std::env::var_os(name)
        .map(PathBuf::from)
        .ok_or_else(|| format!("{name} is not set (run benchmark/run.sh)"))
}

/// Everything the oracles of one run found.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn add(&mut self, oracle: Oracle) {
        let verdict = oracle.finish();
        for detail in &verdict.details {
            eprintln!("bench: oracle: {detail}");
        }
        self.attempted += verdict.attempted;
        self.failed += verdict.failed;
    }
}

/// One whole set-up that is timed and then thrown away: the same stages
/// in the same order as the measured one (namespace, child, sessions,
/// paced warm-up; then the chain's store pre-fill and warm-up slice),
/// without the measuring in between.
fn rehearse_setup(
    args: &Args,
    sdcimon: &Path,
    log: &Path,
    checked: &mut Checked,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut generator = workload::Generator::build(args.workload, args.seed);
    let build_s = start.elapsed().as_secs_f64();
    let mut oracle = Oracle::new();
    let pipeline =
        Pipeline::start(args.workload, args.seed, &mut generator, sdcimon, log, false, start)?;
    let tcp_s = pipeline.spawn_connect_s + pipeline.warmup_s;
    pipeline.discard(&mut oracle)?;
    checked.add(oracle);
    let mut oracle = Oracle::new();
    let serial_s = Chain::start(args.workload, &mut generator, &mut oracle, start).setup_s;
    checked.add(oracle);
    Ok(build_s + tcp_s + serial_s)
}

/// The calibrated median over `slices` of a CPU-bound per-slice value.
fn calibrated(slices: &[&Slice], value: impl Fn(&Slice) -> Option<f64>) -> Option<Calibrated> {
    let samples: Vec<Sample> =
        slices.iter().filter_map(|s| value(s).map(|v| s.sample(v))).collect();
    (!samples.is_empty()).then(|| calib::calibrate(&samples))
}

/// Calibrated µs per event of one layer, over the events that layer
/// handled.
fn layer_us(slices: &[&Slice], layer: Layer) -> f64 {
    let l = layer as usize;
    calibrated(slices, |s| {
        (s.layer_events[l] > 0).then(|| s.layer_ns[l] as f64 / 1e3 / s.layer_events[l] as f64)
    })
    .map_or(0.0, |c| c.median)
}

/// The raw series behind the calibrated metrics, one line per slice: what
/// the nominal and the exponent are re-derived from, and what to look at
/// when a run disagrees.
fn write_slices(path: &Path, slices: &[Slice]) -> Result<(), String> {
    let mut csv = String::from(
        "slice,traced,events,calib_before_ms,calib_after_ms,chain_us_per_event,allocs,wire_bytes",
    );
    for layer in Layer::ALL {
        csv.push_str(&format!(",{}_ns", layer.span()));
    }
    csv.push('\n');
    for (k, s) in slices.iter().enumerate() {
        csv.push_str(&format!(
            "{k},{},{},{:.4},{:.4},{:.5},{},{}",
            u8::from(s.traced),
            s.events,
            s.calib_before_ms,
            s.calib_after_ms,
            s.chain_us_per_event(),
            s.allocs,
            s.wire_bytes()
        ));
        for ns in s.layer_ns {
            csv.push_str(&format!(",{ns}"));
        }
        csv.push('\n');
    }
    std::fs::write(path, csv).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let sdcimon = env_path("SDCI_BENCH_SDCIMON")?;
    let out = env_path("SDCI_BENCH_OUT")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let name = args.workload.name();
    let log = out.join(format!("aggregator-{name}.log"));
    let mut values = Values::default();
    let mut checked = Checked::default();
    // Three set-ups a run, spread over it — one before the measured one,
    // the measured one (its chain half runs after the TCP window), one at
    // the end — and `setup_s` is their median: a set-up's CPU-bound part
    // (namespace build, store pre-fill; an eighth of it on `resolve`)
    // takes 1x, 1.5x or 2x as long depending on the state the core is in
    // that second.
    let mut setups = vec![rehearse_setup(&args, &sdcimon, &log, &mut checked)?];

    // The measured set-up, part one: the namespace.
    let epoch = Instant::now();
    let mut generator = workload::Generator::build(args.workload, args.seed);
    let build_s = epoch.elapsed().as_secs_f64();

    // The real pipeline over TCP.
    let mut oracle = Oracle::new();
    let pipeline = Pipeline::start(
        args.workload,
        args.seed,
        &mut generator,
        &sdcimon,
        &log,
        args.traced,
        epoch,
    )?;
    let (spawn_connect_s, warmup_s) = (pipeline.spawn_connect_s, pipeline.warmup_s);
    let tcp = pipeline.measure(&mut oracle, args.seconds * TCP_SHARE)?;
    checked.add(oracle);

    // The serial chain.
    let mut oracle = Oracle::new();
    let chain = Chain::start(args.workload, &mut generator, &mut oracle, epoch);
    let serial_setup_s = chain.setup_s;
    let serial = chain.measure(args.seconds * (1.0 - TCP_SHARE), args.traced);
    oracle.counter_must_be_zero("collector.shed", serial.collector.shed);
    oracle.counter_must_be_zero(
        "collector.resolution_failures",
        serial.collector.resolution_failures,
    );
    oracle.counter_must_be_zero("consumer.lost", serial.consumer.lost);
    checked.add(oracle);
    write_slices(&out.join(format!("slices-{name}.csv")), &serial.slices)?;

    setups.push(build_s + spawn_connect_s + warmup_s + serial_setup_s);
    setups.push(rehearse_setup(&args, &sdcimon, &log, &mut checked)?);
    let Checked { attempted, failed } = checked;
    eprintln!("bench: set-ups took {setups:.3?} s");

    // End-to-end metrics: the set-ups' clock, and counts — over the first
    // COUNTED_SLICES slices of every run, and over the TCP window.
    let counted = &serial.slices[..COUNTED_SLICES];
    let counted_events: u64 = counted.iter().map(|s| s.events).sum();
    let per_counted_event =
        |f: fn(&Slice) -> u64| counted.iter().map(f).sum::<u64>() as f64 / counted_events as f64;
    let (metrics_start, proc_start) = &tcp.agg_start;
    let (metrics_end, proc_end) = &tcp.agg_end;
    let delta = |name: &str| metrics_end.get(name) - metrics_start.get(name);
    let net_bytes = delta("sdci_net_bytes_in_total") + delta("sdci_net_bytes_out_total");
    if tcp.latencies_ms.is_empty() {
        return Err("no window event was handed back".into());
    }
    let handed_back = tcp.latencies_ms.len() as f64;
    values.set("setup_s", stats::median(&setups));
    values.set("allocs_per_event", per_counted_event(|s| s.allocs));
    values.set("wire_bytes_per_event", per_counted_event(Slice::wire_bytes));
    values.set("net_bytes_per_event", net_bytes / handed_back);
    if !args.traced {
        return Ok(report::result_line(report::END_TO_END, &values, attempted, failed));
    }

    // Per-layer metrics, from the traced run.
    let mut spans = tcp.spans;
    spans.append(serial.spans);
    let probes = probes::run(&mut generator, &mut spans);
    let spans_path = out.join(format!("spans-{name}.jsonl"));
    spans.write_jsonl(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("bench: {} spans written to {}", spans.len(), spans_path.display());

    // Times come from slices without span recording.
    let all: Vec<&Slice> = serial.slices.iter().collect();
    let untraced: Vec<&Slice> = serial.slices.iter().filter(|s| !s.traced).collect();
    let chain = calibrated(&untraced, |s| Some(s.chain_us_per_event())).expect("slices were run");
    let traced_slices: Vec<&Slice> = serial.slices.iter().filter(|s| s.traced).collect();
    let traced_chain =
        calibrated(&traced_slices, |s| Some(s.chain_us_per_event())).expect("traced slices");
    let window_events = tcp.window_events as f64;
    // Per slice event, not per layer event, so that the layers add up.
    let layers_sum: f64 = Layer::ALL
        .iter()
        .map(|l| {
            let l = *l as usize;
            calibrated(&all, |s| Some(s.layer_ns[l] as f64 / 1e3 / s.events as f64))
                .map_or(0.0, |c| c.median)
        })
        .sum();
    let gen_us = calibrated(&all, |s| Some(s.gen_ns as f64 / 1e3 / serial::SLICE_EVENTS as f64));
    let c = serial.collector;
    let bytes_per = |bytes: fn(&Slice) -> u64, layer: Layer| {
        let events: u64 = counted.iter().map(|s| s.layer_events[layer as usize]).sum();
        counted.iter().map(bytes).sum::<u64>() as f64 / events.max(1) as f64
    };
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let saturation = &tcp.saturation_events_per_s;
    let saturation_spread = if saturation.is_empty() {
        0.0
    } else {
        let (lo, hi) = (stats::quantile(saturation, 0.0), stats::quantile(saturation, 1.0));
        100.0 * (hi - lo) / stats::median(saturation)
    };

    values.set("gen.apply_us_per_event", gen_us.map_or(0.0, |c| c.median));
    values.set("gen.lateness_p99_ms", stats::percentile_or_zero(&tcp.lateness_ms, 99.0));
    values.set("host.steal_pct", tcp.steal_pct);
    values.set("calib.nominal_ms", calib::NOMINAL_MS);
    values.set("calib.counted_slices", chain.counted as f64);
    values.set("calib.slowdown_p50", chain.slowdown_p50);
    values.set("calib.fallback", f64::from(u8::from(chain.fallback)));
    values.set("setup.build_s", build_s);
    values.set("setup.spawn_connect_s", spawn_connect_s);
    values.set("setup.warmup_s", warmup_s);
    values.set("setup.serial_prefill_s", serial_setup_s);
    values.set("lustre.changelog_read_us_per_event", probes.changelog_read_us_per_event);
    values.set("lustre.fid2path_us", probes.fid2path_us);
    values.set("collector.run_once_us_per_event", layer_us(&all, Layer::CollectorRunOnce));
    values.set("collector.fid2path_per_event", c.fid2path_calls as f64 / c.extracted.max(1) as f64);
    values.set(
        "collector.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.fid2path_calls).max(1) as f64,
    );
    values.set(
        "collector.resolution_failures",
        (c.resolution_failures + tcp.collector.resolution_failures) as f64,
    );
    values.set("collector.shed", (c.shed + tcp.collector.shed) as f64);
    values.set("pathcache.get_us", probes.pathcache_get_us);
    values.set("pathcache.insert_us", probes.pathcache_insert_us);
    values.set("pathcache.invalidate_prefix_us", probes.pathcache_invalidate_prefix_us);
    values.set("net.wire.encode_item_us_per_event", layer_us(&all, Layer::EncodeItem));
    values.set("net.wire.decode_item_us_per_event", layer_us(&all, Layer::DecodeItem));
    values.set("net.wire.encode_deliver_us_per_event", layer_us(&all, Layer::EncodeDeliver));
    values.set("net.wire.decode_deliver_us_per_event", layer_us(&all, Layer::DecodeDeliver));
    values.set("net.wire.encode_store_batch_us_per_event", layer_us(&all, Layer::EncodeStoreBatch));
    values.set("net.wire.decode_store_batch_us_per_event", layer_us(&all, Layer::DecodeStoreBatch));
    values.set("net.wire.item_bytes_per_event", bytes_per(|s| s.item_bytes, Layer::EncodeItem));
    values.set(
        "net.wire.deliver_bytes_per_event",
        bytes_per(|s| s.deliver_bytes, Layer::EncodeDeliver),
    );
    values.set(
        "net.wire.store_batch_bytes_per_event",
        bytes_per(|s| s.store_batch_bytes, Layer::EncodeStoreBatch),
    );
    values.set("net.pipe.send_us_per_event", tcp.send_ns as f64 / 1e3 / window_events);
    values.set("net.pipe.unacked_p50", median_or_zero(&tcp.unacked));
    values.set(
        "net.pipe.events_per_frame",
        tcp.push_framed_events as f64 / tcp.push_frames.max(1) as f64,
    );
    values.set("net.pipe.reconnects", tcp.push_reconnects as f64);
    values.set("net.pipe.resends", tcp.push_resends as f64);
    values.set("net.pubsub.events_per_frame", window_events / tcp.deliver_frames.max(1) as f64);
    values.set("net.pubsub.dropped", tcp.sub_dropped as f64);
    values.set("net.pubsub.fanout_shed", delta("sdci_net_fanout_shed_total"));
    values.set("net.pubsub.reconnects", tcp.sub_reconnects as f64);
    values.set("net.store_rpc.query_p50_ms", median_or_zero(&tcp.query_ms));
    values.set("net.store_rpc.query_p90_ms", stats::percentile_or_zero(&tcp.query_ms, 90.0));
    values.set("net.store_rpc.queries", tcp.query_ms.len() as f64);
    values.set("net.store_rpc.failures", tcp.query_failures as f64);
    values.set(
        "aggregator.cpu_us_per_event",
        (proc_end.cpu_ns - proc_start.cpu_ns) as f64 / 1e3 / window_events,
    );
    values.set(
        "aggregator.ctx_switches_per_event",
        (proc_end.ctx_switches - proc_start.ctx_switches) as f64 / window_events,
    );
    values.set("aggregator.threads", proc_end.threads as f64);
    values.set(
        "aggregator.insert_lag_p50_ms",
        1e3 * metrics_end.histogram_quantile_since(
            metrics_start,
            "sdci_e2e_store_insert_latency_seconds",
            0.5,
        ),
    );
    values.set("aggregator.received", delta("sdci_aggregator_received_total"));
    values.set("aggregator.published", delta("sdci_aggregator_published_total"));
    values.set("agg_peak_rss_mb", proc_end.vm_hwm_kib as f64 / 1024.0);
    values.set("store.insert_us_per_event", layer_us(&all, Layer::StoreInsert));
    values.set("store.query_us_per_event", layer_us(&all, Layer::StoreQuery));
    values.set(
        "store.bytes_per_event",
        metrics_end.get("sdci_store_resident_bytes")
            / metrics_end.get("sdci_store_events").max(1.0),
    );
    values.set(
        "store.rotated_per_slice",
        counted.iter().map(|s| s.rotated).sum::<u64>() as f64 / COUNTED_SLICES as f64,
    );
    values.set("consumer.next_us_per_event", layer_us(&all, Layer::ConsumerNext));
    values.set("consumer.recovered", (serial.consumer.recovered + tcp.consumer.recovered) as f64);
    values.set("consumer.lost", (serial.consumer.lost + tcp.consumer.lost) as f64);
    values.set("delivery_p50_ms", stats::median(&tcp.latencies_ms));
    values.set("pipeline.delivery_p90_ms", stats::percentile_or_zero(&tcp.latencies_ms, 90.0));
    values.set("pipeline.delivery_p99_ms", stats::percentile_or_zero(&tcp.latencies_ms, 99.0));
    values.set("pipeline.delivery_max_ms", stats::quantile(&tcp.latencies_ms, 1.0));
    values.set("pipeline.delivery_samples", handed_back);
    values.set("pipeline.delivered_events_per_s", handed_back / tcp.window_s);
    values.set("pipeline.saturation_events_per_s", median_or_zero(saturation));
    values.set("pipeline.saturation_spread_pct", saturation_spread);
    values.set("chain_us_per_event", chain.median);
    values.set("pipeline.chain_layers_sum_us_per_event", layers_sum);
    values.set("pipeline.alloc_bytes_per_event", per_counted_event(|s| s.alloc_bytes));
    values.set(
        "pipeline.trace_overhead_pct",
        100.0 * (traced_chain.median - chain.median) / chain.median,
    );
    Ok(report::result_line(report::PER_LAYER, &values, attempted, failed))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("sdci-pipeline-bench: {e}");
            std::process::exit(2);
        }
    }
}
