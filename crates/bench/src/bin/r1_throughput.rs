//! §5.2 Event Throughput: drive each testbed at its maximum generation
//! rate and measure how many events the monitor detects, processes, and
//! reports.
//!
//! Paper results reproduced here:
//! * AWS: 1,366 events/s generated → 1,053 reported; "throughput is
//!   primarily limited by the preprocessing step".
//! * Iota: 9,593 events/s generated → 8,162 reported on average
//!   (14.91% lower), "caused by the repetitive use of the d2path tool".
//! * "There is no loss of events once they have been processed" —
//!   aggregation and reporting add no loss, only delay.

use parking_lot::Mutex;
use sdci_bench::{print_table, vs_paper};
use sdci_core::model::{PipelineModel, PipelineParams};
use sdci_core::{MonitorClusterBuilder, MonitorConfig};
use sdci_types::SimDuration;
use sdci_workloads::{EventGenerator, OpMix, TestbedProfile};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn Error>> {
    println!("== R1 (§5.2): Event Throughput ==\n");
    let mut rows = Vec::new();
    for profile in [TestbedProfile::aws(), TestbedProfile::iota()] {
        let params = PipelineParams {
            mdt_count: 1, // "these tests were performed with just one MDS"
            generation_rate: profile.paper_generation_rate,
            duration: SimDuration::from_secs(60),
            costs: profile.stage_costs,
            cache_capacity: 0, // the paper's measured configuration
            batch_size: 1,
            directory_pool: 16,
            poisson: false,
            arrivals: None,
            seed: 42,
        };
        let report = PipelineModel::new(params).run();
        assert_eq!(
            report.reported_total, report.generated,
            "no loss once processed: the pipeline drains completely"
        );
        rows.push(vec![
            profile.name.to_string(),
            format!("{:.0}", report.generation_rate.per_sec()),
            vs_paper(report.report_rate.per_sec(), profile.paper_report_rate),
            format!("{:.2}%", report.shortfall_pct),
            report.bottleneck.clone(),
            format!(
                "{}",
                report
                    .stages
                    .iter()
                    .map(|s| format!("{} {:.0}%", s.name, s.utilization * 100.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ]);
    }
    print_table(
        &["testbed", "generated/s", "reported/s", "shortfall", "bottleneck", "stage utilization"],
        &rows,
    );

    println!("\npaper: AWS 1366 -> 1053; Iota 9593 -> 8162 (-14.91%), bottleneck = processing");
    println!("(fid2path resolution); aggregation and reporting introduce no additional loss.");

    // ---- live sanity check -------------------------------------------
    // The modelled numbers above use calibrated virtual time; this runs
    // the *real* threaded Collector->Aggregator->consumer pipeline for
    // one wall-clock second to confirm the implementation itself
    // comfortably exceeds the paper's rates on commodity hardware.
    println!("\n-- live pipeline sanity (wall-clock, this machine) --");
    let lfs =
        Arc::new(Mutex::new(lustre_sim::LustreFs::new(lustre_sim::LustreConfig::iota_testbed())));
    let cluster =
        MonitorClusterBuilder::new(Arc::clone(&lfs)).config(MonitorConfig::default()).start();
    let mut generator = EventGenerator::new(Arc::clone(&lfs), 16, OpMix::paper(), 7)?;
    let start = Instant::now();
    let mut ops = 0u64;
    let mut tick = 0u64;
    while start.elapsed() < Duration::from_secs(1) {
        generator.run(2_000, || {
            tick += 1;
            sdci_types::SimTime::from_nanos(tick)
        })?;
        ops += 2_000;
    }
    let total = lfs.lock().total_events();
    let caught_up = cluster.wait_for_published(total, Duration::from_secs(30));
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cluster.stats();
    println!(
        "generated {ops} ops ({total} events) in {elapsed:.2}s; monitor processed          {} ({:.0} events/s wall-clock), caught up: {caught_up}",
        stats.total_processed(),
        stats.total_processed() as f64 / elapsed
    );
    cluster.shutdown();
    assert!(caught_up, "live pipeline must keep up with the generator");

    // ---- wire framing sanity -----------------------------------------
    // The distributed deployment ships Collector events over sdci-net;
    // `a4_transports` measures the wire in depth and emits
    // BENCH_a4_transports.json; this is one line of context next to
    // the throughput numbers above.
    println!("\n-- wire (collector->aggregator TCP, 20k events) --");
    println!("batched {:.0} events/s", wire_rate()?);
    Ok(())
}

/// Wall-clock rate of one pusher streaming 20k `u64`s through a
/// loopback PULL server.
///
/// # Errors
///
/// The PULL server's bind.
fn wire_rate() -> std::io::Result<f64> {
    const N: u64 = 20_000;
    let cfg = sdci_net::NetConfig::default();
    let server = sdci_net::TcpPullServer::<u64>::new(65_536);
    let endpoint = sdci_net::Endpoint::bind("127.0.0.1:0", cfg.clone(), vec![server.clone()])?;
    let pull = server.pull();
    let start = Instant::now();
    let push = sdci_net::TcpPush::<u64>::connect(endpoint.local_addr(), "r1-wire", cfg);
    for i in 0..N {
        push.send(i);
    }
    let mut received = 0u64;
    while received < N {
        let Ok(frame) = pull.recv() else { break };
        received += frame.len() as u64;
    }
    let rate = N as f64 / start.elapsed().as_secs_f64();
    assert_eq!(received, N, "the lossless wire may not drop events");
    endpoint.shutdown();
    Ok(rate)
}
