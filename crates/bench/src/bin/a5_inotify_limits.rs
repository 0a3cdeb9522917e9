//! A5: the §3 "Limitations" quantified — why targeted monitoring
//! (inotify) and polling do not scale to parallel filesystems.
//!
//! * inotify: setup requires crawling the tree to place one watch per
//!   directory; each watch pins ~1 KiB of unswappable kernel memory
//!   ("over 512MB of memory is required to concurrently monitor the
//!   default maximum (524,288) directories").
//! * polling: every poll crawls the entire namespace regardless of how
//!   little changed ("prohibitively expensive over large storage
//!   systems").
//! * the ChangeLog monitor: no watches, no crawl — cost scales with the
//!   *event rate*, not the namespace size.

use inotify_sim::{Inotify, InotifyLimits, RecursiveWatcher};
use sdci_baselines::PollingMonitor;
use sdci_bench::print_table;
use sdci_types::{ByteSize, SimTime};
use simfs::{FsError, SimFs};
use std::error::Error;

fn build_tree(dirs: usize, files_per_dir: usize) -> Result<SimFs, FsError> {
    let mut fs = SimFs::new();
    for d in 0..dirs {
        // Two-level fan-out so the tree has realistic depth.
        let path = format!("/g{}/d{}", d / 256, d % 256);
        fs.mkdir_all(&path, SimTime::EPOCH)?;
        for f in 0..files_per_dir {
            fs.create(format!("{path}/f{f}"), SimTime::EPOCH)?;
        }
    }
    Ok(fs)
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("== A5: targeted-monitoring limits (inotify + polling) vs ChangeLog ==\n");

    println!("-- inotify setup cost and kernel memory --");
    let mut rows = Vec::new();
    for dirs in [1_024usize, 8_192, 65_536] {
        let mut fs = build_tree(dirs, 2)?;
        let ino = Inotify::attach(&mut fs);
        let mut watcher = RecursiveWatcher::new(ino);
        watcher.watch_tree(&fs, "/")?;
        let stats = watcher.stats();
        rows.push(vec![
            dirs.to_string(),
            stats.directories_crawled.to_string(),
            stats.files_enumerated.to_string(),
            stats.kernel_memory().to_string(),
        ]);
    }
    // The paper's headline figure, computed rather than crawled.
    rows.push(vec![
        "524,288 (default max)".into(),
        "524,288+".into(),
        "-".into(),
        ByteSize::from_kib(1).saturating_mul(524_288).to_string(),
    ]);
    print_table(&["directories", "dirs crawled", "files enumerated", "kernel memory"], &rows);

    println!("\n-- inotify watch limit --");
    let mut fs = build_tree(600, 0)?;
    let ino = Inotify::attach_with_limits(
        &mut fs,
        InotifyLimits { max_user_watches: 512, ..InotifyLimits::default() },
    );
    let mut watcher = RecursiveWatcher::new(ino);
    let err = watcher.watch_tree(&fs, "/").expect_err("limit must trip");
    println!("watching 600+ dirs with max_user_watches=512 -> error: {err}");

    println!("\n-- polling crawl cost per detected change --");
    let mut rows = Vec::new();
    for namespace in [1_000usize, 10_000, 100_000] {
        let mut fs = build_tree(namespace / 10, 9)?;
        let mut monitor = PollingMonitor::primed(&fs);
        // 10 polls, 10 changes total.
        for i in 0..10u64 {
            fs.write(format!("/g0/d0/f{}", i % 9), 1, SimTime::from_secs(i + 1))?;
            monitor.poll(&fs);
        }
        let stats = monitor.stats();
        rows.push(vec![
            (fs.file_count() + fs.dir_count()).to_string(),
            stats.entries_visited.to_string(),
            stats.changes_detected.to_string(),
            format!("{:.0}", stats.visits_per_change()),
        ]);
    }
    print_table(&["namespace entries", "entries visited", "changes found", "visits/change"], &rows);

    println!(
        "\nthe ChangeLog monitor reads exactly one record per event (plus one \
         fid2path), independent of namespace size — 0 watches, 0 crawls; \
         see r1_throughput for its event-rate-bound cost."
    );
    Ok(())
}
