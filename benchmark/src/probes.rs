//! Direct probes of the layers under the collector: single calls into
//! `lustre-sim` and the path cache, timed in a loop. They run in the
//! traced run only and attribute `collector.run_once` time; nothing is
//! gated on them.

use crate::spans::{Recorder, NO_PARENT};
use crate::stats::median;
use crate::workload::{Generator, MDT};
use sdci_core::PathCache;
use sdci_types::Fid;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Repetitions per probe; the median is reported.
const REPS: usize = 15;
/// The collector's default `path_cache_capacity`.
const CACHE_ENTRIES: usize = 4_096;

#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub changelog_read_us_per_event: f64,
    pub fid2path_us: f64,
    pub pathcache_get_us: f64,
    pub pathcache_insert_us: f64,
    pub pathcache_invalidate_prefix_us: f64,
}

/// Median over [`REPS`] runs of `body`, in µs per operation; each run is
/// one span.
fn probe(spans: &mut Recorder, name: &'static str, ops: usize, mut body: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let start = Instant::now();
        body();
        let end = Instant::now();
        spans.record(name, start, end, NO_PARENT, rep as u32, ops as u32);
        per_op.push((end - start).as_secs_f64() * 1e6 / ops as f64);
    }
    median(&per_op)
}

/// Probes the workload's own namespace: `fid2path` walks as deep as the
/// workload's directories are. Runs last: the 256 records it applies are
/// never collected.
pub fn run(generator: &mut Generator, spans: &mut Recorder) -> Probes {
    let mut probes = Probes::default();
    let fs = generator.fs();

    // A ChangeLog read of one collector batch.
    let mut expected = Vec::new();
    generator.apply(256, &mut expected);
    let after = expected[0].index - 1;
    {
        let guard = fs.lock();
        probes.changelog_read_us_per_event = probe(spans, "lustre.changelog_read", 256, || {
            black_box(guard.changelog(MDT).read_from(black_box(after), 256));
        });
    }

    // `fid2path` over the parents the records above name.
    let parents: Vec<Fid> = {
        let guard = fs.lock();
        guard.changelog(MDT).read_from(after, 256).iter().map(|r| r.parent).collect()
    };
    {
        let guard = fs.lock();
        probes.fid2path_us = probe(spans, "lustre.fid2path", parents.len(), || {
            for fid in &parents {
                black_box(guard.fid2path(*fid).expect("parent exists"));
            }
        });
    }

    // The path cache at capacity, with paths shaped like the workload's.
    let dir = generator.dir_path(0).to_string();
    let fid = |n: usize| Fid::new(0x2_0000_0400, n as u32, 0);
    let path = |n: usize| PathBuf::from(format!("{dir}/{:05x}", n));
    let mut cache = PathCache::new(CACHE_ENTRIES);
    for n in 0..CACHE_ENTRIES {
        cache.insert(fid(n), path(n));
    }
    probes.pathcache_get_us = probe(spans, "pathcache.get", CACHE_ENTRIES, || {
        for n in 0..CACHE_ENTRIES {
            black_box(cache.get(fid(n * 7 % CACHE_ENTRIES)));
        }
    });
    let mut next = CACHE_ENTRIES;
    probes.pathcache_insert_us = probe(spans, "pathcache.insert", CACHE_ENTRIES, || {
        // Every insert into the full cache evicts the least recent entry.
        for _ in 0..CACHE_ENTRIES {
            cache.insert(fid(next), path(next));
            next += 1;
        }
    });
    probes.pathcache_invalidate_prefix_us = probe(spans, "pathcache.invalidate_prefix", 1, || {
        // A prefix nothing is under: the scan of the whole cache, which is
        // what a rename pays, without emptying it for the next repetition.
        cache.invalidate_prefix(black_box(std::path::Path::new("/nothing/under/here")));
    });
    probes
}
