//! Seeded inputs: the namespace each workload runs over and the stream
//! of ChangeLog records the generator applies to it.
//!
//! The seed chooses every *name* — the directories, the files, the
//! targets of renames — and so which directory sits in which slot. It
//! never chooses a *count* or the order in which slots are touched: that
//! shape comes from a generator with a fixed seed, so every run does the
//! same number of creates, cache hits, evictions, B-tree splits and
//! segment rotations, and the counted metrics (`allocs_per_event`,
//! `wire_bytes_per_event`) repeat to the last digit across seeds. All
//! names of one kind have one length for the same reason.

use lustre_sim::{LustreConfig, LustreFs};
use parking_lot::Mutex;
use sdci_types::{ChangelogKind, Fid, MdtIndex, RawChangelogRecord, SimTime};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// The one MDT every workload runs on.
pub const MDT: MdtIndex = MdtIndex::new(0);
/// Hot directories of the `steady` and `backfill` namespaces.
pub const HOT_DIRS: usize = 64;
/// Files alive at any time in the steady-state namespace.
const LIVE_FILES: usize = 4096;
/// `resolve`: children per directory and levels below the top, giving
/// 8^5 = 32,768 leaf directories at depth 6 — eight times the
/// collector's default `path_cache_capacity` of 4,096.
const RESOLVE_FANOUT: usize = 8;
const RESOLVE_LEVELS: usize = 5;
/// `resolve`: one directory rename per this many records.
const RENAME_EVERY: u64 = 256;
/// Lustre's `CLF_UNLINK_LAST`, set on the unlink of a last link.
const CLF_UNLINK_LAST: u32 = 0x1;
/// FID sequence of generated files; directory FIDs come from `LustreFs`.
const FILE_FID_SEQ: u64 = 0x2_4000_0400;
/// Seed of the shape generator — the same in every run, see the module
/// docs.
const SHAPE_SEED: u64 = 0x5dc1_b3ac_4e11_7a05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Backfill,
    Resolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Backfill, Workload::Resolve];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Backfill => "backfill",
            Workload::Resolve => "resolve",
        }
    }
}

/// xorshift64* seeded through splitmix64 — the benchmark's own generator,
/// so inputs do not change when the repository's vendored `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 11) as u128 * n as u128) >> 53) as usize
    }
}

/// What the generator expects the pipeline to hand back for one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub index: u64,
    pub path: String,
}

#[derive(Debug, Clone)]
struct Dir {
    fid: Fid,
    path: String,
}

#[derive(Debug, Clone, Copy)]
struct LiveFile {
    dir: u32,
    id: u64,
}

/// A file-level record that has not been appended anywhere yet.
#[derive(Debug)]
pub struct FileRecord {
    pub record: RawChangelogRecord,
    pub path: String,
}

pub struct Generator {
    workload: Workload,
    fs: Arc<Mutex<LustreFs>>,
    shape: Rng,
    names: Rng,
    /// Seeded salt of the file-name bijection.
    salt: u64,
    /// Hot directories (`steady`, `backfill`) or leaves (`resolve`).
    dirs: Vec<Dir>,
    live: VecDeque<LiveFile>,
    files_made: u64,
    records: u64,
    since_rename: u64,
    cursor: usize,
    clock_ns: u64,
}

fn hex_name(prefix: char, value: u64, digits: usize) -> String {
    format!("{prefix}{:0digits$x}", value & ((1u64 << (4 * digits)) - 1))
}

impl Generator {
    /// Builds the workload's namespace on a fresh single-MDT `LustreFs`.
    /// Directory operations go through `LustreFs` itself.
    pub fn build(workload: Workload, seed: u64) -> Generator {
        let mut names = Rng::new(seed);
        let mut fs = LustreFs::new(LustreConfig::builder("bench").mdt_count(1).build());
        let top = format!("/{}", hex_name('t', names.next(), 7));
        fs.mkdir(&top, SimTime::EPOCH).expect("mkdir top");
        let mut dirs = Vec::new();
        match workload {
            Workload::Steady | Workload::Backfill => {
                let mut taken = HashSet::new();
                while dirs.len() < HOT_DIRS {
                    let name = hex_name('d', names.next(), 7);
                    if taken.insert(name.clone()) {
                        let path = format!("{top}/{name}");
                        let fid = fs.mkdir(&path, SimTime::EPOCH).expect("mkdir hot dir");
                        dirs.push(Dir { fid, path });
                    }
                }
            }
            Workload::Resolve => {
                let mut level = vec![top];
                for depth in 0..RESOLVE_LEVELS {
                    let mut next = Vec::with_capacity(level.len() * RESOLVE_FANOUT);
                    for parent in &level {
                        let mut taken = HashSet::new();
                        while taken.len() < RESOLVE_FANOUT {
                            let name = hex_name('x', names.next(), 5);
                            if taken.insert(name.clone()) {
                                let path = format!("{parent}/{name}");
                                let fid = fs.mkdir(&path, SimTime::EPOCH).expect("mkdir tree");
                                if depth + 1 == RESOLVE_LEVELS {
                                    dirs.push(Dir { fid, path: path.clone() });
                                }
                                next.push(path);
                            }
                        }
                    }
                    level = next;
                }
            }
        }
        let salt = names.next();
        let mut generator = Generator {
            workload,
            fs: Arc::new(Mutex::new(fs)),
            shape: Rng::new(SHAPE_SEED),
            names,
            salt,
            dirs,
            live: VecDeque::with_capacity(LIVE_FILES + 1),
            files_made: 0,
            records: 0,
            since_rename: 0,
            cursor: 0,
            clock_ns: 1,
        };
        // The steady state starts full: these files "already exist", so
        // the first unlinks and writes have something to name.
        if workload != Workload::Resolve {
            for _ in 0..LIVE_FILES {
                let file = generator.new_file();
                generator.live.push_back(file);
            }
        }
        generator
    }

    pub fn fs(&self) -> Arc<Mutex<LustreFs>> {
        Arc::clone(&self.fs)
    }

    /// The path of hot directory `slot` (for prefix queries).
    pub fn dir_path(&self, slot: usize) -> &str {
        &self.dirs[slot % self.dirs.len()].path
    }

    fn new_file(&mut self) -> LiveFile {
        let dir = self.shape.below(self.dirs.len()) as u32;
        self.files_made += 1;
        LiveFile { dir, id: self.files_made }
    }

    /// 11 hex digits from a bijection of the file counter: unique, fixed
    /// width, and different for every seed.
    fn file_name(&self, id: u64) -> String {
        hex_name('f', id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.salt, 11)
    }

    fn tick_clock(&mut self) -> SimTime {
        self.clock_ns += 1_000;
        SimTime::from_nanos(self.clock_ns)
    }

    fn record_for(&mut self, kind: ChangelogKind, flags: u32, file: LiveFile) -> FileRecord {
        let time = self.tick_clock();
        let name = self.file_name(file.id);
        let dir = &self.dirs[file.dir as usize];
        let path = format!("{}/{name}", dir.path);
        let target = Fid::new(FILE_FID_SEQ + (file.id >> 32), file.id as u32, 0);
        self.records += 1;
        FileRecord {
            record: RawChangelogRecord {
                index: 0,
                kind,
                time,
                flags,
                target,
                parent: dir.fid,
                name,
            },
            path,
        }
    }

    /// The next file-level record, not yet appended to any ChangeLog.
    /// `steady`/`backfill` cycle create → write → unlink over the live
    /// set; `resolve` creates round-robin across the leaves.
    pub fn file_record(&mut self) -> FileRecord {
        match self.workload {
            Workload::Steady | Workload::Backfill => match self.records % 3 {
                0 => {
                    let file = self.new_file();
                    self.live.push_back(file);
                    self.record_for(ChangelogKind::Create, 0, file)
                }
                1 => {
                    let at = self.shape.below(self.live.len());
                    let file = self.live[at];
                    self.record_for(ChangelogKind::MtimeChange, 0, file)
                }
                _ => {
                    let file = self.live.pop_front().expect("live set is never empty");
                    self.record_for(ChangelogKind::Unlink, CLF_UNLINK_LAST, file)
                }
            },
            Workload::Resolve => {
                let dir = self.cursor as u32;
                self.cursor = (self.cursor + 1) % self.dirs.len();
                self.files_made += 1;
                let file = LiveFile { dir, id: self.files_made };
                self.since_rename += 1;
                self.record_for(ChangelogKind::Create, 0, file)
            }
        }
    }

    /// Renames the leaf half a round away from the cursor: its last
    /// create was collected long ago and its next is far off, so no
    /// record is resolved across the rename. Logs `RENME` + `RNMTO`.
    fn rename_leaf(&mut self, fs: &mut LustreFs, out: &mut Vec<Expected>) {
        let leaf = (self.cursor + self.dirs.len() / 2) % self.dirs.len();
        let group = leaf - leaf % RESOLVE_FANOUT;
        let old = self.dirs[leaf].path.clone();
        let parent = &old[..old.rfind('/').expect("leaf has a parent")];
        let new = loop {
            let candidate = format!("{parent}/{}", hex_name('x', self.names.next(), 5));
            if self.dirs[group..group + RESOLVE_FANOUT].iter().all(|d| d.path != candidate) {
                break candidate;
            }
        };
        let now = self.tick_clock();
        fs.rename(&old, &new, now).expect("rename leaf");
        let last = fs.changelog(MDT).last_index();
        out.push(Expected { index: last - 1, path: old });
        out.push(Expected { index: last, path: new.clone() });
        self.dirs[leaf].path = new;
        self.records += 2;
        self.since_rename = 0;
    }

    /// Applies `n` records to the MDT's ChangeLog and pushes what the
    /// pipeline must hand back for each, in order. File-level records are
    /// appended straight to the ChangeLog (the collector resolves their
    /// parent FID, which `LustreFs` knows); directory renames go through
    /// `LustreFs::rename`.
    pub fn apply(&mut self, n: usize, out: &mut Vec<Expected>) {
        let fs = Arc::clone(&self.fs);
        let mut fs = fs.lock();
        let mut produced = 0;
        while produced < n {
            if self.workload == Workload::Resolve
                && self.since_rename >= RENAME_EVERY
                && n - produced >= 2
            {
                self.rename_leaf(&mut fs, out);
                produced += 2;
                continue;
            }
            let FileRecord { record, path } = self.file_record();
            let index = fs.changelog_mut(MDT).append(record);
            out.push(Expected { index, path });
            produced += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(workload: Workload, seed: u64, n: usize) -> Vec<Expected> {
        let mut generator = Generator::build(workload, seed);
        let mut out = Vec::new();
        generator.apply(n, &mut out);
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_names_same_shape() {
        for workload in Workload::ALL {
            let a = take(workload, 7, 2_000);
            let b = take(workload, 7, 2_000);
            let c = take(workload, 8, 2_000);
            assert_eq!(a, b, "{workload:?}");
            assert_eq!(a.len(), 2_000);
            assert_ne!(a, c, "{workload:?}");
            // Same shape: every path has the length it has under any seed.
            let lens = |v: &[Expected]| v.iter().map(|e| e.path.len()).collect::<Vec<_>>();
            assert_eq!(lens(&a), lens(&c), "{workload:?}");
            // Indices are the ChangeLog's own, dense after the namespace build.
            assert!(a.windows(2).all(|w| w[1].index == w[0].index + 1));
        }
    }

    #[test]
    fn resolve_renames_once_per_256_records_and_tracks_the_new_path() {
        let mut generator = Generator::build(Workload::Resolve, 3);
        let fs = generator.fs();
        let before = fs.lock().changelog(MDT).last_index();
        let mut out = Vec::new();
        generator.apply(1_000, &mut out);
        assert_eq!(fs.lock().changelog(MDT).last_index(), before + 1_000);
        let records = fs.lock().changelog(MDT).read_from(before, 1_000);
        let renames = records.iter().filter(|r| r.kind == ChangelogKind::Rename).count();
        assert_eq!(renames, 3);
        // Every expectation resolves the way the collector will: parent
        // path (as LustreFs reports it now) + recorded name.
        let guard = fs.lock();
        for (record, expected) in records.iter().zip(&out) {
            assert_eq!(record.index, expected.index);
            if record.kind == ChangelogKind::Rename {
                continue; // names the old path, which no longer exists
            }
            let mut path = guard.fid2path(record.parent).unwrap();
            path.push(&record.name);
            assert_eq!(path.to_str().unwrap(), expected.path);
        }
    }

    #[test]
    fn steady_namespace_stays_in_steady_state() {
        let mut generator = Generator::build(Workload::Steady, 1);
        let mut out = Vec::new();
        generator.apply(30_000, &mut out);
        assert_eq!(generator.live.len(), LIVE_FILES);
        let distinct: HashSet<&str> = out.iter().map(|e| e.path.as_str()).collect();
        assert!(distinct.len() > 10_000);
    }
}
