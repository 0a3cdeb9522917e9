//! The three-index `PathCache` against the cache it replaced, kept here
//! as the model: one `HashMap` plus the recency index, with a rename
//! scanning every entry. Random operation sequences must give the same
//! return values, the same counters and the same eviction victims, and
//! leave the real cache's indexes the same size after every step.
//! (`prop.rs` checks the LRU policy itself against an independent
//! reference; this model is the old production code.)

use proptest::prelude::*;
use sdci_core::{CacheStats, PathCache};
use sdci_types::Fid;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// The single-index implementation, as it stood before the path index.
struct ModelCache {
    capacity: usize,
    map: HashMap<Fid, (PathBuf, u64)>,
    by_recency: BTreeMap<u64, Fid>,
    clock: u64,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity: usize) -> Self {
        ModelCache {
            capacity,
            map: HashMap::new(),
            by_recency: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, fid: Fid) -> Option<PathBuf> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&fid) {
            Some((path, used)) => {
                self.by_recency.remove(used);
                self.by_recency.insert(clock, fid);
                *used = clock;
                self.stats.hits += 1;
                Some(path.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, fid: Fid, path: PathBuf) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some((_, used)) = self.map.get(&fid) {
            self.by_recency.remove(used);
        } else if self.map.len() >= self.capacity {
            if let Some((_, lru)) = self.by_recency.pop_first() {
                self.map.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.by_recency.insert(self.clock, fid);
        self.map.insert(fid, (path, self.clock));
    }

    fn invalidate(&mut self, fid: Fid) {
        if let Some((_, used)) = self.map.remove(&fid) {
            self.by_recency.remove(&used);
            self.stats.invalidations += 1;
        }
    }

    fn invalidate_prefix(&mut self, prefix: &Path) {
        let before = self.map.len();
        let by_recency = &mut self.by_recency;
        self.map.retain(|_, (path, used)| {
            let keep = !path.starts_with(prefix);
            if !keep {
                by_recency.remove(used);
            }
            keep
        });
        self.stats.invalidations += (before - self.map.len()) as u64;
    }

    /// The resident FIDs, least recently used first.
    fn lru_order(&self) -> Vec<Fid> {
        self.by_recency.values().copied().collect()
    }
}

/// Names chosen so that siblings share a string prefix without sharing
/// a component (`b`, `bc`) and so that byte order and component order
/// disagree (`b.d` sorts between `b` and `b/…` as bytes).
const NAMES: [&str; 4] = ["a", "b", "bc", "b.d"];
const FIDS: u32 = 10;

#[derive(Debug, Clone)]
enum Op {
    Get(u32),
    Insert(u32, PathBuf),
    Invalidate(u32),
    InvalidatePrefix(PathBuf),
}

/// A path one to three components deep in the tree over [`NAMES`]: 84
/// paths, so prefixes nest and two FIDs often share a path. One in
/// eight is spelled oddly (doubled or trailing separator, `.`), which
/// `Path` equates with the plain spelling and so must the cache.
fn tree_path() -> impl Strategy<Value = PathBuf> {
    (prop::collection::vec(0..NAMES.len(), 1..=3), 0..8u8).prop_map(|(names, spelling)| {
        let names: Vec<&str> = names.iter().map(|&n| NAMES[n]).collect();
        PathBuf::from(match spelling {
            0 => format!("/{}/", names.join("//")),
            1 => format!("/./{}/.", names.join("/./")),
            _ => format!("/{}", names.join("/")),
        })
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..FIDS).prop_map(Op::Get),
        4 => (0..FIDS, tree_path()).prop_map(|(fid, path)| Op::Insert(fid, path)),
        1 => (0..FIDS).prop_map(Op::Invalidate),
        2 => tree_path().prop_map(Op::InvalidatePrefix),
    ]
}

fn fid(n: u32) -> Fid {
    Fid::new(0x10, n, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn three_indexes_behave_as_the_one_index_cache_did(
        ops in prop::collection::vec(op(), 1..200),
        capacity in 0usize..7,
    ) {
        let mut cache = PathCache::new(capacity);
        let mut model = ModelCache::new(capacity);
        for op in ops {
            match &op {
                Op::Get(n) => {
                    let got = cache.get(fid(*n)).map(Path::to_path_buf);
                    prop_assert_eq!(got, model.get(fid(*n)), "{:?}", op);
                }
                Op::Insert(n, path) => {
                    cache.insert(fid(*n), path);
                    model.insert(fid(*n), path.clone());
                }
                Op::Invalidate(n) => {
                    cache.invalidate(fid(*n));
                    model.invalidate(fid(*n));
                }
                Op::InvalidatePrefix(prefix) => {
                    cache.invalidate_prefix(prefix);
                    model.invalidate_prefix(prefix);
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "{:?}", op);
            prop_assert_eq!(cache.index_sizes(), [model.map.len(); 3], "{:?}", op);
        }
        // Same eviction victims: top both caches up, then push every
        // resident out, least recently used first. A victim the real
        // cache had kept would count an invalidation the model does not.
        let mut fresh = FIDS;
        let mut refill = |cache: &mut PathCache, model: &mut ModelCache| {
            fresh += 1;
            cache.insert(fid(fresh), "/fresh");
            model.insert(fid(fresh), PathBuf::from("/fresh"));
        };
        let residents = model.lru_order();
        while model.map.len() < capacity {
            refill(&mut cache, &mut model);
        }
        for victim in residents {
            refill(&mut cache, &mut model);
            cache.invalidate(victim);
            model.invalidate(victim);
            prop_assert_eq!(cache.stats(), model.stats, "eviction should have taken {:?}", victim);
            prop_assert_eq!(cache.index_sizes(), [model.map.len(); 3]);
        }
    }
}
