//! The parent-FID → path LRU cache.
//!
//! §5.2: "we found the overhead to be caused by the repetitive use of the
//! d2path tool when resolving an event's absolute path. To alleviate
//! this problem we plan to process events in batches ... and temporarily
//! cache path mappings to minimize the number of invocations." Most
//! events in a burst share a handful of parent directories, so caching
//! the *parent* resolution converts almost every lookup into a hit.

use crate::store::is_plain;
use sdci_types::{ByteSize, Fid};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Hit/miss counters for a [`PathCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to `fid2path`.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries invalidated explicitly (renames/removals).
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// "No such entry" in a link between entries.
const NIL: usize = usize::MAX;

/// One cached resolution: a node of the recency list and of the path
/// tree at once. Every link is a slot in `PathCache::entries`, or
/// [`NIL`].
struct Entry {
    fid: Fid,
    /// The slot's own buffer: cleared when the entry goes, keeping its
    /// capacity for the next entry in the slot.
    path: PathBuf,
    /// The entries used just before and just after this one. A vacant
    /// slot keeps the next vacant slot in `newer`.
    older: usize,
    newer: usize,
    /// Path tree: the parent node, and the subtrees that sort before
    /// and after this entry.
    up: usize,
    kids: [usize; 2],
    /// Heap rank: no node outranks its parent.
    rank: u32,
}

fn path_bytes(path: &Path) -> &[u8] {
    path.as_os_str().as_encoded_bytes()
}

/// Byte order with the separator ranked below every other byte, so that
/// everything under a directory sits in one contiguous run starting at
/// the directory itself: `/a/b`, `/a/b/c`, then `/a/b.d` and `/a/bc`.
/// On paths spelled as their components (see [`is_plain`]) that is
/// the order `Path` gives names component by component, without parsing
/// components on each comparison of a descent.
fn subtree_order(a: &Path, b: &Path) -> Ordering {
    let (a, b) = (path_bytes(a), path_bytes(b));
    // Cached paths share long prefixes, and ranking them byte by byte
    // is most of a descent: skipping them eight at a time takes an
    // evicting insert of siblings 45 bytes deep from 0.63 to 0.40 µs,
    // and 0.35 µs per event off the benchmark's miss-heavy chain.
    let mut at = 0;
    while at + 8 <= a.len().min(b.len()) && a[at..at + 8] == b[at..at + 8] {
        at += 8;
    }
    let rank = |byte: &u8| if *byte == b'/' { 0 } else { u16::from(*byte) + 1 };
    a[at..].iter().map(rank).cmp(b[at..].iter().map(rank))
}

/// A bounded LRU map from directory FIDs to their absolute paths.
///
/// Capacity 0 disables the cache entirely (every lookup misses), which
/// is the paper's measured baseline.
///
/// Three indexes over one table of entries, always the same size: `map`
/// answers a lookup, the recency list names the eviction victim, and
/// the path tree keeps the entries in path order so that a rename drops
/// a subtree without looking at the rest of the cache. List and tree
/// are threaded through the table itself, and each slot keeps its path
/// buffer across entries, so an insert allocates only to grow a slot's
/// buffer past the longest path it has held, and a hit makes none.
pub struct PathCache {
    capacity: usize,
    /// FID → slot in `entries`.
    map: HashMap<Fid, usize>,
    /// Live entries and vacant slots. An entry stays in its slot for
    /// life; a removal leaves the slot on the `vacant` list.
    entries: Vec<Entry>,
    vacant: usize,
    /// Recency list ends: the next eviction victim, and the entry used
    /// last.
    oldest: usize,
    newest: usize,
    /// The path tree, a treap: a search tree in [`subtree_order`] (equal
    /// paths under different FIDs sit side by side) kept balanced by
    /// heap order on the ranks `dice` deals.
    root: usize,
    dice: u64,
    stats: CacheStats,
}

impl fmt::Debug for PathCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hit_rate", &self.stats.hit_rate())
            .finish()
    }
}

impl PathCache {
    /// Creates a cache bounded to `capacity` entries (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        PathCache {
            capacity,
            map: HashMap::new(),
            entries: Vec::new(),
            vacant: NIL,
            oldest: NIL,
            newest: NIL,
            root: NIL,
            dice: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up a FID, refreshing its recency on hit. The path is
    /// borrowed from the cache: a caller that joins a name onto it
    /// allocates only the joined path.
    pub fn get(&mut self, fid: Fid) -> Option<&Path> {
        match self.map.get(&fid) {
            Some(&slot) => {
                self.stats.hits += 1;
                if slot != self.newest {
                    self.unlink(slot);
                    self.link_newest(slot);
                }
                Some(&self.entries[slot].path)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a resolution, evicting the least-recently-used entry at
    /// capacity. No-op when the cache is disabled. The path is copied
    /// into the buffer of the slot it lands in, which an evicting insert
    /// takes over from its victim.
    pub fn insert(&mut self, fid: Fid, path: impl AsRef<Path>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&fid) {
            // Re-insert: the FID's old entry makes the room, no eviction.
            self.remove(slot);
        } else if self.map.len() >= self.capacity {
            self.remove(self.oldest);
            self.stats.evictions += 1;
        }
        // Ranks only have to be spread out, and the same on every run.
        self.dice = self.dice.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let rank = (self.dice >> 32) as u32;
        // A vacant slot hands over its buffer, empty but with its capacity.
        let (slot, mut own) = match self.vacant {
            NIL => (self.entries.len(), PathBuf::new()),
            slot => {
                self.vacant = self.entries[slot].newer;
                (slot, std::mem::take(&mut self.entries[slot].path))
            }
        };
        let path = path.as_ref();
        if is_plain(path_bytes(path)) {
            own.as_mut_os_string().push(path.as_os_str());
        } else {
            own.extend(path.components());
        }
        let entry = Entry { fid, path: own, older: NIL, newer: NIL, up: NIL, kids: [NIL; 2], rank };
        if slot == self.entries.len() {
            self.entries.push(entry);
        } else {
            self.entries[slot] = entry;
        }
        self.map.insert(fid, slot);
        self.link_newest(slot);
        self.plant(slot);
    }

    /// Drops one entry (e.g. its directory was renamed or removed).
    pub fn invalidate(&mut self, fid: Fid) {
        if let Some(&slot) = self.map.get(&fid) {
            self.remove(slot);
            self.stats.invalidations += 1;
        }
    }

    /// Drops every entry whose cached path starts with `prefix` — used
    /// when a directory rename moves a whole subtree. Each entry dropped
    /// costs one descent of the path tree, and finding none costs one,
    /// whatever the size of the cache.
    pub fn invalidate_prefix(&mut self, prefix: &Path) {
        let respelled: PathBuf;
        let prefix = if is_plain(path_bytes(prefix)) {
            prefix
        } else {
            respelled = prefix.components().collect();
            &respelled
        };
        loop {
            // The first entry at or after `prefix`: `prefix` itself if
            // cached (under whichever FIDs), else the first thing under
            // it, else something outside it.
            let (mut first, mut at) = (NIL, self.root);
            while at != NIL {
                let after = subtree_order(&self.entries[at].path, prefix) == Ordering::Less;
                if !after {
                    first = at;
                }
                at = self.entries[at].kids[usize::from(after)];
            }
            if first == NIL || !self.entries[first].path.starts_with(prefix) {
                return;
            }
            self.remove(first);
            self.stats.invalidations += 1;
        }
    }

    /// Takes the entry in `slot` out of all three indexes and leaves the
    /// slot vacant.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        self.uproot(slot);
        let entry = &mut self.entries[slot];
        entry.path.as_mut_os_string().clear();
        entry.newer = self.vacant;
        self.vacant = slot;
        let fid = entry.fid;
        self.map.remove(&fid);
    }

    /// Detaches `slot` from the recency list, joining its neighbours.
    fn unlink(&mut self, slot: usize) {
        let (older, newer) = (self.entries[slot].older, self.entries[slot].newer);
        match older {
            NIL => self.oldest = newer,
            older => self.entries[older].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.entries[newer].older = older,
        }
    }

    /// Attaches a detached `slot` at the most-recent end of the list.
    fn link_newest(&mut self, slot: usize) {
        self.entries[slot].older = self.newest;
        self.entries[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.entries[newest].newer = slot,
        }
        self.newest = slot;
    }

    /// Adds a detached `slot` to the path tree: as a leaf where its path
    /// sorts, then rotated up past every node it outranks.
    fn plant(&mut self, slot: usize) {
        let path = &self.entries[slot].path;
        let (mut up, mut side, mut at) = (NIL, 0, self.root);
        while at != NIL {
            let after = subtree_order(path, &self.entries[at].path) != Ordering::Less;
            (up, side) = (at, usize::from(after));
            at = self.entries[at].kids[side];
        }
        self.entries[slot].up = up;
        match up {
            NIL => self.root = slot,
            up => self.entries[up].kids[side] = slot,
        }
        while up != NIL && self.entries[up].rank < self.entries[slot].rank {
            self.rotate_up(slot);
            up = self.entries[slot].up;
        }
    }

    /// Takes `slot` out of the path tree: its higher-ranked child is
    /// rotated above it until it is a leaf, which is then cut off.
    fn uproot(&mut self, slot: usize) {
        loop {
            let child = match self.entries[slot].kids {
                [NIL, NIL] => break,
                [NIL, only] | [only, NIL] => only,
                [before, after] if self.entries[before].rank > self.entries[after].rank => before,
                [_, after] => after,
            };
            self.rotate_up(child);
        }
        self.relink(self.entries[slot].up, slot, NIL);
    }

    /// Swaps `node` with its parent, keeping the tree's order: the
    /// parent becomes `node`'s child on the far side, and takes over the
    /// subtree `node` had there.
    fn rotate_up(&mut self, node: usize) {
        let parent = self.entries[node].up;
        let grand = self.entries[parent].up;
        let side = usize::from(self.entries[parent].kids[1] == node);
        let inner = self.entries[node].kids[1 - side];
        self.entries[parent].kids[side] = inner;
        if inner != NIL {
            self.entries[inner].up = parent;
        }
        self.entries[node].kids[1 - side] = parent;
        self.entries[parent].up = node;
        self.entries[node].up = grand;
        self.relink(grand, parent, node);
    }

    /// Points `up`'s link to its child `old` at `new` instead; with no
    /// `up`, it is the root link that moves.
    fn relink(&mut self, up: usize, old: usize, new: usize) {
        match up {
            NIL => self.root = new,
            up => {
                let side = usize::from(self.entries[up].kids[1] == old);
                self.entries[up].kids[side] = new;
            }
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry counts of the lookup index, the recency list (walked link
    /// by link from the oldest end) and the path tree (walked in order
    /// from the root, an entry that sorts before its predecessor not
    /// counted), in that order — equal unless one has leaked, lost or
    /// misplaced an entry. For tests that drive the cache against a
    /// model.
    #[doc(hidden)]
    pub fn index_sizes(&self) -> [usize; 3] {
        let mut listed = 0;
        let mut slot = self.oldest;
        while slot != NIL && listed <= self.entries.len() {
            listed += 1;
            slot = self.entries[slot].newer;
        }
        // Every node is pushed once and popped once.
        let (mut planted, mut steps) = (0, 0);
        let (mut stack, mut at, mut last) = (Vec::new(), self.root, NIL);
        while (at != NIL || !stack.is_empty()) && steps < 2 * self.entries.len() {
            steps += 1;
            if at != NIL {
                stack.push(at);
                at = self.entries[at].kids[0];
            } else if let Some(node) = stack.pop() {
                let path = &self.entries[node].path;
                if last == NIL || subtree_order(&self.entries[last].path, path) != Ordering::Greater
                {
                    planted += 1;
                }
                (last, at) = (node, self.entries[node].kids[1]);
            }
        }
        [self.map.len(), listed, planted]
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Approximate memory footprint (entries × (FID + path bytes)).
    pub fn memory(&self) -> ByteSize {
        let bytes: usize = self
            .map
            .values()
            .map(|&slot| {
                std::mem::size_of::<Fid>() + 16 + self.entries[slot].path.as_os_str().len()
            })
            .sum();
        ByteSize::from_bytes(bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> Fid {
        Fid::new(0x100, n, 0)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PathCache::new(4);
        c.insert(fid(1), "/a/b");
        assert_eq!(c.get(fid(1)), Some(Path::new("/a/b")));
        assert_eq!(c.get(fid(2)), None);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PathCache::new(2);
        c.insert(fid(1), "/one");
        c.insert(fid(2), "/two");
        c.get(fid(1)); // refresh 1; 2 is now LRU
        c.insert(fid(3), "/three");
        assert!(c.get(fid(1)).is_some());
        assert!(c.get(fid(2)).is_none(), "2 was evicted");
        assert!(c.get(fid(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PathCache::new(0);
        c.insert(fid(1), "/x");
        assert_eq!(c.get(fid(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut c = PathCache::new(2);
        c.insert(fid(1), "/old");
        c.insert(fid(2), "/two");
        c.insert(fid(1), "/new");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(fid(1)), Some(Path::new("/new")));
        assert_eq!(c.index_sizes(), [2, 2, 2], "the old path left the path index too");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_single_and_prefix() {
        let mut c = PathCache::new(8);
        c.insert(fid(1), "/data/a");
        c.insert(fid(2), "/data/a/sub");
        c.insert(fid(3), "/other");
        c.invalidate(fid(3));
        assert_eq!(c.get(fid(3)), None);
        c.invalidate_prefix(Path::new("/data/a"));
        assert_eq!(c.get(fid(1)), None);
        assert_eq!(c.get(fid(2)), None);
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn prefix_is_by_component_and_takes_every_fid_at_a_path() {
        let mut c = PathCache::new(8);
        c.insert(fid(1), "/a/b");
        c.insert(fid(2), "/a/b"); // a second FID cached under an equal path
        c.insert(fid(3), "/a/b/c");
        c.insert(fid(4), "/a/b.d"); // sorts between /a/b and /a/b/c as bytes
        c.insert(fid(5), "/a/bc");
        c.insert(fid(6), "/a");
        c.invalidate_prefix(Path::new("/a/b"));
        assert_eq!(c.stats().invalidations, 3);
        assert_eq!(c.index_sizes(), [3, 3, 3]);
        for survivor in [4, 5, 6] {
            assert!(c.get(fid(survivor)).is_some(), "{survivor} is not under /a/b");
        }
    }

    #[test]
    fn subtree_order_is_paths_order_on_plain_names() {
        let names = ["a", "b", "bc", "b.d", "b!", "!", "a-long-name-0001", "a-long-name-0002"];
        let mut paths = vec![PathBuf::from("/"), PathBuf::from("rel/a")];
        for x in names {
            paths.push(Path::new("/").join(x));
            for y in names {
                paths.push(Path::new("/").join(x).join(y));
                paths.push(Path::new("/deep/er/than/eight/bytes").join(x).join(y));
            }
        }
        for a in &paths {
            assert!(is_plain(path_bytes(a)), "{a:?} is spelled as its components");
            for b in &paths {
                assert_eq!(subtree_order(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn odd_spellings_are_cached_as_their_components() {
        let mut c = PathCache::new(8);
        c.insert(fid(1), "/a//b/c/");
        c.insert(fid(2), "/a/bc");
        c.insert(fid(3), "/a/b/.hidden");
        assert_eq!(c.get(fid(1)).map(Path::as_os_str), Some("/a/b/c".as_ref()));
        assert_eq!(c.get(fid(3)).map(Path::as_os_str), Some("/a/b/.hidden".as_ref()));
        c.invalidate_prefix(Path::new("/a/./b/"));
        assert_eq!(c.get(fid(1)), None, "/a//b/c/ is under /a/./b/ by components");
        assert_eq!(c.get(fid(3)), None);
        assert!(c.get(fid(2)).is_some());
    }

    #[test]
    fn vacated_slots_are_reused_and_the_tree_stays_in_order() {
        // Sorted inserts (the worst case for an unbalanced tree), every
        // one after the first 64 evicting; then a subtree purge and a
        // refill through the vacated slots.
        let mut c = PathCache::new(64);
        for n in 0..1_000 {
            c.insert(fid(n), format!("/pool/{:02}/{n:04}", n % 7));
            assert_eq!(c.index_sizes(), [c.len(); 3]);
        }
        assert_eq!(c.entries.len(), 64, "evictions reuse their own slot");
        let before = c.len();
        c.invalidate_prefix(Path::new("/pool/03"));
        assert!(c.len() < before);
        assert_eq!(c.index_sizes(), [c.len(); 3]);
        for n in 1_000..1_100 {
            c.insert(fid(n), format!("/pool/{n}"));
            assert_eq!(c.index_sizes(), [c.len(); 3]);
        }
        assert_eq!(c.entries.len(), 64);
    }

    #[test]
    fn recency_index_stays_consistent_across_all_mutations() {
        // Exercise every path that touches the recency list —
        // hit-refresh, re-insert, eviction, invalidate, prefix
        // invalidation — and check the LRU order is still exact.
        let mut c = PathCache::new(3);
        c.insert(fid(1), "/a");
        c.insert(fid(2), "/b");
        c.insert(fid(3), "/c");
        c.get(fid(1)); // order now: 2, 3, 1
        c.insert(fid(2), "/b2"); // re-insert refreshes: 3, 1, 2
        c.insert(fid(4), "/d"); // evicts 3
        assert!(c.get(fid(3)).is_none(), "3 was the LRU entry");
        assert_eq!(c.stats().evictions, 1);

        c.invalidate(fid(1)); // order now: 2, 4
        c.insert(fid(5), "/e"); // fits, no eviction
        assert_eq!(c.stats().evictions, 1);
        c.insert(fid(6), "/f"); // evicts 2
        assert!(c.get(fid(2)).is_none(), "2 was the LRU entry after 1 left");

        c.invalidate_prefix(Path::new("/d")); // drops 4
        assert_eq!(c.len(), 2);
        c.insert(fid(7), "/g");
        c.insert(fid(8), "/h"); // evicts 5 (oldest survivor)
        assert!(c.get(fid(5)).is_none(), "5 was the LRU entry after the prefix purge");
        assert!(c.get(fid(6)).is_some());
        assert!(c.get(fid(7)).is_some());
        assert!(c.get(fid(8)).is_some());
    }

    #[test]
    fn memory_grows_with_entries() {
        let mut c = PathCache::new(100);
        assert_eq!(c.memory(), ByteSize::ZERO);
        for i in 0..10 {
            c.insert(fid(i), format!("/dir/{i}"));
        }
        assert!(c.memory().as_bytes() > 0);
    }
}
