//! Event paths: 16-byte handles into a shared arena of batches.
//!
//! Every [`FileEvent`](crate::FileEvent) names one path (two for a
//! rename), and the events of one batch — a decoded frame, one
//! `Collector::run_once` — are made together, travel together and are
//! dropped together. So their path bytes live together: one
//! [`PathArenaBuilder`] appends every path of the batch to one buffer
//! and hands out an [`EventPath`] — `(arena, slot and start, len)` — for
//! each. Cloning an event bumps the arena's reference count instead of
//! copying a string.
//!
//! **Groups of batches.** An arena is a group of [`ARENA_BATCHES`]
//! write-once slots behind one `Arc`, one slot per batch. The owner of a
//! stream of batches — a connection's reader, a Collector — keeps its
//! open group in its [`PathStaging`], and each of its batches seals into
//! the group's next slot, so only every eighth batch of short paths
//! allocates a header. A handle keeps its slot in the top three bits of
//! its start, so an offset is below 2^29 — far above what a frame may
//! assemble. The ninth batch opens a new group, and so does the batch
//! after one that sealed more than [`SHARED_BATCH_BYTES`], 12 KiB. A
//! group's slots are freed together, so a batch's bytes outlive it until
//! its whole group is done; measured, that costs more time than the
//! header saves once batches are long — 256 paths of 57 bytes, a
//! 1,024-member recovery page — so such batches take a group each, as
//! before groups. A builder made on its own
//! ([`PathArenaBuilder::with_capacity`], `From<String>`) takes a fresh
//! group and uses slot 0.
//!
//! **Write-once, then sealed.** While a builder lives it alone can read
//! or append to its slot's bytes ([`PathArenaBuilder::get`]); sealing
//! puts them into the slot, after which they never change and every
//! handle can read them. A handle read while its builder is still alive
//! is a bug in this program and panics — producers publish a batch only
//! after its builder is sealed, and a decoder that fails returns no
//! events.
//!
//! **Staging.** The owner also keeps the storage its batches are
//! assembled in and lends it, with the open group, to each batch's
//! builder ([`PathArenaBuilder::with_staging`]). The seal
//! ([`PathArenaBuilder::seal`]) copies the bytes into the slot, exactly
//! sized, in one allocation, and hands the staging back, warm for the
//! next batch — unless its storage grew past [`MAX_STAGING`], so that one
//! huge batch does not pin its size for as long as its owner lives. A
//! builder made on its own seals when it drops, moving its bytes in and
//! shrinking them to size.
//!
//! A batch that is refused seals its slot empty
//! ([`PathArenaBuilder::abandon`]): the group goes on, and none of the
//! bytes it assembled stay behind.
//!
//! **Retention.** One held event pins its whole group's path bytes: the
//! batches sealed into it, ≈ 72 KB for eight batches of 256 paths of 35
//! bytes. The group's bytes are freed when the last handle into any of
//! its batches, and its owner, let go. A group takes no batch after one
//! of more than [`SHARED_BATCH_BYTES`], so it holds at most seven batches
//! of that size and its last, which may be as large as a frame may
//! assemble: the stop is checked at the seal, when the batch's handles
//! already name the group. The store rotates segments whole, so it never
//! strands one batch; a consumer that keeps a single event for long
//! should copy the path out (`to_path_buf()`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::str::Utf8Error;
use std::sync::{Arc, OnceLock};

/// Batches one arena header serves: an owner's batches fill its group's
/// slots in turn, and the next batch after the last opens a new group.
pub const ARENA_BATCHES: usize = 8;

/// Where a handle's `start` keeps its batch's slot: the bits from here
/// up; the offset into the slot's bytes is below them.
const SLOT_SHIFT: u32 = 29;

/// Bytes a batch's slot can address: an offset, and the end of a path, lie
/// below this (512 MiB).
pub(crate) const SLOT_BYTES: usize = 1 << SLOT_SHIFT;

const _: () = assert!(ARENA_BATCHES <= 1 << (u32::BITS - SLOT_SHIFT));

/// The path bytes of up to [`ARENA_BATCHES`] batches, one slot each; a
/// slot is empty until its batch's builder seals it.
struct PathArena([OnceLock<Box<str>>; ARENA_BATCHES]);

impl PathArena {
    /// A group with every slot empty: the one allocation of its header.
    fn group() -> Arc<PathArena> {
        Arc::new(PathArena([const { OnceLock::new() }; ARENA_BATCHES]))
    }
}

/// Most staging storage [`PathArenaBuilder::seal`] hands back — storage
/// that grew past this, a batch of more path bytes than 256 KiB such as
/// a recovery page of long paths, is freed at the seal, and the owner's
/// next batch stages afresh.
pub const MAX_STAGING: usize = 256 << 10;

/// Most path bytes a batch may seal and leave its group open for the
/// next: 256 paths of up to 48 bytes. A group's slots are freed together,
/// so a longer batch — whose bytes would outlive it longest — closes its
/// group, and the batch after it opens a new one.
pub const SHARED_BATCH_BYTES: usize = 12 << 10;

/// The absolute path of an event: a handle into its batch's slot of an
/// arena, that derefs to [`Path`] and compares, orders, hashes and prints
/// as the `PathBuf` of the same bytes. Always UTF-8: a path that is not
/// is converted lossily where it enters (`From<PathBuf>`), once.
#[derive(Clone)]
pub struct EventPath {
    arena: Arc<PathArena>,
    /// The batch's slot, in the top bits, and the path's offset into it.
    start: u32,
    len: u32,
}

impl EventPath {
    /// The path as a string slice, at no cost.
    ///
    /// # Panics
    ///
    /// When the [`PathArenaBuilder`] that made this handle is still
    /// alive (see the module docs).
    pub fn as_str(&self) -> &str {
        self.view().as_str()
    }

    /// Whether `self` and `other` keep the same arena alive: the same
    /// group, whether or not the same batch.
    pub fn shares_arena(&self, other: &EventPath) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// Length in bytes; unlike reading, this needs no sealed arena.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The path, borrowed.
    pub(crate) fn view(&self) -> PathView<'_> {
        PathView { arena: &self.arena, start: self.start, len: self.len }
    }

    /// Where the path lies in its arena, its slot included: what
    /// [`EventPath::view_at`] takes back.
    pub(crate) fn place(&self) -> (u32, u32) {
        (self.start, self.len)
    }

    /// The path of the same arena at `place`, borrowed.
    pub(crate) fn view_at(&self, (start, len): (u32, u32)) -> PathView<'_> {
        PathView { arena: &self.arena, start, len }
    }
}

/// An [`EventPath`] borrowed: its arena and its place there. A
/// connection's [`History`](crate::bin::History) keeps the place of each
/// member's path and one handle for the members that share an arena, so
/// recording a member touches no reference count.
#[derive(Clone, Copy)]
pub(crate) struct PathView<'a> {
    arena: &'a Arc<PathArena>,
    start: u32,
    len: u32,
}

impl<'a> PathView<'a> {
    /// As [`EventPath::as_str`], with the same panic.
    pub(crate) fn as_str(&self) -> &'a str {
        // cannot fail: a batch's handles are handed out only once its builder has sealed them.
        let bytes = self.arena.0[self.slot()]
            .get()
            .expect("an EventPath is read after its arena is sealed");
        &bytes[self.range()]
    }

    /// Length in bytes; unlike reading, this needs no sealed arena.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The slot of its batch in the arena.
    fn slot(&self) -> usize {
        (self.start >> SLOT_SHIFT) as usize
    }

    /// Where the path lies in its slot's bytes.
    fn range(&self) -> Range<usize> {
        let offset = (self.start as usize) & (SLOT_BYTES - 1);
        offset..offset + self.len as usize
    }
}

/// An arena of one path, for an event built on its own, outside a batch.
impl From<String> for EventPath {
    fn from(path: String) -> EventPath {
        // cannot fail: a path is at most PATH_MAX, 4,096 bytes, where it enters the monitor.
        let len = u32::try_from(path.len()).expect("a path is shorter than 4 GiB");
        let arena = PathArena::group();
        // A fresh group: its slot 0 is empty, and the set succeeds.
        let _ = arena.0[0].set(path.into_boxed_str());
        EventPath { arena, start: 0, len }
    }
}

impl From<&str> for EventPath {
    fn from(path: &str) -> EventPath {
        EventPath::from(path.to_string())
    }
}

/// Lossily when `path` is not UTF-8, matching what the binary encoding
/// has always sent for such a path.
impl From<PathBuf> for EventPath {
    fn from(path: PathBuf) -> EventPath {
        EventPath::from(
            path.into_os_string()
                .into_string()
                .unwrap_or_else(|os| os.to_string_lossy().into_owned()),
        )
    }
}

impl Deref for EventPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        Path::new(self.as_str())
    }
}

impl AsRef<Path> for EventPath {
    fn as_ref(&self) -> &Path {
        self
    }
}

impl fmt::Debug for EventPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for EventPath {
    fn eq(&self, other: &EventPath) -> bool {
        **self == **other
    }
}

impl Eq for EventPath {}

impl PartialEq<&Path> for EventPath {
    fn eq(&self, other: &&Path) -> bool {
        **self == **other
    }
}

impl PartialEq<PathBuf> for EventPath {
    fn eq(&self, other: &PathBuf) -> bool {
        **self == **other
    }
}

impl PartialOrd for EventPath {
    fn partial_cmp(&self, other: &EventPath) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventPath {
    fn cmp(&self, other: &EventPath) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for EventPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// What the owner of a stream of batches keeps from one to the next and
/// lends to each batch's [`PathArenaBuilder`]: the storage the batch's
/// paths are assembled in, and the open group — the arena whose next slot
/// the batch seals into. It holds no group before its first batch is
/// sealed, nor after a batch closes its group.
#[derive(Default)]
pub struct PathStaging {
    bytes: String,
    open: Option<OpenGroup>,
}

impl PathStaging {
    /// Reserves room for `bytes` path bytes in storage that holds none
    /// yet; warm storage keeps the capacity its earlier batches grew.
    pub(crate) fn reserve_cold(&mut self, bytes: usize) {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve(bytes);
        }
    }
}

#[cfg(test)]
impl PathStaging {
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// The slot the next batch seals into, when a group is open.
    pub(crate) fn next_slot(&self) -> Option<usize> {
        self.open.as_ref().map(|open| open.slot)
    }
}

impl fmt::Debug for PathStaging {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathStaging")
            .field("capacity", &self.bytes.capacity())
            .field("slot", &self.open.as_ref().map(|open| open.slot))
            .finish()
    }
}

/// A group a batch seals into: the arena, and the slot the batch takes.
struct OpenGroup {
    arena: Arc<PathArena>,
    slot: usize,
}

impl OpenGroup {
    fn new() -> OpenGroup {
        OpenGroup { arena: PathArena::group(), slot: 0 }
    }
}

/// The write side of one batch's slot: appends paths, hands out their
/// handles, and seals the slot — with [`PathArenaBuilder::seal`], or
/// when dropped — only then can the handles be read.
pub struct PathArenaBuilder {
    group: OpenGroup,
    bytes: String,
}

impl PathArenaBuilder {
    /// A builder with room for `bytes` path bytes, in slot 0 of a fresh
    /// group; it grows past that.
    pub fn with_capacity(bytes: usize) -> PathArenaBuilder {
        PathArenaBuilder::with_staging(PathStaging {
            bytes: String::with_capacity(bytes),
            open: None,
        })
    }

    /// A builder that assembles its paths in `staging`, kept by its
    /// caller from batch to batch — its bytes cleared, its capacity kept —
    /// and seals them into the next slot of the staging's open group, or
    /// of a fresh group when none is open; [`PathArenaBuilder::seal`]
    /// hands the staging back.
    pub fn with_staging(staging: PathStaging) -> PathArenaBuilder {
        let PathStaging { mut bytes, open } = staging;
        bytes.clear();
        PathArenaBuilder { group: open.unwrap_or_else(OpenGroup::new), bytes }
    }

    /// Seals the slot with an exact-size copy of its bytes — every
    /// handle becomes readable — and hands back the staging: the storage
    /// they were assembled in, emptied, and the group, open for the next
    /// batch unless this one took its last slot or sealed more than
    /// [`SHARED_BATCH_BYTES`]. Storage that grew past
    /// [`MAX_STAGING`] is freed instead.
    pub fn seal(mut self) -> PathStaging {
        let mut bytes = std::mem::take(&mut self.bytes);
        let OpenGroup { arena, slot } = &self.group;
        // Only a seal ever sets it, and this is the builder's first.
        let _ = arena.0[*slot].set(bytes.as_str().into());
        let slot = slot + 1;
        let open = (slot < ARENA_BATCHES && bytes.len() <= SHARED_BATCH_BYTES)
            .then(|| OpenGroup { arena: Arc::clone(arena), slot });
        if bytes.capacity() > MAX_STAGING {
            bytes = String::new();
        }
        bytes.clear();
        PathStaging { bytes, open }
    }

    /// Seals the slot empty, for a batch that is refused: the bytes it
    /// assembled go back to the staging, not into the group, which stays
    /// open as [`PathArenaBuilder::seal`] leaves it. The batch's handles
    /// must be dropped unread.
    pub fn abandon(mut self) -> PathStaging {
        self.bytes.clear();
        self.seal()
    }

    /// Appends the concatenation of `parts` as one path.
    pub fn push_parts(&mut self, parts: &[&str]) -> EventPath {
        let start = self.bytes.len();
        parts.iter().for_each(|part| self.bytes.push_str(part));
        self.handle(start).unwrap_or_else(|| {
            // Past what a handle can address: this path gets an arena of
            // its own.
            let path = EventPath::from(&self.bytes[start..]);
            self.bytes.truncate(start);
            path
        })
    }

    /// Reads `path` before the slot is sealed, when this builder made it
    /// (and as [`EventPath::as_str`] does when another did).
    pub fn get<'a>(&'a self, path: &'a EventPath) -> &'a str {
        let path = path.view();
        if self.owns(path) {
            &self.bytes[path.range()]
        } else {
            path.as_str()
        }
    }

    /// Appends the first `shared` bytes of `prev` and then `suffix` as
    /// one path, which must be UTF-8 as a whole: `prev`'s prefix may end
    /// inside a character that `suffix` completes. `shared` must not
    /// exceed `prev`'s length, nor the result what a frame may assemble.
    pub(crate) fn push_front_coded(
        &mut self,
        prev: Option<PathView<'_>>,
        shared: usize,
        suffix: &[u8],
    ) -> Result<EventPath, Utf8Error> {
        let start = self.bytes.len();
        // A prefix that ends inside a character the suffix completes is
        // checked whole, at the cost of a copy.
        match prev {
            Some(prev) if self.owns(prev) => {
                let from = prev.range().start;
                if self.bytes.is_char_boundary(from + shared) {
                    let suffix = std::str::from_utf8(suffix)?;
                    self.bytes.extend_from_within(from..from + shared);
                    self.bytes.push_str(suffix);
                } else {
                    let whole = [&self.bytes.as_bytes()[from..from + shared], suffix].concat();
                    self.bytes.push_str(std::str::from_utf8(&whole)?);
                }
            }
            // No base, or one assembled elsewhere — an earlier frame's
            // member, sealed in another arena or an earlier slot of this
            // one, or one decoded by hand — which lends its shared bytes
            // and nothing more.
            _ => {
                let base = prev.as_ref().map_or("", PathView::as_str);
                if let Some(prefix) = base.get(..shared) {
                    let suffix = std::str::from_utf8(suffix)?;
                    self.bytes.push_str(prefix);
                    self.bytes.push_str(suffix);
                } else {
                    let whole = [&base.as_bytes()[..shared], suffix].concat();
                    self.bytes.push_str(std::str::from_utf8(&whole)?);
                }
            }
        }
        // cannot fail: a reader assembles at most FRAME_PATH_BUDGET, 64 MiB, into its slot.
        Ok(self.handle(start).expect("a frame assembles far less than 512 MiB"))
    }

    /// Whether `path` is this builder's: in its group, and in its slot.
    fn owns(&self, path: PathView<'_>) -> bool {
        Arc::ptr_eq(path.arena, &self.group.arena) && path.slot() == self.group.slot
    }

    /// The handle for everything appended since `start`, unless that
    /// runs past what a slot's offsets address.
    fn handle(&self, start: usize) -> Option<EventPath> {
        if self.bytes.len() >= SLOT_BYTES {
            return None;
        }
        Some(EventPath {
            arena: Arc::clone(&self.group.arena),
            start: (self.group.slot << SLOT_SHIFT | start) as u32,
            len: (self.bytes.len() - start) as u32,
        })
    }
}

impl fmt::Debug for PathArenaBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathArenaBuilder")
            .field("slot", &self.group.slot)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

/// Seals the slot unless [`PathArenaBuilder::seal`] has: the bytes move
/// in, shrunk to size, and every handle becomes readable.
impl Drop for PathArenaBuilder {
    fn drop(&mut self) {
        // Only a seal ever sets it; after `seal` there is nothing left to
        // move, and the set fails.
        let bytes = std::mem::take(&mut self.bytes).into_boxed_str();
        let _ = self.group.arena.0[self.group.slot].set(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seals `paths` as the next batch of `staging`'s owner and returns
    /// their handles.
    fn batch(staging: &mut PathStaging, paths: &[&str]) -> Vec<EventPath> {
        let mut builder = PathArenaBuilder::with_staging(std::mem::take(staging));
        let handles = paths.iter().map(|path| builder.push_parts(&[path])).collect();
        *staging = builder.seal();
        handles
    }

    /// An owner's batches fill one group's slots in turn, each readable
    /// from its seal on while the next is still being built; the ninth
    /// opens a new group, and so does the seventeenth.
    #[test]
    fn a_ninth_seal_opens_a_new_group() {
        let mut staging = PathStaging::default();
        let mut firsts: Vec<EventPath> = Vec::new();
        for i in 0..2 * ARENA_BATCHES + 1 {
            let spelled = format!("/d/{i}");
            let mut builder = PathArenaBuilder::with_staging(std::mem::take(&mut staging));
            let path = builder.push_parts(&[&spelled]);
            let mate = builder.push_parts(&[&spelled, "/mate"]);
            assert_eq!(builder.get(&mate), format!("{spelled}/mate"));
            if let Some(before) = firsts.last() {
                assert_eq!(builder.get(before), format!("/d/{}", i - 1), "sealed, so readable");
            }
            staging = builder.seal();
            assert_eq!((path.as_str(), path.view().slot()), (spelled.as_str(), i % ARENA_BATCHES));
            assert!(path.shares_arena(&mate));
            firsts.push(path);
        }
        for (i, path) in firsts.iter().enumerate() {
            let group = &firsts[i / ARENA_BATCHES * ARENA_BATCHES];
            assert!(path.shares_arena(group), "batch {i} in its group");
            assert_eq!(path.as_str(), format!("/d/{i}"));
        }
        assert!(!firsts[ARENA_BATCHES].shares_arena(&firsts[ARENA_BATCHES - 1]));
        assert!(!firsts[2 * ARENA_BATCHES].shares_arena(&firsts[2 * ARENA_BATCHES - 1]));
        assert_eq!(staging.next_slot(), Some(1));
    }

    /// A batch of more than [`SHARED_BATCH_BYTES`] closes its group
    /// before the group's slots run out, wherever it falls: the batch
    /// after it opens a new group, and a run of them takes a group each.
    #[test]
    fn a_long_batch_closes_its_group() {
        let long = format!("/{}", "x".repeat(SHARED_BATCH_BYTES));
        let at_limit = format!("/{}", "x".repeat(SHARED_BATCH_BYTES - 1));
        let mut staging = PathStaging::default();
        let first = batch(&mut staging, &[&at_limit]);
        assert_eq!(staging.next_slot(), Some(1), "{} bytes sealed", at_limit.len());
        let second = batch(&mut staging, &[&long]);
        assert_eq!(staging.next_slot(), None, "{} bytes sealed", long.len());
        assert!(staging.capacity() > 0, "the storage is kept, warm: it is below the limit");
        let third = batch(&mut staging, &[&long]);
        assert_eq!(staging.next_slot(), None);
        let fourth = batch(&mut staging, &["/short"]);
        assert_eq!(staging.next_slot(), Some(1));
        assert!(first[0].shares_arena(&second[0]));
        assert!(!third[0].shares_arena(&second[0]) && !fourth[0].shares_arena(&third[0]));
        assert_eq!((third[0].view().slot(), fourth[0].view().slot()), (0, 0));
        assert_eq!(first[0].as_str(), at_limit);
        assert!([&second, &third].iter().all(|b| b[0].as_str() == long));
        assert_eq!(fourth[0].as_str(), "/short");
    }

    /// A handle into the slot a builder is still writing is not readable.
    #[test]
    #[should_panic(expected = "read after its arena is sealed")]
    fn a_handle_read_before_its_slot_is_sealed_panics() {
        let mut staging = PathStaging::default();
        batch(&mut staging, &["/sealed"]);
        let mut builder = PathArenaBuilder::with_staging(staging);
        let open = builder.push_parts(&["/open"]);
        let _ = open.as_str();
    }
}
