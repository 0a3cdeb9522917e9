//! Event paths: 16-byte handles into a per-batch arena.
//!
//! Every [`FileEvent`](crate::FileEvent) names one path (two for a
//! rename), and the events of one batch — a decoded frame, one
//! `Collector::run_once` — are made together, travel together and are
//! dropped together. So their path bytes live together: one
//! [`PathArenaBuilder`] appends every path of the batch to one buffer
//! and hands out an [`EventPath`] — `(arena, start, len)` — for each.
//! Cloning an event bumps the arena's reference count instead of copying
//! a string, and the bytes are freed when the last event of the batch
//! goes.
//!
//! **Write-once, then sealed.** While a builder lives it alone can read
//! or append to its bytes ([`PathArenaBuilder::get`]); dropping it moves
//! them into the arena, after which they never change and every handle
//! can read them. A handle read while its builder is still alive is a
//! bug in this program and panics — producers publish a batch only after
//! its builder is gone, and a decoder that fails returns no events.
//!
//! **Retention.** One held event pins its whole batch's path bytes
//! (≈ 9 KB for 256 paths of 35 bytes). The store rotates segments whole,
//! so it never strands one; a consumer that keeps a single event for
//! long should copy the path out (`to_path_buf()`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::str::Utf8Error;
use std::sync::{Arc, OnceLock};

/// The path bytes of one batch; empty until its builder drops.
struct PathArena(OnceLock<Box<str>>);

/// The absolute path of an event: a handle into its batch's arena that
/// derefs to [`Path`] and compares, orders, hashes and prints as the
/// `PathBuf` of the same bytes. Always UTF-8: a path that is not is
/// converted lossily where it enters (`From<PathBuf>`), once.
#[derive(Clone)]
pub struct EventPath {
    arena: Arc<PathArena>,
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

    /// Whether `self` and `other` keep the same arena alive.
    pub fn shares_arena(&self, other: &EventPath) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// Length in bytes; unlike reading, this needs no sealed arena.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    fn range(&self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    /// The path, borrowed.
    pub(crate) fn view(&self) -> PathView<'_> {
        PathView { arena: &self.arena, start: self.start, len: self.len }
    }

    /// Where the path lies in its arena: what [`EventPath::view_at`]
    /// takes back.
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
        let bytes = self.arena.0.get().expect("an EventPath is read after its arena is sealed");
        &bytes[self.start as usize..self.start as usize + self.len as usize]
    }

    /// Length in bytes; unlike reading, this needs no sealed arena.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

/// An arena of one path, for an event built on its own, outside a batch.
impl From<String> for EventPath {
    fn from(path: String) -> EventPath {
        // cannot fail: a path is at most PATH_MAX, 4,096 bytes, where it enters the monitor.
        let len = u32::try_from(path.len()).expect("a path is shorter than 4 GiB");
        EventPath {
            arena: Arc::new(PathArena(OnceLock::from(path.into_boxed_str()))),
            start: 0,
            len,
        }
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

/// The write side of one batch's arena: appends paths, hands out their
/// handles, and seals the arena when dropped — only then can the handles
/// be read.
pub struct PathArenaBuilder {
    arena: Arc<PathArena>,
    bytes: String,
}

impl PathArenaBuilder {
    /// A builder with room for `bytes` path bytes; it grows past that.
    pub fn with_capacity(bytes: usize) -> PathArenaBuilder {
        PathArenaBuilder {
            arena: Arc::new(PathArena(OnceLock::new())),
            bytes: String::with_capacity(bytes),
        }
    }

    /// Path bytes appended so far.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
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

    /// Reads `path` before the arena is sealed, when this builder made
    /// it (and as [`EventPath::as_str`] does when another did).
    pub fn get<'a>(&'a self, path: &'a EventPath) -> &'a str {
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
            Some(prev) if Arc::ptr_eq(prev.arena, &self.arena) => {
                let from = prev.start as usize;
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
            // member, or one decoded by hand — which lends its shared
            // bytes and nothing more.
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
        // cannot fail: a reader assembles at most FRAME_PATH_BUDGET, 64 MiB, into its arena.
        Ok(self.handle(start).expect("a frame assembles far less than 4 GiB"))
    }

    fn owns(&self, path: &EventPath) -> bool {
        Arc::ptr_eq(&path.arena, &self.arena)
    }

    /// The handle for everything appended since `start`, unless that
    /// runs past what 32-bit offsets address.
    fn handle(&self, start: usize) -> Option<EventPath> {
        u32::try_from(self.bytes.len()).ok()?;
        Some(EventPath {
            arena: Arc::clone(&self.arena),
            start: start as u32,
            len: (self.bytes.len() - start) as u32,
        })
    }
}

impl fmt::Debug for PathArenaBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathArenaBuilder").field("bytes", &self.bytes.len()).finish()
    }
}

/// Seals the arena: the bytes move in, exactly sized, and every handle
/// becomes readable.
impl Drop for PathArenaBuilder {
    fn drop(&mut self) {
        // Only this builder ever sets it, and only here.
        let _ = self.arena.0.set(std::mem::take(&mut self.bytes).into_boxed_str());
    }
}
