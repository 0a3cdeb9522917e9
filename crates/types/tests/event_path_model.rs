//! `EventPath` against its model, the `PathBuf` it replaced: whatever
//! the spelling (doubled and trailing separators, `.` and `..`, names
//! that share part of a character), a handle compares, orders, hashes
//! and prints as the `PathBuf` of the same bytes does —
//! whether it owns an arena of one path or shares a batch's. Clones and
//! batch-mates share one arena, and the arena's bytes are freed with
//! the last handle into it (a counting `#[global_allocator]`, as in
//! `crates/core/tests/alloc_budget.rs`, keeps this thread's live bytes).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdci_types::{EventPath, PathArenaBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

thread_local! {
    // A `const`-initialised `Cell` needs no lazy set-up and no
    // destructor, so the allocator can touch it without allocating.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct LiveBytes;

fn note(delta: isize) {
    // `try_with`: the allocator also runs during a thread's TLS teardown.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the note touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Paths over a few components, spelled every way `Path` normalises or
/// does not: absolute and relative, empty components (`//`), `.`, `..`,
/// a trailing separator, multi-byte names.
fn spelling() -> impl Strategy<Value = String> {
    let part = prop::sample::select(vec!["a", "ab", "b", "", ".", "..", "é", "è", "日本", "a b"]);
    (prop::collection::vec(part, 0..5), any::<bool>(), any::<bool>()).prop_map(
        |(parts, absolute, trailing)| {
            let mut path = if absolute { "/".to_string() } else { String::new() };
            path.push_str(&parts.join("/"));
            if trailing {
                path.push('/');
            }
            path
        },
    )
}

/// Every observable of one handle equals its model's.
fn same_as_model(path: &EventPath, model: &PathBuf) -> Result<(), TestCaseError> {
    prop_assert!(path == model && *path == model.as_path());
    prop_assert_eq!(path.as_str(), model.to_str().unwrap());
    prop_assert_eq!(&**path, model.as_path());
    prop_assert_eq!(hash_of(path), hash_of(model));
    prop_assert_eq!(format!("{path:?}"), format!("{model:?}"));
    prop_assert_eq!(path.display().to_string(), model.display().to_string());
    prop_assert_eq!(path.file_name(), model.file_name());
    prop_assert_eq!(path.parent(), model.parent());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_event_path_behaves_as_the_path_buf_of_the_same_bytes(
        spellings in prop::collection::vec(spelling(), 2..6),
    ) {
        let models: Vec<PathBuf> = spellings.iter().map(PathBuf::from).collect();
        // Each path alone in its arena, and all of them in one.
        let alone: Vec<EventPath> = models.iter().cloned().map(EventPath::from).collect();
        let mut builder = PathArenaBuilder::with_capacity(0);
        let batch: Vec<EventPath> = spellings.iter().map(|s| builder.push_parts(&[s])).collect();
        for (path, spelling) in batch.iter().zip(&spellings) {
            prop_assert_eq!(builder.get(path), spelling);
        }
        drop(builder);

        for handles in [&alone, &batch] {
            for (i, a) in handles.iter().enumerate() {
                same_as_model(a, &models[i])?;
                prop_assert!(a.clone().shares_arena(a));
                for (j, b) in handles.iter().enumerate() {
                    prop_assert_eq!(a == b, models[i] == models[j]);
                    prop_assert_eq!(a.cmp(b), models[i].cmp(&models[j]));
                    prop_assert_eq!(a.partial_cmp(b), models[i].partial_cmp(&models[j]));
                    prop_assert_eq!(a.starts_with(b), models[i].starts_with(&models[j]));
                    prop_assert_eq!(a.ends_with(b), models[i].ends_with(&models[j]));
                }
            }
        }
        for (a, b) in alone.iter().zip(&batch) {
            prop_assert_eq!(a, b);
            prop_assert!(!a.shares_arena(b));
            prop_assert!(b.shares_arena(&batch[0]));
        }
    }
}

/// A path that is not UTF-8 enters lossily, once: the handle is the
/// `PathBuf` of the lossy string from then on.
#[cfg(unix)]
#[test]
fn a_non_utf8_path_buf_converts_lossily() {
    use std::os::unix::ffi::OsStrExt;
    let raw = PathBuf::from(std::ffi::OsStr::from_bytes(b"/d/\xc3(/\xff"));
    let lossy = PathBuf::from("/d/\u{fffd}(/\u{fffd}");
    assert_eq!(EventPath::from(raw), lossy);
}

#[test]
fn a_batch_arena_lives_exactly_as_long_as_its_last_handle() {
    const PATHS: usize = 64;
    // What a clone copies: 16 bytes, and no more for an optional one.
    assert_eq!(std::mem::size_of::<EventPath>(), 16);
    assert_eq!(std::mem::size_of::<Option<EventPath>>(), 16);
    let name = "n".repeat(1_000);
    let mut kept = Vec::with_capacity(PATHS);
    let before = LIVE.with(Cell::get);

    let mut builder = PathArenaBuilder::with_capacity(PATHS * 1_024);
    for i in 0..PATHS {
        kept.push(builder.push_parts(&["/dir", &i.to_string(), "/", &name]));
    }
    let arena_bytes = builder.byte_len() as isize;
    drop(builder);
    // Sealed at exactly its size: the arena, plus its few words of header.
    let held = LIVE.with(Cell::get) - before;
    assert!((arena_bytes..arena_bytes + 128).contains(&held), "{held} live for {arena_bytes}");

    // Clones cost nothing, and one survivor pins the whole batch.
    let clones = kept.clone();
    let survivor = kept.swap_remove(PATHS / 2);
    kept.clear();
    drop(clones);
    assert_eq!(LIVE.with(Cell::get) - before, held);
    assert!(survivor.ends_with(Path::new(&name)));

    drop(survivor);
    assert_eq!(LIVE.with(Cell::get) - before, 0, "the last handle frees the arena");
}
