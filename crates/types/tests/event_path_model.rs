//! `EventPath` against its model, the `PathBuf` it replaced: whatever
//! the spelling (doubled and trailing separators, `.` and `..`, names
//! that share part of a character), a handle compares, orders, hashes
//! and prints as the `PathBuf` of the same bytes does —
//! whether it owns an arena of one path or shares a batch's. Clones and
//! batch-mates share one arena, as do an owner's batches, eight at a
//! time, and the arena's bytes are freed with the last handle into it
//! and its owner's staging (a counting `#[global_allocator]`, as in
//! `crates/core/tests/alloc_budget.rs`, keeps this thread's live bytes).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdci_types::{EventPath, PathArenaBuilder, PathStaging};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

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
        let mut builder = PathArenaBuilder::with_staging(PathStaging::default());
        let batch: Vec<EventPath> = spellings.iter().map(|s| builder.push_parts(&[s])).collect();
        for (path, spelling) in batch.iter().zip(&spellings) {
            prop_assert_eq!(builder.get(path), spelling);
        }
        drop(builder.seal());

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

/// Appends [`PATHS`] paths of a [`NAME`]-byte name to `builder`, into
/// `kept`: a batch short enough that its owner's next batch shares its
/// group.
fn fill(builder: &mut PathArenaBuilder, kept: &mut Vec<EventPath>) {
    let name = "n".repeat(NAME);
    for i in 0..PATHS {
        kept.push(builder.push_parts(&["/dir", &i.to_string(), "/", &name]));
    }
}

const PATHS: usize = 64;

const NAME: usize = 160;

/// The live bytes on this thread since `before`.
fn live_since(before: isize) -> isize {
    LIVE.with(Cell::get) - before
}

/// The bytes `paths` spell.
fn spelled(paths: &[EventPath]) -> isize {
    paths.iter().map(|path| path.as_str().len() as isize).sum()
}

/// A group's header: its reference counts and eight slots.
const HEADER: isize = 256;

#[test]
fn a_group_lives_exactly_as_long_as_its_last_handle_and_its_owner() {
    // What a clone copies: 16 bytes, and no more for an optional one.
    assert_eq!(std::mem::size_of::<EventPath>(), 16);
    assert_eq!(std::mem::size_of::<Option<EventPath>>(), 16);
    // A builder on fresh staging takes a group of its own, and `seal`
    // hands its staging — its storage, and the group it holds open — back
    // to its owner: here, to be freed at once.
    {
        let mut kept = Vec::with_capacity(PATHS);
        let before = LIVE.with(Cell::get);

        let mut builder = PathArenaBuilder::with_staging(PathStaging::default());
        fill(&mut builder, &mut kept);
        drop(builder.seal());
        let arena_bytes = spelled(&kept);
        // Sealed at exactly its size: the slot's bytes, plus the header.
        let held = live_since(before);
        assert!(
            (arena_bytes..arena_bytes + HEADER).contains(&held),
            "{held} live for {arena_bytes}"
        );

        // Clones cost nothing, and one survivor pins the whole group.
        let clones = kept.clone();
        let survivor = kept.swap_remove(PATHS / 2);
        kept.clear();
        drop(clones);
        assert_eq!(live_since(before), held);
        assert!(survivor.ends_with("n".repeat(NAME)));

        drop(survivor);
        assert_eq!(live_since(before), 0, "the last handle frees the group");
    }

    // An owner's batches seal into one group, which the owner's staging
    // holds open: the group's bytes go only when the last handle into any
    // of its batches, and the owner, have let go — in either order.
    for owner_first in [false, true] {
        let mut kept = Vec::with_capacity(3 * PATHS);
        let before = LIVE.with(Cell::get);
        let mut staging = PathStaging::default();
        for _ in 0..3 {
            let mut builder = PathArenaBuilder::with_staging(staging);
            fill(&mut builder, &mut kept);
            staging = builder.seal();
        }
        assert!(kept.iter().all(|path| path.shares_arena(&kept[0])), "three batches, one group");
        let arena_bytes = spelled(&kept);
        // The one survivor is the first batch's.
        let survivor = kept.swap_remove(PATHS / 2);
        kept.clear();
        if owner_first {
            drop(staging);
            let held = live_since(before);
            assert!(
                (arena_bytes..arena_bytes + HEADER).contains(&held),
                "{held} live for {arena_bytes}: every batch's bytes, pinned by one handle"
            );
            drop(survivor);
        } else {
            let held = live_since(before);
            drop(survivor);
            assert_eq!(live_since(before), held, "the owner holds its group open");
            drop(staging);
        }
        assert_eq!(live_since(before), 0, "the group is freed with the last of both");
    }
}

/// A refused batch is abandoned, not sealed: its slot is sealed empty, so
/// a held handle of the batch before it, which pins the group, pins none
/// of the refused batch's bytes, and the owner's next batch seals into
/// the same group.
#[test]
fn an_abandoned_batch_keeps_none_of_its_bytes_in_the_group() {
    let mut staging = PathStaging::default();
    let mut kept = Vec::with_capacity(PATHS);
    let mut builder = PathArenaBuilder::with_staging(staging);
    fill(&mut builder, &mut kept);
    staging = builder.seal();
    let held = kept.swap_remove(PATHS / 2);
    kept.clear();

    let before = LIVE.with(Cell::get);
    let mut builder = PathArenaBuilder::with_staging(staging);
    fill(&mut builder, &mut kept);
    let assembled = spelled_unsealed(&builder, &kept);
    kept.clear();
    staging = builder.abandon();
    assert_eq!(live_since(before), 0, "none of {assembled} assembled bytes kept");

    let mut builder = PathArenaBuilder::with_staging(staging);
    let next = builder.push_parts(&["/next"]);
    drop(builder.seal());
    assert!(next.shares_arena(&held), "the group goes on");
    assert_eq!(next.as_str(), "/next");
    assert_eq!(held.as_str(), format!("/dir{}/{}", PATHS / 2, "n".repeat(NAME)));
}

/// The bytes `paths` spell, read through the builder that is still
/// assembling them.
fn spelled_unsealed(builder: &PathArenaBuilder, paths: &[EventPath]) -> usize {
    paths.iter().map(|path| builder.get(path).len()).sum()
}
