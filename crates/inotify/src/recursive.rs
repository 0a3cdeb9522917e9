//! A Watchdog-style recursive watcher.
//!
//! Python Watchdog (which Ripple's agent uses, §3) presents a recursive
//! observer API on top of inotify's per-directory watches. Doing so
//! requires crawling the tree at setup time to place a watch on every
//! directory — the "large setup cost" the paper calls out — and reacting
//! to directory creations at runtime to extend coverage.

use crate::{Inotify, InotifyError, InotifyEvent};
use sdci_types::{ByteSize, EventKind};
use simfs::{FileType, SimFs};
use std::path::{Path, PathBuf};

/// What it cost to set up (and extend) recursive coverage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrawlStats {
    /// Directories visited during crawls (each is a `readdir` plus an
    /// `inotify_add_watch`).
    pub directories_crawled: u64,
    /// Non-directory entries enumerated during crawls.
    pub files_enumerated: u64,
    /// Watches placed.
    pub watches_placed: u64,
}

impl CrawlStats {
    /// Kernel memory implied by the placed watches at ~1 KiB each.
    pub fn kernel_memory(&self) -> ByteSize {
        ByteSize::from_kib(1).saturating_mul(self.watches_placed)
    }
}

/// Watches a directory tree by crawling it and placing per-directory
/// watches, extending coverage as directories appear.
#[derive(Debug)]
pub struct RecursiveWatcher {
    inotify: Inotify,
    roots: Vec<PathBuf>,
    stats: CrawlStats,
}

impl RecursiveWatcher {
    /// Creates a recursive watcher over an existing instance.
    pub fn new(inotify: Inotify) -> Self {
        RecursiveWatcher { inotify, roots: Vec::new(), stats: CrawlStats::default() }
    }

    /// Recursively watches the tree rooted at `path`, crawling every
    /// directory beneath it.
    ///
    /// # Errors
    ///
    /// Propagates watch-limit and lookup failures; on failure, watches
    /// placed so far remain (as with a partially initialized Watchdog
    /// observer).
    pub fn watch_tree(&mut self, fs: &SimFs, path: impl AsRef<Path>) -> Result<(), InotifyError> {
        let norm = simfs::normalize_path(path.as_ref())?;
        self.crawl(fs, &norm)?;
        if !self.roots.contains(&norm) {
            self.roots.push(norm);
        }
        Ok(())
    }

    fn crawl(&mut self, fs: &SimFs, dir: &Path) -> Result<(), InotifyError> {
        self.inotify.add_watch(fs, dir)?;
        self.stats.directories_crawled += 1;
        self.stats.watches_placed += 1;
        for entry in fs.read_dir(dir)? {
            if entry.file_type == FileType::Directory {
                let child = dir.join(&entry.name);
                self.crawl(fs, &child)?;
            } else {
                self.stats.files_enumerated += 1;
            }
        }
        Ok(())
    }

    /// Drains pending events, transparently placing watches on newly
    /// created directories under a watched root — and, like Watchdog's
    /// catch-up scan, synthesizing `Created` events for entries that
    /// appeared inside a new directory before its watch landed (the
    /// inotify race window).
    ///
    /// Raw events are returned in order, with synthetic catch-up events
    /// inserted directly after the directory-creation event that
    /// prompted the scan. The overflow marker passes through unchanged.
    pub fn poll(&mut self, fs: &SimFs) -> Vec<InotifyEvent> {
        let events = self.inotify.read_events();
        let mut out = Vec::with_capacity(events.len());
        for ev in events {
            let rescan = ev.is_dir
                && (ev.kind == EventKind::Created || ev.kind == EventKind::Moved)
                && self.under_root(&ev.path);
            let path = ev.path.clone();
            let time = ev.time;
            out.push(ev);
            if rescan {
                // The directory may already have been deleted again; a
                // failed crawl is then simply skipped.
                let mut found = Vec::new();
                let _ = self.crawl_and_collect(fs, &path, time, &mut found);
                out.extend(found);
            }
        }
        out
    }

    /// Crawls a newly visible directory, watching it and synthesizing
    /// `Created` events for its pre-existing contents.
    fn crawl_and_collect(
        &mut self,
        fs: &SimFs,
        dir: &Path,
        time: sdci_types::SimTime,
        out: &mut Vec<InotifyEvent>,
    ) -> Result<(), InotifyError> {
        let wd = self.inotify.add_watch(fs, dir)?;
        self.stats.directories_crawled += 1;
        self.stats.watches_placed += 1;
        for entry in fs.read_dir(dir)? {
            let child = dir.join(&entry.name);
            let is_dir = entry.file_type == FileType::Directory;
            out.push(InotifyEvent {
                wd,
                kind: EventKind::Created,
                name: entry.name.clone(),
                path: child.clone(),
                is_dir,
                time,
                cookie: 0,
                overflow: false,
            });
            if is_dir {
                self.crawl_and_collect(fs, &child, time, out)?;
            } else {
                self.stats.files_enumerated += 1;
            }
        }
        Ok(())
    }

    fn under_root(&self, path: &Path) -> bool {
        self.roots.iter().any(|r| path.starts_with(r))
    }

    /// Crawl/setup statistics so far.
    pub fn stats(&self) -> CrawlStats {
        self.stats
    }

    /// The underlying instance (for watch counts and kernel memory).
    pub fn inotify(&self) -> &Inotify {
        &self.inotify
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_types::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn tree() -> SimFs {
        let mut fs = SimFs::new();
        fs.mkdir_all("/data/a/x", SimTime::EPOCH).unwrap();
        fs.mkdir_all("/data/b", SimTime::EPOCH).unwrap();
        fs.create("/data/a/f1", SimTime::EPOCH).unwrap();
        fs.create("/data/a/x/f2", SimTime::EPOCH).unwrap();
        fs
    }

    #[test]
    fn watch_tree_crawls_every_directory() {
        let mut fs = tree();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/data").unwrap();
        // /data, /data/a, /data/a/x, /data/b
        assert_eq!(rw.stats().directories_crawled, 4);
        assert_eq!(rw.stats().files_enumerated, 2);
        assert_eq!(rw.inotify().watch_count(), 4);
        assert_eq!(rw.stats().kernel_memory(), ByteSize::from_kib(4));
    }

    #[test]
    fn deep_events_are_seen_after_setup() {
        let mut fs = tree();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/data").unwrap();
        fs.create("/data/a/x/new", t(1)).unwrap();
        let evs = rw.poll(&fs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, PathBuf::from("/data/a/x/new"));
    }

    #[test]
    fn new_directories_get_watched_on_poll() {
        let mut fs = tree();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/data").unwrap();
        fs.mkdir("/data/b/fresh", t(1)).unwrap();
        rw.poll(&fs);
        assert_eq!(rw.inotify().watch_count(), 5);
        fs.create("/data/b/fresh/inside", t(2)).unwrap();
        let evs = rw.poll(&fs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, PathBuf::from("/data/b/fresh/inside"));
    }

    #[test]
    fn race_window_is_covered_by_catch_up_scan() {
        // The inotify race: files created inside a brand-new directory
        // before userspace reacts produce no kernel events. Watchdog
        // (and this watcher) paper over it by scanning the new directory
        // and synthesizing Created events for what it finds.
        let mut fs = tree();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/data").unwrap();
        fs.mkdir("/data/b/raced", t(1)).unwrap();
        fs.create("/data/b/raced/recovered", t(1)).unwrap(); // before poll()
        let evs = rw.poll(&fs);
        assert_eq!(evs.len(), 2, "mkdir event + synthesized create");
        assert!(evs[0].is_dir);
        assert_eq!(evs[1].path, PathBuf::from("/data/b/raced/recovered"));
        assert_eq!(evs[1].kind, EventKind::Created);
        // Coverage is now live for subsequent events.
        fs.create("/data/b/raced/seen", t(2)).unwrap();
        assert_eq!(rw.poll(&fs).len(), 1);
    }

    #[test]
    fn catch_up_scan_recurses_into_nested_new_dirs() {
        let mut fs = tree();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/data").unwrap();
        fs.mkdir_all("/data/b/x/y", t(1)).unwrap();
        fs.create("/data/b/x/y/deep", t(1)).unwrap();
        let evs = rw.poll(&fs);
        // mkdir /data/b/x arrives live; /data/b/x/y and deep were
        // created before any watch covered them, so both arrive as
        // synthesized creates — deep exactly once.
        let deep: Vec<_> = evs.iter().filter(|e| e.path == Path::new("/data/b/x/y/deep")).collect();
        assert_eq!(deep.len(), 1);
        // And future deep events are live.
        fs.create("/data/b/x/y/later", t(2)).unwrap();
        assert_eq!(rw.poll(&fs).len(), 1);
    }

    #[test]
    fn events_outside_roots_do_not_extend_coverage() {
        let mut fs = tree();
        fs.mkdir("/other", SimTime::EPOCH).unwrap();
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino.clone());
        rw.watch_tree(&fs, "/data").unwrap();
        ino.add_watch(&fs, "/other").unwrap(); // direct, non-recursive
        fs.mkdir("/other/sub", t(1)).unwrap();
        rw.poll(&fs);
        fs.create("/other/sub/f", t(2)).unwrap();
        assert!(rw.poll(&fs).is_empty(), "no recursive coverage outside roots");
    }

    #[test]
    fn setup_cost_scales_with_directory_count() {
        let mut fs = SimFs::new();
        for i in 0..100 {
            fs.mkdir_all(format!("/big/d{i}"), SimTime::EPOCH).unwrap();
        }
        let ino = Inotify::attach(&mut fs);
        let mut rw = RecursiveWatcher::new(ino);
        rw.watch_tree(&fs, "/big").unwrap();
        assert_eq!(rw.stats().directories_crawled, 101);
        assert_eq!(rw.stats().kernel_memory(), ByteSize::from_kib(101));
    }
}
