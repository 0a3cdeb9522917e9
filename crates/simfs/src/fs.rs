//! The filesystem proper.
//!
//! Every path-taking operation makes one descent from the root
//! ([`SimFs::lookup`] for the object, [`SimFs::lookup_parent`] for the
//! directory that holds its name) and then calls the operation's one
//! implementation, its `_at` form, which takes the directory's inode and
//! the name. The descent borrows each name from the caller's path; only
//! a path spelled with `..` is normalised into a copy first.

use crate::error::FsError;
use crate::hash::IdMap;
use crate::node::{FileType, Inode, InodeId};
use crate::ops::{FsOp, FsOpKind, Observer, ObserverId};
use crate::path::{normalized, walkable};
use sdci_types::SimTime;
use std::borrow::Cow;
use std::fmt;
use std::path::{Component, Path, PathBuf};

/// Metadata returned by [`SimFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// The object's inode id.
    pub inode: InodeId,
    /// The object's type.
    pub file_type: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Hard-link count.
    pub nlink: u32,
    /// Last content modification.
    pub mtime: SimTime,
    /// Last metadata change.
    pub ctime: SimTime,
    /// Last access.
    pub atime: SimTime,
}

/// One entry returned by [`SimFs::read_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within the directory.
    pub name: String,
    /// Inode of the entry.
    pub inode: InodeId,
    /// Type of the entry.
    pub file_type: FileType,
}

/// A name resolved by [`SimFs::lookup_parent`]: the directory that
/// holds it and the name, borrowed from the caller's path unless the
/// path was spelled with `..`.
pub type ParentAndName<'p> = (InodeId, Cow<'p, str>);

/// An in-memory POSIX-style filesystem (see the crate docs for an
/// overview and example).
pub struct SimFs {
    inodes: IdMap<InodeId, Inode>,
    next_inode: u64,
    observers: Vec<(ObserverId, Box<dyn Observer + Send>)>,
    next_observer: u64,
    files: u64,
    dirs: u64,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs")
            .field("inodes", &self.inodes.len())
            .field("files", &self.files)
            .field("dirs", &self.dirs)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Default for SimFs {
    fn default() -> Self {
        Self::new()
    }
}

/// A walkable path split into its parent's names and its last name.
struct Split<'p> {
    dir: Cow<'p, Path>,
    name: Cow<'p, str>,
}

/// Splits a path [`walkable`] returned. The root has no last name:
/// [`FsError::InvalidPath`]`("/")`.
fn split(path: Cow<'_, Path>) -> Result<Split<'_>, FsError> {
    match path {
        Cow::Borrowed(path) => {
            let mut names = path.components();
            match names.next_back() {
                Some(Component::Normal(name)) => {
                    Ok(Split { dir: Cow::Borrowed(names.as_path()), name: name.to_string_lossy() })
                }
                _ => Err(FsError::InvalidPath(normalized(path))),
            }
        }
        Cow::Owned(mut path) => {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                return Err(FsError::InvalidPath(path));
            };
            path.pop();
            Ok(Split { dir: Cow::Owned(path), name: Cow::Owned(name) })
        }
    }
}

impl SimFs {
    /// Creates an empty filesystem containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = IdMap::default();
        inodes.insert(InodeId::ROOT, Inode::new_dir(InodeId::ROOT, None, "", SimTime::EPOCH));
        SimFs { inodes, next_inode: 2, observers: Vec::new(), next_observer: 0, files: 0, dirs: 1 }
    }

    // ---- observers ----------------------------------------------------

    /// Registers an observer that sees every subsequent mutation.
    pub fn add_observer(&mut self, observer: impl Observer + Send + 'static) -> ObserverId {
        let id = ObserverId(self.next_observer);
        self.next_observer += 1;
        self.observers.push((id, Box::new(observer)));
        id
    }

    /// Detaches a previously registered observer. Unknown ids are a no-op.
    pub fn remove_observer(&mut self, id: ObserverId) {
        self.observers.retain(|(oid, _)| *oid != id);
    }

    /// Hands the observers the op `build` makes. With none registered,
    /// nothing is built: an op's name and paths are copies only an
    /// observer reads.
    fn notify(&mut self, build: impl FnOnce(&Self) -> FsOp) {
        if self.observers.is_empty() {
            return;
        }
        let op = build(self);
        for (_, obs) in &mut self.observers {
            obs.on_op(&op);
        }
    }

    /// The op for a mutation of the entry `name` in `parent`, named by
    /// its path from the root.
    fn entry_op(
        &self,
        kind: FsOpKind,
        time: SimTime,
        inode: InodeId,
        parent: InodeId,
        name: &str,
        is_dir: bool,
    ) -> FsOp {
        FsOp {
            kind,
            time,
            inode,
            parent,
            name: name.to_owned(),
            path: self.entry_path(parent, name),
            src_parent: None,
            src_path: None,
            is_dir,
        }
    }

    // ---- lookup -------------------------------------------------------

    fn node(&self, id: InodeId) -> &Inode {
        // cannot fail: lookups, entries and parents name live inodes; a caller's stale id is a documented panic.
        self.inodes.get(&id).expect("dangling inode id")
    }

    fn node_mut(&mut self, id: InodeId) -> &mut Inode {
        // cannot fail: as `node`; every caller passes an id it has just looked up.
        self.inodes.get_mut(&id).expect("dangling inode id")
    }

    fn is_dir(&self, id: InodeId) -> bool {
        self.node(id).file_type == FileType::Directory
    }

    /// The descent every path-taking operation makes: from the root
    /// through `path`'s names, each borrowed from `path`, which
    /// [`walkable`] has vetted. A missing name reports `path`
    /// normalised; a non-directory on the way reports its own path.
    fn descend(&self, path: &Path) -> Result<InodeId, FsError> {
        let mut cur = InodeId::ROOT;
        for comp in path.components() {
            let Component::Normal(name) = comp else { continue };
            let node = self.node(cur);
            if node.file_type != FileType::Directory {
                return Err(FsError::NotADirectory(self.path_of(cur)));
            }
            match node.entries.get(&*name.to_string_lossy()) {
                Some(&id) => cur = id,
                None => return Err(FsError::NotFound(normalized(path))),
            }
        }
        Ok(cur)
    }

    /// Resolves an absolute path to an inode id.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if any component is missing,
    /// [`FsError::NotADirectory`] if a non-final component is not a
    /// directory, [`FsError::InvalidPath`] for relative paths.
    pub fn lookup(&self, path: impl AsRef<Path>) -> Result<InodeId, FsError> {
        self.descend(&walkable(path.as_ref())?)
    }

    /// Resolves the directory that holds `path`'s last name, and that
    /// name: the one descent behind every `_at` operation's path form.
    /// The directory is not checked to be one; each `_at` form reports
    /// that in its own way.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidPath`] for relative paths and for the root
    /// (which has no name), and [`SimFs::lookup`]'s errors on the
    /// parent.
    pub fn lookup_parent<'p>(&self, path: &'p Path) -> Result<ParentAndName<'p>, FsError> {
        let Split { dir, name } = split(walkable(path)?)?;
        Ok((self.descend(&dir)?, name))
    }

    /// Resolves both sides of a rename, [`SimFs::lookup_parent`] for
    /// each, or `None` when `from` and `to` name the same path (a
    /// rename that does nothing). Both paths are vetted and split
    /// before either is walked.
    ///
    /// # Errors
    ///
    /// As [`SimFs::lookup_parent`], `from`'s before `to`'s.
    pub fn lookup_rename<'p>(
        &self,
        from: &'p Path,
        to: &'p Path,
    ) -> Result<Option<(ParentAndName<'p>, ParentAndName<'p>)>, FsError> {
        let (from, to) = (walkable(from)?, walkable(to)?);
        if from == to {
            return Ok(None);
        }
        let (from, to) = (split(from)?, split(to)?);
        Ok(Some(((self.descend(&from.dir)?, from.name), (self.descend(&to.dir)?, to.name))))
    }

    /// The entry `name` in `dir`, if there is one (never, when `dir` is
    /// not a directory).
    pub fn child(&self, dir: InodeId, name: &str) -> Option<InodeId> {
        self.node(dir).entries.get(name).copied()
    }

    /// Resolves the entry `name` in `dir`: the last step of
    /// [`SimFs::lookup`].
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `dir` is not a directory,
    /// [`FsError::NotFound`] when it has no such entry.
    pub fn lookup_at(&self, dir: InodeId, name: &str) -> Result<InodeId, FsError> {
        if !self.is_dir(dir) {
            return Err(FsError::NotADirectory(self.path_of(dir)));
        }
        self.existing(dir, name)
    }

    /// [`SimFs::child`], or [`FsError::NotFound`] naming the entry.
    fn existing(&self, dir: InodeId, name: &str) -> Result<InodeId, FsError> {
        self.child(dir, name).ok_or_else(|| FsError::NotFound(self.entry_path(dir, name)))
    }

    /// True when `path` resolves to an object.
    pub fn exists(&self, path: impl AsRef<Path>) -> bool {
        self.lookup(path).is_ok()
    }

    /// Reconstructs the absolute path of an inode by following parent
    /// links — the namespace-side primitive behind Lustre's `fid2path`.
    /// Allocates once, at the path's exact length.
    ///
    /// # Panics
    ///
    /// Panics when `id` names no live inode.
    pub fn path_of(&self, id: InodeId) -> PathBuf {
        self.entry_path(id, "")
    }

    /// The absolute path of the entry `name` in directory `dir`, as
    /// [`SimFs::entry_path_into`] writes it, allocated once at its exact
    /// length.
    ///
    /// # Panics
    ///
    /// Panics when `dir` names no live inode.
    pub fn entry_path(&self, dir: InodeId, name: &str) -> PathBuf {
        let mut path = PathBuf::new();
        self.entry_path_into(dir, name, &mut path);
        path
    }

    /// Writes the absolute path of an inode into `path`, replacing what
    /// it held, as `llapi_fid2path` writes into the buffer it is handed.
    /// The buffer grows only when the path is longer than its capacity,
    /// and then once; no name is cloned.
    ///
    /// # Panics
    ///
    /// Panics when `id` names no live inode.
    pub fn path_into(&self, id: InodeId, path: &mut PathBuf) {
        self.entry_path_into(id, "", path);
    }

    /// Writes the absolute path of the entry `name` in directory `dir`
    /// into `path`, as [`SimFs::path_into`] does. The entry need not
    /// exist: this is the path a removed or renamed-away name had. An
    /// empty `name` is `dir` itself.
    ///
    /// # Panics
    ///
    /// Panics when `dir` names no live inode.
    pub fn entry_path_into(&self, dir: InodeId, name: &str, path: &mut PathBuf) {
        path.as_mut_os_string().clear();
        let tail = if name.is_empty() { 0 } else { 1 + name.len() };
        self.push_names(dir, tail, path);
        if !name.is_empty() {
            path.push(name);
        }
    }

    /// Appends the names from the root down to `id` to the empty `path`.
    /// `below` is what the names under `id` will add, so the root, where
    /// the recursion turns, reserves the whole path at once.
    fn push_names(&self, id: InodeId, below: usize, path: &mut PathBuf) {
        let node = self.node(id);
        match node.parent {
            Some(parent) => {
                self.push_names(parent, 1 + node.name.len() + below, path);
                path.push(&node.name);
            }
            None => {
                path.reserve_exact(below.max(1));
                path.push("/");
            }
        }
    }

    /// Returns metadata for `path`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimFs::lookup`] errors.
    pub fn stat(&self, path: impl AsRef<Path>) -> Result<Stat, FsError> {
        let id = self.lookup(path)?;
        Ok(self.stat_inode(id))
    }

    /// Returns metadata for an inode id.
    ///
    /// # Panics
    ///
    /// Panics when `id` names no live inode.
    pub fn stat_inode(&self, id: InodeId) -> Stat {
        let n = self.node(id);
        Stat {
            inode: n.id,
            file_type: n.file_type,
            size: n.size,
            mode: n.mode,
            nlink: n.nlink,
            mtime: n.mtime,
            ctime: n.ctime,
            atime: n.atime,
        }
    }

    /// Returns a symlink's target string.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidPath`] when `path` is not a symlink, plus lookup
    /// errors.
    pub fn read_link(&self, path: impl AsRef<Path>) -> Result<String, FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        self.node(id).link_target.clone().ok_or_else(|| FsError::InvalidPath(normalized(path)))
    }

    /// Lists a directory's entries in name order.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `path` is not a directory, plus
    /// lookup errors.
    pub fn read_dir(&self, path: impl AsRef<Path>) -> Result<Vec<DirEntry>, FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        let node = self.node(id);
        if node.file_type != FileType::Directory {
            return Err(FsError::NotADirectory(normalized(path)));
        }
        Ok(node
            .entries
            .iter()
            .map(|(name, &inode)| DirEntry {
                name: name.clone(),
                inode,
                file_type: self.node(inode).file_type,
            })
            .collect())
    }

    /// Walks the whole namespace depth-first, yielding `(path, stat)` for
    /// every object (excluding the root itself). Order is deterministic.
    pub fn walk(&self) -> Vec<(PathBuf, Stat)> {
        let mut out = Vec::new();
        self.walk_into(InodeId::ROOT, Path::new("/"), &mut out);
        out
    }

    fn walk_into(&self, dir: InodeId, dir_path: &Path, out: &mut Vec<(PathBuf, Stat)>) {
        let node = self.node(dir);
        for (name, &child) in &node.entries {
            let child_path = dir_path.join(name);
            out.push((child_path.clone(), self.stat_inode(child)));
            if self.is_dir(child) {
                self.walk_into(child, &child_path, out);
            }
        }
    }

    /// Number of regular files (and symlinks count as files here).
    pub fn file_count(&self) -> u64 {
        self.files
    }

    /// Number of directories, including the root.
    pub fn dir_count(&self) -> u64 {
        self.dirs
    }

    // ---- mutation helpers ----------------------------------------------

    fn alloc_id(&mut self) -> InodeId {
        let id = InodeId(self.next_inode);
        self.next_inode += 1;
        id
    }

    /// Checks that `name` can be made in `parent`: a single, proper name
    /// in a directory that does not hold it yet.
    fn check_new(&self, parent: InodeId, name: &str) -> Result<(), FsError> {
        self.check_name(parent, name)?;
        let node = self.node(parent);
        if node.file_type != FileType::Directory {
            return Err(FsError::NotADirectory(self.path_of(parent)));
        }
        if node.entries.contains_key(name) {
            return Err(FsError::AlreadyExists(self.entry_path(parent, name)));
        }
        Ok(())
    }

    /// Checks that `name`, to be made in `parent`, is one proper name,
    /// as a path's last component always is.
    fn check_name(&self, parent: InodeId, name: &str) -> Result<(), FsError> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(FsError::InvalidPath(self.entry_path(parent, name)));
        }
        Ok(())
    }

    /// Puts the new `inode` in the table and under `name` in `parent`.
    fn insert_new(&mut self, parent: InodeId, name: &str, inode: Inode, now: SimTime) {
        let id = inode.id;
        self.inodes.insert(id, inode);
        self.insert_child(parent, name, id, now);
    }

    fn insert_child(&mut self, parent: InodeId, name: &str, child: InodeId, now: SimTime) {
        let p = self.node_mut(parent);
        p.entries.insert(name.to_owned(), child);
        p.mtime = now;
        p.ctime = now;
    }

    /// Takes `name` out of `parent`.
    fn remove_child(&mut self, parent: InodeId, name: &str, now: SimTime) -> &mut Inode {
        let p = self.node_mut(parent);
        p.entries.remove(name);
        p.mtime = now;
        p.ctime = now;
        p
    }

    // ---- mutations ------------------------------------------------------

    /// Creates an empty regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the name is taken, plus lookup
    /// errors on the parent.
    pub fn create(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let (parent, name) = self.lookup_parent(path.as_ref())?;
        self.create_at(parent, &name, now)
    }

    /// [`SimFs::create`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `parent` is not a directory,
    /// [`FsError::AlreadyExists`] when the name is taken,
    /// [`FsError::InvalidPath`] when `name` is not a single name.
    pub fn create_at(
        &mut self,
        parent: InodeId,
        name: &str,
        now: SimTime,
    ) -> Result<InodeId, FsError> {
        self.check_new(parent, name)?;
        let id = self.alloc_id();
        self.insert_new(parent, name, Inode::new_file(id, parent, name, now), now);
        self.files += 1;
        self.notify(|fs| fs.entry_op(FsOpKind::Create, now, id, parent, name, false));
        Ok(id)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the name is taken, plus lookup
    /// errors on the parent.
    pub fn mkdir(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let (parent, name) = self.lookup_parent(path.as_ref())?;
        self.mkdir_at(parent, &name, now)
    }

    /// [`SimFs::mkdir`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// As [`SimFs::create_at`].
    pub fn mkdir_at(
        &mut self,
        parent: InodeId,
        name: &str,
        now: SimTime,
    ) -> Result<InodeId, FsError> {
        self.check_new(parent, name)?;
        let id = self.alloc_id();
        self.insert_new(parent, name, Inode::new_dir(id, Some(parent), name, now), now);
        self.node_mut(parent).nlink += 1;
        self.dirs += 1;
        self.notify(|fs| fs.entry_op(FsOpKind::Mkdir, now, id, parent, name, true));
        Ok(id)
    }

    /// Creates a directory and any missing ancestors, in one descent.
    /// Existing directories along the way are fine.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if an existing component is a file.
    pub fn mkdir_all(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let path = walkable(path.as_ref())?;
        let mut dir = InodeId::ROOT;
        for comp in path.components() {
            let Component::Normal(name) = comp else { continue };
            let name = name.to_string_lossy();
            dir = match self.child(dir, &name) {
                Some(id) if self.is_dir(id) => id,
                Some(_) => return Err(FsError::NotADirectory(self.entry_path(dir, &name))),
                None => self.mkdir_at(dir, &name, now)?,
            };
        }
        Ok(dir)
    }

    /// Creates a symbolic link at `path` pointing at `target`.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the name is taken, plus lookup
    /// errors on the parent.
    pub fn symlink(
        &mut self,
        path: impl AsRef<Path>,
        target: &str,
        now: SimTime,
    ) -> Result<InodeId, FsError> {
        let (parent, name) = self.lookup_parent(path.as_ref())?;
        self.symlink_at(parent, &name, target, now)
    }

    /// [`SimFs::symlink`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// As [`SimFs::create_at`].
    pub fn symlink_at(
        &mut self,
        parent: InodeId,
        name: &str,
        target: &str,
        now: SimTime,
    ) -> Result<InodeId, FsError> {
        self.check_new(parent, name)?;
        let id = self.alloc_id();
        self.insert_new(parent, name, Inode::new_symlink(id, parent, name, target, now), now);
        self.files += 1;
        self.notify(|fs| fs.entry_op(FsOpKind::Symlink, now, id, parent, name, false));
        Ok(id)
    }

    /// Creates a hard link `new_path` to the file at `existing`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when `existing` is a directory,
    /// [`FsError::AlreadyExists`] when `new_path` is taken, plus lookup
    /// errors.
    pub fn hardlink(
        &mut self,
        existing: impl AsRef<Path>,
        new_path: impl AsRef<Path>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let target = self.lookup(existing)?;
        // A directory is refused before the new path is walked.
        self.linkable(target)?;
        let (parent, name) = self.lookup_parent(new_path.as_ref())?;
        self.hardlink_at(target, parent, &name, now)
    }

    /// [`SimFs::hardlink`] of the object `target` as the entry `name` in
    /// directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when `target` is a directory, then as
    /// [`SimFs::create_at`].
    pub fn hardlink_at(
        &mut self,
        target: InodeId,
        parent: InodeId,
        name: &str,
        now: SimTime,
    ) -> Result<(), FsError> {
        self.linkable(target)?;
        self.check_new(parent, name)?;
        self.insert_child(parent, name, target, now);
        let n = self.node_mut(target);
        n.nlink += 1;
        n.ctime = now;
        self.notify(|fs| fs.entry_op(FsOpKind::HardLink, now, target, parent, name, false));
        Ok(())
    }

    fn linkable(&self, target: InodeId) -> Result<(), FsError> {
        if self.is_dir(target) {
            return Err(FsError::IsADirectory(self.path_of(target)));
        }
        Ok(())
    }

    /// Removes the file or symlink at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories (use [`SimFs::rmdir`]),
    /// plus lookup errors.
    pub fn unlink(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<(), FsError> {
        let (parent, name) = self.lookup_parent(path.as_ref())?;
        self.unlink_at(parent, &name, now)
    }

    /// [`SimFs::unlink`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when `parent` holds no such entry (or is no
    /// directory), [`FsError::IsADirectory`] for a directory.
    pub fn unlink_at(&mut self, parent: InodeId, name: &str, now: SimTime) -> Result<(), FsError> {
        let id = self.existing(parent, name)?;
        if self.is_dir(id) {
            return Err(FsError::IsADirectory(self.entry_path(parent, name)));
        }
        self.remove_child(parent, name, now);
        let node = self.node_mut(id);
        node.nlink -= 1;
        node.ctime = now;
        let last_link = node.nlink == 0;
        if last_link {
            self.inodes.remove(&id);
            self.files -= 1;
        } else if node.parent == Some(parent) && node.name == name {
            // The primary link went: another link takes its place, the
            // least by (directory, name) so every run picks the same, and
            // a path walk never follows a parent that may be removed.
            let link = self
                .inodes
                .values()
                .filter_map(|dir| Some((dir.id, dir.entries.iter().find(|e| *e.1 == id)?.0)))
                .min()
                .map(|(dir, name)| (dir, name.clone()));
            if let Some((dir, name)) = link {
                let node = self.node_mut(id);
                node.parent = Some(dir);
                node.name = name;
            }
        }
        self.notify(|fs| fs.entry_op(FsOpKind::Unlink { last_link }, now, id, parent, name, false));
        Ok(())
    }

    /// Removes the empty directory at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] when it still has entries,
    /// [`FsError::NotADirectory`] when it is a file,
    /// [`FsError::InvalidPath`] for the root, plus lookup errors.
    pub fn rmdir(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<(), FsError> {
        let (parent, name) = self.lookup_parent(path.as_ref())?;
        self.rmdir_at(parent, &name, now)
    }

    /// [`SimFs::rmdir`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when `parent` holds no such entry (or is no
    /// directory), [`FsError::NotADirectory`] when the entry is not one,
    /// [`FsError::NotEmpty`] when it still has entries.
    pub fn rmdir_at(&mut self, parent: InodeId, name: &str, now: SimTime) -> Result<(), FsError> {
        let id = self.existing(parent, name)?;
        let node = self.node(id);
        if node.file_type != FileType::Directory {
            return Err(FsError::NotADirectory(self.entry_path(parent, name)));
        }
        if !node.entries.is_empty() {
            return Err(FsError::NotEmpty(self.entry_path(parent, name)));
        }
        self.remove_child(parent, name, now).nlink -= 1;
        self.inodes.remove(&id);
        self.dirs -= 1;
        self.notify(|fs| fs.entry_op(FsOpKind::Rmdir, now, id, parent, name, true));
        Ok(())
    }

    /// Renames `from` to `to`, replacing a regular-file destination like
    /// POSIX `rename(2)`.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the destination is a directory,
    /// [`FsError::RenameIntoSelf`] when moving a directory under itself,
    /// plus lookup errors.
    pub fn rename(
        &mut self,
        from: impl AsRef<Path>,
        to: impl AsRef<Path>,
        now: SimTime,
    ) -> Result<(), FsError> {
        match self.lookup_rename(from.as_ref(), to.as_ref())? {
            Some(((from_parent, from_name), (to_parent, to_name))) => {
                self.rename_at(from_parent, &from_name, to_parent, &to_name, now)
            }
            None => Ok(()),
        }
    }

    /// [`SimFs::rename`] of the entry `from_name` in directory
    /// `from_parent` to the entry `to_name` in directory `to_parent`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `to_parent` is not a directory,
    /// [`FsError::NotFound`] when `from_parent` holds no `from_name`,
    /// then as [`SimFs::rename`].
    pub fn rename_at(
        &mut self,
        from_parent: InodeId,
        from_name: &str,
        to_parent: InodeId,
        to_name: &str,
        now: SimTime,
    ) -> Result<(), FsError> {
        if !self.is_dir(to_parent) {
            return Err(FsError::NotADirectory(self.path_of(to_parent)));
        }
        let id = self.existing(from_parent, from_name)?;
        let moving_dir = self.is_dir(id);

        if moving_dir {
            // Guard against moving a directory into its own subtree.
            let mut cur = Some(to_parent);
            while let Some(c) = cur {
                if c == id {
                    return Err(FsError::RenameIntoSelf(self.entry_path(from_parent, from_name)));
                }
                cur = self.node(c).parent;
            }
        }

        // Handle an existing destination.
        if let Some(dest) = self.child(to_parent, to_name) {
            if dest == id {
                return Ok(());
            }
            if self.is_dir(dest) {
                return Err(FsError::AlreadyExists(self.entry_path(to_parent, to_name)));
            }
            self.unlink_at(to_parent, to_name, now)?;
        } else {
            self.check_name(to_parent, to_name)?;
        }

        let from = self.remove_child(from_parent, from_name, now);
        if moving_dir {
            from.nlink -= 1;
        }
        self.insert_child(to_parent, to_name, id, now);
        if moving_dir {
            self.node_mut(to_parent).nlink += 1;
        }
        let n = self.node_mut(id);
        n.parent = Some(to_parent);
        n.name = to_name.to_owned();
        n.ctime = now;
        self.notify(|fs| FsOp {
            src_parent: Some(from_parent),
            src_path: Some(fs.entry_path(from_parent, from_name)),
            ..fs.entry_op(FsOpKind::Rename, now, id, to_parent, to_name, moving_dir)
        });
        Ok(())
    }

    /// Appends `bytes` to the file at `path` (content write).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories, plus lookup errors.
    pub fn write(
        &mut self,
        path: impl AsRef<Path>,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        self.change(id, |_| normalized(path), now, FsOpKind::Write, |n| n.size += bytes)
    }

    /// [`SimFs::write`] to the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`SimFs::lookup_at`]'s errors, and [`FsError::IsADirectory`].
    pub fn write_at(
        &mut self,
        parent: InodeId,
        name: &str,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.lookup_at(parent, name)?;
        let path = |fs: &Self| fs.entry_path(parent, name);
        self.change(id, path, now, FsOpKind::Write, |n| n.size += bytes)
    }

    /// Truncates the file at `path` to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories, plus lookup errors.
    pub fn truncate(
        &mut self,
        path: impl AsRef<Path>,
        size: u64,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        self.change(id, |_| normalized(path), now, FsOpKind::Truncate, |n| n.size = size)
    }

    /// [`SimFs::truncate`] of the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// As [`SimFs::write_at`].
    pub fn truncate_at(
        &mut self,
        parent: InodeId,
        name: &str,
        size: u64,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.lookup_at(parent, name)?;
        let path = |fs: &Self| fs.entry_path(parent, name);
        self.change(id, path, now, FsOpKind::Truncate, |n| n.size = size)
    }

    /// Applies a change of `kind` to `id`, which `path` names: a content
    /// change (a write or truncate) to a file only, stamping its mtime,
    /// a metadata change to any object, stamping its ctime. Notifies it
    /// under the object's primary parent and name.
    fn change(
        &mut self,
        id: InodeId,
        path: impl FnOnce(&Self) -> PathBuf,
        now: SimTime,
        kind: FsOpKind,
        apply: impl FnOnce(&mut Inode),
    ) -> Result<(), FsError> {
        let content = matches!(kind, FsOpKind::Write | FsOpKind::Truncate);
        if content && self.is_dir(id) {
            return Err(FsError::IsADirectory(path(self)));
        }
        let n = self.node_mut(id);
        apply(n);
        if content {
            n.mtime = now;
        } else {
            n.ctime = now;
        }
        self.notify(|fs| {
            let n = fs.node(id);
            FsOp {
                kind,
                time: now,
                inode: id,
                parent: n.parent.unwrap_or(InodeId::ROOT),
                name: n.name.clone(),
                path: path(fs),
                src_parent: None,
                src_path: None,
                is_dir: n.file_type == FileType::Directory,
            }
        });
        Ok(())
    }

    /// Sets an extended attribute on the object at `path`.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn set_xattr(
        &mut self,
        path: impl AsRef<Path>,
        key: impl Into<String>,
        value: impl Into<Vec<u8>>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        let apply = |n: &mut Inode| drop(n.xattrs.insert(key.into(), value.into()));
        self.change(id, |_| normalized(path), now, FsOpKind::SetXattr, apply)
    }

    /// [`SimFs::set_xattr`] on the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`SimFs::lookup_at`]'s errors.
    pub fn set_xattr_at(
        &mut self,
        parent: InodeId,
        name: &str,
        key: impl Into<String>,
        value: impl Into<Vec<u8>>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.lookup_at(parent, name)?;
        let apply = |n: &mut Inode| drop(n.xattrs.insert(key.into(), value.into()));
        self.change(id, |fs| fs.entry_path(parent, name), now, FsOpKind::SetXattr, apply)
    }

    /// Reads an extended attribute, if set.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn get_xattr(&self, path: impl AsRef<Path>, key: &str) -> Result<Option<Vec<u8>>, FsError> {
        let id = self.lookup(path)?;
        Ok(self.node(id).xattrs.get(key).cloned())
    }

    /// Lists an object's extended-attribute names, sorted.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn list_xattrs(&self, path: impl AsRef<Path>) -> Result<Vec<String>, FsError> {
        let id = self.lookup(path)?;
        Ok(self.node(id).xattrs.keys().cloned().collect())
    }

    /// Changes permission bits (metadata-only change).
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn set_attr(
        &mut self,
        path: impl AsRef<Path>,
        mode: u32,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = path.as_ref();
        let id = self.lookup(path)?;
        self.change(id, |_| normalized(path), now, FsOpKind::SetAttr, |n| n.mode = mode)
    }

    /// [`SimFs::set_attr`] on the entry `name` in directory `parent`.
    ///
    /// # Errors
    ///
    /// [`SimFs::lookup_at`]'s errors.
    pub fn set_attr_at(
        &mut self,
        parent: InodeId,
        name: &str,
        mode: u32,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.lookup_at(parent, name)?;
        self.change(id, |fs| fs.entry_path(parent, name), now, FsOpKind::SetAttr, |n| n.mode = mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn create_and_stat() {
        let mut fs = SimFs::new();
        fs.create("/a.txt", t(1)).unwrap();
        let st = fs.stat("/a.txt").unwrap();
        assert_eq!(st.file_type, FileType::File);
        assert_eq!(st.size, 0);
        assert_eq!(st.mtime, t(1));
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn create_in_missing_dir_fails() {
        let mut fs = SimFs::new();
        assert!(matches!(fs.create("/no/file", t(0)), Err(FsError::NotFound(_))));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        assert!(matches!(fs.create("/a", t(1)), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn mkdir_all_builds_chain() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/a/b/c", t(0)).unwrap();
        assert!(fs.exists("/a/b/c"));
        // idempotent
        fs.mkdir_all("/a/b/c", t(1)).unwrap();
        assert_eq!(fs.dir_count(), 4); // root + a + b + c
    }

    #[test]
    fn mkdir_all_through_file_fails() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        assert!(matches!(fs.mkdir_all("/a/b", t(1)), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn unlink_removes_file() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        fs.unlink("/a", t(1)).unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn unlink_dir_fails() {
        let mut fs = SimFs::new();
        fs.mkdir("/d", t(0)).unwrap();
        assert!(matches!(fs.unlink("/d", t(1)), Err(FsError::IsADirectory(_))));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = SimFs::new();
        fs.mkdir("/d", t(0)).unwrap();
        fs.create("/d/f", t(0)).unwrap();
        assert!(matches!(fs.rmdir("/d", t(1)), Err(FsError::NotEmpty(_))));
        fs.unlink("/d/f", t(1)).unwrap();
        fs.rmdir("/d", t(2)).unwrap();
        assert!(!fs.exists("/d"));
        assert_eq!(fs.dir_count(), 1);
    }

    #[test]
    fn rename_moves_and_updates_paths() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/src/sub", t(0)).unwrap();
        fs.mkdir("/dst", t(0)).unwrap();
        fs.create("/src/sub/f", t(0)).unwrap();
        fs.rename("/src/sub", "/dst/moved", t(1)).unwrap();
        assert!(fs.exists("/dst/moved/f"));
        assert!(!fs.exists("/src/sub"));
        let id = fs.lookup("/dst/moved/f").unwrap();
        assert_eq!(fs.path_of(id), PathBuf::from("/dst/moved/f"));
    }

    #[test]
    fn rename_replaces_file_destination() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        fs.create("/b", t(0)).unwrap();
        fs.write("/a", 10, t(0)).unwrap();
        fs.rename("/a", "/b", t(1)).unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.stat("/b").unwrap().size, 10);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn rename_into_own_subtree_fails() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/a/b", t(0)).unwrap();
        assert!(matches!(fs.rename("/a", "/a/b/a2", t(1)), Err(FsError::RenameIntoSelf(_))));
    }

    #[test]
    fn rename_to_same_path_is_noop() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        fs.rename("/a", "/a", t(1)).unwrap();
        assert!(fs.exists("/a"));
    }

    #[test]
    fn write_and_truncate_update_size() {
        let mut fs = SimFs::new();
        fs.create("/f", t(0)).unwrap();
        fs.write("/f", 100, t(1)).unwrap();
        fs.write("/f", 50, t(2)).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 150);
        fs.truncate("/f", 10, t(3)).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 10);
        assert_eq!(fs.stat("/f").unwrap().mtime, t(3));
    }

    #[test]
    fn hardlink_shares_inode() {
        let mut fs = SimFs::new();
        fs.create("/a", t(0)).unwrap();
        fs.hardlink("/a", "/b", t(1)).unwrap();
        assert_eq!(fs.lookup("/a").unwrap(), fs.lookup("/b").unwrap());
        assert_eq!(fs.stat("/a").unwrap().nlink, 2);
        fs.unlink("/a", t(2)).unwrap();
        assert!(fs.exists("/b"));
        assert_eq!(fs.file_count(), 1);
        fs.unlink("/b", t(3)).unwrap();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn symlink_records_target() {
        let mut fs = SimFs::new();
        fs.symlink("/s", "/target/file", t(0)).unwrap();
        let st = fs.stat("/s").unwrap();
        assert_eq!(st.file_type, FileType::Symlink);
        assert_eq!(st.size, 12);
        assert_eq!(fs.read_link("/s").unwrap(), "/target/file");
        fs.create("/plain", t(1)).unwrap();
        assert!(matches!(fs.read_link("/plain"), Err(FsError::InvalidPath(_))));
    }

    #[test]
    fn xattrs_set_get_list_and_notify() {
        let ops: Arc<Mutex<Vec<FsOpKind>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ops);
        let mut fs = SimFs::new();
        fs.create("/f", t(0)).unwrap();
        fs.add_observer(move |op: &FsOp| sink.lock().unwrap().push(op.kind));
        fs.set_xattr("/f", "user.project", b"climate".to_vec(), t(1)).unwrap();
        fs.set_xattr("/f", "user.owner", b"amy".to_vec(), t(2)).unwrap();
        assert_eq!(fs.get_xattr("/f", "user.project").unwrap(), Some(b"climate".to_vec()));
        assert_eq!(fs.get_xattr("/f", "user.missing").unwrap(), None);
        assert_eq!(
            fs.list_xattrs("/f").unwrap(),
            vec!["user.owner".to_string(), "user.project".to_string()]
        );
        assert_eq!(*ops.lock().unwrap(), vec![FsOpKind::SetXattr, FsOpKind::SetXattr]);
        assert!(fs.get_xattr("/missing", "k").is_err());
    }

    #[test]
    fn read_dir_is_sorted() {
        let mut fs = SimFs::new();
        for name in ["zeta", "alpha", "mid"] {
            fs.create(format!("/{name}"), t(0)).unwrap();
        }
        let names: Vec<String> = fs.read_dir("/").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn walk_lists_everything() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/a/b", t(0)).unwrap();
        fs.create("/a/b/f", t(0)).unwrap();
        fs.create("/top", t(0)).unwrap();
        let paths: Vec<String> =
            fs.walk().into_iter().map(|(p, _)| p.display().to_string()).collect();
        assert_eq!(paths, vec!["/a", "/a/b", "/a/b/f", "/top"]);
    }

    #[test]
    fn observer_sees_all_mutations() {
        let ops: Arc<Mutex<Vec<FsOpKind>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ops);
        let mut fs = SimFs::new();
        fs.add_observer(move |op: &FsOp| sink.lock().unwrap().push(op.kind));
        fs.mkdir("/d", t(0)).unwrap();
        fs.create("/d/f", t(1)).unwrap();
        fs.write("/d/f", 1, t(2)).unwrap();
        fs.rename("/d/f", "/d/g", t(3)).unwrap();
        fs.set_attr("/d/g", 0o600, t(4)).unwrap();
        fs.unlink("/d/g", t(5)).unwrap();
        fs.rmdir("/d", t(6)).unwrap();
        let got = ops.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                FsOpKind::Mkdir,
                FsOpKind::Create,
                FsOpKind::Write,
                FsOpKind::Rename,
                FsOpKind::SetAttr,
                FsOpKind::Unlink { last_link: true },
                FsOpKind::Rmdir,
            ]
        );
    }

    #[test]
    fn observer_rename_carries_src_path() {
        let ops: Arc<Mutex<Vec<FsOp>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ops);
        let mut fs = SimFs::new();
        fs.mkdir("/a", t(0)).unwrap();
        fs.mkdir("/b", t(0)).unwrap();
        fs.create("/a/f", t(0)).unwrap();
        fs.add_observer(move |op: &FsOp| sink.lock().unwrap().push(op.clone()));
        fs.rename("/a/f", "/b/f2", t(1)).unwrap();
        let got = ops.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].src_path, Some(PathBuf::from("/a/f")));
        assert_eq!(got[0].path, PathBuf::from("/b/f2"));
    }

    #[test]
    fn remove_observer_stops_delivery() {
        let ops: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
        let sink = Arc::clone(&ops);
        let mut fs = SimFs::new();
        let id = fs.add_observer(move |_: &FsOp| *sink.lock().unwrap() += 1);
        fs.create("/a", t(0)).unwrap();
        fs.remove_observer(id);
        fs.create("/b", t(1)).unwrap();
        assert_eq!(*ops.lock().unwrap(), 1);
    }

    #[test]
    fn failed_ops_notify_nothing() {
        let ops: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
        let sink = Arc::clone(&ops);
        let mut fs = SimFs::new();
        fs.add_observer(move |_: &FsOp| *sink.lock().unwrap() += 1);
        let _ = fs.create("/missing/f", t(0));
        let _ = fs.unlink("/nope", t(0));
        assert_eq!(*ops.lock().unwrap(), 0);
    }

    #[test]
    fn a_reused_buffer_holds_exactly_each_path_written_into_it() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/a-long-directory/b", t(0)).unwrap();
        fs.create("/a-long-directory/b/f", t(0)).unwrap();
        fs.create("/g", t(0)).unwrap();
        let mut path = PathBuf::from("/stale/contents/longer/than/any");
        for spelled in ["/a-long-directory/b/f", "/g", "/", "/a-long-directory"] {
            let id = fs.lookup(spelled).unwrap();
            fs.path_into(id, &mut path);
            assert_eq!(path.as_os_str(), spelled);
            assert_eq!(fs.path_of(id).as_os_str(), spelled);
        }
        let dir = fs.lookup("/a-long-directory/b").unwrap();
        fs.entry_path_into(dir, "gone", &mut path);
        assert_eq!(path.as_os_str(), "/a-long-directory/b/gone");
        fs.entry_path_into(InodeId::ROOT, "top", &mut path);
        assert_eq!(path.as_os_str(), "/top");
    }

    #[test]
    fn path_of_allocates_the_exact_length() {
        let mut fs = SimFs::new();
        fs.mkdir_all("/one/two/three", t(0)).unwrap();
        let id = fs.lookup("/one/two/three").unwrap();
        assert_eq!(fs.path_of(id).capacity(), "/one/two/three".len());
    }

    #[test]
    fn unlinking_the_primary_link_moves_the_path_to_a_surviving_link() {
        let mut fs = SimFs::new();
        fs.mkdir("/d1", t(0)).unwrap();
        fs.mkdir("/d2", t(0)).unwrap();
        let id = fs.create("/d1/f", t(0)).unwrap();
        fs.hardlink("/d1/f", "/d2/g", t(1)).unwrap();
        fs.unlink("/d1/f", t(2)).unwrap();
        assert_eq!(fs.path_of(id), PathBuf::from("/d2/g"));
        // The old primary directory can go without stranding the file.
        fs.rmdir("/d1", t(3)).unwrap();
        assert_eq!(fs.path_of(id), PathBuf::from("/d2/g"));
    }

    #[test]
    fn path_of_root() {
        let fs = SimFs::new();
        assert_eq!(fs.path_of(InodeId::ROOT), PathBuf::from("/"));
    }

    #[test]
    fn at_forms_take_a_directory_and_one_name() {
        let mut fs = SimFs::new();
        let d = fs.mkdir_at(InodeId::ROOT, "d", t(0)).unwrap();
        let f = fs.create_at(d, "f", t(0)).unwrap();
        assert_eq!(fs.lookup_at(d, "f"), Ok(f));
        assert_eq!(fs.lookup("/d/f"), Ok(f));
        fs.write_at(d, "f", 5, t(1)).unwrap();
        assert_eq!(fs.stat_inode(f).size, 5);
        fs.rename_at(d, "f", InodeId::ROOT, "g", t(2)).unwrap();
        assert_eq!(fs.path_of(f), PathBuf::from("/g"));
        for bad in ["", ".", "..", "x/y"] {
            assert!(matches!(fs.create_at(d, bad, t(3)), Err(FsError::InvalidPath(_))), "{bad:?}");
            assert!(matches!(
                fs.rename_at(InodeId::ROOT, "g", d, bad, t(3)),
                Err(FsError::InvalidPath(_))
            ));
        }
        assert_eq!(fs.lookup_at(f, "x"), Err(FsError::NotADirectory(PathBuf::from("/g"))));
        assert_eq!(fs.lookup_at(d, "f"), Err(FsError::NotFound(PathBuf::from("/d/f"))));
        fs.unlink_at(InodeId::ROOT, "g", t(4)).unwrap();
        fs.rmdir_at(InodeId::ROOT, "d", t(5)).unwrap();
        assert_eq!(fs.walk(), vec![]);
    }

    #[test]
    fn lookup_parent_borrows_the_name_unless_the_path_has_dot_dot() {
        let mut fs = SimFs::new();
        let a = fs.mkdir("/a", t(0)).unwrap();
        let (dir, name) = fs.lookup_parent(Path::new("/a//b/")).unwrap();
        assert_eq!((dir, &*name), (a, "b"));
        assert!(matches!(name, Cow::Borrowed(_)));
        let (dir, name) = fs.lookup_parent(Path::new("/x/../a/b")).unwrap();
        assert_eq!((dir, &*name), (a, "b"));
        assert!(matches!(name, Cow::Owned(_)));
        assert_eq!(fs.lookup_parent(Path::new("/")), Err(FsError::InvalidPath("/".into())));
        assert_eq!(
            fs.lookup_parent(Path::new("/a/..")).map(|(d, _)| d),
            Err(FsError::InvalidPath("/".into()))
        );
    }

    #[test]
    fn a_linked_file_used_as_a_directory_is_named_by_its_primary_link() {
        let mut fs = SimFs::new();
        fs.create("/f", t(0)).unwrap();
        fs.hardlink("/f", "/g", t(0)).unwrap();
        let named = |e: FsError| e.path().clone();
        assert_eq!(fs.lookup("/g/x").map_err(named), Err(PathBuf::from("/f")));
        assert_eq!(fs.create("/g/x", t(1)).map_err(named), Err(PathBuf::from("/f")));
        assert_eq!(fs.unlink("/g/x", t(1)).map_err(named), Err(PathBuf::from("/f/x")));
    }

    #[test]
    fn simfs_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimFs>();
    }
}
