//! The filesystem proper.

use crate::error::FsError;
use crate::node::{FileType, Inode, InodeId};
use crate::ops::{FsOp, FsOpKind, Observer, ObserverId};
use crate::path::{join_path, normalize_path, parent_and_name};
use sdci_types::SimTime;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

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

/// An in-memory POSIX-style filesystem (see the crate docs for an
/// overview and example).
pub struct SimFs {
    inodes: HashMap<InodeId, Inode>,
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

impl SimFs {
    /// Creates an empty filesystem containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
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

    fn notify(&mut self, op: FsOp) {
        for (_, obs) in &mut self.observers {
            obs.on_op(&op);
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

    /// Resolves an absolute path to an inode id.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if any component is missing,
    /// [`FsError::NotADirectory`] if a non-final component is not a
    /// directory, [`FsError::InvalidPath`] for relative paths.
    pub fn lookup(&self, path: impl AsRef<Path>) -> Result<InodeId, FsError> {
        let norm = normalize_path(path.as_ref())?;
        let mut cur = InodeId::ROOT;
        for comp in norm.components().skip(1) {
            let name = comp.as_os_str().to_string_lossy();
            let node = self.node(cur);
            if node.file_type != FileType::Directory {
                return Err(FsError::NotADirectory(self.path_of(cur)));
            }
            cur =
                *node.entries.get(name.as_ref()).ok_or_else(|| FsError::NotFound(norm.clone()))?;
        }
        Ok(cur)
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
        let mut path = PathBuf::new();
        self.path_into(id, &mut path);
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
        let norm = normalize_path(path.as_ref())?;
        let id = self.lookup(&norm)?;
        self.node(id).link_target.clone().ok_or(FsError::InvalidPath(norm))
    }

    /// Lists a directory's entries in name order.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `path` is not a directory, plus
    /// lookup errors.
    pub fn read_dir(&self, path: impl AsRef<Path>) -> Result<Vec<DirEntry>, FsError> {
        let id = self.lookup(path.as_ref())?;
        let node = self.node(id);
        if node.file_type != FileType::Directory {
            return Err(FsError::NotADirectory(normalize_path(path.as_ref())?));
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
        self.walk_into(InodeId::ROOT, &PathBuf::from("/"), &mut out);
        out
    }

    fn walk_into(&self, dir: InodeId, dir_path: &Path, out: &mut Vec<(PathBuf, Stat)>) {
        let node = self.node(dir);
        for (name, &child) in &node.entries {
            let child_path = join_path(dir_path, name);
            out.push((child_path.clone(), self.stat_inode(child)));
            if self.node(child).file_type == FileType::Directory {
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

    /// Resolves the parent directory of `path`, returning
    /// `(parent_id, name, normalized_path)` and verifying the name is not
    /// already taken.
    fn prepare_new_entry(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(InodeId, String, PathBuf), FsError> {
        let (parent_path, name) = parent_and_name(path.as_ref())?;
        let parent = self.lookup(&parent_path)?;
        if self.node(parent).file_type != FileType::Directory {
            return Err(FsError::NotADirectory(parent_path));
        }
        let full = join_path(&parent_path, &name);
        if self.node(parent).entries.contains_key(&name) {
            return Err(FsError::AlreadyExists(full));
        }
        Ok((parent, name, full))
    }

    fn insert_child(&mut self, parent: InodeId, name: &str, child: InodeId, now: SimTime) {
        let p = self.node_mut(parent);
        p.entries.insert(name.to_owned(), child);
        p.mtime = now;
        p.ctime = now;
    }

    // ---- mutations ------------------------------------------------------

    /// Creates an empty regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the name is taken, plus lookup
    /// errors on the parent.
    pub fn create(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let (parent, name, full) = self.prepare_new_entry(path)?;
        let id = self.alloc_id();
        self.inodes.insert(id, Inode::new_file(id, parent, &name, now));
        self.insert_child(parent, &name, id, now);
        self.files += 1;
        self.notify(FsOp {
            kind: FsOpKind::Create,
            time: now,
            inode: id,
            parent,
            name,
            path: full,
            src_parent: None,
            src_path: None,
            is_dir: false,
        });
        Ok(id)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] when the name is taken, plus lookup
    /// errors on the parent.
    pub fn mkdir(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let (parent, name, full) = self.prepare_new_entry(path)?;
        let id = self.alloc_id();
        self.inodes.insert(id, Inode::new_dir(id, Some(parent), &name, now));
        self.insert_child(parent, &name, id, now);
        self.node_mut(parent).nlink += 1;
        self.dirs += 1;
        self.notify(FsOp {
            kind: FsOpKind::Mkdir,
            time: now,
            inode: id,
            parent,
            name,
            path: full,
            src_parent: None,
            src_path: None,
            is_dir: true,
        });
        Ok(id)
    }

    /// Creates a directory and any missing ancestors. Existing
    /// directories along the way are fine.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if an existing component is a file.
    pub fn mkdir_all(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<InodeId, FsError> {
        let norm = normalize_path(path.as_ref())?;
        let mut cur = PathBuf::from("/");
        let mut id = InodeId::ROOT;
        for comp in norm.components().skip(1) {
            cur.push(comp);
            id = match self.lookup(&cur) {
                Ok(existing) => {
                    if self.node(existing).file_type != FileType::Directory {
                        return Err(FsError::NotADirectory(cur));
                    }
                    existing
                }
                Err(FsError::NotFound(_)) => self.mkdir(&cur, now)?,
                Err(e) => return Err(e),
            };
        }
        Ok(id)
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
        let (parent, name, full) = self.prepare_new_entry(path)?;
        let id = self.alloc_id();
        self.inodes.insert(id, Inode::new_symlink(id, parent, &name, target, now));
        self.insert_child(parent, &name, id, now);
        self.files += 1;
        self.notify(FsOp {
            kind: FsOpKind::Symlink,
            time: now,
            inode: id,
            parent,
            name,
            path: full,
            src_parent: None,
            src_path: None,
            is_dir: false,
        });
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
        let target = self.lookup(existing.as_ref())?;
        if self.node(target).file_type == FileType::Directory {
            return Err(FsError::IsADirectory(normalize_path(existing.as_ref())?));
        }
        let (parent, name, full) = self.prepare_new_entry(new_path)?;
        self.insert_child(parent, &name, target, now);
        let n = self.node_mut(target);
        n.nlink += 1;
        n.ctime = now;
        self.notify(FsOp {
            kind: FsOpKind::HardLink,
            time: now,
            inode: target,
            parent,
            name,
            path: full,
            src_parent: None,
            src_path: None,
            is_dir: false,
        });
        Ok(())
    }

    /// Removes the file or symlink at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories (use [`SimFs::rmdir`]),
    /// plus lookup errors.
    pub fn unlink(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<(), FsError> {
        let norm = normalize_path(path.as_ref())?;
        let (parent_path, name) = parent_and_name(&norm)?;
        let parent = self.lookup(&parent_path)?;
        let id =
            *self.node(parent).entries.get(&name).ok_or_else(|| FsError::NotFound(norm.clone()))?;
        if self.node(id).file_type == FileType::Directory {
            return Err(FsError::IsADirectory(norm));
        }
        self.node_mut(parent).entries.remove(&name);
        let p = self.node_mut(parent);
        p.mtime = now;
        p.ctime = now;
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
        self.notify(FsOp {
            kind: FsOpKind::Unlink { last_link },
            time: now,
            inode: id,
            parent,
            name,
            path: norm,
            src_parent: None,
            src_path: None,
            is_dir: false,
        });
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
        let norm = normalize_path(path.as_ref())?;
        let (parent_path, name) = parent_and_name(&norm)?;
        let parent = self.lookup(&parent_path)?;
        let id =
            *self.node(parent).entries.get(&name).ok_or_else(|| FsError::NotFound(norm.clone()))?;
        let node = self.node(id);
        if node.file_type != FileType::Directory {
            return Err(FsError::NotADirectory(norm));
        }
        if !node.entries.is_empty() {
            return Err(FsError::NotEmpty(norm));
        }
        self.node_mut(parent).entries.remove(&name);
        let p = self.node_mut(parent);
        p.mtime = now;
        p.ctime = now;
        p.nlink -= 1;
        self.inodes.remove(&id);
        self.dirs -= 1;
        self.notify(FsOp {
            kind: FsOpKind::Rmdir,
            time: now,
            inode: id,
            parent,
            name,
            path: norm,
            src_parent: None,
            src_path: None,
            is_dir: true,
        });
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
        let from_norm = normalize_path(from.as_ref())?;
        let to_norm = normalize_path(to.as_ref())?;
        if from_norm == to_norm {
            return Ok(());
        }
        let (from_parent_path, from_name) = parent_and_name(&from_norm)?;
        let (to_parent_path, to_name) = parent_and_name(&to_norm)?;
        let from_parent = self.lookup(&from_parent_path)?;
        let to_parent = self.lookup(&to_parent_path)?;
        if self.node(to_parent).file_type != FileType::Directory {
            return Err(FsError::NotADirectory(to_parent_path));
        }
        let id = *self
            .node(from_parent)
            .entries
            .get(&from_name)
            .ok_or_else(|| FsError::NotFound(from_norm.clone()))?;
        let moving_dir = self.node(id).file_type == FileType::Directory;

        if moving_dir {
            // Guard against moving a directory into its own subtree.
            let mut cur = Some(to_parent);
            while let Some(c) = cur {
                if c == id {
                    return Err(FsError::RenameIntoSelf(from_norm));
                }
                cur = self.node(c).parent;
            }
        }

        // Handle an existing destination.
        if let Some(&dest) = self.node(to_parent).entries.get(&to_name) {
            if dest == id {
                return Ok(());
            }
            if self.node(dest).file_type == FileType::Directory {
                return Err(FsError::AlreadyExists(to_norm));
            }
            self.unlink(&to_norm, now)?;
        }

        self.node_mut(from_parent).entries.remove(&from_name);
        {
            let p = self.node_mut(from_parent);
            p.mtime = now;
            p.ctime = now;
            if moving_dir {
                p.nlink -= 1;
            }
        }
        self.insert_child(to_parent, &to_name, id, now);
        if moving_dir {
            self.node_mut(to_parent).nlink += 1;
        }
        let n = self.node_mut(id);
        n.parent = Some(to_parent);
        n.name = to_name.clone();
        n.ctime = now;
        self.notify(FsOp {
            kind: FsOpKind::Rename,
            time: now,
            inode: id,
            parent: to_parent,
            name: to_name,
            path: to_norm,
            src_parent: Some(from_parent),
            src_path: Some(from_norm),
            is_dir: moving_dir,
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
        self.content_op(path, now, FsOpKind::Write, |n| n.size += bytes)
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
        self.content_op(path, now, FsOpKind::Truncate, |n| n.size = size)
    }

    fn content_op(
        &mut self,
        path: impl AsRef<Path>,
        now: SimTime,
        kind: FsOpKind,
        apply: impl FnOnce(&mut Inode),
    ) -> Result<(), FsError> {
        let norm = normalize_path(path.as_ref())?;
        let id = self.lookup(&norm)?;
        if self.node(id).file_type == FileType::Directory {
            return Err(FsError::IsADirectory(norm));
        }
        let (parent, name) = {
            let n = self.node_mut(id);
            apply(n);
            n.mtime = now;
            (n.parent.unwrap_or(InodeId::ROOT), n.name.clone())
        };
        self.notify(FsOp {
            kind,
            time: now,
            inode: id,
            parent,
            name,
            path: norm,
            src_parent: None,
            src_path: None,
            is_dir: false,
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
        let norm = normalize_path(path.as_ref())?;
        let id = self.lookup(&norm)?;
        let (parent, name, is_dir) = {
            let n = self.node_mut(id);
            n.xattrs.insert(key.into(), value.into());
            n.ctime = now;
            (n.parent.unwrap_or(InodeId::ROOT), n.name.clone(), n.file_type == FileType::Directory)
        };
        self.notify(FsOp {
            kind: FsOpKind::SetXattr,
            time: now,
            inode: id,
            parent,
            name,
            path: norm,
            src_parent: None,
            src_path: None,
            is_dir,
        });
        Ok(())
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
        let norm = normalize_path(path.as_ref())?;
        let id = self.lookup(&norm)?;
        let (parent, name, is_dir) = {
            let n = self.node_mut(id);
            n.mode = mode;
            n.ctime = now;
            (n.parent.unwrap_or(InodeId::ROOT), n.name.clone(), n.file_type == FileType::Directory)
        };
        self.notify(FsOp {
            kind: FsOpKind::SetAttr,
            time: now,
            inode: id,
            parent,
            name,
            path: norm,
            src_parent: None,
            src_path: None,
            is_dir,
        });
        Ok(())
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
    fn simfs_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimFs>();
    }
}
