//! The simulated Lustre filesystem: namespace + FIDs + ChangeLogs.
//!
//! Each path-taking operation resolves its path once, with
//! [`SimFs::lookup`] or [`SimFs::lookup_parent`], and hands the parent
//! directory and name to `SimFs`'s `_at` form of the operation.

use crate::changelog::Changelog;
use crate::topology::{DnePolicy, LustreConfig};
use crate::LustreError;
use sdci_types::{ChangelogKind, Fid, FidSequence, MdtIndex, RawChangelogRecord, SimTime};
use simfs::{FileType, FsError, IdMap, InodeId, SimFs};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Flag set on `UNLNK` records that remove an object's last link
/// (Lustre's `CLF_UNLINK_LAST`; visible as `0x1` in Table 1).
pub(crate) const CLF_UNLINK_LAST: u32 = 0x1;

/// A Lustre filesystem simulation (see the crate docs for an overview).
///
/// All mutating operations take the current virtual time; the caller (a
/// workload generator or a live driver) owns the clock.
pub struct LustreFs {
    config: LustreConfig,
    fs: SimFs,
    fid_sequences: Vec<FidSequence>,
    changelogs: Vec<Changelog>,
    fid_to_inode: IdMap<Fid, InodeId>,
    inode_to_fid: IdMap<InodeId, Fid>,
    dir_mdt: IdMap<InodeId, MdtIndex>,
    round_robin: u32,
    resolutions: AtomicU64,
    pub(crate) ost_usage: Vec<crate::ost::OstUsage>,
    pub(crate) layouts: IdMap<InodeId, crate::ost::Layout>,
    pub(crate) dir_default_stripe: IdMap<InodeId, u32>,
    pub(crate) ost_round_robin: u32,
}

impl fmt::Debug for LustreFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LustreFs")
            .field("name", &self.config.name)
            .field("mdts", &self.changelogs.len())
            .field("files", &self.fs.file_count())
            .field("dirs", &self.fs.dir_count())
            .finish()
    }
}

impl LustreFs {
    /// Creates an empty filesystem per `config`.
    pub fn new(config: LustreConfig) -> Self {
        let mdts = config.mdt_count as usize;
        let mut lfs = LustreFs {
            fid_sequences: (0..config.mdt_count).map(FidSequence::for_mdt).collect(),
            changelogs: (0..mdts).map(|_| Changelog::new(config.changelog_capacity)).collect(),
            fid_to_inode: IdMap::default(),
            inode_to_fid: IdMap::default(),
            dir_mdt: IdMap::default(),
            round_robin: 0,
            resolutions: AtomicU64::new(0),
            ost_usage: (0..config.ost_count as usize)
                .map(|_| crate::ost::OstUsage::default())
                .collect(),
            layouts: IdMap::default(),
            dir_default_stripe: IdMap::default(),
            ost_round_robin: 0,
            fs: SimFs::new(),
            config,
        };
        lfs.fid_to_inode.insert(Fid::ROOT, InodeId::ROOT);
        lfs.inode_to_fid.insert(InodeId::ROOT, Fid::ROOT);
        lfs.dir_mdt.insert(InodeId::ROOT, MdtIndex::new(0));
        lfs
    }

    /// The deployment configuration.
    pub fn config(&self) -> &LustreConfig {
        &self.config
    }

    /// Read-only access to the underlying namespace.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// Number of MDTs in the deployment.
    pub fn mdt_count(&self) -> u32 {
        self.config.mdt_count
    }

    /// The ChangeLog of one MDT.
    ///
    /// # Panics
    ///
    /// Panics when `mdt` is out of range (a configuration error).
    pub fn changelog(&self, mdt: MdtIndex) -> &Changelog {
        &self.changelogs[mdt.as_usize()]
    }

    /// Mutable access to one MDT's ChangeLog (for user registration,
    /// acknowledgement, and purging).
    ///
    /// # Panics
    ///
    /// Panics when `mdt` is out of range.
    pub fn changelog_mut(&mut self, mdt: MdtIndex) -> &mut Changelog {
        &mut self.changelogs[mdt.as_usize()]
    }

    /// Total records ever appended across all MDTs.
    pub fn total_events(&self) -> u64 {
        self.changelogs.iter().map(|c| c.stats().appended).sum()
    }

    /// How many `fid2path` resolutions have been performed (the paper's
    /// measured bottleneck; see §5.2).
    pub fn resolution_count(&self) -> u64 {
        self.resolutions.load(Ordering::Relaxed)
    }

    // ---- FID interfaces -------------------------------------------------

    /// The FID of the object at `path`.
    ///
    /// # Errors
    ///
    /// Namespace lookup errors.
    pub fn fid_of_path(&self, path: impl AsRef<Path>) -> Result<Fid, LustreError> {
        let inode = self.fs.lookup(path)?;
        Ok(self.fid_of_inode(inode))
    }

    /// Resolves a FID to its absolute path — the simulator's `fid2path`.
    /// Each call increments [`LustreFs::resolution_count`]. The path is
    /// allocated once, at its exact length; [`LustreFs::fid2path_into`]
    /// reuses a buffer instead.
    ///
    /// # Errors
    ///
    /// [`LustreError::UnknownFid`] for FIDs that no longer (or never)
    /// existed.
    pub fn fid2path(&self, fid: Fid) -> Result<PathBuf, LustreError> {
        let mut path = PathBuf::new();
        self.fid2path_into(fid, &mut path)?;
        Ok(path)
    }

    /// `fid2path` into a caller's buffer, replacing what it held, as
    /// `llapi_fid2path(…, char *path, int pathlen, …)` writes into the
    /// `path` it is handed. The buffer grows only when the path is longer
    /// than its capacity. Each call increments
    /// [`LustreFs::resolution_count`].
    ///
    /// # Errors
    ///
    /// [`LustreError::UnknownFid`] for FIDs that no longer (or never)
    /// existed; `path` is then left as it was.
    pub fn fid2path_into(&self, fid: Fid, path: &mut PathBuf) -> Result<(), LustreError> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let inode = self.fid_to_inode.get(&fid).ok_or(LustreError::UnknownFid(fid))?;
        self.fs.path_into(*inode, path);
        Ok(())
    }

    /// Resolves the absolute path of the object a ChangeLog record refers
    /// to — the monitor's processing step. The path is allocated once, at
    /// its exact length.
    ///
    /// Resolution goes through the *parent* FID plus the recorded name,
    /// exactly as a real consumer must: the record names the object as it
    /// was when logged. Deletions (and the source side of renames) name
    /// objects that no longer exist there, and a target renamed since the
    /// record has a new path that is not the record's. A target whose
    /// name and parent still match the record has this very path, so the
    /// target FID is never the shorter way.
    ///
    /// # Errors
    ///
    /// [`LustreError::UnknownFid`] when the parent is gone (e.g. the
    /// whole subtree was removed before the record was processed).
    pub fn resolve_record_path(&self, record: &RawChangelogRecord) -> Result<PathBuf, LustreError> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let parent =
            self.fid_to_inode.get(&record.parent).ok_or(LustreError::UnknownFid(record.parent))?;
        let mut path = PathBuf::new();
        self.fs.entry_path_into(*parent, &record.name, &mut path);
        Ok(path)
    }

    // ---- MDT assignment --------------------------------------------------

    /// The MDT owning directory `inode`.
    fn mdt_of_dir(&self, inode: InodeId) -> MdtIndex {
        *self.dir_mdt.get(&inode).unwrap_or(&MdtIndex::new(0))
    }

    /// The MDT that will log operations under the directory at `path`.
    ///
    /// # Errors
    ///
    /// Namespace lookup errors.
    pub fn mdt_of_path(&self, path: impl AsRef<Path>) -> Result<MdtIndex, LustreError> {
        let inode = self.fs.lookup(path)?;
        Ok(self.mdt_of_dir(inode))
    }

    /// The MDT that homes a new directory `name` in `parent`. Called only
    /// once the directory exists, so a mkdir that fails takes no turn of
    /// the round robin.
    fn assign_mdt(&mut self, parent: InodeId, name: &str) -> MdtIndex {
        match self.config.dne_policy {
            DnePolicy::SingleMdt => MdtIndex::new(0),
            DnePolicy::RoundRobinTopLevel => {
                if parent == InodeId::ROOT {
                    let idx = self.round_robin % self.config.mdt_count;
                    self.round_robin = self.round_robin.wrapping_add(1);
                    MdtIndex::new(idx)
                } else {
                    self.mdt_of_dir(parent)
                }
            }
            DnePolicy::HashByName => {
                let mut hasher = DefaultHasher::new();
                name.hash(&mut hasher);
                MdtIndex::new((hasher.finish() % self.config.mdt_count as u64) as u32)
            }
        }
    }

    /// Logs a record about the entry `name` in directory `parent` on the
    /// MDT that owns `parent`, as every ChangeLog record is.
    pub(crate) fn log(
        &mut self,
        kind: ChangelogKind,
        time: SimTime,
        flags: u32,
        target: Fid,
        parent: InodeId,
        name: &str,
    ) {
        let record = RawChangelogRecord {
            index: 0,
            kind,
            time,
            flags,
            target,
            parent: self.fid_of_inode(parent),
            name: name.into(),
        };
        let mdt = self.mdt_of_dir(parent);
        self.changelogs[mdt.as_usize()].append(record);
    }

    pub(crate) fn fid_of_inode(&self, inode: InodeId) -> Fid {
        // cannot fail: only this type changes `fs`; it gives each inode a FID and takes it with the last link.
        *self.inode_to_fid.get(&inode).expect("inode without FID")
    }

    /// Gives the new `inode` the next FID of `mdt`'s sequence.
    fn bind(&mut self, inode: InodeId, mdt: MdtIndex) -> Fid {
        let fid = self.fid_sequences[mdt.as_usize()].next_fid();
        self.fid_to_inode.insert(fid, inode);
        self.inode_to_fid.insert(inode, fid);
        fid
    }

    /// Forgets the FID of an object whose last link went.
    fn unbind(&mut self, inode: InodeId, fid: Fid) {
        self.fid_to_inode.remove(&fid);
        self.inode_to_fid.remove(&inode);
    }

    // ---- namespace operations -------------------------------------------

    /// Creates a regular file, logging `01CREAT` on the parent's MDT.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::create`].
    pub fn create(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<Fid, LustreError> {
        let (parent, name) = self.fs.lookup_parent(path.as_ref())?;
        let inode = self.fs.create_at(parent, &name, now)?;
        let fid = self.bind(inode, self.mdt_of_dir(parent));
        self.allocate_layout(inode, parent);
        self.log(ChangelogKind::Create, now, 0, fid, parent, &name);
        Ok(fid)
    }

    /// Creates a directory, logging `02MKDIR` on the parent's MDT. The
    /// new directory itself is placed on an MDT per the DNE policy.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::mkdir`].
    pub fn mkdir(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<Fid, LustreError> {
        let (parent, name) = self.fs.lookup_parent(path.as_ref())?;
        self.mkdir_at(parent, &name, now).map(|(_, fid)| fid)
    }

    /// [`LustreFs::mkdir`] of `name` in `parent`: the directory first,
    /// then its home MDT and a FID from that MDT's sequence.
    fn mkdir_at(
        &mut self,
        parent: InodeId,
        name: &str,
        now: SimTime,
    ) -> Result<(InodeId, Fid), LustreError> {
        let inode = self.fs.mkdir_at(parent, name, now)?;
        let home = self.assign_mdt(parent, name);
        let fid = self.bind(inode, home);
        self.dir_mdt.insert(inode, home);
        self.log(ChangelogKind::Mkdir, now, 0, fid, parent, name);
        Ok((inode, fid))
    }

    /// Creates a directory chain in one descent, logging one `02MKDIR`
    /// per directory actually created.
    ///
    /// # Errors
    ///
    /// [`simfs::FsError::NotADirectory`] when a component is a file.
    pub fn mkdir_all(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<Fid, LustreError> {
        let path = simfs::walkable(path.as_ref())?;
        let mut dir = InodeId::ROOT;
        for comp in path.components() {
            let Component::Normal(name) = comp else { continue };
            let name = name.to_string_lossy();
            dir = match self.fs.child(dir, &name) {
                Some(id) if self.fs.stat_inode(id).file_type == FileType::Directory => id,
                Some(_) => {
                    return Err(FsError::NotADirectory(self.fs.entry_path(dir, &name)).into())
                }
                None => self.mkdir_at(dir, &name, now)?.0,
            };
        }
        Ok(self.fid_of_inode(dir))
    }

    /// Creates a symlink, logging `04SLINK`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::symlink`].
    pub fn symlink(
        &mut self,
        path: impl AsRef<Path>,
        target: &str,
        now: SimTime,
    ) -> Result<Fid, LustreError> {
        let (parent, name) = self.fs.lookup_parent(path.as_ref())?;
        let inode = self.fs.symlink_at(parent, &name, target, now)?;
        let fid = self.bind(inode, self.mdt_of_dir(parent));
        self.log(ChangelogKind::SoftLink, now, 0, fid, parent, &name);
        Ok(fid)
    }

    /// Creates a hard link, logging `03HLINK`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::hardlink`].
    pub fn hardlink(
        &mut self,
        existing: impl AsRef<Path>,
        new_path: impl AsRef<Path>,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let target = self.fs.lookup(existing)?;
        let (parent, name) = self.fs.lookup_parent(new_path.as_ref())?;
        self.fs.hardlink_at(target, parent, &name, now)?;
        self.log(ChangelogKind::HardLink, now, 0, self.fid_of_inode(target), parent, &name);
        Ok(())
    }

    /// The directory holding `path`'s last name, the name, and the
    /// object it names: one descent, and the last step.
    fn resolve<'p>(&self, path: &'p Path) -> Result<(InodeId, Cow<'p, str>, InodeId), LustreError> {
        let (parent, name) = self.fs.lookup_parent(path)?;
        let inode = self.fs.lookup_at(parent, &name)?;
        Ok((parent, name, inode))
    }

    /// Removes a file or symlink, logging `06UNLNK` (flags `0x1` when the
    /// last link went away, as in Table 1).
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::unlink`].
    pub fn unlink(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        let fid = self.fid_of_inode(inode);
        let last_link = self.fs.stat_inode(inode).nlink == 1;
        self.fs.unlink_at(parent, &name, now)?;
        if last_link {
            self.unbind(inode, fid);
            self.free_layout(inode);
        }
        let flags = if last_link { CLF_UNLINK_LAST } else { 0 };
        self.log(ChangelogKind::Unlink, now, flags, fid, parent, &name);
        Ok(())
    }

    /// Removes an empty directory, logging `07RMDIR`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::rmdir`].
    pub fn rmdir(&mut self, path: impl AsRef<Path>, now: SimTime) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        let fid = self.fid_of_inode(inode);
        self.fs.rmdir_at(parent, &name, now)?;
        self.unbind(inode, fid);
        self.dir_mdt.remove(&inode);
        self.log(ChangelogKind::Rmdir, now, CLF_UNLINK_LAST, fid, parent, &name);
        Ok(())
    }

    /// Renames an object, logging `08RENME` on the source parent's MDT
    /// and `09RNMTO` on the destination parent's MDT (one record each,
    /// as Lustre does). An overwritten destination file additionally
    /// logs `06UNLNK`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::rename`].
    pub fn rename(
        &mut self,
        from: impl AsRef<Path>,
        to: impl AsRef<Path>,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let Some(((from_parent, from_name), (to_parent, to_name))) =
            self.fs.lookup_rename(from.as_ref(), to.as_ref())?
        else {
            return Ok(());
        };
        let inode = self.fs.lookup_at(from_parent, &from_name)?;
        let fid = self.fid_of_inode(inode);

        // An existing destination file will be replaced: capture its FID
        // for the implicit unlink record.
        let overwritten = match self.fs.child(to_parent, &to_name) {
            Some(dest) if dest != inode => {
                let dest_stat = self.fs.stat_inode(dest);
                (dest_stat.file_type != FileType::Directory)
                    .then(|| (dest, self.fid_of_inode(dest), dest_stat.nlink == 1))
            }
            _ => None,
        };

        self.fs.rename_at(from_parent, &from_name, to_parent, &to_name, now)?;

        if let Some((dest_inode, dest_fid, last)) = overwritten {
            if last {
                self.unbind(dest_inode, dest_fid);
                self.free_layout(dest_inode);
            }
            let flags = if last { CLF_UNLINK_LAST } else { 0 };
            self.log(ChangelogKind::Unlink, now, flags, dest_fid, to_parent, &to_name);
        }
        self.log(ChangelogKind::Rename, now, 0, fid, from_parent, &from_name);
        self.log(ChangelogKind::RenameTarget, now, 0, fid, to_parent, &to_name);
        Ok(())
    }

    /// Appends `bytes` to a file. Content writes surface in the ChangeLog
    /// as `17MTIME` records (data I/O goes to OSTs; the MDS only sees the
    /// resulting time change).
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::write`].
    pub fn write(
        &mut self,
        path: impl AsRef<Path>,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        self.fs.write_at(parent, &name, bytes, now)?;
        self.account_write(inode, bytes);
        self.log(ChangelogKind::MtimeChange, now, 0, self.fid_of_inode(inode), parent, &name);
        Ok(())
    }

    /// Truncates a file, logging `13TRUNC`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::truncate`].
    pub fn truncate(
        &mut self,
        path: impl AsRef<Path>,
        size: u64,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        self.fs.truncate_at(parent, &name, size, now)?;
        self.log(ChangelogKind::Truncate, now, 0, self.fid_of_inode(inode), parent, &name);
        Ok(())
    }

    /// Changes permissions, logging `14SATTR`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::set_attr`].
    pub fn set_attr(
        &mut self,
        path: impl AsRef<Path>,
        mode: u32,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        self.fs.set_attr_at(parent, &name, mode, now)?;
        self.log(ChangelogKind::SetAttr, now, 0, self.fid_of_inode(inode), parent, &name);
        Ok(())
    }

    /// Sets an extended attribute, logging `15XATTR`.
    ///
    /// # Errors
    ///
    /// Namespace errors from [`simfs::SimFs::set_xattr`].
    pub fn set_xattr(
        &mut self,
        path: impl AsRef<Path>,
        key: impl Into<String>,
        value: impl Into<Vec<u8>>,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let (parent, name, inode) = self.resolve(path.as_ref())?;
        self.fs.set_xattr_at(parent, &name, key, value, now)?;
        self.log(ChangelogKind::SetXattr, now, 0, self.fid_of_inode(inode), parent, &name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LustreConfig;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn single() -> LustreFs {
        LustreFs::new(LustreConfig::builder("t").mdt_count(1).build())
    }

    #[test]
    fn create_logs_creat_record() {
        let mut lfs = single();
        let fid = lfs.create("/data1.txt", t(1)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, ChangelogKind::Create);
        assert_eq!(recs[0].target, fid);
        assert_eq!(recs[0].parent, Fid::ROOT);
        assert_eq!(recs[0].name, "data1.txt");
        assert_eq!(recs[0].index, 1);
    }

    #[test]
    fn table1_sequence_reproduces() {
        // CREAT, MKDIR, UNLNK like Table 1.
        let mut lfs = single();
        lfs.create("/data1.txt", t(1)).unwrap();
        lfs.mkdir("/DataDir", t(2)).unwrap();
        lfs.unlink("/data1.txt", t(3)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let kinds: Vec<_> = recs.iter().map(|r| r.kind.type_column()).collect();
        assert_eq!(kinds, vec!["01CREAT", "02MKDIR", "06UNLNK"]);
        assert_eq!(recs[2].flags, CLF_UNLINK_LAST, "last-link unlink sets 0x1");
    }

    #[test]
    fn fid2path_resolves_and_counts() {
        let mut lfs = single();
        lfs.mkdir_all("/a/b", t(0)).unwrap();
        let fid = lfs.create("/a/b/f.dat", t(1)).unwrap();
        assert_eq!(lfs.fid2path(fid).unwrap(), PathBuf::from("/a/b/f.dat"));
        assert_eq!(lfs.resolution_count(), 1);
        assert!(matches!(lfs.fid2path(Fid::new(0xdead, 1, 0)), Err(LustreError::UnknownFid(_))));
    }

    #[test]
    fn resolve_record_path_handles_deletions() {
        let mut lfs = single();
        lfs.mkdir("/dir", t(0)).unwrap();
        lfs.create("/dir/gone.txt", t(1)).unwrap();
        lfs.unlink("/dir/gone.txt", t(2)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let unlink = recs.last().unwrap();
        assert_eq!(unlink.kind, ChangelogKind::Unlink);
        // Target FID is gone; resolution goes via the parent.
        let path = lfs.resolve_record_path(unlink).unwrap();
        assert_eq!(path, PathBuf::from("/dir/gone.txt"));
    }

    #[test]
    fn records_resolve_to_the_path_they_were_logged_at() {
        let mut lfs = single();
        lfs.mkdir("/a", t(0)).unwrap();
        lfs.mkdir("/b", t(0)).unwrap();
        lfs.create("/a/f", t(1)).unwrap();
        lfs.rename("/a/f", "/b/g", t(2)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let path = |kind| {
            let record = recs.iter().find(|r| r.kind == kind).unwrap();
            lfs.resolve_record_path(record).unwrap()
        };
        assert_eq!(path(ChangelogKind::Rename), PathBuf::from("/a/f"), "RENME names the source");
        assert_eq!(path(ChangelogKind::RenameTarget), PathBuf::from("/b/g"));
        assert_eq!(
            path(ChangelogKind::Create),
            PathBuf::from("/a/f"),
            "a create resolves to where the file was made, not where it went"
        );
        assert_eq!(lfs.resolution_count(), 3);
    }

    #[test]
    fn fid2path_into_reuses_one_buffer() {
        let mut lfs = single();
        let deep = lfs.mkdir_all("/deep/er/still", t(0)).unwrap();
        let top = lfs.create("/t", t(0)).unwrap();
        let mut path = PathBuf::new();
        lfs.fid2path_into(deep, &mut path).unwrap();
        assert_eq!(path, PathBuf::from("/deep/er/still"));
        lfs.fid2path_into(top, &mut path).unwrap();
        assert_eq!(path.as_os_str(), "/t", "no tail of the longer path is left");
        assert!(lfs.fid2path_into(Fid::new(0xdead, 1, 0), &mut path).is_err());
        assert_eq!(path.as_os_str(), "/t", "a failed resolution leaves the buffer alone");
        assert_eq!(lfs.fid2path(top).unwrap().capacity(), 2, "exact length");
    }

    #[test]
    fn rename_logs_renme_and_rnmto() {
        let mut lfs = single();
        lfs.mkdir("/a", t(0)).unwrap();
        lfs.mkdir("/b", t(0)).unwrap();
        lfs.create("/a/f", t(1)).unwrap();
        lfs.rename("/a/f", "/b/g", t(2)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let kinds: Vec<_> = recs.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ChangelogKind::Mkdir,
                ChangelogKind::Mkdir,
                ChangelogKind::Create,
                ChangelogKind::Rename,
                ChangelogKind::RenameTarget,
            ]
        );
        let renme = &recs[3];
        assert_eq!(renme.name, "f");
        let rnmto = &recs[4];
        assert_eq!(rnmto.name, "g");
        assert_eq!(renme.target, rnmto.target);
    }

    #[test]
    fn rename_overwrite_logs_unlink() {
        let mut lfs = single();
        lfs.create("/a", t(0)).unwrap();
        lfs.create("/b", t(0)).unwrap();
        lfs.rename("/a", "/b", t(1)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let kinds: Vec<_> = recs.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ChangelogKind::Create,
                ChangelogKind::Create,
                ChangelogKind::Unlink,
                ChangelogKind::Rename,
                ChangelogKind::RenameTarget,
            ]
        );
    }

    #[test]
    fn writes_log_mtime_truncate_setattr() {
        let mut lfs = single();
        lfs.create("/f", t(0)).unwrap();
        lfs.write("/f", 100, t(1)).unwrap();
        lfs.truncate("/f", 10, t(2)).unwrap();
        lfs.set_attr("/f", 0o600, t(3)).unwrap();
        let kinds: Vec<_> =
            lfs.changelog(MdtIndex::new(0)).read_from(0, 10).iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ChangelogKind::Create,
                ChangelogKind::MtimeChange,
                ChangelogKind::Truncate,
                ChangelogKind::SetAttr,
            ]
        );
    }

    #[test]
    fn xattr_logs_record() {
        let mut lfs = single();
        lfs.create("/f", t(0)).unwrap();
        lfs.set_xattr("/f", "user.tag", b"x".to_vec(), t(1)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        assert_eq!(recs.last().unwrap().kind, ChangelogKind::SetXattr);
        assert_eq!(recs.last().unwrap().kind.type_column(), "15XATTR");
        assert_eq!(lfs.fs().get_xattr("/f", "user.tag").unwrap(), Some(b"x".to_vec()));
    }

    #[test]
    fn hardlink_keeps_fid_until_last_unlink() {
        let mut lfs = single();
        let fid = lfs.create("/a", t(0)).unwrap();
        lfs.hardlink("/a", "/b", t(1)).unwrap();
        lfs.unlink("/a", t(2)).unwrap();
        // FID still resolves (one link left), to that link.
        assert_eq!(lfs.fid2path(fid).unwrap(), PathBuf::from("/b"));
        lfs.unlink("/b", t(3)).unwrap();
        assert!(lfs.fid2path(fid).is_err());
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        let unlinks: Vec<u32> =
            recs.iter().filter(|r| r.kind == ChangelogKind::Unlink).map(|r| r.flags).collect();
        assert_eq!(unlinks, vec![0, CLF_UNLINK_LAST]);
    }

    #[test]
    fn dne_round_robin_spreads_top_level_dirs() {
        let mut lfs = LustreFs::new(
            LustreConfig::builder("t")
                .mdt_count(4)
                .dne_policy(DnePolicy::RoundRobinTopLevel)
                .build(),
        );
        for i in 0..8 {
            lfs.mkdir(format!("/d{i}"), t(0)).unwrap();
        }
        let mdts: Vec<u32> =
            (0..8).map(|i| lfs.mdt_of_path(format!("/d{i}")).unwrap().as_u32()).collect();
        assert_eq!(mdts, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Children inherit, and their events land on the parent's MDT.
        lfs.create("/d1/f", t(1)).unwrap();
        let recs = lfs.changelog(MdtIndex::new(1)).read_from(0, 10);
        assert!(recs.iter().any(|r| r.kind == ChangelogKind::Create && r.name == "f"));
    }

    #[test]
    fn a_failed_top_level_mkdir_takes_no_turn_of_the_round_robin() {
        let mut lfs = LustreFs::new(
            LustreConfig::builder("t")
                .mdt_count(2)
                .dne_policy(DnePolicy::RoundRobinTopLevel)
                .build(),
        );
        lfs.mkdir("/a", t(0)).unwrap();
        assert!(matches!(lfs.mkdir("/a", t(1)), Err(LustreError::Fs(FsError::AlreadyExists(_)))));
        assert!(lfs.mkdir("/", t(1)).is_err());
        lfs.mkdir("/b", t(2)).unwrap();
        assert_eq!(lfs.mdt_of_path("/a").unwrap(), MdtIndex::new(0));
        assert_eq!(lfs.mdt_of_path("/b").unwrap(), MdtIndex::new(1), "the next turn is MDT1's");
        // /b's FID comes from MDT1's sequence, its MKDIR record from the
        // root's MDT.
        let fid_b = lfs.fid_of_path("/b").unwrap();
        assert_eq!(fid_b.seq, FidSequence::for_mdt(1).next_fid().seq);
        let recs = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        assert_eq!(recs.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn dne_hash_covers_all_mdts() {
        let mut lfs = LustreFs::new(
            LustreConfig::builder("t").mdt_count(4).dne_policy(DnePolicy::HashByName).build(),
        );
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            lfs.mkdir(format!("/dir{i}"), t(0)).unwrap();
            seen.insert(lfs.mdt_of_path(format!("/dir{i}")).unwrap());
        }
        assert_eq!(seen.len(), 4, "hash policy should reach all MDTs");
    }

    #[test]
    fn events_split_across_mdts_sum_to_total() {
        let mut lfs = LustreFs::new(
            LustreConfig::builder("t")
                .mdt_count(3)
                .dne_policy(DnePolicy::RoundRobinTopLevel)
                .build(),
        );
        for i in 0..6 {
            lfs.mkdir(format!("/d{i}"), t(0)).unwrap();
            for j in 0..5 {
                lfs.create(format!("/d{i}/f{j}"), t(1)).unwrap();
            }
        }
        let per_mdt: u64 = (0..3).map(|m| lfs.changelog(MdtIndex::new(m)).stats().appended).sum();
        assert_eq!(per_mdt, lfs.total_events());
        assert_eq!(lfs.total_events(), 6 + 30);
    }

    #[test]
    fn mkdir_all_logs_once_per_new_dir() {
        let mut lfs = single();
        lfs.mkdir_all("/x/y/z", t(0)).unwrap();
        lfs.mkdir_all("/x/y/z", t(1)).unwrap(); // idempotent, no new records
        assert_eq!(lfs.total_events(), 3);
    }

    #[test]
    fn fid_of_path_and_back() {
        let mut lfs = single();
        lfs.mkdir_all("/deep/nest", t(0)).unwrap();
        lfs.create("/deep/nest/file", t(1)).unwrap();
        let fid = lfs.fid_of_path("/deep/nest/file").unwrap();
        assert_eq!(lfs.fid2path(fid).unwrap(), PathBuf::from("/deep/nest/file"));
    }

    #[test]
    fn lustre_fs_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LustreFs>();
    }
}
