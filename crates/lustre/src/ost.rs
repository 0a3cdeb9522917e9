//! Object Storage Targets: file layouts, striping, and space accounting.
//!
//! Lustre separates metadata (MDS/MDT) from data (OSS/OST): a file's
//! contents live in objects striped across OSTs according to its
//! *layout*. The monitor never talks to OSTs — data I/O is invisible to
//! the ChangeLog except through metadata side effects (`MTIME`, `TRUNC`,
//! `LYOUT` records) — but the testbeds have them (one OSS on AWS,
//! sixteen on Iota), so the simulator models object allocation, striped
//! write accounting, and `lfs setstripe`-style layout changes.

use crate::{LustreError, LustreFs};
use sdci_types::{ByteSize, ChangelogKind, OstIndex, SimTime};
use simfs::InodeId;
use std::path::Path;

/// A file's stripe layout: which OSTs hold its objects, and how many
/// bytes they hold in total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The OSTs holding this file's objects, in stripe order.
    pub stripes: Vec<OstIndex>,
    /// Total bytes written through this layout.
    pub bytes: u64,
}

impl Layout {
    /// Number of stripes.
    pub fn stripe_count(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// The byte share each stripe holds (`bytes` distributed evenly,
    /// remainder on stripe 0).
    pub fn stripe_shares(&self) -> Vec<u64> {
        let n = self.stripes.len() as u64;
        let mut shares = vec![self.bytes / n.max(1); self.stripes.len()];
        if let Some(first) = shares.first_mut() {
            *first += self.bytes % n.max(1);
        }
        shares
    }
}

/// Per-OST usage counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OstUsage {
    /// Objects allocated on this OST.
    pub objects: u64,
    /// Bytes written to this OST.
    pub bytes: u64,
}

/// A whole-filesystem space report (an `lfs df` stand-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OstReport {
    /// Per-OST usage, indexed by OST number.
    pub osts: Vec<OstUsage>,
    /// Total bytes across all OSTs.
    pub used: ByteSize,
    /// Configured capacity.
    pub capacity: ByteSize,
}

impl OstReport {
    /// The ratio between the most- and least-loaded OST's bytes
    /// (1.0 = perfectly balanced; ∞-like when some OST is empty).
    pub fn imbalance(&self) -> f64 {
        let max = self.osts.iter().map(|o| o.bytes).max().unwrap_or(0);
        let min = self.osts.iter().map(|o| o.bytes).min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

impl LustreFs {
    /// Allocates a new file's objects per the parent directory's default
    /// stripe count (1 unless overridden with
    /// [`LustreFs::set_default_stripe`]).
    pub(crate) fn allocate_layout(&mut self, inode: InodeId, parent: InodeId) {
        let count = *self.dir_default_stripe.get(&parent).unwrap_or(&1);
        self.place_stripes(inode, count.clamp(1, self.config().ost_count));
    }

    fn place_stripes(&mut self, inode: InodeId, count: u32) {
        let ost_count = self.config().ost_count;
        let stripes: Vec<OstIndex> =
            (0..count).map(|k| OstIndex::new((self.ost_round_robin + k) % ost_count)).collect();
        self.ost_round_robin = (self.ost_round_robin + count) % ost_count;
        for ost in &stripes {
            self.ost_usage[ost.as_usize()].objects += 1;
        }
        self.layouts.insert(inode, Layout { stripes, bytes: 0 });
    }

    /// Releases a deleted file's objects, reclaiming its byte shares.
    pub(crate) fn free_layout(&mut self, inode: InodeId) {
        if let Some(layout) = self.layouts.remove(&inode) {
            let shares = layout.stripe_shares();
            for (i, ost) in layout.stripes.iter().enumerate() {
                let usage = &mut self.ost_usage[ost.as_usize()];
                usage.objects = usage.objects.saturating_sub(1);
                usage.bytes = usage.bytes.saturating_sub(shares[i]);
            }
        }
    }

    /// Distributes a write's bytes across the file's stripes, keeping
    /// the layout's total in sync for later reclamation.
    pub(crate) fn account_write(&mut self, inode: InodeId, bytes: u64) {
        let Some(layout) = self.layouts.get_mut(&inode) else {
            return;
        };
        let before = layout.stripe_shares();
        layout.bytes += bytes;
        let after = layout.stripe_shares();
        let stripes = layout.stripes.clone();
        for (i, ost) in stripes.iter().enumerate() {
            self.ost_usage[ost.as_usize()].bytes += after[i] - before[i];
        }
    }

    /// The layout of the file at `path`.
    ///
    /// # Errors
    ///
    /// Namespace lookup errors; [`LustreError::Fs`] with `InvalidPath`
    /// for directories (they have default stripe settings, not layouts).
    pub fn layout_of(&self, path: impl AsRef<Path>) -> Result<Layout, LustreError> {
        let inode = self.fs().lookup(path.as_ref())?;
        self.layouts
            .get(&inode)
            .cloned()
            .ok_or_else(|| simfs::FsError::InvalidPath(path.as_ref().to_path_buf()).into())
    }

    /// Sets a directory's default stripe count for newly created
    /// children (`lfs setstripe -c <n> <dir>`).
    ///
    /// # Errors
    ///
    /// Namespace lookup errors; `NotADirectory` for files.
    pub fn set_default_stripe(
        &mut self,
        dir: impl AsRef<Path>,
        stripe_count: u32,
    ) -> Result<(), LustreError> {
        let inode = self.fs().lookup(dir.as_ref())?;
        if self.fs().stat_inode(inode).file_type != simfs::FileType::Directory {
            return Err(simfs::FsError::NotADirectory(dir.as_ref().to_path_buf()).into());
        }
        self.dir_default_stripe.insert(inode, stripe_count.max(1));
        Ok(())
    }

    /// Re-stripes an existing file (`lfs migrate -c <n>`), logging a
    /// `12LYOUT` ChangeLog record.
    ///
    /// # Errors
    ///
    /// Namespace lookup errors; `IsADirectory` for directories.
    pub fn restripe(
        &mut self,
        path: impl AsRef<Path>,
        stripe_count: u32,
        now: SimTime,
    ) -> Result<(), LustreError> {
        let inode = self.fs().lookup(path.as_ref())?;
        if self.fs().stat_inode(inode).file_type == simfs::FileType::Directory {
            return Err(simfs::FsError::IsADirectory(path.as_ref().to_path_buf()).into());
        }
        let size = self.fs().stat_inode(inode).size;
        self.free_layout(inode);
        self.place_stripes(inode, stripe_count.clamp(1, self.config().ost_count));
        self.account_write(inode, size);

        // A file has a parent: this second descent cannot fail.
        let (parent, name) = self.fs().lookup_parent(path.as_ref())?;
        let fid = self.fid_of_inode(inode);
        self.log(ChangelogKind::Layout, now, 0, fid, parent, &name);
        Ok(())
    }

    /// Space usage across OSTs (an `lfs df` stand-in).
    pub fn ost_report(&self) -> OstReport {
        let used = ByteSize::from_bytes(self.ost_usage.iter().map(|o| o.bytes).sum());
        OstReport { osts: self.ost_usage.clone(), used, capacity: self.config().capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LustreConfig;
    use sdci_types::MdtIndex;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn wide() -> LustreFs {
        LustreFs::new(LustreConfig::builder("t").mdt_count(1).ost_count(4).build())
    }

    #[test]
    fn default_layout_is_single_stripe() {
        let mut lfs = wide();
        lfs.create("/f", t(0)).unwrap();
        let layout = lfs.layout_of("/f").unwrap();
        assert_eq!(layout.stripe_count(), 1);
    }

    #[test]
    fn directory_default_stripe_applies_to_children() {
        let mut lfs = wide();
        lfs.mkdir("/wide", t(0)).unwrap();
        lfs.set_default_stripe("/wide", 4).unwrap();
        lfs.create("/wide/big", t(1)).unwrap();
        assert_eq!(lfs.layout_of("/wide/big").unwrap().stripe_count(), 4);
        // Sibling dirs unaffected.
        lfs.mkdir("/narrow", t(2)).unwrap();
        lfs.create("/narrow/small", t(3)).unwrap();
        assert_eq!(lfs.layout_of("/narrow/small").unwrap().stripe_count(), 1);
    }

    #[test]
    fn stripe_count_clamped_to_ost_count() {
        let mut lfs = wide();
        lfs.mkdir("/d", t(0)).unwrap();
        lfs.set_default_stripe("/d", 99).unwrap();
        lfs.create("/d/f", t(1)).unwrap();
        assert_eq!(lfs.layout_of("/d/f").unwrap().stripe_count(), 4);
    }

    #[test]
    fn round_robin_spreads_objects() {
        let mut lfs = wide();
        for i in 0..8 {
            lfs.create(format!("/f{i}"), t(i)).unwrap();
        }
        let report = lfs.ost_report();
        assert!(report.osts.iter().all(|o| o.objects == 2), "{report:?}");
    }

    #[test]
    fn striped_writes_spread_bytes() {
        let mut lfs = wide();
        lfs.mkdir("/d", t(0)).unwrap();
        lfs.set_default_stripe("/d", 4).unwrap();
        lfs.create("/d/f", t(1)).unwrap();
        lfs.write("/d/f", 4096, t(2)).unwrap();
        let report = lfs.ost_report();
        assert_eq!(report.used, ByteSize::from_bytes(4096));
        assert!(report.osts.iter().all(|o| o.bytes == 1024), "{report:?}");
        assert!((report.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unstriped_writes_land_on_one_ost() {
        let mut lfs = wide();
        lfs.create("/f", t(0)).unwrap();
        lfs.write("/f", 1000, t(1)).unwrap();
        let report = lfs.ost_report();
        assert_eq!(report.osts.iter().filter(|o| o.bytes > 0).count(), 1);
        assert!(report.imbalance().is_infinite());
    }

    #[test]
    fn unlink_frees_objects() {
        let mut lfs = wide();
        lfs.create("/f", t(0)).unwrap();
        assert_eq!(lfs.ost_report().osts.iter().map(|o| o.objects).sum::<u64>(), 1);
        lfs.unlink("/f", t(1)).unwrap();
        assert_eq!(lfs.ost_report().osts.iter().map(|o| o.objects).sum::<u64>(), 0);
        assert!(lfs.layout_of("/f").is_err());
    }

    #[test]
    fn restripe_logs_layout_record() {
        let mut lfs = wide();
        lfs.create("/f", t(0)).unwrap();
        lfs.write("/f", 4000, t(1)).unwrap();
        lfs.restripe("/f", 4, t(2)).unwrap();
        assert_eq!(lfs.layout_of("/f").unwrap().stripe_count(), 4);
        let records = lfs.changelog(MdtIndex::new(0)).read_from(0, 10);
        assert_eq!(records.last().unwrap().kind, ChangelogKind::Layout);
        assert_eq!(records.last().unwrap().kind.type_column(), "12LYOUT");
        // Bytes follow the file to its new stripes.
        let report = lfs.ost_report();
        assert_eq!(report.osts.iter().map(|o| o.bytes).sum::<u64>(), 4000);
    }

    #[test]
    fn restripe_directory_fails() {
        let mut lfs = wide();
        lfs.mkdir("/d", t(0)).unwrap();
        assert!(lfs.restripe("/d", 2, t(1)).is_err());
        assert!(lfs.set_default_stripe("/d", 2).is_ok());
        lfs.create("/f", t(2)).unwrap();
        assert!(lfs.set_default_stripe("/f", 2).is_err());
    }
}
