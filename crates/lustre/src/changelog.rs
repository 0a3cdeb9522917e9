//! The per-MDT ChangeLog.
//!
//! Lustre records every namespace/metadata mutation in the ChangeLog of
//! the MDS that executed it. Consumers (`lfs changelog`-style readers)
//! register as *ChangeLog users*; each user acknowledges the records it
//! has consumed, and records acknowledged by **all** users may be purged
//! (`lfs changelog_clear`). The paper's Collectors rely on this to keep
//! the log from "becom[ing] overburdened with stale events" (§4).

use sdci_types::RawChangelogRecord;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use crate::LustreError;

/// A registered ChangeLog consumer (Lustre names these `cl1`, `cl2`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChangelogUser(u32);

impl ChangelogUser {
    /// The raw user number.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ChangelogUser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cl{}", self.0)
    }
}

/// Counters describing a ChangeLog's lifetime activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChangelogStats {
    /// Records ever appended.
    pub appended: u64,
    /// Records purged after consumption.
    pub purged: u64,
    /// Records dropped because the log hit its capacity bound before
    /// consumers caught up (0 in healthy operation).
    pub overflowed: u64,
}

/// An append-only, purgeable event log for one MDT.
///
/// Record indices increase monotonically from 1 for the life of the MDT
/// (purging removes old records but never reuses indices).
///
/// # Example
///
/// ```
/// use lustre_sim::Changelog;
/// use sdci_types::{ChangelogKind, Fid, RawChangelogRecord, SimTime};
///
/// let mut log = Changelog::new(0);
/// let reader = log.register_user();
/// log.append(RawChangelogRecord {
///     index: 0, // assigned by the log
///     kind: ChangelogKind::Create,
///     time: SimTime::EPOCH,
///     flags: 0,
///     target: Fid::new(0x200000400, 1, 0),
///     parent: Fid::ROOT,
///     name: "data.txt".into(),
/// });
/// let batch = log.read_from(0, 64);
/// assert_eq!(batch.len(), 1);
/// log.ack(reader, batch[0].index)?;
/// assert_eq!(log.purge(), 1);
/// # Ok::<(), lustre_sim::LustreError>(())
/// ```
pub struct Changelog {
    records: VecDeque<RawChangelogRecord>,
    /// Index that the *next* appended record will get.
    next_index: u64,
    /// Capacity bound (0 = unbounded).
    capacity: usize,
    /// Per-user acknowledged index (records <= ack are consumed).
    users: BTreeMap<ChangelogUser, u64>,
    next_user: u32,
    stats: ChangelogStats,
}

impl fmt::Debug for Changelog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Changelog")
            .field("len", &self.records.len())
            .field("next_index", &self.next_index)
            .field("users", &self.users.len())
            .finish()
    }
}

impl Changelog {
    /// Creates an empty ChangeLog. `capacity` bounds the number of
    /// retained records (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        Changelog {
            records: VecDeque::new(),
            next_index: 1,
            capacity,
            users: BTreeMap::new(),
            next_user: 1,
            stats: ChangelogStats::default(),
        }
    }

    /// Appends a record, assigning it the next index. Returns the index.
    ///
    /// When a capacity bound is configured and reached, the oldest record
    /// is dropped (counted in [`ChangelogStats::overflowed`]) — mirroring
    /// a real ChangeLog overrunning slow consumers.
    pub fn append(&mut self, mut record: RawChangelogRecord) -> u64 {
        let index = self.next_index;
        record.index = index;
        self.next_index += 1;
        self.stats.appended += 1;
        if self.capacity > 0 && self.records.len() >= self.capacity {
            self.records.pop_front();
            self.stats.overflowed += 1;
        }
        self.records.push_back(record);
        index
    }

    /// Returns up to `max` records with index > `after`, oldest first
    /// (the `lfs changelog <mdt> <startrec>` read model).
    pub fn read_from(&self, after: u64, max: usize) -> Vec<RawChangelogRecord> {
        self.iter_from(after, max).cloned().collect()
    }

    /// [`read_from`](Self::read_from) by reference: the same records,
    /// borrowed from the log, for a reader that holds the filesystem
    /// lock while it processes them and so needs no copy of each name.
    pub fn iter_from(
        &self,
        after: u64,
        max: usize,
    ) -> impl ExactSizeIterator<Item = &RawChangelogRecord> {
        let start = self.position_after(after);
        let end = start.saturating_add(max).min(self.records.len());
        self.records.range(start..end)
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index of the most recently appended record (0 before any append).
    pub fn last_index(&self) -> u64 {
        self.next_index - 1
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ChangelogStats {
        self.stats
    }

    /// Registers a new ChangeLog user whose consumption starts at the
    /// current end of the log.
    pub fn register_user(&mut self) -> ChangelogUser {
        let user = ChangelogUser(self.next_user);
        self.next_user += 1;
        self.users.insert(user, self.last_index());
        user
    }

    /// Deregisters a user; its acknowledgement no longer holds back
    /// purging. Unknown users error.
    ///
    /// # Errors
    ///
    /// [`LustreError::UnknownUser`] when the user is not registered.
    pub fn deregister_user(&mut self, user: ChangelogUser) -> Result<(), LustreError> {
        self.users.remove(&user).map(|_| ()).ok_or(LustreError::UnknownUser(user.0))
    }

    /// Records that `user` has consumed all records with index <=
    /// `index` (the `lfs changelog_clear` acknowledgement model).
    ///
    /// # Errors
    ///
    /// [`LustreError::UnknownUser`] when the user is not registered.
    pub fn ack(&mut self, user: ChangelogUser, index: u64) -> Result<(), LustreError> {
        match self.users.get_mut(&user) {
            Some(ack) => {
                *ack = (*ack).max(index);
                Ok(())
            }
            None => Err(LustreError::UnknownUser(user.0)),
        }
    }

    /// The highest index acknowledged by *every* registered user (0 when
    /// no user has consumed anything; unbounded when no users exist).
    pub fn min_acked(&self) -> u64 {
        self.users.values().copied().min().unwrap_or(self.last_index())
    }

    /// Drops all records acknowledged by every user. Returns how many
    /// were purged.
    pub fn purge(&mut self) -> u64 {
        let clear_to = self.min_acked();
        let mut purged = 0;
        while let Some(front) = self.records.front() {
            if front.index <= clear_to {
                self.records.pop_front();
                purged += 1;
            } else {
                break;
            }
        }
        self.stats.purged += purged;
        purged
    }

    /// Position in the deque of the first record with index > `after`.
    fn position_after(&self, after: u64) -> usize {
        match self.records.front() {
            None => 0,
            Some(front) => {
                if after < front.index {
                    0
                } else {
                    // Indices are dense within the retained window.
                    ((after - front.index) as usize + 1).min(self.records.len())
                }
            }
        }
    }
}

impl Default for Changelog {
    fn default() -> Self {
        Changelog::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_types::{ChangelogKind, Fid, SimTime};

    fn rec(name: &str) -> RawChangelogRecord {
        RawChangelogRecord {
            index: 0,
            kind: ChangelogKind::Create,
            time: SimTime::EPOCH,
            flags: 0,
            target: Fid::new(1, 1, 0),
            parent: Fid::ROOT,
            name: name.into(),
        }
    }

    #[test]
    fn append_assigns_dense_indices() {
        let mut log = Changelog::new(0);
        assert_eq!(log.append(rec("a")), 1);
        assert_eq!(log.append(rec("b")), 2);
        assert_eq!(log.last_index(), 2);
        assert_eq!(log.stats().appended, 2);
    }

    #[test]
    fn read_from_skips_consumed() {
        let mut log = Changelog::new(0);
        for i in 0..10 {
            log.append(rec(&format!("f{i}")));
        }
        let got = log.read_from(4, 100);
        assert_eq!(got.len(), 6);
        assert_eq!(got[0].index, 5);
        let got = log.read_from(0, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].index, 1);
        assert!(log.read_from(10, 100).is_empty());
        assert!(log.read_from(99, 100).is_empty());
        // The borrowing reader sees the same window, and `max` may be
        // as large as a caller likes.
        let borrowed: Vec<u64> = log.iter_from(4, usize::MAX).map(|r| r.index).collect();
        assert_eq!(borrowed, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(log.iter_from(0, 3).len(), 3);
        assert_eq!(log.iter_from(99, 100).len(), 0);
    }

    #[test]
    fn purge_respects_slowest_user() {
        let mut log = Changelog::new(0);
        let u1 = log.register_user();
        let u2 = log.register_user();
        for i in 0..10 {
            log.append(rec(&format!("f{i}")));
        }
        log.ack(u1, 10).unwrap();
        log.ack(u2, 4).unwrap();
        assert_eq!(log.min_acked(), 4);
        assert_eq!(log.purge(), 4);
        assert_eq!(log.len(), 6);
        // Reads after purge still use absolute indices.
        assert_eq!(log.read_from(4, 100).len(), 6);
        assert_eq!(log.read_from(6, 100).len(), 4);
        log.ack(u2, 10).unwrap();
        assert_eq!(log.purge(), 6);
        assert!(log.is_empty());
        assert_eq!(log.stats().purged, 10);
    }

    #[test]
    fn no_users_means_purge_everything() {
        let mut log = Changelog::new(0);
        for _ in 0..5 {
            log.append(rec("x"));
        }
        assert_eq!(log.purge(), 5);
    }

    #[test]
    fn user_registered_late_starts_at_end() {
        let mut log = Changelog::new(0);
        for _ in 0..5 {
            log.append(rec("x"));
        }
        let u = log.register_user();
        assert_eq!(log.min_acked(), 5);
        log.append(rec("y"));
        assert_eq!(log.read_from(5, 10).len(), 1);
        log.deregister_user(u).unwrap();
        assert!(log.deregister_user(u).is_err());
    }

    #[test]
    fn ack_unknown_user_errors() {
        let mut log = Changelog::new(0);
        assert!(matches!(log.ack(ChangelogUser(9), 1), Err(LustreError::UnknownUser(9))));
    }

    #[test]
    fn ack_never_regresses() {
        let mut log = Changelog::new(0);
        let u = log.register_user();
        for _ in 0..5 {
            log.append(rec("x"));
        }
        log.ack(u, 5).unwrap();
        log.ack(u, 2).unwrap();
        assert_eq!(log.min_acked(), 5);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let mut log = Changelog::new(3);
        let _u = log.register_user();
        for i in 0..5 {
            log.append(rec(&format!("f{i}")));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.stats().overflowed, 2);
        let got = log.read_from(0, 10);
        assert_eq!(got[0].index, 3, "records 1-2 overflowed");
    }

    #[test]
    fn user_display() {
        let mut log = Changelog::new(0);
        assert_eq!(log.register_user().to_string(), "cl1");
        assert_eq!(log.register_user().to_string(), "cl2");
    }
}
