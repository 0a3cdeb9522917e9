//! Sealed, immutable event segments.
//!
//! The [`EventStore`](super::EventStore) is a chain of these plus one
//! actively-written head. Each segment carries enough metadata — its
//! sequence range, its time range, and a sorted fingerprint of the
//! top-level path components its events live under — for a query to
//! decide in O(log) whether the segment can contain a match at all,
//! without touching the events themselves.

use crate::aggregator::SequencedEvent;
use crate::store::StoreQuery;
use sdci_types::SimTime;
use std::collections::BTreeSet;
use std::ffi::{OsStr, OsString};
use std::path::{Component, Path};

/// Cap on distinct top-level path components tracked per segment. A
/// segment whose events span more roots than this stops fingerprinting
/// (it can no longer be skipped by prefix, only by seq/time range).
const FINGERPRINT_MAX_ROOTS: usize = 64;

/// An immutable run of sequence-ordered events.
///
/// Segments are built once (when the head seals) and never mutated;
/// readers share them by `Arc`, so queries scan them without holding
/// any store lock.
#[derive(Debug)]
pub(crate) struct Segment {
    events: Vec<SequencedEvent>,
    first_seq: u64,
    last_seq: u64,
    min_time: SimTime,
    max_time: SimTime,
    bytes: u64,
    /// Sorted distinct first path components of the events' paths;
    /// `None` when the segment overflowed [`FINGERPRINT_MAX_ROOTS`].
    roots: Option<Vec<OsString>>,
}

impl Segment {
    /// Seals `events` (must be non-empty and sequence-ordered) into an
    /// immutable segment, computing its index metadata.
    pub(crate) fn build(events: Vec<SequencedEvent>) -> Segment {
        debug_assert!(!events.is_empty(), "segments are never empty");
        debug_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let mut min_time = SimTime::MAX;
        let mut max_time = SimTime::EPOCH;
        let mut bytes = 0u64;
        let mut roots: BTreeSet<OsString> = BTreeSet::new();
        let mut overflowed = false;
        for sev in &events {
            min_time = min_time.min(sev.event.time);
            max_time = max_time.max(sev.event.time);
            bytes += sev.event.footprint_bytes() as u64;
            if !overflowed {
                if let Some(root) = path_root(&sev.event.path) {
                    // Nearly every event repeats a root already seen:
                    // look it up borrowed, own it only when it is new.
                    if !roots.contains(root) {
                        roots.insert(root.to_os_string());
                        if roots.len() > FINGERPRINT_MAX_ROOTS {
                            overflowed = true;
                        }
                    }
                }
            }
        }
        Segment {
            first_seq: events.first().map_or(0, |e| e.seq),
            last_seq: events.last().map_or(0, |e| e.seq),
            min_time,
            max_time,
            bytes,
            roots: if overflowed { None } else { Some(roots.into_iter().collect()) },
            events,
        }
    }

    /// The sealed events, sequence-ordered.
    pub(crate) fn events(&self) -> &[SequencedEvent] {
        &self.events
    }

    /// Number of events (including any the store has logically trimmed).
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Smallest sequence number in the segment.
    pub(crate) fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Largest sequence number in the segment.
    pub(crate) fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Earliest event time in the segment.
    pub(crate) fn min_time(&self) -> SimTime {
        self.min_time
    }

    /// Latest event time in the segment.
    pub(crate) fn max_time(&self) -> SimTime {
        self.max_time
    }

    /// Total footprint of the segment's events.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cheap metadata check: can this segment contain any match for
    /// `query`? `false` means the segment is safely skipped without
    /// reading a single event.
    pub(crate) fn may_match(&self, query: &StoreQuery) -> bool {
        if let Some(after) = query.after_seq {
            if self.last_seq <= after {
                return false;
            }
        }
        if let Some(since) = query.since {
            if self.max_time < since {
                return false;
            }
        }
        if let Some(prefix) = &query.path_prefix {
            if let (Some(roots), Some(root)) = (&self.roots, path_root(prefix)) {
                // `Path::starts_with` is component-wise, so a match
                // forces the first normal components to coincide; a
                // root absent from the fingerprint proves no event in
                // the segment can live under the prefix.
                if roots.binary_search_by(|r| r.as_os_str().cmp(root)).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Appends this segment's matches for `query` to `out`, starting no
    /// earlier than index `lo` (the store's trim offset), excluding
    /// events with `seq >= below_seq`, and stopping at `limit` results.
    pub(crate) fn collect_into(
        &self,
        query: &StoreQuery,
        lo: usize,
        below_seq: u64,
        limit: usize,
        out: &mut Vec<SequencedEvent>,
    ) {
        let after = query.after_seq.unwrap_or(0);
        // Events are sequence-sorted: binary-search to the first
        // candidate instead of filtering from the front.
        let start = self.events.partition_point(|e| e.seq <= after).max(lo);
        for sev in &self.events[start..] {
            if sev.seq >= below_seq || out.len() >= limit {
                return;
            }
            if query.matches(sev) {
                out.push(sev.clone());
            }
        }
    }
}

/// The first `Normal` component of a path — the fingerprint key.
fn path_root(path: &Path) -> Option<&OsStr> {
    path.components().find_map(|c| match c {
        Component::Normal(s) => Some(s),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex};

    fn ev(seq: u64, secs: u64, path: &str) -> SequencedEvent {
        SequencedEvent {
            seq,
            event: FileEvent {
                index: seq,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: SimTime::from_secs(secs),
                path: path.into(),
                src_path: None,
                target: Fid::new(1, seq as u32, 0),
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
        }
    }

    #[test]
    fn metadata_reflects_contents() {
        let seg = Segment::build(vec![ev(5, 50, "/a/x"), ev(7, 20, "/b/y"), ev(9, 70, "/a/z")]);
        assert_eq!(seg.first_seq(), 5);
        assert_eq!(seg.last_seq(), 9);
        assert_eq!(seg.min_time(), SimTime::from_secs(20));
        assert_eq!(seg.max_time, SimTime::from_secs(70));
        assert_eq!(seg.roots.as_deref().unwrap().len(), 2);
    }

    #[test]
    fn may_match_skips_by_seq_time_and_prefix() {
        let seg = Segment::build(vec![ev(5, 50, "/a/x"), ev(9, 70, "/a/z")]);
        assert!(!seg.may_match(&StoreQuery::after_seq(9)));
        assert!(seg.may_match(&StoreQuery::after_seq(8)));
        assert!(!seg.may_match(&StoreQuery::since(SimTime::from_secs(71))));
        assert!(seg.may_match(&StoreQuery::since(SimTime::from_secs(70))));
        assert!(!seg.may_match(&StoreQuery::default().under("/b")));
        assert!(seg.may_match(&StoreQuery::default().under("/a")));
        // A prefix with no normal component can never be skipped.
        assert!(seg.may_match(&StoreQuery::default().under("/")));
    }

    #[test]
    fn fingerprint_overflow_disables_prefix_skipping() {
        let events: Vec<_> = (1..=(FINGERPRINT_MAX_ROOTS as u64 + 2))
            .map(|i| ev(i, i, &format!("/r{i}/f")))
            .collect();
        let seg = Segment::build(events);
        assert!(seg.roots.is_none());
        assert!(seg.may_match(&StoreQuery::default().under("/nowhere")));
    }

    #[test]
    fn collect_respects_trim_limit_and_ceiling() {
        let seg = Segment::build((1..=10).map(|i| ev(i, i, "/d/f")).collect());
        let mut out = Vec::new();
        seg.collect_into(&StoreQuery::default(), 2, 8, usize::MAX, &mut out);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5, 6, 7]);
        out.clear();
        seg.collect_into(&StoreQuery::after_seq(4), 0, u64::MAX, 2, &mut out);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
    }
}
