//! Batch policies: Robinhood-style bulk actions through Ripple's
//! execution fabric.
//!
//! Event-triggered rules react to files as they change; administrators
//! also run *sweeps* over existing state — "purge everything under
//! /scratch untouched for 30 days", "migrate every `.raw` older than a
//! week" (§2 describes Robinhood's policies; §3 notes Ripple alone
//! cannot express site-wide policies without the monitor). A
//! [`BatchPolicy`] pairs database [`FindCriteria`] with an
//! [`ActionSpec`]; [`Ripple::execute_policy`](crate::Ripple::execute_policy)
//! evaluates the criteria against a Robinhood-style database and routes
//! one action per match through the normal agent inboxes — same
//! reliability semantics (SQS re-drive) as event-triggered actions.

use crate::action::ActionSpec;
use sdci_baselines::{FindCriteria, RobinhoodDb};
use sdci_types::{AgentId, ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::path::PathBuf;

/// A bulk policy: which database entries, and what to do with each.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// The agent whose storage the matched paths live on (and the
    /// default executor of the action).
    pub agent: AgentId,
    /// Which entries match.
    pub criteria: FindCriteria,
    /// What to run per match.
    pub action: ActionSpec,
}

impl BatchPolicy {
    /// A policy on `agent` selecting via `criteria` and running
    /// `action` per match.
    pub fn new(agent: AgentId, criteria: FindCriteria, action: ActionSpec) -> Self {
        BatchPolicy { agent, criteria, action }
    }

    /// Evaluates the criteria, returning the matched paths.
    pub fn matches(&self, db: &RobinhoodDb) -> Vec<PathBuf> {
        db.find(&self.criteria)
    }

    /// Builds the synthetic trigger event for one matched path (policy
    /// actions reuse the event-carrying action plumbing; the event marks
    /// the file the sweep selected).
    pub(crate) fn synthetic_event(path: PathBuf, now: SimTime) -> FileEvent {
        FileEvent {
            index: 0,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Mark,
            kind: EventKind::Other,
            time: now,
            path: path.into(),
            src_path: None,
            target: Fid::ZERO,
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_delegates_to_db() {
        let db = RobinhoodDb::new();
        let policy = BatchPolicy::new(
            AgentId::new("a"),
            FindCriteria::any().named("*.tmp"),
            ActionSpec::purge(),
        );
        assert!(policy.matches(&db).is_empty());
    }

    #[test]
    fn synthetic_event_carries_path() {
        let ev = BatchPolicy::synthetic_event(PathBuf::from("/x"), SimTime::from_secs(9));
        assert_eq!(ev.path, PathBuf::from("/x"));
        assert_eq!(ev.kind, EventKind::Other);
        assert_eq!(ev.time, SimTime::from_secs(9));
    }
}
