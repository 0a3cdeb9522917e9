//! If-Trigger-Then-Action rules.

use crate::action::ActionSpec;
use sdci_types::{AgentId, EventKind, FileEvent, RuleId};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Matches a filename against a shell-style glob supporting `*` (any run
/// of characters), `?` (any single character), and literal characters.
///
/// # Example
///
/// ```
/// use ripple::glob_match;
///
/// assert!(glob_match("*.tif", "scan-001.tif"));
/// assert!(glob_match("run-??.dat", "run-07.dat"));
/// assert!(!glob_match("*.tif", "scan.tiff"));
/// ```
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    // Iterative backtracking matcher (the classic two-pointer algorithm).
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star_p, mut star_n) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star_p = pi;
            star_n = ni;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_n += 1;
            ni = star_n;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// The "If-Trigger" half of a rule: which events, on which agent, where.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trigger {
    /// The agent whose events this trigger watches.
    pub agent: AgentId,
    /// Only events under this directory match ("users also specify the
    /// path to be monitored", §3).
    pub path_prefix: PathBuf,
    /// Event kinds that match (empty = all kinds).
    pub kinds: Vec<EventKind>,
    /// Optional filename glob (e.g. `*.tif`).
    pub glob: Option<String>,
    /// Whether events in subdirectories of the prefix match.
    pub recursive: bool,
}

impl Trigger {
    /// A trigger on `agent` matching everything under `/`.
    pub fn on(agent: AgentId) -> Self {
        Trigger {
            agent,
            path_prefix: PathBuf::from("/"),
            kinds: Vec::new(),
            glob: None,
            recursive: true,
        }
    }

    /// Restricts the trigger to events under `prefix`.
    pub fn under(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.path_prefix = prefix.into();
        self
    }

    /// Restricts the trigger to the given event kinds.
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = EventKind>) -> Self {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Restricts the trigger to filenames matching `pattern`.
    pub fn glob(mut self, pattern: impl Into<String>) -> Self {
        self.glob = Some(pattern.into());
        self
    }

    /// Restricts the trigger to the prefix directory itself (no
    /// subdirectories).
    pub fn non_recursive(mut self) -> Self {
        self.recursive = false;
        self
    }

    /// Whether `event` (from `agent`) satisfies this trigger.
    pub fn matches(&self, agent: &AgentId, event: &FileEvent) -> bool {
        if agent != &self.agent {
            return false;
        }
        if !event.path.starts_with(&self.path_prefix) {
            return false;
        }
        if !self.recursive {
            match event.path.parent() {
                Some(parent) if parent == self.path_prefix => {}
                _ => return false,
            }
        }
        if !self.kinds.is_empty() && !self.kinds.contains(&event.kind) {
            return false;
        }
        if let Some(glob) = &self.glob {
            let name = event.path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
            if !glob_match(glob, &name) {
                return false;
            }
        }
        true
    }
}

/// A complete If-Trigger-Then-Action rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Identifier assigned at registration (`RuleId::new(0)` until
    /// registered).
    pub id: RuleId,
    /// The trigger.
    pub trigger: Trigger,
    /// The action to invoke when the trigger matches.
    pub action: ActionSpec,
}

impl Rule {
    /// Starts building a rule from its trigger.
    pub fn when(trigger: Trigger) -> RuleWhen {
        RuleWhen { trigger }
    }
}

/// Intermediate builder state: trigger chosen, action pending.
#[derive(Debug, Clone)]
pub struct RuleWhen {
    trigger: Trigger,
}

impl RuleWhen {
    /// Completes the rule with its action.
    pub fn then(self, action: ActionSpec) -> Rule {
        Rule { id: RuleId::new(0), trigger: self.trigger, action }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_types::{ChangelogKind, Fid, MdtIndex, SimTime};

    fn event(path: &str, kind: EventKind) -> FileEvent {
        FileEvent {
            index: 1,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind,
            time: SimTime::EPOCH,
            path: path.into(),
            src_path: None,
            target: Fid::new(1, 1, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        }
    }

    #[test]
    fn glob_basics() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*.tif", "a.tif"));
        assert!(!glob_match("*.tif", "a.tiff"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(glob_match("data-*-v?.csv", "data-run12-v3.csv"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("***", "x"));
        assert!(glob_match("*x*", "axb"));
        assert!(!glob_match("*x*", "ab"));
    }

    #[test]
    fn trigger_matches_prefix_kind_glob() {
        let agent = AgentId::new("laptop");
        let t =
            Trigger::on(agent.clone()).under("/inbox").kinds([EventKind::Created]).glob("*.tif");
        assert!(t.matches(&agent, &event("/inbox/a.tif", EventKind::Created)));
        assert!(t.matches(&agent, &event("/inbox/deep/b.tif", EventKind::Created)));
        assert!(!t.matches(&agent, &event("/outbox/a.tif", EventKind::Created)));
        assert!(!t.matches(&agent, &event("/inbox/a.dat", EventKind::Created)));
        assert!(!t.matches(&agent, &event("/inbox/a.tif", EventKind::Deleted)));
        assert!(!t.matches(&AgentId::new("other"), &event("/inbox/a.tif", EventKind::Created)));
    }

    #[test]
    fn non_recursive_trigger() {
        let agent = AgentId::new("a");
        let t = Trigger::on(agent.clone()).under("/inbox").non_recursive();
        assert!(t.matches(&agent, &event("/inbox/direct.txt", EventKind::Created)));
        assert!(!t.matches(&agent, &event("/inbox/sub/nested.txt", EventKind::Created)));
    }

    #[test]
    fn empty_kinds_matches_all() {
        let agent = AgentId::new("a");
        let t = Trigger::on(agent.clone());
        for kind in EventKind::ALL {
            assert!(t.matches(&agent, &event("/any", kind)));
        }
    }

    #[test]
    fn rule_builder_reads_naturally() {
        let rule = Rule::when(Trigger::on(AgentId::new("src")).under("/x"))
            .then(crate::ActionSpec::email("ops@example.org"));
        assert_eq!(rule.trigger.path_prefix, PathBuf::from("/x"));
        assert_eq!(rule.id, RuleId::new(0));
    }

    #[test]
    fn trigger_serde_roundtrip() {
        let t = Trigger::on(AgentId::new("x")).under("/d").glob("*.h5");
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<Trigger>(&json).unwrap(), t);
    }
}
