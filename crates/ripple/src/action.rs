//! Actions and their (simulated) executors.
//!
//! "An action specifies the type of execution to perform (such as
//! initiating a transfer, sending an email, running a docker container,
//! or executing a local bash command...), the agent on which to perform
//! the action, and any necessary parameters." (§3)
//!
//! Transfers are executed for real against the agents' simulated
//! filesystems (a Globus transfer becomes a metadata-faithful copy);
//! emails, containers, and shell commands append to the
//! [`ExecutionLog`], which tests and examples inspect.

use parking_lot::Mutex;
use sdci_types::{AgentId, FileEvent, RuleId, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The kind of execution an action performs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionKind {
    /// Transfer the triggering file to `dest_agent` under `dest_dir`
    /// (Globus in the paper).
    Transfer {
        /// Agent receiving the file.
        dest_agent: AgentId,
        /// Directory on the destination agent.
        dest_dir: PathBuf,
    },
    /// Send a notification email.
    Email {
        /// Recipient address.
        to: String,
    },
    /// Run a container against the triggering file.
    DockerRun {
        /// Image name.
        image: String,
        /// Command line.
        command: String,
    },
    /// Execute a local shell command.
    Bash {
        /// The command, with `{path}` substituted by the triggering
        /// file's path.
        command: String,
    },
    /// Delete the triggering file on the agent (used by purge policies).
    Purge,
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Transfer { dest_agent, dest_dir } => {
                write!(f, "transfer to {dest_agent}:{}", dest_dir.display())
            }
            ActionKind::Email { to } => write!(f, "email {to}"),
            ActionKind::DockerRun { image, .. } => write!(f, "docker run {image}"),
            ActionKind::Bash { command } => write!(f, "bash: {command}"),
            ActionKind::Purge => write!(f, "purge"),
        }
    }
}

/// The "Then-Action" half of a rule: what to run and where.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionSpec {
    /// The agent that executes the action. For transfers this is the
    /// *source* agent (it initiates the transfer).
    pub agent: Option<AgentId>,
    /// What to execute.
    pub kind: ActionKind,
}

impl ActionSpec {
    /// A transfer of the triggering file to another agent.
    pub fn transfer(dest_agent: AgentId, dest_dir: impl Into<PathBuf>) -> Self {
        ActionSpec {
            agent: None, // defaults to the triggering agent
            kind: ActionKind::Transfer { dest_agent, dest_dir: dest_dir.into() },
        }
    }

    /// An email notification.
    pub fn email(to: impl Into<String>) -> Self {
        ActionSpec { agent: None, kind: ActionKind::Email { to: to.into() } }
    }

    /// A docker-container invocation.
    pub fn docker(image: impl Into<String>, command: impl Into<String>) -> Self {
        ActionSpec {
            agent: None,
            kind: ActionKind::DockerRun { image: image.into(), command: command.into() },
        }
    }

    /// A local shell command (use `{path}` for the triggering file).
    pub fn bash(command: impl Into<String>) -> Self {
        ActionSpec { agent: None, kind: ActionKind::Bash { command: command.into() } }
    }

    /// Deletion of the triggering file.
    pub fn purge() -> Self {
        ActionSpec { agent: None, kind: ActionKind::Purge }
    }

    /// Pins execution to a specific agent (default: the agent whose
    /// event triggered the rule).
    pub fn on(mut self, agent: AgentId) -> Self {
        self.agent = Some(agent);
        self
    }
}

/// A concrete action instance dispatched by the cloud service to an
/// agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRequest {
    /// The rule that fired.
    pub rule: RuleId,
    /// The event that triggered it.
    pub event: FileEvent,
    /// What to execute.
    pub kind: ActionKind,
    /// The agent chosen to execute it.
    pub agent: AgentId,
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionOutcome {
    /// The action completed.
    Success,
    /// The action failed (message retained); the cloud service will
    /// re-drive it.
    Failed(String),
}

/// One executed (or attempted) action, as recorded in the
/// [`ExecutionLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionRecord {
    /// The executing agent.
    pub agent: AgentId,
    /// The rule that fired.
    pub rule: RuleId,
    /// What was executed.
    pub kind: ActionKind,
    /// The triggering file.
    pub trigger_path: PathBuf,
    /// Event time of the trigger.
    pub trigger_time: SimTime,
    /// Result.
    pub outcome: ActionOutcome,
}

/// A shared, append-only log of executed actions (the observable side
/// effect of emails, containers, and shell commands, and an audit trail
/// for transfers and purges).
#[derive(Debug, Clone, Default)]
pub struct ExecutionLog {
    records: Arc<Mutex<Vec<ActionRecord>>>,
}

impl ExecutionLog {
    /// An empty log.
    pub fn new() -> Self {
        ExecutionLog::default()
    }

    /// Appends a record.
    pub fn record(&self, record: ActionRecord) {
        self.records.lock().push(record);
    }

    /// A snapshot of all records so far.
    pub fn snapshot(&self) -> Vec<ActionRecord> {
        self.records.lock().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has executed.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Records whose outcome is [`ActionOutcome::Success`].
    pub fn successes(&self) -> Vec<ActionRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| r.outcome == ActionOutcome::Success)
            .cloned()
            .collect()
    }

    /// Successful records of a given kind predicate (e.g. emails only).
    pub fn successes_where(
        &self,
        mut predicate: impl FnMut(&ActionRecord) -> bool,
    ) -> Vec<ActionRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| r.outcome == ActionOutcome::Success && predicate(r))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        let t = ActionSpec::transfer(AgentId::new("hpc"), "/staging");
        assert!(matches!(t.kind, ActionKind::Transfer { .. }));
        assert_eq!(t.agent, None);
        let pinned = ActionSpec::bash("echo {path}").on(AgentId::new("login-node"));
        assert_eq!(pinned.agent, Some(AgentId::new("login-node")));
    }

    #[test]
    fn kind_display() {
        assert_eq!(
            ActionSpec::transfer(AgentId::new("hpc"), "/s").kind.to_string(),
            "transfer to hpc:/s"
        );
        assert_eq!(ActionSpec::email("a@b.c").kind.to_string(), "email a@b.c");
        assert_eq!(ActionSpec::purge().kind.to_string(), "purge");
    }

    #[test]
    fn log_filters() {
        let log = ExecutionLog::new();
        log.record(ActionRecord {
            agent: AgentId::new("a"),
            rule: RuleId::new(1),
            kind: ActionKind::Email { to: "x@y.z".into() },
            trigger_path: PathBuf::from("/f"),
            trigger_time: SimTime::EPOCH,
            outcome: ActionOutcome::Success,
        });
        log.record(ActionRecord {
            agent: AgentId::new("a"),
            rule: RuleId::new(1),
            kind: ActionKind::Purge,
            trigger_path: PathBuf::from("/g"),
            trigger_time: SimTime::EPOCH,
            outcome: ActionOutcome::Failed("disk offline".into()),
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.successes().len(), 1);
        assert_eq!(log.successes_where(|r| matches!(r.kind, ActionKind::Email { .. })).len(), 1);
        let clone = log.clone();
        assert_eq!(clone.len(), 2, "clones share the log");
    }
}
