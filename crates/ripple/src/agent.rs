//! The Ripple agent: event detection, filtering, and action execution.
//!
//! "The agent is responsible for detecting data events, filtering them
//! against active rules, and reporting events to the cloud service. The
//! agent also provides an execution component, capable of performing
//! local actions on a user's behalf." (§3)

use crate::action::{ActionKind, ActionOutcome, ActionRecord, ActionRequest, ExecutionLog};
use crate::rule::Trigger;
use inotify_sim::{Inotify, RecursiveWatcher};
use lustre_sim::LustreFs;
use parking_lot::Mutex;
use sdci_core::EventConsumer;
use sdci_types::{AgentId, ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use simfs::SimFs;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where events come from. Ripple originally supported only
/// Watchdog-style sources; the Lustre monitor adds site-wide coverage.
pub trait EventSource: Send {
    /// Drains whatever events have occurred since the last poll.
    fn poll(&mut self) -> Vec<FileEvent>;
}

/// A Watchdog-style source: recursive inotify watches over a local
/// filesystem (laptops, lab machines).
pub struct WatchdogSource {
    fs: Arc<Mutex<SimFs>>,
    watcher: RecursiveWatcher,
    counter: u64,
}

impl fmt::Debug for WatchdogSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WatchdogSource").finish_non_exhaustive()
    }
}

impl WatchdogSource {
    /// Attaches recursive watches to `roots` on a shared filesystem.
    ///
    /// # Errors
    ///
    /// Propagates watch-limit and lookup failures from the crawl.
    pub fn new(fs: Arc<Mutex<SimFs>>, roots: &[&str]) -> Result<Self, inotify_sim::InotifyError> {
        let mut guard = fs.lock();
        let inotify = Inotify::attach(&mut guard);
        let mut watcher = RecursiveWatcher::new(inotify);
        for root in roots {
            watcher.watch_tree(&guard, root)?;
        }
        drop(guard);
        Ok(WatchdogSource { fs, watcher, counter: 0 })
    }

    fn file_event_from(&mut self, ev: inotify_sim::InotifyEvent) -> FileEvent {
        self.counter += 1;
        let changelog_kind = match ev.kind {
            EventKind::Created => {
                if ev.is_dir {
                    ChangelogKind::Mkdir
                } else {
                    ChangelogKind::Create
                }
            }
            EventKind::Deleted => {
                if ev.is_dir {
                    ChangelogKind::Rmdir
                } else {
                    ChangelogKind::Unlink
                }
            }
            EventKind::Moved => ChangelogKind::Rename,
            EventKind::Modified => ChangelogKind::MtimeChange,
            EventKind::AttribChanged => ChangelogKind::SetAttr,
            EventKind::Other => ChangelogKind::Mark,
        };
        FileEvent {
            index: self.counter,
            mdt: MdtIndex::new(0),
            changelog_kind,
            kind: ev.kind,
            time: ev.time,
            path: ev.path.into(),
            src_path: None,
            target: Fid::ZERO,
            is_dir: ev.is_dir,
            // The watchdog source is itself an extraction point.
            extracted_unix_ns: Some(sdci_obs::unix_now_ns()),
            trace: None,
        }
    }
}

impl EventSource for WatchdogSource {
    fn poll(&mut self) -> Vec<FileEvent> {
        let events = {
            let guard = self.fs.lock();
            self.watcher.poll(&guard)
        };
        events.into_iter().filter(|e| !e.overflow).map(|e| self.file_event_from(e)).collect()
    }
}

/// A source backed by the scalable Lustre monitor's site-wide feed.
pub struct MonitorSource {
    consumer: EventConsumer,
}

impl fmt::Debug for MonitorSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorSource").finish_non_exhaustive()
    }
}

impl MonitorSource {
    /// Wraps a monitor consumer.
    pub fn new(consumer: EventConsumer) -> Self {
        MonitorSource { consumer }
    }
}

impl EventSource for MonitorSource {
    fn poll(&mut self) -> Vec<FileEvent> {
        std::iter::from_fn(|| self.consumer.try_next()).collect()
    }
}

/// An agent's storage resource: a personal device's local filesystem or
/// a shared Lustre deployment.
#[derive(Clone)]
pub enum AgentStorage {
    /// A local (personal-device) filesystem.
    Local(Arc<Mutex<SimFs>>),
    /// A Lustre filesystem (typically shared with the monitor).
    Lustre(Arc<Mutex<LustreFs>>),
}

impl fmt::Debug for AgentStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentStorage::Local(_) => f.write_str("AgentStorage::Local"),
            AgentStorage::Lustre(_) => f.write_str("AgentStorage::Lustre"),
        }
    }
}

impl AgentStorage {
    /// Size of the file at `path`, if it exists.
    pub fn size_of(&self, path: &Path) -> Option<u64> {
        match self {
            AgentStorage::Local(fs) => fs.lock().stat(path).ok().map(|s| s.size),
            AgentStorage::Lustre(fs) => fs.lock().fs().stat(path).ok().map(|s| s.size),
        }
    }

    /// True when `path` exists.
    pub fn exists(&self, path: &Path) -> bool {
        match self {
            AgentStorage::Local(fs) => fs.lock().exists(path),
            AgentStorage::Lustre(fs) => fs.lock().fs().exists(path),
        }
    }

    /// Creates `path` (and missing parents) with `size` bytes of
    /// content — the receiving half of a transfer.
    pub fn deposit(&self, path: &Path, size: u64, now: SimTime) -> Result<(), String> {
        let parent = path.parent().ok_or_else(|| "destination has no parent".to_string())?;
        match self {
            AgentStorage::Local(fs) => {
                let mut guard = fs.lock();
                guard.mkdir_all(parent, now).map_err(|e| e.to_string())?;
                if guard.exists(path) {
                    guard.truncate(path, 0, now).map_err(|e| e.to_string())?;
                } else {
                    guard.create(path, now).map_err(|e| e.to_string())?;
                }
                if size > 0 {
                    guard.write(path, size, now).map_err(|e| e.to_string())?;
                }
            }
            AgentStorage::Lustre(fs) => {
                let mut guard = fs.lock();
                guard.mkdir_all(parent, now).map_err(|e| e.to_string())?;
                if guard.fs().exists(path) {
                    guard.truncate(path, 0, now).map_err(|e| e.to_string())?;
                } else {
                    guard.create(path, now).map_err(|e| e.to_string())?;
                }
                if size > 0 {
                    guard.write(path, size, now).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// Removes the file at `path` (purge policies).
    pub fn remove(&self, path: &Path, now: SimTime) -> Result<(), String> {
        match self {
            AgentStorage::Local(fs) => fs.lock().unlink(path, now).map_err(|e| e.to_string()),
            AgentStorage::Lustre(fs) => fs.lock().unlink(path, now).map_err(|e| e.to_string()),
        }
    }
}

/// Counters for one agent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AgentStats {
    /// Events detected by the source.
    pub detected: u64,
    /// Events that matched a distributed trigger and were reported.
    pub reported: u64,
    /// Events filtered out locally (no trigger matched).
    pub filtered_out: u64,
    /// Report attempts that failed and were retried.
    pub report_retries: u64,
    /// Actions executed successfully.
    pub actions_succeeded: u64,
    /// Action executions that failed.
    pub actions_failed: u64,
}

/// A deployable Ripple agent.
///
/// The agent is usually driven by [`Ripple`](crate::Ripple)'s worker
/// threads; it can also be driven manually in tests via
/// [`Agent::detect_and_filter`] and [`Agent::execute`].
pub struct Agent {
    id: AgentId,
    storage: AgentStorage,
    source: Box<dyn EventSource>,
    triggers: Arc<Mutex<Vec<Trigger>>>,
    stats: Arc<Mutex<AgentStats>>,
}

impl fmt::Debug for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Agent").field("id", &self.id).finish_non_exhaustive()
    }
}

impl Agent {
    /// Creates an agent over a storage resource and an event source.
    pub fn new(id: AgentId, storage: AgentStorage, source: impl EventSource + 'static) -> Self {
        Agent {
            id,
            storage,
            source: Box::new(source),
            triggers: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(Mutex::new(AgentStats::default())),
        }
    }

    /// The agent's identifier.
    pub fn id(&self) -> &AgentId {
        &self.id
    }

    /// The agent's storage resource.
    pub fn storage(&self) -> &AgentStorage {
        &self.storage
    }

    /// The handle rules are distributed into (shared with the cloud
    /// service).
    pub fn triggers(&self) -> Arc<Mutex<Vec<Trigger>>> {
        Arc::clone(&self.triggers)
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Arc<Mutex<AgentStats>> {
        Arc::clone(&self.stats)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AgentStats {
        *self.stats.lock()
    }

    /// Polls the source and filters events against distributed triggers,
    /// returning only the events that warrant reporting (§3 "Event
    /// Detection").
    pub fn detect_and_filter(&mut self) -> Vec<FileEvent> {
        let events = self.source.poll();
        let triggers = self.triggers.lock();
        let mut stats = self.stats.lock();
        stats.detected += events.len() as u64;
        sdci_obs::static_metric!(counter, "sdci_ripple_events_detected_total")
            .add(events.len() as u64);
        let mut relevant = Vec::new();
        for event in events {
            if triggers.iter().any(|t| t.matches(&self.id, &event)) {
                sdci_obs::static_metric!(counter, "sdci_ripple_rule_matches_total").inc();
                relevant.push(event);
            } else {
                stats.filtered_out += 1;
                sdci_obs::static_metric!(counter, "sdci_ripple_filtered_out_total").inc();
            }
        }
        stats.reported += relevant.len() as u64;
        relevant
    }

    /// Executes an action request on this agent, recording the outcome.
    ///
    /// `registry` resolves transfer destinations to their storage.
    pub fn execute(
        &self,
        request: &ActionRequest,
        registry: &HashMap<AgentId, AgentStorage>,
        now: SimTime,
        log: &ExecutionLog,
    ) -> ActionOutcome {
        let effective_kind = substitute_params(&request.kind, &request.event);
        let outcome = self.execute_inner(request, registry, now);
        {
            let mut stats = self.stats.lock();
            let outcome_label = match outcome {
                ActionOutcome::Success => {
                    stats.actions_succeeded += 1;
                    "success"
                }
                ActionOutcome::Failed(_) => {
                    stats.actions_failed += 1;
                    "failed"
                }
            };
            sdci_obs::registry()
                .counter_with("sdci_ripple_actions_total", &[("outcome", outcome_label)])
                .inc();
        }
        log.record(ActionRecord {
            agent: self.id.clone(),
            rule: request.rule,
            kind: effective_kind,
            trigger_path: request.event.path.to_path_buf(),
            trigger_time: request.event.time,
            outcome: outcome.clone(),
        });
        outcome
    }

    fn execute_inner(
        &self,
        request: &ActionRequest,
        registry: &HashMap<AgentId, AgentStorage>,
        now: SimTime,
    ) -> ActionOutcome {
        match &request.kind {
            ActionKind::Transfer { dest_agent, dest_dir } => {
                let src_path = &request.event.path;
                let Some(size) = self.storage.size_of(src_path) else {
                    return ActionOutcome::Failed(format!(
                        "transfer source missing: {}",
                        src_path.display()
                    ));
                };
                let Some(dest) = registry.get(dest_agent) else {
                    return ActionOutcome::Failed(format!("unknown agent {dest_agent}"));
                };
                let name = src_path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "unnamed".to_owned());
                let mut dest_path = PathBuf::from(dest_dir);
                dest_path.push(name);
                match dest.deposit(&dest_path, size, now) {
                    Ok(()) => ActionOutcome::Success,
                    Err(e) => ActionOutcome::Failed(e),
                }
            }
            ActionKind::Purge => match self.storage.remove(&request.event.path, now) {
                Ok(()) => ActionOutcome::Success,
                Err(e) => ActionOutcome::Failed(e),
            },
            // Emails, containers, and shell commands have no simulated
            // substrate to act on; recording them in the log *is* the
            // execution.
            ActionKind::Email { .. } | ActionKind::DockerRun { .. } | ActionKind::Bash { .. } => {
                ActionOutcome::Success
            }
        }
    }
}

/// Substitutes the `{path}` and `{name}` placeholders in shell and
/// container command lines with the triggering file's absolute path and
/// final name component.
fn substitute_params(kind: &ActionKind, event: &FileEvent) -> ActionKind {
    let apply = |command: &str| {
        command.replace("{path}", &event.path.display().to_string()).replace(
            "{name}",
            &event.path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        )
    };
    match kind {
        ActionKind::Bash { command } => ActionKind::Bash { command: apply(command) },
        ActionKind::DockerRun { image, command } => {
            ActionKind::DockerRun { image: image.clone(), command: apply(command) }
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_types::RuleId;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn local_agent(id: &str, roots: &[&str]) -> (Arc<Mutex<SimFs>>, Agent) {
        let mut fs = SimFs::new();
        for root in roots {
            fs.mkdir_all(root, SimTime::EPOCH).unwrap();
        }
        let fs = Arc::new(Mutex::new(fs));
        let source = WatchdogSource::new(Arc::clone(&fs), roots).unwrap();
        let agent = Agent::new(AgentId::new(id), AgentStorage::Local(Arc::clone(&fs)), source);
        (fs, agent)
    }

    #[test]
    fn watchdog_source_detects_and_filters() {
        let (fs, mut agent) = local_agent("laptop", &["/inbox"]);
        agent
            .triggers()
            .lock()
            .push(Trigger::on(AgentId::new("laptop")).under("/inbox").glob("*.tif"));
        {
            let mut guard = fs.lock();
            guard.create("/inbox/scan.tif", t(1)).unwrap();
            guard.create("/inbox/notes.txt", t(2)).unwrap();
        }
        let relevant = agent.detect_and_filter();
        assert_eq!(relevant.len(), 1);
        assert_eq!(relevant[0].path, PathBuf::from("/inbox/scan.tif"));
        let stats = agent.stats();
        assert_eq!(stats.detected, 2);
        assert_eq!(stats.filtered_out, 1);
        assert_eq!(stats.reported, 1);
    }

    #[test]
    fn transfer_copies_between_agents() {
        let (src_fs, agent) = local_agent("src", &["/out"]);
        let dest_fs = Arc::new(Mutex::new(SimFs::new()));
        let mut registry = HashMap::new();
        registry.insert(AgentId::new("src"), AgentStorage::Local(Arc::clone(&src_fs)));
        registry.insert(AgentId::new("dst"), AgentStorage::Local(Arc::clone(&dest_fs)));
        {
            let mut guard = src_fs.lock();
            guard.create("/out/data.h5", t(1)).unwrap();
            guard.write("/out/data.h5", 1234, t(1)).unwrap();
        }
        let log = ExecutionLog::new();
        let request = ActionRequest {
            rule: RuleId::new(1),
            event: FileEvent {
                index: 1,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: t(1),
                path: "/out/data.h5".into(),
                src_path: None,
                target: Fid::ZERO,
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
            kind: ActionKind::Transfer {
                dest_agent: AgentId::new("dst"),
                dest_dir: PathBuf::from("/staging/run1"),
            },
            agent: AgentId::new("src"),
        };
        let outcome = agent.execute(&request, &registry, t(2), &log);
        assert_eq!(outcome, ActionOutcome::Success);
        let stat = dest_fs.lock().stat("/staging/run1/data.h5").unwrap();
        assert_eq!(stat.size, 1234);
        assert_eq!(log.successes().len(), 1);
    }

    #[test]
    fn transfer_of_missing_source_fails() {
        let (_fs, agent) = local_agent("src", &["/out"]);
        let registry = HashMap::new();
        let log = ExecutionLog::new();
        let request = ActionRequest {
            rule: RuleId::new(1),
            event: FileEvent {
                index: 1,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: t(1),
                path: "/out/never-existed".into(),
                src_path: None,
                target: Fid::ZERO,
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
            kind: ActionKind::Transfer {
                dest_agent: AgentId::new("dst"),
                dest_dir: PathBuf::from("/x"),
            },
            agent: AgentId::new("src"),
        };
        assert!(matches!(agent.execute(&request, &registry, t(2), &log), ActionOutcome::Failed(_)));
        assert_eq!(agent.stats().actions_failed, 1);
    }

    #[test]
    fn purge_removes_file() {
        let (fs, agent) = local_agent("store", &["/stale"]);
        fs.lock().create("/stale/old.dat", t(1)).unwrap();
        let log = ExecutionLog::new();
        let request = ActionRequest {
            rule: RuleId::new(2),
            event: FileEvent {
                index: 1,
                mdt: MdtIndex::new(0),
                changelog_kind: ChangelogKind::Create,
                kind: EventKind::Created,
                time: t(1),
                path: "/stale/old.dat".into(),
                src_path: None,
                target: Fid::ZERO,
                is_dir: false,
                extracted_unix_ns: None,
                trace: None,
            },
            kind: ActionKind::Purge,
            agent: AgentId::new("store"),
        };
        assert_eq!(agent.execute(&request, &HashMap::new(), t(2), &log), ActionOutcome::Success);
        assert!(!fs.lock().exists("/stale/old.dat"));
    }

    #[test]
    fn bash_and_docker_commands_substitute_path() {
        let (_fs, agent) = local_agent("node", &["/w"]);
        let log = ExecutionLog::new();
        let event = FileEvent {
            index: 1,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: t(1),
            path: "/w/run-7.dat".into(),
            src_path: None,
            target: Fid::ZERO,
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        };
        for kind in [
            ActionKind::Bash { command: "analyze {path} --tag {name}".into() },
            ActionKind::DockerRun { image: "img".into(), command: "proc {path}".into() },
        ] {
            let request = ActionRequest {
                rule: RuleId::new(1),
                event: event.clone(),
                kind,
                agent: AgentId::new("node"),
            };
            agent.execute(&request, &HashMap::new(), t(2), &log);
        }
        let records = log.successes();
        match &records[0].kind {
            ActionKind::Bash { command } => {
                assert_eq!(command, "analyze /w/run-7.dat --tag run-7.dat");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &records[1].kind {
            ActionKind::DockerRun { command, .. } => assert_eq!(command, "proc /w/run-7.dat"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deposit_overwrites_existing() {
        let storage = AgentStorage::Local(Arc::new(Mutex::new(SimFs::new())));
        storage.deposit(Path::new("/d/f"), 100, t(1)).unwrap();
        storage.deposit(Path::new("/d/f"), 40, t(2)).unwrap();
        assert_eq!(storage.size_of(Path::new("/d/f")), Some(40));
    }

    #[test]
    fn lustre_storage_deposit_logs_events() {
        let lfs = Arc::new(Mutex::new(LustreFs::new(lustre_sim::LustreConfig::aws_testbed())));
        let storage = AgentStorage::Lustre(Arc::clone(&lfs));
        storage.deposit(Path::new("/project/in.dat"), 64, t(1)).unwrap();
        assert!(storage.exists(Path::new("/project/in.dat")));
        assert!(lfs.lock().total_events() >= 2, "mkdir + create + write logged");
    }
}
