//! The Ripple cloud service and whole-fabric orchestration.
//!
//! "A scalable cloud service processes events and orchestrates the
//! execution of actions. Ripple emphasizes reliability ... agents
//! repeatedly try to report events to the service. Once an event is
//! reported it is immediately placed in a reliable SQS queue. Serverless
//! Lambda functions act on entries in this queue and remove them once
//! successfully processed." (§3)
//!
//! [`Ripple`] wires the pieces into a running fabric: agents (threads)
//! detect/filter/report events and execute routed actions; the cloud
//! service evaluates rules with a Lambda-style worker pool over the
//! reliable queue and dispatches [`ActionRequest`]s to per-agent
//! inbox queues (also SQS-semantics, so failed actions are re-driven).

use crate::action::{ActionOutcome, ActionRequest, ExecutionLog};
use crate::agent::{Agent, AgentStats, AgentStorage, EventSource, WatchdogSource};
use crate::rule::{Rule, Trigger};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdci_mq::{LambdaPool, SqsConfig, SqsQueue};
use sdci_types::{AgentId, FileEvent, RuleId, SimTime};
use simfs::SimFs;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An event report sent from an agent to the cloud service.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedEvent {
    /// The reporting agent.
    pub agent: AgentId,
    /// The event.
    pub event: FileEvent,
}

/// Cloud-side counters.
#[derive(Debug, Default)]
pub struct CloudStats {
    /// Reports accepted into the queue.
    pub accepted: AtomicU64,
    /// Report attempts rejected by injected transient failures.
    pub rejected: AtomicU64,
    /// Rule evaluations performed.
    pub evaluated: AtomicU64,
    /// Actions dispatched to agent inboxes.
    pub dispatched: AtomicU64,
}

/// Snapshot of [`CloudStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CloudSnapshot {
    /// Reports accepted into the queue.
    pub accepted: u64,
    /// Report attempts rejected by injected transient failures.
    pub rejected: u64,
    /// Rule evaluations performed.
    pub evaluated: u64,
    /// Actions dispatched to agent inboxes.
    pub dispatched: u64,
}

/// The cloud service: rule registry + reliable event intake.
pub struct CloudService {
    rules: Mutex<Vec<Rule>>,
    queue: SqsQueue<ReportedEvent>,
    stats: CloudStats,
    /// Probability that a report attempt transiently fails (reliability
    /// testing; agents must retry).
    report_fail_prob: f64,
    rng: Mutex<StdRng>,
}

impl fmt::Debug for CloudService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CloudService")
            .field("rules", &self.rules.lock().len())
            .finish_non_exhaustive()
    }
}

impl CloudService {
    fn new(queue: SqsQueue<ReportedEvent>, report_fail_prob: f64, seed: u64) -> Self {
        CloudService {
            rules: Mutex::new(Vec::new()),
            queue,
            stats: CloudStats::default(),
            report_fail_prob,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Accepts (or transiently rejects) an event report. Agents retry
    /// rejected reports.
    ///
    /// # Errors
    ///
    /// Returns `Err` on an injected transient failure — the service is
    /// modelled as momentarily unreachable.
    pub fn report(&self, report: ReportedEvent) -> Result<(), String> {
        if self.report_fail_prob > 0.0 && self.rng.lock().gen_bool(self.report_fail_prob) {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err("service unavailable (transient)".into());
        }
        self.queue.send(report);
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rules matching a reported event.
    pub fn matching_rules(&self, report: &ReportedEvent) -> Vec<Rule> {
        self.stats.evaluated.fetch_add(1, Ordering::Relaxed);
        self.rules
            .lock()
            .iter()
            .filter(|r| r.trigger.matches(&report.agent, &report.event))
            .cloned()
            .collect()
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> CloudSnapshot {
        CloudSnapshot {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            evaluated: self.stats.evaluated.load(Ordering::Relaxed),
            dispatched: self.stats.dispatched.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock mapped onto [`SimTime`] for live runs.
#[derive(Debug, Clone)]
struct WallClock {
    start: Instant,
}

impl WallClock {
    fn new() -> Self {
        WallClock { start: Instant::now() }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }
}

/// External handle to a registered agent.
#[derive(Clone)]
pub struct AgentHandle {
    id: AgentId,
    storage: AgentStorage,
    stats: Arc<Mutex<AgentStats>>,
    triggers: Arc<Mutex<Vec<Trigger>>>,
}

impl fmt::Debug for AgentHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentHandle").field("id", &self.id).finish_non_exhaustive()
    }
}

impl AgentHandle {
    /// The agent's identifier.
    pub fn id(&self) -> &AgentId {
        &self.id
    }

    /// The agent's storage.
    pub fn storage(&self) -> &AgentStorage {
        &self.storage
    }

    /// The agent's local filesystem.
    ///
    /// # Panics
    ///
    /// Panics for Lustre-backed agents; use [`AgentHandle::storage`].
    pub fn fs(&self) -> Arc<Mutex<SimFs>> {
        match &self.storage {
            AgentStorage::Local(fs) => Arc::clone(fs),
            AgentStorage::Lustre(_) => panic!("agent {} is Lustre-backed", self.id),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AgentStats {
        *self.stats.lock()
    }

    /// Triggers currently distributed to this agent.
    pub fn trigger_count(&self) -> usize {
        self.triggers.lock().len()
    }
}

/// Builder for a [`Ripple`] fabric.
#[derive(Debug, Clone)]
pub struct RippleBuilder {
    workers: usize,
    report_fail_prob: f64,
    visibility_timeout: Duration,
    max_receive_count: u32,
    seed: u64,
}

impl Default for RippleBuilder {
    fn default() -> Self {
        RippleBuilder {
            workers: 2,
            report_fail_prob: 0.0,
            visibility_timeout: Duration::from_millis(100),
            max_receive_count: 8,
            seed: 42,
        }
    }
}

impl RippleBuilder {
    /// Starts with defaults: 2 workers, no injected failures.
    pub fn new() -> Self {
        RippleBuilder::default()
    }

    /// Number of Lambda-style rule-evaluation workers.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Injects transient report failures with this probability (agents
    /// must retry; exercises the paper's reliability story).
    pub fn report_fail_prob(mut self, p: f64) -> Self {
        self.report_fail_prob = p.clamp(0.0, 0.95);
        self
    }

    /// Visibility timeout for the event queue and agent inboxes.
    pub fn visibility_timeout(mut self, d: Duration) -> Self {
        self.visibility_timeout = d;
        self
    }

    /// RNG seed for failure injection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the fabric (cloud service running, no agents yet).
    pub fn build(self) -> Ripple {
        let sqs_config = SqsConfig {
            visibility_timeout: self.visibility_timeout,
            max_receive_count: self.max_receive_count,
        };
        let queue: SqsQueue<ReportedEvent> = SqsQueue::new(sqs_config);
        let event_queue = queue.clone();
        let cloud = Arc::new(CloudService::new(queue.clone(), self.report_fail_prob, self.seed));
        let registry: Arc<Mutex<HashMap<AgentId, AgentStorage>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let inboxes: Arc<Mutex<HashMap<AgentId, SqsQueue<ActionRequest>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let log = ExecutionLog::new();

        // Lambda workers: evaluate rules, dispatch actions to inboxes.
        let lambda = {
            let cloud = Arc::clone(&cloud);
            let inboxes = Arc::clone(&inboxes);
            LambdaPool::start(queue, self.workers, move |report: ReportedEvent| {
                for rule in cloud.matching_rules(&report) {
                    let agent = rule.action.agent.clone().unwrap_or_else(|| report.agent.clone());
                    let request = ActionRequest {
                        rule: rule.id,
                        event: report.event.clone(),
                        kind: rule.action.kind.clone(),
                        agent: agent.clone(),
                    };
                    match inboxes.lock().get(&agent) {
                        Some(inbox) => {
                            inbox.send(request);
                            cloud.stats.dispatched.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            return Err(format!("agent {agent} not registered"));
                        }
                    }
                }
                Ok(())
            })
        };

        Ripple {
            cloud,
            event_queue,
            registry,
            inboxes,
            handles: HashMap::new(),
            threads: Vec::new(),
            lambda: Some(lambda),
            log,
            clock: WallClock::new(),
            stop: Arc::new(AtomicBool::new(false)),
            next_rule: AtomicU64::new(1),
            sqs_config,
        }
    }
}

/// A running Ripple fabric: cloud service + agents.
pub struct Ripple {
    cloud: Arc<CloudService>,
    event_queue: SqsQueue<ReportedEvent>,
    registry: Arc<Mutex<HashMap<AgentId, AgentStorage>>>,
    inboxes: Arc<Mutex<HashMap<AgentId, SqsQueue<ActionRequest>>>>,
    handles: HashMap<AgentId, AgentHandle>,
    threads: Vec<JoinHandle<()>>,
    lambda: Option<LambdaPool<ReportedEvent>>,
    log: ExecutionLog,
    clock: WallClock,
    stop: Arc<AtomicBool>,
    next_rule: AtomicU64,
    sqs_config: SqsConfig,
}

impl fmt::Debug for Ripple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ripple").field("agents", &self.handles.len()).finish_non_exhaustive()
    }
}

impl Ripple {
    /// Registers an agent with a fresh local filesystem watched
    /// recursively from `/`, returning its handle.
    pub fn add_local_agent(&mut self, name: &str) -> AgentHandle {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let source = WatchdogSource::new(Arc::clone(&fs), &["/"])
            // cannot fail: the crawl fails on a missing root or at the watch limit, and a fresh filesystem's `/` exists and is its only directory.
            .expect("watching the root of a fresh filesystem cannot fail");
        self.add_agent(AgentId::new(name), AgentStorage::Local(fs), source)
    }

    /// Registers an agent over explicit storage and event source.
    pub fn add_agent(
        &mut self,
        id: AgentId,
        storage: AgentStorage,
        source: impl EventSource + 'static,
    ) -> AgentHandle {
        let agent = Agent::new(id.clone(), storage.clone(), source);
        let handle = AgentHandle {
            id: id.clone(),
            storage: storage.clone(),
            stats: agent.stats_handle(),
            triggers: agent.triggers(),
        };
        let inbox: SqsQueue<ActionRequest> = SqsQueue::new(self.sqs_config);
        self.registry.lock().insert(id.clone(), storage);
        self.inboxes.lock().insert(id.clone(), inbox.clone());
        self.handles.insert(id.clone(), handle.clone());
        self.threads.push(spawn_agent_thread(
            agent,
            inbox,
            Arc::clone(&self.cloud),
            Arc::clone(&self.registry),
            self.log.clone(),
            self.clock.clone(),
            Arc::clone(&self.stop),
        ));
        handle
    }

    /// Registers a rule: assigns an id, stores it in the cloud registry,
    /// and distributes the trigger to the owning agent's filter.
    pub fn add_rule(&mut self, mut rule: Rule) -> RuleId {
        let id = RuleId::new(self.next_rule.fetch_add(1, Ordering::Relaxed));
        rule.id = id;
        if let Some(handle) = self.handles.get(&rule.trigger.agent) {
            handle.triggers.lock().push(rule.trigger.clone());
        }
        self.cloud.rules.lock().push(rule);
        id
    }

    /// Handle of a registered agent.
    pub fn agent(&self, id: &AgentId) -> Option<&AgentHandle> {
        self.handles.get(id)
    }

    /// Runs a [`BatchPolicy`](crate::BatchPolicy) sweep: evaluates its
    /// criteria against a Robinhood-style database and dispatches one
    /// action per matched path through the executing agent's inbox
    /// (same at-least-once re-drive semantics as event-triggered
    /// actions). Returns how many actions were dispatched.
    ///
    /// # Errors
    ///
    /// Returns an error string when the executing agent is not
    /// registered.
    pub fn execute_policy(
        &self,
        policy: &crate::BatchPolicy,
        db: &sdci_baselines::RobinhoodDb,
    ) -> Result<usize, String> {
        let executor = policy.action.agent.clone().unwrap_or_else(|| policy.agent.clone());
        let inboxes = self.inboxes.lock();
        let inbox =
            inboxes.get(&executor).ok_or_else(|| format!("agent {executor} not registered"))?;
        let matches = policy.matches(db);
        let n = matches.len();
        for path in matches {
            inbox.send(ActionRequest {
                rule: RuleId::new(0), // policy sweeps are not rules
                event: crate::BatchPolicy::synthetic_event(path, self.clock.now()),
                kind: policy.action.kind.clone(),
                agent: executor.clone(),
            });
            self.cloud.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        }
        Ok(n)
    }

    /// Exports the registered rule set as JSON — the control-plane
    /// artifact an administrator versions and redeploys.
    ///
    /// # Errors
    ///
    /// Returns the JSON error message when a rule names a path that is
    /// not UTF-8, which JSON cannot spell.
    pub fn export_rules(&self) -> Result<String, String> {
        serde_json::to_string_pretty(&*self.cloud.rules.lock()).map_err(|e| e.to_string())
    }

    /// Imports a rule set previously produced by
    /// [`Ripple::export_rules`], registering each rule (fresh ids are
    /// assigned, triggers are redistributed to agents). Returns how many
    /// rules were loaded.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error message when the input is not a
    /// valid rule set.
    pub fn import_rules(&mut self, json: &str) -> Result<usize, String> {
        let rules: Vec<Rule> = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let n = rules.len();
        for rule in rules {
            self.add_rule(rule);
        }
        Ok(n)
    }

    /// The shared execution log.
    pub fn execution_log(&self) -> &ExecutionLog {
        &self.log
    }

    /// Cloud-side counter snapshot.
    pub fn cloud_stats(&self) -> CloudSnapshot {
        self.cloud.snapshot()
    }

    /// Drives the fabric until event and action queues are empty and
    /// activity has quiesced, or `timeout` elapses. Returns `true` when
    /// idle was reached.
    pub fn pump_until_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable_rounds = 0;
        let mut last_log_len = usize::MAX;
        while Instant::now() < deadline {
            let queues_empty = {
                let intake_idle =
                    self.event_queue.visible_len() == 0 && self.event_queue.in_flight_len() == 0;
                let inboxes = self.inboxes.lock();
                intake_idle
                    && inboxes.values().all(|q| q.visible_len() == 0 && q.in_flight_len() == 0)
            };
            let log_len = self.log.len();
            if queues_empty && log_len == last_log_len {
                stable_rounds += 1;
                if stable_rounds >= 5 {
                    return true;
                }
            } else {
                stable_rounds = 0;
            }
            last_log_len = log_len;
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Stops agents and workers, joining all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(lambda) = self.lambda.take() {
            lambda.shutdown();
        }
    }
}

impl Drop for Ripple {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_agent_thread(
    mut agent: Agent,
    inbox: SqsQueue<ActionRequest>,
    cloud: Arc<CloudService>,
    registry: Arc<Mutex<HashMap<AgentId, AgentStorage>>>,
    log: ExecutionLog,
    clock: WallClock,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        loop {
            let mut busy = false;

            // Detect, filter, report (with retries: "agents repeatedly
            // try to report events to the service").
            for event in agent.detect_and_filter() {
                busy = true;
                let report = ReportedEvent { agent: agent.id().clone(), event };
                let mut attempts = 0u32;
                while cloud.report(report.clone()).is_err() {
                    attempts += 1;
                    agent.stats_handle().lock().report_retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    if attempts > 10_000 {
                        break; // pathological injection settings
                    }
                }
            }

            // Execute routed actions; failures stay queued for re-drive.
            while let Some((receipt, request)) = inbox.receive() {
                busy = true;
                let registry_snapshot = registry.lock().clone();
                let outcome = agent.execute(&request, &registry_snapshot, clock.now(), &log);
                if outcome == ActionOutcome::Success {
                    inbox.delete(receipt);
                }
            }

            if !busy {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionKind, ActionSpec};
    use crate::rule::Trigger;
    use sdci_types::EventKind;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn rule_fires_action_end_to_end() {
        let mut ripple = RippleBuilder::new().build();
        let laptop = ripple.add_local_agent("laptop");
        ripple.add_rule(
            Rule::when(
                Trigger::on(AgentId::new("laptop"))
                    .under("/photos")
                    .kinds([EventKind::Created])
                    .glob("*.jpg"),
            )
            .then(ActionSpec::email("me@example.org")),
        );
        {
            let fs = laptop.fs();
            let mut guard = fs.lock();
            guard.mkdir("/photos", t(0)).unwrap();
            guard.create("/photos/cat.jpg", t(1)).unwrap();
            guard.create("/photos/notes.txt", t(2)).unwrap();
        }
        assert!(ripple.pump_until_idle(Duration::from_secs(10)));
        let emails =
            ripple.execution_log().successes_where(|r| matches!(r.kind, ActionKind::Email { .. }));
        assert_eq!(emails.len(), 1);
        assert_eq!(emails[0].trigger_path, std::path::PathBuf::from("/photos/cat.jpg"));
        let stats = laptop.stats();
        assert_eq!(stats.reported, 1);
        assert!(stats.filtered_out >= 1, "notes.txt filtered at the agent");
        ripple.shutdown();
    }

    #[test]
    fn transfer_rule_moves_data_between_agents() {
        let mut ripple = RippleBuilder::new().build();
        let src = ripple.add_local_agent("microscope");
        let _dst = ripple.add_local_agent("cluster");
        ripple.add_rule(
            Rule::when(Trigger::on(AgentId::new("microscope")).under("/acq"))
                .then(ActionSpec::transfer(AgentId::new("cluster"), "/incoming")),
        );
        {
            let fs = src.fs();
            let mut guard = fs.lock();
            guard.mkdir("/acq", t(0)).unwrap();
            guard.create("/acq/img.raw", t(1)).unwrap();
            guard.write("/acq/img.raw", 2048, t(1)).unwrap();
        }
        assert!(ripple.pump_until_idle(Duration::from_secs(10)));
        let dst_fs = ripple.agent(&AgentId::new("cluster")).unwrap().fs();
        let stat = dst_fs.lock().stat("/incoming/img.raw").unwrap();
        assert_eq!(stat.size, 2048);
        ripple.shutdown();
    }

    #[test]
    fn rule_chain_fires_downstream_rule() {
        // Rule 1: file appears on A -> transfer to B.
        // Rule 2: file appears on B -> email.
        let mut ripple = RippleBuilder::new().build();
        let a = ripple.add_local_agent("a");
        let _b = ripple.add_local_agent("b");
        ripple.add_rule(
            Rule::when(
                Trigger::on(AgentId::new("a"))
                    .under("/out")
                    .kinds([EventKind::Created])
                    .glob("*.csv"),
            )
            .then(ActionSpec::transfer(AgentId::new("b"), "/in")),
        );
        ripple.add_rule(
            Rule::when(
                Trigger::on(AgentId::new("b"))
                    .under("/in")
                    .kinds([EventKind::Created])
                    .glob("*.csv"),
            )
            .then(ActionSpec::email("pipeline@example.org")),
        );
        {
            let fs = a.fs();
            let mut guard = fs.lock();
            guard.mkdir("/out", t(0)).unwrap();
            guard.create("/out/result.csv", t(1)).unwrap();
        }
        assert!(ripple.pump_until_idle(Duration::from_secs(10)));
        let emails =
            ripple.execution_log().successes_where(|r| matches!(r.kind, ActionKind::Email { .. }));
        assert_eq!(emails.len(), 1, "the transfer's arrival re-triggered");
        ripple.shutdown();
    }

    #[test]
    fn reports_survive_transient_cloud_failures() {
        let mut ripple = RippleBuilder::new().report_fail_prob(0.5).seed(9).build();
        let laptop = ripple.add_local_agent("flaky");
        ripple.add_rule(
            Rule::when(Trigger::on(AgentId::new("flaky")).under("/d"))
                .then(ActionSpec::email("x@y.z")),
        );
        {
            let fs = laptop.fs();
            let mut guard = fs.lock();
            guard.mkdir("/d", t(0)).unwrap();
            for i in 0..20 {
                guard.create(format!("/d/f{i}"), t(i)).unwrap();
            }
        }
        assert!(ripple.pump_until_idle(Duration::from_secs(20)));
        let emails =
            ripple.execution_log().successes_where(|r| matches!(r.kind, ActionKind::Email { .. }));
        assert_eq!(emails.len(), 21, "mkdir + 20 creates all reported despite failures");
        assert!(ripple.cloud_stats().rejected > 0, "failures actually injected");
        assert!(laptop.stats().report_retries > 0);
        ripple.shutdown();
    }

    #[test]
    fn purge_rule_deletes_matching_files() {
        let mut ripple = RippleBuilder::new().build();
        let store = ripple.add_local_agent("store");
        ripple.add_rule(
            Rule::when(
                Trigger::on(AgentId::new("store"))
                    .under("/scratch")
                    .kinds([EventKind::Created])
                    .glob("*.tmp"),
            )
            .then(ActionSpec::purge()),
        );
        {
            let fs = store.fs();
            let mut guard = fs.lock();
            guard.mkdir("/scratch", t(0)).unwrap();
            guard.create("/scratch/junk.tmp", t(1)).unwrap();
            guard.create("/scratch/keep.dat", t(1)).unwrap();
        }
        assert!(ripple.pump_until_idle(Duration::from_secs(10)));
        let fs = store.fs();
        assert!(!fs.lock().exists("/scratch/junk.tmp"));
        assert!(fs.lock().exists("/scratch/keep.dat"));
        ripple.shutdown();
    }

    #[test]
    fn rules_export_import_roundtrip() {
        let mut source = RippleBuilder::new().build();
        let _a = source.add_local_agent("a");
        source.add_rule(
            Rule::when(
                Trigger::on(AgentId::new("a"))
                    .under("/data")
                    .kinds([EventKind::Created])
                    .glob("*.h5"),
            )
            .then(ActionSpec::transfer(AgentId::new("b"), "/in")),
        );
        source.add_rule(
            Rule::when(Trigger::on(AgentId::new("a")).under("/tmp")).then(ActionSpec::purge()),
        );
        let exported = source.export_rules().unwrap();
        source.shutdown();

        let mut fresh = RippleBuilder::new().build();
        let a2 = fresh.add_local_agent("a");
        assert_eq!(fresh.import_rules(&exported).unwrap(), 2);
        assert_eq!(a2.trigger_count(), 2, "triggers redistributed on import");
        assert!(fresh.import_rules("not json").is_err());
        fresh.shutdown();
    }

    #[test]
    fn batch_policy_sweeps_through_fabric() {
        use crate::agent::{AgentStorage, MonitorSource};
        use lustre_sim::{LustreConfig, LustreFs};
        use sdci_baselines::{FindCriteria, RobinhoodScanner};
        use sdci_core::MonitorClusterBuilder;

        let lfs = Arc::new(parking_lot::Mutex::new(LustreFs::new(LustreConfig::aws_testbed())));
        let mut scanner = RobinhoodScanner::new(Arc::clone(&lfs), 64);
        let cluster = MonitorClusterBuilder::new(Arc::clone(&lfs)).start();
        let mut ripple = RippleBuilder::new().build();
        ripple.add_agent(
            AgentId::new("store"),
            AgentStorage::Lustre(Arc::clone(&lfs)),
            MonitorSource::new(cluster.subscribe()),
        );
        {
            let mut fs = lfs.lock();
            fs.mkdir("/scratch", t(0)).unwrap();
            for i in 0..10 {
                fs.create(format!("/scratch/old-{i}.tmp"), t(i)).unwrap();
            }
            fs.create("/scratch/fresh.tmp", t(5_000)).unwrap();
            fs.create("/scratch/keep.dat", t(1)).unwrap();
        }
        scanner.scan_once();
        let policy = crate::BatchPolicy::new(
            AgentId::new("store"),
            FindCriteria::any().under("/scratch").named("*.tmp").modified_before(t(1_000)),
            ActionSpec::purge(),
        );
        let dispatched = ripple.execute_policy(&policy, scanner.db()).unwrap();
        assert_eq!(dispatched, 10);
        assert!(ripple.pump_until_idle(Duration::from_secs(20)));
        {
            let fs = lfs.lock();
            for i in 0..10 {
                assert!(!fs.fs().exists(format!("/scratch/old-{i}.tmp")));
            }
            assert!(fs.fs().exists("/scratch/fresh.tmp"), "recent file survives");
            assert!(fs.fs().exists("/scratch/keep.dat"), "non-matching name survives");
        }
        // Unknown agent errors.
        let bad = crate::BatchPolicy::new(
            AgentId::new("ghost"),
            FindCriteria::any(),
            ActionSpec::purge(),
        );
        assert!(ripple.execute_policy(&bad, scanner.db()).is_err());
        ripple.shutdown();
        cluster.shutdown();
    }
}
