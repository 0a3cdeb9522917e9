//! The process-test harness: spawning `sdcimon` roles as children,
//! reading their readiness line, scraping and querying them at their
//! one address, and checking what a consumer printed.
//!
//! Children are managed strictly through [`std::process::Child`]
//! handles (never `pkill`), so a crashed test cannot take unrelated
//! processes down with it.

#![allow(dead_code)] // each test binary uses its own subset

use sdci::net::{NetConfig, RemoteStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

pub const BIN: &str = env!("CARGO_BIN_EXE_sdcimon");

/// Events one collector run emits: one mkdir plus `--files` creates.
pub const EVENTS_PER_COLLECTOR: usize = 101;

/// A child process that is SIGKILLed when the test panics.
pub struct Reaped(pub Option<Child>);

impl Reaped {
    pub fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child already consumed")
    }

    /// Hands the child back for `wait_with_output`, disarming the reaper.
    pub fn into_child(mut self) -> Child {
        self.0.take().expect("child already consumed")
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `sdcimon` role with its stdout piped.
pub fn spawn(args: &[&str]) -> Reaped {
    spawn_env(args, &[])
}

/// [`spawn`] with extra environment (crash points, mostly).
pub fn spawn_env(args: &[&str], envs: &[(&str, &str)]) -> Reaped {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::inherit());
    for (key, value) in envs {
        cmd.env(key, value);
    }
    Reaped(Some(cmd.spawn().expect("spawn sdcimon")))
}

/// Reads the aggregator's readiness line and returns its one address.
///
/// The line looks like:
/// `sdcimon aggregator listening on 127.0.0.1:40089 (feed ..., store ..., metrics ...)`
pub fn wait_for_listen_addr(role: &mut Reaped) -> String {
    let stdout = role.child().stdout.take().expect("role stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("read role stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().expect("addr token");
            // Keep draining stdout in the background so the child can
            // never block on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            return addr.to_string();
        }
    }
    panic!("role exited without printing a readiness line");
}

/// One HTTP `GET` against a role's address; returns the response body
/// of a 200.
pub fn http_get(addr: &str, path: &str) -> String {
    let addr: SocketAddr = addr.parse().expect("role addr");
    let mut stream = TcpStream::connect(addr).expect("connect role address");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: sdci\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read http response");
    assert!(response.starts_with("HTTP/1.1 200"), "unexpected status for {path}: {response}");
    let body_at = response.find("\r\n\r\n").expect("header/body separator") + 4;
    response[body_at..].to_string()
}

/// Scrapes a role's Prometheus exposition.
pub fn scrape_metrics(addr: &str) -> String {
    http_get(addr, "/metrics")
}

/// Reads one counter from a scrape body; a counter that never fired is
/// absent from the registry and reads as 0.
pub fn metric_value(body: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}

/// Runs one 100-file collector to completion against `addr`, its
/// sockets under `faults` if given, and returns its stdout.
pub fn run_collector(addr: &str, client: &str, faults: Option<&str>) -> String {
    let mut args = vec!["collector", "--connect", addr, "--client", client, "--files", "100"];
    if let Some(spec) = faults {
        args.extend_from_slice(&["--faults", spec]);
    }
    let out =
        Command::new(BIN).args(&args).stderr(Stdio::inherit()).output().expect("run collector");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "collector {client} failed: {:?}\n{stdout}", out.status);
    stdout
}

/// Asserts the per-client `event` lines are path-resolved and arrive in
/// creation order, and returns how many event lines were seen in total.
pub fn check_consumer_output(out: &str, clients: &[&str]) -> usize {
    for client in clients {
        let prefix = format!("/{client}/f");
        let indices: Vec<usize> = out
            .lines()
            .filter_map(|l| l.strip_prefix("event Created ")?.strip_prefix(&prefix)?.parse().ok())
            .collect();
        let expected: Vec<usize> = (0..100).collect();
        assert_eq!(indices, expected, "client {client}: file events out of order or missing");
    }
    out.lines().filter(|l| l.starts_with("event ")).count()
}

/// A store-RPC client for the aggregator at `addr`.
pub fn remote_store(addr: &str) -> RemoteStore {
    RemoteStore::connect(addr.parse().expect("role addr"), NetConfig::default())
}
