//! The system under test as a child process: spawning `sdcimon
//! aggregator`, reaping it on every exit path, and reading its own
//! account of itself (`/metrics`, `/proc/<pid>`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Events the aggregator's store retains: with `sdcimon`'s segmented
/// store this is 32 segments of 2,048 events, full 6.6 s into the TCP
/// leg's 10,000 events/s.
pub const STORE_CAPACITY: usize = 65_536;

extern "C" {
    /// `prctl(2)`; declared here because the build has no `libc` crate.
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `sdcimon aggregator`. Dropping it kills and reaps the
/// child; if the benchmark itself is killed, the kernel kills the child
/// (`PR_SET_PDEATHSIG`), so no exit path leaves an aggregator behind.
pub struct Aggregator {
    child: Child,
    /// Kept open: a child that printed to a closed pipe would die of it.
    #[allow(dead_code)]
    stdout: BufReader<std::process::ChildStdout>,
    pub events_addr: SocketAddr,
    pub feed_addr: SocketAddr,
    pub store_addr: SocketAddr,
    pub metrics_addr: SocketAddr,
}

fn addr_after(line: &str, key: &str) -> Option<SocketAddr> {
    let rest = &line[line.find(key)? + key.len()..];
    rest.split([' ', ',', ')']).next()?.parse().ok()
}

impl Aggregator {
    /// Spawns `sdcimon aggregator --bind 127.0.0.1:0` and blocks on its
    /// stdout until the `listening on` readiness line — no polling, no
    /// back-off. Its log (stderr) goes to `log`. The child takes port P
    /// from the kernel and P+1..P+3 beside it, any of which may be in use
    /// (the repository's own process tests lose a run to that now and
    /// then), so a child that dies before its readiness line is replaced,
    /// twice at most.
    pub fn spawn(sdcimon: &Path, log: &Path) -> Result<Aggregator, String> {
        let mut attempt = Aggregator::spawn_once(sdcimon, log);
        for _ in 0..2 {
            let Err(why) = &attempt else { break };
            eprintln!("bench: {why}; spawning another");
            attempt = Aggregator::spawn_once(sdcimon, log);
        }
        attempt
    }

    fn spawn_once(sdcimon: &Path, log: &Path) -> Result<Aggregator, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut command = Command::new(sdcimon);
        command
            .args(["aggregator", "--bind", "127.0.0.1:0", "--store-capacity"])
            .arg(STORE_CAPACITY.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file);
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call; it touches no
        // memory shared with the parent.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command.spawn().map_err(|e| format!("spawn {}: {e}", sdcimon.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let parsed = (|| {
            Some((
                addr_after(&line, "listening on ")?,
                addr_after(&line, "feed ")?,
                addr_after(&line, "store ")?,
                addr_after(&line, "metrics ")?,
            ))
        })();
        match (read, parsed) {
            (Ok(_), Some((events_addr, feed_addr, store_addr, metrics_addr))) => {
                Ok(Aggregator { child, stdout, events_addr, feed_addr, store_addr, metrics_addr })
            }
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "aggregator gave no readiness line (read {read:?}, got {line:?}); see {}",
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One scrape of the child's `/metrics`.
    pub fn scrape(&self) -> Result<Metrics, String> {
        let mut stream = TcpStream::connect_timeout(&self.metrics_addr, Duration::from_secs(2))
            .map_err(|e| format!("connect metrics: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("metrics request: {e}"))?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(|e| format!("metrics response: {e}"))?;
        let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
        Ok(Metrics::parse(body))
    }

    /// The child's `/proc` numbers right now.
    pub fn proc_sample(&self) -> ProcSample {
        ProcSample::read(self.pid())
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A parsed Prometheus text exposition: plain series by name (labels
/// kept in the key) and histogram buckets by base name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    series: HashMap<String, f64>,
    /// `(le seconds, cumulative count)` per histogram, ascending.
    buckets: HashMap<String, Vec<(f64, f64)>>,
}

impl Metrics {
    pub fn parse(body: &str) -> Metrics {
        let mut metrics = Metrics::default();
        for line in body.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            if let Some((name, labels)) = key.split_once("_bucket{") {
                if let Some(le) = labels.split("le=\"").nth(1).and_then(|s| s.split('"').next()) {
                    let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(0.0) };
                    metrics.buckets.entry(name.to_string()).or_default().push((le, value));
                }
            }
            metrics.series.insert(key.to_string(), value);
        }
        for buckets in metrics.buckets.values_mut() {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        metrics
    }

    /// A counter or gauge by exact series name; 0 when absent (a counter
    /// that was never touched is not rendered).
    pub fn get(&self, name: &str) -> f64 {
        self.series.get(name).copied().unwrap_or(0.0)
    }

    /// The `q`-quantile in seconds of histogram `name` over the window
    /// between `earlier` and `self`, interpolated linearly inside the
    /// bucket it falls in, as Prometheus' `histogram_quantile` does (the
    /// buckets are powers of two, so the bound alone is too coarse).
    pub fn histogram_quantile_since(&self, earlier: &Metrics, name: &str, q: f64) -> f64 {
        let Some(now) = self.buckets.get(name) else { return 0.0 };
        let before = earlier.buckets.get(name);
        let at = |le: f64| -> f64 {
            // Cumulative count at `le` in the earlier scrape: the last
            // rendered bucket at or below it (empty buckets are skipped
            // in the exposition).
            before.map_or(0.0, |b| {
                b.iter().take_while(|(l, _)| *l <= le).last().map_or(0.0, |(_, c)| *c)
            })
        };
        let total = now.last().map_or(0.0, |(le, c)| c - at(*le));
        if total <= 0.0 {
            return 0.0;
        }
        let (mut lower, mut below) = (0.0, 0.0);
        for (le, cumulative) in now {
            let here = cumulative - at(*le);
            if here >= q * total {
                let upper = if le.is_finite() { *le } else { lower };
                return lower + (upper - lower) * (q * total - below) / (here - below).max(1.0);
            }
            (lower, below) = (*le, here);
        }
        0.0
    }
}

/// CPU time, context switches, thread count and memory of one process,
/// read from `/proc/<pid>`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcSample {
    /// On-CPU nanoseconds summed over the process's threads
    /// (`/proc/<pid>/task/*/schedstat`, first field).
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches over all threads.
    pub ctx_switches: u64,
    pub threads: u64,
    /// Peak resident set (`VmHWM`) in KiB.
    pub vm_hwm_kib: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl ProcSample {
    pub fn read(pid: u32) -> ProcSample {
        let mut sample = ProcSample::default();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        sample.vm_hwm_kib = status_field(&status, "VmHWM:");
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return sample };
        for task in tasks.flatten() {
            sample.threads += 1;
            let dir = task.path();
            if let Ok(schedstat) = std::fs::read_to_string(dir.join("schedstat")) {
                sample.cpu_ns +=
                    schedstat.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
                sample.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readiness_line() {
        let line = "sdcimon aggregator listening on 127.0.0.1:4100 (feed 127.0.0.1:4101, store 127.0.0.1:4102, metrics 127.0.0.1:4103)\n";
        assert_eq!(addr_after(line, "listening on ").unwrap().port(), 4100);
        assert_eq!(addr_after(line, "feed ").unwrap().port(), 4101);
        assert_eq!(addr_after(line, "store ").unwrap().port(), 4102);
        assert_eq!(addr_after(line, "metrics ").unwrap().port(), 4103);
    }

    #[test]
    fn parses_counters_and_windowed_histogram_quantiles() {
        let before = Metrics::parse(
            "# TYPE sdci_net_bytes_in_total counter\nsdci_net_bytes_in_total 100\n\
             lag_bucket{le=\"0.001\"} 10\nlag_bucket{le=\"+Inf\"} 10\nlag_sum 0.01\nlag_count 10\n",
        );
        let after = Metrics::parse(
            "sdci_net_bytes_in_total 350\n\
             lag_bucket{le=\"0.001\"} 20\nlag_bucket{le=\"0.002\"} 110\nlag_bucket{le=\"+Inf\"} 110\n\
             lag_sum 0.2\nlag_count 110\n",
        );
        assert_eq!(
            after.get("sdci_net_bytes_in_total") - before.get("sdci_net_bytes_in_total"),
            250.0
        );
        assert_eq!(after.get("never_rendered_total"), 0.0);
        // Window: 10 observations <= 1 ms, 90 in (1 ms, 2 ms].
        assert_eq!(after.histogram_quantile_since(&before, "lag", 0.05), 0.0005);
        let p50 = after.histogram_quantile_since(&before, "lag", 0.5);
        assert!((p50 - (0.001 + 0.001 * 40.0 / 90.0)).abs() < 1e-9, "{p50}");
    }

    #[test]
    fn reads_own_proc_entry() {
        let me = ProcSample::read(std::process::id());
        assert!(me.threads >= 1);
        assert!(me.vm_hwm_kib > 0);
    }
}
