//! Enforcement of a [`FaultPlan`](sdci_faults::FaultPlan) at the
//! conn/wire boundary.
//!
//! Every sdci-net endpoint funnels its outbound frames through a
//! [`FaultedWriter`] and its inbound frames through a
//! [`FrameReader`](crate::wire::FrameReader) built with
//! `with_faults` — so TcpPush, TcpSubscriber, the accept-side
//! handlers, StoreServer, and RemoteStore all inherit the schedule
//! installed on their [`NetConfig`] without any per-endpoint logic.
//!
//! The write side exploits an invariant of the wire module: every frame
//! is written as `write_all(header)`, `write_all(body)`, `flush()` —
//! exactly one `flush` per frame. `FaultedWriter` therefore buffers
//! bytes until `flush` and applies one fault decision per flush,
//! keeping injected faults aligned to frame boundaries so a *dropped*
//! frame never desynchronizes the length-prefixed stream (that is what
//! *truncate* is for).

use crate::conn::NetConfig;
use sdci_faults::{crash_point, Direction, FrameFault, StreamFaults};
use std::io::{self, Write};
use std::thread::JoinHandle;

/// A frame-buffering writer that applies one send-side fault decision
/// per flushed frame. With no fault stream installed it is a transparent
/// pass-through (no buffering, no copies).
pub struct FaultedWriter<W: Write> {
    inner: W,
    faults: Option<StreamFaults>,
    buf: Vec<u8>,
    /// Set after an injected truncation: the stream is intentionally
    /// corrupt, and every later write must fail like a dead socket.
    dead: bool,
}

impl<W: Write> std::fmt::Debug for FaultedWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedWriter")
            .field("faulted", &self.faults.is_some())
            .field("buffered", &self.buf.len())
            .finish()
    }
}

impl<W: Write> FaultedWriter<W> {
    /// Wraps `inner`; `faults: None` means clean pass-through.
    pub fn new(inner: W, faults: Option<StreamFaults>) -> Self {
        FaultedWriter { inner, faults, buf: Vec::new(), dead: false }
    }

    /// The wrapped stream (e.g. to `try_clone` a TCP read half).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for FaultedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.faults.is_none() {
            return self.inner.write(buf);
        }
        if self.dead {
            return Err(injected_dead());
        }
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// Clean connections pass vectored writes straight through (one
    /// `writev` for a frame's header + body); faulted ones buffer every
    /// slice so the whole frame still draws a single fault decision at
    /// flush time.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        if self.faults.is_none() {
            return self.inner.write_vectored(bufs);
        }
        if self.dead {
            return Err(injected_dead());
        }
        let mut n = 0;
        for buf in bufs {
            self.buf.extend_from_slice(buf);
            n += buf.len();
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let Some(faults) = self.faults.as_mut() else {
            return self.inner.flush();
        };
        if self.dead {
            return Err(injected_dead());
        }
        let frame = std::mem::take(&mut self.buf);
        if frame.is_empty() {
            return self.inner.flush();
        }
        if faults.partitioned() {
            // Black hole: the frame vanishes but the connection looks
            // alive. Liveness windows, not write errors, must notice.
            record_fault("send", "partition");
            return Ok(());
        }
        match faults.decide(Direction::Send) {
            FrameFault::Deliver => {
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            FrameFault::Drop => {
                record_fault("send", "drop");
                Ok(())
            }
            FrameFault::Duplicate => {
                record_fault("send", "duplicate");
                self.inner.write_all(&frame)?;
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            FrameFault::Delay(dur) => {
                record_fault("send", "delay");
                std::thread::sleep(dur);
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            FrameFault::Truncate => {
                record_fault("send", "truncate");
                // Half a frame hits the wire, then the connection dies:
                // the peer sees a length prefix whose body never
                // completes and must recover by reconnecting.
                let _ = self.inner.write_all(&frame[..frame.len() / 2]);
                let _ = self.inner.flush();
                self.dead = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected fault: frame truncated",
                ))
            }
        }
    }
}

fn injected_dead() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: connection killed by truncation")
}

pub(crate) fn record_fault(dir: &str, kind: &str) {
    sdci_obs::registry()
        .counter_with("sdci_faults_injected_total", &[("dir", dir), ("kind", kind)])
        .inc();
}

/// Opens the per-connection send/recv fault streams for one accepted or
/// dialed connection (two independent streams so each direction's
/// decision sequence is self-contained).
pub(crate) fn conn_faults(cfg: &NetConfig) -> (Option<StreamFaults>, Option<StreamFaults>) {
    match &cfg.faults {
        Some(plan) => (Some(plan.stream()), Some(plan.stream())),
        None => (None, None),
    }
}

/// Spawns a named worker thread, routed through a `sdci-faults` fail
/// point so tests can inject the EAGAIN-style spawn failures that are
/// nearly impossible to provoke for real.
///
/// # Errors
///
/// Returns the armed fail-point error or the real `Builder::spawn`
/// failure; callers on accept paths drop the connection and keep
/// accepting, callers on bind paths propagate.
pub(crate) fn spawn_worker<F>(name: String, fail_point: &str, f: F) -> io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    crash_point(fail_point)?;
    std::thread::Builder::new().name(name).spawn(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdci_faults::FaultPlan;
    use std::sync::Arc;

    fn plan(spec: &str) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::parse(spec).unwrap())
    }

    fn write_frames(writer: &mut FaultedWriter<Vec<u8>>, n: usize) -> Vec<io::Result<()>> {
        (0..n)
            .map(|i| {
                let body = format!("frame-{i}");
                writer.write_all(&(body.len() as u32).to_be_bytes())?;
                writer.write_all(body.as_bytes())?;
                writer.flush()
            })
            .collect()
    }

    #[test]
    fn clean_writer_is_pass_through() {
        let mut w = FaultedWriter::new(Vec::new(), None);
        assert!(write_frames(&mut w, 3).iter().all(|r| r.is_ok()));
        assert!(!w.get_ref().is_empty());
    }

    #[test]
    fn drop_all_writes_nothing_but_reports_success() {
        let mut w = FaultedWriter::new(Vec::new(), Some(plan("seed=1,send.drop=1").stream()));
        assert!(write_frames(&mut w, 5).iter().all(|r| r.is_ok()));
        assert!(w.get_ref().is_empty(), "dropped frames must not reach the wire");
    }

    #[test]
    fn duplicate_all_doubles_the_bytes() {
        let mut clean = FaultedWriter::new(Vec::new(), None);
        write_frames(&mut clean, 2).into_iter().for_each(|r| r.unwrap());
        let mut dup = FaultedWriter::new(Vec::new(), Some(plan("seed=1,send.dup=1").stream()));
        write_frames(&mut dup, 2).into_iter().for_each(|r| r.unwrap());
        assert_eq!(dup.get_ref().len(), 2 * clean.get_ref().len());
    }

    #[test]
    fn truncate_emits_partial_frame_and_kills_the_writer() {
        let mut w = FaultedWriter::new(Vec::new(), Some(plan("seed=1,send.trunc=1").stream()));
        let results = write_frames(&mut w, 2);
        let first = results[0].as_ref().unwrap_err();
        assert_eq!(first.kind(), io::ErrorKind::ConnectionReset);
        let second = results[1].as_ref().unwrap_err();
        assert_eq!(second.kind(), io::ErrorKind::BrokenPipe);
        let emitted = w.get_ref().len();
        assert!(emitted > 0 && emitted < 11, "half of one 11-byte frame, got {emitted}");
    }

    #[test]
    fn spawn_worker_surfaces_armed_fail_point() {
        sdci_faults::arm("test.net.spawn", 1, sdci_faults::CrashMode::Error);
        let err = spawn_worker("t".into(), "test.net.spawn", || {}).unwrap_err();
        assert!(err.to_string().contains("test.net.spawn"));
        let handle = spawn_worker("t".into(), "test.net.spawn", || {}).unwrap();
        handle.join().unwrap();
    }
}
