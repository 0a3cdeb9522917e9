//! Event-trace recording and replay.
//!
//! §5.3 closes by noting that "further online monitoring of such devices
//! is necessary to account for short lived files, file modifications,
//! and the sporadic nature of data generation" — i.e. dump diffing is no
//! substitute for a real event trace. This module provides the trace
//! layer: capture a monitor's event stream as newline-delimited JSON,
//! and replay a trace into a fresh [`LustreFs`] to reproduce workloads
//! (including the short-lived files dumps cannot see).

use lustre_sim::{LustreError, LustreFs};
use sdci_types::{EventKind, FileEvent, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// One trace entry: the operation needed to reproduce an event.
///
/// Traces record *operations*, not raw events, so a replay regenerates
/// ChangeLog records (with fresh FIDs and indices) rather than forging
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time of the operation.
    pub time: SimTime,
    /// What happened.
    pub op: TraceOp,
    /// The affected path.
    pub path: PathBuf,
}

/// The operation kinds a trace can carry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Directory creation.
    Mkdir,
    /// File creation.
    Create,
    /// Content write of this many bytes.
    Write(u64),
    /// Attribute change to this mode.
    SetAttr(u32),
    /// File removal.
    Unlink,
    /// Directory removal.
    Rmdir,
    /// Rename to the given destination.
    Rename(PathBuf),
}

impl TraceRecord {
    /// Derives a trace record from a monitor event, when the event kind
    /// is reproducible (`Other` events are not).
    pub fn from_event(event: &FileEvent) -> Option<TraceRecord> {
        let op = match event.kind {
            EventKind::Created => {
                if event.is_dir {
                    TraceOp::Mkdir
                } else {
                    TraceOp::Create
                }
            }
            EventKind::Modified => TraceOp::Write(4096),
            EventKind::AttribChanged => TraceOp::SetAttr(0o644),
            EventKind::Deleted => {
                if event.is_dir {
                    TraceOp::Rmdir
                } else {
                    TraceOp::Unlink
                }
            }
            EventKind::Moved | EventKind::Other => return None,
        };
        Some(TraceRecord { time: event.time, op, path: event.path.to_path_buf() })
    }
}

/// Errors from reading or replaying traces.
#[derive(Debug)]
pub enum TraceError {
    /// I/O failure.
    Io(std::io::Error),
    /// A line was not valid JSON.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parse failure.
        source: serde_json::Error,
    },
    /// Replay hit a filesystem error (corrupt or reordered trace).
    Replay {
        /// The record that failed.
        record: Box<TraceRecord>,
        /// The underlying failure.
        source: LustreError,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, source } => {
                write!(f, "trace parse error at line {line}: {source}")
            }
            TraceError::Replay { record, source } => {
                write!(f, "replay failed on {:?}: {source}", record.path)
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse { source, .. } => Some(source),
            TraceError::Replay { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes trace records as newline-delimited JSON.
///
/// # Errors
///
/// [`TraceError::Io`] when the sink fails, or when a record's path is
/// not UTF-8, which JSON cannot spell.
///
/// # Example
///
/// ```
/// use sdci_workloads::trace::{read_trace, write_trace, TraceOp, TraceRecord};
/// use sdci_types::SimTime;
///
/// let records = vec![TraceRecord {
///     time: SimTime::from_secs(1),
///     op: TraceOp::Create,
///     path: "/a".into(),
/// }];
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &records)?;
/// assert_eq!(read_trace(&buf[..])?, records);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace(mut sink: impl Write, records: &[TraceRecord]) -> Result<(), TraceError> {
    for record in records {
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        sink.write_all(line.as_bytes())?;
        sink.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a newline-delimited JSON trace.
///
/// # Errors
///
/// [`TraceError::Parse`] on the first malformed line (with its line
/// number), [`TraceError::Io`] on read failures.
pub fn read_trace(source: impl BufRead) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = serde_json::from_str(&line)
            .map_err(|source| TraceError::Parse { line: i + 1, source })?;
        out.push(record);
    }
    Ok(out)
}

/// Replays a trace into a filesystem, creating missing parent
/// directories as needed. Returns how many operations were applied.
///
/// # Errors
///
/// [`TraceError::Replay`] on the first operation the filesystem rejects
/// (e.g. unlinking a file the trace never created).
pub fn replay_trace(lfs: &mut LustreFs, records: &[TraceRecord]) -> Result<u64, TraceError> {
    let mut applied = 0;
    for record in records {
        let result = match &record.op {
            TraceOp::Mkdir => lfs.mkdir_all(&record.path, record.time).map(|_| ()),
            TraceOp::Create => {
                let mkdirs = match record.path.parent() {
                    Some(parent) => lfs.mkdir_all(parent, record.time).map(|_| ()),
                    None => Ok(()),
                };
                mkdirs.and_then(|()| lfs.create(&record.path, record.time).map(|_| ()))
            }
            TraceOp::Write(bytes) => lfs.write(&record.path, *bytes, record.time),
            TraceOp::SetAttr(mode) => lfs.set_attr(&record.path, *mode, record.time),
            TraceOp::Unlink => lfs.unlink(&record.path, record.time),
            TraceOp::Rmdir => lfs.rmdir(&record.path, record.time),
            TraceOp::Rename(dest) => lfs.rename(&record.path, dest, record.time),
        };
        result.map_err(|source| TraceError::Replay { record: Box::new(record.clone()), source })?;
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lustre_sim::LustreConfig;
    use sdci_types::MdtIndex;

    fn rec(secs: u64, op: TraceOp, path: &str) -> TraceRecord {
        TraceRecord { time: SimTime::from_secs(secs), op, path: path.into() }
    }

    #[test]
    fn roundtrip_through_json_lines() {
        let records = vec![
            rec(0, TraceOp::Mkdir, "/d"),
            rec(1, TraceOp::Create, "/d/f"),
            rec(2, TraceOp::Write(100), "/d/f"),
            rec(3, TraceOp::Rename("/d/g".into()), "/d/f"),
            rec(4, TraceOp::Unlink, "/d/g"),
            rec(5, TraceOp::Rmdir, "/d"),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 6);
        assert_eq!(read_trace(&buf[..]).unwrap(), records);
    }

    #[test]
    fn read_reports_bad_line_number() {
        let text = "{\"time\":0,\"op\":\"Create\",\"path\":\"/a\"}\nnot json\n";
        match read_trace(text.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn replay_reproduces_namespace_and_events() {
        let records = vec![
            rec(0, TraceOp::Mkdir, "/proj"),
            rec(1, TraceOp::Create, "/proj/a"),
            rec(2, TraceOp::Write(512), "/proj/a"),
            rec(3, TraceOp::Create, "/proj/b"),
            rec(4, TraceOp::Unlink, "/proj/b"),
        ];
        let mut lfs = LustreFs::new(LustreConfig::aws_testbed());
        let applied = replay_trace(&mut lfs, &records).unwrap();
        assert_eq!(applied, 5);
        assert!(lfs.fs().exists("/proj/a"));
        assert!(!lfs.fs().exists("/proj/b"));
        assert_eq!(lfs.fs().stat("/proj/a").unwrap().size, 512);
        assert_eq!(lfs.total_events(), 5);
        // The short-lived file left UNLNK evidence in the ChangeLog —
        // exactly what dump diffing misses.
        let kinds: Vec<_> =
            lfs.changelog(MdtIndex::new(0)).read_from(0, 10).iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&sdci_types::ChangelogKind::Unlink));
    }

    #[test]
    fn replay_creates_missing_parents() {
        let records = vec![rec(0, TraceOp::Create, "/deep/nested/file")];
        let mut lfs = LustreFs::new(LustreConfig::aws_testbed());
        replay_trace(&mut lfs, &records).unwrap();
        assert!(lfs.fs().exists("/deep/nested/file"));
    }

    #[test]
    fn replay_fails_cleanly_on_corrupt_trace() {
        let records = vec![rec(0, TraceOp::Unlink, "/never-created")];
        let mut lfs = LustreFs::new(LustreConfig::aws_testbed());
        match replay_trace(&mut lfs, &records) {
            Err(TraceError::Replay { record, .. }) => {
                assert_eq!(record.path, PathBuf::from("/never-created"));
            }
            other => panic!("expected replay error, got {other:?}"),
        }
    }

    #[test]
    fn from_event_maps_kinds() {
        use sdci_types::{ChangelogKind, Fid, FileEvent};
        let mut event = FileEvent {
            index: 1,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(1),
            path: "/x".into(),
            src_path: None,
            target: Fid::ZERO,
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        };
        assert_eq!(TraceRecord::from_event(&event).unwrap().op, TraceOp::Create);
        event.is_dir = true;
        assert_eq!(TraceRecord::from_event(&event).unwrap().op, TraceOp::Mkdir);
        event.kind = EventKind::Deleted;
        assert_eq!(TraceRecord::from_event(&event).unwrap().op, TraceOp::Rmdir);
        event.kind = EventKind::Other;
        assert!(TraceRecord::from_event(&event).is_none());
    }
}
