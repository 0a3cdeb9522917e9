//! ChangeLog records and processed file events.
//!
//! The monitor pipeline transforms [`RawChangelogRecord`]s (FID-based rows
//! extracted from an MDT ChangeLog, §4 step 1) into [`FileEvent`]s
//! (path-resolved, consumer-friendly events, §4 step 2) which the
//! Aggregator stores and publishes (§4 step 3).

use crate::{EventPath, Fid, MdtIndex, SimTime, TraceCarrier, TraceContext};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The Lustre ChangeLog record type.
///
/// Codes and mnemonics match Lustre's `changelog_rec_type` as they appear
/// in `lfs changelog` output and in Table 1 of the paper (`01CREAT`,
/// `02MKDIR`, `06UNLNK`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants are the Lustre mnemonics, documented as a group
pub enum ChangelogKind {
    Mark,
    Create,
    Mkdir,
    HardLink,
    SoftLink,
    Mknod,
    Unlink,
    Rmdir,
    Rename,
    RenameTarget,
    Open,
    Close,
    Layout,
    Truncate,
    SetAttr,
    SetXattr,
    Hsm,
    MtimeChange,
    CtimeChange,
    AtimeChange,
    Migrate,
}

impl ChangelogKind {
    /// All record kinds, in Lustre code order.
    pub const ALL: [ChangelogKind; 21] = [
        ChangelogKind::Mark,
        ChangelogKind::Create,
        ChangelogKind::Mkdir,
        ChangelogKind::HardLink,
        ChangelogKind::SoftLink,
        ChangelogKind::Mknod,
        ChangelogKind::Unlink,
        ChangelogKind::Rmdir,
        ChangelogKind::Rename,
        ChangelogKind::RenameTarget,
        ChangelogKind::Open,
        ChangelogKind::Close,
        ChangelogKind::Layout,
        ChangelogKind::Truncate,
        ChangelogKind::SetAttr,
        ChangelogKind::SetXattr,
        ChangelogKind::Hsm,
        ChangelogKind::MtimeChange,
        ChangelogKind::CtimeChange,
        ChangelogKind::AtimeChange,
        ChangelogKind::Migrate,
    ];

    /// The numeric Lustre record-type code (`Create` = 1, `Unlink` = 6...).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The five-character Lustre mnemonic (`CREAT`, `UNLNK`, ...).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            ChangelogKind::Mark => "MARK",
            ChangelogKind::Create => "CREAT",
            ChangelogKind::Mkdir => "MKDIR",
            ChangelogKind::HardLink => "HLINK",
            ChangelogKind::SoftLink => "SLINK",
            ChangelogKind::Mknod => "MKNOD",
            ChangelogKind::Unlink => "UNLNK",
            ChangelogKind::Rmdir => "RMDIR",
            ChangelogKind::Rename => "RENME",
            ChangelogKind::RenameTarget => "RNMTO",
            ChangelogKind::Open => "OPEN",
            ChangelogKind::Close => "CLOSE",
            ChangelogKind::Layout => "LYOUT",
            ChangelogKind::Truncate => "TRUNC",
            ChangelogKind::SetAttr => "SATTR",
            ChangelogKind::SetXattr => "XATTR",
            ChangelogKind::Hsm => "HSM",
            ChangelogKind::MtimeChange => "MTIME",
            ChangelogKind::CtimeChange => "CTIME",
            ChangelogKind::AtimeChange => "ATIME",
            ChangelogKind::Migrate => "MIGRT",
        }
    }

    /// The `lfs changelog` type column: zero-padded code + mnemonic,
    /// e.g. `01CREAT`.
    pub fn type_column(self) -> String {
        format!("{:02}{}", self.code(), self.mnemonic())
    }

    /// Looks a kind up by its numeric code.
    pub fn from_code(code: u8) -> Option<ChangelogKind> {
        Self::ALL.get(code as usize).copied()
    }

    /// The high-level classification Ripple rules match against.
    pub const fn event_kind(self) -> EventKind {
        match self {
            ChangelogKind::Create
            | ChangelogKind::Mkdir
            | ChangelogKind::HardLink
            | ChangelogKind::SoftLink
            | ChangelogKind::Mknod => EventKind::Created,
            ChangelogKind::Unlink | ChangelogKind::Rmdir => EventKind::Deleted,
            ChangelogKind::Rename | ChangelogKind::RenameTarget => EventKind::Moved,
            ChangelogKind::Close
            | ChangelogKind::Layout
            | ChangelogKind::Truncate
            | ChangelogKind::MtimeChange
            | ChangelogKind::Migrate => EventKind::Modified,
            ChangelogKind::SetAttr
            | ChangelogKind::SetXattr
            | ChangelogKind::Hsm
            | ChangelogKind::CtimeChange
            | ChangelogKind::AtimeChange => EventKind::AttribChanged,
            ChangelogKind::Mark | ChangelogKind::Open => EventKind::Other,
        }
    }

    /// True for record kinds affecting directories.
    pub const fn is_directory_op(self) -> bool {
        matches!(self, ChangelogKind::Mkdir | ChangelogKind::Rmdir)
    }
}

impl fmt::Display for ChangelogKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// High-level file-event classification.
///
/// This is the vocabulary of Ripple triggers and of inotify-style
/// monitors (Watchdog reports created/modified/moved/deleted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A file, directory, or link came into existence.
    Created,
    /// File contents changed (writes observed via close/truncate/mtime).
    Modified,
    /// The object was renamed or moved.
    Moved,
    /// The object was removed.
    Deleted,
    /// Ownership, permissions, or extended attributes changed.
    AttribChanged,
    /// Anything else (opens, internal marks).
    Other,
}

impl EventKind {
    /// All high-level kinds.
    pub const ALL: [EventKind; 6] = [
        EventKind::Created,
        EventKind::Modified,
        EventKind::Moved,
        EventKind::Deleted,
        EventKind::AttribChanged,
        EventKind::Other,
    ];

    /// A stable numeric code (the kind's position in [`EventKind::ALL`]),
    /// used by the binary payload encoding.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Looks a kind up by its numeric code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        Self::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Created => "created",
            EventKind::Modified => "modified",
            EventKind::Moved => "moved",
            EventKind::Deleted => "deleted",
            EventKind::AttribChanged => "attrib",
            EventKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One row of an MDT ChangeLog, exactly as Table 1 presents it: record
/// number, type, timestamp/datestamp (both derived from [`SimTime`]),
/// flags, target FID, parent FID, and target name.
///
/// FIDs are "not useful to external services" (§4) — the monitor's
/// processing stage resolves them into a [`FileEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChangelogRecord {
    /// Record number: monotonically increasing per MDT ChangeLog.
    pub index: u64,
    /// Record type.
    pub kind: ChangelogKind,
    /// Event time (virtual).
    pub time: SimTime,
    /// Lustre record flags (e.g. `0x1` on the final unlink of a file).
    pub flags: u32,
    /// FID of the object the event applies to.
    pub target: Fid,
    /// FID of the parent directory.
    pub parent: Fid,
    /// Name of the target within the parent directory.
    pub name: String,
}

impl RawChangelogRecord {
    /// Renders the record as an `lfs changelog` text line, the format of
    /// Table 1:
    ///
    /// ```text
    /// 13106 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt
    /// ```
    pub fn to_lfs_line(&self) -> String {
        format!(
            "{} {} {} {} {:#x} t={} p={} {}",
            self.index,
            self.kind.type_column(),
            self.time.timestamp_string(),
            self.time.datestamp_string(),
            self.flags,
            self.target,
            self.parent,
            self.name
        )
    }

    /// Approximate in-memory/wire footprint in bytes, used by the
    /// resource-accounting model (Table 3).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.name.len()
    }
}

impl fmt::Display for RawChangelogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_lfs_line())
    }
}

/// A processed, path-resolved file event — what the Aggregator stores and
/// publishes to consumers such as Ripple agents.
///
/// An event has one serialised form, its [`crate::bin::BinPayload`]
/// member: on the wire and in a store node's snapshot files alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEvent {
    /// ChangeLog record number on the originating MDT.
    pub index: u64,
    /// Which MDT the event was recorded on.
    pub mdt: MdtIndex,
    /// Low-level record type.
    pub changelog_kind: ChangelogKind,
    /// High-level classification (derived from `changelog_kind`).
    pub kind: EventKind,
    /// Event time (virtual).
    pub time: SimTime,
    /// Absolute path of the affected object.
    pub path: EventPath,
    /// For renames: the absolute source path.
    pub src_path: Option<EventPath>,
    /// Target FID (kept for consumers that need stable identity).
    pub target: Fid,
    /// True when the event applies to a directory.
    pub is_dir: bool,
    /// Wall-clock nanoseconds since the UNIX epoch when the collector
    /// extracted the underlying changelog record. Travels with the
    /// event across process boundaries so downstream stages can compute
    /// end-to-end delivery latency (the paper's Fig. 5/6 metric).
    /// `None` for events that predate the field (e.g. old snapshot
    /// lines) or synthetic events built outside the extraction path.
    pub extracted_unix_ns: Option<u64>,
    /// Distributed-tracing context, attached at extraction when the
    /// event was head-sampled and re-parented at each recorded span so
    /// every hop links to the one before it. `None` (the overwhelmingly
    /// common case) is omitted from the serialized form entirely.
    pub trace: Option<TraceContext>,
}

impl FileEvent {
    /// Builds the processed event for `record`, given the resolved
    /// absolute path of its target.
    pub fn from_record(
        record: &RawChangelogRecord,
        mdt: MdtIndex,
        path: impl Into<EventPath>,
    ) -> FileEvent {
        FileEvent {
            index: record.index,
            mdt,
            changelog_kind: record.kind,
            kind: record.kind.event_kind(),
            time: record.time,
            path: path.into(),
            src_path: None,
            target: record.target,
            is_dir: record.kind.is_directory_op(),
            extracted_unix_ns: None,
            trace: None,
        }
    }

    /// Sets the extraction wall-clock stamp (builder style).
    pub fn with_extracted_unix_ns(mut self, ns: u64) -> FileEvent {
        self.extracted_unix_ns = Some(ns);
        self
    }

    /// Sets the tracing context (builder style).
    pub fn with_trace(mut self, ctx: TraceContext) -> FileEvent {
        self.trace = Some(ctx);
        self
    }

    /// The absolute path of the affected object.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Approximate in-memory/wire footprint in bytes, used by the
    /// resource-accounting model (Table 3).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.path.len()
            + self.src_path.as_ref().map_or(0, EventPath::len)
    }
}

impl fmt::Display for FileEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} mdt{} #{} {}",
            self.time,
            self.kind,
            self.mdt.as_u32(),
            self.index,
            self.path.display()
        )?;
        if let Some(src) = &self.src_path {
            write!(f, " (from {})", src.display())?;
        }
        Ok(())
    }
}

impl TraceCarrier for FileEvent {
    fn trace_context(&self) -> Option<TraceContext> {
        self.trace
    }
}

/// Member flags bit: `src_path` is present.
const FLAG_SRC_PATH: u8 = 1 << 0;
/// Member flags bit: `extracted_unix_ns` is present.
const FLAG_EXTRACTED: u8 = 1 << 1;
/// Member flags bit: `trace` is present.
const FLAG_TRACE: u8 = 1 << 2;
/// Member flags bit: the value of `is_dir`.
const FLAG_IS_DIR: u8 = 1 << 3;
/// Member flags bit: `mdt` is the predecessor's (MDT 0 for a first
/// member) and is not carried.
const FLAG_SAME_MDT: u8 = 1 << 4;
/// Member flags bit: `kind` is `changelog_kind.event_kind()` and is not
/// carried.
const FLAG_DERIVED_KIND: u8 = 1 << 5;
/// Every assigned flags bit; a member carrying any other is refused.
const FLAGS_KNOWN: u8 = (1 << 6) - 1;

/// Binary layout, relative to the previous member `p` of the same frame
/// (for a frame's first member: index 0, MDT 0, time 0, an empty path,
/// the zero FID, stamp 0). Varints, zig-zag deltas and front-coded
/// strings are the [`crate::bin`] primitives.
///
/// ```text
/// flags            u8      bit 0 src_path present    bit 3 is_dir
///                          bit 1 extracted present   bit 4 mdt = p.mdt
///                          bit 2 trace present       bit 5 kind = changelog_kind.event_kind()
///                          bits 6-7 must be zero
/// index            delta   against p.index
/// mdt              varint  only when bit 4 is clear
/// changelog_kind   u8      ChangelogKind::code
/// kind             u8      EventKind::code, only when bit 5 is clear
/// time             delta   against p.time (nanoseconds)
/// path             front-coded against p.path
/// src_path         front-coded against this member's own path (a rename
///                  usually stays in its directory), only when bit 0 is set
/// target           seq delta, oid delta, ver delta against p.target
/// extracted        delta against p.extracted_unix_ns (0 when p has none),
///                  only when bit 1 is set
/// trace            17 bytes (TraceContext), only when bit 2 is set
/// ```
///
/// Paths cross the wire as UTF-8: an [`EventPath`] is UTF-8 by
/// construction, a path that is not having
/// been converted lossily when the event was built.
impl crate::bin::BinPayload for FileEvent {
    fn encode_bin(&self, prev: Option<&Self>, buf: &mut Vec<u8>) {
        use crate::bin::{put_delta, put_front_coded, put_varint};
        let same_mdt = self.mdt == prev.map_or(MdtIndex::new(0), |p| p.mdt);
        let derived_kind = self.kind == self.changelog_kind.event_kind();
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        buf.push(
            flag(self.src_path.is_some(), FLAG_SRC_PATH)
                | flag(self.extracted_unix_ns.is_some(), FLAG_EXTRACTED)
                | flag(self.trace.is_some(), FLAG_TRACE)
                | flag(self.is_dir, FLAG_IS_DIR)
                | flag(same_mdt, FLAG_SAME_MDT)
                | flag(derived_kind, FLAG_DERIVED_KIND),
        );
        put_delta(buf, self.index, prev.map_or(0, |p| p.index));
        if !same_mdt {
            put_varint(buf, self.mdt.as_u32().into());
        }
        buf.push(self.changelog_kind.code());
        if !derived_kind {
            buf.push(self.kind.code());
        }
        put_delta(buf, self.time.as_nanos(), prev.map_or(0, |p| p.time.as_nanos()));
        let path = self.path.as_str().as_bytes();
        put_front_coded(buf, path, prev.map_or(&[], |p| p.path.as_str().as_bytes()));
        if let Some(src) = &self.src_path {
            put_front_coded(buf, src.as_str().as_bytes(), path);
        }
        let base = prev.map_or(Fid::ZERO, |p| p.target);
        put_delta(buf, self.target.seq, base.seq);
        put_delta(buf, self.target.oid.into(), base.oid.into());
        put_delta(buf, self.target.ver.into(), base.ver.into());
        if let Some(ns) = self.extracted_unix_ns {
            put_delta(buf, ns, prev.and_then(|p| p.extracted_unix_ns).unwrap_or(0));
        }
        if let Some(trace) = &self.trace {
            trace.encode_bin(None, buf);
        }
    }

    fn decode_bin(
        r: &mut crate::bin::BinReader<'_>,
        prev: Option<&Self>,
    ) -> Result<Self, crate::bin::BinDecodeError> {
        use crate::bin::BinDecodeError;
        let flags = r.u8()?;
        if flags & !FLAGS_KNOWN != 0 {
            return Err(BinDecodeError::msg(format!("unknown FileEvent flags {flags:#x}")));
        }
        let index = r.delta(prev.map_or(0, |p| p.index))?;
        let mdt = if flags & FLAG_SAME_MDT != 0 {
            prev.map_or(MdtIndex::new(0), |p| p.mdt)
        } else {
            MdtIndex::new(u32::try_from(r.varint()?).map_err(BinDecodeError::msg)?)
        };
        let code = r.u8()?;
        let changelog_kind = ChangelogKind::from_code(code)
            .ok_or_else(|| BinDecodeError::msg(format!("invalid ChangelogKind code {code}")))?;
        let kind = if flags & FLAG_DERIVED_KIND != 0 {
            changelog_kind.event_kind()
        } else {
            let code = r.u8()?;
            EventKind::from_code(code)
                .ok_or_else(|| BinDecodeError::msg(format!("invalid EventKind code {code}")))?
        };
        let time = SimTime::from_nanos(r.delta(prev.map_or(0, |p| p.time.as_nanos()))?);
        let path = r.front_coded(prev.map(|p| &p.path))?;
        let src_path =
            if flags & FLAG_SRC_PATH != 0 { Some(r.front_coded(Some(&path))?) } else { None };
        let base = prev.map_or(Fid::ZERO, |p| p.target);
        let target = Fid {
            seq: r.delta(base.seq)?,
            oid: r.delta_u32(base.oid)?,
            ver: r.delta_u32(base.ver)?,
        };
        let extracted_unix_ns = if flags & FLAG_EXTRACTED != 0 {
            Some(r.delta(prev.and_then(|p| p.extracted_unix_ns).unwrap_or(0))?)
        } else {
            None
        };
        let trace =
            if flags & FLAG_TRACE != 0 { Some(TraceContext::decode_bin(r, None)?) } else { None };
        Ok(FileEvent {
            index,
            mdt,
            changelog_kind,
            kind,
            time,
            path,
            src_path,
            target,
            is_dir: flags & FLAG_IS_DIR != 0,
            extracted_unix_ns,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::path::PathBuf;

    fn sample_record() -> RawChangelogRecord {
        RawChangelogRecord {
            index: 13106,
            kind: ChangelogKind::Create,
            time: SimTime::EPOCH
                + SimDuration::from_secs(20 * 3600 + 15 * 60 + 37)
                + SimDuration::from_millis(113)
                + SimDuration::from_micros(800),
            flags: 0x0,
            target: Fid::new(0x200000402, 0xa046, 0),
            parent: Fid::ROOT,
            name: "data1.txt".into(),
        }
    }

    #[test]
    fn type_column_matches_table1() {
        assert_eq!(ChangelogKind::Create.type_column(), "01CREAT");
        assert_eq!(ChangelogKind::Mkdir.type_column(), "02MKDIR");
        assert_eq!(ChangelogKind::Unlink.type_column(), "06UNLNK");
    }

    #[test]
    fn codes_are_lustre_codes() {
        assert_eq!(ChangelogKind::Mark.code(), 0);
        assert_eq!(ChangelogKind::Create.code(), 1);
        assert_eq!(ChangelogKind::Unlink.code(), 6);
        assert_eq!(ChangelogKind::Rename.code(), 8);
        assert_eq!(ChangelogKind::SetAttr.code(), 14);
        assert_eq!(ChangelogKind::Migrate.code(), 20);
    }

    #[test]
    fn from_code_roundtrips() {
        for kind in ChangelogKind::ALL {
            assert_eq!(ChangelogKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ChangelogKind::from_code(21), None);
    }

    #[test]
    fn lfs_line_matches_table1_row() {
        assert_eq!(
            sample_record().to_lfs_line(),
            "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 \
             t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt"
        );
    }

    #[test]
    fn event_kind_classification() {
        assert_eq!(ChangelogKind::Create.event_kind(), EventKind::Created);
        assert_eq!(ChangelogKind::Mkdir.event_kind(), EventKind::Created);
        assert_eq!(ChangelogKind::Unlink.event_kind(), EventKind::Deleted);
        assert_eq!(ChangelogKind::Rmdir.event_kind(), EventKind::Deleted);
        assert_eq!(ChangelogKind::Rename.event_kind(), EventKind::Moved);
        assert_eq!(ChangelogKind::Close.event_kind(), EventKind::Modified);
        assert_eq!(ChangelogKind::SetAttr.event_kind(), EventKind::AttribChanged);
    }

    #[test]
    fn file_event_from_record() {
        let rec = sample_record();
        let ev = FileEvent::from_record(&rec, MdtIndex::new(0), PathBuf::from("/data1.txt"));
        assert_eq!(ev.kind, EventKind::Created);
        assert_eq!(ev.index, rec.index);
        assert_eq!(ev.path(), Path::new("/data1.txt"));
        assert!(!ev.is_dir);
        assert!(ev.to_string().contains("/data1.txt"));
    }

    #[test]
    fn event_kind_codes_roundtrip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EventKind::from_code(6), None);
    }

    /// Encodes `ev` against `prev` and decodes it back against the same.
    fn recode(ev: &FileEvent, prev: Option<&FileEvent>) -> Vec<u8> {
        use crate::bin::{BinPayload, BinReader};
        let mut buf = Vec::new();
        ev.encode_bin(prev, &mut buf);
        let mut r = BinReader::new(&buf);
        let got = FileEvent::decode_bin(&mut r, prev).unwrap();
        assert!(r.is_empty());
        // The decoded paths are readable once their reader is gone.
        drop(r);
        assert_eq!(&got, ev);
        buf
    }

    #[test]
    fn binary_event_roundtrips_with_every_optional_field() {
        let rec = sample_record();
        let mut ev = FileEvent::from_record(&rec, MdtIndex::new(2), PathBuf::from("/a/b.txt"));
        ev.src_path = Some("/a/old.txt".into());
        ev = ev.with_extracted_unix_ns(123_456).with_trace(TraceContext::sampled(0xabc, 7));
        recode(&ev, None);
    }

    /// The successor of an event in the same directory, one record and a
    /// few microseconds later, costs its file name and a byte per field.
    #[test]
    fn binary_event_is_coded_against_its_predecessor() {
        let rec = sample_record();
        let prev = FileEvent::from_record(&rec, MdtIndex::new(2), PathBuf::from("/a/dir/one.txt"))
            .with_extracted_unix_ns(1_700_000_000_000_000_000);
        let mut next = prev.clone();
        next.index += 1;
        next.time = SimTime::from_nanos(prev.time.as_nanos() + 5_000);
        next.path = "/a/dir/two.txt".into();
        next.target.oid += 1;
        let buf = recode(&next, Some(&prev));
        // flags, index, changelog kind, time (2), shared, suffix length,
        // "two.txt", FID (3), stamp.
        assert_eq!(buf.len(), 1 + 1 + 1 + 2 + 1 + 1 + 7 + 3 + 1, "{buf:?}");
        assert_eq!(buf[0], FLAG_EXTRACTED | FLAG_SAME_MDT | FLAG_DERIVED_KIND);

        // Every field may also differ from its predecessor, in either
        // direction, and a first member is coded against zeros.
        let mut other = next.clone();
        other.index = 3;
        other.mdt = MdtIndex::new(7);
        other.kind = EventKind::Other;
        other.time = SimTime::from_nanos(1);
        other.path = "/é".into();
        other.src_path = Some("/è".into());
        other.target = Fid::new(1, u32::MAX, 9);
        other.is_dir = true;
        other.extracted_unix_ns = None;
        recode(&other, Some(&next));
        recode(&next, Some(&other));
        recode(&other, None);
    }

    /// A path that is not UTF-8 is sent lossily, and its successor's
    /// shared prefix is counted against the lossy form the peer holds:
    /// `\xc3(` is a lead byte without its continuation, and `é` starts
    /// with the same lead byte.
    #[cfg(unix)]
    #[test]
    fn a_non_utf8_path_travels_lossily_and_its_successor_still_decodes() {
        use crate::bin::{BinPayload, BinReader};
        use std::os::unix::ffi::OsStrExt;
        let mut first = FileEvent::from_record(&sample_record(), MdtIndex::new(0), "/");
        first.path = PathBuf::from(std::ffi::OsStr::from_bytes(b"/d/\xc3(/x")).into();
        let mut second = first.clone();
        second.path = "/d/é/y".into();

        let mut buf = Vec::new();
        first.encode_bin(None, &mut buf);
        let got_first = FileEvent::decode_bin(&mut BinReader::new(&buf), None).unwrap();
        assert_eq!(got_first.path, PathBuf::from("/d/\u{fffd}(/x"));

        buf.clear();
        second.encode_bin(Some(&first), &mut buf);
        // flags, index, record kind and time are a byte each: the shared length is byte 4.
        assert_eq!(buf[4], 3, "only `/d/` is shared with what the peer decoded");
        let got_second = FileEvent::decode_bin(&mut BinReader::new(&buf), Some(&got_first));
        assert_eq!(got_second.unwrap(), second);
    }

    /// The lossy conversion happens once, where the event is built, and
    /// the members are byte-for-byte what the commit before `EventPath`
    /// — which converted at every encode — put on the wire (printed by
    /// that commit's encoder for these two events).
    #[cfg(unix)]
    #[test]
    fn a_non_utf8_path_buf_makes_the_frame_it_always_made() {
        use crate::bin::BinPayload;
        use std::os::unix::ffi::OsStrExt;
        let raw = |bytes: &[u8]| PathBuf::from(std::ffi::OsStr::from_bytes(bytes));
        let first = FileEvent {
            index: 101,
            mdt: MdtIndex::new(1),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_nanos(1_000_000_007),
            path: raw(b"/d/\xc3(/x").into(),
            src_path: Some(raw(b"/d/\xff/x").into()),
            target: Fid::new(0x2_0000_0402, 0xa001, 0),
            is_dir: false,
            extracted_unix_ns: Some(1_790_000_000_000_000_001),
            trace: None,
        };
        let second = FileEvent { path: "/d/é/y".into(), src_path: None, ..first.clone() };
        let mut buf = Vec::new();
        first.encode_bin(None, &mut buf);
        assert_eq!(
            buf,
            [
                35, 202, 1, 1, 1, 142, 168, 214, 185, 7, 0, 9, 47, 100, 47, 239, 191, 189, 40, 47,
                120, 6, 2, 47, 120, 132, 144, 128, 128, 64, 130, 128, 5, 0, 130, 128, 152, 191,
                132, 225, 173, 215, 49
            ]
        );
        buf.clear();
        second.encode_bin(Some(&first), &mut buf);
        assert_eq!(buf, [50, 0, 1, 0, 3, 4, 195, 169, 47, 121, 0, 0, 0, 0]);
    }

    #[test]
    fn binary_event_rejects_invalid_codes_flags_and_deltas() {
        use crate::bin::{BinPayload, BinReader};
        let mut ev = FileEvent::from_record(&sample_record(), MdtIndex::new(0), "/x");
        ev.index = 1;
        ev.time = SimTime::from_nanos(1);
        let buf = recode(&ev, None);
        let rejected = |bytes: &[u8], prev: Option<&FileEvent>| {
            FileEvent::decode_bin(&mut BinReader::new(bytes), prev).is_err()
        };
        // Byte 2 is the ChangelogKind code (after flags and a one-byte index
        // delta); a one-byte time delta puts the path at byte 4.
        let mut bad = buf.clone();
        bad[2] = 99;
        assert!(rejected(&bad, None));
        // An explicit EventKind code is validated too.
        let mut odd = ev.clone();
        odd.kind = EventKind::Other;
        let mut bad = recode(&odd, None);
        assert_eq!(bad[3], EventKind::Other.code());
        bad[3] = 6;
        assert!(rejected(&bad, None));
        // Unassigned flags bits.
        for bit in [1 << 6, 1 << 7] {
            let mut bad = buf.clone();
            bad[0] |= bit;
            assert!(rejected(&bad, None));
        }
        // A first member cannot share a prefix with anything.
        let mut bad = buf.clone();
        assert_eq!(bad[4..8], [0, 2, b'/', b'x']);
        bad[4] = 1;
        assert!(rejected(&bad, None));
        // An object id stepping below zero: `ev` coded against a larger
        // oid, decoded against a smaller one.
        let mut big = ev.clone();
        big.target.oid = ev.target.oid + 10;
        let mut coded = Vec::new();
        ev.encode_bin(Some(&big), &mut coded);
        let mut small = ev.clone();
        small.target.oid = 3;
        assert!(rejected(&coded, Some(&small)));
        // Every truncation of a valid member is an error, not a panic.
        for cut in 0..buf.len() {
            assert!(rejected(&buf[..cut], None), "accepted {cut} of {} bytes", buf.len());
        }
    }

    #[test]
    fn footprints_are_positive_and_grow_with_names() {
        let mut rec = sample_record();
        let small = rec.footprint_bytes();
        rec.name = "x".repeat(100);
        assert!(rec.footprint_bytes() > small);
    }
}
