//! ChangeLog records and processed file events.
//!
//! The monitor pipeline transforms [`RawChangelogRecord`]s (FID-based rows
//! extracted from an MDT ChangeLog, §4 step 1) into [`FileEvent`]s
//! (path-resolved, consumer-friendly events, §4 step 2) which the
//! Aggregator stores and publishes (§4 step 3).

use crate::bin::{BinDecodeError, BinReader, SeqEncoder};
use crate::{EventPath, Fid, MdtIndex, SimTime, TraceContext};
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
/// Member flags bit: the path is front-coded against an earlier member's
/// — a back-distance precedes it — instead of the predecessor's.
const FLAG_PATH_REF: u8 = 1 << 6;
/// Member flags bit: `index` is the predecessor's plus one and is not
/// carried.
const FLAG_NEXT_INDEX: u8 = 1 << 7;

/// The record-type byte's low bits: the [`ChangelogKind`] code (0..=20).
const KIND_CODE: u8 = (1 << 5) - 1;
/// Record-type byte bit: `target.seq` and `target.ver` are the
/// predecessor's; only the `oid` delta is carried.
const KIND_SAME_FID_HOME: u8 = 1 << 5;
/// Record-type byte bit: `extracted_unix_ns` is the predecessor's and is
/// not carried.
const KIND_SAME_EXTRACTED: u8 = 1 << 6;
/// Record-type byte bit: unassigned; a member carrying it is refused.
const KIND_RESERVED: u8 = 1 << 7;

/// The parent directory of `path`, trailing slash included, when naming
/// it again could pay for a path reference: `None` for a path with no
/// directory but the root.
fn parent_dir(path: &[u8]) -> Option<&[u8]> {
    let slash = path.iter().rposition(|b| *b == b'/')?;
    (slash > 0).then(|| &path[..=slash])
}

/// The member codec. A member is coded among the earlier members of its
/// sequence, which need not be events themselves: `event_of` says which
/// event, if any, one of them holds (the identity for a sequence of
/// events; a feed's heartbeat holds none). The **predecessor** `p` is the
/// event of the member right before this one — none for a first member
/// and for one that follows a member without an event, which are coded
/// against index 0, MDT 0, time 0, an empty path, the zero FID and stamp
/// 0, and may claim nothing "same as the predecessor's". Varints,
/// zig-zag deltas and front-coded strings are the [`crate::bin`]
/// primitives.
///
/// ```text
/// flags            u8      bit 0 src_path present    bit 4 mdt = p.mdt
///                          bit 1 extracted present   bit 5 kind = changelog_kind.event_kind()
///                          bit 2 trace present       bit 6 path base is an earlier member
///                          bit 3 is_dir              bit 7 index = p.index + 1
/// index            delta   against p.index, only when bit 7 is clear
/// mdt              varint  only when bit 4 is clear
/// changelog_kind   u8      bits 0-4 ChangelogKind::code
///                          bit 5 target.seq and target.ver = p's
///                          bit 6 extracted = p's     bit 7 must be zero
/// kind             u8      EventKind::code, only when flags bit 5 is clear
/// time             delta   against p.time (nanoseconds)
/// path base        varint  k >= 2: the base is the path of the member k before
///                          this one; only when flags bit 6 is set — the base is
///                          p.path otherwise
/// path             front-coded against its base
/// src_path         front-coded against this member's own path (a rename
///                  usually stays in its directory), only when bit 0 is set
/// target           seq delta, oid delta, ver delta against p.target; the oid
///                  delta alone when record-type bit 5 is set
/// extracted        delta against p.extracted_unix_ns (0 when p has none), only
///                  when flags bit 1 is set and record-type bit 6 is clear
/// trace            17 bytes (TraceContext), only when bit 2 is set
/// ```
///
/// A member that sets none of flags bits 6-7 and record-type bits 5-7 is
/// a wire-version-7 member, byte for byte, and decodes as it always did:
/// that is why "index = p.index + 1" sits in the flags byte — the index
/// field precedes the record-type byte, and a reader must know whether
/// to expect it.
///
/// No length travels with a member (since wire version 14): the flags
/// and record-type bits say which fields follow, the decoder reads those
/// and stops, and the next member starts where it stopped.
///
/// These are the raw bytes; a coded frame carries each as its codeword
/// under the code of its field class ([`crate::bin::Class`]): flags is
/// the flags class; the record-type and kind bytes the kind class; time,
/// the path base and the oid delta their own; a front-coded string's
/// shared length, suffix count and suffix bytes the shared-length,
/// carried-length and path classes; index, mdt, the FID's seq and ver,
/// extracted and trace the other class. The encoder takes the path base that costs fewer raw
/// bytes: the predecessor, or the latest earlier member in the same
/// parent directory (the [`SeqEncoder`]'s table). The decoder follows
/// whatever reference it is given, within the sequence: a back-distance
/// of 0 or 1, one past the first member, or one naming a member without
/// an event is refused.
///
/// Paths cross the wire as UTF-8: an [`EventPath`] is UTF-8 by
/// construction, a path that is not UTF-8 having been converted lossily
/// when the event was built.
impl FileEvent {
    /// Appends this event as a member of the sequence that so far holds
    /// `earlier`.
    pub fn encode_among<'a, T>(
        &self,
        earlier: &'a [T],
        event_of: impl Fn(&'a T) -> Option<&'a FileEvent>,
        seq: &mut SeqEncoder,
        buf: &mut Vec<u8>,
    ) {
        match earlier.last() {
            Some(member) => self.encode_after(event_of(member), earlier, event_of, seq, buf),
            // A continuing frame's first member follows the last one its
            // connection carried.
            None => {
                let last = seq.continued().and_then(crate::bin::History::last).cloned();
                self.encode_after(last.as_ref(), earlier, event_of, seq, buf);
            }
        }
    }

    /// [`FileEvent::encode_among`] once the predecessor `prev` is known:
    /// handed in, so that the member's fields are read through a
    /// reference the writes to `buf` and `seq` cannot touch.
    fn encode_after<'a, T>(
        &self,
        prev: Option<&FileEvent>,
        earlier: &'a [T],
        event_of: impl Fn(&'a T) -> Option<&'a FileEvent>,
        seq: &mut SeqEncoder,
        buf: &mut Vec<u8>,
    ) {
        use crate::bin::{common_prefix, front_coded_len, varint_len, Class};
        let same_mdt = self.mdt == prev.map_or(MdtIndex::new(0), |p| p.mdt);
        let derived_kind = self.kind == self.changelog_kind.event_kind();
        let next_index = prev.is_some_and(|p| self.index == p.index.wrapping_add(1));
        let same_fid_home = prev
            .is_some_and(|p| (self.target.seq, self.target.ver) == (p.target.seq, p.target.ver));
        let same_extracted = self.extracted_unix_ns.is_some()
            && prev.is_some_and(|p| p.extracted_unix_ns == self.extracted_unix_ns);

        // The path base: the predecessor, unless the latest earlier member
        // of this directory — in this frame, or one the connection's last
        // frames carried — is a cheaper one, back-distance included.
        let path = self.path.as_str().as_bytes();
        let shared_with = |base: &str| common_prefix(path, base.as_bytes());
        let mut shared = prev.map_or(0, |p| shared_with(p.path.as_str()));
        let mut back = None;
        let (index, position) = (earlier.len(), seq.position(earlier.len()));
        let latest = parent_dir(path).and_then(|dir| seq.dirs.replace(dir, position));
        // One back is the predecessor itself, already counted.
        let reference = latest.filter(|&distance| distance >= 2).and_then(|distance| {
            let base = match index.checked_sub(distance) {
                Some(at) => event_of(&earlier[at]).map(|event| event.path.as_str()),
                None => seq.continued()?.path_back(distance - index).map(|path| path.as_str()),
            };
            Some((distance, shared_with(base?)))
        });
        if let Some((distance, via_ref)) = reference {
            let cost = varint_len(distance as u64) + front_coded_len(path.len(), via_ref);
            if cost < front_coded_len(path.len(), shared) {
                (shared, back) = (via_ref, Some(distance));
            }
        }

        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let flags = flag(self.src_path.is_some(), FLAG_SRC_PATH)
            | flag(self.extracted_unix_ns.is_some(), FLAG_EXTRACTED)
            | flag(self.trace.is_some(), FLAG_TRACE)
            | flag(self.is_dir, FLAG_IS_DIR)
            | flag(same_mdt, FLAG_SAME_MDT)
            | flag(derived_kind, FLAG_DERIVED_KIND)
            | flag(back.is_some(), FLAG_PATH_REF)
            | flag(next_index, FLAG_NEXT_INDEX);
        seq.byte(buf, Class::Flags, flags);
        if !next_index {
            seq.delta(buf, Class::Other, self.index, prev.map_or(0, |p| p.index));
        }
        if !same_mdt {
            seq.varint(buf, Class::Other, self.mdt.as_u32().into());
        }
        let kind_byte = self.changelog_kind.code()
            | flag(same_fid_home, KIND_SAME_FID_HOME)
            | flag(same_extracted, KIND_SAME_EXTRACTED);
        seq.byte(buf, Class::Kind, kind_byte);
        if !derived_kind {
            seq.byte(buf, Class::Kind, self.kind.code());
        }
        let prev_time = prev.map_or(0, |p| p.time.as_nanos());
        seq.delta(buf, Class::Time, self.time.as_nanos(), prev_time);
        if let Some(distance) = back {
            seq.varint(buf, Class::Back, distance as u64);
        }
        seq.put_front_coded(buf, path, shared);
        if let Some(src) = &self.src_path {
            let src = src.as_str().as_bytes();
            seq.put_front_coded(buf, src, common_prefix(src, path));
        }
        let base = prev.map_or(Fid::ZERO, |p| p.target);
        if !same_fid_home {
            seq.delta(buf, Class::Other, self.target.seq, base.seq);
        }
        seq.delta(buf, Class::Oid, self.target.oid.into(), base.oid.into());
        if !same_fid_home {
            seq.delta(buf, Class::Other, self.target.ver.into(), base.ver.into());
        }
        if let (Some(ns), false) = (self.extracted_unix_ns, same_extracted) {
            let prev_ns = prev.and_then(|p| p.extracted_unix_ns).unwrap_or(0);
            seq.delta(buf, Class::Other, ns, prev_ns);
        }
        if let Some(trace) = &self.trace {
            seq.trace(buf, trace);
        }
    }

    /// Decodes one member of the sequence that so far holds `earlier` —
    /// the inverse of [`FileEvent::encode_among`].
    ///
    /// # Errors
    ///
    /// Returns [`BinDecodeError`] on truncated fields, invalid codes, an
    /// unassigned bit, a "same as the predecessor's" bit on a member
    /// without a predecessor, a path reference that does not name an
    /// earlier event of the sequence, malformed varints, deltas or prefix
    /// lengths, and paths that are too long or not UTF-8.
    pub fn decode_among<'a, T>(
        r: &mut BinReader<'_>,
        earlier: &'a [T],
        event_of: impl Fn(&'a T) -> Option<&'a FileEvent>,
    ) -> Result<FileEvent, BinDecodeError> {
        use crate::bin::{Class, History, HISTORY_MEMBERS};
        let history = r.history();
        let prev = match earlier.last() {
            Some(member) => event_of(member),
            None => history.and_then(History::last),
        };
        let flags = r.u8(Class::Flags)?;
        let index = if flags & FLAG_NEXT_INDEX != 0 {
            same_as(prev, "index")?.index.wrapping_add(1)
        } else {
            r.delta(Class::Other, prev.map_or(0, |p| p.index))?
        };
        let mdt = if flags & FLAG_SAME_MDT != 0 {
            prev.map_or(MdtIndex::new(0), |p| p.mdt)
        } else {
            MdtIndex::new(u32::try_from(r.varint(Class::Other)?).map_err(BinDecodeError::msg)?)
        };
        let kind_byte = r.u8(Class::Kind)?;
        if kind_byte & KIND_RESERVED != 0 {
            return Err(BinDecodeError::msg(format!("unknown record-type bits {kind_byte:#x}")));
        }
        let code = kind_byte & KIND_CODE;
        let changelog_kind = ChangelogKind::from_code(code)
            .ok_or_else(|| BinDecodeError::msg(format!("invalid ChangelogKind code {code}")))?;
        let kind = if flags & FLAG_DERIVED_KIND != 0 {
            changelog_kind.event_kind()
        } else {
            let code = r.u8(Class::Kind)?;
            EventKind::from_code(code)
                .ok_or_else(|| BinDecodeError::msg(format!("invalid EventKind code {code}")))?
        };
        let time =
            SimTime::from_nanos(r.delta(Class::Time, prev.map_or(0, |p| p.time.as_nanos()))?);
        let base = if flags & FLAG_PATH_REF != 0 {
            let (back, index) = (r.length(Class::Back)?, earlier.len());
            let base = match ((back >= 2).then(|| index.checked_sub(back)), history) {
                (Some(Some(at)), _) => event_of(&earlier[at]).map(|event| event.path.view()),
                // Past this frame's first member: into the history of a
                // frame that continues its connection, as far as it holds.
                (Some(None), Some(history)) => {
                    let before = back - index;
                    if before > HISTORY_MEMBERS {
                        return Err(BinDecodeError::msg(format!(
                            "path reference {back} back from member {index} reaches past the \
                             {HISTORY_MEMBERS}-member history window"
                        )));
                    }
                    if before > history.held() {
                        return Err(BinDecodeError::msg(format!(
                            "path reference {back} back from member {index} reaches past the {} \
                             members its connection's history holds",
                            history.held()
                        )));
                    }
                    history.path_back(before)
                }
                _ => None,
            };
            let Some(base) = base else {
                return Err(BinDecodeError::msg(format!(
                    "path reference {back} back from member {index} names no earlier event"
                )));
            };
            Some(base)
        } else {
            prev.map(|p| p.path.view())
        };
        let path = r.front_coded(base)?;
        let src_path =
            if flags & FLAG_SRC_PATH != 0 { Some(r.front_coded(Some(path.view()))?) } else { None };
        let target = if kind_byte & KIND_SAME_FID_HOME != 0 {
            let home = same_as(prev, "FID sequence")?.target;
            Fid { oid: r.delta_u32(Class::Oid, home.oid)?, ..home }
        } else {
            let base = prev.map_or(Fid::ZERO, |p| p.target);
            Fid {
                seq: r.delta(Class::Other, base.seq)?,
                oid: r.delta_u32(Class::Oid, base.oid)?,
                ver: r.delta_u32(Class::Other, base.ver)?,
            }
        };
        let extracted_unix_ns = match (flags & FLAG_EXTRACTED != 0, kind_byte & KIND_SAME_EXTRACTED)
        {
            (true, 0) => {
                Some(r.delta(Class::Other, prev.and_then(|p| p.extracted_unix_ns).unwrap_or(0))?)
            }
            (true, _) => match same_as(prev, "extraction stamp")?.extracted_unix_ns {
                Some(ns) => Some(ns),
                None => return Err(BinDecodeError::msg("no extraction stamp to be the same as")),
            },
            (false, 0) => None,
            (false, _) => return Err(BinDecodeError::msg("an absent extraction stamp is 'same'")),
        };
        let trace = if flags & FLAG_TRACE != 0 { Some(r.trace()?) } else { None };
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

/// The predecessor a "same as the predecessor's" bit refers to.
fn same_as<'a>(prev: Option<&'a FileEvent>, field: &str) -> Result<&'a FileEvent, BinDecodeError> {
    prev.ok_or_else(|| BinDecodeError::msg(format!("{field} of a predecessor that is not there")))
}

/// An event among events: every earlier member is one.
impl crate::bin::BinPayload for FileEvent {
    fn encode_bin(&self, earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        self.encode_among(earlier, Some, seq, buf);
    }

    fn decode_bin(r: &mut BinReader<'_>, earlier: &[Self]) -> Result<Self, BinDecodeError> {
        FileEvent::decode_among(r, earlier, Some)
    }

    fn event(&self) -> Option<&FileEvent> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathStaging, SimDuration};
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

    /// Encodes `ev` as the next member after `earlier`, with a table that
    /// has seen none of them, so the predecessor is its only path base.
    fn encode(ev: &FileEvent, earlier: &[FileEvent]) -> Vec<u8> {
        use crate::bin::BinPayload;
        let mut buf = Vec::new();
        ev.encode_bin(earlier, &mut SeqEncoder::new(), &mut buf);
        buf
    }

    fn decode(bytes: &[u8], earlier: &[FileEvent]) -> Result<FileEvent, BinDecodeError> {
        use crate::bin::BinPayload;
        let mut r = BinReader::new(bytes);
        // The decoded paths are readable once their reader has sealed them.
        let got =
            r.read_staged(&mut PathStaging::default(), |r| FileEvent::decode_bin(r, earlier))?;
        assert!(r.is_empty(), "decoder must consume exactly the encoding");
        Ok(got)
    }

    /// Encodes `ev` after `earlier` and decodes it back after the same.
    fn recode(ev: &FileEvent, earlier: &[FileEvent]) -> Vec<u8> {
        let buf = encode(ev, earlier);
        assert_eq!(&decode(&buf, earlier).unwrap(), ev);
        buf
    }

    #[test]
    fn binary_event_roundtrips_with_every_optional_field() {
        let rec = sample_record();
        let mut ev = FileEvent::from_record(&rec, MdtIndex::new(2), PathBuf::from("/a/b.txt"));
        ev.src_path = Some("/a/old.txt".into());
        ev = ev.with_extracted_unix_ns(123_456).with_trace(TraceContext::sampled(0xabc, 7));
        recode(&ev, &[]);
    }

    /// The successor of an event in the same directory, one record and a
    /// few microseconds later, costs its file name, its time and object
    /// id, and two bytes of bits: the record number, the FID's sequence
    /// and version and the extraction stamp are all "the predecessor's".
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
        let buf = recode(&next, std::slice::from_ref(&prev));
        // flags, record type, time (2), shared, suffix length, "two.txt",
        // object id.
        assert_eq!(buf.len(), 1 + 1 + 2 + 1 + 1 + 7 + 1, "{buf:?}");
        assert_eq!(buf[0], FLAG_EXTRACTED | FLAG_SAME_MDT | FLAG_DERIVED_KIND | FLAG_NEXT_INDEX);
        assert_eq!(buf[1], ChangelogKind::Create.code() | KIND_SAME_FID_HOME | KIND_SAME_EXTRACTED);

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
        recode(&other, std::slice::from_ref(&next));
        recode(&next, std::slice::from_ref(&other));
        recode(&other, &[]);
        // The record number wraps like every other counter.
        let mut last = next.clone();
        last.index = u64::MAX;
        next.index = 0;
        assert_eq!(recode(&next, &[last])[0] & FLAG_NEXT_INDEX, FLAG_NEXT_INDEX);
    }

    /// Records interleaving over two directories: from its second visit
    /// on, a directory's member names the previous visit, two or more
    /// members back, and carries only its file name; a neighbour in the
    /// same directory is still coded against the predecessor.
    #[test]
    fn a_path_is_coded_against_the_latest_member_of_its_directory() {
        use crate::bin::{put_member, put_members, read_members};
        let rec = sample_record();
        let paths = [
            "/top/alpha/f1",
            "/top/beta-longer/f2",
            "/top/alpha/f3",
            "/top/beta-longer/f4",
            "/top/beta-longer/f5",
            "/top/alpha/f6",
            "/f7",
        ];
        let events: Vec<FileEvent> = (0u64..)
            .zip(paths)
            .map(|(i, path)| {
                let mut ev = FileEvent::from_record(&rec, MdtIndex::new(0), path);
                ev.index += i;
                ev
            })
            .collect();
        let mut buf = Vec::new();
        put_members(&mut buf, &events);
        let mut r = BinReader::new(&buf);
        let got: Vec<FileEvent> = r.read_staged(&mut PathStaging::default(), read_members).unwrap();
        assert!(r.is_empty());
        assert_eq!(got, events);

        // The sequence is the count, then the members back to back.
        let mut seq = SeqEncoder::new();
        let members: Vec<Vec<u8>> = (0..events.len())
            .map(|i| {
                let mut member = Vec::new();
                put_member(&mut member, &events[i], &events[..i], &mut seq);
                member
            })
            .collect();
        assert_eq!(buf, [&[events.len() as u8][..], &members.concat()].concat());
        // After a first member: flags, record type, a one-byte time.
        let bases: Vec<_> =
            members.iter().map(|m| (m[0] & FLAG_PATH_REF != 0).then(|| m[3])).collect();
        assert_eq!(bases, [None, None, Some(2), Some(2), None, Some(3), None]);
        // `/top/alpha/f3` after `/top/beta-longer/f2`, two back to
        // `/top/alpha/f1`: distance, 12 shared, a one-byte suffix.
        assert_eq!(members[2][3..7], [2, 12, 1, b'3']);
    }

    /// A frame's sequence goes out coded when that is smaller: the class
    /// mask and tables land where the frame asks (here after a one-byte
    /// header), a reader that has read them decodes the same events, and
    /// the coded bytes are fewer. Sequences no code shrinks — one member,
    /// or none — are the raw sequence byte for byte.
    #[test]
    fn a_sequence_goes_out_coded_when_that_is_smaller() {
        use crate::bin::{code_members, put_member, put_members, read_members, Class};
        // What a frame's packer does: each member raw and tagged, then the
        // cost choice.
        let code_sequence = |buf: &mut Vec<u8>, table_at: usize, events: &[FileEvent]| {
            let (mut seq, mut section) = (SeqEncoder::for_coding(), Vec::new());
            for (i, event) in events.iter().enumerate() {
                put_member(&mut section, event, &events[..i], &mut seq);
            }
            code_members(buf, table_at, events.len(), &section, &mut seq)
        };
        let rec = sample_record();
        let events: Vec<FileEvent> = (0..40u64)
            .map(|i| {
                let path = format!("/top/d{}/f{:08x}", i % 4, i * 0x9e37_79b9);
                let mut ev = FileEvent::from_record(&rec, MdtIndex::new(0), path);
                ev.index += i;
                ev.src_path = (i % 5 == 0).then(|| format!("/top/d0/old{i}").into());
                ev
            })
            .collect();
        let mut raw = vec![0xaa];
        put_members(&mut raw, &events);
        let mut coded = vec![0xaa];
        let mask = code_sequence(&mut coded, 1, &events);
        for class in [Class::Path, Class::Flags, Class::Time, Class::Shared, Class::Carried] {
            assert_ne!(mask & class.bit(), 0, "{class} in {mask:#x}");
        }
        assert!(coded.len() < raw.len(), "{} coded bytes, {} raw", coded.len(), raw.len());
        let mut r = BinReader::new(&coded);
        assert_eq!(r.u8(Class::Other).unwrap(), 0xaa);
        r.read_codes().unwrap();
        let got: Vec<FileEvent> = r.read_staged(&mut PathStaging::default(), read_members).unwrap();
        assert!(r.is_empty());
        assert_eq!(got, events);

        for few in [&events[1..2], &[]] {
            let (mut raw, mut coded) = (vec![0xaa], vec![0xaa]);
            put_members(&mut raw, few);
            assert_eq!(code_sequence(&mut coded, 1, few), 0, "{} members", few.len());
            assert_eq!(coded, raw);
        }
    }

    /// A path that is not UTF-8 is sent lossily, and its successor's
    /// shared prefix is counted against the lossy form the peer holds:
    /// `\xc3(` is a lead byte without its continuation, and `é` starts
    /// with the same lead byte.
    #[cfg(unix)]
    #[test]
    fn a_non_utf8_path_travels_lossily_and_its_successor_still_decodes() {
        use std::os::unix::ffi::OsStrExt;
        let mut first = FileEvent::from_record(&sample_record(), MdtIndex::new(0), "/");
        first.path = PathBuf::from(std::ffi::OsStr::from_bytes(b"/d/\xc3(/x")).into();
        let mut second = first.clone();
        second.path = "/d/é/y".into();

        let got_first = decode(&encode(&first, &[]), &[]).unwrap();
        assert_eq!(got_first.path, PathBuf::from("/d/\u{fffd}(/x"));

        let buf = encode(&second, std::slice::from_ref(&first));
        // flags, index, record kind and time are a byte each: the shared length is byte 4.
        assert_eq!(buf[4], 3, "only `/d/` is shared with what the peer decoded");
        assert_eq!(decode(&buf, &[got_first]).unwrap(), second);
    }

    /// The lossy conversion happens once, where the event is built, and a
    /// first member is byte-for-byte what the commit before `EventPath`
    /// — which converted at every encode — put on the wire (printed by
    /// that commit's encoder for these two events). Its successor's
    /// bytes from that commit, wire version 7, set none of the bits
    /// version 8 added and still decode to the same event; version 8
    /// says "same FID sequence, version and stamp" in the record-type
    /// byte and drops those three fields.
    #[cfg(unix)]
    #[test]
    fn a_non_utf8_path_buf_makes_the_frame_it_always_made() {
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
        assert_eq!(
            encode(&first, &[]),
            [
                35, 202, 1, 1, 1, 142, 168, 214, 185, 7, 0, 9, 47, 100, 47, 239, 191, 189, 40, 47,
                120, 6, 2, 47, 120, 132, 144, 128, 128, 64, 130, 128, 5, 0, 130, 128, 152, 191,
                132, 225, 173, 215, 49
            ]
        );
        let earlier = std::slice::from_ref(&first);
        let v7 = [50, 0, 1, 0, 3, 4, 195, 169, 47, 121, 0, 0, 0, 0];
        assert_eq!(decode(&v7, earlier).unwrap(), second);
        let same = KIND_SAME_FID_HOME | KIND_SAME_EXTRACTED;
        assert_eq!(encode(&second, earlier), [50, 0, 1 | same, 0, 3, 4, 195, 169, 47, 121, 0]);
    }

    #[test]
    fn binary_event_rejects_invalid_codes_flags_and_deltas() {
        let mut ev = FileEvent::from_record(&sample_record(), MdtIndex::new(0), "/x");
        ev.index = 1;
        ev.time = SimTime::from_nanos(1);
        ev.extracted_unix_ns = Some(5);
        let buf = recode(&ev, &[]);
        let rejected = |bytes: &[u8], earlier: &[FileEvent]| decode(bytes, earlier).is_err();
        // Byte 2 is the record-type byte (after flags and a one-byte index
        // delta); a one-byte time delta puts the path at byte 4.
        let mut bad = buf.clone();
        bad[2] = 21;
        assert!(rejected(&bad, &[]));
        // An explicit EventKind code is validated too.
        let mut odd = ev.clone();
        odd.kind = EventKind::Other;
        let mut bad = recode(&odd, &[]);
        assert_eq!(bad[3], EventKind::Other.code());
        bad[3] = 6;
        assert!(rejected(&bad, &[]));
        // The unassigned record-type bit, with or without a predecessor.
        let second = recode(&ev, std::slice::from_ref(&ev));
        assert_eq!(
            second[2],
            ChangelogKind::Create.code() | KIND_SAME_FID_HOME | KIND_SAME_EXTRACTED
        );
        for (bytes, earlier) in [(&buf, &[][..]), (&second, std::slice::from_ref(&ev))] {
            let mut bad = bytes.clone();
            bad[2] |= KIND_RESERVED;
            assert!(rejected(&bad, earlier));
        }
        // A first member has no predecessor to be the same as: not its
        // record number (which takes the index field with it), its FID
        // sequence and version (which take two of the last three bytes
        // but one), nor its stamp (the last byte).
        let mut bad = buf.clone();
        bad[0] |= FLAG_NEXT_INDEX;
        bad.remove(1);
        assert!(rejected(&bad, &[]));
        let stamp = buf.len() - 1;
        let mut bad = buf.clone();
        bad[2] |= KIND_SAME_FID_HOME;
        bad.remove(stamp - 1);
        bad.remove(stamp - 3);
        assert!(rejected(&bad, &[]));
        let mut bad = buf.clone();
        bad[2] |= KIND_SAME_EXTRACTED;
        bad.truncate(stamp);
        assert!(rejected(&bad, &[]));
        // The same three are fine after a predecessor — unless the stamp
        // is one neither member has.
        let mut bare = ev.clone();
        bare.extracted_unix_ns = None;
        assert!(rejected(&second, std::slice::from_ref(&bare)));
        let mut bad = recode(&bare, std::slice::from_ref(&bare));
        bad[2] |= KIND_SAME_EXTRACTED;
        assert!(rejected(&bad, std::slice::from_ref(&bare)));
        // A first member cannot share a prefix with anything, nor
        // reference anyone.
        let mut bad = buf.clone();
        assert_eq!(bad[4..8], [0, 2, b'/', b'x']);
        bad[4] = 1;
        assert!(rejected(&bad, &[]));
        for back in [0, 1, 2] {
            let mut bad = buf.clone();
            bad[0] |= FLAG_PATH_REF;
            bad.insert(4, back);
            assert!(rejected(&bad, &[]), "a first member referenced {back} back");
        }
        // After two members a reference may reach the first (2 back) and
        // nothing else: not itself, its predecessor, or past the start.
        let pair = [ev.clone(), ev.clone()];
        let third = recode(&ev, &pair);
        assert_eq!(third[3..6], [0, 2, 0], "time, then all of `/x` shared, no suffix");
        for back in 0..5 {
            let mut coded = third.clone();
            coded[0] |= FLAG_PATH_REF;
            coded.insert(4, back);
            assert_eq!(decode(&coded, &pair).is_ok(), back == 2, "{back} back of two members");
        }
        // An object id stepping below zero: `ev` coded against a larger
        // oid, decoded against a smaller one.
        let mut big = ev.clone();
        big.target.oid = ev.target.oid + 10;
        let coded = encode(&ev, std::slice::from_ref(&big));
        let mut small = ev.clone();
        small.target.oid = 3;
        assert!(rejected(&coded, &[small]));
        // Every truncation of a valid member is an error, not a panic.
        for cut in 0..buf.len() {
            assert!(decode_prefix(&buf[..cut]).is_err(), "accepted {cut} of {}", buf.len());
        }
    }

    /// Decodes a first member from `bytes` without asking that they all
    /// be consumed.
    fn decode_prefix(bytes: &[u8]) -> Result<FileEvent, BinDecodeError> {
        use crate::bin::BinPayload;
        FileEvent::decode_bin(&mut BinReader::new(bytes), &[])
    }

    #[test]
    fn footprints_are_positive_and_grow_with_names() {
        let mut rec = sample_record();
        let small = rec.footprint_bytes();
        rec.name = "x".repeat(100);
        assert!(rec.footprint_bytes() > small);
    }
}
