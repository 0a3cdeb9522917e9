//! Binary payload encoding: the bytes of an event, on the wire and on
//! disk.
//!
//! Control frames on an sdci-net socket are JSON (see
//! `sdci-net::wire`) so a session stays `nc`-debuggable; data frames —
//! every batch of events — carry their payloads in this compact binary
//! form, because rendering each event through a `Value` tree and
//! re-parsing it on receive is the cost the data plane cannot afford.
//!
//! A data frame's members are **relative to the earlier members of the
//! same frame**: [`BinPayload::encode_bin`] and
//! [`BinPayload::decode_bin`] are handed every member before this one
//! (none for a frame's first member, which is coded against an all-zero,
//! empty-path value). A field that repeats or counts up is coded against
//! the predecessor and costs a byte — or a spare flag bit — instead of
//! its width; a path may instead name any earlier member as its base, so
//! records that interleave over a few directories still carry each
//! directory once ([`DirTable`] is how the encoder finds that member).
//! Nothing outside the frame is ever referenced: a frame still decodes
//! from nothing but its own bytes. The primitives:
//!
//! * **varints** — unsigned LEB128, at most ten bytes, for every
//!   length, count and delta ([`put_varint`], [`BinReader::varint`]);
//! * **deltas** — `current − previous` modulo 2^64, zig-zag mapped so a
//!   small step in either direction is a small varint ([`put_delta`],
//!   [`BinReader::delta`]; [`BinReader::delta_u32`] for 32-bit fields,
//!   where a result outside the field is an error);
//! * **front-coded strings** — the number of leading bytes shared with
//!   a base string (the predecessor's, or an earlier member's), then
//!   the rest length-prefixed ([`put_front_coded`],
//!   [`BinReader::front_coded`]);
//! * length-prefixed byte strings (varint length + raw UTF-8 bytes),
//!   single bytes, and fixed-width little-endian `u64`s for values with
//!   nothing to be relative to (frame sequence numbers, trace ids).
//!
//! A run of members is written one way, the **member sequence**
//! ([`put_members`], [`read_members`]): a count, then each member
//! length-prefixed. sdci-net puts a frame header in front of it; a
//! store node's snapshot files are blocks of it under a length and a
//! checksum. Both close a sequence at [`MAX_FRAME_MEMBERS`].
//!
//! [`BinPayload`] is deliberately *not* the vendored serde: encoding
//! appends straight to a caller-owned scratch buffer and decoding
//! borrows from the received frame via [`BinReader`]. Both sides are
//! infallible on well-formed input; every malformed input — truncation,
//! an over-long varint, a delta leaving its field, a shared-prefix
//! length its base cannot supply, bytes that do not assemble to
//! UTF-8 — is a [`BinDecodeError`], never a panic.
//!
//! Front-coding lets a three-byte member name a base-length string —
//! whichever earlier member the base is — so what a decoder assembles is
//! bounded twice: no single
//! string may exceed [`MAX_PATH_LEN`], and one [`BinReader`] assembles
//! at most [`FRAME_PATH_BUDGET`] bytes in all. What it assembles it
//! also owns: every front-coded path of a frame is appended to one
//! arena ([`crate::PathArenaBuilder`]) and returned as an
//! [`EventPath`] handle, so a frame's paths cost one buffer, not one
//! allocation each ([`BinReader::front_coded`]).
//!
//! The scratch-buffer design is what makes the broker's encode-once
//! fan-out cheap on the deliver direction too: a `DeliverBatch` run is
//! rendered through one encoder into one frozen byte buffer that every
//! subscriber leg then shares by reference — the encode cost is paid
//! once per run, not once per subscriber.

use crate::path::{EventPath, PathArenaBuilder};
use crate::TraceContext;
use std::fmt;

/// Longest string a decoder assembles from a front-coded field: Linux's
/// and Lustre's `PATH_MAX`. A longer path is refused by the receiving
/// side, so a sender must not emit one.
pub const MAX_PATH_LEN: usize = 4096;

/// Most front-coded bytes one [`BinReader`] — one frame body —
/// assembles. It equals sdci-net's `MAX_FRAME_LEN` (asserted there): a
/// frame can make its reader hold no more path bytes than the largest
/// frame could carry verbatim, so front-coding does not raise the
/// memory one connection can pin.
pub const FRAME_PATH_BUDGET: usize = 64 << 20;

/// A malformed binary payload: truncated field, invalid enum code,
/// over-long varint, out-of-range delta or prefix length, non-UTF-8
/// string bytes, or trailing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinDecodeError(String);

impl BinDecodeError {
    /// Builds an error from any displayable message.
    pub fn msg(msg: impl fmt::Display) -> BinDecodeError {
        BinDecodeError(msg.to_string())
    }
}

impl fmt::Display for BinDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary payload: {}", self.0)
    }
}

impl std::error::Error for BinDecodeError {}

/// A cursor over a received binary payload. All reads are bounds-checked
/// and borrow from the underlying frame; nothing is copied until a field
/// needs an owned value.
///
/// The reader also owns the path bytes its frame assembles: every
/// [`BinReader::front_coded`] string lands in one arena, which is sealed
/// — and the [`EventPath`]s into it become readable — when the reader
/// drops. A decoder therefore returns its events only after its reader
/// is gone, and on an error returns none.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    /// Front-coded bytes this reader may still assemble.
    path_budget: usize,
    /// The frame's assembled paths; made by the first front-coded field.
    paths: Option<PathArenaBuilder>,
}

impl<'a> BinReader<'a> {
    /// Wraps a payload slice, with a fresh [`FRAME_PATH_BUDGET`].
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, path_budget: FRAME_PATH_BUDGET, paths: None }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinDecodeError> {
        if self.buf.len() < n {
            return Err(BinDecodeError::msg(format!(
                "truncated: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinDecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an unsigned LEB128 varint: at most ten bytes, and the tenth
    /// may only carry the one bit a `u64` has left.
    pub fn varint(&mut self) -> Result<u64, BinDecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(BinDecodeError::msg("varint overflows u64"))
    }

    /// Reads a varint length or count. It is unvalidated input: bound it
    /// by [`BinReader::remaining`] before allocating on its say-so.
    pub fn length(&mut self) -> Result<usize, BinDecodeError> {
        usize::try_from(self.varint()?).map_err(BinDecodeError::msg)
    }

    /// Reads a zig-zag varint delta and applies it to `prev`, modulo
    /// 2^64 — the inverse of [`put_delta`].
    pub fn delta(&mut self, prev: u64) -> Result<u64, BinDecodeError> {
        let zigzag = self.varint()?;
        Ok(prev.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg()))
    }

    /// [`BinReader::delta`] for a 32-bit field: a delta that takes the
    /// value below zero or above `u32::MAX` is an error.
    pub fn delta_u32(&mut self, prev: u32) -> Result<u32, BinDecodeError> {
        u32::try_from(self.delta(prev.into())?)
            .map_err(|_| BinDecodeError::msg("delta leaves its 32-bit field"))
    }

    /// Reads a varint-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], BinDecodeError> {
        let len = self.length()?;
        self.take(len)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, BinDecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(BinDecodeError::msg)
    }

    /// Reads a front-coded path — the inverse of [`put_front_coded`] —
    /// into this reader's arena: the first `shared` bytes of `base`,
    /// then the suffix carried inline. `base` is any path this reader
    /// assembled earlier (the predecessor's, or the member's a path
    /// reference names). The handle is readable once the reader has
    /// dropped; until then it serves as a later member's base.
    ///
    /// The arena is reserved on the first call, at twice the bytes then
    /// left in the body — a path coded against a frame-mate's is about
    /// half carried and half shared — and never at a length the body
    /// claims; it grows from there within [`FRAME_PATH_BUDGET`].
    ///
    /// # Errors
    ///
    /// A shared length `base` cannot supply (any non-zero one when there
    /// is no `base`), a result longer than [`MAX_PATH_LEN`] or past this
    /// reader's [`FRAME_PATH_BUDGET`] — whichever member the bytes are
    /// shared from, every assembled path is charged to both — and
    /// assembled bytes that are not UTF-8. The halves are not validated
    /// separately: a shared prefix may legally end inside a multi-byte
    /// character.
    pub fn front_coded(&mut self, base: Option<&EventPath>) -> Result<EventPath, BinDecodeError> {
        let shared = self.length()?;
        let base_len = base.map_or(0, EventPath::len);
        if shared > base_len {
            return Err(BinDecodeError::msg(format!(
                "shared prefix {shared} exceeds its base's {base_len} bytes"
            )));
        }
        let suffix = self.bytes()?;
        // `shared` and `suffix.len()` are each bounded by a slice in memory.
        let len = shared + suffix.len();
        if len > MAX_PATH_LEN {
            return Err(BinDecodeError::msg(format!("path of {len} bytes exceeds {MAX_PATH_LEN}")));
        }
        self.path_budget = self.path_budget.checked_sub(len).ok_or_else(|| {
            BinDecodeError::msg(format!("frame assembles more than {FRAME_PATH_BUDGET} path bytes"))
        })?;
        let reserve = 2 * (suffix.len() + self.buf.len());
        self.paths
            .get_or_insert_with(|| PathArenaBuilder::with_capacity(reserve))
            .push_front_coded(base, shared, suffix)
            .map_err(BinDecodeError::msg)
    }

    /// Reads a [`TraceContext`] — the inverse of [`put_trace`].
    pub fn trace(&mut self) -> Result<TraceContext, BinDecodeError> {
        Ok(TraceContext {
            trace_id: self.u64()?,
            parent_span_id: self.u64()?,
            sampled: match self.u8()? {
                0 => false,
                1 => true,
                other => return Err(BinDecodeError::msg(format!("invalid bool byte {other}"))),
            },
        })
    }
}

/// Appends `value` as an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Bytes [`put_varint`] appends for `value`.
pub fn varint_len(value: u64) -> usize {
    // One byte per started group of seven significant bits.
    if value < 0x80 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

/// Appends `current − prev` (modulo 2^64, so every pair of values has a
/// delta) as a zig-zag varint: one byte for steps of −64..=63.
pub fn put_delta(buf: &mut Vec<u8>, current: u64, prev: u64) {
    let delta = current.wrapping_sub(prev) as i64;
    put_varint(buf, ((delta << 1) ^ (delta >> 63)) as u64);
}

/// Appends a varint-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Length of the common byte prefix of `a` and `b`, eight bytes a step.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut shared = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("eight bytes"));
        let y = u64::from_le_bytes(y.try_into().expect("eight bytes"));
        if x != y {
            return shared + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        shared += 8;
    }
    shared + a[shared..].iter().zip(&b[shared..]).take_while(|(x, y)| x == y).count()
}

/// Bytes [`put_front_coded`] appends for a string of `len` bytes that
/// shares `shared` of them with its base.
pub(crate) fn front_coded_len(len: usize, shared: usize) -> usize {
    let suffix = len - shared;
    varint_len(shared as u64) + varint_len(suffix as u64) + suffix
}

/// Appends `current` front-coded against a base it shares its first
/// `shared` bytes with: that length as a varint,
/// then the rest of `current` length-prefixed.
pub fn put_front_coded(buf: &mut Vec<u8>, current: &[u8], shared: usize) {
    put_varint(buf, shared as u64);
    put_bytes(buf, &current[shared..]);
}

/// Appends a [`TraceContext`]: a fixed 17 bytes — ids are random, so
/// there is nothing to be relative to.
pub fn put_trace(buf: &mut Vec<u8>, trace: &TraceContext) {
    buf.extend_from_slice(&trace.trace_id.to_le_bytes());
    buf.extend_from_slice(&trace.parent_span_id.to_le_bytes());
    buf.push(u8::from(trace.sampled));
}

/// Slots in a [`DirTable`]: a power of two, several times the
/// directories a frame of a few hundred members names.
const DIR_SLOTS: usize = 1024;

/// Slots a [`DirTable`] lookup examines before it gives up and evicts.
const DIR_PROBES: usize = 8;

/// The encoder's memory of one member sequence: for each parent
/// directory, the latest member whose path lies in it — the member a
/// path reference would name. Fixed-size and open-addressed, so it lives
/// on its encoder's stack and a frame allocates nothing for it.
///
/// A slot is `hash tag << 16 | member index + 1`, zero when empty. The
/// table never reads a path: two directories whose hashes agree in slot
/// and tag answer for each other, and the caller — who compares the
/// bytes of whatever member it is handed before coding against it —
/// just falls back to the predecessor. So a crafted directory name can
/// cost a frame some compression and nothing else; a full neighbourhood
/// evicts, forgetting a directory, and a member past index 65,534 is
/// not remembered.
pub struct DirTable {
    slots: [u32; DIR_SLOTS],
}

impl DirTable {
    /// An empty table: the start of a sequence.
    pub fn new() -> DirTable {
        DirTable { slots: [0; DIR_SLOTS] }
    }

    /// Remembers member `index` as the latest in directory `dir`, and
    /// returns the member remembered there before it.
    pub(crate) fn replace(&mut self, dir: &[u8], index: usize) -> Option<usize> {
        let Ok(marker) = u16::try_from(index + 1) else { return None };
        let hash = dir_hash(dir);
        let entry = (hash & 0xffff_0000) | u32::from(marker);
        let home = hash as usize % DIR_SLOTS;
        for probe in 0..DIR_PROBES {
            let slot = &mut self.slots[(home + probe) % DIR_SLOTS];
            if *slot == 0 || *slot >> 16 == hash >> 16 {
                let before = (*slot & 0xffff) as usize;
                *slot = entry;
                return before.checked_sub(1);
            }
        }
        self.slots[home] = entry;
        None
    }
}

impl Default for DirTable {
    fn default() -> DirTable {
        DirTable::new()
    }
}

/// A 32-bit hash of a directory name, eight bytes a step — the last
/// step over the name's last eight bytes, overlapping the one before
/// rather than padding a short word. A frame's directories differ in a
/// few characters of one component, wherever in a word those fall: each
/// step's multiply carries them upwards and its fold brings them back
/// down, so every bit of the result depends on every byte.
fn dir_hash(dir: &[u8]) -> u32 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |hash: u64, word: u64| {
        let hash = (hash ^ word).wrapping_mul(K);
        hash ^ (hash >> 32)
    };
    let mut hash = K ^ dir.len() as u64;
    let last = match dir.split_last_chunk::<8>() {
        Some((_, last)) => *last,
        None => {
            let mut short = [0u8; 8];
            short[..dir.len()].copy_from_slice(dir);
            short
        }
    };
    for word in dir[..dir.len().saturating_sub(1)].chunks_exact(8) {
        hash = step(hash, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    (step(hash, u64::from_le_bytes(last)).wrapping_mul(K) >> 32) as u32
}

/// A type with a binary payload form, coded relative to the earlier
/// members of the same sequence. Encoding appends to a reusable scratch
/// buffer; decoding reads from a [`BinReader`] positioned at the value's
/// first byte.
pub trait BinPayload: Sized {
    /// Appends the binary encoding of `self` to `buf`. `earlier` holds
    /// the members before this one in the same sequence, in order —
    /// empty for the first — and must be what the decoder will be
    /// handed; `dirs` is the sequence's [`DirTable`], which a member
    /// with a path consults and updates. Types with nothing to gain
    /// from either ignore them.
    fn encode_bin(&self, earlier: &[Self], dirs: &mut DirTable, buf: &mut Vec<u8>);

    /// Decodes one value coded against `earlier`, consuming exactly its
    /// bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`BinDecodeError`] on truncated fields, invalid enum
    /// codes, malformed varints, deltas or prefix lengths, a reference
    /// to a member `earlier` does not hold, or non-UTF-8 string bytes.
    fn decode_bin(r: &mut BinReader<'_>, earlier: &[Self]) -> Result<Self, BinDecodeError>;
}

impl BinPayload for u64 {
    fn encode_bin(&self, _earlier: &[Self], _dirs: &mut DirTable, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
        r.u64()
    }
}

impl BinPayload for String {
    fn encode_bin(&self, _earlier: &[Self], _dirs: &mut DirTable, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
        Ok(r.str()?.to_string())
    }
}

/// Most members one sequence holds. A member assembles at most two paths
/// of [`MAX_PATH_LEN`], so a sequence of this many stays within its
/// reader's [`FRAME_PATH_BUDGET`] whatever its paths are: a writer that
/// closes its frames and snapshot blocks here cannot produce one its
/// reader refuses.
pub const MAX_FRAME_MEMBERS: usize = FRAME_PATH_BUDGET / (2 * MAX_PATH_LEN);

/// Most members a decoder reserves room for on a count word's say-so;
/// a larger (still valid) sequence grows its `Vec` as members decode.
const MAX_RESERVED_MEMBERS: usize = 65_536;

/// Appends one sequence member: its length as a varint, then its
/// encoding against `earlier`, the members of the sequence so far.
pub fn put_member<T: BinPayload>(
    buf: &mut Vec<u8>,
    member: &T,
    earlier: &[T],
    dirs: &mut DirTable,
) {
    // One pass, no per-member scratch: a one-byte length is reserved,
    // and the rare member of 128 bytes or more is shifted right to make
    // room for the longer varint.
    let at = buf.len();
    buf.push(0);
    member.encode_bin(earlier, dirs, buf);
    let len = buf.len() - at - 1;
    let extra = varint_len(len as u64) - 1;
    if extra > 0 {
        buf.resize(buf.len() + extra, 0);
        buf.copy_within(at + 1..at + 1 + len, at + 1 + extra);
    }
    let mut rest = len;
    for slot in &mut buf[at..=at + extra] {
        *slot = rest as u8 | 0x80;
        rest >>= 7;
    }
    buf[at + extra] &= 0x7f;
}

/// Appends a member sequence — the one form a run of events takes as
/// bytes, in a data frame and in a snapshot block alike: the member
/// count, then each member length-prefixed and coded against the ones
/// before it.
///
/// ```text
/// members = count varint | count × (len varint | member: len bytes)
///           member 0 coded against nothing, member i against members 0..i
/// ```
pub fn put_members<T: BinPayload>(buf: &mut Vec<u8>, members: &[T]) {
    put_varint(buf, members.len() as u64);
    let mut dirs = DirTable::new();
    for (i, member) in members.iter().enumerate() {
        put_member(buf, member, &members[..i], &mut dirs);
    }
}

/// How many members to reserve room for before decoding a sequence whose
/// count word says `count`, with `remaining` body bytes left. The word
/// is unvalidated input: it is bounded by what the bytes can hold (a
/// member is at least its length byte and one byte of encoding) and by
/// a fixed cap, so it can never size an allocation beyond a multiple of
/// the body. It is only a reservation: a sequence of more members grows
/// the `Vec` as they decode.
fn members_to_reserve(count: usize, remaining: usize) -> usize {
    count.min(remaining / 2).min(MAX_RESERVED_MEMBERS)
}

/// Reads a member sequence back — the inverse of [`put_members`] —
/// handing each member's decoder the members before it.
///
/// # Errors
///
/// A count or member length the bytes cannot hold, a member whose
/// decoder fails, and a member whose decoder does not consume exactly
/// the length its prefix announced.
pub fn read_members<T: BinPayload>(r: &mut BinReader<'_>) -> Result<Vec<T>, BinDecodeError> {
    let count = r.length()?;
    let mut out: Vec<T> = Vec::with_capacity(members_to_reserve(count, r.remaining()));
    for _ in 0..count {
        let len = r.length()?;
        let Some(end) = r.remaining().checked_sub(len) else {
            return Err(BinDecodeError::msg(format!(
                "truncated: a member of {len} bytes, {} left in the frame",
                r.remaining()
            )));
        };
        let member = T::decode_bin(r, &out)?;
        if r.remaining() != end {
            let used = end + len - r.remaining();
            return Err(BinDecodeError::msg(format!("a member of {len} bytes decoded as {used}")));
        }
        out.push(member);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: BinPayload>(value: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        value.encode_bin(&[], &mut DirTable::new(), &mut buf);
        buf
    }

    fn roundtrip<T: BinPayload + PartialEq + fmt::Debug>(value: T) {
        let buf = encoded(&value);
        let mut r = BinReader::new(&buf);
        assert_eq!(T::decode_bin(&mut r, &[]).unwrap(), value);
        assert!(r.is_empty(), "decoder must consume exactly the encoding");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(String::from("héllo/wörld"));
        roundtrip(String::new());
        let trace = TraceContext::sampled(0xabcd, 0x1234);
        let mut buf = Vec::new();
        put_trace(&mut buf, &trace);
        assert_eq!(buf.len(), 17);
        assert_eq!(BinReader::new(&buf).trace().unwrap(), trace);
    }

    #[test]
    fn fixed_integers_are_little_endian() {
        let buf = encoded(&0x0102_0304_0506_0708u64);
        assert_eq!(buf, [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn strings_are_varint_length_prefixed() {
        assert_eq!(encoded(&String::from("ab")), [2, b'a', b'b']);
        let buf = encoded(&"x".repeat(300));
        assert_eq!(buf[..2], [0xac, 0x02]);
        assert_eq!(buf.len(), 302);
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut values = vec![0u64, 1, 0x7f, 0x80, 300, u64::from(u32::MAX), u64::MAX];
        values.extend((0..64).flat_map(|bit| [(1u64 << bit) - 1, 1 << bit]));
        for value in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value), "varint_len({value:#x})");
            let mut r = BinReader::new(&buf);
            assert_eq!(r.varint().unwrap(), value);
            assert!(r.is_empty());
        }
        assert_eq!(varint_len(0x7f), 1);
        assert_eq!(varint_len(0x80), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_errors() {
        // Eleven bytes: a continuation bit on the tenth.
        assert!(BinReader::new(&[0x80; 11]).varint().is_err());
        assert!(BinReader::new(&[0xff; 16]).varint().is_err());
        // Ten bytes whose last carries more than the 64th bit.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert!(BinReader::new(&buf).varint().is_err());
        *buf.last_mut().unwrap() = 0x01;
        assert_eq!(BinReader::new(&buf).varint().unwrap(), u64::MAX);
        // Truncated inside the varint.
        assert!(BinReader::new(&[0x80, 0x80]).varint().is_err());
    }

    #[test]
    fn deltas_roundtrip_in_both_directions_and_across_the_wrap() {
        let edges = [0u64, 1, 63, 64, 1 << 40, i64::MAX as u64, (i64::MAX as u64) + 1, u64::MAX];
        for prev in edges {
            for current in edges {
                let mut buf = Vec::new();
                put_delta(&mut buf, current, prev);
                let mut r = BinReader::new(&buf);
                assert_eq!(r.delta(prev).unwrap(), current, "{prev} -> {current}");
                assert!(r.is_empty());
            }
        }
        // Small steps either way are one byte.
        for (prev, current) in [(10u64, 11u64), (11, 10), (100, 163), (100, 36), (0, 0)] {
            let mut buf = Vec::new();
            put_delta(&mut buf, current, prev);
            assert_eq!(buf.len(), 1, "{prev} -> {current}");
        }
    }

    #[test]
    fn a_delta_leaving_its_32_bit_field_is_an_error() {
        let coded = |current: u64, prev: u64| {
            let mut buf = Vec::new();
            put_delta(&mut buf, current, prev);
            buf
        };
        assert_eq!(BinReader::new(&coded(7, 9)).delta_u32(9).unwrap(), 7);
        assert_eq!(BinReader::new(&coded(u32::MAX.into(), 0)).delta_u32(0).unwrap(), u32::MAX);
        // −3 applied to 2, and +1 applied to u32::MAX.
        assert!(BinReader::new(&coded(6, 9)).delta_u32(2).is_err());
        assert!(BinReader::new(&coded(1, 0)).delta_u32(u32::MAX).is_err());
    }

    fn front_coded(current: &str, prev: &str) -> Vec<u8> {
        let shared = common_prefix(current.as_bytes(), prev.as_bytes());
        let mut buf = Vec::new();
        put_front_coded(&mut buf, current.as_bytes(), shared);
        assert_eq!(buf.len(), front_coded_len(current.len(), shared));
        buf
    }

    /// Decodes one front-coded path from `buf` against `prev`, sealing
    /// the reader's arena so the result can be read.
    fn read_front_coded(buf: &[u8], prev: &str) -> Result<EventPath, BinDecodeError> {
        let prev = (!prev.is_empty()).then(|| EventPath::from(prev));
        let mut r = BinReader::new(buf);
        let path = r.front_coded(prev.as_ref())?;
        assert!(r.is_empty());
        Ok(path)
    }

    #[test]
    fn front_coded_strings_share_their_prefix_with_the_predecessor() {
        assert_eq!(front_coded("/a/b/two", "/a/b/one"), [5, 3, b't', b'w', b'o']);
        assert_eq!(front_coded("/a/b/one", "/a/b/one"), [8, 0]);
        assert_eq!(front_coded("/a", ""), [0, 2, b'/', b'a']);
        assert_eq!(front_coded("", "/a"), [0, 0]);
        for (current, prev) in [("/a/b/two", "/a/b/one"), ("/a", "/a/b"), ("/a/b", "/a"), ("", "")]
        {
            let path = read_front_coded(&front_coded(current, prev), prev).unwrap();
            assert_eq!(path.as_str(), current);
        }
    }

    /// A frame's paths share one arena, each coded against the one the
    /// same reader produced before it; a body without a front-coded field
    /// makes none.
    #[test]
    fn one_reader_assembles_into_one_arena() {
        let mut buf = front_coded("/a/b/one", "");
        buf.extend(front_coded("/a/b/two", "/a/b/one"));
        buf.extend(front_coded("/a/c", "/a/b/two"));
        let mut r = BinReader::new(&buf);
        let one = r.front_coded(None).unwrap();
        let two = r.front_coded(Some(&one)).unwrap();
        let three = r.front_coded(Some(&two)).unwrap();
        drop(r);
        assert_eq!([one.as_str(), two.as_str(), three.as_str()], ["/a/b/one", "/a/b/two", "/a/c"]);
        assert!(one.shares_arena(&two) && two.shares_arena(&three));

        let mut r = BinReader::new(&[7, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!((r.u8().unwrap(), r.u64().unwrap()), (7, 0));
        assert!(r.paths.is_none());
    }

    /// `é` and `è` share their first byte: the shared prefix ends inside
    /// a character and neither half is UTF-8 alone.
    #[test]
    fn a_shared_prefix_may_end_inside_a_character() {
        let buf = front_coded("/d/è", "/d/é");
        assert_eq!(buf[0], 4, "three ASCII bytes and the lead byte of the accent");
        assert_eq!(read_front_coded(&buf, "/d/é").unwrap().as_str(), "/d/è");
        // The same bytes against a predecessor that supplies a different
        // lead byte do not assemble to UTF-8.
        assert!(read_front_coded(&buf, "/d/x").is_err());
        // Nor does a prefix cut on a boundary followed by half a character.
        assert!(read_front_coded(&[3, 1, 0xa8], "/d/é").is_err());
    }

    #[test]
    fn hostile_front_coding_is_rejected() {
        // Shared length beyond the predecessor, or any at all on a first member.
        assert!(read_front_coded(&[9, 0], "/short").is_err());
        assert!(read_front_coded(&[1, 0], "").is_err());
        // Suffix length running past the buffer.
        assert!(read_front_coded(&[0, 200, b'x'], "").is_err());
        // Non-UTF-8 suffix.
        assert!(read_front_coded(&[0, 1, 0xff], "").is_err());
        // One byte over the single-path cap, reached by sharing.
        let prev = "p".repeat(MAX_PATH_LEN);
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_PATH_LEN as u64);
        put_bytes(&mut buf, b"x");
        let err = read_front_coded(&buf, &prev).unwrap_err();
        assert!(err.to_string().contains("exceeds 4096"), "got: {err}");
        assert_eq!(read_front_coded(&front_coded(&prev, &prev), &prev).unwrap().as_str(), prev);
    }

    /// Three-byte members naming a predecessor-length path: the reader
    /// stops assembling at its budget, whatever the count says.
    #[test]
    fn assembled_bytes_are_bounded_per_reader() {
        let path = "p".repeat(MAX_PATH_LEN);
        let member = front_coded(&path, &path);
        let fits = FRAME_PATH_BUDGET / MAX_PATH_LEN;
        let body = member.repeat(fits + 1);
        let mut r = BinReader::new(&body);
        let mut prev = EventPath::from(path);
        for _ in 0..fits {
            prev = r.front_coded(Some(&prev)).unwrap();
        }
        let err = r.front_coded(Some(&prev)).unwrap_err();
        assert!(err.to_string().contains("path bytes"), "got: {err}");
        drop(r);
        assert_eq!(prev.as_str().len(), MAX_PATH_LEN);
    }

    /// The table answers with the latest member of a directory, whatever
    /// other directories came between.
    #[test]
    fn the_dir_table_remembers_the_latest_member_of_each_directory() {
        let mut dirs = DirTable::new();
        let name = |d: usize| format!("/t0000001/d{d:07x}/");
        for d in 0..64 {
            assert_eq!(dirs.replace(name(d).as_bytes(), d), None, "directory {d} is new");
        }
        for d in 0..64 {
            assert_eq!(dirs.replace(name(d).as_bytes(), 64 + d), Some(d));
        }
        assert_eq!(dirs.replace(name(7).as_bytes(), 200), Some(71));
    }

    /// More directories than slots: the table evicts instead of growing
    /// or probing without bound, whatever it answers is an index it was
    /// given, and an index past what a slot holds is not remembered.
    #[test]
    fn a_full_dir_table_evicts_and_never_invents_a_member() {
        let mut dirs = DirTable::new();
        let name = |d: usize| format!("/x{d:05x}/");
        for round in 0..4 {
            for d in 0..4 * DIR_SLOTS {
                let index = round * 4 * DIR_SLOTS + d;
                if let Some(before) = dirs.replace(name(d).as_bytes(), index) {
                    assert!(before < index, "{before} answered for member {index}");
                }
            }
        }
        let mut dirs = DirTable::new();
        assert_eq!(dirs.replace(b"/a/", usize::from(u16::MAX)), None);
        assert_eq!(dirs.replace(b"/a/", 3), None, "member 65,535 was not remembered");
        assert_eq!(dirs.replace(b"/a/", 4), Some(3));
    }

    /// A count word never sizes the reservation: the bytes on hand and
    /// the fixed cap bound it, while an honest sequence still reserves
    /// exactly its count.
    #[test]
    fn a_hostile_count_is_rejected_not_allocated() {
        let mut body = Vec::new();
        put_varint(&mut body, u64::MAX);
        assert!(read_members::<u64>(&mut BinReader::new(&body)).is_err());

        let hostile = usize::MAX;
        assert_eq!(members_to_reserve(hostile, 0), 0);
        assert_eq!(members_to_reserve(hostile, 43), 21, "bounded by two bytes per member");
        assert_eq!(members_to_reserve(hostile, FRAME_PATH_BUDGET), MAX_RESERVED_MEMBERS);
        assert_eq!(members_to_reserve(512, 512 * 34), 512, "honest sequences reserve exactly once");
        assert_eq!(members_to_reserve(65_536, 65_536 * 34), 65_536);
    }

    #[test]
    fn truncation_and_bad_bytes_are_errors() {
        assert!(u64::decode_bin(&mut BinReader::new(&[1, 2, 3]), &[]).is_err());
        // String length prefix runs past the buffer.
        assert!(String::decode_bin(&mut BinReader::new(&[200, 1, b'x']), &[]).is_err());
        // Non-UTF-8 string bytes.
        assert!(String::decode_bin(&mut BinReader::new(&[1, 0xFF]), &[]).is_err());
        // A trace context's sampled byte is a bool.
        let mut buf = Vec::new();
        put_trace(&mut buf, &TraceContext::sampled(1, 2));
        *buf.last_mut().unwrap() = 9;
        assert!(BinReader::new(&buf).trace().is_err());
    }
}
