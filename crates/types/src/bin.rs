//! Binary payload encoding: the bytes of an event, on the wire and on
//! disk.
//!
//! Every frame on an sdci-net socket is binary (see `sdci-net::wire`);
//! data frames — every batch of events — carry their payloads in this
//! compact form, because rendering each event through a `Value` tree and
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
//! directory once (a [`SeqEncoder`]'s table is how the encoder finds that
//! member).
//! A *fresh* sequence references nothing outside itself and decodes from
//! its own bytes alone: every snapshot block is one, and so is a
//! connection's first frame. A pushed or delivered frame, or a store
//! reply, may instead *continue* its connection: its first member's
//! predecessor is the last member the connection's frames carried (and a
//! sequenced first member's number is coded against that member's,
//! [`SeqEncoder::seq_before`]), a path
//! reference may reach past its first member into the last
//! [`HISTORY_MEMBERS`] of them, and a class may keep the code it had in
//! the last frame — all held, on each side, in a [`History`], which only
//! that connection's reader has. The primitives:
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
//!   `BinReader::front_coded`);
//! * length-prefixed byte strings (varint length + raw UTF-8 bytes),
//!   single bytes, and fixed-width little-endian `u64`s for values with
//!   nothing to be relative to (frame sequence numbers, trace ids).
//!
//! A run of members is written one way, the **member sequence**
//! ([`put_members`], [`read_members`]): a count, then the members back
//! to back. No length travels with a member: it ends where its own
//! flags, tag and record-type bits say it ends, and whoever reads the
//! sequence refuses any byte after the last. sdci-net puts a frame
//! header in front of it; a store node's snapshot blocks keep a length
//! in front of each member, on their own writer and reader. The chunked
//! frame writers, a store reply's and the snapshot writer close a
//! sequence at [`MAX_FRAME_MEMBERS`], so none holds more path bytes than
//! its reader's [`FRAME_PATH_BUDGET`] — a reply to a query for more
//! events is a prefix of its answer. A member is at least one
//! byte, and a coded byte at least one bit, so a sequence claims no more
//! members than the bits after its count; a decoder reserves room for at
//! most a sixteenth of them on the count's say-so.
//!
//! Every byte of a member section belongs to a field [`Class`] — a path
//! suffix's, a time delta's, a flags byte's... — and
//! every primitive a member encoder writes through ([`SeqEncoder`]) and a
//! decoder reads through ([`BinReader`]) names it. A frame's member
//! section may be **coded** ([`code_members`]): it is the raw section
//! with every byte replaced by a codeword under the code of its class —
//! a canonical Huffman code per class, built from the frame's own bytes
//! of that class, whose table travels in the frame
//! ([`BinReader::read_codes`]); a class the frame does not code keeps
//! its bytes as they are, eight bits each. The section is one bit
//! stream, zero-padded once, at its end. The encoder writes the section
//! raw first, its [`SeqEncoder`] keeping each byte's class in a tag
//! beside it ([`SeqEncoder::for_coding`]), and codes each class only
//! when that makes the frame smaller, table included. A snapshot block
//! is never coded, and its writer keeps no tags.
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
//! at most [`FRAME_PATH_BUDGET`] bytes in all. A coded suffix changes
//! neither bound: its byte count is checked against both before a bit
//! is decoded, and against the bits left (a codeword is at least one).
//! What it assembles it
//! also owns: every front-coded path of a frame is appended to one
//! arena ([`crate::PathArenaBuilder`]) and returned as an
//! [`EventPath`] handle, so a frame's paths cost one buffer, not one
//! allocation each (`BinReader::front_coded`).
//!
//! The scratch-buffer design is what makes the broker's encode-once
//! fan-out cheap on the deliver direction too: a `DeliverBatch` run is
//! rendered through one encoder into one frozen byte buffer that every
//! subscriber leg then shares by reference — the encode cost is paid
//! once per run, not once per subscriber.

use crate::path::{EventPath, PathArenaBuilder, PathStaging, PathView, SLOT_BYTES};
use crate::{FileEvent, TraceContext};
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

const _: () =
    assert!(FRAME_PATH_BUDGET < SLOT_BYTES, "a frame's paths fit the slot they seal into");

/// Longest codeword any of a frame's codes may assign.
pub const MAX_CODE_LEN: u32 = 12;

/// Lookup-table entries a [`BinReader`] holds for all of a frame's codes
/// together: a code whose longest codeword is `l` bits takes `1 << l` of
/// them, and a frame whose codes take more is refused — its encoder
/// flattens its deepest codes until they fit.
pub const LOOKUP_ENTRIES: usize = 8192;

/// A code table lists its symbols when it has fewer than this many, and
/// names them in a bitmap, one bit per byte value, otherwise.
const LIST_LIMIT: usize = 32;

/// Bytes a code table's symbol bitmap takes: one bit per byte value.
const CODE_BITMAP_LEN: usize = 32;

/// The path arena a [`BinReader`] with no warm staging reserves — a
/// frame decoded on its own, a snapshot block, a connection's first frame
/// with paths — per body byte left when its first path is read, never a
/// length the body claims. A path is mostly shared with a frame-mate's,
/// and a coded member carries its fields and suffix in a few bits each: a
/// coded 256-member frame of the benchmark's `resolve` shape assembles
/// about five path bytes per body byte (57-byte paths in members of 11 to
/// 12 bytes), more with renames, so at five times the body its arena
/// would grow once. A connection's later frames reserve nothing: they
/// assemble in the staging its first grew, which
/// `crates/net/tests/alloc_budget.rs` holds, fresh and continuing frames
/// alike, to no growth at all.
const ARENA_PER_BODY_BYTE: usize = 6;

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

/// How many field classes there are: the bits a coded frame's class mask
/// may set.
pub const CLASSES: usize = 11;

/// The field a member-section byte belongs to. A coded frame carries each
/// class under a code of its own, or raw; every write a member encoder
/// makes through [`SeqEncoder`] and every read through [`BinReader`]
/// names the class of its bytes, and a class's bit in a coded frame's
/// mask is `1 << class as u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The bytes front-coded strings carry verbatim: path and `src_path`
    /// suffixes.
    Path,
    /// A FID's object-id delta.
    Oid,
    /// A path reference's back-distance.
    Back,
    /// A time delta.
    Time,
    /// A sequence-number delta: a sequenced event's `seq`, a heartbeat's
    /// `last_seq`.
    Seq,
    /// A member's flags byte.
    Flags,
    /// The record-type byte, and an explicit event-kind byte.
    Kind,
    /// A feed member's variant tag.
    Tag,
    /// A front-coded string's shared-prefix length.
    Shared,
    /// A front-coded string's suffix byte count.
    Carried,
    /// Everything else: the member count, record numbers, MDTs, a FID's
    /// sequence and version, extraction stamps, trace contexts, and
    /// `String` and `u64` members.
    Other,
}

impl Class {
    /// Every class, in mask-bit order.
    pub const ALL: [Class; CLASSES] = [
        Class::Path,
        Class::Oid,
        Class::Back,
        Class::Time,
        Class::Seq,
        Class::Flags,
        Class::Kind,
        Class::Tag,
        Class::Shared,
        Class::Carried,
        Class::Other,
    ];

    /// The class's bit in a coded frame's class mask.
    pub const fn bit(self) -> u16 {
        1 << self as u16
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Class::Path => "path",
            Class::Oid => "oid",
            Class::Back => "back-distance",
            Class::Time => "time",
            Class::Seq => "sequence",
            Class::Flags => "flags",
            Class::Kind => "kind",
            Class::Tag => "tag",
            Class::Shared => "shared-length",
            Class::Carried => "carried-length",
            Class::Other => "other",
        })
    }
}

/// Takes the next `N` bytes off the front of `buf`, as an array.
#[inline]
fn take_chunk<'a, const N: usize>(buf: &mut &'a [u8]) -> Result<&'a [u8; N], BinDecodeError> {
    let (head, tail) = buf.split_first_chunk::<N>().ok_or_else(|| {
        BinDecodeError::msg(format!("truncated: need {N} bytes, have {}", buf.len()))
    })?;
    *buf = tail;
    Ok(head)
}

/// Takes the next `n` bytes off the front of `buf`.
#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], BinDecodeError> {
    if buf.len() < n {
        return Err(BinDecodeError::msg(format!("truncated: need {n} bytes, have {}", buf.len())));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// A cursor over a received binary payload. All reads are bounds-checked
/// and borrow from the underlying frame; nothing is copied until a field
/// needs an owned value.
///
/// The reader also owns the path bytes its frame assembles: every
/// `BinReader::front_coded` string lands in one slot of an arena, which
/// is sealed — and the [`EventPath`]s into it become readable — when the
/// reader drops, or, on a reader that assembles them in its connection's
/// staging ([`BinReader::stage_from`]), when [`BinReader::seal`] hands
/// the staging back. A decoder therefore returns its events only after its
/// reader is sealed or gone, and on an error returns none.
///
/// It holds its frame's codes too, once [`BinReader::read_codes`] has
/// read them: inside the member section ([`read_members`]) every
/// primitive then reads through the code of the [`Class`] it names, and
/// `BinReader::front_coded` reads suffixes through the path class's.
/// Outside a coded section the class a read names is not used.
///
/// A frame that continues its connection is read against the
/// connection's [`History`] as well ([`BinReader::continue_from`]): its
/// first member's predecessor, the paths a back-distance may reach past
/// its first member, the codes it reuses.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    /// Front-coded bytes this reader may still assemble.
    path_budget: usize,
    /// The frame's assembled paths; made by the first front-coded field.
    paths: Option<PathArenaBuilder>,
    /// The staging its connection lent for the paths to be assembled in
    /// and sealed into, until the first front-coded field takes it.
    staging: Option<PathStaging>,
    /// The frame's codes, when it carries any.
    codes: Option<Codes<'a>>,
    /// The history the frame continues, when it continues one.
    history: Option<&'a History>,
}

impl<'a> BinReader<'a> {
    /// Wraps a payload slice, with a fresh [`FRAME_PATH_BUDGET`] and no
    /// codes.
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader {
            buf,
            path_budget: FRAME_PATH_BUDGET,
            paths: None,
            staging: None,
            codes: None,
            history: None,
        }
    }

    /// Assembles the frame's paths in the staging `history` keeps for its
    /// connection's frames, warm from the last one, and seals them into
    /// its open group's next slot; [`BinReader::seal`] hands it back.
    pub fn stage_from(&mut self, history: &mut History) {
        self.staging = Some(std::mem::take(&mut history.staging));
    }

    /// Seals the frame's paths — one exact-size copy, after which their
    /// handles are readable — and returns the staging they were assembled
    /// in, for a connection to keep ([`History::restage`]); see
    /// [`PathArenaBuilder::seal`].
    pub fn seal(&mut self) -> PathStaging {
        match self.paths.take() {
            Some(paths) => paths.seal(),
            None => self.staging.take().unwrap_or_default(),
        }
    }

    /// As [`BinReader::seal`], for a frame that is refused: its paths are
    /// not kept, and their slot is sealed empty
    /// ([`PathArenaBuilder::abandon`]).
    pub fn abandon(&mut self) -> PathStaging {
        match self.paths.take() {
            Some(paths) => paths.abandon(),
            None => self.staging.take().unwrap_or_default(),
        }
    }

    /// The history the frame continues, when it continues one.
    pub(crate) fn history(&self) -> Option<&'a History> {
        self.history
    }

    /// In a frame that continues its connection, the sequence number of
    /// the last member before the frame's first, when it carried one: what
    /// its first member's sequence number is coded against
    /// ([`SeqEncoder::seq_before`]).
    pub fn seq_before(&self) -> Option<u64> {
        self.history?.last_seq()
    }

    /// Bytes not yet consumed, outside a coded member section.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinDecodeError> {
        take(&mut self.buf, n)
    }

    /// The codes, while a coded member section is being read.
    #[inline]
    fn live(&self) -> Option<&Codes<'a>> {
        self.codes.as_ref().filter(|codes| codes.live)
    }

    #[inline]
    fn live_mut(&mut self) -> Option<&mut Codes<'a>> {
        self.codes.as_mut().filter(|codes| codes.live)
    }

    /// Bits left to read: in a coded member section, up to its end
    /// (padding included); elsewhere, eight a byte.
    #[inline]
    fn bits_left(&self) -> usize {
        self.live().map_or(8 * self.buf.len(), |codes| codes.stream.bits_left())
    }

    /// Reads one byte of `class`.
    #[inline]
    pub fn u8(&mut self, class: Class) -> Result<u8, BinDecodeError> {
        match self.live_mut() {
            Some(codes) => codes.symbol(class),
            None => Ok(self.take(1)?[0]),
        }
    }

    /// Reads a fixed-width little-endian `u64` (of [`Class::Other`]).
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BinDecodeError> {
        match self.live_mut() {
            Some(codes) => {
                let mut bytes = [0u8; 8];
                for byte in &mut bytes {
                    *byte = codes.symbol(Class::Other)?;
                }
                Ok(u64::from_le_bytes(bytes))
            }
            None => Ok(u64::from_le_bytes(*take_chunk(&mut self.buf)?)),
        }
    }

    /// Reads an unsigned LEB128 varint of `class`: at most ten bytes, and
    /// the tenth may only carry the one bit a `u64` has left.
    #[inline]
    pub fn varint(&mut self, class: Class) -> Result<u64, BinDecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(class)?;
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

    /// Reads a varint length or count of `class`. It is unvalidated
    /// input: bound it by what the body can still hold before allocating
    /// on its say-so.
    #[inline]
    pub fn length(&mut self, class: Class) -> Result<usize, BinDecodeError> {
        usize::try_from(self.varint(class)?).map_err(BinDecodeError::msg)
    }

    /// Reads a zig-zag varint delta of `class` and applies it to `prev`,
    /// modulo 2^64 — the inverse of [`put_delta`].
    #[inline]
    pub fn delta(&mut self, class: Class, prev: u64) -> Result<u64, BinDecodeError> {
        let zigzag = self.varint(class)?;
        Ok(prev.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg()))
    }

    /// [`BinReader::delta`] for a 32-bit field: a delta that takes the
    /// value below zero or above `u32::MAX` is an error.
    #[inline]
    pub fn delta_u32(&mut self, class: Class, prev: u32) -> Result<u32, BinDecodeError> {
        u32::try_from(self.delta(class, prev.into())?)
            .map_err(|_| BinDecodeError::msg("delta leaves its 32-bit field"))
    }

    /// Takes the next `len` bytes as they are, outside a coded member
    /// section (inside one, a byte is a codeword, not itself).
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], BinDecodeError> {
        if self.live().is_some() {
            return Err(BinDecodeError::msg("verbatim bytes inside a coded member section"));
        }
        self.take(len)
    }

    /// Reads a varint-length-prefixed UTF-8 string (of [`Class::Other`]).
    pub fn string(&mut self) -> Result<String, BinDecodeError> {
        let len = self.length(Class::Other)?;
        let bytes = match self.live_mut() {
            Some(codes) => {
                let left = codes.stream.bits_left();
                if len > left {
                    return Err(BinDecodeError::msg(format!(
                        "truncated: a string of {len} bytes, {left} bits left"
                    )));
                }
                (0..len).map(|_| codes.symbol(Class::Other)).collect::<Result<_, _>>()?
            }
            None => self.take(len)?.to_vec(),
        };
        String::from_utf8(bytes).map_err(BinDecodeError::msg)
    }

    /// Reads a front-coded path — the inverse of
    /// [`SeqEncoder::put_front_coded`] — into this reader's arena: the
    /// first `shared` bytes of `base`, then the suffix, carried verbatim
    /// or, in a coded member section, as codewords of the path class.
    /// `base` is any path this reader assembled earlier (the
    /// predecessor's, or the member's a path reference names), or one its
    /// connection's history holds. The handle is readable once the reader
    /// has sealed or dropped; until then it serves as a later member's
    /// base.
    ///
    /// The paths are assembled in the staging the reader was lent,
    /// which keeps the capacity its connection's frames grew it to, and
    /// sealed into its open group's next slot. A
    /// reader with none reserves it on the first call, at six times the
    /// bytes then left in the body (capped at [`FRAME_PATH_BUDGET`]) and
    /// never at a length the body claims; either grows from there within
    /// the budget.
    ///
    /// # Errors
    ///
    /// A shared length `base` cannot supply (any non-zero one when there
    /// is no `base`), a result longer than [`MAX_PATH_LEN`] or past this
    /// reader's [`FRAME_PATH_BUDGET`] — whichever member the bytes are
    /// shared from, every assembled path is charged to both, before a
    /// coded suffix is decoded — a coded suffix of more bytes than the
    /// bits left could hold, of codewords running past the body or of a
    /// codeword its code refuses, and assembled bytes that are not UTF-8.
    /// The halves are not validated separately: a shared prefix may
    /// legally end inside a multi-byte character.
    pub(crate) fn front_coded(
        &mut self,
        base: Option<PathView<'_>>,
    ) -> Result<EventPath, BinDecodeError> {
        let shared = self.length(Class::Shared)?;
        let base_len = base.as_ref().map_or(0, PathView::len);
        if shared > base_len {
            return Err(BinDecodeError::msg(format!(
                "shared prefix {shared} exceeds its base's {base_len} bytes"
            )));
        }
        let carried = self.length(Class::Carried)?;
        let len = shared.saturating_add(carried);
        if len > MAX_PATH_LEN {
            return Err(BinDecodeError::msg(format!("path of {len} bytes exceeds {MAX_PATH_LEN}")));
        }
        self.path_budget = self.path_budget.checked_sub(len).ok_or_else(|| {
            BinDecodeError::msg(format!("frame assembles more than {FRAME_PATH_BUDGET} path bytes"))
        })?;
        let reserve = (ARENA_PER_BODY_BYTE * (self.bits_left() / 8)).min(FRAME_PATH_BUDGET);
        let suffix = match self.codes.as_mut().filter(|codes| codes.live) {
            None => self.take(carried)?,
            Some(codes) => codes.suffix(carried)?,
        };
        let staging = &mut self.staging;
        self.paths
            .get_or_insert_with(|| {
                let mut staging = staging.take().unwrap_or_default();
                staging.reserve_cold(reserve);
                PathArenaBuilder::with_staging(staging)
            })
            .push_front_coded(base, shared, suffix)
            .map_err(BinDecodeError::msg)
    }

    /// Reads the codes a coded frame carries — its class mask, then a
    /// table for each class the mask names, in class order, as
    /// [`code_members`] places them — and builds their lookup tables on
    /// this reader, so the member section decodes through them:
    ///
    /// ```text
    /// class mask = u16le: bit i set when Class::ALL[i] is coded
    /// table      = n−1 u8 | symbols | n 4-bit codeword lengths, high nibble
    ///              first, a last odd nibble zero
    /// symbols    = n < 32: the n byte values, strictly ascending
    ///              n ≥ 32: a 32-byte bitmap, bit (s & 7) of byte s >> 3 set
    ///              when byte value s has a codeword
    /// ```
    ///
    /// The lengths give the codewords: canonical, in order of length,
    /// then symbol. A one-symbol code's codeword is the one bit `0`, and
    /// the bit `1` is refused where it is read. Each code's lookup table
    /// has an entry for every `longest`-bit string, and a frame's tables
    /// share [`LOOKUP_ENTRIES`]; a class the mask leaves out reads its
    /// bytes eight bits each.
    ///
    /// # Errors
    ///
    /// Truncation, mask bits past the last class or no bit at all, a
    /// list that is not strictly ascending, a bitmap naming other than
    /// `n` symbols, a length of 0 or above [`MAX_CODE_LEN`], a non-zero
    /// padding nibble, a one-symbol code whose codeword is not one bit,
    /// lengths that over-subscribe a code of two symbols or more or leave
    /// it incomplete — so every bit string starts with at most one
    /// codeword — and codes whose lookup tables take more than
    /// [`LOOKUP_ENTRIES`].
    pub fn read_codes(&mut self) -> Result<(), BinDecodeError> {
        self.read_tables(false)?;
        self.build_lookups(None)
    }

    /// Reads the codes a frame that continues its connection carries: as
    /// [`BinReader::read_codes`] does, but behind the class mask comes a
    /// second, the *reuse* mask — `u16le`, within the first — and a class
    /// it names has no table here: it is coded under the code it had in
    /// the connection's last frame. The lookup tables are built once the
    /// history is at hand ([`BinReader::continue_from`]).
    ///
    /// # Errors
    ///
    /// Those of [`BinReader::read_codes`], and reuse bits outside the
    /// class mask.
    pub fn read_continuing_codes(&mut self) -> Result<(), BinDecodeError> {
        self.read_tables(true)
    }

    /// Reads the class mask — and on a continuing frame the reuse mask —
    /// and the tables of the classes coded under codes of their own.
    fn read_tables(&mut self, continues: bool) -> Result<(), BinDecodeError> {
        let mut word = || self.take(2).map(|word| u16::from_le_bytes([word[0], word[1]]));
        let (mask, reused) = (word()?, if continues { word()? } else { 0 });
        if mask >> CLASSES != 0 {
            return Err(BinDecodeError::msg(format!("unknown class-mask bits {mask:#06x}")));
        }
        if mask == 0 {
            return Err(BinDecodeError::msg("a coded frame whose class mask codes nothing"));
        }
        if reused & !mask != 0 {
            return Err(BinDecodeError::msg(format!(
                "reuse bits {reused:#06x} outside the class mask {mask:#06x}"
            )));
        }
        let codes = self.codes.get_or_insert_with(Codes::new);
        (codes.mask, codes.reused) = (mask, reused);
        for class in Class::ALL {
            if mask & !reused & class.bit() != 0 {
                read_table(&mut self.buf, class, &mut codes.held[class as usize])?;
            }
        }
        Ok(())
    }

    /// Builds the lookup tables of the frame's codes, a reused one's from
    /// `history`'s.
    ///
    /// # Errors
    ///
    /// A reuse bit for a class the history holds no code of, and codes
    /// whose lookup tables take more than [`LOOKUP_ENTRIES`].
    fn build_lookups(&mut self, history: Option<&History>) -> Result<(), BinDecodeError> {
        let Some(codes) = &mut self.codes else { return Ok(()) };
        let mut taken = 0;
        for class in Class::ALL {
            let c = class as usize;
            codes.longest[c] = 0;
            if codes.mask & class.bit() == 0 {
                continue;
            }
            if codes.reused & class.bit() != 0 {
                let Some(code) = history.and_then(|history| history.code(class)) else {
                    return Err(BinDecodeError::msg(format!(
                        "a reuse bit for a {class} code the previous frame did not carry"
                    )));
                };
                codes.held[c].copy_from(code);
            }
            let entries = 1 << codes.held[c].longest();
            if taken + entries > LOOKUP_ENTRIES {
                return Err(BinDecodeError::msg(format!(
                    "codes whose lookup tables take more than {LOOKUP_ENTRIES} entries"
                )));
            }
            codes.fill(class, taken);
            taken += entries;
        }
        Ok(())
    }

    /// Sets a continuing frame up to be read against its connection's
    /// `history`, once the caller has checked the frame starts where the
    /// history ends: the reused codes' lookup tables are built from it,
    /// the frame's codes — carried or reused — become the history's last
    /// ones, and the members read next may reach into it. Once the
    /// reader is gone the caller records the frame ([`History::record`])
    /// — or, should its members be refused, clears the history, whose
    /// codes are already the refused frame's.
    ///
    /// # Errors
    ///
    /// Those of building the lookup tables ([`BinReader::read_codes`]),
    /// and a reuse bit for a class the history's last frame had no code
    /// of.
    pub fn continue_from(&mut self, history: &'a mut History) -> Result<(), BinDecodeError> {
        self.build_lookups(Some(history))?;
        self.keep_codes(history);
        self.history = Some(&*history);
        Ok(())
    }

    /// Makes the frame's codes — none, for a raw frame — `history`'s last
    /// ones.
    pub fn keep_codes(&self, history: &mut History) {
        match &self.codes {
            Some(codes) => history.keep_codes(codes.mask, &codes.held),
            None => history.keep_codes(0, &[]),
        }
    }

    /// Enters the member section: from here to its end, a coded frame's
    /// bytes are one bit stream.
    fn begin_members(&mut self) {
        if let Some(codes) = &mut self.codes {
            codes.stream.bytes = std::mem::take(&mut self.buf);
            codes.live = true;
        }
    }

    /// Leaves the member section: a coded one ends at its first whole
    /// byte after the last codeword, and what follows is the frame's
    /// again.
    ///
    /// # Errors
    ///
    /// Codewords that ran past the body, padding bits that are not zero,
    /// and a code for a class the section has no byte of.
    fn end_members(&mut self) -> Result<(), BinDecodeError> {
        let Some(codes) = self.codes.as_mut().filter(|codes| codes.live) else { return Ok(()) };
        codes.live = false;
        codes.stream.check_within()?;
        let (used, bytes) = (codes.stream.bits_used(), codes.stream.bytes);
        let took = used.div_ceil(8);
        if used % 8 != 0 && bytes[took - 1] & (0xff >> (used % 8)) != 0 {
            return Err(BinDecodeError::msg(
                "the member section's final padding bits are not zero",
            ));
        }
        self.buf = &bytes[took..];
        let unused = codes.mask & !codes.used;
        if let Some(class) = Class::ALL.into_iter().find(|class| unused & class.bit() != 0) {
            return Err(BinDecodeError::msg(format!(
                "a {class} code on a section with no {class} bytes"
            )));
        }
        Ok(())
    }

    /// Reads a [`TraceContext`] (of [`Class::Other`]) — the inverse of
    /// [`put_trace`].
    pub fn trace(&mut self) -> Result<TraceContext, BinDecodeError> {
        Ok(TraceContext {
            trace_id: self.u64()?,
            parent_span_id: self.u64()?,
            sampled: match self.u8(Class::Other)? {
                0 => false,
                1 => true,
                other => return Err(BinDecodeError::msg(format!("invalid bool byte {other}"))),
            },
        })
    }
}

/// Reads one code table (see [`BinReader::read_codes`]) off the front of
/// `buf` into `code`.
fn read_table(buf: &mut &[u8], class: Class, code: &mut Code) -> Result<(), BinDecodeError> {
    code.n = 0;
    let n = usize::from(take(buf, 1)?[0]) + 1;
    if n < LIST_LIMIT {
        let list = take(buf, n)?;
        if list.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(BinDecodeError::msg(format!(
                "the {class} code's symbol list is not strictly ascending"
            )));
        }
        code.symbols[..n].copy_from_slice(list);
        code.n = n;
    } else {
        let bitmap: &[u8; CODE_BITMAP_LEN] = take_chunk(buf)?;
        for (first, word) in (0..).step_by(64).zip(bitmap.as_chunks::<8>().0) {
            let mut word = u64::from_le_bytes(*word);
            while word != 0 {
                code.symbols[code.n] = (first + word.trailing_zeros()) as u8;
                code.n += 1;
                word &= word - 1;
            }
        }
        if code.n != n {
            return Err(BinDecodeError::msg(format!(
                "the {class} code's bitmap names {} symbols, its count {n}",
                code.n
            )));
        }
    }
    let packed = take(buf, n.div_ceil(2))?;
    if n % 2 == 1 && packed[n / 2] & 0x0f != 0 {
        return Err(BinDecodeError::msg(format!("the {class} code's padding nibble is not zero")));
    }
    let mut kraft = 0u32;
    for (i, len) in code.lens[..n].iter_mut().enumerate() {
        *len = (packed[i / 2] >> if i % 2 == 0 { 4 } else { 0 }) & 0x0f;
        if *len == 0 || u32::from(*len) > MAX_CODE_LEN {
            return Err(BinDecodeError::msg(format!("a codeword length of {len}")));
        }
        kraft += 1 << (MAX_CODE_LEN - u32::from(*len));
    }
    if n == 1 {
        if code.lens[0] != 1 {
            return Err(BinDecodeError::msg(format!(
                "a one-symbol {class} code whose codeword is {} bits, not one",
                code.lens[0]
            )));
        }
    } else if kraft != 1 << MAX_CODE_LEN {
        let why = if kraft > 1 << MAX_CODE_LEN { "over-subscribed" } else { "incomplete" };
        return Err(BinDecodeError::msg(format!("an {why} {class} code")));
    }
    Ok(())
}

/// The member section of a coded frame as its reader reads it: the bits
/// of `bytes`, most significant first.
#[derive(Clone, Copy)]
struct BitStream<'a> {
    /// The member section and the rest of the body.
    bytes: &'a [u8],
    /// The next `filled` bits of the stream, left-aligned; below them are
    /// zeros or the stream's own next bits, so topping it up — a word at
    /// a time, or near the end a byte at a time — is an OR.
    window: u64,
    filled: u32,
    /// The first byte of `bytes` not yet in `window`; past the end the
    /// stream reads zeros, which [`BitStream::check_within`] refuses
    /// after.
    next: usize,
}

impl BitStream<'_> {
    /// Tops `window` up to at least 57 bits.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.next..).and_then(<[u8]>::first_chunk::<8>) {
            self.window |= u64::from_be_bytes(*word) >> self.filled;
            let whole = (64 - self.filled) / 8;
            self.next += whole as usize;
            self.filled += 8 * whole;
        } else {
            while self.filled <= 56 {
                let byte = self.bytes.get(self.next).copied().unwrap_or(0);
                self.window |= u64::from(byte) << (56 - self.filled);
                self.next += 1;
                self.filled += 8;
            }
        }
    }

    /// Reads one symbol through a code whose lookup table is
    /// `entries[offset..]` and whose longest codeword is `longest` bits —
    /// or, when `longest` is 0, eight bits as they are — and returns its
    /// entry: the symbol in the low byte, the codeword's length in the
    /// high, a length of 0 for a codeword the code refuses.
    #[inline(always)]
    fn read(&mut self, entries: &[u16; LOOKUP_ENTRIES], offset: usize, longest: u32) -> u16 {
        if self.filled < MAX_CODE_LEN {
            self.refill();
        }
        let entry = match longest {
            0 => (8 << 8) | (self.window >> 56) as u16,
            _ => entries[offset + (self.window >> (64 - longest)) as usize],
        };
        let bits = u32::from(entry >> 8);
        self.window <<= bits;
        self.filled -= bits;
        entry
    }

    #[inline]
    fn bits_used(&self) -> usize {
        8 * self.next - self.filled as usize
    }

    fn bits_left(&self) -> usize {
        (8 * self.bytes.len()).saturating_sub(self.bits_used())
    }

    /// # Errors
    ///
    /// Codewords that ran past the body.
    #[inline]
    fn check_within(&self) -> Result<(), BinDecodeError> {
        if self.bits_used() > 8 * self.bytes.len() {
            return Err(BinDecodeError::msg(format!(
                "truncated: codewords run {} bits past the body",
                self.bits_used() - 8 * self.bytes.len()
            )));
        }
        Ok(())
    }
}

/// A frame's codes as its reader holds them, and the bit stream of its
/// member section while that is being read. Beside them, room for one
/// decoded suffix, which the arena then takes as it takes a raw one.
struct Codes<'a> {
    /// The classes the frame codes, and of them those it codes under its
    /// connection's last frame's codes.
    mask: u16,
    reused: u16,
    /// Each coded class's code, as its table gave it or the history held it.
    held: [Code; CLASSES],
    /// The classes the section has read a byte of so far.
    used: u16,
    /// Each class's longest codeword, 0 for a class the frame carries
    /// raw, and where its lookup table starts in `entries`.
    longest: [u32; CLASSES],
    offset: [usize; CLASSES],
    /// Every code's lookup table, one after another: indexed by the next
    /// `longest` bits of the stream, an entry is the symbol those bits
    /// begin with (low byte) and its codeword's length (high byte).
    entries: [u16; LOOKUP_ENTRIES],
    /// Set while the member section is being read.
    live: bool,
    stream: BitStream<'a>,
    suffix: [u8; MAX_PATH_LEN],
}

impl fmt::Debug for Codes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Codes")
            .field("mask", &self.mask)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// The error for the codeword `1` of a one-symbol code — the only bit
/// string a code the reader accepted does not begin with a codeword of.
fn refused_codeword(class: Class) -> BinDecodeError {
    BinDecodeError::msg(format!("the codeword `1` of a one-symbol {class} code"))
}

impl Codes<'_> {
    /// Codes with empty tables, for [`BinReader::read_codes`] to fill.
    fn new() -> Self {
        Codes {
            mask: 0,
            reused: 0,
            held: std::array::from_fn(|_| Code::empty()),
            used: 0,
            longest: [0; CLASSES],
            offset: [0; CLASSES],
            entries: [0; LOOKUP_ENTRIES],
            live: false,
            stream: BitStream { bytes: &[], window: 0, filled: 0, next: 0 },
            suffix: [0; MAX_PATH_LEN],
        }
    }

    /// Fills `1 << code.longest()` entries from `at` for the canonical
    /// code `class` holds — a complete code, so each of them is written,
    /// or a one-symbol code, whose second entry is the refused codeword
    /// `1`.
    fn fill(&mut self, class: Class, at: usize) {
        let code = &self.held[class as usize];
        let longest = code.longest();
        (self.longest[class as usize], self.offset[class as usize]) = (longest, at);
        let (symbols, lens) = (&code.symbols[..code.n], &code.lens[..code.n]);
        let table = &mut self.entries[at..at + (1 << longest)];
        let mut next = first_codewords(lens);
        for (&symbol, &len) in symbols.iter().zip(lens) {
            let spare = longest - u32::from(len);
            let first = usize::from(next[usize::from(len)]) << spare;
            next[usize::from(len)] += 1;
            table[first..first + (1 << spare)].fill((u16::from(len) << 8) | u16::from(symbol));
        }
        if code.n == 1 {
            table[1] = 0;
        }
    }

    /// The next byte of `class`.
    ///
    /// # Errors
    ///
    /// The refused codeword of a one-symbol code.
    #[inline]
    fn symbol(&mut self, class: Class) -> Result<u8, BinDecodeError> {
        let c = class as usize;
        let entry = self.stream.read(&self.entries, self.offset[c], self.longest[c]);
        if entry >> 8 == 0 {
            return Err(refused_codeword(class));
        }
        self.used |= class.bit();
        Ok(entry as u8)
    }

    /// The next `len` bytes (at most [`MAX_PATH_LEN`]), a path's suffix.
    ///
    /// # Errors
    ///
    /// More bytes than the bits left could hold, the refused codeword of
    /// a one-symbol code, and codewords that ran past the body.
    fn suffix(&mut self, len: usize) -> Result<&[u8], BinDecodeError> {
        if len > self.stream.bits_left() {
            return Err(BinDecodeError::msg(format!(
                "truncated: a coded suffix of {len} bytes, {} bits left",
                self.stream.bits_left()
            )));
        }
        let c = Class::Path as usize;
        let (offset, longest) = (self.offset[c], self.longest[c]);
        let mut stream = self.stream;
        let mut refused = false;
        for out in &mut self.suffix[..len] {
            let entry = stream.read(&self.entries, offset, longest);
            refused |= entry >> 8 == 0;
            *out = entry as u8;
        }
        self.stream = stream;
        if refused {
            return Err(refused_codeword(Class::Path));
        }
        if len > 0 {
            self.used |= Class::Path.bit();
        }
        self.stream.check_within()?;
        Ok(&self.suffix[..len])
    }
}

/// Appends `value` as an unsigned LEB128 varint.
#[inline]
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
#[inline]
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
    for (x, y) in a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0) {
        let (x, y) = (u64::from_le_bytes(*x), u64::from_le_bytes(*y));
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
/// then the rest of `current` length-prefixed — the raw form, which a
/// member writes through [`SeqEncoder::put_front_coded`].
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

/// A [`SeqEncoder`]'s memory of its stream's directories: for each
/// parent directory, the latest member whose path lies in it — the
/// member a path reference would name. Fixed-size and open-addressed, so
/// a frame allocates nothing for it; a continuing frame
/// ([`SeqEncoder::begin`]) finds its connection's directories there
/// still, and a fresh one starts from an empty table.
///
/// A member is known by its *position*: its index in the stream of
/// members coded since the last fresh frame. A slot is `hash tag << 16 |
/// (position + 1) mod 2^16`, zero when empty, and what a lookup answers
/// is a distance back, modulo 2^16 — exact within a frame of fewer than
/// 65,536 members, and checked against what the stream holds by the
/// caller. The table never reads a path: two directories whose hashes
/// agree in slot and tag answer for each other, as does an entry 65,536
/// positions old, and the caller — who compares the bytes of whatever
/// member it is handed before coding against it — just falls back to the
/// predecessor. So a crafted directory name can cost a frame some
/// compression and nothing else; a full neighbourhood evicts, forgetting
/// a directory, and every 65,536th position is not remembered.
pub(crate) struct DirTable {
    slots: [u32; DIR_SLOTS],
    /// The slot the current member's lookup wrote and what it held
    /// before, so a member taken back leaves no trace ([`SeqEncoder::forget`]).
    undo: Option<(usize, u32)>,
}

impl DirTable {
    /// An empty table: the start of a sequence.
    fn new() -> DirTable {
        DirTable { slots: [0; DIR_SLOTS], undo: None }
    }

    /// Remembers the member at `position` as the latest in directory
    /// `dir`, and returns how far back the member remembered there before
    /// it is.
    pub(crate) fn replace(&mut self, dir: &[u8], position: u64) -> Option<usize> {
        let marker = (position.wrapping_add(1) & 0xffff) as u16;
        if marker == 0 {
            return None;
        }
        let hash = dir_hash(dir);
        let entry = (hash & 0xffff_0000) | u32::from(marker);
        let home = hash as usize % DIR_SLOTS;
        for probe in 0..DIR_PROBES {
            let at = (home + probe) % DIR_SLOTS;
            let slot = self.slots[at];
            if slot == 0 || slot >> 16 == hash >> 16 {
                (self.slots[at], self.undo) = (entry, Some((at, slot)));
                let before = (slot & 0xffff) as u16;
                return (before != 0).then(|| usize::from(marker.wrapping_sub(before)));
            }
        }
        (self.slots[home], self.undo) = (entry, Some((home, self.slots[home])));
        None
    }

    /// Puts back what the last member's lookup replaced.
    fn undo(&mut self) {
        if let Some((at, slot)) = self.undo.take() {
            self.slots[at] = slot;
        }
    }
}

/// Members a connection's history holds: how far before a continuing
/// frame's first member a path reference may reach. A protocol constant —
/// a reader holds exactly this many, and a writer never references
/// further — and the size of a [`SeqEncoder`]'s directory table.
pub const HISTORY_MEMBERS: usize = DIR_SLOTS;

/// What the data frames written, or read, on one connection carried, as
/// far as a frame that *continues* them needs it: the paths of their last
/// [`HISTORY_MEMBERS`] members, the last member's event and sequence
/// number, the codes the last frame carried or reused, and the key a
/// continuing frame must carry — an item frame's `first_seq`, a deliver
/// frame's first member's sequence number ([`BinPayload::seq`]); a store
/// reply carries none, its number on the connection
/// ([`History::take_number`]) proving its place. The writer's lives in its
/// [`SeqEncoder`], the reader's beside its frame reader; each records
/// every batch frame it codes or decodes ([`History::record`]), and both
/// record the same. The reader's also keeps the staging its frames'
/// paths are assembled in, and the group they seal into
/// ([`BinReader::stage_from`]).
///
/// Nothing is generic here: a member is kept as its event
/// ([`BinPayload::event`]), and one without an event as nothing — a
/// frame whose first member has none leaves an empty history, so such
/// payloads always go fresh. The storage is allocated once, by the first
/// frame recorded, and reused: a frame allocates nothing for it.
#[derive(Default)]
pub struct History {
    held: Option<Box<Held>>,
    /// The last number taken ([`History::take_number`]).
    numbered: u64,
    /// Where a frame's reader assembles its paths, and the group they
    /// seal into: empty while a reader has it, and until the first frame
    /// with paths has been read.
    staging: PathStaging,
}

struct Held {
    /// The key a continuing frame must carry; `None` when nothing is
    /// held.
    next_seq: Option<u64>,
    /// The next member's position: members recorded since the last fresh
    /// frame.
    next: u64,
    /// Each held member's path, at its position modulo the window: the
    /// slot of `arenas` holding its arena, and its place there; `None` for
    /// a member without an event.
    paths: Vec<Option<(u16, (u32, u32))>>,
    /// A handle on each arena those paths lie in, one for each run of
    /// members whose paths share it, beside the position of the run's
    /// first member, in a ring as long as the window: recording a member
    /// clones no handle but its run's first. A run takes the next slot and
    /// is let go once all its members have left the window, so the ring
    /// holds the runs from `oldest` to `arena` and pins no arena but those
    /// the held members' paths lie in.
    arenas: Vec<Option<(u64, EventPath)>>,
    /// The slot of `arenas` the latest run's arena is in.
    arena: usize,
    /// The slot of `arenas` the oldest run held is in.
    oldest: usize,
    /// The last member's event.
    last: Option<FileEvent>,
    /// The last member's sequence number ([`BinPayload::seq`]).
    last_seq: Option<u64>,
    /// Each class's code in the last frame — carried or reused — or none.
    codes: [Code; CLASSES],
}

impl Held {
    /// Lets go of the oldest runs while the run after them starts at or
    /// before position `first_held`: all their members have left the
    /// window. The latest run stays.
    fn release(&mut self, first_held: u64) {
        while self.oldest != self.arena {
            let after = (self.oldest + 1) % HISTORY_MEMBERS;
            if self.arenas[after].as_ref().is_some_and(|(first, _)| *first > first_held) {
                break;
            }
            self.arenas[self.oldest] = None;
            self.oldest = after;
        }
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("History")
            .field("next_seq", &self.next_seq())
            .field("held", &self.held())
            .finish()
    }
}

impl History {
    /// The key a frame that continues this history must carry — the
    /// sequence number it starts at; `None` when nothing is held.
    pub fn next_seq(&self) -> Option<u64> {
        self.held.as_ref().and_then(|held| held.next_seq)
    }

    /// Keeps `staging` — what [`BinReader::seal`] handed back — for the
    /// next frame's reader.
    pub fn restage(&mut self, staging: PathStaging) {
        self.staging = staging;
    }

    /// Forgets the members held: the next frame is fresh. The count of
    /// numbered frames goes on: a connection that refused one is ended.
    pub fn clear(&mut self) {
        if let Some(held) = &mut self.held {
            held.next_seq = None;
        }
    }

    /// Takes `number` if it is one past the last taken — a store connection
    /// numbers its frames from 1; any other is refused, and empties the history.
    pub fn take_number(&mut self, number: u64) -> Result<(), BinDecodeError> {
        let next = self.numbered + 1;
        if number != next {
            self.clear();
            return Err(BinDecodeError::msg(format!("store frame {number}, where {next} is next")));
        }
        self.numbered = number;
        Ok(())
    }

    /// Members a continuing frame may reach back into: the window, or
    /// fewer when fewer have been recorded since the last fresh frame.
    pub(crate) fn held(&self) -> usize {
        match &self.held {
            Some(held) if held.next_seq.is_some() => {
                usize::try_from(held.next).map_or(HISTORY_MEMBERS, |n| n.min(HISTORY_MEMBERS))
            }
            _ => 0,
        }
    }

    /// The last member's event.
    pub(crate) fn last(&self) -> Option<&FileEvent> {
        self.held.as_ref().and_then(|held| held.last.as_ref())
    }

    /// The last member's sequence number, when it carried one: what a
    /// continuing frame's sequenced first member is coded against.
    fn last_seq(&self) -> Option<u64> {
        self.held.as_ref().filter(|held| held.next_seq.is_some()).and_then(|held| held.last_seq)
    }

    /// The path of the member `k` before a continuing frame's first
    /// (`1..=held()`), if it had one.
    pub(crate) fn path_back(&self, k: usize) -> Option<PathView<'_>> {
        let held = self.held.as_ref().filter(|_| (1..=self.held()).contains(&k))?;
        let position = held.next - k as u64;
        let (arena, place) = held.paths[(position % HISTORY_MEMBERS as u64) as usize]?;
        Some(held.arenas[usize::from(arena)].as_ref()?.1.view_at(place))
    }

    /// The code `class` had in the last frame, if it had one.
    fn code(&self, class: Class) -> Option<&Code> {
        self.held.as_ref().map(|held| &held.codes[class as usize]).filter(|code| code.n > 0)
    }

    /// Records a frame keyed by `key` — the sequence number it started
    /// at; a store reply's is where the history ended, or 0 — carrying
    /// `members`: after a fresh frame (`continued` false) it is all the
    /// history holds, after a continuing one it extends it, and the next
    /// frame that continues it must carry a key `members.len()` later. A
    /// frame whose first member holds no event leaves no members held.
    /// The frame's codes are recorded apart: by the writer as it chooses
    /// them ([`code_members`]), by the reader as it reads them
    /// ([`BinReader::continue_from`], [`BinReader::keep_codes`]).
    pub fn record<T: BinPayload>(&mut self, continued: bool, key: u64, members: &[T]) {
        if members.first().and_then(T::event).is_none() {
            self.clear();
            return;
        }
        let held = self.held.get_or_insert_with(|| {
            Box::new(Held {
                next_seq: None,
                next: 0,
                paths: vec![None; HISTORY_MEMBERS],
                arenas: vec![None; HISTORY_MEMBERS],
                arena: 0,
                oldest: 0,
                last: None,
                last_seq: None,
                codes: std::array::from_fn(|_| Code::empty()),
            })
        });
        if !continued {
            // No member recorded before a fresh frame is reached again.
            held.release(u64::MAX);
            held.next = 0;
        }
        let mut last = None;
        for event in members.iter().map(T::event) {
            let path = event.map(|event| {
                let path = &event.path;
                let kept = held.arenas[held.arena].as_ref();
                if !kept.is_some_and(|(_, kept)| kept.shares_arena(path)) {
                    held.arena = (held.arena + 1) % HISTORY_MEMBERS;
                    if held.arena == held.oldest {
                        // A window's length of runs later, its members
                        // have left the window.
                        held.oldest = (held.oldest + 1) % HISTORY_MEMBERS;
                    }
                    held.arenas[held.arena] = Some((held.next, path.clone()));
                }
                (held.arena as u16, path.place())
            });
            held.paths[(held.next % HISTORY_MEMBERS as u64) as usize] = path;
            held.next += 1;
            last = event;
        }
        held.release(held.next.saturating_sub(HISTORY_MEMBERS as u64));
        held.last = last.cloned();
        held.last_seq = members.last().and_then(T::seq);
        held.next_seq = Some(key.wrapping_add(members.len() as u64));
    }

    /// Keeps a written frame's codes as the last frame's: each class in
    /// `mask` under its own code, or — in `reused` — under the one kept.
    fn keep_frame_codes(&mut self, mask: u16, reused: u16, classes: &[Priced; CLASSES]) {
        let Some(held) = &mut self.held else { return };
        for ((class, kept), priced) in Class::ALL.into_iter().zip(&mut held.codes).zip(classes) {
            if mask & !reused & class.bit() != 0 {
                kept.copy_from(&priced.code);
            } else if mask & class.bit() == 0 {
                kept.n = 0;
            }
        }
    }

    /// Keeps the codes of the classes in `mask` — a read frame's, carried
    /// or reused — as the last frame's; every other class has none.
    fn keep_codes(&mut self, mask: u16, codes: &[Code]) {
        let Some(held) = &mut self.held else { return };
        for (class, kept) in Class::ALL.into_iter().zip(&mut held.codes) {
            match codes.get(class as usize).filter(|_| mask & class.bit() != 0) {
                Some(code) => kept.copy_from(code),
                None => kept.n = 0,
            }
        }
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
    for word in dir[..dir.len().saturating_sub(1)].as_chunks::<8>().0 {
        hash = step(hash, u64::from_le_bytes(*word));
    }
    (step(hash, u64::from_le_bytes(last)).wrapping_mul(K) >> 32) as u32
}

/// The encoder's state for one member sequence, carried from member to
/// member: its directory table and, on a frame's raw pass
/// ([`SeqEncoder::for_coding`]), the class of every byte written, which
/// [`code_members`] codes the sequence by afterwards. A snapshot block's
/// lives on its writer's stack; a frame's in the connection's encoder,
/// kept from frame to frame with its tags' buffer and the [`History`] of
/// what it wrote ([`SeqEncoder::begin`], [`SeqEncoder::record`]).
///
/// A member encoder writes every field through it — [`SeqEncoder::byte`],
/// [`SeqEncoder::varint`], [`SeqEncoder::delta`], [`SeqEncoder::bytes`],
/// [`SeqEncoder::put_front_coded`], [`SeqEncoder::trace`] — naming the
/// [`Class`] of the bytes, which its decoder names again to read them.
pub struct SeqEncoder {
    pub(crate) dirs: DirTable,
    /// On a frame's raw pass, a tag for each byte of the member buffer:
    /// its class, as `u8`. The buffer and its tags start empty together
    /// ([`SeqEncoder::begin`]) and grow together, byte for byte.
    tags: Option<Vec<u8>>,
    /// What the connection's earlier frames carried.
    history: History,
    /// Whether the sequence being written continues `history`.
    continues: bool,
}

impl SeqEncoder {
    /// The encoder for a sequence that is never coded: a snapshot block.
    pub fn new() -> SeqEncoder {
        SeqEncoder::with_tags(None)
    }

    fn with_tags(tags: Option<Vec<u8>>) -> SeqEncoder {
        SeqEncoder { dirs: DirTable::new(), tags, history: History::default(), continues: false }
    }

    /// The encoder for a frame's raw pass, which [`code_members`] then
    /// codes: every byte written through it is tagged with its class, in
    /// a buffer of tags that runs beside the member buffer. The member
    /// buffer holds the members alone, back to back ([`put_member`]),
    /// from empty.
    pub fn for_coding() -> SeqEncoder {
        SeqEncoder::with_tags(Some(Vec::new()))
    }

    /// What the frames this encoder wrote carried.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Starts the next frame's sequence on an encoder kept from frame to
    /// frame: one that *continues* the history — its directory table,
    /// member positions, predecessor and codes carry on from the last
    /// frame recorded — or a fresh one, coded exactly as on a new encoder:
    /// an empty table, positions from 0, nothing before its first member.
    /// A frame's raw pass's tags start empty either way, as the member
    /// buffer must.
    pub fn begin(&mut self, continues: bool) {
        self.continues = continues && self.history.next_seq().is_some();
        if !self.continues {
            self.dirs.slots.fill(0);
        }
        if let Some(tags) = &mut self.tags {
            tags.clear();
        }
    }

    /// Records the frame just written, keyed by `key` and carrying
    /// `members`, in the history ([`History::record`]): what the
    /// next frame may continue. Its codes are recorded as
    /// [`code_members`] chooses them, after this.
    pub fn record<T: BinPayload>(&mut self, key: u64, members: &[T]) {
        self.history.record(self.continues, key, members);
    }

    /// Forgets the history: the next frame is fresh.
    pub fn forget_history(&mut self) {
        self.history.clear();
    }

    /// The history, when the sequence being written continues it.
    pub(crate) fn continued(&self) -> Option<&History> {
        self.continues.then_some(&self.history)
    }

    /// When the sequence being written continues its history, the
    /// sequence number of the history's last member, when it carried one —
    /// never the frame's key, which a store reply does not carry: a
    /// sequenced member first in the frame codes its own number against
    /// this rather than against 0, so it costs what it would one member
    /// later.
    pub fn seq_before(&self) -> Option<u64> {
        self.continued()?.last_seq()
    }

    /// The stream position of the sequence's member `index`.
    pub(crate) fn position(&self, index: usize) -> u64 {
        self.history.held.as_ref().filter(|_| self.continues).map_or(0, |h| h.next) + index as u64
    }

    /// Takes back the last member written, which starts at `buf[at..]`:
    /// its bytes and their tags, and its
    /// directory-table entry, so the member, coded again as the next
    /// frame's first, finds the table as it was.
    pub fn forget(&mut self, buf: &mut Vec<u8>, at: usize) {
        buf.truncate(at);
        if let Some(tags) = &mut self.tags {
            tags.truncate(at);
        }
        self.dirs.undo();
    }

    /// Tags the `written` bytes just appended as of `class`, on a frame's
    /// raw pass.
    #[inline]
    fn tag(&mut self, written: usize, class: Class) {
        if let Some(tags) = &mut self.tags {
            tags.resize(tags.len() + written, class as u8);
        }
    }

    /// Appends one byte of `class`.
    #[inline]
    pub fn byte(&mut self, buf: &mut Vec<u8>, class: Class, byte: u8) {
        buf.push(byte);
        self.tag(1, class);
    }

    /// Appends `bytes` as they are, of `class`.
    #[inline]
    pub fn bytes(&mut self, buf: &mut Vec<u8>, class: Class, bytes: &[u8]) {
        buf.extend_from_slice(bytes);
        self.tag(bytes.len(), class);
    }

    /// Appends `value` as a varint of `class` ([`put_varint`]).
    #[inline]
    pub fn varint(&mut self, buf: &mut Vec<u8>, class: Class, value: u64) {
        let from = buf.len();
        put_varint(buf, value);
        self.tag(buf.len() - from, class);
    }

    /// Appends `current − prev` as a zig-zag varint of `class`
    /// ([`put_delta`]).
    #[inline]
    pub fn delta(&mut self, buf: &mut Vec<u8>, class: Class, current: u64, prev: u64) {
        let from = buf.len();
        put_delta(buf, current, prev);
        self.tag(buf.len() - from, class);
    }

    /// Appends a [`TraceContext`] ([`put_trace`]), of [`Class::Other`].
    pub fn trace(&mut self, buf: &mut Vec<u8>, trace: &TraceContext) {
        let from = buf.len();
        put_trace(buf, trace);
        self.tag(buf.len() - from, Class::Other);
    }

    /// Appends `current` front-coded against a base it shares its first
    /// `shared` bytes with ([`put_front_coded`]): the shared length of
    /// [`Class::Shared`], the suffix's byte count of [`Class::Carried`]
    /// and its bytes of [`Class::Path`].
    pub fn put_front_coded(&mut self, buf: &mut Vec<u8>, current: &[u8], shared: usize) {
        let suffix = &current[shared..];
        self.varint(buf, Class::Shared, shared as u64);
        self.varint(buf, Class::Carried, suffix.len() as u64);
        self.bytes(buf, Class::Path, suffix);
    }
}

impl Default for SeqEncoder {
    fn default() -> SeqEncoder {
        SeqEncoder::new()
    }
}

/// A code as its table carries it: the byte values it codes, ascending,
/// and each one's codeword length; no symbols is no code. The code is
/// canonical — codewords are assigned in order of length, then symbol
/// ([`first_codewords`]) — so the lengths are all a decoder needs.
struct Code {
    n: usize,
    symbols: [u8; 256],
    lens: [u8; 256],
}

/// Scratch for building one code after another: a histogram's symbols'
/// weights, and [`huffman_lengths`]'s working arrays.
struct HuffmanScratch {
    weights: [u64; 256],
    order: [u64; 256],
    tree: [u64; 256],
}

impl Code {
    fn empty() -> Code {
        Code { n: 0, symbols: [0; 256], lens: [0; 256] }
    }

    /// Makes this code `other`, copying only the symbols it has.
    fn copy_from(&mut self, other: &Code) {
        self.n = other.n;
        self.symbols[..other.n].copy_from_slice(&other.symbols[..other.n]);
        self.lens[..other.n].copy_from_slice(&other.lens[..other.n]);
    }

    /// Builds over `self` the Huffman code for a histogram, its
    /// codewords limited to `limit` bits (at least the depth of a
    /// balanced tree over its symbols); a single byte value is a one-bit
    /// code. Leaves no code when no byte value occurs, or when the
    /// histogram is too small for any code of its symbols to pay for its
    /// table.
    fn build(&mut self, counts: &[u32; 256], limit: u32, scratch: &mut HuffmanScratch) {
        self.n = 0;
        let mut total = 0u64;
        for (first, chunk) in (0..).step_by(8).zip(counts.chunks_exact(8)) {
            // Most byte values never occur in a frame's bytes of a class.
            if chunk.iter().all(|&count| count == 0) {
                continue;
            }
            for (byte, &count) in (first..).zip(chunk) {
                if count > 0 {
                    (self.symbols[self.n], scratch.weights[self.n]) = (byte as u8, count.into());
                    self.n += 1;
                    total += u64::from(count);
                }
            }
        }
        // A codeword is at least a bit, so coding saves at most seven a
        // byte: a class that cannot save its table is not worth a code.
        if self.n == 0 || 7 * total <= 8 * self.table_len() as u64 {
            self.n = 0;
            return;
        }
        if self.n == 1 {
            self.lens[0] = 1;
            return;
        }
        // Too deep: flatten the weights and build again. Weights of one
        // stay one, so this ends at a balanced tree.
        while !huffman_lengths(self.n, scratch, &mut self.lens, limit) {
            scratch.weights[..self.n].iter_mut().for_each(|w| *w = w.div_ceil(2));
        }
    }

    /// The longest codeword's length.
    fn longest(&self) -> u32 {
        self.lens[..self.n].iter().copied().max().map_or(0, u32::from)
    }

    /// The depth of a balanced tree over this code's symbols: the least
    /// `longest` any code of them can have.
    fn shallowest(&self) -> u32 {
        self.n.next_power_of_two().trailing_zeros().max(1)
    }

    /// Bits the bytes `counts` tallies take under this code.
    fn bits(&self, counts: &[u32; 256]) -> u64 {
        let coded = self.symbols[..self.n].iter().zip(&self.lens);
        coded.map(|(&symbol, &len)| u64::from(counts[usize::from(symbol)]) * u64::from(len)).sum()
    }

    /// Bits the `total` bytes `counts` tallies take under this code, when
    /// it has a codeword for each of them.
    fn covering_bits(&self, counts: &[u32; 256], total: u64) -> Option<u64> {
        let (mut covered, mut bits) = (0, 0);
        for (&symbol, &len) in self.symbols[..self.n].iter().zip(&self.lens) {
            let count = u64::from(counts[usize::from(symbol)]);
            (covered, bits) = (covered + count, bits + count * u64::from(len));
        }
        (covered == total).then_some(bits)
    }

    /// Bytes the table takes in a frame.
    fn table_len(&self) -> usize {
        1 + if self.n < LIST_LIMIT { self.n } else { CODE_BITMAP_LEN } + self.n.div_ceil(2)
    }

    /// Writes the table ([`BinReader::read_codes`]) over `out`, which is
    /// [`Code::table_len`] bytes.
    fn put_table(&self, out: &mut [u8]) {
        out.fill(0);
        out[0] = (self.n - 1) as u8;
        let symbols = &self.symbols[..self.n];
        let nibbles = if self.n < LIST_LIMIT {
            out[1..=self.n].copy_from_slice(symbols);
            &mut out[1 + self.n..]
        } else {
            let (bitmap, nibbles) = out[1..].split_at_mut(CODE_BITMAP_LEN);
            symbols
                .iter()
                .for_each(|&symbol| bitmap[usize::from(symbol >> 3)] |= 1 << (symbol & 7));
            nibbles
        };
        for (i, &len) in self.lens[..self.n].iter().enumerate() {
            nibbles[i / 2] |= len << if i % 2 == 0 { 4 } else { 0 };
        }
    }

    /// Writes each byte value's codeword into `out`.
    fn codewords_into(&self, out: &mut [Codeword; 256]) {
        let mut next = first_codewords(&self.lens[..self.n]);
        for (&symbol, &len) in self.symbols[..self.n].iter().zip(&self.lens) {
            out[usize::from(symbol)] = (next[usize::from(len)] << 4) | Codeword::from(len);
            next[usize::from(len)] += 1;
        }
    }
}

/// The first codeword of each length, for a canonical code with `lens`
/// (each 1..=[`MAX_CODE_LEN`]): each length's codewords follow the
/// shorter ones', the way deflate assigns them.
fn first_codewords(lens: &[u8]) -> [u16; MAX_CODE_LEN as usize + 1] {
    let mut per_len = [0u16; MAX_CODE_LEN as usize + 1];
    lens.iter().for_each(|&len| per_len[usize::from(len)] += 1);
    let mut first = [0u16; MAX_CODE_LEN as usize + 1];
    for len in 1..first.len() {
        first[len] = (first[len - 1] + per_len[len - 1]) << 1;
    }
    first
}

/// Huffman codeword lengths for the first `n` of `scratch.weights` (at
/// least two, none zero), written to `lens` in the same order; false
/// when the longest exceeds `limit`. Computed in place, after Moffat and
/// Katajainen ("In-place calculation of minimum-redundancy codes",
/// 1995): one array of the weights, sorted ascending, becomes the inner
/// nodes' weights and parent pointers, then their depths, then each
/// leaf's length — nothing but that array and the sort order, in
/// `scratch`.
fn huffman_lengths(
    n: usize,
    scratch: &mut HuffmanScratch,
    lens: &mut [u8; 256],
    limit: u32,
) -> bool {
    let HuffmanScratch { weights, order, tree: a } = scratch;
    // Positions sorted by weight, then position: the code is a function
    // of the histogram alone. A frame's large alphabets (object-id
    // deltas, back-distances) are mostly of small weights, which a
    // counting sort puts in that order in one pass.
    let heaviest = weights[..n].iter().copied().max().unwrap_or(0);
    if n > 16 && heaviest < 256 {
        let mut starts = [0u16; 257];
        let starts = &mut starts[..heaviest as usize + 2];
        weights[..n].iter().for_each(|&weight| starts[weight as usize + 1] += 1);
        (1..starts.len()).for_each(|w| starts[w] += starts[w - 1]);
        for (i, &weight) in (0u64..).zip(&weights[..n]) {
            let slot = &mut starts[weight as usize];
            order[usize::from(*slot)] = (weight << 8) | i;
            *slot += 1;
        }
    } else {
        for ((slot, &weight), i) in order[..n].iter_mut().zip(&weights[..n]).zip(0u64..) {
            *slot = (weight << 8) | i;
        }
        order[..n].sort_unstable();
    }
    a[..n].iter_mut().zip(&order[..n]).for_each(|(a, &o)| *a = o >> 8);
    // Left to right: merge the two lightest of the leaves and the inner
    // nodes made so far; a merged node's slot then names its parent.
    a[0] += a[1];
    let (mut root, mut leaf) = (0, 2);
    for next in 1..n - 1 {
        if leaf >= n || a[root] < a[leaf] {
            (a[next], a[root]) = (a[root], next as u64);
            root += 1;
        } else {
            a[next] = a[leaf];
            leaf += 1;
        }
        if leaf >= n || (root < next && a[root] < a[leaf]) {
            a[next] += a[root];
            a[root] = next as u64;
            root += 1;
        } else {
            a[next] += a[leaf];
            leaf += 1;
        }
    }
    // Right to left: each inner node's depth, from its parent's.
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    // Right to left: as many leaves at each depth as the inner nodes
    // there leave room for.
    let (mut room, mut inner, mut depth) = (1, 0, 0);
    let (mut root, mut next) = (n as isize - 2, n as isize - 1);
    while room > 0 {
        while root >= 0 && a[root as usize] == depth {
            inner += 1;
            root -= 1;
        }
        while room > inner {
            a[next as usize] = depth;
            next -= 1;
            room -= 1;
        }
        (room, inner, depth) = (2 * inner, 0, depth + 1);
    }
    for (&o, &len) in order[..n].iter().zip(&a[..n]) {
        lens[(o & 0xff) as usize] = len as u8;
    }
    // The lightest leaf is the deepest.
    a[0] <= u64::from(limit)
}

/// A type with a binary payload form, coded relative to the earlier
/// members of the same sequence — and, in a frame that continues its
/// connection, to the [`History`] before it. Encoding appends to a
/// reusable scratch buffer; decoding reads from a [`BinReader`]
/// positioned at the value's first byte.
pub trait BinPayload: Sized {
    /// Appends the binary encoding of `self` to `buf`. `earlier` holds
    /// the members before this one in the same sequence, in order —
    /// empty for the first — and must be what the decoder will be
    /// handed; `seq` is the sequence's [`SeqEncoder`], through whose
    /// primitives every byte is written, naming its [`Class`]: a member
    /// with a path consults and updates its directory table and writes
    /// every front-coded string through [`SeqEncoder::put_front_coded`].
    fn encode_bin(&self, earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>);

    /// Decodes one value coded against `earlier`, consuming exactly its
    /// bytes from `r` — each read naming the class its write named.
    ///
    /// # Errors
    ///
    /// Returns [`BinDecodeError`] on truncated fields, invalid enum
    /// codes, malformed varints, deltas or prefix lengths, a reference
    /// to a member `earlier` does not hold, or non-UTF-8 string bytes.
    fn decode_bin(r: &mut BinReader<'_>, earlier: &[Self]) -> Result<Self, BinDecodeError>;

    /// The event this member holds, if any: what a [`History`] keeps of
    /// it. A member without one — and every member of a type without
    /// events — is neither a later frame's predecessor nor its path base.
    fn event(&self) -> Option<&FileEvent> {
        None
    }

    /// The sequence number this member carries, if any: a deliver frame's
    /// first member's is the key its [`History`] is recorded under, as an
    /// item frame's `first_seq` is. A frame whose first member carries
    /// none is never continued.
    fn seq(&self) -> Option<u64> {
        None
    }
}

impl BinPayload for u64 {
    fn encode_bin(&self, _earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        seq.bytes(buf, Class::Other, &self.to_le_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
        r.u64()
    }
}

impl BinPayload for String {
    fn encode_bin(&self, _earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        seq.varint(buf, Class::Other, self.len() as u64);
        seq.bytes(buf, Class::Other, self.as_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
        r.string()
    }
}

/// Most members one chunked frame or snapshot block holds. A member
/// assembles at most two paths of [`MAX_PATH_LEN`], so a sequence of
/// this many stays within its reader's [`FRAME_PATH_BUDGET`] whatever
/// its paths are: a writer that closes its frames and blocks here cannot
/// produce one its reader refuses.
pub const MAX_FRAME_MEMBERS: usize = FRAME_PATH_BUDGET / (2 * MAX_PATH_LEN);

/// Most members a decoder reserves room for on a count word's say-so;
/// a larger (still valid) sequence grows its `Vec` as members decode.
const MAX_RESERVED_MEMBERS: usize = 65_536;

/// Appends one sequence member: its encoding against `earlier`, the
/// members of the sequence so far — on a frame's raw pass
/// ([`SeqEncoder::for_coding`]), each byte tagged with its class. No
/// length goes with it: its decoder reads exactly the bytes its encoder
/// wrote.
///
/// # Panics
///
/// On a frame's raw pass, when any byte of the member was written to
/// `buf` other than through `seq`'s primitives — it would go untagged,
/// and be coded under a class its decoder does not read it with — or
/// when `buf` is not the member buffer `seq`'s tags run beside.
pub fn put_member<T: BinPayload>(
    buf: &mut Vec<u8>,
    member: &T,
    earlier: &[T],
    seq: &mut SeqEncoder,
) {
    seq.dirs.undo = None;
    member.encode_bin(earlier, seq, buf);
    if let Some(tags) = &seq.tags {
        assert_eq!(tags.len(), buf.len(), "a member writes every byte through its SeqEncoder");
    }
}

/// Appends a member sequence — the one form a run of events takes as
/// bytes in a data frame: the member count, then the members back to
/// back, each coded against the ones before it.
///
/// ```text
/// members = count varint | count × member
///           member 0 coded against nothing, member i against members 0..i
/// ```
///
/// This is the raw form; a frame's members are written raw by
/// [`put_member`], tagged, and then laid out raw or coded by
/// [`code_members`].
pub fn put_members<T: BinPayload>(buf: &mut Vec<u8>, members: &[T]) {
    let mut seq = SeqEncoder::new();
    put_varint(buf, members.len() as u64);
    for (i, member) in members.iter().enumerate() {
        put_member(buf, member, &members[..i], &mut seq);
    }
}

/// A byte's codeword as [`BitWriter::put`] takes it: `bits << 4 |
/// length`, twelve bits and four.
type Codeword = u16;

/// Each class's codewords, indexed by byte value.
type Codewords = [[Codeword; 256]; CLASSES];

/// Writes codewords into a slice sized for them, four bytes at a time:
/// the low `held` bits of `pending` are not yet written (above them are
/// bits already written, which shift out).
struct BitWriter<'a> {
    out: &'a mut [u8],
    at: usize,
    pending: u64,
    held: u32,
}

impl BitWriter<'_> {
    #[inline(always)]
    fn put(&mut self, codeword: Codeword) {
        let len = u32::from(codeword & 0xf);
        self.pending = (self.pending << len) | u64::from(codeword >> 4);
        self.held += len;
        if self.held >= 32 {
            self.held -= 32;
            let word = (self.pending >> self.held) as u32;
            self.out[self.at..self.at + 4].copy_from_slice(&word.to_be_bytes());
            self.at += 4;
        }
    }

    /// Writes the bits still held, zero-padded to a byte, and returns
    /// how many bytes were written.
    fn finish(mut self) -> usize {
        while self.held >= 8 {
            self.held -= 8;
            self.out[self.at] = (self.pending >> self.held) as u8;
            self.at += 1;
        }
        if self.held > 0 {
            self.out[self.at] = (self.pending << (8 - self.held)) as u8;
            self.at += 1;
        }
        self.at
    }
}

/// One class of a tagged sequence, priced: its bytes' bits raw, its code
/// when one could pay, and their bits under that code — and, in a frame
/// that continues its connection, their bits under the class's code in
/// the last frame, when that has a codeword for each of them; and which
/// of the two codes the class goes under, if it is coded.
struct Priced {
    raw_bits: u64,
    code: Code,
    coded_bits: u64,
    last_bits: Option<u64>,
    reuse: bool,
}

impl Priced {
    /// Bits coding the class under its own code saves the frame, its
    /// table's included; negative when it costs.
    fn own_saving(&self) -> i64 {
        self.raw_bits as i64 - self.coded_bits as i64 - 8 * self.code.table_len() as i64
    }

    /// Bits coding the class under the last frame's code saves the
    /// frame, when that code can code it.
    fn reused_saving(&self) -> Option<i64> {
        self.last_bits.map(|bits| self.raw_bits as i64 - bits as i64)
    }

    /// The code the class goes under, coded: its own, or `last`.
    fn under<'c>(&'c self, last: Option<&'c Code>) -> &'c Code {
        match last.filter(|_| self.reuse) {
            Some(code) => code,
            None => &self.code,
        }
    }

    /// Bits the class's bytes take coded, and the bytes its table does.
    fn coded(&self) -> (u64, usize) {
        match self.last_bits.filter(|_| self.reuse) {
            Some(bits) => (bits, 0),
            None => (self.coded_bits, self.code.table_len()),
        }
    }

    /// (Re)builds the class's code for `counts`, its codewords limited to
    /// `limit` bits, and goes under it if coded.
    fn build(&mut self, counts: &[u32; 256], limit: u32, scratch: &mut HuffmanScratch) {
        self.code.build(counts, limit, scratch);
        self.coded_bits = self.code.bits(counts);
        self.reuse = false;
    }

    /// Picks the code that saves more, and says whether it saves bits.
    fn choose(&mut self) -> bool {
        let (own, reused) = ((self.code.n > 0).then(|| self.own_saving()), self.reused_saving());
        self.reuse = match (own, reused) {
            (Some(own), Some(reused)) => reused > own,
            (None, reused) => reused.is_some(),
            (Some(_), None) => false,
        };
        (if self.reuse { reused } else { own }).is_some_and(|saving| saving > 0)
    }
}

/// The encoder's cost choice for a frame's member sequence: the `count`
/// members a frame's raw pass, `raw` ([`SeqEncoder::for_coding`]), wrote
/// to `members` and tagged, appended to `body` behind their count, raw or
/// coded. One walk over the section's bytes and their tags makes each
/// class's histogram; from it the encoder builds each class's
/// length-limited Huffman code and prices the class on its own — raw, or
/// coded with its table, exactly, each byte's codeword length summed, or,
/// when the sequence continues its connection ([`SeqEncoder::begin`]),
/// under the code the class had in the last frame with no table, when
/// that code has a codeword for each of its bytes — and codes the classes
/// a code saves bytes on, under the code that saves more. Then: while the
/// codes' lookup tables would take more than [`LOOKUP_ENTRIES`], the
/// deepest is given up if reused, or built again a bit shallower (and
/// left raw if it no longer pays). The section goes out
/// coded only when that, masks and tables included, is smaller than raw:
/// the class mask (and a continuing sequence's reuse mask) and the tables
/// of the classes not reused go in at `table_at` (in class order), what
/// lay between moves up, the same walk again puts each byte's codeword
/// under its tag's class's code, or the byte itself, and the mask is
/// returned. Otherwise the section goes out as it is, and 0 is returned.
/// Either way the codes the frame went under become the history's last
/// ones. Like the path reference, this is a cost choice made frame by
/// frame, not an option. Nothing is allocated beyond `body`'s own growth.
///
/// # Panics
///
/// When `members` is not the section `raw` tagged.
pub fn code_members(
    body: &mut Vec<u8>,
    table_at: usize,
    count: usize,
    members: &[u8],
    raw: &mut SeqEncoder,
) -> u16 {
    let SeqEncoder { tags, history, continues, .. } = raw;
    let tags = tags.as_deref().unwrap_or(&[]);
    assert_eq!(tags.len(), members.len(), "the member section is the one its encoder tagged");
    let count_at = body.len();
    put_varint(body, count as u64);
    let mut count_bytes = [0u8; 10];
    let count_len = body.len() - count_at;
    count_bytes[..count_len].copy_from_slice(&body[count_at..]);
    let count_bytes = &count_bytes[..count_len];
    let raw_len = count_len + members.len();
    let mut counts = [[0u32; 256]; CLASSES];
    count_bytes.iter().for_each(|&byte| counts[Class::Other as usize][usize::from(byte)] += 1);
    for (&byte, &tag) in members.iter().zip(tags) {
        counts[usize::from(tag)][usize::from(byte)] += 1;
    }
    // The codes the connection's last frame went under, when this one
    // continues it.
    let last = |class: Class| history.code(class).filter(|_| *continues);

    let mut scratch = HuffmanScratch { weights: [0; 256], order: [0; 256], tree: [0; 256] };
    let mut classes: [Priced; CLASSES] = std::array::from_fn(|_| Priced {
        raw_bits: 0,
        code: Code::empty(),
        coded_bits: 0,
        last_bits: None,
        reuse: false,
    });
    let mut mask = 0u16;
    for ((class, priced), counts) in Class::ALL.into_iter().zip(&mut classes).zip(&counts) {
        priced.raw_bits = 8 * counts.iter().map(|&n| u64::from(n)).sum::<u64>();
        if priced.raw_bits > 0 {
            priced.build(counts, MAX_CODE_LEN, &mut scratch);
            let total = priced.raw_bits / 8;
            priced.last_bits = last(class).and_then(|code| code.covering_bits(counts, total));
            if priced.choose() {
                mask |= class.bit();
            }
        }
    }
    let coded = |mask: u16| Class::ALL.into_iter().filter(move |class| mask & class.bit() != 0);

    // The decoder's lookup tables: the deepest code is flattened until
    // they fit — a reused one is given up for the class's own first. A
    // balanced code of a class takes at most 256 entries, so one deep
    // enough to flatten is there while they do not.
    loop {
        let depth = |class: Class| classes[class as usize].under(last(class)).longest();
        let entries: usize = coded(mask).map(|class| 1 << depth(class)).sum();
        let deepest = coded(mask).max_by_key(|&class| depth(class));
        let Some(deepest) = deepest.filter(|_| entries > LOOKUP_ENTRIES) else { break };
        let limit = depth(deepest) - 1;
        let priced = &mut classes[deepest as usize];
        if priced.reuse {
            (priced.reuse, priced.last_bits) = (false, None);
        } else {
            debug_assert!(limit >= priced.code.shallowest());
            priced.build(&counts[deepest as usize], limit, &mut scratch);
        }
        if !priced.choose() {
            mask &= !deepest.bit();
        }
    }

    // The section's bytes and the tables' under the codes `mask` names.
    let (mut bits, mut tables_len) = (0, 0);
    for (class, priced) in Class::ALL.into_iter().zip(&classes) {
        let (class_bits, table) = match mask & class.bit() {
            0 => (priced.raw_bits, 0),
            _ => priced.coded(),
        };
        (bits, tables_len) = (bits + class_bits, tables_len + table);
    }
    let coded_len = bits.div_ceil(8) as usize;
    let reused = coded(mask).filter(|&class| classes[class as usize].reuse);
    let reused = reused.fold(0, |reused, class| reused | class.bit());
    let masks_len = if *continues { 4 } else { 2 };
    let header_len = masks_len + tables_len;
    if mask == 0 || header_len + coded_len >= raw_len {
        body.extend_from_slice(members);
        history.keep_codes(0, &[]);
        return 0;
    }

    let mut codewords: Codewords = [[0; 256]; CLASSES];
    for ((class, priced), codewords) in Class::ALL.into_iter().zip(&classes).zip(&mut codewords) {
        if mask & class.bit() != 0 {
            classes[class as usize].under(last(class)).codewords_into(codewords);
        } else if priced.raw_bits > 0 {
            *codewords = std::array::from_fn(|byte| ((byte as Codeword) << 4) | 8);
        }
    }
    // [.. table_at | head | count] → [.. table_at | masks | tables | head | coded]:
    // the head moves up behind the masks and tables, and the coded count
    // and members follow it.
    body.resize(count_at + header_len + coded_len, 0);
    body.copy_within(table_at..count_at, table_at + header_len);
    body[table_at..table_at + 2].copy_from_slice(&mask.to_le_bytes());
    if *continues {
        body[table_at + 2..table_at + 4].copy_from_slice(&reused.to_le_bytes());
    }
    let mut at = table_at + masks_len;
    for code in coded(mask & !reused).map(|class| &classes[class as usize].code) {
        code.put_table(&mut body[at..at + code.table_len()]);
        at += code.table_len();
    }
    let out = &mut body[count_at + header_len..];
    let written = transcode(count_bytes, members, tags, &codewords, out);
    debug_assert_eq!(written, coded_len, "the price was not the bytes");
    history.keep_frame_codes(mask, reused, &classes);
    mask
}

/// Writes a sequence's count bytes `count` and its raw `members` as
/// codewords into `out` — each member byte under the codewords of the
/// class its tag names, the count's under the other class's — and
/// returns the bytes written.
fn transcode(
    count: &[u8],
    members: &[u8],
    tags: &[u8],
    codewords: &Codewords,
    out: &mut [u8],
) -> usize {
    let mut bits = BitWriter { out, at: 0, pending: 0, held: 0 };
    let other = &codewords[Class::Other as usize];
    count.iter().for_each(|&byte| bits.put(other[usize::from(byte)]));
    for (&byte, &tag) in members.iter().zip(tags) {
        bits.put(codewords[usize::from(tag)][usize::from(byte)]);
    }
    bits.finish()
}

/// Reads a member sequence back — the inverse of [`put_members`] and
/// [`code_members`] — handing each member's decoder the members
/// before it. In a frame whose reader holds codes
/// ([`BinReader::read_codes`]), the sequence is the coded member section
/// and runs to the end of the body. The members are back to back: each
/// decoder reads its member's fields and stops where they end, and the
/// next member starts there. What follows the last member is the
/// caller's to refuse.
///
/// The member-count rule: every member is at least one byte, and a byte
/// at least one bit of a coded section, so a count of more members than
/// the bits after it is refused — and no sequence a writer makes is. What
/// the count may make the `Vec` reserve is a sixteenth of those bits, at
/// most 65,536 members; past that it grows only as members
/// decode, each one's bits within the body.
///
/// # Errors
///
/// A count past the bits after it, a member where the section has ended,
/// a member whose decoder fails — a field cut short among them — and in a
/// coded section, codewords that run past the body, a codeword its code
/// refuses, final padding that is not zero, and a code for a class the
/// section has no byte of.
pub fn read_members<T: BinPayload>(r: &mut BinReader<'_>) -> Result<Vec<T>, BinDecodeError> {
    r.begin_members();
    let count = r.length(Class::Other)?;
    let bits = r.bits_left();
    if count > bits {
        return Err(BinDecodeError::msg(format!("{count} members claimed in {bits} bits")));
    }
    let mut out: Vec<T> = Vec::with_capacity(count.min(bits / 16).min(MAX_RESERVED_MEMBERS));
    for i in 0..count {
        if r.bits_left() == 0 {
            return Err(BinDecodeError::msg(format!(
                "{count} members claimed, the section ends after {i}"
            )));
        }
        let member = T::decode_bin(r, &out)?;
        if let Some(codes) = r.live() {
            codes.stream.check_within()?;
        }
        out.push(member);
    }
    r.end_members()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: BinPayload>(value: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        value.encode_bin(&[], &mut SeqEncoder::new(), &mut buf);
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
            assert_eq!(r.varint(Class::Other).unwrap(), value);
            assert!(r.is_empty());
        }
        assert_eq!(varint_len(0x7f), 1);
        assert_eq!(varint_len(0x80), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_errors() {
        let varint = |bytes: &[u8]| BinReader::new(bytes).varint(Class::Other);
        // Eleven bytes: a continuation bit on the tenth.
        assert!(varint(&[0x80; 11]).is_err());
        assert!(varint(&[0xff; 16]).is_err());
        // Ten bytes whose last carries more than the 64th bit.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert!(varint(&buf).is_err());
        *buf.last_mut().unwrap() = 0x01;
        assert_eq!(varint(&buf).unwrap(), u64::MAX);
        // Truncated inside the varint.
        assert!(varint(&[0x80, 0x80]).is_err());
    }

    #[test]
    fn deltas_roundtrip_in_both_directions_and_across_the_wrap() {
        let edges = [0u64, 1, 63, 64, 1 << 40, i64::MAX as u64, (i64::MAX as u64) + 1, u64::MAX];
        for prev in edges {
            for current in edges {
                let mut buf = Vec::new();
                put_delta(&mut buf, current, prev);
                let mut r = BinReader::new(&buf);
                assert_eq!(r.delta(Class::Time, prev).unwrap(), current, "{prev} -> {current}");
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
        let read = |buf: &[u8], prev: u32| BinReader::new(buf).delta_u32(Class::Oid, prev);
        assert_eq!(read(&coded(7, 9), 9).unwrap(), 7);
        assert_eq!(read(&coded(u32::MAX.into(), 0), 0).unwrap(), u32::MAX);
        // −3 applied to 2, and +1 applied to u32::MAX.
        assert!(read(&coded(6, 9), 2).is_err());
        assert!(read(&coded(1, 0), u32::MAX).is_err());
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
        let path = r.front_coded(prev.as_ref().map(EventPath::view))?;
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
        // The encoder's primitive writes the same bytes.
        let mut buf = Vec::new();
        SeqEncoder::for_coding().put_front_coded(&mut buf, b"/a/b/two", 5);
        assert_eq!(buf, front_coded("/a/b/two", "/a/b/one"));
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
        let two = r.front_coded(Some(one.view())).unwrap();
        let three = r.front_coded(Some(two.view())).unwrap();
        drop(r);
        assert_eq!([one.as_str(), two.as_str(), three.as_str()], ["/a/b/one", "/a/b/two", "/a/c"]);
        assert!(one.shares_arena(&two) && two.shares_arena(&three));

        let mut r = BinReader::new(&[7, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!((r.u8(Class::Flags).unwrap(), r.u64().unwrap()), (7, 0));
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
            prev = r.front_coded(Some(prev.view())).unwrap();
        }
        let err = r.front_coded(Some(prev.view())).unwrap_err();
        assert!(err.to_string().contains("path bytes"), "got: {err}");
        drop(r);
        assert_eq!(prev.as_str().len(), MAX_PATH_LEN);
    }

    /// The table answers with how far back the latest member of a
    /// directory is, whatever other directories came between.
    #[test]
    fn the_dir_table_remembers_the_latest_member_of_each_directory() {
        let mut dirs = DirTable::new();
        let name = |d: u64| format!("/t0000001/d{d:07x}/");
        for d in 0..64 {
            assert_eq!(dirs.replace(name(d).as_bytes(), d), None, "directory {d} is new");
        }
        for d in 0..64 {
            assert_eq!(dirs.replace(name(d).as_bytes(), 64 + d), Some(64));
        }
        assert_eq!(dirs.replace(name(7).as_bytes(), 200), Some(200 - 71));
    }

    /// More directories than slots: the table evicts instead of growing
    /// or probing without bound, and whatever it answers is a member
    /// before the one asking. Positions run on past 2^16 — a stream of
    /// continuing frames — and distances stay exact across the wrap;
    /// only the position whose marker would be zero is not remembered.
    #[test]
    fn a_full_dir_table_evicts_and_never_invents_a_member() {
        let mut dirs = DirTable::new();
        let name = |d: u64| format!("/x{d:05x}/");
        let slots = DIR_SLOTS as u64;
        for round in 0..4 {
            for d in 0..4 * slots {
                let position = round * 4 * slots + d;
                if let Some(back) = dirs.replace(name(d).as_bytes(), position) {
                    assert!((1..=position as usize).contains(&back), "{back} back from {position}");
                }
            }
        }
        let mut dirs = DirTable::new();
        assert_eq!(dirs.replace(b"/a/", u64::from(u16::MAX)), None);
        assert_eq!(dirs.replace(b"/a/", 3), None, "position 65,535 was not remembered");
        assert_eq!(dirs.replace(b"/a/", 4), Some(1));
        let wrap = 3 << 16;
        assert_eq!(dirs.replace(b"/b/", wrap - 3), None);
        assert_eq!(dirs.replace(b"/b/", wrap + 5), Some(8), "exact across the wrap");
    }

    /// A member taken back leaves the table as it found it.
    #[test]
    fn a_forgotten_member_leaves_no_trace_in_the_dir_table() {
        let mut seq = SeqEncoder::new();
        assert_eq!(seq.dirs.replace(b"/a/", 0), None);
        seq.dirs.undo = None;
        assert_eq!(seq.dirs.replace(b"/a/", 5), Some(5));
        seq.forget(&mut Vec::new(), 0);
        assert_eq!(seq.dirs.replace(b"/a/", 5), Some(5), "the member at 0 is still the latest");
    }

    /// A connection's history keeps the staging its frames' paths are
    /// assembled in, warm for the next frame — but not staging a frame
    /// grew past [`MAX_STAGING`]: that is freed at the seal, and the next
    /// frame, staged afresh, still decodes equal.
    #[test]
    fn a_history_keeps_no_staging_past_the_limit() {
        use crate::{ChangelogKind, EventKind, Fid, MdtIndex, SimTime, MAX_STAGING};
        let frame = |count: u32, len: usize| -> Vec<FileEvent> {
            (0..count)
                .map(|i| FileEvent {
                    index: u64::from(i),
                    mdt: MdtIndex::new(0),
                    changelog_kind: ChangelogKind::Create,
                    kind: EventKind::Created,
                    time: SimTime::from_secs(u64::from(i)),
                    path: format!("/d{i:05}/{}", "x".repeat(len)).into(),
                    src_path: None,
                    target: Fid::new(1, i, 0),
                    is_dir: false,
                    extracted_unix_ns: None,
                    trace: None,
                })
                .collect()
        };
        let decode = |events: &[FileEvent], history: &mut History| -> Vec<FileEvent> {
            let mut body = Vec::new();
            put_members(&mut body, events);
            let mut r = BinReader::new(&body);
            r.stage_from(history);
            let decoded = read_members(&mut r).expect("decodes");
            history.restage(r.seal());
            decoded
        };
        let (small, large) = (frame(8, 30), frame(100, 4_000));
        let mut history = History::default();
        assert_eq!(decode(&small, &mut history), small);
        let warm = history.staging.capacity();
        assert!((1..=MAX_STAGING).contains(&warm), "kept {warm} bytes of staging");
        assert_eq!(decode(&small, &mut history), small);
        assert_eq!(history.staging.capacity(), warm, "the same storage, reused");

        assert_eq!(decode(&large, &mut history), large);
        assert_eq!(history.staging.capacity(), 0, "400 KB of staging is not kept");
        assert_eq!(decode(&small, &mut history), small);
        assert!((1..=MAX_STAGING).contains(&history.staging.capacity()));
    }

    /// A frame that continues its connection codes its first member
    /// against the last frame's last, and a path reference reaches back
    /// into the frames before it: bases sealed in earlier slots of the
    /// group the frame seals into, which are read sealed, not from the
    /// staging the frame is assembled in. Nineteen frames on one history
    /// fill two groups and open a third.
    #[test]
    fn a_base_in_an_earlier_slot_of_the_frames_group_decodes_equal() {
        use crate::{ChangelogKind, EventKind, Fid, MdtIndex, SimTime, ARENA_BATCHES};
        const MEMBERS: u64 = 4;
        let event = |i: u64| FileEvent {
            index: i,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(i),
            path: format!("/t/d{}/f{i:05}", i % 3).into(),
            src_path: None,
            target: Fid::new(1, i as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        };
        let (mut seq, mut history) = (SeqEncoder::new(), History::default());
        let mut firsts: Vec<FileEvent> = Vec::new();
        for frame in 0..2 * ARENA_BATCHES as u64 + 3 {
            let key = frame * MEMBERS;
            let members: Vec<FileEvent> = (key..key + MEMBERS).map(event).collect();
            let continues = frame > 0;
            seq.begin(continues);
            let mut body = Vec::new();
            put_varint(&mut body, MEMBERS);
            for (i, member) in members.iter().enumerate() {
                put_member(&mut body, member, &members[..i], &mut seq);
            }
            seq.record(key, &members);
            let (decoded, staging) = {
                let mut r = BinReader::new(&body);
                r.stage_from(&mut history);
                if continues {
                    r.continue_from(&mut history).expect("continues");
                }
                let decoded = read_members::<FileEvent>(&mut r);
                (decoded, r.seal())
            };
            history.restage(staging);
            let decoded = decoded.expect("decodes");
            assert_eq!(decoded, members, "frame {frame}");
            history.record(continues, key, &decoded);
            firsts.push(decoded[0].clone());
        }
        let last_of_first = &firsts[ARENA_BATCHES - 1].path;
        assert!(firsts[1].path.shares_arena(last_of_first), "one group");
        assert!(!firsts[ARENA_BATCHES].path.shares_arena(last_of_first), "the ninth opens one");
    }

    /// A history lets go of a run of members sharing an arena once all
    /// of them have left the window: however many frames it has recorded,
    /// it pins only the arenas its held members' paths lie in — for
    /// frames of 256 members, eight to a group, at most two groups.
    #[test]
    fn a_history_pins_only_the_arenas_its_window_reaches() {
        use crate::{
            ChangelogKind, EventKind, Fid, MdtIndex, PathArenaBuilder, PathStaging, SimTime,
        };
        let event = |i: u64, path: EventPath| FileEvent {
            index: i,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_secs(i),
            path,
            src_path: None,
            target: Fid::new(1, i as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        };
        let runs = |history: &History| {
            history.held.as_ref().map_or(0, |held| held.arenas.iter().flatten().count())
        };
        let (mut history, mut staging) = (History::default(), PathStaging::default());
        for frame in 0..64 {
            let mut paths = PathArenaBuilder::with_staging(staging);
            let events: Vec<FileEvent> = (frame * 256..(frame + 1) * 256)
                .map(|i| event(i, paths.push_parts(&["/d/f", &i.to_string()])))
                .collect();
            staging = paths.seal();
            history.record(frame > 0, frame * 256, &events);
            assert!(runs(&history) <= 2, "frame {frame}: {} runs held", runs(&history));
        }
        // Events built one at a time, each in an arena of its own: a run
        // each, and a window's worth held — across the ring's wrap.
        let loose: Vec<FileEvent> =
            (0..2 * HISTORY_MEMBERS as u64).map(|i| event(i, format!("/l/{i}").into())).collect();
        history.record(true, 64 * 256, &loose);
        assert_eq!(runs(&history), HISTORY_MEMBERS);
        assert_eq!(history.path_back(1).map(|path| path.as_str()), Some("/l/2047"));
        assert_eq!(history.path_back(HISTORY_MEMBERS).map(|p| p.as_str()), Some("/l/1024"));
        // A fresh frame lets go of every member before it.
        history.record(false, 0, &loose[..1]);
        assert_eq!(runs(&history), 1);
        assert_eq!(history.path_back(1).map(|path| path.as_str()), Some("/l/0"));
    }

    /// A count word never sizes the reservation: a count of more members
    /// than the bits after it is refused before anything is reserved, one
    /// past the members present where the section ends, and honest
    /// sequences decode whole — one-byte members too, more of them than a
    /// sixteenth of their bits.
    #[test]
    fn a_hostile_count_is_rejected_not_allocated() {
        let mut body = Vec::new();
        put_varint(&mut body, u64::MAX);
        assert!(read_members::<u64>(&mut BinReader::new(&body)).is_err());

        // 43 empty strings are a byte each: 43 decode; 344 is a member a
        // bit, past what 43 bytes hold; 345 is refused on its count alone.
        let read = |count: u64| {
            let mut body = Vec::new();
            put_varint(&mut body, count);
            body.extend([0; 43]);
            read_members::<String>(&mut BinReader::new(&body))
        };
        assert_eq!(read(43).unwrap(), vec![String::new(); 43]);
        for (count, why) in
            [(44, "44 members claimed, the section ends after 43"), (344, "after 43")]
        {
            let err = read(count).unwrap_err();
            assert!(err.to_string().contains(why), "{count}: {err}");
        }
        let err = read(345).unwrap_err();
        assert!(err.to_string().contains("345 members claimed in 344 bits"), "{err}");
        let honest: Vec<u64> = (0..512).collect();
        let mut body = Vec::new();
        put_members(&mut body, &honest);
        assert_eq!(read_members::<u64>(&mut BinReader::new(&body)).unwrap(), honest);
    }

    fn scratch() -> HuffmanScratch {
        HuffmanScratch { weights: [0; 256], order: [0; 256], tree: [0; 256] }
    }

    /// The code [`Code::build`] makes of `counts`, if any.
    fn code_for(counts: &[u32; 256], limit: u32) -> Option<Code> {
        let mut code = Code::empty();
        code.build(counts, limit, &mut scratch());
        (code.n > 0).then_some(code)
    }

    /// Sums each codeword's share of the code space: exactly
    /// `1 << MAX_CODE_LEN` for a complete code.
    fn kraft(code: &Code) -> u32 {
        code.lens[..code.n].iter().map(|&len| 1 << (MAX_CODE_LEN - u32::from(len))).sum()
    }

    /// Whatever the histogram and the limit, the code is complete and no
    /// codeword is longer than the limit: Fibonacci counts — the deepest
    /// tree there is, 29 bits for 30 symbols — are flattened until twelve
    /// (or nine) suffice; even counts of every byte give every byte eight
    /// bits; two bytes take a bit each; one byte value alone is a one-bit
    /// code; and a class too small to pay for any table has no code.
    #[test]
    fn codes_are_complete_and_no_deeper_than_their_limit() {
        let mut fibonacci = [0u32; 256];
        let (mut a, mut b) = (1u32, 1u32);
        for slot in &mut fibonacci[0x40..0x40 + 30] {
            *slot = a;
            (a, b) = (b, a + b);
        }
        for limit in [MAX_CODE_LEN, 9] {
            let code = code_for(&fibonacci, limit).unwrap();
            let lens = &code.lens[..code.n];
            assert_eq!((code.n, kraft(&code)), (30, 1 << MAX_CODE_LEN));
            assert_eq!(code.longest(), limit, "flattened to the limit, not past it");
            assert!(
                lens.windows(2).all(|pair| pair[0] >= pair[1]),
                "heavier symbols, shorter codewords"
            );
        }

        let code = code_for(&[7; 256], MAX_CODE_LEN).unwrap();
        assert!(code.lens.iter().all(|&len| len == 8));
        assert_eq!((code.shallowest(), code.table_len()), (8, 1 + 32 + 128));
        let mut two = [0; 256];
        (two[b'/' as usize], two[b'x' as usize]) = (1, 1_000);
        let code = code_for(&two, MAX_CODE_LEN).unwrap();
        assert_eq!((&code.symbols[..2], &code.lens[..2]), (&b"/x"[..], &[1, 1][..]));
        assert_eq!(code.bits(&two), 1_001);
        let mut one = [0; 256];
        one[b'x' as usize] = 9;
        let code = code_for(&one, MAX_CODE_LEN).unwrap();
        assert_eq!((code.n, code.lens[0], code.table_len()), (1, 1, 3));
        one[b'x' as usize] = 3;
        assert!(code_for(&one, MAX_CODE_LEN).is_none(), "3 bytes, 3 of table");
        assert!(code_for(&[0; 256], MAX_CODE_LEN).is_none());
    }

    /// A histogram's code depends on its weights' order alone, so scaling
    /// every weight by 256 leaves it as it was — and takes a large
    /// alphabet's weights from the counting sort's range to the
    /// comparison sort's: the two sorts make one code, ties included,
    /// shallow codes and flattened ones.
    #[test]
    fn both_weight_sorts_make_the_same_code() {
        let mut seed = 0x5dc1_0027u64;
        for n in [2usize, 3, 17, 115, 256] {
            for limit in [MAX_CODE_LEN, 9] {
                let mut counts = [0u32; 256];
                for slot in counts.iter_mut().take(n) {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // Mostly ones and twos, as an object-id class's are.
                    *slot = 1 + (seed >> 61) as u32 * (seed >> 58 & 1) as u32 * 30;
                }
                let small = code_for(&counts, limit).unwrap();
                let large = code_for(&counts.map(|count| count << 8), limit).unwrap();
                assert_eq!(small.lens[..n], large.lens[..n], "{n} symbols, limit {limit}");
            }
        }
    }

    /// A code of `n` symbols with counts that make it as balanced as it
    /// can be, from byte value `first` on.
    fn code_of(n: usize, first: u8) -> Code {
        let mut counts = [0u32; 256];
        counts[usize::from(first)..usize::from(first) + n].fill(100);
        code_for(&counts, MAX_CODE_LEN).unwrap()
    }

    /// A table lists its symbols below 32 and maps them at 32 and over —
    /// `n−1`, the symbols, the nibbles — and reads back to the same code.
    #[test]
    fn a_table_is_a_list_below_32_symbols_and_a_bitmap_from_32() {
        for (n, symbols_len) in [(1, 1), (2, 2), (31, 31), (32, 32), (33, 32), (256, 32)] {
            let code = code_of(n, if n == 256 { 0 } else { 0x20 });
            let mut table = vec![0xee; code.table_len()];
            code.put_table(&mut table);
            assert_eq!(table.len(), 1 + symbols_len + n.div_ceil(2), "{n} symbols");
            assert_eq!(usize::from(table[0]) + 1, n);
            if n < LIST_LIMIT {
                assert_eq!(table[1..=n], code.symbols[..n], "{n} symbols, listed");
            } else {
                let named: u32 = table[1..33].iter().map(|byte| byte.count_ones()).sum();
                assert_eq!(named as usize, n, "{n} symbols, mapped");
            }
            let mut read = Code::empty();
            read_table(&mut &table[..], Class::Path, &mut read).unwrap();
            assert_eq!(read.symbols[..n], code.symbols[..n]);
            assert_eq!(read.lens[..n], code.lens[..n]);
        }
    }

    /// A frame coding the flags class and the path class under the same
    /// table: every codeword the encoder assigns decodes to its own
    /// symbol as a flags byte and as a path byte; a one-symbol code's
    /// codeword `0` is its symbol, and its `1` is refused.
    #[test]
    fn every_codeword_decodes_to_its_symbol() {
        let mut counts = [0u32; 256];
        for (i, byte) in b"0123456789abcdef/dt".iter().enumerate() {
            counts[usize::from(*byte)] = 1 + (i as u32 * 37) % 11;
        }
        let code = code_for(&counts, MAX_CODE_LEN).unwrap();
        let mut table = vec![0; code.table_len()];
        code.put_table(&mut table);
        assert_eq!(table.len(), 1 + 18 + 9, "`n−1`, 18 listed symbols (`d` twice), 18 nibbles");
        let mut codewords = [0; 256];
        code.codewords_into(&mut codewords);
        let mask = (Class::Path.bit() | Class::Flags.bit()).to_le_bytes();
        for (symbol, &codeword) in (0..=u8::MAX).zip(&codewords) {
            if codeword == 0 {
                continue;
            }
            let (bits, len) = (codeword >> 4, codeword & 0xf);
            // The codeword, left-aligned in two bytes.
            let mut body = [&mask[..], &table[..], &table[..]].concat();
            body.extend((bits << (16 - len)).to_be_bytes());
            let mut r = BinReader::new(&body);
            r.read_codes().unwrap();
            r.begin_members();
            assert_eq!(r.u8(Class::Flags).unwrap(), symbol);
            assert_eq!(r.bits_left(), 16 - len as usize);
            // Back to the section's start, to read the same bits as a
            // path byte.
            let codes = r.codes.as_mut().unwrap();
            (codes.stream.window, codes.stream.filled, codes.stream.next) = (0, 0, 0);
            assert_eq!(codes.suffix(1).unwrap(), [symbol]);
        }

        // One symbol, `x`, one bit: `0` is `x`, `1` is no codeword.
        let one = [&Class::Kind.bit().to_le_bytes()[..], &[0, b'x', 0x10]].concat();
        for (bits, want) in [(0x00u8, Ok(b'x')), (0x80, Err(()))] {
            let body = [&one[..], &[bits]].concat();
            let mut r = BinReader::new(&body);
            r.read_codes().unwrap();
            r.begin_members();
            let got = r.u8(Class::Kind);
            assert_eq!(got.as_ref().map_err(|_| ()), want.as_ref().map_err(|_| ()));
            if let Err(err) = got {
                assert!(err.to_string().contains("codeword `1`"), "{err}");
            }
        }
    }

    /// Appends `members` as a frame's packer does — each written raw and
    /// tagged, then the sequence laid out raw or coded, the class mask and
    /// tables at `table_at` — and returns the mask.
    fn code_sequence<T: BinPayload>(buf: &mut Vec<u8>, table_at: usize, members: &[T]) -> u16 {
        let (mut seq, mut section) = (SeqEncoder::for_coding(), Vec::new());
        for (i, member) in members.iter().enumerate() {
            put_member(&mut section, member, &members[..i], &mut seq);
        }
        code_members(buf, table_at, members.len(), &section, &mut seq)
    }

    /// Sequences of every shape go out coded only when that is smaller,
    /// never larger than raw, and decode to what went in; the class mask
    /// and tables sit where the caller asks.
    #[test]
    fn a_coded_sequence_is_its_raw_bytes_under_its_classes_codes() {
        let strings: Vec<String> = (0..200).map(|i| format!("member {}", i % 7)).collect();
        let mut raw = vec![0xaa];
        put_members(&mut raw, &strings);
        let mut coded = vec![0xaa];
        let mask = code_sequence(&mut coded, 1, &strings);
        assert_eq!(mask & Class::Path.bit(), 0, "strings have no paths");
        assert_ne!(mask & Class::Other.bit(), 0, "{mask:#x}");
        assert_eq!(coded[1..3], mask.to_le_bytes());
        assert!(coded.len() < raw.len() / 2, "{} coded bytes, {} raw", coded.len(), raw.len());
        let mut r = BinReader::new(&coded);
        assert_eq!(r.u8(Class::Other).unwrap(), 0xaa);
        r.read_codes().unwrap();
        assert_eq!(read_members::<String>(&mut r).unwrap(), strings);
        assert!(r.is_empty());

        // Eight random bytes a member, and nothing beside them: no code
        // pays, and the sequence goes out raw.
        let random: Vec<u64> = (1..200u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let (mut raw, mut coded) = (Vec::new(), Vec::new());
        put_members(&mut raw, &random);
        assert_eq!(code_sequence(&mut coded, 0, &random), 0);
        assert_eq!(coded, raw);
        assert_eq!(raw.len(), 2 + 8 * 199, "a two-byte count, then the members back to back");
    }

    /// A member that writes one byte straight to the buffer, behind its
    /// encoder's back: after its first field, or after its last.
    struct Stray {
        last: bool,
    }

    impl BinPayload for Stray {
        fn encode_bin(&self, _earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
            seq.byte(buf, Class::Flags, 1);
            if !self.last {
                buf.push(2);
            }
            seq.byte(buf, Class::Path, 3);
            if self.last {
                buf.push(2);
            }
        }

        fn decode_bin(_: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
            unreachable!("never written")
        }
    }

    /// A frame's raw pass refuses a byte its encoder did not write, in
    /// the middle of a member, where it would go untagged and the bytes
    /// after it be coded under their neighbours' classes…
    #[test]
    #[should_panic(expected = "a member writes every byte through its SeqEncoder")]
    fn a_stray_byte_within_a_member_is_caught() {
        put_member(&mut Vec::new(), &Stray { last: false }, &[], &mut SeqEncoder::for_coding());
    }

    /// …and at its end, where it would go untagged — in every build, by
    /// one comparison of the member buffer with its tags.
    #[test]
    #[should_panic(expected = "a member writes every byte through its SeqEncoder")]
    fn a_stray_byte_ending_a_member_is_caught() {
        put_member(&mut Vec::new(), &Stray { last: true }, &[], &mut SeqEncoder::for_coding());
    }

    /// A member that writes its bytes in any class, as they are given.
    #[derive(Debug, Clone, PartialEq)]
    struct Classed(Vec<(Class, u8)>);

    impl BinPayload for Classed {
        fn encode_bin(&self, _earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
            self.0.iter().for_each(|&(class, byte)| seq.byte(buf, class, byte));
        }

        fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
            // Every member here is the same shape: three bytes of each of
            // the first four classes in turn.
            let classes =
                [Class::Path, Class::Oid, Class::Back, Class::Time].map(|class| [class; 3]);
            let read = classes.as_flattened().iter().map(|&class| Ok((class, r.u8(class)?)));
            read.collect::<Result<_, _>>().map(Classed)
        }
    }

    /// Four classes, each of two dozen byte values at Fibonacci counts:
    /// each one's code alone would be twelve bits deep and take 4,096
    /// lookup entries, 16,384 together. The encoder flattens the deepest,
    /// a bit at a time, until the four fit in 8,192 — and the frame still
    /// goes out coded and reads back, the reader having checked the same
    /// sum.
    #[test]
    fn the_encoder_keeps_a_frames_codes_within_the_lookup_entries() {
        let classes = [Class::Path, Class::Oid, Class::Back, Class::Time];
        let mut weights = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for symbol in 0..30u8 {
            weights.extend(std::iter::repeat_n(0x40 + symbol, a));
            (a, b) = (b, a + b);
        }
        // 60,000 bytes of each class, twelve a member.
        let members: Vec<Classed> = weights
            .chunks_exact(3)
            .take(20_000)
            .map(|three| {
                Classed(
                    classes
                        .iter()
                        .flat_map(|&class| three.iter().map(move |&b| (class, b)))
                        .collect(),
                )
            })
            .collect();
        let mut coded = Vec::new();
        let mask = code_sequence(&mut coded, 0, &members);
        let four: u16 = classes.iter().map(|class| class.bit()).sum();
        assert_eq!(mask, four, "the count's three bytes are left raw");
        let mut r = BinReader::new(&coded);
        r.read_codes().unwrap();
        let codes = r.codes.as_ref().unwrap();
        let entries: usize = codes.longest.iter().filter(|&&l| l > 0).map(|&l| 1 << l).sum();
        assert!(entries <= LOOKUP_ENTRIES, "{entries} entries");
        assert!(entries > LOOKUP_ENTRIES / 2, "flattened past need: {entries} entries");
        assert_eq!(read_members::<Classed>(&mut r).unwrap(), members);
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
