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
//! directory once (a [`SeqEncoder`]'s table is how the encoder finds that
//! member).
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
//! checksum. The chunked frame writers and the snapshot writer close a
//! sequence at [`MAX_FRAME_MEMBERS`]; a store reply is one sequence
//! however long it is — a consumer's recovery query may ask for every
//! event the store holds, 65,536 by default — so what bounds it is its
//! reader's [`FRAME_PATH_BUDGET`], not a member cap. Whoever wrote it, a
//! sequence claims no more members than half the bytes after its count
//! could hold: a raw member is at least two bytes.
//!
//! A frame's member section may also be **coded**
//! ([`put_members_coded`]): it is the raw section with every byte
//! replaced by a codeword — the bytes front-coded paths carry verbatim
//! under the frame's *path code*, every other byte (the count, the
//! length prefixes, flags, deltas, shared lengths, back-distances) under
//! its *field code*. Both are canonical Huffman codes built from the
//! frame's own bytes, and their tables travel in the frame
//! ([`BinReader::read_codes`]). The section is one bit stream, zero-padded
//! once, at its end. The encoder keeps each code only when it makes the
//! frame smaller, table included ([`code_members`]); a code the frame
//! does not carry leaves its bytes as they are, eight bits each. A
//! snapshot block is never coded.
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

/// Longest codeword either of a frame's codes may assign: the decoder's
/// lookup tables have `1 << MAX_CODE_LEN` entries.
pub const MAX_CODE_LEN: u32 = 12;

/// Bytes a code table's symbol bitmap takes: one bit per byte value.
const CODE_BITMAP_LEN: usize = 32;

/// The path arena a [`BinReader`] reserves, per body byte left when its
/// first path is read — never a length the body claims. A path is mostly
/// shared with a frame-mate's, and a coded member carries its fields and
/// suffix in a few bits each: a coded 256-member frame of the benchmark's
/// `resolve` shape assembles between four and five path bytes per body
/// byte (57-byte paths in 14-byte members), more with renames, so at four
/// times the body its arena would grow once.
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

/// Which of a member section's two codes a frame carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionCodes {
    /// The path code: the bytes front-coded paths carry verbatim.
    pub path: bool,
    /// The field code: every other byte of the member section.
    pub field: bool,
}

/// A cursor over a received binary payload. All reads are bounds-checked
/// and borrow from the underlying frame; nothing is copied until a field
/// needs an owned value.
///
/// The reader also owns the path bytes its frame assembles: every
/// [`BinReader::front_coded`] string lands in one arena, which is sealed
/// — and the [`EventPath`]s into it become readable — when the reader
/// drops. A decoder therefore returns its events only after its reader
/// is gone, and on an error returns none.
///
/// It holds its frame's codes too, once [`BinReader::read_codes`] has
/// read them: inside the member section ([`read_members`]) every
/// primitive then reads through the field code, and
/// [`BinReader::front_coded`] reads suffixes through the path code.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    /// Front-coded bytes this reader may still assemble.
    path_budget: usize,
    /// The frame's assembled paths; made by the first front-coded field.
    paths: Option<PathArenaBuilder>,
    /// `buf.len()` where a raw member section began.
    section_len: usize,
    /// The frame's codes, when it carries one.
    codes: Option<Codes<'a>>,
}

impl<'a> BinReader<'a> {
    /// Wraps a payload slice, with a fresh [`FRAME_PATH_BUDGET`] and no
    /// codes.
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, path_budget: FRAME_PATH_BUDGET, paths: None, section_len: 0, codes: None }
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
        self.live().map_or(8 * self.buf.len(), Codes::bits_left)
    }

    /// Most bytes (symbols) the rest of the body could still hold: a
    /// codeword is at least one bit.
    #[inline]
    fn symbols_left(&self) -> usize {
        self.live().map_or(self.buf.len(), Codes::bits_left)
    }

    /// Bytes (symbols) of the member section read so far.
    #[inline]
    fn position(&self) -> usize {
        self.live().map_or(self.section_len - self.buf.len(), |codes| codes.symbols)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, BinDecodeError> {
        match self.live_mut() {
            Some(codes) => Ok(codes.field()),
            None => Ok(self.take(1)?[0]),
        }
    }

    /// Reads a fixed-width little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BinDecodeError> {
        match self.live_mut() {
            Some(codes) => Ok(u64::from_le_bytes(std::array::from_fn(|_| codes.field()))),
            None => Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))),
        }
    }

    /// Reads an unsigned LEB128 varint: at most ten bytes, and the tenth
    /// may only carry the one bit a `u64` has left.
    #[inline]
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
    /// by what the body can still hold before allocating on its say-so.
    #[inline]
    pub fn length(&mut self) -> Result<usize, BinDecodeError> {
        usize::try_from(self.varint()?).map_err(BinDecodeError::msg)
    }

    /// Reads a zig-zag varint delta and applies it to `prev`, modulo
    /// 2^64 — the inverse of [`put_delta`].
    #[inline]
    pub fn delta(&mut self, prev: u64) -> Result<u64, BinDecodeError> {
        let zigzag = self.varint()?;
        Ok(prev.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg()))
    }

    /// [`BinReader::delta`] for a 32-bit field: a delta that takes the
    /// value below zero or above `u32::MAX` is an error.
    #[inline]
    pub fn delta_u32(&mut self, prev: u32) -> Result<u32, BinDecodeError> {
        u32::try_from(self.delta(prev.into())?)
            .map_err(|_| BinDecodeError::msg("delta leaves its 32-bit field"))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, BinDecodeError> {
        let len = self.length()?;
        let bytes = match self.live_mut() {
            Some(codes) => {
                if len > codes.bits_left() {
                    return Err(BinDecodeError::msg(format!(
                        "truncated: a string of {len} bytes, {} bits left",
                        codes.bits_left()
                    )));
                }
                (0..len).map(|_| codes.field()).collect()
            }
            None => self.take(len)?.to_vec(),
        };
        String::from_utf8(bytes).map_err(BinDecodeError::msg)
    }

    /// Reads a front-coded path — the inverse of
    /// [`SeqEncoder::put_front_coded`] — into this reader's arena: the
    /// first `shared` bytes of `base`, then the suffix, carried verbatim
    /// or, in a coded member section, as codewords of the path code.
    /// `base` is any path this reader assembled earlier (the
    /// predecessor's, or the member's a path reference names). The handle
    /// is readable once the reader has dropped; until then it serves as a
    /// later member's base.
    ///
    /// The arena is reserved on the first call, at six times the bytes
    /// then left in the body (capped at [`FRAME_PATH_BUDGET`]) and never
    /// at a length the body claims; it grows from there within the
    /// budget.
    ///
    /// # Errors
    ///
    /// A shared length `base` cannot supply (any non-zero one when there
    /// is no `base`), a result longer than [`MAX_PATH_LEN`] or past this
    /// reader's [`FRAME_PATH_BUDGET`] — whichever member the bytes are
    /// shared from, every assembled path is charged to both, before a
    /// coded suffix is decoded — a coded suffix of more bytes than the
    /// bits left could hold or of codewords running past the body, and
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
        let carried = self.length()?;
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
        self.paths
            .get_or_insert_with(|| PathArenaBuilder::with_capacity(reserve))
            .push_front_coded(base, shared, suffix)
            .map_err(BinDecodeError::msg)
    }

    /// Reads the tables of the codes a frame announces — the path code's
    /// first, then the field code's, as [`code_members`] places them —
    /// and decodes the member section through them. Each table is
    ///
    /// ```text
    /// bitmap: 32 bytes, bit (s & 7) of byte s >> 3 set when byte value s
    ///         has a codeword | one 4-bit codeword length per set bit, in
    ///         ascending order, high nibble first, a last odd nibble zero
    /// ```
    ///
    /// The lengths give the codewords: canonical, in order of length,
    /// then symbol. The lookup tables are built here, on this reader, an
    /// entry for every `longest`-bit string; a code the frame does not
    /// carry reads its bytes eight bits each.
    ///
    /// # Errors
    ///
    /// Truncation, fewer than two symbols, a length of 0 or above
    /// [`MAX_CODE_LEN`], a non-zero padding nibble, and lengths that
    /// over-subscribe the code or leave it incomplete — so every bit
    /// string starts with exactly one codeword.
    pub fn read_codes(&mut self, announced: SectionCodes) -> Result<(), BinDecodeError> {
        if !announced.path && !announced.field {
            return Ok(());
        }
        let path = if announced.path { Some(self.read_table("path")?) } else { None };
        let field = if announced.field { Some(self.read_table("field")?) } else { None };
        let codes = self.codes.get_or_insert_with(Codes::new);
        codes.path_code = announced.path;
        for (table, code) in [(&mut codes.path, path), (&mut codes.field, field)] {
            match code {
                Some(code) => table.fill(&code),
                None => table.identity(),
            }
        }
        Ok(())
    }

    /// Reads one code table (see [`BinReader::read_codes`]).
    fn read_table(&mut self, which: &str) -> Result<Code, BinDecodeError> {
        let bitmap = self.take(CODE_BITMAP_LEN)?;
        let mut code = Code { n: 0, symbols: [0; 256], lens: [0; 256] };
        for (first, word) in (0..).step_by(64).zip(bitmap.chunks_exact(8)) {
            let mut word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            while word != 0 {
                code.symbols[code.n] = (first + word.trailing_zeros()) as u8;
                code.n += 1;
                word &= word - 1;
            }
        }
        let n = code.n;
        if n < 2 {
            return Err(BinDecodeError::msg(format!("a {which} code of fewer than two symbols")));
        }
        let packed = self.take(n.div_ceil(2))?;
        if n % 2 == 1 && packed[n / 2] & 0x0f != 0 {
            return Err(BinDecodeError::msg(format!(
                "a {which} code's padding nibble is not zero"
            )));
        }
        let mut kraft = 0u32;
        for (i, len) in code.lens[..n].iter_mut().enumerate() {
            *len = (packed[i / 2] >> if i % 2 == 0 { 4 } else { 0 }) & 0x0f;
            if *len == 0 || u32::from(*len) > MAX_CODE_LEN {
                return Err(BinDecodeError::msg(format!("a codeword length of {len}")));
            }
            kraft += 1 << (MAX_CODE_LEN - u32::from(*len));
        }
        if kraft != 1 << MAX_CODE_LEN {
            let why = if kraft > 1 << MAX_CODE_LEN { "over-subscribed" } else { "incomplete" };
            return Err(BinDecodeError::msg(format!("an {why} {which} code")));
        }
        Ok(code)
    }

    /// Enters the member section: from here to its end, a coded frame's
    /// bytes are one bit stream.
    fn begin_members(&mut self) {
        self.section_len = self.buf.len();
        if let Some(codes) = &mut self.codes {
            codes.bytes = std::mem::take(&mut self.buf);
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
    /// and a path code on a section that read no path.
    fn end_members(&mut self) -> Result<(), BinDecodeError> {
        let Some(codes) = self.codes.as_mut().filter(|codes| codes.live) else { return Ok(()) };
        codes.live = false;
        codes.check_within()?;
        let (used, bytes) = (codes.bits_used(), codes.bytes);
        let took = used.div_ceil(8);
        if used % 8 != 0 && bytes[took - 1] & (0xff >> (used % 8)) != 0 {
            return Err(BinDecodeError::msg(
                "the member section's final padding bits are not zero",
            ));
        }
        self.buf = &bytes[took..];
        if codes.path_code && self.paths.is_none() {
            return Err(BinDecodeError::msg("a path code on a sequence with no paths"));
        }
        Ok(())
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

/// Entries in a [`CodeTable`]: one for every [`MAX_CODE_LEN`]-bit
/// string, of which a code whose longest codeword is shorter fills the
/// first `1 << longest`.
const CODE_TABLE_LEN: usize = 1 << MAX_CODE_LEN;

/// One code as its decoder holds it: indexed by the next `longest` bits
/// of the stream, each entry is the symbol those bits begin with (low
/// byte) and its codeword's length (high byte).
struct CodeTable {
    longest: u32,
    entries: [u16; CODE_TABLE_LEN],
}

impl CodeTable {
    /// The table of a code a frame does not carry: each byte is itself,
    /// eight bits.
    fn identity(&mut self) {
        self.longest = 8;
        for (symbol, entry) in self.entries[..256].iter_mut().enumerate() {
            *entry = (8 << 8) | symbol as u16;
        }
    }

    /// Fills the first `1 << longest` entries for the canonical code
    /// `code` — a complete code, so each of them is written.
    fn fill(&mut self, code: &Code) {
        let (symbols, lens) = (&code.symbols[..code.n], &code.lens[..code.n]);
        self.longest = lens.iter().copied().max().map_or(0, u32::from);
        let mut next = first_codewords(lens);
        for (&symbol, &len) in symbols.iter().zip(lens) {
            let spare = self.longest - u32::from(len);
            let first = usize::from(next[usize::from(len)]) << spare;
            next[usize::from(len)] += 1;
            let entry = (u16::from(len) << 8) | u16::from(symbol);
            self.entries[first..first + (1 << spare)].fill(entry);
        }
    }

    /// The entry the top `longest` bits of `window` select.
    fn entry(&self, window: u64) -> u16 {
        self.entries[(window >> (64 - self.longest)) as usize & (CODE_TABLE_LEN - 1)]
    }
}

/// A frame's two codes as its reader holds them, and the bit stream of
/// its member section while that is being read. Beside them, room for
/// one decoded suffix, which the arena then takes as it takes a raw one.
struct Codes<'a> {
    /// Whether the frame announced a path code (`path` is the identity
    /// otherwise).
    path_code: bool,
    path: CodeTable,
    field: CodeTable,
    /// Set while the member section is being read.
    live: bool,
    /// The member section and the rest of the body.
    bytes: &'a [u8],
    /// The next `filled` bits of the stream, left-aligned; below them are
    /// zeros or the stream's own next bits, so topping it up — a word at
    /// a time, or near the end a byte at a time — is an OR.
    window: u64,
    filled: u32,
    /// The first byte of `bytes` not yet in `window`; past the end the
    /// stream reads zeros, which [`Codes::check_within`] refuses after.
    next: usize,
    /// Symbols — raw bytes — read so far.
    symbols: usize,
    suffix: [u8; MAX_PATH_LEN],
}

impl fmt::Debug for Codes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Codes")
            .field("path_code", &self.path_code)
            .field("live", &self.live)
            .field("symbols", &self.symbols)
            .finish_non_exhaustive()
    }
}

/// Tops `window` up to at least 57 bits from `bytes[*next..]`.
#[inline]
fn refill(bytes: &[u8], window: &mut u64, filled: &mut u32, next: &mut usize) {
    if let Some(word) = bytes.get(*next..*next + 8) {
        *window |= u64::from_be_bytes(word.try_into().expect("eight bytes")) >> *filled;
        let whole = (64 - *filled) / 8;
        *next += whole as usize;
        *filled += 8 * whole;
    } else {
        while *filled <= 56 {
            *window |= u64::from(bytes.get(*next).copied().unwrap_or(0)) << (56 - *filled);
            *next += 1;
            *filled += 8;
        }
    }
}

impl Codes<'_> {
    /// Codes with empty tables, for [`BinReader::read_codes`] to fill.
    fn new() -> Self {
        let table = || CodeTable { longest: 0, entries: [0; CODE_TABLE_LEN] };
        Codes {
            path_code: false,
            path: table(),
            field: table(),
            live: false,
            bytes: &[],
            window: 0,
            filled: 0,
            next: 0,
            symbols: 0,
            suffix: [0; MAX_PATH_LEN],
        }
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

    /// The next byte of a field.
    #[inline]
    fn field(&mut self) -> u8 {
        if self.filled < MAX_CODE_LEN {
            refill(self.bytes, &mut self.window, &mut self.filled, &mut self.next);
        }
        let entry = self.field.entry(self.window);
        let bits = u32::from(entry >> 8);
        self.window <<= bits;
        self.filled -= bits;
        self.symbols += 1;
        entry as u8
    }

    /// The next `len` bytes (at most [`MAX_PATH_LEN`]), a path's suffix.
    ///
    /// # Errors
    ///
    /// More bytes than the bits left could hold, and codewords that ran
    /// past the body.
    fn suffix(&mut self, len: usize) -> Result<&[u8], BinDecodeError> {
        if len > self.bits_left() {
            return Err(BinDecodeError::msg(format!(
                "truncated: a coded suffix of {len} bytes, {} bits left",
                self.bits_left()
            )));
        }
        let Codes { path, bytes, window, filled, next, suffix, .. } = self;
        let (mut w, mut f, mut n) = (*window, *filled, *next);
        for out in &mut suffix[..len] {
            if f < MAX_CODE_LEN {
                refill(bytes, &mut w, &mut f, &mut n);
            }
            let entry = path.entry(w);
            let bits = u32::from(entry >> 8);
            w <<= bits;
            f -= bits;
            *out = entry as u8;
        }
        (*window, *filled, *next) = (w, f, n);
        self.symbols += len;
        self.check_within()?;
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

/// A [`SeqEncoder`]'s memory of its sequence's directories: for each
/// parent directory, the latest member whose path lies in it — the
/// member a path reference would name. Fixed-size and open-addressed, so
/// it lives on its encoder's stack and a frame allocates nothing for it.
///
/// A slot is `hash tag << 16 | member index + 1`, zero when empty. The
/// table never reads a path: two directories whose hashes agree in slot
/// and tag answer for each other, and the caller — who compares the
/// bytes of whatever member it is handed before coding against it —
/// just falls back to the predecessor. So a crafted directory name can
/// cost a frame some compression and nothing else; a full neighbourhood
/// evicts, forgetting a directory, and a member past index 65,534 is
/// not remembered.
pub(crate) struct DirTable {
    slots: [u32; DIR_SLOTS],
}

impl DirTable {
    /// An empty table: the start of a sequence.
    fn new() -> DirTable {
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

/// Most front-coded strings one member writes — a [`crate::FileEvent`]'s
/// `path` and `src_path` — and so the most path suffixes a frame's raw
/// pass notes for it.
const MAX_MEMBER_PATHS: usize = 2;

/// The encoder's state for one member sequence, carried from member to
/// member: its directory table and, on a frame's raw pass
/// ([`SeqEncoder::for_coding`]), what [`code_members`] needs to code the
/// sequence afterwards. Fixed-size: it lives on its writer's stack.
pub struct SeqEncoder {
    pub(crate) dirs: DirTable,
    notes: Option<Notes>,
}

/// A frame's raw pass's notes: the current member's path suffixes, as
/// (position in the buffer, length), and the bytes of notes written so
/// far ([`put_member`] writes a member's note right behind it); and the
/// raw sequence's histograms so far — of its members' bytes, length
/// prefixes included, and of their path suffixes' bytes alone.
struct Notes {
    suffixes: [(usize, usize); MAX_MEMBER_PATHS],
    n: usize,
    written: usize,
    counts: [u32; 256],
    path_counts: [u32; 256],
}

impl SeqEncoder {
    /// The encoder for a sequence that is never coded: a snapshot block.
    pub fn new() -> SeqEncoder {
        SeqEncoder { dirs: DirTable::new(), notes: None }
    }

    /// The encoder for a frame's raw pass, which [`code_members`] then
    /// codes: behind each member, [`put_member`] writes a *note* saying
    /// where the member's path suffixes lie —
    ///
    /// ```text
    /// note = n u8 | n × (offset in the member varint | length varint)
    /// ```
    ///
    /// — which [`code_members`] reads and removes.
    pub fn for_coding() -> SeqEncoder {
        let notes = Notes {
            suffixes: [(0, 0); MAX_MEMBER_PATHS],
            n: 0,
            written: 0,
            counts: [0; 256],
            path_counts: [0; 256],
        };
        SeqEncoder { dirs: DirTable::new(), notes: Some(notes) }
    }

    /// Bytes of notes written into the sequence so far: what its buffer
    /// holds beyond the raw sequence.
    pub fn notes_len(&self) -> usize {
        self.notes.as_ref().map_or(0, |notes| notes.written)
    }

    /// Forgets the last member written, which `noted` — the end of its
    /// buffer, from the member's length prefix on — holds with its note:
    /// the caller takes those bytes back out.
    pub fn forget(&mut self, noted: &[u8]) {
        let Some(notes) = &mut self.notes else { return };
        let member = Noted::at(noted);
        for &byte in member.prefix.iter().chain(member.bytes) {
            notes.counts[usize::from(byte)] -= 1;
        }
        for &(offset, len) in &member.suffixes[..member.n] {
            member.bytes[offset..offset + len]
                .iter()
                .for_each(|&byte| notes.path_counts[usize::from(byte)] -= 1);
        }
        notes.written -= member.note_len;
    }

    /// Appends `current` front-coded against a base it shares its first
    /// `shared` bytes with ([`put_front_coded`]), noting where its suffix
    /// lies on a frame's raw pass.
    ///
    /// # Panics
    ///
    /// On a frame's raw pass, for a member's third front-coded string:
    /// a member writes at most two.
    pub fn put_front_coded(&mut self, buf: &mut Vec<u8>, current: &[u8], shared: usize) {
        let suffix = &current[shared..];
        put_varint(buf, shared as u64);
        put_varint(buf, suffix.len() as u64);
        if let Some(notes) = self.notes.as_mut().filter(|_| !suffix.is_empty()) {
            assert!(notes.n < MAX_MEMBER_PATHS, "a member writes at most two front-coded strings");
            notes.suffixes[notes.n] = (buf.len(), suffix.len());
            notes.n += 1;
            tally(suffix, &mut notes.path_counts);
        }
        buf.extend_from_slice(suffix);
    }
}

impl Default for SeqEncoder {
    fn default() -> SeqEncoder {
        SeqEncoder::new()
    }
}

/// A code as its table carries it: the byte values it codes, ascending,
/// and each one's codeword length. The code is canonical — codewords are
/// assigned in order of length, then symbol ([`first_codewords`]) — so
/// the lengths are all a decoder needs.
struct Code {
    n: usize,
    symbols: [u8; 256],
    lens: [u8; 256],
}

impl Code {
    /// The Huffman code for a histogram, its codewords limited to
    /// [`MAX_CODE_LEN`] bits; `None` when fewer than two byte values
    /// occur (a code needs two).
    fn for_counts(counts: &[u32; 256]) -> Option<Code> {
        let mut code = Code { n: 0, symbols: [0; 256], lens: [0; 256] };
        let mut weights = [0u64; 256];
        for (first, chunk) in (0..).step_by(8).zip(counts.chunks_exact(8)) {
            // Most byte values never occur in a frame's suffixes.
            if chunk.iter().all(|&count| count == 0) {
                continue;
            }
            for (byte, &count) in (first..).zip(chunk) {
                if count > 0 {
                    (code.symbols[code.n], weights[code.n]) = (byte as u8, count.into());
                    code.n += 1;
                }
            }
        }
        if code.n < 2 {
            return None;
        }
        // Too deep for the decoder's table: flatten the weights and build
        // again. Weights of one stay one, so this ends at a balanced tree.
        while !huffman_lengths(&weights[..code.n], &mut code.lens) {
            weights[..code.n].iter_mut().for_each(|w| *w = w.div_ceil(2));
        }
        Some(code)
    }

    /// Bits the bytes `counts` tallies take under this code.
    fn bits(&self, counts: &[u32; 256]) -> u64 {
        let coded = self.symbols[..self.n].iter().zip(&self.lens);
        coded.map(|(&symbol, &len)| u64::from(counts[usize::from(symbol)]) * u64::from(len)).sum()
    }

    /// Bytes the table takes in a frame.
    fn table_len(&self) -> usize {
        CODE_BITMAP_LEN + self.n.div_ceil(2)
    }

    /// Writes the table ([`BinReader::read_codes`]) over `out`, which is
    /// [`Code::table_len`] bytes.
    fn put_table(&self, out: &mut [u8]) {
        let (bitmap, nibbles) = out.split_at_mut(CODE_BITMAP_LEN);
        bitmap.fill(0);
        nibbles.fill(0);
        let coded = self.symbols[..self.n].iter().zip(&self.lens);
        for (i, (&symbol, &len)) in coded.enumerate() {
            bitmap[usize::from(symbol >> 3)] |= 1 << (symbol & 7);
            nibbles[i / 2] |= len << if i % 2 == 0 { 4 } else { 0 };
        }
    }

    /// Each byte value's codeword, as [`BitWriter::put_all`] takes them.
    fn codewords(&self) -> [u32; 256] {
        let mut next = first_codewords(&self.lens[..self.n]);
        let mut codewords = [0u32; 256];
        for (&symbol, &len) in self.symbols[..self.n].iter().zip(&self.lens) {
            let len = usize::from(len);
            codewords[usize::from(symbol)] = (u32::from(next[len]) << 4) | len as u32;
            next[len] += 1;
        }
        codewords
    }

    /// Each byte's codeword length, zero for a byte the code leaves out.
    fn len_of(&self) -> [u8; 256] {
        let mut lens = [0u8; 256];
        for (&symbol, &len) in self.symbols[..self.n].iter().zip(&self.lens) {
            lens[usize::from(symbol)] = len;
        }
        lens
    }
}

/// Each byte value a code leaves uncoded, as its own eight-bit codeword.
fn identity_codewords() -> [u32; 256] {
    std::array::from_fn(|byte| ((byte as u32) << 4) | 8)
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

/// Huffman codeword lengths for `weights` (at least two, none zero),
/// written to `lens` in the same order; false when the longest exceeds
/// [`MAX_CODE_LEN`]. Computed in place, after Moffat and Katajainen
/// ("In-place calculation of minimum-redundancy codes", 1995): one array
/// of the weights, sorted ascending, becomes the inner nodes' weights
/// and parent pointers, then their depths, then each leaf's length —
/// nothing but that array and the sort order, on the stack.
fn huffman_lengths(weights: &[u64], lens: &mut [u8; 256]) -> bool {
    let n = weights.len();
    // Positions sorted by weight, then position: the code is a function
    // of the histogram alone.
    let mut order = [0u64; 256];
    for ((slot, &weight), i) in order.iter_mut().zip(weights).zip(0u64..) {
        *slot = (weight << 8) | i;
    }
    order[..n].sort_unstable();
    let mut a = [0u64; 256];
    a.iter_mut().zip(&order[..n]).for_each(|(a, &o)| *a = o >> 8);
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
    a[0] <= u64::from(MAX_CODE_LEN)
}

/// A type with a binary payload form, coded relative to the earlier
/// members of the same sequence. Encoding appends to a reusable scratch
/// buffer; decoding reads from a [`BinReader`] positioned at the value's
/// first byte.
pub trait BinPayload: Sized {
    /// Appends the binary encoding of `self` to `buf`. `earlier` holds
    /// the members before this one in the same sequence, in order —
    /// empty for the first — and must be what the decoder will be
    /// handed; `seq` is the sequence's [`SeqEncoder`]: a member with a
    /// path consults and updates its directory table and writes every
    /// front-coded string — at most two — through
    /// [`SeqEncoder::put_front_coded`]. Types with nothing to gain from
    /// either ignore it.
    fn encode_bin(&self, earlier: &[Self], seq: &mut SeqEncoder, buf: &mut Vec<u8>);

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
    fn encode_bin(&self, _earlier: &[Self], _seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>, _earlier: &[Self]) -> Result<Self, BinDecodeError> {
        r.u64()
    }
}

impl BinPayload for String {
    fn encode_bin(&self, _earlier: &[Self], _seq: &mut SeqEncoder, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
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

/// Appends one sequence member: its length as a varint, then its
/// encoding against `earlier`, the members of the sequence so far — and,
/// on a frame's raw pass ([`SeqEncoder::for_coding`]), its note.
pub fn put_member<T: BinPayload>(
    buf: &mut Vec<u8>,
    member: &T,
    earlier: &[T],
    seq: &mut SeqEncoder,
) {
    // One pass, no per-member scratch: a one-byte length is reserved,
    // and the rare member of 128 bytes or more is shifted right to make
    // room for the longer varint.
    let at = buf.len();
    buf.push(0);
    if let Some(notes) = &mut seq.notes {
        notes.n = 0;
    }
    member.encode_bin(earlier, seq, buf);
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
    if let Some(notes) = &mut seq.notes {
        tally(&buf[at..], &mut notes.counts);
        let noted = buf.len();
        buf.push(notes.n as u8);
        for &(start, len) in &notes.suffixes[..notes.n] {
            // Offsets from the member's first byte, which the shift moved.
            put_varint(buf, (start - at - 1) as u64);
            put_varint(buf, len as u64);
        }
        notes.written += buf.len() - noted;
    }
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
///
/// This is the raw form, the only one a snapshot block takes; a frame's
/// sequence is written by [`put_members_coded`].
pub fn put_members<T: BinPayload>(buf: &mut Vec<u8>, members: &[T]) {
    put_sequence(buf, members, &mut SeqEncoder::new());
}

fn put_sequence<T: BinPayload>(buf: &mut Vec<u8>, members: &[T], seq: &mut SeqEncoder) {
    put_varint(buf, members.len() as u64);
    for (i, member) in members.iter().enumerate() {
        put_member(buf, member, &members[..i], seq);
    }
}

/// Appends a frame's member sequence, raw or coded — whichever is
/// smaller ([`code_members`]) — and returns the codes it carries. A
/// coded sequence's tables are placed at `table_at`, a position at or
/// before the end of `buf` (a frame puts them after its header's trace
/// section, ahead of the kind's own fields); what lies between moves up
/// to make room.
pub fn put_members_coded<T: BinPayload>(
    buf: &mut Vec<u8>,
    table_at: usize,
    members: &[T],
) -> SectionCodes {
    let members_at = buf.len();
    let mut seq = SeqEncoder::for_coding();
    put_sequence(buf, members, &mut seq);
    code_members(buf, table_at, members_at, &seq)
}

/// Reads the varint at the front of `bytes` — one this encoder wrote —
/// and returns it with its length in bytes.
fn raw_varint(bytes: &[u8]) -> (u64, usize) {
    let mut value = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return (value, i + 1);
        }
    }
    unreachable!("a varint this encoder wrote ends")
}

/// One member of a noted sequence ([`SeqEncoder::for_coding`]): its
/// length prefix and bytes, where its path suffixes lie in them, and the
/// length of its note.
struct Noted<'a> {
    prefix: &'a [u8],
    bytes: &'a [u8],
    suffixes: [(usize, usize); MAX_MEMBER_PATHS],
    n: usize,
    note_len: usize,
}

impl<'a> Noted<'a> {
    /// The member at the front of `section`, which must hold one.
    fn at(section: &'a [u8]) -> Noted<'a> {
        let (len, prefix_len) = raw_varint(section);
        let (prefix, rest) = section.split_at(prefix_len);
        let (bytes, note) = rest.split_at(len as usize);
        let mut member =
            Noted { prefix, bytes, suffixes: [(0, 0); MAX_MEMBER_PATHS], n: 0, note_len: 1 };
        member.n = usize::from(note[0]);
        for suffix in &mut member.suffixes[..member.n] {
            let (offset, used) = raw_varint(&note[member.note_len..]);
            member.note_len += used;
            let (len, used) = raw_varint(&note[member.note_len..]);
            member.note_len += used;
            *suffix = (offset as usize, len as usize);
        }
        member
    }

    /// Bytes of the section this member and its note take.
    fn whole_len(&self) -> usize {
        self.prefix.len() + self.bytes.len() + self.note_len
    }
}

/// Writes bytes as codewords (`bits << 4 | length`) into a slice sized
/// for them, four bytes at a time: the low `held` bits of `pending` are
/// not yet written (above them are bits already written, which shift
/// out).
struct BitWriter<'a> {
    out: &'a mut [u8],
    at: usize,
    pending: u64,
    held: u32,
}

impl BitWriter<'_> {
    /// Writes each of `bytes` as its codeword in `codewords`.
    fn put_all(&mut self, bytes: &[u8], codewords: &[u32; 256]) {
        let BitWriter { out, at, pending, held } = self;
        let (mut at_, mut pending_, mut held_) = (*at, *pending, *held);
        for &byte in bytes {
            let codeword = codewords[usize::from(byte)];
            let len = codeword & 0xf;
            pending_ = (pending_ << len) | u64::from(codeword >> 4);
            held_ += len;
            if held_ >= 32 {
                held_ -= 32;
                out[at_..at_ + 4].copy_from_slice(&((pending_ >> held_) as u32).to_be_bytes());
                at_ += 4;
            }
        }
        (*at, *pending, *held) = (at_, pending_, held_);
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

/// Adds how many times each byte value occurs in `bytes` to `counts`.
fn tally(bytes: &[u8], counts: &mut [u32; 256]) {
    bytes.iter().for_each(|&byte| counts[usize::from(byte)] += 1);
}

/// The encoder's cost choice for a member sequence a frame's raw pass,
/// `raw` ([`SeqEncoder::for_coding`]), wrote at `buf[members_at..]`, notes
/// and all: builds the length-limited Huffman codes of the path-suffix
/// bytes and of every other byte, from the histograms `raw` kept as it
/// wrote them, and prices the section
/// raw, under either code and under both — exactly, each byte's codeword
/// length summed, tables included. The cheapest wins; a form whose count
/// claims more members than half the bytes after it is not a candidate,
/// so no writer produces a frame [`read_members`] refuses. When a code
/// wins, the section is transcoded — each byte replaced by its codeword
/// under the code of its class — the tables go in at `table_at` (the path
/// code's first), what lay between moves up, and the codes are returned;
/// otherwise the notes are taken out and the raw sequence is left. Like
/// the path reference, this is a cost choice made frame by frame, not an
/// option. Nothing is allocated beyond `buf`'s own growth.
pub fn code_members(
    buf: &mut Vec<u8>,
    table_at: usize,
    members_at: usize,
    raw: &SeqEncoder,
) -> SectionCodes {
    let Some(notes) = &raw.notes else { return SectionCodes::default() };
    let section = &buf[members_at..];
    let (count, count_len) = raw_varint(section);
    let raw_len = section.len() - notes.written;
    let (mut field_counts, path_counts) = (notes.counts, notes.path_counts);
    tally(&section[..count_len], &mut field_counts);
    field_counts.iter_mut().zip(&path_counts).for_each(|(field, &path)| *field -= path);
    let (path, field) = (Code::for_counts(&path_counts), Code::for_counts(&field_counts));

    // Each class of bytes: its raw bits, and its bits and table coded.
    let raw_bits = |counts: &[u32; 256]| 8 * counts.iter().map(|&c| u64::from(c)).sum::<u64>();
    let priced =
        |code: &Option<Code>, counts| code.as_ref().map(|c| (c.bits(counts), c.table_len()));
    let (path_raw, path_coded) = (raw_bits(&path_counts), priced(&path, &path_counts));
    let (field_raw, field_coded) = (raw_bits(&field_counts), priced(&field, &field_counts));
    let field_lens = field.as_ref().map(Code::len_of);
    let mut best = (raw_len, SectionCodes::default());
    for (use_path, use_field) in [(true, false), (false, true), (true, true)] {
        let (path_bits, path_table) = match (use_path, path_coded) {
            (false, _) => (path_raw, 0),
            (true, Some(coded)) => coded,
            (true, None) => continue,
        };
        let (field_bits, field_table) = match (use_field, field_coded) {
            (false, _) => (field_raw, 0),
            (true, Some(coded)) => coded,
            (true, None) => continue,
        };
        let bytes = (path_bits + field_bits).div_ceil(8) as usize;
        let count_bits: usize = section[..count_len]
            .iter()
            .map(|&byte| match &field_lens {
                Some(lens) if use_field => usize::from(lens[usize::from(byte)]),
                _ => 8,
            })
            .sum();
        if 16 * count as usize > 8 * bytes - count_bits {
            continue;
        }
        let cost = path_table + field_table + bytes;
        if cost < best.0 {
            best = (cost, SectionCodes { path: use_path, field: use_field });
        }
    }
    let (cost, chosen) = best;
    if chosen == SectionCodes::default() {
        drop_notes(buf, members_at, count, count_len);
        return chosen;
    }

    let tables = [(&path, chosen.path), (&field, chosen.field)]
        .map(|(code, on)| code.as_ref().filter(|_| on))
        .into_iter()
        .flatten();
    let tables_len: usize = tables.clone().map(Code::table_len).sum();
    let codewords = |code: &Option<Code>, on: bool| match code {
        Some(code) if on => code.codewords(),
        _ => identity_codewords(),
    };
    let (path_codewords, field_codewords) =
        (codewords(&path, chosen.path), codewords(&field, chosen.field));
    let coded_at = buf.len();
    let coded_len = cost - tables_len;
    buf.resize(coded_at + coded_len, 0);
    let (noted, out) = buf.split_at_mut(coded_at);
    let section = &noted[members_at..];
    let mut bits = BitWriter { out, at: 0, pending: 0, held: 0 };
    bits.put_all(&section[..count_len], &field_codewords);
    let mut at = count_len;
    for _ in 0..count {
        let member = Noted::at(&section[at..]);
        bits.put_all(member.prefix, &field_codewords);
        let mut from = 0;
        for &(offset, len) in &member.suffixes[..member.n] {
            bits.put_all(&member.bytes[from..offset], &field_codewords);
            bits.put_all(&member.bytes[offset..offset + len], &path_codewords);
            from = offset + len;
        }
        bits.put_all(&member.bytes[from..], &field_codewords);
        at += member.whole_len();
    }
    let written = bits.finish();
    debug_assert_eq!(written, coded_len, "the price was not the bytes");

    // [.. table_at | head | noted | coded] → [.. table_at | tables | head | coded]:
    // the coded members land inside the noted ones' room, the head behind
    // them, and the tables before it.
    buf.copy_within(coded_at.., members_at + tables_len);
    buf.copy_within(table_at..members_at, table_at + tables_len);
    let mut at = table_at;
    for code in tables {
        code.put_table(&mut buf[at..at + code.table_len()]);
        at += code.table_len();
    }
    buf.truncate(members_at + tables_len + coded_len);
    chosen
}

/// Takes the notes out of a noted sequence of `count` members at
/// `buf[members_at..]`, leaving the raw sequence.
fn drop_notes(buf: &mut Vec<u8>, members_at: usize, count: u64, count_len: usize) {
    let (mut read, mut write) = (members_at + count_len, members_at + count_len);
    for _ in 0..count {
        let member = Noted::at(&buf[read..]);
        let (kept, whole) = (member.prefix.len() + member.bytes.len(), member.whole_len());
        buf.copy_within(read..read + kept, write);
        (read, write) = (read + whole, write + kept);
    }
    buf.truncate(write);
}

/// Reads a member sequence back — the inverse of [`put_members`] and
/// [`put_members_coded`] — handing each member's decoder the members
/// before it. In a frame whose reader holds codes
/// ([`BinReader::read_codes`]), the sequence is the coded member section
/// and runs to the end of the body.
///
/// # Errors
///
/// A count that claims more members than half the bytes after it could
/// hold (what the `Vec` may reserve or grow to is bounded by that), a
/// member length the bytes cannot hold, a member whose decoder fails, a
/// member whose decoder does not consume exactly the length its prefix
/// announced, and in a coded section, codewords that run past the body,
/// final padding that is not zero, and a path code on a sequence
/// without a path to code.
pub fn read_members<T: BinPayload>(r: &mut BinReader<'_>) -> Result<Vec<T>, BinDecodeError> {
    r.begin_members();
    let count = r.length()?;
    if count > r.bits_left() / 16 {
        return Err(BinDecodeError::msg(format!(
            "{count} members claimed in {} bits",
            r.bits_left()
        )));
    }
    let mut out: Vec<T> = Vec::with_capacity(count.min(MAX_RESERVED_MEMBERS));
    for _ in 0..count {
        let len = r.length()?;
        if len > r.symbols_left() {
            return Err(BinDecodeError::msg(format!(
                "truncated: a member of {len} bytes, {} left in the frame",
                r.symbols_left()
            )));
        }
        let start = r.position();
        let member = T::decode_bin(r, &out)?;
        if let Some(codes) = r.live() {
            codes.check_within()?;
        }
        let used = r.position() - start;
        if used != len {
            return Err(BinDecodeError::msg(format!("a member of {len} bytes decoded as {used}")));
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
            assert_eq!(raw_varint(&buf), (value, buf.len()));
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

    /// A count word never sizes the reservation: a count of more members
    /// than half the bytes after it is refused before anything is
    /// reserved, and an honest sequence still decodes whole.
    #[test]
    fn a_hostile_count_is_rejected_not_allocated() {
        let mut body = Vec::new();
        put_varint(&mut body, u64::MAX);
        assert!(read_members::<u64>(&mut BinReader::new(&body)).is_err());

        // 21 members in 43 bytes is the most a raw sequence could hold;
        // 22 is refused on its count alone.
        for (count, refused) in [(21u64, false), (22, true)] {
            let mut body = Vec::new();
            put_varint(&mut body, count);
            body.extend([0; 43]);
            let err = read_members::<String>(&mut BinReader::new(&body)).unwrap_err();
            assert_eq!(err.to_string().contains("members claimed"), refused, "{count}: {err}");
        }
        let honest: Vec<u64> = (0..512).collect();
        let mut body = Vec::new();
        put_members(&mut body, &honest);
        assert_eq!(read_members::<u64>(&mut BinReader::new(&body)).unwrap(), honest);
    }

    /// Sums each codeword's share of the code space: exactly
    /// `1 << MAX_CODE_LEN` for a complete code.
    fn kraft(code: &Code) -> u32 {
        code.lens
            .iter()
            .filter(|&&len| len > 0)
            .map(|&len| 1 << (MAX_CODE_LEN - u32::from(len)))
            .sum()
    }

    /// Whatever the histogram, the code is complete and no codeword is
    /// longer than twelve bits: Fibonacci counts — the deepest tree there
    /// is, 29 bits for 30 symbols — are flattened until twelve suffice;
    /// even counts of every byte give every byte eight bits; two bytes
    /// take a bit each; one byte value alone is no code at all.
    #[test]
    fn codes_are_complete_and_at_most_twelve_bits_deep() {
        let mut fibonacci = [0u32; 256];
        let (mut a, mut b) = (1u32, 1u32);
        for slot in &mut fibonacci[0x40..0x40 + 30] {
            *slot = a;
            (a, b) = (b, a + b);
        }
        let code = Code::for_counts(&fibonacci).unwrap();
        let lens = &code.lens[..code.n];
        assert_eq!((code.n, kraft(&code)), (30, 1 << MAX_CODE_LEN));
        assert_eq!(lens.iter().max(), Some(&12), "flattened to the limit, not past it");
        assert!(
            lens.windows(2).all(|pair| pair[0] >= pair[1]),
            "heavier symbols, shorter codewords"
        );

        let code = Code::for_counts(&[7; 256]).unwrap();
        assert!(code.len_of().iter().all(|&len| len == 8));
        let mut two = [0; 256];
        (two[b'/' as usize], two[b'x' as usize]) = (1, 1_000);
        let code = Code::for_counts(&two).unwrap();
        assert_eq!((&code.symbols[..2], &code.lens[..2]), (&b"/x"[..], &[1, 1][..]));
        assert_eq!(code.bits(&two), 1_001);
        let mut one = [0; 256];
        one[b'x' as usize] = 9;
        assert!(Code::for_counts(&one).is_none());
        assert!(Code::for_counts(&[0; 256]).is_none());
    }

    /// A table as the encoder writes it is one the reader accepts — its
    /// bitmap names the coded values, its nibbles their lengths — and
    /// every codeword the encoder assigns decodes to its own symbol, as a
    /// field byte and as a path byte.
    #[test]
    fn every_codeword_decodes_to_its_symbol() {
        let mut counts = [0u32; 256];
        for (i, byte) in b"0123456789abcdef/dt".iter().enumerate() {
            counts[usize::from(*byte)] = 1 + (i as u32 * 37) % 11;
        }
        let code = Code::for_counts(&counts).unwrap();
        let mut table = vec![0; code.table_len()];
        code.put_table(&mut table);
        assert_eq!(table.len(), 32 + 9, "a bitmap and 18 nibbles (`d` twice)");
        assert_eq!(table[usize::from(b'/' >> 3)] >> (b'/' & 7) & 1, 1);
        assert_eq!(table[usize::from(b'z' >> 3)] >> (b'z' & 7) & 1, 0);
        let codewords = code.codewords();
        for (symbol, &codeword) in (0..=u8::MAX).zip(&codewords) {
            if codeword == 0 {
                continue;
            }
            let (bits, len) = (codeword >> 4, codeword & 0xf);
            // The codeword, left-aligned in two bytes: a section of one
            // member of one byte, under both codes.
            let mut body = [&table[..], &table[..]].concat();
            body.extend(((bits << (16 - len)) as u16).to_be_bytes());
            let mut r = BinReader::new(&body);
            r.read_codes(SectionCodes { path: true, field: true }).unwrap();
            r.begin_members();
            assert_eq!(r.u8().unwrap(), symbol);
            assert_eq!(r.position(), 1);
            assert_eq!(r.bits_left(), 16 - len as usize);
            // Back to the section's start, to read the same bits as a
            // path byte.
            let codes = r.codes.as_mut().unwrap();
            (codes.window, codes.filled, codes.next) = (0, 0, 0);
            assert_eq!(codes.suffix(1).unwrap(), [symbol]);
        }
    }

    /// Sequences of every shape go out coded only when that is smaller,
    /// never larger than raw, and decode to what went in; the tables sit
    /// where the caller asks, the path code's first.
    #[test]
    fn a_coded_sequence_is_its_raw_bytes_under_two_codes() {
        let strings: Vec<String> = (0..200).map(|i| format!("member {}", i % 7)).collect();
        let mut raw = vec![0xaa];
        put_members(&mut raw, &strings);
        let mut coded = vec![0xaa];
        let codes = put_members_coded(&mut coded, 1, &strings);
        assert_eq!(codes, SectionCodes { path: false, field: true }, "strings have no paths");
        assert!(coded.len() < raw.len() / 2, "{} coded bytes, {} raw", coded.len(), raw.len());
        let mut r = BinReader::new(&coded);
        assert_eq!(r.u8().unwrap(), 0xaa);
        r.read_codes(codes).unwrap();
        assert_eq!(read_members::<String>(&mut r).unwrap(), strings);
        assert!(r.is_empty());

        // Eight random bytes a member: no code pays.
        let random: Vec<u64> = (1..200u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let (mut raw, mut coded) = (Vec::new(), Vec::new());
        put_members(&mut raw, &random);
        assert_eq!(put_members_coded(&mut coded, 0, &random), SectionCodes::default());
        assert_eq!(coded, raw);
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
