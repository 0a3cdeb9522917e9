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
//! checksum. Both close a sequence at [`MAX_FRAME_MEMBERS`].
//!
//! A frame's sequence may also be **suffix-coded**
//! ([`put_members_coded`]): the bytes its front-coded paths carry
//! verbatim take a few dozen values, so one canonical Huffman code
//! built from the frame's own suffix bytes — its table travels in the
//! frame ([`BinReader::read_code`]) — carries each suffix as its byte
//! count and its codewords, padded to a byte. Nothing else in a member
//! changes, and the encoder keeps the coded form only when it is
//! smaller, table included ([`code_members`]). A snapshot block is never
//! coded.
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

/// Longest codeword a frame's suffix code may assign: the decoder's
/// lookup table has `1 << MAX_CODE_LEN` entries.
pub const MAX_CODE_LEN: u32 = 12;

/// The path arena a [`BinReader`] reserves, per body byte left when its
/// first path is read — never a length the body claims. A path is mostly
/// shared with a frame-mate's, and a coded suffix carries a byte in about
/// half a byte: a coded frame of the benchmark's shape assembles 1.8
/// path bytes per body byte (31-byte paths in 17-byte members), more
/// with renames, so at twice the body its arena would grow once.
const ARENA_PER_BODY_BYTE: usize = 3;

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
///
/// It holds its frame's suffix code too, once [`BinReader::read_code`]
/// has read one: every front-coded suffix after that is decoded through
/// it.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    /// Front-coded bytes this reader may still assemble.
    path_budget: usize,
    /// The frame's assembled paths; made by the first front-coded field.
    paths: Option<PathArenaBuilder>,
    /// The frame's suffix code, when it carries one.
    code: Option<SuffixTable>,
}

impl<'a> BinReader<'a> {
    /// Wraps a payload slice, with a fresh [`FRAME_PATH_BUDGET`] and no
    /// suffix code.
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, path_budget: FRAME_PATH_BUDGET, paths: None, code: None }
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

    /// Reads a front-coded path — the inverse of
    /// [`SeqEncoder::put_front_coded`] — into this reader's arena: the
    /// first `shared` bytes of `base`, then the suffix, carried verbatim
    /// or, when the frame has a suffix code, as codewords. `base` is any
    /// path this reader assembled earlier (the predecessor's, or the
    /// member's a path reference names). The handle is readable once the
    /// reader has dropped; until then it serves as a later member's base.
    ///
    /// The arena is reserved on the first call, at three times the bytes
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
    /// bits left could hold, of codewords running past the body or
    /// padded with a non-zero bit, and assembled bytes that are not
    /// UTF-8. The halves are not validated separately: a shared prefix
    /// may legally end inside a multi-byte character.
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
        let reserve = (ARENA_PER_BODY_BYTE * self.buf.len()).min(FRAME_PATH_BUDGET);
        let suffix = match &mut self.code {
            None => self.take(carried)?,
            Some(code) => {
                if carried > self.buf.len().saturating_mul(8) {
                    return Err(BinDecodeError::msg(format!(
                        "truncated: a coded suffix of {carried} bytes, {} bytes left",
                        self.buf.len()
                    )));
                }
                self.buf = &self.buf[code.decode(self.buf, carried)?..];
                &code.suffix[..carried]
            }
        };
        self.paths
            .get_or_insert_with(|| PathArenaBuilder::with_capacity(reserve))
            .push_front_coded(base, shared, suffix)
            .map_err(BinDecodeError::msg)
    }

    /// Reads a frame's suffix code — the table [`code_members`] places —
    /// and decodes every later front-coded suffix through it:
    ///
    /// ```text
    /// n−1 u8 | n symbols, strictly ascending | n codeword lengths, 4 bits
    ///          each, high nibble first, a last odd nibble zero
    /// ```
    ///
    /// The lengths give the codewords: canonical, in order of length,
    /// then symbol. The lookup table is built here, on this reader, with
    /// an entry for every `longest`-bit string.
    ///
    /// # Errors
    ///
    /// Truncation, fewer than two symbols, symbols out of order or
    /// repeated, a length of 0 or above [`MAX_CODE_LEN`], a non-zero
    /// padding nibble, and lengths that over-subscribe the code or leave
    /// it incomplete — so every bit string starts with exactly one
    /// codeword.
    pub fn read_code(&mut self) -> Result<(), BinDecodeError> {
        let n = usize::from(self.u8()?) + 1;
        if n < 2 {
            return Err(BinDecodeError::msg("a suffix code of one symbol"));
        }
        let symbols = self.take(n)?;
        if symbols.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(BinDecodeError::msg("suffix code symbols are not strictly ascending"));
        }
        let packed = self.take(n.div_ceil(2))?;
        if n % 2 == 1 && packed[n / 2] & 0x0f != 0 {
            return Err(BinDecodeError::msg("a suffix code's padding nibble is not zero"));
        }
        let mut lens = [0u8; 256];
        let mut kraft = 0u32;
        for (i, len) in lens[..n].iter_mut().enumerate() {
            *len = (packed[i / 2] >> if i % 2 == 0 { 4 } else { 0 }) & 0x0f;
            if *len == 0 || u32::from(*len) > MAX_CODE_LEN {
                return Err(BinDecodeError::msg(format!("a codeword length of {len}")));
            }
            kraft += 1 << (MAX_CODE_LEN - u32::from(*len));
        }
        if kraft != 1 << MAX_CODE_LEN {
            let why = if kraft > 1 << MAX_CODE_LEN { "over-subscribed" } else { "incomplete" };
            return Err(BinDecodeError::msg(format!("an {why} suffix code")));
        }
        let table =
            SuffixTable { longest: 0, entries: [0; CODE_TABLE_LEN], suffix: [0; MAX_PATH_LEN] };
        self.code.insert(table).fill(symbols, &lens[..n]);
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

/// Entries in a [`SuffixTable`]: one for every [`MAX_CODE_LEN`]-bit
/// string, of which a code whose longest codeword is shorter fills the
/// first `1 << longest`.
const CODE_TABLE_LEN: usize = 1 << MAX_CODE_LEN;

/// A frame's suffix code as its decoder holds it: indexed by the next
/// `longest` bits of a coded suffix, each entry is the symbol those bits
/// begin with (low byte) and its codeword's length (high byte). Beside
/// it, room for one decoded suffix, which the arena then takes as it
/// takes a raw one.
struct SuffixTable {
    longest: u32,
    entries: [u16; CODE_TABLE_LEN],
    suffix: [u8; MAX_PATH_LEN],
}

impl fmt::Debug for SuffixTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuffixTable").field("longest", &self.longest).finish_non_exhaustive()
    }
}

impl SuffixTable {
    /// Fills the first `1 << longest` entries for the canonical code of
    /// `symbols` (ascending) with `lens` — a complete code, so each of
    /// them is written.
    fn fill(&mut self, symbols: &[u8], lens: &[u8]) {
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

    /// Decodes a suffix of `len` bytes (at most [`MAX_PATH_LEN`]) from the
    /// codewords at the front of `bytes`, most significant bit first,
    /// into `self.suffix`, and returns the bytes they took, rounded up to
    /// a byte. Past the end of `bytes` the loop reads zeros, so it cannot
    /// fail on its own; what it read is checked after.
    ///
    /// # Errors
    ///
    /// Codewords that ran past `bytes`, and padding that is not zero.
    fn decode(&mut self, bytes: &[u8], len: usize) -> Result<usize, BinDecodeError> {
        let SuffixTable { longest, entries, suffix } = self;
        let longest = *longest;
        // `window` holds the next `filled` bits, left-aligned; below them
        // are zeros or the stream's own next bits, so topping it up — a
        // word at a time, or near the end a byte at a time — is an OR.
        let (mut window, mut filled, mut next, mut used) = (0u64, 0u32, 0usize, 0usize);
        for out in &mut suffix[..len] {
            if filled < longest {
                if let Some(word) = bytes.get(next..next + 8) {
                    window |= u64::from_be_bytes(word.try_into().expect("eight bytes")) >> filled;
                    let whole = (64 - filled) / 8;
                    next += whole as usize;
                    filled += 8 * whole;
                } else {
                    while filled <= 56 {
                        window |= u64::from(bytes.get(next).copied().unwrap_or(0)) << (56 - filled);
                        next += 1;
                        filled += 8;
                    }
                }
            }
            let entry = entries[(window >> (64 - longest)) as usize & (CODE_TABLE_LEN - 1)];
            let bits = u32::from(entry >> 8);
            window <<= bits;
            filled -= bits;
            used += bits as usize;
            *out = entry as u8;
        }
        let took = used.div_ceil(8);
        if took > bytes.len() {
            return Err(BinDecodeError::msg(format!(
                "truncated: a coded suffix of {used} bits, {} bytes left",
                bytes.len()
            )));
        }
        if used % 8 != 0 && bytes[took - 1] & (0xff >> (used % 8)) != 0 {
            return Err(BinDecodeError::msg("a coded suffix's padding bits are not zero"));
        }
        Ok(took)
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

/// The encoder's state for one member sequence, carried from member to
/// member: its directory table, and what becomes of path suffixes — on the
/// raw pass each is written verbatim and its bytes are counted into a
/// histogram, on the coded pass ([`code_members`]) each is written as
/// codewords. Fixed-size: it lives on its writer's stack.
pub struct SeqEncoder {
    pub(crate) dirs: DirTable,
    suffixes: Suffixes,
}

enum Suffixes {
    /// How many times each byte value has been written in a suffix.
    Raw([u32; 256]),
    /// Each byte value's codeword (`bits << 4 | length`).
    Coded([u32; 256]),
}

impl SeqEncoder {
    /// The raw pass over a new sequence.
    pub fn new() -> SeqEncoder {
        SeqEncoder { dirs: DirTable::new(), suffixes: Suffixes::Raw([0; 256]) }
    }

    /// Appends `current` front-coded against a base it shares its first
    /// `shared` bytes with: that length as a varint, the suffix's length
    /// in bytes as a varint, then the suffix — verbatim (and counted), or
    /// on a coded pass as its codewords, most significant bit first and
    /// zero-padded to a byte.
    pub fn put_front_coded(&mut self, buf: &mut Vec<u8>, current: &[u8], shared: usize) {
        let suffix = &current[shared..];
        match &mut self.suffixes {
            Suffixes::Raw(counts) => {
                suffix.iter().for_each(|&byte| counts[usize::from(byte)] += 1);
                put_front_coded(buf, current, shared);
            }
            Suffixes::Coded(codewords) => {
                put_varint(buf, shared as u64);
                put_varint(buf, suffix.len() as u64);
                // `pending` holds the low `held` bits not yet written (and
                // above them bits already written, which shift out); they
                // go out four bytes at a time.
                let (mut pending, mut held) = (0u64, 0u32);
                for &byte in suffix {
                    let codeword = codewords[usize::from(byte)];
                    let len = codeword & 0xf;
                    debug_assert!(len > 0, "byte {byte:#x} was not counted on the raw pass");
                    pending = (pending << len) | u64::from(codeword >> 4);
                    held += len;
                    if held >= 32 {
                        held -= 32;
                        buf.extend_from_slice(&((pending >> held) as u32).to_be_bytes());
                    }
                }
                while held >= 8 {
                    held -= 8;
                    buf.push((pending >> held) as u8);
                }
                if held > 0 {
                    buf.push((pending << (8 - held)) as u8);
                }
            }
        }
    }
}

impl Default for SeqEncoder {
    fn default() -> SeqEncoder {
        SeqEncoder::new()
    }
}

/// A suffix code as the encoder builds it and the table carries it: the
/// byte values it codes, ascending, and each one's codeword length. The
/// code is canonical — codewords are assigned in order of length, then
/// symbol ([`first_codewords`]) — so the lengths are all a decoder needs.
struct SuffixCode {
    n: usize,
    symbols: [u8; 256],
    lens: [u8; 256],
}

impl SuffixCode {
    /// The Huffman code for a raw pass's suffix histogram, its codewords
    /// limited to [`MAX_CODE_LEN`] bits; `None` when fewer than two byte
    /// values occur (a code needs two).
    fn for_counts(counts: &[u32; 256]) -> Option<SuffixCode> {
        let mut code = SuffixCode { n: 0, symbols: [0; 256], lens: [0; 256] };
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

    /// Bytes the table takes in a frame.
    fn table_len(&self) -> usize {
        1 + self.n + self.n.div_ceil(2)
    }

    /// Writes the table ([`BinReader::read_code`]) over `out`, which is
    /// [`SuffixCode::table_len`] bytes.
    fn put_table(&self, out: &mut [u8]) {
        let (count, rest) = out.split_first_mut().expect("a table has a count byte");
        let (symbols, lens) = rest.split_at_mut(self.n);
        *count = (self.n - 1) as u8;
        symbols.copy_from_slice(&self.symbols[..self.n]);
        lens.fill(0);
        for (i, &len) in self.lens[..self.n].iter().enumerate() {
            lens[i / 2] |= len << if i % 2 == 0 { 4 } else { 0 };
        }
    }

    /// Each byte value's codeword, as [`Suffixes::Coded`] holds it.
    fn codewords(&self) -> [u32; 256] {
        let mut next = first_codewords(&self.lens[..self.n]);
        let mut codewords = [0u32; 256];
        for (&symbol, &len) in self.symbols[..self.n].iter().zip(&self.lens[..self.n]) {
            let len = usize::from(len);
            codewords[usize::from(symbol)] = (u32::from(next[len]) << 4) | len as u32;
            next[len] += 1;
        }
        codewords
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
    /// front-coded string through [`SeqEncoder::put_front_coded`]. Types
    /// with nothing to gain from either ignore them.
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
    seq: &mut SeqEncoder,
) {
    // One pass, no per-member scratch: a one-byte length is reserved,
    // and the rare member of 128 bytes or more is shifted right to make
    // room for the longer varint.
    let at = buf.len();
    buf.push(0);
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

/// Appends a frame's member sequence, raw or suffix-coded — whichever is
/// smaller ([`code_members`]) — and returns whether it is coded. A coded
/// sequence's table is placed at `table_at`, a position at or before the
/// end of `buf` (a frame puts it after its header's trace section, ahead
/// of the kind's own fields); what lies between moves up to make room.
pub fn put_members_coded<T: BinPayload>(buf: &mut Vec<u8>, table_at: usize, members: &[T]) -> bool {
    let members_at = buf.len();
    let mut raw = SeqEncoder::new();
    put_sequence(buf, members, &mut raw);
    code_members(buf, table_at, members_at, members, &raw)
}

/// The encoder's cost choice for a member sequence already written raw
/// at `buf[members_at..]` by `raw`: builds the length-limited Huffman
/// code of the suffix bytes `raw` counted, writes `members` again under
/// it and keeps that only when it is smaller, table included — then the
/// table goes in at `table_at`, what lay between moves up, and the
/// result is true. Otherwise `buf` is as it was. Like the path
/// reference, this is a cost choice made frame by frame, not an option.
///
/// The coded pass takes the same path bases as the raw one (the choice
/// weighs raw bytes on both passes), so its suffixes are the very bytes
/// the code was built from.
pub fn code_members<T: BinPayload>(
    buf: &mut Vec<u8>,
    table_at: usize,
    members_at: usize,
    members: &[T],
    raw: &SeqEncoder,
) -> bool {
    let Suffixes::Raw(counts) = &raw.suffixes else { return false };
    let Some(code) = SuffixCode::for_counts(counts) else { return false };
    let coded_at = buf.len();
    let mut coded =
        SeqEncoder { dirs: DirTable::new(), suffixes: Suffixes::Coded(code.codewords()) };
    put_sequence(buf, members, &mut coded);
    let (raw_len, coded_len) = (coded_at - members_at, buf.len() - coded_at);
    let table_len = code.table_len();
    if table_len + coded_len >= raw_len {
        buf.truncate(coded_at);
        return false;
    }
    // [.. table_at | head | raw | coded] → [.. table_at | table | head | coded]:
    // the coded members land inside the raw ones' room, the head behind
    // them, and the table before it.
    buf.copy_within(coded_at.., members_at + table_len);
    buf.copy_within(table_at..members_at, table_at + table_len);
    code.put_table(&mut buf[table_at..table_at + table_len]);
    buf.truncate(members_at + table_len + coded_len);
    true
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
/// decoder fails, a member whose decoder does not consume exactly the
/// length its prefix announced, and a suffix code
/// ([`BinReader::read_code`]) on a sequence without a path to code.
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
    if r.code.is_some() && r.paths.is_none() {
        return Err(BinDecodeError::msg("a suffix code on a sequence with no paths"));
    }
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

    /// Sums each codeword's share of the code space: exactly
    /// `1 << MAX_CODE_LEN` for a complete code.
    fn kraft(lens: &[u8]) -> u32 {
        lens.iter().map(|&len| 1 << (MAX_CODE_LEN - u32::from(len))).sum()
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
        let code = SuffixCode::for_counts(&fibonacci).unwrap();
        let lens = &code.lens[..code.n];
        assert_eq!((code.n, kraft(lens)), (30, 1 << MAX_CODE_LEN));
        assert_eq!(lens.iter().max(), Some(&12), "flattened to the limit, not past it");
        assert!(
            lens.windows(2).all(|pair| pair[0] >= pair[1]),
            "heavier symbols, shorter codewords"
        );

        let code = SuffixCode::for_counts(&[7; 256]).unwrap();
        assert!(code.lens.iter().all(|&len| len == 8));
        let mut two = [0; 256];
        (two[b'/' as usize], two[b'x' as usize]) = (1, 1_000);
        let code = SuffixCode::for_counts(&two).unwrap();
        assert_eq!((&code.symbols[..2], &code.lens[..2]), (&b"/x"[..], &[1, 1][..]));
        let mut one = [0; 256];
        one[b'x' as usize] = 9;
        assert!(SuffixCode::for_counts(&one).is_none());
        assert!(SuffixCode::for_counts(&[0; 256]).is_none());
    }

    /// A table as the encoder writes it is one the reader accepts, and
    /// every codeword the encoder assigns decodes to its own symbol.
    #[test]
    fn every_codeword_decodes_to_its_symbol() {
        let mut counts = [0u32; 256];
        for (i, byte) in b"0123456789abcdef/dt".iter().enumerate() {
            counts[usize::from(*byte)] = 1 + (i as u32 * 37) % 11;
        }
        let code = SuffixCode::for_counts(&counts).unwrap();
        let mut table = vec![0; code.table_len()];
        code.put_table(&mut table);
        let mut r = BinReader::new(&table);
        r.read_code().unwrap();
        assert!(r.is_empty());
        let mut reader = r.code.expect("a code was read");
        let codewords = code.codewords();
        for &symbol in &code.symbols[..code.n] {
            let (codeword, len) =
                (codewords[usize::from(symbol)] >> 4, codewords[usize::from(symbol)] & 0xf);
            // The codeword, left-aligned in two bytes.
            let bytes = ((codeword << (16 - len)) as u16).to_be_bytes();
            assert_eq!(reader.decode(&bytes, 1).unwrap(), usize::from(len > 8) + 1);
            assert_eq!(reader.suffix[0], symbol);
        }
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
