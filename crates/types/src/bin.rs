//! Binary payload encoding for data frames.
//!
//! Control frames on an sdci-net socket are JSON (see
//! `sdci-net::wire`) so a session stays `nc`-debuggable; data frames —
//! every batch of events — carry their payloads in this compact binary
//! form, because rendering each event through a `Value` tree and
//! re-parsing it on receive is the cost the data plane cannot afford:
//!
//! * fixed-width **little-endian** integers (`u8`/`u32`/`u64`),
//! * length-prefixed byte strings (`u32` LE length + raw UTF-8 bytes),
//! * optional sections as a one-byte presence tag (`0` absent,
//!   `1` present) followed by the value,
//! * sequences as a `u32` LE count followed by the items.
//!
//! [`BinPayload`] is deliberately *not* the vendored serde: encoding
//! appends straight to a caller-owned scratch buffer and decoding
//! borrows from the received frame via [`BinReader`]. Both sides are
//! infallible on well-formed input and reject truncated or trailing
//! bytes with a [`BinDecodeError`].
//!
//! The scratch-buffer design is what makes the broker's encode-once
//! fan-out cheap on the deliver direction too: a `DeliverBatch` run is
//! rendered through one encoder into one frozen byte buffer that every
//! subscriber leg then shares by reference — the encode cost is paid
//! once per run, not once per subscriber.

use crate::{Fid, MdtIndex, SimTime, TraceContext};
use std::fmt;
use std::path::PathBuf;

/// A malformed binary payload: truncated field, invalid enum code,
/// non-UTF-8 string bytes, or trailing garbage.
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
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
}

impl<'a> BinReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf }
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

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], BinDecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, BinDecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(BinDecodeError::msg)
    }
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// A type with a binary payload form. Encoding appends to a reusable
/// scratch buffer; decoding reads from a [`BinReader`] positioned at the
/// value's first byte.
pub trait BinPayload: Sized {
    /// Appends the binary encoding of `self` to `buf`.
    fn encode_bin(&self, buf: &mut Vec<u8>);

    /// Decodes one value, consuming exactly its bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`BinDecodeError`] on truncated fields, invalid enum
    /// codes, or non-UTF-8 string bytes.
    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError>;
}

impl BinPayload for u64 {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        r.u64()
    }
}

impl BinPayload for u32 {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        r.u32()
    }
}

impl BinPayload for bool {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(BinDecodeError::msg(format!("invalid bool byte {other}"))),
        }
    }
}

impl BinPayload for String {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(r.str()?.to_string())
    }
}

/// Paths cross the wire as UTF-8, matching the JSON format (the vendored
/// serde renders them through `Value::Str`); monitor paths come from the
/// simulation and are always valid UTF-8.
impl BinPayload for PathBuf {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.to_string_lossy().as_bytes());
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(PathBuf::from(r.str()?))
    }
}

impl BinPayload for () {
    fn encode_bin(&self, _buf: &mut Vec<u8>) {}

    fn decode_bin(_r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(())
    }
}

impl<T: BinPayload> BinPayload for Option<T> {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode_bin(buf);
            }
        }
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_bin(r)?)),
            other => Err(BinDecodeError::msg(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: BinPayload> BinPayload for Vec<T> {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for item in self {
            item.encode_bin(buf);
        }
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        let count = r.u32()? as usize;
        // Guard the pre-allocation against a hostile count: the frame
        // cannot hold more items than it has bytes.
        let mut items = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            items.push(T::decode_bin(r)?);
        }
        Ok(items)
    }
}

impl BinPayload for SimTime {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        self.as_nanos().encode_bin(buf);
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(SimTime::from_nanos(r.u64()?))
    }
}

impl BinPayload for MdtIndex {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        self.as_u32().encode_bin(buf);
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(MdtIndex::new(r.u32()?))
    }
}

impl BinPayload for Fid {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        self.seq.encode_bin(buf);
        self.oid.encode_bin(buf);
        self.ver.encode_bin(buf);
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(Fid { seq: r.u64()?, oid: r.u32()?, ver: r.u32()? })
    }
}

impl BinPayload for TraceContext {
    fn encode_bin(&self, buf: &mut Vec<u8>) {
        self.trace_id.encode_bin(buf);
        self.parent_span_id.encode_bin(buf);
        self.sampled.encode_bin(buf);
    }

    fn decode_bin(r: &mut BinReader<'_>) -> Result<Self, BinDecodeError> {
        Ok(TraceContext {
            trace_id: r.u64()?,
            parent_span_id: r.u64()?,
            sampled: bool::decode_bin(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: BinPayload + PartialEq + fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode_bin(&mut buf);
        let mut r = BinReader::new(&buf);
        assert_eq!(T::decode_bin(&mut r).unwrap(), value);
        assert!(r.is_empty(), "decoder must consume exactly the encoding");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(7u32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo/wörld"));
        roundtrip(String::new());
        roundtrip(PathBuf::from("/data/run7/out.txt"));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(SimTime::from_nanos(123_456_789));
        roundtrip(MdtIndex::new(3));
        roundtrip(Fid { seq: 0x200000402, oid: 0xa046, ver: 0 });
        roundtrip(TraceContext::sampled(0xabcd, 0x1234));
    }

    #[test]
    fn integers_are_little_endian_fixed_width() {
        let mut buf = Vec::new();
        0x0102_0304_0506_0708u64.encode_bin(&mut buf);
        assert_eq!(buf, [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        buf.clear();
        0x0A0B_0C0Du32.encode_bin(&mut buf);
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut buf = Vec::new();
        String::from("ab").encode_bin(&mut buf);
        assert_eq!(buf, [2, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        assert!(u64::decode_bin(&mut BinReader::new(&[1, 2, 3])).is_err());
        assert!(bool::decode_bin(&mut BinReader::new(&[9])).is_err());
        assert!(Option::<u64>::decode_bin(&mut BinReader::new(&[2])).is_err());
        // String length prefix runs past the buffer.
        assert!(String::decode_bin(&mut BinReader::new(&[200, 0, 0, 0, b'x'])).is_err());
        // Hostile item count with no bytes behind it.
        assert!(Vec::<u64>::decode_bin(&mut BinReader::new(&[255, 255, 255, 255])).is_err());
        // Non-UTF-8 string bytes.
        assert!(String::decode_bin(&mut BinReader::new(&[1, 0, 0, 0, 0xFF])).is_err());
    }
}
