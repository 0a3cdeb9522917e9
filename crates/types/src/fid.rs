//! Lustre File IDentifiers.
//!
//! Lustre identifies every filesystem object by a FID — a
//! `(sequence, object id, version)` triple that is unique for the life of
//! the filesystem and independent of the object's path. ChangeLog records
//! reference objects only by FID (see Table 1 of the paper), which is why
//! the monitor's processing stage must run `fid2path` before events are
//! useful to external consumers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A Lustre File IDentifier.
///
/// Renders in Lustre's bracketed hex form:
///
/// ```
/// use sdci_types::Fid;
///
/// let fid = Fid::new(0x200000402, 0xa046, 0);
/// assert_eq!(fid.to_string(), "[0x200000402:0xa046:0x0]");
/// let parsed: Fid = "[0x200000402:0xa046:0x0]".parse()?;
/// assert_eq!(parsed, fid);
/// # Ok::<(), sdci_types::ParseFidError>(())
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fid {
    /// Sequence number. Lustre assigns each client/MDT a range of
    /// sequences; the simulator assigns one sequence range per MDT.
    pub seq: u64,
    /// Object id within the sequence.
    pub oid: u32,
    /// Version (zero for all live objects).
    pub ver: u32,
}

impl Fid {
    /// The zero FID, used by Lustre to mean "no object".
    pub const ZERO: Fid = Fid { seq: 0, oid: 0, ver: 0 };

    /// The root FID of a Lustre filesystem (`[0x200000007:0x1:0x0]`),
    /// matching the parent FID of root-level entries in Table 1.
    pub const ROOT: Fid = Fid { seq: 0x200000007, oid: 0x1, ver: 0 };

    /// Creates a FID from its components.
    pub const fn new(seq: u64, oid: u32, ver: u32) -> Self {
        Fid { seq, oid, ver }
    }

    /// True for the "no object" FID.
    pub const fn is_zero(self) -> bool {
        self.seq == 0 && self.oid == 0 && self.ver == 0
    }
}

impl fmt::Display for Fid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}:{:#x}:{:#x}]", self.seq, self.oid, self.ver)
    }
}

/// Error returned when parsing a [`Fid`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFidError {
    input: String,
}

impl fmt::Display for ParseFidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid FID syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseFidError {}

impl FromStr for Fid {
    type Err = ParseFidError;

    /// Parses `[0xSEQ:0xOID:0xVER]` (brackets optional).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseFidError { input: s.to_owned() };
        let inner = s.trim().trim_start_matches('[').trim_end_matches(']');
        let mut parts = inner.split(':');
        let mut next_hex = |max: u64| -> Result<u64, ParseFidError> {
            let part = parts.next().ok_or_else(err)?.trim();
            let digits =
                part.strip_prefix("0x").or_else(|| part.strip_prefix("0X")).unwrap_or(part);
            let v = u64::from_str_radix(digits, 16).map_err(|_| err())?;
            if v > max {
                return Err(err());
            }
            Ok(v)
        };
        let seq = next_hex(u64::MAX)?;
        let oid = next_hex(u32::MAX as u64)? as u32;
        let ver = next_hex(u32::MAX as u64)? as u32;
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Fid { seq, oid, ver })
    }
}

/// An allocator handing out FIDs from a private sequence range.
///
/// Each simulated MDT owns one `FidSequence`, mirroring Lustre's
/// sequence-controller design: FIDs minted by different MDTs can never
/// collide because their sequence ranges are disjoint.
///
/// # Example
///
/// ```
/// use sdci_types::FidSequence;
///
/// let mut seq = FidSequence::for_mdt(0);
/// let a = seq.next_fid();
/// let b = seq.next_fid();
/// assert_ne!(a, b);
/// assert_eq!(a.seq, b.seq);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FidSequence {
    seq: u64,
    next_oid: u32,
}

impl FidSequence {
    /// Base of the normal-FID sequence space (mirrors Lustre's
    /// `FID_SEQ_NORMAL` = 0x200000400).
    pub const NORMAL_BASE: u64 = 0x2_0000_0400;

    /// The sequence allocator for MDT `index`.
    pub const fn for_mdt(index: u32) -> Self {
        // One sequence per MDT, spaced well apart so ranges stay disjoint
        // even if a future revision mints multiple sequences per MDT.
        FidSequence { seq: Self::NORMAL_BASE + (index as u64) * 0x1_0000, next_oid: 1 }
    }

    /// Mints the next FID in this sequence.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` allocations from one sequence (a real MDT
    /// would roll to a fresh sequence; the simulator treats exhaustion as
    /// a configuration error).
    pub fn next_fid(&mut self) -> Fid {
        let oid = self.next_oid;
        // cannot fail: a simulated MDT mints far fewer than 2^32 FIDs from one sequence.
        self.next_oid = self.next_oid.checked_add(1).expect("FID sequence exhausted");
        Fid { seq: self.seq, oid, ver: 0 }
    }

    /// The sequence number this allocator mints from.
    pub const fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of FIDs minted so far.
    pub const fn minted(&self) -> u64 {
        (self.next_oid - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_table1_format() {
        assert_eq!(Fid::new(0x200000402, 0xa046, 0).to_string(), "[0x200000402:0xa046:0x0]");
        assert_eq!(Fid::ROOT.to_string(), "[0x200000007:0x1:0x0]");
    }

    #[test]
    fn parse_roundtrip() {
        for fid in [Fid::ZERO, Fid::ROOT, Fid::new(0x61b4, 0xca2c7dde, 0x2)] {
            assert_eq!(fid.to_string().parse::<Fid>().unwrap(), fid);
        }
    }

    #[test]
    fn parse_accepts_unbracketed() {
        assert_eq!("0x1:0x2:0x3".parse::<Fid>().unwrap(), Fid::new(1, 2, 3));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "[0x1:0x2]", "[1:2:3:4]", "[zz:0x1:0x0]", "[0x1:0x1ffffffff:0x0]"] {
            assert!(bad.parse::<Fid>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn sequences_for_distinct_mdts_are_disjoint() {
        let mut a = FidSequence::for_mdt(0);
        let mut b = FidSequence::for_mdt(1);
        let fa: Vec<Fid> = (0..100).map(|_| a.next_fid()).collect();
        let fb: Vec<Fid> = (0..100).map(|_| b.next_fid()).collect();
        for x in &fa {
            assert!(!fb.contains(x));
        }
    }

    #[test]
    fn sequence_mints_unique_fids() {
        let mut s = FidSequence::for_mdt(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(s.next_fid()));
        }
        assert_eq!(s.minted(), 1000);
    }

    #[test]
    fn zero_fid_is_zero() {
        assert!(Fid::ZERO.is_zero());
        assert!(!Fid::ROOT.is_zero());
    }
}
