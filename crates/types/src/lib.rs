//! Shared vocabulary types for the SDCI reproduction.
//!
//! This crate defines the data types that cross crate boundaries in the
//! reproduction of *"Toward Scalable Monitoring on Large-Scale Storage for
//! Software Defined Cyberinfrastructure"* (PDSW-DISCS'17):
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time used by the discrete-event
//!   simulation kernel and by ChangeLog timestamps.
//! * [`Fid`] — Lustre File IDentifiers, the opaque handles recorded in
//!   ChangeLog entries (`t=[0x200000402:0xa046:0x0]`).
//! * [`ChangelogKind`] and [`EventKind`] — the low-level Lustre record type
//!   (`01CREAT`, `06UNLNK`, ...) and the high-level classification used by
//!   Ripple rules (created / modified / deleted / ...).
//! * [`RawChangelogRecord`] — a ChangeLog row exactly as Table 1 of the
//!   paper shows it (FIDs, no paths).
//! * [`FileEvent`] — the processed, path-resolved event that the monitor
//!   publishes to subscribers such as Ripple agents.
//! * [`EventPath`] — an event's path: a handle into the path bytes its
//!   whole batch shares ([`PathArenaBuilder`] writes them).
//! * newtype identifiers ([`MdtIndex`], [`AgentId`], [`RuleId`], ...) and
//!   rate/size helpers ([`EventsPerSec`], [`ByteSize`]).
//!
//! # Example
//!
//! ```
//! use sdci_types::{ChangelogKind, Fid, RawChangelogRecord, SimTime};
//!
//! let rec = RawChangelogRecord {
//!     index: 13106,
//!     kind: ChangelogKind::Create,
//!     time: SimTime::from_secs(72937),
//!     flags: 0x0,
//!     target: Fid::new(0x200000402, 0xa046, 0),
//!     parent: Fid::new(0x200000007, 0x1, 0),
//!     name: "data1.txt".into(),
//! };
//! assert_eq!(rec.kind.code(), 1);
//! assert_eq!(rec.target.to_string(), "[0x200000402:0xa046:0x0]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bin;
mod event;
mod fid;
mod ids;
mod path;
mod rate;
mod time;
mod trace;

pub use bin::{BinDecodeError, BinPayload, BinReader};
pub use event::{ChangelogKind, EventKind, FileEvent, RawChangelogRecord};
pub use fid::{Fid, FidSequence, ParseFidError};
pub use ids::{AgentId, CollectorId, ConsumerId, MdtIndex, OstIndex, RuleId, SubscriptionId};
pub use path::{EventPath, PathArenaBuilder};
pub use rate::{ByteSize, EventsPerSec};
pub use time::{SimDuration, SimTime};
pub use trace::TraceContext;
