//! A behavioural simulator of the Lustre parallel filesystem's metadata
//! plane.
//!
//! The paper's monitor (§4) interacts with Lustre through exactly three
//! interfaces, all of which this crate reproduces:
//!
//! 1. **The ChangeLog** — every namespace/metadata mutation is recorded on
//!    the MetaData Server (MDS) that executed it, as a record carrying the
//!    record number, type, timestamp, flags, target FID, parent FID, and
//!    target name (Table 1). See [`Changelog`] and
//!    [`sdci_types::RawChangelogRecord`].
//! 2. **`fid2path`** — FIDs are opaque to external services and must be
//!    resolved to absolute path names during the monitor's processing
//!    step. See [`LustreFs::fid2path_into`], which fills a caller's
//!    buffer as `llapi_fid2path` does, [`LustreFs::fid2path`] and
//!    [`LustreFs::resolve_record_path`].
//! 3. **ChangeLog consumption/purge** — registered ChangeLog users
//!    acknowledge records; acknowledged records can be purged so "the
//!    ChangeLog will not become overburdened with stale events" (§4).
//!    See [`Changelog::register_user`] and [`Changelog::purge`].
//!
//! A [`LustreFs`] couples a [`simfs::SimFs`] namespace with one or more
//! MetaData Targets (MDTs). Directories are distributed across MDTs
//! according to a [`DnePolicy`] (Lustre's Distributed NamespacE), and each
//! metadata operation is logged on the MDT owning the parent directory —
//! which is why the paper's monitor must run one Collector per MDS to
//! capture all changes.
//!
//! # Example
//!
//! ```
//! use lustre_sim::{LustreConfig, LustreFs};
//! use sdci_types::SimTime;
//!
//! let mut lfs = LustreFs::new(LustreConfig::builder("demo").mdt_count(1).build());
//! let t = SimTime::EPOCH;
//! lfs.mkdir("/DataDir", t)?;
//! lfs.create("/DataDir/data1.txt", t)?;
//!
//! let records = lfs.changelog(0.into()).read_from(0, 100);
//! assert_eq!(records.len(), 2);
//! let path = lfs.resolve_record_path(&records[1])?;
//! assert_eq!(path, std::path::PathBuf::from("/DataDir/data1.txt"));
//! # Ok::<(), lustre_sim::LustreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod changelog;
mod error;
mod fs;
mod ost;
mod topology;

pub use changelog::{Changelog, ChangelogStats, ChangelogUser};
pub use error::LustreError;
pub use fs::LustreFs;
pub use ost::{Layout, OstReport, OstUsage};
pub use topology::{DnePolicy, LustreConfig, LustreConfigBuilder};
