//! An in-memory POSIX-style filesystem namespace.
//!
//! `simfs` is the substrate shared by the two storage simulators in this
//! reproduction:
//!
//! * `lustre-sim` layers FIDs, metadata targets, and a ChangeLog on top
//!   of a `SimFs` namespace;
//! * `inotify-sim` attaches per-directory watches to a `SimFs` to emulate
//!   the personal-device monitoring Ripple originally used.
//!
//! The filesystem keeps an inode table and directory-entry maps, supports
//! the metadata operations whose events the paper's monitor collects
//! (create, mkdir, unlink, rmdir, rename, write/truncate, setattr,
//! symlink, hardlink), and broadcasts every namespace mutation as an
//! [`FsOp`] to registered observers — the hook from which both ChangeLogs
//! and inotify events are derived.
//!
//! Each mutation has one implementation, its `_at` form
//! ([`SimFs::mkdir_at`], [`SimFs::rename_at`], …), which takes the
//! parent directory's inode and a name. The path form walks the path
//! once ([`SimFs::lookup_parent`]) and calls it; callers that already
//! hold the directory, such as `lustre-sim`, call the `_at` form.
//!
//! Timestamps are supplied by the caller as [`SimTime`] so the filesystem
//! composes with both the discrete-event kernel and wall-clock drivers.
//!
//! # Example
//!
//! ```
//! use simfs::{FileType, SimFs};
//! use sdci_types::SimTime;
//!
//! let mut fs = SimFs::new();
//! let t = SimTime::EPOCH;
//! fs.mkdir("/experiments", t)?;
//! fs.create("/experiments/run-001.dat", t)?;
//! fs.write("/experiments/run-001.dat", 4096, t)?;
//!
//! let stat = fs.stat("/experiments/run-001.dat")?;
//! assert_eq!(stat.file_type, FileType::File);
//! assert_eq!(stat.size, 4096);
//! assert_eq!(fs.read_dir("/experiments")?.len(), 1);
//! # Ok::<(), simfs::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fs;
mod hash;
mod node;
mod ops;
mod path;

pub use error::FsError;
pub use fs::{DirEntry, ParentAndName, SimFs, Stat};
pub use hash::{IdHasher, IdMap};
pub use node::{FileType, InodeId};
pub use ops::{FsOp, FsOpKind, Observer, ObserverId};
pub use path::{normalize_path, walkable};

pub use sdci_types::SimTime;
