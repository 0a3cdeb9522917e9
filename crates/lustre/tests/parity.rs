//! Parity table for the Lustre simulator: every path-taking operation,
//! given the same path spelled many ways, returns exactly the `Result`
//! (variant and path payload) and logs exactly the ChangeLog records
//! pinned in `parity_table.txt`. The table was produced by the
//! implementation that normalised every path into a fresh `PathBuf`
//! and walked it once per lookup, so it holds the one-walk operations to
//! that implementation's behaviour.

use lustre_sim::{DnePolicy, LustreConfig, LustreFs};
use sdci_types::{MdtIndex, SimTime};
use std::fmt::Write as _;

/// As in `simfs`'s parity table: plain, `.`, doubled and trailing
/// separators, `..` detours, relative and empty, through a file,
/// missing, existing, and the root.
const SPELLINGS: &[&str] = &[
    "/a/b",
    "/a/./b",
    "/a//b",
    "/a/b/",
    "/a/x/../b",
    "/../a/b",
    "a/b",
    "",
    "/a/file/x",
    "/a/file",
    "/a/missing",
    "/a/missing/deep",
    "/",
    "/a/b/..",
    "/a/b/f",
    "/a/./new/",
    "/c/../a/new",
    "/c/new",
];

/// Two MDTs, top-level directories round-robin: `/a` (MDT0) holding
/// `b/f` and `file`, and `/c` (MDT1), empty.
fn fixture() -> LustreFs {
    let mut lfs = LustreFs::new(
        LustreConfig::builder("parity")
            .mdt_count(2)
            .ost_count(2)
            .dne_policy(DnePolicy::RoundRobinTopLevel)
            .build(),
    );
    let t = SimTime::EPOCH;
    lfs.mkdir("/a", t).unwrap();
    lfs.mkdir("/a/b", t).unwrap();
    lfs.create("/a/b/f", t).unwrap();
    lfs.create("/a/file", t).unwrap();
    lfs.mkdir("/c", t).unwrap();
    lfs
}

type Op = fn(&mut LustreFs, &str) -> String;

/// Each operation under test, applied to a spelling; the result is
/// rendered with `{:?}` so the error's variant and payload both count.
const OPS: &[(&str, Op)] = &[
    ("fid_of_path", |fs, p| format!("{:?}", fs.fid_of_path(p))),
    ("mdt_of_path", |fs, p| format!("{:?}", fs.mdt_of_path(p))),
    ("create", |fs, p| format!("{:?}", fs.create(p, t(1)))),
    ("mkdir", |fs, p| format!("{:?}", fs.mkdir(p, t(1)))),
    ("mkdir_all", |fs, p| format!("{:?}", fs.mkdir_all(p, t(1)))),
    ("symlink", |fs, p| format!("{:?}", fs.symlink(p, "/target", t(1)))),
    ("hardlink_to", |fs, p| format!("{:?}", fs.hardlink("/a/file", p, t(1)))),
    ("hardlink_from", |fs, p| format!("{:?}", fs.hardlink(p, "/c/h", t(1)))),
    ("unlink", |fs, p| format!("{:?}", fs.unlink(p, t(1)))),
    ("rmdir", |fs, p| format!("{:?}", fs.rmdir(p, t(1)))),
    ("rename_from", |fs, p| format!("{:?}", fs.rename(p, "/c/r", t(1)))),
    ("rename_to", |fs, p| format!("{:?}", fs.rename("/a/file", p, t(1)))),
    ("rename_over", |fs, p| format!("{:?}", fs.rename(p, "/a/b/f", t(1)))),
    ("rename_missing_to", |fs, p| format!("{:?}", fs.rename("/gone/x", p, t(1)))),
    ("write", |fs, p| format!("{:?}", fs.write(p, 10, t(1)))),
    ("truncate", |fs, p| format!("{:?}", fs.truncate(p, 1, t(1)))),
    ("set_attr", |fs, p| format!("{:?}", fs.set_attr(p, 0o600, t(1)))),
    ("set_xattr", |fs, p| format!("{:?}", fs.set_xattr(p, "user.k", b"v".to_vec(), t(1)))),
    ("layout_of", |fs, p| format!("{:?}", fs.layout_of(p))),
    ("set_default_stripe", |fs, p| format!("{:?}", fs.set_default_stripe(p, 2))),
    ("restripe", |fs, p| format!("{:?}", fs.restripe(p, 2, t(1)))),
];

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn table() -> String {
    let mut out = String::new();
    for (name, op) in OPS {
        for spelling in SPELLINGS {
            let mut lfs = fixture();
            let before: Vec<u64> =
                (0..2).map(|m| lfs.changelog(MdtIndex::new(m)).last_index()).collect();
            let result = op(&mut lfs, spelling);
            writeln!(out, "{name} {spelling:?} = {result}").unwrap();
            for (m, after) in before.iter().enumerate() {
                for r in lfs.changelog(MdtIndex::new(m as u32)).read_from(*after, usize::MAX) {
                    writeln!(
                        out,
                        "    mdt{m} #{} {} flags={:#x} target={} parent={} name={:?}",
                        r.index,
                        r.kind.type_column(),
                        r.flags,
                        r.target,
                        r.parent,
                        r.name
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn every_spelling_of_every_path_taking_operation_keeps_its_result_and_records() {
    let got = table();
    let want = include_str!("parity_table.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs; the whole table:\n{got}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "the whole table:\n{got}");
}
