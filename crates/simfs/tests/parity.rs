//! Parity tables: every path-taking operation, given the same path
//! spelled many ways, returns exactly the `Result` (variant and path
//! payload) and notifies exactly the `FsOp`s pinned below. The tables
//! were produced by the implementation that normalised every path into
//! a fresh `PathBuf` before walking it, so they hold the walk that
//! borrows its names to that implementation's behaviour.

use sdci_types::SimTime;
use simfs::{FsOp, SimFs};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Every way of naming a path the walk has to agree on: plain, with
/// `.`, doubled and trailing separators, `..` detours (the fallback),
/// relative and empty, through a file, missing, existing, and the root.
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
];

/// `/a`, `/a/b`, `/a/b/f`, `/a/file`, `/c` (empty), and a recording
/// observer attached after the build.
fn fixture() -> (SimFs, Arc<Mutex<Vec<FsOp>>>) {
    let mut fs = SimFs::new();
    let t = SimTime::EPOCH;
    fs.mkdir("/a", t).unwrap();
    fs.mkdir("/a/b", t).unwrap();
    fs.create("/a/b/f", t).unwrap();
    fs.create("/a/file", t).unwrap();
    fs.mkdir("/c", t).unwrap();
    let ops = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ops);
    fs.add_observer(move |op: &FsOp| sink.lock().unwrap().push(op.clone()));
    (fs, ops)
}

type Op = fn(&mut SimFs, &str) -> String;

/// Each operation under test, applied to a spelling; the result is
/// rendered with `{:?}` so the error's variant and payload both count.
const OPS: &[(&str, Op)] = &[
    ("lookup", |fs, p| format!("{:?}", fs.lookup(p))),
    ("exists", |fs, p| format!("{:?}", fs.exists(p))),
    ("stat", |fs, p| format!("{:?}", fs.stat(p).map(|s| (s.inode, s.file_type)))),
    ("read_dir", |fs, p| {
        format!("{:?}", fs.read_dir(p).map(|v| v.into_iter().map(|e| e.name).collect::<Vec<_>>()))
    }),
    ("read_link", |fs, p| format!("{:?}", fs.read_link(p))),
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
    ("rename_missing_to", |fs, p| format!("{:?}", fs.rename("/gone/x", p, t(1)))),
    ("write", |fs, p| format!("{:?}", fs.write(p, 10, t(1)))),
    ("truncate", |fs, p| format!("{:?}", fs.truncate(p, 1, t(1)))),
    ("set_attr", |fs, p| format!("{:?}", fs.set_attr(p, 0o600, t(1)))),
    ("set_xattr", |fs, p| format!("{:?}", fs.set_xattr(p, "user.k", b"v".to_vec(), t(1)))),
    ("get_xattr", |fs, p| format!("{:?}", fs.get_xattr(p, "user.k"))),
];

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// One line per notified op: its kind, the ids it names, and its paths.
fn render_op(op: &FsOp) -> String {
    let mut s = format!(
        "{} inode={} parent={} name={:?} path={:?} dir={}",
        op.kind,
        op.inode.as_u64(),
        op.parent.as_u64(),
        op.name,
        op.path,
        op.is_dir
    );
    if let FsOp { src_parent: Some(parent), src_path: Some(path), .. } = op {
        write!(s, " src_parent={} src_path={path:?}", parent.as_u64()).unwrap();
    }
    s
}

fn table() -> String {
    let mut out = String::new();
    for (name, op) in OPS {
        for spelling in SPELLINGS {
            let (mut fs, ops) = fixture();
            let result = op(&mut fs, spelling);
            writeln!(out, "{name} {spelling:?} = {result}").unwrap();
            for op in ops.lock().unwrap().iter() {
                writeln!(out, "    {}", render_op(op)).unwrap();
            }
        }
    }
    out
}

/// Compares line by line so a failure names the first line that moved.
fn assert_table(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs; the whole table:\n{got}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "the whole table:\n{got}");
}

#[test]
fn every_spelling_of_every_path_taking_operation_keeps_its_result_and_ops() {
    assert_table(&table(), include_str!("parity_table.txt"));
}

#[test]
fn a_scripted_sequence_notifies_the_same_op_stream() {
    let (mut fs, ops) = fixture();
    let mut results = String::new();
    let mut step = |what: &str, r: String| writeln!(results, "{what} = {r}").unwrap();
    step("mkdir", format!("{:?}", fs.mkdir("/c/./d/", t(2))));
    step("mkdir_all", format!("{:?}", fs.mkdir_all("/c//d/e/../e2/f", t(3))));
    step("create", format!("{:?}", fs.create("/c/d/e2/../g", t(4))));
    step("create", format!("{:?}", fs.create("/c/d/h", t(4))));
    step("hardlink", format!("{:?}", fs.hardlink("/c/d/g", "/a/./g2", t(5))));
    step("write", format!("{:?}", fs.write("/a/g2", 7, t(5))));
    step("rename", format!("{:?}", fs.rename("/c/d/g", "/c/d/h/", t(6))));
    step("rename", format!("{:?}", fs.rename("/c/d", "/a/b/../d2", t(7))));
    step("rename", format!("{:?}", fs.rename("/a/d2/e2", "/a//d2/e2", t(7))));
    step("rename", format!("{:?}", fs.rename("/a/d2", "/a/d2/e2/in", t(7))));
    step("unlink", format!("{:?}", fs.unlink("/a/d2/h", t(8))));
    step("unlink", format!("{:?}", fs.unlink("/a/g2/", t(8))));
    step("rmdir", format!("{:?}", fs.rmdir("/a/d2/e2/f", t(9))));
    step("rmdir", format!("{:?}", fs.rmdir("/a/d2/./e2", t(9))));
    step("set_xattr", format!("{:?}", fs.set_xattr("/a/./d2", "user.k", b"v".to_vec(), t(9))));
    let mut got = results;
    for op in ops.lock().unwrap().iter() {
        writeln!(got, "{op:?}").unwrap();
    }
    assert_table(&got, include_str!("parity_ops.txt"));
}
