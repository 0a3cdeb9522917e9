//! Property tests for the Lustre simulator: ChangeLog invariants under
//! random append/ack/purge interleavings, and path-resolution invariants
//! under random namespace operations.

use lustre_sim::{Changelog, DnePolicy, LustreConfig, LustreFs};
use proptest::prelude::*;
use sdci_types::{ChangelogKind, Fid, MdtIndex, RawChangelogRecord, SimTime};

fn rec(name: &str) -> RawChangelogRecord {
    RawChangelogRecord {
        index: 0,
        kind: ChangelogKind::Create,
        time: SimTime::EPOCH,
        flags: 0,
        target: Fid::new(1, 1, 0),
        parent: Fid::ROOT,
        name: name.into(),
    }
}

#[derive(Debug, Clone)]
enum LogOp {
    Append,
    Ack { user: usize, index_frac: u8 },
    Purge,
    Read { after_frac: u8, max: usize },
}

fn log_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        3 => Just(LogOp::Append),
        2 => (0usize..3, any::<u8>()).prop_map(|(user, index_frac)| LogOp::Ack { user, index_frac }),
        1 => Just(LogOp::Purge),
        2 => (any::<u8>(), 0usize..64).prop_map(|(after_frac, max)| LogOp::Read { after_frac, max }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Indices are dense and monotonically increasing; reads never
    /// return purged or out-of-range records; purge never removes a
    /// record below any user's ack point.
    #[test]
    fn changelog_invariants(ops in prop::collection::vec(log_op(), 1..120)) {
        let mut log = Changelog::new(0);
        let users: Vec<_> = (0..3).map(|_| log.register_user()).collect();
        let mut appended = 0u64;
        for op in ops {
            match op {
                LogOp::Append => {
                    let idx = log.append(rec(&format!("f{appended}")));
                    appended += 1;
                    prop_assert_eq!(idx, appended, "dense indices");
                }
                LogOp::Ack { user, index_frac } => {
                    let index = (index_frac as u64 * appended) / 255;
                    log.ack(users[user], index).unwrap();
                }
                LogOp::Purge => {
                    let min = log.min_acked();
                    log.purge();
                    // Everything above min_acked must survive.
                    let survivors = log.read_from(min, usize::MAX);
                    prop_assert_eq!(survivors.len() as u64, appended - min);
                }
                LogOp::Read { after_frac, max } => {
                    let after = (after_frac as u64 * appended) / 255;
                    let got = log.read_from(after, max);
                    prop_assert!(got.len() <= max);
                    let mut prev = after;
                    for r in &got {
                        prop_assert!(r.index > prev, "strictly increasing");
                        prop_assert!(r.index <= appended);
                        prev = r.index;
                    }
                    // Reads from a point at/after the purge horizon are
                    // gap-free (dense).
                    if !got.is_empty() {
                        prop_assert_eq!(
                            got.last().unwrap().index - got[0].index,
                            got.len() as u64 - 1,
                            "no holes in retained window"
                        );
                    }
                }
            }
            prop_assert_eq!(log.last_index(), appended);
            let stats = log.stats();
            prop_assert_eq!(stats.appended, appended);
            prop_assert_eq!(stats.appended, log.len() as u64 + stats.purged);
        }
    }

    /// With a capacity bound, retained length never exceeds capacity and
    /// overflow accounting balances.
    #[test]
    fn changelog_capacity_accounting(
        cap in 1usize..32,
        n in 0u64..200,
    ) {
        let mut log = Changelog::new(cap);
        for i in 0..n {
            log.append(rec(&format!("f{i}")));
            prop_assert!(log.len() <= cap);
        }
        let stats = log.stats();
        prop_assert_eq!(stats.appended, n);
        prop_assert_eq!(stats.overflowed, n.saturating_sub(cap as u64));
        prop_assert_eq!(log.len() as u64, n.min(cap as u64));
    }
}

#[derive(Debug, Clone)]
enum NsOp {
    Create(u8, u8),
    Mkdir(u8),
    Unlink(u8, u8),
    Rename(u8, u8, u8, u8),
    Write(u8, u8),
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(d, f)| NsOp::Create(d, f)),
        1 => any::<u8>().prop_map(NsOp::Mkdir),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(d, f)| NsOp::Unlink(d, f)),
        1 => (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(a, b, c, d)| NsOp::Rename(a, b, c, d)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(d, f)| NsOp::Write(d, f)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under random namespace churn across 4 DNE-distributed MDTs:
    /// every record's path resolves via `resolve_record_path` when
    /// processed promptly, every live object's FID round-trips through
    /// `fid2path` and `fid2path_into`, and per-MDT record counts sum to
    /// the total.
    #[test]
    fn lustre_namespace_and_resolution(ops in prop::collection::vec(ns_op(), 1..80)) {
        let mut lfs = LustreFs::new(
            LustreConfig::builder("prop")
                .mdt_count(4)
                .dne_policy(DnePolicy::RoundRobinTopLevel)
                .build(),
        );
        let dir = |d: u8| format!("/d{}", d % 6);
        let file = |d: u8, f: u8| format!("/d{}/f{}", d % 6, f % 8);
        let mut t = 0u64;
        let mut clock = || {
            t += 1;
            SimTime::from_secs(t)
        };
        let mut last_seen = [0u64; 4];
        for op in ops {
            let now = clock();
            match op {
                NsOp::Create(d, f) => {
                    let _ = lfs.mkdir_all(dir(d), now);
                    let _ = lfs.create(file(d, f), now);
                }
                NsOp::Mkdir(d) => {
                    let _ = lfs.mkdir_all(dir(d), now);
                }
                NsOp::Unlink(d, f) => {
                    let _ = lfs.unlink(file(d, f), now);
                }
                NsOp::Rename(d1, f1, d2, f2) => {
                    let _ = lfs.rename(file(d1, f1), file(d2, f2), now);
                }
                NsOp::Write(d, f) => {
                    let _ = lfs.write(file(d, f), 128, now);
                }
            }
            // Prompt processing: every new record resolves.
            for m in 0..4u32 {
                let mdt = MdtIndex::new(m);
                for record in lfs.changelog(mdt).read_from(last_seen[m as usize], usize::MAX) {
                    last_seen[m as usize] = record.index;
                    let path = lfs.resolve_record_path(&record);
                    prop_assert!(
                        path.is_ok(),
                        "record {record:?} failed to resolve: {path:?}"
                    );
                }
            }
        }
        // Every live object's FID round-trips, through a fresh path and
        // through one buffer reused for all of them, whose paths grow and
        // shrink in walk order.
        let mut reused = std::path::PathBuf::new();
        for (path, _) in lfs.fs().walk() {
            let fid = lfs.fid_of_path(&path).unwrap();
            lfs.fid2path_into(fid, &mut reused).unwrap();
            prop_assert_eq!(reused.as_os_str(), path.as_os_str());
            prop_assert_eq!(lfs.fid2path(fid).unwrap(), path);
        }
        // Per-MDT sums match total.
        let sum: u64 = (0..4).map(|m| lfs.changelog(MdtIndex::new(m)).stats().appended).sum();
        prop_assert_eq!(sum, lfs.total_events());
    }
}

/// A path over `{a, b}` and one way of spelling each of its names: as
/// is, behind `./`, behind an extra `/`, or behind a `z/..` detour,
/// which sends the walk to its normalising fallback. A trailing `/` or
/// `/.` is the last choice.
fn spelled_path() -> impl Strategy<Value = String> {
    let name = (prop::sample::select(vec!["a", "b"]), 0u8..8);
    (prop::collection::vec(name, 1..=6), 0u8..4).prop_map(|(names, tail)| {
        let mut spelled = String::new();
        for (name, how) in names {
            spelled.push_str(match how {
                0 => "/./",
                1 => "//",
                2 => "/z/../",
                _ => "/",
            });
            spelled.push_str(name);
        }
        spelled.push_str(match tail {
            0 => "/",
            1 => "/.",
            _ => "",
        });
        spelled
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However a path is spelled, `fid_of_path` resolves it to what the
    /// normalised path names, and `fid2path` hands back exactly that
    /// normalised path; a spelling that names nothing fails as its
    /// normalised form does.
    #[test]
    fn fid_of_path_agrees_with_the_normalised_path_for_every_spelling(
        spelled in spelled_path(),
    ) {
        let mut lfs = LustreFs::new(LustreConfig::builder("spell").mdt_count(1).build());
        // Every directory over {a, b} to depth 5: a depth-6 spelling
        // names nothing, so misses are generated too.
        let mut level = vec![String::new()];
        for _ in 0..5 {
            let mut next = Vec::new();
            for parent in &level {
                for name in ["a", "b"] {
                    let path = format!("{parent}/{name}");
                    lfs.mkdir(&path, SimTime::EPOCH).unwrap();
                    next.push(path);
                }
            }
            level = next;
        }
        let normal = simfs::normalize_path(&spelled).unwrap();
        let got = lfs.fid_of_path(&spelled);
        prop_assert_eq!(&got, &lfs.fid_of_path(&normal));
        if let Ok(fid) = got {
            prop_assert_eq!(lfs.fid2path(fid).unwrap(), normal);
        }
    }
}
