//! Property tests for rule matching: the iterative glob matcher against
//! a reference recursive implementation, and trigger-matching
//! consistency.

use proptest::prelude::*;
use ripple::{glob_match, Trigger};
use sdci_types::{AgentId, ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};

/// Obviously-correct exponential reference matcher.
fn reference_glob(pattern: &[char], name: &[char]) -> bool {
    match (pattern.first(), name.first()) {
        (None, None) => true,
        (Some('*'), _) => {
            reference_glob(&pattern[1..], name)
                || (!name.is_empty() && reference_glob(pattern, &name[1..]))
        }
        (Some('?'), Some(_)) => reference_glob(&pattern[1..], &name[1..]),
        (Some(p), Some(n)) if p == n => reference_glob(&pattern[1..], &name[1..]),
        _ => false,
    }
}

fn pattern_strategy() -> impl Strategy<Value = String> {
    // Small alphabet so wildcards collide with literals often.
    prop::collection::vec(prop::sample::select(vec!['a', 'b', '*', '?', '.']), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c', '.']), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The iterative backtracking matcher agrees with the recursive
    /// reference on every input.
    #[test]
    fn glob_matches_reference(pattern in pattern_strategy(), name in name_strategy()) {
        let p: Vec<char> = pattern.chars().collect();
        let n: Vec<char> = name.chars().collect();
        prop_assert_eq!(
            glob_match(&pattern, &name),
            reference_glob(&p, &n),
            "pattern={:?} name={:?}", pattern, name
        );
    }

    /// Universal glob laws.
    #[test]
    fn glob_laws(name in name_strategy()) {
        prop_assert!(glob_match("*", &name));
        prop_assert!(glob_match(&name, &name), "every literal matches itself");
        let starred = format!("*{name}");
        prop_assert!(glob_match(&starred, &name));
        let suffixed = format!("{name}*");
        prop_assert!(glob_match(&suffixed, &name));
    }
}

fn event(path: &str, kind: EventKind) -> FileEvent {
    FileEvent {
        index: 1,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind,
        time: SimTime::EPOCH,
        path: path.into(),
        src_path: None,
        target: Fid::ZERO,
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Narrowing a trigger can only shrink its match set.
    #[test]
    fn narrowing_triggers_is_monotone(
        dirs in prop::collection::vec(prop::sample::select(vec!["a", "b", "c"]), 1..3),
        name in name_strategy(),
        kind_idx in 0usize..6,
    ) {
        let agent = AgentId::new("x");
        let path = format!("/{}/{}", dirs.join("/"), if name.is_empty() { "f" } else { &name });
        let kind = EventKind::ALL[kind_idx];
        let ev = event(&path, kind);

        let broad = Trigger::on(agent.clone());
        let under = Trigger::on(agent.clone()).under(format!("/{}", dirs[0]));
        let under_kind = Trigger::on(agent.clone())
            .under(format!("/{}", dirs[0]))
            .kinds([EventKind::Created]);
        let narrow = Trigger::on(agent.clone())
            .under(format!("/{}", dirs[0]))
            .kinds([EventKind::Created])
            .glob("a*");

        prop_assert!(broad.matches(&agent, &ev));
        let chain = [
            under.matches(&agent, &ev),
            under_kind.matches(&agent, &ev),
            narrow.matches(&agent, &ev),
        ];
        // Each narrowing step can only turn true into false.
        prop_assert!(chain[0] || !chain[1]);
        prop_assert!(chain[1] || !chain[2]);
    }
}
