//! The delivery oracle every run ends with.
//!
//! The pipeline's contract is exactly-once, in-order delivery of every
//! ChangeLog record that was not explicitly shed. The oracle is fed, in
//! generation order, what the generator expects back (`expect`) and, in
//! hand-back order, what the consumer returned (`deliver`); at the end
//! it names every record that was dropped, duplicated, handed back out
//! of order or with the wrong path, and every role counter that should
//! have stayed at zero. It streams: the serial chain checks millions of
//! events a run without keeping them.

use crate::workload::Expected;
use std::collections::{BTreeMap, VecDeque};

/// At most this many findings are kept in words; all are counted.
const MAX_DETAILS: usize = 32;

#[derive(Debug, Default)]
pub struct Oracle {
    /// Expected and not yet handed back, in generation order.
    pending: VecDeque<Expected>,
    /// Expected records the stream has already moved past: either
    /// dropped, or about to arrive late (out of order).
    skipped: BTreeMap<u64, String>,
    first_index: Option<u64>,
    last_seq: u64,
    attempted: u64,
    failed: u64,
    details: Vec<String>,
}

/// The oracle's final word on a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub details: Vec<String>,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle::default()
    }

    fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed += count;
        if self.details.len() < MAX_DETAILS {
            self.details.push(what());
        }
    }

    /// Registers records the generator has applied, in generation order.
    pub fn expect(&mut self, records: impl IntoIterator<Item = Expected>) {
        for record in records {
            self.first_index.get_or_insert(record.index);
            self.attempted += 1;
            self.pending.push_back(record);
        }
    }

    /// Checks one event the consumer handed back: `seq` is the consumer's
    /// cursor after the hand-back, `index` and `path` are the event's.
    pub fn deliver(&mut self, seq: u64, index: u64, path: &str) {
        if seq <= self.last_seq {
            let last = self.last_seq;
            self.fail(1, || format!("seq not ascending: {seq} after {last} (index {index})"));
        }
        self.last_seq = self.last_seq.max(seq);

        let expected_path = match self.pending.front() {
            Some(front) if front.index == index => self.pending.pop_front().map(|e| e.path),
            Some(front) if front.index < index => {
                // The stream jumped ahead: everything before `index` was
                // dropped or will arrive late. Park it.
                while self.pending.front().is_some_and(|f| f.index < index) {
                    let e = self.pending.pop_front().expect("peeked");
                    self.skipped.insert(e.index, e.path);
                }
                match self.pending.front() {
                    Some(front) if front.index == index => self.pending.pop_front().map(|e| e.path),
                    _ => None,
                }
            }
            _ => match self.skipped.remove(&index) {
                Some(path) => {
                    self.fail(1, || format!("swapped: index {index} handed back out of order"));
                    Some(path)
                }
                None => None,
            },
        };
        match expected_path {
            Some(expected) if expected == path => {}
            Some(expected) => {
                self.fail(1, || format!("wrong path at index {index}: {path} != {expected}"));
            }
            None if self.first_index.is_some_and(|first| index >= first) => {
                self.fail(1, || format!("duplicated: index {index} handed back again"));
            }
            None => self.fail(1, || format!("unexpected: index {index} was never generated")),
        }
    }

    /// Checks one backfill page against the live-delivered range:
    /// `events` must be `expected`, seq for seq and path for path.
    pub fn check_page<'a, 'b>(
        &mut self,
        what: &str,
        events: impl ExactSizeIterator<Item = (u64, &'a str)>,
        expected: impl ExactSizeIterator<Item = (u64, &'b str)>,
    ) {
        let (got_len, want_len) = (events.len(), expected.len());
        if got_len != want_len {
            self.fail(got_len.abs_diff(want_len) as u64, || {
                format!("{what}: page has {got_len} events, expected {want_len}")
            });
        }
        for ((seq, path), (want_seq, want_path)) in events.zip(expected) {
            if seq != want_seq || path != want_path {
                self.fail(1, || {
                    format!(
                        "{what}: page holds seq {seq} {path}, expected seq {want_seq} {want_path}"
                    )
                });
            }
        }
    }

    /// Counts a role counter that must stay at zero (collector `shed`,
    /// subscriber `dropped`, consumer `lost`, ...).
    pub fn counter_must_be_zero(&mut self, name: &str, value: u64) {
        if value != 0 {
            self.fail(value, || format!("{name} = {value}, expected 0"));
        }
    }

    /// Counts one violation found outside the stream (a backfill query
    /// that failed, a page checked elsewhere).
    pub fn violation(&mut self, what: &str) {
        self.fail(1, || what.to_string());
    }

    /// Closes the books: whatever was expected and never handed back is
    /// dropped.
    pub fn finish(mut self) -> Verdict {
        let dropped: Vec<u64> =
            self.skipped.keys().copied().chain(self.pending.iter().map(|e| e.index)).collect();
        if !dropped.is_empty() {
            let shown: Vec<String> = dropped.iter().take(8).map(u64::to_string).collect();
            let n = dropped.len();
            self.fail(n as u64, || {
                format!("dropped: {n} records never handed back (indices {} ...)", shown.join(", "))
            });
        }
        Verdict { attempted: self.attempted, failed: self.failed, details: self.details }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(range: std::ops::RangeInclusive<u64>) -> Vec<Expected> {
        range.map(|index| Expected { index, path: format!("/t/f{index}") }).collect()
    }

    #[test]
    fn clean_stream_passes() {
        let mut oracle = Oracle::new();
        oracle.expect(expected(11..=20));
        for i in 11..=20u64 {
            oracle.deliver(i - 10, i, &format!("/t/f{i}"));
        }
        oracle.counter_must_be_zero("collector.shed", 0);
        let verdict = oracle.finish();
        assert_eq!(verdict.failed, 0, "{verdict:?}");
        assert_eq!(verdict.attempted, 10);
    }

    #[test]
    fn names_a_dropped_a_duplicated_and_a_swapped_event() {
        let mut oracle = Oracle::new();
        oracle.expect(expected(1..=10));
        // 3 is dropped, 5 is duplicated, 7 and 8 are swapped.
        let stream = [1u64, 2, 4, 5, 5, 6, 8, 7, 9, 10];
        for (k, index) in stream.into_iter().enumerate() {
            oracle.deliver(k as u64 + 1, index, &format!("/t/f{index}"));
        }
        let verdict = oracle.finish();
        let all = verdict.details.join("\n");
        assert!(all.contains("dropped: 1 records never handed back (indices 3"), "{all}");
        assert!(all.contains("duplicated: index 5"), "{all}");
        assert!(all.contains("swapped: index 7"), "{all}");
        assert_eq!(verdict.failed, 3, "{all}");
        assert_eq!(verdict.attempted, 10);
    }

    #[test]
    fn names_wrong_paths_descending_seqs_and_nonzero_counters() {
        let mut oracle = Oracle::new();
        oracle.expect(expected(1..=3));
        oracle.deliver(1, 1, "/t/f1");
        oracle.deliver(2, 2, "/t/other");
        oracle.deliver(2, 3, "/t/f3");
        oracle.counter_must_be_zero("consumer.lost", 4);
        let verdict = oracle.finish();
        let all = verdict.details.join("\n");
        assert!(all.contains("wrong path at index 2"), "{all}");
        assert!(all.contains("seq not ascending: 2 after 2"), "{all}");
        assert!(all.contains("consumer.lost = 4"), "{all}");
        assert_eq!(verdict.failed, 6);
    }

    #[test]
    fn pages_must_equal_the_live_delivered_range() {
        let live = |r: std::ops::Range<u64>| r.map(|s| (s, format!("/t/f{s}"))).collect::<Vec<_>>();
        fn page(v: &[(u64, String)]) -> impl ExactSizeIterator<Item = (u64, &str)> {
            v.iter().map(|(seq, path)| (*seq, path.as_str()))
        }
        let (full, short) = (live(5..9), live(5..8));
        let mut oracle = Oracle::new();
        oracle.check_page("page", page(&full), page(&full));
        assert_eq!(oracle.failed, 0);
        oracle.check_page("short", page(&short), page(&full));
        let mut wrong = live(5..9);
        wrong[2].1 = "/t/else".into();
        oracle.check_page("wrong", page(&wrong), page(&full));
        let verdict = oracle.finish();
        assert_eq!(verdict.failed, 2, "{verdict:?}");
    }
}
