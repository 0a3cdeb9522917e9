//! What head-sampled tracing costs the Collector's hot path, as an
//! exact allocation count: the deterministic successor of the a4
//! bench's "1/64 tracing within 10 % of the TCP arm's throughput" gate.
//! One test, in a binary — so a process — of its own, because
//! `set_sample_every` is global.

mod common;

use common::{HotCollector, RECORDS};
use sdci_obs::trace;

/// What one sampled root may allocate: its detail string, and that
/// string's copy if the root is slow enough to enter tail capture.
const PER_SAMPLED_ROOT: u64 = 2;

#[test]
fn tracing_allocates_per_sampled_root_and_nothing_per_unsampled_one() {
    let mut hot = HotCollector::new();
    // A traced warm-up round builds the span ring and fills the
    // slowest-roots buffer, as the untraced one grew the Collector.
    trace::set_sample_every(64);
    hot.round(1);

    trace::set_sample_every(0);
    let untraced = hot.round(2);

    // Every root live and timed for tail capture, none sampled.
    trace::set_sample_every(1 << 40);
    let unsampled = hot.round(3);
    assert!(hot.sink.0.lock().expect("sink lock").iter().all(|e| e.trace.is_none()));
    assert_eq!(
        unsampled, untraced,
        "{RECORDS} unsampled roots allocated; a root that is not recorded formats no detail"
    );

    trace::set_sample_every(64);
    let ring_before = trace::snapshot().len();
    let sampled = hot.round(4);
    let extracts =
        hot.sink.0.lock().expect("sink lock").iter().filter(|e| e.trace.is_some()).count() as u64;
    assert!(extracts >= RECORDS as u64 / 64, "{extracts} of {RECORDS} extractions sampled");
    // One `collector.publish` root per batch shares the head-sampling
    // tick with the extractions; the ring says how many of them it hit.
    let roots = (trace::snapshot().len() - ring_before) as u64;
    assert!(roots >= extracts, "{roots} spans recorded for {extracts} sampled extractions");
    assert!(
        sampled.saturating_sub(untraced) <= PER_SAMPLED_ROOT * roots,
        "{sampled} allocations traced 1/64, {untraced} untraced: more than {PER_SAMPLED_ROOT} \
         for each of {roots} sampled roots"
    );
}
