//! The Aggregator's whole data path — receive, sequence, store, publish,
//! heartbeat — runs on one thread. Alone in its test binary so nothing
//! else starts or ends a thread while it counts.

use sdci_core::{Aggregator, EventStore};
use sdci_mq::pubsub::Broker;
use sdci_types::FileEvent;
use std::sync::Arc;

fn threads_in_this_process() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn aggregator_owns_exactly_one_thread() {
    let (events, frames) = crossbeam_channel::bounded::<Vec<FileEvent>>(16);
    let before = threads_in_this_process();
    let agg = Aggregator::start(frames, Arc::new(EventStore::new(10)), Broker::new(16).publisher());
    assert_eq!(threads_in_this_process(), before + 1);
    drop(events);
    agg.shutdown();
    assert_eq!(threads_in_this_process(), before);
}
