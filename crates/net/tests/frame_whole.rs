//! A frame stays whole through the aggregator: what one collector
//! `ItemBatch` carried is sequenced, stored and delivered to a remote
//! consumer as one `DeliverBatch` — over the deployed assembly, one
//! `Endpoint` serving `TcpPullServer` + `TcpBroker` + `StoreServer`, and
//! an `Aggregator` publishing into that same `TcpBroker`, with raw
//! sockets on both ends so frames are counted, not inferred.

use sdci_core::{Aggregator, EventStore, FeedMessage};
use sdci_net::wire::{write_hello, write_item_batch_bin, BinEncoder, Frame, FrameReader, Service};
use sdci_net::{Endpoint, NetConfig, StoreServer, TcpBroker, TcpPullServer};
use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn event(i: u64) -> FileEvent {
    FileEvent {
        index: i,
        mdt: MdtIndex::new(0),
        changelog_kind: ChangelogKind::Create,
        kind: EventKind::Created,
        time: SimTime::from_nanos(i),
        path: format!("/whole/f{i}").into(),
        src_path: None,
        target: Fid::new(1, i as u32, 0),
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

/// The next frame off `reader` that is not a keep-alive `Ping`.
fn next_frame(reader: &mut FrameReader<TcpStream>) -> Frame<FeedMessage> {
    loop {
        match reader.read_msg::<Frame<FeedMessage>>().expect("feed socket") {
            Frame::Ping => {}
            other => return other,
        }
    }
}

/// Reads up to the next delivery that carries events, returning their
/// sequence numbers and how many deliveries (heartbeats) preceded it.
fn next_event_delivery(reader: &mut FrameReader<TcpStream>) -> (Vec<u64>, u64) {
    let mut heartbeats = 0;
    loop {
        let Frame::DeliverBatch { topic, payloads, .. } = next_frame(reader) else {
            panic!("expected a delivery");
        };
        assert_eq!(topic, "feed/all");
        if let [FeedMessage::Heartbeat { .. }] = payloads[..] {
            heartbeats += 1;
            continue;
        }
        let seqs = payloads.iter().map(|m| match m {
            FeedMessage::Event(sev) => sev.seq,
            FeedMessage::Heartbeat { .. } => panic!("a heartbeat inside an event frame"),
        });
        return (seqs.collect(), heartbeats);
    }
}

#[test]
fn one_item_frame_in_is_one_deliver_frame_out() {
    let cfg = NetConfig {
        heartbeat: Duration::from_millis(20),
        liveness: Duration::from_secs(5),
        ..NetConfig::default()
    };
    let pull_srv = TcpPullServer::<FileEvent>::new(16);
    let broker = TcpBroker::<FeedMessage>::new();
    let agg = Aggregator::start(pull_srv.pull(), Arc::new(EventStore::new(4096)), broker.clone());
    let endpoint = Endpoint::bind(
        "127.0.0.1:0",
        cfg,
        vec![pull_srv.clone(), broker.clone(), StoreServer::new(agg.store())],
    )
    .unwrap();
    let addr = endpoint.local_addr();

    // A raw consumer. Its leg registers asynchronously; the leg's first
    // `Ping` shows it is being served.
    let mut feed = TcpStream::connect(addr).unwrap();
    feed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_hello(&mut feed, Service::Subscriber { prefixes: vec!["feed/".into()] }).unwrap();
    let mut feed = FrameReader::new(feed);
    assert_eq!(feed.read_msg::<Frame<FeedMessage>>().unwrap(), Frame::Ping);

    // A raw collector: one 256-member frame.
    let mut push = TcpStream::connect(addr).unwrap();
    push.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_hello(&mut push, Service::Push { client: "raw".into(), resume_after: 0 }).unwrap();
    let mut acks = FrameReader::new(push.try_clone().unwrap());
    assert_eq!(acks.read_msg::<Frame<FileEvent>>().unwrap(), Frame::Ack { up_to: 0 });
    let mut enc = BinEncoder::new();
    let frame: Vec<FileEvent> = (1..=256).map(event).collect();
    assert_eq!(write_item_batch_bin(&mut push, &mut enc, 1, &frame, None).unwrap(), 1);
    assert_eq!(acks.read_msg::<Frame<FileEvent>>().unwrap(), Frame::Ack { up_to: 256 });

    let (seqs, _) = next_event_delivery(&mut feed);
    assert_eq!(seqs, (1..=256).collect::<Vec<_>>(), "the frame left in pieces or out of order");
    assert_eq!(agg.store().len(), 256, "a frame is stored whole before it is readable");
    assert_eq!(pull_srv.stats().batches, 1);

    // The same collector re-sends from seq 157: the first 100 members
    // are stale, the 156 fresh ones travel on as one frame.
    let resend: Vec<FileEvent> = (157..=412).map(event).collect();
    assert_eq!(write_item_batch_bin(&mut push, &mut enc, 157, &resend, None).unwrap(), 1);
    assert_eq!(acks.read_msg::<Frame<FileEvent>>().unwrap(), Frame::Ack { up_to: 412 });
    let (seqs, heartbeats_between) = next_event_delivery(&mut feed);
    assert_eq!(seqs, (257..=412).collect::<Vec<_>>());
    let stats = pull_srv.stats();
    assert_eq!((stats.batches, stats.items, stats.duplicates), (2, 412, 100));

    // Shutdown drains the legs and sends `Fin`, after which the frame
    // counter is final: every delivery it counted was read here, and
    // only two of them carried events.
    endpoint.shutdown();
    let mut heartbeats_after = 0;
    loop {
        match next_frame(&mut feed) {
            Frame::Fin => break,
            Frame::DeliverBatch { payloads, .. } => {
                assert!(matches!(payloads[..], [FeedMessage::Heartbeat { last_seq: 412 }]));
                heartbeats_after += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(broker.stats().frames_out, 2 + heartbeats_between + heartbeats_after);
    agg.shutdown();
}
