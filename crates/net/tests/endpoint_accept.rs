//! The endpoint's accept loop: a peer that connects to an idle role is
//! served at once, not after a polling interval, and shutting an idle
//! endpoint down does not wait on a peer.

use sdci_net::wire::{write_hello, Frame, FrameReader, Service};
use sdci_net::{Endpoint, NetConfig, TcpPullServer};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connects as a fresh pusher named `client` and returns how long the
/// server took, from the connect, to answer the hello with its greeting
/// `Ack` — the handshake a `TcpPush` opens every connection with.
fn handshake(addr: SocketAddr, client: &str) -> Duration {
    let started = Instant::now();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write_hello(&mut writer, Service::Push { client: client.into(), resume_after: 0 }).unwrap();
    match FrameReader::new(stream).read_msg::<Frame<u64>>().unwrap() {
        Frame::Ack { .. } => started.elapsed(),
        other => panic!("expected the greeting Ack, got {other:?}"),
    }
}

#[test]
fn a_peer_connecting_to_an_idle_endpoint_is_greeted_at_once() {
    let server = TcpPullServer::<u64>::new(64);
    let endpoint = Endpoint::bind("127.0.0.1:0", NetConfig::default(), vec![server]).unwrap();
    let addr = endpoint.local_addr();
    std::thread::sleep(Duration::from_millis(50));

    let mut took: Vec<Duration> = (0..20).map(|i| handshake(addr, &format!("c{i}"))).collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(3),
        "median connect-to-Ack {median:?} over {} handshakes ({took:?}); the accept loop \
         must block in accept, not poll",
        took.len()
    );
    endpoint.shutdown();
}

/// Bound to the unspecified address, so the wake-up `shutdown` sends
/// itself goes to loopback.
#[test]
fn shutting_down_an_idle_endpoint_returns_at_once() {
    let server = TcpPullServer::<u64>::new(64);
    let endpoint = Endpoint::bind("0.0.0.0:0", NetConfig::default(), vec![server]).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    endpoint.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown of an idle endpoint took {took:?}");
}
