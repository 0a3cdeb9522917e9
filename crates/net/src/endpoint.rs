//! One address per role: the process's only listener, accept loop and
//! handshake.
//!
//! An [`Endpoint`] binds one `TcpListener` and accepts every kind of
//! peer on it. Each connection gets its own thread, which sets the
//! socket up once (nodelay, the heartbeat read tick, the fault streams
//! of the installed [`FaultPlan`](sdci_faults::FaultPlan)), reads the
//! one opening [`Hello`], checks its wire version, and hands the
//! connection to the [`Handler`] attached for the [`Service`] it names
//! — [`TcpPullServer`](crate::TcpPullServer), [`TcpBroker`](crate::TcpBroker)
//! or [`StoreServer`](crate::StoreServer).
//! A hello that does not decode, announces another version, or names a
//! service nobody attached here is refused: logged at error level,
//! counted in `sdci_net_hello_refused_total{leg}`, connection closed. So
//! is one whose length word claims more than [`MAX_HELLO_LEN`] bytes —
//! refused on the word, before a byte of the body is buffered — and one
//! cut short by the peer closing or going silent for the liveness window.
//! A hello in another encoding, such as an older build's JSON, is one that
//! does not decode.
//!
//! A connection whose first four bytes are `GET ` is an HTTP scrape —
//! as a length word they exceed [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN),
//! so no framed peer can send them — and goes to `sdci_obs`'s handler
//! on the raw socket, outside any fault plan: `/metrics`, `/healthz`
//! and `/tracez` live on the same address as the services.

use crate::conn::NetConfig;
use crate::faulted::{conn_faults, spawn_worker, FaultedWriter};
use crate::wire::{
    timed_out, write_hello, FrameReader, Hello, Service, FRAME_HEADER_LEN, MAX_HELLO_LEN,
    WIRE_PROTO,
};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An accepted connection past its handshake, as a [`Handler`] gets it.
pub struct Conn {
    /// Resumable read half; its socket ticks every `cfg.heartbeat`.
    pub(crate) reader: FrameReader<TcpStream>,
    /// Write half, under the endpoint's fault plan.
    pub(crate) writer: FaultedWriter<TcpStream>,
    /// The endpoint's configuration.
    pub(crate) cfg: NetConfig,
    /// Set when the endpoint shuts down; handlers poll it every
    /// iteration so a chatty peer cannot pin them past shutdown.
    pub(crate) stop: Arc<AtomicBool>,
}

/// The client side of the front door: dials `addr` and opens the
/// connection — socket set-up, this config's fault streams, and the
/// [`Hello`] asking for `service`.
pub(crate) fn dial(
    cfg: &NetConfig,
    addr: SocketAddr,
    service: Service,
) -> io::Result<(FrameReader<TcpStream>, FaultedWriter<TcpStream>)> {
    let stream = cfg.connect(addr)?;
    let _ = stream.set_nodelay(true);
    // The heartbeat tick bounds each read; callers keep their own
    // liveness deadline across ticks.
    stream.set_read_timeout(Some(cfg.heartbeat))?;
    let read_half = stream.try_clone()?;
    let (send_faults, recv_faults) = conn_faults(cfg);
    let mut writer = FaultedWriter::new(stream, send_faults);
    write_hello(&mut writer, service)?;
    Ok((FrameReader::with_faults(read_half, recv_faults), writer))
}

/// What an [`Endpoint`] hands connections to. Implemented by the four
/// server types of this crate; a connection is theirs from the hello
/// on, on the connection's own thread.
pub trait Handler: Send + Sync {
    /// The services this handler answers, by [`Service::name`].
    fn services(&self) -> &'static [&'static str];

    /// Runs one connection whose hello asked for `service` until the
    /// peer leaves or the endpoint stops.
    fn serve(&self, service: Service, conn: Conn);

    /// The endpoint stopped accepting and raised `stop`: release
    /// whatever the connections still running are waiting on.
    fn drain(&self) {}
}

/// The one listener of a server role. Dropping it (or calling
/// [`Endpoint::shutdown`]) stops accepting and drains its handlers.
pub struct Endpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
    handlers: Arc<[Arc<dyn Handler>]>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("addr", &self.addr).finish()
    }
}

impl Endpoint {
    /// Binds `addr` and starts accepting for `handlers`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure — including a failure to
    /// spawn the accept thread (an endpoint that cannot accept is not
    /// bound, so `bind` reports it instead of panicking the process).
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
        handlers: Vec<Arc<dyn Handler>>,
    ) -> io::Result<Endpoint> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let handlers: Arc<[Arc<dyn Handler>]> = handlers.into();
        let accept = {
            let (stop, conns, handlers) =
                (Arc::clone(&stop), Arc::clone(&conns), Arc::clone(&handlers));
            spawn_worker(
                format!("sdci-net-accept-{}", addr.port()),
                "net.endpoint.spawn_accept",
                move || accept_loop(listener, handlers, cfg, stop, conns),
            )?
        };
        Ok(Endpoint { addr, stop, accept: Some(accept), conns, handlers })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the handlers (a broker flushes what is
    /// queued to its subscribers and sends them `Fin`; a pull server
    /// closes its pipeline), and joins every connection thread.
    pub fn shutdown(mut self) {
        self.halt();
        let handles: Vec<JoinHandle<()>> = self.conns.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let Some(accept) = self.accept.take() else { return };
        // The accept loop blocks in `accept`: one connection of our own
        // wakes it to see `stop`. Should even that fail, the thread is
        // left blocked rather than joined.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let v4 = wake.is_ipv4();
            wake.set_ip(if v4 { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        }
        for handler in self.handlers.iter() {
            handler.drain();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(
    listener: TcpListener,
    handlers: Arc<[Arc<dyn Handler>]>,
    cfg: NetConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // The wake-up from `halt`, or a peer that raced it: dropped
        // unserved.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => {
                let (handlers, cfg, stop) = (Arc::clone(&handlers), cfg.clone(), Arc::clone(&stop));
                let spawned =
                    spawn_worker("sdci-net-conn".into(), "net.endpoint.spawn_conn", move || {
                        serve_conn(stream, &handlers, cfg, stop)
                    });
                match spawned {
                    Ok(handle) => {
                        let mut guard = conns.lock();
                        guard.retain(|h| !h.is_finished());
                        guard.push(handle);
                    }
                    Err(e) => {
                        // A transient spawn failure (EAGAIN) costs one
                        // connection, not the role: the stream drops,
                        // the supervised peer reconnects (a pusher
                        // re-sends), and the loop keeps accepting.
                        sdci_obs::error!("conn thread spawn failed; dropping connection"; peer = peer, error = e.to_string());
                        sdci_obs::static_metric!(counter, "sdci_net_spawn_failures_total").inc();
                    }
                }
            }
            // A real accept error (EMFILE, say): pause so the loop
            // cannot spin on it.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One accepted connection, from its first byte to its handler's exit.
fn serve_conn(
    stream: TcpStream,
    handlers: &[Arc<dyn Handler>],
    cfg: NetConfig,
    stop: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(cfg.heartbeat)).is_err() {
        return;
    }
    // A peer gets one liveness window to say what it is; one that
    // connects and stays silent costs this thread no longer than that.
    let deadline = Instant::now() + cfg.liveness;
    let expired = || Instant::now() >= deadline || stop.load(Ordering::Relaxed);
    let mut first = [0u8; FRAME_HEADER_LEN];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return,
            Ok(n) if n == first.len() => break,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
        if expired() {
            return;
        }
    }
    if &first == b"GET " {
        let _ = sdci_obs::expose::serve_http(stream);
        return;
    }
    // Bounded before anything is buffered: the reader would otherwise
    // size its buffer by whatever length the word claims.
    let word = u32::from_be_bytes(first);
    if word as usize > MAX_HELLO_LEN {
        return refuse(
            "unknown",
            &stream,
            format!("a hello of {word} bytes exceeds {MAX_HELLO_LEN}"),
        );
    }
    let Ok(read_half) = stream.try_clone() else { return };
    // A `FrameReader` rather than reads on the raw socket: the heartbeat
    // tick may fire mid-frame, and losing the already-consumed length
    // prefix would desynchronize the stream.
    let (send_faults, recv_faults) = conn_faults(&cfg);
    let mut reader = FrameReader::with_faults(read_half, recv_faults);
    let writer = FaultedWriter::new(stream, send_faults);
    let hello = loop {
        match reader.read_msg::<Hello>() {
            Ok(hello) => break hello,
            Err(e) if timed_out(&e) && !expired() => {}
            Err(_) if stop.load(Ordering::Relaxed) => return,
            Err(e) if timed_out(&e) => {
                return refuse(
                    "unknown",
                    reader.get_ref(),
                    "no whole hello in the liveness window",
                );
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) =>
            {
                return refuse("unknown", reader.get_ref(), e);
            }
            Err(_) => return,
        }
    };
    // The version rule, in its one place: nothing is negotiated.
    let leg = hello.service.name();
    if hello.proto != WIRE_PROTO {
        let theirs = hello.proto;
        let why = format!("peer speaks wire version {theirs}, this build speaks {WIRE_PROTO}");
        return refuse(leg, reader.get_ref(), why);
    }
    match handlers.iter().find(|h| h.services().contains(&leg)) {
        Some(handler) => handler.serve(hello.service, Conn { reader, writer, cfg, stop }),
        None => refuse(leg, reader.get_ref(), "no such service at this address"),
    }
}

/// Logs and counts a refused handshake; the caller closes the
/// connection by dropping it.
fn refuse(leg: &'static str, peer: &TcpStream, why: impl std::fmt::Display) {
    let peer = peer.peer_addr().map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    sdci_obs::error!("handshake refused; closing the connection: {why}"; leg = leg, peer = peer);
    sdci_obs::registry().counter_with("sdci_net_hello_refused_total", &[("leg", leg)]).inc();
}
