//! sdci-net: the monitor's transport fabric over real TCP sockets.
//!
//! The in-process broker in [`sdci_mq`] carries the paper's ZeroMQ
//! semantics inside one process; this crate carries the same semantics
//! across processes, so Collector → Aggregator → Consumer can run as
//! three OS processes (or three hosts):
//!
//! * [`wire`] — the framing: 4-byte big-endian length word + one
//!   binary frame body. Every frame is binary: the opening
//!   [`wire::Hello`], the `ItemBatch`/`DeliverBatch` runs senders
//!   coalesce payloads into, store-RPC replies, and the acks, nacks,
//!   pings and queries of a few bytes each. There is one wire version
//!   ([`wire::WIRE_PROTO`]): every connection's hello announces it and a
//!   mismatch closes the connection.
//! * [`endpoint`] — one address per server role: [`Endpoint`] owns the
//!   process's only listener and accept loop, does the handshake once,
//!   and hands each connection to the [`Handler`] attached for the
//!   service its hello names; HTTP `GET`s on the same address reach
//!   `sdci_obs`'s `/metrics`, `/healthz` and `/tracez`.
//! * [`conn`] — supervision policy: jittered exponential reconnect
//!   backoff, heartbeat/liveness tunables ([`conn::NetConfig`]).
//! * [`pubsub`] — the lossy feed leg ([`TcpBroker`], [`TcpSubscriber`])
//!   with per-subscriber high-water-mark shedding, mirroring
//!   `sdci_mq::pubsub`. The broker is itself the feed's `Publish`: only
//!   the process that owns it publishes, and the wire carries
//!   deliveries, never publications, each publish encoded once on the
//!   publishing thread for every leg — and coded against the publish
//!   before it when every leg it goes to took that one.
//! * [`pipe`] — lossless PUSH/PULL ([`TcpPullServer`], [`TcpPush`]):
//!   per-client sequence numbers, acknowledgements, and resend-on-
//!   reconnect give at-least-once delivery with server-side dedup —
//!   "no events are lost once they have been processed" (§5.2).
//! * [`store_rpc`] — a minimal query RPC ([`StoreServer`],
//!   [`RemoteStore`]) exposing the Aggregator's [`EventStore`] so a
//!   remote `EventConsumer` can backfill gaps after reconnecting.
//! * [`faulted`] — enforcement of an `sdci_faults::FaultPlan`
//!   installed on [`conn::NetConfig`]: every connection above inherits
//!   deterministic frame drop/duplicate/truncate/delay and scripted
//!   partitions at the conn/wire boundary.
//!
//! Every client endpoint is supervised: constructors return
//! immediately and a background worker connects (and re-connects,
//! forever, with backoff) on the caller's behalf. Process failure
//! therefore shows up downstream as a sequence gap — which the
//! consumer already heals from the store — not as an error the
//! application has to handle.
//!
//! [`EventStore`]: sdci_core::EventStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod endpoint;
pub mod faulted;
pub mod pipe;
pub mod pubsub;
pub mod store_rpc;
pub mod wire;

pub use conn::{Backoff, NetConfig, RetryPolicy};
pub use endpoint::{Endpoint, Handler};
pub use faulted::FaultedWriter;
pub use pipe::{TcpPullServer, TcpPush};
pub use pubsub::{TcpBroker, TcpSubscriber};
pub use store_rpc::{RemoteStore, StoreServer};
pub use wire::{BinEncoder, Frame, WireMsg, FRAME_HEADER_LEN, MAX_FRAME_LEN, WIRE_PROTO};
