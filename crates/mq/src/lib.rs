//! In-process message fabric: the transport substrates the paper builds
//! on.
//!
//! The paper's monitor and Ripple service use three distinct messaging
//! technologies, each reproduced here with its load-bearing semantics:
//!
//! * **ZeroMQ-style pub-sub** ([`pubsub`]) — the Aggregator publishes
//!   each stored event to any subscribed consumer (§4 step 3). Topic
//!   prefix filtering, per-subscriber high-water marks, and PUB-side
//!   drops when a subscriber falls behind all match ZeroMQ's PUB/SUB
//!   contract. The Aggregator publishes into whatever [`Publish`] it is
//!   handed: this crate's [`Broker`] in process, `sdci-net`'s
//!   `TcpBroker` across processes.
//! * **SQS-like reliable queue + Lambda-like workers** ([`sqs`],
//!   [`lambda`]) — Ripple's cloud service places every reported event in
//!   a reliable queue; serverless functions consume entries and remove
//!   them once successfully processed, and a cleanup function re-drives
//!   entries whose processing failed (§3 "Architecture"). Visibility
//!   timeouts and at-least-once delivery match SQS semantics.
//!
//! Everything here is in-process and thread-based: `Send + 'static`
//! payloads over crossbeam channels. The [`transport`] module abstracts
//! the fabric behind the [`Publish`]/[`Subscribe`] traits, and the
//! `sdci-net` crate provides a real TCP implementation of the same
//! contracts so the monitor's roles can run as separate OS processes.
//! The queue in front of the Aggregator (§4 step 3) needs no type of its
//! own: it is a bounded `crossbeam_channel`, whose `Sender<Vec<T>>` is a
//! [`Publish`] that queues each batch as one frame.
//!
//! # Example: pub-sub with topic filtering
//!
//! ```
//! use sdci_mq::pubsub::Broker;
//!
//! let broker = Broker::new(1024);
//! let publisher = broker.publisher();
//! let events = broker.subscribe(&["events/"]);
//! let _other = broker.subscribe(&["admin/"]);
//!
//! publisher.publish("events/mdt0", "CREAT data1.txt".to_string());
//! publisher.publish("admin/health", "ok".to_string());
//!
//! let msg = events.try_recv().expect("matching message");
//! assert_eq!(msg.topic, "events/mdt0");
//! assert!(events.try_recv().is_none(), "admin/ message filtered out");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lambda;
pub mod pubsub;
pub mod sqs;
pub mod transport;

pub use lambda::{LambdaPool, LambdaStats};
pub use pubsub::{Broker, Message, Publisher, Subscriber};
pub use sqs::{Receipt, SqsConfig, SqsQueue, SqsStats};
pub use transport::{Publish, PublishOutcome, Subscribe};
