//! Wire format: 4-byte big-endian length word + one binary frame body.
//!
//! Every message on an sdci-net socket is prefixed with a length word so
//! the reader can frame the stream. The word is the body's length, at
//! most [`MAX_FRAME_LEN`]:
//!
//! ```text
//! +--------------+----------------------+
//! | word: u32be  | body: word bytes     |
//! +--------------+----------------------+
//! ```
//!
//! Every message is binary ([`WireMsg`]), built from
//! [`sdci_types::bin`]: the [`Hello`] that opens a connection, the data
//! frames — [`Frame::ItemBatch`], [`Frame::DeliverBatch`] and store-RPC
//! batch replies; a lone event travels as a batch of one — and the
//! control frames: acks, pings, `Fin` and store queries, a few bytes
//! each.
//!
//! A control body is a kind byte, a flags byte, the kind's fields as
//! varints and length-prefixed UTF-8, and nothing after them; the flags
//! byte is 0, but for a store query's trace bit:
//!
//! ```text
//! kind 5 Ack:   up_to varint          kind 7 Ping
//! kind 8 Fin
//! kind 9 Query: [trace 17B, flags&1] | number varint |
//!               presence u8 (1 after_seq, 2 since, 4 path_prefix) |
//!               [after_seq varint] | [since ns varint] |
//!               [prefix: UTF-8 length varint (≤ MAX_PATH_LEN) + bytes] | limit varint
//! kind 10 Hello: proto varint | service tag u8 | the service's fields:
//!               tag 1 Push:       client (UTF-8 length varint + bytes) | resume_after varint
//!               tag 2 Subscriber: count varint | count × prefix (UTF-8 length varint + bytes)
//!               tag 3 Store:      nothing
//! ```
//!
//! A batch body is a fixed header, then the kind's fields. Lengths and
//! counts are LEB128 varints; the members follow one another with no
//! length between them, each coded **relative to the members before it**
//! ([`BinPayload`]: zig-zag deltas and "same as the predecessor's" bits for
//! counters and stamps, paths as shared-prefix length + suffix against the
//! predecessor's or a named earlier member's). In a *fresh* frame those
//! are the members before it in the same frame, the first coded against
//! nothing, so the frame decodes from its own bytes alone. Any batch may
//! instead *continue* its connection (flags bit 2): its members are coded
//! against what the frames before it on the same connection carried as
//! well — the last member, the paths of the last
//! [`HISTORY_MEMBERS`](sdci_types::bin::HISTORY_MEMBERS) members, the last
//! frame's codes — and only that connection's [`FrameReader`], which holds
//! the same [`History`], reads it. An item or deliver batch continues only
//! from where its reader's history ends, by its first sequence number; a
//! store reply carries its number on the connection instead
//! ([`crate::store_rpc`]). Any other is refused before a member is read,
//! and the connection dropped — the redial starts both sides fresh. A
//! connection's first frame, and one after a frame whose first member
//! holds no event (an empty reply, a lone heartbeat), is fresh:
//!
//! ```text
//! +------+-------+----------------------+-----------------------------------+---------------+
//! | kind | flags | trace (17B, flags&1) | class mask u16le | [reuse u16le]  | kind's fields |
//! |  u8  |  u8   | id u64, span u64, u8 | | tables (flags&2)               |               |
//! +------+-------+----------------------+-----------------------------------+---------------+
//! kind 1 ItemBatch:    first_seq varint | members
//! kind 3 StoreBatch:   number varint | members  (of SequencedEvent)
//! kind 4 DeliverBatch: topic (varint len + bytes) | [first_seq varint, flags&4] | members
//!
//! members    = count varint | count × member
//!              member i coded against members 0..i — and, in a continuing
//!              frame, against the connection's history before member 0;
//!              each ends where its own flags, tag and record-type bits say
//! first_seq  = a continuing deliver batch's: its first member's sequence
//!              number, which the reader checks against its history before
//!              it reads a member
//! number     = a store reply's, from 1 on its connection, checked first
//! reuse      = a continuing frame's: the classes coded under the code they
//!              had in the connection's last frame, with no table here
//! tables     = one per class the mask names and reuse does not, in class order:
//!              n−1 u8 | symbols (n < 32: a list; else a 32-byte bitmap) |
//!              a 4-bit codeword length per symbol
//! ```
//!
//! The member sequence is [`sdci_types::bin::code_members`] /
//! [`read_members`], beside [`BinPayload`]: a store node's snapshot files
//! are blocks of the same members. This module adds the header and head
//! and chunks a batch into frames, through one packer and a
//! per-connection [`BinEncoder`]; [`WireMsg::encode`] writes one frame,
//! closed where a chunk closes. Flags bit 1 says the member section is
//! coded — each byte the codeword of its field class's code, or itself for
//! a class the mask leaves out — and a class mask and the coded classes'
//! tables follow the trace section ([`BinReader::read_codes`]); the writer
//! codes a class only when that makes the frame smaller, table included.
//!
//! A member cut short, a count past the members present or past the
//! section's bits, and a byte after the last member are `InvalidData`.
//! What front-coding lets a small frame expand to is
//! bounded by [`sdci_types::bin`]: 4,096 bytes a path, and
//! [`MAX_FRAME_LEN`] assembled path bytes a frame — what the largest
//! frame could have carried verbatim. A decoded frame's paths are
//! handles into one slot of an arena, which its [`BinReader`] seals
//! ([`BinReader::read_staged`]) into the group its connection's history
//! keeps open for up to eight frames of short paths: [`WireMsg::decode`]
//! returns events only after that, and none on an error, whose slot is
//! sealed empty.
//!
//! Kinds 2 and 6 are unassigned: a feed is written only by the process
//! that owns its broker, so there is no publish batch, and a gap on the
//! push leg costs the connection rather than drawing a reply. A body
//! carrying either is `InvalidData` like any other unknown kind. Each
//! reader reads its own kinds only — a [`Hello`] reader 10, a [`Frame`]
//! reader 1, 4, 5, 7 and 8, a store reader 3 and 9 — and refuses any
//! other before a byte past it.
//!
//! There is one wire version, [`WIRE_PROTO`]. Every connection opens
//! with one [`Hello`] frame announcing it and naming the [`Service`] the
//! peer wants; the accepting [`Endpoint`](crate::endpoint::Endpoint)
//! closes the connection on any other version, with an error-level
//! record — nothing is negotiated.
//!
//! The same listener answers HTTP scrapes: the bytes `GET ` read as a
//! length word are `0x47455420`, far above [`MAX_FRAME_LEN`], so they
//! can never open a legal frame and the endpoint routes such a
//! connection to `sdci_obs`'s `/metrics` handler instead.

use sdci_types::bin::{
    code_members, put_bytes, put_member, put_trace, put_varint, read_members, varint_len,
    BinDecodeError, BinPayload, BinReader, Class, History, SeqEncoder, MAX_FRAME_MEMBERS,
};
use sdci_types::TraceContext;
use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

/// Length-prefix size in bytes.
pub const FRAME_HEADER_LEN: usize = 4;

/// Upper bound on a single frame body; larger lengths are treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 64 << 20;

// A frame's decoder assembles no more front-coded path bytes than the
// largest frame could have carried verbatim.
const _: () = assert!(sdci_types::bin::FRAME_PATH_BUDGET == MAX_FRAME_LEN);

/// The wire protocol version this build speaks — the only one. A
/// [`Hello`] announcing anything else is refused, not negotiated with.
pub const WIRE_PROTO: u32 = 20;

/// Longest [`Hello`] body a peer may send and an endpoint reads. The
/// largest legitimate one is a subscriber's prefix list, and this holds a
/// thousand prefixes of sixty bytes. The endpoint refuses an opening
/// length word claiming more before a byte of the body is buffered, so a
/// peer cannot make a connection pin [`MAX_FRAME_LEN`] bytes before it
/// has said who it is.
pub const MAX_HELLO_LEN: usize = 64 << 10;

/// The opening frame of every connection: the peer's wire version and
/// the service it wants from the endpoint it dialed.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Wire protocol version the peer speaks ([`WIRE_PROTO`]).
    pub proto: u32,
    /// What the peer asks this endpoint for.
    pub service: Service,
}

/// The services a peer can ask an endpoint for in its [`Hello`].
#[derive(Debug, Clone, PartialEq)]
pub enum Service {
    /// The lossless PUSH leg: "I will send `ItemBatch` frames."
    Push {
        /// Stable pusher identity (e.g. `"mdt0"`), keying the server's
        /// dedup mark across reconnects.
        client: String,
        /// Highest push sequence number the client saw acknowledged.
        resume_after: u64,
    },
    /// The lossy SUB leg: "stream me topics matching these prefixes."
    Subscriber {
        /// Topic prefixes to subscribe to (empty string = everything).
        prefixes: Vec<String>,
    },
    /// Store query RPC ([`StoreRpc`](crate::store_rpc::StoreRpc)).
    Store,
}

impl Service {
    /// The service's name: how handlers are attached to an endpoint and
    /// the `leg` label on `sdci_net_hello_refused_total`.
    pub fn name(&self) -> &'static str {
        match self {
            Service::Push { .. } => "push",
            Service::Subscriber { .. } => "subscriber",
            Service::Store => "store",
        }
    }
}

/// Service tag of a [`Hello`] body: [`Service::Push`].
const SERVICE_PUSH: u8 = 1;
/// Service tag of a [`Hello`] body: [`Service::Subscriber`].
const SERVICE_SUBSCRIBER: u8 = 2;
/// Service tag of a [`Hello`] body: [`Service::Store`].
const SERVICE_STORE: u8 = 3;

/// A hello is a control frame of kind 10: its version, then the service's
/// tag and fields.
impl WireMsg for Hello {
    fn encode(&self, _enc: &mut BinEncoder, buf: &mut Vec<u8>) -> io::Result<()> {
        put_control(buf, BIN_KIND_HELLO, Some(self.proto.into()));
        match &self.service {
            Service::Push { client, resume_after } => {
                buf.push(SERVICE_PUSH);
                put_bytes(buf, client.as_bytes());
                put_varint(buf, *resume_after);
            }
            Service::Subscriber { prefixes } => {
                buf.push(SERVICE_SUBSCRIBER);
                put_varint(buf, prefixes.len() as u64);
                for prefix in prefixes {
                    put_bytes(buf, prefix.as_bytes());
                }
            }
            Service::Store => buf.push(SERVICE_STORE),
        }
        Ok(())
    }

    /// A hello is spelled one way only: one that does not re-encode to its
    /// own bytes — a varint with a redundant byte — is refused.
    fn decode(body: &[u8], _history: &mut History) -> io::Result<Self> {
        let hello = read_control(body, 0, |kind, _, r| {
            if kind != BIN_KIND_HELLO {
                return Err(BinDecodeError::msg(format!("a frame of kind {kind} is no hello")));
            }
            let proto = u32::try_from(r.varint(Class::Other)?).map_err(BinDecodeError::msg)?;
            let service = match r.u8(Class::Other)? {
                SERVICE_PUSH => {
                    Service::Push { client: r.string()?, resume_after: r.varint(Class::Other)? }
                }
                // A count past the prefixes present fails at the first
                // missing one; the list grows only with prefixes read.
                SERVICE_SUBSCRIBER => Service::Subscriber {
                    prefixes: (0..r.varint(Class::Other)?)
                        .map(|_| r.string())
                        .collect::<Result<_, _>>()?,
                },
                SERVICE_STORE => Service::Store,
                tag => return Err(BinDecodeError::msg(format!("unknown service tag {tag}"))),
            };
            Ok(Hello { proto, service })
        })?;
        let mut spelled = Vec::with_capacity(body.len());
        hello.encode(&mut BinEncoder::new(), &mut spelled)?;
        if spelled != body {
            return Err(invalid("a hello spelled with a redundant byte"));
        }
        Ok(hello)
    }
}

/// Opens a dialed connection: writes this build's [`Hello`] for `service`.
///
/// # Errors
///
/// `InvalidInput` for a hello longer than [`MAX_HELLO_LEN`], which no
/// endpoint would read; otherwise I/O failures from the underlying
/// writer.
pub fn write_hello(w: &mut impl Write, service: Service) -> io::Result<()> {
    let mut body = Vec::new();
    Hello { proto: WIRE_PROTO, service }.encode(&mut BinEncoder::new(), &mut body)?;
    if body.len() > MAX_HELLO_LEN {
        let why = format!("a hello of {} bytes exceeds {MAX_HELLO_LEN}", body.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    write_frame(w, &body)
}

/// One protocol message. `T` is the event payload type (e.g. `FileEvent`
/// on the Collector leg, `FeedMessage` on the consumer leg).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<T> {
    /// Broker → subscriber: publications on one topic (lossy leg).
    DeliverBatch {
        /// Topic every payload was published on.
        topic: String,
        /// The payloads, in publish order. Never empty.
        payloads: Vec<T>,
        /// Send-leg tracing context, as on [`Frame::ItemBatch`].
        trace: Option<TraceContext>,
    },
    /// Pusher → puller: a contiguous run of items (lossless leg;
    /// retransmitted after every reconnect until acked). Member
    /// `i` carries sequence `first_seq + i`; the puller acks the whole
    /// run with a single `Ack`.
    ItemBatch {
        /// Sequence number of `payloads[0]`.
        first_seq: u64,
        /// The payloads, in sequence order. Never empty.
        payloads: Vec<T>,
        /// Tracing context for the *send leg* span covering this
        /// frame (the first sampled payload's, re-parented to the
        /// sender's network span).
        trace: Option<TraceContext>,
    },
    /// Puller → pusher: everything up to and including `up_to` has been
    /// handed to the local pipeline — the pusher may drop it. Also the
    /// server's answer to a push [`Hello`], naming its mark for the
    /// client.
    Ack {
        /// Highest contiguously accepted sequence number.
        up_to: u64,
    },
    /// Liveness probe, sent when a direction has been idle.
    Ping,
    /// Graceful end of stream: the peer drained and is going away.
    Fin,
}

pub(crate) fn invalid(err: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// Whether a read failed only because the socket's heartbeat tick
/// fired: resumable, the caller checks its own deadline and reads on.
pub(crate) fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// A message sdci-net can frame, in its one binary encoding.
pub trait WireMsg: Sized {
    /// Appends this message's body to `buf`. A batch is packed through
    /// `enc` — the scratch and the history of the connection the body is
    /// for, as a chunked batch writer packs it ([`write_item_batch_bin`])
    /// — into one frame however long it is; a control frame takes a few
    /// bytes of `buf` and nothing of `enc`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a store query whose prefix no reader would
    /// accept (not UTF-8, or longer than
    /// [`MAX_PATH_LEN`](sdci_types::bin::MAX_PATH_LEN)).
    fn encode(&self, enc: &mut BinEncoder, buf: &mut Vec<u8>) -> io::Result<()>;

    /// Decodes one complete frame body, as a connection's reader does
    /// ([`FrameReader::read_msg`]), against the `history` of what the
    /// frames it read before carried: a batch that continues its
    /// connection is read against it, every batch is recorded in it, its
    /// paths are assembled in the staging it keeps, and a store frame's
    /// number is taken on it. A fresh `History` reads a body as a
    /// connection's first frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` on kind bytes that are not the reader's, flags or
    /// fields out of range, truncated fields, or trailing garbage, for a
    /// continuing batch that does not start where `history` ends and for
    /// a store frame whose number is not next on it: the stream is no
    /// longer one to read, and `history` is cleared.
    fn decode(body: &[u8], history: &mut History) -> io::Result<Self>;
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Binary body kind byte: [`Frame::ItemBatch`].
const BIN_KIND_ITEM_BATCH: u8 = 1;
/// Binary body kind byte: a store-RPC batch reply (`StoreRpc::Batch`).
const BIN_KIND_STORE_BATCH: u8 = 3;
/// Binary body kind byte: [`Frame::DeliverBatch`].
const BIN_KIND_DELIVER_BATCH: u8 = 4;
/// Binary body kind byte: [`Frame::Ack`].
const BIN_KIND_ACK: u8 = 5;
/// Binary body kind byte: [`Frame::Ping`].
const BIN_KIND_PING: u8 = 7;
/// Binary body kind byte: [`Frame::Fin`].
const BIN_KIND_FIN: u8 = 8;
/// Binary body kind byte: a store query (`StoreRpc::Query`).
pub(crate) const BIN_KIND_QUERY: u8 = 9;
/// Binary body kind byte: a [`Hello`].
const BIN_KIND_HELLO: u8 = 10;

/// Flags bit: a [`TraceContext`] section follows the fixed header.
pub(crate) const BIN_FLAG_TRACE: u8 = 1;

/// Flags bit: the member section is coded; its class mask and tables
/// follow the trace section ([`BinReader::read_codes`]).
const BIN_FLAG_CODED: u8 = 2;

/// Flags bit: the frame continues its connection — its members are coded
/// against the connection's [`History`] as well as against one another,
/// and its coded header has a reuse mask. A deliver batch that sets it
/// carries its first member's sequence number after its topic.
const BIN_FLAG_CONTINUES: u8 = 4;

/// The flags bit that announces a member section coded under `mask`.
fn coded_flag(mask: u16) -> u8 {
    if mask != 0 {
        BIN_FLAG_CODED
    } else {
        0
    }
}

/// Size of the trace section [`BIN_FLAG_TRACE`] announces.
const BIN_TRACE_LEN: usize = 17;

/// Writes the fixed binary header: kind byte, flags byte, and the
/// optional trace section. A batch's coded and continuing flags are set
/// afterwards, by the packer that writes the members ([`write_batch`]).
pub(crate) fn bin_header(buf: &mut Vec<u8>, kind: u8, trace: Option<TraceContext>) {
    buf.push(kind);
    match trace {
        None => buf.push(0),
        Some(t) => {
            buf.push(BIN_FLAG_TRACE);
            put_trace(buf, &t);
        }
    }
}

/// Reads the fixed binary header back: `(kind, trace, continues)`, for a
/// reader of the batch kinds `kinds` — any other is refused before a byte
/// past it is read. The codes a coded frame carries are read into `r`,
/// which decodes the member section through them — a continuing frame's
/// once the history is at hand ([`BinReader::continue_from`]).
fn bin_read_header(
    r: &mut BinReader<'_>,
    kinds: &[u8],
) -> io::Result<(u8, Option<TraceContext>, bool)> {
    let kind = r.u8(Class::Other).map_err(invalid)?;
    if !kinds.contains(&kind) {
        return Err(invalid(format!("unknown binary frame kind {kind}")));
    }
    let flags = r.u8(Class::Other).map_err(invalid)?;
    if flags & !(BIN_FLAG_TRACE | BIN_FLAG_CODED | BIN_FLAG_CONTINUES) != 0 {
        return Err(invalid(format!("unknown binary frame flags {flags:#x}")));
    }
    let continues = flags & BIN_FLAG_CONTINUES != 0;
    let trace = if flags & BIN_FLAG_TRACE != 0 { Some(r.trace().map_err(invalid)?) } else { None };
    match (flags & BIN_FLAG_CODED != 0, continues) {
        (true, false) => r.read_codes().map_err(invalid)?,
        (true, true) => r.read_continuing_codes().map_err(invalid)?,
        (false, _) => {}
    }
    Ok((kind, trace, continues))
}

/// Appends an untraced control body: its kind, a flags byte of 0, and
/// `field` as a varint when the kind carries one.
pub(crate) fn put_control(buf: &mut Vec<u8>, kind: u8, field: Option<u64>) {
    buf.extend_from_slice(&[kind, 0]);
    if let Some(field) = field {
        put_varint(buf, field);
    }
}

/// Reads a control body: its kind byte, a flags byte that sets no bit
/// but those in `allowed`, then the kind's fields through `fields`, which
/// must reach the body's end. Nothing is allocated but what `fields`
/// allocates, and an error's message.
pub(crate) fn read_control<M>(
    body: &[u8],
    allowed: u8,
    fields: impl FnOnce(u8, u8, &mut BinReader<'_>) -> Result<M, BinDecodeError>,
) -> io::Result<M> {
    let mut r = BinReader::new(body);
    let kind = r.u8(Class::Other).map_err(invalid)?;
    let flags = r.u8(Class::Other).map_err(invalid)?;
    if flags & !allowed != 0 {
        return Err(invalid(format!("control frame of kind {kind} with flags {flags:#x}")));
    }
    let msg = fields(kind, flags, &mut r).map_err(invalid)?;
    match r.remaining() {
        0 => Ok(msg),
        n => Err(invalid(format!("control frame of kind {kind} has {n} trailing bytes"))),
    }
}

/// What a batch body carries between its header and its members, as the
/// one batch reader ([`read_batch`]) hands it back.
pub(crate) enum Head {
    /// An item batch's first sequence number.
    Item(u64),
    /// A deliver batch's topic.
    Deliver(String),
    /// A store reply's: nothing its caller needs, its number being the
    /// reader's to check.
    Reply,
}

/// The batch kinds a [`Frame`] reader reads.
const FRAME_KINDS: &[u8] = &[BIN_KIND_ITEM_BATCH, BIN_KIND_DELIVER_BATCH];

/// The batch kind a store-RPC reader reads.
pub(crate) const STORE_KINDS: &[u8] = &[BIN_KIND_STORE_BATCH];

/// The one batch reader: decodes a binary body of one of `kinds` — its
/// header, its kind's head and its members — against and into its
/// connection's `history` ([`WireMsg::decode`]).
///
/// Each kind's head gives the key its history is keyed by: an item
/// batch's `first_seq`; a deliver batch's first member's sequence number,
/// which it carries after its topic only when it continues. A store reply
/// has no trace section and no key, only its number ([`read_number`]).
pub(crate) fn read_batch<T: BinPayload>(
    body: &[u8],
    kinds: &[u8],
    history: &mut History,
) -> io::Result<(Head, Option<TraceContext>, Vec<T>)> {
    // The reader — some 27 KB, dropped in place at the end of this
    // block rather than moved — may borrow `history` while it reads a
    // batch that continues its connection. It assembles the members'
    // paths in the staging `history` keeps, and hands it back when it
    // seals them — or, when the batch is refused, when it seals their
    // slot empty, so that no refused bytes stay in the group its history
    // keeps open.
    let (head, key, trace, continues, read, staging) = {
        let mut r = BinReader::new(body);
        let (kind, trace, continues) = bin_read_header(&mut r, kinds)?;
        let (head, key) = match kind {
            BIN_KIND_ITEM_BATCH => {
                let first_seq = r.varint(Class::Other).map_err(invalid)?;
                (Head::Item(first_seq), first_seq)
            }
            BIN_KIND_DELIVER_BATCH => {
                let topic = r.string().map_err(invalid)?;
                let first_seq =
                    if continues { r.varint(Class::Other).map_err(invalid)? } else { 0 };
                (Head::Deliver(topic), first_seq)
            }
            // Kind 3: `bin_read_header` admitted only the reader's kinds.
            _ if trace.is_some() => {
                return Err(invalid("store-RPC batch replies carry no trace section"));
            }
            _ => {
                read_number(&mut r, history).map_err(invalid)?;
                (Head::Reply, history.next_seq().unwrap_or(0))
            }
        };
        let mut staging = history.unstage();
        let read = r.read_staged(&mut staging, |r| {
            let payloads = match (continues, history.next_seq()) {
                // A fresh batch is all the history holds next, keyed as
                // its writer keyed it.
                (false, _) => {
                    let payloads = read_all(r)?;
                    let key = match head {
                        Head::Deliver(_) => payloads.first().and_then(T::seq),
                        Head::Item(_) | Head::Reply => Some(key),
                    };
                    match key {
                        Some(key) => history.record(false, key, &payloads),
                        None => history.clear(),
                    }
                    r.keep_codes(history);
                    payloads
                }
                (true, Some(expected)) if expected == key => {
                    r.continue_from(history).map_err(invalid)?;
                    read_all(r)?
                }
                // A batch that does not start where the history ends is
                // not read at all: a frame before it was lost, or it was
                // delivered twice, or the reader is not its connection's.
                (true, Some(expected)) => {
                    return Err(invalid(format!(
                        "a batch continuing its connection from {key}, where its history \
                         ends at {expected}"
                    )));
                }
                (true, None) => {
                    return Err(invalid(format!(
                        "a batch continuing its connection from {key} on a reader that holds \
                         none of its history"
                    )));
                }
            };
            // A continuing deliver batch is keyed by its first member's
            // sequence number, as a fresh one is, and its head must say so.
            let carried = payloads.first().and_then(T::seq);
            if continues && matches!(head, Head::Deliver(_)) && carried != Some(key) {
                return Err(invalid(format!(
                    "a deliver batch continuing from sequence {key} whose first member \
                     carries {carried:?}"
                )));
            }
            Ok(payloads)
        });
        (head, key, trace, continues, read, staging)
    };
    history.restage(staging);
    // A refused batch leaves nothing for a later one to continue.
    match &read {
        Ok(payloads) if continues => history.record(true, key, payloads),
        Ok(_) => {}
        Err(_) => history.clear(),
    }
    read.map(|payloads| (head, trace, payloads))
}

/// Reads a store frame's number and takes it on its connection's
/// `history` ([`History::take_number`]).
pub(crate) fn read_number(
    r: &mut BinReader<'_>,
    history: &mut History,
) -> Result<(), BinDecodeError> {
    history.take_number(r.varint(Class::Other)?)
}

/// Reads a body's member section, which must end it.
fn read_all<T: BinPayload>(r: &mut BinReader<'_>) -> io::Result<Vec<T>> {
    let payloads = read_members(r).map_err(invalid)?;
    match r.remaining() {
        0 => Ok(payloads),
        n => Err(invalid(format!("binary frame has {n} trailing bytes"))),
    }
}

impl<T: BinPayload> WireMsg for Frame<T> {
    fn encode(&self, enc: &mut BinEncoder, buf: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Frame::ItemBatch { first_seq, payloads, trace } => {
                enc.pack_frame(buf, BatchHead::FirstSeq(*first_seq), payloads, *trace)?;
            }
            Frame::DeliverBatch { topic, payloads, trace } => {
                enc.pack_frame(buf, BatchHead::Topic(topic), payloads, *trace)?;
            }
            Frame::Ack { up_to } => put_control(buf, BIN_KIND_ACK, Some(*up_to)),
            Frame::Ping => put_control(buf, BIN_KIND_PING, None),
            Frame::Fin => put_control(buf, BIN_KIND_FIN, None),
        }
        Ok(())
    }

    fn decode(body: &[u8], history: &mut History) -> io::Result<Self> {
        if let Some(&(BIN_KIND_ACK | BIN_KIND_PING | BIN_KIND_FIN)) = body.first() {
            return read_control(body, 0, |kind, _, r| {
                Ok(match kind {
                    BIN_KIND_ACK => Frame::Ack { up_to: r.varint(Class::Other)? },
                    BIN_KIND_PING => Frame::Ping,
                    _ => Frame::Fin,
                })
            });
        }
        match read_batch(body, FRAME_KINDS, history)? {
            (Head::Item(first_seq), trace, payloads) => {
                Ok(Frame::ItemBatch { first_seq, payloads, trace })
            }
            (Head::Deliver(topic), trace, payloads) => {
                Ok(Frame::DeliverBatch { topic, payloads, trace })
            }
            // `FRAME_KINDS` names no store reply, so none is read here.
            (Head::Reply, ..) => Err(invalid("a store reply read as a frame")),
        }
    }
}

/// Per-connection reusable scratch for binary encoding; its buffers grow
/// to the session's working set and are then reused for every batch,
/// whether a chunked writer ([`write_item_batch_bin`]) or
/// [`WireMsg::encode`] packs it.
///
/// It also remembers what the frames it wrote carried — their
/// directories, last member and codes ([`SeqEncoder::history`]) — so an
/// item or deliver frame whose first sequence number is one past the
/// last member it wrote *continues* them, and so does every store reply
/// after one that held an event: the reader of the same connection holds
/// the same history. A writer whose frames may not reach that reader in
/// order — a new connection, a fan-out leg that missed the last frame —
/// says so first ([`BinEncoder::start_fresh`]).
#[derive(Default)]
pub struct BinEncoder {
    /// The raw member section of the frame being packed: the members back
    /// to back, each coded against the ones before it.
    members: Vec<u8>,
    /// Frame-body assembly buffer.
    body: Vec<u8>,
    /// The sequence state kept from frame to frame — the directory table,
    /// the tag of each byte of `members`, the history; made by the first
    /// batch packed.
    seq: Option<Box<SeqEncoder>>,
    /// The store frames written so far: the next carries one more.
    numbered: u64,
}

impl std::fmt::Debug for BinEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let history = self.seq.as_ref().map(|seq| seq.history());
        f.debug_struct("BinEncoder").field("history", &history).finish_non_exhaustive()
    }
}

impl BinEncoder {
    /// A fresh encoder.
    pub fn new() -> BinEncoder {
        BinEncoder::default()
    }

    /// Forgets what the frames written so far carried: the next one goes
    /// out fresh, decodable by a reader that saw none of them.
    pub fn start_fresh(&mut self) {
        if let Some(seq) = &mut self.seq {
            seq.forget_history();
        }
    }

    /// The number the next store frame carries.
    pub(crate) fn number(&mut self) -> u64 {
        self.numbered += 1;
        self.numbered
    }

    /// Appends `payloads` to `buf` as one batch body, closed where
    /// [`write_batch`] closes a chunk: a store reply is the prefix that
    /// fits, and any other batch that does not fit is `InvalidInput`.
    pub(crate) fn pack_frame<T: BinPayload>(
        &mut self,
        buf: &mut Vec<u8>,
        head: BatchHead<'_>,
        payloads: &[T],
        trace: Option<TraceContext>,
    ) -> io::Result<()> {
        let BinEncoder { members, seq, .. } = self;
        let seq = seq.get_or_insert_with(|| Box::new(SeqEncoder::for_coding()));
        let packed = pack_chunk(members, seq, buf, head, payloads, trace, MAX_FRAME_LEN);
        if packed < payloads.len() && !matches!(head, BatchHead::Reply(_)) {
            seq.forget_history(); // nothing is sent for the next frame to continue
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "a batch past one frame"));
        }
        Ok(())
    }
}

/// What a batch body carries between its fixed header (and a coded
/// frame's class mask and tables) and its members — one head per kind of
/// batch.
#[derive(Clone, Copy)]
pub(crate) enum BatchHead<'a> {
    /// [`Frame::ItemBatch`]: the sequence number of the batch's first
    /// member.
    FirstSeq(u64),
    /// [`Frame::DeliverBatch`]: the topic, repeated on every chunk.
    Topic(&'a str),
    /// A store-RPC batch reply: its number on the connection.
    Reply(u64),
}

impl BatchHead<'_> {
    /// The kind byte of a batch with this head.
    fn kind(self) -> u8 {
        match self {
            BatchHead::FirstSeq(_) => BIN_KIND_ITEM_BATCH,
            BatchHead::Topic(_) => BIN_KIND_DELIVER_BATCH,
            BatchHead::Reply(_) => BIN_KIND_STORE_BATCH,
        }
    }

    /// The head of the chunk that starts at the batch's member `lo`: an
    /// item chunk's first sequence number is `first_seq + lo`.
    fn at(self, lo: usize) -> Self {
        match self {
            BatchHead::FirstSeq(first_seq) => BatchHead::FirstSeq(first_seq + lo as u64),
            head => head,
        }
    }

    /// The key a frame of `payloads` under this head is recorded under
    /// in `history`, the writer's: an item frame's first sequence number,
    /// a deliver frame's first member's — none when that member carries
    /// none. A store reply continues wherever `history` ends, or is fresh.
    fn key<T: BinPayload>(self, payloads: &[T], history: &History) -> Option<u64> {
        match self {
            BatchHead::FirstSeq(first_seq) => Some(first_seq),
            BatchHead::Topic(_) => payloads.first().and_then(T::seq),
            BatchHead::Reply(_) => Some(history.next_seq().unwrap_or(0)),
        }
    }

    /// Bytes the head takes; `continued` is the key of a frame that
    /// continues its connection.
    fn len(self, continued: Option<u64>) -> usize {
        match self {
            BatchHead::FirstSeq(first_seq) => varint_len(first_seq),
            BatchHead::Topic(topic) => {
                varint_len(topic.len() as u64) + topic.len() + continued.map_or(0, varint_len)
            }
            BatchHead::Reply(number) => varint_len(number),
        }
    }

    /// Appends the head, every number in it a varint: an item frame's
    /// first sequence number; a deliver frame's topic and, after it,
    /// `continued`, the key of a frame that continues its connection; a
    /// store reply's number.
    fn put(self, body: &mut Vec<u8>, continued: Option<u64>) {
        match self {
            BatchHead::FirstSeq(first_seq) => put_varint(body, first_seq),
            BatchHead::Topic(topic) => {
                put_bytes(body, topic.as_bytes());
                if let Some(first_seq) = continued {
                    put_varint(body, first_seq);
                }
            }
            BatchHead::Reply(number) => put_varint(body, number),
        }
    }
}

/// The one chunked batch writer: greedily packs `payloads` into frames of
/// at most `max_len` body bytes and [`MAX_FRAME_MEMBERS`] members, each
/// repeating `trace` and `head`, and writes them. Returns the number of
/// frames written.
fn write_batch<T: BinPayload>(
    w: &mut impl Write,
    enc: &mut BinEncoder,
    head: BatchHead<'_>,
    payloads: &[T],
    trace: Option<TraceContext>,
    max_len: usize,
) -> io::Result<usize> {
    let BinEncoder { members, body, seq, .. } = enc;
    let seq = seq.get_or_insert_with(|| Box::new(SeqEncoder::for_coding()));
    let mut frames = 0;
    let mut lo = 0;
    while lo < payloads.len() {
        body.clear();
        lo += pack_chunk(members, seq, body, head.at(lo), &payloads[lo..], trace, max_len);
        write_frame(w, body)?;
        frames += 1;
    }
    Ok(frames)
}

/// The one batch packer: appends to `body` one frame of the members at
/// the front of `payloads`, and returns how many it took — those that fit
/// in `max_len` body bytes and [`MAX_FRAME_MEMBERS`]. Each frame is a
/// member sequence of its own: a member that does not fit is taken back
/// out — leaving no trace in `seq`'s directory table — and is the next
/// chunk's first. A frame whose first member holds an event *continues*
/// `seq`'s history when its key ([`BatchHead::key`]) is where that
/// history ends — an item or deliver frame's one past the last member
/// `seq` wrote, the chunk before it or the batch before this one; a store
/// reply's whenever `seq` holds a history — and starts from nothing
/// otherwise. A single member that alone exceeds the cap still gets its
/// own frame — it cannot be split, and the [`MAX_FRAME_LEN`]
/// check in [`write_frame`] remains the backstop.
///
/// The members are packed raw into `members`, `seq` tagging every byte
/// with its class ([`SeqEncoder::for_coding`]); then [`code_members`]
/// makes the cost choice and lays them out behind the header and head,
/// raw or coded — and a coded section is never larger than the raw one,
/// so it fits the cap too.
fn pack_chunk<T: BinPayload>(
    members: &mut Vec<u8>,
    seq: &mut SeqEncoder,
    body: &mut Vec<u8>,
    head: BatchHead<'_>,
    payloads: &[T],
    trace: Option<TraceContext>,
    max_len: usize,
) -> usize {
    let key = head.key(payloads, seq.history());
    let continues = payloads.first().is_some_and(|first| first.event().is_some())
        && key.is_some_and(|key| seq.history().next_seq() == Some(key));
    let continued = key.filter(|_| continues);
    // Per-frame body cost before the member count: kind + flags, the
    // optional trace section and the head.
    let fixed = 2 + if trace.is_some() { BIN_TRACE_LEN } else { 0 } + head.len(continued);
    members.clear();
    seq.begin(continues);
    let mut n = 0;
    while n < payloads.len() && n < MAX_FRAME_MEMBERS {
        let fits = members.len();
        put_member(members, &payloads[n], &payloads[..n], seq);
        // The count is a varint too: it is sized for the chunk this
        // member would make, or a chunk packed exactly to the cap would
        // overshoot it when the count grows a byte — fatal at
        // `MAX_FRAME_LEN`, where `write_frame` rejects the frame instead
        // of splitting it.
        if n > 0 && fixed + varint_len(n as u64 + 1) + members.len() > max_len {
            seq.forget(members, fits);
            break;
        }
        n += 1;
    }
    let at = body.len();
    bin_header(body, head.kind(), trace);
    let table_at = body.len();
    head.put(body, continued);
    match key {
        Some(key) => seq.record(key, &payloads[..n]),
        None => seq.forget_history(),
    }
    body[at + 1] |= coded_flag(code_members(body, table_at, n, members, seq));
    if continues {
        body[at + 1] |= BIN_FLAG_CONTINUES;
    }
    n
}

/// Writes `payloads` as [`Frame::ItemBatch`] frames (member `i`
/// carrying sequence `first_seq + i`), splitting by encoded size so no
/// frame body exceeds [`MAX_FRAME_LEN`]. Returns the number of frames
/// written.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn write_item_batch_bin<T: BinPayload>(
    w: &mut impl Write,
    enc: &mut BinEncoder,
    first_seq: u64,
    payloads: &[T],
    trace: Option<TraceContext>,
) -> io::Result<usize> {
    write_batch(w, enc, BatchHead::FirstSeq(first_seq), payloads, trace, MAX_FRAME_LEN)
}

/// Writes `payloads` as [`Frame::DeliverBatch`] frames on `topic`,
/// splitting by encoded size. Returns the number of frames written.
/// This is the encode-once half of the subscriber fan-out: the broker
/// writes into a shared byte buffer exactly once per publish, and every
/// subscriber leg ships the same bytes. A frame whose first member's
/// sequence number is one past the last member `enc` wrote continues
/// `enc`'s history, so every leg it goes to must have received the frames
/// `enc` wrote before it; the fan-out calls [`BinEncoder::start_fresh`]
/// first when one has not.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn write_deliver_batch_bin<T: BinPayload>(
    w: &mut impl Write,
    enc: &mut BinEncoder,
    topic: &str,
    payloads: &[T],
    trace: Option<TraceContext>,
) -> io::Result<usize> {
    write_batch(w, enc, BatchHead::Topic(topic), payloads, trace, MAX_FRAME_LEN)
}

/// Writes `msg` as one frame in its one encoding, flushing the writer.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn write_msg<M: WireMsg>(w: &mut impl Write, msg: &M) -> io::Result<()> {
    write_msg_bin(w, &mut BinEncoder::new(), msg)
}

/// [`write_msg`] through a caller-owned scratch encoder, whose buffers
/// are reused across calls — for senders of bulk messages.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn write_msg_bin<M: WireMsg>(
    w: &mut impl Write,
    enc: &mut BinEncoder,
    msg: &M,
) -> io::Result<()> {
    // The body buffer is lent out while `msg` packs through the rest of
    // the encoder.
    let mut body = std::mem::take(&mut enc.body);
    body.clear();
    let written = msg.encode(enc, &mut body).and_then(|()| write_frame(w, &body));
    enc.body = body;
    written
}

/// Writes one frame: the length word, then the body, as a single
/// vectored write and exactly one flush (the frame-alignment invariant
/// [`crate::faulted::FaultedWriter`] relies on). A body longer than a
/// reader accepts, [`MAX_FRAME_LEN`], is refused with `InvalidInput`
/// before a byte is written.
fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_LEN {
        let why = format!("a frame of {} bytes exceeds {MAX_FRAME_LEN}", body.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    let header = (body.len() as u32).to_be_bytes();
    let mut headed = 0; // bytes of the header written so far
    let mut bodied = 0; // bytes of the body written so far
    while headed < header.len() || bodied < body.len() {
        let n = if headed < header.len() {
            w.write_vectored(&[IoSlice::new(&header[headed..]), IoSlice::new(body)])?
        } else {
            w.write(&body[bodied..])?
        };
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "frame write stalled"));
        }
        let into_header = n.min(header.len() - headed);
        headed += into_header;
        bodied += n - into_header;
    }
    w.flush()?;
    sdci_obs::static_metric!(counter, "sdci_net_frames_out_total").inc();
    sdci_obs::static_metric!(counter, "sdci_net_bytes_out_total")
        .add((FRAME_HEADER_LEN + body.len()) as u64);
    Ok(())
}

/// Most bytes a [`FrameReader`] grows its buffer by for one read: a
/// body's buffer follows the body's bytes as they arrive, so a length
/// word — a peer's claim — never sizes it. Every frame the
/// pipeline sends in steady state fits one step.
const READ_STEP: usize = 64 << 10;

/// Incremental, timeout-tolerant frame reader.
///
/// sdci-net sockets use a short read timeout as their heartbeat tick,
/// and a timeout is perfectly able to fire *mid-frame* — the length
/// prefix arrived but the body is still in flight (Nagle stalls, load,
/// a slow network). A reader that lost the consumed prefix would
/// desynchronize the stream; `FrameReader` instead keeps the partial
/// frame across calls, so a timed-out [`FrameReader::read_msg`] is
/// simply called again and resumes where the stream left off.
///
/// What a peer's length word can make it hold is bounded: a body's
/// buffer grows 64 KiB at a time as its bytes arrive.
pub struct FrameReader<R> {
    inner: R,
    /// Bytes of the current frame received so far, header included.
    buf: Vec<u8>,
    /// Bytes needed before the next decode step: the header length
    /// until the header is complete, then header + body.
    need: usize,
    /// Whether `need` already accounts for the body length.
    have_header: bool,
    /// Installed recv-side fault stream; `None` is a clean wire.
    faults: Option<sdci_faults::StreamFaults>,
    /// Raw body of a frame an injected *duplicate* fault will deliver
    /// again on the next call.
    replay: Option<Vec<u8>>,
    /// What the batch frames read so far carried, for the next one to
    /// continue ([`WireMsg::decode`]).
    history: History,
}

impl<R> std::fmt::Debug for FrameReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader").field("buffered", &self.buf.len()).finish()
    }
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream positioned on a frame boundary.
    pub fn new(inner: R) -> Self {
        Self::with_faults(inner, None)
    }

    /// Like [`FrameReader::new`], with a recv-side fault stream: each
    /// complete frame draws one decision — drop discards it and reads
    /// on, duplicate delivers it twice, truncate poisons it into
    /// `InvalidData` (killing the connection, like a real mid-body
    /// cut), delay stalls before delivering. While the plan scripts a
    /// partition, reads stall briefly and return `WouldBlock` so the
    /// caller's liveness window — not a read error — detects it.
    pub fn with_faults(inner: R, faults: Option<sdci_faults::StreamFaults>) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            need: FRAME_HEADER_LEN,
            have_header: false,
            faults,
            replay: None,
            history: History::default(),
        }
    }

    /// The underlying stream (e.g. to adjust socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Bytes of the frame being read that have arrived so far, header
    /// included: a reader whose read timed out mid-frame has seen the
    /// frame progress when this grew.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Reads one message, resuming any partially received frame.
    ///
    /// # Errors
    ///
    /// `WouldBlock`/`TimedOut` are resumable: call again to continue
    /// the same frame. Any other error — `InvalidData` on a length word
    /// over [`MAX_FRAME_LEN`], or a body [`WireMsg::decode`] rejects —
    /// means the stream is no longer usable.
    pub fn read_msg<M: WireMsg>(&mut self) -> io::Result<M> {
        if let Some(body) = self.replay.take() {
            // The second delivery of an injected duplicate.
            return M::decode(&body, &mut self.history);
        }
        if let Some(faults) = &self.faults {
            if faults.partitioned() {
                std::thread::sleep(Duration::from_millis(2));
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "injected partition: nothing arrives",
                ));
            }
        }
        loop {
            while self.buf.len() < self.need {
                let have = self.buf.len();
                self.buf.resize(self.need.min(have + READ_STEP), 0);
                match self.inner.read(&mut self.buf[have..]) {
                    Ok(0) => {
                        self.buf.truncate(have);
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ));
                    }
                    Ok(n) => self.buf.truncate(have + n),
                    Err(e) => {
                        self.buf.truncate(have);
                        return Err(e);
                    }
                }
            }
            if self.have_header {
                sdci_obs::static_metric!(counter, "sdci_net_frames_in_total").inc();
                sdci_obs::static_metric!(counter, "sdci_net_bytes_in_total")
                    .add(self.buf.len() as u64);
                match self.faults.as_mut().map(|f| f.decide(sdci_faults::Direction::Recv)) {
                    Some(sdci_faults::FrameFault::Drop) => {
                        // The frame evaporates; read the next one.
                        crate::faulted::record_fault("recv", "drop");
                        self.buf.clear();
                        self.need = FRAME_HEADER_LEN;
                        self.have_header = false;
                        continue;
                    }
                    Some(sdci_faults::FrameFault::Truncate) => {
                        // A mid-body cut parses as garbage; poison the
                        // frame so the connection dies like one.
                        crate::faulted::record_fault("recv", "truncate");
                        self.buf.clear();
                        self.need = FRAME_HEADER_LEN;
                        self.have_header = false;
                        return Err(invalid("injected fault: frame truncated on receive"));
                    }
                    Some(sdci_faults::FrameFault::Duplicate) => {
                        crate::faulted::record_fault("recv", "duplicate");
                        self.replay = Some(self.buf[FRAME_HEADER_LEN..].to_vec());
                    }
                    Some(sdci_faults::FrameFault::Delay(dur)) => {
                        crate::faulted::record_fault("recv", "delay");
                        std::thread::sleep(dur);
                    }
                    Some(sdci_faults::FrameFault::Deliver) | None => {}
                }
                let result = M::decode(&self.buf[FRAME_HEADER_LEN..], &mut self.history);
                self.buf.clear();
                self.need = FRAME_HEADER_LEN;
                self.have_header = false;
                return result;
            }
            let header: [u8; FRAME_HEADER_LEN] = std::array::from_fn(|i| self.buf[i]);
            let len = u32::from_be_bytes(header) as usize;
            if len > MAX_FRAME_LEN {
                return Err(invalid(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
            }
            self.need = FRAME_HEADER_LEN + len;
            self.have_header = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use sdci_core::{FeedMessage, SequencedEvent};
    use sdci_types::{ChangelogKind, EventKind, Fid, FileEvent, MdtIndex, SimTime};

    fn event(i: u64) -> FileEvent {
        FileEvent {
            index: i,
            mdt: MdtIndex::new(0),
            changelog_kind: ChangelogKind::Create,
            kind: EventKind::Created,
            time: SimTime::from_nanos(i),
            path: format!("/wire/f{i}").into(),
            src_path: None,
            target: Fid::new(1, i as u32, 0),
            is_dir: false,
            extracted_unix_ns: None,
            trace: None,
        }
    }

    /// DESIGN.md quotes the wire version in prose and lays out its sample
    /// hellos byte for byte; every quote must name the version this crate
    /// speaks, and every sample must be the frame this crate writes for
    /// the service named beside it.
    #[test]
    fn the_design_doc_quotes_the_current_wire_version() {
        let doc = include_str!("../../../DESIGN.md");
        let marker = "WIRE_PROTO = ";
        let mut quotes = 0;
        for (at, _) in doc.match_indices(marker) {
            let rest = &doc[at + marker.len()..];
            let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            let quoted: u32 = rest[..digits].parse().expect("a version number");
            assert_eq!(quoted, WIRE_PROTO, "DESIGN.md quotes `{marker}{quoted}`");
            quotes += 1;
        }
        assert!(quotes >= 1, "DESIGN.md quotes the wire version {quotes} times");

        // A sample hello: a line of hex bytes that opens with a length word
        // and kind 10, then the name of the service it asks for.
        let mut samples = Vec::new();
        for line in doc.lines() {
            let mut tokens = line.split_whitespace().peekable();
            let mut bytes = Vec::new();
            while let Some(byte) =
                tokens.peek().filter(|t| t.len() == 2).and_then(|t| u8::from_str_radix(t, 16).ok())
            {
                bytes.push(byte);
                tokens.next();
            }
            if bytes.len() > FRAME_HEADER_LEN && bytes[FRAME_HEADER_LEN] == BIN_KIND_HELLO {
                let hello = read_one::<Hello>(&bytes).expect(line);
                assert_eq!(hello.proto, WIRE_PROTO, "DESIGN.md lays out `{line}`");
                let mut written = Vec::new();
                write_hello(&mut written, hello.service.clone()).unwrap();
                assert_eq!(written, bytes, "DESIGN.md lays out `{line}`");
                let named = tokens.next().unwrap_or_default();
                assert!(named.eq_ignore_ascii_case(hello.service.name()), "{line}");
                samples.push(hello.service.name());
            }
        }
        assert_eq!(samples, ["push", "subscriber", "store"], "DESIGN.md's sample hellos");
    }

    /// Reads the first frame of an in-memory stream.
    fn read_one<M: WireMsg>(buf: &[u8]) -> io::Result<M> {
        FrameReader::new(buf).read_msg()
    }

    /// Splits `buf` into raw frame bodies without decoding.
    fn raw_frames(mut buf: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            out.push(buf[4..4 + len].to_vec());
            buf = &buf[4 + len..];
        }
        out
    }

    /// Frames `body` under its length word.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        buf
    }

    /// Writes `frame`, checks it is one frame, and reads it back.
    fn roundtrip(frame: Frame<FileEvent>) {
        let mut buf = Vec::new();
        write_msg(&mut buf, &frame).unwrap();
        assert_eq!(raw_frames(&buf).len(), 1);
        assert_eq!(read_one::<Frame<FileEvent>>(&buf).unwrap(), frame);
    }

    #[test]
    fn control_frames_and_batches_roundtrip() {
        roundtrip(Frame::Ack { up_to: 9 });
        roundtrip(Frame::Ack { up_to: u64::MAX });
        roundtrip(Frame::Ping);
        roundtrip(Frame::Fin);
        for trace in [None, Some(TraceContext::sampled(0xabcd, 0x1234))] {
            roundtrip(Frame::ItemBatch { first_seq: 7, payloads: vec![event(7), event(8)], trace });
            roundtrip(Frame::DeliverBatch {
                topic: "feed/all".into(),
                payloads: vec![event(4)],
                trace,
            });
        }
    }

    /// A hello is a control frame of kind 10: its version first, then a
    /// service tag and the service's fields; every control frame after it
    /// is a kind byte, a zero flags byte and its field as a varint — an
    /// ack of a mark below 2^21 is nine bytes framed. The length word is
    /// the body's length and nothing else.
    #[test]
    fn hellos_and_control_frames_are_a_few_binary_bytes() {
        let mut buf = Vec::new();
        write_hello(&mut buf, Service::Push { client: "mdt0".into(), resume_after: 41 }).unwrap();
        let prefixes = vec!["feed/".into(), String::new()];
        write_hello(&mut buf, Service::Subscriber { prefixes }).unwrap();
        write_hello(&mut buf, Service::Store).unwrap();
        for frame in [
            Frame::<FileEvent>::Ack { up_to: 9 },
            Frame::Ack { up_to: (1 << 21) - 1 },
            Frame::Ack { up_to: 300 },
            Frame::Ping,
            Frame::Fin,
        ] {
            write_msg(&mut buf, &frame).unwrap();
        }
        assert_eq!(buf[..FRAME_HEADER_LEN], [0, 0, 0, 10]);
        let frames = raw_frames(&buf);
        let bodies: Vec<&[u8]> = frames.iter().map(|body| &body[..]).collect();
        let want: [&[u8]; 8] = [
            &[10, 0, WIRE_PROTO as u8, 1, 4, b'm', b'd', b't', b'0', 41],
            &[10, 0, WIRE_PROTO as u8, 2, 2, 5, b'f', b'e', b'e', b'd', b'/', 0],
            &[10, 0, WIRE_PROTO as u8, 3],
            &[5, 0, 9],
            &[5, 0, 0xff, 0xff, 0x7f],
            &[5, 0, 0xac, 2],
            &[7, 0],
            &[8, 0],
        ];
        assert_eq!(bodies, want);
        assert_eq!(FRAME_HEADER_LEN + want[4].len(), 9);
    }

    /// A control body is exact: a flags bit, a byte after its field, a
    /// field cut short or overflowing a `u64` is `InvalidData`.
    #[test]
    fn a_control_body_with_flags_a_trailing_byte_or_a_bad_varint_is_invalid_data() {
        let bodies: [&[u8]; 7] = [
            &[5, 1, 9],
            &[7, 0x80],
            &[5, 0, 9, 0],
            &[8, 0, 0],
            &[6, 0],
            &[5, 0, 0x80],
            &[6, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        ];
        for body in bodies {
            let err = Frame::<FileEvent>::decode(body, &mut History::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "accepted: {body:?}");
        }
    }

    /// Every hello round-trips, whatever version it names: the version
    /// rule is the endpoint's, not the codec's. A hello is exact: another
    /// kind, a flags bit, a missing version or service, a version past
    /// `u32`, a tag no service has, a field cut short, a prefix count past
    /// the body, a varint spelled with a redundant byte, a byte after the
    /// last field — or a previous build's JSON hello — is `InvalidData`.
    #[test]
    fn every_hello_roundtrips_and_a_malformed_one_is_invalid_data() {
        for service in [
            Service::Push { client: "mdt0".into(), resume_after: u64::MAX },
            Service::Subscriber { prefixes: vec!["events/".into(), String::new(), "é/".into()] },
            Service::Subscriber { prefixes: Vec::new() },
            Service::Store,
        ] {
            let mut buf = Vec::new();
            write_hello(&mut buf, service.clone()).unwrap();
            assert_eq!(read_one::<Hello>(&buf).unwrap(), Hello { proto: WIRE_PROTO, service });
        }
        let other = Hello { proto: u32::MAX, service: Service::Store };
        let mut buf = Vec::new();
        write_msg(&mut buf, &other).unwrap();
        assert_eq!(read_one::<Hello>(&buf).unwrap(), other);
        let bodies: [&[u8]; 16] = [
            &[],
            &[10],
            &[10, 0],
            &[10, 0, 18],
            &[9, 0, 18, 3],
            &[10, 1, 18, 3],
            &[10, 0, 18, 3, 0],
            &[10, 0, 18, 4],
            &[10, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 3],
            &[10, 0, 18, 1, 4, b'm', b'd'],
            &[10, 0, 18, 1, 2, 0xff, 0xfe, 0],
            &[10, 0, 18, 2, 3, 0, 0],
            &[10, 0, 0x92, 0, 3],
            &[10, 0, 18, 1, 0x80, 0, 41],
            &[10, 0, 18, 2, 0x81, 0, 0],
            br#"{"proto":17,"service":"Store"}"#,
        ];
        for body in bodies {
            let err = read_one::<Hello>(&framed(body)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "accepted: {body:?}");
        }
        // The refusal an operator reads names a body of another kind as
        // one: an older build's hello by its first byte, `{`.
        for (body, kind) in [(bodies[4], "kind 9 is no hello"), (bodies[15], "kind 123")] {
            let err = read_one::<Hello>(&framed(body)).unwrap_err();
            assert!(err.to_string().contains(kind), "{err}");
        }
    }

    /// No hello is written that an endpoint would refuse for its length:
    /// one of a thousand sixty-byte prefixes fits, and one of a megabyte
    /// fails at its writer, not at the connection's other end.
    #[test]
    fn a_hello_longer_than_an_endpoint_reads_is_not_written() {
        let prefixes =
            |n: usize, len: usize| Service::Subscriber { prefixes: vec!["p".repeat(len); n] };
        let mut buf = Vec::new();
        write_hello(&mut buf, prefixes(1_000, 60)).unwrap();
        assert!(buf.len() - FRAME_HEADER_LEN <= MAX_HELLO_LEN);
        let mut buf = Vec::new();
        let err = write_hello(&mut buf, prefixes(1, 1 << 20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(&format!("exceeds {MAX_HELLO_LEN}")), "{err}");
        assert!(buf.is_empty(), "nothing was written");
    }

    /// The endpoint tells an HTTP scrape from a framed peer by the
    /// first four bytes: `GET ` can never be a legal length word.
    #[test]
    fn http_get_is_never_a_legal_length_word() {
        assert!(u32::from_be_bytes(*b"GET ") as usize > MAX_FRAME_LEN);
    }

    /// No frame has a JSON form, batch or control frame: a JSON body is
    /// corruption.
    #[test]
    fn json_batches_and_control_frames_are_invalid_data() {
        for body in [
            r#"{"ItemBatch":{"first_seq":1,"payloads":[1,2]}}"#,
            r#"{"DeliverBatch":{"topic":"t","payloads":[1]}}"#,
            r#"{"Item":{"seq":1,"payload":1}}"#,
            r#"{"Ack":{"up_to":9}}"#,
            r#""Ping""#,
            r#""Fin""#,
        ] {
            let buf = framed(body.as_bytes());
            let err = read_one::<Frame<u64>>(&buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "accepted: {body}");
        }
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Frame::<FileEvent>::Ping).unwrap();
        buf.pop();
        assert!(read_one::<Frame<FileEvent>>(&buf).is_err());
    }

    /// Yields at most one byte per call, returning `WouldBlock` before
    /// every byte — the worst case of a socket whose read timeout keeps
    /// firing while a frame trickles in.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.ready = false;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let batch =
            |i: u64| Frame::ItemBatch { first_seq: i, payloads: vec![event(i)], trace: None };
        let mut data = Vec::new();
        for i in 0..3 {
            write_msg(&mut data, &batch(i)).unwrap();
        }
        let mut reader = FrameReader::new(Trickle { data, pos: 0, ready: false });
        for i in 0..3 {
            // Every byte costs one timed-out call; a reader that lost
            // the consumed prefix would desync on the first of them.
            let frame = loop {
                match reader.read_msg::<Frame<FileEvent>>() {
                    Ok(frame) => break frame,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            };
            assert_eq!(frame, batch(i));
        }
        // The stream is drained; the next read is a clean EOF.
        let err = loop {
            match reader.read_msg::<Frame<FileEvent>>() {
                Ok(frame) => panic!("unexpected frame: {frame:?}"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_rejects_oversized_lengths() {
        let mut data = Vec::new();
        data.extend_from_slice(&u32::MAX.to_be_bytes());
        data.extend_from_slice(b"junk");
        let mut reader = FrameReader::new(&data[..]);
        let err = reader.read_msg::<Frame<FileEvent>>().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_json_is_invalid_data() {
        let buf = framed(b"not json");
        let err = read_one::<Frame<FileEvent>>(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Each batch writer emits exactly the bytes the frame's own
    /// encoding does — one member or many, the same single form.
    #[test]
    fn batch_writers_match_the_frame_encoding() {
        let trace = Some(TraceContext::sampled(1, 2));
        for payloads in [vec![event(1)], (0..4).map(event).collect::<Vec<_>>()] {
            let mut enc = BinEncoder::new();
            let mut via_writer = Vec::new();
            let frames = write_item_batch_bin(&mut via_writer, &mut enc, 7, &payloads, trace);
            assert_eq!(frames.unwrap(), 1);
            write_deliver_batch_bin(&mut via_writer, &mut enc, "feed/all", &payloads, trace)
                .unwrap();

            let mut via_frame = Vec::new();
            for frame in [
                Frame::ItemBatch { first_seq: 7, payloads: payloads.clone(), trace },
                Frame::DeliverBatch { topic: "feed/all".into(), payloads: payloads.clone(), trace },
            ] {
                write_msg(&mut via_frame, &frame).unwrap();
            }
            assert_eq!(via_writer, via_frame);
        }
    }

    /// One `FrameReader` reads a connection's hello, then batches and the
    /// control frames between them.
    #[test]
    fn a_hello_then_batches_and_control_frames_on_one_stream() {
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        write_hello(&mut buf, Service::Push { client: "mdt0".into(), resume_after: 0 }).unwrap();
        write_item_batch_bin(&mut buf, &mut enc, 1, &[event(1), event(2)], None).unwrap();
        write_msg(&mut buf, &Frame::<FileEvent>::Ping).unwrap();
        write_item_batch_bin(&mut buf, &mut enc, 3, &[event(3)], None).unwrap();

        let mut reader = FrameReader::new(&buf[..]);
        assert!(matches!(reader.read_msg::<Hello>().unwrap().service, Service::Push { .. }));
        assert_eq!(
            reader.read_msg::<Frame<FileEvent>>().unwrap(),
            Frame::ItemBatch { first_seq: 1, payloads: vec![event(1), event(2)], trace: None }
        );
        assert_eq!(reader.read_msg::<Frame<FileEvent>>().unwrap(), Frame::<FileEvent>::Ping);
        assert_eq!(
            reader.read_msg::<Frame<FileEvent>>().unwrap(),
            Frame::ItemBatch { first_seq: 3, payloads: vec![event(3)], trace: None }
        );
    }

    /// Writes `payloads` as item batches capped at `max_len` and returns
    /// the raw frame bodies.
    fn split_at<T: BinPayload>(payloads: &[T], max_len: usize) -> Vec<Vec<u8>> {
        let mut buf = Vec::new();
        let head = BatchHead::FirstSeq(1);
        let frames =
            write_batch(&mut buf, &mut BinEncoder::new(), head, payloads, None, max_len).unwrap();
        let bodies = raw_frames(&buf);
        assert_eq!(bodies.len(), frames);
        bodies
    }

    /// The chunker's size accounting must match the bytes actually
    /// emitted, or a chunk sized exactly at the cap overshoots it — at
    /// [`MAX_FRAME_LEN`] that turns a splittable batch into a hard
    /// `write_frame` rejection. `u64` payloads encode to exactly 8
    /// bytes, so raw frame sizes are fully predictable: body = kind(1) +
    /// flags(1) + first_seq(1 below 128, else 2) + count(1 or 2) + n×8.
    /// A chunk goes out coded when that is smaller — these small numbers'
    /// seven zero bytes each make it so — so what is checked is how many
    /// members each chunk holds, and that none is over the cap.
    #[test]
    fn binary_chunk_cap_is_exact_at_the_boundary() {
        let members = |bodies: &[Vec<u8>], cap: usize| -> Vec<usize> {
            bodies
                .iter()
                .map(|body| {
                    assert!(body.len() <= cap, "a body of {} bytes, cap {cap}", body.len());
                    match Frame::<u64>::decode(body, &mut History::default()).unwrap() {
                        Frame::ItemBatch { payloads, .. } => payloads.len(),
                        other => panic!("expected ItemBatch, got {other:?}"),
                    }
                })
                .collect()
        };
        let payloads: Vec<u64> = (0..9).collect();
        let three_member_body = 4 + 3 * 8;

        // Cap exactly at a three-member body: three members per frame.
        let bodies = split_at(&payloads, three_member_body);
        assert_eq!(members(&bodies, three_member_body), [3, 3, 3]);

        // One byte under the cap must drop to two members per frame.
        let bodies = split_at(&payloads, three_member_body - 1);
        assert_eq!(members(&bodies, three_member_body - 1), [2, 2, 2, 2, 1], "9 payloads at 2");

        // The count is a varint: the 128th member costs its eight bytes
        // and the count's second byte, and the accounting sees both — as
        // it sees the second chunk's first_seq of 128 take two bytes.
        let payloads: Vec<u64> = (0..200).collect();
        let body_of_128 = 3 + 2 + 128 * 8;
        assert_eq!(members(&split_at(&payloads, body_of_128), body_of_128), [128, 72]);
        let bodies = split_at(&payloads, body_of_128 - 1);
        assert_eq!(members(&bodies, body_of_128 - 1), [127, 73], "127 and a one-byte count");
    }

    /// However small its members, a frame closes at the member cap that
    /// keeps it inside the reader's path budget.
    #[test]
    fn binary_chunks_close_at_the_member_cap() {
        let payloads: Vec<u64> = (0..20_000).collect();
        let counts: Vec<usize> = split_at(&payloads, MAX_FRAME_LEN)
            .iter()
            .map(|body| match Frame::<u64>::decode(body, &mut History::default()).unwrap() {
                Frame::ItemBatch { payloads, .. } => payloads.len(),
                other => panic!("expected ItemBatch, got {other:?}"),
            })
            .collect();
        assert_eq!(counts, [MAX_FRAME_MEMBERS, MAX_FRAME_MEMBERS, 20_000 - 2 * MAX_FRAME_MEMBERS]);
        assert_eq!(MAX_FRAME_MEMBERS * 2 * sdci_types::bin::MAX_PATH_LEN, MAX_FRAME_LEN);
    }

    #[test]
    fn binary_split_keeps_seq_contiguous_and_repeats_trace() {
        let payloads: Vec<FileEvent> = (0..16).map(event).collect();
        let trace = Some(TraceContext::sampled(0xfeed, 0xbeef));
        let one_event_body = {
            let mut enc = BinEncoder::new();
            let mut buf = Vec::new();
            write_item_batch_bin(&mut buf, &mut enc, 1, &payloads[..1], trace).unwrap();
            buf.len() - FRAME_HEADER_LEN
        };
        let cap = one_event_body * 2;
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        let head = BatchHead::FirstSeq(1);
        let frames = write_batch(&mut buf, &mut enc, head, &payloads, trace, cap).unwrap();
        assert!(frames > 1, "cap {cap} should split 16 events, got {frames} frame(s)");

        let mut reader = FrameReader::new(&buf[..]);
        let mut next_seq = 1u64;
        let mut got = Vec::new();
        for _ in 0..frames {
            match reader.read_msg::<Frame<FileEvent>>().unwrap() {
                Frame::ItemBatch { first_seq, payloads, trace: got_trace } => {
                    assert_eq!(first_seq, next_seq, "split frames must stay contiguous");
                    assert_eq!(got_trace, trace, "every split chunk repeats the frame context");
                    next_seq += payloads.len() as u64;
                    got.extend(payloads);
                }
                other => panic!("expected ItemBatch, got {other:?}"),
            }
        }
        assert_eq!(
            reader.read_msg::<Frame<FileEvent>>().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(got, payloads);
    }

    /// The flags byte of every member of an item-batch body: each
    /// member's first raw byte — what a coded section codes, byte for byte.
    fn member_flags(body: &[u8]) -> Vec<u8> {
        let Frame::ItemBatch { payloads, .. } =
            Frame::<FileEvent>::decode(body, &mut History::default()).unwrap()
        else {
            panic!("an item batch");
        };
        let (mut seq, mut members, mut flags) = (SeqEncoder::new(), Vec::new(), Vec::new());
        for (i, payload) in payloads.iter().enumerate() {
            let at = members.len();
            put_member(&mut members, payload, &payloads[..i], &mut seq);
            flags.push(members[at]);
        }
        flags
    }

    /// Records interleaving over two directories reference two members
    /// back, so in one frame every member from the third on carries a
    /// path reference — across any point a cap could split at. Split, the
    /// first chunk starts fresh and decodes alone, and every later one
    /// continues the chunk before it: its first member follows the last
    /// one written, its first two members find their directories in the
    /// chunks before, so it is smaller than its members coded on their
    /// own, and only a reader that read those chunks decodes it. The
    /// chunks concatenate to the input.
    #[test]
    fn binary_split_chunks_continue_one_another() {
        const PATH_REF: u8 = 1 << 6;
        let payloads: Vec<FileEvent> = (0..24)
            .map(|i| {
                let dir = if i % 2 == 0 { "alpha" } else { "beta-longer" };
                FileEvent { path: format!("/wire/{dir}/f{i}").into(), ..event(i) }
            })
            .collect();
        let whole = split_at(&payloads, usize::MAX);
        let flags = member_flags(&whole[0]);
        assert!(flags[..2].iter().all(|f| f & PATH_REF == 0));
        assert!(flags[2..].iter().all(|f| f & PATH_REF != 0), "{flags:x?}");

        // The chunker splits on raw sizes; a coded chunk is smaller still.
        let raw = raw_item_body(&payloads).len();
        for cap in [raw - 1, raw / 2, raw / 5, 60] {
            let chunks = split_at(&payloads, cap);
            assert!(chunks.len() > 1, "cap {cap} splits");
            let mut history = History::default();
            let mut got = Vec::new();
            for (i, chunk) in chunks.iter().enumerate() {
                assert!(chunk.len() <= cap, "cap {cap}: a chunk of {} bytes", chunk.len());
                assert_eq!(chunk[1] & BIN_FLAG_CONTINUES != 0, i > 0, "cap {cap}, chunk {i}");
                if i > 0 {
                    let err =
                        Frame::<FileEvent>::decode(chunk, &mut History::default()).unwrap_err();
                    assert!(err.to_string().contains("holds none of its history"), "{err}");
                }
                match Frame::<FileEvent>::decode(chunk, &mut history).unwrap() {
                    Frame::ItemBatch { first_seq, payloads: members, .. } => {
                        assert_eq!(first_seq, 1 + got.len() as u64);
                        let mut fresh = Vec::new();
                        Frame::ItemBatch { first_seq, payloads: members.clone(), trace: None }
                            .encode(&mut BinEncoder::new(), &mut fresh)
                            .unwrap();
                        let (len, fresh) = (chunk.len(), fresh.len());
                        assert!(
                            i == 0 || len < fresh,
                            "cap {cap}, chunk {i}: {len} B, {fresh} fresh"
                        );
                        got.extend(members);
                    }
                    other => panic!("expected ItemBatch, got {other:?}"),
                }
            }
            assert_eq!(got, payloads, "cap {cap}");
        }
    }

    /// A single member larger than the cap cannot be split — it still
    /// gets its own frame (the [`MAX_FRAME_LEN`] check remains the
    /// backstop).
    #[test]
    fn binary_oversized_single_member_still_gets_a_frame() {
        let payloads = vec!["x".repeat(100), "y".into()];
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        let head = BatchHead::FirstSeq(1);
        let frames = write_batch(&mut buf, &mut enc, head, &payloads, None, 20).unwrap();
        assert_eq!(frames, 2);
        let mut reader = FrameReader::new(&buf[..]);
        let mut got: Vec<String> = Vec::new();
        for _ in 0..frames {
            match reader.read_msg::<Frame<String>>().unwrap() {
                Frame::ItemBatch { payloads, .. } => got.extend(payloads),
                other => panic!("expected ItemBatch, got {other:?}"),
            }
        }
        assert_eq!(got, payloads);
    }

    /// The topic-headed kind shares the chunker: every split chunk
    /// repeats the topic and order survives.
    #[test]
    fn binary_topic_split_preserves_topic_and_order() {
        let payloads: Vec<FileEvent> = (0..8).map(event).collect();
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        let head = BatchHead::Topic("feed/all");
        let frames = write_batch(&mut buf, &mut enc, head, &payloads, None, 64).unwrap();
        assert!(frames > 1);
        let mut reader = FrameReader::new(&buf[..]);
        let mut delivered = Vec::new();
        for _ in 0..frames {
            match reader.read_msg::<Frame<FileEvent>>().unwrap() {
                Frame::DeliverBatch { topic, payloads, trace: None } if topic == "feed/all" => {
                    delivered.extend(payloads)
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(delivered, payloads);
    }

    /// A string member's own length varint grows with it, whichever side
    /// of 128 or 16,384 bytes the string lands on, and the member after it
    /// starts where it ends.
    #[test]
    fn members_of_every_length_width_roundtrip() {
        for len in (120..135).chain(16_375..16_390) {
            let payloads = vec!["x".repeat(len), "after".into()];
            let frame = Frame::ItemBatch { first_seq: 1, payloads, trace: None };
            let mut buf = Vec::new();
            write_msg(&mut buf, &frame).unwrap();
            assert_eq!(read_one::<Frame<String>>(&buf).unwrap(), frame, "string of {len} bytes");
        }
    }

    /// Counters near each other, at both ends of their range and on both
    /// sides of `i64::MAX`, so neighbours step up, down and across the wrap.
    fn counter() -> impl Strategy<Value = u64> {
        prop_oneof![
            4 => 0u64..8,
            2 => (u64::MAX - 7)..=u64::MAX,
            2 => (i64::MAX as u64 - 3)..=(i64::MAX as u64 + 4),
            1 => any::<u64>(),
        ]
    }

    fn counter32() -> impl Strategy<Value = u32> {
        prop_oneof![4 => 0u32..8, 2 => (u32::MAX - 7)..=u32::MAX, 1 => any::<u32>()]
    }

    /// Paths over a few names, so neighbours share components, whole
    /// paths and nothing; the empty path and empty names are included,
    /// and `é`/`è` and `日`/`旦` share the first byte or two of a
    /// character, so a shared prefix can end inside one.
    fn path() -> impl Strategy<Value = sdci_types::EventPath> {
        let name = prop::sample::select(vec!["a", "ab", "é", "è", "日", "旦", "d0000001", ""]);
        prop::collection::vec(name, 0..4)
            .prop_map(|names| names.iter().map(|n| format!("/{n}")).collect::<String>().into())
    }

    fn file_event() -> impl Strategy<Value = FileEvent> {
        let kinds = (
            prop::sample::select(ChangelogKind::ALL.to_vec()),
            // `None`: the classification the record kind implies.
            prop::option::of(prop::sample::select(EventKind::ALL.to_vec())),
            any::<bool>(),
        );
        let counters =
            (counter(), prop::sample::select(vec![0u32, 0, 0, 1, 7, u32::MAX]), counter());
        let names = (path(), prop::option::of(path()), (counter(), counter32(), counter32()));
        let optional = (
            prop::option::of(counter()),
            prop::option::of((any::<u64>(), any::<u64>(), any::<bool>())),
        );
        (kinds, counters, names, optional).prop_map(
            |((changelog_kind, kind, is_dir), (index, mdt, time), (path, src_path, fid), opt)| {
                FileEvent {
                    index,
                    mdt: MdtIndex::new(mdt),
                    changelog_kind,
                    kind: kind.unwrap_or(changelog_kind.event_kind()),
                    time: SimTime::from_nanos(time),
                    path,
                    src_path,
                    target: Fid::new(fid.0, fid.1, fid.2),
                    is_dir,
                    extracted_unix_ns: opt.0,
                    trace: opt.1.map(|(trace_id, parent_span_id, sampled)| TraceContext {
                        trace_id,
                        parent_span_id,
                        sampled,
                    }),
                }
            },
        )
    }

    fn feed_message() -> impl Strategy<Value = FeedMessage> {
        prop_oneof![
            4 => (counter(), file_event())
                .prop_map(|(seq, event)| FeedMessage::Event(SequencedEvent { seq, event })),
            1 => counter().prop_map(|last_seq| FeedMessage::Heartbeat { last_seq }),
        ]
    }

    /// `payloads` as an item-batch body with raw members: what the frame
    /// encoding writes when a code would not pay.
    fn raw_item_body<T: BinPayload>(payloads: &[T]) -> Vec<u8> {
        let mut body = Vec::new();
        bin_header(&mut body, BIN_KIND_ITEM_BATCH, None);
        BatchHead::FirstSeq(1).put(&mut body, None);
        sdci_types::bin::put_members(&mut body, payloads);
        body
    }

    /// Encode → decode is the identity on one frame, which is never
    /// larger than the same members raw (and, raw, is exactly them); at
    /// every cap the chunker emits frames that a connection's reader
    /// decodes in turn to the same members in order, none over the cap
    /// unless it holds a single member. A chunk that starts fresh is
    /// exactly what the frame encoding makes of its members; one that
    /// continues the chunk before it — whose first member holds an event —
    /// is no larger, and does not decode alone.
    fn roundtrips_whole_and_split<T>(payloads: &[T]) -> Result<(), TestCaseError>
    where
        T: BinPayload + Clone + PartialEq + std::fmt::Debug,
    {
        let whole = split_at(payloads, usize::MAX);
        prop_assert_eq!(whole.len(), 1);
        let frame = Frame::ItemBatch { first_seq: 1, payloads: payloads.to_vec(), trace: None };
        let mut body = Vec::new();
        frame.encode(&mut BinEncoder::new(), &mut body).unwrap();
        prop_assert_eq!(&body, &whole[0], "the chunker and the frame encoding disagree");
        let raw = raw_item_body(payloads);
        prop_assert!(body.len() <= raw.len(), "{} bytes coded, {} raw", body.len(), raw.len());
        if body[1] & BIN_FLAG_CODED == 0 {
            prop_assert_eq!(&body, &raw);
        }
        for cap in 0..=body.len() {
            let mut got = Vec::new();
            let mut history = History::default();
            for chunk in split_at(payloads, cap) {
                match Frame::<T>::decode(&chunk, &mut history) {
                    Ok(Frame::ItemBatch { first_seq, payloads: members, trace: None }) => {
                        prop_assert_eq!(first_seq, 1 + got.len() as u64, "cap {}", cap);
                        prop_assert!(chunk.len() <= cap || members.len() == 1, "cap {}", cap);
                        let mut again = Vec::new();
                        Frame::ItemBatch { first_seq, payloads: members.clone(), trace: None }
                            .encode(&mut BinEncoder::new(), &mut again)
                            .unwrap();
                        if chunk[1] & BIN_FLAG_CONTINUES == 0 {
                            prop_assert_eq!(
                                &again,
                                &chunk,
                                "cap {}: a fresh chunk is not its members' frame",
                                cap
                            );
                        } else {
                            prop_assert!(!got.is_empty() && members[0].event().is_some());
                            prop_assert!(
                                Frame::<T>::decode(&chunk, &mut History::default()).is_err(),
                                "cap {}",
                                cap
                            );
                        }
                        got.extend(members);
                    }
                    other => prop_assert!(false, "cap {}: decoded {:?}", cap, other),
                }
            }
            prop_assert_eq!(got.as_slice(), payloads, "cap {}", cap);
        }
        Ok(())
    }

    /// A path of random characters of every UTF-8 width, so a frame's
    /// suffix bytes range from a handful of values to most of the 256.
    fn utf8_path() -> impl Strategy<Value = sdci_types::EventPath> {
        let ch = prop_oneof![
            4 => 0x20u32..0x7f,
            1 => 0x80u32..0x800,
            1 => 0x800u32..0xd800,
            1 => 0x1_0000u32..0x11_0000,
        ]
        .prop_map(|c| char::from_u32(c).unwrap_or('?'));
        prop::collection::vec(ch, 0..24)
            .prop_map(|chars| format!("/{}", chars.into_iter().collect::<String>()).into())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the paths and the fields beside them, coded or not, a
        /// frame is exact and never larger than its members raw.
        #[test]
        fn random_utf8_paths_and_fields_roundtrip_and_never_cost_more_than_raw(
            members in prop::collection::vec(
                (utf8_path(), prop::option::of(utf8_path()), file_event()),
                1..64,
            ),
        ) {
            let batch: Vec<FileEvent> = members
                .into_iter()
                .map(|(path, src_path, fields)| FileEvent { path, src_path, ..fields })
                .collect();
            let frame = Frame::ItemBatch { first_seq: 1, payloads: batch.clone(), trace: None };
            let mut body = Vec::new();
            frame.encode(&mut BinEncoder::new(), &mut body).unwrap();
            let raw = raw_item_body(&batch);
            prop_assert!(body.len() <= raw.len(), "{} bytes coded, {} raw", body.len(), raw.len());
            prop_assert_eq!(Frame::<FileEvent>::decode(&body, &mut History::default()).unwrap(), frame);
        }

        #[test]
        fn event_batches_roundtrip_whole_and_split_at_every_cap(
            batch in prop::collection::vec(file_event(), 1..10),
        ) {
            roundtrips_whole_and_split(&batch)?;
        }

        #[test]
        fn feed_batches_roundtrip_whole_split_and_as_store_replies(
            batch in prop::collection::vec(feed_message(), 1..10),
        ) {
            roundtrips_whole_and_split(&batch)?;
            let events: Vec<SequencedEvent> = batch
                .into_iter()
                .filter_map(|m| match m {
                    FeedMessage::Event(sev) => Some(sev),
                    FeedMessage::Heartbeat { .. } => None,
                })
                .collect();
            let reply = crate::store_rpc::StoreRpc::Batch { events };
            let mut body = Vec::new();
            reply.encode(&mut BinEncoder::new(), &mut body).unwrap();
            prop_assert_eq!(crate::store_rpc::StoreRpc::decode(&body, &mut History::default()).unwrap(), reply);
        }
    }

    /// A frame no code would shrink goes out raw, its members as they
    /// are: a lone heartbeat (no path at all, a tag and a delta). And a
    /// class no code would shrink stays raw beside coded ones: names over
    /// a large alphabet, whose path table — a bitmap and ninety-odd
    /// nibbles — would cost more than its codewords save, while eight
    /// members' flags, kinds and deltas, a value or two each, go under
    /// one-bit codes. Every benchmark workload's names
    /// take a few dozen byte values, so this is the case no workload
    /// shows.
    #[test]
    fn a_frame_or_a_class_a_code_would_not_shrink_goes_out_raw() {
        let heartbeat = Frame::DeliverBatch {
            topic: "feed/all".into(),
            payloads: vec![FeedMessage::Heartbeat { last_seq: 12 }],
            trace: None,
        };
        let mut body = Vec::new();
        heartbeat.encode(&mut BinEncoder::new(), &mut body).unwrap();
        assert_eq!(body, [&[4, 0, 8][..], b"feed/all", &[1, 1, 24]].concat());

        let wide: Vec<FileEvent> = (0..8u64)
            .map(|i| {
                let letter = |k: u64| char::from_u32(0x100 + ((i * 12 + k) * 97 % 0x700) as u32);
                let name: String = (0..12).filter_map(letter).collect();
                FileEvent { path: format!("/wire/{name}").into(), ..event(i) }
            })
            .collect();
        let frame = Frame::ItemBatch { first_seq: 1, payloads: wide.clone(), trace: None };
        let mut body = Vec::new();
        frame.encode(&mut BinEncoder::new(), &mut body).unwrap();
        assert_eq!(body[1], BIN_FLAG_CODED);
        let mask = u16::from_le_bytes([body[2], body[3]]);
        assert_eq!(mask & Class::Path.bit(), 0, "a code over 90-odd byte values does not pay");
        assert_ne!(mask & Class::Flags.bit(), 0, "{mask:#x}");
        assert!(body.len() < raw_item_body(&wide).len());
        assert_eq!(Frame::<FileEvent>::decode(&body, &mut History::default()).unwrap(), frame);
        let mut written = Vec::new();
        write_item_batch_bin(&mut written, &mut BinEncoder::new(), 1, &wide, None).unwrap();
        assert_eq!(raw_frames(&written), [body]);
    }

    /// How many bytes the code table at the front of `bytes` takes: its
    /// count, its symbols — listed, or a bitmap from 32 on — and a nibble
    /// per symbol.
    fn table_len(bytes: &[u8]) -> usize {
        let n = usize::from(bytes[0]) + 1;
        1 + n.min(32) + n.div_ceil(2)
    }

    /// Frames of the benchmark's shape go out coded, and the class mask
    /// and tables sit where the header says: after the trace section, one
    /// table a coded class in class order, before the kind's own fields.
    #[test]
    fn a_coded_frame_carries_its_tables_after_the_trace_section() {
        let payloads: Vec<FileEvent> = (0..64)
            .map(|i| FileEvent {
                path: format!("/t0a1b2c3/d{:07x}/f{i:011x}", i % 8).into(),
                ..event(i)
            })
            .collect();
        let trace = Some(TraceContext::sampled(0xabc, 0xdef));
        let frame = Frame::ItemBatch { first_seq: 77, payloads: payloads.clone(), trace };
        let mut body = Vec::new();
        frame.encode(&mut BinEncoder::new(), &mut body).unwrap();
        assert_eq!(body[1], BIN_FLAG_TRACE | BIN_FLAG_CODED);
        let mask_at = 2 + BIN_TRACE_LEN;
        let mask = u16::from_le_bytes([body[mask_at], body[mask_at + 1]]);
        for class in [Class::Path, Class::Flags, Class::Kind, Class::Shared] {
            assert_ne!(mask & class.bit(), 0, "{class} in {mask:#x}");
        }
        // The path class's table, first, lists the suffixes' bytes.
        let path_at = mask_at + 2;
        let n = usize::from(body[path_at]) + 1;
        let listed = &body[path_at + 1..=path_at + n];
        let names = |byte: u8| listed.contains(&byte);
        assert!(names(b'/') && names(b'f') && names(b'9') && !names(b'z') && !names(0));
        let mut head = path_at;
        for _ in 0..mask.count_ones() {
            head += table_len(&body[head..]);
        }
        assert_eq!(body[head], 77, "first_seq, a one-byte varint");
        assert!(body.len() < raw_item_body(&payloads).len());
        assert_eq!(read_one::<Frame<FileEvent>>(&framed(&body)).unwrap(), frame);
    }

    #[test]
    fn binary_frame_with_trailing_garbage_is_rejected() {
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        write_item_batch_bin(&mut buf, &mut enc, 1, &[event(1)], None).unwrap();
        // Stretch the length word over one junk byte appended to the body.
        let mut body = raw_frames(&buf).remove(0);
        body.push(0xff);
        let err = read_one::<Frame<FileEvent>>(&framed(&body)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"), "got: {err}");
    }

    #[test]
    fn binary_unknown_kind_and_flags_are_rejected() {
        use crate::store_rpc::StoreRpc;

        // Kinds 2 (a topic-headed batch *towards* a broker) and 6 (a gap
        // reply to a pusher) are as unknown as 11, and each reader refuses
        // the kinds that are another's: a store reply or query on a push or
        // feed connection, an ack, a ping or a `Fin` on a store connection,
        // a hello after the hello.
        for kind in [2, 3, 6, 9, 10, 11] {
            let err = read_one::<Frame<FileEvent>>(&framed(&[kind, 0])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("kind {kind}")), "{err}");
        }
        for kind in [1, 2, 4, 5, 6, 7, 8, 10, 11] {
            let err = read_one::<StoreRpc>(&framed(&[kind, 0, 1])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("kind {kind}")), "{err}");
        }
        let body = [BIN_KIND_ITEM_BATCH, 0x7e];
        let err = read_one::<Frame<FileEvent>>(&framed(&body)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A hostile count word is rejected once the members run out (what
    /// it may reserve is `sdci_types::bin`'s to bound, and tested there).
    #[test]
    fn binary_hostile_count_is_rejected_not_allocated() {
        let mut body = Vec::new();
        bin_header(&mut body, BIN_KIND_ITEM_BATCH, None);
        put_varint(&mut body, 1); // first_seq
        put_varint(&mut body, u64::MAX); // count
        let err = read_one::<Frame<FileEvent>>(&framed(&body)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A store reply closes where a chunked frame closes: an answer of
    /// 65,536 events, eight times the members a chunk holds, goes out coded
    /// as its first `MAX_FRAME_MEMBERS` and reads back as that prefix. An
    /// item batch as long is refused whole, and the encoder's next frame,
    /// where that one would have ended, goes out fresh.
    #[test]
    fn a_store_reply_closes_where_a_chunk_closes() {
        use crate::store_rpc::StoreRpc;

        let events: Vec<SequencedEvent> = (0..65_536u64)
            .map(|i| SequencedEvent {
                seq: 1 + i,
                event: FileEvent {
                    path: format!("/t0a1b2c3/d{:07x}/f{:011x}", i % 64, i * 0x9e37_79b9).into(),
                    extracted_unix_ns: Some(1_790_000_000_000_000_000 + (i / 256) * 1_000),
                    ..event(i)
                },
            })
            .collect();
        assert_eq!(events.len(), 8 * MAX_FRAME_MEMBERS);
        let mut body = Vec::new();
        StoreRpc::Batch { events: events.clone() }
            .encode(&mut BinEncoder::new(), &mut body)
            .unwrap();
        assert_eq!(body[1], BIN_FLAG_CODED);
        let prefix = StoreRpc::Batch { events: events[..MAX_FRAME_MEMBERS].to_vec() };
        assert_eq!(StoreRpc::decode(&body, &mut History::default()).unwrap(), prefix);

        let items: Vec<FileEvent> = events.into_iter().map(|sev| sev.event).collect();
        let mut enc = BinEncoder::new();
        let whole = Frame::ItemBatch { first_seq: 1, payloads: items.clone(), trace: None };
        let err = whole.encode(&mut enc, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let next = MAX_FRAME_MEMBERS as u64 + 1;
        let fits = Frame::ItemBatch { first_seq: next, payloads: items[..3].to_vec(), trace: None };
        let mut body = Vec::new();
        fits.encode(&mut enc, &mut body).unwrap();
        assert_eq!(body[1] & BIN_FLAG_CONTINUES, 0, "continues a frame never sent");
    }

    /// The replies of one store connection each carry their number on it,
    /// the byte after the flags of these raw ones, and continue one another
    /// whatever store offset each starts at: the first is fresh, the reply
    /// after an empty one is fresh again, and the connection's reader reads
    /// every one back. A reader that has not read the replies before one
    /// refuses it: its number is not the next on that reader.
    #[test]
    fn store_replies_carry_their_number_and_continue_their_connection() {
        use crate::store_rpc::StoreRpc;

        let reply = |from: u64, n: u64| StoreRpc::Batch {
            events: (from..from + n).map(|i| SequencedEvent { seq: i, event: event(i) }).collect(),
        };
        let replies =
            [reply(900, 3), reply(100, 2), reply(5_000, 4), reply(0, 0), reply(7, 3), reply(11, 1)];
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        for reply in &replies {
            write_msg_bin(&mut buf, &mut enc, reply).unwrap();
        }
        let frames = raw_frames(&buf);
        let flags: Vec<u8> = frames.iter().map(|body| body[1]).collect();
        let continues = flags.iter().map(|flags| flags & BIN_FLAG_CONTINUES != 0);
        assert_eq!(continues.collect::<Vec<_>>(), [false, true, true, false, false, true]);
        for (frame, body) in frames.iter().enumerate() {
            assert_eq!(body[1] & BIN_FLAG_CODED, 0, "reply {frame}");
            assert_eq!(usize::from(body[2]), frame + 1, "reply {frame}");
        }
        let mut reader = FrameReader::new(&buf[..]);
        for reply in &replies {
            assert_eq!(&reader.read_msg::<StoreRpc>().unwrap(), reply);
        }
        let err = StoreRpc::decode(&frames[1], &mut History::default()).unwrap_err();
        assert!(err.to_string().contains("store frame 2, where 1 is next"), "{err}");
    }

    #[test]
    fn store_batch_has_no_json_form_and_rejects_a_trace_section() {
        use crate::store_rpc::StoreRpc;

        let events: Vec<SequencedEvent> =
            (1..4).map(|i| SequencedEvent { seq: i, event: event(i) }).collect();
        let reply = StoreRpc::Batch { events };
        let mut enc = BinEncoder::new();
        let mut buf = Vec::new();
        write_msg_bin(&mut buf, &mut enc, &reply).unwrap();
        assert_eq!(read_one::<StoreRpc>(&buf).unwrap(), reply);

        // A reply has no second encoding: a JSON body is none of a store
        // reader's.
        let err = read_one::<StoreRpc>(&framed(br#"{"Batch":{"events":[]}}"#)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Store batches carry no trace section; a flags bit claiming one
        // is corruption, not a quiet skip.
        let mut body = Vec::new();
        bin_header(&mut body, BIN_KIND_STORE_BATCH, Some(TraceContext::sampled(1, 2)));
        put_varint(&mut body, 0);
        let err = read_one::<StoreRpc>(&framed(&body)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
