//! Real message transports for sharded serving: framed byte channels
//! between a coordinator and its shard workers.
//!
//! The [`Cluster`](crate::Cluster) simulator *accounts* communication in
//! words; this module *moves* it in bytes. A [`Mesh`] is the
//! coordinator's side of a star topology — one bidirectional channel per
//! worker, plus whatever worker↔worker channels its edge list names —
//! and a [`Peer`] is one endpoint of one channel. Every message
//! travels as one checksummed frame
//! ([`graph::io`](sparse_alloc_graph::io)'s frame codec: magic, version,
//! source, phase, epoch, per-channel sequence number, length-prefixed
//! payload, trailing FNV-1a-64), so the receive path can prove what it
//! got: wrong bytes surface as a typed
//! [`FrameError`] inside [`TransportError::Frame`], a dead channel as
//! [`TransportError::Closed`], delivery reordering as
//! [`TransportError::OutOfOrder`] — never as a panic, and never as
//! silently wrong data.
//!
//! Two interchangeable implementations:
//!
//! * **Loopback** — deterministic in-process byte queues
//!   (mutex + condvar). What tests and proptests drive: same frames,
//!   same sequence discipline, no sockets.
//! * **TCP** — length-prefixed frames over real `127.0.0.1` sockets
//!   between threads (Nagle disabled, bounded read timeouts so a dead
//!   peer is a typed error, not a hang).
//!
//! A worker's links ([`WorkerLinks`]) share **one inbox**: every
//! incoming link — the coordinator spoke and each worker↔worker channel —
//! delivers into one blocking queue of `(sender, frame bytes)` entries,
//! so a worker waits on exactly one receive ([`WorkerLinks::recv`])
//! whichever link speaks next. Loopback senders push straight into it;
//! each TCP socket gets a reader thread that reads whole frames (or the
//! typed failure that ended the stream) and pushes them. Verification
//! stays per link: the receiving [`Peer`] still checks checksum, sender
//! and sequence, and keeps its own counters and flight ring.
//!
//! Both ends count the bytes and frames they actually moved
//! ([`Peer::bytes_sent`] and friends), which is what lets the dynamic
//! subsystem's ledger record **measured** wire traffic next to the
//! simulator's word accounting.
//!
//! # Fault injection
//!
//! [`Peer::inject`] arms a [`Fault`] that corrupts the *next outgoing
//! frame* — the channel misbehaves, the endpoints keep their contract.
//! The four faults map onto the four failure taxa the fault-injection
//! suite (`tests/transport.rs`) proves are typed:
//! a dropped peer ([`Fault::Drop`] ⇒ [`TransportError::Closed`]), a
//! truncated frame ([`Fault::Truncate`] ⇒ [`FrameError::Truncated`]), a
//! flipped bit ([`Fault::FlipBit`] ⇒ a typed [`FrameError`], usually
//! `Checksum`), and out-of-order delivery ([`Fault::Reorder`] ⇒
//! [`TransportError::OutOfOrder`]). [`Fault::Every`] schedules any of
//! them persistently (every `n`-th frame, never consumed), and
//! [`Mesh::rebuild`] + [`Mesh::arm_on_respawn`] let a supervisor replace
//! every channel of a faulted mesh — with faults re-armed on the
//! replacement spokes, so recovery itself is tested under fire.
//!
//! # Example
//!
//! ```
//! use sparse_alloc_mpc::transport::{Peer, COORDINATOR};
//!
//! let (mut coord, mut worker) = Peer::loopback_pair(COORDINATOR, 0);
//! coord.send(7, 1, b"route batch").unwrap();
//! let frame = worker.recv().unwrap();
//! assert_eq!(frame.src, COORDINATOR);
//! assert_eq!((frame.phase, frame.epoch), (7, 1));
//! assert_eq!(frame.payload, b"route batch");
//!
//! // The reply direction is an independent channel.
//! worker.send(7, 1, b"ack").unwrap();
//! assert_eq!(coord.recv().unwrap().payload, b"ack");
//! ```
//!
//! Injected faults surface as typed errors on the receiving end:
//!
//! ```
//! use sparse_alloc_mpc::transport::{Fault, Peer, TransportError, COORDINATOR};
//!
//! let (mut coord, mut worker) = Peer::loopback_pair(COORDINATOR, 0);
//! coord.inject(Fault::FlipBit { bit: 300 });
//! coord.send(1, 0, b"payload bytes").unwrap();
//! assert!(matches!(
//!     worker.recv(),
//!     Err(TransportError::Frame { .. })
//! ));
//! ```

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparse_alloc_graph::io::{
    decode_frame, encode_frame, read_frame_bytes, ByteReader, ByteWriter, FrameError, FrameHeader,
    IoError,
};
use sparse_alloc_obs::{FlightEvent, FlightKind, FlightRecorder, MetricsSnapshot, PeerWire};

/// Conventional source id of the coordinator end of a channel (worker
/// ids are their shard indices; `u32::MAX` can never be one).
pub const COORDINATOR: u32 = u32::MAX;

/// Default receive timeout: long enough for any in-process exchange,
/// short enough that a wedged peer becomes a typed error, not a hang.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// One received message: the frame header's routing fields plus the
/// payload, checksum-verified and sequence-checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender id the frame was stamped with.
    pub src: u32,
    /// Protocol phase tag (the transport does not interpret it).
    pub phase: u32,
    /// Epoch the frame belongs to.
    pub epoch: u64,
    /// Position in the sender's channel order.
    pub seq: u64,
    /// The message body.
    pub payload: Vec<u8>,
}

/// Why a transport operation failed. Every variant names the remote peer
/// it failed against; all of them are errors a caller can match on —
/// the fault-injection suite proves none of the injected failure modes
/// escapes this type.
#[derive(Debug)]
pub enum TransportError {
    /// The received bytes are not a well-formed frame (truncation, bad
    /// magic, version skew, oversized length, checksum mismatch).
    Frame {
        /// The peer the bytes came from.
        peer: u32,
        /// What was wrong with them.
        err: FrameError,
    },
    /// The channel is closed (peer gone, socket shut down).
    Closed {
        /// The peer whose channel died.
        peer: u32,
    },
    /// A frame arrived outside the sender's channel order.
    OutOfOrder {
        /// The peer that sent it.
        peer: u32,
        /// The sequence number the channel expected next.
        expected: u64,
        /// The sequence number the frame carried.
        got: u64,
    },
    /// Underlying socket/queue failure (including receive timeouts).
    Io {
        /// The peer the operation targeted.
        peer: u32,
        /// Human-readable cause.
        detail: String,
    },
    /// The bytes framed correctly but violated the protocol (wrong
    /// source id, malformed payload, a worker's relayed failure).
    Protocol {
        /// The peer that misbehaved.
        peer: u32,
        /// What the violation was.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame { peer, err } => write!(f, "peer {peer}: bad frame: {err}"),
            TransportError::Closed { peer } => write!(f, "peer {peer}: channel closed"),
            TransportError::OutOfOrder {
                peer,
                expected,
                got,
            } => write!(
                f,
                "peer {peer}: frame out of order: expected seq {expected}, got {got}"
            ),
            TransportError::Io { peer, detail } => write!(f, "peer {peer}: io: {detail}"),
            TransportError::Protocol { peer, detail } => {
                write!(f, "peer {peer}: protocol: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Whether the failure is worth retrying on the *same* channel.
    ///
    /// Only a receive timeout qualifies: the peer may merely be slow,
    /// and the channel stays usable afterwards (proved by
    /// `recv_timeout_is_typed`). Everything else — torn frames, closed
    /// links, sequence gaps, protocol violations — poisons the channel's
    /// framing or ordering state, so a retry can only be served by
    /// respawning the peer on a fresh channel.
    pub fn is_transient(&self) -> bool {
        matches!(self, TransportError::Io { detail, .. } if detail.contains("timed out"))
    }

    /// The remote peer the error names.
    pub fn peer(&self) -> u32 {
        match self {
            TransportError::Frame { peer, .. }
            | TransportError::Closed { peer }
            | TransportError::OutOfOrder { peer, .. }
            | TransportError::Io { peer, .. }
            | TransportError::Protocol { peer, .. } => *peer,
        }
    }

    /// Wire form of the error, so a worker that hit a transport failure
    /// can relay it to the coordinator in a NACK payload and the
    /// coordinator re-surfaces the *original* typed variant
    /// ([`TransportError::decode`] round-trips it).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let (code, peer, a, b, detail): (u32, u32, u64, u64, &str) = match self {
            TransportError::Frame { peer, err } => {
                let (sub, a, b, det): (u64, u64, u64, String) = match err {
                    FrameError::Truncated { wanted, got } => {
                        (0, *wanted as u64, *got as u64, String::new())
                    }
                    FrameError::BadMagic { found } => (1, *found as u64, 0, String::new()),
                    FrameError::Version { found, expected } => {
                        (2, *found as u64, *expected as u64, String::new())
                    }
                    FrameError::Oversized { len, cap } => (3, *len, *cap, String::new()),
                    FrameError::Checksum { expected, found } => {
                        (4, *expected, *found, String::new())
                    }
                    FrameError::Io(e) => (5, 0, 0, e.to_string()),
                };
                w.put_u32(0);
                w.put_u32(*peer);
                w.put_u64(sub);
                w.put_u64(a);
                w.put_u64(b);
                w.put_bytes(det.as_bytes());
                return w.into_bytes();
            }
            TransportError::Closed { peer } => (1, *peer, 0, 0, ""),
            TransportError::OutOfOrder {
                peer,
                expected,
                got,
            } => (2, *peer, *expected, *got, ""),
            TransportError::Io { peer, detail } => (3, *peer, 0, 0, detail.as_str()),
            TransportError::Protocol { peer, detail } => (4, *peer, 0, 0, detail.as_str()),
        };
        w.put_u32(code);
        w.put_u32(peer);
        w.put_u64(a);
        w.put_u64(b);
        w.put_bytes(detail.as_bytes());
        w.into_bytes()
    }

    /// Rebuild an error from its [wire form](TransportError::encode).
    pub fn decode(bytes: &[u8]) -> Result<TransportError, IoError> {
        let mut r = ByteReader::new(bytes);
        let code = r.take_u32()?;
        let peer = r.take_u32()?;
        let err = if code == 0 {
            let sub = r.take_u64()?;
            let a = r.take_u64()?;
            let b = r.take_u64()?;
            let detail = String::from_utf8_lossy(&r.take_bytes()?).into_owned();
            let err = match sub {
                0 => FrameError::Truncated {
                    wanted: a as usize,
                    got: b as usize,
                },
                1 => FrameError::BadMagic { found: a as u32 },
                2 => FrameError::Version {
                    found: a as u32,
                    expected: b as u32,
                },
                3 => FrameError::Oversized { len: a, cap: b },
                4 => FrameError::Checksum {
                    expected: a,
                    found: b,
                },
                5 => FrameError::Io(std::io::Error::other(detail)),
                other => return Err(IoError::Parse(format!("unknown frame-error code {other}"))),
            };
            TransportError::Frame { peer, err }
        } else {
            let a = r.take_u64()?;
            let b = r.take_u64()?;
            let detail = String::from_utf8_lossy(&r.take_bytes()?).into_owned();
            match code {
                1 => TransportError::Closed { peer },
                2 => TransportError::OutOfOrder {
                    peer,
                    expected: a,
                    got: b,
                },
                3 => TransportError::Io { peer, detail },
                4 => TransportError::Protocol { peer, detail },
                other => {
                    return Err(IoError::Parse(format!(
                        "unknown transport-error code {other}"
                    )))
                }
            }
        };
        r.expect_end()?;
        Ok(err)
    }
}

/// A deliverable channel corruption, armed with [`Peer::inject`] and
/// applied to the next outgoing frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Close the channel instead of delivering (a peer that died).
    Drop,
    /// Deliver only the first half of the frame, then close (a
    /// connection cut mid-message).
    Truncate,
    /// Flip one bit of the encoded frame (link-level corruption). The
    /// bit index is taken modulo the frame length.
    FlipBit {
        /// Which bit to flip.
        bit: usize,
    },
    /// Hold this frame and deliver it *after* the next one (reordered
    /// delivery; the receiver's sequence check catches it).
    Reorder,
    /// Apply `fault` to every `n`-th outgoing frame, forever. Unlike the
    /// one-shot faults above, a schedule is **not consumed** when it
    /// fires — it models a persistently flaky channel, so recovery
    /// machinery is itself tested under fire. Injecting a new schedule
    /// replaces the old one.
    Every {
        /// Fire on every `n`-th send (clamped to ≥ 1).
        n: u64,
        /// The fault to apply when the schedule fires. A nested
        /// schedule re-arms instead of corrupting a frame.
        fault: Box<Fault>,
    },
}

/// Nesting bound of [`Fault::decode`]: a hostile ARM payload cannot
/// recurse the decoder into a stack overflow.
const FAULT_DECODE_DEPTH: u32 = 8;

impl Fault {
    /// Append the fault's wire form to `w`, so a coordinator can arm
    /// faults on channels it does not own (the serving layer's ARM
    /// control frame hands a fault to a worker, which injects it into
    /// one of its own worker↔worker links).
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Fault::Drop => w.put_u32(0),
            Fault::Truncate => w.put_u32(1),
            Fault::FlipBit { bit } => {
                w.put_u32(2);
                w.put_u64(*bit as u64);
            }
            Fault::Reorder => w.put_u32(3),
            Fault::Every { n, fault } => {
                w.put_u32(4);
                w.put_u64(*n);
                fault.encode(w);
            }
        }
    }

    /// Rebuild a fault from its [wire form](Fault::encode). Unknown tags
    /// and over-nested schedules are typed parse errors, never panics.
    pub fn decode(r: &mut ByteReader) -> Result<Fault, IoError> {
        Self::decode_at(r, 0)
    }

    fn decode_at(r: &mut ByteReader, depth: u32) -> Result<Fault, IoError> {
        if depth >= FAULT_DECODE_DEPTH {
            return Err(IoError::Parse(format!(
                "fault schedule nested deeper than {FAULT_DECODE_DEPTH}"
            )));
        }
        Ok(match r.take_u32()? {
            0 => Fault::Drop,
            1 => Fault::Truncate,
            2 => Fault::FlipBit {
                bit: r.take_u64()? as usize,
            },
            3 => Fault::Reorder,
            4 => Fault::Every {
                n: r.take_u64()?,
                fault: Box::new(Self::decode_at(r, depth + 1)?),
            },
            other => return Err(IoError::Parse(format!("unknown fault kind {other}"))),
        })
    }
}

// ----------------------------------------------------------- byte links

/// What a link hands its receiver: one frame's bytes, not yet verified,
/// or the typed failure that ended the link.
type Delivery = Result<Vec<u8>, TransportError>;

/// A receive queue: one loopback direction, or a worker's inbox shared
/// by all of its incoming links. Entries carry the sender's id, so a
/// shared queue still tells its links apart.
#[derive(Debug, Default)]
struct Queue {
    entries: Mutex<VecDeque<(u32, Delivery)>>,
    ready: Condvar,
}

impl Queue {
    fn push(&self, from: u32, got: Delivery) {
        self.entries
            .lock()
            .expect("a queue holder panicked")
            .push_back((from, got));
        self.ready.notify_one();
    }

    /// The oldest entry, waiting for one until `deadline` (forever when
    /// `None`); `None` once the deadline passes.
    fn pop(&self, deadline: Option<Instant>) -> Option<(u32, Delivery)> {
        let mut q = self.entries.lock().expect("a queue holder panicked");
        loop {
            if let Some(entry) = q.pop_front() {
                return Some(entry);
            }
            q = match deadline {
                None => self.ready.wait(q).expect("a queue holder panicked"),
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now())?;
                    self.ready
                        .wait_timeout(q, left)
                        .expect("a queue holder panicked")
                        .0
                }
            };
        }
    }
}

#[derive(Debug)]
enum Link {
    /// In-process queues. Sends go into `tx` (the remote's own queue or
    /// its inbox) while `open`; `rx` is this end's own queue, `None`
    /// when its frames feed a worker inbox instead.
    Loopback {
        tx: Arc<Queue>,
        open: bool,
        rx: Option<Arc<Queue>>,
    },
    /// A socket, read in place — or, when `reader` is set, drained into
    /// a worker inbox by that thread.
    Tcp {
        stream: TcpStream,
        reader: Option<JoinHandle<()>>,
    },
}

/// Read one frame's bytes off a socket, mapping stream failures to
/// typed errors against `peer` (`timeout` only names the wait in a
/// timeout error).
fn read_tcp(s: &mut TcpStream, peer: u32, timeout: Duration) -> Delivery {
    match read_frame_bytes(s) {
        Ok(Some(bytes)) => Ok(bytes),
        Ok(None) => Err(TransportError::Closed { peer }),
        Err(FrameError::Io(e))
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(TransportError::Io {
                peer,
                detail: format!("recv timed out after {timeout:?}"),
            })
        }
        Err(FrameError::Io(e))
            if e.kind() == std::io::ErrorKind::ConnectionReset
                || e.kind() == std::io::ErrorKind::ConnectionAborted =>
        {
            Err(TransportError::Closed { peer })
        }
        Err(err) => Err(TransportError::Frame { peer, err }),
    }
}

/// Drain a socket into `inbox` on a thread of its own: each whole frame
/// as it arrives, or its typed failure, until the stream closes or
/// fails, after which the thread exits. Shutting the socket down
/// (dropping its [`Peer`]) is what ends a healthy stream.
fn spawn_reader(
    stream: &TcpStream,
    remote: u32,
    inbox: Arc<Queue>,
) -> Result<JoinHandle<()>, TransportError> {
    let io_err = |e: std::io::Error| TransportError::Io {
        peer: remote,
        detail: e.to_string(),
    };
    let mut s = stream.try_clone().map_err(io_err)?;
    // A read timeout could expire mid-frame and tear the stream; the
    // inbox's receive deadline bounds the wait instead.
    s.set_read_timeout(None).map_err(io_err)?;
    Ok(std::thread::spawn(move || loop {
        let got = read_tcp(&mut s, remote, Duration::ZERO);
        // A frame that decodes badly leaves the stream readable, as it
        // does for an in-place reader; closure and I/O failures end it.
        let end = match &got {
            Ok(_) => false,
            Err(TransportError::Frame { err, .. }) => matches!(err, FrameError::Io(_)),
            Err(_) => true,
        };
        inbox.push(remote, got);
        if end {
            return;
        }
    }))
}

/// The receive side of a fresh link end: deliveries land in `inbox`
/// when one is given, else in a queue of the end's own. Returns the
/// queue senders push into and the end's own queue, if any.
fn receive_queue(inbox: Option<&Arc<Queue>>) -> (Arc<Queue>, Option<Arc<Queue>>) {
    match inbox {
        Some(q) => (Arc::clone(q), None),
        None => {
            let q = Arc::new(Queue::default());
            (Arc::clone(&q), Some(q))
        }
    }
}

/// Connect `a` and `b` over loopback or TCP. An end given an inbox
/// receives there instead of in place.
fn connect(
    a: u32,
    b: u32,
    tcp: bool,
    inbox_a: Option<&Arc<Queue>>,
    inbox_b: Option<&Arc<Queue>>,
) -> Result<(Peer, Peer), TransportError> {
    if !tcp {
        let (into_a, rx_a) = receive_queue(inbox_a);
        let (into_b, rx_b) = receive_queue(inbox_b);
        let end = |tx, rx| Link::Loopback { tx, open: true, rx };
        return Ok((
            Peer::new(a, b, end(into_b, rx_a)),
            Peer::new(b, a, end(into_a, rx_b)),
        ));
    }
    let io_err = |peer: u32, e: std::io::Error| TransportError::Io {
        peer,
        detail: e.to_string(),
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(b, e))?;
    let addr = listener.local_addr().map_err(|e| io_err(b, e))?;
    let out = TcpStream::connect(addr).map_err(|e| io_err(b, e))?;
    let (inn, _) = listener.accept().map_err(|e| io_err(a, e))?;
    for s in [&out, &inn] {
        s.set_nodelay(true).map_err(|e| io_err(b, e))?;
        s.set_read_timeout(Some(DEFAULT_RECV_TIMEOUT))
            .map_err(|e| io_err(b, e))?;
    }
    let end = |local, remote, stream: TcpStream, inbox: Option<&Arc<Queue>>| {
        let reader = inbox
            .map(|q| spawn_reader(&stream, remote, Arc::clone(q)))
            .transpose()?;
        Ok::<_, TransportError>(Peer::new(local, remote, Link::Tcp { stream, reader }))
    };
    Ok((end(a, b, out, inbox_a)?, end(b, a, inn, inbox_b)?))
}

// ----------------------------------------------------------------- peer

/// One endpoint of one framed channel: stamps outgoing frames with its
/// id and a per-channel sequence number, verifies both on receive, and
/// counts the bytes it actually moved.
#[derive(Debug)]
pub struct Peer {
    local: u32,
    remote: u32,
    link: Link,
    send_seq: u64,
    recv_seq: u64,
    held: Option<Vec<u8>>,
    faults: VecDeque<Fault>,
    /// Armed [`Fault::Every`] schedule: period, sends since last fire,
    /// and the fault to apply when it fires.
    scheduled: Option<(u64, u64, Fault)>,
    recv_timeout: Duration,
    /// The receive side has reported `Closed`; it stays closed.
    closed: bool,
    bytes_sent: u64,
    bytes_received: u64,
    frames_sent: u64,
    frames_received: u64,
    recorder: FlightRecorder,
}

impl Peer {
    fn new(local: u32, remote: u32, link: Link) -> Self {
        Peer {
            local,
            remote,
            link,
            send_seq: 0,
            recv_seq: 0,
            held: None,
            faults: VecDeque::new(),
            scheduled: None,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            closed: false,
            bytes_sent: 0,
            bytes_received: 0,
            frames_sent: 0,
            frames_received: 0,
            recorder: FlightRecorder::default(),
        }
    }

    /// A connected loopback pair: what `a` sends, `b` receives, and vice
    /// versa, over deterministic in-process queues.
    pub fn loopback_pair(a: u32, b: u32) -> (Peer, Peer) {
        connect(a, b, false, None, None).expect("loopback links cannot fail")
    }

    /// A connected TCP pair over `127.0.0.1` (Nagle disabled, bounded
    /// read timeouts on both ends).
    pub fn tcp_pair(a: u32, b: u32) -> Result<(Peer, Peer), TransportError> {
        connect(a, b, true, None, None)
    }

    /// Id of the other end.
    pub fn remote(&self) -> u32 {
        self.remote
    }

    /// Arm `fault` for an upcoming outgoing frame (one fault per frame,
    /// in injection order). A [`Fault::Every`] schedule is armed
    /// persistently instead: it fires on every `n`-th send without being
    /// consumed (a new schedule replaces the old one).
    pub fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Every { n, fault } => self.scheduled = Some((n.max(1), 0, *fault)),
            f => self.faults.push_back(f),
        }
    }

    /// Advance the armed schedule by one send; `Some(fault)` when it
    /// fires. One-shot injected faults take precedence (the schedule
    /// does not tick on a send another fault already corrupted).
    fn scheduled_fire(&mut self) -> Option<Fault> {
        let (n, count, fault) = self.scheduled.as_mut()?;
        *count += 1;
        if *count >= *n {
            *count = 0;
            Some(fault.clone())
        } else {
            None
        }
    }

    /// Cap how long [`Peer::recv`] waits before reporting a typed
    /// timeout ([`TransportError::Io`]).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the socket rejects the new read timeout.
    /// The error must surface: swallowing it would leave a TCP peer
    /// armed with an unbounded (or stale) read, and a dropped frame
    /// would then hang the lockstep star protocol forever instead of
    /// tripping the timeout.
    pub fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), TransportError> {
        self.recv_timeout = timeout.max(Duration::from_millis(1));
        if let Link::Tcp {
            stream,
            reader: None,
        } = &self.link
        {
            stream
                .set_read_timeout(Some(self.recv_timeout))
                .map_err(|e| TransportError::Io {
                    peer: self.remote,
                    detail: e.to_string(),
                })?;
        }
        Ok(())
    }

    /// Bytes this endpoint put on the wire.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes this endpoint took off the wire.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Frames this endpoint delivered to the channel.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames this endpoint received and verified.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// This endpoint's flight recorder: the last
    /// [`DEFAULT_RING`](sparse_alloc_obs::flight::DEFAULT_RING) frame
    /// headers and faults it witnessed, for post-mortem dumps.
    pub fn flight(&self) -> &FlightRecorder {
        &self.recorder
    }

    fn fault_note(e: &TransportError) -> &'static str {
        match e {
            TransportError::Frame { .. } => "bad frame off the wire",
            TransportError::Closed { .. } => "channel closed",
            TransportError::OutOfOrder { .. } => "out-of-order frame",
            TransportError::Io { .. } => "io failure / recv timeout",
            TransportError::Protocol { .. } => "protocol violation",
        }
    }

    fn push_bytes(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        let n = bytes.len() as u64;
        match &mut self.link {
            Link::Loopback { tx, open, .. } => {
                if !*open {
                    return Err(TransportError::Closed { peer: self.remote });
                }
                tx.push(self.local, Ok(bytes));
            }
            Link::Tcp { stream, .. } => {
                stream.write_all(&bytes).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::BrokenPipe
                        || e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::NotConnected
                    {
                        TransportError::Closed { peer: self.remote }
                    } else {
                        TransportError::Io {
                            peer: self.remote,
                            detail: e.to_string(),
                        }
                    }
                })?;
            }
        }
        self.bytes_sent += n;
        self.frames_sent += 1;
        Ok(())
    }

    fn close_link(&mut self) {
        match &mut self.link {
            Link::Loopback { tx, open, .. } => {
                // The receiver drains what was sent, then reads `Closed`.
                if std::mem::replace(open, false) {
                    tx.push(self.local, Err(TransportError::Closed { peer: self.local }));
                }
            }
            Link::Tcp { stream, .. } => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Frame and deliver one message. An armed [`Fault`] is applied to
    /// this frame; the send itself still reports `Ok` (faults model the
    /// *channel* failing after the bytes left the sender — the receiving
    /// end is where they surface, as typed errors).
    pub fn send(&mut self, phase: u32, epoch: u64, payload: &[u8]) -> Result<(), TransportError> {
        let header = FrameHeader {
            src: self.local,
            phase,
            epoch,
            seq: self.send_seq,
        };
        self.send_seq += 1;
        let bytes = encode_frame(&header, payload);
        let ev = FlightEvent {
            peer: self.remote,
            kind: FlightKind::Sent,
            phase: header.phase as u16,
            epoch,
            seq: header.seq,
            len: payload.len() as u32,
            note: "",
        };
        // A frame held back by a Reorder fault rides out *after* the
        // frame that overtook it.
        let flush = self.held.take();
        let armed = match self.faults.pop_front() {
            Some(f) => Some(f),
            None => self.scheduled_fire(),
        };
        match armed {
            None => {
                self.push_bytes(bytes)?;
                self.recorder.note(ev);
            }
            Some(Fault::Drop) => {
                self.recorder.note(FlightEvent {
                    kind: FlightKind::Fault,
                    note: "injected fault: drop — channel closed",
                    ..ev
                });
                self.close_link();
                return Ok(());
            }
            Some(Fault::Truncate) => {
                let half = bytes.len() / 2;
                // Deliver the torn prefix, then cut the channel: the
                // receiver sees a frame that ends mid-payload.
                let _ = self.push_bytes(bytes[..half].to_vec());
                self.recorder.note(FlightEvent {
                    kind: FlightKind::Fault,
                    note: "injected fault: frame truncated in transit",
                    ..ev
                });
                self.close_link();
                return Ok(());
            }
            Some(Fault::FlipBit { bit }) => {
                let mut bad = bytes;
                let i = bit % (bad.len() * 8);
                bad[i / 8] ^= 1 << (i % 8);
                self.push_bytes(bad)?;
                self.recorder.note(FlightEvent {
                    kind: FlightKind::Fault,
                    note: "injected fault: bit flipped in transit",
                    ..ev
                });
            }
            Some(Fault::Reorder) => {
                self.held = Some(bytes);
                self.recorder.note(FlightEvent {
                    kind: FlightKind::Fault,
                    note: "injected fault: frame held for reorder",
                    ..ev
                });
                // A frame displaced by back-to-back reorders still rides
                // out (in its original position, so the *next* healthy
                // send trips the sequence check) rather than vanishing.
                if let Some(late) = flush {
                    self.push_bytes(late)?;
                }
                return Ok(());
            }
            Some(Fault::Every { n, fault }) => {
                // A schedule in the one-shot queue (or nested inside a
                // firing schedule) re-arms; this frame goes out clean.
                self.scheduled = Some((n.max(1), 0, *fault));
                self.push_bytes(bytes)?;
                self.recorder.note(ev);
            }
        }
        if let Some(late) = flush {
            self.push_bytes(late)?;
        }
        Ok(())
    }

    /// Receive, verify, and sequence-check one frame. Every outcome —
    /// the verified header or the typed failure — is noted in the
    /// flight recorder for post-mortem.
    ///
    /// An end bundled in a [`WorkerLinks`] receives through
    /// [`WorkerLinks::recv`] instead; here it is a typed
    /// [`TransportError::Protocol`].
    pub fn recv(&mut self) -> Result<Frame, TransportError> {
        let got = self.next_delivery();
        self.accept(got)
    }

    /// Wait for this end's next delivery under its receive timeout.
    fn next_delivery(&mut self) -> Delivery {
        let peer = self.remote;
        if self.closed {
            return Err(TransportError::Closed { peer });
        }
        let timeout = self.recv_timeout;
        match &mut self.link {
            Link::Loopback { rx: Some(rx), .. } => match rx.pop(Some(Instant::now() + timeout)) {
                Some((_, got)) => got,
                None => Err(TransportError::Io {
                    peer,
                    detail: format!("recv timed out after {timeout:?}"),
                }),
            },
            Link::Tcp {
                stream,
                reader: None,
            } => read_tcp(stream, peer, timeout),
            _ => Err(TransportError::Protocol {
                peer,
                detail: "this end receives through its worker's inbox".into(),
            }),
        }
    }

    /// Verify one delivery, count it, and note the outcome in the
    /// flight ring.
    fn accept(&mut self, got: Delivery) -> Result<Frame, TransportError> {
        let res = self.verify(got);
        if matches!(res, Err(TransportError::Closed { .. })) {
            self.closed = true;
        }
        self.note_recv(&res);
        res
    }

    fn note_recv(&mut self, res: &Result<Frame, TransportError>) {
        match res {
            Ok(f) => self.recorder.note(FlightEvent {
                peer: self.remote,
                kind: FlightKind::Received,
                phase: f.phase as u16,
                epoch: f.epoch,
                seq: f.seq,
                len: f.payload.len() as u32,
                note: "",
            }),
            Err(e) => self.recorder.note(FlightEvent {
                peer: self.remote,
                kind: FlightKind::Fault,
                phase: 0,
                epoch: 0,
                seq: self.recv_seq,
                len: 0,
                note: Self::fault_note(e),
            }),
        }
    }

    /// The per-link checks: checksum, sequence, sender.
    fn verify(&mut self, got: Delivery) -> Result<Frame, TransportError> {
        let peer = self.remote;
        let bytes = got?;
        self.bytes_received += bytes.len() as u64;
        let (header, payload) =
            decode_frame(&bytes).map_err(|err| TransportError::Frame { peer, err })?;
        if header.seq != self.recv_seq {
            return Err(TransportError::OutOfOrder {
                peer,
                expected: self.recv_seq,
                got: header.seq,
            });
        }
        if header.src != peer {
            return Err(TransportError::Protocol {
                peer,
                detail: format!("frame stamped by {} on the channel of {peer}", header.src),
            });
        }
        self.recv_seq += 1;
        self.frames_received += 1;
        Ok(Frame {
            src: header.src,
            phase: header.phase,
            epoch: header.epoch,
            seq: header.seq,
            payload,
        })
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        // A vanished endpoint must look *closed* to the other side, not
        // silent: loopback receivers drain and get `Closed`, TCP readers
        // get EOF.
        self.close_link();
        // The shutdown above ended this end's own reader thread too.
        if let Link::Tcp { reader, .. } = &mut self.link {
            if let Some(h) = reader.take() {
                let _ = h.join();
            }
        }
    }
}

// ----------------------------------------------------------------- mesh

/// The coordinator's side of a mesh: one [`Peer`] per worker, indexed
/// by shard, plus the edge list of the worker↔worker channels it was
/// built with. Workers get the matching [`WorkerLinks`].
#[derive(Debug)]
pub struct Mesh {
    peers: Vec<Peer>,
    /// Worker↔worker channels, rebuilt as listed by [`Mesh::rebuild`].
    edges: Vec<(usize, usize)>,
    /// Faults to arm on a worker's *replacement* spoke on every
    /// [`Mesh::rebuild`] ([`Mesh::arm_on_respawn`]) — how the harness
    /// tests recovery itself under fire.
    on_respawn: Vec<Vec<Fault>>,
}

impl Mesh {
    /// Every unordered worker pair — the edge list of a *full* p2p mesh,
    /// for [`Mesh::loopback_mesh`] / [`Mesh::tcp_mesh`].
    pub fn all_pairs(workers: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(workers * workers.saturating_sub(1) / 2);
        for a in 0..workers {
            for b in (a + 1)..workers {
                edges.push((a, b));
            }
        }
        edges
    }

    /// A loopback star plus direct worker↔worker channels along `edges`
    /// (a full mesh when `edges` is [`Mesh::all_pairs`], a partial one
    /// otherwise, spokes only when empty). Returns the coordinator's
    /// mesh and one [`WorkerLinks`] bundle per worker.
    pub fn loopback_mesh(workers: usize, edges: &[(usize, usize)]) -> (Mesh, Vec<WorkerLinks>) {
        Mesh::build(workers, edges, false).expect("loopback links cannot fail")
    }

    /// The TCP twin of [`Mesh::loopback_mesh`]: every spoke and every
    /// worker↔worker edge is its own `127.0.0.1` socket.
    pub fn tcp_mesh(
        workers: usize,
        edges: &[(usize, usize)],
    ) -> Result<(Mesh, Vec<WorkerLinks>), TransportError> {
        Mesh::build(workers, edges, true)
    }

    fn build(
        workers: usize,
        edges: &[(usize, usize)],
        tcp: bool,
    ) -> Result<(Mesh, Vec<WorkerLinks>), TransportError> {
        let inboxes = new_inboxes(workers);
        let links = link_matrix(workers, edges, tcp, &inboxes)?;
        let mut spokes = Vec::with_capacity(workers);
        let mut mesh = Mesh {
            peers: Vec::with_capacity(workers),
            edges: edges.to_vec(),
            on_respawn: vec![Vec::new(); workers],
        };
        for (w, inbox) in inboxes.iter().enumerate() {
            let (c, e) = connect(COORDINATOR, w as u32, tcp, None, Some(inbox))?;
            mesh.peers.push(c);
            spokes.push(e);
        }
        Ok((mesh, bundle(spokes, links, inboxes)))
    }

    /// Tear down and rebuild the *entire* mesh — every spoke and every
    /// worker↔worker channel of the edge list it was built with —
    /// returning fresh [`WorkerLinks`] bundles for a full respawn of the
    /// worker pool.
    ///
    /// This is the serving layer's one recovery primitive. After a
    /// fault, frames of the exchange that died may still be in flight on
    /// any channel, so the only sound cut is to close everything
    /// (workers blocked anywhere see typed `Closed` and exit) and
    /// re-INIT on virgin channels. Each new spoke's coordinator end
    /// inherits the old one's receive timeout and carries the faults
    /// [`Mesh::arm_on_respawn`] armed for its worker.
    pub fn rebuild(&mut self, tcp: bool) -> Result<Vec<WorkerLinks>, TransportError> {
        let n = self.peers.len();
        let inboxes = new_inboxes(n);
        let links = link_matrix(n, &self.edges, tcp, &inboxes)?;
        let spokes = (0..n)
            .map(|w| self.respawn_into(w, tcp, &inboxes[w]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(bundle(spokes, links, inboxes))
    }

    /// Replace the spoke to worker `w` with a fresh one delivering into
    /// `inbox`, and return the new worker end. Dropping the old
    /// coordinator end closes the old spoke.
    fn respawn_into(
        &mut self,
        w: usize,
        tcp: bool,
        inbox: &Arc<Queue>,
    ) -> Result<Peer, TransportError> {
        let (mut c, e) = connect(COORDINATOR, w as u32, tcp, None, Some(inbox))?;
        // Only the coordinator side inherits the configured timeout: the
        // replacement worker blocks on its inbox with no deadline, like
        // an originally spawned one — a coordinator running with an
        // aggressively short timeout must not hand its respawned workers
        // a clock that expires during its own recovery pauses.
        c.set_recv_timeout(self.peers[w].recv_timeout)?;
        for f in &self.on_respawn[w] {
            c.inject(f.clone());
        }
        self.peers[w] = c;
        Ok(e)
    }

    /// Arm `fault` to be injected into worker `w`'s **replacement**
    /// spoke on *every* [`Mesh::rebuild`] — a persistently faulty slot,
    /// so the harness can prove recovery survives faults during recovery
    /// itself and that a respawn budget really exhausts.
    pub fn arm_on_respawn(&mut self, w: usize, fault: Fault) {
        self.on_respawn[w].push(fault);
    }

    /// Number of workers in the mesh.
    pub fn workers(&self) -> usize {
        self.peers.len()
    }

    /// Send one frame to worker `w`.
    pub fn send_to(
        &mut self,
        w: usize,
        phase: u32,
        epoch: u64,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        self.peers[w].send(phase, epoch, payload)
    }

    /// Receive one frame from worker `w`.
    pub fn recv_from(&mut self, w: usize) -> Result<Frame, TransportError> {
        self.peers[w].recv()
    }

    /// Direct access to the channel of worker `w` (fault injection,
    /// timeouts).
    pub fn peer_mut(&mut self, w: usize) -> &mut Peer {
        &mut self.peers[w]
    }

    /// Cap every channel's receive wait.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] from the first channel whose socket rejects
    /// the new timeout (see [`Peer::set_recv_timeout`]); earlier channels
    /// keep the successfully-armed value.
    pub fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), TransportError> {
        for p in &mut self.peers {
            p.set_recv_timeout(timeout)?;
        }
        Ok(())
    }

    /// Total `(sent, received)` bytes the coordinator moved across all
    /// channels.
    pub fn bytes_moved(&self) -> (u64, u64) {
        self.peers.iter().fold((0, 0), |(s, r), p| {
            (s + p.bytes_sent(), r + p.bytes_received())
        })
    }

    /// Total `(sent, received)` frames across all channels.
    pub fn frames_moved(&self) -> (u64, u64) {
        self.peers.iter().fold((0, 0), |(s, r), p| {
            (s + p.frames_sent(), r + p.frames_received())
        })
    }

    /// Per-worker `(sent, received)` byte counters, indexed by shard —
    /// what per-machine wire accounting diffs around a phase.
    pub fn per_peer_bytes(&self) -> Vec<(u64, u64)> {
        self.peers
            .iter()
            .map(|p| (p.bytes_sent(), p.bytes_received()))
            .collect()
    }

    /// Export every channel's wire counters as one
    /// [`MetricsSnapshot`] — the single source the e21 wire-traffic
    /// report, the trace stream, and `salloc report` all read.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            peers: self
                .peers
                .iter()
                .map(|p| PeerWire {
                    peer: p.remote(),
                    bytes_sent: p.bytes_sent(),
                    bytes_received: p.bytes_received(),
                    frames_sent: p.frames_sent(),
                    frames_received: p.frames_received(),
                })
                .collect(),
        }
    }

    /// Render every channel's flight-recorder ring into one post-mortem
    /// dump. `phase_name` maps the protocol's phase ids to names (the
    /// transport does not interpret phases; the serving layer does).
    pub fn flight_dump(&self, phase_name: impl Fn(u16) -> &'static str) -> String {
        let mut out = String::new();
        for p in &self.peers {
            use std::fmt::Write;
            let _ = writeln!(
                out,
                "channel to worker {} ({} events witnessed):",
                p.remote(),
                p.flight().total_noted()
            );
            p.flight().dump_with(&phase_name, &mut out);
        }
        out
    }
}

// --------------------------------------------------------- worker links

/// One worker's endpoints in a mesh: its coordinator spoke plus a
/// direct channel to each mesh neighbor (`None` at its own slot and at
/// workers the edge list leaves unconnected). Worker↔worker channels
/// are full [`Peer`]s — same frame codec, sequence numbers, byte/frame
/// counters, flight ring, and fault arming as a spoke.
///
/// Every incoming link feeds the bundle's one inbox, so frames are
/// received only through [`WorkerLinks::recv`]; the [`Peer`]s serve for
/// sending, fault arming and counters. Dropping the bundle closes every
/// link and joins its TCP reader threads.
#[derive(Debug)]
pub struct WorkerLinks {
    spoke: Peer,
    /// Direct worker↔worker channels, indexed by shard id.
    peers: Vec<Option<Peer>>,
    inbox: Arc<Queue>,
}

impl WorkerLinks {
    /// This worker's shard id (the coordinator channel knows it).
    pub fn shard(&self) -> u32 {
        self.spoke.local
    }

    /// This worker's end of the coordinator channel.
    pub fn coordinator(&mut self) -> &mut Peer {
        &mut self.spoke
    }

    /// The direct channel to `shard`, if the mesh has one.
    pub fn peer_to(&mut self, shard: u32) -> Option<&mut Peer> {
        self.peers.get_mut(shard as usize)?.as_mut()
    }

    /// Block until any link delivers, then verify the delivery on its
    /// own link (checksum, sender, sequence, counters, flight ring).
    /// Returns the sender — [`COORDINATOR`] for the spoke — and the
    /// frame, in arrival order across links and in sequence order within
    /// each. A link's failure is its typed error naming that link's
    /// remote end; a passed `deadline` (`None` waits forever) is a
    /// transient [`TransportError::Io`] naming this worker's own shard.
    pub fn recv(&mut self, deadline: Option<Instant>) -> Result<(u32, Frame), TransportError> {
        let me = self.shard();
        let (from, got) = self.inbox.pop(deadline).ok_or(TransportError::Io {
            peer: me,
            detail: "inbox recv timed out".into(),
        })?;
        let link = if from == COORDINATOR {
            Some(&mut self.spoke)
        } else {
            self.peers.get_mut(from as usize).and_then(Option::as_mut)
        };
        let link = link.ok_or_else(|| TransportError::Protocol {
            peer: from,
            detail: format!("delivery from {from}, which has no link to shard {me}"),
        })?;
        link.accept(got).map(|f| (from, f))
    }

    /// Sent-side `(frames, bytes)` over the worker↔worker links only:
    /// summed over all workers, it counts every worker↔worker frame
    /// exactly once.
    pub fn peer_sent(&self) -> (u64, u64) {
        self.peers.iter().flatten().fold((0, 0), |(f, b), p| {
            (f + p.frames_sent(), b + p.bytes_sent())
        })
    }

    /// Shard ids this worker has direct channels to, ascending.
    pub fn connected(&self) -> Vec<u32> {
        (0..self.peers.len() as u32)
            .filter(|&s| self.peers[s as usize].is_some())
            .collect()
    }

    /// Bytes moved on worker↔worker channels only (sent + received),
    /// excluding the coordinator spoke — the number the serving layer
    /// meters as handoff traffic.
    pub fn peer_bytes_moved(&self) -> u64 {
        self.peers
            .iter()
            .flatten()
            .map(|p| p.bytes_sent() + p.bytes_received())
            .sum()
    }
}

fn new_inboxes(workers: usize) -> Vec<Arc<Queue>> {
    (0..workers).map(|_| Arc::new(Queue::default())).collect()
}

/// Build the worker↔worker channel matrix for `edges`:
/// `rows[a][b]` holds `a`'s endpoint of the `a↔b` channel, which
/// delivers into `inboxes[a]`.
fn link_matrix(
    workers: usize,
    edges: &[(usize, usize)],
    tcp: bool,
    inboxes: &[Arc<Queue>],
) -> Result<Vec<Vec<Option<Peer>>>, TransportError> {
    let mut rows: Vec<Vec<Option<Peer>>> = (0..workers)
        .map(|_| (0..workers).map(|_| None).collect())
        .collect();
    for &(a, b) in edges {
        assert!(
            a != b && a < workers && b < workers,
            "bad mesh edge ({a},{b})"
        );
        let (pa, pb) = connect(
            a as u32,
            b as u32,
            tcp,
            Some(&inboxes[a]),
            Some(&inboxes[b]),
        )?;
        rows[a][b] = Some(pa);
        rows[b][a] = Some(pb);
    }
    Ok(rows)
}

fn bundle(
    spokes: Vec<Peer>,
    links: Vec<Vec<Option<Peer>>>,
    inboxes: Vec<Arc<Queue>>,
) -> Vec<WorkerLinks> {
    spokes
        .into_iter()
        .zip(links)
        .zip(inboxes)
        .map(|((spoke, peers), inbox)| WorkerLinks {
            spoke,
            peers,
            inbox,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(&'static str, Peer, Peer)> {
        let (la, lb) = Peer::loopback_pair(COORDINATOR, 0);
        let (ta, tb) = Peer::tcp_pair(COORDINATOR, 0).unwrap();
        vec![("loopback", la, lb), ("tcp", ta, tb)]
    }

    #[test]
    fn frames_flow_in_order_both_transports() {
        for (name, mut a, mut b) in pairs() {
            for i in 0..5u64 {
                a.send(2, i, format!("msg {i}").as_bytes()).unwrap();
            }
            for i in 0..5u64 {
                let f = b.recv().unwrap();
                assert_eq!(f.seq, i, "{name}: sequence");
                assert_eq!(f.payload, format!("msg {i}").into_bytes(), "{name}");
            }
            // Reply direction is independent.
            b.send(3, 9, b"up").unwrap();
            let f = a.recv().unwrap();
            assert_eq!((f.src, f.phase, f.epoch), (0, 3, 9), "{name}");
            assert!(
                a.bytes_sent() > 0 && b.bytes_received() == a.bytes_sent(),
                "{name}"
            );
        }
    }

    #[test]
    fn failed_timeout_set_surfaces_as_a_typed_error() {
        // A TCP peer whose socket rejects the new read timeout must say
        // so: silently keeping the old (or no) timeout would let a
        // dropped frame hang the lockstep protocol forever. Forcing the
        // rejection needs a dead descriptor, so close the socket out
        // from under the peer.
        let (mut a, b) = Peer::tcp_pair(COORDINATOR, 0).unwrap();
        if let Link::Tcp { stream: s, .. } = &a.link {
            use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
            // SAFETY: `a` is forgotten below, so the descriptor is
            // closed exactly once (here) and never reused by a double
            // close in `a`'s drop.
            drop(unsafe { OwnedFd::from_raw_fd(s.as_raw_fd()) });
        }
        let err = a
            .set_recv_timeout(Duration::from_millis(50))
            .expect_err("timeout set on a dead socket must fail");
        match &err {
            TransportError::Io { peer, detail } => {
                assert_eq!(*peer, 0, "the error names the remote peer");
                assert!(!detail.is_empty());
            }
            other => panic!("timeout failure surfaced as {other:?}"),
        }
        std::mem::forget(a);
        drop(b);
        // Loopback channels have no socket: arming always succeeds.
        let (mut la, _lb) = Peer::loopback_pair(COORDINATOR, 0);
        la.set_recv_timeout(Duration::from_millis(50)).unwrap();
    }

    #[test]
    fn dropped_peer_is_closed() {
        for (name, mut a, mut b) in pairs() {
            a.inject(Fault::Drop);
            a.send(1, 0, b"never arrives").unwrap();
            match b.recv() {
                Err(TransportError::Closed { peer }) => assert_eq!(peer, COORDINATOR, "{name}"),
                other => panic!("{name}: dropped peer surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frame_is_typed() {
        for (name, mut a, mut b) in pairs() {
            a.inject(Fault::Truncate);
            a.send(1, 0, b"a payload that gets cut").unwrap();
            match b.recv() {
                Err(TransportError::Frame {
                    err: FrameError::Truncated { .. },
                    ..
                }) => {}
                other => panic!("{name}: truncation surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_is_typed_never_wrong_data() {
        // Exhaustive over loopback: every bit position of a frame, one
        // fresh channel pair per flip, must surface as a typed frame
        // error — never delivered data.
        let frame_bits = (sparse_alloc_graph::io::FRAME_HEADER_LEN + 4 + 8) * 8;
        for bit in 0..frame_bits {
            let (mut a, mut b) = Peer::loopback_pair(COORDINATOR, 0);
            a.inject(Fault::FlipBit { bit });
            a.send(1, 0, b"abcd").unwrap();
            match b.recv() {
                Err(TransportError::Frame { .. }) => {}
                Ok(f) => panic!("loopback: bit {bit} delivered {f:?}"),
                Err(e) => panic!("loopback: bit {bit} surfaced as {e:?}"),
            }
        }
        // Spot positions over TCP, with a bounded timeout: a flipped
        // length field makes the reader wait for bytes that never come,
        // which must become a typed timeout rather than a hang.
        for bit in [3usize, 90, 170, 290, 500] {
            let (mut a, mut b) = Peer::tcp_pair(COORDINATOR, 0).unwrap();
            b.set_recv_timeout(Duration::from_millis(150)).unwrap();
            a.inject(Fault::FlipBit { bit });
            a.send(1, 0, b"thirty-two bytes of payload data").unwrap();
            match b.recv() {
                Err(_) => {}
                Ok(f) => panic!("tcp: bit {bit} delivered {f:?}"),
            }
        }
    }

    #[test]
    fn reordered_delivery_is_out_of_order() {
        for (name, mut a, mut b) in pairs() {
            a.inject(Fault::Reorder);
            a.send(1, 0, b"first").unwrap();
            a.send(1, 0, b"second").unwrap();
            match b.recv() {
                Err(TransportError::OutOfOrder { expected, got, .. }) => {
                    assert_eq!((expected, got), (0, 1), "{name}");
                }
                other => panic!("{name}: reorder surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn recv_timeout_is_typed() {
        for (name, mut a, mut b) in pairs() {
            b.set_recv_timeout(Duration::from_millis(30)).unwrap();
            match b.recv() {
                Err(TransportError::Io { detail, .. }) => {
                    assert!(detail.contains("timed out"), "{name}: {detail}");
                }
                other => panic!("{name}: timeout surfaced as {other:?}"),
            }
            // The channel still works afterwards.
            a.send(1, 0, b"late").unwrap();
            assert_eq!(b.recv().unwrap().payload, b"late", "{name}");
        }
    }

    #[test]
    fn a_timeout_inside_a_frame_is_not_transient() {
        // Half a frame, then silence past the receive timeout: the stream
        // now stops mid-frame, so the failure must not invite a retry in
        // place, which would read on from the middle of the frame.
        let (a, mut b) = Peer::tcp_pair(COORDINATOR, 0).unwrap();
        b.set_recv_timeout(Duration::from_millis(50)).unwrap();
        let header = FrameHeader {
            src: COORDINATOR,
            phase: 1,
            epoch: 0,
            seq: 0,
        };
        let bytes = encode_frame(&header, &[7; 64]);
        let half = bytes.len() / 2;
        let Link::Tcp { stream, .. } = &a.link else {
            panic!("a TCP pair has TCP links");
        };
        (&*stream).write_all(&bytes[..half]).unwrap();
        let err = b.recv().expect_err("half a frame is not a frame");
        match &err {
            TransportError::Frame {
                err: FrameError::Truncated { wanted, got },
                ..
            } => assert_eq!((*wanted, *got), (bytes.len(), half)),
            other => panic!("a torn frame surfaced as {other:?}"),
        }
        assert!(!err.is_transient(), "a torn stream cannot be retried");
    }

    #[test]
    fn dropping_an_endpoint_closes_the_channel() {
        for (name, a, mut b) in pairs() {
            drop(a);
            match b.recv() {
                Err(TransportError::Closed { .. }) => {}
                other => panic!("{name}: dropped endpoint surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn transport_errors_roundtrip_the_wire() {
        let cases = vec![
            TransportError::Frame {
                peer: 2,
                err: FrameError::Truncated { wanted: 48, got: 7 },
            },
            TransportError::Frame {
                peer: 3,
                err: FrameError::Checksum {
                    expected: 0xdead,
                    found: 0xbeef,
                },
            },
            TransportError::Frame {
                peer: 1,
                err: FrameError::Version {
                    found: 9,
                    expected: 1,
                },
            },
            TransportError::Closed { peer: 5 },
            TransportError::OutOfOrder {
                peer: 0,
                expected: 3,
                got: 7,
            },
            TransportError::Io {
                peer: 4,
                detail: "recv timed out".into(),
            },
            TransportError::Protocol {
                peer: 6,
                detail: "census totals disagree".into(),
            },
        ];
        for e in cases {
            let bytes = e.encode();
            let back = TransportError::decode(&bytes).unwrap();
            assert_eq!(format!("{e}"), format!("{back}"), "roundtrip of {e:?}");
            assert_eq!(e.peer(), back.peer());
        }
        assert!(TransportError::decode(b"").is_err(), "empty NACK is typed");
        assert!(
            TransportError::decode(&[9, 0, 0, 0]).is_err(),
            "short NACK is typed"
        );
    }

    #[test]
    fn flight_recorder_witnesses_frames_and_faults() {
        let (mut a, mut b) = Peer::loopback_pair(COORDINATOR, 0);
        a.send(3, 1, b"healthy").unwrap();
        b.recv().unwrap();
        a.inject(Fault::FlipBit { bit: 200 });
        a.send(4, 1, b"corrupted").unwrap();
        assert!(b.recv().is_err());
        // The sender's ring names the injected fault; the receiver's ring
        // names the detected one.
        let mut sent = String::new();
        a.flight().dump_with(|_| "?", &mut sent);
        assert!(sent.contains("injected fault: bit flipped"), "{sent}");
        let mut got = String::new();
        b.flight().dump_with(|_| "?", &mut got);
        assert!(got.contains("bad frame off the wire"), "{got}");
        assert!(got.contains("recv phase"), "{got}");
    }

    #[test]
    fn mesh_snapshot_reads_the_same_counters_as_the_peers() {
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &[]);
        mesh.send_to(0, 1, 0, b"to worker zero").unwrap();
        mesh.send_to(1, 1, 0, b"to worker one, longer").unwrap();
        links[0].recv(soon()).unwrap();
        links[1].recv(soon()).unwrap();
        links[1].coordinator().send(2, 0, b"reply").unwrap();
        mesh.recv_from(1).unwrap();
        let snap = mesh.metrics_snapshot();
        assert_eq!(snap.peers.len(), 2);
        assert_eq!(snap.peers[0].peer, 0);
        assert_eq!(snap.peers[1].peer, 1);
        assert_eq!(snap.peers[0].frames_sent, 1);
        assert_eq!(snap.peers[1].frames_received, 1);
        let (sent, recv) = mesh.bytes_moved();
        assert_eq!(
            snap.peers.iter().map(|p| p.bytes_sent).sum::<u64>(),
            sent,
            "snapshot and mesh totals agree"
        );
        assert_eq!(
            snap.peers.iter().map(|p| p.bytes_received).sum::<u64>(),
            recv
        );
        assert_eq!(snap.total_frames(), 3);
    }

    #[test]
    fn only_recv_timeouts_are_transient() {
        assert!(TransportError::Io {
            peer: 1,
            detail: "recv timed out after 500ms".into()
        }
        .is_transient());
        for e in [
            TransportError::Io {
                peer: 1,
                detail: "connection refused".into(),
            },
            TransportError::Closed { peer: 1 },
            TransportError::OutOfOrder {
                peer: 1,
                expected: 0,
                got: 2,
            },
            TransportError::Frame {
                peer: 1,
                err: FrameError::Truncated { wanted: 48, got: 7 },
            },
            TransportError::Protocol {
                peer: 1,
                detail: "census totals disagree".into(),
            },
        ] {
            assert!(!e.is_transient(), "{e} must not be retryable in place");
        }
    }

    #[test]
    fn scheduled_fault_fires_every_nth_send_without_being_consumed() {
        let (mut a, mut b) = Peer::loopback_pair(COORDINATOR, 0);
        a.inject(Fault::Every {
            n: 3,
            fault: Box::new(Fault::FlipBit { bit: 200 }),
        });
        let mut outcomes = Vec::new();
        for i in 0..9u64 {
            a.send(1, i, b"payload").unwrap();
            outcomes.push(b.recv().is_ok());
        }
        // The first two frames are clean; the 3rd send fires the
        // schedule and corrupts the frame, and because a corrupted frame
        // burns a sequence number, every later frame on the same channel
        // is out of order — exactly why the serving layer respawns on a
        // fresh channel instead of limping on.
        assert_eq!(&outcomes[..3], &[true, true, false]);
        assert!(outcomes[3..].iter().all(|ok| !ok));
        // The schedule kept firing (sends 3, 6, 9): the sender's flight
        // ring witnessed three injected flips, not one.
        let mut dump = String::new();
        a.flight().dump_with(|_| "?", &mut dump);
        assert_eq!(dump.matches("bit flipped in transit").count(), 3);
    }

    #[test]
    fn one_shot_faults_take_precedence_over_the_schedule() {
        let (mut a, mut b) = Peer::loopback_pair(COORDINATOR, 0);
        a.inject(Fault::Every {
            n: 1,
            fault: Box::new(Fault::FlipBit { bit: 200 }),
        });
        a.inject(Fault::Drop);
        // The one-shot Drop wins and the schedule does not tick.
        a.send(1, 0, b"dropped").unwrap();
        assert!(matches!(b.recv(), Err(TransportError::Closed { .. })));
    }

    #[test]
    fn mesh_star_reaches_every_worker() {
        let (mut mesh, links) = Mesh::loopback_mesh(4, &[]);
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(w, mut l)| {
                std::thread::spawn(move || {
                    let (_, f) = l.recv(None).unwrap();
                    l.coordinator()
                        .send(f.phase, f.epoch, &[f.payload[0] + w as u8])
                        .unwrap();
                })
            })
            .collect();
        for w in 0..4 {
            mesh.send_to(w, 1, 0, &[10]).unwrap();
        }
        for w in 0..4 {
            let f = mesh.recv_from(w).unwrap();
            assert_eq!(f.payload, vec![10 + w as u8]);
            assert_eq!(f.src, w as u32);
        }
        for h in handles {
            h.join().unwrap();
        }
        let (sent, recv) = mesh.frames_moved();
        assert_eq!((sent, recv), (4, 4));
    }

    #[test]
    fn fault_wire_roundtrip() {
        let faults = [
            Fault::Drop,
            Fault::Truncate,
            Fault::FlipBit { bit: 123 },
            Fault::Reorder,
            Fault::Every {
                n: 3,
                fault: Box::new(Fault::FlipBit { bit: 7 }),
            },
            Fault::Every {
                n: 2,
                fault: Box::new(Fault::Every {
                    n: 5,
                    fault: Box::new(Fault::Drop),
                }),
            },
        ];
        for f in &faults {
            let mut w = ByteWriter::default();
            f.encode(&mut w);
            let bytes = w.into_bytes();
            let got = Fault::decode(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(&got, f);
        }
        // Hostile payloads: unknown tag and unbounded nesting are typed
        // parse errors, never panics or stack overflows.
        let mut w = ByteWriter::default();
        w.put_u32(9);
        assert!(Fault::decode(&mut ByteReader::new(&w.into_bytes())).is_err());
        let mut w = ByteWriter::default();
        for _ in 0..64 {
            w.put_u32(4);
            w.put_u64(1);
        }
        w.put_u32(0);
        assert!(Fault::decode(&mut ByteReader::new(&w.into_bytes())).is_err());
    }

    /// Full p2p meshes over `workers` shards on both transports.
    fn meshes(workers: usize) -> Vec<(&'static str, Mesh, Vec<WorkerLinks>)> {
        let edges = Mesh::all_pairs(workers);
        let (lm, ll) = Mesh::loopback_mesh(workers, &edges);
        let (tm, tl) = Mesh::tcp_mesh(workers, &edges).unwrap();
        vec![("loopback", lm, ll), ("tcp", tm, tl)]
    }

    /// A deadline no healthy delivery in these tests gets near.
    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_secs(5))
    }

    #[test]
    fn the_inbox_tags_interleaved_frames_with_their_sender_in_link_order() {
        for (name, mut mesh, mut links) in meshes(3) {
            let mut l2 = links.pop().unwrap();
            let mut l1 = links.pop().unwrap();
            let mut l0 = links.pop().unwrap();
            for i in 0..4u64 {
                mesh.send_to(0, 1, i, b"spoke").unwrap();
                l1.peer_to(0).unwrap().send(2, i, b"one").unwrap();
                l2.peer_to(0).unwrap().send(3, i, b"two").unwrap();
            }
            let mut next = std::collections::BTreeMap::new();
            for _ in 0..12 {
                let (from, f) = l0.recv(soon()).unwrap();
                let (phase, body): (u32, &[u8]) = match from {
                    COORDINATOR => (1, b"spoke"),
                    1 => (2, b"one"),
                    2 => (3, b"two"),
                    other => panic!("{name}: delivery from unknown sender {other}"),
                };
                assert_eq!(
                    (f.src, f.phase, &f.payload[..]),
                    (from, phase, body),
                    "{name}"
                );
                let seq = next.entry(from).or_insert(0u64);
                assert_eq!(
                    (f.seq, f.epoch),
                    (*seq, *seq),
                    "{name}: link {from} in order"
                );
                *seq += 1;
            }
            assert_eq!(next.into_values().collect::<Vec<_>>(), [4, 4, 4], "{name}");
        }
    }

    #[test]
    fn an_expired_inbox_deadline_is_a_transient_error() {
        for (name, mut mesh, mut links) in meshes(2) {
            let l0 = &mut links[0];
            let err = l0
                .recv(Some(Instant::now() + Duration::from_millis(20)))
                .unwrap_err();
            assert!(err.is_transient(), "{name}: {err}");
            assert_eq!(err.peer(), 0, "{name}: names the inbox's own shard");
            // The inbox is unharmed.
            mesh.send_to(0, 1, 0, b"late").unwrap();
            let (from, f) = l0.recv(soon()).unwrap();
            assert_eq!(
                (from, &f.payload[..]),
                (COORDINATOR, &b"late"[..]),
                "{name}"
            );
        }
    }

    #[test]
    fn a_dropped_link_is_closed_naming_that_peer() {
        for (name, mut mesh, mut links) in meshes(3) {
            let l2 = links.pop().unwrap();
            let mut l1 = links.pop().unwrap();
            let mut l0 = links.pop().unwrap();
            // One link dropped by a fault, then a whole worker's links.
            l1.peer_to(0).unwrap().inject(Fault::Drop);
            l1.peer_to(0).unwrap().send(2, 0, b"never arrives").unwrap();
            match l0.recv(soon()) {
                Err(TransportError::Closed { peer: 1 }) => {}
                other => panic!("{name}: dropped link surfaced as {other:?}"),
            }
            drop(l2);
            match l0.recv(soon()) {
                Err(TransportError::Closed { peer: 2 }) => {}
                other => panic!("{name}: dropped worker surfaced as {other:?}"),
            }
            // The surviving link still delivers.
            mesh.send_to(0, 1, 0, b"spoke").unwrap();
            assert_eq!(l0.recv(soon()).unwrap().0, COORDINATOR, "{name}");
        }
    }

    #[test]
    fn a_truncated_peer_frame_is_a_typed_error_not_a_hang() {
        for (name, _mesh, mut links) in meshes(2) {
            let mut l1 = links.pop().unwrap();
            let mut l0 = links.pop().unwrap();
            let link = l1.peer_to(0).unwrap();
            link.inject(Fault::Truncate);
            link.send(18, 0, b"a handoff payload that gets cut")
                .unwrap();
            match l0.recv(soon()) {
                Err(TransportError::Frame {
                    peer: 1,
                    err: FrameError::Truncated { .. },
                }) => {}
                other => panic!("{name}: truncation surfaced as {other:?}"),
            }
            match l0.recv(soon()) {
                Err(TransportError::Closed { peer: 1 }) => {}
                other => panic!("{name}: the cut link surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn reader_threads_exit_when_their_links_drop() {
        let (_mesh, mut links) = Mesh::tcp_mesh(3, &Mesh::all_pairs(3)).unwrap();
        let l0 = links.remove(0);
        let inbox = Arc::downgrade(&l0.inbox);
        // The spoke's and both peer links' readers share the inbox.
        assert_eq!(inbox.strong_count(), 4);
        // The remote ends stay open: dropping the bundle alone must end
        // its readers.
        drop(l0);
        assert_eq!(inbox.strong_count(), 0, "every reader thread was joined");
    }

    #[test]
    fn p2p_mesh_links_every_pair_both_transports() {
        for tcp in [false, true] {
            let edges = Mesh::all_pairs(3);
            assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
            let (mut mesh, mut links) = if tcp {
                Mesh::tcp_mesh(3, &edges).unwrap()
            } else {
                Mesh::loopback_mesh(3, &edges)
            };
            for (w, l) in links.iter().enumerate() {
                assert_eq!(l.shard(), w as u32);
                assert_eq!(
                    l.connected(),
                    (0..3u32).filter(|&s| s != w as u32).collect::<Vec<_>>()
                );
            }
            // Worker 0 talks straight to worker 2; the coordinator spoke
            // still works and never saw the bytes.
            let mut l2 = links.pop().unwrap();
            // Kept alive: dropping it would put a `Closed` in l2's inbox.
            let _l1 = links.pop().unwrap();
            let mut l0 = links.pop().unwrap();
            l0.peer_to(2).unwrap().send(16, 1, b"direct").unwrap();
            let (from, f) = l2.recv(soon()).unwrap();
            assert_eq!((from, f.src, &f.payload[..]), (0, 0, &b"direct"[..]));
            assert!(l0.peer_bytes_moved() > 0);
            assert!(l2.peer_bytes_moved() > 0);
            mesh.send_to(0, 1, 0, b"spoke").unwrap();
            assert_eq!(l0.recv(soon()).unwrap().1.payload, b"spoke");
            let (sent, _) = mesh.frames_moved();
            assert_eq!(sent, 1, "coordinator never carried the direct frame");
        }
    }

    #[test]
    fn partial_mesh_leaves_unlisted_pairs_unconnected() {
        let (_mesh, mut links) = Mesh::loopback_mesh(3, &[(0, 2)]);
        assert!(links[0].peer_to(1).is_none());
        assert!(links[1].peer_to(0).is_none());
        assert!(links[1].peer_to(2).is_none());
        assert!(links[0].peer_to(2).is_some());
        assert_eq!(links[1].connected(), Vec::<u32>::new());
        assert_eq!(links[1].peer_bytes_moved(), 0);
    }

    #[test]
    fn peer_link_faults_surface_typed_mid_mesh() {
        // Faults arm on worker↔worker channels exactly as on spokes.
        let (_mesh, mut links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        l0.peer_to(1).unwrap().inject(Fault::FlipBit { bit: 77 });
        l0.peer_to(1)
            .unwrap()
            .send(18, 0, b"handoff payload")
            .unwrap();
        assert!(matches!(
            l1.recv(soon()),
            Err(TransportError::Frame { peer: 0, .. })
        ));
    }

    #[test]
    fn mesh_respawn_replaces_a_dead_channel_and_rearms_faults() {
        let (mut mesh, mut links) = Mesh::loopback_mesh(2, &[]);
        mesh.send_to(0, 1, 0, b"healthy").unwrap();
        links[0].recv(soon()).unwrap();

        // Kill the channel to worker 0.
        mesh.peer_mut(0).inject(Fault::Drop);
        mesh.send_to(0, 1, 0, b"lost").unwrap();
        assert!(matches!(
            links[0].recv(soon()),
            Err(TransportError::Closed { .. })
        ));

        // Respawn: the surviving old worker end sees Closed, the new
        // spokes work with fresh sequence numbers.
        let mut fresh = mesh.rebuild(false).unwrap();
        assert!(matches!(
            links[1].recv(soon()),
            Err(TransportError::Closed { peer: COORDINATOR })
        ));
        mesh.send_to(0, 2, 1, b"reborn").unwrap();
        let (_, f) = fresh[0].recv(soon()).unwrap();
        assert_eq!((f.seq, &f.payload[..]), (0, &b"reborn"[..]));
        fresh[0].coordinator().send(2, 1, b"ack").unwrap();
        assert_eq!(mesh.recv_from(0).unwrap().payload, b"ack");
        mesh.send_to(1, 1, 0, b"still here").unwrap();
        assert_eq!(fresh[1].recv(soon()).unwrap().1.payload, b"still here");

        // Fault-on-respawn: the queued fault kills worker 0's rebuilt
        // spoke only, and every rebuild re-arms it.
        mesh.arm_on_respawn(0, Fault::Drop);
        for round in 0..2u64 {
            let mut again = mesh.rebuild(false).unwrap();
            mesh.send_to(0, 3, round, b"doomed").unwrap();
            assert!(matches!(
                again[0].recv(soon()),
                Err(TransportError::Closed { peer: COORDINATOR })
            ));
            mesh.send_to(1, 3, round, b"healthy").unwrap();
            assert_eq!(again[1].recv(soon()).unwrap().1.payload, b"healthy");
        }
    }

    #[test]
    fn rebuild_p2p_replaces_every_channel() {
        let (mut mesh, links) = Mesh::loopback_mesh(2, &Mesh::all_pairs(2));
        mesh.set_recv_timeout(Duration::from_millis(250)).unwrap();
        let mut fresh = mesh.rebuild(false).unwrap();
        // Old spokes read as closed — that is what makes the old workers
        // exit and drop their bundles...
        let mut it = links.into_iter();
        let mut l0 = it.next().unwrap();
        let mut l1 = it.next().unwrap();
        for l in [&mut l0, &mut l1] {
            assert!(matches!(
                l.recv(soon()),
                Err(TransportError::Closed { peer: COORDINATOR })
            ));
        }
        // ...and a dropped bundle closes its worker↔worker ends, so a
        // mate still blocked on one sees typed Closed, not a hang.
        drop(l0);
        assert!(matches!(
            l1.recv(soon()),
            Err(TransportError::Closed { peer: 0 })
        ));
        // New spokes and peer links carry frames with reset sequences.
        mesh.send_to(1, 1, 5, b"fresh spoke").unwrap();
        let (_, f) = fresh[1].recv(soon()).unwrap();
        assert_eq!((f.seq, &f.payload[..]), (0, &b"fresh spoke"[..]));
        let mut f1 = fresh.pop().unwrap();
        let mut f0 = fresh.pop().unwrap();
        f0.peer_to(1).unwrap().send(18, 5, b"fresh link").unwrap();
        let (from, f) = f1.recv(soon()).unwrap();
        assert_eq!((from, f.seq), (0, 0));
    }

    #[test]
    fn rebuilding_a_spoke_only_mesh_links_no_workers() {
        for tcp in [false, true] {
            let (mut mesh, links) = if tcp {
                Mesh::tcp_mesh(3, &[]).unwrap()
            } else {
                Mesh::loopback_mesh(3, &[])
            };
            drop(links);
            let mut fresh = mesh.rebuild(tcp).unwrap();
            for (w, l) in fresh.iter_mut().enumerate() {
                assert_eq!(l.connected(), Vec::<u32>::new(), "tcp {tcp}: worker {w}");
                mesh.send_to(w, 1, 0, b"spoke").unwrap();
                assert_eq!(l.recv(soon()).unwrap().0, COORDINATOR, "tcp {tcp}");
            }
        }
    }
}
